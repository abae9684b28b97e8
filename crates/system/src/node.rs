//! One host node: cores + F4T library + command queues + PCIe + engine.

use f4t_core::{Engine, EngineConfig, EventKind, FlowEvent, HostNotification};
use f4t_host::{
    Command, Completion, CoreBudget, CpuAccounting, CpuCategory, F4tLib, PcieDir, PcieModel,
    Runtime, LIB_CMD_CYCLES, LIB_COMPLETION_CYCLES, LIB_POLL_CYCLES,
};
use f4t_tcp::{FlowId, FourTuple, SeqNum};
use f4t_workloads::http::{NGINX_APP_CYCLES, NGINX_VFS_CYCLES};
use f4t_workloads::{
    BulkReceiver, BulkSender, ChurnClient, ChurnServer, EchoClient, EchoServer, HttpClient,
    HttpServer, IncastSender, RoundRobinSender, SinkServer, SlowlorisClient,
};
use std::collections::{HashMap, VecDeque};

/// The application driver running on one core.
#[derive(Debug)]
pub enum Driver {
    /// No application (core services completions only).
    Idle,
    /// iperf-style bulk sender.
    BulkSender(BulkSender),
    /// Bulk receiving side (drains data, opens the window).
    BulkReceiver(BulkReceiver),
    /// Round-robin multi-flow sender.
    RoundRobin(RoundRobinSender),
    /// Echo client over a flow set.
    EchoClient {
        /// The driver.
        client: EchoClient,
        /// Flow rotation.
        flows: Vec<FlowId>,
        /// Next flow index.
        next: usize,
    },
    /// Echo server over a flow set.
    EchoServer {
        /// The driver.
        server: EchoServer,
        /// Flow rotation.
        flows: Vec<FlowId>,
        /// Next flow index.
        next: usize,
    },
    /// wrk-style HTTP client.
    HttpClient {
        /// The driver.
        client: HttpClient,
        /// Flow rotation.
        flows: Vec<FlowId>,
        /// Next flow index.
        next: usize,
    },
    /// Nginx-style HTTP server.
    HttpServer {
        /// The driver.
        server: HttpServer,
        /// Flow rotation.
        flows: Vec<FlowId>,
        /// Next flow index.
        next: usize,
    },
    /// Synchronized N-to-1 incast sender (FtStorm).
    Incast(IncastSender),
    /// Fan-in receiver draining whatever is readable (FtStorm).
    Sink {
        /// The driver.
        server: SinkServer,
        /// Flow rotation.
        flows: Vec<FlowId>,
        /// Next flow index.
        next: usize,
    },
    /// Connect/close cycling client; flow membership is dynamic
    /// (FtStorm churnstorm).
    ChurnClient {
        /// The driver.
        client: ChurnClient,
        /// Live flow rotation (node-maintained).
        flows: Vec<FlowId>,
        /// Next flow index.
        next: usize,
    },
    /// Accept/drain/passive-close server for churning peers.
    ChurnServer {
        /// The driver.
        server: ChurnServer,
        /// Live flow rotation (node-maintained).
        flows: Vec<FlowId>,
        /// Next flow index.
        next: usize,
    },
    /// Near-idle residency stressor dripping bytes at a long interval.
    Slowloris(SlowlorisClient),
}

/// One application thread's core.
#[derive(Debug)]
struct Core {
    budget: CoreBudget,
    lib: F4tLib,
    acct: CpuAccounting,
    driver: Driver,
    completions: VecDeque<Completion>,
    /// Flows made readable by recent completions (epoll-style readiness,
    /// so closed-loop drivers with thousands of flows step the right
    /// one instead of scanning).
    ready: VecDeque<FlowId>,
    /// Consecutive empty poll ticks (drives sleep-after-poll, §4.6).
    empty_polls: u32,
    /// Whether the thread has gone to sleep awaiting a runtime signal.
    sleeping: bool,
    /// Timer armed before sleeping (paced senders wake themselves).
    wake_at_ns: Option<u64>,
}

/// A host node (server machine) in the testbed.
#[derive(Debug)]
pub struct Node {
    /// The FtEngine on this node's smartNIC slot.
    pub engine: Engine,
    pcie: PcieModel,
    cores: Vec<Core>,
    /// Receive-side scaling: completions of a flow go to one core (§4.6).
    rss: HashMap<FlowId, usize>,
    /// Last REQ pointer per flow, to charge TX payload DMA.
    last_req: HashMap<FlowId, SeqNum>,
    /// RX payload DMA bytes already charged.
    rx_dma_charged: u64,
    /// Completions waiting for PCIe d2h budget, with their destination
    /// core captured at enqueue time (so churn teardown cannot re-route
    /// an in-flight completion when a flow id is recycled).
    completion_backlog: VecDeque<(usize, Completion)>,
    /// Round-robin core assignment for engine-accepted connections.
    accept_rr: usize,
    /// Round-robin start for command DMA, so one busy core cannot
    /// monopolize the PCIe budget.
    dma_rr: usize,
    /// Sleep-after-poll (§4.6): when enabled, an application thread that
    /// polls emptily for ~10 µs goes to sleep and is woken by the runtime
    /// when a completion arrives — "F4T software does not consume CPU
    /// cycles when there are no requests".
    sleep_after_poll: bool,
    /// The userspace driver: BAR + hugepage + queue-pair bookkeeping
    /// (§4.1.1). One queue pair per core, created at node setup.
    runtime: Runtime,
}

impl Node {
    /// Creates a node with `cores` application threads, each with its own
    /// queue pair registered through the runtime.
    pub fn new(cores: usize, engine: EngineConfig) -> Node {
        let mut runtime = Runtime::open_default();
        for _ in 0..cores {
            runtime
                .create_queue_pair(64)
                .expect("BAR/hugepage capacity for all application threads");
        }
        Node {
            engine: Engine::new(engine),
            pcie: PcieModel::gen3x16(),
            cores: (0..cores)
                .map(|_| Core {
                    budget: CoreBudget::xeon_5118(),
                    lib: F4tLib::new(),
                    acct: CpuAccounting::default(),
                    driver: Driver::Idle,
                    completions: VecDeque::new(),
                    ready: VecDeque::new(),
                    empty_polls: 0,
                    sleeping: false,
                    wake_at_ns: None,
                })
                .collect(),
            rss: HashMap::new(),
            last_req: HashMap::new(),
            rx_dma_charged: 0,
            completion_backlog: VecDeque::new(),
            accept_rr: 0,
            dma_rr: 0,
            sleep_after_poll: false,
            runtime,
        }
    }

    /// The runtime's view of this node's queue pairs (diagnostics).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Enables/disables the §4.6 sleep-after-poll policy on all cores.
    pub fn set_sleep_after_poll(&mut self, enabled: bool) {
        self.sleep_after_poll = enabled;
    }

    /// Switches every core's library to the compact 8 B commands (§6).
    /// Safe to call after flows are registered (socket state is kept).
    pub fn use_compact_commands(&mut self) {
        for c in &mut self.cores {
            c.lib.switch_to_compact();
        }
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Opens a pre-established flow owned by `core`.
    pub fn add_established_flow(
        &mut self,
        tuple: FourTuple,
        isn: SeqNum,
        core: usize,
    ) -> Option<FlowId> {
        let flow = self.engine.open_established(tuple, isn)?;
        self.cores[core].lib.register(flow, isn, true);
        self.rss.insert(flow, core);
        self.last_req.insert(flow, isn);
        Some(flow)
    }

    /// Actively opens a connection owned by `core`: allocates the engine
    /// flow, registers the socket, and enqueues the Connect command that
    /// launches the handshake. Returns `None` when the engine is at its
    /// flow limit or the core's command ring is full (the churn manager
    /// retries next tick).
    pub fn open_active_flow(&mut self, tuple: FourTuple, core: usize) -> Option<FlowId> {
        if self.cores[core].lib.commands.is_full() {
            return None;
        }
        let flow = self.engine.open_active(tuple)?;
        let isn = self.engine.peek_tcb(flow).map(|t| t.snd_una).unwrap_or(SeqNum::ZERO);
        let c = &mut self.cores[core];
        c.lib.register(flow, isn, false);
        let connected = c.lib.connect(flow);
        debug_assert!(connected.is_ok(), "ring fullness checked above");
        self.rss.insert(flow, core);
        self.last_req.insert(flow, isn);
        if let Driver::ChurnClient { client, flows, .. } = &mut c.driver {
            client.on_open(flow);
            flows.push(flow);
        }
        Some(flow)
    }

    /// Installs a driver on a core.
    pub fn set_driver(&mut self, core: usize, driver: Driver) {
        self.cores[core].driver = driver;
    }

    /// Per-core utilization accounting.
    pub fn accounting(&self, core: usize) -> &CpuAccounting {
        &self.cores[core].acct
    }

    /// Merged utilization across cores.
    pub fn total_accounting(&self) -> CpuAccounting {
        let mut total = CpuAccounting::default();
        for c in &self.cores {
            total.merge(&c.acct);
        }
        total
    }

    /// Immutable access to a core's library (stats).
    pub fn lib(&self, core: usize) -> &F4tLib {
        &self.cores[core].lib
    }

    /// Immutable access to a core's driver (stats).
    pub fn driver(&self, core: usize) -> &Driver {
        &self.cores[core].driver
    }

    /// Total requests issued by all drivers.
    pub fn requests(&self) -> u64 {
        self.cores
            .iter()
            .map(|c| match &c.driver {
                Driver::BulkSender(s) => s.requests(),
                Driver::RoundRobin(s) => s.requests(),
                Driver::EchoClient { client, .. } => client.completed(),
                Driver::HttpClient { client, .. } => client.completed(),
                Driver::HttpServer { server, .. } => server.served(),
                Driver::EchoServer { server, .. } => server.replies(),
                Driver::Incast(s) => s.requests(),
                Driver::Slowloris(s) => s.requests(),
                Driver::ChurnClient { client, .. } => client.completed(),
                Driver::ChurnServer { server, .. } => server.served(),
                _ => 0,
            })
            .sum()
    }

    /// Connections currently somewhere in their lifecycle across all
    /// churn drivers (0 when every opened flow has fully closed).
    pub fn churn_live(&self) -> usize {
        self.cores
            .iter()
            .map(|c| match &c.driver {
                Driver::ChurnClient { client, .. } => client.live(),
                Driver::ChurnServer { server, .. } => server.live(),
                _ => 0,
            })
            .sum()
    }

    /// Bytes consumed by receiving drivers (goodput measurement point).
    pub fn consumed_bytes(&self) -> u64 {
        self.cores
            .iter()
            .map(|c| match &c.driver {
                Driver::BulkReceiver(r) => r.consumed(),
                Driver::Sink { server, .. } => server.consumed(),
                Driver::ChurnServer { server, .. } => server.consumed(),
                _ => 0,
            })
            .sum()
    }

    /// PCIe diagnostics.
    pub fn pcie(&self) -> &PcieModel {
        &self.pcie
    }

    fn command_to_event(cmd: Command, now_ns: u64) -> FlowEvent {
        let kind = match cmd {
            Command::Connect { .. } => EventKind::Connect,
            Command::Close { .. } => EventKind::Close,
            Command::Send { req, .. } => EventKind::SendReq { req },
            Command::RecvConsumed { consumed, .. } => EventKind::RecvConsumed { consumed },
        };
        FlowEvent::new(cmd.flow(), kind, now_ns)
    }

    fn notification_to_completion(n: HostNotification) -> Completion {
        match n {
            HostNotification::Connected { flow } => Completion::Connected { flow },
            HostNotification::DataAcked { flow, upto } => Completion::Acked { flow, upto },
            HostNotification::DataReceived { flow, upto } => Completion::Received { flow, upto },
            HostNotification::PeerFin { flow } => Completion::Eof { flow },
            HostNotification::Closed { flow } => Completion::Closed { flow },
            HostNotification::NewConnection { flow, .. } => Completion::Accepted { flow },
        }
    }

    /// Advances the node one engine cycle.
    pub fn tick(&mut self, now_ns: u64) {
        self.pcie.tick();

        // 1. DMA commands from core queues into the engine (h2d), paying
        //    for the command entry and, for sends, the payload bytes.
        //    Queues are served round-robin starting at a rotating index.
        let n_cores = self.cores.len();
        self.dma_rr = (self.dma_rr + 1) % n_cores.max(1);
        'dma: for off in 0..n_cores {
            let i = (self.dma_rr + off) % n_cores;
            while let Some(&cmd) = self.cores[i].lib.commands_front() {
                let entry = self.cores[i].lib.entry_bytes() as u64;
                let payload = match cmd {
                    Command::Send { flow, req } => {
                        let prev = self.last_req.get(&flow).copied().unwrap_or(req);
                        u64::from(req.since(prev))
                    }
                    _ => 0,
                };
                if !self.engine.can_accept_event() {
                    break 'dma;
                }
                if !self.pcie.try_transfer(PcieDir::HostToDevice, entry + payload) {
                    break 'dma;
                }
                self.cores[i].lib.commands_pop();
                if let Command::Send { flow, req } = cmd {
                    self.last_req.insert(flow, req);
                }
                let accepted = self.engine.push_event(Self::command_to_event(cmd, now_ns));
                debug_assert!(accepted, "checked can_accept_event");
            }
        }

        // 2. Engine cycle.
        self.engine.tick();

        // 3. RX payload DMA (d2h): charge what the parser accepted.
        let rx_total = self.engine.rx_dma_bytes();
        if rx_total > self.rx_dma_charged {
            let delta = rx_total - self.rx_dma_charged;
            // Borrow against future budget: the DMA engine streams.
            let chunk = delta.min(4096);
            if self.pcie.try_transfer(PcieDir::DeviceToHost, chunk) {
                self.rx_dma_charged += chunk;
            }
        }

        // 4. Completions to cores (d2h, 16 B each). Engine-side connection
        //    lifecycle (accept / teardown) is intercepted here, in the same
        //    tick the engine acts, because flow ids are recycled
        //    immediately: by the time a PCIe-delayed completion reaches a
        //    core, its flow id may already name a different connection.
        while let Some(n) = self.engine.pop_notification() {
            match n {
                HostNotification::NewConnection { flow, .. } => {
                    let core = self.accept_rr % n_cores.max(1);
                    self.accept_rr += 1;
                    self.rss.insert(flow, core);
                    // Server-side sockets have asymmetric sequence bases:
                    // each direction picked its own ISN in the handshake.
                    if let Some(t) = self.engine.peek_tcb(flow) {
                        self.cores[core].lib.register_accepted(flow, t.snd_nxt, t.rcv_nxt);
                        self.last_req.insert(flow, t.snd_nxt);
                    }
                    if let Driver::ChurnServer { server, flows, .. } = &mut self.cores[core].driver
                    {
                        server.on_accept(flow);
                        flows.push(flow);
                    }
                    self.completion_backlog.push_back((core, Completion::Accepted { flow }));
                }
                HostNotification::Closed { flow } => {
                    let core = self.rss.get(&flow).copied().unwrap_or(0);
                    let churned = match &mut self.cores[core].driver {
                        Driver::ChurnClient { client, flows, .. } => {
                            client.on_closed(flow);
                            if let Some(p) = flows.iter().position(|&f| f == flow) {
                                flows.swap_remove(p);
                            }
                            true
                        }
                        Driver::ChurnServer { server, flows, .. } => {
                            server.on_closed(flow);
                            if let Some(p) = flows.iter().position(|&f| f == flow) {
                                flows.swap_remove(p);
                            }
                            true
                        }
                        _ => false,
                    };
                    if churned {
                        // Eager teardown: forget the flow everywhere and
                        // drop its still-undelivered completions, so the
                        // id can be reissued without aliasing state.
                        self.rss.remove(&flow);
                        self.last_req.remove(&flow);
                        self.cores[core].lib.deregister(flow);
                        self.completion_backlog.retain(|&(_, c)| c.flow() != flow);
                        // Completions already DMA'd to a core but not yet
                        // consumed (budget starvation) alias the reissued
                        // id too — their `upto` pointers are in the dead
                        // incarnation's sequence space.
                        for c in &mut self.cores {
                            c.completions.retain(|q| q.flow() != flow);
                        }
                    } else {
                        self.completion_backlog.push_back((core, Completion::Closed { flow }));
                    }
                }
                HostNotification::Connected { flow } => {
                    // Handshake complete: only now are both directions'
                    // sequence bases known (each side picked its own ISN
                    // and the SYN/SYN|ACK each consume one sequence
                    // number). Re-seed before any data completion can
                    // apply a pointer from the provisional space.
                    let core = self.rss.get(&flow).copied().unwrap_or(0);
                    if let Some(t) = self.engine.peek_tcb(flow) {
                        self.cores[core].lib.seed_handshake(flow, t.snd_una, t.rcv_nxt);
                        self.last_req.insert(flow, t.snd_una);
                    }
                    self.completion_backlog.push_back((core, Completion::Connected { flow }));
                }
                other => {
                    let c = Self::notification_to_completion(other);
                    let core = self.rss.get(&c.flow()).copied().unwrap_or(0);
                    self.completion_backlog.push_back((core, c));
                }
            }
        }
        while let Some(&(core, c)) = self.completion_backlog.front() {
            if !self.pcie.try_transfer(PcieDir::DeviceToHost, 16) {
                break;
            }
            self.completion_backlog.pop_front();
            self.cores[core].completions.push_back(c);
        }

        // 5. Core work.
        const SLEEP_AFTER_EMPTY_TICKS: u32 = 2_500; // ≈10 µs of polling
        for core in &mut self.cores {
            core.budget.tick();
            // Sleep-after-poll: a sleeping thread costs nothing; it wakes
            // on the runtime's signal (a completion arriving) or on its
            // own timer (a paced sender's next deadline).
            if core.sleeping {
                let timer_due = core.wake_at_ns.is_some_and(|t| now_ns >= t);
                if core.completions.is_empty() && !timer_due {
                    core.acct.charge(CpuCategory::Idle, 9);
                    continue;
                }
                core.sleeping = false;
                core.wake_at_ns = None;
                core.empty_polls = 0;
            }
            // Completions first (the poll loop of §4.6).
            while let Some(&c) = core.completions.front() {
                if !core.budget.try_spend(LIB_COMPLETION_CYCLES) {
                    break;
                }
                core.acct.charge(CpuCategory::F4tLib, LIB_COMPLETION_CYCLES);
                core.lib.on_completion(c);
                match c {
                    // Readability, connection establishment and FIN all
                    // make a flow actionable for closed-loop drivers.
                    Completion::Received { flow, .. }
                    | Completion::Accepted { flow }
                    | Completion::Connected { flow }
                    | Completion::Eof { flow } => core.ready.push_back(flow),
                    _ => {}
                }
                core.completions.pop_front();
            }
            // Application steps until the budget runs dry or the driver
            // has nothing to do.
            let mut did_anything = false;
            loop {
                let (cost_app, cost_lib) = match &core.driver {
                    Driver::Idle => break,
                    Driver::BulkSender(_) | Driver::RoundRobin(_) => (0, LIB_CMD_CYCLES),
                    Driver::BulkReceiver(_) => (0, LIB_CMD_CYCLES),
                    Driver::EchoClient { .. } => (100, 2 * LIB_CMD_CYCLES),
                    Driver::EchoServer { .. } => (100, 2 * LIB_CMD_CYCLES),
                    Driver::HttpClient { .. } => (300, 2 * LIB_CMD_CYCLES),
                    Driver::HttpServer { .. } => {
                        (NGINX_APP_CYCLES + NGINX_VFS_CYCLES, 2 * LIB_CMD_CYCLES)
                    }
                    Driver::Incast(_) | Driver::Sink { .. } | Driver::Slowloris(_) => {
                        (0, LIB_CMD_CYCLES)
                    }
                    Driver::ChurnClient { .. } | Driver::ChurnServer { .. } => {
                        (100, 2 * LIB_CMD_CYCLES)
                    }
                };
                if core.budget.available() < cost_app + cost_lib {
                    break;
                }
                // Readiness-driven flow choice for closed-loop drivers:
                // prefer a flow whose completion just arrived; fall back
                // to rotation (initial kick / spurious wakeups).
                let ready_flow = match &core.driver {
                    Driver::EchoClient { .. }
                    | Driver::EchoServer { .. }
                    | Driver::HttpClient { .. }
                    | Driver::HttpServer { .. }
                    | Driver::Sink { .. }
                    | Driver::ChurnClient { .. }
                    | Driver::ChurnServer { .. } => core.ready.pop_front(),
                    _ => None,
                };
                let from_ready = ready_flow.is_some();
                let pick = |flows: &[FlowId], next: &mut usize| -> FlowId {
                    if let Some(f) = ready_flow {
                        f
                    } else {
                        let f = flows[*next % flows.len()];
                        *next += 1;
                        f
                    }
                };
                let did_work = match &mut core.driver {
                    Driver::Idle => false,
                    Driver::BulkSender(s) => s.step(&mut core.lib),
                    Driver::BulkReceiver(r) => r.step(&mut core.lib) > 0,
                    Driver::RoundRobin(s) => s.step(&mut core.lib),
                    Driver::EchoClient { client, flows, next } => {
                        let f = pick(flows, next);
                        client.step_flow(f, &mut core.lib, now_ns)
                    }
                    Driver::EchoServer { server, flows, next } => {
                        let f = pick(flows, next);
                        server.step_flow(f, &mut core.lib)
                    }
                    Driver::HttpClient { client, flows, next } => {
                        let f = pick(flows, next);
                        client.step_flow(f, &mut core.lib, now_ns)
                    }
                    Driver::HttpServer { server, flows, next } => {
                        let f = pick(flows, next);
                        server.step_flow(f, &mut core.lib)
                    }
                    Driver::Incast(s) => s.step(&mut core.lib, now_ns),
                    Driver::Slowloris(s) => s.step(&mut core.lib, now_ns),
                    // Dynamic-membership drivers can have an empty
                    // rotation (all flows torn down); pick would panic.
                    Driver::Sink { server, flows, next } => {
                        if ready_flow.is_none() && flows.is_empty() {
                            false
                        } else {
                            let f = pick(flows, next);
                            server.step_flow(f, &mut core.lib)
                        }
                    }
                    Driver::ChurnClient { client, flows, next } => {
                        if ready_flow.is_none() && flows.is_empty() {
                            false
                        } else {
                            let f = pick(flows, next);
                            client.step_flow(f, &mut core.lib)
                        }
                    }
                    Driver::ChurnServer { server, flows, next } => {
                        if ready_flow.is_none() && flows.is_empty() {
                            false
                        } else {
                            let f = pick(flows, next);
                            server.step_flow(f, &mut core.lib)
                        }
                    }
                };
                if !did_work && from_ready {
                    // A spurious wakeup (e.g. a partial message): pay a
                    // poll and keep draining the ready queue.
                    if core.budget.try_spend(LIB_POLL_CYCLES) {
                        core.acct.charge(CpuCategory::F4tLib, LIB_POLL_CYCLES);
                        continue;
                    }
                    break;
                }
                if did_work {
                    did_anything = true;
                    let spent = core.budget.try_spend(cost_app + cost_lib);
                    debug_assert!(spent, "checked available");
                    if cost_app > 0 {
                        core.acct.charge(CpuCategory::App, cost_app);
                        // The VFS share of the HTTP server is kernel time.
                        if matches!(core.driver, Driver::HttpServer { .. }) {
                            core.acct.charge(CpuCategory::Kernel, NGINX_VFS_CYCLES);
                            // Re-attribute: app charge included vfs above.
                            core.acct.app -= NGINX_VFS_CYCLES;
                        }
                    }
                    core.acct.charge(CpuCategory::F4tLib, cost_lib);
                } else {
                    // Nothing actionable: pay one poll and yield.
                    if core.budget.try_spend(LIB_POLL_CYCLES) {
                        core.acct.charge(CpuCategory::F4tLib, LIB_POLL_CYCLES);
                    }
                    break;
                }
            }
            if did_anything || !core.completions.is_empty() {
                core.empty_polls = 0;
            } else {
                core.empty_polls += 1;
                if self.sleep_after_poll && core.empty_polls >= SLEEP_AFTER_EMPTY_TICKS {
                    core.sleeping = true;
                    // Arm the wake timer for drivers with future work.
                    core.wake_at_ns = match &core.driver {
                        Driver::EchoClient { client, .. } => client.earliest_deadline(),
                        _ => None,
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn tuple(i: u16) -> FourTuple {
        FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), 10_000 + i, Ipv4Addr::new(10, 0, 0, 2), 80)
    }

    #[test]
    fn command_dma_reaches_engine() {
        let mut node = Node::new(1, EngineConfig::single_fpc());
        let flow = node.add_established_flow(tuple(0), SeqNum(0), 0).unwrap();
        node.set_driver(0, Driver::BulkSender(BulkSender::new(flow, 128)));
        for c in 0..2_000u64 {
            node.tick(c * 4);
        }
        assert!(node.engine.stats().host_events > 0, "commands crossed PCIe");
        // The engine produced data segments.
        assert!(node.engine.pop_tx().is_some());
    }

    #[test]
    fn send_rate_matches_library_cost_model() {
        // One core at 2.3 GHz with 40-cycle sends + ~12-cycle completions
        // should issue tens of requests per microsecond (≈44 Mrps).
        let mut node = Node::new(1, EngineConfig::reference());
        let flow = node.add_established_flow(tuple(0), SeqNum(0), 0).unwrap();
        node.set_driver(0, Driver::BulkSender(BulkSender::new(flow, 128)));
        // Drain TX so buffer never fills (ideal peer ACK immediately).
        let mut issued_at_10us = 0;
        for c in 0..25_000u64 {
            node.tick(c * 4);
            while node.engine.pop_tx().is_some() {}
            // Ideal peer ACKs at a realistic cadence (every ~16 cycles,
            // i.e. one cumulative ACK per couple of MTUs of data).
            if c % 16 == 0 {
                if let Some(t) = node.engine.peek_tcb(flow) {
                    if t.snd_nxt.since(t.snd_una) > 0 {
                        node.engine.push_rx(f4t_tcp::Segment::pure_ack(
                            tuple(0).reversed(),
                            t.rcv_nxt,
                            t.snd_nxt,
                            f4t_tcp::TCP_BUFFER,
                        ));
                    }
                }
            }
            if c == 2_499 {
                let Driver::BulkSender(s) = node.driver(0) else { panic!() };
                issued_at_10us = s.requests();
            }
        }
        let Driver::BulkSender(s) = node.driver(0) else { panic!() };
        let issued_last_90us = s.requests() - issued_at_10us;
        // 90 µs at ~44 Mrps ≈ 3960; allow wide tolerance for completion
        // processing share.
        assert!(
            (2_000..5_000).contains(&issued_last_90us),
            "issued {issued_last_90us} in 90 us"
        );
    }

    #[test]
    fn rss_routes_completions_to_owning_core() {
        let mut node = Node::new(2, EngineConfig::single_fpc());
        let f0 = node.add_established_flow(tuple(0), SeqNum(0), 0).unwrap();
        let f1 = node.add_established_flow(tuple(1), SeqNum(0), 1).unwrap();
        node.set_driver(0, Driver::BulkSender(BulkSender::new(f0, 1000)));
        node.set_driver(1, Driver::BulkSender(BulkSender::new(f1, 1000)));
        for c in 0..4_000u64 {
            node.tick(c * 4);
            while let Some(seg) = node.engine.pop_tx() {
                // Ideal peer: ack everything instantly.
                node.engine.push_rx(f4t_tcp::Segment::pure_ack(
                    seg.tuple.reversed(),
                    seg.ack,
                    seg.seq_end(),
                    f4t_tcp::TCP_BUFFER,
                ));
            }
        }
        // Both cores saw their own flow's pointers advance.
        assert!(node.lib(0).socket(f0).unwrap().acked.since(SeqNum(0)) > 0);
        assert!(node.lib(1).socket(f1).unwrap().acked.since(SeqNum(0)) > 0);
    }
}
