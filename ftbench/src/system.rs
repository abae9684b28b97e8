//! The system workloads `echo`, `bulk` and `churnstorm`: two nodes built
//! by the `F4tSystem` constructors, joined by the clean 100 Gbps link.
//!
//! Timed runs step `F4tSystem::run_ns`. The traced run moves the two
//! nodes out of the constructed system and steps them through [`Rig`], a
//! copy of `F4tSystem::tick` made of the same public calls, so each call
//! can carry a span. The copy is faithful only while `F4tSystem` ticks
//! every cycle; the fidelity check (traced outcome == timed outcome, bit
//! for bit) fails the run if the two ever diverge.

use crate::derive::{self, Latency};
use crate::layers::{self, Layers};
use crate::spans::{Clock, Span, Tracer};
use crate::{Rep, Sim};
use f4t_core::{Engine, EngineConfig};
use f4t_host::CpuAccounting;
use f4t_sim::{FlightStage, Histogram, MetricsRegistry};
use f4t_system::link::{A_TO_B, B_TO_A};
use f4t_system::{Driver, DuplexLink, F4tSystem, Node};
use f4t_tcp::FourTuple;
use std::net::Ipv4Addr;
use std::time::Instant;

/// Application cores per node.
const CORES: usize = 2;
/// `echo` connections, spread over the cores.
const ECHO_FLOWS: usize = 256;
/// Message / request size for `echo` and `bulk`.
const MSG_BYTES: u32 = 128;
/// Connection lifecycles `churnstorm` keeps in flight.
const CHURN_LIVE: usize = 32;
/// Churn opens per tick (the `F4tSystem::churnstorm` pacing).
const CHURN_OPENS_PER_TICK: usize = 4;
/// Engine-core period.
const CYCLE_NS: u64 = 4;
/// Simulated warm-up before the measurement window.
pub const WARMUP_NS: u64 = 1_000_000;
/// The measurement window.
pub const WINDOW_NS: u64 = 2_000_000;
/// Set-ups timed per repetition.
const SETUPS: usize = 25;
/// Link line rate, both directions together, in bits per ns.
const LINK_BITS_PER_NS: f64 = 2.0 * 100.0;

/// Which system workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed-loop ping-pong over 256 flows.
    Echo,
    /// One saturating sender per core.
    Bulk,
    /// Sustained connect/request/close cycling.
    Churnstorm,
}

fn build(kind: Kind, cfg: EngineConfig) -> F4tSystem {
    match kind {
        Kind::Echo => F4tSystem::echo(CORES, ECHO_FLOWS, MSG_BYTES, cfg),
        Kind::Bulk => F4tSystem::bulk(CORES, MSG_BYTES, cfg),
        Kind::Churnstorm => F4tSystem::churnstorm(CORES, CHURN_LIVE, cfg),
    }
}

/// Everything read from the two nodes at one edge of the window.
struct Snap {
    telemetry: MetricsRegistry,
    stats: String,
    requests_a: u64,
    requests_b: u64,
    consumed: u64,
    cpu: CpuAccounting,
    pcie: [u64; 3],
    churn: [u64; 3],
    /// Client-flow progress pointers: `rcv_nxt` for echo replies,
    /// `snd_una` for bulk sends.
    progress: Vec<u32>,
}

fn snap(a: &Node, b: &Node) -> Snap {
    let mut telemetry = MetricsRegistry::new();
    a.engine.collect("a.engine", &mut telemetry);
    b.engine.collect("b.engine", &mut telemetry);
    let mut churn = [0u64; 3];
    let mut progress = Vec::new();
    for core in 0..a.core_count() {
        match a.driver(core) {
            Driver::EchoClient { flows, .. } => progress.extend(
                flows
                    .iter()
                    .map(|&f| a.engine.peek_tcb(f).map_or(0, |t| t.rcv_nxt.0)),
            ),
            Driver::BulkSender(s) => {
                progress.push(a.engine.peek_tcb(s.flow()).map_or(0, |t| t.snd_una.0))
            }
            Driver::ChurnClient { client, .. } => {
                churn[0] += client.opened();
                churn[1] += client.completed();
                churn[2] += client.live() as u64;
            }
            _ => {}
        }
    }
    Snap {
        telemetry,
        stats: format!("{:?}{:?}", a.engine.stats(), b.engine.stats()),
        requests_a: a.requests(),
        requests_b: b.requests(),
        consumed: a.consumed_bytes() + b.consumed_bytes(),
        cpu: a.total_accounting(),
        pcie: [
            a.pcie().h2d_bytes() + b.pcie().h2d_bytes(),
            a.pcie().d2h_bytes() + b.pcie().d2h_bytes(),
            a.pcie().refusals() + b.pcie().refusals(),
        ],
        churn,
        progress,
    }
}

fn client_latency(a: &Node) -> Histogram {
    let mut h = Histogram::new();
    for core in 0..a.core_count() {
        if let Driver::EchoClient { client, .. } = a.driver(core) {
            h.merge(&client.latency);
        }
    }
    h
}

/// The simulated outcome of a run, from the window's two snapshots.
fn outcome(kind: Kind, s0: &Snap, s1: &Snap, a: &Node) -> Sim {
    let delta = s1.telemetry.delta(&s0.telemetry);
    let reqs = s1.requests_a - s0.requests_a;
    let (attempted, failed) = match kind {
        Kind::Echo | Kind::Bulk => (
            s1.progress.len() as u64,
            derive::flows_without_progress(&s0.progress, &s1.progress),
        ),
        Kind::Churnstorm => {
            let [opened, completed, live] = s1.churn;
            (opened, derive::churn_failed(opened, completed, live))
        }
    };
    let payload = match kind {
        // Each completed round trip delivered one request to the server
        // and one reply to the client.
        Kind::Echo => (reqs + s1.requests_b - s0.requests_b) * u64::from(MSG_BYTES),
        Kind::Bulk | Kind::Churnstorm => s1.consumed - s0.consumed,
    };
    let cpu_busy = (s1.cpu.app - s0.cpu.app) + (s1.cpu.lib - s0.cpu.lib);
    let latency = client_latency(a);
    // Retransmissions and unknown-flow drops count from cycle 0.
    let (retransmissions, dropped_unknown) = layers::clean_link_counts(&s1.telemetry);
    let mut counts = Layers::new();
    layers::engine_counts(&delta, a.engine.config().num_fpcs, &mut counts);
    for (k, v) in [
        ("host.pcie.h2d_bytes", s1.pcie[0] - s0.pcie[0]),
        ("host.pcie.d2h_bytes", s1.pcie[1] - s0.pcie[1]),
        ("host.pcie.refusals", s1.pcie[2] - s0.pcie[2]),
        ("host.cpu.app", s1.cpu.app - s0.cpu.app),
        ("host.cpu.lib", s1.cpu.lib - s0.cpu.lib),
        ("host.cpu.idle", s1.cpu.idle - s0.cpu.idle),
        ("churn.opened", s1.churn[0] - s0.churn[0]),
        ("churn.completed", s1.churn[1] - s0.churn[1]),
    ] {
        counts.insert(k, v as f64);
    }
    Sim {
        span_cycles: (WARMUP_NS + WINDOW_NS) / CYCLE_NS,
        attempted,
        failed,
        mrps: derive::mrps(reqs, WINDOW_NS),
        goodput_gbps: derive::gbps(payload, WINDOW_NS),
        latency: Latency::of_ns(&latency),
        drain_us: None,
        cpu_cycles_per_req: Some(cpu_busy as f64 / reqs.max(1) as f64),
        retransmissions,
        dropped_unknown,
        counts,
        fingerprint: format!(
            "{}|{}|{}|{:?}|{:?}",
            layers::without_flight(&delta),
            s0.stats,
            s1.stats,
            latency,
            (reqs, payload, &s0.progress, &s1.progress, s1.churn)
        ),
    }
}

/// One timed repetition through `F4tSystem` itself.
pub fn timed(kind: Kind) -> Rep {
    let (mut sys, setup_s) = crate::setup_median(SETUPS, || build(kind, EngineConfig::reference()));
    let t = Instant::now();
    sys.run_ns(WARMUP_NS);
    let mut run = t.elapsed();
    let s0 = snap(&sys.a, &sys.b);
    let t = Instant::now();
    sys.run_ns(WINDOW_NS);
    run += t.elapsed();
    let s1 = snap(&sys.a, &sys.b);
    let sim = outcome(kind, &s0, &s1, &sys.a);
    Rep {
        setup_s,
        run_s: run.as_secs_f64(),
        sim,
        layers: Layers::new(),
    }
}

/// The 4-tuple `F4tSystem` gives its `i`-th connection.
fn tuple(i: u32) -> FourTuple {
    FourTuple::new(
        Ipv4Addr::from(0x0a00_0001 + (i / 60_000) * 256),
        (i % 60_000 + 1_024) as u16,
        Ipv4Addr::new(10, 1, 0, 2),
        80,
    )
}

/// A copy of `F4tSystem`'s private churn manager, built from
/// `Node::churn_live` and `Node::open_active_flow`: tops the client back
/// up to its target of live lifecycles, a bounded number of opens per
/// tick, each on a fresh 4-tuple, cores in rotation.
struct ChurnOpener {
    next_tuple: u32,
    core_rr: usize,
}

impl ChurnOpener {
    fn step(&mut self, a: &mut Node) {
        let live = a.churn_live();
        let mut opens = 0;
        while live + opens < CHURN_LIVE && opens < CHURN_OPENS_PER_TICK {
            let core = self.core_rr % CORES;
            if a.open_active_flow(tuple(self.next_tuple), core).is_none() {
                break;
            }
            self.next_tuple = self.next_tuple.wrapping_add(1);
            self.core_rr += 1;
            opens += 1;
        }
    }
}

/// The two nodes and the link, stepped call by call as `F4tSystem::tick`
/// steps them.
struct Rig {
    a: Node,
    b: Node,
    link: DuplexLink,
    cycle: u64,
    churn: Option<ChurnOpener>,
}

/// Moves TX segments from `src` onto the link while it can serialize them.
fn drain<C: Clock>(c: &mut C, src: &mut Engine, link: &mut DuplexLink, dir: usize, now: u64) {
    loop {
        let m = c.mark();
        let len = src.peek_tx().map(|s| s.wire_len());
        c.leaf(Span::Glue, m);
        let Some(len) = len else { break };
        let m = c.mark();
        let room = link.can_send(dir, len);
        c.leaf(Span::Link, m);
        if !room {
            break;
        }
        let m = c.mark();
        let seg = src.pop_tx();
        c.leaf(Span::Glue, m);
        let Some(seg) = seg else { break };
        let m = c.mark();
        link.send(dir, seg, now);
        c.leaf(Span::Link, m);
    }
}

/// Hands every segment due in `dir` to `dst`.
fn deliver<C: Clock>(c: &mut C, link: &mut DuplexLink, dir: usize, dst: &mut Engine, now: u64) {
    loop {
        let m = c.mark();
        let seg = link.deliver(dir, now);
        c.leaf(Span::Link, m);
        let Some(seg) = seg else { break };
        let m = c.mark();
        dst.push_rx(seg);
        c.leaf(Span::Glue, m);
    }
}

impl Rig {
    fn tick<C: Clock>(&mut self, c: &mut C) {
        let root = c.begin();
        let now = self.cycle * CYCLE_NS;
        let m = c.mark();
        self.link.tick();
        c.leaf(Span::Link, m);
        let m = c.mark();
        self.a.tick(now);
        c.leaf(Span::Node, m);
        let m = c.mark();
        self.b.tick(now);
        c.leaf(Span::Node, m);
        if let Some(opener) = &mut self.churn {
            let m = c.mark();
            opener.step(&mut self.a);
            c.leaf(Span::Glue, m);
        }
        drain(c, &mut self.a.engine, &mut self.link, A_TO_B, now);
        drain(c, &mut self.b.engine, &mut self.link, B_TO_A, now);
        deliver(c, &mut self.link, A_TO_B, &mut self.b.engine, now);
        deliver(c, &mut self.link, B_TO_A, &mut self.a.engine, now);
        self.cycle += 1;
        c.end(Span::SystemTick, root);
    }

    fn run_ns<C: Clock>(&mut self, c: &mut C, ns: u64) {
        for _ in 0..ns / CYCLE_NS {
            self.tick(c);
        }
    }

    fn link_counts(&self) -> [u64; 2] {
        let l = &self.link;
        [
            l.segments(A_TO_B) + l.segments(B_TO_A),
            l.bytes(A_TO_B) + l.bytes(B_TO_A),
        ]
    }
}

/// One traced repetition: the same workload through [`Rig`] with spans
/// and FtFlight (default 1-in-64 flow sampling) attached.
pub fn traced(kind: Kind) -> Rep {
    let cfg = EngineConfig {
        flight: true,
        ..EngineConfig::reference()
    };
    let t = Instant::now();
    let sys = build(kind, cfg);
    let setup_s = t.elapsed().as_secs_f64();
    let mut rig = Rig {
        a: sys.a,
        b: sys.b,
        link: DuplexLink::hundred_gig(),
        cycle: 0,
        churn: (kind == Kind::Churnstorm).then_some(ChurnOpener {
            next_tuple: 0,
            core_rr: 0,
        }),
    };
    let mut tracer = Tracer::calibrated();
    let t = Instant::now();
    rig.run_ns(&mut tracer, WARMUP_NS);
    let mut run = t.elapsed();
    let s0 = snap(&rig.a, &rig.b);
    let link0 = rig.link_counts();
    let t = Instant::now();
    rig.run_ns(&mut tracer, WINDOW_NS);
    run += t.elapsed();
    let s1 = snap(&rig.a, &rig.b);
    let link1 = rig.link_counts();
    let sim = outcome(kind, &s0, &s1, &rig.a);

    let cycles = rig.cycle as f64;
    let tick = tracer.stat(Span::SystemTick);
    let mut l = Layers::new();
    l.insert("system.tick.ns_p50", tick.hist.percentile(50.0) as f64);
    l.insert("system.tick.ns_p99", tick.hist.percentile(99.0) as f64);
    l.insert("system.node.self_ns", tracer.self_ns(Span::Node) / cycles);
    l.insert("system.link.self_ns", tracer.self_ns(Span::Link) / cycles);
    l.insert("system.glue.self_ns", tracer.self_ns(Span::Glue) / cycles);
    let link_bytes = link1[1] - link0[1];
    l.insert("link.segments", (link1[0] - link0[0]) as f64);
    l.insert("link.bytes", link_bytes as f64);
    l.insert(
        "link.utilization",
        link_bytes as f64 * 8.0 / (LINK_BITS_PER_NS * WINDOW_NS as f64),
    );
    let stages: Vec<Histogram> = FlightStage::ALL
        .iter()
        .map(|&st| {
            let mut h = Histogram::new();
            for e in [&rig.a.engine, &rig.b.engine] {
                if let Some(f) = e.flight() {
                    h.merge(f.stage_histogram(st));
                }
            }
            h
        })
        .collect();
    layers::flight_p99(&stages, &mut l);
    layers::clock_cost(&tracer, &mut l);
    crate::write_spans(&tracer);
    Rep {
        setup_s,
        run_s: run.as_secs_f64(),
        sim,
        layers: l,
    }
}
