//! The scheduler: event routing, coalescing and TCB-migration control.
//!
//! The scheduler (Fig. 5) "orchestrates all flows": it tracks every TCB's
//! location in the location LUT, routes events to the owning FPC or to
//! DRAM, parks events whose flow is mid-migration in the pending queue
//! (retrying after 12 cycles — all migrations complete within that bound,
//! §4.3.2), coalesces events of the same flow in four 16-entry FIFOs
//! (§4.4.1), allocates new flows to the least-loaded FPC and migrates
//! flows away from congested FPCs (§4.4.2).

use crate::event::FlowEvent;
use crate::fpc::Fpc;
use crate::fpu::EventView;
use crate::memory_manager::MemoryManager;
use f4t_mem::{Location, LocationLut};
use f4t_sim::check::{InvariantChecker, ViolationKind};
use f4t_sim::{
    Fifo, FlightStage, FlowSlab, Journal, JournalKind, JournalModule, Probes, SlabQueue,
};
use f4t_tcp::{FlowId, Tcb};

/// Whether a location-LUT state transition is part of the migration
/// protocol (Fig. 6): every move between SRAM and DRAM passes through
/// `Moving`, and any state may release to `Unallocated` on close. A
/// direct `Fpc→Dram`, `Dram→Fpc` or `Fpc(i)→Fpc(j)` edge means the
/// protocol was bypassed — exactly the race class §4.3.2 rules out.
fn lut_transition_legal(from: Location, to: Location) -> bool {
    use Location::*;
    matches!(
        (from, to),
        (Unallocated, Moving)
            | (Moving, Fpc(_))
            | (Moving, Dram)
            | (Fpc(_), Moving)
            | (Dram, Moving)
            | (_, Unallocated)
    )
}

/// Where an in-flight migration is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MigrationDest {
    /// Swap out to DRAM.
    Dram,
    /// Direct FPC-to-FPC move (load balancing).
    Fpc(u8),
}

/// Running totals the harnesses report.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerStats {
    /// Events accepted from the host interface / RX parser / timers.
    pub events_in: u64,
    /// Events merged away in the coalesce FIFOs.
    pub coalesced: u64,
    /// Events routed to FPCs.
    pub routed_fpc: u64,
    /// Events routed to the memory manager.
    pub routed_dram: u64,
    /// Events parked in the pending queue.
    pub parked: u64,
    /// Migrations initiated (either direction).
    pub migrations: u64,
    /// Events dropped for unallocated flows.
    pub dropped: u64,
}

/// The scheduler.
#[derive(Debug)]
pub struct Scheduler {
    input: Fifo<FlowEvent>,
    /// FtFlight stamp mirror of `input`: the engine cycle each event was
    /// offered (`None` until [`enable_flight`](Self::enable_flight)).
    input_stamps: Option<Fifo<u64>>,
    coalesce: Vec<Fifo<FlowEvent>>,
    /// FtFlight stamp mirrors of the coalesce FIFOs. Each entry carries
    /// the event's ORIGINAL intake stamp (transferred from
    /// `input_stamps`), so the `coalesce_fifo` span covers intake plus
    /// coalesce residency. On a merge the incoming event's stamp is
    /// dropped with it — the merged entry keeps the earliest stamp.
    coalesce_stamps: Option<Vec<Fifo<u64>>>,
    coalescing: bool,
    /// Whether FtFlight stamping is on (gates the migration stamp map).
    flight_enabled: bool,
    lut: LocationLut,
    /// Pending retry queue for events whose flow is mid-migration;
    /// bounded by intake backpressure (events only enter via the bounded
    /// input/coalesce FIFOs). Tuple: (event, retry cycle, cycle first
    /// parked — the FtFlight `pending_wait` span start, kept across
    /// re-parks).
    pending: SlabQueue<(FlowEvent, u64, u64)>,
    /// Reused per-tick batch buffer for the pending drain (hot path;
    /// avoids reallocating).
    pending_scratch: Vec<(FlowEvent, u64, u64)>,
    pending_high: usize,
    /// In-flight migrations, keyed by flow id on a dense FtTurbo slab
    /// (no hashing on the routing path; ascending-id iteration).
    migrations: FlowSlab<MigrationDest>,
    /// FtFlight: cycle each in-flight migration / swap-in began, recorded
    /// as `tcb_fetch_dram` when the flow lands in an FPC. Only populated
    /// while flight is enabled; entries leave with `migrations`.
    migration_started: FlowSlab<u64>,
    /// At most one entry per DRAM-resident flow (the memory manager
    /// deduplicates swap-in requests).
    swap_in_queue: SlabQueue<FlowId>,
    stats: SchedulerStats,
}

/// The paper's coalesce-FIFO geometry: four FIFOs of 16 entries.
const COALESCE_FIFOS: usize = 4;
const COALESCE_DEPTH: usize = 16;
/// Pending-queue retry delay: "the scheduler retries the routing after 12
/// cycles, and it always succeeds because all migration completes within
/// 12 cycles" (§4.3.2).
pub const PENDING_RETRY_CYCLES: u64 = 12;
/// Intake bandwidth from the host/RX/timer interfaces, events per cycle.
const INTAKE_PER_CYCLE: usize = 4;

impl Scheduler {
    /// Depth of the intake FIFO shared by host, RX parser and timers.
    pub const INPUT_FIFO_DEPTH: usize = 512;

    /// Swap-in control actions per cycle (the migration machinery runs
    /// well ahead of the 12-cycle per-migration bound).
    pub const SWAP_ACTIONS_PER_CYCLE: usize = 8;

    /// Creates a scheduler for `max_flows` flows routed across
    /// `lut_groups` LUT partitions, with event coalescing on or off.
    pub fn new(max_flows: usize, lut_groups: usize, coalescing: bool) -> Scheduler {
        Scheduler {
            input: Fifo::new(Self::INPUT_FIFO_DEPTH),
            input_stamps: None,
            coalesce: (0..COALESCE_FIFOS).map(|_| Fifo::new(COALESCE_DEPTH)).collect(),
            coalesce_stamps: None,
            coalescing,
            flight_enabled: false,
            lut: LocationLut::new(max_flows, lut_groups),
            pending: SlabQueue::with_capacity(16),
            pending_scratch: Vec::new(),
            pending_high: 0,
            migrations: FlowSlab::with_capacity(0),
            migration_started: FlowSlab::with_capacity(0),
            swap_in_queue: SlabQueue::with_capacity(16),
            stats: SchedulerStats::default(),
        }
    }

    /// Turns on FtFlight span stamping. Call before the first event;
    /// stamps then mirror the intake and coalesce FIFOs 1:1.
    pub fn enable_flight(&mut self) {
        debug_assert!(self.backlog() == 0, "enable_flight on a non-empty scheduler");
        self.input_stamps = Some(Fifo::new(Self::INPUT_FIFO_DEPTH));
        self.coalesce_stamps =
            Some((0..COALESCE_FIFOS).map(|_| Fifo::new(COALESCE_DEPTH)).collect());
        self.flight_enabled = true;
    }

    /// Offers an event at the intake; `false` under backpressure (the
    /// host's doorbell stalls).
    pub fn push_event(&mut self, ev: FlowEvent) -> bool {
        self.push_event_at(ev, 0)
    }

    /// [`push_event`](Self::push_event) carrying the engine cycle of
    /// arrival, recorded as the FtFlight `coalesce_fifo` span start.
    pub fn push_event_at(&mut self, ev: FlowEvent, cycle: u64) -> bool {
        if self.input.push(ev).is_ok() {
            if let Some(stamps) = &mut self.input_stamps {
                let ok = stamps.push(cycle).is_ok();
                debug_assert!(ok, "flight stamp FIFO out of sync with scheduler intake");
            }
            self.stats.events_in += 1;
            true
        } else {
            false
        }
    }

    /// Whether the intake FIFO has room.
    pub fn can_accept(&self) -> bool {
        !self.input.is_full()
    }

    /// Free intake slots this cycle.
    pub fn intake_free(&self) -> usize {
        self.input.free()
    }

    /// Intake backlog (diagnostics).
    pub fn backlog(&self) -> usize {
        self.input.len()
            + self.coalesce.iter().map(Fifo::len).sum::<usize>()
            + self.pending.len()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// LUT-partition stalls (diagnostics).
    pub fn lut_stalls(&self) -> u64 {
        self.lut.stalls()
    }

    /// LUT occupancy census: `(in_fpc, in_dram, moving)` flow counts.
    /// All three are zero exactly when no flow holds a LUT entry — the
    /// structural leak check churn tests assert after full teardown.
    pub fn lut_census(&self) -> (usize, usize, usize) {
        self.lut.census()
    }

    /// Queues a check-logic swap-in request from the memory manager.
    pub fn request_swap_in(&mut self, flow: FlowId) {
        self.request_swap_in_at(flow, 0);
    }

    /// [`request_swap_in`](Self::request_swap_in) carrying the engine
    /// cycle, recorded as the FtFlight `tcb_fetch_dram` span start (the
    /// DRAM→FPC migration wait measured to the swap-in install).
    pub fn request_swap_in_at(&mut self, flow: FlowId, cycle: u64) {
        if self.flight_enabled && !self.migration_started.contains(flow.0) {
            self.migration_started.insert(flow.0, cycle);
        }
        self.swap_in_queue.push_back(flow);
    }

    /// Pending swap-in requests (diagnostics).
    pub fn swap_in_backlog(&self) -> usize {
        self.swap_in_queue.len()
    }

    /// Migrations currently in flight (diagnostics).
    pub fn migrations_in_flight(&self) -> usize {
        self.migrations.len()
    }

    /// Activity horizon: the earliest cycle at which ticking the
    /// scheduler can change observable state. Queued intake, coalesce or
    /// swap-in work is immediate; a non-empty pending queue wakes at the
    /// head's retry cycle (the head is the minimum — parks append
    /// monotonically increasing `cycle + 12` retries and the only
    /// `push_front` re-parks the entry just popped at `cycle + 1`);
    /// `None` means nothing will happen until new input arrives. The
    /// per-cycle `lut.begin_cycle()` port-budget reset is not activity:
    /// with no lookups there is nothing to budget.
    pub fn next_activity(&self, cycle: u64) -> Option<u64> {
        if !self.input.is_empty()
            || self.coalesce.iter().any(|q| !q.is_empty())
            || !self.swap_in_queue.is_empty()
        {
            return Some(cycle);
        }
        self.pending.front().map(|&(_, retry, _)| retry.max(cycle))
    }

    /// Sets `flow`'s LUT entry, validating the migration-protocol edge
    /// when an FtVerify checker is attached. All protocol-path writes go
    /// through here; only the documented fault-injection hook bypasses it.
    fn set_location(&mut self, flow: FlowId, to: Location, cycle: u64, probes: &mut Probes) {
        if let Some(chk) = probes.checker() {
            let from = self.lut.peek(flow);
            if !lut_transition_legal(from, to) {
                chk.report(
                    cycle,
                    ViolationKind::MigrationRace,
                    "scheduler.lut",
                    format!("illegal LUT transition {from:?} → {to:?} for flow {flow}"),
                );
            }
        }
        self.lut.set(flow, to);
    }

    /// FtVerify fault injection: corrupts `flow`'s LUT entry without the
    /// Moving protocol, bypassing transition validation. Exists so the
    /// negative tests can seed a migration race the audit must detect;
    /// never called from the protocol paths.
    pub fn fault_set_location(&mut self, flow: FlowId, loc: Location) {
        self.lut.set(flow, loc);
    }

    /// Places a brand-new flow: least-loaded FPC with room, else DRAM.
    /// Sets the location LUT through the proper Moving transition.
    pub fn place_new_flow(
        &mut self,
        tcb: Tcb,
        fpcs: &mut [Fpc],
        mm: &mut MemoryManager,
        cycle: u64,
        probes: &mut Probes,
    ) -> Location {
        let flow = tcb.flow;
        let target = fpcs
            .iter()
            .enumerate()
            .filter(|(_, f)| f.can_accept_tcb())
            .min_by_key(|(_, f)| f.flow_count())
            .map(|(i, _)| i);
        match target {
            Some(i) => {
                let accepted = fpcs[i].push_tcb(tcb, EventView::default());
                debug_assert!(accepted, "can_accept_tcb lied");
                self.set_location(flow, Location::Moving, cycle, probes);
                Location::Fpc(i as u8)
            }
            None => {
                mm.insert_new(tcb);
                self.set_location(flow, Location::Moving, cycle, probes);
                Location::Dram
            }
        }
    }

    /// Location of a flow (diagnostics; control-path read).
    pub fn location(&self, flow: FlowId) -> Location {
        self.lut.peek(flow)
    }

    /// Engine callback: an FPC's swap-in port installed `flow`. Closes
    /// the FtFlight `tcb_fetch_dram` span opened when the migration /
    /// swap-in began.
    pub fn on_installed(&mut self, flow: FlowId, fpc: u8, cycle: u64, probes: &mut Probes) {
        self.set_location(flow, Location::Fpc(fpc), cycle, probes);
        self.migrations.remove(flow.0);
        if let Some(start) = self.migration_started.remove(flow.0) {
            probes.span(FlightStage::TcbFetchDram, flow.0, cycle.saturating_sub(start));
        }
    }

    /// Engine callback: the memory manager finished writing `flow` to
    /// DRAM (Fig. 6's evict-complete signal).
    pub fn on_evict_done(&mut self, flow: FlowId, cycle: u64, probes: &mut Probes) {
        self.set_location(flow, Location::Dram, cycle, probes);
        self.migrations.remove(flow.0);
        self.migration_started.remove(flow.0);
    }

    /// Engine callback: the connection fully closed; release routing
    /// state so the flow id slot can be reused by new connections.
    pub fn on_flow_closed(&mut self, flow: FlowId, cycle: u64, probes: &mut Probes) {
        self.set_location(flow, Location::Unallocated, cycle, probes);
        self.migrations.remove(flow.0);
        self.migration_started.remove(flow.0);
    }

    /// Engine callback: an evict checker diverted `tcb` out of an FPC.
    /// Forwards it to its migration destination.
    pub fn on_evicted(&mut self, tcb: Tcb, fpcs: &mut [Fpc], mm: &mut MemoryManager) {
        let flow = tcb.flow;
        match self.migrations.get(flow.0).copied() {
            Some(MigrationDest::Fpc(j)) => {
                if !fpcs[j as usize].push_tcb(tcb, EventView::default()) {
                    // Target filled up meanwhile: fall back to DRAM.
                    self.migrations.insert(flow.0, MigrationDest::Dram);
                    mm.accept_eviction(tcb);
                }
            }
            Some(MigrationDest::Dram) | None => {
                self.migrations.insert(flow.0, MigrationDest::Dram);
                mm.accept_eviction(tcb);
            }
        }
    }

    /// Begins evicting `flow` from `from_fpc` toward `dest`.
    fn start_migration(
        &mut self,
        flow: FlowId,
        from_fpc: usize,
        dest: MigrationDest,
        fpcs: &mut [Fpc],
        cycle: u64,
        probes: &mut Probes,
    ) -> bool {
        if self.migrations.contains(flow.0) {
            return false;
        }
        if !fpcs[from_fpc].request_evict(flow) {
            return false;
        }
        self.set_location(flow, Location::Moving, cycle, probes);
        self.migrations.insert(flow.0, dest);
        if self.flight_enabled && !self.migration_started.contains(flow.0) {
            self.migration_started.insert(flow.0, cycle);
        }
        let to = match dest {
            MigrationDest::Dram => Journal::DRAM_SLOT,
            MigrationDest::Fpc(j) => u64::from(j),
        };
        let kind = JournalKind::TcbMigrateStart;
        probes.log(cycle, JournalModule::Scheduler, kind, flow.0, from_fpc as u64, to);
        self.stats.migrations += 1;
        true
    }

    /// Parks `ev` in the pending queue for a retry after
    /// [`PENDING_RETRY_CYCLES`], keeping the cycle it was first parked.
    fn park(&mut self, ev: FlowEvent, cycle: u64, parked_at: Option<u64>) {
        self.pending.push_back((ev, cycle + PENDING_RETRY_CYCLES, parked_at.unwrap_or(cycle)));
        self.stats.parked += 1;
    }

    /// Routes one event; returns `true` when consumed (delivered or
    /// parked), `false` to retry next cycle. `parked_at` is the cycle the
    /// event first entered the pending queue (`None` when routing straight
    /// out of a coalesce FIFO); a successful delivery closes that FtFlight
    /// `pending_wait` span.
    fn route(
        &mut self,
        ev: FlowEvent,
        cycle: u64,
        parked_at: Option<u64>,
        fpcs: &mut [Fpc],
        mm: &mut MemoryManager,
        probes: &mut Probes,
    ) -> bool {
        let Some(loc) = self.lut.lookup(ev.flow) else {
            return false; // LUT partition budget exhausted this cycle
        };
        let flow = ev.flow.0;
        // Journals the routing decision; a delivery also closes the
        // pending-wait span of a retried event.
        let routed = |probes: &mut Probes, delivered: bool, a: u64, b: u64| {
            if let (true, Some(parked)) = (delivered, parked_at) {
                probes.span(FlightStage::PendingWait, flow, cycle - parked);
            }
            probes.log(cycle, JournalModule::Scheduler, JournalKind::EventRouted, flow, a, b);
        };
        match loc {
            Location::Unallocated => {
                self.stats.dropped += 1;
                probes.log(cycle, JournalModule::Scheduler, JournalKind::EventDropped, flow, 0, 0);
            }
            Location::Moving => {
                self.park(ev, cycle, parked_at);
                routed(probes, false, Journal::ROUTE_PARKED, 0);
            }
            Location::Dram => {
                if mm.push_event_at(ev, cycle) {
                    self.stats.routed_dram += 1;
                    routed(probes, true, Journal::ROUTE_DRAM, 0);
                } else {
                    // Memory-manager backpressure (DRAM bandwidth): park
                    // the event instead of blocking the coalesce FIFO —
                    // otherwise one slow DRAM flow head-of-line blocks
                    // SRAM-resident flows hashed to the same FIFO.
                    self.park(ev, cycle, parked_at);
                    routed(probes, false, Journal::ROUTE_PARKED, 1);
                }
            }
            Location::Fpc(i) => {
                let i = i as usize;
                if fpcs[i].push_event_at(ev, cycle) {
                    self.stats.routed_fpc += 1;
                    routed(probes, true, Journal::ROUTE_FPC, i as u64);
                    return true;
                }
                // Backpressure: migrate the congested flow to the idlest
                // FPC (§4.4.2), park the event meanwhile.
                let idlest = fpcs
                    .iter()
                    .enumerate()
                    .filter(|&(j, f)| j != i && f.can_accept_tcb())
                    .min_by_key(|(_, f)| f.input_backlog() * 1024 + f.flow_count())
                    .map(|(j, _)| j);
                let Some(j) = idlest else { return false };
                let dest = MigrationDest::Fpc(j as u8);
                if !self.start_migration(ev.flow, i, dest, fpcs, cycle, probes) {
                    return false;
                }
                self.park(ev, cycle, parked_at);
                routed(probes, false, Journal::ROUTE_PARKED, 2);
            }
        }
        true
    }

    /// Swap-in progress, up to [`Self::SWAP_ACTIONS_PER_CYCLE`] actions
    /// per cycle: satisfy the head of the swap-in queue, evicting cold
    /// flows when every FPC is full. The hardware completes any migration
    /// within 12 cycles (§4.3.2), so the control machinery must sustain
    /// several concurrent migrations — it is never itself the bottleneck
    /// (DRAM bandwidth is, which is the point of Fig. 13).
    fn progress_swap_in(
        &mut self,
        fpcs: &mut [Fpc],
        mm: &mut MemoryManager,
        cycle: u64,
        probes: &mut Probes,
    ) {
        for _ in 0..Self::SWAP_ACTIONS_PER_CYCLE {
            let Some(&flow) = self.swap_in_queue.front() else { return };
            if self.migrations.contains(flow.0) {
                // Mid-migration: rotate so one moving flow does not block
                // the queue.
                if let Some(f) = self.swap_in_queue.pop_front() {
                    self.swap_in_queue.push_back(f);
                }
                continue;
            }
            if mm.peek_tcb(flow).is_none() {
                // Flow left DRAM by other means (already swapped in).
                self.swap_in_queue.pop_front();
                continue;
            }
            let target = fpcs
                .iter()
                .enumerate()
                .filter(|(_, f)| f.can_accept_tcb())
                .min_by_key(|(_, f)| f.flow_count())
                .map(|(i, _)| i);
            match target {
                Some(i) => {
                    let Some((tcb, ev)) = mm.take_for_swap_in(flow) else {
                        // DRAM bandwidth exhausted: retry next cycle.
                        return;
                    };
                    self.set_location(flow, Location::Moving, cycle, probes);
                    let accepted = fpcs[i].push_tcb(tcb, ev);
                    debug_assert!(accepted, "can_accept_tcb lied on swap-in");
                    self.stats.migrations += 1;
                    probes.log(
                        cycle,
                        JournalModule::Scheduler,
                        JournalKind::TcbMigrateStart,
                        flow.0,
                        Journal::DRAM_SLOT,
                        i as u64,
                    );
                    self.swap_in_queue.pop_front();
                }
                None => {
                    // Every FPC is full: evict cold flows to make room
                    // (Fig. 6), concurrency bounded by demand.
                    let dram_bound = self
                        .migrations
                        .iter_dense()
                        .filter(|d| **d == MigrationDest::Dram)
                        .count();
                    if dram_bound >= self.swap_in_queue.len().min(256) {
                        return;
                    }
                    let t = fpcs
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, f)| f.input_backlog())
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    let Some(cold) = fpcs[t].coldest_flow() else { return };
                    self.start_migration(cold, t, MigrationDest::Dram, fpcs, cycle, probes);
                }
            }
        }
    }

    /// Advances one engine cycle. `probes` carries the engine's checker
    /// (every location-LUT transition is validated against the migration
    /// protocol), FtFlight recorder (coalesce-FIFO residency and
    /// pending-queue wait per flow) and journal (enqueue / merge / route /
    /// migrate events).
    pub fn tick(
        &mut self,
        cycle: u64,
        fpcs: &mut [Fpc],
        mm: &mut MemoryManager,
        probes: &mut Probes,
    ) {
        self.lut.begin_cycle();

        // 1. Intake into the coalesce FIFOs.
        for _ in 0..INTAKE_PER_CYCLE {
            let Some(&ev) = self.input.front() else { break };
            let q = ev.flow.0 as usize % self.coalesce.len();
            if self.coalescing {
                let mut merged = false;
                for queued in self.coalesce[q].iter_mut() {
                    if queued.flow == ev.flow && queued.try_merge(&ev) {
                        merged = true;
                        break;
                    }
                }
                if merged {
                    self.input.pop();
                    // The merged event's span folds into the queued event it
                    // coalesced with; its own intake stamp is dropped.
                    if let Some(stamps) = &mut self.input_stamps {
                        stamps.pop();
                    }
                    self.stats.coalesced += 1;
                    let kind = JournalKind::EventMerged;
                    probes.log(cycle, JournalModule::Scheduler, kind, ev.flow.0, q as u64, 0);
                    continue;
                }
            }
            if self.coalesce[q].is_full() {
                break; // backpressure to the intake
            }
            if let Some(ev) = self.input.pop() {
                let accepted = self.coalesce[q].push(ev).is_ok();
                debug_assert!(accepted, "coalesce FIFO checked not full above");
                if let (Some(stamps), Some(cq)) =
                    (&mut self.input_stamps, self.coalesce_stamps.as_mut())
                {
                    if let Some(stamp) = stamps.pop() {
                        let ok = cq[q].push(stamp).is_ok();
                        debug_assert!(ok, "coalesce stamp FIFO out of sync");
                    }
                }
                let kind = JournalKind::EventEnqueued;
                probes.log(cycle, JournalModule::Scheduler, kind, ev.flow.0, q as u64, 0);
            }
        }

        // 2. Retry pending events whose timer elapsed (ahead of new
        //    routing so ordering per flow is preserved). The due prefix is
        //    drained from the ring in one batch per tick instead of one
        //    pop per entry; anything routing re-parks (and anything route
        //    itself parks) carries a retry past `cycle`, so the upfront
        //    prefix equals what an incremental pop loop would take.
        let due = self
            .pending
            .iter()
            .take(4)
            .take_while(|&&(_, retry, _)| retry <= cycle)
            .count();
        if due > 0 {
            let mut batch = std::mem::take(&mut self.pending_scratch);
            batch.clear();
            batch.extend(self.pending.drain_front(due));
            let failed_at = batch.iter().position(|&(ev, _, parked_at)| {
                !self.route(ev, cycle, Some(parked_at), fpcs, mm, probes)
            });
            if let Some(i) = failed_at {
                // Re-park the unrouted tail at the front in order, then
                // the failed entry ahead of it with a next-cycle retry —
                // the exact state the per-entry loop left behind.
                for &entry in batch[i + 1..].iter().rev() {
                    self.pending.push_front(entry);
                }
                let (ev, _, parked_at) = batch[i];
                self.pending.push_front((ev, cycle + 1, parked_at));
            }
            self.pending_scratch = batch;
        }

        // 3. Route one event per coalesce FIFO (up to 4/cycle with 4 LUT
        //    partitions, §4.4.2).
        for q in 0..self.coalesce.len() {
            let Some(&ev) = self.coalesce[q].front() else { continue };
            if self.route(ev, cycle, None, fpcs, mm, probes) {
                self.coalesce[q].pop();
                if let Some(stamp) = self.coalesce_stamps.as_mut().and_then(|cq| cq[q].pop()) {
                    probes.span(FlightStage::CoalesceFifo, ev.flow.0, cycle.saturating_sub(stamp));
                }
            }
        }

        // 4. Swap-in progress.
        self.progress_swap_in(fpcs, mm, cycle, probes);

        self.pending_high = self.pending_high.max(self.pending.len());
    }

    /// FtVerify periodic audit: conservation on the intake and coalesce
    /// FIFOs. LUT-residency cross-checks live in the engine, which can see
    /// the FPCs and the DRAM store at once.
    pub fn audit(&self, cycle: u64, chk: &mut InvariantChecker) {
        chk.check_fifo(cycle, "scheduler.input_fifo", &self.input);
        for (i, q) in self.coalesce.iter().enumerate() {
            chk.check_fifo(cycle, &format!("scheduler.coalesce_fifo{i}"), q);
        }
    }

    /// Reports scheduler telemetry into `reg` under `prefix`: routing
    /// counters, pending-queue depth/high-watermark, location-LUT stalls
    /// and census, and per-FIFO occupancy.
    pub fn collect(&self, prefix: &str, reg: &mut f4t_sim::telemetry::MetricsRegistry) {
        let s = &self.stats;
        reg.counter(&format!("{prefix}.events_in"), s.events_in);
        reg.counter(&format!("{prefix}.coalesced"), s.coalesced);
        reg.counter(&format!("{prefix}.routed_fpc"), s.routed_fpc);
        reg.counter(&format!("{prefix}.routed_dram"), s.routed_dram);
        reg.counter(&format!("{prefix}.parked"), s.parked);
        reg.counter(&format!("{prefix}.migrations"), s.migrations);
        reg.counter(&format!("{prefix}.dropped"), s.dropped);
        reg.counter(&format!("{prefix}.lut.stalls"), self.lut.stalls());
        let (fpc, dram, moving) = self.lut.census();
        reg.gauge(&format!("{prefix}.lut.flows_fpc"), fpc as f64);
        reg.gauge(&format!("{prefix}.lut.flows_dram"), dram as f64);
        reg.gauge(&format!("{prefix}.lut.flows_moving"), moving as f64);
        reg.gauge(&format!("{prefix}.pending.depth"), self.pending.len() as f64);
        reg.gauge(&format!("{prefix}.pending.high_watermark"), self.pending_high as f64);
        reg.gauge(&format!("{prefix}.swap_in_queue.depth"), self.swap_in_queue.len() as f64);
        reg.gauge(&format!("{prefix}.migrations_in_flight"), self.migrations.len() as f64);
        self.input.collect(&format!("{prefix}.input_fifo"), reg);
        for (i, q) in self.coalesce.iter().enumerate() {
            q.collect(&format!("{prefix}.coalesce_fifo{i}"), reg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::fpc::{FpcOutput, ScanPolicy};
    use f4t_mem::DramKind;
    use f4t_tcp::{CcAlgorithm, FourTuple, NewReno, SeqNum, MSS};
    use std::sync::Arc;

    fn make_fpcs(n: usize, slots: usize) -> Vec<Fpc> {
        (0..n)
            .map(|i| {
                Fpc::new(i as u8, slots, Arc::new(NewReno), Some(4), MSS, ScanPolicy::SkipIdle)
            })
            .collect()
    }

    fn established(id: u32) -> Tcb {
        let mut t = Tcb::established(FlowId(id), FourTuple::default(), SeqNum(1000));
        CcAlgorithm::NewReno.instance().init(&mut t);
        t
    }

    fn send_event(id: u32, upto: u32) -> FlowEvent {
        FlowEvent::new(FlowId(id), EventKind::SendReq { req: SeqNum(1000).add(upto) }, 0)
    }

    /// Drives scheduler + FPCs + MM together like the engine does.
    fn run(
        sched: &mut Scheduler,
        fpcs: &mut [Fpc],
        mm: &mut MemoryManager,
        from: u64,
        cycles: u64,
    ) -> (Vec<crate::event::TxRequest>, u64) {
        let mut tx = Vec::new();
        let mut handled = 0;
        let probes = &mut Probes::default();
        for c in from..from + cycles {
            sched.tick(c, fpcs, mm, probes);
            let mut evicted = Vec::new();
            let mut installed = Vec::new();
            for f in fpcs.iter_mut() {
                let mut out = FpcOutput::default();
                f.tick(c, c * 4, true, &mut out, probes);
                tx.extend(out.tx);
                evicted.extend(out.evicted);
                for flow in out.installed {
                    installed.push((flow, f.id()));
                }
                handled += out.outcomes.len() as u64;
            }
            for t in evicted {
                sched.on_evicted(t, fpcs, mm);
            }
            for (flow, id) in installed {
                sched.on_installed(flow, id, c, probes);
            }
            let mut mo = crate::memory_manager::MmOutput::default();
            mm.tick(&mut mo, c, probes);
            for flow in mo.swap_in_requests {
                sched.request_swap_in(flow);
            }
            for flow in mo.evict_done {
                sched.on_evict_done(flow, c, probes);
            }
        }
        (tx, handled)
    }

    #[test]
    fn new_flow_placed_in_least_loaded_fpc() {
        let mut sched = Scheduler::new(1024, 4, true);
        let mut fpcs = make_fpcs(2, 8);
        let mut mm = MemoryManager::new(DramKind::Hbm, 16);
        for id in 0..4 {
            sched.place_new_flow(established(id), &mut fpcs, &mut mm, 0, &mut Probes::default());
            run(&mut sched, &mut fpcs, &mut mm, id as u64 * 10, 10);
        }
        assert_eq!(fpcs[0].flow_count(), 2);
        assert_eq!(fpcs[1].flow_count(), 2, "round-robins via least-loaded");
        assert_eq!(sched.location(FlowId(0)), Location::Fpc(0));
    }

    #[test]
    fn overflow_flows_placed_in_dram() {
        let mut sched = Scheduler::new(1024, 4, true);
        let mut fpcs = make_fpcs(1, 2);
        let mut mm = MemoryManager::new(DramKind::Hbm, 16);
        for id in 0..5 {
            sched.place_new_flow(established(id), &mut fpcs, &mut mm, 0, &mut Probes::default());
            run(&mut sched, &mut fpcs, &mut mm, id as u64 * 10, 10);
        }
        assert_eq!(fpcs[0].flow_count(), 2);
        assert_eq!(mm.flow_count(), 3, "excess flows live in DRAM");
        assert_eq!(sched.location(FlowId(4)), Location::Dram);
    }

    #[test]
    fn events_route_to_owning_fpc_and_produce_tx() {
        let mut sched = Scheduler::new(1024, 4, true);
        let mut fpcs = make_fpcs(2, 8);
        let mut mm = MemoryManager::new(DramKind::Hbm, 16);
        sched.place_new_flow(established(1), &mut fpcs, &mut mm, 0, &mut Probes::default());
        run(&mut sched, &mut fpcs, &mut mm, 0, 10);
        assert!(sched.push_event(send_event(1, 700)));
        let (tx, _) = run(&mut sched, &mut fpcs, &mut mm, 10, 60);
        assert_eq!(tx.iter().map(|t| t.len).sum::<u32>(), 700);
        assert_eq!(sched.stats().routed_fpc, 1);
    }

    #[test]
    fn coalescing_merges_same_flow_events() {
        let mut sched = Scheduler::new(1024, 4, true);
        let mut fpcs = make_fpcs(1, 8);
        let mut mm = MemoryManager::new(DramKind::Hbm, 16);
        sched.place_new_flow(established(1), &mut fpcs, &mut mm, 0, &mut Probes::default());
        // Fill intake BEFORE ticking so events pile into the FIFO.
        for i in 1..=8u32 {
            assert!(sched.push_event(send_event(1, i * 100)));
        }
        let (tx, _) = run(&mut sched, &mut fpcs, &mut mm, 0, 80);
        assert!(sched.stats().coalesced >= 5, "coalesced {}", sched.stats().coalesced);
        assert_eq!(tx.iter().map(|t| t.len).sum::<u32>(), 800, "no data lost");
    }

    #[test]
    fn coalescing_disabled_routes_each_event() {
        let mut sched = Scheduler::new(1024, 4, false);
        let mut fpcs = make_fpcs(1, 8);
        let mut mm = MemoryManager::new(DramKind::Hbm, 16);
        sched.place_new_flow(established(1), &mut fpcs, &mut mm, 0, &mut Probes::default());
        run(&mut sched, &mut fpcs, &mut mm, 0, 10);
        for i in 1..=8u32 {
            sched.push_event(send_event(1, i * 100));
        }
        run(&mut sched, &mut fpcs, &mut mm, 10, 100);
        assert_eq!(sched.stats().coalesced, 0);
        assert_eq!(sched.stats().routed_fpc, 8);
    }

    #[test]
    fn dram_events_reach_memory_manager_and_swap_in() {
        let mut sched = Scheduler::new(1024, 4, true);
        let mut fpcs = make_fpcs(1, 2);
        let mut mm = MemoryManager::new(DramKind::Hbm, 16);
        // Fill the FPC, push one flow to DRAM.
        for id in 0..3 {
            sched.place_new_flow(established(id), &mut fpcs, &mut mm, 0, &mut Probes::default());
            run(&mut sched, &mut fpcs, &mut mm, id as u64 * 10, 10);
        }
        assert_eq!(sched.location(FlowId(2)), Location::Dram);
        // An event for the DRAM flow: handled there, check logic fires,
        // scheduler swaps it in (evicting a cold flow), data goes out.
        sched.push_event(send_event(2, 500));
        let (tx, _) = run(&mut sched, &mut fpcs, &mut mm, 100, 400);
        assert!(sched.stats().routed_dram >= 1);
        assert_eq!(tx.iter().map(|t| t.len).sum::<u32>(), 500, "swapped-in flow sent its data");
        assert!(matches!(sched.location(FlowId(2)), Location::Fpc(_)), "now SRAM-resident");
        assert_eq!(mm.flow_count(), 1, "a cold flow was evicted to make room");
    }

    #[test]
    fn moving_flows_park_events_and_never_lose_them() {
        let mut sched = Scheduler::new(1024, 4, true);
        let mut fpcs = make_fpcs(1, 4);
        let mut mm = MemoryManager::new(DramKind::Hbm, 16);
        sched.place_new_flow(established(1), &mut fpcs, &mut mm, 0, &mut Probes::default());
        run(&mut sched, &mut fpcs, &mut mm, 0, 10);
        // Force the flow into Moving state via an explicit migration.
        let probes = &mut Probes::default();
        sched.start_migration(FlowId(1), 0, MigrationDest::Dram, &mut fpcs, 10, probes);
        assert_eq!(sched.location(FlowId(1)), Location::Moving);
        sched.push_event(send_event(1, 300));
        let (tx, _) = run(&mut sched, &mut fpcs, &mut mm, 10, 600);
        assert!(sched.stats().parked >= 1, "event parked during migration");
        assert_eq!(tx.iter().map(|t| t.len).sum::<u32>(), 300, "parked event delivered");
    }

    #[test]
    fn intake_backpressure_reported() {
        let mut sched = Scheduler::new(64, 4, true);
        let mut n = 0;
        while sched.push_event(send_event(n, 1)) {
            n += 1;
        }
        assert_eq!(n as usize, Scheduler::INPUT_FIFO_DEPTH);
        assert!(!sched.can_accept());
        assert!(sched.backlog() >= Scheduler::INPUT_FIFO_DEPTH);
    }
}
