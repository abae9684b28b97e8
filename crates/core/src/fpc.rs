//! The flow processing core (FPC).
//!
//! One FPC (Fig. 4) composes:
//!
//! * the **event handler**, which accumulates incoming events into the
//!   event table by overwriting cumulative pointers and OR-ing occurrence
//!   bits, with duplicate-ACK counting as its only single-cycle RMW
//!   (§4.2.1);
//! * the **dual memory** — a TCB table written by the FPU and an event
//!   table written by the event handler, with per-entry valid bits merged
//!   at dispatch (§4.2.3);
//! * the **TCB manager**, which round-robins over slots, constructs the
//!   merged up-to-date TCB, clears valid bits and issues to the FPU;
//! * the **FPU** pipeline (see [`crate::fpu`]);
//! * the **evict checker**, which diverts processed TCBs whose evict flag
//!   is set toward DRAM without consuming an extra memory port (§4.3.2);
//! * the **CAM** mapping global flow ids to local slots (§4.4.2).
//!
//! The two-cycle port schedule is honoured structurally: event handling
//! and TCB acceptance happen on even cycles, FPU writeback and TCB-manager
//! dispatch on odd cycles — one event and one dispatch per two cycles,
//! i.e. 125 M events/s per FPC at 250 MHz.

use crate::event::{EventKind, FlowEvent, TimeoutKind, TxRequest};
use crate::fpu::{EventView, Fpu, FpuOutcome};
use f4t_mem::Cam;
use f4t_sim::check::{InvariantChecker, PortTracker, ViolationKind};
use f4t_sim::clock::odd_cycles_in;
use f4t_sim::{Fifo, FlightStage, FlowSet, Probes};
use f4t_tcp::{CongestionControl, FlowId, Tcb, TcpFlags};
use std::sync::Arc;

/// How the TCB manager walks the slot array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanPolicy {
    /// Jump to the next slot with pending work (a hardware priority
    /// encoder); same-flow spacing is still guaranteed by the in-flight
    /// guard. Default.
    #[default]
    SkipIdle,
    /// Visit every slot in fixed order whether or not it has work —
    /// the paper's plainest description, with a hard round period of
    /// `2 × slots` cycles.
    FullIteration,
}

/// FtTurbo struct-of-arrays slot table: the dual memory's TCB half and
/// event half plus the scheduling metadata live in parallel arrays
/// indexed by slot, with the three per-slot flags held as dense bitsets
/// ([`FlowSet`] keyed by slot index). The dispatch scan, the FtVerify
/// audit and the watchdog residency pass touch only the word-packed
/// flags and the one array they need, instead of striding over a
/// ~200-byte AoS `Slot` per probe.
struct SlotTable {
    tcbs: Vec<Tcb>,
    evs: Vec<EventView>,
    occupied: FlowSet,
    in_fpu: FlowSet,
    /// Slots whose event-table entry has at least one valid bit set; its
    /// `len()` is the FtScope valid-bit utilization gauge.
    pending: FlowSet,
    /// Last cycle each slot was installed or dispatched; the FtVerify
    /// audit uses it to bound how long a valid event entry may sit
    /// without being scheduled (valid-bit leak detection).
    last_progress: Vec<u64>,
    /// Cycle each slot's event-table entry last turned valid (pending
    /// false→true); the FtFlight `event_accum` span runs from here to the
    /// FPU issue that consumes the accumulated view.
    pending_since: Vec<u64>,
}

impl SlotTable {
    fn new(slots: usize) -> SlotTable {
        SlotTable {
            tcbs: vec![Tcb::new(FlowId(u32::MAX)); slots],
            evs: vec![EventView::default(); slots],
            occupied: FlowSet::with_capacity(slots),
            in_fpu: FlowSet::with_capacity(slots),
            pending: FlowSet::with_capacity(slots),
            last_progress: vec![0; slots],
            pending_since: vec![0; slots],
        }
    }

    fn len(&self) -> usize {
        self.tcbs.len()
    }

    /// Occupied, has a valid event entry, and its TCB is not in flight.
    #[inline]
    fn dispatchable(&self, idx: usize) -> bool {
        let i = idx as u32;
        self.occupied.contains(i) && self.pending.contains(i) && !self.in_fpu.contains(i)
    }

    /// Sets a slot's valid-entry flag, stamping `pending_since` on the
    /// false→true transition.
    #[inline]
    fn set_pending(&mut self, idx: usize, pending: bool, cycle: u64) {
        if pending {
            if self.pending.insert(idx as u32) {
                self.pending_since[idx] = cycle;
            }
        } else {
            self.pending.remove(idx as u32);
        }
    }
}

/// Everything an FPC produced in one cycle, drained by the engine.
#[derive(Debug, Default)]
pub struct FpcOutput {
    /// Transmit requests for the packet generator.
    pub tx: Vec<TxRequest>,
    /// FPU outcomes (host notifications, timer re-arms) per flow.
    pub outcomes: Vec<(FlowId, FpuOutcome, Tcb)>,
    /// TCBs diverted by the evict checker (destined for DRAM or another
    /// FPC, per the scheduler's migration in progress).
    pub evicted: Vec<Tcb>,
    /// Flows whose swap-in completed this cycle (the engine flips their
    /// location-LUT entry from Moving to this FPC).
    pub installed: Vec<FlowId>,
}

/// A flow processing core.
pub struct Fpc {
    id: u8,
    table: SlotTable,
    cam: Cam,
    fpu: Fpu,
    rr_ptr: usize,
    scan: ScanPolicy,
    /// Events routed here by the scheduler (paper: events of a flow are
    /// only routed while the location LUT says this FPC owns it).
    input_events: Fifo<FlowEvent>,
    /// FtFlight stamp mirror of `input_events`: the engine cycle the
    /// scheduler routed each event here (`None` until
    /// [`enable_flight`](Self::enable_flight)). The wait measures the
    /// SRAM-resident TCB fetch path (`tcb_fetch_sram`).
    ev_stamps: Option<Fifo<u64>>,
    /// Swap-in TCBs with their accumulated event-table half (dedicated
    /// write port: one accept per two cycles).
    input_tcbs: Fifo<(Tcb, EventView)>,
    events_handled: u64,
    dispatches: u64,
    stale_events: u64,
    /// Events accumulated while the slot's TCB was in flight in the FPU —
    /// each one would have stalled a w-RMW design (paper §4.2.1).
    rmw_hazard_events: u64,
    /// Cycles the event handler spent stalled waiting for an in-flight
    /// TCB to return before it could read-modify-write. Structurally zero
    /// in F4T: event accumulation never waits. The counter exists so the
    /// paper's stall-free claim is *checkable*, not assumed.
    rmw_stall_cycles: u64,
    /// Odd (dispatch) cycles with no pending work anywhere.
    stall_fifo_empty: u64,
    /// Odd cycles where pending work existed but every candidate slot was
    /// blocked on its TCB being in flight (TCB-miss wait).
    stall_tcb_wait: u64,
    /// Odd cycles where downstream TX/evict backpressure closed the gate.
    stall_backpressure: u64,
    /// Per-cycle sums for occupancy gauges (divide by `ticks`).
    occupied_sum: u64,
    valid_sum: u64,
    fpu_depth_sum: u64,
    ticks: u64,
    /// FtVerify per-cycle port accounting for the dual memory; only
    /// consulted when an [`InvariantChecker`] is attached to the tick.
    tcb_ports: PortTracker,
    ev_ports: PortTracker,
}

impl std::fmt::Debug for Fpc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fpc")
            .field("id", &self.id)
            .field("flows", &self.cam.len())
            .field("events_handled", &self.events_handled)
            .finish_non_exhaustive()
    }
}

impl Fpc {
    /// Depth of the event input FIFO; when full the scheduler sees
    /// backpressure and triggers load-balancing migration (§4.4.2).
    pub const INPUT_FIFO_DEPTH: usize = 32;

    /// Creates an FPC with `slots` TCB slots running `cc`.
    pub fn new(
        id: u8,
        slots: usize,
        cc: Arc<dyn CongestionControl>,
        fpu_latency_override: Option<u32>,
        mss: u32,
        scan: ScanPolicy,
    ) -> Fpc {
        Fpc {
            id,
            table: SlotTable::new(slots),
            cam: Cam::new(slots),
            fpu: Fpu::new(cc, fpu_latency_override, mss),
            rr_ptr: 0,
            scan,
            input_events: Fifo::new(Self::INPUT_FIFO_DEPTH),
            ev_stamps: None,
            input_tcbs: Fifo::new(4),
            events_handled: 0,
            dispatches: 0,
            stale_events: 0,
            rmw_hazard_events: 0,
            rmw_stall_cycles: 0,
            stall_fifo_empty: 0,
            stall_tcb_wait: 0,
            stall_backpressure: 0,
            occupied_sum: 0,
            valid_sum: 0,
            fpu_depth_sum: 0,
            ticks: 0,
            tcb_ports: PortTracker::new(format!("fpc{id}.tcb_table"), 2),
            ev_ports: PortTracker::new(format!("fpc{id}.event_table"), 2),
        }
    }

    /// This FPC's id.
    pub fn id(&self) -> u8 {
        self.id
    }

    /// Number of resident flows.
    pub fn flow_count(&self) -> usize {
        self.cam.len()
    }

    /// Free TCB slots.
    pub fn free_slots(&self) -> usize {
        self.cam.capacity() - self.cam.len()
    }

    /// Whether the event input FIFO is full (scheduler backpressure).
    pub fn input_full(&self) -> bool {
        self.input_events.is_full()
    }

    /// Current event input backlog.
    pub fn input_backlog(&self) -> usize {
        self.input_events.len()
    }

    /// Instantaneous valid event-table entries (FtPulse occupancy gauge;
    /// the per-cycle average lives in `event_table.valid_entries_avg`).
    pub fn event_table_valid(&self) -> usize {
        self.table.pending.len()
    }

    /// Instantaneous FPU pipeline slots in use (FtPulse occupancy gauge).
    pub fn fpu_depth(&self) -> usize {
        self.fpu.depth_used()
    }

    /// Whether the swap-in port can accept a TCB.
    pub fn can_accept_tcb(&self) -> bool {
        !self.input_tcbs.is_full() && self.free_slots() > self.input_tcbs.len()
    }

    /// Total events handled into the event table.
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Total TCB dispatches to the FPU.
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// Events dropped because their flow had already closed (strays).
    pub fn stale_events(&self) -> u64 {
        self.stale_events
    }

    /// Events that would have stalled a w-RMW design (the flow's TCB was
    /// in flight in the FPU when the event was accumulated).
    pub fn rmw_hazard_events(&self) -> u64 {
        self.rmw_hazard_events
    }

    /// Cycles the event handler stalled waiting for an in-flight TCB.
    /// Structurally zero in F4T — exposed so the stall-free claim is
    /// asserted by tests instead of assumed.
    pub fn rmw_stall_cycles(&self) -> u64 {
        self.rmw_stall_cycles
    }

    /// Dispatch-stall cycle counts, in taxonomy order:
    /// `(fifo_empty, tcb_wait, evict_backpressure)`.
    pub fn stall_cycles(&self) -> (u64, u64, u64) {
        (self.stall_fifo_empty, self.stall_tcb_wait, self.stall_backpressure)
    }

    /// Reports this FPC's counters and gauges under `prefix` (e.g.
    /// `engine.fpc0`).
    pub fn collect(&self, prefix: &str, reg: &mut f4t_sim::telemetry::MetricsRegistry) {
        reg.counter(&format!("{prefix}.events_handled"), self.events_handled);
        reg.counter(&format!("{prefix}.dispatches"), self.dispatches);
        reg.counter(&format!("{prefix}.stale_events"), self.stale_events);
        reg.counter(&format!("{prefix}.stall.fifo_empty"), self.stall_fifo_empty);
        reg.counter(&format!("{prefix}.stall.tcb_wait"), self.stall_tcb_wait);
        reg.counter(&format!("{prefix}.stall.evict_backpressure"), self.stall_backpressure);
        reg.counter(&format!("{prefix}.rmw.hazard_events"), self.rmw_hazard_events);
        reg.counter(&format!("{prefix}.rmw.stall_cycles"), self.rmw_stall_cycles);
        let ticks = self.ticks.max(1) as f64;
        reg.gauge(
            &format!("{prefix}.event_table.occupancy_avg"),
            self.occupied_sum as f64 / ticks,
        );
        reg.gauge(
            &format!("{prefix}.event_table.valid_entries_avg"),
            self.valid_sum as f64 / ticks,
        );
        reg.gauge(&format!("{prefix}.fpu.occupancy_avg"), self.fpu_depth_sum as f64 / ticks);
        reg.counter(&format!("{prefix}.fpu.processed"), self.fpu.processed());
        self.input_events.collect(&format!("{prefix}.input_fifo"), reg);
        self.input_tcbs.collect(&format!("{prefix}.swapin_fifo"), reg);
    }

    /// Offers an event; returns `false` under backpressure.
    pub fn push_event(&mut self, ev: FlowEvent) -> bool {
        self.push_event_at(ev, 0)
    }

    /// [`push_event`](Self::push_event) carrying the engine cycle of
    /// routing, recorded as the FtFlight `tcb_fetch_sram` span start.
    pub fn push_event_at(&mut self, ev: FlowEvent, cycle: u64) -> bool {
        let accepted = self.input_events.push(ev).is_ok();
        if accepted {
            if let Some(stamps) = &mut self.ev_stamps {
                let ok = stamps.push(cycle).is_ok();
                debug_assert!(ok, "flight stamp FIFO out of sync with fpc input");
            }
        }
        accepted
    }

    /// Turns on FtFlight span stamping. Call before the first
    /// [`push_event_at`](Self::push_event_at); stamps then mirror the
    /// event input FIFO 1:1.
    pub fn enable_flight(&mut self) {
        debug_assert!(self.input_events.is_empty(), "enable_flight on a non-empty FPC");
        self.ev_stamps = Some(Fifo::new(Self::INPUT_FIFO_DEPTH));
    }

    /// Offers a swap-in TCB with its accumulated event half; returns
    /// `false` when the port is busy. Events accumulated while the flow
    /// lived in DRAM ride along so nothing is lost in migration.
    pub fn push_tcb(&mut self, tcb: Tcb, ev: EventView) -> bool {
        if !self.can_accept_tcb() {
            return false;
        }
        self.input_tcbs.push((tcb, ev)).is_ok()
    }

    /// Marks `flow` for eviction (scheduler step ③ of Fig. 6): sets the
    /// TCB's evict flag; the evict checker diverts it after its next FPU
    /// pass. Returns `false` if the flow is not resident.
    pub fn request_evict(&mut self, flow: FlowId) -> bool {
        let Some(slot_idx) = self.cam.lookup(flow) else { return false };
        self.table.tcbs[slot_idx].evict = true;
        let since = self.table.last_progress[slot_idx];
        self.table.set_pending(slot_idx, true, since); // force a prompt FPU pass
        true
    }

    /// The least-recently-active resident flow not already being evicted
    /// (the "coldest" flow the FPC answers the scheduler with, Fig. 6 ②).
    pub fn coldest_flow(&self) -> Option<FlowId> {
        self.table
            .occupied
            .iter()
            .filter(|&i| !self.table.tcbs[i as usize].evict && !self.table.in_fpu.contains(i))
            .min_by_key(|&i| self.table.tcbs[i as usize].last_active_ns)
            .map(|i| self.table.tcbs[i as usize].flow)
    }

    /// Read-only view of a resident flow's TCB (diagnostics, Fig. 14
    /// congestion-window traces).
    pub fn peek_tcb(&self, flow: FlowId) -> Option<&Tcb> {
        self.table
            .occupied
            .iter()
            .map(|i| &self.table.tcbs[i as usize])
            .find(|t| t.flow == flow)
    }

    /// Event-handler write: accumulate `event` into the event table.
    fn handle_event(&mut self, event: FlowEvent, now_ns: u64, cycle: u64, probes: &mut Probes) {
        if let Some(chk) = probes.checker() {
            // Event accumulation is the even phase of the two-cycle port
            // schedule (§4.2.3); running it on a dispatch cycle would
            // collide with the TCB manager's event-table ports.
            if !cycle.is_multiple_of(2) {
                chk.report(
                    cycle,
                    ViolationKind::ScheduleParity,
                    format!("fpc{}", self.id),
                    "event accumulation on an odd (dispatch) cycle".into(),
                );
            }
            // One event-table write per handled event. The dup-ACK
            // increment is the paper's only single-cycle RMW and lives in
            // a dedicated counter array, not a second BRAM port (§4.2.1).
            self.ev_ports.access(cycle, 1, chk);
        }
        let Some(slot_idx) = self.cam.lookup(event.flow) else {
            // The moving-state protocol prevents migration races, but a
            // connection that just CLOSED frees its slot with events
            // possibly still in our input FIFO (e.g. a retransmitted FIN
            // behind the ACK that completed the close). Real stacks
            // answer such strays with an RST; we drop and count them.
            self.stale_events += 1;
            return;
        };
        if self.table.in_fpu.contains(slot_idx as u32) {
            // A w-RMW design would stall here until the in-flight TCB
            // returned; F4T accumulates into the event table and moves on.
            self.rmw_hazard_events += 1;
        }
        self.table.set_pending(slot_idx, true, cycle);
        self.table.tcbs[slot_idx].last_active_ns = now_ns;
        self.events_handled += 1;
        // SoA split borrow: the event-table row is written against a
        // read-only view of the TCB-table row.
        let tcb = &self.table.tcbs[slot_idx];
        let ev = &mut self.table.evs[slot_idx];
        match event.kind {
            EventKind::Connect => ev.connect = true,
            EventKind::Close => ev.close = true,
            EventKind::SendReq { req } => {
                let merged = ev.req.unwrap_or(tcb.req).max_seq(req);
                ev.req = Some(merged);
            }
            EventKind::RecvConsumed { consumed } => {
                let merged = ev.consumed.unwrap_or(tcb.rcv_consumed).max_seq(consumed);
                ev.consumed = Some(merged);
            }
            EventKind::Timeout { kind } => match kind {
                TimeoutKind::Rto => ev.rto_fired = true,
                TimeoutKind::Probe => ev.probe_fired = true,
            },
            EventKind::RxPacket {
                ack,
                rcv_nxt,
                wnd,
                flags,
                had_payload,
                needs_ack,
                in_order,
                ts_val,
                ts_ecr,
            } => {
                // Merged views (event table if valid, else TCB table).
                let cur_ack = ev.ack.unwrap_or(tcb.snd_una);
                let cur_wnd = ev.wnd.unwrap_or(tcb.snd_wnd);
                let in_flight = tcb.snd_nxt.gt(cur_ack);
                if ack.gt(cur_ack) {
                    ev.ack = Some(ack);
                    ev.dup_acks = Some(0);
                } else if ack == cur_ack && !had_payload && wnd == cur_wnd && in_flight {
                    // The single-cycle RMW: increment the merged count.
                    let cur_dup = ev.dup_acks.unwrap_or(tcb.dup_acks);
                    ev.dup_acks = Some(cur_dup.saturating_add(1));
                }
                if flags.contains(TcpFlags::SYN) {
                    // A SYN (re)anchors the receive sequence space at the
                    // peer's ISN; circular max-merging against the
                    // pre-handshake placeholder would pick the wrong side
                    // when the ISN is more than 2^31 away.
                    ev.rcv_nxt = Some(rcv_nxt);
                } else {
                    let merged_rcv = ev.rcv_nxt.unwrap_or(tcb.rcv_nxt).max_seq(rcv_nxt);
                    ev.rcv_nxt = Some(merged_rcv);
                }
                ev.wnd = Some(wnd);
                ev.flags.insert(flags);
                ev.needs_ack |= needs_ack;
                if needs_ack && !in_order {
                    ev.dup_ack_gen = ev.dup_ack_gen.saturating_add(1);
                }
                if ts_val != 0 {
                    ev.ts_val = ts_val;
                }
                if ts_ecr != 0 {
                    ev.ts_ecr = ts_ecr;
                }
            }
        }
    }

    /// TCB-manager dispatch: pick the next slot per the scan policy,
    /// construct the merged TCB, clear valid bits and issue to the FPU.
    /// `gate_open` is false when the downstream TX path is exerting
    /// backpressure (dispatch throttles rather than stalls mid-pipeline).
    fn dispatch(&mut self, now_cycle: u64, gate_open: bool, probes: &mut Probes) {
        if !gate_open {
            self.stall_backpressure += 1;
            return;
        }
        let n = self.table.len();
        let issued = match self.scan {
            ScanPolicy::FullIteration => {
                let idx = self.rr_ptr;
                self.rr_ptr = (self.rr_ptr + 1) % n;
                self.try_issue(idx, now_cycle, probes)
            }
            ScanPolicy::SkipIdle => {
                let mut issued = false;
                for off in 0..n {
                    let idx = (self.rr_ptr + off) % n;
                    if self.table.dispatchable(idx) {
                        self.rr_ptr = (idx + 1) % n;
                        issued = self.try_issue(idx, now_cycle, probes);
                        break;
                    }
                }
                issued
            }
        };
        if !issued {
            // Classify the bubble: was there simply nothing to do, or was
            // pending work blocked on a TCB still in the FPU pipeline?
            if self.table.pending.is_empty() && self.input_events.is_empty() {
                self.stall_fifo_empty += 1;
            } else {
                self.stall_tcb_wait += 1;
            }
        }
    }

    fn try_issue(&mut self, idx: usize, now_cycle: u64, probes: &mut Probes) -> bool {
        if !self.table.dispatchable(idx) {
            return false;
        }
        if let Some(chk) = probes.checker() {
            // Dispatch is the odd phase of the two-cycle schedule.
            if now_cycle.is_multiple_of(2) {
                chk.report(
                    now_cycle,
                    ViolationKind::ScheduleParity,
                    format!("fpc{}", self.id),
                    "TCB dispatch on an even (event) cycle".into(),
                );
            }
            // Construct-read on the TCB table; construct-read plus
            // valid-bit clear on the event table.
            self.tcb_ports.access(now_cycle, 1, chk);
            self.ev_ports.access(now_cycle, 2, chk);
            // Structural stall-free check: the in-FPU guard above must
            // agree with the pipeline's actual contents, otherwise a TCB
            // is read-modify-written while an older copy is in flight.
            if self.fpu.in_flight(self.table.tcbs[idx].flow) {
                chk.report(
                    now_cycle,
                    ViolationKind::RmwHazard,
                    format!("fpc{}", self.id),
                    format!(
                        "flow {} dispatched while already in the FPU pipeline",
                        self.table.tcbs[idx].flow
                    ),
                );
            }
        }
        // The accumulation wait: valid bits first set to the merged view
        // being consumed by this FPU issue.
        probes.span(
            FlightStage::EventAccum,
            self.table.tcbs[idx].flow.0,
            now_cycle.saturating_sub(self.table.pending_since[idx]),
        );
        // Construct the merged TCB: event-table values with valid bits set
        // override; dup-ACK count rides in the EventView (its valid bit is
        // NOT cleared at dispatch — see the event handler above).
        let merged_ev = self.table.evs[idx];
        // Clear valid bits (§4.2.3 step ④), except the dup-ACK counter
        // which must keep accumulating against the merged view while the
        // FPU is in flight.
        self.table.evs[idx] = EventView { dup_acks: merged_ev.dup_acks, ..EventView::default() };
        self.table.set_pending(idx, false, now_cycle);
        self.table.in_fpu.insert(idx as u32);
        self.table.last_progress[idx] = now_cycle;
        self.dispatches += 1;
        self.fpu.issue(self.table.tcbs[idx], merged_ev, now_cycle);
        true
    }

    /// Advances one 250 MHz cycle.
    ///
    /// `tx_gate_open` reflects packet-generator FIFO space; when false the
    /// TCB manager pauses dispatch (events keep accumulating — this is the
    /// mechanism behind the paper's observation that link backpressure
    /// grows the effective request size, §5.1). `probes` carries the
    /// engine's checker (port budgets, schedule parity, RMW hazards) and
    /// FtFlight recorder; with neither attached each hook is one branch.
    pub fn tick(
        &mut self,
        cycle: u64,
        now_ns: u64,
        tx_gate_open: bool,
        out: &mut FpcOutput,
        probes: &mut Probes,
    ) {
        // FtScope occupancy gauges: three u64 adds per cycle.
        self.ticks += 1;
        self.occupied_sum += self.cam.len() as u64;
        self.valid_sum += self.table.pending.len() as u64;
        self.fpu_depth_sum += self.fpu.depth_used() as u64;
        // FPU advances every cycle; completions write back / evict.
        if let Some(result) = self.fpu.tick(cycle, now_ns) {
            let flow = result.tcb.flow;
            probes.span(FlightStage::FpuProcess, flow.0, cycle.saturating_sub(result.issued_cycle));
            if let Some(c) = probes.checker() {
                // FPU write-back port on the TCB table.
                self.tcb_ports.access(cycle, 1, c);
            }
            if let Some(idx) = self.cam.lookup(flow) {
                if let Some(c) = probes.checker() {
                    if !self.table.in_fpu.contains(idx as u32) {
                        // The pipeline returned a TCB the slot bookkeeping
                        // no longer considers in flight: a stale copy was
                        // processed concurrently with the live slot.
                        c.report(
                            cycle,
                            ViolationKind::RmwHazard,
                            format!("fpc{}", self.id),
                            format!("FPU write-back for flow {flow} whose slot is not in-FPU"),
                        );
                    }
                }
                self.table.in_fpu.remove(idx as u32);
                // The evict flag may have been set on the slot while this
                // TCB was in flight; honour it either way.
                let evict_requested = result.tcb.evict || self.table.tcbs[idx].evict;
                // Evict checker: divert processed TCBs with the flag set,
                // but only once no unprocessed events remain (ensuring
                // "TCBs are always processed before they are evicted").
                if result.outcome.closed {
                    // Connection fully closed: free the slot and CAM
                    // entry; the engine tears down the flow-table and
                    // location-LUT state from the Closed notification.
                    self.table.occupied.remove(idx as u32);
                    self.table.evs[idx] = EventView::default();
                    self.table.tcbs[idx].evict = false;
                    self.table.set_pending(idx, false, cycle);
                    self.cam.remove(flow);
                } else if evict_requested
                    && !self.table.evs[idx].any_except_dup_acks()
                    && !self.table.pending.contains(idx as u32)
                {
                    let mut tcb = result.tcb;
                    tcb.evict = false;
                    self.table.occupied.remove(idx as u32);
                    self.table.evs[idx] = EventView::default();
                    self.cam.remove(flow);
                    out.evicted.push(tcb);
                } else {
                    self.table.tcbs[idx] = result.tcb;
                    self.table.tcbs[idx].evict = evict_requested;
                    if evict_requested || result.outcome.more_work {
                        self.table.set_pending(idx, true, cycle);
                    }
                }
                out.tx.extend_from_slice(&result.outcome.tx);
                out.outcomes.push((flow, result.outcome, result.tcb));
            } else {
                debug_assert!(false, "FPU completed for unknown flow {flow}");
            }
        }

        if cycle.is_multiple_of(2) {
            // Even cycle: event handling + swap-in acceptance.
            if let Some(ev) = self.input_events.pop() {
                if let Some(stamp) = self.ev_stamps.as_mut().and_then(|s| s.pop()) {
                    probes.span(FlightStage::TcbFetchSram, ev.flow.0, cycle.saturating_sub(stamp));
                }
                self.handle_event(ev, now_ns, cycle, probes);
            }
            if let Some((tcb, ev)) = self.input_tcbs.pop() {
                let flow = tcb.flow;
                if let Some(c) = probes.checker() {
                    // Swap-in writes both halves of the dual memory.
                    self.tcb_ports.access(cycle, 1, c);
                    self.ev_ports.access(cycle, 1, c);
                }
                if let Some(slot_idx) = self.cam.insert(flow) {
                    let pending = tcb.can_send() || ev.any();
                    self.table.tcbs[slot_idx] = tcb;
                    self.table.evs[slot_idx] = ev;
                    self.table.set_pending(slot_idx, pending, cycle);
                    self.table.in_fpu.remove(slot_idx as u32);
                    self.table.occupied.insert(slot_idx as u32);
                    self.table.last_progress[slot_idx] = cycle;
                    out.installed.push(flow);
                } else {
                    if let Some(c) = probes.checker() {
                        c.report(
                            cycle,
                            ViolationKind::MigrationRace,
                            format!("fpc{}", self.id),
                            format!("swap-in of flow {flow} with no free slot"),
                        );
                    }
                    debug_assert!(false, "swap-in with no free slot at FPC {}", self.id);
                }
            }
        } else {
            // Odd cycle: TCB-manager dispatch (FPU writeback handled above).
            self.dispatch(cycle, tx_gate_open, probes);
        }
    }

    /// Activity horizon: the earliest cycle at which ticking this FPC can
    /// change observable state, beyond the per-cycle accumulators that
    /// [`skip_cycles`](Self::skip_cycles) replays. `Some(cycle)` means
    /// there is work right now (queued input, or a dispatchable slot);
    /// a later cycle means the only scheduled event is the FPU head
    /// completing; `None` means idle until new input arrives.
    pub fn next_activity(&self, cycle: u64) -> Option<u64> {
        if !self.input_events.is_empty() || !self.input_tcbs.is_empty() {
            return Some(cycle);
        }
        // A pending slot whose TCB is not in flight dispatches on the
        // next odd cycle; treat it as immediate work. Scanning the
        // valid-entry bitset alone (instead of every slot) keeps the
        // fast-forward probe O(pending), the common case being empty.
        if self.table.pending.iter().any(|i| self.table.dispatchable(i as usize)) {
            return Some(cycle);
        }
        self.fpu.next_activity().map(|c| c.max(cycle))
    }

    /// Fast-forward catch-up for `n` quiescent cycles starting at
    /// `from_cycle`. The caller guarantees [`next_activity`]
    /// (Self::next_activity) stays past the window, so ticking would only
    /// have accumulated occupancy gauges, burned one dispatch bubble per
    /// odd cycle, and (under FullIteration) walked the scan pointer —
    /// which is exactly what this replays, keeping every counter
    /// bit-identical to the tick-by-tick run.
    pub fn skip_cycles(&mut self, from_cycle: u64, n: u64) {
        debug_assert!(
            self.ev_stamps.as_ref().is_none_or(|s| s.len() == self.input_events.len()),
            "flight stamps out of step with the event input FIFO"
        );
        self.ticks += n;
        self.occupied_sum += self.cam.len() as u64 * n;
        self.valid_sum += self.table.pending.len() as u64 * n;
        self.fpu_depth_sum += self.fpu.depth_used() as u64 * n;
        let odd = odd_cycles_in(from_cycle, n);
        // Same bubble taxonomy as `dispatch`: with no dispatchable slot,
        // pending work (necessarily in flight here) classifies the odd
        // cycles as TCB-wait, otherwise the FIFOs are simply empty.
        if self.table.pending.is_empty() && self.input_events.is_empty() {
            self.stall_fifo_empty += odd;
        } else {
            self.stall_tcb_wait += odd;
        }
        if self.scan == ScanPolicy::FullIteration {
            let slots = self.table.len() as u64;
            self.rr_ptr = ((self.rr_ptr as u64 + odd % slots) % slots) as usize;
        }
    }

    /// FtVerify periodic audit: FIFO conservation, CAM/slot-array
    /// agreement and valid-bit leak detection. Called by the engine every
    /// audit interval while checking is enabled.
    pub fn audit(&self, cycle: u64, chk: &mut InvariantChecker) {
        chk.check_fifo(cycle, &format!("fpc{}.input_fifo", self.id), &self.input_events);
        chk.check_fifo(cycle, &format!("fpc{}.swapin_fifo", self.id), &self.input_tcbs);
        let occupied = self.table.occupied.len();
        if occupied != self.cam.len() {
            chk.report(
                cycle,
                ViolationKind::MigrationRace,
                format!("fpc{}", self.id),
                format!(
                    "CAM holds {} flows but {} slots are occupied",
                    self.cam.len(),
                    occupied
                ),
            );
        }
        // Walk only the valid-entry bitset (ascending slot order, the
        // same order the AoS scan reported in).
        for i in self.table.pending.iter() {
            if self.table.dispatchable(i as usize) {
                let idle = cycle.saturating_sub(self.table.last_progress[i as usize]);
                if idle > chk.leak_bound() {
                    chk.report(
                        cycle,
                        ViolationKind::ValidBitLeak,
                        format!("fpc{}", self.id),
                        format!(
                            "flow {} has a valid event-table entry undispatched for {idle} cycles",
                            self.table.tcbs[i as usize].flow
                        ),
                    );
                }
            }
        }
    }

    /// Flows currently resident in this FPC's TCB table (FtVerify audit
    /// support: residency is cross-checked against the location LUT and
    /// the DRAM store).
    pub fn resident_flows(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.table.occupied.iter().map(|i| self.table.tcbs[i as usize].flow)
    }

    /// TCBs currently resident in this FPC (watchdog progress scan: one
    /// pass over the occupancy bitset instead of a per-flow `peek_tcb`
    /// search).
    pub fn resident_tcbs(&self) -> impl Iterator<Item = &Tcb> {
        self.table.occupied.iter().map(|i| &self.table.tcbs[i as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f4t_tcp::{CcAlgorithm, FourTuple, SeqNum, TcpFlags, MSS};

    fn fpc(slots: usize) -> Fpc {
        Fpc::new(0, slots, Arc::new(f4t_tcp::NewReno), Some(4), MSS, ScanPolicy::SkipIdle)
    }

    fn established_tcb(id: u32) -> Tcb {
        let mut t = Tcb::established(FlowId(id), FourTuple::default(), SeqNum(1000));
        CcAlgorithm::NewReno.instance().init(&mut t);
        t
    }

    fn run_cycles(fpc: &mut Fpc, from: u64, n: u64, out: &mut FpcOutput) {
        for c in from..from + n {
            fpc.tick(c, c * 4, true, out, &mut Probes::default());
        }
    }

    #[test]
    fn swap_in_then_event_then_data_out() {
        let mut f = fpc(8);
        assert!(f.push_tcb(established_tcb(1), EventView::default()));
        let mut out = FpcOutput::default();
        run_cycles(&mut f, 0, 4, &mut out);
        assert_eq!(f.flow_count(), 1);

        // Send request for 500 B.
        let ev = FlowEvent::new(
            FlowId(1),
            EventKind::SendReq { req: SeqNum(1000).add(500) },
            0,
        );
        assert!(f.push_event(ev));
        run_cycles(&mut f, 4, 20, &mut out);
        assert_eq!(out.tx.len(), 1);
        assert_eq!(out.tx[0].len, 500);
        assert_eq!(out.tx[0].seq, SeqNum(1000));
        assert_eq!(f.events_handled(), 1);
        assert!(f.dispatches() >= 1);
    }

    #[test]
    fn events_accumulate_between_dispatches() {
        // Many small send requests arriving while the FPU is busy are
        // absorbed into ONE transmission — the core stall-free claim.
        let mut f = Fpc::new(0, 8, Arc::new(f4t_tcp::NewReno), Some(60), MSS, ScanPolicy::SkipIdle);
        f.push_tcb(established_tcb(1), EventView::default());
        let mut out = FpcOutput::default();
        run_cycles(&mut f, 0, 4, &mut out);
        // Queue 8 requests of 100 B each (pointers 1100, 1200, ... 1800).
        for i in 1..=8u32 {
            let ev = FlowEvent::new(
                FlowId(1),
                EventKind::SendReq { req: SeqNum(1000).add(i * 100) },
                0,
            );
            assert!(f.push_event(ev));
        }
        run_cycles(&mut f, 4, 200, &mut out);
        let total: u32 = out.tx.iter().map(|t| t.len).sum();
        assert_eq!(total, 800, "all accumulated data sent");
        assert!(
            out.tx.len() <= 2,
            "requests accumulated into at most two bursts, got {}",
            out.tx.len()
        );
    }

    #[test]
    fn dispatch_rate_is_one_per_two_cycles() {
        // With every slot occupied and permanently pending, dispatches
        // happen every other cycle: 125 M/s at 250 MHz.
        let mut f = fpc(4);
        for i in 0..4 {
            let mut t = established_tcb(i);
            t.req = t.req.add(100_000_000); // endless data
            t.snd_wnd = u32::MAX / 2;
            t.cwnd = u32::MAX / 2;
            f.push_tcb(t, EventView::default());
        }
        let mut out = FpcOutput::default();
        run_cycles(&mut f, 0, 8, &mut out); // swap-ins complete
        let d0 = f.dispatches();
        run_cycles(&mut f, 8, 200, &mut out);
        let dispatched = f.dispatches() - d0;
        assert!((95..=100).contains(&dispatched), "dispatched {dispatched} in 200 cycles");
    }

    #[test]
    fn same_flow_never_double_issued() {
        let mut f = Fpc::new(0, 4, Arc::new(f4t_tcp::NewReno), Some(50), MSS, ScanPolicy::SkipIdle);
        let mut t = established_tcb(1);
        t.req = t.req.add(1_000_000);
        f.push_tcb(t, EventView::default());
        let mut out = FpcOutput::default();
        // The flow has endless more_work; with a 50-cycle FPU it must not
        // be re-issued while in flight.
        for c in 0..400u64 {
            f.tick(c, c * 4, true, &mut out, &mut Probes::default());
            assert!(f.fpu.depth_used() <= 1, "flow double-issued at cycle {c}");
        }
    }

    #[test]
    fn dup_ack_counter_increments_in_place() {
        let mut f = fpc(4);
        let mut t = established_tcb(1);
        t.snd_nxt = t.snd_una.add(20 * MSS); // data in flight
        t.req = t.snd_nxt;
        f.push_tcb(t, EventView::default());
        let mut out = FpcOutput::default();
        run_cycles(&mut f, 0, 4, &mut out);
        let dup = |n: u64| {
            FlowEvent::new(
                FlowId(1),
                EventKind::RxPacket {
                    ack: SeqNum(1000),
                    rcv_nxt: SeqNum(1000),
                    wnd: f4t_tcp::TCP_BUFFER,
                    flags: TcpFlags::ACK,
                    had_payload: false,
                    needs_ack: false,
                    in_order: true,
                    ts_val: 0,
                    ts_ecr: 0,
                },
                n,
            )
        };
        for i in 0..3 {
            f.push_event(dup(i));
        }
        run_cycles(&mut f, 4, 60, &mut out);
        // Three duplicates triggered fast retransmit.
        assert!(out.tx.iter().any(|t| t.retransmit), "fast retransmit fired");
    }

    #[test]
    fn evict_diverts_after_processing() {
        let mut f = fpc(4);
        f.push_tcb(established_tcb(7), EventView::default());
        let mut out = FpcOutput::default();
        run_cycles(&mut f, 0, 4, &mut out);
        assert!(f.request_evict(FlowId(7)));
        run_cycles(&mut f, 4, 40, &mut out);
        assert_eq!(out.evicted.len(), 1);
        assert_eq!(out.evicted[0].flow, FlowId(7));
        assert!(!out.evicted[0].evict, "flag cleared on the way out");
        assert_eq!(f.flow_count(), 0, "slot and CAM entry freed");
        assert!(f.peek_tcb(FlowId(7)).is_none());
    }

    #[test]
    fn evict_waits_for_unprocessed_events() {
        // An event arriving after the evict request must be processed
        // before the TCB leaves (deadlock-avoidance rule, §4.3.2).
        let mut f = Fpc::new(0, 4, Arc::new(f4t_tcp::NewReno), Some(20), MSS, ScanPolicy::SkipIdle);
        f.push_tcb(established_tcb(7), EventView::default());
        let mut out = FpcOutput::default();
        run_cycles(&mut f, 0, 4, &mut out);
        f.request_evict(FlowId(7));
        // Event lands while the evict-pass is in the FPU pipeline.
        run_cycles(&mut f, 4, 10, &mut out);
        f.push_event(FlowEvent::new(
            FlowId(7),
            EventKind::SendReq { req: SeqNum(1000).add(300) },
            0,
        ));
        run_cycles(&mut f, 14, 120, &mut out);
        assert_eq!(out.evicted.len(), 1, "eventually evicted");
        let sent: u32 = out.tx.iter().map(|t| t.len).sum();
        assert_eq!(sent, 300, "the late event was processed, not lost");
    }

    #[test]
    fn coldest_flow_selection() {
        let mut f = fpc(8);
        for i in 0..3 {
            f.push_tcb(established_tcb(i), EventView::default());
        }
        let mut out = FpcOutput::default();
        run_cycles(&mut f, 0, 10, &mut out);
        // Touch flows 0 and 2 with events; flow 1 stays cold.
        for id in [0u32, 2] {
            f.push_event(FlowEvent::new(
                FlowId(id),
                EventKind::SendReq { req: SeqNum(1000).add(10) },
                0,
            ));
        }
        run_cycles(&mut f, 10, 20, &mut out);
        assert_eq!(f.coldest_flow(), Some(FlowId(1)));
    }

    #[test]
    fn backpressure_gates_dispatch_not_handling() {
        let mut f = fpc(4);
        let t = established_tcb(1);
        f.push_tcb(t, EventView::default());
        let mut out = FpcOutput::default();
        run_cycles(&mut f, 0, 4, &mut out);
        // Gate closed: events are still handled, nothing dispatched.
        f.push_event(FlowEvent::new(
            FlowId(1),
            EventKind::SendReq { req: SeqNum(1000).add(100) },
            0,
        ));
        for c in 4..40u64 {
            f.tick(c, c * 4, false, &mut out, &mut Probes::default());
        }
        assert_eq!(f.events_handled(), 1);
        assert!(out.tx.is_empty(), "no dispatch while gated");
        // Gate opens: the accumulated request goes out.
        run_cycles(&mut f, 40, 40, &mut out);
        assert_eq!(out.tx.iter().map(|t| t.len).sum::<u32>(), 100);
    }

    #[test]
    fn full_iteration_round_period() {
        let slots = 16;
        let mut f =
            Fpc::new(0, slots, Arc::new(f4t_tcp::NewReno), Some(4), MSS, ScanPolicy::FullIteration);
        let mut t = established_tcb(3);
        t.req = t.req.add(100);
        f.push_tcb(t, EventView::default());
        let mut out = FpcOutput::default();
        // With full iteration the single flow is visited once per
        // 2×slots cycles at most.
        run_cycles(&mut f, 0, 2 * slots as u64 + 10, &mut out);
        assert_eq!(out.tx.iter().map(|t| t.len).sum::<u32>(), 100);
    }

    #[test]
    fn two_cycle_schedule_fits_dual_port_budget() {
        // §4.2.3's port schedule, replayed against the BRAM primitive:
        // even cycle — TCB table accepts an input TCB (write) + construct
        // read; event table stores a handled event (write) + construct
        // read. Odd cycle — TCB table takes the FPU write-back + read;
        // event table clears valid bits (write) + read. Each memory does
        // exactly two port-ops per cycle, so the structural schedule the
        // FPC tick implements is realizable in dual-port BRAM.
        use f4t_mem::DualPortRam;
        let mut tcb_table: DualPortRam<u64> = DualPortRam::new(8, 0);
        let mut event_table: DualPortRam<u64> = DualPortRam::new(8, 0);
        for cycle in 0..64u64 {
            tcb_table.begin_cycle();
            event_table.begin_cycle();
            let slot = (cycle % 8) as usize;
            if cycle % 2 == 0 {
                tcb_table.write(slot, cycle); // accept input TCB
                event_table.write(slot, cycle); // store handled event
            } else {
                tcb_table.write(slot, cycle); // FPU write-back
                event_table.write(slot, 0); // clear valid bits
            }
            // Construction read happens every cycle on both memories.
            let _ = *tcb_table.read(slot);
            let _ = *event_table.read(slot);
            assert_eq!(tcb_table.ports_used(), 2);
            assert_eq!(event_table.ports_used(), 2);
        }
        assert!((tcb_table.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn input_fifo_backpressure_reported() {
        let mut f = fpc(4);
        f.push_tcb(established_tcb(1), EventView::default());
        let mut out = FpcOutput::default();
        run_cycles(&mut f, 0, 4, &mut out);
        let ev =
            FlowEvent::new(FlowId(1), EventKind::SendReq { req: SeqNum(1000).add(1) }, 0);
        let mut accepted = 0;
        while f.push_event(ev) {
            accepted += 1;
        }
        assert_eq!(accepted, Fpc::INPUT_FIFO_DEPTH);
        assert!(f.input_full());
    }
}
