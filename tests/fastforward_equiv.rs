//! Fast-forward equivalence property test.
//!
//! The contract (DESIGN.md §9): an engine with `fast_forward: true` must
//! be observationally *bit-identical* to the same engine stepped
//! tick-by-tick — same wire traffic in the same order, same final TCB
//! state, same telemetry (excluding the `engine.fastforward.*` family,
//! which exists precisely to differ) and the same Chrome trace — with
//! the invariant checker enabled and silent in both runs.
//!
//! Randomized via the deterministic in-tree PRNG ([`f4t::sim::SimRng`]);
//! the op schedule mixes bulk transfer, echo traffic and connection
//! churn over deliberately tiny FPCs so flows overflow to DRAM and
//! migrate mid-run. Failures print the case seed and the first point of
//! divergence.

use f4t::core::{Engine, EngineConfig, EventKind, HostNotification};
use f4t::netsim::{ImpairState, Impairments};
use f4t::sim::SimRng;
use f4t::tcp::{FourTuple, Segment, SeqNum};
use std::net::Ipv4Addr;

/// Cycles per `Engine::run` call between segment ferries. Large enough
/// for quiescent gaps to open inside a chunk (so fast-forward engages),
/// small enough that the workload stays chatty.
const CHUNK: u64 = 48;

/// Everything observable about a finished run.
struct Snapshot {
    wire: Vec<String>,
    tcbs: Vec<String>,
    telemetry: [String; 2],
    traces: [String; 2],
    flights: [String; 2],
    flight_spans: u64,
    journals: [Vec<String>; 2],
    journal_digests: [u64; 2],
    pulses: [String; 2],
    pulse_digests: [u64; 2],
    pulse_windows: u64,
    journal_events: u64,
    watchdog_observations: u64,
    alarms: u64,
    skipped: u64,
    windows: u64,
    violations: u64,
}

fn filtered_telemetry(e: &Engine) -> String {
    // One metric per line (MetricsRegistry::to_json is BTreeMap-ordered),
    // so the fastforward family can be dropped line-wise.
    e.telemetry()
        .to_json()
        .lines()
        .filter(|l| !l.contains("fastforward"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A hostile ferry direction: applies an impairment decision stream to
/// the segment sequence itself. Decisions are indexed by data-segment
/// count — never by cycle or wall time — so the fast-forwarded and
/// tick-by-tick runs draw identical verdicts for identical traffic,
/// which is exactly the equivalence property under test.
struct Ferry {
    st: ImpairState,
    /// Reordered segments awaiting their displacement countdown.
    held: Vec<(u64, Segment)>,
}

impl Ferry {
    fn new(imp: &Impairments, salt: u64) -> Ferry {
        Ferry { st: ImpairState::new(imp.reseeded(salt)), held: Vec::new() }
    }

    /// Transforms one offered segment into zero or more delivered ones.
    /// ACKs pass clean (same contract as the system link: impairments
    /// shape the data path, the reverse path stays reliable).
    fn offer(&mut self, seg: Segment, out: &mut Vec<Segment>) {
        if !seg.has_payload() {
            out.push(seg);
            return;
        }
        let d = self.st.decide();
        if d.drop {
            return;
        }
        if d.reorder > 0 {
            self.held.push((d.reorder, seg));
            return;
        }
        out.push(seg);
        if d.duplicate {
            out.push(seg);
        }
        // A data segment went past: count down the held ones and release
        // any that have served their displacement, behind it.
        let mut i = 0;
        while i < self.held.len() {
            self.held[i].0 -= 1;
            if self.held[i].0 == 0 {
                let (_, held) = self.held.remove(i);
                out.push(held);
            } else {
                i += 1;
            }
        }
    }

    /// Releases everything still held (end-of-schedule flush).
    fn flush(&mut self, out: &mut Vec<Segment>) {
        for (_, seg) in self.held.drain(..) {
            out.push(seg);
        }
    }
}

/// Runs both sides `steps` chunks, ferrying segments at chunk
/// boundaries and keeping receive windows open. The ferry points are a
/// function of the chunk schedule only, so they land on the same cycle
/// in the fast-forwarded and tick-by-tick runs.
fn exchange(a: &mut Engine, b: &mut Engine, wire: &mut Vec<String>, steps: u64) {
    exchange_via(a, b, wire, steps, &mut None)
}

/// [`exchange`] with an optional impaired ferry per direction
/// (`ferries[0]` carries a→b, `ferries[1]` b→a). The wire log records
/// *delivered* segments — what survives the impairment — so comparing
/// logs across runs checks both the engine traffic and the transformed
/// stream.
fn exchange_via(
    a: &mut Engine,
    b: &mut Engine,
    wire: &mut Vec<String>,
    steps: u64,
    ferries: &mut Option<[Ferry; 2]>,
) {
    let mut delivered = Vec::new();
    for _ in 0..steps {
        a.run(CHUNK);
        b.run(CHUNK);
        while let Some(seg) = a.pop_tx() {
            delivered.clear();
            match ferries {
                Some(f) => f[0].offer(seg, &mut delivered),
                None => delivered.push(seg),
            }
            for seg in delivered.drain(..) {
                wire.push(format!("{} a->b {seg:?}", a.cycles()));
                b.push_rx(seg);
            }
        }
        while let Some(seg) = b.pop_tx() {
            delivered.clear();
            match ferries {
                Some(f) => f[1].offer(seg, &mut delivered),
                None => delivered.push(seg),
            }
            for seg in delivered.drain(..) {
                wire.push(format!("{} b->a {seg:?}", b.cycles()));
                a.push_rx(seg);
            }
        }
        while let Some(n) = a.pop_notification() {
            if let HostNotification::DataReceived { flow, upto } = n {
                a.push_host(flow, EventKind::RecvConsumed { consumed: upto });
            }
        }
        while let Some(n) = b.pop_notification() {
            if let HostNotification::DataReceived { flow, upto } = n {
                b.push_host(flow, EventKind::RecvConsumed { consumed: upto });
            }
        }
    }
}

fn run_scenario(case: u64, fast_forward: bool) -> Snapshot {
    run_scenario_impaired(case, fast_forward, None)
}

fn run_scenario_impaired(case: u64, fast_forward: bool, profile: Option<&str>) -> Snapshot {
    run_scenario_observed(case, fast_forward, profile, true)
}

/// The bulk/echo/churn schedule of `case`. With `recorders` set, the
/// checker, FtFlight, FtJournal, watchdog, FtPulse and the trace ring are
/// all attached; without it the engine runs bare and the snapshot's
/// recorder fields stay empty.
fn run_scenario_observed(
    case: u64,
    fast_forward: bool,
    profile: Option<&str>,
    recorders: bool,
) -> Snapshot {
    let mut ferries = profile.map(|p| {
        let imp = Impairments::profile(p).expect("known profile");
        [Ferry::new(&imp, 0), Ferry::new(&imp, 1)]
    });
    let mut rng = SimRng::new(0xFF1A_0000 + case);
    // 2 FPCs x 4 slots vs 10 flows: DRAM residency and migration are
    // guaranteed, so the skip logic is audited under the hard cases.
    let cfg = EngineConfig {
        num_fpcs: 2,
        lut_groups: 2,
        flows_per_fpc: 4,
        check: recorders,
        // FtFlight at sample=1 stamps every flow at every stage boundary,
        // so the byte-identity assertion below covers every span path.
        flight: recorders,
        flight_sample: 1,
        // FtJournal at sample=1 records every emission site; the journals
        // of the two runs must be byte-identical (events are emitted only
        // at executed ticks, and fast-forward skips only provably idle
        // windows).
        journal: recorders,
        journal_sample: 1,
        // Watchdog on a short period so many sweeps land inside the run;
        // fast-forward windows must stop at every sweep boundary.
        watchdog: recorders,
        watchdog_interval: 4_096,
        // FtPulse on a short interval so many windows land inside the
        // run; fast-forward must stop at every sample boundary, and the
        // recorded series must be byte-identical across modes.
        pulse: recorders,
        pulse_interval: 1_024,
        pulse_flow_sample: 1,
        fast_forward,
        ..EngineConfig::reference()
    };
    let mut a = Engine::new(cfg.clone());
    let mut b = Engine::new(cfg);
    if recorders {
        a.set_trace_capacity(2048);
        b.set_trace_capacity(2048);
    }
    let tuple_for = |port: u16| {
        FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), port, Ipv4Addr::new(10, 0, 0, 2), 80)
    };
    let mut next_port = 30_000u16;
    let mut pairs = Vec::new();
    for _ in 0..10 {
        let t = tuple_for(next_port);
        next_port += 1;
        let fa = a.open_established(t, SeqNum(0)).unwrap();
        let fb = b.open_established(t.reversed(), SeqNum(0)).unwrap();
        pairs.push((fa, fb, SeqNum(0), SeqNum(0)));
    }
    let mut wire = Vec::new();
    exchange_via(&mut a, &mut b, &mut wire, 4, &mut ferries);
    for _ in 0..120 {
        match rng.next_below(8) {
            // Bulk: push more request pointer on a random a-side flow.
            0..=3 => {
                let i = rng.next_below(pairs.len() as u64) as usize;
                let (fa, _, req_a, _) = &mut pairs[i];
                let acked = a.peek_tcb(*fa).map(|t| t.snd_una).unwrap_or(*req_a);
                let add = 256 + rng.next_below(4096) as u32;
                if req_a.since(acked).saturating_add(add) <= f4t::tcp::TCP_BUFFER {
                    *req_a = req_a.add(add);
                    a.push_host(*fa, EventKind::SendReq { req: *req_a });
                }
            }
            // Echo: the b side answers with its own small send.
            4..=5 => {
                let i = rng.next_below(pairs.len() as u64) as usize;
                let (_, fb, _, req_b) = &mut pairs[i];
                let acked = b.peek_tcb(*fb).map(|t| t.snd_una).unwrap_or(*req_b);
                let add = 64 + rng.next_below(512) as u32;
                if req_b.since(acked).saturating_add(add) <= f4t::tcp::TCP_BUFFER {
                    *req_b = req_b.add(add);
                    b.push_host(*fb, EventKind::SendReq { req: *req_b });
                }
            }
            // Churn: close one pair, open a fresh one on a new port.
            6 if pairs.len() > 4 => {
                let i = rng.next_below(pairs.len() as u64) as usize;
                let (fa, fb, _, _) = pairs.swap_remove(i);
                wire.push(format!("churn close pair {i}"));
                a.push_host(fa, EventKind::Close);
                b.push_host(fb, EventKind::Close);
                exchange_via(&mut a, &mut b, &mut wire, 6, &mut ferries);
                let t = tuple_for(next_port);
                next_port += 1;
                if let (Some(fa), Some(fb)) = (
                    a.open_established(t, SeqNum(0)),
                    b.open_established(t.reversed(), SeqNum(0)),
                ) {
                    pairs.push((fa, fb, SeqNum(0), SeqNum(0)));
                }
            }
            // Time passes.
            _ => {}
        }
        exchange_via(&mut a, &mut b, &mut wire, 1 + rng.next_below(4), &mut ferries);
    }
    // Schedule over: release anything the ferries still hold (a fixed
    // point in the op schedule, so both runs flush identically), then
    // drain clean so both sides converge before the snapshot.
    if let Some(f) = &mut ferries {
        let mut out = Vec::new();
        f[0].flush(&mut out);
        for seg in out.drain(..) {
            wire.push(format!("flush a->b {seg:?}"));
            b.push_rx(seg);
        }
        f[1].flush(&mut out);
        for seg in out.drain(..) {
            wire.push(format!("flush b->a {seg:?}"));
            a.push_rx(seg);
        }
    }
    // Mostly-idle tail: retransmission timers and drain, where skipping
    // pays off and any horizon bug would desynchronize the RTO clock.
    exchange(&mut a, &mut b, &mut wire, 400);
    let tcbs = pairs
        .iter()
        .map(|&(fa, fb, _, _)| format!("{:?} | {:?}", a.peek_tcb(fa), b.peek_tcb(fb)))
        .collect();
    Snapshot {
        wire,
        tcbs,
        telemetry: [filtered_telemetry(&a), filtered_telemetry(&b)],
        traces: [a.export_chrome_trace(), b.export_chrome_trace()],
        flights: [a.flight_json().unwrap_or_default(), b.flight_json().unwrap_or_default()],
        flight_spans: [&a, &b].iter().filter_map(|e| e.flight()).map(|f| f.spans_recorded()).sum(),
        journals: [
            a.journal().map(|j| j.lines().collect()).unwrap_or_default(),
            b.journal().map(|j| j.lines().collect()).unwrap_or_default(),
        ],
        journal_digests: [a.journal_digest(), b.journal_digest()],
        journal_events: [&a, &b]
            .iter()
            .filter_map(|e| e.journal())
            .map(|j| j.events_recorded())
            .sum(),
        pulses: [a.pulse_json().unwrap_or_default(), b.pulse_json().unwrap_or_default()],
        pulse_digests: [a.pulse_digest(), b.pulse_digest()],
        pulse_windows: [&a, &b]
            .iter()
            .filter_map(|e| e.pulse())
            .map(|p| p.windows_recorded())
            .sum(),
        watchdog_observations: [&a, &b]
            .iter()
            .filter_map(|e| e.watchdog())
            .map(|w| w.observations())
            .sum(),
        alarms: a.watchdog_alarm_count() + b.watchdog_alarm_count(),
        skipped: a.fastforward_skipped_cycles() + b.fastforward_skipped_cycles(),
        windows: a.fastforward_windows() + b.fastforward_windows(),
        violations: a.check_total_violations() + b.check_total_violations(),
    }
}

/// Panics with the first point of divergence instead of dumping two
/// multi-thousand-line vectors.
fn assert_same_lines(case: u64, what: &str, ff: &[String], tbt: &[String]) {
    for (i, (l, r)) in ff.iter().zip(tbt.iter()).enumerate() {
        assert_eq!(
            l, r,
            "case {case}: {what} diverges at entry {i}\n  fast-forward: {l}\n  tick-by-tick: {r}"
        );
    }
    assert_eq!(ff.len(), tbt.len(), "case {case}: {what} length mismatch");
}

#[test]
fn fast_forward_is_bit_identical_under_bulk_echo_churn() {
    for case in 0..3u64 {
        let ff = run_scenario(case, true);
        let tbt = run_scenario(case, false);
        assert_same_lines(case, "wire trace", &ff.wire, &tbt.wire);
        assert_same_lines(case, "final TCBs", &ff.tcbs, &tbt.tcbs);
        for side in 0..2 {
            let (l, r): (Vec<_>, Vec<_>) = (
                ff.telemetry[side].lines().map(String::from).collect(),
                tbt.telemetry[side].lines().map(String::from).collect(),
            );
            assert_same_lines(case, "telemetry", &l, &r);
            assert_eq!(
                ff.traces[side], tbt.traces[side],
                "case {case} side {side}: Chrome trace drift"
            );
            // FtFlight latency breakdowns must be byte-identical: every
            // span is a difference of simulated-clock stamps taken at
            // executed ticks, never wall time or tick counts.
            let (l, r): (Vec<_>, Vec<_>) = (
                ff.flights[side].lines().map(String::from).collect(),
                tbt.flights[side].lines().map(String::from).collect(),
            );
            assert_same_lines(case, "flight breakdown", &l, &r);
            // The FtJournal contract: every event is emitted at an
            // executed tick with its absolute cycle, so the two runs'
            // journals — and their running stream digests, which also
            // cover any ring-overwritten prefix — are byte-identical.
            assert_same_lines(case, "journal", &ff.journals[side], &tbt.journals[side]);
            assert_eq!(
                ff.journal_digests[side], tbt.journal_digests[side],
                "case {case} side {side}: journal digest drift"
            );
            // The FtPulse contract: samples land only on exact interval
            // multiples and fast-forward caps at every boundary, so the
            // windowed series — and the running digest covering every
            // recorded window — are byte-identical across modes.
            let (l, r): (Vec<_>, Vec<_>) = (
                ff.pulses[side].lines().map(String::from).collect(),
                tbt.pulses[side].lines().map(String::from).collect(),
            );
            assert_same_lines(case, "pulse series", &l, &r);
            assert_eq!(
                ff.pulse_digests[side], tbt.pulse_digests[side],
                "case {case} side {side}: pulse digest drift"
            );
        }
        assert!(
            ff.pulse_windows > 50,
            "case {case}: pulse barely engaged ({} windows)",
            ff.pulse_windows
        );
        assert!(
            ff.journal_events > 1_000,
            "case {case}: journal barely engaged ({} events)",
            ff.journal_events
        );
        assert_eq!(
            ff.watchdog_observations, tbt.watchdog_observations,
            "case {case}: watchdog sweep count drift"
        );
        assert!(
            ff.watchdog_observations > 4,
            "case {case}: watchdog barely engaged ({} sweeps)",
            ff.watchdog_observations
        );
        assert_eq!(ff.alarms, 0, "case {case}: watchdog alarmed under fast-forward");
        assert_eq!(tbt.alarms, 0, "case {case}: watchdog alarmed tick-by-tick");
        assert!(
            ff.flight_spans > 1_000,
            "case {case}: flight recorder barely engaged ({} spans)",
            ff.flight_spans
        );
        assert_eq!(ff.violations, 0, "case {case}: checker fired under fast-forward");
        assert_eq!(tbt.violations, 0, "case {case}: checker fired tick-by-tick");
        // The control run must not skip; the fast-forward run must
        // actually exercise the machinery under test.
        assert_eq!(tbt.skipped, 0, "case {case}: tick-by-tick run skipped cycles");
        assert!(
            ff.skipped > 1_000 && ff.windows > 10,
            "case {case}: fast-forward barely engaged ({} cycles / {} windows)",
            ff.skipped,
            ff.windows
        );
    }
}

/// The equivalence contract must survive a hostile network: losses,
/// duplicates and reordering change *which* cycles are idle (retransmit
/// timers arm, dup-ACKs fly, recovery extends flows' active windows), so
/// a fast-forward horizon bug that only manifests when an RTO is the
/// next scheduled event would escape the clean-link test. Every
/// impairment profile must leave the two runs byte-identical.
#[test]
fn fast_forward_is_bit_identical_under_impairments() {
    for (i, profile) in ["reorder", "duplicate", "lossy", "burst-loss"].iter().enumerate() {
        let case = i as u64;
        let ff = run_scenario_impaired(case, true, Some(profile));
        let tbt = run_scenario_impaired(case, false, Some(profile));
        assert_same_lines(case, &format!("wire trace ({profile})"), &ff.wire, &tbt.wire);
        assert_same_lines(case, &format!("final TCBs ({profile})"), &ff.tcbs, &tbt.tcbs);
        for side in 0..2 {
            let (l, r): (Vec<_>, Vec<_>) = (
                ff.telemetry[side].lines().map(String::from).collect(),
                tbt.telemetry[side].lines().map(String::from).collect(),
            );
            assert_same_lines(case, &format!("telemetry ({profile})"), &l, &r);
            assert_eq!(
                ff.traces[side], tbt.traces[side],
                "{profile} side {side}: Chrome trace drift"
            );
            let (l, r): (Vec<_>, Vec<_>) = (
                ff.flights[side].lines().map(String::from).collect(),
                tbt.flights[side].lines().map(String::from).collect(),
            );
            assert_same_lines(case, &format!("flight breakdown ({profile})"), &l, &r);
            assert_same_lines(
                case,
                &format!("journal ({profile})"),
                &ff.journals[side],
                &tbt.journals[side],
            );
            assert_eq!(
                ff.journal_digests[side], tbt.journal_digests[side],
                "{profile} side {side}: journal digest drift"
            );
            let (l, r): (Vec<_>, Vec<_>) = (
                ff.pulses[side].lines().map(String::from).collect(),
                tbt.pulses[side].lines().map(String::from).collect(),
            );
            assert_same_lines(case, &format!("pulse series ({profile})"), &l, &r);
            assert_eq!(
                ff.pulse_digests[side], tbt.pulse_digests[side],
                "{profile} side {side}: pulse digest drift"
            );
        }
        assert_eq!(ff.violations, 0, "{profile}: checker fired under fast-forward");
        assert_eq!(tbt.violations, 0, "{profile}: checker fired tick-by-tick");
        assert_eq!(ff.alarms, 0, "{profile}: watchdog alarmed under fast-forward");
        assert_eq!(tbt.alarms, 0, "{profile}: watchdog alarmed tick-by-tick");
        assert_eq!(tbt.skipped, 0, "{profile}: tick-by-tick run skipped cycles");
        assert!(
            ff.skipped > 1_000 && ff.windows > 10,
            "{profile}: fast-forward barely engaged ({} cycles / {} windows)",
            ff.skipped,
            ff.windows
        );
    }
}

/// Telemetry with every observer family removed: fast-forward counters
/// and the trace ring, checker, FtFlight, FtJournal, FtPulse and watchdog
/// metrics. What remains is what the modelled hardware did.
fn model_telemetry(snapshot: &str) -> Vec<String> {
    const OBSERVERS: [&str; 7] =
        ["fastforward", "trace", "check", "flight", "journal", "pulse", "watchdog"];
    snapshot
        .lines()
        .filter(|l| {
            let name = l.trim_start().trim_start_matches('"').split('"').next().unwrap_or("");
            !name.split('.').nth(1).is_some_and(|family| OBSERVERS.contains(&family))
        })
        // Which line ends the JSON object (and so lacks a comma) depends
        // on which families were present.
        .map(|l| l.trim_end_matches(',').to_string())
        .collect()
}

/// The recorders are observation-only: attaching the checker, FtFlight,
/// FtJournal, the watchdog, FtPulse and the trace ring must not change
/// anything the engine does. Over the clean link and every impairment
/// profile, fast-forwarded and tick by tick, a recorders-off run must
/// put the same segments on the wire, end in the same TCBs and report the
/// same model telemetry as the recorders-on run.
#[test]
fn recorders_are_observation_only() {
    let profiles = ["clean", "reorder", "burst-loss", "duplicate", "jitter", "lossy"];
    for case in 0..3u64 {
        for profile in profiles.map(|p| (p != "clean").then_some(p)) {
            for fast_forward in [true, false] {
                let on = run_scenario_observed(case, fast_forward, profile, true);
                let off = run_scenario_observed(case, fast_forward, profile, false);
                let what = |x: &str| format!("{x} ({profile:?}, fast_forward {fast_forward})");
                assert_same_lines(case, &what("wire trace"), &on.wire, &off.wire);
                assert_same_lines(case, &what("final TCBs"), &on.tcbs, &off.tcbs);
                for side in 0..2 {
                    assert_same_lines(
                        case,
                        &what("model telemetry"),
                        &model_telemetry(&on.telemetry[side]),
                        &model_telemetry(&off.telemetry[side]),
                    );
                }
                // The off run really ran bare, and the on run really
                // observed.
                assert_eq!(off.journal_events + off.flight_spans + off.pulse_windows, 0);
                assert!(on.journal_events > 0 && on.flight_spans > 0 && on.pulse_windows > 0);
            }
        }
    }
}

/// FtTurbo: the same scenarios executed as [`ParallelRunner`] shards on
/// worker threads must reproduce the inline fast-forward runs
/// byte-for-byte — wire order, telemetry, traces, flight breakdowns and
/// journal digests. The engine holds no global state, so moving it to a
/// worker thread must be observationally invisible.
#[test]
fn parallel_shards_reproduce_inline_runs() {
    use f4t::core::ParallelRunner;

    let inline: Vec<Snapshot> = (0..3u64).map(|c| run_scenario(c, true)).collect();
    let mut runner: ParallelRunner<(u64, Option<Snapshot>)> =
        ParallelRunner::new((0..3u64).map(|c| (c, None)).collect());
    runner.run_rounds(3, |(case, slot), _round| {
        if slot.is_none() {
            *slot = Some(run_scenario(*case, true));
        }
        false
    });
    for ((case, got), want) in runner.into_shards().into_iter().zip(&inline) {
        let got = got.expect("shard executed its scenario");
        assert_same_lines(case, "wire trace (threaded)", &got.wire, &want.wire);
        assert_same_lines(case, "final TCBs (threaded)", &got.tcbs, &want.tcbs);
        for side in 0..2 {
            assert_eq!(
                got.telemetry[side], want.telemetry[side],
                "case {case} side {side}: telemetry drift on worker thread"
            );
            assert_eq!(
                got.traces[side], want.traces[side],
                "case {case} side {side}: Chrome trace drift on worker thread"
            );
            assert_eq!(
                got.flights[side], want.flights[side],
                "case {case} side {side}: flight breakdown drift on worker thread"
            );
            assert_same_lines(case, "journal (threaded)", &got.journals[side], &want.journals[side]);
            assert_eq!(
                got.journal_digests[side], want.journal_digests[side],
                "case {case} side {side}: journal digest drift on worker thread"
            );
            assert_eq!(
                got.pulses[side], want.pulses[side],
                "case {case} side {side}: pulse series drift on worker thread"
            );
        }
        assert_eq!(got.skipped, want.skipped, "case {case}: skip-cycle drift on worker thread");
        assert_eq!(got.violations, 0, "case {case}: checker fired on worker thread");
    }
}
