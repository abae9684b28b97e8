//! The per-layer metric catalogue and the deterministic counts read from
//! engine telemetry.

use crate::spans::Tracer;
use f4t_sim::telemetry::{MetricValue, MetricsRegistry};
use f4t_sim::Histogram;
use std::collections::BTreeMap;

/// Every per-layer metric, with its unit, in report order. A workload
/// reports 0 for a layer it does not exercise (e.g. `system.link.*` on
/// `scale64k`, which has no link).
pub const PER_LAYER: [(&str, &str); 61] = [
    ("system.tick.ns_p50", "ns"),
    ("system.tick.ns_p99", "ns"),
    ("system.node.self_ns", "ns/cycle"),
    ("system.link.self_ns", "ns/cycle"),
    ("system.glue.self_ns", "ns/cycle"),
    ("engine.run.self_ns", "ns/cycle"),
    ("engine.io.self_ns", "ns/cycle"),
    ("engine.open.ns_per_flow", "ns/flow"),
    ("harness.peer.share", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.span_cost_ns", "ns"),
    ("engine.ticks_executed", "count"),
    ("engine.ff.skipped_cycles", "cycles"),
    ("engine.ff.windows", "count"),
    ("engine.ff.cycles_per_window", "cycles"),
    ("fpc.events_handled", "count"),
    ("fpc.dispatches", "count"),
    ("fpu.processed", "count"),
    ("fpc.busy_ratio", "ratio"),
    ("fpc.idle_cycles", "cycles"),
    ("fpc.stall.tcb_wait", "cycles"),
    ("fpc.stall.evict_backpressure", "cycles"),
    ("fpc.rmw.hazard_events", "count"),
    ("scheduler.events_in", "count"),
    ("scheduler.coalesced_ratio", "ratio"),
    ("scheduler.migrations", "count"),
    ("scheduler.lut.stalls", "count"),
    ("scheduler.pending.high_watermark", "count"),
    ("scheduler.routed_dram", "count"),
    ("mm.tcb_cache.hit_rate", "ratio"),
    ("mm.dram.accesses", "count"),
    ("mm.dram.refusals", "count"),
    ("mm.migration_latency.p50_cycles", "cycles"),
    ("mm.migration_latency.p99_cycles", "cycles"),
    ("rx.segments_in", "count"),
    ("rx.cuckoo.probes_per_lookup", "ratio"),
    ("rx.dropped_unknown", "count"),
    ("rx.flow_table.occupancy", "count"),
    ("tx.segments_out", "count"),
    ("tx.bytes_out", "bytes"),
    ("tx.retx_per_kseg", "ratio"),
    ("host.pcie.h2d_bytes", "bytes"),
    ("host.pcie.d2h_bytes", "bytes"),
    ("host.pcie.refusals", "count"),
    ("host.cpu.app", "cycles"),
    ("host.cpu.lib", "cycles"),
    ("host.cpu.idle", "cycles"),
    ("link.segments", "count"),
    ("link.bytes", "bytes"),
    ("link.utilization", "ratio"),
    ("churn.opened", "count"),
    ("churn.completed", "count"),
    ("flight.rx_ingest.p99_cycles", "cycles"),
    ("flight.cuckoo_lookup.p99_cycles", "cycles"),
    ("flight.coalesce_fifo.p99_cycles", "cycles"),
    ("flight.pending_wait.p99_cycles", "cycles"),
    ("flight.event_accum.p99_cycles", "cycles"),
    ("flight.tcb_fetch_sram.p99_cycles", "cycles"),
    ("flight.tcb_fetch_dram.p99_cycles", "cycles"),
    ("flight.fpu_process.p99_cycles", "cycles"),
    ("flight.tx_emit.p99_cycles", "cycles"),
];

/// Per-layer values by name; names missing at report time read 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// The part of a telemetry name after its engine prefix (`engine.` or
/// `a.engine.`), for metrics that belong to an engine.
fn engine_local(name: &str) -> Option<&str> {
    name.split_once("engine.").map(|(_, rest)| rest)
}

/// Every engine's value of one engine-local metric.
fn values<'a>(reg: &'a MetricsRegistry, local: &'a str) -> impl Iterator<Item = &'a MetricValue> {
    reg.iter()
        .filter(move |(n, _)| engine_local(n) == Some(local))
        .map(|(_, v)| v)
}

fn counter(v: &MetricValue) -> u64 {
    if let MetricValue::Counter(c) = v {
        *c
    } else {
        0
    }
}

/// Sums an engine counter over every engine in `reg`.
fn sum(reg: &MetricsRegistry, local: &str) -> u64 {
    values(reg, local).map(counter).sum()
}

/// Sums a per-FPC counter (`fpc<i>.<suffix>`) over every FPC of every
/// engine.
fn sum_fpc(reg: &MetricsRegistry, suffix: &str) -> u64 {
    reg.iter()
        .filter(|(n, _)| {
            engine_local(n)
                .and_then(|l| l.strip_prefix("fpc"))
                .and_then(|l| l.split_once('.'))
                .is_some_and(|(i, s)| s == suffix && i.bytes().all(|b| b.is_ascii_digit()))
        })
        .map(|(_, v)| counter(v))
        .sum()
}

/// Sums an engine gauge over every engine.
fn gauge_sum(reg: &MetricsRegistry, local: &str) -> f64 {
    values(reg, local)
        .map(|v| {
            if let MetricValue::Gauge(g) = v {
                *g
            } else {
                0.0
            }
        })
        .sum()
}

/// The larger of every engine's histogram percentile (`p50` or `p99`).
fn hist_max(reg: &MetricsRegistry, local: &str, p99: bool) -> u64 {
    values(reg, local)
        .filter_map(|v| match v {
            MetricValue::Histogram(h) => Some(if p99 { h.p99 } else { h.p50 }),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Engine counts over a window: `delta` is the telemetry delta summed
/// over the engines of one run, each with `fpcs_per_engine` FPCs.
pub fn engine_counts(delta: &MetricsRegistry, fpcs_per_engine: usize, out: &mut Layers) {
    let cycles = sum(delta, "cycles");
    let skipped = sum(delta, "fastforward.skipped_cycles");
    let windows = sum(delta, "fastforward.windows");
    let ticks = cycles - skipped;
    let dispatches = sum_fpc(delta, "dispatches");
    let events_in = sum(delta, "scheduler.events_in");
    let hits = sum(delta, "mm.tcb_cache.hits");
    let misses = sum(delta, "mm.tcb_cache.misses");
    let seg_out = sum(delta, "tx.segments_out");
    let mut put = |k: &'static str, v: f64| {
        out.insert(k, v);
    };
    put("engine.ticks_executed", ticks as f64);
    put("engine.ff.skipped_cycles", skipped as f64);
    put("engine.ff.windows", windows as f64);
    put("engine.ff.cycles_per_window", ratio(skipped, windows));
    put(
        "fpc.events_handled",
        sum_fpc(delta, "events_handled") as f64,
    );
    put("fpc.dispatches", dispatches as f64);
    put("fpu.processed", sum_fpc(delta, "fpu.processed") as f64);
    put(
        "fpc.busy_ratio",
        ratio(dispatches, fpcs_per_engine as u64 * ticks),
    );
    put("fpc.idle_cycles", sum_fpc(delta, "stall.fifo_empty") as f64);
    put(
        "fpc.stall.tcb_wait",
        sum_fpc(delta, "stall.tcb_wait") as f64,
    );
    put(
        "fpc.stall.evict_backpressure",
        sum_fpc(delta, "stall.evict_backpressure") as f64,
    );
    put(
        "fpc.rmw.hazard_events",
        sum_fpc(delta, "rmw.hazard_events") as f64,
    );
    put("scheduler.events_in", events_in as f64);
    put(
        "scheduler.coalesced_ratio",
        ratio(sum(delta, "scheduler.coalesced"), events_in),
    );
    put(
        "scheduler.migrations",
        sum(delta, "scheduler.migrations") as f64,
    );
    put(
        "scheduler.lut.stalls",
        sum(delta, "scheduler.lut.stalls") as f64,
    );
    put(
        "scheduler.pending.high_watermark",
        gauge_sum(delta, "scheduler.pending.high_watermark"),
    );
    put(
        "scheduler.routed_dram",
        sum(delta, "scheduler.routed_dram") as f64,
    );
    put("mm.tcb_cache.hit_rate", ratio(hits, hits + misses));
    put("mm.dram.accesses", sum(delta, "mm.dram.accesses") as f64);
    put("mm.dram.refusals", sum(delta, "mm.dram.refusals") as f64);
    put(
        "mm.migration_latency.p50_cycles",
        hist_max(delta, "mm.migration_latency_cycles", false) as f64,
    );
    put(
        "mm.migration_latency.p99_cycles",
        hist_max(delta, "mm.migration_latency_cycles", true) as f64,
    );
    put("rx.segments_in", sum(delta, "rx.segments_in") as f64);
    put(
        "rx.cuckoo.probes_per_lookup",
        ratio(
            sum(delta, "rx.cuckoo.probes"),
            sum(delta, "rx.cuckoo.lookups"),
        ),
    );
    put(
        "rx.dropped_unknown",
        sum(delta, "rx.dropped_unknown") as f64,
    );
    put(
        "rx.flow_table.occupancy",
        gauge_sum(delta, "rx.flow_table.occupancy"),
    );
    put("tx.segments_out", seg_out as f64);
    put("tx.bytes_out", sum(delta, "tx.bytes_out") as f64);
    put(
        "tx.retx_per_kseg",
        ratio(sum(delta, "tx.retransmissions") * 1_000, seg_out),
    );
}

/// Retransmissions and unknown-flow drops over every engine in `delta`.
pub fn clean_link_counts(delta: &MetricsRegistry) -> (u64, u64) {
    (
        sum(delta, "tx.retransmissions"),
        sum(delta, "rx.dropped_unknown"),
    )
}

/// Registry entries that the fidelity check compares: everything except
/// the FtFlight metrics only the traced run records.
pub fn without_flight(reg: &MetricsRegistry) -> String {
    let kept: Vec<_> = reg
        .iter()
        .filter(|(n, _)| !n.contains(".flight."))
        .collect();
    format!("{kept:?}")
}

/// Index of the first `flight.<stage>.p99_cycles` in [`PER_LAYER`].
const FLIGHT_FIRST: usize = 52;

/// FtFlight per-stage p99 in cycles, from each stage's merged histogram.
pub fn flight_p99(stages: &[Histogram], out: &mut Layers) {
    for (i, h) in stages.iter().enumerate() {
        out.insert(PER_LAYER[FLIGHT_FIRST + i].0, h.percentile(99.0) as f64);
    }
}

/// The host time one traced span costs, which the host-time layer
/// metrics already have subtracted.
pub fn clock_cost(tracer: &Tracer, out: &mut Layers) {
    out.insert("trace.span_cost_ns", tracer.cost().span_ns);
}

#[cfg(test)]
mod tests {
    use super::*;
    use f4t_sim::FlightStage;

    #[test]
    fn counts_sum_over_engines_and_fpcs() {
        let mut r = MetricsRegistry::new();
        for side in ["a.engine", "b.engine"] {
            r.counter(&format!("{side}.cycles"), 100);
            r.counter(&format!("{side}.fastforward.skipped_cycles"), 20);
            r.counter(&format!("{side}.fastforward.windows"), 2);
            r.counter(&format!("{side}.fpc0.dispatches"), 40);
            r.counter(&format!("{side}.fpc1.dispatches"), 24);
            r.counter(&format!("{side}.fpc0.fpu.processed"), 7);
            r.counter(&format!("{side}.mm.events_handled"), 1_000);
            r.counter(&format!("{side}.fpc0.events_handled"), 3);
            r.counter(&format!("{side}.tx.segments_out"), 500);
            r.counter(&format!("{side}.tx.retransmissions"), 1);
            r.counter(&format!("{side}.mm.tcb_cache.hits"), 3);
            r.counter(&format!("{side}.mm.tcb_cache.misses"), 1);
            r.gauge(&format!("{side}.rx.flow_table.occupancy"), 256.0);
        }
        let mut out = Layers::new();
        engine_counts(&r, 2, &mut out);
        assert_eq!(out["engine.ticks_executed"], 160.0);
        assert_eq!(out["engine.ff.cycles_per_window"], 10.0);
        assert_eq!(out["fpc.dispatches"], 128.0);
        assert_eq!(out["fpc.busy_ratio"], 128.0 / (2.0 * 160.0));
        assert_eq!(out["fpu.processed"], 14.0);
        assert_eq!(
            out["fpc.events_handled"], 6.0,
            "mm.events_handled is not an FPC count"
        );
        assert_eq!(out["tx.retx_per_kseg"], 2.0);
        assert_eq!(out["mm.tcb_cache.hit_rate"], 0.75);
        assert_eq!(out["rx.flow_table.occupancy"], 512.0);
        assert_eq!(clean_link_counts(&r), (2, 0));
    }

    #[test]
    fn catalogue_names_are_unique_and_flight_stages_line_up() {
        let mut names: Vec<_> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for (i, stage) in FlightStage::ALL.iter().enumerate() {
            assert_eq!(
                PER_LAYER[FLIGHT_FIRST + i].0,
                format!("flight.{}.p99_cycles", stage.name())
            );
        }
        assert_eq!(FLIGHT_FIRST + FlightStage::ALL.len(), PER_LAYER.len());
        let mut out = Layers::new();
        flight_p99(&vec![Histogram::new(); FlightStage::ALL.len()], &mut out);
        assert_eq!(out.len(), 9);
    }
}
