//! Host-time spans recorded around calls into each layer's public API.
//!
//! Workload loops are generic over [`Clock`]: timed runs use [`NoClock`], whose
//! methods compile to nothing, and the traced run uses [`Tracer`]. Spans
//! are aggregated per name in memory (count, total, time covered by child
//! spans, duration histogram) plus a bounded raw sample that is written
//! out once the run ends.

use f4t_sim::Histogram;
use std::time::Instant;

/// The span names, one per layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// One system cycle, as `F4tSystem::tick` makes it (root span).
    SystemTick,
    /// `Node::tick`, including the node's `Engine::tick`.
    Node,
    /// `DuplexLink` tick / can_send / send / deliver.
    Link,
    /// `Engine` peek_tx / pop_tx / push_rx between node and link, and the
    /// churn connection opener.
    Glue,
    /// `Engine::run`, including its fast-forward probe.
    EngineRun,
    /// `Engine` push_host / push_rx / pop_tx / pop_notification.
    EngineIo,
    /// `Engine::open_established`.
    EngineOpen,
    /// The benchmark's own ideal peer: ACK synthesis and completion
    /// bookkeeping (root span; its `EngineIo` calls are children).
    HarnessPeer,
}

const SPAN_COUNT: usize = 8;

impl Span {
    const ALL: [Span; SPAN_COUNT] = [
        Span::SystemTick,
        Span::Node,
        Span::Link,
        Span::Glue,
        Span::EngineRun,
        Span::EngineIo,
        Span::EngineOpen,
        Span::HarnessPeer,
    ];

    /// Stable name, used in the raw-span dump.
    pub fn name(self) -> &'static str {
        match self {
            Span::SystemTick => "system.tick",
            Span::Node => "system.node",
            Span::Link => "system.link",
            Span::Glue => "system.glue",
            Span::EngineRun => "engine.run",
            Span::EngineIo => "engine.io",
            Span::EngineOpen => "engine.open",
            Span::HarnessPeer => "harness.peer",
        }
    }
}

/// Timing hooks a workload loop calls around each layer call. Root spans
/// (`begin`/`end`) do not nest; leaf spans (`mark`/`leaf`) opened inside a
/// root count as its children.
pub trait Clock {
    /// A span's start.
    type Mark: Copy;
    /// Starts a root span.
    fn begin(&mut self) -> Self::Mark;
    /// Closes a root span opened by [`Clock::begin`].
    fn end(&mut self, span: Span, start: Self::Mark);
    /// Starts a leaf span.
    fn mark(&self) -> Self::Mark;
    /// Closes a leaf span opened by [`Clock::mark`].
    fn leaf(&mut self, span: Span, start: Self::Mark);
}

/// The untraced clock: every hook is a no-op.
pub struct NoClock;

impl Clock for NoClock {
    type Mark = ();
    #[inline(always)]
    fn begin(&mut self) {}
    #[inline(always)]
    fn end(&mut self, _: Span, _: ()) {}
    #[inline(always)]
    fn mark(&self) {}
    #[inline(always)]
    fn leaf(&mut self, _: Span, _: ()) {}
}

/// Per-name aggregate of raw durations, clock cost included; the
/// [`Tracer`] accessors subtract it.
#[derive(Debug, Clone)]
pub struct SpanStat {
    /// Spans closed.
    pub count: u64,
    /// Summed raw duration in ns.
    total_ns: u64,
    /// Summed raw duration of child spans in ns (root spans only).
    child_ns: u64,
    /// Child spans closed inside (root spans only).
    children: u64,
    /// Span durations in ns, clock cost subtracted.
    pub hist: Histogram,
}

/// What the tracer's own clock reads add, measured by timing empty spans
/// when the tracer is made.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClockCost {
    /// Inside every recorded span: the parts of its two `Instant::now`
    /// calls that fall between their two samples.
    pub inside_ns: f64,
    /// Host time one empty leaf span adds to its root: both clock reads
    /// and the bookkeeping.
    pub span_ns: f64,
}

/// Raw spans kept per run; the aggregates cover every span.
const RAW_CAP: usize = 4_096;

/// Empty spans timed per calibration batch, and batches; the cost is the
/// median over batches, so one preempted batch does not skew it.
const CALIBRATION_SPANS: usize = 20_000;
const CALIBRATION_BATCHES: usize = 9;

#[derive(Debug, Clone, Copy)]
struct RawSpan {
    span: Span,
    start_ns: u64,
    end_ns: u64,
    /// Root spans closed before this one: the parent tick or pump.
    parent: u64,
}

/// The traced clock.
pub struct Tracer {
    base: Instant,
    cost: ClockCost,
    stats: Vec<SpanStat>,
    child_acc: u64,
    child_count: u64,
    roots: u64,
    raw: Vec<RawSpan>,
}

impl Tracer {
    /// A tracer whose clock cost is measured on the spot.
    pub fn calibrated() -> Tracer {
        let mut inside = Vec::with_capacity(CALIBRATION_BATCHES);
        let mut span = Vec::with_capacity(CALIBRATION_BATCHES);
        for _ in 0..CALIBRATION_BATCHES {
            let mut probe = Tracer::with_cost(ClockCost::default());
            let t = Instant::now();
            let root = probe.begin();
            for _ in 0..CALIBRATION_SPANS {
                let m = probe.mark();
                probe.leaf(Span::EngineIo, m);
            }
            probe.end(Span::HarnessPeer, root);
            let wall = t.elapsed().as_nanos() as f64;
            inside.push(probe.stat(Span::EngineIo).total_ns as f64 / CALIBRATION_SPANS as f64);
            span.push(wall / CALIBRATION_SPANS as f64);
        }
        Tracer::with_cost(ClockCost {
            inside_ns: crate::derive::median(&inside),
            span_ns: crate::derive::median(&span),
        })
    }

    /// A tracer that subtracts `cost` from what it records.
    pub fn with_cost(cost: ClockCost) -> Tracer {
        Tracer {
            base: Instant::now(),
            cost,
            stats: (0..SPAN_COUNT)
                .map(|_| SpanStat {
                    count: 0,
                    total_ns: 0,
                    child_ns: 0,
                    children: 0,
                    hist: Histogram::new(),
                })
                .collect(),
            child_acc: 0,
            child_count: 0,
            roots: 0,
            raw: Vec::with_capacity(RAW_CAP),
        }
    }

    /// The clock cost this tracer subtracts.
    pub fn cost(&self) -> ClockCost {
        self.cost
    }

    /// The aggregate for one span name.
    pub fn stat(&self, span: Span) -> &SpanStat {
        &self.stats[span as usize]
    }

    /// Summed duration of one span name in ns, clock cost subtracted.
    pub fn total_ns(&self, span: Span) -> f64 {
        let s = self.stat(span);
        let c = self.cost;
        (s.total_ns as f64 - s.count as f64 * c.inside_ns - s.children as f64 * c.span_ns).max(0.0)
    }

    /// Host time the clock and bookkeeping added to the run, in ns.
    pub fn clock_ns(&self) -> f64 {
        let spans: u64 = self.stats.iter().map(|s| s.count).sum();
        spans as f64 * self.cost.span_ns
    }

    /// Self time of one span name in ns: its duration minus the part its
    /// children cover, clock cost subtracted from both.
    pub fn self_ns(&self, span: Span) -> f64 {
        let s = self.stat(span);
        let child = s.child_ns as f64 - s.children as f64 * self.cost.inside_ns;
        (self.total_ns(span) - child).max(0.0)
    }

    /// Records one closed span; returns its raw duration.
    fn close(&mut self, span: Span, start: Instant, children: u64) -> u64 {
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        let clock = self.cost.inside_ns + children as f64 * self.cost.span_ns;
        let s = &mut self.stats[span as usize];
        s.count += 1;
        s.total_ns += ns;
        s.hist.record((ns as f64 - clock).max(0.0) as u64);
        if self.raw.len() < RAW_CAP {
            self.raw.push(RawSpan {
                span,
                start_ns: start.duration_since(self.base).as_nanos() as u64,
                end_ns: end.duration_since(self.base).as_nanos() as u64,
                parent: self.roots,
            });
        }
        ns
    }

    /// The clock cost, the aggregates and the raw sample as one JSON
    /// document. Raw spans are as measured, clock cost included.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"clock_cost\":{{\"inside_ns\":{},\"span_ns\":{}}},\"spans\":{{",
            self.cost.inside_ns, self.cost.span_ns
        );
        for (i, span) in Span::ALL.iter().enumerate() {
            let s = self.stat(*span);
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"total_ns\":{:.0},\"self_ns\":{:.0},\"p50_ns\":{},\"p99_ns\":{}}}",
                span.name(),
                s.count,
                self.total_ns(*span),
                self.self_ns(*span),
                s.hist.percentile(50.0),
                s.hist.percentile(99.0)
            ));
        }
        out.push_str("},\"raw\":[");
        for (i, r) in self.raw.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                r.span.name(),
                r.start_ns,
                r.end_ns,
                r.parent
            ));
        }
        out.push_str("]}\n");
        out
    }
}

impl Clock for Tracer {
    type Mark = Instant;

    fn begin(&mut self) -> Instant {
        self.child_acc = 0;
        self.child_count = 0;
        Instant::now()
    }

    fn end(&mut self, span: Span, start: Instant) {
        self.close(span, start, self.child_count);
        let s = &mut self.stats[span as usize];
        s.child_ns += self.child_acc;
        s.children += self.child_count;
        self.child_acc = 0;
        self.child_count = 0;
        self.roots += 1;
    }

    fn mark(&self) -> Instant {
        Instant::now()
    }

    fn leaf(&mut self, span: Span, start: Instant) {
        self.child_acc += self.close(span, start, 0);
        self.child_count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_self_time_excludes_children() {
        let mut t = Tracer::with_cost(ClockCost::default());
        let r = t.begin();
        let m = t.mark();
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.leaf(Span::EngineIo, m);
        t.end(Span::HarnessPeer, r);
        let io_ns = t.total_ns(Span::EngineIo);
        assert_eq!(t.stat(Span::HarnessPeer).count, 1);
        assert!(io_ns >= 2e6);
        assert_eq!(
            t.self_ns(Span::HarnessPeer),
            t.total_ns(Span::HarnessPeer) - io_ns
        );
        // Leaves outside a root do not leak into the next root.
        let m = t.mark();
        t.leaf(Span::EngineOpen, m);
        let r = t.begin();
        t.end(Span::HarnessPeer, r);
        assert_eq!(t.stat(Span::HarnessPeer).children, 1);
        assert_eq!(t.stat(Span::HarnessPeer).child_ns as f64, io_ns);
    }

    #[test]
    fn clock_cost_is_subtracted() {
        let cost = ClockCost {
            inside_ns: 10.0,
            span_ns: 30.0,
        };
        let mut t = Tracer::with_cost(cost);
        t.stats[Span::EngineIo as usize].count = 4;
        t.stats[Span::EngineIo as usize].total_ns = 1_040;
        let root = &mut t.stats[Span::SystemTick as usize];
        root.count = 2;
        root.total_ns = 5_140;
        root.child_ns = 1_040;
        root.children = 4;
        // Leaves: 1,040 − 4 × 10. Root: 5,140 − 2 × 10 − 4 × 30, of
        // which the children's 1,000 are not its own.
        assert_eq!(t.total_ns(Span::EngineIo), 1_000.0);
        assert_eq!(t.self_ns(Span::EngineIo), 1_000.0);
        assert_eq!(t.total_ns(Span::SystemTick), 5_000.0);
        assert_eq!(t.self_ns(Span::SystemTick), 4_000.0);
    }

    #[test]
    fn calibration_measures_a_positive_cost() {
        let c = Tracer::calibrated().cost();
        assert!(c.inside_ns > 0.0 && c.span_ns > c.inside_ns, "{c:?}");
        // Empty spans timed with the calibrated cost read close to zero.
        let mut t = Tracer::with_cost(c);
        let r = t.begin();
        for _ in 0..10_000 {
            let m = t.mark();
            t.leaf(Span::Link, m);
        }
        t.end(Span::SystemTick, r);
        assert!(t.total_ns(Span::Link) / 1e4 < c.inside_ns, "{c:?}");
    }

    #[test]
    fn raw_sample_is_bounded() {
        let mut t = Tracer::with_cost(ClockCost::default());
        for _ in 0..RAW_CAP + 10 {
            let m = t.mark();
            t.leaf(Span::Link, m);
        }
        assert_eq!(t.raw.len(), RAW_CAP);
        assert_eq!(t.stat(Span::Link).count, (RAW_CAP + 10) as u64);
        assert!(t.to_json().contains("\"system.link\":{\"count\":4106"));
    }
}
