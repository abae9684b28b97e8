//! Metric derivations, kept free of simulation so tests can feed them
//! synthetic inputs.

use f4t_sim::Histogram;

/// Fig. 8 anchor: bulk goodput at 128 B requests on 2 cores, in Gbps.
pub const PAPER_BULK_GBPS: f64 = 87.0;

/// A tail percentile is reported only with at least this many samples
/// beyond it.
pub const MIN_BEYOND: u64 = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 4] = [99.99, 99.9, 99.0, 90.0];

/// Samples that lie strictly beyond percentile `p` of `n` samples, by the
/// nearest-rank rule `Histogram::percentile` uses.
pub fn beyond(n: u64, p: f64) -> u64 {
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
    n.saturating_sub(rank)
}

/// The highest tail percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even p90 is unsupported.
pub fn tail_percentile(n: u64) -> Option<f64> {
    TAILS.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// A latency distribution in microseconds of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Median.
    pub p50_us: f64,
    /// The tail percentile chosen by [`tail_percentile`].
    pub tail_pct: f64,
    /// Its value.
    pub tail_us: f64,
    /// Sample count.
    pub samples: u64,
}

impl Latency {
    /// Summarizes a histogram of nanoseconds; `None` when too few
    /// samples support any tail.
    pub fn of_ns(h: &Histogram) -> Option<Latency> {
        let tail_pct = tail_percentile(h.count())?;
        Some(Latency {
            p50_us: h.percentile(50.0) as f64 / 1e3,
            tail_pct,
            tail_us: h.percentile(tail_pct) as f64 / 1e3,
            samples: h.count(),
        })
    }
}

/// Operations failed per operation attempted.
pub fn failed_ratio(attempted: u64, failed: u64) -> f64 {
    failed as f64 / attempted.max(1) as f64
}

/// `echo` and `bulk`: client flows whose progress pointer did not move
/// in the window (`before`/`after` are per-flow pointers in flow order).
pub fn flows_without_progress(before: &[u32], after: &[u32]) -> u64 {
    before.iter().zip(after).filter(|(b, a)| b == a).count() as u64
}

/// `churnstorm`: lifecycles opened that neither completed nor are live.
pub fn churn_failed(opened: u64, completed: u64, live: u64) -> u64 {
    opened.saturating_sub(completed + live)
}

/// `scale64k`: flows whose `snd_una` did not reach its target.
pub fn flows_not_acked(acked: &[bool]) -> u64 {
    acked.iter().filter(|&&a| !a).count() as u64
}

/// Distance from the paper's Fig. 8 anchor, in percent.
pub fn paper_err_pct(goodput_gbps: f64) -> f64 {
    (goodput_gbps - PAPER_BULK_GBPS).abs() / PAPER_BULK_GBPS * 100.0
}

/// Operations per simulated second, in millions.
pub fn mrps(ops: u64, span_ns: u64) -> f64 {
    ops as f64 * 1e3 / span_ns as f64
}

/// Payload bits per simulated nanosecond.
pub fn gbps(bytes: u64, span_ns: u64) -> f64 {
    bytes as f64 * 8.0 / span_ns as f64
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles, by the exclusive method of Python's
/// `statistics.quantiles(v, n=4)`; `None` below two values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |j: usize| {
        let m = (n + 1) as f64 * j as f64 / 4.0;
        let i = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - i as f64;
        s[i - 1] + (s[i] - s[i - 1]) * delta
    };
    Some((q(1), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // ~64 K echo round trips support p99.9, not p99.99. The rank is
        // computed in f64 exactly as `Histogram::percentile` does, so
        // 0.999 * 64_000 rounds up past 63_936.
        assert_eq!(beyond(64_000, 99.9), 63);
        assert_eq!(beyond(64_000, 99.99), 6);
        assert_eq!(tail_percentile(64_000), Some(99.9));
        assert_eq!(tail_percentile(200_000), Some(99.99));
        assert_eq!(beyond(99_999, 99.99), 9);
        assert_eq!(tail_percentile(99_999), Some(99.9));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn latency_summary_uses_the_supported_tail() {
        let mut h = Histogram::new();
        for v in 1..=2_000u64 {
            h.record(v * 1_000);
        }
        let l = Latency::of_ns(&h).expect("2000 samples support p99");
        assert_eq!(l.tail_pct, 99.0);
        assert_eq!(l.samples, 2_000);
        assert!((l.p50_us - 1_000.0).abs() / 1_000.0 < 0.04, "{l:?}");
        assert!((l.tail_us - 1_980.0).abs() / 1_980.0 < 0.04, "{l:?}");
        let mut small = Histogram::new();
        small.record(5);
        assert_eq!(Latency::of_ns(&small), None);
    }

    #[test]
    fn failed_counts_per_workload() {
        // echo / bulk: a flow fails when its pointer did not move.
        assert_eq!(flows_without_progress(&[1, 2, 3, 4], &[9, 2, 7, 4]), 2);
        assert_eq!(
            flows_without_progress(&[u32::MAX], &[3]),
            0,
            "wrap is progress"
        );
        // churnstorm: opened = completed + live + failed.
        assert_eq!(churn_failed(340, 304, 32), 4);
        assert_eq!(churn_failed(336, 304, 32), 0);
        // scale64k: every flow not acked fails.
        assert_eq!(flows_not_acked(&[true, false, true, false, false]), 3);
        // The ratio divides by attempts, not completions.
        assert_eq!(failed_ratio(256, 0), 0.0);
        assert_eq!(failed_ratio(256, 64), 0.25);
        assert_eq!(failed_ratio(340, churn_failed(340, 304, 32)), 4.0 / 340.0);
    }

    #[test]
    fn paper_error_against_fig8() {
        assert!((paper_err_pct(91.70) - 5.402).abs() < 1e-3);
        assert!((paper_err_pct(82.65) - 5.0).abs() < 1e-9);
        assert_eq!(paper_err_pct(87.0), 0.0);
    }

    #[test]
    fn rates_over_simulated_spans() {
        // 2 ms window: 179,160 sends → 89.58 Mrps; 128 B each → 91.73 Gbps.
        assert!((mrps(179_160, 2_000_000) - 89.58).abs() < 1e-9);
        assert!((gbps(179_160 * 128, 2_000_000) - 91.729_92).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quartiles(&[1.0]), None);
    }
}
