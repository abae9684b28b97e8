//! Probes — the one bundle of optional observers an engine threads
//! through its modules.
//!
//! Every recorder is optional and boxed, so a bundle with nothing
//! attached is five null pointers (plus the watchdog period) and every
//! hook below is one branch.
//! Modules take `&mut Probes` in their single `tick` and record through
//! the no-op-when-absent helpers ([`Probes::span`], [`Probes::log`]) or
//! reach the checker directly ([`Probes::checker`]) when a rule needs
//! more than one report.
//!
//! The bundle also owns the one decision about when the *periodic*
//! observers fire — the FtVerify structural audit, the watchdog sweep
//! and the FtPulse sample. [`Probes::due`] answers "does it fire on this
//! cycle?" and [`Probes::next_boundary`] "what is the first cycle at or
//! after this one where any of them fires?", so the engine's tick and its
//! fast-forward windows read the same schedule and periodic observers
//! see identical state in fast-forwarded and tick-by-tick runs.
//!
//! # Examples
//!
//! ```
//! use f4t_sim::probes::{Probes, AUDIT_INTERVAL};
//! use f4t_sim::InvariantChecker;
//!
//! let mut probes = Probes::default();
//! assert_eq!(probes.next_boundary(5), None); // nothing periodic attached
//! probes.check = Some(Box::new(InvariantChecker::new()));
//! assert_eq!(probes.next_boundary(5), Some(AUDIT_INTERVAL));
//! assert_eq!(probes.next_boundary(AUDIT_INTERVAL), Some(AUDIT_INTERVAL));
//! ```

use crate::check::InvariantChecker;
use crate::flight::{FlightRecorder, FlightStage};
use crate::journal::{Journal, JournalKind, JournalModule};
use crate::pulse::PulseRecorder;
use crate::watchdog::Watchdog;

/// FtVerify structural-audit period. Per-cycle rules (ports, parity, RMW)
/// fire inline; the cross-module residency/LUT/conservation audit walks
/// every table, so it runs every `AUDIT_INTERVAL` cycles instead.
pub const AUDIT_INTERVAL: u64 = 64;

/// An observer that fires on a fixed cycle period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Periodic {
    /// FtVerify structural audit, every [`AUDIT_INTERVAL`] cycles.
    Audit,
    /// Health-watchdog sweep, every [`Probes::watchdog_interval`] cycles.
    Watchdog,
    /// FtPulse window sample, every [`PulseRecorder::interval`] cycles.
    Pulse,
}

impl Periodic {
    /// Every periodic observer.
    pub const ALL: [Periodic; 3] = [Periodic::Audit, Periodic::Watchdog, Periodic::Pulse];
}

/// The optional observers attached to one engine.
#[derive(Debug, Default)]
pub struct Probes {
    /// FtVerify cycle-level hazard checker.
    pub check: Option<Box<InvariantChecker>>,
    /// FtFlight per-flow latency-attribution recorder.
    pub flight: Option<Box<FlightRecorder>>,
    /// FtJournal causal event journal.
    pub journal: Option<Box<Journal>>,
    /// Online health watchdog.
    pub watchdog: Option<Box<Watchdog>>,
    /// Cycles between watchdog sweeps (0 is treated as 1).
    pub watchdog_interval: u64,
    /// FtPulse windowed time-series recorder.
    pub pulse: Option<Box<PulseRecorder>>,
}

impl Probes {
    /// The attached checker, if any.
    #[inline]
    pub fn checker(&mut self) -> Option<&mut InvariantChecker> {
        self.check.as_deref_mut()
    }

    /// Records an FtFlight span of `cycles` for `flow` in `stage`; no-op
    /// without a flight recorder.
    #[inline]
    pub fn span(&mut self, stage: FlightStage, flow: u32, cycles: u64) {
        if let Some(f) = self.flight.as_deref_mut() {
            f.record(stage, flow, cycles);
        }
    }

    /// Appends one FtJournal event; no-op without a journal.
    #[inline]
    pub fn log(
        &mut self,
        cycle: u64,
        module: JournalModule,
        kind: JournalKind,
        flow: u32,
        a: u64,
        b: u64,
    ) {
        if let Some(j) = self.journal.as_deref_mut() {
            j.record(cycle, module, kind, flow, a, b);
        }
    }

    /// The period of `p` in cycles, or `None` when its observer is not
    /// attached.
    #[inline]
    fn period(&self, p: Periodic) -> Option<u64> {
        match p {
            Periodic::Audit => self.check.as_ref().map(|_| AUDIT_INTERVAL),
            Periodic::Watchdog => self.watchdog.as_ref().map(|_| self.watchdog_interval.max(1)),
            Periodic::Pulse => self.pulse.as_ref().map(|p| p.interval()),
        }
    }

    /// Whether `p` is attached and fires on `cycle`.
    #[inline]
    pub fn due(&self, p: Periodic, cycle: u64) -> bool {
        self.period(p).is_some_and(|iv| cycle.is_multiple_of(iv))
    }

    /// The first cycle at or after `cycle` on which any attached periodic
    /// observer fires; `None` when none is attached. Fast-forward windows
    /// stop here so the observer runs on exactly the cycle it would run
    /// on tick by tick.
    #[inline]
    pub fn next_boundary(&self, cycle: u64) -> Option<u64> {
        Periodic::ALL
            .iter()
            .filter_map(|&p| self.period(p))
            .map(|iv| cycle.next_multiple_of(iv))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog::WatchdogConfig;

    /// Reference: each attached observer's period rounded up from
    /// `cycle` on its own, then the earliest of them.
    fn reference(
        cycle: u64,
        check: bool,
        watchdog: Option<u64>,
        pulse: Option<u64>,
    ) -> Option<u64> {
        let round_up = |iv: u64| {
            if cycle.is_multiple_of(iv) {
                cycle
            } else {
                (cycle / iv + 1) * iv
            }
        };
        let mut target: Option<u64> = None;
        let mut cap = |b: u64| target = Some(target.map_or(b, |t| t.min(b)));
        if check {
            cap(round_up(AUDIT_INTERVAL));
        }
        if let Some(iv) = watchdog {
            cap(round_up(iv));
        }
        if let Some(iv) = pulse {
            cap(round_up(iv));
        }
        target
    }

    fn probes(check: bool, watchdog: Option<u64>, pulse: Option<u64>) -> Probes {
        Probes {
            check: check.then(|| Box::new(InvariantChecker::new())),
            watchdog: watchdog.map(|_| Box::new(Watchdog::new(WatchdogConfig::default()))),
            watchdog_interval: watchdog.unwrap_or(0),
            pulse: pulse.map(|iv| Box::new(PulseRecorder::new(iv, 1))),
            ..Probes::default()
        }
    }

    #[test]
    fn next_boundary_is_the_earliest_round_up() {
        // Interval 1 is the engine's clamp for a zeroed config; 3, 100
        // and 4_097 are not multiples of AUDIT_INTERVAL.
        let intervals = [1u64, 3, 64, 100, 4_096, 4_097];
        let mut cycles: Vec<u64> = (0..300).collect();
        cycles.extend([4_095, 4_096, 4_097, 8_191, 8_192, 1 << 40, (1 << 40) + 1]);
        for mask in 0..8u32 {
            for &wd in &intervals {
                for &pi in &intervals {
                    let check = mask & 1 != 0;
                    let wd = (mask & 2 != 0).then_some(wd);
                    let pi = (mask & 4 != 0).then_some(pi);
                    let p = probes(check, wd, pi);
                    for &c in &cycles {
                        assert_eq!(
                            p.next_boundary(c),
                            reference(c, check, wd, pi),
                            "cycle {c}, check {check}, watchdog {wd:?}, pulse {pi:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn due_fires_exactly_on_boundaries() {
        let p = probes(true, Some(100), Some(3));
        for c in 0..1_000u64 {
            assert_eq!(p.due(Periodic::Audit, c), c % AUDIT_INTERVAL == 0, "audit @ {c}");
            assert_eq!(p.due(Periodic::Watchdog, c), c % 100 == 0, "watchdog @ {c}");
            assert_eq!(p.due(Periodic::Pulse, c), c % 3 == 0, "pulse @ {c}");
            let next = p.next_boundary(c).unwrap_or(u64::MAX);
            assert_eq!(next == c, Periodic::ALL.iter().any(|&q| p.due(q, c)), "@ {c}");
        }
        let none = Probes::default();
        assert!(Periodic::ALL.iter().all(|&q| !none.due(q, 0)));
    }

    #[test]
    fn zero_watchdog_interval_sweeps_every_cycle() {
        let p = probes(false, Some(0), None);
        assert_eq!(p.period(Periodic::Watchdog), Some(1));
        assert_eq!(p.next_boundary(17), Some(17));
    }

    #[test]
    fn helpers_are_no_ops_without_recorders() {
        let mut p = Probes::default();
        p.span(FlightStage::RxIngest, 0, 5);
        p.log(1, JournalModule::Host, JournalKind::HostEvent, 0, 0, 0);
        assert!(p.checker().is_none());

        p.flight = Some(Box::new(FlightRecorder::new(1)));
        p.journal = Some(Box::new(Journal::new(1)));
        p.span(FlightStage::RxIngest, 0, 5);
        p.log(1, JournalModule::Host, JournalKind::HostEvent, 0, 0, 0);
        assert_eq!(p.flight.as_ref().map(|f| f.spans_recorded()), Some(1));
        assert_eq!(p.journal.as_ref().map(|j| j.events_recorded()), Some(1));
    }
}
