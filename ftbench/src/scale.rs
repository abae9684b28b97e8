//! The `scale64k` workload: a bare `Engine` with 65,536 established
//! flows, each sending 256 B once against an ideal peer that returns
//! cumulative ACKs, then a 1 ms idle tail. It is the only workload with
//! TCB migration, DRAM residency and engine fast-forward.
//!
//! The loop reproduces `f4tperf --workload scale --size 256
//! --duration-ms 1` call for call, so at seed 0 the simulated cycles,
//! ticks executed and fast-forward windows equal that run's. One change:
//! the peer keeps the flows owed an ACK in a dirty list, sorted each
//! round, instead of scanning all flows every 64 cycles. It visits them
//! in the same ascending order, so the engine sees the same ACKs in the
//! same cycles.

use crate::derive;
use crate::layers::{self, Layers};
use crate::spans::{Clock, NoClock, Span, Tracer};
use crate::{Rep, Sim};
use f4t_core::{Engine, EngineConfig, EventKind, HostNotification};
use f4t_sim::{FlightStage, Histogram};
use f4t_tcp::{FlowId, FourTuple, Segment, SeqNum, TCP_BUFFER};
use std::net::Ipv4Addr;
use std::time::Instant;

/// Flows opened.
pub const FLOWS: usize = 65_536;
/// Bytes each flow sends.
const BYTES: u32 = 256;
/// Engine cycles per peer round.
const PUMP_CYCLES: u64 = 64;
/// Peer rounds between completion checks.
const PUMPS_PER_CHECK: usize = 256;
/// The idle tail after the last ACK: 1 ms at 250 MHz.
const TAIL_CYCLES: u64 = 250_000;
/// Set-ups timed per repetition.
const SETUPS: usize = 3;
/// Engine-core period.
const CYCLE_NS: u64 = 4;
/// Flows per source address in [`tuple_for`].
const PORTS: usize = 32_768;

/// Flow `i`'s ISN for `seed`. Seed 0 gives every flow ISN 0 (the
/// `f4tperf` run); any other seed places each flow's ISN pseudo-randomly
/// in [2^32 − 255, 2^32 − 1], so every flow's 256 B cross the
/// sequence-space wrap.
pub fn isn(seed: u64, i: usize) -> SeqNum {
    if seed == 0 {
        SeqNum::ZERO
    } else {
        SeqNum(u32::MAX - (splitmix64(seed.rotate_left(32) ^ i as u64) % 255) as u32)
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The 4-tuple of flow `i` (the `f4tperf` scale layout).
fn tuple_for(i: usize) -> FourTuple {
    let ip = Ipv4Addr::new(10, 0, (i / PORTS) as u8, 1);
    FourTuple::new(
        ip,
        1024 + (i % PORTS) as u16,
        Ipv4Addr::new(10, 0, 0, 2),
        80,
    )
}

/// Inverse of [`tuple_for`] for a segment the engine sent.
fn index_of(t: &FourTuple) -> usize {
    usize::from(t.src_ip.octets()[2]) * PORTS + usize::from(t.src_port - 1024)
}

struct Scale {
    e: Engine,
    flows: Vec<FlowId>,
    /// Flow index by engine flow id.
    index: Vec<u32>,
    isns: Vec<SeqNum>,
    targets: Vec<SeqNum>,
    /// Highest sequence owed a cumulative ACK, per flow.
    owed: Vec<Option<SeqNum>>,
    /// Flows with an ACK owed (exactly those with `owed` set), sorted
    /// before each round. `FlowSet::iter` would test all 65,536 bits per
    /// round, as costly as the scan this replaces.
    dirty: Vec<u32>,
    /// Flows whose `DataAcked` notification reached the target.
    acked: Vec<bool>,
    acked_count: usize,
    last_ack_cycle: u64,
}

impl Scale {
    fn setup<C: Clock>(c: &mut C, seed: u64, cfg: EngineConfig) -> Scale {
        let mut e = Engine::new(EngineConfig {
            max_flows: FLOWS,
            ..cfg
        });
        let mut flows = Vec::with_capacity(FLOWS);
        let mut index = vec![u32::MAX; FLOWS];
        let isns: Vec<SeqNum> = (0..FLOWS).map(|i| isn(seed, i)).collect();
        for (i, &start) in isns.iter().enumerate() {
            let m = c.mark();
            let f = e.open_established(tuple_for(i), start);
            c.leaf(Span::EngineOpen, m);
            let f = f.expect("the engine is sized for every flow");
            if index.len() <= f.0 as usize {
                index.resize(f.0 as usize + 1, u32::MAX);
            }
            index[f.0 as usize] = i as u32;
            flows.push(f);
        }
        Scale {
            e,
            flows,
            index,
            targets: isns.iter().map(|s| s.add(BYTES)).collect(),
            isns,
            owed: vec![None; FLOWS],
            dirty: Vec::new(),
            acked: vec![false; FLOWS],
            acked_count: 0,
            last_ack_cycle: 0,
        }
    }

    /// One peer round: 64 engine cycles, then ACK everything received
    /// and consume the host notifications.
    fn pump<C: Clock>(&mut self, c: &mut C) {
        let m = c.mark();
        self.e.run(PUMP_CYCLES);
        c.leaf(Span::EngineRun, m);
        let root = c.begin();
        loop {
            let m = c.mark();
            let seg = self.e.pop_tx();
            c.leaf(Span::EngineIo, m);
            let Some(seg) = seg else { break };
            if seg.has_payload() {
                let i = index_of(&seg.tuple);
                let end = seg.seq_end();
                match self.owed[i] {
                    Some(h) => self.owed[i] = Some(h.max_seq(end)),
                    None => {
                        self.owed[i] = Some(end);
                        self.dirty.push(i as u32);
                    }
                }
            }
        }
        // Ascending order, as the full scan visited them.
        self.dirty.sort_unstable();
        let (e, owed, isns) = (&mut self.e, &mut self.owed, &self.isns);
        self.dirty.retain(|&i| {
            let i = i as usize;
            let h = owed[i].expect("a dirty flow is owed an ACK");
            let ack = Segment::pure_ack(tuple_for(i).reversed(), isns[i], h, TCP_BUFFER);
            let m = c.mark();
            let pushed = e.push_rx(ack);
            c.leaf(Span::EngineIo, m);
            if pushed {
                owed[i] = None;
            }
            !pushed
        });
        loop {
            let m = c.mark();
            let n = self.e.pop_notification();
            c.leaf(Span::EngineIo, m);
            let Some(n) = n else { break };
            if let HostNotification::DataAcked { flow, upto } = n {
                let i = self.index[flow.0 as usize] as usize;
                if upto == self.targets[i] && !self.acked[i] {
                    self.acked[i] = true;
                    self.acked_count += 1;
                    self.last_ack_cycle = self.e.cycles();
                }
            }
        }
        c.end(Span::HarnessPeer, root);
    }

    /// Per flow, whether its `snd_una` reached its target (the `f4tperf`
    /// completion test).
    fn acked_by_tcb(&self) -> Vec<bool> {
        self.flows
            .iter()
            .zip(&self.targets)
            .map(|(&f, &t)| self.e.peek_tcb(f).is_some_and(|tcb| tcb.snd_una == t))
            .collect()
    }

    fn run<C: Clock>(&mut self, c: &mut C) {
        let budget = FLOWS as u64 * 20_000 + 10_000_000;
        let mut issued = 0;
        while issued < FLOWS && self.e.cycles() < budget {
            let m = c.mark();
            let ok = self.e.push_host(
                self.flows[issued],
                EventKind::SendReq {
                    req: self.targets[issued],
                },
            );
            c.leaf(Span::EngineIo, m);
            if ok {
                issued += 1;
            } else {
                self.pump(c);
            }
        }
        let mut completed = false;
        while self.e.cycles() < budget && !completed {
            for _ in 0..PUMPS_PER_CHECK {
                self.pump(c);
            }
            // The notification count gates the O(flows) TCB check, which
            // then runs once instead of every 256 rounds.
            let root = c.begin();
            completed =
                self.acked_count == FLOWS && derive::flows_not_acked(&self.acked_by_tcb()) == 0;
            c.end(Span::HarnessPeer, root);
        }
        let m = c.mark();
        self.e.run(TAIL_CYCLES);
        c.leaf(Span::EngineRun, m);
    }

    fn outcome(&self) -> Sim {
        let reg = self.e.telemetry();
        let (retransmissions, dropped_unknown) = layers::clean_link_counts(&reg);
        let mut counts = Layers::new();
        layers::engine_counts(&reg, self.e.config().num_fpcs, &mut counts);
        let drain_ns = self.last_ack_cycle * CYCLE_NS;
        let failed =
            derive::flows_not_acked(&self.acked_by_tcb()).max((FLOWS - self.acked_count) as u64);
        Sim {
            span_cycles: self.e.cycles(),
            attempted: FLOWS as u64,
            failed,
            mrps: derive::mrps(self.acked_count as u64, drain_ns.max(1)),
            goodput_gbps: derive::gbps(self.acked_count as u64 * u64::from(BYTES), drain_ns.max(1)),
            latency: None,
            drain_us: Some(drain_ns as f64 / 1e3),
            cpu_cycles_per_req: None,
            retransmissions,
            dropped_unknown,
            counts,
            fingerprint: format!(
                "{}|{:?}|{}",
                layers::without_flight(&reg),
                self.e.stats(),
                self.last_ack_cycle
            ),
        }
    }
}

/// One timed repetition.
pub fn timed(seed: u64) -> Rep {
    let (mut s, setup_s) = crate::setup_median(SETUPS, || {
        Scale::setup(&mut NoClock, seed, EngineConfig::reference())
    });
    let t = Instant::now();
    s.run(&mut NoClock);
    let run_s = t.elapsed().as_secs_f64();
    Rep {
        setup_s,
        run_s,
        sim: s.outcome(),
        layers: Layers::new(),
    }
}

/// One traced repetition, with spans and FtFlight attached.
pub fn traced(seed: u64) -> Rep {
    let mut tracer = Tracer::calibrated();
    let cfg = EngineConfig {
        flight: true,
        ..EngineConfig::reference()
    };
    let t = Instant::now();
    let mut s = Scale::setup(&mut tracer, seed, cfg);
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    s.run(&mut tracer);
    let run_s = t.elapsed().as_secs_f64();

    let cycles = s.e.cycles() as f64;
    let mut l = Layers::new();
    l.insert(
        "engine.run.self_ns",
        tracer.self_ns(Span::EngineRun) / cycles,
    );
    l.insert("engine.io.self_ns", tracer.self_ns(Span::EngineIo) / cycles);
    l.insert(
        "engine.open.ns_per_flow",
        tracer.total_ns(Span::EngineOpen) / FLOWS as f64,
    );
    l.insert(
        "harness.peer.share",
        tracer.self_ns(Span::HarnessPeer) / (run_s * 1e9 - tracer.clock_ns()),
    );
    let stages: Vec<Histogram> = FlightStage::ALL
        .iter()
        .map(|&st| {
            s.e.flight()
                .map_or_else(Histogram::new, |f| f.stage_histogram(st).clone())
        })
        .collect();
    layers::flight_p99(&stages, &mut l);
    layers::clock_cost(&tracer, &mut l);
    crate::write_spans(&tracer);
    Rep {
        setup_s,
        run_s,
        sim: s.outcome(),
        layers: l,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_index_round_trips() {
        for i in [0, 1, PORTS - 1, PORTS, FLOWS - 1] {
            assert_eq!(index_of(&tuple_for(i)), i);
        }
    }

    #[test]
    fn isn_placement() {
        assert_eq!(isn(0, 12_345), SeqNum::ZERO);
        assert_eq!(isn(7, 3), isn(7, 3));
        let mut distinct = std::collections::BTreeSet::new();
        for seed in [1, 7, u64::MAX] {
            for i in [0, 1, 254, 255, PORTS, FLOWS - 1] {
                let start = isn(seed, i);
                assert!(
                    start.0 > u32::MAX - BYTES,
                    "seed {seed} flow {i}: {start:?}"
                );
                assert!(start.add(BYTES).0 < BYTES, "256 B cross 2^32");
                distinct.insert(start.0);
            }
        }
        assert!(distinct.len() > 1, "ISNs vary with seed and flow");
    }
}
