//! Micro-benchmarks for FtEngine components: FPU processing, FPC event
//! handling, whole-engine ticks, the ablation knobs the design document
//! calls out (coalescing on/off, FPC count, scan policy, TCB-cache
//! size), and the FtScope telemetry overhead check. Uses the in-tree
//! [`f4t_bench::micro`] harness.

use f4t_bench::micro::bench;
use f4t_core::fpc::{Fpc, FpcOutput, ScanPolicy};
use f4t_core::fpu::{process, EventView};
use f4t_core::memory_manager::{MemoryManager, MmOutput};
use f4t_core::{Engine, EngineConfig, EventKind, FlowEvent};
use f4t_mem::DramKind;
use f4t_sim::Probes;
use f4t_tcp::{CcAlgorithm, FlowId, FourTuple, NewReno, SeqNum, Tcb, MSS};
use std::hint::black_box;
use std::sync::Arc;

fn bench_fpu_process() {
    for algo in [CcAlgorithm::NewReno, CcAlgorithm::Cubic, CcAlgorithm::Vegas] {
        let cc = algo.instance();
        let mut tcb = Tcb::established(FlowId(1), FourTuple::default(), SeqNum(0));
        cc.init(&mut tcb);
        let mut now = 0u64;
        bench(&format!("fpu/process/{algo}"), move || {
            now += 100;
            let ev = EventView {
                req: Some(tcb.snd_nxt.add(512)),
                ack: Some(tcb.snd_una.add(tcb.flight_size().min(MSS))),
                ..Default::default()
            };
            black_box(process(cc, &mut tcb, &ev, now, MSS))
        });
    }
}

fn bench_fpc_saturated() {
    for policy in [ScanPolicy::SkipIdle, ScanPolicy::FullIteration] {
        let slots = 32;
        let mut fpc = Fpc::new(0, slots, Arc::new(NewReno), None, MSS, policy);
        for i in 0..slots as u32 {
            let mut t = Tcb::established(FlowId(i), FourTuple::default(), SeqNum(0));
            t.snd_wnd = u32::MAX / 2;
            t.cwnd = u32::MAX / 2;
            t.req = t.req.add(1 << 30);
            fpc.push_tcb(t, EventView::default());
        }
        let mut out = FpcOutput::default();
        let mut probes = Probes::default();
        let mut cycle = 0u64;
        bench(&format!("fpc/saturated_tick/{policy:?}"), move || {
            out.tx.clear();
            out.outcomes.clear();
            out.evicted.clear();
            out.installed.clear();
            fpc.tick(cycle, cycle * 4, true, &mut out, &mut probes);
            cycle += 1;
            black_box(out.tx.len())
        });
    }
}

fn bench_engine_tick() {
    for fpcs in [1usize, 8] {
        let cfg = EngineConfig {
            num_fpcs: fpcs,
            lut_groups: (fpcs / 2).max(1),
            ..EngineConfig::reference()
        };
        let mut e = Engine::new(cfg);
        bench(&format!("engine/tick/idle_fpcs/{fpcs}"), move || {
            e.tick();
            black_box(e.cycles())
        });
    }
    let mut e = Engine::new(EngineConfig::reference());
    let flow = e.open_established(FourTuple::default(), SeqNum(0)).unwrap();
    let mut req = SeqNum(0);
    bench("engine/tick/busy_bulk_8fpc", move || {
        req = req.add(128);
        e.push_host(flow, EventKind::SendReq { req });
        e.tick();
        while e.pop_tx().is_some() {}
        black_box(e.cycles())
    });
}

fn bench_coalescing_ablation() {
    // Ablation: event intake cost with and without coalescing under a
    // same-flow burst (the §4.4.1 design choice).
    for coalescing in [true, false] {
        let cfg = EngineConfig {
            num_fpcs: 1,
            lut_groups: 1,
            coalescing,
            ..EngineConfig::reference()
        };
        let mut e = Engine::new(cfg);
        let flow = e.open_established(FourTuple::default(), SeqNum(0)).unwrap();
        let mut req = SeqNum(0);
        bench(&format!("engine/coalescing_ablation/same_flow_burst/{coalescing}"), move || {
            for _ in 0..4 {
                req = req.add(64);
                e.push_event(FlowEvent::new(flow, EventKind::SendReq { req }, e.now_ns()));
            }
            e.tick();
            while e.pop_tx().is_some() {}
            black_box(e.stats().events_coalesced)
        });
    }
}

fn bench_memory_manager() {
    for (kind, sets) in [(DramKind::Ddr4, 64usize), (DramKind::Hbm, 64), (DramKind::Ddr4, 4096)] {
        let mut mm = MemoryManager::new(kind, sets);
        for i in 0..1024u32 {
            mm.accept_eviction(Tcb::established(FlowId(i), FourTuple::default(), SeqNum(0)));
        }
        let mut out = MmOutput::default();
        let mut probes = Probes::default();
        for c in 0..4096 {
            mm.tick(&mut out, c, &mut probes);
        }
        let mut i = 0u32;
        let mut ptr = 0u32;
        bench(&format!("memory_manager/event_handling/{kind}/sets/{sets}"), move || {
            i = (i + 1) % 1024;
            ptr += 16;
            if mm.can_accept_event() {
                mm.push_event(FlowEvent::new(FlowId(i), EventKind::SendReq { req: SeqNum(ptr) }, 0));
            }
            out.swap_in_requests.clear();
            out.evict_done.clear();
            mm.tick(&mut out, 0, &mut probes);
            black_box(mm.events_handled())
        });
    }
}

/// FtScope acceptance check: a busy engine cycle with tracing enabled
/// must stay within ~10 % of the same cycle with telemetry idle. The
/// module counters themselves are always on (plain u64 adds); the only
/// conditional cost is the trace ring, so this compares trace-off vs a
/// 64 Ki-event ring under bulk traffic and prints the ratio.
fn bench_telemetry_overhead() {
    let mut results = [0.0f64; 2];
    for (slot, trace_depth) in [(0usize, 0usize), (1, 65_536)] {
        let mut e = Engine::new(EngineConfig::reference());
        e.set_trace_capacity(trace_depth);
        let flow = e.open_established(FourTuple::default(), SeqNum(0)).unwrap();
        let mut req = SeqNum(0);
        let label = if trace_depth == 0 { "off" } else { "trace_64k" };
        results[slot] = bench(&format!("engine/telemetry_overhead/{label}"), move || {
            req = req.add(128);
            e.push_host(flow, EventKind::SendReq { req });
            e.tick();
            while e.pop_tx().is_some() {}
            black_box(e.cycles())
        });
    }
    println!(
        "engine/telemetry_overhead: ratio {:.3}x (trace on vs off)",
        results[1] / results[0]
    );
}

fn main() {
    bench_fpu_process();
    bench_fpc_saturated();
    bench_engine_tick();
    bench_coalescing_ablation();
    bench_memory_manager();
    bench_telemetry_overhead();
}
