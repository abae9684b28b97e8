//! Determinism regression test.
//!
//! The simulator's whole verification story (FtVerify, the equivalence
//! contract, the figure harnesses) rests on runs being a pure function
//! of (seed, config). This test pins that down twice over:
//!
//!   1. **Within a process**: two fresh `Engine` pairs driven through an
//!      identical fixed schedule must produce byte-identical Chrome
//!      traces and telemetry snapshots.
//!   2. **Across commits**: an FNV-1a digest of those artifacts is
//!      checked against `tests/golden/determinism.digest`. Any drift —
//!      an accidental HashMap iteration, a reordered tick phase, a new
//!      metric — fails with a line-level diff summary against the
//!      stored golden telemetry.
//!
//! Intentional behavior changes regenerate the goldens with
//! `UPDATE_GOLDEN=1 cargo test --test determinism`.

use f4t::core::{Engine, EngineConfig, EventKind, HostNotification};
use f4t::tcp::{FourTuple, SeqNum};
use std::net::Ipv4Addr;
use std::path::PathBuf;

/// Chrome trace + telemetry for both sides of one scripted run.
#[derive(PartialEq)]
struct Artifacts {
    traces: [String; 2],
    telemetry: [String; 2],
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl Artifacts {
    fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for s in self.traces.iter().chain(self.telemetry.iter()) {
            for &b in s.as_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }
}

fn exchange(a: &mut Engine, b: &mut Engine, steps: u64) {
    for _ in 0..steps {
        a.run(48);
        b.run(48);
        while let Some(seg) = a.pop_tx() {
            b.push_rx(seg);
        }
        while let Some(seg) = b.pop_tx() {
            a.push_rx(seg);
        }
        for e in [&mut *a, &mut *b] {
            while let Some(n) = e.pop_notification() {
                if let HostNotification::DataReceived { flow, upto } = n {
                    e.push_host(flow, EventKind::RecvConsumed { consumed: upto });
                }
            }
        }
    }
}

/// The fixed scenario: bulk + echo over tiny FPCs (forcing migration),
/// one mid-run close, and an idle tail where fast-forward engages. No
/// RNG — the schedule itself is the seed.
fn run_once() -> Artifacts {
    let cfg = EngineConfig {
        num_fpcs: 2,
        lut_groups: 2,
        flows_per_fpc: 4,
        check: true,
        ..EngineConfig::reference()
    };
    let mut a = Engine::new(cfg.clone());
    let mut b = Engine::new(cfg);
    a.set_trace_capacity(1024);
    b.set_trace_capacity(1024);
    let mut pairs = Vec::new();
    for p in 0..12u16 {
        let t = FourTuple::new(
            Ipv4Addr::new(10, 0, 0, 1),
            40_000 + p,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        );
        let fa = a.open_established(t, SeqNum(0)).unwrap();
        let fb = b.open_established(t.reversed(), SeqNum(0)).unwrap();
        pairs.push((fa, fb, SeqNum(0), SeqNum(0), true));
    }
    exchange(&mut a, &mut b, 4);
    for round in 0..40u32 {
        let i = (round as usize) % pairs.len();
        let (fa, fb, req_a, req_b, open) = &mut pairs[i];
        if *open {
            let acked = a.peek_tcb(*fa).map(|t| t.snd_una).unwrap_or(*req_a);
            let add = 1024 + (round * 97) % 2048;
            if req_a.since(acked).saturating_add(add) <= f4t::tcp::TCP_BUFFER {
                *req_a = req_a.add(add);
                a.push_host(*fa, EventKind::SendReq { req: *req_a });
            }
            if round % 3 == 0 {
                let acked = b.peek_tcb(*fb).map(|t| t.snd_una).unwrap_or(*req_b);
                let add = 128 + (round * 31) % 256;
                if req_b.since(acked).saturating_add(add) <= f4t::tcp::TCP_BUFFER {
                    *req_b = req_b.add(add);
                    b.push_host(*fb, EventKind::SendReq { req: *req_b });
                }
            }
        }
        if round == 25 {
            let (fa, fb, _, _, open) = &mut pairs[5];
            *open = false;
            a.push_host(*fa, EventKind::Close);
            b.push_host(*fb, EventKind::Close);
        }
        exchange(&mut a, &mut b, 1 + u64::from(round % 3));
    }
    exchange(&mut a, &mut b, 200);
    assert_eq!(a.check_total_violations() + b.check_total_violations(), 0);
    Artifacts {
        traces: [a.export_chrome_trace(), b.export_chrome_trace()],
        telemetry: [a.telemetry().to_json(), b.telemetry().to_json()],
    }
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Line-level diff summary: which metrics changed, which are new, which
/// vanished. Trace drift can't be diffed against a digest, so it is
/// reported by length.
fn diff_summary(golden_telem: &str, got: &Artifacts) -> String {
    let mut out = String::new();
    let current = format!("{}\n=== side b ===\n{}", got.telemetry[0], got.telemetry[1]);
    let golden: Vec<&str> = golden_telem.lines().collect();
    let cur: Vec<&str> = current.lines().collect();
    for l in &cur {
        if !golden.contains(l) {
            out.push_str(&format!("  + {l}\n"));
        }
    }
    for l in &golden {
        if !cur.contains(l) {
            out.push_str(&format!("  - {l}\n"));
        }
    }
    if out.is_empty() {
        out.push_str(&format!(
            "  telemetry identical; drift is in the Chrome traces (lengths {} / {})\n",
            got.traces[0].len(),
            got.traces[1].len()
        ));
    }
    out
}

#[test]
fn runs_are_deterministic_and_match_golden_digest() {
    let r1 = run_once();
    let r2 = run_once();
    for side in 0..2 {
        assert_eq!(
            r1.telemetry[side], r2.telemetry[side],
            "two fresh engines diverged on telemetry (side {side}) — nondeterminism!"
        );
        assert_eq!(
            fnv1a(r1.traces[side].as_bytes()),
            fnv1a(r2.traces[side].as_bytes()),
            "two fresh engines diverged on the Chrome trace (side {side}) — nondeterminism!"
        );
    }

    let dir = golden_dir();
    let digest_path = dir.join("determinism.digest");
    let telem_path = dir.join("determinism_telemetry.txt");
    let digest = format!("{:016x}", r1.digest());
    let telem = format!("{}\n=== side b ===\n{}", r1.telemetry[0], r1.telemetry[1]);

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&digest_path, &digest).unwrap();
        std::fs::write(&telem_path, &telem).unwrap();
        eprintln!("golden files regenerated in {}", dir.display());
        return;
    }

    let golden_digest = std::fs::read_to_string(&digest_path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run UPDATE_GOLDEN=1 once", digest_path.display()));
    let golden_telem = std::fs::read_to_string(&telem_path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run UPDATE_GOLDEN=1 once", telem_path.display()));
    assert_eq!(
        golden_digest.trim(),
        digest,
        "deterministic-run digest drifted from the golden.\n\
         If this change is intentional, regenerate with UPDATE_GOLDEN=1.\n\
         Diff summary (+ current / - golden):\n{}",
        diff_summary(&golden_telem, &r1)
    );
}

/// FtTurbo pool-size invariance: the same fixed shard set, each shard
/// run to completion through [`run_shards`](f4t::core::run_shards), must
/// produce byte-identical artifacts — round counts, telemetry, Chrome
/// traces and journal digests — whether the worker pool holds 1 thread
/// (the inline reference sequence) or several. Shards are deliberately
/// uneven (flow counts and tail lengths differ) so completion order
/// varies and a scheduling-order dependence would surface.
#[test]
fn parallel_pool_size_does_not_change_artifacts() {
    use f4t::core::{fold_digests, run_shards};
    use f4t::tcp::FlowId;

    struct Shard {
        a: Engine,
        b: Engine,
        pairs: Vec<(FlowId, FlowId, SeqNum)>,
        tail: u64,
        rounds: u64,
    }

    const ACTIVE_ROUNDS: u64 = 24;

    fn make_shards() -> Vec<Shard> {
        (0..4u16)
            .map(|s| {
                let cfg = EngineConfig {
                    num_fpcs: 2,
                    lut_groups: 2,
                    flows_per_fpc: 4,
                    check: true,
                    journal: true,
                    journal_sample: 1,
                    pulse: true,
                    pulse_interval: 256,
                    pulse_flow_sample: 1,
                    ..EngineConfig::reference()
                };
                let mut a = Engine::new(cfg.clone());
                let mut b = Engine::new(cfg);
                a.set_trace_capacity(512);
                b.set_trace_capacity(512);
                let mut pairs = Vec::new();
                for p in 0..(6 + s % 3) {
                    let t = FourTuple::new(
                        Ipv4Addr::new(10, 0, 1 + s as u8, 1),
                        50_000 + p,
                        Ipv4Addr::new(10, 0, 0, 2),
                        80,
                    );
                    let fa = a.open_established(t, SeqNum(0)).unwrap();
                    let fb = b.open_established(t.reversed(), SeqNum(0)).unwrap();
                    pairs.push((fa, fb, SeqNum(0)));
                }
                Shard { a, b, pairs, tail: 20 + u64::from(s) * 9, rounds: 0 }
            })
            .collect()
    }

    fn step(sh: &mut Shard, round: u64) -> bool {
        if round < ACTIVE_ROUNDS {
            let i = (round as usize) % sh.pairs.len();
            let (fa, _, req_a) = &mut sh.pairs[i];
            let acked = sh.a.peek_tcb(*fa).map(|t| t.snd_una).unwrap_or(*req_a);
            let add = 512 + (round as u32 * 73) % 1024;
            if req_a.since(acked).saturating_add(add) <= f4t::tcp::TCP_BUFFER {
                *req_a = req_a.add(add);
                sh.a.push_host(*fa, EventKind::SendReq { req: *req_a });
            }
            exchange(&mut sh.a, &mut sh.b, 1 + round % 3);
            true
        } else if round < ACTIVE_ROUNDS + sh.tail {
            exchange(&mut sh.a, &mut sh.b, 2);
            round + 1 < ACTIVE_ROUNDS + sh.tail
        } else {
            false
        }
    }

    /// (telemetry, chrome traces, journal digest a, journal digest b,
    /// pulse series a+b, pulse digest a, pulse digest b).
    type ShardArtifacts = (String, String, u64, u64, String, u64, u64);

    fn run(pool: usize) -> (Vec<u64>, Vec<ShardArtifacts>, u64) {
        let mut shards = make_shards();
        run_shards(&mut shards, pool, |sh| {
            while step(sh, sh.rounds) {
                sh.rounds += 1;
            }
            sh.rounds += 1;
        });
        let rounds: Vec<u64> = shards.iter().map(|sh| sh.rounds).collect();
        let arts: Vec<_> = shards
            .iter()
            .map(|sh| {
                assert_eq!(
                    sh.a.check_total_violations() + sh.b.check_total_violations(),
                    0,
                    "checker fired inside a shard"
                );
                (
                    format!("{}{}", sh.a.telemetry().to_json(), sh.b.telemetry().to_json()),
                    format!("{}{}", sh.a.export_chrome_trace(), sh.b.export_chrome_trace()),
                    sh.a.journal_digest(),
                    sh.b.journal_digest(),
                    format!(
                        "{}{}",
                        sh.a.pulse_json().unwrap_or_default(),
                        sh.b.pulse_json().unwrap_or_default()
                    ),
                    sh.a.pulse_digest(),
                    sh.b.pulse_digest(),
                )
            })
            .collect();
        let merged = fold_digests(
            arts.iter().flat_map(|&(_, _, ja, jb, _, pa, pb)| [ja, jb, pa, pb]),
        );
        (rounds, arts, merged)
    }

    let reference = run(1);
    let expected: Vec<u64> = (0..4).map(|s| ACTIVE_ROUNDS + 20 + s * 9).collect();
    assert_eq!(reference.0, expected, "each shard runs its own active phase and tail");
    for pool in [2, 4] {
        let got = run(pool);
        assert_eq!(got.0, reference.0, "pool of {pool} changed a shard's round count");
        for (s, (g, r)) in got.1.iter().zip(reference.1.iter()).enumerate() {
            assert_eq!(g.0, r.0, "pool of {pool}: shard {s} telemetry diverged");
            assert_eq!(g.1, r.1, "pool of {pool}: shard {s} Chrome trace diverged");
            assert_eq!((g.2, g.3), (r.2, r.3), "pool of {pool}: shard {s} journal digest diverged");
            assert_eq!(g.4, r.4, "pool of {pool}: shard {s} pulse series diverged");
            assert_eq!((g.5, g.6), (r.5, r.6), "pool of {pool}: shard {s} pulse digest diverged");
        }
        assert_eq!(got.2, reference.2, "pool of {pool}: merged digest diverged");
    }
}
