//! FtTurbo parallel execution: independent shards, each run to
//! completion on a worker thread.
//!
//! A workload is split into N independent shards (each owning its own
//! [`Engine`](crate::Engine), or any other `Send` state). Shards never
//! exchange data, so there is nothing to synchronise while they run:
//! [`run_shards`] hands each worker a contiguous chunk of shards and
//! joins them at the end. The worker-pool size changes *wall-clock
//! only*:
//!
//! * each shard is run by exactly one thread, start to finish, so it
//!   executes the same instruction stream whatever the pool size;
//! * merged artifacts (telemetry, journals, digests) are folded in
//!   fixed shard order *after* the run ([`fold_digests`]), never
//!   concurrently.
//!
//! So a pool of 1 and a pool of N produce byte-identical output — the
//! property `tests/determinism.rs` pins.

/// Runs `run` once on every shard, each to completion, on up to
/// `threads` workers.
///
/// Shards are split into contiguous chunks, one scoped thread per
/// chunk; `threads` is clamped to `[1, shard_count]`. A pool of 1 runs
/// the shards inline on the caller's thread, in order — the reference
/// sequence every larger pool reproduces.
///
/// # Examples
///
/// ```
/// use f4t_core::parallel::run_shards;
///
/// // Four shards, each with its own series; pool size must not change
/// // the result.
/// let run = |threads: usize| {
///     let mut shards = vec![1u64, 2, 3, 4];
///     run_shards(&mut shards, threads, |acc| {
///         for round in 0..10 {
///             *acc = acc.wrapping_mul(31).wrapping_add(round);
///         }
///     });
///     shards
/// };
/// assert_eq!(run(1), run(4));
/// ```
pub fn run_shards<S: Send>(shards: &mut [S], threads: usize, run: impl Fn(&mut S) + Sync) {
    let threads = threads.clamp(1, shards.len().max(1));
    if threads == 1 {
        shards.iter_mut().for_each(run);
        return;
    }
    let chunk = shards.len().div_ceil(threads);
    let run = &run;
    std::thread::scope(|scope| {
        for chunk in shards.chunks_mut(chunk) {
            scope.spawn(move || chunk.iter_mut().for_each(run));
        }
    });
}

/// Folds per-shard digests into one merged digest in fixed shard order
/// (FNV-1a over the little-endian digest bytes). Used so "one digest for
/// the whole run" is well-defined and thread-count independent.
pub fn fold_digests(parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for b in part.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use f4t_sim::SimRng;
    use std::thread::{self, ThreadId};

    /// A shard doing data-dependent pseudo-random work of a
    /// shard-specific length — exercises uneven finish order.
    struct Work {
        rng: SimRng,
        acc: u64,
        rounds: u64,
        runs: u32,
    }

    fn shards() -> Vec<Work> {
        (0..7u64)
            .map(|i| Work {
                rng: SimRng::new(0x7EAD_0000 + i),
                acc: 0,
                rounds: 3 + (i * 5) % 11,
                runs: 0,
            })
            .collect()
    }

    fn run(threads: usize) -> Vec<(u64, u32)> {
        let mut shards = shards();
        run_shards(&mut shards, threads, |w| {
            w.runs += 1;
            for round in 0..w.rounds {
                w.acc = w.acc.wrapping_add(w.rng.next_u64() ^ round);
            }
        });
        shards.iter().map(|w| (w.acc, w.runs)).collect()
    }

    #[test]
    fn pool_size_does_not_change_results() {
        let reference = run(1);
        assert!(reference.iter().all(|&(_, runs)| runs == 1), "each shard runs exactly once");
        for threads in [2, 3, 7, 16] {
            assert_eq!(run(threads), reference, "pool of {threads} diverged");
        }
    }

    #[test]
    fn empty_slice_and_zero_threads() {
        let mut empty: Vec<u64> = Vec::new();
        run_shards(&mut empty, 4, |_| unreachable!("no shard to run"));

        // threads = 0 clamps to 1: every shard runs inline, in order.
        let caller = thread::current().id();
        let mut seen: Vec<Option<ThreadId>> = vec![None; 3];
        run_shards(&mut seen, 0, |s| *s = Some(thread::current().id()));
        assert!(seen.iter().all(|&s| s == Some(caller)));
    }

    #[test]
    fn fold_digests_is_order_sensitive_and_stable() {
        let a = fold_digests([1, 2, 3]);
        assert_eq!(a, fold_digests([1, 2, 3]), "stable");
        assert_ne!(a, fold_digests([3, 2, 1]), "fixed shard order matters");
        assert_ne!(fold_digests([]), fold_digests([0]), "empty differs from zero");
    }
}
