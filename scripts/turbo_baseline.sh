#!/usr/bin/env sh
# FtTurbo wall-clock baseline (DESIGN.md section 12).
#
# Measures the 64K-connection scale scenario in two configurations and
# records both against the committed pre-FtTurbo reference:
#
#   slab_only    --threads 1: single engine on the struct-of-arrays hot
#                state (slab scheduler/FPC/memory-manager layout). Any
#                gain over the pre-FtTurbo reference is pure data-layout.
#   slab_threads --threads <host cpus>: the flow range sharded across
#                one engine per thread, each shard run to completion.
#                Speedup over slab_only is the threading win and scales
#                with host cores (a 1-core host shows none).
#
# Wall-clock is machine-dependent, so the committed numbers are a
# record, not a gate — the byte-identity guarantees are gated by
# tests/determinism.rs and tests/fastforward_equiv.rs instead, and
# cycle-exact perf by scripts/perf_gate.sh.
#
# Usage:
#   sh scripts/turbo_baseline.sh             measure (best-of-3) and
#                                            rewrite results/turbo_baseline.json
#   sh scripts/turbo_baseline.sh --smoke     one small iteration of both
#                                            paths, exit status only (no
#                                            JSON rewrite, no budget) —
#                                            what scripts/verify.sh runs
set -eu

cd "$(dirname "$0")/.."

# Pre-FtTurbo reference for SCALE below on the machine that produced
# results/turbo_baseline.json: HashMap-based hot state, single engine
# (commit before the slab refactor). Re-measure when moving machines.
PRE_PR_WALL_MS=1900

SCALE="--workload scale --flows 65536 --size 256 --duration-ms 1"
SMOKE="--workload scale --flows 2048 --size 256 --duration-ms 1"
REPS=3

cargo build --release -q -p f4t-bench
PERF=./target/release/f4tperf

cpus=$( (nproc || sysctl -n hw.ncpu || echo 1) 2>/dev/null | head -n 1 )

now_ms() {
    echo $(( $(date +%s%N) / 1000000 ))
}

# best_ms <args...> : best-of-$REPS wall-clock ms for one f4tperf run.
best_ms() {
    best=""
    i=0
    while [ "$i" -lt "$REPS" ]; do
        t0=$(now_ms)
        $PERF "$@" >/dev/null
        t1=$(now_ms)
        dt=$(( t1 - t0 ))
        if [ -z "$best" ] || [ "$dt" -lt "$best" ]; then best=$dt; fi
        i=$(( i + 1 ))
    done
    echo "$best"
}

if [ "${1:-}" = "--smoke" ]; then
    # One iteration of each path; both must exit 0 with clean merged
    # output. No wall-clock budget: CI and laptops vary too much.
    t0=$(now_ms)
    $PERF $SMOKE --threads 1 --check >/dev/null
    t1=$(now_ms)
    $PERF $SMOKE --threads 4 --check --journal >/dev/null
    t2=$(now_ms)
    echo "turbo smoke: threads=1 $(( t1 - t0 ))ms, threads=4 $(( t2 - t1 ))ms: OK"
    exit 0
fi

echo "measuring slab_only ($SCALE --threads 1, best-of-$REPS)..." >&2
slab=$(best_ms $SCALE --threads 1)
echo "  slab_only: ${slab}ms" >&2
echo "measuring slab_threads (--threads $cpus, best-of-$REPS)..." >&2
threaded=$(best_ms $SCALE --threads "$cpus")
echo "  slab_threads: ${threaded}ms" >&2

slab_speedup=$(awk "BEGIN { printf \"%.2f\", $PRE_PR_WALL_MS / $slab }")
thread_speedup=$(awk "BEGIN { printf \"%.2f\", $slab / $threaded }")
total_speedup=$(awk "BEGIN { printf \"%.2f\", $PRE_PR_WALL_MS / $threaded }")

{
    printf '{\n'
    printf ' "_note": "FtTurbo wall-clock record for the 64K scale scenario: pre-FtTurbo reference (HashMap hot state, single engine) vs the slab layout on one thread vs the slab layout sharded across one engine per host cpu, each shard run to completion. Wall-clock is machine-dependent -- byte-identity is gated by tests/determinism.rs and tests/fastforward_equiv.rs, cycle-exact perf by scripts/perf_gate.sh. The threading row only improves on multi-core hosts. Regenerate with: sh scripts/turbo_baseline.sh",\n'
    printf ' "_params": "%s",\n' "$SCALE"
    printf ' "host_cpus": %s,\n' "$cpus"
    printf ' "reps": %s,\n' "$REPS"
    printf ' "pre_pr": { "wall_ms": %s, "hot_state": "HashMap", "engines": 1 },\n' "$PRE_PR_WALL_MS"
    printf ' "slab_only": { "wall_ms": %s, "hot_state": "slab", "engines": 1, "threads": 1, "speedup_vs_pre_pr": %s },\n' "$slab" "$slab_speedup"
    printf ' "slab_threads": { "wall_ms": %s, "hot_state": "slab", "engines": %s, "threads": %s, "speedup_vs_slab_only": %s, "speedup_vs_pre_pr": %s }\n' "$threaded" "$cpus" "$cpus" "$thread_speedup" "$total_speedup"
    printf '}\n'
} > results/turbo_baseline.json
echo "wrote results/turbo_baseline.json (slab ${slab_speedup}x, +threads ${thread_speedup}x, total ${total_speedup}x vs pre-PR ${PRE_PR_WALL_MS}ms on $cpus cpu(s))"
