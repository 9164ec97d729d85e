#!/usr/bin/env bash
# Regenerate the benchmark snapshots:
#
#   BENCH_parallel.json    — thread-scaling for the parallel runtime
#                            (Prune-GEACC branch-and-bound, Greedy over
#                            the shared candidate graph, dense
#                            similarity build) at 1/2/4/8 workers;
#   BENCH_resilience.json  — budget-meter overhead (meterless vs
#                            unlimited-meter runs, asserted
#                            bit-identical) plus a 100 ms deadline
#                            demonstration on a pathological
#                            branch-and-bound instance.
#
# Usage: scripts/bench_snapshot.sh [--quick]
#   --quick  millisecond-scale instances (smoke test, not a measurement)
#
# Both snapshots record the host's available parallelism: on a
# single-core runner the speedups are ≈ 1× by physics, and the binaries
# still assert that every configuration produces bit-identical results,
# which is the part a single core *can* verify.

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=()
if [ "${1:-}" = "--quick" ]; then
    QUICK=(-- --quick)
fi

echo "== thread-scaling snapshot (nproc = $(nproc)) =="
cargo run --release -p geacc-bench --bin scaling "${QUICK[@]}"

echo "== resilience-overhead snapshot =="
cargo run --release -p geacc-bench --bin resilience "${QUICK[@]}"

echo "done — snapshots in BENCH_parallel.json and BENCH_resilience.json"
