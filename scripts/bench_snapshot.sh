#!/usr/bin/env bash
# Regenerate the two benchmark snapshots every speed number in README,
# DESIGN, EXPERIMENTS and CONTRIBUTING cites:
#
#   BENCH_perfbench.json   — the repository benchmark (the BENCHMARK.json
#                            command) on all four workloads at --seed 1
#                            --seconds 12, once untraced (--trace 0) and
#                            once traced (--trace 1). A JSON array with
#                            one element per run; each element is the
#                            run's three stdout objects (provenance,
#                            report, summary), verbatim.
#   BENCH_replication.json — replica lag, promote-to-first-ack failover
#                            and the unattended failover MTTR.
#
# Both are stamped with commit, UTC date and host. Both files are
# overwritten in place.
#
# Usage: scripts/bench_snapshot.sh

set -euo pipefail
cd "$(dirname "$0")/.."

# Sources with uncommitted changes are stamped as their base commit with
# a -dirty suffix; a caller may name the commit itself.
if [ -z "${GEACC_BENCH_COMMIT:-}" ] && [ -d .git ]; then
    GEACC_BENCH_COMMIT=$(git rev-parse HEAD)
    if [ -n "$(git status --porcelain -- crates vendor perfbench Cargo.toml Cargo.lock)" ]; then
        GEACC_BENCH_COMMIT="$GEACC_BENCH_COMMIT-dirty"
    fi
    export GEACC_BENCH_COMMIT
fi

OUT=BENCH_perfbench.json
TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

printf '[' > "$TMP"
sep=''
for trace in 0 1; do
    for workload in read_zipf mixed_rw solve_mix offline_paper; do
        echo "== perfbench $workload --trace $trace =="
        RUN=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 12 --trace "$trace")
        [ "$(printf '%s\n' "$RUN" | wc -l)" -eq 3 ] \
            || { echo "perfbench $workload: expected 3 stdout lines, got: $RUN"; exit 1; }
        printf '%s\n[%s]' "$sep" "$(printf '%s' "$RUN" | paste -sd,)" >> "$TMP"
        sep=','
    done
done
printf '\n]\n' >> "$TMP"
mv "$TMP" "$OUT"
echo "wrote $OUT"

echo "== replication snapshot =="
cargo run --release --offline --quiet -p geacc-bench --bin replication
