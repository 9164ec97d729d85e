#!/usr/bin/env bash
# The full local gate, in order:
#
# - cargo fmt --check, and the release build;
# - a locked build of the separate perfbench workspace, and a
#   one-second answer-checked run of each of its four workloads;
# - clippy -D warnings, and cargo doc with warnings as errors;
# - the engine differential-equivalence gate at 1 and 4 threads:
#   engine_equiv, and the frontier and CSR pins (frontier_pin:
#   Greedy-GEACC, ALNS repair and live repair on paper-scale instances,
#   and the candidate graph's CSR from builds and epoch extensions, bit
#   for bit);
# - the workspace test suite at two worker-pool sizes: GEACC_THREADS=1
#   exercises every sequential code path, GEACC_THREADS=4 the
#   scoped-thread parallel paths (including the resilience suite's
#   worker-panic and mid-flight-deadline scenarios, which behave
#   differently under contention);
# - the non-blocking-reads gate (nonblocking_reads: read p99 under
#   10 ms while a 2 s solve wedges the only worker, and identical
#   solves coalesced into one batch);
# - the cold-load memory gate (cold_load_memory: requested bytes, so
#   no host moves it, for parsing an instance and cloning it);
# - the fig3 solve smoke through the CLI: MinCostFlow-GEACC completes
#   within a 2 s deadline on the 100x1000 instance, a 2 s ALNS run
#   keeps at least its Greedy-GEACC seed's MaxSum on the 50x500 and
#   100x1000 instances, and so does a 3,000-node ALNS run on 100x1000
#   (a budget that runs out inside the seed);
# - every program in examples/, built in release and run once (each
#   must exit 0; several assert feasibility);
# - end-to-end smokes of the `geacc serve` daemon over real sockets:
#   one session, crash recovery after kill -9, replication failover
#   with `promote`, and unattended failover with none.
#
# Usage: scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo build --release =="
cargo build --release --workspace

echo "== perfbench build (locked) =="
# perfbench/ is a workspace of its own, so the build above never
# compiles it. Building it against its committed lockfile catches an API
# change that breaks the benchmark, or a dependency change that leaves
# perfbench/Cargo.lock stale, before the benchmark is run.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== perfbench answer-check smoke =="
# One-second runs of every workload, each as workload:trace. The two
# served workloads that write run traced: each checks every reply digest
# and the final fingerprint against an in-process replay of its op
# stream, and the layer replay against both. read_zipf (the only one
# that loads a 100k-user file) and offline_paper (the only one off the
# session path) run untraced. A wrong answer exits 2 and a run that
# cannot finish exits 1; either fails CI here.
for run in mixed_rw:1 solve_mix:1 read_zipf:0 offline_paper:0; do
    workload=${run%:*}
    SUMMARY=$(cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace "${run#*:}" | tail -n 1)
    echo "perfbench $workload: ${SUMMARY%%,\"metrics\"*}}"
done

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --no-deps (warnings are errors) =="
# First-party crates only: the vendored API shims under vendor/ are
# auto-members (path deps) and are not held to the doc standard.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
    -p geacc-core -p geacc-flow -p geacc-index -p geacc-datagen \
    -p geacc-server -p geacc-bench -p geacc-cli -p geacc

echo "== engine differential-equivalence gate =="
# The refactor contract: every algorithm through engine::solve_on is
# bit-identical to the paper entry points; the one Greedy-GEACC
# frontier (full solve, ALNS repair, live repair) reproduces its pinned
# arrangements, tick placement, RNG draws and repair reports; and the
# one CSR layout routine reproduces its pinned rows, sorted rows and
# sorted columns, from builds and from extended epochs; at 1 and 4
# threads.
for threads in 1 4; do
    GEACC_THREADS=$threads cargo test -p geacc-core --test engine_equiv -q
    GEACC_THREADS=$threads cargo test -p geacc-datagen --test frontier_pin -q
done

echo "== cargo test (GEACC_THREADS=1) =="
GEACC_THREADS=1 cargo test --workspace -q

echo "== cargo test (GEACC_THREADS=4) =="
GEACC_THREADS=4 cargo test --workspace -q

echo "== non-blocking reads gate =="
# The serving-layer contract: while a 2 s budgeted exact solve wedges
# the only worker, synchronous reads answered inline on the event loop
# must hold a p99 under 10 ms (reads never queue behind solves), and
# four identical concurrent solves must ride one batch. The test is a
# binary of its own, so nothing else competes for the cores while it
# times reads.
cargo test -p geacc-server --test nonblocking_reads -q

echo "== cold-load memory gate =="
# The cold-start memory contract, counted by the tracking allocator in
# requested bytes: parsing a 10x20,000 (d = 20) instance peaks at no
# more than 2.5x its attribute bytes above the text, and cloning the
# loaded instance allocates under a tenth of them.
cargo test -p geacc-bench --test cold_load_memory -q

echo "== fig3 solve smoke =="
# Two solver gates end to end through the CLI, on fig3-shaped synthetic
# instances (generator seed 2015); 100x1000 is fig3's default point.
# - MinCostFlow-GEACC must complete on the 100x1000 instance within a
#   2 s deadline. It ticks its budget meter once per augmentation, so a
#   kernel slower than that stops at the deadline, exits 3 and fails
#   this step.
# - On both instances, a 2 s ALNS run (seed 2015) must return at least
#   the MaxSum of the Greedy-GEACC seed it starts from (exit 3 = a
#   budget-stopped incumbent is the expected status for the budgeted
#   run).
# - On 100x1000, a 3,000-node ALNS run must reach Greedy-GEACC's MaxSum
#   too. Seeding alone ticks more nodes than that, so the budget stops
#   inside the seed; ALNS must still answer with the finished seed,
#   not the truncated one.
SOLVE_SMOKE_DIR=$(mktemp -d)
for size in 50x500 100x1000; do
    ./target/release/geacc generate --kind synthetic --events "${size%x*}" \
        --users "${size#*x}" --seed 2015 --output "$SOLVE_SMOKE_DIR/$size.json" > /dev/null
done
MCF_LINE=$(./target/release/geacc solve --input "$SOLVE_SMOKE_DIR/100x1000.json" \
    --algorithm mincostflow --timeout-ms 2000) \
    || { echo "mcf smoke: MinCostFlow-GEACC missed its 2 s deadline: $MCF_LINE"; exit 1; }
echo "mcf smoke: ok ($MCF_LINE)"
for size in 50x500 100x1000; do
    GREEDY_LINE=$(./target/release/geacc solve --input "$SOLVE_SMOKE_DIR/$size.json" \
        --algorithm greedy)
    ALNS_LINE=$(./target/release/geacc solve --input "$SOLVE_SMOKE_DIR/$size.json" \
        --algorithm alns --seed 2015 --timeout-ms 2000) || [ $? -eq 3 ]
    GREEDY_SUM=$(printf '%s' "$GREEDY_LINE" | sed -n 's/.*MaxSum \([0-9.]*\).*/\1/p')
    ALNS_SUM=$(printf '%s' "$ALNS_LINE" | sed -n 's/.*MaxSum \([0-9.]*\).*/\1/p')
    [ -n "$GREEDY_SUM" ] && [ -n "$ALNS_SUM" ] \
        || { echo "alns smoke: could not parse MaxSum: [$GREEDY_LINE] [$ALNS_LINE]"; exit 1; }
    awk -v a="$ALNS_SUM" -v g="$GREEDY_SUM" 'BEGIN { exit !(a >= g) }' \
        || { echo "alns smoke $size: ALNS $ALNS_SUM fell below greedy $GREEDY_SUM"; exit 1; }
    case "$ALNS_LINE" in
        *'seed 2015'*) ;;
        *) echo "alns smoke: solve line did not echo the seed: $ALNS_LINE"; exit 1 ;;
    esac
    echo "alns anytime smoke $size: ok (greedy $GREEDY_SUM -> alns $ALNS_SUM)"
done
# GREEDY_SUM is the last size's: 100x1000.
SEED_LINE=$(./target/release/geacc solve --input "$SOLVE_SMOKE_DIR/100x1000.json" \
    --algorithm alns --seed 2015 --max-nodes 3000) || [ $? -eq 3 ]
SEED_SUM=$(printf '%s' "$SEED_LINE" | sed -n 's/.*MaxSum \([0-9.]*\).*/\1/p')
[ -n "$SEED_SUM" ] || { echo "alns seed smoke: could not parse MaxSum: [$SEED_LINE]"; exit 1; }
awk -v a="$SEED_SUM" -v g="$GREEDY_SUM" 'BEGIN { exit !(a >= g) }' \
    || { echo "alns seed smoke: 3000-node ALNS $SEED_SUM fell below greedy $GREEDY_SUM"; exit 1; }
echo "alns seed smoke 100x1000: ok (greedy $GREEDY_SUM, alns at 3000 nodes $SEED_SUM)"
rm -rf "$SOLVE_SMOKE_DIR"

echo "== examples =="
# README lists these as quickstarts; each runs once and must exit 0.
cargo build --release -p geacc --examples
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    ./target/release/examples/"$name" > /dev/null \
        || { echo "example $name failed"; exit 1; }
    echo "example $name: ok"
done

echo "== server smoke =="
# Boot the daemon on an ephemeral port, drive one session with bash's
# /dev/tcp, and require a clean exit: load the toy instance from a
# file, apply one mutation, confirm `stats` reports the advanced epoch,
# shut down, and check the daemon exits 0 after draining.
SMOKE_DIR=$(mktemp -d)
SERVE_PID=""
REPLICA_PID=""
REPLICA2_PID=""
RECOVER_PID=""
cleanup() {
    for pid in "$SERVE_PID" "$REPLICA_PID" "$REPLICA2_PID" "$RECOVER_PID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT

./target/release/geacc toy --output "$SMOKE_DIR/toy.json" > /dev/null
./target/release/geacc serve --addr 127.0.0.1:0 --workers 2 \
    > "$SMOKE_DIR/serve.log" &
SERVE_PID=$!

PORT=""
for _ in $(seq 1 100); do
    PORT=$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$SMOKE_DIR/serve.log")
    [ -n "$PORT" ] && break
    sleep 0.1
done
[ -n "$PORT" ] || { echo "smoke: server never reported its port"; exit 1; }

exec 3<>"/dev/tcp/127.0.0.1/$PORT"
request() {
    printf '%s\n' "$1" >&3
    IFS= read -r REPLY <&3
    printf '%s\n' "$REPLY"
    case "$REPLY" in
        '{"ok":true'*) ;;
        *) echo "smoke: request failed: $1"; exit 1 ;;
    esac
}

request "{\"op\": \"load\", \"path\": \"$SMOKE_DIR/toy.json\"}" > /dev/null
request '{"op": "mutate", "mutation": {"AddConflict": {"a": 0, "b": 1}}}' > /dev/null
STATS=$(request '{"op": "stats"}')
case "$STATS" in
    *'"epoch":1'*) ;;
    *) echo "smoke: stats did not report epoch 1: $STATS"; exit 1 ;;
esac
request '{"op": "shutdown"}' > /dev/null
exec 3<&- 3>&-

wait "$SERVE_PID"
SERVE_PID=""
echo "server smoke: ok"

echo "== crash-recovery smoke =="
# Durability end to end: boot with a WAL, stream a few mutations,
# SIGKILL the daemon (no drain, no destructors), restart on the same
# directory, and require the acked session back — epoch and a sane
# max_sum — plus a clean shutdown of the recovered server.
WAL_DIR="$SMOKE_DIR/wal"
mkdir -p "$WAL_DIR"
./target/release/geacc serve --addr 127.0.0.1:0 --workers 2 \
    --wal-dir "$WAL_DIR" --fsync always \
    > "$SMOKE_DIR/serve-crash.log" &
SERVE_PID=$!

PORT=""
for _ in $(seq 1 100); do
    PORT=$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$SMOKE_DIR/serve-crash.log")
    [ -n "$PORT" ] && break
    sleep 0.1
done
[ -n "$PORT" ] || { echo "crash smoke: server never reported its port"; exit 1; }

exec 3<>"/dev/tcp/127.0.0.1/$PORT"
request "{\"op\": \"load\", \"path\": \"$SMOKE_DIR/toy.json\"}" > /dev/null
request '{"op": "mutate", "mutation": {"SetCapacity": {"side": "User", "id": 0, "capacity": 2}}}' > /dev/null
request '{"op": "mutate", "mutation": {"SetCapacity": {"side": "User", "id": 1, "capacity": 3}}}' > /dev/null
request '{"op": "mutate", "mutation": {"AddConflict": {"a": 0, "b": 1}}}' > /dev/null
EXPECTED=$(request '{"op": "stats"}')
exec 3<&- 3>&-

kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
[ -s "$WAL_DIR/wal.log" ] || { echo "crash smoke: no WAL was written"; exit 1; }

./target/release/geacc serve --addr 127.0.0.1:0 --workers 2 \
    --wal-dir "$WAL_DIR" --fsync always \
    > "$SMOKE_DIR/serve-recover.log" &
SERVE_PID=$!

PORT=""
for _ in $(seq 1 100); do
    PORT=$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$SMOKE_DIR/serve-recover.log")
    [ -n "$PORT" ] && break
    sleep 0.1
done
[ -n "$PORT" ] || { echo "crash smoke: restart never reported its port"; exit 1; }
grep -q '^recovered ' "$SMOKE_DIR/serve-recover.log" \
    || { echo "crash smoke: restart printed no recovery summary"; exit 1; }

exec 3<>"/dev/tcp/127.0.0.1/$PORT"
RECOVERED=$(request '{"op": "stats"}')
case "$RECOVERED" in
    *'"epoch":3'*) ;;
    *) echo "crash smoke: recovered stats lost the epoch: $RECOVERED"; exit 1 ;;
esac
# The recovered arranger must report the same max_sum the live session
# acked before the kill.
EXPECTED_SUM=$(printf '%s' "$EXPECTED" | sed -n 's/.*"max_sum":\([^,}]*\).*/\1/p')
case "$RECOVERED" in
    *"\"max_sum\":$EXPECTED_SUM"*) ;;
    *) echo "crash smoke: max_sum diverged (wanted $EXPECTED_SUM): $RECOVERED"; exit 1 ;;
esac
request '{"op": "shutdown"}' > /dev/null
exec 3<&- 3>&-

wait "$SERVE_PID"
SERVE_PID=""
echo "crash-recovery smoke: ok"

echo "== replication failover smoke =="
# WAL-shipping replication end to end: a primary streams acked records
# to a live replica, the primary is SIGKILLed mid-life, the replica is
# promoted with `geacc promote`, and the promoted node must serve the
# exact acked state — cross-checked against a recovery replay of the
# dead primary's own WAL (same fingerprint both ways).
PRIMARY_DIR="$SMOKE_DIR/repl-primary"
REPLICA_DIR="$SMOKE_DIR/repl-replica"
mkdir -p "$PRIMARY_DIR" "$REPLICA_DIR"

wait_port() { # logfile
    local port=""
    for _ in $(seq 1 100); do
        port=$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$1")
        [ -n "$port" ] && break
        sleep 0.1
    done
    [ -n "$port" ] || { echo "failover smoke: no port in $1" >&2; exit 1; }
    printf '%s' "$port"
}

probe() { # port request — one-shot call on a fresh connection
    exec 4<>"/dev/tcp/127.0.0.1/$1"
    printf '%s\n' "$2" >&4
    IFS= read -r PROBE_REPLY <&4
    exec 4<&- 4>&-
    printf '%s' "$PROBE_REPLY"
}

fingerprint_of() { # health-response
    printf '%s' "$1" | sed -n 's/.*"fingerprint":\([0-9][0-9]*\).*/\1/p'
}

./target/release/geacc serve --addr 127.0.0.1:0 --workers 2 \
    --wal-dir "$PRIMARY_DIR" --fsync always --accept-replicas \
    > "$SMOKE_DIR/serve-primary.log" &
SERVE_PID=$!
PRIMARY_PORT=$(wait_port "$SMOKE_DIR/serve-primary.log")
grep -q '^accepting replicas' "$SMOKE_DIR/serve-primary.log" \
    || { echo "failover smoke: primary printed no replication summary"; exit 1; }

./target/release/geacc serve --addr 127.0.0.1:0 --workers 2 \
    --wal-dir "$REPLICA_DIR" --fsync always \
    --replica-of "127.0.0.1:$PRIMARY_PORT" \
    > "$SMOKE_DIR/serve-replica.log" &
REPLICA_PID=$!
REPLICA_PORT=$(wait_port "$SMOKE_DIR/serve-replica.log")

exec 3<>"/dev/tcp/127.0.0.1/$PRIMARY_PORT"
request "{\"op\": \"load\", \"path\": \"$SMOKE_DIR/toy.json\"}" > /dev/null
request '{"op": "mutate", "mutation": {"SetCapacity": {"side": "User", "id": 0, "capacity": 2}}}' > /dev/null
request '{"op": "mutate", "mutation": {"AddConflict": {"a": 0, "b": 1}}}' > /dev/null
request '{"op": "mutate", "mutation": {"SetCapacity": {"side": "Event", "id": 1, "capacity": 4}}}' > /dev/null
PRIMARY_HEALTH=$(request '{"op": "health"}')
exec 3<&- 3>&-
ACKED_FP=$(fingerprint_of "$PRIMARY_HEALTH")
[ -n "$ACKED_FP" ] || { echo "failover smoke: no fingerprint in $PRIMARY_HEALTH"; exit 1; }

CAUGHT_UP=""
for _ in $(seq 1 100); do
    REPLICA_HEALTH=$(probe "$REPLICA_PORT" '{"op": "health"}')
    case "$REPLICA_HEALTH" in
        *'"lag_records":0'*"\"fingerprint\":$ACKED_FP"*) CAUGHT_UP=1; break ;;
    esac
    sleep 0.1
done
[ -n "$CAUGHT_UP" ] || { echo "failover smoke: replica never caught up: $REPLICA_HEALTH"; exit 1; }

# The replica is read-only until promoted.
DENIED=$(probe "$REPLICA_PORT" '{"op": "mutate", "mutation": {"AddConflict": {"a": 1, "b": 2}}}')
case "$DENIED" in
    *'"code":"read_only"'*) ;;
    *) echo "failover smoke: replica accepted a write: $DENIED"; exit 1 ;;
esac

kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

PROMOTE_OUT=$(./target/release/geacc promote --addr "127.0.0.1:$REPLICA_PORT")
case "$PROMOTE_OUT" in
    'promoted '*) ;;
    *) echo "failover smoke: promote did not report success: $PROMOTE_OUT"; exit 1 ;;
esac

PROMOTED_HEALTH=$(probe "$REPLICA_PORT" '{"op": "health"}')
case "$PROMOTED_HEALTH" in
    *'"role":"primary"'*"\"fingerprint\":$ACKED_FP"*) ;;
    *) echo "failover smoke: promoted state diverged (wanted fp $ACKED_FP): $PROMOTED_HEALTH"; exit 1 ;;
esac

# Cross-check: recovery replay of the dead primary's WAL reconstructs
# the same fingerprint the promoted replica serves.
./target/release/geacc serve --addr 127.0.0.1:0 --workers 2 \
    --wal-dir "$PRIMARY_DIR" --fsync always \
    > "$SMOKE_DIR/serve-replay.log" &
RECOVER_PID=$!
REPLAY_PORT=$(wait_port "$SMOKE_DIR/serve-replay.log")
REPLAY_HEALTH=$(probe "$REPLAY_PORT" '{"op": "health"}')
REPLAY_FP=$(fingerprint_of "$REPLAY_HEALTH")
[ "$REPLAY_FP" = "$ACKED_FP" ] \
    || { echo "failover smoke: WAL replay fp $REPLAY_FP != acked fp $ACKED_FP"; exit 1; }
probe "$REPLAY_PORT" '{"op": "shutdown"}' > /dev/null
wait "$RECOVER_PID" 2>/dev/null || true
RECOVER_PID=""

# The promoted node accepts writes again.
RESUMED=$(probe "$REPLICA_PORT" '{"op": "mutate", "mutation": {"AddConflict": {"a": 1, "b": 2}}}')
case "$RESUMED" in
    '{"ok":true'*) ;;
    *) echo "failover smoke: promoted node refused a write: $RESUMED"; exit 1 ;;
esac

probe "$REPLICA_PORT" '{"op": "shutdown"}' > /dev/null
wait "$REPLICA_PID" 2>/dev/null || true
REPLICA_PID=""
echo "replication failover smoke: ok"

echo "== unattended failover smoke =="
# Self-healing end to end with ZERO human ops: a supervised primary and
# two supervised replicas (peers of each other), the primary is
# SIGKILLed, and with no `promote` anywhere a replica must elect
# itself, go writable, and serve the exact acked state — cross-checked
# against a recovery replay of the dead primary's own WAL.
SUP_PRIMARY_DIR="$SMOKE_DIR/sup-primary"
SUP_R1_DIR="$SMOKE_DIR/sup-r1"
SUP_R2_DIR="$SMOKE_DIR/sup-r2"
mkdir -p "$SUP_PRIMARY_DIR" "$SUP_R1_DIR" "$SUP_R2_DIR"

free_port() { # a port nothing is listening on right now
    local p
    while :; do
        p=$(( (RANDOM % 20000) + 20000 ))
        if ! (exec 5<>"/dev/tcp/127.0.0.1/$p") 2>/dev/null; then
            printf '%s' "$p"
            return
        fi
    done
}
R1_PORT=$(free_port)
R2_PORT=$(free_port)
while [ "$R2_PORT" = "$R1_PORT" ]; do R2_PORT=$(free_port); done

./target/release/geacc serve --addr 127.0.0.1:0 --workers 2 \
    --wal-dir "$SUP_PRIMARY_DIR" --fsync always --accept-replicas \
    --supervise --lease-interval-ms 100 --missed-leases 3 --node-id 10 \
    > "$SMOKE_DIR/serve-sup-primary.log" &
SERVE_PID=$!
SUP_PRIMARY_PORT=$(wait_port "$SMOKE_DIR/serve-sup-primary.log")

./target/release/geacc serve --addr "127.0.0.1:$R1_PORT" --workers 2 \
    --wal-dir "$SUP_R1_DIR" --fsync always \
    --replica-of "127.0.0.1:$SUP_PRIMARY_PORT" \
    --supervise --lease-interval-ms 100 --missed-leases 3 --node-id 1 \
    --peers "127.0.0.1:$R2_PORT" \
    > "$SMOKE_DIR/serve-sup-r1.log" &
REPLICA_PID=$!
./target/release/geacc serve --addr "127.0.0.1:$R2_PORT" --workers 2 \
    --wal-dir "$SUP_R2_DIR" --fsync always \
    --replica-of "127.0.0.1:$SUP_PRIMARY_PORT" \
    --supervise --lease-interval-ms 100 --missed-leases 3 --node-id 2 \
    --peers "127.0.0.1:$R1_PORT" \
    > "$SMOKE_DIR/serve-sup-r2.log" &
REPLICA2_PID=$!
wait_port "$SMOKE_DIR/serve-sup-r1.log" > /dev/null
wait_port "$SMOKE_DIR/serve-sup-r2.log" > /dev/null

exec 3<>"/dev/tcp/127.0.0.1/$SUP_PRIMARY_PORT"
request "{\"op\": \"load\", \"path\": \"$SMOKE_DIR/toy.json\"}" > /dev/null
request '{"op": "mutate", "mutation": {"SetCapacity": {"side": "User", "id": 0, "capacity": 2}}}' > /dev/null
request '{"op": "mutate", "mutation": {"AddConflict": {"a": 0, "b": 1}}}' > /dev/null
SUP_HEALTH=$(request '{"op": "health"}')
exec 3<&- 3>&-
SUP_FP=$(fingerprint_of "$SUP_HEALTH")
[ -n "$SUP_FP" ] || { echo "unattended smoke: no fingerprint in $SUP_HEALTH"; exit 1; }

for port in "$R1_PORT" "$R2_PORT"; do
    CAUGHT_UP=""
    for _ in $(seq 1 100); do
        H=$(probe "$port" '{"op": "health"}')
        case "$H" in
            *'"lag_records":0'*"\"fingerprint\":$SUP_FP"*) CAUGHT_UP=1; break ;;
        esac
        sleep 0.1
    done
    [ -n "$CAUGHT_UP" ] || { echo "unattended smoke: replica $port never caught up: $H"; exit 1; }
done

kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

# No `promote` from here on: a replica must go writable on its own.
WINNER_PORT=""
for _ in $(seq 1 200); do
    for port in "$R1_PORT" "$R2_PORT"; do
        H=$(probe "$port" '{"op": "health"}' 2>/dev/null) || continue
        case "$H" in
            *'"role":"primary"'*'"status":"ok"'*|*'"status":"ok"'*'"role":"primary"'*)
                WINNER_PORT=$port; break 2 ;;
        esac
    done
    sleep 0.1
done
[ -n "$WINNER_PORT" ] || { echo "unattended smoke: no replica self-promoted"; exit 1; }

WINNER_HEALTH=$(probe "$WINNER_PORT" '{"op": "health"}')
WINNER_FP=$(fingerprint_of "$WINNER_HEALTH")
[ "$WINNER_FP" = "$SUP_FP" ] \
    || { echo "unattended smoke: promoted fp $WINNER_FP != acked fp $SUP_FP"; exit 1; }

# Cross-check: a recovery replay of the dead primary's WAL (the acked
# record prefix) reconstructs exactly what the winner serves.
./target/release/geacc serve --addr 127.0.0.1:0 --workers 2 \
    --wal-dir "$SUP_PRIMARY_DIR" --fsync always \
    > "$SMOKE_DIR/serve-sup-replay.log" &
RECOVER_PID=$!
SUP_REPLAY_PORT=$(wait_port "$SMOKE_DIR/serve-sup-replay.log")
SUP_REPLAY_FP=$(fingerprint_of "$(probe "$SUP_REPLAY_PORT" '{"op": "health"}')")
[ "$SUP_REPLAY_FP" = "$SUP_FP" ] \
    || { echo "unattended smoke: WAL replay fp $SUP_REPLAY_FP != acked fp $SUP_FP"; exit 1; }
probe "$SUP_REPLAY_PORT" '{"op": "shutdown"}' > /dev/null
wait "$RECOVER_PID" 2>/dev/null || true
RECOVER_PID=""

# The self-promoted node acks writes.
SUP_RESUMED=$(probe "$WINNER_PORT" '{"op": "mutate", "mutation": {"AddConflict": {"a": 1, "b": 2}}}')
case "$SUP_RESUMED" in
    '{"ok":true'*) ;;
    *) echo "unattended smoke: winner refused a write: $SUP_RESUMED"; exit 1 ;;
esac

probe "$R1_PORT" '{"op": "shutdown"}' > /dev/null 2>&1 || true
probe "$R2_PORT" '{"op": "shutdown"}' > /dev/null 2>&1 || true
wait "$REPLICA_PID" 2>/dev/null || true
REPLICA_PID=""
wait "$REPLICA2_PID" 2>/dev/null || true
REPLICA2_PID=""
echo "unattended failover smoke: ok (winner on port $WINNER_PORT)"

echo "ci.sh: all green"
