#!/usr/bin/env bash
# Tier-1 gate plus the performance trajectories.
#
#   scripts/check.sh            # offline build + tests + perf checks
#   CARGO_FLAGS= scripts/check.sh   # allow network (e.g. first-time fetch)
#
# Fails if the build (warnings are errors) or any workspace test fails, if
# the reduced-length evaluation output (full or --sampled) drifts from the
# committed experiments_output_12k.txt / experiments_output_12k_sampled.txt,
# if the seeded audit soak (cycle-granular
# invariant checks, the batch-vs-scalar prediction differential over every
# registered predictor kind, and differential runs across every workload
# profile and the mistraining compositions) flags a violation, if the
# adversarial gate fails (the alias attack must measurably pollute
# baseline mascot while RandomizedMascot cuts attack success >= 10x at
# <= 5% benign IPC cost),
# if simulator throughput regresses against the committed
# BENCH_sim_throughput.json baseline (median of 3 passes; >10% aggregate
# or >12% for any single predictor's suite-wide number), if sampled
# simulation misses its gates against BENCH_sampling.json (>= 10x marginal
# trace-volume speedup with projected IPC within 8% of the full-trace
# reference, median of 3 passes), if the
# mascot-serve loopback smoke (real mascotd process + mascot-loadgen over
# TCP) loses requests, achieves zero QPS, or fails to drain on shutdown,
# or if the open-loop soak (1k concurrent connections against one mascotd)
# loses a request or blows its p999 latency SLO. Regenerate the baselines
# with `cargo run --release -p mascot-bench --bin throughput` and `cargo
# run --release -p mascot-serve --bin mascot-loadgen` on intentional perf
# changes, and commit the new files alongside them (BENCH_serve.json must
# carry the SLO schema fields: connections / latency_p999_us /
# slo_p999_us).

set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=${CARGO_FLAGS---offline}
export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

# Waits for a port file to appear (a daemon writes it once its listener is
# registered with the event loop's poller). Generous: a cold mascotd may
# replay a trace before opening for business, and the box may be loaded.
wait_ready() {
    for _ in $(seq 1 400); do
        [ -s "$1" ] && return 0
        sleep 0.05
    done
    echo "daemon behind $1 never became ready"
    return 1
}

echo "== tier-1: release build (warnings are errors) =="
# --workspace: the root is a real package, so a bare `cargo build` would
# compile only it and the smoke step below could run a *stale*
# target/release/mascotd (or none at all on a fresh clone).
cargo build --release ${CARGO_FLAGS} --workspace

echo "== tier-1: tests (whole workspace) =="
# --workspace: a bare `cargo test` runs only the root package's tests, not
# the member crates' (sampling properties, wire boundaries, metrics...).
cargo test -q ${CARGO_FLAGS} --workspace

echo "== drift gate (evaluation output vs experiments_output_12k.txt) =="
# The whole paper evaluation at a 12k-uop trace length, in one process
# (a few seconds), minus its wall-time line, must match the committed
# capture byte for byte. Regenerate on intentional model changes with
#   MASCOT_TRACE_UOPS=12000 target/release/all_experiments \
#       | sed '/^all experiments completed in/d' > experiments_output_12k.txt
MASCOT_TRACE_UOPS=12000 ./target/release/all_experiments \
    | sed '/^all experiments completed in/d' \
    | diff -u experiments_output_12k.txt - \
    || { echo "evaluation output drifted from experiments_output_12k.txt"; exit 1; }
echo "drift gate ok"

echo "== sampled drift gate (--sampled output vs experiments_output_12k_sampled.txt) =="
# The same evaluation in sampled mode (cluster-and-project with functional
# warm-up, which the full-mode gate above never runs) must match its own
# committed capture byte for byte. Regenerate on intentional model changes
# with
#   MASCOT_TRACE_UOPS=12000 target/release/all_experiments --sampled \
#       | sed '/^all experiments completed in/d' > experiments_output_12k_sampled.txt
MASCOT_TRACE_UOPS=12000 ./target/release/all_experiments --sampled \
    | sed '/^all experiments completed in/d' \
    | diff -u experiments_output_12k_sampled.txt - \
    || { echo "sampled evaluation output drifted from experiments_output_12k_sampled.txt"; exit 1; }
echo "sampled drift gate ok"

echo "== audit soak (batch differential + seeded, all workload profiles) =="
# Starts with the batch-vs-scalar equivalence differential for every
# predictor kind in the registry, then the per-profile invariant soak.
# Fixed seed and a bounded per-profile budget keep this deterministic and
# inside a couple of minutes; failures shrink to .mtrc repros under
# target/audit-repros/ and print the replay command.
cargo run --release ${CARGO_FLAGS} -p mascot-audit --bin audit-soak -- \
    --seed 2025 --uops 20000

echo "== adversarial gate (mistraining suite vs randomized defense) =="
# Differential attack measurement (DESIGN.md §12): baseline mascot must
# show the alias attack working (induced pollution over the victim-alone
# run), RandomizedMascot must cut attack success >= 10x, and its benign
# IPC must stay within 5% of baseline mascot. Fixed seed, offline.
cargo run --release ${CARGO_FLAGS} -p mascot-bench --bin adversarial -- --check

echo "== throughput check (aggregate + per-predictor gates) =="
cargo run --release ${CARGO_FLAGS} -p mascot-bench --bin throughput -- --check

echo "== sampling check (cluster-and-project speedup + accuracy gates) =="
# Cluster-and-project sampled simulation (DESIGN.md §13): median of 3
# passes must deliver >= 10x marginal trace-volume speedup on 10x-longer
# traces with projected IPC within 8% of the full-trace reference, against
# the committed BENCH_sampling.json baseline. Regenerate on intentional
# changes with `cargo run --release -p mascot-bench --bin sampling`.
cargo run --release ${CARGO_FLAGS} -p mascot-bench --bin sampling -- --check

echo "== BENCH_sampling.json schema (speedup + error fields committed) =="
for field in speedup cold_speedup max_abs_ipc_err mean_abs_ipc_err; do
    grep -q "\"${field}\"" BENCH_sampling.json || {
        echo "BENCH_sampling.json is missing \"${field}\": re-baseline with"
        echo "  cargo run --release -p mascot-bench --bin sampling"
        exit 1
    }
done
echo "BENCH_sampling.json schema ok"

echo "== serve smoke (mascotd + loadgen over loopback) =="
PORT_FILE=$(mktemp)
rm -f "${PORT_FILE}"  # mascotd recreates it once the listener is ready
# --audit validates the replay trace (and its applied+stale accounting)
# before the server opens for business.
./target/release/mascotd --addr 127.0.0.1:0 --shards 4 \
    --replay mcf --audit --port-file "${PORT_FILE}" &
MASCOTD_PID=$!
trap 'kill ${MASCOTD_PID} 2>/dev/null || true; rm -f "${PORT_FILE}"' EXIT
wait_ready "${PORT_FILE}"
./target/release/mascot-loadgen --addr "$(cat "${PORT_FILE}")" --smoke
# The smoke's Shutdown request must let the server drain and exit cleanly.
wait "${MASCOTD_PID}"
trap - EXIT
rm -f "${PORT_FILE}"
echo "serve smoke ok (server drained and exited)"

echo "== serve soak (open-loop SLO gate, 1k concurrent connections) =="
# The loadgen opens 1024 multiplexed connections and offers a fixed
# open-loop frame rate; it fails on any lost request, an unclean drain, or
# a p999 latency (measured from the *scheduled* send time — no coordinated
# omission) above the SLO.
PORT_FILE=$(mktemp)
rm -f "${PORT_FILE}"
./target/release/mascotd --addr 127.0.0.1:0 --shards 2 \
    --port-file "${PORT_FILE}" &
MASCOTD_PID=$!
trap 'kill ${MASCOTD_PID} 2>/dev/null || true; rm -f "${PORT_FILE}"' EXIT
wait_ready "${PORT_FILE}"
./target/release/mascot-loadgen --addr "$(cat "${PORT_FILE}")" \
    --soak --threads 2 --batch 16 --slo-p999-us 250000
# The soak's Shutdown must drain the server cleanly too.
wait "${MASCOTD_PID}"
trap - EXIT
rm -f "${PORT_FILE}"
echo "serve soak ok (SLO held at 1k connections)"

echo "== BENCH_serve.json schema (SLO fields committed) =="
for field in connections latency_p999_us slo_p999_us; do
    grep -q "\"${field}\"" BENCH_serve.json || {
        echo "BENCH_serve.json is missing \"${field}\": re-baseline with"
        echo "  cargo run --release -p mascot-serve --bin mascot-loadgen"
        exit 1
    }
done
echo "BENCH_serve.json schema ok"

echo "== snapshot smoke (checkpoint, warm restart, identical fingerprints) =="
SNAP_DIR=$(mktemp -d)
PORT_FILE="${SNAP_DIR}/port"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "${SNAP_DIR}"' EXIT
# Generation 0: warm via replay, fingerprint, checkpoint on shutdown.
./target/release/mascotd --addr 127.0.0.1:0 --shards 4 --replay mcf \
    --snapshot-dir "${SNAP_DIR}" --port-file "${PORT_FILE}" &
MASCOTD_PID=$!
wait_ready "${PORT_FILE}"
./target/release/mascot-loadgen --addr "$(cat "${PORT_FILE}")" \
    --fingerprint-file "${SNAP_DIR}/fp.before" --shutdown
wait "${MASCOTD_PID}"
[ -s "${SNAP_DIR}/mascot.snap" ] || { echo "no snapshot checkpointed"; exit 1; }
# Generation 1: no replay — the state must come back from the snapshot.
rm -f "${PORT_FILE}"
./target/release/mascotd --addr 127.0.0.1:0 --shards 4 \
    --snapshot-dir "${SNAP_DIR}" --port-file "${PORT_FILE}" &
MASCOTD_PID=$!
wait_ready "${PORT_FILE}"
WARM_OUT=$(./target/release/mascot-loadgen --addr "$(cat "${PORT_FILE}")" \
    --fingerprint-file "${SNAP_DIR}/fp.after")
echo "${WARM_OUT}"
echo "${WARM_OUT}" | grep -q "restarts=1" \
    || { echo "warm restart not visible in Stats"; exit 1; }
if echo "${WARM_OUT}" | grep -q "restored_entries=0 "; then
    echo "warm restart restored nothing"; exit 1
fi
cmp "${SNAP_DIR}/fp.before" "${SNAP_DIR}/fp.after" \
    || { echo "predictions diverged across the restart"; exit 1; }
# The restored server must still serve real traffic losslessly.
./target/release/mascot-loadgen --addr "$(cat "${PORT_FILE}")" --smoke
wait "${MASCOTD_PID}"
trap - EXIT
rm -rf "${SNAP_DIR}"
echo "snapshot smoke ok (identical fingerprints across a warm restart)"

echo "== router smoke (3 nodes + replica, one node killed mid-run) =="
RUN_DIR=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "${RUN_DIR}"' EXIT
NODE_PIDS=()
for i in 1 2 3 4; do
    ./target/release/mascotd --addr 127.0.0.1:0 --shards 2 \
        --port-file "${RUN_DIR}/node${i}.port" &
    NODE_PIDS+=($!)
done
for i in 1 2 3 4; do wait_ready "${RUN_DIR}/node${i}.port"; done
./target/release/mascot-router --addr 127.0.0.1:0 \
    --node "$(cat "${RUN_DIR}/node1.port")" \
    --node "$(cat "${RUN_DIR}/node2.port")" \
    --node "$(cat "${RUN_DIR}/node3.port")" \
    --replica "$(cat "${RUN_DIR}/node4.port")" \
    --health-interval-ms 100 --port-file "${RUN_DIR}/router.port" &
ROUTER_PID=$!
wait_ready "${RUN_DIR}/router.port"
# The smoke asserts zero lost requests even though a primary dies mid-run.
./target/release/mascot-loadgen --addr "$(cat "${RUN_DIR}/router.port")" \
    --smoke --duration-ms 2500 &
LOADGEN_PID=$!
sleep 0.8
kill -9 "${NODE_PIDS[1]}" 2>/dev/null || true
wait "${LOADGEN_PID}"
# The loadgen's Shutdown broadcast must stop the router and the survivors.
wait "${ROUTER_PID}"
for i in 0 2 3; do wait "${NODE_PIDS[$i]}" || true; done
trap - EXIT
rm -rf "${RUN_DIR}"
echo "router smoke ok (node killed mid-run, zero lost requests)"
