#!/usr/bin/env bash
# Repo verification: build, test, lint. Offline-friendly — every external
# dependency is vendored (see vendor/README.md), so no network fetches.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every gate reports its wall time when the next one starts, the last one
# and the whole run at the end (bash counts SECONDS from the script's start).
gate=""
gate_start=0
gate() {
  if [ -n "$gate" ]; then
    echo "-- $((SECONDS - gate_start)) s: $gate"
  fi
  gate="$1"
  gate_start=$SECONDS
  [ -z "$gate" ] || echo "== $gate =="
}

gate "non-test lines under crates/*/src against the change's parent (scripts/loc.sh)"
# Uncommitted work is a change on top of HEAD; a clean tree is HEAD's
# change on top of HEAD~1.
if ! git diff --quiet HEAD; then
  scripts/loc.sh HEAD
elif git rev-parse -q --verify 'HEAD~1^{commit}' >/dev/null; then
  scripts/loc.sh HEAD~1
else
  scripts/loc.sh
fi

gate "cargo build --release"
cargo build --release --offline

gate "repo benchmark crate builds (its own workspace; fails here if a public name it uses is gone)"
# Same target dir benchmark/run.sh uses, so the benchmark gate below
# finds this build warm.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
# Cargo rewrites benchmark/Cargo.lock whenever a path crate's normal
# dependencies change, and only a benchmark-only change may commit that
# file: a dependency edge between workspace crates has to wait for one.
if ! git diff --quiet -- benchmark/Cargo.lock; then
  git diff --stat -- benchmark/Cargo.lock
  echo "verify: building the benchmark rewrote benchmark/Cargo.lock; a crate's [dependencies] changed, which only a benchmark-only change may commit" >&2
  exit 1
fi

gate "cargo test -q"
cargo test -q --offline --workspace

gate "simulator test matrix across host thread counts"
# Everything must be bit-identical whether the drain runs the launches in
# issue order on the host thread and the timing simulation follows it (1,
# the reference schedule) or the worker pool claims chunks in parallel
# while the host thread simulates and helps (4; 2 is the benchmark host's
# count, and the only one where the host thread alternates between
# simulating and being half the drain): the simulator and both kernel
# crates, whose launches the pool cuts into block ranges.
for t in 1 2 4; do
  echo "-- FD_SIM_THREADS=$t --"
  FD_SIM_THREADS=$t cargo test -q --offline -p fd-gpu -p fd-detector -p fd-cnn
done

gate "kernel fusion (asserts >= 1.2x end-to-end speedup, >= 1.15x batched, bit-identical detections)"
# The bench's identity check compares 4 host threads against 1 via
# DetectorConfig (the FD_SIM_THREADS matrix above additionally runs the
# fusion_identity proptests under both env settings). Scratch results
# dir: the committed results/BENCH_fusion.json stays the reference run.
FD_RESULTS_DIR="$(mktemp -d)" \
  cargo run --release --offline -q -p fd-bench --bin fusion -- --assert-min-speedup-pct 120 --assert-min-batched-pct 115

gate "occupancy autotune (asserts >= 1.1x autotuned batched speedup, byte-identical detections, live limiting-factor counters)"
# Scratch results dir: the committed results/BENCH_occupancy.json stays
# the reference run. The bench itself asserts the detection byte-identity
# across {autotune} x {fusion} x host threads {1, 4} and fails on
# degenerate occupancy accounting.
FD_RESULTS_DIR="$(mktemp -d)" \
  cargo run --release --offline -q -p fd-bench --bin occupancy -- --assert-min-batched-pct 110

gate "fault matrix (every fault kind x pipeline stage)"
cargo test -q --offline -p fd-detector --test fault_matrix

gate "serve load (asserts batched p99 <= unbatched p99 and >= 1.5x throughput at saturation)"
# Scratch results dir: the committed results/BENCH_serve_load.json stays
# the full-length run.
FD_RESULTS_DIR="$(mktemp -d)" \
  cargo run --release --offline -q -p fd-bench --bin serve_load -- --requests 150

gate "serve faults (asserts an inert plan is byte-identical to no plan, goodput >= 0.9 and p99 <= 1.5x fault-free under chaos)"
# Every cell runs the one recovery stack; they differ only in the fault
# plan (none, inert, ~2 % request-level transients, 10x that). Scratch
# results dir: the committed results/BENCH_serve_faults.json stays the
# full-length run.
FD_RESULTS_DIR="$(mktemp -d)" \
  cargo run --release --offline -q -p fd-bench --bin serve_faults -- --requests 150

gate "serve fleet (asserts >= 3x throughput at 4 devices, kill-one goodput >= 0.70 with p99 <= 1.5x baseline, fleet-of-1 byte-identity)"
# Scratch results dir: the committed results/BENCH_serve_fleet.json
# stays the full-length run.
FD_RESULTS_DIR="$(mktemp -d)" \
  cargo run --release --offline -q -p fd-bench --bin serve_fleet -- --requests 200

gate "serve mixed (asserts haar-tier throughput >= 0.9x haar-only under CNN co-tenancy, cnn-tier p99 <= 10ms budget, fleet-of-1 byte-identity to the pre-trait server)"
# Scratch results dir: the committed results/BENCH_serve_mixed.json
# stays the full-length run.
FD_RESULTS_DIR="$(mktemp -d)" \
  cargo run --release --offline -q -p fd-bench --bin serve_mixed -- --requests 120

gate "cnn eval (asserts cnn pre-final rejection >= 0.90, cnn TPR >= 0.90, and a real accuracy/latency front vs haar)"
# Scratch results dir: the committed results/BENCH_cnn_eval.json stays
# the full-length run.
FD_RESULTS_DIR="$(mktemp -d)" \
  cargo run --release --offline -q -p fd-bench --bin cnn_eval -- --faces 24 --backgrounds 96

gate "repo benchmark (virtual clock, shares, counts and det_digest equal to benchmark/baseline/seed1.jsonl)"
# The virtual clock is deterministic per seed, so any DIFFERS row is a
# behaviour change and fails the gate. Every gated row comes from the
# reference cycle, which completes however short the run, so each
# workload runs for the shortest time the binary accepts. The host rows
# of such a run say nothing and are not shown; host-time claims use
# scripts/bench_pairs.sh.
bench_set="$(mktemp)"
bench_cmp="$(mktemp)"
benchmark/run.sh --seed 1 --seconds 0.001 --out "$bench_set"
benchmark/compare.sh benchmark/baseline/seed1.jsonl "$bench_set" >"$bench_cmp" || true
grep -q '^compare:' "$bench_cmp" || { cat "$bench_cmp"; echo "verify: benchmark/compare.sh did not finish" >&2; exit 1; }
if grep '^FAIL:' "$bench_cmp" | grep -v 'WORSE >'; then
  echo "verify: the repo benchmark's deterministic rows differ from the baseline" >&2
  exit 1
fi

gate "cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

gate ""
echo "verify: OK in $SECONDS s"
