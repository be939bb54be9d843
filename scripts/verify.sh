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
# Host threads are a configuration axis: the identity lattice
# (tests/lattice) runs 1, 2 and 4 of them in process.
cargo test -q --offline --workspace

gate "bench equality (fusion_autotune, serve, fault_sweep, cnn_eval reproduce results/BENCH_*.json byte for byte)"
# Each bench has one configuration, the committed JSON, and reports only
# virtual time, so a fresh run must equal the committed file byte for
# byte. Each also asserts its floors on every run: fused >= 1.2x single
# and >= 1.15x batched, autotuned >= 1.1x batched, live occupancy
# counters; batching >= 1.5x at saturation with no worse p99, chaos
# goodput >= 0.9 with p99 <= 1.5x fault-free, >= 3x at 4 devices,
# kill-one goodput and p99, Haar tier >= 0.9x under CNN co-tenancy with
# the CNN tier inside its p99 budget; CNN pre-final rejection and TPR
# >= 0.9. To re-record after an intended change, run the binary without
# FD_RESULTS_DIR and commit the diff.
bench_dir="$(mktemp -d)"
for bench in fusion_autotune serve fault_sweep cnn_eval; do
  FD_RESULTS_DIR="$bench_dir" cargo run --release --offline -q -p fd-bench --bin "$bench"
  if ! cmp "results/BENCH_$bench.json" "$bench_dir/BENCH_$bench.json"; then
    diff -u "results/BENCH_$bench.json" "$bench_dir/BENCH_$bench.json" || true
    echo "verify: $bench no longer reproduces results/BENCH_$bench.json" >&2
    exit 1
  fi
done

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
