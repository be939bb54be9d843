#!/usr/bin/env bash
# Repo verification: build, test, lint. Offline-friendly — every external
# dependency is vendored (see vendor/README.md), so no network fetches.
#
# Every gate runs, whatever the gates before it did: a failing gate is
# recorded and the run goes on, so one run shows every failure. The run
# exits 1 at the end, naming each failed gate, if any failed.
set -uo pipefail
cd "$(dirname "$0")/.."

# Runs gate function $2 under `set -e` in a subshell (its first failing
# command fails the gate) and reports its wall time; bash counts SECONDS
# from the script's start.
failed=()
gate() {
  local start=$SECONDS
  echo "== $1 =="
  ( set -e; "$2" )
  local status=$?
  echo "-- $((SECONDS - start)) s: $1"
  if [ "$status" -ne 0 ]; then
    echo "verify: gate failed: $1" >&2
    failed+=("$1")
  fi
}

line_count() {
  # Uncommitted work is a change on top of HEAD; a clean tree is HEAD's
  # change on top of HEAD~1.
  if ! git diff --quiet HEAD; then
    scripts/loc.sh HEAD
  elif git rev-parse -q --verify 'HEAD~1^{commit}' >/dev/null; then
    scripts/loc.sh HEAD~1
  else
    scripts/loc.sh
  fi
}

format_check() {
  # rustfmt.toml at the root carries the benchmark crate's settings;
  # benchmark/ is its own workspace and is not formatted from here.
  cargo fmt --all --check
}

build() {
  cargo build --release --offline
}

docs() {
  # Broken intra-doc links (a link to a private or renamed item) are
  # errors, in every workspace crate and the vendored stand-ins.
  RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --keep-going
}

no_testkit_in_product() {
  # fd-gpu's `testkit` feature compiles the kernel crates' test harness
  # (the differential oracle `fd_gpu::probe`, the `Band` mutation switch,
  # the per-block helpers of reference bodies). Only [dev-dependencies]
  # may turn it on. With dev edges left out cargo resolves features as a
  # build without tests does, and no package of the workspace may then
  # have it.
  local enabled
  enabled="$(cargo tree --offline --workspace -e no-dev --prefix none -f '{p} [{f}]' | grep -w testkit || true)"
  if [ -n "$enabled" ]; then
    printf '%s\n' "$enabled" | sort -u
    echo "verify: a normal dependency turns on fd-gpu's testkit feature; only [dev-dependencies] may" >&2
    return 1
  fi
}

build_benchmark() {
  # Same target dir benchmark/run.sh uses, so the benchmark gate below
  # finds this build warm.
  cargo build --release --offline --manifest-path benchmark/Cargo.toml
  # Cargo rewrites benchmark/Cargo.lock whenever a path crate's normal
  # dependencies change, and only a benchmark-only change may commit that
  # file: a dependency edge between workspace crates has to wait for one.
  if ! git diff --quiet -- benchmark/Cargo.lock; then
    git diff --stat -- benchmark/Cargo.lock
    echo "verify: building the benchmark rewrote benchmark/Cargo.lock; a crate's [dependencies] changed, which only a benchmark-only change may commit" >&2
    return 1
  fi
}

tests() {
  # Host threads are a configuration axis: the identity lattice
  # (tests/lattice) runs 1, 2 and 4 of them in process.
  cargo test -q --offline --workspace
}

bench_equality() {
  # Each bench has one configuration, the committed JSON, and reports only
  # virtual time, so a fresh run must equal the committed file byte for
  # byte. Each also asserts its floors on every run: fused >= 1.2x single
  # and >= 1.15x batched, live occupancy counters; batching >= 1.5x at saturation with no worse p99, chaos
  # goodput >= 0.9 with p99 <= 1.5x fault-free, >= 3x at 4 devices,
  # kill-one goodput and p99, Haar tier >= 0.9x under CNN co-tenancy with
  # the CNN tier inside its p99 budget; CNN pre-final rejection and TPR
  # >= 0.9. To re-record after an intended change, run the binary without
  # FD_RESULTS_DIR and commit the diff. Every bench runs even when one
  # fails.
  local bench_dir bench status=0
  bench_dir="$(mktemp -d)"
  for bench in fusion serve fault_sweep cnn_eval; do
    if ! FD_RESULTS_DIR="$bench_dir" cargo run --release --offline -q -p fd-bench --bin "$bench"; then
      echo "verify: $bench failed" >&2
      status=1
    elif ! cmp "results/BENCH_$bench.json" "$bench_dir/BENCH_$bench.json"; then
      diff -u "results/BENCH_$bench.json" "$bench_dir/BENCH_$bench.json" || true
      echo "verify: $bench no longer reproduces results/BENCH_$bench.json" >&2
      status=1
    fi
  done
  return "$status"
}

repo_benchmark() {
  # The virtual clock is deterministic per seed, so any DIFFERS row is a
  # behaviour change and fails the gate. Every gated row comes from the
  # reference cycle, which completes however short the run, so each
  # workload runs for the shortest time the binary accepts. The host rows
  # of such a run say nothing and are not shown; host-time claims use
  # scripts/bench_pairs.sh.
  local bench_set bench_cmp
  bench_set="$(mktemp)"
  bench_cmp="$(mktemp)"
  benchmark/run.sh --seed 1 --seconds 0.001 --out "$bench_set"
  benchmark/compare.sh benchmark/baseline/seed1.jsonl "$bench_set" >"$bench_cmp" || true
  grep -q '^compare:' "$bench_cmp" || { cat "$bench_cmp"; echo "verify: benchmark/compare.sh did not finish" >&2; return 1; }
  if grep '^FAIL:' "$bench_cmp" | grep -v 'WORSE >'; then
    echo "verify: the repo benchmark's deterministic rows differ from the baseline" >&2
    return 1
  fi
}

clippy() {
  cargo clippy --workspace --all-targets --keep-going --offline -- -D warnings
}

gate "non-test lines under crates/*/src against the change's parent (scripts/loc.sh)" line_count
gate "cargo fmt --all --check" format_check
gate "cargo build --release" build
gate "cargo doc --workspace --no-deps with rustdoc warnings as errors" docs
gate "no normal dependency turns on fd-gpu's testkit feature (cargo tree without dev edges)" no_testkit_in_product
gate "repo benchmark crate builds (its own workspace; fails here if a public name it uses is gone)" build_benchmark
gate "cargo test -q" tests
gate "bench equality (fusion, serve, fault_sweep, cnn_eval reproduce results/BENCH_*.json byte for byte)" bench_equality
gate "repo benchmark (virtual clock, shares, counts and det_digest equal to benchmark/baseline/seed1.jsonl)" repo_benchmark
gate "cargo clippy --workspace --all-targets --keep-going -- -D warnings" clippy

if [ "${#failed[@]}" -gt 0 ]; then
  echo "verify: FAILED in $SECONDS s: ${#failed[@]} gate(s):" >&2
  printf '  %s\n' "${failed[@]}" >&2
  exit 1
fi
echo "verify: OK in $SECONDS s"
