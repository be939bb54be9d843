#!/usr/bin/env bash
# The repo benchmark. Builds offline, then either
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#
# runs one workload once (the form BENCHMARK.json names), or
#
#   benchmark/run.sh [--seed N] [--seconds S] [--out FILE]
#
# runs all four workloads, untraced then traced, one process each, checks
# that both passes produced the same det_digest, and writes the result set
# (one JSON record per line) to FILE (default benchmark/out/results.jsonl)
# for benchmark/compare.sh.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
cd "$here/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/fd-benchmark"
FD_BENCH_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export FD_BENCH_GIT_REV

case " $* " in
*" --workload "* | *" --print-manifest "*) exec "$bin" "$@" ;;
esac

seed=1
seconds=""
out="benchmark/out/results.jsonl"
while [ $# -gt 0 ]; do
    case "$1" in
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
    --out) out="$2" ;;
    *) echo "run.sh: unknown flag $1" >&2; exit 2 ;;
    esac
    shift 2
done

mkdir -p benchmark/out "$(dirname "$out")"
: >"$out.tmp"
status=0
for workload in trailer_1080p batch_vga_fused serve_small_sweep fleet_chaos_mixed; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --seed "$seed" ${seconds:+--seconds "$seconds"} \
            --trace "$trace" | sed '$d' || status=1
        cat "benchmark/out/result_${workload}_trace${trace}.json" >>"$out.tmp"
    done
    digests="$(tail -n 2 "$out.tmp" | grep -o '"det_digest": "[0-9a-f]*"' | sort -u | wc -l)"
    if [ "$digests" -ne 1 ]; then
        echo "run.sh: $workload: det_digest differs between the untraced and traced pass" >&2
        status=1
    fi
done
mv "$out.tmp" "$out"
echo "result set: $out"
exit "$status"
