#!/usr/bin/env bash
# scripts/bench_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD [PAIRS=10] [SEED=1]
#
# The procedure behind every host-time claim in CHANGES.md: run two
# `fd-benchmark` binaries (parent commit, change) turn by turn on one
# workload, untraced, alternating which side goes first, and report for
# each host row (host_ms_p50, host_peak_rss_mb, setup_s) every run's
# value, each side's median and quartiles, and in how many pairs the
# change was lower, and whether the claim rule holds (at least ten pairs,
# the change lower in at least nine tenths of them, the medians apart by
# more than the parent's interquartile distance); and a verdict per
# end-to-end metric of BENCHMARK.json: the change's median against the
# parent's and the metric's bound, or "unresolved" where the parent's own
# interquartile distance, as a share of its median, is wider than the
# bound (a median moved by less than the spread says nothing) and not
# every change run beats every parent run. Single runs
# of host_ms_p50 spread a few percent on this box and slow phases last a
# whole run, so only alternating pairs separate a change from the noise.
#
# Build each side into its own target dir first, e.g.
#   git clone . /tmp/parent && (cd /tmp/parent && git checkout <rev> &&
#     CARGO_TARGET_DIR=/tmp/parent_target cargo build --release --offline \
#       --manifest-path benchmark/Cargo.toml)
# Run from the repo root (the binaries read assets/), never next to
# another benchmark run (each uses every core). After the pairs, one
# traced run per side gives the per-layer attribution: every
# `gpu.<stage>.host_us`, `gpu.host_us_per_block`,
# `gpu.overhead.host_us_per_launch` and `gpu.kernel_body.host_share` side
# by side (one run each, so read them against the spread of the pairs
# above), each `gpu.<stage>.host_us` also as a share of that run's summed
# stage host time (one traced run can run 14-21 % slow or fast as a whole,
# untouched kernels too, so a layer moved only if its share moved),
# `detector.pool_bytes` side by side (the device footprint that
# moves host_peak_rss_mb), and whether the deterministic `gpu.*` and
# `detector.*` rows (launches, blocks, virtual time, bytes, branch
# efficiency, timeline, levels, pool bytes, windows) are equal. The last
# line printed is one
# JSON object with both sides' medians of the nine end-to-end metrics, in
# the shape of a results/TRAJECTORY.jsonl workload entry.
set -euo pipefail
[ $# -ge 3 ] || { echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD [PAIRS=10] [SEED=1]" >&2; exit 2; }
parent="$1" change="$2" workload="$3" pairs="${4:-10}" seed="${5:-1}"
cd "$(dirname "$0")/.."
# The harness refuses to run with a simulator knob set.
unset FD_SIM_THREADS FD_SIM_HOST_EXEC FD_SIM_FUSION FD_SIM_AUTOTUNE

runs="$(mktemp)"
log="$(mktemp)"
traced="$(mktemp)"
trap 'rm -f "$runs" "$log" "$traced"' EXIT
one() { # side binary -> "side <TAB> det_digest <TAB> result JSON (the run's last line)"
    "$2" --workload "$workload" --seed "$seed" --trace 0 >"$log"
    printf '%s\t%s\t%s\n' "$1" "$(awk '$1 == "det_digest" { print $2 }' "$log")" \
        "$(tail -n 1 "$log")" >>"$runs"
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        one parent "$parent"; one change "$change"
    else
        one change "$change"; one parent "$parent"
    fi
    echo "pair $i/$pairs done" >&2
done
for side in "$parent" "$change"; do # traced result JSON, parent's line first
    "$side" --workload "$workload" --seed "$seed" --trace 1 | tail -n 1 >>"$traced"
done

python3 - "$runs" "$workload" "$pairs" "$seed" "$traced" <<'PY'
import json, statistics, sys

path, workload, pairs, seed = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
traced_parent, traced_change = (json.loads(line)["metrics"] for line in open(sys.argv[5]))
sides = {"parent": [], "change": []}
digests = {"parent": set(), "change": set()}
for line in open(path):
    side, digest, record = line.rstrip("\n").split("\t", 2)
    sides[side].append(json.loads(record))
    digests[side].add(digest)

def values(side, name):
    return [r["metrics"][name]["value"] for r in sides[side]]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]

print(f"{workload}, seed {seed}, {pairs} alternating pairs, untraced")
for side in ("parent", "change"):
    for r in sides[side]:
        if not r["correct"]:
            print(f"{side}: a run failed its output checks", file=sys.stderr)
            sys.exit(1)
    for name, fmt in (("host_ms_p50", ".3f"), ("host_peak_rss_mb", ".1f"), ("setup_s", ".4f")):
        q1, med, q3 = quartiles(values(side, name))
        print(f"{side:<7} {name:<16} median {med:{fmt}}, quartiles {q1:{fmt}} / {q3:{fmt}}, runs "
              + " ".join(f"{v:{fmt}}" for v in values(side, name)))
for name, fmt in (("host_ms_p50", ".3f"), ("host_peak_rss_mb", ".1f"), ("setup_s", ".4f")):
    p, c = values("parent", name), values("change", name)
    wins = sum(cv < pv for pv, cv in zip(p, c))
    ties = sum(cv == pv for pv, cv in zip(p, c))
    pm, cm = statistics.median(p), statistics.median(c)
    pq1, _, pq3 = quartiles(p)
    moved = f"{(cm / pm - 1) * 100:+.1f} %" if pm else "-"
    print(f"{name}: change lower in {wins} of {pairs} pairs ({ties} ties); medians {pm:{fmt}} -> "
          f"{cm:{fmt}} ({moved} of the parent); parent interquartile distance {pq3 - pq1:{fmt}}")
    # The claim rule: at least ten pairs, the change lower in at least nine
    # tenths of them (ties count for neither side), and its median below
    # the parent's by more than the parent's interquartile distance.
    unmet = [why for why, ok in (
        (f"{pairs} pairs < 10", pairs >= 10),
        (f"lower in {wins} of {pairs} < 9/10", wins >= 0.9 * pairs),
        (f"median gap {pm - cm:{fmt}} <= parent interquartile distance {pq3 - pq1:{fmt}}",
         pm - cm > pq3 - pq1),
    ) if not ok]
    print(f"{name}: claim rule " + ("MET" if not unmet else "not met: " + "; ".join(unmet)))
print(f"det_digest parent {sorted(digests['parent'])} change {sorted(digests['change'])}"
      + ("" if digests["parent"] == digests["change"] else "  <- DIFFERS"))
print("end to end, change median against parent median and the BENCHMARK.json bound; the "
      "parent's interquartile distance as a share of its median:")
for metric in json.load(open("BENCHMARK.json"))["end_to_end"]:
    name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
    p, c = values("parent", name), values("change", name)
    pv, cv = statistics.median(p), statistics.median(c)
    worse = (cv - pv if lower else pv - cv) / abs(pv) if pv else 0.0
    pq1, _, pq3 = quartiles(p)
    spread = (pq3 - pq1) / abs(pv) if pv else (0.0 if pq3 == pq1 else float("inf"))
    # Every change run better than every parent run resolves any spread.
    apart = max(c) < min(p) if lower else min(c) > max(p)
    if worse > bound:
        verdict = "WORSE than bound"
    elif spread > bound and not apart:
        verdict = "unresolved"
    else:
        verdict = "better" if worse < 0 else "within bound"
    print(f"  {name:<26} {pv:>12.4f} -> {cv:>12.4f}  {worse * 100:+6.1f} % worse "
          f"(bound {bound * 100:.0f} %, spread {spread * 100:.0f} %)  {verdict}")
print("per layer, one traced run per side: parent -> change; a stage's share of its run's "
      "summed stage host time")
host_rows = [n for n in traced_parent if n.startswith("gpu.") and n.endswith(".host_us")]
stage_sums = [sum(t[n]["value"] for n in host_rows) for t in (traced_parent, traced_change)]
for name in host_rows + ["gpu.host_us_per_block", "gpu.overhead.host_us_per_launch",
                         "gpu.kernel_body.host_share"]:
    pv, cv = traced_parent[name]["value"], traced_change[name]["value"]
    moved = f"{(cv / pv - 1) * 100:+.1f} %" if pv else "-"
    share = ""
    if name in host_rows:
        ps, cs = (v / s * 100 if s else 0.0 for v, s in zip((pv, cv), stage_sums))
        share = f"  share {ps:5.1f} % -> {cs:5.1f} %"
    print(f"  {name:<34} {pv:>14.3f} -> {cv:>14.3f} {traced_parent[name]['unit']:<3} {moved:>8}"
          + share)
if "detector.pool_bytes" in traced_parent:
    pv, cv = (t["detector.pool_bytes"]["value"] for t in (traced_parent, traced_change))
    moved = f"{(cv / pv - 1) * 100:+.1f} %" if pv else "-"
    print(f"  {'detector.pool_bytes':<34} {pv:>14.0f} -> {cv:>14.0f} B   {moved}")
moved_rows = [n for n in traced_parent
              if n.startswith(("gpu.", "detector.")) and "host" not in n
              and traced_parent[n]["value"] != traced_change[n]["value"]]
print("  deterministic gpu.* and detector.* rows (launches, blocks, virt_us, global_bytes, "
      "branch_eff, timeline, levels, pool_bytes, windows): "
      + ("equal" if not moved_rows else "DIFFER " + " ".join(moved_rows)))
names = ["setup_s", "virt_ms_p50", "virt_ms_tail", "virt_ops_per_s", "virt_concurrency_speedup",
         "slo_met_share", "ok_share", "host_ms_p50", "host_peak_rss_mb"]
print(json.dumps({side: {workload: {"runs": len(sides[side]),
                                    **{n: statistics.median(values(side, n)) for n in names}}}
                  for side in ("parent", "change")}))
PY
