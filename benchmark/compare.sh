#!/usr/bin/env bash
# benchmark/compare.sh A.jsonl B.jsonl
#
# Compares two result sets written by `benchmark/run.sh --out FILE` with the
# same seed. Prints one row per (workload, pass, metric) and
# exits 1 if
#   - a det_digest differs,
#   - a metric on the virtual clock, a share or a count differs at all
#     (they are deterministic: a difference is a behaviour change), or
#   - setup_s, host_ms_p50 or host_peak_rss_mb of B is worse than A by
#     more than the metric's bound in BENCHMARK.json.
# Per-layer host-clock metrics are printed and never gated.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 A.jsonl B.jsonl" >&2; exit 2; }
manifest="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"

python3 - "$1" "$2" "$manifest" <<'PY'
import json, sys

def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs[(r["workload"], r["trace"])] = r
    return runs

a, b = load(sys.argv[1]), load(sys.argv[2])
end_to_end = {m["name"]: m for m in json.load(open(sys.argv[3]))["end_to_end"]}

def host_clock(name):
    return "host" in name or name in ("setup_s", "setup.first_s", "trace.overhead_ratio")

failures = []
if set(a) != set(b):
    failures.append(f"the sets hold different runs: {sorted(set(a) ^ set(b))}")
print(f"{'workload':<18} {'pass':<8} {'metric':<34} {'A':>16} {'B':>16} {'B/A-1':>9}  verdict")
for key in sorted(set(a) & set(b)):
    ra, rb = a[key], b[key]
    workload, trace = key
    pass_name = "traced" if trace else "untraced"
    if ra["seed"] != rb["seed"]:
        failures.append(f"{workload} {pass_name}: the sets were run with different seeds")
    same = ra["det_digest"] == rb["det_digest"]
    print(f"{workload:<18} {pass_name:<8} {'det_digest':<34} {ra['det_digest']:>16} {rb['det_digest']:>16} {'':>9}  {'same' if same else 'DIFFERS'}")
    if not same:
        failures.append(f"{workload} {pass_name}: det_digest differs")
    for name, ma in ra["metrics"].items():
        va, vb = ma["value"], rb["metrics"][name]["value"]
        rel = (vb / va - 1.0) if va else (0.0 if vb == va else float("inf"))
        if not host_clock(name):
            verdict = "same" if va == vb else "DIFFERS"
        elif name in end_to_end:
            m = end_to_end[name]
            worse = rel if m["better"] == "lower" else -rel
            verdict = "within" if worse <= m["bound"] else f"WORSE > {m['bound']:.0%}"
        else:
            verdict = "host, not gated"
        if verdict.isupper() or verdict.startswith("WORSE"):
            failures.append(f"{workload} {pass_name}: {name} {va} -> {vb} ({verdict})")
        print(f"{workload:<18} {pass_name:<8} {name:<34} {va:>16.6g} {vb:>16.6g} {rel:>+9.2%}  {verdict}")

for f in failures:
    print("FAIL:", f)
print("compare:", "FAILED" if failures else "ok")
sys.exit(1 if failures else 0)
PY
