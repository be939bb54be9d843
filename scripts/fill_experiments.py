#!/usr/bin/env python3
"""Regenerate the measured sections of EXPERIMENTS.md from results/*.csv.

Run after `cargo run -p fd-bench --release --bin repro_all` (every target).
"""
import csv, io, math, os, re, sys

R = os.path.join(os.path.dirname(__file__), "..", "results")

def rows(name):
    with open(os.path.join(R, name)) as f:
        return list(csv.DictReader(f))

out = []

# Table II
t2 = rows("table2.csv")
out.append("### Table II (measured)\n")
out.append("| trailer | ours conc | ours serial | cv conc | cv serial | combined |")
out.append("|---|---|---|---|---|---|")
for r in t2:
    out.append("| {} | {:.2f} | {:.2f} | {:.2f} | {:.2f} | {:.2f}x |".format(
        r["trailer"], float(r["ours_concurrent_ms"]), float(r["ours_serial_ms"]),
        float(r["cv_concurrent_ms"]), float(r["cv_serial_ms"]), float(r["combined_speedup"])))
geo = lambda f: math.exp(sum(math.log(f(r)) for r in t2) / len(t2))
conc = geo(lambda r: float(r["ours_serial_ms"]) / float(r["ours_concurrent_ms"]))
casc = geo(lambda r: float(r["cv_concurrent_ms"]) / float(r["ours_concurrent_ms"]))
comb = geo(lambda r: float(r["combined_speedup"]))
fps = sum(float(r["fps_ours_concurrent"]) for r in t2) / len(t2)
out.append("")
out.append(f"geomean speedups: concurrency {conc:.2f}x (paper ~2x), cascade swap {casc:.2f}x"
           f" (paper ~2.5x), combined {comb:.2f}x (paper ~5x); mean pipelined fps {fps:.0f}"
           f" (paper ~70).")
print("\n".join(out))
