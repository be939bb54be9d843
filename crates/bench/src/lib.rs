//! # fd-bench — the experiment harness
//!
//! Six binaries (see DESIGN.md `#experiment-index`):
//!
//! | binary | regenerates |
//! |---|---|
//! | `repro_all [TARGET…]` | the paper's tables and figures, all targets by default: |
//! | ↳ `table1` | Table I — Haar feature combination counts |
//! | ↳ `table2` | Table II — ms/frame, 10 trailers x 2 cascades x 2 modes |
//! | ↳ `fig5` | Fig. 5 — per-frame latency series for the "50/50" trailer |
//! | ↳ `fig6` | Fig. 6 — kernel execution trace across streams |
//! | ↳ `fig7` | Fig. 7 — rejection rate per stage and scale |
//! | ↳ `fig8` | Fig. 8 — GentleBoost iteration time vs threads: measured on the host's cores, beside the SMP model of the paper's machines |
//! | ↳ `fig9` | Fig. 9 — TPR/FP curves at 15/20/25-equivalent stages |
//! | ↳ `counters` | §VI-A text figures: branch efficiency, DRAM throughput, stage shares |
//! | ↳ `ablations`, `ablation_rearrange`, `ablation_softcascade`, `ablation_multigpu` | design ablations and §II alternatives |
//! | `fusion_autotune` | the {fusion} x {autotune} grid at two sizes |
//! | `serve [load\|faults\|fleet\|mixed]` | the serving benches |
//! | `fault_sweep` | stream throughput and frame accounting vs fault rate |
//! | `cnn_eval` | the Haar/CNN accuracy/latency front |
//! | `probe` | developer probe of one 1080p frame (or `--sim`: simulator host cost) |
//!
//! `repro_all` targets take `--frames N` / size flags where applicable
//! and write CSVs under `results/`. The other four benches take no
//! options: their committed `results/BENCH_*.json` is their one
//! configuration, all virtual time, and `scripts/verify.sh` requires a
//! fresh run to reproduce it byte for byte.
//!
//! The library part holds the shared machinery: cached cascade training
//! ([`cascades`]), benchmark runners ([`harness`]), the serving load
//! generators ([`loadgen`]) and result formatting ([`out`]); and the
//! alternatives the ablations compare the paper's pipeline against
//! ([`experiments`]), which no part of the product uses.

pub mod cascades;
pub mod experiments;
pub mod harness;
pub mod loadgen;
pub mod out;

pub use cascades::{trained_cascade_pair, CascadePair, TrainingBudget};
