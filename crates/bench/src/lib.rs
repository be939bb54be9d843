//! # fd-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md `#experiment-index`):
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table I — Haar feature combination counts |
//! | `table2` | Table II — ms/frame, 10 trailers x 2 cascades x 2 modes |
//! | `fig5` | Fig. 5 — per-frame latency series for the "50/50" trailer |
//! | `fig6` | Fig. 6 — kernel execution trace across streams |
//! | `fig7` | Fig. 7 — rejection rate per stage and scale |
//! | `fig8` | Fig. 8 — GentleBoost iteration time vs threads (SMP model) |
//! | `fig9` | Fig. 9 — TPR/FP curves at 15/20/25-equivalent stages |
//! | `counters` | §VI-A text figures: branch efficiency, DRAM throughput, stage shares |
//! | `repro_all` | runs everything above in sequence |
//!
//! All binaries accept `--frames N` / size flags where applicable, print
//! the paper's rows to stdout and write machine-readable CSVs under
//! `results/`.
//!
//! The library part holds the shared machinery: cached cascade training
//! ([`cascades`]), benchmark runners ([`harness`]) and result formatting
//! ([`out`]).

pub mod cascades;
pub mod harness;
pub mod loadgen;
pub mod out;

pub use cascades::{trained_cascade_pair, CascadePair, TrainingBudget};
