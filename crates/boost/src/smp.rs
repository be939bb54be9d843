//! SMP scaling of the training loop (paper Fig. 8).
//!
//! The paper measures one GentleBoost iteration — the full sweep over
//! every Haar combination for every training image — on two machines while
//! varying `OMP_NUM_THREADS` from 1 to 8: a dual quad-core Xeon E5472
//! (~370 s single-threaded) and a Core i7-2600K (~185 s, i.e. 2x faster),
//! both reaching ~3.5x speedup at 8 threads.
//!
//! Neither machine is at hand, so Fig. 8 is regenerated in two parts: a
//! *measurement* of one real round ([`measure_round_seconds`]) at each
//! sweep width [`run_with_threads`] sets, up to the host's cores; and a
//! *model* of the paper's machines: the work of an iteration
//! (parallelizable row-ops of the feature sweep, serial ops of
//! ranking/reweighting) is counted from the real implementation
//! ([`IterationWork::from_learner`]) and replayed through calibrated
//! [`MachineProfile`]s whose parameters encode documented hardware
//! characteristics: per-core effective throughput (anchored so the
//! paper's full workload lands at the paper's single-thread times),
//! physical core counts, SMT yield (i7: 4 cores + HT), and a per-thread
//! coordination/bandwidth penalty (large for the FSB-based Xeon, small for
//! the on-die-controller i7).

use std::cell::Cell;

use crate::dataset::TrainingSet;
use crate::gentle::WeakLearner;

/// Work content of one boosting iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationWork {
    /// Row-operations in the parallel feature sweep.
    pub parallel_ops: u64,
    /// Operations in the serial section (ranking, weight update).
    pub serial_ops: u64,
}

impl IterationWork {
    /// Measure from a learner and a training-set size.
    pub fn from_learner(learner: &dyn WeakLearner, n_samples: usize) -> Self {
        Self {
            parallel_ops: learner.round_parallel_ops(n_samples),
            serial_ops: learner.round_serial_ops(n_samples),
        }
    }

    /// The paper's full workload: the complete 103 607-feature enumeration
    /// over 11 742 faces + 3 500 backgrounds. Row-ops are computed exactly
    /// from the feature LUT sizes.
    pub fn paper_workload() -> Self {
        use fd_haar::{enumerate_features, EnumerationRule};
        let n_samples = 11_742 + 3_500;
        let parallel_ops: u64 = enumerate_features(24, EnumerationRule::Icpp2012)
            .iter()
            .map(|f| {
                let lut = crate::lut::FeatureLut::from_feature(f);
                (lut.ops_per_sample() + 2) as u64 * n_samples as u64 + 256
            })
            .sum();
        Self { parallel_ops, serial_ops: 4 * n_samples as u64 }
    }
}

/// Calibrated machine model.
#[derive(Debug, Clone)]
pub struct MachineProfile {
    pub name: &'static str,
    /// Physical cores visible to the scheduler.
    pub physical_cores: u32,
    /// Fraction of a core an extra SMT thread contributes (0 = no SMT).
    pub smt_yield: f64,
    /// Effective row-ops per second per core, anchored to the paper.
    pub ops_per_sec: f64,
    /// Per-extra-thread penalty folding in synchronization cost and,
    /// dominantly, memory-bandwidth contention: the sweep streams the
    /// whole dataset per feature, so threads compete for DRAM. Large for
    /// the FSB-based Xeon, smaller for the on-die-controller i7.
    pub sync_overhead: f64,
}

impl MachineProfile {
    /// Dual Intel Xeon E5472 (2 x 4 cores, 3.0 GHz, FSB memory path).
    /// Throughput anchored so [`IterationWork::paper_workload`] takes
    /// ~370 s on one thread; the FSB shows up as a large per-thread
    /// contention penalty.
    pub fn dual_xeon_e5472() -> Self {
        Self {
            name: "Dual Intel Xeon E5472",
            physical_cores: 8,
            smt_yield: 0.0,
            ops_per_sec: 4.3e7,
            sync_overhead: 0.18,
        }
    }

    /// Intel Core i7-2600K (4 cores + HT, 3.4 GHz, on-die memory
    /// controller): ~2x the per-core throughput of the Xeon (the paper's
    /// observation), modest SMT yield, small contention penalty.
    pub fn core_i7_2600k() -> Self {
        Self {
            name: "Intel Core i7-2600K",
            physical_cores: 4,
            smt_yield: 0.42,
            ops_per_sec: 8.6e7,
            sync_overhead: 0.089,
        }
    }

    /// Effective parallel capacity at `threads` software threads.
    pub fn effective_threads(&self, threads: u32) -> f64 {
        let phys = threads.min(self.physical_cores) as f64;
        let smt = threads.saturating_sub(self.physical_cores).min(self.physical_cores) as f64;
        phys + self.smt_yield * smt
    }

    /// Predicted wall time (seconds) for one iteration at `threads`.
    pub fn predict_seconds(&self, work: &IterationWork, threads: u32) -> f64 {
        assert!(threads >= 1);
        let serial = work.serial_ops as f64 / self.ops_per_sec;
        let eff = self.effective_threads(threads);
        let contention = 1.0 + self.sync_overhead * (threads as f64 - 1.0);
        let parallel = work.parallel_ops as f64 / (self.ops_per_sec * eff) * contention;
        serial + parallel
    }

    /// Predicted speedup at `threads` relative to one thread.
    pub fn predict_speedup(&self, work: &IterationWork, threads: u32) -> f64 {
        self.predict_seconds(work, 1) / self.predict_seconds(work, threads)
    }
}

thread_local! {
    static SWEEP_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Threads a feature sweep called from this thread runs on: the width
/// [`run_with_threads`] set, else the host's available parallelism.
pub(crate) fn sweep_threads() -> usize {
    let host = || std::thread::available_parallelism().map_or(1, usize::from);
    SWEEP_THREADS.get().unwrap_or_else(host)
}

/// Run `f` with every feature sweep it makes on this thread `threads`
/// wide (the `OMP_NUM_THREADS` sweep of the paper). The chosen stumps do
/// not depend on the width, only the wall time does.
pub fn run_with_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    assert!(threads >= 1, "a sweep needs at least one thread");
    let outer = SWEEP_THREADS.replace(Some(threads));
    let out = f();
    SWEEP_THREADS.set(outer);
    out
}

/// Wall-clock one real boosting round at a given thread count.
pub fn measure_round_seconds(
    learner: &(dyn WeakLearner + Sync),
    set: &TrainingSet,
    threads: usize,
) -> f64 {
    let weights = crate::gentle::initial_weights(set);
    run_with_threads(threads, || {
        let t0 = std::time::Instant::now();
        let _ = learner.fit_round(set, &weights);
        t0.elapsed().as_secs_f64()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paperish_work() -> IterationWork {
        // ~103k features x ~15k samples x ~10 ops: precomputed to keep the
        // test fast; the exact figure is covered by paper_workload tests
        // in the bench crate.
        IterationWork { parallel_ops: 16_000_000_000, serial_ops: 61_000 }
    }

    #[test]
    fn xeon_single_thread_lands_near_the_papers_370s() {
        let w = paperish_work();
        let t = MachineProfile::dual_xeon_e5472().predict_seconds(&w, 1);
        assert!((300.0..450.0).contains(&t), "Xeon 1-thread {t:.0}s");
    }

    #[test]
    fn i7_is_about_twice_the_xeon() {
        let w = paperish_work();
        let xeon = MachineProfile::dual_xeon_e5472().predict_seconds(&w, 1);
        let i7 = MachineProfile::core_i7_2600k().predict_seconds(&w, 1);
        let ratio = xeon / i7;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio:.2}");
    }

    #[test]
    fn both_machines_reach_about_3_5x_at_8_threads() {
        let w = paperish_work();
        for m in [MachineProfile::dual_xeon_e5472(), MachineProfile::core_i7_2600k()] {
            let s = m.predict_speedup(&w, 8);
            assert!((3.0..4.2).contains(&s), "{}: speedup {s:.2}", m.name);
        }
    }

    #[test]
    fn speedup_is_monotone_in_threads() {
        let w = paperish_work();
        for m in [MachineProfile::dual_xeon_e5472(), MachineProfile::core_i7_2600k()] {
            let mut prev = 0.0;
            for t in 1..=8 {
                let s = m.predict_speedup(&w, t);
                assert!(s > prev, "{} at {t} threads: {s} <= {prev}", m.name);
                prev = s;
            }
        }
    }

    #[test]
    fn effective_threads_model_smt() {
        let i7 = MachineProfile::core_i7_2600k();
        assert_eq!(i7.effective_threads(4), 4.0);
        assert!((i7.effective_threads(8) - (4.0 + 0.42 * 4.0)).abs() < 1e-12);
        let xeon = MachineProfile::dual_xeon_e5472();
        assert_eq!(xeon.effective_threads(8), 8.0);
        assert_eq!(xeon.effective_threads(12), 8.0);
    }

    #[test]
    fn run_with_threads_spreads_the_sweep_over_threads() {
        use crate::testsupport::{small_pool, toy_set};
        use std::collections::HashSet;
        use std::sync::Mutex;
        let pool = crate::FeaturePool::new(small_pool(), 256);
        assert!(pool.len() > 3 * 32, "the pool must span more chunks than threads");
        let (set, ids) = (toy_set(), Mutex::new(HashSet::new()));
        let weights = crate::gentle::initial_weights(&set);
        let traced = |r: &[i32], y: &[f32], w: &[f64], bins| {
            ids.lock().unwrap().insert(std::thread::current().id());
            crate::fit_regression_stump(r, y, w, bins)
        };
        let (idx, _) = run_with_threads(4, || pool.best_fit(&set, &weights, traced));
        assert!(ids.lock().unwrap().len() > 1, "the sweep ran on one thread");
        let (alone, _) = run_with_threads(1, || pool.best_fit(&set, &weights, traced));
        assert_eq!(idx, alone);
    }
}
