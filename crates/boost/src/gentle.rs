//! GentleBoost (Friedman, Hastie & Tibshirani 2000), the paper's learning
//! algorithm, with the paper's parallelization pattern: the sweep over
//! feature combinations is task-parallel (scoped threads standing in for
//! `#pragma omp parallel for`), and each feature's response is evaluated
//! for the whole training set with contiguous row arithmetic (the SSE4 /
//! Eigen data parallelism).

use crate::dataset::TrainingSet;
use crate::lut::FeatureLut;
use crate::regression::{fit_regression_stump, StumpFit};
use fd_haar::{HaarFeature, Stump};

/// Shared interface of the two boosting algorithms: pick the best stump
/// for the current sample weights.
pub trait WeakLearner: Sync {
    /// Fit one boosting round; returns the selected stump.
    fn fit_round(&self, set: &TrainingSet, weights: &[f64]) -> Stump;

    /// Row-operations one round performs (for the SMP work model): the
    /// parallelizable feature sweep.
    fn round_parallel_ops(&self, n_samples: usize) -> u64;

    /// Serial operations per round (ranking, weight update).
    fn round_serial_ops(&self, n_samples: usize) -> u64 {
        4 * n_samples as u64
    }

    /// Number of candidate features.
    fn n_features(&self) -> usize;
}

/// Reduction key: (loss, feature index) with a total order, so the
/// sweep's reduction is deterministic regardless of split points.
fn better(a: &(f64, usize, StumpFit), b: &(f64, usize, StumpFit)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// Features per chunk of the sweep. Chunk `c` goes to worker `c % threads`,
/// spreading runs of like-cost neighbours over every worker.
const SWEEP_CHUNK: usize = 32;

/// The feature pool compiled once, shared by both learners.
pub struct FeaturePool {
    pub(crate) features: Vec<HaarFeature>,
    pub(crate) luts: Vec<FeatureLut>,
    pub(crate) n_bins: usize,
}

impl FeaturePool {
    pub fn new(features: Vec<HaarFeature>, n_bins: usize) -> Self {
        assert!(n_bins >= 2);
        let luts = features.iter().map(FeatureLut::from_feature).collect();
        Self { features, luts, n_bins }
    }

    pub fn len(&self) -> usize {
        self.features.len()
    }

    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Total row-ops of one full sweep for `n` samples.
    pub(crate) fn sweep_ops(&self, n: usize) -> u64 {
        self.luts
            .iter()
            .map(|l| (l.ops_per_sample() + 2) as u64 * n as u64 + self.n_bins as u64)
            .sum()
    }

    /// Run `fit` over every feature and return the best `(index, fit)`.
    /// This is the paper's Fig. 4 loop: fixed chunks of the pool run on
    /// [`crate::smp::sweep_threads`] scoped threads and are reduced with
    /// [`better`], so the choice is the same at any thread count.
    pub(crate) fn best_fit(
        &self,
        set: &TrainingSet,
        weights: &[f64],
        fit: impl Fn(&[i32], &[f32], &[f64], usize) -> StumpFit + Sync,
    ) -> (usize, StumpFit) {
        let n = set.len();
        let labels = set.labels();
        let init = || {
            (
                f64::INFINITY,
                usize::MAX,
                StumpFit { threshold: 0, left: 0.0, right: 0.0, loss: f64::INFINITY },
            )
        };
        let chunks = self.luts.chunks(SWEEP_CHUNK).enumerate();
        let threads = crate::smp::sweep_threads().min(chunks.len()).max(1);
        let sweep = |worker: usize| {
            let mut buf = vec![0i32; n];
            let mut best = init();
            for (c, luts) in chunks.clone().skip(worker).step_by(threads) {
                for (i, lut) in luts.iter().enumerate() {
                    lut.eval_all(set, &mut buf);
                    let f = fit(&buf, labels, weights, self.n_bins);
                    let cand = (f.loss, c * SWEEP_CHUNK + i, f);
                    if better(&cand, &best) {
                        best = cand;
                    }
                }
            }
            best
        };
        let best = std::thread::scope(|scope| {
            let workers: Vec<_> = (1..threads).map(|w| scope.spawn(move || sweep(w))).collect();
            let mut best = sweep(0);
            for w in workers {
                let b = w.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                if better(&b, &best) {
                    best = b;
                }
            }
            best
        });
        assert!(best.1 != usize::MAX, "empty feature pool");
        (best.1, best.2)
    }
}

/// GentleBoost: regression stumps, multiplicative weight update
/// `w <- w * exp(-y f(x))`.
pub struct GentleBoost {
    pub pool: FeaturePool,
}

impl GentleBoost {
    pub fn new(features: Vec<HaarFeature>) -> Self {
        Self { pool: FeaturePool::new(features, 256) }
    }
}

impl WeakLearner for GentleBoost {
    fn fit_round(&self, set: &TrainingSet, weights: &[f64]) -> Stump {
        let (idx, fit) = self.pool.best_fit(set, weights, fit_regression_stump);
        Stump {
            feature: self.pool.features[idx],
            threshold: fit.threshold,
            left: fit.left,
            right: fit.right,
        }
    }

    fn round_parallel_ops(&self, n_samples: usize) -> u64 {
        self.pool.sweep_ops(n_samples)
    }

    fn n_features(&self) -> usize {
        self.pool.len()
    }
}

/// The shared boosting weight update `w_i <- w_i * exp(-y_i f(x_i))`,
/// renormalized to sum 1. Returns the stump's responses for reuse.
pub fn update_weights(stump: &Stump, set: &TrainingSet, weights: &mut [f64]) -> Vec<f32> {
    let n = set.len();
    assert_eq!(weights.len(), n);
    let lut = FeatureLut::from_feature(&stump.feature);
    let mut responses = vec![0i32; n];
    lut.eval_all(set, &mut responses);
    let mut outputs = Vec::with_capacity(n);
    let labels = set.labels();
    let mut total = 0.0f64;
    for i in 0..n {
        let f = stump.eval_response(responses[i]);
        outputs.push(f);
        weights[i] *= (-(labels[i] as f64) * f as f64).exp();
        total += weights[i];
    }
    assert!(total > 0.0, "weights collapsed to zero");
    for w in weights.iter_mut() {
        *w /= total;
    }
    outputs
}

/// Initial weights: each class carries half the mass (Viola-Jones style).
pub fn initial_weights(set: &TrainingSet) -> Vec<f64> {
    let p = set.positives().max(1) as f64;
    let n = set.negatives().max(1) as f64;
    set.labels().iter().map(|&y| if y > 0.0 { 0.5 / p } else { 0.5 / n }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_haar::{enumerate_kind, EnumerationRule, FeatureKind};
    use fd_imgproc::GrayImage;

    /// Tiny corpus: faces are left-dark/right-bright 24x24 windows,
    /// negatives are flat. An EdgeH feature separates them perfectly.
    fn toy_set() -> TrainingSet {
        let mut imgs = Vec::new();
        for i in 0..8 {
            let hi = 200.0 + i as f32 * 5.0;
            imgs.push((
                GrayImage::from_fn(24, 24, move |x, _| if x < 12 { 20.0 } else { hi }),
                1.0f32,
            ));
        }
        for i in 0..8 {
            let v = 60.0 + i as f32 * 10.0;
            imgs.push((GrayImage::from_fn(24, 24, move |_, _| v), -1.0f32));
        }
        let refs: Vec<(&GrayImage, f32)> = imgs.iter().map(|(i, l)| (i, *l)).collect();
        TrainingSet::from_samples(refs)
    }

    fn small_pool() -> Vec<fd_haar::HaarFeature> {
        // EdgeH features only, subsampled for speed.
        enumerate_kind(FeatureKind::EdgeH, 24, EnumerationRule::Icpp2012)
            .into_iter()
            .step_by(97)
            .collect()
    }

    #[test]
    fn gentleboost_first_round_separates_toy_data() {
        let set = toy_set();
        let gb = GentleBoost::new(small_pool());
        let w = initial_weights(&set);
        let stump = gb.fit_round(&set, &w);
        // The stump must classify every sample correctly by sign.
        for col in 0..set.len() {
            let ii = set.integral_of(col);
            let out = stump.eval(&ii, 0, 0);
            assert_eq!(
                out > 0.0,
                set.labels()[col] > 0.0,
                "col {col}: out {out}, label {}",
                set.labels()[col]
            );
        }
    }

    #[test]
    fn weight_update_shifts_mass_to_errors() {
        let set = toy_set();
        let gb = GentleBoost::new(small_pool());
        let mut w = initial_weights(&set);
        let stump = gb.fit_round(&set, &w);
        let before = w.clone();
        update_weights(&stump, &set, &mut w);
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "weights renormalized");
        // Correctly classified samples lose relative weight.
        for i in 0..set.len() {
            assert!(w[i] <= before[i] * 1.5, "no sample explodes on separable data");
        }
    }

    #[test]
    fn initial_weights_balance_classes() {
        let set = toy_set();
        let w = initial_weights(&set);
        let pos: f64 = w.iter().zip(set.labels()).filter(|&(_, &y)| y > 0.0).map(|(w, _)| w).sum();
        assert!((pos - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fit_is_deterministic_across_runs() {
        let set = toy_set();
        let gb = GentleBoost::new(small_pool());
        let w = initial_weights(&set);
        let a = gb.fit_round(&set, &w);
        let b = gb.fit_round(&set, &w);
        assert_eq!(a, b);
    }

    #[test]
    fn work_model_counts_scale_with_samples_and_features() {
        let gb = GentleBoost::new(small_pool());
        let o1 = gb.round_parallel_ops(100);
        let o2 = gb.round_parallel_ops(200);
        assert!(o2 > o1 && o2 < 2 * o1 + gb.n_features() as u64 * 600);
    }
}
