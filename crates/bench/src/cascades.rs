//! Trained-cascade management for the benchmarks.
//!
//! Every performance experiment compares two cascades (paper §VI):
//!
//! * **ours** — GentleBoost, compact (the paper's has 1446 weak
//!   classifiers over 25 stages);
//! * **OpenCV-like** — discrete AdaBoost with the same stage goals,
//!   which needs roughly twice the stumps (the paper's baseline has 2913
//!   over 25 stages).
//!
//! Training both takes minutes, so the result is cached on disk (keyed by
//! the budget) under `target/fd-cache/` in the text cascade format.

use std::path::PathBuf;

use fd_boost::synthdata::{synth_faces, NegativeSource};
use fd_boost::trainer::{train_cascade, StageGoals, TrainerConfig};
use fd_boost::{AdaBoost, GentleBoost, WeakLearner};
use fd_haar::{enumerate_features, Cascade, EnumerationRule};

/// Sizing of the training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingBudget {
    /// Keep every `feature_stride`-th feature of the 103 607 enumeration.
    pub feature_stride: usize,
    pub n_faces: usize,
    pub negatives_per_stage: usize,
    pub max_stages: usize,
    /// Per-stage stump cap for the GentleBoost cascade.
    pub max_stumps_per_stage: usize,
    /// Per-stage stump floor for the GentleBoost cascade.
    pub min_stumps_per_stage: usize,
    /// Per-stage goals for the GentleBoost cascade (the paper's own,
    /// aggressively front-loaded: stage 1 rejects >90 % of content).
    pub min_detection_rate: f64,
    pub max_false_positive_rate: f64,
    /// Per-stage goals for the AdaBoost baseline, mirroring OpenCV's
    /// stock `traincascade` settings (keep essentially every positive,
    /// reject half the negatives per stage) — the regime that produces
    /// the stock cascade's fat early stages and slower rejection, the
    /// source of the paper's ~2.5x cascade-swap latency gap.
    pub baseline_min_detection_rate: f64,
    pub baseline_max_false_positive_rate: f64,
    pub baseline_max_stumps_per_stage: usize,
    /// Stump floor for the baseline (the stock OpenCV cascade opens with
    /// 9+ features per stage; see `StageGoals::min_stumps_per_stage`).
    pub baseline_min_stumps_per_stage: usize,
    pub seed: u64,
}

impl Default for TrainingBudget {
    fn default() -> Self {
        Self {
            feature_stride: 23,
            n_faces: 500,
            negatives_per_stage: 400,
            max_stages: 25,
            max_stumps_per_stage: 40,
            min_stumps_per_stage: 5,
            min_detection_rate: 0.997,
            max_false_positive_rate: 0.45,
            baseline_min_detection_rate: 0.999,
            baseline_max_false_positive_rate: 0.5,
            baseline_max_stumps_per_stage: 80,
            baseline_min_stumps_per_stage: 14,
            seed: 0xFACE,
        }
    }
}

impl TrainingBudget {
    /// A drastically smaller budget for unit/integration tests.
    pub fn tiny() -> Self {
        Self {
            feature_stride: 331,
            n_faces: 60,
            negatives_per_stage: 80,
            max_stages: 4,
            max_stumps_per_stage: 10,
            min_stumps_per_stage: 1,
            min_detection_rate: 0.98,
            max_false_positive_rate: 0.5,
            baseline_min_detection_rate: 0.99,
            baseline_max_false_positive_rate: 0.5,
            baseline_max_stumps_per_stage: 12,
            baseline_min_stumps_per_stage: 1,
            seed: 0xFACE,
        }
    }

    fn cache_key(&self, which: &str) -> String {
        format!(
            "{which}-fs{}-nf{}-np{}-ms{}-mx{}-mn{}-dr{}-fp{}-bdr{}-bfp{}-bmx{}-bmn{}-s{:x}.cascade",
            self.feature_stride,
            self.n_faces,
            self.negatives_per_stage,
            self.max_stages,
            self.max_stumps_per_stage,
            self.min_stumps_per_stage,
            (self.min_detection_rate * 1e4) as u64,
            (self.max_false_positive_rate * 1e4) as u64,
            (self.baseline_min_detection_rate * 1e4) as u64,
            (self.baseline_max_false_positive_rate * 1e4) as u64,
            self.baseline_max_stumps_per_stage,
            self.baseline_min_stumps_per_stage,
            self.seed
        )
    }
}

/// The two cascades used throughout the evaluation.
#[derive(Debug, Clone)]
pub struct CascadePair {
    /// GentleBoost, compact ("our cascade").
    pub ours: Cascade,
    /// Discrete AdaBoost ("OpenCV-like" baseline).
    pub opencv_like: Cascade,
}

fn cache_dir() -> PathBuf {
    // Keep alongside build artifacts; safe to delete at any time.
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(target).join("fd-cache")
}

fn trainer_config(budget: &TrainingBudget, baseline: bool) -> TrainerConfig {
    let goals = if baseline {
        StageGoals {
            min_detection_rate: budget.baseline_min_detection_rate,
            max_false_positive_rate: budget.baseline_max_false_positive_rate,
            max_stumps_per_stage: budget.baseline_max_stumps_per_stage,
            min_stumps_per_stage: budget.baseline_min_stumps_per_stage,
        }
    } else {
        StageGoals {
            min_detection_rate: budget.min_detection_rate,
            max_false_positive_rate: budget.max_false_positive_rate,
            max_stumps_per_stage: budget.max_stumps_per_stage,
            min_stumps_per_stage: budget.min_stumps_per_stage,
        }
    };
    TrainerConfig {
        goals,
        max_stages: budget.max_stages,
        negatives_per_stage: budget.negatives_per_stage,
        bootstrap_budget: 400_000,
        seed: budget.seed ^ 0x9E37,
        verbose: std::env::var_os("FD_VERBOSE").is_some(),
    }
}

/// Train (or load from cache) the GentleBoost/AdaBoost cascade pair.
///
/// Resolution order: build cache (`target/fd-cache/`), then — for the
/// default budget only — the pre-trained cascades shipped in `assets/`,
/// then a fresh training run (minutes; cached afterwards).
pub fn trained_cascade_pair(budget: &TrainingBudget) -> CascadePair {
    let dir = cache_dir();
    let ours_path = dir.join(budget.cache_key("ours-gentle"));
    let cv_path = dir.join(budget.cache_key("opencv-like-ada"));
    if let (Ok(ours), Ok(opencv_like)) =
        (fd_haar::io::load(&ours_path), fd_haar::io::load(&cv_path))
    {
        return CascadePair { ours, opencv_like };
    }
    if *budget == TrainingBudget::default() {
        let assets = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../assets");
        if let (Ok(ours), Ok(opencv_like)) = (
            fd_haar::io::load(assets.join("ours-gentle.cascade")),
            fd_haar::io::load(assets.join("opencv-like-ada.cascade")),
        ) {
            eprintln!("[fd-bench] using pre-trained cascades from assets/");
            return CascadePair { ours, opencv_like };
        }
    }

    let pair = train_cascade_pair(budget);
    std::fs::create_dir_all(&dir).ok();
    fd_haar::io::save(&pair.ours, &ours_path).ok();
    fd_haar::io::save(&pair.opencv_like, &cv_path).ok();
    pair
}

/// Train the GentleBoost/AdaBoost cascade pair afresh (no cache). The
/// cascades are the same bytes at any feature-sweep width
/// ([`fd_boost::smp::run_with_threads`]).
pub fn train_cascade_pair(budget: &TrainingBudget) -> CascadePair {
    let features: Vec<_> = enumerate_features(24, EnumerationRule::Icpp2012)
        .into_iter()
        .step_by(budget.feature_stride)
        .collect();
    let faces = synth_faces(budget.n_faces, budget.seed);

    eprintln!("[fd-bench] training cascades ({} features, {} faces)", features.len(), faces.len());
    let train = |learner: &dyn WeakLearner, name: &str, baseline: bool| {
        let t0 = std::time::Instant::now();
        let mut negs = NegativeSource::new(budget.seed ^ 0xBEEF);
        let config = trainer_config(budget, baseline);
        let cascade = train_cascade(learner, name, &faces, &mut negs, &config).cascade;
        eprintln!(
            "[fd-bench] {name}: {} stages, {} stumps ({:.1}s)",
            cascade.depth(),
            cascade.total_stumps(),
            t0.elapsed().as_secs_f64()
        );
        cascade
    };
    let ours = train(&GentleBoost::new(features.clone()), "ours-gentle", false);
    let opencv_like = train(&AdaBoost::new(features), "opencv-like-ada", true);
    CascadePair { ours, opencv_like }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_budget_trains_and_caches() {
        let budget = TrainingBudget { seed: 0x7e57, ..TrainingBudget::tiny() };
        let key = budget.cache_key("ours-gentle");
        let path = cache_dir().join(&key);
        std::fs::remove_file(&path).ok();

        let pair = trained_cascade_pair(&budget);
        assert!(pair.ours.depth() >= 1);
        assert!(pair.opencv_like.depth() >= 1);
        assert!(pair.ours.total_stumps() >= pair.ours.depth() as usize);
        assert!(path.exists(), "cascade must be cached at {path:?}");

        // Second call loads from cache and returns identical cascades.
        let again = trained_cascade_pair(&budget);
        assert_eq!(again.ours, pair.ours);
        assert_eq!(again.opencv_like, pair.opencv_like);
    }

    #[test]
    fn training_is_byte_identical_at_any_sweep_width() {
        let train = |threads| {
            let pair = fd_boost::smp::run_with_threads(threads, || {
                train_cascade_pair(&TrainingBudget::tiny())
            });
            (fd_haar::io::to_text(&pair.ours), fd_haar::io::to_text(&pair.opencv_like))
        };
        let one = train(1);
        for threads in [2, 4] {
            let (ours, opencv_like) = train(threads);
            assert!(ours == one.0, "GentleBoost cascade differs at {threads} threads");
            assert!(opencv_like == one.1, "AdaBoost cascade differs at {threads} threads");
        }
    }

    #[test]
    fn cache_keys_distinguish_budgets() {
        let a = TrainingBudget::default().cache_key("x");
        let b = TrainingBudget { n_faces: 401, ..TrainingBudget::default() }.cache_key("x");
        assert_ne!(a, b);
    }
}
