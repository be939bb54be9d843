//! Attentional-cascade training (paper §IV).
//!
//! "We implemented GentleBoost using a single large loop, which iteratively
//! builds a cascade by adding at each iteration a new classifier until both
//! the target hit and false acceptance rate are met. An additional
//! bootstrapping routine is added at the end of the loop..."
//!
//! The builder adds stumps to the current stage until the stage — with its
//! threshold calibrated to keep `min_detection_rate` of the positives —
//! rejects enough negatives, then bootstraps a fresh pool of hard
//! negatives and opens the next stage. Works with either weak learner
//! ([`crate::GentleBoost`] or [`crate::AdaBoost`]).

use crate::dataset::TrainingSet;
use crate::gentle::{initial_weights, update_weights, WeakLearner};
use crate::synthdata::NegativeSource;
use fd_haar::{Cascade, Stage, WINDOW};
use fd_imgproc::GrayImage;

/// Per-stage acceptance goals.
#[derive(Debug, Clone, Copy)]
pub struct StageGoals {
    /// Fraction of positives every stage must keep (e.g. 0.995).
    pub min_detection_rate: f64,
    /// Fraction of current negatives a finished stage may still accept
    /// (e.g. 0.5).
    pub max_false_positive_rate: f64,
    /// Hard cap on stumps per stage.
    pub max_stumps_per_stage: usize,
    /// Floor on stumps per stage. Production cascades keep adding weak
    /// classifiers beyond the false-positive goal to harden the stage
    /// against unseen content (the stock OpenCV frontal cascade opens
    /// with 9+ features); the floor reproduces that structure when the
    /// synthetic negative pool is easier than real photographs.
    pub min_stumps_per_stage: usize,
}

impl Default for StageGoals {
    fn default() -> Self {
        Self {
            min_detection_rate: 0.995,
            max_false_positive_rate: 0.5,
            max_stumps_per_stage: 60,
            min_stumps_per_stage: 1,
        }
    }
}

/// Full trainer configuration.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    pub goals: StageGoals,
    pub max_stages: usize,
    /// Negative-pool size per stage.
    pub negatives_per_stage: usize,
    /// Bootstrap candidate budget per stage (gives up when the cascade
    /// has become too good at rejecting the background distribution).
    pub bootstrap_budget: usize,
    /// Seed for the negative source.
    pub seed: u64,
    /// Print per-stage progress on stderr.
    pub verbose: bool,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            goals: StageGoals::default(),
            max_stages: 25,
            negatives_per_stage: 500,
            bootstrap_budget: 200_000,
            seed: 0x5eed,
            verbose: false,
        }
    }
}

/// Per-stage training statistics.
#[derive(Debug, Clone)]
pub struct StageStats {
    pub stumps: usize,
    /// Detection rate on the positive set after threshold calibration.
    pub detection_rate: f64,
    /// False-positive rate on the stage's negative pool.
    pub false_positive_rate: f64,
}

/// A trained cascade plus bookkeeping.
#[derive(Debug, Clone)]
pub struct TrainedCascade {
    pub cascade: Cascade,
    pub stages: Vec<StageStats>,
    /// Total boosting rounds executed.
    pub rounds: usize,
    /// Parallelizable row-ops executed across all rounds (SMP model input).
    pub parallel_ops: u64,
}

/// Train a cascade on `positives` with bootstrapped synthetic negatives.
pub fn train_cascade(
    learner: &dyn WeakLearner,
    name: &str,
    positives: &[GrayImage],
    negatives: &mut NegativeSource,
    config: &TrainerConfig,
) -> TrainedCascade {
    assert!(!positives.is_empty(), "need positive samples");
    let pos_set = TrainingSet::from_samples(positives.iter().map(|i| (i, 1.0f32)));

    let mut cascade = Cascade::new(name, WINDOW);
    let mut stats = Vec::new();
    let mut rounds = 0usize;
    let mut parallel_ops = 0u64;

    // Stage-0 negatives are unconditioned; later pools are bootstrapped
    // against the growing cascade.
    let mut neg_imgs = negatives.initial(config.negatives_per_stage);

    for stage_idx in 0..config.max_stages {
        if neg_imgs.is_empty() {
            if config.verbose {
                eprintln!("[train {name}] negatives exhausted; stopping at stage {stage_idx}");
            }
            break;
        }
        let neg_set = TrainingSet::from_samples(neg_imgs.iter().map(|i| (i, -1.0f32)));
        let set = pos_set.concat(&neg_set);
        let mut weights = initial_weights(&set);

        // Running strong-classifier outputs per sample for this stage.
        let mut scores = vec![0.0f32; set.len()];
        let mut stage = Stage { stumps: Vec::new(), threshold: 0.0 };
        let (mut dr, mut fpr) = (0.0f64, 1.0f64);

        while stage.stumps.len() < config.goals.max_stumps_per_stage {
            let stump = learner.fit_round(&set, &weights);
            parallel_ops += learner.round_parallel_ops(set.len());
            rounds += 1;
            let outputs = update_weights(&stump, &set, &mut weights);
            for (s, o) in scores.iter_mut().zip(&outputs) {
                *s += o;
            }
            stage.stumps.push(stump);

            // Calibrate the stage threshold on the positive scores so at
            // least `min_detection_rate` of them pass.
            let mut pos_scores: Vec<f32> = scores[..pos_set.len()].to_vec();
            pos_scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let drop = ((1.0 - config.goals.min_detection_rate) * pos_scores.len() as f64).floor()
                as usize;
            let threshold = pos_scores[drop.min(pos_scores.len() - 1)];
            stage.threshold = threshold;

            let passed_pos = scores[..pos_set.len()].iter().filter(|&&s| s >= threshold).count();
            let passed_neg = scores[pos_set.len()..].iter().filter(|&&s| s >= threshold).count();
            dr = passed_pos as f64 / pos_set.len() as f64;
            fpr = passed_neg as f64 / neg_set.len() as f64;
            if fpr <= config.goals.max_false_positive_rate
                && stage.stumps.len() >= config.goals.min_stumps_per_stage
            {
                break;
            }
        }

        if config.verbose {
            eprintln!(
                "[train {name}] stage {stage_idx}: {} stumps, dr {dr:.4}, fpr {fpr:.4}",
                stage.stumps.len()
            );
        }
        stats.push(StageStats {
            stumps: stage.stumps.len(),
            detection_rate: dr,
            false_positive_rate: fpr,
        });
        cascade.stages.push(stage);

        if stage_idx + 1 < config.max_stages {
            neg_imgs =
                negatives.bootstrap(&cascade, config.negatives_per_stage, config.bootstrap_budget);
        }
    }

    TrainedCascade { cascade, stages: stats, rounds, parallel_ops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gentle::GentleBoost;
    use crate::synthdata::synth_faces;
    use crate::AdaBoost;
    use fd_haar::{enumerate_features, EnumerationRule};
    use fd_imgproc::IntegralImage;

    fn quick_pool() -> Vec<fd_haar::HaarFeature> {
        enumerate_features(24, EnumerationRule::Icpp2012).into_iter().step_by(331).collect()
    }

    fn quick_config(stages: usize) -> TrainerConfig {
        TrainerConfig {
            goals: StageGoals {
                min_detection_rate: 0.98,
                max_false_positive_rate: 0.5,
                max_stumps_per_stage: 12,
                min_stumps_per_stage: 1,
            },
            max_stages: stages,
            negatives_per_stage: 80,
            bootstrap_budget: 20_000,
            seed: 5,
            verbose: false,
        }
    }

    #[test]
    fn gentleboost_cascade_learns_synthetic_faces() {
        let faces = synth_faces(60, 11);
        let mut negs = NegativeSource::new(22);
        let gb = GentleBoost::new(quick_pool());
        let trained = train_cascade(&gb, "test-gentle", &faces, &mut negs, &quick_config(3));
        assert!(!trained.cascade.stages.is_empty());
        assert!(trained.rounds >= trained.cascade.depth() as usize);
        assert!(trained.parallel_ops > 0);

        // Held-out faces mostly pass; held-out flat negatives mostly fail.
        let test_faces = synth_faces(30, 999);
        let hits = test_faces
            .iter()
            .filter(|f| trained.cascade.classify(&IntegralImage::from_gray(f), 0, 0))
            .count();
        assert!(hits >= 24, "only {hits}/30 held-out faces detected");

        let mut src = NegativeSource::new(777);
        let test_negs = src.initial(60);
        let fps = test_negs
            .iter()
            .filter(|f| trained.cascade.classify(&IntegralImage::from_gray(f), 0, 0))
            .count();
        // 3 stages at <= 0.5 fpr each: expect <= ~20% survivors.
        assert!(fps <= 20, "{fps}/60 negatives passed a 3-stage cascade");
    }

    #[test]
    fn stage_stats_respect_goals() {
        let faces = synth_faces(50, 3);
        let mut negs = NegativeSource::new(4);
        let gb = GentleBoost::new(quick_pool());
        let cfg = quick_config(2);
        let trained = train_cascade(&gb, "t", &faces, &mut negs, &cfg);
        for st in &trained.stages {
            assert!(st.detection_rate >= cfg.goals.min_detection_rate - 1e-9);
            assert!(
                st.false_positive_rate <= cfg.goals.max_false_positive_rate + 1e-9
                    || st.stumps == cfg.goals.max_stumps_per_stage
            );
        }
    }

    #[test]
    fn adaboost_needs_at_least_as_many_stumps_as_gentleboost() {
        // The mechanism behind the paper's 2913 vs 1446 classifier counts.
        let faces = synth_faces(60, 8);
        let pool = quick_pool();
        let cfg = quick_config(2);

        let mut negs = NegativeSource::new(31);
        let gb = GentleBoost::new(pool.clone());
        let g = train_cascade(&gb, "g", &faces, &mut negs, &cfg);

        let mut negs = NegativeSource::new(31);
        let ab = AdaBoost::new(pool);
        let a = train_cascade(&ab, "a", &faces, &mut negs, &cfg);

        assert!(
            a.cascade.total_stumps() >= g.cascade.total_stumps(),
            "ada {} vs gentle {}",
            a.cascade.total_stumps(),
            g.cascade.total_stumps()
        );
    }
}
