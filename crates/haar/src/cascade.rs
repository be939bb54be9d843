//! Attentional cascades: stages of boosted stumps with early rejection.
//!
//! A window passes stage `k` when the sum of its stump outputs meets the
//! stage threshold; otherwise evaluation stops — the property that rejects
//! ~94.5 % of background windows at stage 1 in the paper (Fig. 7) and
//! causes the GPU divergence the evaluation kernel must manage.

use crate::stump::Stump;
use fd_imgproc::IntegralImage;

/// Semantic validation failures of a cascade (see [`Cascade::validate`]).
///
/// A cascade that trips any of these is rejected before it can reach
/// `eval_window` or the GPU kernels: a corrupt or adversarial model file
/// must fail at load time with a typed error, never evaluate windows with
/// garbage geometry or non-finite arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub enum CascadeError {
    /// A zero-stage cascade classifies *every* window as a face.
    EmptyCascade,
    /// Detection window outside the supported range.
    BadWindow { window: u32 },
    /// A stage with no stumps has an undefined sum.
    EmptyStage { stage: usize },
    /// Stage threshold is NaN or infinite.
    NonFiniteStageThreshold { stage: usize },
    /// Stage threshold exceeds what the packed constant-memory encoding
    /// can represent ([`crate::encode::LEAF_SCALE`] fixed point in i32).
    AbsurdStageThreshold { stage: usize, threshold: f32 },
    /// No window can ever pass this stage: its threshold exceeds the
    /// largest achievable stage sum, so the stage — and every stage after
    /// it — rejects unconditionally (a non-monotone, dead structure).
    UnsatisfiableStage { stage: usize, threshold: f32, max_sum: f32 },
    /// A stump leaf value is NaN or infinite.
    NonFiniteLeaf { stage: usize, stump: usize },
    /// A stump leaf exceeds the packed encoding's i16 fixed-point range.
    AbsurdLeaf { stage: usize, stump: usize, leaf: f32 },
    /// A stump threshold exceeds the packed encoding's quantization
    /// headroom (i16 multiples of [`crate::encode::THR_STEP`]).
    AbsurdStumpThreshold { stage: usize, stump: usize, threshold: i32 },
    /// A feature with a zero-extent cell evaluates empty rectangles.
    ZeroAreaFeature { stage: usize, stump: usize },
    /// A feature rectangle escapes the detection window: its integral
    /// lookups would read out of bounds on every window.
    FeatureEscapesWindow { stage: usize, stump: usize },
}

impl std::fmt::Display for CascadeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyCascade => write!(f, "cascade has no stages (accepts every window)"),
            Self::BadWindow { window } => write!(
                f,
                "window {window} outside the supported {MIN_WINDOW}..={MAX_WINDOW} px range"
            ),
            Self::EmptyStage { stage } => write!(f, "stage {stage} has no stumps"),
            Self::NonFiniteStageThreshold { stage } => {
                write!(f, "stage {stage} threshold is not finite")
            }
            Self::AbsurdStageThreshold { stage, threshold } => {
                write!(f, "stage {stage} threshold {threshold} exceeds the encodable range")
            }
            Self::UnsatisfiableStage { stage, threshold, max_sum } => write!(
                f,
                "stage {stage} is unsatisfiable: threshold {threshold} exceeds the largest \
                 achievable stage sum {max_sum}"
            ),
            Self::NonFiniteLeaf { stage, stump } => {
                write!(f, "stage {stage} stump {stump} has a non-finite leaf value")
            }
            Self::AbsurdLeaf { stage, stump, leaf } => {
                write!(f, "stage {stage} stump {stump} leaf {leaf} exceeds the encodable range")
            }
            Self::AbsurdStumpThreshold { stage, stump, threshold } => write!(
                f,
                "stage {stage} stump {stump} threshold {threshold} exceeds the quantization \
                 headroom"
            ),
            Self::ZeroAreaFeature { stage, stump } => {
                write!(f, "stage {stage} stump {stump} has a zero-area feature")
            }
            Self::FeatureEscapesWindow { stage, stump } => {
                write!(f, "stage {stage} stump {stump} feature escapes the detection window")
            }
        }
    }
}

impl std::error::Error for CascadeError {}

/// Smallest detection window [`Cascade::validate`] accepts.
pub const MIN_WINDOW: u32 = 4;
/// Largest detection window [`Cascade::validate`] accepts (feature
/// geometry is stored in `u8` window coordinates; the paper uses 24).
pub const MAX_WINDOW: u32 = 64;

/// One cascade stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    pub stumps: Vec<Stump>,
    /// A window passes when the stage sum is >= this threshold.
    pub threshold: f32,
}

impl Stage {
    /// Stage sum for a window.
    pub fn sum(&self, ii: &IntegralImage, ox: usize, oy: usize) -> f32 {
        self.stumps.iter().map(|s| s.eval(ii, ox, oy)).sum()
    }

    /// Whether the window passes this stage.
    pub fn passes(&self, ii: &IntegralImage, ox: usize, oy: usize) -> bool {
        self.sum(ii, ox, oy) >= self.threshold
    }
}

/// Result of evaluating a cascade on one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeEval {
    /// Number of stages passed (== number of stages entered minus the
    /// failed one). Equals `stages.len()` for accepted windows — the value
    /// the GPU kernel writes to its deepest-stage output array.
    pub depth: u32,
    /// Sum of stage margins (stage sum minus stage threshold) over every
    /// *entered* stage; a detection confidence usable for ROC sweeps.
    pub score: f32,
}

/// A boosted cascade of Haar stumps.
#[derive(Debug, Clone, PartialEq)]
pub struct Cascade {
    /// Human-readable name ("ours-gentle", "opencv-like-ada", ...).
    pub name: String,
    /// Detection-window side in pixels (24 throughout the paper).
    pub window: u32,
    pub stages: Vec<Stage>,
}

impl Cascade {
    pub fn new(name: impl Into<String>, window: u32) -> Self {
        Self { name: name.into(), window, stages: Vec::new() }
    }

    /// Total number of weak classifiers (the paper compares 1446 vs 2913).
    pub fn total_stumps(&self) -> usize {
        self.stages.iter().map(|s| s.stumps.len()).sum()
    }

    /// Number of stages.
    pub fn depth(&self) -> u32 {
        self.stages.len() as u32
    }

    /// Evaluate the full cascade (with early exit) on the window whose
    /// top-left corner is `(ox, oy)`.
    pub fn eval_window(&self, ii: &IntegralImage, ox: usize, oy: usize) -> CascadeEval {
        let mut depth = 0u32;
        let mut score = 0.0f32;
        for stage in &self.stages {
            let sum = stage.sum(ii, ox, oy);
            score += sum - stage.threshold;
            if sum < stage.threshold {
                return CascadeEval { depth, score };
            }
            depth += 1;
        }
        CascadeEval { depth, score }
    }

    /// Whether the window passes every stage.
    pub fn classify(&self, ii: &IntegralImage, ox: usize, oy: usize) -> bool {
        self.eval_window(ii, ox, oy).depth == self.depth()
    }

    /// A cascade truncated to its first `n` stages (shares the paper's
    /// Fig. 9 ablation; clones the stages).
    ///
    /// # Contract
    ///
    /// At least one stage is always retained: `n` is clamped to
    /// `1..=self.stages.len()`. A literal zero-stage truncation would
    /// produce a cascade whose `classify` accepts *every* window — a
    /// 100 % false-positive detector — which is never what a truncation
    /// ablation means. Truncating an already-empty cascade stays empty
    /// (there is no stage to retain); such cascades are rejected by
    /// [`Cascade::validate`] before they reach any evaluation path.
    pub fn truncated(&self, n: usize) -> Cascade {
        let n = n.clamp(1, self.stages.len().max(1));
        Cascade {
            name: format!("{}@{}", self.name, n.min(self.stages.len())),
            window: self.window,
            stages: self.stages.iter().take(n).cloned().collect(),
        }
    }

    /// Semantic validation: reject structurally or numerically corrupt
    /// cascades before any window evaluation or device staging.
    ///
    /// Checks, in order: non-empty cascade, supported window, per-stage
    /// non-emptiness and finite/encodable thresholds, per-stump finite and
    /// encodable leaves/thresholds, non-degenerate in-window feature
    /// geometry, and stage satisfiability (a stage whose threshold exceeds
    /// its largest achievable sum rejects every window — a dead cascade).
    /// `fd_haar::io::{from_text, load}` run this after parsing, so a
    /// corrupt `.cascade` asset can never reach `eval_window`.
    pub fn validate(&self) -> Result<(), CascadeError> {
        use crate::encode::{LEAF_SCALE, THR_STEP};
        if self.stages.is_empty() {
            return Err(CascadeError::EmptyCascade);
        }
        if !(MIN_WINDOW..=MAX_WINDOW).contains(&self.window) {
            return Err(CascadeError::BadWindow { window: self.window });
        }
        let max_leaf = i16::MAX as f32 / LEAF_SCALE;
        let max_stump_thr = i16::MAX as i32 * THR_STEP;
        let max_stage_thr = i32::MAX as f32 / LEAF_SCALE;
        for (si, stage) in self.stages.iter().enumerate() {
            if stage.stumps.is_empty() {
                return Err(CascadeError::EmptyStage { stage: si });
            }
            if !stage.threshold.is_finite() {
                return Err(CascadeError::NonFiniteStageThreshold { stage: si });
            }
            if stage.threshold.abs() > max_stage_thr {
                return Err(CascadeError::AbsurdStageThreshold {
                    stage: si,
                    threshold: stage.threshold,
                });
            }
            let mut max_sum = 0.0f64;
            for (ki, s) in stage.stumps.iter().enumerate() {
                if !(s.left.is_finite() && s.right.is_finite()) {
                    return Err(CascadeError::NonFiniteLeaf { stage: si, stump: ki });
                }
                for leaf in [s.left, s.right] {
                    if leaf.abs() > max_leaf {
                        return Err(CascadeError::AbsurdLeaf { stage: si, stump: ki, leaf });
                    }
                }
                if s.threshold.abs() > max_stump_thr {
                    return Err(CascadeError::AbsurdStumpThreshold {
                        stage: si,
                        stump: ki,
                        threshold: s.threshold,
                    });
                }
                let f = &s.feature;
                if f.w == 0 || f.h == 0 {
                    return Err(CascadeError::ZeroAreaFeature { stage: si, stump: ki });
                }
                if !f.fits(self.window) {
                    return Err(CascadeError::FeatureEscapesWindow { stage: si, stump: ki });
                }
                max_sum += s.left.max(s.right) as f64;
            }
            if stage.threshold as f64 > max_sum + 1e-6 {
                return Err(CascadeError::UnsatisfiableStage {
                    stage: si,
                    threshold: stage.threshold,
                    max_sum: max_sum as f32,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{FeatureKind, HaarFeature};
    use fd_imgproc::GrayImage;

    /// Cascade with one stage that accepts iff the image's left/right
    /// contrast is strong.
    fn contrast_cascade() -> Cascade {
        let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        let stump = Stump { feature: f, threshold: 1000, left: -1.0, right: 1.0 };
        let mut c = Cascade::new("test", 24);
        c.stages.push(Stage { stumps: vec![stump], threshold: 0.5 });
        c
    }

    fn contrast_image(hi: f32) -> IntegralImage {
        let img = GrayImage::from_fn(24, 24, |x, _| if x < 12 { 0.0 } else { hi });
        IntegralImage::from_gray(&img)
    }

    #[test]
    fn accepts_and_rejects_by_stage_threshold() {
        let c = contrast_cascade();
        assert!(c.classify(&contrast_image(255.0), 0, 0));
        assert!(!c.classify(&contrast_image(10.0), 0, 0));
    }

    #[test]
    fn eval_depth_counts_passed_stages() {
        let mut c = contrast_cascade();
        // Duplicate the stage three times.
        let s = c.stages[0].clone();
        c.stages.push(s.clone());
        c.stages.push(s);
        let pass = c.eval_window(&contrast_image(255.0), 0, 0);
        assert_eq!(pass.depth, 3);
        let fail = c.eval_window(&contrast_image(10.0), 0, 0);
        assert_eq!(fail.depth, 0);
        assert!(fail.score < pass.score);
    }

    #[test]
    fn truncated_cascade_keeps_the_first_stages() {
        let mut c = contrast_cascade();
        let s = c.stages[0].clone();
        c.stages.push(s.clone());
        c.stages.push(s);
        assert_eq!(c.truncated(2).stages, c.stages[..2]);
    }

    #[test]
    fn total_stumps_sums_stages() {
        let mut c = contrast_cascade();
        let s = c.stages[0].clone();
        c.stages.push(Stage { stumps: vec![s.stumps[0]; 4], threshold: 0.0 });
        assert_eq!(c.total_stumps(), 5);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn empty_cascade_accepts_everything() {
        let c = Cascade::new("empty", 24);
        assert!(c.classify(&contrast_image(0.0), 0, 0));
        assert_eq!(c.eval_window(&contrast_image(0.0), 0, 0).depth, 0);
    }
}
