//! Soft cascades (Bourdev & Brandt, CVPR 2005) — the paper's declared
//! future work ("further improve the accuracy of our feature set with
//! soft cascades", §VII).
//!
//! A soft cascade abandons stage boundaries: every stump contributes to a
//! single running sum, and after the `t`-th stump the window is rejected
//! if the sum falls below a per-position rejection threshold `r_t`. This
//! rejects most background windows after very few stumps (earlier than a
//! staged cascade can, since stages must complete before deciding) while
//! letting borderline windows survive longer.
//!
//! [`SoftCascade::calibrate`] uses the standard recipe: flatten a trained
//! staged cascade and set `r_t` to the `q`-quantile of positive-sample
//! running sums at position `t` (q = the per-stump miss budget).

use fd_haar::{Cascade, CascadeEval, Stump};
use fd_imgproc::IntegralImage;

/// A monolithic cascade with per-stump rejection thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftCascade {
    pub name: String,
    pub window: u32,
    pub stumps: Vec<Stump>,
    /// `reject_after[t]`: reject when the running sum after stump `t`
    /// falls below this.
    pub reject_after: Vec<f32>,
}

impl SoftCascade {
    /// Flatten a staged cascade and calibrate rejection thresholds on
    /// positive-sample traces.
    ///
    /// `positives` are integral images of face windows; `quantile` is the
    /// fraction of positives allowed to be lost *in total* across the
    /// whole cascade (e.g. 0.05). Each position's threshold is the
    /// running-sum quantile `quantile / n_stumps`, i.e. the miss budget is
    /// spread uniformly across stump positions.
    pub fn calibrate(cascade: &Cascade, positives: &[IntegralImage], quantile: f64) -> Self {
        assert!(!positives.is_empty(), "calibration needs positive samples");
        assert!((0.0..1.0).contains(&quantile));
        let stumps: Vec<Stump> =
            cascade.stages.iter().flat_map(|s| s.stumps.iter().copied()).collect();
        assert!(!stumps.is_empty(), "empty cascade");

        // Running sums per positive per position.
        let mut traces = vec![vec![0.0f32; positives.len()]; stumps.len()];
        for (pi, ii) in positives.iter().enumerate() {
            let mut sum = 0.0f32;
            for (t, stump) in stumps.iter().enumerate() {
                sum += stump.eval(ii, 0, 0);
                traces[t][pi] = sum;
            }
        }

        let per_stump_q = quantile / stumps.len() as f64;
        let reject_after = traces
            .iter()
            .map(|t| {
                let mut v = t.clone();
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let idx = ((per_stump_q * v.len() as f64).floor() as usize).min(v.len() - 1);
                // Reject strictly below the chosen positive's sum: nudge
                // down so that positive itself survives.
                v[idx] - 1e-4
            })
            .collect();

        Self {
            name: format!("{}-soft", cascade.name),
            window: cascade.window,
            stumps,
            reject_after,
        }
    }

    /// Number of weak classifiers.
    pub fn len(&self) -> usize {
        self.stumps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stumps.is_empty()
    }

    /// Evaluate one window; `depth` is the number of stumps evaluated
    /// before rejection (== `len()` for accepted windows), `score` the
    /// final running sum.
    pub fn eval_window(&self, ii: &IntegralImage, ox: usize, oy: usize) -> CascadeEval {
        let mut sum = 0.0f32;
        for (t, stump) in self.stumps.iter().enumerate() {
            sum += stump.eval(ii, ox, oy);
            if sum < self.reject_after[t] {
                return CascadeEval { depth: t as u32 + 1, score: sum };
            }
        }
        CascadeEval { depth: self.stumps.len() as u32, score: sum }
    }

    /// Whether the window survives the full cascade.
    pub fn classify(&self, ii: &IntegralImage, ox: usize, oy: usize) -> bool {
        self.eval_window(ii, ox, oy).depth == self.stumps.len() as u32
            && (self.stumps.is_empty()
                || self.eval_window(ii, ox, oy).score >= *self.reject_after.last().unwrap())
    }

    /// Mean stumps evaluated per window over an integral image — the
    /// early-exit efficiency metric soft cascades improve.
    pub fn mean_depth(&self, ii: &IntegralImage) -> f64 {
        let w = self.window as usize;
        if ii.width() < w || ii.height() < w {
            return 0.0;
        }
        let mut total = 0u64;
        let mut n = 0u64;
        for oy in 0..=ii.height() - w {
            for ox in 0..=ii.width() - w {
                total += self.eval_window(ii, ox, oy).depth as u64;
                n += 1;
            }
        }
        total as f64 / n as f64
    }
}

/// Mean stumps evaluated per window for a *staged* cascade (comparison
/// baseline for the soft-cascade ablation).
pub fn staged_mean_depth(cascade: &Cascade, ii: &IntegralImage) -> f64 {
    let w = cascade.window as usize;
    if ii.width() < w || ii.height() < w {
        return 0.0;
    }
    let mut total = 0u64;
    let mut n = 0u64;
    for oy in 0..=ii.height() - w {
        for ox in 0..=ii.width() - w {
            // Count stumps actually evaluated: all stumps of entered stages.
            let mut evaluated = 0u64;
            for stage in &cascade.stages {
                evaluated += stage.stumps.len() as u64;
                if stage.sum(ii, ox, oy) < stage.threshold {
                    break;
                }
            }
            total += evaluated;
            n += 1;
        }
    }
    total as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_haar::{FeatureKind, HaarFeature, Stage};
    use fd_imgproc::GrayImage;

    fn face_like(seed: u32) -> IntegralImage {
        // Left-dark/right-bright windows, the "face" class for the toy
        // EdgeH cascade below.
        let img = GrayImage::from_fn(24, 24, move |x, y| {
            let base = if x < 12 { 30.0 } else { 220.0 };
            base + ((x * 7 + y * 13 + seed as usize) % 17) as f32
        });
        IntegralImage::from_gray(&img)
    }

    fn background(seed: u32) -> IntegralImage {
        let img = GrayImage::from_fn(24, 24, move |x, y| {
            (((x as u32 * 31 + y as u32 * 57).wrapping_mul(seed | 1)) >> 24) as f32
        });
        IntegralImage::from_gray(&img)
    }

    fn staged() -> Cascade {
        let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        let mut c = Cascade::new("toy", 24);
        for _ in 0..3 {
            c.stages.push(Stage {
                stumps: vec![
                    Stump { feature: f, threshold: 1000, left: -1.0, right: 1.0 },
                    Stump { feature: f, threshold: 2000, left: -0.5, right: 0.5 },
                ],
                threshold: 0.0,
            });
        }
        c
    }

    #[test]
    fn calibrated_soft_cascade_keeps_positives() {
        let positives: Vec<_> = (0..40).map(face_like).collect();
        let c = staged();
        let soft = SoftCascade::calibrate(&c, &positives, 0.05);
        assert_eq!(soft.len(), 6);
        let kept = positives.iter().filter(|ii| soft.classify(ii, 0, 0)).count();
        assert!(kept >= 38, "soft cascade lost too many positives: {kept}/40");
    }

    #[test]
    fn soft_cascade_rejects_backgrounds_early() {
        let positives: Vec<_> = (0..40).map(face_like).collect();
        let c = staged();
        let soft = SoftCascade::calibrate(&c, &positives, 0.05);
        let mut early = 0;
        for s in 0..30 {
            let ii = background(s);
            let e = soft.eval_window(&ii, 0, 0);
            if e.depth < soft.len() as u32 {
                early += 1;
            }
        }
        assert!(early >= 25, "only {early}/30 backgrounds rejected early");
    }

    #[test]
    fn soft_mean_depth_beats_staged_on_backgrounds() {
        // The headline soft-cascade property: fewer stumps per rejected
        // window, because rejection can happen mid-stage.
        let positives: Vec<_> = (0..40).map(face_like).collect();
        let c = staged();
        let soft = SoftCascade::calibrate(&c, &positives, 0.05);
        let img = GrayImage::from_fn(64, 48, |x, y| {
            (((x as u32 * 37 + y as u32 * 91).wrapping_mul(2654435761)) >> 24) as f32
        });
        let ii = IntegralImage::from_gray(&img);
        let soft_depth = soft.mean_depth(&ii);
        let staged_depth = staged_mean_depth(&c, &ii);
        assert!(
            soft_depth <= staged_depth,
            "soft {soft_depth:.2} vs staged {staged_depth:.2} stumps/window"
        );
    }

    #[test]
    fn calibration_quantile_trades_recall_for_speed() {
        let positives: Vec<_> = (0..60).map(face_like).collect();
        let c = staged();
        let tight = SoftCascade::calibrate(&c, &positives, 0.01);
        let loose = SoftCascade::calibrate(&c, &positives, 0.30);
        // A looser miss budget rejects earlier (higher thresholds).
        for (t, l) in tight.reject_after.iter().zip(&loose.reject_after) {
            assert!(l >= t, "loose thresholds must dominate: {l} < {t}");
        }
    }

    #[test]
    #[should_panic(expected = "positive samples")]
    fn calibration_requires_positives() {
        let _ = SoftCascade::calibrate(&staged(), &[], 0.05);
    }
}
