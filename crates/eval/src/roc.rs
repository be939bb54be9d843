//! TPR/FP curve computation (paper §VI-B, Fig. 9).
//!
//! Per image: grouped detections are assigned to ground-truth annotations
//! with the Hungarian algorithm under the `S_eyes` cost; an assignment
//! with `S_eyes < MATCH_LIMIT` is a hit, everything else a false
//! positive. "The resulting curve is plotted by varying a threshold over
//! the detection score, and thus obtaining different combinations of the
//! ratio TPR/FP."

use fd_detector::group::{s_eyes_to_truth, GroupedDetection};
use fd_detector::{Detector, DetectorError};

use crate::hungarian::assign_min_cost;
use crate::scface::{Annotation, MugshotDataset};

/// Maximum `S_eyes` for a detection-annotation pair to count as a match.
/// (Eq. 6 values below ~1 correspond to eye errors under one inter-eye
/// distance; 0.5 is the paper's overlap level, 1.0 tolerates the grouping
/// quantization of the pyramid.)
pub const MATCH_LIMIT: f64 = 1.0;

/// Per-image evaluation: scored hit/false-positive outcomes.
#[derive(Debug, Clone, Default)]
pub struct FrameEval {
    /// Scores of detections matched to an annotation.
    pub hit_scores: Vec<f32>,
    /// Scores of unmatched (false-positive) detections.
    pub fp_scores: Vec<f32>,
    /// Annotated faces in this image.
    pub n_truth: usize,
}

/// Assign `detections` to `truths` (Hungarian, S_eyes cost) and bucket
/// the detection scores into hits and false positives.
pub fn match_frame(detections: &[GroupedDetection], truths: &[Annotation]) -> FrameEval {
    let mut eval = FrameEval { n_truth: truths.len(), ..FrameEval::default() };
    if detections.is_empty() {
        return eval;
    }
    if truths.is_empty() {
        eval.fp_scores = detections.iter().map(|d| d.score).collect();
        return eval;
    }
    let cost: Vec<Vec<f64>> = detections
        .iter()
        .map(|d| {
            truths
                .iter()
                .map(|t| {
                    let s = s_eyes_to_truth(&d.as_detection(), t.eyes, t.eye_distance);
                    if s < MATCH_LIMIT {
                        s
                    } else {
                        f64::INFINITY
                    }
                })
                .collect()
        })
        .collect();
    let assignment = assign_min_cost(&cost);
    for (d, a) in detections.iter().zip(&assignment) {
        match a {
            Some(_) => eval.hit_scores.push(d.score),
            None => eval.fp_scores.push(d.score),
        }
    }
    eval
}

/// One operating point of the TPR/FP curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// Score threshold producing this point.
    pub threshold: f32,
    /// True positives (matched detections scoring above threshold).
    pub tp: usize,
    /// False positives above threshold.
    pub fp: usize,
    /// `tp / total ground-truth faces`.
    pub tpr: f64,
}

/// Sweep a threshold over detection scores across all frame evaluations.
/// Returns points ordered from the strictest threshold (few FP) to the
/// loosest, like the paper's Fig. 9 x-axis.
pub fn roc_curve(evals: &[FrameEval], n_points: usize) -> Vec<RocPoint> {
    assert!(n_points >= 2);
    let total_truth: usize = evals.iter().map(|e| e.n_truth).sum();
    let mut all_scores: Vec<f32> =
        evals.iter().flat_map(|e| e.hit_scores.iter().chain(&e.fp_scores).copied()).collect();
    if all_scores.is_empty() {
        return vec![RocPoint { threshold: 0.0, tp: 0, fp: 0, tpr: 0.0 }];
    }
    all_scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let lo = *all_scores.first().unwrap();
    let hi = *all_scores.last().unwrap();

    let mut points = Vec::with_capacity(n_points);
    for k in 0..n_points {
        // From hi (strict) down to lo (loose).
        let t = hi - (hi - lo) * k as f32 / (n_points - 1) as f32;
        let tp: usize =
            evals.iter().map(|e| e.hit_scores.iter().filter(|&&s| s >= t).count()).sum();
        let fp: usize = evals.iter().map(|e| e.fp_scores.iter().filter(|&&s| s >= t).count()).sum();
        points.push(RocPoint {
            threshold: t,
            tp,
            fp,
            tpr: if total_truth == 0 { 0.0 } else { tp as f64 / total_truth as f64 },
        });
    }
    points
}

/// Per-backend accuracy/latency measurement over a corpus: frame
/// evaluations (for [`roc_curve`]) plus total virtual detect time.
#[derive(Debug, Clone, Default)]
pub struct BackendEval {
    pub evals: Vec<FrameEval>,
    /// Sum of per-frame virtual device time, ms.
    pub total_detect_ms: f64,
    /// Windows evaluated across all frames and pyramid levels (populated
    /// only when the detector collects rejection stats).
    pub windows_total: u64,
    /// Windows surviving into the cascade's final stage (ending at one
    /// of the last two depth bins: rejected *by* the final stage, or
    /// accepted through it).
    pub windows_reaching_final: u64,
}

impl BackendEval {
    /// Mean virtual detect time per frame, ms.
    pub fn mean_detect_ms(&self) -> f64 {
        if self.evals.is_empty() {
            0.0
        } else {
            self.total_detect_ms / self.evals.len() as f64
        }
    }

    /// Fraction of windows the cascade rejected before its final stage —
    /// the early-exit economy the cascade exists to buy. 0.0 when the
    /// detector did not collect rejection stats.
    pub fn pre_final_rejection(&self) -> f64 {
        if self.windows_total == 0 {
            0.0
        } else {
            1.0 - self.windows_reaching_final as f64 / self.windows_total as f64
        }
    }
}

/// Run any [`Detector`] backend over the mug-shot corpus and match every
/// frame's detections against its ground truth — the accuracy/latency
/// front's shared measurement path, identical for Haar and CNN.
pub fn evaluate_backend(
    det: &mut dyn Detector,
    ds: &MugshotDataset,
) -> Result<BackendEval, DetectorError> {
    let mut out = BackendEval::default();
    for img in &ds.images {
        let r = det.detect(&img.image)?;
        out.total_detect_ms += r.detect_ms;
        if let Some(h) = &r.rejection {
            for counts in &h.counts {
                out.windows_total += counts.iter().sum::<u64>();
                if let [.., by_final, through_final] = counts[..] {
                    out.windows_reaching_final += by_final + through_final;
                }
            }
        }
        let truths: Vec<_> = img.truth.iter().cloned().collect();
        out.evals.push(match_frame(&r.detections, &truths));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_imgproc::{PointF, Rect};

    fn truth(x: i32, y: i32, size: u32) -> Annotation {
        let r = Rect::new(x, y, size, size);
        let eyes = (
            PointF::new(x as f64 + 0.30 * size as f64, y as f64 + 0.38 * size as f64),
            PointF::new(x as f64 + 0.70 * size as f64, y as f64 + 0.38 * size as f64),
        );
        Annotation { rect: r, eyes, eye_distance: 0.4 * size as f64 }
    }

    fn det(x: i32, y: i32, size: u32, score: f32) -> GroupedDetection {
        GroupedDetection { rect: Rect::new(x, y, size, size), score, neighbors: 3 }
    }

    #[test]
    fn perfect_detection_is_a_hit() {
        let e = match_frame(&[det(10, 10, 50, 2.0)], &[truth(10, 10, 50)]);
        assert_eq!(e.hit_scores, vec![2.0]);
        assert!(e.fp_scores.is_empty());
    }

    #[test]
    fn far_detection_is_a_false_positive() {
        let e = match_frame(&[det(200, 200, 50, 2.0)], &[truth(10, 10, 50)]);
        assert!(e.hit_scores.is_empty());
        assert_eq!(e.fp_scores, vec![2.0]);
    }

    #[test]
    fn one_truth_matches_at_most_one_detection() {
        // Two overlapping detections on one face: one hit, one FP.
        let e = match_frame(&[det(10, 10, 50, 2.0), det(12, 11, 50, 1.0)], &[truth(10, 10, 50)]);
        assert_eq!(e.hit_scores.len(), 1);
        assert_eq!(e.fp_scores.len(), 1);
        // Hungarian keeps the better-aligned (cheaper) one.
        assert_eq!(e.hit_scores[0], 2.0);
    }

    #[test]
    fn hungarian_resolves_crossed_pairs() {
        // Two truths, two detections each closest to a different truth.
        let e = match_frame(
            &[det(100, 100, 50, 1.0), det(10, 10, 50, 1.0)],
            &[truth(10, 10, 50), truth(100, 100, 50)],
        );
        assert_eq!(e.hit_scores.len(), 2);
        assert!(e.fp_scores.is_empty());
    }

    #[test]
    fn roc_curve_is_monotone_in_threshold() {
        let evals = vec![
            FrameEval { hit_scores: vec![3.0, 2.0], fp_scores: vec![1.0, 0.5], n_truth: 3 },
            FrameEval { hit_scores: vec![2.5], fp_scores: vec![2.8], n_truth: 1 },
        ];
        let curve = roc_curve(&evals, 8);
        for w in curve.windows(2) {
            assert!(w[1].tp >= w[0].tp);
            assert!(w[1].fp >= w[0].fp);
            assert!(w[1].tpr >= w[0].tpr);
        }
        // Loosest point counts everything.
        let last = curve.last().unwrap();
        assert_eq!(last.tp, 3);
        assert_eq!(last.fp, 3);
        assert!((last.tpr - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_evaluations_give_a_degenerate_curve() {
        let curve = roc_curve(&[FrameEval::default()], 5);
        assert_eq!(curve.len(), 1);
        assert_eq!(curve[0].tp, 0);
    }

    #[test]
    fn background_frames_only_contribute_fps() {
        let e = match_frame(&[det(5, 5, 40, 9.0)], &[]);
        assert_eq!(e.n_truth, 0);
        assert_eq!(e.fp_scores, vec![9.0]);
    }

    #[test]
    fn evaluate_backend_runs_both_detectors_through_one_path() {
        use crate::scface::MugshotDataset;
        use fd_cnn::{CnnDetector, CnnModel};
        use fd_detector::{Detector, DetectorConfig, FaceDetector};
        use fd_haar::{Cascade, FeatureKind, HaarFeature, Stage, Stump};

        let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        let mut cascade = Cascade::new("edge", 24);
        cascade.stages.push(Stage {
            stumps: vec![Stump { feature: f, threshold: 8192, left: -1.0, right: 1.0 }],
            threshold: 0.5,
        });
        let cfg = DetectorConfig {
            min_neighbors: 1,
            collect_rejection_stats: true,
            ..DetectorConfig::default()
        };
        let ds = MugshotDataset::generate(2, 2, 64, 11);
        let backends: Vec<Box<dyn Detector>> = vec![
            Box::new(FaceDetector::try_new(&cascade, cfg.clone()).unwrap()),
            Box::new(CnnDetector::try_new(&CnnModel::seeded(0), cfg).unwrap()),
        ];
        for mut det in backends {
            let e = evaluate_backend(&mut *det, &ds).unwrap();
            assert_eq!(e.evals.len(), 4, "one evaluation per corpus image");
            assert!(e.total_detect_ms > 0.0);
            assert!(e.mean_detect_ms() > 0.0);
            assert_eq!(e.evals.iter().map(|v| v.n_truth).sum::<usize>(), 2);
            assert!(e.windows_total > 0, "rejection stats were enabled");
            assert!((0.0..=1.0).contains(&e.pre_final_rejection()));
        }
    }
}
