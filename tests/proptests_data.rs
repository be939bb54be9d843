//! Property-based tests over the data-generation and evaluation layers.

use proptest::prelude::*;

use facedet::detector::group::{group_detections, Detection};
use facedet::eval::roc::{roc_curve, FrameEval};
use facedet::haar::{Cascade, FeatureKind, HaarFeature, Stage, Stump};
use facedet::imgproc::{IntegralImage, Rect};
use facedet::video::{Trailer, TrailerSpec};
use fd_bench::experiments::soft::SoftCascade;

fn toy_cascade(stages: usize) -> Cascade {
    let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
    let mut c = Cascade::new("prop", 24);
    for i in 0..stages {
        c.stages.push(Stage {
            stumps: vec![Stump {
                feature: f,
                threshold: 500 * (i as i32 + 1),
                left: -0.5,
                right: 0.5,
            }],
            threshold: 0.0,
        });
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Trailer ground truth stays inside sane bounds and every frame
    /// renders at spec dimensions, for arbitrary seeds.
    #[test]
    fn trailer_ground_truth_is_well_formed(seed in any::<u64>()) {
        let spec = TrailerSpec {
            width: 160,
            height: 96,
            n_frames: 10,
            seed,
            scene_len: (3, 6),
            face_size: (24.0, 48.0),
            ..TrailerSpec::default()
        };
        let t = Trailer::generate(spec);
        for frame in [0usize, 5, 9] {
            let img = t.render_frame(frame);
            prop_assert_eq!((img.width(), img.height()), (160, 96));
            for f in t.faces_at(frame) {
                // Eyes inside the face box.
                for eye in [f.eyes.0, f.eyes.1] {
                    prop_assert!(eye.x >= f.rect.x as f64 - 1.0);
                    prop_assert!(eye.x <= f.rect.right() as f64 + 1.0);
                }
                // Face box overlaps the frame.
                prop_assert!(f.rect.x < 160 && f.rect.y < 96);
            }
        }
    }

    /// Grouping never increases the detection count, keeps scores within
    /// the input range, and respects the neighbour floor.
    #[test]
    fn grouping_is_contractive(
        dets in proptest::collection::vec(
            (0i32..300, 0i32..200, 24u32..80, -5.0f32..5.0),
            1..40
        ),
        min_neighbors in 1usize..4,
    ) {
        let input: Vec<Detection> = dets
            .iter()
            .map(|&(x, y, s, score)| Detection { rect: Rect::new(x, y, s, s), score, scale: 0 })
            .collect();
        let groups = group_detections(&input, 0.5, min_neighbors);
        prop_assert!(groups.len() <= input.len());
        let max_in = input.iter().map(|d| d.score).fold(f32::MIN, f32::max);
        for g in &groups {
            prop_assert!(g.neighbors >= min_neighbors);
            prop_assert!(g.score <= max_in + 1e-6);
            // Scores are sorted descending.
        }
        for w in groups.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
    }

    /// ROC curves are monotone and bounded for arbitrary score sets.
    #[test]
    fn roc_curves_are_monotone(
        hits in proptest::collection::vec(-10.0f32..10.0, 0..30),
        fps in proptest::collection::vec(-10.0f32..10.0, 0..30),
        extra_truth in 0usize..20,
    ) {
        // Invariant of match_frame: at most one hit per annotation.
        let n_truth = (hits.len() + extra_truth).max(1);
        let eval = FrameEval { hit_scores: hits, fp_scores: fps, n_truth };
        let curve = roc_curve(&[eval], 6);
        for w in curve.windows(2) {
            prop_assert!(w[1].tp >= w[0].tp);
            prop_assert!(w[1].fp >= w[0].fp);
        }
        for p in &curve {
            prop_assert!(p.tpr >= 0.0 && p.tpr <= 1.0 + 1e-12);
        }
    }

    /// Soft-cascade evaluation depth is bounded by its length and its
    /// score is finite, over random window content.
    #[test]
    fn soft_cascade_depth_is_bounded(seed in any::<u32>(), stages in 1usize..5) {
        let staged = toy_cascade(stages);
        let positives: Vec<IntegralImage> = (0..10)
            .map(|k| {
                let img = facedet::imgproc::GrayImage::from_fn(24, 24, |x, _| {
                    if x < 12 { 10.0 } else { 200.0 + (k % 7) as f32 }
                });
                IntegralImage::from_gray(&img)
            })
            .collect();
        let soft = SoftCascade::calibrate(&staged, &positives, 0.1);
        let img = facedet::imgproc::GrayImage::from_fn(24, 24, |x, y| {
            (((x as u32 * 31 + y as u32 * 17).wrapping_mul(seed | 1)) >> 24) as f32
        });
        let ii = IntegralImage::from_gray(&img);
        let e = soft.eval_window(&ii, 0, 0);
        prop_assert!(e.depth as usize <= soft.len());
        prop_assert!(e.score.is_finite());
    }

    /// Cascade truncation monotonicity: a deeper cascade never accepts a
    /// window the shallower prefix rejected.
    #[test]
    fn truncation_is_monotone(seed in any::<u32>()) {
        let c = toy_cascade(4);
        let img = facedet::imgproc::GrayImage::from_fn(24, 24, |x, y| {
            (((x as u32 * 13 + y as u32 * 29).wrapping_mul(seed | 1)) >> 24) as f32
        });
        let ii = IntegralImage::from_gray(&img);
        let mut prev_accept = true;
        for n in 1..=4 {
            let accept = c.truncated(n).classify(&ii, 0, 0);
            if !prev_accept {
                prop_assert!(!accept, "stage {n} resurrected a rejected window");
            }
            prev_accept = accept;
        }
    }
}
