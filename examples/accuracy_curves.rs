//! Accuracy evaluation walk-through (paper §VI-B): run a detector over a
//! synthetic mug-shot corpus, group detections with the `S_eyes` metric,
//! assign them to ground truth with the Hungarian algorithm and print a
//! TPR/FP curve.
//!
//! ```text
//! cargo run --release --example accuracy_curves -- [n_faces] [n_backgrounds]
//! ```

use facedet::boost::synthdata::{synth_faces, NegativeSource};
use facedet::boost::trainer::{train_cascade, StageGoals, TrainerConfig};
use facedet::boost::GentleBoost;
use facedet::eval::roc::{match_frame, roc_curve};
use facedet::eval::scface::MugshotDataset;
use facedet::haar::{enumerate_features, EnumerationRule};
use facedet::prelude::*;

fn main() {
    let n_faces: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(60);
    let n_bg: usize = std::env::args().nth(2).and_then(|a| a.parse().ok()).unwrap_or(80);

    println!("training a cascade (small budget)...");
    let features: Vec<_> =
        enumerate_features(24, EnumerationRule::Icpp2012).into_iter().step_by(89).collect();
    let faces = synth_faces(200, 42);
    let mut negatives = NegativeSource::new(7);
    let config = TrainerConfig {
        goals: StageGoals {
            min_detection_rate: 0.99,
            max_false_positive_rate: 0.45,
            max_stumps_per_stage: 25,
            min_stumps_per_stage: 1,
        },
        max_stages: 8,
        negatives_per_stage: 250,
        ..TrainerConfig::default()
    };
    let learner = GentleBoost::new(features);
    let cascade = train_cascade(&learner, "accuracy-demo", &faces, &mut negatives, &config).cascade;
    println!("  {} stages / {} stumps", cascade.depth(), cascade.total_stumps());

    println!("generating {n_faces} mug shots + {n_bg} backgrounds...");
    let ds = MugshotDataset::generate(n_faces, n_bg, 96, 0x50FA);

    let mut detector = FaceDetector::new(
        &cascade,
        DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() },
    );
    let evals: Vec<_> = ds
        .images
        .iter()
        .map(|img| {
            let r = detector.detect(&img.image).expect("detect");
            let truths: Vec<_> = img.truth.iter().cloned().collect();
            match_frame(&r.detections, &truths)
        })
        .collect();

    let curve = roc_curve(&evals, 10);
    println!("\n  score threshold |   FP | TPR");
    println!("  ----------------+------+------");
    for p in &curve {
        println!("  {:>15.3} | {:>4} | {:.3}", p.threshold, p.fp, p.tpr);
    }
    let best = curve.last().unwrap();
    println!(
        "\nat the loosest operating point: {:.1}% of {} faces detected with {} false positives over {} images",
        100.0 * best.tpr,
        ds.total_faces(),
        best.fp,
        ds.images.len()
    );
}
