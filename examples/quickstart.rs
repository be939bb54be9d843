//! Quickstart: train a small cascade on synthetic faces, detect faces in
//! a synthetic snapshot on the simulated GPU, and write an annotated PPM.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use facedet::boost::synthdata::{synth_faces, NegativeSource};
use facedet::boost::trainer::{train_cascade, StageGoals, TrainerConfig};
use facedet::boost::GentleBoost;
use facedet::haar::{enumerate_features, EnumerationRule};
use facedet::imgproc::synth::{render_random_background, FaceParams};
use facedet::imgproc::{pnm, RgbImage};
use facedet::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. Train a compact GentleBoost cascade on procedural faces.
    //    (Small budget so the example runs in ~a minute; the benchmark
    //    harness trains the full pair and caches it.)
    println!("training a small GentleBoost cascade...");
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
    let trained = train_cascade(&learner, "quickstart", &faces, &mut negatives, &config);
    println!(
        "  cascade: {} stages, {} weak classifiers",
        trained.cascade.depth(),
        trained.cascade.total_stumps()
    );

    // 2. Compose a test scene: two faces over a textured background.
    let mut rng = StdRng::seed_from_u64(1234);
    let mut scene = render_random_background(&mut rng, 480, 270);
    let mut truth = Vec::new();
    for (x, y, size) in [(60i32, 40i32, 96usize), (300, 120, 72)] {
        let face = FaceParams::sample(&mut rng);
        scene.blit(&face.render(size), x, y);
        truth.push(Rect::new(x, y, size as u32, size as u32));
    }

    // 3. Detect on the simulated GTX470 with concurrent kernel execution.
    let mut detector = FaceDetector::new(
        &trained.cascade,
        DetectorConfig { min_neighbors: 2, ..DetectorConfig::default() },
    );
    let result = detector.detect(&scene).expect("detect");
    println!(
        "detected {} face(s) from {} raw windows in {:.2} simulated ms (SM occupancy {:.0}%)",
        result.detections.len(),
        result.raw.len(),
        result.detect_ms,
        100.0 * result.timeline.sm_utilization()
    );
    for d in &result.detections {
        let hit = truth.iter().any(|t| t.iou(&d.rect) > 0.3);
        println!(
            "  {:?} score {:.2} neighbors {}  {}",
            d.rect,
            d.score,
            d.neighbors,
            if hit { "[matches ground truth]" } else { "" }
        );
    }

    // 4. Draw and save.
    let mut rgb = RgbImage::from_gray(&scene);
    for t in &truth {
        rgb.draw_rect(*t, [0, 255, 0], 1);
    }
    for d in &result.detections {
        rgb.draw_rect(d.rect, [255, 0, 0], 2);
    }
    let out = "results/quickstart.ppm";
    std::fs::create_dir_all("results").ok();
    pnm::write_ppm(out, &rgb).expect("write ppm");
    println!("annotated frame written to {out} (green = truth, red = detections)");
}
