//! Real-time HD video face detection (the paper's headline scenario):
//! stream a synthetic 1080p movie trailer through the simulated hardware
//! decoder and the GPU detection pipeline, overlapping decode with
//! compute, and report per-frame latency and end-to-end fps for serial
//! vs concurrent kernel execution.
//!
//! ```text
//! cargo run --release --example trailer_detection -- [frames]
//! ```

use facedet::boost::synthdata::{synth_faces, NegativeSource};
use facedet::boost::trainer::{train_cascade, StageGoals, TrainerConfig};
use facedet::boost::GentleBoost;
use facedet::haar::{enumerate_features, EnumerationRule};
use facedet::prelude::*;
use facedet::video::decoder::pipelined_fps;
use facedet::video::{movie_trailers, HwDecoder};

fn main() {
    let frames: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(4);

    println!("training a detection cascade (small budget)...");
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
    let cascade = train_cascade(&learner, "trailer-demo", &faces, &mut negatives, &config).cascade;
    println!("  {} stages / {} stumps\n", cascade.depth(), cascade.total_stumps());

    let info = movie_trailers().into_iter().find(|t| t.title == "50/50").unwrap();
    println!("streaming {frames} frames of '{}' (1920x1080, 24 fps source)...", info.title);

    for mode in [ExecMode::Concurrent, ExecMode::Serial] {
        let decoder = HwDecoder::new(info.generate(frames));
        let truth_source = info.generate(frames);
        let mut detector = FaceDetector::new(
            &cascade,
            DetectorConfig { exec_mode: mode, ..DetectorConfig::default() },
        );
        let mut detect_ms = Vec::new();
        let mut decode_ms = Vec::new();
        let mut found = 0usize;
        let mut matched = 0usize;
        let mut truths = 0usize;
        for frame in decoder {
            let r = detector.detect(&frame.luma).expect("detect");
            let gt = truth_source.faces_at(frame.index);
            truths += gt.len();
            found += r.detections.len();
            matched += r
                .detections
                .iter()
                .filter(|d| gt.iter().any(|t| t.rect.iou(&d.rect) > 0.3))
                .count();
            println!(
                "  [{mode:?}] frame {:>3}: decode {:.1} ms | detect {:.2} ms | {} detection(s), {} truth",
                frame.index,
                frame.decode_ms,
                r.detect_ms,
                r.detections.len(),
                gt.len()
            );
            detect_ms.push(r.detect_ms);
            decode_ms.push(frame.decode_ms);
        }
        let mean = detect_ms.iter().sum::<f64>() / detect_ms.len() as f64;
        println!(
            "{mode:?}: mean detect {:.2} ms/frame, pipelined throughput {:.0} fps; {} detections ({} matched / {} annotated)\n",
            mean,
            pipelined_fps(&decode_ms, &detect_ms),
            found,
            matched,
            truths
        );
    }
}
