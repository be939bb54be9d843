//! `facedet` — command-line front end for the library.
//!
//! ```text
//! facedet detect <image.pgm> [--cascade FILE] [--serial] [--min-neighbors N] [--out FILE.ppm]
//! facedet train [--faces N] [--stages N] [--stride K] [--out FILE]
//! facedet info <cascade-file>
//! facedet trailer [--title NAME] [--frames N] [--cascade FILE] [--serial]
//! ```
//!
//! `detect` reads binary PGM (P5) luma images; annotated output is PPM.
//! Without `--cascade`, the pre-trained GentleBoost cascade from
//! `assets/` is used when present.

use facedet::boost::synthdata::{synth_faces, NegativeSource};
use facedet::boost::trainer::{train_cascade, StageGoals, TrainerConfig};
use facedet::boost::GentleBoost;
use facedet::haar::encode::packed_bytes;
use facedet::haar::{enumerate_features, io, EnumerationRule};
use facedet::imgproc::{pnm, RgbImage};
use facedet::prelude::*;
use facedet::video::{movie_trailers, HwDecoder};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn arg_usize(args: &[String], flag: &str, default: usize) -> usize {
    arg_value(args, flag).and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn arg_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn load_cascade(args: &[String]) -> Cascade {
    if let Some(path) = arg_value(args, "--cascade") {
        return io::load(&path).unwrap_or_else(|e| fatal(&format!("loading {path}: {e}")));
    }
    for candidate in ["assets/ours-gentle.cascade", "../assets/ours-gentle.cascade"] {
        if let Ok(c) = io::load(candidate) {
            eprintln!("using pre-trained cascade {candidate}");
            return c;
        }
    }
    fatal("no --cascade given and assets/ours-gentle.cascade not found; run `facedet train` first")
}

fn fatal(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("detect") => cmd_detect(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("trailer") => cmd_trailer(&args[1..]),
        _ => {
            eprintln!(
                "usage: facedet <detect|train|info|trailer> [options]\n\
                 see the module docs of src/bin/facedet.rs for details"
            );
            std::process::exit(2);
        }
    }
}

fn detector_config(args: &[String]) -> DetectorConfig {
    DetectorConfig {
        exec_mode: if arg_flag(args, "--serial") { ExecMode::Serial } else { ExecMode::Concurrent },
        min_neighbors: arg_usize(args, "--min-neighbors", 2),
        ..DetectorConfig::default()
    }
}

fn cmd_detect(args: &[String]) {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        fatal("detect: missing input image (binary PGM)");
    };
    let image = pnm::read_pgm(path).unwrap_or_else(|e| fatal(&format!("reading {path}: {e}")));
    let cascade = load_cascade(args);
    let mut detector = FaceDetector::new(&cascade, detector_config(args));
    let result = detector.detect(&image).expect("detect");
    println!(
        "{}x{}: {} detection(s) from {} raw windows in {:.3} simulated ms ({:?} mode)",
        image.width(),
        image.height(),
        result.detections.len(),
        result.raw.len(),
        result.detect_ms,
        detector.config().exec_mode,
    );
    for d in &result.detections {
        println!(
            "  x={} y={} size={} score={:.2} neighbors={}",
            d.rect.x, d.rect.y, d.rect.w, d.score, d.neighbors
        );
    }
    if let Some(out) = arg_value(args, "--out") {
        let mut rgb = RgbImage::from_gray(&image);
        for d in &result.detections {
            rgb.draw_rect(d.rect, [255, 0, 0], 2);
        }
        pnm::write_ppm(&out, &rgb).unwrap_or_else(|e| fatal(&format!("writing {out}: {e}")));
        println!("annotated image written to {out}");
    }
}

fn cmd_train(args: &[String]) {
    let n_faces = arg_usize(args, "--faces", 300);
    let stages = arg_usize(args, "--stages", 10);
    let stride = arg_usize(args, "--stride", 89);
    let out = arg_value(args, "--out").unwrap_or_else(|| "results/trained.cascade".into());

    println!(
        "training GentleBoost cascade: {n_faces} faces, {stages} stages, feature stride {stride}"
    );
    let features: Vec<_> = enumerate_features(24, EnumerationRule::Icpp2012)
        .into_iter()
        .step_by(stride.max(1))
        .collect();
    let faces = synth_faces(n_faces, 0xC11);
    let mut negs = NegativeSource::new(0xC12);
    let config = TrainerConfig {
        goals: StageGoals {
            min_detection_rate: 0.997,
            max_false_positive_rate: 0.45,
            max_stumps_per_stage: 40,
            min_stumps_per_stage: 3,
        },
        max_stages: stages,
        negatives_per_stage: 300,
        verbose: true,
        ..TrainerConfig::default()
    };
    let learner = GentleBoost::new(features);
    let trained = train_cascade(&learner, "cli-gentle", &faces, &mut negs, &config);
    println!(
        "trained {} stages / {} stumps in {} boosting rounds",
        trained.cascade.depth(),
        trained.cascade.total_stumps(),
        trained.rounds
    );
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    io::save(&trained.cascade, &out).unwrap_or_else(|e| fatal(&format!("writing {out}: {e}")));
    println!("saved to {out}");
}

fn cmd_info(args: &[String]) {
    let Some(path) = args.first() else {
        fatal("info: missing cascade file");
    };
    let c = io::load(path).unwrap_or_else(|e| fatal(&format!("reading {path}: {e}")));
    println!("cascade '{}': window {}x{}", c.name, c.window, c.window);
    println!(
        "{} stages, {} weak classifiers, {} bytes packed ({}% of 64 KiB constant memory)",
        c.depth(),
        c.total_stumps(),
        packed_bytes(&c),
        100 * packed_bytes(&c) / (64 * 1024)
    );
    for (i, st) in c.stages.iter().enumerate() {
        println!("  stage {i:>2}: {:>3} stumps, threshold {:+.3}", st.stumps.len(), st.threshold);
    }
}

fn cmd_trailer(args: &[String]) {
    let frames = arg_usize(args, "--frames", 4);
    let title = arg_value(args, "--title").unwrap_or_else(|| "50/50".into());
    let cascade = load_cascade(args);
    let Some(info) = movie_trailers().into_iter().find(|t| t.title == title) else {
        let titles: Vec<_> = movie_trailers().iter().map(|t| t.title).collect();
        fatal(&format!("unknown trailer {title:?}; available: {titles:?}"));
    };
    println!("streaming {frames} frames of '{title}' (1920x1080)...");
    let decoder = HwDecoder::new(info.generate(frames));
    let mut vd = facedet::detector::VideoDetector::new(&cascade, detector_config(args), 24.0)
        .expect("video detector");
    for frame in decoder {
        let report = vd.process_decoded(&frame);
        let Some(r) = report.result else {
            fatal(&format!("frame {} skipped: {:?}", frame.index, report.skipped));
        };
        println!(
            "  frame {:>3}: decode {:.1} ms | detect {:6.2} ms | {} face(s)",
            frame.index,
            frame.decode_ms,
            r.detect_ms,
            r.detections.len()
        );
    }
    let s = vd.stats();
    println!(
        "mean detect {:.2} ms, pipelined {:.0} fps, {} of {} frames missed the {:.1} ms deadline",
        s.mean_detect_ms(),
        s.pipelined_fps(),
        vd.missed_deadlines(),
        s.frames,
        vd.deadline_ms()
    );
}
