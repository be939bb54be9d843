//! Cascade training walk-through (paper §IV): train GentleBoost and
//! discrete AdaBoost cascades on the same synthetic corpus, compare their
//! weak-classifier counts (the paper's 1446-vs-2913 effect), inspect the
//! compressed constant-memory encoding, and save/load the result in the
//! text format.
//!
//! ```text
//! cargo run --release --example train_cascade -- [n_faces]
//! ```

use facedet::boost::smp::{IterationWork, MachineProfile};
use facedet::boost::synthdata::{synth_faces, NegativeSource};
use facedet::boost::trainer::{train_cascade, StageGoals, TrainerConfig};
use facedet::boost::{AdaBoost, GentleBoost};
use facedet::haar::encode::{encode_cascade, packed_bytes, quantize_cascade};
use facedet::haar::{enumerate_features, io, EnumerationRule};

fn main() {
    let n_faces: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(150);

    // Feature pool: a subsample of the full 103 607-combination space.
    let features: Vec<_> =
        enumerate_features(24, EnumerationRule::Icpp2012).into_iter().step_by(131).collect();
    println!("feature pool: {} of 103 607 combinations", features.len());

    let faces = synth_faces(n_faces, 2024);
    let config = TrainerConfig {
        goals: StageGoals {
            min_detection_rate: 0.99,
            max_false_positive_rate: 0.45,
            max_stumps_per_stage: 20,
            min_stumps_per_stage: 1,
        },
        max_stages: 6,
        negatives_per_stage: 200,
        verbose: true,
        ..TrainerConfig::default()
    };

    println!("\n--- GentleBoost (the paper's algorithm) ---");
    let gentle = GentleBoost::new(features.clone());
    let mut negs = NegativeSource::new(3);
    let g = train_cascade(&gentle, "example-gentle", &faces, &mut negs, &config);

    println!("\n--- discrete AdaBoost (OpenCV-style baseline) ---");
    let ada = AdaBoost::new(features);
    let mut negs = NegativeSource::new(3);
    let a = train_cascade(&ada, "example-ada", &faces, &mut negs, &config);

    println!("\n=== comparison ===");
    println!(
        "GentleBoost: {} stages, {} stumps ({} boosting rounds)",
        g.cascade.depth(),
        g.cascade.total_stumps(),
        g.rounds
    );
    println!(
        "AdaBoost:    {} stages, {} stumps ({} boosting rounds)",
        a.cascade.depth(),
        a.cascade.total_stumps(),
        a.rounds
    );
    println!(
        "stump ratio: {:.2}x (the paper's cascades: 2913 / 1446 = 2.01x)",
        a.cascade.total_stumps() as f64 / g.cascade.total_stumps().max(1) as f64
    );

    // Constant-memory compression (§III-C).
    let q = quantize_cascade(&g.cascade);
    let words = encode_cascade(&q);
    println!(
        "\ncompressed encoding: {} stumps -> {} bytes ({} B/stump) — fits 64 KiB constant memory: {}",
        q.total_stumps(),
        packed_bytes(&q),
        packed_bytes(&q) / q.total_stumps().max(1),
        packed_bytes(&q) <= 64 * 1024
    );
    assert_eq!(words.len() * 4, packed_bytes(&q));

    // Persist and reload.
    std::fs::create_dir_all("results").ok();
    let path = "results/example-gentle.cascade";
    io::save(&g.cascade, path).expect("save cascade");
    let back = io::load(path).expect("load cascade");
    assert_eq!(back, g.cascade);
    println!("cascade saved to {path} and reloaded identically");

    // What would one full-corpus training iteration cost on the paper's
    // machines? (Fig. 8's workload, via the SMP model.)
    let work = IterationWork::paper_workload();
    for m in [MachineProfile::dual_xeon_e5472(), MachineProfile::core_i7_2600k()] {
        println!(
            "{}: full-corpus iteration {:.0} s at 1 thread, {:.0} s at 8 ({:.2}x)",
            m.name,
            m.predict_seconds(&work, 1),
            m.predict_seconds(&work, 8),
            m.predict_speedup(&work, 8)
        );
    }
}
