//! Accuracy/latency front: the Haar and CNN backends over the synthetic
//! mug-shot set, through the shared ROC + Hungarian machinery.
//!
//! Both detectors run behind `fd_detector::Detector` over the identical
//! corpus ([`fd_eval::evaluate_backend`]), so the comparison isolates
//! the backend: same frames, same grouping, same `S_eyes` matching, same
//! threshold sweep. The CNN trades virtual device time for
//! discrimination — the second point on the serving layer's
//! accuracy/latency front (DESIGN.md "Multi-backend detection").
//!
//! Gates:
//!
//! * the CNN cascade must reject >= 90% of windows before its final
//!   stage (the early-exit economy that makes a dense final template
//!   affordable);
//! * the CNN's loosest-threshold TPR must reach >= 0.9 on mug shots;
//! * the CNN must actually pay for that accuracy: mean virtual detect
//!   time strictly above the Haar backend's (otherwise the "front" has
//!   collapsed and routing by class is pointless).
//!
//! The default corpus is background-dominated (1:4), mirroring the
//! paper's eval set (an SCFace subset plus 3 000 background images) —
//! the rejection gate measures the cascade against the traffic shape it
//! exists for.
//!
//! Usage: `cnn_eval` (no options). Writes `results/BENCH_cnn_eval.json`;
//! virtual time, so a run reproduces the committed file byte for byte.

use fd_bench::cascades::{trained_cascade_pair, TrainingBudget};
use fd_bench::out::{num, Report, Table};
use fd_bench::row;
use fd_cnn::{CnnDetector, CnnModel};
use fd_detector::{Detector, DetectorConfig, FaceDetector};
use fd_eval::roc::{roc_curve, BackendEval};
use fd_eval::scface::MugshotDataset;
use fd_eval::{evaluate_backend, RocPoint};

const MODEL_SEED: u64 = 0;
const CORPUS_SEED: u64 = 0x5CFA;
const FACES: usize = 40;
const BACKGROUNDS: usize = 160;
const SIDE: usize = 96;
const MIN_PRE_FINAL_REJECTION: f64 = 0.90;
const MIN_CNN_TPR: f64 = 0.90;

struct Row {
    backend: &'static str,
    eval: BackendEval,
    curve: Vec<RocPoint>,
}

fn measure(name: &'static str, det: &mut dyn Detector, ds: &MugshotDataset) -> Row {
    let eval = evaluate_backend(det, ds).expect("backend evaluation");
    let curve = roc_curve(&eval.evals, 12);
    Row { backend: name, eval, curve }
}

fn main() {
    let ds = MugshotDataset::generate(FACES, BACKGROUNDS, SIDE, CORPUS_SEED);
    let cfg = DetectorConfig {
        min_neighbors: 1,
        collect_rejection_stats: true,
        ..DetectorConfig::default()
    };
    println!(
        "[cnn_eval] {FACES} mug shots + {BACKGROUNDS} backgrounds ({SIDE}x{SIDE}), both backends"
    );

    let pair = trained_cascade_pair(&TrainingBudget::tiny());
    let mut haar = FaceDetector::try_new(&pair.ours, cfg.clone()).expect("haar detector");
    let mut cnn = CnnDetector::try_new(&CnnModel::seeded(MODEL_SEED), cfg).expect("cnn detector");
    let rows = [measure("haar", &mut haar, &ds), measure("cnn", &mut cnn, &ds)];

    let loosest = |r: &Row| *r.curve.last().expect("non-degenerate curve");
    let mut backends = Table::new(&[
        "backend",
        "tpr_loosest",
        "fp_loosest",
        "mean_detect_ms",
        "total_detect_ms",
        "pre_final_rejection",
    ]);
    let mut roc = Table::new(&["backend", "threshold", "tp", "fp", "tpr"]);
    for r in &rows {
        let p = loosest(r);
        backends.push(row![
            r.backend,
            num(p.tpr, 5),
            p.fp,
            num(r.eval.mean_detect_ms(), 5),
            num(r.eval.total_detect_ms, 3),
            num(r.eval.pre_final_rejection(), 5),
        ]);
        for p in &r.curve {
            roc.push(row![r.backend, num(f64::from(p.threshold), 5), p.tp, p.fp, num(p.tpr, 5)]);
        }
    }
    print!("{}", backends.render());

    let (haar_row, cnn_row) = (&rows[0], &rows[1]);
    let rejection = cnn_row.eval.pre_final_rejection();
    assert!(
        rejection >= MIN_PRE_FINAL_REJECTION,
        "CNN cascade must reject >= {MIN_PRE_FINAL_REJECTION} of windows before the final \
         stage, got {rejection:.4}"
    );
    let cnn_tpr = loosest(cnn_row).tpr;
    assert!(
        cnn_tpr >= MIN_CNN_TPR,
        "CNN loosest-threshold TPR must reach >= {MIN_CNN_TPR}, got {cnn_tpr:.3}"
    );
    let (haar_ms, cnn_ms) = (haar_row.eval.mean_detect_ms(), cnn_row.eval.mean_detect_ms());
    assert!(
        cnn_ms > haar_ms,
        "the front must be a trade: CNN {cnn_ms:.3} ms/frame vs Haar {haar_ms:.3}"
    );
    println!(
        "front: haar tpr {:.3} at {haar_ms:.3} ms/frame, cnn tpr {cnn_tpr:.3} at \
         {cnn_ms:.3} ms/frame ({:.2}x), cnn pre-final rejection {rejection:.4}",
        loosest(haar_row).tpr,
        cnn_ms / haar_ms,
    );

    let report = Report::new()
        .field("bench", "cnn_eval")
        .field("faces", FACES)
        .field("backgrounds", BACKGROUNDS)
        .field("side", SIDE)
        .field("cnn_latency_ratio", num(cnn_ms / haar_ms, 4))
        .table("backends", backends)
        .table("roc", roc);
    let path = report.write("BENCH_cnn_eval.json").expect("write results");
    println!("wrote {}", path.display());
}
