//! Autotune identity integration tests: launch-shape autotuning is a
//! *timing and residency* optimisation, never a semantic one. Over
//! randomly seeded video frames, an autotuned pipeline must report
//! exactly the detections of the fixed-shape baseline — in both fusion
//! modes — and within each autotune mode every host thread count must
//! produce the byte-identical results of one thread. Autotuning changes
//! *which blocks the device runs*, so its simulated time may differ from
//! the baseline, but nothing host-side may leak into either mode's
//! output.
//!
//! Knobs are driven through [`DetectorConfig`] fields only:
//! `FD_SIM_THREADS` is cached per process (`OnceLock`) and cannot be
//! varied inside one test binary.

use fd_detector::{Detection, DetectorConfig, FaceDetector};
use fd_haar::{Cascade, FeatureKind, HaarFeature, Stage, Stump};
use fd_video::{HwDecoder, Trailer, TrailerSpec};
use proptest::prelude::*;

fn cascade() -> Cascade {
    let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
    let mut c = Cascade::new("t", 24);
    for _ in 0..3 {
        c.stages.push(Stage {
            stumps: vec![Stump { feature: f, threshold: 8192, left: -1.0, right: 1.0 }],
            threshold: 0.5,
        });
    }
    c
}

fn trailer(seed: u64, n_frames: usize) -> Trailer {
    Trailer::generate(TrailerSpec {
        width: 160,
        height: 120,
        n_frames,
        seed,
        face_size: (26.0, 60.0),
        ..TrailerSpec::default()
    })
}

fn config(autotune: bool, fusion: bool, threads: usize) -> DetectorConfig {
    DetectorConfig {
        min_neighbors: 1,
        autotune: Some(autotune),
        fusion: Some(fusion),
        host_threads: Some(threads),
        ..DetectorConfig::default()
    }
}

/// Raw detections and per-frame latency bits over a seeded trailer.
fn detect_fingerprint(
    seed: u64,
    autotune: bool,
    fusion: bool,
    threads: usize,
) -> (Vec<Detection>, Vec<u64>) {
    let frames: Vec<_> = HwDecoder::new(trailer(seed, 3)).collect();
    let mut det =
        FaceDetector::try_new(&cascade(), config(autotune, fusion, threads)).expect("detector");
    let mut raw = Vec::new();
    let mut latency_bits = Vec::new();
    for f in &frames {
        let r = det.detect(&f.luma).expect("detect");
        raw.extend(r.raw);
        latency_bits.push(r.detect_ms.to_bits());
    }
    (raw, latency_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole guarantee: over arbitrary frame content, autotuning
    /// never changes a single detection — with fusion off or on — and
    /// within each autotune mode the detections *and* latency bits are
    /// invariant across host thread counts.
    #[test]
    fn autotuned_detections_match_fixed_shapes_across_thread_counts(seed in any::<u64>()) {
        for fusion in [false, true] {
            let fixed = detect_fingerprint(seed, false, fusion, 1);
            let tuned = detect_fingerprint(seed, true, fusion, 1);
            prop_assert_eq!(&fixed.0, &tuned.0, "autotune changed detections (fusion={})", fusion);
            prop_assert_eq!(&detect_fingerprint(seed, false, fusion, 4), &fixed, "fixed @4 threads");
            prop_assert_eq!(&detect_fingerprint(seed, true, fusion, 4), &tuned, "tuned @4 threads");
        }
    }
}

/// Non-property smoke check that the config knob actually reaches the
/// pipeline and re-tiles at least one launch (a regression here would
/// make the proptest vacuous: both sides would run the same shapes).
#[test]
fn autotune_knob_reaches_the_pipeline_and_retiles_launches() {
    let frames: Vec<_> = HwDecoder::new(trailer(11, 1)).collect();
    let run = |autotune: bool| {
        let mut det = FaceDetector::try_new(&cascade(), config(autotune, false, 1)).unwrap();
        let r = det.detect(&frames[0].luma).unwrap();
        // Fingerprint each launch's geometry: block count + residency.
        r.timeline
            .events
            .iter()
            .map(|e| (e.kernel_name, e.blocks, e.occupancy.resident_warps))
            .collect::<Vec<_>>()
    };
    let fixed = run(false);
    let tuned = run(true);
    assert_eq!(fixed.len(), tuned.len(), "same launch count either way");
    assert_ne!(fixed, tuned, "autotune must re-tile at least one launch");
}
