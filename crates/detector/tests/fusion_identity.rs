//! Fusion identity integration tests: kernel fusion is a *launch-count
//! and traffic-ledger* optimisation, never a semantic one. Over randomly
//! seeded video frames, a fused pipeline must report exactly the
//! detections of the unfused baseline, and within each fusion mode every
//! host thread count must produce the byte-identical results and
//! `StreamStats` of one thread — fusion changes *what the device does*,
//! so its simulated time may differ between modes, but nothing host-side
//! is allowed to leak into either mode's output.
//!
//! Knobs are driven through [`DetectorConfig`] fields only:
//! `FD_SIM_THREADS` is cached per process (`OnceLock`) and cannot be
//! varied inside one test binary.

use fd_detector::{Detection, DetectorConfig, FaceDetector, VideoDetector};
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

fn config(fusion: bool, threads: usize) -> DetectorConfig {
    DetectorConfig {
        min_neighbors: 1,
        fusion: Some(fusion),
        host_threads: Some(threads),
        ..DetectorConfig::default()
    }
}

/// Raw detections and per-frame latency bits over a seeded trailer.
fn detect_fingerprint(seed: u64, fusion: bool, threads: usize) -> (Vec<Detection>, Vec<u64>) {
    let frames: Vec<_> = HwDecoder::new(trailer(seed, 3)).collect();
    let mut det = FaceDetector::try_new(&cascade(), config(fusion, threads)).expect("detector");
    let mut raw = Vec::new();
    let mut latency_bits = Vec::new();
    for f in &frames {
        let r = det.detect(&f.luma).expect("detect");
        raw.extend(r.raw);
        latency_bits.push(r.detect_ms.to_bits());
    }
    (raw, latency_bits)
}

/// Full-stream `StreamStats` fingerprint (Debug dump covers every field,
/// including the f64 timing totals, to full precision).
fn stream_fingerprint(seed: u64, fusion: bool, threads: usize) -> String {
    let mut vd = VideoDetector::new(&cascade(), config(fusion, threads), 24.0).expect("detector");
    let reports = vd.run_stream(HwDecoder::new(trailer(seed, 5)));
    assert_eq!(reports.len(), 5);
    format!("{:?}", vd.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole guarantee: over arbitrary frame content, fusion
    /// never changes a single detection, and within each mode the
    /// detections *and* latency bits are invariant across host thread
    /// counts.
    #[test]
    fn fused_detections_match_unfused_across_thread_counts(seed in any::<u64>()) {
        let unfused = detect_fingerprint(seed, false, 1);
        let fused = detect_fingerprint(seed, true, 1);
        prop_assert_eq!(&unfused.0, &fused.0, "fusion changed detections");
        prop_assert_eq!(&detect_fingerprint(seed, false, 4), &unfused, "unfused @4 threads");
        prop_assert_eq!(&detect_fingerprint(seed, true, 4), &fused, "fused @4 threads");
    }

    /// Whole streams: `StreamStats` (frame accounting and all timing
    /// totals) are byte-identical across thread counts in both fusion
    /// modes.
    #[test]
    fn stream_stats_are_thread_invariant_in_both_fusion_modes(seed in any::<u64>()) {
        for fusion in [false, true] {
            let baseline = stream_fingerprint(seed, fusion, 1);
            let s = stream_fingerprint(seed, fusion, 4);
            prop_assert_eq!(&s, &baseline, "fusion={} @4 threads", fusion);
        }
    }
}

/// Non-property smoke check that the config knob actually reaches the
/// pipeline (a regression here would make the proptests vacuous: both
/// sides would silently run unfused).
#[test]
fn fusion_knob_reaches_the_pipeline_and_cuts_launches() {
    let frames: Vec<_> = HwDecoder::new(trailer(11, 1)).collect();
    let run = |fusion: bool| {
        let mut det = FaceDetector::try_new(&cascade(), config(fusion, 1)).unwrap();
        let r = det.detect(&frames[0].luma).unwrap();
        (r.timeline.events.len(), r.detect_ms)
    };
    let (launches_unfused, ms_unfused) = run(false);
    let (launches_fused, ms_fused) = run(true);
    assert_eq!(launches_unfused % 8, 0, "8 launches per level unfused");
    assert_eq!(launches_fused % 4, 0, "4 launches per level fused");
    assert!(ms_fused < ms_unfused, "fusion must be faster: {ms_fused} vs {ms_unfused}");
}
