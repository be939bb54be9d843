//! Property-based tests for the serving layer's headline guarantee:
//! with batches capped at one request (`max_batch_size: 1`), a
//! [`facedet::serve::DetectionServer`] run is *bit-identical* to
//! calling [`FaceDetector::detect`] per request in arrival order — same
//! raw windows, same grouped detections, same simulated latency bits —
//! and the whole run is invariant to the functional phase's host thread
//! count.

use proptest::prelude::*;

use facedet::prelude::*;
use facedet::serve::{RequestOutcome, ServeConfig};

fn edge_cascade() -> Cascade {
    let feature = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
    let mut cascade = Cascade::new("edges", 24);
    cascade.stages.push(Stage {
        stumps: vec![Stump { feature, threshold: 8192, left: -1.0, right: 1.0 }],
        threshold: 0.5,
    });
    cascade
}

/// A 48x36 frame with a dark/bright edge pair at a variant-dependent
/// shift, so different variants produce different detection sets.
fn frame(variant: u8) -> GrayImage {
    let shift = (variant % 6) as usize;
    GrayImage::from_fn(48, 36, |x, y| {
        let x = x + shift;
        if (14..22).contains(&x) && (6..30).contains(&y) {
            10.0
        } else if (22..30).contains(&x) && (6..30).contains(&y) {
            245.0
        } else {
            120.0
        }
    })
}

fn detector_config(host_threads: usize) -> DetectorConfig {
    DetectorConfig {
        min_neighbors: 1,
        host_threads: Some(host_threads),
        ..DetectorConfig::default()
    }
}

/// Fingerprint of one served request: everything observable, bitwise.
type Served = (u64, Vec<facedet::detector::Detection>, Vec<GroupedDetection>, u64);

/// Run a server over the arrival pattern and fingerprint every
/// completion in completion order. All requests share one SLO, so EDF
/// order equals arrival order and nothing is ever late.
fn run_server(
    batch: BatchPolicy,
    host_threads: usize,
    pattern: &[(u32, u8)],
) -> Vec<Served> {
    let mut server = facedet::serve::DetectionServer::new(
        &edge_cascade(),
        detector_config(host_threads),
        ServeConfig { batch, ..ServeConfig::default() },
    )
    .expect("server construction");
    let mut t = 0.0f64;
    for &(gap_us, variant) in pattern {
        t += gap_us as f64;
        server
            .submit(frame(variant), Priority::Standard, t, 1e9)
            .expect("valid submission");
    }
    server.run();
    server
        .completed()
        .iter()
        .map(|c| {
            let RequestOutcome::Served { ref result, .. } = c.outcome else {
                panic!("nothing sheds or fails in this pattern, got {:?}", c.outcome);
            };
            (
                c.id.0,
                result.raw.clone(),
                result.detections.clone(),
                result.detect_ms.to_bits(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Max-batch-size 1 == per-request detector calls in arrival order,
    /// bit for bit, and the whole run is host-thread invariant.
    #[test]
    fn unbatched_serving_is_bitwise_per_request_detection(
        pattern in proptest::collection::vec((0u32..4000, 0u8..6), 1..6),
        threads in 1usize..4,
    ) {
        // Baseline: one detector, one detect() per request, arrival order.
        let mut detector =
            FaceDetector::try_new(&edge_cascade(), detector_config(1)).expect("detector");
        let baseline: Vec<Served> = pattern
            .iter()
            .enumerate()
            .map(|(i, &(_, variant))| {
                let r = detector.detect(&frame(variant)).expect("detect");
                (i as u64, r.raw, r.detections, r.detect_ms.to_bits())
            })
            .collect();

        let size_one = BatchPolicy { max_batch_size: 1, ..BatchPolicy::default() };

        let served = run_server(size_one.clone(), 1, &pattern);
        prop_assert_eq!(&served, &baseline, "max_batch_size 1 == per-request detect");

        let served_threaded = run_server(size_one, threads, &pattern);
        prop_assert_eq!(&served_threaded, &baseline, "host-thread invariant");
    }
}
