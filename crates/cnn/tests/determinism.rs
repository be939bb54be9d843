//! CNN backend determinism: the cascade is pure integer arithmetic, so
//! over arbitrary frame content every host thread count must produce
//! the byte-identical raw detections, grouped detections, scores, and
//! latency bits of one thread.
//!
//! The knob is driven through [`DetectorConfig`] only: `FD_SIM_THREADS`
//! is cached per process (`OnceLock`) and cannot be varied inside one
//! test binary.

use fd_cnn::{CnnDetector, CnnModel};
use fd_detector::detector::DetectorConfig;
use fd_detector::group::{Detection, GroupedDetection};
use fd_imgproc::synth::{render_random_background, FaceParams};
use fd_imgproc::GrayImage;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A seeded frame with textured background and one embedded face.
fn frame(seed: u64) -> GrayImage {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut img = render_random_background(&mut rng, 96, 72);
    let params = FaceParams::sample(&mut rng);
    img.blit(&params.render(34), 20, 14);
    img
}

fn config(threads: usize) -> DetectorConfig {
    DetectorConfig { min_neighbors: 1, host_threads: Some(threads), ..DetectorConfig::default() }
}

/// Raw + grouped detections and latency bits over two frames (one
/// single submission, one batch of two) at the given host thread count.
fn fingerprint(
    model: &CnnModel,
    seed: u64,
    threads: usize,
) -> (Vec<Detection>, Vec<GroupedDetection>, Vec<u64>) {
    let mut det = CnnDetector::try_new(model, config(threads)).expect("detector");
    let a = frame(seed);
    let b = frame(seed ^ 0x9E37_79B9);
    let mut raw = Vec::new();
    let mut grouped = Vec::new();
    let mut latency_bits = Vec::new();

    let r = det.detect(&a).expect("detect");
    raw.extend(r.raw);
    grouped.extend(r.detections);
    latency_bits.push(r.detect_ms.to_bits());

    let plan = det.pyramid_plan(&a).expect("plan");
    for r in det.detect_batch_with_plan(&[&a, &b], &plan).expect("batch") {
        raw.extend(r.raw);
        grouped.extend(r.detections);
        latency_bits.push(r.detect_ms.to_bits());
    }
    (raw, grouped, latency_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The backend's structural guarantee: integer kernels make results
    /// independent of how the simulated device is executed on the host.
    #[test]
    fn cnn_results_are_thread_invariant(seed in any::<u64>()) {
        let model = CnnModel::seeded(seed % 5);
        let baseline = fingerprint(&model, seed, 1);
        prop_assert!(!baseline.0.is_empty() || !baseline.2.is_empty());
        let f = fingerprint(&model, seed, 4);
        prop_assert_eq!(&f.0, &baseline.0, "raw @4 threads");
        prop_assert_eq!(&f.1, &baseline.1, "grouped @4 threads");
        prop_assert_eq!(&f.2, &baseline.2, "latency @4 threads");
    }
}
