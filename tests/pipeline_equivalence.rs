//! Cross-crate integration: the simulated-GPU pipeline must match the
//! pure-CPU reference detector window for window, and its timing must be
//! consistent across execution modes.

use facedet::detector::cpu_ref::{depth_maps_cpu, detect_cpu};
use facedet::detector::FramePipeline;
use facedet::imgproc::synth::FaceParams;
use facedet::prelude::*;

/// A small multi-stage cascade exercising several feature kinds.
fn test_cascade() -> Cascade {
    let mut c = Cascade::new("integration", 24);
    let feats = [
        HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8),
        HaarFeature::from_params(FeatureKind::EdgeV, 4, 6, 8, 6),
        HaarFeature::from_params(FeatureKind::LineH, 3, 9, 5, 7),
        HaarFeature::from_params(FeatureKind::CenterSurround, 5, 5, 4, 4),
        HaarFeature::from_params(FeatureKind::Diagonal, 4, 4, 8, 8),
    ];
    for (i, f) in feats.iter().enumerate() {
        c.stages.push(Stage {
            stumps: vec![Stump {
                feature: *f,
                threshold: -5000 + 2000 * i as i32,
                left: -0.6,
                right: 0.8,
            }],
            threshold: -0.1,
        });
    }
    c
}

/// A busy frame: textured background with two synthetic faces.
fn busy_frame() -> GrayImage {
    let mut img = GrayImage::from_fn(160, 120, |x, y| {
        (96.0 + 64.0 * ((x as f32 / 17.0).sin() * (y as f32 / 11.0).cos())).clamp(0.0, 255.0)
    });
    let f1 = FaceParams::nominal();
    img.blit(&f1.render(32), 20, 30);
    let mut f2 = FaceParams::nominal();
    f2.feat_scale = 1.05;
    img.blit(&f2.render(48), 90, 50);
    img
}

#[test]
fn gpu_pipeline_matches_cpu_reference_depth_maps() {
    let cascade = test_cascade();
    let frame = busy_frame();
    let gpu = facedet::gpu::Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
    let mut pipeline = FramePipeline::new(gpu, &cascade, 1.25);
    let (outputs, _) = pipeline.run_frame(&frame).expect("run_frame");
    let cpu_maps = depth_maps_cpu(&cascade, &frame, 1.25);

    assert_eq!(outputs.len(), cpu_maps.len(), "level count");
    for (out, (w, h, cpu_depth)) in outputs.iter().zip(&cpu_maps) {
        assert_eq!((out.width, out.height), (*w, *h));
        for oy in 0..h - 24 {
            for ox in 0..w - 24 {
                assert_eq!(
                    out.depth[oy * w + ox],
                    cpu_depth[oy * w + ox],
                    "level {} window ({ox},{oy})",
                    out.level
                );
            }
        }
    }
}

#[test]
fn gpu_raw_detections_equal_cpu_detections() {
    let cascade = test_cascade();
    let frame = busy_frame();
    let mut det = FaceDetector::new(
        &cascade,
        DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() },
    );
    let gpu_result = det.detect(&frame).expect("detect");
    let cpu = detect_cpu(&cascade, &frame, 1.25);

    assert_eq!(gpu_result.raw.len(), cpu.len(), "raw window count");
    for (g, c) in gpu_result.raw.iter().zip(&cpu) {
        assert_eq!(g.rect, c.rect);
        assert_eq!(g.scale, c.scale);
        assert!((g.score - c.score).abs() < 1e-3, "{} vs {}", g.score, c.score);
    }
}

#[test]
fn serial_and_concurrent_modes_are_bit_identical_functionally() {
    let cascade = test_cascade();
    let frame = busy_frame();
    let run = |device| {
        let mut det = FaceDetector::new(&cascade, DetectorConfig { device, ..Default::default() });
        det.detect(&frame).expect("detect")
    };
    let a = run(DeviceSpec::gtx470().profiler_serialized());
    let b = run(DeviceSpec::gtx470());
    assert_eq!(a.raw, b.raw);
    assert_eq!(a.detections.len(), b.detections.len());
    assert!(
        a.detect_ms >= b.detect_ms,
        "serial ({}) must not beat concurrent ({})",
        a.detect_ms,
        b.detect_ms
    );
}

#[test]
fn timeline_accounts_all_pipeline_kernels() {
    let cascade = test_cascade();
    let frame = busy_frame();
    let mut det = FaceDetector::new(&cascade, DetectorConfig::default());
    let r = det.detect(&frame).expect("detect");
    let names: std::collections::BTreeSet<&str> =
        r.timeline.events.iter().map(|e| e.kernel_name).collect();
    for expected in ["scale", "filter", "scan_rows", "transpose", "cascade_eval", "display"] {
        assert!(names.contains(expected), "missing kernel {expected}");
    }
    // 8 launches per pyramid level.
    let levels = facedet::imgproc::Pyramid::plan(160, 120, 1.25, 24).len();
    assert_eq!(r.timeline.events.len(), 8 * levels);
}

/// A device on which no block of the pipeline can be placed — no SMs, or
/// a per-SM budget of zero — or that admits no kernel at all is refused
/// with a typed error by `try_new` or `detect`, for both stage lists,
/// never by a stalled timing simulation.
#[test]
fn devices_that_fit_no_block_return_typed_errors() {
    use facedet::detector::DetectorError;
    use facedet::gpu::LaunchError;
    let zeroed: [fn(&mut DeviceSpec); 5] = [
        |d| d.sm_count = 0,
        |d| d.max_blocks_per_sm = 0,
        |d| d.max_warps_per_sm = 0,
        |d| d.registers_per_sm = 0,
        |d| d.max_concurrent_kernels = 0,
    ];
    let frame = GrayImage::from_fn(64, 48, |x, y| ((x * 7 + y * 13) % 256) as f32);
    let (cascade, model) = (test_cascade(), CnnModel::seeded(0));
    for (i, zero) in zeroed.iter().enumerate() {
        let mut config = DetectorConfig::default();
        zero(&mut config.device);
        let haar = FaceDetector::try_new(&cascade, config.clone())
            .and_then(|mut d| d.detect(&frame).map(drop));
        let cnn = CnnDetector::try_new(&model, config).and_then(|mut d| d.detect(&frame).map(drop));
        // The first four specs fail the first launch; a kernel cap of 0
        // fails `try_new`.
        for result in [haar, cnn] {
            match result {
                Err(DetectorError::InvalidConfig { .. }) if i == 4 => {}
                Err(DetectorError::Launch {
                    source: LaunchError::BlockDoesNotFit { .. }, ..
                }) if i < 4 => {}
                other => panic!("spec {i}: {other:?}"),
            }
        }
    }
}

/// One SM and more than one kernel in flight: the smallest device the
/// scheduler must finish on. Both stage lists complete there and detect,
/// window for window, what the one-thread run on the default device does.
#[test]
fn one_sm_devices_detect_what_the_reference_detects() {
    let frame = busy_frame();
    let (cascade, model) = (test_cascade(), CnnModel::seeded(0));
    let reference = DetectorConfig { host_threads: Some(1), ..DetectorConfig::default() };
    let haar_want = FaceDetector::new(&cascade, reference.clone()).detect(&frame).expect("haar");
    let cnn_want =
        CnnDetector::try_new(&model, reference).and_then(|mut d| d.detect(&frame)).expect("cnn");
    for cap in [2, 16] {
        let config = DetectorConfig {
            device: DeviceSpec { max_concurrent_kernels: cap, ..DeviceSpec::single_sm() },
            ..DetectorConfig::default()
        };
        let haar = FaceDetector::new(&cascade, config.clone()).detect(&frame).expect("haar");
        let cnn = CnnDetector::try_new(&model, config).and_then(|mut d| d.detect(&frame));
        let cnn = cnn.expect("cnn");
        for (got, want, what) in [(&haar, &haar_want, "haar"), (&cnn, &cnn_want, "cnn")] {
            assert_eq!(got.raw, want.raw, "{what} at cap {cap}: raw windows");
            assert_eq!(got.detections, want.detections, "{what} at cap {cap}: grouped");
            assert!(got.detect_ms > want.detect_ms, "{what}: one SM is slower than 14");
        }
    }
}
