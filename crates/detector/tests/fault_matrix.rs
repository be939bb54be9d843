//! Fault-matrix integration tests: every injectable fault kind, driven
//! through the full streaming pipeline (decode -> upload -> per-level
//! kernel chains -> timing -> readback), must leave the stream alive
//! with every frame accounted as Ok/Degraded/Skipped. (Zero-fault identity
//! is an axis of the identity lattice, `tests/lattice`.)
//!
//! Fault kind -> pipeline stage exercised:
//! * `DecodeFault::Dropped` / `Corrupted` — the decode stage
//! * `copy_corruption_rate` — host->device / device->host copies
//! * `transient_launch_rate` / `launch_timeout_rate` — every kernel
//!   launch in the eight-kernel per-level chain
//! * `stall_rate` — the timing phase (latency spikes, results intact)

use fd_detector::{DetectorConfig, FrameOutcome, StreamStats, VideoDetector};
use fd_gpu::FaultPlan;
use fd_haar::{Cascade, FeatureKind, HaarFeature, Stage, Stump};
use fd_video::{DecodeFaultPlan, HwDecoder, Trailer, TrailerSpec};

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

fn trailer(n_frames: usize) -> Trailer {
    Trailer::generate(TrailerSpec {
        width: 160,
        height: 120,
        n_frames,
        seed: 21,
        face_size: (26.0, 60.0),
        ..TrailerSpec::default()
    })
}

/// Run a faulted stream end-to-end; returns the stats for assertions.
fn run_stream(
    device_plan: Option<FaultPlan>,
    decode_plan: Option<DecodeFaultPlan>,
    n_frames: usize,
) -> StreamStats {
    let mut decoder = HwDecoder::new(trailer(n_frames));
    decoder.set_fault_plan(decode_plan);
    let mut vd = VideoDetector::new(
        &cascade(),
        DetectorConfig {
            min_neighbors: 1,
            fault_plan: device_plan,
            ..DetectorConfig::default()
        },
        24.0,
    )
    .expect("video detector");
    let reports = vd.run_stream(decoder);
    assert_eq!(reports.len(), n_frames, "one report per decoded frame");
    for r in &reports {
        match r.outcome {
            FrameOutcome::Skipped => {
                assert!(r.result.is_none() && r.skipped.is_some(), "frame {}", r.frame)
            }
            _ => assert!(r.result.is_some() && r.skipped.is_none(), "frame {}", r.frame),
        }
    }
    vd.stats().clone()
}

#[test]
fn launch_timeouts_skip_frames_but_the_stream_survives() {
    let s = run_stream(Some(FaultPlan::seeded(3).with_launch_timeouts(0.02)), None, 25);
    assert_eq!(s.frames, 25);
    assert!(s.all_frames_accounted());
    assert!(s.skipped_frames > 0, "2% timeouts over ~64 launches/frame must skip");
    assert!(s.ok_frames > 0, "some frames must still pass clean");
}

#[test]
fn transient_launch_failures_are_retried() {
    let s =
        run_stream(Some(FaultPlan::seeded(7).with_transient_launch_failures(0.005)), None, 25);
    assert_eq!(s.frames, 25);
    assert!(s.all_frames_accounted());
    assert!(s.retries > 0, "transient faults must trigger retries");
    assert!(s.total_backoff_ms > 0.0);
    assert!(s.degraded_frames > 0, "recovered frames are reported degraded");
}

#[test]
fn stream_stalls_stretch_latency_without_losing_frames() {
    let clean = run_stream(None, None, 15);
    let stalled =
        run_stream(Some(FaultPlan::seeded(9).with_stream_stalls(0.3, 2000.0)), None, 15);
    assert_eq!(stalled.frames, 15);
    assert!(stalled.all_frames_accounted());
    assert_eq!(stalled.skipped_frames, 0, "stalls never lose results");
    assert_eq!(stalled.total_detections, clean.total_detections, "results intact");
    assert!(
        stalled.total_detect_ms > clean.total_detect_ms + 1.0,
        "stalls must stretch device time: {} vs {}",
        stalled.total_detect_ms,
        clean.total_detect_ms
    );
}

#[test]
fn copy_corruption_degrades_nothing_fatal() {
    let s = run_stream(Some(FaultPlan::seeded(13).with_copy_corruption(0.05)), None, 25);
    assert_eq!(s.frames, 25);
    assert!(s.all_frames_accounted());
    assert_eq!(s.skipped_frames, 0, "poisoned copies do not abort frames");
}

#[test]
fn decode_faults_are_accounted_per_kind() {
    let dropped = run_stream(None, Some(DecodeFaultPlan::seeded(5).with_dropped_frames(0.2)), 25);
    assert!(dropped.all_frames_accounted());
    assert!(dropped.skipped_frames > 0, "dropped decodes skip frames");

    let corrupt = run_stream(None, Some(DecodeFaultPlan::seeded(5).with_corrupt_frames(0.2)), 25);
    assert!(corrupt.all_frames_accounted());
    assert_eq!(corrupt.skipped_frames, 0, "corrupt frames still run detection");
    assert!(corrupt.degraded_frames > 0, "corrupt frames are reported degraded");
}

#[test]
fn everything_at_once_still_completes() {
    let device = FaultPlan::seeded(17)
        .with_transient_launch_failures(0.003)
        .with_launch_timeouts(0.002)
        .with_stream_stalls(0.05, 1000.0)
        .with_copy_corruption(0.02);
    let decode = DecodeFaultPlan::seeded(17).with_corrupt_frames(0.05).with_dropped_frames(0.05);
    let s = run_stream(Some(device), Some(decode), 40);
    assert_eq!(s.frames, 40);
    assert!(s.all_frames_accounted());
}

/// The ISSUE's acceptance scenario: 200-frame trailer, 5% transient
/// launch failures, 2% corrupt frames — completes without panicking,
/// every frame accounted.
#[test]
fn acceptance_200_frame_stream_with_seeded_faults() {
    let device = FaultPlan::seeded(42).with_transient_launch_failures(0.05);
    let decode = DecodeFaultPlan::seeded(42).with_corrupt_frames(0.02);
    let s = run_stream(Some(device), Some(decode), 200);
    assert_eq!(s.frames, 200);
    assert!(
        s.all_frames_accounted(),
        "ok {} + degraded {} + skipped {} != 200",
        s.ok_frames,
        s.degraded_frames,
        s.skipped_frames
    );
    assert!(s.retries > 0, "5% transient rate must exercise the retry path");
    assert!(s.pipelined_fps() > 0.0);
}
