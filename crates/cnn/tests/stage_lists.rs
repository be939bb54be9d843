//! The pipeline skeleton's contract, checked once for every stage list:
//! the paper's Haar cascade (`fd_detector::HaarStages`) and the CNN
//! cascade of this crate. Each check is one generic function; the macro
//! at the bottom runs it as a `haar::` and a `cnn::` test.
//!
//! Results are compared through the stage list's own readback — raw
//! detections and the rejection histogram of every level — so a check
//! sees every window's depth and every hit's position and score.

use fd_cnn::{CnnModel, CnnStages};
use fd_detector::group::Detection;
use fd_detector::{DetectorConfig, DetectorError, HaarStages, Pipeline, StageList};
use fd_gpu::{DeviceSpec, ExecMode, Gpu, Timeline};
use fd_haar::{Cascade, FeatureKind, HaarFeature, Stage, Stump};
use fd_imgproc::synth::FaceParams;
use fd_imgproc::{GrayImage, Rect};

/// A stage list under test: its model and frames it detects something in.
trait Subject: StageList {
    /// Whether [`DetectorConfig::fusion`] fuses some of its launches.
    const FUSES: bool;

    fn test_model() -> Self::Model;

    /// A model the stage list must refuse to stage.
    fn invalid_model() -> Self::Model;

    /// The `k`-th test frame (96 x 72): the same scene shifted by `k`.
    fn frame(k: usize) -> GrayImage;
}

impl Subject for HaarStages {
    const FUSES: bool = true;

    fn test_model() -> Cascade {
        let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        let mut c = Cascade::new("edge", 24);
        c.stages.push(Stage {
            stumps: vec![Stump { feature: f, threshold: 4096, left: -1.0, right: 1.0 }],
            threshold: 0.5,
        });
        c
    }

    /// A cascade without stages.
    fn invalid_model() -> Cascade {
        Cascade::new("empty", 24)
    }

    /// One strong dark-to-bright edge.
    fn frame(k: usize) -> GrayImage {
        GrayImage::from_fn(96, 72, |x, y| {
            let (x, y) = (x + 5 * k, y + 3 * k);
            if (20..32).contains(&x) && (10..34).contains(&y) {
                10.0
            } else if (32..44).contains(&x) && (10..34).contains(&y) {
                250.0
            } else {
                100.0
            }
        })
    }
}

impl Subject for CnnStages {
    const FUSES: bool = false;

    fn test_model() -> CnnModel {
        CnnModel::seeded(0)
    }

    /// A luma-facing conv filter that is no longer DC-free.
    fn invalid_model() -> CnnModel {
        let mut bad = CnnModel::seeded(0);
        bad.conv1[0] += 1;
        bad
    }

    /// A synthetic face over a gradient.
    fn frame(k: usize) -> GrayImage {
        let mut img = GrayImage::from_fn(96, 72, |x, y| (60 + x + y) as f32);
        let k = k as i32;
        img.blit(&FaceParams::nominal().render(40), 8 + 4 * k, 10 + 2 * k);
        img
    }
}

fn pipeline<S: Subject>(mode: ExecMode) -> Pipeline<S> {
    Pipeline::try_new(Gpu::new(DeviceSpec::gtx470(), mode), &S::test_model(), 1.25).unwrap()
}

/// Raw detections and per-level rejection counts of one request slot.
type Fingerprint = (Vec<Detection>, Vec<Vec<u64>>, Vec<u64>);

fn fingerprint<S: StageList>(p: &Pipeline<S>, slot: usize) -> Fingerprint {
    let views = p.readback(slot);
    let hist = p.stages().histogram(&views);
    (p.stages().extract_raw(&views), hist.counts, hist.windows_per_level)
}

/// Submit `frames` as one batch over their full plan; every slot's
/// fingerprint and the timeline.
fn run<S: StageList>(p: &mut Pipeline<S>, frames: &[&GrayImage]) -> (Vec<Fingerprint>, Timeline) {
    let plan = p.plan_for(frames[0]).unwrap();
    let timeline = p.submit_batch_with_plan(frames, &plan).unwrap();
    ((0..frames.len()).map(|slot| fingerprint(p, slot)).collect(), timeline)
}

fn serial_and_concurrent_agree_functionally<S: Subject>() {
    let frame = S::frame(0);
    let (serial, ts) = run(&mut pipeline::<S>(ExecMode::Serial), &[&frame]);
    let (concurrent, tc) = run(&mut pipeline::<S>(ExecMode::Concurrent), &[&frame]);
    assert!(!serial[0].0.is_empty(), "the test frame must fire windows");
    assert_eq!(serial, concurrent);
    // Concurrency can only help.
    assert!(tc.span_us() <= ts.span_us() * 1.001, "{} vs {}", tc.span_us(), ts.span_us());
}

fn steady_state_is_allocation_free_and_release_returns_everything<S: Subject>() {
    let frame = S::frame(0);
    let mut p = pipeline::<S>(ExecMode::Concurrent);
    assert_eq!(p.pooled_bytes(), 0, "no pool before the first frame");
    let (first, _) = run(&mut p, &[&frame, &frame, &frame]);
    let (live, allocs) = (p.gpu.mem.live_bytes(), p.gpu.mem.alloc_count());
    assert_eq!(p.pooled_bytes(), live, "the pool owns all live memory");
    for _ in 0..3 {
        let _ = run(&mut p, &[&frame, &frame, &frame]);
        // Smaller batches reuse a prefix of the slots.
        let _ = run(&mut p, &[&frame]);
    }
    assert_eq!(p.gpu.mem.alloc_count(), allocs, "steady-state batches are allocation-free");
    assert_eq!(p.gpu.mem.live_bytes(), live, "no leak across batches");
    p.release_pool();
    assert_eq!(p.gpu.mem.live_bytes(), 0, "release_pool returns everything");
    assert_eq!(p.pooled_bytes(), 0);
    // Releasing unbinds the frame textures; the next batch binds anew.
    let (again, _) = run(&mut p, &[&frame, &frame, &frame]);
    assert_eq!(first, again);
}

/// Submit `frames` as one batch under `plan`; every slot's fingerprint.
fn run_plan<S: StageList>(
    p: &mut Pipeline<S>,
    frames: &[&GrayImage],
    plan: &[(usize, usize)],
) -> Vec<Fingerprint> {
    p.submit_batch_with_plan(frames, plan).unwrap();
    (0..frames.len()).map(|slot| fingerprint(p, slot)).collect()
}

fn mixed_geometries_share_one_pool_grown_to_the_largest<S: Subject>() {
    let large: Vec<GrayImage> = (0..2).map(S::frame).collect();
    let small: Vec<GrayImage> = large.iter().map(|f| f.crop(Rect::new(8, 6, 64, 48))).collect();
    let (large, small): (Vec<&GrayImage>, Vec<&GrayImage>) =
        (large.iter().collect(), small.iter().collect());
    let mut p = pipeline::<S>(ExecMode::Concurrent);
    let (large_plan, small_plan) = (p.plan_for(large[0]).unwrap(), p.plan_for(small[0]).unwrap());
    // Small first, so the large frames grow the pool; then back, and a
    // shed prefix of the large plan.
    let cycle = [
        (&small, &small_plan[..]),
        (&large, &large_plan[..]),
        (&small, &small_plan[..]),
        (&large, &large_plan[..2]),
    ];
    let fresh: Vec<Vec<Fingerprint>> = cycle
        .iter()
        .map(|(frames, plan)| run_plan(&mut pipeline::<S>(ExecMode::Concurrent), frames, plan))
        .collect();
    assert!(fresh[1].iter().all(|f| !f.0.is_empty()), "the large frames must fire windows");
    let largest = {
        let mut only_large = pipeline::<S>(ExecMode::Concurrent);
        run_plan(&mut only_large, &large, &large_plan);
        only_large.pooled_bytes()
    };
    let mut allocs = None;
    for pass in 0..3 {
        for ((frames, plan), want) in cycle.iter().zip(&fresh) {
            assert_eq!(&run_plan(&mut p, frames, plan), want, "pass {pass}, plan {plan:?}");
            if pass > 0 {
                assert_eq!(Some(p.gpu.mem.alloc_count()), allocs, "pass {pass}: no allocation");
            }
        }
        allocs = Some(p.gpu.mem.alloc_count());
        assert_eq!(p.gpu.mem.live_bytes(), largest, "the largest geometry's pool");
        assert_eq!(p.pooled_bytes(), largest);
        assert_eq!(p.gpu.mem.peak_bytes(), largest, "growth frees before it allocates");
    }
}

fn batch_matches_per_frame_runs<S: Subject>() {
    let frames: Vec<GrayImage> = (0..3).map(S::frame).collect();
    let mut p = pipeline::<S>(ExecMode::Concurrent);
    let singles: Vec<Fingerprint> = frames.iter().map(|f| run(&mut p, &[f]).0.remove(0)).collect();
    let refs: Vec<&GrayImage> = frames.iter().collect();
    let (batch, _) = run(&mut p, &refs);
    assert_eq!(singles, batch);
}

/// The timing model orders launches by stream alone, so a dependency of
/// the host drain between two streams would be an ordering the Concurrent
/// timeline never models: every one stays within its stream, in both
/// modes, fused or not, for a single frame and a batch.
fn every_dependency_stays_within_its_stream<S: Subject>() {
    let frames: Vec<GrayImage> = (0..3).map(S::frame).collect();
    for mode in [ExecMode::Serial, ExecMode::Concurrent] {
        for fusion in [false, true] {
            let mut p = pipeline::<S>(mode);
            p.stages_mut()
                .configure(&DetectorConfig { fusion: Some(fusion), ..Default::default() });
            let (_, single) = run(&mut p, &[&frames[0]]);
            let (_, batch) = run(&mut p, &frames.iter().collect::<Vec<_>>());
            let what = format!("{mode:?}, fusion {fusion}");
            for t in [&single, &batch] {
                let streams: std::collections::HashSet<_> =
                    t.events.iter().map(|e| e.stream).collect();
                assert!(streams.len() > 1, "{what}: one stream per level");
                let fused = t.events.iter().any(|e| e.kernel_name.contains('+'));
                assert_eq!(fused, fusion && S::FUSES, "{what}: fused launches");
            }
            assert_eq!(p.gpu.cross_stream_deps(), 0, "{what}");
        }
    }
}

fn rejects_mixed_geometry_empty_batches_and_empty_plans<S: Subject>() {
    let mut p = pipeline::<S>(ExecMode::Concurrent);
    let (a, b) = (S::frame(0), GrayImage::from_fn(64, 48, |x, _| x as f32));
    let plan = p.plan_for(&a).unwrap();
    for (frames, plan) in [(&[&a, &b][..], &plan[..]), (&[], &plan), (&[&a], &[])] {
        assert!(matches!(
            p.submit_batch_with_plan(frames, plan),
            Err(DetectorError::InvalidConfig { .. })
        ));
    }
    assert_eq!(p.gpu.mem.alloc_count(), 0, "a rejected batch allocates nothing");
}

fn rejects_frames_smaller_than_a_window<S: Subject>() {
    let p = pipeline::<S>(ExecMode::Concurrent);
    for (w, h) in [(16, 40), (40, 16)] {
        let tiny = GrayImage::from_fn(w, h, |_, _| 0.0);
        assert!(matches!(p.plan_for(&tiny), Err(DetectorError::FrameTooSmall { .. })), "{w}x{h}");
    }
}

fn rejects_bad_scale_factors_before_the_model<S: Subject>() {
    let gpu = || Gpu::new(DeviceSpec::gtx470(), ExecMode::Serial);
    assert!(
        !matches!(
            Pipeline::<S>::try_new(gpu(), &S::invalid_model(), 1.25),
            Ok(_) | Err(DetectorError::BadScaleFactor { .. })
        ),
        "the invalid model is refused on its own"
    );
    for scale_factor in [1.0, 0.5, f64::NAN, f64::INFINITY] {
        for model in [S::test_model(), S::invalid_model()] {
            assert!(
                matches!(
                    Pipeline::<S>::try_new(gpu(), &model, scale_factor),
                    Err(DetectorError::BadScaleFactor { .. })
                ),
                "scale factor {scale_factor}"
            );
        }
    }
}

macro_rules! for_each_stage_list {
    ($($check:ident),* $(,)?) => {
        mod haar {
            $(#[test] fn $check() { super::$check::<fd_detector::HaarStages>() })*
        }
        mod cnn {
            $(#[test] fn $check() { super::$check::<fd_cnn::CnnStages>() })*
        }
    };
}

for_each_stage_list!(
    serial_and_concurrent_agree_functionally,
    steady_state_is_allocation_free_and_release_returns_everything,
    mixed_geometries_share_one_pool_grown_to_the_largest,
    batch_matches_per_frame_runs,
    every_dependency_stays_within_its_stream,
    rejects_mixed_geometry_empty_batches_and_empty_plans,
    rejects_frames_smaller_than_a_window,
    rejects_bad_scale_factors_before_the_model,
);
