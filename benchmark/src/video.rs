//! The two video workloads: `trailer_1080p` (one frame per call, the
//! paper's configuration) and `batch_vga_fused` (eight VGA frames per
//! call through the batched, fused, autotuned path).

use std::time::Instant;

use fd_detector::{
    cpu_ref, group_detections, DetectorConfig, DetectorError, FaceDetector, FrameResult,
};
use fd_gpu::ExecMode;
use fd_haar::Cascade;
use fd_imgproc::{GrayImage, Rect};
use fd_video::{pipelined_fps, FaceInstance, HwDecoder};

use crate::gen::{clip, sub_seed};
use crate::harness::{
    drive, eat_result, latency_metrics, load_cascade, peak_rss_mb, timed_setup, Check, Ctx, OpOut,
    Outcome, SetupTime,
};
use crate::stages::GpuLayers;
use crate::stats::{nearest_rank, sorted, Fnv};

/// Ops in the reference cycle. Sized so one cycle takes about 60 % of a
/// 20 s run on the 2-core host the benchmark was sized on (a 1080p
/// frame costs ~0.55 s of host time, a VGA batch of eight ~0.5 s).
const TRAILER_FRAMES: usize = 24;
const BATCHES: usize = 24;
const BATCH_SIZE: usize = 8;
/// Every n-th frame of the reference cycle is checked against the CPU reference.
const CPU_REF_EVERY: usize = 16;
/// Every n-th op of the reference cycle is re-run in `ExecMode::Serial`.
const SERIAL_EVERY: usize = 4;
/// Source frame rate; a frame is on time when detection fits its period.
const FPS: f64 = 24.0;

const STREAM_WARMUP: u64 = 10;
const STREAM_CLIPS: u64 = 11;

/// Scene classes by the share of the cascade windows in a scene's
/// top-left 480x270 that survive stage 1, which predicts what the frame
/// costs at 1080p: *easy* (gradient, stripe and block backgrounds, below
/// the first threshold) 9.2-9.5 virtual ms, *medium* (blob fields, up to
/// the second) 10.7-11.0 ms, *noise* (value noise, above) 11.2-20 ms.
/// In the clip catalog they turn up at about 59 / 29 / 13 %.
const CLASS_SURVIVAL: [f64; 2] = [0.015, 0.06];
const PROBE_CROP: Rect = Rect::new(0, 0, 480, 270);
const EASY: usize = 0;
const MEDIUM: usize = 1;
const NOISE: usize = 2;
/// The class each slot of the trailer pool holds: 15 easy, 7 medium and
/// 2 noise scenes. The quotas put the two percentiles the benchmark reads
/// inside a class, not on the border between two: p50 (rank 12) is an
/// easy scene and p90 (rank 22) the costliest medium one. Both classes
/// are 3 % wide, so neither figure depends on which scenes the seed drew.
/// The two noise scenes lie beyond p90 and show in `virt_ops_per_s`.
/// (With three noise slots p90 was the cheapest of them, anywhere in
/// 11.2-20 ms, and `virt_ms_tail` spread 23 % between seeds.)
const SLOT_CLASS: [usize; TRAILER_FRAMES] = {
    let mut classes = [EASY; TRAILER_FRAMES];
    let mut i = 0;
    while i < 7 {
        classes[[1, 4, 9, 12, 15, 20, 23][i]] = MEDIUM;
        i += 1;
    }
    classes[7] = NOISE;
    classes[19] = NOISE;
    classes
};

/// Clip seeds for the trailer pool with a fixed scene mix. Candidates
/// are drawn in seed order and sorted into the slots of their class; the
/// class is a functional output of the detector (which windows a stage
/// rejects), so no performance change can move it. With the mix left to
/// chance, one run in ten had its median frame in another class and
/// `virt_ms_p50` jumped 15 %.
fn stratified_clip_seeds(seed: u64, cascade: &Cascade, w: usize, h: usize) -> Vec<u64> {
    let config = DetectorConfig { collect_rejection_stats: true, ..DetectorConfig::default() };
    let mut probe = FaceDetector::try_new(cascade, config).expect("probe detector");
    let wanted = |class: usize| SLOT_CLASS.iter().filter(|&&c| c == class).count();
    let mut found: [Vec<u64>; 3] = Default::default();
    for k in 0..20 * TRAILER_FRAMES as u64 {
        if (EASY..=NOISE).all(|class| found[class].len() >= wanted(class)) {
            break;
        }
        let clip_seed = sub_seed(seed, STREAM_CLIPS, k);
        let corner = clip(clip_seed, w, h).render_frame(0).crop(PROBE_CROP);
        let survival = probe
            .detect(&corner)
            .ok()
            .and_then(|r| r.rejection)
            .map_or(0.0, |hist| 1.0 - hist.rejection_rate_at_stage(1));
        let class = CLASS_SURVIVAL.iter().filter(|&&t| survival >= t).count();
        found[class].push(clip_seed);
    }
    let mut found = found.map(Vec::into_iter);
    SLOT_CLASS
        .iter()
        .map(|&class| found[class].next())
        .collect::<Option<Vec<u64>>>()
        .expect("480 candidate clips hold 15 easy, 7 medium and 2 noise scenes")
}

/// Eq. 6 match threshold, as in the paper's grouping.
const MATCH_S_EYES: f64 = 0.5;

fn matched_faces(truth: &[FaceInstance], r: &FrameResult) -> usize {
    truth
        .iter()
        .filter(|face| {
            let eye_distance = face.eyes.0.distance(&face.eyes.1);
            r.detections.iter().any(|d| {
                fd_detector::group::s_eyes_to_truth(&d.as_detection(), face.eyes, eye_distance)
                    < MATCH_S_EYES
            })
        })
        .count()
}

/// State both workloads accumulate over the reference cycle.
#[derive(Default)]
struct Reference {
    virt_ms: Vec<f64>,
    decode_virt_ms: Vec<f64>,
    decode_host_ms: Vec<f64>,
    serial_ms: f64,
    concurrent_ms: f64,
    faces: usize,
    faces_matched: usize,
    raw_windows: usize,
    detections: usize,
    levels: usize,
    cpu_ref_checked: usize,
    cpu_ref_mismatches: usize,
    cpu_ref_host_ms: f64,
    detect_errors: u64,
    gpu: GpuLayers,
    host_in_calls_us: f64,
    opaque_launches: u64,
}

impl Reference {
    /// Book one op of the reference cycle: virtual latency, recall, the
    /// device records (traced runs), every [`CPU_REF_EVERY`]-th frame
    /// against the CPU reference, every [`SERIAL_EVERY`]-th op re-run
    /// serially. `frames[k]` carries the ground truth `truths[k]`.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        slot: usize,
        frames: &[&GrayImage],
        truths: &[Vec<FaceInstance>],
        results: &Result<Vec<FrameResult>, DetectorError>,
        host_ms: f64,
        traced: bool,
        det: &mut FaceDetector,
        cascade: &Cascade,
    ) {
        let Ok(results) = results else {
            self.virt_ms.push(0.0);
            self.detect_errors += 1;
            return;
        };
        // A batch shares one submission: one latency, one timeline.
        let shared = &results[0];
        self.virt_ms.push(shared.detect_ms);
        for (k, ((frame, truth), r)) in frames.iter().zip(truths).zip(results).enumerate() {
            self.faces += truth.len();
            self.faces_matched += matched_faces(truth, r);
            self.raw_windows += r.raw.len();
            self.detections += r.detections.len();
            if (slot * frames.len() + k).is_multiple_of(CPU_REF_EVERY) {
                let t = Instant::now();
                let reference = cpu_ref::detect_cpu(cascade, frame, det.config().scale_factor);
                self.cpu_ref_host_ms += t.elapsed().as_secs_f64() * 1e3;
                self.cpu_ref_checked += 1;
                self.cpu_ref_mismatches += usize::from(reference != r.raw);
            }
        }
        if traced {
            self.levels = det.pyramid_plan(frames[0]).map_or(0, |p| p.len());
            self.gpu.add_timeline(&shared.timeline);
            self.gpu.add_host_spans(det.profiler().host_spans());
            self.opaque_launches += det.profiler().opaque_launches();
            self.host_in_calls_us += host_ms * 1e3;
        }
        if slot.is_multiple_of(SERIAL_EVERY) {
            det.set_exec_mode(ExecMode::Serial);
            self.serial_ms += det.detect_batch(frames).map_or(0.0, |r| r[0].detect_ms);
            det.set_exec_mode(ExecMode::Concurrent);
            self.concurrent_ms += shared.detect_ms;
        }
    }
}

/// Digest of one op's outputs.
fn op_digest(results: &Result<Vec<FrameResult>, DetectorError>) -> u64 {
    let mut h = Fnv::default();
    match results {
        Ok(results) => results.iter().for_each(|r| eat_result(&mut h, r)),
        Err(_) => h.eat(u64::MAX),
    }
    h.0
}

/// One detect call, timed; under tracing split into its plan and detect
/// halves (the same two calls `detect` makes) plus a re-run of grouping.
fn timed_detect(
    rec: &mut crate::trace::Recorder,
    op: u64,
    det: &mut FaceDetector,
    frames: &[&GrayImage],
) -> (Result<Vec<FrameResult>, DetectorError>, f64) {
    let t = Instant::now();
    let results = if rec.enabled() {
        rec.time("detector.plan", op, || det.pyramid_plan(frames[0])).and_then(|plan| {
            rec.time("detector.detect", op, || det.detect_batch_with_plan(frames, &plan))
        })
    } else if let [frame] = frames {
        det.detect(frame).map(|r| vec![r])
    } else {
        det.detect_batch(frames)
    };
    let host_ms = t.elapsed().as_secs_f64() * 1e3;
    if let (true, Ok(results)) = (rec.enabled(), &results) {
        let cfg = det.config();
        for r in results {
            let regrouped = rec.time("detector.group", op, || {
                group_detections(&r.raw, cfg.overlap_threshold, cfg.min_neighbors)
            });
            std::hint::black_box(regrouped);
        }
    }
    (results, host_ms)
}

fn finish(
    ctx: &Ctx,
    name: &str,
    setup: SetupTime,
    frames_per_op: usize,
    det: &FaceDetector,
    driven: crate::harness::Driven,
    mut re: Reference,
) -> Outcome {
    let ops = re.virt_ms.len();
    let mut out = Outcome {
        attempted: ops as u64,
        failed: re.detect_errors,
        digest: driven.digest,
        ..Outcome::default()
    };
    out.record_setup(&setup, ctx.trace);
    latency_metrics(&re.virt_ms, &mut out);
    let ops_per_s = if re.decode_virt_ms.is_empty() {
        // Offline batches: frames per virtual second of device time.
        1e3 * (ops * frames_per_op) as f64 / re.virt_ms.iter().sum::<f64>()
    } else {
        pipelined_fps(&re.decode_virt_ms, &re.virt_ms)
    };
    out.end_to_end.insert("virt_ops_per_s", ops_per_s);
    out.end_to_end.insert("virt_concurrency_speedup", re.serial_ms / re.concurrent_ms);
    let period_ms = frames_per_op as f64 * 1e3 / FPS;
    let on_time = re.virt_ms.iter().filter(|&&ms| ms <= period_ms).count();
    out.end_to_end.insert("slo_met_share", on_time as f64 / ops as f64);
    out.end_to_end.insert("ok_share", 1.0 - re.detect_errors as f64 / ops as f64);
    driven.host_metrics(ctx.trace, &mut out);
    out.end_to_end.insert("host_peak_rss_mb", peak_rss_mb());
    out.notes.push(format!(
        "{name}: closed loop, one client; a frame is on time within its {period_ms:.1} ms period; \
         virt_concurrency_speedup beside the paper's ~2x and EXPERIMENTS.md's 1.42x"
    ));

    let recall = if re.faces == 0 { 0.0 } else { re.faces_matched as f64 / re.faces as f64 };
    out.checks.push(driven.repeat_check());
    out.checks.push(Check::new(
        "cpu_ref_identical",
        re.cpu_ref_checked > 0 && re.cpu_ref_mismatches == 0,
        format!("{} frames checked, {} differ", re.cpu_ref_checked, re.cpu_ref_mismatches),
    ));
    out.checks.push(Check::new(
        "recall_positive",
        recall > 0.0,
        format!("{} of {} planted faces matched", re.faces_matched, re.faces),
    ));
    out.checks.push(Check::new("no_detect_errors", re.detect_errors == 0, String::new()));

    if ctx.trace {
        let l = &mut out.per_layer;
        std::mem::take(&mut re.gpu).emit(re.host_in_calls_us, l);
        l.insert("gpu.opaque_launches".into(), re.opaque_launches as f64);
        l.insert("gpu.faults.injected".into(), {
            let f = det.fault_stats();
            (f.launch_timeouts + f.transient_launch_failures + f.stream_stalls) as f64
        });
        let mean =
            |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
        l.insert("video.decode.host_ms".into(), mean(&re.decode_host_ms));
        l.insert("video.decode.virt_ms".into(), mean(&re.decode_virt_ms));
        let decode_bound = re.decode_virt_ms.iter().zip(&re.virt_ms).filter(|(d, k)| d > k).count();
        l.insert("video.decode_bound_share".into(), decode_bound as f64 / ops as f64);
        // Host time per traced op (spans exist for every traced op, not
        // only the reference cycle's).
        let detect_ms: Vec<f64> =
            ctx.rec.durations_us("detector.detect").iter().map(|us| us / 1e3).collect();
        let per_op = |span: &str| {
            ctx.rec.durations_us(span).iter().sum::<f64>() / detect_ms.len().max(1) as f64
        };
        l.insert("detector.plan.host_us".into(), per_op("detector.plan"));
        l.insert("detector.group.host_us".into(), per_op("detector.group"));
        l.insert("detector.detect.host_ms_p90".into(), nearest_rank(&sorted(&detect_ms), 0.9));
        l.insert("detector.levels".into(), re.levels as f64);
        l.insert("detector.pool_bytes".into(), det.device_bytes() as f64);
        l.insert("detector.group.raw_windows".into(), re.raw_windows as f64);
        l.insert("detector.group.detections".into(), re.detections as f64);
        l.insert(
            "detector.cpu_ref.host_ms".into(),
            re.cpu_ref_host_ms / re.cpu_ref_checked.max(1) as f64,
        );
        l.insert("eval.recall".into(), recall);
    }
    out
}

pub fn trailer_1080p(ctx: &mut Ctx) -> Outcome {
    let (w, h) = (1920, 1080);
    let seed = ctx.seed;
    let warmup = clip(sub_seed(seed, STREAM_WARMUP, 0), w, h).render_frame(0);
    let (setup, (cascade, mut det)) = timed_setup(7, || {
        let cascade = load_cascade();
        let mut det = FaceDetector::try_new(&cascade, DetectorConfig::default())
            .expect("the shipped cascade builds a detector");
        det.detect(&warmup).expect("warm-up frame");
        det.reset_profiler();
        (cascade, det)
    });
    drop(warmup);
    let clip_seeds = stratified_clip_seeds(seed, &cascade, w, h);

    let mut re = Reference::default();
    let driven = drive(ctx, TRAILER_FRAMES, |rec, op, slot, in_reference| {
        let decoder = HwDecoder::new(clip(clip_seeds[slot], w, h));
        rec.enter("op.frame", op);
        let t = Instant::now();
        let frame = rec.time("video.decode", op, || decoder.decode_frame(0));
        let decode_host_ms = t.elapsed().as_secs_f64() * 1e3;
        let frames = [&frame.luma];
        let (results, host_ms) = timed_detect(rec, op, &mut det, &frames);
        rec.exit();

        if in_reference {
            re.decode_virt_ms.push(frame.decode_ms);
            re.decode_host_ms.push(decode_host_ms);
            let truths = [decoder.trailer().faces_at(0)];
            let traced = rec.enabled();
            re.record(slot, &frames, &truths, &results, host_ms, traced, &mut det, &cascade);
        }
        det.reset_profiler();
        OpOut { host_ms, digest: op_digest(&results) }
    });
    finish(ctx, "trailer_1080p", setup, 1, &det, driven, re)
}

pub fn batch_vga_fused(ctx: &mut Ctx) -> Outcome {
    let (w, h) = (640, 480);
    let seed = ctx.seed;
    let batch_of = |stream: u64, slot: usize| -> Vec<(GrayImage, Vec<FaceInstance>)> {
        (0..BATCH_SIZE)
            .map(|k| {
                let t = clip(sub_seed(seed, stream, (slot * BATCH_SIZE + k) as u64), w, h);
                (t.render_frame(0), t.faces_at(0))
            })
            .collect()
    };
    let warmup = batch_of(STREAM_WARMUP, 0);
    let config =
        DetectorConfig { fusion: Some(true), autotune: Some(true), ..DetectorConfig::default() };
    let (setup, (cascade, mut det)) = timed_setup(7, || {
        let cascade = load_cascade();
        let mut det = FaceDetector::try_new(&cascade, config.clone())
            .expect("the shipped cascade builds a detector");
        let frames: Vec<&GrayImage> = warmup.iter().map(|(f, _)| f).collect();
        det.detect_batch(&frames).expect("warm-up batch");
        det.reset_profiler();
        (cascade, det)
    });
    drop(warmup);

    let mut re = Reference::default();
    let driven = drive(ctx, BATCHES, |rec, op, slot, in_reference| {
        let (batch, truths): (Vec<GrayImage>, Vec<Vec<FaceInstance>>) =
            batch_of(STREAM_CLIPS, slot).into_iter().unzip();
        let frames: Vec<&GrayImage> = batch.iter().collect();
        rec.enter("op.batch", op);
        let (results, host_ms) = timed_detect(rec, op, &mut det, &frames);
        rec.exit();

        if in_reference {
            let traced = rec.enabled();
            re.record(slot, &frames, &truths, &results, host_ms, traced, &mut det, &cascade);
        }
        det.reset_profiler();
        OpOut { host_ms, digest: op_digest(&results) }
    });
    finish(ctx, "batch_vga_fused", setup, BATCH_SIZE, &det, driven, re)
}
