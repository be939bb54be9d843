//! Kernel fusion: simulated end-to-end pipeline time with the
//! scale/smoothing/integral stages fused (scale+filter+scan+transpose
//! and scan+transpose as single launches) vs the unfused eight-launch
//! baseline — single frames and a batched submission — plus a per-level
//! breakdown of launch counts and device busy time, and a bit-identity
//! check that fusion changes no detection. Writes
//! `results/BENCH_fusion.json`.
//!
//! The comparison is in *simulated device time* (`Timeline::span_us`),
//! which is deterministic: the fused pipeline pays one launch overhead
//! where the baseline pays four (chain A) or two (chain B), and its
//! chain-internal intermediates are charged at on-chip rather than DRAM
//! rates, exactly as the cost model's fusion credit specifies.
//!
//! Usage: `fusion [--width W] [--height H] [--batch B]
//!                [--assert-min-speedup-pct P] [--assert-min-batched-pct Q]`
//!
//! With `--assert-min-speedup-pct 120` the process exits non-zero unless
//! the single-frame end-to-end fused/unfused speedup reaches 1.20x (the
//! repo's verify gate). The batched ablation gets its own floor
//! (`--assert-min-batched-pct`, 115 in verify) because its ratio
//! converges lower by Amdahl's law: the cascade stage's paper-specified
//! 24x24-thread blocks (18 warps) cap residency at 2 blocks per 48-warp
//! SM, so at batch depth the span is dominated by an occupancy-bound
//! cascade tail that is identical in both fusion modes.

use fd_bench::out::{arg_usize, write_text};
use fd_detector::{DetectorConfig, FaceDetector};
use fd_haar::{Cascade, FeatureKind, HaarFeature, Stage, Stump};
use fd_imgproc::GrayImage;

fn bench_cascade(stages: usize) -> Cascade {
    let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
    let mut c = Cascade::new("bench-edge", 24);
    for _ in 0..stages {
        c.stages.push(Stage {
            stumps: vec![Stump { feature: f, threshold: 8192, left: -1.0, right: 1.0 }],
            threshold: 0.5,
        });
    }
    c
}

fn bench_frame(w: usize, h: usize) -> GrayImage {
    GrayImage::from_fn(w, h, |x, y| {
        let stripes = if (x / 12) % 2 == 0 { 40.0 } else { 210.0 };
        let hash = ((x * 31 + y * 17) % 97) as f32;
        0.7 * stripes + hash
    })
}

fn detector(cascade: &Cascade, fusion: bool, threads: usize) -> FaceDetector {
    FaceDetector::new(
        cascade,
        DetectorConfig {
            scale_factor: 1.2,
            fusion: Some(fusion),
            host_threads: Some(threads),
            ..DetectorConfig::default()
        },
    )
}

/// Per-stream (= per pyramid level) launch count and device busy time
/// after one frame, in stream-creation order.
fn per_level(det: &FaceDetector) -> Vec<(u32, usize, f64)> {
    let mut rows: Vec<(u32, usize, f64)> = Vec::new();
    for e in det.profiler().traces() {
        let tid = e.stream.index();
        match rows.iter_mut().find(|r| r.0 == tid) {
            Some(r) => {
                r.1 += 1;
                r.2 += e.duration_us();
            }
            None => rows.push((tid, 1, e.duration_us())),
        }
    }
    rows.sort_by_key(|r| r.0);
    rows
}

fn main() {
    let width = arg_usize("--width", 240);
    let height = arg_usize("--height", 180);
    let batch = arg_usize("--batch", 4).max(1);
    let min_speedup_pct = arg_usize("--assert-min-speedup-pct", 0);
    let min_batched_pct = arg_usize("--assert-min-batched-pct", 0);
    if width < 24 || height < 24 {
        eprintln!("error: --width/--height must be at least the 24-px detection window");
        std::process::exit(2);
    }

    let cascade = bench_cascade(4);
    let frame = bench_frame(width, height);

    // Bit-identity: fused detections must equal unfused, and each mode
    // must be invariant across host thread counts (1 = the in-order
    // reference schedule).
    let fingerprint = |fusion: bool, threads: usize| {
        let mut det = detector(&cascade, fusion, threads);
        let r = det.detect(&frame).expect("detect");
        (format!("{:?}", r.raw), r.detect_ms.to_bits())
    };
    let unfused_ref = fingerprint(false, 1);
    let fused_ref = fingerprint(true, 1);
    assert_eq!(unfused_ref.0, fused_ref.0, "fusion changed detections");
    assert_eq!(fingerprint(false, 4), unfused_ref, "unfused @4 threads diverged");
    assert_eq!(fingerprint(true, 4), fused_ref, "fused @4 threads diverged");
    println!("identity: ok (fused == unfused detections; thread counts agree per mode)");

    // Simulated single-frame latency + per-level breakdown.
    let single = |fusion: bool| {
        let mut det = detector(&cascade, fusion, 4);
        let r = det.detect(&frame).expect("detect");
        let levels = per_level(&det);
        (r.detect_ms * 1000.0, levels)
    };
    let (unfused_us, unfused_levels) = single(false);
    let (fused_us, fused_levels) = single(true);
    let single_speedup = unfused_us / fused_us;

    // Batched submission: B same-geometry frames as one device submission.
    let batched = |fusion: bool| {
        let mut det = detector(&cascade, fusion, 4);
        let refs: Vec<&GrayImage> = (0..batch).map(|_| &frame).collect();
        let rs = det.detect_batch(&refs).expect("detect_batch");
        rs[0].detect_ms * 1000.0
    };
    let unfused_batch_us = batched(false);
    let fused_batch_us = batched(true);
    let batched_speedup = unfused_batch_us / fused_batch_us;

    assert_eq!(unfused_levels.len(), fused_levels.len(), "same pyramid depth");
    let level_rows: Vec<String> = unfused_levels
        .iter()
        .zip(&fused_levels)
        .enumerate()
        .map(|(i, (u, f))| {
            format!(
                "    {{ \"level\": {i}, \"unfused\": {{ \"launches\": {}, \"busy_us\": {:.3} }}, \
                 \"fused\": {{ \"launches\": {}, \"busy_us\": {:.3} }} }}",
                u.1, u.2, f.1, f.2
            )
        })
        .collect();

    let json = format!(
        "{{\n  \"bench\": \"kernel_fusion\",\n  \"frame\": [{width}, {height}],\n  \
         \"batch\": {batch},\n  \"identity\": \"ok\",\n  \
         \"single_frame\": {{ \"unfused_us\": {unfused_us:.3}, \"fused_us\": {fused_us:.3}, \
         \"speedup\": {single_speedup:.3} }},\n  \
         \"batched\": {{ \"unfused_us\": {unfused_batch_us:.3}, \"fused_us\": {fused_batch_us:.3}, \
         \"speedup\": {batched_speedup:.3} }},\n  \"levels\": [\n{}\n  ],\n  \
         \"note\": \"simulated device time; fused = scale+filter+scan+transpose and \
         scan+transpose as single launches per level (2 instead of 6), intermediates credited \
         at on-chip rates; detections bit-identical to the unfused baseline. The batched \
         ratio converges below the single-frame one because the cascade stage's 24x24 blocks \
         (18 warps, 2 resident per 48-warp SM) make its tail occupancy-bound and identical \
         in both modes.\"\n}}\n",
        level_rows.join(",\n"),
    );
    print!("{json}");
    let path = write_text("BENCH_fusion.json", &json).unwrap();
    println!("wrote {}", path.display());

    let mut failed = false;
    if min_speedup_pct > 0 {
        let need = min_speedup_pct as f64 / 100.0;
        if single_speedup < need {
            eprintln!("FAIL: end-to-end fusion speedup {single_speedup:.3}x below {need:.2}x");
            failed = true;
        }
    }
    if min_batched_pct > 0 {
        let need = min_batched_pct as f64 / 100.0;
        if batched_speedup < need {
            eprintln!("FAIL: batched fusion speedup {batched_speedup:.3}x below {need:.2}x");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
