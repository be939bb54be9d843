//! Kernel fusion: simulated end-to-end pipeline time, unfused and fused —
//! one frame and a batched submission per cell — at two sizes, with each
//! cell's occupancy accounting and its per-level launch and busy-time
//! breakdown. Writes `results/BENCH_fusion.json`.
//!
//! The comparison is in *simulated device time* (`Timeline::span_us`),
//! which is deterministic, so a run reproduces the committed JSON byte for
//! byte. Detections are bit-identical in every cell (asserted by the
//! identity lattice, `tests/lattice`).
//!
//! * **Fusion** (scale+filter+scan+transpose and scan+transpose as single
//!   launches, 2 per level instead of 6) pays fewer launch overheads and
//!   charges chain-internal intermediates at on-chip rates. Gate, at
//!   240x180: >= 1.20x single-frame and >= 1.15x batched. The batched
//!   ratio converges lower by Amdahl's law: the cascade stage's
//!   paper-specified 24x24-thread blocks (18 warps) cap residency at 2
//!   blocks per 48-warp SM, so at batch depth the span is dominated by an
//!   occupancy-bound cascade tail that is identical in both modes.
//! * The occupancy accounting must be live. `mean_warp_occupancy` is the
//!   launch-weighted theoretical residency of the batched submission;
//!   `registers` … `blocks` count the launches whose residency that
//!   per-SM budget bounded. Every cell reports a factor and a positive
//!   mean.
//!
//! Usage: `fusion` (no options).

use fd_bench::out::{num, Report, Table, Value};
use fd_bench::row;
use fd_detector::{DetectorConfig, FaceDetector};
use fd_gpu::OccupancyLimit;
use fd_haar::{Cascade, FeatureKind, HaarFeature, Stage, Stump};
use fd_imgproc::GrayImage;

/// (width, height, batch) per grid.
const SIZES: [(usize, usize, usize); 2] = [(240, 180, 4), (80, 60, 8)];
const MIN_FUSED_SINGLE: f64 = 1.20;
const MIN_FUSED_BATCHED: f64 = 1.15;

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

/// One grid cell's spans: single frame, then the batch.
struct Cell {
    single_us: f64,
    batched_us: f64,
}

/// One size's grid. Returns the section and the cells, unfused first.
fn grid(cascade: &Cascade, width: usize, height: usize, batch: usize) -> (Report, Vec<Cell>) {
    let frame = bench_frame(width, height);
    let mut columns = vec!["fusion", "single_us", "batched_us", "mean_warp_occupancy"];
    columns.extend(OccupancyLimit::ALL.map(OccupancyLimit::as_str));
    let mut table = Table::new(&columns);
    let mut levels = Table::new(&["fusion", "level", "launches", "busy_us"]);
    let mut cells = Vec::new();
    for fusion in [false, true] {
        let mut det = FaceDetector::new(
            cascade,
            DetectorConfig { scale_factor: 1.2, fusion: Some(fusion), ..DetectorConfig::default() },
        );
        let single_us = det.detect(&frame).expect("detect").detect_ms * 1000.0;
        // Launches and device busy time per stream (= pyramid level),
        // in stream-creation order, for the single frame.
        let mut per_level: Vec<(u32, u64, f64)> = Vec::new();
        for e in det.profiler().traces() {
            let level = e.stream.index();
            match per_level.iter_mut().find(|r| r.0 == level) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += e.duration_us();
                }
                None => per_level.push((level, 1, e.duration_us())),
            }
        }
        per_level.sort_by_key(|r| r.0);
        for (level, (_, launches, busy_us)) in per_level.into_iter().enumerate() {
            levels.push(row![fusion, level, launches, num(busy_us, 3)]);
        }

        let refs: Vec<&GrayImage> = (0..batch).map(|_| &frame).collect();
        let rs = det.detect_batch(&refs).expect("detect_batch");
        let t = &rs[0].timeline;
        let batched_us = rs[0].detect_ms * 1000.0;
        let occupancy = t.mean_theoretical_occupancy();
        let limits = t.limiting_factor_counts();
        assert!(
            !limits.is_empty() && occupancy > 0.0,
            "degenerate occupancy accounting (fusion={fusion})"
        );
        let mut grid_row = row![fusion, num(single_us, 3), num(batched_us, 3), num(occupancy, 4)];
        grid_row.extend(
            OccupancyLimit::ALL.map(|l| Value::from(limits.get(l.as_str()).copied().unwrap_or(0))),
        );
        table.push(grid_row);
        cells.push(Cell { single_us, batched_us });
    }
    print!("{}", table.render());

    let ratio = |from: f64, to: f64| num(from / to, 3);
    let (unfused, fused) = (&cells[0], &cells[1]);
    let section = Report::new()
        .field("frame", vec![width, height])
        .field("batch", batch)
        .field("fusion_single_speedup", ratio(unfused.single_us, fused.single_us))
        .field("fusion_batched_speedup", ratio(unfused.batched_us, fused.batched_us))
        .table("grid", table)
        .table("levels", levels);
    (section, cells)
}

fn main() {
    let cascade = bench_cascade(4);
    let mut report = Report::new().field("bench", "fusion");
    let mut grids = Vec::new();
    for (width, height, batch) in SIZES {
        println!("== {width}x{height}, batch {batch} ==");
        let (section, cells) = grid(&cascade, width, height, batch);
        report = report.section(&format!("{width}x{height}"), section);
        grids.push(cells);
    }
    let path = report.write("BENCH_fusion.json").expect("write results");
    println!("wrote {}", path.display());

    // Cell order: [unfused, fused].
    let fused_single = grids[0][0].single_us / grids[0][1].single_us;
    let fused_batched = grids[0][0].batched_us / grids[0][1].batched_us;
    println!("fusion at 240x180: {fused_single:.3}x single, {fused_batched:.3}x batched");
    assert!(
        fused_single >= MIN_FUSED_SINGLE,
        "fusion single-frame speedup {fused_single:.3}x below {MIN_FUSED_SINGLE}x"
    );
    assert!(
        fused_batched >= MIN_FUSED_BATCHED,
        "fusion batched speedup {fused_batched:.3}x below {MIN_FUSED_BATCHED}x"
    );
}
