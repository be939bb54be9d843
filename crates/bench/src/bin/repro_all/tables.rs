//! Tables I and II and the §VI-A text figures.

use fd_bench::cascades::{trained_cascade_pair, TrainingBudget};
use fd_bench::harness::{run_counters, run_table2, table2_summary};
use fd_bench::out::{arg_usize, write_text, Table};
use fd_haar::{table1_counts, EnumerationRule};
use fd_video::movie_trailers;

/// Table I — possible Haar-like feature combinations in a 24x24 window.
///
/// Paper values: edge 55 660, line 31 878, center-surround 3 969,
/// diagonal 12 100 (total 103 607). The enumeration rule reproducing them
/// is `EnumerationRule::Icpp2012`; the textbook enumeration is printed
/// alongside for reference. Writes `results/table1.csv`.
pub fn table1() {
    let paper = [55_660usize, 31_878, 3_969, 12_100];
    let icpp = table1_counts(24, EnumerationRule::Icpp2012);
    let exhaustive = table1_counts(24, EnumerationRule::Exhaustive);
    let names = ["Edge", "Line", "Center-surround", "Diagonal"];

    let rows: Vec<Vec<String>> = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            vec![
                n.to_string(),
                paper[i].to_string(),
                icpp[i].to_string(),
                exhaustive[i].to_string(),
                if icpp[i] == paper[i] { "exact".into() } else { "MISMATCH".into() },
            ]
        })
        .chain(std::iter::once(vec![
            "TOTAL".into(),
            paper.iter().sum::<usize>().to_string(),
            icpp.iter().sum::<usize>().to_string(),
            exhaustive.iter().sum::<usize>().to_string(),
            String::new(),
        ]))
        .collect();

    let mut shown = Table::new(&["feature", "paper", "reproduced", "exhaustive-rule", "status"]);
    let mut csv = Table::new(&["feature", "paper", "reproduced", "exhaustive_rule"]);
    for r in rows {
        csv.push(r[..4].to_vec());
        shown.push(r);
    }
    println!("Table I — Haar-like feature combinations (24x24 window)\n");
    println!("{}", shown.render());
    let path = csv.write_csv("table1.csv").expect("write csv");
    println!("wrote {}", path.display());

    assert_eq!(icpp, paper, "Table I must reproduce exactly");
}

/// Table II — average face-detection time per frame (milliseconds) for
/// the ten 1080p trailers, under {our GentleBoost cascade, OpenCV-like
/// AdaBoost cascade} x {concurrent, serial} kernel execution.
///
/// Shape goals (paper §VI-A): concurrent ~ 2x serial for the same
/// cascade; the compact cascade ~ 2.5x the large one; combined ~ 5x.
/// Absolute milliseconds come from the simulated GTX470 and are not
/// expected to match the authors' testbed exactly.
///
/// Flags: `--frames N --trailers K` (defaults 6 frames, all 10 trailers;
/// the paper averages over whole trailers, we average over N frames per
/// title). Writes `results/table2.csv`.
pub fn table2() {
    let frames = arg_usize("--frames", 6);
    let n_trailers = arg_usize("--trailers", 10).clamp(1, 10);
    let pair = trained_cascade_pair(&TrainingBudget::default());
    println!(
        "cascades: ours = {} stages / {} stumps, opencv-like = {} stages / {} stumps\n",
        pair.ours.depth(),
        pair.ours.total_stumps(),
        pair.opencv_like.depth(),
        pair.opencv_like.total_stumps()
    );

    let trailers = &movie_trailers()[..n_trailers];
    let rows = run_table2(&pair, trailers, frames);

    let mut shown = Table::new(&[
        "movie trailer",
        "ours conc",
        "ours serial",
        "cv conc",
        "cv serial",
        "combined",
        "fps",
    ]);
    let mut csv = Table::new(&[
        "trailer",
        "ours_concurrent_ms",
        "ours_serial_ms",
        "cv_concurrent_ms",
        "cv_serial_ms",
        "combined_speedup",
        "fps_ours_concurrent",
    ]);
    for r in &rows {
        shown.push([
            r.title.clone(),
            format!("{:.2}", r.ours_concurrent),
            format!("{:.2}", r.ours_serial),
            format!("{:.2}", r.cv_concurrent),
            format!("{:.2}", r.cv_serial),
            format!("{:.2}x", r.combined_speedup()),
            format!("{:.0}", r.fps_ours_concurrent),
        ]);
        csv.push([
            r.title.clone(),
            format!("{:.4}", r.ours_concurrent),
            format!("{:.4}", r.ours_serial),
            format!("{:.4}", r.cv_concurrent),
            format!("{:.4}", r.cv_serial),
            format!("{:.4}", r.combined_speedup()),
            format!("{:.2}", r.fps_ours_concurrent),
        ]);
    }
    println!();
    println!("Table II — average face detection time per frame (ms), {frames} frames/trailer\n");
    println!("{}", shown.render());

    let (conc, casc, comb) = table2_summary(&rows);
    println!("geomean speedups: concurrency {conc:.2}x (paper ~2x), cascade swap {casc:.2}x (paper ~2.5x), combined {comb:.2}x (paper ~5x)");

    let path = csv.write_csv("table2.csv").expect("write csv");
    println!("wrote {}", path.display());
}

/// §VI-A text figures, gathered from the simulated device's profiler:
///
/// * branch efficiency of the cascade-evaluation kernel (paper: 98.9 %
///   non-divergent);
/// * DRAM read throughput of the cascade kernels across scales (paper:
///   9.57-532 MB/s — low, because the integral image is staged into
///   shared memory once and reused);
/// * share of frame time in the integral-image kernels (paper: ~20 %);
/// * constant-memory footprint of the compressed cascades;
/// * end-to-end fps with hardware H.264 decode overlapped (paper: ~70).
///
/// Flags: `--frames N` (default 6). Writes `results/counters.txt`.
pub fn counters() {
    let frames = arg_usize("--frames", 6);
    let pair = trained_cascade_pair(&TrainingBudget::default());
    let info = &movie_trailers()[1]; // 50/50

    let mut report = String::new();
    for (name, cascade) in [("ours", &pair.ours), ("opencv-like", &pair.opencv_like)] {
        let c = run_counters(cascade, info, frames);
        report.push_str(&format!(
            "=== cascade: {name} ({} stages, {} stumps) ===\n\
             branch efficiency (cascade_eval): {:.2} %   [paper: 98.9 %]\n\
             branch efficiency (all kernels):  {:.2} %\n\
             cascade-eval DRAM read throughput: {:.2} .. {:.2} MB/s   [paper: 9.57 .. 532 MB/s]\n\
             integral-image kernels' share of device time: {:.1} %   [paper: ~20 %]\n\
             compressed cascade in constant memory: {} bytes ({:.1} % of 64 KiB)\n\
             pipelined throughput with H.264 decode overlapped: {:.0} fps   [paper: ~70 fps]\n\n",
            cascade.depth(),
            cascade.total_stumps(),
            100.0 * c.branch_efficiency_cascade,
            100.0 * c.branch_efficiency_overall,
            c.cascade_dram_mbps.0,
            c.cascade_dram_mbps.1,
            100.0 * c.integral_time_share,
            c.const_bytes,
            100.0 * c.const_bytes as f64 / (64.0 * 1024.0),
            c.fps,
        ));
    }
    print!("{report}");
    let path = write_text("counters.txt", &report).expect("write text");
    println!("wrote {}", path.display());
}
