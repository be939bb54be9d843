//! Figs. 5–9.

use fd_bench::cascades::{trained_cascade_pair, TrainingBudget};
use fd_bench::harness::{detect_series, equivalent_stage_cut, run_rejection_surface};
use fd_bench::out::{arg_usize, Table};
use fd_boost::smp::{measure_round_seconds, IterationWork, MachineProfile};
use fd_boost::synthdata::{synth_faces, NegativeSource};
use fd_boost::{GentleBoost, TrainingSet};
use fd_detector::{DetectorConfig, FaceDetector};
use fd_eval::roc::{match_frame, roc_curve, FrameEval};
use fd_eval::scface::MugshotDataset;
use fd_gpu::{ExecMode, Timeline};
use fd_haar::{enumerate_features, Cascade, EnumerationRule};
use fd_video::movie_trailers;

/// Fig. 5 — face-detection elapsed time per frame for the "50/50"
/// trailer, for both cascades under serial and concurrent kernel
/// execution. The paper's plot shows (a) strong per-frame variability
/// driven by the number of faces in each scene and (b) the serial OpenCV
/// configuration repeatedly violating the 40 ms display deadline.
///
/// Flags: `--frames N` (default 96). Writes `results/fig5_series.csv`
/// with one row per frame.
pub fn fig5() {
    let frames = arg_usize("--frames", 96);
    let pair = trained_cascade_pair(&TrainingBudget::default());
    let info = movie_trailers().into_iter().find(|t| t.title == "50/50").unwrap();
    println!("[fig5] {} frames of '{}' x 4 configurations", frames, info.title);

    let (ours_c, _) = detect_series(&pair.ours, &info, ExecMode::Concurrent, frames);
    let (ours_s, _) = detect_series(&pair.ours, &info, ExecMode::Serial, frames);
    let (cv_c, _) = detect_series(&pair.opencv_like, &info, ExecMode::Concurrent, frames);
    let (cv_s, _) = detect_series(&pair.opencv_like, &info, ExecMode::Serial, frames);

    let mut csv = Table::new(&[
        "frame",
        "ours_concurrent_ms",
        "ours_serial_ms",
        "cv_concurrent_ms",
        "cv_serial_ms",
    ]);
    for i in 0..frames {
        csv.push([
            i.to_string(),
            format!("{:.4}", ours_c[i]),
            format!("{:.4}", ours_s[i]),
            format!("{:.4}", cv_c[i]),
            format!("{:.4}", cv_s[i]),
        ]);
    }
    let path = csv.write_csv("fig5_series.csv").expect("write csv");

    let stats = |v: &[f64], name: &str| {
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let max = v.iter().cloned().fold(0.0f64, f64::max);
        let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let over = v.iter().filter(|&&x| x > 40.0).count();
        println!(
            "{name:<16} mean {mean:6.2} ms  min {min:6.2}  max {max:6.2}  >40ms deadline: {over}/{} frames",
            v.len()
        );
    };
    println!();
    stats(&ours_c, "ours/concurrent");
    stats(&ours_s, "ours/serial");
    stats(&cv_c, "cv/concurrent");
    stats(&cv_s, "cv/serial");

    // Variability check: the paper's series fluctuates with scene content.
    let spread = |v: &[f64]| {
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let max = v.iter().cloned().fold(0.0f64, f64::max);
        max / mean
    };
    println!(
        "\nper-frame variability (max/mean): ours/concurrent {:.2}, cv/serial {:.2}",
        spread(&ours_c),
        spread(&cv_s)
    );
    println!("wrote {}", path.display());
}

/// Fig. 6 — execution trace of the cascade-evaluation kernels for one
/// video frame: per-kernel start/end timestamps across CUDA streams,
/// showing the small-scale kernels executing completely overlapped under
/// concurrent kernel execution (and strictly one-after-another in serial
/// mode).
///
/// Flags: `--frame N` (default 0). Writes
/// `results/fig6_trace_{concurrent,serial}.csv` and prints an ASCII lane
/// chart of the cascade kernels.
pub fn fig6() {
    let frame_idx = arg_usize("--frame", 0);
    let pair = trained_cascade_pair(&TrainingBudget::default());
    let info = movie_trailers().into_iter().find(|t| t.title == "50/50").unwrap();
    let trailer = info.generate(frame_idx + 1);
    let frame = trailer.render_frame(frame_idx);

    let mut overlap_summary = Vec::new();
    for (mode, name) in [(ExecMode::Concurrent, "concurrent"), (ExecMode::Serial, "serial")] {
        let mut det = FaceDetector::new(
            &pair.ours,
            DetectorConfig { exec_mode: mode, ..DetectorConfig::default() },
        );
        let r = det.detect(&frame).expect("detect");
        println!(
            "\n=== {name} mode: frame span {:.3} ms, SM occupancy {:.1}% ===",
            r.detect_ms,
            100.0 * r.timeline.sm_utilization()
        );
        println!("{}", ascii_lanes(&r.timeline, "cascade_eval"));
        let mut csv =
            Table::new(&["launch", "stream", "kernel", "t_start_us", "t_end_us", "blocks"]);
        for e in &r.timeline.events {
            csv.push([
                e.launch_idx.to_string(),
                e.stream.index().to_string(),
                e.kernel_name.to_string(),
                format!("{:.3}", e.t_start_us),
                format!("{:.3}", e.t_end_us),
                e.blocks.to_string(),
            ]);
        }
        let path = csv.write_csv(&format!("fig6_trace_{name}.csv")).expect("write csv");
        println!("wrote {}", path.display());

        // Overlap metric: total kernel-duration sum over span; > 1 means
        // kernels genuinely overlap.
        let dur_sum: f64 = r.timeline.events.iter().map(|e| e.duration_us()).sum();
        let overlap = dur_sum / (r.detect_ms * 1000.0);
        overlap_summary.push((name, r.detect_ms, overlap));
    }
    println!();
    for (name, ms, overlap) in overlap_summary {
        println!("{name:<11} span {ms:7.3} ms, kernel-time/span = {overlap:.2} (>1 = overlapped)");
    }
}

fn ascii_lanes(timeline: &Timeline, kernel: &str) -> String {
    let cascade: Vec<_> = timeline.events.iter().filter(|e| e.kernel_name == kernel).collect();
    if cascade.is_empty() {
        return String::new();
    }
    let t0 = cascade.iter().map(|e| e.t_start_us).fold(f64::INFINITY, f64::min);
    let t1 = cascade.iter().map(|e| e.t_end_us).fold(0.0f64, f64::max);
    let width = 88.0;
    let scale = width / (t1 - t0).max(1e-9);
    let mut out = String::new();
    for e in &cascade {
        let a = ((e.t_start_us - t0) * scale).round() as usize;
        let b = (((e.t_end_us - t0) * scale).round() as usize).max(a + 1);
        let mut line = vec![b' '; width as usize + 1];
        for c in line.iter_mut().take(b.min(width as usize + 1)).skip(a) {
            *c = b'#';
        }
        out.push_str(&format!(
            "stream {:>2} |{}| {:7.1}..{:7.1} us ({} blocks)\n",
            e.stream.index(),
            String::from_utf8(line).unwrap(),
            e.t_start_us,
            e.t_end_us,
            e.blocks
        ));
    }
    out
}

/// Fig. 7 — rejection rate for each cascade stage and image scale,
/// aggregated over the frames of the "What To Expect When You're
/// Expecting" trailer.
///
/// Paper observations to reproduce: ~94.5 % of windows are rejected by
/// the first stage, ~4 % by the second, with the remainder decaying
/// sharply over later stages; the pattern holds across scales.
///
/// Flags: `--frames N` (default 12). Writes `results/fig7.csv` with one
/// row per (scale, stage).
pub fn fig7() {
    let frames = arg_usize("--frames", 12);
    let pair = trained_cascade_pair(&TrainingBudget::default());
    let info = movie_trailers()
        .into_iter()
        .find(|t| t.title == "What To Expect When You're Expecting")
        .unwrap();
    println!("[fig7] {} frames of '{}'", frames, info.title);

    let surface = run_rejection_surface(&pair.ours, &info, frames);

    let mut csv = Table::new(&["scale", "stage", "rejection_rate"]);
    for level in 0..surface.counts.len() {
        for stage in 1..=surface.n_stages {
            csv.push([
                level.to_string(),
                stage.to_string(),
                format!("{:.6e}", surface.rate(level, stage)),
            ]);
        }
    }
    let path = csv.write_csv("fig7.csv").expect("write csv");

    println!("\naggregate rejection rate by stage (all scales):");
    for stage in 1..=surface.n_stages {
        let r = surface.aggregate_rate(stage);
        println!("  stage {stage:>2}: {:>9.4} %", 100.0 * r);
    }
    let survived: f64 =
        1.0 - (1..=surface.n_stages).map(|s| surface.aggregate_rate(s)).sum::<f64>();
    println!("  accepted (faces + false positives): {:.6} %", 100.0 * survived);
    println!(
        "\npaper: stage 1 ~ 94.52 %, stage 2 ~ 4 %, then sharply decaying; ours: stage 1 = {:.2} %, stage 2 = {:.2} %",
        100.0 * surface.aggregate_rate(1),
        100.0 * surface.aggregate_rate(2)
    );
    println!("wrote {}", path.display());
}

/// Fig. 8 — execution time of a single GentleBoost training iteration
/// (the full feature sweep over the whole training set) for 1-8 threads,
/// on the paper's two SMP machines.
///
/// Neither machine is at hand. The *model*: `fd_boost::smp`'s calibrated
/// profiles, fed with the exact work content of the paper's workload (the
/// full 103 607-feature enumeration over 15 242 samples, row-ops counted
/// from the real implementation). The *measurement*: one real round,
/// sized so one thread takes at least 0.3 s, timed at 1 up to the host's
/// threads in 7 alternating repetitions (ascending, then descending) and
/// reduced to the median, beside the model's speedup for it.
///
/// Flags: `--samples N` (default 800). Writes `results/fig8.csv`: the
/// model rows, then the measured medians.
pub fn fig8() {
    let n_real_samples = arg_usize("--samples", 800);

    println!("[fig8] counting the paper workload's row-ops (103 607 features x 15 242 samples)...");
    let work = IterationWork::paper_workload();
    println!(
        "  parallel row-ops per iteration: {:.3e}  (serial: {:.1e})",
        work.parallel_ops as f64, work.serial_ops as f64
    );

    let machines = [MachineProfile::dual_xeon_e5472(), MachineProfile::core_i7_2600k()];
    let mut shown = Table::new(&["threads", machines[0].name, machines[1].name]);
    let mut csv = Table::new(&["machine", "threads", "seconds", "speedup"]);
    for threads in 1..=8u32 {
        let mut row = vec![threads.to_string()];
        for m in &machines {
            let secs = m.predict_seconds(&work, threads);
            let speedup = m.predict_speedup(&work, threads);
            row.push(format!("{secs:7.1}s ({speedup:.2}x)"));
            csv.push([
                m.name.to_string(),
                threads.to_string(),
                format!("{secs:.3}"),
                format!("{speedup:.4}"),
            ]);
        }
        shown.push(row);
    }
    println!("\nFig. 8 — model: predicted single-iteration time (speedup vs 1 thread)\n");
    println!("{}", shown.render());
    println!(
        "paper anchors: Xeon ~370 s @1T, i7 ~185 s @1T (2x), both ~3.5x @8T; model: Xeon {:.0} s / i7 {:.0} s @1T, {:.2}x / {:.2}x @8T",
        machines[0].predict_seconds(&work, 1),
        machines[1].predict_seconds(&work, 1),
        machines[0].predict_speedup(&work, 8),
        machines[1].predict_speedup(&work, 8),
    );

    let faces = synth_faces(n_real_samples / 2, 99);
    let negs = NegativeSource::new(77).initial(n_real_samples / 2);
    let labelled = faces.iter().map(|f| (f, 1.0)).chain(negs.iter().map(|n| (n, -1.0)));
    let set = TrainingSet::from_samples(labelled);
    let features = enumerate_features(24, EnumerationRule::Icpp2012);
    // Thin the enumeration until one thread needs 0.3 s or more a round
    // (aiming at 0.4 s), so timer, thread start-up and a busy host's
    // jitter stay small against it.
    let mut stride = 37;
    let learner = loop {
        let learner = GentleBoost::new(features.iter().step_by(stride).copied().collect());
        let secs = measure_round_seconds(&learner, &set, 1);
        if secs >= 0.3 || stride == 1 {
            break learner;
        }
        stride = ((stride as f64 * secs / 0.4) as usize).clamp(1, stride - 1);
    };
    let round = IterationWork::from_learner(&learner, set.len());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    const REPS: usize = 7;
    println!(
        "\n[fig8] measured: one round at feature stride {stride} ({} features) x {} samples ({:.2e} row-ops), {cores} threads available, {REPS} repetitions",
        learner.pool.len(),
        set.len(),
        round.parallel_ops as f64
    );
    let mut runs = vec![Vec::with_capacity(REPS); cores];
    for rep in 0..REPS {
        let order: Vec<usize> =
            if rep % 2 == 0 { (1..=cores).collect() } else { (1..=cores).rev().collect() };
        for threads in order {
            runs[threads - 1].push(measure_round_seconds(&learner, &set, threads));
        }
    }
    let median = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let one = median(&runs[0]);
    let mut measured =
        Table::new(&["threads", "median s", "speedup", "model Xeon", "model i7", "runs (s)"]);
    for (i, secs) in runs.iter().enumerate() {
        let threads = i + 1;
        let (m, speedup) = (median(secs), one / median(secs));
        let each: Vec<String> = secs.iter().map(|s| format!("{s:.3}")).collect();
        measured.push([
            threads.to_string(),
            format!("{m:.3}"),
            format!("{speedup:.2}x"),
            format!("{:.2}x", machines[0].predict_speedup(&round, threads as u32)),
            format!("{:.2}x", machines[1].predict_speedup(&round, threads as u32)),
            each.join(" "),
        ]);
        csv.push([
            "measured on this host".to_string(),
            threads.to_string(),
            format!("{m:.3}"),
            format!("{speedup:.4}"),
        ]);
    }
    println!("{}", measured.render());
    let path = csv.write_csv("fig8.csv").expect("write csv");
    println!("wrote {}", path.display());
}

/// Fig. 9 — TPR/FP curves for the OpenCV-like feature set and our
/// cascade, at the 15-, 20- and 25-stage operating points.
///
/// Methodology per §VI-B: detections grouped with `S_eyes`, assigned to
/// ground truth with the Hungarian algorithm, curve produced by sweeping
/// a threshold over the detection score. The corpus is the synthetic
/// mug-shot set (stand-in for SCFace + 3 000 backgrounds; see DESIGN.md).
///
/// Paper shape to reproduce: discrimination improves with stage count for
/// both cascades, and ours generally dominates the OpenCV-like cascade
/// despite having fewer weak classifiers.
///
/// The paper's 15/20/25 stage cuts are mapped proportionally onto each
/// trained cascade's actual depth (synthetic negatives support fewer
/// stages than the authors' photo corpus — documented in EXPERIMENTS.md).
///
/// Flags: `--faces N --backgrounds M --side S` (defaults 120, 200, 96).
/// Writes `results/fig9.csv`.
pub fn fig9() {
    let n_faces = arg_usize("--faces", 120);
    let n_bg = arg_usize("--backgrounds", 200);
    let side = arg_usize("--side", 96);
    let pair = trained_cascade_pair(&TrainingBudget::default());
    let ds = MugshotDataset::generate(n_faces, n_bg, side, 0x5CFA);
    println!(
        "[fig9] {} mug shots + {} backgrounds ({}x{}); cascades: ours {} stages, cv {} stages",
        n_faces,
        n_bg,
        side,
        side,
        pair.ours.depth(),
        pair.opencv_like.depth()
    );

    let mut csv =
        Table::new(&["paper_stages", "cascade", "actual_stages", "threshold", "fp", "tpr"]);
    for paper_stages in [15usize, 20, 25] {
        println!("\n=== {paper_stages}-stage operating point ===");
        for (name, cascade) in [("ours", &pair.ours), ("opencv-like", &pair.opencv_like)] {
            let cut = equivalent_stage_cut(cascade, paper_stages);
            let truncated = cascade.truncated(cut);
            let evals = evaluate(&truncated, &ds);
            let curve = roc_curve(&evals, 12);
            // Report the loosest point (max TPR) and a mid point.
            let last = curve.last().unwrap();
            println!(
                "  {name:<12} ({cut:>2} stages, {:>4} stumps): TPR {:.3} at {} FP (loosest)",
                truncated.total_stumps(),
                last.tpr,
                last.fp
            );
            for p in &curve {
                csv.push([
                    paper_stages.to_string(),
                    name.to_string(),
                    cut.to_string(),
                    format!("{:.4}", p.threshold),
                    p.fp.to_string(),
                    format!("{:.6}", p.tpr),
                ]);
            }
        }
    }
    let path = csv.write_csv("fig9.csv").expect("write csv");
    println!("\nwrote {}", path.display());
}

fn evaluate(cascade: &Cascade, ds: &MugshotDataset) -> Vec<FrameEval> {
    let mut det = FaceDetector::new(
        cascade,
        DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() },
    );
    ds.images
        .iter()
        .map(|img| {
            let r = det.detect(&img.image).expect("detect");
            let truths: Vec<_> = img.truth.iter().cloned().collect();
            match_frame(&r.detections, &truths)
        })
        .collect()
}
