//! Developer probe: times one 1080p frame through the pipeline and prints
//! the simulated device timeline summary. Used to size the experiment
//! defaults; not part of the paper's tables.
//!
//! `probe --sim [--ops N]` instead prints what the timing simulation
//! costs the host per placed block, on the shipped cascade (no training);
//! `probe --bodies [--ops N]` what each kernel body costs it.

use std::collections::BTreeMap;

use fd_bench::cascades::{trained_cascade_pair, TrainingBudget};
use fd_bench::out::{arg_flag, arg_usize};
use fd_detector::{DetectorConfig, FaceDetector};
use fd_gpu::{ExecMode, Profiler};
use fd_imgproc::synth::render_random_background;
use fd_imgproc::GrayImage;
use fd_video::{movie_trailers, Trailer, TrailerSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `count` frames of `width x height`: trailer scenes, or bare
/// backgrounds below 64 px (trailers start at 64 px).
fn frames(width: usize, height: usize, count: u64) -> Vec<GrayImage> {
    (0..count)
        .map(|seed| {
            if height < 64 {
                return render_random_background(&mut StdRng::seed_from_u64(seed), width, height);
            }
            let spec = TrailerSpec { width, height, n_frames: 1, seed, ..Default::default() };
            Trailer::generate(spec).render_frame(0)
        })
        .collect()
}

/// A detector for the shipped cascade at one host thread (the timing
/// simulation then follows the drain, so no span holds anything else) that
/// has seen `frames` once; then `ops` more detects of `frames`, `measure`
/// reading the profiler after each.
fn profile_detects(
    frames: &[GrayImage],
    config: DetectorConfig,
    ops: usize,
    mut measure: impl FnMut(&Profiler),
) {
    let path = "assets/ours-gentle.cascade";
    let cascade = fd_haar::io::load(path)
        .unwrap_or_else(|e| panic!("cannot load {path} (run from the repo root): {e}"));
    let config = DetectorConfig { host_threads: Some(1), ..config };
    let frames: Vec<&GrayImage> = frames.iter().collect();
    let mut det = FaceDetector::try_new(&cascade, config).expect("shipped cascade");
    det.detect_batch(&frames).expect("warm-up detect");
    for _ in 0..ops {
        det.reset_profiler();
        det.detect_batch(&frames).expect("detect");
        measure(det.profiler());
    }
}

/// The median and quartiles of `xs`, to `decimals` places.
fn quartiles(mut xs: Vec<f64>, decimals: usize) -> String {
    xs.sort_by(f64::total_cmp);
    let at = |q: usize| xs[(xs.len() - 1) * q / 4];
    format!(
        "median {:.*}, quartiles {:.*} / {:.*}",
        decimals,
        at(2),
        decimals,
        at(1),
        decimals,
        at(3)
    )
}

/// `--sim`: host ns of `sched::simulate` per placed block — the profiler's
/// `timing_host_us` over the blocks of the timelines it absorbed — for one
/// 1080p frame and for a batch of six 64×48 frames.
fn sim_cost() {
    let ops = arg_usize("--ops", 50).max(1);
    for (shape, (width, height), count) in
        [("one 1080p frame", (1920, 1080), 1), ("six 64x48 frames", (64, 48), 6)]
    {
        let (mut ns_per_block, mut launches, mut blocks) = (Vec::with_capacity(ops), 0, 0);
        profile_detects(
            &frames(width, height, count),
            DetectorConfig::default(),
            ops,
            |profiler| {
                let traces = profiler.traces();
                launches = traces.len();
                blocks = traces.iter().map(|e| e.blocks).sum::<u64>();
                ns_per_block.push(profiler.timing_host_us() * 1e3 / blocks as f64);
            },
        );
        println!(
            "{shape}: {launches} launches, {blocks} blocks; ns per block over {ops} detects: {}",
            quartiles(ns_per_block, 0)
        );
    }
}

/// `--bodies`: host ms per kernel name — the sum of its
/// [`Profiler::host_spans`] — and of the timing simulation, for one 1080p
/// frame (the default configuration, as `trailer_1080p` runs it) and for
/// a batch of eight VGA frames (fused and autotuned, as `batch_vga_fused`
/// runs it).
fn body_cost() {
    let ops = arg_usize("--ops", 50).max(1);
    let fused =
        DetectorConfig { fusion: Some(true), autotune: Some(true), ..DetectorConfig::default() };
    for (shape, (width, height), count, config) in [
        ("one 1080p frame", (1920, 1080), 1, DetectorConfig::default()),
        ("eight VGA frames, fused and autotuned", (640, 480), 8, fused),
    ] {
        let mut per_kernel: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let (mut bodies, mut timing) = (Vec::with_capacity(ops), Vec::with_capacity(ops));
        profile_detects(&frames(width, height, count), config, ops, |profiler| {
            let mut op: BTreeMap<&'static str, f64> = BTreeMap::new();
            for span in profiler.host_spans() {
                *op.entry(span.kernel_name).or_default() += span.duration_us() / 1e3;
            }
            bodies.push(op.values().sum());
            for (name, us) in op {
                per_kernel.entry(name).or_default().push(us);
            }
            timing.push(profiler.timing_host_us() / 1e3);
        });
        println!("{shape}: host ms per detect over {ops} detects");
        for (name, ms) in per_kernel {
            println!("  {name:<30} {}", quartiles(ms, 1));
        }
        println!("  {:<30} {}", "all kernel bodies", quartiles(bodies, 1));
        println!("  {:<30} {}", "timing simulation", quartiles(timing, 1));
    }
}

fn main() {
    if arg_flag("--sim") {
        return sim_cost();
    }
    if arg_flag("--bodies") {
        return body_cost();
    }
    let frames = arg_usize("--frames", 2);
    let budget = if std::env::args().any(|a| a == "--tiny") {
        TrainingBudget::tiny()
    } else {
        TrainingBudget::default()
    };
    let t0 = std::time::Instant::now();
    let pair = trained_cascade_pair(&budget);
    eprintln!(
        "cascades ready in {:.1}s: ours {} stages / {} stumps, cv {} stages / {} stumps",
        t0.elapsed().as_secs_f64(),
        pair.ours.depth(),
        pair.ours.total_stumps(),
        pair.opencv_like.depth(),
        pair.opencv_like.total_stumps()
    );

    // Quick accuracy sanity check on a small mug-shot set.
    let ds = fd_eval::scface::MugshotDataset::generate(40, 40, 96, 0xABCD);
    for (name, cascade) in [("ours", &pair.ours), ("opencv-like", &pair.opencv_like)] {
        let mut det = FaceDetector::new(
            cascade,
            DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() },
        );
        let mut hits = 0;
        let mut fps = 0;
        for img in &ds.images {
            let r = det.detect(&img.image).expect("detect");
            let truths: Vec<_> = img.truth.iter().cloned().collect();
            let e = fd_eval::roc::match_frame(&r.detections, &truths);
            hits += e.hit_scores.len();
            fps += e.fp_scores.len();
        }
        eprintln!(
            "{name:<12} mugshots: {hits}/{} faces hit, {fps} false positives over {} images",
            ds.total_faces(),
            ds.images.len()
        );
    }

    let info = &movie_trailers()[1]; // 50/50
    let trailer = info.generate(frames);
    let tg = std::time::Instant::now();
    let frame_idx = (0..frames).find(|&i| !trailer.faces_at(i).is_empty()).unwrap_or(0);
    let frame0 = trailer.render_frame(frame_idx);
    eprintln!(
        "frame render: {:.0} ms (frame {frame_idx}, {} ground-truth faces)",
        tg.elapsed().as_secs_f64() * 1000.0,
        trailer.faces_at(frame_idx).len()
    );

    for (name, cascade) in [("ours", &pair.ours), ("opencv-like", &pair.opencv_like)] {
        for mode in [ExecMode::Concurrent, ExecMode::Serial] {
            let mut det = FaceDetector::new(
                cascade,
                DetectorConfig { exec_mode: mode, ..DetectorConfig::default() },
            );
            let tw = std::time::Instant::now();
            let r = det.detect(&frame0).expect("detect");
            eprintln!(
                "{name:<12} {mode:?}: simulated {:.3} ms, wall {:.2} s, raw {} dets {} groups, util {:.2}",
                r.detect_ms,
                tw.elapsed().as_secs_f64(),
                r.raw.len(),
                r.detections.len(),
                r.timeline.sm_utilization(),
            );
            if std::env::args().any(|a| a == "--breakdown") {
                let mut per: std::collections::BTreeMap<&str, f64> = Default::default();
                for e in &r.timeline.events {
                    *per.entry(e.kernel_name).or_default() += e.duration_us();
                }
                for (k, us) in per {
                    eprintln!("    {k:<14} {:.3} ms total-kernel-time", us / 1000.0);
                }
                // Cascade duration by scale (launch order).
                for e in r.timeline.events.iter().filter(|e| e.kernel_name == "cascade_eval") {
                    eprintln!(
                        "    cascade s{:<2} [{:8.1}..{:8.1}] {:7.1} us {} blocks",
                        e.stream.index(),
                        e.t_start_us,
                        e.t_end_us,
                        e.duration_us(),
                        e.blocks
                    );
                }
            }
        }
    }
}
