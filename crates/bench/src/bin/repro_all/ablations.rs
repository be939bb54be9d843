//! Ablations of the paper's design choices and of the alternatives its
//! §II discusses (DESIGN.md `#extensions`).

use fd_bench::cascades::{trained_cascade_pair, TrainingBudget};
use fd_bench::experiments::multi_gpu::{detect_multi_gpu, PcieModel};
use fd_bench::experiments::rearrange::run_rearranged_level;
use fd_bench::experiments::records::UncompressedRecords;
use fd_bench::experiments::soft::{staged_mean_depth, SoftCascade};
use fd_bench::out::{arg_usize, Table};
use fd_boost::synthdata::synth_faces;
use fd_detector::kernels::CascadeKernel;
use fd_detector::{DetectorConfig, FaceDetector};
use fd_gpu::{DeviceSpec, ExecMode, Gpu};
use fd_haar::encode::{encode_cascade, quantize_cascade};
use fd_imgproc::synth::render_random_background;
use fd_imgproc::{GrayImage, IntegralImage, Pyramid};
use fd_video::movie_trailers;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn inclusive_integral(img: &GrayImage) -> Vec<u32> {
    let ii = IntegralImage::from_gray(img);
    let (w, h) = (img.width(), img.height());
    let mut out = vec![0u32; w * h];
    for y in 0..h {
        for x in 0..w {
            out[y * w + x] = ii.at(x + 1, y + 1);
        }
    }
    out
}

/// Ablations of the paper's §III-C design choices, on the cascade
/// evaluation kernel:
///
/// * **shared-memory tiling** (Eqs. 1-4) vs scattered global reads;
/// * **compressed constant-memory records** (2x16-bit packing) vs naive
///   full-word records;
/// * **pyramid scale factor** sweep (work vs detection granularity).
///
/// Flags: `--frames N` (default 2). Writes `results/ablation_kernel.csv`
/// and `results/ablation_pyramid.csv`.
pub fn ablations() {
    let frames = arg_usize("--frames", 2);
    let pair = trained_cascade_pair(&TrainingBudget::default());
    let info = &movie_trailers()[1];
    let trailer = info.generate(frames);

    // ---- Kernel-level ablations on one 1080p frame's level-0 cascade.
    let frame = trailer.render_frame(0);
    let filtered = fd_imgproc::filter::antialias_3tap(&frame);
    let integral_host = inclusive_integral(&filtered);
    let (w, h) = (frame.width(), frame.height());

    let mut kernel_rows =
        Table::new(&["variant", "sim_ms", "dram_read_mb", "const_broadcasts", "shared_txns"]);
    let mut run_variant = |name: &str, tile: bool, compressed: bool| {
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let integral = gpu.mem.upload(&integral_host);
        let depth = gpu.mem.alloc::<u32>(w * h);
        let score = gpu.mem.alloc::<f32>(w * h);
        let cp = gpu.const_upload(&encode_cascade(&quantize_cascade(&pair.ours)));
        let mut k = CascadeKernel::new(&pair.ours, integral, w, h, depth, score, cp);
        if !tile {
            k = k.without_shared_tile();
        }
        let cfg = k.config();
        if compressed {
            gpu.launch_default(k, cfg).unwrap();
        } else {
            gpu.launch_default(UncompressedRecords(k), cfg).unwrap();
        }
        let t = gpu.synchronize();
        let ev = &t.events[0];
        kernel_rows.push([
            name.to_string(),
            format!("{:.3}", t.span_us() / 1000.0),
            format!("{:.1}", ev.counters.global_bytes_read as f64 / 1e6),
            format!("{}", ev.counters.const_broadcasts),
            format!("{}", ev.counters.shared_transactions),
        ]);
        t.span_us()
    };
    let base = run_variant("tiled + compressed (paper)", true, true);
    let no_tile = run_variant("no shared tile", false, true);
    let no_comp = run_variant("uncompressed records", true, false);
    let neither = run_variant("neither", false, false);

    println!("cascade-eval kernel ablations (level 0 of a 1080p frame, 'ours' cascade)\n");
    println!("{}", kernel_rows.render());
    println!(
        "slowdowns vs paper design: no-tile {:.2}x, uncompressed {:.2}x, neither {:.2}x\n",
        no_tile / base,
        no_comp / base,
        neither / base
    );
    kernel_rows.write_csv("ablation_kernel.csv").unwrap();

    // ---- Pyramid scale-factor sweep (full pipeline).
    let mut sweep_rows = Table::new(&["factor", "levels", "mean_ms_per_frame", "detections"]);
    for factor in [1.1f64, 1.18, 1.25, 1.4, 1.6] {
        let mut det = FaceDetector::new(
            &pair.ours,
            DetectorConfig { scale_factor: factor, ..DetectorConfig::default() },
        );
        let mut ms = 0.0;
        let mut dets = 0usize;
        for i in 0..frames {
            let r = det.detect(&trailer.render_frame(i)).expect("detect");
            ms += r.detect_ms;
            dets += r.detections.len();
        }
        let levels = Pyramid::plan(1920, 1080, factor, 24).len();
        sweep_rows.push([
            format!("{factor}"),
            levels.to_string(),
            format!("{:.3}", ms / frames as f64),
            dets.to_string(),
        ]);
    }
    println!("pyramid scale-factor sweep ({frames} frames, 'ours', concurrent)\n");
    println!("{}", sweep_rows.render());
    sweep_rows.write_csv("ablation_pyramid.csv").unwrap();
}

/// Concurrent kernels (the paper) vs thread rearrangement (Herout et
/// al., §II) — two answers to GPU underutilization during cascade
/// evaluation, compared on the same frames.
///
/// The rearrangement strategy compacts surviving windows into dense
/// blocks between cascade segments: occupancy stays high, but the
/// cooperative shared-memory tile is lost (scattered global reads) and
/// every segment boundary costs a compaction kernel plus a host-visible
/// synchronization before the next grid can be sized.
///
/// Flags: `--frames N --segment K` (defaults 2, 3). Writes
/// `results/ablation_rearrange.csv`.
pub fn ablation_rearrange() {
    let frames = arg_usize("--frames", 2);
    let segment = arg_usize("--segment", 3);
    let pair = trained_cascade_pair(&TrainingBudget::default());
    let info = &movie_trailers()[1];
    let trailer = info.generate(frames);

    let mut rows = Table::new(&[
        "frame",
        "concurrent_cascade_ms",
        "rearranged_ms",
        "ratio",
        "full_pipeline_ms",
    ]);
    for fi in 0..frames {
        let frame = trailer.render_frame(fi);

        // (a) The paper's approach: blocked tiled kernels, one stream per
        // scale, concurrent execution (full pipeline time).
        let mut det = FaceDetector::new(&pair.ours, DetectorConfig::default());
        let concurrent_ms = det.detect(&frame).expect("detect").detect_ms;

        // (b) Rearrangement: per level, segments + compaction. Pyramid
        // levels are prepared identically (host-side here; the scale/
        // filter/integral cost is common to both strategies, so only the
        // cascade-evaluation portion is compared).
        let plan = Pyramid::plan(frame.width(), frame.height(), 1.25, 24);
        let mut rearranged_ms = 0.0f64;
        let cascade_only_ms;
        {
            // Isolate the blocked cascade kernels' share for fairness.
            let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
            let mut streams = Vec::new();
            let quant = quantize_cascade(&pair.ours);
            let cp = gpu.const_upload(&encode_cascade(&quant));
            for (li, &(w, h)) in plan.iter().enumerate() {
                let scaled = if li == 0 {
                    frame.clone()
                } else {
                    fd_imgproc::resize::resize_bilinear(&frame, w, h)
                };
                let filtered = fd_imgproc::filter::antialias_3tap(&scaled);
                let integral = gpu.mem.upload(&inclusive_integral(&filtered));
                let depth = gpu.mem.alloc::<u32>(w * h);
                let score = gpu.mem.alloc::<f32>(w * h);
                let k = CascadeKernel::new(&quant, integral, w, h, depth, score, cp);
                let s = gpu.create_stream();
                streams.push(s);
                let cfg = k.config();
                gpu.launch(k, cfg, s).unwrap();
            }
            cascade_only_ms = gpu.synchronize().span_us() / 1000.0;
        }
        {
            let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
            for (li, &(w, h)) in plan.iter().enumerate() {
                let scaled = if li == 0 {
                    frame.clone()
                } else {
                    fd_imgproc::resize::resize_bilinear(&frame, w, h)
                };
                let filtered = fd_imgproc::filter::antialias_3tap(&scaled);
                let integral = gpu.mem.upload(&inclusive_integral(&filtered));
                let s = gpu.create_stream();
                let (_, timelines) =
                    run_rearranged_level(&mut gpu, &pair.ours, integral, w, h, segment, s)
                        .expect("rearranged level");
                rearranged_ms += timelines.iter().map(|t| t.span_us()).sum::<f64>() / 1000.0;
                gpu.mem.free(integral);
            }
        }

        rows.push([
            fi.to_string(),
            format!("{:.3}", cascade_only_ms),
            format!("{:.3}", rearranged_ms),
            format!("{:.2}x", rearranged_ms / cascade_only_ms),
            format!("{:.3}", concurrent_ms),
        ]);
    }

    println!(
        "cascade evaluation: concurrent tiled kernels vs thread rearrangement (segment = {segment} stages)\n"
    );
    println!("{}", rows.render());
    rows.write_csv("ablation_rearrange.csv").unwrap();
    println!("note: rearrangement keeps blocks dense but loses the 48x48 shared tile and pays a\nhost synchronization per segment — the trade-off the paper's §II discusses.");
}

/// Soft-cascade ablation (the paper's §VII future work): calibrate a
/// soft cascade from the trained staged cascade and compare (a) mean
/// stumps evaluated per background window (early-exit efficiency) and
/// (b) detection recall on mug shots.
///
/// Flags: `--faces N --quantile Q*1000` (defaults 200, 50). Writes
/// `results/ablation_softcascade.csv`.
pub fn ablation_softcascade() {
    let n_faces = arg_usize("--faces", 200);
    let quantile = arg_usize("--quantile", 50) as f64 / 1000.0;
    let pair = trained_cascade_pair(&TrainingBudget::default());

    println!(
        "calibrating a soft cascade from '{}' ({} stages / {} stumps) on {} faces, miss budget {:.1} %",
        pair.ours.name,
        pair.ours.depth(),
        pair.ours.total_stumps(),
        n_faces,
        100.0 * quantile
    );
    let positives: Vec<IntegralImage> =
        synth_faces(n_faces, 0x50F7).iter().map(IntegralImage::from_gray).collect();
    let soft = SoftCascade::calibrate(&pair.ours, &positives, quantile);

    // Recall on held-out faces.
    let held_out: Vec<IntegralImage> =
        synth_faces(n_faces, 0xF00D).iter().map(IntegralImage::from_gray).collect();
    let staged_kept = held_out.iter().filter(|ii| pair.ours.classify(ii, 0, 0)).count();
    let soft_kept = held_out.iter().filter(|ii| soft.classify(ii, 0, 0)).count();

    // Early-exit efficiency on background textures.
    let mut rng = StdRng::seed_from_u64(0xBACC);
    let mut staged_depths = Vec::new();
    let mut soft_depths = Vec::new();
    for _ in 0..8 {
        let bg = render_random_background(&mut rng, 96, 96);
        let filtered = fd_imgproc::filter::antialias_3tap(&bg);
        let ii = IntegralImage::from_gray(&filtered);
        staged_depths.push(staged_mean_depth(&pair.ours, &ii));
        soft_depths.push(soft.mean_depth(&ii));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;

    let mut rows = Table::new(&["form", "recall", "stumps_per_bg_window"]);
    rows.push([
        "staged (paper)".to_string(),
        format!("{}/{}", staged_kept, held_out.len()),
        format!("{:.2}", mean(&staged_depths)),
    ]);
    rows.push([
        "soft (future work)".to_string(),
        format!("{}/{}", soft_kept, held_out.len()),
        format!("{:.2}", mean(&soft_depths)),
    ]);
    println!();
    println!("{}", rows.render());
    println!(
        "early-exit speedup of the soft form: {:.2}x fewer stumps per background window",
        mean(&staged_depths) / mean(&soft_depths).max(1e-9)
    );
    rows.write_csv("ablation_softcascade.csv").unwrap();
}

/// Multi-GPU scale parallelism (Hefenbrock et al., §II) vs the paper's
/// single-GPU concurrent kernels: frame latency as GPUs are added, with
/// the raw-frame PCIe broadcast the on-die decoder avoids.
///
/// Flags: `--frames N` (default 2). Writes `results/ablation_multigpu.csv`.
pub fn ablation_multigpu() {
    let frames = arg_usize("--frames", 2);
    let pair = trained_cascade_pair(&TrainingBudget::default());
    let info = &movie_trailers()[1];
    let trailer = info.generate(frames);
    let pcie = PcieModel::pcie2_x16();

    let mut rows = Table::new(&["frame", "single_gpu_ms", "two_gpus", "four_gpus"]);
    for fi in 0..frames {
        let frame = trailer.render_frame(fi);

        let mut det = FaceDetector::new(&pair.ours, DetectorConfig::default());
        let single = det.detect(&frame).expect("detect").detect_ms;

        let mut cols = vec![fi.to_string(), format!("{single:.3}")];
        for n_gpus in [2usize, 4] {
            let r =
                detect_multi_gpu(&pair.ours, &frame, n_gpus, &DeviceSpec::gtx470(), &pcie, 1.25)
                    .expect("multi-gpu frame");
            cols.push(format!("{:.3} (+{:.2} xfer)", r.frame_ms, r.upload_ms));
        }
        rows.push(cols);
    }
    println!("single GPU + concurrent kernels (paper) vs Hefenbrock-style multi-GPU scale split\n");
    println!("{}", rows.render());
    println!(
        "\nthe multi-GPU split is pinned by the device holding scale 0 and pays a raw-frame\nbroadcast per GPU — the paper's single-GPU concurrent kernels avoid both."
    );
    rows.write_csv("ablation_multigpu.csv").unwrap();
}
