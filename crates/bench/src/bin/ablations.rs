//! Ablations of the paper's §III-C design choices, on the cascade
//! evaluation kernel (DESIGN.md `#extensions`):
//!
//! * **shared-memory tiling** (Eqs. 1-4) vs scattered global reads;
//! * **compressed constant-memory records** (2x16-bit packing) vs naive
//!   full-word records;
//! * **pyramid scale factor** sweep (work vs detection granularity).
//!
//! Usage: `ablations [--frames N]`.

use fd_bench::cascades::{trained_cascade_pair, TrainingBudget};
use fd_bench::out::{arg_usize, render_table, write_csv};
use fd_detector::kernels::CascadeKernel;
use fd_detector::{DetectorConfig, FaceDetector};
use fd_gpu::{DeviceSpec, ExecMode, Gpu};
use fd_haar::encode::encode_cascade;
use fd_imgproc::{GrayImage, IntegralImage, Pyramid};
use fd_video::movie_trailers;

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

fn main() {
    let frames = arg_usize("--frames", 2);
    let pair = trained_cascade_pair(&TrainingBudget::default());
    let info = &movie_trailers()[1];
    let trailer = info.generate(frames);

    // ---- Kernel-level ablations on one 1080p frame's level-0 cascade.
    let frame = trailer.render_frame(0);
    let filtered = fd_imgproc::filter::antialias_3tap(&frame);
    let integral_host = inclusive_integral(&filtered);
    let (w, h) = (frame.width(), frame.height());

    let mut kernel_rows = Vec::new();
    let mut run_variant = |name: &str, tile: bool, compressed: bool| {
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let integral = gpu.mem.upload(&integral_host);
        let depth = gpu.mem.alloc::<u32>(w * h);
        let score = gpu.mem.alloc::<f32>(w * h);
        let cp = gpu.const_upload(&encode_cascade(&fd_haar::encode::quantize_cascade(&pair.ours)));
        let mut k = CascadeKernel::new(&pair.ours, integral, w, h, depth, score, cp);
        if !tile {
            k = k.without_shared_tile();
        }
        if !compressed {
            k = k.with_uncompressed_records();
        }
        let cfg = k.config();
        gpu.launch_default(k, cfg).unwrap();
        let t = gpu.synchronize();
        let ev = &t.events[0];
        kernel_rows.push(vec![
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
    println!(
        "{}",
        render_table(
            &["variant", "sim ms", "DRAM read MB", "const broadcasts", "shared txns"],
            &kernel_rows
        )
    );
    println!(
        "slowdowns vs paper design: no-tile {:.2}x, uncompressed {:.2}x, neither {:.2}x\n",
        no_tile / base,
        no_comp / base,
        neither / base
    );
    write_csv(
        "ablation_kernel.csv",
        &["variant", "sim_ms", "dram_read_mb", "const_broadcasts", "shared_txns"],
        &kernel_rows,
    )
    .unwrap();

    // ---- Pyramid scale-factor sweep (full pipeline).
    let mut sweep_rows = Vec::new();
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
        sweep_rows.push(vec![
            format!("{factor}"),
            levels.to_string(),
            format!("{:.3}", ms / frames as f64),
            dets.to_string(),
        ]);
    }
    println!("pyramid scale-factor sweep ({frames} frames, 'ours', concurrent)\n");
    println!(
        "{}",
        render_table(&["factor", "levels", "mean ms/frame", "detections"], &sweep_rows)
    );
    write_csv(
        "ablation_pyramid.csv",
        &["factor", "levels", "mean_ms_per_frame", "detections"],
        &sweep_rows,
    )
    .unwrap();
}
