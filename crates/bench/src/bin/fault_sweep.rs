//! Fault-injection sweep: stream throughput and frame accounting as the
//! injected fault rate rises. Each sweep point runs the full streaming
//! pipeline (decode -> detect -> recover) over a generated trailer with
//! a seeded transient-launch rate `r` on the device and a corrupt-frame
//! rate `0.4 r` in the decoder (the 5%/2% ratio of the acceptance
//! scenario), and reports ok/degraded/skipped counts, retries, backoff
//! and pipelined fps.
//!
//! Usage: `fault_sweep` (no options). Writes
//! `results/BENCH_fault_sweep.json`; virtual time, so a run reproduces
//! the committed file byte for byte.

use fd_bench::cascades::{trained_cascade_pair, TrainingBudget};
use fd_bench::out::{num, Report, Table};
use fd_bench::row;
use fd_detector::{DetectorConfig, VideoDetector};
use fd_gpu::FaultPlan;
use fd_video::{DecodeFaultPlan, HwDecoder, Trailer, TrailerSpec};

const SEED: u64 = 42;
const FRAMES: usize = 60;
const RATES: [f64; 5] = [0.0, 0.005, 0.01, 0.02, 0.05];

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

fn main() {
    let pair = trained_cascade_pair(&TrainingBudget::tiny());

    let mut sweep = Table::new(&[
        "transient_launch_rate",
        "corrupt_frame_rate",
        "pipelined_fps",
        "ok",
        "degraded",
        "skipped",
        "retries",
        "backoff_ms",
    ]);
    for rate in RATES {
        let device = if rate > 0.0 {
            Some(FaultPlan::seeded(SEED).with_transient_launch_failures(rate))
        } else {
            None
        };
        let decode = if rate > 0.0 {
            Some(DecodeFaultPlan::seeded(SEED).with_corrupt_frames(rate * 0.4))
        } else {
            None
        };

        let mut decoder = HwDecoder::new(trailer(FRAMES));
        decoder.set_fault_plan(decode);
        let mut vd = VideoDetector::new(
            &pair.ours,
            DetectorConfig { min_neighbors: 1, fault_plan: device, ..DetectorConfig::default() },
            24.0,
        )
        .expect("video detector");
        let reports = vd.run_stream(decoder);
        assert_eq!(reports.len(), FRAMES, "every decoded frame must be reported");
        let s = vd.stats();
        assert!(s.all_frames_accounted(), "ok + degraded + skipped must equal frames");

        sweep.push(row![
            rate,
            rate * 0.4,
            num(s.pipelined_fps(), 3),
            s.ok_frames,
            s.degraded_frames,
            s.skipped_frames,
            s.retries,
            num(s.total_backoff_ms, 2),
        ]);
    }

    println!("fault-injection sweep: {FRAMES} frames per point, seed {SEED}\n");
    print!("{}", sweep.render());
    let report = Report::new()
        .field("bench", "fault_sweep")
        .field("frames", FRAMES)
        .field("seed", SEED)
        .table("sweep", sweep);
    let path = report.write("BENCH_fault_sweep.json").expect("write results");
    println!("\nwrote {}", path.display());
}
