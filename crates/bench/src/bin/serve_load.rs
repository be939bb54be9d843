//! Serving load sweep: open-loop Poisson traffic against the
//! [`fd_serve::DetectionServer`] at increasing offered rates, with
//! dynamic batching on and off, plus one closed-loop row per mode.
//!
//! Reports throughput, latency quantiles and batch occupancy per
//! (offered load, batching) cell, and asserts the tentpole win: at the
//! highest offered load, batching must improve throughput >= 1.5x and
//! must not worsen p99 latency.
//!
//! Usage: `serve_load [--requests N] [--frame-w W] [--frame-h H]`
//! (default 300 requests of 64x48). Writes
//! `results/BENCH_serve_load.json`.

use fd_bench::cascades::{trained_cascade_pair, TrainingBudget};
use fd_bench::loadgen::{run_closed_loop, submit_open_loop};
use fd_bench::out::{arg_usize, render_table, write_text};
use fd_detector::DetectorConfig;
use fd_haar::Cascade;
use fd_serve::{BatchPolicy, DetectionServer, Priority, ServeConfig, ServeStats};

const SEED: u64 = 42;
const SLO_US: f64 = 50_000.0;
// Single-request service on the simulated device is ~85 µs for the
// default 64x48 frame (~11k rps unbatched capacity), so the sweep's top
// loads sit well past unbatched saturation.
const OFFERED_RPS: [f64; 5] = [1000.0, 4000.0, 16000.0, 32000.0, 64000.0];

struct Cell {
    label: String,
    offered_rps: f64,
    batched: bool,
    served: u64,
    throughput_rps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    occupancy: f64,
    deadline_met: u64,
}

fn server(cascade: &Cascade, batched: bool, depth: usize) -> DetectionServer {
    let det = DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() };
    let unbatched = BatchPolicy { max_batch_size: 1, ..BatchPolicy::default() };
    let cfg = ServeConfig {
        queue_depth_per_class: depth,
        batch: if batched { BatchPolicy::default() } else { unbatched },
        // The sweep measures raw capacity and queueing latency; shedding
        // would censor exactly the saturated tail we want to see. The
        // default retry/health layers are inert without injected faults.
        shed_late: false,
        ..ServeConfig::default()
    };
    DetectionServer::new(cascade, det, cfg).expect("detector construction")
}

fn cell(label: &str, offered_rps: f64, batched: bool, stats: &ServeStats) -> Cell {
    Cell {
        label: label.to_string(),
        offered_rps,
        batched,
        served: stats.served,
        throughput_rps: stats.throughput_rps(),
        p50_us: stats.latency.p50_us(),
        p95_us: stats.latency.p95_us(),
        p99_us: stats.latency.p99_us(),
        occupancy: stats.mean_batch_occupancy(),
        deadline_met: stats.deadline_met,
    }
}

fn main() {
    let requests = arg_usize("--requests", 300);
    let frame_w = arg_usize("--frame-w", 64);
    let frame_h = arg_usize("--frame-h", 48);
    let pair = trained_cascade_pair(&TrainingBudget::tiny());

    let mut cells = Vec::new();
    for &rps in &OFFERED_RPS {
        for batched in [false, true] {
            let mut s = server(&pair.ours, batched, requests);
            submit_open_loop(
                &mut s, SEED, requests, rps, frame_w, frame_h, Priority::Standard, SLO_US,
            );
            s.run();
            assert_eq!(s.stats().served, requests as u64, "open loop serves everything");
            cells.push(cell("open", rps, batched, s.stats()));
        }
    }
    for batched in [false, true] {
        let mut s = server(&pair.ours, batched, requests);
        let served = run_closed_loop(
            &mut s, SEED, 8, requests, 100.0, frame_w, frame_h, Priority::Standard, SLO_US,
        );
        assert_eq!(served, requests, "closed loop serves everything");
        cells.push(cell("closed(8)", 0.0, batched, s.stats()));
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.label.clone(),
                if c.offered_rps > 0.0 { format!("{:.0}", c.offered_rps) } else { "-".into() },
                if c.batched { "on" } else { "off" }.into(),
                c.served.to_string(),
                format!("{:.0}", c.throughput_rps),
                format!("{:.0}", c.p50_us),
                format!("{:.0}", c.p95_us),
                format!("{:.0}", c.p99_us),
                format!("{:.2}", c.occupancy),
                c.deadline_met.to_string(),
            ]
        })
        .collect();
    let table = render_table(
        &[
            "loop", "offered_rps", "batch", "served", "tput_rps", "p50_us", "p95_us",
            "p99_us", "occupancy", "slo_met",
        ],
        &rows,
    );
    println!("{table}");

    // The tentpole acceptance gate: at the highest offered load, dynamic
    // batching must buy >= 1.5x throughput without worsening p99.
    let top = OFFERED_RPS[OFFERED_RPS.len() - 1];
    let at = |batched: bool| {
        cells
            .iter()
            .find(|c| c.label == "open" && c.offered_rps == top && c.batched == batched)
            .expect("sweep covers the top load")
    };
    let (off, on) = (at(false), at(true));
    let speedup = on.throughput_rps / off.throughput_rps;
    println!(
        "saturation ({top:.0} rps offered): {:.0} -> {:.0} rps served ({speedup:.2}x), \
         p99 {:.0} -> {:.0} us",
        off.throughput_rps, on.throughput_rps, off.p99_us, on.p99_us
    );
    assert!(
        speedup >= 1.5,
        "batching must improve saturated throughput >= 1.5x, got {speedup:.2}x"
    );
    assert!(
        on.p99_us <= off.p99_us,
        "batching must not worsen saturated p99 ({:.0} vs {:.0} us)",
        on.p99_us,
        off.p99_us
    );

    let json_cells: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"loop\": \"{}\", \"offered_rps\": {:.1}, \"batched\": {}, \
                 \"served\": {}, \"throughput_rps\": {:.3}, \"p50_us\": {:.3}, \
                 \"p95_us\": {:.3}, \"p99_us\": {:.3}, \"occupancy\": {:.4}, \
                 \"slo_met\": {}}}",
                c.label,
                c.offered_rps,
                c.batched,
                c.served,
                c.throughput_rps,
                c.p50_us,
                c.p95_us,
                c.p99_us,
                c.occupancy,
                c.deadline_met
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"serve_load\",\n  \"requests\": {requests},\n  \
         \"frame\": [{frame_w}, {frame_h}],\n  \"slo_us\": {SLO_US},\n  \
         \"saturation_speedup\": {speedup:.4},\n  \"cells\": [\n{}\n  ]\n}}\n",
        json_cells.join(",\n")
    );
    let path = write_text("BENCH_serve_load.json", &json).expect("write results");
    println!("wrote {}", path.display());
}
