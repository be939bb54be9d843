//! Fault-tolerant serving bench: open-loop traffic against the
//! [`fd_serve::DetectionServer`] and its retry/health stack, under
//! seeded device fault plans.
//!
//! Four cells share one arrival pattern:
//!
//! * `plain`      — no fault plan (the baseline);
//! * `ft_zero`    — an *inert* seeded plan: must be byte-identical to
//!   `plain` (the zero-cost gate);
//! * `ft_chaos`   — transient launch faults tuned so ~2% of requests
//!   suffer one: goodput must stay >= 0.9 and the p99 of successful
//!   requests within 1.5x of `plain`;
//! * `ft_surge`   — 10x the chaos fault pressure, report-only: shows the
//!   isolation/bisection and breaker paths working in the artifact.
//!
//! Usage: `serve_faults [--requests N]` (default 300 requests of 64x48).
//! Writes `results/BENCH_serve_faults.json`.

use fd_bench::cascades::{trained_cascade_pair, TrainingBudget};
use fd_bench::loadgen::{completion_fingerprint, pattern_frame, submit_open_loop};
use fd_bench::out::{arg_usize, render_table, write_text};
use fd_detector::{DetectorConfig, FaceDetector, RecoveryPolicy};
use fd_gpu::FaultPlan;
use fd_haar::Cascade;
use fd_serve::{DetectionServer, Priority, ServeConfig, ServeStats};

const SEED: u64 = 42;
const FAULT_SEED: u64 = 7;
const SLO_US: f64 = 50_000.0;
const RATE_RPS: f64 = 2000.0;
/// Target fraction of *requests* that suffer a transient launch fault.
const REQUEST_FAULT_RATE: f64 = 0.02;

struct Cell {
    label: String,
    stats: ServeStats,
    fingerprint: u64,
}

/// Serving retry policy: the stream-oriented default backoff (2 ms, sized
/// for video frame periods) would dominate request latency here, so the
/// serving bench backs off in the 250 µs range — injected transients
/// clear by the next attempt, and deadline-aware retries should not burn
/// SLO budget sleeping.
fn serve_retry() -> RecoveryPolicy {
    RecoveryPolicy { backoff_base_ms: 0.25, ..Default::default() }
}

fn server(cascade: &Cascade, plan: Option<FaultPlan>) -> DetectionServer {
    let det = DetectorConfig {
        min_neighbors: 1,
        fault_plan: plan,
        ..DetectorConfig::default()
    };
    let cfg = ServeConfig {
        queue_depth_per_class: 4096,
        retry: serve_retry(),
        shed_late: false,
        ..ServeConfig::default()
    };
    DetectionServer::new(cascade, det, cfg).expect("detector construction")
}

/// Launch attempts one request costs on the device, measured against an
/// inert plan — calibrates the per-launch rate below.
fn launches_per_request(cascade: &Cascade) -> u64 {
    let det = DetectorConfig {
        min_neighbors: 1,
        fault_plan: Some(FaultPlan::seeded(0)),
        ..DetectorConfig::default()
    };
    let mut d = FaceDetector::new(cascade, det);
    d.detect(&pattern_frame(64, 48, 0)).expect("calibration detect");
    d.fault_stats().launch_attempts
}

fn run_cell(label: &str, cascade: &Cascade, plan: Option<FaultPlan>, requests: usize) -> Cell {
    let mut s = server(cascade, plan);
    submit_open_loop(&mut s, SEED, requests, RATE_RPS, 64, 48, Priority::Standard, SLO_US);
    s.run();
    let fingerprint = completion_fingerprint(s.completed());
    Cell { label: label.to_string(), stats: s.stats().clone(), fingerprint }
}

fn main() {
    let requests = arg_usize("--requests", 300);
    let pair = trained_cascade_pair(&TrainingBudget::tiny());
    let cascade = &pair.ours;

    // Fault plans draw per *launch attempt*; one request costs many
    // launches. Calibrate so REQUEST_FAULT_RATE of requests fault:
    // 1 - (1 - r)^L = R  =>  r = 1 - (1 - R)^(1/L).
    let launches = launches_per_request(cascade);
    let per_launch = 1.0 - (1.0 - REQUEST_FAULT_RATE).powf(1.0 / launches as f64);
    let chaos = FaultPlan::seeded(FAULT_SEED).with_transient_launch_failures(per_launch);
    let surge = FaultPlan::seeded(FAULT_SEED)
        .with_transient_launch_failures(per_launch * 10.0)
        .with_launch_timeouts(per_launch * 2.0);
    println!(
        "calibration: {launches} launches/request -> per-launch transient rate {per_launch:.6}"
    );

    let cells = [
        run_cell("plain", cascade, None, requests),
        run_cell("ft_zero", cascade, Some(FaultPlan::seeded(FAULT_SEED)), requests),
        run_cell("ft_chaos", cascade, Some(chaos), requests),
        run_cell("ft_surge", cascade, Some(surge), requests),
    ];

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let st = &c.stats;
            vec![
                c.label.clone(),
                st.served.to_string(),
                st.degraded_completions.to_string(),
                st.failed.to_string(),
                st.retries_issued.to_string(),
                st.poisoned_requests.to_string(),
                st.batches_bisected.to_string(),
                format!("{:.4}", st.goodput()),
                format!("{:.0}", st.latency.p50_us()),
                format!("{:.0}", st.latency.p99_us()),
            ]
        })
        .collect();
    let table = render_table(
        &[
            "cell", "served", "degraded", "failed", "retries", "poisoned", "bisects",
            "goodput", "p50_us", "p99_us",
        ],
        &rows,
    );
    println!("{table}");

    let by = |label: &str| cells.iter().find(|c| c.label == label).expect("cell exists");
    let (plain, ft_zero, ft_chaos) = (by("plain"), by("ft_zero"), by("ft_chaos"));

    // Gate 1: the fault-tolerance stack is free when nothing faults.
    let zero_fault_identical = ft_zero.fingerprint == plain.fingerprint;
    assert!(zero_fault_identical, "an inert plan must be byte-identical to no plan");

    // Gate 2: under ~2% request-level transients, goodput holds.
    let goodput = ft_chaos.stats.goodput();
    assert!(
        ft_chaos.stats.retries_issued > 0,
        "the chaos plan must actually exercise the retry path"
    );
    assert!(goodput >= 0.9, "chaos goodput must stay >= 0.9, got {goodput:.4}");

    // Gate 3: recovery does not wreck the latency of everyone else —
    // p99 of successful completions within 1.5x of the fault-free run.
    let p99_ratio = ft_chaos.stats.latency.p99_us() / plain.stats.latency.p99_us();
    println!(
        "p99 {:.0} -> {:.0} us ({p99_ratio:.2}x), goodput {goodput:.4}",
        plain.stats.latency.p99_us(),
        ft_chaos.stats.latency.p99_us(),
    );
    assert!(
        p99_ratio <= 1.5,
        "successful-request p99 must stay within 1.5x of fault-free, got {p99_ratio:.2}x"
    );

    let json_cells: Vec<String> = cells
        .iter()
        .map(|c| {
            let st = &c.stats;
            format!(
                "    {{\"cell\": \"{}\", \"served\": {}, \"degraded\": {}, \"failed\": {}, \
                 \"expired\": {}, \"retries\": {}, \"poisoned\": {}, \"bisects\": {}, \
                 \"breaker_trips\": {}, \"goodput\": {:.5}, \"p50_us\": {:.3}, \
                 \"p99_us\": {:.3}}}",
                c.label,
                st.served,
                st.degraded_completions,
                st.failed,
                st.expired,
                st.retries_issued,
                st.poisoned_requests,
                st.batches_bisected,
                st.breaker_trips,
                st.goodput(),
                st.latency.p50_us(),
                st.latency.p99_us(),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"serve_faults\",\n  \"requests\": {requests},\n  \
         \"rate_rps\": {RATE_RPS},\n  \"slo_us\": {SLO_US},\n  \
         \"request_fault_rate\": {REQUEST_FAULT_RATE},\n  \
         \"launches_per_request\": {launches},\n  \
         \"per_launch_rate\": {per_launch:.8},\n  \
         \"zero_fault_identical\": {zero_fault_identical},\n  \
         \"chaos_goodput\": {goodput:.5},\n  \"p99_ratio\": {p99_ratio:.4},\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        json_cells.join(",\n")
    );
    let path = write_text("BENCH_serve_faults.json", &json).expect("write results");
    println!("wrote {}", path.display());
}
