//! Mixed-backend serving bench: one fleet, two detector engines, the
//! backend as a per-request class.
//!
//! Three experiments:
//!
//! * **haar_only** — the Haar-classed subset of the mixed arrival
//!   pattern against a fleet of 2 Haar lanes: the baseline the mixed
//!   fleet's Haar tier is held to;
//! * **mixed** — the full pattern (50% CNN-classed per
//!   [`fd_bench::loadgen::backend_sequence`]) against a 4-lane fleet of
//!   2 Haar + 2 CNN devices (`Vec<Box<dyn Detector>>`). Backend is a
//!   hard routing bound, so the gates check isolation both ways: the
//!   Haar tier's throughput must stay >= 0.9x the haar_only baseline
//!   (CNN traffic cannot poach Haar lanes), and the CNN tier's p99 must
//!   stay within its budget (the slower engine still meets its own
//!   class's latency bar);
//! * **fleet_of_1** — identical Haar traffic through the pre-trait
//!   entry points (`DetectionServer::new` / `FleetServer::new`): the
//!   completion logs must be byte-identical, proving the `Detector`
//!   trait and the backend class added zero cost to the existing path.
//!
//! Usage: `serve_mixed [--requests N]` (default 240 requests of 64x48).
//! Writes `results/BENCH_serve_mixed.json`.

use fd_bench::cascades::{trained_cascade_pair, TrainingBudget};
use fd_bench::loadgen::{
    backend_sequence, completion_fingerprint, exponential_arrivals_us, pattern_frame,
    submit_open_loop, submit_open_loop_fleet, submit_open_loop_fleet_mixed, Lcg,
};
use fd_bench::out::{arg_usize, render_table, write_text};
use fd_cnn::{CnnDetector, CnnModel};
use fd_detector::{Backend, Detector, DetectorConfig, FaceDetector};
use fd_haar::Cascade;
use fd_serve::{
    CompletedRequest, DetectionServer, FleetConfig, FleetServer, Priority, RequestOutcome,
    ServeConfig, ServeStats,
};

const SEED: u64 = 42;
const MODEL_SEED: u64 = 0;
const SLO_US: f64 = 200_000.0;
/// Comfortably inside both tiers' capacity: the gates measure routing
/// isolation, not saturation behavior.
const RATE_RPS: f64 = 4_000.0;
const CNN_FRACTION: f64 = 0.5;
/// Virtual-µs budget for the CNN tier's p99. The CNN engine costs
/// ~2.2x the Haar engine per frame (see BENCH_cnn_eval.json), so its
/// class gets a looser latency bar than the Haar tier's ~2.1 ms — but
/// one 20x tighter than the SLO: the slow engine still has a real bar.
const CNN_P99_BUDGET_US: f64 = 10_000.0;
const MIN_HAAR_TPUT_RATIO: f64 = 0.9;

fn det_config() -> DetectorConfig {
    DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() }
}

fn serve_config(requests: usize) -> ServeConfig {
    ServeConfig { queue_depth_per_class: requests, ..ServeConfig::default() }
}

fn fleet_config(requests: usize) -> FleetConfig {
    FleetConfig { serve: serve_config(requests), ..FleetConfig::default() }
}

/// 2 Haar + 2 CNN lanes behind one front door.
fn mixed_fleet(cascade: &Cascade, requests: usize) -> FleetServer<Box<dyn Detector>> {
    let haar = FaceDetector::try_new_replicas(cascade, det_config(), 2).expect("haar lanes");
    let cnn = CnnDetector::try_new_replicas(&CnnModel::seeded(MODEL_SEED), det_config(), 2)
        .expect("cnn lanes");
    let mut lanes: Vec<Box<dyn Detector>> = Vec::new();
    lanes.extend(haar.into_iter().map(|d| Box::new(d) as Box<dyn Detector>));
    lanes.extend(cnn.into_iter().map(|d| Box::new(d) as Box<dyn Detector>));
    FleetServer::from_detectors(lanes, fleet_config(requests))
}

/// Served requests of one backend class per second of that tier's own
/// span (first arrival to last completion) — per-tier throughput that a
/// slower co-tenant tier cannot dilute by stretching the global
/// makespan.
fn tier_throughput(completed: &[CompletedRequest], backend: Backend) -> f64 {
    let mut served = 0u64;
    let mut first_arrival = f64::INFINITY;
    let mut last_completion = 0.0f64;
    for c in completed.iter().filter(|c| c.backend == backend) {
        if let RequestOutcome::Served { completed_us, .. }
        | RequestOutcome::Degraded { completed_us, .. } = &c.outcome
        {
            served += 1;
            first_arrival = first_arrival.min(c.arrival_us);
            last_completion = last_completion.max(*completed_us);
        }
    }
    let span_us = last_completion - first_arrival;
    if span_us <= 0.0 {
        return 0.0;
    }
    served as f64 / (span_us / 1e6)
}

fn stats_row(label: &str, stats: &ServeStats) -> Vec<String> {
    let per_backend: Vec<String> = Backend::ALL
        .iter()
        .map(|b| {
            format!(
                "{}:{}/{}",
                b.name(),
                stats.served_per_backend[b.index()],
                stats.submitted_per_backend[b.index()]
            )
        })
        .collect();
    vec![
        label.to_string(),
        stats.served.to_string(),
        format!("{:.4}", stats.goodput()),
        format!("{:.0}", stats.throughput_rps()),
        format!("{:.0}", stats.latency.p99_us()),
        format!("{:.0}", stats.backend_latency(Backend::Haar).p99_us()),
        format!("{:.0}", stats.backend_latency(Backend::Cnn).p99_us()),
        per_backend.join(" "),
    ]
}

fn main() {
    let requests = arg_usize("--requests", 240);
    let pair = trained_cascade_pair(&TrainingBudget::tiny());
    let cascade = &pair.ours;
    let classes = backend_sequence(SEED, requests, CNN_FRACTION);
    let n_haar = classes.iter().filter(|b| **b == Backend::Haar).count();
    let n_cnn = requests - n_haar;

    // -- haar_only: the Haar-classed subset against 2 Haar lanes. --
    // Reconstructs the mixed generator's streams and drops CNN-classed
    // requests, so the baseline sees the very arrivals and frames the
    // mixed fleet's Haar tier sees.
    let mut baseline = FleetServer::new(cascade, det_config(), 2, fleet_config(requests))
        .expect("haar fleet");
    let mut frame_rng = Lcg::new(SEED ^ 0xF0F0);
    for (arrival, class) in exponential_arrivals_us(SEED, requests, RATE_RPS)
        .into_iter()
        .zip(&classes)
    {
        let frame = pattern_frame(64, 48, frame_rng.next_u64());
        if *class == Backend::Haar {
            baseline
                .submit(frame, Priority::Standard, arrival, SLO_US)
                .expect("baseline submission");
        }
    }
    baseline.run();
    let baseline_stats = baseline.stats();
    assert_eq!(baseline_stats.served, n_haar as u64, "baseline serves its whole subset");
    let haar_only_tput = tier_throughput(baseline.completed(), Backend::Haar);

    // -- mixed: the full pattern against 2 Haar + 2 CNN lanes. --
    let mut mixed = mixed_fleet(cascade, requests);
    submit_open_loop_fleet_mixed(
        &mut mixed, SEED, requests, RATE_RPS, 64, 48, Priority::Standard, SLO_US, CNN_FRACTION,
    );
    mixed.run();
    let mixed_stats = mixed.stats();
    assert_eq!(mixed_stats.served, requests as u64, "in-capacity mix serves everything");
    assert_eq!(mixed_stats.served_per_backend, [n_haar as u64, n_cnn as u64]);
    for (c, device) in mixed.completed().iter().zip(mixed.completed_device()) {
        assert_eq!(
            mixed.device_backend(*device),
            c.backend,
            "backend is a hard bound: every request lands on a matching lane"
        );
    }
    let haar_mixed_tput = tier_throughput(mixed.completed(), Backend::Haar);
    let cnn_p99 = mixed_stats.backend_latency(Backend::Cnn).p99_us();
    let haar_p99 = mixed_stats.backend_latency(Backend::Haar).p99_us();

    // -- fleet_of_1: the trait refactor is free on the legacy path. --
    let mut single = DetectionServer::new(cascade, det_config(), serve_config(requests))
        .expect("single server");
    submit_open_loop(&mut single, SEED, requests, RATE_RPS, 64, 48, Priority::Standard, SLO_US);
    single.run();
    let mut one = FleetServer::new(cascade, det_config(), 1, fleet_config(requests))
        .expect("fleet of one");
    submit_open_loop_fleet(&mut one, SEED, requests, RATE_RPS, 64, 48, Priority::Standard, SLO_US);
    one.run();
    let identical =
        completion_fingerprint(single.completed()) == completion_fingerprint(one.completed());

    let rows = vec![
        stats_row("haar_only", &baseline_stats),
        stats_row("mixed", &mixed_stats),
        stats_row("fleet_of_1", &one.stats()),
    ];
    println!(
        "{}",
        render_table(
            &[
                "cell", "served", "goodput", "tput_rps", "p99_us", "haar_p99", "cnn_p99",
                "served/submitted",
            ],
            &rows,
        )
    );

    let tput_ratio = haar_mixed_tput / haar_only_tput;
    println!(
        "haar tier: {haar_only_tput:.0} rps alone, {haar_mixed_tput:.0} rps mixed \
         ({tput_ratio:.3}x); cnn tier p99 {cnn_p99:.0} us (budget {CNN_P99_BUDGET_US:.0}), \
         haar tier p99 {haar_p99:.0} us"
    );
    assert!(
        tput_ratio >= MIN_HAAR_TPUT_RATIO,
        "CNN co-tenancy must not poach the Haar tier: throughput ratio {tput_ratio:.3} \
         < {MIN_HAAR_TPUT_RATIO}"
    );
    assert!(
        cnn_p99 <= CNN_P99_BUDGET_US,
        "CNN tier p99 {cnn_p99:.0} us exceeds its {CNN_P99_BUDGET_US:.0} us budget"
    );
    assert!(
        identical,
        "fleet-of-1 Haar traffic must be byte-identical to the pre-trait DetectionServer"
    );

    let json = format!(
        "{{\n  \"bench\": \"serve_mixed\",\n  \"requests\": {requests},\n  \
         \"cnn_fraction\": {CNN_FRACTION},\n  \"rate_rps\": {RATE_RPS},\n  \
         \"slo_us\": {SLO_US},\n  \"haar_requests\": {n_haar},\n  \
         \"cnn_requests\": {n_cnn},\n  \"haar_only_tput_rps\": {haar_only_tput:.3},\n  \
         \"haar_mixed_tput_rps\": {haar_mixed_tput:.3},\n  \
         \"haar_tput_ratio\": {tput_ratio:.4},\n  \"haar_p99_us\": {haar_p99:.3},\n  \
         \"cnn_p99_us\": {cnn_p99:.3},\n  \"cnn_p99_budget_us\": {CNN_P99_BUDGET_US},\n  \
         \"mixed_goodput\": {:.5},\n  \"fleet_of_1_identical\": {identical}\n}}\n",
        mixed_stats.goodput(),
    );
    let path = write_text("BENCH_serve_mixed.json", &json).expect("write results");
    println!("wrote {}", path.display());
}
