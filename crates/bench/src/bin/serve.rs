//! Serving benches: seeded traffic against [`fd_serve::FleetServer`] (a
//! fleet of one device is the single server), in four sections that share
//! the load generators of [`fd_bench::loadgen`]:
//!
//! * **load** — open-loop Poisson traffic at increasing offered rates,
//!   dynamic batching on and off, plus one closed-loop row per mode.
//!   Gate: at the highest offered load batching buys >= 1.5x throughput
//!   and does not worsen p99.
//! * **faults** — one arrival pattern under seeded device fault plans:
//!   none (`plain`), transient launch faults tuned so ~2 % of requests
//!   suffer one (`ft_chaos`), and 10x that pressure (`ft_surge`,
//!   report-only: shows isolation, bisection and the breaker working).
//!   Gates: chaos goodput >= 0.9 and successful-request p99 within 1.5x
//!   of `plain`.
//! * **fleet** — a saturating burst against fleets of 1, 2, 4 and 8
//!   devices, and a 4-device fleet that loses device 0 a quarter of the
//!   way through its no-kill baseline. Gates: >= 3x throughput at 4
//!   devices; kill-one goodput >= (N-1)/N - 0.05 with work migrated, and
//!   surviving p99 within 1.5x of the baseline.
//! * **mixed** — one fleet, two engines, the backend as a per-request
//!   class: 50 % CNN-classed traffic against 2 Haar + 2 CNN lanes, beside
//!   its Haar-classed subset alone on 2 Haar lanes. Gates: the Haar
//!   tier's throughput >= 0.9x its alone baseline (CNN traffic cannot
//!   poach Haar lanes) and the CNN tier's p99 within its 10 ms budget.
//!
//! Every request is a 64x48 frame; all virtual time, so a run reproduces
//! `results/BENCH_serve.json` byte for byte.
//!
//! Usage: `serve [SECTION...]` (default: all four). Writes
//! `results/BENCH_serve.json` with the sections run.

use fd_bench::cascades::{trained_cascade_pair, TrainingBudget};
use fd_bench::loadgen::{
    backend_sequence, open_loop_requests, pattern_frame, run_closed_loop, submit_open_loop, FRAME,
};
use fd_bench::out::{num, Report, Table};
use fd_bench::row;
use fd_cnn::{CnnDetector, CnnModel};
use fd_detector::{Backend, Detector, DetectorConfig, FaceDetector, RecoveryPolicy};
use fd_gpu::FaultPlan;
use fd_haar::Cascade;
use fd_serve::{
    BatchPolicy, CompletedRequest, FleetConfig, FleetServer, Priority, RequestOutcome, ServeConfig,
    ServeStats,
};

const SECTIONS: [&str; 4] = ["load", "faults", "fleet", "mixed"];
const SEED: u64 = 42;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args.iter().find(|a| !SECTIONS.contains(&a.as_str())) {
        eprintln!("serve: unknown section `{bad}`; sections: {}", SECTIONS.join(" "));
        std::process::exit(2);
    }
    let pair = trained_cascade_pair(&TrainingBudget::tiny());
    let mut report = Report::new().field("bench", "serve");
    for name in SECTIONS.into_iter().filter(|s| args.is_empty() || args.iter().any(|a| a == s)) {
        println!("== {name} ==");
        let section = match name {
            "load" => load(&pair.ours),
            "faults" => faults(&pair.ours),
            "fleet" => fleet(&pair.ours),
            _ => mixed(&pair.ours),
        };
        report = report.section(name, section);
    }
    let path = report.write("BENCH_serve.json").expect("write results");
    println!("wrote {}", path.display());
}

fn det_config(plan: Option<FaultPlan>) -> DetectorConfig {
    DetectorConfig { min_neighbors: 1, fault_plan: plan, ..DetectorConfig::default() }
}

fn haar_fleet(
    cascade: &Cascade,
    plan: Option<FaultPlan>,
    devices: usize,
    serve: ServeConfig,
) -> FleetServer {
    let config = FleetConfig { serve };
    FleetServer::new(cascade, det_config(plan), devices, config).expect("fleet construction")
}

// -- load --

const LOAD_REQUESTS: usize = 300;
const LOAD_SLO_US: f64 = 50_000.0;
/// Single-request service on the simulated device is ~85 µs per frame
/// (~11k rps unbatched capacity), so the sweep's top loads sit well past
/// unbatched saturation.
const OFFERED_RPS: [f64; 5] = [1000.0, 4000.0, 16000.0, 32000.0, 64000.0];

fn load(cascade: &Cascade) -> Report {
    let server = |batched: bool| {
        let unbatched = BatchPolicy { max_batch_size: 1 };
        let serve = ServeConfig {
            queue_depth_per_class: LOAD_REQUESTS,
            batch: if batched { BatchPolicy::default() } else { unbatched },
            // The sweep measures raw capacity and queueing latency;
            // shedding would censor exactly the saturated tail we want
            // to see.
            shed_late: false,
            ..ServeConfig::default()
        };
        haar_fleet(cascade, None, 1, serve)
    };
    let mut cells = Table::new(&[
        "loop",
        "offered_rps",
        "batched",
        "served",
        "throughput_rps",
        "p50_us",
        "p95_us",
        "p99_us",
        "occupancy",
        "slo_met",
    ]);
    let mut push = |label: &str, rps: f64, batched: bool, st: &ServeStats| {
        cells.push(row![
            label,
            num(rps, 1),
            batched,
            st.served,
            num(st.throughput_rps(), 3),
            num(st.latency.p50_us(), 3),
            num(st.latency.p95_us(), 3),
            num(st.latency.p99_us(), 3),
            num(st.mean_batch_occupancy(), 4),
            st.deadline_met,
        ]);
    };
    let top_rps = OFFERED_RPS[OFFERED_RPS.len() - 1];
    // Unbatched and batched stats at the top offered load.
    let mut top: Vec<ServeStats> = Vec::new();
    for &rps in &OFFERED_RPS {
        for batched in [false, true] {
            let mut f = server(batched);
            submit_open_loop(&mut f, SEED, LOAD_REQUESTS, rps, LOAD_SLO_US, 0.0);
            f.run();
            let st = f.stats();
            assert_eq!(st.served, LOAD_REQUESTS as u64, "open loop serves everything");
            push("open", rps, batched, &st);
            if rps == top_rps {
                top.push(st);
            }
        }
    }
    for batched in [false, true] {
        let mut f = server(batched);
        let served = run_closed_loop(&mut f, SEED, 8, LOAD_REQUESTS, 100.0, LOAD_SLO_US, 0.0);
        assert_eq!(served, [LOAD_REQUESTS, 0], "closed loop serves everything");
        push("closed(8)", 0.0, batched, &f.stats());
    }
    print!("{}", cells.render());

    let (off, on) = (&top[0], &top[1]);
    let speedup = on.throughput_rps() / off.throughput_rps();
    let (p99_off, p99_on) = (off.latency.p99_us(), on.latency.p99_us());
    println!(
        "saturation ({top_rps:.0} rps offered): {:.0} -> {:.0} rps served ({speedup:.2}x), \
         p99 {p99_off:.0} -> {p99_on:.0} us",
        off.throughput_rps(),
        on.throughput_rps(),
    );
    assert!(
        speedup >= 1.5,
        "batching must improve saturated throughput >= 1.5x, got {speedup:.2}x"
    );
    assert!(
        p99_on <= p99_off,
        "batching must not worsen saturated p99 ({p99_on:.0} vs {p99_off:.0} us)"
    );
    Report::new()
        .field("requests", LOAD_REQUESTS)
        .field("frame", vec![FRAME.0, FRAME.1])
        .field("slo_us", LOAD_SLO_US)
        .field("saturation_speedup", num(speedup, 4))
        .table("cells", cells)
}

// -- faults --

const FAULT_SEED: u64 = 7;
const FAULTS_REQUESTS: usize = 300;
const FAULTS_RATE_RPS: f64 = 2000.0;
const FAULTS_SLO_US: f64 = 50_000.0;
/// Target fraction of *requests* that suffer a transient launch fault.
const REQUEST_FAULT_RATE: f64 = 0.02;

/// Launch attempts one request costs on the device, measured against an
/// inert plan — calibrates the per-launch rate.
fn launches_per_request(cascade: &Cascade) -> u64 {
    let mut d = FaceDetector::new(cascade, det_config(Some(FaultPlan::seeded(0))));
    d.detect(&pattern_frame(FRAME.0, FRAME.1, 0)).expect("calibration detect");
    d.fault_stats().launch_attempts
}

fn faults(cascade: &Cascade) -> Report {
    // Fault plans draw per *launch attempt*; one request costs many
    // launches. Calibrate so REQUEST_FAULT_RATE of requests fault:
    // 1 - (1 - r)^L = R  =>  r = 1 - (1 - R)^(1/L).
    let launches = launches_per_request(cascade);
    let per_launch = 1.0 - (1.0 - REQUEST_FAULT_RATE).powf(1.0 / launches as f64);
    println!(
        "calibration: {launches} launches/request -> per-launch transient rate {per_launch:.6}"
    );
    let chaos = FaultPlan::seeded(FAULT_SEED).with_transient_launch_failures(per_launch);
    let surge = FaultPlan::seeded(FAULT_SEED)
        .with_transient_launch_failures(per_launch * 10.0)
        .with_launch_timeouts(per_launch * 2.0);

    let mut cells = Table::new(&[
        "cell",
        "served",
        "degraded",
        "failed",
        "expired",
        "retries",
        "poisoned",
        "bisects",
        "breaker_trips",
        "goodput",
        "p50_us",
        "p99_us",
    ]);
    let mut run = |label: &str, plan: Option<FaultPlan>| {
        let serve = ServeConfig {
            queue_depth_per_class: 4096,
            // The stream-oriented default backoff (2 ms, sized for video
            // frame periods) would dominate request latency here:
            // injected transients clear by the next attempt, and
            // deadline-aware retries should not burn SLO budget sleeping.
            retry: RecoveryPolicy { backoff_base_ms: 0.25 },
            shed_late: false,
            ..ServeConfig::default()
        };
        let mut f = haar_fleet(cascade, plan, 1, serve);
        submit_open_loop(&mut f, SEED, FAULTS_REQUESTS, FAULTS_RATE_RPS, FAULTS_SLO_US, 0.0);
        f.run();
        let st = f.stats();
        cells.push(row![
            label,
            st.served,
            st.degraded_completions,
            st.failed,
            st.expired,
            st.retries_issued,
            st.poisoned_requests,
            st.batches_bisected,
            st.breaker_trips,
            num(st.goodput(), 5),
            num(st.latency.p50_us(), 3),
            num(st.latency.p99_us(), 3),
        ]);
        st
    };
    let plain = run("plain", None);
    let ft_chaos = run("ft_chaos", Some(chaos));
    run("ft_surge", Some(surge));
    print!("{}", cells.render());

    // Under ~2% request-level transients, goodput holds ...
    let goodput = ft_chaos.goodput();
    assert!(ft_chaos.retries_issued > 0, "the chaos plan must actually exercise the retry path");
    assert!(goodput >= 0.9, "chaos goodput must stay >= 0.9, got {goodput:.4}");
    // ... and recovery does not wreck the latency of everyone else.
    let p99_ratio = ft_chaos.latency.p99_us() / plain.latency.p99_us();
    println!(
        "p99 {:.0} -> {:.0} us ({p99_ratio:.2}x), goodput {goodput:.4}",
        plain.latency.p99_us(),
        ft_chaos.latency.p99_us(),
    );
    assert!(
        p99_ratio <= 1.5,
        "successful-request p99 must stay within 1.5x of fault-free, got {p99_ratio:.2}x"
    );
    Report::new()
        .field("requests", FAULTS_REQUESTS)
        .field("rate_rps", FAULTS_RATE_RPS)
        .field("slo_us", FAULTS_SLO_US)
        .field("request_fault_rate", REQUEST_FAULT_RATE)
        .field("launches_per_request", launches)
        .field("per_launch_rate", num(per_launch, 8))
        .field("chaos_goodput", num(goodput, 5))
        .field("p99_ratio", num(p99_ratio, 4))
        .table("cells", cells)
}

// -- fleet --

const FLEET_REQUESTS: usize = 400;
const FLEET_SLO_US: f64 = 50_000.0;
/// Scaling burst: far past single-device capacity (~12k rps unbatched),
/// so every fleet size runs fully saturated and throughput measures the
/// fleet, not the offered load.
const SCALE_RATE_RPS: f64 = 1_000_000.0;
/// Chaos load: comfortably inside 3 surviving devices' capacity, so a
/// clean failover keeps goodput at 1.0 and any loss is failover debt.
const CHAOS_RATE_RPS: f64 = 20_000.0;
const SCALE_DEVICES: [usize; 4] = [1, 2, 4, 8];
const CHAOS_DEVICES: usize = 4;
/// Where in the no-kill baseline's makespan the kill lands.
const KILL_FRACTION: f64 = 0.25;

fn fleet(cascade: &Cascade) -> Report {
    let mut cells = Table::new(&[
        "cell",
        "devices",
        "served",
        "evicted",
        "migrations",
        "steals",
        "goodput",
        "throughput_rps",
        "p50_us",
        "p99_us",
        "served_per_device",
    ]);
    let mut push = |label: &str, f: &FleetServer| {
        let st = f.stats();
        let per_device: Vec<u64> = (0..f.devices()).map(|d| f.device_stats(d).served).collect();
        cells.push(row![
            label,
            f.devices(),
            st.served,
            st.evicted,
            f.router_stats().migrations,
            f.router_stats().steals,
            num(st.goodput(), 5),
            num(st.throughput_rps(), 3),
            num(st.latency.p50_us(), 3),
            num(st.latency.p99_us(), 3),
            per_device,
        ]);
        st
    };

    // Deep queues and no shedding for the scaling burst: the cells
    // measure capacity, so censoring the saturated tail would flatter
    // the numbers.
    let mut tput = Vec::new();
    for &devices in &SCALE_DEVICES {
        let serve = ServeConfig {
            queue_depth_per_class: FLEET_REQUESTS,
            shed_late: false,
            ..ServeConfig::default()
        };
        let mut f = haar_fleet(cascade, None, devices, serve);
        submit_open_loop(&mut f, SEED, FLEET_REQUESTS, SCALE_RATE_RPS, FLEET_SLO_US, 0.0);
        f.run();
        let st = push("scale", &f);
        assert_eq!(st.served, FLEET_REQUESTS as u64, "saturated burst serves everything");
        tput.push(st.throughput_rps());
    }

    // The chaos cells keep the serving defaults (shedding on): a request
    // the failover cannot place in time counts against goodput.
    let chaos_fleet = || {
        let serve = ServeConfig { queue_depth_per_class: FLEET_REQUESTS, ..ServeConfig::default() };
        let mut f = haar_fleet(cascade, None, CHAOS_DEVICES, serve);
        submit_open_loop(&mut f, SEED, FLEET_REQUESTS, CHAOS_RATE_RPS, FLEET_SLO_US, 0.0);
        f
    };
    let mut baseline = chaos_fleet();
    baseline.run();
    let base = push("chaos_baseline", &baseline);
    let kill_at_us = base.makespan_us * KILL_FRACTION;
    let mut killed = chaos_fleet();
    killed.schedule_kill(0, kill_at_us);
    killed.run();
    let chaos = push("chaos_kill1", &killed);
    let migrations = killed.router_stats().migrations;
    print!("{}", cells.render());

    // Near-linear scaling: 4 healthy devices serve the saturating burst
    // at >= 3x the single-device throughput.
    let (scaling_4x, scaling_8x) = (tput[2] / tput[0], tput[3] / tput[0]);
    println!(
        "scaling: {:.0} rps x1, {:.0} rps x4 ({scaling_4x:.2}x), {:.0} rps x8 ({scaling_8x:.2}x)",
        tput[0], tput[2], tput[3],
    );
    assert!(
        scaling_4x >= 3.0,
        "4 devices must serve >= 3x the single-device throughput, got {scaling_4x:.2}x"
    );
    // Losing 1 of 4 devices costs at most that device's share (plus a
    // small failover allowance), and the survivors' latency holds.
    let goodput = chaos.goodput();
    let goodput_floor = (CHAOS_DEVICES as f64 - 1.0) / CHAOS_DEVICES as f64 - 0.05;
    let p99_ratio = chaos.latency.p99_us() / base.latency.p99_us();
    println!(
        "kill-one: goodput {goodput:.4} (floor {goodput_floor:.2}), p99 {:.0} -> {:.0} us \
         ({p99_ratio:.2}x), {migrations} migrated",
        base.latency.p99_us(),
        chaos.latency.p99_us(),
    );
    assert!(migrations > 0, "the kill must actually migrate work off the dead device");
    assert!(
        goodput >= goodput_floor,
        "kill-one goodput must hold >= {goodput_floor:.2}, got {goodput:.4}"
    );
    assert!(
        p99_ratio <= 1.5,
        "surviving-request p99 must stay within 1.5x of the baseline, got {p99_ratio:.2}x"
    );
    Report::new()
        .field("requests", FLEET_REQUESTS)
        .field("slo_us", FLEET_SLO_US)
        .field("scale_rate_rps", SCALE_RATE_RPS)
        .field("chaos_rate_rps", CHAOS_RATE_RPS)
        .field("kill_at_us", num(kill_at_us, 3))
        .field("scaling_4x", num(scaling_4x, 4))
        .field("scaling_8x", num(scaling_8x, 4))
        .field("kill_one_goodput", num(goodput, 5))
        .field("kill_one_p99_ratio", num(p99_ratio, 4))
        .table("cells", cells)
}

// -- mixed --

const MODEL_SEED: u64 = 0;
const MIXED_REQUESTS: usize = 240;
const MIXED_SLO_US: f64 = 200_000.0;
/// Comfortably inside both tiers' capacity: the gates measure routing
/// isolation, not saturation behavior.
const MIXED_RATE_RPS: f64 = 4_000.0;
const CNN_FRACTION: f64 = 0.5;
/// Virtual-µs budget for the CNN tier's p99. The CNN engine costs ~2.2x
/// the Haar engine per frame (see BENCH_cnn_eval.json), so its class gets
/// a looser latency bar than the Haar tier's ~2.1 ms — but one 20x
/// tighter than the SLO: the slow engine still has a real bar.
const CNN_P99_BUDGET_US: f64 = 10_000.0;
const MIN_HAAR_TPUT_RATIO: f64 = 0.9;

/// Served requests of one backend class per second of that tier's own
/// span (first arrival to last completion) — per-tier throughput that a
/// slower co-tenant tier cannot dilute by stretching the global makespan.
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

fn mixed(cascade: &Cascade) -> Report {
    let serve = ServeConfig { queue_depth_per_class: MIXED_REQUESTS, ..ServeConfig::default() };
    let classes = backend_sequence(SEED, MIXED_REQUESTS, CNN_FRACTION);
    let n_haar = classes.iter().filter(|b| **b == Backend::Haar).count();
    let n_cnn = MIXED_REQUESTS - n_haar;
    let mut cells = Table::new(&[
        "cell",
        "served",
        "goodput",
        "throughput_rps",
        "p99_us",
        "haar_p99_us",
        "cnn_p99_us",
        "served_per_backend",
        "submitted_per_backend",
    ]);
    let mut push = |label: &str, st: &ServeStats| {
        cells.push(row![
            label,
            st.served,
            num(st.goodput(), 5),
            num(st.throughput_rps(), 3),
            num(st.latency.p99_us(), 3),
            num(st.backend_latency(Backend::Haar).p99_us(), 3),
            num(st.backend_latency(Backend::Cnn).p99_us(), 3),
            st.served_per_backend.to_vec(),
            st.submitted_per_backend.to_vec(),
        ]);
    };

    // haar_only: the Haar-classed subset of the mixed stream — the very
    // arrivals and frames the mixed fleet's Haar tier sees — against 2
    // Haar lanes.
    let mut baseline = haar_fleet(cascade, None, 2, serve.clone());
    let stream = open_loop_requests(SEED, MIXED_REQUESTS, MIXED_RATE_RPS, CNN_FRACTION);
    for (arrival, frame, _) in stream.filter(|r| r.2 == Backend::Haar) {
        baseline
            .submit(frame, Priority::Standard, arrival, MIXED_SLO_US)
            .expect("baseline submission");
    }
    baseline.run();
    let baseline_stats = baseline.stats();
    assert_eq!(baseline_stats.served, n_haar as u64, "baseline serves its whole subset");
    push("haar_only", &baseline_stats);
    let haar_only_tput = tier_throughput(baseline.completed(), Backend::Haar);

    // mixed: the full stream against 2 Haar + 2 CNN lanes.
    let haar = FaceDetector::try_new_replicas(cascade, det_config(None), 2).expect("haar lanes");
    let cnn = CnnDetector::try_new_replicas(&CnnModel::seeded(MODEL_SEED), det_config(None), 2)
        .expect("cnn lanes");
    let lanes: Vec<Box<dyn Detector>> = haar
        .into_iter()
        .map(|d| Box::new(d) as Box<dyn Detector>)
        .chain(cnn.into_iter().map(|d| Box::new(d) as Box<dyn Detector>))
        .collect();
    let mut mixed = FleetServer::from_detectors(lanes, FleetConfig { serve });
    submit_open_loop(&mut mixed, SEED, MIXED_REQUESTS, MIXED_RATE_RPS, MIXED_SLO_US, CNN_FRACTION);
    mixed.run();
    let mixed_stats = mixed.stats();
    assert_eq!(mixed_stats.served, MIXED_REQUESTS as u64, "in-capacity mix serves everything");
    assert_eq!(mixed_stats.served_per_backend, [n_haar as u64, n_cnn as u64]);
    for (c, device) in mixed.completed().iter().zip(mixed.completed_device()) {
        assert_eq!(
            mixed.device_backend(*device),
            c.backend,
            "backend is a hard bound: every request lands on a matching lane"
        );
    }
    push("mixed", &mixed_stats);
    print!("{}", cells.render());

    let haar_mixed_tput = tier_throughput(mixed.completed(), Backend::Haar);
    let cnn_p99 = mixed_stats.backend_latency(Backend::Cnn).p99_us();
    let haar_p99 = mixed_stats.backend_latency(Backend::Haar).p99_us();
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
    Report::new()
        .field("requests", MIXED_REQUESTS)
        .field("cnn_fraction", CNN_FRACTION)
        .field("rate_rps", MIXED_RATE_RPS)
        .field("slo_us", MIXED_SLO_US)
        .field("haar_requests", n_haar)
        .field("cnn_requests", n_cnn)
        .field("haar_only_tput_rps", num(haar_only_tput, 3))
        .field("haar_mixed_tput_rps", num(haar_mixed_tput, 3))
        .field("haar_tput_ratio", num(tput_ratio, 4))
        .field("haar_p99_us", num(haar_p99, 3))
        .field("cnn_p99_us", num(cnn_p99, 3))
        .field("cnn_p99_budget_us", CNN_P99_BUDGET_US)
        .field("mixed_goodput", num(mixed_stats.goodput(), 5))
        .table("cells", cells)
}
