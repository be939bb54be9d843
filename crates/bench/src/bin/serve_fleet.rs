//! Fleet serving bench: open-loop traffic against the
//! [`fd_serve::FleetServer`] front door over N simulated devices.
//!
//! Three experiments share the seeded arrival pattern:
//!
//! * **scaling** — the same saturating burst against fleets of 1, 2, 4
//!   and 8 devices: geometry-affine routing plus work stealing must buy
//!   near-linear served throughput (gate: >= 3x at 4 devices vs 1);
//! * **kill-one chaos** — a 4-device fleet under moderate load loses
//!   device 0 a quarter of the way through the (no-kill) baseline run:
//!   queued and future work must migrate to the survivors, goodput must
//!   hold at >= (N-1)/N - 0.05 and the p99 of surviving requests must
//!   stay within 1.5x of the baseline;
//! * **fleet_of_1** — the identical traffic through a single
//!   `DetectionServer` and a fleet of one (inert seeded fault plan
//!   attached): byte-identical completion logs (the zero-cost gate).
//!
//! Usage: `serve_fleet [--requests N]` (default 400 requests of 64x48).
//! Writes `results/BENCH_serve_fleet.json`.

use fd_bench::cascades::{trained_cascade_pair, TrainingBudget};
use fd_bench::loadgen::{completion_fingerprint, submit_open_loop, submit_open_loop_fleet};
use fd_bench::out::{arg_usize, render_table, write_text};
use fd_detector::DetectorConfig;
use fd_gpu::FaultPlan;
use fd_haar::Cascade;
use fd_serve::{DetectionServer, FleetConfig, FleetServer, Priority, ServeConfig, ServeStats};

const SEED: u64 = 42;
const FAULT_SEED: u64 = 7;
const SLO_US: f64 = 50_000.0;
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

struct Cell {
    label: String,
    devices: usize,
    stats: ServeStats,
    migrations: u64,
    steals: u64,
    per_device_served: Vec<u64>,
}

fn det_config(plan: Option<FaultPlan>) -> DetectorConfig {
    DetectorConfig { min_neighbors: 1, fault_plan: plan, ..DetectorConfig::default() }
}

/// Deep queues and no shedding for the scaling burst: the cell measures
/// capacity, so censoring the saturated tail would flatter the numbers.
fn fleet_for_scaling(cascade: &Cascade, devices: usize, requests: usize) -> FleetServer {
    let serve = ServeConfig {
        queue_depth_per_class: requests,
        shed_late: false,
        ..ServeConfig::default()
    };
    FleetServer::new(
        cascade,
        det_config(None),
        devices,
        FleetConfig { serve, ..FleetConfig::default() },
    )
    .expect("fleet construction")
}

/// The chaos cells keep the serving defaults (shedding on): a request
/// the failover cannot place in time counts against goodput.
fn fleet_for_chaos(cascade: &Cascade, requests: usize) -> FleetServer {
    let serve = ServeConfig { queue_depth_per_class: requests, ..ServeConfig::default() };
    FleetServer::new(
        cascade,
        det_config(None),
        CHAOS_DEVICES,
        FleetConfig { serve, ..FleetConfig::default() },
    )
    .expect("fleet construction")
}

fn cell(label: &str, f: &FleetServer) -> Cell {
    Cell {
        label: label.to_string(),
        devices: f.devices(),
        stats: f.stats(),
        migrations: f.router_stats().migrations,
        steals: f.router_stats().steals,
        per_device_served: (0..f.devices()).map(|d| f.device_stats(d).served).collect(),
    }
}

fn main() {
    let requests = arg_usize("--requests", 400);
    let pair = trained_cascade_pair(&TrainingBudget::tiny());
    let cascade = &pair.ours;
    let mut cells = Vec::new();

    // -- Scaling: one saturating burst, fleets of 1/2/4/8 devices. --
    for &devices in &SCALE_DEVICES {
        let mut f = fleet_for_scaling(cascade, devices, requests);
        submit_open_loop_fleet(
            &mut f, SEED, requests, SCALE_RATE_RPS, 64, 48, Priority::Standard, SLO_US,
        );
        f.run();
        assert_eq!(f.stats().served, requests as u64, "saturated burst serves everything");
        cells.push(cell("scale", &f));
    }

    // -- Chaos: 4 devices, no-kill baseline then kill-one at 25%. --
    let mut baseline = fleet_for_chaos(cascade, requests);
    submit_open_loop_fleet(
        &mut baseline, SEED, requests, CHAOS_RATE_RPS, 64, 48, Priority::Standard, SLO_US,
    );
    baseline.run();
    let kill_at_us = baseline.stats().makespan_us * KILL_FRACTION;
    cells.push(cell("chaos_baseline", &baseline));

    let mut killed = fleet_for_chaos(cascade, requests);
    submit_open_loop_fleet(
        &mut killed, SEED, requests, CHAOS_RATE_RPS, 64, 48, Priority::Standard, SLO_US,
    );
    killed.schedule_kill(0, kill_at_us);
    killed.run();
    cells.push(cell("chaos_kill1", &killed));

    // -- Fleet-of-1 identity: single server vs fleet front door. --
    let serve_cfg = ServeConfig { queue_depth_per_class: requests, ..ServeConfig::default() };
    let mut single =
        DetectionServer::new(cascade, det_config(None), serve_cfg.clone()).expect("server");
    submit_open_loop(
        &mut single, SEED, requests, CHAOS_RATE_RPS, 64, 48, Priority::Standard, SLO_US,
    );
    single.run();
    let mut one = FleetServer::new(
        cascade,
        det_config(Some(FaultPlan::seeded(FAULT_SEED))),
        1,
        FleetConfig { serve: serve_cfg, ..FleetConfig::default() },
    )
    .expect("fleet construction");
    submit_open_loop_fleet(
        &mut one, SEED, requests, CHAOS_RATE_RPS, 64, 48, Priority::Standard, SLO_US,
    );
    one.run();
    let zero_fault_identical =
        completion_fingerprint(single.completed()) == completion_fingerprint(one.completed());
    cells.push(cell("fleet_of_1", &one));

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let st = &c.stats;
            vec![
                c.label.clone(),
                c.devices.to_string(),
                st.served.to_string(),
                st.evicted.to_string(),
                c.migrations.to_string(),
                c.steals.to_string(),
                format!("{:.4}", st.goodput()),
                format!("{:.0}", st.throughput_rps()),
                format!("{:.0}", st.latency.p50_us()),
                format!("{:.0}", st.latency.p99_us()),
                format!("{:?}", c.per_device_served),
            ]
        })
        .collect();
    let table = render_table(
        &[
            "cell", "devices", "served", "evicted", "migrations", "steals", "goodput",
            "tput_rps", "p50_us", "p99_us", "served/device",
        ],
        &rows,
    );
    println!("{table}");

    let by = |label: &str, devices: usize| {
        cells
            .iter()
            .find(|c| c.label == label && c.devices == devices)
            .expect("cell exists")
    };

    // Gate 1: near-linear scaling — 4 healthy devices must serve the
    // saturating burst at >= 3x the single-device throughput.
    let tput = |c: &Cell| c.stats.throughput_rps();
    let scaling_4x = tput(by("scale", 4)) / tput(by("scale", 1));
    let scaling_8x = tput(by("scale", 8)) / tput(by("scale", 1));
    println!(
        "scaling: {:.0} rps x1, {:.0} rps x4 ({scaling_4x:.2}x), {:.0} rps x8 ({scaling_8x:.2}x)",
        tput(by("scale", 1)),
        tput(by("scale", 4)),
        tput(by("scale", 8)),
    );
    assert!(
        scaling_4x >= 3.0,
        "4 devices must serve >= 3x the single-device throughput, got {scaling_4x:.2}x"
    );

    // Gate 2: losing 1 of 4 devices costs at most that device's share
    // (plus a small failover allowance).
    let chaos = by("chaos_kill1", CHAOS_DEVICES);
    let goodput = chaos.stats.goodput();
    let goodput_floor = (CHAOS_DEVICES as f64 - 1.0) / CHAOS_DEVICES as f64 - 0.05;
    assert!(
        chaos.migrations > 0,
        "the kill must actually migrate work off the dead device"
    );
    assert!(
        goodput >= goodput_floor,
        "kill-one goodput must hold >= {goodput_floor:.2}, got {goodput:.4}"
    );

    // Gate 3: the survivors' latency holds — p99 of successful requests
    // within 1.5x of the no-kill baseline.
    let base = by("chaos_baseline", CHAOS_DEVICES);
    let p99_ratio = chaos.stats.latency.p99_us() / base.stats.latency.p99_us();
    println!(
        "kill-one: goodput {goodput:.4} (floor {goodput_floor:.2}), p99 {:.0} -> {:.0} us \
         ({p99_ratio:.2}x), {} migrated, {} stolen",
        base.stats.latency.p99_us(),
        chaos.stats.latency.p99_us(),
        chaos.migrations,
        chaos.steals,
    );
    assert!(
        p99_ratio <= 1.5,
        "surviving-request p99 must stay within 1.5x of the baseline, got {p99_ratio:.2}x"
    );

    // Gate 4: the fleet front door is free for a fleet of one.
    assert!(
        zero_fault_identical,
        "fleet-of-1 with an inert plan must be byte-identical to the single server"
    );

    let json_cells: Vec<String> = cells
        .iter()
        .map(|c| {
            let st = &c.stats;
            let per_device: Vec<String> =
                c.per_device_served.iter().map(u64::to_string).collect();
            format!(
                "    {{\"cell\": \"{}\", \"devices\": {}, \"served\": {}, \"evicted\": {}, \
                 \"migrations\": {}, \"steals\": {}, \"goodput\": {:.5}, \
                 \"throughput_rps\": {:.3}, \"p50_us\": {:.3}, \"p99_us\": {:.3}, \
                 \"served_per_device\": [{}]}}",
                c.label,
                c.devices,
                st.served,
                st.evicted,
                c.migrations,
                c.steals,
                st.goodput(),
                st.throughput_rps(),
                st.latency.p50_us(),
                st.latency.p99_us(),
                per_device.join(", "),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"serve_fleet\",\n  \"requests\": {requests},\n  \
         \"slo_us\": {SLO_US},\n  \"scale_rate_rps\": {SCALE_RATE_RPS},\n  \
         \"chaos_rate_rps\": {CHAOS_RATE_RPS},\n  \"kill_at_us\": {kill_at_us:.3},\n  \
         \"scaling_4x\": {scaling_4x:.4},\n  \"scaling_8x\": {scaling_8x:.4},\n  \
         \"kill_one_goodput\": {goodput:.5},\n  \"kill_one_p99_ratio\": {p99_ratio:.4},\n  \
         \"zero_fault_identical\": {zero_fault_identical},\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        json_cells.join(",\n")
    );
    let path = write_text("BENCH_serve_fleet.json", &json).expect("write results");
    println!("wrote {}", path.display());
}
