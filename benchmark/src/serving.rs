//! The two serving workloads: `serve_small_sweep` (one server, four
//! fixed open-loop rates plus a burst) and `fleet_chaos_mixed` (a mixed
//! 2 Haar + 2 CNN fleet under a seeded fault plan, a kill and a drain).
//!
//! Both are open loops on the virtual calendar: every request is timed
//! from its scheduled `arrival_us`, so the generator is never late.

use std::collections::BTreeSet;
use std::time::Instant;

use fd_cnn::{CnnDetector, CnnModel};
use fd_detector::{Backend, Detector, DetectorConfig, FaceDetector};
use fd_gpu::{ExecMode, FaultPlan};
use fd_haar::Cascade;
use fd_serve::{
    CompletedRequest, DetectionServer, FleetConfig, FleetServer, RequestId, RequestOutcome,
    ServeConfig, ServeError, ServeStats,
};

use crate::gen::{requests, sub_seed, Mix, Request};
use crate::harness::{
    drive, eat_result, latency_metrics, load_cascade, peak_rss_mb, timed_setup, Check, Ctx, OpOut,
    Outcome, SetupTime,
};
use crate::stages::GpuLayers;
use crate::stats::{median, nearest_rank, sorted, Fnv};
use crate::trace::Recorder;

/// Latency limit on every request, arrival to completion.
const SLO_US: f64 = 5_000.0;
/// Share of failed ops a rate may have and still count as inside the SLO.
const MAX_FAIL_SHARE: f64 = 0.01;

const SWEEP_MIX: Mix = Mix {
    geometries: &[(64, 48, 0.6), (80, 60, 0.3), (96, 72, 0.1)],
    priorities: [0.2, 0.6, 0.2],
    cnn_share: 0.0,
};
/// Burst-phase throughput of `SWEEP_MIX` measured once on the commit
/// that introduced the benchmark (virtual requests per second, seed 1).
const SWEEP_BURST_CAPACITY_RPS: f64 = 23_000.0;
/// The four fixed offered rates: 10 / 30 / 60 / 90 % of that capacity.
/// They are constants, so a change in capacity shows as a change in
/// latency at a rate and never silently moves the rates.
const SWEEP_RATES_RPS: [f64; 4] = [2_300.0, 6_900.0, 13_800.0, 20_700.0];
/// Index of the 90 % phase, where the latency metrics are read.
const HOT_PHASE: usize = 3;
const SWEEP_ROUNDS: usize = 9;
/// Requests per round and phase: the four fixed rates, then the burst.
/// The 90 % phase gets the most, so its p99 has ~60 samples beyond it;
/// every other rate still collects the 1000 a p99 needs per cycle.
const SWEEP_REQUESTS: [usize; 5] = [150, 150, 150, 700, 200];

const FLEET_MIX: Mix =
    Mix { geometries: &[(64, 48, 1.0)], priorities: [0.2, 0.6, 0.2], cnn_share: 0.5 };
/// Fault-free throughput of the 2 Haar + 2 CNN fleet on `FLEET_MIX`,
/// measured once the same way (virtual requests per second).
const FLEET_CAPACITY_RPS: f64 = 100_000.0;
/// 60 % of it.
const FLEET_RATE_RPS: f64 = 60_000.0;
const FLEET_ROUNDS: usize = 12;
const FLEET_REQUESTS: usize = 1000;
/// Per-launch fault rates. A reference cycle issues ~45k launches in
/// ~1400 batches of ~8, so these make ~2 % of requests share a batch
/// with a transient launch failure and ~0.4 % with a launch timeout.
const FLEET_TRANSIENT_PER_LAUNCH: f64 = 6e-4;
const FLEET_TIMEOUT_PER_LAUNCH: f64 = 1.2e-4;
/// Lane 0 is the device that fails before it is killed: on top of the
/// rates above its launches time out at this rate, about every second
/// submission. A timeout is not retried and costs no backoff, so four
/// faults in a row trip the lane's breaker early in (nearly) every
/// round; until the kill relocates its calendar, its arrivals are
/// refused fail-fast. With the uniform rates alone no breaker ever
/// trips (it takes ~1e-7 per submission), and a raised transient rate
/// stalls the lane in 2 ms backoffs long before it trips.
const FLEET_FAILING_LANE_TIMEOUT_PER_LAUNCH: f64 = 4e-2;
/// Seed of the CNN backend's deterministic weights.
const CNN_MODEL_SEED: u64 = 0;

const STREAM_WARMUP: u64 = 20;
const STREAM_TRAFFIC: u64 = 21;
const STREAM_FAULTS: u64 = 22;
const STREAM_PROBE: u64 = 23;

/// Every n-th served request is re-detected directly, outside any server.
const DIRECT_CHECK_EVERY: usize = 97;
/// Every n-th round of the reference cycle also serves a burst with the
/// devices in `ExecMode::Serial`, for `virt_concurrency_speedup`.
const SERIAL_EVERY: usize = 3;
/// Requests in the fleet's burst probe (the sweep re-serves its burst phase).
const FLEET_PROBE_REQUESTS: usize = 256;

/// The detectors a served result is checked against.
struct Direct {
    haar: FaceDetector,
    cnn: Option<CnnDetector>,
    checked: usize,
    mismatches: usize,
}

impl Direct {
    fn new(cascade: &Cascade, cnn: Option<&CnnModel>) -> Self {
        let cfg = DetectorConfig::default();
        Self {
            haar: FaceDetector::try_new(cascade, cfg.clone()).expect("direct Haar detector"),
            cnn: cnn.map(|m| CnnDetector::try_new(m, cfg).expect("direct CNN detector")),
            checked: 0,
            mismatches: 0,
        }
    }

    /// A served request must equal a direct detect on the same frame.
    fn check(&mut self, req: &Request, served: &fd_detector::FrameResult) {
        let direct = match (req.backend, &mut self.cnn) {
            (Backend::Cnn, Some(cnn)) => cnn.detect(&req.frame),
            _ => {
                let direct = self.haar.detect(&req.frame);
                self.haar.reset_profiler();
                direct
            }
        };
        self.checked += 1;
        if !direct.is_ok_and(|d| d.raw == served.raw && d.detections == served.detections) {
            self.mismatches += 1;
        }
    }

    fn result_check(&self) -> Check {
        Check::new(
            "served_equals_direct",
            self.checked > 0 && self.mismatches == 0,
            format!(
                "{} served requests re-detected directly, {} differ",
                self.checked, self.mismatches
            ),
        )
    }
}

/// Terminal-outcome accounting of one run, or summed over the reference cycle.
#[derive(Default)]
struct Ledger {
    submitted: u64,
    /// Served or degraded.
    useful: u64,
    met_deadline: u64,
    /// Requests without exactly one terminal outcome.
    unaccounted: u64,
    /// Runs whose `ServeStats` counters did not sum to `submitted`.
    stats_mismatches: u64,
    /// Arrival-to-completion latency of the useful completions, µs.
    latencies_us: Vec<f64>,
}

impl Ledger {
    fn add(&mut self, run: &Ledger) {
        self.submitted += run.submitted;
        self.useful += run.useful;
        self.met_deadline += run.met_deadline;
        self.unaccounted += run.unaccounted;
        self.stats_mismatches += run.stats_mismatches;
        self.latencies_us.extend_from_slice(&run.latencies_us);
    }
}

/// Per-layer accumulation over the reference cycle of a traced run.
#[derive(Default)]
struct Layers {
    gpu: GpuLayers,
    stats: ServeStats,
    /// Σ makespan x lanes: the device time that was available.
    lane_us: f64,
    wait_us: Vec<f64>,
    service_us: Vec<f64>,
    steps: u64,
    host_in_steps_us: f64,
    has_profiler: bool,
    migrations: u64,
    failovers: u64,
    steals: u64,
    admission_rejected: u64,
    routed_per_device: Vec<u64>,
    opaque_launches: u64,
}

/// Fold a finished run's completions into the digest and tally them.
fn account(
    completed: &[CompletedRequest],
    traffic: &[Request],
    stats: &ServeStats,
    h: &mut Fnv,
    mut direct: Option<&mut Direct>,
) -> Ledger {
    let mut seen = BTreeSet::new();
    let mut run = Ledger { submitted: traffic.len() as u64, ..Ledger::default() };
    // One digest per request, folded in id order below: the outcome's
    // kind and, where there is one, the result. Completion order, lane
    // and timestamps stay out, because they move with the virtual clock.
    let mut per_request = Vec::with_capacity(completed.len());
    for c in completed {
        seen.insert(c.id.0);
        let mut h = Fnv::default();
        h.eat(match &c.outcome {
            RequestOutcome::Served { .. } => 1,
            RequestOutcome::Degraded { .. } => 2,
            RequestOutcome::ShedLate { .. } => 3,
            RequestOutcome::RejectedQueueFull => 4,
            RequestOutcome::RejectedBrownOut => 5,
            RequestOutcome::RejectedFailFast => 6,
            RequestOutcome::Failed { .. } => 7,
            RequestOutcome::Expired { .. } => 8,
            RequestOutcome::Evicted { .. } => 9,
        });
        if let RequestOutcome::Served { completed_us, result, .. }
        | RequestOutcome::Degraded { completed_us, result, .. } = &c.outcome
        {
            eat_result(&mut h, result);
            run.useful += 1;
            run.met_deadline += u64::from(c.met_deadline() == Some(true));
            run.latencies_us.push(completed_us - c.arrival_us);
            if let (Some(d), RequestOutcome::Served { .. }) = (direct.as_deref_mut(), &c.outcome) {
                if (c.id.0 as usize).is_multiple_of(DIRECT_CHECK_EVERY) {
                    d.check(&traffic[c.id.0 as usize], result);
                }
            }
        }
        per_request.push((c.id.0, h.0));
    }
    per_request.sort_unstable();
    for (id, digest) in per_request {
        h.eat(id);
        h.eat(digest);
    }
    // Ids are 0..n in submission order: each must appear exactly once.
    let n = run.submitted;
    run.unaccounted = n.abs_diff(seen.len() as u64) + n.abs_diff(completed.len() as u64);
    let counted = stats.served
        + stats.degraded_completions
        + stats.shed_late
        + stats.rejected_full
        + stats.rejected_brownout
        + stats.rejected_failfast
        + stats.failed
        + stats.expired
        + stats.evicted;
    run.stats_mismatches = u64::from(stats.submitted != n || counted != n);
    run
}

impl Layers {
    /// Fold one finished run. `lanes` is the number of devices that
    /// shared the makespan.
    fn add_run(
        &mut self,
        completed: &[CompletedRequest],
        devices: Option<&[usize]>,
        stats: &ServeStats,
        lanes: usize,
        latency_split: bool,
    ) {
        // A batch shares one submission: count its timeline once.
        let mut batches = BTreeSet::new();
        for (i, c) in completed.iter().enumerate() {
            if let RequestOutcome::Served { dispatched_us, completed_us, result, .. }
            | RequestOutcome::Degraded { dispatched_us, completed_us, result, .. } = &c.outcome
            {
                if batches.insert((devices.map_or(0, |d| d[i]), dispatched_us.to_bits())) {
                    self.gpu.add_timeline(&result.timeline);
                }
                if latency_split {
                    self.wait_us.push(dispatched_us - c.arrival_us);
                    self.service_us.push(completed_us - dispatched_us);
                }
            }
        }
        self.stats.merge(stats);
        self.lane_us += stats.makespan_us * lanes as f64;
    }

    fn emit(self, rec: &Recorder, step_span: &str, out: &mut Outcome) {
        let l = &mut out.per_layer;
        self.gpu.emit(self.host_in_steps_us, l);
        if !self.has_profiler {
            out.notes.push(
                "boxed fleet: per-kernel host time and injected-fault counts are not visible \
                 from outside, so gpu.*.host_us, gpu.kernel_body.host_share and \
                 gpu.faults.injected read 0 (see serve.recovery.* for the faults' effects)"
                    .into(),
            );
            l.insert("gpu.kernel_body.host_share".into(), 0.0);
            l.insert("gpu.overhead.host_us_per_launch".into(), 0.0);
        }
        l.insert("gpu.opaque_launches".into(), self.opaque_launches as f64);

        let s = &self.stats;
        let q = |v: &[f64], q: f64| if v.is_empty() { 0.0 } else { nearest_rank(&sorted(v), q) };
        l.insert("serve.queue.wait_us_p50".into(), q(&self.wait_us, 0.5));
        l.insert("serve.queue.wait_us_p99".into(), q(&self.wait_us, 0.99));
        l.insert("serve.device.service_us_p50".into(), q(&self.service_us, 0.5));
        l.insert("serve.device.service_us_p99".into(), q(&self.service_us, 0.99));
        l.insert("serve.batcher.occupancy".into(), s.mean_batch_occupancy());
        l.insert("serve.batcher.batches".into(), s.batches as f64);
        l.insert("serve.queue.max_depth".into(), s.max_queue_depth as f64);
        l.insert("serve.queue.rejected".into(), s.rejected_full as f64);
        l.insert("serve.queue.shed_late".into(), s.shed_late as f64);
        l.insert("serve.device.busy_share".into(), s.gpu_busy_us / self.lane_us.max(1e-9));
        let submits = rec.durations_us("serve.submit");
        l.insert(
            "serve.submit.host_us_per_req".into(),
            submits.iter().sum::<f64>() / submits.len().max(1) as f64,
        );
        let steps = rec.durations_us(step_span);
        l.insert(
            "serve.step.host_us_p50".into(),
            if steps.is_empty() { 0.0 } else { median(&steps) },
        );
        l.insert("serve.steps".into(), self.steps as f64);
        for b in Backend::ALL {
            let name = b.name();
            l.insert(format!("serve.{name}.latency_us_p99"), s.backend_latency(b).p99_us());
            l.insert(format!("serve.{name}.goodput"), s.backend_goodput(b));
        }
        l.insert("serve.recovery.retries".into(), s.retries_issued as f64);
        l.insert("serve.recovery.backoff_us".into(), s.retry_backoff_us);
        l.insert("serve.recovery.bisected".into(), s.batches_bisected as f64);
        l.insert("serve.recovery.poisoned".into(), s.poisoned_requests as f64);
        l.insert("serve.recovery.degraded".into(), s.degraded_completions as f64);
        l.insert("serve.recovery.expired".into(), s.expired as f64);
        l.insert("serve.recovery.failed".into(), s.failed as f64);
        l.insert("serve.health.breaker_trips".into(), s.breaker_trips as f64);
        l.insert("serve.health.brownout_ticks".into(), s.brownout_ticks as f64);
        l.insert(
            "serve.health.rejected".into(),
            (s.rejected_brownout + s.rejected_failfast) as f64,
        );
        l.insert("serve.router.migrations".into(), self.migrations as f64);
        l.insert("serve.router.failovers".into(), self.failovers as f64);
        l.insert("serve.router.steals".into(), self.steals as f64);
        l.insert("serve.router.admission_rejected".into(), self.admission_rejected as f64);
        let routed: u64 = self.routed_per_device.iter().sum();
        let imbalance = match self.routed_per_device.iter().max() {
            Some(&max) if routed > 0 => {
                max as f64 * self.routed_per_device.len() as f64 / routed as f64
            }
            _ => 0.0,
        };
        l.insert("serve.router.lane_imbalance".into(), imbalance);
        l.insert("serve.fleet.evicted".into(), s.evicted as f64);
        out.notes.push(
            "serve.queue.wait_us is dispatched - arrival: queueing and batch wait cannot be \
             told apart from outside"
                .into(),
        );
    }
}

/// Summed makespans of the same bursts served with the devices in both
/// execution modes.
#[derive(Default)]
struct BurstPair {
    serial_us: f64,
    concurrent_us: f64,
}

/// Counters of the layers that only a fault, a kill or a drain wakes up.
const CHAOS_COUNTERS: [&str; 15] = [
    "serve.recovery.retries",
    "serve.recovery.backoff_us",
    "serve.recovery.bisected",
    "serve.recovery.poisoned",
    "serve.recovery.degraded",
    "serve.recovery.expired",
    "serve.recovery.failed",
    "serve.health.breaker_trips",
    "serve.health.brownout_ticks",
    "serve.health.rejected",
    "serve.router.migrations",
    "serve.router.failovers",
    "serve.router.steals",
    "serve.router.admission_rejected",
    "serve.fleet.evicted",
];

/// The end-to-end block both serving workloads share. `latency` is the
/// ledger the latency metrics are read from, `all` the whole reference cycle.
#[allow(clippy::too_many_arguments)]
fn finish(
    ctx: &Ctx,
    setup: &SetupTime,
    all: &Ledger,
    latency: &Ledger,
    direct: &Direct,
    served_per_virt_s: f64,
    bursts: &BurstPair,
    driven: crate::harness::Driven,
) -> Outcome {
    let mut out = Outcome {
        attempted: all.submitted,
        failed: all.unaccounted,
        digest: driven.digest,
        ..Outcome::default()
    };
    out.record_setup(setup, ctx.trace);
    let ms: Vec<f64> = latency.latencies_us.iter().map(|us| us / 1e3).collect();
    latency_metrics(&ms, &mut out);
    out.end_to_end.insert("virt_ops_per_s", served_per_virt_s);
    out.end_to_end.insert("virt_concurrency_speedup", bursts.serial_us / bursts.concurrent_us);
    out.end_to_end.insert("ok_share", all.useful as f64 / all.submitted as f64);
    driven.host_metrics(ctx.trace, &mut out);
    out.end_to_end.insert("host_peak_rss_mb", peak_rss_mb());
    out.notes.push(format!(
        "open loop on the virtual calendar, latency from the scheduled arrival: generator \
         lateness is 0 by construction; SLO {SLO_US} us; host_ms_p50 is per request \
         (round host time / requests in the round); virt_concurrency_speedup is the makespan \
         of the same fault-free bursts served with the devices in ExecMode::Serial / \
         Concurrent, on every {SERIAL_EVERY}rd round"
    ));
    out.checks.push(driven.repeat_check());
    out.checks.push(Check::new(
        "one_outcome_each",
        all.unaccounted == 0 && all.stats_mismatches == 0,
        format!(
            "{} submitted, {} without exactly one terminal outcome, {} runs whose outcome \
             counts do not sum to submitted",
            all.submitted, all.unaccounted, all.stats_mismatches
        ),
    ));
    out.checks.push(direct.result_check());
    out
}

/// The front door both workloads drive: a single server or a fleet.
trait Front {
    /// Span name of one event-loop step.
    const STEP_SPAN: &'static str;
    fn submit(&mut self, r: &Request) -> Result<RequestId, ServeError>;
    fn step(&mut self) -> bool;
}

impl Front for DetectionServer {
    const STEP_SPAN: &'static str = "serve.step";
    fn submit(&mut self, r: &Request) -> Result<RequestId, ServeError> {
        DetectionServer::submit(self, r.frame.clone(), r.priority, r.arrival_us, SLO_US)
    }
    fn step(&mut self) -> bool {
        DetectionServer::step(self)
    }
}

impl Front for Fleet {
    const STEP_SPAN: &'static str = "fleet.step";
    fn submit(&mut self, r: &Request) -> Result<RequestId, ServeError> {
        self.submit_to_backend(r.frame.clone(), r.priority, r.arrival_us, SLO_US, r.backend)
    }
    fn step(&mut self) -> bool {
        FleetServer::step(self)
    }
}

/// Submit `traffic`, then step to idle (what `run()` does). Returns the
/// host ms spent in the calls and the number of steps.
fn run_to_idle<F: Front>(
    rec: &mut Recorder,
    op: u64,
    front: &mut F,
    traffic: &[Request],
) -> (f64, u64) {
    let t = Instant::now();
    for r in traffic {
        rec.time("serve.submit", op, || front.submit(r)).expect("a generated submission is valid");
    }
    let mut steps = 0;
    while rec.time(F::STEP_SPAN, op, || front.step()) {
        steps += 1;
    }
    (t.elapsed().as_secs_f64() * 1e3, steps)
}

pub fn serve_small_sweep(ctx: &mut Ctx) -> Outcome {
    let seed = ctx.seed;
    let warmup =
        requests(sub_seed(seed, STREAM_WARMUP, 0), 64, Some(SWEEP_RATES_RPS[1]), &SWEEP_MIX);
    let (setup, cascade) = timed_setup(25, || {
        let cascade = load_cascade();
        let mut server =
            DetectionServer::new(&cascade, DetectorConfig::default(), ServeConfig::default())
                .expect("the shipped cascade builds a server");
        run_to_idle(&mut Recorder::new(false), 0, &mut server, &warmup);
        cascade
    });
    let mut direct = Direct::new(&cascade, None);

    let mut all = Ledger::default();
    // One ledger per fixed rate; the burst only feeds `all` and the capacity figure.
    let mut per_rate: Vec<Ledger> = SWEEP_RATES_RPS.iter().map(|_| Ledger::default()).collect();
    let mut layers = Layers { has_profiler: true, ..Layers::default() };
    let (mut burst_served, mut burst_makespan_us) = (0u64, 0.0);
    let mut bursts = BurstPair::default();

    let driven = drive(ctx, SWEEP_ROUNDS, |rec, op, slot, in_reference| {
        let mut h = Fnv::default();
        let mut host_ms = 0.0;
        rec.enter("op.round", op);
        for (phase, &n) in SWEEP_REQUESTS.iter().enumerate() {
            let rate = SWEEP_RATES_RPS.get(phase).copied();
            let traffic = requests(
                sub_seed(seed, STREAM_TRAFFIC + phase as u64 * 100, slot as u64),
                n,
                rate,
                &SWEEP_MIX,
            );
            let config = match rate {
                Some(_) => ServeConfig::default(),
                // The burst: a queue deep enough for everything, nothing shed.
                None => ServeConfig {
                    queue_depth_per_class: n,
                    shed_late: false,
                    ..ServeConfig::default()
                },
            };
            let mut server =
                DetectionServer::new(&cascade, DetectorConfig::default(), config.clone())
                    .expect("the shipped cascade builds a server");
            let (phase_ms, steps) = run_to_idle(rec, op, &mut server, &traffic);
            host_ms += phase_ms;
            let stats = server.stats();
            let run = account(
                server.completed(),
                &traffic,
                stats,
                &mut h,
                in_reference.then_some(&mut direct),
            );
            if !in_reference {
                continue;
            }
            all.add(&run);
            let Some(rate_ledger) = per_rate.get_mut(phase) else {
                burst_served += run.useful;
                burst_makespan_us += stats.makespan_us;
                if slot.is_multiple_of(SERIAL_EVERY) {
                    let serial =
                        DetectorConfig { exec_mode: ExecMode::Serial, ..DetectorConfig::default() };
                    let mut server = DetectionServer::new(&cascade, serial, config)
                        .expect("the shipped cascade builds a server");
                    run_to_idle(&mut Recorder::new(false), op, &mut server, &traffic);
                    bursts.serial_us += server.stats().makespan_us;
                    bursts.concurrent_us += stats.makespan_us;
                }
                continue;
            };
            rate_ledger.add(&run);
            if rec.enabled() {
                layers.add_run(server.completed(), None, stats, 1, phase == HOT_PHASE);
                let profiler = server.detector().profiler();
                layers.gpu.add_host_spans(profiler.host_spans());
                layers.opaque_launches += profiler.opaque_launches();
                layers.steps += steps;
                layers.host_in_steps_us += phase_ms * 1e3;
            }
        }
        rec.exit();
        let requests_in_round = SWEEP_REQUESTS.iter().sum::<usize>() as f64;
        OpOut { host_ms: host_ms / requests_in_round, digest: h.0 }
    });

    let mut out = finish(
        ctx,
        &setup,
        &all,
        &per_rate[HOT_PHASE],
        &direct,
        burst_served as f64 / (burst_makespan_us / 1e6),
        &bursts,
        driven,
    );
    // Over all five phases. The four fixed rates meet every deadline on
    // the commit that added the benchmark; the burst is due at once and
    // nothing is shed, so the share of it that is served within the SLO
    // is what moves this metric when the device gets faster or slower.
    out.end_to_end.insert("slo_met_share", all.met_deadline as f64 / all.submitted as f64);
    let mut max_rate = 0.0;
    for (rate, l) in SWEEP_RATES_RPS.iter().zip(&per_rate) {
        let p99 = match l.latencies_us.as_slice() {
            [] => f64::INFINITY,
            lat => nearest_rank(&sorted(lat), 0.99),
        };
        let fail_share = 1.0 - l.useful as f64 / l.submitted as f64;
        let inside = p99 <= SLO_US && fail_share <= MAX_FAIL_SHARE;
        out.notes.push(format!(
            "rate {rate} rps: {} sent, p99 {p99:.1} us, fail share {fail_share:.4}{}",
            l.submitted,
            if inside { ", inside the SLO" } else { "" }
        ));
        if inside {
            max_rate = *rate;
        }
    }
    out.notes.push(format!(
        "rates are 10/30/60/90 % of the frozen burst capacity {SWEEP_BURST_CAPACITY_RPS} rps; \
         latency metrics are read at {} rps, virt_ops_per_s in the burst phase; slo_met_share \
         and ok_share cover all five phases, the per-layer metrics the four fixed rates",
        SWEEP_RATES_RPS[HOT_PHASE]
    ));
    if ctx.trace {
        layers.emit(&ctx.rec, DetectionServer::STEP_SPAN, &mut out);
        out.per_layer.insert("serve.max_rate_in_slo_rps".into(), max_rate);
        let awake: Vec<&str> =
            CHAOS_COUNTERS.into_iter().filter(|&c| out.per_layer[c] != 0.0).collect();
        out.checks.push(Check::new(
            "chaos_counters_zero",
            awake.is_empty(),
            format!("no fault, kill or drain here; non-zero: {awake:?}"),
        ));
    }
    out
}

type Fleet = FleetServer<Box<dyn Detector>>;

/// Lanes 0-1 Haar, 2-3 CNN. With a fault plan, lane 0 is the failing one.
fn build_fleet(
    cascade: &Cascade,
    model: &CnnModel,
    cfg: DetectorConfig,
    fleet_cfg: FleetConfig,
) -> Fleet {
    let mut haar = FaceDetector::try_new_replicas(cascade, cfg.clone(), 2).expect("Haar lanes");
    if let Some(plan) = &cfg.fault_plan {
        let failing = plan.clone().with_launch_timeouts(FLEET_FAILING_LANE_TIMEOUT_PER_LAUNCH);
        let cfg = DetectorConfig { fault_plan: Some(failing), ..cfg.clone() };
        haar[0] = FaceDetector::try_new(cascade, cfg).expect("the failing Haar lane");
    }
    let cnn = CnnDetector::try_new_replicas(model, cfg, 2).expect("CNN lanes");
    let lanes: Vec<Box<dyn Detector>> = haar
        .into_iter()
        .map(|d| Box::new(d) as Box<dyn Detector>)
        .chain(cnn.into_iter().map(|d| Box::new(d) as Box<dyn Detector>))
        .collect();
    FleetServer::from_detectors(lanes, fleet_cfg)
}

/// Makespan of a fault-free burst on a fresh fleet whose devices run in `mode`.
fn fleet_burst_makespan_us(
    cascade: &Cascade,
    model: &CnnModel,
    burst: &[Request],
    mode: ExecMode,
) -> f64 {
    let serve = ServeConfig {
        queue_depth_per_class: burst.len(),
        shed_late: false,
        ..ServeConfig::default()
    };
    let mut fleet = build_fleet(
        cascade,
        model,
        DetectorConfig { exec_mode: mode, ..DetectorConfig::default() },
        FleetConfig { serve, ..FleetConfig::default() },
    );
    run_to_idle(&mut Recorder::new(false), 0, &mut fleet, burst);
    fleet.stats().makespan_us
}

pub fn fleet_chaos_mixed(ctx: &mut Ctx) -> Outcome {
    let seed = ctx.seed;
    let warmup = requests(sub_seed(seed, STREAM_WARMUP, 0), 64, Some(FLEET_RATE_RPS), &FLEET_MIX);
    let (setup, (cascade, model)) = timed_setup(25, || {
        let cascade = load_cascade();
        let model = CnnModel::seeded(CNN_MODEL_SEED);
        let mut fleet =
            build_fleet(&cascade, &model, DetectorConfig::default(), FleetConfig::default());
        run_to_idle(&mut Recorder::new(false), 0, &mut fleet, &warmup);
        (cascade, model)
    });
    let mut direct = Direct::new(&cascade, Some(&model));

    let mut all = Ledger::default();
    let mut layers = Layers::default();
    let mut makespan_us = 0.0;
    let mut bursts = BurstPair::default();

    let driven = drive(ctx, FLEET_ROUNDS, |rec, op, slot, in_reference| {
        let traffic = requests(
            sub_seed(seed, STREAM_TRAFFIC, slot as u64),
            FLEET_REQUESTS,
            Some(FLEET_RATE_RPS),
            &FLEET_MIX,
        );
        let plan = FaultPlan::seeded(sub_seed(seed, STREAM_FAULTS, slot as u64))
            .with_transient_launch_failures(FLEET_TRANSIENT_PER_LAUNCH)
            .with_launch_timeouts(FLEET_TIMEOUT_PER_LAUNCH);
        let faulted = DetectorConfig { fault_plan: Some(plan), ..DetectorConfig::default() };
        let mut fleet = build_fleet(&cascade, &model, faulted, FleetConfig::default());
        // Lane 0 (Haar) is killed 40 % of the way through the arrivals;
        // lane 3 (CNN) drains from 70 % to 85 %. (A kill at 25 % put the
        // knee between calm and degraded service on the median, so
        // `virt_ms_p50` swung 25 % from seed to seed.) The rejoin of the
        // dead lane is scheduled as an operator would and is a no-op:
        // dead devices stay dead.
        let horizon_us = traffic.last().map_or(0.0, |r| r.arrival_us);
        fleet.schedule_kill(0, 0.40 * horizon_us);
        fleet.schedule_rejoin(0, 0.60 * horizon_us);
        fleet.schedule_drain(3, 0.70 * horizon_us);
        fleet.schedule_rejoin(3, 0.85 * horizon_us);

        rec.enter("op.round", op);
        let (host_ms, steps) = run_to_idle(rec, op, &mut fleet, &traffic);
        rec.exit();

        let mut h = Fnv::default();
        let stats = fleet.stats();
        let run = account(
            fleet.completed(),
            &traffic,
            &stats,
            &mut h,
            in_reference.then_some(&mut direct),
        );
        if in_reference {
            all.add(&run);
            makespan_us += stats.makespan_us;
            if slot.is_multiple_of(SERIAL_EVERY) {
                let burst = requests(
                    sub_seed(seed, STREAM_PROBE, slot as u64),
                    FLEET_PROBE_REQUESTS,
                    None,
                    &FLEET_MIX,
                );
                for (mode, sum) in [
                    (ExecMode::Serial, &mut bursts.serial_us),
                    (ExecMode::Concurrent, &mut bursts.concurrent_us),
                ] {
                    *sum += fleet_burst_makespan_us(&cascade, &model, &burst, mode);
                }
            }
            if rec.enabled() {
                layers.add_run(
                    fleet.completed(),
                    Some(fleet.completed_device()),
                    &stats,
                    fleet.devices(),
                    true,
                );
                layers.steps += steps;
                layers.host_in_steps_us += host_ms * 1e3;
                let r = fleet.router_stats();
                layers.migrations += r.migrations;
                layers.failovers += r.failovers;
                layers.steals += r.steals;
                layers.admission_rejected += r.admission_rejected;
                layers.routed_per_device.resize(fleet.devices(), 0);
                for (sum, n) in layers.routed_per_device.iter_mut().zip(&r.routed_per_device) {
                    *sum += n;
                }
            }
        }
        OpOut { host_ms: host_ms / FLEET_REQUESTS as f64, digest: h.0 }
    });

    let served_per_virt_s = all.useful as f64 / (makespan_us / 1e6);
    let mut out = finish(ctx, &setup, &all, &all, &direct, served_per_virt_s, &bursts, driven);
    out.end_to_end.insert("slo_met_share", all.met_deadline as f64 / all.submitted as f64);
    out.notes.push(format!(
        "offered rate {FLEET_RATE_RPS} rps is 60 % of the frozen fault-free 4-lane capacity \
         {FLEET_CAPACITY_RPS} rps; per-launch fault rates {FLEET_TRANSIENT_PER_LAUNCH} \
         (transient) and {FLEET_TIMEOUT_PER_LAUNCH} (timeout) on every lane, plus \
         {FLEET_FAILING_LANE_TIMEOUT_PER_LAUNCH} (timeout) on lane 0; lane 0 killed at 40 %, \
         lane 3 drained 70-85 % of the arrival horizon"
    ));
    if ctx.trace {
        layers.emit(&ctx.rec, Fleet::STEP_SPAN, &mut out);
        // `serve.fleet.evicted` and `admission_rejected` may stay 0: a
        // surviving lane of the same backend takes the killed lane's work.
        let asleep: Vec<&str> = [
            "serve.recovery.retries",
            "serve.recovery.poisoned",
            "serve.health.breaker_trips",
            "serve.health.brownout_ticks",
            "serve.health.rejected",
            "serve.router.migrations",
            "serve.router.failovers",
        ]
        .into_iter()
        .filter(|&c| out.per_layer[c] == 0.0)
        .collect();
        out.checks.push(Check::new(
            "chaos_counters_nonzero",
            asleep.is_empty(),
            format!("recovery, health and router must all act here; zero: {asleep:?}"),
        ));
    }
    out
}
