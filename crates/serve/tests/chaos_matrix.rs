//! Chaos matrix: seeded fault plans × batching × retry budget.
//!
//! Sweeps the serving loop's fault-tolerance layer across injected
//! fault kinds, batch sizes 1 and 8 and retry budgets 0 and 3, asserting on every
//! cell that (a) accounting is exact — each submitted request gets
//! exactly one terminal outcome and the stats counters tile the
//! submission count, (b) the run is deterministic — an identical
//! configuration reproduces identical outcomes bit-for-bit, and
//! (c) recovery actually recovers: transient-only plans keep goodput
//! high, poisoned batches fail at most the poisoned member's worth of
//! requests, and stall-only plans (which slow but never reject) serve
//! everything.

use fd_cnn::{CnnDetector, CnnModel};
use fd_detector::{Backend, Detector, DetectorConfig, FaceDetector, RecoveryPolicy};
use fd_gpu::FaultPlan;
use fd_haar::{Cascade, FeatureKind, HaarFeature, Stage, Stump};
use fd_imgproc::GrayImage;
use fd_serve::{
    BatchPolicy, CompletedRequest, DetectionServer, DeviceState, FleetConfig, FleetServer,
    HealthPolicy, Priority, RequestOutcome, RoutePolicy, ServeConfig, ServeStats, ServerHealth,
    StealPolicy,
};
use fd_video::{DecodeFault, DecodeFaultPlan, HwDecoder, Trailer, TrailerSpec};

fn edge_cascade() -> Cascade {
    let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
    let mut c = Cascade::new("edge", 24);
    c.stages.push(Stage {
        stumps: vec![Stump { feature: f, threshold: 8192, left: -1.0, right: 1.0 }],
        threshold: 0.5,
    });
    c
}

fn pattern_frame(w: usize, h: usize, shift: usize) -> GrayImage {
    GrayImage::from_fn(w, h, |x, y| {
        let x = x + shift;
        if (20..30).contains(&x) && (14..34).contains(&y) {
            5.0
        } else if (30..40).contains(&x) && (14..34).contains(&y) {
            250.0
        } else {
            120.0
        }
    })
}

/// No transient retries: every device fault goes straight to isolation.
fn no_retries() -> RecoveryPolicy {
    RecoveryPolicy { max_retries: 0, ..RecoveryPolicy::default() }
}

fn server(
    plan: Option<FaultPlan>,
    max_batch_size: usize,
    retry: RecoveryPolicy,
) -> DetectionServer {
    let det = DetectorConfig { min_neighbors: 1, fault_plan: plan, ..DetectorConfig::default() };
    let cfg = ServeConfig {
        batch: BatchPolicy { max_batch_size, ..BatchPolicy::default() },
        retry,
        ..ServeConfig::default()
    };
    DetectionServer::new(&edge_cascade(), det, cfg).expect("server construction")
}

/// Submit `n` spread-out standard requests with a generous SLO.
fn submit_wave<D: Detector>(s: &mut DetectionServer<D>, n: u64, gap_us: f64, slo_us: f64) {
    for i in 0..n {
        s.submit(
            pattern_frame(64, 48, (i % 4) as usize),
            Priority::ALL[(i % 3) as usize],
            i as f64 * gap_us,
            slo_us,
        )
        .expect("valid submission");
    }
}

/// One terminal outcome per submission; stats counters tile the total.
fn assert_accounting<D: Detector>(s: &DetectionServer<D>, submitted: u64) {
    let st = s.stats();
    assert_eq!(st.submitted, submitted);
    assert_eq!(s.completed().len() as u64, submitted, "every request gets an outcome");
    assert_outcomes_tile(st, s.completed(), submitted);
}

/// Outcome counters (including fleet evictions) tile the submissions
/// and agree with the completion log, whichever layer produced it.
fn assert_outcomes_tile(st: &ServeStats, completed: &[CompletedRequest], submitted: u64) {
    let tiled = st.served
        + st.degraded_completions
        + st.shed_late
        + st.rejected_full
        + st.rejected_brownout
        + st.rejected_failfast
        + st.failed
        + st.expired
        + st.evicted;
    assert_eq!(tiled, submitted, "outcome counters must tile the submissions");
    // The outcome log agrees with the counters.
    let mut by_kind = [0u64; 9];
    for c in completed {
        let k = match &c.outcome {
            RequestOutcome::Served { .. } => 0,
            RequestOutcome::Degraded { .. } => 1,
            RequestOutcome::ShedLate { .. } => 2,
            RequestOutcome::RejectedQueueFull => 3,
            RequestOutcome::RejectedBrownOut => 4,
            RequestOutcome::RejectedFailFast => 5,
            RequestOutcome::Failed { .. } => 6,
            RequestOutcome::Expired { .. } => 7,
            RequestOutcome::Evicted { .. } => 8,
        };
        by_kind[k] += 1;
    }
    assert_eq!(
        by_kind,
        [
            st.served,
            st.degraded_completions,
            st.shed_late,
            st.rejected_full,
            st.rejected_brownout,
            st.rejected_failfast,
            st.failed,
            st.expired,
            st.evicted,
        ]
    );
}

fn fingerprint<D: Detector>(s: &DetectionServer<D>) -> Vec<(u64, u8, u64)> {
    fingerprint_log(s.completed())
}

fn fingerprint_log(completed: &[CompletedRequest]) -> Vec<(u64, u8, u64)> {
    completed
        .iter()
        .map(|c| {
            let (kind, t) = match &c.outcome {
                RequestOutcome::Served { completed_us, result, .. } => {
                    (0u8, completed_us.to_bits() ^ result.raw.len() as u64)
                }
                RequestOutcome::Degraded { completed_us, shed_levels, result, .. } => {
                    (1, completed_us.to_bits() ^ (*shed_levels as u64) ^ result.raw.len() as u64)
                }
                RequestOutcome::ShedLate { shed_us } => (2, shed_us.to_bits()),
                RequestOutcome::RejectedQueueFull => (3, 0),
                RequestOutcome::RejectedBrownOut => (4, 0),
                RequestOutcome::RejectedFailFast => (5, 0),
                RequestOutcome::Failed { attempts, .. } => (6, *attempts as u64),
                RequestOutcome::Expired { expired_us, .. } => (7, expired_us.to_bits()),
                RequestOutcome::Evicted { evicted_us } => (8, evicted_us.to_bits()),
            };
            (c.id.0, kind, t)
        })
        .collect()
}

#[test]
fn chaos_matrix_accounts_exactly_and_reproduces() {
    let n = 24u64;
    let plans: Vec<(&str, Option<FaultPlan>)> = vec![
        ("none", None),
        ("inert", Some(FaultPlan::seeded(3))),
        ("transient2%", Some(FaultPlan::seeded(3).with_transient_launch_failures(0.02))),
        ("timeout1%", Some(FaultPlan::seeded(5).with_launch_timeouts(0.01))),
        ("stalls", Some(FaultPlan::seeded(7).with_stream_stalls(0.05, 300.0))),
        (
            "mixed",
            Some(
                FaultPlan::seeded(9)
                    .with_transient_launch_failures(0.02)
                    .with_launch_timeouts(0.005)
                    .with_stream_stalls(0.02, 200.0),
            ),
        ),
    ];
    for (name, plan) in &plans {
        for batch in [1, 8] {
            for retry in [no_retries(), RecoveryPolicy::default()] {
                let run = || {
                    let mut s = server(plan.clone(), batch, retry.clone());
                    submit_wave(&mut s, n, 400.0, 1e6);
                    s.run();
                    assert_accounting(&s, n);
                    fingerprint(&s)
                };
                assert_eq!(
                    run(),
                    run(),
                    "cell (plan={name}, batch={batch}, max_retries={}) must reproduce",
                    retry.max_retries
                );
            }
        }
    }
}

#[test]
fn stall_only_plans_serve_every_request() {
    // Stalls stretch the timeline but never reject a launch: no retries,
    // no failures, everything served (the SLO is generous).
    for batch in [1, 8] {
        let mut s = server(
            Some(FaultPlan::seeded(21).with_stream_stalls(0.2, 400.0)),
            batch,
            RecoveryPolicy::default(),
        );
        submit_wave(&mut s, 16, 400.0, 1e6);
        s.run();
        assert_eq!(s.stats().served, 16, "batch={batch}");
        assert_eq!(s.stats().failed, 0);
        assert_eq!(s.stats().retries_issued, 0);
    }
}

#[test]
fn transient_faults_recover_to_high_goodput() {
    let mut s = server(
        Some(FaultPlan::seeded(42).with_transient_launch_failures(0.02)),
        8,
        RecoveryPolicy::default(),
    );
    submit_wave(&mut s, 40, 400.0, 1e6);
    s.run();
    let st = s.stats();
    assert!(st.retries_issued > 0, "a 2% rate over a 40-request run must fault");
    assert!(
        st.goodput() >= 0.9,
        "bounded retries must absorb transients: goodput {:.3}",
        st.goodput()
    );
    // Without retries, the same plan loses every request it faults.
    let mut unretried =
        server(Some(FaultPlan::seeded(42).with_transient_launch_failures(0.02)), 8, no_retries());
    submit_wave(&mut unretried, 40, 400.0, 1e6);
    unretried.run();
    assert!(
        unretried.stats().failed > st.failed,
        "retries must strictly reduce failures ({} vs {})",
        unretried.stats().failed,
        st.failed
    );
}

#[test]
fn poisoned_batch_fails_at_most_the_poisoned_member() {
    // Six simultaneous same-geometry requests form one batch of 6. Under
    // a timeout-only plan (non-retryable, slot-attributed), recovery
    // must corner each poisoned request: batchmates complete Ok or
    // Degraded. Sweep seeds to cover different poisoned slots.
    let mut saw_single_poison = false;
    for seed in 0..24u64 {
        let plan = FaultPlan::seeded(seed).with_launch_timeouts(0.002);
        let mut s = server(Some(plan), 8, RecoveryPolicy::default());
        for i in 0..6u64 {
            s.submit(pattern_frame(64, 48, (i % 4) as usize), Priority::Standard, 0.0, 1e9)
                .expect("valid submission");
        }
        s.run();
        let st = s.stats();
        assert_eq!(st.expired + st.shed_late, 0, "seed {seed}: generous SLO never expires");
        assert_eq!(st.served + st.degraded_completions + st.failed, 6, "seed {seed}: all terminal");
        // Isolation contract: every failed request was individually
        // poisoned — never a batchmate casualty.
        assert_eq!(st.failed, st.poisoned_requests, "seed {seed}: only poisoned members may fail");
        if st.failed == 1 {
            saw_single_poison = true;
            assert_eq!(st.served + st.degraded_completions, 5, "seed {seed}: batchmates live");
        }
    }
    assert!(saw_single_poison, "sweep must include a run where exactly one request is poisoned");
}

#[test]
fn sustained_timeouts_trip_brownout_then_open_then_recover() {
    // A per-launch timeout rate of 2% compounds over the ~32 launches of
    // each dispatch to roughly a coin-flip per request: fault streaks
    // walk the health machine Healthy → BrownOut → Open, and the
    // cool-down's half-open probe finds a clean request to close it.
    let plan = FaultPlan::seeded(0).with_launch_timeouts(0.02);
    let det =
        DetectorConfig { min_neighbors: 1, fault_plan: Some(plan), ..DetectorConfig::default() };
    let cfg = ServeConfig {
        batch: BatchPolicy { max_batch_size: 1, ..BatchPolicy::default() },
        retry: RecoveryPolicy::default(),
        health: HealthPolicy { cooldown_us: 5_000.0, ..HealthPolicy::default() },
        ..ServeConfig::default()
    };
    let mut s = DetectionServer::new(&edge_cascade(), det, cfg).expect("server");
    submit_wave(&mut s, 60, 300.0, 1e6);
    s.run();
    let st = s.stats();
    assert!(st.breaker_trips > 0, "the fault streaks must trip the breaker");
    assert!(st.brownout_ticks > 0, "non-Healthy steps must be accounted");
    assert!(
        st.probes_succeeded > 0,
        "the fault rate leaves room for a successful probe to close the breaker"
    );
    assert!(st.served > 0, "the server must keep serving around the faults");
    assert_accounting(&s, 60);
}

#[test]
fn brownout_rejects_only_the_lowest_class() {
    let plan = FaultPlan::seeded(2).with_launch_timeouts(0.5);
    let det =
        DetectorConfig { min_neighbors: 1, fault_plan: Some(plan), ..DetectorConfig::default() };
    let cfg = ServeConfig {
        batch: BatchPolicy { max_batch_size: 1, ..BatchPolicy::default() },
        // No Open state in this run: trip threshold out of reach.
        health: HealthPolicy { open_after: u32::MAX, ..HealthPolicy::default() },
        ..ServeConfig::default()
    };
    let mut s = DetectionServer::new(&edge_cascade(), det, cfg).expect("server");
    submit_wave(&mut s, 48, 300.0, 1e6);
    s.run();
    let st = s.stats();
    assert!(st.rejected_brownout > 0, "50% timeouts must brown the server out");
    assert_eq!(st.rejected_failfast, 0, "breaker can never open in this config");
    for c in s.completed() {
        if matches!(c.outcome, RequestOutcome::RejectedBrownOut) {
            assert_eq!(c.priority, Priority::Bulk, "brown-out sheds only the lowest class");
        }
    }
    assert_accounting(&s, 48);
}

#[test]
fn cnn_batches_recover_under_a_seeded_fault_plan() {
    // The same recovery stack behind the CNN backend: batched CNN
    // submissions under a mixed transient/timeout plan must retry,
    // isolate and account exactly like the Haar path — the serving loop
    // is engine-agnostic.
    let run = || {
        let det = DetectorConfig {
            min_neighbors: 1,
            fault_plan: Some(
                FaultPlan::seeded(13)
                    .with_transient_launch_failures(0.02)
                    .with_launch_timeouts(0.004),
            ),
            ..DetectorConfig::default()
        };
        let cnn = CnnDetector::try_new(&CnnModel::seeded(1), det).expect("cnn detector");
        let mut s = DetectionServer::from_detector(cnn, ServeConfig::default());
        submit_wave(&mut s, 24, 400.0, 1e6);
        s.run();
        assert_accounting(&s, 24);
        let st = s.stats();
        assert_eq!(st.submitted_per_backend, [0, 24], "every request is CNN-class");
        assert_eq!(
            st.served_per_backend[Backend::Cnn.index()] + st.degraded_per_backend[1],
            st.served + st.degraded_completions,
        );
        assert!(
            st.retries_issued > 0,
            "the plan must fault somewhere across 24 batched CNN dispatches"
        );
        assert!(
            st.goodput() >= 0.9,
            "recovery must absorb CNN-batch faults: goodput {:.3}",
            st.goodput()
        );
        for c in s.completed() {
            assert_eq!(c.backend, Backend::Cnn);
        }
        fingerprint(&s)
    };
    assert_eq!(run(), run(), "CNN chaos must be seed-reproducible");
}

// ---------------------------------------------------------------------
// Fleet chaos: device-level failures behind the FleetServer front door.
// ---------------------------------------------------------------------

/// Fleet accounting: every fleet submission gets exactly one terminal
/// outcome, wherever in the fleet (or at fleet level, for evictions) it
/// was produced.
fn assert_fleet_accounting<D: Detector>(f: &FleetServer<D>, submitted: u64) {
    let st: ServeStats = f.stats();
    assert_eq!(st.submitted, submitted);
    assert_eq!(f.completed().len() as u64, submitted, "every request gets an outcome");
    assert_outcomes_tile(&st, f.completed(), submitted);
}

#[test]
fn open_breaker_migrates_the_backlog_to_the_healthy_replica() {
    // Device 0 gets a pathological timeout plan (~80% of its dispatches
    // fault), device 1 an inert plan with an independent seed. Sixteen
    // simultaneous requests fill the queues; device 0's fault streak
    // walks its health machine to Open, at which point its queued
    // backlog must migrate to device 1 and complete there.
    let run = || {
        let det = |plan: FaultPlan| DetectorConfig {
            min_neighbors: 1,
            fault_plan: Some(plan),
            ..DetectorConfig::default()
        };
        let detectors = vec![
            FaceDetector::try_new(
                &edge_cascade(),
                det(FaultPlan::seeded(11).with_launch_timeouts(0.05)),
            )
            .expect("hot detector"),
            FaceDetector::try_new(&edge_cascade(), det(FaultPlan::seeded(12)))
                .expect("inert detector"),
        ];
        let mut f = FleetServer::from_detectors(
            detectors,
            FleetConfig {
                serve: ServeConfig {
                    batch: BatchPolicy { max_batch_size: 1, ..BatchPolicy::default() },
                    ..ServeConfig::default()
                },
                steal: StealPolicy { max_steal: 0, ..StealPolicy::default() },
                ..FleetConfig::default()
            },
        );
        for i in 0..16u64 {
            f.submit(pattern_frame(64, 48, (i % 4) as usize), Priority::Standard, 0.0, 1e9)
                .expect("valid submission");
        }
        f.run();
        assert_fleet_accounting(&f, 16);
        assert!(
            f.device_stats(0).breaker_trips > 0,
            "the hot device's fault streak must open its breaker"
        );
        assert!(
            f.router_stats().migrations > 0,
            "the open breaker must evacuate the queued backlog"
        );
        assert!(f.device_stats(1).served > 0, "the healthy replica must serve migrated work");
        assert_eq!(f.stats().evicted, 0, "a healthy replica exists; nothing is evicted");
        (fingerprint_log(f.completed()), f.router_stats().migrations)
    };
    assert_eq!(run(), run(), "device-level chaos must be seed-reproducible");
}

#[test]
fn drain_reroutes_future_arrivals_and_rejoin_restores_service() {
    let mut f = FleetServer::new(
        &edge_cascade(),
        DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() },
        2,
        FleetConfig::default(),
    )
    .expect("fleet");
    // A spread-out wave: geometry affinity keeps it on device 0.
    for i in 0..12u64 {
        f.submit(
            pattern_frame(64, 48, (i % 4) as usize),
            Priority::Standard,
            i as f64 * 400.0,
            1e9,
        )
        .expect("valid submission");
    }
    // Serve the head of the wave, then drain device 0 mid-run.
    while f.device_stats(0).served == 0 && f.step() {}
    let served_before_drain = f.device_stats(0).served;
    assert!(served_before_drain > 0, "device 0 serves the head of the wave");
    f.drain_device(0);
    assert_eq!(f.device_state(0), DeviceState::Draining);
    f.run();
    assert_fleet_accounting(&f, 12);
    assert_eq!(f.stats().served, 12, "nothing is lost across the drain");
    assert!(f.router_stats().migrations > 0, "the drained device's future arrivals must re-route");
    assert!(f.device_stats(1).served > 0, "the other device picks up the re-routed arrivals");
    // Rejoined, the device takes (and serves) traffic again.
    f.rejoin_device(0);
    assert_eq!(f.device_state(0), DeviceState::Active);
    let t = f.now_us();
    for i in 0..6u64 {
        f.submit(pattern_frame(64, 48, (i % 4) as usize), Priority::Standard, t, 1e9)
            .expect("valid submission");
    }
    f.run();
    assert_fleet_accounting(&f, 18);
    assert!(f.device_stats(0).served > served_before_drain, "the rejoined device serves again");
}

#[test]
fn stolen_work_is_bit_identical_across_host_threads() {
    // Sticky affinity piles ten same-geometry requests on device 0
    // while device 1 serves one small request and goes idle — work
    // stealing must engage, and the full fleet outcome (including which
    // lane served what, when) must be bit-identical across host thread
    // counts.
    let run = |threads: usize| {
        let det = DetectorConfig {
            min_neighbors: 1,
            host_threads: Some(threads),
            ..DetectorConfig::default()
        };
        let mut f = FleetServer::new(
            &edge_cascade(),
            det,
            2,
            FleetConfig {
                route: RoutePolicy { affinity_slack: 64, ..RoutePolicy::default() },
                ..FleetConfig::default()
            },
        )
        .expect("fleet");
        for i in 0..10u64 {
            f.submit(pattern_frame(64, 48, (i % 4) as usize), Priority::Standard, 0.0, 1e9)
                .expect("valid submission");
        }
        f.submit(pattern_frame(32, 48, 0), Priority::Standard, 0.0, 1e9).expect("valid submission");
        f.run();
        assert_fleet_accounting(&f, 11);
        assert!(f.router_stats().steals > 0, "the idle lane must steal the backlog");
        let devices: Vec<usize> = f.completed_device().to_vec();
        (fingerprint_log(f.completed()), devices, f.router_stats().steals)
    };
    assert_eq!(run(4), run(1), "steals must reproduce at 4 host threads");
}

#[test]
fn video_streams_soak_a_faulty_fleet_within_budget_and_breakers_recover() {
    // Three 24 fps camera streams through one three-lane fleet: frame k
    // of every stream arrives at k periods and is due one period later.
    // Lane 0 is a clean control; device and decode fault rates escalate
    // with the index. Least-loaded routing without affinity hands each
    // round's three simultaneous frames to three different lanes, so
    // every lane admits the geometry and charges its budget.
    const STREAMS: usize = 3;
    const FRAMES: usize = 60;
    const SEED: u64 = 42;
    let period_us = 1e6 / 24.0;
    let cooldown_us = 6.0 * period_us;
    let run = |threads: usize| {
        let detectors: Vec<FaceDetector> = (0..STREAMS)
            .map(|i| {
                let plan = (i > 0).then(|| {
                    FaultPlan::seeded(SEED + i as u64)
                        .with_transient_launch_failures(0.002 * i as f64)
                        .with_launch_timeouts(0.001 * i as f64)
                });
                let det = DetectorConfig {
                    min_neighbors: 1,
                    fault_plan: plan,
                    host_threads: Some(threads),
                    ..DetectorConfig::default()
                };
                FaceDetector::try_new(&edge_cascade(), det).expect("lane detector")
            })
            .collect();
        let budget = detectors[0].projected_device_bytes(160, 120).expect("plannable geometry");
        let mut f = FleetServer::from_detectors(
            detectors,
            FleetConfig {
                serve: ServeConfig {
                    health: HealthPolicy { open_after: 3, cooldown_us, ..HealthPolicy::default() },
                    ..ServeConfig::default()
                },
                route: RoutePolicy { geometry_affinity: false, ..RoutePolicy::default() },
                device_memory_budget: Some(budget),
                ..FleetConfig::default()
            },
        );
        let mut decoders: Vec<HwDecoder> = (0..STREAMS)
            .map(|i| {
                let mut dec = HwDecoder::new(Trailer::generate(TrailerSpec {
                    width: 160,
                    height: 120,
                    n_frames: FRAMES,
                    seed: 21 + i as u64,
                    face_size: (26.0, 60.0),
                    ..TrailerSpec::default()
                }));
                dec.set_fault_plan((i > 0).then(|| {
                    DecodeFaultPlan::seeded(SEED + i as u64)
                        .with_corrupt_frames(0.02 * i as f64)
                        .with_dropped_frames(0.01 * i as f64)
                }));
                dec
            })
            .collect();
        // A frame the decoder dropped never reaches the server: that is
        // its one terminal outcome. Everything else is a request.
        let (mut submitted, mut dropped) = (0u64, 0u64);
        for k in 0..FRAMES {
            for dec in &mut decoders {
                let frame = dec.next().expect("frame in range");
                if frame.fault == Some(DecodeFault::Dropped) {
                    dropped += 1;
                    continue;
                }
                f.submit(frame.luma, Priority::Standard, k as f64 * period_us, period_us)
                    .expect("the budget admits the one geometry");
                submitted += 1;
            }
        }
        assert_eq!(submitted + dropped, (STREAMS * FRAMES) as u64);
        while f.step() {
            for d in 0..STREAMS {
                let held = f.device(d).detector().device_bytes();
                assert!(held <= budget, "lane {d} holds {held} of {budget} budgeted bytes");
            }
        }
        assert_fleet_accounting(&f, submitted);
        assert_eq!(f.router_stats().admission_rejected, 0);
        let routed = &f.router_stats().routed_per_device;
        assert!(routed.iter().all(|&n| n > 0), "every lane takes stream work: {routed:?}");
        // One cool-down after the last completion no breaker is still open.
        let idle_at = f.now_us() + cooldown_us;
        let health: Vec<ServerHealth> = (0..STREAMS).map(|d| f.device(d).health()).collect();
        for (d, h) in health.iter().enumerate() {
            if let ServerHealth::Open { until_us } = h {
                assert!(*until_us <= idle_at, "lane {d} open until {until_us}, idle at {idle_at}");
            }
        }
        let st = f.stats();
        assert!(st.retries_issued > 0, "the escalating plans must fault somewhere");
        assert!(st.breaker_trips > 0, "and trip a breaker, or the check above is vacuous");
        assert_eq!(f.device_stats(0).retries_issued, 0, "lane 0 is the clean control");
        (fingerprint_log(f.completed()), f.completed_device().to_vec(), health, st.breaker_trips)
    };
    let reference = run(1);
    assert_eq!(run(4), reference, "the soak must reproduce at 4 host threads");
}
