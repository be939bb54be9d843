//! Chaos matrix: seeded fault plans × batching.
//!
//! Sweeps the serving loop's fault-tolerance layer across injected
//! fault kinds and batch sizes 1 and 8, asserting on every cell that (a) accounting is exact — each submitted request gets
//! exactly one terminal outcome and the stats counters tile the
//! submission count, (b) the run is deterministic — an identical
//! configuration reproduces identical outcomes bit-for-bit, and
//! (c) recovery actually recovers: transient-only plans keep goodput
//! high, poisoned batches fail at most the poisoned member's worth of
//! requests, and stall-only plans (which slow but never reject) serve
//! everything.

use fd_cnn::{CnnDetector, CnnModel};
use fd_detector::{Backend, Detector, DetectorConfig, FaceDetector};
use fd_gpu::FaultPlan;
use fd_haar::{Cascade, FeatureKind, HaarFeature, Stage, Stump};
use fd_imgproc::GrayImage;
use fd_serve::{
    BatchPolicy, CompletedRequest, DetectionServer, DeviceState, FleetConfig, FleetServer,
    Priority, RequestOutcome, ServeConfig, ServeStats, ServerHealth,
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

fn server(plan: Option<FaultPlan>, max_batch_size: usize) -> DetectionServer {
    let det = DetectorConfig { min_neighbors: 1, fault_plan: plan, ..DetectorConfig::default() };
    let cfg = ServeConfig { batch: BatchPolicy { max_batch_size }, ..ServeConfig::default() };
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
            let run = || {
                let mut s = server(plan.clone(), batch);
                submit_wave(&mut s, n, 400.0, 1e6);
                s.run();
                assert_accounting(&s, n);
                fingerprint(&s)
            };
            assert_eq!(run(), run(), "cell (plan={name}, batch={batch}) must reproduce");
        }
    }
}

#[test]
fn stall_only_plans_serve_every_request() {
    // Stalls stretch the timeline but never reject a launch: no retries,
    // no failures, everything served (the SLO is generous).
    for batch in [1, 8] {
        let mut s = server(Some(FaultPlan::seeded(21).with_stream_stalls(0.2, 400.0)), batch);
        submit_wave(&mut s, 16, 400.0, 1e6);
        s.run();
        assert_eq!(s.stats().served, 16, "batch={batch}");
        assert_eq!(s.stats().failed, 0);
        assert_eq!(s.stats().retries_issued, 0);
    }
}

#[test]
fn transient_faults_recover_to_high_goodput() {
    let mut s = server(Some(FaultPlan::seeded(42).with_transient_launch_failures(0.02)), 8);
    submit_wave(&mut s, 40, 400.0, 1e6);
    s.run();
    let st = s.stats();
    assert!(st.retries_issued > 0, "a 2% rate over a 40-request run must fault");
    assert!(
        st.goodput() >= 0.9,
        "bounded retries must absorb transients: goodput {:.3}",
        st.goodput()
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
        let mut s = server(Some(plan), 8);
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
    // Arrivals 1 ms apart outlast the 20 ms cool-down, so requests
    // still arrive when it ends.
    let mut s = server(Some(FaultPlan::seeded(0).with_launch_timeouts(0.02)), 1);
    submit_wave(&mut s, 60, 1000.0, 1e6);
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
    let mut s = server(Some(FaultPlan::seeded(2).with_launch_timeouts(0.5)), 1);
    submit_wave(&mut s, 48, 300.0, 1e6);
    s.run();
    let st = s.stats();
    assert!(st.rejected_brownout > 0, "50% timeouts must brown the server out");
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
                    batch: BatchPolicy { max_batch_size: 1 },
                    ..ServeConfig::default()
                },
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
    // A small frame takes device 0, then affinity piles ten
    // same-geometry requests on device 1. Device 0 serves its one
    // request and goes idle while device 1 is backlogged — work
    // stealing must engage, and the full fleet outcome (including which
    // lane served what, when) must be bit-identical across host thread
    // counts.
    let run = |threads: usize| {
        let det = DetectorConfig {
            min_neighbors: 1,
            host_threads: Some(threads),
            ..DetectorConfig::default()
        };
        let mut f =
            FleetServer::new(&edge_cascade(), det, 2, FleetConfig::default()).expect("fleet");
        f.submit(pattern_frame(32, 48, 0), Priority::Standard, 0.0, 1e9).expect("valid submission");
        for i in 0..10u64 {
            f.submit(pattern_frame(64, 48, (i % 4) as usize), Priority::Standard, 0.0, 1e9)
                .expect("valid submission");
        }
        f.run();
        assert_fleet_accounting(&f, 11);
        assert!(f.router_stats().steals > 0, "the idle lane must steal the backlog");
        let devices: Vec<usize> = f.completed_device().to_vec();
        (fingerprint_log(f.completed()), devices, f.router_stats().steals)
    };
    assert_eq!(run(4), run(1), "steals must reproduce at 4 host threads");
}

#[test]
fn video_streams_soak_a_faulty_fleet_and_breakers_recover() {
    // Three 24 fps camera streams of three resolutions through one
    // three-lane fleet: frame k of every stream arrives at k periods and
    // is due one period later. Each stream's first frame goes to the
    // least-loaded lane and geometry affinity keeps the stream there.
    // Lane 0 is a clean control; device and decode fault rates escalate
    // with the index.
    const STREAMS: usize = 3;
    const FRAMES: usize = 60;
    const SEED: u64 = 42;
    let period_us = 1e6 / 24.0;
    // The breaker's fixed cool-down.
    let cooldown_us = 20_000.0;
    let run = |threads: usize| {
        let detectors: Vec<FaceDetector> = (0..STREAMS)
            .map(|i| {
                let plan = (i > 0).then(|| {
                    FaultPlan::seeded(SEED + i as u64)
                        .with_transient_launch_failures(0.004 * i as f64)
                        .with_launch_timeouts(0.002 * i as f64)
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
        let mut f = FleetServer::from_detectors(detectors, FleetConfig::default());
        let mut decoders: Vec<HwDecoder> = (0..STREAMS)
            .map(|i| {
                let mut dec = HwDecoder::new(Trailer::generate(TrailerSpec {
                    width: 160 + 16 * i,
                    height: 120 + 12 * i,
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
                    .expect("valid submission");
                submitted += 1;
            }
        }
        assert_eq!(submitted + dropped, (STREAMS * FRAMES) as u64);
        f.run();
        assert_fleet_accounting(&f, submitted);
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
