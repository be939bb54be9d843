//! Fleet properties.
//!
//! The identity lattice's fleet slice: a `FleetServer` of one device,
//! unbatched and batched, with and without an inert seeded `FaultPlan`, at
//! 1 and 4 host threads, completes bit-identically to the single
//! `DetectionServer` at one thread without a plan: same completion log,
//! same merged `ServeStats`, same detections and device state. The fleet
//! machinery (routing, failover, stealing, eviction) is bookkeeping until
//! there is a second device or a lifecycle command.
//!
//! Lifecycle conservation: on a fleet of two or three faulting lanes
//! under random kill, drain and rejoin commands, every request reaches
//! exactly one terminal outcome, and the completion log does not depend
//! on the host thread count.
//!
//! Causality: a lifecycle command cannot reach into the fleet's past.
//! Every request decided before the earliest command instant ends the
//! same way, on the same lane, with the commands as without them.

use facedet::gpu::FaultPlan;
use facedet::prelude::*;
use facedet::serve::RequestOutcome;
use proptest::prelude::*;

mod lattice;

use lattice::Front;

/// Requests per conservation case, all 64x48.
const REQUESTS: usize = 24;

fn edge_cascade() -> Cascade {
    let mut c = Cascade::new("fleet", 24);
    c.stages.push(Stage {
        stumps: vec![Stump {
            feature: HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8),
            threshold: 8192,
            left: -1.0,
            right: 1.0,
        }],
        threshold: 0.5,
    });
    c
}

/// A 64x48 frame with a dark/bright edge pair the cascade fires on.
fn frame(shift: usize) -> GrayImage {
    GrayImage::from_fn(64, 48, |x, y| {
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

/// Runs one lifecycle case at `threads` host threads and checks that
/// every request completed exactly once.
fn lifecycle_run(
    lanes: usize,
    plan_seed: u64,
    requests: &[(f64, usize, usize)],
    commands: &[(u8, usize, f64)],
    threads: usize,
) -> FleetServer {
    let plan = FaultPlan::seeded(plan_seed)
        .with_transient_launch_failures(0.01)
        .with_launch_timeouts(0.005);
    let config = DetectorConfig {
        min_neighbors: 1,
        fault_plan: Some(plan),
        host_threads: Some(threads),
        ..DetectorConfig::default()
    };
    let mut fleet = FleetServer::new(&edge_cascade(), config, lanes, FleetConfig::default())
        .expect("fleet construction");
    let mut t = 0.0;
    for &(gap, priority, shift) in requests {
        t += gap;
        fleet.submit(frame(shift), Priority::ALL[priority], t, 20_000.0).expect("valid submission");
    }
    for &(kind, device, at_us) in commands {
        let device = device % lanes;
        match kind {
            0 => fleet.schedule_kill(device, at_us),
            1 => fleet.schedule_drain(device, at_us),
            _ => fleet.schedule_rejoin(device, at_us),
        }
    }
    fleet.run();

    let mut seen = vec![0u32; requests.len()];
    for c in fleet.completed() {
        seen[c.id.0 as usize] += 1;
    }
    assert!(seen.iter().all(|&n| n == 1), "every request completes exactly once: {seen:?}");
    assert_eq!(fleet.completed_device().len(), fleet.completed().len());
    assert_eq!(fleet.stats().submitted, requests.len() as u64);
    fleet
}

/// The completion log, device attribution and merged stats as text.
fn log(fleet: &FleetServer) -> String {
    format!("{:?}\n{:?}\n{:?}", fleet.completed(), fleet.completed_device(), fleet.stats())
}

/// The instant a request's outcome was fixed; rejections carry none.
fn decided_us(outcome: &RequestOutcome) -> Option<f64> {
    match *outcome {
        RequestOutcome::Served { completed_us, .. }
        | RequestOutcome::Degraded { completed_us, .. } => Some(completed_us),
        RequestOutcome::ShedLate { shed_us } => Some(shed_us),
        RequestOutcome::Expired { expired_us, .. } => Some(expired_us),
        RequestOutcome::Evicted { evicted_us } => Some(evicted_us),
        RequestOutcome::Failed { dispatched_us, .. } => Some(dispatched_us),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A fleet of one with an inert fault plan is the single server.
    #[test]
    fn fleet_of_one_is_byte_identical_to_the_single_server(
        seed in any::<u64>(),
        plan in any::<u64>(),
    ) {
        let fronts = [Front::Fleet { batched: false }, Front::Fleet { batched: true }];
        let hosts = lattice::cells(&fronts, &[1, 4], &[None, Some(plan)]);
        lattice::slice(seed, &lattice::device_pair(seed), &hosts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Faults, kills, drains and rejoins lose and duplicate no request,
    /// and the outcome is the same at one and two host threads.
    #[test]
    fn fleet_lifecycle_conserves_every_request(
        lanes in 2usize..=3,
        plan_seed in any::<u64>(),
        requests in prop::collection::vec((0.0f64..1_500.0, 0usize..3, 0usize..4), REQUESTS),
        commands in prop::collection::vec((0u8..3, 0usize..3, 0.0f64..40_000.0), 0..=4),
    ) {
        let one = lifecycle_run(lanes, plan_seed, &requests, &commands, 1);
        let two = lifecycle_run(lanes, plan_seed, &requests, &commands, 2);
        prop_assert_eq!(log(&one), log(&two));
    }

    /// Lifecycle commands change nothing decided before the earliest of
    /// them: same outcome, same lane.
    #[test]
    fn fleet_lifecycle_commands_do_not_reach_into_the_past(
        lanes in 2usize..=3,
        plan_seed in any::<u64>(),
        requests in prop::collection::vec((0.0f64..1_500.0, 0usize..3, 0usize..4), REQUESTS),
        commands in prop::collection::vec((0u8..3, 0usize..3, 0.0f64..40_000.0), 1..=4),
    ) {
        let first = commands.iter().map(|c| c.2).fold(f64::INFINITY, f64::min);
        let free = lifecycle_run(lanes, plan_seed, &requests, &[], 1);
        let commanded = lifecycle_run(lanes, plan_seed, &requests, &commands, 1);
        let outcome_and_lane = |fleet: &FleetServer, id| {
            let i = fleet.completed().iter().position(|c| c.id == id).expect("completed");
            (format!("{:?}", fleet.completed()[i].outcome), fleet.completed_device()[i])
        };
        for c in free.completed() {
            if decided_us(&c.outcome).is_some_and(|t| t < first) {
                let before = outcome_and_lane(&free, c.id);
                let after = outcome_and_lane(&commanded, c.id);
                prop_assert_eq!(
                    &before,
                    &after,
                    "request {} was decided before the first command at {}: {:?} became {:?}",
                    c.id,
                    first,
                    before,
                    after
                );
            }
        }
    }
}
