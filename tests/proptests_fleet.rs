//! Property-based tests for the fleet layer's reduction guarantee: a
//! `FleetServer` with a single device — even with the full
//! fault-tolerance stack on and an inert seeded `FaultPlan` attached —
//! completes bit-identically to a plain `DetectionServer`, across host
//! thread counts. The fleet machinery (routing, admission ledger,
//! failover, stealing, eviction) must be pure overhead-free bookkeeping
//! until there is a second device or a lifecycle command.

use proptest::prelude::*;

use facedet::prelude::*;
use facedet::serve::RequestOutcome;

fn edge_cascade() -> Cascade {
    let feature = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
    let mut cascade = Cascade::new("edges", 24);
    cascade.stages.push(Stage {
        stumps: vec![Stump { feature, threshold: 8192, left: -1.0, right: 1.0 }],
        threshold: 0.5,
    });
    cascade
}

/// A 48x36 frame with a dark/bright edge pair at a variant-dependent
/// shift, so different variants produce different detection sets.
fn frame(variant: u8) -> GrayImage {
    let shift = (variant % 6) as usize;
    GrayImage::from_fn(48, 36, |x, y| {
        let x = x + shift;
        if (14..22).contains(&x) && (6..30).contains(&y) {
            10.0
        } else if (22..30).contains(&x) && (6..30).contains(&y) {
            245.0
        } else {
            120.0
        }
    })
}

/// Everything observable about one completion, bitwise.
type Fingerprint = (u64, u8, Vec<GroupedDetection>, u64, u64);

fn fingerprints(completed: &[facedet::serve::CompletedRequest]) -> Vec<Fingerprint> {
    completed
        .iter()
        .map(|c| {
            let RequestOutcome::Served { completed_us, ref result, .. } = c.outcome else {
                panic!("nothing faults in this pattern, got {:?}", c.outcome);
            };
            (
                c.id.0,
                0u8,
                result.detections.clone(),
                result.detect_ms.to_bits(),
                completed_us.to_bits(),
            )
        })
        .collect()
}

fn detector_config(plan_seed: u64, host_threads: usize) -> DetectorConfig {
    DetectorConfig {
        min_neighbors: 1,
        host_threads: Some(host_threads),
        fault_plan: Some(facedet::gpu::FaultPlan::seeded(plan_seed)),
        ..DetectorConfig::default()
    }
}

fn serve_config(batched: bool) -> ServeConfig {
    let unbatched = BatchPolicy { max_batch_size: 1, ..BatchPolicy::default() };
    ServeConfig {
        batch: if batched { BatchPolicy::default() } else { unbatched },
        ..ServeConfig::default()
    }
}

fn run_single(
    plan_seed: u64,
    host_threads: usize,
    batched: bool,
    pattern: &[(u32, u8)],
) -> (Vec<Fingerprint>, ServeStats) {
    let mut server = DetectionServer::new(
        &edge_cascade(),
        detector_config(plan_seed, host_threads),
        serve_config(batched),
    )
    .expect("server construction");
    let mut t = 0.0f64;
    for &(gap_us, variant) in pattern {
        t += gap_us as f64;
        server.submit(frame(variant), Priority::Standard, t, 1e9).expect("valid submission");
    }
    server.run();
    (fingerprints(server.completed()), server.stats().clone())
}

fn run_fleet(
    plan_seed: u64,
    host_threads: usize,
    batched: bool,
    pattern: &[(u32, u8)],
) -> (Vec<Fingerprint>, ServeStats) {
    let mut fleet = FleetServer::new(
        &edge_cascade(),
        detector_config(plan_seed, host_threads),
        1,
        FleetConfig { serve: serve_config(batched), ..FleetConfig::default() },
    )
    .expect("fleet construction");
    let mut t = 0.0f64;
    for &(gap_us, variant) in pattern {
        t += gap_us as f64;
        fleet.submit(frame(variant), Priority::Standard, t, 1e9).expect("valid submission");
    }
    fleet.run();
    (fingerprints(fleet.completed()), fleet.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A fleet of one with an inert fault plan is the single server:
    /// identical completion log (ids, outcomes, detections, instants)
    /// and identical merged statistics — at 1 and 4 host threads,
    /// batching on and off.
    #[test]
    fn fleet_of_one_is_byte_identical_to_the_single_server(
        pattern in proptest::collection::vec((0u32..4000, 0u8..6), 1..6),
        plan_seed in 0u64..1_000_000,
        batched in any::<bool>(),
    ) {
        let reference = run_single(0, 1, batched, &pattern);
        for threads in [1usize, 4] {
            let single = run_single(plan_seed, threads, batched, &pattern);
            let fleet = run_fleet(plan_seed, threads, batched, &pattern);
            prop_assert_eq!(
                &fleet, &single,
                "fleet-of-1 must reduce to the single server (threads={}, batched={})",
                threads, batched
            );
            // And the plan seed / thread count are themselves inert: one
            // reference run pins them both.
            prop_assert_eq!(&single, &reference);
        }
    }
}
