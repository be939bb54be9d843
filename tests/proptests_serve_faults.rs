//! Property-based tests for the fault-tolerance layer's zero-cost
//! guarantee: when no fault can fire, the retry/health machinery is
//! *inert* — a server with an inert seeded `FaultPlan` attached
//! completes bit-identically to the same server with no plan at all,
//! across host thread counts and batch sizes.

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

fn run_server(
    plan_seed: Option<u64>,
    host_threads: usize,
    max_batch_size: usize,
    pattern: &[(u32, u8)],
) -> Vec<Fingerprint> {
    let det = DetectorConfig {
        min_neighbors: 1,
        host_threads: Some(host_threads),
        fault_plan: plan_seed.map(facedet::gpu::FaultPlan::seeded),
        ..DetectorConfig::default()
    };
    let cfg = ServeConfig {
        batch: BatchPolicy { max_batch_size, ..BatchPolicy::default() },
        ..ServeConfig::default()
    };
    let mut server =
        DetectionServer::new(&edge_cascade(), det, cfg).expect("server construction");
    let mut t = 0.0f64;
    for &(gap_us, variant) in pattern {
        t += gap_us as f64;
        server
            .submit(frame(variant), Priority::Standard, t, 1e9)
            .expect("valid submission");
    }
    server.run();
    server
        .completed()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// With an inert fault plan, the fault-tolerance stack adds nothing:
    /// the run completes bit-identically to one with no plan attached —
    /// at 1 and 4 host threads, batch sizes 1 and 8.
    #[test]
    fn inert_fault_plans_leave_serving_byte_identical(
        pattern in proptest::collection::vec((0u32..4000, 0u8..6), 1..6),
        plan_seed in 0u64..1_000_000,
    ) {
        for batch in [1usize, 8] {
            let baseline = run_server(None, 1, batch, &pattern);
            for threads in [1usize, 4] {
                let ft = run_server(Some(plan_seed), threads, batch, &pattern);
                prop_assert_eq!(
                    &ft, &baseline,
                    "an inert plan must be invisible (threads={}, batch={})",
                    threads, batch
                );
            }
        }
    }
}
