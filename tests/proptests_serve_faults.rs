//! The identity lattice's inert-plan slice: with an inert seeded
//! `FaultPlan` attached, `detect` and a `DetectionServer` (unbatched and
//! batched) complete bit-identically to the same front without a plan, at
//! 1 and 4 host threads — the fault-tolerance stack stays out of the loop
//! until a fault fires.

use proptest::prelude::*;

mod lattice;

use lattice::Front;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// With an inert fault plan, the fault-tolerance stack adds nothing:
    /// detections, latency and completion bits, timelines, profiler and
    /// statistics equal the run with no plan attached.
    #[test]
    fn inert_fault_plans_leave_serving_byte_identical(
        seed in any::<u64>(),
        plan in any::<u64>(),
    ) {
        let fronts =
            [Front::Detect, Front::Server { batched: false }, Front::Server { batched: true }];
        let hosts = lattice::cells(&fronts, &[1, 4], &[Some(plan)]);
        lattice::slice(seed, &lattice::device_pair(seed), &hosts);
    }
}
