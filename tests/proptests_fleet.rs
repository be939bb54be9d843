//! The identity lattice's fleet slice: a `FleetServer` of one device,
//! unbatched and batched, with and without an inert seeded `FaultPlan`, at
//! 1 and 4 host threads, completes bit-identically to the single
//! `DetectionServer` at one thread without a plan: same completion log,
//! same merged `ServeStats`, same detections and device state. The fleet
//! machinery (routing, admission ledger, failover, stealing, eviction) is
//! bookkeeping until there is a second device or a lifecycle command.

use proptest::prelude::*;

mod lattice;

use lattice::Front;

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
