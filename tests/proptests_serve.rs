//! The identity lattice's serving slice: a `DetectionServer` open loop
//! with mixed priorities, unbatched (`max_batch_size: 1`) and batched, at
//! 1, 2 and 4 host threads. Unbatched, every request's raw windows,
//! grouped detections, latency bits and timeline, and the device's
//! profiler, are per-request `detect`'s in arrival order; either way the
//! completion log and `ServeStats` are the one-thread run's.

use proptest::prelude::*;

mod lattice;

use lattice::Front;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Max-batch-size 1 == per-request detector calls in arrival order,
    /// bit for bit, and the whole run is host-thread invariant.
    #[test]
    fn unbatched_serving_is_bitwise_per_request_detection(seed in any::<u64>()) {
        let fronts = [Front::Server { batched: false }, Front::Server { batched: true }];
        let hosts = lattice::cells(&fronts, &[1, 2, 4], &[None]);
        lattice::slice(seed, &lattice::device_pair(seed), &hosts);
    }
}
