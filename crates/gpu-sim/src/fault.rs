//! Deterministic fault injection for the simulated device.
//!
//! A [`FaultPlan`] attached to a [`crate::Gpu`] (or, for copies, to a
//! [`crate::DeviceMemory`]) injects failures that real deployments of the
//! paper's pipeline must survive: launches that time out under engine
//! contention, transient launch errors that a bounded retry recovers,
//! stream stalls (latency spikes in the timing simulation), and
//! corruption of device↔host copies modelled as *poisoned regions*.
//!
//! Every injection decision is a pure function of `(seed, domain,
//! counter)` — no global RNG state — so a given plan reproduces the same
//! fault sequence on every run, at any host thread count, which is what
//! makes fault-matrix tests and bisection of recovery bugs possible. A
//! plan whose rates are all zero is *inert*: the device behaves
//! bit-identically to one with no plan at all (no draws influence any
//! result, and the functional phase never consults the plan).

/// Stateless SplitMix64 step, the same generator family the synthetic
/// data paths use. Kept local so `fd-gpu` stays dependency-free.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Independent draw domains so that, e.g., enabling stalls does not shift
/// the launch-failure sequence.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultDomain {
    LaunchTimeout = 1,
    LaunchTransient = 2,
    StreamStall = 3,
    CopyCorruption = 4,
    /// Sub-draws positioning the poisoned region within a buffer.
    CorruptionOffset = 5,
    /// Sub-draws attributing an injected launch fault to one slot of a
    /// batched launch (the part whose blocks hit the fault). Drawn only
    /// when a fault actually fires, in its own domain, so attribution
    /// never shifts any other draw sequence.
    BatchAttribution = 6,
}

/// Mix `(seed, domain)` into a full-width base *before* the counter is
/// folded in. A plain `seed ^ counter` would let a small seed merely
/// permute the low counter values — every small seed would then draw
/// the same *set* of verdicts over a short run, so seed sweeps at low
/// fault rates would not actually vary the fault pattern.
#[inline]
fn draw_base(seed: u64, domain: FaultDomain) -> u64 {
    splitmix64(seed ^ (domain as u64).wrapping_mul(0xA24BAED4963EE407))
}

/// Deterministic uniform draw in `[0, 1)` for `(seed, domain, counter)`.
#[inline]
pub(crate) fn fault_draw(seed: u64, domain: FaultDomain, counter: u64) -> f64 {
    let h = splitmix64(draw_base(seed, domain).wrapping_add(counter));
    // 53 high bits -> f64 in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic u64 for `(seed, domain, counter)` (region placement).
#[inline]
pub(crate) fn fault_bits(seed: u64, domain: FaultDomain, counter: u64) -> u64 {
    splitmix64(draw_base(seed, domain).wrapping_add(counter))
}

/// A seeded, deterministic fault-injection plan.
///
/// All rates are probabilities in `[0, 1]` evaluated per injectable event
/// (per launch attempt, per host↔device copy). The default plan is inert.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every draw this plan makes.
    pub seed: u64,
    /// Probability a launch attempt fails with an *unrecoverable*
    /// [`crate::LaunchError::InjectedTimeout`].
    pub launch_timeout_rate: f64,
    /// Probability a launch attempt fails with a *transient*
    /// [`crate::LaunchError::InjectedTransient`] (a retry draws afresh).
    pub transient_launch_rate: f64,
    /// Probability a successful launch suffers a stream stall: an extra
    /// `stall_us` of memory latency charged to the launch's first block.
    pub stall_rate: f64,
    /// Stall magnitude, microseconds of device time.
    pub stall_us: f64,
    /// Probability a device↔host copy corrupts a region of the data.
    pub copy_corruption_rate: f64,
    /// Length of the poisoned region, in elements (clamped to the copy).
    pub corrupt_region_len: usize,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::seeded(0)
    }
}

impl FaultPlan {
    /// An inert plan (all rates zero) with the given seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            launch_timeout_rate: 0.0,
            transient_launch_rate: 0.0,
            stall_rate: 0.0,
            stall_us: 500.0,
            copy_corruption_rate: 0.0,
            corrupt_region_len: 64,
        }
    }

    pub fn with_launch_timeouts(mut self, rate: f64) -> Self {
        self.launch_timeout_rate = rate;
        self
    }

    pub fn with_transient_launch_failures(mut self, rate: f64) -> Self {
        self.transient_launch_rate = rate;
        self
    }

    pub fn with_stream_stalls(mut self, rate: f64, stall_us: f64) -> Self {
        self.stall_rate = rate;
        self.stall_us = stall_us;
        self
    }

    pub fn with_copy_corruption(mut self, rate: f64) -> Self {
        self.copy_corruption_rate = rate;
        self
    }

    /// Stall magnitude converted to shader-clock cycles at `clock_ghz`
    /// (the unit [`crate::sched`] charges against a launch's first block).
    pub fn stall_cycles(&self, clock_ghz: f64) -> f64 {
        self.stall_us * clock_ghz * 1e3
    }

    /// The plan a fleet replica `index` runs: identical rates and
    /// magnitudes, but an independently mixed seed per replica so the
    /// devices of a multi-GPU fleet fault independently rather than in
    /// lockstep. Replica 0 keeps the plan verbatim — a fleet of one
    /// reproduces the original device's fault sequence bit-for-bit.
    /// An inert plan stays inert on every replica.
    pub fn for_replica(&self, index: u64) -> FaultPlan {
        if index == 0 {
            return self.clone();
        }
        FaultPlan {
            seed: splitmix64(self.seed ^ index.wrapping_mul(0xD1B54A32D192ED03)),
            ..self.clone()
        }
    }

    /// `true` when no fault can ever fire: the device is guaranteed to
    /// behave bit-identically to one without a plan.
    pub fn is_inert(&self) -> bool {
        self.launch_timeout_rate <= 0.0
            && self.transient_launch_rate <= 0.0
            && self.stall_rate <= 0.0
            && self.copy_corruption_rate <= 0.0
    }
}

/// Position in a plan's deterministic draw sequences. Because every
/// injection verdict is a pure function of `(seed, domain, counter)`,
/// capturing the counters and seeking a fresh device to them replays the
/// *remaining* fault sequence exactly — the primitive that makes
/// checkpoint/resume of a faulted stream bit-identical to the
/// uninterrupted run (see `fd-detector`'s `StreamCheckpoint`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCursor {
    /// Launch attempts drawn against the plan ([`crate::Gpu`] side).
    pub launch_attempts: u64,
    /// Host↔device copy verdicts drawn ([`crate::DeviceMemory`] side).
    pub copy_draws: u64,
}

/// Counts of faults actually injected by a device since plan attachment
/// (or the last [`crate::Gpu::set_fault_plan`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Launch attempts rejected with an injected timeout.
    pub launch_timeouts: u64,
    /// Launch attempts rejected with an injected transient failure.
    pub transient_launch_failures: u64,
    /// Launches that suffered an injected stream stall.
    pub stream_stalls: u64,
    /// Total launch attempts evaluated against the plan.
    pub launch_attempts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_domain_independent() {
        let a = fault_draw(7, FaultDomain::LaunchTimeout, 3);
        let b = fault_draw(7, FaultDomain::LaunchTimeout, 3);
        assert_eq!(a, b);
        let c = fault_draw(7, FaultDomain::LaunchTransient, 3);
        assert_ne!(a, c, "domains must draw independently");
        assert!((0.0..1.0).contains(&a));
    }

    #[test]
    fn draw_rate_approximates_probability() {
        let n = 20_000;
        let hits =
            (0..n).filter(|&i| fault_draw(42, FaultDomain::CopyCorruption, i) < 0.05).count();
        let rate = hits as f64 / n as f64;
        assert!((0.03..0.07).contains(&rate), "empirical rate {rate}");
    }

    #[test]
    fn small_seeds_draw_independent_sequences() {
        // Regression: `seed ^ counter` used to make every small seed a
        // permutation of the same draw set, so a seed sweep at a low
        // rate either all fired or all stayed clean. Distinct seeds must
        // produce genuinely different verdict sets over a short run.
        let hits = |seed: u64| {
            (0..40u64).filter(|&c| fault_draw(seed, FaultDomain::LaunchTimeout, c) < 0.02).count()
        };
        let counts: Vec<usize> = (0..32).map(hits).collect();
        assert!(counts.contains(&0), "some seeds must stay clean at 2%/40");
        assert!(counts.iter().any(|&c| c > 0), "some seeds must fire at 2%/40");
    }

    #[test]
    fn inert_plan_detection() {
        assert!(FaultPlan::seeded(1).is_inert());
        assert!(!FaultPlan::seeded(1).with_transient_launch_failures(0.05).is_inert());
        assert!(!FaultPlan::seeded(1).with_stream_stalls(0.1, 300.0).is_inert());
    }

    #[test]
    fn replica_plans_preserve_rates_and_fault_independently() {
        let base = FaultPlan::seeded(9).with_transient_launch_failures(0.1);
        assert_eq!(base.for_replica(0), base, "replica 0 is the original device");
        let r1 = base.for_replica(1);
        let r2 = base.for_replica(2);
        assert_eq!(r1.transient_launch_rate, base.transient_launch_rate);
        assert_ne!(r1.seed, base.seed);
        assert_ne!(r1.seed, r2.seed);
        // Same replica index always derives the same seed.
        assert_eq!(base.for_replica(1), r1);
        // The derived seeds draw genuinely different verdict sequences.
        let verdicts = |p: &FaultPlan| -> Vec<bool> {
            (0..64)
                .map(|c| {
                    fault_draw(p.seed, FaultDomain::LaunchTransient, c) < p.transient_launch_rate
                })
                .collect()
        };
        assert_ne!(verdicts(&base), verdicts(&r1), "replicas must not fault in lockstep");
        assert_ne!(verdicts(&r1), verdicts(&r2));
        // Inertness survives replica derivation.
        assert!(FaultPlan::seeded(3).for_replica(5).is_inert());
    }
}
