//! Server health machine: brown-out admission and a fail-fast breaker.
//!
//! A consecutive-fault circuit breaker with a cool-down and half-open
//! probes keeps a faulting device from burning its budget on doomed
//! work. It is the repository's only breaker, and its reaction is
//! *admission control*:
//!
//! * **Healthy** — full batching, every class admitted;
//! * **BrownOut** — after two consecutive device faults the server
//!   sheds load pre-emptively: the dynamic batcher's cap shrinks to two
//!   (smaller blast radius per faulted submission) and the
//!   lowest-priority class is rejected at arrival;
//! * **Open** — after four consecutive faults the breaker trips: every
//!   arrival is rejected fail-fast (no queueing, no device time) until
//!   20 ms of virtual time pass;
//! * **HalfOpen** — after cool-down one probe batch (cap 1) is allowed
//!   through: success closes the breaker back to Healthy, another device
//!   fault re-opens it for a fresh cool-down.
//!
//! Every transition is driven by the virtual clock and the deterministic
//! fault sequence, so health trajectories are bit-identical across runs
//! and host-thread settings. Under a zero-fault plan the machine never
//! leaves Healthy.

use crate::request::Priority;

/// Health state of the serving loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServerHealth {
    /// Normal operation.
    Healthy,
    /// Sustained faults: shrunken batches, lowest class rejected.
    BrownOut,
    /// Breaker tripped: fail-fast all arrivals until `until_us`.
    Open {
        /// Virtual instant the cool-down ends.
        until_us: f64,
    },
    /// Cool-down elapsed: one probe submission decides re-close/re-open.
    HalfOpen,
}

/// Consecutive device faults before entering BrownOut.
const BROWNOUT_AFTER: u32 = 2;
/// Consecutive device faults before the breaker trips Open.
const OPEN_AFTER: u32 = 4;
/// Batch-size cap while browned out.
const BROWNOUT_BATCH_CAP: usize = 2;
/// Virtual µs the breaker stays Open before probing.
const COOLDOWN_US: f64 = 20_000.0;

/// What a reported device fault did to the machine (for stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultReaction {
    /// No state change.
    None,
    /// Entered BrownOut.
    BrownedOut,
    /// Breaker tripped Healthy/BrownOut → Open.
    Tripped,
    /// A half-open probe failed; breaker re-opened.
    ProbeFailed,
}

/// The breaker itself: consecutive-fault counter plus state.
#[derive(Debug, Clone)]
pub struct HealthMachine {
    state: ServerHealth,
    consecutive_faults: u32,
}

impl Default for HealthMachine {
    fn default() -> Self {
        Self::new()
    }
}

impl HealthMachine {
    pub fn new() -> Self {
        Self { state: ServerHealth::Healthy, consecutive_faults: 0 }
    }

    pub fn state(&self) -> ServerHealth {
        self.state
    }

    /// Consecutive device faults since the last successful submission.
    pub fn consecutive_faults(&self) -> u32 {
        self.consecutive_faults
    }

    /// When Open, the cool-down expiry instant.
    pub fn open_until(&self) -> Option<f64> {
        match self.state {
            ServerHealth::Open { until_us } => Some(until_us),
            _ => None,
        }
    }

    /// Whether the breaker is currently Open (dispatch suspended). The
    /// fleet router consults this directly instead of probing
    /// [`Self::open_until`] for the expiry it does not need.
    pub fn is_open(&self) -> bool {
        matches!(self.state, ServerHealth::Open { .. })
    }

    /// Advance the machine to `now_us`: an expired cool-down moves
    /// Open → HalfOpen. Returns `true` on that transition.
    pub fn tick(&mut self, now_us: f64) -> bool {
        if let ServerHealth::Open { until_us } = self.state {
            if now_us >= until_us {
                self.state = ServerHealth::HalfOpen;
                return true;
            }
        }
        false
    }

    /// Report a successful device submission. Returns `true` when it was
    /// a half-open probe closing the breaker.
    pub fn on_ok(&mut self) -> bool {
        self.consecutive_faults = 0;
        match self.state {
            ServerHealth::HalfOpen => {
                self.state = ServerHealth::Healthy;
                true
            }
            ServerHealth::BrownOut => {
                self.state = ServerHealth::Healthy;
                false
            }
            _ => false,
        }
    }

    /// Report a device fault (an injected launch failure — request-caused
    /// errors must not reach here).
    pub fn on_device_fault(&mut self, now_us: f64) -> FaultReaction {
        self.consecutive_faults = self.consecutive_faults.saturating_add(1);
        match self.state {
            ServerHealth::HalfOpen => {
                self.state = ServerHealth::Open { until_us: now_us + COOLDOWN_US };
                FaultReaction::ProbeFailed
            }
            ServerHealth::Open { .. } => FaultReaction::None,
            ServerHealth::Healthy | ServerHealth::BrownOut => {
                if self.consecutive_faults >= OPEN_AFTER {
                    self.state = ServerHealth::Open { until_us: now_us + COOLDOWN_US };
                    FaultReaction::Tripped
                } else if self.consecutive_faults >= BROWNOUT_AFTER
                    && self.state == ServerHealth::Healthy
                {
                    self.state = ServerHealth::BrownOut;
                    FaultReaction::BrownedOut
                } else {
                    FaultReaction::None
                }
            }
        }
    }

    /// Whether a request of `priority` is admitted at arrival.
    pub fn admits(&self, priority: Priority) -> bool {
        match self.state {
            ServerHealth::Healthy | ServerHealth::HalfOpen => true,
            ServerHealth::BrownOut => priority != Priority::Bulk,
            ServerHealth::Open { .. } => false,
        }
    }

    /// The batch-size cap the current state imposes on the dynamic
    /// batcher (`None` = no cap beyond the batching policy's own).
    pub fn batch_cap(&self) -> Option<usize> {
        match self.state {
            ServerHealth::Healthy => None,
            ServerHealth::BrownOut => Some(BROWNOUT_BATCH_CAP),
            // The half-open probe is a single request; Open never
            // dispatches, the cap is vacuous.
            ServerHealth::HalfOpen | ServerHealth::Open { .. } => Some(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_walk_healthy_to_brownout_to_open() {
        let mut m = HealthMachine::new();
        assert_eq!(m.state(), ServerHealth::Healthy);
        assert!(m.admits(Priority::Bulk));
        assert_eq!(m.on_device_fault(0.0), FaultReaction::None);
        assert_eq!(m.on_device_fault(10.0), FaultReaction::BrownedOut);
        assert_eq!(m.state(), ServerHealth::BrownOut);
        assert!(m.admits(Priority::Interactive));
        assert!(!m.admits(Priority::Bulk), "brown-out sheds the lowest class");
        assert_eq!(m.batch_cap(), Some(2));
        assert_eq!(m.on_device_fault(20.0), FaultReaction::None);
        assert_eq!(m.on_device_fault(30.0), FaultReaction::Tripped);
        assert_eq!(m.state(), ServerHealth::Open { until_us: 30.0 + 20_000.0 });
        assert!(!m.admits(Priority::Interactive), "open fails fast every class");
        assert!(m.is_open());
    }

    #[test]
    fn is_open_tracks_exactly_the_open_state() {
        let mut m = HealthMachine::new();
        assert!(!m.is_open());
        for i in 0..4 {
            m.on_device_fault(i as f64);
        }
        assert!(m.is_open());
        m.tick(m.open_until().unwrap());
        assert!(!m.is_open(), "half-open is not open");
    }

    #[test]
    fn success_closes_brownout_and_resets_the_counter() {
        let mut m = HealthMachine::new();
        m.on_device_fault(0.0);
        m.on_device_fault(1.0);
        assert_eq!(m.state(), ServerHealth::BrownOut);
        assert!(!m.on_ok(), "not a probe");
        assert_eq!(m.state(), ServerHealth::Healthy);
        assert_eq!(m.consecutive_faults(), 0);
    }

    #[test]
    fn cooldown_probes_half_open_then_closes_or_reopens() {
        let mut m = HealthMachine::new();
        for i in 0..4 {
            m.on_device_fault(i as f64);
        }
        let until = m.open_until().unwrap();
        assert!(!m.tick(until - 1.0), "cool-down still running");
        assert!(m.tick(until));
        assert_eq!(m.state(), ServerHealth::HalfOpen);
        assert_eq!(m.batch_cap(), Some(1), "probe is a single request");
        assert!(m.admits(Priority::Bulk), "the probe may be any class");
        // Probe fails: re-armed cool-down from the fault instant.
        assert_eq!(m.on_device_fault(until + 5.0), FaultReaction::ProbeFailed);
        assert_eq!(m.open_until(), Some(until + 5.0 + 20_000.0));
        // Second probe succeeds: breaker closes.
        let until2 = m.open_until().unwrap();
        assert!(m.tick(until2));
        assert!(m.on_ok(), "probe success");
        assert_eq!(m.state(), ServerHealth::Healthy);
    }
}
