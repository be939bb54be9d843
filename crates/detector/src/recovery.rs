//! Fault recovery: one policy, one retry rule, one shedding rule.
//!
//! [`crate::VideoDetector`] recovers one frame at a time and `fd-serve`'s
//! `DetectionServer` recovers batched submissions; both ask the same
//! [`RecoveryPolicy`] what to do with a failed attempt:
//!
//! * **transient faults** are retried in place with deterministic
//!   exponential backoff, at most [`RecoveryPolicy::MAX_RETRIES`] times;
//! * **attributed faults** — when the device names the poisoned batch
//!   slot ([`DetectorError::batch_slot`]) — fail exactly that request
//!   and resubmit the survivors;
//! * **unattributed faults** bisect the batch and resubmit both halves,
//!   so a poisoned request is cornered in `O(log n)` extra submissions
//!   instead of failing `n`;
//! * **request-caused errors** (bad geometry, invalid configuration)
//!   fail the whole group immediately — no retry can fix a malformed
//!   request and it must not consume the fault budget;
//! * **re-attempts under deadline pressure** run a plan with the finest
//!   pyramid scales shed ([`RecoveryPolicy::shed_levels`]).
//!
//! Every decision is a pure function of its arguments, so recovery
//! trajectories are as deterministic as the fault sequences that
//! trigger them.

use crate::error::DetectorError;

/// Backoff schedule; the retry budget and the shedding bound are fixed.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Backoff before retry `k` (0-based) is `backoff_base_ms * 2^k` —
    /// deterministic, no jitter, so fault runs reproduce exactly.
    pub backoff_base_ms: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self { backoff_base_ms: 2.0 }
    }
}

impl RecoveryPolicy {
    /// Transient retries allowed per frame (stream) or per group lineage
    /// (server).
    pub const MAX_RETRIES: u32 = 3;
    /// Most pyramid levels a re-attempt under deadline pressure may shed
    /// (at least one level always runs).
    pub const MAX_SHED_LEVELS: usize = 2;

    /// Deterministic backoff before retry `k` (0-based):
    /// `backoff_base_ms * 2^k`.
    pub fn backoff_ms(&self, retry: u32) -> f64 {
        self.backoff_base_ms * f64::powi(2.0, retry as i32)
    }

    /// Decide how to react to `error` from a submission of `group_len`
    /// requests that has already spent `retries` transient retries.
    pub fn next_step(&self, error: &DetectorError, retries: u32, group_len: usize) -> RecoveryStep {
        if !error.is_device_fault() {
            return RecoveryStep::FailAll;
        }
        if error.is_transient() && retries < Self::MAX_RETRIES {
            return RecoveryStep::RetrySame { backoff_us: self.backoff_ms(retries) * 1000.0 };
        }
        // Timeout, or transient budget exhausted: the launch class is
        // wedged for this composition — peel the poisoned member off.
        if group_len <= 1 {
            return RecoveryStep::FailAll;
        }
        match error.batch_slot() {
            Some(slot) if slot < group_len => RecoveryStep::IsolateSlot { slot },
            _ => RecoveryStep::Bisect,
        }
    }

    /// Pyramid levels a faulted re-attempt of a `plan_len`-level plan
    /// sheds: [`Self::MAX_SHED_LEVELS`] (keeping at least one level) when the
    /// attempt, started at `now` and lasting `last_span` — the span of
    /// the last successful attempt — would end at or past `deadline`;
    /// none otherwise. Any one time unit for all three.
    pub fn shed_levels(&self, now: f64, last_span: f64, deadline: f64, plan_len: usize) -> usize {
        if now + last_span >= deadline {
            Self::MAX_SHED_LEVELS.min(plan_len.saturating_sub(1))
        } else {
            0
        }
    }
}

/// Reaction to one failed submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryStep {
    /// Re-submit the same group after charging `backoff_us`.
    RetrySame { backoff_us: f64 },
    /// Fail the request at `slot`; re-submit the survivors.
    IsolateSlot { slot: usize },
    /// Split the group in half and re-submit both halves.
    Bisect,
    /// Fail every member of the group.
    FailAll,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_gpu::LaunchError;

    fn transient(batch_slot: Option<usize>) -> DetectorError {
        DetectorError::Launch {
            kernel: "cascade_eval",
            level: Some(1),
            frame: None,
            source: LaunchError::InjectedTransient { kernel: "cascade_eval", batch_slot },
        }
    }

    fn timeout(batch_slot: Option<usize>) -> DetectorError {
        DetectorError::Launch {
            kernel: "cascade_eval",
            level: Some(1),
            frame: None,
            source: LaunchError::InjectedTimeout { kernel: "cascade_eval", batch_slot },
        }
    }

    #[test]
    fn transients_retry_with_exponential_backoff_until_budget() {
        let p = RecoveryPolicy::default();
        assert_eq!(
            p.next_step(&transient(None), 0, 4),
            RecoveryStep::RetrySame { backoff_us: 2_000.0 }
        );
        assert_eq!(
            p.next_step(&transient(None), 2, 4),
            RecoveryStep::RetrySame { backoff_us: 8_000.0 }
        );
        // Budget exhausted (three retries): fall to isolation.
        assert_eq!(p.next_step(&transient(None), 3, 4), RecoveryStep::Bisect);
        assert_eq!(p.next_step(&transient(None), 3, 1), RecoveryStep::FailAll);
    }

    #[test]
    fn timeouts_isolate_by_slot_or_bisect() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.next_step(&timeout(Some(2)), 0, 4), RecoveryStep::IsolateSlot { slot: 2 });
        assert_eq!(p.next_step(&timeout(None), 0, 4), RecoveryStep::Bisect);
        // A stale out-of-range slot (cannot index this group) bisects.
        assert_eq!(p.next_step(&timeout(Some(9)), 0, 4), RecoveryStep::Bisect);
        assert_eq!(p.next_step(&timeout(Some(0)), 0, 1), RecoveryStep::FailAll);
    }

    #[test]
    fn request_caused_errors_never_retry() {
        let p = RecoveryPolicy::default();
        let bad = DetectorError::FrameTooSmall { width: 8, height: 8, window: 24 };
        assert_eq!(p.next_step(&bad, 0, 4), RecoveryStep::FailAll);
    }

    #[test]
    fn re_attempts_that_would_miss_the_deadline_shed_up_to_the_bound() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.shed_levels(10.0, 5.0, 16.0, 6), 0, "ends before the deadline");
        assert_eq!(p.shed_levels(10.0, 6.0, 16.0, 6), 2, "ends on the deadline");
        assert_eq!(p.shed_levels(10.0, 6.0, 16.0, 2), 1, "one level always runs");
        assert_eq!(p.shed_levels(10.0, 6.0, 16.0, 0), 0);
    }
}
