//! Dynamic batch formation: when to dispatch, and what to dispatch.
//!
//! The batcher generalizes the paper's per-scale stream concurrency to
//! *cross-request* concurrency: pending single-image requests that share
//! a frame geometry are coalesced into one device submission, where each
//! pyramid-level kernel launches once for the whole batch
//! ([`fd_gpu::Gpu::launch_batched`]). The policy is the classic
//! max-batch / max-wait trade-off:
//!
//! * **dispatch now** when the EDF head's geometry already has
//!   `max_batch_size` joinable requests queued (a full batch gains
//!   nothing by waiting);
//! * **dispatch now** when the longest-waiting queued request has waited
//!   2 ms of virtual time (bounded batching delay — the head must not
//!   starve for stragglers);
//! * **dispatch now** when no future arrivals remain (nobody can join;
//!   waiting only adds latency);
//! * otherwise **wait** until the earliest of the forced-dispatch time
//!   and the next arrival.
//!
//! With `max_batch_size: 1` every head is a full batch, so dispatch is
//! immediate and serving degenerates to plain EDF — the baseline the
//! determinism proptests compare against bit-for-bit.

use crate::queue::RequestQueue;
use crate::request::DetectionRequest;

/// Longest a queued request may wait for co-batchable arrivals before
/// the head is dispatched regardless, in virtual µs.
const MAX_WAIT_US: f64 = 2000.0;

/// Batch-formation policy.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPolicy {
    /// Most requests fused into one device submission (1: unbatched, no
    /// added waiting; 0 counts as 1).
    pub max_batch_size: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self { max_batch_size: 8 }
    }
}

/// What the scheduler should do at the current virtual instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchDecision {
    /// Form a batch around the EDF head and submit it now.
    Dispatch,
    /// Sleep until this virtual time (a forced-dispatch point or the
    /// next arrival), then re-decide. Always strictly in the future.
    WaitUntil(f64),
}

/// Pure decision logic over the queue state — owns no requests itself,
/// so the server's borrow structure stays simple and every decision is a
/// function of (queue, clock, arrival horizon) only.
#[derive(Debug, Clone)]
pub struct DynamicBatcher {
    policy: BatchPolicy,
}

impl DynamicBatcher {
    pub fn new(policy: BatchPolicy) -> Self {
        Self { policy }
    }

    /// The batch-size limit after an external cap (e.g. the health
    /// machine's brown-out shrink) is applied on top of the policy.
    fn capped_max(&self, cap: Option<usize>) -> usize {
        let max = self.policy.max_batch_size.max(1);
        cap.map_or(max, |c| max.min(c.max(1)))
    }

    /// Decide whether to dispatch at `now_us`. `next_arrival_us` is the
    /// earliest future submission (strictly after `now_us`), or `None`
    /// when the arrival calendar is exhausted. `cap` further restricts
    /// the policy's batch size (`None` = policy cap only). The queue
    /// must be non-empty.
    pub fn decide(
        &self,
        queue: &RequestQueue,
        now_us: f64,
        next_arrival_us: Option<f64>,
        cap: Option<usize>,
    ) -> BatchDecision {
        let Some(head) = queue.peek_edf() else {
            return BatchDecision::Dispatch; // vacuous; the server never asks
        };
        let max = self.capped_max(cap);
        if queue.count_geometry(head.geometry()) >= max {
            return BatchDecision::Dispatch;
        }
        let oldest = queue.earliest_arrival_us().unwrap_or(now_us);
        let force_at = oldest + MAX_WAIT_US;
        if now_us >= force_at {
            return BatchDecision::Dispatch;
        }
        match next_arrival_us {
            None => BatchDecision::Dispatch,
            Some(arrival) => BatchDecision::WaitUntil(arrival.min(force_at)),
        }
    }

    /// Remove the batch to dispatch: the EDF head plus up to
    /// `max_batch_size - 1` same-geometry requests in EDF order, further
    /// limited by `cap` when given.
    pub fn form(&self, queue: &mut RequestQueue, cap: Option<usize>) -> Vec<DetectionRequest> {
        let Some(geometry) = queue.peek_edf().map(|r| r.geometry()) else {
            return Vec::new();
        };
        queue.take_batch(geometry, self.capped_max(cap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Priority, RequestId};
    use fd_detector::Backend;
    use fd_imgproc::GrayImage;

    fn req(seq: u64, arrival_us: f64, deadline_us: f64, w: usize) -> DetectionRequest {
        DetectionRequest {
            id: RequestId(seq),
            priority: Priority::Standard,
            arrival_us,
            deadline_us,
            frame: GrayImage::from_fn(w, 4, |_, _| 0.0),
            backend: Backend::Haar,
            seq,
        }
    }

    fn queue_with(reqs: Vec<DetectionRequest>) -> RequestQueue {
        let mut q = RequestQueue::new(64);
        for r in reqs {
            q.offer(r).unwrap();
        }
        q
    }

    #[test]
    fn full_batch_dispatches_immediately() {
        let b = DynamicBatcher::new(BatchPolicy { max_batch_size: 2 });
        let q = queue_with(vec![req(0, 0.0, 1e6, 8), req(1, 0.0, 1e6, 8)]);
        assert_eq!(b.decide(&q, 0.0, Some(50.0), None), BatchDecision::Dispatch);
    }

    #[test]
    fn partial_batch_waits_for_the_next_arrival() {
        let b = DynamicBatcher::new(BatchPolicy { max_batch_size: 4 });
        let q = queue_with(vec![req(0, 0.0, 1e6, 8)]);
        assert_eq!(b.decide(&q, 0.0, Some(300.0), None), BatchDecision::WaitUntil(300.0));
        // ... but never past the forced-dispatch point.
        assert_eq!(b.decide(&q, 0.0, Some(5000.0), None), BatchDecision::WaitUntil(MAX_WAIT_US));
        // Once the head has waited the bound, dispatch regardless.
        assert_eq!(b.decide(&q, MAX_WAIT_US, Some(5000.0), None), BatchDecision::Dispatch);
    }

    #[test]
    fn exhausted_arrivals_dispatch_immediately() {
        let b = DynamicBatcher::new(BatchPolicy::default());
        let q = queue_with(vec![req(0, 0.0, 1e6, 8)]);
        assert_eq!(b.decide(&q, 0.0, None, None), BatchDecision::Dispatch);
    }

    #[test]
    fn disabled_batching_is_immediate_single_dispatch() {
        let b = DynamicBatcher::new(BatchPolicy { max_batch_size: 1 });
        let mut q = queue_with(vec![req(0, 0.0, 1e6, 8), req(1, 0.0, 2e6, 8)]);
        assert_eq!(b.decide(&q, 0.0, Some(10.0), None), BatchDecision::Dispatch);
        let batch = b.form(&mut q, None);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].id, RequestId(0));
    }

    #[test]
    fn external_cap_shrinks_the_batch() {
        let b = DynamicBatcher::new(BatchPolicy { max_batch_size: 8 });
        let mut q = queue_with((0..4).map(|i| req(i, 0.0, 1e6, 8)).collect());
        // A brown-out cap of 2 makes 4 queued requests a "full" batch.
        assert_eq!(b.decide(&q, 0.0, Some(50.0), Some(2)), BatchDecision::Dispatch);
        assert_eq!(b.form(&mut q, Some(2)).len(), 2);
        // A cap above the policy maximum changes nothing: the remaining
        // two requests fit one policy-sized batch.
        assert_eq!(b.form(&mut q, Some(99)).len(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn form_takes_the_heads_geometry_only() {
        let b = DynamicBatcher::new(BatchPolicy::default());
        let mut q = queue_with(vec![
            req(0, 0.0, 100.0, 8),
            req(1, 0.0, 50.0, 16), // head (earliest deadline), 16-wide
            req(2, 0.0, 75.0, 16),
            req(3, 0.0, 60.0, 8),
        ]);
        let batch = b.form(&mut q, None);
        let ids: Vec<_> = batch.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, [1, 2], "head geometry, EDF order");
        assert_eq!(q.len(), 2);
    }
}
