//! Request types: identifiers, priority classes and the queued record.

use fd_detector::Backend;
use fd_imgproc::GrayImage;

use crate::server::{CompletedRequest, RequestOutcome};

/// A frame's geometry, the batching and affinity key: batches only form
/// across equal classes, and the router prefers a lane that has served
/// the class before.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GeomClass {
    pub width: u32,
    pub height: u32,
}

impl GeomClass {
    pub fn of(width: usize, height: usize) -> Self {
        Self { width: width as u32, height: height as u32 }
    }
}

/// Opaque handle identifying one submitted request. Assigned by the
/// server in submission order; stable across the request's lifetime and
/// reported back on every [`crate::CompletedRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// Priority class of a request. Classes have separate bounded queue
/// depths (so bulk traffic cannot starve interactive admission) and act
/// as the tie-breaker between requests with equal deadlines: lower rank
/// dispatches first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// User-facing, latency-sensitive (tightest SLOs).
    Interactive,
    /// Default class.
    Standard,
    /// Background / best-effort (offline indexing, re-processing).
    Bulk,
}

impl Priority {
    /// All classes, in rank order (highest priority first).
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Standard, Priority::Bulk];

    /// Rank of this class: 0 = most urgent. Also the per-class index in
    /// queue-depth and statistics arrays.
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Standard => 1,
            Priority::Bulk => 2,
        }
    }

    /// Human-readable class name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Bulk => "bulk",
        }
    }
}

/// One pending detection request as the scheduler sees it. Times are in
/// virtual microseconds on the server's clock.
#[derive(Debug, Clone)]
pub struct DetectionRequest {
    pub id: RequestId,
    pub priority: Priority,
    /// When the request reaches the server.
    pub arrival_us: f64,
    /// Absolute deadline (`arrival_us + slo_us`). Requests still queued
    /// past this instant are shed (when shedding is enabled).
    pub deadline_us: f64,
    /// The luma frame to run detection on.
    pub frame: GrayImage,
    /// Which detection engine serves this request. The third axis of
    /// the request class (with priority and geometry): batches only
    /// form on a lane whose detector matches, so a batch is always one
    /// engine's kernel chain.
    pub backend: Backend,
    /// Submission sequence number: the final, always-unique tie-breaker
    /// that makes every scheduling order total and deterministic.
    pub(crate) seq: u64,
}

impl DetectionRequest {
    /// Frame geometry class; batches only form across equal classes.
    pub fn geometry(&self) -> GeomClass {
        GeomClass::of(self.frame.width(), self.frame.height())
    }

    /// Earliest-deadline-first total order: deadline, then priority
    /// rank, then submission sequence. All three components are finite
    /// and unique-in-the-last, so the order is total and deterministic
    /// (validated times are finite; `total_cmp` needs no NaN caveats).
    pub fn edf_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.deadline_us
            .total_cmp(&other.deadline_us)
            .then(self.priority.index().cmp(&other.priority.index()))
            .then(self.seq.cmp(&other.seq))
    }

    /// The request's completion record with `outcome` (the frame is
    /// dropped).
    pub(crate) fn complete(self, outcome: RequestOutcome) -> CompletedRequest {
        CompletedRequest {
            id: self.id,
            priority: self.priority,
            backend: self.backend,
            arrival_us: self.arrival_us,
            deadline_us: self.deadline_us,
            outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(seq: u64, priority: Priority, deadline_us: f64) -> DetectionRequest {
        DetectionRequest {
            id: RequestId(seq),
            priority,
            arrival_us: 0.0,
            deadline_us,
            frame: GrayImage::from_fn(4, 4, |_, _| 0.0),
            backend: Backend::Haar,
            seq,
        }
    }

    #[test]
    fn edf_orders_by_deadline_then_priority_then_seq() {
        let early = req(5, Priority::Bulk, 100.0);
        let late = req(1, Priority::Interactive, 200.0);
        assert!(early.edf_cmp(&late).is_lt(), "deadline dominates priority");

        let a = req(7, Priority::Interactive, 100.0);
        assert!(a.edf_cmp(&early).is_lt(), "priority breaks deadline ties");

        let b = req(8, Priority::Interactive, 100.0);
        assert!(a.edf_cmp(&b).is_lt(), "sequence breaks full ties");
        assert!(a.edf_cmp(&a).is_eq());
    }

    #[test]
    fn priority_ranks_are_stable() {
        assert_eq!(Priority::ALL.map(Priority::index), [0, 1, 2]);
        assert_eq!(Priority::Interactive.name(), "interactive");
    }
}
