//! The bounded, priority-classed request queue.
//!
//! One FIFO ring per [`Priority`](crate::request::Priority) class with a shared per-class depth
//! bound: admission control rejects at the class boundary, so a flood of
//! bulk requests can never crowd interactive traffic out of the queue.
//! *Dispatch* order is not FIFO but earliest-deadline-first across all
//! classes ([`DetectionRequest::edf_cmp`]); class rank only breaks
//! deadline ties and partitions the admission bound.

use std::collections::VecDeque;

use fd_gpu::GeomClass;

use crate::request::DetectionRequest;

/// Bounded multi-class request queue with EDF selection.
pub struct RequestQueue {
    classes: [VecDeque<DetectionRequest>; 3],
    depth_per_class: usize,
}

impl RequestQueue {
    /// A queue admitting at most `depth_per_class` requests per priority
    /// class (minimum 1).
    pub fn new(depth_per_class: usize) -> Self {
        Self {
            classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            depth_per_class: depth_per_class.max(1),
        }
    }

    /// The per-class admission bound.
    pub fn depth_per_class(&self) -> usize {
        self.depth_per_class
    }

    /// Queued requests across all classes.
    pub fn len(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.classes.iter().all(VecDeque::is_empty)
    }

    /// Admit a request, or hand it back when its class is full.
    pub fn offer(&mut self, req: DetectionRequest) -> Result<(), DetectionRequest> {
        let class = &mut self.classes[req.priority.index()];
        if class.len() >= self.depth_per_class {
            return Err(req);
        }
        class.push_back(req);
        Ok(())
    }

    /// The request the EDF scheduler would dispatch next.
    pub fn peek_edf(&self) -> Option<&DetectionRequest> {
        self.classes.iter().flatten().min_by(|a, b| a.edf_cmp(b))
    }

    /// Queued requests whose frames share `geometry` (the only requests
    /// that can join a batch with the current EDF head).
    pub fn count_geometry(&self, geometry: GeomClass) -> usize {
        self.classes.iter().flatten().filter(|r| r.geometry() == geometry).count()
    }

    /// Arrival time of the longest-waiting queued request — the batch
    /// former's forced-dispatch reference point.
    pub fn earliest_arrival_us(&self) -> Option<f64> {
        self.classes.iter().flatten().map(|r| r.arrival_us).min_by(f64::total_cmp)
    }

    /// Remove and return up to `max` requests of `geometry` in EDF order
    /// (the batch the scheduler dispatches as one submission).
    pub fn take_batch(&mut self, geometry: GeomClass, max: usize) -> Vec<DetectionRequest> {
        let mut batch = Vec::new();
        while batch.len() < max {
            let Some((class, idx)) = self
                .classes
                .iter()
                .enumerate()
                .flat_map(|(c, q)| q.iter().enumerate().map(move |(i, r)| ((c, i), r)))
                .filter(|(_, r)| r.geometry() == geometry)
                .min_by(|(_, a), (_, b)| a.edf_cmp(b))
                .map(|(pos, _)| pos)
            else {
                break;
            };
            // remove preserves relative FIFO order of the untouched rest.
            if let Some(r) = self.classes[class].remove(idx) {
                batch.push(r);
            }
        }
        batch
    }

    /// Remove and return every queued request, in EDF order — the fleet
    /// layer's evacuation primitive (breaker-open failover, device kill,
    /// work stealing). Because every selector on this queue is
    /// order-independent (EDF minimum, geometry filter, deadline
    /// filter), draining and re-offering a subset is behavior-neutral.
    pub fn drain_all(&mut self) -> Vec<DetectionRequest> {
        let mut all: Vec<DetectionRequest> =
            self.classes.iter_mut().flat_map(|c| c.drain(..)).collect();
        all.sort_by(|a, b| a.edf_cmp(b));
        all
    }

    /// Remove and return every queued request whose deadline already
    /// passed at `now_us`, in EDF order (the deterministic shed set).
    pub fn take_late(&mut self, now_us: f64) -> Vec<DetectionRequest> {
        let mut late = Vec::new();
        for class in &mut self.classes {
            let mut keep = VecDeque::with_capacity(class.len());
            for r in class.drain(..) {
                if r.deadline_us < now_us {
                    late.push(r);
                } else {
                    keep.push_back(r);
                }
            }
            *class = keep;
        }
        late.sort_by(|a, b| a.edf_cmp(b));
        late
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Priority, RequestId};
    use fd_detector::Backend;
    use fd_imgproc::GrayImage;

    fn req(seq: u64, priority: Priority, deadline_us: f64, w: usize) -> DetectionRequest {
        DetectionRequest {
            id: RequestId(seq),
            priority,
            arrival_us: seq as f64,
            deadline_us,
            frame: GrayImage::from_fn(w, 4, |_, _| 0.0),
            backend: Backend::Haar,
            seq,
        }
    }

    #[test]
    fn class_depth_is_bounded_independently() {
        let mut q = RequestQueue::new(2);
        assert!(q.offer(req(0, Priority::Bulk, 10.0, 8)).is_ok());
        assert!(q.offer(req(1, Priority::Bulk, 10.0, 8)).is_ok());
        let rejected = q.offer(req(2, Priority::Bulk, 10.0, 8));
        assert_eq!(rejected.unwrap_err().id, RequestId(2));
        // A full bulk class does not block interactive admission.
        assert!(q.offer(req(3, Priority::Interactive, 10.0, 8)).is_ok());
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn edf_peek_spans_classes() {
        let mut q = RequestQueue::new(8);
        q.offer(req(0, Priority::Interactive, 300.0, 8)).unwrap();
        q.offer(req(1, Priority::Bulk, 100.0, 8)).unwrap();
        q.offer(req(2, Priority::Standard, 200.0, 8)).unwrap();
        assert_eq!(q.peek_edf().unwrap().id, RequestId(1), "earliest deadline wins");
    }

    #[test]
    fn take_batch_filters_geometry_in_edf_order() {
        let mut q = RequestQueue::new(8);
        q.offer(req(0, Priority::Standard, 300.0, 8)).unwrap();
        q.offer(req(1, Priority::Standard, 100.0, 16)).unwrap(); // other geometry
        q.offer(req(2, Priority::Standard, 200.0, 8)).unwrap();
        q.offer(req(3, Priority::Standard, 50.0, 8)).unwrap();
        let batch = q.take_batch(GeomClass::of(8, 4), 2);
        let ids: Vec<_> = batch.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, [3, 2], "EDF order within the geometry");
        assert_eq!(q.len(), 2);
        assert_eq!(q.count_geometry(GeomClass::of(16, 4)), 1);
    }

    #[test]
    fn take_late_sheds_exactly_the_expired() {
        let mut q = RequestQueue::new(8);
        q.offer(req(0, Priority::Standard, 100.0, 8)).unwrap();
        q.offer(req(1, Priority::Bulk, 99.0, 8)).unwrap();
        q.offer(req(2, Priority::Interactive, 150.0, 8)).unwrap();
        let late = q.take_late(100.0);
        let ids: Vec<_> = late.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, [1], "deadline == now is not yet late");
        assert_eq!(q.len(), 2);
        assert!(q.take_late(1000.0).len() == 2);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_all_empties_every_class_in_edf_order() {
        let mut q = RequestQueue::new(8);
        q.offer(req(0, Priority::Standard, 300.0, 8)).unwrap();
        q.offer(req(1, Priority::Bulk, 100.0, 8)).unwrap();
        q.offer(req(2, Priority::Interactive, 200.0, 16)).unwrap();
        let drained = q.drain_all();
        let ids: Vec<_> = drained.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, [1, 2, 0], "EDF order across classes and geometries");
        assert!(q.is_empty());
        assert!(q.drain_all().is_empty());
    }

    #[test]
    fn earliest_arrival_tracks_the_longest_waiter() {
        let mut q = RequestQueue::new(8);
        assert!(q.earliest_arrival_us().is_none());
        q.offer(req(5, Priority::Bulk, 900.0, 8)).unwrap();
        q.offer(req(2, Priority::Standard, 800.0, 8)).unwrap();
        assert_eq!(q.earliest_arrival_us(), Some(2.0));
    }
}
