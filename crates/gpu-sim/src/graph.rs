//! Dependency graph over pending launches.
//!
//! [`crate::Gpu`] defers the functional phase: launches are enqueued and
//! only executed at a sync point. To preserve the memory effects of serial issue order while letting
//! *independent* launches overlap on the worker pool, each enqueue
//! computes the set of earlier pending launches it must wait for:
//!
//! - **program order** — a launch depends on the previous launch in its
//!   stream, exactly like CUDA stream semantics;
//! - **data hazards** — over the declared [`AccessSet`]s: RAW (a read
//!   depends on the last writer), WAR (a write depends on every reader
//!   since that writer) and WAW (a write depends on the last writer);
//! - **opaque barriers** — a launch that does not declare its accesses
//!   (the [`Kernel::access`](crate::Kernel::access) default) depends on
//!   every earlier pending launch and everything later depends on it.
//!
//! Every edge points from a lower `launch_idx` to a higher one, so the
//! graph is acyclic by construction, and any schedule that respects it
//! produces the same memory state as executing launches one at a time in
//! issue order: two launches touching a common buffer where at least one
//! writes are always ordered, and launches left unordered are
//! confluent — their effects commute.
//!
//! Host-side writes *between* launches (uploads into existing buffers,
//! constant-bank and texture mutation) are handled upstream: [`crate::Gpu`]
//! flushes the queue before any such mutation, so a tracker never sees
//! them. Freshly allocated buffers cannot alias pending work (their ids
//! did not exist at enqueue time), which keeps mid-queue allocation legal.

use std::collections::HashMap;

use crate::memory::AccessSet;
use crate::stream::StreamId;

/// Per-buffer hazard state: who wrote it last, who has read it since.
#[derive(Debug, Default)]
struct BufState {
    last_writer: Option<usize>,
    readers_since: Vec<usize>,
}

/// Incremental dependency tracker. Indices are positions in the pending
/// queue (monotonically increasing between resets); [`DepTracker::reset`]
/// is called whenever the queue drains.
#[derive(Debug, Default)]
pub(crate) struct DepTracker {
    last_in_stream: HashMap<u32, usize>,
    buf_states: HashMap<usize, BufState>,
    last_opaque: Option<usize>,
    next_idx: usize,
    /// Launches enqueued with an undeclared (opaque) access set since the
    /// last harvest. Each is a full-barrier fallback that forbids both
    /// overlap and fusion; [`crate::Gpu::synchronize`] hands the count to
    /// the profiler so silently-serializing kernels are visible.
    opaque_launches: u64,
}

impl DepTracker {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Forget all state; called when the pending queue drains (sync,
    /// cancel).
    pub(crate) fn reset(&mut self) {
        self.last_in_stream.clear();
        self.buf_states.clear();
        self.last_opaque = None;
        self.next_idx = 0;
        self.opaque_launches = 0;
    }

    /// Return and clear the opaque-launch count accumulated since the
    /// last harvest (or reset).
    pub(crate) fn take_opaque_launches(&mut self) -> u64 {
        std::mem::take(&mut self.opaque_launches)
    }

    /// Register the next launch and return the indices of earlier pending
    /// launches it must wait for (sorted, deduplicated).
    pub(crate) fn on_enqueue(&mut self, stream: StreamId, access: &AccessSet) -> Vec<usize> {
        let idx = self.next_idx;
        self.next_idx += 1;
        let mut deps: Vec<usize> = Vec::new();

        // Program order within the stream.
        if let Some(&prev) = self.last_in_stream.get(&stream.0) {
            deps.push(prev);
        }
        self.last_in_stream.insert(stream.0, idx);

        if access.is_opaque() {
            // Full barrier: order against every earlier pending launch.
            // It suffices to depend on all graph *sinks*, but correctness
            // is easier to see (and the queues are short) depending on
            // everything.
            deps.extend(0..idx);
            self.last_opaque = Some(idx);
            self.opaque_launches += 1;
            // An opaque launch may have written any buffer.
            for state in self.buf_states.values_mut() {
                state.last_writer = Some(idx);
                state.readers_since.clear();
            }
        } else {
            if let Some(op) = self.last_opaque {
                deps.push(op);
            }
            for &b in access.read_ids() {
                let state = self.buf_states.entry(b).or_default();
                if let Some(w) = state.last_writer {
                    deps.push(w); // RAW
                }
                state.readers_since.push(idx);
            }
            for &b in access.write_ids() {
                let state = self.buf_states.entry(b).or_default();
                if let Some(w) = state.last_writer {
                    deps.push(w); // WAW
                }
                // WAR: wait for every read since the last write. A launch
                // reading and writing the same buffer lists itself here.
                deps.extend(state.readers_since.iter().copied());
                state.last_writer = Some(idx);
                state.readers_since.clear();
            }
        }

        deps.retain(|&d| d != idx);
        deps.sort_unstable();
        deps.dedup();
        deps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reads(ids: &[usize]) -> AccessSet {
        let mut s = AccessSet::new();
        for &id in ids {
            s.read_id(id);
        }
        s
    }

    fn writes(ids: &[usize]) -> AccessSet {
        let mut s = AccessSet::new();
        for &id in ids {
            s.write_id(id);
        }
        s
    }

    fn opaque() -> AccessSet {
        let mut s = AccessSet::new();
        s.mark_opaque();
        s
    }

    const S0: StreamId = StreamId(0);
    const S1: StreamId = StreamId(1);
    const S2: StreamId = StreamId(2);

    #[test]
    fn stream_program_order_is_preserved() {
        let mut t = DepTracker::new();
        assert!(t.on_enqueue(S0, &writes(&[1])).is_empty());
        assert!(t.on_enqueue(S1, &writes(&[2])).is_empty());
        assert_eq!(t.on_enqueue(S0, &writes(&[3])), vec![0]);
        assert_eq!(t.on_enqueue(S1, &writes(&[4])), vec![1]);
    }

    #[test]
    fn raw_war_waw_hazards_create_edges() {
        let mut t = DepTracker::new();
        assert!(t.on_enqueue(S0, &writes(&[7])).is_empty()); // 0: writes 7
        assert_eq!(t.on_enqueue(S1, &reads(&[7])), vec![0]); // 1: RAW on 7
        assert_eq!(t.on_enqueue(S2, &writes(&[7])), vec![0, 1]); // 2: WAW+WAR

        // A reader after the new writer depends on the new writer only.
        let mut t2 = DepTracker::new();
        t2.on_enqueue(S0, &writes(&[7]));
        t2.on_enqueue(S1, &writes(&[7]));
        assert_eq!(t2.on_enqueue(S2, &reads(&[7])), vec![1]);
    }

    #[test]
    fn read_write_same_buffer_serializes_against_itself_only_once() {
        let mut t = DepTracker::new();
        let mut rw = AccessSet::new();
        rw.read_id(9);
        rw.write_id(9);
        assert!(t.on_enqueue(S0, &rw.clone()).is_empty());
        // Next read-modify-write of the same buffer depends on the
        // previous one exactly once (RAW + WAR dedup to one edge).
        assert_eq!(t.on_enqueue(S1, &rw), vec![0]);
    }

    #[test]
    fn independent_buffers_stay_unordered() {
        let mut t = DepTracker::new();
        t.on_enqueue(S0, &writes(&[1]));
        assert!(t.on_enqueue(S1, &writes(&[2])).is_empty());
        assert!(t.on_enqueue(S2, &reads(&[4]).tap_write(3)).is_empty());
        // …but reading a pending writer's buffer does order.
        assert_eq!(t.on_enqueue(S0, &reads(&[2])), vec![0, 1]);
    }

    #[test]
    fn opaque_launch_is_a_full_barrier() {
        let mut t = DepTracker::new();
        t.on_enqueue(S0, &writes(&[1]));
        t.on_enqueue(S1, &writes(&[2]));
        assert_eq!(t.on_enqueue(S2, &opaque()), vec![0, 1]);
        // Later launches order behind the barrier even on fresh buffers…
        assert_eq!(t.on_enqueue(S0, &writes(&[9])), vec![0, 2]);
        // …and known buffers treat it as their last writer.
        assert_eq!(t.on_enqueue(S1, &reads(&[1])), vec![1, 2]);
    }

    #[test]
    fn reset_forgets_history() {
        let mut t = DepTracker::new();
        t.on_enqueue(S0, &writes(&[1]));
        t.reset();
        assert!(t.on_enqueue(S0, &reads(&[1])).is_empty());
    }

    #[test]
    fn opaque_launches_are_counted_and_taken() {
        let mut t = DepTracker::new();
        t.on_enqueue(S0, &writes(&[1]));
        t.on_enqueue(S1, &opaque());
        t.on_enqueue(S2, &opaque());
        assert_eq!(t.take_opaque_launches(), 2);
        assert_eq!(t.take_opaque_launches(), 0, "harvest clears the count");
        t.on_enqueue(S0, &opaque());
        t.reset();
        assert_eq!(t.take_opaque_launches(), 0, "reset drops unharvested counts");
    }

    impl AccessSet {
        fn tap_write(mut self, id: usize) -> Self {
            self.write_id(id);
            self
        }
    }
}
