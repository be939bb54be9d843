//! Serving statistics: latency histograms, shed/batch-occupancy and
//! queue-depth accounting. All times are virtual microseconds.

use fd_detector::Backend;

use crate::server::{CompletedRequest, RequestOutcome};

/// Exact latency histogram: keeps every sample and answers quantiles by
/// sorted rank. Serving runs are bounded (one sample per served
/// request), so exactness is affordable and keeps the quantiles — and
/// therefore the benches' pass/fail assertions — fully deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHistogram {
    samples_us: Vec<f64>,
}

impl LatencyHistogram {
    pub fn record(&mut self, latency_us: f64) {
        self.samples_us.push(latency_us);
    }

    /// The raw samples, in recording order.
    pub fn samples_us(&self) -> &[f64] {
        &self.samples_us
    }

    /// Fold `other`'s samples into this histogram. Because quantiles are
    /// answered from the full sample set, the merged histogram's
    /// quantiles are *exact* — identical to recomputing over the union
    /// of both sample sets, never an approximation.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.samples_us.extend_from_slice(&other.samples_us);
    }

    pub fn len(&self) -> usize {
        self.samples_us.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples_us.is_empty()
    }

    /// The `q`-quantile (0 < q <= 1) by nearest-rank; 0 when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.samples_us.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples_us.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn p50_us(&self) -> f64 {
        self.quantile_us(0.50)
    }

    pub fn p95_us(&self) -> f64 {
        self.quantile_us(0.95)
    }

    pub fn p99_us(&self) -> f64 {
        self.quantile_us(0.99)
    }
}

/// Aggregate accounting for one serving run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests submitted to the arrival calendar.
    pub submitted: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed because their deadline passed while queued.
    pub shed_late: u64,
    /// Requests refused at arrival because their class queue was full.
    pub rejected_full: u64,
    /// Per-class breakdown of `rejected_full` (indexed by
    /// [`Priority::index`](crate::request::Priority::index)).
    pub rejected_per_class: [u64; 3],
    /// Requests whose batch failed on the device (after recovery, when
    /// enabled, exhausted its options).
    pub failed: u64,
    /// Requests completed with a shed-scale (degraded) plan under
    /// deadline pressure during fault recovery.
    pub degraded_completions: u64,
    /// Requests whose deadline passed mid-recovery (retries abandoned).
    pub expired: u64,
    /// Requests refused at arrival while the server was browned out.
    pub rejected_brownout: u64,
    /// Requests refused fail-fast while the breaker was open.
    pub rejected_failfast: u64,
    /// Requests evicted from a lost (killed or draining) fleet device
    /// that no surviving replica could take. Only the fleet layer emits
    /// these; a single server never does.
    pub evicted: u64,
    /// Same-group re-submissions issued for transient faults.
    pub retries_issued: u64,
    /// Virtual µs of retry backoff charged to the clock.
    pub retry_backoff_us: f64,
    /// Failed groups split in half to corner an unattributed fault.
    pub batches_bisected: u64,
    /// Requests isolated as the poisoned member of a faulted batch
    /// (device-attributed slot or cornered by bisection).
    pub poisoned_requests: u64,
    /// Event-loop steps spent in a non-Healthy state.
    pub brownout_ticks: u64,
    /// Times the breaker tripped to Open (including failed probes).
    pub breaker_trips: u64,
    /// Half-open probes that closed the breaker.
    pub probes_succeeded: u64,
    /// Half-open probes that re-opened the breaker.
    pub probes_failed: u64,
    /// Served requests that completed by their deadline.
    pub deadline_met: u64,
    /// Served requests that completed after their deadline.
    pub deadline_missed: u64,
    /// Device submissions dispatched.
    pub batches: u64,
    /// Requests carried by those submissions (occupancy numerator).
    pub batched_requests: u64,
    /// High-water mark of total queued requests.
    pub max_queue_depth: usize,
    /// Virtual µs the device spent executing submissions.
    pub gpu_busy_us: f64,
    /// Virtual time of the last completion.
    pub makespan_us: f64,
    /// Queueing + service latency of completed requests (served and
    /// degraded).
    pub latency: LatencyHistogram,
    /// Per-class latency (indexed by [`Priority::index`](crate::request::Priority::index)).
    pub latency_per_class: [LatencyHistogram; 3],
    /// Submissions per detection backend (indexed by
    /// [`Backend::index`]).
    pub submitted_per_backend: [u64; 2],
    /// Served completions per backend.
    pub served_per_backend: [u64; 2],
    /// Degraded completions per backend.
    pub degraded_per_backend: [u64; 2],
    /// Per-backend latency of completed requests (served and degraded),
    /// the mixed-traffic tiering the `serve mixed` bench gates on.
    pub latency_per_backend: [LatencyHistogram; 2],
}

impl ServeStats {
    /// Count one request's terminal outcome: its outcome counter, the
    /// per-class and per-backend splits, and for a request that produced
    /// a result (served or degraded) its latency samples and whether it
    /// met its deadline. Every outcome passes through here once, so the
    /// outcome counters sum to `submitted` once a run is idle.
    pub fn record(&mut self, done: &CompletedRequest) {
        let backend = done.backend.index();
        match done.outcome {
            RequestOutcome::Served { .. } => {
                self.served += 1;
                self.served_per_backend[backend] += 1;
            }
            RequestOutcome::Degraded { .. } => {
                self.degraded_completions += 1;
                self.degraded_per_backend[backend] += 1;
            }
            RequestOutcome::ShedLate { .. } => self.shed_late += 1,
            RequestOutcome::RejectedQueueFull => {
                self.rejected_full += 1;
                self.rejected_per_class[done.priority.index()] += 1;
            }
            RequestOutcome::RejectedBrownOut => self.rejected_brownout += 1,
            RequestOutcome::RejectedFailFast => self.rejected_failfast += 1,
            RequestOutcome::Failed { .. } => self.failed += 1,
            RequestOutcome::Expired { .. } => self.expired += 1,
            RequestOutcome::Evicted { .. } => self.evicted += 1,
        }
        if let (Some(latency), Some(met)) = (done.latency_us(), done.met_deadline()) {
            self.latency.record(latency);
            self.latency_per_class[done.priority.index()].record(latency);
            self.latency_per_backend[backend].record(latency);
            if met {
                self.deadline_met += 1;
            } else {
                self.deadline_missed += 1;
            }
        }
    }

    /// Mean requests per device submission (1.0 = batching bought
    /// nothing, `max_batch_size` = perfectly full batches).
    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batched_requests as f64 / self.batches as f64
    }

    /// Served requests per virtual second.
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_us <= 0.0 {
            return 0.0;
        }
        self.served as f64 / (self.makespan_us / 1e6)
    }

    /// Latency histogram of one detection backend.
    pub fn backend_latency(&self, backend: Backend) -> &LatencyHistogram {
        &self.latency_per_backend[backend.index()]
    }

    /// Useful completions (full or degraded) of one backend per
    /// submission to that backend — per-tier goodput for mixed traffic.
    pub fn backend_goodput(&self, backend: Backend) -> f64 {
        let i = backend.index();
        if self.submitted_per_backend[i] == 0 {
            return 0.0;
        }
        (self.served_per_backend[i] + self.degraded_per_backend[i]) as f64
            / self.submitted_per_backend[i] as f64
    }

    /// Useful completions (full or degraded) per submitted request —
    /// the fault-tolerance figure of merit the chaos bench gates on.
    pub fn goodput(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        (self.served + self.degraded_completions) as f64 / self.submitted as f64
    }

    /// Roll `other` into this report — the fleet aggregator that turns
    /// per-device stats into one fleet-wide view. Counters and busy time
    /// add; high-water marks (`max_queue_depth`, `makespan_us`) take the
    /// max; latency histograms merge by sample union, so the merged
    /// quantiles are exact (see [`LatencyHistogram::merge`]). The
    /// exhaustive destructure makes adding a `ServeStats` field without
    /// deciding its merge rule a compile error.
    pub fn merge(&mut self, other: &ServeStats) {
        let ServeStats {
            submitted,
            served,
            shed_late,
            rejected_full,
            rejected_per_class,
            failed,
            degraded_completions,
            expired,
            rejected_brownout,
            rejected_failfast,
            evicted,
            retries_issued,
            retry_backoff_us,
            batches_bisected,
            poisoned_requests,
            brownout_ticks,
            breaker_trips,
            probes_succeeded,
            probes_failed,
            deadline_met,
            deadline_missed,
            batches,
            batched_requests,
            max_queue_depth,
            gpu_busy_us,
            makespan_us,
            latency,
            latency_per_class,
            submitted_per_backend,
            served_per_backend,
            degraded_per_backend,
            latency_per_backend,
        } = other;
        self.submitted += submitted;
        self.served += served;
        self.shed_late += shed_late;
        self.rejected_full += rejected_full;
        for (mine, theirs) in self.rejected_per_class.iter_mut().zip(rejected_per_class) {
            *mine += theirs;
        }
        self.failed += failed;
        self.degraded_completions += degraded_completions;
        self.expired += expired;
        self.rejected_brownout += rejected_brownout;
        self.rejected_failfast += rejected_failfast;
        self.evicted += evicted;
        self.retries_issued += retries_issued;
        self.retry_backoff_us += retry_backoff_us;
        self.batches_bisected += batches_bisected;
        self.poisoned_requests += poisoned_requests;
        self.brownout_ticks += brownout_ticks;
        self.breaker_trips += breaker_trips;
        self.probes_succeeded += probes_succeeded;
        self.probes_failed += probes_failed;
        self.deadline_met += deadline_met;
        self.deadline_missed += deadline_missed;
        self.batches += batches;
        self.batched_requests += batched_requests;
        self.max_queue_depth = self.max_queue_depth.max(*max_queue_depth);
        self.gpu_busy_us += gpu_busy_us;
        self.makespan_us = self.makespan_us.max(*makespan_us);
        self.latency.merge(latency);
        for (mine, theirs) in self.latency_per_class.iter_mut().zip(latency_per_class) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.submitted_per_backend.iter_mut().zip(submitted_per_backend) {
            *mine += theirs;
        }
        for (mine, theirs) in self.served_per_backend.iter_mut().zip(served_per_backend) {
            *mine += theirs;
        }
        for (mine, theirs) in self.degraded_per_backend.iter_mut().zip(degraded_per_backend) {
            *mine += theirs;
        }
        for (mine, theirs) in self.latency_per_backend.iter_mut().zip(latency_per_backend) {
            mine.merge(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut h = LatencyHistogram::default();
        for v in [50.0, 10.0, 30.0, 20.0, 40.0] {
            h.record(v);
        }
        assert_eq!(h.p50_us(), 30.0);
        assert_eq!(h.quantile_us(0.2), 10.0);
        assert_eq!(h.p99_us(), 50.0);
        assert_eq!(h.len(), 5);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = LatencyHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.p99_us(), 0.0);
    }

    #[test]
    fn occupancy_and_throughput_derive_from_counters() {
        let stats = ServeStats {
            served: 20,
            batches: 5,
            batched_requests: 20,
            makespan_us: 2_000_000.0,
            ..ServeStats::default()
        };
        assert_eq!(stats.mean_batch_occupancy(), 4.0);
        assert_eq!(stats.throughput_rps(), 10.0);
        assert_eq!(ServeStats::default().mean_batch_occupancy(), 0.0);
        assert_eq!(ServeStats::default().throughput_rps(), 0.0);
    }

    #[test]
    fn merged_quantiles_equal_recomputing_from_the_union() {
        // Three per-device sample sets with distinct shapes.
        let sets: [&[f64]; 3] = [&[900.0, 120.0, 340.0], &[55.0, 2100.0, 640.0, 10.0], &[470.0]];
        let mut merged = ServeStats::default();
        let mut union = LatencyHistogram::default();
        for samples in sets {
            let mut device = ServeStats::default();
            for &s in samples {
                device.latency.record(s);
                device.latency_per_class[1].record(s);
                union.record(s);
            }
            device.served = samples.len() as u64;
            device.submitted = samples.len() as u64;
            merged.merge(&device);
        }
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(
                merged.latency.quantile_us(q),
                union.quantile_us(q),
                "merged q={q} must equal the union's"
            );
            assert_eq!(merged.latency_per_class[1].quantile_us(q), union.quantile_us(q));
        }
        assert_eq!(merged.latency.len(), 8);
        assert_eq!(merged.served, 8);
    }

    #[test]
    fn merge_sums_counters_and_maxes_high_water_marks() {
        let a = ServeStats {
            submitted: 10,
            served: 8,
            failed: 2,
            rejected_per_class: [1, 2, 3],
            max_queue_depth: 5,
            makespan_us: 1000.0,
            gpu_busy_us: 400.0,
            ..ServeStats::default()
        };
        let b = ServeStats {
            submitted: 4,
            served: 4,
            rejected_per_class: [0, 1, 0],
            max_queue_depth: 9,
            makespan_us: 700.0,
            gpu_busy_us: 100.0,
            ..ServeStats::default()
        };
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.submitted, 14);
        assert_eq!(m.served, 12);
        assert_eq!(m.failed, 2);
        assert_eq!(m.rejected_per_class, [1, 3, 3]);
        assert_eq!(m.max_queue_depth, 9, "high-water mark takes the max");
        assert_eq!(m.makespan_us, 1000.0);
        assert_eq!(m.gpu_busy_us, 500.0);
        // Merging a default is the identity.
        let mut id = a.clone();
        id.merge(&ServeStats::default());
        assert_eq!(id, a);
    }

    #[test]
    fn goodput_counts_full_and_degraded_completions() {
        let stats = ServeStats {
            submitted: 10,
            served: 7,
            degraded_completions: 2,
            failed: 1,
            ..ServeStats::default()
        };
        assert_eq!(stats.goodput(), 0.9);
        assert_eq!(ServeStats::default().goodput(), 0.0);
    }
}
