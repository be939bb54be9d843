//! The virtual-clock serving loop: arrivals → queue → batch → device.
//!
//! [`DetectionServer`] owns a detection engine — any
//! [`fd_detector::Detector`], defaulting to the Haar [`FaceDetector`] —
//! and advances a virtual clock in microseconds. Submissions go onto an *arrival calendar*
//! (they may be scheduled at any time at or after the current instant);
//! the event loop then alternates between ingesting due arrivals,
//! shedding already-late queued requests, and asking the
//! [`DynamicBatcher`] whether to dispatch the EDF head's batch or sleep
//! to the next decision point. Device time comes from the simulated
//! timeline of each submission, so the entire run — latencies, shed
//! sets, batch compositions, statistics — is a deterministic function
//! of the submissions and the configuration, bit-identical at any
//! host thread count.
//!
//! Under an injected [`fd_gpu::FaultPlan`] the loop additionally runs a
//! fault-tolerance layer (see [`fd_detector::recovery`] and
//! [`crate::health`]): faulted batches are retried, bisected or
//! slot-isolated so one poisoned request cannot fail its batchmates;
//! retries are bounded and deadline-aware, degrading to shed-scale plans
//! under pressure; and sustained faults drive brown-out admission and a
//! fail-fast breaker. All of it engages only on error paths, so a run
//! with an inert fault plan is byte-identical to one without a plan.

use std::collections::VecDeque;

use fd_detector::{
    Backend, Detector, DetectorConfig, DetectorError, FaceDetector, FrameResult, RecoveryPolicy,
    RecoveryStep,
};
use fd_haar::Cascade;
use fd_imgproc::GrayImage;

use crate::batcher::{BatchDecision, BatchPolicy, DynamicBatcher};
use crate::health::{FaultReaction, HealthMachine, HealthPolicy, ServerHealth};
use crate::queue::RequestQueue;
use crate::request::{DetectionRequest, Priority, RequestId};
use crate::stats::ServeStats;

/// Serving-side configuration (the wrapped detector has its own
/// [`DetectorConfig`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Queue slots per priority class.
    pub queue_depth_per_class: usize,
    /// Dynamic batching policy; `max_batch_size: 1` serves one request
    /// per submission.
    pub batch: BatchPolicy,
    /// Shed queued requests whose deadline has passed instead of running
    /// them late (deterministic load shedding). Disabling serves
    /// everything, however late.
    pub shed_late: bool,
    /// Fault recovery for batched submissions: transient retries with
    /// backoff, isolation or bisection of poisoned members, and degraded
    /// (shed-scale) re-attempts under deadline pressure.
    /// `max_retries: 0` isolates at the first fault.
    pub retry: RecoveryPolicy,
    /// Health machine driving brown-out admission and the fail-fast
    /// breaker.
    pub health: HealthPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_depth_per_class: 64,
            batch: BatchPolicy::default(),
            shed_late: true,
            retry: RecoveryPolicy::default(),
            health: HealthPolicy::default(),
        }
    }
}

/// Errors surfaced by the serving layer itself.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A submission carried a non-finite or past arrival time, or a
    /// non-positive SLO.
    InvalidSubmission { reason: &'static str },
    /// Building the wrapped detector failed.
    Detector(DetectorError),
    /// A fleet front door could not place the request on any device:
    /// every admitting lane is draining or dead, or no device's memory
    /// budget can take the frame's geometry.
    NoCapacity { width: usize, height: usize },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidSubmission { reason } => {
                write!(f, "invalid submission: {reason}")
            }
            ServeError::Detector(e) => write!(f, "detector construction failed: {e}"),
            ServeError::NoCapacity { width, height } => {
                write!(f, "no fleet device can admit a {width}x{height} request")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Detector(e) => Some(e),
            _ => None,
        }
    }
}

/// How one request's life ended.
#[derive(Debug, Clone)]
pub enum RequestOutcome {
    /// Ran on the device and produced a detection result.
    Served {
        /// When its batch was submitted.
        dispatched_us: f64,
        /// When its batch drained (= completion of every member).
        completed_us: f64,
        /// Requests sharing the submission.
        batch_size: usize,
        /// The detection output.
        result: FrameResult,
    },
    /// Completed with a degraded (shed-scale) pyramid plan: a fault
    /// recovery re-attempt under deadline pressure dropped the finest
    /// `shed_levels` scales so the batch could finish in time.
    Degraded {
        /// When its (final) submission was dispatched.
        dispatched_us: f64,
        /// When that submission drained.
        completed_us: f64,
        /// Requests sharing the final submission.
        batch_size: usize,
        /// Pyramid levels shed from the full plan.
        shed_levels: usize,
        /// The (coarser) detection output.
        result: FrameResult,
    },
    /// Shed while queued: its deadline passed before dispatch.
    ShedLate {
        /// Virtual instant of the shed decision.
        shed_us: f64,
    },
    /// Refused at arrival: its priority class's queue was full.
    RejectedQueueFull,
    /// Refused at arrival: the server was browned out and this request's
    /// class is shed pre-emptively under sustained faults.
    RejectedBrownOut,
    /// Refused at arrival fail-fast: the breaker was open.
    RejectedFailFast,
    /// Its batch's device submission failed (after `attempts`
    /// submissions).
    Failed {
        dispatched_us: f64,
        /// Device submissions that included this request.
        attempts: u32,
        error: DetectorError,
    },
    /// Its deadline passed while its batch was in fault recovery, so
    /// further retries were abandoned.
    Expired {
        /// Virtual instant recovery gave up on it.
        expired_us: f64,
        /// Device submissions that included this request.
        attempts: u32,
        /// The fault that put its batch into recovery.
        error: DetectorError,
    },
    /// Its fleet device was killed (or drained away from under it) and
    /// no surviving replica could take it over. Only the fleet layer
    /// emits this; a single server never does.
    Evicted {
        /// Virtual instant the device was lost.
        evicted_us: f64,
    },
}

/// A finished request: identity, timing and outcome.
#[derive(Debug, Clone)]
pub struct CompletedRequest {
    pub id: RequestId,
    pub priority: Priority,
    /// The detection backend that served (or would have served) it.
    pub backend: Backend,
    pub arrival_us: f64,
    pub deadline_us: f64,
    pub outcome: RequestOutcome,
}

impl CompletedRequest {
    /// Arrival-to-completion latency for requests that produced a
    /// result (served or degraded).
    pub fn latency_us(&self) -> Option<f64> {
        match &self.outcome {
            RequestOutcome::Served { completed_us, .. }
            | RequestOutcome::Degraded { completed_us, .. } => {
                Some(completed_us - self.arrival_us)
            }
            _ => None,
        }
    }

    /// Whether a completed (served or degraded) request made its
    /// deadline.
    pub fn met_deadline(&self) -> Option<bool> {
        match &self.outcome {
            RequestOutcome::Served { completed_us, .. }
            | RequestOutcome::Degraded { completed_us, .. } => {
                Some(*completed_us <= self.deadline_us)
            }
            _ => None,
        }
    }
}

/// Deterministic request-serving frontend over one detector/device (see
/// module docs). Generic over the detection engine; the default is the
/// Haar [`FaceDetector`].
pub struct DetectionServer<D: Detector = FaceDetector> {
    detector: D,
    queue: RequestQueue,
    batcher: DynamicBatcher,
    shed_late: bool,
    retry: RecoveryPolicy,
    health: HealthMachine,
    now_us: f64,
    next_seq: u64,
    /// Span of the last successful device submission, used to project
    /// whether a recovery re-attempt can still make a group's deadline.
    last_span_us: f64,
    /// Future submissions, kept sorted by (arrival, seq) *descending* so
    /// the next one pops off the back in O(1).
    arrivals: Vec<DetectionRequest>,
    completed: Vec<CompletedRequest>,
    stats: ServeStats,
}

/// A (sub-)batch moving through fault recovery inside one dispatch.
struct RecoveryGroup {
    reqs: Vec<DetectionRequest>,
    /// Transient retries this group's lineage has spent.
    retries: u32,
    /// Device submissions that have included this group's members.
    attempts: u32,
    /// The most recent fault of this lineage; `None` marks a fault-free
    /// first attempt, which gates the expiry filter and shed decision so
    /// fault-free dispatches never consult a deadline.
    last_error: Option<DetectorError>,
}

impl DetectionServer {
    /// Build a server around a fresh Haar detector for `cascade`.
    pub fn new(
        cascade: &Cascade,
        detector_config: DetectorConfig,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        let detector =
            FaceDetector::try_new(cascade, detector_config).map_err(ServeError::Detector)?;
        Ok(Self::from_detector(detector, config))
    }
}

impl<D: Detector> DetectionServer<D> {
    /// Build a server around an existing detector (and therefore its
    /// simulated device).
    pub fn from_detector(detector: D, config: ServeConfig) -> Self {
        Self {
            detector,
            queue: RequestQueue::new(config.queue_depth_per_class),
            batcher: DynamicBatcher::new(config.batch),
            shed_late: config.shed_late,
            retry: config.retry,
            health: HealthMachine::new(config.health),
            now_us: 0.0,
            next_seq: 0,
            last_span_us: 0.0,
            arrivals: Vec::new(),
            completed: Vec::new(),
            stats: ServeStats::default(),
        }
    }

    /// The current virtual time, µs.
    pub fn now_us(&self) -> f64 {
        self.now_us
    }

    /// The server's current health state.
    pub fn health(&self) -> ServerHealth {
        self.health.state()
    }

    /// The wrapped detector (profiler access, device inspection).
    pub fn detector(&self) -> &D {
        &self.detector
    }

    /// The backend class this server's detector serves.
    pub fn backend(&self) -> Backend {
        self.detector.backend()
    }

    /// Requests on the arrival calendar plus requests queued.
    pub fn pending(&self) -> usize {
        self.arrivals.len() + self.queue.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Finished requests, in completion order.
    pub fn completed(&self) -> &[CompletedRequest] {
        &self.completed
    }

    /// Drain the finished-request log (closed-loop generators resubmit
    /// from these).
    pub fn take_completed(&mut self) -> Vec<CompletedRequest> {
        std::mem::take(&mut self.completed)
    }

    /// Whether the fail-fast breaker is currently open (dispatch
    /// suspended until the cool-down elapses).
    pub fn breaker_open(&self) -> bool {
        self.health.is_open()
    }

    /// Requests sitting in the dispatch queue (excluding the calendar).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Arrival instant of the next calendar entry, if any.
    pub fn next_arrival_us(&self) -> Option<f64> {
        self.arrivals.last().map(|r| r.arrival_us)
    }

    /// Pull every queued (already-arrived, not-yet-launched) request off
    /// the dispatch queue in EDF order — the fleet's evacuation and
    /// work-stealing primitive.
    pub(crate) fn take_queued(&mut self) -> Vec<DetectionRequest> {
        self.queue.drain_all()
    }

    /// Pull every not-yet-arrived request off the calendar, earliest
    /// first (fleet kill/drain re-routes these to surviving lanes).
    pub(crate) fn take_calendar(&mut self) -> Vec<DetectionRequest> {
        let mut reqs = std::mem::take(&mut self.arrivals);
        reqs.reverse();
        reqs
    }

    /// Hand a request migrated from another lane to this one without
    /// counting a fresh submission: already-arrived requests go straight
    /// onto the dispatch queue (bounced back if the class is full),
    /// future ones back onto the calendar.
    pub(crate) fn inject(&mut self, req: DetectionRequest) -> Result<(), DetectionRequest> {
        if req.arrival_us <= self.now_us {
            self.queue.offer(req)?;
            self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
        } else {
            let pos = self
                .arrivals
                .partition_point(|r| {
                    r.arrival_us
                        .total_cmp(&req.arrival_us)
                        .then(r.seq.cmp(&req.seq))
                        .is_gt()
                });
            self.arrivals.insert(pos, req);
        }
        Ok(())
    }

    /// Move the clock forward to `t_us` (never backward). Migrated work
    /// is handed over at the source lane's instant; the receiving lane
    /// must not serve it in its own past.
    pub(crate) fn advance_to(&mut self, t_us: f64) {
        self.now_us = self.now_us.max(t_us);
    }

    /// Schedule a detection request: `frame` arrives at `arrival_us`
    /// (which must not lie in the past) with deadline
    /// `arrival_us + slo_us`. Returns the request's id; its outcome
    /// appears in [`Self::completed`] once the clock passes it.
    pub fn submit(
        &mut self,
        frame: GrayImage,
        priority: Priority,
        arrival_us: f64,
        slo_us: f64,
    ) -> Result<RequestId, ServeError> {
        if !arrival_us.is_finite() || arrival_us < self.now_us {
            return Err(ServeError::InvalidSubmission {
                reason: "arrival time must be finite and not in the past",
            });
        }
        if !slo_us.is_finite() || slo_us <= 0.0 {
            return Err(ServeError::InvalidSubmission {
                reason: "SLO must be finite and positive",
            });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = RequestId(seq);
        let req = DetectionRequest {
            id,
            priority,
            arrival_us,
            deadline_us: arrival_us + slo_us,
            frame,
            backend: self.detector.backend(),
            seq,
        };
        self.enqueue(req);
        Ok(id)
    }

    /// Put an already-built request on the arrival calendar and count
    /// the submission. The fleet front door routes here with its own
    /// (fleet-global) ids, so per-lane sequence state stays untouched.
    pub(crate) fn enqueue(&mut self, req: DetectionRequest) {
        // Insert keeping descending (arrival, seq) so pop() yields the
        // earliest; ties resolve by submission order.
        let pos = self
            .arrivals
            .partition_point(|r| {
                r.arrival_us
                    .total_cmp(&req.arrival_us)
                    .then(r.seq.cmp(&req.seq))
                    .is_gt()
            });
        self.stats.submitted_per_backend[req.backend.index()] += 1;
        self.arrivals.insert(pos, req);
        self.stats.submitted += 1;
    }

    /// Run the event loop until the arrival calendar and the queue are
    /// both empty. Device failures mark the affected requests
    /// [`RequestOutcome::Failed`] and serving continues.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Advance the event loop by one action (ingest, shed, wait or
    /// dispatch). Returns `false` when idle with nothing pending —
    /// closed-loop drivers interleave [`Self::submit`] between steps.
    pub fn step(&mut self) -> bool {
        self.health.tick(self.now_us);
        if self.health.state() != ServerHealth::Healthy {
            self.stats.brownout_ticks += 1;
        }
        self.ingest_due();
        // Breaker open: dispatch is suspended. Jump the clock to the
        // cool-down expiry or the next arrival (which gets rejected
        // fail-fast at ingest), whichever comes first.
        if let Some(until) = self.health.open_until() {
            let next_arrival = self.arrivals.last().map(|r| r.arrival_us);
            if self.arrivals.is_empty() && self.queue.is_empty() {
                return false;
            }
            let target = match next_arrival {
                Some(a) if a < until => a,
                _ => until,
            };
            self.now_us = self.now_us.max(target);
            return true;
        }
        if self.queue.is_empty() {
            let Some(next) = self.arrivals.last() else {
                return false;
            };
            // Idle: jump to the next arrival.
            self.now_us = self.now_us.max(next.arrival_us);
            self.ingest_due();
            return true;
        }
        if self.shed_late {
            let late = self.queue.take_late(self.now_us);
            if !late.is_empty() {
                for req in late {
                    self.stats.shed_late += 1;
                    self.finish(req, RequestOutcome::ShedLate { shed_us: self.now_us });
                }
                return true;
            }
        }
        let next_arrival = self.arrivals.last().map(|r| r.arrival_us);
        let cap = self.health.batch_cap();
        match self.batcher.decide(&self.queue, self.now_us, next_arrival, cap) {
            BatchDecision::WaitUntil(t) => {
                self.now_us = self.now_us.max(t);
            }
            BatchDecision::Dispatch => {
                self.dispatch();
            }
        }
        true
    }

    /// Move arrivals whose time has come into the queue, rejecting into
    /// the completion log when a class is full or the health machine
    /// refuses the class (brown-out / breaker-open fail-fast).
    fn ingest_due(&mut self) {
        while self.arrivals.last().is_some_and(|r| r.arrival_us <= self.now_us) {
            let Some(req) = self.arrivals.pop() else { break };
            if !self.health.admits(req.priority) {
                let outcome = if matches!(self.health.state(), ServerHealth::Open { .. }) {
                    self.stats.rejected_failfast += 1;
                    RequestOutcome::RejectedFailFast
                } else {
                    self.stats.rejected_brownout += 1;
                    RequestOutcome::RejectedBrownOut
                };
                self.finish(req, outcome);
                continue;
            }
            if let Err(req) = self.queue.offer(req) {
                self.stats.rejected_full += 1;
                self.stats.rejected_per_class[req.priority.index()] += 1;
                self.finish(req, RequestOutcome::RejectedQueueFull);
            }
        }
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
    }

    /// Log a request's final outcome.
    fn finish(&mut self, req: DetectionRequest, outcome: RequestOutcome) {
        self.completed.push(CompletedRequest {
            id: req.id,
            priority: req.priority,
            backend: req.backend,
            arrival_us: req.arrival_us,
            deadline_us: req.deadline_us,
            outcome,
        });
    }

    /// Fail every member of `reqs` with clones of `error`.
    fn fail_group(
        &mut self,
        reqs: Vec<DetectionRequest>,
        dispatched_us: f64,
        attempts: u32,
        error: &DetectorError,
    ) {
        for req in reqs {
            self.stats.failed += 1;
            self.finish(
                req,
                RequestOutcome::Failed { dispatched_us, attempts, error: error.clone() },
            );
        }
    }

    /// Submit the EDF head's batch to the device and complete its
    /// members at the submission's drain time, running fault recovery
    /// (retry / isolate / bisect / degrade) on submission errors.
    fn dispatch(&mut self) {
        let cap = self.health.batch_cap();
        let batch = self.batcher.form(&mut self.queue, cap);
        if batch.is_empty() {
            return;
        }
        // One full-pyramid plan per dispatch (the batch shares a
        // geometry). A planning error is request-caused — bad geometry,
        // not a device fault — so it fails the members immediately
        // without touching the health machine or the retry budget.
        let full_plan = match self.detector.pyramid_plan(&batch[0].frame) {
            Ok(p) => p,
            Err(error) => {
                let dispatched_us = self.now_us;
                self.fail_group(batch, dispatched_us, 1, &error);
                return;
            }
        };
        let mut groups = VecDeque::new();
        groups.push_back(RecoveryGroup {
            reqs: batch,
            retries: 0,
            attempts: 0,
            last_error: None,
        });
        while let Some(mut group) = groups.pop_front() {
            // Deadline-aware recovery: once a lineage has faulted,
            // members whose deadline already passed expire instead of
            // burning further submissions, and a re-attempt that
            // projects to finish past its earliest deadline sheds the
            // finest scales. The fault-free first attempt does neither.
            let mut shed = 0;
            if let Some(err) = &group.last_error {
                let now = self.now_us;
                let attempts = group.attempts;
                let (live, expired): (Vec<_>, Vec<_>) =
                    group.reqs.drain(..).partition(|r| r.deadline_us > now);
                for req in expired {
                    self.stats.expired += 1;
                    let error = err.clone();
                    self.finish(req, RequestOutcome::Expired { expired_us: now, attempts, error });
                }
                group.reqs = live;
                let earliest =
                    group.reqs.iter().map(|r| r.deadline_us).fold(f64::INFINITY, f64::min);
                shed = self.retry.shed_levels(now, self.last_span_us, earliest, full_plan.len());
            }
            if group.reqs.is_empty() {
                continue;
            }
            let plan = &full_plan[..full_plan.len() - shed];

            let dispatched_us = self.now_us;
            group.attempts += 1;
            let frames: Vec<&GrayImage> = group.reqs.iter().map(|r| &r.frame).collect();
            let submission = self.detector.detect_batch_with_plan(&frames, plan);
            drop(frames);
            match submission {
                Ok(results) => {
                    if self.health.on_ok() {
                        self.stats.probes_succeeded += 1;
                    }
                    let span_us = results.first().map_or(0.0, |r| r.timeline.span_us());
                    self.now_us += span_us;
                    self.last_span_us = span_us;
                    self.stats.gpu_busy_us += span_us;
                    self.stats.batches += 1;
                    self.stats.batched_requests += group.reqs.len() as u64;
                    let batch_size = group.reqs.len();
                    if results.len() != batch_size {
                        // Typed guard instead of a zip that would
                        // silently truncate: an injected fault must
                        // never panic or desync the event loop.
                        let error = DetectorError::InvalidConfig {
                            reason: "batch result count does not match batch size",
                        };
                        self.fail_group(group.reqs, dispatched_us, group.attempts, &error);
                        continue;
                    }
                    for (req, result) in group.reqs.into_iter().zip(results) {
                        let latency = self.now_us - req.arrival_us;
                        self.stats.latency.record(latency);
                        self.stats.latency_per_class[req.priority.index()].record(latency);
                        self.stats.latency_per_backend[req.backend.index()].record(latency);
                        if self.now_us <= req.deadline_us {
                            self.stats.deadline_met += 1;
                        } else {
                            self.stats.deadline_missed += 1;
                        }
                        let completed_us = self.now_us;
                        let outcome = if shed == 0 {
                            self.stats.served += 1;
                            self.stats.served_per_backend[req.backend.index()] += 1;
                            RequestOutcome::Served {
                                dispatched_us,
                                completed_us,
                                batch_size,
                                result,
                            }
                        } else {
                            self.stats.degraded_completions += 1;
                            self.stats.degraded_per_backend[req.backend.index()] += 1;
                            RequestOutcome::Degraded {
                                dispatched_us,
                                completed_us,
                                batch_size,
                                shed_levels: shed,
                                result,
                            }
                        };
                        self.finish(req, outcome);
                    }
                    self.stats.makespan_us = self.stats.makespan_us.max(self.now_us);
                }
                Err(error) => {
                    // The submission was rejected before consuming
                    // device time; only recovery backoff advances the
                    // clock on this path.
                    if error.is_device_fault() {
                        match self.health.on_device_fault(self.now_us) {
                            FaultReaction::Tripped => self.stats.breaker_trips += 1,
                            FaultReaction::ProbeFailed => {
                                self.stats.breaker_trips += 1;
                                self.stats.probes_failed += 1;
                            }
                            FaultReaction::BrownedOut | FaultReaction::None => {}
                        }
                    }
                    match self.retry.next_step(&error, group.retries, group.reqs.len()) {
                        RecoveryStep::FailAll => {
                            self.fail_group(group.reqs, dispatched_us, group.attempts, &error);
                        }
                        RecoveryStep::RetrySame { backoff_us } => {
                            self.now_us += backoff_us;
                            self.stats.retries_issued += 1;
                            self.stats.retry_backoff_us += backoff_us;
                            group.retries += 1;
                            group.last_error = Some(error);
                            groups.push_front(group);
                        }
                        RecoveryStep::IsolateSlot { slot } => {
                            // The device named the poisoned member: fail
                            // exactly it, resubmit the survivors.
                            self.stats.poisoned_requests += 1;
                            self.stats.failed += 1;
                            let poisoned = group.reqs.remove(slot);
                            self.finish(
                                poisoned,
                                RequestOutcome::Failed {
                                    dispatched_us,
                                    attempts: group.attempts,
                                    error: error.clone(),
                                },
                            );
                            group.last_error = Some(error);
                            if !group.reqs.is_empty() {
                                groups.push_front(group);
                            }
                        }
                        RecoveryStep::Bisect => {
                            // No attribution: split and resubmit both
                            // halves (first half first), cornering the
                            // poisoned member in O(log n) submissions.
                            self.stats.batches_bisected += 1;
                            let mid = group.reqs.len() / 2;
                            let tail = group.reqs.split_off(mid);
                            let head = std::mem::take(&mut group.reqs);
                            groups.push_front(RecoveryGroup {
                                reqs: tail,
                                retries: group.retries,
                                attempts: group.attempts,
                                last_error: Some(error.clone()),
                            });
                            groups.push_front(RecoveryGroup {
                                reqs: head,
                                retries: group.retries,
                                attempts: group.attempts,
                                last_error: Some(error),
                            });
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_haar::{FeatureKind, HaarFeature, Stage, Stump};

    fn edge_cascade() -> Cascade {
        let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        let mut c = Cascade::new("edge", 24);
        c.stages.push(Stage {
            stumps: vec![Stump { feature: f, threshold: 8192, left: -1.0, right: 1.0 }],
            threshold: 0.5,
        });
        c
    }

    fn pattern_frame(w: usize, h: usize, shift: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| {
            let x = x + shift;
            if (20..30).contains(&x) && (14..34).contains(&y) {
                5.0
            } else if (30..40).contains(&x) && (14..34).contains(&y) {
                250.0
            } else {
                120.0
            }
        })
    }

    fn server(config: ServeConfig) -> DetectionServer {
        let det_cfg = DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() };
        DetectionServer::new(&edge_cascade(), det_cfg, config).unwrap()
    }

    #[test]
    fn single_request_is_served_with_service_latency() {
        let mut s = server(ServeConfig::default());
        let id = s
            .submit(pattern_frame(64, 48, 0), Priority::Interactive, 100.0, 1e6)
            .unwrap();
        s.run();
        assert_eq!(s.completed().len(), 1);
        let c = &s.completed()[0];
        assert_eq!(c.id, id);
        let RequestOutcome::Served { completed_us, batch_size, ref result, .. } = c.outcome
        else {
            panic!("expected served, got {:?}", c.outcome);
        };
        assert_eq!(batch_size, 1);
        assert!(completed_us > 100.0);
        assert!(!result.raw.is_empty(), "pattern fires windows");
        assert_eq!(c.latency_us(), Some(completed_us - 100.0));
        assert_eq!(s.stats().served, 1);
        assert_eq!(s.stats().mean_batch_occupancy(), 1.0);
        assert!(s.stats().throughput_rps() > 0.0);
    }

    #[test]
    fn simultaneous_arrivals_batch_up_to_the_cap() {
        let mut s = server(ServeConfig {
            batch: BatchPolicy { max_batch_size: 4, ..BatchPolicy::default() },
            ..ServeConfig::default()
        });
        for _ in 0..6 {
            s.submit(pattern_frame(64, 48, 0), Priority::Standard, 0.0, 1e9).unwrap();
        }
        s.run();
        assert_eq!(s.stats().served, 6);
        assert_eq!(s.stats().batches, 2, "4 + 2");
        assert_eq!(s.stats().max_queue_depth, 6);
        assert!(s.stats().mean_batch_occupancy() > 2.9);
    }

    #[test]
    fn mixed_geometries_batch_separately() {
        let mut s = server(ServeConfig::default());
        s.submit(pattern_frame(64, 48, 0), Priority::Standard, 0.0, 1e9).unwrap();
        s.submit(pattern_frame(96, 72, 0), Priority::Standard, 0.0, 1e9).unwrap();
        s.submit(pattern_frame(64, 48, 2), Priority::Standard, 0.0, 1e9).unwrap();
        s.run();
        assert_eq!(s.stats().served, 3);
        assert_eq!(s.stats().batches, 2, "64x48 pair fuses, 96x72 runs alone");
    }

    #[test]
    fn edf_dispatches_tightest_deadline_first() {
        let mut s = server(ServeConfig {
            batch: BatchPolicy { max_batch_size: 1, ..BatchPolicy::default() },
            ..ServeConfig::default()
        });
        let loose = s.submit(pattern_frame(64, 48, 0), Priority::Bulk, 0.0, 9e8).unwrap();
        let tight = s.submit(pattern_frame(64, 48, 1), Priority::Bulk, 0.0, 1e6).unwrap();
        s.run();
        let order: Vec<_> = s.completed().iter().map(|c| c.id).collect();
        assert_eq!(order, [tight, loose]);
    }

    #[test]
    fn late_requests_are_shed_deterministically() {
        let mut s = server(ServeConfig {
            batch: BatchPolicy { max_batch_size: 1, ..BatchPolicy::default() },
            ..ServeConfig::default()
        });
        // The first request's service time pushes the clock well past the
        // second's deadline before it even arrives, so it is shed, never
        // run. (Frame service here is on the order of hundreds of µs.)
        let a = s.submit(pattern_frame(96, 72, 0), Priority::Standard, 0.0, 1e9).unwrap();
        let b = s.submit(pattern_frame(96, 72, 1), Priority::Standard, 10.0, 1.0).unwrap();
        s.run();
        let by_id = |id| s.completed().iter().find(|c| c.id == id).unwrap();
        assert!(matches!(by_id(a).outcome, RequestOutcome::Served { .. }));
        assert!(matches!(by_id(b).outcome, RequestOutcome::ShedLate { .. }));
        assert_eq!(s.stats().shed_late, 1);
        assert_eq!(s.stats().served, 1);
    }

    #[test]
    fn shedding_disabled_serves_late_requests() {
        let mut s = server(ServeConfig {
            shed_late: false,
            batch: BatchPolicy { max_batch_size: 1, ..BatchPolicy::default() },
            ..ServeConfig::default()
        });
        s.submit(pattern_frame(96, 72, 0), Priority::Standard, 0.0, 1e9).unwrap();
        s.submit(pattern_frame(96, 72, 1), Priority::Standard, 10.0, 1.0).unwrap();
        s.run();
        assert_eq!(s.stats().served, 2);
        assert_eq!(s.stats().shed_late, 0);
        assert_eq!(s.stats().deadline_missed, 1);
    }

    #[test]
    fn full_class_queue_rejects_at_arrival() {
        let mut s = server(ServeConfig {
            queue_depth_per_class: 2,
            batch: BatchPolicy { max_batch_size: 2, max_wait_us: 1e9 },
            ..ServeConfig::default()
        });
        // Four bulk arrivals at t=0; depth 2 → two rejected. Interactive
        // still admitted.
        for _ in 0..4 {
            s.submit(pattern_frame(64, 48, 0), Priority::Bulk, 0.0, 1e9).unwrap();
        }
        s.submit(pattern_frame(64, 48, 0), Priority::Interactive, 0.0, 1e9).unwrap();
        s.run();
        assert_eq!(s.stats().rejected_full, 2);
        assert_eq!(s.stats().rejected_per_class, [0, 0, 2]);
        assert_eq!(s.stats().served, 3);
    }

    #[test]
    fn submissions_in_the_past_are_invalid() {
        let mut s = server(ServeConfig::default());
        s.submit(pattern_frame(64, 48, 0), Priority::Standard, 100.0, 1e6).unwrap();
        s.run();
        assert!(s.now_us() > 100.0);
        let err = s.submit(pattern_frame(64, 48, 0), Priority::Standard, 0.0, 1e6);
        assert!(matches!(err, Err(ServeError::InvalidSubmission { .. })));
        let err = s.submit(pattern_frame(64, 48, 0), Priority::Standard, f64::NAN, 1e6);
        assert!(matches!(err, Err(ServeError::InvalidSubmission { .. })));
        let err = s.submit(pattern_frame(64, 48, 0), Priority::Standard, s.now_us(), 0.0);
        assert!(matches!(err, Err(ServeError::InvalidSubmission { .. })));
    }

    #[test]
    fn device_failures_fail_the_batch_not_the_server() {
        // A frame smaller than the 24-px cascade window fails planning at
        // dispatch; the next request still gets served.
        let mut s = server(ServeConfig {
            batch: BatchPolicy { max_batch_size: 1, ..BatchPolicy::default() },
            ..ServeConfig::default()
        });
        let bad = s
            .submit(GrayImage::from_fn(8, 8, |_, _| 0.0), Priority::Standard, 0.0, 1e9)
            .unwrap();
        let good = s.submit(pattern_frame(64, 48, 0), Priority::Standard, 0.0, 2e9).unwrap();
        s.run();
        let by_id = |id| s.completed().iter().find(|c| c.id == id).unwrap();
        assert!(matches!(by_id(bad).outcome, RequestOutcome::Failed { .. }));
        assert!(matches!(by_id(good).outcome, RequestOutcome::Served { .. }));
        assert_eq!(s.stats().failed, 1);
        assert_eq!(s.stats().served, 1);
    }

    #[test]
    fn closed_loop_driving_via_step_makes_progress() {
        let mut s = server(ServeConfig::default());
        let mut submitted = 0usize;
        let mut in_flight = 0usize;
        for _ in 0..3 {
            s.submit(pattern_frame(64, 48, 0), Priority::Standard, 0.0, 1e9).unwrap();
            submitted += 1;
            in_flight += 1;
        }
        let mut served_total = 0usize;
        let mut rounds = 0;
        while in_flight > 0 && rounds < 100 {
            while s.step() {}
            for c in s.take_completed() {
                assert!(matches!(c.outcome, RequestOutcome::Served { .. }));
                in_flight -= 1;
                served_total += 1;
                // Zero-think-time resubmission, 9 submissions total.
                if submitted < 9 {
                    s.submit(pattern_frame(64, 48, 0), Priority::Standard, s.now_us(), 1e9)
                        .unwrap();
                    submitted += 1;
                    in_flight += 1;
                }
            }
            rounds += 1;
        }
        assert_eq!(served_total, 9);
        assert_eq!(s.stats().served, 9);
    }
}
