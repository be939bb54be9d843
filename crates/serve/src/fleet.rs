//! The fleet front door: N device lanes behind one deterministic
//! serving surface.
//!
//! [`FleetServer`] shards request serving across N simulated GPUs. Each
//! device gets a full dispatch lane — its own [`DetectionServer`] with
//! queue, dynamic batcher, retry stack and per-device
//! [`crate::HealthMachine`] — and the fleet layer adds what a single
//! server cannot give:
//!
//! * **Routing** — submissions are placed by the [`crate::Router`]:
//!   geometry affinity (so per-device batches still fill), then least
//!   load.
//! * **Failover** — when a device's breaker opens, its queued,
//!   not-yet-launched requests migrate to healthy replicas with
//!   deadlines intact; the broken lane keeps cooling down and rejoins
//!   by closing its own breaker.
//! * **Draining** — a draining device stops admitting (its future
//!   arrivals re-route) but finishes the work it already queued;
//!   [`FleetServer::rejoin_device`] returns it to rotation.
//! * **Kill** — a killed device evacuates queue *and* calendar to the
//!   survivors and never dispatches again. Requests no survivor can
//!   take finish as [`RequestOutcome::Evicted`] — never silently lost.
//! * **Work stealing** — an idle healthy lane steals the loosest-
//!   deadline half of the deepest queue (at most four requests), keeping
//!   survivors saturated through an outage.
//!
//! The fleet co-simulates its lanes as one discrete-event machine: each
//! iteration steps the lane whose next event is earliest (work queued:
//! its clock; idle: its next arrival or breaker expiry; ties by index),
//! and scheduled kills, drains and rejoins apply in instant order once
//! that frontier reaches them, before any lane acts past them. So
//! cross-lane decisions — migration targets, steal pairs, lifecycle
//! commands — happen at one deterministic global frontier.
//! Everything is a pure function of the submissions, the configuration
//! and the per-device fault plans; a fleet of one with no scheduled
//! commands reduces exactly to its single [`DetectionServer`],
//! byte-for-byte, even under faults.

use fd_detector::{Backend, Detector, DetectorConfig, FaceDetector};
use fd_haar::Cascade;
use fd_imgproc::GrayImage;

use crate::request::{DetectionRequest, GeomClass, Priority, RequestId};
use crate::router::{LaneView, Router, RouterStats};
use crate::server::{CompletedRequest, DetectionServer, RequestOutcome, ServeConfig, ServeError};
use crate::stats::ServeStats;

/// Minimum queued requests on a victim before an idle lane steals
/// (stealing from a nearly-empty queue just moves the bubble).
const MIN_VICTIM_QUEUE: usize = 2;
/// Most requests one steal moves (at most half the victim's queue goes
/// regardless).
const MAX_STEAL: usize = 4;

/// Lifecycle state of one fleet device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceState {
    /// In rotation: admits new work.
    Active,
    /// Stopped admitting; finishes its queued work, can rejoin.
    Draining,
    /// Gone: evacuated and never dispatches again.
    Dead,
}

/// Fleet-level configuration. Per-lane serving behavior comes from the
/// embedded [`ServeConfig`]; the wrapped detectors from a
/// [`DetectorConfig`] whose fault plan is forked per device.
#[derive(Debug, Clone, Default)]
pub struct FleetConfig {
    /// Per-lane serving configuration (every lane gets a copy).
    pub serve: ServeConfig,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CommandKind {
    Kill,
    Drain,
    Rejoin,
}

#[derive(Debug, Clone, Copy)]
struct ScheduledCommand {
    at_us: f64,
    device: usize,
    seq: u64,
    kind: CommandKind,
}

/// What to do with evacuated requests no survivor can take.
enum Orphans {
    /// Put them back on the source lane (breaker-open failover: the
    /// lane still exists and will cool down).
    ReturnToSource,
    /// Finish them as [`RequestOutcome::Evicted`] (the source is gone).
    Evict,
}

struct Lane<D: Detector> {
    server: DetectionServer<D>,
    state: DeviceState,
    /// Geometries this lane has admitted (what affinity routes by).
    geometries: Vec<GeomClass>,
}

/// N-device sharded serving front door (see module docs). Generic over
/// the detection engine: a homogeneous fleet instantiates a concrete
/// `D` (default: the Haar [`FaceDetector`]); a mixed fleet holds
/// `FleetServer<Box<dyn Detector>>` lanes of different engines, with
/// the router matching each request's [`Backend`] class to a lane that
/// serves it — so batches stay same-geometry *and* same-backend by
/// construction (one detector per lane).
pub struct FleetServer<D: Detector = FaceDetector> {
    lanes: Vec<Lane<D>>,
    router: Router,
    next_seq: u64,
    next_command_seq: u64,
    commands: Vec<ScheduledCommand>,
    completed: Vec<CompletedRequest>,
    completed_device: Vec<usize>,
    /// Fleet-level outcomes (evictions) that belong to no lane.
    local_stats: ServeStats,
}

impl FleetServer {
    /// Build a fleet of `devices` replicas of one Haar detector
    /// configuration. An attached fault plan is forked per device via
    /// `FaultPlan::for_replica`, so devices fault independently
    /// (replica 0 keeps the plan verbatim).
    pub fn new(
        cascade: &Cascade,
        detector_config: DetectorConfig,
        devices: usize,
        config: FleetConfig,
    ) -> Result<Self, ServeError> {
        let detectors = FaceDetector::try_new_replicas(cascade, detector_config, devices)
            .map_err(ServeError::Detector)?;
        Ok(Self::from_detectors(detectors, config))
    }
}

impl<D: Detector> FleetServer<D> {
    /// Build a fleet over pre-built detectors — one lane per detector,
    /// in order. This is how tests hand different devices different
    /// fault plans, and how mixed fleets are assembled
    /// (`Vec<Box<dyn Detector>>` of different engines).
    ///
    /// # Panics
    /// When `detectors` is empty.
    pub fn from_detectors(detectors: Vec<D>, config: FleetConfig) -> Self {
        assert!(!detectors.is_empty(), "a fleet needs at least one device");
        let devices = detectors.len();
        let lanes = detectors
            .into_iter()
            .map(|d| Lane {
                server: DetectionServer::from_detector(d, config.serve.clone()),
                state: DeviceState::Active,
                geometries: Vec::new(),
            })
            .collect();
        Self {
            lanes,
            router: Router::new(devices),
            next_seq: 0,
            next_command_seq: 0,
            commands: Vec::new(),
            completed: Vec::new(),
            completed_device: Vec::new(),
            local_stats: ServeStats::default(),
        }
    }

    /// Number of device lanes (in any state).
    pub fn devices(&self) -> usize {
        self.lanes.len()
    }

    /// The fleet's virtual clock: the furthest-ahead lane clock (lanes
    /// that have not served recent work lag behind).
    pub fn now_us(&self) -> f64 {
        self.lanes.iter().map(|l| l.server.now_us()).fold(0.0, f64::max)
    }

    /// Queued + calendar requests across all live lanes.
    pub fn pending(&self) -> usize {
        self.lanes.iter().filter(|l| l.state != DeviceState::Dead).map(|l| l.server.pending()).sum()
    }

    /// One device's dispatch lane (stats, health, detector access).
    pub fn device(&self, device: usize) -> &DetectionServer<D> {
        &self.lanes[device].server
    }

    /// The backend class one device's lane serves.
    pub fn device_backend(&self, device: usize) -> Backend {
        self.lanes[device].server.backend()
    }

    /// One device's lifecycle state.
    pub fn device_state(&self, device: usize) -> DeviceState {
        self.lanes[device].state
    }

    /// One device's serving statistics. Evicted requests are accounted
    /// at fleet level (see [`Self::stats`]), not against any device.
    pub fn device_stats(&self, device: usize) -> &ServeStats {
        self.lanes[device].server.stats()
    }

    /// Fleet-wide statistics: every device's report merged (exact
    /// quantiles — see `ServeStats::merge`) plus fleet-level evictions.
    pub fn stats(&self) -> ServeStats {
        let mut total = ServeStats::default();
        for lane in &self.lanes {
            total.merge(lane.server.stats());
        }
        total.merge(&self.local_stats);
        total
    }

    /// Routing, migration and steal accounting.
    pub fn router_stats(&self) -> &RouterStats {
        self.router.stats()
    }

    /// Finished requests in fleet completion order (each lane's
    /// completions are folded in as its steps produce them).
    pub fn completed(&self) -> &[CompletedRequest] {
        &self.completed
    }

    /// Which device finished each entry of [`Self::completed`]
    /// (evictions report the device the request was lost from).
    pub fn completed_device(&self) -> &[usize] {
        &self.completed_device
    }

    /// Drain the finished-request log (and its device attribution).
    pub fn take_completed(&mut self) -> Vec<CompletedRequest> {
        self.completed_device.clear();
        std::mem::take(&mut self.completed)
    }

    /// Schedule a detection request, routed to a device lane (see
    /// module docs). Same contract as `DetectionServer::submit`, plus
    /// [`ServeError::NoCapacity`] when every lane is draining or dead.
    /// The request takes lane 0's backend class — the fleet's "default
    /// engine" — so a homogeneous fleet behaves exactly as before the
    /// backend axis existed; mixed traffic goes through
    /// [`Self::submit_to_backend`].
    pub fn submit(
        &mut self,
        frame: GrayImage,
        priority: Priority,
        arrival_us: f64,
        slo_us: f64,
    ) -> Result<RequestId, ServeError> {
        let backend = self.lanes[0].server.backend();
        self.submit_to_backend(frame, priority, arrival_us, slo_us, backend)
    }

    /// [`Self::submit`] with an explicit backend class: the router only
    /// considers lanes whose detector serves `backend`, and returns
    /// [`ServeError::NoCapacity`] when none is accepting.
    pub fn submit_to_backend(
        &mut self,
        frame: GrayImage,
        priority: Priority,
        arrival_us: f64,
        slo_us: f64,
        backend: Backend,
    ) -> Result<RequestId, ServeError> {
        if !arrival_us.is_finite() || arrival_us < self.now_us() {
            return Err(ServeError::InvalidSubmission {
                reason: "arrival time must be finite and not in the past",
            });
        }
        if !slo_us.is_finite() || slo_us <= 0.0 {
            return Err(ServeError::InvalidSubmission {
                reason: "SLO must be finite and positive",
            });
        }
        let geometry = GeomClass::of(frame.width(), frame.height());
        let views = self.lane_views(geometry, backend);
        let Some(device) = self.router.route(&views) else {
            return Err(ServeError::NoCapacity {
                width: geometry.width as usize,
                height: geometry.height as usize,
            });
        };
        self.record_geometry(device, geometry);
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = RequestId(seq);
        let req = DetectionRequest {
            id,
            priority,
            arrival_us,
            deadline_us: arrival_us + slo_us,
            frame,
            backend,
            seq,
        };
        self.lanes[device].server.enqueue(req);
        Ok(id)
    }

    /// Run the fleet event loop until every lane is idle.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// One fleet event-loop iteration: apply the lifecycle commands the
    /// frontier has reached, step the lane whose next event is earliest,
    /// fold in its completions, then run the failover and work-stealing
    /// policies. Returns `false` when no live lane has pending work.
    pub fn step(&mut self) -> bool {
        let Some(device) = self.apply_due_commands() else {
            return false;
        };
        self.lanes[device].server.step();
        self.collect_completions(device);
        self.failover_if_open(device);
        self.balance();
        true
    }

    /// Kill `device` now: evacuate its queue and calendar to the
    /// survivors and take it out of rotation for good. Unplaceable
    /// requests finish as [`RequestOutcome::Evicted`].
    pub fn kill_device(&mut self, device: usize) {
        let at = self.lanes[device].server.now_us();
        self.kill_now(device, at);
    }

    /// Drain `device` now: stop admission, re-route its future
    /// (calendar) arrivals, finish its queued work.
    pub fn drain_device(&mut self, device: usize) {
        let at = self.lanes[device].server.now_us();
        self.drain_now(device, at);
    }

    /// Return a draining device to rotation (dead devices stay dead).
    pub fn rejoin_device(&mut self, device: usize) {
        if self.lanes[device].state == DeviceState::Draining {
            self.lanes[device].state = DeviceState::Active;
        }
    }

    /// Schedule a kill at virtual instant `at_us` (applied by the event
    /// loop when the fleet frontier reaches it).
    pub fn schedule_kill(&mut self, device: usize, at_us: f64) {
        self.schedule(device, at_us, CommandKind::Kill);
    }

    /// Schedule a drain at virtual instant `at_us`.
    pub fn schedule_drain(&mut self, device: usize, at_us: f64) {
        self.schedule(device, at_us, CommandKind::Drain);
    }

    /// Schedule a rejoin at virtual instant `at_us`.
    pub fn schedule_rejoin(&mut self, device: usize, at_us: f64) {
        self.schedule(device, at_us, CommandKind::Rejoin);
    }

    fn schedule(&mut self, device: usize, at_us: f64, kind: CommandKind) {
        assert!(device < self.lanes.len(), "no such device: {device}");
        assert!(at_us.is_finite(), "command instant must be finite");
        let cmd = ScheduledCommand { at_us, device, seq: self.next_command_seq, kind };
        self.next_command_seq += 1;
        let pos = self
            .commands
            .partition_point(|c| c.at_us.total_cmp(&cmd.at_us).then(c.seq.cmp(&cmd.seq)).is_lt());
        self.commands.insert(pos, cmd);
    }

    /// The fleet frontier: the live lane whose next event (the server's
    /// `next_event_us`) is earliest, ties by index, and that instant.
    fn next_lane(&self) -> Option<(usize, f64)> {
        self.lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| l.state != DeviceState::Dead)
            .filter_map(|(i, l)| Some((i, l.server.next_event_us()?)))
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
    }

    /// Apply, in `(at_us, seq)` order, every scheduled command whose
    /// instant the frontier has reached, then return the lane to step.
    /// No lane acts past an unapplied command: a lane steps only as the
    /// frontier, so only at an instant before every pending command.
    fn apply_due_commands(&mut self) -> Option<usize> {
        loop {
            let (device, frontier) = self.next_lane()?;
            if self.commands.first().is_none_or(|c| c.at_us > frontier) {
                return Some(device);
            }
            let cmd = self.commands.remove(0);
            self.apply_command(cmd);
        }
    }

    fn apply_command(&mut self, cmd: ScheduledCommand) {
        match cmd.kind {
            CommandKind::Kill => self.kill_now(cmd.device, cmd.at_us),
            CommandKind::Drain => self.drain_now(cmd.device, cmd.at_us),
            CommandKind::Rejoin => self.rejoin_device(cmd.device),
        }
    }

    fn kill_now(&mut self, device: usize, at_us: f64) {
        if self.lanes[device].state == DeviceState::Dead {
            return;
        }
        self.lanes[device].state = DeviceState::Dead;
        let t = self.lanes[device].server.now_us().max(at_us);
        let mut orphans = self.lanes[device].server.take_queued();
        orphans.extend(self.lanes[device].server.take_calendar());
        self.relocate(device, orphans, t, Orphans::Evict);
        self.collect_completions(device);
    }

    fn drain_now(&mut self, device: usize, at_us: f64) {
        if self.lanes[device].state != DeviceState::Active {
            return;
        }
        self.lanes[device].state = DeviceState::Draining;
        let t = self.lanes[device].server.now_us().max(at_us);
        let future = self.lanes[device].server.take_calendar();
        self.relocate(device, future, t, Orphans::Evict);
        self.collect_completions(device);
    }

    /// Breaker-open failover: once a lane's breaker trips, its queued
    /// (not-yet-launched) requests migrate to lanes that can still
    /// dispatch, deadlines intact. With no such lane (fleet of one, or
    /// every survivor down) the queue stays put — which is exactly the
    /// single-server behavior, keeping the fleet-of-1 reduction exact
    /// even under faults.
    fn failover_if_open(&mut self, device: usize) {
        if !self.lanes[device].server.breaker_open() || self.lanes[device].server.queue_len() == 0 {
            return;
        }
        let has_target = self.lanes.iter().enumerate().any(|(i, l)| {
            i != device && l.state == DeviceState::Active && !l.server.breaker_open()
        });
        if !has_target {
            return;
        }
        let t = self.lanes[device].server.now_us();
        let reqs = self.lanes[device].server.take_queued();
        self.relocate(device, reqs, t, Orphans::ReturnToSource);
    }

    /// Move `reqs` (EDF order) off `source` at instant `t_us`: each
    /// request goes to the router's preferred remaining lane, falling
    /// through full queues to the next choice. Receiving lanes advance
    /// to the handover instant so migrated work is never served in the
    /// fleet's past.
    fn relocate(
        &mut self,
        source: usize,
        reqs: Vec<DetectionRequest>,
        t_us: f64,
        orphans: Orphans,
    ) {
        let mut moved = 0u64;
        for req in reqs {
            let geometry = req.geometry();
            let mut views = self.lane_views(geometry, req.backend);
            views[source].accepting = false;
            let mut unplaced = Some(req);
            while let Some(req) = unplaced.take() {
                let Some(target) = self.router.pick(&views) else {
                    unplaced = Some(req);
                    break;
                };
                self.lanes[target].server.advance_to(t_us);
                match self.lanes[target].server.inject(req) {
                    Ok(()) => {
                        self.record_geometry(target, geometry);
                        moved += 1;
                    }
                    Err(bounced) => {
                        unplaced = Some(bounced);
                        views[target].accepting = false;
                    }
                }
            }
            if let Some(req) = unplaced {
                match orphans {
                    Orphans::ReturnToSource => {
                        // The slots we drained are free again, so this
                        // cannot bounce; evict rather than lose it if
                        // it somehow does.
                        if let Err(req) = self.lanes[source].server.inject(req) {
                            self.evict(source, req, t_us);
                        }
                    }
                    Orphans::Evict => self.evict(source, req, t_us),
                }
            }
        }
        if moved > 0 {
            self.router.stats_mut().migrations += moved;
            self.router.stats_mut().failovers += 1;
        }
    }

    /// Finish a request no lane could take as Evicted (accounted at
    /// fleet level: its original lane already counted the submission).
    fn evict(&mut self, device: usize, req: DetectionRequest, t_us: f64) {
        let done = req.complete(RequestOutcome::Evicted { evicted_us: t_us });
        self.local_stats.record(&done);
        self.completed.push(done);
        self.completed_device.push(device);
    }

    /// Deterministic work stealing: while an idle healthy lane and a
    /// deep-enough victim exist, move the loosest-deadline half of the
    /// deepest queue (at most [`MAX_STEAL`]) to the lowest-index idle
    /// lane. Each move strictly shrinks the deepest queue and occupies
    /// a thief, so the loop terminates.
    fn balance(&mut self) {
        loop {
            let thief = self.lanes.iter().enumerate().position(|(_, l)| {
                l.state == DeviceState::Active
                    && l.server.health() == crate::ServerHealth::Healthy
                    && l.server.pending() == 0
            });
            let Some(thief) = thief else { return };
            let victim = self
                .lanes
                .iter()
                .enumerate()
                .filter(|&(i, l)| {
                    i != thief
                        && l.state == DeviceState::Active
                        && l.server.queue_len() >= MIN_VICTIM_QUEUE
                })
                .max_by_key(|&(i, l)| (l.server.queue_len(), usize::MAX - i))
                .map(|(i, _)| i);
            let Some(victim) = victim else { return };
            if self.steal_once(thief, victim) == 0 {
                return;
            }
        }
    }

    /// One thief-victim transfer. Returns the number of requests moved.
    fn steal_once(&mut self, thief: usize, victim: usize) -> u64 {
        let mut queue = self.lanes[victim].server.take_queued();
        let take = (queue.len() / 2).min(MAX_STEAL);
        let stolen = queue.split_off(queue.len() - take);
        for req in queue {
            // Just drained from these very slots; cannot bounce.
            let _ = self.lanes[victim].server.inject(req);
        }
        // The thief picks the work up at the victim's instant — the
        // earliest moment the fleet knows the victim is backlogged.
        let t = self.lanes[victim].server.now_us();
        self.lanes[thief].server.advance_to(t);
        let mut moved = 0u64;
        for req in stolen {
            let geometry = req.geometry();
            // A thief of a different engine can never take the work:
            // the result would come off the wrong kernel chain.
            if self.lanes[thief].server.backend() != req.backend {
                let _ = self.lanes[victim].server.inject(req);
                continue;
            }
            match self.lanes[thief].server.inject(req) {
                Ok(()) => {
                    self.record_geometry(thief, geometry);
                    moved += 1;
                }
                Err(req) => {
                    let _ = self.lanes[victim].server.inject(req);
                }
            }
        }
        self.router.stats_mut().steals += moved;
        moved
    }

    fn collect_completions(&mut self, device: usize) {
        for c in self.lanes[device].server.take_completed() {
            self.completed.push(c);
            self.completed_device.push(device);
        }
    }

    /// Per-lane snapshots the router decides over, for one geometry and
    /// backend class.
    fn lane_views(&self, geometry: GeomClass, backend: Backend) -> Vec<LaneView> {
        self.lanes
            .iter()
            .map(|l| LaneView {
                accepting: l.state == DeviceState::Active,
                breaker_open: l.server.breaker_open(),
                pending: l.server.pending(),
                has_geometry: l.geometries.contains(&geometry),
                backend_match: l.server.backend() == backend,
            })
            .collect()
    }

    fn record_geometry(&mut self, device: usize, geometry: GeomClass) {
        let geometries = &mut self.lanes[device].geometries;
        if !geometries.contains(&geometry) {
            geometries.push(geometry);
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

    fn det_cfg() -> DetectorConfig {
        DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() }
    }

    fn fleet(devices: usize, config: FleetConfig) -> FleetServer {
        FleetServer::new(&edge_cascade(), det_cfg(), devices, config).expect("fleet")
    }

    fn outcome_kind(c: &CompletedRequest) -> u8 {
        match &c.outcome {
            RequestOutcome::Served { .. } => 0,
            RequestOutcome::Degraded { .. } => 1,
            RequestOutcome::ShedLate { .. } => 2,
            RequestOutcome::RejectedQueueFull => 3,
            RequestOutcome::RejectedBrownOut => 4,
            RequestOutcome::RejectedFailFast => 5,
            RequestOutcome::Failed { .. } => 6,
            RequestOutcome::Expired { .. } => 7,
            RequestOutcome::Evicted { .. } => 8,
        }
    }

    fn fingerprint(completed: &[CompletedRequest]) -> Vec<(u64, u8, u64)> {
        completed
            .iter()
            .map(|c| {
                let t = match &c.outcome {
                    RequestOutcome::Served { completed_us, result, .. }
                    | RequestOutcome::Degraded { completed_us, result, .. } => {
                        completed_us.to_bits() ^ result.raw.len() as u64
                    }
                    RequestOutcome::ShedLate { shed_us } => shed_us.to_bits(),
                    RequestOutcome::Expired { expired_us, .. } => expired_us.to_bits(),
                    RequestOutcome::Evicted { evicted_us } => evicted_us.to_bits(),
                    _ => 0,
                };
                (c.id.0, outcome_kind(c), t)
            })
            .collect()
    }

    #[test]
    fn fleet_of_one_reproduces_the_single_server_exactly() {
        let submissions: Vec<(f64, usize, Priority)> =
            (0..12).map(|i| (i as f64 * 350.0, i % 4, Priority::ALL[i % 3])).collect();
        let mut single =
            DetectionServer::new(&edge_cascade(), det_cfg(), ServeConfig::default()).unwrap();
        let mut fleet = fleet(1, FleetConfig::default());
        for &(t, shift, p) in &submissions {
            single.submit(pattern_frame(64, 48, shift), p, t, 30_000.0).unwrap();
            fleet.submit(pattern_frame(64, 48, shift), p, t, 30_000.0).unwrap();
        }
        single.run();
        fleet.run();
        assert_eq!(fingerprint(single.completed()), fingerprint(fleet.completed()));
        assert_eq!(&fleet.stats(), single.stats(), "merged stats equal the lane's");
        assert_eq!(fleet.now_us(), single.now_us());
    }

    #[test]
    fn two_devices_split_the_load_and_account_exactly() {
        let n = 12u64;
        let mut f = fleet(2, FleetConfig::default());
        for i in 0..n {
            f.submit(pattern_frame(64, 48, (i % 4) as usize), Priority::Standard, 0.0, 1e9)
                .unwrap();
        }
        f.run();
        let total = f.stats();
        assert_eq!(total.submitted, n);
        assert_eq!(total.served, n);
        assert_eq!(f.completed().len() as u64, n);
        assert!(f.device_stats(0).served > 0, "device 0 took a share");
        assert!(f.device_stats(1).served > 0, "device 1 took a share");
        let routed = f.router_stats().routed_per_device.clone();
        assert_eq!(routed.iter().sum::<u64>(), n);
        assert!(routed.iter().all(|&r| r > 0), "router spread the load: {routed:?}");
    }

    #[test]
    fn killed_device_migrates_queue_and_calendar_to_survivors() {
        let run = |kill: bool| {
            let mut f = fleet(2, FleetConfig::default());
            for i in 0..16u64 {
                f.submit(
                    pattern_frame(64, 48, (i % 4) as usize),
                    Priority::Standard,
                    i as f64 * 200.0,
                    1e9,
                )
                .unwrap();
            }
            if kill {
                f.schedule_kill(0, 900.0);
            }
            f.run();
            (f.stats(), f.router_stats().clone(), fingerprint(f.completed()))
        };
        let (stats, router, print) = run(true);
        assert_eq!(stats.served, 16, "survivor absorbs everything (generous SLO)");
        assert_eq!(stats.evicted, 0);
        assert!(router.migrations > 0, "the kill must actually move requests");
        assert!(router.failovers > 0);
        let (_, _, print2) = run(true);
        assert_eq!(print, print2, "chaos runs are seed-reproducible");
        let (baseline, _, _) = run(false);
        assert_eq!(baseline.served, 16);
    }

    #[test]
    fn commands_apply_in_instant_order_and_never_delay_earlier_work() {
        // Two early requests, then 22 more every 0.3 ms from 17 ms; lane 1
        // dies at 12.1 ms, lane 0 at 14.1 ms, lane 2 drains at 16.04 ms.
        // Idle lane 1's kill must wait for the frontier: applied early, its
        // hand-over would move lane 0's clock past the early work.
        let mut f = fleet(3, FleetConfig::default());
        let arrivals =
            [1200.0, 1300.0].into_iter().chain((0..22).map(|i| 17_000.0 + 300.0 * i as f64));
        for (i, t) in arrivals.enumerate() {
            f.submit(pattern_frame(64, 48, i % 4), Priority::Standard, t, 1e9).unwrap();
        }
        let kills = [(1, 12_100.0), (0, 14_100.0)];
        for (device, at) in kills {
            f.schedule_kill(device, at);
        }
        f.schedule_drain(2, 16_040.0);
        f.run();
        assert_eq!(f.completed().len(), 24);
        for (c, &d) in f.completed().iter().zip(f.completed_device()) {
            match c.outcome {
                RequestOutcome::Served { dispatched_us, completed_us, .. } => {
                    assert!(c.arrival_us < 2000.0, "request {} served: {:?}", c.id, c.outcome);
                    assert!(
                        completed_us < 12_100.0,
                        "request {} served late at {completed_us}",
                        c.id
                    );
                    if let Some(&(_, kill)) = kills.iter().find(|(k, _)| *k == d) {
                        assert!(dispatched_us < kill, "lane {d} served after its kill");
                    }
                }
                RequestOutcome::Evicted { .. } => {
                    assert!(c.arrival_us > 16_040.0, "request {} evicted", c.id)
                }
                ref other => panic!("request {}: unexpected {other:?}", c.id),
            }
        }
        assert_eq!(f.stats().served, 2);
        assert_eq!(f.stats().evicted, 22);
    }

    #[test]
    fn kill_with_no_survivor_evicts_rather_than_loses() {
        let mut f = fleet(1, FleetConfig::default());
        for i in 0..5u64 {
            f.submit(pattern_frame(64, 48, 0), Priority::Standard, i as f64 * 100.0, 1e9).unwrap();
        }
        f.kill_device(0);
        f.run();
        let stats = f.stats();
        assert_eq!(stats.evicted, 5, "nothing is silently dropped");
        assert_eq!(stats.submitted, 5);
        assert_eq!(f.completed().len(), 5);
        assert!(f.completed().iter().all(|c| matches!(c.outcome, RequestOutcome::Evicted { .. })));
        assert_eq!(f.device_state(0), DeviceState::Dead);
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn draining_stops_admission_but_serves_rejoined_traffic() {
        let mut f = fleet(2, FleetConfig::default());
        for i in 0..8u64 {
            f.submit(pattern_frame(64, 48, (i % 4) as usize), Priority::Standard, 0.0, 1e9)
                .unwrap();
        }
        // Drain before anything arrives: device 0's calendar re-routes.
        f.drain_device(0);
        assert_eq!(f.device_state(0), DeviceState::Draining);
        f.run();
        assert_eq!(f.device_stats(0).served, 0, "drained before serving anything");
        assert_eq!(f.device_stats(1).served, 8);
        // Rejoined, the device serves again (least-loaded, lowest index).
        f.rejoin_device(0);
        assert_eq!(f.device_state(0), DeviceState::Active);
        let t = f.now_us();
        for i in 0..4u64 {
            f.submit(pattern_frame(64, 48, (i % 4) as usize), Priority::Standard, t, 1e9).unwrap();
        }
        f.run();
        assert!(f.device_stats(0).served > 0, "rejoined device takes traffic");
        assert_eq!(f.stats().served, 12);
    }

    #[test]
    fn idle_lane_steals_from_a_deep_queue() {
        // Two geometries: a small frame takes device 0, then affinity
        // piles ten same-geometry requests on device 1. Device 0 serves
        // its one request and goes idle while device 1 is still
        // backlogged — stealing must move work to the idle lane.
        let mut f = fleet(2, FleetConfig::default());
        f.submit(pattern_frame(32, 48, 0), Priority::Standard, 0.0, 1e9).unwrap();
        for i in 0..10u64 {
            f.submit(pattern_frame(64, 48, (i % 4) as usize), Priority::Standard, 0.0, 1e9)
                .unwrap();
        }
        f.run();
        assert_eq!(f.stats().served, 11);
        assert_eq!(f.router_stats().routed_per_device, [1, 10]);
        assert!(f.router_stats().steals > 0, "idle lane must steal from the backlog");
        assert!(f.device_stats(0).served > 1, "the thief served stolen work, not just its own");
    }

    #[test]
    fn affinity_keeps_each_geometry_on_its_lane() {
        // Two geometries interleaved, spaced so no queue ever backs up
        // far enough to be stolen from: the first of each goes to the
        // least-loaded lane, and every later one follows it there.
        let mut f = fleet(2, FleetConfig::default());
        for i in 0..8u64 {
            let (w, h) = if i % 2 == 0 { (64, 48) } else { (96, 72) };
            f.submit(pattern_frame(w, h, 0), Priority::Standard, i as f64 * 2000.0, 1e9).unwrap();
        }
        f.run();
        assert_eq!(f.stats().served, 8);
        assert_eq!(f.router_stats().steals, 0);
        assert_eq!(f.router_stats().routed_per_device, [4, 4]);
        for (c, &d) in f.completed().iter().zip(f.completed_device()) {
            assert_eq!(d as u64, c.id.0 % 2, "request {} left its geometry's lane", c.id);
        }
    }

    #[test]
    fn mixed_fleet_routes_each_backend_class_to_its_lane() {
        use fd_cnn::{CnnDetector, CnnModel};
        let haar = FaceDetector::try_new(&edge_cascade(), det_cfg()).expect("haar");
        let cnn = CnnDetector::try_new(&CnnModel::seeded(0), det_cfg()).expect("cnn");
        let detectors: Vec<Box<dyn Detector>> = vec![Box::new(haar), Box::new(cnn)];
        let mut f = FleetServer::from_detectors(detectors, FleetConfig::default());
        assert_eq!(f.device_backend(0), Backend::Haar);
        assert_eq!(f.device_backend(1), Backend::Cnn);
        for i in 0..6u64 {
            let backend = Backend::ALL[(i % 2) as usize];
            f.submit_to_backend(
                pattern_frame(64, 48, (i % 4) as usize),
                Priority::Standard,
                0.0,
                1e9,
                backend,
            )
            .expect("valid submission");
        }
        f.run();
        let st = f.stats();
        assert_eq!(st.served, 6);
        assert_eq!(st.submitted_per_backend, [3, 3]);
        assert_eq!(st.served_per_backend, [3, 3]);
        assert_eq!(st.backend_latency(Backend::Haar).len(), 3);
        assert_eq!(st.backend_latency(Backend::Cnn).len(), 3);
        assert_eq!(st.backend_goodput(Backend::Cnn), 1.0);
        // Every completion ran on the lane whose engine matches its
        // class — the wrong-backend lane never takes a request, even
        // when idle (work stealing included).
        for (c, &d) in f.completed().iter().zip(f.completed_device()) {
            assert_eq!(f.device_backend(d), c.backend, "request {} misrouted", c.id);
        }
        // The backend-less front door takes lane 0's (Haar's) class.
        let t = f.now_us();
        f.submit(pattern_frame(64, 48, 0), Priority::Standard, t, 1e9).expect("submit");
        f.run();
        assert_eq!(f.stats().submitted_per_backend, [4, 3]);
    }

    #[test]
    fn backend_with_no_lane_is_refused_at_the_front_door() {
        let mut f = fleet(2, FleetConfig::default());
        let err = f.submit_to_backend(
            pattern_frame(64, 48, 0),
            Priority::Standard,
            0.0,
            1e9,
            Backend::Cnn,
        );
        assert!(
            matches!(err, Err(ServeError::NoCapacity { width: 64, height: 48 })),
            "a Haar-only fleet cannot take CNN traffic: {err:?}"
        );
        assert_eq!(f.router_stats().admission_rejected, 1);
    }

    #[test]
    fn invalid_submissions_are_rejected_up_front() {
        let mut f = fleet(2, FleetConfig::default());
        assert!(matches!(
            f.submit(pattern_frame(64, 48, 0), Priority::Standard, f64::NAN, 1e6),
            Err(ServeError::InvalidSubmission { .. })
        ));
        assert!(matches!(
            f.submit(pattern_frame(64, 48, 0), Priority::Standard, 0.0, 0.0),
            Err(ServeError::InvalidSubmission { .. })
        ));
        // All lanes dead: capacity error, not a panic.
        f.kill_device(0);
        f.kill_device(1);
        assert!(matches!(
            f.submit(pattern_frame(64, 48, 0), Priority::Standard, 0.0, 1e6),
            Err(ServeError::NoCapacity { .. })
        ));
    }
}
