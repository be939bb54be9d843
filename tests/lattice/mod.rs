//! The identity lattice: one oracle for the reproduction's core invariant,
//! that how the device is driven never changes a detection.
//!
//! A [`Case`] is [`FRAMES`] seeded frames of one random geometry, with a Haar
//! test cascade and a seeded CNN model. A [`Device`] configuration fixes what
//! the simulated device runs: backend × device spec (the GTX470 and the same
//! card profiler-serialized) × (Haar only) fusion. A [`Host`] cell adds the
//! host-side axes: the [`Front`] that drives the detector, the host thread
//! count and an inert fault plan. Rather than the full cross product, [`check`]
//! runs a device configuration's reference cell ([`REFERENCE`]: `detect`, one
//! thread, no plan) and the cells it is given, reduces every run to a
//! [`Digest`] and asserts:
//!
//! * every cell's raw and grouped detections, frame by frame, equal the
//!   oracle's: `cpu_ref::detect_cpu` for the Haar cascade, the reference
//!   cell for the CNN (whose integer arithmetic makes it its own oracle);
//! * no cell's drain fell back to a full barrier for a launch without a
//!   declared access set (`Profiler::opaque_launches` is 0);
//! * a front of one (`detect`, the stream, a server or a fleet of one at
//!   `max_batch_size: 1`) reproduces the reference cell's latency bits,
//!   timelines and profiler `Debug`, and a batching front its own
//!   one-thread, no-plan cell's;
//! * the front's own state (completion log and `ServeStats`, or
//!   `StreamStats`) is the same at every thread count and plan, and a
//!   fleet of one's is the single server's.
//!
//! The tests that include this module (`mod lattice;`) are slices of it:
//! each picks its cells and calls [`slice`], which also asserts that at
//! more than one host thread a pool worker ran blocks of both backends, so
//! the thread axis never compares the serial path with itself.

// Each slice uses part of the module.
#![allow(dead_code)]

use std::fmt::Write as _;
use std::ops::RangeInclusive;

use facedet::detector::cpu_ref::detect_cpu;
use facedet::detector::{group_detections, Detection, VideoDetector};
use facedet::gpu::{FaultPlan, Profiler};
use facedet::imgproc::synth::{render_random_background, FaceParams};
use facedet::prelude::*;
use facedet::serve::{CompletedRequest, RequestOutcome};
use facedet::video::DecodedFrame;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Frames per case; the batch front submits them as one batch.
const FRAMES: usize = 4;

/// Frame geometry of every case. At 48x36 the CNN's drains stay under
/// the pool's parallel-work floor, so its thread axis would compare the
/// serial path with itself.
const WIDTH: RangeInclusive<usize> = 64..=96;
const HEIGHT: RangeInclusive<usize> = 48..=72;

/// Every serving request's SLO, virtual µs: nothing is ever shed.
const SLO_US: f64 = 1e9;

/// Minimum raw windows per grouped detection in every cell.
const MIN_NEIGHBORS: usize = 1;

/// What the simulated device runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    pub backend: Backend,
    pub spec: DeviceSpec,
    /// Haar only: fused pyramid chains.
    pub fusion: bool,
}

/// Every device configuration: the Haar cascade on each device spec ×
/// fusion, the CNN (which has no such knob) on each spec.
pub fn devices() -> Vec<Device> {
    let mut all = Vec::new();
    for spec in [DeviceSpec::gtx470().profiler_serialized(), DeviceSpec::gtx470()] {
        for fusion in [false, true] {
            all.push(Device { backend: Backend::Haar, spec: spec.clone(), fusion });
        }
        all.push(Device { backend: Backend::Cnn, spec, fusion: false });
    }
    all
}

/// One Haar and one CNN configuration, picked by `seed`: the devices of a
/// slice whose axes are all host-side.
pub fn device_pair(seed: u64) -> Vec<Device> {
    let all = devices();
    Backend::ALL
        .map(|backend| {
            let of: Vec<&Device> = all.iter().filter(|d| d.backend == backend).collect();
            of[(seed % of.len() as u64) as usize].clone()
        })
        .to_vec()
}

/// How the detector is driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Front {
    /// `detect`, frame by frame.
    Detect,
    /// `detect_batch_with_plan` over all the frames as one submission.
    Batch,
    /// `VideoDetector::run_stream` (the Haar cascade only).
    Stream,
    /// A `DetectionServer` open loop with mixed priorities: unbatched is
    /// `max_batch_size: 1`, batched the default `BatchPolicy`.
    Server { batched: bool },
    /// A `FleetServer` of one device, its lane configured as the server.
    Fleet { batched: bool },
}

impl Front {
    /// The front whose one-thread, no-plan cell this front's own state
    /// must equal: a fleet of one's is the server's.
    fn anchor(self) -> Front {
        match self {
            Front::Fleet { batched } => Front::Server { batched },
            front => front,
        }
    }

    /// Fronts that submit one frame per device submission, in frame
    /// order: they reproduce `detect`'s device state.
    fn of_one(self) -> bool {
        matches!(
            self,
            Front::Detect
                | Front::Stream
                | Front::Server { batched: false }
                | Front::Fleet { batched: false }
        )
    }
}

/// A cell's host-side axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Host {
    pub front: Front,
    pub threads: usize,
    /// Seed of an inert `FaultPlan::seeded`, or no plan.
    pub plan: Option<u64>,
}

/// Every device configuration's reference cell.
const REFERENCE: Host = Host { front: Front::Detect, threads: 1, plan: None };

/// Each of `fronts` at each of `threads` with each of `plans`.
pub fn cells(fronts: &[Front], threads: &[usize], plans: &[Option<u64>]) -> Vec<Host> {
    let mut cells = Vec::new();
    for &front in fronts {
        for &threads in threads {
            for &plan in plans {
                cells.push(Host { front, threads, plan });
            }
        }
    }
    cells
}

/// Seeded frames of one geometry and the models that run on them.
struct Case {
    seed: u64,
    frames: Vec<GrayImage>,
    cascade: Cascade,
    model: CnnModel,
    /// The serving fronts' requests: arrival instants (strictly increasing,
    /// so earliest-deadline-first is arrival order) and priority classes.
    arrivals: Vec<(f64, Priority)>,
    /// `cpu_ref` raw and grouped detections per frame: the Haar oracle.
    cpu_raw: Vec<Vec<Detection>>,
    cpu_grouped: Vec<Vec<GroupedDetection>>,
}

impl Case {
    /// Textured frames, each with a synthetic face and one dark/bright
    /// edge pair the cascade fires on at level 0.
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (w, h) = (rng.random_range(WIDTH), rng.random_range(HEIGHT));
        let frames: Vec<GrayImage> = (0..FRAMES)
            .map(|_| {
                let mut img = render_random_background(&mut rng, w, h);
                let face = rng.random_range(24..=h.min(40));
                let (fx, fy) = (rng.random_range(0..=w - face), rng.random_range(0..=h - face));
                img.blit(&FaceParams::sample(&mut rng).render(face), fx as i32, fy as i32);
                let edge = GrayImage::from_fn(16, 24, |x, _| if x < 8 { 10.0 } else { 245.0 });
                let (ex, ey) = (rng.random_range(4..=w - 20), rng.random_range(0..=h - 24));
                img.blit(&edge, ex as i32, ey as i32);
                img
            })
            .collect();
        // One to three single-stump stages on the edge feature. Leaves of
        // ±1 and stage thresholds of 0.5 keep every score exact in f32, so
        // the device's scores equal `cpu_ref`'s bit for bit.
        let feature = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        let threshold = rng.random_range(2_000..8_000);
        let mut cascade = Cascade::new("lattice", 24);
        for stage in 0..rng.random_range(1..=3) {
            cascade.stages.push(Stage {
                stumps: vec![Stump {
                    feature,
                    threshold: threshold + 512 * stage,
                    left: -1.0,
                    right: 1.0,
                }],
                threshold: 0.5,
            });
        }
        let mut t = 0.0f64;
        let arrivals = (0..FRAMES)
            .map(|i| {
                t += rng.random_range(1.0..4_000.0);
                (t, Priority::ALL[i % Priority::ALL.len()])
            })
            .collect();
        let config = DetectorConfig::default();
        let cpu_raw: Vec<Vec<Detection>> =
            frames.iter().map(|f| detect_cpu(&cascade, f, config.scale_factor)).collect();
        assert!(cpu_raw.iter().any(|r| !r.is_empty()), "lattice case {seed}: nothing to detect");
        let cpu_grouped = cpu_raw
            .iter()
            .map(|r| group_detections(r, config.overlap_threshold, MIN_NEIGHBORS))
            .collect();
        Self {
            seed,
            frames,
            cascade,
            model: CnnModel::seeded(seed),
            arrivals,
            cpu_raw,
            cpu_grouped,
        }
    }

    /// The serving fronts' submissions: frame, priority, arrival instant.
    fn requests(&self) -> impl Iterator<Item = (GrayImage, Priority, f64)> + '_ {
        self.frames.iter().zip(&self.arrivals).map(|(f, &(t, p))| (f.clone(), p, t))
    }
}

/// What one run of a cell leaves behind.
struct Digest {
    /// Per frame: raw and grouped detections.
    raw: Vec<Vec<Detection>>,
    grouped: Vec<Vec<GroupedDetection>>,
    /// Per frame: latency bits and the timeline's `Debug`.
    latency: Vec<u64>,
    timelines: Vec<String>,
    /// The profiler's (wall-clock-free) `Debug`.
    profiler: String,
    /// Launches the drain had to treat as touching everything.
    opaque_launches: u64,
    /// The front's own state: completion log and `ServeStats`,
    /// `StreamStats`, or nothing.
    front: String,
}

fn detector_config(device: &Device, host: Host) -> DetectorConfig {
    DetectorConfig {
        device: device.spec.clone(),
        min_neighbors: MIN_NEIGHBORS,
        host_threads: Some(host.threads),
        fault_plan: host.plan.map(FaultPlan::seeded),
        fusion: Some(device.fusion),
        ..DetectorConfig::default()
    }
}

fn serve_config(batched: bool) -> ServeConfig {
    let batch = if batched { BatchPolicy::default() } else { BatchPolicy { max_batch_size: 1 } };
    ServeConfig { batch, ..ServeConfig::default() }
}

/// Results in request (= frame) order, and the completion log in
/// completion order.
fn served(completed: &[CompletedRequest]) -> (Vec<FrameResult>, String) {
    let mut results = vec![None; FRAMES];
    let mut log = String::new();
    for c in completed {
        let RequestOutcome::Served { dispatched_us, completed_us, batch_size, result } = &c.outcome
        else {
            panic!("lattice cell: {} was not served: {:?}", c.id, c.outcome);
        };
        let (d, t) = (dispatched_us.to_bits(), completed_us.to_bits());
        writeln!(log, "{} {:?} {d:x} {t:x} {batch_size}", c.id, c.priority).unwrap();
        results[c.id.0 as usize] = Some(result.clone());
    }
    let results = results.into_iter().map(|r| r.expect("every request completes")).collect();
    (results, log)
}

/// The profiler's `Debug`, its opaque launches, and whether a pool worker
/// ran any block.
fn spent(profiler: &Profiler) -> (String, u64, bool) {
    let pooled = profiler.host_spans().iter().any(|s| s.worker > 0);
    (format!("{profiler:?}"), profiler.opaque_launches(), pooled)
}

/// Runs one cell: its digest, and whether a pool worker ran any block.
fn run(case: &Case, device: &Device, host: Host) -> (Digest, bool) {
    let config = detector_config(device, host);
    let mut detector: Box<dyn Detector> = match device.backend {
        Backend::Haar => {
            Box::new(FaceDetector::try_new(&case.cascade, config.clone()).expect("Haar detector"))
        }
        Backend::Cnn => {
            Box::new(CnnDetector::try_new(&case.model, config.clone()).expect("CNN detector"))
        }
    };
    let frames = &case.frames;
    let (results, front, (profiler, opaque, pooled)): (Vec<FrameResult>, _, _) = match host.front {
        Front::Detect => {
            let results = frames.iter().map(|f| detector.detect(f).expect("detect")).collect();
            (results, String::new(), spent(detector.profiler()))
        }
        Front::Batch => {
            let refs: Vec<&GrayImage> = frames.iter().collect();
            let plan = detector.pyramid_plan(&frames[0]).expect("plan");
            let results = detector.detect_batch_with_plan(&refs, &plan).expect("batch");
            (results, String::new(), spent(detector.profiler()))
        }
        Front::Stream => {
            assert_eq!(device.backend, Backend::Haar, "the stream drives the Haar cascade");
            let mut stream =
                VideoDetector::new(&case.cascade, config, 24.0).expect("video detector");
            let decoded = frames.iter().enumerate().map(|(index, luma)| DecodedFrame {
                index,
                luma: luma.clone(),
                decode_ms: 2.0,
                pts_ms: index as f64 * 1000.0 / 24.0,
                fault: None,
            });
            let results = stream
                .run_stream(decoded)
                .into_iter()
                .map(|r| r.result.expect("a fault-free frame has a result"))
                .collect();
            (results, format!("{:?}", stream.stats()), spent(stream.detector().profiler()))
        }
        Front::Server { batched } => {
            let mut server = DetectionServer::from_detector(detector, serve_config(batched));
            for (frame, priority, t) in case.requests() {
                server.submit(frame, priority, t, SLO_US).expect("valid submission");
            }
            server.run();
            let (results, log) = served(server.completed());
            let front = format!("{log}{:?}", server.stats());
            (results, front, spent(server.detector().profiler()))
        }
        Front::Fleet { batched } => {
            let config = FleetConfig { serve: serve_config(batched) };
            let mut fleet = FleetServer::from_detectors(vec![detector], config);
            for (frame, priority, t) in case.requests() {
                fleet.submit(frame, priority, t, SLO_US).expect("valid submission");
            }
            fleet.run();
            let (results, log) = served(fleet.completed());
            let front = format!("{log}{:?}", fleet.stats());
            (results, front, spent(fleet.device(0).detector().profiler()))
        }
    };
    let digest = Digest {
        raw: results.iter().map(|r| r.raw.clone()).collect(),
        grouped: results.iter().map(|r| r.detections.clone()).collect(),
        latency: results.iter().map(|r| r.detect_ms.to_bits()).collect(),
        timelines: results.iter().map(|r| format!("{:?}", r.timeline)).collect(),
        profiler,
        opaque_launches: opaque,
        front,
    };
    (digest, pooled)
}

/// Runs `device`'s reference cell, the one-thread, no-plan cell of every
/// front the `hosts` use, and the `hosts` over `case`, asserting the
/// lattice's identities (see the module docs). Returns whether a pool
/// worker ran blocks in any cell.
fn check(case: &Case, device: &Device, hosts: &[Host]) -> bool {
    let hosts: Vec<Host> = hosts
        .iter()
        .copied()
        .filter(|h| h.front != Front::Stream || device.backend == Backend::Haar)
        .collect();
    let mut fronts = vec![Front::Detect];
    for front in hosts.iter().map(|h| h.front.anchor()) {
        if !fronts.contains(&front) {
            fronts.push(front);
        }
    }
    let mut pooled = false;
    let anchors: Vec<(Host, Digest)> = fronts
        .into_iter()
        .map(|front| {
            let host = Host { front, ..REFERENCE };
            let (digest, p) = run(case, device, host);
            pooled |= p;
            (host, digest)
        })
        .collect();
    let anchor = |front: Front| &anchors.iter().find(|(h, _)| h.front == front).expect("run").1;
    let reference = anchor(Front::Detect);
    let (raw, grouped) = match device.backend {
        Backend::Haar => (&case.cpu_raw, &case.cpu_grouped),
        Backend::Cnn => (&reference.raw, &reference.grouped),
    };

    let assert_cell = |host: Host, digest: &Digest| {
        let cell = format!("lattice cell {device:?} {host:?}, case {}", case.seed);
        assert_eq!(&digest.raw, raw, "{cell}: raw detections");
        assert_eq!(&digest.grouped, grouped, "{cell}: grouped detections");
        let own = anchor(host.front.anchor());
        assert_eq!(digest.front, own.front, "{cell}: completion log and statistics");
        let device_state = if host.front.of_one() { reference } else { own };
        assert_eq!(digest.latency, device_state.latency, "{cell}: latency bits");
        assert_eq!(digest.timelines, device_state.timelines, "{cell}: timelines");
        assert_eq!(digest.profiler, device_state.profiler, "{cell}: profiler");
        assert_eq!(digest.opaque_launches, 0, "{cell}: opaque launches");
    };
    for (host, digest) in &anchors {
        assert_cell(*host, digest);
    }
    for host in hosts {
        if anchors.iter().any(|(h, _)| *h == host) {
            continue;
        }
        let (digest, p) = run(case, device, host);
        pooled |= p;
        assert_cell(host, &digest);
    }
    pooled
}

/// [`check`]s `hosts` on each of `devices` over the case drawn from
/// `seed`; with any cell above one host thread, asserts that a pool worker
/// ran blocks of each backend.
pub fn slice(seed: u64, devices: &[Device], hosts: &[Host]) {
    let case = Case::new(seed);
    let threaded = hosts.iter().any(|h| h.threads > 1);
    for backend in Backend::ALL {
        let mut pooled = false;
        for device in devices.iter().filter(|d| d.backend == backend) {
            pooled |= check(&case, device, hosts);
        }
        assert!(
            pooled || !threaded,
            "lattice case {seed}: no pool worker ran a {} block",
            backend.name()
        );
    }
}
