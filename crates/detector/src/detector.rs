//! The public detector API, written once for every backend.
//!
//! [`PyramidDetector`] wraps a backend's [`Pipeline`] with detection
//! extraction, grouping and the per-frame statistics the paper's
//! evaluation consumes (latency, per-stage rejection histograms, profiler
//! counters). [`FaceDetector`] is the paper's Haar cascade; `fd-cnn`'s
//! `CnnDetector` is the same front over the CNN stage list.

use fd_gpu::{DeviceSpec, ExecMode, FaultPlan, Gpu, Timeline};
use fd_imgproc::GrayImage;

use crate::error::DetectorError;
use crate::group::{group_detections, Detection, GroupedDetection};
use crate::haar::HaarStages;
use crate::pipeline::{Pipeline, StageList};

/// Detector configuration.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Device to simulate.
    pub device: DeviceSpec,
    /// Serial vs concurrent kernel execution (the paper's comparison).
    pub exec_mode: ExecMode,
    /// Pyramid ratio between consecutive levels.
    pub scale_factor: f64,
    /// `S_eyes` overlap threshold for grouping (paper: 0.5).
    pub overlap_threshold: f64,
    /// Minimum raw windows per reported detection.
    pub min_neighbors: usize,
    /// Collect per-stage/per-scale rejection histograms (Fig. 7).
    pub collect_rejection_stats: bool,
    /// Host worker threads for the simulator's functional phase. `None`
    /// defers to the process's available parallelism; `Some(1)`
    /// runs the launches in issue order on the host thread (the reference
    /// schedule). Results are identical either way.
    pub host_threads: Option<usize>,
    /// Deterministic device fault injection (robustness experiments).
    /// `None` — and any inert plan — leaves behaviour bit-identical to a
    /// fault-free device.
    pub fault_plan: Option<FaultPlan>,
    /// Fuse the Haar pipeline's smoothing/integral stages into combined
    /// launches (see [`fd_gpu::fuse`]). `None` means off (the unfused
    /// paper baseline). Detections are bit-identical either way; fused
    /// frames pay fewer launch overheads and keep chain-internal
    /// intermediates off the global traffic ledger. The CNN backend
    /// ignores it: its stage list builds no chains, and its kernels are
    /// unfusable.
    pub fusion: Option<bool>,
    /// Read by nothing: every kernel launches its one fixed shape (the
    /// cascade the paper's 24 x 24 blocks), whatever this holds. Kept
    /// because the repo benchmark sets it; it goes with the next change
    /// to the benchmark.
    pub autotune: Option<bool>,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            device: DeviceSpec::gtx470(),
            exec_mode: ExecMode::Concurrent,
            scale_factor: 1.25,
            overlap_threshold: 0.5,
            min_neighbors: 2,
            collect_rejection_stats: false,
            host_threads: None,
            fault_plan: None,
            fusion: None,
            autotune: None,
        }
    }
}

/// Histogram of the deepest stage reached, per pyramid level (the data
/// behind the paper's Fig. 7).
#[derive(Debug, Clone)]
pub struct RejectionHistogram {
    /// `counts[level][depth]` = windows whose evaluation ended at `depth`
    /// (0 = rejected by the first stage).
    pub counts: Vec<Vec<u64>>,
    /// Valid windows per level.
    pub windows_per_level: Vec<u64>,
}

impl RejectionHistogram {
    /// Fraction of windows rejected exactly at `stage` (1-based, i.e.
    /// stage 1 rejects windows with depth 0), aggregated over all levels.
    /// There is no stage 0: it rejects nothing.
    pub fn rejection_rate_at_stage(&self, stage: usize) -> f64 {
        let total: u64 = self.windows_per_level.iter().sum();
        let Some(depth) = stage.checked_sub(1) else { return 0.0 };
        if total == 0 {
            return 0.0;
        }
        let rejected: u64 = self.counts.iter().map(|c| c.get(depth).copied().unwrap_or(0)).sum();
        rejected as f64 / total as f64
    }
}

/// Everything produced for one frame.
#[derive(Debug, Clone)]
pub struct FrameResult {
    /// Grouped detections in frame coordinates.
    pub detections: Vec<GroupedDetection>,
    /// Raw per-window detections before grouping.
    pub raw: Vec<Detection>,
    /// Simulated detection latency (device span), milliseconds.
    pub detect_ms: f64,
    /// The frame's kernel timeline (Fig. 6 source).
    pub timeline: Timeline,
    /// Per-stage rejection histogram when enabled.
    pub rejection: Option<RejectionHistogram>,
}

/// A GPU detector: one backend's stage list on its own simulated device,
/// bound to a model and configuration.
pub struct PyramidDetector<S: StageList> {
    pipeline: Pipeline<S>,
    config: DetectorConfig,
}

/// The paper's GPU face detector: the Haar cascade.
pub type FaceDetector = PyramidDetector<HaarStages>;

impl<S: StageList> PyramidDetector<S> {
    /// Panicking form of [`Self::try_new`] for static configurations.
    pub fn new(model: &S::Model, config: DetectorConfig) -> Self {
        Self::try_new(model, config).expect("a valid model and configuration")
    }

    /// Build a detector, validating the configuration and the model and
    /// staging the model on the device: a corrupt or hand-edited model is
    /// rejected with a typed error, never a device panic.
    pub fn try_new(model: &S::Model, config: DetectorConfig) -> Result<Self, DetectorError> {
        if config.device.max_concurrent_kernels == 0 {
            return Err(DetectorError::InvalidConfig {
                reason: "the device admits no kernel (max_concurrent_kernels is 0)",
            });
        }
        let mut gpu = Gpu::new(config.device.clone(), config.exec_mode);
        gpu.set_host_threads(config.host_threads);
        gpu.set_fault_plan(config.fault_plan.clone());
        let mut pipeline = Pipeline::<S>::try_new(gpu, model, config.scale_factor)?;
        pipeline.stages_mut().configure(&config);
        Ok(Self { pipeline, config })
    }

    /// Build `n` detectors over `n` independent simulated devices — the
    /// per-device handles of a serving fleet. Every replica shares the
    /// configuration, but an attached fault plan is forked per replica
    /// via [`FaultPlan::for_replica`], so device faults strike the fleet
    /// independently instead of in lockstep (replica 0 keeps the plan
    /// verbatim, making a 1-replica fleet identical to a single
    /// detector).
    pub fn try_new_replicas(
        model: &S::Model,
        config: DetectorConfig,
        n: usize,
    ) -> Result<Vec<Self>, DetectorError> {
        if n == 0 {
            return Err(DetectorError::InvalidConfig {
                reason: "a fleet needs at least one device replica",
            });
        }
        (0..n)
            .map(|i| {
                let mut cfg = config.clone();
                cfg.fault_plan = config.fault_plan.as_ref().map(|p| p.for_replica(i as u64));
                Self::try_new(model, cfg)
            })
            .collect()
    }

    /// The active configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The model as the device evaluates it (a Haar cascade quantized).
    pub fn model(&self) -> &S::Model {
        self.pipeline.stages().model()
    }

    /// Switch execution mode (takes effect next frame).
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.config.exec_mode = mode;
        self.pipeline.gpu.set_mode(mode);
    }

    /// Accumulated profiler (all frames so far).
    pub fn profiler(&self) -> &fd_gpu::Profiler {
        self.pipeline.gpu.profiler()
    }

    /// Reset profiler statistics.
    pub fn reset_profiler(&mut self) {
        self.pipeline.gpu.reset_profiler();
    }

    /// Device fault statistics since plan attachment.
    pub fn fault_stats(&self) -> fd_gpu::FaultStats {
        self.pipeline.gpu.fault_stats()
    }

    /// Position in the deterministic fault-draw sequence (checkpointing).
    pub fn fault_cursor(&self) -> fd_gpu::FaultCursor {
        self.pipeline.gpu.fault_cursor()
    }

    /// Fast-forward the fault-draw sequence to `cursor` (resume). A fresh
    /// detector with the same `FaultPlan` sought to a saved cursor replays
    /// the remaining fault sequence bit-identically.
    pub fn seek_fault_cursor(&mut self, cursor: fd_gpu::FaultCursor) {
        self.pipeline.gpu.seek_fault_cursor(cursor);
    }

    /// Device bytes this detector currently holds (buffer pool + staged
    /// constant memory).
    pub fn device_bytes(&self) -> usize {
        self.pipeline.gpu.device_bytes_in_use()
    }

    /// The full pyramid plan for a frame (largest level first). A
    /// deadline controller truncates this and calls
    /// [`Self::detect_with_plan`] to shed the smallest scales.
    pub fn pyramid_plan(&self, frame: &GrayImage) -> Result<Vec<(usize, usize)>, DetectorError> {
        self.pipeline.plan_for(frame)
    }

    /// Detect faces in one luma frame.
    pub fn detect(&mut self, frame: &GrayImage) -> Result<FrameResult, DetectorError> {
        let plan = self.pipeline.plan_for(frame)?;
        self.detect_with_plan(frame, &plan)
    }

    /// [`Self::detect`] over a prefix of the pyramid plan.
    pub fn detect_with_plan(
        &mut self,
        frame: &GrayImage,
        plan: &[(usize, usize)],
    ) -> Result<FrameResult, DetectorError> {
        let mut results = self.detect_batch_with_plan(&[frame], plan)?;
        results.pop().ok_or(DetectorError::InvalidConfig { reason: "batch produced no output" })
    }

    /// Detect faces in a batch of same-geometry luma frames submitted as
    /// **one** device submission ([`Pipeline::submit_batch_with_plan`]):
    /// the batch pays a single launch-overhead chain and its blocks
    /// co-schedule across SMs. This is the entry point `fd-serve`'s
    /// dynamic batcher drives; a batch of one is bit-identical to
    /// [`Self::detect`].
    ///
    /// Returns one [`FrameResult`] per input frame, in input order. All
    /// results share the submission's device timeline, and `detect_ms`
    /// is the *batch* latency (every request in the batch completes when
    /// the submission drains).
    pub fn detect_batch(
        &mut self,
        frames: &[&GrayImage],
    ) -> Result<Vec<FrameResult>, DetectorError> {
        let Some(first) = frames.first() else {
            return Err(DetectorError::InvalidConfig { reason: "empty frame batch" });
        };
        let plan = self.pipeline.plan_for(first)?;
        self.detect_batch_with_plan(frames, &plan)
    }

    /// [`Self::detect_batch`] with an explicit pyramid plan, which may be
    /// a prefix of the full plan ([`Self::pyramid_plan`]) to shed the
    /// finest scales of every frame in the batch — the batched analogue
    /// of [`Self::detect_with_plan`], used by `fd-serve` for degraded
    /// completions under deadline pressure. With the full plan this is
    /// bit-identical to [`Self::detect_batch`].
    pub fn detect_batch_with_plan(
        &mut self,
        frames: &[&GrayImage],
        plan: &[(usize, usize)],
    ) -> Result<Vec<FrameResult>, DetectorError> {
        let timeline = self.pipeline.submit_batch_with_plan(frames, plan)?;
        Ok((0..frames.len())
            .map(|slot| {
                // The result maps stay on the device: the stage list reads
                // what it needs of them through the views.
                let views = self.pipeline.readback(slot);
                let stages = self.pipeline.stages();
                let raw = stages.extract_raw(&views);
                let rejection =
                    self.config.collect_rejection_stats.then(|| stages.histogram(&views));
                drop(views);
                let detections = group_detections(
                    &raw,
                    self.config.overlap_threshold,
                    self.config.min_neighbors,
                );
                FrameResult {
                    detections,
                    raw,
                    detect_ms: timeline.span_us() / 1000.0,
                    timeline: timeline.clone(),
                    rejection,
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_haar::{Cascade, FeatureKind, HaarFeature, Stage, Stump};
    use fd_imgproc::Rect;

    use crate::haar::FramePipeline;

    /// A cascade accepting strong left-dark/right-bright vertical edges.
    fn edge_cascade(stages: usize) -> Cascade {
        let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        let mut c = Cascade::new("edge", 24);
        for _ in 0..stages {
            c.stages.push(Stage {
                stumps: vec![Stump { feature: f, threshold: 8192, left: -1.0, right: 1.0 }],
                threshold: 0.5,
            });
        }
        c
    }

    /// A frame with an edge pattern sized for level-0 windows.
    fn frame_with_pattern() -> GrayImage {
        GrayImage::from_fn(80, 60, |x, y| {
            if (20..30).contains(&x) && (14..34).contains(&y) {
                5.0
            } else if (30..40).contains(&x) && (14..34).contains(&y) {
                250.0
            } else {
                120.0
            }
        })
    }

    #[test]
    fn detects_and_groups_the_pattern() {
        let mut det = FaceDetector::new(
            &edge_cascade(2),
            DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() },
        );
        let r = det.detect(&frame_with_pattern()).unwrap();
        assert!(!r.raw.is_empty(), "pattern must fire raw windows");
        assert!(!r.detections.is_empty());
        // The top detection's window contains the contrast edge (x=30).
        let top = &r.detections[0];
        assert!(top.rect.x <= 30 && top.rect.right() >= 30, "{:?}", top.rect);
        assert!(r.detect_ms > 0.0);
    }

    #[test]
    fn flat_frames_produce_nothing() {
        let mut det = FaceDetector::new(&edge_cascade(2), DetectorConfig::default());
        let r = det.detect(&GrayImage::from_fn(64, 64, |_, _| 128.0)).unwrap();
        assert!(r.raw.is_empty());
        assert!(r.detections.is_empty());
    }

    #[test]
    fn rejection_histogram_accounts_every_window() {
        let mut det = FaceDetector::new(
            &edge_cascade(3),
            DetectorConfig { collect_rejection_stats: true, ..DetectorConfig::default() },
        );
        let r = det.detect(&frame_with_pattern()).unwrap();
        let hist = r.rejection.expect("enabled");
        for (level, counts) in hist.counts.iter().enumerate() {
            let sum: u64 = counts.iter().sum();
            assert_eq!(sum, hist.windows_per_level[level], "level {level}");
        }
        // Flat regions die at stage 1: the aggregate stage-1 rejection
        // rate must dominate.
        assert!(hist.rejection_rate_at_stage(1) > 0.8);
        // There is no stage 0, and nothing past the last stage.
        assert_eq!(hist.rejection_rate_at_stage(0), 0.0);
        assert_eq!(hist.rejection_rate_at_stage(usize::MAX), 0.0);
    }

    #[test]
    fn exec_mode_switch_changes_timing_not_results() {
        let frame = frame_with_pattern();
        let mut det = FaceDetector::new(
            &edge_cascade(2),
            DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() },
        );
        let conc = det.detect(&frame).unwrap();
        det.set_exec_mode(ExecMode::Serial);
        let serial = det.detect(&frame).unwrap();
        assert_eq!(conc.raw, serial.raw);
        assert!(serial.detect_ms >= conc.detect_ms * 0.999);
    }

    #[test]
    fn detect_batch_of_one_matches_detect_bitwise() {
        let frame = frame_with_pattern();
        let cfg = DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() };
        let mut det = FaceDetector::new(&edge_cascade(2), cfg.clone());
        let single = det.detect(&frame).unwrap();
        let mut det = FaceDetector::new(&edge_cascade(2), cfg);
        let batch = det.detect_batch(&[&frame]).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(single.raw, batch[0].raw);
        assert_eq!(single.detections.len(), batch[0].detections.len());
        assert_eq!(single.detect_ms.to_bits(), batch[0].detect_ms.to_bits());
    }

    #[test]
    fn detect_batch_matches_per_frame_detection() {
        let frames = [frame_with_pattern(), GrayImage::from_fn(80, 60, |_, _| 128.0)];
        let cfg = DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() };
        let mut det = FaceDetector::new(&edge_cascade(2), cfg.clone());
        let singles: Vec<_> = frames.iter().map(|f| det.detect(f).unwrap()).collect();
        let mut det = FaceDetector::new(&edge_cascade(2), cfg);
        let refs: Vec<&GrayImage> = frames.iter().collect();
        let batch = det.detect_batch(&refs).unwrap();
        assert_eq!(batch.len(), 2);
        for (s, b) in singles.iter().zip(&batch) {
            assert_eq!(s.raw, b.raw);
        }
        assert!(!batch[0].raw.is_empty());
        assert!(batch[1].raw.is_empty());
    }

    /// `autotune` is read by nothing: a fused batch of 240x180 frames runs
    /// the same launches, on the same clock, with it on as without.
    #[test]
    fn autotune_is_inert() {
        let frame = GrayImage::from_fn(240, 180, |x, y| {
            let stripes = if (x / 12) % 2 == 0 { 0.0 } else { 230.0 };
            stripes + ((x * 31 + y * 17) % 23) as f32
        });
        let run = |autotune: Option<bool>| {
            let config = DetectorConfig {
                min_neighbors: 1,
                fusion: Some(true),
                autotune,
                ..DetectorConfig::default()
            };
            let mut det = FaceDetector::new(&edge_cascade(4), config);
            let results: Vec<_> = det
                .detect_batch(&[&frame; 4])
                .unwrap()
                .iter()
                .map(|r| format!("{:?} {:?} {:?}", r.timeline, r.raw, r.detections))
                .collect();
            (results, format!("{:?}", det.profiler()))
        };
        let (on, off) = (run(Some(true)), run(None));
        assert!(on.0[0].contains("Detection"), "the frames must fire windows");
        assert_eq!(on, off);
    }

    #[test]
    fn detection_from_views_matches_owned_readback_under_copy_faults() {
        // Every window passes, so each corrupted region of a hit mask or
        // score map shows in the raw windows.
        let mut cascade = edge_cascade(2);
        for stage in &mut cascade.stages {
            stage.threshold = -8.0;
        }
        let frame = frame_with_pattern();
        let plan = FaultPlan::seeded(41).with_copy_corruption(0.4);
        let mut det = FaceDetector::new(
            &cascade,
            DetectorConfig { fault_plan: Some(plan.clone()), ..DetectorConfig::default() },
        );
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        gpu.set_fault_plan(Some(plan));
        let mut owned = FramePipeline::new(gpu, &cascade, 1.25);

        let clean =
            FaceDetector::new(&cascade, DetectorConfig::default()).detect(&frame).unwrap().raw;
        let mut corrupted_frames = 0;
        for i in 0..12 {
            let raw = det.detect(&frame).unwrap().raw;
            let (outputs, _) = owned.run_frame(&frame).unwrap();
            // The extraction loop as it ran over owned outputs.
            let mut expect = Vec::new();
            for out in &outputs {
                for oy in 0..out.height {
                    for ox in 0..out.width {
                        if out.hits[oy * out.width + ox] != 0 {
                            let size = (24.0 * out.scale).round() as u32;
                            expect.push(Detection {
                                rect: Rect::new(
                                    (ox as f64 * out.scale).round() as i32,
                                    (oy as f64 * out.scale).round() as i32,
                                    size,
                                    size,
                                ),
                                score: out.score[oy * out.width + ox],
                                scale: out.level,
                            });
                        }
                    }
                }
            }
            assert_eq!(raw, expect, "frame {i}");
            assert_eq!(det.fault_cursor(), owned.gpu.fault_cursor(), "frame {i}: draws");
            assert_eq!(
                det.pipeline.gpu.mem.drain_copy_faults(),
                owned.gpu.mem.drain_copy_faults(),
                "frame {i}: fault log"
            );
            corrupted_frames += (raw != clean) as usize;
        }
        assert!(corrupted_frames > 0, "the plan must corrupt some readback that matters");
    }

    #[test]
    fn warp_sizes_the_cascade_kernel_cannot_run_are_rejected() {
        for warp_size in [0, 16, 64] {
            let device = DeviceSpec { warp_size, ..DeviceSpec::gtx470() };
            let config = DetectorConfig { device, ..DetectorConfig::default() };
            assert!(
                matches!(
                    FaceDetector::try_new(&edge_cascade(1), config),
                    Err(DetectorError::InvalidConfig { .. })
                ),
                "warp size {warp_size}"
            );
        }
    }

    #[test]
    fn timeline_has_one_trace_row_per_launch() {
        let mut det = FaceDetector::new(&edge_cascade(1), DetectorConfig::default());
        let r = det.detect(&frame_with_pattern()).unwrap();
        // 8 kernels per level.
        assert_eq!(r.timeline.events.len() % 8, 0);
        assert!(r.timeline.events.iter().any(|e| e.kernel_name == "cascade_eval"));
    }
}
