//! The public CNN detector API — the second engine behind
//! [`fd_detector::Detector`].
//!
//! Shares everything user-visible with [`fd_detector::FaceDetector`]:
//! the [`DetectorConfig`] vocabulary (device, exec mode, pyramid ratio,
//! grouping, determinism and fault-injection knobs), the [`FrameResult`]
//! shape, per-stage rejection histograms, batched submissions and
//! replica construction. The `fusion` knob is accepted but inert — the
//! CNN chain launches unfused (its kernels declare fusion traits, but
//! the pipeline does not yet build chains).

use fd_detector::detector::{DetectorConfig, FrameResult, RejectionHistogram};
use fd_detector::group::{group_detections, Detection};
use fd_detector::{Backend, Detector, DetectorError};
use fd_gpu::Gpu;
use fd_imgproc::{GrayImage, Rect};

use crate::model::{CnnModel, SCORE_SCALE, STAGES, WINDOW, WINDOW_STRIDE};
use crate::pipeline::{CnnLevelOutput, CnnPipeline};

/// GPU CNN-cascade detector bound to a model and configuration.
pub struct CnnDetector {
    pipeline: CnnPipeline,
    /// Kept for replica construction.
    model: CnnModel,
    config: DetectorConfig,
}

impl CnnDetector {
    /// Build a detector, validating the model before any device state
    /// exists (the hardened asset path: corrupt weights surface as a
    /// typed [`DetectorError`], never as a device panic).
    pub fn try_new(model: &CnnModel, config: DetectorConfig) -> Result<Self, DetectorError> {
        let mut gpu = Gpu::new(config.device.clone(), config.exec_mode);
        gpu.set_host_threads(config.host_threads);
        gpu.set_fault_plan(config.fault_plan.clone());
        let pipeline = CnnPipeline::try_new(gpu, model, config.scale_factor)?;
        Ok(Self { pipeline, model: model.clone(), config })
    }

    /// Build `n` detectors over `n` independent simulated devices,
    /// forking any fault plan per replica (replica 0 verbatim, matching
    /// `FaceDetector::try_new_replicas`).
    pub fn try_new_replicas(
        model: &CnnModel,
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

    /// The validated model in use.
    pub fn model(&self) -> &CnnModel {
        &self.model
    }

    /// Accumulated profiler (all frames so far).
    pub fn profiler(&self) -> &fd_gpu::Profiler {
        self.pipeline.gpu.profiler()
    }

    /// Reset profiler statistics.
    pub fn reset_profiler(&mut self) {
        self.pipeline.gpu.reset_profiler();
    }

    /// Device bytes this detector currently holds.
    pub fn device_bytes(&self) -> usize {
        self.pipeline.gpu.device_bytes_in_use()
    }

    /// Geometry-independent constant-memory footprint (the staged model
    /// tensors).
    pub fn const_bytes(&self) -> usize {
        self.pipeline.const_bytes()
    }

    /// Device bytes a `width x height` stream will hold at steady
    /// state, without allocating.
    pub fn projected_device_bytes(
        &self,
        width: usize,
        height: usize,
    ) -> Result<usize, DetectorError> {
        Ok(self.pipeline.projected_pool_bytes(width, height)? + self.pipeline.const_bytes())
    }

    /// The full pyramid plan for a frame (largest level first) — shared
    /// with the Haar backend, both slide 24-px windows.
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
        results.pop().ok_or(DetectorError::InvalidConfig {
            reason: "batch execution returned no result for its single frame",
        })
    }

    /// Detect over a batch of same-geometry frames as one device
    /// submission (the serving layer's entry point); a batch of one is
    /// bit-identical to [`Self::detect`].
    pub fn detect_batch_with_plan(
        &mut self,
        frames: &[&GrayImage],
        plan: &[(usize, usize)],
    ) -> Result<Vec<FrameResult>, DetectorError> {
        let (batch_outputs, timeline) = self.pipeline.run_batch_with_plan(frames, plan)?;
        Ok(batch_outputs
            .iter()
            .map(|outputs| {
                let raw = extract_raw(outputs);
                let detections = group_detections(
                    &raw,
                    self.config.overlap_threshold,
                    self.config.min_neighbors,
                );
                let rejection =
                    self.config.collect_rejection_stats.then(|| histogram(outputs));
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

/// Windows that reached the final stage become raw detections in frame
/// coordinates (the Haar pipeline's extraction, at window-grid
/// granularity).
fn extract_raw(outputs: &[CnnLevelOutput]) -> Vec<Detection> {
    let mut raw = Vec::new();
    for out in outputs {
        for gy in 0..out.ny {
            for gx in 0..out.nx {
                let i = gy * out.nx + gx;
                if out.depth[i] == STAGES {
                    let size = (WINDOW as f64 * out.scale).round() as u32;
                    raw.push(Detection {
                        rect: Rect::new(
                            ((gx * WINDOW_STRIDE) as f64 * out.scale).round() as i32,
                            ((gy * WINDOW_STRIDE) as f64 * out.scale).round() as i32,
                            size,
                            size,
                        ),
                        score: out.score[i] as f32 / SCORE_SCALE,
                        scale: out.level,
                    });
                }
            }
        }
    }
    raw
}

/// Per-stage rejection histogram at window granularity: `counts[level]`
/// has [`STAGES`]` + 1` bins, bin `d` counting windows whose cascade
/// ended at depth `d`.
fn histogram(outputs: &[CnnLevelOutput]) -> RejectionHistogram {
    let n_stages = STAGES as usize;
    let mut counts = Vec::with_capacity(outputs.len());
    let mut windows = Vec::with_capacity(outputs.len());
    for out in outputs {
        let mut hist = vec![0u64; n_stages + 1];
        for &d in &out.depth {
            hist[(d as usize).min(n_stages)] += 1;
        }
        counts.push(hist);
        windows.push(out.depth.len() as u64);
    }
    RejectionHistogram { counts, windows_per_level: windows }
}

impl Detector for CnnDetector {
    fn backend(&self) -> Backend {
        Backend::Cnn
    }

    fn pyramid_plan(&self, frame: &GrayImage) -> Result<Vec<(usize, usize)>, DetectorError> {
        CnnDetector::pyramid_plan(self, frame)
    }

    fn detect_batch_with_plan(
        &mut self,
        frames: &[&GrayImage],
        plan: &[(usize, usize)],
    ) -> Result<Vec<FrameResult>, DetectorError> {
        CnnDetector::detect_batch_with_plan(self, frames, plan)
    }

    fn projected_device_bytes(
        &self,
        width: usize,
        height: usize,
    ) -> Result<usize, DetectorError> {
        CnnDetector::projected_device_bytes(self, width, height)
    }

    fn const_bytes(&self) -> usize {
        CnnDetector::const_bytes(self)
    }

    fn device_bytes(&self) -> usize {
        CnnDetector::device_bytes(self)
    }

    fn try_replicas(&self, n: usize) -> Result<Vec<Box<dyn Detector>>, DetectorError> {
        Ok(CnnDetector::try_new_replicas(&self.model, self.config.clone(), n)?
            .into_iter()
            .map(|d| Box::new(d) as Box<dyn Detector>)
            .collect())
    }

    fn profiler(&self) -> &fd_gpu::Profiler {
        CnnDetector::profiler(self)
    }

    fn reset_profiler(&mut self) {
        CnnDetector::reset_profiler(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_imgproc::synth::{render_background, BackgroundKind, FaceParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn face_frame() -> GrayImage {
        // One synthetic mugshot-style frame: a nominal frontal face over
        // smooth background texture, deterministic.
        let mut rng = StdRng::seed_from_u64(42);
        let mut img = render_background(&mut rng, 64, 64, BackgroundKind::ValueNoise);
        let patch = FaceParams::nominal().render(40);
        img.blit(&patch, 12, 10);
        img
    }

    #[test]
    fn detects_synthetic_faces_and_rejects_flat_frames() {
        let cfg = DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() };
        let mut det = CnnDetector::try_new(&CnnModel::seeded(0), cfg).unwrap();
        let r = det.detect(&face_frame()).unwrap();
        assert!(!r.raw.is_empty(), "a centered synthetic face must fire windows");
        assert!(!r.detections.is_empty());
        assert!(r.detect_ms > 0.0);

        let flat = GrayImage::from_fn(64, 64, |_, _| 128.0);
        let r = det.detect(&flat).unwrap();
        assert!(r.raw.is_empty(), "flat frames die at the stage-1 gate");
    }

    #[test]
    fn rejection_histogram_accounts_every_window() {
        let cfg =
            DetectorConfig { collect_rejection_stats: true, ..DetectorConfig::default() };
        let mut det = CnnDetector::try_new(&CnnModel::seeded(0), cfg).unwrap();
        let r = det.detect(&face_frame()).unwrap();
        let hist = r.rejection.expect("enabled");
        for (level, counts) in hist.counts.iter().enumerate() {
            let sum: u64 = counts.iter().sum();
            assert_eq!(sum, hist.windows_per_level[level], "level {level}");
        }
    }

    #[test]
    fn batch_of_one_matches_detect_bitwise() {
        let frame = face_frame();
        let cfg = DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() };
        let mut det = CnnDetector::try_new(&CnnModel::seeded(5), cfg.clone()).unwrap();
        let single = det.detect(&frame).unwrap();
        let mut det = CnnDetector::try_new(&CnnModel::seeded(5), cfg).unwrap();
        let plan = det.pyramid_plan(&frame).unwrap();
        let batch = det.detect_batch_with_plan(&[&frame], &plan).unwrap();
        assert_eq!(single.raw, batch[0].raw);
        assert_eq!(single.detect_ms.to_bits(), batch[0].detect_ms.to_bits());
    }

    #[test]
    fn trait_object_serves_the_cnn_backend() {
        let cfg = DetectorConfig { min_neighbors: 1, ..DetectorConfig::default() };
        let mut det: Box<dyn Detector> =
            Box::new(CnnDetector::try_new(&CnnModel::seeded(0), cfg).unwrap());
        assert_eq!(det.backend(), Backend::Cnn);
        let frame = face_frame();
        let r = det.detect(&frame).unwrap();
        assert!(!r.raw.is_empty());
        // The boxed lane's host spans, and a reset that clears them.
        assert!(det.profiler().host_spans().iter().any(|s| s.kernel_name == "cnn_conv1"));
        det.reset_profiler();
        assert!(det.profiler().host_spans().is_empty() && det.profiler().traces().is_empty());
        let replicas = det.try_replicas(2).unwrap();
        assert_eq!(replicas.len(), 2);
        assert!(replicas.iter().all(|r| r.backend() == Backend::Cnn));
        assert!(det.try_replicas(0).is_err());
    }

    #[test]
    fn stripes_background_dies_before_the_final_stage() {
        // The classic cascade false-positive source: high edge energy,
        // spatially uniform. The sum-rule templates must kill it.
        let cfg = DetectorConfig {
            collect_rejection_stats: true,
            min_neighbors: 1,
            ..DetectorConfig::default()
        };
        let mut det = CnnDetector::try_new(&CnnModel::seeded(0), cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut total = 0u64;
        let mut reached_final = 0u64;
        for _ in 0..8 {
            let img = render_background(&mut rng, 64, 64, BackgroundKind::Stripes);
            let r = det.detect(&img).unwrap();
            let hist = r.rejection.unwrap();
            total += hist.windows_per_level.iter().sum::<u64>();
            reached_final += hist.counts.iter().map(|c| c[2] + c[3]).sum::<u64>();
        }
        assert!(total > 0);
        assert!(
            (reached_final as f64) < 0.1 * total as f64,
            "stripes must mostly die in stages 1-2: {reached_final}/{total}"
        );
    }
}
