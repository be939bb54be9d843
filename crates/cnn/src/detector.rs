//! The CNN cascade's stage list — the second engine behind
//! [`fd_detector::Detector`].
//!
//! Per pyramid level, the shared bilinear [`ScaleKernel`] followed by the
//! seven CNN-chain kernels of [`level_chain`], each batched across
//! request slots; a readback views each level's window-grid depth and
//! score maps. Everything else — the [`DetectorConfig`] vocabulary, the
//! [`FrameResult`] shape, pooling, batching, grouping and replicas — is
//! `fd_detector`'s [`PyramidDetector`].
//!
//! [`ScaleKernel`]: fd_detector::kernels::ScaleKernel
//! [`DetectorConfig`]: fd_detector::DetectorConfig
//! [`FrameResult`]: fd_detector::FrameResult

use fd_detector::detector::RejectionHistogram;
use fd_detector::group::Detection;
use fd_detector::{
    stage_constants, Backend, DetectorError, LevelGeom, LevelLaunch, PyramidDetector, StageList,
};
use fd_gpu::{ConstPtr, DeviceMemory, Gpu, LaunchError, Readback, WorkspaceFill};
use fd_imgproc::Rect;

use crate::kernels::{level_chain, window_grid, ChainKernel, LevelDeviceBufs, ModelTensors};
use crate::model::{CnnModel, CnnModelError, C1, C2, SCORE_SCALE, STAGES, WINDOW, WINDOW_STRIDE};

/// GPU CNN-cascade detector bound to a model and configuration.
pub type CnnDetector = PyramidDetector<CnnStages>;

/// The CNN cascade as a [`StageList`].
pub struct CnnStages {
    /// The validated model (replicas are built from it).
    model: CnnModel,
    tensors: ModelTensors,
    const_ptr: ConstPtr,
}

/// One level's window-grid maps, borrowed from device memory.
pub struct CnnView<'a> {
    at: LevelGeom,
    /// Window grid width (stride-4 sliding windows).
    nx: usize,
    /// Deepest cascade stage reached per window ([`STAGES`] = detection).
    depth: Readback<'a, u32>,
    /// Accumulated integer stage margin per window.
    score: Readback<'a, i32>,
}

/// Map a model-validation failure onto the detector error vocabulary
/// (static reasons, like every other `InvalidConfig`).
fn model_error_reason(e: &CnnModelError) -> &'static str {
    match e {
        CnnModelError::BadWindow { .. } => "the CNN kernels are specialized for 24-px windows",
        CnnModelError::TensorLen { .. } => "a CNN model tensor has the wrong shape",
        CnnModelError::WeightOutOfRange { .. } => {
            "a CNN model weight is outside its fixed-point range"
        }
        CnnModelError::Conv1NotZeroSum { .. } => "a luma-facing conv filter is not DC-free",
        CnnModelError::BadStageGate => "the stage-1 gate weights are not a valid energy gate",
        CnnModelError::UniformResponsePasses { .. } => {
            "a stage template would pass spatially uniform responses"
        }
        CnnModelError::AllZeroStage { .. } => "a stage template is identically zero",
    }
}

impl StageList for CnnStages {
    const BACKEND: Backend = Backend::Cnn;
    type Model = CnnModel;
    type LevelBufs = LevelDeviceBufs;
    type View<'a> = CnnView<'a>;

    /// Validates the model before any device state exists (corrupt or
    /// hand-edited weights surface as a typed [`DetectorError`], never as
    /// a device panic) and stages its tensors.
    fn stage(gpu: &mut Gpu, model: &CnnModel) -> Result<Self, DetectorError> {
        model
            .validate()
            .map_err(|e| DetectorError::InvalidConfig { reason: model_error_reason(&e) })?;
        let const_ptr =
            stage_constants(gpu, &model.encode(), "staging the CNN model in constant memory")?;
        Ok(Self { model: model.clone(), tensors: ModelTensors::from_model(model), const_ptr })
    }

    fn model(&self) -> &CnnModel {
        &self.model
    }

    fn window(&self) -> usize {
        WINDOW
    }

    /// Eleven values in seven slots. A conv or pool output takes the
    /// slot of the previous one of its kind, dead by then (`conv2` a
    /// prefix of `conv1`'s, `pooled2` of `pooled1`'s), and stage 3 writes
    /// the final grids over stage 1's, which stage 2 has consumed. Every
    /// chain kernel writes every element it covers. `scaled`, the chain's
    /// input, keeps a slot of its own, so it survives whatever is written
    /// to the other buffers before the chain runs.
    fn level_bufs(src: &mut WorkspaceFill<'_>, w: usize, h: usize) -> LevelDeviceBufs {
        let (p1w, p1h) = (w / 2, h / 2);
        let (p2w, p2h) = (p1w / 2, p1h / 2);
        let (nx, ny) = window_grid(w, h);
        let (conv, pooled) = (src.buf(C1 * w * h), src.buf(C1 * p1w * p1h));
        let (depth, score) = (src.buf(nx * ny), src.buf(nx * ny));
        LevelDeviceBufs {
            scaled: src.buf(w * h),
            conv1: conv,
            pooled1: pooled,
            conv2: conv.prefix(C2 * p1w * p1h),
            pooled2: pooled.prefix(C2 * p2w * p2h),
            depth_a: depth,
            score_a: score,
            depth_b: src.buf(nx * ny),
            score_b: src.buf(nx * ny),
            depth,
            score,
        }
    }

    fn launch_level(
        &mut self,
        gpu: &mut Gpu,
        lv: &LevelLaunch<'_, LevelDeviceBufs>,
    ) -> Result<(), (&'static str, LaunchError)> {
        let scales = lv.scale_kernels(|b| b.scaled);
        let cfg = scales[0].config();
        gpu.launch_batched(scales, cfg, lv.stream).map_err(|e| ("scale_bilinear", e))?;

        // The seven chain kernels, each batched across request slots.
        let mut per_slot: Vec<std::vec::IntoIter<ChainKernel>> = lv
            .bufs()
            .map(|b| level_chain(&self.tensors, b, lv.w, lv.h, self.const_ptr).into_iter())
            .collect();
        loop {
            let stage: Vec<ChainKernel> = per_slot.iter_mut().filter_map(|it| it.next()).collect();
            if stage.is_empty() {
                return Ok(());
            }
            let cfg = stage[0].config();
            let name = stage[0].kernel_name();
            gpu.launch_batched(stage, cfg, lv.stream).map_err(|e| (name, e))?;
        }
    }

    /// Depth, then score.
    fn view<'a>(
        &self,
        mem: &'a DeviceMemory,
        at: LevelGeom,
        bufs: &LevelDeviceBufs,
    ) -> CnnView<'a> {
        CnnView {
            at,
            nx: window_grid(at.width, at.height).0,
            depth: mem.download_view(bufs.depth),
            score: mem.download_view(bufs.score),
        }
    }

    /// Windows that reached the final stage, at window-grid granularity.
    fn extract_raw(&self, views: &[CnnView<'_>]) -> Vec<Detection> {
        let mut raw = Vec::new();
        for out in views {
            let scale = out.at.scale;
            let size = (WINDOW as f64 * scale).round() as u32;
            for (i, _) in out.depth.iter().enumerate().filter(|&(_, &d)| d == STAGES) {
                let (gx, gy) = (i % out.nx, i / out.nx);
                raw.push(Detection {
                    rect: Rect::new(
                        ((gx * WINDOW_STRIDE) as f64 * scale).round() as i32,
                        ((gy * WINDOW_STRIDE) as f64 * scale).round() as i32,
                        size,
                        size,
                    ),
                    score: out.score[i] as f32 / SCORE_SCALE,
                    scale: out.at.level,
                });
            }
        }
        raw
    }

    /// `counts[level]` has [`STAGES`]` + 1` bins, bin `d` counting windows
    /// whose cascade ended at depth `d`.
    fn histogram(&self, views: &[CnnView<'_>]) -> RejectionHistogram {
        let n_stages = STAGES as usize;
        let mut counts = Vec::with_capacity(views.len());
        let mut windows = Vec::with_capacity(views.len());
        for out in views {
            let mut hist = vec![0u64; n_stages + 1];
            for &d in out.depth.iter() {
                hist[(d as usize).min(n_stages)] += 1;
            }
            counts.push(hist);
            windows.push(out.depth.len() as u64);
        }
        RejectionHistogram { counts, windows_per_level: windows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_detector::{Detector, DetectorConfig, Pipeline};
    use fd_gpu::probe::timeline_bits;
    use fd_gpu::{DeviceSpec, ExecMode};
    use fd_imgproc::resize::resize_bilinear;
    use fd_imgproc::synth::{render_background, BackgroundKind, FaceParams};
    use fd_imgproc::GrayImage;
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
    fn levels_match_the_host_reference() {
        let frame = GrayImage::from_fn(96, 72, |x, y| {
            ((x as u32 * 37 + y as u32 * 101).wrapping_mul(2654435761) >> 24) as f32
        });
        let model = CnnModel::seeded(7);
        let gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let mut p = Pipeline::<CnnStages>::try_new(gpu, &model, 1.25).unwrap();
        let plan = p.plan_for(&frame).unwrap();
        assert!(p.submit_batch_with_plan(&[&frame], &plan).unwrap().span_us() > 0.0);
        for out in p.readback(0) {
            let (w, h) = (out.at.width, out.at.height);
            let scaled =
                if out.at.level == 0 { frame.clone() } else { resize_bilinear(&frame, w, h) };
            let host = model.eval_level_host(scaled.as_slice(), w, h);
            assert_eq!(*out.depth, host.depth, "level {}", out.at.level);
            assert_eq!(*out.score, host.score, "level {}", out.at.level);
        }
    }

    /// A detector built with the `ExecMode::Serial` adapter runs a CNN frame
    /// as one built on the profiler-serialized device does (fd-detector's
    /// `exec_mode_switch_changes_timing_not_results` checks a Haar frame
    /// and the switch).
    #[test]
    fn serial_mode_is_the_profiler_serialized_device() {
        let built = |config: DetectorConfig| {
            let mut det = CnnDetector::try_new(&CnnModel::seeded(0), config).unwrap();
            let r = det.detect(&face_frame()).unwrap();
            assert!(!r.raw.is_empty(), "the frame must fire windows");
            (timeline_bits(&r.timeline), format!("{:?}", det.profiler()))
        };
        let device = DeviceSpec::gtx470().profiler_serialized();
        assert_eq!(
            built(DetectorConfig { exec_mode: ExecMode::Serial, ..DetectorConfig::default() }),
            built(DetectorConfig { device, ..DetectorConfig::default() })
        );
    }

    #[test]
    fn rejects_invalid_models() {
        let mut bad = CnnModel::seeded(0);
        bad.conv1[0] += 1;
        assert!(matches!(
            CnnDetector::try_new(&bad, DetectorConfig::default()),
            Err(DetectorError::InvalidConfig { .. })
        ));
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
        let cfg = DetectorConfig { collect_rejection_stats: true, ..DetectorConfig::default() };
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
