//! Per-frame orchestration of the CNN cascade — the `FramePipeline`
//! of the second backend.
//!
//! Structure mirrors `fd_detector::FramePipeline` deliberately: per
//! pyramid level one stream carries the level's eight launches (the
//! shared bilinear [`ScaleKernel`] followed by the seven CNN-chain
//! kernels of [`crate::kernels::level_chain`]), levels overlap under
//! [`fd_gpu::ExecMode::Concurrent`], batched submissions stack request
//! slots on `grid.z`, and a frame-persistent buffer pool keyed by the
//! pyramid plan makes steady-state frames allocation-free. A launch
//! failure cancels the frame's queued work so the device is clean for a
//! retry, and every kernel fully overwrites its outputs, so pooled
//! buffers never leak state between frames.

use fd_detector::kernels::ScaleKernel;
use fd_detector::DetectorError;
use fd_gpu::{ConstPtr, Gpu, LaunchError, StreamId, TexId, Texture2D, Timeline};
use fd_imgproc::{GrayImage, Pyramid};

use crate::kernels::{level_chain, window_grid, ChainKernel, LevelDeviceBufs, ModelTensors};
use crate::model::{CnnModel, CnnModelError, C1, C2, WINDOW};

/// Map a model-validation failure onto the detector error vocabulary
/// (static reasons, like every other `InvalidConfig`).
pub fn model_error_reason(e: &CnnModelError) -> &'static str {
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

/// Readback of one pyramid level: the final cascade depth and
/// accumulated fixed-point margin per window of the level's grid.
#[derive(Debug, Clone)]
pub struct CnnLevelOutput {
    pub level: usize,
    /// Scaled level dimensions.
    pub width: usize,
    pub height: usize,
    /// Window grid extent (stride-4 sliding windows).
    pub nx: usize,
    pub ny: usize,
    /// Multiply level coordinates by this to reach frame coordinates.
    pub scale: f64,
    /// Deepest cascade stage reached per window (3 = detection).
    pub depth: Vec<u32>,
    /// Accumulated integer stage margin per window.
    pub score: Vec<i32>,
}

pub(crate) fn alloc_level(mem: &mut fd_gpu::DeviceMemory, w: usize, h: usize) -> LevelDeviceBufs {
    let (p1w, p1h) = (w / 2, h / 2);
    let (p2w, p2h) = (p1w / 2, p1h / 2);
    let (nx, ny) = window_grid(w, h);
    LevelDeviceBufs {
        scaled: mem.alloc::<f32>(w * h),
        conv1: mem.alloc::<i32>(C1 * w * h),
        pooled1: mem.alloc::<i32>(C1 * p1w * p1h),
        conv2: mem.alloc::<i32>(C2 * p1w * p1h),
        pooled2: mem.alloc::<i32>(C2 * p2w * p2h),
        depth_a: mem.alloc::<u32>(nx * ny),
        score_a: mem.alloc::<i32>(nx * ny),
        depth_b: mem.alloc::<u32>(nx * ny),
        score_b: mem.alloc::<i32>(nx * ny),
        depth: mem.alloc::<u32>(nx * ny),
        score: mem.alloc::<i32>(nx * ny),
    }
}

fn free_level(mem: &mut fd_gpu::DeviceMemory, bufs: LevelDeviceBufs) {
    mem.free(bufs.scaled);
    mem.free(bufs.conv1);
    mem.free(bufs.pooled1);
    mem.free(bufs.conv2);
    mem.free(bufs.pooled2);
    mem.free(bufs.depth_a);
    mem.free(bufs.score_a);
    mem.free(bufs.depth_b);
    mem.free(bufs.score_b);
    mem.free(bufs.depth);
    mem.free(bufs.score);
}

/// Device bytes of one level's workspaces for a `w x h` level.
fn level_bytes(w: usize, h: usize) -> usize {
    let (p1, p2) = ((w / 2) * (h / 2), (w / 4) * (h / 4));
    let (nx, ny) = window_grid(w, h);
    4 * (w * h + C1 * w * h + C1 * p1 + C2 * p1 + C2 * p2 + 6 * nx * ny)
}

/// Frame-persistent buffer pool: per-level streams shared by every
/// request slot, and per-slot workspaces, valid for one frame geometry
/// (the `FramePool` shape of the Haar pipeline).
struct CnnPool {
    frame_dims: (usize, usize),
    plan: Vec<(usize, usize)>,
    streams: Vec<StreamId>,
    /// Slot `i`'s frame texture, the `i`-th bound: bound once, refilled
    /// in place by every batch.
    texs: Vec<TexId>,
    slots: Vec<Vec<LevelDeviceBufs>>,
    bytes: usize,
}

impl CnnPool {
    fn slot_bytes(plan: &[(usize, usize)]) -> usize {
        plan.iter().map(|&(w, h)| level_bytes(w, h)).sum()
    }
}

/// The CNN detection pipeline bound to one model.
pub struct CnnPipeline {
    /// The simulated device (public for profiler access).
    pub gpu: Gpu,
    tensors: ModelTensors,
    const_ptr: ConstPtr,
    scale_factor: f64,
    pool: Option<CnnPool>,
}

impl CnnPipeline {
    /// Validate the model, stage its tensors in constant memory and
    /// prepare the pipeline.
    pub fn try_new(
        mut gpu: Gpu,
        model: &CnnModel,
        scale_factor: f64,
    ) -> Result<Self, DetectorError> {
        if !(scale_factor.is_finite() && scale_factor > 1.0) {
            return Err(DetectorError::BadScaleFactor { scale_factor });
        }
        model
            .validate()
            .map_err(|e| DetectorError::InvalidConfig { reason: model_error_reason(&e) })?;
        gpu.const_clear();
        let const_ptr =
            gpu.try_const_upload(&model.encode()).map_err(|source| DetectorError::Memory {
                context: "staging the CNN model in constant memory",
                source,
            })?;
        Ok(Self {
            gpu,
            tensors: ModelTensors::from_model(model),
            const_ptr,
            scale_factor,
            pool: None,
        })
    }

    /// Pyramid scale factor.
    pub fn scale_factor(&self) -> f64 {
        self.scale_factor
    }

    /// Constant-memory bytes occupied by the staged model.
    pub fn const_bytes(&self) -> usize {
        self.const_ptr.len() * 4
    }

    /// Device bytes held by the frame-persistent buffer pool.
    pub fn pooled_bytes(&self) -> usize {
        self.pool.as_ref().map_or(0, |p| p.bytes)
    }

    /// Device bytes the buffer pool *would* hold for a `width x height`
    /// frame, computed without allocating — the admission-control
    /// projection.
    pub fn projected_pool_bytes(
        &self,
        width: usize,
        height: usize,
    ) -> Result<usize, DetectorError> {
        if width < WINDOW || height < WINDOW {
            return Err(DetectorError::FrameTooSmall { width, height, window: WINDOW });
        }
        let plan = Pyramid::plan(width, height, self.scale_factor, WINDOW);
        Ok(CnnPool::slot_bytes(&plan))
    }

    /// Free the frame-persistent buffer pool.
    pub fn release_pool(&mut self) {
        if let Some(pool) = self.pool.take() {
            self.gpu.clear_textures();
            for slot in pool.slots {
                for bufs in slot {
                    free_level(&mut self.gpu.mem, bufs);
                }
            }
        }
    }

    fn ensure_pool(&mut self, fw: usize, fh: usize, plan: &[(usize, usize)], batch: usize) {
        let reusable = self
            .pool
            .as_ref()
            .is_some_and(|p| p.frame_dims == (fw, fh) && p.plan == plan);
        if !reusable {
            self.release_pool();
            let gpu = &mut self.gpu;
            let streams = plan.iter().map(|_| gpu.create_stream()).collect();
            self.pool = Some(CnnPool {
                frame_dims: (fw, fh),
                plan: plan.to_vec(),
                streams,
                texs: Vec::new(),
                slots: Vec::new(),
                bytes: 0,
            });
        }
        let Some(pool) = self.pool.as_mut() else { return };
        while pool.slots.len() < batch {
            pool.slots
                .push(plan.iter().map(|&(w, h)| alloc_level(&mut self.gpu.mem, w, h)).collect());
            pool.bytes += CnnPool::slot_bytes(plan);
        }
    }

    /// The full pyramid plan for a `fw x fh` frame (largest level
    /// first) — identical to the Haar pipeline's plan for the same
    /// geometry, since both slide 24-px windows over the same pyramid.
    pub fn plan_for(&self, frame: &GrayImage) -> Result<Vec<(usize, usize)>, DetectorError> {
        let (fw, fh) = (frame.width(), frame.height());
        if fw < WINDOW || fh < WINDOW {
            return Err(DetectorError::FrameTooSmall { width: fw, height: fh, window: WINDOW });
        }
        Ok(Pyramid::plan(fw, fh, self.scale_factor, WINDOW))
    }

    /// Run the CNN cascade on a batch of same-geometry frames as one
    /// device submission (`plan` may be a prefix of [`Self::plan_for`]'s
    /// result). Per level, each of the eight kernels launches once for
    /// the whole batch. Returns one `Vec<CnnLevelOutput>` per frame plus
    /// the submission's timeline.
    pub fn run_batch_with_plan(
        &mut self,
        frames: &[&GrayImage],
        plan: &[(usize, usize)],
    ) -> Result<(Vec<Vec<CnnLevelOutput>>, Timeline), DetectorError> {
        let Some(first) = frames.first() else {
            return Err(DetectorError::InvalidConfig { reason: "empty frame batch" });
        };
        let (fw, fh) = (first.width(), first.height());
        if frames.iter().any(|f| (f.width(), f.height()) != (fw, fh)) {
            return Err(DetectorError::InvalidConfig {
                reason: "all frames of a batched submission must share one geometry",
            });
        }
        if plan.is_empty() {
            return Err(DetectorError::InvalidConfig { reason: "empty pyramid plan" });
        }
        self.ensure_pool(fw, fh, plan, frames.len());
        let Some(pool) = self.pool.as_mut() else {
            return Err(DetectorError::InvalidConfig { reason: "buffer pool missing" });
        };
        let gpu = &mut self.gpu;

        for (slot, frame) in frames.iter().enumerate() {
            let upload = match pool.texs.get(slot) {
                Some(&tex) => gpu.refill_texture(tex, frame.as_slice()),
                None => Texture2D::try_from_data(fw, fh, frame.as_slice().to_vec())
                    .map(|tex| pool.texs.push(gpu.bind_texture(tex))),
            };
            upload.map_err(|source| DetectorError::Memory {
                context: "binding the frame texture",
                source,
            })?;
        }
        let texs = &pool.texs[..frames.len()];

        let fail = |gpu: &mut Gpu, kernel, level, source: LaunchError| {
            gpu.cancel_pending();
            Err(DetectorError::Launch { kernel, level: Some(level), frame: None, source })
        };
        let slots = &pool.slots[..frames.len()];
        for (level, (&(w, h), &stream)) in plan.iter().zip(&pool.streams).enumerate() {
            let scales: Vec<_> = texs
                .iter()
                .zip(slots)
                .map(|(&tex, slot)| ScaleKernel {
                    src: tex,
                    src_w: fw,
                    src_h: fh,
                    dst: slot[level].scaled,
                    dst_w: w,
                    dst_h: h,
                })
                .collect();
            let sc_cfg = scales[0].config();
            if let Err(e) = gpu.launch_batched(scales, sc_cfg, stream) {
                return fail(gpu, "scale_bilinear", level, e);
            }

            // The seven chain kernels, each batched across request slots.
            let mut per_slot: Vec<std::vec::IntoIter<ChainKernel>> = slots
                .iter()
                .map(|slot| {
                    level_chain(&self.tensors, &slot[level], w, h, self.const_ptr).into_iter()
                })
                .collect();
            loop {
                let stage: Vec<ChainKernel> =
                    per_slot.iter_mut().filter_map(|it| it.next()).collect();
                if stage.is_empty() {
                    break;
                }
                let cfg = stage[0].config();
                let name = stage[0].kernel_name();
                if let Err(e) = gpu.launch_batched(stage, cfg, stream) {
                    return fail(gpu, name, level, e);
                }
            }
        }

        let timeline = gpu.synchronize();

        let mut batch_outputs = Vec::with_capacity(frames.len());
        for slot in slots {
            let mut outputs = Vec::with_capacity(plan.len());
            for (level, &(w, h)) in plan.iter().enumerate() {
                let (nx, ny) = window_grid(w, h);
                outputs.push(CnnLevelOutput {
                    level,
                    width: w,
                    height: h,
                    nx,
                    ny,
                    scale: self.scale_factor.powi(level as i32),
                    // Window-grid maps (a few hundred entries): taken as
                    // views like the Haar readback, kept as copies.
                    depth: gpu.mem.download_view(slot[level].depth).to_vec(),
                    score: gpu.mem.download_view(slot[level].score).to_vec(),
                });
            }
            batch_outputs.push(outputs);
        }
        Ok((batch_outputs, timeline))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_gpu::{DeviceSpec, ExecMode};
    use fd_imgproc::resize::resize_bilinear;

    fn test_frame() -> GrayImage {
        GrayImage::from_fn(96, 72, |x, y| {
            ((x as u32 * 37 + y as u32 * 101).wrapping_mul(2654435761) >> 24) as f32
        })
    }

    fn pipeline() -> CnnPipeline {
        let gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        CnnPipeline::try_new(gpu, &CnnModel::seeded(7), 1.25).unwrap()
    }

    #[test]
    fn levels_match_the_host_reference() {
        let mut p = pipeline();
        let frame = test_frame();
        let plan = p.plan_for(&frame).unwrap();
        let (outputs, timeline) = p.run_batch_with_plan(&[&frame], &plan).unwrap();
        assert!(timeline.span_us() > 0.0);
        let model = CnnModel::seeded(7);
        for out in &outputs[0] {
            let scaled = if out.level == 0 {
                frame.clone()
            } else {
                resize_bilinear(&frame, out.width, out.height)
            };
            let host = model.eval_level_host(scaled.as_slice(), out.width, out.height);
            assert_eq!(out.depth, host.depth, "level {}", out.level);
            assert_eq!(out.score, host.score, "level {}", out.level);
        }
    }

    #[test]
    fn serial_and_concurrent_agree_functionally() {
        let frame = test_frame();
        let run = |mode| {
            let gpu = Gpu::new(DeviceSpec::gtx470(), mode);
            let mut p = CnnPipeline::try_new(gpu, &CnnModel::seeded(3), 1.25).unwrap();
            let plan = p.plan_for(&frame).unwrap();
            p.run_batch_with_plan(&[&frame], &plan).unwrap()
        };
        let (a, ta) = run(ExecMode::Serial);
        let (b, tb) = run(ExecMode::Concurrent);
        for (x, y) in a[0].iter().zip(&b[0]) {
            assert_eq!(x.depth, y.depth);
            assert_eq!(x.score, y.score);
        }
        assert!(tb.span_us() <= ta.span_us() * 1.001);
    }

    #[test]
    fn memory_is_pooled_and_steady_state_allocation_free() {
        let mut p = pipeline();
        let frame = test_frame();
        let plan = p.plan_for(&frame).unwrap();
        assert_eq!(p.pooled_bytes(), 0);
        let _ = p.run_batch_with_plan(&[&frame], &plan).unwrap();
        let live = p.gpu.mem.live_bytes();
        let allocs = p.gpu.mem.alloc_count();
        assert_eq!(p.pooled_bytes(), live, "pool owns all live memory");
        for _ in 0..3 {
            let _ = p.run_batch_with_plan(&[&frame], &plan).unwrap();
        }
        assert_eq!(p.gpu.mem.alloc_count(), allocs, "steady-state frames are allocation-free");
        let (before, _) = p.run_batch_with_plan(&[&frame], &plan).unwrap();
        p.release_pool();
        assert_eq!(p.gpu.mem.live_bytes(), 0);
        // Releasing unbinds the frame textures; the next batch binds anew.
        let (after, _) = p.run_batch_with_plan(&[&frame], &plan).unwrap();
        for (a, b) in before[0].iter().zip(&after[0]) {
            assert_eq!((&a.depth, &a.score), (&b.depth, &b.score));
        }
    }

    #[test]
    fn projection_matches_actual_pool_bytes() {
        let mut p = pipeline();
        let frame = test_frame();
        let projected = p.projected_pool_bytes(96, 72).unwrap();
        let plan = p.plan_for(&frame).unwrap();
        let _ = p.run_batch_with_plan(&[&frame], &plan).unwrap();
        assert_eq!(projected, p.pooled_bytes());
    }

    #[test]
    fn batch_matches_single_frame_runs() {
        let frames: Vec<GrayImage> = (0..3)
            .map(|k| {
                GrayImage::from_fn(64, 48, |x, y| {
                    ((x as u32 * 37 + y as u32 * 101 + k * 7919)
                        .wrapping_mul(2654435761)
                        >> 24) as f32
                })
            })
            .collect();
        let mut p = pipeline();
        let plan = p.plan_for(&frames[0]).unwrap();
        let singles: Vec<_> = frames
            .iter()
            .map(|f| p.run_batch_with_plan(&[f], &plan).unwrap().0.remove(0))
            .collect();
        let refs: Vec<&GrayImage> = frames.iter().collect();
        let (batch, _) = p.run_batch_with_plan(&refs, &plan).unwrap();
        for (single, batched) in singles.iter().zip(&batch) {
            for (a, b) in single.iter().zip(batched) {
                assert_eq!(a.depth, b.depth);
                assert_eq!(a.score, b.score);
            }
        }
    }

    #[test]
    fn rejects_invalid_models_and_geometry() {
        let gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Serial);
        let mut bad = CnnModel::seeded(0);
        bad.conv1[0] += 1;
        assert!(matches!(
            CnnPipeline::try_new(gpu, &bad, 1.25),
            Err(DetectorError::InvalidConfig { .. })
        ));
        let gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Serial);
        assert!(matches!(
            CnnPipeline::try_new(gpu, &CnnModel::seeded(0), 1.0),
            Err(DetectorError::BadScaleFactor { .. })
        ));
        let p = pipeline();
        assert!(matches!(
            p.projected_pool_bytes(16, 16),
            Err(DetectorError::FrameTooSmall { .. })
        ));
    }
}
