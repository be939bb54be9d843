//! Per-frame pipeline orchestration (paper Fig. 1).
//!
//! For every pyramid level the pipeline launches the level's seven
//! kernels — scale, filter, scan, transpose, scan, transpose, cascade,
//! display — into a *per-level stream*. In
//! [`fd_gpu::ExecMode::Concurrent`] mode the device scheduler backfills
//! idle SMs with blocks from other levels' streams (most effective for the
//! small levels, whose grids cannot occupy the device on their own); in
//! [`fd_gpu::ExecMode::Serial`] mode every kernel drains before the next
//! starts, reproducing the paper's baseline.
//!
//! # Frame-persistent buffer pool
//!
//! Device buffers and streams are pooled across frames, keyed by the
//! pyramid plan: the first frame of a given geometry allocates one set of
//! per-level buffers, and every following frame of the same geometry
//! reuses them without touching the allocator (every kernel in the chain
//! fully overwrites its outputs, so no clearing is needed either). This
//! mirrors how a production video detector holds its workspaces for the
//! stream's lifetime — `cudaMalloc`/`cudaFree` per frame would serialize
//! against the device. A frame-size change frees the old pool and builds
//! a new one; [`FramePipeline::release_pool`] returns the memory
//! explicitly. Steady-state frames perform **zero** device allocations
//! (asserted via [`fd_gpu::DeviceMemory::alloc_count`] in tests).

use std::sync::Arc;

use fd_gpu::{
    BatchedKernel, ConstPtr, DevBuf, FusedChain, GeomClass, Gpu, Kernel, LaunchConfig,
    LaunchError, Readback, ShapeCache, StreamId, TexId, Texture2D, Timeline,
};
use fd_haar::encode::{encode_cascade, quantize_cascade};
use fd_haar::Cascade;
use fd_imgproc::{GrayImage, Pyramid};

use crate::error::DetectorError;
use crate::kernels::cascade::{image_offsets, precompile, PreStage, StageOffsets};
use crate::kernels::scan::ScanInput;
use crate::kernels::{
    CascadeKernel, DisplayKernel, FilterKernel, ScaleKernel, ScanRowsKernel, TransposeKernel,
};

/// Readback of one pyramid level after a frame.
#[derive(Debug, Clone)]
pub struct ScaleOutput {
    pub level: usize,
    pub width: usize,
    pub height: usize,
    /// Multiply level coordinates by this to reach frame coordinates.
    pub scale: f64,
    /// Deepest stage reached per pixel.
    pub depth: Vec<u32>,
    /// Accumulated stage margin per pixel.
    pub score: Vec<f32>,
    /// Display-kernel hit mask.
    pub hits: Vec<u32>,
}

/// [`ScaleOutput`] borrowed from device memory: what
/// [`FramePipeline::readback`] yields. The maps are
/// [`DeviceMemory::download_view`](fd_gpu::DeviceMemory::download_view)s,
/// so a caller that reads the hit mask and a few scores copies nothing;
/// while a view lives the pipeline cannot submit (`&self` borrow).
pub struct ScaleView<'a> {
    pub level: usize,
    pub width: usize,
    pub height: usize,
    /// Multiply level coordinates by this to reach frame coordinates.
    pub scale: f64,
    /// Deepest stage reached per pixel.
    pub depth: Readback<'a, u32>,
    /// Accumulated stage margin per pixel.
    pub score: Readback<'a, f32>,
    /// Display-kernel hit mask.
    pub hits: Readback<'a, u32>,
}

impl ScaleView<'_> {
    /// Copy the level out of device memory.
    pub fn to_owned(&self) -> ScaleOutput {
        ScaleOutput {
            level: self.level,
            width: self.width,
            height: self.height,
            scale: self.scale,
            depth: self.depth.to_vec(),
            score: self.score.to_vec(),
            hits: self.hits.to_vec(),
        }
    }
}

/// Device workspaces for one pyramid level (each `w * h` elements).
struct LevelBufs {
    scaled: DevBuf<f32>,
    filtered: DevBuf<f32>,
    buf_a: DevBuf<u32>,
    buf_b: DevBuf<u32>,
    integral: DevBuf<u32>,
    depth: DevBuf<u32>,
    score: DevBuf<f32>,
    hits: DevBuf<u32>,
}

impl LevelBufs {
    fn alloc(mem: &mut fd_gpu::DeviceMemory, n: usize) -> Self {
        Self {
            scaled: mem.alloc::<f32>(n),
            filtered: mem.alloc::<f32>(n),
            buf_a: mem.alloc::<u32>(n),
            buf_b: mem.alloc::<u32>(n),
            integral: mem.alloc::<u32>(n),
            depth: mem.alloc::<u32>(n),
            score: mem.alloc::<f32>(n),
            hits: mem.alloc::<u32>(n),
        }
    }

    fn free(self, mem: &mut fd_gpu::DeviceMemory) {
        mem.free(self.scaled);
        mem.free(self.filtered);
        mem.free(self.buf_a);
        mem.free(self.buf_b);
        mem.free(self.integral);
        mem.free(self.depth);
        mem.free(self.score);
        mem.free(self.hits);
    }

    /// Device bytes held: eight `w * h` buffers of 4-byte elements.
    fn bytes(n: usize) -> usize {
        8 * 4 * n
    }
}

/// The frame-persistent buffer pool (module docs): per-level streams and
/// per-request-slot workspaces, valid for one frame geometry.
///
/// `slots[s][level]` holds the workspaces request-slot `s` uses at
/// pyramid level `level`. Single-frame detection only ever touches slot
/// 0; a batched submission of B frames occupies slots `0..B`, and the
/// pool grows (and then keeps) as many slots as the largest batch seen,
/// so steady-state serving is allocation-free just like steady-state
/// video decoding.
struct FramePool {
    frame_dims: (usize, usize),
    plan: Vec<(usize, usize)>,
    /// One stream per pyramid level, shared by every request slot (the
    /// batched launch path fuses the slots of one level into one grid).
    streams: Vec<StreamId>,
    /// Per level, the cascade's corner offsets at the level's width.
    image_offs: Vec<Arc<StageOffsets>>,
    /// The frame texture of each request slot that has had one: bound
    /// once, refilled in place by every later submission.
    texs: Vec<TexId>,
    slots: Vec<Vec<LevelBufs>>,
    bytes: usize,
}

impl FramePool {
    /// Device bytes of one request slot under `plan`.
    fn slot_bytes(plan: &[(usize, usize)]) -> usize {
        plan.iter().map(|&(w, h)| LevelBufs::bytes(w * h)).sum()
    }
}

/// The GPU face-detection pipeline bound to one cascade.
pub struct FramePipeline {
    /// The simulated device (public for profiler access).
    pub gpu: Gpu,
    cascade: Cascade,
    /// `cascade` precompiled for the cascade kernel, shared by every
    /// level's and slot's launch.
    stages: Arc<Vec<PreStage>>,
    const_ptr: ConstPtr,
    scale_factor: f64,
    pool: Option<FramePool>,
    /// Fuse the smoothing/integral stages into combined launches (see
    /// [`fd_gpu::fuse`]). Off by default; detections are bit-identical
    /// either way, only launch count and the traffic ledger change.
    fusion: bool,
    /// Re-tile shape-polymorphic kernels per geometry class through the
    /// occupancy model (see [`fd_gpu::tune`]). Off by default; detections
    /// are byte-identical either way, only block shapes and timing change.
    autotune: bool,
    /// Tuned-shape memo, keyed by `(kernel, geometry class)` — shared by
    /// every level, frame and batch this pipeline runs.
    shapes: ShapeCache,
}

/// The launch geometry for `kernel`, re-tiled through the shape cache
/// when autotuning is on and the kernel advertises a family; the declared
/// default otherwise.
fn tuned_cfg<K: Kernel>(
    shapes: Option<&mut ShapeCache>,
    kernel: &K,
    class: GeomClass,
    default_cfg: LaunchConfig,
) -> LaunchConfig {
    match (shapes, kernel.shape_family()) {
        (Some(shapes), Some(family)) => {
            let c = shapes.choose(class, &family);
            LaunchConfig { grid: c.grid, block: c.block, shared_mem_bytes: c.shared_mem_bytes }
        }
        _ => default_cfg,
    }
}

impl FramePipeline {
    /// Stage the (quantized) cascade in constant memory and prepare the
    /// pipeline. `scale_factor` is the pyramid ratio (paper-typical 1.25).
    ///
    /// Panicking form of [`Self::try_new`], kept for construction paths
    /// whose inputs are static (benchmarks, examples).
    pub fn new(gpu: Gpu, cascade: &Cascade, scale_factor: f64) -> Self {
        Self::try_new(gpu, cascade, scale_factor).unwrap()
    }

    /// Fallible constructor: validates the scale factor, the cascade
    /// window and the constant-memory footprint of the encoded cascade.
    pub fn try_new(
        mut gpu: Gpu,
        cascade: &Cascade,
        scale_factor: f64,
    ) -> Result<Self, DetectorError> {
        if !(scale_factor.is_finite() && scale_factor > 1.0) {
            return Err(DetectorError::BadScaleFactor { scale_factor });
        }
        if cascade.window != 24 {
            return Err(DetectorError::InvalidConfig {
                reason: "the cascade kernel is specialized for 24-px windows",
            });
        }
        // Its block family (`24 x h` threads, whole warps only at 32
        // lanes) and its 32-entry lane lists: any other warp size panics
        // or never terminates inside a launch.
        if gpu.spec.warp_size != 32 {
            return Err(DetectorError::InvalidConfig {
                reason: "the cascade kernel is specialized for 32-lane warps",
            });
        }
        let quantized = quantize_cascade(cascade);
        gpu.const_clear();
        let const_ptr = gpu
            .try_const_upload(&encode_cascade(&quantized))
            .map_err(|source| DetectorError::Memory {
                context: "staging the encoded cascade in constant memory",
                source,
            })?;
        let shapes = ShapeCache::new(gpu.spec.clone(), gpu.cost.clone());
        Ok(Self {
            gpu,
            stages: precompile(&quantized),
            cascade: quantized,
            const_ptr,
            scale_factor,
            pool: None,
            fusion: false,
            autotune: false,
            shapes,
        })
    }

    /// Enable or disable kernel fusion for the scale/smoothing/integral
    /// stages. With fusion on, scale+filter+scan+transpose and
    /// scan+transpose launch as two fused kernels per level instead of
    /// six, paying one launch overhead each and keeping the
    /// intermediates' traffic on-chip.
    pub fn set_fusion(&mut self, fusion: bool) {
        self.fusion = fusion;
    }

    /// Whether the smoothing/integral stages launch fused.
    pub fn fusion(&self) -> bool {
        self.fusion
    }

    /// Enable or disable occupancy-driven launch-shape autotuning. With
    /// autotuning on, every kernel that advertises a [`ShapeFamily`]
    /// (cascade, scale, filter, scan) launches with the block shape the
    /// scheduler's occupancy model scores best for its geometry class,
    /// memoized in a per-pipeline [`ShapeCache`]. Detections are
    /// byte-identical either way; only block shapes and timing change.
    /// Fused chains keep their stacked default shapes (the chain contract
    /// requires one thread count across stages), so the knob composes
    /// with [`Self::set_fusion`].
    ///
    /// [`ShapeFamily`]: fd_gpu::ShapeFamily
    pub fn set_autotune(&mut self, autotune: bool) {
        self.autotune = autotune;
    }

    /// Whether launch shapes are autotuned.
    pub fn autotune(&self) -> bool {
        self.autotune
    }

    /// Tuned `(kernel, geometry)` classes resolved so far.
    pub fn tuned_classes(&self) -> usize {
        self.shapes.len()
    }

    /// The quantized cascade the device evaluates.
    pub fn cascade(&self) -> &Cascade {
        &self.cascade
    }

    /// Pyramid scale factor.
    pub fn scale_factor(&self) -> f64 {
        self.scale_factor
    }

    /// Constant-memory bytes occupied by the compressed cascade.
    pub fn const_bytes(&self) -> usize {
        self.const_ptr.len() * 4
    }

    /// Device bytes held by the frame-persistent buffer pool (0 until the
    /// first frame, or after [`Self::release_pool`]).
    pub fn pooled_bytes(&self) -> usize {
        self.pool.as_ref().map_or(0, |p| p.bytes)
    }

    /// Device bytes the buffer pool *would* hold for a `width x height`
    /// frame, computed without allocating anything. Admission control
    /// charges sessions against a memory budget with this projection
    /// before committing device state.
    pub fn projected_pool_bytes(
        &self,
        width: usize,
        height: usize,
    ) -> Result<usize, DetectorError> {
        let window = self.cascade.window as usize;
        if width < window || height < window {
            return Err(DetectorError::FrameTooSmall { width, height, window });
        }
        let plan = Pyramid::plan(width, height, self.scale_factor, window);
        Ok(plan.iter().map(|&(w, h)| LevelBufs::bytes(w * h)).sum())
    }

    /// Free the frame-persistent buffer pool, returning its device
    /// memory. The next [`Self::run_frame`] rebuilds it.
    pub fn release_pool(&mut self) {
        if let Some(pool) = self.pool.take() {
            self.gpu.clear_textures();
            for slot in pool.slots {
                for bufs in slot {
                    bufs.free(&mut self.gpu.mem);
                }
            }
        }
    }

    /// Ensure the pool matches `plan` for a `fw x fh` frame with at least
    /// `batch` request slots, rebuilding on geometry change and growing
    /// (never shrinking) the slot count on demand.
    fn ensure_pool(&mut self, fw: usize, fh: usize, plan: &[(usize, usize)], batch: usize) {
        let reusable = self
            .pool
            .as_ref()
            .is_some_and(|p| p.frame_dims == (fw, fh) && p.plan == plan);
        if !reusable {
            self.release_pool();
            let gpu = &mut self.gpu;
            let streams = plan.iter().map(|_| gpu.create_stream()).collect();
            self.pool = Some(FramePool {
                frame_dims: (fw, fh),
                plan: plan.to_vec(),
                streams,
                image_offs: plan.iter().map(|&(w, h)| image_offsets(&self.stages, w, h)).collect(),
                texs: Vec::new(),
                slots: Vec::new(),
                bytes: 0,
            });
        }
        let Some(pool) = self.pool.as_mut() else { return };
        while pool.slots.len() < batch {
            pool.slots.push(
                plan.iter()
                    .map(|&(w, h)| LevelBufs::alloc(&mut self.gpu.mem, w * h))
                    .collect(),
            );
            pool.bytes += FramePool::slot_bytes(plan);
        }
    }

    /// The full pyramid plan this pipeline would run for a `fw x fh`
    /// frame (largest level first). A deadline controller sheds load by
    /// truncating this plan's tail and calling
    /// [`Self::run_frame_with_plan`].
    pub fn plan_for(&self, frame: &GrayImage) -> Result<Vec<(usize, usize)>, DetectorError> {
        let window = self.cascade.window as usize;
        let (fw, fh) = (frame.width(), frame.height());
        if fw < window || fh < window {
            return Err(DetectorError::FrameTooSmall { width: fw, height: fh, window });
        }
        Ok(Pyramid::plan(fw, fh, self.scale_factor, window))
    }

    /// Launch the scale + smoothing + integral-image construction for
    /// one pyramid level, batched across request slots: bilinear scale,
    /// filter, then the scan → transpose → scan → transpose sequence
    /// that builds the integral image (paper §III-A/B). One code path
    /// serves both modes — unfused it issues the six batched launches of
    /// the baseline; fused it issues two combined launches
    /// (scale+filter+scan+transpose and scan+transpose), paying one
    /// launch overhead each and keeping the chain-internal intermediates
    /// (`scaled`, `filtered`, `buf_a`) off the global traffic ledger.
    /// Functional results are bit-identical either way.
    #[allow(clippy::too_many_arguments)]
    fn launch_level_pyramid_stages(
        gpu: &mut Gpu,
        texs: &[TexId],
        (fw, fh): (usize, usize),
        slots: &[Vec<LevelBufs>],
        level: usize,
        w: usize,
        h: usize,
        stream: StreamId,
        fusion: bool,
        shapes: Option<&mut ShapeCache>,
    ) -> Result<(), (&'static str, LaunchError)> {
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
        let filters: Vec<_> = slots
            .iter()
            .map(|slot| FilterKernel {
                src: slot[level].scaled,
                dst: slot[level].filtered,
                width: w,
                height: h,
            })
            .collect();
        let scan1s: Vec<_> = slots
            .iter()
            .map(|slot| ScanRowsKernel {
                input: ScanInput::QuantizeF32(slot[level].filtered),
                output: slot[level].buf_a,
                width: w,
                height: h,
            })
            .collect();
        let t1s: Vec<_> = slots
            .iter()
            .map(|slot| TransposeKernel {
                src: slot[level].buf_a,
                dst: slot[level].buf_b,
                width: w,
                height: h,
            })
            .collect();
        let scan2s: Vec<_> = slots
            .iter()
            .map(|slot| ScanRowsKernel {
                input: ScanInput::U32(slot[level].buf_b),
                output: slot[level].buf_a,
                width: h,
                height: w,
            })
            .collect();
        let t2s: Vec<_> = slots
            .iter()
            .map(|slot| TransposeKernel {
                src: slot[level].buf_a,
                dst: slot[level].integral,
                width: h,
                height: w,
            })
            .collect();
        let mut sc_cfg = scales[0].config();
        let mut f_cfg = filters[0].config();
        let mut s1_cfg = scan1s[0].config();
        let t1_cfg = t1s[0].config();
        let mut s2_cfg = scan2s[0].config();
        let t2_cfg = t2s[0].config();
        // Fused chains keep their stacked default shapes: one thread
        // count across all chained stages is part of the fusion contract,
        // and per-stage re-tiling would break it. Unfused launches are
        // free to take the tuned shape per stage (the transpose has no
        // family — its diagonal tile is its identity).
        if !fusion {
            if let Some(shapes) = shapes {
                sc_cfg = tuned_cfg(Some(shapes), &scales[0], GeomClass::of(w, h), sc_cfg);
                f_cfg = tuned_cfg(Some(shapes), &filters[0], GeomClass::of(w, h), f_cfg);
                s1_cfg = tuned_cfg(Some(shapes), &scan1s[0], GeomClass::of(w, h), s1_cfg);
                s2_cfg = tuned_cfg(Some(shapes), &scan2s[0], GeomClass::of(h, w), s2_cfg);
            }
        }

        if fusion {
            // Stack each stage across request slots first (grid.z), then
            // fuse the stacked stages; legality is validated per chain at
            // launch and any rejection surfaces as a launch error.
            let scb = BatchedKernel::new(scales, sc_cfg);
            let scb_cfg = scb.stacked_config(sc_cfg);
            let fb = BatchedKernel::new(filters, f_cfg);
            let fb_cfg = fb.stacked_config(f_cfg);
            let s1b = BatchedKernel::new(scan1s, s1_cfg);
            let s1b_cfg = s1b.stacked_config(s1_cfg);
            let t1b = BatchedKernel::new(t1s, t1_cfg);
            let t1b_cfg = t1b.stacked_config(t1_cfg);
            let chain_a = FusedChain::new("scale+filter+scan+transpose")
                .then(scb, scb_cfg)
                .then(fb, fb_cfg)
                .then(s1b, s1b_cfg)
                .then(t1b, t1b_cfg);
            gpu.launch_fused(chain_a, stream).map_err(|e| ("scale+filter+scan+transpose", e))?;

            let s2b = BatchedKernel::new(scan2s, s2_cfg);
            let s2b_cfg = s2b.stacked_config(s2_cfg);
            let t2b = BatchedKernel::new(t2s, t2_cfg);
            let t2b_cfg = t2b.stacked_config(t2_cfg);
            let chain_b =
                FusedChain::new("scan+transpose").then(s2b, s2b_cfg).then(t2b, t2b_cfg);
            gpu.launch_fused(chain_b, stream).map_err(|e| ("scan+transpose", e))?;
        } else {
            gpu.launch_batched(scales, sc_cfg, stream).map_err(|e| ("scale_bilinear", e))?;
            gpu.launch_batched(filters, f_cfg, stream).map_err(|e| ("filter_3tap", e))?;
            gpu.launch_batched(scan1s, s1_cfg, stream).map_err(|e| ("scan_rows", e))?;
            gpu.launch_batched(t1s, t1_cfg, stream).map_err(|e| ("transpose", e))?;
            gpu.launch_batched(scan2s, s2_cfg, stream).map_err(|e| ("scan_rows", e))?;
            gpu.launch_batched(t2s, t2_cfg, stream).map_err(|e| ("transpose", e))?;
        }
        Ok(())
    }

    /// Run the full pipeline on one luma frame. Returns the per-level
    /// readbacks and the frame's device timeline (its span is the
    /// detection latency).
    ///
    /// Steady-state frames (same geometry as the previous one) reuse the
    /// pooled buffers and perform no device allocations. A failed launch
    /// cancels the frame's queued work ([`Gpu::cancel_pending`]) so the
    /// device is clean for a retry; every kernel fully overwrites its
    /// outputs, so a retried frame is unaffected by the aborted one.
    pub fn run_frame(
        &mut self,
        frame: &GrayImage,
    ) -> Result<(Vec<ScaleOutput>, Timeline), DetectorError> {
        let plan = self.plan_for(frame)?;
        self.run_frame_with_plan(frame, &plan)
    }

    /// [`Self::run_frame`] restricted to a prefix of the pyramid plan
    /// (`plan` must be a prefix of [`Self::plan_for`]'s result; the
    /// deadline controller passes a truncated plan to shed the smallest
    /// scales).
    pub fn run_frame_with_plan(
        &mut self,
        frame: &GrayImage,
        plan: &[(usize, usize)],
    ) -> Result<(Vec<ScaleOutput>, Timeline), DetectorError> {
        let (mut batch, timeline) = self.run_batch_with_plan(&[frame], plan)?;
        let Some(outputs) = batch.pop() else {
            return Err(DetectorError::InvalidConfig { reason: "batch produced no output" });
        };
        Ok((outputs, timeline))
    }

    /// Run the pipeline on a *batch* of same-geometry luma frames as one
    /// device submission: at every pyramid level, each of the eight
    /// kernels is launched once for the whole batch
    /// ([`Gpu::launch_batched`], the batch stacked on `grid.z`), so B
    /// requests pay the launch overhead of one and their blocks
    /// co-schedule across SMs. This is the entry point the `fd-serve`
    /// dynamic batcher drives; a batch of one is bit-identical to
    /// [`Self::run_frame_with_plan`].
    ///
    /// Returns one `Vec<ScaleOutput>` per input frame (in input order)
    /// plus the shared device timeline of the submission. All frames
    /// must share one geometry; `plan` must be a prefix of
    /// [`Self::plan_for`] of that geometry.
    ///
    /// This is [`Self::submit_batch_with_plan`] followed by an owned copy
    /// of every slot's [`Self::readback`]; callers that only look at a
    /// few result elements take the two steps themselves.
    pub fn run_batch_with_plan(
        &mut self,
        frames: &[&GrayImage],
        plan: &[(usize, usize)],
    ) -> Result<(Vec<Vec<ScaleOutput>>, Timeline), DetectorError> {
        let timeline = self.submit_batch_with_plan(frames, plan)?;
        let outputs = (0..frames.len())
            .map(|slot| self.readback(slot).iter().map(ScaleView::to_owned).collect())
            .collect();
        Ok((outputs, timeline))
    }

    /// The submit step of [`Self::run_batch_with_plan`]: upload the
    /// frames, launch every level's kernels and drain the device. The
    /// results stay in the buffer pool — frame `i` of the batch in
    /// request slot `i` — until the next submission overwrites them;
    /// [`Self::readback`] reads them.
    pub fn submit_batch_with_plan(
        &mut self,
        frames: &[&GrayImage],
        plan: &[(usize, usize)],
    ) -> Result<Timeline, DetectorError> {
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

        // Slot `i`'s texture is the `i`-th bound; its storage stays with
        // the pool and takes each new frame in place.
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

        // A launch failure aborts the whole batch: cancel everything still
        // queued so the device (and its profiler) is clean for a retry.
        let fail = |gpu: &mut Gpu, kernel, level, source| {
            gpu.cancel_pending();
            Err(DetectorError::Launch { kernel, level: Some(level), frame: None, source })
        };
        let slots = &pool.slots[..frames.len()];
        let autotune = self.autotune;
        let shapes = &mut self.shapes;
        for (level, (&(w, h), &stream)) in plan.iter().zip(&pool.streams).enumerate() {
            if let Err((kernel, e)) = Self::launch_level_pyramid_stages(
                gpu,
                texs,
                (fw, fh),
                slots,
                level,
                w,
                h,
                stream,
                self.fusion,
                if autotune { Some(&mut *shapes) } else { None },
            ) {
                return fail(gpu, kernel, level, e);
            }

            let mut cascades: Vec<_> = slots
                .iter()
                .map(|slot| {
                    CascadeKernel::with_stages(
                        Arc::clone(&self.stages),
                        Arc::clone(&pool.image_offs[level]),
                        slot[level].integral,
                        w,
                        h,
                        slot[level].depth,
                        slot[level].score,
                        self.const_ptr,
                    )
                })
                .collect();
            // The cascade's shape lives on the kernel (its tile height),
            // so re-tiling rebuilds the kernels, not just the config.
            if autotune {
                if let Some(family) = cascades[0].shape_family() {
                    let bh = shapes.choose(GeomClass::of(w, h), &family).block.y;
                    if bh != CascadeKernel::BLOCK {
                        cascades = cascades.into_iter().map(|k| k.with_block_h(bh)).collect();
                    }
                }
            }
            if let Err(e) = { let cfg = cascades[0].config(); gpu.launch_batched(cascades, cfg, stream) } {
                return fail(gpu, "cascade_eval", level, e);
            }

            let displays: Vec<_> = slots
                .iter()
                .map(|slot| DisplayKernel {
                    depth: slot[level].depth,
                    hits: slot[level].hits,
                    width: w,
                    height: h,
                    required_depth: self.cascade.depth(),
                })
                .collect();
            if let Err(e) = { let cfg = displays[0].config(); gpu.launch_batched(displays, cfg, stream) } {
                return fail(gpu, "display", level, e);
            }
        }

        Ok(gpu.synchronize())
    }

    /// The readback step: the per-level results request slot `slot` holds
    /// from the last submission, largest level first, borrowed from
    /// device memory. Each map is one device-to-host copy as far as the
    /// fault plan is concerned (per level: depth, score, hits), corrupted
    /// exactly as an owned download would be. Empty when the pool has no
    /// such slot.
    pub fn readback(&self, slot: usize) -> Vec<ScaleView<'_>> {
        let Some(pool) = &self.pool else { return Vec::new() };
        let Some(bufs) = pool.slots.get(slot) else { return Vec::new() };
        let mem = &self.gpu.mem;
        pool.plan
            .iter()
            .zip(bufs)
            .enumerate()
            .map(|(level, (&(width, height), bufs))| ScaleView {
                level,
                width,
                height,
                scale: self.scale_factor.powi(level as i32),
                depth: mem.download_view(bufs.depth),
                score: mem.download_view(bufs.score),
                hits: mem.download_view(bufs.hits),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_gpu::{DeviceSpec, ExecMode};
    use fd_haar::{FeatureKind, HaarFeature, Stage, Stump};
    use fd_imgproc::IntegralImage;

    fn simple_cascade() -> Cascade {
        let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        let mut c = Cascade::new("t", 24);
        c.stages.push(Stage {
            stumps: vec![Stump { feature: f, threshold: 4096, left: -1.0, right: 1.0 }],
            threshold: 0.5,
        });
        c
    }

    fn test_frame() -> GrayImage {
        // A 96x72 frame with one strong edge pattern.
        GrayImage::from_fn(96, 72, |x, y| {
            if (20..32).contains(&x) && (10..34).contains(&y) {
                10.0
            } else if (32..44).contains(&x) && (10..34).contains(&y) {
                250.0
            } else {
                100.0
            }
        })
    }

    #[test]
    fn pipeline_levels_match_host_reference() {
        let gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let mut p = FramePipeline::new(gpu, &simple_cascade(), 1.25);
        let frame = test_frame();
        let (outputs, timeline) = p.run_frame(&frame).unwrap();
        assert!(outputs.len() >= 4, "96x72 at 1.25 should give several levels");
        assert!(timeline.span_us() > 0.0);

        // Reference: host-side scale+filter+integral+eval per level.
        for out in &outputs {
            let scaled = if out.level == 0 {
                frame.clone()
            } else {
                fd_imgproc::resize::resize_bilinear(&frame, out.width, out.height)
            };
            let filtered = fd_imgproc::filter::antialias_3tap(&scaled);
            let ii = IntegralImage::from_gray(&filtered);
            let cq = p.cascade().clone();
            for oy in (0..=out.height - 24).step_by(7) {
                for ox in (0..=out.width - 24).step_by(7) {
                    let r = cq.eval_window(&ii, ox, oy);
                    assert_eq!(
                        out.depth[oy * out.width + ox],
                        r.depth,
                        "level {} window ({ox},{oy})",
                        out.level
                    );
                }
            }
        }
    }

    #[test]
    fn serial_and_concurrent_agree_functionally() {
        let frame = test_frame();
        let run = |mode| {
            let gpu = Gpu::new(DeviceSpec::gtx470(), mode);
            let mut p = FramePipeline::new(gpu, &simple_cascade(), 1.25);
            let (outputs, timeline) = p.run_frame(&frame).unwrap();
            (outputs, timeline)
        };
        let (a, ta) = run(ExecMode::Serial);
        let (b, tb) = run(ExecMode::Concurrent);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.depth, y.depth);
            assert_eq!(x.hits, y.hits);
        }
        // Concurrency can only help.
        assert!(
            tb.span_us() <= ta.span_us() * 1.001,
            "concurrent {} vs serial {}",
            tb.span_us(),
            ta.span_us()
        );
    }

    #[test]
    fn hits_are_thresholded_depths() {
        let gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let mut p = FramePipeline::new(gpu, &simple_cascade(), 1.25);
        let (outputs, _) = p.run_frame(&test_frame()).unwrap();
        let req = p.cascade().depth();
        for out in &outputs {
            for (d, h) in out.depth.iter().zip(&out.hits) {
                assert_eq!(*h, (*d >= req) as u32);
            }
        }
    }

    #[test]
    fn memory_is_reclaimed_between_frames() {
        let gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let mut p = FramePipeline::new(gpu, &simple_cascade(), 1.25);
        let frame = test_frame();
        assert_eq!(p.pooled_bytes(), 0, "no pool before the first frame");
        let _ = p.run_frame(&frame);
        let live_after_first = p.gpu.mem.live_bytes();
        let allocs_after_first = p.gpu.mem.alloc_count();
        assert_eq!(p.pooled_bytes(), live_after_first, "pool owns all live memory");
        for _ in 0..3 {
            let _ = p.run_frame(&frame);
        }
        assert_eq!(p.gpu.mem.live_bytes(), live_after_first, "no leak across frames");
        assert_eq!(
            p.gpu.mem.alloc_count(),
            allocs_after_first,
            "steady-state frames must be allocation-free"
        );
        p.release_pool();
        assert_eq!(p.gpu.mem.live_bytes(), 0, "release_pool returns everything");
        assert_eq!(p.pooled_bytes(), 0);
    }

    #[test]
    fn batch_of_one_is_bit_identical_to_run_frame() {
        let frame = test_frame();
        let gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let mut p = FramePipeline::new(gpu, &simple_cascade(), 1.25);
        let (single, ts) = p.run_frame(&frame).unwrap();
        let gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let mut p = FramePipeline::new(gpu, &simple_cascade(), 1.25);
        let plan = p.plan_for(&frame).unwrap();
        let (batch, tb) = p.run_batch_with_plan(&[&frame], &plan).unwrap();
        assert_eq!(batch.len(), 1);
        for (a, b) in single.iter().zip(&batch[0]) {
            assert_eq!(a.depth, b.depth);
            assert_eq!(
                a.score.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.score.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(a.hits, b.hits);
        }
        assert_eq!(ts.span_us().to_bits(), tb.span_us().to_bits(), "same timeline");
    }

    #[test]
    fn batch_matches_per_frame_runs_functionally() {
        let frames: Vec<GrayImage> = (0..3)
            .map(|k| {
                GrayImage::from_fn(96, 72, |x, y| {
                    let (x, y) = (x + 5 * k, y + 3 * k);
                    if (20..32).contains(&x) && (10..34).contains(&y) {
                        10.0
                    } else if (32..44).contains(&x) && (10..34).contains(&y) {
                        250.0
                    } else {
                        100.0
                    }
                })
            })
            .collect();
        let gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let mut p = FramePipeline::new(gpu, &simple_cascade(), 1.25);
        let singles: Vec<_> = frames.iter().map(|f| p.run_frame(f).unwrap().0).collect();

        let gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let mut p = FramePipeline::new(gpu, &simple_cascade(), 1.25);
        let plan = p.plan_for(&frames[0]).unwrap();
        let refs: Vec<&GrayImage> = frames.iter().collect();
        let (batch, _) = p.run_batch_with_plan(&refs, &plan).unwrap();

        assert_eq!(batch.len(), singles.len());
        for (single, batched) in singles.iter().zip(&batch) {
            for (a, b) in single.iter().zip(batched) {
                assert_eq!(a.depth, b.depth);
                assert_eq!(a.hits, b.hits);
            }
        }
    }

    #[test]
    fn batched_launches_cut_the_per_request_latency() {
        let frame = test_frame();
        let refs4 = [&frame, &frame, &frame, &frame];
        let gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let mut p = FramePipeline::new(gpu, &simple_cascade(), 1.25);
        let plan = p.plan_for(&frame).unwrap();
        let (_, t1) = p.run_batch_with_plan(&[&frame], &plan).unwrap();
        let (_, t4) = p.run_batch_with_plan(&refs4, &plan).unwrap();
        assert!(
            t4.span_us() < 4.0 * t1.span_us(),
            "a 4-batch must beat 4 sequential frames: {} vs 4x{}",
            t4.span_us(),
            t1.span_us()
        );
    }

    #[test]
    fn batch_slots_are_pooled_and_steady_state_allocation_free() {
        let frame = test_frame();
        let refs: Vec<&GrayImage> = vec![&frame; 4];
        let gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let mut p = FramePipeline::new(gpu, &simple_cascade(), 1.25);
        let plan = p.plan_for(&frame).unwrap();
        let _ = p.run_batch_with_plan(&refs, &plan).unwrap();
        let live = p.gpu.mem.live_bytes();
        let allocs = p.gpu.mem.alloc_count();
        assert_eq!(p.pooled_bytes(), live, "pool owns all live memory");
        for _ in 0..3 {
            let _ = p.run_batch_with_plan(&refs, &plan).unwrap();
            // Smaller batches reuse a prefix of the slots.
            let _ = p.run_frame(&frame).unwrap();
        }
        assert_eq!(p.gpu.mem.alloc_count(), allocs, "steady-state batches are allocation-free");
        assert_eq!(p.gpu.mem.live_bytes(), live);
        p.release_pool();
        assert_eq!(p.gpu.mem.live_bytes(), 0);
    }

    #[test]
    fn batch_rejects_mixed_geometries_and_empty_batches() {
        let gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let mut p = FramePipeline::new(gpu, &simple_cascade(), 1.25);
        let a = test_frame();
        let b = GrayImage::from_fn(64, 48, |x, _| x as f32);
        let plan = p.plan_for(&a).unwrap();
        assert!(matches!(
            p.run_batch_with_plan(&[&a, &b], &plan),
            Err(DetectorError::InvalidConfig { .. })
        ));
        assert!(matches!(
            p.run_batch_with_plan(&[], &plan),
            Err(DetectorError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn fused_frames_are_bit_identical_and_pay_fewer_launches() {
        let frame = test_frame();
        let run = |fusion: bool| {
            let gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
            let mut p = FramePipeline::new(gpu, &simple_cascade(), 1.25);
            p.set_fusion(fusion);
            let (outputs, t) = p.run_frame(&frame).unwrap();
            let launches = p.gpu.profiler().traces().len();
            (outputs, t.span_us(), launches)
        };
        let (unfused, span_u, n_u) = run(false);
        let (fused, span_f, n_f) = run(true);
        for (a, b) in unfused.iter().zip(&fused) {
            assert_eq!(a.depth, b.depth, "level {}", a.level);
            assert_eq!(
                a.score.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.score.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "level {}",
                a.level
            );
            assert_eq!(a.hits, b.hits, "level {}", a.level);
        }
        // 8 launches per level unfused; fusion folds scale..transpose
        // into two, leaving chain A, chain B, cascade, display.
        assert_eq!(n_u % 8, 0);
        assert_eq!(n_f % 4, 0);
        assert_eq!(n_u / 8, n_f / 4, "same level count");
        assert!(
            span_f < span_u,
            "fusion must shorten the frame: fused {span_f} vs unfused {span_u}"
        );
    }

    #[test]
    fn fused_batches_match_unfused_batches() {
        let frame = test_frame();
        let refs: Vec<&GrayImage> = vec![&frame; 3];
        let run = |fusion: bool| {
            let gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
            let mut p = FramePipeline::new(gpu, &simple_cascade(), 1.25);
            p.set_fusion(fusion);
            let plan = p.plan_for(&frame).unwrap();
            p.run_batch_with_plan(&refs, &plan).unwrap()
        };
        let (unfused, tu) = run(false);
        let (fused, tf) = run(true);
        for (uf, ff) in unfused.iter().zip(&fused) {
            for (a, b) in uf.iter().zip(ff) {
                assert_eq!(a.depth, b.depth);
                assert_eq!(a.hits, b.hits);
            }
        }
        assert!(tf.span_us() < tu.span_us(), "{} vs {}", tf.span_us(), tu.span_us());
    }

    #[test]
    fn fusion_credits_intermediate_traffic() {
        let frame = test_frame();
        let counters = |fusion: bool| {
            let gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
            let mut p = FramePipeline::new(gpu, &simple_cascade(), 1.25);
            p.set_fusion(fusion);
            // Byte-for-byte ledger comparison needs both runs on the
            // default shapes: re-tiling changes halo traffic.
            p.set_autotune(false);
            let _ = p.run_frame(&frame).unwrap();
            let mut total = fd_gpu::KernelCounters::default();
            for prof in p.gpu.profiler().kernels().values() {
                total.add(&prof.counters);
            }
            total
        };
        let u = counters(false);
        let f = counters(true);
        assert_eq!(u.fused_bytes(), 0, "unfused frames have no fused traffic");
        assert!(f.fused_bytes() > 0, "fused frames credit intermediate traffic");
        assert_eq!(
            u.global_bytes() - f.global_bytes(),
            f.fused_bytes(),
            "every avoided global byte is accounted as fused"
        );
    }

    #[test]
    fn autotuned_frames_are_byte_identical_to_fixed_shapes() {
        let frame = test_frame();
        let run = |autotune: bool, fusion: bool| {
            let gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
            let mut p = FramePipeline::new(gpu, &simple_cascade(), 1.25);
            p.set_autotune(autotune);
            p.set_fusion(fusion);
            let (outputs, _) = p.run_frame(&frame).unwrap();
            (outputs, p.tuned_classes())
        };
        let (base, n_off) = run(false, false);
        assert_eq!(n_off, 0, "autotune off must not touch the shape cache");
        for fusion in [false, true] {
            let (tuned, n_on) = run(true, fusion);
            assert!(n_on > 0, "autotune must resolve at least one class");
            for (a, b) in base.iter().zip(&tuned) {
                assert_eq!(a.depth, b.depth, "level {}", a.level);
                assert_eq!(
                    a.score.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    b.score.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "level {}",
                    a.level
                );
                assert_eq!(a.hits, b.hits, "level {}", a.level);
            }
        }
    }

    #[test]
    fn pool_rebuilds_on_frame_geometry_change() {
        let gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let mut p = FramePipeline::new(gpu, &simple_cascade(), 1.25);
        let (a, _) = p.run_frame(&test_frame()).unwrap();
        let pool_96x72 = p.pooled_bytes();
        let allocs = p.gpu.mem.alloc_count();

        // A differently sized frame frees the old pool and builds a new one.
        let small = GrayImage::from_fn(64, 48, |x, _| (x * 3) as f32);
        let (b, _) = p.run_frame(&small).unwrap();
        assert!(p.gpu.mem.alloc_count() > allocs, "geometry change reallocates");
        assert_eq!(p.gpu.mem.live_bytes(), p.pooled_bytes(), "old pool was freed");
        assert!(p.pooled_bytes() < pool_96x72);
        assert!(b.len() < a.len(), "smaller frame has fewer levels");

        // Returning to the original geometry rebuilds and still matches the
        // first run's results exactly.
        let (c, _) = p.run_frame(&test_frame()).unwrap();
        assert_eq!(a.len(), c.len());
        for (x, y) in a.iter().zip(&c) {
            assert_eq!(x.depth, y.depth);
            assert_eq!(x.score, y.score);
            assert_eq!(x.hits, y.hits);
        }
    }
}
