//! The per-frame pipeline skeleton (paper Fig. 1), shared by every
//! detection backend.
//!
//! For every pyramid level the pipeline issues the level's launches into
//! a *per-level stream*. In [`fd_gpu::ExecMode::Concurrent`] mode the
//! device scheduler backfills idle SMs with blocks from other levels'
//! streams (most effective for the small levels, whose grids cannot
//! occupy the device on their own); in [`fd_gpu::ExecMode::Serial`] mode
//! every kernel drains before the next starts, reproducing the paper's
//! baseline. Which launches a level takes, the workspaces they need and
//! what a readback of a level shows belong to the backend's
//! [`StageList`]: the paper's Haar cascade ([`HaarStages`](crate::HaarStages))
//! or the CNN cascade of `fd-cnn`.
//!
//! The skeleton's contract — serial equals concurrent, allocation-free
//! steady state, `release_pool` and re-bind, batch equals per-frame, the
//! projection and the batch guards — is tested once for both stage lists
//! in `crates/cnn/tests/stage_lists.rs`: after changing this module, run
//! `cargo test -p fd-cnn` as well as `-p fd-detector`.
//!
//! # Frame-persistent buffer pool
//!
//! Device buffers and streams are pooled across frames, keyed by the
//! pyramid plan: the first frame of a given geometry allocates one set of
//! per-level buffers, and every following frame of the same geometry
//! reuses them without touching the allocator (every kernel in a stage
//! list fully overwrites its outputs, so no clearing is needed either).
//! This mirrors how a production video detector holds its workspaces for
//! the stream's lifetime — `cudaMalloc`/`cudaFree` per frame would
//! serialize against the device. A frame-size change frees the old pool
//! and builds a new one; [`Pipeline::release_pool`] returns the memory
//! explicitly. Steady-state frames perform **zero** device allocations
//! (asserted via [`fd_gpu::DeviceMemory::alloc_count`] in tests).

use fd_gpu::{
    ConstPtr, DevBuf, DeviceMemory, Gpu, LaunchError, StreamId, TexId, Texture2D, Timeline,
};
use fd_imgproc::{GrayImage, Pyramid};

use crate::backend::Backend;
use crate::detector::{DetectorConfig, RejectionHistogram};
use crate::error::DetectorError;
use crate::group::Detection;
use crate::kernels::ScaleKernel;

/// What one detection backend contributes to the [`Pipeline`]: its staged
/// model, the workspaces and launches of one pyramid level, and how a
/// readback of a level becomes raw detections.
pub trait StageList: Sized {
    /// The request class this backend serves.
    const BACKEND: Backend;
    /// What the stages are built from (a cascade, a CNN model).
    type Model;
    /// The device workspaces one request slot holds at one level.
    type LevelBufs;
    /// One level's result maps, borrowed from device memory.
    type View<'a>;

    /// Validate `model` and stage its tables in the device's constant
    /// memory ([`stage_constants`]).
    fn stage(gpu: &mut Gpu, model: &Self::Model) -> Result<Self, DetectorError>;

    /// The model as the device evaluates it; replicas are built from it.
    fn model(&self) -> &Self::Model;

    /// Side of the sliding window in level pixels: the pyramid stops
    /// before a level gets smaller.
    fn window(&self) -> usize;

    /// Device bytes of one `w x h` level's workspaces.
    fn level_bytes(w: usize, h: usize) -> usize;

    /// Allocate one `w x h` level's workspaces.
    fn alloc_level(mem: &mut DeviceMemory, w: usize, h: usize) -> Self::LevelBufs;

    /// Free what [`Self::alloc_level`] allocated.
    fn free_level(mem: &mut DeviceMemory, bufs: Self::LevelBufs);

    /// Rebuild what the stages derive from the pyramid plan; called each
    /// time the pool is built for a new plan, before any launch on it.
    fn bind_plan(&mut self, _plan: &[(usize, usize)]) {}

    /// Issue one level's launches, each batched across request slots,
    /// into the level's stream. A failure names the kernel it hit.
    fn launch_level(
        &mut self,
        gpu: &mut Gpu,
        level: &LevelLaunch<'_, Self::LevelBufs>,
    ) -> Result<(), (&'static str, LaunchError)>;

    /// View one level's result maps. Each map viewed is one
    /// device-to-host copy as far as the fault plan is concerned.
    fn view<'a>(
        &self,
        mem: &'a DeviceMemory,
        at: LevelGeom,
        bufs: &Self::LevelBufs,
    ) -> Self::View<'a>;

    /// Raw window detections in frame coordinates.
    fn extract_raw(&self, views: &[Self::View<'_>]) -> Vec<Detection>;

    /// Windows per deepest stage reached, per level.
    fn histogram(&self, views: &[Self::View<'_>]) -> RejectionHistogram;

    /// Take this backend's settings from `config`.
    fn configure(&mut self, _config: &DetectorConfig) {}
}

/// Reset `gpu`'s constant memory and stage `words` in it; `context` names
/// the model in the error.
pub fn stage_constants(
    gpu: &mut Gpu,
    words: &[u32],
    context: &'static str,
) -> Result<ConstPtr, DetectorError> {
    gpu.const_clear();
    gpu.try_const_upload(words).map_err(|source| DetectorError::Memory { context, source })
}

/// Where a level sits in the pyramid.
#[derive(Debug, Clone, Copy)]
pub struct LevelGeom {
    pub level: usize,
    pub width: usize,
    pub height: usize,
    /// Multiply level coordinates by this to reach frame coordinates.
    pub scale: f64,
}

/// One level of a batched submission, as [`StageList::launch_level`]
/// sees it.
pub struct LevelLaunch<'a, B> {
    pub level: usize,
    pub w: usize,
    pub h: usize,
    pub stream: StreamId,
    /// Frame extent (every frame of a batch shares it).
    frame: (usize, usize),
    /// The frame texture of each request slot.
    texs: &'a [TexId],
    slots: &'a [Vec<B>],
}

impl<'a, B> LevelLaunch<'a, B> {
    /// This level's workspaces, one per request slot, in slot order.
    pub fn bufs(&self) -> impl Iterator<Item = &'a B> + 'a {
        let level = self.level;
        self.slots.iter().map(move |slot| &slot[level])
    }

    /// Bilinear scaling of each slot's frame texture into the buffer
    /// `dst` picks from its workspaces.
    pub fn scale_kernels(&self, dst: impl Fn(&B) -> DevBuf<f32>) -> Vec<ScaleKernel> {
        let (src_w, src_h) = self.frame;
        self.texs
            .iter()
            .zip(self.bufs())
            .map(|(&src, bufs)| ScaleKernel {
                src,
                src_w,
                src_h,
                dst: dst(bufs),
                dst_w: self.w,
                dst_h: self.h,
            })
            .collect()
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
struct FramePool<S: StageList> {
    frame_dims: (usize, usize),
    plan: Vec<(usize, usize)>,
    /// One stream per pyramid level, shared by every request slot (the
    /// batched launch path fuses the slots of one level into one grid).
    streams: Vec<StreamId>,
    /// The frame texture of each request slot that has had one: bound
    /// once, refilled in place by every later submission.
    texs: Vec<TexId>,
    slots: Vec<Vec<S::LevelBufs>>,
    bytes: usize,
}

impl<S: StageList> FramePool<S> {
    fn free(self, gpu: &mut Gpu) {
        gpu.clear_textures();
        for bufs in self.slots.into_iter().flatten() {
            S::free_level(&mut gpu.mem, bufs);
        }
    }
}

/// Device bytes of one request slot under `plan`.
fn slot_bytes<S: StageList>(plan: &[(usize, usize)]) -> usize {
    plan.iter().map(|&(w, h)| S::level_bytes(w, h)).sum()
}

/// The pool for a `frame`-sized batch of `batch` frames under `plan`:
/// the one `held` if it was built for that geometry, a new one (the old
/// one freed) otherwise; grown, never shrunk, to `batch` slots.
fn ensure_pool<'p, S: StageList>(
    held: &'p mut Option<FramePool<S>>,
    gpu: &mut Gpu,
    stages: &mut S,
    frame: (usize, usize),
    plan: &[(usize, usize)],
    batch: usize,
) -> &'p mut FramePool<S> {
    let pool = match held.take() {
        Some(pool) if pool.frame_dims == frame && pool.plan == plan => held.insert(pool),
        stale => {
            if let Some(stale) = stale {
                stale.free(gpu);
            }
            stages.bind_plan(plan);
            held.insert(FramePool {
                frame_dims: frame,
                plan: plan.to_vec(),
                streams: plan.iter().map(|_| gpu.create_stream()).collect(),
                texs: Vec::new(),
                slots: Vec::new(),
                bytes: 0,
            })
        }
    };
    while pool.slots.len() < batch {
        pool.slots.push(plan.iter().map(|&(w, h)| S::alloc_level(&mut gpu.mem, w, h)).collect());
        pool.bytes += slot_bytes::<S>(plan);
    }
    pool
}

/// One backend's [`StageList`] on one simulated device.
pub struct Pipeline<S: StageList> {
    /// The simulated device (public for profiler access).
    pub gpu: Gpu,
    stages: S,
    scale_factor: f64,
    pool: Option<FramePool<S>>,
}

impl<S: StageList> Pipeline<S> {
    /// Panicking form of [`Self::try_new`], kept for construction paths
    /// whose inputs are static (benchmarks, examples).
    pub fn new(gpu: Gpu, model: &S::Model, scale_factor: f64) -> Self {
        Self::try_new(gpu, model, scale_factor).expect("a valid model and scale factor")
    }

    /// Validate the scale factor (the pyramid ratio, paper-typical 1.25)
    /// and `model`, and stage the model on `gpu`.
    pub fn try_new(
        mut gpu: Gpu,
        model: &S::Model,
        scale_factor: f64,
    ) -> Result<Self, DetectorError> {
        if !(scale_factor.is_finite() && scale_factor > 1.0) {
            return Err(DetectorError::BadScaleFactor { scale_factor });
        }
        let stages = S::stage(&mut gpu, model)?;
        Ok(Self { gpu, stages, scale_factor, pool: None })
    }

    /// The backend's stage list.
    pub fn stages(&self) -> &S {
        &self.stages
    }

    /// The backend's stage list, for its settings.
    pub fn stages_mut(&mut self) -> &mut S {
        &mut self.stages
    }

    /// Constant-memory bytes occupied by the staged model.
    pub fn const_bytes(&self) -> usize {
        self.gpu.const_used_words() * 4
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
        Ok(slot_bytes::<S>(&self.plan(width, height)?))
    }

    /// Free the frame-persistent buffer pool, returning its device
    /// memory and unbinding the frame textures. The next submission
    /// rebuilds it.
    pub fn release_pool(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.free(&mut self.gpu);
        }
    }

    fn plan(&self, width: usize, height: usize) -> Result<Vec<(usize, usize)>, DetectorError> {
        let window = self.stages.window();
        if width < window || height < window {
            return Err(DetectorError::FrameTooSmall { width, height, window });
        }
        Ok(Pyramid::plan(width, height, self.scale_factor, window))
    }

    /// The full pyramid plan for `frame` (largest level first). A
    /// deadline controller sheds load by submitting a prefix of it.
    pub fn plan_for(&self, frame: &GrayImage) -> Result<Vec<(usize, usize)>, DetectorError> {
        self.plan(frame.width(), frame.height())
    }

    /// Run the pipeline on a *batch* of same-geometry luma frames as one
    /// device submission: upload the frames, issue every level's
    /// launches — each once for the whole batch
    /// ([`Gpu::launch_batched`], the batch stacked on `grid.z`), so B
    /// requests pay the launch overhead of one and their blocks
    /// co-schedule across SMs — and drain the device. `plan` must be a
    /// prefix of [`Self::plan_for`] of that geometry. Returns the
    /// submission's device timeline (its span is the detection latency);
    /// the results stay in the buffer pool — frame `i` in request slot
    /// `i` — until the next submission overwrites them, and
    /// [`Self::readback`] reads them.
    ///
    /// Steady-state batches (same geometry as the previous one) reuse the
    /// pooled buffers and perform no device allocations. A failed launch
    /// cancels the batch's queued work ([`Gpu::cancel_pending`]) so the
    /// device is clean for a retry; every kernel fully overwrites its
    /// outputs, so a retried batch is unaffected by the aborted one.
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
        let Self { gpu, stages, pool, .. } = self;
        let pool = ensure_pool(pool, gpu, stages, (fw, fh), plan, frames.len());

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

        for (level, (&(w, h), &stream)) in plan.iter().zip(&pool.streams).enumerate() {
            let launch = LevelLaunch {
                level,
                w,
                h,
                stream,
                frame: (fw, fh),
                texs: &pool.texs[..frames.len()],
                slots: &pool.slots[..frames.len()],
            };
            if let Err((kernel, source)) = stages.launch_level(gpu, &launch) {
                // A launch failure aborts the whole batch: cancel
                // everything still queued so the device (and its
                // profiler) is clean for a retry.
                gpu.cancel_pending();
                return Err(DetectorError::Launch {
                    kernel,
                    level: Some(level),
                    frame: None,
                    source,
                });
            }
        }
        Ok(gpu.synchronize())
    }

    /// The readback step: the per-level results request slot `slot` holds
    /// from the last submission, largest level first, borrowed from
    /// device memory ([`StageList::view`]) — a caller that reads a hit
    /// mask and a few scores copies nothing; while a view lives the
    /// pipeline cannot submit (`&self` borrow). Each map is one
    /// device-to-host copy as far as the fault plan is concerned,
    /// corrupted exactly as an owned download would be. Empty when the
    /// pool has no such slot.
    pub fn readback(&self, slot: usize) -> Vec<S::View<'_>> {
        let Some(pool) = &self.pool else { return Vec::new() };
        let Some(bufs) = pool.slots.get(slot) else { return Vec::new() };
        pool.plan
            .iter()
            .zip(bufs)
            .enumerate()
            .map(|(level, (&(width, height), bufs))| {
                let scale = self.scale_factor.powi(level as i32);
                self.stages.view(&self.gpu.mem, LevelGeom { level, width, height, scale }, bufs)
            })
            .collect()
    }
}
