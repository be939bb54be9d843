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
//! One pool per pipeline holds the device buffers, streams and frame
//! textures across frames. Each request slot's buffers are a
//! [`fd_gpu::Workspace`]: every buffer holds the most elements its
//! position in the stage list's level layout has needed so far, and a
//! submission works on exact-length prefix views of them
//! ([`fd_gpu::DevBuf::prefix`]). A switch of frame geometry or pyramid
//! plan (a shed prefix) only rebinds the views and the stages'
//! plan-bound state; the pool grows — freeing a buffer before allocating
//! its larger successor — only for a larger geometry or batch than any
//! before, so it settles at the largest geometry's size. This mirrors
//! how a production video detector holds its workspaces for the stream's
//! lifetime: `cudaMalloc`/`cudaFree` per frame would serialize against
//! the device. Every kernel in a stage list fully overwrites its outputs,
//! so stale elements are never read and no clearing is needed.
//! [`Pipeline::release_pool`] returns the memory explicitly. Steady-state
//! serving, of one geometry or a mix, performs **zero** device
//! allocations (asserted via [`fd_gpu::DeviceMemory::alloc_count`] in
//! tests).

use fd_gpu::{
    BufSource, ByteTally, ConstPtr, DevBuf, DeviceMemory, Gpu, LaunchError, StreamId, TexId,
    Texture2D, Timeline, Workspace,
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

    /// One `w x h` level's workspaces, taken from `src` in a fixed
    /// order: the pool reuses a buffer for the same position at every
    /// geometry.
    fn level_bufs(src: &mut impl BufSource, w: usize, h: usize) -> Self::LevelBufs;

    /// Rebuild what the stages derive from the pyramid plan; called each
    /// time the pool switches to a plan, before any launch on it.
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

/// The frame-persistent buffer pool (module docs): per-level streams,
/// per-request-slot workspaces and frame textures, bound to one plan at
/// a time.
///
/// Single-frame detection only ever touches slot 0; a batched submission
/// of B frames occupies slots `0..B`, and the pool grows (and then keeps)
/// as many slots as the largest batch seen, so steady-state serving is
/// allocation-free just like steady-state video decoding.
struct FramePool<S: StageList> {
    /// The plan `views` are bound to.
    plan: Vec<(usize, usize)>,
    /// One stream per pyramid level of the deepest plan so far, shared
    /// by every request slot (the batched launch path fuses the slots of
    /// one level into one grid).
    streams: Vec<StreamId>,
    /// The frame texture of each request slot that has had one: bound
    /// once, refilled in place by every later submission.
    texs: Vec<TexId>,
    /// Every buffer each request slot holds, its levels' in plan order.
    spaces: Vec<Workspace>,
    /// `views[s][level]`: request slot `s`'s workspaces at `level` of
    /// `plan`, prefix views into `spaces[s]`; the first slots only, as
    /// many as a submission under `plan` has used.
    views: Vec<Vec<S::LevelBufs>>,
}

impl<S: StageList> FramePool<S> {
    fn new() -> Self {
        Self {
            plan: Vec::new(),
            streams: Vec::new(),
            texs: Vec::new(),
            spaces: Vec::new(),
            views: Vec::new(),
        }
    }

    /// Bind the pool to a batch of `batch` frames under `plan`: a plan
    /// switch (a new geometry or a shed prefix) rebinds `stages` and the
    /// views, and a buffer or slot is only added or grown past its
    /// largest use.
    fn bind(&mut self, gpu: &mut Gpu, stages: &mut S, plan: &[(usize, usize)], batch: usize) {
        if self.plan != plan {
            stages.bind_plan(plan);
            self.plan = plan.to_vec();
            self.views.clear();
        }
        while self.streams.len() < plan.len() {
            self.streams.push(gpu.create_stream());
        }
        if self.spaces.len() < batch {
            self.spaces.resize_with(batch, Workspace::new);
        }
        for slot in self.views.len()..batch {
            let mut src = self.spaces[slot].fill(&mut gpu.mem);
            self.views.push(plan.iter().map(|&(w, h)| S::level_bufs(&mut src, w, h)).collect());
        }
    }

    fn free(self, gpu: &mut Gpu) {
        gpu.clear_textures();
        for space in self.spaces {
            space.free(&mut gpu.mem);
        }
    }
}

/// One backend's [`StageList`] on one simulated device.
pub struct Pipeline<S: StageList> {
    /// The simulated device (public for profiler access).
    pub gpu: Gpu,
    stages: S,
    scale_factor: f64,
    pool: FramePool<S>,
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
        Ok(Self { gpu, stages, scale_factor, pool: FramePool::new() })
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
        self.pool.spaces.iter().map(Workspace::bytes).sum()
    }

    /// Device bytes a fresh buffer pool would hold for one `width x
    /// height` frame, computed without allocating anything. Admission
    /// control charges sessions against a memory budget with this
    /// projection before committing device state; a pool that has served
    /// several geometries holds at most the sum of theirs.
    pub fn projected_pool_bytes(
        &self,
        width: usize,
        height: usize,
    ) -> Result<usize, DetectorError> {
        let mut tally = ByteTally::default();
        for (w, h) in self.plan(width, height)? {
            S::level_bufs(&mut tally, w, h);
        }
        Ok(tally.0)
    }

    /// Free the frame-persistent buffer pool, returning its device
    /// memory and unbinding the frame textures. The next submission
    /// rebuilds it.
    pub fn release_pool(&mut self) {
        std::mem::replace(&mut self.pool, FramePool::new()).free(&mut self.gpu);
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
    /// Batches of any geometry and plan the pool has grown to hold reuse
    /// its buffers and perform no device allocations. A failed launch
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
        pool.bind(gpu, stages, plan, frames.len());

        // Slot `i`'s texture is the `i`-th bound; its storage stays with
        // the pool and takes each new frame in place.
        for (slot, frame) in frames.iter().enumerate() {
            let upload = match pool.texs.get(slot) {
                Some(&tex) => gpu.refill_texture(tex, fw, fh, frame.as_slice()),
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
                slots: &pool.views[..frames.len()],
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
    /// corrupted exactly as an owned download would be. Empty for a slot
    /// no submission under the current plan has used.
    pub fn readback(&self, slot: usize) -> Vec<S::View<'_>> {
        let pool = &self.pool;
        let Some(bufs) = pool.views.get(slot) else { return Vec::new() };
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
