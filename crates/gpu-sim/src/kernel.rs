//! Kernel trait, launch configuration and the per-block execution context.

use std::ops::Range;

use crate::dim::{div_ceil, Dim3};
use crate::fuse::FusionTraits;
use crate::memory::{ConstBank, DevBuf, DeviceMemory, DeviceScalar, TexId, Texture2D};
use crate::meter::{KernelCounters, Meter};

/// Grid/block geometry and shared-memory request for a launch, mirroring the
/// CUDA `<<<grid, block, sharedMem>>>` triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    pub grid: Dim3,
    pub block: Dim3,
    /// Dynamic shared memory requested per block, in bytes.
    pub shared_mem_bytes: u32,
}

impl LaunchConfig {
    pub fn new(grid: impl Into<Dim3>, block: impl Into<Dim3>) -> Self {
        Self { grid: grid.into(), block: block.into(), shared_mem_bytes: 0 }
    }

    /// 1D launch covering `n` elements with `threads_per_block` threads.
    pub fn linear(n: usize, threads_per_block: u32) -> Self {
        let blocks = div_ceil(n.max(1) as u32, threads_per_block);
        Self::new(Dim3::d1(blocks), Dim3::d1(threads_per_block))
    }

    /// 2D launch tiling a `width x height` domain with `bx x by` blocks.
    pub fn tile2d(width: usize, height: usize, bx: u32, by: u32) -> Self {
        let gx = div_ceil(width.max(1) as u32, bx);
        let gy = div_ceil(height.max(1) as u32, by);
        Self::new(Dim3::d2(gx, gy), Dim3::d2(bx, by))
    }

    /// Request dynamic shared memory.
    pub fn with_shared_mem(mut self, bytes: u32) -> Self {
        self.shared_mem_bytes = bytes;
        self
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u32 {
        self.block.count() as u32
    }

    /// Warps per block at a given warp size (rounded up, as hardware does).
    pub fn warps_per_block(&self, warp_size: u32) -> u32 {
        div_ceil(self.threads_per_block(), warp_size)
    }

    /// Total blocks in the grid.
    pub fn total_blocks(&self) -> u64 {
        self.grid.count()
    }
}

/// A device kernel. Implementations execute runs of thread blocks
/// ([`Kernel::run_blocks`]) and meter the SIMT work they represent.
///
/// Blocks of one launch may execute concurrently on host worker threads
/// (hence the `Sync` bound), yet results are deterministic: per-block
/// costs and counters are collected by linear block id and reduced in
/// that order, so output is bit-identical at any host thread count. Per
/// the CUDA programming model, a correct kernel must not depend on
/// inter-block execution order and must follow the memory arena's
/// disjoint-write contract ([`crate::memory`]); buffer-level read/write
/// races panic via the arena's debug checker.
pub trait Kernel: Send + Sync {
    /// Kernel name for profiling and traces.
    fn name(&self) -> &'static str;

    /// Execute the blocks with linear ids `blocks` of the grid in `ctx`
    /// and hand each block's counters to `sink`, in block order. This is
    /// what the host drain calls, once per chunk of a launch. A kernel
    /// whose blocks share no work runs them one at a time through
    /// [`LaunchCtx::each_block`]; kernels whose blocks share work (a grid
    /// row of tiles is a band of whole image rows) must produce, for any
    /// split of a launch into ranges, the bytes and the per-block counters
    /// they produce over one-block ranges.
    fn run_blocks(
        &self,
        ctx: &LaunchCtx<'_>,
        blocks: Range<u64>,
        sink: &mut dyn FnMut(&KernelCounters),
    );

    /// Declare which device buffers this launch reads and writes so the
    /// host drain can order it against other launches (see
    /// [`crate::AccessSet`]). The default marks the launch *opaque*: a
    /// full barrier against every other pending launch, which is always
    /// correct but forbids overlap. Kernels that want to run concurrently
    /// with independent work override this and declare their access set;
    /// the declared set must cover every buffer `run_blocks` touches.
    fn access(&self, set: &mut crate::memory::AccessSet) {
        set.mark_opaque();
    }

    /// Describe this kernel's producer/consumer shape for kernel fusion
    /// (see [`crate::fuse`]). The default declares the kernel unfusable,
    /// which is always safe; kernels with a regular element-wise or
    /// tile-local structure override this to opt in.
    fn fusion_traits(&self) -> Option<FusionTraits> {
        None
    }

    /// Linear block offsets at which execution must not interleave with
    /// earlier blocks of the same launch. Plain kernels have none (blocks
    /// are independent by construction); a fused chain reports its stage
    /// starts so the host drain inserts intra-launch barriers between the
    /// producer and consumer phases.
    fn phase_boundaries(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Number of independent batch parts this launch carries. Plain
    /// kernels are a single part; [`crate::BatchedKernel`] overrides this
    /// with its part count so injected launch faults can be attributed to
    /// one slot of the batch (see [`crate::LaunchError::batch_slot`]).
    fn batch_parts(&self) -> usize {
        1
    }

    /// Registers each thread of this kernel holds for its block's
    /// lifetime — the per-kernel resource pressure the block scheduler
    /// admits against the SM's register file (see
    /// [`crate::sched::launch_occupancy`]). The default of 16 is a
    /// modest compiled-kernel footprint that never bounds residency
    /// before the warp/thread caps do on the sm_20 budget, so kernels
    /// that do not override this keep their pre-register-model timing.
    /// Declared values above
    /// [`crate::DeviceSpec::max_registers_per_thread`] are clamped at
    /// launch (the `-maxrregcount` spill behaviour, not an error).
    fn registers_per_thread(&self) -> u32 {
        16
    }
}

/// What every block of a launch shares: geometry, memory spaces and
/// limits. The context of [`Kernel::run_blocks`]; a [`BlockCtx`] derefs
/// to it.
#[derive(Clone, Copy)]
pub struct LaunchCtx<'a> {
    /// Grid extent.
    pub grid_dim: Dim3,
    /// Block extent (threads).
    pub block_dim: Dim3,
    /// Global memory arena.
    pub mem: &'a DeviceMemory,
    constants: &'a ConstBank,
    textures: &'a [Texture2D],
    warp_size: u32,
    shared_limit_bytes: u32,
    /// Arena ids of buffers that are fusion-local in the current launch:
    /// traffic on them is metered as on-chip, not global (see
    /// [`crate::fuse`]). Empty for plain launches.
    fusion_local: &'a [usize],
}

impl<'a> LaunchCtx<'a> {
    pub(crate) fn new(
        cfg: &LaunchConfig,
        mem: &'a DeviceMemory,
        constants: &'a ConstBank,
        textures: &'a [Texture2D],
        warp_size: u32,
    ) -> Self {
        Self {
            grid_dim: cfg.grid,
            block_dim: cfg.block,
            mem,
            constants,
            textures,
            warp_size,
            shared_limit_bytes: cfg.shared_mem_bytes,
            fusion_local: &[],
        }
    }

    /// The same launch as one of its constituents sees it: a batch part
    /// its own flat grid, a fused stage its own geometry.
    pub(crate) fn retiled(&self, grid_dim: Dim3, block_dim: Dim3) -> Self {
        Self { grid_dim, block_dim, ..*self }
    }

    /// The same launch with `ids` as the fusion-local buffers.
    pub(crate) fn fusing<'b>(&self, ids: &'b [usize]) -> LaunchCtx<'b>
    where
        'a: 'b,
    {
        LaunchCtx { fusion_local: ids, ..*self }
    }

    /// The context of the block with linear id `lin`, metering into `meter`.
    fn block<'b>(&'b self, lin: u64, meter: &'b Meter) -> BlockCtx<'b> {
        BlockCtx {
            launch: *self,
            block_idx: self.grid_dim.from_linear(lin),
            meter,
            #[cfg(any(test, feature = "testkit"))]
            shared_used_bytes: 0,
        }
    }

    /// Run `body` on each block of `blocks` in order, metering into a
    /// fresh [`Meter`], and hand its counters to `sink`: the
    /// [`Kernel::run_blocks`] of a kernel whose blocks share no work.
    pub fn each_block(
        &self,
        blocks: Range<u64>,
        sink: &mut dyn FnMut(&KernelCounters),
        mut body: impl FnMut(&mut BlockCtx<'_>),
    ) {
        for lin in blocks {
            let meter = Meter::new();
            body(&mut self.block(lin, &meter));
            sink(&meter.snapshot());
        }
    }

    /// `blocks` cut into runs of blocks adjacent in `x`: the first block
    /// of each run and its length. A run is a grid row, or the part of
    /// one the range covers.
    pub fn bands(&self, blocks: Range<u64>) -> impl Iterator<Item = (Dim3, u32)> {
        let grid = self.grid_dim;
        let mut lin = blocks.start;
        std::iter::from_fn(move || {
            (lin < blocks.end).then(|| {
                let first = grid.from_linear(lin);
                let len = ((grid.x - first.x) as u64).min(blocks.end - lin);
                lin += len;
                (first, len as u32)
            })
        })
    }

    /// `blocks` as at most three rectangles of blocks: the rest of the grid
    /// row it starts in, the whole grid rows it covers (as one rectangle),
    /// the start of the row it ends in. Each is its first block, its
    /// width in blocks and its height in grid rows; block order is row by
    /// row inside a rectangle, rectangle after rectangle.
    pub fn rectangles(&self, blocks: Range<u64>) -> impl Iterator<Item = (Dim3, u32, u32)> {
        let row = self.grid_dim.x;
        let mut merged: Vec<(Dim3, u32, u32)> = Vec::with_capacity(3);
        for (first, len) in self.bands(blocks) {
            match merged.last_mut() {
                // Whole rows stack while they stay in one `z` slice.
                Some((top, width, rows))
                    if len == row
                        && *width == row
                        && top.z == first.z
                        && top.y + *rows == first.y =>
                {
                    *rows += 1;
                }
                _ => merged.push((first, len, 1)),
            }
        }
        merged.into_iter()
    }

    /// SIMT width of the device.
    pub fn warp_size(&self) -> u32 {
        self.warp_size
    }

    /// Number of warps a block occupies (rounded up).
    pub fn warps_in_block(&self) -> u64 {
        div_ceil(self.block_dim.count() as u32, self.warp_size) as u64
    }

    /// Read access to a staged constant-memory region.
    pub fn constant(&self, ptr: crate::memory::ConstPtr) -> &[u32] {
        self.constants.slice(ptr)
    }

    /// A bound texture, for kernels that fetch a whole tile through it and
    /// meter the fetches themselves ([`Meter::tex`]) in one call.
    pub fn texture(&self, tex: TexId) -> &'a Texture2D {
        &self.textures[tex.0]
    }

    /// Panics, like a CUDA launch failure would, unless the launch
    /// requested at least `bytes` of shared memory per block: the check a
    /// body makes for the shared memory its blocks stage.
    pub fn require_shared(&self, bytes: usize) {
        assert!(
            bytes as u64 <= self.shared_limit_bytes as u64,
            "kernel allocated {} B of shared memory but the launch requested only {} B",
            bytes,
            self.shared_limit_bytes
        );
    }

    /// Whether `buf` is an intermediate the current (fused) launch keeps
    /// on-chip.
    pub fn is_fusion_local<T: DeviceScalar>(&self, buf: DevBuf<T>) -> bool {
        self.fusion_local.contains(&buf.raw_id())
    }

    /// Add a read of `bytes` bytes from `buf` to `counters`: fused traffic
    /// when `buf` is fusion-local in this launch, global otherwise.
    pub fn count_load<T: DeviceScalar>(
        &self,
        counters: &mut KernelCounters,
        buf: DevBuf<T>,
        bytes: u64,
    ) {
        if self.is_fusion_local(buf) {
            counters.fused_bytes_read += bytes;
        } else {
            counters.global_bytes_read += bytes;
        }
    }

    /// Add a write of `bytes` bytes to `buf` to `counters`; see
    /// [`Self::count_load`].
    pub fn count_store<T: DeviceScalar>(
        &self,
        counters: &mut KernelCounters,
        buf: DevBuf<T>,
        bytes: u64,
    ) {
        if self.is_fusion_local(buf) {
            counters.fused_bytes_written += bytes;
        } else {
            counters.global_bytes_written += bytes;
        }
    }

    /// Iterate a block's threads in warp order, invoking `f(lane_set)` for
    /// each warp with the linear thread ids of its lanes. Convenience for
    /// kernels whose metering is warp-structured. Always inlined, so that
    /// a body run at the host's vector width keeps `f` in its frame.
    #[inline(always)]
    pub fn for_each_warp(&self, mut f: impl FnMut(u32, std::ops::Range<u32>)) {
        let threads = self.block_dim.count() as u32;
        let mut warp = 0;
        let mut start = 0;
        while start < threads {
            let end = (start + self.warp_size).min(threads);
            f(warp, start..end);
            warp += 1;
            start = end;
        }
    }
}

/// Declares a module's deliberate bugs for its oracle sweeps: the enum
/// as written (plus `Debug, Clone, Copy, PartialEq`), `mutated(m)`, which
/// the product code asks, and `with_mutation(m, sweep)`, which runs
/// `sweep` on this thread with `m` switched on. The switch and
/// `with_mutation` are `#[cfg(test)]` items, and `cfg` is evaluated in
/// the crate that invokes the macro: outside its test build `mutated` is
/// `false` and reads no thread-local.
#[macro_export]
macro_rules! mutation_switch {
    ($(#[$meta:meta])* enum $name:ident { $($(#[$vmeta:meta])* $variant:ident,)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        #[cfg(test)]
        ::std::thread_local! {
            static MUTATION: ::std::cell::Cell<Option<$name>> =
                const { ::std::cell::Cell::new(None) };
        }

        /// Run `sweep` on this thread with `mutation` switched on.
        #[cfg(test)]
        fn with_mutation(mutation: $name, sweep: impl FnOnce()) {
            MUTATION.set(Some(mutation));
            sweep();
            MUTATION.set(None);
        }

        /// Whether `mutation` is switched on: never outside a test build.
        fn mutated(mutation: $name) -> bool {
            #[cfg(test)]
            return MUTATION.get() == Some(mutation);
            #[cfg(not(test))]
            {
                let _ = mutation;
                false
            }
        }
    };
}

#[cfg(any(test, feature = "testkit"))]
pub use mutation::{with_band_mutation, BandMutation};

/// Deliberate bugs in [`Band`] that the kernel crates' oracle sweeps must
/// catch. Test builds only: a build without tests reads no switch.
#[cfg(any(test, feature = "testkit"))]
mod mutation {
    /// A bug [`with_band_mutation`] switches on.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum BandMutation {
        /// A band that reaches the right edge of an image wider than a
        /// block stops one column short.
        BandEdge,
        /// The last block of a grid row is metered like a full one.
        EdgeCostClass,
    }

    thread_local! {
        static BAND_MUTATION: std::cell::Cell<Option<BandMutation>> =
            const { std::cell::Cell::new(None) };
    }

    /// Run `sweep` on this thread with `mutation` switched on: for the
    /// `#[should_panic]` tests that prove a sweep would notice the bug.
    pub fn with_band_mutation(mutation: BandMutation, sweep: impl FnOnce()) {
        BAND_MUTATION.set(Some(mutation));
        sweep();
        BAND_MUTATION.set(None);
    }

    pub(super) fn mutated(mutation: BandMutation) -> bool {
        BAND_MUTATION.get() == Some(mutation)
    }
}

/// The part of a `w x h` image that a rectangle of blocks covers when `bw
/// x bh` blocks tile it: what [`LaunchCtx::rectangles`] yields, in pixels.
/// The tiled kernels process it as whole image rows.
pub struct Band {
    pub rows: Range<usize>,
    pub cols: Range<usize>,
    /// Blocks per grid row of the rectangle, and the shape of one.
    pub len: usize,
    pub bw: usize,
    pub bh: usize,
}

impl Band {
    pub fn of(
        (first, len, rows): (Dim3, u32, u32),
        (bw, bh): (usize, usize),
        (w, h): (usize, usize),
    ) -> Self {
        let (x0, y0) = (first.x as usize * bw, first.y as usize * bh);
        #[cfg(any(test, feature = "testkit"))]
        let w = w - (mutation::mutated(BandMutation::BandEdge) && w > bw) as usize;
        Self {
            rows: y0..(y0 + rows as usize * bh).min(h),
            cols: x0..(x0 + len as usize * bw).min(w),
            len: len as usize,
            bw,
            bh,
        }
    }

    /// Hand `sink` the counters of every block of the rectangle, row by
    /// row, left to right: `class(cw, ch)` for a block that covers `cw x
    /// ch` pixels. Only the last block of a row can be narrower and only
    /// the last row shorter than the others, so a launch has at most four
    /// classes.
    pub fn emit(
        &self,
        class: impl Fn(usize, usize) -> KernelCounters,
        sink: &mut dyn FnMut(&KernelCounters),
    ) {
        let last_cw = self.cols.len() - (self.len - 1) * self.bw;
        #[cfg(any(test, feature = "testkit"))]
        let last_cw =
            if mutation::mutated(BandMutation::EdgeCostClass) { self.bw } else { last_cw };
        for y0 in self.rows.clone().step_by(self.bh) {
            let ch = (self.rows.end - y0).min(self.bh);
            let full = class(self.bw, ch);
            for _ in 1..self.len {
                sink(&full);
            }
            sink(&if last_cw == self.bw { full } else { class(last_cw, ch) });
        }
    }
}

/// Execution context for one thread block: the launch it belongs to
/// (geometry and memory spaces, through `Deref`), its index and the work
/// meter.
pub struct BlockCtx<'a> {
    launch: LaunchCtx<'a>,
    /// Index of this block within the grid.
    pub block_idx: Dim3,
    /// Work meter for this block.
    pub meter: &'a Meter,
    #[cfg(any(test, feature = "testkit"))]
    shared_used_bytes: u32,
}

impl<'a> std::ops::Deref for BlockCtx<'a> {
    type Target = LaunchCtx<'a>;
    fn deref(&self) -> &LaunchCtx<'a> {
        &self.launch
    }
}

impl BlockCtx<'_> {
    /// Record a `__syncthreads()` executed by all warps of the block.
    pub fn syncthreads(&self) {
        self.meter.barrier(self.warps_in_block());
    }
}

/// Per-element helpers of the per-block reference bodies and test
/// kernels. The product bodies stage whole bands and meter in closed form
/// ([`LaunchCtx::require_shared`], [`LaunchCtx::count_load`]).
#[cfg(any(test, feature = "testkit"))]
impl BlockCtx<'_> {
    /// Allocate a block-local shared-memory array of `len` `u32` words.
    ///
    /// The returned vector models the block's shared-memory scratchpad: it
    /// lives for the duration of the block, and its size is charged against
    /// the launch's shared-memory request. Exceeding the per-block limit
    /// panics, like a CUDA launch failure would.
    pub fn shared_alloc_u32(&mut self, len: usize) -> Vec<u32> {
        self.charge_shared(len.saturating_mul(4));
        vec![0u32; len]
    }

    /// Allocate a block-local shared-memory array of `len` `f32` values.
    pub fn shared_alloc_f32(&mut self, len: usize) -> Vec<f32> {
        self.charge_shared(len.saturating_mul(4));
        vec![0f32; len]
    }

    /// Allocate a block-local shared-memory array of `len` `i32` values.
    pub fn shared_alloc_i32(&mut self, len: usize) -> Vec<i32> {
        self.charge_shared(len.saturating_mul(4));
        vec![0i32; len]
    }

    /// Charge `bytes` of shared memory against the launch's request
    /// without materializing it: for scratch the real kernel needs but the
    /// functional body never touches. Same limit check as the
    /// `shared_alloc_*` family.
    pub fn shared_reserve(&mut self, bytes: usize) {
        self.charge_shared(bytes);
    }

    fn charge_shared(&mut self, bytes: usize) {
        // Widened so an absurd request saturates into the assert instead
        // of wrapping past it.
        let used = (self.shared_used_bytes as u64).saturating_add(bytes as u64);
        self.launch.require_shared(used.min(usize::MAX as u64) as usize);
        self.shared_used_bytes = used as u32;
    }

    /// Shared-memory bytes allocated so far by this block.
    pub fn shared_used_bytes(&self) -> u32 {
        self.shared_used_bytes
    }

    /// Bilinear texture fetch; meters one texture transaction.
    #[inline]
    pub fn tex2d(&self, tex: TexId, x: f32, y: f32) -> f32 {
        self.meter.tex(1);
        self.texture(tex).fetch_bilinear(x, y)
    }

    /// Meter a global-memory read of `bytes` bytes from `buf`, routed to
    /// the fused-traffic counters when `buf` is fusion-local in this
    /// launch, so that a chain keeping it on-chip is credited.
    #[inline]
    pub fn global_load_buf<T: DeviceScalar>(&self, buf: DevBuf<T>, bytes: u64) {
        if self.is_fusion_local(buf) {
            self.meter.fused_load(bytes);
        } else {
            self.meter.global_load(bytes);
        }
    }

    /// Meter a global-memory write of `bytes` bytes to `buf`; see
    /// [`Self::global_load_buf`].
    #[inline]
    pub fn global_store_buf<T: DeviceScalar>(&self, buf: DevBuf<T>, bytes: u64) {
        if self.is_fusion_local(buf) {
            self.meter.fused_store(bytes);
        } else {
            self.meter.global_store(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn launch_ctx<'a>(
        cfg: LaunchConfig,
        mem: &'a DeviceMemory,
        bank: &'a ConstBank,
    ) -> LaunchCtx<'a> {
        LaunchCtx::new(&cfg, mem, bank, &[], 32)
    }

    #[test]
    fn linear_launch_covers_domain() {
        let cfg = LaunchConfig::linear(1000, 256);
        assert_eq!(cfg.grid.x, 4);
        assert_eq!(cfg.threads_per_block(), 256);
        assert_eq!(cfg.warps_per_block(32), 8);
        assert_eq!(cfg.total_blocks(), 4);
    }

    #[test]
    fn tile2d_rounds_up() {
        let cfg = LaunchConfig::tile2d(1920, 1080, 24, 24);
        assert_eq!(cfg.grid.x, 80);
        assert_eq!(cfg.grid.y, 45);
        assert_eq!(cfg.threads_per_block(), 576);
    }

    #[test]
    fn shared_alloc_enforces_launch_request() {
        let mem = DeviceMemory::new();
        let meter = Meter::new();
        let bank = ConstBank::new(1024);
        // Only 16 bytes allowed.
        let launch = launch_ctx(LaunchConfig::new(1u32, 64u32).with_shared_mem(16), &mem, &bank);
        let mut ctx = launch.block(0, &meter);
        let _ok = ctx.shared_alloc_u32(4);
        assert_eq!(ctx.shared_used_bytes(), 16);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.shared_alloc_u32(1);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn shared_charge_does_not_wrap_past_the_limit() {
        let mem = DeviceMemory::new();
        let meter = Meter::new();
        let bank = ConstBank::new(0);
        let launch = launch_ctx(LaunchConfig::new(1u32, 64u32).with_shared_mem(16), &mem, &bank);
        let mut ctx = launch.block(0, &meter);
        // 2^30 words are 2^32 bytes: 0 once truncated to `u32`.
        for request in [1usize << 30, usize::MAX / 4, usize::MAX] {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ctx.shared_alloc_u32(request);
            }));
            assert!(r.is_err(), "a {request}-word request must hit the 16 B limit");
        }
        assert_eq!(ctx.shared_used_bytes(), 0, "refused requests are not charged");
        ctx.shared_reserve(16);
        assert_eq!(ctx.shared_used_bytes(), 16, "a reservation is charged like an allocation");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.shared_reserve(1)));
        assert!(r.is_err(), "and held to the same limit");
    }

    #[test]
    fn warp_iteration_partitions_threads() {
        let mem = DeviceMemory::new();
        let meter = Meter::new();
        let bank = ConstBank::new(0);
        // 72 threads -> 3 warps: 32, 32, 8.
        let launch = launch_ctx(LaunchConfig::new(1u32, (24u32, 3u32)), &mem, &bank);
        let ctx = launch.block(0, &meter);
        let mut sizes = Vec::new();
        ctx.for_each_warp(|_, lanes| sizes.push(lanes.len()));
        assert_eq!(sizes, vec![32, 32, 8]);
        assert_eq!(ctx.warps_in_block(), 3);
    }

    #[test]
    fn syncthreads_meters_per_warp() {
        let mem = DeviceMemory::new();
        let meter = Meter::new();
        let bank = ConstBank::new(0);
        let launch = launch_ctx(LaunchConfig::new(1u32, 128u32), &mem, &bank);
        let ctx = launch.block(0, &meter);
        ctx.syncthreads();
        assert_eq!(meter.snapshot().barriers, 4);
    }
}
