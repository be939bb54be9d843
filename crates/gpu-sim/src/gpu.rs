//! The device front-end: launch kernels into streams, synchronize.

use std::time::Instant;

use crate::cost::CostModel;
use crate::device::{DeviceSpec, ExecMode};
use crate::fault::{fault_draw, FaultCursor, FaultDomain, FaultPlan, FaultStats};
use crate::graph::DepTracker;
use crate::kernel::{Kernel, LaunchConfig};
use crate::memory::{
    AccessSet, ConstBank, ConstPtr, DevBuf, DeviceMemory, DeviceScalar, MemoryError, TexId,
    Texture2D,
};
use crate::meter::KernelCounters;
use crate::pool::{resolve_host_threads, DrainJob, LaunchEnv, Node, WorkerPool};
use crate::profiler::Profiler;
use crate::sched::{BlockCost, BlockCosts, LaunchRecord, SchedScratch, Timeline};
use crate::stream::StreamId;

/// Most blocks a single launch may execute functionally. Far beyond any
/// realistic pyramid (a 1080p frame tiles to ~32 K blocks); grids past
/// this would exhaust host memory on per-block cost records, so they are
/// rejected as a launch error instead of aborting on allocation.
pub const MAX_FUNCTIONAL_BLOCKS: u64 = 1 << 24;

/// Reasons a kernel launch can be rejected, mirroring CUDA launch errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// Block exceeds `max_threads_per_block`.
    TooManyThreads { requested: u32, limit: u32 },
    /// Requested dynamic shared memory exceeds the per-block limit.
    SharedMemExceeded { requested: u32, limit: u32 },
    /// Grid or block has a zero extent.
    EmptyLaunch,
    /// No SM can hold one block of the launch (the device has no SMs, or
    /// a per-SM budget admits no block), so the timing simulation could
    /// never place it.
    BlockDoesNotFit { kernel: &'static str },
    /// Grid exceeds [`MAX_FUNCTIONAL_BLOCKS`] (`requested` saturates at
    /// `u64::MAX` when the block count itself overflows).
    GridTooLarge { requested: u64, limit: u64 },
    /// Injected fault: the launch timed out on the device. Unrecoverable
    /// for this launch — retrying draws the same verdict class on real
    /// hardware (the engine is wedged), so callers should skip the work.
    /// `batch_slot` attributes the fault to one part of a batched launch
    /// (`None` for plain launches, where the whole launch is the unit).
    InjectedTimeout { kernel: &'static str, batch_slot: Option<usize> },
    /// Injected fault: a transient launch failure (spurious
    /// `cudaErrorLaunchFailure` under engine contention). A retry is a
    /// fresh draw and typically succeeds. `batch_slot` as for
    /// [`LaunchError::InjectedTimeout`].
    InjectedTransient { kernel: &'static str, batch_slot: Option<usize> },
    /// A batched launch's per-part grid must be flat (`grid.z == 1`):
    /// the batch dimension itself is stacked on `z`.
    BatchedGridDepth { z: u32 },
    /// A fused chain failed legality validation (see [`crate::fuse`]).
    FusionRejected(crate::fuse::FusionError),
}

impl LaunchError {
    /// Whether a bounded retry of the same launch can reasonably succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, LaunchError::InjectedTransient { .. })
    }

    /// For injected faults on a batched launch, the part index the fault
    /// is attributed to. `None` for non-injected errors and for faults on
    /// plain (single-part) launches.
    pub fn batch_slot(&self) -> Option<usize> {
        match self {
            LaunchError::InjectedTimeout { batch_slot, .. }
            | LaunchError::InjectedTransient { batch_slot, .. } => *batch_slot,
            _ => None,
        }
    }
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::TooManyThreads { requested, limit } => {
                write!(f, "block of {requested} threads exceeds device limit {limit}")
            }
            LaunchError::SharedMemExceeded { requested, limit } => {
                write!(f, "{requested} B shared memory exceeds per-block limit {limit} B")
            }
            LaunchError::EmptyLaunch => write!(f, "grid and block extents must be non-zero"),
            LaunchError::BlockDoesNotFit { kernel } => {
                write!(f, "no SM of the device can hold a block of `{kernel}`")
            }
            LaunchError::GridTooLarge { requested, limit } => {
                write!(f, "grid of {requested} blocks exceeds functional-simulation limit {limit}")
            }
            LaunchError::InjectedTimeout { kernel, batch_slot } => {
                write!(f, "injected fault: launch of `{kernel}` timed out")?;
                if let Some(slot) = batch_slot {
                    write!(f, " (batch slot {slot})")?;
                }
                Ok(())
            }
            LaunchError::InjectedTransient { kernel, batch_slot } => {
                write!(f, "injected fault: transient launch failure for `{kernel}`")?;
                if let Some(slot) = batch_slot {
                    write!(f, " (batch slot {slot})")?;
                }
                Ok(())
            }
            LaunchError::BatchedGridDepth { z } => {
                write!(f, "batched launch requires a flat per-part grid, got depth {z}")
            }
            LaunchError::FusionRejected(e) => write!(f, "fusion rejected: {e}"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// A launch accepted into the queue. Its functional phase has not
/// necessarily run yet: `kernel` is retained until a flush executes it
/// and fills in the record's costs/counters.
struct PendingLaunch {
    record: LaunchRecord,
    kernel: Option<Box<dyn Kernel>>,
    cfg: LaunchConfig,
    total_blocks: u64,
    /// Injected stream-stall penalty, applied to the first block's issue
    /// cycles once the launch has executed (drawn at enqueue so fault
    /// verdicts keep their launch-attempt order).
    stall_cycles: f64,
    /// Dependency edges (queue positions) from [`DepTracker`].
    deps: Vec<usize>,
}

/// A simulated GPU: memory spaces, streams, a launch queue and a profiler.
///
/// See the crate-level documentation for the execution model. The typical
/// per-frame cycle is: upload inputs, stage constants/textures, launch the
/// pipeline's kernels into per-scale streams, then [`Gpu::synchronize`] to
/// obtain the frame's [`Timeline`].
pub struct Gpu {
    pub spec: DeviceSpec,
    pub cost: CostModel,
    /// Global-memory arena (public: host code uploads/downloads directly).
    pub mem: DeviceMemory,
    constants: ConstBank,
    textures: Vec<Texture2D>,
    /// Host worker threads for the functional phase; `None` defers to
    /// host parallelism (see [`crate::pool`]).
    host_threads: Option<usize>,
    next_stream: u32,
    pending: Vec<PendingLaunch>,
    /// Queue position of the first launch whose functional phase has not
    /// run: every flush drains the whole queue, so `pending[..first_deferred]`
    /// is executed and `pending[first_deferred..]` still holds its kernels.
    first_deferred: usize,
    launch_counter: usize,
    /// Dependency graph over the pending queue.
    tracker: DepTracker,
    /// See [`Gpu::cross_stream_deps`].
    #[cfg(any(test, feature = "testkit"))]
    cross_stream_deps: u64,
    /// Persistent workers draining the queue; spawned lazily, reused for
    /// the device's lifetime.
    pool: WorkerPool,
    /// Wall-clock origin for host-execution spans.
    host_epoch: Instant,
    /// The timing scheduler's buffers, reused across scopes.
    sched_scratch: SchedScratch,
    profiler: Profiler,
    fault: Option<FaultState>,
}

/// Split a launch's linear block range into `(first, count)` phase
/// segments from the kernel's [`Kernel::phase_boundaries`] (ascending
/// stage starts, 0 excluded). Plain kernels yield one segment.
fn phase_segments(boundaries: Vec<u64>, total_blocks: u64) -> Vec<(u64, u64)> {
    let mut starts = Vec::with_capacity(boundaries.len() + 1);
    starts.push(0u64);
    starts.extend(boundaries.into_iter().filter(|&b| b > 0 && b < total_blocks));
    let mut segments = Vec::with_capacity(starts.len());
    for (i, &first) in starts.iter().enumerate() {
        let end = starts.get(i + 1).copied().unwrap_or(total_blocks);
        debug_assert!(end > first, "phase boundaries must be ascending");
        segments.push((first, end - first));
    }
    segments
}

/// The deferred launches `pending[base..]` as the pool's dependency graph,
/// and each one's first and last node.
///
/// Dependencies on already-executed launches (`d < base`) are satisfied by
/// definition and drop out of the node graph. Fused launches expand into
/// one node per phase, chained by deps, so the pool never interleaves a
/// consumer stage's blocks with its producer's. External deps attach to
/// the first phase; downstream launches depending on the fused launch
/// point at its last phase.
fn drain_graph(pending: &[PendingLaunch], base: usize) -> (Vec<Node<'_>>, Vec<(usize, usize)>) {
    let mut nodes: Vec<Node<'_>> = Vec::with_capacity(pending.len() - base);
    let mut node_span: Vec<(usize, usize)> = Vec::with_capacity(pending.len() - base);
    for p in &pending[base..] {
        let kernel = &**p.kernel.as_ref().expect("unexecuted launch retains its kernel");
        let first = nodes.len();
        for (block_offset, count) in phase_segments(kernel.phase_boundaries(), p.total_blocks) {
            let deps = if nodes.len() == first {
                p.deps.iter().filter(|&&d| d >= base).map(|&d| node_span[d - base].1).collect()
            } else {
                vec![nodes.len() - 1]
            };
            nodes.push(Node {
                kernel,
                cfg: &p.cfg,
                total_blocks: count,
                block_offset,
                deps,
                launch_idx: p.record.launch_idx as u64,
                name: p.record.kernel_name,
            });
        }
        node_span.push((first, nodes.len() - 1));
    }
    (nodes, node_span)
}

/// The drain that is running `pending[base..]`, and each of those
/// launches' first and last node in it.
type Pulled<'a> = (&'a DrainJob<'a>, &'a [(usize, usize)]);

/// What [`Gpu::synchronize`] tells the timing simulation about the queue.
/// Launches whose functional phase has run (`pending[..base]`) answer from
/// their records. The others are being run by the `pulled` drain while the
/// simulation asks: the first question about one — at its first placement
/// — waits until its nodes are complete, with the host thread as a drain
/// worker meanwhile, and its block costs are then read where the drain
/// left them, chunk by chunk.
struct QueueCosts<'a> {
    pending: &'a [PendingLaunch],
    base: usize,
    pulled: Option<Pulled<'a>>,
    /// Per launch, the costs last read from — a chunk's, or a record's —
    /// and the launch's block they start at: a launch's blocks are asked
    /// for in order, so all but the first question about a chunk end here.
    /// Empty until the launch's nodes are known to be complete.
    at: Vec<(usize, &'a [BlockCost])>,
    epoch: Instant,
    /// Start of the stretch of simulating under way, and the stretches
    /// before it: between them the host ran kernel bodies.
    since_us: f64,
    simulated: Vec<(f64, f64)>,
}

impl<'a> QueueCosts<'a> {
    fn new(
        pending: &'a [PendingLaunch],
        base: usize,
        pulled: Option<Pulled<'a>>,
        epoch: Instant,
    ) -> Self {
        let since_us = epoch.elapsed().as_secs_f64() * 1e6;
        let at = vec![(0, &[][..]); pending.len()];
        Self { pending, base, pulled, at, epoch, since_us, simulated: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// The timeline of the queue, and the stretches of host time the
    /// simulation took.
    fn simulate(
        mut self,
        scratch: &mut SchedScratch,
        spec: &DeviceSpec,
        cost: &CostModel,
    ) -> (Timeline, Vec<(f64, f64)>) {
        let records = self.pending.iter().map(|p| &p.record);
        let timeline = scratch.simulate_from(spec, cost, records, &mut self);
        self.simulated.push((self.since_us, self.now_us()));
        (timeline, self.simulated)
    }

    /// [`BlockCosts::cost`] for the first block of a launch or of a chunk.
    fn seek(&mut self, launch: usize, block: usize) -> BlockCost {
        let p = &self.pending[launch];
        let Some(k) = launch.checked_sub(self.base) else {
            self.at[launch] = (0, &p.record.block_costs);
            return p.record.block_costs[block];
        };
        let (drain, node_span) = self.pulled.expect("a deferred launch is being drained");
        let (nodes, (first, last)) = (drain.nodes(), node_span[k]);
        if block == 0 && !drain.done(last) {
            self.simulated.push((self.since_us, self.now_us()));
            drain.help_until((first, last));
            self.since_us = self.now_us();
        }
        // The phase that holds the block (a plain launch has one), the
        // chunk of that phase, the block within the chunk.
        let mut node = first;
        while block as u64 >= nodes[node].block_offset + nodes[node].total_blocks {
            node += 1;
        }
        let in_phase = block - nodes[node].block_offset as usize;
        if mutated(Mutation::FirstPhaseSlots) {
            node = first;
        }
        let per_chunk = match mutated(Mutation::OtherChunkSize) {
            false => drain.chunk_blocks(node),
            true => drain.chunk_blocks((node + 1) % nodes.len()),
        };
        let costs = &drain.chunk(node, in_phase / per_chunk).block_costs[..];
        self.at[launch] = (block - in_phase % per_chunk, costs);
        let mut cost = costs[in_phase % per_chunk];
        if block == 0 && p.stall_cycles > 0.0 && !mutated(Mutation::StallDropped) {
            // A stream stall pins the launch's first block for the
            // stall duration. Charged as issue cycles so warp
            // residency cannot hide it (the engine is stalled, not
            // waiting on DRAM); the timing phase stretches the
            // launch's span while functional results stay untouched.
            cost.issue_cycles += p.stall_cycles;
        }
        cost
    }
}

impl BlockCosts for QueueCosts<'_> {
    fn blocks(&self, launch: usize) -> usize {
        self.pending[launch].total_blocks as usize
    }

    fn cost(&mut self, launch: usize, block: usize) -> BlockCost {
        let (first, costs) = self.at[launch];
        match costs.get(block.wrapping_sub(first)) {
            Some(cost) => *cost,
            None => self.seek(launch, block),
        }
    }

    fn counters(&mut self, launch: usize) -> KernelCounters {
        let Some(k) = launch.checked_sub(self.base) else {
            return self.pending[launch].record.counters;
        };
        let (drain, node_span) = self.pulled.expect("a deferred launch is being drained");
        let mut totals = KernelCounters::default();
        for node in node_span[k].0..=node_span[k].1 {
            totals.add(&drain.totals(node));
        }
        totals
    }
}

crate::mutation_switch! {
    /// Deliberate bugs in [`QueueCosts`] that the identity sweep must catch;
    /// only a test build can switch one on.
    enum Mutation {
        /// A stalled launch's first block is read without the stall penalty.
        StallDropped,
        /// A fused launch's later phases are read at the first phase's slots.
        FirstPhaseSlots,
        /// The chunk of a block is found with another node's chunk size.
        OtherChunkSize,
    }
}

/// Per-device fault-injection state: the plan plus the monotone attempt
/// counter the draws are keyed on.
struct FaultState {
    plan: FaultPlan,
    /// Incremented on every launch attempt (including rejected ones), so
    /// a retry of a failed launch draws a fresh verdict.
    attempts: u64,
    stats: FaultStats,
}

impl Gpu {
    /// Create a device with the default cost model, running as
    /// [`ExecMode::device`]`(&spec)` (`mode` goes with ROADMAP item 2).
    pub fn new(spec: DeviceSpec, mode: ExecMode) -> Self {
        let constants = ConstBank::new(spec.const_mem_bytes);
        Self {
            spec: mode.device(&spec),
            cost: CostModel::default(),
            mem: DeviceMemory::new(),
            constants,
            textures: Vec::new(),
            host_threads: None,
            next_stream: 1,
            pending: Vec::new(),
            first_deferred: 0,
            launch_counter: 0,
            tracker: DepTracker::new(),
            #[cfg(any(test, feature = "testkit"))]
            cross_stream_deps: 0,
            pool: WorkerPool::new(),
            host_epoch: Instant::now(),
            sched_scratch: SchedScratch::default(),
            profiler: Profiler::new(),
            fault: None,
        }
    }

    /// Attach (or detach, with `None`) a fault-injection plan. Launch and
    /// stall faults are drawn by this device; copy-corruption faults are
    /// wired into [`Gpu::mem`]. Attaching a plan resets [`Gpu::fault_stats`].
    /// An [inert](FaultPlan::is_inert) plan leaves every result
    /// bit-identical to a device without one.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.flush_functional();
        match &plan {
            Some(p) if p.copy_corruption_rate > 0.0 => {
                self.mem.set_copy_faults(Some(crate::memory::CopyFaultConfig {
                    seed: p.seed,
                    rate: p.copy_corruption_rate,
                    region_len: p.corrupt_region_len.max(1),
                }))
            }
            _ => self.mem.set_copy_faults(None),
        }
        self.fault =
            plan.map(|plan| FaultState { plan, attempts: 0, stats: FaultStats::default() });
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(|f| &f.plan)
    }

    /// Faults injected by this device since the plan was attached.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Position in the attached plan's deterministic draw sequences
    /// (zero when no plan is attached). Capture this alongside a stream
    /// checkpoint: a fresh device seeked to the same cursor replays the
    /// remaining fault sequence exactly.
    pub fn fault_cursor(&self) -> FaultCursor {
        FaultCursor {
            launch_attempts: self.fault.as_ref().map_or(0, |f| f.attempts),
            copy_draws: self.mem.copy_fault_draws(),
        }
    }

    /// Fast-forward the attached plan's draw counters to `cursor` (a
    /// checkpoint restore). Fault *statistics* restart at zero — they
    /// count injections on this device, not on the stream. No-op when no
    /// plan is attached.
    pub fn seek_fault_cursor(&mut self, cursor: FaultCursor) {
        self.flush_functional();
        if let Some(f) = &mut self.fault {
            f.attempts = cursor.launch_attempts;
        }
        self.mem.seek_copy_fault_draws(cursor.copy_draws);
    }

    /// Device memory currently in use: global-memory arena bytes plus the
    /// staged constant-memory words.
    pub fn device_bytes_in_use(&self) -> usize {
        self.mem.live_bytes() + self.constants.used_words() * 4
    }

    /// Pin the functional phase to `threads` host workers (builder form).
    /// `1` selects the serial reference schedule.
    pub fn with_host_threads(mut self, threads: usize) -> Self {
        self.set_host_threads(Some(threads));
        self
    }

    /// Set or clear the host-thread override for the functional phase.
    /// `None` defers to host parallelism.
    /// Flushes queued launches first so every span in a drain is
    /// attributed to one thread-count regime.
    pub fn set_host_threads(&mut self, threads: Option<usize>) {
        self.flush_functional();
        self.host_threads = threads.map(|n| n.max(1));
    }

    /// Effective host worker threads the next drain will use.
    pub fn host_threads(&self) -> usize {
        resolve_host_threads(self.host_threads)
    }

    /// Create a new stream.
    pub fn create_stream(&mut self) -> StreamId {
        let s = StreamId(self.next_stream);
        self.next_stream += 1;
        s
    }

    /// Stage data into constant memory. Panics on bank overflow; use
    /// [`Gpu::try_const_upload`] for a typed error.
    pub fn const_upload(&mut self, words: &[u32]) -> ConstPtr {
        self.constants.upload(words)
    }

    /// Stage data into constant memory, reporting overflow as a typed
    /// error (user-supplied cascades can exceed the 64 KiB bank).
    pub fn try_const_upload(&mut self, words: &[u32]) -> Result<ConstPtr, MemoryError> {
        self.constants.try_upload(words)
    }

    /// Reset constant memory. Flushes queued launches first: staged
    /// constants are append-only while launches are deferred (appends
    /// cannot disturb earlier [`ConstPtr`]s), but a reset would yank data
    /// out from under them.
    pub fn const_clear(&mut self) {
        self.flush_functional();
        self.constants.clear();
    }

    /// Bind a 2D single-channel texture; returns its handle.
    pub fn bind_texture(&mut self, tex: Texture2D) -> TexId {
        self.textures.push(tex);
        TexId(self.textures.len() - 1)
    }

    /// Replace the texels of a bound texture with a `width x height`
    /// image, keeping its storage ([`Texture2D::refill`]): the per-frame
    /// upload of a texture that stays bound. Flushes queued launches
    /// first, like every host-side mutation of texture state.
    pub fn refill_texture(
        &mut self,
        tex: TexId,
        width: usize,
        height: usize,
        data: &[f32],
    ) -> Result<(), MemoryError> {
        self.flush_functional();
        self.textures[tex.0].refill(width, height, data)
    }

    /// Unbind all textures (handles become invalid). Flushes queued
    /// launches first — binding is append-only (safe under deferral), but
    /// unbinding invalidates handles deferred kernels may still hold.
    pub fn clear_textures(&mut self) {
        self.flush_functional();
        self.textures.clear();
    }

    /// Launch `kernel` with `cfg` into `stream`.
    ///
    /// Validation and fault verdicts happen here, in launch-attempt
    /// order. The functional phase is *deferred*: the launch joins the
    /// dependency graph and executes at the next sync point
    /// ([`Gpu::synchronize`], [`Gpu::flush`], [`Gpu::download`] …), where
    /// the worker pool overlaps block-chunks of independent launches.
    /// The metered work becomes per-block timing costs in linear block
    /// order, and all observable results equal those of running the
    /// launches one by one in issue order (`host_threads = 1`).
    pub fn launch<K: Kernel + 'static>(
        &mut self,
        kernel: K,
        cfg: LaunchConfig,
        stream: StreamId,
    ) -> Result<(), LaunchError> {
        let threads = cfg.threads_per_block();
        // Compute the block count with saturation: `Dim3::count` can wrap
        // for adversarial grids (u32³ exceeds u64), and `Vec::with_capacity`
        // on an absurd count would abort the process rather than error.
        let total_blocks =
            (cfg.grid.x as u64).saturating_mul(cfg.grid.y as u64).saturating_mul(cfg.grid.z as u64);
        if threads == 0 || total_blocks == 0 {
            return Err(LaunchError::EmptyLaunch);
        }
        if total_blocks > MAX_FUNCTIONAL_BLOCKS {
            return Err(LaunchError::GridTooLarge {
                requested: total_blocks,
                limit: MAX_FUNCTIONAL_BLOCKS,
            });
        }
        if threads > self.spec.max_threads_per_block {
            return Err(LaunchError::TooManyThreads {
                requested: threads,
                limit: self.spec.max_threads_per_block,
            });
        }
        if cfg.shared_mem_bytes > self.spec.max_shared_mem_per_block {
            return Err(LaunchError::SharedMemExceeded {
                requested: cfg.shared_mem_bytes,
                limit: self.spec.max_shared_mem_per_block,
            });
        }
        let warps_per_block = cfg.warps_per_block(self.spec.warp_size);
        // Clamp the declaration like `-maxrregcount` would: above-cap
        // usage spills rather than failing the launch.
        let registers_per_thread =
            kernel.registers_per_thread().min(self.spec.max_registers_per_thread);
        let occupancy = crate::sched::launch_occupancy(
            &self.spec,
            threads,
            warps_per_block,
            cfg.shared_mem_bytes,
            registers_per_thread,
        );
        if self.spec.sm_count == 0 || occupancy.blocks_per_sm == 0 {
            return Err(LaunchError::BlockDoesNotFit { kernel: kernel.name() });
        }

        // Fault injection: each attempt draws an independent verdict per
        // fault domain, keyed on the monotone attempt counter (so a retry
        // of a rejected launch draws afresh). A zero rate never draws a
        // positive verdict, keeping inert plans bit-identical to none.
        let mut stall_cycles = 0.0f64;
        if let Some(f) = &mut self.fault {
            let attempt = f.attempts;
            f.attempts += 1;
            f.stats.launch_attempts += 1;
            let p = &f.plan;
            // Attribute an injected fault to one part of a batched launch:
            // a sub-draw in its own domain, keyed on the same attempt
            // counter, made only when a fault actually fires — so it never
            // shifts the other domains' sequences and an inert plan never
            // draws it at all.
            let batch_slot = |seed: u64| {
                let parts = kernel.batch_parts();
                (parts > 1).then(|| {
                    (crate::fault::fault_bits(seed, FaultDomain::BatchAttribution, attempt)
                        % parts as u64) as usize
                })
            };
            if p.launch_timeout_rate > 0.0
                && fault_draw(p.seed, FaultDomain::LaunchTimeout, attempt) < p.launch_timeout_rate
            {
                f.stats.launch_timeouts += 1;
                return Err(LaunchError::InjectedTimeout {
                    kernel: kernel.name(),
                    batch_slot: batch_slot(p.seed),
                });
            }
            if p.transient_launch_rate > 0.0
                && fault_draw(p.seed, FaultDomain::LaunchTransient, attempt)
                    < p.transient_launch_rate
            {
                f.stats.transient_launch_failures += 1;
                return Err(LaunchError::InjectedTransient {
                    kernel: kernel.name(),
                    batch_slot: batch_slot(p.seed),
                });
            }
            if p.stall_rate > 0.0
                && fault_draw(p.seed, FaultDomain::StreamStall, attempt) < p.stall_rate
            {
                f.stats.stream_stalls += 1;
                stall_cycles = p.stall_cycles(self.spec.clock_ghz);
            }
        }

        let mut access = AccessSet::new();
        kernel.access(&mut access);
        let deps = self.tracker.on_enqueue(stream, &access);
        #[cfg(any(test, feature = "testkit"))]
        {
            let other = deps.iter().filter(|&&d| self.pending[d].record.stream != stream);
            self.cross_stream_deps += other.count() as u64;
        }
        let record = LaunchRecord {
            launch_idx: self.launch_counter,
            kernel_name: kernel.name(),
            stream,
            shared_mem_bytes: cfg.shared_mem_bytes,
            threads_per_block: threads,
            warps_per_block,
            registers_per_thread,
            block_costs: Vec::new(),
            counters: KernelCounters::default(),
        };

        self.pending.push(PendingLaunch {
            record,
            kernel: Some(Box::new(kernel)),
            cfg,
            total_blocks,
            stall_cycles,
            deps,
        });
        self.mem.set_deferred_launches((self.pending.len() - self.first_deferred) as u32);
        self.launch_counter += 1;
        Ok(())
    }

    /// Execute the functional phase of every deferred launch (the
    /// dependency-graph drain). Called by every sync point; a no-op when
    /// nothing is deferred.
    fn flush_functional(&mut self) {
        let base = self.first_deferred;
        if base == self.pending.len() {
            return;
        }
        let threads = resolve_host_threads(self.host_threads);
        let env = LaunchEnv {
            mem: &self.mem,
            constants: &self.constants,
            textures: &self.textures,
            cost: &self.cost,
            warp_size: self.spec.warp_size,
        };
        let (nodes, node_span) = drain_graph(&self.pending, base);
        let (results, spans) = self.pool.drain(&env, &nodes, threads, self.host_epoch);
        drop(nodes);
        let mut results = results.into_iter();
        for (p, &(first, last)) in self.pending[base..].iter_mut().zip(&node_span) {
            let mut block_costs = Vec::with_capacity(p.total_blocks as usize);
            let mut totals = KernelCounters::default();
            for r in results.by_ref().take(last - first + 1) {
                block_costs.extend(r.block_costs);
                totals.add(&r.totals);
            }
            if p.stall_cycles > 0.0 {
                // The stall penalty: see `QueueCosts::seek`.
                block_costs[0].issue_cycles += p.stall_cycles;
            }
            p.record.block_costs = block_costs;
            p.record.counters = totals;
            p.kernel = None;
        }
        self.first_deferred = self.pending.len();
        self.mem.set_deferred_launches(0);
        self.profiler.absorb_host_spans(spans);
    }

    /// Force the functional phase of every queued launch without running
    /// the timing simulation: after `flush`, host-side reads of device
    /// memory observe all queued writes, while the launch records still
    /// await [`Gpu::synchronize`] for their timeline.
    pub fn flush(&mut self) {
        self.flush_functional();
    }

    /// Flush queued launches, then copy a buffer out (the safe way to
    /// read results mid-scope; [`DeviceMemory::download`] on [`Gpu::mem`]
    /// panics while launches are deferred).
    pub fn download<T: DeviceScalar>(&mut self, buf: DevBuf<T>) -> Vec<T> {
        self.flush_functional();
        self.mem.download(buf)
    }

    /// Launch N homogeneous kernels as **one** device launch (see
    /// [`crate::batch`]): the parts share `part_cfg`'s geometry and the
    /// batch dimension is stacked on `grid.z`. One launch overhead is
    /// paid for the whole batch and the scheduler sees a single large
    /// grid, so small per-request kernels fill the device instead of
    /// serializing behind each other in a stream.
    ///
    /// A batch of one is bit-identical to [`Gpu::launch`] of the single
    /// part — results, counters and timeline (asserted by tests). The
    /// parts must be mutually independent (disjoint output buffers), as
    /// concurrent blocks of one launch always must.
    pub fn launch_batched<K: Kernel + 'static>(
        &mut self,
        parts: Vec<K>,
        part_cfg: LaunchConfig,
        stream: StreamId,
    ) -> Result<(), LaunchError> {
        if parts.is_empty() {
            return Err(LaunchError::EmptyLaunch);
        }
        if part_cfg.grid.z != 1 {
            return Err(LaunchError::BatchedGridDepth { z: part_cfg.grid.z });
        }
        let batched = crate::batch::BatchedKernel::new(parts, part_cfg);
        let cfg = batched.stacked_config(part_cfg);
        self.launch(batched, cfg, stream)
    }

    /// Validate a fused chain and launch it as **one** kernel (see
    /// [`crate::fuse`]): one launch overhead for the whole chain, and
    /// traffic on intermediates consumed inside the chain is credited to
    /// on-chip rates. Legality failures surface as
    /// [`LaunchError::FusionRejected`]; callers typically fall back to
    /// launching the stages separately.
    pub fn launch_fused(
        &mut self,
        chain: crate::fuse::FusedChain,
        stream: StreamId,
    ) -> Result<(), LaunchError> {
        let fused = chain.validate().map_err(LaunchError::FusionRejected)?;
        let cfg = fused.config();
        self.launch(fused, cfg, stream)
    }

    /// Launch into the default stream.
    pub fn launch_default<K: Kernel + 'static>(
        &mut self,
        kernel: K,
        cfg: LaunchConfig,
    ) -> Result<(), LaunchError> {
        self.launch(kernel, cfg, StreamId::DEFAULT)
    }

    /// How many dependencies of the host drain's graph, over this device's
    /// lifetime, linked a launch to one in another stream. The timing
    /// model orders launches by stream alone, so each such dependency is
    /// an ordering a concurrent timeline does not model; a pipeline
    /// whose timeline is to be trusted keeps this at zero.
    #[cfg(any(test, feature = "testkit"))]
    pub fn cross_stream_deps(&self) -> u64 {
        self.cross_stream_deps
    }

    /// Number of launches queued since the last synchronize.
    pub fn pending_launches(&self) -> usize {
        self.pending.len()
    }

    /// Discard all queued launches without simulating them (the recovery
    /// path after a failed launch mid-frame: the frame is abandoned or
    /// retried from scratch, so its partial queue must not leak into the
    /// next synchronization scope or the profiler).
    /// Functional memory effects of already-queued launches remain, as on
    /// a real device (deferred launches are flushed first to honor this);
    /// callers that retry must fully overwrite outputs.
    pub fn cancel_pending(&mut self) {
        self.flush_functional();
        self.pending.clear();
        self.first_deferred = 0;
        self.tracker.reset();
    }

    /// Run the timing simulation over all queued launches, feed the
    /// profiler, clear the queue and return the timeline. The timeline's
    /// origin (t = 0) is this synchronization scope's start.
    ///
    /// With two or more host threads the simulation runs on this thread
    /// *while* the pool drains the deferred launches and pulls the drain
    /// along (see `QueueCosts`); with one it follows the drain. The
    /// simulation performs the same operations on the same numbers in the
    /// same order either way — only when on the host clock differs.
    pub fn synchronize(&mut self) -> Timeline {
        let threads = resolve_host_threads(self.host_threads);
        let base = self.first_deferred;
        let overlapped = if threads > 1 && base < self.pending.len() {
            let env = LaunchEnv {
                mem: &self.mem,
                constants: &self.constants,
                textures: &self.textures,
                cost: &self.cost,
                warp_size: self.spec.warp_size,
            };
            let (nodes, node_span) = drain_graph(&self.pending, base);
            self.pool.drain_pulling(&env, &nodes, threads, self.host_epoch, |drain| {
                let pulled = Some((drain, &node_span[..]));
                QueueCosts::new(&self.pending, base, pulled, self.host_epoch).simulate(
                    &mut self.sched_scratch,
                    &self.spec,
                    &self.cost,
                )
            })
        } else {
            None
        };
        let (timeline, simulated) =
            match overlapped {
                Some((simulation, spans)) => {
                    self.mem.set_deferred_launches(0);
                    self.profiler.absorb_host_spans(spans);
                    simulation
                }
                None => {
                    // The in-issue-order reference: drain, then simulate over
                    // the records.
                    self.flush_functional();
                    QueueCosts::new(&self.pending, self.pending.len(), None, self.host_epoch)
                        .simulate(&mut self.sched_scratch, &self.spec, &self.cost)
                }
            };
        for (t0, t1) in simulated {
            self.profiler.absorb_timing_span(t0, t1);
        }
        self.pending.clear();
        self.first_deferred = 0;
        // Harvest the opaque-launch count before the tracker forgets it:
        // undeclared access sets silently forbid both overlap and fusion,
        // so the profiler surfaces how many launches fell back to a full
        // barrier in this scope.
        self.profiler.add_opaque_launches(self.tracker.take_opaque_launches());
        self.tracker.reset();
        self.profiler.absorb(&timeline.events);
        timeline
    }

    /// Accumulated profiling data across all synchronization scopes.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Clear profiling data.
    pub fn reset_profiler(&mut self) {
        self.profiler.reset();
    }
}

#[cfg(test)]
mod sweep;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::LaunchCtx;
    use crate::memory::DevBuf;
    use std::ops::Range;

    /// Doubles every element; meters one load+store and one ALU op per warp.
    #[derive(Clone, Copy)]
    struct DoubleKernel {
        buf: DevBuf<u32>,
    }

    impl Kernel for DoubleKernel {
        fn name(&self) -> &'static str {
            "double"
        }
        fn run_blocks(
            &self,
            ctx: &LaunchCtx<'_>,
            blocks: Range<u64>,
            sink: &mut dyn FnMut(&KernelCounters),
        ) {
            ctx.each_block(blocks, sink, |ctx| {
                let tpb = ctx.block_dim.count() as usize;
                let base = ctx.block_idx.x as usize * tpb;
                let mut data = ctx.mem.write(self.buf);
                let end = (base + tpb).min(data.len());
                for v in &mut data[base..end] {
                    *v *= 2;
                }
                ctx.meter.alu(ctx.warps_in_block());
                ctx.meter.global_load(((end - base) * 4) as u64);
                ctx.meter.global_store(((end - base) * 4) as u64);
            });
        }
        fn access(&self, set: &mut AccessSet) {
            // Read-modify-write: both sides declared, so consecutive
            // launches on the same buffer chain RAW/WAR/WAW edges.
            set.reads(self.buf).writes(self.buf);
        }
    }

    #[test]
    fn launch_executes_functionally_and_times() {
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let buf = gpu.mem.upload(&(0u32..1024).collect::<Vec<_>>());
        gpu.launch_default(DoubleKernel { buf }, LaunchConfig::linear(1024, 256)).unwrap();
        let t = gpu.synchronize();
        assert_eq!(gpu.mem.read(buf)[10], 20);
        assert_eq!(t.events.len(), 1);
        assert!(t.span_us() > 0.0);
        assert_eq!(t.events[0].blocks, 4);
    }

    #[test]
    fn launch_validation_rejects_bad_configs() {
        let mut gpu = Gpu::new(DeviceSpec::gtx470().profiler_serialized(), ExecMode::Concurrent);
        let buf = gpu.mem.alloc::<u32>(16);
        let k = DoubleKernel { buf };
        assert!(matches!(
            gpu.launch_default(k, LaunchConfig::new(1u32, 2048u32)),
            Err(LaunchError::TooManyThreads { .. })
        ));
        assert!(matches!(
            gpu.launch_default(k, LaunchConfig::new(1u32, 32u32).with_shared_mem(1 << 20)),
            Err(LaunchError::SharedMemExceeded { .. })
        ));
        assert!(matches!(
            gpu.launch_default(k, LaunchConfig::new(0u32, 32u32)),
            Err(LaunchError::EmptyLaunch)
        ));
    }

    #[test]
    fn launch_validation_rejects_blocks_no_sm_can_hold() {
        let zeroed: [fn(&mut DeviceSpec); 4] = [
            |d| d.sm_count = 0,
            |d| d.max_blocks_per_sm = 0,
            |d| d.max_warps_per_sm = 0,
            |d| d.registers_per_sm = 0,
        ];
        for zero in zeroed {
            let mut spec = DeviceSpec::gtx470();
            zero(&mut spec);
            let mut gpu = Gpu::new(spec, ExecMode::Concurrent);
            let k = DoubleKernel { buf: gpu.mem.alloc::<u32>(16) };
            let err = gpu.launch_default(k, LaunchConfig::new(1u32, 32u32)).unwrap_err();
            assert_eq!(err, LaunchError::BlockDoesNotFit { kernel: k.name() });
            assert!(!err.is_transient());
            assert_eq!(gpu.synchronize().events.len(), 0, "a refused launch is never queued");
        }
    }

    #[test]
    fn functional_results_identical_across_modes() {
        let run = |spec| {
            let mut gpu = Gpu::new(spec, ExecMode::Concurrent);
            let buf = gpu.mem.upload(&(0u32..4096).collect::<Vec<_>>());
            let s1 = gpu.create_stream();
            let s2 = gpu.create_stream();
            gpu.launch(DoubleKernel { buf }, LaunchConfig::linear(4096, 256), s1).unwrap();
            gpu.launch(DoubleKernel { buf }, LaunchConfig::linear(4096, 256), s2).unwrap();
            gpu.synchronize();
            gpu.mem.download(buf)
        };
        assert_eq!(run(DeviceSpec::gtx470().profiler_serialized()), run(DeviceSpec::gtx470()));
    }

    #[test]
    fn profiler_accumulates_across_scopes() {
        let mut gpu = Gpu::new(DeviceSpec::gtx470().profiler_serialized(), ExecMode::Concurrent);
        let buf = gpu.mem.alloc::<u32>(256);
        gpu.launch_default(DoubleKernel { buf }, LaunchConfig::linear(256, 128)).unwrap();
        gpu.synchronize();
        gpu.launch_default(DoubleKernel { buf }, LaunchConfig::linear(256, 128)).unwrap();
        gpu.synchronize();
        assert_eq!(gpu.profiler().kernels()["double"].launches, 2);
        assert_eq!(gpu.profiler().traces().len(), 2);
    }

    fn launch_until_verdict(gpu: &mut Gpu, buf: DevBuf<u32>) -> Result<(), LaunchError> {
        gpu.launch_default(DoubleKernel { buf }, LaunchConfig::linear(256, 128))
    }

    #[test]
    fn inert_fault_plan_is_bit_identical_to_none() {
        let run = |plan: Option<FaultPlan>| {
            let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
            gpu.set_fault_plan(plan);
            let buf = gpu.mem.upload(&(0u32..4096).collect::<Vec<_>>());
            let s = gpu.create_stream();
            gpu.launch(DoubleKernel { buf }, LaunchConfig::linear(4096, 256), s).unwrap();
            let t = gpu.synchronize();
            (
                gpu.mem.download(buf),
                t.span_us().to_bits(),
                gpu.profiler().kernels()["double"].clone(),
            )
        };
        let a = run(None);
        let b = run(Some(FaultPlan::seeded(99)));
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1, "timeline must be bit-identical under an inert plan");
        assert_eq!(format!("{:?}", a.2), format!("{:?}", b.2));
    }

    #[test]
    fn injected_launch_failures_are_deterministic_and_typed() {
        let collect = || {
            let mut gpu =
                Gpu::new(DeviceSpec::gtx470().profiler_serialized(), ExecMode::Concurrent);
            gpu.set_fault_plan(Some(
                FaultPlan::seeded(7).with_transient_launch_failures(0.2).with_launch_timeouts(0.05),
            ));
            let buf = gpu.mem.alloc::<u32>(256);
            let verdicts: Vec<_> = (0..100)
                .map(|_| match launch_until_verdict(&mut gpu, buf) {
                    Ok(()) => 0u8,
                    Err(LaunchError::InjectedTransient { kernel, batch_slot }) => {
                        assert_eq!(kernel, "double");
                        assert_eq!(batch_slot, None, "plain launches carry no slot");
                        1
                    }
                    Err(LaunchError::InjectedTimeout { kernel, batch_slot }) => {
                        assert_eq!(kernel, "double");
                        assert_eq!(batch_slot, None, "plain launches carry no slot");
                        2
                    }
                    Err(e) => panic!("unexpected error {e}"),
                })
                .collect();
            (verdicts, gpu.fault_stats())
        };
        let (va, sa) = collect();
        let (vb, sb) = collect();
        assert_eq!(va, vb, "fault sequence must be reproducible");
        assert_eq!(sa, sb);
        assert!(sa.transient_launch_failures > 0, "20% over 100 attempts must fire");
        assert!(sa.launch_timeouts > 0);
        assert_eq!(sa.launch_attempts, 100);
        assert!(LaunchError::InjectedTransient { kernel: "k", batch_slot: None }.is_transient());
        assert!(!LaunchError::InjectedTimeout { kernel: "k", batch_slot: None }.is_transient());
    }

    #[test]
    fn batched_launch_faults_attribute_a_slot() {
        // A faulted batched launch must name one in-range part; the
        // attribution must be reproducible across identical runs.
        let collect = || {
            let mut gpu =
                Gpu::new(DeviceSpec::gtx470().profiler_serialized(), ExecMode::Concurrent);
            gpu.set_fault_plan(Some(FaultPlan::seeded(11).with_transient_launch_failures(0.3)));
            let parts = 6usize;
            let bufs: Vec<_> = (0..parts).map(|_| gpu.mem.alloc::<u32>(128)).collect();
            let mut slots = Vec::new();
            for _ in 0..60 {
                let kernels: Vec<_> = bufs.iter().map(|&buf| DoubleKernel { buf }).collect();
                let s = gpu.create_stream();
                match gpu.launch_batched(kernels, LaunchConfig::linear(128, 64), s) {
                    Ok(()) => slots.push(None),
                    Err(e) => {
                        let slot = e.batch_slot().expect("batched fault must carry a slot");
                        assert!(slot < parts, "slot {slot} out of range");
                        slots.push(Some(slot));
                    }
                }
                gpu.synchronize();
            }
            slots
        };
        let a = collect();
        assert_eq!(a, collect(), "slot attribution must be deterministic");
        let faulted: Vec<_> = a.iter().filter_map(|s| *s).collect();
        assert!(faulted.len() > 5, "30% over 60 attempts must fire");
        assert!(
            faulted.iter().collect::<std::collections::HashSet<_>>().len() > 1,
            "attribution must spread across slots, got {faulted:?}"
        );
    }

    #[test]
    fn stream_stall_stretches_the_timeline_not_the_results() {
        let run = |stall_rate| {
            let mut gpu =
                Gpu::new(DeviceSpec::gtx470().profiler_serialized(), ExecMode::Concurrent);
            gpu.set_fault_plan(Some(FaultPlan::seeded(3).with_stream_stalls(stall_rate, 2000.0)));
            let buf = gpu.mem.upload(&(0u32..1024).collect::<Vec<_>>());
            gpu.launch_default(DoubleKernel { buf }, LaunchConfig::linear(1024, 256)).unwrap();
            let t = gpu.synchronize();
            (gpu.mem.download(buf), t.span_us(), gpu.fault_stats().stream_stalls)
        };
        let (data_clean, span_clean, stalls_clean) = run(0.0);
        let (data_stalled, span_stalled, stalls) = run(1.0);
        assert_eq!(stalls_clean, 0);
        assert_eq!(stalls, 1);
        assert_eq!(data_clean, data_stalled, "stalls are timing-only");
        assert!(
            span_stalled > span_clean + 1500.0,
            "a 2000us stall must dominate: {span_stalled} vs {span_clean}"
        );
    }

    #[test]
    fn cancel_pending_discards_the_queue() {
        let mut gpu = Gpu::new(DeviceSpec::gtx470().profiler_serialized(), ExecMode::Concurrent);
        let buf = gpu.mem.alloc::<u32>(64);
        gpu.launch_default(DoubleKernel { buf }, LaunchConfig::linear(64, 64)).unwrap();
        assert_eq!(gpu.pending_launches(), 1);
        gpu.cancel_pending();
        assert_eq!(gpu.pending_launches(), 0);
        let t = gpu.synchronize();
        assert!(t.events.is_empty(), "cancelled launches must not be simulated");
        assert!(gpu.profiler().kernels().is_empty(), "or profiled");
    }

    #[test]
    fn copy_corruption_fires_and_drains() {
        let mut gpu = Gpu::new(DeviceSpec::gtx470().profiler_serialized(), ExecMode::Concurrent);
        gpu.set_fault_plan(Some(FaultPlan::seeded(11).with_copy_corruption(1.0)));
        let buf = gpu.mem.upload(&vec![7u32; 512]);
        let out = gpu.mem.download(buf);
        let zeroed = out.iter().filter(|&&v| v == 0).count();
        assert!(zeroed > 0 && zeroed <= 64, "poisoned region zeroed: {zeroed}");
        let faults = gpu.mem.drain_copy_faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].buf_id, buf.raw_id());
        assert_eq!(faults[0].len, zeroed);
        assert!(gpu.mem.drain_copy_faults().is_empty(), "drain empties the log");
        // The device copy itself is intact on download corruption.
        gpu.set_fault_plan(None);
        assert!(gpu.mem.download(buf).iter().all(|&v| v == 7));
    }

    #[test]
    fn pending_clears_on_sync() {
        let mut gpu = Gpu::new(DeviceSpec::gtx470().profiler_serialized(), ExecMode::Concurrent);
        let buf = gpu.mem.alloc::<u32>(64);
        gpu.launch_default(DoubleKernel { buf }, LaunchConfig::linear(64, 64)).unwrap();
        assert_eq!(gpu.pending_launches(), 1);
        gpu.synchronize();
        assert_eq!(gpu.pending_launches(), 0);
    }

    #[test]
    #[should_panic(expected = "deferred")]
    fn host_read_while_deferred_panics() {
        let mut gpu = Gpu::new(DeviceSpec::gtx470().profiler_serialized(), ExecMode::Concurrent);
        let buf = gpu.mem.upload(&vec![1u32; 64]);
        gpu.launch_default(DoubleKernel { buf }, LaunchConfig::linear(64, 64)).unwrap();
        // The launch has not run yet; reading now would observe stale data.
        let _ = gpu.mem.read(buf);
    }

    #[test]
    fn flush_runs_functional_phase_without_timing() {
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let buf = gpu.mem.upload(&(0u32..256).collect::<Vec<_>>());
        gpu.launch_default(DoubleKernel { buf }, LaunchConfig::linear(256, 128)).unwrap();
        gpu.flush();
        // Memory effects land at flush; the launch still awaits its timeline.
        assert_eq!(gpu.mem.read(buf)[3], 6);
        assert_eq!(gpu.pending_launches(), 1);
        let t = gpu.synchronize();
        assert_eq!(t.events.len(), 1);
        assert!(t.span_us() > 0.0);
    }

    #[test]
    fn gpu_download_flushes_implicitly() {
        let mut gpu = Gpu::new(DeviceSpec::gtx470().profiler_serialized(), ExecMode::Concurrent);
        let buf = gpu.mem.upload(&vec![21u32; 128]);
        gpu.launch_default(DoubleKernel { buf }, LaunchConfig::linear(128, 64)).unwrap();
        assert!(gpu.download(buf).iter().all(|&v| v == 42));
    }

    /// `host_threads = 1` is the in-order oracle: every launch runs on the
    /// host thread in issue order, and any other thread count reproduces
    /// its memory, timeline and trace bit for bit.
    #[test]
    fn one_host_thread_is_the_in_order_reference_schedule() {
        let n = 16 * 1024usize; // 3 launches x 64 blocks x 256 threads: above the serial cut-off
        let run = |threads| {
            let mut gpu =
                Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent).with_host_threads(threads);
            let a = gpu.mem.upload(&(0..n as u32).collect::<Vec<_>>());
            let b = gpu.mem.upload(&(0..n as u32).rev().collect::<Vec<_>>());
            let s1 = gpu.create_stream();
            let s2 = gpu.create_stream();
            gpu.launch(DoubleKernel { buf: a }, LaunchConfig::linear(n, 256), s1).unwrap();
            gpu.launch(DoubleKernel { buf: b }, LaunchConfig::linear(n, 256), s2).unwrap();
            gpu.launch(DoubleKernel { buf: a }, LaunchConfig::linear(n, 256), s1).unwrap();
            let t = gpu.synchronize();
            let trace: Vec<_> = gpu
                .profiler()
                .traces()
                .iter()
                .map(|e| (e.kernel_name, e.blocks, e.t_start_us.to_bits(), e.t_end_us.to_bits()))
                .collect();
            let spans: Vec<_> =
                gpu.profiler().host_spans().iter().map(|s| (s.worker, s.launch_idx)).collect();
            (gpu.mem.download(a), gpu.mem.download(b), t.span_us().to_bits(), trace, spans)
        };
        let reference = run(1);
        assert_eq!(reference.4, [(0, 0), (0, 1), (0, 2)], "worker 0, ascending launch_idx");
        for threads in [2, 4] {
            let r = run(threads);
            assert_eq!(
                (&r.0, &r.1, r.2, &r.3),
                (&reference.0, &reference.1, reference.2, &reference.3),
                "{threads} threads"
            );
        }
    }

    /// Doubles `buf` like [`DoubleKernel`] but burns extra host time per
    /// block, so drains are long enough for wall-clock spans to overlap.
    #[derive(Clone, Copy)]
    struct SlowDoubleKernel {
        buf: DevBuf<u32>,
    }

    impl Kernel for SlowDoubleKernel {
        fn name(&self) -> &'static str {
            "slow_double"
        }
        fn run_blocks(
            &self,
            ctx: &LaunchCtx<'_>,
            blocks: Range<u64>,
            sink: &mut dyn FnMut(&KernelCounters),
        ) {
            ctx.each_block(blocks, sink, |ctx| {
                let tpb = ctx.block_dim.count() as usize;
                let base = ctx.block_idx.x as usize * tpb;
                let mut data = ctx.mem.write(self.buf);
                let end = (base + tpb).min(data.len());
                // Block-seeded LCG kept alive by black_box: real host time per
                // block, so one drain spans several scheduler quanta and the
                // workers genuinely interleave even on a single core.
                let mut burn = ctx.block_idx.x.wrapping_add(1);
                for _ in 0..200_000 {
                    burn = burn.wrapping_mul(1664525).wrapping_add(1013904223);
                }
                std::hint::black_box(burn);
                for v in &mut data[base..end] {
                    *v = v.wrapping_mul(2);
                }
                ctx.meter.alu(ctx.warps_in_block());
            });
        }
        fn access(&self, set: &mut AccessSet) {
            set.reads(self.buf).writes(self.buf);
        }
    }

    #[test]
    fn independent_streams_overlap_on_the_host_lane() {
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent).with_host_threads(2);
        let n = 32 * 1024usize;
        let a = gpu.mem.upload(&vec![1u32; n]);
        let b = gpu.mem.upload(&vec![3u32; n]);
        let s1 = gpu.create_stream();
        let s2 = gpu.create_stream();
        let cfg = LaunchConfig::linear(n, 128);
        gpu.launch(SlowDoubleKernel { buf: a }, cfg, s1).unwrap();
        gpu.launch(SlowDoubleKernel { buf: b }, cfg, s2).unwrap();
        gpu.synchronize();
        assert!(gpu.mem.read(a).iter().all(|&v| v == 2));
        assert!(gpu.mem.read(b).iter().all(|&v| v == 6));

        let spans = gpu.profiler().host_spans();
        let workers: std::collections::HashSet<usize> = spans.iter().map(|s| s.worker).collect();
        assert!(workers.len() >= 2, "both workers must participate: {spans:?}");
        let launches: std::collections::HashSet<u64> = spans.iter().map(|s| s.launch_idx).collect();
        assert_eq!(launches.len(), 2, "both launches must appear: {spans:?}");
        let overlapping = spans
            .iter()
            .any(|x| spans.iter().any(|y| x.launch_idx != y.launch_idx && x.overlaps(y)));
        assert!(overlapping, "independent launches must overlap across workers: {spans:?}");
    }

    /// The host lane of the chrome trace (`pid 1, tid 0`) as `(name, start,
    /// end)` intervals, cut out of the rendered text.
    fn host_lane(trace: &str) -> Vec<(String, f64, f64)> {
        let field = |line: &str, key: &str| -> String {
            let rest = &line[line.find(key).expect(key) + key.len()..];
            rest[..rest.find([',', '}', '"']).expect("a field ends")].to_string()
        };
        trace
            .lines()
            .filter(|l| l.contains("\"pid\":1,\"tid\":0"))
            .map(|l| {
                let ts: f64 = field(l, "\"ts\":").parse().unwrap();
                let dur: f64 = field(l, "\"dur\":").parse().unwrap();
                (field(l, "\"name\":\""), ts, ts + dur)
            })
            .collect()
    }

    /// At two host threads the application thread alternates between
    /// simulating and running bodies: its lane shows one `sched.simulate`
    /// slice per stretch of simulating, none of them over a body span, and
    /// `timing_host_us` is their sum — simulator time, bodies excluded.
    #[test]
    fn simulate_slices_and_host_bodies_never_overlap_on_the_host_lane() {
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent).with_host_threads(2);
        let n = 32 * 1024usize;
        let cfg = LaunchConfig::linear(n, 128);
        let streams: Vec<_> = (0..4).map(|_| gpu.create_stream()).collect();
        for round in 0..3 {
            for &s in &streams {
                let buf = gpu.mem.upload(&vec![round; n]);
                gpu.launch(SlowDoubleKernel { buf }, cfg, s).unwrap();
            }
        }
        gpu.synchronize();
        let lane = host_lane(&gpu.profiler().render_chrome_trace_with_host());
        let (simulate, bodies): (Vec<_>, Vec<_>) =
            lane.iter().partition(|(name, ..)| name == "sched.simulate");
        assert!(
            simulate.len() >= 2 && !bodies.is_empty(),
            "the host must both simulate and help: {lane:?}"
        );
        // Rendered to the nanosecond: allow one of rounding.
        for (_, s0, s1) in &simulate {
            for (name, b0, b1) in &bodies {
                let apart = *s1 <= b0 + 0.002 || *b1 <= s0 + 0.002;
                assert!(apart, "simulate {s0}..{s1} over {name} {b0}..{b1}");
            }
        }
        let rendered: f64 = simulate.iter().map(|(_, s0, s1)| s1 - s0).sum();
        let timing = gpu.profiler().timing_host_us();
        let rounding = 0.002 * simulate.len() as f64;
        assert!((rendered - timing).abs() < rounding, "{rendered} vs {timing}");
        // The bodies dominate this queue (200 000 multiplies a block): had
        // the slices covered the waits, they would sum to the whole scope.
        let scope = lane.iter().map(|l| l.2).fold(0.0, f64::max)
            - lane.iter().map(|l| l.1).fold(f64::INFINITY, f64::min);
        assert!(timing < 0.5 * scope, "simulating took {timing} of {scope} us");
    }

    /// `dst[i] = src[i] * 3 + 1`; the first block of an armed kernel that
    /// a pool worker runs panics, once. On the application thread a block
    /// waits for that instead, so the panic always arrives from the pool
    /// while the application thread is inside the simulation (or helping
    /// it along).
    #[derive(Clone)]
    struct BoomKernel {
        src: DevBuf<u32>,
        dst: DevBuf<u32>,
        armed: bool,
        blown: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl Kernel for BoomKernel {
        fn name(&self) -> &'static str {
            "boom"
        }
        fn run_blocks(
            &self,
            ctx: &LaunchCtx<'_>,
            blocks: Range<u64>,
            sink: &mut dyn FnMut(&KernelCounters),
        ) {
            ctx.each_block(blocks, sink, |ctx| {
                use std::sync::atomic::Ordering::SeqCst;
                if self.armed && !self.blown.load(SeqCst) {
                    let pooled = std::thread::current()
                        .name()
                        .is_some_and(|n| n.starts_with("fd-sim-worker"));
                    if pooled && !self.blown.swap(true, SeqCst) {
                        panic!("injected failure in launch {}", self.src.raw_id());
                    }
                    let waiting = Instant::now();
                    while !self.blown.load(SeqCst) {
                        assert!(
                            waiting.elapsed().as_secs() < 60,
                            "no pool worker reached the launch"
                        );
                        std::thread::yield_now();
                    }
                }
                let tpb = ctx.block_dim.count() as usize;
                let base = ctx.block_idx.x as usize * tpb;
                let src = ctx.mem.read(self.src);
                let mut dst = ctx.mem.write(self.dst);
                for i in base..base + tpb {
                    dst[i] = src[i].wrapping_mul(3).wrapping_add(1);
                }
                ctx.meter.alu(ctx.warps_in_block() * (1 + ctx.block_idx.x as u64 % 5));
            });
        }
        fn access(&self, set: &mut AccessSet) {
            set.reads(self.src).writes(self.dst);
        }
    }

    /// A body that panics on a pool worker while the application thread
    /// simulates: the panic surfaces from `synchronize` with the body's
    /// payload once every worker has left the job, and the device — queue,
    /// pool, memory — is usable afterwards: disarmed, the same queue gives
    /// the timeline and buffers of a device that never panicked.
    #[test]
    fn worker_panic_during_the_simulation_surfaces_and_the_device_stays_usable() {
        let n = 64 * 1024usize; // 512 blocks of 128 threads: four chunks at two threads
        let cfg = LaunchConfig::linear(n, 128);
        // Three streams of three launches, stream after stream.
        let build = |threads: usize, armed: Option<usize>| {
            let mut gpu =
                Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent).with_host_threads(threads);
            let blown = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let mut outs = Vec::new();
            let mut kernels = Vec::new();
            for _ in 0..3 {
                let s = gpu.create_stream();
                let mut src = gpu.mem.upload(&(0..n as u32).collect::<Vec<_>>());
                for _ in 0..3 {
                    let dst = gpu.mem.alloc::<u32>(n);
                    kernels.push((BoomKernel { src, dst, armed: false, blown: blown.clone() }, s));
                    src = dst;
                }
                outs.push(src);
            }
            for (i, (mut k, s)) in kernels.into_iter().enumerate() {
                k.armed = armed == Some(i);
                gpu.launch(k, cfg, s).unwrap();
            }
            (gpu, outs, blown)
        };
        let observe = |gpu: &mut Gpu, outs: &[DevBuf<u32>]| {
            let timeline = gpu.synchronize();
            let buffers: Vec<_> = outs.iter().map(|&b| gpu.mem.download(b)).collect();
            (crate::probe::timeline_bits(&timeline), buffers)
        };
        let (mut clean, outs, _) = build(1, None);
        let reference = observe(&mut clean, &outs);
        for threads in [2, 4] {
            for armed in [0, 4, 8] {
                let (mut gpu, outs, blown) = build(threads, Some(armed));
                let caught =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| gpu.synchronize()));
                let payload = caught.expect_err("the body's panic must surface");
                let message = payload.downcast_ref::<String>().expect("the body's own payload");
                assert!(message.starts_with("injected failure in launch"), "{message}");
                assert_eq!(gpu.pending_launches(), 9, "the scope did not end");
                assert!(blown.load(std::sync::atomic::Ordering::SeqCst));
                let again = observe(&mut gpu, &outs);
                assert!(again == reference, "{threads} threads, launch {armed} armed");
                // And the next scope is a scope like any other.
                gpu.launch(DoubleKernel { buf: outs[0] }, cfg, StreamId::DEFAULT).unwrap();
                assert_eq!(gpu.synchronize().events.len(), 1);
            }
        }
    }

    /// `dst[i] = src[i] * k + add`, one block per 256 elements; meters its
    /// traffic through the buffer-tagged helpers so fusion crediting
    /// applies when the buffers are fusion-local.
    #[derive(Clone, Copy)]
    struct AffineKernel {
        src: DevBuf<u32>,
        dst: DevBuf<u32>,
        n: usize,
        k: u32,
        add: u32,
        name: &'static str,
    }

    impl Kernel for AffineKernel {
        fn name(&self) -> &'static str {
            self.name
        }
        fn run_blocks(
            &self,
            ctx: &LaunchCtx<'_>,
            blocks: Range<u64>,
            sink: &mut dyn FnMut(&KernelCounters),
        ) {
            ctx.each_block(blocks, sink, |ctx| {
                let tpb = ctx.block_dim.count() as usize;
                let base = ctx.block_idx.x as usize * tpb;
                let end = (base + tpb).min(self.n);
                if base >= end {
                    return;
                }
                {
                    let src = ctx.mem.read(self.src);
                    let mut dst = ctx.mem.write(self.dst);
                    for i in base..end {
                        dst[i] = src[i] * self.k + self.add;
                    }
                }
                let bytes = ((end - base) * 4) as u64;
                ctx.meter.alu(2 * ctx.warps_in_block());
                ctx.global_load_buf(self.src, bytes);
                ctx.global_store_buf(self.dst, bytes);
            });
        }
        fn access(&self, set: &mut AccessSet) {
            set.reads(self.src).writes(self.dst);
        }
        fn fusion_traits(&self) -> Option<crate::fuse::FusionTraits> {
            Some(crate::fuse::FusionTraits {
                read_domain: (self.n, 1),
                write_domain: (self.n, 1),
                tile_local: true,
            })
        }
    }

    /// Fused chain vs the same stages launched separately, across host
    /// thread counts: outputs bit-identical, one trace
    /// row instead of three, (k-1) launch overheads and the intermediate
    /// round-trips saved.
    #[test]
    fn fused_chain_matches_separate_launches_and_is_cheaper() {
        let n = 8192usize;
        let cfg = LaunchConfig::linear(n, 256);
        let run = |fused: bool, threads: usize| {
            let mut gpu =
                Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent).with_host_threads(threads);
            let a = gpu.mem.upload(&(0u32..n as u32).collect::<Vec<_>>());
            let b = gpu.mem.alloc::<u32>(n);
            let c = gpu.mem.alloc::<u32>(n);
            let d = gpu.mem.alloc::<u32>(n);
            let s = gpu.create_stream();
            let k1 = AffineKernel { src: a, dst: b, n, k: 3, add: 1, name: "s1" };
            let k2 = AffineKernel { src: b, dst: c, n, k: 2, add: 5, name: "s2" };
            let k3 = AffineKernel { src: c, dst: d, n, k: 1, add: 7, name: "s3" };
            if fused {
                let chain = crate::fuse::FusedChain::new("s1+s2+s3")
                    .then(k1, cfg)
                    .then(k2, cfg)
                    .then(k3, cfg);
                gpu.launch_fused(chain, s).unwrap();
            } else {
                gpu.launch(k1, cfg, s).unwrap();
                gpu.launch(k2, cfg, s).unwrap();
                gpu.launch(k3, cfg, s).unwrap();
            }
            let t = gpu.synchronize();
            let totals: KernelCounters =
                gpu.profiler().kernels().values().fold(KernelCounters::default(), |mut acc, p| {
                    acc.add(&p.counters);
                    acc
                });
            (gpu.mem.download(d), t.span_us(), t.events.len(), totals)
        };

        let baseline = run(false, 1);
        let fused_ref = run(true, 1);
        assert_eq!(baseline.0, fused_ref.0, "fused results must match unfused");
        assert_eq!(baseline.2, 3, "unfused: one trace row per stage");
        assert_eq!(fused_ref.2, 1, "fused: a single launch");

        // Timing: one launch overhead instead of three, and the two
        // intermediates' round-trips credited to on-chip rates.
        let overhead = DeviceSpec::gtx470().launch_overhead_us;
        assert!(
            fused_ref.1 + 1.9 * overhead < baseline.1,
            "fusing 3 stages must save ~2 launch overheads: {} vs {}",
            fused_ref.1,
            baseline.1
        );

        // Counters: the intermediates' store+load traffic moved from the
        // global ledger to the fused ledger; the chain's external read
        // (a) and write (d) stay global.
        let (bc, fc) = (&baseline.3, &fused_ref.3);
        assert_eq!(fc.fused_bytes(), (4 * n * 4) as u64, "b,c round-trips become fused");
        assert_eq!(bc.fused_bytes(), 0);
        assert_eq!(fc.global_bytes_read, (n * 4) as u64);
        assert_eq!(fc.global_bytes_written, (n * 4) as u64);
        assert_eq!(
            bc.global_bytes() - fc.global_bytes(),
            fc.fused_bytes(),
            "credited traffic accounts for every avoided global byte"
        );

        // Thread-count invariance, fused and unfused alike.
        let f = run(true, 4);
        assert_eq!(f.0, fused_ref.0);
        assert_eq!(f.1.to_bits(), fused_ref.1.to_bits());
        let u = run(false, 4);
        assert_eq!(u.0, baseline.0);
        assert_eq!(u.1.to_bits(), baseline.1.to_bits());
    }

    /// A launch after a fused chain that reads the chain's output must
    /// order behind the whole chain (its dependency points at the chain's
    /// *last* phase node).
    #[test]
    fn downstream_of_fused_chain_sees_final_stage_output() {
        let n = 8192usize;
        let cfg = LaunchConfig::linear(n, 256);
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent).with_host_threads(4);
        let a = gpu.mem.upload(&vec![1u32; n]);
        let b = gpu.mem.alloc::<u32>(n);
        let c = gpu.mem.alloc::<u32>(n);
        let s = gpu.create_stream();
        let s2 = gpu.create_stream();
        let chain = crate::fuse::FusedChain::new("mul+add")
            .then(AffineKernel { src: a, dst: b, n, k: 5, add: 0, name: "mul" }, cfg)
            .then(AffineKernel { src: b, dst: c, n, k: 1, add: 2, name: "add" }, cfg);
        gpu.launch_fused(chain, s).unwrap();
        // Different stream: ordered only by the RAW hazard on c.
        gpu.launch(DoubleKernel { buf: c }, LaunchConfig::linear(n, 256), s2).unwrap();
        gpu.synchronize();
        // Input 1, times 5, plus 2, doubled.
        assert!(gpu.mem.read(c).iter().all(|&v| v == (5 + 2) * 2));
    }
}
