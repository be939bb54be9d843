//! How blocks run on the host: the persistent worker pool draining the
//! pending-launch dependency graph.
//!
//! Thread blocks of one launch are independent by construction (barriers
//! only exist *inside* a block), and launches without a path between them
//! in the dependency graph ([`crate::graph`]) are independent too. The
//! pool is spawned once per [`crate::Gpu`] and drains a whole queue at a
//! time: workers claim fixed-size block *chunks* from any launch whose
//! dependencies are satisfied, so many small independent per-scale
//! launches overlap — the host analogue of SM backfilling across CUDA
//! streams.
//!
//! Determinism is structural: which worker runs which chunk when is
//! scheduler noise, but every chunk's results land in a slot keyed by
//! (launch, chunk id), per-launch costs are stitched in linear block
//! order, counters (`u64` sums, so grouping cannot matter) are summed per
//! chunk and then over chunks, and the drain returns results in launch
//! order. Memory effects match serial issue order
//! because hazardous launches are ordered by graph edges and unordered
//! launches are confluent. The result — block costs, profiler counters
//! and (through the cost model) the timing simulation — is byte-for-byte
//! that of [`drain_serial`], the `threads = 1` reference schedule, which
//! runs the launches in issue order on the host thread.
//!
//! Thread count resolution: explicit override
//! ([`crate::Gpu::set_host_threads`]) → `std::thread::available_parallelism()`.
//! Queues below [`PARALLEL_MIN_WORK`] run serially regardless, as hand-off
//! overhead would dominate.
//!
//! The host thread is worker 0 of every drain. In [`WorkerPool::drain`]
//! that is all it does; in [`WorkerPool::drain_pulling`] it runs the
//! caller's consumer of the results — the timing simulation — and turns
//! worker only while the consumer waits for a launch that has not run yet
//! ([`DrainJob::help_until`]), so the consumer's time overlaps the drain
//! instead of following it.
//!
//! The queue borrows live only for the duration of one such call: the job
//! is published to the workers as a lifetime-erased pointer and the host
//! does not return (or touch the queue again) until every worker has
//! checked out of the generation.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::cost::CostModel;
use crate::kernel::{Kernel, LaunchConfig, LaunchCtx};
use crate::memory::{ConstBank, DeviceMemory, KernelScope, Texture2D};
use crate::meter::KernelCounters;
use crate::profiler::HostSpan;
use crate::sched::BlockCost;

/// The work (blocks × threads-per-block) below which splitting does not
/// pay, and so both floors: a drain with less runs serially, and no launch
/// is cut into chunks of less — one too small to split is one chunk, and
/// the parallelism comes from the other streams' launches. 16 Ki ≈ the
/// `64 blocks × 256 threads` break-even point measured for the detector's
/// mid-pyramid kernels: below it, chunk-claim and hand-off costs exceed
/// the block work even on a warm persistent pool.
const PARALLEL_MIN_WORK: u64 = 16_384;

/// Upper bound on blocks per chunk; small enough to balance load on the
/// largest realistic grids, large enough to amortize the atomic claim.
const MAX_CHUNK_BLOCKS: usize = 1024;

/// No longer read: the host thread count is `DetectorConfig::host_threads`
/// / [`crate::Gpu::set_host_threads`]. Kept because the repo benchmark
/// refuses to run with it set.
pub const THREADS_ENV_VAR: &str = "FD_SIM_THREADS";

/// No longer read; kept because the repo benchmark refuses to run with it
/// set.
pub const HOST_EXEC_ENV_VAR: &str = "FD_SIM_HOST_EXEC";

/// No longer read: launch shapes are fixed. Kept because the repo
/// benchmark refuses to run with it set.
pub const AUTOTUNE_ENV_VAR: &str = "FD_SIM_AUTOTUNE";

/// Resolve the effective host thread count for the functional phase.
/// Without an override it is the process's available parallelism (which
/// honours the affinity mask: `taskset -c 0` runs one thread), fixed once
/// per process (`OnceLock`): the resolver runs on every drain, and
/// `available_parallelism` re-reads the cgroup quota on every call.
pub(crate) fn resolve_host_threads(override_threads: Option<usize>) -> usize {
    static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();
    override_threads
        .unwrap_or_else(|| {
            *DEFAULT_THREADS
                .get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        })
        .max(1)
}

/// Everything the functional phase produces for one launch, or for one
/// chunk of its blocks.
pub(crate) struct FunctionalResult {
    /// Per-block timing costs, in linear block order.
    pub block_costs: Vec<BlockCost>,
    /// Counters summed over the blocks.
    pub totals: KernelCounters,
}

/// Shared read-only state for one drain's functional phase.
pub(crate) struct LaunchEnv<'a> {
    pub mem: &'a DeviceMemory,
    pub constants: &'a ConstBank,
    pub textures: &'a [Texture2D],
    pub cost: &'a CostModel,
    pub warp_size: u32,
}

impl LaunchEnv<'_> {
    /// Run blocks `range` (linear ids relative to the node's
    /// `block_offset`) of `node` as one [`Kernel::run_blocks`] call: their
    /// costs in block order and their counters summed. Counters are `u64`
    /// sums, so summing per range and then over ranges equals one fold
    /// over all blocks.
    fn run_blocks(&self, node: &Node<'_>, range: std::ops::Range<u64>) -> FunctionalResult {
        let ctx = LaunchCtx::new(node.cfg, self.mem, self.constants, self.textures, self.warp_size);
        let mut block_costs = Vec::with_capacity((range.end - range.start) as usize);
        let mut totals = KernelCounters::default();
        // Band bodies hand back the same few counter sets block after
        // block; the cost of a repeated set is the cost just computed.
        let mut last: Option<(KernelCounters, BlockCost)> = None;
        node.kernel.run_blocks(
            &ctx,
            node.block_offset + range.start..node.block_offset + range.end,
            &mut |c| {
                let cost = match last {
                    Some((seen, cost)) if seen == *c => cost,
                    _ => BlockCost {
                        issue_cycles: self.cost.issue_cycles(c),
                        mem_latency_cycles: self.cost.mem_latency_cycles(c),
                        mem_bytes: c.global_bytes(),
                    },
                };
                last = Some((*c, cost));
                block_costs.push(cost);
                totals.add(c);
            },
        );
        assert_eq!(
            block_costs.len() as u64,
            range.end - range.start,
            "{}: run_blocks must report every block of its range once",
            node.name
        );
        FunctionalResult { block_costs, totals }
    }
}

/// One unexecuted pending launch, borrowed from the queue for the
/// duration of a drain. `deps` are indices into the same node slice and
/// always point backwards (the graph is acyclic by construction).
pub(crate) struct Node<'a> {
    pub kernel: &'a dyn Kernel,
    pub cfg: &'a LaunchConfig,
    pub total_blocks: u64,
    /// First linear block id this node executes. Zero for whole launches;
    /// a fused launch is expanded into one node per phase, each covering
    /// `[block_offset, block_offset + total_blocks)` of the shared grid,
    /// chained by deps so producer phases complete before consumers start.
    pub block_offset: u64,
    pub deps: Vec<usize>,
    /// Global launch index, for span labels only.
    pub launch_idx: u64,
    pub name: &'static str,
}

/// Per-node scheduling counters, all guarded by the job mutex.
#[derive(Debug, Default)]
struct NodeSched {
    next_chunk: usize,
    done_chunks: usize,
    /// Chunks currently executing on some worker; the claim policy
    /// prefers the ready node with the fewest, spreading workers across
    /// *different* independent launches.
    active_claims: usize,
}

struct SchedState {
    indeg: Vec<usize>,
    succs: Vec<Vec<usize>>,
    /// Nodes with all dependencies satisfied and unclaimed chunks left.
    ready: Vec<usize>,
    node: Vec<NodeSched>,
    completed: usize,
    aborted: bool,
    /// First observed panic, keyed by the smallest node index so the
    /// surfaced payload is stable across schedules (best-effort: serial
    /// order is only guaranteed for non-panicking drains).
    panic: Option<(usize, Box<dyn Any + Send>)>,
}

/// Write-once result slot for one chunk: its blocks' costs and their
/// counters summed.
type ChunkSlot = OnceLock<FunctionalResult>;

/// The host left [`WorkerPool::drain_pulling`]'s consumer because a body
/// panicked elsewhere; the body's payload is the one that surfaces.
struct DrainAborted;

/// Everything one drain shares between workers.
pub(crate) struct DrainJob<'a> {
    env: &'a LaunchEnv<'a>,
    nodes: &'a [Node<'a>],
    /// Blocks per chunk, per node.
    chunk: Vec<usize>,
    n_chunks: Vec<usize>,
    slots: Vec<Vec<ChunkSlot>>,
    state: Mutex<SchedState>,
    cv: Condvar,
    participants: usize,
    epoch: Instant,
    spans: Mutex<Vec<HostSpan>>,
}

impl<'a> DrainJob<'a> {
    fn new(env: &'a LaunchEnv<'a>, nodes: &'a [Node<'a>], threads: usize, epoch: Instant) -> Self {
        let n = nodes.len();
        let mut indeg = vec![0usize; n];
        let mut succs = vec![Vec::new(); n];
        for (i, node) in nodes.iter().enumerate() {
            indeg[i] = node.deps.len();
            for &d in &node.deps {
                debug_assert!(d < i, "dependency edge must point backwards");
                succs[d].push(i);
            }
        }
        let ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let chunk: Vec<usize> = nodes
            .iter()
            .map(|nd| {
                let total = nd.total_blocks as usize;
                let floor = (PARALLEL_MIN_WORK / nd.cfg.threads_per_block().max(1) as u64) as usize;
                let chunk = (total / (threads * 8)).max(floor).clamp(1, MAX_CHUNK_BLOCKS);
                // Whole grid rows where the grid has rows and one fits a
                // chunk: kernels that process a row of blocks as one band
                // then see no cut inside a row. (One-row grids, a fused
                // launch's among them, stay cut by count; bands cope
                // with any cut.)
                let row = nd.cfg.grid.x as usize;
                if row < total && row <= MAX_CHUNK_BLOCKS {
                    chunk.next_multiple_of(row)
                } else {
                    chunk
                }
            })
            .collect();
        let n_chunks: Vec<usize> = nodes
            .iter()
            .zip(&chunk)
            .map(|(nd, &c)| (nd.total_blocks as usize).div_ceil(c))
            .collect();
        let slots = n_chunks.iter().map(|&nc| (0..nc).map(|_| OnceLock::new()).collect()).collect();
        Self {
            env,
            nodes,
            chunk,
            n_chunks,
            slots,
            state: Mutex::new(SchedState {
                indeg,
                succs,
                ready,
                node: (0..n).map(|_| NodeSched::default()).collect(),
                completed: 0,
                aborted: false,
                panic: None,
            }),
            cv: Condvar::new(),
            participants: threads,
            epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn elapsed_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub(crate) fn nodes(&self) -> &'a [Node<'a>] {
        self.nodes
    }

    /// Whether every chunk of `node` has run.
    pub(crate) fn done(&self, node: usize) -> bool {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.node[node].done_chunks == self.n_chunks[node]
    }

    /// The host thread as a worker until the launch whose nodes are
    /// `first..=last` has run: it takes that launch's chunks when they are
    /// ready and anyone's otherwise, so whoever waits for a launch is
    /// draining towards it. Unwinds (silently: the body's own panic is the
    /// one to report) if the drain was aborted instead.
    pub(crate) fn help_until(&self, (first, last): (usize, usize)) {
        self.run_worker(0, Some((first, last)));
        if !self.done(last) {
            std::panic::resume_unwind(Box::new(DrainAborted));
        }
    }

    /// Blocks per chunk of `node`, and its `idx`-th chunk's results: where
    /// a completed node's block costs are read in place.
    pub(crate) fn chunk_blocks(&self, node: usize) -> usize {
        self.chunk[node]
    }

    pub(crate) fn chunk(&self, node: usize, idx: usize) -> &FunctionalResult {
        self.slots[node][idx].get().expect("chunk of a completed node")
    }

    /// Counters summed over the blocks of (completed) `node`.
    pub(crate) fn totals(&self, node: usize) -> KernelCounters {
        let mut totals = KernelCounters::default();
        for slot in &self.slots[node] {
            totals.add(&slot.get().expect("chunk of a completed node").totals);
        }
        totals
    }

    /// Worker body. `worker` 0 is the host thread; pool workers get
    /// 1..; ids beyond `participants` check in and straight back out.
    /// With `until`, returns as soon as those nodes (one launch's phases,
    /// first to last) are complete and prefers them while they are not.
    fn run_worker(&self, worker: usize, until: Option<(usize, usize)>) {
        if worker >= self.participants {
            return;
        }
        let _scope = KernelScope::enter();
        let mut local_spans: Vec<HostSpan> = Vec::new();
        // Open span, merged across consecutive chunks of the same node.
        let mut cur: Option<(usize, f64, f64, u64)> = None; // (node, t0, t1, blocks)
        let close = |cur: &mut Option<(usize, f64, f64, u64)>,
                     spans: &mut Vec<HostSpan>,
                     nodes: &[Node<'_>]| {
            if let Some((n, t0, t1, blocks)) = cur.take() {
                spans.push(HostSpan {
                    worker,
                    launch_idx: nodes[n].launch_idx,
                    kernel_name: nodes[n].name,
                    t_start_us: t0,
                    t_end_us: t1,
                    blocks,
                });
            }
        };

        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if guard.aborted || guard.completed == self.nodes.len() {
                break;
            }
            if until.is_some_and(|(_, last)| guard.node[last].done_chunks == self.n_chunks[last]) {
                break;
            }
            let wanted = until.and_then(|(first, last)| {
                guard.ready.iter().copied().find(|n| (first..=last).contains(n))
            });
            let pick = wanted.or_else(|| {
                guard.ready.iter().copied().min_by_key(|&n| (guard.node[n].active_claims, n))
            });
            let Some(n) = pick else {
                // Chunks are in flight elsewhere; their completion will
                // either ready a successor or finish the drain.
                close(&mut cur, &mut local_spans, self.nodes);
                guard = self.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
                continue;
            };
            let chunk_idx = guard.node[n].next_chunk;
            guard.node[n].next_chunk += 1;
            if guard.node[n].next_chunk == self.n_chunks[n] {
                let pos = guard.ready.iter().position(|&r| r == n).expect("picked from ready");
                guard.ready.swap_remove(pos);
            }
            guard.node[n].active_claims += 1;
            drop(guard);

            let node = &self.nodes[n];
            let start = chunk_idx * self.chunk[n];
            let end = (start + self.chunk[n]).min(node.total_blocks as usize);
            let t0 = self.elapsed_us();
            let result = catch_unwind(AssertUnwindSafe(|| {
                self.env.run_blocks(node, start as u64..end as u64)
            }));
            let t1 = self.elapsed_us();
            match cur {
                Some((cn, _, ref mut ct1, ref mut cb)) if cn == n => {
                    *ct1 = t1;
                    *cb += (end - start) as u64;
                }
                _ => {
                    close(&mut cur, &mut local_spans, self.nodes);
                    cur = Some((n, t0, t1, (end - start) as u64));
                }
            }

            guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
            guard.node[n].active_claims -= 1;
            match result {
                Ok(local) => {
                    assert!(
                        self.slots[n][chunk_idx].set(local).is_ok(),
                        "chunk ({n}, {chunk_idx}) computed twice"
                    );
                    guard.node[n].done_chunks += 1;
                    if guard.node[n].done_chunks == self.n_chunks[n] {
                        guard.completed += 1;
                        let succs = std::mem::take(&mut guard.succs[n]);
                        for s in succs {
                            guard.indeg[s] -= 1;
                            if guard.indeg[s] == 0 {
                                guard.ready.push(s);
                            }
                        }
                        self.cv.notify_all();
                    }
                }
                Err(payload) => {
                    match &guard.panic {
                        Some((pn, _)) if *pn <= n => {}
                        _ => guard.panic = Some((n, payload)),
                    }
                    guard.aborted = true;
                    self.cv.notify_all();
                }
            }
        }
        drop(guard);
        close(&mut cur, &mut local_spans, self.nodes);
        if !local_spans.is_empty() {
            let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
            spans.extend(local_spans);
        }
    }

    /// The chunk slots, node by node, and the spans sorted by (worker,
    /// start). Panics (with the recorded payload) if any worker panicked.
    fn finish(self) -> (Vec<Vec<ChunkSlot>>, Vec<HostSpan>) {
        let state = self.state.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Some((_, payload)) = state.panic {
            std::panic::resume_unwind(payload);
        }
        assert_eq!(state.completed, self.nodes.len(), "drain exited with unexecuted launches");
        let mut spans = self.spans.into_inner().unwrap_or_else(|e| e.into_inner());
        spans.sort_by(|a, b| {
            (a.worker, a.t_start_us.to_bits(), a.launch_idx).cmp(&(
                b.worker,
                b.t_start_us.to_bits(),
                b.launch_idx,
            ))
        });
        (self.slots, spans)
    }
}

/// Type-erased pointer to the current drain's [`DrainJob`]. Only valid
/// while the publishing `drain` call is blocked waiting for checkout.
#[derive(Clone, Copy)]
struct JobPtr(*const ());
// SAFETY: the pointer is only dereferenced by pool workers between
// publication and checkout, a window during which the host keeps the
// pointee alive on its stack (`WorkerPool::run` returns only after the
// checkout, whatever its host closure does); DrainJob's shared state is Sync.
unsafe impl Send for JobPtr {}

struct PoolState {
    generation: u64,
    job: Option<JobPtr>,
    /// Workers that have not yet checked out of the current generation.
    active: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    cv: Condvar,
}

/// Persistent worker pool, spawned lazily on first parallel drain and
/// reused for the lifetime of the owning [`crate::Gpu`].
pub(crate) struct WorkerPool {
    shared: std::sync::Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    pub(crate) fn new() -> Self {
        Self {
            shared: std::sync::Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    generation: 0,
                    job: None,
                    active: 0,
                    shutdown: false,
                }),
                cv: Condvar::new(),
            }),
            handles: Vec::new(),
        }
    }

    /// Grow the pool to at least `n` workers (never shrinks).
    pub(crate) fn ensure_workers(&mut self, n: usize) {
        while self.handles.len() < n {
            let shared = std::sync::Arc::clone(&self.shared);
            let id = self.handles.len() + 1; // host is worker 0
            let handle = std::thread::Builder::new()
                .name(format!("fd-sim-worker-{id}"))
                .spawn(move || worker_main(&shared, id))
                .expect("spawn pool worker");
            self.handles.push(handle);
        }
    }

    /// Execute `nodes` against `env` and return per-node functional
    /// results in node order plus the host-execution spans. Deterministic
    /// for any `threads` (see module docs). Serial fallback when the
    /// queue is too small to pay parallel hand-off costs.
    pub(crate) fn drain(
        &mut self,
        env: &LaunchEnv<'_>,
        nodes: &[Node<'_>],
        threads: usize,
        epoch: Instant,
    ) -> (Vec<FunctionalResult>, Vec<HostSpan>) {
        let Some(job) = self.job(env, nodes, threads, epoch) else {
            return drain_serial(env, nodes, epoch);
        };
        let _ = self.run(&job, || ());
        let (slots, spans) = job.finish();
        // Stitch per-chunk results back into launch order.
        let results = slots
            .into_iter()
            .zip(nodes)
            .map(|(node_slots, node)| {
                let mut block_costs = Vec::with_capacity(node.total_blocks as usize);
                let mut totals = KernelCounters::default();
                for slot in node_slots {
                    let part = slot.into_inner().expect("completed node with an unset chunk");
                    block_costs.extend(part.block_costs);
                    totals.add(&part.totals);
                }
                FunctionalResult { block_costs, totals }
            })
            .collect();
        (results, spans)
    }

    /// [`WorkerPool::drain`] with the host thread running `consume`
    /// meanwhile: the pool workers drain `nodes`, `consume` reads
    /// completed nodes' results in place from the job and calls
    /// [`DrainJob::help_until`] for those it has to wait for. Whatever
    /// `consume` did not wait for has run too when this returns. `None`
    /// (nothing run, `consume` not called) when the drain would be serial:
    /// the caller then drains first and consumes after.
    pub(crate) fn drain_pulling<R>(
        &mut self,
        env: &LaunchEnv<'_>,
        nodes: &[Node<'_>],
        threads: usize,
        epoch: Instant,
        consume: impl FnOnce(&DrainJob<'_>) -> R,
    ) -> Option<(R, Vec<HostSpan>)> {
        let job = self.job(env, nodes, threads, epoch)?;
        let consumed = self.run(&job, || consume(&job));
        // A body's panic first: it is why the consumer gave up.
        let (_, spans) = job.finish();
        match consumed {
            Ok(result) => Some((result, spans)),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// The job of draining `nodes` on `threads` host threads, workers
    /// spawned; `None` when one thread or too little work makes it serial.
    fn job<'a>(
        &mut self,
        env: &'a LaunchEnv<'a>,
        nodes: &'a [Node<'a>],
        threads: usize,
        epoch: Instant,
    ) -> Option<DrainJob<'a>> {
        let total_work: u64 = nodes
            .iter()
            .map(|n| n.total_blocks.saturating_mul(n.cfg.threads_per_block() as u64))
            .sum();
        if threads <= 1 || total_work < PARALLEL_MIN_WORK {
            return None;
        }
        self.ensure_workers(threads - 1);
        Some(DrainJob::new(env, nodes, threads.min(self.handles.len() + 1), epoch))
    }

    /// Publish `job` to the pool workers, run `host` and then the rest of
    /// the drain on the calling thread (worker 0), and return once every
    /// worker has checked out — also when `host` panicked, whose payload
    /// is handed back instead of resumed.
    fn run<R>(&mut self, job: &DrainJob<'_>, host: impl FnOnce() -> R) -> std::thread::Result<R> {
        {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            debug_assert!(state.job.is_none(), "drain is not reentrant");
            state.generation += 1;
            state.job = Some(JobPtr(job as *const DrainJob<'_> as *const ()));
            state.active = self.handles.len();
            self.shared.cv.notify_all();
        }
        let result = catch_unwind(AssertUnwindSafe(host));
        job.run_worker(0, None);
        {
            // Checkout barrier: `job` (and the env/node borrows inside
            // it) must outlive every worker's reference.
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            while state.active > 0 {
                state = self.shared.cv.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            state.job = None;
        }
        result
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            state.shutdown = true;
            self.shared.cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_main(shared: &PoolShared, id: usize) {
    let mut seen_generation = 0u64;
    let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if state.shutdown {
            return;
        }
        if state.generation > seen_generation {
            seen_generation = state.generation;
            if let Some(ptr) = state.job {
                drop(state);
                // SAFETY: the publishing `WorkerPool::run` call blocks
                // until we decrement `active` below — also when its host
                // closure panicked — keeping the job alive.
                let job = unsafe { &*(ptr.0 as *const DrainJob<'_>) };
                job.run_worker(id, None);
                state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            }
            state.active -= 1;
            if state.active == 0 {
                shared.cv.notify_all();
            }
            continue;
        }
        state = shared.cv.wait(state).unwrap_or_else(|e| e.into_inner());
    }
}

/// In-order inline execution: the `host_threads = 1` reference schedule
/// (and the cheap path for tiny queues). Spans all land on worker 0.
fn drain_serial(
    env: &LaunchEnv<'_>,
    nodes: &[Node<'_>],
    epoch: Instant,
) -> (Vec<FunctionalResult>, Vec<HostSpan>) {
    let _scope = KernelScope::enter();
    let mut results = Vec::with_capacity(nodes.len());
    let mut spans = Vec::with_capacity(nodes.len());
    for node in nodes {
        let t0 = epoch.elapsed().as_secs_f64() * 1e6;
        let result = env.run_blocks(node, 0..node.total_blocks);
        let t1 = epoch.elapsed().as_secs_f64() * 1e6;
        spans.push(HostSpan {
            worker: 0,
            launch_idx: node.launch_idx,
            kernel_name: node.name,
            t_start_us: t0,
            t_end_us: t1,
            blocks: node.total_blocks,
        });
        results.push(result);
    }
    (results, spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::Dim3;
    use crate::kernel::LaunchCtx;
    use crate::memory::DevBuf;
    use std::ops::Range;

    #[derive(Clone)]
    struct AffineKernel {
        src: DevBuf<u32>,
        dst: DevBuf<u32>,
        mul: u32,
        add: u32,
    }

    impl Kernel for AffineKernel {
        fn name(&self) -> &'static str {
            "affine"
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
                let src = ctx.mem.read(self.src);
                let mut dst = ctx.mem.write(self.dst);
                let end = (base + tpb).min(dst.len());
                for i in base..end {
                    dst[i] = src[i].wrapping_mul(self.mul).wrapping_add(self.add);
                }
                ctx.meter.alu(ctx.warps_in_block());
                ctx.meter.global_load(((end - base) * 4) as u64);
                ctx.meter.global_store(((end - base) * 4) as u64);
                // Block-dependent divergence, so a stitch or counter reduction
                // out of linear block order would show in the per-block cost
                // bits and the totals.
                ctx.meter.branches(ctx.block_idx.x as u64 + 1, ctx.block_idx.x as u64 % 2);
            });
        }
        fn access(&self, set: &mut crate::memory::AccessSet) {
            set.reads(self.src).writes(self.dst);
        }
    }

    fn env(mem: &DeviceMemory) -> (LaunchEnv<'_>, &'static ConstBank) {
        static BANK: std::sync::OnceLock<ConstBank> = std::sync::OnceLock::new();
        let bank = BANK.get_or_init(|| ConstBank::new(0));
        (
            LaunchEnv {
                mem,
                constants: bank,
                textures: &[],
                cost: Box::leak(Box::new(CostModel::default())),
                warp_size: 32,
            },
            bank,
        )
    }

    fn node<'a>(
        kernel: &'a dyn Kernel,
        cfg: &'a LaunchConfig,
        deps: Vec<usize>,
        launch_idx: u64,
    ) -> Node<'a> {
        Node {
            kernel,
            cfg,
            total_blocks: cfg.total_blocks(),
            block_offset: 0,
            deps,
            launch_idx,
            name: "k",
        }
    }

    /// Build a chain a -> b (RAW), an independent c and a small d that
    /// follows c (b and c are cut into chunks, a — 64-thread blocks — and
    /// d stay below the chunk floor), drain at the given thread count and
    /// return the final buffers + results.
    fn run_graph(threads: usize) -> (Vec<u32>, Vec<u32>, Vec<FunctionalResult>) {
        let mut mem = DeviceMemory::new();
        let n = 64 * 1024usize;
        let a_in = mem.upload(&(0..n as u32).collect::<Vec<_>>());
        let a_mid = mem.alloc::<u32>(n);
        let a_out = mem.alloc::<u32>(n);
        let c_in = mem.upload(&(0..n as u32).rev().collect::<Vec<_>>());
        let c_out = mem.alloc::<u32>(n);
        let d_out = mem.alloc::<u32>(36 * 128);
        let (env, _) = env(&mem);
        let cfg = LaunchConfig::linear(n, 128);
        let narrow = LaunchConfig::linear(n / 8, 64);
        let small = LaunchConfig::linear(36 * 128, 128);
        let k1 = AffineKernel { src: a_in, dst: a_mid, mul: 3, add: 1 };
        let k2 = AffineKernel { src: a_mid, dst: a_out, mul: 5, add: 7 };
        let k3 = AffineKernel { src: c_in, dst: c_out, mul: 11, add: 13 };
        let k4 = AffineKernel { src: c_out, dst: d_out, mul: 3, add: 5 };
        let nodes = vec![
            node(&k1, &narrow, vec![], 0),
            node(&k2, &cfg, vec![0], 1),
            node(&k3, &cfg, vec![], 2),
            node(&k4, &small, vec![2], 3),
        ];
        if threads > 1 {
            let job = DrainJob::new(&env, &nodes, threads, Instant::now());
            assert_eq!(job.n_chunks[0], 1, "128 blocks x 64 threads: half the floor");
            assert!(job.n_chunks[1] > 1 && job.n_chunks[2] > 1, "{:?}", job.n_chunks);
            assert_eq!(job.n_chunks[3], 1, "36 blocks");
        }
        let mut pool = WorkerPool::new();
        let (results, _spans) = pool.drain(&env, &nodes, threads, Instant::now());
        (mem.download(a_out), [mem.download(c_out), mem.download(d_out)].concat(), results)
    }

    /// [`PARALLEL_MIN_WORK`] as the chunk floor: a launch too small to
    /// split is one chunk, a large one is cut as it always was.
    #[test]
    fn small_launches_are_one_chunk_and_large_ones_cut_as_before() {
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc::<u32>(1);
        let (env, _) = env(&mem);
        let k = AffineKernel { src: buf, dst: buf, mul: 1, add: 0 };
        let small = LaunchConfig::tile2d(9 * 16, 4 * 16, 16, 16);
        let large = LaunchConfig::tile2d(1920, 1088, 16, 16);
        let nodes = vec![node(&k, &small, vec![], 0), node(&k, &large, vec![], 1)];
        for (threads, large_chunks) in [(2, 14), (4, 23), (8, 34)] {
            let job = DrainJob::new(&env, &nodes, threads, Instant::now());
            assert_eq!((job.chunk[0], job.n_chunks[0]), (72, 1), "36 blocks, {threads} threads");
            // 8 160 / (threads x 8) blocks, rounded up to whole 120-block rows.
            assert_eq!(job.n_chunks[1], large_chunks, "8 160 blocks, {threads} threads");
        }
    }

    #[test]
    fn graph_drain_matches_serial_at_any_thread_count() {
        let (a1, c1, r1) = run_graph(1);
        assert_eq!(a1[10], (10u32.wrapping_mul(3).wrapping_add(1)).wrapping_mul(5).wrapping_add(7));
        for threads in [2, 3, 8] {
            let (a, c, r) = run_graph(threads);
            assert_eq!(a, a1, "dependent chain differs at {threads} threads");
            assert_eq!(c, c1, "independent launch differs at {threads} threads");
            for (i, (x, y)) in r.iter().zip(&r1).enumerate() {
                assert_eq!(x.totals, y.totals, "counters differ for node {i} at {threads} threads");
                assert_eq!(x.block_costs.len(), y.block_costs.len());
                for (a, b) in x.block_costs.iter().zip(&y.block_costs) {
                    assert_eq!(a.issue_cycles.to_bits(), b.issue_cycles.to_bits());
                    assert_eq!(a.mem_latency_cycles.to_bits(), b.mem_latency_cycles.to_bits());
                    assert_eq!(a.mem_bytes, b.mem_bytes);
                }
            }
        }
    }

    #[test]
    fn thread_resolution_prefers_override() {
        assert_eq!(resolve_host_threads(Some(3)), 3);
        assert_eq!(resolve_host_threads(Some(0)), 1, "zero clamps to one");
        assert!(resolve_host_threads(None) >= 1);
    }

    #[test]
    fn pool_is_reusable_across_drains() {
        let mut mem = DeviceMemory::new();
        let n = 32 * 1024usize;
        let src = mem.upload(&vec![2u32; n]);
        let dst = mem.alloc::<u32>(n);
        let (env, _) = env(&mem);
        let cfg = LaunchConfig::linear(n, 128);
        let k = AffineKernel { src, dst, mul: 2, add: 0 };
        let mut pool = WorkerPool::new();
        for round in 0..3 {
            let nodes = vec![Node {
                kernel: &k,
                cfg: &cfg,
                total_blocks: cfg.total_blocks(),
                block_offset: 0,
                deps: vec![],
                launch_idx: round,
                name: "k",
            }];
            let (results, _) = pool.drain(&env, &nodes, 4, Instant::now());
            assert_eq!(results.len(), 1);
        }
        assert_eq!(mem.download(dst)[0], 4);
    }

    #[test]
    fn tiny_queues_take_the_serial_path_with_spans() {
        let mut mem = DeviceMemory::new();
        let src = mem.upload(&vec![1u32; 64]);
        let dst = mem.alloc::<u32>(64);
        let (env, _) = env(&mem);
        let cfg = LaunchConfig::linear(64, 32);
        let k = AffineKernel { src, dst, mul: 7, add: 0 };
        let nodes = vec![Node {
            kernel: &k,
            cfg: &cfg,
            total_blocks: cfg.total_blocks(),
            block_offset: 0,
            deps: vec![],
            launch_idx: 0,
            name: "tiny",
        }];
        let mut pool = WorkerPool::new();
        let (results, spans) = pool.drain(&env, &nodes, 8, Instant::now());
        assert_eq!(results.len(), 1);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].worker, 0, "sub-threshold work stays on the host thread");
        assert_eq!(spans[0].blocks, 2);
        assert_eq!(mem.download(dst)[0], 7);
    }

    #[test]
    fn worker_panic_surfaces_on_the_host() {
        struct BoomKernel;
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
                    if ctx.block_idx.x == 100 {
                        panic!("injected block failure");
                    }
                    ctx.meter.alu(1);
                });
            }
        }
        let mem = DeviceMemory::new();
        let (env, _) = env(&mem);
        let cfg = LaunchConfig { grid: Dim3::d1(512), block: Dim3::d1(64), shared_mem_bytes: 0 };
        let k = BoomKernel;
        let nodes = vec![Node {
            kernel: &k,
            cfg: &cfg,
            total_blocks: cfg.total_blocks(),
            block_offset: 0,
            deps: vec![],
            launch_idx: 0,
            name: "boom",
        }];
        let mut pool = WorkerPool::new();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.drain(&env, &nodes, 4, Instant::now())
        }));
        assert!(err.is_err(), "panic in a worker must resurface on the host");
    }
}
