//! Discrete-event scheduling of thread blocks onto streaming
//! multiprocessors.
//!
//! The scheduler consumes [`LaunchRecord`]s (produced by the functional
//! phase) and simulates the device's block dispatcher:
//!
//! * every SM has residency limits (blocks, warps, threads, shared memory,
//!   registers), and a block goes to the SM with the most free warps that
//!   has room for it — a launch that finds none waits for a completion;
//! * launches in the same stream execute in order;
//! * [`ExecMode::Serial`] additionally drains each launch before the next
//!   one starts (profiler-style serialization, the paper's baseline);
//! * [`ExecMode::Concurrent`] lets blocks of up to
//!   `max_concurrent_kernels` launches from *different* streams share the
//!   device, backfilling SMs that the current kernels leave idle — the
//!   mechanism behind the paper's headline speedup.
//!
//! So a launch waits on at most one other: the previous launch in its
//! stream, or in Serial mode launch `i − 1`, which already follows stream
//! order.
//!
//! Block durations come from [`CostModel::block_cycles`], evaluated at
//! placement time with the SM's warp residency, so small lonely kernels pay
//! poor latency hiding in addition to leaving SMs idle.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::cost::CostModel;
use crate::device::DeviceSpec;
use crate::meter::KernelCounters;
use crate::profiler::TraceEvent;
use crate::stream::StreamId;

/// Whether kernels from distinct streams may overlap on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Drain every launch before starting the next, regardless of stream.
    Serial,
    /// Fermi-style concurrent kernel execution across streams.
    Concurrent,
}

/// Timing cost of one thread block, produced by the functional phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockCost {
    /// Issue-pipeline cycles (ALU, shared, constant, texture, barriers).
    pub issue_cycles: f64,
    /// Un-hidden global-memory latency cycles.
    pub mem_latency_cycles: f64,
    /// Global traffic in bytes (for the bandwidth floor).
    pub mem_bytes: u64,
}

/// Which per-SM residency budget bounds a launch's block residency.
///
/// The scheduler admits a block only when every budget has room; the
/// *limiting factor* is the budget whose theoretical bound
/// (`budget / per-block demand`) is smallest. Ties resolve toward the
/// scarcer, less elastic budget — registers and shared memory are fixed
/// allocations a compiler or tiling change could relax, warps/threads
/// only shrink with the block, and the 8-block cap almost never binds
/// alone — so the reported factor is the one worth attacking first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OccupancyLimit {
    Registers,
    SharedMem,
    Warps,
    Threads,
    Blocks,
}

impl OccupancyLimit {
    /// Every factor, in tie-break (reporting) order.
    pub const ALL: [OccupancyLimit; 5] = [
        OccupancyLimit::Registers,
        OccupancyLimit::SharedMem,
        OccupancyLimit::Warps,
        OccupancyLimit::Threads,
        OccupancyLimit::Blocks,
    ];

    /// Stable lower-case label for traces and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            OccupancyLimit::Registers => "registers",
            OccupancyLimit::SharedMem => "smem",
            OccupancyLimit::Warps => "warps",
            OccupancyLimit::Threads => "threads",
            OccupancyLimit::Blocks => "blocks",
        }
    }
}

/// Theoretical per-SM residency of one launch's blocks: how many fit an
/// empty SM, and which budget ran out first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchOccupancy {
    /// The budget that bound `blocks_per_sm` (see [`OccupancyLimit`]).
    pub limit: OccupancyLimit,
    /// Blocks of this launch an empty SM can hold. Zero means the launch
    /// can never place a block ([`crate::Gpu::launch`] rejects such
    /// launches with [`crate::LaunchError::BlockDoesNotFit`]).
    pub blocks_per_sm: u32,
    /// Warps resident at that bound (`blocks_per_sm * warps_per_block`).
    pub resident_warps: u32,
}

/// Computes the residency bound of a block demanding
/// `(threads_per_block, warps_per_block, shared_mem_bytes,
/// registers_per_thread)` against every per-SM budget of `spec`, and
/// reports the scarcest budget (ties per [`OccupancyLimit`] order).
pub fn launch_occupancy(
    spec: &DeviceSpec,
    threads_per_block: u32,
    warps_per_block: u32,
    shared_mem_bytes: u32,
    registers_per_thread: u32,
) -> LaunchOccupancy {
    let per_budget = |limit: OccupancyLimit| -> u32 {
        let bound = |budget: u32, demand: u32| -> u32 {
            // Zero demand (e.g. no smem) never binds.
            budget.checked_div(demand).unwrap_or(u32::MAX)
        };
        match limit {
            OccupancyLimit::Blocks => spec.max_blocks_per_sm,
            OccupancyLimit::Warps => bound(spec.max_warps_per_sm, warps_per_block),
            OccupancyLimit::Threads => bound(spec.max_threads_per_sm, threads_per_block),
            OccupancyLimit::SharedMem => bound(spec.shared_mem_per_sm, shared_mem_bytes),
            OccupancyLimit::Registers => {
                bound(spec.registers_per_sm, registers_per_thread.saturating_mul(threads_per_block))
            }
        }
    };
    let mut limit = OccupancyLimit::ALL[0];
    let mut blocks = per_budget(limit);
    for &l in &OccupancyLimit::ALL[1..] {
        let b = per_budget(l);
        if b < blocks {
            blocks = b;
            limit = l;
        }
    }
    LaunchOccupancy {
        limit,
        blocks_per_sm: blocks,
        resident_warps: blocks.saturating_mul(warps_per_block),
    }
}

/// A completed functional launch, ready for timing simulation.
#[derive(Debug, Clone)]
pub struct LaunchRecord {
    /// Position in global launch order (monotonic per device).
    pub launch_idx: usize,
    pub kernel_name: &'static str,
    pub stream: StreamId,
    pub shared_mem_bytes: u32,
    pub threads_per_block: u32,
    pub warps_per_block: u32,
    /// Registers each thread holds for the block's lifetime (already
    /// clamped to [`DeviceSpec::max_registers_per_thread`] at launch).
    pub registers_per_thread: u32,
    /// Per-block costs, in functional block order.
    pub block_costs: Vec<BlockCost>,
    /// Work counters aggregated over all blocks.
    pub counters: KernelCounters,
}

/// Result of a timing simulation: per-launch trace plus device utilization.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// One entry per launch, in launch order.
    pub events: Vec<TraceEvent>,
    /// Block-time integrated per SM (block-microseconds; exceeds the span
    /// when multiple blocks are co-resident).
    pub sm_busy_us: Vec<f64>,
    /// Warp-time integrated per SM (warp-microseconds).
    pub sm_warp_us: Vec<f64>,
    /// Warp capacity of one SM (for utilization normalization).
    pub warps_per_sm: u32,
    /// End of the last launch, microseconds from the simulation origin.
    pub end_us: f64,
}

impl Timeline {
    /// Total elapsed device time.
    pub fn span_us(&self) -> f64 {
        self.end_us
    }

    /// Mean warp occupancy of the device over the simulated span (0..=1):
    /// resident warp-time divided by total warp capacity.
    pub fn sm_utilization(&self) -> f64 {
        if self.end_us <= 0.0 || self.sm_warp_us.is_empty() || self.warps_per_sm == 0 {
            return 0.0;
        }
        let warp_us: f64 = self.sm_warp_us.iter().sum();
        warp_us / (self.end_us * self.sm_warp_us.len() as f64 * self.warps_per_sm as f64)
    }

    /// How many launches each residency budget bounded, keyed by the
    /// factor's stable label — the aggregate view of the per-launch
    /// [`TraceEvent::occupancy`] accounting.
    pub fn limiting_factor_counts(&self) -> std::collections::BTreeMap<&'static str, u64> {
        let mut counts = std::collections::BTreeMap::new();
        for e in &self.events {
            *counts.entry(e.occupancy.limit.as_str()).or_insert(0) += 1;
        }
        counts
    }

    /// Mean *theoretical* warp occupancy across launches (0..=1): what
    /// the limiting budgets allow, as opposed to [`Self::sm_utilization`]
    /// which reports what the schedule achieved.
    pub fn mean_theoretical_occupancy(&self) -> f64 {
        if self.events.is_empty() || self.warps_per_sm == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .events
            .iter()
            .map(|e| e.occupancy.resident_warps.min(self.warps_per_sm) as f64)
            .sum();
        sum / (self.events.len() as f64 * self.warps_per_sm as f64)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SmState {
    blocks: u32,
    warps: u32,
    threads: u32,
    shared: u32,
    registers: u32,
    busy_us: f64,
    warp_us: f64,
}

/// "No launch waits on this one" in [`LaunchState::successor`].
const NO_SUCCESSOR: usize = usize::MAX;

/// One launch's size, dependency bookkeeping and progress, copied out of
/// the [`LaunchRecord`] so the event loop walks one dense array.
#[derive(Debug)]
struct LaunchState {
    blocks: usize,
    /// Index of its blocks' footprint in [`SchedScratch::demands`].
    demand: usize,
    /// End time of the launch it waits on, once that has ended.
    deps_end_us: f64,
    /// The launch that waits on this one, or [`NO_SUCCESSOR`].
    successor: usize,
    ready_us: Option<f64>,
    next_block: usize,
    completed_blocks: usize,
    start_us: Option<f64>,
    end_us: Option<f64>,
}

/// A block leaving its SM (what it gives back is its launch's footprint),
/// ordered by time, then launch index, then SM — the three packed into one
/// integer, most significant first. Completion times are sums of
/// non-negative terms, and among such floats the order of the bit
/// patterns is the numeric order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Completion(u128);

impl Completion {
    fn new(time_us: f64, launch: usize, sm: usize) -> Self {
        debug_assert!(time_us >= 0.0, "completion at {time_us}");
        Self((time_us.to_bits() as u128) << 64 | (launch as u32 as u128) << 32 | sm as u32 as u128)
    }

    fn time_us(self) -> f64 {
        f64::from_bits((self.0 >> 64) as u64)
    }

    fn launch(self) -> usize {
        (self.0 >> 32) as u32 as usize
    }

    fn sm(self) -> usize {
        self.0 as u32 as usize
    }
}

/// A launch whose dependencies are done but whose launch overhead is
/// still elapsing: issuable once the clock reaches `time_us`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Arrival {
    time_us: f64,
    launch: usize,
}

impl Eq for Arrival {}
impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Arrival {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time_us.total_cmp(&other.time_us).then(self.launch.cmp(&other.launch))
    }
}

/// A launch in the issue walk, with what a round needs to decide whether
/// to visit it.
#[derive(Debug, Clone, Copy)]
struct Issuable {
    launch: u32,
    /// [`LaunchState::demand`].
    demand: u32,
    /// Whether it has placed a block (and so counts as an active kernel).
    started: bool,
    /// Whether the next placement attempt must look at every SM rather
    /// than only the dirty one (see `dirty` in the event loop).
    full_scan: bool,
}

/// Working storage of [`simulate`], kept by [`crate::Gpu`] across
/// synchronization scopes so short scopes (a served batch is a few dozen
/// launches) do not re-allocate it every time. Holds no state between
/// calls: every field is cleared on entry.
#[derive(Debug, Default)]
pub(crate) struct SchedScratch {
    last_in_stream: HashMap<StreamId, usize>,
    states: Vec<LaunchState>,
    sms: Vec<SmState>,
    /// Block completions, earliest first.
    running: BinaryHeap<Reverse<Completion>>,
    /// Launches whose predecessor has ended (or that have none) and whose
    /// ready time is not computed yet, lowest index first.
    unblocked: BinaryHeap<Reverse<usize>>,
    /// Launches with a ready time in the future.
    arriving: BinaryHeap<Reverse<Arrival>>,
    /// Launches that are ready and have blocks left to place, ascending.
    issuable: Vec<Issuable>,
    /// The distinct block footprints of the launch set, and for each
    /// whether the dirty SM has room for it, recomputed when a skip
    /// decision is about to read it and something changed since. A `false`
    /// read that way is exact, and so is a `true`.
    demands: Vec<Demand>,
    admits: Vec<bool>,
    /// Block durations already computed, by what they were computed from.
    durations: DurationMemo,
}

/// What one block of a launch takes from its SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Demand {
    warps: u32,
    threads: u32,
    shared: u32,
    registers: u32,
}

impl Demand {
    /// Whether a block of this footprint fits into `room`.
    fn within(&self, room: &Demand) -> bool {
        self.warps <= room.warps
            && self.threads <= room.threads
            && self.shared <= room.shared
            && self.registers <= room.registers
    }
}

impl SmState {
    /// What the SM has left of every budget, or `None` when it holds as
    /// many blocks as it can.
    fn room(&self, spec: &DeviceSpec) -> Option<Demand> {
        (self.blocks < spec.max_blocks_per_sm).then(|| Demand {
            warps: spec.max_warps_per_sm - self.warps,
            threads: spec.max_threads_per_sm - self.threads,
            shared: spec.shared_mem_per_sm - self.shared,
            registers: spec.registers_per_sm - self.registers,
        })
    }
}

/// Recomputes `admits` (see [`SchedScratch::admits`]) from the dirty SM's
/// load; returns whether any flag is set.
fn refresh_admits(
    spec: &DeviceSpec,
    sms: &[SmState],
    dirty: Option<usize>,
    demands: &[Demand],
    admits: &mut [bool],
) -> bool {
    let room = dirty.and_then(|s| sms[s].room(spec));
    let mut any = false;
    for (admit, demand) in admits.iter_mut().zip(demands) {
        *admit = room.is_some_and(|room| demand.within(&room));
        any |= *admit;
    }
    any
}

/// Everything a block's duration is computed from besides the device and
/// the cost model, which are fixed for one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DurationKey {
    /// The block's [`BlockCost`], floats as bit patterns.
    issue_cycles: u64,
    mem_latency_cycles: u64,
    mem_bytes: u64,
    /// Its SM's resident blocks and warps, itself included.
    sm_blocks: u32,
    sm_warps: u32,
    /// Its launch's warps per block.
    block_warps: u32,
}

impl DurationKey {
    fn slot(&self) -> usize {
        let residency =
            (self.sm_blocks as u64) << 48 | (self.sm_warps as u64) << 24 | self.block_warps as u64;
        let h = self.issue_cycles
            ^ self.mem_latency_cycles.rotate_left(21)
            ^ self.mem_bytes.rotate_left(42)
            ^ residency.rotate_left(7);
        (h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - DurationMemo::BITS)) as usize
    }
}

/// A direct-mapped table of block durations. A launch's blocks mostly cost
/// the same and land on SMs in a few load states, so most placements find
/// their duration here instead of dividing it out again; a hit compares the
/// whole key, so it returns the very number the computation would.
#[derive(Debug, Default)]
struct DurationMemo {
    slots: Vec<Option<(DurationKey, f64)>>,
}

impl DurationMemo {
    const BITS: u32 = 8;

    fn clear(&mut self) {
        self.slots.clear();
        self.slots.resize(1 << Self::BITS, None);
    }

    fn get_or_insert(&mut self, key: DurationKey, compute: impl FnOnce() -> f64) -> f64 {
        let slot = &mut self.slots[key.slot()];
        match slot {
            Some((k, dur_us)) if *k == key => *dur_us,
            _ => {
                let dur_us = compute();
                *slot = Some((key, dur_us));
                dur_us
            }
        }
    }
}

crate::mutation_switch! {
    /// Deliberate changes to the event loop for `sched/oracle.rs` to judge;
    /// only a test build can switch one on.
    enum Mutation {
        /// A bug: the duration memo is keyed without the SM's resident blocks.
        MemoWithoutResidentBlocks,
        /// A bug: the completion that starts a round does not mark the
        /// footprint flags stale, so skip decisions read the previous round's.
        FlagsKeptAcrossRounds,
        /// Not a bug: a placement does not mark the flags stale (see `stale`).
        FlagsKeptAcrossPlacements,
    }
}

/// What the functional phase produced, as the event loop reads it: a
/// launch's block count when the launch set is laid out, a block's cost
/// when the loop places that block — a launch's blocks in order, so the
/// first question about a launch comes at its first placement — and a
/// launch's counters once every block is placed. Recorded launches answer
/// from their [`LaunchRecord`]; [`crate::Gpu::synchronize`] answers from
/// the drain that is still producing them, which is why the costs are
/// asked for this late.
pub(crate) trait BlockCosts {
    fn blocks(&self, launch: usize) -> usize;
    fn cost(&mut self, launch: usize, block: usize) -> BlockCost;
    fn counters(&mut self, launch: usize) -> KernelCounters;
}

impl BlockCosts for &[LaunchRecord] {
    fn blocks(&self, launch: usize) -> usize {
        self[launch].block_costs.len()
    }
    fn cost(&mut self, launch: usize, block: usize) -> BlockCost {
        self[launch].block_costs[block]
    }
    fn counters(&mut self, launch: usize) -> KernelCounters {
        self[launch].counters
    }
}

/// Simulates the execution of `launches` on `spec` under `mode`.
///
/// `launches` must be in launch order (`launch_idx` ascending).
pub fn simulate(
    spec: &DeviceSpec,
    cost: &CostModel,
    mode: ExecMode,
    launches: &[LaunchRecord],
) -> Timeline {
    SchedScratch::default().simulate(spec, cost, mode, launches)
}

/// Marks launch `i` ended at `t` and releases its successor, if any, into
/// `unblocked`.
fn end_launch(
    states: &mut [LaunchState],
    unblocked: &mut BinaryHeap<Reverse<usize>>,
    i: usize,
    t: f64,
) {
    states[i].end_us = Some(t);
    let next = states[i].successor;
    if next != NO_SUCCESSOR {
        states[next].deps_end_us = t;
        unblocked.push(Reverse(next));
    }
}

/// The SM among `candidates` with the most free warps that fits a block
/// of `demand` (lowest index on ties).
fn best_sm(
    spec: &DeviceSpec,
    sms: &[SmState],
    candidates: impl IntoIterator<Item = usize>,
    demand: &Demand,
) -> Option<usize> {
    // The least (resident warps, index) among the SMs that fit, as one
    // integer.
    let mut best = u64::MAX;
    for s in candidates {
        let sm = &sms[s];
        if sm.room(spec).is_some_and(|room| demand.within(&room)) {
            best = best.min((sm.warps as u64) << 32 | s as u64);
        }
    }
    (best != u64::MAX).then_some(best as u32 as usize)
}

impl SchedScratch {
    /// [`simulate`] on this scratch's buffers.
    pub(crate) fn simulate(
        &mut self,
        spec: &DeviceSpec,
        cost: &CostModel,
        mode: ExecMode,
        mut launches: &[LaunchRecord],
    ) -> Timeline {
        self.simulate_from(spec, cost, mode, launches.iter(), &mut launches)
    }

    /// The event loop. `launches` says who runs where and waits on whom
    /// (their `block_costs` and `counters` are not read); `costs` says
    /// what their blocks cost.
    pub(crate) fn simulate_from<'a>(
        &mut self,
        spec: &DeviceSpec,
        cost: &CostModel,
        mode: ExecMode,
        launches: impl ExactSizeIterator<Item = &'a LaunchRecord> + Clone,
        costs: &mut impl BlockCosts,
    ) -> Timeline {
        let Self {
            last_in_stream,
            states,
            sms,
            running,
            unblocked,
            arriving,
            issuable,
            demands,
            admits,
            durations,
        } = self;
        let n = launches.len();
        // Launch and SM indices travel as `u32` (`Completion`, `Issuable`).
        assert!(n <= u32::MAX as usize, "{n} launches in one scope");
        sms.clear();
        sms.resize(spec.sm_count as usize, SmState::default());
        running.clear();
        unblocked.clear();
        arriving.clear();
        issuable.clear();
        demands.clear();
        durations.clear();

        // Dependency chains. A launch waits on its in-stream predecessor,
        // or in Serial mode on launch `i - 1`: that one ends no earlier
        // than the stream predecessor, which it waits on transitively, so
        // the stream predecessor adds nothing. Either has a lower index, so
        // a launch that ends only ever releases a launch after it.
        states.clear();
        last_in_stream.clear();
        for (i, l) in launches.clone().enumerate() {
            let demand = Demand {
                warps: l.warps_per_block,
                threads: l.threads_per_block,
                shared: l.shared_mem_bytes,
                registers: l.registers_per_thread.saturating_mul(l.threads_per_block),
            };
            let known = demands.iter().position(|d| *d == demand);
            states.push(LaunchState {
                blocks: costs.blocks(i),
                demand: known.unwrap_or_else(|| {
                    demands.push(demand);
                    demands.len() - 1
                }),
                deps_end_us: 0.0,
                successor: NO_SUCCESSOR,
                ready_us: None,
                next_block: 0,
                completed_blocks: 0,
                start_us: None,
                end_us: None,
            });
            let predecessor = match mode {
                ExecMode::Serial => i.checked_sub(1),
                ExecMode::Concurrent => last_in_stream.insert(l.stream, i),
            };
            match predecessor {
                Some(p) => states[p].successor = i,
                None => unblocked.push(Reverse(i)),
            }
        }

        admits.clear();
        admits.resize(demands.len(), false);

        let bw_per_sm = spec.dram_bytes_per_cycle() / spec.sm_count as f64;
        // Launch overhead charged to every launch, reported on the trace
        // so tools can attribute it as its own slice (fusion's saved
        // overheads then show up in traces, not just aggregate spans).
        let overhead = spec.launch_overhead_us
            + if mode == ExecMode::Serial { spec.serial_profiling_overhead_us } else { 0.0 };
        let kernel_cap = match mode {
            ExecMode::Serial => 1,
            ExecMode::Concurrent => spec.max_concurrent_kernels,
        };
        let mut now = 0.0f64;
        let mut completed = 0usize;
        // Launches that have placed a block and not ended.
        let mut active_kernels = 0u32;
        // The SM on which a launch that found no SM at its previous attempt
        // may fit now: the one the round's completion freed. Every other SM
        // has only filled up since that attempt.
        let mut dirty: Option<usize> = None;
        // Whether `admits` may disagree with `dirty` or the SMs' load. A
        // skip decision refreshes the flags first if so; `any_admit` is
        // whether that refresh set one. The decisions need only the mark of
        // the completion that starts a round: within a round placements
        // only take room away. Marking them too keeps a `true` from
        // outliving its room, which would cost visits that find nothing.
        let mut stale = true;
        let mut any_admit = false;
        // Issuable launches whose `full_scan` is set.
        let mut rescans = 0usize;

        loop {
            // Ready times, in launch order. A launch with zero blocks
            // completes the instant it becomes ready, which can unblock
            // later launches within this same round.
            while let Some(Reverse(i)) = unblocked.pop() {
                let t = states[i].deps_end_us.max(now) + overhead;
                states[i].ready_us = Some(t);
                if states[i].blocks == 0 {
                    states[i].start_us = Some(t);
                    end_launch(states, unblocked, i, t);
                    completed += 1;
                } else {
                    arriving.push(Reverse(Arrival { time_us: t, launch: i }));
                }
            }
            while let Some(&Reverse(a)) = arriving.peek() {
                if a.time_us > now {
                    break;
                }
                arriving.pop();
                issuable.insert(
                    issuable.partition_point(|w| (w.launch as usize) < a.launch),
                    Issuable {
                        launch: a.launch as u32,
                        demand: states[a.launch].demand as u32,
                        started: false,
                        full_scan: true,
                    },
                );
                rescans += 1;
            }

            // Issue blocks from ready launches, in launch order, respecting
            // the concurrent-kernel limit; a block goes to whichever SM has
            // room for it. Only a launch that can do something is visited:
            // start (or be told to rescan), look at every SM, or place on a
            // dirty SM. `ahead` counts the rescanning launches after the
            // current one.
            let mut ahead = rescans;
            let mut k = 0;
            while k < issuable.len() {
                let w = &mut issuable[k];
                k += 1;
                let rescanned = w.full_scan;
                ahead -= rescanned as usize;
                if !w.started && active_kernels >= kernel_cap {
                    // Cannot start a new kernel yet (and rescans already,
                    // see `cap_reached` below).
                    debug_assert!(w.full_scan);
                    continue;
                }
                if !w.full_scan {
                    if stale {
                        any_admit = refresh_admits(spec, sms, dirty, demands, admits);
                        stale = false;
                    }
                    if !admits[w.demand as usize] {
                        // Stalled since an earlier round and no dirty SM
                        // has room: the visit would find nothing.
                        if ahead == 0 && !any_admit {
                            // Nor would the visit of any launch after it:
                            // none rescans, none is admitted, and the kernel
                            // cap holds back only rescanning ones.
                            break;
                        }
                        continue;
                    }
                }
                let i = w.launch as usize;
                let mut cap_reached = false;
                let l = &mut states[i];
                let demand = demands[w.demand as usize];
                while l.next_block < l.blocks {
                    let found = if w.full_scan {
                        best_sm(spec, sms, 0..sms.len(), &demand)
                    } else {
                        best_sm(spec, sms, dirty, &demand)
                    };
                    let Some(s) = found else {
                        // No SM has room: the launch waits for a
                        // completion, after which only the freed SM can
                        // admit it.
                        w.full_scan = false;
                        break;
                    };
                    let bc = costs.cost(i, l.next_block);
                    let sm = &mut sms[s];
                    sm.blocks += 1;
                    sm.warps += demand.warps;
                    sm.threads += demand.threads;
                    sm.shared += demand.shared;
                    sm.registers += demand.registers;
                    let (sm_blocks, sm_warps) = (sm.blocks, sm.warps);
                    let key = DurationKey {
                        issue_cycles: bc.issue_cycles.to_bits(),
                        mem_latency_cycles: bc.mem_latency_cycles.to_bits(),
                        mem_bytes: bc.mem_bytes,
                        sm_blocks: sm_blocks * !mutated(Mutation::MemoWithoutResidentBlocks) as u32,
                        sm_warps,
                        block_warps: demand.warps,
                    };
                    let dur_us = durations.get_or_insert(key, || {
                        // The SM's DRAM share is split among its resident
                        // blocks (this one included), so co-resident
                        // streaming blocks cannot jointly exceed card
                        // bandwidth.
                        let bw_cycles = if bw_per_sm > 0.0 {
                            bc.mem_bytes as f64 * sm_blocks as f64 / bw_per_sm
                        } else {
                            0.0
                        };
                        spec.cycles_to_us(cost.block_cycles(
                            bc.issue_cycles,
                            bc.mem_latency_cycles,
                            bw_cycles,
                            sm_warps,
                            demand.warps,
                        ))
                    });
                    sm.busy_us += dur_us;
                    sm.warp_us += dur_us * demand.warps as f64;
                    running.push(Reverse(Completion::new(now + dur_us, i, s)));
                    if !w.started {
                        w.started = true;
                        l.start_us = Some(now);
                        active_kernels += 1;
                        cap_reached = active_kernels == kernel_cap;
                    }
                    l.next_block += 1;
                    stale |= !mutated(Mutation::FlagsKeptAcrossPlacements);
                }
                let done = l.next_block == l.blocks;
                rescans = rescans + (!done && w.full_scan) as usize - rescanned as usize;
                if done {
                    k -= 1;
                    issuable.remove(k);
                }
                if cap_reached {
                    // No launch can start until a kernel ends, which takes
                    // a completion: every launch that has not started
                    // misses the dirty SMs of the rounds until then, so it
                    // rescans when the cap admits it. (One that failed
                    // earlier in this round would not have to, but a full
                    // scan finds what the dirty SM would.)
                    for (at, e) in issuable.iter_mut().enumerate() {
                        if !e.started && !e.full_scan {
                            e.full_scan = true;
                            rescans += 1;
                            ahead += (at >= k) as usize;
                        }
                    }
                }
            }

            if completed == n {
                break;
            }

            // Advance to the next completion; if none is in flight the only
            // remaining progress source is a pending ready time in the future.
            dirty = None;
            stale |= !mutated(Mutation::FlagsKeptAcrossRounds);
            match running.pop() {
                Some(Reverse(c)) => {
                    now = c.time_us().max(now);
                    let (launch, s) = (c.launch(), c.sm());
                    let l = &mut states[launch];
                    let demand = &demands[l.demand];
                    let sm = &mut sms[s];
                    sm.blocks -= 1;
                    sm.warps -= demand.warps;
                    sm.threads -= demand.threads;
                    sm.shared -= demand.shared;
                    sm.registers -= demand.registers;
                    dirty = Some(s);
                    l.completed_blocks += 1;
                    if l.completed_blocks == l.blocks {
                        end_launch(states, unblocked, launch, now);
                        active_kernels -= 1;
                        completed += 1;
                    }
                }
                None => {
                    // Jump to the earliest pending ready time strictly > now.
                    // Rare enough (an idle device) to scan every launch.
                    let next = states
                        .iter()
                        .filter_map(|s| s.ready_us)
                        .filter(|&t| t > now)
                        .fold(f64::INFINITY, f64::min);
                    assert!(
                        next.is_finite(),
                        "scheduler stalled: no completions and no future ready times \
                         ({completed}/{n} launches complete)"
                    );
                    now = next;
                }
            }
        }

        let mut events = Vec::with_capacity(n);
        let mut end_us = 0.0f64;
        for (i, (l, st)) in launches.zip(states.iter()).enumerate() {
            let start = st.start_us.expect("launch never started");
            let end = st.end_us.expect("launch never finished");
            end_us = end_us.max(end);
            events.push(TraceEvent {
                launch_idx: l.launch_idx,
                kernel_name: l.kernel_name,
                stream: l.stream,
                t_start_us: start,
                t_end_us: end,
                overhead_us: overhead,
                blocks: st.blocks as u64,
                occupancy: launch_occupancy(
                    spec,
                    l.threads_per_block,
                    l.warps_per_block,
                    l.shared_mem_bytes,
                    l.registers_per_thread,
                ),
                counters: costs.counters(i),
            });
        }
        Timeline {
            events,
            sm_busy_us: sms.iter().map(|s| s.busy_us).collect(),
            sm_warp_us: sms.iter().map(|s| s.warp_us).collect(),
            warps_per_sm: spec.max_warps_per_sm,
            end_us,
        }
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn record(idx: usize, stream: u32, blocks: usize, issue: f64, warps: u32) -> LaunchRecord {
        LaunchRecord {
            launch_idx: idx,
            kernel_name: "k",
            stream: StreamId(stream),
            shared_mem_bytes: 0,
            threads_per_block: warps * 32,
            warps_per_block: warps,
            registers_per_thread: 0,
            block_costs: vec![
                BlockCost {
                    issue_cycles: issue,
                    mem_latency_cycles: 0.0,
                    mem_bytes: 0
                };
                blocks
            ],
            counters: KernelCounters::default(),
        }
    }

    fn spec() -> DeviceSpec {
        DeviceSpec::gtx470()
    }

    #[test]
    fn serial_mode_serializes_streams() {
        // Two one-block kernels in different streams; serial mode must not
        // overlap them.
        let launches = vec![record(0, 1, 1, 1215.0, 8), record(1, 2, 1, 1215.0, 8)];
        let t = simulate(&spec(), &CostModel::default(), ExecMode::Serial, &launches);
        assert!(t.events[1].t_start_us >= t.events[0].t_end_us);
    }

    #[test]
    fn concurrent_mode_overlaps_independent_streams() {
        let launches = vec![record(0, 1, 1, 121_500.0, 8), record(1, 2, 1, 121_500.0, 8)];
        let t = simulate(&spec(), &CostModel::default(), ExecMode::Concurrent, &launches);
        // Both ~100us kernels overlap: span well below the 200us serial sum.
        assert!(t.span_us() < 150.0, "span {}", t.span_us());
        let s = simulate(&spec(), &CostModel::default(), ExecMode::Serial, &launches);
        assert!(s.span_us() > 200.0, "serial span {}", s.span_us());
    }

    #[test]
    fn same_stream_never_overlaps_even_concurrently() {
        let launches = vec![record(0, 3, 4, 50_000.0, 8), record(1, 3, 4, 50_000.0, 8)];
        let t = simulate(&spec(), &CostModel::default(), ExecMode::Concurrent, &launches);
        assert!(t.events[1].t_start_us >= t.events[0].t_end_us);
    }

    #[test]
    fn residency_limits_bound_parallelism() {
        // 1 SM, blocks of 48 warps each: only one fits at a time.
        let mut sp = DeviceSpec::single_sm();
        sp.launch_overhead_us = 0.0;
        let launches = vec![record(0, 1, 3, 1215.0, 48)];
        let t = simulate(&sp, &CostModel::default(), ExecMode::Concurrent, &launches);
        // 3 blocks x 1215 cycles at 1.215GHz = 3us total, serialized.
        assert!((t.span_us() - 3.0).abs() < 1e-9, "span {}", t.span_us());
    }

    #[test]
    fn register_pressure_limits_admission() {
        // 1 SM with a raised per-thread cap: a 256-thread block at 128
        // registers/thread burns the whole 32768-register file, so blocks
        // serialize even though warps (6), threads (6), smem and the
        // 8-block cap all allow more. Latency-bound blocks then cannot
        // hide each other's stalls: 3 blocks take 3x a lone block's 1us,
        // while without register pressure all three co-reside and the
        // span collapses onto the slowest lone block.
        let mut sp = DeviceSpec::single_sm();
        sp.launch_overhead_us = 0.0;
        sp.max_registers_per_thread = 128;
        let mut l = record(0, 1, 3, 0.0, 8);
        l.block_costs =
            vec![BlockCost { issue_cycles: 0.0, mem_latency_cycles: 4860.0, mem_bytes: 0 }; 3];
        l.registers_per_thread = 128;
        let t = simulate(&sp, &CostModel::default(), ExecMode::Concurrent, &[l.clone()]);
        assert!((t.span_us() - 3.0).abs() < 1e-9, "span {}", t.span_us());
        assert_eq!(t.events[0].occupancy.limit, OccupancyLimit::Registers);
        assert_eq!(t.events[0].occupancy.blocks_per_sm, 1);
        // Without register pressure the same three blocks run in one wave.
        l.registers_per_thread = 0;
        let free = simulate(&sp, &CostModel::default(), ExecMode::Concurrent, &[l]);
        assert!((free.span_us() - 1.0).abs() < 1e-9, "span {}", free.span_us());
    }

    #[test]
    fn limiting_factor_reports_the_scarcest_budget() {
        let sp = spec();
        // Tiny 1-warp blocks, no smem, no registers: nothing binds
        // before the 8-block cap.
        let o = launch_occupancy(&sp, 32, 1, 0, 0);
        assert_eq!(o.limit, OccupancyLimit::Blocks);
        assert_eq!(o.blocks_per_sm, 8);
        assert_eq!(o.resident_warps, 8);
        // 18-warp cascade-like blocks: the warp file runs out first
        // (floor(48/18) = 2 of the 8-block cap).
        let o = launch_occupancy(&sp, 576, 18, 0, 0);
        assert_eq!(o.limit, OccupancyLimit::Warps);
        assert_eq!(o.blocks_per_sm, 2);
        assert_eq!(o.resident_warps, 36, "3/4 of the 48-warp file");
        // Registers the strict scarcest: 384 threads x 22 regs = 8448 per
        // block bounds at 3 while warps (12/block) would allow 4.
        let o = launch_occupancy(&sp, 384, 12, 0, 22);
        assert_eq!(o.limit, OccupancyLimit::Registers);
        assert_eq!(o.blocks_per_sm, 3);
        // Shared memory the scarcest: 20 KiB blocks fit twice by smem.
        let o = launch_occupancy(&sp, 256, 8, 20 * 1024, 0);
        assert_eq!(o.limit, OccupancyLimit::SharedMem);
        assert_eq!(o.blocks_per_sm, 2);
    }

    #[test]
    fn timeline_reports_occupancy_per_launch_and_in_aggregate() {
        let mut wide = record(0, 1, 1, 1215.0, 18);
        wide.registers_per_thread = 16;
        let tiny = record(1, 2, 1, 1215.0, 1);
        let t = simulate(&spec(), &CostModel::default(), ExecMode::Concurrent, &[wide, tiny]);
        assert_eq!(t.events[0].occupancy.limit, OccupancyLimit::Warps);
        assert_eq!(t.events[0].occupancy.resident_warps, 36);
        assert_eq!(t.events[1].occupancy.limit, OccupancyLimit::Blocks);
        let counts = t.limiting_factor_counts();
        assert_eq!(counts["warps"], 1);
        assert_eq!(counts["blocks"], 1);
        // Mean theoretical occupancy: (36 + 8) / (2 * 48).
        assert!((t.mean_theoretical_occupancy() - 44.0 / 96.0).abs() < 1e-12);
    }

    #[test]
    fn zero_block_launch_completes_immediately() {
        let launches = vec![record(0, 1, 0, 0.0, 1), record(1, 1, 1, 1215.0, 8)];
        let t = simulate(&spec(), &CostModel::default(), ExecMode::Concurrent, &launches);
        assert_eq!(t.events[0].t_start_us, t.events[0].t_end_us);
        assert!(t.events[1].t_end_us > t.events[1].t_start_us);
    }

    #[test]
    fn wide_block_goes_at_the_first_completion_that_leaves_it_room() {
        // 1 SM, 48 warps. A 40-warp block leaves 8 warps free: too few for
        // the 18-warp block of the next launch, enough for a younger drip
        // of 8-warp blocks, which backfills them while the wide block
        // waits. Each drip completion frees 8 warps only; the 40-warp
        // block's completion is the first that leaves 18, and the wide
        // block, the older launch, is placed there.
        let mut sp = DeviceSpec::single_sm();
        sp.launch_overhead_us = 0.0;
        let launches = vec![
            record(0, 1, 1, 1_215_000.0, 40),
            record(1, 2, 1, 1215.0, 18),
            record(2, 3, 2000, 12_150.0, 8),
        ];
        let t = simulate(&sp, &CostModel::default(), ExecMode::Concurrent, &launches);
        let (big, wide, drip) = (&t.events[0], &t.events[1], &t.events[2]);
        assert_eq!(drip.t_start_us, 0.0, "the drip backfills the free warps");
        assert_eq!(wide.t_start_us, big.t_end_us, "placed when the 40 warps leave");
        assert!(drip.t_end_us > wide.t_start_us, "the drip was still dripping");
    }

    #[test]
    fn utilization_reflects_idle_sms() {
        // One tiny single-block kernel (8 of 48 warps on 1 of 14 SMs):
        // warp occupancy ~ 8 / (48 * 14) ~ 1.2%.
        let launches = vec![record(0, 1, 1, 1_215_000.0, 8)];
        let t = simulate(&spec(), &CostModel::default(), ExecMode::Concurrent, &launches);
        let u = t.sm_utilization();
        assert!(u < 0.02, "utilization {u} should be ~1%");
        assert!(u > 0.005, "utilization {u} should be nonzero");
    }

    #[test]
    fn many_small_kernels_pack_under_concurrency() {
        // 14 single-block kernels in 14 streams; concurrent span ~ 1 kernel.
        let launches: Vec<_> =
            (0..14).map(|i| record(i, i as u32 + 1, 1, 1_215_000.0, 8)).collect();
        let cm = CostModel::default();
        let c = simulate(&spec(), &cm, ExecMode::Concurrent, &launches);
        let s = simulate(&spec(), &cm, ExecMode::Serial, &launches);
        assert!(
            s.span_us() / c.span_us() > 8.0,
            "serial {} vs concurrent {}",
            s.span_us(),
            c.span_us()
        );
    }
}
