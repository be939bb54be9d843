//! Differential oracle for [`simulate`]: the pre-rewrite event loop, three
//! seeded generators of launch sets (a broad one, one that keeps many
//! launches stalled at once, which is where the issue walk skips visits,
//! and one shaped like a served batch, whose repeating costs are where the
//! duration memo answers), the hand-built case in which a launch that
//! rescans only the dirty SMs would miss one that admits it, a cost source
//! that checks the loop asks for a launch's costs no sooner than it places
//! the launch, and the tests that switch on the loop's [`Mutation`]s.

use super::*;

/// A block leaving its SM, carrying what it gives back.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Completion {
    time_us: f64,
    sm: usize,
    launch: usize,
    warps: u32,
    threads: u32,
    shared: u32,
    registers: u32,
}

impl Eq for Completion {}
impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Total order: by time, then launch index, then SM (deterministic).
        self.time_us
            .partial_cmp(&other.time_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.launch.cmp(&other.launch))
            .then(self.sm.cmp(&other.sm))
    }
}

#[derive(Debug)]
struct LaunchState {
    ready_us: Option<f64>,
    next_block: usize,
    completed_blocks: usize,
    start_us: Option<f64>,
    end_us: Option<f64>,
}

/// The event loop [`simulate`] had before it became event-driven, kept
/// verbatim: every round re-derives readiness, the active-kernel count and
/// the issue order from all `n` launches, and every waiting launch scans
/// every SM. Slow and obviously faithful to the scheduling rules, which is
/// what an oracle should be.
fn simulate_reference(
    spec: &DeviceSpec,
    cost: &CostModel,
    mode: ExecMode,
    launches: &[LaunchRecord],
) -> Timeline {
    let n = launches.len();
    let mut sms = vec![
        SmState {
            blocks: 0,
            warps: 0,
            threads: 0,
            shared: 0,
            registers: 0,
            busy_us: 0.0,
            warp_us: 0.0
        };
        spec.sm_count as usize
    ];
    let mut states: Vec<LaunchState> = (0..n)
        .map(|_| LaunchState {
            ready_us: None,
            next_block: 0,
            completed_blocks: 0,
            start_us: None,
            end_us: None,
        })
        .collect();
    // Launch overhead actually charged to each launch, reported on the
    // trace so tools can attribute it as its own slice (fusion's saved
    // overheads then show up in traces, not just aggregate spans).
    let mut overheads = vec![0.0f64; n];

    // Precompute each launch's in-stream predecessor. The readiness loop
    // below runs every event-loop round; scanning `(0..i).rev()` there
    // made each round O(n^2) in the launch count. One forward pass with a
    // per-stream "last seen" map yields the same predecessor indices.
    let mut stream_pred: Vec<Option<usize>> = Vec::with_capacity(n);
    let mut last_in_stream: std::collections::HashMap<StreamId, usize> = Default::default();
    for (i, l) in launches.iter().enumerate() {
        stream_pred.push(last_in_stream.insert(l.stream, i));
    }

    let bw_per_sm = spec.dram_bytes_per_cycle() / spec.sm_count as f64;
    let mut heap: BinaryHeap<Reverse<Completion>> = BinaryHeap::new();
    let mut now = 0.0f64;
    let mut completed = 0usize;
    // A launch with zero blocks completes the instant it becomes ready.
    let zero_block_complete = |states: &mut Vec<LaunchState>, idx: usize, t: f64| -> bool {
        if launches[idx].block_costs.is_empty() {
            states[idx].start_us = Some(t);
            states[idx].end_us = Some(t);
            true
        } else {
            false
        }
    };

    loop {
        // Refresh readiness: a launch is ready when its stream predecessor
        // and serial predecessor (in Serial mode) are done.
        for i in 0..n {
            if states[i].ready_us.is_some() {
                continue;
            }
            let mut ready_at = 0.0f64;
            let mut ok = true;
            // Stream-order predecessor.
            if let Some(prev) = stream_pred[i] {
                match states[prev].end_us {
                    Some(t) => ready_at = ready_at.max(t),
                    None => ok = false,
                }
            }
            // Global serialization.
            if ok && mode == ExecMode::Serial && i > 0 {
                match states[i - 1].end_us {
                    Some(t) => ready_at = ready_at.max(t),
                    None => ok = false,
                }
            }
            if ok {
                let overhead = spec.launch_overhead_us
                    + if mode == ExecMode::Serial {
                        spec.serial_profiling_overhead_us
                    } else {
                        0.0
                    };
                let t = ready_at.max(now) + overhead;
                overheads[i] = overhead;
                states[i].ready_us = Some(t);
                if zero_block_complete(&mut states, i, t) {
                    completed += 1;
                }
            }
        }

        // Issue blocks from ready launches, in launch order, respecting the
        // concurrent-kernel limit.
        let mut active_kernels: u32 = (0..n)
            .filter(|&i| states[i].next_block > 0 && states[i].end_us.is_none())
            .count() as u32;
        let kernel_cap = match mode {
            ExecMode::Serial => 1,
            ExecMode::Concurrent => spec.max_concurrent_kernels,
        };
        for i in 0..n {
            let ready = matches!(states[i].ready_us, Some(t) if t <= now);
            if !ready || states[i].next_block >= launches[i].block_costs.len() {
                continue;
            }
            if states[i].next_block == 0 && active_kernels >= kernel_cap {
                continue; // cannot start a new kernel yet
            }
            let l = &launches[i];
            let started_before = states[i].next_block > 0;
            while states[i].next_block < l.block_costs.len() {
                // Find the SM with the most free warps that fits this block.
                let mut best: Option<usize> = None;
                let mut best_free = 0i64;
                for (s, sm) in sms.iter().enumerate() {
                    let block_registers =
                        l.registers_per_thread.saturating_mul(l.threads_per_block);
                    let fits = sm.blocks < spec.max_blocks_per_sm
                        && sm.warps + l.warps_per_block <= spec.max_warps_per_sm
                        && sm.threads + l.threads_per_block <= spec.max_threads_per_sm
                        && sm.shared + l.shared_mem_bytes <= spec.shared_mem_per_sm
                        && sm.registers + block_registers <= spec.registers_per_sm;
                    if fits {
                        let free = spec.max_warps_per_sm as i64 - sm.warps as i64;
                        if best.is_none() || free > best_free {
                            best = Some(s);
                            best_free = free;
                        }
                    }
                }
                let Some(s) = best else {
                    break; // waits for a completion
                };
                let bc = l.block_costs[states[i].next_block];
                let block_registers = l.registers_per_thread.saturating_mul(l.threads_per_block);
                let sm = &mut sms[s];
                sm.blocks += 1;
                sm.warps += l.warps_per_block;
                sm.threads += l.threads_per_block;
                sm.shared += l.shared_mem_bytes;
                sm.registers += block_registers;
                // The SM's DRAM share is split among its resident blocks
                // (sm.blocks already includes this one), so co-resident
                // streaming blocks cannot jointly exceed card bandwidth.
                let bw_cycles = if bw_per_sm > 0.0 {
                    bc.mem_bytes as f64 * sm.blocks as f64 / bw_per_sm
                } else {
                    0.0
                };
                let cycles = cost.block_cycles(
                    bc.issue_cycles,
                    bc.mem_latency_cycles,
                    bw_cycles,
                    sm.warps,
                    l.warps_per_block,
                );
                let dur_us = spec.cycles_to_us(cycles);
                sm.busy_us += dur_us;
                sm.warp_us += dur_us * l.warps_per_block as f64;
                heap.push(Reverse(Completion {
                    time_us: now + dur_us,
                    sm: s,
                    launch: i,
                    warps: l.warps_per_block,
                    threads: l.threads_per_block,
                    shared: l.shared_mem_bytes,
                    registers: block_registers,
                }));
                if states[i].next_block == 0 {
                    states[i].start_us = Some(now);
                }
                states[i].next_block += 1;
            }
            if !started_before && states[i].next_block > 0 {
                active_kernels += 1;
                if active_kernels >= kernel_cap {
                    // Later launches may still *become* ready; they just
                    // cannot start issuing this round.
                    continue;
                }
            }
        }

        if completed == n {
            break;
        }

        // Advance to the next completion; if the heap is empty the only
        // remaining progress source is a pending ready time in the future.
        match heap.pop() {
            Some(Reverse(c)) => {
                now = c.time_us.max(now);
                let sm = &mut sms[c.sm];
                sm.blocks -= 1;
                sm.warps -= c.warps;
                sm.threads -= c.threads;
                sm.shared -= c.shared;
                sm.registers -= c.registers;
                states[c.launch].completed_blocks += 1;
                if states[c.launch].completed_blocks == launches[c.launch].block_costs.len() {
                    states[c.launch].end_us = Some(now);
                    completed += 1;
                }
            }
            None => {
                // Jump to the earliest pending ready time strictly > now.
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
    for (i, l) in launches.iter().enumerate() {
        let start = states[i].start_us.expect("launch never started");
        let end = states[i].end_us.expect("launch never finished");
        end_us = end_us.max(end);
        events.push(TraceEvent {
            launch_idx: l.launch_idx,
            kernel_name: l.kernel_name,
            stream: l.stream,
            t_start_us: start,
            t_end_us: end,
            overhead_us: overheads[i],
            blocks: l.block_costs.len() as u64,
            occupancy: launch_occupancy(
                spec,
                l.threads_per_block,
                l.warps_per_block,
                l.shared_mem_bytes,
                l.registers_per_thread,
            ),
            counters: l.counters,
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

/// SplitMix64: the generator must not depend on a crate the simulator
/// does not otherwise need.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// One generated scenario: a device and a launch set valid on it.
fn generate(seed: u64) -> (DeviceSpec, Vec<LaunchRecord>) {
    let mut rng = Rng(seed);
    let mut spec = if rng.chance(35) { DeviceSpec::single_sm() } else { DeviceSpec::gtx470() };
    spec.launch_overhead_us = rng.pick(&[0.0, 0.0, 0.75, spec.launch_overhead_us]);
    spec.max_concurrent_kernels = rng.pick(&[1, 2, 16]);

    let n = match rng.below(10) {
        0..=4 => 1 + rng.below(12),
        5..=8 => 1 + rng.below(60),
        _ => 1 + rng.below(200),
    } as usize;
    let streams = 1 + rng.below(24) as u32;
    let mut launches: Vec<LaunchRecord> = Vec::with_capacity(n);
    for i in 0..n {
        let warps = rng.pick(&[1, 8, 8, 18, 48]);
        let threads = warps * 32;
        // Most blocks are bound by warps or the block cap; some by shared
        // memory (two or one per SM), some by the register file.
        let (mut shared, mut regs) = match rng.below(10) {
            0 => (20 * 1024, 0),
            1 => (40 * 1024, 0),
            2 => (0, 63),
            3 => (0, 32),
            _ => (0, rng.pick(&[0, 16])),
        };
        if launch_occupancy(&spec, threads, warps, shared, regs).blocks_per_sm == 0 {
            (shared, regs) = (0, 0);
        }
        let blocks = match rng.below(100) {
            0..=9 => 0,
            10..=29 => 1,
            30..=89 => 2 + rng.below(40),
            90..=97 => 50 + rng.below(300),
            _ => 1000 + rng.below(2500),
        } as usize;
        // Uniform costs make completions tie on time, which is where the
        // (time, launch, SM) order and the lowest-index SM rule decide.
        let uniform = rng.chance(50);
        let cost = |rng: &mut Rng| BlockCost {
            issue_cycles: (200 + rng.below(6000)) as f64,
            mem_latency_cycles: if rng.chance(40) { (400 * rng.below(30)) as f64 } else { 0.0 },
            mem_bytes: if rng.chance(40) { 128 * rng.below(64) } else { 0 },
        };
        let first = cost(&mut rng);
        let block_costs =
            (0..blocks).map(|_| if uniform { first } else { cost(&mut rng) }).collect();
        // Bias towards following a zero-block launch in its stream: the
        // follower becomes ready inside the round that completed it.
        let stream = match launches.last() {
            Some(prev) if prev.block_costs.is_empty() && rng.chance(40) => prev.stream,
            _ => StreamId(rng.below(streams as u64) as u32),
        };
        launches.push(LaunchRecord {
            launch_idx: 1000 + i,
            kernel_name: "k",
            stream,
            shared_mem_bytes: shared,
            threads_per_block: threads,
            warps_per_block: warps,
            registers_per_thread: regs,
            block_costs,
            counters: KernelCounters::default(),
        });
    }
    (spec, launches)
}

/// A scenario with many launches stalled at once: 16 to 40 streams with
/// one or two launches each, all issuable from the start (no overhead, a
/// kernel cap above the stream count), a few dozen to a few hundred blocks
/// per launch, and five block footprints that compete for different
/// budgets on a device of 2 to 14 SMs — narrow blocks backfill around
/// wide ones, so launches stall and resume side by side all the time.
fn generate_stalled(seed: u64) -> (DeviceSpec, Vec<LaunchRecord>) {
    let mut rng = Rng(seed);
    let mut spec = DeviceSpec::gtx470();
    spec.sm_count = rng.pick(&[2, 3, 5, 14]);
    spec.launch_overhead_us = rng.pick(&[0.0, 0.0, 0.5]);
    spec.max_concurrent_kernels = rng.pick(&[64, 64, 20]);
    let streams = 16 + rng.below(25) as u32;
    // (warps, shared memory, registers per thread)
    const FOOTPRINTS: [(u32, u32, u32); 5] =
        [(8, 0, 16), (8, 1296, 16), (18, 9216, 22), (48, 0, 0), (4, 20 * 1024, 63)];
    let mut launches = Vec::new();
    for round in 0..1 + rng.below(2) {
        for stream in 0..streams {
            if round > 0 && rng.chance(50) {
                continue;
            }
            let (warps, shared, regs) = rng.pick(&FOOTPRINTS);
            let uniform = rng.chance(60);
            let cost = |rng: &mut Rng| BlockCost {
                issue_cycles: (300 + rng.below(4000)) as f64,
                mem_latency_cycles: if rng.chance(50) { (400 * rng.below(20)) as f64 } else { 0.0 },
                mem_bytes: if rng.chance(50) { 128 * rng.below(64) } else { 0 },
            };
            let first = cost(&mut rng);
            let most = if rng.chance(20) { 600 } else { 120 };
            let blocks = 20 + rng.below(most);
            launches.push(LaunchRecord {
                launch_idx: launches.len(),
                kernel_name: "k",
                stream: StreamId(stream),
                shared_mem_bytes: shared,
                threads_per_block: warps * 32,
                warps_per_block: warps,
                registers_per_thread: regs,
                block_costs: (0..blocks)
                    .map(|_| if uniform { first } else { cost(&mut rng) })
                    .collect(),
                counters: KernelCounters::default(),
            });
        }
    }
    (spec, launches)
}

/// A served batch: 3 to 5 pyramid levels of 1 to 8 stacked frames, each
/// level's eight launches (scale, filter, two scans and two transposes,
/// cascade, display) in the level's own stream, a block one 16 × 16 tile or
/// one image row of every frame, the frames stacked on `grid.z`. Costs
/// repeat: every launch draws its cost from a pool shared by the whole set,
/// and its edge blocks (last tile column, last tile row, last row) carry a
/// copy with one field changed. One cost thus lands on SMs in many load
/// states, from launches of different widths side by side — what a
/// duration memo keyed on too little would answer wrongly.
fn generate_served(seed: u64) -> (DeviceSpec, Vec<LaunchRecord>) {
    let mut rng = Rng(seed);
    let mut spec = DeviceSpec::gtx470();
    spec.launch_overhead_us = rng.pick(&[0.0, spec.launch_overhead_us]);
    let frames = 1 + rng.below(8) as u32;
    let (mut width, mut height): (u32, u32) = rng.pick(&[(64, 48), (80, 60), (96, 72)]);
    let pool: Vec<BlockCost> = (0..4)
        .map(|_| BlockCost {
            issue_cycles: (100 + rng.below(3000)) as f64,
            mem_latency_cycles: if rng.chance(50) { (400 * rng.below(8)) as f64 } else { 0.0 },
            mem_bytes: 128 * rng.below(48),
        })
        .collect();
    // (16 × 16 tiles, else rows; rows along the frame's width; shared
    // memory per tile or per row element; registers per thread)
    const KERNELS: [(bool, bool, u32, u32); 8] = [
        (true, true, 0, 16),
        (true, true, 1296, 16),
        (false, true, 4, 12),
        (true, true, 1088, 12),
        (false, false, 4, 12),
        (true, true, 1088, 12),
        (true, true, 9216, 22),
        (false, true, 0, 8),
    ];
    let mut launches = Vec::new();
    for level in 0..3 + rng.below(3) {
        for (tiles, along_width, shared, regs) in KERNELS {
            let (threads, cols, rows) = match (tiles, along_width) {
                (true, _) => (256, width.div_ceil(16), height.div_ceil(16)),
                (false, true) => (width, 1, height),
                (false, false) => (height, 1, width),
            };
            let shared = if tiles { shared } else { shared * threads };
            let base = rng.pick(&pool);
            let mut edge = base;
            match rng.below(3) {
                0 => edge.issue_cycles += (1 + rng.below(200)) as f64,
                1 => edge.mem_latency_cycles += 400.0,
                _ => edge.mem_bytes += 128,
            }
            let frame: Vec<BlockCost> = (0..rows)
                .flat_map(|y| (0..cols).map(move |x| (x, y)))
                .map(|(x, y)| if x + 1 == cols || y + 1 == rows { edge } else { base })
                .collect();
            launches.push(LaunchRecord {
                launch_idx: launches.len(),
                kernel_name: "k",
                stream: StreamId(level as u32),
                shared_mem_bytes: shared,
                threads_per_block: threads,
                warps_per_block: threads.div_ceil(32),
                registers_per_thread: regs,
                block_costs: frame.repeat(frames as usize),
                counters: KernelCounters::default(),
            });
        }
        (width, height) = (width * 4 / 5, height * 4 / 5);
    }
    (spec, launches)
}

/// Any device with a launch set whose every block fits its empty SM: 1 to 4
/// SMs, each per-SM budget drawn on its own (a budget may be zero where no
/// block demands it), a kernel cap of 1, 2 or 16, overheads of 0 or 8 µs.
/// Blocks draw their threads, shared memory and registers up to the SM's
/// budget, so a single block may fill an SM.
fn generate_any_device(seed: u64) -> (DeviceSpec, Vec<LaunchRecord>) {
    let mut rng = Rng(seed);
    let mut spec = DeviceSpec::gtx470();
    spec.sm_count = 1 + rng.below(4) as u32;
    spec.max_blocks_per_sm = rng.pick(&[1, 2, 3, 8]);
    spec.max_warps_per_sm = rng.pick(&[1, 4, 18, 48]);
    spec.max_threads_per_sm = (1 + rng.below(spec.max_warps_per_sm as u64 * 32)) as u32;
    spec.shared_mem_per_sm = rng.pick(&[0, 1024, 48 * 1024]);
    spec.registers_per_sm = rng.pick(&[0, 4096, 32 * 1024]);
    spec.max_concurrent_kernels = rng.pick(&[1, 2, 16]);
    spec.launch_overhead_us = rng.pick(&[0.0, 8.0]);
    spec.serial_profiling_overhead_us = rng.pick(&[0.0, 8.0]);

    let n = 1 + rng.below(40) as usize;
    let streams = 1 + rng.below(8);
    let mut launches: Vec<LaunchRecord> = Vec::with_capacity(n);
    for i in 0..n {
        let threads = 1 + rng.below(spec.max_threads_per_sm as u64) as u32;
        let shared = rng.below(spec.shared_mem_per_sm as u64 + 1) as u32;
        let regs = rng.below((spec.registers_per_sm / threads) as u64 + 1) as u32;
        let blocks = match rng.below(10) {
            0 => 0,
            1..=7 => 1 + rng.below(30),
            _ => 100 + rng.below(200),
        };
        let block_costs = (0..blocks)
            .map(|_| BlockCost {
                issue_cycles: (200 + rng.below(6000)) as f64,
                mem_latency_cycles: if rng.chance(40) { (400 * rng.below(30)) as f64 } else { 0.0 },
                mem_bytes: if rng.chance(40) { 128 * rng.below(64) } else { 0 },
            })
            .collect();
        launches.push(LaunchRecord {
            launch_idx: i,
            kernel_name: "k",
            stream: StreamId(rng.below(streams) as u32),
            shared_mem_bytes: shared,
            threads_per_block: threads,
            warps_per_block: threads.div_ceil(32),
            registers_per_thread: regs,
            block_costs,
            counters: KernelCounters::default(),
        });
        let fits = launch_occupancy(&spec, threads, threads.div_ceil(32), shared, regs);
        assert!(fits.blocks_per_sm >= 1, "seed {seed}: launch {i} fits no SM");
    }
    (spec, launches)
}

/// Field-by-field equality; floats by bit pattern.
fn assert_identical(got: &Timeline, want: &Timeline, what: &str) {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(got.events.len(), want.events.len(), "{what}: event count");
    for (k, (g, w)) in got.events.iter().zip(&want.events).enumerate() {
        assert_eq!(g.launch_idx, w.launch_idx, "{what}: launch {k} launch_idx");
        assert_eq!(g.kernel_name, w.kernel_name, "{what}: launch {k} kernel_name");
        assert_eq!(g.stream, w.stream, "{what}: launch {k} stream");
        assert_eq!(g.t_start_us.to_bits(), w.t_start_us.to_bits(), "{what}: launch {k} t_start");
        assert_eq!(g.t_end_us.to_bits(), w.t_end_us.to_bits(), "{what}: launch {k} t_end");
        assert_eq!(g.overhead_us.to_bits(), w.overhead_us.to_bits(), "{what}: launch {k} overhead");
        assert_eq!(g.blocks, w.blocks, "{what}: launch {k} blocks");
        assert_eq!(g.occupancy, w.occupancy, "{what}: launch {k} occupancy");
        assert_eq!(g.counters, w.counters, "{what}: launch {k} counters");
    }
    assert_eq!(bits(&got.sm_busy_us), bits(&want.sm_busy_us), "{what}: sm_busy_us");
    assert_eq!(bits(&got.sm_warp_us), bits(&want.sm_warp_us), "{what}: sm_warp_us");
    assert_eq!(got.warps_per_sm, want.warps_per_sm, "{what}: warps_per_sm");
    assert_eq!(got.end_us.to_bits(), want.end_us.to_bits(), "{what}: end_us");
}

/// Runs one loop; a panic (the stall assertion) becomes its message.
fn outcome(run: impl FnOnce() -> Timeline) -> Result<Timeline, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
        .map_err(|p| p.downcast_ref::<String>().cloned().unwrap_or_default())
}

/// Both loops over `seeds` scenarios of `generate`: every one completes in
/// both, with equal timelines. Every generated block fits an empty SM, so
/// a stall is a bug.
fn differential(mode: ExecMode, generate: fn(u64) -> (DeviceSpec, Vec<LaunchRecord>), seeds: u64) {
    let cost = CostModel::default();
    // One scratch for the whole sweep, as `Gpu` keeps one across scopes:
    // nothing of one scenario may leak into the next.
    let mut scratch = SchedScratch::default();
    for seed in 0..seeds {
        let (spec, launches) = generate(seed ^ 0x5eed_0000);
        let want = outcome(|| simulate_reference(&spec, &cost, mode, &launches));
        let got = outcome(|| scratch.simulate(&spec, &cost, mode, &launches));
        let what = format!("seed {seed} {mode:?}");
        match (got, want) {
            (Ok(got), Ok(want)) => assert_identical(&got, &want, &format!("timeline of {what}")),
            (got, want) => {
                panic!("{what}: a loop did not complete: {:?} vs {:?}", got.err(), want.err())
            }
        }
    }
}

#[test]
fn event_driven_loop_matches_reference_concurrent() {
    differential(ExecMode::Concurrent, generate, 640);
}

#[test]
fn event_driven_loop_matches_reference_serial() {
    differential(ExecMode::Serial, generate, 640);
}

#[test]
fn many_stalled_launches_match_reference() {
    // The generator does what it says: streams, footprints, launches
    // waiting side by side.
    let (_, launches) = generate_stalled(0x5eed_0000);
    let streams: std::collections::HashSet<_> = launches.iter().map(|l| l.stream).collect();
    let footprints: std::collections::HashSet<_> =
        launches.iter().map(|l| (l.warps_per_block, l.shared_mem_bytes)).collect();
    assert!(streams.len() >= 16 && footprints.len() >= 3, "{streams:?} {footprints:?}");
    differential(ExecMode::Concurrent, generate_stalled, 200);
    differential(ExecMode::Serial, generate_stalled, 40);
}

#[test]
fn served_batches_match_reference() {
    // The generator does what it says: one cost on launches of different
    // widths, and a pair of costs that differ in one field.
    let (_, launches) = generate_served(0x5eed_0000);
    let widths_of = |c: &BlockCost| {
        let on = launches.iter().filter(|l| l.block_costs.contains(c));
        on.map(|l| l.warps_per_block).collect::<std::collections::HashSet<_>>().len()
    };
    assert!(launches.iter().any(|l| widths_of(&l.block_costs[0]) > 1));
    let fields = |a: &BlockCost, b: &BlockCost| {
        (a.issue_cycles != b.issue_cycles) as u32
            + (a.mem_latency_cycles != b.mem_latency_cycles) as u32
            + (a.mem_bytes != b.mem_bytes) as u32
    };
    assert!(launches
        .iter()
        .all(|l| l.block_costs.iter().all(|c| fields(c, &l.block_costs[0]) <= 1)));
    differential(ExecMode::Concurrent, generate_served, 200);
    differential(ExecMode::Serial, generate_served, 40);
}

#[test]
fn any_device_that_fits_every_block_completes() {
    differential(ExecMode::Concurrent, generate_any_device, 640);
    differential(ExecMode::Serial, generate_any_device, 640);
}

/// The served sweep the mutation tests run.
fn served_sweep() {
    differential(ExecMode::Concurrent, generate_served, 60);
}

/// The served sweep must notice (as a different timeline, not a crash) a
/// duration memo that answers for a block on an SM with other resident
/// blocks …
#[test]
#[should_panic(expected = "timeline of")]
fn served_sweep_catches_a_memo_key_without_resident_blocks() {
    with_mutation(Mutation::MemoWithoutResidentBlocks, served_sweep);
}

/// … and skip decisions that read footprint flags computed before the
/// completion that started the round: a launch the freed SM admits is
/// skipped, and once nothing is in flight the loop stalls.
#[test]
#[should_panic(expected = "a loop did not complete")]
fn served_sweep_catches_flags_kept_across_rounds() {
    with_mutation(Mutation::FlagsKeptAcrossRounds, served_sweep);
}

/// A placement that does not mark the flags stale changes no decision: a
/// placement only takes room away, so a `true` gone stale costs a visit
/// that finds nothing. If a change of the rules makes the mark
/// load-bearing, this test says so.
#[test]
fn flags_kept_across_placements_change_no_decision() {
    with_mutation(Mutation::FlagsKeptAcrossPlacements, || {
        served_sweep();
        differential(ExecMode::Concurrent, generate_stalled, 60);
    });
}

/// Two SMs, no launch overhead, every launch in its own stream.
fn two_sms(max_concurrent_kernels: u32) -> DeviceSpec {
    DeviceSpec {
        sm_count: 2,
        launch_overhead_us: 0.0,
        max_concurrent_kernels,
        ..DeviceSpec::gtx470()
    }
}

const SHORT: f64 = 12_150.0; // 10 us alone on an SM
const LONG: f64 = 1_215_000.0; // 1 ms alone on an SM

fn launch(idx: usize, warps: u32, issue_cycles: &[f64]) -> LaunchRecord {
    LaunchRecord {
        launch_idx: idx,
        kernel_name: "k",
        stream: StreamId(idx as u32 + 1),
        shared_mem_bytes: 0,
        threads_per_block: warps * 32,
        warps_per_block: warps,
        registers_per_thread: 0,
        block_costs: issue_cycles
            .iter()
            .map(|&issue_cycles| BlockCost { issue_cycles, mem_latency_cycles: 0.0, mem_bytes: 0 })
            .collect(),
        counters: KernelCounters::default(),
    }
}

fn both(spec: &DeviceSpec, launches: &[LaunchRecord], what: &str) -> Timeline {
    let cost = CostModel::default();
    let want = simulate_reference(spec, &cost, ExecMode::Concurrent, launches);
    let got = simulate(spec, &cost, ExecMode::Concurrent, launches);
    assert_identical(&got, &want, what);
    got
}

#[test]
fn launch_skipped_by_the_kernel_cap_rescans_every_sm() {
    // Launch 3 (20 warps) finds no SM in round 1; launch 4 then starts as
    // the 4th kernel, so round 2 skips launch 3 at the cap and it never
    // sees that round's dirty SM0 (launch 0's short block left it). Round 3
    // follows launch 2 ending on SM1: the cap admits launch 3 again, SM1 is
    // the only dirty SM and too full, SM0 fits.
    let launches = [
        launch(0, 30, &[SHORT, LONG]), // SM0, SM1
        launch(1, 4, &[LONG]),         // SM0
        launch(2, 10, &[SHORT]),       // SM1, 4x stretched: ends second
        launch(3, 20, &[LONG]),
        launch(4, 2, &[LONG]), // SM0
    ];
    let t = both(&two_sms(4), &launches, "cap skip");
    assert!(t.events[0].t_end_us > t.events[2].t_end_us, "the short block ends first");
    assert_eq!(t.events[3].t_start_us, t.events[2].t_end_us, "placed when the cap admits it");
}

/// The recorded costs of a launch set, checking what the loop asks and
/// when: [`crate::Gpu::synchronize`] answers from a drain that is still
/// running, so a question asked early is host time spent waiting.
struct Counting<'a> {
    launches: &'a [LaunchRecord],
    /// Per launch, the launches it waits on.
    deps: Vec<Vec<usize>>,
    /// Per launch, how many of its blocks' costs were asked for.
    asked: Vec<usize>,
}

impl<'a> Counting<'a> {
    fn new(mode: ExecMode, launches: &'a [LaunchRecord]) -> Self {
        let mut last_in_stream = HashMap::new();
        let deps = launches
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let serial = (mode == ExecMode::Serial && i > 0).then(|| i - 1);
                last_in_stream.insert(l.stream, i).into_iter().chain(serial).collect()
            })
            .collect();
        Self { launches, deps, asked: vec![0; launches.len()] }
    }
}

impl BlockCosts for Counting<'_> {
    fn blocks(&self, launch: usize) -> usize {
        self.launches[launch].block_costs.len()
    }

    fn cost(&mut self, launch: usize, block: usize) -> BlockCost {
        assert!(block < self.blocks(launch), "launch {launch} has no block {block}");
        assert_eq!(block, self.asked[launch], "launch {launch}: blocks in order, each once");
        if block == 0 {
            // The first placement: everything the launch waits on has
            // ended, so all of that was placed — and asked for — before.
            for &d in &self.deps[launch] {
                assert_eq!(self.asked[d], self.blocks(d), "launch {launch} asked before {d} ended");
            }
        }
        self.asked[launch] += 1;
        self.launches[launch].block_costs[block]
    }

    fn counters(&mut self, launch: usize) -> KernelCounters {
        assert_eq!(self.asked[launch], self.blocks(launch), "launch {launch}: counters come last");
        self.launches[launch].counters
    }
}

#[test]
fn costs_are_first_asked_for_at_a_launchs_first_placement() {
    let cost = CostModel::default();
    let mut scratch = SchedScratch::default();
    for (generate, seeds) in [(generate as fn(u64) -> _, 200), (generate_stalled, 60)] {
        for seed in 0..seeds {
            let (spec, launches): (DeviceSpec, Vec<LaunchRecord>) = generate(seed ^ 0x5eed_0000);
            for mode in [ExecMode::Concurrent, ExecMode::Serial] {
                let want = simulate(&spec, &cost, mode, &launches);
                let mut counting = Counting::new(mode, &launches);
                let got = scratch.simulate_from(&spec, &cost, mode, launches.iter(), &mut counting);
                assert_identical(&got, &want, &format!("seed {seed} {mode:?}"));
                // Every block was asked for (a zero-block launch has none).
                assert!(counting.asked.iter().enumerate().all(|(i, &a)| a == counting.blocks(i)));
            }
        }
    }
}
