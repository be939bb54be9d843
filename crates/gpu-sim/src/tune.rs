//! Occupancy-driven launch-shape autotuning.
//!
//! Fixed, hand-picked block shapes leave residency on the table: the
//! cascade's 24x24 blocks are 18 warps each, so at most 2 fit under the
//! 48-warp SM cap (75 % theoretical occupancy), and a small pyramid
//! level's handful of fat blocks cannot even cover all 14 SMs. Many
//! kernels are *shape-polymorphic*, though — the same per-element work
//! can be tiled into narrower blocks without changing any output byte.
//!
//! A kernel advertises the functionally-equivalent tilings it supports as
//! a [`ShapeFamily`] of [`ShapeCandidate`]s ([`Kernel::shape_family`];
//! `shapes[0]` is the kernel's built-in default). The tuner scores every
//! legal candidate against the scheduler's theoretical-occupancy model
//! ([`launch_occupancy`]) combined with the [`CostModel`]'s block-time
//! formula, and caches the winner per `(kernel, geometry class)` in a
//! [`ShapeCache`]. Scoring is a pure function of the device spec, the
//! cost model and the candidate — no measurement, no randomness — so the
//! cache is deterministic and the functional results are byte-identical
//! across shapes by construction (only timing may move).
//!
//! Consumers switch tuning on through their own configuration; off means
//! every consumer keeps its built-in shape and the pipeline is
//! bit-identical to the pre-autotune behaviour, timing included.
//!
//! [`Kernel::shape_family`]: crate::Kernel::shape_family

use std::collections::BTreeMap;

use crate::cost::CostModel;
use crate::device::DeviceSpec;
use crate::dim::Dim3;
use crate::sched::launch_occupancy;

/// No longer read; kept because the repo benchmark refuses to run with it
/// set. Consumers switch autotuning on through their own configuration.
pub const AUTOTUNE_ENV_VAR: &str = "FD_SIM_AUTOTUNE";

/// The geometry equivalence class a tuned shape is valid for: the logical
/// element domain a launch covers. Two launches of the same kernel over
/// the same domain get the same shape, so batches formed per geometry
/// class (the serving layer's batching key) share one tuned shape across
/// every part.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GeomClass {
    pub width: u32,
    pub height: u32,
}

impl GeomClass {
    pub fn of(width: usize, height: usize) -> Self {
        Self { width: width as u32, height: height as u32 }
    }
}

/// One functionally-equivalent tiling of a kernel over a fixed geometry.
/// The kernel that declares a candidate guarantees that launching with
/// `grid`/`block`/`shared_mem_bytes` produces byte-identical outputs to
/// its default shape; only the per-shape cost hints and the resulting
/// timing differ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeCandidate {
    /// Grid extent covering the declared geometry at this block shape.
    pub grid: Dim3,
    /// Block extent.
    pub block: Dim3,
    /// Static shared memory per block, bytes.
    pub shared_mem_bytes: u32,
    /// Declared per-thread register footprint at this shape.
    pub registers_per_thread: u32,
    /// Estimated issue-pipeline cycles per thread (shape-dependent work
    /// hint; only relative magnitudes across the family matter).
    pub issue_per_thread: f64,
    /// Estimated global-memory bytes per thread. This is where halo
    /// amplification shows up: narrower tiles re-read proportionally more
    /// apron per covered element.
    pub mem_bytes_per_thread: f64,
}

impl ShapeCandidate {
    pub fn threads_per_block(&self) -> u32 {
        self.block.count() as u32
    }

    pub fn warps_per_block(&self, warp_size: u32) -> u32 {
        self.threads_per_block().div_ceil(warp_size.max(1))
    }
}

/// The set of shapes one kernel supports for one geometry class.
/// `shapes[0]` must be the kernel's built-in default: it is the fallback
/// when no candidate is legal on the device, and ties in score resolve
/// toward earlier entries, so an autotuned run can never pick a shape the
/// model scores worse than the default.
#[derive(Debug, Clone)]
pub struct ShapeFamily {
    /// Kernel name the family belongs to (cache key component).
    pub kernel: &'static str,
    pub shapes: Vec<ShapeCandidate>,
}

/// Whether a candidate can launch on `spec` at all: block-level limits
/// plus a non-zero residency bound.
fn legal(spec: &DeviceSpec, c: &ShapeCandidate) -> bool {
    let tpb = c.threads_per_block();
    tpb > 0
        && tpb <= spec.max_threads_per_block
        && c.shared_mem_bytes <= spec.max_shared_mem_per_block
        && launch_occupancy(
            spec,
            tpb,
            c.warps_per_block(spec.warp_size),
            c.shared_mem_bytes,
            c.registers_per_thread.min(spec.max_registers_per_thread),
        )
        .blocks_per_sm
            > 0
}

/// Score a candidate: estimated cycles for the whole grid, lower is
/// better. The model is the scheduler's own arithmetic applied to the
/// steady state the candidate would reach:
///
/// * theoretical residency from [`launch_occupancy`] — the {blocks,
///   warps, threads, smem, registers} bound — capped by how many blocks
///   the grid can actually put on each SM (small grids cannot fill the
///   device no matter the budget, the paper's Fig. 6 problem);
/// * per-block time from [`CostModel::block_cycles`] at that residency:
///   issue contention, latency hiding and the SM's DRAM-share floor all
///   react to the shape via the candidate's cost hints;
/// * whole-grid time as full waves of resident blocks, which is where
///   fat blocks lose on small grids (wave quantization) and where
///   partial-tile waste penalizes shapes that tile the domain poorly.
pub fn score_shape(spec: &DeviceSpec, cost: &CostModel, c: &ShapeCandidate) -> f64 {
    let tpb = c.threads_per_block();
    let wpb = c.warps_per_block(spec.warp_size);
    let occ = launch_occupancy(
        spec,
        tpb,
        wpb,
        c.shared_mem_bytes,
        c.registers_per_thread.min(spec.max_registers_per_thread),
    );
    let total_blocks = c.grid.count().max(1);
    let sm_count = spec.sm_count.max(1) as u64;
    let per_sm = total_blocks.div_ceil(sm_count).min(u32::MAX as u64) as u32;
    let resident_blocks = occ.blocks_per_sm.min(per_sm).max(1);
    let resident_warps = resident_blocks * wpb;

    let issue = c.issue_per_thread * tpb as f64;
    let bytes = c.mem_bytes_per_thread * tpb as f64;
    let transactions = (bytes / cost.bytes_per_transaction).ceil();
    let latency = transactions * cost.global_latency_cycles;
    let bw_per_sm = spec.dram_bytes_per_cycle() / spec.sm_count.max(1) as f64;
    let bw_cycles = if bw_per_sm > 0.0 { bytes * resident_blocks as f64 / bw_per_sm } else { 0.0 };

    let block_cycles = cost.block_cycles(issue, latency, bw_cycles, resident_warps, wpb);
    let waves = total_blocks.div_ceil(sm_count * resident_blocks as u64);
    waves as f64 * block_cycles
}

/// Deterministic per-device cache of tuned shapes, keyed by
/// `(kernel name, geometry class)`. The first lookup for a key scores the
/// family and memoizes the winning index; later lookups (further frames,
/// batch parts, repeated levels) are a map probe.
#[derive(Debug, Clone)]
pub struct ShapeCache {
    spec: DeviceSpec,
    cost: CostModel,
    chosen: BTreeMap<(&'static str, GeomClass), usize>,
}

impl ShapeCache {
    pub fn new(spec: DeviceSpec, cost: CostModel) -> Self {
        Self { spec, cost, chosen: BTreeMap::new() }
    }

    /// The winning candidate for `class`, tuning and caching on first
    /// use. Falls back to `family.shapes[0]` (the declared default) when
    /// no candidate is legal for the device.
    pub fn choose(&mut self, class: GeomClass, family: &ShapeFamily) -> ShapeCandidate {
        assert!(!family.shapes.is_empty(), "a shape family needs at least one candidate");
        let idx = *self.chosen.entry((family.kernel, class)).or_insert_with(|| {
            let mut best = 0usize;
            let mut best_score = f64::INFINITY;
            for (i, c) in family.shapes.iter().enumerate() {
                if !legal(&self.spec, c) {
                    continue;
                }
                let s = score_shape(&self.spec, &self.cost, c);
                // Strict improvement only: ties keep the earliest (the
                // default first, then declaration order) so the choice is
                // stable under reordering-free family edits.
                if s < best_score {
                    best = i;
                    best_score = s;
                }
            }
            best
        });
        family.shapes[idx.min(family.shapes.len() - 1)]
    }

    /// The cached winner index for a key, if that key was tuned already.
    pub fn cached(&self, kernel: &'static str, class: GeomClass) -> Option<usize> {
        self.chosen.get(&(kernel, class)).copied()
    }

    /// Number of distinct `(kernel, geometry)` classes tuned so far.
    pub fn len(&self) -> usize {
        self.chosen.len()
    }

    pub fn is_empty(&self) -> bool {
        self.chosen.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(
        grid: (u32, u32),
        block: (u32, u32),
        smem: u32,
        regs: u32,
        mem_per_thread: f64,
    ) -> ShapeCandidate {
        ShapeCandidate {
            grid: Dim3::d2(grid.0, grid.1),
            block: Dim3::d2(block.0, block.1),
            shared_mem_bytes: smem,
            registers_per_thread: regs,
            issue_per_thread: 10.0,
            mem_bytes_per_thread: mem_per_thread,
        }
    }

    fn family(shapes: Vec<ShapeCandidate>) -> ShapeFamily {
        ShapeFamily { kernel: "k", shapes }
    }

    #[test]
    fn narrow_blocks_win_on_sm_starved_grids() {
        // A 4-block grid of 18-warp blocks leaves 10 of 14 SMs idle; the
        // same domain as 12 narrower blocks covers more SMs and finishes
        // a wave sooner. Equal cost hints isolate the occupancy effect.
        let spec = DeviceSpec::gtx470();
        let cost = CostModel::default();
        let fat = cand((2, 2), (24, 24), 9216, 22, 16.0);
        let narrow = cand((2, 6), (24, 8), 6144, 22, 16.0);
        assert!(
            score_shape(&spec, &cost, &narrow) < score_shape(&spec, &cost, &fat),
            "narrow {} vs fat {}",
            score_shape(&spec, &cost, &narrow),
            score_shape(&spec, &cost, &fat)
        );
        let mut cache = ShapeCache::new(spec, cost);
        let won = cache.choose(GeomClass::of(48, 48), &family(vec![fat, narrow]));
        assert_eq!(won, narrow);
    }

    #[test]
    fn halo_amplification_can_keep_the_fat_tile() {
        // On a grid big enough to saturate the device either way, a
        // narrow tile that doubles per-thread DRAM traffic loses to the
        // default: the bandwidth floor prices the extra apron reads.
        let spec = DeviceSpec::gtx470();
        let cost = CostModel::default();
        let fat = cand((40, 40), (24, 24), 9216, 22, 160.0);
        let narrow = cand((40, 120), (24, 8), 6144, 22, 320.0);
        let mut cache = ShapeCache::new(spec, cost);
        let won = cache.choose(GeomClass::of(960, 960), &family(vec![fat, narrow]));
        assert_eq!(won, fat);
    }

    #[test]
    fn illegal_candidates_are_skipped_and_default_is_the_fallback() {
        let spec = DeviceSpec::gtx470();
        let too_many_threads = cand((1, 1), (64, 32), 0, 16, 4.0); // 2048 > 1024
        let too_much_smem = cand((1, 1), (16, 16), 1 << 20, 16, 4.0);
        let fine = cand((1, 1), (16, 16), 0, 16, 4.0);
        let mut cache = ShapeCache::new(spec.clone(), CostModel::default());
        let won = cache
            .choose(GeomClass::of(16, 16), &family(vec![too_many_threads, too_much_smem, fine]));
        assert_eq!(won, fine);
        // Nothing legal: the declared default comes back untouched.
        let mut cache = ShapeCache::new(spec, CostModel::default());
        let won = cache.choose(GeomClass::of(9, 9), &family(vec![too_much_smem]));
        assert_eq!(won, too_much_smem);
    }

    #[test]
    fn cache_is_deterministic_and_memoized() {
        let spec = DeviceSpec::gtx470();
        let fat = cand((2, 2), (24, 24), 9216, 22, 16.0);
        let narrow = cand((2, 6), (24, 8), 6144, 22, 16.0);
        let fam = family(vec![fat, narrow]);
        let mut a = ShapeCache::new(spec.clone(), CostModel::default());
        let mut b = ShapeCache::new(spec, CostModel::default());
        let class = GeomClass::of(48, 48);
        assert_eq!(a.choose(class, &fam), b.choose(class, &fam));
        assert_eq!(a.cached("k", class), Some(1));
        assert_eq!(a.len(), 1);
        // Second lookup hits the memo (same result, no growth).
        assert_eq!(a.choose(class, &fam), narrow);
        assert_eq!(a.len(), 1);
        assert_eq!(a.cached("other", class), None);
    }

    #[test]
    fn ties_keep_the_declared_default() {
        let spec = DeviceSpec::gtx470();
        let a = cand((4, 4), (16, 16), 0, 16, 4.0);
        // Identical geometry and hints, different declaration order.
        let mut cache = ShapeCache::new(spec, CostModel::default());
        let won = cache.choose(GeomClass::of(64, 64), &family(vec![a, a]));
        assert_eq!(cache.cached("k", GeomClass::of(64, 64)), Some(0));
        assert_eq!(won, a);
    }
}
