//! Differential oracle for the kernel bodies.
//!
//! The per-block bodies of the cascade, filter, scale, scan, transpose and
//! display kernels as they were before they were rewritten for host speed
//! (element-wise staging, stump-major SIMT iteration, per-pixel metering),
//! kept as [`ReferenceBody::reference_run_block`]. The kernels' one body is
//! now [`Kernel::run_blocks`], which works on whole grid rows; the sweeps
//! below run it over generated geometries and cascades in every way the
//! simulator can call it — the launch as one range, cut at random blocks
//! (inside grid rows too), one block at a time, stacked in a
//! [`BatchedKernel`], as stages of the pipeline's two fused chains — and
//! demand the reference body's output bytes, its counters for every block
//! and the same timeline (block costs and their sum, through the
//! scheduler). The cascade sweep runs each case through the kernel, whose
//! body runs at the host's vector width, and through its portable copy
//! ([`Portable`]), so both copies are checked on any CPU.

use std::ops::Range;
use std::sync::Arc;

use fd_gpu::probe::{
    assert_same, check_case, f32_bits, modes, probes, run_probed, take_counters, timeline_bits,
    Mode, Observed, ReferenceBody, Rng,
};
use fd_gpu::{
    with_band_mutation, AccessSet, BandMutation, BatchedKernel, BlockCtx, FusedChain, Gpu, Kernel,
    KernelCounters, LaunchCtx, StreamId, Texture2D,
};
use fd_haar::encode::{encode_cascade, quantize_cascade, STUMP_WORDS};
use fd_haar::{Cascade, FeatureKind, HaarFeature, Stage, Stump};

use super::cascade::{image_offsets, precompile};
use super::scan::{quantize_luma, ScanInput};
use super::{
    with_mutation, CascadeKernel, DisplayKernel, FilterKernel, Mutation, ScaleKernel,
    ScanRowsKernel, TransposeKernel,
};

/// The sweeps' device: one host thread, so the mutation switches reach
/// the bodies.
fn device() -> Gpu {
    fd_gpu::probe::device(1)
}

impl ReferenceBody for CascadeKernel {
    fn reference_run_block(&self, ctx: &mut BlockCtx<'_>) {
        let b = Self::BLOCK as usize;
        let (tile_w, tile_h) = (Self::TILE as usize, Self::TILE as usize);
        let bx = ctx.block_idx.x as usize * b;
        let by = ctx.block_idx.y as usize * b;
        let (w, h) = (self.width, self.height);

        // ---- Cooperative tile load (Eqs. 1-4): the block stages the
        // `48 x 48` neighbourhood its windows touch: thread (x, y) brings
        // the four pixels (x,y), (x+n,y), (x,y+m), (x+n,y+m). Tile (0,0)
        // maps to integral entry (bx-1, by-1); entries left/above the
        // image are zero.
        let mut tile = ctx.shared_alloc_u32(tile_w * tile_h);
        {
            let integral = ctx.mem.read(self.integral);
            for ty in 0..tile_h {
                let gy = by as isize + ty as isize - 1;
                for tx in 0..tile_w {
                    let gx = bx as isize + tx as isize - 1;
                    tile[ty * tile_w + tx] =
                        if gx < 0 || gy < 0 || gx >= w as isize || gy >= h as isize {
                            0
                        } else {
                            integral[gy as usize * w + gx as usize]
                        };
                }
            }
        }
        // Coalesced 4-byte loads covering the tile + the matching shared
        // stores (whole-warp transactions, `loads_per_thread` rounds).
        let threads = (b * b) as u64;
        let warp = ctx.warp_size() as u64;
        let block_warps = threads.div_ceil(warp);
        if self.use_shared_tile {
            let tile_entries = (tile_w * tile_h) as u64;
            ctx.meter.global_load(4 * tile_entries);
            ctx.meter.shared(tile_entries.div_ceil(threads) * block_warps);
            ctx.syncthreads();
        }

        // ---- Warp-granular cascade evaluation.
        let mut depth_out = ctx.mem.write(self.depth_out);
        let mut score_out = ctx.mem.write(self.score_out);

        // Local metering accumulators (flushed once per block).
        let mut m_const = 0u64;
        let mut m_shared = 0u64;
        let mut m_global_scatter = 0u64;
        let mut m_alu = 0u64;
        let mut m_branches = 0u64;
        let mut m_divergent = 0u64;

        let n_stages = self.stages.len();
        ctx.for_each_warp(|_, lanes| {
            let lane_count = lanes.len();
            let mut active = [false; 32];
            let mut depth = [0u32; 32];
            let mut score = [0.0f32; 32];
            let mut done_score = [0.0f32; 32];
            let mut n_active = 0usize;
            for (li, t) in lanes.clone().enumerate() {
                let tx = (t as usize) % b;
                let ty = (t as usize) / b;
                let ox = bx + tx;
                let oy = by + ty;
                active[li] = ox + self.window <= w && oy + self.window <= h;
                if active[li] {
                    n_active += 1;
                }
            }
            if n_active > 0 {
                'stages: for (si, stage) in self.stages.iter().enumerate() {
                    let mut sums = [0.0f32; 32];
                    for (stump, offs) in stage.stumps.iter().zip(&stage.tile_offs) {
                        // Stump record broadcast from constant memory
                        // (3 compressed words).
                        m_const += STUMP_WORDS as u64;
                        if self.use_shared_tile {
                            // Tile reads: 4 per rectangle per lane; one
                            // transaction per access step for the warp.
                            m_shared += 4 * stump.nrects as u64;
                        } else {
                            // Scattered global reads: 4 corners per
                            // rectangle per active lane, uncoalesced.
                            m_global_scatter += 16 * stump.nrects as u64 * n_active as u64;
                        }
                        m_alu += 4 * stump.nrects as u64 + 6;
                        // Uniform loop-control branch.
                        m_branches += 1;
                        for (li, t) in lanes.clone().enumerate() {
                            if !active[li] {
                                continue;
                            }
                            let tx = (t as usize) % b;
                            let ty = (t as usize) / b;
                            let base = ty * tile_w + tx;
                            let mut resp = 0i64;
                            let rects = offs.iter().zip(stump.weights);
                            for (o, weight) in rects.take(stump.nrects as usize) {
                                let s = tile[base + o[0] as usize] as i64
                                    - tile[base + o[1] as usize] as i64
                                    - tile[base + o[2] as usize] as i64
                                    + tile[base + o[3] as usize] as i64;
                                resp += weight as i64 * s;
                            }
                            sums[li] += if (resp as i32) < stump.threshold {
                                stump.left
                            } else {
                                stump.right
                            };
                        }
                    }
                    // Stage-exit branch.
                    let mut passed = 0usize;
                    let mut failed = 0usize;
                    for li in 0..lane_count {
                        if !active[li] {
                            continue;
                        }
                        score[li] += sums[li] - stage.threshold;
                        if sums[li] >= stage.threshold {
                            depth[li] = si as u32 + 1;
                            passed += 1;
                        } else {
                            active[li] = false;
                            done_score[li] = score[li];
                            failed += 1;
                        }
                    }
                    m_branches += 1;
                    m_alu += 3;
                    if passed > 0 && failed > 0 {
                        m_divergent += 1;
                    }
                    if passed == 0 {
                        break 'stages;
                    }
                }
            }
            // Write back depth and score for the warp's lanes.
            for (li, t) in lanes.clone().enumerate() {
                let tx = (t as usize) % b;
                let ty = (t as usize) / b;
                let ox = bx + tx;
                let oy = by + ty;
                if ox >= w || oy >= h {
                    continue;
                }
                let final_score = if active[li] { score[li] } else { done_score[li] };
                let valid = ox + self.window <= w && oy + self.window <= h;
                depth_out[oy * w + ox] = if valid { depth[li] } else { 0 };
                score_out[oy * w + ox] = if valid { final_score } else { f32::NEG_INFINITY };
            }
            let _ = n_stages;
        });

        ctx.meter.constant(m_const);
        ctx.meter.shared(m_shared);
        ctx.meter.global_load(m_global_scatter);
        ctx.meter.alu(m_alu);
        ctx.meter.branches(m_branches, m_divergent);
        // Depth + score stores: 8 bytes per covered pixel.
        let covered_w = (w - bx).min(b);
        let covered_h = (h - by).min(b);
        ctx.meter.global_store(8 * (covered_w * covered_h) as u64);
    }
}

/// The cascade kernel with its body called directly, not through
/// [`fd_gpu::at_vector_width`]: the portable copy, which a CPU with AVX2
/// never runs otherwise.
struct Portable(CascadeKernel);

impl Kernel for Portable {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn run_blocks(
        &self,
        ctx: &LaunchCtx<'_>,
        blocks: Range<u64>,
        sink: &mut dyn FnMut(&KernelCounters),
    ) {
        self.0.blocks(ctx, blocks, sink);
    }

    fn access(&self, set: &mut AccessSet) {
        self.0.access(set);
    }
}

impl ReferenceBody for Portable {
    fn reference_run_block(&self, ctx: &mut BlockCtx<'_>) {
        self.0.reference_run_block(ctx);
    }
}

impl ReferenceBody for FilterKernel {
    fn reference_run_block(&self, ctx: &mut BlockCtx<'_>) {
        // Block shape comes from the launch config; each output pixel only
        // reads its clamped 3x3 source neighbourhood.
        let bw = ctx.block_dim.x as usize;
        let bh = ctx.block_dim.y as usize;
        let bx = ctx.block_idx.x as usize * bw;
        let by = ctx.block_idx.y as usize * bh;
        let (w, h) = (self.width, self.height);

        // Stage the (bw+2)x(bh+2) halo tile (clamped at image borders).
        let tile_w = bw + 2;
        let tile_h = bh + 2;
        let mut tile = ctx.shared_alloc_f32(tile_w * tile_h);
        {
            let src = ctx.mem.read(self.src);
            for ty in 0..tile_h {
                let gy = (by as isize + ty as isize - 1).clamp(0, h as isize - 1) as usize;
                for tx in 0..tile_w {
                    let gx = (bx as isize + tx as isize - 1).clamp(0, w as isize - 1) as usize;
                    tile[ty * tile_w + tx] = src[gy * w + gx];
                }
            }
        }
        ctx.syncthreads();

        let mut dst = ctx.mem.write(self.dst);
        let mut covered = 0u64;
        for ty in 0..bh {
            let y = by + ty;
            if y >= h {
                continue;
            }
            for tx in 0..bw {
                let x = bx + tx;
                if x >= w {
                    continue;
                }
                // Separable binomial: rows then columns over the tile.
                let t = |dx: usize, dy: usize| tile[(ty + dy) * tile_w + (tx + dx)];
                let row = |dy: usize| 0.25 * t(0, dy) + 0.5 * t(1, dy) + 0.25 * t(2, dy);
                dst[y * w + x] = 0.25 * row(0) + 0.5 * row(1) + 0.25 * row(2);
                covered += 1;
            }
        }
        drop(dst);

        let warp = ctx.warp_size() as u64;
        let warps = covered.div_ceil(warp);
        // Halo load: one coalesced read per tile element. Buffer-tagged
        // so a fused launch credits fusion-local traffic to on-chip rates.
        ctx.global_load_buf(self.src, (tile_w * tile_h * 4) as u64);
        ctx.meter.shared((tile_w * tile_h) as u64 / 8);
        // Compute: 9 shared reads + ~10 FLOPs per pixel.
        ctx.meter.shared(9 * warps);
        ctx.meter.alu(10 * warps);
        ctx.global_store_buf(self.dst, 4 * covered);
    }
}

impl ReferenceBody for ScaleKernel {
    fn reference_run_block(&self, ctx: &mut BlockCtx<'_>) {
        // Block shape comes from the launch config; each output pixel is an
        // independent texture gather.
        let bw = ctx.block_dim.x as usize;
        let bh = ctx.block_dim.y as usize;
        let bx = ctx.block_idx.x as usize * bw;
        let by = ctx.block_idx.y as usize * bh;
        let sx = self.src_w as f32 / self.dst_w as f32;
        let sy = self.src_h as f32 / self.dst_h as f32;

        let mut dst = ctx.mem.write(self.dst);
        let mut covered = 0u64;
        for ty in 0..bh {
            let y = by + ty;
            if y >= self.dst_h {
                continue;
            }
            for tx in 0..bw {
                let x = bx + tx;
                if x >= self.dst_w {
                    continue;
                }
                let v = ctx.tex2d(self.src, (x as f32 + 0.5) * sx, (y as f32 + 0.5) * sy);
                dst[y * self.dst_w + x] = v;
                covered += 1;
            }
        }
        drop(dst);

        // Per covered thread: ~6 address ALU ops (as warp instructions) and
        // a 4-byte store; the tex2d call meters fetches itself. The store
        // is buffer-tagged so a fused chain can keep the scaled level
        // on-chip for its consumer.
        let warp = ctx.warp_size() as u64;
        ctx.meter.alu(6 * covered.div_ceil(warp));
        ctx.global_store_buf(self.dst, 4 * covered);
    }
}

impl ReferenceBody for ScanRowsKernel {
    fn reference_run_block(&self, ctx: &mut BlockCtx<'_>) {
        let row = ctx.block_idx.y as usize;
        if row >= self.height {
            return;
        }
        let w = self.width;
        // Block width comes from the launch config; the sequential row
        // scan below is identical for any width, only the work model
        // changes. The shared allocation asserts the launch requested the
        // scratch the real block scan needs at this width.
        let threads = ctx.block_dim.x;
        let _scratch = ctx.shared_alloc_u32(2 * threads as usize);

        {
            let mut out = ctx.mem.write(self.output);
            let dst = &mut out[row * w..(row + 1) * w];
            match self.input {
                ScanInput::QuantizeF32(src) => {
                    let src = ctx.mem.read(src);
                    let mut acc = 0u32;
                    for (x, d) in dst.iter_mut().enumerate() {
                        acc += src[row * w + x].round().clamp(0.0, 255.0) as u32;
                        *d = acc;
                    }
                }
                ScanInput::U32(src) => {
                    let src = ctx.mem.read(src);
                    let mut acc = 0u32;
                    for (x, d) in dst.iter_mut().enumerate() {
                        acc += src[row * w + x];
                        *d = acc;
                    }
                }
            }
        }

        // Work model: the row is processed in ceil(w / threads) segments;
        // each segment does an up-sweep + down-sweep over `threads`
        // elements in shared memory (~2*threads shared accesses,
        // 2*log2(threads) warp instruction steps per warp) plus the
        // carry add.
        let t = threads as u64;
        let warps = t.div_ceil(ctx.warp_size() as u64);
        let segments = (w as u64).div_ceil(t);
        let log_t = t.ilog2() as u64;
        // Buffer-tagged traffic: credited to on-chip rates when the scan
        // runs fused behind its producer.
        match self.input {
            ScanInput::QuantizeF32(src) => ctx.global_load_buf(src, 4 * w as u64),
            ScanInput::U32(src) => ctx.global_load_buf(src, 4 * w as u64),
        }
        ctx.global_store_buf(self.output, 4 * w as u64);
        ctx.meter.shared(segments * 2 * t / ctx.warp_size() as u64);
        ctx.meter.alu(segments * warps * 2 * log_t);
        for _ in 0..segments * 2 {
            ctx.syncthreads();
        }
    }
}

impl ReferenceBody for TransposeKernel {
    fn reference_run_block(&self, ctx: &mut BlockCtx<'_>) {
        let t = Self::TILE as usize;
        let bx = ctx.block_idx.x as usize * t;
        let by = ctx.block_idx.y as usize * t;
        let (w, h) = (self.width, self.height);

        let mut tile = ctx.shared_alloc_u32(t * (t + 1));
        let mut loaded = 0u64;
        {
            let src = ctx.mem.read(self.src);
            for ty in 0..t {
                let y = by + ty;
                if y >= h {
                    continue;
                }
                for tx in 0..t {
                    let x = bx + tx;
                    if x >= w {
                        continue;
                    }
                    tile[ty * (t + 1) + tx] = src[y * w + x];
                    loaded += 1;
                }
            }
        }
        ctx.syncthreads();
        {
            let mut dst = ctx.mem.write(self.dst);
            for ty in 0..t {
                let y = by + ty;
                if y >= h {
                    continue;
                }
                for tx in 0..t {
                    let x = bx + tx;
                    if x >= w {
                        continue;
                    }
                    // dst is h x w: element (row x, col y).
                    dst[x * h + y] = tile[ty * (t + 1) + tx];
                }
            }
        }

        let warps = (t * t) as u64 / ctx.warp_size() as u64;
        // Buffer-tagged traffic: fusion-local intermediates are credited
        // to on-chip rates when this transpose runs inside a fused chain.
        ctx.global_load_buf(self.src, 4 * loaded);
        ctx.global_store_buf(self.dst, 4 * loaded);
        // One shared store and one shared load per element — one
        // transaction per warp each way, conflict-free thanks to the
        // padding.
        ctx.meter.shared(2 * warps);
        ctx.meter.alu(4 * warps);
    }
}

impl ReferenceBody for DisplayKernel {
    fn reference_run_block(&self, ctx: &mut BlockCtx<'_>) {
        let n = self.width * self.height;
        let tpb = Self::THREADS as usize;
        let base = ctx.block_idx.x as usize * tpb;
        let end = (base + tpb).min(n);
        if base >= n {
            return;
        }
        let mut warp_divergent = 0u64;
        let mut warps = 0u64;
        {
            let depth = ctx.mem.read(self.depth);
            let mut hits = ctx.mem.write(self.hits);
            for ws in (base..end).step_by(ctx.warp_size() as usize) {
                let we = (ws + ctx.warp_size() as usize).min(end);
                let mut lane_hits = 0u64;
                for i in ws..we {
                    let hit = depth[i] >= self.required_depth;
                    hits[i] = hit as u32;
                    lane_hits += hit as u64;
                }
                warps += 1;
                if lane_hits > 0 && lane_hits < (we - ws) as u64 {
                    warp_divergent += 1;
                }
            }
        }
        let covered = (end - base) as u64;
        ctx.meter.global_load(4 * covered);
        ctx.meter.global_store(4 * covered);
        ctx.meter.alu(2 * warps);
        ctx.meter.branches(warps, warp_divergent);
    }
}

/// Extents the sweeps draw from besides uniform `1..=130`: below the
/// 24-px window, around multiples of the 16- and 24-wide tiles, one
/// pixel.
const DIMS: [usize; 22] =
    [1, 2, 3, 7, 15, 16, 17, 23, 24, 25, 31, 32, 33, 47, 48, 49, 64, 72, 95, 96, 129, 130];

/// Geometry of case `i`: degenerate shapes first, then a mix of [`DIMS`]
/// and uniform draws.
fn geometry(rng: &mut Rng, i: usize) -> (usize, usize) {
    const FIRST: [(usize, usize); 8] =
        [(1, 1), (1, 130), (130, 1), (24, 24), (23, 50), (50, 23), (47, 47), (130, 130)];
    let extent = |rng: &mut Rng| {
        if rng.below(2) == 0 {
            DIMS[rng.below(DIMS.len())]
        } else {
            1 + rng.below(130)
        }
    };
    FIRST.get(i).copied().unwrap_or_else(|| (extent(rng), extent(rng)))
}

fn random_stump(rng: &mut Rng) -> Stump {
    let kind = FeatureKind::ALL[rng.below(FeatureKind::ALL.len())];
    random_stump_of(rng, kind)
}

fn random_stump_of(rng: &mut Rng, kind: FeatureKind) -> Stump {
    // Cells per feature along each axis; the feature must fit the window.
    let (cols, rows) = match kind {
        FeatureKind::EdgeH => (2, 1),
        FeatureKind::EdgeV => (1, 2),
        FeatureKind::LineH => (3, 1),
        FeatureKind::LineV => (1, 3),
        FeatureKind::CenterSurround => (3, 3),
        FeatureKind::Diagonal => (2, 2),
    };
    let w = 1 + rng.below(24 / cols);
    let h = 1 + rng.below(24 / rows);
    let x = rng.below(24 - w * cols + 1);
    let y = rng.below(24 - h * rows + 1);
    Stump {
        feature: HaarFeature::from_params(kind, x as u8, y as u8, w as u8, h as u8),
        threshold: (rng.below(41) as i32 - 20) * 64,
        left: rng.below(2049) as f32 / 1024.0 - 1.0,
        right: rng.below(2049) as f32 / 1024.0 - 1.0,
    }
}

fn random_stage(rng: &mut Rng, threshold: f32) -> Stage {
    Stage { stumps: (0..1 + rng.below(6)).map(|_| random_stump(rng)).collect(), threshold }
}

/// Stages that split warps.
fn splitting_stages(rng: &mut Rng, c: &mut Cascade) {
    for _ in 0..2 + rng.below(4) {
        let threshold = rng.below(1025) as f32 / 1024.0 - 0.75;
        c.stages.push(random_stage(rng, threshold));
    }
}

/// Cascade profiles of the sweep, [`random_cascade`]'s `profile`.
const PROFILES: usize = 9;
const ALL_PASS_THEN_NONE: usize = 1;
const ALL_PASS: usize = 2;
const ONE_STUMP: usize = 3;
const NO_STAGE: usize = 4;
const FOUR_RECT_STAGE_0: usize = 5;
const NONE_PASS_STAGE_0: usize = 6;
const ZERO_THRESHOLDS: usize = 7;
const OFF_GRID: usize = 8;

/// A cascade of one of [`PROFILES`] profiles: stages that split warps (0);
/// a stage every lane fails behind one every lane passes; stages every
/// lane passes; a single one-stump stage; no stage at all; a stage 0 of
/// 4-rectangle stumps only; a stage 0 no lane passes; stump thresholds
/// all zero and stage thresholds the sum of the right leaves (on a flat
/// image every response and every stage sum equals its threshold); leaves
/// and stage thresholds off the constant-memory grid, where the order of
/// an `f32` sum shows (on the grid every partial sum is exact). All but
/// the last are quantized.
fn random_cascade(rng: &mut Rng, profile: usize) -> Cascade {
    let mut c = Cascade::new("oracle", 24);
    match profile {
        ALL_PASS_THEN_NONE => {
            c.stages.push(random_stage(rng, -31.0));
            c.stages.push(random_stage(rng, 31.0));
            c.stages.push(random_stage(rng, 0.0));
        }
        ALL_PASS => {
            for _ in 0..3 {
                c.stages.push(random_stage(rng, -31.0));
            }
        }
        ONE_STUMP => c.stages.push(Stage { stumps: vec![random_stump(rng)], threshold: 0.0 }),
        NO_STAGE => {}
        FOUR_RECT_STAGE_0 => {
            let stumps = (0..1 + rng.below(6))
                .map(|_| random_stump_of(rng, FeatureKind::Diagonal))
                .collect();
            c.stages.push(Stage { stumps, threshold: rng.below(1025) as f32 / 1024.0 - 0.75 });
            splitting_stages(rng, &mut c);
        }
        NONE_PASS_STAGE_0 => {
            c.stages.push(random_stage(rng, 31.0));
            c.stages.push(random_stage(rng, -31.0));
        }
        ZERO_THRESHOLDS => {
            splitting_stages(rng, &mut c);
            for stage in &mut c.stages {
                // A zero response takes the right leaf: the stage sum of
                // a flat image equals the stage threshold, too.
                stage.threshold = stage.stumps.iter().fold(0.0, |sum, stump| sum + stump.right);
                for stump in &mut stage.stumps {
                    stump.threshold = 0;
                }
            }
        }
        OFF_GRID => {
            splitting_stages(rng, &mut c);
            let mut unit = || (rng.next() >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0;
            for stage in &mut c.stages {
                stage.threshold = unit() * 0.5;
                for stump in &mut stage.stumps {
                    (stump.left, stump.right) = (unit(), unit());
                }
            }
            return c;
        }
        _ => splitting_stages(rng, &mut c),
    }
    quantize_cascade(&c)
}

/// The exact response of `stump` for the window at `(ox, oy)` of a device
/// (inclusive) integral image.
fn exact_response(integral: &[u32], w: usize, stump: &Stump, ox: usize, oy: usize) -> i64 {
    let at = |x: usize, y: usize| match (x, y) {
        (0, _) | (_, 0) => 0,
        _ => integral[(y - 1) * w + x - 1] as i64,
    };
    stump
        .feature
        .rects()
        .iter()
        .map(|r| {
            let (x0, y0) = (ox + r.x as usize, oy + r.y as usize);
            let (x1, y1) = (x0 + r.w as usize, y0 + r.h as usize);
            r.weight as i64 * (at(x1, y1) - at(x1, y0) - at(x0, y1) + at(x0, y0))
        })
        .sum()
}

/// Extents whose last block column or row holds 0, 1 and 23 valid window
/// origins: `24 = 23 + 1`, `46 = 23 + 23`, `48 = 24 + 23 + 1` and
/// `70 = 24 + 23 + 23`.
const EDGE_DIMS: [usize; 4] = [24, 46, 48, 70];

/// The cascade sweep over cases `0..cases` of [`PROFILES`]` * 80`; with all
/// of them, checks that every situation the bodies distinguish occurred.
fn cascade_sweep(cases: usize) {
    let mut rng = Rng(0xCA5C_ADE0);
    let mut divergent = 0u64;
    let (mut all_failed_a_stage, mut all_passed, mut none_passed_stage_0) = (false, false, false);
    let mut profiles_with_windows = [false; PROFILES];
    let mut rects_seen = [false; 5];
    // Valid window origins per block column / row, and a last block row
    // that is neither empty nor full.
    let (mut valid_w_seen, mut valid_h_seen) = ([false; 25], [false; 25]);
    let mut short_last_row = false;
    let (mut wrapped, mut tied, mut stages_tied) = (false, false, false);
    let (mut tile_ends_on_last_row, mut tile_ends_past_last_row) = (false, false);
    for case in 0..cases {
        let (w, h) = if case % 4 == 3 {
            (EDGE_DIMS[rng.below(4)], EDGE_DIMS[rng.below(4)])
        } else {
            geometry(&mut rng, case)
        };
        let no_tile = (case / 10) % 2 == 1;
        let profile = (case / 20) % PROFILES;
        let cascade = random_cascade(&mut rng, profile);
        for stump in cascade.stages.iter().flat_map(|s| &s.stumps) {
            rects_seen[stump.feature.rects().len()] = true;
        }
        // By turns a true integral image of random pixels, arbitrary
        // words, and words in the top eighth of `u32` — in both of which
        // responses wrap `i32`; the zero-threshold profile gets the
        // integral of a flat image, where every response is zero.
        let flat = 1 + rng.below(255) as u32;
        let mut integral = vec![0u32; w * h];
        for y in 0..h {
            let mut acc = 0u32;
            for x in 0..w {
                acc += rng.below(256) as u32;
                let above = if y > 0 { integral[(y - 1) * w + x] } else { 0 };
                integral[y * w + x] = match case % 3 {
                    _ if profile == ZERO_THRESHOLDS => flat * (x as u32 + 1) * (y as u32 + 1),
                    0 => acc + above,
                    1 => rng.next() as u32,
                    _ => u32::MAX - (rng.next() % (1 << 29)) as u32,
                };
            }
        }

        let (windows_w, windows_h) = ((w + 1).saturating_sub(24), (h + 1).saturating_sub(24));
        let windows = windows_w * windows_h;
        profiles_with_windows[profile] |= windows > 0;
        for bx in (0..w).step_by(24) {
            valid_w_seen[windows_w.saturating_sub(bx).min(24)] = true;
        }
        for by in (0..h).step_by(24) {
            let valid_h = windows_h.saturating_sub(by).min(24);
            valid_h_seen[valid_h] = true;
            short_last_row |= windows_w > 0 && 0 < valid_h && valid_h < 24;
        }
        if let (Some(stage), true) = (cascade.stages.first(), windows > 0) {
            for stump in &stage.stumps {
                for (ox, oy) in [(0, 0), (windows_w - 1, windows_h - 1)] {
                    let exact = exact_response(&integral, w, stump, ox, oy);
                    wrapped |= exact != exact as i32 as i64;
                    tied |= exact as i32 == stump.threshold;
                }
            }
        }

        let mut gpu = device();
        let integral = gpu.mem.upload(&integral);
        let const_ptr = gpu.const_upload(&encode_cascade(&cascade));
        // Not `CascadeKernel::new`: it insists on grid leaves.
        let stages = precompile(&cascade);
        let offs = image_offsets(&stages, w, h);
        let mut depths = Vec::new();
        let mut observe = |portable: bool, mode: Mode, parts: usize| -> Observed {
            let outputs: Vec<_> = (0..parts)
                .map(|_| (gpu.mem.alloc::<u32>(w * h), gpu.mem.alloc::<f32>(w * h)))
                .collect();
            let kernels: Vec<_> = outputs
                .iter()
                .map(|&(depth, score)| {
                    let (stages, offs) = (Arc::clone(&stages), Arc::clone(&offs));
                    let k = CascadeKernel::with_stages(
                        stages, offs, integral, w, h, depth, score, const_ptr,
                    );
                    if no_tile {
                        k.without_shared_tile()
                    } else {
                        k
                    }
                })
                .collect();
            let cfg = kernels[0].config();
            let counters = if portable {
                run_probed(&mut gpu, kernels.into_iter().map(Portable).collect(), cfg, mode)
            } else {
                run_probed(&mut gpu, kernels, cfg, mode)
            };
            let mut bits = Vec::new();
            for (depth, score) in outputs {
                bits.extend(gpu.mem.download(depth));
                bits.extend(f32_bits(gpu.mem.download(score)));
                gpu.mem.free(depth);
                gpu.mem.free(score);
            }
            if mode == Mode::Reference && parts == 1 && !portable {
                divergent += counters.0.iter().map(|c| c.divergent_branches).sum::<u64>();
                depths = bits[..w * h].to_vec();
            }
            (counters, bits)
        };
        let label = format!("case {case}: {w}x{h}, no tile {no_tile}, profile {profile}");
        // The body as the kernel runs it (compiled for AVX2 where the CPU
        // has it), then its portable copy: both owe the reference's bytes.
        check_case(case, &label, |mode, parts| observe(false, mode, parts));
        check_case(case, &format!("{label}, portable"), |mode, parts| observe(true, mode, parts));
        all_failed_a_stage |=
            profile == ALL_PASS_THEN_NONE && windows > 0 && depths.iter().all(|&d| d <= 1);
        all_passed |= profile == ALL_PASS && depths.iter().filter(|&&d| d == 3).count() == windows;
        none_passed_stage_0 |=
            profile == NONE_PASS_STAGE_0 && windows > 0 && depths.iter().all(|&d| d == 0);
        let deepest = cascade.stages.len() as u32;
        stages_tied |= profile == ZERO_THRESHOLDS
            && windows > 0
            && depths.iter().filter(|&&d| d == deepest).count() == windows;
        // A band whose tile ends on the image's last row, and one whose
        // tile ends one row past it.
        for by in (24..h).step_by(24) {
            let tile_end = by - 1 + 48;
            tile_ends_on_last_row |= w >= 72 && tile_end == h;
            tile_ends_past_last_row |= w >= 72 && tile_end == h + 1;
        }
    }
    if cases < PROFILES * 80 {
        return;
    }
    assert!(divergent > 0, "the sweep must split warps");
    assert!(all_failed_a_stage && all_passed, "a stage no lane passes, stages every lane passes");
    assert!(none_passed_stage_0, "a stage 0 no lane passes");
    assert!(rects_seen[2] && rects_seen[3] && rects_seen[4], "2-, 3- and 4-rect stumps");
    assert_eq!(profiles_with_windows, [true; PROFILES], "every profile meets a whole window");
    for n in [0, 1, 23, 24] {
        assert!(valid_w_seen[n] && valid_h_seen[n], "blocks with {n} valid columns, with {n} rows");
    }
    assert!(short_last_row, "a short last block row");
    assert!(wrapped && tied, "a response that wraps i32, one equal to its stump threshold");
    assert!(stages_tied, "windows that pass every stage with a sum equal to its threshold");
    assert!(
        tile_ends_on_last_row && tile_ends_past_last_row,
        "block rows with blocks wholly inside the image whose tile ends on its last row, and one row past"
    );
}

#[test]
fn cascade_body_matches_reference() {
    cascade_sweep(PROFILES * 80);
}

fn filter_sweep(cases: usize) {
    let mut rng = Rng(0xF117_E200);
    for case in 0..cases {
        let (w, h) = geometry(&mut rng, case);
        let pixels: Vec<f32> = (0..w * h).map(|_| rng.pixel()).collect();
        let mut gpu = device();
        let src = gpu.mem.upload(&pixels);
        let observe = |mode: Mode, parts: usize| -> Observed {
            let dsts: Vec<_> = (0..parts).map(|_| gpu.mem.alloc::<f32>(w * h)).collect();
            let kernels: Vec<_> =
                dsts.iter().map(|&dst| FilterKernel { src, dst, width: w, height: h }).collect();
            let cfg = kernels[0].config();
            let counters = run_probed(&mut gpu, kernels, cfg, mode);
            (counters, dsts.iter().flat_map(|&dst| f32_bits(gpu.mem.download(dst))).collect())
        };
        check_case(case, &format!("case {case}: {w}x{h}"), observe);
    }
}

#[test]
fn filter_body_matches_reference() {
    filter_sweep(110);
}

fn scale_sweep(cases: usize) {
    let mut rng = Rng(0x5CA1_E000);
    for case in 0..cases {
        let (src_w, src_h) = geometry(&mut rng, case);
        // Up- and downscaling, and the identity of pyramid level 0.
        let (dst_w, dst_h) =
            if case % 4 == 0 { (src_w, src_h) } else { (1 + rng.below(130), 1 + rng.below(130)) };
        let texels: Vec<f32> = (0..src_w * src_h).map(|_| rng.pixel()).collect();
        let mut gpu = device();
        let tex = gpu.bind_texture(Texture2D::from_data(src_w, src_h, texels));
        let observe = |mode: Mode, parts: usize| -> Observed {
            let dsts: Vec<_> = (0..parts).map(|_| gpu.mem.alloc::<f32>(dst_w * dst_h)).collect();
            let kernels: Vec<_> = dsts
                .iter()
                .map(|&dst| ScaleKernel { src: tex, src_w, src_h, dst, dst_w, dst_h })
                .collect();
            let cfg = kernels[0].config();
            let counters = run_probed(&mut gpu, kernels, cfg, mode);
            (counters, dsts.iter().flat_map(|&dst| f32_bits(gpu.mem.download(dst))).collect())
        };
        let label = format!("case {case}: {src_w}x{src_h} -> {dst_w}x{dst_h}");
        check_case(case, &label, observe);
    }
}

#[test]
fn scale_body_matches_reference() {
    scale_sweep(160);
}

#[test]
fn scan_body_matches_reference() {
    let mut rng = Rng(0x5CA2_0000);
    for case in 0..120 {
        // Rows longer than a block (several segments) next to the usual
        // extents.
        let (w, h) = match case % 12 {
            10 => (257 + rng.below(400), 1 + rng.below(4)),
            11 => (512, 2),
            _ => geometry(&mut rng, case / 2),
        };
        let quantize = case % 2 == 0;
        let mut gpu = device();
        let input = if quantize {
            let pixels: Vec<f32> = (0..w * h)
                .map(|_| match rng.below(16) {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 => -0.0,
                    _ => rng.pixel(),
                })
                .collect();
            ScanInput::QuantizeF32(gpu.mem.upload(&pixels))
        } else {
            let words: Vec<u32> = (0..w * h).map(|_| rng.below(1 << 16) as u32).collect();
            ScanInput::U32(gpu.mem.upload(&words))
        };
        let observe = |mode: Mode, parts: usize| -> Observed {
            let outputs: Vec<_> = (0..parts).map(|_| gpu.mem.alloc::<u32>(w * h)).collect();
            let kernels: Vec<_> = outputs
                .iter()
                .map(|&output| ScanRowsKernel { input, output, width: w, height: h })
                .collect();
            let cfg = kernels[0].config();
            let counters = run_probed(&mut gpu, kernels, cfg, mode);
            (counters, outputs.iter().flat_map(|&output| gpu.mem.download(output)).collect())
        };
        let label = format!("case {case}: {w}x{h}, quantize {quantize}");
        check_case(case, &label, observe);
    }
}

fn transpose_sweep(cases: usize) {
    let mut rng = Rng(0x7245_0000);
    for case in 0..cases {
        let (w, h) = geometry(&mut rng, case);
        let words: Vec<u32> = (0..w * h).map(|_| rng.next() as u32).collect();
        let mut gpu = device();
        let src = gpu.mem.upload(&words);
        let observe = |mode: Mode, parts: usize| -> Observed {
            let dsts: Vec<_> = (0..parts).map(|_| gpu.mem.alloc::<u32>(w * h)).collect();
            let kernels: Vec<_> =
                dsts.iter().map(|&dst| TransposeKernel { src, dst, width: w, height: h }).collect();
            let cfg = kernels[0].config();
            let counters = run_probed(&mut gpu, kernels, cfg, mode);
            (counters, dsts.iter().flat_map(|&dst| gpu.mem.download(dst)).collect())
        };
        check_case(case, &format!("case {case}: {w}x{h}"), observe);
    }
}

#[test]
fn transpose_body_matches_reference() {
    transpose_sweep(320);
}

#[test]
fn display_body_matches_reference() {
    // Around multiples of the warp and of the 256-thread block, so that
    // the last warp and the last block are short, full or a single lane.
    const LENGTHS: [usize; 18] =
        [1, 2, 31, 32, 33, 63, 64, 65, 255, 256, 257, 287, 288, 289, 511, 512, 513, 1031];
    let mut rng = Rng(0xD15B_1A70);
    let mut divergent = 0u64;
    let (mut none_hit, mut all_hit) = (false, false);
    for case in 0..360 {
        let n = if case % 2 == 0 { LENGTHS[(case / 2) % 18] } else { 1 + rng.below(1500) };
        let required = rng.below(4) as u32;
        // No hit, all hits, a coin per element, hits up to a split point
        // (inside a warp, mostly), one hit in a hundred.
        let split = rng.below(n + 1);
        let depth: Vec<u32> = (0..n)
            .map(|i| match (case / 2) % 5 {
                0 => required.saturating_sub(1),
                1 => required + rng.below(3) as u32,
                2 => required + rng.below(2) as u32 - (required > 0) as u32,
                3 => required + (i < split) as u32 - (required > 0) as u32,
                _ => {
                    if rng.below(100) == 0 {
                        required
                    } else {
                        required.saturating_sub(1)
                    }
                }
            })
            .collect();
        let mut gpu = device();
        let depth = gpu.mem.upload(&depth);
        let mut observe = |mode: Mode, parts: usize| -> Observed {
            let outputs: Vec<_> = (0..parts).map(|_| gpu.mem.alloc::<u32>(n)).collect();
            let kernels: Vec<_> = outputs
                .iter()
                .map(|&hits| DisplayKernel {
                    depth,
                    hits,
                    width: n,
                    height: 1,
                    required_depth: required,
                })
                .collect();
            let cfg = kernels[0].config();
            let counters = run_probed(&mut gpu, kernels, cfg, mode);
            let hits: Vec<u32> = outputs.iter().flat_map(|&hits| gpu.mem.download(hits)).collect();
            if mode == Mode::Reference {
                divergent += counters.0.iter().map(|c| c.divergent_branches).sum::<u64>();
                none_hit |= hits.iter().all(|&hit| hit == 0);
                all_hit |= hits.iter().all(|&hit| hit == 1);
            }
            (counters, hits)
        };
        let label = format!("case {case}: {n} elements, required depth {required}");
        check_case(case, &label, &mut observe);
    }
    assert!(divergent > 0 && none_hit && all_hit, "split warps, a mask without hits, a full one");
}

/// The pipeline's two fused chains (scale + filter + scan + transpose,
/// then scan + transpose: a level's integral image from the frame
/// texture), every stage stacked over `slots` request slots as the
/// pipeline stacks them, every stage kernel a [`Probe`].
#[test]
fn fused_chains_match_reference() {
    let mut rng = Rng(0xF05E_D000);
    for case in 0..120 {
        let (fw, fh) = geometry(&mut rng, case);
        let (w, h) = if case % 4 == 0 { (fw, fh) } else { geometry(&mut rng, case + 3) };
        let slots = 1 + case % 3;
        let mut gpu = device();
        let texs: Vec<_> = (0..slots)
            .map(|_| {
                let texels = (0..fw * fh).map(|_| rng.pixel()).collect();
                gpu.bind_texture(Texture2D::from_data(fw, fh, texels))
            })
            .collect();
        let mut observe = |mode: Mode| -> Observed {
            let n = w * h;
            let bufs: Vec<_> = (0..slots)
                .map(|_| {
                    let floats = [gpu.mem.alloc::<f32>(n), gpu.mem.alloc::<f32>(n)];
                    (
                        floats,
                        [gpu.mem.alloc::<u32>(n), gpu.mem.alloc::<u32>(n), gpu.mem.alloc::<u32>(n)],
                    )
                })
                .collect();
            let mut logs = Vec::new();
            // One stage of a chain: its kernels over the slots, probed and
            // stacked.
            macro_rules! stage {
                ($kernels:expr) => {{
                    let kernels: Vec<_> = $kernels;
                    let cfg = kernels[0].config();
                    let stacked = BatchedKernel::new(probes(kernels, mode, &mut logs), cfg);
                    let cfg = stacked.stacked_config(cfg);
                    (stacked, cfg)
                }};
            }
            let slot = |i: usize| (texs[i], bufs[i].0, bufs[i].1);
            let over_slots = || (0..slots).map(slot);
            let scale = stage!(over_slots()
                .map(|(src, [dst, _], _)| ScaleKernel {
                    src,
                    src_w: fw,
                    src_h: fh,
                    dst,
                    dst_w: w,
                    dst_h: h
                })
                .collect());
            let filter = stage!(over_slots()
                .map(|(_, [src, dst], _)| FilterKernel { src, dst, width: w, height: h })
                .collect());
            let scan1 = stage!(over_slots()
                .map(|(_, [_, filtered], [output, ..])| ScanRowsKernel {
                    input: ScanInput::QuantizeF32(filtered),
                    output,
                    width: w,
                    height: h,
                })
                .collect());
            let t1 = stage!(over_slots()
                .map(|(_, _, [src, dst, _])| TransposeKernel { src, dst, width: w, height: h })
                .collect());
            let scan2 = stage!(over_slots()
                .map(|(_, _, [output, src, _])| ScanRowsKernel {
                    input: ScanInput::U32(src),
                    output,
                    width: h,
                    height: w,
                })
                .collect());
            let t2 = stage!(over_slots()
                .map(|(_, _, [src, _, dst])| TransposeKernel { src, dst, width: h, height: w })
                .collect());
            let chain_a = FusedChain::new("scale+filter+scan+transpose")
                .then(scale.0, scale.1)
                .then(filter.0, filter.1)
                .then(scan1.0, scan1.1)
                .then(t1.0, t1.1);
            gpu.launch_fused(chain_a, StreamId::DEFAULT).unwrap();
            let chain_b = FusedChain::new("scan+transpose").then(scan2.0, scan2.1).then(t2.0, t2.1);
            gpu.launch_fused(chain_b, StreamId::DEFAULT).unwrap();
            let timeline = timeline_bits(&gpu.synchronize());
            let counters = take_counters(&logs);
            let mut bits = Vec::new();
            for (floats, words) in bufs {
                for buf in floats {
                    bits.extend(f32_bits(gpu.mem.download(buf)));
                    gpu.mem.free(buf);
                }
                for buf in words {
                    bits.extend(gpu.mem.download(buf));
                    gpu.mem.free(buf);
                }
            }
            ((counters, timeline), bits)
        };
        let reference = observe(Mode::Reference);
        assert!(reference.0 .0.iter().any(|c| c.fused_bytes() > 0), "case {case}: fused traffic");
        for mode in modes(case) {
            let label = format!("case {case}: {fw}x{fh} -> {w}x{h}, {slots} slots, {mode:?}");
            assert_same(observe(mode), &reference, &label);
        }
    }
}

/// The sweeps must notice (as a difference from the reference body, not a
/// crash) a band that stops one column short of the image's right edge …
#[test]
#[should_panic(expected = "case ")]
fn sweep_catches_a_band_edge_off_by_one() {
    with_band_mutation(BandMutation::BandEdge, || filter_sweep(60));
}

/// … the last block of a grid row metered like a full one …
#[test]
#[should_panic(expected = "case ")]
fn sweep_catches_the_wrong_cost_class_for_an_edge_block() {
    with_band_mutation(BandMutation::EdgeCostClass, || scale_sweep(60));
}

/// … and a cascade block row taken for inside the image whose tile ends
/// one row past it (a read past the integral image, or zeros missed).
#[test]
#[should_panic]
fn sweep_catches_an_inside_test_off_by_one_row() {
    with_mutation(Mutation::InsideRow, || cascade_sweep(PROFILES * 80));
}

/// `quantize_luma` replaced a call into libm: it must equal the std
/// expression on every `f32`.
#[test]
fn quantize_luma_is_round_then_clamp() {
    let check = |v: f32| {
        let want = v.round().clamp(0.0, 255.0) as u32;
        assert_eq!(quantize_luma(v), want, "{v:?} ({:#010x})", v.to_bits());
    };
    // Around every integer and every half in and just past the range.
    for k in 0..=256u32 {
        for centre in [k as f32, k as f32 + 0.5] {
            let bits = centre.to_bits();
            for b in [bits.wrapping_sub(1), bits, bits + 1] {
                check(f32::from_bits(b));
                check(-f32::from_bits(b));
            }
        }
    }
    for v in [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN] {
        check(v);
    }
    // Past the point where every float is an integer.
    for e in 23..=127 {
        let v = f32::from_bits((127 + e) << 23);
        for v in [v, -v, f32::from_bits(v.to_bits() + 1), f32::from_bits(v.to_bits() - 1)] {
            check(v);
        }
    }
    // 2^21 random bit patterns (all classes: subnormals, NaNs, both
    // signs), each also folded into the exponents 2^-4 ..= 2^11 around
    // the range with its sign and mantissa kept.
    let mut rng = Rng(0x5CA9_0000);
    for _ in 0..1 << 21 {
        let bits = rng.next() as u32;
        check(f32::from_bits(bits));
        check(f32::from_bits((bits & 0x807F_FFFF) | ((123 + (bits >> 23) % 16) << 23)));
    }
}
