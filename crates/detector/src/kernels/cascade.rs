//! The cascade-evaluation kernel (paper §III-C) — the pipeline's most
//! resource-intensive stage and the subject of the paper's optimization
//! study.
//!
//! Geometry follows the paper exactly: the integral image is divided into
//! 24x24 chunks, one thread block per chunk, one thread per sliding-window
//! origin. Each thread cooperatively stages **4 integral pixels** into the
//! block's shared 48x48 tile (Eqs. 1-4 with `n = m = 24`), three of which
//! belong to regions explored by neighbouring blocks' windows; a barrier
//! then opens SIMT evaluation.
//!
//! Stump records are fetched from constant memory in their compressed
//! 3-word form (§III-C: thresholds/coordinates/dimensions/weights packed
//! into 16-bit and 5-bit fields) — since all threads of a warp read the
//! same record at the same time, each read is a single broadcast. Memory
//! accounting matches the paper: a 2-rectangle feature costs 18 accesses
//! (8 shared tile reads + 10 attribute halfwords), a 3-rectangle feature
//! 27.
//!
//! Early rejection is warp-granular: a warp keeps iterating stages while
//! any lane is still alive; a stage-exit branch on which the active lanes
//! disagree is metered as divergent (the statistic behind the paper's
//! 98.9 % branch-efficiency figure). Every thread writes the deepest stage
//! it reached to the output array, which the display stage thresholds.
//!
//! # The functional body is a model, not an emulation
//!
//! The device walks a stage stump by stump with all 32 lanes in lockstep.
//! `run_blocks` computes the same bytes and the same counters in a cheaper
//! order, a grid row of blocks at a time (DESIGN.md `#functional-bodies`):
//!
//! * **Per warp:** which stages it executes (every stage up to and
//!   including the one its last lane fails) and whether each stage-exit
//!   branch diverged (`0 < survivors < entrants`). A warp executes every
//!   stump of a stage it enters, whatever its lanes do, so the stage's
//!   constant broadcasts, tile transactions, ALU ops and loop branches are
//!   constants of the stage (`PreStage::rects`, the stump count) added
//!   once per warp and stage — never per stump or per lane.
//! * **Stage 0, dense:** every valid window of the block enters stage 0
//!   and nearly none leaves it (1.5 % on a 1080p frame), and the windows
//!   of one block row sit side by side in the 48-wide tile. So stage 0 is
//!   evaluated per block row over runs of 24 adjacent windows: a
//!   rectangle corner is one unit-stride 24-word load, not 24 scattered
//!   ones. What a warp is charged does not depend on who computed its
//!   lanes' sums: a warp with a valid lane is charged stage 0, and its
//!   exit diverged iff some but not all of its valid lanes survived.
//! * **Stages 1…, per lane:** the stage sum, the running score and the
//!   depth. Lanes do not interact, so each surviving lane runs the whole
//!   stage in one loop over its stumps and survivors are compacted in
//!   place, in lane order.
//! * **In place:** a block whose 48-wide tile lies inside the image has
//!   every window valid and reads every corner straight from the integral
//!   image, at the image's stride; such blocks of a grid row run stage 0
//!   row-major across the whole run, so integral rows are read and result
//!   rows written left to right. Only blocks at the image's border stage
//!   the zero-bordered tile, as the device does for every block.
//!
//! Both passes are `PreStage::sums`, generic over the run width (24 for
//! a block row, 1 for a lane): leaves are added to `0.0f32` in stump order
//! per window — the order the lockstep walk adds them in — and the stump
//! response is wrapping `i32` arithmetic, equal mod 2³² to summing in
//! `i64` and truncating. `precompile` folds the sign of a rectangle's
//! weight into its corner order, so most weights are 1 and cost no
//! multiply.
//!
//! The body (`CascadeKernel::blocks`) runs at the host's vector width
//! ([`fd_gpu::at_vector_width`]): compiled twice, its AVX2 copy runs on a
//! CPU that has AVX2, where stage 0's run of 24 windows is three vectors.
//! It computes only wrapping integers and `f32` adds, subtracts, compares
//! and selects in source order, so both copies give the same bytes.
//!
//! The stump-major per-block body lives on in `kernels/reference.rs` as
//! the test oracle: equal output bits and equal counters per block,
//! however a launch is cut into ranges.

use std::ops::Range;
use std::sync::Arc;

use fd_gpu::{ConstPtr, DevBuf, Kernel, KernelCounters, LaunchConfig, LaunchCtx};
use fd_haar::encode::{quantize_cascade, STUMP_WORDS};
use fd_haar::Cascade;

use super::{mutated, Mutation};

/// Per rectangle of a stump, the offsets of its four corners from a
/// window's origin in an array of some row stride (see
/// [`PreStage::offsets_at`]).
pub(super) type CornerOffsets = [[u32; 4]; 4];

/// A stump precompiled for evaluation relative to a window origin.
#[derive(Debug, Clone, Copy)]
pub(super) struct PreStump {
    /// Corners `[dd, du, ld, lu]` per rectangle as `(x, y)` from the
    /// window origin: its weighted sum is `weight * (I[dd] - I[du] -
    /// I[ld] + I[lu])`. A rectangle of negative weight is stored as
    /// `|weight|` with each corner pair swapped (`-w * (dd - du - ld +
    /// lu) = w * (du - dd - lu + ld)`), so that nearly every weight of a
    /// Haar feature is exactly 1.
    corners: [[(u8, u8); 4]; 4],
    pub(super) weights: [i32; 4],
    pub(super) nrects: u32,
    pub(super) threshold: i32,
    pub(super) left: f32,
    pub(super) right: f32,
}

#[derive(Debug, Clone)]
pub(crate) struct PreStage {
    pub(super) stumps: Vec<PreStump>,
    /// The stumps' corner offsets in the 48-wide shared tile.
    pub(super) tile_offs: Vec<CornerOffsets>,
    pub(super) threshold: f32,
    /// Rectangles over all of the stage's stumps: with the stump count,
    /// everything a warp's pass through the stage is metered from.
    rects: u64,
}

impl PreStage {
    /// Every stump's corner offsets in an array of `stride` words per row:
    /// the shared tile's 48, or a level's width for windows evaluated
    /// straight from its integral image.
    fn offsets_at(&self, stride: usize) -> Vec<CornerOffsets> {
        let at = |(x, y): (u8, u8)| (y as usize * stride + x as usize) as u32;
        self.stumps.iter().map(|stump| stump.corners.map(|rect| rect.map(at))).collect()
    }

    /// The stage sums of the `N` windows whose origins are `win[0..N]`
    /// (`win`: the array from the first origin on, `offs` this stage's
    /// offsets at its stride): per window the leaves added to `0.0f32` in
    /// stump order. A rectangle corner of `N` adjacent windows is `N`
    /// adjacent words, so every inner loop is unit-stride over `[_; N]`.
    /// The response wraps `i32` — equal mod 2³² to the exact sum
    /// truncated, which is what the device compares.
    #[inline(always)]
    fn sums<const N: usize>(&self, offs: &[CornerOffsets], win: &[u32]) -> [f32; N] {
        let mut sums = [0.0f32; N];
        for (stump, offs) in self.stumps.iter().zip(offs) {
            let mut resp = [0i32; N];
            let rects = offs.iter().zip(stump.weights).take(stump.nrects as usize);
            for (offs, weight) in rects {
                // One range check per corner (`o..` then `..N` would be two,
                // which costs the one-window case a third of its time).
                let [dd, du, ld, lu] = offs.map(|o| &win[o as usize..o as usize + N]);
                let area = |j: usize| {
                    dd[j].wrapping_sub(du[j]).wrapping_sub(ld[j]).wrapping_add(lu[j]) as i32
                };
                // The default target has no 32-bit vector multiply; its
                // emulation is two fifths of a rectangle's instructions,
                // and most weights are 1 (see `PreStump::corners`).
                if weight == 1 {
                    for (j, resp) in resp.iter_mut().enumerate() {
                        *resp = resp.wrapping_add(area(j));
                    }
                } else {
                    for (j, resp) in resp.iter_mut().enumerate() {
                        *resp = resp.wrapping_add(weight.wrapping_mul(area(j)));
                    }
                }
            }
            // The leaf as a mask select on the bit patterns: the branchy
            // form compiles to a scalar pick per window.
            let (left, right) = (stump.left.to_bits(), stump.right.to_bits());
            for j in 0..N {
                let below = ((resp[j] < stump.threshold) as u32).wrapping_neg();
                sums[j] += f32::from_bits((left & below) | (right & !below));
            }
        }
        sums
    }
}

/// Precompile `cascade` for window-relative evaluation: once per pipeline,
/// shared by every kernel launched from it.
pub(crate) fn precompile(cascade: &Cascade) -> Arc<Vec<PreStage>> {
    assert_eq!(cascade.window, CascadeKernel::BLOCK, "kernel is specialized for 24-px windows");
    let stages = cascade
        .stages
        .iter()
        .map(|st| {
            let stumps = st
                .stumps
                .iter()
                .map(|s| {
                    let mut corners = [[(0u8, 0u8); 4]; 4];
                    let mut weights = [0i32; 4];
                    for (i, r) in s.feature.rects().iter().enumerate() {
                        let (x0, y0, x1, y1) = (r.x, r.y, r.x + r.w, r.y + r.h);
                        let [dd, du, ld, lu] = [(x1, y1), (x1, y0), (x0, y1), (x0, y0)];
                        corners[i] = if r.weight < 0 { [du, dd, lu, ld] } else { [dd, du, ld, lu] };
                        weights[i] = (r.weight as i32).abs();
                    }
                    PreStump {
                        corners,
                        weights,
                        nrects: s.feature.rects().len() as u32,
                        threshold: s.threshold,
                        left: s.left,
                        right: s.right,
                    }
                })
                .collect();
            let mut stage = PreStage {
                stumps,
                tile_offs: Vec::new(),
                threshold: st.threshold,
                rects: st.stumps.iter().map(|s| s.feature.rects().len() as u64).sum(),
            };
            stage.tile_offs = stage.offsets_at(CascadeKernel::TILE as usize);
            stage
        })
        .collect();
    Arc::new(stages)
}

/// Per stage of a precompiled cascade, its stumps' corner offsets at one
/// row stride.
pub(crate) type StageOffsets = Vec<Vec<CornerOffsets>>;

/// `stages`' corner offsets at the stride of a `width x height` integral
/// image: once per pyramid level, shared by every kernel launched on it.
/// Empty for a level too small for any block's tile to lie inside it
/// (every block then stages its tile), which is every level of a small
/// frame.
pub(crate) fn image_offsets(stages: &[PreStage], width: usize, height: usize) -> Arc<StageOffsets> {
    let (tile, block) = (CascadeKernel::TILE as usize, CascadeKernel::BLOCK as usize);
    // The second block of the second block row is the first candidate.
    let room = width.min(height) >= block - 1 + tile;
    let stages = if room { stages } else { &[] };
    Arc::new(stages.iter().map(|stage| stage.offsets_at(width)).collect())
}

/// One launch per pyramid level.
pub struct CascadeKernel {
    /// Inclusive integral image of the level (`width x height`).
    pub integral: DevBuf<u32>,
    pub width: usize,
    pub height: usize,
    /// Deepest stage reached, per pixel.
    pub depth_out: DevBuf<u32>,
    /// Accumulated stage margins, per pixel (detection confidence).
    pub score_out: DevBuf<f32>,
    /// The compressed cascade resident in constant memory (metering and
    /// size accounting; the functional copy below decodes to the same
    /// values — enforced in [`CascadeKernel::new`]).
    pub const_ptr: ConstPtr,
    pub(super) stages: Arc<Vec<PreStage>>,
    /// `stages`' corner offsets at the integral image's own stride:
    /// blocks whose tile lies inside the image read it in place.
    image_offs: Arc<StageOffsets>,
    pub(super) window: usize,
    /// Ablation: when `false`, rectangle corners are fetched from global
    /// memory instead of the cooperative shared tile (4 scattered 4-byte
    /// reads per rectangle per lane), modelling a kernel without the
    /// Eqs. 1-4 staging.
    pub use_shared_tile: bool,
}

impl CascadeKernel {
    /// Threads per block side; one thread per window origin in a
    /// `BLOCK x BLOCK` chunk.
    pub const BLOCK: u32 = 24;
    /// Shared tile side: `2 * BLOCK` (Eqs. 1-4).
    pub const TILE: u32 = 48;
    /// Shared-memory request for the tile.
    pub const SHARED_BYTES: u32 = Self::TILE * Self::TILE * 4;

    /// `Self::with_stages` over a freshly precompiled `cascade`,
    /// which must already be quantized to the constant-memory grid (so the
    /// functional results equal what the device would compute from
    /// `const_ptr`).
    pub fn new(
        cascade: &Cascade,
        integral: DevBuf<u32>,
        width: usize,
        height: usize,
        depth_out: DevBuf<u32>,
        score_out: DevBuf<f32>,
        const_ptr: ConstPtr,
    ) -> Self {
        debug_assert_eq!(
            quantize_cascade(cascade),
            *cascade,
            "cascade must be pre-quantized to the constant-memory grid"
        );
        let stages = precompile(cascade);
        let image_offs = image_offsets(&stages, width, height);
        Self::with_stages(
            stages, image_offs, integral, width, height, depth_out, score_out, const_ptr,
        )
    }

    /// The kernel of one level over an already precompiled cascade and its
    /// [`image_offsets`] at `width`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn with_stages(
        stages: Arc<Vec<PreStage>>,
        image_offs: Arc<StageOffsets>,
        integral: DevBuf<u32>,
        width: usize,
        height: usize,
        depth_out: DevBuf<u32>,
        score_out: DevBuf<f32>,
        const_ptr: ConstPtr,
    ) -> Self {
        Self {
            integral,
            width,
            height,
            depth_out,
            score_out,
            const_ptr,
            image_offs,
            stages,
            window: Self::BLOCK as usize,
            use_shared_tile: true,
        }
    }

    /// Ablation constructor: skip the shared-memory tile staging. Unlike a
    /// re-metering wrapper, this has to live in the body: what the scattered
    /// reads cost depends on each warp's entrants per stage, which a block's
    /// counter totals do not carry.
    pub fn without_shared_tile(mut self) -> Self {
        self.use_shared_tile = false;
        self
    }

    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::tile2d(self.width, self.height, Self::BLOCK, Self::BLOCK)
            .with_shared_mem(Self::SHARED_BYTES)
    }

    pub fn n_stages(&self) -> u32 {
        self.stages.len() as u32
    }
}

/// Where a block's windows are read from: the array, its row stride, the
/// index of the block's tile entry (0, 0) — integral entry `(bx - 1, by -
/// 1)` — and, for the integral image, every stage's corner offsets at its
/// stride (the tile's are the stages' own).
#[derive(Clone, Copy)]
struct WindowSource<'a> {
    data: &'a [u32],
    stride: usize,
    origin: usize,
    image_offs: Option<&'a StageOffsets>,
}

impl WindowSource<'_> {
    /// The sums of stage `si` for the `N` adjacent windows from `(tx, ty)`
    /// of the block on.
    #[inline(always)]
    fn sums<const N: usize>(
        &self,
        si: usize,
        stage: &PreStage,
        (tx, ty): (usize, usize),
    ) -> [f32; N] {
        let offs = self.image_offs.map_or(&stage.tile_offs, |offs| &offs[si]);
        stage.sums(offs, &self.data[self.origin + ty * self.stride + tx..])
    }
}

/// The launch's two result arrays, `width x height` each.
struct Results<'a> {
    depth: &'a mut [u32],
    score: &'a mut [f32],
}

/// Survivor masks of one block's dense stage 0: bit `tx` of entry `ty` is
/// set when the valid window at `(tx, ty)` passed.
type Passed = [u32; CascadeKernel::BLOCK as usize];

impl CascadeKernel {
    /// Dense stage 0 of block row `ty` of the block at pixel `(bx, by)`:
    /// the row's `valid_w` windows are one run of 24 adjacent ones
    /// (sums past `valid_w` are computed from staged zeros and dropped).
    /// Writes their depth and score and returns the row's survivor mask.
    #[inline(always)]
    fn dense_row(
        &self,
        src: WindowSource<'_>,
        (bx, by): (usize, usize),
        ty: usize,
        valid_w: usize,
        out: &mut Results<'_>,
    ) -> u32 {
        let row = (by + ty) * self.width + bx..(by + ty) * self.width + bx + valid_w;
        let (depth, score) = (&mut out.depth[row.clone()], &mut out.score[row]);
        let Some(stage) = self.stages.first() else {
            depth.fill(0);
            score.fill(0.0);
            return 0;
        };
        let sums = src.sums::<{ Self::BLOCK as usize }>(0, stage, (0, ty));
        let mut passed = 0;
        for (tx, ((score, depth), sum)) in score.iter_mut().zip(depth).zip(sums).enumerate() {
            let pass = sum >= stage.threshold;
            *score = 0.0 + (sum - stage.threshold);
            *depth = pass as u32;
            passed |= (pass as u32) << tx;
        }
        passed
    }

    /// Stages 1… for the survivors of [`Self::dense_row`] (lane by lane,
    /// updating their depth and score in place) and the counters of the
    /// whole block: what each of its warps is charged for the stages it
    /// executes, tile staging and the result stores.
    #[inline(always)]
    fn finish_block(
        &self,
        ctx: &LaunchCtx<'_>,
        src: WindowSource<'_>,
        (bx, by): (usize, usize),
        (valid_w, valid_h): (usize, usize),
        passed: &Passed,
        out: &mut Results<'_>,
    ) -> KernelCounters {
        let b = Self::BLOCK as usize;
        let (w, h) = (self.width, self.height);
        let mut c = KernelCounters::default();

        // Coalesced 4-byte loads covering the `48 x 48` tile + the
        // matching shared stores (whole-warp transactions,
        // `loads_per_thread` rounds), then the barrier.
        let threads = (b * b) as u64;
        let block_warps = threads.div_ceil(ctx.warp_size() as u64);
        if self.use_shared_tile {
            let tile_entries = (Self::TILE * Self::TILE) as u64;
            c.global_bytes_read += 4 * tile_entries;
            c.shared_transactions += tile_entries.div_ceil(threads) * block_warps;
            c.barriers += ctx.warps_in_block();
        }

        ctx.for_each_warp(
            #[inline(always)]
            |_, lanes| {
                // The warp's lanes that passed stage 0, in lane order (window
                // position in the block), and how many entered it. Its 32 lanes
                // cover parts of two or three block rows: columns `c0..c1` of
                // row `ty`.
                let mut alive = [(0u8, 0u8); 32];
                let mut n_alive = 0usize;
                let mut entrants = 0usize;
                let (lo, hi) = (lanes.start as usize, lanes.end as usize);
                let rows = &passed[..hi.div_ceil(b).min(valid_h)];
                for (ty, &row_passed) in rows.iter().enumerate().skip(lo / b) {
                    let (c0, c1) = (lo.max(ty * b) - ty * b, hi.min(ty * b + b) - ty * b);
                    entrants += c1.min(valid_w) - c0.min(valid_w);
                    let mut bits = row_passed & (u32::MAX << c0) & !(u32::MAX << c1);
                    while bits != 0 {
                        let tx = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        alive[n_alive] = (tx as u8, ty as u8);
                        n_alive += 1;
                    }
                }
                // Lanes that started the cascade: the no-tile ablation fetches
                // corners for all of them at every stage the warp executes.
                let n_active = entrants as u64;
                for (si, stage) in self.stages.iter().enumerate() {
                    if entrants == 0 {
                        break;
                    }
                    // The warp executes every stump of a stage it enters, so
                    // the stage's cost is a constant of the stage: per stump a
                    // record broadcast from constant memory (its 3 compressed
                    // words), 4 corner reads per rectangle (one shared
                    // transaction per access step, or 4 scattered 4-byte
                    // global reads per lane without the tile), `4 * nrects +
                    // 6` ALU ops and the uniform loop-control branch; then the
                    // stage-exit branch.
                    let n_stumps = stage.stumps.len() as u64;
                    c.const_broadcasts += STUMP_WORDS as u64 * n_stumps;
                    if self.use_shared_tile {
                        c.shared_transactions += 4 * stage.rects;
                    } else {
                        c.global_bytes_read += 16 * stage.rects * n_active;
                    }
                    c.alu_ops += 4 * stage.rects + 6 * n_stumps + 3;
                    c.branches += n_stumps + 1;

                    // Stage 0 was decided by the dense pass; later stages run
                    // per surviving lane, survivors compacted in place.
                    if si > 0 {
                        n_alive = 0;
                        for i in 0..entrants {
                            let (tx, ty) = (alive[i].0 as usize, alive[i].1 as usize);
                            let [sum] = src.sums::<1>(si, stage, (tx, ty));
                            let at = (by + ty) * w + bx + tx;
                            out.score[at] += sum - stage.threshold;
                            if sum >= stage.threshold {
                                out.depth[at] = si as u32 + 1;
                                alive[n_alive] = alive[i];
                                n_alive += 1;
                            }
                        }
                    }
                    if 0 < n_alive && n_alive < entrants {
                        c.divergent_branches += 1;
                    }
                    entrants = n_alive;
                }
            },
        );

        // Depth + score stores: 8 bytes per covered pixel.
        let covered = (w - bx).min(b) * (h - by).min(b);
        c.global_bytes_written += 8 * covered as u64;
        c
    }

    /// The block at pixel `(bx, by)` through the staged tile, as the
    /// device runs every block: the form for blocks whose tile reaches
    /// past the image, where the staged zeros stand in for the integral's
    /// zero border and for the windows that do not exist.
    #[inline(always)]
    fn staged_block(
        &self,
        ctx: &LaunchCtx<'_>,
        integral: &[u32],
        tile: &mut [u32],
        (bx, by): (usize, usize),
        out: &mut Results<'_>,
    ) -> KernelCounters {
        let (b, side) = (Self::BLOCK as usize, Self::TILE as usize);
        let (w, h) = (self.width, self.height);
        // ---- Cooperative tile load (Eqs. 1-4): the block stages the
        // `48 x 48` neighbourhood its windows touch. Tile (0,0) maps to
        // integral entry (bx-1, by-1); entries outside the image are zero,
        // the in-image span of each row is one copy.
        tile.fill(0);
        let (gx0, gy0) = (bx.saturating_sub(1), by.saturating_sub(1));
        let gx1 = (bx + side - 1).min(w);
        let gy1 = (by + side - 1).min(h);
        for gy in gy0..gy1 {
            let t0 = (gy + 1 - by) * side + (gx0 + 1 - bx);
            tile[t0..t0 + (gx1 - gx0)].copy_from_slice(&integral[gy * w + gx0..gy * w + gx1]);
        }
        // Threads without a whole window in the image report depth 0 and
        // no score; window origins `(bx + tx, by + ty)` with `tx <
        // valid_w` and `ty < valid_h` are the valid ones.
        let (covered_w, covered_h) = ((w - bx).min(b), (h - by).min(b));
        for y in by..by + covered_h {
            out.depth[y * w + bx..][..covered_w].fill(0);
            out.score[y * w + bx..][..covered_w].fill(f32::NEG_INFINITY);
        }
        let valid_w = (w + 1).saturating_sub(bx + self.window).min(b);
        let valid_h = (h + 1).saturating_sub(by + self.window).min(b);
        let src = WindowSource { data: tile, stride: side, origin: 0, image_offs: None };
        let mut passed = [0u32; Self::BLOCK as usize];
        if valid_w > 0 {
            for (ty, passed) in passed.iter_mut().enumerate().take(valid_h) {
                *passed = self.dense_row(src, (bx, by), ty, valid_w, out);
            }
        }
        self.finish_block(ctx, src, (bx, by), (valid_w, valid_h), &passed, out)
    }

    /// The launch's blocks `blocks`, grid row by grid row: the one body
    /// [`Kernel::run_blocks`] runs at the host's vector width
    /// ([`fd_gpu::at_vector_width`]). Everything on its hot path is
    /// `#[inline(always)]`, so the AVX2 copy is the whole body.
    #[inline(always)]
    pub(super) fn blocks(
        &self,
        ctx: &LaunchCtx<'_>,
        blocks: Range<u64>,
        sink: &mut dyn FnMut(&KernelCounters),
    ) {
        let (b, side) = (Self::BLOCK as usize, Self::TILE as usize);
        let (w, h) = (self.width, self.height);
        ctx.require_shared(Self::SHARED_BYTES as usize);

        let integral = ctx.mem.read(self.integral);
        let mut depth_out = ctx.mem.write(self.depth_out);
        let mut score_out = ctx.mem.write(self.score_out);
        let out = &mut Results { depth: &mut depth_out, score: &mut score_out };
        let mut tile = vec![0u32; side * side];
        let mut passed: Vec<Passed> = Vec::new();

        for (first, len) in ctx.bands(blocks) {
            let by = first.y as usize * b;
            let xs = first.x as usize..first.x as usize + len as usize;
            // Blocks whose tile — integral entries `(bx - 1, by - 1)` to
            // `(bx + 46, by + 46)` — lies inside the image: every
            // window valid, every corner read in place.
            let past = mutated(Mutation::InsideRow) as usize;
            let rows_inside = by >= 1 && by - 1 + side <= h + past;
            let inside = if rows_inside && w >= side && !self.image_offs.is_empty() {
                let inside = xs.start.max(1)..xs.end.min((w - side + 1) / b + 1);
                inside.start..inside.end.max(inside.start)
            } else {
                xs.start..xs.start
            };

            for x in xs.start..inside.start {
                sink(&self.staged_block(ctx, &integral, &mut tile, (x * b, by), out));
            }
            // The run of inside blocks, stage 0 row-major across the whole
            // run: integral rows are read and result rows written left to
            // right, full width.
            let at = |x: usize| WindowSource {
                data: &integral,
                stride: w,
                origin: (by - 1) * w + x * b - 1,
                image_offs: Some(&self.image_offs),
            };
            passed.clear();
            passed.resize(inside.len(), [0; Self::BLOCK as usize]);
            for ty in 0..b {
                for (x, passed) in inside.clone().zip(&mut passed) {
                    passed[ty] = self.dense_row(at(x), (x * b, by), ty, b, out);
                }
            }
            for (x, passed) in inside.clone().zip(&passed) {
                sink(&self.finish_block(ctx, at(x), (x * b, by), (b, b), passed, out));
            }
            for x in inside.end..xs.end {
                sink(&self.staged_block(ctx, &integral, &mut tile, (x * b, by), out));
            }
        }
    }
}

impl Kernel for CascadeKernel {
    fn name(&self) -> &'static str {
        "cascade_eval"
    }

    fn run_blocks(
        &self,
        ctx: &LaunchCtx<'_>,
        blocks: Range<u64>,
        sink: &mut dyn FnMut(&KernelCounters),
    ) {
        fd_gpu::at_vector_width(
            #[inline(always)]
            || self.blocks(ctx, blocks, sink),
        );
    }

    fn access(&self, set: &mut fd_gpu::AccessSet) {
        set.reads(self.integral).writes(self.depth_out).writes(self.score_out);
    }

    fn registers_per_thread(&self) -> u32 {
        // The footprint class of the real sm_20 kernel: window origin,
        // running score, stump decode scratch and the tile base pointer
        // stay live across the stage loop.
        22
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_gpu::{DeviceSpec, ExecMode, Gpu};
    use fd_haar::encode::encode_cascade;
    use fd_haar::{FeatureKind, HaarFeature, Stage, Stump};
    use fd_imgproc::{GrayImage, IntegralImage};

    /// Build a quantized single-stage contrast cascade.
    fn contrast_cascade() -> Cascade {
        let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        let mut c = Cascade::new("t", 24);
        c.stages.push(Stage {
            stumps: vec![Stump { feature: f, threshold: 1024, left: -1.0, right: 1.0 }],
            threshold: 0.5,
        });
        c.stages.push(Stage {
            stumps: vec![Stump { feature: f, threshold: 1024, left: -1.0, right: 1.0 }],
            threshold: 0.5,
        });
        quantize_cascade(&c)
    }

    /// Device inclusive integral from a host image.
    fn device_integral(img: &GrayImage) -> Vec<u32> {
        let ii = IntegralImage::from_gray(img);
        let (w, h) = (img.width(), img.height());
        let mut out = vec![0u32; w * h];
        for y in 0..h {
            for x in 0..w {
                out[y * w + x] = ii.at(x + 1, y + 1);
            }
        }
        out
    }

    fn run_cascade(c: &Cascade, img: &GrayImage) -> (Vec<u32>, Vec<f32>, fd_gpu::Timeline) {
        let (w, h) = (img.width(), img.height());
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let integral = gpu.mem.upload(&device_integral(img));
        let depth = gpu.mem.alloc::<u32>(w * h);
        let score = gpu.mem.alloc::<f32>(w * h);
        let cp = gpu.const_upload(&encode_cascade(c));
        let k = CascadeKernel::new(c, integral, w, h, depth, score, cp);
        let cfg = k.config();
        gpu.launch_default(k, cfg).unwrap();
        let t = gpu.synchronize();
        (gpu.mem.download(depth), gpu.mem.download(score), t)
    }

    #[test]
    fn matches_cpu_reference_on_random_image() {
        let img = GrayImage::from_fn(64, 48, |x, y| {
            ((x as u32 * 37 + y as u32 * 101).wrapping_mul(2654435761) >> 24) as f32
        });
        let c = contrast_cascade();
        let (depth, score, _) = run_cascade(&c, &img);
        let ii = IntegralImage::from_gray(&img);
        for oy in 0..=48 - 24 {
            for ox in 0..=64 - 24 {
                let r = c.eval_window(&ii, ox, oy);
                assert_eq!(depth[oy * 64 + ox], r.depth, "depth at ({ox},{oy})");
                assert!(
                    (score[oy * 64 + ox] - r.score).abs() < 1e-4,
                    "score at ({ox},{oy}): gpu {} cpu {}",
                    score[oy * 64 + ox],
                    r.score
                );
            }
        }
    }

    #[test]
    fn invalid_origins_get_zero_depth() {
        let img = GrayImage::from_fn(40, 40, |x, _| if x < 20 { 0.0 } else { 255.0 });
        let c = contrast_cascade();
        let (depth, score, _) = run_cascade(&c, &img);
        // Origins beyond (w-24, h-24) are invalid.
        assert_eq!(depth[39], 0);
        assert_eq!(score[39], f32::NEG_INFINITY);
        assert_eq!(depth[39 * 40 + 39], 0);
    }

    #[test]
    fn detects_the_contrast_pattern_it_was_built_for() {
        // Strong left-dark/right-bright edge at the window the feature
        // expects: depth must reach 2 (both stages) at origin (0, 0).
        let img = GrayImage::from_fn(24, 24, |x, _| if x < 12 { 0.0 } else { 255.0 });
        let c = contrast_cascade();
        let (depth, _, _) = run_cascade(&c, &img);
        assert_eq!(depth[0], 2);
    }

    #[test]
    fn meters_paper_access_counts_per_stump() {
        // One 2-rect stump on a flat 47x47 image: block (0,0) has all 576
        // window origins valid (47 - 24 = 23), the other three blocks of
        // the 2x2 grid have none, so exactly 18 warps evaluate the stage.
        let img = GrayImage::from_fn(47, 47, |_, _| 100.0);
        let mut c = contrast_cascade();
        c.stages.truncate(1);
        let (_, _, t) = run_cascade(&c, &img);
        let counters = &t.events[0].counters;
        // 18 active warps, 1 stump: 3 constant broadcasts each.
        assert_eq!(counters.const_broadcasts, 18 * 3);
        // Branches: per active warp 1 stump loop + 1 stage exit.
        assert_eq!(counters.branches, 36);
        // Flat image, warp-uniform outcome: no divergence.
        assert_eq!(counters.divergent_branches, 0);
    }

    #[test]
    fn divergence_is_detected_when_lanes_disagree() {
        // A sharp edge inside one warp's windows: some pass, some fail.
        let img = GrayImage::from_fn(48, 25, |x, _| if x < 18 { 0.0 } else { 255.0 });
        let mut c = contrast_cascade();
        c.stages.truncate(1);
        let (depth, _, t) = run_cascade(&c, &img);
        // Some windows accept (edge within feature) and some reject.
        let accepted: u32 = depth.iter().sum();
        assert!(accepted > 0, "at least one window must accept");
        assert!(depth.contains(&0));
        assert!(t.events[0].counters.divergent_branches > 0, "expected divergence");
        // Branch efficiency still high (most warps are uniform).
        assert!(t.events[0].counters.branch_efficiency() > 0.5);
    }

    #[test]
    #[should_panic(expected = "24-px windows")]
    fn rejects_non_24px_cascades() {
        let mut gpu = Gpu::new(DeviceSpec::gtx470().profiler_serialized(), ExecMode::Concurrent);
        let c = Cascade::new("w32", 32);
        let b = gpu.mem.alloc::<u32>(1);
        let s = gpu.mem.alloc::<f32>(1);
        let cp = gpu.const_upload(&[0]);
        let _ = CascadeKernel::new(&c, b, 1, 1, b, s, cp);
    }
}
