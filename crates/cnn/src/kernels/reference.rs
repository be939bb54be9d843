//! Differential oracle for the CNN kernel bodies.
//!
//! The per-block bodies of the convolution, pooling and window-scoring
//! kernels as they were before they were rewritten for host speed (an 18x18
//! halo tile staged element by element, `i64` multiply-adds per pixel and
//! tap, 576 adds per gate window, per-lane metering), kept verbatim as
//! [`ReferenceBody::reference_run_block`]. The kernels' one body is now
//! [`Kernel::run_blocks`], which works on bands of whole rows; the sweeps
//! below run it over generated levels, models and inputs in every way the
//! simulator can call it — the launch as one range, cut at random blocks
//! (inside grid rows too), one block at a time, one to three request slots
//! stacked in a batched launch, on one host thread and on four — and
//! demand the reference body's bits in every buffer, its counters for
//! every block and the same timeline.

use std::sync::Arc;

use fd_detector::StageList;
use fd_gpu::probe::{
    assert_same, check_case, device, f32_bits, modes, probes, run_probed, take_counters,
    timeline_bits, Mode, Observed, ReferenceBody, Rng,
};
use fd_gpu::{with_band_mutation, BandMutation, BlockCtx, Gpu, StreamId, Workspace};

use super::{
    level_chain, round_luma, window_grid, with_mutation, ChainKernel, ConvReluKernel, ConvSrc,
    LevelDeviceBufs, MaxPoolKernel, ModelTensors, Mutation, WindowScoreKernel,
};
use crate::detector::CnnStages;
use crate::model::{sat, CnnModel, C1, C2, C2A, REGION2, TAPS3X3};

impl ReferenceBody for ConvReluKernel {
    fn reference_run_block(&self, ctx: &mut BlockCtx<'_>) {
        let b = Self::BLOCK as usize;
        let tile_side = b + 2;
        let bx = ctx.block_idx.x as usize * b;
        let by = ctx.block_idx.y as usize * b;
        let (w, h) = (self.width, self.height);
        let in_ch = self.src.channels();

        // Stage the halo tile of every input plane (clamped borders,
        // matching the host reference's per-tap clamp).
        let mut tile = ctx.shared_alloc_i32(in_ch * tile_side * tile_side);
        match &self.src {
            ConvSrc::Pixels(buf) => {
                let src = ctx.mem.read(*buf);
                for ty in 0..tile_side {
                    let gy = (by as isize + ty as isize - 1).clamp(0, h as isize - 1) as usize;
                    for tx in 0..tile_side {
                        let gx = (bx as isize + tx as isize - 1).clamp(0, w as isize - 1) as usize;
                        tile[ty * tile_side + tx] = src[gy * w + gx].round() as i32;
                    }
                }
            }
            ConvSrc::Maps { buf, channels } => {
                let src = ctx.mem.read(*buf);
                let plane = w * h;
                for ic in 0..*channels {
                    let t0 = ic * tile_side * tile_side;
                    for ty in 0..tile_side {
                        let gy = (by as isize + ty as isize - 1).clamp(0, h as isize - 1) as usize;
                        for tx in 0..tile_side {
                            let gx =
                                (bx as isize + tx as isize - 1).clamp(0, w as isize - 1) as usize;
                            tile[t0 + ty * tile_side + tx] = src[ic * plane + gy * w + gx];
                        }
                    }
                }
            }
        }
        ctx.syncthreads();

        let plane = w * h;
        let mut dst = ctx.mem.write(self.dst);
        let mut covered = 0u64;
        for ty in 0..b {
            let y = by + ty;
            if y >= h {
                continue;
            }
            for tx in 0..b {
                let x = bx + tx;
                if x >= w {
                    continue;
                }
                for oc in 0..self.out_channels {
                    let mut acc = i64::from(self.bias[oc]);
                    for ic in 0..in_ch {
                        let base = (ic * tile_side + ty + 1) * tile_side + tx + 1;
                        for (t, &(dy, dx)) in TAPS3X3.iter().enumerate() {
                            let ti = (base as isize + dy * tile_side as isize + dx) as usize;
                            acc += i64::from(self.taps[(oc * in_ch + ic) * 9 + t])
                                * i64::from(tile[ti]);
                        }
                    }
                    dst[oc * plane + y * w + x] = sat(acc.max(0));
                }
                covered += 1;
            }
        }
        drop(dst);

        let warp = ctx.warp_size() as u64;
        let warps = covered.div_ceil(warp);
        let tile_elems = (in_ch * tile_side * tile_side) as u64;
        match &self.src {
            ConvSrc::Pixels(buf) => ctx.global_load_buf(*buf, 4 * tile_elems),
            ConvSrc::Maps { buf, .. } => ctx.global_load_buf(*buf, 4 * tile_elems),
        }
        // Halo staging: coalesced stores into shared.
        ctx.meter.shared(tile_elems / 8);
        // Tap broadcasts from constant memory, once per warp.
        ctx.meter.constant(warps * self.const_words());
        // Per output channel: 9 shared reads per input plane and a
        // multiply-add pair per tap, plus the ReLU/store address math.
        let oc = self.out_channels as u64;
        ctx.meter.shared(oc * 9 * in_ch as u64 * warps);
        ctx.meter.alu(oc * (2 * 9 * in_ch as u64 + 4) * warps);
        ctx.global_store_buf(self.dst, 4 * covered * oc);
    }
}

impl ReferenceBody for MaxPoolKernel {
    fn reference_run_block(&self, ctx: &mut BlockCtx<'_>) {
        let b = Self::BLOCK as usize;
        let bx = ctx.block_idx.x as usize * b;
        let by = ctx.block_idx.y as usize * b;
        let (dw, dh) = (self.dst_w(), self.dst_h());
        let (sw, sh) = (self.src_w, self.src_h);

        let src = ctx.mem.read(self.src);
        let mut dst = ctx.mem.write(self.dst);
        let mut covered = 0u64;
        for ty in 0..b {
            let y = by + ty;
            if y >= dh {
                continue;
            }
            for tx in 0..b {
                let x = bx + tx;
                if x >= dw {
                    continue;
                }
                for c in 0..self.channels {
                    let i = c * sw * sh + 2 * y * sw + 2 * x;
                    dst[c * dw * dh + y * dw + x] =
                        src[i].max(src[i + 1]).max(src[i + sw]).max(src[i + sw + 1]);
                }
                covered += 1;
            }
        }
        drop(dst);
        drop(src);

        let warp = ctx.warp_size() as u64;
        let warps = covered.div_ceil(warp);
        let ch = self.channels as u64;
        // Four coalesced 4-byte loads and three max ops per output
        // element per plane.
        ctx.global_load_buf(self.src, 16 * covered * ch);
        ctx.meter.alu(ch * 5 * warps);
        ctx.global_store_buf(self.dst, 4 * covered * ch);
    }
}

impl ReferenceBody for WindowScoreKernel {
    fn reference_run_block(&self, ctx: &mut BlockCtx<'_>) {
        let b = Self::BLOCK as usize;
        let (region, stride) = Self::geometry(self.stage);
        let ts = Self::tile_side(self.stage);
        let bx0 = ctx.block_idx.x as usize * b; // window coords
        let by0 = ctx.block_idx.y as usize * b;
        let (mw, mh) = (self.map_w, self.map_h);
        let plane = mw * mh;

        // Stage the block's span of every plane (zero beyond the map;
        // valid windows never reach those cells).
        let mut tile = ctx.shared_alloc_i32(self.channels * ts * ts);
        {
            let maps = ctx.mem.read(self.maps);
            let (x0, y0) = (bx0 * stride, by0 * stride);
            for c in 0..self.channels {
                let t0 = c * ts * ts;
                for ty in 0..ts {
                    let gy = y0 + ty;
                    if gy >= mh {
                        continue;
                    }
                    for tx in 0..ts {
                        let gx = x0 + tx;
                        if gx < mw {
                            tile[t0 + ty * ts + tx] = maps[c * plane + gy * mw + gx];
                        }
                    }
                }
            }
        }
        ctx.syncthreads();

        let src = self.src.map(|(d, s)| (ctx.mem.read(d), ctx.mem.read(s)));
        let mut dst_depth = ctx.mem.write(self.dst_depth);
        let mut dst_score = ctx.mem.write(self.dst_score);

        let mut m_const = 0u64;
        let mut m_shared = 0u64;
        let mut m_alu = 0u64;
        let mut m_branches = 0u64;
        let mut m_divergent = 0u64;
        let mut valid_windows = 0u64;

        let cells = region * region;
        ctx.for_each_warp(|_, lanes| {
            let mut valid = [false; 32];
            let mut active = [false; 32];
            let mut n_valid = 0usize;
            let mut n_active = 0usize;
            for (li, t) in lanes.clone().enumerate() {
                let gx = bx0 + (t as usize) % b;
                let gy = by0 + (t as usize) / b;
                valid[li] = gx < self.nx && gy < self.ny;
                if !valid[li] {
                    continue;
                }
                n_valid += 1;
                active[li] = match &src {
                    None => true,
                    Some((depth, _)) => depth[gy * self.nx + gx] == self.stage - 1,
                };
                if active[li] {
                    n_active += 1;
                }
            }
            valid_windows += n_valid as u64;
            if self.src.is_some() && n_valid > 0 {
                // Activity-mask branch: divergent when the warp mixes
                // surviving and already-rejected windows.
                m_branches += 1;
                if n_active > 0 && n_active < n_valid {
                    m_divergent += 1;
                }
            }
            if n_active > 0 {
                // Weight broadcasts (plus the two threshold words).
                m_const += self.weights.len() as u64 + 2;
                m_shared += (cells * self.channels) as u64;
                m_alu += (2 * cells * self.channels + 6) as u64;
            }

            let mut passed = 0usize;
            let mut failed = 0usize;
            for (li, t) in lanes.clone().enumerate() {
                if !valid[li] {
                    continue;
                }
                let gxw = bx0 + (t as usize) % b;
                let gyw = by0 + (t as usize) / b;
                let i = gyw * self.nx + gxw;
                if !active[li] {
                    // Copy the earlier rejection through (stage >= 2).
                    let (depth, score) = src.as_ref().expect("inactive lanes imply a source");
                    dst_depth[i] = depth[i];
                    dst_score[i] = score[i];
                    continue;
                }
                // Score this window from the staged tile, in the exact
                // channel-major / row-major order of the host reference.
                let lx = (gxw - bx0) * stride;
                let ly = (gyw - by0) * stride;
                let mut s = 0i64;
                if self.stage == 1 {
                    for (c, &wc) in self.weights.iter().enumerate() {
                        let mut sum = 0i64;
                        for dy in 0..region {
                            let row = c * ts * ts + (ly + dy) * ts + lx;
                            for dx in 0..region {
                                sum += i64::from(tile[row + dx]);
                            }
                        }
                        s += i64::from(wc) * sum;
                    }
                } else {
                    for c in 0..self.channels {
                        for dy in 0..region {
                            let row = c * ts * ts + (ly + dy) * ts + lx;
                            for dx in 0..region {
                                s += i64::from(self.weights[c * cells + dy * region + dx])
                                    * i64::from(tile[row + dx]);
                            }
                        }
                    }
                }
                let margin = s - self.threshold;
                let prev_score = src.as_ref().map_or(0i64, |(_, score)| i64::from(score[i]));
                if margin >= 0 {
                    dst_depth[i] = self.stage;
                    dst_score[i] = sat(prev_score + margin);
                    passed += 1;
                } else {
                    match &src {
                        None => {
                            dst_depth[i] = 0;
                            dst_score[i] = sat(margin);
                        }
                        Some((depth, score)) => {
                            dst_depth[i] = depth[i];
                            dst_score[i] = score[i];
                        }
                    }
                    failed += 1;
                }
            }
            if n_active > 0 {
                // Stage-exit branch, divergent when outcomes mix.
                m_branches += 1;
                if passed > 0 && failed > 0 {
                    m_divergent += 1;
                }
            }
        });
        drop(dst_depth);
        drop(dst_score);
        drop(src);

        let tile_elems = (self.channels * ts * ts) as u64;
        ctx.global_load_buf(self.maps, 4 * tile_elems);
        ctx.meter.shared(tile_elems / 8);
        if let Some((d, s)) = self.src {
            ctx.global_load_buf(d, 4 * valid_windows);
            ctx.global_load_buf(s, 4 * valid_windows);
        }
        ctx.meter.constant(m_const);
        ctx.meter.shared(m_shared);
        ctx.meter.alu(m_alu);
        ctx.meter.branches(m_branches, m_divergent);
        ctx.global_store_buf(self.dst_depth, 4 * valid_windows);
        ctx.global_store_buf(self.dst_score, 4 * valid_windows);
    }
}

impl ReferenceBody for ChainKernel {
    fn reference_run_block(&self, ctx: &mut BlockCtx<'_>) {
        match self {
            ChainKernel::Conv(k) => k.reference_run_block(ctx),
            ChainKernel::Pool(k) => k.reference_run_block(ctx),
            ChainKernel::Score(k) => k.reference_run_block(ctx),
        }
    }
}

/// Level extents the sweeps draw from besides uniform `24..=130`: the
/// smallest level, around multiples of the 16-px conv blocks (of the level
/// and of its pooled half), where the window grid is 8, 9, 16 and 17 wide
/// (52..=56 and 84..=88 px), odd sizes.
const DIMS: [usize; 32] = [
    24, 25, 26, 27, 28, 31, 32, 33, 34, 35, 47, 48, 49, 51, 52, 55, 56, 57, 63, 64, 65, 66, 67, 84,
    87, 88, 95, 96, 97, 127, 129, 130,
];

/// Level geometry of case `i`: the corners of the range first, then a mix
/// of [`DIMS`] and uniform draws.
fn geometry(rng: &mut Rng, i: usize) -> (usize, usize) {
    const FIRST: [(usize, usize); 6] =
        [(24, 24), (24, 130), (130, 24), (27, 25), (56, 88), (130, 130)];
    let extent = |rng: &mut Rng| match rng.below(2) {
        0 => DIMS[rng.below(DIMS.len())],
        _ => 24 + rng.below(107),
    };
    FIRST.get(i).copied().unwrap_or_else(|| (extent(rng), extent(rng)))
}

/// Luma no decoder would hand over: the values `round() as i32` treats
/// specially and exact halves of either sign.
fn hostile(rng: &mut Rng) -> f32 {
    match rng.below(8) {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 3e9,
        4 => -3e9,
        5 => -0.0,
        6 => rng.below(300) as f32 + 0.5,
        _ => -(rng.below(300) as f32 + 0.5),
    }
}

/// A `w x h` luma plane of one of four kinds: pixel-like values; flat on
/// the left and noise on the right (the gate passes some windows of a warp
/// and rejects others); pixel-like with one [`hostile`] value in sixteen;
/// bytes.
fn luma(rng: &mut Rng, kind: usize, w: usize, h: usize) -> Vec<f32> {
    (0..w * h)
        .map(|i| match kind {
            0 => rng.pixel(),
            1 if i % w < w / 2 => 128.0,
            2 if rng.below(16) == 0 => hostile(rng),
            2 => rng.pixel(),
            _ => rng.below(256) as f32,
        })
        .collect()
}

/// A value no body writes, in every output element before a launch: an
/// element a body skips shows.
const POISON: u32 = 0x5EED_0BAD;

fn poison<T: fd_gpu::memory::DeviceScalar>(gpu: &Gpu, buf: fd_gpu::DevBuf<T>, value: T) {
    let n = gpu.mem.read(buf).len();
    gpu.mem.upload_into(buf, &vec![value; n]);
}

/// Every element of every buffer of a level, as bits.
fn level_bits(gpu: &Gpu, b: &LevelDeviceBufs) -> Vec<u32> {
    let mut bits = f32_bits(gpu.mem.download(b.scaled));
    for buf in [b.conv1, b.pooled1, b.conv2, b.pooled2, b.score_a, b.score_b, b.score] {
        bits.extend(gpu.mem.download(buf).into_iter().map(|v| v as u32));
    }
    for buf in [b.depth_a, b.depth_b, b.depth] {
        bits.extend(gpu.mem.download(buf));
    }
    bits
}

/// Thresholds far below and far above any stage sum.
const LOW: i64 = -(1 << 40);
const HIGH: i64 = 1 << 40;

/// The chain sweep over cases `0..cases`: the seven kernels of a level as
/// the pipeline launches them, each stacked over one to three request
/// slots, on levels from 24x24 up. With all 240 cases, checks that every
/// situation the bodies distinguish occurred.
fn chain_sweep(cases: usize) {
    let mut rng = Rng(0xC22_C4A12);
    let mut depths_seen = [false; 4];
    // Divergent branches of the gate and of either template.
    let mut divergent = [0u64; 3];
    let (mut short_block, mut short_row) = (false, false);
    for case in 0..cases {
        let (w, h) = geometry(&mut rng, case);
        let slots = 1 + case % 3;
        let lumas: Vec<_> =
            (0..slots).map(|slot| luma(&mut rng, (case + slot) % 4, w, h)).collect();
        let mut model = CnnModel::seeded(case as u64);
        // The model's own thresholds; every window up to the templates,
        // whose outcomes then mix by sign; every window through; none.
        let thresholds = match (case / 4) % 4 {
            1 => Some((LOW, 0, 0)),
            2 => Some((LOW, LOW, LOW)),
            3 => Some((HIGH, HIGH, HIGH)),
            _ => None,
        };
        if let Some(thresholds) = thresholds {
            (model.stage1_threshold, model.stage2_threshold, model.stage3_threshold) = thresholds;
        }
        let (nx, ny) = window_grid(w, h);
        short_block |= nx % 8 != 0 && w % 16 != 0;
        short_row |= ny % 8 != 0 && h % 16 != 0;

        let mut observe = |mode: Mode, threads: usize| -> Observed {
            let mut gpu = device(threads);
            let const_ptr = gpu.const_upload(&model.encode());
            let tensors = ModelTensors::from_model(&model);
            let levels: Vec<_> = lumas
                .iter()
                .map(|luma| {
                    let b = CnnStages::level_bufs(&mut Workspace::new().fill(&mut gpu.mem), w, h);
                    gpu.mem.upload_into(b.scaled, luma);
                    for buf in
                        [b.conv1, b.pooled1, b.conv2, b.pooled2, b.score_a, b.score_b, b.score]
                    {
                        poison(&gpu, buf, POISON as i32);
                    }
                    for buf in [b.depth_a, b.depth_b, b.depth] {
                        poison(&gpu, buf, POISON);
                    }
                    b
                })
                .collect();
            let mut logs = Vec::new();
            let mut chains: Vec<_> = levels
                .iter()
                .map(|b| level_chain(&tensors, b, w, h, const_ptr).into_iter())
                .collect();
            loop {
                let stage: Vec<ChainKernel> =
                    chains.iter_mut().filter_map(Iterator::next).collect();
                let Some(first) = stage.first() else { break };
                let cfg = first.config();
                gpu.launch_batched(probes(stage, mode, &mut logs), cfg, StreamId::DEFAULT).unwrap();
            }
            let timeline = gpu.synchronize();
            if mode == Mode::Reference {
                let stages = ["cnn_gate1", "cnn_template2", "cnn_template3"];
                for (stage, n) in stages.iter().zip(&mut divergent) {
                    let launches = timeline.events.iter().filter(|e| e.kernel_name == *stage);
                    *n += launches.map(|e| e.counters.divergent_branches).sum::<u64>();
                }
                for level in &levels {
                    for depth in gpu.mem.download(level.depth) {
                        depths_seen[depth as usize] = true;
                    }
                }
            }
            let bits = levels.iter().flat_map(|b| level_bits(&gpu, b)).collect();
            ((take_counters(&logs), timeline_bits(&timeline)), bits)
        };
        let reference = observe(Mode::Reference, 1);
        for threads in [1, 4] {
            for mode in modes(case) {
                let label =
                    format!("case {case}: {w}x{h}, {slots} slots, {mode:?}, {threads} threads");
                assert_same(observe(mode, threads), &reference, &label);
            }
        }
    }
    if cases < 240 {
        return;
    }
    assert_eq!(depths_seen, [true; 4], "windows that end at every depth");
    assert!(divergent.iter().all(|&n| n > 0), "split warps in every stage: {divergent:?}");
    assert!(
        short_block && short_row,
        "a short last block and a short last block row in every grid"
    );
}

#[test]
fn chain_bodies_match_reference() {
    chain_sweep(240);
}

/// Inputs of one of three kinds: small enough that every convolution sum
/// stays below 2^24, the whole `i32` range, and the two mixed row by row
/// (the lane type changes inside a band).
fn map_values(rng: &mut Rng, kind: usize, w: usize, h: usize, planes: usize) -> Vec<i32> {
    (0..planes * w * h)
        .map(|i| {
            let wide = match kind {
                0 => false,
                1 => true,
                _ => (i / w) % 5 == 3,
            };
            match wide {
                true => rng.next() as i32,
                false => rng.below(8192) as i32 - 4096,
            }
        })
        .collect()
}

/// The convolution alone, over maps and over luma, at any extent from one
/// pixel up: taps sparse and small like the seeded models', dense, and
/// over the whole `i16` range; biases small and over the whole `i32` range.
#[test]
fn conv_body_matches_reference() {
    const EXTENTS: [usize; 14] = [1, 2, 3, 15, 16, 17, 18, 31, 32, 33, 47, 48, 49, 70];
    let mut rng = Rng(0xC0_2201);
    for case in 0..240 {
        let (w, h) = (EXTENTS[rng.below(14)], EXTENTS[rng.below(14)]);
        let in_ch = if case % 4 == 0 { 1 } else { [1, 2, 4][case % 3] };
        let out_channels = [1, 3, 8][(case / 3) % 3];
        let taps: Vec<i16> = (0..out_channels * in_ch * 9)
            .map(|_| match (case / 2) % 3 {
                0 if rng.below(3) > 0 => 0,
                2 => rng.next() as i16,
                _ => rng.below(129) as i16 - 64,
            })
            .collect();
        let bias: Vec<i32> = (0..out_channels)
            .map(|_| if case % 5 == 4 { rng.next() as i32 } else { rng.below(2001) as i32 - 1000 })
            .collect();
        let (taps, bias) = (Arc::new(taps), Arc::new(bias));
        let mut gpu = device(1);
        let const_ptr = gpu.const_upload(&[0; 16]);
        let src = match case % 4 {
            0 => ConvSrc::Pixels(gpu.mem.upload(&luma(&mut rng, (case / 4) % 4, w, h))),
            _ => ConvSrc::Maps {
                buf: gpu.mem.upload(&map_values(&mut rng, case % 3, w, h, in_ch)),
                channels: in_ch,
            },
        };
        let observe = |mode: Mode, parts: usize| -> Observed {
            let dsts: Vec<_> =
                (0..parts).map(|_| gpu.mem.alloc::<i32>(out_channels * w * h)).collect();
            let kernels: Vec<_> = dsts
                .iter()
                .map(|&dst| {
                    poison(&gpu, dst, POISON as i32);
                    ConvReluKernel {
                        src,
                        dst,
                        width: w,
                        height: h,
                        taps: Arc::clone(&taps),
                        bias: Arc::clone(&bias),
                        out_channels,
                        const_ptr,
                        layer_name: "cnn_conv2",
                    }
                })
                .collect();
            let cfg = kernels[0].config();
            let counters = run_probed(&mut gpu, kernels, cfg, mode);
            let bits = dsts.iter().flat_map(|&dst| gpu.mem.download(dst)).map(|v| v as u32);
            (counters, bits.collect())
        };
        check_case(
            case,
            &format!("case {case}: {w}x{h}, {in_ch} -> {out_channels} planes"),
            observe,
        );
    }
}

/// Pooling alone, odd source extents too (the last column and row are
/// dropped), over the whole `i32` range.
#[test]
fn pool_body_matches_reference() {
    let mut rng = Rng(0x9001_2201);
    for case in 0..160 {
        let (src_w, src_h) = (2 + rng.below(69), 2 + rng.below(69));
        let channels = 1 + case % 4;
        let mut gpu = device(1);
        let src = gpu.mem.upload(&map_values(&mut rng, 1, src_w, src_h, channels));
        let observe = |mode: Mode, parts: usize| -> Observed {
            let len = channels * (src_w / 2) * (src_h / 2);
            let dsts: Vec<_> = (0..parts).map(|_| gpu.mem.alloc::<i32>(len)).collect();
            let kernels: Vec<_> = dsts
                .iter()
                .map(|&dst| {
                    poison(&gpu, dst, POISON as i32);
                    MaxPoolKernel { src, dst, src_w, src_h, channels }
                })
                .collect();
            let cfg = kernels[0].config();
            let counters = run_probed(&mut gpu, kernels, cfg, mode);
            let bits = dsts.iter().flat_map(|&dst| gpu.mem.download(dst)).map(|v| v as u32);
            (counters, bits.collect())
        };
        check_case(case, &format!("case {case}: {src_w}x{src_h}, {channels} planes"), observe);
    }
}

/// A cascade stage alone, on maps and grids no earlier kernel produced:
/// cells over the whole `i32` range, earlier depths of every value and
/// earlier scores that saturate, stage and source in every pairing (a gate
/// behind a source and a template without one are not launched by the
/// pipeline; the bodies define them all the same).
#[test]
fn score_body_matches_reference() {
    let mut rng = Rng(0x5C02_2201);
    let mut saturated = false;
    for case in 0..300 {
        let (w, h) = geometry(&mut rng, case / 3);
        let (nx, ny) = window_grid(w, h);
        let stage = 1 + (case % 3) as u32;
        let with_src = (stage > 1) != (case % 10 == 9);
        let model = CnnModel::seeded(case as u64);
        let (map_w, map_h, channels, weights) = match stage {
            1 => (w / 2, h / 2, C1, model.stage1.clone()),
            2 => (w / 4, h / 4, C2A, model.stage2.clone()),
            _ => (w / 4, h / 4, C2, model.stage3.clone()),
        };
        assert_eq!(weights.len(), if stage == 1 { C1 } else { channels * REGION2 * REGION2 });
        let weights = Arc::new(weights);
        let threshold = [0, 1 << 33, -(1 << 33), LOW, HIGH][(case / 3) % 5];
        let mut gpu = device(1);
        let const_ptr = gpu.const_upload(&model.encode());
        let maps = gpu.mem.upload(&map_values(&mut rng, (case / 15) % 2, map_w, map_h, channels));
        // Earlier depths: mostly the one that keeps a window alive; any;
        // all alive; none.
        let alive = stage - 1;
        let depths: Vec<u32> = (0..nx * ny)
            .map(|_| match (case / 6) % 4 {
                0 if rng.below(2) == 0 => alive,
                0 | 1 => rng.below(5) as u32,
                2 => alive,
                _ => alive + 1,
            })
            .collect();
        let scores: Vec<i32> =
            (0..nx * ny)
                .map(|_| {
                    if rng.below(4) == 0 {
                        i32::MAX - rng.below(9) as i32
                    } else {
                        rng.next() as i32
                    }
                })
                .collect();
        let src = with_src.then(|| (gpu.mem.upload(&depths), gpu.mem.upload(&scores)));
        let mut observe = |mode: Mode, parts: usize| -> Observed {
            let dsts: Vec<_> = (0..parts)
                .map(|_| (gpu.mem.alloc::<u32>(nx * ny), gpu.mem.alloc::<i32>(nx * ny)))
                .collect();
            let kernels: Vec<_> = dsts
                .iter()
                .map(|&(dst_depth, dst_score)| {
                    poison(&gpu, dst_depth, POISON);
                    poison(&gpu, dst_score, POISON as i32);
                    WindowScoreKernel {
                        maps,
                        map_w,
                        map_h,
                        channels,
                        src,
                        dst_depth,
                        dst_score,
                        nx,
                        ny,
                        stage,
                        weights: Arc::clone(&weights),
                        threshold,
                        const_ptr,
                    }
                })
                .collect();
            let cfg = kernels[0].config();
            let counters = run_probed(&mut gpu, kernels, cfg, mode);
            let mut bits = Vec::new();
            for &(depth, score) in &dsts {
                bits.extend(gpu.mem.download(depth));
                let score = gpu.mem.download(score);
                saturated |= score.iter().any(|&s| s == sat(i64::MAX) || s == sat(i64::MIN));
                bits.extend(score.into_iter().map(|v| v as u32));
            }
            (counters, bits)
        };
        let label = format!("case {case}: {w}x{h}, stage {stage}, source {with_src}");
        check_case(case, &label, &mut observe);
    }
    assert!(saturated, "scores that saturate");
}

/// The sweep must notice (as a difference from the reference body, not a
/// crash) a halo that repeats the wrong column right of the image …
#[test]
#[should_panic(expected = "case ")]
fn sweep_catches_a_halo_clamp_one_column_short() {
    with_mutation(Mutation::HaloClamp, || chain_sweep(24));
}

/// … the partial last block of a grid row metered like a full one …
#[test]
#[should_panic(expected = "case ")]
fn sweep_catches_a_partial_last_block_metered_as_full() {
    with_band_mutation(BandMutation::EdgeCostClass, || chain_sweep(24));
}

/// … a band that stops one column short of the level's right edge …
#[test]
#[should_panic(expected = "case ")]
fn sweep_catches_a_band_edge_off_by_one() {
    with_band_mutation(BandMutation::BandEdge, || chain_sweep(24));
}

/// … and gate box sums one map column short.
#[test]
#[should_panic(expected = "case ")]
fn sweep_catches_a_gate_window_off_by_one() {
    with_mutation(Mutation::GateWindow, || chain_sweep(24));
}

/// `round_luma` replaced a call into libm: it must equal the std
/// expression on every `f32`.
#[test]
fn round_luma_is_round_then_cast() {
    let check = |v: f32| {
        assert_eq!(round_luma(v), v.round() as i32, "{v:?} ({:#010x})", v.to_bits());
    };
    // Around every integer and every half of the luma range and past it.
    for k in 0..=1024u32 {
        for centre in [k as f32, k as f32 + 0.5] {
            let bits = centre.to_bits();
            for b in [bits.wrapping_sub(1), bits, bits + 1] {
                check(f32::from_bits(b));
                check(-f32::from_bits(b));
            }
        }
    }
    for v in [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN, 3e9, -3e9] {
        check(v);
    }
    // Around every power of two: where halves stop (2^22), where every
    // float is an integer (2^23), where the cast saturates (2^31).
    for e in 0..=127 {
        let v = f32::from_bits((127 + e) << 23);
        for v in [v, -v, f32::from_bits(v.to_bits() + 1), f32::from_bits(v.to_bits() - 1)] {
            check(v);
            check(-v);
        }
    }
    // 2^21 random bit patterns (all classes: subnormals, NaNs, both
    // signs), each also folded into the exponents 2^-4 ..= 2^27 with its
    // sign and mantissa kept.
    let mut rng = Rng(0xC22_900D);
    for _ in 0..1 << 21 {
        let bits = rng.next() as u32;
        check(f32::from_bits(bits));
        check(f32::from_bits((bits & 0x807F_FFFF) | ((123 + (bits >> 23) % 32) << 23)));
    }
}

/// The convolution keeps `i64` as its meaning: an output whose exact value
/// no `f32` holds comes out exact, on either side of the bound that picks
/// the lanes.
#[test]
fn conv_lanes_widen_where_f32_would_round() {
    let run = |inputs: [i32; 3], taps: [i16; 3], bias: i32| -> i32 {
        let mut gpu = device(1);
        let const_ptr = gpu.const_upload(&[0; 16]);
        let src = gpu.mem.upload(&inputs);
        let dst = gpu.mem.alloc::<i32>(3);
        let mut all_taps = vec![0i16; 9];
        all_taps[3..6].copy_from_slice(&taps);
        let k = ConvReluKernel {
            src: ConvSrc::Maps { buf: src, channels: 1 },
            dst,
            width: 3,
            height: 1,
            taps: Arc::new(all_taps),
            bias: Arc::new(vec![bias]),
            out_channels: 1,
            const_ptr,
            layer_name: "cnn_conv2",
        };
        let cfg = k.config();
        gpu.launch_default(k, cfg).unwrap();
        gpu.synchronize();
        gpu.mem.download(dst)[1]
    };
    // 2^24 + 1 is the first integer `f32` cannot hold.
    assert_eq!(run([0, 1 << 24, 1], [0, 1, 1], 0), (1 << 24) + 1);
    assert_eq!(run([1, (1 << 24) - 1, 1], [1, 1, 1], 0), (1 << 24) + 1);
    assert_eq!(run([0, 1 << 24, 0], [0, 1, 0], 1), (1 << 24) + 1);
    // The largest sum the narrow lanes may take, the bound itself and the
    // odd sums just past it.
    const LIMIT: i32 = super::F32_LANE_LIMIT as i32;
    assert_eq!(run([0, LIMIT - 2, 0], [0, 1, 0], 1), LIMIT - 1);
    assert_eq!(run([0, LIMIT - 1, 0], [0, 1, 0], 1), LIMIT);
    assert_eq!(run([0, LIMIT, 0], [0, 1, 0], 1), LIMIT + 1);
    assert_eq!(run([1, LIMIT, 1], [1, 1, 1], 1), LIMIT + 3);
    assert_eq!(run([0, -LIMIT, 0], [0, 1, 0], 1), 0);
    // Saturation is part of the meaning.
    assert_eq!(run([i32::MAX, i32::MAX, i32::MAX], [64, 64, 64], i32::MAX), i32::MAX);
    assert_eq!(run([i32::MIN, i32::MIN, i32::MIN], [64, 64, 64], 0), 0);
}
