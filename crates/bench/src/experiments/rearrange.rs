//! Thread-rearrangement cascade evaluation — the related-work baseline of
//! Herout et al. (*Real-time object detection on CUDA*, JRTIP 2011),
//! discussed in the paper's §II as the alternative answer to GPU
//! underutilization:
//!
//! "All image locations that have not been early rejected are reassigned
//! into threads that share the same blocks. Then the cascade evaluation
//! kernel is relaunched to process these blocks, and thread rearrangement
//! repeated until all image locations are computed."
//!
//! Instead of one kernel per scale running concurrently, the cascade is
//! split into *segments* of stages. After each segment a compaction pass
//! gathers the surviving window coordinates into a dense work list, and
//! the next segment is launched over that list with fully-occupied
//! blocks. The trade-off this models faithfully: compacted windows are
//! scattered across the image, so the cooperative 48x48 shared-memory
//! tile of the blocked kernel no longer applies — every rectangle corner
//! becomes an uncoalesced global load — and each relaunch adds a
//! compaction kernel plus launch latency. `repro_all ablation_rearrange`
//! quantifies both effects against the paper's concurrent-kernel approach.

use std::ops::Range;
use std::sync::Arc;

use fd_detector::DetectorError;
use fd_gpu::{DevBuf, Gpu, Kernel, KernelCounters, LaunchConfig, LaunchCtx, StreamId, Timeline};
use fd_haar::encode::quantize_cascade;
use fd_haar::Cascade;

/// Evaluates cascade stages `[stage_begin, stage_end)` for a dense list
/// of surviving windows. One thread per work item.
pub struct CascadeSegmentKernel {
    /// Inclusive integral image of the level.
    pub integral: DevBuf<u32>,
    pub width: usize,
    pub height: usize,
    /// Packed window coordinates (`y << 16 | x`), dense.
    pub coords: DevBuf<u32>,
    /// Number of valid entries in `coords`.
    pub n_windows: usize,
    /// Running cascade scores, parallel to `coords`.
    pub scores: DevBuf<f32>,
    /// Survivor flags, parallel to `coords` (1 = still alive).
    pub alive: DevBuf<u32>,
    /// Depth reached, parallel to `coords`.
    pub depth: DevBuf<u32>,
    pub stage_begin: usize,
    pub stage_end: usize,
    cascade: Arc<Cascade>,
}

impl CascadeSegmentKernel {
    pub const THREADS: u32 = 256;

    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::linear(self.n_windows.max(1), Self::THREADS)
    }
}

impl Kernel for CascadeSegmentKernel {
    fn name(&self) -> &'static str {
        "cascade_segment"
    }

    fn run_blocks(
        &self,
        ctx: &LaunchCtx<'_>,
        blocks: Range<u64>,
        sink: &mut dyn FnMut(&KernelCounters),
    ) {
        ctx.each_block(blocks, sink, |ctx| {
            let tpb = Self::THREADS as usize;
            let base = ctx.block_idx.x as usize * tpb;
            let end = (base + tpb).min(self.n_windows);
            if base >= end {
                return;
            }
            let window = self.cascade.window as usize;
            let w = self.width;

            let coords = ctx.mem.read(self.coords);
            let mut scores = ctx.mem.write(self.scores);
            let mut alive = ctx.mem.write(self.alive);
            let mut depth = ctx.mem.write(self.depth);
            let integral = ctx.mem.read(self.integral);

            // Inclusive-integral rectangle sum at an arbitrary window origin.
            let rect_sum =
                |ox: usize, oy: usize, rx: usize, ry: usize, rw: usize, rh: usize| -> i64 {
                    let x0 = ox + rx;
                    let y0 = oy + ry;
                    let at = |x: isize, y: isize| -> i64 {
                        if x < 0 || y < 0 {
                            0
                        } else {
                            integral[y as usize * w + x as usize] as i64
                        }
                    };
                    let x1 = (x0 + rw) as isize - 1;
                    let y1 = (y0 + rh) as isize - 1;
                    at(x1, y1) - at(x0 as isize - 1, y1) - at(x1, y0 as isize - 1)
                        + at(x0 as isize - 1, y0 as isize - 1)
                };

            let mut m_const = 0u64;
            let mut m_global = 0u64;
            let mut m_alu = 0u64;
            let mut m_branches = 0u64;
            let mut m_divergent = 0u64;

            // Warp-structured evaluation over the dense work list.
            let warp = ctx.warp_size() as usize;
            let mut ws = base;
            while ws < end {
                let we = (ws + warp).min(end);
                let mut lane_alive: Vec<bool> = (ws..we).map(|i| alive[i] != 0).collect();
                for si in self.stage_begin..self.stage_end.min(self.cascade.stages.len()) {
                    if !lane_alive.iter().any(|&a| a) {
                        break;
                    }
                    let stage = &self.cascade.stages[si];
                    let mut sums = vec![0.0f32; we - ws];
                    for stump in &stage.stumps {
                        m_const += 3;
                        m_branches += 1;
                        let nrects = stump.feature.rects().len() as u64;
                        for (li, i) in (ws..we).enumerate() {
                            if !lane_alive[li] {
                                continue;
                            }
                            let c = coords[i];
                            let (ox, oy) = ((c & 0xFFFF) as usize, (c >> 16) as usize);
                            debug_assert!(ox + window <= w && oy + window <= self.height);
                            let mut resp = 0i64;
                            for r in stump.feature.rects() {
                                resp += r.weight as i64
                                    * rect_sum(
                                        ox,
                                        oy,
                                        r.x as usize,
                                        r.y as usize,
                                        r.w as usize,
                                        r.h as usize,
                                    );
                            }
                            sums[li] += if (resp as i32) < stump.threshold {
                                stump.left
                            } else {
                                stump.right
                            };
                            // Scattered corners: 4 uncoalesced 4-byte reads
                            // per rectangle per lane.
                            m_global += 16 * nrects;
                        }
                        m_alu += 4 * nrects + 6;
                    }
                    let mut passed = 0usize;
                    let mut failed = 0usize;
                    for (li, i) in (ws..we).enumerate() {
                        if !lane_alive[li] {
                            continue;
                        }
                        scores[i] += sums[li] - stage.threshold;
                        if sums[li] >= stage.threshold {
                            depth[i] = si as u32 + 1;
                            passed += 1;
                        } else {
                            lane_alive[li] = false;
                            alive[i] = 0;
                            failed += 1;
                        }
                    }
                    m_branches += 1;
                    m_alu += 3;
                    if passed > 0 && failed > 0 {
                        m_divergent += 1;
                    }
                }
                ws = we;
            }

            ctx.meter.constant(m_const);
            ctx.meter.global_load(m_global);
            // Work-list bookkeeping reads/writes.
            ctx.meter.global_load(4 * (end - base) as u64);
            ctx.meter.global_store(12 * (end - base) as u64);
            ctx.meter.alu(m_alu);
            ctx.meter.branches(m_branches, m_divergent);
        });
    }

    fn access(&self, set: &mut fd_gpu::AccessSet) {
        // scores/alive are read-modify-write; depth is write-only here but
        // carries prior segments' values in unwritten lanes (WAW ordering).
        set.reads(self.integral)
            .reads(self.coords)
            .reads(self.scores)
            .reads(self.alive)
            .writes(self.scores)
            .writes(self.alive)
            .writes(self.depth);
    }
}

/// Stream-compaction kernel: rebuilds the dense work list from survivor
/// flags (functionally a sequential scan; metered as a two-pass scan +
/// scatter over the list).
pub struct CompactKernel {
    pub coords_in: DevBuf<u32>,
    pub scores_in: DevBuf<f32>,
    pub depth_in: DevBuf<u32>,
    pub alive: DevBuf<u32>,
    pub n: usize,
    pub coords_out: DevBuf<u32>,
    pub scores_out: DevBuf<f32>,
    pub depth_out: DevBuf<u32>,
    /// Single-element output: number of survivors.
    pub count_out: DevBuf<u32>,
}

impl CompactKernel {
    pub const THREADS: u32 = 256;

    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::linear(self.n.max(1), Self::THREADS)
    }
}

impl Kernel for CompactKernel {
    fn name(&self) -> &'static str {
        "compact"
    }

    fn run_blocks(
        &self,
        ctx: &LaunchCtx<'_>,
        blocks: Range<u64>,
        sink: &mut dyn FnMut(&KernelCounters),
    ) {
        ctx.each_block(blocks, sink, |ctx| {
            // Functional compaction is done once, by block 0, to keep the
            // result deterministic; the metering models every block's share
            // of a parallel scan + scatter.
            let tpb = Self::THREADS as usize;
            let base = ctx.block_idx.x as usize * tpb;
            let end = (base + tpb).min(self.n);
            if ctx.block_idx.x == 0 {
                let coords = ctx.mem.read(self.coords_in);
                let scores = ctx.mem.read(self.scores_in);
                let depth = ctx.mem.read(self.depth_in);
                let alive = ctx.mem.read(self.alive);
                let mut co = ctx.mem.write(self.coords_out);
                let mut so = ctx.mem.write(self.scores_out);
                let mut dk = ctx.mem.write(self.depth_out);
                let mut k = 0usize;
                for i in 0..self.n {
                    if alive[i] != 0 {
                        co[k] = coords[i];
                        so[k] = scores[i];
                        dk[k] = depth[i];
                        k += 1;
                    }
                }
                ctx.mem.write(self.count_out)[0] = k as u32;
            }
            if base < end {
                let covered = (end - base) as u64;
                let warps = covered.div_ceil(ctx.warp_size() as u64);
                ctx.meter.global_load(13 * covered);
                ctx.meter.global_store(12 * covered / 2); // ~half survive early on
                ctx.meter.shared(4 * warps);
                ctx.meter.alu(6 * warps);
                ctx.syncthreads();
            }
        });
    }

    fn access(&self, set: &mut fd_gpu::AccessSet) {
        set.reads(self.coords_in)
            .reads(self.scores_in)
            .reads(self.depth_in)
            .reads(self.alive)
            .writes(self.coords_out)
            .writes(self.scores_out)
            .writes(self.depth_out)
            .writes(self.count_out);
    }
}

/// Run one pyramid level with the rearrangement strategy: segments of
/// `stages_per_segment` stages, compaction between segments. Returns the
/// timeline and the final (depth per initial window, in work-list order
/// irrelevant — callers use the returned accept count).
pub fn run_rearranged_level(
    gpu: &mut Gpu,
    cascade: &Cascade,
    integral: DevBuf<u32>,
    width: usize,
    height: usize,
    stages_per_segment: usize,
    stream: StreamId,
) -> Result<(usize, Vec<Timeline>), DetectorError> {
    if stages_per_segment == 0 {
        return Err(DetectorError::InvalidConfig {
            reason: "stages_per_segment must be at least 1",
        });
    }
    let cascade = Arc::new(quantize_cascade(cascade));
    let window = cascade.window as usize;
    if width < window || height < window {
        return Ok((0, Vec::new()));
    }

    // Initial dense work list: every valid origin.
    let mut coords_host = Vec::with_capacity((width - window + 1) * (height - window + 1));
    for oy in 0..=height - window {
        for ox in 0..=width - window {
            coords_host.push((oy as u32) << 16 | ox as u32);
        }
    }
    let mut n = coords_host.len();
    let mut coords = gpu.mem.upload(&coords_host);
    let mut scores = gpu.mem.alloc::<f32>(n);
    let mut depth = gpu.mem.alloc::<u32>(n);
    let mut timelines = Vec::new();

    let mut stage = 0usize;
    while stage < cascade.stages.len() && n > 0 {
        let stage_end = (stage + stages_per_segment).min(cascade.stages.len());
        let alive = gpu.mem.upload(&vec![1u32; n]);
        let seg = CascadeSegmentKernel {
            integral,
            width,
            height,
            coords,
            n_windows: n,
            scores,
            alive,
            depth,
            stage_begin: stage,
            stage_end,
            cascade: Arc::clone(&cascade),
        };
        let seg_cfg = seg.config();
        if let Err(source) = gpu.launch(seg, seg_cfg, stream) {
            gpu.cancel_pending();
            gpu.mem.free(alive);
            gpu.mem.free(coords);
            gpu.mem.free(scores);
            gpu.mem.free(depth);
            return Err(DetectorError::Launch {
                kernel: "cascade_segment",
                level: None,
                frame: None,
                source,
            });
        }

        // Compact survivors into fresh buffers.
        let coords_out = gpu.mem.alloc::<u32>(n);
        let scores_out = gpu.mem.alloc::<f32>(n);
        let depth_out = gpu.mem.alloc::<u32>(n);
        let count_out = gpu.mem.alloc::<u32>(1);
        let compact = CompactKernel {
            coords_in: coords,
            scores_in: scores,
            depth_in: depth,
            alive,
            n,
            coords_out,
            scores_out,
            depth_out,
            count_out,
        };
        let compact_cfg = compact.config();
        if let Err(source) = gpu.launch(compact, compact_cfg, stream) {
            gpu.cancel_pending();
            gpu.mem.free(alive);
            gpu.mem.free(coords);
            gpu.mem.free(scores);
            gpu.mem.free(depth);
            gpu.mem.free(coords_out);
            gpu.mem.free(scores_out);
            gpu.mem.free(depth_out);
            gpu.mem.free(count_out);
            return Err(DetectorError::Launch {
                kernel: "compact",
                level: None,
                frame: None,
                source,
            });
        }
        // The relaunch boundary: the host must read the survivor count
        // before sizing the next grid, so the device drains here.
        timelines.push(gpu.synchronize());
        let survivors = gpu.mem.read(count_out)[0] as usize;

        gpu.mem.free(alive);
        gpu.mem.free(coords);
        gpu.mem.free(scores);
        gpu.mem.free(depth);
        gpu.mem.free(count_out);
        coords = coords_out;
        scores = scores_out;
        depth = depth_out;
        n = survivors;
        stage = stage_end;
    }

    gpu.mem.free(coords);
    gpu.mem.free(scores);
    gpu.mem.free(depth);
    Ok((n, timelines))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_gpu::{DeviceSpec, ExecMode};
    use fd_haar::{FeatureKind, HaarFeature, Stage, Stump};
    use fd_imgproc::{GrayImage, IntegralImage};

    fn cascade() -> Cascade {
        let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        let mut c = Cascade::new("t", 24);
        for _ in 0..4 {
            c.stages.push(Stage {
                stumps: vec![Stump { feature: f, threshold: 4096, left: -1.0, right: 1.0 }],
                threshold: 0.5,
            });
        }
        quantize_cascade(&c)
    }

    fn inclusive_integral(img: &GrayImage) -> Vec<u32> {
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

    #[test]
    fn rearranged_accepts_match_blocked_kernel_counts() {
        let img = GrayImage::from_fn(64, 48, |x, y| {
            if (20..30).contains(&x) && (8..40).contains(&y) {
                0.0
            } else if (30..40).contains(&x) && (8..40).contains(&y) {
                255.0
            } else {
                ((x * 11 + y * 7) % 128) as f32
            }
        });
        let c = cascade();

        // Reference: CPU count of accepted windows.
        let ii = IntegralImage::from_gray(&img);
        let mut expected = 0usize;
        for oy in 0..=48 - 24 {
            for ox in 0..=64 - 24 {
                if c.eval_window(&ii, ox, oy).depth == c.depth() {
                    expected += 1;
                }
            }
        }
        assert!(expected > 0, "test pattern must produce accepts");

        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let integral = gpu.mem.upload(&inclusive_integral(&img));
        let s = gpu.create_stream();
        let (accepts, timelines) =
            run_rearranged_level(&mut gpu, &c, integral, 64, 48, 2, s).unwrap();
        assert_eq!(accepts, expected);
        assert_eq!(timelines.len(), 2, "4 stages / 2 per segment = 2 relaunches");
    }

    #[test]
    fn segment_size_one_still_terminates_and_agrees() {
        let img = GrayImage::from_fn(48, 48, |x, y| ((x * 13 + y * 29) % 255) as f32);
        let c = cascade();
        let ii = IntegralImage::from_gray(&img);
        let mut expected = 0usize;
        for oy in 0..=48 - 24 {
            for ox in 0..=48 - 24 {
                if c.eval_window(&ii, ox, oy).depth == c.depth() {
                    expected += 1;
                }
            }
        }
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let integral = gpu.mem.upload(&inclusive_integral(&img));
        let s = gpu.create_stream();
        let (accepts, _) = run_rearranged_level(&mut gpu, &c, integral, 48, 48, 1, s).unwrap();
        assert_eq!(accepts, expected);
    }

    #[test]
    fn memory_is_reclaimed() {
        let img = GrayImage::from_fn(48, 48, |x, _| (x * 5) as f32);
        let c = cascade();
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let integral = gpu.mem.upload(&inclusive_integral(&img));
        let before = gpu.mem.live_bytes();
        let s = gpu.create_stream();
        let _ = run_rearranged_level(&mut gpu, &c, integral, 48, 48, 2, s).unwrap();
        assert_eq!(gpu.mem.live_bytes(), before, "work lists must be freed");
    }
}
