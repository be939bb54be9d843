//! Display kernel (paper §III-D).
//!
//! "Each element (x, y) of these arrays is an integer that represents the
//! deepest stage of the cascade reached during the evaluation process.
//! Therefore, the image region enclosed in a sliding window starting at
//! (x, y) would be considered as a face if the integer value stored there
//! equals the maximum depth of the cascade."
//!
//! The device pass thresholds the depth array into a hit mask, one launch
//! per scale, concurrently with the other scales' kernels. The host then
//! maps hits back to frame coordinates (multiplying by the level's
//! downscale factor, §III-D) and draws rectangles — see
//! [`crate::group`] and `fd_imgproc::draw`.

use std::ops::Range;

use fd_gpu::{DevBuf, Kernel, KernelCounters, LaunchConfig, LaunchCtx};

pub struct DisplayKernel {
    /// Deepest-stage array from the cascade kernel.
    pub depth: DevBuf<u32>,
    /// Hit mask output (1 where a face window was confirmed).
    pub hits: DevBuf<u32>,
    pub width: usize,
    pub height: usize,
    /// Cascade depth a window must reach to count as a face.
    pub required_depth: u32,
}

impl DisplayKernel {
    pub const THREADS: u32 = 256;

    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::linear(self.width * self.height, Self::THREADS)
    }
}

impl Kernel for DisplayKernel {
    fn name(&self) -> &'static str {
        "display"
    }

    fn run_blocks(
        &self,
        ctx: &LaunchCtx<'_>,
        blocks: Range<u64>,
        sink: &mut dyn FnMut(&KernelCounters),
    ) {
        let n = self.width * self.height;
        let tpb = Self::THREADS as usize;
        let warp = ctx.warp_size() as usize;
        // The range is one run of elements; a block is `tpb` of them (the
        // last may be short, one past the end has none).
        let span = (blocks.start as usize * tpb).min(n)..(blocks.end as usize * tpb).min(n);
        let depth = ctx.mem.read(self.depth);
        let mut hits = ctx.mem.write(self.hits);
        let mut block_hits = hits[span.clone()].chunks_mut(tpb);
        let mut block_depths = depth[span].chunks(tpb);
        for _ in blocks {
            let (Some(depths), Some(hits)) = (block_depths.next(), block_hits.next()) else {
                sink(&KernelCounters::default());
                continue;
            };
            // One warp per `warp_size` run of the block's elements (the
            // last may be short): a hit word per element, a divergent exit
            // where some but not all of the warp's lanes hit.
            let mut warp_divergent = 0u64;
            for (lane_depths, lane_hits) in depths.chunks(warp).zip(hits.chunks_mut(warp)) {
                let mut n_hits = 0usize;
                for (hit, &reached) in lane_hits.iter_mut().zip(lane_depths) {
                    *hit = (reached >= self.required_depth) as u32;
                    n_hits += *hit as usize;
                }
                warp_divergent += (0 < n_hits && n_hits < lane_depths.len()) as u64;
            }
            let warps = depths.len().div_ceil(warp) as u64;
            let covered = depths.len() as u64;
            sink(&KernelCounters {
                global_bytes_read: 4 * covered,
                global_bytes_written: 4 * covered,
                alu_ops: 2 * warps,
                branches: warps,
                divergent_branches: warp_divergent,
                ..KernelCounters::default()
            });
        }
    }

    fn access(&self, set: &mut fd_gpu::AccessSet) {
        set.reads(self.depth).writes(self.hits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_gpu::{DeviceSpec, ExecMode, Gpu};

    fn run_display(depth: &[u32], w: usize, h: usize, req: u32) -> Vec<u32> {
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let d = gpu.mem.upload(depth);
        let hits = gpu.mem.alloc::<u32>(w * h);
        let k = DisplayKernel { depth: d, hits, width: w, height: h, required_depth: req };
        let cfg = k.config();
        gpu.launch_default(k, cfg).unwrap();
        gpu.synchronize();
        gpu.mem.download(hits)
    }

    #[test]
    fn thresholds_at_required_depth() {
        let depth = vec![0, 5, 24, 25, 25, 13];
        let hits = run_display(&depth, 6, 1, 25);
        assert_eq!(hits, vec![0, 0, 0, 1, 1, 0]);
    }

    #[test]
    fn required_depth_zero_accepts_all() {
        let depth = vec![0, 1, 2];
        let hits = run_display(&depth, 3, 1, 0);
        assert_eq!(hits, vec![1, 1, 1]);
    }

    #[test]
    fn covers_non_multiple_of_block_sizes() {
        let n = 300; // not a multiple of 256
        let depth: Vec<u32> = (0..n as u32).collect();
        let hits = run_display(&depth, n, 1, 150);
        assert_eq!(hits.iter().sum::<u32>(), 150);
    }
}
