//! Tiled matrix-transpose kernel (paper §III-B, after Ruetsch &
//! Micikevicius).
//!
//! 16x16 tiles staged through shared memory (padded to 16x17 in the real
//! kernel to avoid bank conflicts) so both the read and the write side are
//! coalesced. That is what is metered; the functional body moves the same
//! elements output row by output row (DESIGN.md `#functional-bodies`).

use std::ops::Range;

use fd_gpu::{Band, DevBuf, Kernel, KernelCounters, LaunchConfig, LaunchCtx};

pub struct TransposeKernel {
    /// Input: `width x height`, row-major.
    pub src: DevBuf<u32>,
    /// Output: `height x width`, row-major.
    pub dst: DevBuf<u32>,
    pub width: usize,
    pub height: usize,
}

impl TransposeKernel {
    pub const TILE: u32 = 16;
    /// 16x17 padded tile.
    pub const SHARED_BYTES: u32 = 16 * 17 * 4;

    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::tile2d(self.width, self.height, Self::TILE, Self::TILE)
            .with_shared_mem(Self::SHARED_BYTES)
    }
}

impl Kernel for TransposeKernel {
    fn name(&self) -> &'static str {
        "transpose"
    }

    fn run_blocks(
        &self,
        ctx: &LaunchCtx<'_>,
        blocks: Range<u64>,
        sink: &mut dyn FnMut(&KernelCounters),
    ) {
        const T: usize = TransposeKernel::TILE as usize;
        let (w, h) = (self.width, self.height);
        ctx.require_shared(Self::SHARED_BYTES as usize);
        let warps = (T * T) as u64 / ctx.warp_size() as u64;
        let class = |cw: usize, ch: usize| {
            let mut c = KernelCounters {
                // One shared store and one shared load per element — one
                // transaction per warp each way, conflict-free thanks to
                // the padding.
                shared_transactions: 2 * warps,
                alu_ops: 4 * warps,
                barriers: ctx.warps_in_block(),
                ..KernelCounters::default()
            };
            // Buffer-tagged traffic: fusion-local intermediates are
            // credited to on-chip rates inside a fused chain.
            ctx.count_load(&mut c, self.src, 4 * (cw * ch) as u64);
            ctx.count_store(&mut c, self.dst, 4 * (cw * ch) as u64);
            c
        };

        // Plain slices: indexing a guard re-reads the buffer's pointer and
        // length on every access.
        let (src, mut dst) = (ctx.mem.read(self.src), ctx.mem.write(self.dst));
        let (src, dst) = (&src[..], &mut dst[..]);
        for rect in ctx.rectangles(blocks) {
            let band = Band::of(rect, (T, T), (w, h));
            // dst is `h x w`: its row `x` takes source column `x`. Written
            // row by row, each as one run as long as the rectangle is high
            // (the writes are what misses: a column's reads come back from
            // the lines its left neighbours already fetched).
            let (y0, ch) = (band.rows.start, band.rows.len());
            for x in band.cols.clone() {
                let out = &mut dst[x * h + y0..][..ch];
                for (o, row) in out.iter_mut().zip(src[y0 * w..].chunks(w)) {
                    *o = row[x];
                }
            }
            band.emit(class, sink);
        }
    }

    fn access(&self, set: &mut fd_gpu::AccessSet) {
        set.reads(self.src).writes(self.dst);
    }

    fn fusion_traits(&self) -> Option<fd_gpu::FusionTraits> {
        Some(fd_gpu::FusionTraits {
            read_domain: (self.width, self.height),
            // The output is the transposed matrix: domains swap, which is
            // exactly what a consumer expecting `height x width` checks.
            write_domain: (self.height, self.width),
            tile_local: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_gpu::{DeviceSpec, ExecMode, Gpu};

    fn run_transpose(data: &[u32], w: usize, h: usize) -> Vec<u32> {
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let src = gpu.mem.upload(data);
        let dst = gpu.mem.alloc::<u32>(w * h);
        let k = TransposeKernel { src, dst, width: w, height: h };
        let cfg = k.config();
        gpu.launch_default(k, cfg).unwrap();
        gpu.synchronize();
        gpu.mem.download(dst)
    }

    #[test]
    fn matches_host_transpose() {
        let (w, h) = (37, 21); // not multiples of the tile
        let data: Vec<u32> = (0..(w * h) as u32).collect();
        let out = run_transpose(&data, w, h);
        assert_eq!(out, fd_imgproc::scan::transpose(&data, w, h));
    }

    #[test]
    fn double_transpose_is_identity() {
        let (w, h) = (19, 33);
        let data: Vec<u32> = (0..(w * h) as u32).map(|v| v.wrapping_mul(2654435761)).collect();
        let once = run_transpose(&data, w, h);
        let twice = run_transpose(&once, h, w);
        assert_eq!(twice, data);
    }

    #[test]
    fn square_tile_geometry() {
        let mut gpu = Gpu::new(DeviceSpec::gtx470().profiler_serialized(), ExecMode::Concurrent);
        let src = gpu.mem.alloc::<u32>(64 * 64);
        let dst = gpu.mem.alloc::<u32>(64 * 64);
        let k = TransposeKernel { src, dst, width: 64, height: 64 };
        let cfg = k.config();
        assert_eq!(cfg.grid.x, 4);
        assert_eq!(cfg.grid.y, 4);
        assert_eq!(cfg.shared_mem_bytes, 16 * 17 * 4);
    }
}
