//! Tiled matrix-transpose kernel (paper §III-B, after Ruetsch &
//! Micikevicius).
//!
//! 16x16 tiles staged through shared memory (padded to 16x17 in the real
//! kernel to avoid bank conflicts) so both the read and the write side are
//! coalesced.

use fd_gpu::{BlockCtx, DevBuf, Kernel, LaunchConfig};

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

    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        let t = Self::TILE as usize;
        let bx = ctx.block_idx.x as usize * t;
        let by = ctx.block_idx.y as usize * t;
        let (w, h) = (self.width, self.height);

        // The block's part of the matrix: `cw x ch` elements.
        let cw = (w - bx).min(t);
        let ch = (h - by).min(t);
        let loaded = (cw * ch) as u64;
        let mut tile = ctx.shared_alloc_u32(t * (t + 1));
        {
            let src = ctx.mem.read(self.src);
            for (ty, tile_row) in tile.chunks_exact_mut(t + 1).take(ch).enumerate() {
                tile_row[..cw].copy_from_slice(&src[(by + ty) * w + bx..][..cw]);
            }
        }
        ctx.syncthreads();
        {
            let mut dst = ctx.mem.write(self.dst);
            for tx in 0..cw {
                // dst is h x w: row `bx + tx` takes the tile's column `tx`.
                let out = &mut dst[(bx + tx) * h + by..][..ch];
                for (o, tile_row) in out.iter_mut().zip(tile.chunks_exact(t + 1)) {
                    *o = tile_row[tx];
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
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Serial);
        let src = gpu.mem.alloc::<u32>(64 * 64);
        let dst = gpu.mem.alloc::<u32>(64 * 64);
        let k = TransposeKernel { src, dst, width: 64, height: 64 };
        let cfg = k.config();
        assert_eq!(cfg.grid.x, 4);
        assert_eq!(cfg.grid.y, 4);
        assert_eq!(cfg.shared_mem_bytes, 16 * 17 * 4);
    }
}
