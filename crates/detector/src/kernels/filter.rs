//! Anti-aliasing filter kernel (paper §III-A, "Filtering" stage).
//!
//! A 3x3 binomial smoothing (separable 1/4-1/2-1/4) applied to every
//! pyramid level after scaling. The device version stages an 18x18 halo
//! tile in shared memory per 16x16 block, so each input pixel is read from
//! DRAM once; the functional body matches
//! `fd_imgproc::filter::antialias_3tap` bit-for-bit (clamped borders).

use fd_gpu::{BlockCtx, DevBuf, Kernel, LaunchConfig};

pub struct FilterKernel {
    pub src: DevBuf<f32>,
    pub dst: DevBuf<f32>,
    pub width: usize,
    pub height: usize,
}

impl FilterKernel {
    pub const BLOCK: u32 = 16;
    /// Shared-memory request: the (16+2)^2 halo tile.
    pub const SHARED_BYTES: u32 = 18 * 18 * 4;
    /// Autotunable tilings, default first: every variant keeps 256
    /// threads (the fused-chain contract) and only redistributes them, so
    /// each pixel is still computed independently from clamped source
    /// reads — outputs are byte-identical, only the halo overhead and
    /// residency change.
    pub const BLOCKS: [(u32, u32); 3] = [(16, 16), (32, 8), (8, 32)];

    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::tile2d(self.width, self.height, Self::BLOCK, Self::BLOCK)
            .with_shared_mem(Self::SHARED_BYTES)
    }

    /// Launch geometry for an alternate tiling from [`Self::BLOCKS`].
    pub fn config_for(&self, (bw, bh): (u32, u32)) -> LaunchConfig {
        LaunchConfig::tile2d(self.width, self.height, bw, bh)
            .with_shared_mem((bw + 2) * (bh + 2) * 4)
    }
}

impl Kernel for FilterKernel {
    fn name(&self) -> &'static str {
        "filter"
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        // Block shape comes from the launch config (the autotuner may
        // re-tile); each output pixel only reads its clamped 3x3 source
        // neighbourhood, so any tiling computes identical bytes.
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
            // Tile column 0 is source column bx-1. Blocks whose halo lies
            // inside the image copy whole rows; border blocks clamp per
            // element.
            let interior_x = bx >= 1 && bx + bw < w;
            for (ty, tile_row) in tile.chunks_exact_mut(tile_w).enumerate() {
                let gy = (by + ty).saturating_sub(1).min(h - 1);
                let src_row = &src[gy * w..(gy + 1) * w];
                if interior_x {
                    tile_row.copy_from_slice(&src_row[bx - 1..bx + bw + 1]);
                } else {
                    for (tx, t) in tile_row.iter_mut().enumerate() {
                        *t = src_row[(bx + tx).saturating_sub(1).min(w - 1)];
                    }
                }
            }
        }
        ctx.syncthreads();

        // Separable binomial: rows then columns over the tile.
        let covered_w = (w - bx).min(bw);
        let covered_h = (h - by).min(bh);
        let mut dst = ctx.mem.write(self.dst);
        for ty in 0..covered_h {
            let rows = &tile[ty * tile_w..(ty + 3) * tile_w];
            let (r0, rest) = rows.split_at(tile_w);
            let (r1, r2) = rest.split_at(tile_w);
            let out = &mut dst[(by + ty) * w + bx..][..covered_w];
            for (tx, o) in out.iter_mut().enumerate() {
                let row = |r: &[f32]| 0.25 * r[tx] + 0.5 * r[tx + 1] + 0.25 * r[tx + 2];
                *o = 0.25 * row(r0) + 0.5 * row(r1) + 0.25 * row(r2);
            }
        }
        drop(dst);
        let covered = (covered_w * covered_h) as u64;

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

    fn access(&self, set: &mut fd_gpu::AccessSet) {
        set.reads(self.src).writes(self.dst);
    }

    fn fusion_traits(&self) -> Option<fd_gpu::FusionTraits> {
        Some(fd_gpu::FusionTraits {
            read_domain: (self.width, self.height),
            write_domain: (self.width, self.height),
            // Each block writes only its own tile (the halo is
            // read-side), so consumers may follow in the same launch.
            tile_local: true,
        })
    }

    fn shape_family(&self) -> Option<fd_gpu::ShapeFamily> {
        let shapes = Self::BLOCKS
            .iter()
            .map(|&(bw, bh)| {
                let cfg = self.config_for((bw, bh));
                let halo = ((bw + 2) * (bh + 2)) as f64;
                fd_gpu::ShapeCandidate {
                    grid: cfg.grid,
                    block: cfg.block,
                    shared_mem_bytes: cfg.shared_mem_bytes,
                    registers_per_thread: self.registers_per_thread(),
                    // 9 shared taps + ~10 FLOPs per pixel, any shape.
                    issue_per_thread: 19.0,
                    // Halo bytes amortized per covered pixel + the store.
                    mem_bytes_per_thread: 4.0 * halo / (bw * bh) as f64 + 4.0,
                }
            })
            .collect();
        Some(fd_gpu::ShapeFamily { kernel: self.name(), shapes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_gpu::{DeviceSpec, ExecMode, Gpu};
    use fd_imgproc::filter::antialias_3tap;
    use fd_imgproc::GrayImage;

    fn run_filter(src: &GrayImage) -> Vec<f32> {
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let sbuf = gpu.mem.upload(src.as_slice());
        let dbuf = gpu.mem.alloc::<f32>(src.width() * src.height());
        let k = FilterKernel { src: sbuf, dst: dbuf, width: src.width(), height: src.height() };
        let cfg = k.config();
        gpu.launch_default(k, cfg).unwrap();
        gpu.synchronize();
        gpu.mem.download(dbuf)
    }

    #[test]
    fn matches_host_antialias_exactly() {
        let src = GrayImage::from_fn(50, 34, |x, y| ((x * 31 + y * 17) % 255) as f32);
        let out = run_filter(&src);
        let reference = antialias_3tap(&src);
        for (i, (a, b)) in out.iter().zip(reference.as_slice()).enumerate() {
            assert!((a - b).abs() < 1e-3, "pixel {i}: gpu {a} vs cpu {b}");
        }
    }

    #[test]
    fn preserves_constant_images() {
        let src = GrayImage::from_fn(20, 20, |_, _| 123.0);
        let out = run_filter(&src);
        for v in out {
            assert!((v - 123.0).abs() < 1e-4);
        }
    }

    #[test]
    fn requests_shared_memory_for_the_halo() {
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Serial);
        let src = gpu.mem.alloc::<f32>(256);
        let dst = gpu.mem.alloc::<f32>(256);
        let k = FilterKernel { src, dst, width: 16, height: 16 };
        assert_eq!(k.config().shared_mem_bytes, 18 * 18 * 4);
    }
}
