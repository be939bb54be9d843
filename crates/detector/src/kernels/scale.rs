//! Scaling kernel: builds one pyramid level with bilinear texture fetches.
//!
//! The decoded frame lives in texture memory; each thread computes one
//! output pixel by mapping its center back into the source and issuing a
//! single `tex2D` fetch with linear filtering (paper §III-A) — the
//! fixed-function interpolator does the 4-tap blend.

use fd_gpu::{BlockCtx, DevBuf, Kernel, LaunchConfig, TexId};

/// One launch per pyramid level.
pub struct ScaleKernel {
    /// Source frame texture.
    pub src: TexId,
    /// Source dimensions.
    pub src_w: usize,
    pub src_h: usize,
    /// Destination buffer (`dst_w * dst_h`).
    pub dst: DevBuf<f32>,
    pub dst_w: usize,
    pub dst_h: usize,
}

impl ScaleKernel {
    pub const BLOCK: u32 = 16;
    /// Autotunable tilings, default first: 256 threads each (the
    /// fused-chain contract), pure gather through the texture unit, so
    /// any tiling produces byte-identical output.
    pub const BLOCKS: [(u32, u32); 2] = [(16, 16), (32, 8)];

    /// Launch geometry for this kernel.
    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::tile2d(self.dst_w, self.dst_h, Self::BLOCK, Self::BLOCK)
    }

    /// Launch geometry for an alternate tiling from [`Self::BLOCKS`].
    pub fn config_for(&self, (bw, bh): (u32, u32)) -> LaunchConfig {
        LaunchConfig::tile2d(self.dst_w, self.dst_h, bw, bh)
    }
}

impl Kernel for ScaleKernel {
    fn name(&self) -> &'static str {
        "scale"
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) {
        // Block shape comes from the launch config (the autotuner may
        // re-tile); each output pixel is an independent texture gather.
        let bw = ctx.block_dim.x as usize;
        let bh = ctx.block_dim.y as usize;
        let bx = ctx.block_idx.x as usize * bw;
        let by = ctx.block_idx.y as usize * bh;
        let sx = self.src_w as f32 / self.dst_w as f32;
        let sy = self.src_h as f32 / self.dst_h as f32;

        // The block's columns sample the same source columns on every
        // row: one horizontal tap per column, one row fetch per row.
        let tex = ctx.texture(self.src);
        let covered_w = (self.dst_w - bx).min(bw);
        let covered_h = (self.dst_h - by).min(bh);
        let taps: Vec<_> =
            (bx..bx + covered_w).map(|x| tex.tap_x((x as f32 + 0.5) * sx)).collect();
        let mut dst = ctx.mem.write(self.dst);
        for y in by..by + covered_h {
            let out = &mut dst[y * self.dst_w + bx..][..covered_w];
            tex.fetch_bilinear_row(&taps, (y as f32 + 0.5) * sy, out);
        }
        drop(dst);
        let covered = (covered_w * covered_h) as u64;
        ctx.meter.tex(covered);

        // Per covered thread: ~6 address ALU ops (as warp instructions) and
        // a 4-byte store, next to the texture fetch metered above. The store
        // is buffer-tagged so a fused chain can keep the scaled level
        // on-chip for its consumer.
        let warp = ctx.warp_size() as u64;
        ctx.meter.alu(6 * covered.div_ceil(warp));
        ctx.global_store_buf(self.dst, 4 * covered);
    }

    fn access(&self, set: &mut fd_gpu::AccessSet) {
        // The source is a texture; texture state is flushed ahead of any
        // host-side mutation, so only the buffer write needs declaring.
        set.writes(self.dst);
    }

    fn fusion_traits(&self) -> Option<fd_gpu::FusionTraits> {
        Some(fd_gpu::FusionTraits {
            // The read side is a texture, outside the buffer domain
            // contract; report the output geometry (a chain head's read
            // domain is never matched against a producer).
            read_domain: (self.dst_w, self.dst_h),
            write_domain: (self.dst_w, self.dst_h),
            // Each block writes exactly its own output tile.
            tile_local: true,
        })
    }

    fn shape_family(&self) -> Option<fd_gpu::ShapeFamily> {
        let shapes = Self::BLOCKS
            .iter()
            .map(|&shape| {
                let cfg = self.config_for(shape);
                fd_gpu::ShapeCandidate {
                    grid: cfg.grid,
                    block: cfg.block,
                    shared_mem_bytes: cfg.shared_mem_bytes,
                    registers_per_thread: self.registers_per_thread(),
                    // ~6 address ops per pixel; the tex unit does the blend.
                    issue_per_thread: 6.0,
                    // One 4 B fetch through tex + one 4 B store.
                    mem_bytes_per_thread: 8.0,
                }
            })
            .collect();
        Some(fd_gpu::ShapeFamily { kernel: self.name(), shapes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_gpu::{DeviceSpec, ExecMode, Gpu, Texture2D};
    use fd_imgproc::resize::resize_bilinear;
    use fd_imgproc::GrayImage;

    fn run_scale(src: &GrayImage, dw: usize, dh: usize) -> Vec<f32> {
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let tex = gpu.bind_texture(Texture2D::from_data(
            src.width(),
            src.height(),
            src.as_slice().to_vec(),
        ));
        let dst = gpu.mem.alloc::<f32>(dw * dh);
        let k = ScaleKernel {
            src: tex,
            src_w: src.width(),
            src_h: src.height(),
            dst,
            dst_w: dw,
            dst_h: dh,
        };
        let cfg = k.config();
        gpu.launch_default(k, cfg).unwrap();
        gpu.synchronize();
        gpu.mem.download(dst)
    }

    #[test]
    fn matches_host_bilinear_resize_exactly() {
        let src = GrayImage::from_fn(64, 48, |x, y| ((x * 7 + y * 13) % 251) as f32);
        let out = run_scale(&src, 41, 31);
        let reference = resize_bilinear(&src, 41, 31);
        for (i, (a, b)) in out.iter().zip(reference.as_slice()).enumerate() {
            assert!((a - b).abs() < 1e-4, "pixel {i}: gpu {a} vs cpu {b}");
        }
    }

    #[test]
    fn handles_non_multiple_of_block_dims() {
        let src = GrayImage::from_fn(30, 30, |x, _| x as f32);
        let out = run_scale(&src, 17, 9);
        assert_eq!(out.len(), 17 * 9);
        // Monotone gradient survives scaling.
        assert!(out[0] < out[16]);
    }

    #[test]
    fn meters_texture_fetches_and_stores() {
        let src = GrayImage::from_fn(32, 32, |_, _| 1.0);
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let tex = gpu.bind_texture(Texture2D::from_data(32, 32, src.as_slice().to_vec()));
        let dst = gpu.mem.alloc::<f32>(16 * 16);
        let k = ScaleKernel { src: tex, src_w: 32, src_h: 32, dst, dst_w: 16, dst_h: 16 };
        let cfg = k.config();
        gpu.launch_default(k, cfg).unwrap();
        let t = gpu.synchronize();
        let c = &t.events[0].counters;
        assert_eq!(c.tex_fetches, 256);
        assert_eq!(c.global_bytes_written, 1024);
    }
}
