//! Scaling kernel: builds one pyramid level with bilinear texture fetches.
//!
//! The decoded frame lives in texture memory; each thread computes one
//! output pixel by mapping its center back into the source and issuing a
//! single `tex2D` fetch with linear filtering (paper §III-A) — the
//! fixed-function interpolator does the 4-tap blend.

use std::ops::Range;

use fd_gpu::{Band, DevBuf, Kernel, KernelCounters, LaunchConfig, LaunchCtx, TexId};

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

    /// Launch geometry for this kernel.
    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::tile2d(self.dst_w, self.dst_h, Self::BLOCK, Self::BLOCK)
    }
}

impl Kernel for ScaleKernel {
    fn name(&self) -> &'static str {
        "scale"
    }

    fn run_blocks(
        &self,
        ctx: &LaunchCtx<'_>,
        blocks: Range<u64>,
        sink: &mut dyn FnMut(&KernelCounters),
    ) {
        // Block shape comes from the launch config; each output pixel is an
        // independent texture gather, so a grid row of blocks is a band of
        // whole output rows.
        let shape = (ctx.block_dim.x as usize, ctx.block_dim.y as usize);
        let dims = (self.dst_w, self.dst_h);
        let sx = self.src_w as f32 / self.dst_w as f32;
        let sy = self.src_h as f32 / self.dst_h as f32;
        let tex = ctx.texture(self.src);
        let warp = ctx.warp_size() as u64;
        // Per covered thread: the texture fetch, ~6 address ALU ops (as
        // warp instructions) and a 4-byte store. The store is
        // buffer-tagged so a fused chain can keep the scaled level on-chip
        // for its consumer.
        let class = |cw: usize, ch: usize| {
            let covered = (cw * ch) as u64;
            let mut c = KernelCounters {
                tex_fetches: covered,
                alu_ops: 6 * covered.div_ceil(warp),
                ..KernelCounters::default()
            };
            ctx.count_store(&mut c, self.dst, 4 * covered);
            c
        };

        // Every row samples the same source columns: one horizontal tap
        // per column the range touches. Going down a band, a texel row's
        // horizontal blends serve every output row that samples it — two
        // of them wherever the level is larger than half the frame.
        let bands: Vec<_> =
            ctx.rectangles(blocks).map(|rect| Band::of(rect, shape, dims)).collect();
        let tap_cols = match &bands[..] {
            [only] => only.cols.clone(),
            _ => 0..self.dst_w,
        };
        let taps: Vec<_> = tap_cols.clone().map(|x| tex.tap_x((x as f32 + 0.5) * sx)).collect();
        let mut blends = [vec![0.0f32; tap_cols.len()], vec![0.0f32; tap_cols.len()]];
        let mut dst = ctx.mem.write(self.dst);
        let dst = &mut dst[..];
        for band in bands {
            let taps = &taps[band.cols.start - tap_cols.start..][..band.cols.len()];
            // The texel rows `blends` holds, for this band's columns.
            let mut held = [usize::MAX; 2];
            for y in band.rows.clone() {
                let ty = tex.tap_y((y as f32 + 0.5) * sy);
                if held[1] == ty.lo() {
                    blends.swap(0, 1);
                    held.swap(0, 1);
                }
                for (k, row) in [ty.lo(), ty.hi()].into_iter().enumerate() {
                    if held[k] != row {
                        tex.blend_row(row, taps, &mut blends[k][..taps.len()]);
                        held[k] = row;
                    }
                }
                let out = &mut dst[y * self.dst_w..][band.cols.clone()];
                let (top, bot) = (&blends[0][..out.len()], &blends[1][..out.len()]);
                for ((o, &top), &bot) in out.iter_mut().zip(top).zip(bot) {
                    *o = ty.blend(top, bot);
                }
            }
            band.emit(class, sink);
        }
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
