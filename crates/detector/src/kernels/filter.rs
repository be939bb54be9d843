//! Anti-aliasing filter kernel (paper §III-A, "Filtering" stage).
//!
//! A 3x3 binomial smoothing (separable 1/4-1/2-1/4) applied to every
//! pyramid level after scaling. The device version stages an 18x18 halo
//! tile in shared memory per 16x16 block, so each input pixel is read from
//! DRAM once — that is what is metered; the functional body filters whole
//! rows of a grid row of blocks and matches
//! `fd_imgproc::filter::antialias_3tap` bit-for-bit (clamped borders).

use std::ops::Range;

use fd_gpu::{Band, DevBuf, Kernel, KernelCounters, LaunchConfig, LaunchCtx};

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

/// `out[i]` is the 1/4-1/2-1/4 blend around column `cols.start + i` of
/// `row`, columns clamped to the row.
fn binomial_row(row: &[f32], cols: Range<usize>, out: &mut [f32]) {
    let last = row.len() - 1;
    let at =
        |x: usize| 0.25 * row[x.saturating_sub(1)] + 0.5 * row[x] + 0.25 * row[(x + 1).min(last)];
    // Columns with both neighbours in the row, as three aligned slices.
    let (lo, hi) = (cols.start.max(1), cols.end.min(last));
    if lo < hi {
        let inner = &mut out[lo - cols.start..hi - cols.start];
        let (left, mid, right) = (&row[lo - 1..hi - 1], &row[lo..hi], &row[lo + 1..hi + 1]);
        for (((o, l), m), r) in inner.iter_mut().zip(left).zip(mid).zip(right) {
            *o = 0.25 * l + 0.5 * m + 0.25 * r;
        }
    }
    for x in [cols.start, cols.end - 1] {
        out[x - cols.start] = at(x);
    }
}

impl Kernel for FilterKernel {
    fn name(&self) -> &'static str {
        "filter"
    }

    fn run_blocks(
        &self,
        ctx: &LaunchCtx<'_>,
        blocks: Range<u64>,
        sink: &mut dyn FnMut(&KernelCounters),
    ) {
        // Block shape comes from the launch config (the autotuner may
        // re-tile); each output pixel only reads its clamped 3x3 source
        // neighbourhood, so any tiling computes identical bytes and a grid
        // row of blocks is a band of whole image rows.
        let shape = (ctx.block_dim.x as usize, ctx.block_dim.y as usize);
        let (w, h) = (self.width, self.height);
        // What the device stages per block: the (bw+2)x(bh+2) halo tile
        // (clamped at image borders), one coalesced read per element.
        let tile = (shape.0 + 2) * (shape.1 + 2);
        ctx.require_shared(tile * 4);
        let warp = ctx.warp_size() as u64;
        let class = |cw: usize, ch: usize| {
            let covered = (cw * ch) as u64;
            let warps = covered.div_ceil(warp);
            let mut c = KernelCounters {
                // Halo stores, then 9 shared reads + ~10 FLOPs per pixel.
                shared_transactions: tile as u64 / 8 + 9 * warps,
                alu_ops: 10 * warps,
                barriers: ctx.warps_in_block(),
                ..KernelCounters::default()
            };
            // Buffer-tagged so a fused launch credits fusion-local traffic
            // to on-chip rates.
            ctx.count_load(&mut c, self.src, 4 * tile as u64);
            ctx.count_store(&mut c, self.dst, 4 * covered);
            c
        };

        // Separable binomial, rows then columns: source row `y`'s
        // horizontal pass lives in `passes[y % 3]` while the output rows
        // next to it need it.
        let (src, mut dst) = (ctx.mem.read(self.src), ctx.mem.write(self.dst));
        let (src, dst) = (&src[..], &mut dst[..]);
        let mut passes: [Vec<f32>; 3] = std::array::from_fn(|_| vec![0.0; w]);
        for rect in ctx.rectangles(blocks) {
            let band = Band::of(rect, shape, (w, h));
            let n = band.cols.len();
            let mut next_pass = band.rows.start.saturating_sub(1);
            for y in band.rows.clone() {
                while next_pass <= (y + 1).min(h - 1) {
                    let row = &src[next_pass * w..][..w];
                    binomial_row(row, band.cols.clone(), &mut passes[next_pass % 3][..n]);
                    next_pass += 1;
                }
                let [above, at, below] =
                    [y.saturating_sub(1), y, (y + 1).min(h - 1)].map(|r| &passes[r % 3][..n]);
                let out = &mut dst[y * w..][band.cols.clone()];
                for (((o, a), b), c) in out.iter_mut().zip(above).zip(at).zip(below) {
                    *o = 0.25 * a + 0.5 * b + 0.25 * c;
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
