//! Row-wise inclusive prefix-sum kernel (paper §III-B).
//!
//! Integral images are built as
//! `transpose(scan_rows(transpose(scan_rows(I))))` following Harris et
//! al.'s GPU scan and the Messom/Bilgic transposition refinement. One
//! thread block processes one image row with a work-efficient block scan:
//! the row is swept in block-sized segments, each scanned in shared memory
//! (up-sweep + down-sweep), with a running carry added on the way out.
//!
//! The first scan pass also performs the 8-bit quantization of the
//! filtered pixels ([`ScanInput::QuantizeF32`]), matching
//! `IntegralImage::from_gray`.

use std::ops::Range;

use fd_gpu::{DevBuf, Kernel, KernelCounters, LaunchConfig, LaunchCtx};

/// Where the scan reads its input from.
#[derive(Debug, Clone, Copy)]
pub enum ScanInput {
    /// Quantize an `f32` image to 8-bit luma, then scan (first pass).
    QuantizeF32(DevBuf<f32>),
    /// Scan an already-integer matrix (second pass, after transpose).
    U32(DevBuf<u32>),
}

pub struct ScanRowsKernel {
    pub input: ScanInput,
    pub output: DevBuf<u32>,
    /// Row length.
    pub width: usize,
    /// Number of rows (one block each).
    pub height: usize,
}

impl ScanRowsKernel {
    pub const THREADS: u32 = 256;

    pub fn config(&self) -> LaunchConfig {
        // grid.y indexes rows; one block per row.
        LaunchConfig::new((1u32, self.height as u32), (Self::THREADS, 1u32))
            .with_shared_mem(2 * Self::THREADS * 4)
    }
}

/// `v.round().clamp(0.0, 255.0) as u32` — the 8-bit quantization of
/// `IntegralImage::from_gray` — in operations that vectorize: `f32::round`
/// is a call into libm on baseline x86-64, and a float-to-int `as`
/// saturates (a compare and select per lane that keeps the row loop
/// scalar). NaN fails `v > 0.0` and goes to 0; clamping first leaves
/// `[0, 255]`. Adding 2²³ moves that where the `f32` grid is the integers,
/// so the add rounds to the nearest integer (ties to even) and the low
/// mantissa bits hold it; a tie rounded down then goes up, as `round`
/// takes halves away from zero. Every other step is exact, and a row of
/// these is one vector loop.
#[inline]
pub(super) fn quantize_luma(v: f32) -> u32 {
    const SHIFT: f32 = 8_388_608.0; // 2^23
    let c = if v > 0.0 { v.min(255.0) } else { 0.0 };
    let shifted = c + SHIFT;
    let nearest = shifted.to_bits() - SHIFT.to_bits();
    nearest + (c - (shifted - SHIFT) == 0.5) as u32
}

/// Inclusive prefix sums in place, wrapping like the device's `u32` adds.
fn prefix_sum(row: &mut [u32]) {
    let mut acc = 0u32;
    for v in row {
        acc = acc.wrapping_add(*v);
        *v = acc;
    }
}

impl Kernel for ScanRowsKernel {
    fn name(&self) -> &'static str {
        "scan_rows"
    }

    fn run_blocks(
        &self,
        ctx: &LaunchCtx<'_>,
        blocks: Range<u64>,
        sink: &mut dyn FnMut(&KernelCounters),
    ) {
        let w = self.width;
        // Block width comes from the launch config; the sequential row
        // scan below is identical for any width, only the work model
        // changes. The launch must have
        // requested the scratch the real block scan needs at this width;
        // the sequential scan itself never touches it.
        let t = ctx.block_dim.x as u64;
        ctx.require_shared(2 * t as usize * 4);

        // Work model, the same for every row: the row is processed in
        // ceil(w / threads) segments; each segment does an up-sweep +
        // down-sweep over `threads` elements in shared memory (~2*threads
        // shared accesses, 2*log2(threads) warp instruction steps per
        // warp, a barrier after each sweep) plus the carry add.
        let warp = ctx.warp_size() as u64;
        let segments = (w as u64).div_ceil(t);
        let mut row_counters = KernelCounters {
            shared_transactions: segments * 2 * t / warp,
            alu_ops: segments * t.div_ceil(warp) * 2 * t.ilog2() as u64,
            barriers: segments * 2 * ctx.warps_in_block(),
            ..KernelCounters::default()
        };
        // Buffer-tagged traffic: credited to on-chip rates when the scan
        // runs fused behind its producer.
        match self.input {
            ScanInput::QuantizeF32(src) => ctx.count_load(&mut row_counters, src, 4 * w as u64),
            ScanInput::U32(src) => ctx.count_load(&mut row_counters, src, 4 * w as u64),
        }
        ctx.count_store(&mut row_counters, self.output, 4 * w as u64);

        // grid.y indexes rows, one block each: the range is a run of rows.
        let rows = (blocks.start as usize).min(self.height)..(blocks.end as usize).min(self.height);
        let mut out = ctx.mem.write(self.output);
        let out = &mut out[rows.start * w..rows.end * w];
        match self.input {
            ScanInput::QuantizeF32(src) => {
                let src = ctx.mem.read(src);
                for (dst, src) in out.chunks_exact_mut(w).zip(src[rows.start * w..].chunks_exact(w))
                {
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d = quantize_luma(s);
                    }
                    prefix_sum(dst);
                }
            }
            ScanInput::U32(src) => {
                let src = ctx.mem.read(src);
                for (dst, src) in out.chunks_exact_mut(w).zip(src[rows.start * w..].chunks_exact(w))
                {
                    // Copy and scan in one pass.
                    let mut acc = 0u32;
                    for (d, &s) in dst.iter_mut().zip(src) {
                        acc = acc.wrapping_add(s);
                        *d = acc;
                    }
                }
            }
        }
        // A block past the last row (no launch of `config` has one) does
        // nothing.
        let idle = KernelCounters::default();
        for row in blocks {
            sink(if (row as usize) < self.height { &row_counters } else { &idle });
        }
    }

    fn access(&self, set: &mut fd_gpu::AccessSet) {
        match self.input {
            ScanInput::QuantizeF32(src) => set.reads(src),
            ScanInput::U32(src) => set.reads(src),
        }
        .writes(self.output);
    }

    fn fusion_traits(&self) -> Option<fd_gpu::FusionTraits> {
        Some(fd_gpu::FusionTraits {
            read_domain: (self.width, self.height),
            write_domain: (self.width, self.height),
            // One block owns one row of the output.
            tile_local: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_gpu::{DeviceSpec, ExecMode, Gpu};

    #[test]
    fn scans_u32_rows_like_host_reference() {
        let (w, h) = (37, 5);
        let data: Vec<u32> = (0..w * h).map(|i| (i % 11) as u32).collect();
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let src = gpu.mem.upload(&data);
        let dst = gpu.mem.alloc::<u32>(w * h);
        let k = ScanRowsKernel { input: ScanInput::U32(src), output: dst, width: w, height: h };
        let cfg = k.config();
        gpu.launch_default(k, cfg).unwrap();
        gpu.synchronize();
        let out = gpu.mem.download(dst);

        let mut expect = data;
        fd_imgproc::scan::scan_rows_inclusive(&mut expect, w, h);
        assert_eq!(out, expect);
    }

    #[test]
    fn quantizing_pass_rounds_like_to_u8() {
        let vals = vec![0.4f32, 0.6, 254.7, 300.0, -5.0];
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let src = gpu.mem.upload(&vals);
        let dst = gpu.mem.alloc::<u32>(5);
        let k =
            ScanRowsKernel { input: ScanInput::QuantizeF32(src), output: dst, width: 5, height: 1 };
        let cfg = k.config();
        gpu.launch_default(k, cfg).unwrap();
        gpu.synchronize();
        // Quantized: 0, 1, 255, 255, 0 -> prefix 0, 1, 256, 511, 511.
        assert_eq!(gpu.mem.download(dst), vec![0, 1, 256, 511, 511]);
    }

    #[test]
    fn one_block_per_row_geometry() {
        let k = ScanRowsKernel {
            input: ScanInput::U32(
                Gpu::new(DeviceSpec::gtx470(), ExecMode::Serial).mem.alloc::<u32>(8),
            ),
            output: Gpu::new(DeviceSpec::gtx470(), ExecMode::Serial).mem.alloc::<u32>(8),
            width: 4,
            height: 2,
        };
        let cfg = k.config();
        assert_eq!(cfg.grid.y, 2);
        assert_eq!(cfg.total_blocks(), 2);
    }
}
