//! The naive constant-memory layout of the §III-C records ablation.
//!
//! The paper packs each stump's geometry, threshold and leaves into
//! [`STUMP_WORDS`] 32-bit words; the naive layout holds per-rectangle
//! coordinates, dimensions and weights plus threshold and leaves as full
//! words, [`UncompressedRecords::WORDS_PER_STUMP`] of them. The layout
//! changes only what a warp's record broadcasts cost: the product kernel
//! meters `STUMP_WORDS` broadcasts per stump and nothing else, so every
//! block's `const_broadcasts` scales by `WORDS_PER_STUMP / STUMP_WORDS`
//! and every other counter and output byte is the kernel's own.

use std::ops::Range;

use fd_detector::kernels::CascadeKernel;
use fd_gpu::{AccessSet, Kernel, KernelCounters, LaunchCtx};
use fd_haar::encode::STUMP_WORDS;

/// [`CascadeKernel`] fetching uncompressed stump records.
pub struct UncompressedRecords(pub CascadeKernel);

impl UncompressedRecords {
    /// Constant-memory words per uncompressed stump record.
    pub const WORDS_PER_STUMP: u64 = 10;
}

impl Kernel for UncompressedRecords {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn run_blocks(
        &self,
        ctx: &LaunchCtx<'_>,
        blocks: Range<u64>,
        sink: &mut dyn FnMut(&KernelCounters),
    ) {
        self.0.run_blocks(ctx, blocks, &mut |c| {
            let stumps = c.const_broadcasts / STUMP_WORDS as u64;
            debug_assert_eq!(stumps * STUMP_WORDS as u64, c.const_broadcasts);
            sink(&KernelCounters { const_broadcasts: stumps * Self::WORDS_PER_STUMP, ..*c });
        });
    }

    fn access(&self, set: &mut AccessSet) {
        self.0.access(set);
    }

    fn registers_per_thread(&self) -> u32 {
        self.0.registers_per_thread()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use super::*;
    use fd_gpu::{DeviceSpec, ExecMode, Gpu};
    use fd_haar::encode::{encode_cascade, quantize_cascade};
    use fd_haar::{Cascade, FeatureKind, HaarFeature, Stage, Stump};

    /// `K`, logging each block's counters by linear block id.
    struct Logged<K>(K, Arc<Mutex<Vec<(u64, KernelCounters)>>>);

    impl<K: Kernel> Kernel for Logged<K> {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn run_blocks(
            &self,
            ctx: &LaunchCtx<'_>,
            blocks: Range<u64>,
            sink: &mut dyn FnMut(&KernelCounters),
        ) {
            let mut lin = blocks.start;
            self.0.run_blocks(ctx, blocks, &mut |c| {
                self.1.lock().unwrap().push((lin, *c));
                lin += 1;
                sink(c);
            });
        }

        fn access(&self, set: &mut AccessSet) {
            self.0.access(set);
        }
    }

    fn cascade() -> Cascade {
        let edge = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        let line = HaarFeature::from_params(FeatureKind::LineV, 2, 3, 5, 4);
        let mut c = Cascade::new("t", 24);
        for (i, threshold) in [0.0f32, 0.5, -0.5].into_iter().enumerate() {
            c.stages.push(Stage {
                stumps: vec![
                    Stump { feature: edge, threshold: 600 * i as i32, left: -1.0, right: 1.0 },
                    Stump { feature: line, threshold: -400, left: 0.5, right: -0.5 },
                ],
                threshold,
            });
        }
        quantize_cascade(&c)
    }

    /// One launch of `wrap(kernel)` over a 70x53 level of a textured
    /// frame, without the shared tile when `no_tile`: its span, each
    /// block's counters in block order and the depth and score bytes.
    fn launch<K: Kernel + 'static>(
        no_tile: bool,
        wrap: impl FnOnce(CascadeKernel) -> K,
    ) -> (f64, Vec<KernelCounters>, Vec<u32>, Vec<u32>) {
        let (w, h) = (70, 53);
        let mut integral = vec![0u32; w * h];
        for y in 0..h {
            let mut row = 0u32;
            for x in 0..w {
                row += ((x * 37 + y * 91) % 251) as u32;
                integral[y * w + x] = row + if y > 0 { integral[(y - 1) * w + x] } else { 0 };
            }
        }
        let c = cascade();
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
        let integral = gpu.mem.upload(&integral);
        let depth = gpu.mem.alloc::<u32>(w * h);
        let score = gpu.mem.alloc::<f32>(w * h);
        let cp = gpu.const_upload(&encode_cascade(&c));
        let k = CascadeKernel::new(&c, integral, w, h, depth, score, cp);
        let k = if no_tile { k.without_shared_tile() } else { k };
        let cfg = k.config();
        let log = Arc::default();
        gpu.launch_default(Logged(wrap(k), Arc::clone(&log)), cfg).unwrap();
        let span = gpu.synchronize().span_us();
        let mut blocks = std::mem::take(&mut *log.lock().unwrap());
        blocks.sort_by_key(|&(lin, _)| lin);
        let score = gpu.mem.download(score).iter().map(|s| s.to_bits()).collect();
        (span, blocks.into_iter().map(|(_, c)| c).collect(), gpu.mem.download(depth), score)
    }

    #[test]
    fn only_const_broadcasts_scale_by_ten_thirds() {
        for no_tile in [false, true] {
            let (span, product, depth, score) = launch(no_tile, |k| k);
            let (naive_span, naive, naive_depth, naive_score) =
                launch(no_tile, UncompressedRecords);
            assert!(naive_depth == depth && naive_score == score, "output bytes");
            assert_eq!(product.len(), 3 * 3, "a 70x53 level is 3x3 blocks");
            assert_eq!(product.len(), naive.len());
            assert!(product.iter().any(|c| c.const_broadcasts > 0));
            for (p, n) in product.iter().zip(&naive) {
                assert_eq!(n.const_broadcasts * 3, p.const_broadcasts * 10);
                assert_eq!(KernelCounters { const_broadcasts: p.const_broadcasts, ..*n }, *p);
            }
            assert!(naive_span > span, "the timing model sees the extra broadcasts");
        }
    }
}
