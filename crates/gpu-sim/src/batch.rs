//! Cross-request batched launches: many same-shape kernels in one grid.
//!
//! The paper restores SM occupancy by co-scheduling the *scales* of one
//! frame across streams; a request-serving frontend wants the same trick
//! across *requests*. Both hit the same wall: every launch pays the
//! driver's fixed overhead ([`crate::DeviceSpec::launch_overhead_us`]),
//! and a stream's kernels execute in order, so N independent requests
//! dispatched as N kernel chains serialize N launch overheads even when
//! the device has idle SMs.
//!
//! [`BatchedKernel`] folds N *homogeneous* kernel instances (same type,
//! same per-part [`LaunchConfig`]) into a single launch by stacking the
//! batch dimension on `grid.z`: part `p`'s blocks are the grid slice
//! `z == p`. Because [`crate::Dim3`] linearizes x-major with z outermost,
//! the blocks of part 0 enumerate first and in exactly the order a
//! standalone launch would produce — a 1-part batched launch is therefore
//! bit-identical (results, counters, timeline) to the plain launch, which
//! the serving layer's determinism guarantees build on.
//!
//! A range of the stacked grid is cut at the part borders and each piece
//! goes to its part's [`Kernel::run_blocks`] as a range of the *per-part*
//! grid, so existing kernels batch without modification and a part that
//! works band by band keeps doing so. The parts must be independent
//! (they are separate requests' kernels over disjoint buffers), which is
//! exactly the disjoint-write contract blocks already obey.

use std::ops::Range;

use crate::dim::Dim3;
use crate::kernel::{Kernel, LaunchConfig, LaunchCtx};
use crate::meter::KernelCounters;

/// N homogeneous kernels presented to the device as one launch, with the
/// batch dimension stacked on `grid.z`. Built by
/// [`crate::Gpu::launch_batched`]; the type is public so cost-model tests
/// and custom harnesses can construct it directly. Owns its parts: the
/// batch executes at the next flush point, long after the launch call
/// returns.
pub struct BatchedKernel<K: Kernel> {
    parts: Vec<K>,
    /// The grid extent each part believes it was launched with.
    part_grid: Dim3,
}

impl<K: Kernel> BatchedKernel<K> {
    /// Wrap `parts` sharing one per-part launch geometry. The per-part
    /// grid must be flat (`grid.z == 1`) — `z` carries the part index.
    pub fn new(parts: Vec<K>, part_cfg: LaunchConfig) -> Self {
        assert!(!parts.is_empty(), "a batched launch needs at least one part");
        assert_eq!(part_cfg.grid.z, 1, "per-part grids must be flat: z carries the part index");
        Self { parts, part_grid: part_cfg.grid }
    }

    /// Number of parts in the batch.
    pub fn batch_size(&self) -> usize {
        self.parts.len()
    }

    /// The stacked launch configuration covering every part.
    pub fn stacked_config(&self, part_cfg: LaunchConfig) -> LaunchConfig {
        LaunchConfig {
            grid: Dim3::d3(self.part_grid.x, self.part_grid.y, self.parts.len() as u32),
            ..part_cfg
        }
    }
}

impl<K: Kernel> Kernel for BatchedKernel<K> {
    fn name(&self) -> &'static str {
        self.parts[0].name()
    }

    fn run_blocks(
        &self,
        ctx: &LaunchCtx<'_>,
        blocks: Range<u64>,
        sink: &mut dyn FnMut(&KernelCounters),
    ) {
        // The part kernel must observe standalone-launch geometry so its
        // per-block work (and metering) is identical to an unbatched run.
        let part_ctx = ctx.retiled(self.part_grid, ctx.block_dim);
        let per_part = self.part_grid.count();
        let mut lin = blocks.start;
        while lin < blocks.end {
            let part = lin / per_part;
            let end = blocks.end.min((part + 1) * per_part);
            let local = lin - part * per_part..end - part * per_part;
            self.parts[part as usize].run_blocks(&part_ctx, local, sink);
            lin = end;
        }
    }

    fn access(&self, set: &mut crate::memory::AccessSet) {
        // A batch touches the union of its parts' buffers; if any part
        // declines to declare, the whole batch is opaque.
        for p in &self.parts {
            let mut part_set = crate::memory::AccessSet::new();
            p.access(&mut part_set);
            set.union(&part_set);
        }
    }

    fn fusion_traits(&self) -> Option<crate::fuse::FusionTraits> {
        // Parts are homogeneous (same type, same geometry), so the batch
        // fuses exactly when one part does, with the part's traits: the
        // stacked z dimension adds identical independent instances and
        // changes neither the per-part domains nor tile-locality.
        self.parts[0].fusion_traits()
    }

    fn batch_parts(&self) -> usize {
        self.parts.len()
    }

    fn registers_per_thread(&self) -> u32 {
        // Homogeneous parts compile identically; the batch's register
        // pressure is any single part's.
        self.parts[0].registers_per_thread()
    }

    fn shape_family(&self) -> Option<crate::tune::ShapeFamily> {
        // Every part retiles the same way (same type, same geometry), so
        // the batch inherits the part family; `grid.z` re-stacking is the
        // caller's job ([`crate::Gpu::launch_batched`] consumes per-part
        // configs).
        self.parts[0].shape_family()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::gpu::{Gpu, LaunchError};
    use crate::memory::DevBuf;
    use crate::sched::ExecMode;

    /// Writes `base + linear_thread_range` scaled by 2; block-parallel.
    #[derive(Clone, Copy)]
    struct FillKernel {
        buf: DevBuf<u32>,
        base: u32,
    }

    impl Kernel for FillKernel {
        fn name(&self) -> &'static str {
            "fill"
        }
        fn run_blocks(
            &self,
            ctx: &LaunchCtx<'_>,
            blocks: Range<u64>,
            sink: &mut dyn FnMut(&KernelCounters),
        ) {
            ctx.each_block(blocks, sink, |ctx| {
                assert_eq!(ctx.block_idx.z, 0, "parts must see a flat grid");
                assert_eq!(ctx.grid_dim.z, 1, "parts must see their own extent");
                let tpb = ctx.block_dim.count() as usize;
                let start = ctx.block_idx.x as usize * tpb;
                let mut data = ctx.mem.write(self.buf);
                let end = (start + tpb).min(data.len());
                for (i, v) in data[start..end].iter_mut().enumerate() {
                    *v = self.base + (start + i) as u32 * 2;
                }
                ctx.meter.alu(ctx.warps_in_block());
                ctx.meter.global_store(((end - start) * 4) as u64);
            });
        }
    }

    #[test]
    fn single_part_batch_is_bit_identical_to_plain_launch() {
        let run = |batched: bool| {
            let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
            let buf = gpu.mem.alloc::<u32>(1024);
            let s = gpu.create_stream();
            let k = FillKernel { buf, base: 5 };
            let cfg = LaunchConfig::linear(1024, 256);
            if batched {
                gpu.launch_batched(vec![k], cfg, s).unwrap();
            } else {
                gpu.launch(k, cfg, s).unwrap();
            }
            let t = gpu.synchronize();
            let trace: Vec<_> = gpu
                .profiler()
                .traces()
                .iter()
                .map(|e| (e.kernel_name, e.blocks, e.t_start_us.to_bits(), e.t_end_us.to_bits()))
                .collect();
            (gpu.mem.download(buf), t.span_us().to_bits(), trace)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn batch_matches_standalone_launches_functionally() {
        let parts = 5usize;
        let n = 700usize;
        let standalone = {
            let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
            let bufs: Vec<_> = (0..parts).map(|_| gpu.mem.alloc::<u32>(n)).collect();
            for (p, &buf) in bufs.iter().enumerate() {
                let k = FillKernel { buf, base: 1000 * p as u32 };
                let s = gpu.create_stream();
                gpu.launch(k, LaunchConfig::linear(n, 128), s).unwrap();
            }
            gpu.synchronize();
            bufs.iter().map(|&b| gpu.mem.download(b)).collect::<Vec<_>>()
        };
        let batched = {
            let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
            let bufs: Vec<_> = (0..parts).map(|_| gpu.mem.alloc::<u32>(n)).collect();
            let kernels: Vec<_> = bufs
                .iter()
                .enumerate()
                .map(|(p, &buf)| FillKernel { buf, base: 1000 * p as u32 })
                .collect();
            let s = gpu.create_stream();
            gpu.launch_batched(kernels, LaunchConfig::linear(n, 128), s).unwrap();
            gpu.synchronize();
            bufs.iter().map(|&b| gpu.mem.download(b)).collect::<Vec<_>>()
        };
        assert_eq!(standalone, batched);
    }

    #[test]
    fn batched_launch_pays_one_launch_overhead() {
        let parts = 8usize;
        let n = 256usize;
        let chained = {
            let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
            let s = gpu.create_stream();
            for _ in 0..parts {
                let buf = gpu.mem.alloc::<u32>(n);
                gpu.launch(FillKernel { buf, base: 0 }, LaunchConfig::linear(n, 128), s).unwrap();
            }
            gpu.synchronize().span_us()
        };
        let batched = {
            let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
            let s = gpu.create_stream();
            let bufs: Vec<_> = (0..parts).map(|_| gpu.mem.alloc::<u32>(n)).collect();
            let kernels: Vec<_> = bufs.iter().map(|&buf| FillKernel { buf, base: 0 }).collect();
            gpu.launch_batched(kernels, LaunchConfig::linear(n, 128), s).unwrap();
            gpu.synchronize().span_us()
        };
        let overhead = DeviceSpec::gtx470().launch_overhead_us;
        assert!(
            batched + (parts - 1) as f64 * overhead * 0.9 < chained,
            "batching 8 tiny kernels must save ~7 launch overheads: {batched} vs {chained}"
        );
    }

    #[test]
    fn batched_launch_validates_inputs() {
        let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Serial);
        let s = gpu.create_stream();
        assert!(matches!(
            gpu.launch_batched(Vec::<FillKernel>::new(), LaunchConfig::linear(64, 64), s),
            Err(LaunchError::EmptyLaunch)
        ));
        let buf = gpu.mem.alloc::<u32>(64);
        let k = FillKernel { buf, base: 0 };
        let deep = LaunchConfig::new(Dim3::d3(1, 1, 2), Dim3::d1(64));
        assert!(matches!(
            gpu.launch_batched(vec![k], deep, s),
            Err(LaunchError::BatchedGridDepth { z: 2 })
        ));
    }
}
