//! Kernel fusion: collapse a producer–consumer chain into one launch.
//!
//! The paper's per-level pipeline issues each stage as its own kernel, so
//! every pyramid level pays a launch overhead per stage and round-trips
//! intermediate arrays through DRAM. Following the kernel-fusion
//! literature for GPU video pipelines, a [`FusedChain`] packages a
//! sequence of kernels whose dependence structure makes a single combined
//! launch legal, and [`FusedKernel`] executes that chain in one launch:
//!
//! * **one launch overhead** instead of one per stage — the timing model
//!   charges `launch_overhead_us` per launch, so a k-stage fusion saves
//!   `k - 1` overheads with no special casing;
//! * **fusion-local intermediates** — a buffer written by one stage and
//!   consumed by a later stage of the same chain never needs to reach
//!   DRAM in the fused execution. Stages meter traffic on such buffers
//!   through [`crate::LaunchCtx::count_load`] /
//!   [`crate::LaunchCtx::count_store`], which route it to the
//!   fused-traffic counters; [`crate::CostModel::issue_cycles`] then
//!   charges it at on-chip (shared-memory) rate instead of the DRAM
//!   latency/bandwidth terms.
//!
//! # Legality
//!
//! [`FusedChain::validate`] refuses to fuse unless the chain provably has
//! the shape a real fused kernel could execute:
//!
//! * at least two stages, none opaque (an undeclared access set cannot be
//!   checked), every stage opted in via [`Kernel::fusion_traits`];
//! * uniform thread count per block across stages — the fused launch has
//!   one block shape;
//! * each adjacent pair is a producer→consumer link: some buffer written
//!   by stage *i* is read by stage *i + 1*, and the producer's write
//!   domain equals the consumer's read domain (a transpose legitimately
//!   swaps its domains; the traits encode that);
//! * every producer stage is element-wise or tile-local, so a consumer
//!   tile depends only on a bounded producer neighborhood;
//! * no write-after-write and no later stage writing a buffer an earlier
//!   stage reads — such conflicts would race in a genuinely interleaved
//!   fused kernel, so the model refuses them even though the simulator's
//!   phased execution could hide the problem.
//!
//! # Execution
//!
//! The fused launch concatenates the stage grids on a 1-D grid;
//! [`FusedKernel::run_blocks`] cuts a range at the stage starts and hands
//! each piece to its stage as a range of the stage's own grid, exactly
//! like [`crate::BatchedKernel`] does for grid-`z` stacking. Stage starts are
//! exposed as [`Kernel::phase_boundaries`]: the host drain executes the
//! phases in order without interleaving blocks across a boundary, which
//! preserves the memory effects of separate launches (and keeps the
//! arena's read-while-write checker quiet). Results are bit-identical to
//! the unfused pipeline at any host thread count.

use std::ops::Range;

use crate::dim::Dim3;
use crate::kernel::{Kernel, LaunchConfig, LaunchCtx};
use crate::memory::AccessSet;
use crate::meter::KernelCounters;

/// No longer read; kept because the repo benchmark refuses to run with it
/// set. Consumers switch fusion on through their own configuration.
pub const FUSION_ENV_VAR: &str = "FD_SIM_FUSION";

/// A kernel's producer/consumer shape, declared via
/// [`Kernel::fusion_traits`]. Domains are logical `(width, height)`
/// element extents; a transpose reads `(w, h)` and writes `(h, w)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionTraits {
    /// Element domain consumed from the producer input.
    pub read_domain: (usize, usize),
    /// Element domain produced.
    pub write_domain: (usize, usize),
    /// Whether each output element depends only on a bounded neighborhood
    /// of the input (element-wise or tile-local). Required of every
    /// *producer* stage: a consumer tile must be computable from a
    /// bounded set of producer tiles for real fused execution.
    pub tile_local: bool,
}

/// Why a chain refused to fuse. Carried by
/// [`LaunchError::FusionRejected`](crate::LaunchError::FusionRejected).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FusionError {
    /// Fewer than two stages.
    TooFewStages { stages: usize },
    /// A stage did not declare its access set.
    OpaqueStage { stage: usize, kernel: &'static str },
    /// A stage did not opt into fusion via [`Kernel::fusion_traits`].
    Unfusable { stage: usize, kernel: &'static str },
    /// Stage block shapes disagree on threads per block.
    ThreadCountMismatch { stage: usize, expected: u32, found: u32 },
    /// A consumer reads none of its predecessor's outputs.
    MissingProducerLink { stage: usize },
    /// Producer write domain and consumer read domain disagree.
    GeometryMismatch { stage: usize, produced: (usize, usize), consumed: (usize, usize) },
    /// A producer stage is not element-wise/tile-local.
    NotTileLocal { stage: usize, kernel: &'static str },
    /// Two stages write the same buffer.
    WriteAfterWrite { buf: usize, first: usize, second: usize },
    /// A later stage writes a buffer an earlier stage reads.
    WriteAfterRead { buf: usize, reader: usize, writer: usize },
    /// The concatenated grid exceeds the 1-D grid limit.
    GridTooLarge { blocks: u64 },
}

impl std::fmt::Display for FusionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooFewStages { stages } => {
                write!(f, "fusion needs at least 2 stages, got {stages}")
            }
            Self::OpaqueStage { stage, kernel } => {
                write!(f, "stage {stage} ({kernel}) has an opaque access set")
            }
            Self::Unfusable { stage, kernel } => {
                write!(f, "stage {stage} ({kernel}) does not declare fusion traits")
            }
            Self::ThreadCountMismatch { stage, expected, found } => write!(
                f,
                "stage {stage} uses {found} threads/block, chain uses {expected}"
            ),
            Self::MissingProducerLink { stage } => write!(
                f,
                "stage {stage} reads no buffer written by stage {}",
                stage - 1
            ),
            Self::GeometryMismatch { stage, produced, consumed } => write!(
                f,
                "stage {stage} consumes {}x{} but its producer writes {}x{}",
                consumed.0, consumed.1, produced.0, produced.1
            ),
            Self::NotTileLocal { stage, kernel } => {
                write!(f, "producer stage {stage} ({kernel}) is not tile-local")
            }
            Self::WriteAfterWrite { buf, first, second } => write!(
                f,
                "stages {first} and {second} both write buffer {buf} (WAW inside a fused chain)"
            ),
            Self::WriteAfterRead { buf, reader, writer } => write!(
                f,
                "stage {writer} writes buffer {buf} that stage {reader} reads (WAR inside a fused chain)"
            ),
            Self::GridTooLarge { blocks } => {
                write!(f, "fused grid of {blocks} blocks exceeds the 1-D grid limit")
            }
        }
    }
}

impl std::error::Error for FusionError {}

struct FusedStage {
    kernel: Box<dyn Kernel>,
    cfg: LaunchConfig,
}

/// Builder for a fused launch: collect the stage kernels with their
/// standalone launch configs, then [`validate`](Self::validate) into a
/// [`FusedKernel`] (or launch directly via
/// [`Gpu::launch_fused`](crate::Gpu::launch_fused)).
pub struct FusedChain {
    name: &'static str,
    stages: Vec<FusedStage>,
}

impl FusedChain {
    /// Start a chain. `name` labels the fused launch in profiler traces.
    pub fn new(name: &'static str) -> Self {
        Self { name, stages: Vec::new() }
    }

    /// Append a stage with the launch config it would have used standalone.
    pub fn then<K: Kernel + 'static>(mut self, kernel: K, cfg: LaunchConfig) -> Self {
        self.stages.push(FusedStage { kernel: Box::new(kernel), cfg });
        self
    }

    /// Number of stages collected so far.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the chain is still empty.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Check fusion legality and build the single-launch [`FusedKernel`].
    pub fn validate(self) -> Result<FusedKernel, FusionError> {
        let n = self.stages.len();
        if n < 2 {
            return Err(FusionError::TooFewStages { stages: n });
        }

        // Per-stage access sets and traits.
        let mut accesses = Vec::with_capacity(n);
        let mut traits_v = Vec::with_capacity(n);
        for (i, s) in self.stages.iter().enumerate() {
            let mut set = AccessSet::new();
            s.kernel.access(&mut set);
            if set.is_opaque() {
                return Err(FusionError::OpaqueStage { stage: i, kernel: s.kernel.name() });
            }
            let t = s
                .kernel
                .fusion_traits()
                .ok_or(FusionError::Unfusable { stage: i, kernel: s.kernel.name() })?;
            accesses.push(set);
            traits_v.push(t);
        }

        // Uniform thread count: the fused launch has one block shape.
        let expected = self.stages[0].cfg.threads_per_block();
        for (i, s) in self.stages.iter().enumerate().skip(1) {
            let found = s.cfg.threads_per_block();
            if found != expected {
                return Err(FusionError::ThreadCountMismatch { stage: i, expected, found });
            }
        }

        // Producer→consumer links: adjacent stages must share a buffer
        // (written by i, read by i+1) on matching geometry, and every
        // producer must be tile-local.
        for i in 1..n {
            let linked =
                accesses[i - 1].write_ids().iter().any(|w| accesses[i].read_ids().contains(w));
            if !linked {
                return Err(FusionError::MissingProducerLink { stage: i });
            }
            let produced = traits_v[i - 1].write_domain;
            let consumed = traits_v[i].read_domain;
            if produced != consumed {
                return Err(FusionError::GeometryMismatch { stage: i, produced, consumed });
            }
            if !traits_v[i - 1].tile_local {
                return Err(FusionError::NotTileLocal {
                    stage: i - 1,
                    kernel: self.stages[i - 1].kernel.name(),
                });
            }
        }

        // Conflicting accesses a genuinely interleaved fusion could not
        // order: WAW between any two stages, and a later stage writing a
        // buffer an earlier stage reads.
        for i in 0..n {
            for j in (i + 1)..n {
                for &b in accesses[j].write_ids() {
                    if accesses[i].write_ids().contains(&b) {
                        return Err(FusionError::WriteAfterWrite { buf: b, first: i, second: j });
                    }
                    if accesses[i].read_ids().contains(&b) {
                        return Err(FusionError::WriteAfterRead { buf: b, reader: i, writer: j });
                    }
                }
            }
        }

        // Fusion-local intermediates: written by one stage, consumed by a
        // later one. Their inter-stage traffic is credited to on-chip
        // rates; they are still written through to the arena (the chain's
        // union access set declares them) so host reads and later
        // launches observe the same bytes as the unfused pipeline.
        let mut fusion_local: Vec<usize> = Vec::new();
        for i in 0..n {
            for &b in accesses[i].write_ids() {
                let consumed_later = (i + 1..n).any(|j| accesses[j].read_ids().contains(&b));
                if consumed_later && !fusion_local.contains(&b) {
                    fusion_local.push(b);
                }
            }
        }
        fusion_local.sort_unstable();

        // Concatenated 1-D grid; stage starts become phase boundaries.
        let mut block_bases = Vec::with_capacity(n);
        let mut total: u64 = 0;
        for s in &self.stages {
            block_bases.push(total);
            total += s.cfg.total_blocks();
        }
        if total > u32::MAX as u64 {
            return Err(FusionError::GridTooLarge { blocks: total });
        }
        let shared = self.stages.iter().map(|s| s.cfg.shared_mem_bytes).max().unwrap_or(0);
        let cfg =
            LaunchConfig::new(Dim3::d1(total as u32), Dim3::d1(expected)).with_shared_mem(shared);

        Ok(FusedKernel { name: self.name, stages: self.stages, block_bases, fusion_local, cfg })
    }
}

/// A validated producer–consumer chain executing as one launch. Build via
/// [`FusedChain::validate`]; launch like any other kernel with the config
/// from [`Self::config`], or in one step with
/// [`Gpu::launch_fused`](crate::Gpu::launch_fused).
pub struct FusedKernel {
    name: &'static str,
    stages: Vec<FusedStage>,
    /// Linear block id at which each stage starts.
    block_bases: Vec<u64>,
    /// Sorted arena ids of intermediates kept on-chip by this fusion.
    fusion_local: Vec<usize>,
    cfg: LaunchConfig,
}

impl std::fmt::Debug for FusedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusedKernel")
            .field("name", &self.name)
            .field("stages", &self.stages.iter().map(|s| s.kernel.name()).collect::<Vec<_>>())
            .field("block_bases", &self.block_bases)
            .field("fusion_local", &self.fusion_local)
            .finish_non_exhaustive()
    }
}

impl FusedKernel {
    /// The single-launch configuration for the whole chain.
    pub fn config(&self) -> LaunchConfig {
        self.cfg
    }

    /// Arena ids of the intermediates this fusion keeps on-chip.
    pub fn fusion_local(&self) -> &[usize] {
        &self.fusion_local
    }

    /// The last stage starting at or before `lin` (a stage without blocks
    /// shares its start with its successor and owns nothing).
    fn stage_of(&self, lin: u64) -> usize {
        self.block_bases.partition_point(|&base| base <= lin) - 1
    }
}

impl Kernel for FusedKernel {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run_blocks(
        &self,
        ctx: &LaunchCtx<'_>,
        blocks: Range<u64>,
        sink: &mut dyn FnMut(&KernelCounters),
    ) {
        let mut lin = blocks.start;
        while lin < blocks.end {
            let stage = self.stage_of(lin);
            let s = &self.stages[stage];
            let base = self.block_bases[stage];
            let end = blocks.end.min(base + s.cfg.total_blocks());
            let stage_ctx = ctx.retiled(s.cfg.grid, s.cfg.block).fusing(&self.fusion_local);
            s.kernel.run_blocks(&stage_ctx, lin - base..end - base, sink);
            lin = end;
        }
    }

    /// The union of the stages' access sets. Intermediates stay declared:
    /// they are still materialized in the arena, so frame-to-frame buffer
    /// reuse keeps its hazard ordering.
    fn access(&self, set: &mut AccessSet) {
        for s in &self.stages {
            let mut part = AccessSet::new();
            s.kernel.access(&mut part);
            set.union(&part);
        }
    }

    fn phase_boundaries(&self) -> Vec<u64> {
        self.block_bases[1..].to_vec()
    }

    /// A fused block must hold every stage's live state, so the chain's
    /// register footprint is the *maximum* over its stages — the honest
    /// resource cost of fusion the occupancy model charges (fused
    /// kernels can bound residency where their constituents would not).
    fn registers_per_thread(&self) -> u32 {
        self.stages.iter().map(|s| s.kernel.registers_per_thread()).max().unwrap_or(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{DevBuf, DeviceMemory};

    /// Element-wise map: `dst[i] = src[i] * k + 1`, 1 block per 64 elems.
    struct MapKernel {
        src: DevBuf<u32>,
        dst: DevBuf<u32>,
        n: usize,
        k: u32,
        tile_local: bool,
        name: &'static str,
    }

    impl Kernel for MapKernel {
        fn name(&self) -> &'static str {
            self.name
        }
        fn run_blocks(
            &self,
            ctx: &LaunchCtx<'_>,
            blocks: Range<u64>,
            sink: &mut dyn FnMut(&KernelCounters),
        ) {
            ctx.each_block(blocks, sink, |ctx| {
                let tpb = ctx.block_dim.count() as usize;
                let base = ctx.block_idx.x as usize * tpb;
                let end = (base + tpb).min(self.n);
                if base >= end {
                    return;
                }
                {
                    let src = ctx.mem.read(self.src);
                    let mut dst = ctx.mem.write(self.dst);
                    for i in base..end {
                        dst[i] = src[i] * self.k + 1;
                    }
                }
                let bytes = ((end - base) * 4) as u64;
                ctx.global_load_buf(self.src, bytes);
                ctx.global_store_buf(self.dst, bytes);
                ctx.meter.alu(ctx.warps_in_block());
            });
        }
        fn access(&self, set: &mut AccessSet) {
            set.reads(self.src).writes(self.dst);
        }
        fn fusion_traits(&self) -> Option<FusionTraits> {
            Some(FusionTraits {
                read_domain: (self.n, 1),
                write_domain: (self.n, 1),
                tile_local: self.tile_local,
            })
        }
    }

    fn map(src: DevBuf<u32>, dst: DevBuf<u32>, n: usize, k: u32) -> MapKernel {
        MapKernel { src, dst, n, k, tile_local: true, name: "map" }
    }

    fn arena(n: usize) -> (DeviceMemory, DevBuf<u32>, DevBuf<u32>, DevBuf<u32>) {
        let mut mem = DeviceMemory::new();
        let input: Vec<u32> = (0..n as u32).collect();
        let a = mem.upload(&input);
        let b = mem.alloc::<u32>(n);
        let c = mem.alloc::<u32>(n);
        (mem, a, b, c)
    }

    #[test]
    fn legal_chain_validates_and_finds_the_intermediate() {
        let (_mem, a, b, c) = arena(256);
        let fused = FusedChain::new("fused_map2")
            .then(map(a, b, 256, 2), LaunchConfig::linear(256, 64))
            .then(map(b, c, 256, 3), LaunchConfig::linear(256, 64))
            .validate()
            .expect("legal chain must fuse");
        assert_eq!(fused.fusion_local(), &[b.raw_id()]);
        assert_eq!(fused.config().total_blocks(), 8);
        assert_eq!(fused.phase_boundaries(), vec![4]);
        // The union access set still declares the intermediate.
        let mut set = AccessSet::new();
        fused.access(&mut set);
        assert!(!set.is_opaque());
    }

    #[test]
    fn single_stage_chains_are_rejected() {
        let (_mem, a, b, _c) = arena(64);
        let err = FusedChain::new("solo")
            .then(map(a, b, 64, 2), LaunchConfig::linear(64, 64))
            .validate()
            .unwrap_err();
        assert_eq!(err, FusionError::TooFewStages { stages: 1 });
    }

    #[test]
    fn opaque_stages_are_rejected() {
        struct Opaque;
        impl Kernel for Opaque {
            fn name(&self) -> &'static str {
                "opaque"
            }
            fn run_blocks(
                &self,
                ctx: &LaunchCtx<'_>,
                blocks: Range<u64>,
                sink: &mut dyn FnMut(&KernelCounters),
            ) {
                ctx.each_block(blocks, sink, |_| {});
            }
        }
        let (_mem, a, b, _c) = arena(64);
        let err = FusedChain::new("f")
            .then(map(a, b, 64, 2), LaunchConfig::linear(64, 64))
            .then(Opaque, LaunchConfig::linear(64, 64))
            .validate()
            .unwrap_err();
        assert_eq!(err, FusionError::OpaqueStage { stage: 1, kernel: "opaque" });
    }

    #[test]
    fn kernels_without_fusion_traits_are_rejected() {
        struct NoTraits {
            src: DevBuf<u32>,
            dst: DevBuf<u32>,
        }
        impl Kernel for NoTraits {
            fn name(&self) -> &'static str {
                "no_traits"
            }
            fn run_blocks(
                &self,
                ctx: &LaunchCtx<'_>,
                blocks: Range<u64>,
                sink: &mut dyn FnMut(&KernelCounters),
            ) {
                ctx.each_block(blocks, sink, |_| {});
            }
            fn access(&self, set: &mut AccessSet) {
                set.reads(self.src).writes(self.dst);
            }
        }
        let (_mem, a, b, c) = arena(64);
        let err = FusedChain::new("f")
            .then(map(a, b, 64, 2), LaunchConfig::linear(64, 64))
            .then(NoTraits { src: b, dst: c }, LaunchConfig::linear(64, 64))
            .validate()
            .unwrap_err();
        assert_eq!(err, FusionError::Unfusable { stage: 1, kernel: "no_traits" });
    }

    #[test]
    fn thread_count_mismatch_is_rejected() {
        let (_mem, a, b, c) = arena(256);
        let err = FusedChain::new("f")
            .then(map(a, b, 256, 2), LaunchConfig::linear(256, 64))
            .then(map(b, c, 256, 3), LaunchConfig::linear(256, 128))
            .validate()
            .unwrap_err();
        assert_eq!(err, FusionError::ThreadCountMismatch { stage: 1, expected: 64, found: 128 });
    }

    #[test]
    fn unlinked_stages_are_rejected() {
        let (mut mem, a, b, _c) = arena(64);
        let d = mem.alloc::<u32>(64);
        let e = mem.alloc::<u32>(64);
        // Second stage reads d, which the first stage never writes.
        let err = FusedChain::new("f")
            .then(map(a, b, 64, 2), LaunchConfig::linear(64, 64))
            .then(map(d, e, 64, 3), LaunchConfig::linear(64, 64))
            .validate()
            .unwrap_err();
        assert_eq!(err, FusionError::MissingProducerLink { stage: 1 });
    }

    #[test]
    fn geometry_mismatch_is_rejected() {
        let (_mem, a, b, c) = arena(256);
        let mut consumer = map(b, c, 256, 3);
        // Claims to consume a 128-wide domain from a 256-wide producer.
        consumer.n = 256;
        struct Narrow(MapKernel);
        impl Kernel for Narrow {
            fn name(&self) -> &'static str {
                self.0.name()
            }
            fn run_blocks(
                &self,
                ctx: &LaunchCtx<'_>,
                blocks: Range<u64>,
                sink: &mut dyn FnMut(&KernelCounters),
            ) {
                self.0.run_blocks(ctx, blocks, sink)
            }
            fn access(&self, set: &mut AccessSet) {
                self.0.access(set)
            }
            fn fusion_traits(&self) -> Option<FusionTraits> {
                Some(FusionTraits {
                    read_domain: (128, 1),
                    write_domain: (256, 1),
                    tile_local: true,
                })
            }
        }
        let err = FusedChain::new("f")
            .then(map(a, b, 256, 2), LaunchConfig::linear(256, 64))
            .then(Narrow(consumer), LaunchConfig::linear(256, 64))
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            FusionError::GeometryMismatch { stage: 1, produced: (256, 1), consumed: (128, 1) }
        );
    }

    #[test]
    fn non_tile_local_producers_are_rejected() {
        let (_mem, a, b, c) = arena(256);
        let mut producer = map(a, b, 256, 2);
        producer.tile_local = false;
        producer.name = "gather";
        let err = FusedChain::new("f")
            .then(producer, LaunchConfig::linear(256, 64))
            .then(map(b, c, 256, 3), LaunchConfig::linear(256, 64))
            .validate()
            .unwrap_err();
        assert_eq!(err, FusionError::NotTileLocal { stage: 0, kernel: "gather" });
    }

    #[test]
    fn conflicting_writes_are_rejected() {
        let (_mem, a, b, _c) = arena(256);
        // Both stages write b: WAW inside the chain.
        let err = FusedChain::new("f")
            .then(map(a, b, 256, 2), LaunchConfig::linear(256, 64))
            .then(
                MapKernel { src: b, dst: b, n: 256, k: 3, tile_local: true, name: "rmw" },
                LaunchConfig::linear(256, 64),
            )
            .validate()
            .unwrap_err();
        assert_eq!(err, FusionError::WriteAfterWrite { buf: b.raw_id(), first: 0, second: 1 });
    }

    #[test]
    fn later_writes_to_earlier_reads_are_rejected() {
        let (_mem, a, b, c) = arena(256);
        // Stage 1 consumes b and (illegally) also overwrites a, which
        // stage 0 reads.
        struct Clobber {
            src: DevBuf<u32>,
            dst: DevBuf<u32>,
            clobbered: DevBuf<u32>,
            n: usize,
        }
        impl Kernel for Clobber {
            fn name(&self) -> &'static str {
                "clobber"
            }
            fn run_blocks(
                &self,
                ctx: &LaunchCtx<'_>,
                blocks: Range<u64>,
                sink: &mut dyn FnMut(&KernelCounters),
            ) {
                ctx.each_block(blocks, sink, |_| {});
            }
            fn access(&self, set: &mut AccessSet) {
                set.reads(self.src).writes(self.dst).writes(self.clobbered);
            }
            fn fusion_traits(&self) -> Option<FusionTraits> {
                Some(FusionTraits {
                    read_domain: (self.n, 1),
                    write_domain: (self.n, 1),
                    tile_local: true,
                })
            }
        }
        let err = FusedChain::new("f")
            .then(map(a, b, 256, 2), LaunchConfig::linear(256, 64))
            .then(Clobber { src: b, dst: c, clobbered: a, n: 256 }, LaunchConfig::linear(256, 64))
            .validate()
            .unwrap_err();
        assert_eq!(err, FusionError::WriteAfterRead { buf: a.raw_id(), reader: 0, writer: 1 });
    }
}
