//! Identity sweep for [`Gpu::synchronize`]: the timing simulation that
//! pulls the drain (two or more host threads) against the one that follows
//! it (one host thread), over generated launch graphs — streams, shared
//! buffers, a fused chain, a batched launch, stalled launches, a flush in
//! the middle, on the device and on it profiler-serialized. Timeline,
//! profiler and buffers must be equal bit for bit; the `sweep_catches_*`
//! tests prove the sweep would notice a block cost read at the wrong place.

use std::ops::Range;

use super::*;
use crate::fuse::{FusedChain, FusionTraits};
use crate::kernel::LaunchCtx;
use crate::probe::{timeline_bits, Rng};

/// Elements per buffer: the largest grid (3 000 blocks of 64 threads).
const LEN: usize = 3_000 * 64;

/// `dst[i] = src[i] * mul + add` over the block's elements, metered so
/// that a block's cost depends on which block it is and on `mul`: a cost
/// read at another block's, chunk's or phase's place changes the timeline.
#[derive(Clone, Copy)]
struct Mix {
    src: DevBuf<u32>,
    dst: DevBuf<u32>,
    n: usize,
    mul: u32,
    add: u32,
}

impl Kernel for Mix {
    fn name(&self) -> &'static str {
        "mix"
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
            {
                let src = ctx.mem.read(self.src);
                let mut dst = ctx.mem.write(self.dst);
                for i in base..end {
                    dst[i] = src[i].wrapping_mul(self.mul).wrapping_add(self.add);
                }
            }
            let bytes = ((end - base) * 4) as u64;
            let ops = 1 + ctx.block_idx.x as u64 % 11 + self.mul as u64 % 5;
            ctx.meter.alu(ops * ctx.warps_in_block());
            ctx.meter.branches(ctx.block_idx.x as u64 % 7 + 1, ctx.block_idx.x as u64 % 2);
            ctx.global_load_buf(self.src, bytes);
            ctx.global_store_buf(self.dst, bytes);
        });
    }
    fn access(&self, set: &mut AccessSet) {
        set.reads(self.src).writes(self.dst);
    }
    fn fusion_traits(&self) -> Option<FusionTraits> {
        Some(FusionTraits { read_domain: (self.n, 1), write_domain: (self.n, 1), tile_local: true })
    }
}

/// What one run of a case left behind: timeline bits, the profiler's
/// (wall-clock-free) `Debug`, every buffer — and whether a pool worker ran
/// any of it.
type Observed = (Vec<u64>, String, Vec<Vec<u32>>, bool);

/// Builds case `case`'s launch graph on a device with `threads` host
/// threads and synchronizes it. Everything random is drawn from the case
/// number alone, so every thread count sees the same graph.
fn run_case(case: u64, spec: &DeviceSpec, threads: usize) -> Observed {
    let mut rng = Rng(case ^ 0x5eed_2400);
    let mut gpu = Gpu::new(spec.clone(), ExecMode::Concurrent).with_host_threads(threads);
    gpu.set_fault_plan(Some(FaultPlan::seeded(case).with_stream_stalls(0.25, 40.0)));
    let bufs: Vec<DevBuf<u32>> = (0..8u32)
        .map(|b| (0..LEN as u32).map(|i| i.wrapping_mul(b + 3)).collect::<Vec<_>>())
        .map(|data| gpu.mem.upload(&data))
        .collect();
    let streams: Vec<StreamId> = (0..1 + rng.below(12)).map(|_| gpu.create_stream()).collect();
    let launches = 1 + rng.below(60);
    let flush_after = (rng.below(3) == 0).then(|| rng.below(launches));
    let (fused_at, batched_at) = (rng.below(launches), rng.below(launches));
    for i in 0..launches {
        let stream = streams[rng.below(streams.len())];
        let tpb = [32u32, 64, 128, 256][rng.below(4)];
        let blocks = match rng.below(10) {
            0..=5 => 1 + rng.below(60),
            6..=8 => 60 + rng.below(400),
            _ => 1_000 + rng.below(2_001),
        }
        .min(LEN / tpb as usize);
        // A ragged last block.
        let n = blocks * tpb as usize - rng.below(tpb as usize);
        let cfg = LaunchConfig::linear(n, tpb);
        // Three distinct buffers: source, (intermediate,) destination.
        let mut pick = [0usize; 3];
        pick[0] = rng.below(8);
        pick[1] = (pick[0] + 1 + rng.below(7)) % 8;
        pick[2] = (0..8).filter(|b| !pick[..2].contains(b)).nth(rng.below(6)).expect("6 left");
        let [a, b, c] = pick.map(|b| bufs[b]);
        let mix = |src, dst, mul| Mix { src, dst, n, mul, add: i as u32 };
        if i == fused_at {
            let mut chain =
                FusedChain::new("mix+mix").then(mix(a, b, 3), cfg).then(mix(b, c, 4), cfg);
            if rng.below(2) == 0 {
                let d = bufs[(0..8).find(|d| !pick.contains(d)).expect("5 left")];
                chain = chain.then(mix(c, d, 6), cfg);
            }
            gpu.launch_fused(chain, stream).unwrap();
        } else if i == batched_at {
            gpu.launch_batched(vec![mix(a, b, 5), mix(a, c, 7)], cfg, stream).unwrap();
        } else {
            gpu.launch(mix(a, c, 2 + rng.below(9) as u32), cfg, stream).unwrap();
        }
        if flush_after == Some(i) {
            gpu.flush();
        }
    }
    let timeline = gpu.synchronize();

    // Every launch's blocks ran once, on whichever workers.
    let mut ran = std::collections::BTreeMap::new();
    for span in gpu.profiler().host_spans() {
        *ran.entry(span.launch_idx as usize).or_insert(0) += span.blocks;
    }
    for event in &timeline.events {
        assert_eq!(ran.get(&event.launch_idx), Some(&event.blocks), "launch {}", event.launch_idx);
    }
    let buffers = bufs.iter().map(|&b| gpu.mem.download(b)).collect();
    let pooled = gpu.profiler().host_spans().iter().any(|s| s.worker > 0);
    (timeline_bits(&timeline), format!("{:?}", gpu.profiler()), buffers, pooled)
}

fn sweep(cases: u64) {
    let mut pulled = 0;
    for case in 0..cases {
        for spec in [DeviceSpec::gtx470(), DeviceSpec::gtx470().profiler_serialized()] {
            let reference = run_case(case, &spec, 1);
            assert!(!reference.3, "one host thread is the calling thread");
            for threads in [2, 3, 4, 8] {
                let (timeline, profiler, buffers, pooled) = run_case(case, &spec, threads);
                let cap = spec.max_concurrent_kernels;
                let what = format!("case {case} kernel cap {cap}, {threads} host threads");
                assert_eq!(timeline, reference.0, "{what}: timeline");
                assert_eq!(profiler, reference.1, "{what}: profiler");
                assert!(buffers == reference.2, "{what}: buffers");
                pulled += pooled as u64;
            }
        }
    }
    assert!(pulled >= 4 * cases, "the pool ran only {pulled} of {} graphs", 8 * cases);
}

#[test]
fn pulled_simulation_is_the_serial_one_at_any_thread_count() {
    sweep(40);
}

/// The sweep must notice (as a different timeline, not a crash) a stalled
/// launch whose first block lost its penalty …
#[test]
#[should_panic(expected = "timeline")]
fn sweep_catches_a_dropped_stall_penalty() {
    with_mutation(Mutation::StallDropped, || sweep(12));
}

/// … a fused launch's second phase read from the first phase's slots …
#[test]
#[should_panic(expected = "timeline")]
fn sweep_catches_a_phase_read_at_the_first_phases_slots() {
    with_mutation(Mutation::FirstPhaseSlots, || sweep(12));
}

/// … and a block looked up with another node's chunk size (another
/// block's cost, or a read past the chunk).
#[test]
#[should_panic]
fn sweep_catches_another_nodes_chunk_size() {
    with_mutation(Mutation::OtherChunkSize, || sweep(12));
}
