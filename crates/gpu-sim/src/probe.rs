//! Harness of the kernel crates' differential oracles.
//!
//! A kernel whose body was rewritten for host speed keeps its old per-block
//! body as [`ReferenceBody::reference_run_block`] in a test module. A sweep
//! wraps the kernel in a [`Probe`] and runs it over generated inputs in
//! every way the simulator can call it — the launch as one range, cut at
//! random blocks (inside grid rows too), one block at a time, alone or
//! stacked in a [`crate::BatchedKernel`] — and [`check_case`] demands the
//! reference body's output bytes, its counters for every block and the same
//! timeline (block costs and their sum, through the scheduler). Only tests
//! use this module: it is compiled for this crate's tests and, through the
//! `testkit` feature that only `[dev-dependencies]` turn on, for the sweeps
//! in the kernel crates. A build without tests has no such module.

use std::ops::Range;
use std::sync::{Arc, Mutex};

use crate::{
    BlockCtx, DeviceSpec, ExecMode, Gpu, Kernel, KernelCounters, LaunchConfig, LaunchCtx, StreamId,
    Timeline,
};

/// A kernel that still carries its pre-rewrite body.
pub trait ReferenceBody: Kernel {
    fn reference_run_block(&self, ctx: &mut BlockCtx<'_>);
}

/// How a [`Probe`] runs the blocks the drain hands it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// The reference body, block by block.
    Reference,
    /// `run_blocks` over the range as given.
    Whole,
    /// `run_blocks` over pieces of the range cut at random blocks.
    Chunked(u64),
    /// `run_blocks` over every block alone.
    Blockwise,
}

/// The ways the new body is called for every case; `Chunked` draws its
/// cuts from the case number.
pub fn modes(case: usize) -> [Mode; 3] {
    [Mode::Whole, Mode::Chunked(case as u64), Mode::Blockwise]
}

/// Every block's linear id and counters, as one probe reported them.
pub type Log = Arc<Mutex<Vec<(u64, KernelCounters)>>>;

/// Runs `kernel` in one [`Mode`] and logs every block's counters.
pub struct Probe<K> {
    pub kernel: K,
    pub mode: Mode,
    pub log: Log,
}

impl<K: ReferenceBody> Kernel for Probe<K> {
    fn name(&self) -> &'static str {
        self.kernel.name()
    }

    fn run_blocks(
        &self,
        ctx: &LaunchCtx<'_>,
        blocks: Range<u64>,
        sink: &mut dyn FnMut(&KernelCounters),
    ) {
        // Counters arrive in block order within a range; ranges of one
        // launch may run on several host threads.
        let mut reported = Vec::with_capacity((blocks.end - blocks.start) as usize);
        let mut report = |c: &KernelCounters| {
            reported.push((blocks.start + reported.len() as u64, *c));
            sink(c);
        };
        match self.mode {
            Mode::Whole => self.kernel.run_blocks(ctx, blocks.clone(), &mut report),
            Mode::Chunked(seed) => {
                // Pieces of one block up to a few grid rows.
                let mut rng = Rng(seed ^ blocks.start.wrapping_mul(0x9E37_79B9));
                let mut lin = blocks.start;
                while lin < blocks.end {
                    let longest = (3 * ctx.grid_dim.x as u64).min(blocks.end - lin);
                    let end = lin + 1 + rng.next() % longest;
                    self.kernel.run_blocks(ctx, lin..end, &mut report);
                    lin = end;
                }
            }
            Mode::Blockwise => {
                for lin in blocks.clone() {
                    self.kernel.run_blocks(ctx, lin..lin + 1, &mut report);
                }
            }
            Mode::Reference => {
                ctx.each_block(blocks.clone(), &mut report, |b| self.kernel.reference_run_block(b))
            }
        }
        self.log.lock().expect("no probe panics while logging").extend(reported);
    }

    fn access(&self, set: &mut crate::AccessSet) {
        self.kernel.access(set);
    }

    fn fusion_traits(&self) -> Option<crate::FusionTraits> {
        self.kernel.fusion_traits()
    }
}

/// A device whose drain runs on `host_threads` threads. With one, every
/// launch reaches its kernel as one range on the calling thread (so a
/// thread-local mutation switch reaches the bodies).
pub fn device(host_threads: usize) -> Gpu {
    Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent).with_host_threads(host_threads)
}

/// `kernels` as probes in `mode`; their logs are appended to `logs`.
pub fn probes<K: ReferenceBody>(kernels: Vec<K>, mode: Mode, logs: &mut Vec<Log>) -> Vec<Probe<K>> {
    kernels
        .into_iter()
        .map(|kernel| {
            let log = Log::default();
            logs.push(Arc::clone(&log));
            Probe { kernel, mode, log }
        })
        .collect()
}

/// What the probes behind `logs` reported since the last call: probe
/// after probe, each by linear block id.
pub fn take_counters(logs: &[Log]) -> Vec<KernelCounters> {
    logs.iter()
        .flat_map(|log| {
            let mut blocks =
                std::mem::take(&mut *log.lock().expect("no probe panics while logging"));
            blocks.sort_by_key(|&(lin, _)| lin);
            blocks.into_iter().map(|(_, c)| c)
        })
        .collect()
}

/// What the scheduler made of the launches: per launch its blocks, span
/// and summed counters, then the busy time of every SM — block costs and
/// totals, seen from outside.
pub fn timeline_bits(t: &Timeline) -> Vec<u64> {
    let launches = t.events.iter().flat_map(|e| {
        let c = &e.counters;
        [e.blocks, e.t_start_us.to_bits(), e.t_end_us.to_bits(), c.alu_ops, c.global_bytes()]
            .into_iter()
            .chain([c.fused_bytes(), c.shared_transactions, c.barriers, c.branches])
    });
    launches.chain(t.sm_busy_us.iter().map(|us| us.to_bits())).collect()
}

/// Launch `kernels` (one plainly, several as one batched launch) over
/// `cfg` in `mode`, drain, and return every block's counters — part after
/// part, each by linear block id — followed by the timeline.
pub fn run_probed<K: ReferenceBody + 'static>(
    gpu: &mut Gpu,
    mut kernels: Vec<K>,
    cfg: LaunchConfig,
    mode: Mode,
) -> (Vec<KernelCounters>, Vec<u64>) {
    let mut logs = Vec::new();
    let parts = kernels.len() as u64;
    if parts == 1 {
        let probe = probes(vec![kernels.remove(0)], mode, &mut logs).remove(0);
        gpu.launch_default(probe, cfg).unwrap();
    } else {
        gpu.launch_batched(probes(kernels, mode, &mut logs), cfg, StreamId::DEFAULT).unwrap();
    }
    let timeline = gpu.synchronize();
    let counters = take_counters(&logs);
    assert_eq!(counters.len() as u64, parts * cfg.total_blocks(), "every block reported once");
    (counters, timeline_bits(&timeline))
}

/// What a body did: every block's counters, the timeline and every output
/// element's bits.
pub type Observed = ((Vec<KernelCounters>, Vec<u64>), Vec<u32>);

pub fn assert_same(
    ((c_new, t_new), out_new): Observed,
    ((c_ref, t_ref), out_ref): &Observed,
    case: &str,
) {
    assert_eq!(c_new.len(), c_ref.len(), "{case}: block count");
    for (block, (a, b)) in c_new.iter().zip(c_ref).enumerate() {
        assert_eq!(a, b, "{case}: counters of block {block}");
    }
    assert_eq!(&t_new, t_ref, "{case}: timeline");
    assert_eq!(out_new.len(), out_ref.len(), "{case}: output length");
    for (i, (a, b)) in out_new.iter().zip(out_ref).enumerate() {
        assert_eq!(a, b, "{case}: output element {i}");
    }
}

/// The sweep of one case: `observe(mode, parts)` launches `parts` fresh
/// kernels over the case's input (one plainly, more as a batch) and
/// returns what they did. The new body must equal the reference body in
/// every mode, alone and batched.
pub fn check_case(case: usize, label: &str, mut observe: impl FnMut(Mode, usize) -> Observed) {
    for parts in [1, 2 + case % 2] {
        let reference = observe(Mode::Reference, parts);
        for mode in modes(case) {
            assert_same(observe(mode, parts), &reference, &format!("{label}, {mode:?} x{parts}"));
        }
    }
}

pub fn f32_bits(values: Vec<f32>) -> Vec<u32> {
    values.into_iter().map(f32::to_bits).collect()
}

/// SplitMix64: the sweeps' only source of randomness.
pub struct Rng(pub u64);

impl Rng {
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A finite pixel-like value: negative, above 255 and exact halves
    /// all occur.
    pub fn pixel(&mut self) -> f32 {
        match self.below(4) {
            0 => self.below(300) as f32 - 20.0 + 0.5,
            1 => self.below(256) as f32,
            _ => (self.next() % 3_000_000) as f32 / 10_000.0 - 20.0,
        }
    }
}
