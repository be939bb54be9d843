//! # fd-gpu — a deterministic SIMT GPU simulator
//!
//! This crate stands in for the CUDA device (an NVIDIA GTX470, sm_20) used by
//! Oro et al., *Accelerating Boosting-based Face Detection on GPUs* (ICPP
//! 2012). The paper's central systems claim is about **scheduling**: cascade
//! evaluation kernels for small pyramid scales leave most streaming
//! multiprocessors (SMs) idle when executed serially, and concurrent kernel
//! execution across CUDA streams restores occupancy and roughly doubles
//! end-to-end throughput. Reproducing that claim does not require
//! cycle-accurate microarchitecture — it requires a device model that captures
//!
//! * the grid/block/thread execution hierarchy and its mapping onto a fixed
//!   number of SMs with bounded per-SM residency (blocks, warps, threads,
//!   shared memory);
//! * warp-granular SIMT execution, so that control-flow divergence and branch
//!   efficiency are observable;
//! * the memory spaces with distinct cost behaviour (global DRAM, per-block
//!   shared memory, broadcast constant memory, interpolating texture memory);
//! * CUDA streams with in-order execution per stream, and a device scheduler
//!   that either serializes kernels ([`ExecMode::Serial`]) or backfills idle
//!   SMs with blocks from other streams ([`ExecMode::Concurrent`]);
//! * profiling: per-kernel timestamps (execution traces), instruction/
//!   transaction counters, branch efficiency and DRAM throughput.
//!
//! ## Execution model
//!
//! Simulation is two-phase:
//!
//! 1. **Functional phase** — every thread block of a launch is executed
//!    against the device memory arena. Kernels implement
//!    [`Kernel::run_blocks`] over runs of blocks and *meter* the work
//!    each block performs through its [`Meter`]: warp-wide ALU
//!    instructions, shared/constant/texture/global transactions, barriers
//!    and (divergent) branches.
//!    A launch call only *enqueues*: the kernel joins a dependency graph
//!    (per-stream program order and read/write hazards over the buffers
//!    its [`Kernel::access`] declares) and executes at the
//!    next sync point ([`Gpu::synchronize`], [`Gpu::flush`],
//!    [`Gpu::download`]), where a persistent worker pool overlaps
//!    block-chunks of *independent* launches across host threads — the
//!    host-side analogue of the SM backfilling the timing model
//!    reproduces. Results are bit-exact and independent of the thread
//!    count and the timing mode; one host thread
//!    ([`Gpu::set_host_threads`]`(Some(1))`) runs the launches in issue
//!    order and is the reference schedule.
//! 2. **Timing phase** — each launch yields per-block cycle costs. At
//!    synchronization points a discrete-event scheduler places blocks onto
//!    SMs subject to residency limits and stream ordering, producing kernel
//!    start/end timestamps and the total elapsed device time. On the host
//!    clock the two phases overlap: with two or more host threads the
//!    scheduler runs on the calling thread while the pool drains, asks for
//!    a launch's costs when it first places one of its blocks, and joins
//!    the drain whenever it has to wait for them.
//!
//! The cost model ([`CostModel`]) is documented and deliberately simple; the
//! quantities the reproduction depends on (SM idleness under serial small
//! launches, warp divergence, constant-memory broadcast amortization) are
//! first-order effects of the model, not tuned constants.
//!
//! ## Quick example
//!
//! ```
//! use std::ops::Range;
//! use fd_gpu::{Gpu, DeviceSpec, ExecMode, Kernel, KernelCounters, LaunchConfig, LaunchCtx, DevBuf};
//!
//! struct Saxpy { a: f32, x: DevBuf<f32>, y: DevBuf<f32>, n: usize }
//! impl Kernel for Saxpy {
//!     fn name(&self) -> &'static str { "saxpy" }
//!     fn run_blocks(&self, ctx: &LaunchCtx<'_>, blocks: Range<u64>,
//!                   sink: &mut dyn FnMut(&KernelCounters)) {
//!         // Blocks share no work: run them one at a time.
//!         ctx.each_block(blocks, sink, |ctx| {
//!             let base = ctx.block_idx.x as usize * ctx.block_dim.x as usize;
//!             let end = (base + ctx.block_dim.x as usize).min(self.n);
//!             {
//!                 let x = ctx.mem.read(self.x);
//!                 let mut y = ctx.mem.write(self.y);
//!                 for i in base..end {
//!                     y[i] += self.a * x[i];
//!                 }
//!             }
//!             let warps = ctx.warps_in_block();
//!             ctx.meter.alu(2 * warps); // one fused multiply-add + bound check per warp
//!             ctx.meter.global_load(((end - base) * 8) as u64);
//!             ctx.meter.global_store(((end - base) * 4) as u64);
//!         });
//!     }
//! }
//!
//! let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
//! let x = gpu.mem.upload(&vec![1.0f32; 1000]);
//! let y = gpu.mem.upload(&vec![2.0f32; 1000]);
//! let s = gpu.create_stream();
//! gpu.launch(Saxpy { a: 3.0, x, y, n: 1000 },
//!            LaunchConfig::linear(1000, 256), s).unwrap();
//! let timeline = gpu.synchronize();
//! assert_eq!(gpu.mem.read(y)[0], 5.0);
//! assert!(timeline.span_us() > 0.0);
//! ```

pub mod batch;
pub mod cost;
pub mod device;
pub mod dim;
pub mod fault;
pub mod fuse;
pub mod kernel;
pub mod memory;
pub mod meter;
#[cfg(any(test, feature = "testkit"))]
pub mod probe;
pub mod profiler;
pub mod sched;
pub mod stream;
pub mod vector;

mod gpu;
mod graph;
mod pool;

pub use batch::BatchedKernel;
pub use cost::CostModel;
pub use device::DeviceSpec;
pub use dim::Dim3;
pub use fault::{FaultCursor, FaultPlan, FaultStats};
pub use fuse::{FusedChain, FusedKernel, FusionError, FusionTraits, FUSION_ENV_VAR};
pub use gpu::{Gpu, LaunchError, MAX_FUNCTIONAL_BLOCKS};
#[cfg(any(test, feature = "testkit"))]
pub use kernel::{with_band_mutation, BandMutation};
pub use kernel::{Band, BlockCtx, Kernel, LaunchConfig, LaunchCtx};
pub use memory::{
    AccessSet, BilinearTap, ConstPtr, CopyFault, CopyFaultConfig, DevBuf, DevRead, DevWrite,
    DeviceMemory, MemoryError, Readback, TexId, Texture2D, Workspace, WorkspaceFill,
};
pub use meter::{KernelCounters, Meter};
pub use pool::{AUTOTUNE_ENV_VAR, HOST_EXEC_ENV_VAR, THREADS_ENV_VAR};
pub use profiler::{HostSpan, KernelProfile, Profiler, TraceEvent};
pub use sched::{
    launch_occupancy, BlockCost, ExecMode, LaunchOccupancy, LaunchRecord, OccupancyLimit, Timeline,
};
pub use stream::StreamId;
pub use vector::at_vector_width;
