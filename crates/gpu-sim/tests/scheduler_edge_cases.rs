//! Integration tests for scheduler corner cases that unit tests don't
//! reach: the concurrent-kernel cap through the high-level API, and mode
//! switching mid-session.

use std::ops::Range;

use fd_gpu::{DevBuf, DeviceSpec, ExecMode, Gpu, Kernel, KernelCounters, LaunchConfig, LaunchCtx};

/// Adds `value` to every element; meters a fixed issue cost.
struct AddKernel {
    buf: DevBuf<u32>,
    value: u32,
    cycles: u64,
}

impl Kernel for AddKernel {
    fn name(&self) -> &'static str {
        "add"
    }
    fn run_blocks(
        &self,
        ctx: &LaunchCtx<'_>,
        blocks: Range<u64>,
        sink: &mut dyn FnMut(&KernelCounters),
    ) {
        ctx.each_block(blocks, sink, |ctx| {
            if ctx.block_idx.x == 0 {
                for v in ctx.mem.write(self.buf).iter_mut() {
                    *v += self.value;
                }
            }
            ctx.meter.alu(self.cycles);
        });
    }
}

#[test]
fn concurrent_kernel_cap_limits_simultaneous_launches() {
    // 32 single-block kernels in 32 distinct streams on a device capped
    // at 16 concurrent kernels: the span must be at least two kernel
    // durations (two waves), yet far below full serialization.
    let mut spec = DeviceSpec::gtx470();
    spec.launch_overhead_us = 0.0;
    let mut gpu = Gpu::new(spec, ExecMode::Concurrent);
    let buf = gpu.mem.alloc::<u32>(4);
    let kernel_cycles = 1_215_000; // ~1 ms each
    for _ in 0..32 {
        let s = gpu.create_stream();
        gpu.launch(
            AddKernel { buf, value: 0, cycles: kernel_cycles },
            LaunchConfig::linear(256, 256),
            s,
        )
        .unwrap();
    }
    let t = gpu.synchronize();
    let ms = t.span_us() / 1000.0;
    assert!(ms >= 1.9, "16-way cap forces at least two waves, got {ms:.2} ms");
    assert!(ms <= 8.0, "far better than 32 serial milliseconds, got {ms:.2} ms");
}

#[test]
fn mode_switch_between_syncs_changes_timing_only() {
    let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
    let buf = gpu.mem.alloc::<u32>(8);
    let launch_pair = |gpu: &mut Gpu| {
        let a = gpu.create_stream();
        let b = gpu.create_stream();
        gpu.launch(AddKernel { buf, value: 1, cycles: 600_000 }, LaunchConfig::linear(8, 32), a)
            .unwrap();
        gpu.launch(AddKernel { buf, value: 1, cycles: 600_000 }, LaunchConfig::linear(8, 32), b)
            .unwrap();
    };
    launch_pair(&mut gpu);
    let conc = gpu.synchronize();
    gpu.set_mode(ExecMode::Serial);
    launch_pair(&mut gpu);
    let serial = gpu.synchronize();
    assert_eq!(gpu.mem.read(buf)[0], 4, "both rounds executed functionally");
    assert!(serial.span_us() > conc.span_us());
}

#[test]
fn timeline_origin_resets_each_sync_scope() {
    let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Serial);
    let buf = gpu.mem.alloc::<u32>(8);
    gpu.launch_default(AddKernel { buf, value: 1, cycles: 1000 }, LaunchConfig::linear(8, 32))
        .unwrap();
    let t1 = gpu.synchronize();
    gpu.launch_default(AddKernel { buf, value: 1, cycles: 1000 }, LaunchConfig::linear(8, 32))
        .unwrap();
    let t2 = gpu.synchronize();
    // Each scope starts at t = 0 (timestamps are scope-relative).
    assert!(t1.events[0].t_start_us < t1.span_us());
    assert!(t2.events[0].t_start_us < t2.span_us());
    assert!((t1.span_us() - t2.span_us()).abs() < 1e-6, "identical work, identical span");
}

#[test]
fn empty_sync_returns_empty_timeline() {
    let mut gpu = Gpu::new(DeviceSpec::gtx470(), ExecMode::Concurrent);
    let t = gpu.synchronize();
    assert!(t.events.is_empty());
    assert_eq!(t.span_us(), 0.0);
    assert_eq!(t.sm_utilization(), 0.0);
}
