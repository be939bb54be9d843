//! Device capability descriptions.

/// Per-kernel overhead of profiler-serialized runs, µs. The paper's serial
/// column comes from runs under the CUDA profiler's per-kernel tracing (§V:
/// concurrent traces were impossible), which on Fermi drains the device and
/// flushes counters after every launch — with ~130 launches per 1080p
/// frame, a first-order term of that column.
const PROFILER_DRAIN_US: f64 = 20.0;

/// The paper's two conditions of one device, by name: an adapter that goes
/// with ROADMAP item 2's benchmark-typed change (the benchmark names them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// [`DeviceSpec::profiler_serialized`].
    Serial,
    /// The device as specified.
    Concurrent,
}

impl ExecMode {
    /// The device `base` runs as in this mode. `Serial` serializes at most
    /// once: a `base` that already runs its kernels in issue order (say, one
    /// already profiler-serialized) comes back as it is.
    pub fn device(self, base: &DeviceSpec) -> DeviceSpec {
        match self {
            ExecMode::Serial if !base.runs_in_issue_order() => base.profiler_serialized(),
            _ => base.clone(),
        }
    }
}

/// Static capabilities of a simulated GPU.
///
/// The preset used throughout the reproduction is [`DeviceSpec::gtx470`],
/// matching the evaluation platform of the paper (NVIDIA GTX470, Fermi
/// GF100, compute capability 2.0). Residency limits are the published sm_20
/// limits; throughput figures are the card's data-sheet values.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, used in profiler output.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// SIMT width of a warp.
    pub warp_size: u32,
    /// Maximum thread blocks resident on one SM.
    pub max_blocks_per_sm: u32,
    /// Maximum threads resident on one SM.
    pub max_threads_per_sm: u32,
    /// Maximum warps resident on one SM.
    pub max_warps_per_sm: u32,
    /// Maximum threads in a single block.
    pub max_threads_per_block: u32,
    /// Shared memory per SM, bytes.
    pub shared_mem_per_sm: u32,
    /// Shared memory addressable by a single block, bytes.
    pub max_shared_mem_per_block: u32,
    /// Register file size per SM, in 32-bit registers. Together with a
    /// kernel's declared per-thread register usage this bounds block
    /// residency exactly like shared memory does: a block consumes
    /// `registers_per_thread * threads_per_block` registers for its whole
    /// lifetime.
    pub registers_per_sm: u32,
    /// Most registers the compiler may assign to one thread. Declared
    /// usage above this is clamped (the `-maxrregcount` effect: real
    /// toolchains spill to local memory instead of failing the launch).
    pub max_registers_per_thread: u32,
    /// Constant memory size, bytes.
    pub const_mem_bytes: u32,
    /// Shader ("hot") clock in GHz; cycle costs are expressed in this clock.
    pub clock_ghz: f64,
    /// Aggregate DRAM bandwidth, GB/s.
    pub dram_bandwidth_gbps: f64,
    /// Most kernels co-resident on the device; 1 is a device without
    /// concurrent kernel execution, which runs kernels in issue order. Must
    /// be at least 1.
    pub max_concurrent_kernels: u32,
    /// Fixed per-kernel launch overhead (host enqueue + device dispatch),
    /// microseconds. Fermi-era microbenchmarks put this at 5-10 us; it is
    /// paid serially between kernels on a device that runs them in issue
    /// order and overlapped across streams otherwise — with ~130 launches
    /// per 1080p frame (17 pyramid levels x 8 kernels), a first-order term
    /// of the paper's serial baseline.
    pub launch_overhead_us: f64,
}

impl DeviceSpec {
    /// The paper's evaluation GPU: NVIDIA GeForce GTX470 (Fermi GF100,
    /// sm_20). 14 SMs x 32 lanes, 1.215 GHz shader clock, 133.9 GB/s DRAM,
    /// 16-way concurrent kernel execution.
    pub fn gtx470() -> Self {
        Self {
            name: "GeForce GTX470 (simulated)",
            sm_count: 14,
            warp_size: 32,
            max_blocks_per_sm: 8,
            max_threads_per_sm: 1536,
            max_warps_per_sm: 48,
            max_threads_per_block: 1024,
            shared_mem_per_sm: 48 * 1024,
            max_shared_mem_per_block: 48 * 1024,
            registers_per_sm: 32 * 1024,
            max_registers_per_thread: 63,
            const_mem_bytes: 64 * 1024,
            clock_ghz: 1.215,
            dram_bandwidth_gbps: 133.9,
            max_concurrent_kernels: 16,
            launch_overhead_us: 8.0,
        }
    }

    /// A deliberately small single-SM device, useful in tests where block
    /// serialization must be forced.
    pub fn single_sm() -> Self {
        Self { name: "single-SM test device", sm_count: 1, ..Self::gtx470() }
    }

    /// This device as the paper measures its serial column: under the
    /// profiler's per-kernel tracing, one kernel at a time, each launch
    /// paying `PROFILER_DRAIN_US` more. The name stays the card's.
    pub fn profiler_serialized(&self) -> DeviceSpec {
        DeviceSpec {
            max_concurrent_kernels: 1,
            launch_overhead_us: self.launch_overhead_us + PROFILER_DRAIN_US,
            ..self.clone()
        }
    }

    /// Whether a launch waits on the one issued before it, not on the last
    /// in its stream: a one-slot device runs kernels in issue order, as
    /// Fermi multiplexes every stream into one hardware queue.
    pub(crate) fn runs_in_issue_order(&self) -> bool {
        self.max_concurrent_kernels == 1
    }

    /// Converts a cycle count in the shader clock domain to microseconds.
    pub fn cycles_to_us(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e3)
    }

    /// DRAM bytes transferable per shader cycle, device-wide.
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_bandwidth_gbps / self.clock_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx470_matches_published_limits() {
        let d = DeviceSpec::gtx470();
        assert_eq!(d.sm_count, 14);
        assert_eq!(d.warp_size, 32);
        assert_eq!(d.max_warps_per_sm, 48);
        assert_eq!(d.max_threads_per_sm, 1536);
        assert_eq!(d.registers_per_sm, 32768);
        assert_eq!(d.max_registers_per_thread, 63);
        assert_eq!(d.max_concurrent_kernels, 16);
        // The serial column's device: one slot, 8 + 20 us (exact in f64),
        // the card's name, nothing else changed.
        let s = d.profiler_serialized();
        assert!(s.runs_in_issue_order() && s.launch_overhead_us == 28.0);
        assert_eq!(DeviceSpec { max_concurrent_kernels: 16, launch_overhead_us: 8.0, ..s }, d);
    }

    #[test]
    fn cycle_conversion_is_clock_scaled() {
        let d = DeviceSpec::gtx470();
        // 1.215e9 cycles is one second = 1e6 us.
        let us = d.cycles_to_us(1.215e9);
        assert!((us - 1e6).abs() < 1e-6 * 1e6);
    }

    #[test]
    fn dram_bytes_per_cycle_sane() {
        let d = DeviceSpec::gtx470();
        let b = d.dram_bytes_per_cycle();
        assert!(b > 100.0 && b < 120.0, "GTX470 ~110 B/cycle, got {b}");
    }

    #[test]
    fn serial_adapter_serializes_once() {
        let serialized = DeviceSpec::gtx470().profiler_serialized();
        assert_eq!(ExecMode::Serial.device(&DeviceSpec::gtx470()), serialized);
        assert_eq!(ExecMode::Serial.device(&serialized), serialized);
        assert_eq!(ExecMode::Concurrent.device(&serialized), serialized);
    }
}
