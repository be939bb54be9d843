//! Device capability descriptions.

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
    /// Most kernels co-resident in [`crate::ExecMode::Concurrent`]; 1 is a
    /// device without concurrent kernel execution. Must be at least 1.
    pub max_concurrent_kernels: u32,
    /// Fixed per-kernel launch overhead (host enqueue + device dispatch),
    /// microseconds. Fermi-era microbenchmarks put this at 5-10 us; it is
    /// paid serially between kernels in [`crate::ExecMode::Serial`] and
    /// overlapped across streams in [`crate::ExecMode::Concurrent`] —
    /// with ~130 launches per 1080p frame (17 pyramid levels x 8
    /// kernels), a first-order term of the paper's serial baseline.
    pub launch_overhead_us: f64,
    /// Additional per-kernel overhead applied in [`crate::ExecMode::Serial`]
    /// only. The paper's serial baseline is measured the way its §V
    /// describes: with the CUDA command-line profiler's per-kernel tracing
    /// active (concurrent traces were impossible, so serial numbers come
    /// from profiler-serialized executions). Profiler counter collection
    /// on Fermi drains the device and flushes counters after every
    /// launch, adding tens of microseconds per kernel; with ~130 launches
    /// per 1080p frame this is a first-order term of the serial column.
    pub serial_profiling_overhead_us: f64,
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
            serial_profiling_overhead_us: 20.0,
        }
    }

    /// A deliberately small single-SM device, useful in tests where block
    /// serialization must be forced.
    pub fn single_sm() -> Self {
        Self { name: "single-SM test device", sm_count: 1, ..Self::gtx470() }
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
}
