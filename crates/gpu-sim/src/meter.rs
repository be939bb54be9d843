//! Work metering: how kernels report the SIMT work they perform.
//!
//! Every block executes against its own [`Meter`]; the accumulated
//! [`KernelCounters`] drive both the timing model and the profiler
//! statistics the paper reports (branch efficiency, DRAM throughput).
//!
//! Counters use interior mutability (`Cell`) so that metering calls take
//! `&self`; this lets kernels hold shared borrows of device memory while
//! metering.

use std::cell::Cell;

/// Aggregated work counters for a block, a launch or a kernel name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounters {
    /// Warp-wide ALU/control instructions issued.
    pub alu_ops: u64,
    /// Warp shared-memory transactions.
    pub shared_transactions: u64,
    /// Warp constant-cache broadcasts (one per warp read of one address).
    pub const_broadcasts: u64,
    /// Warp texture fetches.
    pub tex_fetches: u64,
    /// Bytes read from global memory.
    pub global_bytes_read: u64,
    /// Bytes written to global memory.
    pub global_bytes_written: u64,
    /// Bytes read from fusion-local intermediates: traffic a standalone
    /// launch would have paid as global reads, but which a fused chain
    /// keeps on-chip (see [`crate::fuse`]). Costed at shared-memory rate.
    pub fused_bytes_read: u64,
    /// Bytes written to fusion-local intermediates (see
    /// [`Self::fused_bytes_read`]).
    pub fused_bytes_written: u64,
    /// Block-wide barriers executed (per warp).
    pub barriers: u64,
    /// Conditional branches executed by warps.
    pub branches: u64,
    /// Branches on which the warp's active lanes disagreed (serialized
    /// paths). `divergent_branches <= branches`.
    pub divergent_branches: u64,
}

impl KernelCounters {
    /// Ratio of non-divergent branches to total branches, as reported by the
    /// CUDA profiler's `branch_efficiency` counter. Returns 1.0 when no
    /// branches were executed.
    pub fn branch_efficiency(&self) -> f64 {
        if self.branches == 0 {
            1.0
        } else {
            debug_assert!(self.divergent_branches <= self.branches);
            1.0 - self.divergent_branches as f64 / self.branches as f64
        }
    }

    /// Element-wise accumulation.
    pub fn add(&mut self, other: &KernelCounters) {
        self.alu_ops += other.alu_ops;
        self.shared_transactions += other.shared_transactions;
        self.const_broadcasts += other.const_broadcasts;
        self.tex_fetches += other.tex_fetches;
        self.global_bytes_read += other.global_bytes_read;
        self.global_bytes_written += other.global_bytes_written;
        self.fused_bytes_read += other.fused_bytes_read;
        self.fused_bytes_written += other.fused_bytes_written;
        self.barriers += other.barriers;
        self.branches += other.branches;
        self.divergent_branches += other.divergent_branches;
    }

    /// Total global traffic in bytes. Fusion-local bytes are excluded:
    /// they never reach DRAM.
    pub fn global_bytes(&self) -> u64 {
        self.global_bytes_read + self.global_bytes_written
    }

    /// Total fusion-local traffic in bytes (DRAM round-trips avoided by
    /// kernel fusion).
    pub fn fused_bytes(&self) -> u64 {
        self.fused_bytes_read + self.fused_bytes_written
    }
}

/// Per-block work meter handed to kernels through [`crate::BlockCtx`].
#[derive(Debug, Default)]
pub struct Meter {
    alu_ops: Cell<u64>,
    shared_transactions: Cell<u64>,
    const_broadcasts: Cell<u64>,
    tex_fetches: Cell<u64>,
    global_bytes_read: Cell<u64>,
    global_bytes_written: Cell<u64>,
    fused_bytes_read: Cell<u64>,
    fused_bytes_written: Cell<u64>,
    barriers: Cell<u64>,
    branches: Cell<u64>,
    divergent_branches: Cell<u64>,
}

impl Meter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` warp-wide ALU/control instructions.
    #[inline]
    pub fn alu(&self, n: u64) {
        self.alu_ops.set(self.alu_ops.get() + n);
    }

    /// Record `n` warp shared-memory transactions.
    #[inline]
    pub fn shared(&self, n: u64) {
        self.shared_transactions.set(self.shared_transactions.get() + n);
    }

    /// Record `n` constant-memory broadcasts.
    #[inline]
    pub fn constant(&self, n: u64) {
        self.const_broadcasts.set(self.const_broadcasts.get() + n);
    }

    /// Record `n` texture fetches.
    #[inline]
    pub fn tex(&self, n: u64) {
        self.tex_fetches.set(self.tex_fetches.get() + n);
    }

    /// Record a global-memory read of `bytes` bytes.
    #[inline]
    pub fn global_load(&self, bytes: u64) {
        self.global_bytes_read.set(self.global_bytes_read.get() + bytes);
    }

    /// Record a global-memory write of `bytes` bytes.
    #[inline]
    pub fn global_store(&self, bytes: u64) {
        self.global_bytes_written.set(self.global_bytes_written.get() + bytes);
    }

    /// Record a read of `bytes` bytes from a fusion-local intermediate.
    #[inline]
    pub fn fused_load(&self, bytes: u64) {
        self.fused_bytes_read.set(self.fused_bytes_read.get() + bytes);
    }

    /// Record a write of `bytes` bytes to a fusion-local intermediate.
    #[inline]
    pub fn fused_store(&self, bytes: u64) {
        self.fused_bytes_written.set(self.fused_bytes_written.get() + bytes);
    }

    /// Record a block barrier executed by `warps` warps.
    #[inline]
    pub fn barrier(&self, warps: u64) {
        self.barriers.set(self.barriers.get() + warps);
    }

    /// Record a warp conditional branch; `divergent` when the active lanes
    /// split between both paths.
    #[inline]
    pub fn branch(&self, divergent: bool) {
        self.branches.set(self.branches.get() + 1);
        if divergent {
            self.divergent_branches.set(self.divergent_branches.get() + 1);
        }
    }

    /// Record `n` branches of which `divergent` diverged.
    #[inline]
    pub fn branches(&self, n: u64, divergent: u64) {
        debug_assert!(divergent <= n);
        self.branches.set(self.branches.get() + n);
        self.divergent_branches.set(self.divergent_branches.get() + divergent);
    }

    /// Record everything `c` counts, as the calls that produced it would.
    pub fn add(&self, c: &KernelCounters) {
        self.alu(c.alu_ops);
        self.shared(c.shared_transactions);
        self.constant(c.const_broadcasts);
        self.tex(c.tex_fetches);
        self.global_load(c.global_bytes_read);
        self.global_store(c.global_bytes_written);
        self.fused_load(c.fused_bytes_read);
        self.fused_store(c.fused_bytes_written);
        self.barrier(c.barriers);
        self.branches(c.branches, c.divergent_branches);
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> KernelCounters {
        KernelCounters {
            alu_ops: self.alu_ops.get(),
            shared_transactions: self.shared_transactions.get(),
            const_broadcasts: self.const_broadcasts.get(),
            tex_fetches: self.tex_fetches.get(),
            global_bytes_read: self.global_bytes_read.get(),
            global_bytes_written: self.global_bytes_written.get(),
            fused_bytes_read: self.fused_bytes_read.get(),
            fused_bytes_written: self.fused_bytes_written.get(),
            barriers: self.barriers.get(),
            branches: self.branches.get(),
            divergent_branches: self.divergent_branches.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates_all_classes() {
        let m = Meter::new();
        m.alu(3);
        m.shared(2);
        m.constant(1);
        m.tex(4);
        m.global_load(128);
        m.global_store(64);
        m.barrier(18);
        m.branch(true);
        m.branch(false);
        let c = m.snapshot();
        assert_eq!(c.alu_ops, 3);
        assert_eq!(c.shared_transactions, 2);
        assert_eq!(c.const_broadcasts, 1);
        assert_eq!(c.tex_fetches, 4);
        assert_eq!(c.global_bytes(), 192);
        assert_eq!(c.barriers, 18);
        assert_eq!(c.branches, 2);
        assert_eq!(c.divergent_branches, 1);
    }

    #[test]
    fn fused_bytes_stay_out_of_global_traffic() {
        let m = Meter::new();
        m.global_load(100);
        m.fused_load(64);
        m.fused_store(32);
        let c = m.snapshot();
        assert_eq!(c.global_bytes(), 100);
        assert_eq!(c.fused_bytes(), 96);
        let mut sum = KernelCounters::default();
        sum.add(&c);
        sum.add(&c);
        assert_eq!(sum.fused_bytes_read, 128);
        assert_eq!(sum.fused_bytes_written, 64);
    }

    #[test]
    fn branch_efficiency_matches_definition() {
        let mut c = KernelCounters::default();
        assert_eq!(c.branch_efficiency(), 1.0);
        c.branches = 1000;
        c.divergent_branches = 11;
        assert!((c.branch_efficiency() - 0.989).abs() < 1e-12);
    }

    #[test]
    fn counters_add_elementwise() {
        let mut a = KernelCounters {
            alu_ops: 1,
            branches: 2,
            divergent_branches: 1,
            ..KernelCounters::default()
        };
        let b = KernelCounters {
            alu_ops: 10,
            branches: 20,
            divergent_branches: 2,
            ..KernelCounters::default()
        };
        a.add(&b);
        assert_eq!(a.alu_ops, 11);
        assert_eq!(a.branches, 22);
        assert_eq!(a.divergent_branches, 3);
    }
}
