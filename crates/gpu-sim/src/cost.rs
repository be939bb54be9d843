//! The per-block timing cost model.
//!
//! Block execution time is derived from metered work (see [`crate::Meter`])
//! in two buckets:
//!
//! * **issue cycles** — warp-wide instructions that occupy the SM's issue
//!   pipeline: ALU ops, shared-memory transactions, constant broadcasts,
//!   texture fetches and barriers. These scale with the amount of SIMT work
//!   regardless of DRAM.
//! * **memory cycles** — global-memory traffic. Each 128-byte coalesced
//!   transaction pays `global_latency_cycles`, but resident warps overlap
//!   their stalls: the effective stall per transaction is divided by a
//!   *latency-hiding factor* that grows with the number of warps co-resident
//!   on the SM when the block starts (more residents, more overlap). A
//!   bandwidth floor keeps the model honest for streaming kernels: a block
//!   can never move bytes faster than its SM's share of DRAM bandwidth.
//!
//! This reproduces the first-order phenomenon the paper exploits: a kernel
//! with very few blocks leaves most SMs idle *and* runs its lone blocks with
//! poor latency hiding, while concurrent kernels across streams backfill the
//! residency and amortize both.

use crate::meter::KernelCounters;

/// Cost-model constants, in shader-clock cycles unless noted.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Issue cycles per warp-wide ALU instruction.
    pub alu_cycles: f64,
    /// Issue cycles per warp shared-memory transaction (bank-conflict free).
    pub shared_cycles: f64,
    /// Issue cycles per warp constant-cache broadcast.
    pub const_cycles: f64,
    /// Issue cycles per warp texture fetch (texture-cache hit assumed; the
    /// interpolator is fixed-function).
    pub tex_cycles: f64,
    /// Issue cycles per `__syncthreads`-style barrier, per warp.
    pub barrier_cycles: f64,
    /// Round-trip DRAM latency for one coalesced transaction.
    pub global_latency_cycles: f64,
    /// Bytes per coalesced global transaction.
    pub bytes_per_transaction: f64,
    /// Resident warps per unit of latency hiding: `hiding = warps / ref`.
    /// With the Fermi-like default of 2.0, a well-occupied SM (>= 48
    /// warps) hides DRAM latency almost completely and its memory time
    /// collapses onto the bandwidth floor, while a lone block of a tiny
    /// kernel (few warps) pays most of the round-trip latency — the
    /// occupancy cliff the paper's concurrency attacks.
    pub hide_warp_ref: f64,
    /// Upper bound on the latency-hiding factor.
    pub hide_max: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            alu_cycles: 1.0,
            shared_cycles: 2.0,
            const_cycles: 1.0,
            tex_cycles: 4.0,
            barrier_cycles: 8.0,
            global_latency_cycles: 400.0,
            bytes_per_transaction: 128.0,
            hide_warp_ref: 2.0,
            hide_max: 24.0,
        }
    }
}

impl CostModel {
    /// Issue-pipeline cycles for one block's metered work.
    ///
    /// Fusion-local traffic (intermediates a fused chain keeps on-chip,
    /// see [`crate::fuse`]) is charged here at shared-memory rate per
    /// would-have-been transaction instead of entering the DRAM
    /// latency/bandwidth terms: the bytes still cost issue slots to move
    /// through the register file and L1, but never pay `global_latency_cycles`
    /// or occupy DRAM bandwidth. With zero fused bytes the result is
    /// numerically identical to the pre-fusion model.
    pub fn issue_cycles(&self, c: &KernelCounters) -> f64 {
        let fused_transactions = ((c.fused_bytes_read + c.fused_bytes_written) as f64
            / self.bytes_per_transaction)
            .ceil();
        c.alu_ops as f64 * self.alu_cycles
            + c.shared_transactions as f64 * self.shared_cycles
            + c.const_broadcasts as f64 * self.const_cycles
            + c.tex_fetches as f64 * self.tex_cycles
            + c.barriers as f64 * self.barrier_cycles
            + fused_transactions * self.shared_cycles
    }

    /// Un-hidden global-memory stall cycles for one block (latency term,
    /// before dividing by the scheduling-time hiding factor).
    pub fn mem_latency_cycles(&self, c: &KernelCounters) -> f64 {
        let bytes = (c.global_bytes_read + c.global_bytes_written) as f64;
        let transactions = (bytes / self.bytes_per_transaction).ceil();
        transactions * self.global_latency_cycles
    }

    /// Cycles needed to move the block's global traffic at a given DRAM
    /// bandwidth share (bytes per cycle). This is a floor on memory time.
    pub fn mem_bandwidth_cycles(&self, c: &KernelCounters, bytes_per_cycle: f64) -> f64 {
        let bytes = (c.global_bytes_read + c.global_bytes_written) as f64;
        if bytes_per_cycle <= 0.0 {
            return 0.0;
        }
        bytes / bytes_per_cycle
    }

    /// Latency-hiding factor for a block starting on an SM that has
    /// `resident_warps` warps resident (including the block's own warps).
    pub fn hiding_factor(&self, resident_warps: u32) -> f64 {
        (resident_warps as f64 / self.hide_warp_ref).clamp(1.0, self.hide_max)
    }

    /// Issue-pipeline contention: a block's warp-instructions are issued
    /// at the SM's fixed pipeline rate, shared with every other resident
    /// warp. A block owning `block_warps` of `resident_warps` therefore
    /// sees its issue time stretched by `resident / own` — co-resident
    /// blocks double *each other's* duration while keeping SM throughput
    /// constant, and a lone small block on a busy SM gets only its share
    /// of issue slots.
    pub fn issue_contention(&self, resident_warps: u32, block_warps: u32) -> f64 {
        (resident_warps as f64 / block_warps.max(1) as f64).max(1.0)
    }

    /// Final block duration in cycles, combining contended issue work and
    /// memory stalls under the given residency and bandwidth share.
    pub fn block_cycles(
        &self,
        issue_cycles: f64,
        mem_latency_cycles: f64,
        mem_bandwidth_cycles: f64,
        resident_warps: u32,
        block_warps: u32,
    ) -> f64 {
        let hidden = mem_latency_cycles / self.hiding_factor(resident_warps);
        issue_cycles * self.issue_contention(resident_warps, block_warps)
            + hidden.max(mem_bandwidth_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(alu: u64, bytes: u64) -> KernelCounters {
        KernelCounters { alu_ops: alu, global_bytes_read: bytes, ..KernelCounters::default() }
    }

    #[test]
    fn issue_cycles_sum_instruction_classes() {
        let m = CostModel::default();
        let c = KernelCounters {
            alu_ops: 10,
            shared_transactions: 5,
            const_broadcasts: 3,
            tex_fetches: 2,
            barriers: 1,
            ..KernelCounters::default()
        };
        let expect = 10.0 * m.alu_cycles
            + 5.0 * m.shared_cycles
            + 3.0 * m.const_cycles
            + 2.0 * m.tex_cycles
            + m.barrier_cycles;
        assert_eq!(m.issue_cycles(&c), expect);
    }

    #[test]
    fn fused_traffic_is_credited_to_on_chip_rates() {
        let m = CostModel::default();
        // 256 fused bytes -> 2 would-have-been transactions at shared rate,
        // and none of it shows up in the DRAM latency term.
        let c = KernelCounters {
            fused_bytes_read: 200,
            fused_bytes_written: 56,
            ..KernelCounters::default()
        };
        assert_eq!(m.issue_cycles(&c), 2.0 * m.shared_cycles);
        assert_eq!(m.mem_latency_cycles(&c), 0.0);
        // The same bytes paid as global traffic would stall on DRAM.
        let g = counters(0, 256);
        assert_eq!(m.mem_latency_cycles(&g), 2.0 * m.global_latency_cycles);
    }

    #[test]
    fn memory_latency_counts_transactions() {
        let m = CostModel::default();
        // 129 bytes -> 2 transactions.
        let c = counters(0, 129);
        assert_eq!(m.mem_latency_cycles(&c), 2.0 * m.global_latency_cycles);
    }

    #[test]
    fn hiding_improves_with_residency_and_saturates() {
        let m = CostModel::default();
        assert_eq!(m.hiding_factor(1), 1.0);
        assert_eq!(m.hiding_factor(2), 1.0);
        assert!(m.hiding_factor(24) > m.hiding_factor(16));
        assert_eq!(m.hiding_factor(1000), m.hide_max);
    }

    #[test]
    fn block_cycles_respect_bandwidth_floor() {
        let m = CostModel::default();
        // Huge hiding but bandwidth-limited transfer dominates; the block
        // owns all resident warps so there is no issue contention.
        let cyc = m.block_cycles(100.0, 1000.0, 5000.0, 1000, 1000);
        assert_eq!(cyc, 100.0 + 5000.0);
    }

    #[test]
    fn lone_block_pays_most_of_the_latency() {
        let m = CostModel::default();
        // 4 resident warps (all its own): hiding factor 2.
        let cyc = m.block_cycles(100.0, 800.0, 0.0, 4, 4);
        assert_eq!(cyc, 500.0);
        // 2 warps: no hiding at all.
        assert_eq!(m.block_cycles(100.0, 800.0, 0.0, 2, 2), 900.0);
    }

    #[test]
    fn issue_contention_shares_the_pipeline() {
        let m = CostModel::default();
        // Two equal co-resident blocks stretch each other 2x.
        assert_eq!(m.issue_contention(36, 18), 2.0);
        // A lone block is unstretched.
        assert_eq!(m.issue_contention(18, 18), 1.0);
        // A small block on a busy SM gets its fair share only.
        assert_eq!(m.issue_contention(48, 8), 6.0);
        // Contention never speeds a block up.
        assert_eq!(m.issue_contention(4, 8), 1.0);
        // Throughput conservation: two co-resident blocks take 2x the
        // time of one, so SM-wide work rate is unchanged.
        let alone = m.block_cycles(1000.0, 0.0, 0.0, 18, 18);
        let shared = m.block_cycles(1000.0, 0.0, 0.0, 36, 18);
        assert_eq!(shared, 2.0 * alone);
    }
}
