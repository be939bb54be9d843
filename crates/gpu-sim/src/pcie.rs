//! Host-device transfer model (PCIe), backing the paper's §III-A
//! motivation:
//!
//! "When the video decoding stage is performed in a GPU, the latency of
//! memory transfers between the CPU and GPU address space is
//! significantly reduced due to the fact that these transfers deal with
//! compressed video frames."
//!
//! The simulated pipeline never transfers decoded frames (the decoder is
//! on-die, like NVCUVID); this model prices the alternative, a raw-frame
//! upload, which the multi-GPU ablation charges every device.

/// PCIe link model.
#[derive(Debug, Clone, PartialEq)]
pub struct PcieModel {
    /// Effective host-to-device bandwidth, GB/s (pinned memory).
    pub h2d_gbps: f64,
    /// Per-transfer fixed latency, microseconds (DMA setup + driver).
    pub latency_us: f64,
}

impl PcieModel {
    /// PCIe 2.0 x16 as on the paper's GTX470 testbed: ~6 GB/s effective
    /// with pinned buffers, ~10 us per DMA.
    pub fn pcie2_x16() -> Self {
        Self { h2d_gbps: 6.0, latency_us: 10.0 }
    }

    /// Time to move `bytes` host-to-device, microseconds.
    pub fn h2d_us(&self, bytes: usize) -> f64 {
        self.latency_us + bytes as f64 / (self.h2d_gbps * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_1080p_upload_takes_about_half_a_millisecond() {
        let p = PcieModel::pcie2_x16();
        let us = p.h2d_us(1920 * 1080 * 3 / 2);
        assert!((400.0..700.0).contains(&us), "raw NV12 upload {us:.0} us");
    }

    #[test]
    fn latency_floor_applies_to_tiny_transfers() {
        let p = PcieModel::pcie2_x16();
        assert!(p.h2d_us(1) >= p.latency_us);
    }

    #[test]
    fn bandwidth_scales_linearly() {
        let p = PcieModel::pcie2_x16();
        let one = p.h2d_us(1_000_000) - p.latency_us;
        let two = p.h2d_us(2_000_000) - p.latency_us;
        assert!((two / one - 2.0).abs() < 1e-9);
    }
}
