//! Multi-GPU scale parallelism — the related-work baseline of Hefenbrock
//! et al. (FCCM 2010), discussed in the paper's §II:
//!
//! "They proposed a multi-GPU solution where each detection window is
//! evaluated in a different thread, and each window scale computed in
//! parallel in a different GPU."
//!
//! Each pyramid level runs its full kernel chain on its *own* simulated
//! device (round-robin across `n_gpus`), every device receiving a copy of
//! the frame over PCIe. The frame latency is the slowest device's span
//! plus the broadcast transfer — demonstrating why the paper's
//! single-GPU concurrent-kernel approach wins at equal silicon: scale 0
//! dominates one device while the others idle, and every extra GPU pays
//! the raw-frame upload the on-die decoder avoids.

use fd_detector::{DetectorError, FramePipeline};
use fd_gpu::{DeviceSpec, ExecMode, Gpu};
use fd_haar::Cascade;
use fd_imgproc::{GrayImage, Pyramid};

/// Host-device transfer model (PCIe), backing the paper's §III-A
/// motivation:
///
/// "When the video decoding stage is performed in a GPU, the latency of
/// memory transfers between the CPU and GPU address space is
/// significantly reduced due to the fact that these transfers deal with
/// compressed video frames."
///
/// The simulated pipeline never transfers decoded frames (the decoder is
/// on-die, like NVCUVID); this model prices the alternative, a raw-frame
/// upload, which [`detect_multi_gpu`] charges every device.
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

/// Result of one multi-GPU frame.
#[derive(Debug, Clone)]
pub struct MultiGpuFrame {
    /// Simulated span per device, milliseconds (compute only).
    pub per_gpu_ms: Vec<f64>,
    /// Raw-frame broadcast time per device, milliseconds.
    pub upload_ms: f64,
    /// End-to-end frame latency: upload + slowest device.
    pub frame_ms: f64,
    /// Total raw detections across devices.
    pub raw_detections: usize,
}

/// Run one frame with levels distributed round-robin over `n_gpus`
/// devices (Hefenbrock-style). Every device runs its levels' kernel
/// chains concurrently within itself.
pub fn detect_multi_gpu(
    cascade: &Cascade,
    frame: &GrayImage,
    n_gpus: usize,
    spec: &DeviceSpec,
    pcie: &PcieModel,
    scale_factor: f64,
) -> Result<MultiGpuFrame, DetectorError> {
    if n_gpus == 0 {
        return Err(DetectorError::InvalidConfig { reason: "n_gpus must be at least 1" });
    }
    let window = cascade.window as usize;
    let plan = Pyramid::plan(frame.width(), frame.height(), scale_factor, window);

    // Partition levels round-robin (level i -> GPU i % n). The devices
    // are independent simulators, so they run on one host thread each —
    // the host-side analogue of the real setup's per-GPU driver threads.
    // Results are aggregated in device order, so the output (and the
    // first error surfaced) is identical to the sequential loop.
    let device_results: Vec<Result<(f64, usize), DetectorError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_gpus)
            .map(|g| {
                let plan = &plan;
                scope.spawn(move || -> Result<(f64, usize), DetectorError> {
                    let levels: Vec<usize> = (0..plan.len()).filter(|l| l % n_gpus == g).collect();
                    if levels.is_empty() {
                        return Ok((0.0, 0));
                    }
                    // Each device runs a pipeline restricted to its
                    // levels. The restriction is emulated by rescaling
                    // the frame to the largest assigned level and
                    // running a pyramid whose plan matches the assigned
                    // levels' dimensions; level spacing within a device
                    // is `factor^n_gpus`.
                    let device_factor = scale_factor.powi(n_gpus as i32);
                    let top = plan[levels[0]];
                    let scaled = if top == (frame.width(), frame.height()) {
                        frame.clone()
                    } else {
                        fd_imgproc::resize::resize_bilinear(frame, top.0, top.1)
                    };
                    if scaled.width() < window || scaled.height() < window {
                        return Ok((0.0, 0));
                    }
                    let gpu = Gpu::new(spec.clone(), ExecMode::Concurrent);
                    let mut pipeline = FramePipeline::try_new(gpu, cascade, device_factor)?;
                    let (outputs, timeline) = pipeline.run_frame(&scaled)?;
                    let hits = outputs
                        .iter()
                        .map(|o| o.hits.iter().filter(|&&h| h != 0).count())
                        .sum::<usize>();
                    Ok((timeline.span_us() / 1000.0, hits))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("device thread panicked")).collect()
    });
    let mut per_gpu_ms = Vec::with_capacity(n_gpus);
    let mut raw_detections = 0usize;
    for r in device_results {
        let (ms, hits) = r?;
        per_gpu_ms.push(ms);
        raw_detections += hits;
    }

    // Every device receives the raw frame (no on-die decoder on the
    // secondary GPUs): sequential DMA broadcasts on one host link.
    let upload_ms = n_gpus as f64 * pcie.h2d_us(frame.width() * frame.height() * 3 / 2) / 1000.0;
    let slowest = per_gpu_ms.iter().cloned().fold(0.0f64, f64::max);
    Ok(MultiGpuFrame { per_gpu_ms, upload_ms, frame_ms: upload_ms + slowest, raw_detections })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_haar::{FeatureKind, HaarFeature, Stage, Stump};

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

    fn cascade() -> Cascade {
        let f = HaarFeature::from_params(FeatureKind::EdgeH, 6, 4, 6, 8);
        let mut c = Cascade::new("t", 24);
        c.stages.push(Stage {
            stumps: vec![Stump { feature: f, threshold: 8192, left: -1.0, right: 1.0 }],
            threshold: 0.5,
        });
        c
    }

    fn frame() -> GrayImage {
        GrayImage::from_fn(192, 108, |x, y| ((x * 13 + y * 7) % 255) as f32)
    }

    #[test]
    fn levels_are_partitioned_across_devices() -> Result<(), DetectorError> {
        let r = detect_multi_gpu(
            &cascade(),
            &frame(),
            3,
            &DeviceSpec::gtx470(),
            &PcieModel::pcie2_x16(),
            1.25,
        )?;
        assert_eq!(r.per_gpu_ms.len(), 3);
        // GPU 0 holds level 0 and dominates.
        assert!(r.per_gpu_ms[0] >= r.per_gpu_ms[1]);
        assert!(r.per_gpu_ms[0] >= r.per_gpu_ms[2]);
        assert!(r.frame_ms > r.per_gpu_ms[0], "upload must add latency");
        Ok(())
    }

    #[test]
    fn single_gpu_case_matches_plain_pipeline_shape() -> Result<(), DetectorError> {
        let r = detect_multi_gpu(
            &cascade(),
            &frame(),
            1,
            &DeviceSpec::gtx470(),
            &PcieModel::pcie2_x16(),
            1.25,
        )?;
        assert_eq!(r.per_gpu_ms.len(), 1);
        assert!(r.per_gpu_ms[0] > 0.0);
        Ok(())
    }

    #[test]
    fn adding_gpus_hits_diminishing_returns() -> Result<(), DetectorError> {
        // The scale-0 chain pins GPU 0: going 1 -> 4 GPUs cannot yield a
        // 4x frame-latency improvement (Hefenbrock's imbalance problem).
        let one = detect_multi_gpu(
            &cascade(),
            &frame(),
            1,
            &DeviceSpec::gtx470(),
            &PcieModel::pcie2_x16(),
            1.25,
        )?;
        let four = detect_multi_gpu(
            &cascade(),
            &frame(),
            4,
            &DeviceSpec::gtx470(),
            &PcieModel::pcie2_x16(),
            1.25,
        )?;
        let speedup = one.frame_ms / four.frame_ms;
        assert!(speedup < 3.0, "speedup {speedup:.2} should be far below 4x");
        Ok(())
    }
}
