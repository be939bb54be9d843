//! Shared experiment runners.

use fd_detector::{DetectorConfig, FaceDetector};
use fd_gpu::DeviceSpec;
use fd_haar::Cascade;
use fd_video::decoder::pipelined_fps;
use fd_video::{HwDecoder, TrailerInfo};

use crate::cascades::CascadePair;

/// Per-frame latency series for one (cascade, device) configuration over a
/// trailer. Returns `(detect_ms, decode_ms)` per frame.
pub fn detect_series(
    cascade: &Cascade,
    info: &TrailerInfo,
    device: &DeviceSpec,
    n_frames: usize,
) -> (Vec<f64>, Vec<f64>) {
    let decoder = HwDecoder::new(info.generate(n_frames));
    let config = DetectorConfig { device: device.clone(), ..DetectorConfig::default() };
    let mut detector = FaceDetector::new(cascade, config);
    let mut detect_ms = Vec::with_capacity(n_frames);
    let mut decode_ms = Vec::with_capacity(n_frames);
    for frame in decoder {
        let r = detector.detect(&frame.luma).expect("detect");
        detect_ms.push(r.detect_ms);
        decode_ms.push(frame.decode_ms);
    }
    (detect_ms, decode_ms)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// One Table II row: average detection ms/frame per configuration.
#[derive(Debug, Clone)]
pub struct Table2Row {
    pub title: String,
    pub ours_concurrent: f64,
    pub ours_serial: f64,
    pub cv_concurrent: f64,
    pub cv_serial: f64,
    /// End-to-end fps with hardware decode overlapped (ours, concurrent).
    pub fps_ours_concurrent: f64,
}

impl Table2Row {
    /// The paper's headline ratio: serial OpenCV cascade over concurrent
    /// compact cascade.
    pub fn combined_speedup(&self) -> f64 {
        self.cv_serial / self.ours_concurrent
    }

    /// Concurrency-only speedup for the compact cascade.
    pub fn concurrency_speedup(&self) -> f64 {
        self.ours_serial / self.ours_concurrent
    }

    /// Cascade-swap-only speedup under concurrent execution.
    pub fn cascade_speedup(&self) -> f64 {
        self.cv_concurrent / self.ours_concurrent
    }
}

/// Run Table II over `trailers` with `frames` frames each.
pub fn run_table2(pair: &CascadePair, trailers: &[TrailerInfo], frames: usize) -> Vec<Table2Row> {
    let mut rows = Vec::with_capacity(trailers.len());
    let concurrent = DeviceSpec::gtx470();
    let serial = concurrent.profiler_serialized();
    for info in trailers {
        let (ours_c, decode) = detect_series(&pair.ours, info, &concurrent, frames);
        let (ours_s, _) = detect_series(&pair.ours, info, &serial, frames);
        let (cv_c, _) = detect_series(&pair.opencv_like, info, &concurrent, frames);
        let (cv_s, _) = detect_series(&pair.opencv_like, info, &serial, frames);
        rows.push(Table2Row {
            title: info.title.to_string(),
            ours_concurrent: mean(&ours_c),
            ours_serial: mean(&ours_s),
            cv_concurrent: mean(&cv_c),
            cv_serial: mean(&cv_s),
            fps_ours_concurrent: pipelined_fps(&decode, &ours_c),
        });
        eprintln!(
            "[table2] {:<42} ours {:.2}/{:.2} ms  cv {:.2}/{:.2} ms",
            info.title,
            rows.last().unwrap().ours_concurrent,
            rows.last().unwrap().ours_serial,
            rows.last().unwrap().cv_concurrent,
            rows.last().unwrap().cv_serial,
        );
    }
    rows
}

/// Geometric means over Table II (the paper quotes average factors).
pub fn table2_summary(rows: &[Table2Row]) -> (f64, f64, f64) {
    let geo = |f: &dyn Fn(&Table2Row) -> f64| -> f64 {
        (rows.iter().map(|r| f(r).ln()).sum::<f64>() / rows.len() as f64).exp()
    };
    (
        geo(&|r| r.concurrency_speedup()),
        geo(&|r| r.cascade_speedup()),
        geo(&|r| r.combined_speedup()),
    )
}

/// Fig. 7 data: aggregated deepest-stage histograms per scale.
pub struct RejectionSurface {
    /// `counts[level][depth]`, summed over frames.
    pub counts: Vec<Vec<u64>>,
    pub windows_per_level: Vec<u64>,
    pub n_stages: usize,
}

impl RejectionSurface {
    /// Rejection rate at 1-based `stage` for `level`.
    pub fn rate(&self, level: usize, stage: usize) -> f64 {
        let n = self.windows_per_level[level];
        if n == 0 {
            return 0.0;
        }
        self.counts[level].get(stage - 1).copied().unwrap_or(0) as f64 / n as f64
    }

    /// Aggregate rejection rate at 1-based `stage` over all levels.
    pub fn aggregate_rate(&self, stage: usize) -> f64 {
        let total: u64 = self.windows_per_level.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let c: u64 = self.counts.iter().map(|h| h.get(stage - 1).copied().unwrap_or(0)).sum();
        c as f64 / total as f64
    }
}

/// Collect Fig. 7 rejection statistics for one cascade over a trailer.
pub fn run_rejection_surface(
    cascade: &Cascade,
    info: &TrailerInfo,
    n_frames: usize,
) -> RejectionSurface {
    let decoder = HwDecoder::new(info.generate(n_frames));
    let mut detector = FaceDetector::new(
        cascade,
        DetectorConfig { collect_rejection_stats: true, ..DetectorConfig::default() },
    );
    let mut counts: Vec<Vec<u64>> = Vec::new();
    let mut windows: Vec<u64> = Vec::new();
    for frame in decoder {
        let r = detector.detect(&frame.luma).expect("detect");
        let h = r.rejection.expect("stats enabled");
        if counts.is_empty() {
            counts = h.counts.clone();
            windows = h.windows_per_level.clone();
        } else {
            for (acc, new) in counts.iter_mut().zip(&h.counts) {
                for (a, b) in acc.iter_mut().zip(new) {
                    *a += b;
                }
            }
            for (a, b) in windows.iter_mut().zip(&h.windows_per_level) {
                *a += b;
            }
        }
    }
    RejectionSurface { counts, windows_per_level: windows, n_stages: cascade.depth() as usize }
}

/// §VI-A profiler-counter report for one configuration.
pub struct CountersReport {
    pub branch_efficiency_cascade: f64,
    pub branch_efficiency_overall: f64,
    /// (min, max) DRAM read throughput of cascade-eval launches, MB/s.
    pub cascade_dram_mbps: (f64, f64),
    /// Fraction of device time in the integral-image kernels.
    pub integral_time_share: f64,
    /// Packed cascade size in constant memory, bytes.
    pub const_bytes: usize,
    /// End-to-end fps with decode overlap.
    pub fps: f64,
}

/// Gather the §VI-A counters over a trailer run.
pub fn run_counters(cascade: &Cascade, info: &TrailerInfo, n_frames: usize) -> CountersReport {
    let decoder = HwDecoder::new(info.generate(n_frames));
    let mut detector = FaceDetector::new(cascade, DetectorConfig::default());
    let mut detect_ms = Vec::new();
    let mut decode_ms = Vec::new();
    let mut dram_min = f64::INFINITY;
    let mut dram_max = 0.0f64;
    for frame in decoder {
        let r = detector.detect(&frame.luma).expect("detect");
        detect_ms.push(r.detect_ms);
        decode_ms.push(frame.decode_ms);
        for e in &r.timeline.events {
            if e.kernel_name == "cascade_eval" {
                let t = e.dram_read_throughput_mbps();
                if t > 0.0 {
                    dram_min = dram_min.min(t);
                    dram_max = dram_max.max(t);
                }
            }
        }
    }
    let prof = detector.profiler();
    let kernels = prof.kernels();
    let total_time: f64 = kernels.values().map(|k| k.total_time_us).sum();
    let integral_time: f64 = kernels
        .iter()
        .filter(|(name, _)| **name == "scan_rows" || **name == "transpose")
        .map(|(_, k)| k.total_time_us)
        .sum();
    // The packed size: re-encode to count (the detector holds it staged).
    let const_bytes = fd_haar::encode::packed_bytes(detector.model());
    CountersReport {
        branch_efficiency_cascade: kernels["cascade_eval"].branch_efficiency(),
        branch_efficiency_overall: prof.branch_efficiency(),
        cascade_dram_mbps: (dram_min, dram_max),
        integral_time_share: integral_time / total_time,
        const_bytes,
        fps: pipelined_fps(&decode_ms, &detect_ms),
    }
}

/// Map a stage-count operating point of the paper (15/20/25 of 25) onto a
/// cascade with a possibly different depth: proportional truncation.
pub fn equivalent_stage_cut(cascade: &Cascade, paper_stages: usize) -> usize {
    let d = cascade.depth() as usize;
    ((paper_stages as f64 / 25.0 * d as f64).round() as usize).clamp(1, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascades::{trained_cascade_pair, TrainingBudget};

    fn small_pair() -> CascadePair {
        trained_cascade_pair(&TrainingBudget::tiny())
    }

    #[test]
    fn detect_series_produces_one_sample_per_frame() {
        let pair = small_pair();
        // Shrink the trailer via a custom spec: use the spec at lower res.
        let spec = fd_video::TrailerSpec {
            width: 192,
            height: 108,
            n_frames: 3,
            seed: 5,
            face_size: (30.0, 60.0),
            ..fd_video::TrailerSpec::default()
        };
        let decoder = HwDecoder::new(fd_video::Trailer::generate(spec));
        let mut det = FaceDetector::new(&pair.ours, DetectorConfig::default());
        let mut n = 0;
        for frame in decoder {
            let r = det.detect(&frame.luma).expect("detect");
            assert!(r.detect_ms > 0.0);
            n += 1;
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn stage_cut_scales_proportionally() {
        let mut c = Cascade::new("c", 24);
        for _ in 0..10 {
            c.stages.push(fd_haar::Stage { stumps: vec![], threshold: 0.0 });
        }
        assert_eq!(equivalent_stage_cut(&c, 25), 10);
        assert_eq!(equivalent_stage_cut(&c, 20), 8);
        assert_eq!(equivalent_stage_cut(&c, 15), 6);
        // Never zero.
        let mut one = Cascade::new("one", 24);
        one.stages.push(fd_haar::Stage { stumps: vec![], threshold: 0.0 });
        assert_eq!(equivalent_stage_cut(&one, 15), 1);
    }

    #[test]
    fn table2_summary_takes_geometric_means() {
        let rows = vec![
            Table2Row {
                title: "a".into(),
                ours_concurrent: 1.0,
                ours_serial: 2.0,
                cv_concurrent: 2.0,
                cv_serial: 4.0,
                fps_ours_concurrent: 100.0,
            },
            Table2Row {
                title: "b".into(),
                ours_concurrent: 1.0,
                ours_serial: 8.0,
                cv_concurrent: 2.0,
                cv_serial: 16.0,
                fps_ours_concurrent: 100.0,
            },
        ];
        let (conc, casc, comb) = table2_summary(&rows);
        assert!((conc - 4.0).abs() < 1e-9); // sqrt(2*8)
        assert!((casc - 2.0).abs() < 1e-9);
        assert!((comb - 8.0).abs() < 1e-9); // sqrt(4*16)
    }
}
