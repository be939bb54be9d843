//! Device-layer attribution: kernel launches grouped by pipeline stage,
//! summed from the public `Timeline` and `HostSpan` records.

use std::collections::BTreeMap;

use fd_gpu::{HostSpan, KernelCounters, Timeline};

use crate::stats::union_len;

/// Pipeline stage a kernel launch is charged to. The names are the
/// `gpu.<stage>.*` metric groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    Scale,
    Filter,
    /// `scan_rows` + `transpose`, launched unfused.
    Integral,
    /// Both fused chains (their kernel names join the stages with `+`,
    /// which is not legal in a metric name).
    Fused,
    Cascade,
    Display,
    Cnn,
    /// A kernel this table does not know; expected to stay empty.
    Other,
}

impl Stage {
    pub const ALL: [Stage; 8] = [
        Stage::Scale,
        Stage::Filter,
        Stage::Integral,
        Stage::Fused,
        Stage::Cascade,
        Stage::Display,
        Stage::Cnn,
        Stage::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::Scale => "scale",
            Stage::Filter => "filter",
            Stage::Integral => "integral",
            Stage::Fused => "fused",
            Stage::Cascade => "cascade",
            Stage::Display => "display",
            Stage::Cnn => "cnn",
            Stage::Other => "other",
        }
    }

    pub fn of_kernel(kernel_name: &str) -> Stage {
        match kernel_name {
            n if n.contains('+') => Stage::Fused,
            n if n.starts_with("cnn_") => Stage::Cnn,
            "scale" => Stage::Scale,
            "filter" => Stage::Filter,
            "scan_rows" | "transpose" => Stage::Integral,
            "cascade_eval" | "cascade_segment" | "compact" => Stage::Cascade,
            "display" => Stage::Display,
            _ => Stage::Other,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct StageTotals {
    launches: u64,
    blocks: u64,
    virt_us: f64,
    global_bytes: u64,
    host_us: f64,
}

/// Running totals over every device submission of a workload.
#[derive(Debug, Default)]
pub struct GpuLayers {
    stages: BTreeMap<Stage, StageTotals>,
    cascade_counters: KernelCounters,
    overhead_virt_us: f64,
    limits: BTreeMap<&'static str, u64>,
    /// Σ utilization x span and Σ span, for a span-weighted mean.
    util_span_us: f64,
    span_us: f64,
    /// Σ per-launch theoretical warp occupancy.
    occupancy_sum: f64,
    host_spans: Vec<(f64, f64)>,
    /// End of the latest host span folded in so far.
    host_clock_us: f64,
}

impl GpuLayers {
    /// Fold in the timeline of one device submission.
    pub fn add_timeline(&mut self, t: &Timeline) {
        for e in &t.events {
            let stage = Stage::of_kernel(e.kernel_name);
            let s = self.stages.entry(stage).or_default();
            s.launches += 1;
            s.blocks += e.blocks;
            s.virt_us += e.duration_us();
            s.global_bytes += e.counters.global_bytes();
            if stage == Stage::Cascade {
                self.cascade_counters.add(&e.counters);
            }
            self.overhead_virt_us += e.overhead_us;
        }
        for (limit, n) in t.limiting_factor_counts() {
            *self.limits.entry(limit).or_insert(0) += n;
        }
        self.occupancy_sum += t.mean_theoretical_occupancy() * t.events.len() as f64;
        self.util_span_us += t.sm_utilization() * t.span_us();
        self.span_us += t.span_us();
    }

    /// Fold in the host-execution spans of one profiler harvest. Each
    /// `Gpu` counts host µs from its own creation, so every harvest is
    /// shifted past the previous one: spans of different devices must
    /// not overlap in the interval union.
    pub fn add_host_spans(&mut self, spans: &[HostSpan]) {
        let offset_us = self.host_clock_us;
        for h in spans {
            self.stages.entry(Stage::of_kernel(h.kernel_name)).or_default().host_us +=
                h.duration_us();
            self.host_spans.push((h.t_start_us + offset_us, h.t_end_us + offset_us));
            self.host_clock_us = self.host_clock_us.max(h.t_end_us + offset_us);
        }
    }

    fn launches(&self) -> u64 {
        self.stages.values().map(|s| s.launches).sum()
    }

    /// Emit every `gpu.*` metric. `host_in_calls_us` is the host time
    /// spent inside the calls that issued these launches.
    pub fn emit(mut self, host_in_calls_us: f64, out: &mut BTreeMap<String, f64>) {
        let launches = self.launches();
        let blocks: u64 = self.stages.values().map(|s| s.blocks).sum();
        for stage in Stage::ALL {
            let s = self.stages.get(&stage).cloned().unwrap_or_default();
            let name = stage.name();
            out.insert(format!("gpu.{name}.launches"), s.launches as f64);
            if stage == Stage::Other {
                continue;
            }
            out.insert(format!("gpu.{name}.blocks"), s.blocks as f64);
            out.insert(format!("gpu.{name}.virt_us"), s.virt_us);
            out.insert(format!("gpu.{name}.global_bytes"), s.global_bytes as f64);
            out.insert(format!("gpu.{name}.host_us"), s.host_us);
        }
        out.insert("gpu.cascade.branch_eff".into(), self.cascade_counters.branch_efficiency());
        out.insert("gpu.launch_overhead.virt_us".into(), self.overhead_virt_us);

        let covered_us = union_len(&mut self.host_spans);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        out.insert("gpu.kernel_body.host_share".into(), ratio(covered_us, host_in_calls_us));
        out.insert(
            "gpu.overhead.host_us_per_launch".into(),
            ratio((host_in_calls_us - covered_us).max(0.0), launches as f64),
        );
        out.insert("gpu.host_us_per_block".into(), ratio(host_in_calls_us, blocks as f64));

        out.insert("gpu.timeline.sm_utilization".into(), ratio(self.util_span_us, self.span_us));
        out.insert(
            "gpu.timeline.mean_occupancy".into(),
            ratio(self.occupancy_sum, launches as f64),
        );
        for (metric, label) in [
            ("registers", "registers"),
            ("shared_mem", "smem"),
            ("warps", "warps"),
            ("threads", "threads"),
            ("blocks", "blocks"),
        ] {
            let n = self.limits.get(label).copied().unwrap_or(0);
            out.insert(format!("gpu.timeline.limit.{metric}"), n as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pipeline_kernel_maps_to_its_stage() {
        for (kernel, stage) in [
            ("scale", Stage::Scale),
            ("filter", Stage::Filter),
            ("scan_rows", Stage::Integral),
            ("transpose", Stage::Integral),
            ("scale+filter+scan+transpose", Stage::Fused),
            ("scan+transpose", Stage::Fused),
            ("cascade_eval", Stage::Cascade),
            ("display", Stage::Display),
            ("cnn_conv1", Stage::Cnn),
            ("cnn_maxpool", Stage::Cnn),
            ("cnn_gate1", Stage::Cnn),
            ("saxpy", Stage::Other),
        ] {
            assert_eq!(Stage::of_kernel(kernel), stage, "{kernel}");
        }
    }

    #[test]
    fn stage_names_are_legal_metric_name_parts() {
        for stage in Stage::ALL {
            assert!(stage.name().chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
        }
    }
}
