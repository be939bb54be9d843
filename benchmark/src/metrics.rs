//! The metric and workload tables: the single source for what a run
//! prints and for the repo-root `BENCHMARK.json` (see [`manifest`]).

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "trailer_1080p",
        why: "the paper's Table II/Fig. 5 case: 1080p frames, one at a time; large launches, so kernel bodies set both clocks and the serving layers are idle",
    },
    Workload {
        name: "batch_vga_fused",
        why: "the same device layers used the other way: batches of 8 VGA frames, fused chains, tuned shapes; a gain for single unfused frames that costs this path shows here",
    },
    Workload {
        name: "serve_small_sweep",
        why: "tiny frames at four fixed open-loop rates plus a burst: launch overhead, batch wait and queueing set latency, per-launch simulator cost sets host time",
    },
    Workload {
        name: "fleet_chaos_mixed",
        why: "2 Haar + 2 CNN lanes under seeded faults, a kill and a drain: router, recovery, health, stealing and the CNN backend, all idle in the sweep, decide the result",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

/// `virt_*` is deterministic virtual device time, `host_*` is wall-clock.
/// One bound serves all four workloads and every run of the driver has
/// its own seed, so a bound has to clear the spread between seeds on the
/// noisiest workload: each is twice the worst spread measured (README,
/// "Noise", which records the derivation), rounded up to a whole per
/// cent and capped at the contract's 25 %. For one seed every `virt_*`
/// value and share repeats exactly, and `compare.sh` gates them by
/// equality.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("virt_ms_p50", "ms", Better::Lower, 0.14),
    e2e("virt_ms_tail", "ms", Better::Lower, 0.18),
    e2e("virt_ops_per_s", "1/s", Better::Higher, 0.07),
    e2e("virt_concurrency_speedup", "ratio", Better::Higher, 0.1),
    e2e("slo_met_share", "share", Better::Higher, 0.05),
    e2e("ok_share", "share", Better::Higher, 0.04),
    e2e("host_ms_p50", "ms", Better::Lower, 0.25),
    e2e("host_peak_rss_mb", "MB", Better::Lower, 0.04),
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this one should move, and on which
    /// workloads: the prediction written down before any optimisation is
    /// measured. Printed beside the value by a traced run; the manifest
    /// format has no field for it.
    pub moves: &'static str,
}

/// Every per-layer metric, in print order. A metric that does not apply
/// to a workload reads 0 there.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut v = Vec::new();
    let mut add =
        |name: String, unit, better, moves| v.push(PerLayer { name, unit, better, moves });
    for stage in ["scale", "filter", "integral", "fused", "cascade", "display", "cnn"] {
        // The CNN backend runs on the fleet only.
        let [virt_on, launches_on, host_on] = if stage == "cnn" {
            [
                "virt_ms_p50, virt_ops_per_s @ fleet_chaos_mixed",
                "virt_ms_p50 @ fleet_chaos_mixed",
                "host_ms_p50 @ fleet_chaos_mixed",
            ]
        } else {
            [
                "virt_ms_p50, virt_ops_per_s @ trailer_1080p, batch_vga_fused; barely @ serving",
                "virt_ms_p50, virt_ops_per_s @ serve_small_sweep; not @ trailer_1080p",
                "host_ms_p50 @ trailer_1080p, batch_vga_fused",
            ]
        };
        add(format!("gpu.{stage}.launches"), "count", Lower, launches_on);
        add(format!("gpu.{stage}.blocks"), "count", Lower, host_on);
        add(format!("gpu.{stage}.virt_us"), "us", Lower, virt_on);
        add(format!("gpu.{stage}.global_bytes"), "B", Lower, virt_on);
        add(format!("gpu.{stage}.host_us"), "us", Lower, host_on);
    }
    const LAUNCH: &str = "virt_ms_p50, virt_ops_per_s @ serve_small_sweep; not @ trailer_1080p";
    const HOST_VIDEO: &str = "host_ms_p50 @ trailer_1080p, batch_vga_fused";
    const HOST_SERVING: &str = "host_ms_p50 @ serve_small_sweep, fleet_chaos_mixed";
    const TIMELINE: &str = "virt_concurrency_speedup, virt_ms_p50 @ trailer_1080p, batch_vga_fused";
    const WAIT: &str =
        "virt_ms_tail @ serve_small_sweep (batch wait at low rates, queueing at high)";
    const SERVICE: &str = "virt_ms_p50 @ serve_small_sweep, fleet_chaos_mixed";
    const CAPACITY: &str = "virt_ops_per_s, serve.max_rate_in_slo_rps @ serve_small_sweep";
    const CHAOS: &str =
        "ok_share, slo_met_share, virt_ms_tail @ fleet_chaos_mixed; must read 0 @ serve_small_sweep";
    for (name, unit, better, moves) in [
        ("gpu.other.launches", "count", Lower, "none: kernels the stage table does not know, 0"),
        ("gpu.cascade.branch_eff", "ratio", Higher, "virt_ms_p50 @ trailer_1080p, batch_vga_fused"),
        ("gpu.launch_overhead.virt_us", "us", Lower, LAUNCH),
        ("gpu.kernel_body.host_share", "share", Higher, "host_ms_p50 @ trailer_1080p"),
        ("gpu.overhead.host_us_per_launch", "us", Lower, HOST_SERVING),
        ("gpu.host_us_per_block", "us", Lower, HOST_SERVING),
        ("gpu.timeline.sm_utilization", "ratio", Higher, TIMELINE),
        ("gpu.timeline.mean_occupancy", "ratio", Higher, TIMELINE),
        ("gpu.timeline.limit.registers", "count", Lower, TIMELINE),
        ("gpu.timeline.limit.shared_mem", "count", Lower, TIMELINE),
        ("gpu.timeline.limit.warps", "count", Lower, TIMELINE),
        ("gpu.timeline.limit.threads", "count", Lower, TIMELINE),
        ("gpu.timeline.limit.blocks", "count", Lower, TIMELINE),
        ("gpu.opaque_launches", "count", Lower, TIMELINE),
        (
            "gpu.faults.injected",
            "count",
            Lower,
            "none: 0 without a fault plan, invisible on the boxed fleet",
        ),
        ("video.decode.host_ms", "ms", Lower, "none: outside the timed op"),
        ("video.decode.virt_ms", "ms", Lower, "virt_ops_per_s @ trailer_1080p"),
        (
            "video.decode_bound_share",
            "share",
            Lower,
            "virt_ops_per_s @ trailer_1080p: detect gains stop paying once decode binds",
        ),
        ("detector.plan.host_us", "us", Lower, HOST_VIDEO),
        ("detector.levels", "count", Lower, HOST_VIDEO),
        ("detector.pool_bytes", "B", Lower, "host_peak_rss_mb @ trailer_1080p, batch_vga_fused"),
        ("detector.detect.host_ms_p90", "ms", Lower, HOST_VIDEO),
        ("detector.group.host_us", "us", Lower, HOST_VIDEO),
        ("detector.group.raw_windows", "count", Lower, HOST_VIDEO),
        ("detector.group.detections", "count", Higher, "none: an output; det_digest guards it"),
        (
            "detector.cpu_ref.host_ms",
            "ms",
            Lower,
            "none: the reference the GPU path is checked against",
        ),
        ("eval.recall", "share", Higher, "none: an output; det_digest guards it"),
        (
            "serve.queue.wait_us_p50",
            "us",
            Lower,
            "virt_ms_p50 @ serve_small_sweep, fleet_chaos_mixed",
        ),
        ("serve.queue.wait_us_p99", "us", Lower, WAIT),
        ("serve.device.service_us_p50", "us", Lower, SERVICE),
        (
            "serve.device.service_us_p99",
            "us",
            Lower,
            "virt_ms_tail @ serve_small_sweep, fleet_chaos_mixed",
        ),
        ("serve.batcher.occupancy", "ratio", Higher, CAPACITY),
        ("serve.batcher.batches", "count", Lower, CAPACITY),
        ("serve.queue.max_depth", "count", Lower, WAIT),
        ("serve.queue.rejected", "count", Lower, "ok_share @ fleet_chaos_mixed"),
        ("serve.queue.shed_late", "count", Lower, "ok_share, slo_met_share @ fleet_chaos_mixed"),
        ("serve.device.busy_share", "share", Lower, CAPACITY),
        ("serve.submit.host_us_per_req", "us", Lower, HOST_SERVING),
        ("serve.step.host_us_p50", "us", Lower, HOST_SERVING),
        ("serve.steps", "count", Lower, HOST_SERVING),
        (
            "serve.max_rate_in_slo_rps",
            "1/s",
            Higher,
            "itself an end-to-end figure of serve_small_sweep (see README)",
        ),
        ("serve.haar.latency_us_p99", "us", Lower, "virt_ms_tail @ fleet_chaos_mixed"),
        ("serve.cnn.latency_us_p99", "us", Lower, "virt_ms_tail @ fleet_chaos_mixed"),
        ("serve.haar.goodput", "share", Higher, "ok_share @ fleet_chaos_mixed"),
        ("serve.cnn.goodput", "share", Higher, "ok_share @ fleet_chaos_mixed"),
        ("serve.recovery.retries", "count", Lower, CHAOS),
        ("serve.recovery.backoff_us", "us", Lower, CHAOS),
        ("serve.recovery.bisected", "count", Lower, CHAOS),
        ("serve.recovery.poisoned", "count", Lower, CHAOS),
        ("serve.recovery.degraded", "count", Lower, CHAOS),
        ("serve.recovery.expired", "count", Lower, CHAOS),
        ("serve.recovery.failed", "count", Lower, CHAOS),
        ("serve.health.breaker_trips", "count", Lower, CHAOS),
        ("serve.health.brownout_ticks", "count", Lower, CHAOS),
        ("serve.health.rejected", "count", Lower, CHAOS),
        ("serve.router.migrations", "count", Lower, CHAOS),
        ("serve.router.failovers", "count", Lower, CHAOS),
        ("serve.router.steals", "count", Lower, CHAOS),
        ("serve.router.admission_rejected", "count", Lower, CHAOS),
        ("serve.router.lane_imbalance", "ratio", Lower, "virt_ms_tail @ fleet_chaos_mixed"),
        ("serve.fleet.evicted", "count", Lower, CHAOS),
        (
            "setup.first_s",
            "s",
            Lower,
            "setup_s @ all four: the cold first set-up next to the warm median",
        ),
        (
            "trace.overhead_ratio",
            "ratio",
            Lower,
            "none: traced / untraced host_ms_p50, the recorder's cost",
        ),
    ] {
        add(name.to_string(), unit, better, moves);
    }
    v
}

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u32 = 20;

/// The repo-root `BENCHMARK.json`, generated so it cannot drift from the
/// tables above (`run.sh --print-manifest`; a unit test compares).
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    let rows = |rows: Vec<String>| rows.join(",\n");
    let _ = writeln!(
        s,
        "  \"workloads\": [\n{}\n  ],",
        rows(
            WORKLOADS
                .iter()
                .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect()
        )
    );
    let _ = writeln!(
        s,
        "  \"end_to_end\": [\n{}\n  ],",
        rows(
            END_TO_END
                .iter()
                .map(|m| format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                ))
                .collect()
        )
    );
    let _ = writeln!(
        s,
        "  \"per_layer\": [\n{}\n  ]",
        rows(
            per_layer()
                .iter()
                .map(|m| format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                ))
                .collect()
        )
    );
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_manifest_contract() {
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(per_layer().into_iter().map(|m| m.name));
        for n in &names {
            assert!(legal_name(n), "illegal name {n}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(per_layer().len() <= 128);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(
            committed == manifest(),
            "BENCHMARK.json is stale: benchmark/run.sh --print-manifest > BENCHMARK.json"
        );
    }
}
