//! Profiling output: execution traces and per-kernel aggregate statistics.
//!
//! Mirrors what the paper extracts from the CUDA compute command-line
//! profiler: kernel timestamps per stream (their Fig. 6), branch efficiency
//! (their 98.9 % figure) and DRAM read throughput per kernel (their
//! 9.57–532 MB/s range for the cascade kernels).

use std::collections::BTreeMap;

use crate::meter::KernelCounters;
use crate::sched::LaunchOccupancy;
use crate::stream::StreamId;

/// One row of an execution trace: a kernel launch with its timestamps.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub launch_idx: usize,
    pub kernel_name: &'static str,
    pub stream: StreamId,
    pub t_start_us: f64,
    pub t_end_us: f64,
    pub blocks: u64,
    /// Launch overhead charged before `t_start_us` (driver/runtime cost and
    /// any profiler drain). A fused launch pays this once where its
    /// constituents would have paid it k times.
    pub overhead_us: f64,
    /// Theoretical residency of this launch's blocks and the budget that
    /// bounded it (see [`crate::sched::launch_occupancy`]).
    pub occupancy: LaunchOccupancy,
    pub counters: KernelCounters,
}

impl TraceEvent {
    pub fn duration_us(&self) -> f64 {
        self.t_end_us - self.t_start_us
    }

    /// DRAM read throughput over the kernel's lifetime, MB/s.
    pub fn dram_read_throughput_mbps(&self) -> f64 {
        let d = self.duration_us();
        if d <= 0.0 {
            return 0.0;
        }
        // bytes / us = MB/s.
        self.counters.global_bytes_read as f64 / d
    }
}

/// One contiguous run of block-chunks a host worker executed for one
/// launch during the asynchronous drain (wall-clock, unlike the
/// simulated-device times in [`TraceEvent`]). Overlapping spans on
/// *different* workers for *different* launches are host-side kernel
/// concurrency made visible — the host analogue of the paper's Fig. 6
/// stream overlap.
#[derive(Debug, Clone)]
pub struct HostSpan {
    /// Host worker id; 0 is the application thread.
    pub worker: usize,
    /// Global launch index of the launch whose blocks ran.
    pub launch_idx: u64,
    pub kernel_name: &'static str,
    /// Wall-clock µs since the owning `Gpu` was created.
    pub t_start_us: f64,
    pub t_end_us: f64,
    /// Blocks executed within this span.
    pub blocks: u64,
}

impl HostSpan {
    pub fn duration_us(&self) -> f64 {
        self.t_end_us - self.t_start_us
    }

    /// Whether two spans overlap in wall-clock time.
    pub fn overlaps(&self, other: &HostSpan) -> bool {
        self.t_start_us < other.t_end_us && other.t_start_us < self.t_end_us
    }
}

/// Aggregate statistics for one kernel name across many launches.
#[derive(Debug, Clone, Default)]
pub struct KernelProfile {
    pub launches: u64,
    pub blocks: u64,
    pub total_time_us: f64,
    pub counters: KernelCounters,
    /// Launch counts per occupancy-limiting factor (stable labels from
    /// [`crate::sched::OccupancyLimit::as_str`]): which residency budget
    /// bounded this kernel's block residency, and how often.
    pub limits: BTreeMap<&'static str, u64>,
}

impl KernelProfile {
    pub fn branch_efficiency(&self) -> f64 {
        self.counters.branch_efficiency()
    }

    /// Mean DRAM read throughput while this kernel was executing, MB/s.
    pub fn dram_read_throughput_mbps(&self) -> f64 {
        if self.total_time_us <= 0.0 {
            return 0.0;
        }
        self.counters.global_bytes_read as f64 / self.total_time_us
    }
}

/// Accumulates traces across synchronization scopes.
#[derive(Default)]
pub struct Profiler {
    traces: Vec<TraceEvent>,
    per_kernel: BTreeMap<&'static str, KernelProfile>,
    host_spans: Vec<HostSpan>,
    /// `(start, end)` of every stretch the application thread spent in the
    /// timing simulation, wall-clock µs on the host spans' clock: one per
    /// scope when the simulation follows the drain, one per stretch
    /// between two turns as a drain worker when it pulls the drain.
    timing_spans: Vec<(f64, f64)>,
    opaque_launches: u64,
}

/// Host and timing spans carry host wall-clock times and so vary run to
/// run; they are omitted here so a `Debug` fingerprint of the profiler
/// stays deterministic (only the simulated-device state participates).
impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("traces", &self.traces)
            .field("per_kernel", &self.per_kernel)
            .field("opaque_launches", &self.opaque_launches)
            .finish_non_exhaustive()
    }
}

impl Profiler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest the events of one timing simulation.
    pub fn absorb(&mut self, events: &[TraceEvent]) {
        for e in events {
            let p = self.per_kernel.entry(e.kernel_name).or_default();
            p.launches += 1;
            p.blocks += e.blocks;
            p.total_time_us += e.duration_us();
            p.counters.add(&e.counters);
            *p.limits.entry(e.occupancy.limit.as_str()).or_insert(0) += 1;
            self.traces.push(e.clone());
        }
    }

    /// Ingest host-execution spans from one asynchronous drain.
    pub fn absorb_host_spans(&mut self, spans: Vec<HostSpan>) {
        self.host_spans.extend(spans);
    }

    /// Ingest one stretch of the application thread simulating.
    pub(crate) fn absorb_timing_span(&mut self, t_start_us: f64, t_end_us: f64) {
        self.timing_spans.push((t_start_us, t_end_us));
    }

    /// Host wall-clock µs the application thread spent in the timing
    /// simulation ([`crate::sched::simulate`]) across all synchronization
    /// scopes, the bodies it ran as a drain worker in between excluded.
    /// Kept apart from [`Profiler::host_spans`], which are kernel bodies
    /// only: the simulation is simulator overhead, not simulated work.
    pub fn timing_host_us(&self) -> f64 {
        self.timing_spans.iter().map(|(t0, t1)| t1 - t0).sum()
    }

    /// Ingest the count of undeclared-access (full-barrier) launches
    /// harvested from the dependency tracker at a sync point.
    pub(crate) fn add_opaque_launches(&mut self, n: u64) {
        self.opaque_launches += n;
    }

    /// Launches enqueued without a declared [`AccessSet`](crate::AccessSet)
    /// (the [`Kernel::access`](crate::Kernel::access) default). Each one
    /// is a full barrier: it forbids both asynchronous overlap and
    /// fusion, so a non-zero count flags kernels silently serializing
    /// the pipeline.
    pub fn opaque_launches(&self) -> u64 {
        self.opaque_launches
    }

    /// All recorded trace rows, in launch order.
    pub fn traces(&self) -> &[TraceEvent] {
        &self.traces
    }

    /// Host-execution spans, sorted by (worker, start time).
    pub fn host_spans(&self) -> &[HostSpan] {
        &self.host_spans
    }

    /// Aggregate per-kernel profiles, keyed by kernel name.
    pub fn kernels(&self) -> &BTreeMap<&'static str, KernelProfile> {
        &self.per_kernel
    }

    /// Device-wide branch efficiency across every metered kernel.
    pub fn branch_efficiency(&self) -> f64 {
        let mut total = KernelCounters::default();
        for p in self.per_kernel.values() {
            total.add(&p.counters);
        }
        total.branch_efficiency()
    }

    /// Clear all recorded data.
    pub fn reset(&mut self) {
        self.traces.clear();
        self.per_kernel.clear();
        self.host_spans.clear();
        self.timing_spans.clear();
        self.opaque_launches = 0;
    }

    /// Render the trace in the Chrome trace-event format (a JSON array of
    /// `"ph": "X"` complete events) for `chrome://tracing` / Perfetto.
    /// Timestamps and durations are already in microseconds — the
    /// viewer's native unit — and the stream index becomes the thread
    /// lane, so batched-vs-serial request timelines can be eyeballed
    /// side by side.
    pub fn render_chrome_trace(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        for e in &self.traces {
            Self::push_device_event(&mut out, &mut first, e);
        }
        out.push_str("\n]\n");
        out
    }

    /// Append one trace row as a `"cat":"kernel"` complete event,
    /// preceded — when the launch paid a non-zero overhead — by its own
    /// `"cat":"overhead"` slice spanning `[t_start - overhead, t_start]`,
    /// so launch cost shows up as a distinct ribbon in the viewer rather
    /// than silently padding the gap between kernels, and followed by a
    /// `"cat":"occupancy"` slice over the kernel's interval that nests
    /// under it in the viewer, naming the residency budget that bounded
    /// the launch (warps vs registers vs smem vs threads vs blocks) and
    /// the block/warp residency that budget allowed.
    fn push_device_event(out: &mut String, first: &mut bool, e: &TraceEvent) {
        if e.overhead_us > 0.0 {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&format!(
                "\n  {{\"name\":\"launch {}\",\"cat\":\"overhead\",\"ph\":\"X\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"pid\":0,\"tid\":{},\"args\":{{\"launch\":{}}}}}",
                e.kernel_name,
                e.t_start_us - e.overhead_us,
                e.overhead_us,
                e.stream.index(),
                e.launch_idx,
            ));
        }
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&format!(
            "\n  {{\"name\":\"{}\",\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":0,\"tid\":{},\"args\":{{\"launch\":{},\"blocks\":{}}}}}",
            e.kernel_name,
            e.t_start_us,
            e.duration_us(),
            e.stream.index(),
            e.launch_idx,
            e.blocks,
        ));
        out.push(',');
        out.push_str(&format!(
            "\n  {{\"name\":\"occupancy {}\",\"cat\":\"occupancy\",\"ph\":\"X\",\"ts\":{:.3},\
             \"dur\":{:.3},\"pid\":0,\"tid\":{},\"args\":{{\"launch\":{},\"limit\":\"{}\",\
             \"blocks_per_sm\":{},\"resident_warps\":{}}}}}",
            e.kernel_name,
            e.t_start_us,
            e.duration_us(),
            e.stream.index(),
            e.launch_idx,
            e.occupancy.limit.as_str(),
            e.occupancy.blocks_per_sm,
            e.occupancy.resident_warps,
        ));
    }

    /// [`Profiler::render_chrome_trace`] plus a host-execution lane:
    /// every host worker becomes a row under `pid:1` showing which
    /// launch's block-chunks it ran when (wall-clock µs). Two spans from
    /// different launches overlapping on different rows is asynchronous
    /// launch overlap, visible at a glance. The timing simulation shows on
    /// the application thread's row as `sched.simulate` slices: one after
    /// the drain at one host thread, and at more one per stretch between
    /// the bodies that thread ran while the simulation waited for their
    /// launch — never over one. Kept out of the default renderer so device-only
    /// traces stay byte-identical across host thread counts (host spans
    /// are wall-clock and inherently not).
    pub fn render_chrome_trace_with_host(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        for e in &self.traces {
            Self::push_device_event(&mut out, &mut first, e);
        }
        for s in &self.host_spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n  {{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"launch\":{},\"blocks\":{}}}}}",
                s.kernel_name,
                s.t_start_us,
                s.duration_us(),
                s.worker,
                s.launch_idx,
                s.blocks,
            ));
        }
        for &(t0, t1) in &self.timing_spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n  {{\"name\":\"sched.simulate\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"pid\":1,\"tid\":0}}",
                t0,
                t1 - t0,
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, stream: u32, t0: f64, t1: f64, read: u64) -> TraceEvent {
        TraceEvent {
            launch_idx: 0,
            kernel_name: name,
            stream: StreamId(stream),
            t_start_us: t0,
            t_end_us: t1,
            blocks: 1,
            overhead_us: 0.0,
            occupancy: LaunchOccupancy {
                limit: crate::sched::OccupancyLimit::Warps,
                blocks_per_sm: 2,
                resident_warps: 36,
            },
            counters: KernelCounters {
                global_bytes_read: read,
                branches: 100,
                divergent_branches: 2,
                ..KernelCounters::default()
            },
        }
    }

    #[test]
    fn profiler_aggregates_by_kernel_name() {
        let mut p = Profiler::new();
        p.absorb(&[ev("cascade", 1, 0.0, 10.0, 1000), ev("cascade", 2, 5.0, 25.0, 3000)]);
        let k = &p.kernels()["cascade"];
        assert_eq!(k.launches, 2);
        assert_eq!(k.total_time_us, 30.0);
        assert_eq!(k.counters.global_bytes_read, 4000);
        assert_eq!(k.limits["warps"], 2, "limiting factor tallied per launch");
    }

    #[test]
    fn dram_throughput_is_bytes_per_us() {
        // 500 bytes over 1 us = 500 MB/s.
        let e = ev("k", 1, 0.0, 1.0, 500);
        assert!((e.dram_read_throughput_mbps() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn branch_efficiency_aggregates_over_kernels() {
        let mut p = Profiler::new();
        p.absorb(&[ev("a", 1, 0.0, 1.0, 0), ev("b", 1, 0.0, 1.0, 0)]);
        // 200 branches, 4 divergent => 98%.
        assert!((p.branch_efficiency() - 0.98).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_is_a_json_array_of_complete_events() {
        let mut p = Profiler::new();
        p.absorb(&[ev("scale", 3, 1.0, 2.5, 0), ev("cascade", 1, 2.5, 10.0, 64)]);
        let s = p.render_chrome_trace();

        // Shape: one JSON array, a kernel slice plus a nested occupancy
        // slice per trace row, comma-separated.
        assert!(s.starts_with('['));
        assert!(s.trim_end().ends_with(']'));
        assert_eq!(s.matches("\"name\"").count(), 2 * p.traces().len());
        assert_eq!(s.matches("\"ph\":\"X\"").count(), 2 * p.traces().len());
        assert_eq!(s.matches("\"cat\":\"kernel\"").count(), p.traces().len());
        assert_eq!(s.matches("\"cat\":\"occupancy\"").count(), p.traces().len());
        assert_eq!(s.matches("},").count(), 2 * p.traces().len() - 1, "comma-separated");
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
        assert_eq!(s.matches('"').count() % 2, 0, "quotes must balance");

        // Content: µs timestamps/durations and the stream as the lane.
        assert!(s.contains("\"name\":\"scale\""));
        assert!(s.contains("\"ts\":1.000"));
        assert!(s.contains("\"dur\":1.500"));
        assert!(s.contains("\"tid\":3"));
        assert!(s.contains("\"name\":\"cascade\""));
        assert!(s.contains("\"dur\":7.500"));
        // The occupancy ribbon names the limiting budget per launch.
        assert!(s.contains("\"name\":\"occupancy cascade\""));
        assert!(s.contains("\"limit\":\"warps\",\"blocks_per_sm\":2,\"resident_warps\":36"));
    }

    #[test]
    fn chrome_trace_of_empty_profiler_is_an_empty_array() {
        let p = Profiler::new();
        assert_eq!(p.render_chrome_trace(), "[\n]\n");
    }

    #[test]
    fn launch_overhead_renders_as_its_own_slice() {
        let mut p = Profiler::new();
        let mut with_overhead = ev("scale", 3, 5.0, 7.0, 0);
        with_overhead.overhead_us = 4.0;
        p.absorb(&[with_overhead, ev("cascade", 1, 7.0, 10.0, 64)]);
        let s = p.render_chrome_trace();

        // One extra slice for the launch that paid overhead, none for the
        // one that did not; every kernel slice drags its occupancy
        // ribbon; the JSON stays well-formed.
        assert_eq!(s.matches("\"cat\":\"overhead\"").count(), 1);
        assert_eq!(s.matches("\"cat\":\"kernel\"").count(), 2);
        assert_eq!(s.matches("\"cat\":\"occupancy\"").count(), 2);
        assert_eq!(s.matches("\"name\"").count(), 5);
        assert_eq!(s.matches("},").count(), 4, "comma-separated");
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('"').count() % 2, 0, "quotes must balance");

        // The slice ends where the kernel starts: [t_start-ovh, t_start].
        assert!(s.contains("\"name\":\"launch scale\""));
        assert!(s.contains("\"ts\":1.000,\"dur\":4.000"));
        // Host renderer shows the same slice.
        assert_eq!(p.render_chrome_trace_with_host(), s);
    }

    #[test]
    fn opaque_launch_count_accumulates_and_resets() {
        let mut p = Profiler::new();
        assert_eq!(p.opaque_launches(), 0);
        p.add_opaque_launches(2);
        p.add_opaque_launches(1);
        assert_eq!(p.opaque_launches(), 3);
        p.reset();
        assert_eq!(p.opaque_launches(), 0);
    }

    fn span(worker: usize, launch: u64, t0: f64, t1: f64) -> HostSpan {
        HostSpan {
            worker,
            launch_idx: launch,
            kernel_name: "k",
            t_start_us: t0,
            t_end_us: t1,
            blocks: 8,
        }
    }

    #[test]
    fn host_lane_renders_under_its_own_pid_and_leaves_default_untouched() {
        let mut p = Profiler::new();
        p.absorb(&[ev("scale", 3, 1.0, 2.5, 0)]);
        let device_only = p.render_chrome_trace();
        p.absorb_host_spans(vec![span(0, 0, 0.0, 5.0), span(1, 1, 1.0, 4.0)]);
        // Default renderer ignores host spans entirely.
        assert_eq!(p.render_chrome_trace(), device_only);
        let s = p.render_chrome_trace_with_host();
        assert_eq!(s.matches("\"cat\":\"host\"").count(), 2);
        assert_eq!(s.matches("\"pid\":1").count(), 2);
        assert!(s.contains("\"tid\":0") && s.contains("\"tid\":1"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches("},").count() + 1, s.matches("\"name\"").count());
        // The timing phase shows on the lane without becoming a host span.
        p.absorb_timing_span(5.0, 7.5);
        assert_eq!(p.timing_host_us(), 2.5);
        assert_eq!(p.host_spans().len(), 2);
        assert_eq!(p.render_chrome_trace(), device_only);
        assert!(!format!("{p:?}").contains("timing"), "Debug stays wall-clock-free");
        let s = p.render_chrome_trace_with_host();
        assert!(s.contains("\"name\":\"sched.simulate\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":5.000,\"dur\":2.500,\"pid\":1,\"tid\":0}"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches("},").count() + 1, s.matches("\"name\"").count());
        // Reset drops the lane.
        p.reset();
        assert_eq!(p.timing_host_us(), 0.0);
        assert!(p.host_spans().is_empty());
        assert_eq!(p.render_chrome_trace_with_host(), "[\n]\n");
    }

    #[test]
    fn host_spans_report_overlap() {
        assert!(span(0, 0, 0.0, 5.0).overlaps(&span(1, 1, 4.0, 9.0)));
        assert!(!span(0, 0, 0.0, 5.0).overlaps(&span(1, 1, 5.0, 9.0)));
    }
}
