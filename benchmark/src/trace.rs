//! The benchmark's own span recorder.
//!
//! Spans are recorded here, around calls into a layer's public API, and
//! never inside a layer. They stay in memory until the workload ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::union_len;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Host µs since the recorder was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The frame, batch or round this span belongs to.
    pub op: u64,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off between ops (never inside an open span).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "recorder toggled inside an open span");
        self.enabled = enabled;
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; it becomes the parent of spans opened before [`Self::exit`].
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let start_us = self.now_us();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.iter().rev().nth(1).copied(),
            op,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_us = self.now_us();
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_us - s.start_us).collect()
    }

    /// Chrome-trace JSON (open in `chrome://tracing` or ui.perfetto.dev).
    pub fn render_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{}}}}}{sep}",
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                s.op
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Self time (µs) per span name: each span's duration minus the part of
/// its interval that its child spans cover.
pub fn self_times_us(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let clipped = (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us));
            if clipped.0 < clipped.1 {
                children[p].push(clipped);
            }
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        *by_name.entry(s.name).or_insert(0.0) += (s.end_us - s.start_us) - union_len(kids);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span { name, start_us, end_us, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("op", 0.0, 100.0, None),
            span("a", 10.0, 40.0, Some(0)),
            // Overlaps `a`: the shared 30..40 is subtracted from `op` once.
            span("b", 30.0, 60.0, Some(0)),
            span("leaf", 35.0, 38.0, Some(2)),
            // Runs past its parent: only the part inside `op` counts.
            span("a", 90.0, 120.0, Some(0)),
        ];
        let t = self_times_us(&spans);
        assert_eq!(t["op"], 100.0 - (50.0 + 10.0));
        assert_eq!(t["a"], 30.0 + 30.0);
        assert_eq!(t["b"], 30.0 - 3.0);
        assert_eq!(t["leaf"], 3.0);
    }

    #[test]
    fn recorder_nests_and_a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.enter("op", 7);
        let v = rec.time("inner", 7, || 42);
        rec.exit();
        assert_eq!(v, 42);
        let s = rec.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("op", None, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_us <= s[1].start_us && s[1].end_us <= s[0].end_us);
        assert!(rec.render_chrome_trace().contains("\"name\":\"inner\""));

        let mut off = Recorder::new(false);
        assert_eq!(off.time("x", 0, || 1), 1);
        assert!(off.spans().is_empty());
    }
}
