//! What the four workloads share: the run context, the timed loop over a
//! fixed pool of ops, set-up timing and the result record.

use std::collections::BTreeMap;
use std::time::Instant;

use fd_detector::{FrameResult, GroupedDetection};
use fd_haar::Cascade;

use crate::stats::{median, nearest_rank, sorted, tail, Fnv, MIN_BEYOND};
use crate::trace::Recorder;

/// The shipped pre-trained cascade; nothing is trained at bench time.
pub const CASCADE_PATH: &str = "assets/ours-gentle.cascade";

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub rec: Recorder,
}

pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Self {
        Self { name, ok, detail: detail.into() }
    }
}

/// Everything one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Ops (frames, batches, requests) in the reference cycle.
    pub attempted: u64,
    /// Ops that ended without any outcome or with a wrong one. An
    /// outcome the fault plan forces (failed, expired, evicted, shed) is
    /// not counted here; it lowers `ok_share`.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// FNV-1a over every detection and the kind of every terminal
    /// outcome of the reference cycle; no timestamps.
    pub digest: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Filled by a traced run only.
    pub per_layer: BTreeMap<String, f64>,
    /// Context printed beside the numbers (percentile used, sample counts, limits).
    pub notes: Vec<String>,
}

/// How long a workload's set-up took: cascade load and validation,
/// constructors and one warm-up op. Input generation is outside.
pub struct SetupTime {
    /// Median over the repetitions; all but the first run in a warm process.
    pub median_s: f64,
    /// The first repetition, the only one that pays the process's cold
    /// costs (page cache, allocator growth, lazy statics).
    pub first_s: f64,
    pub reps: usize,
}

/// Run a workload's set-up `reps` times, timing each, and keep the state
/// the last one built. Each repetition drops the previous state first,
/// so two never coexist in the peak-RSS figure.
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (SetupTime, T) {
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps {
        drop(state.take());
        let t = Instant::now();
        state = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    let time = SetupTime { median_s: median(&times), first_s: times[0], reps };
    (time, state.expect("at least one set-up repetition"))
}

impl Outcome {
    /// `setup_s`, the note that says it is a warm median, and in a
    /// traced run the cold first repetition as `setup.first_s`.
    pub fn record_setup(&mut self, setup: &SetupTime, trace: bool) {
        self.end_to_end.insert("setup_s", setup.median_s);
        self.notes.push(format!(
            "setup_s is the median of {} set-ups inside this one process, so all but the first \
             are warm; the first (cold) took {:.4} s",
            setup.reps, setup.first_s
        ));
        if trace {
            self.per_layer.insert("setup.first_s".into(), setup.first_s);
        }
    }
}

pub fn load_cascade() -> Cascade {
    fd_haar::io::load(CASCADE_PATH)
        .unwrap_or_else(|e| panic!("cannot load {CASCADE_PATH} (run from the repo root): {e}"))
}

/// What one op reports back to the loop.
pub struct OpOut {
    /// Host wall time of the op's timed calls, ms.
    pub host_ms: f64,
    /// Digest of everything the op output.
    pub digest: u64,
}

pub struct Driven {
    pub untraced_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    pub digest: u64,
    /// Ops of later cycles whose digest differed from the reference cycle.
    pub repeat_mismatches: u64,
    pub ops: u64,
}

/// Untraced ops a traced run needs for `trace.overhead_ratio`.
const MIN_UNTRACED_IN_TRACED_RUN: usize = 4;

/// The timed loop. The workload is a fixed pool of `pool` ops; the loop
/// cycles through it until `ctx.seconds` have passed and the first cycle
/// (the *reference cycle*) is complete. Virtual-time metrics, shares and
/// the digest come from the reference cycle only, so they repeat exactly
/// for a seed however fast the host is; host-time samples come from
/// every op. Later cycles must reproduce the reference digests.
///
/// In a traced run the reference cycle is traced and later ops alternate
/// untraced/traced, which yields the tracing overhead from one process.
pub fn drive(
    ctx: &mut Ctx,
    pool: usize,
    mut op: impl FnMut(&mut Recorder, u64, usize, bool) -> OpOut,
) -> Driven {
    let start = Instant::now();
    let mut d = Driven {
        untraced_ms: Vec::new(),
        traced_ms: Vec::new(),
        digest: 0,
        repeat_mismatches: 0,
        ops: 0,
    };
    let mut reference = Vec::with_capacity(pool);
    let mut run_digest = Fnv::default();
    loop {
        let i = d.ops as usize;
        let in_reference = i < pool;
        let enough_untraced = !ctx.trace || d.untraced_ms.len() >= MIN_UNTRACED_IN_TRACED_RUN;
        if !in_reference && start.elapsed().as_secs_f64() >= ctx.seconds && enough_untraced {
            break;
        }
        let traced = ctx.trace && (in_reference || i % 2 == 1);
        ctx.rec.set_enabled(traced);
        let out = op(&mut ctx.rec, d.ops, i % pool, in_reference);
        if in_reference {
            reference.push(out.digest);
            run_digest.eat(out.digest);
        } else if reference[i % pool] != out.digest {
            d.repeat_mismatches += 1;
        }
        if traced { &mut d.traced_ms } else { &mut d.untraced_ms }.push(out.host_ms);
        d.ops += 1;
    }
    d.digest = run_digest.0;
    d
}

impl Driven {
    pub fn repeat_check(&self) -> Check {
        Check::new(
            "cycles_repeat",
            self.repeat_mismatches == 0,
            format!(
                "{} ops, {} differed from the reference cycle",
                self.ops, self.repeat_mismatches
            ),
        )
    }

    /// `host_ms_p50` with the note that carries its quartiles, and in a
    /// traced run `trace.overhead_ratio`.
    pub fn host_metrics(&self, trace: bool, out: &mut Outcome) {
        let samples = if trace { &self.traced_ms } else { &self.untraced_ms };
        let s = sorted(samples);
        let p50 = nearest_rank(&s, 0.5);
        out.end_to_end.insert("host_ms_p50", p50);
        out.notes.push(format!(
            "host_ms_p50 over {} ops, quartiles {:.4} / {:.4} ms",
            s.len(),
            nearest_rank(&s, 0.25),
            nearest_rank(&s, 0.75)
        ));
        if trace {
            out.per_layer.insert("trace.overhead_ratio".into(), p50 / median(&self.untraced_ms));
        }
    }
}

/// Shared tail of every workload's end-to-end block.
pub fn latency_metrics(virt_ms: &[f64], out: &mut Outcome) {
    let t = tail(virt_ms);
    out.end_to_end.insert("virt_ms_p50", median(virt_ms));
    out.end_to_end.insert("virt_ms_tail", t.value);
    out.notes.push(format!(
        "virt_ms_tail is {} of {} samples, {} beyond it{}",
        t.label,
        t.samples,
        t.beyond,
        if t.beyond < MIN_BEYOND { " (fewer than 10: a thin tail)" } else { "" }
    ));
}

fn eat_grouped(h: &mut Fnv, d: &GroupedDetection) {
    h.eat(d.rect.x as u64);
    h.eat(d.rect.y as u64);
    h.eat(u64::from(d.rect.w));
    h.eat(u64::from(d.rect.h));
    h.eat(u64::from(d.score.to_bits()));
    h.eat(d.neighbors as u64);
}

/// Fold one frame's detections, raw and grouped. No time enters the
/// digest: a change that only moves the virtual clock leaves it alone.
pub fn eat_result(h: &mut Fnv, r: &FrameResult) {
    h.eat(r.raw.len() as u64);
    for d in &r.raw {
        h.eat(d.rect.x as u64);
        h.eat(d.rect.y as u64);
        h.eat(u64::from(d.rect.w));
        h.eat(u64::from(d.score.to_bits()));
        h.eat(d.scale as u64);
    }
    h.eat(r.detections.len() as u64);
    for d in &r.detections {
        eat_grouped(h, d);
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
