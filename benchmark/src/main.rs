//! The repo benchmark. One run = one workload, one pass:
//!
//! ```text
//! fd-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` yields the end-to-end metrics on both clocks (virtual
//! device time and host wall-clock); `--trace 1` wraps every call into a
//! layer's public API in a span and yields the per-layer metrics. Both
//! check that outputs are correct. See `README.md`.

mod gen;
mod harness;
mod metrics;
mod serving;
mod stages;
mod stats;
mod trace;
mod video;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use harness::{Ctx, Outcome, CASCADE_PATH};
use metrics::{per_layer, END_TO_END, RUN_SECONDS, WORKLOADS};

/// Simulator knobs that would silently change what is measured.
const FORBIDDEN_ENV: [&str; 4] = [
    fd_gpu::THREADS_ENV_VAR,
    fd_gpu::HOST_EXEC_ENV_VAR,
    fd_gpu::FUSION_ENV_VAR,
    fd_gpu::AUTOTUNE_ENV_VAR,
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Where a run leaves its result record and, when traced, its trace.
const OUT_DIR: &str = "benchmark/out";

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: fd-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      fd-benchmark --print-manifest",
        names.join("|")
    )
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: f64::from(RUN_SECONDS), trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-manifest" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(Some(args))
}

fn json_string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the measurement has. A non-finite
/// value is a harness bug; it is written as 0 and fails the run.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// One reported metric. `moves` is a per-layer metric's predicted
/// effect (see [`metrics::PerLayer::moves`]), empty for an end-to-end one.
struct Row {
    name: String,
    unit: &'static str,
    value: f64,
    moves: &'static str,
}

/// The metrics this pass reports, in table order.
fn reported(args: &Args, out: &Outcome) -> Vec<Row> {
    if args.trace {
        per_layer()
            .into_iter()
            .map(|m| Row {
                // A metric of a layer this workload does not use reads 0.
                value: out.per_layer.get(&m.name).copied().unwrap_or(0.0),
                name: m.name,
                unit: m.unit,
                moves: m.moves,
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| Row {
                name: m.name.to_string(),
                unit: m.unit,
                value: out.end_to_end.get(m.name).copied().unwrap_or(f64::NAN),
                moves: "",
            })
            .collect()
    }
}

fn metrics_json(rows: &[Row]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&r.name),
                json_number(r.value),
                json_string(r.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", metrics::manifest());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("{var} is set; the benchmark measures the program's defaults and refuses to run");
        return ExitCode::from(2);
    }
    let cascade_bytes = match std::fs::read(CASCADE_PATH) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {CASCADE_PATH}: {e} (run from the repo root)");
            return ExitCode::from(2);
        }
    };
    let mut cascade_fnv = stats::Fnv::default();
    cascade_fnv.eat_bytes(&cascade_bytes);

    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        rec: trace::Recorder::new(args.trace),
    };
    let out = match args.workload.as_str() {
        "trailer_1080p" => video::trailer_1080p(&mut ctx),
        "batch_vga_fused" => video::batch_vga_fused(&mut ctx),
        "serve_small_sweep" => serving::serve_small_sweep(&mut ctx),
        "fleet_chaos_mixed" => serving::fleet_chaos_mixed(&mut ctx),
        other => unreachable!("parse_args admitted {other}"),
    };

    let rows = reported(&args, &out);
    let finite = rows.iter().all(|r| r.value.is_finite());
    let correct = finite && out.failed == 0 && out.checks.iter().all(|c| c.ok);

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let host_threads =
        fd_gpu::Gpu::new(fd_gpu::DeviceSpec::gtx470(), fd_gpu::ExecMode::Concurrent).host_threads();
    let git_rev = std::env::var("FD_BENCH_GIT_REV").unwrap_or_else(|_| "unknown".into());
    println!(
        "workload {} seed {} seconds {} trace {} | nproc {nproc} host_threads {host_threads} \
         git {git_rev} cascade_fnv {:016x}",
        args.workload, args.seed, args.seconds, args.trace as u8, cascade_fnv.0
    );
    for Row { name, unit, value, moves } in &rows {
        let arrow = if moves.is_empty() { "" } else { "  -> " };
        println!("{name:<36} {value:>16.6} {unit:<5}{arrow}{moves}");
    }
    for note in &out.notes {
        println!("note: {note}");
    }
    for c in &out.checks {
        println!("check {:<22} {} {}", c.name, if c.ok { "ok" } else { "FAILED" }, c.detail);
    }
    println!("det_digest {:016x}", out.digest);
    for (name, self_us) in trace::self_times_us(ctx.rec.spans()) {
        println!("self time {name:<18} {:>12.3} ms", self_us / 1e3);
    }

    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                json_string(c.name),
                c.ok,
                json_string(&c.detail)
            )
        })
        .collect();
    let notes: Vec<String> = out.notes.iter().map(|n| json_string(n)).collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"host_threads\": {host_threads}, \"git_rev\": {}, \"cascade_fnv\": \"{:016x}\", \
         \"det_digest\": \"{:016x}\", \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \
         \"metrics\": {}, \"checks\": [{}], \"notes\": [{}]}}\n",
        json_string(&args.workload),
        args.seed,
        json_number(args.seconds),
        args.trace as u8,
        json_string(&git_rev),
        cascade_fnv.0,
        out.digest,
        out.attempted,
        out.failed,
        metrics_json(&rows),
        checks.join(", "),
        notes.join(", "),
    );
    let pass = args.trace as u8;
    let record_path = out_dir.join(format!("result_{}_trace{pass}.json", args.workload));
    let mut written = std::fs::write(&record_path, record);
    if args.trace && written.is_ok() {
        let trace_path = out_dir.join(format!("trace_{}.json", args.workload));
        written = std::fs::write(&trace_path, ctx.rec.render_chrome_trace());
        println!("trace: {} ({} spans)", trace_path.display(), ctx.rec.spans().len());
    }
    if let Err(e) = written {
        eprintln!("cannot write results under {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics_json(&rows)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
