//! Regenerates the paper's tables and figures and the design ablations,
//! in process, writing CSVs (and `counters.txt`) under `results/`:
//!
//! ```text
//! cargo run -p fd-bench --release --bin repro_all                 # every target
//! cargo run -p fd-bench --release --bin repro_all -- fig5 fig7    # some
//! cargo run -p fd-bench --release --bin repro_all -- table2 --frames 3
//! ```
//!
//! Each target keeps its own `--flag value` options (see its doc); flags
//! given on the command line reach every target that reads them. An
//! unknown target exits 2 and lists the valid ones.

mod ablations;
mod figures;
mod tables;

const TARGETS: [(&str, fn()); 12] = [
    ("table1", tables::table1),
    ("table2", tables::table2),
    ("fig5", figures::fig5),
    ("fig6", figures::fig6),
    ("fig7", figures::fig7),
    ("fig8", figures::fig8),
    ("fig9", figures::fig9),
    ("counters", tables::counters),
    ("ablations", ablations::ablations),
    ("ablation_rearrange", ablations::ablation_rearrange),
    ("ablation_softcascade", ablations::ablation_softcascade),
    ("ablation_multigpu", ablations::ablation_multigpu),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Target names are the arguments that are neither a flag nor a
    // flag's value.
    let names: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && (*i == 0 || !args[i - 1].starts_with("--")))
        .map(|(_, a)| a.as_str())
        .collect();
    if let Some(bad) = names.iter().find(|n| !TARGETS.iter().any(|(t, _)| t == *n)) {
        let valid: Vec<&str> = TARGETS.iter().map(|(t, _)| *t).collect();
        eprintln!("repro_all: unknown target `{bad}`; targets: {}", valid.join(" "));
        std::process::exit(2);
    }
    for (name, run) in TARGETS {
        if names.is_empty() || names.contains(&name) {
            println!("\n================= {name} =================\n");
            run();
        }
    }
    println!("\nall reproductions completed; CSVs in results/");
}
