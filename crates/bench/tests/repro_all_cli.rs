//! Command-line contract of the `repro_all` binary.

use std::process::Command;

#[test]
fn unknown_target_exits_2_and_lists_the_targets() {
    let out =
        Command::new(env!("CARGO_BIN_EXE_repro_all")).arg("fig10").output().expect("run repro_all");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("fig10"), "names the bad target: {err}");
    for target in [
        "table1",
        "table2",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "counters",
        "ablations",
        "ablation_rearrange",
        "ablation_softcascade",
        "ablation_multigpu",
    ] {
        assert!(err.contains(target), "lists `{target}`: {err}");
    }
}
