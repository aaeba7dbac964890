//! The `wcds` binary's exit status: 2 for a usage error, 1 for a
//! well-formed command that fails, 0 otherwise — the convention `expt`
//! and every `bench_*` binary already follow.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_wcds"))
        .args(args)
        .output()
        .expect("the wcds binary runs")
        .status
        .code()
}

#[test]
fn usage_errors_exit_two_and_failed_commands_exit_one() {
    assert_eq!(exit_code(&[]), Some(0), "no arguments print the help");
    assert_eq!(exit_code(&["bogus"]), Some(2), "unknown subcommand");
    assert_eq!(exit_code(&["generate", "--bogus"]), Some(2), "unknown flag");
    for side in ["nan", "inf", "0", "-3"] {
        let args = ["generate", "--model", "uniform", "--n", "5", "--side", side, "-o", "-"];
        assert_eq!(exit_code(&args), Some(2), "--side {side}");
    }
    let missing = std::env::temp_dir()
        .join(format!("wcds-exit-status-{}", std::process::id()))
        .join("missing.graph");
    assert!(!missing.exists());
    let missing = missing.to_str().expect("a UTF-8 temp path");
    assert_eq!(exit_code(&["stats", "-i", missing]), Some(1), "unreadable input");
}
