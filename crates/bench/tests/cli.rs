//! Command-line error paths of the `figures` binary: a malformed command
//! line exits 2 before running anything and leaves no directory behind.

use std::path::PathBuf;
use std::process::Command;

/// Runs `figures` with `args` in a fresh empty working directory; returns
/// the exit code and the entries the run left in that directory.
fn run_in_empty_dir(case: usize, args: &[&str]) -> (Option<i32>, Vec<PathBuf>) {
    let cwd = std::env::temp_dir().join(format!("figures-cli-{}-{case}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("create temporary cwd");
    let status = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(&cwd)
        .output()
        .expect("spawn figures")
        .status;
    let left: Vec<PathBuf> = std::fs::read_dir(&cwd)
        .expect("read temporary cwd")
        .map(|e| e.expect("dir entry").path())
        .collect();
    std::fs::remove_dir_all(&cwd).expect("remove temporary cwd");
    (status.code(), left)
}

#[test]
fn malformed_command_lines_exit_2_and_leave_nothing_behind() {
    let cases: &[&[&str]] = &[
        // A valued flag never swallows the flag after it.
        &["--out", "--chaos", "chaos", "table2"],
        &["--jobs", "2", "--out", "--chaos", "chaos", "all"],
        &["--obs", "--telemetry", "tel", "table2"],
        &["--telemetry", "--out", "out", "table2"],
        &["--bench-out", "--bench-baseline", "b.json", "table2"],
        &["--bench-baseline", "--out", "out", "table2"],
        &["--seed", "--out", "out", "table2"],
        // A value is required at the end of the line too.
        &["table2", "--out"],
        // Unknown ids are rejected, with or without `all`.
        &["all", "fig99"],
        &["--out", "out", "fig99"],
        // Unknown scenarios are rejected before any directory exists.
        &["--out", "out", "--chaos", "no-such-scenario", "table2"],
    ];
    for (i, args) in cases.iter().enumerate() {
        let (code, left) = run_in_empty_dir(i, args);
        assert_eq!(code, Some(2), "figures {args:?}");
        assert!(left.is_empty(), "figures {args:?} left {left:?}");
    }
}
