//! Golden tests of the `codesign` CLI's stdout. The CLI is a thin printer
//! over `CodesignFlow`, so these pin both the flow's choices and the
//! printing: the golden files hold the exact stdout of each command.

use std::process::Command;

/// Runs `codesign` with `args` and returns its stdout, asserting success.
fn codesign(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_codesign"))
        .args(args)
        .output()
        .expect("codesign runs");
    assert!(
        output.status.success(),
        "codesign {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

#[test]
fn stdout_matches_the_golden_text() {
    for (args, golden) in [
        (
            &[
                "seeds", "--quick", "--loss", "0.05", "--robust", "--trials", "4",
            ][..],
            include_str!("golden/seeds_quick_robust_trials4.txt"),
        ),
        (
            &["seeds", "--quick", "--lint=fix"][..],
            include_str!("golden/seeds_quick_lint_fix.txt"),
        ),
        (
            &["seeds", "--quick", "--lint=deny"][..],
            include_str!("golden/seeds_quick_lint_deny.txt"),
        ),
    ] {
        assert_eq!(codesign(args), golden, "codesign {args:?}");
    }
}

/// The `(τ, depth)` grid point a line names, e.g. `(τ=0, depth 6)`.
fn grid_point(line: &str) -> &str {
    let start = line.find("(τ=").expect("line names a grid point");
    let end = start + line[start..].find(')').expect("grid point closes");
    &line[start..=end]
}

#[test]
fn robust_runs_report_the_robust_choice() {
    // On WhiteWine the robust selection diverges from the plain one; the
    // design the CLI reports (and lints and exports) is the robust one.
    let stdout = codesign(&["whitewine", "--quick", "--robust", "--trials", "4"]);
    let line = |prefix: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no {prefix:?} line in:\n{stdout}"))
    };
    let robust = line("robust selection (");
    assert!(robust.contains("diverges"), "{robust}");
    assert_eq!(grid_point(line("co-design (")), grid_point(robust));
}
