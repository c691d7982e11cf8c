//! The `svmbench` command line: malformed input is a usage error (exit
//! status 2, usage on stderr), never a panic, and a well-formed call runs
//! its experiment.

use std::process::{Command, Output};

fn svmbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_svmbench"))
        .args(args)
        .output()
        .expect("svmbench must spawn")
}

#[test]
fn malformed_command_lines_are_usage_errors_and_table1_runs() {
    for args in [
        &["no_such_harness"][..],
        &["fig9", "--bogus"],
        &["fig9", "--iters", "x"],
        &["fig9", "--iters"],
        &["bench_fastpath", "--reps", "0"],
        &["ablation_notify", "--iters", "3"],
        &["table1", "--quick"],
        &[],
    ] {
        let out = svmbench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: svmbench"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} must not start the experiment"
        );
    }

    // The cheapest subcommand, end to end.
    let out = svmbench(&["table1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let header = "Table 1 — average overhead by using the SVM system\n";
    assert!(stdout.starts_with(header), "{stdout}");
}
