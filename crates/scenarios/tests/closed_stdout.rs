//! `perfiso-run` writing into a reader that has already gone away, as in
//! `perfiso-run show graph-chain | true`: every command ends quietly with
//! exit status 0, and `run` still writes its `--out` report.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// Runs `perfiso-run` with standard output on a pipe whose read end is
/// closed before the process starts, so its first write meets a broken
/// pipe.
fn into_closed_pipe(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_perfiso-run"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("perfiso-run starts")
}

fn assert_quiet_success(args: &[&str]) {
    let out = into_closed_pipe(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(stderr.is_empty(), "{args:?} wrote to stderr: {stderr}");
}

#[test]
fn list_and_show_exit_quietly() {
    assert_quiet_success(&["list"]);
    assert_quiet_success(&["show", "graph-chain"]);
    assert_quiet_success(&["show", "dual-primary-arbitration"]);
}

#[test]
fn run_finishes_its_report_and_exits_quietly() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("closed-stdout-report.json");
    let _ = std::fs::remove_file(&path);
    let path_arg = path.to_str().expect("utf-8 path");
    assert_quiet_success(&[
        "run",
        "standalone",
        "--scale",
        "0.1",
        "--seeds",
        "1",
        "--out",
        path_arg,
    ]);
    let report = std::fs::read_to_string(&path).expect("report written");
    assert!(report.contains("\"summary\""), "{report}");
}

#[test]
fn errors_still_fail_with_a_label() {
    let out = into_closed_pipe(&["run", "no-such-scenario"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown scenario"), "{stderr}");
}
