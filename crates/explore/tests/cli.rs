//! The `explore` binary on hostile input: a spec nested far past the
//! JSON parser's depth limit is a one-line error with exit code 1 —
//! never a stack overflow, which would abort the process — and a closed
//! stdout ends the report, not the run.

use std::path::PathBuf;
use std::process::{Command, Stdio};

#[test]
fn a_spec_nested_past_the_depth_limit_exits_1_with_one_line() {
    let dir = std::env::temp_dir().join(format!("explore-nested-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("nested.json");
    let grids = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
    std::fs::write(&path, format!(r#"{{"program":"espresso","grids":{grids}}}"#))
        .expect("write the spec");
    let out = Command::new(env!("CARGO_BIN_EXE_explore"))
        .arg("--spec")
        .arg(&path)
        .output()
        .expect("explore runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("recursion limit exceeded"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing is reported before the error");
}

/// Writes a two-point sweep spec into a fresh scratch directory named
/// for `test`; returns the directory and the spec's path.
fn two_point_spec(test: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("explore-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let spec = dir.join("sweep.json");
    std::fs::write(
        &spec,
        r#"{"program":"espresso","scale":0.001,"cache_kb":[16],"paging":false,
            "grids":[{"allocator":"BSD","min_shift":[3,4]}]}"#,
    )
    .expect("write the spec");
    (dir, spec)
}

#[test]
fn a_closed_stdout_ends_the_report_not_the_run() {
    // With no `--out`, the report goes to stdout, and a write there must
    // not panic ("failed printing to stdout", exit 101) once the reader
    // has gone.
    let (dir, spec) = two_point_spec("closed");
    let mut child = Command::new(env!("CARGO_BIN_EXE_explore"))
        .arg("--spec")
        .arg(&spec)
        .args(["--quiet", "--threads", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("explore starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("explore runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Runs `explore --bench` with `gate` on a two-point sweep; returns its
/// exit code and stderr.
fn bench_with_gate(gate: &str) -> (Option<i32>, String) {
    let (dir, spec) = two_point_spec(&format!("bench-{gate}"));
    let out = Command::new(env!("CARGO_BIN_EXE_explore"))
        .arg("--spec")
        .arg(&spec)
        .args(["--out", dir.join("report.jsonl").to_str().expect("utf-8 path")])
        .args(["--quiet", "--threads", "1", "--bench", "--gate", gate])
        .output()
        .expect("explore runs");
    let _ = std::fs::remove_dir_all(&dir);
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn a_bench_gate_miss_retimes_both_executors_twice_before_failing() {
    let timings = |stderr: &str| stderr.lines().filter(|l| l.starts_with("bench: shared")).count();
    let (code, stderr) = bench_with_gate("0.001");
    assert_eq!((code, timings(&stderr)), (Some(0), 1), "{stderr}");
    // No executor is a thousand times faster than the other: every
    // attempt misses, and the error names the best of the three.
    let (code, stderr) = bench_with_gate("1000");
    assert_eq!((code, timings(&stderr)), (Some(1), 3), "{stderr}");
    let last = stderr.lines().last().expect("an error line");
    assert!(last.contains("(best of 3 attempts) below the 1000.00x gate"), "{stderr}");
}
