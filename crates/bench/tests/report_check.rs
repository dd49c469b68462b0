//! `report_check` on hostile input: a line nested far past the JSON
//! parser's depth limit is a one-line error with exit code 1 — never a
//! stack overflow, which would abort the process.

use std::process::Command;

#[test]
fn a_line_nested_past_the_depth_limit_exits_1_with_one_line() {
    let dir = std::env::temp_dir().join(format!("report-check-nested-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("nested.jsonl");
    std::fs::write(&path, format!("{}\n", "[".repeat(100_000))).expect("write the file");
    let out = Command::new(env!("CARGO_BIN_EXE_report_check"))
        .arg(&path)
        .output()
        .expect("report_check runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("recursion limit exceeded"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing is reported before the error");
}
