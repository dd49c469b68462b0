//! The `explore` binary on hostile input: a spec nested far past the
//! JSON parser's depth limit is a one-line error with exit code 1 —
//! never a stack overflow, which would abort the process.

use std::process::Command;

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
