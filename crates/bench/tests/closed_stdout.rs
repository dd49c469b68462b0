//! The binaries with a closed stdout: a reader that went away ends the
//! output, not the run. `trace-tool info` and `replay`, `repro` and
//! `report_check` each finish as they would with a reader and exit 0,
//! never with a "failed printing to stdout" panic (exit 101 and a
//! backtrace).

use std::path::Path;
use std::process::{Command, Output, Stdio};

use alloc_locality::{AllocChoice, Experiment};
use allocators::AllocatorKind;
use workloads::{Program, Scale};

/// Runs `exe` with the read end of its stdout pipe closed before it
/// writes a byte.
fn with_stdout_closed(exe: &str, args: &[&str]) -> Output {
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary starts");
    drop(child.stdout.take());
    child.wait_with_output().expect("the binary runs")
}

fn utf8(path: &Path) -> &str {
    path.to_str().expect("temp paths are UTF-8")
}

#[test]
fn every_binary_runs_to_the_end_with_its_stdout_closed() {
    let dir = std::env::temp_dir().join(format!("closed-stdout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let recording = dir.join("make-bsd.alsc");
    let record = Command::new(env!("CARGO_BIN_EXE_trace-tool"))
        .args(["record", "make", "bsd", utf8(&recording), "--scale", "0.001"])
        .output()
        .expect("trace-tool records");
    assert!(record.status.success(), "{}", String::from_utf8_lossy(&record.stderr));
    let reports = dir.join("reports.jsonl");
    let report = Experiment::new(Program::Make, AllocChoice::Paper(AllocatorKind::Bsd))
        .scale(Scale(0.001))
        .report()
        .expect("a report");
    std::fs::write(&reports, report.to_jsonl_line() + "\n").expect("write the report");

    let failures: Vec<String> = [
        (env!("CARGO_BIN_EXE_trace-tool"), vec!["info", utf8(&recording)]),
        (env!("CARGO_BIN_EXE_trace-tool"), vec!["replay", utf8(&recording), "--paging"]),
        (env!("CARGO_BIN_EXE_repro"), vec!["--scale", "0.001", "--threads", "1", "table1"]),
        (env!("CARGO_BIN_EXE_report_check"), vec![utf8(&reports), "--expect", "1"]),
    ]
    .into_iter()
    .filter_map(|(exe, args)| {
        let out = with_stdout_closed(exe, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let failed = !out.status.success() || stderr.contains("panicked");
        failed.then(|| format!("{exe} {args:?}: {:?}: {stderr}", out.status))
    })
    .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
