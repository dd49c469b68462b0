//! `trace-tool` end to end: `record` writes one experiment's reference
//! stream as an ALSC file, `info` and `replay` read it back with the
//! counts and miss rates the engine measures for the same run, and an
//! unwritable, truncated or bit-flipped file, an impossible cache
//! geometry or an invalid scale is a one-line error with exit code 1 —
//! never a panic or a hang, and never a replay of the wrong stream.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use alloc_locality::{AllocChoice, Experiment};
use allocators::AllocatorKind;
use cache_sim::CacheConfig;
use workloads::{Program, Scale};

/// The recorded workload: make under BSD at this scale.
const SCALE: &str = "0.001";

fn trace_tool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace-tool")).args(args).output().expect("trace-tool runs")
}

fn engine_run(caches: Vec<CacheConfig>, paging: bool) -> alloc_locality::RunResult {
    Experiment::new(Program::Make, AllocChoice::Paper(AllocatorKind::Bsd))
        .scale(Scale(SCALE.parse().expect("scale")))
        .caches(caches)
        .paging(paging)
        .run()
        .expect("engine run")
}

/// A fresh per-test scratch directory.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trace-tool-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn utf8(path: &Path) -> &str {
    path.to_str().expect("temp paths are UTF-8")
}

fn record(out: &Path) -> Output {
    trace_tool(&["record", "make", "bsd", utf8(out), "--scale", SCALE])
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Asserts exit code 1 with a one-line message on stderr and nothing
/// on stdout.
fn assert_fails_in_one_line(out: &Output, what: &str) {
    let err = text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{what}: exit status; stderr: {err}");
    assert_eq!(err.lines().count(), 1, "{what}: expected one line, got {err:?}");
    assert!(!err.contains("panicked"), "{what}: {err}");
    assert!(out.stdout.is_empty(), "{what}: printed {:?}", text(&out.stdout));
}

#[test]
fn info_reports_the_engine_reference_counts() {
    let dir = scratch("info");
    let path = dir.join("make-bsd.alsc");
    let recorded = record(&path);
    assert!(recorded.status.success(), "record: {}", text(&recorded.stderr));

    let s = engine_run(vec![], false).trace;
    let out = trace_tool(&["info", utf8(&path)]);
    assert!(out.status.success(), "info: {}", text(&out.stderr));
    let info = text(&out.stdout);
    assert!(info.contains(&format!(": {} references in ", s.total_refs())), "{info}");
    let app = format!(
        "  app:  {} refs ({} reads, {} writes), {} words",
        s.app_refs(),
        s.app_reads,
        s.app_writes,
        s.app_words
    );
    let meta = format!(
        "  meta: {} refs ({} reads, {} writes), {} words",
        s.meta_refs(),
        s.meta_reads,
        s.meta_writes,
        s.meta_words
    );
    assert!(info.lines().any(|l| l == app), "expected {app:?} in {info}");
    assert!(info.lines().any(|l| l == meta), "expected {meta:?} in {info}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_prints_the_engine_miss_rate() {
    let dir = scratch("replay");
    let path = dir.join("make-bsd.alsc");
    let recorded = record(&path);
    assert!(recorded.status.success(), "record: {}", text(&recorded.stderr));

    let k16 = CacheConfig::direct_mapped(16 * 1024, 32);
    let run = engine_run(vec![k16], true);
    let stats = run.cache_stats(k16).expect("16K simulated");
    let out = trace_tool(&["replay", utf8(&path), "--cache-kb", "16", "--paging"]);
    assert!(out.status.success(), "replay: {}", text(&out.stderr));
    let replay = text(&out.stdout);
    let expected = [
        format!("replayed {} references from {}", run.trace.total_refs(), path.display()),
        format!(
            "  {k16}: {:.3}% miss rate ({} misses, {} cold)",
            stats.miss_rate() * 100.0,
            stats.misses(),
            stats.cold_misses
        ),
    ];
    for line in expected {
        assert!(replay.lines().any(|l| l == line), "expected {line:?} in {replay}");
    }
    let curve = run.fault_curve.expect("paging simulated");
    let working_set = format!("working set {} KB", curve.working_set_frames() * 4);
    assert!(replay.contains(&working_set), "expected {working_set:?} in {replay}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_paths_files_and_flags_fail_in_one_line() {
    let dir = scratch("damage");
    let unwritable = dir.join("no-such-dir").join("t.alsc");
    assert_fails_in_one_line(&record(&unwritable), "record to an unwritable path");

    let path = dir.join("t.alsc");
    let recorded = record(&path);
    assert!(recorded.status.success(), "record: {}", text(&recorded.stderr));
    let bytes = std::fs::read(&path).expect("read recording");
    let truncated = dir.join("truncated.alsc");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).expect("write truncated copy");
    let mut flipped_bytes = bytes.clone();
    flipped_bytes[bytes.len() / 2] ^= 0x01;
    let flipped = dir.join("flipped.alsc");
    std::fs::write(&flipped, &flipped_bytes).expect("write flipped copy");

    for (file, what) in [(&truncated, "a truncated file"), (&flipped, "a one-bit flip")] {
        for cmd in ["info", "replay"] {
            let out = trace_tool(&[cmd, utf8(file)]);
            assert_fails_in_one_line(&out, &format!("{cmd} on {what}"));
        }
    }
    for flags in [["--cache-kb", "3"], ["--cache-kb", "4194304"], ["--victim", "0"]] {
        let out = trace_tool(&[&["replay", utf8(&path)][..], &flags[..]].concat());
        assert_fails_in_one_line(&out, &format!("replay {}", flags.join(" ")));
    }

    // The scales a job spec rejects. Each once panicked in the workload
    // generator; an infinite one generated events forever.
    let unused = dir.join("unused");
    for scale in ["0", "-1", "nan", "2"] {
        let out = trace_tool(&["record", "make", "bsd", utf8(&unused), "--scale", scale]);
        assert_fails_in_one_line(&out, &format!("record --scale {scale}"));
    }
    let out = trace_tool_within_10s(&["record", "make", "bsd", utf8(&unused), "--scale", "inf"]);
    assert_fails_in_one_line(&out, "record --scale inf");
    let out = trace_tool(&["export", "make", utf8(&unused), "--scale", "nan"]);
    assert_fails_in_one_line(&out, "export --scale nan");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig1", "--scale", "nan"])
        .output()
        .expect("repro runs");
    assert_fails_in_one_line(&out, "repro --scale nan");
    assert!(!unused.exists(), "a rejected scale wrote no file");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `record`'s ALSC content key (the bytes `trc-tool`), so a crafted
/// file reads as a recording.
const RECORDING_KEY: u64 = u64::from_le_bytes(*b"trc-tool");

/// Writes a recording that holds exactly `runs`.
fn craft(path: &Path, runs: &[sim_mem::RefRun]) {
    std::fs::write(path, sim_mem::encode_stream(RECORDING_KEY, &[], runs)).expect("write crafted");
}

fn word_read(addr: u64, size: u32, count: u32) -> sim_mem::RefRun {
    sim_mem::RefRun { r: sim_mem::MemRef::app_read(sim_mem::Address::new(addr), size), count }
}

#[test]
fn a_reference_near_the_top_of_memory_replays_as_one_cold_miss() {
    // The cold-miss set once sized a vector by the highest block seen,
    // so this one reference asked for 16 GiB and aborted the process.
    let dir = scratch("high");
    let path = dir.join("high.alsc");
    craft(&path, &[word_read(0xffff_ffff_0000, 4, 1)]);
    let out = trace_tool(&[
        "replay",
        utf8(&path),
        "--cache-kb",
        "16",
        "--paging",
        "--three-c",
        "--victim",
        "4",
    ]);
    assert!(out.status.success(), "replay: {}", text(&out.stderr));
    let replay = text(&out.stdout);
    let k16 = CacheConfig::direct_mapped(16 * 1024, 32);
    for line in [
        format!("replayed 1 references from {}", path.display()),
        format!("  {k16}: 100.000% miss rate (1 misses, 1 cold)"),
        "  paging: 1 distinct pages; working set 0 KB".to_string(),
    ] {
        assert!(replay.lines().any(|l| l == line), "expected {line:?} in {replay}");
    }
    assert!(replay.contains("compulsory 1 / capacity 0 / conflict 0"), "{replay}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reference_wrapping_past_2_pow_64_is_a_corrupt_file() {
    // Bytes u64::MAX - 1 ..= u64::MAX + 6 do not exist. The decoder used
    // to hand the record on: the caches dropped it and the pager
    // panicked.
    let dir = scratch("wrap");
    let path = dir.join("wrap.alsc");
    craft(&path, &[word_read(u64::MAX - 1, 8, 2)]);
    for args in [&["info"][..], &["replay", "--paging"][..]] {
        let out = trace_tool(&[&[args[0], utf8(&path)][..], &args[1..]].concat());
        assert_fails_in_one_line(&out, &format!("{} on a wrapping reference", args.join(" ")));
        assert!(text(&out.stderr).contains("corrupt"), "{}", text(&out.stderr));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs trace-tool, failing the test if it has not exited within 10 s.
fn trace_tool_within_10s(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_trace-tool"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("trace-tool starts");
    let started = std::time::Instant::now();
    while child.try_wait().expect("poll trace-tool").is_none() {
        if started.elapsed() > std::time::Duration::from_secs(10) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("trace-tool {} still running after 10 s", args.join(" "));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect trace-tool output")
}

#[test]
fn a_wide_reference_repeated_2_pow_32_times_replays_in_two_walks() {
    // One 1 MiB read repeated 2^32 - 1 times: 32768 blocks, all missing
    // in a 16K cache on every repeat. Only a few repeats may be walked,
    // by any sink, or this runs for hours.
    let dir = scratch("wide");
    let path = dir.join("wide.alsc");
    craft(&path, &[word_read(0x10000, 1 << 20, u32::MAX)]);
    for sink in [&["--three-c"][..], &["--victim", "8"][..]] {
        let out = trace_tool_within_10s(&[&["replay", utf8(&path)][..], sink].concat());
        assert!(out.status.success(), "replay {sink:?}: {}", text(&out.stderr));
        // Every repeat after the first misses all 32768 blocks in both
        // the direct-mapped cache and its fully-associative shadow.
        let replay = text(&out.stdout);
        if sink[0] == "--three-c" {
            assert!(
                replay.contains("compulsory 32768 / capacity 140737488289792 / conflict 0"),
                "{replay}"
            );
        } else {
            assert!(replay.contains("effective miss rate 12.500%, rescue rate 0%"), "{replay}");
        }
    }
    let out = trace_tool_within_10s(&["replay", utf8(&path), "--cache-kb", "16", "--paging"]);
    assert!(out.status.success(), "replay: {}", text(&out.stderr));
    let replay = text(&out.stdout);
    let k16 = CacheConfig::direct_mapped(16 * 1024, 32);
    for line in [
        format!("replayed {} references from {}", u32::MAX, path.display()),
        format!("  {k16}: 12.500% miss rate (140737488322560 misses, 32768 cold)"),
    ] {
        assert!(replay.lines().any(|l| l == line), "expected {line:?} in {replay}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cyclic_sweep_the_shadow_misses_more_still_classifies() {
    // One 19200-byte read at address 17, twice: the direct-mapped 16K
    // cache misses 779 times, its fully-associative LRU shadow 1202, so
    // the three-C conflict count would be negative.
    let dir = scratch("cyc");
    let path = dir.join("cyc.alsc");
    craft(&path, &[word_read(17, 600 * 32, 2)]);
    let out = trace_tool_within_10s(&["replay", utf8(&path), "--cache-kb", "16", "--three-c"]);
    assert!(out.status.success(), "replay: {}", text(&out.stderr));
    let replay = text(&out.stdout);
    let k16 = CacheConfig::direct_mapped(16 * 1024, 32);
    assert!(replay.contains(&format!("  {k16}: ")), "{replay}");
    assert!(replay.contains("(779 misses, 601 cold)"), "{replay}");
    assert!(replay.contains("compulsory 601 / capacity 178 / conflict 0"), "{replay}");
    let _ = std::fs::remove_dir_all(&dir);
}
