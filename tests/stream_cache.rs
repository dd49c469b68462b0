//! The persistent stream cache's contract, end to end:
//!
//! 1. **Replay is invisible in the results.** A warm (cache-hit) run
//!    produces a [`RunResult`] bit-identical to the cold run that
//!    populated the cache, and the instrumented `RunReport` JSONL line
//!    is *byte*-identical.
//! 2. **Damage degrades, it never breaks.** A corrupt or truncated
//!    cache file demotes the run to cold generation, recorded as
//!    `stream_cache.invalid`, and the file is rewritten for next time.

use alloc_locality_repro::engine::{AllocChoice, Experiment, SimOptions};
use allocators::AllocatorKind;
use cache_sim::CacheConfig;
use obs::MemoryRecorder;
use workloads::{Program, Scale};

/// A fresh per-test cache directory (cleared on entry so reruns and
/// stale files cannot leak across tests).
fn cache_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("alsc-it-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(dir: &std::path::Path) -> SimOptions {
    SimOptions {
        cache_configs: vec![
            CacheConfig::direct_mapped(16 * 1024, 32),
            CacheConfig::direct_mapped(64 * 1024, 32),
        ],
        paging: true,
        scale: Scale(0.002),
        frag_sample_every: 500,
        stream_cache: Some(dir.to_path_buf()),
        ..SimOptions::default()
    }
}

/// The only `.alsc` file in a cache directory.
fn sole_cache_file(dir: &std::path::Path) -> std::path::PathBuf {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("cache dir exists after a populating run")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "alsc"))
        .collect();
    assert_eq!(files.len(), 1, "expected exactly one stream file in {}", dir.display());
    files.pop().expect("nonempty")
}

#[test]
fn warm_replay_is_bit_identical_in_both_pipeline_modes() {
    let dir = cache_dir("identity");
    let exp = Experiment::new(Program::Espresso, AllocChoice::Paper(AllocatorKind::FirstFit))
        .options(opts(&dir));

    let cold = exp.report().expect("cold run");
    assert!(sole_cache_file(&dir).exists());
    let warm = exp.report().expect("warm run");

    assert_eq!(warm.result, cold.result, "replayed RunResult diverged");
    assert_eq!(
        warm.to_jsonl_line(),
        cold.to_jsonl_line(),
        "replayed report line is not byte-identical"
    );
    warm.validate().expect("replayed report validates");

    // The uninstrumented entry point replays to the same result too.
    let plain = exp.run().expect("plain run");
    assert_eq!(plain, cold.result, "run() after populate diverged");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_runs_hit_and_cold_runs_miss_in_the_recorder() {
    let dir = cache_dir("counters");
    let exp =
        Experiment::new(Program::Gawk, AllocChoice::Paper(AllocatorKind::Bsd)).options(opts(&dir));

    let mut rec = MemoryRecorder::new();
    exp.run_with_recorder(&mut rec).expect("cold run");
    assert_eq!(rec.counter("stream_cache.miss"), 1);
    assert_eq!(rec.counter("stream_cache.store"), 1);
    assert_eq!(rec.counter("stream_cache.hit"), 0);

    let mut rec = MemoryRecorder::new();
    exp.run_with_recorder(&mut rec).expect("warm run");
    assert_eq!(rec.counter("stream_cache.hit"), 1);
    assert_eq!(rec.counter("stream_cache.miss"), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uninstrumented_replay_ignores_the_sink_fingerprint() {
    // The sidecar's result-reconstruction fields depend only on the
    // stream key, so a run with *different sinks* than the populating
    // run still replays when no byte-reusable metrics are needed.
    let dir = cache_dir("fingerprint");
    let populate = Experiment::new(Program::GsSmall, AllocChoice::Paper(AllocatorKind::QuickFit))
        .options(opts(&dir));
    let cold = populate.run().expect("cold run");

    let mut narrower = opts(&dir);
    narrower.cache_configs = vec![CacheConfig::direct_mapped(16 * 1024, 32)];
    let warm_exp = Experiment::new(Program::GsSmall, AllocChoice::Paper(AllocatorKind::QuickFit))
        .options(narrower);
    let mut rec = MemoryRecorder::new();
    let warm = warm_exp.run_with_recorder(&mut rec).expect("warm run");
    assert_eq!(rec.counter("stream_cache.hit"), 1, "different sinks must still replay");
    assert_eq!(warm.cache.len(), 1);
    assert_eq!(warm.cache[0], cold.cache[0]);
    assert_eq!(warm.instrs, cold.instrs);
    assert_eq!(warm.trace, cold.trace);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_files_fall_back_to_cold_generation() {
    let dir = cache_dir("corrupt");
    let exp = Experiment::new(Program::Make, AllocChoice::Paper(AllocatorKind::GnuGxx))
        .options(opts(&dir));
    let cold = exp.report().expect("populating run");

    // Flip one bit in the middle of the stored stream.
    let path = sole_cache_file(&dir);
    let mut bytes = std::fs::read(&path).expect("read stream file");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).expect("write damaged file");

    let mut rec = MemoryRecorder::new();
    let damaged = exp.run_with_recorder(&mut rec).expect("damaged file must not break the run");
    assert_eq!(rec.counter("stream_cache.invalid"), 1, "damage must be counted");
    assert_eq!(rec.counter("stream_cache.hit"), 0);
    assert_eq!(rec.counter("stream_cache.store"), 1, "the file must be rewritten");
    assert_eq!(damaged, cold.result, "cold fallback must reproduce the result");

    // Truncation likewise.
    let bytes = std::fs::read(&path).expect("read rewritten file");
    std::fs::write(&path, &bytes[..bytes.len() / 3]).expect("truncate file");
    let mut rec = MemoryRecorder::new();
    let truncated = exp.run_with_recorder(&mut rec).expect("truncated file must not break the run");
    assert_eq!(rec.counter("stream_cache.invalid"), 1);
    assert_eq!(truncated, cold.result);

    // The rewrite healed the cache: the next run replays.
    let mut rec = MemoryRecorder::new();
    let healed = exp.run_with_recorder(&mut rec).expect("healed run");
    assert_eq!(rec.counter("stream_cache.hit"), 1);
    assert_eq!(healed, cold.result);
    // The replayed report validates and reproduces the result; its
    // metrics are those of the *repopulating* run (which counted
    // `stream_cache.invalid` where the first cold run counted a miss),
    // so only the result is owed byte-identity here.
    let warm = exp.report().expect("healed instrumented run");
    warm.validate().expect("healed report validates");
    assert_eq!(warm.result, cold.result);
    assert_eq!(warm.metrics.counter("stream_cache.invalid"), 1);

    let _ = std::fs::remove_dir_all(&dir);
}
