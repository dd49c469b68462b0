//! The persistent stream cache's contract, end to end:
//!
//! 1. **Replay is invisible in the results.** A warm (cache-hit) run
//!    produces a [`RunResult`] bit-identical to the cold run that
//!    populated the cache, and the instrumented `RunReport` JSONL line
//!    is *byte*-identical.
//! 2. **Damage degrades, it never breaks.** A corrupt or truncated
//!    cache file — or a corrupt record behind a valid checksum, found
//!    mid-replay — demotes the run to cold generation, recorded as
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

/// The `(length, mtime)` a rewrite of a stream file would change.
fn file_identity(path: &std::path::Path) -> (u64, std::time::SystemTime) {
    let meta = std::fs::metadata(path).expect("stream file metadata");
    (meta.len(), meta.modified().expect("stream file mtime"))
}

#[test]
fn uninstrumented_replay_ignores_the_sink_fingerprint() {
    // The sidecar's result-reconstruction fields depend only on the
    // stream key, so a run with *different sinks* than the populating
    // run still replays when no byte-reusable metrics are needed. A
    // populating run that paged also stored the fault curve, which
    // depends on the stream alone: the replay reuses it instead of
    // running the pager.
    let dm = |kb: u32, block: u32| CacheConfig::direct_mapped(kb * 1024, block);
    let geometries: [(&str, SimOptions); 5] = [
        (
            "paper sweep, victim 8, three-C",
            SimOptions {
                cache_configs: CacheConfig::paper_sweep(),
                victim_entries: Some(8),
                three_c: true,
                ..SimOptions::default()
            },
        ),
        (
            "16K 4-way + 64K 2-way",
            SimOptions {
                cache_configs: vec![
                    CacheConfig::set_associative(16 * 1024, 32, 4),
                    CacheConfig::set_associative(64 * 1024, 32, 2),
                ],
                ..SimOptions::default()
            },
        ),
        (
            "64-byte blocks",
            SimOptions {
                cache_configs: vec![dm(8, 64), dm(32, 64), dm(128, 64)],
                ..SimOptions::default()
            },
        ),
        ("no caches", SimOptions { cache_configs: vec![], ..SimOptions::default() }),
        // Paging off: no curve, stored or computed.
        ("paper sweep, paging off", SimOptions { paging: false, ..SimOptions::default() }),
    ];
    for populated_paging in [true, false] {
        let dir = cache_dir(&format!("fingerprint-{populated_paging}"));
        let cell =
            || Experiment::new(Program::GsSmall, AllocChoice::Paper(AllocatorKind::QuickFit));
        let populate = SimOptions { paging: populated_paging, ..opts(&dir) };
        cell().options(populate).run().expect("populating run");
        let path = sole_cache_file(&dir);
        let identity = file_identity(&path);

        for (name, geometry) in &geometries {
            let what = format!("{name}, populated with paging {populated_paging}");
            let replay =
                SimOptions { scale: Scale(0.002), frag_sample_every: 500, ..geometry.clone() };
            let cold = cell().options(replay.clone()).run().expect("cold run");
            let warm_exp = cell().options(SimOptions { stream_cache: Some(dir.clone()), ..replay });
            let mut rec = MemoryRecorder::new();
            let warm = warm_exp.run_with_recorder(&mut rec).expect("warm run");
            assert_eq!(warm, cold, "{what}: replay differs from a cold run");
            assert_eq!(warm_exp.run().expect("warm run"), cold, "{what}: run() differs");
            let paging = geometry.paging;
            assert_eq!(cold.fault_curve.is_some(), paging, "{what}");

            let metrics = rec.snapshot();
            assert_eq!(
                rec.counter("stream_cache.hit"),
                1,
                "{what}: different sinks must still replay"
            );
            let (reused, pager) = (paging && populated_paging, paging && !populated_paging);
            assert_eq!(rec.counter("stream_cache.stored_fault_curve"), u64::from(reused), "{what}");
            assert_eq!(metrics.spans.contains_key("sink.pager"), pager, "{what}");
            assert_eq!(metrics.counters.contains_key("sink.pager.fastpath_refs"), pager, "{what}");
            assert_eq!(file_identity(&path), identity, "{what}: the stream file was rewritten");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
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

/// Byte offset, within a stream file, of run record `n`: past the
/// 16-byte header, the three counts and the sidecar, walking the
/// records before it field by field.
fn record_offset(file: &[u8], n: usize) -> usize {
    let take = |pos: &mut usize| sim_mem::varint::take_u64(file, pos).expect("varint");
    let mut pos = 16;
    let _runs = take(&mut pos);
    let _refs = take(&mut pos);
    pos += take(&mut pos) as usize;
    for _ in 0..n {
        let flags = file[pos];
        pos += 1;
        take(&mut pos);
        for field in [1 << 2, 1 << 3] {
            if flags & field != 0 {
                take(&mut pos);
            }
        }
    }
    pos
}

/// Recomputes a stream file's trailing checksum, so damage inside it
/// gets past validation and reaches the record decoder.
fn reseal(file: &mut [u8]) {
    let end = file.len() - 8;
    let sum = sim_mem::checksum(&file[16..end]);
    file[end..].copy_from_slice(&sum.to_le_bytes());
}

/// Counters and span counts, with `stream_cache.miss` renamed.
fn shape(metrics: &obs::MetricsSnapshot, miss_as: &str) -> Vec<(String, u64)> {
    let counters = metrics.counters.iter().map(|(name, &n)| {
        let name = if name == "stream_cache.miss" { miss_as } else { name };
        (format!("counter {name}"), n)
    });
    let spans = metrics.spans.iter().map(|(name, span)| (format!("span {name}"), span.count));
    let mut all: Vec<(String, u64)> = counters.chain(spans).collect();
    all.sort();
    all
}

#[test]
fn a_corrupt_record_behind_a_valid_checksum_falls_back_cold() {
    let dir = cache_dir("record");
    let exp = Experiment::new(Program::Make, AllocChoice::Paper(AllocatorKind::GnuGxx))
        .options(opts(&dir));
    exp.run().expect("populating run");

    // Damage one record past the first decoded chunk (unknown flag
    // bits) and reseal: the file validates, the replay starts, and the
    // decoder finds the record after feeding the shards a full chunk.
    let path = sole_cache_file(&dir);
    let mut bytes = std::fs::read(&path).expect("read stream file");
    let key = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte key"));
    let at = record_offset(&bytes, sim_mem::BATCH_CAPACITY + 100);
    bytes[at] |= 0x10;
    reseal(&mut bytes);
    let view = sim_mem::open_stream(&bytes, key).expect("the damage passes validation");
    let mut delivered = 0;
    assert!(view.decode_chunks(|chunk| delivered += chunk.len()).is_err());
    assert_eq!(delivered, sim_mem::BATCH_CAPACITY, "one full chunk reaches the sinks first");
    std::fs::write(&path, &bytes).expect("write damaged file");

    // Other sinks than the populating run's, so the stored result does
    // not answer and the uninstrumented run replays the records.
    let mut narrower = opts(&dir);
    narrower.cache_configs.truncate(1);
    let warm = Experiment::new(Program::Make, AllocChoice::Paper(AllocatorKind::GnuGxx))
        .options(narrower.clone());
    let mut rec = MemoryRecorder::new();
    let result = warm.run_with_recorder(&mut rec).expect("damaged record must not break the run");
    assert_eq!(rec.counter("stream_cache.invalid"), 1);
    assert_eq!(rec.counter("stream_cache.hit"), 0);
    assert_eq!(rec.counter("stream_cache.store"), 1, "the file must be rewritten");
    let rewritten = std::fs::read(&path).expect("read rewritten file");
    assert!(sim_mem::decode_stream(&rewritten, key).is_ok(), "the rewrite must decode");

    // The abandoned replay left nothing behind: the run reports exactly
    // what a first cold run does, its miss counted as invalid.
    let fresh = cache_dir("record-fresh");
    narrower.stream_cache = Some(fresh.clone());
    let cold_exp =
        Experiment::new(Program::Make, AllocChoice::Paper(AllocatorKind::GnuGxx)).options(narrower);
    let mut cold_rec = MemoryRecorder::new();
    let cold = cold_exp.run_with_recorder(&mut cold_rec).expect("cold run");
    assert_eq!(result, cold, "cold fallback must reproduce the result");
    let (damaged, first) = (rec.snapshot(), cold_rec.snapshot());
    assert_eq!(shape(&damaged, "stream_cache.invalid"), shape(&first, "stream_cache.invalid"));
    assert_eq!(damaged.histograms, first.histograms);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh);
}

#[test]
fn a_version_2_file_at_a_version_3_path_falls_back_cold() {
    let dir = cache_dir("version");
    let exp = Experiment::new(Program::Espresso, AllocChoice::Paper(AllocatorKind::Bsd))
        .options(opts(&dir));
    let cold = exp.run().expect("populating run");
    let path = sole_cache_file(&dir);
    let mut bytes = std::fs::read(&path).expect("read stream file");
    assert_eq!(bytes[4], sim_mem::STREAM_FORMAT_VERSION);
    bytes[4] = 2;
    std::fs::write(&path, &bytes).expect("write stale file");

    let mut rec = MemoryRecorder::new();
    let result = exp.run_with_recorder(&mut rec).expect("stale file must not break the run");
    assert_eq!(rec.counter("stream_cache.invalid"), 1);
    assert_eq!(rec.counter("stream_cache.hit"), 0);
    assert_eq!(result, cold);
    assert_eq!(std::fs::read(&path).expect("read rewritten file")[4], 3);
    let _ = std::fs::remove_dir_all(&dir);
}
