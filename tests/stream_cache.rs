//! The persistent stream cache's contract, end to end:
//!
//! 1. **Replay is invisible in the results.** A warm (cache-hit) run
//!    produces a [`RunResult`] bit-identical to the cold run that
//!    populated the cache, and the instrumented `RunReport` JSONL line
//!    is *byte*-identical.
//! 2. **Damage degrades, it never breaks.** A corrupt or truncated
//!    cache file — damage to the trailer a stored-result answer reads,
//!    or to the records a replay reads, found by the records checksum or
//!    as a malformed record mid-replay — demotes the run to cold
//!    generation, recorded as `stream_cache.invalid`, and the file is
//!    rewritten for next time.
//! 3. **Populating is the cold run with an encoder.** A populating run
//!    stores exactly the encoding of the stream the run generates, and
//!    its flat metrics are a no-cache run's plus the store's own.

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
    // Every cell of the paper's 5x5 matrix, under the paper's cache
    // sweep and the pager.
    let dir = cache_dir("identity");
    let opts = SimOptions { cache_configs: CacheConfig::paper_sweep(), ..opts(&dir) };
    for program in Program::FIVE {
        for kind in AllocatorKind::ALL {
            let label = format!("{program}/{kind}");
            let exp = Experiment::new(program, AllocChoice::Paper(kind)).options(opts.clone());

            let cold = exp.report().expect("cold run");
            let warm = exp.report().expect("warm run");
            assert_eq!(warm.result, cold.result, "{label}: replayed RunResult diverged");
            assert_eq!(
                warm.to_jsonl_line(),
                cold.to_jsonl_line(),
                "{label}: replayed report line is not byte-identical"
            );
            warm.validate().expect("replayed report validates");

            // The uninstrumented entry point replays to the same result too.
            let plain = exp.run().expect("plain run");
            assert_eq!(plain, cold.result, "{label}: run() after populate diverged");
        }
    }
    let stored = std::fs::read_dir(&dir)
        .expect("cache dir exists after populating runs")
        .filter(|e| e.as_ref().expect("dir entry").path().extension().is_some_and(|e| e == "alsc"))
        .count();
    assert_eq!(stored, 25, "one stream file per cell");

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

/// Byte offset of a stream file's trailer, from its footer.
fn trailer_at(file: &[u8]) -> usize {
    let footer = file.len() - 24;
    u64::from_le_bytes(file[footer..footer + 8].try_into().expect("8 bytes")) as usize
}

#[test]
fn corrupt_cache_files_fall_back_to_cold_generation() {
    let dir = cache_dir("corrupt");
    let exp = Experiment::new(Program::Make, AllocChoice::Paper(AllocatorKind::GnuGxx))
        .options(opts(&dir));
    let cold = exp.report().expect("populating run");

    // Flip one bit in the middle of the trailer, which the stored-result
    // answer reads.
    let path = sole_cache_file(&dir);
    let mut bytes = std::fs::read(&path).expect("read stream file");
    let mid = (trailer_at(&bytes) + bytes.len() - 24) / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).expect("write damaged file");

    let mut rec = MemoryRecorder::new();
    let damaged = exp.run_with_recorder(&mut rec).expect("damaged file must not break the run");
    assert_eq!(rec.counter("stream_cache.invalid"), 1, "damage must be counted");
    assert_eq!(rec.counter("stream_cache.hit"), 0);
    assert_eq!(rec.counter("stream_cache.store"), 1, "the file must be rewritten");
    assert_eq!(damaged, cold.result, "cold fallback must reproduce the result");

    // Flip one bit in the middle of the records. A stored-result answer
    // never reads them; a run under other sinks replays them, and the
    // records checksum (or the record decoder) finds the damage.
    let mut bytes = std::fs::read(&path).expect("read rewritten file");
    let mid = (16 + trailer_at(&bytes)) / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).expect("write damaged file");
    let mut narrower = opts(&dir);
    narrower.cache_configs.truncate(1);
    let replaying = Experiment::new(Program::Make, AllocChoice::Paper(AllocatorKind::GnuGxx))
        .options(narrower.clone());
    let mut rec = MemoryRecorder::new();
    let damaged = replaying.run_with_recorder(&mut rec).expect("damaged records must not break it");
    assert_eq!(rec.counter("stream_cache.invalid"), 1, "damage must be counted");
    assert_eq!(rec.counter("stream_cache.hit"), 0);
    assert_eq!(rec.counter("stream_cache.store"), 1, "the file must be rewritten");
    let rewritten = std::fs::read(&path).expect("read rewritten file");
    let key = u64::from_le_bytes(rewritten[8..16].try_into().expect("8-byte key"));
    assert!(sim_mem::decode_stream(&rewritten, key).is_ok(), "the rewrite must decode");
    // The abandoned replay left nothing behind: the run reports exactly
    // what a first cold run does, its miss counted as invalid.
    let fresh = cache_dir("corrupt-fresh");
    narrower.stream_cache = Some(fresh.clone());
    let mut cold_rec = MemoryRecorder::new();
    let first = Experiment::new(Program::Make, AllocChoice::Paper(AllocatorKind::GnuGxx))
        .options(narrower)
        .run_with_recorder(&mut cold_rec)
        .expect("cold run");
    assert_eq!(damaged, first, "cold fallback must reproduce the result");
    let (damaged, first) = (rec.snapshot(), cold_rec.snapshot());
    assert_eq!(shape(&damaged, "stream_cache.invalid"), shape(&first, "stream_cache.invalid"));
    assert_eq!(damaged.histograms, first.histograms);
    let _ = std::fs::remove_dir_all(&fresh);

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
/// 16-byte header, walking the records before it field by field.
fn record_offset(file: &[u8], n: usize) -> usize {
    let take = |pos: &mut usize| sim_mem::varint::take_u64(file, pos).expect("varint");
    let mut pos = 16;
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

/// Recomputes a stream file's records checksum in its footer, so damage
/// to the records gets past it and reaches the record decoder.
fn reseal(file: &mut [u8]) {
    let sum = sim_mem::checksum(&file[16..trailer_at(file)]);
    let at = file.len() - 16;
    file[at..at + 8].copy_from_slice(&sum.to_le_bytes());
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
    // bits) and reseal: the checksums pass, the replay starts, and the
    // decoder finds the record after feeding the shards a full chunk.
    let path = sole_cache_file(&dir);
    let mut bytes = std::fs::read(&path).expect("read stream file");
    let key = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte key"));
    let at = record_offset(&bytes, sim_mem::BATCH_CAPACITY + 100);
    bytes[at] |= 0x10;
    reseal(&mut bytes);
    let mut reader = sim_mem::StreamReader::open(std::io::Cursor::new(&bytes), key)
        .expect("the damage passes validation");
    let mut delivered = 0;
    assert!(reader.decode_chunks(|chunk| delivered += chunk.len()).is_err());
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
fn a_version_3_file_at_a_version_4_path_falls_back_cold() {
    let dir = cache_dir("version");
    let exp = Experiment::new(Program::Espresso, AllocChoice::Paper(AllocatorKind::Bsd))
        .options(opts(&dir));
    let cold = exp.run().expect("populating run");
    let path = sole_cache_file(&dir);
    let mut bytes = std::fs::read(&path).expect("read stream file");
    assert_eq!(bytes[4], sim_mem::STREAM_FORMAT_VERSION);
    bytes[4] = 3;
    std::fs::write(&path, &bytes).expect("write stale file");

    let mut rec = MemoryRecorder::new();
    let result = exp.run_with_recorder(&mut rec).expect("stale file must not break the run");
    assert_eq!(rec.counter("stream_cache.invalid"), 1);
    assert_eq!(rec.counter("stream_cache.hit"), 0);
    assert_eq!(result, cold);
    assert_eq!(std::fs::read(&path).expect("read rewritten file")[4], 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The stream a run generates, batch for batch.
#[derive(Default)]
struct Runs(Vec<sim_mem::RefRun>);

impl sim_mem::AccessSink for Runs {
    fn record(&mut self, r: sim_mem::MemRef) {
        self.0.push(sim_mem::RefRun::once(r));
    }

    fn record_runs(&mut self, runs: &[sim_mem::RefRun]) {
        self.0.extend_from_slice(runs);
    }
}

#[test]
fn a_populating_run_stores_the_encoding_of_its_generated_stream() {
    // The stream is encoded batch by batch as the run generates it; the
    // file must be byte for byte the one-shot encoding of the stream
    // `drive_into` generates, under the file's key and sidecar.
    let dir = cache_dir("bytes");
    for (program, kind) in [
        (Program::Espresso, AllocatorKind::FirstFit),
        (Program::GsLarge, AllocatorKind::GnuLocal),
        (Program::Ptc, AllocatorKind::QuickFit),
        (Program::Make, AllocatorKind::Bsd),
    ] {
        let _ = std::fs::remove_dir_all(&dir);
        let exp = Experiment::new(program, AllocChoice::Paper(kind)).options(opts(&dir));
        exp.run().expect("populating run");
        let bytes = std::fs::read(sole_cache_file(&dir)).expect("read stream file");
        let key = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte key"));
        let sidecar = sim_mem::decode_sidecar(&bytes, key).expect("valid file");
        let mut runs = Runs::default();
        exp.drive_into(&mut runs).expect("generate");
        assert!(runs.0.len() > sim_mem::BATCH_CAPACITY, "{program}/{kind}: one batch only");
        let encoded = sim_mem::encode_stream(key, &sidecar, &runs.0);
        assert!(bytes == encoded, "{program}/{kind}: the stored file is not encode_stream's");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flat snapshot with its span times zeroed: the part of it that
/// does not depend on the clock.
fn untimed(metrics: &obs::MetricsSnapshot) -> obs::MetricsSnapshot {
    let mut metrics = metrics.clone();
    for span in metrics.spans.values_mut() {
        span.total_ns = 0;
    }
    metrics
}

#[test]
fn a_populating_runs_flat_metrics_are_a_no_cache_runs_plus_the_stores() {
    // Served report lines pin their flat metric set, so populating the
    // cache may add exactly the lookup's miss, the store, and the one
    // `engine.replay` span; the trace tree has no `engine.replay` node.
    let dir = cache_dir("shape");
    let cell = |opts: SimOptions| {
        Experiment::new(Program::Gawk, AllocChoice::Paper(AllocatorKind::GnuGxx)).options(opts)
    };
    let plain =
        cell(SimOptions { stream_cache: None, ..opts(&dir) }).report().expect("no-cache run");
    let mut tracer = obs::Tracer::new();
    let (result, metrics) = cell(opts(&dir)).run_traced_with(&mut tracer).expect("populating run");
    assert_eq!(result, plain.result);

    let mut expected = untimed(&plain.metrics);
    for counter in ["stream_cache.miss", "stream_cache.store"] {
        assert_eq!(expected.counters.insert(counter.to_string(), 1), None, "{counter}");
    }
    let once = obs::SpanSnapshot { count: 1, total_ns: 0 };
    assert_eq!(expected.spans.insert("engine.replay".to_string(), once), None);
    assert_eq!(untimed(&metrics), expected);

    let (_, trace) = tracer.finish("populating");
    assert!(trace.span("engine.drive").is_some());
    assert!(trace.span("engine.replay").is_none(), "a populating run delivers while it drives");

    // The stored sidecar froze the same metrics: the warm report hands
    // them back.
    let warm = cell(opts(&dir)).report().expect("warm run");
    assert_eq!(warm.metrics, metrics);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_sidecar_nested_past_the_parser_limit_runs_cold() {
    let dir = cache_dir("nested");
    let exp = Experiment::new(Program::Espresso, AllocChoice::Paper(AllocatorKind::QuickFit))
        .options(opts(&dir));
    let cold = exp.run().expect("populating run");

    // Re-encode the records under a sidecar of 10,000 nested arrays,
    // past serde_json's recursion limit: the checksum is valid, the
    // sidecar unparseable.
    let path = sole_cache_file(&dir);
    let bytes = std::fs::read(&path).expect("read stream file");
    let key = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte key"));
    let stream = sim_mem::decode_stream(&bytes, key).expect("decode");
    let nested = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
    let damaged = sim_mem::encode_stream(key, nested.as_bytes(), &stream.runs);
    assert!(sim_mem::decode_sidecar(&damaged, key).is_ok(), "the file itself is valid");
    std::fs::write(&path, &damaged).expect("write nested sidecar");

    let mut rec = MemoryRecorder::new();
    let result = exp.run_with_recorder(&mut rec).expect("a nested sidecar must not break the run");
    assert_eq!(rec.counter("stream_cache.sidecar_mismatch"), 1);
    assert_eq!(rec.counter("stream_cache.hit"), 0);
    assert_eq!(rec.counter("stream_cache.store"), 1, "the file must be rewritten");
    assert_eq!(result, cold, "the cold fallback must reproduce the result");
    let rewritten = std::fs::read(&path).expect("read rewritten file");
    let restored = sim_mem::decode_stream(&rewritten, key).expect("the rewrite must decode");
    assert_eq!(restored.runs, stream.runs);
    assert!(restored.sidecar.starts_with(b"{"), "the rewrite carries a real sidecar");
    let _ = std::fs::remove_dir_all(&dir);
}
