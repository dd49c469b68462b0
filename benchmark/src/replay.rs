//! `stream-replay`: the stream cache's read path. Set-up populates the
//! cache with the 25 matrix cells (the write path: generate, encode,
//! write, fsync); the timed phase reruns every cell under non-paper
//! cache geometries through plain `Experiment::run`. The geometry loop
//! is outermost, so the single-entry decode memo never answers, and no
//! geometry matches the populating run's options fingerprint, so the
//! stored-result short-cut never fires: every run reads, decodes and
//! replays its stream. Synthesis and allocators do no work here.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime};

use alloc_locality::{Experiment, RunResult};
use allocators::AllocatorKind;
use cache_sim::{Cache, CacheConfig, SweepCache};
use sim_mem::{decode_sidecar, decode_stream, encode_stream, AccessSink as _, StreamCache};
use vm_sim::StackSim;

use crate::common::{
    check_golden, emit_layers, median, self_s, total_s, write_ledger, Args, JobTrace, Ledger,
    Outcome, Timings,
};
use crate::drive::{lane, lane_metric, refs_in};
use crate::matrix::{cells, digest_results, Cell, SCALE};

/// Set-up repetitions, each into a fresh directory; `setup_s` is their
/// median and the last one's cache serves the timed phase.
const SETUP_REPEATS: usize = 3;

/// A non-paper cache geometry the timed phase replays every cell under.
struct Geometry {
    configs: Vec<CacheConfig>,
}

/// Other block sizes and cache sizes (single-pass `SweepCache`), and a
/// set-associative set (one `Cache` per configuration).
fn geometries() -> Vec<Geometry> {
    let dm = |kbs: &[u32], block: u32| Geometry {
        configs: kbs.iter().map(|&kb| CacheConfig::direct_mapped(kb * 1024, block)).collect(),
    };
    vec![
        dm(&[8, 16, 32, 64, 128, 256], 64),
        dm(&[16, 64, 256, 1024], 16),
        Geometry {
            configs: vec![
                CacheConfig::set_associative(16 * 1024, 32, 4),
                CacheConfig::set_associative(64 * 1024, 32, 2),
            ],
        },
    ]
}

/// A populated cell: its stream file and the populating run's result.
struct Stored {
    cell: Cell,
    key: u64,
    path: PathBuf,
    identity: (SystemTime, u64),
    populated: RunResult,
}

/// The `(mtime, length)` a rewrite of the file would change.
fn identity(path: &Path) -> Result<(SystemTime, u64), String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((meta.modified().map_err(|e| e.to_string())?, meta.len()))
}

/// Stream files currently in `dir`.
fn listing(dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    entries
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".alsc"))
        .collect()
}

/// Populates `dir` with every cell's stream, learning each cell's key
/// from the file its run adds.
fn populate(dir: &Path, seed: u64) -> Result<Vec<Stored>, String> {
    let mut stored = Vec::new();
    for cell in cells(seed) {
        let before = listing(dir);
        let populated = cell
            .experiment(SCALE)
            .stream_cache(dir)
            .run()
            .map_err(|e| format!("{}: {e}", cell.id()))?;
        let added: Vec<String> =
            listing(dir).into_iter().filter(|name| !before.contains(name)).collect();
        let [name] = added.as_slice() else {
            return Err(format!("{}: populating added {} stream files", cell.id(), added.len()));
        };
        let key = u64::from_str_radix(name.trim_end_matches(".alsc"), 16)
            .map_err(|e| format!("stream file {name}: {e}"))?;
        let path = dir.join(name);
        stored.push(Stored { cell, key, identity: identity(&path)?, path, populated });
    }
    Ok(stored)
}

/// A replayed result agrees with its populating run on everything the
/// cache geometry cannot change.
fn same_geometry_free_outputs(replayed: &RunResult, populated: &RunResult) -> bool {
    replayed.instrs == populated.instrs
        && replayed.trace == populated.trace
        && replayed.fault_curve == populated.fault_curve
        && replayed.heap_high_water == populated.heap_high_water
        && replayed.alloc_stats == populated.alloc_stats
        && replayed.frag_curve == populated.frag_curve
}

fn experiment(s: &Stored, g: &Geometry, dir: &Path) -> Experiment {
    s.cell.experiment(SCALE).caches(g.configs.clone()).stream_cache(dir)
}

/// Checks one replayed run: it replayed (the stream file was not
/// rewritten), what the geometry cannot change matches the populating
/// run, and it equals the first pass's result for the same job.
fn check(
    out: &mut Outcome,
    s: &Stored,
    result: Result<RunResult, String>,
    first: &mut Vec<RunResult>,
    at: usize,
) -> Option<u64> {
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("{}: {e}", s.cell.id()));
            return None;
        }
    };
    if identity(&s.path).ok() != Some(s.identity) {
        out.fail(format!("{}: stream was regenerated instead of replayed", s.cell.id()));
        return None;
    }
    if !same_geometry_free_outputs(&r, &s.populated) {
        out.fail(format!(
            "{}: replay differs from the populating run outside the caches",
            s.cell.id()
        ));
        return None;
    }
    let refs = r.data_refs();
    match first.get(at) {
        Some(want) if *want != r => {
            out.fail(format!("{}: replay differs from the first pass", s.cell.id()));
            return None;
        }
        Some(_) => {}
        None => first.push(r),
    }
    Some(refs)
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut t = Timings::default();
    let mut stored = Vec::new();
    let mut dir = PathBuf::new();
    for rep in 0..SETUP_REPEATS {
        if rep > 0 {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        dir = args.work_dir.join(format!("streams-{rep}"));
        t.setup_host.probe();
        let start = Instant::now();
        let now = populate(&dir, args.seed)?;
        t.setup_s.push(start.elapsed().as_secs_f64());
        if !stored.is_empty() {
            let agree = stored
                .iter()
                .zip(&now)
                .all(|(a, b): (&Stored, &Stored)| a.key == b.key && a.populated == b.populated);
            if !agree {
                out.fail("set-up populations disagree");
            }
        }
        stored = now;
    }
    t.setup_host.probe();
    let geoms = geometries();
    let mut first: Vec<RunResult> = Vec::new();
    let plain_pass = |out: &mut Outcome, first: &mut Vec<RunResult>, latencies: &mut Vec<f64>| {
        let start = Instant::now();
        let mut refs = 0;
        let mut at = 0;
        for g in &geoms {
            for s in &stored {
                out.attempted += 1;
                let t = Instant::now();
                let result = experiment(s, g, &dir).run().map_err(|e| e.to_string());
                latencies.push(t.elapsed().as_secs_f64() * 1e3);
                refs += check(out, s, result, first, at).unwrap_or(0);
                at += 1;
            }
        }
        (start.elapsed().as_secs_f64(), refs)
    };
    // One pass fixes the digest before anything is timed.
    let mut scratch = Vec::new();
    plain_pass(&mut out, &mut first, &mut scratch);
    let populated: Vec<RunResult> = stored.iter().map(|s| s.populated.clone()).collect();
    check_golden(
        &mut out,
        &args.workload,
        args.seed,
        &digest_results(populated.iter().chain(&first)),
    );

    if args.trace {
        traced(args, &dir, &stored, &geoms, &mut out, &mut first, plain_pass);
        return Ok(out);
    }
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        t.host.probe();
        let (wall, refs) = plain_pass(&mut out, &mut first, &mut t.latencies_ms);
        t.wall_s += wall;
        t.refs += refs;
        t.jobs += (geoms.len() * stored.len()) as u64;
    }
    t.host.probe();
    t.emit(&mut out);
    Ok(out)
}

/// Sums over the ledger passes that the layer rates are computed from.
#[derive(Default)]
struct Work {
    /// Time in the engine's drive loop per allocator lane, and in its
    /// event loop: zero unless a replay regenerated.
    lane_ns: BTreeMap<&'static str, u64>,
    events_ns: u64,
    refs: u64,
    runs: u64,
    cache_refs: u64,
    cache_fast: u64,
    pager_fast: u64,
    encoded_runs: u64,
    encoded_refs: u64,
    encoded_bytes: u64,
}

/// The traced mode: alternates an untraced pass with a ledger pass that
/// runs each job's `Experiment::run` inside a `core.run` span, with the
/// job's tracer attached so the engine's own spans nest inside, and
/// then repeats its read path layer by layer — read, decode, the
/// caches, the pager — plus, once per cell, the write path (encode,
/// store). Synthesis and allocator time are taken from the engine's
/// `engine.events` and `engine.drive` spans, which only a generating
/// run opens: a job that opens one fails, so the zero is measured.
fn traced(
    args: &Args,
    dir: &Path,
    stored: &[Stored],
    geoms: &[Geometry],
    out: &mut Outcome,
    first: &mut Vec<RunResult>,
    plain_pass: impl Fn(&mut Outcome, &mut Vec<RunResult>, &mut Vec<f64>) -> (f64, u64),
) {
    let restore = StreamCache::new(args.work_dir.join("restore"));
    let mut ledger = Ledger::default();
    let mut work = Work::default();
    let (mut plain, mut traced_walls, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while traced_walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        plain.push(plain_pass(out, first, &mut scratch).0);
        let t = Instant::now();
        let mut at = 0;
        for (gi, g) in geoms.iter().enumerate() {
            for s in stored {
                out.attempted += 1;
                let mut job = JobTrace::start();
                let exp = experiment(s, g, dir);
                let result = job.span_with("core.run", |tracer| exp.run_with_recorder(tracer));
                let result = result.map_err(|e| e.to_string());
                let replayed = result.clone();
                job.enter("bench.ledger");
                let parts = decompose(s, g, gi == 0, &restore, &mut job, &mut work);
                job.exit();
                if check(out, s, replayed, first, at).is_some() {
                    job.count("core.tier.replay", 1);
                }
                match parts {
                    Ok(parts) if result.as_ref().is_ok_and(|r| *r == parts) => {}
                    Ok(_) => out.fail(format!(
                        "{}: decomposed replay differs from Experiment::run",
                        s.cell.id()
                    )),
                    Err(e) => out.fail(format!("{}: {e}", s.cell.id())),
                }
                let tree = ledger.finish(job, format!("{}#g{gi}", s.cell.id()));
                let spent = |name: &str| -> Option<u64> {
                    let spans = tree.spans.iter().filter(|span| span.name == name);
                    spans.map(|span| span.duration_ns()).reduce(|a, b| a + b)
                };
                let (drive, events) = (spent("engine.drive"), spent("engine.events"));
                if drive.is_some() || events.is_some() {
                    out.fail(format!("{}: the replay ran the generating drive loop", s.cell.id()));
                }
                *work.lane_ns.entry(lane(s.cell.kind)).or_default() += drive.unwrap_or(0);
                work.events_ns += events.unwrap_or(0);
                at += 1;
            }
        }
        traced_walls.push(t.elapsed().as_secs_f64());
    }
    let passes = traced_walls.len() as f64;
    let totals = ledger.totals();
    let s = |name: &str| self_s(&totals, name, passes);
    let (read_s, decode_s, sweep_s, cache_s, pager_s) = (
        s("sim-mem.read"),
        s("sim-mem.decode"),
        s("cache-sim.sweep"),
        s("cache-sim.cache"),
        s("vm-sim.pager"),
    );
    let run_s = total_s(&totals, "core.run", passes);
    let encode_s = s("sim-mem.encode");
    let replays = totals.get("bench.job").map_or(0, |t| t.count) as f64;
    let tiered = ledger.counter("core.tier.replay") as f64;
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("workloads.events_s", work.events_ns as f64 / 1e9 / passes);
    for kind in AllocatorKind::ALL {
        let ns = work.lane_ns.get(lane(kind)).copied().unwrap_or(0);
        v.insert(lane_metric(kind), ns as f64 / 1e9 / passes);
    }
    v.insert("sim-mem.runs_per_ref", work.encoded_runs as f64 / work.encoded_refs as f64);
    v.insert("sim-mem.encode_s", encode_s);
    v.insert("sim-mem.store_s", s("sim-mem.store") - encode_s);
    v.insert("sim-mem.bytes_per_run", work.encoded_bytes as f64 / work.encoded_runs as f64);
    v.insert("sim-mem.read_s", read_s);
    v.insert("sim-mem.decode_s", decode_s);
    v.insert("sim-mem.decode_mruns_per_s", work.runs as f64 / passes / decode_s / 1e6);
    v.insert("cache-sim.sweep_s", sweep_s);
    v.insert("cache-sim.cache_s", cache_s);
    v.insert("cache-sim.mrefs_per_s", work.refs as f64 / passes / (sweep_s + cache_s) / 1e6);
    v.insert("cache-sim.fastpath_frac", work.cache_fast as f64 / work.cache_refs as f64);
    v.insert("vm-sim.pager_s", pager_s);
    v.insert("vm-sim.mrefs_per_s", work.refs as f64 / passes / pager_s / 1e6);
    v.insert("vm-sim.fastpath_frac", work.pager_fast as f64 / work.refs as f64);
    v.insert("core.run_s", run_s);
    v.insert("core.glue_s", run_s - (read_s + decode_s + sweep_s + cache_s + pager_s));
    v.insert("core.tier.replay", tiered / passes);
    v.insert("core.tier.regenerate", (replays - tiered) / passes);
    v.insert("obs.trace_overhead_frac", median(&traced_walls) / median(&plain) - 1.0);
    emit_layers(out, &v);
    write_ledger(out, &ledger, args);
}

/// One replay taken apart: both file reads the engine makes (the
/// stored-result probe, then the stream load), the sidecar check and
/// the stream decode, the cache layer, and the pager. With `write`,
/// also re-encodes the decoded stream (which must reproduce the file
/// byte for byte) and stores it through `StreamCache::store`.
fn decompose(
    s: &Stored,
    g: &Geometry,
    write: bool,
    restore: &StreamCache,
    job: &mut JobTrace,
    work: &mut Work,
) -> Result<RunResult, String> {
    let (probe, body) =
        job.span("sim-mem.read", || (std::fs::read(&s.path), std::fs::read(&s.path)));
    let (probe, body) = (probe.map_err(|e| e.to_string())?, body.map_err(|e| e.to_string())?);
    let decoded = job.span("sim-mem.decode", || {
        decode_sidecar(&probe, s.key).and_then(|_| decode_stream(&body, s.key))
    });
    let decoded = decoded.map_err(|e| format!("decode: {e}"))?;
    let refs = refs_in(&decoded.runs);
    let cache = match SweepCache::try_new(g.configs.iter().copied()) {
        Some(mut sweep) => {
            job.span("cache-sim.sweep", || sweep.record_runs(&decoded.runs));
            work.cache_fast += sweep.fastpath_refs();
            work.cache_refs += refs;
            sweep.results()
        }
        None => {
            let mut caches: Vec<Cache> = g.configs.iter().map(|&c| Cache::new(c)).collect();
            job.span("cache-sim.cache", || {
                for c in &mut caches {
                    c.record_runs(&decoded.runs);
                }
            });
            work.cache_fast += caches.iter().map(Cache::fastpath_refs).sum::<u64>();
            work.cache_refs += refs * caches.len() as u64;
            caches.iter().map(|c| (c.config(), *c.stats())).collect()
        }
    };
    let mut pager = StackSim::paper();
    job.span("vm-sim.pager", || pager.record_runs(&decoded.runs));
    work.refs += refs;
    work.runs += decoded.runs.len() as u64;
    work.pager_fast += pager.fastpath_refs();
    if write {
        let encoded =
            job.span("sim-mem.encode", || encode_stream(s.key, &decoded.sidecar, &decoded.runs));
        if encoded != body {
            return Err("re-encoding the decoded stream does not reproduce the file".into());
        }
        job.span("sim-mem.store", || restore.store(s.key, &decoded.sidecar, &decoded.runs))
            .map_err(|e| format!("store: {e}"))?;
        work.encoded_runs += decoded.runs.len() as u64;
        work.encoded_refs += refs;
        work.encoded_bytes += encoded.len() as u64;
    }
    Ok(RunResult { cache, fault_curve: Some(pager.curve()), ..s.populated.clone() })
}
