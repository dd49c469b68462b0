//! `perf`: wall-clock harness for the reference pipeline.
//!
//! ```text
//! perf [--scale F] [--repeat N] [--matrix] [--sweep-out FILE]
//! perf --obs [--scale F] [--repeat N] [--max-overhead F] [--gate-retries N]
//!      [--obs-out FILE]
//! perf --replay [--scale F] [--repeat N] [--replay-out FILE]
//!      [--replay-cache DIR]
//! perf --sinks [--scale F] [--repeat N] [--min-speedup F]
//!      [--gate-retries N] [--sinks-out FILE]
//! ```
//!
//! With `--sinks`, the harness measures the data-parallel sink engine
//! (`BENCH_sinks.json`): one run-compressed reference stream is
//! captured once, then replayed into each sink type alone — the
//! struct-of-arrays [`SweepCache`], the per-cache [`CacheBank`], a
//! single direct-mapped [`Cache`], and the stack-distance
//! [`StackSim`] pager — against its pre-restructure counterpart: the
//! verbatim [`ReferenceSweepCache`] port for the sweep lane, and an
//! [`OldRunDelivery`] wrapper (which expands every repeated
//! multi-block run back into per-reference calls, the old scalar
//! fallback) for the others. Every lane must be bit-identical across
//! the two deliveries, and the sweep lane's speedup must clear
//! `--min-speedup`; either failure exits non-zero.
//!
//! With `--replay`, the harness measures the persistent stream cache
//! (`BENCH_replay.json`): every cell of the paper's 5×5 matrix runs once
//! against an empty cache directory (cold — generating the workload,
//! simulating the allocator, and storing the captured stream) and then
//! warm, best of `--repeat`, replaying the decoded stream straight into
//! the sinks. Each cell's warm [`RunResult`] must be bit-identical to
//! its cold one; any divergence exits non-zero.
//!
//! With `--obs`, the harness instead measures the observability
//! subsystem itself (`BENCH_obs.json`): the same heavy configuration
//! run three ways — recorder absent, [`obs::NullRecorder`] attached,
//! and [`obs::MemoryRecorder`] attached — best of `--repeat` each. The
//! no-op recorder must cost at most `--max-overhead` (fraction, default
//! 0.02) over the recorder-free run, and all three runs must produce
//! bit-identical [`RunResult`]s; either failure exits non-zero. An
//! overhead-gate trip (but never a result divergence) is re-measured up
//! to `--gate-retries` extra times first, which CI uses to absorb
//! scheduler noise on shared runners.
//!
//! Otherwise, the **sweep** report (`BENCH_sweep.json`): the
//! single-pass [`cache_sim::SweepCache`] against the per-cache
//! [`cache_sim::CacheBank`] on the paper's five-configuration sweep.
//! Each cell's run-compressed reference stream is captured once with
//! [`Experiment::capture_runs`], then replayed into each cache component
//! directly, so the timing isolates the simulators from the (identical)
//! workload-driver cost. By default one cell (espresso/FirstFit); with
//! `--matrix`, all five paper programs × (FirstFit, BSD, QuickFit), one
//! aggregated JSON with per-cell refs/sec.
//!
//! Every comparison checks the two paths produced bit-identical results;
//! any divergence makes the process exit non-zero, which is what CI's
//! release-mode smoke job keys on.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use alloc_locality::{AllocChoice, Experiment, RunResult, SimOptions};
use allocators::AllocatorKind;
use bench::{interleaved_best_of, run_gated, time_closure, timing, GateOutcome, Timing};
use cache_sim::reference::ReferenceSweepCache;
use cache_sim::{Cache, CacheBank, CacheConfig, SweepCache};
use obs::NullRecorder;
use serde::Serialize;
use sim_mem::{AccessSink, CountingSink, MemRef, RefRun};
use vm_sim::StackSim;
use workloads::{Program, Scale};

/// One (program, allocator) cell of the bank-vs-sweep comparison.
#[derive(Debug, Clone, Serialize)]
struct SweepCell {
    program: String,
    allocator: String,
    /// Word-granular data references the cell's workload produced.
    data_refs: u64,
    /// Run-compressed entries in the captured stream.
    stream_runs: u64,
    /// The per-cache [`CacheBank`] replaying the captured stream.
    bank: Timing,
    /// The single-pass [`SweepCache`] replaying the same stream.
    sweep: Timing,
    /// `bank.secs / sweep.secs`.
    speedup: f64,
    /// Whether the two simulators produced bit-identical statistics.
    identical_results: bool,
}

/// The sweep harness's JSON report (`BENCH_sweep.json`).
#[derive(Debug, Clone, Serialize)]
struct SweepReport {
    scale: f64,
    repeats: u32,
    /// Whether the full program × allocator matrix was measured.
    matrix: bool,
    /// The cache configurations both engines simulated.
    cache_configs: Vec<String>,
    cells: Vec<SweepCell>,
    /// Total refs over total seconds, across all cells.
    aggregate_bank_refs_per_sec: f64,
    aggregate_sweep_refs_per_sec: f64,
    /// Aggregate bank seconds over aggregate sweep seconds.
    aggregate_speedup: f64,
    /// Smallest per-cell speedup (the conservative headline).
    min_cell_speedup: f64,
    /// True iff every cell was bit-identical across engines.
    identical_results: bool,
}

/// One (program, allocator) cell of the cold-vs-warm replay comparison.
#[derive(Debug, Clone, Serialize)]
struct ReplayCell {
    program: String,
    allocator: String,
    /// Word-granular data references the cell's workload produced.
    data_refs: u64,
    /// The populating run: workload generation + allocator simulation +
    /// sinks, with the captured stream stored on the way out.
    cold: Timing,
    /// The replaying run: sinks driven straight from the decoded stream.
    warm: Timing,
    /// `cold.secs / warm.secs`.
    speedup: f64,
    /// Whether the warm run reproduced the cold [`RunResult`] bit for
    /// bit.
    identical_results: bool,
}

/// The replay harness's JSON report (`BENCH_replay.json`).
#[derive(Debug, Clone, Serialize)]
struct ReplayReport {
    scale: f64,
    /// Warm repeats per cell (the cold populating run is timed once —
    /// repeating it would hit the cache it just filled).
    repeats: u32,
    /// The cache configurations every cell simulated.
    cache_configs: Vec<String>,
    cells: Vec<ReplayCell>,
    aggregate_cold_secs: f64,
    aggregate_warm_secs: f64,
    /// Aggregate cold seconds over aggregate warm seconds.
    aggregate_speedup: f64,
    /// Smallest per-cell speedup (the conservative headline).
    min_cell_speedup: f64,
    /// True iff every cell replayed bit-identically.
    identical_results: bool,
}

/// One sink type timed under the current run-aware delivery and under
/// the pre-restructure delivery.
#[derive(Debug, Clone, Serialize)]
struct SinkLane {
    /// Which sink ran: "sweep", "bank", "cache-16K", or "pager".
    sink: String,
    /// The restructured sink replaying the captured stream.
    current: Timing,
    /// The pre-restructure counterpart: [`ReferenceSweepCache`] for the
    /// sweep lane, [`OldRunDelivery`] around the same sink otherwise.
    reference: Timing,
    /// `reference.secs / current.secs`.
    speedup: f64,
    /// Whether both deliveries produced bit-identical statistics.
    identical_results: bool,
}

/// The sink harness's JSON report (`BENCH_sinks.json`).
#[derive(Debug, Clone, Serialize)]
struct SinksReport {
    program: String,
    allocator: String,
    scale: f64,
    repeats: u32,
    /// Run-compressed entries in the captured stream.
    stream_runs: u64,
    /// Word-granular data references the stream expands to.
    data_refs: u64,
    /// The cache configurations the sweep and bank lanes simulated.
    cache_configs: Vec<String>,
    lanes: Vec<SinkLane>,
    /// The sweep lane's speedup (what `--min-speedup` gates).
    sweep_speedup: f64,
    /// True iff every lane was bit-identical across deliveries.
    identical_results: bool,
}

struct Args {
    scale: f64,
    repeat: u32,
    matrix: bool,
    obs: bool,
    replay: bool,
    sinks: bool,
    max_overhead: f64,
    gate_retries: u32,
    sweep_out: PathBuf,
    obs_out: PathBuf,
    replay_out: PathBuf,
    replay_cache: PathBuf,
    sinks_out: PathBuf,
    min_speedup: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut scale = 0.02;
    let mut repeat = 3;
    let mut matrix = false;
    let mut obs = false;
    let mut replay = false;
    let mut max_overhead = 0.02;
    let mut gate_retries = 0;
    let mut sweep_out = PathBuf::from("BENCH_sweep.json");
    let mut obs_out = PathBuf::from("BENCH_obs.json");
    let mut replay_out = PathBuf::from("BENCH_replay.json");
    let mut replay_cache = PathBuf::from("artifacts/stream-cache/perf-replay");
    let mut sinks = false;
    let mut sinks_out = PathBuf::from("BENCH_sinks.json");
    let mut min_speedup = 0.0;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                scale = v.parse().map_err(|e| format!("bad scale {v}: {e}"))?;
                if scale <= 0.0 {
                    return Err("scale must be positive".into());
                }
            }
            "--repeat" => {
                let v = args.next().ok_or("--repeat needs a value")?;
                repeat = v.parse().map_err(|e| format!("bad repeat count {v}: {e}"))?;
                if repeat == 0 {
                    return Err("repeat count must be at least 1".into());
                }
            }
            "--matrix" => matrix = true,
            "--obs" => obs = true,
            "--replay" => replay = true,
            "--replay-out" => {
                replay_out = PathBuf::from(args.next().ok_or("--replay-out needs a path")?);
            }
            "--replay-cache" => {
                replay_cache = PathBuf::from(args.next().ok_or("--replay-cache needs a path")?);
            }
            "--sinks" => sinks = true,
            "--sinks-out" => {
                sinks_out = PathBuf::from(args.next().ok_or("--sinks-out needs a path")?);
            }
            "--min-speedup" => {
                let v = args.next().ok_or("--min-speedup needs a value")?;
                min_speedup = v.parse().map_err(|e| format!("bad speedup bound {v}: {e}"))?;
                if min_speedup < 0.0 {
                    return Err("speedup bound must be non-negative".into());
                }
            }
            "--max-overhead" => {
                let v = args.next().ok_or("--max-overhead needs a value")?;
                max_overhead = v.parse().map_err(|e| format!("bad overhead bound {v}: {e}"))?;
                if max_overhead < 0.0 {
                    return Err("overhead bound must be non-negative".into());
                }
            }
            "--gate-retries" => {
                let v = args.next().ok_or("--gate-retries needs a value")?;
                gate_retries = v.parse().map_err(|e| format!("bad retry count {v}: {e}"))?;
            }
            "--sweep-out" => {
                sweep_out = PathBuf::from(args.next().ok_or("--sweep-out needs a path")?);
            }
            "--obs-out" => {
                obs_out = PathBuf::from(args.next().ok_or("--obs-out needs a path")?);
            }
            "--help" | "-h" => {
                return Err("usage: perf [--scale F] [--repeat N] [--matrix] [--sweep-out FILE]\n\
                     \x20      perf --obs [--scale F] [--repeat N] [--max-overhead F]\n\
                     \x20           [--gate-retries N] [--obs-out FILE]\n\
                     \x20      perf --replay [--scale F] [--repeat N] [--replay-out FILE]\n\
                     \x20           [--replay-cache DIR] [--min-speedup F]\n\
                     \x20      perf --sinks [--scale F] [--repeat N] [--min-speedup F]\n\
                     \x20           [--gate-retries N] [--sinks-out FILE]\n\
                     --matrix measures all five paper programs x (FirstFit, BSD, QuickFit)\n\
                     in the bank-vs-sweep comparison instead of espresso/FirstFit alone\n\
                     --obs measures recorder overhead (none vs null vs in-memory) and fails\n\
                     if the null recorder costs more than --max-overhead (default 0.02);\n\
                     --gate-retries re-measures up to N extra times before declaring a\n\
                     gate failure (absorbs scheduler noise on loaded CI machines)\n\
                     --replay times the full 5x5 matrix cold (populating a fresh stream\n\
                     cache) and then warm (replaying it), and fails if any warm cell's\n\
                     result diverges from its cold run or the aggregate speedup falls\n\
                     below --min-speedup (default 0: identity check only)\n\
                     --sinks replays one captured stream into each sink type alone\n\
                     (sweep, bank, single cache, pager) against its pre-restructure\n\
                     delivery, and fails if any lane's statistics diverge or the sweep\n\
                     lane's speedup falls below --min-speedup (re-measured up to\n\
                     --gate-retries extra times first)"
                    .into());
            }
            other => return Err(format!("unknown argument {other:?}; try --help")),
        }
    }
    Ok(Args {
        scale,
        repeat,
        matrix,
        obs,
        replay,
        sinks,
        max_overhead,
        gate_retries,
        sweep_out,
        obs_out,
        replay_out,
        replay_cache,
        sinks_out,
        min_speedup,
    })
}

/// The fixed heavy workload of the sinks and obs reports: espresso
/// under FIRSTFIT (the paper's most metadata-hungry pairing).
fn experiment(scale: f64, opts: SimOptions) -> Experiment {
    cell_experiment(Program::Espresso, AllocatorKind::FirstFit, scale, opts)
}

fn cell_experiment(
    program: Program,
    allocator: AllocatorKind,
    scale: f64,
    opts: SimOptions,
) -> Experiment {
    Experiment::new(program, AllocChoice::Paper(allocator))
        .options(SimOptions { scale: Scale(scale), ..opts })
}

/// Best-of-`repeat` wall-clock run; returns the last result and the
/// fastest time.
fn time_run(exp: &Experiment, repeat: u32) -> Result<(RunResult, f64), String> {
    time_closure(repeat, || exp.run().map_err(|e| e.to_string()))
}

/// Two results are interchangeable iff every measured field matches.
fn identical(a: &RunResult, b: &RunResult) -> bool {
    a.instrs == b.instrs
        && a.trace == b.trace
        && a.cache == b.cache
        && a.fault_curve == b.fault_curve
        && a.victim == b.victim
        && a.three_c == b.three_c
        && a.two_level == b.two_level
        && a.frag_curve == b.frag_curve
        && a.heap_high_water == b.heap_high_water
        && a.alloc_stats == b.alloc_stats
}

/// The allocators of the `--matrix` sweep: the sequential fit the paper
/// indicts, segregated storage, and the paper's recommended default.
const MATRIX_ALLOCATORS: [AllocatorKind; 3] =
    [AllocatorKind::FirstFit, AllocatorKind::Bsd, AllocatorKind::QuickFit];

/// Best-of-`repeat` replay of a captured stream into a freshly built
/// sink; returns the last build's finished value and the fastest time.
fn time_component<S: AccessSink, R>(
    repeat: u32,
    runs: &[RefRun],
    build: impl Fn() -> S,
    finish: impl Fn(S) -> R,
) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..repeat {
        let mut sink = build();
        let start = Instant::now();
        sink.record_runs(runs);
        best = best.min(start.elapsed().as_secs_f64());
        result = Some(finish(sink));
    }
    (result.expect("repeat >= 1"), best)
}

/// The bank-vs-sweep report: the single-pass [`SweepCache`] against the
/// per-cache [`CacheBank`] on the paper's five-configuration sweep, per
/// (program, allocator) cell.
///
/// Each cell's run-compressed stream is captured once; both simulators
/// then replay the identical stream, so the measured refs/sec is cache
/// simulation throughput with the (shared, unchanged) workload-driver
/// cost excluded.
fn sweep_report(args: &Args) -> Result<SweepReport, String> {
    let configs = CacheConfig::paper_sweep();
    let cells_spec: Vec<(Program, AllocatorKind)> = if args.matrix {
        Program::FIVE
            .into_iter()
            .flat_map(|p| MATRIX_ALLOCATORS.into_iter().map(move |a| (p, a)))
            .collect()
    } else {
        vec![(Program::Espresso, AllocatorKind::FirstFit)]
    };

    eprintln!(
        "# sweep perf: bank vs single-pass sweep, {} cache configs, {} cell(s), best of {}",
        configs.len(),
        cells_spec.len(),
        args.repeat
    );

    let mut cells = Vec::with_capacity(cells_spec.len());
    let (mut bank_total, mut sweep_total, mut refs_total) = (0.0f64, 0.0f64, 0u64);
    let mut min_speedup = f64::INFINITY;
    let mut all_identical = true;
    for (program, allocator) in cells_spec {
        // No sinks attached: the capture drive only collects the stream.
        let opts = SimOptions { cache_configs: vec![], paging: false, ..SimOptions::default() };
        let exp = cell_experiment(program, allocator, args.scale, opts);
        let runs = exp.capture_runs().map_err(|e| e.to_string())?;
        let mut counter = CountingSink::new();
        counter.record_runs(&runs);
        let refs = counter.stats().total_words();

        let (bank_results, bank_secs) = time_component(
            args.repeat,
            &runs,
            || CacheBank::new(configs.iter().copied()),
            |bank| bank.results(),
        );
        let (sweep_results, sweep_secs) = time_component(
            args.repeat,
            &runs,
            || SweepCache::try_new(configs.iter().copied()).expect("paper sweep is sweepable"),
            |sweep| sweep.results(),
        );

        let same = bank_results == sweep_results;
        let speedup = bank_secs / sweep_secs.max(1e-9);
        eprintln!(
            "  {:<10}/{:<9} bank {bank_secs:.3}s  sweep {sweep_secs:.3}s  {speedup:.2}x  \
             (identical: {same})",
            program.label(),
            allocator.label(),
        );
        if !same {
            eprintln!("WARNING: sweep statistics differ from bank statistics");
        }
        bank_total += bank_secs;
        sweep_total += sweep_secs;
        refs_total += refs;
        min_speedup = min_speedup.min(speedup);
        all_identical &= same;
        cells.push(SweepCell {
            program: program.label().to_string(),
            allocator: allocator.label().to_string(),
            data_refs: refs,
            stream_runs: runs.len() as u64,
            bank: timing("bank", bank_secs, refs),
            sweep: timing("sweep", sweep_secs, refs),
            speedup,
            identical_results: same,
        });
    }

    Ok(SweepReport {
        scale: args.scale,
        repeats: args.repeat,
        matrix: args.matrix,
        cache_configs: configs.iter().map(|c| c.to_string()).collect(),
        cells,
        aggregate_bank_refs_per_sec: refs_total as f64 / bank_total.max(1e-9),
        aggregate_sweep_refs_per_sec: refs_total as f64 / sweep_total.max(1e-9),
        aggregate_speedup: bank_total / sweep_total.max(1e-9),
        min_cell_speedup: min_speedup,
        identical_results: all_identical,
    })
}

/// The cold-vs-warm replay report: every cell of the paper's 5×5 matrix
/// run once against an empty stream cache (generating the workload and
/// storing the captured stream) and then again against the populated
/// cache. The warm run has the same sinks, so the stored result answers
/// it after one read and checksum of the file, without decoding a record.
///
/// The cold pass is timed once per cell — its second execution would hit
/// the cache it just filled — while the warm pass is best of `--repeat`.
fn replay_report(args: &Args) -> Result<ReplayReport, String> {
    // Start from an empty cache so the first pass is genuinely cold.
    let _ = std::fs::remove_dir_all(&args.replay_cache);
    let configs = CacheConfig::paper_sweep();
    let base = SimOptions {
        cache_configs: configs.clone(),
        paging: true,
        stream_cache: Some(args.replay_cache.clone()),
        ..SimOptions::default()
    };

    eprintln!(
        "# replay perf: 5x5 matrix, {} cache configs + pager, scale {}, warm best of {}",
        configs.len(),
        args.scale,
        args.repeat
    );

    let mut cells = Vec::new();
    let (mut cold_total, mut warm_total) = (0.0f64, 0.0f64);
    let mut min_speedup = f64::INFINITY;
    let mut all_identical = true;
    for program in Program::FIVE {
        for allocator in AllocatorKind::ALL {
            let exp = cell_experiment(program, allocator, args.scale, base.clone());
            let start = Instant::now();
            let cold_result = exp.run().map_err(|e| e.to_string())?;
            let cold_secs = start.elapsed().as_secs_f64();
            let refs = cold_result.data_refs();

            let (warm_result, warm_secs) = time_run(&exp, args.repeat)?;
            let same = identical(&cold_result, &warm_result);
            let speedup = cold_secs / warm_secs.max(1e-9);
            eprintln!(
                "  {:<10}/{:<9} cold {cold_secs:.3}s  warm {warm_secs:.3}s  {speedup:.2}x  \
                 (identical: {same})",
                program.label(),
                allocator.label(),
            );
            if !same {
                eprintln!("WARNING: replayed result differs from the populating run");
            }
            cold_total += cold_secs;
            warm_total += warm_secs;
            min_speedup = min_speedup.min(speedup);
            all_identical &= same;
            cells.push(ReplayCell {
                program: program.label().to_string(),
                allocator: allocator.label().to_string(),
                data_refs: refs,
                cold: timing("cold", cold_secs, refs),
                warm: timing("warm", warm_secs, refs),
                speedup,
                identical_results: same,
            });
        }
    }

    Ok(ReplayReport {
        scale: args.scale,
        repeats: args.repeat,
        cache_configs: configs.iter().map(|c| c.to_string()).collect(),
        cells,
        aggregate_cold_secs: cold_total,
        aggregate_warm_secs: warm_total,
        aggregate_speedup: cold_total / warm_total.max(1e-9),
        min_cell_speedup: min_speedup,
        identical_results: all_identical,
    })
}

/// Run delivery as it was before the run-aware multi-block fast paths:
/// a repeated reference spanning more than one block is expanded back
/// into `count` scalar [`AccessSink::record`] calls, while single-block
/// runs (whose O(1) repeat arithmetic predates this PR) still flow
/// through [`AccessSink::record_runs`].
///
/// Wrapping a current sink in this reproduces the old cost model
/// exactly — the wrapped sink's span fast path never fires because it
/// only ever sees runs it would have absorbed before — which makes it
/// the timing *and* bit-identity baseline for every lane that has no
/// verbatim reference port.
struct OldRunDelivery<S> {
    sink: S,
    /// The wrapped sink's block (or page) size, for the single-block
    /// test the old gate used.
    block: u64,
}

impl<S: AccessSink> AccessSink for OldRunDelivery<S> {
    fn record(&mut self, r: MemRef) {
        self.sink.record(r);
    }

    fn record_runs(&mut self, runs: &[RefRun]) {
        for run in runs {
            if run.count > 1 && !run.r.single_block(self.block) {
                for _ in 0..run.count {
                    self.sink.record(run.r);
                }
            } else {
                self.sink.record_runs(std::slice::from_ref(run));
            }
        }
    }
}

/// Times one sink lane: the current sink against its pre-restructure
/// delivery, both replaying the same captured stream, with the finished
/// statistics compared for bit-identity. The repeats are interleaved
/// (see [`bench::interleaved_best_of`]).
fn sink_lane<S, R, O, Q>(
    label: &str,
    repeat: u32,
    runs: &[RefRun],
    refs: u64,
    current: (impl Fn() -> S, impl Fn(S) -> R),
    reference: (impl Fn() -> O, impl Fn(O) -> Q),
    same: impl Fn(&R, &Q) -> bool,
) -> SinkLane
where
    S: AccessSink,
    O: AccessSink,
{
    let ((cur_result, cur_secs), (ref_result, ref_secs)) = interleaved_best_of(
        repeat,
        || Ok(time_component(1, runs, &current.0, &current.1)),
        || Ok(time_component(1, runs, &reference.0, &reference.1)),
    )
    .expect("sink replay bodies are infallible");
    let identical = same(&cur_result, &ref_result);
    let speedup = ref_secs / cur_secs.max(1e-9);
    eprintln!(
        "  {label:<10} current {cur_secs:.3}s  reference {ref_secs:.3}s  {speedup:.2}x  \
         (identical: {identical})"
    );
    if !identical {
        eprintln!("WARNING: {label} diverged from its pre-restructure delivery");
    }
    SinkLane {
        sink: label.to_string(),
        current: timing("current", cur_secs, refs),
        reference: timing("reference", ref_secs, refs),
        speedup,
        identical_results: identical,
    }
}

/// The isolated sink report: one captured espresso/FirstFit stream
/// replayed into each sink type alone, current vs. pre-restructure
/// delivery (`BENCH_sinks.json`).
fn sinks_report(args: &Args) -> Result<SinksReport, String> {
    let configs = CacheConfig::paper_sweep();
    let single = CacheConfig::direct_mapped(16 * 1024, 32);

    eprintln!(
        "# sinks perf: current vs pre-restructure delivery, scale {}, best of {}",
        args.scale, args.repeat
    );

    // No sinks attached: the capture drive only collects the stream.
    let opts = SimOptions { cache_configs: vec![], paging: false, ..SimOptions::default() };
    let exp = experiment(args.scale, opts);
    let runs = exp.capture_runs().map_err(|e| e.to_string())?;
    let mut counter = CountingSink::new();
    counter.record_runs(&runs);
    let refs = counter.stats().total_words();

    let block = u64::from(single.block);
    let page = vm_sim::PAGE_SIZE;
    let lanes = vec![
        // The sweep lane has a verbatim port of the old implementation,
        // so it measures the SoA restructure itself, not just delivery.
        sink_lane(
            "sweep",
            args.repeat,
            &runs,
            refs,
            (
                || SweepCache::try_new(configs.iter().copied()).expect("paper sweep is sweepable"),
                |sweep: SweepCache| sweep.results(),
            ),
            (
                || {
                    ReferenceSweepCache::try_new(configs.iter().copied())
                        .expect("paper sweep is sweepable")
                },
                |sweep: ReferenceSweepCache| sweep.results(),
            ),
            |a, b| a == b,
        ),
        sink_lane(
            "bank",
            args.repeat,
            &runs,
            refs,
            (|| CacheBank::new(configs.iter().copied()), |bank: CacheBank| bank.results()),
            (
                || OldRunDelivery { sink: CacheBank::new(configs.iter().copied()), block },
                |old: OldRunDelivery<CacheBank>| old.sink.results(),
            ),
            |a, b| a == b,
        ),
        sink_lane(
            "cache-16K",
            args.repeat,
            &runs,
            refs,
            (|| Cache::new(single), |cache: Cache| *cache.stats()),
            (
                || OldRunDelivery { sink: Cache::new(single), block },
                |old: OldRunDelivery<Cache>| *old.sink.stats(),
            ),
            |a, b| a == b,
        ),
        sink_lane(
            "pager",
            args.repeat,
            &runs,
            refs,
            (
                || StackSim::paper(),
                |sim: StackSim| (sim.curve(), sim.accesses(), sim.distinct_pages()),
            ),
            (
                || OldRunDelivery { sink: StackSim::paper(), block: page },
                |old: OldRunDelivery<StackSim>| {
                    (old.sink.curve(), old.sink.accesses(), old.sink.distinct_pages())
                },
            ),
            |a, b| a == b,
        ),
    ];

    let sweep_speedup = lanes[0].speedup;
    let identical_results = lanes.iter().all(|lane| lane.identical_results);
    Ok(SinksReport {
        program: Program::Espresso.label().to_string(),
        allocator: AllocatorKind::FirstFit.label().to_string(),
        scale: args.scale,
        repeats: args.repeat,
        stream_runs: runs.len() as u64,
        data_refs: refs,
        cache_configs: configs.iter().map(|c| c.to_string()).collect(),
        lanes,
        sweep_speedup,
        identical_results,
    })
}

/// The observability overhead report (`BENCH_obs.json`).
#[derive(Debug, Clone, Serialize)]
struct ObsReport {
    program: String,
    allocator: String,
    scale: f64,
    repeats: u32,
    /// The gate the no-op overhead was checked against.
    max_overhead: f64,
    /// Which measurement attempt this report records (1-based; above 1
    /// only when earlier attempts tripped the gate and `--gate-retries`
    /// allowed a re-measurement).
    gate_attempt: u32,
    /// Recorder absent: the instrumented binary's plain `run()`.
    baseline: Timing,
    /// [`obs::NullRecorder`] attached — what "metrics compiled in but
    /// disabled" costs.
    null_recorder: Timing,
    /// [`obs::MemoryRecorder`] attached — what full collection costs.
    memory_recorder: Timing,
    /// `null_recorder.secs / baseline.secs - 1`.
    noop_overhead: f64,
    /// `memory_recorder.secs / baseline.secs - 1`.
    recording_overhead: f64,
    /// Whether all three runs produced bit-identical [`RunResult`]s.
    identical_results: bool,
    /// Distinct metric names the in-memory recorder captured.
    counters: usize,
    histograms: usize,
    spans: usize,
}

/// The observability harness: the heavy configuration run recorder-free,
/// with a no-op recorder, and with a collecting recorder.
fn obs_report(args: &Args, gate_attempt: u32) -> Result<ObsReport, String> {
    let opts = SimOptions {
        cache_configs: CacheConfig::paper_sweep(),
        paging: true,
        ..SimOptions::default()
    };
    let exp = experiment(args.scale, opts);
    eprintln!(
        "# obs perf: espresso/FirstFit, scale {}, best of {}, no-op gate {:.1}%",
        args.scale,
        args.repeat,
        args.max_overhead * 100.0
    );

    let (base_result, base_secs) = time_run(&exp, args.repeat)?;
    let refs = base_result.data_refs();
    eprintln!("no recorder:     {base_secs:.3}s");

    let (null_result, null_secs) = time_closure(args.repeat, || {
        let mut rec = NullRecorder;
        exp.run_with_recorder(&mut rec).map_err(|e| e.to_string())
    })?;
    eprintln!("null recorder:   {null_secs:.3}s");

    let (mem_report, mem_secs) =
        time_closure(args.repeat, || exp.report().map_err(|e| e.to_string()))?;
    let (mem_result, metrics) = (mem_report.result, mem_report.metrics);
    eprintln!("memory recorder: {mem_secs:.3}s");

    let same = identical(&base_result, &null_result) && identical(&base_result, &mem_result);
    if !same {
        eprintln!("WARNING: recording changed the simulation result");
    }
    Ok(ObsReport {
        program: base_result.program.clone(),
        allocator: base_result.allocator.clone(),
        scale: args.scale,
        repeats: args.repeat,
        max_overhead: args.max_overhead,
        gate_attempt,
        baseline: timing("no-recorder", base_secs, refs),
        null_recorder: timing("null-recorder", null_secs, refs),
        memory_recorder: timing("memory-recorder", mem_secs, refs),
        noop_overhead: null_secs / base_secs.max(1e-9) - 1.0,
        recording_overhead: mem_secs / base_secs.max(1e-9) - 1.0,
        identical_results: same,
        counters: metrics.counters.len(),
        histograms: metrics.histograms.len(),
        spans: metrics.spans.len(),
    })
}

fn write_json<T: Serialize>(path: &PathBuf, value: &T) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).expect("serialize report");
    std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("[wrote {}]", path.display());
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    if args.obs {
        // The overhead gate compares two sub-second wall-clock timings,
        // so one preempted run on a loaded CI machine can push a genuine
        // ~0% overhead past the bound. `run_gated` re-measures the whole
        // comparison up to `--gate-retries` extra times before declaring
        // a failure; result identity is never retried — a divergence is
        // a bug, not noise.
        return run_gated(args.gate_retries, |attempt| {
            let report = obs_report(&args, attempt)?;
            eprintln!(
                "no-op overhead: {:+.2}%  full recording: {:+.2}%  (identical results: {})",
                report.noop_overhead * 100.0,
                report.recording_overhead * 100.0,
                report.identical_results
            );
            write_json(&args.obs_out, &report)?;
            if !report.identical_results {
                return Ok(GateOutcome::Diverged("recording changed the simulation result".into()));
            }
            if report.noop_overhead <= args.max_overhead {
                return Ok(GateOutcome::Pass);
            }
            Ok(GateOutcome::Slow {
                note: format!(
                    "overhead {:.2}% over the {:.2}% gate",
                    report.noop_overhead * 100.0,
                    args.max_overhead * 100.0
                ),
                fail: format!(
                    "disabled-recorder overhead {:.2}% exceeds the {:.2}% gate \
                     after {} attempt(s)",
                    report.noop_overhead * 100.0,
                    args.max_overhead * 100.0,
                    attempt
                ),
            })
        });
    }

    if args.sinks {
        // Like the obs overhead gate, the speedup gate compares short
        // wall-clock timings, so the gate is re-measured; a bit-identity
        // divergence is a bug, not noise, and is never retried.
        return run_gated(args.gate_retries, |attempt| {
            let report = sinks_report(&args)?;
            eprintln!(
                "sinks sweep speedup: {:.2}x (identical results: {})",
                report.sweep_speedup, report.identical_results
            );
            write_json(&args.sinks_out, &report)?;
            if !report.identical_results {
                return Ok(GateOutcome::Diverged(
                    "a sink lane diverged from its pre-restructure delivery".into(),
                ));
            }
            if report.sweep_speedup >= args.min_speedup {
                return Ok(GateOutcome::Pass);
            }
            Ok(GateOutcome::Slow {
                note: format!(
                    "sweep speedup {:.2}x below the {:.2}x gate",
                    report.sweep_speedup, args.min_speedup
                ),
                fail: format!(
                    "sweep lane speedup {:.2}x is below the {:.2}x gate after {} attempt(s)",
                    report.sweep_speedup, args.min_speedup, attempt
                ),
            })
        });
    }

    if args.replay {
        let report = replay_report(&args)?;
        eprintln!(
            "replay speedup: {:.2}x aggregate, {:.2}x min cell (identical results: {})",
            report.aggregate_speedup, report.min_cell_speedup, report.identical_results
        );
        write_json(&args.replay_out, &report)?;
        if !report.identical_results {
            return Err("a replayed cell diverged from its populating run".into());
        }
        if report.aggregate_speedup < args.min_speedup {
            return Err(format!(
                "aggregate replay speedup {:.2}x is below the {:.2}x gate",
                report.aggregate_speedup, args.min_speedup
            ));
        }
        return Ok(());
    }

    let sweep = sweep_report(&args)?;
    eprintln!(
        "sweep speedup: {:.2}x aggregate, {:.2}x min cell (identical results: {})",
        sweep.aggregate_speedup, sweep.min_cell_speedup, sweep.identical_results
    );
    write_json(&args.sweep_out, &sweep)?;

    if !sweep.identical_results {
        return Err("single-pass sweep diverged from the per-cache bank".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
