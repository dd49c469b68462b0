//! `perf`: the recorder-overhead gate.
//!
//! ```text
//! perf [--scale F] [--repeat N] [--max-overhead F] [--gate-retries N]
//!      [--obs-out FILE]
//! ```
//!
//! Runs one heavy configuration (espresso under FirstFit, the paper's
//! most metadata-hungry pairing, with the paper's cache sweep and the
//! pager) three ways — recorder absent, [`obs::NullRecorder`] attached,
//! and [`obs::MemoryRecorder`] attached — best of `--repeat` each, and
//! writes the timings to `--obs-out` (`BENCH_obs.json`). The no-op
//! recorder must cost at most `--max-overhead` (fraction, default 0.02)
//! over the recorder-free run, and all three runs must produce the same
//! [`RunResult`]; either failure exits non-zero. An overhead-gate trip
//! (but never a result divergence) is re-measured up to
//! `--gate-retries` extra times first, which CI uses to absorb
//! scheduler noise on shared runners.
//!
//! Every other timing lives in the benchmark (`benchmark/run.py`),
//! whose traced ledger times each layer of a run; none of its metrics
//! prices a disabled recorder, so this gate stays here.
//!
//! [`RunResult`]: alloc_locality::RunResult

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use alloc_locality::{AllocChoice, Experiment, SimOptions};
use allocators::AllocatorKind;
use cache_sim::CacheConfig;
use obs::NullRecorder;
use serde::Serialize;
use workloads::{Program, Scale};

/// One timed recorder setting.
#[derive(Debug, Clone, Serialize)]
struct Timing {
    /// Which recorder setting ran.
    label: String,
    /// Best wall-clock seconds over the repeats.
    secs: f64,
    /// Word-granular data references per second at that timing.
    refs_per_sec: f64,
}

fn timing(label: &str, secs: f64, refs: u64) -> Timing {
    Timing { label: label.to_string(), secs, refs_per_sec: refs as f64 / secs.max(1e-9) }
}

/// Best-of-`repeat` timing of a fallible body; returns the last value
/// and the fastest time.
fn time_closure<R>(
    repeat: u32,
    mut body: impl FnMut() -> Result<R, String>,
) -> Result<(R, f64), String> {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..repeat {
        let start = Instant::now();
        let r = body()?;
        best = best.min(start.elapsed().as_secs_f64());
        result = Some(r);
    }
    Ok((result.expect("repeat >= 1"), best))
}

/// The overhead report (`BENCH_obs.json`).
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
    /// Whether all three runs produced the same [`RunResult`].
    ///
    /// [`RunResult`]: alloc_locality::RunResult
    identical_results: bool,
    /// Distinct metric names the in-memory recorder captured.
    counters: usize,
    histograms: usize,
    spans: usize,
}

struct Args {
    scale: f64,
    repeat: u32,
    max_overhead: f64,
    gate_retries: u32,
    obs_out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: 0.02,
        repeat: 3,
        max_overhead: 0.02,
        gate_retries: 0,
        obs_out: PathBuf::from("BENCH_obs.json"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = bench::parse_scale(&argv.next().ok_or("--scale needs a value")?)?;
            }
            "--repeat" => {
                let v = argv.next().ok_or("--repeat needs a value")?;
                args.repeat = v.parse().map_err(|e| format!("bad repeat count {v}: {e}"))?;
                if args.repeat == 0 {
                    return Err("repeat count must be at least 1".into());
                }
            }
            "--max-overhead" => {
                let v = argv.next().ok_or("--max-overhead needs a value")?;
                args.max_overhead =
                    v.parse().map_err(|e| format!("bad overhead bound {v}: {e}"))?;
                if args.max_overhead < 0.0 {
                    return Err("overhead bound must be non-negative".into());
                }
            }
            "--gate-retries" => {
                let v = argv.next().ok_or("--gate-retries needs a value")?;
                args.gate_retries = v.parse().map_err(|e| format!("bad retry count {v}: {e}"))?;
            }
            "--obs-out" => {
                args.obs_out = PathBuf::from(argv.next().ok_or("--obs-out needs a path")?);
            }
            "--help" | "-h" => {
                return Err("usage: perf [--scale F] [--repeat N] [--max-overhead F]\n\
                     \x20           [--gate-retries N] [--obs-out FILE]\n\
                     times espresso/FirstFit with no recorder, a null recorder and an\n\
                     in-memory recorder, and fails if the null recorder costs more than\n\
                     --max-overhead (default 0.02) or any recorder changes the result;\n\
                     --gate-retries re-measures up to N extra times before declaring an\n\
                     overhead failure (absorbs scheduler noise on loaded CI machines)"
                    .into());
            }
            other => return Err(format!("unknown argument {other:?}; try --help")),
        }
    }
    Ok(args)
}

/// One measurement: the heavy configuration run recorder-free, with a
/// no-op recorder, and with a collecting recorder.
fn obs_report(args: &Args, gate_attempt: u32) -> Result<ObsReport, String> {
    let opts = SimOptions {
        cache_configs: CacheConfig::paper_sweep(),
        paging: true,
        scale: Scale(args.scale),
        ..SimOptions::default()
    };
    let exp = Experiment::new(Program::Espresso, AllocChoice::Paper(AllocatorKind::FirstFit))
        .options(opts);
    eprintln!(
        "# obs perf: espresso/FirstFit, scale {}, best of {}, no-op gate {:.1}%",
        args.scale,
        args.repeat,
        args.max_overhead * 100.0
    );

    let (base_result, base_secs) =
        time_closure(args.repeat, || exp.run().map_err(|e| e.to_string()))?;
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

    let same = base_result == null_result && base_result == mem_result;
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

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let attempts = args.gate_retries + 1;
    // The overhead gate compares two sub-second wall-clock timings, so
    // one preempted run on a loaded CI machine can push a genuine ~0%
    // overhead past the bound: a trip is re-measured. A result
    // divergence is a bug, not noise, and fails on the spot.
    let mut overhead = 0.0;
    for attempt in 1..=attempts {
        let report = obs_report(&args, attempt)?;
        eprintln!(
            "no-op overhead: {:+.2}%  full recording: {:+.2}%  (identical results: {})",
            report.noop_overhead * 100.0,
            report.recording_overhead * 100.0,
            report.identical_results
        );
        let json = serde_json::to_string_pretty(&report).expect("serialize report");
        std::fs::write(&args.obs_out, json)
            .map_err(|e| format!("write {}: {e}", args.obs_out.display()))?;
        eprintln!("[wrote {}]", args.obs_out.display());
        if !report.identical_results {
            return Err("recording changed the simulation result".into());
        }
        if report.noop_overhead <= args.max_overhead {
            return Ok(());
        }
        overhead = report.noop_overhead;
        if attempt < attempts {
            eprintln!(
                "overhead {:.2}% over the {:.2}% gate; re-measuring (attempt {} of {attempts})",
                overhead * 100.0,
                args.max_overhead * 100.0,
                attempt + 1
            );
        }
    }
    Err(format!(
        "disabled-recorder overhead {:.2}% exceeds the {:.2}% gate after {attempts} attempt(s)",
        overhead * 100.0,
        args.max_overhead * 100.0
    ))
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
