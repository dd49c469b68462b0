//! `explore`: offline design-space sweeps over allocator configurations.
//!
//! ```text
//! explore --spec SWEEP.json [--out REPORT.jsonl] [--threads N] [--quiet]
//!         [--stream-cache DIR [--stream-cache-bytes N]]
//!         [--bench [--gate F]]
//!         [--warm [--warm-out REPORT.jsonl] [--warm-gate F]]
//!         [--adaptive [--budget N] [--iterations N]
//!                     [--check-front REPORT.jsonl] [--max-fraction F]]
//! ```
//!
//! The spec file is a [`SweepSpec`] in JSON: a workload cell —
//! optionally with program/scale axes — plus one parameter grid per
//! allocator family. The sweep captures each workload cell's event
//! sequence once and drives every point off the shared trace; the
//! finished `alloc-locality.sweep-report` JSONL goes to `--out`
//! (default stdout) and a Pareto-front table to stderr. `--threads 0`
//! auto-detects the worker count, like `repro`.
//!
//! `--stream-cache` routes every point through the engine's persistent
//! stream cache: points whose streams are already stored replay without
//! generation or allocator simulation, the rest populate the cache for
//! the next run. `--warm` then re-runs the identical sweep against the
//! freshly-populated cache, asserts every point row is byte-identical
//! to the cold run's, and gates the warm speedup (`--warm-gate`).
//!
//! `--bench` re-runs the identical sweep through the naive executor
//! (every point regenerating its own events), asserts the two reports
//! are byte-identical, and gates the shared-trace speedup (`--gate`).
//! Below the gate it re-times both executors up to [`BENCH_RETRIES`]
//! more times and gates the best ratio; every attempt must reproduce
//! the shared report byte for byte, and a divergence fails at once.
//!
//! `--adaptive` replaces exhaustive expansion with budgeted refinement
//! toward the Pareto front; `--check-front` compares the resulting
//! front against a previously-written exhaustive report's and
//! `--max-fraction` gates the evaluated-points fraction.
//!
//! Each lane ends with one summary line on stderr, printed even under
//! `--quiet`; the warm lane's names the resolved thread count.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use explore::{
    run_adaptive, run_sweep_naive, run_sweep_with, AdaptiveOptions, ExecOptions, SweepReport,
    SweepSpec,
};

/// Extra attempts `--bench` makes when a timing falls below `--gate`:
/// two wall-clock timings on a shared host vary by a third at one
/// commit, so a single miss says little.
const BENCH_RETRIES: usize = 2;

const USAGE: &str = "usage: explore --spec SWEEP.json [--out REPORT.jsonl] [--threads N] \
                     [--quiet] [--stream-cache DIR [--stream-cache-bytes N]] \
                     [--bench [--gate F]] \
                     [--warm [--warm-out FILE] [--warm-gate F]] \
                     [--adaptive [--budget N] [--iterations N] [--check-front FILE] \
                     [--max-fraction F]]";

struct Args {
    spec: PathBuf,
    out: Option<PathBuf>,
    threads: usize,
    quiet: bool,
    stream_cache: Option<PathBuf>,
    stream_cache_bytes: Option<u64>,
    bench: bool,
    gate: Option<f64>,
    warm: bool,
    warm_out: Option<PathBuf>,
    warm_gate: Option<f64>,
    adaptive: bool,
    budget: usize,
    iterations: usize,
    check_front: Option<PathBuf>,
    max_fraction: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        spec: PathBuf::new(),
        out: None,
        threads: 0,
        quiet: false,
        stream_cache: None,
        stream_cache_bytes: None,
        bench: false,
        gate: None,
        warm: false,
        warm_out: None,
        warm_gate: None,
        adaptive: false,
        budget: 0,
        iterations: 0,
        check_front: None,
        max_fraction: None,
    };
    let mut spec = None;
    let mut argv = std::env::args().skip(1);
    let positive_ratio = |v: String, what: &str| -> Result<f64, String> {
        let g: f64 = v.parse().map_err(|e| format!("bad {what} {v}: {e}"))?;
        if g.is_nan() || g <= 0.0 {
            return Err(format!("{what} must be a positive ratio"));
        }
        Ok(g)
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--spec" => spec = Some(PathBuf::from(argv.next().ok_or("--spec needs a path")?)),
            "--out" => args.out = Some(PathBuf::from(argv.next().ok_or("--out needs a path")?)),
            "--threads" => {
                let v = argv.next().ok_or("--threads needs a count")?;
                // 0 auto-detects, the same contract as `repro --threads 0`.
                args.threads = v.parse().map_err(|e| format!("bad thread count {v}: {e}"))?;
            }
            "--quiet" => args.quiet = true,
            "--stream-cache" => {
                let v = argv.next().ok_or("--stream-cache needs a directory")?;
                args.stream_cache = Some(PathBuf::from(v));
            }
            "--stream-cache-bytes" => {
                let v = argv.next().ok_or("--stream-cache-bytes needs a size")?;
                let n: u64 = v.parse().map_err(|e| format!("bad size {v}: {e}"))?;
                args.stream_cache_bytes = Some(n);
            }
            "--bench" => args.bench = true,
            "--gate" => {
                args.gate =
                    Some(positive_ratio(argv.next().ok_or("--gate needs a ratio")?, "gate")?)
            }
            "--warm" => args.warm = true,
            "--warm-out" => {
                args.warm_out = Some(PathBuf::from(argv.next().ok_or("--warm-out needs a path")?));
            }
            "--warm-gate" => {
                args.warm_gate = Some(positive_ratio(
                    argv.next().ok_or("--warm-gate needs a ratio")?,
                    "warm gate",
                )?);
            }
            "--adaptive" => args.adaptive = true,
            "--budget" => {
                let v = argv.next().ok_or("--budget needs a count")?;
                args.budget = v.parse().map_err(|e| format!("bad budget {v}: {e}"))?;
            }
            "--iterations" => {
                let v = argv.next().ok_or("--iterations needs a count")?;
                args.iterations = v.parse().map_err(|e| format!("bad iteration count {v}: {e}"))?;
            }
            "--check-front" => {
                args.check_front =
                    Some(PathBuf::from(argv.next().ok_or("--check-front needs a path")?));
            }
            "--max-fraction" => {
                let v = argv.next().ok_or("--max-fraction needs a ratio")?;
                let f = positive_ratio(v, "max fraction")?;
                if f > 1.0 {
                    return Err("max fraction cannot exceed 1".into());
                }
                args.max_fraction = Some(f);
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unexpected argument {other:?}; try --help")),
        }
    }
    args.spec = spec.ok_or(USAGE)?;
    if args.warm && args.stream_cache.is_none() {
        return Err("--warm needs --stream-cache: a warm rerun replays the populated cache".into());
    }
    if args.adaptive && (args.bench || args.warm) {
        return Err("--adaptive is its own lane; run --bench/--warm separately".into());
    }
    if args.bench && args.stream_cache.is_some() {
        return Err("--bench measures shared-trace reuse; run it without --stream-cache \
                    (cache-backed runs carry cache counters the naive baseline lacks)"
            .into());
    }
    Ok(args)
}

fn progress_printer(
    total: usize,
    quiet: bool,
) -> impl Fn(usize, &alloc_locality::RunResult) + Sync {
    move |done, result| {
        if !quiet {
            eprintln!("[{done}/{total}] {} / {}", result.program, result.allocator);
        }
    }
}

/// Renders the Pareto front as an aligned stderr table, best miss rate
/// first, so a terminal run ends with the configurations worth keeping.
fn print_front(report: &SweepReport) {
    eprintln!(
        "sweep {}: {} points, {} on the Pareto front",
        report.header.sweep_id,
        report.points.len(),
        report.front.front.len()
    );
    eprintln!(
        "{:<40} {:>10} {:>14} {:>14}",
        "allocator", "miss rate", "instructions", "peak bytes"
    );
    let mut rows: Vec<_> = report.front_rows().collect();
    rows.sort_by(|a, b| {
        a.objectives
            .miss_rate
            .partial_cmp(&b.objectives.miss_rate)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for row in rows {
        eprintln!(
            "{:<40} {:>10.4} {:>14} {:>14}",
            row.allocator,
            row.objectives.miss_rate,
            row.objectives.instructions,
            row.objectives.peak_granted
        );
    }
}

fn write_report(jsonl: &str, out: &Option<PathBuf>) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, jsonl).map_err(|e| format!("write {}: {e}", path.display()))
        }
        None => {
            // A reader that closed stdout ends the output, not the run.
            let _ = std::io::stdout().write_all(jsonl.as_bytes());
            Ok(())
        }
    }
}

fn run_adaptive_mode(args: &Args, spec: &SweepSpec, exec: &ExecOptions) -> Result<(), String> {
    let exhaustive = spec.points().len();
    let adaptive = AdaptiveOptions { budget: args.budget, iterations: args.iterations };
    let started = Instant::now();
    let report = run_adaptive(spec, exec, adaptive, progress_printer(exhaustive, args.quiet))
        .map_err(|e| e.to_string())?;
    let secs = started.elapsed().as_secs_f64();
    report.validate().map_err(|e| format!("adaptive sweep report failed validation: {e}"))?;
    write_report(&report.to_jsonl(), &args.out)?;
    print_front(&report);

    let h = &report.header;
    let fraction = h.adaptive_evaluated as f64 / h.adaptive_exhaustive.max(1) as f64;
    eprintln!(
        "adaptive: {} of {} points ({:.0}%) in {} iterations, {:.2}s",
        h.adaptive_evaluated,
        h.adaptive_exhaustive,
        fraction * 100.0,
        h.adaptive_iterations,
        secs
    );
    if let Some(path) = &args.check_front {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let exhaustive_report =
            SweepReport::parse(&text).map_err(|e| format!("{}: parse: {e}", path.display()))?;
        if report.front.front != exhaustive_report.front.front {
            eprintln!(
                "adaptive front {:?} != exhaustive front {:?}",
                report.front.front, exhaustive_report.front.front
            );
            return Err("adaptive front diverged from the exhaustive front".into());
        }
    }
    if let Some(max) = args.max_fraction {
        if fraction > max {
            return Err(format!(
                "adaptive refinement evaluated {:.0}% of the grid, above the {:.0}% gate",
                fraction * 100.0,
                max * 100.0
            ));
        }
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let text = std::fs::read_to_string(&args.spec)
        .map_err(|e| format!("read {}: {e}", args.spec.display()))?;
    let spec: SweepSpec =
        serde_json::from_str(&text).map_err(|e| format!("{}: parse: {e}", args.spec.display()))?;
    spec.validate().map_err(|e| e.to_string())?;
    let exec = ExecOptions {
        threads: args.threads,
        stream_cache: args.stream_cache.clone(),
        stream_cache_bytes: args.stream_cache_bytes,
    };
    let threads = exec.resolved_threads();
    let total = spec.points().len();
    if !args.quiet {
        eprintln!(
            "sweep {}: {total} points over {:?}, {threads} threads",
            spec.sweep_id(),
            spec.families(),
        );
    }
    if args.adaptive {
        return run_adaptive_mode(&args, &spec, &exec);
    }

    let started = Instant::now();
    let report = run_sweep_with(&spec, &exec, progress_printer(total, args.quiet))
        .map_err(|e| e.to_string())?;
    let shared_secs = started.elapsed().as_secs_f64();
    report.validate().map_err(|e| format!("fresh sweep report failed validation: {e}"))?;

    let jsonl = report.to_jsonl();
    write_report(&jsonl, &args.out)?;
    print_front(&report);

    if args.warm {
        if !args.quiet {
            eprintln!("warm: re-running {total} points against the populated cache");
        }
        let started = Instant::now();
        let warm = run_sweep_with(&spec, &exec, progress_printer(total, args.quiet))
            .map_err(|e| e.to_string())?;
        let warm_secs = started.elapsed().as_secs_f64();
        let identical = warm.points == report.points && warm.front == report.front;
        if !identical {
            return Err("warm rerun diverged from the cold sweep report".into());
        }
        if let Some(path) = &args.warm_out {
            std::fs::write(path, warm.to_jsonl())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        let stats = sim_mem::StreamCache::new(
            args.stream_cache.as_ref().expect("--warm implies --stream-cache"),
        )
        .stats();
        let speedup = shared_secs / warm_secs;
        eprintln!(
            "warm: cold {shared_secs:.2}s ({} hits/{} misses), warm {warm_secs:.2}s \
             ({} hits/{} misses), speedup {speedup:.2}x, cache {} entries/{} bytes, \
             {threads} threads",
            report.header.stream_hits,
            report.header.stream_misses,
            warm.header.stream_hits,
            warm.header.stream_misses,
            stats.entries,
            stats.bytes
        );
        if let Some(gate) = args.warm_gate {
            if speedup < gate {
                return Err(format!("warm replay speedup {speedup:.2}x below the {gate:.2}x gate"));
            }
        }
    }

    if args.bench {
        let mut shared_secs = shared_secs;
        let mut best = 0.0f64;
        for attempt in 0..=BENCH_RETRIES {
            if attempt > 0 {
                if !args.quiet {
                    eprintln!("bench: re-timing both executors (retry {attempt})");
                }
                let started = Instant::now();
                let again = run_sweep_with(&spec, &exec, progress_printer(total, args.quiet))
                    .map_err(|e| e.to_string())?;
                shared_secs = started.elapsed().as_secs_f64();
                if again.to_jsonl() != jsonl {
                    return Err("shared-trace executor diverged from its first report".into());
                }
            }
            if !args.quiet {
                eprintln!("bench: re-running {total} points through the naive executor");
            }
            let started = Instant::now();
            let naive = run_sweep_naive(&spec, threads, progress_printer(total, args.quiet))
                .map_err(|e| e.to_string())?;
            let naive_secs = started.elapsed().as_secs_f64();
            if naive.to_jsonl() != jsonl {
                return Err("naive executor diverged from the shared-trace report".into());
            }
            let speedup = naive_secs / shared_secs;
            best = best.max(speedup);
            eprintln!(
                "bench: shared {shared_secs:.2}s, naive {naive_secs:.2}s, speedup {speedup:.2}x, \
                 {:.1} points/s",
                total as f64 / shared_secs
            );
            if args.gate.is_none_or(|gate| best >= gate) {
                break;
            }
        }
        if let Some(gate) = args.gate {
            if best < gate {
                return Err(format!(
                    "event-trace-reuse speedup {best:.2}x (best of {} attempts) below the \
                     {gate:.2}x gate",
                    BENCH_RETRIES + 1
                ));
            }
        }
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
