//! `repro`: regenerates every table and figure of *Improving the Cache
//! Locality of Memory Allocation* (PLDI 1993).
//!
//! ```text
//! repro [--scale F] [--threads N] [--json DIR] [--metrics FILE]
//!       [--trace FILE] [--stream-cache DIR] [--stream-cache-bytes N]
//!       [--verbose] [TARGET ...]
//!
//! TARGETS: fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8
//!          table1 table2 table3 table4 table5 table6 all
//! ```
//!
//! With no target, `all` is assumed. `--json DIR` additionally writes
//! each result as machine-readable JSON for re-plotting and diffing.
//! `--threads N` sizes the sweep's worker pool; `--threads 0` (and the
//! default when the flag is omitted) auto-detects one worker per
//! hardware thread via `std::thread::available_parallelism`.
//!
//! `--metrics FILE` runs the paper's 5×5 matrix with the observability
//! recorder attached and writes one schema-versioned
//! [`alloc_locality::RunReport`] per cell as a line of `FILE` (JSONL);
//! when no explicit target accompanies it, only the instrumented sweep
//! runs. `--trace FILE` does the same with a hierarchical tracer and
//! writes one `alloc-locality.trace` v1 line per cell; given together,
//! one traced sweep produces both files (results and metrics are
//! bit-identical either way). `--verbose` narrates every sweep to
//! stderr, one line per completed cell with elapsed wall time.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use alloc_locality::experiments::{
    conflict_analysis, exec_time_figure, fig1, future_work_table, miss_curves, paging_figure,
    table1, table2, table6, time_table, two_level_study, victim_study,
};
use alloc_locality::{run_many, AllocChoice, Experiment, RunReport, SimOptions};
use bench::MatrixCache;
use cache_sim::CacheConfig;
use serde::Serialize;
use workloads::{Program, Scale};

const ALL_TARGETS: [&str; 18] = [
    "table1",
    "table2",
    "table3",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table4",
    "table5",
    "table6",
    "ext-3c",
    "ext-victim",
    "ext-l2",
    "ext-future",
];

struct Args {
    scale: f64,
    threads: usize,
    stream_cache: Option<PathBuf>,
    stream_cache_bytes: Option<u64>,
    json_dir: Option<PathBuf>,
    metrics: Option<PathBuf>,
    trace: Option<PathBuf>,
    verbose: bool,
    targets: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut scale = 0.02;
    let mut threads = alloc_locality::default_threads();
    let mut json_dir = None;
    let mut metrics = None;
    let mut trace = None;
    let mut stream_cache = None;
    let mut stream_cache_bytes = None;
    let mut verbose = false;
    let mut targets = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = bench::parse_scale(&args.next().ok_or("--scale needs a value")?)?;
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                threads = v.parse().map_err(|e| format!("bad thread count {v}: {e}"))?;
                if threads == 0 {
                    // 0 = auto-detect, same as omitting the flag.
                    threads = alloc_locality::default_threads();
                }
            }
            "--json" => {
                json_dir = Some(PathBuf::from(args.next().ok_or("--json needs a directory")?));
            }
            "--metrics" => {
                metrics = Some(PathBuf::from(args.next().ok_or("--metrics needs a file path")?));
            }
            "--trace" => {
                trace = Some(PathBuf::from(args.next().ok_or("--trace needs a file path")?));
            }
            "--stream-cache" => {
                stream_cache =
                    Some(PathBuf::from(args.next().ok_or("--stream-cache needs a directory")?));
            }
            "--stream-cache-bytes" => {
                let v = args.next().ok_or("--stream-cache-bytes needs a byte count")?;
                let bytes: u64 =
                    v.parse().map_err(|e| format!("bad stream cache bound {v}: {e}"))?;
                stream_cache_bytes = Some(bytes);
            }
            "--verbose" | "-v" => verbose = true,
            "--help" | "-h" => {
                return Err(format!(
                    "usage: repro [--scale F] [--threads N] [--json DIR] [--metrics FILE] \
                     [--verbose] [TARGET ...]\n\
                     --threads 0 (or omitted) auto-detects from available_parallelism\n\
                     --metrics FILE writes one instrumented RunReport per 5x5 cell as JSONL\n\
                     --trace FILE writes one alloc-locality.trace v1 line per 5x5 cell\n\
                     --stream-cache DIR replays captured reference streams across invocations\n\
                     --stream-cache-bytes N bounds the stream cache, evicting oldest-written\n\
                     --verbose narrates sweep progress per completed cell\n\
                     targets: {} all",
                    ALL_TARGETS.join(" ")
                ));
            }
            "all" => targets.extend(ALL_TARGETS.iter().map(|s| s.to_string())),
            t if ALL_TARGETS.contains(&t) => targets.push(t.to_string()),
            t => return Err(format!("unknown target {t:?}; try --help")),
        }
    }
    // `repro --metrics out.jsonl` (or `--trace out.jsonl`) alone means
    // "just the instrumented sweep"; naming a target alongside it still
    // runs that target.
    if targets.is_empty() && metrics.is_none() && trace.is_none() {
        targets.extend(ALL_TARGETS.iter().map(|s| s.to_string()));
    }
    targets.dedup();
    Ok(Args {
        scale,
        threads,
        stream_cache,
        stream_cache_bytes,
        json_dir,
        metrics,
        trace,
        verbose,
        targets,
    })
}

/// The paper's 5×5 job list under the invocation's shared options.
fn sweep_jobs(args: &Args) -> Vec<Experiment> {
    let opts = SimOptions {
        scale: Scale(args.scale),
        stream_cache: args.stream_cache.clone(),
        stream_cache_bytes: args.stream_cache_bytes,
        ..SimOptions::default()
    };
    Program::FIVE
        .iter()
        .flat_map(|&p| {
            let opts = &opts;
            AllocChoice::paper_five()
                .into_iter()
                .map(move |c| Experiment::new(p, c).options(opts.clone()))
        })
        .collect()
}

/// Validates and writes one JSONL line per report into `path`.
fn write_reports(
    path: &std::path::Path,
    reports: impl Iterator<Item = RunReport>,
) -> Result<usize, String> {
    let mut lines = String::new();
    let mut count = 0;
    for report in reports {
        report
            .validate()
            .map_err(|e| format!("{}/{}: invalid report: {e}", report.program, report.allocator))?;
        lines.push_str(&report.to_jsonl_line());
        lines.push('\n');
        count += 1;
    }
    std::fs::write(path, lines).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(count)
}

/// Runs the paper's 5×5 matrix instrumented — with a hierarchical
/// tracer when `--trace` was given, a flat recorder otherwise — and
/// writes the requested JSONL artifacts: validated [`RunReport`] lines
/// to `--metrics`, validated `alloc-locality.trace` v1 lines to
/// `--trace`. One sweep serves both flags; results and metrics are
/// bit-identical between the two recorder shapes.
fn emit_instrumented(args: &Args) -> Result<(), String> {
    let jobs = sweep_jobs(args);
    let total = jobs.len();
    let start = std::time::Instant::now();
    let verbose = args.verbose;
    let progress = move |done: usize, r: &RunReport| {
        if verbose {
            eprintln!(
                "[{done}/{total}] {}/{} done ({:.1}s elapsed)",
                r.program,
                r.allocator,
                start.elapsed().as_secs_f64()
            );
        }
    };
    if let Some(trace_path) = &args.trace {
        eprintln!("# traced {total}-cell sweep at scale {}", args.scale);
        let traced = |exp: &Experiment| {
            let mut tracer = obs::Tracer::new();
            let (result, metrics) = exp.run_traced_with(&mut tracer)?;
            let trace_id = format!("{}/{}", result.program, result.allocator);
            let (_, trace) = tracer.finish(trace_id);
            Ok((RunReport::new(result, metrics), trace))
        };
        let pairs = run_many(jobs, args.threads, traced, |done, (r, _)| progress(done, r))
            .map_err(|e| format!("traced sweep: {e}"))?;
        let mut trace_lines = String::new();
        for (_, trace) in &pairs {
            trace.validate().map_err(|e| format!("{}: invalid trace: {e}", trace.trace_id))?;
            trace_lines.push_str(&trace.to_json_line());
            trace_lines.push('\n');
        }
        std::fs::write(trace_path, trace_lines)
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        eprintln!("[wrote {} ({total} traces)]", trace_path.display());
        if let Some(metrics_path) = &args.metrics {
            let count = write_reports(metrics_path, pairs.into_iter().map(|(report, _)| report))?;
            eprintln!("[wrote {} ({count} reports)]", metrics_path.display());
        }
        return Ok(());
    }
    let path = args.metrics.as_ref().expect("emit_instrumented needs --metrics or --trace");
    eprintln!("# instrumented {total}-cell sweep at scale {}", args.scale);
    let reports = run_many(jobs, args.threads, Experiment::report, progress)
        .map_err(|e| format!("instrumented sweep: {e}"))?;
    let count = write_reports(path, reports.into_iter())?;
    eprintln!("[wrote {} ({count} reports)]", path.display());
    Ok(())
}

fn emit<T: Serialize>(args: &Args, name: &str, text: &str, value: &T) {
    // A reader that closed stdout ends the output, not the run.
    let _ = writeln!(std::io::stdout(), "{text}");
    if let Some(dir) = &args.json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
        let path = dir.join(format!("{name}.json"));
        let json = serde_json::to_string_pretty(value).expect("serialize result");
        std::fs::write(&path, json).expect("write json");
        eprintln!("[wrote {}]", path.display());
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.metrics.is_some() || args.trace.is_some() {
        emit_instrumented(&args)?;
        if args.targets.is_empty() {
            return Ok(());
        }
    }
    let mut cache = MatrixCache::with_threads(args.scale, args.threads)
        .verbose(args.verbose)
        .stream_cache(args.stream_cache.clone())
        .stream_cache_bytes(args.stream_cache_bytes);
    let k16 = CacheConfig::direct_mapped(16 * 1024, 32);
    let k64 = CacheConfig::direct_mapped(64 * 1024, 32);
    eprintln!(
        "# reproducing Grunwald, Zorn & Henderson (PLDI 1993) at scale {} \
         ({}% of the paper's allocation counts), {} sweep worker(s)\n",
        args.scale,
        args.scale * 100.0,
        args.threads
    );
    for target in args.targets.clone() {
        let err = |e: alloc_locality::EngineError| format!("{target}: {e}");
        match target.as_str() {
            "table1" => {
                let t = table1();
                emit(&args, "table1", &t.to_text(), &t);
            }
            "table2" => {
                let t = table2(cache.main().map_err(err)?, &Program::FIVE);
                emit(&args, "table2", &t.to_text(), &t);
            }
            "table3" => {
                let m = cache.gs_all().map_err(err)?;
                let t = table2(&m, &Program::GS_INPUTS);
                emit(&args, "table3", &t.to_text(), &t);
            }
            "fig1" => {
                let f = fig1(cache.main().map_err(err)?);
                emit(&args, "fig1", &f.to_text(), &f);
            }
            "fig2" => {
                let f = paging_figure(cache.main().map_err(err)?, "GS");
                emit(&args, "fig2", &format!("{}\n{}", f.to_chart(), f.to_text()), &f);
            }
            "fig3" => {
                let f = paging_figure(cache.main().map_err(err)?, "ptc");
                emit(&args, "fig3", &format!("{}\n{}", f.to_chart(), f.to_text()), &f);
            }
            "fig4" => {
                let f = exec_time_figure(cache.main().map_err(err)?, k16);
                emit(&args, "fig4", &f.to_text(), &f);
            }
            "fig5" => {
                let f = exec_time_figure(cache.main().map_err(err)?, k64);
                emit(&args, "fig5", &f.to_text(), &f);
            }
            "fig6" => {
                let m = cache.gs_all().map_err(err)?;
                let f = miss_curves(&m, "GS-Small");
                emit(&args, "fig6", &format!("{}\n{}", f.to_chart(), f.to_text()), &f);
            }
            "fig7" => {
                let m = cache.gs_all().map_err(err)?;
                let f = miss_curves(&m, "GS-Medium");
                emit(&args, "fig7", &format!("{}\n{}", f.to_chart(), f.to_text()), &f);
            }
            "fig8" => {
                let f = miss_curves(cache.main().map_err(err)?, "GS");
                emit(&args, "fig8", &format!("{}\n{}", f.to_chart(), f.to_text()), &f);
            }
            "table4" => {
                let t = time_table(cache.main().map_err(err)?, k16);
                emit(&args, "table4", &t.to_text(), &t);
            }
            "table5" => {
                let t = time_table(cache.main().map_err(err)?, k64);
                emit(&args, "table5", &t.to_text(), &t);
            }
            "table6" => {
                let m = cache.main_with_tags().map_err(err)?;
                let t = table6(&m, k64);
                emit(&args, "table6", &t.to_text(), &t);
            }
            "ext-3c" => {
                let t = conflict_analysis(cache.ext().map_err(err)?, k16);
                emit(&args, "ext-3c", &t.to_text(), &t);
            }
            "ext-victim" => {
                let t = victim_study(cache.ext().map_err(err)?, k16, 8);
                emit(&args, "ext-victim", &t.to_text(), &t);
            }
            "ext-l2" => {
                let t = two_level_study(cache.ext().map_err(err)?, k16);
                emit(&args, "ext-l2", &t.to_text(), &t);
            }
            "ext-future" => {
                let t = future_work_table(cache.ext().map_err(err)?, k16);
                emit(&args, "ext-future", &t.to_text(), &t);
            }
            other => return Err(format!("unhandled target {other}")),
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
