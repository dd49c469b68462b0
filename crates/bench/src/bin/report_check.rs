//! `report_check`: validates a JSONL metrics file from `repro --metrics`.
//!
//! ```text
//! report_check [FILE] [--expect N]
//!              [--expect-trace TRACE]
//!              [--expect-sweep N]
//!              [--write-missrates OUT]
//!              [--expect-missrates EXPECTED [--tolerance T]]
//! ```
//!
//! Every line must parse as an [`alloc_locality::RunReport`] and pass
//! its schema validation; `--expect N` additionally requires exactly
//! `N` reports. On success the tool prints a one-line summary per
//! report; any failure names the offending line and exits non-zero,
//! which is what CI's observability job keys on. A reader that closes
//! stdout drops the summaries, never the verdict: the exit code still
//! says whether the file is valid.
//!
//! `--expect-trace TRACE` validates an `alloc-locality.trace` v1 JSONL
//! file (from `repro --trace` or `GET /jobs/{id}/trace`): schema and
//! version fields, monotone timestamps, every span's parent preceding
//! and containing it, root spans disjoint and ordered. It works with or
//! without a report FILE; given alone, `--expect N` counts traces.
//!
//! `--expect-sweep N` reinterprets FILE as an
//! `alloc-locality.sweep-report` artifact — v1 or v2 (from `explore` or
//! `GET /sweeps/{id}/report`): the header, every point row, and the
//! Pareto-front row must pass [`explore::SweepReport::validate`] —
//! which recomputes each point's objectives and the front itself, and
//! cross-checks the v2 additions (workload axes, stream-cache tallies,
//! exploration mode and adaptive metadata) — and the sweep must hold
//! exactly `N` points. Every embedded point report is also
//! schema-validated, so the flag subsumes the per-line check.
//!
//! The miss-rate modes are the fidelity soak: `--write-missrates`
//! snapshots every cell's per-configuration data-cache miss rate into a
//! JSON expectations file, and `--expect-missrates` re-checks a later
//! run against that committed snapshot with an absolute tolerance
//! (default 0.005). The simulation is deterministic, so the tolerance
//! only absorbs *intentional* small placement shifts; anything that
//! bends the paper's figures — a changed allocator decision, a broken
//! coalesce — moves whole-cell miss rates past it and fails CI.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;

use alloc_locality::RunReport;
use serde::{Deserialize, Serialize};

/// Default absolute miss-rate tolerance for `--expect-missrates`.
const DEFAULT_TOLERANCE: f64 = 0.005;

/// One cell of the committed fidelity snapshot: the data-cache miss
/// rate of a (program, allocator) run at one simulated configuration.
#[derive(Debug, Serialize, Deserialize)]
struct ExpectedCell {
    program: String,
    allocator: String,
    /// The configuration's display form, e.g. `16K direct-mapped, 32B
    /// blocks` — stable across runs because configs are value types.
    cache: String,
    miss_rate: f64,
}

/// The committed expectations file: a scale (miss rates are only
/// comparable at the same workload scale) plus one entry per cell.
#[derive(Debug, Serialize, Deserialize)]
struct Expectations {
    scale: f64,
    cells: Vec<ExpectedCell>,
}

struct Args {
    path: Option<std::path::PathBuf>,
    expect: Option<usize>,
    expect_trace: Option<std::path::PathBuf>,
    expect_sweep: Option<usize>,
    write_missrates: Option<std::path::PathBuf>,
    expect_missrates: Option<std::path::PathBuf>,
    tolerance: f64,
}

const USAGE: &str = "usage: report_check [FILE] [--expect N] [--expect-trace TRACE] \
                     [--expect-sweep N] [--write-missrates OUT] \
                     [--expect-missrates EXPECTED [--tolerance T]]";

fn parse_args() -> Result<Args, String> {
    let mut path = None;
    let mut expect = None;
    let mut expect_trace = None;
    let mut expect_sweep = None;
    let mut write_missrates = None;
    let mut expect_missrates = None;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--expect" => {
                let v = args.next().ok_or("--expect needs a count")?;
                expect = Some(v.parse().map_err(|e| format!("bad count {v}: {e}"))?);
            }
            "--expect-trace" => {
                let v = args.next().ok_or("--expect-trace needs a path")?;
                expect_trace = Some(std::path::PathBuf::from(v));
            }
            "--expect-sweep" => {
                let v = args.next().ok_or("--expect-sweep needs a point count")?;
                expect_sweep = Some(v.parse().map_err(|e| format!("bad count {v}: {e}"))?);
            }
            "--write-missrates" => {
                let v = args.next().ok_or("--write-missrates needs a path")?;
                write_missrates = Some(std::path::PathBuf::from(v));
            }
            "--expect-missrates" => {
                let v = args.next().ok_or("--expect-missrates needs a path")?;
                expect_missrates = Some(std::path::PathBuf::from(v));
            }
            "--tolerance" => {
                let v = args.next().ok_or("--tolerance needs a value")?;
                tolerance = v.parse().map_err(|e| format!("bad tolerance {v}: {e}"))?;
                if tolerance.is_nan() || tolerance < 0.0 {
                    return Err("tolerance must be non-negative".into());
                }
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other if path.is_none() => path = Some(std::path::PathBuf::from(other)),
            other => return Err(format!("unexpected argument {other:?}; try --help")),
        }
    }
    if path.is_none() && expect_trace.is_none() {
        return Err(USAGE.into());
    }
    if expect_sweep.is_some() && path.is_none() {
        return Err("--expect-sweep needs the sweep-report FILE".into());
    }
    Ok(Args {
        path,
        expect,
        expect_trace,
        expect_sweep,
        write_missrates,
        expect_missrates,
        tolerance,
    })
}

/// Validates an `alloc-locality.sweep-report` file (v1 or v2): parse
/// structure (single header, points, single front row), full semantic
/// validation (ids, recomputed objectives and Pareto front, every
/// embedded run report, v2 axis/telemetry consistency), and the
/// expected point count. v2-only header fields are summarized when
/// present and silently absent for v1 artifacts.
fn check_sweep(path: &std::path::Path, expect_points: usize) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let report = explore::SweepReport::parse(&text)
        .map_err(|e| format!("{}: parse: {e}", path.display()))?;
    report.validate().map_err(|e| format!("{}: invalid sweep: {e}", path.display()))?;
    if report.points.len() != expect_points {
        return Err(format!(
            "{}: expected {expect_points} sweep points, found {}",
            path.display(),
            report.points.len()
        ));
    }
    for row in &report.points {
        let _ = writeln!(
            std::io::stdout(),
            "point {:<40} miss {:<8.4} instrs {:<12} peak {:<10} {}",
            row.allocator,
            row.objectives.miss_rate,
            row.objectives.instructions,
            row.objectives.peak_granted,
            if row.pareto { "front" } else { "" }
        );
    }
    eprintln!(
        "sweep {} valid (v{}): {} points over {:?}, {} on the Pareto front",
        report.header.sweep_id,
        report.header.version,
        report.points.len(),
        report.header.families,
        report.front.front.len()
    );
    let h = &report.header;
    if !h.programs.is_empty() || !h.scales.is_empty() {
        eprintln!("  workload axes: programs {:?}, scales {:?}", h.programs, h.scales);
    }
    if h.stream_hits + h.stream_misses > 0 {
        eprintln!("  stream cache: {} hits, {} misses", h.stream_hits, h.stream_misses);
    }
    if h.mode == "adaptive" {
        eprintln!(
            "  adaptive: {} of {} exhaustive points evaluated in {} iterations (budget {})",
            h.adaptive_evaluated, h.adaptive_exhaustive, h.adaptive_iterations, h.adaptive_budget
        );
    } else if !h.mode.is_empty() {
        eprintln!("  mode: {}", h.mode);
    }
    Ok(())
}

/// Validates an `alloc-locality.trace` v1 JSONL file: every non-empty
/// line must parse and pass [`obs::TraceReport::validate`] (schema and
/// version fields, monotone timestamps, parents preceding and
/// containing their children, disjoint ordered roots).
fn check_traces(path: &std::path::Path) -> Result<usize, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut count = 0;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let trace = obs::TraceReport::parse(line)
            .map_err(|e| format!("{}:{}: parse: {e}", path.display(), lineno + 1))?;
        trace
            .validate()
            .map_err(|e| format!("{}:{}: invalid trace: {e}", path.display(), lineno + 1))?;
        let _ = writeln!(
            std::io::stdout(),
            "trace {:<40} spans {:<6} roots {:<3} dropped {}",
            trace.trace_id,
            trace.spans.len(),
            trace.roots().count(),
            trace.dropped_spans
        );
        count += 1;
    }
    if count == 0 {
        return Err(format!("{}: no traces found", path.display()));
    }
    Ok(count)
}

/// Flattens one report into `(program, allocator, config) → miss rate`
/// entries, in the result's own configuration order.
fn cells_of(report: &RunReport) -> impl Iterator<Item = (ExpectedCell, f64)> + '_ {
    report.result.cache.iter().map(|(cfg, stats)| {
        let rate = stats.miss_rate();
        (
            ExpectedCell {
                program: report.program.clone(),
                allocator: report.allocator.clone(),
                cache: cfg.to_string(),
                miss_rate: rate,
            },
            rate,
        )
    })
}

fn write_missrates(path: &std::path::Path, reports: &[RunReport]) -> Result<(), String> {
    let scale = reports.first().map(|r| r.scale).unwrap_or(0.0);
    if let Some(r) = reports.iter().find(|r| r.scale != scale) {
        return Err(format!(
            "mixed scales in input ({scale} vs {} for {}/{}); refusing to snapshot",
            r.scale, r.program, r.allocator
        ));
    }
    let cells = reports.iter().flat_map(|r| cells_of(r).map(|(c, _)| c)).collect();
    let exp = Expectations { scale, cells };
    let json = serde_json::to_string_pretty(&exp).expect("serialize expectations");
    std::fs::write(path, json + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("[wrote {} ({} cells)]", path.display(), exp.cells.len());
    Ok(())
}

fn check_missrates(
    path: &std::path::Path,
    tolerance: f64,
    reports: &[RunReport],
) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let exp: Expectations =
        serde_json::from_str(&text).map_err(|e| format!("{}: parse: {e}", path.display()))?;
    let mut actual = BTreeMap::new();
    for r in reports {
        if r.scale != exp.scale {
            return Err(format!(
                "{}/{} ran at scale {}, expectations are for scale {}",
                r.program, r.allocator, r.scale, exp.scale
            ));
        }
        for (cell, rate) in cells_of(r) {
            actual.insert((cell.program, cell.allocator, cell.cache), rate);
        }
    }
    let mut failures = Vec::new();
    for cell in &exp.cells {
        let key = (cell.program.clone(), cell.allocator.clone(), cell.cache.clone());
        match actual.get(&key) {
            None => failures.push(format!(
                "{}/{} [{}]: expected cell missing from the run",
                cell.program, cell.allocator, cell.cache
            )),
            Some(&rate) if (rate - cell.miss_rate).abs() > tolerance => failures.push(format!(
                "{}/{} [{}]: miss rate {:.6} deviates from expected {:.6} by {:+.6} (> ±{tolerance})",
                cell.program, cell.allocator, cell.cache, rate, cell.miss_rate,
                rate - cell.miss_rate
            )),
            Some(_) => {}
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("{f}");
        }
        return Err(format!(
            "{} of {} expected miss-rate cells out of tolerance",
            failures.len(),
            exp.cells.len()
        ));
    }
    eprintln!("{} miss-rate cells within ±{tolerance} of {}", exp.cells.len(), path.display());
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if let Some(expect_points) = args.expect_sweep {
        // FILE is the sweep artifact itself; the other modes don't mix.
        return check_sweep(args.path.as_deref().expect("checked in parse_args"), expect_points);
    }
    let mut reports = Vec::new();
    if let Some(path) = &args.path {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let report = RunReport::parse(line)
                .map_err(|e| format!("{}:{}: parse: {e}", path.display(), lineno + 1))?;
            report
                .validate()
                .map_err(|e| format!("{}:{}: invalid: {e}", path.display(), lineno + 1))?;
            let search = report.metrics.histogram("alloc.search_len").expect("validated");
            // Absent for free-less programs (ptc): validation only demands
            // it when the run actually freed.
            let coalesce =
                report.metrics.histogram("alloc.coalesce_per_free").map_or(0.0, |h| h.mean);
            let _ = writeln!(
                std::io::stdout(),
                "{:<10} {:<10} mallocs {:<8} mean search {:<6.2} mean coalesce {:.3}",
                report.program,
                report.allocator,
                search.count,
                search.mean,
                coalesce
            );
            reports.push(report);
        }
        if let Some(expect) = args.expect {
            if reports.len() != expect {
                return Err(format!("expected {expect} reports, found {}", reports.len()));
            }
        }
        if reports.is_empty() {
            return Err(format!("{}: no reports found", path.display()));
        }
    }
    if let Some(out) = &args.write_missrates {
        write_missrates(out, &reports)?;
    }
    if let Some(expected) = &args.expect_missrates {
        check_missrates(expected, args.tolerance, &reports)?;
    }
    if let Some(trace_path) = &args.expect_trace {
        let count = check_traces(trace_path)?;
        // With no report file, `--expect` counts traces instead.
        if args.path.is_none() {
            if let Some(expect) = args.expect {
                if count != expect {
                    return Err(format!("expected {expect} traces, found {count}"));
                }
            }
        }
        eprintln!("{count} trace(s) valid");
    }
    if args.path.is_some() {
        eprintln!("{} report(s) valid", reports.len());
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
