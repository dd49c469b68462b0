//! `loadgen`: a concurrent load harness for the `serve` daemon.
//!
//! Drives a program × allocator matrix through the server twice — once
//! fresh (every spec is a new job the workers must execute) and once as
//! duplicates (every spec is already in the content-addressed cache) —
//! from N concurrent clients, then reports throughput, latency
//! percentiles, and the cache's latency reduction. The fetched report
//! lines can be written out as JSONL for `report_check`, so a CI job can
//! assert that server-produced reports are exactly the stable schema.
//!
//! ```text
//! loadgen --addr HOST:PORT [--programs a,b] [--allocators x,y]
//!         [--scale F] [--cache-kb 16,64] [--no-paging] [--clients N]
//!         [--dup-rounds N] [--wait-secs N] [--fetch reports.jsonl]
//!         [--out BENCH_serve.json] [--min-hit-reduction F]
//!         [--slo-p99-ms MS] [--sweep N] [--shutdown]
//! ```
//!
//! Exits non-zero when the duplicate phase fails to undercut fresh mean
//! latency by at least `--min-hit-reduction` (default 0.90), or — with
//! `--slo-p99-ms` — when the fresh phase's p99 latency exceeds the
//! bound. The SLO check prints the server-measured queue-wait versus
//! execute split (from each job's span telemetry), so a breach is
//! immediately attributable to queueing or to the simulation itself.
//!
//! `--sweep N` switches the harness from duplicate-heavy traffic to one
//! `POST /sweeps` submission of ~N *unique* points spread over five
//! allocator families — every point is fresh work the queue must
//! execute. The mode polls the sweep to completion, validates the
//! assembled report, then submits the *identical* sweep a second time:
//! every point is already in the result table, so the duplicate answers
//! "done" from the submit itself and the report is the memoized bytes.
//! The warm pass must return a byte-identical report and its wall time
//! is reported as the warm-vs-fresh latency reduction. Fresh-phase
//! p50/p90/p99 are recovered from each point's server-measured
//! queue-wait and execute telemetry. `--fetch` writes the sweep-report
//! JSONL (for `report_check --expect-sweep`), `--out` the benchmark
//! JSON, and `--slo-p99-ms` bounds per-point execute p99.
//!
//! Latency percentiles are resolved through [`obs::Hist`]'s log2-bucket
//! [`percentile`](obs::Hist::percentile) — the same arithmetic the
//! daemon's own endpoint histograms use — while means stay exact
//! (computed from the raw durations), since the cache-hit reduction
//! gate keys on them.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use alloc_locality::JobSpec;
use serde::Serialize;
use serve::client::Client;

struct Args {
    addr: String,
    programs: Vec<String>,
    allocators: Vec<String>,
    scale: f64,
    cache_kb: Vec<u32>,
    paging: bool,
    clients: usize,
    dup_rounds: usize,
    wait_secs: u64,
    fetch: Option<String>,
    out: String,
    min_hit_reduction: f64,
    slo_p99_ms: Option<f64>,
    sweep: Option<usize>,
    shutdown: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: "127.0.0.1:7077".into(),
            programs: vec!["espresso".into(), "make".into()],
            allocators: vec!["BSD".into()],
            scale: 0.002,
            cache_kb: vec![16],
            paging: false,
            clients: 4,
            dup_rounds: 4,
            wait_secs: 120,
            fetch: None,
            out: "BENCH_serve.json".into(),
            min_hit_reduction: 0.90,
            slo_p99_ms: None,
            sweep: None,
            shutdown: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT] [--programs a,b] [--allocators x,y] [--scale F]\n\
         \x20              [--cache-kb 16,64] [--no-paging] [--clients N] [--dup-rounds N]\n\
         \x20              [--wait-secs N] [--fetch PATH] [--out PATH] [--min-hit-reduction F]\n\
         \x20              [--slo-p99-ms MS] [--sweep N] [--shutdown]"
    );
    std::process::exit(2);
}

fn flag_value(args: &mut std::env::Args, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        usage();
    })
}

fn parse<T: std::str::FromStr>(raw: &str, flag: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse {raw:?}");
        usage();
    })
}

fn csv(raw: &str) -> Vec<String> {
    raw.split(',').map(str::trim).filter(|s| !s.is_empty()).map(str::to_string).collect()
}

fn parse_args() -> Args {
    let mut out = Args::default();
    let mut args = std::env::args();
    let _ = args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => out.addr = flag_value(&mut args, "--addr"),
            "--programs" => out.programs = csv(&flag_value(&mut args, "--programs")),
            "--allocators" => out.allocators = csv(&flag_value(&mut args, "--allocators")),
            "--scale" => out.scale = parse(&flag_value(&mut args, "--scale"), "--scale"),
            "--cache-kb" => {
                out.cache_kb = csv(&flag_value(&mut args, "--cache-kb"))
                    .iter()
                    .map(|s| parse(s, "--cache-kb"))
                    .collect();
            }
            "--no-paging" => out.paging = false,
            "--paging" => out.paging = true,
            "--clients" => out.clients = parse(&flag_value(&mut args, "--clients"), "--clients"),
            "--dup-rounds" => {
                out.dup_rounds = parse(&flag_value(&mut args, "--dup-rounds"), "--dup-rounds");
            }
            "--wait-secs" => {
                out.wait_secs = parse(&flag_value(&mut args, "--wait-secs"), "--wait-secs");
            }
            "--fetch" => out.fetch = Some(flag_value(&mut args, "--fetch")),
            "--out" => out.out = flag_value(&mut args, "--out"),
            "--min-hit-reduction" => {
                out.min_hit_reduction =
                    parse(&flag_value(&mut args, "--min-hit-reduction"), "--min-hit-reduction");
            }
            "--slo-p99-ms" => {
                out.slo_p99_ms =
                    Some(parse(&flag_value(&mut args, "--slo-p99-ms"), "--slo-p99-ms"));
            }
            "--sweep" => out.sweep = Some(parse(&flag_value(&mut args, "--sweep"), "--sweep")),
            "--shutdown" => out.shutdown = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    if out.clients == 0 || out.programs.is_empty() || out.allocators.is_empty() {
        eprintln!("need at least one client, program and allocator");
        usage();
    }
    out
}

/// Latency distribution of one phase, milliseconds.
#[derive(Debug, Clone, Serialize)]
struct PhaseStats {
    requests: u64,
    mean_ms: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    max_ms: f64,
}

fn phase_stats(latencies: &[Duration]) -> PhaseStats {
    // Percentiles resolve through the shared log2-bucket histogram (in
    // microseconds) — identical arithmetic to the daemon's endpoint
    // histograms, so client-side and server-side p99 are comparable.
    // The mean stays exact over the raw durations: the cache-hit
    // latency-reduction gate divides two means, and bucketing them
    // would slacken that check.
    let mut hist = obs::Hist::default();
    let mut sum_ms = 0.0;
    let mut max_ms = 0.0f64;
    for d in latencies {
        let ms = d.as_secs_f64() * 1e3;
        hist.record(d.as_micros() as u64);
        sum_ms += ms;
        max_ms = max_ms.max(ms);
    }
    let pct = |p: f64| hist.percentile(p) as f64 / 1e3;
    PhaseStats {
        requests: latencies.len() as u64,
        mean_ms: if latencies.is_empty() { 0.0 } else { sum_ms / latencies.len() as f64 },
        p50_ms: pct(0.50),
        p90_ms: pct(0.90),
        p99_ms: pct(0.99),
        max_ms,
    }
}

/// The `--sweep` mode's benchmark artifact: one many-point sweep
/// through the daemon, with fresh-phase latency recovered from the
/// server's per-point span telemetry.
#[derive(Debug, Serialize)]
struct SweepLoadReport {
    addr: String,
    program: String,
    scale: f64,
    cache_kb: Vec<u32>,
    paging: bool,
    sweep_id: String,
    /// Expanded, deduplicated points the sweep fanned into the queue.
    points: u64,
    /// Points on the Pareto front of the assembled report.
    front: u64,
    /// Client-observed wall time from submission to the last point.
    wall_secs: f64,
    points_per_sec: f64,
    /// Wall time of the duplicate (warm) pass: the identical sweep
    /// resubmitted once every point was done, report fetched again.
    warm_secs: f64,
    /// `1 - warm_secs / wall_secs`: how much of the fresh latency the
    /// duplicate-sweep path eliminates.
    warm_reduction: f64,
    /// Per-point engine execution time (fresh work, no cache hits).
    execute: PhaseStats,
    /// Per-point time spent queued before a worker picked it up.
    queue_wait: PhaseStats,
}

/// Spreads ~`points` unique configurations across the five tunable
/// allocator families, one knob axis each, values stepped away from the
/// paper defaults. Deterministic, so repeated runs hit the daemon's
/// cache — use a fresh server (or vary `--scale`) for fresh-work runs.
fn sweep_of(points: usize, args: &Args) -> explore::SweepSpec {
    let n = points.max(1);
    let share = n.div_ceil(5);
    // BSD's shift axis is bounded (3..=12); its shortfall spills onto
    // the FirstFit axis, which is effectively unbounded.
    let bsd = share.min(10);
    let first_fit = share + (share - bsd);
    let grids = vec![
        explore::GridSpec {
            split_threshold: (0..first_fit as u32).map(|i| 8 + 8 * i).collect(),
            ..explore::GridSpec::baseline("FirstFit")
        },
        explore::GridSpec {
            split_threshold: (0..share as u32).map(|i| 8 + 8 * i).collect(),
            ..explore::GridSpec::baseline("GNU G++")
        },
        explore::GridSpec {
            fast_max: (0..share as u32).map(|i| 4 + 4 * i).collect(),
            ..explore::GridSpec::baseline("QuickFit")
        },
        explore::GridSpec {
            min_shift: (0..bsd as u32).map(|i| 3 + i).collect(),
            ..explore::GridSpec::baseline("BSD")
        },
        explore::GridSpec {
            short_age: (0..share as u32).map(|i| 1_000 * (i + 1)).collect(),
            ..explore::GridSpec::baseline("Predictive")
        },
    ];
    explore::SweepSpec {
        cache_kb: args.cache_kb.clone(),
        paging: Some(args.paging),
        ..explore::SweepSpec::over(&args.programs[0], args.scale, grids)
    }
}

/// The `--sweep` mode: one batch submission of unique points, polled to
/// completion; validates the assembled report and reports fresh-phase
/// percentiles from the server's span telemetry.
fn run_sweep_mode(args: &Args, client: &Client, points: usize) {
    let fail = |msg: String| -> ! {
        eprintln!("loadgen: {msg}");
        std::process::exit(1);
    };
    let spec = sweep_of(points, args);
    if let Err(e) = spec.validate() {
        fail(format!("bad sweep: {e}"));
    }
    let expanded = spec.points().len();
    let wait = Duration::from_secs(args.wait_secs);
    eprintln!("loadgen: submitting a {expanded}-point sweep over {:?}", spec.families());

    let start = Instant::now();
    let submitted = client.submit_sweep(&spec).unwrap_or_else(|e| fail(format!("submit: {e}")));
    if submitted.fresh != submitted.points {
        eprintln!(
            "loadgen: note: only {} of {} points were fresh (server cache was warm)",
            submitted.fresh, submitted.points
        );
    }
    let status = client
        .wait_sweep_done(&submitted.id, wait)
        .unwrap_or_else(|e| fail(format!("sweep never finished: {e}")));
    let wall_secs = start.elapsed().as_secs_f64();

    let body = client
        .fetch_sweep_report(&submitted.id)
        .unwrap_or_else(|e| fail(format!("fetch report: {e}")));
    let report = explore::SweepReport::parse(&body)
        .unwrap_or_else(|e| fail(format!("served sweep does not parse: {e}")));
    report.validate().unwrap_or_else(|e| fail(format!("served sweep is invalid: {e}")));
    if report.points.len() != expanded {
        fail(format!("expected {expanded} points, server returned {}", report.points.len()));
    }

    // Warm pass: the identical sweep again. Every point is already in
    // the result table, so the submit itself answers "done" and the
    // report fetch hands back the memoized bytes — this measures the
    // duplicate-sweep path, not the simulation.
    let warm_start = Instant::now();
    let warm = client.submit_sweep(&spec).unwrap_or_else(|e| fail(format!("warm submit: {e}")));
    if warm.id != submitted.id {
        fail(format!("warm sweep id {} differs from the fresh id {}", warm.id, submitted.id));
    }
    if warm.fresh != 0 {
        fail(format!("warm resubmission enqueued {} points; expected 0", warm.fresh));
    }
    if warm.status != "done" {
        client
            .wait_sweep_done(&warm.id, wait)
            .unwrap_or_else(|e| fail(format!("warm sweep never finished: {e}")));
    }
    let warm_body = client
        .fetch_sweep_report(&warm.id)
        .unwrap_or_else(|e| fail(format!("warm fetch report: {e}")));
    let warm_secs = warm_start.elapsed().as_secs_f64();
    if warm_body != body {
        fail("warm sweep report is not byte-identical to the fresh report".into());
    }
    let warm_reduction = if wall_secs > 0.0 { 1.0 - warm_secs / wall_secs } else { 0.0 };

    // Fresh-phase latency, from the server's own per-point span split.
    let mut queue_waits = Vec::new();
    let mut executes = Vec::new();
    for row in &report.points {
        let job = client
            .request("GET", &format!("/jobs/{}", row.point_id), None)
            .unwrap_or_else(|e| fail(format!("point status: {e}")));
        let parsed: serve::StatusResponse =
            job.json().unwrap_or_else(|e| fail(format!("point status body: {e}")));
        if let Some(ns) = parsed.queue_wait_ns {
            queue_waits.push(Duration::from_nanos(ns));
        }
        if let Some(ns) = parsed.execute_ns {
            executes.push(Duration::from_nanos(ns));
        }
    }
    let out = SweepLoadReport {
        addr: args.addr.clone(),
        program: args.programs[0].clone(),
        scale: args.scale,
        cache_kb: args.cache_kb.clone(),
        paging: args.paging,
        sweep_id: submitted.id.clone(),
        points: status.total,
        front: report.front.front.len() as u64,
        wall_secs,
        points_per_sec: status.total as f64 / wall_secs.max(1e-9),
        warm_secs,
        warm_reduction,
        execute: phase_stats(&executes),
        queue_wait: phase_stats(&queue_waits),
    };

    if let Some(path) = &args.fetch {
        if let Err(e) = std::fs::write(path, &body) {
            fail(format!("cannot write {path}: {e}"));
        }
        eprintln!("loadgen: wrote the sweep report ({} lines) to {path}", expanded + 2);
    }
    let json = serde_json::to_string_pretty(&out).expect("serialize sweep load report");
    if let Err(e) = std::fs::write(&args.out, format!("{json}\n")) {
        fail(format!("cannot write {}: {e}", args.out));
    }
    println!("{json}");
    eprintln!(
        "loadgen: sweep {} finished: {} points in {:.1}s ({:.1}/s), execute p50 {:.1} ms \
         p90 {:.1} ms p99 {:.1} ms, front {}",
        out.sweep_id,
        out.points,
        out.wall_secs,
        out.points_per_sec,
        out.execute.p50_ms,
        out.execute.p90_ms,
        out.execute.p99_ms,
        out.front
    );
    eprintln!(
        "loadgen: warm resubmission answered in {:.3}s, byte-identical report \
         ({:.1}% latency reduction)",
        out.warm_secs,
        100.0 * out.warm_reduction
    );

    if args.shutdown {
        if let Err(e) = client.shutdown() {
            fail(format!("shutdown request failed: {e}"));
        }
        eprintln!("loadgen: shutdown requested");
    }
    if let Some(slo) = args.slo_p99_ms {
        if out.execute.p99_ms > slo {
            fail(format!(
                "FAIL per-point execute p99 {:.1} ms exceeds the --slo-p99-ms {slo:.1} bound",
                out.execute.p99_ms
            ));
        }
        eprintln!("loadgen: execute p99 {:.1} ms within the {slo:.1} ms SLO", out.execute.p99_ms);
    }
}

/// The load report `--out` names (`BENCH_serve.json` by default).
#[derive(Debug, Serialize)]
struct LoadgenReport {
    addr: String,
    programs: Vec<String>,
    allocators: Vec<String>,
    scale: f64,
    cache_kb: Vec<u32>,
    paging: bool,
    clients: u64,
    dup_rounds: u64,
    unique_specs: u64,
    fresh: PhaseStats,
    duplicate: PhaseStats,
    jobs_completed: u64,
    cache_hits: u64,
    cache_hit_rate: f64,
    hit_latency_reduction: f64,
}

/// One completed job as the client observed it, plus the server's
/// span-derived telemetry for the job (absent on cache hits and for
/// servers that predate the tracing schema).
struct JobRun {
    spec_idx: usize,
    latency: Duration,
    line: String,
    cached: bool,
    queue_wait_ns: Option<u64>,
    execute_ns: Option<u64>,
}

/// One unit of work: submit the spec, wait until done, fetch the line.
fn run_job(client: &Client, spec: &JobSpec, wait: Duration) -> Result<JobRun, String> {
    let start = Instant::now();
    let submitted = client.submit(spec).map_err(|e| e.to_string())?;
    // A cache hit on a finished job answers "done" in the submit itself;
    // polling again would only measure round trips.
    let (mut queue_wait_ns, mut execute_ns) = (None, None);
    if submitted.status != "done" {
        let status = client.wait_done(&submitted.id, wait).map_err(|e| e.to_string())?;
        queue_wait_ns = status.queue_wait_ns;
        execute_ns = status.execute_ns;
    }
    let line = client.fetch_report(&submitted.id).map_err(|e| e.to_string())?;
    Ok(JobRun {
        spec_idx: 0,
        latency: start.elapsed(),
        line,
        cached: submitted.cached,
        queue_wait_ns,
        execute_ns,
    })
}

/// Fans `work` (indices into `specs`) out over `clients` threads.
fn run_phase(
    addr: SocketAddr,
    specs: &[JobSpec],
    work: &[usize],
    clients: usize,
    wait: Duration,
) -> Result<Vec<JobRun>, String> {
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client = Client::new(addr);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for (i, &spec_idx) in work.iter().enumerate() {
                        if i % clients != c {
                            continue;
                        }
                        let run = run_job(&client, &specs[spec_idx], wait)?;
                        out.push(JobRun { spec_idx, ..run });
                    }
                    Ok::<_, String>(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok(results.into_iter().flatten().collect())
}

fn main() {
    let args = parse_args();
    let addr: SocketAddr = args.addr.parse().unwrap_or_else(|_| {
        eprintln!("--addr: cannot parse {:?}", args.addr);
        usage();
    });
    let client = Client::new(addr);

    // The daemon may still be binding (CI starts it in the background):
    // poll /healthz before generating load.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.healthz() {
            Ok(h) => {
                eprintln!("loadgen: server healthy ({} workers)", h.workers);
                break;
            }
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => {
                eprintln!("loadgen: server at {addr} never became healthy: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(points) = args.sweep {
        run_sweep_mode(&args, &client, points);
        return;
    }

    let specs: Vec<JobSpec> = args
        .programs
        .iter()
        .flat_map(|p| args.allocators.iter().map(move |a| (p, a)))
        .map(|(p, a)| JobSpec {
            cache_kb: args.cache_kb.clone(),
            paging: Some(args.paging),
            ..JobSpec::cell(p, a, args.scale)
        })
        .collect();
    for spec in &specs {
        if let Err(e) = spec.validate() {
            eprintln!("loadgen: bad spec: {e}");
            std::process::exit(1);
        }
    }
    let wait = Duration::from_secs(args.wait_secs);

    // Fresh phase: every spec is new; latency includes queueing and the
    // full simulation run.
    let fresh_work: Vec<usize> = (0..specs.len()).collect();
    let fresh = run_phase(addr, &specs, &fresh_work, args.clients, wait).unwrap_or_else(|e| {
        eprintln!("loadgen: fresh phase failed: {e}");
        std::process::exit(1);
    });

    // Duplicate phase: the same specs again, several rounds from every
    // client; each must be answered from the cache.
    let dup_work: Vec<usize> = (0..args.dup_rounds).flat_map(|_| 0..specs.len()).collect();
    let dup = run_phase(addr, &specs, &dup_work, args.clients, wait).unwrap_or_else(|e| {
        eprintln!("loadgen: duplicate phase failed: {e}");
        std::process::exit(1);
    });
    let uncached = dup.iter().filter(|r| !r.cached).count();
    if uncached > 0 {
        eprintln!("loadgen: {uncached} duplicate submissions missed the cache");
        std::process::exit(1);
    }

    // Duplicate fetches must serve bit-identical bytes.
    for run in &dup {
        let original = fresh.iter().find(|r| r.spec_idx == run.spec_idx).map(|r| &r.line);
        if original != Some(&run.line) {
            eprintln!("loadgen: cached report for spec {} differs from the original", run.spec_idx);
            std::process::exit(1);
        }
    }

    let metrics = client.metrics().unwrap_or_else(|e| {
        eprintln!("loadgen: /metrics failed: {e}");
        std::process::exit(1);
    });
    let hits_expected = dup.len() as u64;
    let fresh_stats = phase_stats(&fresh.iter().map(|r| r.latency).collect::<Vec<_>>());
    let dup_stats = phase_stats(&dup.iter().map(|r| r.latency).collect::<Vec<_>>());
    let reduction =
        if fresh_stats.mean_ms > 0.0 { 1.0 - dup_stats.mean_ms / fresh_stats.mean_ms } else { 0.0 };
    let report = LoadgenReport {
        addr: args.addr.clone(),
        programs: args.programs.clone(),
        allocators: args.allocators.clone(),
        scale: args.scale,
        cache_kb: args.cache_kb.clone(),
        paging: args.paging,
        clients: args.clients as u64,
        dup_rounds: args.dup_rounds as u64,
        unique_specs: specs.len() as u64,
        fresh: fresh_stats,
        duplicate: dup_stats,
        jobs_completed: metrics.jobs_completed,
        cache_hits: metrics.cache_hits,
        cache_hit_rate: metrics.cache_hits as f64
            / (metrics.jobs_submitted + metrics.cache_hits).max(1) as f64,
        hit_latency_reduction: reduction,
    };

    if let Some(path) = &args.fetch {
        let mut lines: Vec<(usize, &str)> =
            fresh.iter().map(|r| (r.spec_idx, r.line.as_str())).collect();
        lines.sort_by_key(|(i, _)| *i);
        let body: String = lines.iter().map(|(_, l)| format!("{l}\n")).collect();
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("loadgen: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("loadgen: wrote {} report lines to {path}", lines.len());
    }

    let json = serde_json::to_string_pretty(&report).expect("serialize loadgen report");
    if let Err(e) = std::fs::write(&args.out, format!("{json}\n")) {
        eprintln!("loadgen: cannot write {}: {e}", args.out);
        std::process::exit(1);
    }
    println!("{json}");
    eprintln!(
        "loadgen: {} fresh jobs (mean {:.1} ms), {} duplicates (mean {:.3} ms), \
         cache hit rate {:.1}%, latency reduction {:.1}%",
        report.fresh.requests,
        report.fresh.mean_ms,
        report.duplicate.requests,
        report.duplicate.mean_ms,
        100.0 * report.cache_hit_rate,
        100.0 * report.hit_latency_reduction,
    );
    assert_eq!(metrics.cache_hits, hits_expected, "server counted every duplicate as a hit");

    if args.shutdown {
        if let Err(e) = client.shutdown() {
            eprintln!("loadgen: shutdown request failed: {e}");
            std::process::exit(1);
        }
        eprintln!("loadgen: shutdown requested");
    }

    if reduction < args.min_hit_reduction {
        eprintln!(
            "loadgen: FAIL cache-hit latency reduction {:.1}% is under the {:.1}% floor",
            100.0 * reduction,
            100.0 * args.min_hit_reduction
        );
        std::process::exit(1);
    }

    if let Some(slo) = args.slo_p99_ms {
        // Attribute fresh-phase latency with the server's own span
        // telemetry: how much of each job's wall time sat in the queue
        // versus executing the simulation.
        let with_split: Vec<_> =
            fresh.iter().filter_map(|r| Some((r.queue_wait_ns?, r.execute_ns?))).collect();
        if with_split.is_empty() {
            eprintln!("loadgen: note: server reported no queue-wait/execute telemetry");
        } else {
            let n = with_split.len() as f64;
            let queue_ms = with_split.iter().map(|(q, _)| *q as f64 / 1e6).sum::<f64>() / n;
            let exec_ms = with_split.iter().map(|(_, e)| *e as f64 / 1e6).sum::<f64>() / n;
            eprintln!(
                "loadgen: fresh jobs averaged {queue_ms:.1} ms queued vs {exec_ms:.1} ms \
                 executing ({} of {} jobs reported telemetry)",
                with_split.len(),
                fresh.len()
            );
        }
        if report.fresh.p99_ms > slo {
            eprintln!(
                "loadgen: FAIL fresh-phase p99 {:.1} ms exceeds the --slo-p99-ms {slo:.1} bound",
                report.fresh.p99_ms
            );
            std::process::exit(1);
        }
        eprintln!(
            "loadgen: fresh-phase p99 {:.1} ms within the {slo:.1} ms SLO",
            report.fresh.p99_ms
        );
    }
}
