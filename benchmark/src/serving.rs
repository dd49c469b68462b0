//! `serve-mixed`: an in-process `serve::Server` with one worker, a
//! stream cache, an on-disk report cache and an in-memory result cache
//! smaller than the set of distinct jobs, restarted over warm
//! directories and driven by one client connection with one request in
//! flight (closed loop). The seeded mix reaches every answer tier:
//! fresh jobs (cold), recent repeats (memory), repeats of set-up jobs
//! (disk report cache, or the stream cache's stored result), geometry
//! variants of set-up jobs (stream regenerated) and small sweeps.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use alloc_locality::{JobSpec, RunReport};
use explore::report::normalize_report;
use explore::{GridSpec, SweepExec, SweepReport, SweepSpec};
use obs::TraceReport;
use serve::client::{Client, Response};
use serve::{
    MetricsResponse, Server, ServerConfig, StatusResponse, SubmitResponse, SweepStatusResponse,
    SweepSubmitResponse,
};

use crate::common::{
    check_golden, emit_layers, median, self_s, write_ledger, Args, Digest, JobTrace, Ledger,
    Outcome, Rng, Timings,
};

/// Workload scale of every job.
const SCALE: f64 = 0.001;
/// Set-up repetitions, each into fresh directories; `setup_s` is their
/// median and the last one's daemon serves the timed phase.
const SETUP_REPEATS: usize = 3;
/// Set-up jobs computed by the first daemon (report-cache repeats cycle
/// through them: a report-cache hit stays a report-cache hit).
const DISK_JOBS: usize = 8;
/// Blocks per second of timed phase the request pools are sized for.
/// Stored-result repeats and geometry variants must each be new to the
/// daemon — it persists what it answers, so a second request would be a
/// report-cache hit — so set-up stores one stored-result job per block
/// and the variant pool holds [`VARIANTS`] per block. The fastest rate
/// measured was about 2 blocks/s; a run that reaches the end of the
/// pools fails rather than let the mix drift into other tiers.
const POOL_BLOCKS_PER_S: f64 = 4.0;
/// In-memory result cache bound — far below the distinct jobs a run
/// submits, so only recent repeats are answered from memory.
const RESULT_CACHE_ENTRIES: usize = 16;
/// Sleep between completion polls: well below a job's latency, so the
/// measured latency is not quantised by the poll.
const POLL: Duration = Duration::from_micros(200);
/// A request not answered by then counts as timed out.
const DEADLINE: Duration = Duration::from_secs(60);
/// Recent repeats per block, placed after this many block requests.
const RECENT_REPEATS: usize = 3;
const RECENT_AFTER: usize = 6;

/// Programs of the fresh and set-up jobs. `make` is left out: its jobs
/// take under a millisecond to simulate, so they would only add samples
/// dominated by HTTP round trips, which the recent repeats measure.
const FRESH_PROGRAMS: [&str; 4] = ["espresso", "GS", "gawk", "ptc"];
const ALLOCATORS: [&str; 5] = ["FirstFit", "QuickFit", "GNU G++", "BSD", "GNU local"];
/// Program of every sweep, so that blocks cost the same.
const SWEEP_PROGRAM: &str = "gawk";
/// Cache sizes (KB) and block sizes the geometry variants draw from. No
/// variant uses the paper's 32-byte block, so none is its set-up job.
const VARIANT_KB: [u32; 8] = [8, 16, 32, 64, 128, 256, 512, 1024];
const VARIANT_BLOCK: [u32; 4] = [16, 64, 128, 256];
/// Geometry variants per block, one per program.
const VARIANTS: usize = 4;
/// Step between the geometries that successive variants of a set-up job
/// take: coprime with the number of geometries, so the steps visit each
/// once, and large, so that a run's variants sample the whole pool
/// rather than the few neighbouring geometries of one seed.
const VARIANT_STRIDE: usize = 97;
/// Job counters of [`spec_at`]: fresh jobs count up from 0, sweeps and
/// set-up jobs from these offsets.
const SWEEP_N: u64 = 1 << 20;
const SETUP_N: u64 = 1 << 21;
/// Bits of the job counter in [`spec_at`]'s nudge.
const NUDGE_BITS: u32 = 22;

/// Which answer tier a single-job request is built to reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A job never submitted before: computed cold.
    Fresh,
    /// A job submitted a few requests earlier: answered from memory.
    Recent,
    /// A job the first daemon computed: answered from the report cache.
    Disk,
    /// A job whose stream (with its result) was stored by a direct
    /// `report()`: the worker answers from the stored result.
    Stored,
    /// A set-up job under another cache geometry: the stream is found
    /// but its sidecar does not match, so the job regenerates it.
    Variant,
}

enum Request {
    Job(Kind, JobSpec),
    Sweep(SweepSpec),
    /// Resolved to a [`Kind::Recent`] job once the order is fixed.
    RecentSlot,
}

/// A job spec at the workload scale, nudged by the seed and the job
/// counter `n` so that every distinct pair is a distinct job. The
/// relative nudge stays below 4.3e-6. Scale sets only a program's
/// allocation count — at most 1704 at this scale, truncated — which so
/// small a nudge leaves unchanged: every nudged job does the same work.
fn spec_at(program: &str, allocator: &str, seed: u64, n: u64) -> JobSpec {
    assert!(n < 1 << NUDGE_BITS, "job counter {n} overflows the nudge");
    let step = ((seed % 1024) << NUDGE_BITS | n) + 1;
    JobSpec::cell(program, allocator, SCALE * (1.0 + 1e-15 * step as f64))
}

/// Blocks the request pools hold for a timed phase of `seconds`: the
/// phase ends with the first block that starts after `seconds`.
fn pool_blocks(seconds: f64) -> usize {
    (seconds * POOL_BLOCKS_PER_S).ceil() as usize + 1
}

/// Every variant geometry: each set of one to three of [`VARIANT_KB`]
/// under each of [`VARIANT_BLOCK`].
fn variant_geometries() -> Vec<(Vec<u32>, u32)> {
    let sets = (1u32..1 << VARIANT_KB.len()).filter(|mask| mask.count_ones() <= 3).map(|mask| {
        let kb: Vec<u32> =
            (0..VARIANT_KB.len()).filter(|i| mask >> i & 1 == 1).map(|i| VARIANT_KB[i]).collect();
        kb
    });
    sets.flat_map(|kb| VARIANT_BLOCK.map(|block| (kb.clone(), block))).collect()
}

/// The set-up jobs: [`DISK_JOBS`] computed by a first daemon (report
/// cache) and one per pool block reported directly into the stream
/// cache; and the variant geometries.
struct SetupJobs {
    disk: Vec<JobSpec>,
    stored: Vec<JobSpec>,
    geometries: Vec<(Vec<u32>, u32)>,
}

fn setup_jobs(seed: u64, blocks: usize) -> Result<SetupJobs, String> {
    let geometries = variant_geometries();
    if blocks * VARIANTS > DISK_JOBS * geometries.len() {
        return Err(format!("{blocks} blocks need more geometry variants than the pool holds"));
    }
    let (mut a, mut b) = (VARIANT_STRIDE, geometries.len());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    assert_eq!(a, 1, "VARIANT_STRIDE must be coprime with the number of geometries");
    // Programs and allocators rotate, so every seed's set-up jobs cover
    // them evenly; the seed sets where the allocators start.
    let spec = |i: usize| {
        let program = FRESH_PROGRAMS[i % FRESH_PROGRAMS.len()];
        let allocator = ALLOCATORS[(i + seed as usize % ALLOCATORS.len()) % ALLOCATORS.len()];
        spec_at(program, allocator, seed, SETUP_N + i as u64)
    };
    Ok(SetupJobs {
        disk: (0..DISK_JOBS).map(spec).collect(),
        stored: (DISK_JOBS..DISK_JOBS + blocks).map(spec).collect(),
        geometries,
    })
}

/// Block `b` of the request sequence: 20 fresh jobs (every cell of
/// [`FRESH_PROGRAMS`] once), 2 report-cache repeats, 1 stored-result
/// repeat, 4 geometry variants (one per program), one 3-point sweep and
/// 3 recent repeats, in seeded order. The seed sets the order, where
/// the set-up jobs' allocators start and where in the pool the variant
/// geometries start, so every block costs about the same. `b` must be
/// below the pool's block count.
fn block(b: usize, seed: u64, jobs: &SetupJobs) -> Vec<Request> {
    let mut rng = Rng::new(seed, 100 + b as u64);
    let mut reqs = Vec::new();
    let cells = FRESH_PROGRAMS.len() * ALLOCATORS.len();
    for i in 0..cells {
        let spec = spec_at(
            FRESH_PROGRAMS[i / ALLOCATORS.len()],
            ALLOCATORS[i % ALLOCATORS.len()],
            seed,
            (b * cells + i) as u64,
        );
        reqs.push(Request::Job(Kind::Fresh, spec));
    }
    for k in 0..2 {
        reqs.push(Request::Job(Kind::Disk, jobs.disk[(2 * b + k) % DISK_JOBS].clone()));
    }
    reqs.push(Request::Job(Kind::Stored, jobs.stored[b].clone()));
    let geometries = jobs.geometries.len();
    for k in 0..VARIANTS {
        // Distinct (job, geometry) pairs for every v below
        // DISK_JOBS × geometries, which `setup_jobs` checked.
        let v = VARIANTS * b + k;
        let (kb, block) = &jobs.geometries
            [(seed as usize % geometries + v / DISK_JOBS * VARIANT_STRIDE) % geometries];
        let mut spec = jobs.disk[v % DISK_JOBS].clone();
        spec.cache_kb = kb.clone();
        spec.block = *block;
        reqs.push(Request::Job(Kind::Variant, spec));
    }
    let scale = spec_at(SWEEP_PROGRAM, "QuickFit", seed, SWEEP_N + b as u64).scale;
    let grid = GridSpec { fast_max: vec![16, 48, 64], ..GridSpec::baseline("QuickFit") };
    reqs.push(Request::Sweep(SweepSpec::over(SWEEP_PROGRAM, scale, vec![grid])));
    rng.shuffle(&mut reqs);
    for _ in 0..RECENT_REPEATS {
        let at = RECENT_AFTER + rng.below(reqs.len() - RECENT_AFTER + 1);
        reqs.insert(at, Request::RecentSlot);
    }
    let mut recent: VecDeque<JobSpec> = VecDeque::new();
    let mut out = Vec::with_capacity(reqs.len());
    for req in reqs {
        match req {
            Request::RecentSlot if recent.is_empty() => {}
            Request::RecentSlot => {
                let spec = recent[rng.below(recent.len())].clone();
                out.push(Request::Job(Kind::Recent, spec));
            }
            Request::Job(Kind::Fresh, spec) => {
                recent.push_back(spec.clone());
                if recent.len() > 5 {
                    recent.pop_front();
                }
                out.push(Request::Job(Kind::Fresh, spec));
            }
            other => out.push(other),
        }
    }
    out
}

fn config(dir: &Path) -> ServerConfig {
    ServerConfig {
        workers: 1,
        queue_depth: 64,
        result_cache_entries: RESULT_CACHE_ENTRIES,
        report_cache: Some(dir.join("reports")),
        report_cache_max_bytes: 1 << 30,
        stream_cache: Some(dir.join("streams")),
        ..ServerConfig::default()
    }
}

fn get(client: &Client, path: &str) -> Result<Response, String> {
    let response = client.request("GET", path, None).map_err(|e| format!("GET {path}: {e}"))?;
    if response.status != 200 {
        return Err(format!("GET {path} answered {}: {}", response.status, response.body));
    }
    Ok(response)
}

fn post(client: &Client, path: &str, body: &str) -> Result<Response, String> {
    let response =
        client.request("POST", path, Some(body)).map_err(|e| format!("POST {path}: {e}"))?;
    if response.status != 200 && response.status != 202 {
        return Err(format!("POST {path} refused with {}: {}", response.status, response.body));
    }
    Ok(response)
}

/// One single-job request's answer.
struct Answer {
    id: String,
    line: String,
    cached: bool,
    /// Final status of a job this request queued (queue wait, execute).
    status: Option<StatusResponse>,
    latency_ms: f64,
}

/// Runs `f` inside a span named `name` when the request is traced.
fn spanned<T>(job: &mut Option<&mut JobTrace>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match job {
        Some(job) => job.span(name, f),
        None => f(),
    }
}

/// Submits `spec` and returns once the report bytes have arrived,
/// polling for completion every [`POLL`].
fn single(
    client: &Client,
    spec: &JobSpec,
    mut job: Option<&mut JobTrace>,
) -> Result<Answer, String> {
    let start = Instant::now();
    let body = serde_json::to_string(spec).map_err(|e| e.to_string())?;
    let sub: SubmitResponse = spanned(&mut job, "serve.submit", || post(client, "/jobs", &body))?
        .json()
        .map_err(|e| e.to_string())?;
    let mut status = None;
    if sub.status != "done" {
        let polled = spanned(&mut job, "serve.poll", || loop {
            std::thread::sleep(POLL);
            let st: StatusResponse =
                get(client, &format!("/jobs/{}", sub.id))?.json().map_err(|e| e.to_string())?;
            match st.status.as_str() {
                "done" => return Ok(st),
                "failed" => return Err(format!("job {} failed: {:?}", sub.id, st.error)),
                _ if start.elapsed() > DEADLINE => {
                    return Err(format!("job {} timed out ({})", sub.id, st.status))
                }
                _ => {}
            }
        });
        status = Some(polled?);
    }
    let line =
        spanned(&mut job, "serve.report", || get(client, &format!("/jobs/{}/report", sub.id)))?
            .body;
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    Ok(Answer { id: sub.id, line, cached: sub.cached, status, latency_ms })
}

/// One sweep request's answer.
struct SweepAnswer {
    id: String,
    body: String,
    points: u64,
    latency_ms: f64,
}

fn sweep(client: &Client, spec: &SweepSpec) -> Result<SweepAnswer, String> {
    let start = Instant::now();
    let body = serde_json::to_string(spec).map_err(|e| e.to_string())?;
    let sub: SweepSubmitResponse =
        post(client, "/sweeps", &body)?.json().map_err(|e| e.to_string())?;
    loop {
        let st: SweepStatusResponse =
            get(client, &format!("/sweeps/{}", sub.id))?.json().map_err(|e| e.to_string())?;
        match st.status.as_str() {
            "done" => break,
            "failed" => return Err(format!("sweep {} failed", sub.id)),
            _ if start.elapsed() > DEADLINE => return Err(format!("sweep {} timed out", sub.id)),
            _ => std::thread::sleep(POLL),
        }
    }
    let body = get(client, &format!("/sweeps/{}/report", sub.id))?.body;
    Ok(SweepAnswer {
        id: sub.id,
        body,
        points: sub.points,
        latency_ms: start.elapsed().as_secs_f64() * 1e3,
    })
}

/// Set-up state the timed phase checks answers against.
struct Warm {
    server: Server,
    dir: PathBuf,
    jobs: SetupJobs,
    /// Digest of the first answer served for every job id: a fixed
    /// eight bytes per job, so the client's state does not grow with
    /// the daemon's throughput.
    first_answers: HashMap<String, u64>,
}

/// Fills the caches and restarts the daemon over them: the report-cache
/// jobs through a first daemon, the stored-result jobs straight into
/// the stream cache with `JobSpec::to_experiment()?.report()`, as
/// `explore` or `repro` would.
fn warm_up(dir: &Path, seed: u64, blocks: usize) -> Result<Warm, String> {
    let jobs = setup_jobs(seed, blocks)?;
    let mut first_answers = HashMap::new();
    let first = Server::start(config(dir)).map_err(|e| format!("start: {e}"))?;
    let client = Client::new(first.addr());
    for spec in &jobs.disk {
        let answer = single(&client, spec, None)?;
        first_answers.insert(answer.id, Digest::of(answer.line.as_bytes()));
    }
    let summary = first.shutdown();
    if summary.failed > 0 {
        return Err(format!("set-up daemon failed {} jobs", summary.failed));
    }
    for spec in &jobs.stored {
        let exp = spec.to_experiment().map_err(|e| e.to_string())?;
        let report = exp.stream_cache(dir.join("streams")).report().map_err(|e| e.to_string())?;
        first_answers.insert(spec.job_id(), Digest::of(report.to_jsonl_line().as_bytes()));
    }
    let server = Server::start(config(dir)).map_err(|e| format!("restart: {e}"))?;
    Ok(Warm { server, dir: dir.to_path_buf(), jobs, first_answers })
}

/// A report line with its wall-clock span totals zeroed, the one field
/// that differs between identical runs.
fn normalized(line: &str) -> Result<String, String> {
    let mut report = RunReport::parse(line)?;
    report.validate()?;
    normalize_report(&mut report);
    Ok(report.to_jsonl_line())
}

/// The tier a computed job was answered by, read from its served trace.
fn tier(trace: &TraceReport) -> &'static str {
    let counter = |name: &str| trace.spans.iter().any(|s| s.counters.contains_key(name));
    if counter("stream_cache.result_fastpath") {
        "core.tier.stored_result"
    } else if counter("stream_cache.sidecar_mismatch") {
        "core.tier.regenerate"
    } else if trace.span("engine.replay").is_some() && trace.span("engine.drive").is_none() {
        "core.tier.replay"
    } else {
        "core.tier.cold"
    }
}

/// What the traced mode gathers beyond the spans.
#[derive(Default)]
struct Layers {
    queue_wait_ms: Vec<f64>,
    execute_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    cached_ms: Vec<f64>,
    sweep_ms: Vec<f64>,
    tiers: BTreeMap<&'static str, u64>,
    latency_s: f64,
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut t = Timings::default();
    let pool = pool_blocks(args.seconds);
    let mut warm = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(previous) = warm.take() {
            let Warm { server, dir, .. } = previous;
            server.shutdown();
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        t.setup_host.probe();
        let start = Instant::now();
        warm = Some(warm_up(&args.work_dir.join(format!("serve-{rep}")), args.seed, pool)?);
        t.setup_s.push(start.elapsed().as_secs_f64());
    }
    t.setup_host.probe();
    let mut warm = warm.expect("at least one set-up");
    let client = Client::new(warm.server.addr());
    let mut ledger = Ledger::default();
    let mut layers = Layers::default();
    let mut trace = args.trace.then_some((&mut ledger, &mut layers));

    let start = Instant::now();
    let mut blocks = 0;
    while blocks == 0 || start.elapsed().as_secs_f64() < args.seconds {
        if blocks == pool {
            out.fail(format!(
                "the timed phase reached block {pool}, the end of the request pools \
                 ({POOL_BLOCKS_PER_S} blocks/s); raise POOL_BLOCKS_PER_S"
            ));
            break;
        }
        t.host.probe();
        let block_start = Instant::now();
        let mut digest = Digest::default();
        for req in block(blocks, args.seed, &warm.jobs) {
            out.attempted += 1;
            let latencies = &mut t.latencies_ms;
            let served = match &req {
                Request::Job(kind, spec) => {
                    serve_job(&client, *kind, spec, &mut warm, &mut out, latencies, &mut trace)
                        .map(|(line, r)| (line, r, 1))
                }
                Request::Sweep(spec) => serve_sweep(&client, spec, &mut trace),
                Request::RecentSlot => unreachable!("slots are resolved by block()"),
            };
            match served {
                Ok((record, refs, jobs)) => {
                    digest.add(record.as_bytes());
                    t.refs += refs;
                    t.jobs += jobs;
                }
                Err(e) => out.fail(e),
            }
        }
        t.wall_s += block_start.elapsed().as_secs_f64();
        if blocks == 0 {
            check_golden(&mut out, &args.workload, args.seed, &digest);
        }
        blocks += 1;
    }
    t.host.probe();
    let metrics: Option<Result<MetricsResponse, String>> = args
        .trace
        .then(|| get(&client, "/metrics").and_then(|r| r.json().map_err(|e| e.to_string())));
    let summary = warm.server.shutdown();
    if summary.failed > 0 {
        out.fail(format!("daemon failed {} jobs", summary.failed));
    }
    if let Some(metrics) = metrics {
        let m = metrics?;
        let per = blocks as f64;
        let totals = ledger.totals();
        let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, count) in &layers.tiers {
            v.insert(name, *count as f64 / per);
        }
        v.insert("explore.points_s", self_s(&totals, "explore.points", per));
        v.insert("explore.assemble_s", self_s(&totals, "explore.assemble", per));
        v.insert("explore.sweep_ms", median(&layers.sweep_ms));
        v.insert("serve.queue_wait_ms", median(&layers.queue_wait_ms));
        v.insert("serve.execute_ms", median(&layers.execute_ms));
        v.insert("serve.overhead_ms", median(&layers.overhead_ms));
        v.insert("serve.cached_ms", median(&layers.cached_ms));
        v.insert("serve.tier.memory", (m.cache_hits - m.report_cache_hits) as f64 / per);
        v.insert("serve.tier.disk", m.report_cache_hits as f64 / per);
        v.insert("serve.rejected", (m.rejected_backpressure + m.rejected_invalid) as f64 / per);
        v.insert("serve.failed", m.jobs_failed as f64 / per);
        v.insert("obs.trace_overhead_frac", t.wall_s / layers.latency_s - 1.0);
        emit_layers(&mut out, &v);
        write_ledger(&mut out, &ledger, args);
        return Ok(out);
    }
    let samples = t.latencies_ms.len();
    eprintln!("ledger: {samples} single-job latency samples");
    if samples < 100 {
        out.fail(format!("only {samples} single-job latency samples; need 100"));
    }
    t.emit(&mut out);
    Ok(out)
}

type Tracing<'a> = Option<(&'a mut Ledger, &'a mut Layers)>;

/// Serves one single-job request and checks its answer: the report
/// validates, and every answer for a job id is byte-identical to the
/// first one served (set-up answers included). Returns the normalized
/// report line and the run's data references.
fn serve_job(
    client: &Client,
    kind: Kind,
    spec: &JobSpec,
    warm: &mut Warm,
    out: &mut Outcome,
    latencies: &mut Vec<f64>,
    trace: &mut Tracing<'_>,
) -> Result<(String, u64), String> {
    let mut job = trace.is_some().then(JobTrace::start);
    let answer = single(client, spec, job.as_mut())?;
    latencies.push(answer.latency_ms);
    let line = normalized(&answer.line).map_err(|e| format!("job {}: {e}", answer.id))?;
    let digest = Digest::of(answer.line.as_bytes());
    match warm.first_answers.get(&answer.id) {
        Some(first) if *first != digest => {
            out.fail(format!("job {} ({kind:?}): repeat answer differs from the first", answer.id))
        }
        Some(_) => {}
        None => {
            warm.first_answers.insert(answer.id.clone(), digest);
        }
    }
    let refs = RunReport::parse(&answer.line)?.result.data_refs();
    if let Some((ledger, layers)) = trace.as_mut() {
        let job = job.expect("traced requests carry a job trace");
        layers.latency_s += answer.latency_ms / 1e3;
        if let Some(st) = &answer.status {
            let (wait, exec) = (st.queue_wait_ns.unwrap_or(0), st.execute_ns.unwrap_or(0));
            layers.queue_wait_ms.push(wait as f64 / 1e6);
            layers.execute_ms.push(exec as f64 / 1e6);
            layers.overhead_ms.push(answer.latency_ms - (wait + exec) as f64 / 1e6);
            let served = get(client, &format!("/jobs/{}/trace", answer.id))?;
            let served = TraceReport::parse(&served.body)?;
            served.validate()?;
            *layers.tiers.entry(tier(&served)).or_default() += 1;
            ledger.adopt(served);
        } else if answer.cached && kind == Kind::Recent {
            layers.cached_ms.push(answer.latency_ms);
        }
        ledger.finish(job, answer.id);
    }
    Ok((line, refs))
}

/// Serves one sweep request and checks the assembled report. Traced,
/// it also re-expands the spec and re-assembles the report from the
/// points' own served reports, which must reproduce the served bytes.
fn serve_sweep(
    client: &Client,
    spec: &SweepSpec,
    trace: &mut Tracing<'_>,
) -> Result<(String, u64, u64), String> {
    let answer = sweep(client, spec)?;
    let report =
        SweepReport::parse(&answer.body).map_err(|e| format!("sweep {}: {e}", answer.id))?;
    report.validate().map_err(|e| format!("sweep {}: {e}", answer.id))?;
    if report.points.len() as u64 != answer.points {
        return Err(format!(
            "sweep {}: {} rows for {} points",
            answer.id,
            report.points.len(),
            answer.points
        ));
    }
    let refs = report.points.iter().map(|row| row.report.result.data_refs()).sum();
    if let Some((ledger, layers)) = trace.as_mut() {
        layers.latency_s += answer.latency_ms / 1e3;
        layers.sweep_ms.push(answer.latency_ms);
        let mut job = JobTrace::start();
        let n = spec.normalized();
        let points = job.span("explore.points", || n.points());
        let mut reports = Vec::with_capacity(points.len());
        for point in &points {
            let line = get(client, &format!("/jobs/{}/report", point.job_id()))?.body;
            reports.push(RunReport::parse(&line)?);
        }
        let exec = SweepExec {
            stream_hits: report.header.stream_hits,
            stream_misses: report.header.stream_misses,
            adaptive: None,
        };
        let assembled =
            job.span("explore.assemble", || SweepReport::assemble_with(&n, reports, &exec))?;
        if assembled.to_jsonl() != answer.body {
            return Err(format!(
                "sweep {}: re-assembled report differs from the served one",
                answer.id
            ));
        }
        ledger.finish(job, answer.id);
    }
    Ok((answer.body, refs, answer.points))
}
