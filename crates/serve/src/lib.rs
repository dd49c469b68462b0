//! `alloc-locality-serve`: a std-only simulation service.
//!
//! The daemon turns the experiment engine into a long-lived service:
//! clients POST a [`JobSpec`] (one program × allocator × cache-geometry
//! cell), the server queues it into a bounded channel, a pool of worker
//! threads executes it through [`Experiment::report`], and the finished
//! [`RunReport`] JSONL line is stored in a content-addressed cache keyed
//! by the spec's canonical hash. Re-submitting an equivalent spec —
//! however its optional fields were spelled — returns the cached result
//! instantly, and every byte the server hands out is the same stable
//! `alloc-locality.run-report` v1 line the `repro` binary would emit, so
//! `report_check` validates server output unchanged.
//!
//! Two optional layers make repeat work cheap across restarts: a
//! [`ServerConfig::report_cache`] directory persists every finished line
//! (size-bounded, oldest evicted) so a restarted server answers
//! duplicates instantly, and a [`ServerConfig::stream_cache`] directory
//! lets the engine replay captured reference streams instead of
//! regenerating workloads. The in-memory result table itself is bounded
//! by [`ServerConfig::result_cache_entries`] with LRU eviction.
//!
//! Everything is built on `std`: `TcpListener` for transport,
//! `Mutex`/`Condvar` for the queue, `AtomicBool` for shutdown. The HTTP
//! subset lives in [`http`]; a blocking client for tests and the load
//! harness lives in [`client`].
//!
//! Every job is traced end to end: submission opens an [`obs::Tracer`]
//! whose span tree covers cache lookup, queue wait, engine execution
//! (with the engine's own drive/replay/finalize spans nested inside),
//! and response serialization. The finished tree is served as a
//! versioned `alloc-locality.trace` v1 artifact — a *separate* artifact,
//! so the run-report schema is untouched — and per-endpoint request
//! latency accumulates into rolling [`obs::Hist`] histograms exposed
//! both in the JSON metrics body and as Prometheus text exposition.
//!
//! Routes:
//!
//! | Route                  | Meaning                                       |
//! |------------------------|-----------------------------------------------|
//! | `POST /jobs`           | submit a [`JobSpec`]; 202 queued / 200 cached |
//! | `GET /jobs/{id}`       | job status + queue-wait/execute telemetry     |
//! | `GET /jobs/{id}/report`| the finished run-report JSONL line            |
//! | `GET /jobs/{id}/trace` | the job's span tree (`alloc-locality.trace`)  |
//! | `POST /sweeps`         | submit a [`SweepSpec`]; points fan into the job queue |
//! | `GET /sweeps/{id}`     | per-point progress counts                     |
//! | `GET /sweeps/{id}/report` | the assembled sweep-report JSONL (409 until done) |
//! | `GET /healthz`         | liveness + queue gauges                       |
//! | `GET /metrics`         | server counters + merged simulation metrics   |
//! | `GET /metrics?format=prometheus` | the same, as Prometheus text        |
//! | `POST /shutdown`       | stop accepting, drain the queue, exit; answers `/healthz`'s body with `draining: true` |

pub mod client;
pub mod http;

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use alloc_locality::{JobSpec, RunReport};
use explore::{SweepExec, SweepReport, SweepSpec};
use obs::{Hist, HistSnapshot, MetricsSnapshot, Recorder as _, Tracer};
use serde::{Deserialize, Serialize};
use sim_mem::stream::{evict_oldest, write_atomic};

use http::{read_by, read_request, write_response_with_headers, RecvError, Request};

/// How the daemon is shaped. `Default` suits tests: an OS-assigned port,
/// two workers, and small-but-real limits.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 asks the OS for a free port.
    pub addr: String,
    /// Worker threads executing jobs. Zero is allowed — jobs queue but
    /// never run, which tests use to exercise backpressure.
    pub workers: usize,
    /// Bound on queued-but-unstarted jobs; beyond it `POST /jobs`
    /// answers 429.
    pub queue_depth: usize,
    /// Largest request body accepted; beyond it the server answers 413.
    pub max_body_bytes: usize,
    /// Deadline for reading one request, head and body together,
    /// counted from when its connection's handler starts. A client that
    /// has not sent a whole request by then is disconnected, however
    /// steadily its bytes keep arriving. Also each response write's
    /// timeout.
    pub read_timeout_ms: u64,
    /// Bound on finished results kept in memory. Beyond it the
    /// least-recently-used `done` entry is dropped; resubmitting its spec
    /// recomputes (or answers from the on-disk report cache).
    pub result_cache_entries: usize,
    /// Directory finished report lines persist to (one `<job-id>.json`
    /// per job), so a restarted server answers duplicate submissions
    /// instantly. `None` disables persistence.
    pub report_cache: Option<std::path::PathBuf>,
    /// Total-size bound on the on-disk report cache; oldest files are
    /// evicted once the directory exceeds it.
    pub report_cache_max_bytes: u64,
    /// Stream-cache directory handed to every experiment
    /// ([`Experiment::stream_cache`]), so a job whose reference stream was
    /// captured before replays it instead of regenerating the workload.
    pub stream_cache: Option<std::path::PathBuf>,
    /// Total-size bound on the stream-cache directory; after each store
    /// the oldest-written streams are evicted (mirrors
    /// `report_cache_max_bytes`, which already bounds the report cache).
    /// `None` leaves the stream cache unbounded — a long-lived daemon
    /// should set it.
    pub stream_cache_bytes: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 64,
            max_body_bytes: 64 * 1024,
            read_timeout_ms: 2_000,
            result_cache_entries: 256,
            report_cache: None,
            report_cache_max_bytes: 8 * 1024 * 1024,
            stream_cache: None,
            stream_cache_bytes: None,
        }
    }
}

/// Where one job is in its lifecycle.
#[derive(Debug, Clone)]
enum JobStatus {
    Queued,
    Running,
    /// The finished report line, shared so duplicate fetches hand out
    /// literally the same bytes.
    Done {
        line: Arc<String>,
        /// The job's finished `alloc-locality.trace` v1 line. `None`
        /// for jobs restored from the on-disk report cache — the trace
        /// is not persisted, only the report is.
        trace: Option<Arc<String>>,
    },
    Failed {
        error: String,
    },
}

impl JobStatus {
    fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done { .. } => "done",
            JobStatus::Failed { .. } => "failed",
        }
    }
}

#[derive(Debug)]
struct Job {
    spec: JobSpec,
    status: JobStatus,
    /// The job's in-flight tracer: opened by `submit` (cache-lookup and
    /// queue-wait spans already recorded), taken by the worker that
    /// executes the job, absent once the job finishes.
    tracer: Option<Box<Tracer>>,
    /// Nanoseconds between submission and a worker picking the job up,
    /// scraped from the finished trace.
    queue_wait_ns: Option<u64>,
    /// Nanoseconds the engine run took, scraped from the finished trace.
    execute_ns: Option<u64>,
}

impl Job {
    fn new(spec: JobSpec, status: JobStatus, tracer: Option<Box<Tracer>>) -> Self {
        Job { spec, status, tracer, queue_wait_ns: None, execute_ns: None }
    }
}

/// One registered sweep: the normalized spec plus its points' job ids
/// in expansion order (the order [`SweepReport::assemble`] expects).
/// Points are ordinary content-addressed jobs — shared with direct
/// submissions and with other sweeps — so a sweep adds no execution
/// machinery, only bookkeeping. Entries are a spec and an id list, tiny
/// next to the reports themselves, so the map is unbounded.
struct Sweep {
    spec: SweepSpec,
    point_ids: Vec<String>,
    /// Points whose reference stream was already in the stream cache at
    /// submit time (v2 header telemetry; zero without a cache).
    stream_hits: u64,
    /// Points whose stream was not cached at submit time (ditto).
    stream_misses: u64,
    /// The assembled report, memoized on first fetch so duplicate
    /// fetches hand out literally the same bytes.
    report: Option<Arc<String>>,
}

/// Everything behind the mutex.
#[derive(Default)]
struct State {
    /// Ids of submitted-but-unstarted jobs, FIFO.
    queue: VecDeque<String>,
    /// Every live job, keyed by content address. Finished entries beyond
    /// [`ServerConfig::result_cache_entries`] are evicted LRU-first.
    jobs: HashMap<String, Job>,
    /// Registered sweeps, keyed by sweep content address.
    sweeps: HashMap<String, Sweep>,
    /// `done` job ids, least recently used first. A cache hit moves the
    /// id to the back; eviction pops the front.
    done_order: VecDeque<String>,
    /// Simulation metrics merged across completed jobs.
    sim_metrics: MetricsSnapshot,
    /// Rolling request-latency histograms (microseconds), one per
    /// normalized endpoint label (`POST /jobs`, `GET /jobs/{id}`, ...).
    endpoint_latency: BTreeMap<&'static str, Hist>,
    submitted: u64,
    sweeps_submitted: u64,
    completed: u64,
    failed: u64,
    cache_hits: u64,
    report_cache_hits: u64,
    rejected_backpressure: u64,
    rejected_invalid: u64,
    running: u64,
    /// Jobs whose run panicked; each also counts in `failed`.
    worker_panics: u64,
}

/// What a worker calls to execute one job: [`run_job`], except in this
/// crate's tests, which substitute runners that panic.
type JobRunner = fn(&ServerConfig, JobSpec, &mut Tracer) -> Result<RunReport, String>;

struct Shared {
    cfg: ServerConfig,
    runner: JobRunner,
    state: Mutex<State>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    /// Monotone per-request sequence backing the `X-Trace-Id` response
    /// header, so client logs and server traces can be correlated.
    request_seq: AtomicU64,
    /// Makes the next connection-handler spawn fail without starting a
    /// thread, as an exhausted process would.
    #[cfg(test)]
    fail_next_spawn: AtomicBool,
}

/// Body of a successful `POST /jobs`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubmitResponse {
    /// Content-addressed job id.
    pub id: String,
    /// Lifecycle label: `queued`, `running`, `done`, `failed`.
    pub status: String,
    /// True when the id already existed — the result (or the in-flight
    /// run) is shared with the earlier submission.
    pub cached: bool,
}

/// Body of `GET /jobs/{id}`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusResponse {
    /// Content-addressed job id.
    pub id: String,
    /// Lifecycle label: `queued`, `running`, `done`, `failed`.
    pub status: String,
    /// The failure message when `status` is `failed`.
    #[serde(default)]
    pub error: Option<String>,
    /// Nanoseconds the job waited in the queue before a worker picked
    /// it up. Present once the job finished with a trace.
    #[serde(default)]
    pub queue_wait_ns: Option<u64>,
    /// Nanoseconds the engine run took. Present once the job finished
    /// with a trace.
    #[serde(default)]
    pub execute_ns: Option<u64>,
}

/// Body of a successful `POST /sweeps`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepSubmitResponse {
    /// Content-addressed sweep id ([`SweepSpec::sweep_id`]).
    pub id: String,
    /// `done` when every point was already finished, else `queued`.
    pub status: String,
    /// Expanded, deduplicated points in the sweep.
    pub points: u64,
    /// The subset of `points` newly enqueued by this submission; the
    /// rest were answered by the result or report cache.
    pub fresh: u64,
    /// True when the sweep id was already registered.
    pub cached: bool,
}

/// Body of `GET /sweeps/{id}`: per-point progress counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepStatusResponse {
    /// Content-addressed sweep id.
    pub id: String,
    /// `done` once every point finished, `failed` if any point failed,
    /// else `running`.
    pub status: String,
    /// Points in the sweep.
    pub total: u64,
    /// Points waiting in the queue.
    pub queued: u64,
    /// Points currently executing.
    pub running: u64,
    /// Points finished successfully.
    pub done: u64,
    /// Points that failed in the engine.
    pub failed: u64,
}

/// Body of `GET /healthz`, and of `POST /shutdown` (with `draining`
/// set).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Always `ok` while the listener answers.
    pub status: String,
    /// Configured worker-thread count.
    pub workers: u64,
    /// Jobs waiting in the queue.
    pub queued: u64,
    /// Jobs currently executing.
    pub running: u64,
    /// Jobs finished successfully since start.
    pub done: u64,
    /// Jobs that failed since start.
    pub failed: u64,
    /// True once shutdown was requested (draining).
    pub draining: bool,
}

/// Body of `GET /metrics`: server-level counters plus the simulation
/// metrics of every completed job, merged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsResponse {
    /// Jobs accepted (cache hits not included).
    pub jobs_submitted: u64,
    /// Sweeps registered via `POST /sweeps`.
    #[serde(default)]
    pub sweeps_submitted: u64,
    /// Jobs finished successfully.
    pub jobs_completed: u64,
    /// Jobs that failed in the engine.
    pub jobs_failed: u64,
    /// Submissions answered from the result cache.
    pub cache_hits: u64,
    /// The subset of `cache_hits` answered by reloading a persisted
    /// report file (the in-memory entry was evicted or predates this
    /// process).
    #[serde(default)]
    pub report_cache_hits: u64,
    /// Submissions refused with 429 (queue full).
    pub rejected_backpressure: u64,
    /// Submissions refused with 4xx (bad spec or body).
    pub rejected_invalid: u64,
    /// Jobs whose run panicked. The worker survives; each such job
    /// failed with the panic message and counts in `jobs_failed` too.
    #[serde(default)]
    pub worker_panics: u64,
    /// Request-latency histograms (microseconds) per endpoint label.
    #[serde(default)]
    pub endpoints: BTreeMap<String, HistSnapshot>,
    /// Merged [`MetricsSnapshot`] across completed jobs.
    pub simulation: MetricsSnapshot,
}

/// Body of every error response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Machine-readable kind: `malformed`, `invalid_spec`, `too_large`,
    /// `queue_full`, `not_found`, `not_done`, `shutting_down`,
    /// `method_not_allowed`.
    pub error: String,
    /// Human-readable detail.
    pub detail: String,
}

impl ErrorResponse {
    fn new(error: &str, detail: impl Into<String>) -> Self {
        ErrorResponse { error: error.into(), detail: detail.into() }
    }
}

/// What the drain saw when the server stopped.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShutdownSummary {
    /// Jobs finished successfully over the server's lifetime.
    pub completed: u64,
    /// Jobs that failed over the server's lifetime.
    pub failed: u64,
    /// Jobs still queued when the listener stopped — all of them were
    /// executed during the drain, so this is informational.
    pub drained: u64,
}

/// A running daemon: the listener thread, the worker pool, and the
/// shared state they communicate through.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, starts the worker pool, and returns once the
    /// server is accepting connections.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        Self::start_with(cfg, run_job)
    }

    fn start_with(cfg: ServerConfig, runner: JobRunner) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cfg,
            runner,
            state: Mutex::new(State::default()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            request_seq: AtomicU64::new(0),
            #[cfg(test)]
            fail_next_spawn: AtomicBool::new(false),
        });
        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept loop");
        Ok(Server { addr, shared, accept_handle: Some(accept_handle), workers })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Flips the shutdown flag: the listener stops accepting and workers
    /// exit once the queue is drained. Returns immediately.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
    }

    /// Requests shutdown and blocks until the queue is drained and every
    /// thread has exited.
    pub fn shutdown(mut self) -> ShutdownSummary {
        self.request_shutdown();
        self.join_all()
    }

    /// Blocks until the server stops (something else must request the
    /// shutdown — e.g. a `POST /shutdown` from a client).
    pub fn wait(mut self) -> ShutdownSummary {
        self.join_all()
    }

    fn join_all(&mut self) -> ShutdownSummary {
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let state = self.shared.state.lock().expect("state lock");
        ShutdownSummary {
            completed: state.completed,
            failed: state.failed,
            drained: state.queue.len() as u64,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.request_shutdown();
        self.join_all();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                handlers.retain(|h| !h.is_finished());
                match spawn_handler(stream, shared) {
                    Ok(h) => handlers.push(h),
                    // Out of threads or memory: drop this one connection
                    // (its stream closes with the failed closure) and keep
                    // accepting, so later requests — `POST /shutdown`
                    // included — are still answered.
                    Err(e) => eprintln!("serve: dropped a connection: no handler thread: {e}"),
                }
            }
            // Poll finely: this sleep bounds connection-setup latency,
            // and cached submissions are answered in ~one poll interval.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(500));
            }
            Err(_) => std::thread::sleep(Duration::from_micros(500)),
        }
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// Starts the thread that serves one accepted connection.
fn spawn_handler(
    stream: TcpStream,
    shared: &Arc<Shared>,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    #[cfg(test)]
    if shared.fail_next_spawn.swap(false, Ordering::SeqCst) {
        return Err(std::io::Error::other("injected spawn failure"));
    }
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name("serve-conn".into())
        .spawn(move || handle_connection(stream, &shared))
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let picked = {
            let mut state = shared.state.lock().expect("state lock");
            loop {
                if let Some(id) = state.queue.pop_front() {
                    state.running += 1;
                    let (spec, tracer) = match state.jobs.get_mut(&id) {
                        Some(job) => {
                            job.status = JobStatus::Running;
                            (Some(job.spec.clone()), job.tracer.take())
                        }
                        None => (None, None),
                    };
                    break Some((id, spec, tracer));
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                // Timed wait so a shutdown raced against the wait is
                // still seen promptly.
                let (s, _) = shared
                    .queue_cv
                    .wait_timeout(state, Duration::from_millis(50))
                    .expect("queue wait");
                state = s;
            }
        };
        let Some((id, spec, tracer)) = picked else { return };
        // The submit path opened `serve.queue_wait`; close it now that a
        // worker owns the job. A missing tracer (never happens on the
        // submit path) degrades to an empty trace, not a crash.
        let mut tracer = tracer.unwrap_or_default();
        tracer.span_exit();
        tracer.span_enter("serve.execute");
        // A panicking run fails its job, not the worker: unwound here, a
        // panic cannot leave the job `running` forever or shrink the pool.
        let mut panicked = false;
        let outcome = match spec {
            None => Err("job vanished from the table".to_string()),
            Some(spec) => {
                let run = || (shared.runner)(&shared.cfg, spec, &mut tracer);
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(
                    |payload| {
                        panicked = true;
                        Err(format!("job panicked: {}", panic_message(payload.as_ref())))
                    },
                )
            }
        };
        tracer.span_exit();
        // Persist before publishing, outside the lock: a line visible in
        // memory is already on disk (or persistence is off/broken).
        let outcome = outcome.map(|report| {
            tracer.span_enter("serve.respond");
            let line = report.to_jsonl_line();
            if let Some(dir) = &shared.cfg.report_cache {
                persist_report(dir, shared.cfg.report_cache_max_bytes, &id, &line);
            }
            tracer.span_exit();
            (report, line)
        });
        // Close the `serve.job` root and freeze the trace. Span
        // structure never feeds the flat metrics, so the report line
        // above is byte-identical to an untraced run's.
        tracer.span_exit();
        let (_, trace_report) = tracer.finish(id.clone());
        let queue_wait_ns = trace_report.span("serve.queue_wait").map(|s| s.duration_ns());
        let execute_ns = trace_report.span("serve.execute").map(|s| s.duration_ns());
        let trace_line = Arc::new(trace_report.to_json_line());
        let mut state = shared.state.lock().expect("state lock");
        state.running -= 1;
        match outcome {
            Ok((report, line)) => {
                state.sim_metrics.merge(&report.metrics);
                state.completed += 1;
                if let Some(job) = state.jobs.get_mut(&id) {
                    job.status = JobStatus::Done { line: Arc::new(line), trace: Some(trace_line) };
                    job.queue_wait_ns = queue_wait_ns;
                    job.execute_ns = execute_ns;
                }
                state.remember_done(&id, shared.cfg.result_cache_entries);
            }
            Err(error) => {
                state.failed += 1;
                state.worker_panics += u64::from(panicked);
                if let Some(job) = state.jobs.get_mut(&id) {
                    job.status = JobStatus::Failed { error };
                    job.queue_wait_ns = queue_wait_ns;
                    job.execute_ns = execute_ns;
                }
                state.remember_done(&id, shared.cfg.result_cache_entries);
            }
        }
    }
}

/// Executes one job through the engine: the experiment its spec names,
/// with the server's stream cache, traced into `tracer`.
fn run_job(cfg: &ServerConfig, spec: JobSpec, tracer: &mut Tracer) -> Result<RunReport, String> {
    let exp = spec.to_experiment().map_err(|e| e.to_string())?;
    let exp = match &cfg.stream_cache {
        Some(dir) => exp.stream_cache(dir.clone()).stream_cache_bytes(cfg.stream_cache_bytes),
        None => exp,
    };
    exp.run_traced_with(tracer)
        .map(|(result, metrics)| RunReport::new(result, metrics))
        .map_err(|e| e.to_string())
}

/// The message a panic was raised with, when it carried one.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(message) = payload.downcast_ref::<&str>() {
        message
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message
    } else {
        "non-string payload"
    }
}

impl State {
    /// Marks `id` most recently used and evicts finished (`done` or
    /// `failed`) entries beyond the cap — never the entry just touched,
    /// so a cap of zero still lets the submitting client fetch its
    /// report.
    fn remember_done(&mut self, id: &str, cap: usize) {
        self.done_order.retain(|existing| existing != id);
        self.done_order.push_back(id.to_string());
        while self.done_order.len() > cap.max(1) {
            let Some(evicted) = self.done_order.pop_front() else { break };
            self.jobs.remove(&evicted);
        }
    }
}

/// Writes `line` to `<dir>/<id>.json` with [`write_atomic`], then evicts
/// oldest-modified report files until the directory fits the size bound
/// ([`evict_oldest`]). Best-effort throughout: persistence failures
/// never fail the job.
fn persist_report(dir: &std::path::Path, max_bytes: u64, id: &str, line: &str) {
    if let Ok(path) = write_atomic(dir, &format!("{id}.json"), line.as_bytes()) {
        evict_oldest(dir, "json", &path, max_bytes);
    }
}

/// Loads a previously persisted report line for `id`, verifying it still
/// parses as a run report (a damaged file is treated as absent).
fn load_persisted_report(dir: &std::path::Path, id: &str) -> Option<String> {
    // Ids are hex strings from `JobSpec::job_id`, but guard anyway: the
    // id becomes a file name.
    if id.is_empty() || !id.bytes().all(|b| b.is_ascii_alphanumeric()) {
        return None;
    }
    let line = std::fs::read_to_string(dir.join(format!("{id}.json"))).ok()?;
    RunReport::parse(&line).ok()?;
    Some(line)
}

/// One routed response: status, content type, body.
struct Reply {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Reply {
    fn json(status: u16, body: String) -> Reply {
        Reply { status, content_type: "application/json", body }
    }
}

/// The normalized label request latency is recorded under — parameters
/// collapsed so the histogram key set stays small and static.
fn endpoint_label(method: &str, path: &str) -> &'static str {
    match (method, path) {
        ("POST", "/jobs") => "POST /jobs",
        ("GET", "/healthz") => "GET /healthz",
        ("GET", "/metrics") => "GET /metrics",
        ("POST", "/shutdown") => "POST /shutdown",
        ("POST", "/sweeps") => "POST /sweeps",
        ("GET", p) if p.starts_with("/jobs/") && p.ends_with("/report") => "GET /jobs/{id}/report",
        ("GET", p) if p.starts_with("/jobs/") && p.ends_with("/trace") => "GET /jobs/{id}/trace",
        ("GET", p) if p.starts_with("/jobs/") => "GET /jobs/{id}",
        ("GET", p) if p.starts_with("/sweeps/") && p.ends_with("/report") => {
            "GET /sweeps/{id}/report"
        }
        ("GET", p) if p.starts_with("/sweeps/") => "GET /sweeps/{id}",
        _ => "other",
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let timeout = Duration::from_millis(shared.cfg.read_timeout_ms.max(1));
    let deadline = Instant::now() + timeout;
    let _ = stream.set_write_timeout(Some(timeout));
    let sw = obs::Stopwatch::start();
    let trace_id = shared.request_seq.fetch_add(1, Ordering::Relaxed) + 1;
    let (reply, label) = match read_request(&mut stream, shared.cfg.max_body_bytes, deadline) {
        Ok(request) => {
            let path = request.path.split('?').next().unwrap_or("").to_string();
            (route(&request, shared), endpoint_label(&request.method, &path))
        }
        // The peer went away or sat silent: nothing useful to answer.
        Err(RecvError::Closed) | Err(RecvError::Timeout) | Err(RecvError::Io(_)) => return,
        Err(e @ RecvError::BodyTooLarge { declared, .. }) => {
            // Swallow (a bounded amount of) the refused body so closing
            // the socket does not reset it under the client before the
            // 413 is read.
            drain(&mut stream, declared, deadline);
            (Reply::json(413, json_body(&ErrorResponse::new("too_large", e.to_string()))), "other")
        }
        Err(e @ RecvError::Malformed(_)) => {
            (Reply::json(400, json_body(&ErrorResponse::new("malformed", e.to_string()))), "other")
        }
    };
    let trace_header = format!("req-{trace_id}");
    let _ = write_response_with_headers(
        &mut stream,
        reply.status,
        reply.content_type,
        &[("X-Trace-Id", &trace_header)],
        reply.body.as_bytes(),
    );
    // Response written: fold the request's wall time into the rolling
    // per-endpoint histogram (microseconds).
    if let Ok(mut state) = shared.state.lock() {
        state.endpoint_latency.entry(label).or_default().record(sw.elapsed_ns() / 1_000);
    }
}

/// Reads and discards up to `n` bytes (capped at 1 MiB) by the
/// request's deadline, best-effort.
fn drain(stream: &mut TcpStream, n: usize, deadline: Instant) {
    let mut left = n.min(1 << 20);
    let mut buf = [0u8; 8192];
    while left > 0 {
        match read_by(stream, &mut buf[..left.min(8192)], deadline) {
            Ok(0) | Err(_) => return,
            Ok(read) => left -= read,
        }
    }
}

fn json_body<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serialize response body")
}

fn route(request: &Request, shared: &Arc<Shared>) -> Reply {
    let (path, query) = match request.path.split_once('?') {
        Some((path, query)) => (path, query),
        None => (request.path.as_str(), ""),
    };
    match (request.method.as_str(), path) {
        ("POST", "/jobs") => submit(request, shared),
        ("POST", "/sweeps") => submit_sweep(request, shared),
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/metrics") => {
            if query.split('&').any(|kv| kv == "format=prometheus") {
                metrics_prometheus(shared)
            } else {
                metrics(shared)
            }
        }
        ("POST", "/shutdown") => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.queue_cv.notify_all();
            healthz(shared)
        }
        ("GET", _) if path.starts_with("/jobs/") => {
            let rest = &path["/jobs/".len()..];
            match (rest.strip_suffix("/report"), rest.strip_suffix("/trace")) {
                (Some(id), _) => job_report(id, shared),
                (None, Some(id)) => job_trace(id, shared),
                (None, None) if rest.contains('/') => not_found(path),
                (None, None) => job_status(rest, shared),
            }
        }
        ("GET", _) if path.starts_with("/sweeps/") => {
            let rest = &path["/sweeps/".len()..];
            match rest.strip_suffix("/report") {
                Some(id) => sweep_report(id, shared),
                None if rest.contains('/') => not_found(path),
                None => sweep_status(rest, shared),
            }
        }
        (_, "/jobs" | "/sweeps" | "/healthz" | "/metrics" | "/shutdown") => Reply::json(
            405,
            json_body(&ErrorResponse::new(
                "method_not_allowed",
                format!("{} {} is not supported", request.method, path),
            )),
        ),
        _ => not_found(path),
    }
}

fn not_found(path: &str) -> Reply {
    Reply::json(404, json_body(&ErrorResponse::new("not_found", format!("no route for {path}"))))
}

fn submit(request: &Request, shared: &Arc<Shared>) -> Reply {
    let reject = |state: &mut State, status: u16, err: ErrorResponse| {
        state.rejected_invalid += 1;
        Reply::json(status, json_body(&err))
    };
    let parsed: Result<JobSpec, String> = std::str::from_utf8(&request.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()));
    let spec = match parsed {
        Ok(spec) => spec,
        Err(detail) => {
            let mut state = shared.state.lock().expect("state lock");
            return reject(
                &mut state,
                400,
                ErrorResponse::new("malformed", format!("body is not a job spec: {detail}")),
            );
        }
    };
    if let Err(e) = spec.validate() {
        let mut state = shared.state.lock().expect("state lock");
        return reject(&mut state, 400, ErrorResponse::new("invalid_spec", e.to_string()));
    }
    let id = spec.job_id();
    // The job's trace starts here: the `serve.job` root opens at
    // submission so queue wait is attributed to the job itself. A cache
    // hit abandons the tracer — the stored job already has its trace.
    let mut tracer = Box::<Tracer>::default();
    tracer.span_enter("serve.job");
    tracer.span_enter("serve.cache_lookup");
    let mut state = shared.state.lock().expect("state lock");
    if let Some(job) = state.jobs.get(&id) {
        let status = job.status.label().to_string();
        let done = matches!(job.status, JobStatus::Done { .. });
        state.cache_hits += 1;
        if done {
            state.remember_done(&id, shared.cfg.result_cache_entries);
        }
        return Reply::json(200, json_body(&SubmitResponse { id, status, cached: true }));
    }
    // Not in memory — an earlier life of this server (or an evicted
    // entry) may have persisted the report.
    if let Some(line) =
        shared.cfg.report_cache.as_deref().and_then(|dir| load_persisted_report(dir, &id))
    {
        state.cache_hits += 1;
        state.report_cache_hits += 1;
        state.jobs.insert(
            id.clone(),
            Job::new(
                spec.normalized(),
                JobStatus::Done { line: Arc::new(line), trace: None },
                None,
            ),
        );
        state.remember_done(&id, shared.cfg.result_cache_entries);
        return Reply::json(
            200,
            json_body(&SubmitResponse { id, status: "done".into(), cached: true }),
        );
    }
    if shared.shutdown.load(Ordering::SeqCst) {
        return Reply::json(
            503,
            json_body(&ErrorResponse::new("shutting_down", "server is draining; try again later")),
        );
    }
    if state.queue.len() >= shared.cfg.queue_depth {
        state.rejected_backpressure += 1;
        return Reply::json(
            429,
            json_body(&ErrorResponse::new(
                "queue_full",
                format!("queue holds {} jobs; retry later", state.queue.len()),
            )),
        );
    }
    state.submitted += 1;
    // The lookup missed: close its span and leave `serve.queue_wait`
    // open for the worker that picks the job up.
    tracer.span_exit();
    tracer.span_enter("serve.queue_wait");
    state.jobs.insert(id.clone(), Job::new(spec.normalized(), JobStatus::Queued, Some(tracer)));
    state.queue.push_back(id.clone());
    shared.queue_cv.notify_one();
    Reply::json(202, json_body(&SubmitResponse { id, status: "queued".into(), cached: false }))
}

/// `POST /sweeps`: registers a [`SweepSpec`] and fans its points into
/// the job queue as ordinary content-addressed jobs. Points already in
/// the result table (from direct submissions, earlier sweeps, or the
/// persisted report cache) are reused; only genuinely fresh points take
/// queue slots, and the whole batch is refused with 429 when they do
/// not all fit — nothing is partially enqueued. A sweep whose fresh
/// points exceed the queue bound can still be driven to completion by
/// resubmitting it after earlier points drain: finished points count as
/// cached on the next attempt.
fn submit_sweep(request: &Request, shared: &Arc<Shared>) -> Reply {
    let reject = |state: &mut State, status: u16, err: ErrorResponse| {
        state.rejected_invalid += 1;
        Reply::json(status, json_body(&err))
    };
    let parsed: Result<SweepSpec, String> = std::str::from_utf8(&request.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()));
    let spec = match parsed {
        Ok(spec) => spec,
        Err(detail) => {
            let mut state = shared.state.lock().expect("state lock");
            return reject(
                &mut state,
                400,
                ErrorResponse::new("malformed", format!("body is not a sweep spec: {detail}")),
            );
        }
    };
    if let Err(e) = spec.validate() {
        let mut state = shared.state.lock().expect("state lock");
        return reject(&mut state, 400, ErrorResponse::new("invalid_spec", e.to_string()));
    }
    let n = spec.normalized();
    let id = n.sweep_id();
    let points = n.points();
    // Stream-cache telemetry for the v2 sweep header: how many points'
    // reference streams were already cached at submit time. The probe is
    // a metadata-only existence check, so it runs outside the state lock.
    let (stream_hits, stream_misses) = match &shared.cfg.stream_cache {
        Some(dir) => {
            let (mut hits, mut misses) = (0u64, 0u64);
            for point in &points {
                let cached = point.to_experiment().ok().and_then(|exp| {
                    exp.stream_cache(dir.clone())
                        .stream_cache_bytes(shared.cfg.stream_cache_bytes)
                        .stream_cached()
                });
                if cached == Some(true) {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            (hits, misses)
        }
        None => (0, 0),
    };
    let mut state = shared.state.lock().expect("state lock");
    let cached = state.sweeps.contains_key(&id);
    // Classify every point: already in the result table, restorable from
    // the persisted report cache, or genuinely fresh.
    let mut fresh: Vec<(String, JobSpec)> = Vec::new();
    let mut restored: Vec<(String, JobSpec, String)> = Vec::new();
    let mut table_hits = 0;
    for point in &points {
        let pid = point.job_id();
        if state.jobs.contains_key(&pid) {
            table_hits += 1;
            continue;
        }
        match shared.cfg.report_cache.as_deref().and_then(|dir| load_persisted_report(dir, &pid)) {
            Some(line) => restored.push((pid, point.clone(), line)),
            None => fresh.push((pid, point.clone())),
        }
    }
    if !fresh.is_empty() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Reply::json(
                503,
                json_body(&ErrorResponse::new(
                    "shutting_down",
                    "server is draining; try again later",
                )),
            );
        }
        if state.queue.len() + fresh.len() > shared.cfg.queue_depth {
            state.rejected_backpressure += 1;
            return Reply::json(
                429,
                json_body(&ErrorResponse::new(
                    "queue_full",
                    format!(
                        "sweep needs {} queue slots but {} of {} are free; retry later",
                        fresh.len(),
                        shared.cfg.queue_depth - state.queue.len().min(shared.cfg.queue_depth),
                        shared.cfg.queue_depth
                    ),
                )),
            );
        }
    }
    // Only an accepted sweep answers from the caches; a refused one is
    // retried and would count its hits again.
    state.cache_hits += table_hits + restored.len() as u64;
    state.report_cache_hits += restored.len() as u64;
    let fresh_count = fresh.len() as u64;
    for (pid, point, line) in restored {
        state.jobs.insert(
            pid.clone(),
            Job::new(point, JobStatus::Done { line: Arc::new(line), trace: None }, None),
        );
        state.remember_done(&pid, shared.cfg.result_cache_entries);
    }
    for (pid, point) in fresh {
        state.submitted += 1;
        // Same span structure as a direct submission, so every point's
        // trace and queue-wait telemetry read identically.
        let mut tracer = Box::<Tracer>::default();
        tracer.span_enter("serve.job");
        tracer.span_enter("serve.cache_lookup");
        tracer.span_exit();
        tracer.span_enter("serve.queue_wait");
        state.jobs.insert(pid.clone(), Job::new(point, JobStatus::Queued, Some(tracer)));
        state.queue.push_back(pid);
    }
    if !cached {
        state.sweeps_submitted += 1;
        state.sweeps.insert(
            id.clone(),
            Sweep {
                spec: n,
                point_ids: points.iter().map(JobSpec::job_id).collect(),
                stream_hits,
                stream_misses,
                report: None,
            },
        );
    }
    shared.queue_cv.notify_all();
    let sweep = state.sweeps.get(&id).expect("just inserted");
    let (queued, running, done, failed) = sweep_counts(&state, sweep);
    let all_done = done == sweep.point_ids.len() as u64 && queued + running + failed == 0;
    let (status, label) = if all_done { (200, "done") } else { (202, "queued") };
    Reply::json(
        status,
        json_body(&SweepSubmitResponse {
            id,
            status: label.into(),
            points: points.len() as u64,
            fresh: fresh_count,
            cached,
        }),
    )
}

/// Per-point progress of one sweep. A point missing from the job table
/// counts as done: only finished entries are ever LRU-evicted, so
/// absence after registration means the point finished and was dropped.
/// A failed point evicted this way reads as done; fetching the report
/// then names it as evicted, and resubmitting the sweep reruns it.
fn sweep_counts(state: &State, sweep: &Sweep) -> (u64, u64, u64, u64) {
    let (mut queued, mut running, mut done, mut failed) = (0, 0, 0, 0);
    for pid in &sweep.point_ids {
        match state.jobs.get(pid).map(|job| &job.status) {
            Some(JobStatus::Queued) => queued += 1,
            Some(JobStatus::Running) => running += 1,
            Some(JobStatus::Done { .. }) | None => done += 1,
            Some(JobStatus::Failed { .. }) => failed += 1,
        }
    }
    (queued, running, done, failed)
}

fn sweep_status(id: &str, shared: &Arc<Shared>) -> Reply {
    let state = shared.state.lock().expect("state lock");
    match state.sweeps.get(id) {
        None => {
            Reply::json(404, json_body(&ErrorResponse::new("not_found", format!("no sweep {id}"))))
        }
        Some(sweep) => {
            let (queued, running, done, failed) = sweep_counts(&state, sweep);
            let total = sweep.point_ids.len() as u64;
            let status = if failed > 0 {
                "failed"
            } else if done == total {
                "done"
            } else {
                "running"
            };
            Reply::json(
                200,
                json_body(&SweepStatusResponse {
                    id: id.to_string(),
                    status: status.into(),
                    total,
                    queued,
                    running,
                    done,
                    failed,
                }),
            )
        }
    }
}

/// `GET /sweeps/{id}/report`: the assembled `alloc-locality.sweep-report`
/// v2 JSONL. 409 until every point is done; the per-point report lines
/// are then parsed back, scored, and assembled exactly as the offline
/// executor does it — the resulting bytes match an `explore` run of the
/// same spec under the same stream-cache configuration. Assembly happens
/// outside the state lock and the result is memoized on the sweep.
fn sweep_report(id: &str, shared: &Arc<Shared>) -> Reply {
    let (spec, lines, exec) = {
        let state = shared.state.lock().expect("state lock");
        let Some(sweep) = state.sweeps.get(id) else {
            return Reply::json(
                404,
                json_body(&ErrorResponse::new("not_found", format!("no sweep {id}"))),
            );
        };
        if let Some(report) = &sweep.report {
            return Reply {
                status: 200,
                content_type: "application/x-ndjson",
                body: report.as_ref().clone(),
            };
        }
        let mut lines: Vec<Arc<String>> = Vec::with_capacity(sweep.point_ids.len());
        for pid in &sweep.point_ids {
            match state.jobs.get(pid).map(|job| &job.status) {
                Some(JobStatus::Done { line, .. }) => lines.push(Arc::clone(line)),
                Some(JobStatus::Failed { error }) => {
                    return Reply::json(
                        409,
                        json_body(&ErrorResponse::new(
                            "failed",
                            format!("sweep point {pid} failed: {error}"),
                        )),
                    )
                }
                Some(status) => {
                    return Reply::json(
                        409,
                        json_body(&ErrorResponse::new(
                            "not_done",
                            format!("sweep point {pid} is {}", status.label()),
                        )),
                    )
                }
                // Evicted after finishing; the persisted line (when
                // configured) still has the bytes.
                None => match shared
                    .cfg
                    .report_cache
                    .as_deref()
                    .and_then(|dir| load_persisted_report(dir, pid))
                {
                    Some(line) => lines.push(Arc::new(line)),
                    None => {
                        return Reply::json(
                            404,
                            json_body(&ErrorResponse::new(
                                "not_found",
                                format!(
                                    "sweep point {pid} was evicted from the result cache and \
                                     no persisted copy exists; resubmit the sweep"
                                ),
                            )),
                        )
                    }
                },
            }
        }
        let exec = SweepExec {
            stream_hits: sweep.stream_hits,
            stream_misses: sweep.stream_misses,
            adaptive: None,
        };
        (sweep.spec.clone(), lines, exec)
    };
    let mut reports = Vec::with_capacity(lines.len());
    for line in &lines {
        match RunReport::parse(line) {
            Ok(report) => reports.push(report),
            Err(e) => {
                return Reply::json(
                    500,
                    json_body(&ErrorResponse::new(
                        "internal",
                        format!("stored sweep point no longer parses: {e}"),
                    )),
                )
            }
        }
    }
    let text = match SweepReport::assemble_with(&spec, reports, &exec) {
        Ok(report) => report.to_jsonl(),
        Err(e) => {
            return Reply::json(
                500,
                json_body(&ErrorResponse::new("internal", format!("assembling sweep: {e}"))),
            )
        }
    };
    let mut state = shared.state.lock().expect("state lock");
    let body = match state.sweeps.get_mut(id) {
        Some(sweep) => {
            // First assembly wins; a racing fetch reuses its bytes.
            let stored = sweep.report.get_or_insert_with(|| Arc::new(text));
            Arc::clone(stored)
        }
        None => Arc::new(text),
    };
    Reply { status: 200, content_type: "application/x-ndjson", body: body.as_ref().clone() }
}

fn job_status(id: &str, shared: &Arc<Shared>) -> Reply {
    let state = shared.state.lock().expect("state lock");
    match state.jobs.get(id) {
        None => {
            Reply::json(404, json_body(&ErrorResponse::new("not_found", format!("no job {id}"))))
        }
        Some(job) => {
            let error = match &job.status {
                JobStatus::Failed { error } => Some(error.clone()),
                _ => None,
            };
            Reply::json(
                200,
                json_body(&StatusResponse {
                    id: id.to_string(),
                    status: job.status.label().to_string(),
                    error,
                    queue_wait_ns: job.queue_wait_ns,
                    execute_ns: job.execute_ns,
                }),
            )
        }
    }
}

fn job_report(id: &str, shared: &Arc<Shared>) -> Reply {
    let state = shared.state.lock().expect("state lock");
    match state.jobs.get(id) {
        None => {
            Reply::json(404, json_body(&ErrorResponse::new("not_found", format!("no job {id}"))))
        }
        Some(job) => match &job.status {
            JobStatus::Done { line, .. } => Reply::json(200, line.as_ref().clone()),
            JobStatus::Failed { error } => {
                Reply::json(409, json_body(&ErrorResponse::new("failed", error.clone())))
            }
            _ => Reply::json(
                409,
                json_body(&ErrorResponse::new(
                    "not_done",
                    format!("job {id} is {}", job.status.label()),
                )),
            ),
        },
    }
}

/// `GET /jobs/{id}/trace`: the job's finished span tree as one
/// `alloc-locality.trace` v1 JSON line. A duplicate submission shares
/// the original job's entry, so its trace is the original's, verbatim.
fn job_trace(id: &str, shared: &Arc<Shared>) -> Reply {
    let state = shared.state.lock().expect("state lock");
    match state.jobs.get(id) {
        None => {
            Reply::json(404, json_body(&ErrorResponse::new("not_found", format!("no job {id}"))))
        }
        Some(job) => match &job.status {
            JobStatus::Done { trace: Some(trace), .. } => Reply::json(200, trace.as_ref().clone()),
            JobStatus::Done { trace: None, .. } => Reply::json(
                404,
                json_body(&ErrorResponse::new(
                    "not_found",
                    format!(
                        "job {id} was answered from the persisted report cache; \
                         traces are not retained across restarts"
                    ),
                )),
            ),
            JobStatus::Failed { error } => {
                Reply::json(409, json_body(&ErrorResponse::new("failed", error.clone())))
            }
            _ => Reply::json(
                409,
                json_body(&ErrorResponse::new(
                    "not_done",
                    format!("job {id} is {}", job.status.label()),
                )),
            ),
        },
    }
}

fn healthz(shared: &Arc<Shared>) -> Reply {
    let state = shared.state.lock().expect("state lock");
    Reply::json(
        200,
        json_body(&HealthResponse {
            status: "ok".into(),
            workers: shared.cfg.workers as u64,
            queued: state.queue.len() as u64,
            running: state.running,
            done: state.completed,
            failed: state.failed,
            draining: shared.shutdown.load(Ordering::SeqCst),
        }),
    )
}

fn metrics(shared: &Arc<Shared>) -> Reply {
    let state = shared.state.lock().expect("state lock");
    Reply::json(
        200,
        json_body(&MetricsResponse {
            jobs_submitted: state.submitted,
            sweeps_submitted: state.sweeps_submitted,
            jobs_completed: state.completed,
            jobs_failed: state.failed,
            cache_hits: state.cache_hits,
            report_cache_hits: state.report_cache_hits,
            rejected_backpressure: state.rejected_backpressure,
            rejected_invalid: state.rejected_invalid,
            worker_panics: state.worker_panics,
            endpoints: state
                .endpoint_latency
                .iter()
                .map(|(label, hist)| (label.to_string(), hist.snapshot()))
                .collect(),
            simulation: state.sim_metrics.clone(),
        }),
    )
}

/// `GET /metrics?format=prometheus`: the same counters, gauges, and
/// histograms as the JSON body, rendered as Prometheus text exposition
/// (server metrics under `serve_`, merged simulation metrics under
/// `sim_`).
fn metrics_prometheus(shared: &Arc<Shared>) -> Reply {
    let state = shared.state.lock().expect("state lock");
    let mut out = String::new();
    obs::prom::push_counter(&mut out, "serve_jobs_submitted_total", state.submitted);
    obs::prom::push_counter(&mut out, "serve_sweeps_submitted_total", state.sweeps_submitted);
    obs::prom::push_counter(&mut out, "serve_jobs_completed_total", state.completed);
    obs::prom::push_counter(&mut out, "serve_jobs_failed_total", state.failed);
    obs::prom::push_counter(&mut out, "serve_cache_hits_total", state.cache_hits);
    obs::prom::push_counter(&mut out, "serve_report_cache_hits_total", state.report_cache_hits);
    obs::prom::push_counter(
        &mut out,
        "serve_rejected_backpressure_total",
        state.rejected_backpressure,
    );
    obs::prom::push_counter(&mut out, "serve_rejected_invalid_total", state.rejected_invalid);
    obs::prom::push_counter(&mut out, "serve_worker_panics_total", state.worker_panics);
    obs::prom::push_gauge(&mut out, "serve_queue_depth", state.queue.len() as u64);
    obs::prom::push_gauge(&mut out, "serve_jobs_running", state.running);
    obs::prom::push_gauge(&mut out, "serve_workers", shared.cfg.workers as u64);
    let labelled: Vec<([(&str, &str); 1], HistSnapshot)> = state
        .endpoint_latency
        .iter()
        .map(|(label, hist)| ([("endpoint", *label)], hist.snapshot()))
        .collect();
    let series: Vec<(&[(&str, &str)], HistSnapshot)> =
        labelled.iter().map(|(labels, snap)| (&labels[..], snap.clone())).collect();
    if !series.is_empty() {
        obs::prom::push_histogram(&mut out, "serve_request_duration_us", &series);
    }
    obs::prom::push_snapshot(&mut out, "sim", &state.sim_metrics);
    Reply { status: 200, content_type: "text/plain; version=0.0.4", body: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use client::Client;

    const WAIT: Duration = Duration::from_secs(60);

    /// A debug-build run of well under a second: one 16K cache, no pager.
    fn quick(program: &str, scale: f64) -> JobSpec {
        JobSpec { cache_kb: vec![16], paging: Some(false), ..JobSpec::cell(program, "BSD", scale) }
    }

    /// Panics on every `ptc` job and runs the rest.
    fn panics_on_ptc(
        cfg: &ServerConfig,
        spec: JobSpec,
        tracer: &mut Tracer,
    ) -> Result<RunReport, String> {
        assert!(spec.program != "ptc", "injected failure");
        run_job(cfg, spec, tracer)
    }

    #[test]
    fn a_panicking_job_fails_and_its_worker_runs_the_next() {
        let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
        let server = Server::start_with(cfg, panics_on_ptc).expect("bind server");
        let client = Client::new(server.addr());

        let bad = client.submit(&quick("ptc", 0.002)).expect("submit");
        let err = client.wait_done(&bad.id, WAIT).expect_err("the job panicked");
        assert!(err.to_string().contains("job panicked: injected failure"), "{err}");
        let good = client.submit(&quick("espresso", 0.002)).expect("submit");
        client.wait_done(&good.id, WAIT).expect("the one worker survived the panic");

        let health = client.healthz().expect("healthz");
        assert_eq!((health.running, health.done, health.failed), (0, 1, 1));
        let metrics = client.metrics().expect("metrics");
        assert_eq!((metrics.worker_panics, metrics.jobs_failed), (1, 1));
        let text = client.metrics_prometheus().expect("prometheus");
        assert!(text.contains("serve_worker_panics_total 1"), "{text}");
        drop(server);
    }

    #[test]
    fn a_failed_handler_spawn_drops_one_connection_and_keeps_accepting() {
        let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
        let server = Server::start(cfg).expect("bind server");
        let client = Client::new(server.addr()).timeout(Duration::from_secs(10));
        server.shared.fail_next_spawn.store(true, Ordering::SeqCst);
        client.healthz().expect_err("the connection without a handler is dropped");
        assert!(!server.shared.fail_next_spawn.load(Ordering::SeqCst), "the spawn was attempted");
        client.healthz().expect("the next connection is served");
        client.shutdown().expect("POST /shutdown is answered");
        let summary = server.wait();
        assert_eq!((summary.completed, summary.failed), (0, 0));
    }

    #[test]
    fn failed_jobs_are_bounded_by_the_result_cache() {
        fn always_panics(
            _: &ServerConfig,
            _: JobSpec,
            _: &mut Tracer,
        ) -> Result<RunReport, String> {
            panic!("injected failure")
        }
        let cfg = ServerConfig { workers: 1, result_cache_entries: 2, ..ServerConfig::default() };
        let server = Server::start_with(cfg, always_panics).expect("bind server");
        let client = Client::new(server.addr());
        for i in 0..5 {
            let job = client.submit(&quick("espresso", 0.002 + i as f64 * 1e-4)).expect("submit");
            client.wait_done(&job.id, WAIT).expect_err("every job fails");
        }
        assert_eq!(client.metrics().expect("metrics").worker_panics, 5);
        let kept = server.shared.state.lock().expect("state lock").jobs.len();
        assert!(kept <= 2, "{kept} failed jobs kept past a cap of 2");
        drop(server);
    }
}
