//! The sweep executor: capture each workload once, replay what the
//! stream cache already holds, simulate only what it does not.
//!
//! Points of a sweep share workload cells, so the expensive part of a
//! naive point-by-point run — regenerating the application's allocation
//! event sequence — is pure waste. [`run_sweep_with`] generates one
//! event stream per (program, scale) axis cell, wraps each in an
//! [`Arc`], and drives every point of that cell off the shared trace
//! through the engine's worker pool; each point pays only its own
//! allocator simulation and sinks.
//!
//! With a stream cache configured ([`ExecOptions::stream_cache`]) the
//! executor goes further: every point is probed against the cache
//! first, and a point whose allocator-specific stream is already stored
//! skips generation *and* allocator simulation — the engine replays the
//! recorded reference stream straight into the sinks and reports the
//! sidecar's frozen metrics. Points that miss populate the cache from
//! the shared trace ([`alloc_locality::Experiment::shared_events`]
//! leaves a point's stream key its spec's), so re-running a sweep — or
//! any overlapping one — is near-free and cells whose every point is
//! cached never synthesize a trace at all.
//!
//! Replayed streams are bit-identical to generated ones (the generator
//! is deterministic and the engine's drive loop is source-agnostic), so
//! each point's [`RunReport`](alloc_locality::RunReport) is
//! byte-identical to a direct run of the same [`JobSpec`] — the
//! invariant the bit-identity tests and the `explore --bench` gate
//! enforce against [`run_sweep_naive`] — and a warm sweep's point rows
//! are byte-identical to the cold sweep's that populated the cache (the
//! warm-lane `cmp` gate in CI).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use alloc_locality::job_spec::program_by_label;
use alloc_locality::{
    default_threads, run_many, EngineError, Experiment, JobSpec, RunResult, SpecError,
};
use workloads::{AppEvent, Scale};

use crate::report::{SweepExec, SweepReport};
use crate::sweep::SweepSpec;

/// Why a sweep failed.
#[derive(Debug)]
pub enum ExploreError {
    /// The sweep (or one of its points) was rejected.
    Spec(SpecError),
    /// A point's simulation failed.
    Engine(EngineError),
    /// The finished results could not be assembled into a report.
    Report(String),
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::Spec(e) => write!(f, "invalid sweep: {e}"),
            ExploreError::Engine(e) => write!(f, "sweep point failed: {e}"),
            ExploreError::Report(e) => write!(f, "assembling sweep report: {e}"),
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<SpecError> for ExploreError {
    fn from(e: SpecError) -> Self {
        ExploreError::Spec(e)
    }
}

impl From<EngineError> for ExploreError {
    fn from(e: EngineError) -> Self {
        ExploreError::Engine(e)
    }
}

/// How a sweep executes: worker count and stream-cache adoption.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Worker threads; 0 auto-detects like
    /// [`alloc_locality::default_threads`].
    pub threads: usize,
    /// Persistent stream-cache directory; `None` disables replay and
    /// population (every point simulates from the shared trace).
    pub stream_cache: Option<PathBuf>,
    /// Size bound for the cache directory, when one is set.
    pub stream_cache_bytes: Option<u64>,
}

impl ExecOptions {
    /// Plain shared-trace execution on `threads` workers, no cache.
    pub fn threads(threads: usize) -> ExecOptions {
        ExecOptions { threads, ..ExecOptions::default() }
    }

    /// The worker count this configuration resolves to.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            default_threads()
        } else {
            self.threads
        }
    }
}

/// The per-cell trace pool plus the cache tallies accumulated while
/// building a sweep's experiments.
pub(crate) struct JobSet {
    pub(crate) jobs: Vec<Experiment>,
    pub(crate) stream_hits: u64,
    pub(crate) stream_misses: u64,
}

/// Builds one experiment per point, as a direct run of its spec is
/// built: a cache-replay run for every point whose stream is already
/// stored, a run off its cell's shared trace (populating when a cache is
/// configured) for the rest. Traces are synthesized lazily per
/// (program, scale) cell, so a fully-cached cell generates nothing.
pub(crate) fn build_jobs(points: &[JobSpec], opts: &ExecOptions) -> JobSet {
    let mut pool: HashMap<(String, u64), Arc<Vec<AppEvent>>> = HashMap::new();
    let mut set =
        JobSet { jobs: Vec::with_capacity(points.len()), stream_hits: 0, stream_misses: 0 };
    for point in points {
        let mut exp = point.to_experiment().expect("validated");
        if let Some(dir) = &opts.stream_cache {
            exp = exp.stream_cache(dir).stream_cache_bytes(opts.stream_cache_bytes);
            if exp.stream_cached() == Some(true) {
                // Warm: the engine replays the stored stream; the shared
                // trace is never consulted (nor generated, if every
                // point of its cell is warm).
                set.stream_hits += 1;
                set.jobs.push(exp);
                continue;
            }
            set.stream_misses += 1;
        }
        let events =
            pool.entry((point.program.clone(), point.scale.to_bits())).or_insert_with(|| {
                let program = program_by_label(&point.program).expect("validated");
                Arc::new(program.spec().events(Scale(point.scale)).collect())
            });
        set.jobs.push(exp.shared_events(Arc::clone(events)));
    }
    set
}

/// Runs every point of a sweep — shared traces per workload cell, cache
/// replay when configured and warm — and returns the assembled
/// [`SweepReport`]. `progress` is called after each finished point with
/// the completed count and that point's result.
///
/// # Errors
///
/// Returns [`ExploreError::Spec`] for an invalid sweep and
/// [`ExploreError::Engine`] for the first simulation failure.
pub fn run_sweep_with(
    spec: &SweepSpec,
    opts: &ExecOptions,
    progress: impl Fn(usize, &RunResult) + Sync,
) -> Result<SweepReport, ExploreError> {
    spec.validate()?;
    let n = spec.normalized();
    let set = build_jobs(&n.points(), opts);
    let exec = SweepExec {
        stream_hits: set.stream_hits,
        stream_misses: set.stream_misses,
        adaptive: None,
    };
    let reports = run_many(set.jobs, opts.resolved_threads(), Experiment::report, |done, r| {
        progress(done, &r.result)
    })?;
    SweepReport::assemble_with(&n, reports, &exec).map_err(ExploreError::Report)
}

/// [`run_sweep_with`] without a stream cache — the plain shared-trace
/// executor.
///
/// # Errors
///
/// As [`run_sweep_with`].
pub fn run_sweep(
    spec: &SweepSpec,
    threads: usize,
    progress: impl Fn(usize, &RunResult) + Sync,
) -> Result<SweepReport, ExploreError> {
    run_sweep_with(spec, &ExecOptions::threads(threads), progress)
}

/// The naive executor: every point builds its experiment directly from
/// the job spec, regenerating the event stream from scratch. Produces a
/// report byte-identical to [`run_sweep`]'s; exists as the baseline the
/// `explore --bench` speedup gate measures against.
///
/// # Errors
///
/// Returns [`ExploreError::Spec`] for an invalid sweep and
/// [`ExploreError::Engine`] for the first simulation failure.
pub fn run_sweep_naive(
    spec: &SweepSpec,
    threads: usize,
    progress: impl Fn(usize, &RunResult) + Sync,
) -> Result<SweepReport, ExploreError> {
    spec.validate()?;
    let n = spec.normalized();
    let jobs = n.points().iter().map(|point| point.to_experiment().expect("validated")).collect();
    let threads = if threads == 0 { default_threads() } else { threads };
    let reports = run_many(jobs, threads, Experiment::report, |done, r| progress(done, &r.result))?;
    SweepReport::assemble(&n, reports).map_err(ExploreError::Report)
}
