//! Support library for the `repro` binary and the Criterion benches.
//!
//! The heavy lifting lives in [`alloc_locality`]; this crate adds the
//! matrix-caching layer the harness uses so that one simulation sweep
//! can serve several tables and figures.

use std::time::Instant;

use alloc_locality::{
    default_threads, run_many, AllocChoice, EngineError, Experiment, Matrix, SimOptions,
};
use cache_sim::CacheConfig;
use serde::Serialize;
use workloads::{Program, Scale};

/// One timed mode, lane side, or lone sink of a perf harness.
#[derive(Debug, Clone, Serialize)]
pub struct Timing {
    /// What ran: a lane side ("current", "reference"), a recorder
    /// setting, or a sink label.
    pub label: String,
    /// Best wall-clock seconds over the repeats.
    pub secs: f64,
    /// Word-granular data references per second at that timing.
    pub refs_per_sec: f64,
}

/// Builds a [`Timing`] from a best time and the reference count it
/// processed.
pub fn timing(label: &str, secs: f64, refs: u64) -> Timing {
    Timing { label: label.to_string(), secs, refs_per_sec: refs as f64 / secs.max(1e-9) }
}

/// Best-of-`repeat` timing of any fallible body; returns the last value
/// and the fastest time.
///
/// # Errors
///
/// Propagates the first failing iteration.
pub fn time_closure<R>(
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

/// Best-of-`repeat` measurement of a current-vs-reference pair, with
/// the repeats interleaved — current, reference, current, reference —
/// so slow drift in the machine's load lands on both sides of the
/// speedup instead of whichever happened to be measured second.
///
/// Each body performs and times one iteration itself (so it can exclude
/// setup it does not want measured) and returns `(value, secs)`; the
/// last values and the fastest time per side come back.
///
/// # Errors
///
/// Propagates the first failing iteration of either body.
#[allow(clippy::type_complexity)]
pub fn interleaved_best_of<R, Q>(
    repeat: u32,
    mut current: impl FnMut() -> Result<(R, f64), String>,
    mut reference: impl FnMut() -> Result<(Q, f64), String>,
) -> Result<((R, f64), (Q, f64)), String> {
    let (mut cur_secs, mut ref_secs) = (f64::INFINITY, f64::INFINITY);
    let (mut cur_result, mut ref_result) = (None, None);
    for _ in 0..repeat {
        let (r, secs) = current()?;
        cur_secs = cur_secs.min(secs);
        cur_result = Some(r);
        let (r, secs) = reference()?;
        ref_secs = ref_secs.min(secs);
        ref_result = Some(r);
    }
    Ok(((cur_result.expect("repeat >= 1"), cur_secs), (ref_result.expect("repeat >= 1"), ref_secs)))
}

/// One attempt's verdict under [`run_gated`].
#[derive(Debug)]
pub enum GateOutcome {
    /// The gate cleared; the harness exits successfully.
    Pass,
    /// Results diverged. A divergence is a bug, not noise: it fails
    /// immediately and is **never** retried, no matter how many retries
    /// the gate allows.
    Diverged(String),
    /// A wall-clock gate tripped. Short timings are noisy on shared
    /// runners, so this is retryable: `note` is logged before the next
    /// attempt, `fail` is the error once attempts run out.
    Slow {
        /// Logged before re-measuring ("overhead 3.1% over the 2.0% gate").
        note: String,
        /// The final error when no retries remain.
        fail: String,
    },
}

/// Runs `attempt` (passed the 1-based attempt number) up to
/// `gate_retries + 1` times, re-measuring only on [`GateOutcome::Slow`].
///
/// This is the shared gate discipline of every perf mode: a timing gate
/// may be noise and is re-measured; a result divergence is a bug and
/// fails on the spot.
///
/// # Errors
///
/// Returns the attempt's error, the divergence message, or the final
/// `Slow` failure once retries are exhausted.
pub fn run_gated(
    gate_retries: u32,
    mut attempt: impl FnMut(u32) -> Result<GateOutcome, String>,
) -> Result<(), String> {
    for n in 1..=gate_retries + 1 {
        match attempt(n)? {
            GateOutcome::Pass => return Ok(()),
            GateOutcome::Diverged(msg) => return Err(msg),
            GateOutcome::Slow { note, fail } => {
                if n > gate_retries {
                    return Err(fail);
                }
                eprintln!("{note}; re-measuring (attempt {} of {})", n + 1, gate_retries + 1);
            }
        }
    }
    unreachable!("the attempt loop always returns")
}

/// The matrices the paper's evaluation needs, computed lazily so a
/// single `repro` invocation never runs a sweep it does not print.
#[derive(Debug, Default)]
pub struct MatrixCache {
    main: Option<Matrix>,
    gs: Option<Matrix>,
    tags: Option<Matrix>,
    ext: Option<Matrix>,
    scale: f64,
    threads: usize,
    verbose: bool,
    stream_cache: Option<std::path::PathBuf>,
    stream_cache_bytes: Option<u64>,
}

impl MatrixCache {
    /// Creates an empty cache that will run sweeps at `scale` on the
    /// default worker pool (one worker per hardware thread).
    pub fn new(scale: f64) -> Self {
        Self::with_threads(scale, default_threads())
    }

    /// Creates an empty cache with an explicit worker-pool size.
    pub fn with_threads(scale: f64, threads: usize) -> Self {
        MatrixCache { scale, threads: threads.max(1), ..Default::default() }
    }

    /// Prints a progress line to stderr as each sweep cell completes
    /// (`repro --verbose`).
    pub fn verbose(mut self, on: bool) -> Self {
        self.verbose = on;
        self
    }

    /// Points every sweep at a persistent stream cache: cells whose
    /// reference stream was captured by an earlier invocation replay it
    /// instead of regenerating the workload (`repro --stream-cache`).
    pub fn stream_cache(mut self, dir: Option<std::path::PathBuf>) -> Self {
        self.stream_cache = dir;
        self
    }

    /// Bounds the stream-cache directory's size; oldest-written streams
    /// are evicted after each store (`repro --stream-cache-bytes`).
    pub fn stream_cache_bytes(mut self, max_bytes: Option<u64>) -> Self {
        self.stream_cache_bytes = max_bytes;
        self
    }

    fn opts(&self) -> SimOptions {
        SimOptions {
            scale: Scale(self.scale),
            stream_cache: self.stream_cache.clone(),
            stream_cache_bytes: self.stream_cache_bytes,
            ..SimOptions::default()
        }
    }

    /// Runs `jobs` on this cache's worker pool, narrating completions
    /// when verbose.
    fn run_jobs(&self, jobs: Vec<Experiment>) -> Result<Matrix, EngineError> {
        let total = jobs.len();
        let start = std::time::Instant::now();
        let runs = run_many(jobs, self.threads, Experiment::run, |done, r| {
            if self.verbose {
                eprintln!(
                    "[{done}/{total}] {}/{} done ({:.1}s elapsed)",
                    r.program,
                    r.allocator,
                    start.elapsed().as_secs_f64()
                );
            }
        })?;
        Ok(Matrix { runs })
    }

    /// The programs × choices cross product as a job list.
    fn jobs(programs: &[Program], choices: &[AllocChoice], opts: &SimOptions) -> Vec<Experiment> {
        programs
            .iter()
            .flat_map(|&p| {
                choices.iter().map(move |c| Experiment::new(p, c.clone()).options(opts.clone()))
            })
            .collect()
    }

    /// The 5 programs × 5 allocators sweep with the full cache bank and
    /// paging (serves Figures 1–5 and Tables 2, 4, 5).
    ///
    /// # Errors
    ///
    /// Propagates the first failing run.
    pub fn main(&mut self) -> Result<&Matrix, EngineError> {
        if self.main.is_none() {
            self.main = Some(self.run_jobs(Self::jobs(
                &Program::FIVE,
                &AllocChoice::paper_five(),
                &self.opts(),
            ))?);
        }
        Ok(self.main.as_ref().expect("just set"))
    }

    /// The GhostScript input-set sweep (GS-Small, GS-Medium; GS-Large is
    /// in the main matrix) for Figures 6–8 and Table 3.
    ///
    /// # Errors
    ///
    /// Propagates the first failing run.
    pub fn gs(&mut self) -> Result<&Matrix, EngineError> {
        if self.gs.is_none() {
            let opts = SimOptions { paging: false, ..self.opts() };
            self.gs = Some(self.run_jobs(Self::jobs(
                &[Program::GsSmall, Program::GsMedium],
                &AllocChoice::paper_five(),
                &opts,
            ))?);
        }
        Ok(self.gs.as_ref().expect("just set"))
    }

    /// GNU LOCAL with emulated boundary tags across the five programs
    /// (Table 6), 64K cache only.
    ///
    /// # Errors
    ///
    /// Propagates the first failing run.
    pub fn tags(&mut self) -> Result<&Matrix, EngineError> {
        if self.tags.is_none() {
            let opts = SimOptions {
                cache_configs: vec![CacheConfig::direct_mapped(64 * 1024, 32)],
                paging: false,
                ..self.opts()
            };
            self.tags = Some(self.run_jobs(Self::jobs(
                &Program::FIVE,
                &[AllocChoice::GnuLocalTagged],
                &opts,
            ))?);
        }
        Ok(self.tags.as_ref().expect("just set"))
    }

    /// A merged view of the main and tags matrices (what `table6` needs).
    ///
    /// # Errors
    ///
    /// Propagates the first failing run.
    pub fn main_with_tags(&mut self) -> Result<Matrix, EngineError> {
        let mut merged = Matrix { runs: self.main()?.runs.clone() };
        merged.extend(Matrix { runs: self.tags()?.runs.clone() });
        Ok(merged)
    }

    /// The extension sweep: espresso and GS under the paper's five plus
    /// BestFit, Custom and Predictive, with the three-C analyzer, an
    /// 8-entry victim cache, and the two-level hierarchy attached
    /// (serves the `ext-*` targets).
    ///
    /// # Errors
    ///
    /// Propagates the first failing run.
    pub fn ext(&mut self) -> Result<&Matrix, EngineError> {
        if self.ext.is_none() {
            let opts = SimOptions {
                cache_configs: vec![CacheConfig::direct_mapped(16 * 1024, 32)],
                paging: false,
                victim_entries: Some(8),
                three_c: true,
                two_level: true,
                ..self.opts()
            };
            let mut choices = AllocChoice::paper_five();
            choices.push(AllocChoice::BestFit);
            choices.push(AllocChoice::Buddy);
            choices.push(AllocChoice::Custom);
            choices.push(AllocChoice::Predictive);
            let jobs = Self::jobs(&[Program::Espresso, Program::GsLarge], &choices, &opts);
            self.ext = Some(self.run_jobs(jobs)?);
        }
        Ok(self.ext.as_ref().expect("just set"))
    }

    /// A combined GhostScript matrix (all three input sets) for the
    /// miss-rate curves.
    ///
    /// # Errors
    ///
    /// Propagates the first failing run.
    pub fn gs_all(&mut self) -> Result<Matrix, EngineError> {
        let mut merged = Matrix { runs: self.gs()?.runs.clone() };
        merged.extend(Matrix { runs: self.main()?.runs.clone() });
        Ok(merged)
    }
}
