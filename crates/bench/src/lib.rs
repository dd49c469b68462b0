//! Support library for the `repro`, `perf` and `trace-tool` binaries.
//!
//! The heavy lifting lives in [`alloc_locality`]; this crate adds the
//! matrix-caching layer `repro` uses so that one simulation sweep can
//! serve several tables and figures, and the `--scale` parser every
//! binary shares.

use alloc_locality::job_spec::check_scale;
use alloc_locality::{
    default_threads, run_many, AllocChoice, EngineError, Experiment, Matrix, SimOptions,
};
use cache_sim::CacheConfig;
use workloads::{Program, Scale};

/// Parses a `--scale` value, rejecting what [`JobSpec::validate`]
/// rejects: a scale that is not finite or lies outside (0,
/// [`MAX_SCALE`]].
///
/// [`JobSpec::validate`]: alloc_locality::JobSpec::validate
/// [`MAX_SCALE`]: alloc_locality::job_spec::MAX_SCALE
///
/// # Errors
///
/// A one-line message naming the value.
pub fn parse_scale(v: &str) -> Result<f64, String> {
    let scale = v.parse().map_err(|e| format!("bad scale {v}: {e}"))?;
    check_scale(scale).map_err(|e| e.to_string())?;
    Ok(scale)
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
