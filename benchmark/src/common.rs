//! Plumbing shared by the three workloads: arguments, the result line,
//! seeded inputs, output digests, summary statistics, and the span
//! ledger the traced mode records.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::PathBuf;

use obs::{Recorder as _, TraceReport, Tracer};
use serde_json::Value;

/// The seed whose output digests are pinned in `goldens.json`.
pub const DEFAULT_SEED: u64 = 0;

/// Longest timed phase accepted: a run, set-up included, must end
/// within three minutes.
pub const MAX_SECONDS: f64 = 150.0;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// `matrix-cold`, `stream-replay` or `serve-mixed`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced mode: report the per-layer ledger instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Scratch directory for caches; absent or empty at the start.
    pub work_dir: PathBuf,
    /// Where the traced mode writes its `alloc-locality.trace` lines.
    pub trace_out: Option<PathBuf>,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1
    /// --work-dir DIR [--trace-out FILE]`.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = None;
        let mut trace = false;
        let mut work_dir = None;
        let mut trace_out = None;
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                    if !(s > 0.0 && s <= MAX_SECONDS) {
                        return Err(format!("--seconds {s} outside (0, {MAX_SECONDS}]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
                "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            work_dir: work_dir.ok_or("--work-dir is required")?,
            trace_out,
        })
    }
}

/// What one run of a workload produced: the operation tally, every
/// output problem found, and the metrics to print.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase (runs, requests).
    pub attempted: u64,
    /// Operations that failed, were refused, timed out, or returned a
    /// mismatching output.
    pub failed: u64,
    /// One line per failed operation or failed output check.
    pub problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Counts one failed operation.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.failed += 1;
        self.problems.push(problem.into());
    }

    /// Adds a metric; names must be unique per run.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(self.metrics.iter().all(|(n, _, _)| *n != name), "duplicate metric {name}");
        self.metrics.push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    /// Whether every operation succeeded and every output matched.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite float as a JSON number with every digit kept.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// SplitMix64: a small seeded generator, so the inputs depend only on
/// `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Order-sensitive FNV-1a digest over a workload's outputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Digest(sim_mem::Fnv64);

impl Digest {
    /// Folds one output record, delimited so that record boundaries
    /// count.
    pub fn add(&mut self, record: &[u8]) {
        self.0.write_u64(record.len() as u64);
        self.0.write(record);
    }

    /// The digest of one record alone.
    pub fn of(record: &[u8]) -> u64 {
        let mut digest = Digest::default();
        digest.add(record);
        digest.0.finish()
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0.finish())
    }
}

/// Compares `digest` with the committed golden for `workload` at
/// `seed`. The default seed must have a golden; other seeds are checked
/// when one is committed.
pub fn check_golden(out: &mut Outcome, workload: &str, seed: u64, digest: &Digest) {
    let hex = digest.hex();
    eprintln!("ledger: {workload} seed {seed} output digest {hex}");
    match golden(workload, seed) {
        Some(expected) if expected == hex => {}
        Some(expected) => {
            out.fail(format!("{workload} seed {seed}: output digest {hex} != golden {expected}"))
        }
        None if seed == DEFAULT_SEED => {
            out.fail(format!("{workload}: no golden digest for the default seed {seed}"))
        }
        None => {}
    }
}

/// The golden digest committed for `workload` at `seed`, if any.
fn golden(workload: &str, seed: u64) -> Option<String> {
    let parsed: Value = serde_json::from_str(include_str!("../goldens.json")).ok()?;
    let field = |v: &Value, key: &str| match v {
        Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()),
        _ => None,
    };
    match field(&field(&parsed, workload)?, &seed.to_string())? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Words in the host probe's table: 1 MB, within the L2 cache of the
/// host this was built on, so the probe times the core, not the page
/// allocator or a cold cache.
const PROBE_WORDS: usize = 1 << 17;
/// Steps of one probe: about 25 ms on the host this was built on.
const PROBE_STEPS: u64 = 1 << 20;
/// Probe time the end-to-end timings are scaled to: they read as if the
/// host had run the probe in this long.
pub const PROBE_NOMINAL_S: f64 = 0.025;

/// Seconds one run of a fixed probe takes: random read-modify-writes
/// over a table and ordered-map churn, the kinds of work the simulators
/// do, in code of the benchmark's own that no change to the program
/// touches.
fn probe_s() -> f64 {
    // Filled before the clock starts, so its pages are mapped and cached.
    let mut table = vec![1u64; PROBE_WORDS];
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let start = std::time::Instant::now();
    for i in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = x as usize & (PROBE_WORDS - 1);
        table[slot] = table[slot].wrapping_add(i);
        if i & 7 == 0 {
            let key = x >> 52;
            if map.remove(&key).is_none() {
                map.insert(key, i);
            }
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    std::hint::black_box((&table, &map));
    seconds
}

/// How fast the host ran over part of a run, from the probe timed
/// between its passes. The host this was built on, a 2-vCPU KVM guest,
/// runs everything up to 60% faster or slower for seconds to tens of
/// minutes at a time; the probe slows with it, so scaling a timing by
/// the probe's mean time keeps what the program did and drops what the
/// host did.
#[derive(Debug, Default)]
pub struct HostSpeed {
    probes: Vec<f64>,
}

impl HostSpeed {
    /// Times one probe.
    pub fn probe(&mut self) {
        self.probes.push(probe_s());
    }

    /// Mean probe time over [`PROBE_NOMINAL_S`]: above 1 when the host
    /// ran slower than nominal.
    pub fn slowdown(&self) -> f64 {
        let n = self.probes.len().max(1) as f64;
        self.probes.iter().sum::<f64>() / n / PROBE_NOMINAL_S
    }
}

/// What a workload measured in host time: set-up repetitions and the
/// timed phase, each with the host speed probed alongside.
#[derive(Debug, Default)]
pub struct Timings {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Probes taken around the set-up repetitions.
    pub setup_host: HostSpeed,
    /// Σ data references of the timed phase.
    pub refs: u64,
    /// Jobs completed in the timed phase.
    pub jobs: u64,
    /// Wall seconds of the timed phase, probes excluded.
    pub wall_s: f64,
    /// Latency of every timed job.
    pub latencies_ms: Vec<f64>,
    /// Probes taken between the passes or blocks of the timed phase.
    pub host: HostSpeed,
}

impl Timings {
    /// Emits the end-to-end timings, each scaled to the nominal host
    /// speed, and prints the unscaled ones on standard error.
    pub fn emit(&self, out: &mut Outcome) {
        let (setup_k, k) = (self.setup_host.slowdown(), self.host.slowdown());
        let setup_s = median(&self.setup_s);
        let mrefs_per_s = self.refs as f64 / self.wall_s / 1e6;
        let jobs_per_s = self.jobs as f64 / self.wall_s;
        let (p50, p90) = (percentile(&self.latencies_ms, 0.5), percentile(&self.latencies_ms, 0.9));
        eprintln!(
            "ledger: host slowdown {setup_k:.4} in set-up, {k:.4} in the timed phase; unscaled \
             setup_s {setup_s:.4} mrefs_per_s {mrefs_per_s:.4} jobs_per_s {jobs_per_s:.4} \
             job_p50_ms {p50:.4} job_p90_ms {p90:.4}"
        );
        out.metric("setup_s", setup_s / setup_k, "s");
        out.metric("mrefs_per_s", mrefs_per_s * k, "Mref/s");
        out.metric("jobs_per_s", jobs_per_s * k, "1/s");
        out.metric("job_p50_ms", p50 / k, "ms");
        out.metric("job_p90_ms", p90 / k, "ms");
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `p` in `[0, 1]` of `values` (0 for
/// none).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// One job's span tree under construction: a `bench.job` root with the
/// benchmark's spans around each public call nested inside.
pub struct JobTrace {
    tracer: Tracer,
}

impl JobTrace {
    /// Opens the job's root span.
    pub fn start() -> JobTrace {
        let mut tracer = Tracer::new();
        tracer.span_enter("bench.job");
        JobTrace { tracer }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.span_enter(name);
        let value = f();
        self.tracer.span_exit();
        value
    }

    /// Runs `f` inside a span named `name`, handing it the job's tracer
    /// so that spans the engine opens nest inside.
    pub fn span_with<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.tracer.span_enter(name);
        let value = f(&mut self.tracer);
        self.tracer.span_exit();
        value
    }

    /// Opens a span that the caller closes with [`JobTrace::exit`].
    pub fn enter(&mut self, name: &'static str) {
        self.tracer.span_enter(name);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        self.tracer.span_exit();
    }

    /// Attaches a counter to the innermost open span.
    pub fn count(&mut self, name: &'static str, delta: u64) {
        self.tracer.add(name, delta);
    }
}

/// Self time, total time and count of every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Span durations minus the part their children cover, summed.
    pub self_ns: u64,
    /// Span durations, summed.
    pub total_ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// Every finished span tree of a traced run, kept in memory and written
/// out at exit.
#[derive(Default)]
pub struct Ledger {
    reports: Vec<TraceReport>,
}

impl Ledger {
    /// Freezes a job's tree under the shared job id `id`.
    pub fn finish(&mut self, job: JobTrace, id: impl Into<String>) -> &TraceReport {
        let (_, report) = job.tracer.finish(id);
        self.reports.push(report);
        self.reports.last().expect("just pushed")
    }

    /// Adds a span tree recorded elsewhere (a served job's trace).
    pub fn adopt(&mut self, report: TraceReport) {
        self.reports.push(report);
    }

    /// Sum of counter `name` over every span of every tree.
    pub fn counter(&self, name: &str) -> u64 {
        self.reports.iter().flat_map(|r| &r.spans).filter_map(|s| s.counters.get(name)).sum()
    }

    /// Per-name self time and span count over every tree.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for report in &self.reports {
            let mut covered: HashMap<u32, u64> = HashMap::new();
            for span in &report.spans {
                if let Some(parent) = span.parent {
                    *covered.entry(parent).or_default() += span.duration_ns();
                }
            }
            for span in &report.spans {
                let t = out.entry(span.name.clone()).or_default();
                let covered = covered.get(&span.id).copied().unwrap_or(0);
                t.self_ns += span.duration_ns().saturating_sub(covered);
                t.total_ns += span.duration_ns();
                t.count += 1;
            }
        }
        out
    }

    /// Validates every tree and writes them as JSONL to `path`.
    pub fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let mut text = String::new();
        for report in &self.reports {
            report.validate().map_err(|e| format!("trace {}: {e}", report.trace_id))?;
            text.push_str(&report.to_json_line());
            text.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut file =
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        file.write_all(text.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Self seconds of spans named `name`, divided by `per`.
pub fn self_s(totals: &BTreeMap<String, SpanTotals>, name: &str, per: f64) -> f64 {
    totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9) / per
}

/// Total seconds of spans named `name`, children included, divided by
/// `per`.
pub fn total_s(totals: &BTreeMap<String, SpanTotals>, name: &str, per: f64) -> f64 {
    totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9) / per
}

/// Every per-layer metric, in report order, with its unit. Workloads
/// report 0 for a layer they do not exercise.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("workloads.events_s", "s"),
    ("workloads.mevents_per_s", "Mevent/s"),
    ("allocators.first_fit_s", "s"),
    ("allocators.gnu_gxx_s", "s"),
    ("allocators.bsd_s", "s"),
    ("allocators.quick_fit_s", "s"),
    ("allocators.gnu_local_s", "s"),
    ("allocators.mops_per_s", "Mop/s"),
    ("sim-mem.runs_per_ref", "run/ref"),
    ("sim-mem.encode_s", "s"),
    ("sim-mem.store_s", "s"),
    ("sim-mem.bytes_per_run", "B/run"),
    ("sim-mem.read_s", "s"),
    ("sim-mem.decode_s", "s"),
    ("sim-mem.decode_mruns_per_s", "Mrun/s"),
    ("cache-sim.sweep_s", "s"),
    ("cache-sim.cache_s", "s"),
    ("cache-sim.mrefs_per_s", "Mref/s"),
    ("cache-sim.fastpath_frac", "ratio"),
    ("vm-sim.pager_s", "s"),
    ("vm-sim.mrefs_per_s", "Mref/s"),
    ("vm-sim.fastpath_frac", "ratio"),
    ("core.run_s", "s"),
    ("core.glue_s", "s"),
    ("core.tier.cold", "count"),
    ("core.tier.stored_result", "count"),
    ("core.tier.replay", "count"),
    ("core.tier.regenerate", "count"),
    ("explore.points_s", "s"),
    ("explore.assemble_s", "s"),
    ("explore.sweep_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.cached_ms", "ms"),
    ("serve.tier.memory", "count"),
    ("serve.tier.disk", "count"),
    ("serve.rejected", "count"),
    ("serve.failed", "count"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// Emits every per-layer metric, taking values from `values` and 0 for
/// the layers this workload does not exercise.
pub fn emit_layers(out: &mut Outcome, values: &BTreeMap<&'static str, f64>) {
    for key in values.keys() {
        debug_assert!(LAYER_METRICS.iter().any(|(n, _)| n == key), "unlisted layer metric {key}");
    }
    for &(name, unit) in LAYER_METRICS {
        out.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
}

/// Writes the ledger's trees to `--trace-out`, failing the run if a tree
/// does not validate.
pub fn write_ledger(out: &mut Outcome, ledger: &Ledger, args: &Args) {
    if let Some(path) = &args.trace_out {
        if let Err(e) = ledger.write(path) {
            out.fail(format!("trace output: {e}"));
        }
    }
}
