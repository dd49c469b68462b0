//! `matrix-cold`: the paper's 5 programs × 5 allocators, run cold
//! through plain `Experiment::run` with the paper's 16K–256K
//! direct-mapped sweep and the 4 KB LRU pager — what every `repro`
//! figure does. No stream cache: jobs share no work.

use std::collections::BTreeMap;
use std::time::Instant;

use alloc_locality::{AllocChoice, Experiment, RunResult};
use allocators::AllocatorKind;
use cache_sim::{CacheConfig, SweepCache};
use sim_mem::{AccessSink as _, CountingSink};
use vm_sim::StackSim;
use workloads::{AppEvent, Program, Scale, WorkloadSpec};

use crate::common::{
    check_golden, emit_layers, median, self_s, total_s, write_ledger, Args, Digest, JobTrace,
    Ledger, Outcome, Timings,
};
use crate::drive::{drive, lane, lane_metric, refs_in, Capture};

/// Workload scale of every cell (repro's default is 0.02).
pub const SCALE: f64 = 0.005;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// One (program, allocator) cell with its seeded workload model.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The paper program.
    pub program: Program,
    /// The paper allocator.
    pub kind: AllocatorKind,
    /// The program's model with `--seed` XOR-ed into its seed.
    pub spec: WorkloadSpec,
}

impl Cell {
    /// The cold experiment for this cell at `scale` with default options.
    pub fn experiment(&self, scale: f64) -> Experiment {
        Experiment::with_spec(self.spec.clone(), AllocChoice::Paper(self.kind)).scale(Scale(scale))
    }

    /// `program/allocator`, the cell's job id.
    pub fn id(&self) -> String {
        format!("{}/{}", self.program.label(), self.kind.label())
    }
}

/// The 25 cells in figure order, inputs seeded by `seed`.
pub fn cells(seed: u64) -> Vec<Cell> {
    let mut out = Vec::with_capacity(25);
    for program in Program::FIVE {
        let mut spec = program.spec();
        spec.seed ^= seed;
        for kind in AllocatorKind::ALL {
            out.push(Cell { program, kind, spec: spec.clone() });
        }
    }
    out
}

/// Folds every result of one pass into `digest`.
pub fn digest_results<'a>(results: impl IntoIterator<Item = &'a RunResult>) -> Digest {
    let mut digest = Digest::default();
    for r in results {
        digest.add(serde_json::to_string(r).expect("run result serializes").as_bytes());
    }
    digest
}

/// One untraced pass: every cell once. Returns the pass's wall seconds
/// and Σ data references, and appends per-run latencies in ms.
fn pass(
    jobs: &[(Cell, Experiment)],
    expected: &[RunResult],
    out: &mut Outcome,
    latencies: &mut Vec<f64>,
) -> (f64, u64) {
    let start = Instant::now();
    let mut refs = 0;
    for ((cell, exp), want) in jobs.iter().zip(expected) {
        out.attempted += 1;
        let t = Instant::now();
        let result = exp.run();
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(r) if r == *want => refs += r.data_refs(),
            Ok(_) => out.fail(format!("{}: result differs from the set-up pass", cell.id())),
            Err(e) => out.fail(format!("{}: {e}", cell.id())),
        }
    }
    (start.elapsed().as_secs_f64(), refs)
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut t = Timings::default();
    // Set-up: build the jobs and run one untimed warm pass, whose results
    // every timed pass must reproduce.
    let mut jobs = Vec::new();
    let mut expected: Vec<RunResult> = Vec::new();
    for _ in 0..SETUP_REPEATS {
        t.setup_host.probe();
        let start = Instant::now();
        jobs = cells(args.seed)
            .into_iter()
            .map(|cell| {
                let exp = cell.experiment(SCALE);
                (cell, exp)
            })
            .collect();
        let mut warm = Vec::with_capacity(jobs.len());
        for (cell, exp) in &jobs {
            warm.push(exp.run().map_err(|e| format!("{}: {e}", cell.id()))?);
        }
        t.setup_s.push(start.elapsed().as_secs_f64());
        if !expected.is_empty() && expected != warm {
            out.fail("set-up passes disagree");
        }
        expected = warm;
    }
    t.setup_host.probe();
    check_golden(&mut out, &args.workload, args.seed, &digest_results(&expected));

    if args.trace {
        traced(args, &jobs, &expected, &mut out);
        return Ok(out);
    }
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        t.host.probe();
        let (wall, refs) = pass(&jobs, &expected, &mut out, &mut t.latencies_ms);
        t.wall_s += wall;
        t.refs += refs;
        t.jobs += jobs.len() as u64;
    }
    t.host.probe();
    t.emit(&mut out);
    Ok(out)
}

/// Sums over the ledger passes that the layer rates are computed from.
#[derive(Default)]
struct Work {
    events: u64,
    alloc_ops: u64,
    refs: u64,
    sweep_fast: u64,
    pager_fast: u64,
}

/// The traced mode: alternates an untraced pass with a ledger pass that
/// runs each cell's `Experiment::run` inside a `core.run` span and then
/// takes the same run apart layer by layer.
fn traced(args: &Args, jobs: &[(Cell, Experiment)], expected: &[RunResult], out: &mut Outcome) {
    let mut ledger = Ledger::default();
    let mut work = Work::default();
    let (mut plain, mut traced_walls) = (Vec::new(), Vec::new());
    let mut scratch = Vec::new();
    let start = Instant::now();
    while traced_walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        plain.push(pass(jobs, expected, out, &mut scratch).0);
        let t = Instant::now();
        for ((cell, exp), want) in jobs.iter().zip(expected) {
            out.attempted += 1;
            let mut job = JobTrace::start();
            let result = job.span("core.run", || exp.run());
            job.count("core.tier.cold", 1);
            job.enter("bench.ledger");
            match decompose(cell, &mut job, &mut work) {
                Ok(parts) => {
                    let ok = job.span("bench.check", || matches!(&result, Ok(r) if *r == parts));
                    if !ok || parts != *want {
                        out.fail(format!(
                            "{}: decomposed run differs from Experiment::run",
                            cell.id()
                        ));
                    }
                }
                Err(e) => out.fail(format!("{}: {e}", cell.id())),
            }
            job.exit();
            ledger.finish(job, cell.id());
        }
        traced_walls.push(t.elapsed().as_secs_f64());
    }
    let passes = traced_walls.len() as f64;
    let totals = ledger.totals();
    let s = |name: &str| self_s(&totals, name, passes);
    let lanes: f64 = AllocatorKind::ALL.iter().map(|&k| s(lane(k))).sum();
    let (events_s, sweep_s, pager_s) =
        (s("workloads.events"), s("cache-sim.sweep"), s("vm-sim.pager"));
    let run_s = total_s(&totals, "core.run", passes);
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("workloads.events_s", events_s);
    v.insert("workloads.mevents_per_s", work.events as f64 / passes / events_s / 1e6);
    for kind in AllocatorKind::ALL {
        v.insert(lane_metric(kind), s(lane(kind)));
    }
    v.insert("allocators.mops_per_s", work.alloc_ops as f64 / passes / lanes / 1e6);
    v.insert("cache-sim.sweep_s", sweep_s);
    v.insert("cache-sim.mrefs_per_s", work.refs as f64 / passes / sweep_s / 1e6);
    v.insert("cache-sim.fastpath_frac", work.sweep_fast as f64 / work.refs as f64);
    v.insert("vm-sim.pager_s", pager_s);
    v.insert("vm-sim.mrefs_per_s", work.refs as f64 / passes / pager_s / 1e6);
    v.insert("vm-sim.fastpath_frac", work.pager_fast as f64 / work.refs as f64);
    v.insert("core.run_s", run_s);
    v.insert("core.glue_s", run_s - (events_s + lanes + sweep_s + pager_s));
    v.insert("core.tier.cold", ledger.counter("core.tier.cold") as f64 / passes);
    v.insert("obs.trace_overhead_frac", median(&traced_walls) / median(&plain) - 1.0);
    emit_layers(out, &v);
    write_ledger(out, &ledger, args);
}

/// One cell taken apart: synthesis, the allocator lane, a capture drive
/// (benchmark overhead, outside every layer), then the sweep and the
/// pager over the captured stream. The lane ends in the engine's own
/// counting fold rather than a `NullSink`, whose default `record_runs`
/// expands every run back into single references — work no engine run
/// does.
fn decompose(cell: &Cell, job: &mut JobTrace, work: &mut Work) -> Result<RunResult, String> {
    let events: Vec<AppEvent> =
        job.span("workloads.events", || cell.spec.events(Scale(SCALE)).collect());
    let driven =
        job.span(lane(cell.kind), || drive(cell.kind, &events, &mut CountingSink::new()))?;
    let mut capture = Capture::default();
    job.span("bench.capture", || drive(cell.kind, &events, &mut capture))?;
    let mut sweep =
        SweepCache::try_new(CacheConfig::paper_sweep()).ok_or("paper sweep is sweepable")?;
    job.span("cache-sim.sweep", || sweep.record_runs(&capture.runs));
    let mut pager = StackSim::paper();
    job.span("vm-sim.pager", || pager.record_runs(&capture.runs));
    let refs = refs_in(&capture.runs);
    work.events += events.len() as u64;
    work.alloc_ops += driven.alloc_stats.mallocs + driven.alloc_stats.frees;
    work.refs += refs;
    work.sweep_fast += sweep.fastpath_refs();
    work.pager_fast += pager.fastpath_refs();
    Ok(RunResult {
        program: cell.spec.name.clone(),
        allocator: cell.kind.label().to_string(),
        scale: SCALE,
        instrs: driven.instrs,
        trace: capture.counting.stats(),
        cache: sweep.results(),
        fault_curve: Some(pager.curve()),
        victim: None,
        three_c: None,
        two_level: None,
        frag_curve: Vec::new(),
        heap_high_water: driven.heap_high_water,
        alloc_stats: driven.alloc_stats,
    })
}
