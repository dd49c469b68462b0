//! Adaptive design-space refinement: reach the exhaustive grid's Pareto
//! front while evaluating a fraction of its points.
//!
//! "Simulation of High-Performance Memory Allocators" (Risco-Martín et
//! al.) observes that guided search over an allocator parameter space
//! converges with far fewer evaluations than an exhaustive grid. This
//! module applies the idea to a [`SweepSpec`]: start from a *coarse*
//! subgrid (the endpoints and midpoint of every numeric knob list),
//! evaluate it, and then repeatedly bisect the numeric intervals
//! adjacent to the current Pareto front — the front is where trade-offs
//! live, so that is where resolution pays. When a round of
//! front-directed bisection discovers nothing new, one exploration
//! round bisects *every* remaining interval (a front can sit in an
//! unsampled valley); only when that too adds nothing — every interval
//! dense, or the point budget exhausted — has the refinement converged.
//!
//! Everything is deterministic: the active subgrid is a set of indices
//! into the normalized spec's sorted knob lists, grown in expansion
//! order with integer midpoints, so the same spec, budget, and
//! iteration cap always evaluate the same points in the same order.
//! Each round's subgrid is itself an ordinary [`SweepSpec`] (the same
//! grids with the knob lists filtered to the active values), so the
//! final report is content-addressed exactly like a hand-written sweep
//! of those points — and with an unlimited budget the active sets grow
//! until the subgrid *is* the exhaustive grid, making full-budget
//! refinement degenerate to plain expansion (a property test holds the
//! two reports' point rows byte-identical).

use std::collections::{BTreeSet, HashMap};

use alloc_locality::{AllocConfig, Experiment, RunReport, RunResult};

use crate::executor::{build_jobs, ExecOptions, ExploreError};
use crate::pareto::{pareto_front, Objectives};
use crate::report::{AdaptiveMeta, SweepExec, SweepReport};
use crate::sweep::{GridSpec, SweepSpec};

/// How long an adaptive refinement may run.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptiveOptions {
    /// Ceiling on evaluated points; 0 means unlimited. The coarse seed
    /// round is always evaluated in full — the budget bounds growth, so
    /// an over-tight budget degrades to the seed grid, never to an
    /// error.
    pub budget: usize,
    /// Ceiling on refinement rounds (the seed round included); 0 means
    /// the default of 32.
    pub iterations: usize,
}

impl AdaptiveOptions {
    fn max_iterations(&self) -> usize {
        if self.iterations == 0 {
            32
        } else {
            self.iterations
        }
    }
}

/// One of the four numeric knob axes bisection applies to, described by
/// accessors so the refinement loop can treat them uniformly. The two
/// boolean axes (`coalesce`, `roving`) have no intervals to bisect and
/// stay at full resolution from the seed round on.
struct NumAxis {
    list: fn(&GridSpec) -> &Vec<u32>,
    pick: fn(&mut GridSpec) -> &mut Vec<u32>,
    knob: fn(&AllocConfig) -> Option<u32>,
    set: fn(&mut AllocConfig, u32),
}

static NUM_AXES: [NumAxis; 4] = [
    NumAxis {
        list: |g| &g.split_threshold,
        pick: |g| &mut g.split_threshold,
        knob: |c| c.split_threshold,
        set: |c, v| c.split_threshold = Some(v),
    },
    NumAxis {
        list: |g| &g.fast_max,
        pick: |g| &mut g.fast_max,
        knob: |c| c.fast_max,
        set: |c, v| c.fast_max = Some(v),
    },
    NumAxis {
        list: |g| &g.min_shift,
        pick: |g| &mut g.min_shift,
        knob: |c| c.min_shift,
        set: |c, v| c.min_shift = Some(v),
    },
    NumAxis {
        list: |g| &g.short_age,
        pick: |g| &mut g.short_age,
        knob: |c| c.short_age,
        set: |c, v| c.short_age = Some(v),
    },
];

/// Per-grid active index sets, one per numeric axis, indexing into the
/// normalized exhaustive spec's sorted knob lists.
type Active = Vec<[BTreeSet<usize>; 4]>;

/// The coarse seed: endpoints plus midpoint of every numeric list
/// (which is the whole list when it has at most three values).
fn seed_active(grids: &[GridSpec]) -> Active {
    grids
        .iter()
        .map(|grid| {
            std::array::from_fn(|axis| {
                let len = (NUM_AXES[axis].list)(grid).len();
                match len {
                    0 => BTreeSet::new(),
                    _ => BTreeSet::from([0, (len - 1) / 2, len - 1]),
                }
            })
        })
        .collect()
}

/// The subgrid spec the active sets currently describe.
fn derived_spec(full: &SweepSpec, active: &Active) -> SweepSpec {
    let mut spec = full.clone();
    for (grid, sets) in spec.grids.iter_mut().zip(active) {
        for (axis, set) in NUM_AXES.iter().zip(sets) {
            let full_list = (axis.list)(grid).clone();
            *(axis.pick)(grid) = set.iter().map(|&i| full_list[i]).collect();
        }
    }
    spec
}

/// The index of a front point's value on one grid's numeric axis. A
/// `None` knob means the point's config dropped the family default
/// during normalization, so the default's own position is the answer;
/// `None` overall means the point did not come from this grid's axis.
fn value_index(list: &[u32], knob: Option<u32>, allocator: &str, axis: &NumAxis) -> Option<usize> {
    match knob {
        Some(v) => list.iter().position(|&x| x == v),
        None => list.iter().position(|&x| {
            let mut cfg = AllocConfig::default();
            (axis.set)(&mut cfg, x);
            cfg.normalized_for(allocator).is_none()
        }),
    }
}

/// Runs an adaptive refinement of `spec` and assembles the final
/// subgrid's report (`mode: "adaptive"` in the v2 header, stream-cache
/// tallies accumulated across all rounds). `progress` is called after
/// each evaluated point with the cumulative count and that point's
/// result.
///
/// # Errors
///
/// Returns [`ExploreError::Spec`] for an invalid sweep and
/// [`ExploreError::Engine`] for the first simulation failure.
pub fn run_adaptive(
    spec: &SweepSpec,
    exec_opts: &ExecOptions,
    adaptive: AdaptiveOptions,
    progress: impl Fn(usize, &RunResult) + Sync,
) -> Result<SweepReport, ExploreError> {
    spec.validate()?;
    let full = spec.normalized();
    let exhaustive = full.points().len();
    let budget = if adaptive.budget == 0 { exhaustive } else { adaptive.budget };
    let mut active = seed_active(&full.grids);
    let mut memo: HashMap<String, RunReport> = HashMap::new();
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut iterations = 0u64;

    loop {
        iterations += 1;
        let derived = derived_spec(&full, &active).normalized();
        let points = derived.points();
        // Evaluate only this round's new points; earlier rounds' reports
        // replay from the memo, so converged refinement is free.
        let fresh: Vec<_> =
            points.iter().filter(|p| !memo.contains_key(&p.job_id())).cloned().collect();
        if !fresh.is_empty() {
            let set = build_jobs(&fresh, exec_opts);
            hits += set.stream_hits;
            misses += set.stream_misses;
            let base = memo.len();
            let reports = alloc_locality::run_many(
                set.jobs,
                exec_opts.resolved_threads(),
                Experiment::report,
                |done, report| progress(base + done, &report.result),
            )?;
            for (point, report) in fresh.iter().zip(reports) {
                memo.insert(point.job_id(), report);
            }
        }
        if iterations as usize >= adaptive.max_iterations() {
            break;
        }

        let objectives: Vec<Objectives> = points
            .iter()
            .map(|p| {
                Objectives::of(&memo[&p.job_id()].result).ok_or_else(|| {
                    ExploreError::Report(format!(
                        "{}/{} simulated no caches",
                        p.program, p.allocator
                    ))
                })
            })
            .collect::<Result<_, _>>()?;
        let front = pareto_front(&objectives);

        // Front-directed bisection: halve the numeric intervals adjacent
        // to every front point, budget permitting.
        let mut added = false;
        for &i in &front {
            added |= bisect_around(&points[i], &full, &mut active, budget);
        }
        if !added {
            // Exploration round: the front may sit in an unsampled
            // interval no front point is adjacent to, so halve every
            // remaining interval once before giving up.
            added = bisect_everywhere(&full, &mut active, budget);
        }
        if !added {
            break;
        }
    }

    let derived = derived_spec(&full, &active).normalized();
    let points = derived.points();
    let reports = points.iter().map(|p| memo[&p.job_id()].clone()).collect();
    let exec = SweepExec {
        stream_hits: hits,
        stream_misses: misses,
        adaptive: Some(AdaptiveMeta {
            iterations,
            evaluated: points.len() as u64,
            exhaustive: exhaustive as u64,
            budget: budget as u64,
        }),
    };
    SweepReport::assemble_with(&derived, reports, &exec).map_err(ExploreError::Report)
}

/// Bisects the active intervals adjacent to one front point's position
/// on every numeric axis of every grid that could have produced it.
fn bisect_around(
    point: &alloc_locality::JobSpec,
    full: &SweepSpec,
    active: &mut Active,
    budget: usize,
) -> bool {
    let none = AllocConfig::default();
    let cfg = point.alloc_config.as_ref().unwrap_or(&none);
    let mut added = false;
    for (grid_idx, grid) in full.grids.iter().enumerate() {
        if grid.allocator != point.allocator {
            continue;
        }
        for (axis_idx, axis) in NUM_AXES.iter().enumerate() {
            let list = (axis.list)(grid);
            if list.len() < 2 {
                continue;
            }
            let Some(at) = value_index(list, (axis.knob)(cfg), &grid.allocator, axis) else {
                continue;
            };
            let set = &active[grid_idx][axis_idx];
            let below = set.range(..at).next_back().copied();
            let above = set.range(at + 1..).next().copied();
            for (lo, hi) in [(below, Some(at)), (Some(at), above)] {
                if let (Some(lo), Some(hi)) = (lo, hi) {
                    if hi - lo > 1 {
                        added |=
                            try_activate(full, active, budget, grid_idx, axis_idx, (lo + hi) / 2);
                    }
                }
            }
        }
    }
    added
}

/// Bisects every remaining interval on every grid axis once.
fn bisect_everywhere(full: &SweepSpec, active: &mut Active, budget: usize) -> bool {
    let mut added = false;
    for grid_idx in 0..full.grids.len() {
        for axis_idx in 0..NUM_AXES.len() {
            let gaps: Vec<(usize, usize)> = {
                let set = &active[grid_idx][axis_idx];
                set.iter().zip(set.iter().skip(1)).map(|(&lo, &hi)| (lo, hi)).collect()
            };
            for (lo, hi) in gaps {
                if hi - lo > 1 {
                    added |= try_activate(full, active, budget, grid_idx, axis_idx, (lo + hi) / 2);
                }
            }
        }
    }
    added
}

/// Activates one index if the grown subgrid still fits the budget.
fn try_activate(
    full: &SweepSpec,
    active: &mut Active,
    budget: usize,
    grid_idx: usize,
    axis_idx: usize,
    index: usize,
) -> bool {
    if !active[grid_idx][axis_idx].insert(index) {
        return false;
    }
    if derived_spec(full, active).points().len() > budget {
        active[grid_idx][axis_idx].remove(&index);
        return false;
    }
    true
}
