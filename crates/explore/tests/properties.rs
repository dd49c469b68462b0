//! Property tests for the Pareto front and the sweep executor's
//! bit-identity contract.

use std::collections::HashMap;
use std::sync::Arc;

use alloc_locality::job_spec::program_by_label;
use alloc_locality::{Experiment, JobSpec};
use explore::report::normalize_report;
use explore::{
    pareto_front, run_adaptive, run_sweep, AdaptiveOptions, ExecOptions, GridSpec, Objectives,
    SweepSpec,
};
use proptest::prelude::*;
use workloads::{AppEvent, Scale};

/// The brute-force oracle: a point is on the front iff no *other* point
/// dominates it — O(n²) all-pairs, trivially correct by definition.
fn oracle_front(objectives: &[Objectives]) -> Vec<usize> {
    (0..objectives.len())
        .filter(|&i| {
            !objectives
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && other.dominates(&objectives[i]))
        })
        .collect()
}

/// Objective vectors drawn from small discrete grids, so ties,
/// duplicates, and dominance chains all occur often.
fn objectives_strategy() -> impl Strategy<Value = Vec<Objectives>> {
    proptest::collection::vec((0u8..6, 0u64..6, 0u64..6), 0..64).prop_map(|raw| {
        raw.into_iter()
            .map(|(m, i, p)| Objectives {
                miss_rate: f64::from(m) * 0.05,
                instructions: i * 1_000,
                peak_granted: p * 4_096,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The sorted-candidate front matches the brute-force oracle
    /// exactly: nothing dominated survives, nothing undominated is
    /// pruned.
    #[test]
    fn pareto_front_equals_the_brute_force_oracle(objectives in objectives_strategy()) {
        prop_assert_eq!(pareto_front(&objectives), oracle_front(&objectives));
    }

    /// Front membership is internally consistent: no front point
    /// dominates another, and every pruned point has a dominator on the
    /// front (dominance is transitive, so a dominator off the front
    /// would imply one on it).
    #[test]
    fn front_points_are_mutually_undominated(objectives in objectives_strategy()) {
        let front = pareto_front(&objectives);
        for &i in &front {
            for &j in &front {
                prop_assert!(!objectives[i].dominates(&objectives[j]),
                    "front point {i} dominates front point {j}");
            }
        }
        for pruned in (0..objectives.len()).filter(|i| !front.contains(i)) {
            prop_assert!(
                front.iter().any(|&f| objectives[f].dominates(&objectives[pruned])),
                "pruned point {pruned} has no dominator on the front"
            );
        }
    }
}

/// The tentpole bit-identity contract: a tuned sweep point driven off a
/// shared event trace emits the same report line as a direct
/// spec-built run. Span wall-times — execution telemetry, not
/// simulation output — are zeroed on both sides, exactly as
/// sweep-report assembly does.
#[test]
fn shared_trace_points_match_direct_runs() {
    let spec: JobSpec = serde_json::from_str(
        r#"{"program":"espresso","allocator":"FirstFit","scale":0.002,
            "cache_kb":[16],"paging":false,
            "alloc_config":{"split_threshold":8,"roving":false}}"#,
    )
    .expect("spec parses");
    spec.validate().expect("spec is valid");
    let program = program_by_label(&spec.normalized().program).expect("known program");
    let events: Arc<Vec<AppEvent>> =
        Arc::new(program.spec().events(Scale(spec.normalized().scale)).collect());

    let mut direct =
        spec.to_experiment().expect("direct experiment builds").report().expect("direct run");
    let mut shared = Experiment::with_shared_events(
        program.label(),
        Arc::clone(&events),
        spec.to_choice().expect("choice builds"),
    )
    .options(spec.to_options().expect("options build"))
    .report()
    .expect("shared-trace run");
    normalize_report(&mut direct);
    normalize_report(&mut shared);
    assert_eq!(
        shared.to_jsonl_line(),
        direct.to_jsonl_line(),
        "shared-trace point diverged from the direct run"
    );
}

/// Axis-keyed trace sharing is invisible in the output: for every point
/// of a program × scale × family-grid cross product, a run driven off
/// the (program, scale)-pooled shared trace — exactly the pool the
/// executor builds — is byte-identical to regenerating that point's
/// events from its own spec.
#[test]
fn axis_keyed_shared_traces_match_per_point_regeneration() {
    let spec = SweepSpec {
        programs: vec!["espresso".into(), "make".into()],
        scales: vec![0.002, 0.003],
        cache_kb: vec![16],
        paging: Some(false),
        ..SweepSpec::over(
            "espresso",
            0.002,
            vec![
                GridSpec { split_threshold: vec![8], ..GridSpec::baseline("FirstFit") },
                GridSpec { min_shift: vec![4], ..GridSpec::baseline("BSD") },
            ],
        )
    };
    spec.validate().expect("axis sweep is valid");
    let points = spec.normalized().points();
    assert_eq!(points.len(), 8, "2 programs x 2 scales x 2 family configs");

    let mut pool: HashMap<(String, u64), Arc<Vec<AppEvent>>> = HashMap::new();
    for point in &points {
        let program = program_by_label(&point.program).expect("known program");
        let events = pool
            .entry((point.program.clone(), point.scale.to_bits()))
            .or_insert_with(|| Arc::new(program.spec().events(Scale(point.scale)).collect()));
        let mut shared = Experiment::with_shared_events(
            program.label(),
            Arc::clone(events),
            point.to_choice().expect("choice builds"),
        )
        .options(point.to_options().expect("options build"))
        .report()
        .expect("shared-trace run");
        let mut direct =
            point.to_experiment().expect("direct experiment builds").report().expect("direct run");
        normalize_report(&mut shared);
        normalize_report(&mut direct);
        assert_eq!(
            shared.to_jsonl_line(),
            direct.to_jsonl_line(),
            "{}/{} at scale {} diverged under the shared trace",
            point.program,
            point.allocator,
            point.scale
        );
    }
}

/// With an unlimited budget, adaptive refinement is a pure reordering
/// of the exhaustive grid: bisection keeps activating knob values until
/// the subgrid *is* the grid — even from a sparse seed over a knob list
/// long enough to need several interval splits — so the final report
/// carries the same sweep id, byte-identical point rows, and the same
/// front as the exhaustive executor.
#[test]
fn full_budget_adaptive_covers_long_knob_lists_exhaustively() {
    let spec = SweepSpec {
        cache_kb: vec![16],
        paging: Some(false),
        ..SweepSpec::over(
            "espresso",
            0.002,
            vec![
                GridSpec {
                    split_threshold: vec![8, 16, 24, 32, 40],
                    ..GridSpec::baseline("FirstFit")
                },
                GridSpec { fast_max: vec![8, 32], ..GridSpec::baseline("QuickFit") },
            ],
        )
    };
    spec.validate().expect("sweep is valid");
    let exhaustive = run_sweep(&spec, 2, |_, _| {}).expect("exhaustive sweep");
    let adaptive =
        run_adaptive(&spec, &ExecOptions::threads(2), AdaptiveOptions::default(), |_, _| {})
            .expect("adaptive sweep");
    adaptive.validate().expect("adaptive report validates");
    assert_eq!(adaptive.header.mode, "adaptive");
    assert_eq!(adaptive.header.adaptive_evaluated, exhaustive.points.len() as u64);
    assert_eq!(adaptive.header.sweep_id, exhaustive.header.sweep_id);
    assert_eq!(adaptive.points, exhaustive.points);
    assert_eq!(adaptive.front, exhaustive.front);
}
