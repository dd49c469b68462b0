//! `alloc-locality-explore`: design-space exploration over allocator
//! configurations.
//!
//! The paper tunes its allocators by hand — one split threshold, one
//! fast-list bound, one set of rounding classes. This crate sweeps
//! those knobs systematically:
//!
//! * [`SweepSpec`] declares parameter grids over the allocator configs
//!   the engine already exposes (`FirstFitConfig`, `GnuGxxConfig`,
//!   `QuickFitConfig`, `BsdConfig`, `PredictiveConfig`) — optionally
//!   crossed with program and scale axes — expanded deterministically
//!   into content-hashed [`JobSpec`] points.
//! * [`run_sweep_with`] captures each workload cell's event sequence
//!   **once** and drives every point of that cell off the shared trace
//!   through the engine's worker pool; with a stream cache configured,
//!   points whose streams are already stored replay without generation
//!   *or* allocator simulation, so re-running a sweep is near-free.
//! * [`run_adaptive`] refines a coarse subgrid toward the Pareto front
//!   by bisecting numeric knob intervals under a point budget, reaching
//!   the exhaustive front at a fraction of its cost.
//! * [`pareto_front`] scores each point on miss rate × instruction
//!   cost × memory overhead and prunes the dominated ones.
//! * [`SweepReport`] is the versioned `alloc-locality.sweep-report`
//!   JSONL artifact (v2: stream-cache tallies, workload axes, and
//!   adaptive metadata in the header): header, per-point rows (each
//!   embedding the point's run report, byte-identical to a direct run),
//!   and the Pareto front.
//!
//! The serve daemon exposes the same machinery as `POST /sweeps`; the
//! `explore` binary runs sweeps offline and benchmarks the shared-trace
//! executor against naive regeneration, warm reruns against cold, and
//! adaptive refinement against exhaustive expansion.
//!
//! [`JobSpec`]: alloc_locality::JobSpec

pub mod adaptive;
pub mod executor;
pub mod pareto;
pub mod report;
pub mod sweep;

pub use adaptive::{run_adaptive, AdaptiveOptions};
pub use executor::{run_sweep, run_sweep_naive, run_sweep_with, ExecOptions, ExploreError};
pub use pareto::{pareto_front, Objectives};
pub use report::{
    AdaptiveMeta, SweepExec, SweepFrontRow, SweepHeader, SweepPointRow, SweepReport,
    SWEEP_REPORT_SCHEMA, SWEEP_REPORT_VERSION,
};
pub use sweep::{GridSpec, SweepSpec, MAX_SWEEP_POINTS};

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> SweepSpec {
        SweepSpec {
            cache_kb: vec![16],
            paging: Some(false),
            ..SweepSpec::over(
                "espresso",
                0.002,
                vec![
                    GridSpec { split_threshold: vec![8, 24], ..GridSpec::baseline("FirstFit") },
                    GridSpec { fast_max: vec![16, 64], ..GridSpec::baseline("QuickFit") },
                    GridSpec { min_shift: vec![4, 6], ..GridSpec::baseline("BSD") },
                ],
            )
        }
    }

    #[test]
    fn sweep_runs_assemble_and_validate() {
        let spec = tiny_sweep();
        let report = run_sweep(&spec, 2, |_, _| {}).expect("sweep runs");
        assert_eq!(report.points.len(), 6);
        assert_eq!(report.header.sweep_id, spec.sweep_id());
        assert_eq!(report.header.families, vec!["FirstFit", "QuickFit", "BSD"]);
        report.validate().expect("fresh report validates");
        assert!(!report.front.front.is_empty(), "some point is undominated");
        // Round trip through the JSONL wire form.
        let text = report.to_jsonl();
        let back = SweepReport::parse(&text).expect("parse");
        assert_eq!(back, report);
        back.validate().expect("parsed report validates");
    }

    #[test]
    fn sweep_points_are_byte_identical_to_direct_runs() {
        // The tentpole contract: a point driven off the shared event
        // trace emits exactly the bytes a direct spec-built run does —
        // after normalize_report zeroes both runs' span wall-times, the
        // one field that is execution telemetry rather than simulation
        // output. Custom takes its size profile from the spec on both
        // paths.
        let mut spec = tiny_sweep();
        spec.grids.push(GridSpec::baseline("Custom"));
        let report = run_sweep(&spec, 2, |_, _| {}).expect("sweep runs");
        for row in &report.points {
            let mut direct =
                row.spec.to_experiment().expect("point builds").report().expect("runs");
            assert_eq!(row.report.result, direct.result, "simulation output diverged");
            assert_eq!(row.report.metrics.counters, direct.metrics.counters);
            assert_eq!(row.report.metrics.histograms, direct.metrics.histograms);
            report::normalize_report(&mut direct);
            assert_eq!(
                row.report.to_jsonl_line(),
                direct.to_jsonl_line(),
                "sweep point {} diverged from its direct run",
                row.allocator
            );
        }
    }

    #[test]
    fn shared_and_naive_executors_agree() {
        let spec = tiny_sweep();
        let shared = run_sweep(&spec, 2, |_, _| {}).expect("shared");
        let naive = run_sweep_naive(&spec, 2, |_, _| {}).expect("naive");
        assert_eq!(shared.to_jsonl(), naive.to_jsonl());
    }

    #[test]
    fn validate_rejects_tampered_reports() {
        let report = run_sweep(&tiny_sweep(), 2, |_, _| {}).expect("sweep runs");

        let mut bad = report.clone();
        bad.header.points += 1;
        assert!(bad.validate().unwrap_err().contains("points"));

        let mut bad = report.clone();
        bad.points[0].point_id = "0000000000000000".into();
        assert!(bad.validate().unwrap_err().contains("content address"));

        let mut bad = report.clone();
        bad.points[0].objectives.instructions += 1;
        assert!(bad.validate().unwrap_err().contains("objectives"));

        let mut bad = report.clone();
        bad.front.front.clear();
        assert!(bad.validate().unwrap_err().contains("Pareto front"));

        let mut bad = report.clone();
        for p in &mut bad.points {
            p.sweep_id = "ffffffffffffffff".into();
        }
        assert!(bad.validate().unwrap_err().contains("sweep_id"));

        let mut bad = report.clone();
        bad.header.stream_hits = 1;
        assert!(bad.validate().unwrap_err().contains("tallies"));

        let mut bad = report.clone();
        bad.header.mode = "genetic".into();
        assert!(bad.validate().unwrap_err().contains("mode"));

        let mut bad = report.clone();
        bad.header.adaptive_evaluated = 3;
        assert!(bad.validate().unwrap_err().contains("adaptive"));
    }

    #[test]
    fn v1_reports_still_parse_and_validate() {
        // A v1 document — no axes, no cache tallies, no mode — must stay
        // readable after the v2 bump: fabricate one by downgrading a
        // fresh report's rows to version 1 and stripping the v2 fields.
        let mut report = run_sweep(&tiny_sweep(), 2, |_, _| {}).expect("sweep runs");
        report.header.version = 1;
        report.header.programs.clear();
        report.header.scales.clear();
        report.header.mode = String::new();
        for p in &mut report.points {
            p.version = 1;
        }
        report.front.version = 1;
        report.validate().expect("v1-shaped report validates");
        let back = SweepReport::parse(&report.to_jsonl()).expect("parse");
        back.validate().expect("round-tripped v1 report validates");
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("alsc-explore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn warm_sweeps_replay_byte_identically() {
        let dir = scratch_dir("warm");
        let spec = tiny_sweep();
        let opts =
            ExecOptions { threads: 2, stream_cache: Some(dir.clone()), stream_cache_bytes: None };
        let cold = run_sweep_with(&spec, &opts, |_, _| {}).expect("cold sweep");
        assert_eq!(cold.header.stream_hits, 0);
        assert_eq!(cold.header.stream_misses, 6);
        cold.validate().expect("cold report validates");
        let warm = run_sweep_with(&spec, &opts, |_, _| {}).expect("warm sweep");
        assert_eq!(warm.header.stream_hits, 6);
        assert_eq!(warm.header.stream_misses, 0);
        // Everything but the cache tallies — every point row and the
        // front — is byte-identical: warm points report the sidecar
        // metrics the cold run froze.
        assert_eq!(cold.points, warm.points);
        assert_eq!(cold.front, warm.front);
        // And an overlapping sweep replays the shared points too.
        let overlap = SweepSpec {
            grids: vec![GridSpec { min_shift: vec![4, 5, 6], ..GridSpec::baseline("BSD") }],
            ..spec.clone()
        };
        let report = run_sweep_with(&overlap, &opts, |_, _| {}).expect("overlapping sweep");
        assert_eq!(report.header.stream_hits, 2);
        assert_eq!(report.header.stream_misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_axis_sweeps_agree_with_the_naive_executor() {
        let spec = SweepSpec {
            programs: vec!["espresso".into(), "make".into()],
            scales: vec![0.002, 0.003],
            ..tiny_sweep()
        };
        let shared = run_sweep(&spec, 2, |_, _| {}).expect("shared");
        let naive = run_sweep_naive(&spec, 2, |_, _| {}).expect("naive");
        assert_eq!(shared.to_jsonl(), naive.to_jsonl());
        assert_eq!(shared.points.len(), 24);
        assert_eq!(shared.header.programs, vec!["espresso".to_string(), "make".to_string()]);
        assert_eq!(shared.header.scales, vec![0.002, 0.003]);
        shared.validate().expect("axis report validates");
    }

    #[test]
    fn full_budget_adaptive_degenerates_to_the_exhaustive_grid() {
        let spec = tiny_sweep();
        let exhaustive = run_sweep(&spec, 2, |_, _| {}).expect("exhaustive");
        let adaptive =
            run_adaptive(&spec, &ExecOptions::threads(2), AdaptiveOptions::default(), |_, _| {})
                .expect("adaptive");
        adaptive.validate().expect("adaptive report validates");
        assert_eq!(adaptive.header.mode, "adaptive");
        assert_eq!(adaptive.header.adaptive_exhaustive, exhaustive.points.len() as u64);
        // With an unlimited budget the active sets grow until the
        // subgrid *is* the grid: same sweep id, byte-identical point
        // rows and front.
        assert_eq!(adaptive.header.sweep_id, exhaustive.header.sweep_id);
        assert_eq!(adaptive.points, exhaustive.points);
        assert_eq!(adaptive.front, exhaustive.front);
    }
}
