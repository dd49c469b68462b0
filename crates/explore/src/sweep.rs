//! [`SweepSpec`]: a declarative grid over allocator configurations.
//!
//! A sweep names one workload cell (program, scale, cache geometry —
//! the same optional fields as a [`JobSpec`], with the same defaults)
//! and a list of [`GridSpec`]s, one per allocator family. Each grid
//! lists candidate values for the knobs its family exposes; the cross
//! product of those lists, unioned across grids, is the sweep's point
//! set. Every point is an ordinary [`JobSpec`] — content-addressed by
//! [`JobSpec::job_id`], validated by [`JobSpec::validate`] — so a sweep
//! point run anywhere (the `explore` binary, the serve daemon, a direct
//! `repro` invocation) produces byte-identical results.
//!
//! Like job specs, sweeps are normalized before hashing: knob lists are
//! sorted and deduplicated, workload defaults are filled in, and points
//! that normalize to the same job (for example an explicitly-default
//! knob next to an absent one) collapse to one.

use std::collections::HashSet;
use std::fmt;

use alloc_locality::job_spec::{program_by_label, SERVABLE_ALLOCATORS};
use alloc_locality::{AllocConfig, JobSpec, SpecError};
use serde::{Deserialize, Serialize};
use sim_mem::stream::Fnv64;

/// Upper bound on the number of points one sweep may expand to
/// (counted before deduplication, so the bound is spelling-independent).
pub const MAX_SWEEP_POINTS: usize = 4096;

/// Candidate knob values for one allocator family.
///
/// An empty (or omitted) list leaves that knob at the paper's default —
/// it contributes a single "unset" slot to the cross product, not zero
/// points. A grid with every list empty is the family's paper
/// configuration as a single point, which is how untunable baselines
/// ("GNU local", "BestFit", "Buddy") join a sweep.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GridSpec {
    /// Allocator label, as [`JobSpec::allocator`].
    pub allocator: String,
    /// Candidate split thresholds (FirstFit, GNU G++).
    #[serde(default)]
    pub split_threshold: Vec<u32>,
    /// Candidate coalescing settings (FirstFit, GNU G++).
    #[serde(default)]
    pub coalesce: Vec<bool>,
    /// Candidate roving-pointer settings (FirstFit).
    #[serde(default)]
    pub roving: Vec<bool>,
    /// Candidate fast-list payload bounds (QuickFit).
    #[serde(default)]
    pub fast_max: Vec<u32>,
    /// Candidate minimum rounding-class shifts (BSD).
    #[serde(default)]
    pub min_shift: Vec<u32>,
    /// Candidate working-set clocks (Predictive).
    #[serde(default)]
    pub short_age: Vec<u32>,
}

impl GridSpec {
    /// A grid holding the family's single paper configuration.
    pub fn baseline(allocator: &str) -> GridSpec {
        GridSpec { allocator: allocator.to_string(), ..GridSpec::default() }
    }

    /// Number of points this grid expands to (before deduplication).
    pub fn point_count(&self) -> usize {
        let axis = |len: usize| len.max(1);
        axis(self.split_threshold.len())
            * axis(self.coalesce.len())
            * axis(self.roving.len())
            * axis(self.fast_max.len())
            * axis(self.min_shift.len())
            * axis(self.short_age.len())
    }

    /// The grid with every knob list sorted and deduplicated, so
    /// equivalent spellings serialize — and hash — identically.
    pub fn normalized(&self) -> GridSpec {
        fn canon<T: Ord + Copy>(vals: &[T]) -> Vec<T> {
            let mut v = vals.to_vec();
            v.sort_unstable();
            v.dedup();
            v
        }
        GridSpec {
            allocator: self.allocator.clone(),
            split_threshold: canon(&self.split_threshold),
            coalesce: canon(&self.coalesce),
            roving: canon(&self.roving),
            fast_max: canon(&self.fast_max),
            min_shift: canon(&self.min_shift),
            short_age: canon(&self.short_age),
        }
    }

    /// The cross product of the knob lists, in knob-declaration order
    /// (an empty list contributes one unset slot). `None` entries are
    /// all-default combinations.
    fn configs(&self) -> Vec<Option<AllocConfig>> {
        fn axis<T: Copy>(vals: &[T]) -> Vec<Option<T>> {
            if vals.is_empty() {
                vec![None]
            } else {
                vals.iter().copied().map(Some).collect()
            }
        }
        let mut out = Vec::with_capacity(self.point_count());
        for &split_threshold in &axis(&self.split_threshold) {
            for &coalesce in &axis(&self.coalesce) {
                for &roving in &axis(&self.roving) {
                    for &fast_max in &axis(&self.fast_max) {
                        for &min_shift in &axis(&self.min_shift) {
                            for &short_age in &axis(&self.short_age) {
                                let cfg = AllocConfig {
                                    split_threshold,
                                    coalesce,
                                    roving,
                                    fast_max,
                                    min_shift,
                                    short_age,
                                };
                                out.push(if cfg.is_empty() { None } else { Some(cfg) });
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// A parameter sweep over allocator configurations: a workload cell —
/// optionally crossed with program and scale axes — plus per-family
/// knob grids.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Program label, as [`JobSpec::program`].
    pub program: String,
    /// Workload scale; 0/omitted means the engine default.
    #[serde(default)]
    pub scale: f64,
    /// Program axis: when non-empty, the sweep crosses its grids over
    /// *these* programs and [`SweepSpec::program`] is ignored (it
    /// normalizes to the axis's first value). Empty means the single
    /// scalar program. Serialized only when non-empty, as is `scales`:
    /// permanent empty axes would change the canonical line, and so the
    /// [`SweepSpec::sweep_id`], of every sweep that predates them.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub programs: Vec<String>,
    /// Scale axis: when non-empty, the sweep crosses its grids over
    /// these scales and [`SweepSpec::scale`] is ignored (it normalizes
    /// to the axis's first value). Empty means the single scalar scale.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub scales: Vec<f64>,
    /// Cache sizes in KB; empty/omitted means the paper's sweep.
    #[serde(default)]
    pub cache_kb: Vec<u32>,
    /// Cache block size in bytes; 0/omitted means the paper's 32.
    #[serde(default)]
    pub block: u32,
    /// Whether to simulate paging; omitted means on.
    #[serde(default)]
    pub paging: Option<bool>,
    /// One grid per allocator family to explore.
    pub grids: Vec<GridSpec>,
}

impl SweepSpec {
    /// A sweep over the given grids with every workload option defaulted.
    pub fn over(program: &str, scale: f64, grids: Vec<GridSpec>) -> SweepSpec {
        SweepSpec {
            program: program.to_string(),
            scale,
            programs: Vec::new(),
            scales: Vec::new(),
            cache_kb: Vec::new(),
            block: 0,
            paging: None,
            grids,
        }
    }

    /// One workload cell of the sweep, as a [`JobSpec`] with the given
    /// allocator and no tuning.
    fn cell_at(&self, program: &str, scale: f64, allocator: &str) -> JobSpec {
        JobSpec {
            program: program.to_string(),
            allocator: allocator.to_string(),
            scale,
            cache_kb: self.cache_kb.clone(),
            block: self.block,
            paging: self.paging,
            alloc_config: None,
        }
    }

    /// The effective program axis: the `programs` list when non-empty,
    /// otherwise the single scalar program.
    pub fn programs_axis(&self) -> Vec<String> {
        if self.programs.is_empty() {
            vec![self.program.clone()]
        } else {
            self.programs.clone()
        }
    }

    /// The effective scale axis: the `scales` list when non-empty,
    /// otherwise the single scalar scale.
    pub fn scales_axis(&self) -> Vec<f64> {
        if self.scales.is_empty() {
            vec![self.scale]
        } else {
            self.scales.clone()
        }
    }

    /// The spec with workload defaults filled in, every grid's knob
    /// lists canonicalized, and the workload axes sorted, deduplicated,
    /// and collapsed (a one-value axis is the same sweep as its scalar
    /// spelling, so it normalizes *to* the scalar; a multi-value axis
    /// pins the scalar to its first value), so equivalent sweeps hash
    /// identically.
    pub fn normalized(&self) -> SweepSpec {
        let fill = |scale: f64| {
            JobSpec {
                cache_kb: self.cache_kb.clone(),
                block: self.block,
                paging: self.paging,
                ..JobSpec::cell(&self.program, "FirstFit", scale)
            }
            .normalized()
        };
        let mut programs = self.programs_axis();
        programs.sort();
        programs.dedup();
        let mut scales: Vec<f64> = self.scales_axis().iter().map(|&s| fill(s).scale).collect();
        scales.sort_by(f64::total_cmp);
        scales.dedup_by(|a, b| a.to_bits() == b.to_bits());
        let cell = fill(self.scale);
        SweepSpec {
            program: programs[0].clone(),
            scale: scales[0],
            programs: if programs.len() > 1 { programs } else { Vec::new() },
            scales: if scales.len() > 1 { scales } else { Vec::new() },
            cache_kb: cell.cache_kb,
            block: cell.block,
            paging: cell.paging,
            grids: self.grids.iter().map(GridSpec::normalized).collect(),
        }
    }

    /// Distinct allocator families, in grid order.
    pub fn families(&self) -> Vec<String> {
        let mut seen = HashSet::new();
        self.grids
            .iter()
            .filter(|g| seen.insert(g.allocator.clone()))
            .map(|g| g.allocator.clone())
            .collect()
    }

    /// Expands the sweep into its point set: deterministic order
    /// (programs, then scales, then grids in declaration order, knobs in
    /// field order), normalized, and deduplicated by
    /// [`JobSpec::job_id`].
    pub fn points(&self) -> Vec<JobSpec> {
        let n = self.normalized();
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for program in n.programs_axis() {
            for &scale in &n.scales_axis() {
                for grid in &n.grids {
                    for cfg in grid.configs() {
                        let mut point = n.cell_at(&program, scale, &grid.allocator);
                        point.alloc_config = cfg;
                        let point = point.normalized();
                        if seen.insert(point.job_id()) {
                            out.push(point);
                        }
                    }
                }
            }
        }
        out
    }

    /// Checks the workload axes, every grid, and every expanded point.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the first rejected field.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.grids.is_empty() {
            return Err(SpecError::new("sweep declares no grids"));
        }
        for program in self.programs_axis() {
            if program_by_label(&program).is_none() {
                return Err(SpecError::new(format!("unknown program {program:?}")));
            }
        }
        let cells =
            self.programs_axis().len().saturating_mul(self.scales_axis().len().max(1)).max(1);
        let mut total = 0usize;
        for grid in &self.grids {
            if !SERVABLE_ALLOCATORS.contains(&grid.allocator.as_str()) {
                return Err(SpecError::new(format!(
                    "unknown allocator {:?} in grid",
                    grid.allocator
                )));
            }
            total = total.saturating_add(grid.point_count().saturating_mul(cells));
            if total > MAX_SWEEP_POINTS {
                return Err(SpecError::new(format!(
                    "sweep expands to more than {MAX_SWEEP_POINTS} points"
                )));
            }
        }
        for point in self.points() {
            point.validate().map_err(|e| {
                SpecError::new(format!("point {}/{}: {e}", point.program, point.allocator))
            })?;
        }
        Ok(())
    }

    /// The canonical single-line JSON of the normalized sweep — the
    /// bytes [`SweepSpec::sweep_id`] covers.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails, which for this in-memory struct
    /// would be a serializer bug.
    pub fn canonical_line(&self) -> String {
        serde_json::to_string(&self.normalized()).expect("serialize sweep spec")
    }

    /// Content-addressed sweep id: FNV-1a over a domain tag plus
    /// [`SweepSpec::canonical_line`], printed as 16 hex digits. The tag
    /// keeps sweep ids out of the job-id namespace.
    pub fn sweep_id(&self) -> String {
        let mut hash = Fnv64::new();
        hash.write(b"sweep\n");
        hash.write(self.canonical_line().as_bytes());
        format!("{:016x}", hash.finish())
    }
}

impl fmt::Display for SweepSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.normalized();
        let scales = n.scales_axis().iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        write!(
            f,
            "{} @ {} over [{}]",
            n.programs_axis().join(","),
            scales,
            self.families().join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> SweepSpec {
        SweepSpec {
            cache_kb: vec![16],
            ..SweepSpec::over(
                "espresso",
                0.002,
                vec![
                    GridSpec {
                        split_threshold: vec![8, 24],
                        coalesce: vec![true, false],
                        ..GridSpec::baseline("FirstFit")
                    },
                    GridSpec { fast_max: vec![16, 32, 64], ..GridSpec::baseline("QuickFit") },
                    GridSpec { min_shift: vec![4, 6], ..GridSpec::baseline("BSD") },
                ],
            )
        }
    }

    #[test]
    fn expansion_is_the_cross_product_union() {
        let spec = demo();
        spec.validate().expect("demo sweep is valid");
        let points = spec.points();
        // 2*2 + 3 + 2 points declared; all normalize to distinct jobs.
        assert_eq!(points.len(), 9);
        let ids: HashSet<String> = points.iter().map(JobSpec::job_id).collect();
        assert_eq!(ids.len(), 9);
        // The all-default combinations collapse to untuned specs.
        assert!(points.iter().any(|p| p.allocator == "QuickFit" && p.alloc_config.is_none()));
        assert_eq!(spec.families(), vec!["FirstFit", "QuickFit", "BSD"]);
    }

    #[test]
    fn sweep_ids_are_pinned() {
        // Sweep ids name served sweeps and head their reports, so a
        // change to the hashing must not move them.
        assert_eq!(demo().sweep_id(), "8e3bd9969eba3027");
    }

    #[test]
    fn equivalent_spellings_share_a_sweep_id() {
        let spec = demo();
        let mut shuffled = spec.clone();
        shuffled.grids[0].split_threshold = vec![24, 8, 24];
        shuffled.grids[1].fast_max = vec![64, 16, 32];
        assert_eq!(spec.sweep_id(), shuffled.sweep_id());
        assert_eq!(spec.points(), shuffled.points());
        let mut other = spec.clone();
        other.grids[2].min_shift = vec![4, 5];
        assert_ne!(spec.sweep_id(), other.sweep_id());
    }

    #[test]
    fn default_knobs_dedupe_against_the_baseline_point() {
        // split_threshold 24 is FirstFit's default, so {24} ∪ {unset}
        // collapses: the grid declares 2 points but only one survives.
        let spec = SweepSpec {
            cache_kb: vec![16],
            ..SweepSpec::over(
                "make",
                0.002,
                vec![
                    GridSpec { split_threshold: vec![24], ..GridSpec::baseline("FirstFit") },
                    GridSpec::baseline("FirstFit"),
                ],
            )
        };
        assert_eq!(spec.points().len(), 1);
        assert!(spec.points()[0].alloc_config.is_none());
    }

    #[test]
    fn bad_sweeps_are_rejected_with_reasons() {
        let bad = |f: fn(&mut SweepSpec)| {
            let mut s = demo();
            f(&mut s);
            s.validate().unwrap_err().to_string()
        };
        assert!(bad(|s| s.grids.clear()).contains("no grids"));
        assert!(bad(|s| s.program = "tetris".into()).contains("unknown program"));
        assert!(bad(|s| s.grids[0].allocator = "jemalloc".into()).contains("unknown allocator"));
        assert!(bad(|s| s.grids[0].allocator = "Custom".into()).contains("does not apply"));
        assert!(bad(|s| s.grids[1].fast_max = vec![30]).contains("multiple of 4"));
        assert!(bad(|s| s.grids[0].fast_max = vec![32]).contains("does not apply"));
        assert!(bad(|s| s.grids[2].min_shift = (0..5000).map(|i| i % 10 + 3).collect())
            .contains("points"));
    }

    #[test]
    fn custom_baselines_can_be_swept() {
        // Custom's size profile comes from the workload model, whether
        // the point runs off a shared trace or generates its own.
        let spec = SweepSpec { grids: vec![GridSpec::baseline("Custom")], ..demo() };
        spec.validate().expect("a Custom baseline is a valid sweep");
        assert_eq!(spec.points().len(), 1);
    }

    #[test]
    fn sweep_spec_round_trips_through_json() {
        let spec = demo();
        let line = spec.canonical_line();
        let back: SweepSpec = serde_json::from_str(&line).expect("parse");
        assert_eq!(back, spec.normalized());
        assert_eq!(back.sweep_id(), spec.sweep_id());
        // Omitted knob lists parse as empty.
        let terse = r#"{"program":"gawk","grids":[{"allocator":"BSD","min_shift":[4,5]}]}"#;
        let spec: SweepSpec = serde_json::from_str(terse).expect("parse terse");
        spec.validate().expect("valid");
        assert_eq!(spec.points().len(), 2);
    }

    #[test]
    fn axis_free_sweeps_never_serialize_axis_fields() {
        // The sweep-id namespace from before the axes existed must be
        // preserved: an axis-free spec's canonical line carries no
        // `programs`/`scales` keys at all.
        let line = demo().canonical_line();
        assert!(!line.contains("\"programs\""));
        assert!(!line.contains("\"scales\""));
    }

    #[test]
    fn workload_axes_cross_with_the_grids() {
        let spec = SweepSpec {
            programs: vec!["espresso".into(), "make".into()],
            scales: vec![0.002, 0.004],
            ..demo()
        };
        spec.validate().expect("axis sweep is valid");
        // 9 allocator points per (program, scale) cell, 4 cells.
        assert_eq!(spec.points().len(), 36);
        // Points iterate programs outermost, scales next.
        let points = spec.points();
        assert!(points[..9].iter().all(|p| p.program == "espresso" && p.scale == 0.002));
        assert!(points[9..18].iter().all(|p| p.program == "espresso" && p.scale == 0.004));
        assert!(points[18..].iter().all(|p| p.program == "make"));
    }

    #[test]
    fn singleton_axes_normalize_to_the_scalar_spelling() {
        let scalar = demo();
        let spelled =
            SweepSpec { programs: vec!["espresso".into()], scales: vec![0.002], ..demo() };
        assert_eq!(spelled.normalized(), scalar.normalized());
        assert_eq!(spelled.sweep_id(), scalar.sweep_id());
        // Multi-value axes pin the scalars to the first axis value, so
        // the scalar fields cannot smuggle in a distinct spelling.
        let a = SweepSpec {
            program: "make".into(),
            programs: vec!["make".into(), "espresso".into()],
            ..demo()
        };
        let b = SweepSpec {
            program: "espresso".into(),
            programs: vec!["espresso".into(), "make".into(), "make".into()],
            ..demo()
        };
        assert_eq!(a.sweep_id(), b.sweep_id());
        assert_eq!(a.points(), b.points());
    }

    #[test]
    fn axis_sweeps_validate_and_cap_like_scalar_ones() {
        let mut spec = SweepSpec { programs: vec!["espresso".into(), "tetris".into()], ..demo() };
        assert!(spec.validate().unwrap_err().to_string().contains("unknown program"));
        spec.programs = vec!["espresso".into(), "make".into(), "gawk".into()];
        // 9 declared grid points × 3 programs × 171 scales > 4096.
        spec.scales = (1..=171).map(|i| 0.001 * f64::from(i)).collect();
        assert!(spec.validate().unwrap_err().to_string().contains("points"));
    }

    #[test]
    fn axis_sweeps_round_trip_through_json() {
        let spec = SweepSpec {
            programs: vec!["make".into(), "espresso".into()],
            scales: vec![0.004, 0.002],
            ..demo()
        };
        let back: SweepSpec = serde_json::from_str(&spec.canonical_line()).expect("parse");
        assert_eq!(back, spec.normalized());
        assert_eq!(back.sweep_id(), spec.sweep_id());
        assert_eq!(back.programs, vec!["espresso".to_string(), "make".to_string()]);
        assert_eq!(back.scales, vec![0.002, 0.004]);
    }
}
