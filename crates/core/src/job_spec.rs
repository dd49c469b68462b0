//! Wire-format job specifications for the serving layer.
//!
//! A [`JobSpec`] is the JSON body a client POSTs to the simulation
//! daemon: one (program, allocator, cache geometry, scale) cell,
//! expressed with the same labels the paper's tables print. The spec is
//! *normalized* (defaults filled in) before anything else happens, so
//! two requests that mean the same run hash to the same
//! [`JobSpec::job_id`] — that content address is what makes the server's
//! result cache deduplicate identical re-submissions.
//!
//! Validation happens against the same vocabulary [`Experiment`] accepts:
//! a spec that passes [`JobSpec::validate`] always builds via
//! [`JobSpec::to_experiment`], and the run it describes is bit-identical
//! to the same experiment constructed by hand (the server adds nothing
//! to the simulation).

use allocators::bsd::BsdConfig;
use allocators::first_fit::FirstFitConfig;
use allocators::gnu_gxx::GnuGxxConfig;
use allocators::predictive::PredictiveConfig;
use allocators::quick_fit::QuickFitConfig;
use cache_sim::CacheConfig;
use serde::{Deserialize, Serialize};
use sim_mem::stream::fnv1a;
use std::fmt;
use workloads::{Program, Scale};

use crate::engine::{AllocChoice, Experiment, SimOptions, DEFAULT_SCALE};

/// Upper bound on the number of cache configurations one job may sweep.
pub const MAX_CACHE_CONFIGS: usize = 8;

/// Largest per-configuration cache size accepted, in kilobytes.
pub const MAX_CACHE_KB: u32 = 1024;

/// Largest workload scale accepted (1.0 = the paper's full counts).
pub const MAX_SCALE: f64 = 1.0;

/// Checks a workload scale: finite and in (0, [`MAX_SCALE`]]. The rule
/// [`JobSpec::validate`] applies, and every CLI's `--scale` with it.
///
/// # Errors
///
/// Names the scale and the accepted range.
pub fn check_scale(scale: f64) -> Result<(), SpecError> {
    if scale > 0.0 && scale <= MAX_SCALE && scale.is_finite() {
        Ok(())
    } else {
        Err(SpecError::new(format!("scale {scale} outside (0, {MAX_SCALE}]")))
    }
}

/// One simulation job as submitted to the daemon.
///
/// Optional fields default to the paper's setup: `scale` 0 means
/// [`DEFAULT_SCALE`], an empty `cache_kb` means the 16K–256K sweep,
/// `block` 0 means 32-byte lines, `paging` omitted means on, and
/// `alloc_config` omitted means the paper's allocator parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Program label as the paper prints it ("espresso", "GS", "ptc",
    /// "gawk", "make", "GS-Small", "GS-Medium").
    pub program: String,
    /// Allocator label ("FirstFit", "QuickFit", "GNU G++", "BSD",
    /// "GNU local") or one of the extension allocators ("BestFit",
    /// "Buddy", "Custom", "Predictive").
    pub allocator: String,
    /// Workload scale in (0, 1]; 0/omitted selects [`DEFAULT_SCALE`].
    #[serde(default)]
    pub scale: f64,
    /// Direct-mapped cache sizes to sweep, in KB; empty/omitted selects
    /// the paper's 16K–256K sweep.
    #[serde(default)]
    pub cache_kb: Vec<u32>,
    /// Cache block size in bytes; 0/omitted selects the paper's 32.
    #[serde(default)]
    pub block: u32,
    /// Whether to run the LRU stack-distance pager; omitted means true.
    #[serde(default)]
    pub paging: Option<bool>,
    /// Allocator tuning knobs; omitted means the paper's parameters for
    /// the chosen allocator. Serialized only when present: a permanent
    /// `"alloc_config":null` would change the canonical line, and so
    /// the [`JobSpec::job_id`], of every spec that predates the field.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub alloc_config: Option<AllocConfig>,
}

/// Allocator tuning knobs carried by a [`JobSpec`].
///
/// Every knob is optional; an absent knob means the paper's value for
/// the chosen allocator. Each knob applies only to the families that
/// expose it — [`JobSpec::validate`] rejects the rest:
///
/// | knob | allocators |
/// |---|---|
/// | `split_threshold` | FirstFit, GNU G++ |
/// | `coalesce` | FirstFit, GNU G++ |
/// | `roving` | FirstFit |
/// | `fast_max` | QuickFit |
/// | `min_shift` | BSD |
/// | `short_age` | Predictive |
///
/// Only set knobs are serialized, so a config names exactly the knobs
/// it changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocConfig {
    /// Minimum remainder payload for a split (FirstFit, GNU G++).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub split_threshold: Option<u32>,
    /// Whether `free` coalesces adjacent blocks (FirstFit, GNU G++).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub coalesce: Option<bool>,
    /// Whether the search pointer roves (FirstFit).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub roving: Option<bool>,
    /// Largest payload served from the exact-size fast lists (QuickFit).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fast_max: Option<u32>,
    /// log2 of the smallest rounding class (BSD).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub min_shift: Option<u32>,
    /// Working-set clock: frees younger than this are "short" (Predictive).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub short_age: Option<u32>,
}

/// Largest accepted `split_threshold`, in bytes.
pub const MAX_SPLIT_THRESHOLD: u32 = 4096;

/// Largest accepted QuickFit fast-list payload bound, in bytes.
pub const MAX_FAST_MAX: u32 = 1024;

/// Largest accepted BSD `min_shift` (2^12 = one page).
pub const MAX_MIN_SHIFT: u32 = 12;

impl AllocConfig {
    /// True when no knob is set.
    pub fn is_empty(&self) -> bool {
        *self == AllocConfig::default()
    }

    /// Drops knobs equal to the paper's value for `allocator` — and the
    /// whole config when nothing remains — so an explicitly-defaulted
    /// config hashes identically to no config at all.
    pub fn normalized_for(&self, allocator: &str) -> Option<AllocConfig> {
        fn drop_eq<T: PartialEq>(knob: &mut Option<T>, default: T) {
            if knob.as_ref() == Some(&default) {
                *knob = None;
            }
        }
        let mut c = *self;
        match allocator {
            "FirstFit" => {
                let d = FirstFitConfig::default();
                drop_eq(&mut c.split_threshold, d.split_threshold);
                drop_eq(&mut c.coalesce, d.coalesce);
                drop_eq(&mut c.roving, d.roving);
            }
            "GNU G++" => {
                let d = GnuGxxConfig::default();
                drop_eq(&mut c.split_threshold, d.split_threshold);
                drop_eq(&mut c.coalesce, d.coalesce);
            }
            "QuickFit" => drop_eq(&mut c.fast_max, QuickFitConfig::default().fast_max),
            "BSD" => drop_eq(&mut c.min_shift, BsdConfig::default().min_shift),
            "Predictive" => drop_eq(&mut c.short_age, PredictiveConfig::default().short_age),
            _ => {}
        }
        if c.is_empty() {
            None
        } else {
            Some(c)
        }
    }

    /// Checks every set knob against the family that owns it and its
    /// accepted range.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the first rejected knob.
    pub fn validate_for(&self, allocator: &str) -> Result<(), SpecError> {
        let allowed: &[&str] = match allocator {
            "FirstFit" => &["split_threshold", "coalesce", "roving"],
            "GNU G++" => &["split_threshold", "coalesce"],
            "QuickFit" => &["fast_max"],
            "BSD" => &["min_shift"],
            "Predictive" => &["short_age"],
            _ => &[],
        };
        let set = [
            ("split_threshold", self.split_threshold.is_some()),
            ("coalesce", self.coalesce.is_some()),
            ("roving", self.roving.is_some()),
            ("fast_max", self.fast_max.is_some()),
            ("min_shift", self.min_shift.is_some()),
            ("short_age", self.short_age.is_some()),
        ];
        for (name, present) in set {
            if present && !allowed.contains(&name) {
                return Err(SpecError::new(format!(
                    "knob {name:?} does not apply to allocator {allocator:?}"
                )));
            }
        }
        if let Some(t) = self.split_threshold {
            if t > MAX_SPLIT_THRESHOLD {
                return Err(SpecError::new(format!(
                    "split_threshold {t} exceeds {MAX_SPLIT_THRESHOLD}"
                )));
            }
        }
        if let Some(m) = self.fast_max {
            if !(4..=MAX_FAST_MAX).contains(&m) || m % 4 != 0 {
                return Err(SpecError::new(format!(
                    "fast_max {m} is not a multiple of 4 in 4..={MAX_FAST_MAX}"
                )));
            }
        }
        if let Some(s) = self.min_shift {
            if !(3..=MAX_MIN_SHIFT).contains(&s) {
                return Err(SpecError::new(format!("min_shift {s} outside 3..={MAX_MIN_SHIFT}")));
            }
        }
        if self.short_age == Some(0) {
            return Err(SpecError::new("short_age must be positive"));
        }
        Ok(())
    }

    /// The tuned [`AllocChoice`] this config selects for `allocator`;
    /// unset knobs take the paper's value. `None` for families with no
    /// tunable knobs.
    pub fn to_choice(&self, allocator: &str) -> Option<AllocChoice> {
        match allocator {
            "FirstFit" => {
                let d = FirstFitConfig::default();
                Some(AllocChoice::FirstFitTuned(FirstFitConfig {
                    split_threshold: self.split_threshold.unwrap_or(d.split_threshold),
                    coalesce: self.coalesce.unwrap_or(d.coalesce),
                    roving: self.roving.unwrap_or(d.roving),
                }))
            }
            "GNU G++" => {
                let d = GnuGxxConfig::default();
                Some(AllocChoice::GnuGxxTuned(GnuGxxConfig {
                    split_threshold: self.split_threshold.unwrap_or(d.split_threshold),
                    coalesce: self.coalesce.unwrap_or(d.coalesce),
                }))
            }
            "QuickFit" => Some(AllocChoice::QuickFitTuned(QuickFitConfig {
                fast_max: self.fast_max.unwrap_or(QuickFitConfig::default().fast_max),
            })),
            "BSD" => Some(AllocChoice::BsdTuned(BsdConfig {
                min_shift: self.min_shift.unwrap_or(BsdConfig::default().min_shift),
            })),
            "Predictive" => Some(AllocChoice::PredictiveTuned(PredictiveConfig {
                short_age: self.short_age.unwrap_or(PredictiveConfig::default().short_age),
            })),
            _ => None,
        }
    }
}

/// Why a [`JobSpec`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

impl SpecError {
    /// A rejection with the given human-readable reason.
    pub fn new(msg: impl Into<String>) -> Self {
        SpecError(msg.into())
    }
}

/// Programs the serving layer accepts, by paper label.
pub const SERVABLE_PROGRAMS: [Program; 7] = [
    Program::Espresso,
    Program::GsLarge,
    Program::Ptc,
    Program::Gawk,
    Program::Make,
    Program::GsSmall,
    Program::GsMedium,
];

/// Allocator labels the serving layer accepts: the paper five plus the
/// extension allocators that also emit full run reports.
pub const SERVABLE_ALLOCATORS: [&str; 9] = [
    "FirstFit",
    "QuickFit",
    "GNU G++",
    "BSD",
    "GNU local",
    "BestFit",
    "Buddy",
    "Custom",
    "Predictive",
];

/// Resolves a paper label to its [`Program`].
pub fn program_by_label(label: &str) -> Option<Program> {
    SERVABLE_PROGRAMS.into_iter().find(|p| p.label() == label)
}

/// Resolves an allocator label to its [`AllocChoice`].
pub fn allocator_by_label(label: &str) -> Option<AllocChoice> {
    use allocators::AllocatorKind;
    match label {
        "BestFit" => Some(AllocChoice::BestFit),
        "Buddy" => Some(AllocChoice::Buddy),
        "Custom" => Some(AllocChoice::Custom),
        "Predictive" => Some(AllocChoice::Predictive),
        _ => AllocatorKind::ALL.into_iter().find(|k| k.label() == label).map(AllocChoice::Paper),
    }
}

impl JobSpec {
    /// A spec for one cell with every option defaulted.
    pub fn cell(program: &str, allocator: &str, scale: f64) -> Self {
        JobSpec {
            program: program.to_string(),
            allocator: allocator.to_string(),
            scale,
            cache_kb: Vec::new(),
            block: 0,
            paging: None,
            alloc_config: None,
        }
    }

    /// The spec with every omitted field replaced by its default, so
    /// equivalent requests serialize (and therefore hash) identically.
    pub fn normalized(&self) -> JobSpec {
        JobSpec {
            program: self.program.clone(),
            allocator: self.allocator.clone(),
            scale: if self.scale <= 0.0 { DEFAULT_SCALE.0 } else { self.scale },
            cache_kb: if self.cache_kb.is_empty() {
                vec![16, 32, 64, 128, 256]
            } else {
                self.cache_kb.clone()
            },
            block: if self.block == 0 { CacheConfig::PAPER_BLOCK } else { self.block },
            paging: Some(self.paging.unwrap_or(true)),
            alloc_config: self
                .alloc_config
                .as_ref()
                .and_then(|c| c.normalized_for(&self.allocator)),
        }
    }

    /// Checks the spec against the engine's vocabulary and limits.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the first rejected field.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.normalized().validate_normalized()
    }

    /// [`JobSpec::validate`]'s checks on a spec already normalized.
    fn validate_normalized(&self) -> Result<(), SpecError> {
        if program_by_label(&self.program).is_none() {
            return Err(SpecError::new(format!(
                "unknown program {:?}; expected one of {}",
                self.program,
                SERVABLE_PROGRAMS.map(Program::label).join(", ")
            )));
        }
        if allocator_by_label(&self.allocator).is_none() {
            return Err(SpecError::new(format!(
                "unknown allocator {:?}; expected one of {}",
                self.allocator,
                SERVABLE_ALLOCATORS.join(", ")
            )));
        }
        if let Some(cfg) = &self.alloc_config {
            cfg.validate_for(&self.allocator)?;
        }
        check_scale(self.scale)?;
        if self.cache_kb.len() > MAX_CACHE_CONFIGS {
            return Err(SpecError::new(format!(
                "{} cache configurations exceed the limit of {MAX_CACHE_CONFIGS}",
                self.cache_kb.len()
            )));
        }
        if !self.block.is_power_of_two() || !(8..=256).contains(&self.block) {
            return Err(SpecError::new(format!(
                "block size {} is not a power of two in 8..=256",
                self.block
            )));
        }
        for &kb in &self.cache_kb {
            if kb == 0 || kb > MAX_CACHE_KB || !kb.is_power_of_two() {
                return Err(SpecError::new(format!(
                    "cache size {kb}K is not a power of two in 1..={MAX_CACHE_KB}"
                )));
            }
            if kb * 1024 < self.block {
                return Err(SpecError::new(format!(
                    "cache size {kb}K is smaller than one {}-byte block",
                    self.block
                )));
            }
        }
        Ok(())
    }

    /// The canonical single-line JSON of the normalized spec — the bytes
    /// the content hash covers.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails, which for this in-memory struct
    /// would be a serializer bug.
    pub fn canonical_line(&self) -> String {
        serde_json::to_string(&self.normalized()).expect("serialize job spec")
    }

    /// Content-addressed job id: FNV-1a over [`JobSpec::canonical_line`],
    /// printed as 16 hex digits. Identical runs — however their optional
    /// fields were spelled — share an id.
    pub fn job_id(&self) -> String {
        format!("{:016x}", fnv1a(self.canonical_line().as_bytes()))
    }

    /// Builds the experiment this spec describes: the allocator (tuned
    /// when `alloc_config` is set), workload and cache geometry of the
    /// normalized spec. Every run of a spec, served, swept or direct,
    /// is built here.
    ///
    /// # Errors
    ///
    /// Returns the same [`SpecError`] as [`JobSpec::validate`].
    pub fn to_experiment(&self) -> Result<Experiment, SpecError> {
        let n = self.normalized();
        n.validate_normalized()?;
        let choice = match &n.alloc_config {
            Some(cfg) => cfg.to_choice(&n.allocator),
            None => allocator_by_label(&n.allocator),
        };
        let program = program_by_label(&n.program).expect("validated");
        let opts = SimOptions {
            cache_configs: n
                .cache_kb
                .iter()
                .map(|&kb| CacheConfig::direct_mapped(kb * 1024, n.block))
                .collect(),
            paging: n.paging.unwrap_or(true),
            scale: Scale(n.scale),
            ..SimOptions::default()
        };
        Ok(Experiment::new(program, choice.expect("validated")).options(opts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_normalize_to_the_paper_setup() {
        let spec = JobSpec::cell("espresso", "FirstFit", 0.0);
        let n = spec.normalized();
        assert_eq!(n.scale, DEFAULT_SCALE.0);
        assert_eq!(n.cache_kb, vec![16, 32, 64, 128, 256]);
        assert_eq!(n.block, 32);
        assert_eq!(n.paging, Some(true));
        spec.validate().expect("defaulted spec is valid");
    }

    #[test]
    fn equivalent_spellings_share_a_job_id() {
        let implicit = JobSpec::cell("gawk", "BSD", 0.0);
        let explicit = JobSpec {
            program: "gawk".into(),
            allocator: "BSD".into(),
            scale: DEFAULT_SCALE.0,
            cache_kb: vec![16, 32, 64, 128, 256],
            block: 32,
            paging: Some(true),
            alloc_config: None,
        };
        assert_eq!(implicit.job_id(), explicit.job_id());
        assert_ne!(implicit.job_id(), JobSpec::cell("make", "BSD", 0.0).job_id());
        assert_ne!(implicit.job_id(), JobSpec::cell("gawk", "FirstFit", 0.0).job_id());
    }

    #[test]
    fn job_ids_are_pinned() {
        // Job ids name the report cache's files and appear in served
        // sweep reports, so a change to the hashing must not move them.
        assert_eq!(JobSpec::cell("espresso", "GNU local", 0.005).job_id(), "52e6703b52c4bd90");
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        let bad = |f: fn(&mut JobSpec)| {
            let mut s = JobSpec::cell("espresso", "BSD", 0.005);
            f(&mut s);
            s.validate().unwrap_err().to_string()
        };
        assert!(bad(|s| s.program = "tetris".into()).contains("unknown program"));
        assert!(bad(|s| s.allocator = "jemalloc".into()).contains("unknown allocator"));
        assert!(bad(|s| s.scale = 2.0).contains("scale"));
        assert!(bad(|s| s.scale = f64::NAN).contains("scale"));
        assert!(bad(|s| s.cache_kb = vec![48]).contains("power of two"));
        assert!(bad(|s| s.cache_kb = vec![4096]).contains("power of two"));
        assert!(bad(|s| s.cache_kb = vec![16; 9]).contains("limit"));
        assert!(bad(|s| s.block = 48).contains("block"));
    }

    #[test]
    fn every_servable_label_resolves() {
        for p in SERVABLE_PROGRAMS {
            assert!(program_by_label(p.label()).is_some(), "{}", p.label());
        }
        for a in SERVABLE_ALLOCATORS {
            assert!(allocator_by_label(a).is_some(), "{a}");
        }
    }

    #[test]
    fn spec_builds_the_experiment_it_describes() {
        let spec = JobSpec {
            cache_kb: vec![16],
            paging: Some(false),
            ..JobSpec::cell("make", "QuickFit", 0.002)
        };
        let r = spec.to_experiment().unwrap().run().unwrap();
        assert_eq!(r.program, "make");
        assert_eq!(r.allocator, "QuickFit");
        assert_eq!(r.scale, 0.002);
        assert_eq!(r.cache.len(), 1);
        assert!(r.fault_curve.is_none());
    }

    #[test]
    fn spec_round_trips_through_json_with_unknown_fields_ignored() {
        let line = r#"{"program":"ptc","allocator":"GNU local","scale":0.01,"future":true}"#;
        let spec: JobSpec = serde_json::from_str(line).expect("parse");
        assert_eq!(spec.program, "ptc");
        assert_eq!(spec.allocator, "GNU local");
        assert_eq!(spec.scale, 0.01);
        spec.validate().expect("valid");
    }

    #[test]
    fn specs_without_alloc_config_keep_their_pre_field_canonical_line() {
        // The exact bytes canonical_line() produced before alloc_config
        // existed. A change here renumbers every persisted job id.
        let spec = JobSpec::cell("espresso", "FirstFit", 0.0);
        assert_eq!(
            spec.canonical_line(),
            r#"{"program":"espresso","allocator":"FirstFit","scale":0.02,"cache_kb":[16,32,64,128,256],"block":32,"paging":true}"#
        );
        assert!(!spec.canonical_line().contains("alloc_config"));
    }

    #[test]
    fn explicit_default_knobs_hash_like_no_config_at_all() {
        let plain = JobSpec::cell("espresso", "FirstFit", 0.0);
        let defaulted = JobSpec {
            alloc_config: Some(AllocConfig {
                split_threshold: Some(24),
                coalesce: Some(true),
                roving: Some(true),
                ..AllocConfig::default()
            }),
            ..plain.clone()
        };
        assert_eq!(plain.job_id(), defaulted.job_id());
        let tuned = JobSpec {
            alloc_config: Some(AllocConfig { split_threshold: Some(16), ..AllocConfig::default() }),
            ..plain.clone()
        };
        assert_ne!(plain.job_id(), tuned.job_id());
    }

    #[test]
    fn alloc_config_round_trips_and_parses_from_json() {
        let line = r#"{"program":"gawk","allocator":"QuickFit","alloc_config":{"fast_max":64}}"#;
        let spec: JobSpec = serde_json::from_str(line).expect("parse");
        assert_eq!(spec.alloc_config.unwrap().fast_max, Some(64));
        spec.validate().expect("valid");
        let reparsed: JobSpec = serde_json::from_str(&spec.canonical_line()).expect("reparse");
        assert_eq!(reparsed.job_id(), spec.job_id());
        assert_eq!(reparsed.alloc_config.unwrap().fast_max, Some(64));
    }

    #[test]
    fn knobs_foreign_to_the_family_are_rejected() {
        let with = |cfg: AllocConfig, alloc: &str| {
            let mut s = JobSpec::cell("espresso", alloc, 0.002);
            s.alloc_config = Some(cfg);
            s.validate()
        };
        let fast = AllocConfig { fast_max: Some(64), ..AllocConfig::default() };
        assert!(with(fast, "QuickFit").is_ok());
        assert!(with(fast, "FirstFit").unwrap_err().to_string().contains("fast_max"));
        assert!(with(fast, "BSD").unwrap_err().to_string().contains("fast_max"));
        let split = AllocConfig { split_threshold: Some(48), ..AllocConfig::default() };
        assert!(with(split, "FirstFit").is_ok());
        assert!(with(split, "GNU G++").is_ok());
        assert!(with(split, "Predictive").unwrap_err().to_string().contains("split_threshold"));
        let roving = AllocConfig { roving: Some(false), ..AllocConfig::default() };
        assert!(with(roving, "FirstFit").is_ok());
        assert!(with(roving, "GNU G++").unwrap_err().to_string().contains("roving"));
    }

    #[test]
    fn out_of_range_knobs_are_rejected() {
        let with = |cfg: AllocConfig, alloc: &str| {
            let mut s = JobSpec::cell("espresso", alloc, 0.002);
            s.alloc_config = Some(cfg);
            s.validate().unwrap_err().to_string()
        };
        let c = |f: fn(&mut AllocConfig)| {
            let mut cfg = AllocConfig::default();
            f(&mut cfg);
            cfg
        };
        assert!(with(c(|c| c.fast_max = Some(30)), "QuickFit").contains("multiple of 4"));
        assert!(with(c(|c| c.fast_max = Some(2048)), "QuickFit").contains("multiple of 4"));
        assert!(with(c(|c| c.min_shift = Some(2)), "BSD").contains("min_shift"));
        assert!(with(c(|c| c.min_shift = Some(13)), "BSD").contains("min_shift"));
        assert!(with(c(|c| c.short_age = Some(0)), "Predictive").contains("short_age"));
        assert!(with(c(|c| c.split_threshold = Some(8192)), "FirstFit").contains("split_threshold"));
    }

    #[test]
    fn tuned_spec_builds_the_tuned_experiment() {
        let mut spec = JobSpec { cache_kb: vec![16], ..JobSpec::cell("make", "BSD", 0.002) };
        spec.alloc_config = Some(AllocConfig { min_shift: Some(6), ..AllocConfig::default() });
        let r = spec.to_experiment().unwrap().run().unwrap();
        assert_eq!(r.allocator, "BSD(min_shift=6)");
        // Coarser classes grant strictly more than the paper's BSD.
        let base = JobSpec { cache_kb: vec![16], ..JobSpec::cell("make", "BSD", 0.002) }
            .to_experiment()
            .unwrap()
            .run()
            .unwrap();
        assert!(r.alloc_stats.peak_granted > base.alloc_stats.peak_granted);
    }
}
