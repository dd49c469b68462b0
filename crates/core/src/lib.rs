//! `alloc-locality`: the experiment engine reproducing *Improving the
//! Cache Locality of Memory Allocation* (Grunwald, Zorn & Henderson,
//! PLDI 1993).
//!
//! The engine drives a synthetic application model ([`workloads`]) against
//! an instrumented allocator ([`allocators`]), feeding every resulting
//! data reference — the application's object touches and the allocator's
//! own metadata traffic — through a cache-simulator bank ([`cache_sim`])
//! and an LRU stack-distance pager ([`vm_sim`]) in a single pass, exactly
//! as the paper's PIXIE + TYCHO + VMSIM pipeline did.
//!
//! Entry points:
//!
//! * [`Experiment`] — builder for one (program, allocator, simulator)
//!   run, producing a [`RunResult`].
//! * [`run_many`] — any job list on a worker pool, each job through
//!   [`Experiment::run`], [`Experiment::report`] or a caller's closure;
//!   [`run_parallel`] and [`standard_matrix`] (the paper's 5×5
//!   program/allocator sweep) wrap it.
//! * [`experiments`] — one function per table and figure of the paper's
//!   evaluation, consuming a [`Matrix`] and producing printable,
//!   serializable result structs.
//!
//! # Example
//!
//! ```
//! use alloc_locality::{AllocChoice, Experiment};
//! use allocators::AllocatorKind;
//! use workloads::{Program, Scale};
//!
//! # fn main() -> Result<(), alloc_locality::EngineError> {
//! let result = Experiment::new(Program::Make, AllocChoice::Paper(AllocatorKind::Bsd))
//!     .scale(Scale(0.01))
//!     .run()?;
//! assert!(result.instrs.total() > 0);
//! assert!(result.alloc_stats.mallocs > 0);
//! # Ok(())
//! # }
//! ```

pub mod chart;
pub mod engine;
pub mod experiments;
pub mod job_spec;
pub mod model;
pub mod report;
pub mod run_report;

pub use engine::{
    default_threads, profile_from_events, run_many, run_parallel, sample_profile, standard_matrix,
    AllocChoice, EngineError, EventFault, Experiment, FragSample, Matrix, RunResult, SimOptions,
    WorkloadSource,
};
pub use job_spec::{AllocConfig, JobSpec, SpecError};
pub use model::{estimated_cycles, estimated_seconds, CLOCK_HZ, MISS_PENALTY_CYCLES};
pub use run_report::{RunReport, RUN_REPORT_SCHEMA, RUN_REPORT_VERSION};
