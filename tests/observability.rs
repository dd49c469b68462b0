//! The observability subsystem's two contracts, checked end to end:
//!
//! 1. **Recording observes, it never participates.** Attaching any
//!    recorder must leave the [`RunResult`] bit-identical to a
//!    recorder-free run, on every cache geometry shape (direct-mapped,
//!    associative, several block sizes).
//! 2. **The JSONL report schema is stable.** A [`RunReport`] emitted by
//!    an instrumented run round-trips through its JSONL encoding and
//!    passes its own validation.

use alloc_locality::RunReport;
use alloc_locality_repro::engine::{AllocChoice, Experiment, SimOptions};
use allocators::AllocatorKind;
use cache_sim::CacheConfig;
use obs::NullRecorder;
use workloads::{Program, Scale};

/// Geometry shapes the engine simulates, each with a label and the
/// number of single-pass sweeps it builds (one per block size, each
/// recording one `sink.sweep` consume span): the paper sweep, a
/// geometry with a 2-way member, and one mixing two block sizes.
fn geometries() -> [(Vec<CacheConfig>, &'static str, u64); 3] {
    [
        (CacheConfig::paper_sweep(), "the paper sweep", 1),
        (
            vec![
                CacheConfig::direct_mapped(16 * 1024, 32),
                CacheConfig::set_associative(64 * 1024, 32, 2),
            ],
            "a 2-way geometry",
            1,
        ),
        (
            vec![
                CacheConfig::direct_mapped(16 * 1024, 32),
                CacheConfig::set_associative(64 * 1024, 64, 2),
                CacheConfig::direct_mapped(32 * 1024, 32),
            ],
            "a mixed-block geometry",
            2,
        ),
    ]
}

/// The heavy configuration over `caches`: pager, victim buffer, three-C
/// analyzer, two-level hierarchy, fragmentation sampling — every shard
/// kind the engine can instrument.
fn full_opts(caches: Vec<CacheConfig>) -> SimOptions {
    SimOptions {
        cache_configs: caches,
        paging: true,
        victim_entries: Some(8),
        three_c: true,
        two_level: true,
        frag_sample_every: 64,
        scale: Scale(0.003),
        ..SimOptions::default()
    }
}

fn experiment(caches: Vec<CacheConfig>) -> Experiment {
    Experiment::new(Program::Espresso, AllocChoice::Paper(AllocatorKind::FirstFit))
        .options(full_opts(caches))
}

#[test]
fn recording_is_invisible_in_every_engine_and_pipeline_mode() {
    for (caches, shape, sweeps) in geometries() {
        let exp = experiment(caches);
        let plain = exp.run().expect("plain run");

        let mut null = NullRecorder;
        let with_null = exp.run_with_recorder(&mut null).expect("null-recorder run");
        assert_eq!(with_null, plain, "NullRecorder perturbed the result on {shape}");

        let report = exp.report().expect("instrumented run");
        let metrics = &report.metrics;
        assert_eq!(report.result, plain, "MemoryRecorder perturbed the result on {shape}");

        // The run it did not perturb, it did observe: one consume span
        // per block size, and no per-cache path.
        let sweep = metrics.span("sink.sweep").expect("sweep consume span");
        assert_eq!(sweep.count, sweeps, "one sink.sweep span per block size on {shape}");
        assert!(metrics.span("sink.cache").is_none(), "no per-cache shard on {shape}");
        let search = metrics.histogram("alloc.search_len").expect("search lengths");
        assert_eq!(
            search.count, plain.alloc_stats.mallocs,
            "one search-length sample per malloc on {shape}"
        );
        let coalesce = metrics.histogram("alloc.coalesce_per_free").expect("coalesce counts");
        assert_eq!(coalesce.count, plain.alloc_stats.frees);
        assert!(metrics.counter("ctx.flush.batches") > 0);
        assert!(metrics.counter("alloc.tag_writes") > 0, "FirstFit writes boundary tags");
        assert!(metrics.span("engine.drive").is_some(), "drive phase was timed");
    }
}

#[test]
fn extension_allocators_emit_full_reports() {
    // The recorder hooks must reach beyond the paper five: every
    // extension allocator's report carries the per-malloc search-length
    // and per-free coalesce histograms the schema demands, so served
    // jobs validate no matter which allocator they name.
    for choice in
        [AllocChoice::BestFit, AllocChoice::Buddy, AllocChoice::Custom, AllocChoice::Predictive]
    {
        let label = choice.label();
        let exp = Experiment::new(Program::Espresso, choice).options(SimOptions {
            cache_configs: vec![CacheConfig::direct_mapped(16 * 1024, 32)],
            paging: false,
            scale: Scale(0.002),
            ..SimOptions::default()
        });
        let report = exp.report().unwrap_or_else(|e| panic!("{label}: {e}"));
        report.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
        let search = report.metrics.histograms.get("alloc.search_len").expect("search histogram");
        assert_eq!(
            search.count, report.result.alloc_stats.mallocs,
            "{label}: one search-length sample per malloc"
        );
        let coalesce =
            report.metrics.histograms.get("alloc.coalesce_per_free").expect("coalesce histogram");
        assert_eq!(
            coalesce.count, report.result.alloc_stats.frees,
            "{label}: one coalesce sample per free"
        );
    }
}

#[test]
fn allocator_engine_counters_surface_through_the_recorder() {
    // The O(1) hot-path machinery must be visible to the recorder — and,
    // per the test above, invisible to the result. FirstFit probes its
    // size-class occupancy bitmap once per freelist search (one search
    // per malloc) and counts every boundary-tag merge.
    let report = experiment(CacheConfig::paper_sweep()).report().expect("instrumented run");
    let (result, metrics) = (&report.result, &report.metrics);
    assert_eq!(
        metrics.counter(obs::names::BITMAP_PROBE),
        result.alloc_stats.mallocs,
        "one occupancy-bitmap probe per FirstFit search"
    );
    assert_eq!(
        metrics.counter(obs::names::BOUNDARY_COALESCE),
        result.alloc_stats.coalesces,
        "one boundary-coalesce count per merge"
    );
    assert!(result.alloc_stats.coalesces > 0, "workload must exercise coalescing");

    // QuickFit pops warm quicklists; the hit counter covers exactly the
    // warm pops, a subset of the fast-path mallocs in its stats.
    let exp = Experiment::new(Program::Espresso, AllocChoice::Paper(AllocatorKind::QuickFit))
        .options(SimOptions {
            cache_configs: vec![CacheConfig::direct_mapped(16 * 1024, 32)],
            paging: false,
            scale: Scale(0.002),
            ..SimOptions::default()
        });
    let report = exp.report().expect("QuickFit instrumented run");
    let (result, metrics) = (&report.result, &report.metrics);
    let quick = metrics.counter(obs::names::QUICK_HIT);
    assert!(quick > 0, "warm quicklist pops must be counted");
    assert!(
        quick <= result.alloc_stats.quick_hits,
        "warm pops are a subset of fast-path mallocs ({quick} > {})",
        result.alloc_stats.quick_hits
    );
}

#[test]
fn tracing_is_invisible_in_every_engine_and_pipeline_mode() {
    // The hierarchical tracer rides the same Recorder contract, so it
    // inherits contract 1: a traced run must produce bit-identical
    // results — and, since the tracer embeds a MemoryRecorder, the same
    // flat metrics an instrumented run yields.
    for (caches, shape, _) in geometries() {
        let exp = experiment(caches);
        let plain = exp.run().expect("plain run");
        let plain_metrics = exp.report().expect("instrumented run").metrics;

        let mut tracer = obs::Tracer::new();
        let (traced, metrics) = exp.run_traced_with(&mut tracer).expect("traced run");
        let (_, trace) = tracer.finish("espresso/FirstFit".to_string());
        assert_eq!(traced, plain, "Tracer perturbed the result on {shape}");
        // Span *timings* are wall-clock and differ run to run; the
        // deterministic metric content must not differ.
        assert_eq!(
            metrics.counters, plain_metrics.counters,
            "span structure leaked into counters on {shape}"
        );
        assert_eq!(
            metrics.histograms, plain_metrics.histograms,
            "span structure leaked into histograms on {shape}"
        );
        assert_eq!(
            metrics.spans.keys().collect::<Vec<_>>(),
            plain_metrics.spans.keys().collect::<Vec<_>>(),
            "tracing changed which flat span timers exist on {shape}"
        );

        // The span tree is a valid v1 artifact...
        trace.validate().unwrap_or_else(|e| panic!("{shape}: invalid trace: {e}"));
        assert_eq!(trace.schema, obs::TRACE_SCHEMA);
        assert_eq!(trace.version, obs::TRACE_VERSION);
        assert_eq!(trace.dropped_spans, 0, "this workload is far under the span cap");

        // ...with the engine's phases present and correctly nested:
        // alloc_build and events are children of the drive phase.
        let drive = trace.span("engine.drive").expect("drive span");
        for child in ["engine.alloc_build", "engine.events"] {
            let span = trace.span(child).unwrap_or_else(|| panic!("{shape}: missing span {child}"));
            assert_eq!(span.parent, Some(drive.id), "{child} must nest under engine.drive");
        }
        assert!(trace.span("engine.finalize").is_some(), "finalize phase was traced");
        assert!(trace.span("ctx.flush").is_some(), "event flushes were traced");

        // The JSON line round-trips losslessly.
        let line = trace.to_json_line();
        assert!(!line.contains('\n'));
        let back = obs::TraceReport::parse(&line).expect("parse trace line");
        back.validate().expect("parsed trace validates");
        assert_eq!(back, trace);
    }
}

#[test]
fn run_report_round_trips_through_jsonl() {
    let report = experiment(CacheConfig::paper_sweep()).report().expect("instrumented run");
    report.validate().expect("fresh report validates");

    let line = report.to_jsonl_line();
    assert!(!line.contains('\n'), "a JSONL record must be one line");
    let back = RunReport::parse(&line).expect("parse emitted line");
    back.validate().expect("parsed report validates");
    assert_eq!(back, report, "JSONL round trip must be lossless");

    // The schema fields consumers route on are populated and consistent.
    assert_eq!(back.schema, alloc_locality::RUN_REPORT_SCHEMA);
    assert_eq!(back.version, alloc_locality::RUN_REPORT_VERSION);
    assert_eq!(back.program, back.result.program);
    assert_eq!(back.allocator, back.result.allocator);
}
