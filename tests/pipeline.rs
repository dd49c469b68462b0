//! Cross-crate integration tests: the full pipeline (workload model →
//! instrumented allocator → cache bank + pager) holds its conservation
//! and determinism invariants for every allocator and program.

use alloc_locality_repro::engine::{AllocChoice, Experiment, SimOptions};
use allocators::AllocatorKind;
use cache_sim::CacheConfig;
use workloads::{Program, Scale};

fn quick_opts(scale: f64) -> SimOptions {
    SimOptions {
        cache_configs: vec![
            CacheConfig::direct_mapped(16 * 1024, 32),
            CacheConfig::direct_mapped(64 * 1024, 32),
        ],
        paging: true,
        scale: Scale(scale),
        ..SimOptions::default()
    }
}

#[test]
fn every_allocator_completes_every_program() {
    for program in Program::FIVE {
        for kind in AllocatorKind::ALL {
            let r = Experiment::new(program, AllocChoice::Paper(kind))
                .options(quick_opts(0.001))
                .run()
                .unwrap_or_else(|e| panic!("{program}/{kind}: {e}"));
            assert!(r.alloc_stats.mallocs > 0, "{program}/{kind}: no allocations");
            assert!(r.heap_high_water > 0);
            assert!(r.instrs.total() > 0);
        }
    }
}

#[test]
fn reference_conservation_across_simulators() {
    // Every reference the counting sink sees must reach both caches and
    // the pager: totals line up.
    let r = Experiment::new(Program::Make, AllocChoice::Paper(AllocatorKind::QuickFit))
        .options(quick_opts(0.01))
        .run()
        .expect("runs");
    let word_refs = r.data_refs();
    for (cfg, stats) in &r.cache {
        assert_eq!(
            stats.accesses(),
            word_refs,
            "cache {cfg} saw a different word count than the trace"
        );
        assert!(stats.misses() > 0, "a finite cache must miss sometimes");
        assert!(stats.cold_misses <= stats.misses());
    }
    let curve = r.fault_curve.as_ref().expect("paging enabled");
    assert!(curve.accesses > 0);
    // The pager sees page-granular touches: at least one per trace record
    // is impossible to assert exactly, but it cannot exceed word refs.
    assert!(curve.accesses <= word_refs);
}

#[test]
fn cache_miss_rates_fall_with_size() {
    let r = Experiment::new(Program::Espresso, AllocChoice::Paper(AllocatorKind::FirstFit))
        .options(quick_opts(0.005))
        .run()
        .expect("runs");
    let m16 = r.miss_rate(CacheConfig::direct_mapped(16 * 1024, 32)).expect("16K");
    let m64 = r.miss_rate(CacheConfig::direct_mapped(64 * 1024, 32)).expect("64K");
    assert!(m64 < m16, "64K ({m64}) should miss less than 16K ({m16})");
}

#[test]
fn pager_curve_covers_the_heap() {
    let r = Experiment::new(Program::Gawk, AllocChoice::Paper(AllocatorKind::Bsd))
        .options(quick_opts(0.005))
        .run()
        .expect("runs");
    let curve = r.fault_curve.as_ref().expect("paging enabled");
    let frames_needed = curve.working_set_frames();
    // The working set cannot exceed the heap (plus the stack segment).
    let heap_frames = r.heap_high_water.div_ceil(4096) + 2;
    assert!(
        frames_needed <= heap_frames,
        "working set {frames_needed} frames vs heap {heap_frames}"
    );
    // With the full heap resident, only compulsory faults remain.
    let floor = curve.faults(heap_frames);
    assert!(floor < curve.faults(1));
}

#[test]
fn full_pipeline_is_deterministic() {
    let run = || {
        Experiment::new(Program::GsSmall, AllocChoice::Paper(AllocatorKind::GnuLocal))
            .options(quick_opts(0.002))
            .run()
            .expect("runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.instrs, b.instrs);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.heap_high_water, b.heap_high_water);
    assert_eq!(a.cache, b.cache);
    assert_eq!(
        a.fault_curve.as_ref().expect("paging").points,
        b.fault_curve.as_ref().expect("paging").points
    );
}

#[test]
fn sweep_engine_matches_per_cache_bit_for_bit() {
    // The engine builds one single-pass sweep per block size: the
    // paper's five direct-mapped configurations share one, and
    // appending a 64-byte-block member makes the engine build a second
    // sweep beside it. The five shared configurations must come out
    // bit-identical either way, in configuration order, with every
    // other shard kind attached and unaffected.
    let run = |cache_configs: Vec<CacheConfig>| {
        let opts = SimOptions {
            cache_configs,
            victim_entries: Some(8),
            three_c: true,
            two_level: true,
            frag_sample_every: 64,
            ..quick_opts(0.003)
        };
        Experiment::new(Program::Espresso, AllocChoice::Paper(AllocatorKind::FirstFit))
            .options(opts)
            .run()
            .expect("runs")
    };

    let sweep = run(CacheConfig::paper_sweep());
    let mut two_sweep_configs = CacheConfig::paper_sweep();
    let wide_block = CacheConfig::direct_mapped(64 * 1024, 64);
    two_sweep_configs.push(wide_block);
    let two_sweeps = run(two_sweep_configs);
    assert_eq!(sweep.cache.len(), 5);
    assert_eq!(two_sweeps.cache.len(), 6);
    assert_eq!(sweep.cache[..], two_sweeps.cache[..5], "cache stats diverged");
    assert_eq!(two_sweeps.cache[5].0, wide_block, "results come back in configuration order");
    assert_eq!(sweep.instrs, two_sweeps.instrs);
    assert_eq!(sweep.trace, two_sweeps.trace);
    assert_eq!(sweep.fault_curve, two_sweeps.fault_curve);
    assert_eq!(sweep.victim, two_sweeps.victim);
    assert_eq!(sweep.three_c, two_sweeps.three_c);
    assert_eq!(sweep.two_level, two_sweeps.two_level);
    assert_eq!(sweep.frag_curve, two_sweeps.frag_curve);
    assert_eq!(sweep.heap_high_water, two_sweeps.heap_high_water);
    assert_eq!(sweep.alloc_stats, two_sweeps.alloc_stats);
}

#[test]
fn captured_stream_replays_into_components_identically() {
    // The oracle for the engine's sinks, and what trace-tool leans on:
    // a stream captured once through drive_into, replayed directly into
    // each component — the per-cache bank, the single-pass sweep, the
    // pager, and the extension analyzers — reproduces a normal engine
    // run bit for bit. Each component is fed the stream twice: as runs,
    // and one reference at a time, which no run-length fast path sees. The inputs cover a direct-mapped
    // geometry, one with a 2-way member (which the sweep simulates with
    // its LRU pass) and the full shard set over the paper sweep, with
    // fragmentation sampling on; the sweep and the bank must agree with
    // each other and with the engine on every one.
    use cache_sim::{CacheBank, SweepCache, ThreeCAnalyzer, TwoLevelCache, VictimCache};
    use sim_mem::stream::expand_runs;
    use sim_mem::{AccessSink, CountingSink, MemRef, RefRun};
    use vm_sim::StackSim;

    /// The stream a run generates, batch for batch.
    #[derive(Default)]
    struct Runs(Vec<RefRun>);

    impl AccessSink for Runs {
        fn record(&mut self, r: MemRef) {
            self.0.push(RefRun::once(r));
        }

        fn record_runs(&mut self, runs: &[RefRun]) {
            self.0.extend_from_slice(runs);
        }
    }

    fn one_at_a_time<S: AccessSink>(mut sink: S, refs: &[MemRef]) -> S {
        for &r in refs {
            sink.record(r);
        }
        sink
    }

    let full = SimOptions {
        cache_configs: CacheConfig::paper_sweep(),
        victim_entries: Some(8),
        three_c: true,
        two_level: true,
        frag_sample_every: 64,
        ..quick_opts(0.003)
    };
    let two_way = SimOptions {
        cache_configs: vec![
            CacheConfig::direct_mapped(16 * 1024, 32),
            CacheConfig::set_associative(64 * 1024, 32, 2),
        ],
        ..quick_opts(0.003)
    };
    let inputs = [
        (Program::Gawk, AllocatorKind::Bsd, quick_opts(0.003), false),
        (Program::Make, AllocatorKind::QuickFit, two_way, false),
        (Program::Espresso, AllocatorKind::FirstFit, full, true),
    ];
    for (program, kind, opts, every_shard) in inputs {
        let exp = Experiment::new(program, AllocChoice::Paper(kind)).options(opts);
        let engine = exp.run().expect("engine run");
        let mut captured = Runs::default();
        exp.drive_into(&mut captured).expect("capture");
        let runs = captured.0;
        let label = format!("{program}/{kind}");
        let refs = expand_runs(&runs);
        assert!(
            runs.iter().any(|run| run.count > 1 && !run.r.single_block(32)),
            "{label}: no repeated run spans blocks, so no span fast path runs"
        );

        let mut counting = CountingSink::new();
        counting.record_runs(&runs);
        assert_eq!(counting.stats(), engine.trace, "{label}: reference counts");

        let configs: Vec<CacheConfig> = engine.cache.iter().map(|&(c, _)| c).collect();
        let mut bank = CacheBank::new(configs.iter().copied());
        bank.record_runs(&runs);
        assert_eq!(bank.results(), engine.cache, "{label}: per-cache bank");
        let bank = one_at_a_time(CacheBank::new(configs.iter().copied()), &refs);
        assert_eq!(bank.results(), engine.cache, "{label}: per-cache bank, one at a time");

        let sweep = || {
            SweepCache::try_new(configs.iter().copied())
                .unwrap_or_else(|| panic!("{label}: the sweep accepts one block size, any ways"))
        };
        let mut runs_sweep = sweep();
        runs_sweep.record_runs(&runs);
        assert_eq!(runs_sweep.results(), engine.cache, "{label}: single-pass sweep");
        let refs_sweep = one_at_a_time(sweep(), &refs);
        assert_eq!(refs_sweep.results(), engine.cache, "{label}: sweep, one at a time");

        let mut pager = StackSim::paper();
        pager.record_runs(&runs);
        assert_eq!(Some(pager.curve()), engine.fault_curve, "{label}: pager");
        let pager = one_at_a_time(StackSim::paper(), &refs);
        assert_eq!(Some(pager.curve()), engine.fault_curve, "{label}: pager, one at a time");

        if every_shard {
            let first = configs[0];
            let mut victim = VictimCache::new(first, 8);
            victim.record_runs(&runs);
            assert_eq!(Some(*victim.stats()), engine.victim, "{label}: victim buffer");
            let victim = one_at_a_time(VictimCache::new(first, 8), &refs);
            assert_eq!(Some(*victim.stats()), engine.victim, "{label}: victim, one at a time");
            let mut three_c = ThreeCAnalyzer::new(first);
            three_c.record_runs(&runs);
            assert_eq!(Some(three_c.classify()), engine.three_c, "{label}: three-C");
            let three_c = one_at_a_time(ThreeCAnalyzer::new(first), &refs);
            assert_eq!(Some(three_c.classify()), engine.three_c, "{label}: three-C, one at a time");
            let mut two_level = TwoLevelCache::paper_default();
            two_level.record_runs(&runs);
            assert_eq!(Some(two_level.stats()), engine.two_level, "{label}: two-level");
            let two_level = one_at_a_time(TwoLevelCache::paper_default(), &refs);
            assert_eq!(
                Some(two_level.stats()),
                engine.two_level,
                "{label}: two-level, one at a time"
            );
            assert!(!engine.frag_curve.is_empty(), "{label}: fragmentation was sampled");
        } else {
            assert_eq!((engine.victim, engine.three_c, engine.two_level), (None, None, None));
        }
    }
}

#[test]
fn custom_and_tagged_variants_run_end_to_end() {
    for choice in
        [AllocChoice::Custom, AllocChoice::CustomBounded(0.25), AllocChoice::GnuLocalTagged]
    {
        let label = choice.label();
        let r = Experiment::new(Program::Make, choice)
            .options(quick_opts(0.005))
            .run()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(r.alloc_stats.mallocs > 0);
        assert_eq!(r.alloc_stats.live_granted, {
            // Whatever is still live is bounded by the heap.
            assert!(r.alloc_stats.live_granted <= r.heap_high_water);
            r.alloc_stats.live_granted
        });
    }
}

#[test]
fn exported_trace_replays_identically() {
    // Export a synthetic stream as a text trace, re-import it, and run
    // it as a fixed event stream: every measurement must match the
    // original generated run bit for bit.
    use alloc_locality_repro::engine::Experiment as Exp;
    use workloads::import::{parse_trace, write_trace};
    use workloads::AppEvent;

    let scale = 0.01;
    let original = Exp::new(Program::Make, AllocChoice::Paper(AllocatorKind::GnuLocal))
        .options(quick_opts(scale))
        .run()
        .expect("original run");

    let events: Vec<AppEvent> = Program::Make.spec().events(Scale(scale)).collect();
    let mut text = Vec::new();
    write_trace(&events, &mut text).expect("export");
    let imported = parse_trace(&text[..]).expect("import");

    let replayed = Exp::with_events("make", imported, AllocChoice::Paper(AllocatorKind::GnuLocal))
        .options(quick_opts(scale))
        .run()
        .expect("replayed run");

    assert_eq!(replayed.instrs, original.instrs);
    assert_eq!(replayed.trace, original.trace);
    assert_eq!(replayed.cache, original.cache);
    assert_eq!(replayed.heap_high_water, original.heap_high_water);
    assert_eq!(replayed.alloc_stats, original.alloc_stats);

    // The text format's ids are free-form: a file naming every object
    // by a sparse, far-out id imports to the same ordinals and replays
    // to the same result.
    let remap = |id: u64| id * 7919 + (1 << 40);
    let sparse: Vec<AppEvent> = events
        .iter()
        .map(|&e| match e {
            AppEvent::Malloc { id, size, site } => AppEvent::Malloc { id: remap(id), size, site },
            AppEvent::Free { id } => AppEvent::Free { id: remap(id) },
            AppEvent::Access { id, offset, len, write } => {
                AppEvent::Access { id: remap(id), offset, len, write }
            }
            other => other,
        })
        .collect();
    let mut sparse_text = Vec::new();
    write_trace(&sparse, &mut sparse_text).expect("export sparse ids");
    let renumbered = parse_trace(&sparse_text[..]).expect("import sparse ids");
    assert_eq!(renumbered, events, "import renumbers ids to allocation ordinals");
    let sparse_replay =
        Exp::with_events("make", renumbered, AllocChoice::Paper(AllocatorKind::GnuLocal))
            .options(quick_opts(scale))
            .run()
            .expect("sparse-id replay");
    assert_eq!(sparse_replay, replayed);
}

#[test]
fn allocator_metadata_traffic_is_visible_per_class() {
    // The split between application and allocator references must be
    // populated, and the sequential-fit allocator must generate more
    // metadata traffic per operation than segregated storage.
    let opts = quick_opts(0.005);
    let ff = Experiment::new(Program::Espresso, AllocChoice::Paper(AllocatorKind::FirstFit))
        .options(opts.clone())
        .run()
        .expect("runs");
    let bsd = Experiment::new(Program::Espresso, AllocChoice::Paper(AllocatorKind::Bsd))
        .options(opts)
        .run()
        .expect("runs");
    let per_op = |r: &alloc_locality_repro::engine::RunResult| {
        r.trace.meta_refs() as f64 / (r.alloc_stats.mallocs + r.alloc_stats.frees) as f64
    };
    assert!(ff.trace.meta_refs() > 0 && bsd.trace.meta_refs() > 0);
    assert!(
        per_op(&ff) > per_op(&bsd),
        "FirstFit should touch more metadata per op: {} vs {}",
        per_op(&ff),
        per_op(&bsd)
    );
}
