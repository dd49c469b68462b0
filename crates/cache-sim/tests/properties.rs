//! Property tests for the cache simulator.

use proptest::prelude::*;

use cache_sim::reference::ReferenceSweepCache;
use cache_sim::{Cache, CacheBank, CacheConfig, SweepCache, ThreeCAnalyzer, VictimCache};
use sim_mem::{AccessSink, Address, MemRef, RefRun};

fn refs_strategy() -> impl Strategy<Value = Vec<(u64, u32)>> {
    proptest::collection::vec((0u64..1_000_000, 1u32..256), 1..500)
}

fn to_runs(entries: Vec<(u64, u32, u32, u8)>) -> Vec<RefRun> {
    entries
        .into_iter()
        .map(|(addr, len, count, kind)| {
            let a = Address::new(addr);
            let r = match kind {
                0 => MemRef::app_read(a, len),
                1 => MemRef::app_write(a, len),
                2 => MemRef::meta_read(a, len),
                _ => MemRef::meta_write(a, len),
            };
            RefRun { r, count }
        })
        .collect()
}

/// Arbitrary run-compressed streams: mixed classes, multi-block spans,
/// and repeat counts past the short-circuit fast path.
fn runs_strategy() -> impl Strategy<Value = Vec<RefRun>> {
    proptest::collection::vec((0u64..100_000, 1u32..300, 1u32..50, 0u8..4), 1..200)
        .prop_map(to_runs)
}

/// Streams dominated by *repeated multi-block* references straddling
/// block boundaries: every length spans at least two 32-byte blocks,
/// ranging up to spans wider than the smallest paper-sweep member
/// (512 lines), and every run repeats — the worst case for the span
/// fast path's residency argument. Addresses cluster so spans overlap
/// and conflict across runs.
fn straddling_runs_strategy() -> impl Strategy<Value = Vec<RefRun>> {
    proptest::collection::vec((0u64..60_000, 33u32..20_000, 2u32..40, 0u8..4), 1..100)
        .prop_map(to_runs)
}

/// Random sweep geometries of one block size (16, 32 or 64 bytes): one
/// to four members mixing 1, 2, 4 and 8 ways over 4 to 128 sets, then
/// maybe a fully associative member (one set of 8 to 64 ways) and maybe
/// a duplicate of the first member.
fn geometry_strategy() -> impl Strategy<Value = Vec<CacheConfig>> {
    let member = (prop_oneof![Just(1u32), Just(2), Just(4), Just(8)], 2u32..=7);
    let block = prop_oneof![Just(16u32), Just(32), Just(64)];
    let full = prop_oneof![Just(None), (3u32..=6).prop_map(Some)];
    let members = proptest::collection::vec(member, 1..=4);
    (block, members, full, any::<bool>()).prop_map(|(block, members, full, duplicate)| {
        let mut configs: Vec<CacheConfig> = members
            .iter()
            .map(|&(ways, log_sets)| {
                CacheConfig::set_associative((ways * block) << log_sets, block, ways)
            })
            .collect();
        if let Some(log_ways) = full {
            configs.push(CacheConfig::set_associative(block << log_ways, block, 1 << log_ways));
        }
        if duplicate {
            configs.push(configs[0]);
        }
        configs
    })
}

/// A random geometry and a run-compressed stream for it: mixed classes,
/// repeats, and references that either fit in two blocks or span
/// within two blocks of the smallest member's line count, on both
/// sides, so the sweep's run fast path and its wide-span re-walk both
/// run. Addresses cover a few times the largest member.
fn geometry_and_runs() -> impl Strategy<Value = (Vec<CacheConfig>, Vec<RefRun>)> {
    geometry_strategy().prop_flat_map(|configs| {
        let block = configs[0].block;
        let lines = configs.iter().map(CacheConfig::lines).min().expect("a member");
        let largest = configs.iter().map(|c| u64::from(c.size)).max().expect("a member");
        let len = prop_oneof![
            3 => 1u32..=2 * block,
            1 => (lines - 2) * block..=(lines + 2) * block,
        ];
        let runs = proptest::collection::vec((0u64..4 * largest, len, 1u32..8, 0u8..4), 1..40)
            .prop_map(to_runs);
        (Just(configs), runs)
    })
}

/// Expands a run-compressed stream back into raw references.
fn expand(runs: &[RefRun]) -> Vec<MemRef> {
    let mut refs = Vec::new();
    for run in runs {
        for _ in 0..run.count {
            refs.push(run.r);
        }
    }
    refs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Cold misses equal the number of distinct blocks ever touched, for
    /// any geometry.
    #[test]
    fn cold_misses_are_distinct_blocks(
        refs in refs_strategy(),
        size_kb in prop_oneof![Just(1u32), Just(16), Just(64)],
        assoc in prop_oneof![Just(1u32), Just(2), Just(8)],
    ) {
        let mut cache = Cache::new(CacheConfig::set_associative(size_kb * 1024, 32, assoc));
        let mut blocks = std::collections::HashSet::new();
        for &(addr, len) in &refs {
            let r = MemRef::app_read(Address::new(addr), len);
            blocks.extend(r.blocks(32));
            cache.access(r);
        }
        prop_assert_eq!(cache.stats().cold_misses, blocks.len() as u64);
    }

    /// Misses never exceed block touches; accesses count words.
    #[test]
    fn counters_are_consistent(refs in refs_strategy()) {
        let mut cache = Cache::new(CacheConfig::direct_mapped(16 * 1024, 32));
        let mut words = 0u64;
        let mut block_touches = 0u64;
        for &(addr, len) in &refs {
            let r = MemRef::app_write(Address::new(addr), len);
            words += u64::from(len.div_ceil(4));
            block_touches += r.blocks(32).count() as u64;
            cache.access(r);
        }
        prop_assert_eq!(cache.stats().accesses(), words);
        prop_assert!(cache.stats().misses() <= block_touches);
        prop_assert!(cache.stats().cold_misses <= cache.stats().misses());
    }

    /// LRU inclusion within a set: doubling associativity at a fixed set
    /// count (i.e. doubling capacity) never increases misses.
    #[test]
    fn higher_associativity_same_sets_never_misses_more(refs in refs_strategy()) {
        let sets = 128u32;
        let mut small = Cache::new(CacheConfig::set_associative(sets * 32 * 2, 32, 2));
        let mut large = Cache::new(CacheConfig::set_associative(sets * 32 * 4, 32, 4));
        for &(addr, len) in &refs {
            let r = MemRef::app_read(Address::new(addr), len);
            small.access(r);
            large.access(r);
        }
        prop_assert!(large.stats().misses() <= small.stats().misses());
    }

    /// A working set no larger than the cache, revisited after a warmup
    /// pass, produces no further misses in a fully covering scan
    /// (fully-associative behaviour approximated with high assoc).
    #[test]
    fn warm_working_set_hits(nblocks in 1u64..256) {
        let mut cache = Cache::new(CacheConfig::set_associative(8 * 1024, 32, 256));
        for round in 0..3u32 {
            for b in 0..nblocks {
                cache.access(MemRef::app_read(Address::new(b * 32), 4));
            }
            if round == 0 {
                prop_assert_eq!(cache.stats().misses(), nblocks);
            }
        }
        prop_assert_eq!(cache.stats().misses(), nblocks, "warm set must not miss");
    }

    /// Batch delivery is invisible: chopping the stream into batches at
    /// arbitrary boundaries (including empty batches) via `record_batch`
    /// leaves a cache in exactly the state per-record delivery does.
    #[test]
    fn batch_boundaries_are_invisible(
        refs in refs_strategy(),
        cuts in proptest::collection::vec(0usize..=500, 0..16),
        assoc in prop_oneof![Just(1u32), Just(4)],
    ) {
        let cfg = CacheConfig::set_associative(16 * 1024, 32, assoc);
        let stream: Vec<MemRef> =
            refs.iter().map(|&(a, l)| MemRef::app_read(Address::new(a), l)).collect();

        let mut per_record = Cache::new(cfg);
        for &r in &stream {
            per_record.record(r);
        }

        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (stream.len() + 1)).collect();
        bounds.sort_unstable();
        let mut batched = Cache::new(cfg);
        let mut prev = 0;
        for &b in &bounds {
            batched.record_batch(&stream[prev..b]);
            prev = b;
        }
        batched.record_batch(&stream[prev..]);

        prop_assert_eq!(per_record.stats(), batched.stats());
    }

    /// The single-pass sweep agrees with independent caches on any
    /// stream of raw references, over any geometry of one block size.
    #[test]
    fn sweep_equals_independent_caches((configs, runs) in geometry_and_runs()) {
        let mut sweep = SweepCache::try_new(configs.clone()).expect("one block size");
        let mut solos: Vec<Cache> = configs.iter().map(|&c| Cache::new(c)).collect();
        for r in expand(&runs) {
            sweep.access(r);
            for c in &mut solos {
                c.access(r);
            }
        }
        let results = sweep.results();
        for (i, c) in solos.iter().enumerate() {
            prop_assert_eq!(results[i], (c.config(), *c.stats()), "member {} diverged", i);
        }
    }

    /// Run-compressed delivery into the sweep — chopped into calls at
    /// arbitrary boundaries, so runs straddle batch edges — agrees with
    /// per-record delivery into independent caches, including repeats of
    /// multi-block references, over any geometry of one block size.
    #[test]
    fn sweep_run_delivery_equals_expansion(
        (configs, runs) in geometry_and_runs(),
        cuts in proptest::collection::vec(0usize..=200, 0..8),
    ) {
        let mut sweep = SweepCache::try_new(configs.clone()).expect("one block size");
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (runs.len() + 1)).collect();
        bounds.sort_unstable();
        let mut prev = 0;
        for &b in &bounds {
            sweep.record_runs(&runs[prev..b]);
            prev = b;
        }
        sweep.record_runs(&runs[prev..]);

        let mut solos: Vec<Cache> = configs.iter().map(|&c| Cache::new(c)).collect();
        for r in expand(&runs) {
            for c in &mut solos {
                c.access(r);
            }
        }
        let results = sweep.results();
        for (i, c) in solos.iter().enumerate() {
            prop_assert_eq!(results[i], (c.config(), *c.stats()), "member {} diverged", i);
        }
    }

    /// A single cache's run fast path agrees with expansion for any
    /// associativity (the last-block short-circuit it leans on is not a
    /// direct-mapped-only property).
    #[test]
    fn cache_run_delivery_equals_expansion(
        runs in runs_strategy(),
        assoc in prop_oneof![Just(1u32), Just(4)],
    ) {
        let cfg = CacheConfig::set_associative(16 * 1024, 32, assoc);
        let mut fast = Cache::new(cfg);
        fast.record_runs(&runs);
        let mut slow = Cache::new(cfg);
        for r in expand(&runs) {
            slow.access(r);
        }
        prop_assert_eq!(fast.stats(), slow.stats());
    }

    /// The SoA sweep's multi-block span fast path agrees with a
    /// [`CacheBank`] fed the fully expanded stream *and* with the
    /// pre-restructure implementation under identical run delivery, on
    /// streams built almost entirely of repeated block-straddling
    /// references (spans on both sides of the smallest member's line
    /// count, so both the absorb and the re-walk arms run).
    #[test]
    fn sweep_span_fast_path_matches_bank_and_reference(
        runs in straddling_runs_strategy(),
        cut in 0usize..=100,
    ) {
        let configs = CacheConfig::paper_sweep();
        let mut sweep = SweepCache::try_new(configs.clone()).expect("paper sweep is sweepable");
        let mut old = ReferenceSweepCache::try_new(configs.clone()).expect("sweepable");
        let split = cut % (runs.len() + 1);
        sweep.record_runs(&runs[..split]);
        sweep.record_runs(&runs[split..]);
        old.record_runs(&runs);

        let mut bank = CacheBank::new(configs.clone());
        for r in expand(&runs) {
            bank.record(r);
        }
        prop_assert_eq!(sweep.results(), old.results());
        for (i, &cfg) in configs.iter().enumerate() {
            prop_assert_eq!(
                &sweep.results()[i].1,
                bank.stats_for(cfg).expect("member"),
                "member {} diverged", i
            );
        }
    }

    /// A single cache's span fast path agrees with per-reference replay
    /// on repeated block-straddling runs, across associativities — the
    /// residency argument must hold for LRU sets, not just direct
    /// mapping, and for spans larger than the whole cache (fallback).
    #[test]
    fn cache_span_fast_path_matches_per_ref_replay(
        runs in straddling_runs_strategy(),
        assoc in prop_oneof![Just(1u32), Just(2), Just(8)],
    ) {
        let cfg = CacheConfig::set_associative(16 * 1024, 32, assoc);
        let mut fast = Cache::new(cfg);
        fast.record_runs(&runs);
        let mut slow = Cache::new(cfg);
        for r in expand(&runs) {
            slow.record(r);
        }
        prop_assert_eq!(fast.stats(), slow.stats());
    }

    /// The extension analyzers (victim cache, three-C classifier) see
    /// through run-compressed delivery: their default expand-and-delegate
    /// `record_runs` leaves statistics identical to the raw stream.
    #[test]
    fn analyzers_agree_on_run_delivery(runs in runs_strategy()) {
        let cfg = CacheConfig::direct_mapped(16 * 1024, 32);

        let mut victim_fast = VictimCache::new(cfg, 8);
        victim_fast.record_runs(&runs);
        let mut victim_slow = VictimCache::new(cfg, 8);
        let mut three_c_fast = ThreeCAnalyzer::new(cfg);
        three_c_fast.record_runs(&runs);
        let mut three_c_slow = ThreeCAnalyzer::new(cfg);
        for r in expand(&runs) {
            victim_slow.record(r);
            three_c_slow.record(r);
        }
        prop_assert_eq!(victim_fast.stats(), victim_slow.stats());
        prop_assert_eq!(three_c_fast.classify(), three_c_slow.classify());
    }

    /// A bank's members behave identically to standalone caches fed the
    /// same stream.
    #[test]
    fn bank_equals_standalone(refs in refs_strategy()) {
        let cfg_a = CacheConfig::direct_mapped(16 * 1024, 32);
        let cfg_b = CacheConfig::set_associative(32 * 1024, 32, 4);
        let mut bank = CacheBank::new([cfg_a, cfg_b]);
        let mut solo_a = Cache::new(cfg_a);
        let mut solo_b = Cache::new(cfg_b);
        for &(addr, len) in &refs {
            let r = MemRef::app_read(Address::new(addr), len);
            bank.record(r);
            solo_a.access(r);
            solo_b.access(r);
        }
        prop_assert_eq!(bank.stats_for(cfg_a).expect("member"), solo_a.stats());
        prop_assert_eq!(bank.stats_for(cfg_b).expect("member"), solo_b.stats());
    }
}
