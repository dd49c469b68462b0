//! Three-C miss classification: compulsory / capacity / conflict.
//!
//! The paper attributes the sequential-fit allocators' misses to their
//! scattered metadata conflicting with application data in a
//! direct-mapped cache. The classic way to quantify that attribution is
//! Hill's three-C model: a miss is *compulsory* if the block was never
//! referenced before, *capacity* if a fully-associative LRU cache of the
//! same size would also miss, and *conflict* otherwise (it exists only
//! because of the restricted mapping). This analyzer runs the target
//! cache and its fully-associative shadow side by side in one pass.
//!
//! LRU is not an optimal policy, so the fully-associative cache can miss
//! *more* than the target: a cyclic sweep over more blocks than the cache
//! holds makes LRU evict every block just before its reuse, while a
//! direct-mapped cache keeps each block whose line the sweep does not
//! revisit in between. The model then has no conflict misses to report
//! (the restricted mapping cost nothing), so the conflict count
//! saturates at zero and the capacity count is capped at the target's
//! own replacement misses; the three classes always sum to the target's
//! misses.

use serde::{Deserialize, Serialize};
use sim_mem::{AccessSink, MemRef, RefRun};

use crate::{Cache, CacheConfig};

/// The classified miss counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreeC {
    /// Word-granular accesses.
    pub accesses: u64,
    /// First-touch misses.
    pub compulsory: u64,
    /// Misses a size-equal fully-associative LRU cache also takes.
    pub capacity: u64,
    /// Misses caused purely by the restricted mapping.
    pub conflict: u64,
}

impl ThreeC {
    /// All misses of the target cache.
    pub fn total_misses(&self) -> u64 {
        self.compulsory + self.capacity + self.conflict
    }

    /// Fraction of non-compulsory misses that are conflicts — high
    /// values mean associativity (or better placement by the allocator)
    /// would help.
    pub fn conflict_fraction(&self) -> f64 {
        let repl = self.capacity + self.conflict;
        if repl == 0 {
            0.0
        } else {
            self.conflict as f64 / repl as f64
        }
    }
}

/// Runs a target cache and its fully-associative shadow in lockstep.
///
/// # Example
///
/// ```
/// use cache_sim::{CacheConfig, ThreeCAnalyzer};
/// use sim_mem::{Address, MemRef};
///
/// let mut a = ThreeCAnalyzer::new(CacheConfig::direct_mapped(1024, 32));
/// // Two blocks that conflict in the direct-mapped cache but co-exist
/// // in a fully-associative one.
/// for i in 0..6u64 {
///     a.access(MemRef::app_read(Address::new((i % 2) * 1024, ), 4));
/// }
/// let c = a.classify();
/// assert_eq!(c.compulsory, 2);
/// assert_eq!(c.capacity, 0);
/// assert_eq!(c.conflict, 4);
/// ```
#[derive(Debug, Clone)]
pub struct ThreeCAnalyzer {
    target: Cache,
    shadow: Cache,
}

impl ThreeCAnalyzer {
    /// Creates an analyzer for the given target geometry.
    pub fn new(target: CacheConfig) -> Self {
        let shadow = CacheConfig::set_associative(target.size, target.block, target.lines());
        ThreeCAnalyzer { target: Cache::new(target), shadow: Cache::new(shadow) }
    }

    /// Simulates one reference in both caches.
    pub fn access(&mut self, r: MemRef) {
        self.target.access(r);
        self.shadow.access(r);
    }

    /// The classification so far. Where the fully-associative LRU
    /// cache missed more than the target (see the module docs), conflict
    /// is zero and capacity is the target's replacement misses.
    pub fn classify(&self) -> ThreeC {
        let t = self.target.stats();
        let s = self.shadow.stats();
        debug_assert_eq!(t.cold_misses, s.cold_misses);
        let compulsory = t.cold_misses;
        let capacity = s.misses().min(t.misses()) - compulsory;
        let conflict = t.misses().saturating_sub(s.misses());
        ThreeC { accesses: t.accesses(), compulsory, capacity, conflict }
    }

    /// The target cache's raw statistics.
    pub fn target_stats(&self) -> &crate::CacheStats {
        self.target.stats()
    }
}

impl AccessSink for ThreeCAnalyzer {
    fn record(&mut self, r: MemRef) {
        self.access(r);
    }

    /// Runs go to each cache's closed form (see `Cache::record_runs`),
    /// which leaves its statistics exactly where per-reference delivery
    /// would: a repeat count costs at most two walks.
    fn record_runs(&mut self, runs: &[RefRun]) {
        self.target.record_runs(runs);
        self.shadow.record_runs(runs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::Address;

    #[test]
    fn sequential_scan_is_all_compulsory() {
        let mut a = ThreeCAnalyzer::new(CacheConfig::direct_mapped(1024, 32));
        for i in 0..100u64 {
            a.access(MemRef::app_read(Address::new(i * 32), 4));
        }
        let c = a.classify();
        // No block is ever revisited: every miss is a first touch.
        assert_eq!(c.compulsory, 100);
        assert_eq!(c.capacity, 0);
        assert_eq!(c.conflict, 0);
    }

    #[test]
    fn cyclic_overflow_is_capacity() {
        // 64 distinct blocks cycled through a 32-line cache: every
        // access misses in both target and shadow after warmup.
        let mut a = ThreeCAnalyzer::new(CacheConfig::direct_mapped(1024, 32));
        for round in 0..4u64 {
            let _ = round;
            for i in 0..64u64 {
                a.access(MemRef::app_read(Address::new(i * 32), 4));
            }
        }
        let c = a.classify();
        assert_eq!(c.compulsory, 64);
        assert!(c.capacity > 0);
        assert_eq!(c.conflict, 0, "uniform cycle has no mapping artifacts");
    }

    #[test]
    fn ping_pong_is_pure_conflict() {
        let mut a = ThreeCAnalyzer::new(CacheConfig::direct_mapped(1024, 32));
        for i in 0..20u64 {
            a.access(MemRef::app_read(Address::new((i % 2) * 1024), 4));
        }
        let c = a.classify();
        assert_eq!(c.compulsory, 2);
        assert_eq!(c.capacity, 0);
        assert_eq!(c.conflict, 18);
        assert!((c.conflict_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_cyclic_sweep_wider_than_the_cache_classifies_without_conflicts() {
        // One 19200-byte read at an unaligned address, twice, in a 16K
        // direct-mapped cache: 601 blocks cycle through 512 lines. LRU
        // evicts every block before its reuse and misses all 1202 times;
        // the direct-mapped cache keeps the lines the sweep touches once.
        let r = MemRef::app_read(Address::new(17), 600 * 32);
        let mut a = ThreeCAnalyzer::new(CacheConfig::direct_mapped(16 * 1024, 32));
        a.access(r);
        a.access(r);
        let (t, s) = (a.target.stats().misses(), a.shadow.stats().misses());
        assert_eq!((t, s), (779, 1202), "the fully-associative shadow misses more");
        let c = a.classify();
        assert_eq!(c.compulsory, 601);
        assert_eq!(c.capacity, 779 - 601);
        assert_eq!(c.conflict, 0);
        assert_eq!(c.total_misses(), a.target_stats().misses());
    }

    /// Classifies `r` repeated `count` times, delivered one reference at
    /// a time or as one run.
    fn repeated(r: MemRef, count: u32, as_run: bool) -> ThreeC {
        let mut a = ThreeCAnalyzer::new(CacheConfig::direct_mapped(1024, 32));
        if as_run {
            a.record_runs(&[RefRun { r, count }]);
        } else {
            for _ in 0..count {
                a.access(r);
            }
        }
        a.classify()
    }

    #[test]
    fn runs_classify_like_their_expansion() {
        // Narrow, exactly cache-wide, and wider than the cache.
        for size in [40, 1024, 1500, 4096] {
            let r = MemRef::app_read(Address::new(12), size);
            for count in [1, 2, 3] {
                assert_eq!(repeated(r, count, true), repeated(r, count, false), "{size} x{count}");
            }
        }
    }

    #[test]
    fn a_run_repeated_u32_max_times_follows_the_closed_form() {
        // From the second walk on, each walk of a span wider than the
        // cache misses as the second did, in both caches.
        let r = MemRef::app_read(Address::new(12), 1500);
        let (one, two) = (repeated(r, 1, false), repeated(r, 2, false));
        let rest = u64::from(u32::MAX) - 1;
        let c = repeated(r, u32::MAX, true);
        assert_eq!(c.accesses, one.accesses * u64::from(u32::MAX));
        assert_eq!(c.compulsory, one.compulsory);
        assert_eq!(c.capacity, one.capacity + (two.capacity - one.capacity) * rest);
        assert_eq!(c.conflict, one.conflict + (two.conflict - one.conflict) * rest);
    }

    #[test]
    fn classes_decompose_total() {
        let mut a = ThreeCAnalyzer::new(CacheConfig::direct_mapped(2048, 32));
        let mut x = 3u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            a.access(MemRef::app_read(Address::new(x % 16384), 4));
        }
        let c = a.classify();
        assert_eq!(c.total_misses(), a.target_stats().misses());
        assert_eq!(c.accesses, a.target_stats().accesses());
    }
}
