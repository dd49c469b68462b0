//! Two-level cache hierarchies (Mogul & Borg, ASPLOS 1991 — reference
//! \[19\] of the paper).
//!
//! The paper cites the 200-cycle second-level miss penalty of Mogul and
//! Borg's hypothetical two-level cache and notes that "new processors
//! commonly use a smaller on-chip primary cache, with a larger secondary
//! cache". This module simulates that organization so the execution-time
//! model can be evaluated under modern-for-1993 penalties: L1 misses
//! that hit in L2 pay a small penalty; L2 misses pay the large one.

use serde::{Deserialize, Serialize};
use sim_mem::{AccessSink, MemRef, RefRun};

use crate::{Cache, CacheConfig, CacheStats};

/// Mogul & Borg's second-level miss penalty, in cycles.
pub const L2_MISS_PENALTY: u64 = 200;

/// A conventional L1-miss penalty when an L2 absorbs it.
pub const L1_MISS_PENALTY: u64 = 10;

/// An inclusive two-level cache: references probe L1; L1 block misses
/// probe L2.
#[derive(Debug, Clone)]
pub struct TwoLevelCache {
    l1: Cache,
    l2: Cache,
}

/// Combined statistics of a two-level hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TwoLevelStats {
    /// First-level statistics (accesses are word-granular).
    pub l1: CacheStats,
    /// Second-level statistics (accesses are L1 block misses).
    pub l2: CacheStats,
}

impl TwoLevelStats {
    /// Stall cycles under the paper's additive model: L1 misses that hit
    /// L2 pay `l1_penalty`; L2 misses pay `l2_penalty`.
    pub fn stall_cycles(&self, l1_penalty: u64, l2_penalty: u64) -> u64 {
        let l2_misses = self.l2.misses();
        let l1_only = self.l1.misses() - l2_misses;
        l1_only * l1_penalty + l2_misses * l2_penalty
    }

    /// Global miss rate: references that go all the way to memory.
    pub fn global_miss_rate(&self) -> f64 {
        if self.l1.accesses() == 0 {
            0.0
        } else {
            self.l2.misses() as f64 / self.l1.accesses() as f64
        }
    }
}

impl TwoLevelCache {
    /// Creates a two-level hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if L2 is not at least as large as L1 or the block sizes
    /// differ (the usual inclusive-hierarchy constraints).
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        assert!(l2.size >= l1.size, "L2 must be at least as large as L1");
        assert_eq!(l1.block, l2.block, "matching block sizes");
        TwoLevelCache { l1: Cache::new(l1), l2: Cache::new(l2) }
    }

    /// The paper-flavoured default: 16K direct-mapped L1 over a 256K
    /// 4-way L2, 32-byte blocks.
    pub fn paper_default() -> Self {
        Self::new(
            CacheConfig::direct_mapped(16 * 1024, 32),
            CacheConfig::set_associative(256 * 1024, 32, 4),
        )
    }

    /// Simulates one reference: exactly the blocks that miss in L1 are
    /// forwarded (as block-sized fill requests) to L2.
    pub fn access(&mut self, r: MemRef) {
        let block_bytes = u64::from(self.l1.config().block);
        for block in r.blocks(block_bytes) {
            if !self.l1.contains_block(block) {
                let fill = MemRef {
                    addr: sim_mem::Address::new(block * block_bytes),
                    size: self.l1.config().block,
                    ..r
                };
                self.l2.access(fill);
            }
        }
        self.l1.access(r);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TwoLevelStats {
        TwoLevelStats { l1: *self.l1.stats(), l2: *self.l2.stats() }
    }
}

impl AccessSink for TwoLevelCache {
    fn record(&mut self, r: MemRef) {
        self.access(r);
    }

    /// Run fast path, as for the victim cache: walks of a repeated
    /// reference continue until one leaves both levels' tag state as it
    /// found it, and that walk's statistics change is multiplied out
    /// over the remaining count. A span that fits L1 gets there on its
    /// first repeat (every spanned block is resident in L1, so the walk
    /// sends nothing to L2 and re-touches L1 in the order the previous
    /// walk left); a wider span within a few walks. Cold misses happen
    /// only in the first walk, which is never multiplied.
    fn record_runs(&mut self, runs: &[RefRun]) {
        for run in runs {
            self.access(run.r);
            let l1 = self.l1.config();
            let wide = run.r.block_span(u64::from(l1.block)) > u64::from(l1.lines());
            let mut left = u64::from(run.count) - 1;
            while left > 0 {
                let before = (*self.l1.stats(), *self.l2.stats());
                let state = wide.then(|| (self.l1.tag_state(), self.l2.tag_state()));
                self.access(run.r);
                left -= 1;
                let fixed = match state {
                    Some((l1, l2)) => l1 == self.l1.tag_state() && l2 == self.l2.tag_state(),
                    None => self.l1.stats().misses() == before.0.misses(),
                };
                if fixed {
                    debug_assert_eq!(self.l1.stats().cold_misses, before.0.cold_misses);
                    debug_assert_eq!(self.l2.stats().cold_misses, before.1.cold_misses);
                    self.l1.repeat_walk(&before.0, left);
                    self.l2.repeat_walk(&before.1, left);
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::Address;

    #[test]
    fn l2_absorbs_l1_capacity_misses() {
        // Working set: 64K — thrashes a 16K L1, fits a 256K L2.
        let mut c = TwoLevelCache::paper_default();
        for round in 0..3u32 {
            let _ = round;
            for i in 0..2048u64 {
                c.access(MemRef::app_read(Address::new(i * 32), 4));
            }
        }
        let s = c.stats();
        assert!(s.l1.misses() > 2048, "L1 thrashes");
        assert_eq!(s.l2.misses(), 2048, "L2 holds the set: compulsory only");
        assert!(s.global_miss_rate() < s.l1.miss_rate());
    }

    #[test]
    fn stall_model_weights_levels() {
        let s = TwoLevelStats {
            l1: CacheStats { app_accesses: 1000, app_misses: 100, ..Default::default() },
            l2: CacheStats { app_accesses: 100, app_misses: 10, ..Default::default() },
        };
        // 90 L1-only misses * 10 + 10 L2 misses * 200.
        assert_eq!(s.stall_cycles(L1_MISS_PENALTY, L2_MISS_PENALTY), 90 * 10 + 10 * 200);
        assert!((s.global_miss_rate() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn l1_hits_never_reach_l2() {
        let mut c = TwoLevelCache::paper_default();
        let r = MemRef::app_read(Address::new(64), 4);
        c.access(r);
        let l2_after_first = c.stats().l2.accesses();
        for _ in 0..10 {
            c.access(r);
        }
        assert_eq!(c.stats().l2.accesses(), l2_after_first, "hits are filtered");
    }

    /// A small hierarchy (1K direct-mapped over 4K 2-way) fed `r`
    /// repeated `count` times, one reference at a time or as one run.
    fn repeated(r: MemRef, count: u32, as_run: bool) -> TwoLevelStats {
        let mut c = TwoLevelCache::new(
            CacheConfig::direct_mapped(1024, 32),
            CacheConfig::set_associative(4096, 32, 2),
        );
        if as_run {
            c.record_runs(&[sim_mem::RefRun { r, count }]);
        } else {
            for _ in 0..count {
                c.access(r);
            }
        }
        c.stats()
    }

    #[test]
    fn runs_count_like_their_expansion() {
        // Narrow; wider than L1 but within L2; wider than both.
        for size in [40, 1500, 6000] {
            let r = MemRef::app_read(Address::new(12), size);
            for count in [1, 2, 3] {
                assert_eq!(repeated(r, count, true), repeated(r, count, false), "{size} x{count}");
            }
        }
    }

    #[test]
    fn a_run_repeated_u32_max_times_follows_the_closed_form() {
        for size in [40, 1500, 6000] {
            let r = MemRef::app_read(Address::new(12), size);
            let (two, three, four) =
                (repeated(r, 2, false), repeated(r, 3, false), repeated(r, 4, false));
            let rest = u64::from(u32::MAX) - 4;
            let got = repeated(r, u32::MAX, true);
            for (level, a, b, c, g) in [
                ("l1", two.l1, three.l1, four.l1, got.l1),
                ("l2", two.l2, three.l2, four.l2, got.l2),
            ] {
                // Steady from the third walk: the fourth repeats it.
                assert_eq!(c.misses() - b.misses(), b.misses() - a.misses(), "{size} {level}");
                assert_eq!(
                    g.misses(),
                    c.misses() + (c.misses() - b.misses()) * rest,
                    "{size} {level}"
                );
                assert_eq!(
                    g.accesses(),
                    c.accesses() + (c.accesses() - b.accesses()) * rest,
                    "{size} {level}"
                );
                assert_eq!(g.cold_misses, c.cold_misses, "{size} {level}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least as large")]
    fn rejects_inverted_hierarchy() {
        TwoLevelCache::new(
            CacheConfig::direct_mapped(64 * 1024, 32),
            CacheConfig::direct_mapped(16 * 1024, 32),
        );
    }
}
