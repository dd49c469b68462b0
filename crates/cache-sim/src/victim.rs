//! Victim caching (Jouppi, ISCA 1990 — reference \[11\] of the paper).
//!
//! The paper motivates its study with Jouppi's projection of ~100-cycle
//! miss penalties; Jouppi's own remedy for direct-mapped conflict misses
//! is a small fully-associative *victim cache* holding recently evicted
//! blocks. This module implements it as an extension experiment: does a
//! few-entry victim buffer rescue the sequential-fit allocators, whose
//! freelist traffic conflicts with application data?

use serde::{Deserialize, Serialize};
use sim_mem::{AccessSink, MemRef, RefRun};

use crate::cache::BlockSet;
use crate::CacheConfig;

/// Statistics for a victim-cached hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VictimStats {
    /// Word-granular accesses.
    pub accesses: u64,
    /// Misses in the main (direct-mapped) cache.
    pub main_misses: u64,
    /// Of those, hits in the victim buffer (swapped back, no memory
    /// traffic).
    pub victim_hits: u64,
    /// Blocks never seen before (compulsory misses).
    pub cold_misses: u64,
}

impl VictimStats {
    /// Misses that reach memory: main misses not caught by the victim
    /// buffer.
    pub fn effective_misses(&self) -> u64 {
        self.main_misses - self.victim_hits
    }

    /// Effective miss rate.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.effective_misses() as f64 / self.accesses as f64
        }
    }

    /// Fraction of main-cache misses the victim buffer absorbs.
    pub fn rescue_rate(&self) -> f64 {
        if self.main_misses == 0 {
            0.0
        } else {
            self.victim_hits as f64 / self.main_misses as f64
        }
    }
}

/// A direct-mapped cache backed by a small fully-associative LRU victim
/// buffer.
///
/// # Example
///
/// ```
/// use cache_sim::{CacheConfig, VictimCache};
/// use sim_mem::{Address, MemRef};
///
/// let mut v = VictimCache::new(CacheConfig::direct_mapped(1024, 32), 4);
/// // Two conflicting blocks ping-pong in a direct-mapped cache...
/// for i in 0..8u64 {
///     v.access(MemRef::app_read(Address::new((i % 2) * 1024), 4));
/// }
/// // ...but the victim buffer catches every eviction after the cold
/// // misses.
/// assert_eq!(v.stats().cold_misses, 2);
/// assert_eq!(v.stats().effective_misses(), 2);
/// assert_eq!(v.stats().victim_hits, 6);
/// ```
#[derive(Debug, Clone)]
pub struct VictimCache {
    config: CacheConfig,
    /// Main-cache tags (`u64::MAX` = invalid).
    lines: Vec<u64>,
    /// Victim buffer, MRU first.
    victims: Vec<u64>,
    capacity: usize,
    seen: BlockSet,
    stats: VictimStats,
}

impl VictimCache {
    /// Creates a victim-cached hierarchy. The main cache must be
    /// direct-mapped (that is the configuration victim caches exist
    /// for).
    ///
    /// # Panics
    ///
    /// Panics if `main` is not direct-mapped or `entries` is zero.
    pub fn new(main: CacheConfig, entries: usize) -> Self {
        assert_eq!(main.assoc, 1, "victim caches back direct-mapped caches");
        assert!(entries > 0, "victim buffer needs at least one entry");
        VictimCache {
            config: main,
            lines: vec![u64::MAX; main.lines() as usize],
            victims: Vec::with_capacity(entries),
            capacity: entries,
            seen: BlockSet::new(),
            stats: VictimStats::default(),
        }
    }

    /// The main cache's geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &VictimStats {
        &self.stats
    }

    /// Simulates one reference.
    pub fn access(&mut self, r: MemRef) {
        for block in r.blocks(u64::from(self.config.block)) {
            self.touch_block(block);
        }
        self.stats.accesses += u64::from(r.size.div_ceil(4).max(1));
    }

    fn touch_block(&mut self, block: u64) {
        let idx = (block % u64::from(self.config.lines())) as usize;
        if self.lines[idx] == block {
            return;
        }
        self.stats.main_misses += 1;
        if self.seen.insert(block) {
            self.stats.cold_misses += 1;
        }
        let evicted = self.lines[idx];
        self.lines[idx] = block;
        if let Some(pos) = self.victims.iter().position(|&v| v == block) {
            // Victim hit: swap — the evicted main block takes the
            // victim's slot.
            self.stats.victim_hits += 1;
            self.victims.remove(pos);
            if evicted != u64::MAX {
                self.victims.insert(0, evicted);
            }
        } else if evicted != u64::MAX {
            // Miss everywhere: the evicted block becomes the newest
            // victim.
            self.victims.insert(0, evicted);
            self.victims.truncate(self.capacity);
        }
    }
}

impl AccessSink for VictimCache {
    fn record(&mut self, r: MemRef) {
        self.access(r);
    }

    /// Run fast path. Each walk of a repeated reference starts from the
    /// state the previous walk left, so once a walk leaves the main tags
    /// and the victim buffer exactly as it found them, every later walk
    /// repeats it: its counter deltas are multiplied out over the
    /// remaining count. A span that fits the cache gets there on its
    /// first repeat (every spanned block is resident, so the walk only
    /// hits and changes nothing); a wider span within a few walks. Cold
    /// misses happen only in the first walk, which is never multiplied.
    fn record_runs(&mut self, runs: &[RefRun]) {
        for run in runs {
            self.access(run.r);
            let span = run.r.block_span(u64::from(self.config.block));
            let wide = span > u64::from(self.config.lines());
            let mut left = u64::from(run.count) - 1;
            while left > 0 {
                let before = self.stats;
                let state = wide.then(|| (self.lines.clone(), self.victims.clone()));
                self.access(run.r);
                left -= 1;
                let fixed = match state {
                    Some((lines, victims)) => lines == self.lines && victims == self.victims,
                    // A main-cache hit changes no state at all.
                    None => self.stats.main_misses == before.main_misses,
                };
                if fixed {
                    debug_assert_eq!(self.stats.cold_misses, before.cold_misses);
                    let s = &mut self.stats;
                    s.accesses += (s.accesses - before.accesses) * left;
                    s.main_misses += (s.main_misses - before.main_misses) * left;
                    s.victim_hits += (s.victim_hits - before.victim_hits) * left;
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cache;
    use sim_mem::Address;

    fn dm1k() -> CacheConfig {
        CacheConfig::direct_mapped(1024, 32)
    }

    #[test]
    fn no_conflicts_means_no_victim_traffic() {
        let mut v = VictimCache::new(dm1k(), 4);
        for i in 0..32u64 {
            v.access(MemRef::app_read(Address::new(i * 32), 4));
        }
        assert_eq!(v.stats().main_misses, 32);
        assert_eq!(v.stats().cold_misses, 32);
        assert_eq!(v.stats().victim_hits, 0);
    }

    #[test]
    fn ping_pong_conflict_is_absorbed() {
        let mut v = VictimCache::new(dm1k(), 1);
        for i in 0..10u64 {
            v.access(MemRef::app_read(Address::new((i % 2) * 1024), 4));
        }
        assert_eq!(v.stats().effective_misses(), 2, "only the cold misses remain");
        assert!(v.stats().rescue_rate() > 0.7);
    }

    #[test]
    fn victim_capacity_limits_rescue() {
        // Three conflicting blocks cycle; a 1-entry victim buffer holds
        // only the latest victim, which is never the next one needed.
        let mut v = VictimCache::new(dm1k(), 1);
        for i in 0..30u64 {
            v.access(MemRef::app_read(Address::new((i % 3) * 1024), 4));
        }
        assert_eq!(v.stats().victim_hits, 0);
        // A 2-entry buffer catches them all.
        let mut v = VictimCache::new(dm1k(), 2);
        for i in 0..30u64 {
            v.access(MemRef::app_read(Address::new((i % 3) * 1024), 4));
        }
        assert_eq!(v.stats().effective_misses(), 3);
    }

    /// Statistics of `r` repeated `count` times, delivered one reference
    /// at a time or as one run.
    fn repeated(r: MemRef, count: u32, as_run: bool) -> VictimStats {
        let mut v = VictimCache::new(dm1k(), 4);
        // A conflicting block first, so the buffer starts non-empty.
        v.access(MemRef::app_read(Address::new(8 * 1024 + 64), 4));
        if as_run {
            v.record_runs(&[RefRun { r, count }]);
        } else {
            for _ in 0..count {
                v.access(r);
            }
        }
        *v.stats()
    }

    #[test]
    fn runs_count_like_their_expansion() {
        // Narrow, exactly cache-wide, and wider than the cache (the last
        // two wrap the main cache with victim-buffer traffic).
        for size in [40, 1024, 1100, 1500, 4096] {
            let r = MemRef::app_read(Address::new(12), size);
            for count in [1, 2, 3, 5] {
                assert_eq!(repeated(r, count, true), repeated(r, count, false), "{size} x{count}");
            }
        }
    }

    #[test]
    fn a_run_repeated_u32_max_times_follows_the_closed_form() {
        for size in [40, 1100, 1500] {
            let r = MemRef::app_read(Address::new(12), size);
            // Walks reach their fixed point within three; from there on
            // every walk changes the counters identically.
            let walks: Vec<VictimStats> = (3..=5).map(|n| repeated(r, n, false)).collect();
            let step = |a: &VictimStats, b: &VictimStats| {
                (
                    b.accesses - a.accesses,
                    b.main_misses - a.main_misses,
                    b.victim_hits - a.victim_hits,
                )
            };
            let delta = step(&walks[1], &walks[2]);
            assert_eq!(step(&walks[0], &walks[1]), delta, "{size}: steady from the third walk");
            let rest = u64::from(u32::MAX) - 5;
            let got = repeated(r, u32::MAX, true);
            assert_eq!(got.accesses, walks[2].accesses + delta.0 * rest, "{size}");
            assert_eq!(got.main_misses, walks[2].main_misses + delta.1 * rest, "{size}");
            assert_eq!(got.victim_hits, walks[2].victim_hits + delta.2 * rest, "{size}");
            assert_eq!(got.cold_misses, walks[2].cold_misses, "{size}");
        }
    }

    #[test]
    fn effective_misses_never_exceed_plain_cache() {
        let mut plain = Cache::new(dm1k());
        let mut v = VictimCache::new(dm1k(), 4);
        let mut x = 7u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = MemRef::app_read(Address::new(x % 8192), 4);
            plain.access(r);
            v.access(r);
        }
        assert!(v.stats().effective_misses() <= plain.stats().misses());
        assert_eq!(v.stats().main_misses, plain.stats().misses());
    }
}
