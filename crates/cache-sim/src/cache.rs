//! One simulated cache.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use sim_mem::{AccessClass, AccessSink, MemRef, RefRun};

use crate::CacheConfig;

/// Membership set over block numbers, used for cold-miss classification.
///
/// A two-level bitmap: the address space of block numbers is divided
/// into 4096-block leaves (512 bytes each), allocated on first touch.
/// Block numbers cluster tightly — the heap, the stack segment, and the
/// static data each occupy a contiguous range — so the populated leaves
/// are few, while lookups are two array indexes and a mask instead of a
/// `HashSet` probe (hash, bucket walk) per block reference. This is the
/// hottest query in the simulator: every block miss consults it.
///
/// Leaves below [`DENSE_LEAVES`] sit in a vector indexed by leaf
/// number, which covers every address the engine's heap and stack
/// produce. Leaves above it — only a replayed stream file can reach
/// them — go to a map, so memory follows the blocks held rather than
/// the highest address seen: one reference near 2^64 costs one leaf,
/// not a vector sized to its leaf number.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockSet {
    /// Leaf `i` covers block numbers `i * 4096 .. (i + 1) * 4096`.
    leaves: Vec<Option<Box<Leaf>>>,
    /// Leaves at or above [`DENSE_LEAVES`], by leaf number.
    high: HashMap<u64, Box<Leaf>>,
    len: u64,
}

/// One leaf's bitmap: a bit per block.
type Leaf = [u64; 64];

/// Leaf numbers below this bound are indexed densely: at most 512 KiB
/// of leaf pointers, spanning 2^28 blocks (8 GiB of address space at
/// 32-byte blocks).
const DENSE_LEAVES: u64 = 1 << 16;

impl BlockSet {
    pub(crate) fn new() -> Self {
        BlockSet::default()
    }

    /// Inserts `block`; returns `true` if it was not already present.
    #[inline]
    pub(crate) fn insert(&mut self, block: u64) -> bool {
        let leaf = block >> 12;
        let words = if leaf < DENSE_LEAVES {
            let leaf = leaf as usize;
            if leaf >= self.leaves.len() {
                self.leaves.resize(leaf + 1, None);
            }
            self.leaves[leaf].get_or_insert_with(|| Box::new([0u64; 64]))
        } else {
            self.high_leaf(leaf)
        };
        let word = ((block >> 6) & 63) as usize;
        let mask = 1u64 << (block & 63);
        let fresh = words[word] & mask == 0;
        words[word] |= mask;
        self.len += u64::from(fresh);
        fresh
    }

    /// Leaf `leaf` (at or above [`DENSE_LEAVES`]), created on first
    /// touch. Kept out of line so the map code stays out of the callers'
    /// hot loops.
    #[cold]
    #[inline(never)]
    fn high_leaf(&mut self, leaf: u64) -> &mut Leaf {
        self.high.entry(leaf).or_insert_with(|| Box::new([0u64; 64]))
    }

    /// Whether `block` has been inserted.
    #[cfg(test)]
    pub(crate) fn contains(&self, block: u64) -> bool {
        let leaf = block >> 12;
        let words = if leaf < DENSE_LEAVES {
            self.leaves.get(leaf as usize).and_then(Option::as_deref)
        } else {
            self.high.get(&leaf).map(|words| &**words)
        };
        words.is_some_and(|words| words[((block >> 6) & 63) as usize] & (1u64 << (block & 63)) != 0)
    }

    /// Number of distinct blocks inserted.
    #[cfg(test)]
    pub(crate) fn len(&self) -> u64 {
        self.len
    }
}

/// Per-cache counters, split by reference class.
///
/// Accesses are counted in *word* granularity — one per data word
/// touched, matching the paper's per-reference miss rates (each load or
/// store is one data reference) — while misses are counted per block
/// actually fetched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Word-granular accesses by the application.
    pub app_accesses: u64,
    /// Block misses on application references.
    pub app_misses: u64,
    /// Word-granular accesses by allocator metadata.
    pub meta_accesses: u64,
    /// Block misses on allocator-metadata references.
    pub meta_misses: u64,
    /// Misses to blocks never seen before (compulsory misses).
    pub cold_misses: u64,
}

impl CacheStats {
    /// All word-granular accesses.
    pub fn accesses(&self) -> u64 {
        self.app_accesses + self.meta_accesses
    }

    /// All misses.
    pub fn misses(&self) -> u64 {
        self.app_misses + self.meta_misses
    }

    /// Overall miss ratio (0.0 for an untouched cache).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses() as f64
        }
    }

    /// Misses caused by capacity or conflict (total minus compulsory).
    pub fn replacement_misses(&self) -> u64 {
        self.misses() - self.cold_misses
    }
}

/// A write-allocate cache with LRU replacement within each set.
///
/// Direct-mapped configurations (the paper's) take a fast path; higher
/// associativities keep an MRU-ordered tag list per set.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Direct-mapped: one tag per line (`u64::MAX` = invalid).
    lines: Vec<u64>,
    /// Associative: MRU-first tag lists per set (empty when direct).
    sets: Vec<Vec<u64>>,
    /// Every block number ever referenced, for cold-miss classification.
    seen: BlockSet,
    /// The most recently touched block (`u64::MAX` before any access):
    /// consecutive references to one block — the common case for
    /// word-by-word walks of an object — skip the lookup entirely.
    last_block: u64,
    /// References absorbed by the run fast path in `record_runs` (repeat
    /// occurrences that advanced only the word counters). Kept outside
    /// [`CacheStats`] so statistics stay independent of how the stream
    /// was delivered.
    fastpath_refs: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Self {
        let direct = config.assoc == 1;
        Cache {
            config,
            lines: if direct { vec![u64::MAX; config.lines() as usize] } else { Vec::new() },
            sets: if direct {
                Vec::new()
            } else {
                vec![Vec::with_capacity(config.assoc as usize); config.sets() as usize]
            },
            seen: BlockSet::new(),
            last_block: u64::MAX,
            fastpath_refs: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// References absorbed by the `record_runs` fast path (counted, not
    /// re-simulated). An observability counter — not part of
    /// [`CacheStats`].
    pub fn fastpath_refs(&self) -> u64 {
        self.fastpath_refs
    }

    /// Simulates one reference: every block it spans is touched, and the
    /// access counters advance by the number of words referenced.
    /// Returns the number of block misses it caused.
    pub fn access(&mut self, r: MemRef) -> u32 {
        let mut misses = 0;
        for block in r.blocks(u64::from(self.config.block)) {
            // The last touched block is necessarily still resident (and,
            // in an associative set, already at the MRU position): no
            // lookup, no LRU work, no miss.
            if block == self.last_block {
                continue;
            }
            self.last_block = block;
            let hit = self.touch_block(block);
            if !hit {
                misses += 1;
                match r.class {
                    AccessClass::AppData => self.stats.app_misses += 1,
                    AccessClass::AllocatorMeta => self.stats.meta_misses += 1,
                }
                if self.seen.insert(block) {
                    self.stats.cold_misses += 1;
                }
            }
        }
        self.count_words(r, 1);
        misses
    }

    /// Advances the word-granular access counters by `n` occurrences of
    /// `r`, without touching tags or LRU state.
    fn count_words(&mut self, r: MemRef, n: u64) {
        let words = r.words() * n;
        match r.class {
            AccessClass::AppData => self.stats.app_accesses += words,
            AccessClass::AllocatorMeta => self.stats.meta_accesses += words,
        }
    }

    /// The replacement state — tags, LRU order and the last-block
    /// short-circuit — without the statistics or the first-touch set.
    /// Two equal tag states react identically to any further stream.
    pub(crate) fn tag_state(&self) -> (Vec<u64>, Vec<Vec<u64>>, u64) {
        (self.lines.clone(), self.sets.clone(), self.last_block)
    }

    /// Multiplies out a walk that left the tag state as it found it:
    /// every later walk of the same reference changes the statistics
    /// exactly as that one did, so `times` more copies of their change
    /// since `before` are added.
    pub(crate) fn repeat_walk(&mut self, before: &CacheStats, times: u64) {
        let s = &mut self.stats;
        s.app_accesses += (s.app_accesses - before.app_accesses) * times;
        s.app_misses += (s.app_misses - before.app_misses) * times;
        s.meta_accesses += (s.meta_accesses - before.meta_accesses) * times;
        s.meta_misses += (s.meta_misses - before.meta_misses) * times;
        s.cold_misses += (s.cold_misses - before.cold_misses) * times;
    }

    /// Checks residency without touching LRU state or statistics.
    pub fn contains_block(&self, block: u64) -> bool {
        if self.config.assoc == 1 {
            let idx = (block % u64::from(self.config.lines())) as usize;
            self.lines[idx] == block
        } else {
            let idx = (block % u64::from(self.config.sets())) as usize;
            self.sets[idx].contains(&block)
        }
    }

    /// Brings `block` into the cache; returns `true` on a hit.
    fn touch_block(&mut self, block: u64) -> bool {
        if self.config.assoc == 1 {
            let idx = (block % u64::from(self.config.lines())) as usize;
            let hit = self.lines[idx] == block;
            self.lines[idx] = block;
            hit
        } else {
            let idx = (block % u64::from(self.config.sets())) as usize;
            let set = &mut self.sets[idx];
            if let Some(pos) = set.iter().position(|&t| t == block) {
                // Move to MRU position: rotate the prefix in place
                // instead of remove + insert (two shifting memmoves).
                set[..=pos].rotate_right(1);
                true
            } else {
                if set.len() < self.config.assoc as usize {
                    set.push(block);
                    set.rotate_right(1);
                } else {
                    // Full set: the rotate parks the LRU tag at the
                    // front, where the new block overwrites it.
                    set.rotate_right(1);
                    set[0] = block;
                }
                false
            }
        }
    }
}

impl AccessSink for Cache {
    fn record(&mut self, r: MemRef) {
        self.access(r);
    }

    /// Run fast path: the reference's block span is decomposed once per
    /// run. When the span fits the cache (`span ≤ lines`), the first
    /// occurrence's walk leaves every spanned block resident — the span
    /// places at most `ceil(span / sets) ≤ assoc` blocks in any set, and
    /// an insertion always evicts an older non-span entry while one
    /// exists — so every repeat is an all-hit pass that re-touches the
    /// sets in the identical order, leaving both the MRU ordering and
    /// every counter exactly where the raw stream would. Only the word
    /// counters move. (`span == 1` is the historical single-block case:
    /// repeats are swallowed by the last-block short-circuit.)
    ///
    /// A span wider than the cache costs two walks, however many times
    /// it repeats. After one occurrence the tag state is a fixed point
    /// of the next: a direct-mapped line holds the last spanned block
    /// that maps to it, and an LRU set holds its last `assoc` distinct
    /// spanned blocks in recency order above any untouched older
    /// entries. Every repeat from the second on starts from that state
    /// with `last_block` at the span's last block, so it misses exactly
    /// as often as the second (cold misses can only happen in the
    /// first): the second is walked and its misses are multiplied out.
    fn record_runs(&mut self, runs: &[RefRun]) {
        for run in runs {
            self.access(run.r);
            if run.count > 1 {
                let span = run.r.block_span(u64::from(self.config.block));
                if span <= u64::from(self.config.lines()) {
                    self.fastpath_refs += u64::from(run.count - 1);
                    self.count_words(run.r, u64::from(run.count - 1));
                } else {
                    let before = self.stats;
                    self.access(run.r);
                    let rest = u64::from(run.count - 2);
                    let s = &mut self.stats;
                    s.app_misses += (s.app_misses - before.app_misses) * rest;
                    s.meta_misses += (s.meta_misses - before.meta_misses) * rest;
                    s.cold_misses += (s.cold_misses - before.cold_misses) * rest;
                    self.count_words(run.r, rest);
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sim_mem::{Address, MemRef};

    fn dm(size: u32) -> Cache {
        Cache::new(CacheConfig::direct_mapped(size, 32))
    }

    #[test]
    fn blockset_tracks_membership_across_leaves() {
        let mut s = BlockSet::new();
        // Blocks straddling leaf boundaries and far-apart ranges, up to
        // both sides of the dense bound and the top of the block space.
        let dense_top = (DENSE_LEAVES << 12) - 1;
        let blocks = [0u64, 63, 64, 4095, 4096, 1 << 20, (1 << 20) + 1, dense_top, dense_top + 1];
        for &b in blocks.iter().chain(&[u64::MAX >> 5, u64::MAX]) {
            assert!(!s.contains(b));
            assert!(s.insert(b), "first insert of {b:#x}");
            assert!(!s.insert(b), "second insert of {b:#x}");
            assert!(s.contains(b));
        }
        assert_eq!(s.len(), 11);
        assert!(!s.contains(1), "neighbours stay clear");
        assert!(!s.contains(1 << 30), "unallocated leaves read as absent");
        assert!(!s.contains(u64::MAX - 1), "high neighbours stay clear");
        assert_eq!(s.leaves.len() as u64, DENSE_LEAVES, "the dense table stops at its bound");
        assert_eq!(s.high.len(), 3);
    }

    #[test]
    fn blockset_matches_hashset_on_random_stream() {
        use std::collections::HashSet;
        let mut bitmap = BlockSet::new();
        let mut reference = HashSet::new();
        let mut x = 42u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let block = x % 100_000;
            assert_eq!(bitmap.insert(block), reference.insert(block));
        }
        assert_eq!(bitmap.len(), reference.len() as u64);
        for b in 0..100_000 {
            assert_eq!(bitmap.contains(b), reference.contains(&b));
        }
    }

    #[test]
    fn same_block_hits_after_cold_miss() {
        let mut c = dm(1024);
        assert_eq!(c.access(MemRef::app_read(Address::new(100), 4)), 1);
        assert_eq!(c.access(MemRef::app_read(Address::new(96), 4)), 0);
        assert_eq!(c.stats().miss_rate(), 0.5);
        assert_eq!(c.stats().cold_misses, 1);
    }

    #[test]
    fn spatial_prefetch_within_block() {
        // A 32-byte object written at once: one miss, then word reads hit.
        let mut c = dm(1024);
        c.access(MemRef::app_write(Address::new(64), 32));
        for off in (64..96).step_by(4) {
            assert_eq!(c.access(MemRef::app_read(Address::new(off), 4)), 0);
        }
    }

    #[test]
    fn conflicting_blocks_evict_in_direct_mapped() {
        let mut c = dm(1024); // 32 lines
        let a = Address::new(0);
        let b = Address::new(1024); // same line, different tag
        c.access(MemRef::app_read(a, 4));
        c.access(MemRef::app_read(b, 4));
        assert_eq!(c.access(MemRef::app_read(a, 4)), 1, "a was evicted by b");
        assert_eq!(c.stats().cold_misses, 2);
        assert_eq!(c.stats().replacement_misses(), 1);
    }

    #[test]
    fn two_way_set_assoc_tolerates_the_conflict() {
        let mut c = Cache::new(CacheConfig::set_associative(1024, 32, 2));
        let a = Address::new(0);
        let b = Address::new(1024);
        c.access(MemRef::app_read(a, 4));
        c.access(MemRef::app_read(b, 4));
        assert_eq!(c.access(MemRef::app_read(a, 4)), 0, "2-way keeps both");
    }

    #[test]
    fn lru_replacement_in_sets() {
        let mut c = Cache::new(CacheConfig::set_associative(1024, 32, 2));
        // Three blocks mapping to the same set (16 sets).
        let a = Address::new(0);
        let b = Address::new(512);
        let d = Address::new(1024);
        c.access(MemRef::app_read(a, 4));
        c.access(MemRef::app_read(b, 4));
        c.access(MemRef::app_read(a, 4)); // a is MRU
        c.access(MemRef::app_read(d, 4)); // evicts b (LRU)
        assert_eq!(c.access(MemRef::app_read(a, 4)), 0);
        assert_eq!(c.access(MemRef::app_read(b, 4)), 1);
    }

    #[test]
    fn multi_block_refs_count_words_and_block_misses() {
        let mut c = dm(4096);
        // 128-byte write = 4 block misses, 32 word accesses.
        assert_eq!(c.access(MemRef::app_write(Address::new(0), 128)), 4);
        assert_eq!(c.stats().app_accesses, 32);
        assert_eq!(c.stats().misses(), 4);
    }

    #[test]
    fn class_split_is_tracked() {
        let mut c = dm(1024);
        c.access(MemRef::app_read(Address::new(0), 4));
        c.access(MemRef::meta_write(Address::new(4096), 4));
        c.access(MemRef::meta_read(Address::new(4096), 4));
        let s = c.stats();
        assert_eq!(s.app_accesses, 1);
        assert_eq!(s.app_misses, 1);
        assert_eq!(s.meta_accesses, 2);
        assert_eq!(s.meta_misses, 1);
    }

    /// The stats of a run repeated `count` times from counts 2 and 3:
    /// every repeat after the first adds what the second added.
    pub(crate) fn closed_form(two: CacheStats, three: CacheStats, count: u32) -> CacheStats {
        let step = |a: u64, b: u64| a + (b - a) * u64::from(count - 2);
        CacheStats {
            app_accesses: step(two.app_accesses, three.app_accesses),
            app_misses: step(two.app_misses, three.app_misses),
            meta_accesses: step(two.meta_accesses, three.meta_accesses),
            meta_misses: step(two.meta_misses, three.meta_misses),
            cold_misses: step(two.cold_misses, three.cold_misses),
        }
    }

    #[test]
    fn a_wide_span_repeated_u32_max_times_matches_its_closed_form() {
        // 601 blocks, wider than the 512-line cache, after a reference
        // that shares a set with the span's first block.
        let conflict = RefRun { r: MemRef::meta_write(Address::new(512 * 32 + 40), 4), count: 1 };
        let wide = MemRef::app_read(Address::new(17), 600 * 32);
        for assoc in [1, 2, 8] {
            let cfg = CacheConfig::set_associative(16 * 1024, 32, assoc);
            let stats = |count: u32| {
                let mut c = Cache::new(cfg);
                c.record_runs(&[conflict, RefRun { r: wide, count }]);
                *c.stats()
            };
            let expanded = |count: u32| {
                let mut c = Cache::new(cfg);
                c.access(conflict.r);
                for _ in 0..count {
                    c.access(wide);
                }
                *c.stats()
            };
            let (two, three) = (stats(2), stats(3));
            assert_eq!((two, three), (expanded(2), expanded(3)), "assoc {assoc}");
            assert!(three.misses() > two.misses(), "assoc {assoc}: repeats must miss");
            assert_eq!(three.cold_misses, two.cold_misses, "assoc {assoc}");
            assert_eq!(stats(u32::MAX), closed_form(two, three, u32::MAX), "assoc {assoc}");
        }
    }

    #[test]
    fn bigger_cache_never_misses_more_on_sequential_scan() {
        // Sequential scan with reuse: larger direct-mapped cache wins.
        let mut small = dm(1024);
        let mut large = dm(8192);
        for round in 0..4 {
            for i in 0..64 {
                let r = MemRef::app_read(Address::new(i * 32), 4);
                small.access(r);
                large.access(r);
                let _ = round;
            }
        }
        assert!(large.stats().misses() <= small.stats().misses());
        assert_eq!(large.stats().misses(), 64, "all fit: only cold misses");
    }
}
