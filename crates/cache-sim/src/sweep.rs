//! Single-pass simulation of the paper's whole cache sweep.
//!
//! [`crate::CacheBank`] simulates N configurations by replaying every
//! reference N times — once per member [`Cache`], each with its own
//! block decomposition, its own last-block short-circuit, and its own
//! cold-miss membership set. The paper's sweep has more structure than
//! that: every configuration is direct-mapped with the *same*
//! power-of-two block size, and the line counts are powers of two, so
//! the set index of a smaller cache is a bit-suffix of the largest
//! cache's index:
//!
//! ```text
//! index_i(block) = block mod lines_i = (block mod lines_max) mod lines_i
//!                = index_max(block) & (lines_i - 1)
//! ```
//!
//! [`SweepCache`] exploits that: one walk over the reference stream
//! decomposes each reference into blocks *once* and updates every tag
//! array from that shared decomposition. Three more pieces of per-member
//! state collapse into shared state, each exactly, because every member
//! consumes the identical stream:
//!
//! * the **last-block short-circuit** — the most recently touched block
//!   is the same for every member;
//! * the **cold-miss [`BlockSet`]** — a block's first-ever touch misses
//!   in *every* member (it cannot be resident anywhere before it has
//!   ever been referenced), so each member's "seen" set would grow
//!   identically anyway;
//! * the **word-granular access counters** — accesses are counted per
//!   reference, not per block fetched, so every member's totals are
//!   equal and one shared pair (app/meta) suffices. Only misses differ
//!   per member.
//!
//! # Data-parallel member pass
//!
//! The per-block member loop is laid out as a branch-minimized
//! struct-of-arrays pass. Miss counters live in flat per-member lanes
//! (one app lane, one meta lane, one cold lane) instead of an
//! array-of-structs, the lane for the reference's class is selected
//! *once* per touch by indexing instead of branching per member, and
//! the hit/miss decision inside the loop is a flag-free compare:
//!
//! ```text
//! miss   = (tag != block) as u64    // no branch
//! tag    = block                    // unconditional: a hit stores the
//!                                   // value already there
//! lane  += miss
//! any   |= miss
//! ```
//!
//! The freshness query is hoisted *out* of the member loop entirely: a
//! block's first-ever touch misses in every member, so when the shared
//! set reports fresh, every cold counter advances by one; and when every
//! member hit, the block was necessarily inserted on its first touch, so
//! skipping the query changes nothing.
//!
//! Before the member pass runs at all, one compare against the
//! *smallest* member's tag filters the common case. The suffix-index
//! structure makes the smallest member a conservative witness for the
//! whole sweep: the blocks aliasing member `j`'s slot for `block` are
//! `{b : b ≡ block mod lines_j}`, and since `lines_min` divides
//! `lines_j`, that set is contained in the blocks aliasing the smallest
//! member's slot. If the smallest member still holds `block`, no
//! aliasing block has been touched since `block`'s own last touch (which
//! stored it into *every* member), so nothing can have evicted it from
//! any member: a smallest-member hit is a hit everywhere. The touch then
//! changes no tag, no miss lane, and no freshness state — returning
//! after the single compare is bit-identical and skips the whole pass on
//! the hit-dominated steady state.
//!
//! # Run-aware multi-block fast path
//!
//! [`AccessSink::record_runs`] decomposes each [`RefRun`] into its block
//! span once. A repeated span of `span = last − first + 1` consecutive
//! blocks with `span ≤ min_lines` (the smallest member's line count)
//! maps to `span` *distinct* indices in every member — consecutive block
//! numbers collide mod `lines` only when the span exceeds `lines`. After
//! the first occurrence's walk, every spanned block is therefore
//! resident in every member, so each repeat would be all hits
//! everywhere: no tag changes, no miss counts, no freshness inserts, and
//! the last-block short-circuit state ends where it already is. The
//! repeats collapse to word counting, exactly as the single-block fast
//! path (which is the `span == 1` case) always did.
//!
//! A span wider than the smallest member is walked twice, however many
//! times it repeats. After its first occurrence every member's tags are
//! a fixed point of the next: a line the span covers holds the last
//! spanned block that maps to it, whether the span fits the member or
//! not, and no other line is touched. Every repeat from the second on
//! therefore starts from the same tags with the last-block
//! short-circuit at the span's last block, and misses exactly as the
//! second does — cold misses can only happen in the first, which
//! inserted every spanned block. The second repeat is walked and each
//! miss lane's growth is multiplied out over the rest.
//!
//! The result is bit-identical to a bank of independent [`Cache`]s fed
//! the same stream, at roughly one cache's cost instead of five — the
//! pre-restructure implementation is preserved verbatim as
//! [`crate::reference::ReferenceSweepCache`] and `bench perf --sinks`
//! verifies the identity while timing both.

use sim_mem::{AccessClass, AccessSink, MemRef, RefRun};

use crate::cache::BlockSet;
use crate::{CacheConfig, CacheStats};

/// Many direct-mapped, common-block-size caches simulated in one walk
/// over the reference stream.
///
/// Construct with [`SweepCache::try_new`]; configurations that do not
/// share the sweep structure (associative members, mixed block sizes)
/// are rejected so callers can fall back to a [`crate::CacheBank`].
///
/// # Example
///
/// ```
/// use cache_sim::{CacheConfig, SweepCache};
/// use sim_mem::{AccessSink, Address, MemRef};
///
/// let mut sweep = SweepCache::try_new(CacheConfig::paper_sweep()).unwrap();
/// sweep.record(MemRef::app_read(Address::new(0), 4));
/// assert_eq!(sweep.results().len(), 5);
/// assert!(sweep.results().iter().all(|(_, s)| s.misses() == 1));
/// ```
#[derive(Debug, Clone)]
pub struct SweepCache {
    /// `log2` of the shared block size, so block numbers come from a
    /// shift on the per-reference fast path.
    block_shift: u32,
    /// Member configurations, in construction order.
    configs: Vec<CacheConfig>,
    /// Per member: line-index mask (`lines - 1`).
    masks: Vec<u64>,
    /// Per member: offset of its tag array within `tags`.
    offsets: Vec<usize>,
    /// All members' tag arrays, concatenated (`u64::MAX` = invalid).
    tags: Vec<u64>,
    /// Per-member miss lanes, struct-of-arrays: the app lane (all
    /// members, construction order) followed by the meta lane, indexed
    /// by `class as usize * members + member`.
    miss_lanes: Vec<u64>,
    /// Per-member cold-miss lane.
    miss_cold: Vec<u64>,
    /// Shared word-granular access counters, indexed by
    /// `AccessClass as usize` (identical for every member; see the
    /// module docs).
    words: [u64; 2],
    /// Every block number ever referenced — shared by all members.
    seen: BlockSet,
    /// The most recently touched block (`u64::MAX` before any access).
    last_block: u64,
    /// The smallest member's line count: the widest block span whose
    /// repeats the run fast path may absorb (see the module docs).
    min_lines: u64,
    /// Offset of the smallest member's tag array within `tags`: the
    /// all-members-hit filter probes this member first (see the module
    /// docs).
    min_offset: usize,
    /// References absorbed by the run fast path in `record_runs` (repeat
    /// occurrences that advanced only the shared word counters). An
    /// observability counter, deliberately outside the per-member
    /// [`CacheStats`].
    fastpath_refs: u64,
}

impl SweepCache {
    /// Builds a single-pass sweep over `configs`, or `None` if they do
    /// not share the sweep structure: at least one member, all
    /// direct-mapped, all with the same block size. (Power-of-two sizes
    /// are already guaranteed by [`CacheConfig`]'s constructors.)
    pub fn try_new(configs: impl IntoIterator<Item = CacheConfig>) -> Option<Self> {
        let configs: Vec<CacheConfig> = configs.into_iter().collect();
        let block = configs.first()?.block;
        if configs.iter().any(|c| c.assoc != 1 || c.block != block) {
            return None;
        }
        let mut offsets = Vec::with_capacity(configs.len());
        let mut masks = Vec::with_capacity(configs.len());
        let mut total = 0usize;
        for c in &configs {
            offsets.push(total);
            masks.push(u64::from(c.lines()) - 1);
            total += c.lines() as usize;
        }
        let min_lines = configs.iter().map(|c| u64::from(c.lines())).min()?;
        let min_idx = masks.iter().position(|&m| m == min_lines - 1).expect("min exists");
        let min_offset = offsets[min_idx];
        Some(SweepCache {
            block_shift: block.trailing_zeros(),
            miss_lanes: vec![0; 2 * configs.len()],
            miss_cold: vec![0; configs.len()],
            configs,
            masks,
            offsets,
            tags: vec![u64::MAX; total],
            words: [0; 2],
            seen: BlockSet::new(),
            last_block: u64::MAX,
            min_lines,
            min_offset,
            fastpath_refs: 0,
        })
    }

    /// The member configurations, in construction order.
    pub fn configs(&self) -> &[CacheConfig] {
        &self.configs
    }

    /// Statistics for the member with exactly this configuration, if any.
    pub fn stats_for(&self, config: CacheConfig) -> Option<CacheStats> {
        self.configs.iter().position(|&c| c == config).map(|i| self.member_stats(i))
    }

    /// `(config, stats)` pairs for reporting, in construction order.
    pub fn results(&self) -> Vec<(CacheConfig, CacheStats)> {
        (0..self.configs.len()).map(|i| (self.configs[i], self.member_stats(i))).collect()
    }

    /// References absorbed by the `record_runs` fast path (counted, not
    /// re-simulated). An observability counter — not part of any
    /// member's [`CacheStats`].
    pub fn fastpath_refs(&self) -> u64 {
        self.fastpath_refs
    }

    /// Folds a member's miss lanes into a [`CacheStats`] at reporting
    /// time — the lanes themselves stay flat counters on the hot path.
    fn member_stats(&self, i: usize) -> CacheStats {
        let members = self.configs.len();
        CacheStats {
            app_accesses: self.words[AccessClass::AppData as usize],
            app_misses: self.miss_lanes[AccessClass::AppData as usize * members + i],
            meta_accesses: self.words[AccessClass::AllocatorMeta as usize],
            meta_misses: self.miss_lanes[AccessClass::AllocatorMeta as usize * members + i],
            cold_misses: self.miss_cold[i],
        }
    }

    /// Simulates one reference against every member: the block
    /// decomposition happens once, each spanned block updates all tag
    /// arrays, and the shared access counters advance by the number of
    /// words referenced.
    pub fn access(&mut self, r: MemRef) {
        let first = r.addr.raw() >> self.block_shift;
        let last = r.last_byte() >> self.block_shift;
        self.walk_span(first, last, r.class);
        self.count_words(r, 1);
    }

    /// Touches every block in `first..=last` through the shared
    /// last-block short-circuit.
    #[inline]
    fn walk_span(&mut self, first: u64, last: u64, class: AccessClass) {
        if first == last {
            // Nearly every reference is word-sized: one block, one
            // shared short-circuit check.
            if first != self.last_block {
                self.last_block = first;
                self.touch_block(first, class);
            }
        } else {
            for block in first..=last {
                if block == self.last_block {
                    continue;
                }
                self.last_block = block;
                self.touch_block(block, class);
            }
        }
    }

    /// Advances the shared word-granular access counters by `n`
    /// occurrences of `r`, without touching tags.
    #[inline]
    fn count_words(&mut self, r: MemRef, n: u64) {
        self.words[r.class as usize] += r.words() * n;
    }

    /// Brings `block` into every member: the branch-minimized
    /// struct-of-arrays pass described in the module docs.
    #[inline]
    fn touch_block(&mut self, block: u64, class: AccessClass) {
        // Smallest-member filter: a hit here is provably a hit in every
        // member (see the module docs), and an all-hit touch changes no
        // state at all.
        if self.tags[self.min_offset + (block & (self.min_lines - 1)) as usize] == block {
            return;
        }
        let SweepCache { offsets, masks, tags, miss_lanes, miss_cold, seen, .. } = self;
        let members = offsets.len();
        // One indexed lane selection per touch instead of a class
        // branch per missing member.
        let base = class as usize * members;
        let lane = &mut miss_lanes[base..base + members];
        let mut any = 0u64;
        for ((&offset, &mask), m) in offsets.iter().zip(masks.iter()).zip(lane.iter_mut()) {
            let slot = offset + (block & mask) as usize;
            // Flag-free hit/miss: the store is unconditional (a hit
            // rewrites the value already there) and the miss feeds the
            // lane as an integer.
            let miss = u64::from(tags[slot] != block);
            tags[slot] = block;
            *m += miss;
            any |= miss;
        }
        // Freshness hoisted out of the member loop. If every member hit,
        // the block was inserted on its first-ever touch (which missed
        // everywhere), so skipping the query is state-identical; if the
        // query reports fresh, that first-ever touch is happening now
        // and every member's miss was cold.
        if any != 0 && seen.insert(block) {
            for cold in miss_cold.iter_mut() {
                *cold += 1;
            }
        }
    }

    /// The repeats of a span wider than the smallest member, after its
    /// first occurrence: walks the second and adds its growth in every
    /// miss lane `rest` more times (the fixed point in the module docs).
    /// Word counters are the caller's.
    #[cold]
    #[inline(never)]
    fn repeat_wide_span(&mut self, first: u64, last: u64, class: AccessClass, rest: u64) {
        let (lanes, cold) = (self.miss_lanes.clone(), self.miss_cold.clone());
        self.walk_span(first, last, class);
        for (lane, before) in self.miss_lanes.iter_mut().zip(lanes) {
            *lane += (*lane - before) * rest;
        }
        for (lane, before) in self.miss_cold.iter_mut().zip(cold) {
            *lane += (*lane - before) * rest;
        }
    }
}

impl AccessSink for SweepCache {
    fn record(&mut self, r: MemRef) {
        self.access(r);
    }

    fn record_batch(&mut self, batch: &[MemRef]) {
        for &r in batch {
            self.access(r);
        }
    }

    /// Run fast path: the block span is decomposed once per run. After
    /// the first occurrence's walk, a span no wider than the smallest
    /// member leaves every spanned block resident in every member, so
    /// each repeat would be all hits — only the shared word counters
    /// move (see the module docs). Wider spans walk their second
    /// occurrence and multiply its misses out over the rest.
    fn record_runs(&mut self, runs: &[RefRun]) {
        let shift = self.block_shift;
        let min_lines = self.min_lines;
        // Word and fast-path counters accumulate in locals across the
        // whole slice and fold into the struct at flush.
        let mut words = [0u64; 2];
        let mut fastpath = 0u64;
        for run in runs {
            let r = run.r;
            let first = r.addr.raw() >> shift;
            let last = r.last_byte() >> shift;
            self.walk_span(first, last, r.class);
            let n = u64::from(run.count);
            words[r.class as usize] += r.words() * n;
            if run.count > 1 {
                if last - first < min_lines {
                    fastpath += n - 1;
                } else {
                    self.repeat_wide_span(first, last, r.class, n - 2);
                }
            }
        }
        self.words[0] += words[0];
        self.words[1] += words[1];
        self.fastpath_refs += fastpath;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::tests::closed_form;
    use crate::reference::ReferenceSweepCache;
    use crate::Cache;
    use sim_mem::Address;

    fn paper() -> SweepCache {
        SweepCache::try_new(CacheConfig::paper_sweep()).expect("paper sweep is sweepable")
    }

    /// Reference model: independent caches fed the same stream.
    fn bank(configs: &[CacheConfig]) -> Vec<Cache> {
        configs.iter().map(|&c| Cache::new(c)).collect()
    }

    #[test]
    fn rejects_non_sweep_shapes() {
        assert!(SweepCache::try_new([]).is_none(), "empty");
        assert!(
            SweepCache::try_new([CacheConfig::set_associative(16 * 1024, 32, 2)]).is_none(),
            "associative"
        );
        assert!(
            SweepCache::try_new([
                CacheConfig::direct_mapped(16 * 1024, 32),
                CacheConfig::direct_mapped(16 * 1024, 16),
            ])
            .is_none(),
            "mixed block sizes"
        );
    }

    #[test]
    fn matches_independent_caches_on_a_mixed_stream() {
        let configs = CacheConfig::paper_sweep();
        let mut sweep = paper();
        let mut caches = bank(&configs);
        // A mix of classes, sizes, conflicts, and revisits.
        let mut x = 7u64;
        for i in 0..50_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = Address::new(x % (1 << 20));
            let r = match i % 4 {
                0 => MemRef::app_read(addr, 4),
                1 => MemRef::app_write(addr, (x % 300) as u32 + 1),
                2 => MemRef::meta_read(addr, 4),
                _ => MemRef::meta_write(addr, 8),
            };
            sweep.access(r);
            for c in &mut caches {
                c.access(r);
            }
        }
        for (i, c) in caches.iter().enumerate() {
            assert_eq!(sweep.results()[i].1, *c.stats(), "member {i} diverged");
        }
    }

    #[test]
    fn run_fast_path_matches_expansion() {
        let configs = CacheConfig::paper_sweep();
        let mut fast = paper();
        let mut slow = bank(&configs);
        let runs = [
            RefRun { r: MemRef::app_write(Address::new(100), 4), count: 1000 },
            RefRun { r: MemRef::app_read(Address::new(100), 4), count: 3 },
            // Multi-block, span within the smallest member: absorbed by
            // the span fast path.
            RefRun { r: MemRef::app_write(Address::new(90), 64), count: 7 },
            RefRun { r: MemRef::meta_read(Address::new(4096), 4), count: 2 },
            // Span wider than the smallest member (512 lines × 32 B):
            // must take the re-walk fallback.
            RefRun { r: MemRef::app_read(Address::new(64), 600 * 32), count: 3 },
        ];
        fast.record_runs(&runs);
        for run in &runs {
            for _ in 0..run.count {
                for c in &mut slow {
                    c.access(run.r);
                }
            }
        }
        for (i, c) in slow.iter().enumerate() {
            assert_eq!(fast.results()[i].1, *c.stats(), "member {i} diverged");
        }
        // 999 + 2 + 6 + 1 repeats absorbed; the wide span's 2 repeats
        // are re-walked.
        assert_eq!(fast.fastpath_refs(), 999 + 2 + 6 + 1);
    }

    #[test]
    fn multi_block_spans_absorb_repeats_exactly() {
        // A span that conflicts *within itself* in the smallest member
        // would break the fast path's residency argument; the gate
        // excludes it. Here: spans of every width around the 512-line
        // boundary of the 16K member, interleaved with conflicting
        // single blocks, against both the old implementation and a
        // fresh expansion.
        let configs = CacheConfig::paper_sweep();
        let mut fast = paper();
        let mut old = ReferenceSweepCache::try_new(configs.clone()).unwrap();
        let mut slow = bank(&configs);
        let mut runs = Vec::new();
        for (i, &blocks) in [1u64, 2, 3, 511, 512, 513, 700].iter().enumerate() {
            let addr = Address::new(i as u64 * 1_000_000 + 17);
            let size = (blocks * 32) as u32;
            runs.push(RefRun { r: MemRef::app_read(addr, size), count: 5 });
            // Conflict with the span's first block in the 16K member.
            let conflict = Address::new(i as u64 * 1_000_000 + 17 + 512 * 32);
            runs.push(RefRun { r: MemRef::meta_write(conflict, 4), count: 2 });
            runs.push(RefRun { r: MemRef::app_read(addr, size), count: 4 });
        }
        fast.record_runs(&runs);
        old.record_runs(&runs);
        for run in &runs {
            for _ in 0..run.count {
                for c in &mut slow {
                    c.access(run.r);
                }
            }
        }
        assert_eq!(fast.results(), old.results());
        for (i, c) in slow.iter().enumerate() {
            assert_eq!(fast.results()[i].1, *c.stats(), "member {i} diverged");
        }
    }

    #[test]
    fn a_wide_span_repeated_u32_max_times_matches_its_closed_form() {
        // 601 blocks: wider than the 16K member's 512 lines, narrower
        // than every other member.
        let conflict = RefRun { r: MemRef::meta_write(Address::new(512 * 32 + 40), 4), count: 1 };
        let wide = MemRef::app_read(Address::new(17), 600 * 32);
        let stats = |count: u32| {
            let mut sweep = paper();
            sweep.record_runs(&[conflict, RefRun { r: wide, count }]);
            sweep.results()
        };
        let expanded = |count: u32| {
            let mut sweep = paper();
            sweep.access(conflict.r);
            for _ in 0..count {
                sweep.access(wide);
            }
            sweep.results()
        };
        let (two, three, max) = (stats(2), stats(3), stats(u32::MAX));
        assert_eq!((&two, &three), (&expanded(2), &expanded(3)));
        assert!(three[0].1.misses() > two[0].1.misses(), "the 16K member's repeats miss");
        for i in 0..two.len() {
            assert_eq!(max[i].1, closed_form(two[i].1, three[i].1, u32::MAX), "member {i}");
        }
    }

    #[test]
    fn stats_for_and_configs_report_members() {
        let sweep = paper();
        assert_eq!(sweep.configs().len(), 5);
        let k64 = CacheConfig::direct_mapped(64 * 1024, 32);
        assert!(sweep.stats_for(k64).is_some());
        assert!(sweep.stats_for(CacheConfig::direct_mapped(512 * 1024, 32)).is_none());
    }

    #[test]
    fn shared_cold_classification_counts_once_per_member() {
        let mut sweep = paper();
        sweep.access(MemRef::app_read(Address::new(0), 4));
        for (_, s) in sweep.results() {
            assert_eq!(s.cold_misses, 1);
            assert_eq!(s.misses(), 1);
        }
        // Conflict eviction in the smallest member only: 16K = 512
        // lines, so block 512 conflicts with block 0 there and nowhere
        // else. Re-touching block 0 then misses only in the 16K member,
        // and that miss is *not* cold.
        sweep.access(MemRef::app_read(Address::new(512 * 32), 4));
        sweep.access(MemRef::app_read(Address::new(0), 4));
        let results = sweep.results();
        assert_eq!(results[0].1.misses(), 3, "16K: cold, cold, conflict");
        assert_eq!(results[0].1.cold_misses, 2);
        for (_, s) in &results[1..] {
            assert_eq!(s.misses(), 2, "bigger members keep both blocks");
            assert_eq!(s.cold_misses, 2);
        }
    }
}
