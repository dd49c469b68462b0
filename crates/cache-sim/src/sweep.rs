//! Single-pass simulation of a whole cache sweep.
//!
//! [`crate::CacheBank`] simulates N configurations by replaying every
//! reference N times — once per member [`Cache`], each with its own
//! block decomposition, its own last-block short-circuit, and its own
//! cold-miss membership set. A sweep whose members share one
//! power-of-two block size has more structure than that: every member's
//! set count is a power of two, so the set index of a member with fewer
//! sets is a bit-suffix of the index in a member with more:
//!
//! ```text
//! index_i(block) = block mod sets_i = (block mod sets_j) mod sets_i
//!                = index_j(block) & (sets_i - 1)        (sets_i ≤ sets_j)
//! ```
//!
//! [`SweepCache`] exploits that: one walk over the reference stream
//! decomposes each reference into blocks *once* and updates every tag
//! array from that shared decomposition. Three more pieces of per-member
//! state collapse into shared state, each exactly, because every member
//! consumes the identical stream:
//!
//! * the **last-block short-circuit** — the most recently touched block
//!   is the same for every member (and, in an LRU set, already at the
//!   most-recently-used position);
//! * the **cold-miss `BlockSet`** — a block's first-ever touch misses
//!   in *every* member (it cannot be resident anywhere before it has
//!   ever been referenced), so each member's "seen" set would grow
//!   identically anyway;
//! * the **word-granular access counters** — accesses are counted per
//!   reference, not per block fetched, so every member's totals are
//!   equal and one shared pair (app/meta) suffices. Only misses differ
//!   per member.
//!
//! # Accepted shapes
//!
//! [`SweepCache::try_new`] accepts any non-empty set of members that
//! share one block size. Direct-mapped, set-associative and fully
//! associative members mix freely, and a configuration may appear more
//! than once (each copy is its own member). Only an empty set and mixed
//! block sizes are rejected: a caller with several block sizes builds
//! one sweep per block size.
//!
//! Every member keeps `sets × ways` tags inside the one concatenated tag
//! array. Set `s` of a member at offset `o` with `w` ways is
//! `tags[o + s·w .. o + (s + 1)·w]`, most-recently-used (MRU) first, with
//! `u64::MAX` marking an invalid way (invalid ways only ever sit at the
//! end). A touch puts the block at the front and shifts the tags it
//! passes one way down; a miss drops the least-recently-used tag off the
//! end. That is [`Cache`]'s LRU rule, laid out flat and indexed by mask.
//!
//! # Data-parallel member pass
//!
//! When every member is direct-mapped, the per-block member loop is a
//! branch-minimized struct-of-arrays pass. Miss counters live in flat
//! per-member lanes (one app lane, one meta lane, one cold lane) instead
//! of an array-of-structs, the lane for the reference's class is
//! selected *once* per touch by indexing instead of branching per
//! member, and the hit/miss decision inside the loop is a flag-free
//! compare:
//!
//! ```text
//! miss   = (tag != block) as u64    // no branch
//! tag    = block                    // unconditional: a hit stores the
//!                                   // value already there
//! lane  += miss
//! any   |= miss
//! ```
//!
//! A sweep with any associative member runs the generic loop instead,
//! which walks each member's set until it finds the block. The generic
//! loop would handle direct-mapped members too (a one-way set), but on
//! the paper sweep over the benchmark's 25 matrix cells it took
//! 0.19–0.20 s per pass against the flag-free pass's 0.15–0.17 s (2-vCPU
//! host), so [`SweepCache::try_new`] picks the loop once, from the
//! members' shapes, and the all-direct-mapped sweep keeps its own.
//!
//! Both loops share the lane layout and the hoisted freshness query: a
//! block's first-ever touch misses in every member, so when the shared
//! set reports fresh, every cold counter advances by one; and when every
//! member hit, the block was necessarily inserted on its first touch, so
//! skipping the query changes nothing.
//!
//! # The MRU witness
//!
//! Before the member pass runs at all, one compare against the member
//! with the fewest sets filters the common case: if `block` is MRU in
//! its set of that member, it is MRU in its set of every member, so the
//! touch is skipped.
//!
//! *Proof.* Write `A_i(b) = {x : x ≡ b mod sets_i}` for the blocks that
//! share `b`'s set in member `i` (its aliases there), and let `w` be the
//! member with the fewest sets. Set counts are powers of two, so
//! `sets_w` divides every `sets_i`, and `x ≡ b mod sets_i` implies
//! `x ≡ b mod sets_w`: `A_i(b) ⊆ A_w(b)`. A touch of any block `x`
//! leaves `x` MRU in its set of every member, and the MRU entry of a set
//! changes only when a block of that set is touched. Now let `b` be MRU
//! in member `w`. It is a valid tag (the invalid marker `u64::MAX` is no
//! block number for blocks of two bytes or more), so `b` has been
//! touched; let `t` be its last touch. No block of `A_w(b)` other than `b` has been touched
//! since `t`: the first such touch would have made that block MRU in
//! `w`, and only a later touch of `b` could have put `b` back. Since
//! `A_i(b) ⊆ A_w(b)`, no other alias of `b` in member `i` has been
//! touched since `t` either, so member `i`'s set for `b` is as `t` left
//! it, with `b` MRU. ∎
//!
//! A touch of a block that is MRU everywhere is a hit at the front of
//! every set: no tag moves, no miss lane grows, and the block is already
//! in the shared first-touch set. Returning after the single compare is
//! therefore bit-identical, and on the hit-dominated steady state it
//! skips the whole pass. In an all-direct-mapped sweep "MRU" is
//! "resident" and the witness is the member with the fewest lines.
//!
//! # Run-aware multi-block fast path
//!
//! [`AccessSink::record_runs`] decomposes each [`RefRun`] into its block
//! span once. Take a repeated span of `span = last − first + 1`
//! consecutive blocks with `span ≤ min_lines`, the fewest lines of any
//! member. Consecutive block numbers spread evenly over a member's sets,
//! so the span places at most `⌈span / sets⌉ ≤ ways` blocks in any set,
//! and an insertion evicts an older, unspanned entry while the set holds
//! one: after the first occurrence's walk, every spanned block is
//! resident in every member. Each repeat is then all hits everywhere,
//! re-touching every set's spanned blocks in the same order, so it
//! leaves the MRU order as it found it: no tag changes, no miss counts,
//! no freshness inserts, and the last-block short-circuit state ends
//! where it already is. The repeats collapse to word counting, exactly
//! as the single-block fast path (which is the `span == 1` case) always
//! did.
//!
//! A span wider than that is walked twice, however many times it
//! repeats. After its first occurrence every member's tags are a fixed
//! point of the next: a direct-mapped line holds the last spanned block
//! that maps to it, and an LRU set holds its last `ways` distinct
//! spanned blocks in recency order above any untouched older entries,
//! whether the span fits the member or not; no other set is touched.
//! Every repeat from the second on therefore starts from the same tags
//! with the last-block short-circuit at the span's last block, and
//! misses exactly as the second does — cold misses can only happen in
//! the first, which inserted every spanned block. The second repeat is
//! walked and each miss lane's growth is multiplied out over the rest.
//!
//! The result is bit-identical to a bank of independent [`Cache`]s fed
//! the same stream, at roughly one cache's cost instead of N. The unit
//! and property tests check the sweep against such a bank, against
//! per-reference delivery, and — for direct-mapped sweeps — against the
//! pre-restructure implementation preserved verbatim as
//! [`crate::reference::ReferenceSweepCache`].
//!
//! [`Cache`]: crate::Cache

use sim_mem::{AccessClass, AccessSink, MemRef, RefRun};

use crate::cache::BlockSet;
use crate::{CacheConfig, CacheStats};

/// Many common-block-size caches simulated in one walk over the
/// reference stream.
///
/// Construct with [`SweepCache::try_new`], which accepts any non-empty
/// set of members sharing one block size, direct-mapped or not (see the
/// module docs); callers with several block sizes build one sweep per
/// block size.
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
    /// Per member: set-index mask (`sets - 1`).
    masks: Vec<u64>,
    /// Per member: `log2` of its ways, so set `s` starts at
    /// `offset + (s << way_shift)`.
    way_shifts: Vec<u32>,
    /// Per member: offset of its tag array within `tags`.
    offsets: Vec<usize>,
    /// All members' tag arrays, concatenated, each set MRU first
    /// (`u64::MAX` = invalid).
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
    /// The fewest lines of any member: the widest block span whose
    /// repeats the run fast path may absorb (see the module docs).
    min_lines: u64,
    /// The MRU witness, the member with the fewest sets: its tag
    /// offset, set mask and way shift (see the module docs).
    witness: (usize, u64, u32),
    /// Whether every member is direct-mapped, which selects the
    /// flag-free member pass; fixed at construction.
    direct: bool,
    /// References absorbed by the run fast path in `record_runs` (repeat
    /// occurrences that advanced only the shared word counters). An
    /// observability counter, deliberately outside the per-member
    /// [`CacheStats`].
    fastpath_refs: u64,
}

impl SweepCache {
    /// Builds a single-pass sweep over `configs`, or `None` if there is
    /// no member or the members do not all share one block size. Any
    /// associativity is accepted. (Power-of-two sizes, and so
    /// power-of-two set and way counts, are already guaranteed by
    /// [`CacheConfig`]'s constructors.)
    pub fn try_new(configs: impl IntoIterator<Item = CacheConfig>) -> Option<Self> {
        let configs: Vec<CacheConfig> = configs.into_iter().collect();
        let block = configs.first()?.block;
        if configs.iter().any(|c| c.block != block) {
            return None;
        }
        let mut offsets = Vec::with_capacity(configs.len());
        let mut total = 0usize;
        for c in &configs {
            offsets.push(total);
            total += c.lines() as usize;
        }
        let masks: Vec<u64> = configs.iter().map(|c| u64::from(c.sets()) - 1).collect();
        let way_shifts: Vec<u32> = configs.iter().map(|c| c.assoc.trailing_zeros()).collect();
        let min_lines = configs.iter().map(|c| u64::from(c.lines())).min()?;
        let w = (0..configs.len()).min_by_key(|&i| masks[i])?;
        Some(SweepCache {
            block_shift: block.trailing_zeros(),
            miss_lanes: vec![0; 2 * configs.len()],
            miss_cold: vec![0; configs.len()],
            direct: configs.iter().all(|c| c.assoc == 1),
            witness: (offsets[w], masks[w], way_shifts[w]),
            configs,
            masks,
            way_shifts,
            offsets,
            tags: vec![u64::MAX; total],
            words: [0; 2],
            seen: BlockSet::new(),
            last_block: u64::MAX,
            min_lines,
            fastpath_refs: 0,
        })
    }

    /// The member configurations, in construction order.
    pub fn configs(&self) -> &[CacheConfig] {
        &self.configs
    }

    /// Statistics for the first member with exactly this configuration,
    /// if any.
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
        if self.direct {
            self.walk_span::<true>(first, last, r.class);
        } else {
            self.walk_span::<false>(first, last, r.class);
        }
        self.count_words(r, 1);
    }

    /// Touches every block in `first..=last` through the shared
    /// last-block short-circuit. `DIRECT` selects the member pass.
    #[inline]
    fn walk_span<const DIRECT: bool>(&mut self, first: u64, last: u64, class: AccessClass) {
        if first == last {
            // Nearly every reference is word-sized: one block, one
            // shared short-circuit check.
            if first != self.last_block {
                self.last_block = first;
                self.touch_block::<DIRECT>(first, class);
            }
        } else {
            for block in first..=last {
                if block == self.last_block {
                    continue;
                }
                self.last_block = block;
                self.touch_block::<DIRECT>(block, class);
            }
        }
    }

    /// Advances the shared word-granular access counters by `n`
    /// occurrences of `r`, without touching tags.
    #[inline]
    fn count_words(&mut self, r: MemRef, n: u64) {
        self.words[r.class as usize] += r.words() * n;
    }

    /// Brings `block` into every member: the flag-free pass when
    /// `DIRECT`, the per-set LRU walk otherwise (see the module docs).
    #[inline]
    fn touch_block<const DIRECT: bool>(&mut self, block: u64, class: AccessClass) {
        // The MRU witness: MRU here is provably MRU in every member (see
        // the module docs), and such a touch changes no state at all.
        let (offset, mask, shift) = self.witness;
        if self.tags[offset + ((block & mask) << shift) as usize] == block {
            return;
        }
        let SweepCache { offsets, masks, way_shifts, tags, miss_lanes, miss_cold, seen, .. } = self;
        let members = offsets.len();
        // One indexed lane selection per touch instead of a class
        // branch per missing member.
        let base = class as usize * members;
        let lane = &mut miss_lanes[base..base + members];
        let mut any = 0u64;
        if DIRECT {
            for ((&offset, &mask), m) in offsets.iter().zip(masks.iter()).zip(lane.iter_mut()) {
                let slot = offset + (block & mask) as usize;
                // Flag-free hit/miss: the store is unconditional (a hit
                // rewrites the value already there) and the miss feeds
                // the lane as an integer.
                let miss = u64::from(tags[slot] != block);
                tags[slot] = block;
                *m += miss;
                any |= miss;
            }
        } else {
            let members = offsets.iter().zip(masks.iter()).zip(way_shifts.iter());
            for (((&offset, &mask), &shift), m) in members.zip(lane.iter_mut()) {
                let start = offset + ((block & mask) << shift) as usize;
                let miss = u64::from(!lru_touch(&mut tags[start..start + (1 << shift)], block));
                *m += miss;
                any |= miss;
            }
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

    /// The run loop behind [`AccessSink::record_runs`], with the member
    /// pass fixed by `DIRECT`.
    fn replay<const DIRECT: bool>(&mut self, runs: &[RefRun]) {
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
            self.walk_span::<DIRECT>(first, last, r.class);
            let n = u64::from(run.count);
            words[r.class as usize] += r.words() * n;
            if run.count > 1 {
                if last - first < min_lines {
                    fastpath += n - 1;
                } else {
                    self.repeat_wide_span::<DIRECT>(first, last, r.class, n - 2);
                }
            }
        }
        self.words[0] += words[0];
        self.words[1] += words[1];
        self.fastpath_refs += fastpath;
    }

    /// The repeats of a span wider than the smallest member, after its
    /// first occurrence: walks the second and adds its growth in every
    /// miss lane `rest` more times (the fixed point in the module docs).
    /// Word counters are the caller's.
    #[cold]
    #[inline(never)]
    fn repeat_wide_span<const DIRECT: bool>(
        &mut self,
        first: u64,
        last: u64,
        class: AccessClass,
        rest: u64,
    ) {
        let (lanes, cold) = (self.miss_lanes.clone(), self.miss_cold.clone());
        self.walk_span::<DIRECT>(first, last, class);
        for (lane, before) in self.miss_lanes.iter_mut().zip(lanes) {
            *lane += (*lane - before) * rest;
        }
        for (lane, before) in self.miss_cold.iter_mut().zip(cold) {
            *lane += (*lane - before) * rest;
        }
    }
}

/// Touches `block` in one MRU-first LRU `set`: it moves to the front and
/// every tag it passes shifts one way down. Returns whether it was
/// there; if not, the least-recently-used tag falls off the end.
#[inline]
fn lru_touch(set: &mut [u64], block: u64) -> bool {
    let mut carried = block;
    for tag in set {
        let old = std::mem::replace(tag, carried);
        if old == block {
            return true;
        }
        carried = old;
    }
    false
}

impl AccessSink for SweepCache {
    fn record(&mut self, r: MemRef) {
        self.access(r);
    }

    /// Run fast path: the block span is decomposed once per run. After
    /// the first occurrence's walk, a span no wider than the smallest
    /// member leaves every spanned block resident in every member, so
    /// each repeat would be all hits — only the shared word counters
    /// move (see the module docs). Wider spans walk their second
    /// occurrence and multiply its misses out over the rest.
    fn record_runs(&mut self, runs: &[RefRun]) {
        if self.direct {
            self.replay::<true>(runs);
        } else {
            self.replay::<false>(runs);
        }
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

    /// Direct-mapped, 2-, 4- and 8-way and fully associative members of
    /// one block size, out of size order and with a duplicate.
    fn mixed_ways() -> Vec<CacheConfig> {
        vec![
            CacheConfig::set_associative(64 * 1024, 32, 2),
            CacheConfig::direct_mapped(16 * 1024, 32),
            CacheConfig::set_associative(16 * 1024, 32, 4),
            CacheConfig::set_associative(32 * 1024, 32, 8),
            CacheConfig::set_associative(4 * 1024, 32, 128),
            CacheConfig::set_associative(64 * 1024, 32, 2),
        ]
    }

    /// Reference model: independent caches fed the same stream.
    fn bank(configs: &[CacheConfig]) -> Vec<Cache> {
        configs.iter().map(|&c| Cache::new(c)).collect()
    }

    /// Asserts every member of `sweep` equals the matching cache.
    fn assert_matches(sweep: &SweepCache, caches: &[Cache]) {
        let results = sweep.results();
        assert_eq!(results.len(), caches.len());
        for (i, c) in caches.iter().enumerate() {
            assert_eq!(results[i], (c.config(), *c.stats()), "member {i} diverged");
        }
    }

    #[test]
    fn rejects_non_sweep_shapes() {
        assert!(SweepCache::try_new([]).is_none(), "empty");
        assert!(
            SweepCache::try_new([
                CacheConfig::direct_mapped(16 * 1024, 32),
                CacheConfig::direct_mapped(16 * 1024, 16),
            ])
            .is_none(),
            "mixed block sizes"
        );
        assert!(
            SweepCache::try_new([
                CacheConfig::set_associative(16 * 1024, 32, 2),
                CacheConfig::set_associative(16 * 1024, 64, 2),
            ])
            .is_none(),
            "mixed block sizes, associative"
        );
        let two_way = SweepCache::try_new([CacheConfig::set_associative(16 * 1024, 32, 2)])
            .expect("an associative member is accepted");
        assert!(!two_way.direct, "an associative member takes the LRU pass");
        let mixed = SweepCache::try_new(mixed_ways()).expect("mixed ways are accepted");
        assert_eq!(mixed.configs(), &mixed_ways()[..], "members keep construction order");
        assert!(paper().direct, "the paper sweep keeps the flag-free pass");
    }

    #[test]
    fn the_witness_is_the_member_with_the_fewest_sets() {
        // 4K fully associative: one set, so the witness compares the
        // MRU tag of the whole cache.
        let sweep = SweepCache::try_new(mixed_ways()).unwrap();
        assert_eq!(sweep.witness, (sweep.offsets[4], 0, 7));
        assert_eq!(sweep.min_lines, 128);
        // 16K 4-way: 128 sets of 512 lines; 64K 2-way: 1024 sets of
        // 2048 lines. The 4-way member is the witness and bounds the run
        // fast path.
        let sweep = SweepCache::try_new([
            CacheConfig::set_associative(64 * 1024, 32, 2),
            CacheConfig::set_associative(16 * 1024, 32, 4),
        ])
        .unwrap();
        assert_eq!(sweep.witness, (2048, 127, 2));
        assert_eq!(sweep.min_lines, 512);
        // 8K direct-mapped: 256 sets of 256 lines. The fewest lines and
        // the fewest sets now sit in different members.
        let sweep = SweepCache::try_new([
            CacheConfig::direct_mapped(8 * 1024, 32),
            CacheConfig::set_associative(16 * 1024, 32, 4),
        ])
        .unwrap();
        assert_eq!(sweep.witness, (256, 127, 2));
        assert_eq!(sweep.min_lines, 256);
    }

    #[test]
    fn lru_touch_moves_to_front_and_evicts_the_tail() {
        let mut set = [1, 2, 3, 4];
        assert!(lru_touch(&mut set, 3));
        assert_eq!(set, [3, 1, 2, 4]);
        assert!(lru_touch(&mut set, 3), "an MRU hit");
        assert_eq!(set, [3, 1, 2, 4]);
        assert!(!lru_touch(&mut set, 9));
        assert_eq!(set, [9, 3, 1, 2], "the LRU tag fell off");
        let mut filling = [7, u64::MAX, u64::MAX];
        assert!(!lru_touch(&mut filling, 8));
        assert_eq!(filling, [8, 7, u64::MAX], "invalid ways stay at the end");
    }

    /// A mix of classes, sizes, conflicts and revisits, fed one
    /// reference at a time to the sweep over `configs` and to a bank.
    fn mixed_stream(configs: &[CacheConfig]) {
        let mut sweep = SweepCache::try_new(configs.iter().copied()).unwrap();
        let mut caches = bank(configs);
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
        assert_matches(&sweep, &caches);
    }

    #[test]
    fn matches_independent_caches_on_a_mixed_stream() {
        mixed_stream(&CacheConfig::paper_sweep());
        mixed_stream(&mixed_ways());
    }

    #[test]
    fn run_fast_path_matches_expansion() {
        for configs in [CacheConfig::paper_sweep(), mixed_ways()] {
            let mut fast = SweepCache::try_new(configs.iter().copied()).unwrap();
            let mut slow = bank(&configs);
            let runs = [
                RefRun { r: MemRef::app_write(Address::new(100), 4), count: 1000 },
                RefRun { r: MemRef::app_read(Address::new(100), 4), count: 3 },
                // Multi-block, span within the smallest member: absorbed
                // by the span fast path.
                RefRun { r: MemRef::app_write(Address::new(90), 64), count: 7 },
                RefRun { r: MemRef::meta_read(Address::new(4096), 4), count: 2 },
                // Span wider than the smallest member (at most 512
                // lines × 32 B): must take the re-walk fallback.
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
            assert_matches(&fast, &slow);
            // 999 + 2 + 6 + 1 repeats absorbed; the wide span's 2
            // repeats are re-walked.
            assert_eq!(fast.fastpath_refs(), 999 + 2 + 6 + 1);
        }
    }

    #[test]
    fn multi_block_spans_absorb_repeats_exactly() {
        // A span that conflicts *within itself* in the smallest member
        // would break the fast path's residency argument; the gate
        // excludes it. Here: spans of every width around the 512-line
        // boundary of the 16K member, interleaved with conflicting
        // single blocks, against both the old implementation and a
        // fresh expansion; then the same around the 128 lines of the
        // fully associative member of the mixed-ways sweep.
        let configs = CacheConfig::paper_sweep();
        let mut fast = paper();
        let mut old = ReferenceSweepCache::try_new(configs.clone()).unwrap();
        let mut slow = bank(&configs);
        let spans = |widths: &[u64], lines: u64| {
            let mut runs = Vec::new();
            for (i, &blocks) in widths.iter().enumerate() {
                let addr = Address::new(i as u64 * 1_000_000 + 17);
                let size = (blocks * 32) as u32;
                runs.push(RefRun { r: MemRef::app_read(addr, size), count: 5 });
                // Conflict with the span's first block in the smallest
                // member.
                let conflict = Address::new(i as u64 * 1_000_000 + 17 + lines * 32);
                runs.push(RefRun { r: MemRef::meta_write(conflict, 4), count: 2 });
                runs.push(RefRun { r: MemRef::app_read(addr, size), count: 4 });
            }
            runs
        };
        let runs = spans(&[1, 2, 3, 511, 512, 513, 700], 512);
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
        assert_matches(&fast, &slow);

        let configs = mixed_ways();
        let mut fast = SweepCache::try_new(configs.iter().copied()).unwrap();
        let mut slow = bank(&configs);
        let runs = spans(&[1, 2, 127, 128, 129, 511, 512, 513, 700], 128);
        fast.record_runs(&runs);
        for run in &runs {
            for _ in 0..run.count {
                for c in &mut slow {
                    c.access(run.r);
                }
            }
        }
        assert_matches(&fast, &slow);
    }

    #[test]
    fn a_wide_span_repeated_u32_max_times_matches_its_closed_form() {
        // 601 blocks: wider than every member of the mixed-ways sweep
        // but the 32K and 64K ones, and wider than the paper sweep's
        // 16K member only.
        let conflict = RefRun { r: MemRef::meta_write(Address::new(512 * 32 + 40), 4), count: 1 };
        let wide = MemRef::app_read(Address::new(17), 600 * 32);
        for configs in [CacheConfig::paper_sweep(), mixed_ways()] {
            let sweep = || SweepCache::try_new(configs.iter().copied()).unwrap();
            let stats = |count: u32| {
                let mut sweep = sweep();
                sweep.record_runs(&[conflict, RefRun { r: wide, count }]);
                sweep.results()
            };
            let expanded = |count: u32| {
                let mut caches = bank(&configs);
                for c in &mut caches {
                    c.access(conflict.r);
                    for _ in 0..count {
                        c.access(wide);
                    }
                }
                caches.iter().map(|c| (c.config(), *c.stats())).collect::<Vec<_>>()
            };
            let (two, three, max) = (stats(2), stats(3), stats(u32::MAX));
            assert_eq!((&two, &three), (&expanded(2), &expanded(3)));
            let repeating = (0..two.len()).filter(|&i| three[i].1.misses() > two[i].1.misses());
            assert!(repeating.count() > 0, "some member's repeats miss");
            for i in 0..two.len() {
                assert_eq!(max[i].1, closed_form(two[i].1, three[i].1, u32::MAX), "member {i}");
            }
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

    #[test]
    fn an_alias_demotes_the_witness_without_evicting() {
        // 16K 2-way (256 sets, the witness) and 16K direct-mapped (512
        // lines): blocks 0, 256 and 512 share a set in the 2-way member;
        // 0 and 512 share a line in the direct-mapped one. After 0, 256,
        // block 0 is resident everywhere but not MRU in the witness, so
        // its touch runs the member pass and hits in both.
        let configs = [
            CacheConfig::set_associative(16 * 1024, 32, 2),
            CacheConfig::direct_mapped(16 * 1024, 32),
        ];
        let mut sweep = SweepCache::try_new(configs).unwrap();
        let mut caches = bank(&configs);
        for block in [0u64, 256, 0, 512, 256, 0] {
            let r = MemRef::app_read(Address::new(block * 32), 4);
            sweep.access(r);
            for c in &mut caches {
                c.access(r);
            }
        }
        assert_matches(&sweep, &caches);
        // 0 and 256 cold, 0 hits; 512 cold, evicting 256 (LRU) from the
        // 2-way set and 0 from the direct-mapped line; 256 then misses
        // only in the 2-way member (evicting 0), and 0 misses in both.
        assert_eq!(sweep.results()[0].1.misses(), 5, "2-way: three cold, 256, 0");
        assert_eq!(sweep.results()[1].1.misses(), 4, "direct-mapped: three cold, 0");
    }
}
