//! The pre-restructure sweep, kept verbatim as a correctness oracle.
//!
//! [`ReferenceSweepCache`] is the [`crate::SweepCache`] implementation
//! as it stood before the struct-of-arrays restructure: an
//! array-of-structs miss table, a lazily computed freshness query
//! *inside* the member loop, and a `record_runs` that falls back to a
//! full per-occurrence re-walk for repeated multi-block references.
//!
//! It predates associative sweep members and accepts direct-mapped
//! members only. The sweep's unit tests and the crate's property tests
//! feed the same direct-mapped streams to both implementations and
//! require their [`results`](ReferenceSweepCache::results) to match
//! field for field, so the old code it is compared against is compiled
//! code, not a remembered number.
//!
//! Nothing here should be "improved"; it is a museum piece. Fixes belong
//! in [`crate::sweep`].

use sim_mem::{AccessClass, AccessSink, MemRef, RefRun};

use crate::cache::BlockSet;
use crate::{CacheConfig, CacheStats};

/// Per-member miss counters, array-of-structs as in the original.
#[derive(Debug, Clone, Copy, Default)]
struct MemberMisses {
    app: u64,
    meta: u64,
    cold: u64,
}

/// The pre-SoA [`crate::SweepCache`], verbatim. See the module docs.
#[derive(Debug, Clone)]
pub struct ReferenceSweepCache {
    /// `log2` of the shared block size.
    block_shift: u32,
    /// Member configurations, in construction order.
    configs: Vec<CacheConfig>,
    /// Per member: line-index mask (`lines - 1`).
    masks: Vec<u64>,
    /// Per member: offset of its tag array within `tags`.
    offsets: Vec<usize>,
    /// All members' tag arrays, concatenated (`u64::MAX` = invalid).
    tags: Vec<u64>,
    /// Per member miss counters.
    misses: Vec<MemberMisses>,
    /// Shared word-granular access counters.
    app_words: u64,
    meta_words: u64,
    /// Every block number ever referenced — shared by all members.
    seen: BlockSet,
    /// The most recently touched block (`u64::MAX` before any access).
    last_block: u64,
    /// References absorbed by the single-block run fast path.
    fastpath_refs: u64,
}

impl ReferenceSweepCache {
    /// Builds a single-pass sweep over `configs`, or `None` unless they
    /// are at least one member, all direct-mapped, all with the same
    /// block size ([`crate::SweepCache::try_new`] accepts any
    /// associativity; this original does not).
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
        Some(ReferenceSweepCache {
            block_shift: block.trailing_zeros(),
            misses: vec![MemberMisses::default(); configs.len()],
            configs,
            masks,
            offsets,
            tags: vec![u64::MAX; total],
            app_words: 0,
            meta_words: 0,
            seen: BlockSet::new(),
            last_block: u64::MAX,
            fastpath_refs: 0,
        })
    }

    /// `(config, stats)` pairs for reporting, in construction order.
    pub fn results(&self) -> Vec<(CacheConfig, CacheStats)> {
        (0..self.configs.len()).map(|i| (self.configs[i], self.member_stats(i))).collect()
    }

    fn member_stats(&self, i: usize) -> CacheStats {
        let m = self.misses[i];
        CacheStats {
            app_accesses: self.app_words,
            app_misses: m.app,
            meta_accesses: self.meta_words,
            meta_misses: m.meta,
            cold_misses: m.cold,
        }
    }

    /// Simulates one reference against every member (original code).
    pub fn access(&mut self, r: MemRef) {
        let first = r.addr.raw() >> self.block_shift;
        let last = (r.addr.raw() + u64::from(r.size.max(1)) - 1) >> self.block_shift;
        if first == last {
            if first != self.last_block {
                self.last_block = first;
                self.touch_block(first, r.class);
            }
        } else {
            for block in first..=last {
                if block == self.last_block {
                    continue;
                }
                self.last_block = block;
                self.touch_block(block, r.class);
            }
        }
        self.count_words(r, 1);
    }

    /// Advances the shared word-granular access counters by `n`
    /// occurrences of `r`, without touching tags.
    #[inline]
    fn count_words(&mut self, r: MemRef, n: u64) {
        let words = r.words() * n;
        match r.class {
            AccessClass::AppData => self.app_words += words,
            AccessClass::AllocatorMeta => self.meta_words += words,
        }
    }

    /// The original member loop: per-member miss branch, lazily
    /// computed freshness *inside* the loop, class matched per miss.
    fn touch_block(&mut self, block: u64, class: AccessClass) {
        let ReferenceSweepCache { offsets, masks, tags, misses, seen, .. } = self;
        let mut fresh: Option<bool> = None;
        for ((&offset, &mask), m) in offsets.iter().zip(masks.iter()).zip(misses.iter_mut()) {
            let tag = &mut tags[offset + (block & mask) as usize];
            if *tag != block {
                *tag = block;
                let was_fresh = *fresh.get_or_insert_with(|| seen.insert(block));
                match class {
                    AccessClass::AppData => m.app += 1,
                    AccessClass::AllocatorMeta => m.meta += 1,
                }
                m.cold += u64::from(was_fresh);
            }
        }
    }
}

impl AccessSink for ReferenceSweepCache {
    fn record(&mut self, r: MemRef) {
        self.access(r);
    }

    /// The original run path: single-block repeats are absorbed, every
    /// multi-block repeat re-walks `access()` from scratch.
    fn record_runs(&mut self, runs: &[RefRun]) {
        for run in runs {
            self.access(run.r);
            if run.count > 1 {
                if run.r.single_block(1 << self.block_shift) {
                    self.fastpath_refs += u64::from(run.count - 1);
                    self.count_words(run.r, u64::from(run.count - 1));
                } else {
                    for _ in 1..run.count {
                        self.access(run.r);
                    }
                }
            }
        }
    }
}
