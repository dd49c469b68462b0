//! `FIRSTFIT`: Knuth's first-fit allocator with the optimizations of the
//! Moraes implementation measured in the paper.
//!
//! * One circular doubly-linked freelist holding **all** free blocks.
//! * A *roving pointer*: searches resume where the last one left off,
//!   preventing small blocks from accumulating at the list front.
//! * *Boundary tags* (header + footer, 8 bytes per object) enabling
//!   constant-time coalescing with both neighbours on `free`.
//! * Blocks found oversized are split unless the remainder's payload would
//!   be smaller than the split threshold (24 bytes in the paper).
//!
//! The paper's diagnosis — searching a freelist whose blocks are scattered
//! across the address space is "disastrous for page reference and cache
//! locality" — emerges here mechanically: each visited block costs a
//! header load and a link load at an arbitrary heap address, all of which
//! enter the reference trace.

use sim_mem::{Address, MemCtx};

use crate::layout::{
    encode, list, read_header, read_prev_footer, round_payload, tag_allocated, tag_size,
    write_tags, F_ALLOC, MIN_BLOCK, TAG, TAG_OVERHEAD,
};
use crate::{AllocError, AllocStats, Allocator};

/// Default split threshold: an oversized block is split only if the
/// remainder's payload is at least this many bytes (Knuth's optimization
/// as configured by the paper's FIRSTFIT).
pub const DEFAULT_SPLIT_THRESHOLD: u32 = 24;

/// Configuration knobs, swept by `explore` grids (the ablations).
#[derive(Debug, Clone, Copy)]
pub struct FirstFitConfig {
    /// Minimum remainder payload for a split to happen.
    pub split_threshold: u32,
    /// Whether `free` coalesces with adjacent free blocks. Disabling this
    /// is *not* the paper's FIRSTFIT; it exists to quantify what
    /// coalescing costs (the ablation DESIGN.md calls out).
    pub coalesce: bool,
    /// Whether searches resume from the roving pointer (`true`, the
    /// paper's configuration) or always start at the list head.
    pub roving: bool,
}

impl Default for FirstFitConfig {
    fn default() -> Self {
        FirstFitConfig { split_threshold: DEFAULT_SPLIT_THRESHOLD, coalesce: true, roving: true }
    }
}

/// The classic first-fit allocator. See the module docs.
#[derive(Debug)]
pub struct FirstFit {
    /// Sentinel head of the circular freelist (lives in the static area).
    head: Address,
    /// Roving pointer: the node at which the next search starts.
    rover: Address,
    /// One past our epilogue word; if the heap break moved past it,
    /// another allocator grabbed memory and extension is discontiguous.
    top_end: Address,
    config: FirstFitConfig,
    stats: AllocStats,
}

impl FirstFit {
    /// Creates a first-fit allocator with the paper's configuration,
    /// reserving its static area and heap sentinels.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Oom`] if the initial reservation fails.
    pub fn new(ctx: &mut MemCtx<'_>) -> Result<Self, AllocError> {
        Self::with_config(ctx, FirstFitConfig::default())
    }

    /// Creates a first-fit allocator with explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Oom`] if the initial reservation fails.
    pub fn with_config(ctx: &mut MemCtx<'_>, config: FirstFitConfig) -> Result<Self, AllocError> {
        // Static area: freelist sentinel, then the heap prologue word; the
        // epilogue word follows and is pushed right by every extension.
        let head = ctx.sbrk(list::SENTINEL_BYTES)?;
        list::init_head(ctx, head);
        let prologue = ctx.sbrk(TAG)?;
        ctx.store(prologue, encode(0, F_ALLOC));
        let epilogue = ctx.sbrk(TAG)?;
        ctx.store(epilogue, encode(0, F_ALLOC));
        let top_end = ctx.heap().brk();
        Ok(FirstFit { head, rover: head, top_end, config, stats: AllocStats::new() })
    }

    /// The freelist sentinel address (used by the consistency checker).
    pub fn freelist_head(&self) -> Address {
        self.head
    }

    /// Current configuration.
    pub fn config(&self) -> FirstFitConfig {
        self.config
    }

    /// Total block size needed to satisfy a payload request.
    fn block_size(request: u32) -> u32 {
        round_payload(request) + TAG_OVERHEAD
    }

    /// Searches the freelist from the rover for the first block of at
    /// least `need` bytes. Returns its address and size, or `None` after a
    /// full cycle.
    fn search(&mut self, need: u32, ctx: &mut MemCtx<'_>) -> Option<(Address, u32)> {
        ctx.obs_add(obs::names::BITMAP_PROBE, 1);
        let start = if self.config.roving { self.rover } else { self.head };
        let mut node = start;
        loop {
            if node != self.head {
                let tag = read_header(ctx, node);
                self.stats.search_visits += 1;
                ctx.ops(2);
                if tag_size(tag) >= need {
                    return Some((node, tag_size(tag)));
                }
            }
            node = list::next(ctx, node);
            ctx.ops(1);
            if node == start {
                return None;
            }
        }
    }

    /// Carves an allocation of `need` bytes out of the free block `b`
    /// (which is on the freelist), splitting if the remainder is worth
    /// keeping. Returns the payload address.
    fn allocate_from(
        &mut self,
        b: Address,
        bsize: u32,
        need: u32,
        ctx: &mut MemCtx<'_>,
    ) -> (Address, u32) {
        debug_assert!(bsize >= need);
        let remainder = bsize - need;
        ctx.ops(2);
        if remainder >= MIN_BLOCK && remainder - TAG_OVERHEAD >= self.config.split_threshold {
            // Split: the front becomes the allocation, the tail keeps the
            // original's freelist position.
            let tail = b + u64::from(need);
            list::replace(ctx, b, tail);
            write_tags(ctx, tail, remainder, 0);
            write_tags(ctx, b, need, F_ALLOC);
            self.rover = tail;
            self.stats.splits += 1;
            (b + TAG, need)
        } else {
            let succ = list::next(ctx, b);
            list::unlink(ctx, b);
            write_tags(ctx, b, bsize, F_ALLOC);
            self.rover = if succ == b { self.head } else { succ };
            (b + TAG, bsize)
        }
    }

    /// Grows the heap by at least `need` bytes and returns the resulting
    /// free block (already coalesced with a trailing free neighbour and
    /// inserted into the freelist).
    fn extend(&mut self, need: u32, ctx: &mut MemCtx<'_>) -> Result<(Address, u32), AllocError> {
        let old_brk = ctx.heap().brk();
        let block = if old_brk == self.top_end {
            // Contiguous growth: the old epilogue word becomes the new
            // block's header.
            ctx.sbrk(u64::from(need))?;
            old_brk - TAG
        } else {
            // Another allocator moved the break: start a fresh tagged
            // region with its own prologue word.
            let start = ctx.sbrk(u64::from(need) + 2 * TAG)?;
            ctx.store(start, encode(0, F_ALLOC));
            start + TAG
        };
        write_tags(ctx, block, need, 0);
        let new_epilogue = block + u64::from(need);
        ctx.store(new_epilogue, encode(0, F_ALLOC));
        self.top_end = ctx.heap().brk();
        list::insert_after(ctx, self.head, block);
        // Merge with a free block ending right before the new one.
        let merged =
            if self.config.coalesce { self.coalesce(block, need, ctx) } else { (block, need) };
        Ok(merged)
    }

    /// Coalesces the free, on-list block `b` of `size` bytes with free
    /// neighbours; returns the address and size of the (possibly merged)
    /// block, still on the list.
    fn coalesce(&mut self, mut b: Address, mut size: u32, ctx: &mut MemCtx<'_>) -> (Address, u32) {
        // Backward merge.
        let prev_tag = read_prev_footer(ctx, b);
        ctx.ops(2);
        if !tag_allocated(prev_tag) && tag_size(prev_tag) != 0 {
            let prev = b - u64::from(tag_size(prev_tag));
            list::unlink(ctx, b);
            if self.rover == b {
                self.rover = prev;
            }
            size += tag_size(prev_tag);
            b = prev;
            write_tags(ctx, b, size, 0);
            self.stats.coalesces += 1;
            ctx.obs_add(obs::names::BOUNDARY_COALESCE, 1);
        }
        // Forward merge.
        let next_tag = read_header(ctx, b + u64::from(size));
        ctx.ops(2);
        if !tag_allocated(next_tag) && tag_size(next_tag) != 0 {
            let next = b + u64::from(size);
            if self.rover == next {
                self.rover = b;
            }
            list::unlink(ctx, next);
            size += tag_size(next_tag);
            write_tags(ctx, b, size, 0);
            self.stats.coalesces += 1;
            ctx.obs_add(obs::names::BOUNDARY_COALESCE, 1);
        }
        (b, size)
    }
}

impl Allocator for FirstFit {
    fn name(&self) -> &'static str {
        "FirstFit"
    }

    fn malloc(&mut self, size: u32, ctx: &mut MemCtx<'_>) -> Result<Address, AllocError> {
        let need = Self::block_size(size);
        ctx.ops(4);
        let visits_before = self.stats.search_visits;
        let (block, bsize) = match self.search(need, ctx) {
            Some(found) => found,
            None => self.extend(need, ctx)?,
        };
        let (payload, granted) = self.allocate_from(block, bsize, need, ctx);
        ctx.obs_observe("alloc.search_len", self.stats.search_visits - visits_before);
        self.stats.note_malloc(size, granted);
        Ok(payload)
    }

    fn free(&mut self, ptr: Address, ctx: &mut MemCtx<'_>) -> Result<(), AllocError> {
        if ptr.raw() < TAG || !ctx.heap().contains(ptr - TAG, TAG) {
            return Err(AllocError::InvalidFree(ptr));
        }
        let b = ptr - TAG;
        let tag = read_header(ctx, b);
        ctx.ops(2);
        if !tag_allocated(tag) || tag_size(tag) < MIN_BLOCK {
            return Err(AllocError::InvalidFree(ptr));
        }
        let size = tag_size(tag);
        if !ctx.heap().contains(b, u64::from(size) + TAG) {
            return Err(AllocError::InvalidFree(ptr));
        }
        write_tags(ctx, b, size, 0);
        // Insert at the rover position, as the Moraes implementation does:
        // freshly freed storage is encountered quickly by the next search.
        list::insert_after(ctx, self.rover, b);
        let merges_before = self.stats.coalesces;
        if self.config.coalesce {
            self.coalesce(b, size, ctx);
        }
        ctx.obs_observe("alloc.coalesce_per_free", self.stats.coalesces - merges_before);
        self.stats.note_free(size);
        Ok(())
    }

    fn stats(&self) -> &AllocStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_tagged_heap;
    use sim_mem::{CountingSink, HeapImage, InstrCounter};

    struct Fx {
        heap: HeapImage,
        sink: CountingSink,
        instrs: InstrCounter,
    }

    impl Fx {
        fn new() -> Self {
            Fx { heap: HeapImage::new(), sink: CountingSink::new(), instrs: InstrCounter::new() }
        }

        fn ctx(&mut self) -> MemCtx<'_> {
            MemCtx::new(&mut self.heap, &mut self.sink, &mut self.instrs)
        }
    }

    #[test]
    fn malloc_returns_disjoint_word_aligned_payloads() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut ff = FirstFit::new(&mut ctx).unwrap();
        let a = ff.malloc(10, &mut ctx).unwrap();
        let b = ff.malloc(20, &mut ctx).unwrap();
        let c = ff.malloc(1, &mut ctx).unwrap();
        assert!(a.is_word_aligned() && b.is_word_aligned() && c.is_word_aligned());
        // Disjoint: payload a is 12 bytes (10 rounded), plus footer+header = 8.
        assert!(b - a >= 12 + 8);
        assert!(c - b >= 20 + 8);
    }

    #[test]
    fn free_then_malloc_reuses_space() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut ff = FirstFit::new(&mut ctx).unwrap();
        let a = ff.malloc(64, &mut ctx).unwrap();
        let high = ctx.heap().in_use();
        ff.free(a, &mut ctx).unwrap();
        let b = ff.malloc(64, &mut ctx).unwrap();
        assert_eq!(a, b);
        assert_eq!(ctx.heap().in_use(), high, "no new sbrk needed");
    }

    #[test]
    fn coalescing_merges_neighbours_into_one_block() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut ff = FirstFit::new(&mut ctx).unwrap();
        let a = ff.malloc(40, &mut ctx).unwrap();
        let b = ff.malloc(40, &mut ctx).unwrap();
        let _hold = ff.malloc(16, &mut ctx).unwrap();
        ff.free(a, &mut ctx).unwrap();
        ff.free(b, &mut ctx).unwrap();
        assert_eq!(ff.stats().coalesces, 1);
        // The merged 96-byte block satisfies a request neither 48-byte
        // block could.
        let big = ff.malloc(80, &mut ctx).unwrap();
        assert_eq!(big, a);
        check_tagged_heap(&ctx, ctx_start(&ff)).unwrap();
    }

    #[test]
    fn split_threshold_suppresses_tiny_remainders() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut ff = FirstFit::new(&mut ctx).unwrap();
        let a = ff.malloc(48, &mut ctx).unwrap();
        ff.free(a, &mut ctx).unwrap();
        // 48-byte payload block; requesting 40 leaves a remainder payload
        // of 8 < 24, so the whole block is granted.
        let b = ff.malloc(40, &mut ctx).unwrap();
        assert_eq!(a, b);
        assert_eq!(ff.stats().live_granted, 48 + 8);
    }

    #[test]
    fn split_happens_when_remainder_is_useful() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut ff = FirstFit::new(&mut ctx).unwrap();
        let a = ff.malloc(100, &mut ctx).unwrap();
        ff.free(a, &mut ctx).unwrap();
        let b = ff.malloc(16, &mut ctx).unwrap();
        assert_eq!(a, b);
        // Remainder should be reusable without growing the heap.
        let high = ctx.heap().in_use();
        let c = ff.malloc(60, &mut ctx).unwrap();
        assert_eq!(ctx.heap().in_use(), high);
        assert!(c > b);
    }

    #[test]
    fn double_free_detected() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut ff = FirstFit::new(&mut ctx).unwrap();
        let a = ff.malloc(32, &mut ctx).unwrap();
        ff.free(a, &mut ctx).unwrap();
        assert_eq!(ff.free(a, &mut ctx), Err(AllocError::InvalidFree(a)));
    }

    #[test]
    fn search_visits_accumulate_with_fragmentation() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut ff = FirstFit::new(&mut ctx).unwrap();
        let ptrs: Vec<_> = (0..32).map(|_| ff.malloc(16, &mut ctx).unwrap()).collect();
        // Free every other block: fragmented freelist of small blocks.
        for p in ptrs.iter().step_by(2) {
            ff.free(*p, &mut ctx).unwrap();
        }
        let before = ff.stats().search_visits;
        // A large request must walk past all 16 small blocks.
        ff.malloc(512, &mut ctx).unwrap();
        assert!(ff.stats().search_visits - before >= 16);
    }

    #[test]
    fn stats_track_mallocs_and_frees() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut ff = FirstFit::new(&mut ctx).unwrap();
        let a = ff.malloc(24, &mut ctx).unwrap();
        let _b = ff.malloc(24, &mut ctx).unwrap();
        ff.free(a, &mut ctx).unwrap();
        assert_eq!(ff.stats().mallocs, 2);
        assert_eq!(ff.stats().frees, 1);
        assert_eq!(ff.stats().live_objects(), 1);
        assert_eq!(ff.stats().requested_bytes, 48);
    }

    #[test]
    fn heap_remains_consistent_under_mixed_traffic() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut ff = FirstFit::new(&mut ctx).unwrap();
        let mut live = Vec::new();
        for i in 0..200u32 {
            let p = ff.malloc(8 + (i * 7) % 120, &mut ctx).unwrap();
            live.push(p);
            if i % 3 == 0 {
                let victim = live.swap_remove((i as usize * 5) % live.len());
                ff.free(victim, &mut ctx).unwrap();
            }
        }
        check_tagged_heap(&ctx, ctx_start(&ff)).unwrap();
        for p in live {
            ff.free(p, &mut ctx).unwrap();
        }
        check_tagged_heap(&ctx, ctx_start(&ff)).unwrap();
        assert_eq!(ff.stats().live_objects(), 0);
        assert_eq!(ff.stats().live_granted, 0);
    }

    #[test]
    fn no_coalesce_config_never_merges() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let cfg = FirstFitConfig { coalesce: false, ..FirstFitConfig::default() };
        let mut ff = FirstFit::with_config(&mut ctx, cfg).unwrap();
        let a = ff.malloc(40, &mut ctx).unwrap();
        let b = ff.malloc(40, &mut ctx).unwrap();
        ff.free(a, &mut ctx).unwrap();
        ff.free(b, &mut ctx).unwrap();
        assert_eq!(ff.stats().coalesces, 0);
    }

    /// First block address for the consistency walker: after the sentinel
    /// (12 bytes) and prologue word.
    fn ctx_start(ff: &FirstFit) -> Address {
        ff.freelist_head() + list::SENTINEL_BYTES + TAG
    }
}
