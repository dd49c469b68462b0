//! `BESTFIT`: the other classic sequential-fit allocator.
//!
//! The paper's conclusions indict the whole family: "allocators based on
//! sequential-fit methods, such as first-fit, best-fit, etc, have poor
//! reference locality". FIRSTFIT is measured directly; `BestFit` is
//! provided so the claim can be checked for the rest of the family and
//! so the ablation benches can compare placement policies under
//! identical block layout.
//!
//! The implementation shares [`crate::FirstFit`]'s machinery — one
//! doubly-linked freelist, boundary tags, splitting, coalescing — but
//! `malloc` always scans the *entire* freelist and takes the smallest
//! block that fits (ties to the first found). Exact fits stop the scan
//! early, the standard optimization. Best fit touches every free block
//! on every miss-sized allocation, so its reference locality is even
//! worse than first fit's, while its placement minimizes split waste.

use sim_mem::{Address, MemCtx};

use crate::layout::{
    encode, list, read_header, read_prev_footer, round_payload, tag_allocated, tag_size,
    write_tags, F_ALLOC, MIN_BLOCK, TAG, TAG_OVERHEAD,
};
use crate::{AllocError, AllocStats, Allocator};

/// The classic best-fit allocator. See the module docs.
#[derive(Debug)]
pub struct BestFit {
    /// Sentinel head of the circular freelist (lives in the static area).
    head: Address,
    /// One past our epilogue word (for discontiguous-extension detection).
    top_end: Address,
    /// Minimum remainder payload for a split to happen.
    split_threshold: u32,
    stats: AllocStats,
}

impl BestFit {
    /// Creates a best-fit allocator, reserving its static area and heap
    /// sentinels.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Oom`] if the initial reservation fails.
    pub fn new(ctx: &mut MemCtx<'_>) -> Result<Self, AllocError> {
        let head = ctx.sbrk(list::SENTINEL_BYTES)?;
        list::init_head(ctx, head);
        let prologue = ctx.sbrk(TAG)?;
        ctx.store(prologue, encode(0, F_ALLOC));
        let epilogue = ctx.sbrk(TAG)?;
        ctx.store(epilogue, encode(0, F_ALLOC));
        let top_end = ctx.heap().brk();
        Ok(BestFit {
            head,
            top_end,
            split_threshold: crate::first_fit::DEFAULT_SPLIT_THRESHOLD,
            stats: AllocStats::new(),
        })
    }

    /// The freelist sentinel address (used by the consistency checker).
    pub fn freelist_head(&self) -> Address {
        self.head
    }

    /// Scans the whole freelist for the smallest block of at least
    /// `need` bytes (early exit on an exact fit) and unlinks it.
    fn take_best(&mut self, need: u32, ctx: &mut MemCtx<'_>) -> Option<(Address, u32)> {
        ctx.obs_add(obs::names::BITMAP_PROBE, 1);
        let mut best: Option<(Address, u32)> = None;
        let mut node = list::next(ctx, self.head);
        ctx.ops(1);
        while node != self.head {
            let size = tag_size(read_header(ctx, node));
            self.stats.search_visits += 1;
            ctx.ops(3);
            if size >= need && best.is_none_or(|(_, b)| size < b) {
                best = Some((node, size));
                if size == need {
                    break;
                }
            }
            node = list::next(ctx, node);
        }
        if let Some((b, _)) = best {
            list::unlink(ctx, b);
        }
        best
    }

    /// Grows the heap; returns an off-list free block merged with a free
    /// predecessor.
    fn extend(&mut self, need: u32, ctx: &mut MemCtx<'_>) -> Result<(Address, u32), AllocError> {
        let old_brk = ctx.heap().brk();
        let mut block = if old_brk == self.top_end {
            ctx.sbrk(u64::from(need))?;
            old_brk - TAG
        } else {
            let start = ctx.sbrk(u64::from(need) + 2 * TAG)?;
            ctx.store(start, encode(0, F_ALLOC));
            start + TAG
        };
        let mut size = need;
        write_tags(ctx, block, size, 0);
        ctx.store(block + u64::from(size), encode(0, F_ALLOC));
        self.top_end = ctx.heap().brk();
        let prev_tag = read_prev_footer(ctx, block);
        ctx.ops(2);
        if !tag_allocated(prev_tag) && tag_size(prev_tag) != 0 {
            let prev = block - u64::from(tag_size(prev_tag));
            list::unlink(ctx, prev);
            size += tag_size(prev_tag);
            block = prev;
            write_tags(ctx, block, size, 0);
            self.stats.coalesces += 1;
            ctx.obs_add(obs::names::BOUNDARY_COALESCE, 1);
        }
        Ok((block, size))
    }

    /// Places `need` bytes in the off-list free block, splitting when
    /// the remainder is worth keeping.
    fn place(&mut self, b: Address, bsize: u32, need: u32, ctx: &mut MemCtx<'_>) -> (Address, u32) {
        let remainder = bsize - need;
        ctx.ops(2);
        if remainder >= MIN_BLOCK && remainder - TAG_OVERHEAD >= self.split_threshold {
            let tail = b + u64::from(need);
            write_tags(ctx, tail, remainder, 0);
            list::insert_after(ctx, self.head, tail);
            write_tags(ctx, b, need, F_ALLOC);
            (b + TAG, need)
        } else {
            write_tags(ctx, b, bsize, F_ALLOC);
            (b + TAG, bsize)
        }
    }
}

impl Allocator for BestFit {
    fn name(&self) -> &'static str {
        "BestFit"
    }

    fn malloc(&mut self, size: u32, ctx: &mut MemCtx<'_>) -> Result<Address, AllocError> {
        let need = round_payload(size) + TAG_OVERHEAD;
        ctx.ops(4);
        let visits_before = self.stats.search_visits;
        let (block, bsize) = match self.take_best(need, ctx) {
            Some(found) => found,
            None => self.extend(need, ctx)?,
        };
        let (payload, granted) = self.place(block, bsize, need, ctx);
        ctx.obs_observe("alloc.search_len", self.stats.search_visits - visits_before);
        self.stats.note_malloc(size, granted);
        Ok(payload)
    }

    fn free(&mut self, ptr: Address, ctx: &mut MemCtx<'_>) -> Result<(), AllocError> {
        if ptr.raw() < TAG || !ctx.heap().contains(ptr - TAG, TAG) {
            return Err(AllocError::InvalidFree(ptr));
        }
        let mut b = ptr - TAG;
        let tag = read_header(ctx, b);
        ctx.ops(2);
        if !tag_allocated(tag) || tag_size(tag) < MIN_BLOCK {
            return Err(AllocError::InvalidFree(ptr));
        }
        let granted = tag_size(tag);
        if !ctx.heap().contains(b, u64::from(granted) + TAG) {
            return Err(AllocError::InvalidFree(ptr));
        }
        let mut size = granted;
        let merges_before = self.stats.coalesces;
        // Forward merge.
        let next_tag = read_header(ctx, b + u64::from(size));
        ctx.ops(2);
        if !tag_allocated(next_tag) && tag_size(next_tag) != 0 {
            list::unlink(ctx, b + u64::from(size));
            size += tag_size(next_tag);
            self.stats.coalesces += 1;
            ctx.obs_add(obs::names::BOUNDARY_COALESCE, 1);
        }
        // Backward merge.
        let prev_tag = read_prev_footer(ctx, b);
        ctx.ops(2);
        if !tag_allocated(prev_tag) && tag_size(prev_tag) != 0 {
            let prev = b - u64::from(tag_size(prev_tag));
            list::unlink(ctx, prev);
            size += tag_size(prev_tag);
            b = prev;
            self.stats.coalesces += 1;
            ctx.obs_add(obs::names::BOUNDARY_COALESCE, 1);
        }
        write_tags(ctx, b, size, 0);
        list::insert_after(ctx, self.head, b);
        ctx.obs_observe("alloc.coalesce_per_free", self.stats.coalesces - merges_before);
        self.stats.note_free(granted);
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

    fn first_block(bf: &BestFit) -> Address {
        bf.freelist_head() + list::SENTINEL_BYTES + TAG
    }

    #[test]
    fn picks_the_tightest_fit() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut bf = BestFit::new(&mut ctx).unwrap();
        // Create free blocks of 72 and 40 payload bytes, in that order.
        let big = bf.malloc(72, &mut ctx).unwrap();
        let _hold1 = bf.malloc(8, &mut ctx).unwrap();
        let small = bf.malloc(40, &mut ctx).unwrap();
        let _hold2 = bf.malloc(8, &mut ctx).unwrap();
        bf.free(big, &mut ctx).unwrap();
        bf.free(small, &mut ctx).unwrap();
        // A 36-byte request fits both; best fit must take the 40-byte
        // block even though the 72-byte one comes first in the list.
        let p = bf.malloc(36, &mut ctx).unwrap();
        assert_eq!(p, small);
        // First fit, for contrast, would have split the big block.
    }

    #[test]
    fn exact_fit_stops_the_scan() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut bf = BestFit::new(&mut ctx).unwrap();
        let a = bf.malloc(40, &mut ctx).unwrap();
        let _h = bf.malloc(8, &mut ctx).unwrap();
        bf.free(a, &mut ctx).unwrap();
        let before = bf.stats().search_visits;
        let b = bf.malloc(40, &mut ctx).unwrap();
        assert_eq!(a, b);
        assert_eq!(bf.stats().search_visits - before, 1, "exact fit found immediately");
    }

    #[test]
    fn whole_list_scanned_without_exact_fit() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut bf = BestFit::new(&mut ctx).unwrap();
        let mut holes = Vec::new();
        for i in 0..10u32 {
            holes.push(bf.malloc(100 + i * 16, &mut ctx).unwrap());
            bf.malloc(8, &mut ctx).unwrap(); // separators prevent merging
        }
        for p in holes {
            bf.free(p, &mut ctx).unwrap();
        }
        let before = bf.stats().search_visits;
        bf.malloc(60, &mut ctx).unwrap();
        assert!(bf.stats().search_visits - before >= 10, "best fit must visit every free block");
    }

    #[test]
    fn coalesces_and_balances() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut bf = BestFit::new(&mut ctx).unwrap();
        let mut live = Vec::new();
        for i in 0..150u32 {
            live.push(bf.malloc(8 + (i * 11) % 300, &mut ctx).unwrap());
            if i % 2 == 0 {
                let victim = live.swap_remove((i as usize * 3) % live.len());
                bf.free(victim, &mut ctx).unwrap();
            }
        }
        for p in live {
            bf.free(p, &mut ctx).unwrap();
        }
        let walk = check_tagged_heap(&ctx, first_block(&bf)).unwrap();
        assert_eq!(walk.allocated_blocks, 0);
        assert_eq!(walk.adjacent_free_pairs, 0);
        assert_eq!(bf.stats().live_granted, 0);
    }

    #[test]
    fn double_free_detected() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut bf = BestFit::new(&mut ctx).unwrap();
        let a = bf.malloc(32, &mut ctx).unwrap();
        bf.free(a, &mut ctx).unwrap();
        assert_eq!(bf.free(a, &mut ctx), Err(AllocError::InvalidFree(a)));
    }
}
