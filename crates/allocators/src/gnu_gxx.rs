//! `GNU G++`: Doug Lea's enhancement of first fit, as distributed with
//! libg++ and measured in the paper.
//!
//! The single freelist of [`crate::FirstFit`] is replaced by an array of
//! doubly-linked freelists *segregated by object size*: a block of size
//! `s` lives in the bin for `⌊log₂ s⌋`. An allocation searches only its
//! own bin (first fit within the bin "to increase the probability of a
//! better fit"), then takes the head of the next non-empty larger bin. In
//! all other respects — boundary tags, splitting, coalescing on free —
//! the algorithm matches FIRSTFIT.
//!
//! The paper finds that this one algorithmic change ("searching less
//! objects in the freelist") makes GNU G++ markedly more resilient than
//! FIRSTFIT in page-fault terms, while still second-worst in cache miss
//! rate — freelist search and coalescing still touch scattered blocks.

use sim_mem::{Address, MemCtx};

use crate::layout::{
    encode, list, read_header, read_prev_footer, round_payload, tag_allocated, tag_size,
    write_tags, F_ALLOC, MIN_BLOCK, TAG, TAG_OVERHEAD,
};
use crate::{AllocError, AllocStats, Allocator};

/// log₂ of the smallest block size (16 bytes).
pub const MIN_SHIFT: u32 = 4;

/// log₂ of the largest supported block size (128 MiB).
pub const MAX_SHIFT: u32 = 27;

/// Number of size-segregated bins.
pub const NBINS: usize = (MAX_SHIFT - MIN_SHIFT + 1) as usize;

/// Configuration knobs, swept by `explore` grids (the ablations).
#[derive(Debug, Clone, Copy)]
pub struct GnuGxxConfig {
    /// Minimum remainder payload for a split to happen.
    pub split_threshold: u32,
    /// Whether `free` coalesces with adjacent free blocks.
    pub coalesce: bool,
}

impl Default for GnuGxxConfig {
    fn default() -> Self {
        GnuGxxConfig { split_threshold: crate::first_fit::DEFAULT_SPLIT_THRESHOLD, coalesce: true }
    }
}

/// Lea's size-segregated first-fit allocator. See the module docs.
#[derive(Debug)]
pub struct GnuGxx {
    /// Static area: `NBINS` sentinel nodes, 12 bytes each.
    bins: Address,
    /// One past our epilogue word; if the heap break moved past it,
    /// another allocator grabbed memory and extension is discontiguous.
    top_end: Address,
    config: GnuGxxConfig,
    stats: AllocStats,
}

impl GnuGxx {
    /// Creates a GNU G++ allocator with the paper's configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Oom`] if the static area cannot be reserved.
    pub fn new(ctx: &mut MemCtx<'_>) -> Result<Self, AllocError> {
        Self::with_config(ctx, GnuGxxConfig::default())
    }

    /// Creates a GNU G++ allocator with explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Oom`] if the static area cannot be reserved.
    pub fn with_config(ctx: &mut MemCtx<'_>, config: GnuGxxConfig) -> Result<Self, AllocError> {
        let bins = ctx.sbrk(NBINS as u64 * list::SENTINEL_BYTES)?;
        for k in 0..NBINS {
            list::init_head(ctx, bins + k as u64 * list::SENTINEL_BYTES);
        }
        let prologue = ctx.sbrk(TAG)?;
        ctx.store(prologue, encode(0, F_ALLOC));
        let epilogue = ctx.sbrk(TAG)?;
        ctx.store(epilogue, encode(0, F_ALLOC));
        let top_end = ctx.heap().brk();
        Ok(GnuGxx { bins, top_end, config, stats: AllocStats::new() })
    }

    /// The bin index for a block of `size` bytes.
    pub fn bin_for(size: u32) -> usize {
        debug_assert!(size >= MIN_BLOCK);
        let k = (31 - size.leading_zeros()).clamp(MIN_SHIFT, MAX_SHIFT);
        (k - MIN_SHIFT) as usize
    }

    /// Sentinel address of bin `k`.
    fn bin_head(&self, k: usize) -> Address {
        self.bins + k as u64 * list::SENTINEL_BYTES
    }

    /// Inserts the free block `b` (tags already written) into its bin.
    fn bin_insert(&mut self, b: Address, size: u32, ctx: &mut MemCtx<'_>) {
        let head = self.bin_head(Self::bin_for(size));
        list::insert_after(ctx, head, b);
    }

    /// Finds and unlinks a free block of at least `need` bytes, searching
    /// the request's own bin first fit and then taking the head of the
    /// first non-empty larger bin.
    fn take_fit(&mut self, need: u32, ctx: &mut MemCtx<'_>) -> Option<(Address, u32)> {
        let start_bin = Self::bin_for(need);
        ctx.ops(3);
        // First fit within the request's own bin.
        let head = self.bin_head(start_bin);
        let mut node = list::next(ctx, head);
        while node != head {
            let tag = read_header(ctx, node);
            self.stats.search_visits += 1;
            ctx.ops(2);
            if tag_size(tag) >= need {
                list::unlink(ctx, node);
                return Some((node, tag_size(tag)));
            }
            node = list::next(ctx, node);
        }
        // Any block in a larger bin fits: take the first.
        ctx.obs_add(obs::names::BITMAP_PROBE, 1);
        for k in start_bin + 1..NBINS {
            let head = self.bin_head(k);
            let node = list::next(ctx, head);
            ctx.ops(1);
            if node != head {
                let tag = read_header(ctx, node);
                self.stats.search_visits += 1;
                list::unlink(ctx, node);
                return Some((node, tag_size(tag)));
            }
        }
        None
    }

    /// Grows the heap by `need` bytes; returns an off-list free block,
    /// merged with a free block that ended at the old frontier.
    fn extend(&mut self, need: u32, ctx: &mut MemCtx<'_>) -> Result<(Address, u32), AllocError> {
        let old_brk = ctx.heap().brk();
        let mut block = if old_brk == self.top_end {
            // Contiguous growth: the old epilogue word becomes the header.
            ctx.sbrk(u64::from(need))?;
            old_brk - TAG
        } else {
            // Another allocator moved the break: start a fresh tagged
            // region with its own prologue word.
            let start = ctx.sbrk(u64::from(need) + 2 * TAG)?;
            ctx.store(start, encode(0, F_ALLOC));
            start + TAG
        };
        let mut size = need;
        write_tags(ctx, block, size, 0);
        ctx.store(block + u64::from(size), encode(0, F_ALLOC));
        self.top_end = ctx.heap().brk();
        if self.config.coalesce {
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
        }
        Ok((block, size))
    }

    /// Allocates `need` bytes from the off-list free block `b`, splitting
    /// if worthwhile; the remainder is re-binned.
    fn place(&mut self, b: Address, bsize: u32, need: u32, ctx: &mut MemCtx<'_>) -> (Address, u32) {
        debug_assert!(bsize >= need);
        let remainder = bsize - need;
        ctx.ops(2);
        if remainder >= MIN_BLOCK && remainder - TAG_OVERHEAD >= self.config.split_threshold {
            let tail = b + u64::from(need);
            write_tags(ctx, tail, remainder, 0);
            self.bin_insert(tail, remainder, ctx);
            write_tags(ctx, b, need, F_ALLOC);
            self.stats.splits += 1;
            (b + TAG, need)
        } else {
            write_tags(ctx, b, bsize, F_ALLOC);
            (b + TAG, bsize)
        }
    }
}

impl Allocator for GnuGxx {
    fn name(&self) -> &'static str {
        "GNU G++"
    }

    fn malloc(&mut self, size: u32, ctx: &mut MemCtx<'_>) -> Result<Address, AllocError> {
        let need = round_payload(size) + TAG_OVERHEAD;
        ctx.ops(4);
        let visits_before = self.stats.search_visits;
        let (block, bsize) = match self.take_fit(need, ctx) {
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
        if self.config.coalesce {
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
        }
        write_tags(ctx, b, size, 0);
        self.bin_insert(b, size, ctx);
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
    use crate::verify::{check_freelist, check_tagged_heap};
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

    fn first_block(g: &GnuGxx) -> Address {
        g.bins + NBINS as u64 * list::SENTINEL_BYTES + TAG
    }

    #[test]
    fn bin_for_uses_floor_log2() {
        assert_eq!(GnuGxx::bin_for(16), 0);
        assert_eq!(GnuGxx::bin_for(31), 0);
        assert_eq!(GnuGxx::bin_for(32), 1);
        assert_eq!(GnuGxx::bin_for(63), 1);
        assert_eq!(GnuGxx::bin_for(64), 2);
        assert_eq!(GnuGxx::bin_for(1 << 27), NBINS - 1);
    }

    #[test]
    fn basic_alloc_free_reuse() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut g = GnuGxx::new(&mut ctx).unwrap();
        let a = g.malloc(40, &mut ctx).unwrap();
        g.free(a, &mut ctx).unwrap();
        let b = g.malloc(40, &mut ctx).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn search_confined_to_matching_bin() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut g = GnuGxx::new(&mut ctx).unwrap();
        // Populate bin 0 with many small free blocks.
        let smalls: Vec<_> = (0..20).map(|_| g.malloc(8, &mut ctx).unwrap()).collect();
        let big = g.malloc(400, &mut ctx).unwrap();
        let _hold = g.malloc(8, &mut ctx).unwrap();
        for p in smalls {
            g.free(p, &mut ctx).unwrap();
        }
        g.free(big, &mut ctx).unwrap();
        let before = g.stats().search_visits;
        // A 400-byte request starts in the 256..511 bin: it must not walk
        // the coalesced small-block entries living in lower bins.
        g.malloc(400, &mut ctx).unwrap();
        let visits = g.stats().search_visits - before;
        assert!(visits <= 3, "visited {visits} blocks, expected a direct bin hit");
    }

    #[test]
    fn larger_bins_serve_when_own_bin_empty() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut g = GnuGxx::new(&mut ctx).unwrap();
        let big = g.malloc(1000, &mut ctx).unwrap();
        let _hold = g.malloc(8, &mut ctx).unwrap();
        g.free(big, &mut ctx).unwrap();
        // A 100-byte request is served by splitting the 1000-byte block.
        let small = g.malloc(100, &mut ctx).unwrap();
        assert_eq!(small, big);
        check_tagged_heap(&ctx, first_block(&g)).unwrap();
    }

    #[test]
    fn coalescing_rebins_merged_blocks() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut g = GnuGxx::new(&mut ctx).unwrap();
        let a = g.malloc(56, &mut ctx).unwrap(); // 64-byte block
        let b = g.malloc(56, &mut ctx).unwrap();
        let _hold = g.malloc(8, &mut ctx).unwrap();
        g.free(a, &mut ctx).unwrap();
        g.free(b, &mut ctx).unwrap();
        assert_eq!(g.stats().coalesces, 1);
        // The merged 128-byte block must be findable via the 128-bin.
        let c = g.malloc(120, &mut ctx).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn freelists_remain_well_formed_under_traffic() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut g = GnuGxx::new(&mut ctx).unwrap();
        let mut live = Vec::new();
        for i in 0..300u32 {
            live.push(g.malloc(4 + (i * 13) % 500, &mut ctx).unwrap());
            if i % 2 == 1 {
                let victim = live.swap_remove((i as usize * 7) % live.len());
                g.free(victim, &mut ctx).unwrap();
            }
        }
        check_tagged_heap(&ctx, first_block(&g)).unwrap();
        for k in 0..NBINS {
            check_freelist(&ctx, g.bin_head(k), 10_000).unwrap();
        }
        for p in live.drain(..) {
            g.free(p, &mut ctx).unwrap();
        }
        let walk = check_tagged_heap(&ctx, first_block(&g)).unwrap();
        assert_eq!(walk.allocated_blocks, 0);
        assert_eq!(walk.adjacent_free_pairs, 0, "full coalescing leaves no adjacent frees");
        assert_eq!(g.stats().live_granted, 0);
    }

    #[test]
    fn double_free_detected() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut g = GnuGxx::new(&mut ctx).unwrap();
        let a = g.malloc(32, &mut ctx).unwrap();
        g.free(a, &mut ctx).unwrap();
        assert_eq!(g.free(a, &mut ctx), Err(AllocError::InvalidFree(a)));
    }
}
