//! `BSD`: Chris Kingsley's power-of-two segregated-storage allocator,
//! distributed with 4.2 BSD Unix.
//!
//! Requests are rounded up to a power of two (including a one-word
//! header), and a singly-linked freelist is kept per size class. `malloc`
//! pops the class's list head; `free` pushes the block back. No search,
//! no coalescing — which is why the implementation is very fast and why
//! freed memory is re-used immediately (the locality property the paper
//! credits it with). The price is severe internal fragmentation: an
//! N-byte object consumes the next power of two above `N + 4`, and much
//! of that space "may be wasted", inflating the resident page set
//! (visible in the paper's Figure 2).
//!
//! When a class's list is empty, a whole page (or the block size, if
//! larger) is carved into blocks at once, mirroring the 4.2 BSD
//! `morecore`.

use sim_mem::{Address, MemCtx};

use crate::{AllocError, AllocStats, Allocator};

/// Smallest block size class in 4.2 BSD, 2^4 = 16 bytes (12-byte
/// payload).
pub const MIN_SHIFT: u32 = 4;

/// Largest supported class, 2^27 = 128 MiB.
pub const MAX_SHIFT: u32 = 27;

/// Number of size classes in the 4.2 BSD configuration.
pub const NBUCKETS: usize = (MAX_SHIFT - MIN_SHIFT + 1) as usize;

/// Granularity of `morecore`: a class obtains at least this many bytes of
/// fresh storage at once (one page, as in 4.2 BSD).
pub const PAGE: u32 = 4096;

const HDR: u64 = 4;

/// Configuration knobs, exposed for the design-space sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BsdConfig {
    /// log2 of the smallest block size class: requests round up to a
    /// power of two no smaller than `1 << min_shift`. 4.2 BSD shipped 4
    /// (16-byte blocks); smaller values waste less on tiny objects,
    /// larger values trade internal fragmentation for fewer classes.
    /// Must lie in `3..=MAX_SHIFT`.
    pub min_shift: u32,
}

impl Default for BsdConfig {
    fn default() -> Self {
        BsdConfig { min_shift: MIN_SHIFT }
    }
}

/// Kingsley's BSD allocator. See the module docs.
#[derive(Debug)]
pub struct Bsd {
    /// Static area: one list-head word per bucket.
    heads: Address,
    config: BsdConfig,
    /// Number of buckets under this configuration.
    nbuckets: u32,
    stats: AllocStats,
}

impl Bsd {
    /// Creates a BSD allocator in the 4.2 BSD configuration, reserving
    /// its bucket array in the static area at the current heap frontier.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Oom`] if the static area cannot be reserved.
    pub fn new(ctx: &mut MemCtx<'_>) -> Result<Self, AllocError> {
        Self::with_config(ctx, BsdConfig::default())
    }

    /// Creates a BSD allocator with explicit knobs. The default config
    /// reproduces [`Bsd::new`] exactly.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Oom`] if the static area cannot be reserved.
    ///
    /// # Panics
    ///
    /// Panics if `min_shift` lies outside `3..=MAX_SHIFT` (a block must
    /// hold its header-or-chain word, and at least one class must exist).
    pub fn with_config(ctx: &mut MemCtx<'_>, config: BsdConfig) -> Result<Self, AllocError> {
        assert!(
            (3..=MAX_SHIFT).contains(&config.min_shift),
            "min_shift {} outside 3..={MAX_SHIFT}",
            config.min_shift
        );
        let nbuckets = MAX_SHIFT - config.min_shift + 1;
        let heads = ctx.sbrk(u64::from(nbuckets) * 4)?;
        for i in 0..nbuckets {
            ctx.store(heads + u64::from(i) * 4, 0);
        }
        Ok(Bsd { heads, config, nbuckets, stats: AllocStats::new() })
    }

    /// The bucket index serving a payload request of `size` bytes in the
    /// 4.2 BSD configuration, or `None` if the request exceeds the
    /// largest class.
    pub fn bucket_for(size: u32) -> Option<u32> {
        let total = u64::from(size) + HDR;
        let shift = total.next_power_of_two().trailing_zeros().max(MIN_SHIFT);
        (shift <= MAX_SHIFT).then_some(shift - MIN_SHIFT)
    }

    /// The block size (header included) of bucket `k` in the 4.2 BSD
    /// configuration.
    pub fn bucket_size(k: u32) -> u32 {
        1 << (k + MIN_SHIFT)
    }

    /// [`Bsd::bucket_for`] under this instance's rounding classes.
    fn bucket_index(&self, size: u32) -> Option<u32> {
        let total = u64::from(size) + HDR;
        let shift = total.next_power_of_two().trailing_zeros().max(self.config.min_shift);
        (shift <= MAX_SHIFT).then_some(shift - self.config.min_shift)
    }

    /// The block size (header included) of bucket `k` under this
    /// instance's rounding classes.
    fn block_size(&self, k: u32) -> u32 {
        1 << (k + self.config.min_shift)
    }

    fn head_addr(&self, k: u32) -> Address {
        self.heads + u64::from(k) * 4
    }

    /// Obtains fresh storage for bucket `k` and threads it onto the
    /// (empty) freelist, touching each new block once — the cold-start
    /// cost of a class.
    fn morecore(&mut self, k: u32, ctx: &mut MemCtx<'_>) -> Result<(), AllocError> {
        let bsize = self.block_size(k);
        let grab = bsize.max(PAGE);
        let start = ctx.sbrk(u64::from(grab))?;
        let nblocks = grab / bsize;
        ctx.ops(4);
        // Chain the blocks: each block's first word points at the next,
        // the last at the old head (NULL here).
        for i in 0..nblocks {
            let b = start + u64::from(i * bsize);
            let next = if i + 1 < nblocks { (b + u64::from(bsize)).raw() as u32 } else { 0 };
            ctx.store(b, next);
            ctx.ops(2);
        }
        ctx.store(self.head_addr(k), start.raw() as u32);
        Ok(())
    }
}

impl Allocator for Bsd {
    fn name(&self) -> &'static str {
        "BSD"
    }

    fn malloc(&mut self, size: u32, ctx: &mut MemCtx<'_>) -> Result<Address, AllocError> {
        let k = self.bucket_index(size).ok_or(AllocError::Unsupported(size))?;
        ctx.ops(4);
        // One bucket probe per malloc: the head load below decides
        // whether the class needs fresh storage.
        ctx.obs_add(obs::names::BITMAP_PROBE, 1);
        let mut b = ctx.load(self.head_addr(k));
        if b == 0 {
            self.morecore(k, ctx)?;
            b = ctx.load(self.head_addr(k));
        }
        let block = Address::new(u64::from(b));
        // Pop: head takes the block's chain word; the chain word then
        // becomes the in-use header identifying the bucket.
        let next = ctx.load(block);
        ctx.store(self.head_addr(k), next);
        // "MP" magic | bucket, as 4.2 BSD.
        ctx.store(block, k | 0x4d50_0000);
        // Segregated storage never searches: the explicit zero keeps the
        // per-malloc search-length histogram comparable across
        // allocators (paper finding 1).
        ctx.obs_observe("alloc.search_len", 0);
        self.stats.note_malloc(size, self.block_size(k));
        Ok(block + HDR)
    }

    fn free(&mut self, ptr: Address, ctx: &mut MemCtx<'_>) -> Result<(), AllocError> {
        if ptr.raw() < HDR || !ctx.heap().contains(ptr - HDR, HDR) {
            return Err(AllocError::InvalidFree(ptr));
        }
        let block = ptr - HDR;
        let header = ctx.load(block);
        ctx.ops(3);
        if header >> 16 != 0x4d50 {
            return Err(AllocError::InvalidFree(ptr));
        }
        let k = header & 0xffff;
        if k >= self.nbuckets {
            return Err(AllocError::InvalidFree(ptr));
        }
        // Push: block takes the old head in its chain word.
        let old = ctx.load(self.head_addr(k));
        ctx.store(block, old);
        ctx.store(self.head_addr(k), block.raw() as u32);
        // BSD never coalesces; record the zero so the histogram covers
        // every free.
        ctx.obs_observe("alloc.coalesce_per_free", 0);
        self.stats.note_free(self.block_size(k));
        Ok(())
    }

    fn stats(&self) -> &AllocStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn bucket_mapping_rounds_to_powers_of_two() {
        // 12-byte payload + 4-byte header = 16 → bucket 0.
        assert_eq!(Bsd::bucket_for(12), Some(0));
        // 13 bytes + header = 17 → 32 → bucket 1.
        assert_eq!(Bsd::bucket_for(13), Some(1));
        assert_eq!(Bsd::bucket_for(0), Some(0));
        assert_eq!(Bsd::bucket_for(28), Some(1));
        assert_eq!(Bsd::bucket_for(29), Some(2));
        assert_eq!(Bsd::bucket_for(u32::MAX), None);
        assert_eq!(Bsd::bucket_size(0), 16);
        assert_eq!(Bsd::bucket_size(3), 128);
    }

    #[test]
    fn lifo_reuse_is_immediate() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut bsd = Bsd::new(&mut ctx).unwrap();
        let a = bsd.malloc(20, &mut ctx).unwrap();
        let b = bsd.malloc(20, &mut ctx).unwrap();
        bsd.free(a, &mut ctx).unwrap();
        bsd.free(b, &mut ctx).unwrap();
        // LIFO: last freed, first reallocated.
        assert_eq!(bsd.malloc(20, &mut ctx).unwrap(), b);
        assert_eq!(bsd.malloc(20, &mut ctx).unwrap(), a);
    }

    #[test]
    fn different_classes_never_mix() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut bsd = Bsd::new(&mut ctx).unwrap();
        let small = bsd.malloc(8, &mut ctx).unwrap();
        bsd.free(small, &mut ctx).unwrap();
        // A 100-byte request must not reuse the 16-byte block.
        let big = bsd.malloc(100, &mut ctx).unwrap();
        assert_ne!(big, small);
    }

    #[test]
    fn morecore_carves_a_full_page_of_small_blocks() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut bsd = Bsd::new(&mut ctx).unwrap();
        let before = ctx.heap().in_use();
        let first = bsd.malloc(12, &mut ctx).unwrap();
        assert_eq!(ctx.heap().in_use() - before, 4096);
        // The next 255 allocations of the class consume no new heap.
        let mut last = first;
        for _ in 0..255 {
            last = bsd.malloc(12, &mut ctx).unwrap();
        }
        assert_eq!(ctx.heap().in_use() - before, 4096);
        assert!(last > first);
        // The 257th does.
        bsd.malloc(12, &mut ctx).unwrap();
        assert_eq!(ctx.heap().in_use() - before, 8192);
    }

    #[test]
    fn internal_fragmentation_is_severe_for_awkward_sizes() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut bsd = Bsd::new(&mut ctx).unwrap();
        // A 33-byte request needs 37 with header → 64-byte class.
        bsd.malloc(33, &mut ctx).unwrap();
        assert_eq!(bsd.stats().live_granted, 64);
    }

    #[test]
    fn coarser_rounding_classes_grant_more() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        // min_shift 6: every class is at least 64 bytes.
        let mut bsd = Bsd::with_config(&mut ctx, BsdConfig { min_shift: 6 }).unwrap();
        let a = bsd.malloc(12, &mut ctx).unwrap();
        assert_eq!(bsd.stats().live_granted, 64);
        bsd.free(a, &mut ctx).unwrap();
        // A 40-byte request reuses the same class (44 with header → 64).
        assert_eq!(bsd.malloc(40, &mut ctx).unwrap(), a);
    }

    #[test]
    fn finer_rounding_classes_grant_less() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut bsd = Bsd::with_config(&mut ctx, BsdConfig { min_shift: 3 }).unwrap();
        // 4-byte payload + 4-byte header = 8 → the new smallest class.
        bsd.malloc(4, &mut ctx).unwrap();
        assert_eq!(bsd.stats().live_granted, 8);
    }

    #[test]
    fn invalid_free_detected_by_magic() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut bsd = Bsd::new(&mut ctx).unwrap();
        let a = bsd.malloc(24, &mut ctx).unwrap();
        bsd.free(a, &mut ctx).unwrap();
        // Double free: the header word now holds a chain pointer, not the
        // magic.
        assert_eq!(bsd.free(a, &mut ctx), Err(AllocError::InvalidFree(a)));
    }

    #[test]
    fn malloc_cost_is_constant_after_warmup() {
        let mut fx = Fx::new();
        {
            let mut ctx = fx.ctx();
            let mut bsd = Bsd::new(&mut ctx).unwrap();
            bsd.malloc(24, &mut ctx).unwrap();
            let before = fx.instrs.total();
            let mut ctx = fx.ctx();
            bsd.malloc(24, &mut ctx).unwrap();
            let cost_one = fx.instrs.total() - before;
            let before = fx.instrs.total();
            let mut ctx = fx.ctx();
            bsd.malloc(24, &mut ctx).unwrap();
            assert_eq!(fx.instrs.total() - before, cost_one);
            assert!(cost_one < 20, "warm BSD malloc is a handful of instructions");
        }
    }
}
