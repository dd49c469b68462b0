//! `QUICKFIT`: Weinstock and Wulf's fast segregated-storage allocator, in
//! the configuration the paper measured.
//!
//! Requests of 4–32 bytes, rounded to word multiples, are served from an
//! array of *exact-size* freelists: the request size indexes the array
//! directly, so allocation is a handful of instructions. Freed fast
//! blocks are pushed back LIFO and never coalesced. When a fast list is
//! empty, blocks are carved from a *tail* region of working storage.
//!
//! Larger requests are delegated to a general-purpose allocator — GNU G++
//! ([`crate::GnuGxx`]), as in the paper's measured configuration.
//!
//! Each block carries a one-word boundary tag identifying its owner (fast
//! class vs. general allocator), which `free` consults to route the
//! block. This tag is exactly the "cache pollution" the paper discusses
//! in §4.3: information useful only to the allocator, dragged into the
//! cache alongside object data.

use sim_mem::{Address, MemCtx};

use crate::layout::{encode, tag_fast, tag_size, F_ALLOC, F_FAST, TAG};
use crate::{AllocError, AllocStats, Allocator, GnuGxx};

/// Largest payload (bytes) served by the fast lists, as the paper
/// measured it.
pub const FAST_MAX: u32 = 32;

/// Number of exact-size fast classes (4, 8, ..., 32 bytes) in the
/// paper's configuration.
pub const NCLASSES: usize = (FAST_MAX / 4) as usize;

/// Tail region replenishment size: fresh working storage is grabbed from
/// the operating system in pages.
pub const TAIL_CHUNK: u32 = 4096;

/// Configuration knobs, exposed for the design-space sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuickFitConfig {
    /// Largest payload (bytes) served by the fast lists; one exact-size
    /// class exists per word multiple up to this bound. Must be a
    /// positive word multiple no larger than `TAIL_CHUNK - 4` (a fast
    /// block, tag included, must fit one tail grab).
    pub fast_max: u32,
}

impl Default for QuickFitConfig {
    fn default() -> Self {
        QuickFitConfig { fast_max: FAST_MAX }
    }
}

/// Weinstock & Wulf's QuickFit. See the module docs.
#[derive(Debug)]
pub struct QuickFit {
    /// Static area: one list-head word per fast class, then the tail
    /// pointer and tail limit words.
    statics: Address,
    /// General allocator for requests above the fast bound.
    general: GnuGxx,
    config: QuickFitConfig,
    stats: AllocStats,
}

impl QuickFit {
    /// Creates a QuickFit allocator (with an embedded GNU G++ for large
    /// requests) in the paper's configuration, reserving the static area.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Oom`] if the static area cannot be reserved.
    pub fn new(ctx: &mut MemCtx<'_>) -> Result<Self, AllocError> {
        Self::with_config(ctx, QuickFitConfig::default())
    }

    /// Creates a QuickFit allocator with explicit knobs. The default
    /// config reproduces [`QuickFit::new`] exactly.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Oom`] if the static area cannot be reserved.
    ///
    /// # Panics
    ///
    /// Panics if `fast_max` is not a positive word multiple that fits a
    /// tail grab (see [`QuickFitConfig::fast_max`]).
    pub fn with_config(ctx: &mut MemCtx<'_>, config: QuickFitConfig) -> Result<Self, AllocError> {
        assert!(
            config.fast_max >= 4
                && config.fast_max.is_multiple_of(4)
                && config.fast_max + TAG as u32 <= TAIL_CHUNK,
            "fast_max {} is not a word multiple in 4..={}",
            config.fast_max,
            TAIL_CHUNK - TAG as u32
        );
        let nclasses = u64::from(config.fast_max / 4);
        let statics = ctx.sbrk((nclasses + 2) * 4)?;
        for i in 0..nclasses + 2 {
            ctx.store(statics + i * 4, 0);
        }
        let general = GnuGxx::new(ctx)?;
        Ok(QuickFit { statics, general, config, stats: AllocStats::new() })
    }

    /// The fast-class index for a payload request in the paper's
    /// configuration, or `None` if the request must go to the general
    /// allocator.
    pub fn class_for(size: u32) -> Option<usize> {
        let rounded = size.max(1).div_ceil(4) * 4;
        (rounded <= FAST_MAX).then(|| (rounded / 4 - 1) as usize)
    }

    /// The payload size of fast class `idx`.
    pub fn class_payload(idx: usize) -> u32 {
        (idx as u32 + 1) * 4
    }

    /// [`QuickFit::class_for`] under this instance's configured bound.
    fn class_index(&self, size: u32) -> Option<usize> {
        let rounded = size.max(1).div_ceil(4) * 4;
        (rounded <= self.config.fast_max).then(|| (rounded / 4 - 1) as usize)
    }

    fn head_addr(&self, idx: usize) -> Address {
        self.statics + idx as u64 * 4
    }

    /// Address of the tail pointer word; the tail limit word follows it.
    fn tail_addr(&self) -> Address {
        self.statics + u64::from(self.config.fast_max / 4) * 4
    }

    /// Carves a fresh block of `total` bytes from the tail region,
    /// growing it by [`TAIL_CHUNK`] when exhausted. Any unusably small
    /// tail remnant is abandoned, as in the original.
    fn carve(&mut self, total: u32, ctx: &mut MemCtx<'_>) -> Result<Address, AllocError> {
        let tail_addr = self.tail_addr();
        let limit_addr = tail_addr + 4;
        let tail = ctx.load(tail_addr);
        let limit = ctx.load(limit_addr);
        ctx.ops(3);
        let tail = if tail + total <= limit {
            tail
        } else {
            let fresh = ctx.sbrk(u64::from(TAIL_CHUNK))?;
            ctx.store(limit_addr, fresh.raw() as u32 + TAIL_CHUNK);
            fresh.raw() as u32
        };
        ctx.store(tail_addr, tail + total);
        let block = Address::new(u64::from(tail));
        // The boundary tag: size plus the fast-storage marker, written
        // once and never changed (fast blocks do not coalesce).
        ctx.store(block, encode(total, F_FAST | F_ALLOC));
        Ok(block)
    }
}

impl Allocator for QuickFit {
    fn name(&self) -> &'static str {
        "QuickFit"
    }

    fn malloc(&mut self, size: u32, ctx: &mut MemCtx<'_>) -> Result<Address, AllocError> {
        ctx.ops(3);
        if let Some(idx) = self.class_index(size) {
            let total = Self::class_payload(idx) + TAG as u32;
            let head = self.head_addr(idx);
            let b = ctx.load(head);
            let block = if b != 0 {
                // Pop from a warm quicklist: the chain word lives in the
                // payload's first word.
                ctx.obs_add(obs::names::QUICK_HIT, 1);
                let block = Address::new(u64::from(b));
                let next = ctx.load(block + TAG);
                ctx.store(head, next);
                block
            } else {
                self.carve(total, ctx)?
            };
            // Quicklist hit: no freelist search at all. Observing an
            // explicit zero keeps the per-malloc search-length
            // histogram comparable across allocators (paper finding 1).
            self.stats.quick_hits += 1;
            ctx.obs_add("alloc.quicklist_hits", 1);
            ctx.obs_observe("alloc.search_len", 0);
            self.stats.note_malloc(size, total);
            Ok(block + TAG)
        } else {
            self.stats.misc_hits += 1;
            ctx.obs_add("alloc.misclist_hits", 1);
            let before = self.general.stats().live_granted;
            // The embedded GNU G++ observes its own search length.
            let p = self.general.malloc(size, ctx)?;
            let granted = self.general.stats().live_granted - before;
            self.stats.absorb_general_counters(self.general.stats());
            self.stats.note_malloc(size, granted as u32);
            Ok(p)
        }
    }

    fn free(&mut self, ptr: Address, ctx: &mut MemCtx<'_>) -> Result<(), AllocError> {
        if ptr.raw() < TAG || !ctx.heap().contains(ptr - TAG, TAG) {
            return Err(AllocError::InvalidFree(ptr));
        }
        let tag = ctx.load(ptr - TAG);
        ctx.ops(2);
        if tag_fast(tag) {
            let total = tag_size(tag);
            let payload = total - TAG as u32;
            if payload == 0 || payload > self.config.fast_max || !payload.is_multiple_of(4) {
                return Err(AllocError::InvalidFree(ptr));
            }
            let idx = (payload / 4 - 1) as usize;
            let block = ptr - TAG;
            // Push LIFO.
            let head = self.head_addr(idx);
            let old = ctx.load(head);
            if old == block.raw() as u32 {
                // The block is already the list head: double free.
                return Err(AllocError::InvalidFree(ptr));
            }
            ctx.store(block + TAG, old);
            ctx.store(head, block.raw() as u32);
            // Fast blocks never coalesce; record the zero so the
            // histogram covers every free.
            ctx.obs_observe("alloc.coalesce_per_free", 0);
            self.stats.note_free(total);
            Ok(())
        } else {
            let before = self.general.stats().live_granted;
            self.general.free(ptr, ctx)?;
            let granted = before - self.general.stats().live_granted;
            self.stats.absorb_general_counters(self.general.stats());
            self.stats.note_free(granted as u32);
            Ok(())
        }
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
    fn class_mapping_rounds_to_words() {
        assert_eq!(QuickFit::class_for(1), Some(0));
        assert_eq!(QuickFit::class_for(4), Some(0));
        assert_eq!(QuickFit::class_for(5), Some(1));
        assert_eq!(QuickFit::class_for(32), Some(7));
        assert_eq!(QuickFit::class_for(33), None);
        assert_eq!(QuickFit::class_for(0), Some(0));
        assert_eq!(QuickFit::class_payload(7), 32);
    }

    #[test]
    fn fast_path_is_lifo_and_exact() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut q = QuickFit::new(&mut ctx).unwrap();
        let a = q.malloc(24, &mut ctx).unwrap();
        let b = q.malloc(24, &mut ctx).unwrap();
        q.free(a, &mut ctx).unwrap();
        q.free(b, &mut ctx).unwrap();
        assert_eq!(q.malloc(24, &mut ctx).unwrap(), b);
        assert_eq!(q.malloc(24, &mut ctx).unwrap(), a);
        // Exact classes: a 24-byte request consumes 28 bytes (tag incl.).
        assert_eq!(q.stats().live_granted, 2 * 28);
    }

    #[test]
    fn different_word_sizes_use_distinct_lists() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut q = QuickFit::new(&mut ctx).unwrap();
        let a = q.malloc(8, &mut ctx).unwrap();
        q.free(a, &mut ctx).unwrap();
        // A 12-byte request must not reuse the 8-byte block.
        let b = q.malloc(12, &mut ctx).unwrap();
        assert_ne!(a, b);
        // But an 8-byte request will.
        assert_eq!(q.malloc(8, &mut ctx).unwrap(), a);
    }

    #[test]
    fn large_requests_go_to_the_general_allocator() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut q = QuickFit::new(&mut ctx).unwrap();
        let big = q.malloc(100, &mut ctx).unwrap();
        q.free(big, &mut ctx).unwrap();
        assert_eq!(q.malloc(100, &mut ctx).unwrap(), big);
        assert_eq!(q.stats().mallocs, 2);
        assert_eq!(q.stats().frees, 1);
    }

    #[test]
    fn boundary_tag_routes_frees_correctly() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut q = QuickFit::new(&mut ctx).unwrap();
        let small = q.malloc(16, &mut ctx).unwrap();
        let big = q.malloc(500, &mut ctx).unwrap();
        // Free in the opposite order; both must route correctly.
        q.free(big, &mut ctx).unwrap();
        q.free(small, &mut ctx).unwrap();
        assert_eq!(q.stats().live_granted, 0);
        assert_eq!(q.stats().live_objects(), 0);
    }

    #[test]
    fn tail_carving_consumes_pages() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut q = QuickFit::new(&mut ctx).unwrap();
        let before = ctx.heap().in_use();
        q.malloc(28, &mut ctx).unwrap();
        assert_eq!(ctx.heap().in_use() - before, 4096);
        // 4096 / 32 = 128 blocks fit before the next page.
        for _ in 0..127 {
            q.malloc(28, &mut ctx).unwrap();
        }
        assert_eq!(ctx.heap().in_use() - before, 4096);
        q.malloc(28, &mut ctx).unwrap();
        assert_eq!(ctx.heap().in_use() - before, 8192);
    }

    #[test]
    fn warm_fast_malloc_is_cheap() {
        let mut fx = Fx::new();
        let a;
        {
            let mut ctx = fx.ctx();
            let mut q = QuickFit::new(&mut ctx).unwrap();
            a = q.malloc(24, &mut ctx).unwrap();
            q.free(a, &mut ctx).unwrap();
            let before = fx.instrs.total();
            let mut ctx = fx.ctx();
            q.malloc(24, &mut ctx).unwrap();
            let cost = fx.instrs.total() - before;
            assert!(cost < 12, "warm QuickFit malloc took {cost} instructions");
        }
    }

    #[test]
    fn wider_fast_bound_serves_larger_requests_exactly() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut q = QuickFit::with_config(&mut ctx, QuickFitConfig { fast_max: 64 }).unwrap();
        // 48 bytes is general-allocator territory at the default bound,
        // but an exact fast class here.
        let a = q.malloc(48, &mut ctx).unwrap();
        q.free(a, &mut ctx).unwrap();
        assert_eq!(q.malloc(48, &mut ctx).unwrap(), a);
        assert_eq!(q.stats().quick_hits, 2);
        assert_eq!(q.stats().misc_hits, 0);
        // 68 bytes still routes to the general allocator.
        q.malloc(68, &mut ctx).unwrap();
        assert_eq!(q.stats().misc_hits, 1);
    }

    #[test]
    fn narrower_fast_bound_delegates_more() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut q = QuickFit::with_config(&mut ctx, QuickFitConfig { fast_max: 8 }).unwrap();
        q.malloc(8, &mut ctx).unwrap();
        q.malloc(12, &mut ctx).unwrap();
        assert_eq!(q.stats().quick_hits, 1);
        assert_eq!(q.stats().misc_hits, 1);
    }

    #[test]
    fn immediate_double_free_detected() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut q = QuickFit::new(&mut ctx).unwrap();
        let a = q.malloc(12, &mut ctx).unwrap();
        q.free(a, &mut ctx).unwrap();
        assert_eq!(q.free(a, &mut ctx), Err(AllocError::InvalidFree(a)));
    }

    #[test]
    fn interleaved_fast_and_general_traffic_stays_consistent() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut q = QuickFit::new(&mut ctx).unwrap();
        let mut live = Vec::new();
        for i in 0..400u32 {
            let size = if i % 3 == 0 { 100 + i % 900 } else { 4 + (i % 8) * 4 };
            live.push(q.malloc(size, &mut ctx).unwrap());
            if i % 2 == 1 {
                let victim = live.swap_remove((i as usize * 11) % live.len());
                q.free(victim, &mut ctx).unwrap();
            }
        }
        for p in live {
            q.free(p, &mut ctx).unwrap();
        }
        assert_eq!(q.stats().live_objects(), 0);
        assert_eq!(q.stats().live_granted, 0);
    }
}
