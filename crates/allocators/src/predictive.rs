//! `PREDICTIVE`: call-site lifetime prediction — the paper's §5.1 future
//! work, made concrete.
//!
//! "We also hope to include other work in program behavior prediction
//! based on call site information \[2\] in the synthesized allocators"
//! — reference \[2\] being Barrett & Zorn, *Using Lifetime Predictors to
//! Improve Memory Allocation Performance* (PLDI 1993).
//!
//! The idea: objects allocated at the same call site tend to share a
//! fate. The allocator keeps a per-site record of whether past objects
//! died young, predicts each new object accordingly, and segregates
//! *short-lived* and *long-lived* objects into separate chunk pools.
//! Short-lived cohorts then die together, so their chunks empty and
//! recycle quickly, while long-lived objects pack densely and never
//! fragment the nursery.
//!
//! Implementation notes, all faithful to a real C implementation and
//! therefore all visible in the reference trace:
//!
//! * an 8-byte header per object records its site and birth time (the
//!   price of prediction — contrast with Table 6's boundary tags);
//! * the site table lives in the heap (one `(died-young, died-old)`
//!   counter pair per site) and is read on allocation, updated on free;
//! * both pools are [`crate::chunked::ChunkedHeap`]s, so placement and
//!   reclamation match the synthesized allocator's machinery.

use sim_mem::{Address, MemCtx};

use crate::chunked::{ChunkedHeap, PurgePolicy, CHUNK};
use crate::{AllocError, AllocStats, Allocator, SizeMap};

/// Number of distinct call sites tracked (extras alias, as a real
/// fixed-size site hash would).
pub const MAX_SITES: u32 = 64;

/// An object freed within this many allocations of its birth counts as
/// short-lived (the default working-set clock).
pub const SHORT_AGE: u32 = 5_000;

/// Per-object header: site word + birth word.
const HEADER: u32 = 8;

/// Configuration knobs, exposed for the design-space sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictiveConfig {
    /// Working-set clock threshold: an object freed within this many
    /// allocations of its birth counts as short-lived when the site
    /// history is updated. Must be positive.
    pub short_age: u32,
}

impl Default for PredictiveConfig {
    fn default() -> Self {
        PredictiveConfig { short_age: SHORT_AGE }
    }
}

/// The lifetime-predicting allocator. See the module docs.
#[derive(Debug)]
pub struct Predictive {
    /// Nursery pool for predicted-short objects.
    short: ChunkedHeap,
    /// Tenured pool for predicted-long objects.
    long: ChunkedHeap,
    /// In-heap size-mapping array shared by both pools.
    map: SizeMap,
    map_base: Address,
    /// In-heap site table: two words (short deaths, long deaths) per site.
    sites: Address,
    /// Allocation clock, for object ages.
    clock: u32,
    config: PredictiveConfig,
    stats: AllocStats,
}

impl Predictive {
    /// Creates a predictive allocator with bounded-fragmentation size
    /// classes in both pools.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Oom`] if the metadata cannot be reserved.
    pub fn new(ctx: &mut MemCtx<'_>) -> Result<Self, AllocError> {
        Self::with_config(ctx, PredictiveConfig::default())
    }

    /// Creates a predictive allocator with explicit knobs. The default
    /// config reproduces [`Predictive::new`] exactly.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Oom`] if the metadata cannot be reserved.
    ///
    /// # Panics
    ///
    /// Panics if `short_age` is zero (everything would count long-lived
    /// before its first birthday).
    pub fn with_config(ctx: &mut MemCtx<'_>, config: PredictiveConfig) -> Result<Self, AllocError> {
        assert!(config.short_age > 0, "short_age must be positive");
        let map = SizeMap::bounded_fragmentation(0.25);
        let map_base = map.write_to_heap(ctx)?;
        let sites = ctx.sbrk(u64::from(MAX_SITES) * 8)?;
        for i in 0..MAX_SITES {
            ctx.store(sites + u64::from(i) * 8, 0);
            ctx.store(sites + u64::from(i) * 8 + 4, 0);
        }
        let classes = map.class_sizes().to_vec();
        let short = ChunkedHeap::with_policy(ctx, classes.clone(), PurgePolicy::Retain(2))?;
        let long = ChunkedHeap::with_policy(ctx, classes, PurgePolicy::Retain(1))?;
        Ok(Predictive {
            short,
            long,
            map,
            map_base,
            sites,
            clock: 0,
            config,
            stats: AllocStats::new(),
        })
    }

    fn site_addr(&self, site: u32) -> Address {
        self.sites + u64::from(site % MAX_SITES) * 8
    }

    /// Reads the site's history and predicts whether the next object
    /// dies young. Unseen sites are optimistically predicted short,
    /// as Barrett & Zorn's predictors do.
    fn predict_short(&mut self, site: u32, ctx: &mut MemCtx<'_>) -> bool {
        let a = self.site_addr(site);
        let shorts = ctx.load(a);
        let longs = ctx.load(a + 4);
        ctx.ops(2);
        shorts >= longs
    }

    /// Records an observed death age for the site, with halving decay so
    /// the history adapts to phase changes.
    fn learn(&mut self, site: u32, age: u32, ctx: &mut MemCtx<'_>) {
        let a = self.site_addr(site);
        let mut shorts = ctx.load(a);
        let mut longs = ctx.load(a + 4);
        ctx.ops(3);
        if age <= self.config.short_age {
            shorts += 1;
        } else {
            longs += 1;
        }
        if shorts + longs >= 1 << 16 {
            shorts /= 2;
            longs /= 2;
        }
        ctx.store(a, shorts);
        ctx.store(a + 4, longs);
    }

    /// Which pool owns `addr`, if any: try a free on `short` first and
    /// fall back to `long` (the wrong pool safely reports the chunk as
    /// foreign).
    fn free_from_pools(&mut self, block: Address, ctx: &mut MemCtx<'_>) -> Result<u32, AllocError> {
        match self.short.free_at(block, ctx) {
            Ok(granted) => Ok(granted),
            Err(AllocError::InvalidFree(_)) => self.long.free_at(block, ctx),
            Err(e) => Err(e),
        }
    }
}

impl Allocator for Predictive {
    fn name(&self) -> &'static str {
        "Predictive"
    }

    fn malloc(&mut self, size: u32, ctx: &mut MemCtx<'_>) -> Result<Address, AllocError> {
        self.malloc_at(size, 0, ctx)
    }

    fn malloc_at(
        &mut self,
        size: u32,
        site: u32,
        ctx: &mut MemCtx<'_>,
    ) -> Result<Address, AllocError> {
        let internal = size.max(1) + HEADER;
        ctx.ops(4);
        let short = self.predict_short(site, ctx);
        let pool = if short { &mut self.short } else { &mut self.long };
        let (block, granted) = if internal <= self.map.max_mapped() {
            let class = SizeMap::lookup(self.map_base, internal, ctx);
            let a = pool.alloc_frag(class, ctx)?;
            (a, self.map.class_sizes()[class])
        } else {
            let a = pool.alloc_large(internal, ctx)?;
            (a, internal.div_ceil(CHUNK) * CHUNK)
        };
        // The prediction header: site and birth time.
        ctx.store(block, site);
        ctx.store(block + 4, self.clock);
        self.clock = self.clock.wrapping_add(1);
        // Prediction plus class lookup is constant-time — no freelist is
        // searched; the zero keeps the histogram comparable.
        ctx.obs_observe("alloc.search_len", 0);
        self.stats.note_malloc(size, granted);
        Ok(block + u64::from(HEADER))
    }

    fn free(&mut self, ptr: Address, ctx: &mut MemCtx<'_>) -> Result<(), AllocError> {
        if ptr.raw() < u64::from(HEADER) || !ctx.heap().contains(ptr - u64::from(HEADER), 8) {
            return Err(AllocError::InvalidFree(ptr));
        }
        let block = ptr - u64::from(HEADER);
        let site = ctx.load(block);
        let birth = ctx.load(block + 4);
        ctx.ops(3);
        let granted = self.free_from_pools(block, ctx)?;
        let age = self.clock.wrapping_sub(birth);
        self.learn(site, age, ctx);
        // Pooled segregated storage never coalesces; record the zero so
        // the histogram covers every free.
        ctx.obs_observe("alloc.coalesce_per_free", 0);
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
    fn basic_round_trip_balances() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut p = Predictive::new(&mut ctx).unwrap();
        let a = p.malloc_at(24, 3, &mut ctx).unwrap();
        let b = p.malloc_at(100, 7, &mut ctx).unwrap();
        assert!(a.is_word_aligned() && b.is_word_aligned());
        p.free(a, &mut ctx).unwrap();
        p.free(b, &mut ctx).unwrap();
        assert_eq!(p.stats().live_objects(), 0);
        assert_eq!(p.stats().live_granted, 0);
    }

    #[test]
    fn long_lived_sites_migrate_to_the_tenured_pool() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut p = Predictive::new(&mut ctx).unwrap();
        // Train site 9 as long-lived: objects survive > SHORT_AGE allocs.
        let old: Vec<_> = (0..8).map(|_| p.malloc_at(24, 9, &mut ctx).unwrap()).collect();
        // Age the clock past the threshold with churn on another site.
        for _ in 0..SHORT_AGE + 10 {
            let t = p.malloc_at(8, 1, &mut ctx).unwrap();
            p.free(t, &mut ctx).unwrap();
        }
        for q in old {
            p.free(q, &mut ctx).unwrap();
        }
        // Site 9 is now predicted long; site 1 short. Their objects land
        // in different pools — i.e. different chunks.
        let long_obj = p.malloc_at(24, 9, &mut ctx).unwrap();
        let short_obj = p.malloc_at(24, 1, &mut ctx).unwrap();
        let chunk = |a: Address| a.raw() / 4096;
        assert_ne!(chunk(long_obj), chunk(short_obj), "pools must segregate");
    }

    #[test]
    fn shorter_clock_tenures_sites_sooner() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        // With a 10-allocation clock, surviving 50 churn cycles already
        // counts as long-lived.
        let mut p = Predictive::with_config(&mut ctx, PredictiveConfig { short_age: 10 }).unwrap();
        let old: Vec<_> = (0..4).map(|_| p.malloc_at(24, 9, &mut ctx).unwrap()).collect();
        for _ in 0..50 {
            let t = p.malloc_at(8, 1, &mut ctx).unwrap();
            p.free(t, &mut ctx).unwrap();
        }
        for q in old {
            p.free(q, &mut ctx).unwrap();
        }
        assert!(!p.predict_short(9, &mut ctx), "site 9 should be predicted long");
        // The default clock would still call those objects short-lived.
        const { assert!(50 + 8 < SHORT_AGE) };
    }

    #[test]
    fn unseen_sites_default_to_short() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut p = Predictive::new(&mut ctx).unwrap();
        assert!(p.predict_short(42, &mut ctx));
    }

    #[test]
    fn learning_is_in_the_trace() {
        let mut fx = Fx::new();
        let refs_before;
        {
            let mut ctx = fx.ctx();
            let mut p = Predictive::new(&mut ctx).unwrap();
            let a = p.malloc_at(16, 2, &mut ctx).unwrap();
            refs_before = fx.sink.stats().meta_refs();
            let mut ctx = fx.ctx();
            p.free(a, &mut ctx).unwrap();
        }
        // A free performs header reads, pool work, and site-table update.
        assert!(fx.sink.stats().meta_refs() > refs_before + 5);
    }

    #[test]
    fn header_overhead_is_accounted() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut p = Predictive::new(&mut ctx).unwrap();
        // 24-byte request + 8-byte header = 32 internal bytes, granted
        // its bounded-fragmentation class (≥ 32, ≤ 25% over).
        p.malloc_at(24, 0, &mut ctx).unwrap();
        let granted = p.stats().live_granted;
        assert!((32..=44).contains(&granted), "granted {granted}");
    }

    #[test]
    fn mixed_churn_stays_consistent() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut p = Predictive::new(&mut ctx).unwrap();
        let mut live = Vec::new();
        for i in 0..600u32 {
            let site = i % 5;
            let size = 8 + (i * 13) % 3000;
            live.push(p.malloc_at(size, site, &mut ctx).unwrap());
            if i % 2 == 1 {
                let victim = live.swap_remove((i as usize * 7) % live.len());
                p.free(victim, &mut ctx).unwrap();
            }
        }
        for q in live {
            p.free(q, &mut ctx).unwrap();
        }
        assert_eq!(p.stats().live_objects(), 0);
        assert_eq!(p.stats().live_granted, 0);
    }

    #[test]
    fn double_free_detected_via_pools() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut p = Predictive::new(&mut ctx).unwrap();
        let a = p.malloc_at(500, 0, &mut ctx).unwrap();
        let big = p.malloc_at(10_000, 0, &mut ctx).unwrap();
        p.free(big, &mut ctx).unwrap();
        // Freeing a pointer into the now-free large chunk is caught.
        assert!(matches!(p.free(big, &mut ctx), Err(AllocError::InvalidFree(_))));
        p.free(a, &mut ctx).unwrap();
    }
}
