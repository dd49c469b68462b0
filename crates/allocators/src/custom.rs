//! `CUSTOM`: the synthesized allocator the paper's conclusions call for
//! (§4.4 / §5.1).
//!
//! The paper ends by advocating an architecture that combines the
//! efficient pieces it identified:
//!
//! * QUICKFIT's structure — segregated exact-size freelists, no search,
//!   no coalescing — "should be the foundation for high-performance DSA
//!   implementations";
//! * size classes chosen from *empirical measurements of a particular
//!   program's behaviour* ([`SizeMap::from_profile`]), realized with
//!   Figure 9's size-mapping array;
//! * GNU LOCAL's chunk headers instead of per-object boundary tags, so
//!   no allocator-only words pollute the cache lines of object data.
//!
//! `Custom` is exactly that: requests are mapped through an in-heap
//! size-mapping array to a profile-derived class, fragments come from
//! dedicated page chunks ([`crate::chunked::ChunkedHeap`]), frees recover
//! the class from the chunk descriptor, and whole-chunk runs serve large
//! requests.

use sim_mem::{Address, MemCtx};

use crate::chunked::{ChunkedHeap, PurgePolicy, CHUNK};
use crate::{AllocError, AllocStats, Allocator, SizeMap, SizeProfile};

/// Default number of exact profile-derived classes.
pub const DEFAULT_EXACT_CLASSES: usize = 16;

/// Default fragmentation bound for the backing classes.
pub const DEFAULT_FRAG_BOUND: f64 = 0.25;

/// The synthesized profile-driven allocator. See the module docs.
#[derive(Debug)]
pub struct Custom {
    heap: ChunkedHeap,
    map: SizeMap,
    /// In-heap Figure 9 size-mapping array.
    map_base: Address,
    stats: AllocStats,
}

impl Custom {
    /// Creates a synthesized allocator for the given size-class policy.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Oom`] if the metadata cannot be reserved.
    pub fn with_size_map(ctx: &mut MemCtx<'_>, map: SizeMap) -> Result<Self, AllocError> {
        let map_base = map.write_to_heap(ctx)?;
        // Unlike GNU LOCAL's eager page release, retain one empty chunk
        // per class: a class whose live count hovers at a chunk boundary
        // would otherwise purge and re-carve a page on every cycle.
        let heap =
            ChunkedHeap::with_policy(ctx, map.class_sizes().to_vec(), PurgePolicy::Retain(1))?;
        Ok(Custom { heap, map, map_base, stats: AllocStats::new() })
    }

    /// Creates a synthesized allocator from an allocation profile, using
    /// [`DEFAULT_EXACT_CLASSES`] exact classes over a
    /// [`DEFAULT_FRAG_BOUND`] fragmentation-bounded backbone.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Oom`] if the metadata cannot be reserved.
    pub fn from_profile(ctx: &mut MemCtx<'_>, profile: &SizeProfile) -> Result<Self, AllocError> {
        let map = SizeMap::from_profile(profile, DEFAULT_EXACT_CLASSES, DEFAULT_FRAG_BOUND);
        Self::with_size_map(ctx, map)
    }

    /// The size-class policy in use.
    pub fn size_map(&self) -> &SizeMap {
        &self.map
    }
}

impl Allocator for Custom {
    fn name(&self) -> &'static str {
        "Custom"
    }

    fn malloc(&mut self, size: u32, ctx: &mut MemCtx<'_>) -> Result<Address, AllocError> {
        ctx.ops(2);
        // Class-indexed allocation never searches; the zero keeps the
        // per-malloc search-length histogram comparable across
        // allocators (paper finding 1).
        ctx.obs_observe("alloc.search_len", 0);
        if size <= self.map.max_mapped() {
            // Figure 9: one array load maps the request to its class.
            let class = SizeMap::lookup(self.map_base, size, ctx);
            let a = self.heap.alloc_frag(class, ctx)?;
            self.stats.note_malloc(size, self.heap.class_sizes()[class]);
            Ok(a)
        } else {
            let a = self.heap.alloc_large(size, ctx)?;
            self.stats.note_malloc(size, size.div_ceil(CHUNK) * CHUNK);
            Ok(a)
        }
    }

    fn free(&mut self, ptr: Address, ctx: &mut MemCtx<'_>) -> Result<(), AllocError> {
        let granted = self.heap.free_at(ptr, ctx)?;
        // Segregated storage never coalesces; record the zero so the
        // histogram covers every free.
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

    fn profiled() -> SizeProfile {
        let mut p = SizeProfile::new();
        for _ in 0..10_000 {
            p.record(24);
        }
        for _ in 0..5_000 {
            p.record(40);
        }
        for _ in 0..100 {
            p.record(333);
        }
        p
    }

    #[test]
    fn hot_sizes_get_exact_classes_with_zero_waste() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut c = Custom::from_profile(&mut ctx, &profiled()).unwrap();
        c.malloc(24, &mut ctx).unwrap();
        assert_eq!(c.stats().live_granted, 24, "exact class: zero internal fragmentation");
        c.malloc(40, &mut ctx).unwrap();
        assert_eq!(c.stats().live_granted, 64);
    }

    #[test]
    fn objects_carry_no_header() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut c = Custom::from_profile(&mut ctx, &profiled()).unwrap();
        let a = c.malloc(24, &mut ctx).unwrap();
        let b = c.malloc(24, &mut ctx).unwrap();
        assert_eq!(b - a, 24, "exact-size fragments are densely packed");
    }

    #[test]
    fn reuse_is_immediate_and_exact() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut c = Custom::from_profile(&mut ctx, &profiled()).unwrap();
        let a = c.malloc(24, &mut ctx).unwrap();
        c.free(a, &mut ctx).unwrap();
        assert_eq!(c.malloc(24, &mut ctx).unwrap(), a);
    }

    #[test]
    fn large_requests_and_unprofiled_sizes_work() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut c = Custom::from_profile(&mut ctx, &profiled()).unwrap();
        let big = c.malloc(10_000, &mut ctx).unwrap();
        let odd = c.malloc(777, &mut ctx).unwrap();
        c.free(big, &mut ctx).unwrap();
        c.free(odd, &mut ctx).unwrap();
        assert_eq!(c.stats().live_granted, 0);
    }

    #[test]
    fn bounded_policy_without_profile_also_works() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let map = SizeMap::bounded_fragmentation(0.25);
        let mut c = Custom::with_size_map(&mut ctx, map).unwrap();
        let mut live = Vec::new();
        for i in 1..=300u32 {
            live.push(c.malloc(i * 7 % 2500 + 1, &mut ctx).unwrap());
        }
        for p in live {
            c.free(p, &mut ctx).unwrap();
        }
        assert_eq!(c.stats().live_objects(), 0);
        assert_eq!(c.stats().live_granted, 0);
    }

    #[test]
    fn malloc_cost_is_small_and_constant_when_warm() {
        let mut fx = Fx::new();
        {
            let mut ctx = fx.ctx();
            let mut c = Custom::from_profile(&mut ctx, &profiled()).unwrap();
            // Keep one object live so the class's chunk is never
            // reclaimed between operations.
            let _hold = c.malloc(24, &mut ctx).unwrap();
            let a = c.malloc(24, &mut ctx).unwrap();
            c.free(a, &mut ctx).unwrap();
            let before = fx.instrs.total();
            let mut ctx = fx.ctx();
            let b = c.malloc(24, &mut ctx).unwrap();
            let cost = fx.instrs.total() - before;
            assert_eq!(a, b);
            assert!(cost < 30, "warm Custom malloc took {cost} instructions");
        }
    }
}
