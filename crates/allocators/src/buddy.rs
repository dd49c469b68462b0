//! `BUDDY`: binary buddy system — the third category of Standish's
//! taxonomy.
//!
//! §2.1 of the paper divides DSA algorithms into "sequential-fit
//! algorithms (e.g., first-fit and best-fit), buddy-system methods
//! (e.g., binary-buddy and Fibonacci), and segregated-storage
//! algorithms". The paper measures the first and third categories; this
//! implementation completes the taxonomy so the locality comparison can
//! cover all three.
//!
//! Binary buddy splits power-of-two blocks recursively and merges a
//! freed block with its *buddy* (the block at `address XOR size`)
//! whenever both are free, restoring larger blocks without searching.
//! It thus sits between the extremes: constant-time class-indexed
//! allocation like segregated storage, aggressive coalescing like the
//! sequential fits — at the cost of power-of-two internal fragmentation
//! (worse than BSD's, since the header burns into the next size class).
//!
//! Layout per block: a one-word header (`order | allocated`), and, when
//! free, doubly-linked list links in the first payload words. Storage is
//! claimed in [`SEGMENT`]-byte segments aligned to their own size so the
//! XOR buddy arithmetic holds.

use sim_mem::{Address, MemCtx};

use crate::{AllocError, AllocStats, Allocator};

/// Smallest block: 2^4 = 16 bytes (12-byte payload).
pub const MIN_ORDER: u32 = 4;

/// Largest block = segment size: 2^20 = 1 MiB.
pub const MAX_ORDER: u32 = 20;

/// Storage is claimed from the operating system in aligned segments of
/// this many bytes.
pub const SEGMENT: u64 = 1 << MAX_ORDER;

const NORDERS: usize = (MAX_ORDER - MIN_ORDER + 1) as usize;
const HDR: u64 = 4;
const F_ALLOC: u32 = 1;

/// The binary buddy allocator. See the module docs.
#[derive(Debug)]
pub struct Buddy {
    /// Static area: one list-head word per order (0 = empty).
    heads: Address,
    stats: AllocStats,
}

impl Buddy {
    /// Creates a buddy allocator, reserving its order-list heads.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Oom`] if the static area cannot be reserved.
    pub fn new(ctx: &mut MemCtx<'_>) -> Result<Self, AllocError> {
        let heads = ctx.sbrk(NORDERS as u64 * 4)?;
        for i in 0..NORDERS {
            ctx.store(heads + i as u64 * 4, 0);
        }
        Ok(Buddy { heads, stats: AllocStats::new() })
    }

    /// The order serving a payload of `size` bytes, or `None` if it
    /// exceeds a whole segment.
    pub fn order_for(size: u32) -> Option<u32> {
        let total = u64::from(size.max(1)) + HDR;
        let order = total.next_power_of_two().trailing_zeros().max(MIN_ORDER);
        (order <= MAX_ORDER).then_some(order)
    }

    fn head_addr(&self, order: u32) -> Address {
        self.heads + u64::from(order - MIN_ORDER) * 4
    }

    /// Pushes a free block onto its order list (head insert).
    fn push(&mut self, b: Address, order: u32, ctx: &mut MemCtx<'_>) {
        ctx.store(b, order << 1); // header: order, free
        let head = self.head_addr(order);
        let old = ctx.load(head);
        ctx.store(b + 4, old); // next
        ctx.store(b + 8, 0); // prev
        if old != 0 {
            ctx.store(Address::new(u64::from(old)) + 8, b.raw() as u32);
        }
        ctx.store(head, b.raw() as u32);
        ctx.ops(2);
    }

    /// Unlinks a specific free block from its order list.
    fn unlink(&mut self, b: Address, order: u32, ctx: &mut MemCtx<'_>) {
        let next = ctx.load(b + 4);
        let prev = ctx.load(b + 8);
        if prev == 0 {
            ctx.store(self.head_addr(order), next);
        } else {
            ctx.store(Address::new(u64::from(prev)) + 4, next);
        }
        if next != 0 {
            ctx.store(Address::new(u64::from(next)) + 8, prev);
        }
        ctx.ops(2);
    }

    /// Pops the head of an order list, if any.
    fn pop(&mut self, order: u32, ctx: &mut MemCtx<'_>) -> Option<Address> {
        let head = self.head_addr(order);
        let b = ctx.load(head);
        ctx.ops(1);
        if b == 0 {
            return None;
        }
        let b = Address::new(u64::from(b));
        let next = ctx.load(b + 4);
        ctx.store(head, next);
        if next != 0 {
            ctx.store(Address::new(u64::from(next)) + 8, 0);
        }
        Some(b)
    }

    /// Claims a fresh aligned segment and returns it as one max-order
    /// free block.
    fn grow(&mut self, ctx: &mut MemCtx<'_>) -> Result<Address, AllocError> {
        let brk = ctx.heap().brk().raw();
        let aligned = brk.div_ceil(SEGMENT) * SEGMENT;
        if aligned > brk {
            ctx.sbrk(aligned - brk)?;
        }
        let seg = ctx.sbrk(SEGMENT)?;
        debug_assert_eq!(seg.raw() % SEGMENT, 0);
        Ok(seg)
    }

    /// Finds a block of at least `order`, splitting larger blocks down.
    fn acquire(&mut self, order: u32, ctx: &mut MemCtx<'_>) -> Result<Address, AllocError> {
        // Find the smallest non-empty order at or above the request.
        // Each order probed counts as one search visit: the buddy
        // "search" is a bounded walk up the order lists, not a freelist
        // scan, and the histogram records exactly that.
        ctx.obs_add(obs::names::BITMAP_PROBE, 1);
        let mut found = None;
        for o in order..=MAX_ORDER {
            ctx.ops(1);
            self.stats.search_visits += 1;
            if let Some(b) = self.pop(o, ctx) {
                found = Some((b, o));
                break;
            }
        }
        let (block, mut o) = match found {
            Some(f) => f,
            None => (self.grow(ctx)?, MAX_ORDER),
        };
        // Split down, pushing the upper halves.
        while o > order {
            o -= 1;
            let buddy = block + (1u64 << o);
            self.push(buddy, o, ctx);
            ctx.ops(2);
        }
        Ok(block)
    }
}

impl Allocator for Buddy {
    fn name(&self) -> &'static str {
        "Buddy"
    }

    fn malloc(&mut self, size: u32, ctx: &mut MemCtx<'_>) -> Result<Address, AllocError> {
        let order = Self::order_for(size).ok_or(AllocError::Unsupported(size))?;
        ctx.ops(4);
        let visits_before = self.stats.search_visits;
        let block = self.acquire(order, ctx)?;
        ctx.store(block, order << 1 | F_ALLOC);
        ctx.obs_observe("alloc.search_len", self.stats.search_visits - visits_before);
        self.stats.note_malloc(size, 1 << order);
        Ok(block + HDR)
    }

    fn free(&mut self, ptr: Address, ctx: &mut MemCtx<'_>) -> Result<(), AllocError> {
        if ptr.raw() < HDR || !ctx.heap().contains(ptr - HDR, HDR) {
            return Err(AllocError::InvalidFree(ptr));
        }
        let mut block = ptr - HDR;
        let header = ctx.load(block);
        ctx.ops(3);
        let mut order = header >> 1;
        if header & F_ALLOC == 0 || !(MIN_ORDER..=MAX_ORDER).contains(&order) {
            return Err(AllocError::InvalidFree(ptr));
        }
        if !block.raw().is_multiple_of(1u64 << order) {
            return Err(AllocError::InvalidFree(ptr));
        }
        let granted = 1u32 << order;
        let merges_before = self.stats.coalesces;
        // Merge with free buddies as far as possible.
        while order < MAX_ORDER {
            let buddy = Address::new(block.raw() ^ (1u64 << order));
            if !ctx.heap().contains(buddy, 1u64 << order) {
                break;
            }
            let bh = ctx.load(buddy);
            ctx.ops(3);
            // The buddy must be a free block of exactly this order.
            if bh & F_ALLOC != 0 || bh >> 1 != order {
                break;
            }
            self.unlink(buddy, order, ctx);
            block = Address::new(block.raw() & !(1u64 << order));
            order += 1;
            self.stats.coalesces += 1;
            ctx.obs_add(obs::names::BOUNDARY_COALESCE, 1);
        }
        self.push(block, order, ctx);
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
    fn order_mapping_includes_header() {
        assert_eq!(Buddy::order_for(1), Some(4)); // 5 -> 16
        assert_eq!(Buddy::order_for(12), Some(4)); // 16 -> 16
        assert_eq!(Buddy::order_for(13), Some(5)); // 17 -> 32
        assert_eq!(Buddy::order_for(60), Some(6)); // 64 -> 64
        assert_eq!(Buddy::order_for(61), Some(7)); // 65 -> 128
        assert_eq!(Buddy::order_for(u32::MAX), None);
    }

    #[test]
    fn blocks_are_naturally_aligned() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut b = Buddy::new(&mut ctx).unwrap();
        for size in [12u32, 28, 60, 1000, 60_000] {
            let p = b.malloc(size, &mut ctx).unwrap();
            let order = Buddy::order_for(size).unwrap();
            assert_eq!((p - HDR).raw() % (1u64 << order), 0, "size {size}");
        }
    }

    #[test]
    fn split_and_merge_round_trip() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut b = Buddy::new(&mut ctx).unwrap();
        // Allocate two 16-byte buddies out of a split 32-byte block.
        let p1 = b.malloc(12, &mut ctx).unwrap();
        let p2 = b.malloc(12, &mut ctx).unwrap();
        assert_eq!((p1 - HDR).raw() ^ 16, (p2 - HDR).raw(), "adjacent buddies");
        b.free(p1, &mut ctx).unwrap();
        assert_eq!(b.stats().coalesces, 0);
        b.free(p2, &mut ctx).unwrap();
        // Freeing the second merges all the way back to the segment.
        assert_eq!(b.stats().coalesces as u32, MAX_ORDER - MIN_ORDER);
        // The rebuilt max-order block serves a huge request without
        // growing the heap.
        let high = ctx.heap().in_use();
        b.malloc(500_000, &mut ctx).unwrap();
        assert_eq!(ctx.heap().in_use(), high);
    }

    #[test]
    fn partial_merge_stops_at_allocated_buddy() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut b = Buddy::new(&mut ctx).unwrap();
        let p1 = b.malloc(12, &mut ctx).unwrap();
        let _p2 = b.malloc(12, &mut ctx).unwrap();
        let p3 = b.malloc(12, &mut ctx).unwrap();
        b.free(p1, &mut ctx).unwrap();
        b.free(p3, &mut ctx).unwrap();
        // p2 still live: no merges possible (p1's buddy is p2; p3's buddy
        // is a free 16B block only if aligned — at most limited merging).
        let reuse = b.malloc(12, &mut ctx).unwrap();
        assert!(reuse == p1 || reuse == p3, "freed blocks are recycled");
    }

    #[test]
    fn internal_fragmentation_exceeds_bsd() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut b = Buddy::new(&mut ctx).unwrap();
        // A 64-byte request needs 68 with header -> 128-byte block.
        b.malloc(64, &mut ctx).unwrap();
        assert_eq!(b.stats().live_granted, 128);
    }

    #[test]
    fn churn_balances_and_merges() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut b = Buddy::new(&mut ctx).unwrap();
        let mut live = Vec::new();
        for i in 0..500u32 {
            live.push(b.malloc(8 + (i * 37) % 5000, &mut ctx).unwrap());
            if i % 2 == 1 {
                let victim = live.swap_remove((i as usize * 11) % live.len());
                b.free(victim, &mut ctx).unwrap();
            }
        }
        for p in live {
            b.free(p, &mut ctx).unwrap();
        }
        assert_eq!(b.stats().live_objects(), 0);
        assert_eq!(b.stats().live_granted, 0);
        assert!(b.stats().coalesces > 0);
        // Everything merged back: one max-order block per claimed
        // segment on the order-20 list.
        let mut segments = 0;
        let mut cur = ctx.peek(b.head_addr(MAX_ORDER));
        while cur != 0 {
            segments += 1;
            cur = ctx.peek(Address::new(u64::from(cur)) + 4);
        }
        assert!(segments >= 1, "all space returns to whole segments");
    }

    #[test]
    fn double_free_detected() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut b = Buddy::new(&mut ctx).unwrap();
        let p = b.malloc(40, &mut ctx).unwrap();
        b.free(p, &mut ctx).unwrap();
        assert!(matches!(b.free(p, &mut ctx), Err(AllocError::InvalidFree(_))));
    }
}
