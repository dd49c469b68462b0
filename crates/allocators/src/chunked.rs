//! Page-chunk storage machinery shared by [`crate::GnuLocal`] and
//! [`crate::Custom`].
//!
//! The heap is carved into 4096-byte *chunks*. A descriptor table — the
//! `_heapinfo` array of Haertel's GNU malloc — lives in the heap itself
//! and records, for every chunk, whether it is free, reserved, part of a
//! multi-chunk ("large") allocation, or split into equal-size fragments
//! of one class. Small allocations are fragments; their class is found
//! from the *chunk descriptor*, not from a per-object boundary tag, which
//! is how these allocators avoid the 8-byte per-object overhead the paper
//! examines in Table 6.
//!
//! The key locality property: all searching (for free chunks or chunk
//! runs) walks the dense descriptor table, never the heap blocks
//! themselves. "Instead of traversing the entire heap attempting to find
//! a fit, only the information in the chunk headers must be traversed."

use sim_mem::{Address, MemCtx};

use crate::{AllocError, AllocStats};

/// What to do when every fragment of a chunk becomes free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PurgePolicy {
    /// Unlink the fragments and return the chunk to the pool immediately,
    /// as Haertel's GNU malloc does. Simple, but a class whose live count
    /// hovers at a chunk boundary thrashes: each free purges the page and
    /// the next allocation re-carves it.
    Eager,
    /// Keep up to this many fully-free carved chunks per class before
    /// purging — the hysteresis modern segregated allocators use.
    Retain(u32),
}

/// Chunk size in bytes (one VM page, as in GNU malloc's `BLOCKSIZE`).
pub const CHUNK: u32 = 4096;

/// Largest fragment size; anything bigger is a whole-chunk allocation.
pub const FRAG_MAX: u32 = CHUNK / 2;

/// Descriptor status words.
pub mod status {
    /// Chunk is free for reuse.
    pub const FREE: u32 = 0;
    /// Chunk belongs to a foreign allocator, the table, or padding.
    pub const RESERVED: u32 = 1;
    /// First chunk of a large allocation (aux = number of chunks).
    pub const LARGE_START: u32 = 2;
    /// Continuation chunk of a large allocation.
    pub const LARGE_CONT: u32 = 3;
    /// Chunk fragmented into class `status - FRAG_BASE` fragments
    /// (aux = number of free fragments).
    pub const FRAG_BASE: u32 = 16;
}

/// The chunk-granular heap with an in-heap descriptor table and one
/// fragment freelist per size class.
///
/// Fragment freelists are doubly-linked NULL-terminated lists threaded
/// through the free fragments themselves (`next` at +0, `prev` at +4),
/// with one head word per class in the static area.
#[derive(Debug)]
pub struct ChunkedHeap {
    /// Fragment size (bytes, word multiple, ≥ 8, ≤ [`FRAG_MAX`]) per class.
    class_sizes: Vec<u32>,
    /// Static area: one fragment list-head word per class.
    fragheads: Address,
    /// Descriptor table base (2 words per chunk).
    table: Address,
    /// Chunks occupied by the table itself.
    table_chunks: u32,
    /// Descriptor capacity (chunks representable).
    cap: u32,
    /// One past the highest initialized chunk index.
    frontier: u32,
    /// Lowest possibly-free chunk index (search start hint).
    hint: u32,
    /// Base address of the heap (chunk index 0).
    base: Address,
    /// Empty-chunk handling.
    policy: PurgePolicy,
    /// Fully-free carved chunks currently retained, per class.
    retained: Vec<u32>,
    stats: AllocStats,
}

impl ChunkedHeap {
    /// Creates a chunked heap with the given fragment classes (must be
    /// word multiples in `8..=FRAG_MAX`, strictly increasing), reserving
    /// the fragment heads and the initial one-chunk descriptor table.
    ///
    /// # Panics
    ///
    /// Panics if the class sizes are not strictly increasing word
    /// multiples within range.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Oom`] if the metadata cannot be reserved.
    pub fn new(ctx: &mut MemCtx<'_>, class_sizes: Vec<u32>) -> Result<Self, AllocError> {
        Self::with_policy(ctx, class_sizes, PurgePolicy::Eager)
    }

    /// Creates a chunked heap with an explicit empty-chunk policy.
    ///
    /// # Panics
    ///
    /// Panics if the class sizes are not strictly increasing word
    /// multiples within range.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Oom`] if the metadata cannot be reserved.
    pub fn with_policy(
        ctx: &mut MemCtx<'_>,
        class_sizes: Vec<u32>,
        policy: PurgePolicy,
    ) -> Result<Self, AllocError> {
        assert!(!class_sizes.is_empty(), "at least one fragment class");
        for w in class_sizes.windows(2) {
            assert!(w[0] < w[1], "class sizes strictly increasing");
        }
        for &s in &class_sizes {
            assert!((8..=FRAG_MAX).contains(&s) && s % 4 == 0, "bad class size {s}");
        }
        let base = ctx.heap().base();
        let fragheads = ctx.sbrk(class_sizes.len() as u64 * 4)?;
        for c in 0..class_sizes.len() {
            ctx.store(fragheads + c as u64 * 4, 0);
        }
        let retained = vec![0; class_sizes.len()];
        let mut heap = ChunkedHeap {
            class_sizes,
            fragheads,
            table: Address::NULL,
            table_chunks: 0,
            cap: 0,
            frontier: 0,
            hint: 0,
            base,
            policy,
            retained,
            stats: AllocStats::new(),
        };
        heap.grow_table(1, ctx)?;
        Ok(heap)
    }

    /// The configured fragment class sizes.
    pub fn class_sizes(&self) -> &[u32] {
        &self.class_sizes
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &AllocStats {
        &self.stats
    }

    /// Mutable statistics (wrappers record requested sizes themselves).
    pub fn stats_mut(&mut self) -> &mut AllocStats {
        &mut self.stats
    }

    fn chunk_index(&self, a: Address) -> u32 {
        ((a - self.base) / u64::from(CHUNK)) as u32
    }

    fn chunk_base(&self, idx: u32) -> Address {
        self.base + u64::from(idx) * u64::from(CHUNK)
    }

    fn desc_addr(&self, idx: u32) -> Address {
        self.table + u64::from(idx) * 8
    }

    fn read_status(&self, idx: u32, ctx: &mut MemCtx<'_>) -> u32 {
        ctx.load(self.desc_addr(idx))
    }

    fn write_status(&self, idx: u32, v: u32, ctx: &mut MemCtx<'_>) {
        ctx.store(self.desc_addr(idx), v);
    }

    fn read_aux(&self, idx: u32, ctx: &mut MemCtx<'_>) -> u32 {
        ctx.load(self.desc_addr(idx) + 4)
    }

    fn write_aux(&self, idx: u32, v: u32, ctx: &mut MemCtx<'_>) {
        ctx.store(self.desc_addr(idx) + 4, v);
    }

    fn frag_head(&self, class: usize) -> Address {
        self.fragheads + class as u64 * 4
    }

    fn frags_per_chunk(&self, class: usize) -> u32 {
        CHUNK / self.class_sizes[class]
    }

    /// Grows the heap to the next chunk boundary and claims `n` aligned
    /// chunks, initializing descriptors for any skipped foreign space.
    /// Returns the first claimed chunk index.
    fn claim_chunks(&mut self, n: u32, ctx: &mut MemCtx<'_>) -> Result<u32, AllocError> {
        ctx.ops(3);
        // Growing the table moves the break, which moves our aligned
        // start; iterate until the table covers the claim.
        let start_idx = loop {
            let brk = ctx.heap().brk().raw();
            let aligned = brk.div_ceil(u64::from(CHUNK)) * u64::from(CHUNK);
            let start_idx = self.chunk_index(Address::new(aligned));
            if start_idx + n <= self.cap {
                break start_idx;
            }
            self.ensure_cap(start_idx + n, ctx)?;
        };
        let brk = ctx.heap().brk().raw();
        let aligned = brk.div_ceil(u64::from(CHUNK)) * u64::from(CHUNK);
        let pad = aligned - brk;
        if pad > 0 {
            ctx.sbrk(pad)?;
        }
        ctx.sbrk(u64::from(n) * u64::from(CHUNK))?;
        // Descriptors for space between our last frontier and the new
        // region belong to someone else (or padding): mark reserved.
        for idx in self.frontier..start_idx {
            self.write_status(idx, status::RESERVED, ctx);
        }
        self.frontier = start_idx + n;
        Ok(start_idx)
    }

    /// Ensures the descriptor table covers at least `needed` chunks,
    /// doubling (and relocating) it as required — the traced analogue of
    /// GNU malloc reallocating `_heapinfo`.
    fn ensure_cap(&mut self, needed: u32, ctx: &mut MemCtx<'_>) -> Result<(), AllocError> {
        if needed <= self.cap {
            return Ok(());
        }
        let mut chunks = self.table_chunks.max(1);
        while chunks * (CHUNK / 8) < needed {
            chunks *= 2;
        }
        self.grow_table(chunks, ctx)
    }

    /// Allocates a fresh `chunks`-chunk table at the frontier, copies the
    /// old descriptors, and frees the old table's chunks. The table is
    /// enlarged further if needed so that it can describe its own chunks
    /// (the heap may already extend far beyond the requested capacity
    /// when other allocators share the address space).
    fn grow_table(&mut self, chunks: u32, ctx: &mut MemCtx<'_>) -> Result<(), AllocError> {
        let brk = ctx.heap().brk().raw();
        let aligned = brk.div_ceil(u64::from(CHUNK)) * u64::from(CHUNK);
        let pad = aligned - brk;
        let new_start = self.chunk_index(Address::new(aligned));
        let mut chunks = chunks.max(1);
        while new_start + chunks > chunks * (CHUNK / 8) {
            chunks *= 2;
        }
        if pad > 0 {
            ctx.sbrk(pad)?;
        }
        let new_table = ctx.sbrk(u64::from(chunks) * u64::from(CHUNK))?;
        let new_cap = chunks * (CHUNK / 8);
        let old_table = self.table;
        let old_cap = self.cap;
        let old_chunks = self.table_chunks;
        // Copy live descriptors (2 words each): real, traced work.
        for i in 0..self.frontier.min(old_cap) {
            let s = ctx.load(old_table + u64::from(i) * 8);
            let a = ctx.load(old_table + u64::from(i) * 8 + 4);
            ctx.store(new_table + u64::from(i) * 8, s);
            ctx.store(new_table + u64::from(i) * 8 + 4, a);
        }
        self.table = new_table;
        self.cap = new_cap;
        self.table_chunks = chunks;
        // Mark everything from the old frontier up to and including the
        // new table's own chunks.
        let new_start = self.chunk_index(new_table);
        for idx in self.frontier..new_start {
            self.write_status(idx, status::RESERVED, ctx);
        }
        for idx in new_start..new_start + chunks {
            self.write_status(idx, status::RESERVED, ctx);
        }
        self.frontier = new_start + chunks;
        // The old table's chunks become ordinary free chunks.
        if old_chunks > 0 {
            let old_start = self.chunk_index(old_table);
            for idx in old_start..old_start + old_chunks {
                self.write_status(idx, status::FREE, ctx);
            }
            self.hint = self.hint.min(old_start);
        }
        Ok(())
    }

    /// First-fit scan of the descriptor table for a run of `n` free
    /// chunks; claims fresh chunks if none. This is the localized search
    /// that replaces heap-block traversal.
    fn take_chunk_run(&mut self, n: u32, ctx: &mut MemCtx<'_>) -> Result<u32, AllocError> {
        let mut i = self.hint;
        let mut run = 0u32;
        let mut first_free: Option<u32> = None;
        ctx.ops(2);
        while i < self.frontier {
            let s = self.read_status(i, ctx);
            ctx.ops(2);
            if s == status::FREE {
                if first_free.is_none() {
                    first_free = Some(i);
                }
                run += 1;
                if run == n {
                    let start = i + 1 - n;
                    if Some(start) == first_free && start == self.hint {
                        self.hint = i + 1;
                    }
                    return Ok(start);
                }
            } else {
                run = 0;
            }
            i += 1;
        }
        self.claim_chunks(n, ctx)
    }

    /// Splits the free chunk `idx` into fragments of `class`, threading
    /// them all onto the class freelist (touching every fragment — the
    /// cold cost of dedicating a page to a class).
    fn carve_chunk(&mut self, idx: u32, class: usize, ctx: &mut MemCtx<'_>) {
        let fsize = self.class_sizes[class];
        let n = self.frags_per_chunk(class);
        let base = self.chunk_base(idx);
        let head = self.frag_head(class);
        let old = ctx.load(head);
        ctx.ops(3);
        for i in 0..n {
            let f = base + u64::from(i * fsize);
            let next = if i + 1 < n { (f + u64::from(fsize)).raw() as u32 } else { old };
            let prev = if i == 0 { 0 } else { (f - u64::from(fsize)).raw() as u32 };
            ctx.store(f, next);
            ctx.store(f + 4, prev);
            ctx.ops(2);
        }
        if old != 0 {
            ctx.store(
                Address::new(u64::from(old)) + 4,
                (base + u64::from((n - 1) * fsize)).raw() as u32,
            );
        }
        ctx.store(head, base.raw() as u32);
        self.write_status(idx, status::FRAG_BASE + class as u32, ctx);
        self.write_aux(idx, n, ctx);
    }

    /// Allocates one fragment of `class`. Returns its address; the
    /// granted size is the class size.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Oom`] if a fresh chunk cannot be claimed.
    pub fn alloc_frag(
        &mut self,
        class: usize,
        ctx: &mut MemCtx<'_>,
    ) -> Result<Address, AllocError> {
        debug_assert!(class < self.class_sizes.len());
        let head = self.frag_head(class);
        let mut f = ctx.load(head);
        ctx.ops(2);
        if f == 0 {
            let idx = self.take_chunk_run(1, ctx)?;
            self.carve_chunk(idx, class, ctx);
            f = ctx.load(head);
        }
        let frag = Address::new(u64::from(f));
        // Pop from the head.
        let next = ctx.load(frag);
        ctx.store(head, next);
        if next != 0 {
            ctx.store(Address::new(u64::from(next)) + 4, 0);
        }
        // Account in the chunk descriptor.
        let idx = self.chunk_index(frag);
        let nfree = self.read_aux(idx, ctx);
        if nfree == self.frags_per_chunk(class) {
            // A retained fully-free chunk is back in service.
            self.retained[class] = self.retained[class].saturating_sub(1);
        }
        self.write_aux(idx, nfree - 1, ctx);
        ctx.ops(4);
        Ok(frag)
    }

    /// Allocates `size` bytes as a run of whole chunks (first fit over
    /// the descriptor table). Returns the chunk-aligned address.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Oom`] if the heap limit is exceeded.
    pub fn alloc_large(&mut self, size: u32, ctx: &mut MemCtx<'_>) -> Result<Address, AllocError> {
        let n = size.max(1).div_ceil(CHUNK);
        let start = self.take_chunk_run(n, ctx)?;
        self.write_status(start, status::LARGE_START, ctx);
        self.write_aux(start, n, ctx);
        for idx in start + 1..start + n {
            self.write_status(idx, status::LARGE_CONT, ctx);
        }
        Ok(self.chunk_base(start))
    }

    /// Frees the fragment or large block at `ptr`, identified purely via
    /// the chunk descriptor. Returns the granted bytes released.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidFree`] if `ptr` does not denote a
    /// live fragment or the start of a large allocation.
    pub fn free_at(&mut self, ptr: Address, ctx: &mut MemCtx<'_>) -> Result<u32, AllocError> {
        if ptr < self.base || ptr >= self.chunk_base(self.frontier) {
            return Err(AllocError::InvalidFree(ptr));
        }
        let idx = self.chunk_index(ptr);
        let s = self.read_status(idx, ctx);
        ctx.ops(3);
        if s >= status::FRAG_BASE {
            let class = (s - status::FRAG_BASE) as usize;
            if class >= self.class_sizes.len() {
                return Err(AllocError::InvalidFree(ptr));
            }
            let fsize = self.class_sizes[class];
            if !(ptr - self.chunk_base(idx)).is_multiple_of(u64::from(fsize)) {
                return Err(AllocError::InvalidFree(ptr));
            }
            self.free_frag(ptr, idx, class, ctx)?;
            Ok(fsize)
        } else if s == status::LARGE_START {
            if ptr != self.chunk_base(idx) {
                return Err(AllocError::InvalidFree(ptr));
            }
            let n = self.read_aux(idx, ctx);
            for i in idx..idx + n {
                self.write_status(i, status::FREE, ctx);
            }
            self.hint = self.hint.min(idx);
            ctx.ops(2);
            Ok(n * CHUNK)
        } else {
            Err(AllocError::InvalidFree(ptr))
        }
    }

    fn free_frag(
        &mut self,
        f: Address,
        idx: u32,
        class: usize,
        ctx: &mut MemCtx<'_>,
    ) -> Result<(), AllocError> {
        let n = self.frags_per_chunk(class);
        let nfree = self.read_aux(idx, ctx);
        if nfree >= n {
            return Err(AllocError::InvalidFree(f));
        }
        // Push onto the class list.
        let head = self.frag_head(class);
        let old = ctx.load(head);
        ctx.store(f, old);
        ctx.store(f + 4, 0);
        if old != 0 {
            ctx.store(Address::new(u64::from(old)) + 4, f.raw() as u32);
        }
        ctx.store(head, f.raw() as u32);
        ctx.ops(3);
        if nfree + 1 == n {
            let keep = match self.policy {
                PurgePolicy::Eager => false,
                PurgePolicy::Retain(limit) => self.retained[class] < limit,
            };
            if keep {
                // Leave the chunk carved; its fragments stay on the list.
                self.retained[class] += 1;
                self.write_aux(idx, n, ctx);
            } else {
                // Whole chunk free: unlink its fragments, release it.
                self.purge_chunk(idx, class, ctx);
            }
        } else {
            self.write_aux(idx, nfree + 1, ctx);
        }
        Ok(())
    }

    /// Unlinks every fragment of chunk `idx` from the class list and
    /// marks the chunk free — touching the whole page, as the original
    /// does when a fragmented block empties.
    fn purge_chunk(&mut self, idx: u32, class: usize, ctx: &mut MemCtx<'_>) {
        let fsize = self.class_sizes[class];
        let n = self.frags_per_chunk(class);
        let base = self.chunk_base(idx);
        let head = self.frag_head(class);
        for i in 0..n {
            let f = base + u64::from(i * fsize);
            let next = ctx.load(f);
            let prev = ctx.load(f + 4);
            if prev == 0 {
                ctx.store(head, next);
            } else {
                ctx.store(Address::new(u64::from(prev)), next);
            }
            if next != 0 {
                ctx.store(Address::new(u64::from(next)) + 4, prev);
            }
            ctx.ops(2);
        }
        self.write_status(idx, status::FREE, ctx);
        self.hint = self.hint.min(idx);
    }

    /// Number of free chunks currently recorded (diagnostic; walks the
    /// table untraced).
    pub fn free_chunks(&self, ctx: &MemCtx<'_>) -> u32 {
        (0..self.frontier).filter(|&i| ctx.peek(self.desc_addr(i)) == status::FREE).count() as u32
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

    fn classes() -> Vec<u32> {
        vec![8, 16, 32, 64, 128, 256, 512, 1024, 2048]
    }

    #[test]
    fn fragment_alloc_free_recycles_within_chunk() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut ch = ChunkedHeap::new(&mut ctx, classes()).unwrap();
        let a = ch.alloc_frag(2, &mut ctx).unwrap(); // 32-byte class
        let b = ch.alloc_frag(2, &mut ctx).unwrap();
        assert_eq!(b - a, 32, "fragments carved sequentially");
        ch.free_at(a, &mut ctx).unwrap();
        assert_eq!(ch.alloc_frag(2, &mut ctx).unwrap(), a, "LIFO fragment reuse");
    }

    #[test]
    fn emptied_chunk_returns_to_pool_and_is_reused() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut ch = ChunkedHeap::new(&mut ctx, classes()).unwrap();
        // Fill one chunk of 1024-byte fragments (4 per chunk).
        let frags: Vec<_> = (0..4).map(|_| ch.alloc_frag(7, &mut ctx).unwrap()).collect();
        let high = ctx.heap().in_use();
        for f in &frags {
            ch.free_at(*f, &mut ctx).unwrap();
        }
        assert_eq!(ch.free_chunks(&ctx), 1);
        // A different class reuses the chunk without growing the heap.
        ch.alloc_frag(0, &mut ctx).unwrap();
        assert_eq!(ctx.heap().in_use(), high);
    }

    #[test]
    fn large_allocations_take_chunk_runs() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut ch = ChunkedHeap::new(&mut ctx, classes()).unwrap();
        let p = ch.alloc_large(10000, &mut ctx).unwrap();
        assert_eq!(p.raw() % u64::from(CHUNK), 0);
        let granted = ch.free_at(p, &mut ctx).unwrap();
        assert_eq!(granted, 3 * CHUNK);
        // The 3-chunk run is reused by the next large request.
        let q = ch.alloc_large(8192, &mut ctx).unwrap();
        assert_eq!(q, p);
    }

    #[test]
    fn large_and_frag_coexist() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut ch = ChunkedHeap::new(&mut ctx, classes()).unwrap();
        let a = ch.alloc_frag(1, &mut ctx).unwrap();
        let big = ch.alloc_large(5000, &mut ctx).unwrap();
        let b = ch.alloc_frag(1, &mut ctx).unwrap();
        assert_eq!(ch.free_at(a, &mut ctx).unwrap(), 16);
        assert_eq!(ch.free_at(big, &mut ctx).unwrap(), 2 * CHUNK);
        assert_eq!(ch.free_at(b, &mut ctx).unwrap(), 16);
    }

    #[test]
    fn invalid_frees_rejected() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut ch = ChunkedHeap::new(&mut ctx, classes()).unwrap();
        let a = ch.alloc_frag(0, &mut ctx).unwrap();
        // Misaligned fragment pointer.
        assert!(matches!(ch.free_at(a + 2, &mut ctx), Err(AllocError::InvalidFree(_))));
        // Pointer into the descriptor table (reserved chunk).
        let table_ptr = ch.table;
        assert!(matches!(ch.free_at(table_ptr, &mut ctx), Err(AllocError::InvalidFree(_))));
        // Out of range.
        assert!(matches!(
            ch.free_at(Address::new(0x9999_9999), &mut ctx),
            Err(AllocError::InvalidFree(_))
        ));
        ch.free_at(a, &mut ctx).unwrap();
    }

    #[test]
    fn table_growth_preserves_descriptors() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut ch = ChunkedHeap::new(&mut ctx, classes()).unwrap();
        // Force coverage past the initial 512-chunk table: allocate a
        // large run of 600 chunks (~2.4 MB).
        let p = ch.alloc_large(600 * CHUNK, &mut ctx).unwrap();
        let a = ch.alloc_frag(0, &mut ctx).unwrap();
        assert!(ch.cap >= 600);
        assert_eq!(ch.free_at(p, &mut ctx).unwrap(), 600 * CHUNK);
        assert_eq!(ch.free_at(a, &mut ctx).unwrap(), 8);
    }

    #[test]
    fn descriptor_search_reuses_before_growing() {
        let mut fx = Fx::new();
        let mut ctx = fx.ctx();
        let mut ch = ChunkedHeap::new(&mut ctx, classes()).unwrap();
        let a = ch.alloc_large(CHUNK, &mut ctx).unwrap();
        let b = ch.alloc_large(CHUNK, &mut ctx).unwrap();
        let c = ch.alloc_large(CHUNK, &mut ctx).unwrap();
        ch.free_at(a, &mut ctx).unwrap();
        ch.free_at(b, &mut ctx).unwrap();
        ch.free_at(c, &mut ctx).unwrap();
        let high = ctx.heap().in_use();
        // A 3-chunk request is satisfied by the coalesced-by-adjacency
        // run of freed single chunks.
        let big = ch.alloc_large(3 * CHUNK, &mut ctx).unwrap();
        assert_eq!(big, a);
        assert_eq!(ctx.heap().in_use(), high);
    }
}
