//! Shared in-heap metadata layout: boundary tags and embedded freelists.
//!
//! The sequential-fit allocators ([`crate::FirstFit`], [`crate::GnuGxx`])
//! and the general side of [`crate::QuickFit`] use the classic Knuth block
//! layout:
//!
//! ```text
//!        +-----------+----------------------------+-----------+
//! block: | header 4B |          payload           | footer 4B |
//!        +-----------+----------------------------+-----------+
//!                    ^ payload address returned to the caller
//! ```
//!
//! Header and footer both hold `size | flags` (the *boundary tags*), where
//! `size` is the total block size in bytes (a word multiple) and bit 0 is
//! the allocated flag. Tags at both ends let `free` coalesce with either
//! neighbour in constant time — and they are exactly the per-object
//! overhead whose cache pollution Table 6 of the paper measures.
//!
//! Free blocks additionally thread a circular doubly-linked list through
//! their payload (`next` at +4, `prev` at +8 from the block address), so a
//! free block occupies at least [`MIN_BLOCK`] bytes. List heads are
//! sentinel pseudo-blocks (header + two links) placed in the allocator's
//! static area at heap start, giving uniform link manipulation.
//!
//! All manipulation goes through [`sim_mem::MemCtx`], so every tag or link
//! touched shows up in the reference trace.

use sim_mem::{Address, MemCtx};

/// Size of one boundary tag (header or footer) in bytes.
pub const TAG: u64 = 4;

/// Byte offset of the `next` link in a free block (from the block address).
pub const NEXT_OFF: u64 = 4;

/// Byte offset of the `prev` link in a free block.
pub const PREV_OFF: u64 = 8;

/// Minimum total block size: header + next + prev + footer.
pub const MIN_BLOCK: u32 = 16;

/// Per-allocated-object overhead of the boundary-tag scheme (header +
/// footer). The paper cites this 8-byte figure when estimating that ~25%
/// of the cache can end up holding allocator-only data.
pub const TAG_OVERHEAD: u32 = 8;

/// Flag bit 0: block is allocated.
pub const F_ALLOC: u32 = 0b01;

/// Flag bit 1: block belongs to QuickFit's fast storage (never coalesced).
pub const F_FAST: u32 = 0b10;

const FLAG_MASK: u32 = 0b11;

/// Packs a block size and flags into a tag word.
///
/// # Panics
///
/// Panics in debug builds if `size` is not a multiple of the word size.
pub fn encode(size: u32, flags: u32) -> u32 {
    debug_assert_eq!(size % 4, 0, "block sizes are word multiples");
    debug_assert_eq!(flags & !FLAG_MASK, 0);
    size | flags
}

/// Extracts the block size from a tag word.
pub fn tag_size(tag: u32) -> u32 {
    tag & !FLAG_MASK
}

/// Returns `true` if the tag's allocated bit is set.
pub fn tag_allocated(tag: u32) -> bool {
    tag & F_ALLOC != 0
}

/// Returns `true` if the tag's fast-storage bit is set.
pub fn tag_fast(tag: u32) -> bool {
    tag & F_FAST != 0
}

/// Writes both boundary tags of the block at `b`.
///
/// Counted under `alloc.tag_writes`: boundary-tag traffic is the
/// cache-pollution mechanism Table 6 of the paper quantifies, so the
/// recorder sees every tag word the allocators touch.
pub fn write_tags(ctx: &mut MemCtx<'_>, b: Address, size: u32, flags: u32) {
    let tag = encode(size, flags);
    ctx.obs_add("alloc.tag_writes", 2);
    ctx.store(b, tag);
    ctx.store(b + u64::from(size) - TAG, tag);
}

/// Reads the header tag of the block at `b` (counted under
/// `alloc.tag_reads`).
pub fn read_header(ctx: &mut MemCtx<'_>, b: Address) -> u32 {
    ctx.obs_add("alloc.tag_reads", 1);
    ctx.load(b)
}

/// Reads the footer tag of the block *preceding* address `b` (counted
/// under `alloc.tag_reads`).
pub fn read_prev_footer(ctx: &mut MemCtx<'_>, b: Address) -> u32 {
    ctx.obs_add("alloc.tag_reads", 1);
    ctx.load(b - TAG)
}

/// Operations on the circular doubly-linked freelist threaded through free
/// blocks. Every node — including sentinel list heads — is addressed by
/// its block address, with links at [`NEXT_OFF`] and [`PREV_OFF`].
pub mod list {
    use super::*;

    /// Bytes a sentinel head occupies in the static area (header word,
    /// unused, plus the two links).
    pub const SENTINEL_BYTES: u64 = 12;

    fn to_word(a: Address) -> u32 {
        u32::try_from(a.raw()).expect("simulated addresses fit in a word")
    }

    fn from_word(w: u32) -> Address {
        Address::new(u64::from(w))
    }

    /// Initializes a sentinel head to the empty state (both links point at
    /// the sentinel itself).
    pub fn init_head(ctx: &mut MemCtx<'_>, head: Address) {
        let w = to_word(head);
        ctx.store(head + NEXT_OFF, w);
        ctx.store(head + PREV_OFF, w);
    }

    /// Loads the successor of `node`.
    pub fn next(ctx: &mut MemCtx<'_>, node: Address) -> Address {
        from_word(ctx.load(node + NEXT_OFF))
    }

    /// Loads the predecessor of `node`.
    pub fn prev(ctx: &mut MemCtx<'_>, node: Address) -> Address {
        from_word(ctx.load(node + PREV_OFF))
    }

    /// Returns `true` if the list rooted at `head` has no members.
    pub fn is_empty(ctx: &mut MemCtx<'_>, head: Address) -> bool {
        next(ctx, head) == head
    }

    /// Inserts `new` immediately after `node`.
    pub fn insert_after(ctx: &mut MemCtx<'_>, node: Address, new: Address) {
        let succ = next(ctx, node);
        ctx.store(new + NEXT_OFF, to_word(succ));
        ctx.store(new + PREV_OFF, to_word(node));
        ctx.store(node + NEXT_OFF, to_word(new));
        ctx.store(succ + PREV_OFF, to_word(new));
        ctx.ops(2);
    }

    /// Removes `node` from its list (the node's own links are left stale).
    pub fn unlink(ctx: &mut MemCtx<'_>, node: Address) {
        let succ = next(ctx, node);
        let pred = prev(ctx, node);
        ctx.store(pred + NEXT_OFF, to_word(succ));
        ctx.store(succ + PREV_OFF, to_word(pred));
        ctx.ops(2);
    }

    /// Replaces `old` with `new` in place (used when splitting a free
    /// block: the remainder inherits the original's list position).
    pub fn replace(ctx: &mut MemCtx<'_>, old: Address, new: Address) {
        let succ = next(ctx, old);
        let pred = prev(ctx, old);
        ctx.store(new + NEXT_OFF, to_word(succ));
        ctx.store(new + PREV_OFF, to_word(pred));
        ctx.store(pred + NEXT_OFF, to_word(new));
        ctx.store(succ + PREV_OFF, to_word(new));
        ctx.ops(2);
    }
}

/// Rounds a payload request up to a word multiple, with a floor that keeps
/// freed blocks large enough to hold their freelist links.
pub fn round_payload(size: u32) -> u32 {
    let size = size.max(1);
    let rounded = size.div_ceil(4) * 4;
    rounded.max(MIN_BLOCK - TAG_OVERHEAD)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::{CountingSink, HeapImage, InstrCounter};

    fn with_ctx<R>(f: impl FnOnce(&mut MemCtx<'_>) -> R) -> R {
        let mut heap = HeapImage::new();
        let mut sink = CountingSink::new();
        let mut instrs = InstrCounter::new();
        let mut ctx = MemCtx::new(&mut heap, &mut sink, &mut instrs);
        f(&mut ctx)
    }

    #[test]
    fn tag_encoding_round_trips() {
        let t = encode(64, F_ALLOC);
        assert_eq!(tag_size(t), 64);
        assert!(tag_allocated(t));
        assert!(!tag_fast(t));
        let t = encode(32, F_FAST);
        assert!(!tag_allocated(t));
        assert!(tag_fast(t));
        assert_eq!(tag_size(t), 32);
    }

    #[test]
    fn tags_written_at_both_ends() {
        with_ctx(|ctx| {
            let b = ctx.sbrk(32).unwrap();
            write_tags(ctx, b, 32, F_ALLOC);
            assert_eq!(read_header(ctx, b), encode(32, F_ALLOC));
            assert_eq!(read_prev_footer(ctx, b + 32), encode(32, F_ALLOC));
        });
    }

    #[test]
    fn list_insert_and_unlink() {
        with_ctx(|ctx| {
            let head = ctx.sbrk(list::SENTINEL_BYTES).unwrap();
            let a = ctx.sbrk(16).unwrap();
            let b = ctx.sbrk(16).unwrap();
            list::init_head(ctx, head);
            assert!(list::is_empty(ctx, head));

            list::insert_after(ctx, head, a);
            list::insert_after(ctx, head, b);
            // head -> b -> a -> head
            assert_eq!(list::next(ctx, head), b);
            assert_eq!(list::next(ctx, b), a);
            assert_eq!(list::next(ctx, a), head);
            assert_eq!(list::prev(ctx, head), a);

            list::unlink(ctx, b);
            assert_eq!(list::next(ctx, head), a);
            assert_eq!(list::prev(ctx, a), head);

            list::unlink(ctx, a);
            assert!(list::is_empty(ctx, head));
        });
    }

    #[test]
    fn list_replace_preserves_position() {
        with_ctx(|ctx| {
            let head = ctx.sbrk(list::SENTINEL_BYTES).unwrap();
            let a = ctx.sbrk(16).unwrap();
            let b = ctx.sbrk(16).unwrap();
            let c = ctx.sbrk(16).unwrap();
            list::init_head(ctx, head);
            list::insert_after(ctx, head, b);
            list::insert_after(ctx, head, a);
            // head -> a -> b -> head; replace a with c.
            list::replace(ctx, a, c);
            assert_eq!(list::next(ctx, head), c);
            assert_eq!(list::next(ctx, c), b);
            assert_eq!(list::prev(ctx, b), c);
        });
    }

    #[test]
    fn round_payload_enforces_minimum() {
        assert_eq!(round_payload(0), 8);
        assert_eq!(round_payload(1), 8);
        assert_eq!(round_payload(8), 8);
        assert_eq!(round_payload(9), 12);
        assert_eq!(round_payload(24), 24);
    }
}
