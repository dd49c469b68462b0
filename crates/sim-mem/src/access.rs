//! Memory references and reference-stream consumers.

use serde::{Deserialize, Serialize};

use crate::{AccessSink, Address};

/// Whether a reference reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Who issued the reference.
///
/// The paper distinguishes the *direct* effect of an allocator (its own
/// references to freelists, boundary tags and chunk headers) from the
/// *indirect* effect (how object placement changes the locality of the
/// application's references). Tagging each reference with its origin lets
/// the simulators report both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessClass {
    /// The application touching its own heap data.
    AppData,
    /// The allocator touching its metadata (links, tags, headers).
    AllocatorMeta,
}

/// One observed data reference: `size` bytes starting at `addr`.
///
/// A reference may span multiple cache blocks or pages; consumers must
/// decompose it. Large application references (e.g. initializing a freshly
/// allocated object) are deliberately carried as a single `MemRef` so the
/// trace stream stays compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemRef {
    /// First byte touched.
    pub addr: Address,
    /// Number of bytes touched (at least 1).
    pub size: u32,
    /// Load or store.
    pub kind: AccessKind,
    /// Application data or allocator metadata.
    pub class: AccessClass,
}

impl MemRef {
    /// A word-sized metadata load, as issued by allocator internals.
    pub fn meta_read(addr: Address, size: u32) -> Self {
        MemRef { addr, size, kind: AccessKind::Read, class: AccessClass::AllocatorMeta }
    }

    /// A word-sized metadata store.
    pub fn meta_write(addr: Address, size: u32) -> Self {
        MemRef { addr, size, kind: AccessKind::Write, class: AccessClass::AllocatorMeta }
    }

    /// An application-data load.
    pub fn app_read(addr: Address, size: u32) -> Self {
        MemRef { addr, size, kind: AccessKind::Read, class: AccessClass::AppData }
    }

    /// An application-data store.
    pub fn app_write(addr: Address, size: u32) -> Self {
        MemRef { addr, size, kind: AccessKind::Write, class: AccessClass::AppData }
    }

    /// Iterates over the block numbers this reference touches for a given
    /// power-of-two block size.
    ///
    /// # Example
    ///
    /// ```
    /// use sim_mem::{Address, MemRef};
    /// let r = MemRef::app_write(Address::new(30), 8); // spans blocks 0 and 1
    /// let blocks: Vec<u64> = r.blocks(32).collect();
    /// assert_eq!(blocks, vec![0, 1]);
    /// ```
    pub fn blocks(&self, block_size: u64) -> impl Iterator<Item = u64> {
        debug_assert!(block_size.is_power_of_two());
        debug_assert!(self.size >= 1);
        let first = self.addr.raw() / block_size;
        let last = self.last_byte() / block_size;
        first..=last
    }

    /// The address of the last byte this reference touches (a zero size
    /// counts as one byte). Computed without overflow for a reference
    /// that ends at the top of the address space; a reference that would
    /// run past 2^64 is not valid, and the stream decoder rejects it.
    #[inline]
    pub fn last_byte(&self) -> u64 {
        self.addr.raw() + u64::from(self.size.max(1) - 1)
    }

    /// Whether every byte of this reference lies in a single
    /// `block_size`-byte aligned block.
    ///
    /// This is the gate for run fast paths: once a single-block
    /// reference has been observed, an immediate repeat can touch no
    /// block other than the one just touched, so a sink may account for
    /// the repeat without re-walking its lookup structures.
    #[inline]
    pub fn single_block(&self, block_size: u64) -> bool {
        debug_assert!(block_size.is_power_of_two());
        let first = self.addr.raw() / block_size;
        let last = self.last_byte() / block_size;
        first == last
    }

    /// The first and last `block_size`-aligned block this reference
    /// touches, as block numbers.
    #[inline]
    pub fn block_range(&self, block_size: u64) -> (u64, u64) {
        debug_assert!(block_size.is_power_of_two());
        let first = self.addr.raw() / block_size;
        let last = self.last_byte() / block_size;
        (first, last)
    }

    /// How many consecutive `block_size`-aligned blocks this reference
    /// spans (at least 1).
    ///
    /// This is the gate for run-aware multi-block fast paths: the span
    /// of a run's reference is decomposed once, and when the spanned
    /// blocks all stay resident in a sink's tracking structure after the
    /// first occurrence (e.g. the span is no wider than a cache's line
    /// count, or fits the exact top of an LRU stack), every repeat is a
    /// predictable all-hit pass the sink may account for in O(1).
    #[inline]
    pub fn block_span(&self, block_size: u64) -> u64 {
        let (first, last) = self.block_range(block_size);
        last - first + 1
    }

    /// Word-granular size of this reference (one per data word touched,
    /// rounded up; at least one) — the unit access counters advance by.
    #[inline]
    pub fn words(&self) -> u64 {
        u64::from(self.size.div_ceil(4).max(1))
    }
}

/// `count` consecutive occurrences of the identical reference `r`.
///
/// The run-length compressed form of a reference stream: a batching
/// [`crate::MemCtx`] collapses immediate repeats of one [`MemRef`] into a
/// single run before fan-out, and [`crate::AccessSink::record_runs`]
/// consumers turn the repeats into O(1) work. Expanding every run in
/// order reproduces the raw stream exactly (the encoding is lossless),
/// which is what keeps every consumer bit-identical to the uncompressed
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RefRun {
    /// The repeated reference.
    pub r: MemRef,
    /// How many times it occurred consecutively (at least 1).
    pub count: u32,
}

impl RefRun {
    /// A run of one occurrence.
    pub fn once(r: MemRef) -> Self {
        RefRun { r, count: 1 }
    }
}

/// Discards every reference. Useful for running an allocator purely for
/// its heap-layout or instruction-count side effects.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl AccessSink for NullSink {
    fn record(&mut self, _r: MemRef) {}
}

/// Collects references into a vector; intended for tests and small traces.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// The recorded references, in program order.
    pub refs: Vec<MemRef>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AccessSink for VecSink {
    fn record(&mut self, r: MemRef) {
        self.refs.push(r);
    }
}

/// Aggregate statistics over a reference stream, split by class and kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of application-data loads.
    pub app_reads: u64,
    /// Number of application-data stores.
    pub app_writes: u64,
    /// Number of allocator-metadata loads.
    pub meta_reads: u64,
    /// Number of allocator-metadata stores.
    pub meta_writes: u64,
    /// Total bytes touched by application references.
    pub app_bytes: u64,
    /// Total bytes touched by metadata references.
    pub meta_bytes: u64,
    /// Word-granular application data references (one per word touched,
    /// rounded up per reference — the paper's unit for `D`).
    pub app_words: u64,
    /// Word-granular metadata references.
    pub meta_words: u64,
}

impl TraceStats {
    /// Total number of references of any class.
    pub fn total_refs(&self) -> u64 {
        self.app_reads + self.app_writes + self.meta_reads + self.meta_writes
    }

    /// Number of application references.
    pub fn app_refs(&self) -> u64 {
        self.app_reads + self.app_writes
    }

    /// Number of allocator-metadata references.
    pub fn meta_refs(&self) -> u64 {
        self.meta_reads + self.meta_writes
    }

    /// Total word-granular data references (the paper's `D`).
    pub fn total_words(&self) -> u64 {
        self.app_words + self.meta_words
    }
}

/// Counts references without storing them.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingSink {
    stats: TraceStats,
}

impl CountingSink {
    /// Creates a sink with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the accumulated statistics.
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    /// Counts `n` occurrences of `r` at once. Every counter is a plain
    /// sum over the stream, so a multiplied single update is exactly `n`
    /// repeated updates.
    fn tally(&mut self, r: MemRef, n: u64) {
        let bytes = u64::from(r.size) * n;
        let words = r.words() * n;
        match (r.class, r.kind) {
            (AccessClass::AppData, AccessKind::Read) => {
                self.stats.app_reads += n;
                self.stats.app_bytes += bytes;
                self.stats.app_words += words;
            }
            (AccessClass::AppData, AccessKind::Write) => {
                self.stats.app_writes += n;
                self.stats.app_bytes += bytes;
                self.stats.app_words += words;
            }
            (AccessClass::AllocatorMeta, AccessKind::Read) => {
                self.stats.meta_reads += n;
                self.stats.meta_bytes += bytes;
                self.stats.meta_words += words;
            }
            (AccessClass::AllocatorMeta, AccessKind::Write) => {
                self.stats.meta_writes += n;
                self.stats.meta_bytes += bytes;
                self.stats.meta_words += words;
            }
        }
    }
}

impl AccessSink for CountingSink {
    fn record(&mut self, r: MemRef) {
        self.tally(r, 1);
    }

    fn record_runs(&mut self, runs: &[RefRun]) {
        for run in runs {
            self.tally(run.r, u64::from(run.count));
        }
    }
}

/// Forwards every reference to a pair of sinks.
///
/// Larger fan-outs are built by nesting: `FanoutSink(a, FanoutSink(b, c))`.
#[derive(Debug, Default)]
pub struct FanoutSink<A, B> {
    /// First downstream sink.
    pub first: A,
    /// Second downstream sink.
    pub second: B,
}

impl<A: AccessSink, B: AccessSink> FanoutSink<A, B> {
    /// Creates a fan-out over two sinks.
    pub fn new(first: A, second: B) -> Self {
        FanoutSink { first, second }
    }
}

impl<A: AccessSink, B: AccessSink> AccessSink for FanoutSink<A, B> {
    fn record(&mut self, r: MemRef) {
        self.first.record(r);
        self.second.record(r);
    }

    fn record_batch(&mut self, batch: &[MemRef]) {
        self.first.record_batch(batch);
        self.second.record_batch(batch);
    }

    fn record_runs(&mut self, runs: &[RefRun]) {
        self.first.record_runs(runs);
        self.second.record_runs(runs);
    }
}

impl<S: AccessSink + ?Sized> AccessSink for &mut S {
    fn record(&mut self, r: MemRef) {
        (**self).record(r);
    }

    fn record_batch(&mut self, batch: &[MemRef]) {
        (**self).record_batch(batch);
    }

    fn record_runs(&mut self, runs: &[RefRun]) {
        (**self).record_runs(runs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_decomposition_single_block() {
        let r = MemRef::app_read(Address::new(0), 4);
        assert_eq!(r.blocks(32).collect::<Vec<_>>(), vec![0]);
        let r = MemRef::app_read(Address::new(31), 1);
        assert_eq!(r.blocks(32).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn block_decomposition_straddles_boundary() {
        let r = MemRef::app_read(Address::new(31), 2);
        assert_eq!(r.blocks(32).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn block_decomposition_large_ref() {
        let r = MemRef::app_write(Address::new(64), 128);
        assert_eq!(r.blocks(32).collect::<Vec<_>>(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn counting_sink_tallies_by_class_and_kind() {
        let mut s = CountingSink::new();
        s.record(MemRef::app_read(Address::new(0), 4));
        s.record(MemRef::app_write(Address::new(0), 16));
        s.record(MemRef::meta_read(Address::new(0), 4));
        s.record(MemRef::meta_read(Address::new(8), 4));
        s.record(MemRef::meta_write(Address::new(8), 4));
        let t = s.stats();
        assert_eq!(t.app_reads, 1);
        assert_eq!(t.app_writes, 1);
        assert_eq!(t.meta_reads, 2);
        assert_eq!(t.meta_writes, 1);
        assert_eq!(t.app_bytes, 20);
        assert_eq!(t.meta_bytes, 12);
        assert_eq!(t.app_words, 5);
        assert_eq!(t.meta_words, 3);
        assert_eq!(t.total_words(), 8);
        assert_eq!(t.total_refs(), 5);
        assert_eq!(t.app_refs(), 2);
        assert_eq!(t.meta_refs(), 3);
    }

    #[test]
    fn fanout_reaches_both_sinks() {
        let mut f = FanoutSink::new(CountingSink::new(), VecSink::new());
        f.record(MemRef::meta_write(Address::new(4), 4));
        assert_eq!(f.first.stats().meta_writes, 1);
        assert_eq!(f.second.refs.len(), 1);
    }

    #[test]
    fn mut_ref_sink_forwards() {
        let mut v = VecSink::new();
        {
            let r: &mut VecSink = &mut v;
            r.record(MemRef::app_read(Address::new(0), 1));
        }
        assert_eq!(v.refs.len(), 1);
    }
}
