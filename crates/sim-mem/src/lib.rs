//! Simulated heap address space, memory-reference tracing, and
//! instruction-cost accounting.
//!
//! This crate is the substrate on which the PLDI 1993 reproduction is built.
//! The paper ("Improving the Cache Locality of Memory Allocation", Grunwald,
//! Zorn & Henderson) instrumented real C programs with PIXIE and fed every
//! data reference to a cache simulator. Here the same structure is recreated
//! in-process:
//!
//! * [`HeapImage`] models the program's heap segment: a flat, byte-addressed
//!   region grown with [`HeapImage::sbrk`], with real backing storage so
//!   allocators can keep their metadata (freelist links, boundary tags,
//!   chunk headers) *inside* the simulated heap at the same addresses a C
//!   implementation would use.
//! * [`MemRef`] is one observed data reference; [`AccessSink`] is the
//!   consumer interface implemented by the cache and paging simulators.
//! * [`MemCtx`] is the accessor handed to allocator code. Every metadata
//!   load/store performed through it emits an address-faithful [`MemRef`]
//!   and charges instructions to the current [`Phase`], so the reference
//!   trace and the instruction counts can never drift apart from the
//!   allocator logic.
//!
//! # Example
//!
//! ```
//! use sim_mem::{Address, HeapImage, MemCtx, NullSink, InstrCounter, Phase};
//!
//! # fn main() -> Result<(), sim_mem::OomError> {
//! let mut heap = HeapImage::new();
//! let mut sink = NullSink;
//! let mut instrs = InstrCounter::new();
//! let mut ctx = MemCtx::new(&mut heap, &mut sink, &mut instrs);
//! ctx.set_phase(Phase::Malloc);
//! let block = ctx.sbrk(64)?;
//! ctx.store(block, 0xdead_beef);
//! assert_eq!(ctx.load(block), 0xdead_beef);
//! # Ok(())
//! # }
//! ```

pub mod access;
pub mod addr;
pub mod cost;
pub mod ctx;
pub mod heap;
pub mod stream;
pub mod varint;

pub use access::{
    AccessClass, AccessKind, CountingSink, MemRef, NullSink, RefRun, TraceStats, VecSink,
};
pub use addr::{Address, WORD};
pub use cost::{InstrCounter, Phase};
pub use ctx::{MemCtx, BATCH_CAPACITY};
pub use heap::{HeapImage, OomError};
pub use stream::{
    checksum, decode_sidecar, decode_stream, encode_stream, AtomicFile, CacheStats, Checksum,
    DecodedStream, Fnv64, StreamCache, StreamEncoder, StreamError, StreamReader,
    STREAM_FORMAT_VERSION, STREAM_MAGIC,
};

/// The trait implemented by every consumer of the simulated reference
/// stream (cache simulators, paging simulators, statistics collectors).
///
/// Implementations must be prepared for references of arbitrary byte size;
/// a single [`MemRef`] may span several cache blocks or pages.
pub trait AccessSink {
    /// Observe one data reference.
    fn record(&mut self, r: MemRef);

    /// Observe a batch of references, in program order.
    ///
    /// The default forwards to [`AccessSink::record`] one reference at a
    /// time, so batching is purely an amortization of the virtual
    /// dispatch: any sink must produce *identical* state whether a stream
    /// arrives reference-by-reference or chopped into batches at
    /// arbitrary boundaries. Implementations may override this to hoist
    /// per-call work out of the loop, but must preserve that
    /// equivalence. [`MemCtx`] delivers through
    /// [`AccessSink::record_runs`], which reaches this method only through
    /// its default expansion.
    fn record_batch(&mut self, batch: &[MemRef]) {
        for &r in batch {
            self.record(r);
        }
    }

    /// Observe a run-length compressed batch: each [`RefRun`] stands for
    /// `count` consecutive occurrences of the identical reference.
    ///
    /// Runs are a *lossless* re-encoding of the stream — expanding every
    /// run in order reproduces the raw reference sequence exactly — so
    /// the default implementation does precisely that and delegates to
    /// [`AccessSink::record_batch`], preserving any batch override. The
    /// expansion goes through one buffer of at most [`BATCH_CAPACITY`]
    /// references, handed on each time it fills, so memory does not grow
    /// with the repeat counts (batch boundaries are invisible to a sink).
    /// Sinks for which a repeated reference is a guaranteed hit (a
    /// direct-mapped cache, the LRU pager) override this to turn the
    /// `count - 1` repeats into O(1) counter bumps; such overrides must
    /// keep the sink state bit-identical to the expanded stream, for
    /// any placement of run and batch boundaries.
    fn record_runs(&mut self, runs: &[RefRun]) {
        let total: u64 = runs.iter().map(|run| u64::from(run.count)).sum();
        let mut buf = Vec::with_capacity(total.min(BATCH_CAPACITY as u64) as usize);
        for run in runs {
            let mut left = run.count as usize;
            while left > 0 {
                let take = left.min(BATCH_CAPACITY - buf.len());
                buf.resize(buf.len() + take, run.r);
                left -= take;
                if buf.len() == BATCH_CAPACITY {
                    self.record_batch(&buf);
                    buf.clear();
                }
            }
        }
        if !buf.is_empty() {
            self.record_batch(&buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keeps the length of each batch it receives and the first eight
    /// references.
    #[derive(Default)]
    struct BatchProbe {
        batches: Vec<usize>,
        refs: Vec<MemRef>,
    }

    impl AccessSink for BatchProbe {
        fn record(&mut self, r: MemRef) {
            self.record_batch(&[r]);
        }

        fn record_batch(&mut self, batch: &[MemRef]) {
            self.batches.push(batch.len());
            if self.refs.len() < 8 {
                self.refs.extend_from_slice(batch);
                self.refs.truncate(8);
            }
        }
    }

    #[test]
    fn default_run_delivery_expands_in_bounded_batches() {
        let a = MemRef::app_read(Address::new(64), 4);
        let b = MemRef::meta_write(Address::new(128), 8);
        let mut probe = BatchProbe::default();
        probe.record_runs(&[RefRun::once(b), RefRun { r: a, count: 1 << 20 }, RefRun::once(b)]);
        let total: usize = probe.batches.iter().sum();
        assert_eq!(total, (1 << 20) + 2);
        assert!(probe.batches.iter().all(|&n| (1..=BATCH_CAPACITY).contains(&n)));
        assert!(probe.batches[..probe.batches.len() - 1].iter().all(|&n| n == BATCH_CAPACITY));
        assert_eq!(probe.refs[..3], [b, a, a]);
    }
}
