//! The memory context handed to allocator code.

use obs::Recorder;

use crate::{AccessSink, Address, HeapImage, InstrCounter, MemRef, OomError, Phase, RefRun, WORD};

/// Cost, in instructions, attributed to an `sbrk` call.
///
/// Growing the heap traps into the operating system; the paper's QP counts
/// include that user-visible overhead. The value is a small constant so
/// allocators that `sbrk` in large chunks (BSD, GNU Local) are rewarded,
/// matching the behaviour the paper describes.
pub const SBRK_COST: u64 = 40;

/// References accumulated by a batched [`MemCtx`] before one
/// [`AccessSink::record_runs`] call flushes them.
///
/// Large enough to amortize the virtual dispatch across thousands of
/// references; small enough that a batch stays well inside an L2 cache.
/// The count is of *references*, not runs: a batch holds at most this
/// many references however well they compress, so sink-visible flush
/// boundaries are unchanged by compression.
pub const BATCH_CAPACITY: usize = 4096;

/// The accessor through which allocator code touches the simulated heap.
///
/// `MemCtx` bundles the heap image, the reference sink, and the
/// instruction counter so that a metadata access is always three things at
/// once: a real read/write of the heap image, an emitted [`MemRef`], and a
/// charged instruction. Allocator implementations *cannot* touch memory
/// without leaving a trace, which is the property that makes the
/// simulation address- and cost-faithful.
///
/// # Example
///
/// ```
/// use sim_mem::{HeapImage, MemCtx, CountingSink, InstrCounter, Phase};
/// # fn main() -> Result<(), sim_mem::OomError> {
/// let mut heap = HeapImage::new();
/// let mut sink = CountingSink::new();
/// let mut instrs = InstrCounter::new();
/// let mut ctx = MemCtx::new(&mut heap, &mut sink, &mut instrs);
/// ctx.set_phase(Phase::Malloc);
/// let p = ctx.sbrk(16)?;
/// ctx.store(p, 42);
/// let v = ctx.load(p);
/// assert_eq!(v, 42);
/// assert_eq!(sink.stats().meta_reads, 1);
/// assert_eq!(sink.stats().meta_writes, 1);
/// # Ok(())
/// # }
/// ```
pub struct MemCtx<'a> {
    heap: &'a mut HeapImage,
    sink: &'a mut dyn AccessSink,
    instrs: &'a mut InstrCounter,
    /// Run-length compressed batch buffer; empty and never filled for
    /// unbatched contexts. Consecutive identical references collapse
    /// into one run on the way in, so a word-by-word revisit of one
    /// address costs the sinks O(1) instead of O(n).
    buf: Vec<RefRun>,
    /// References (not runs) currently buffered; flush at
    /// [`BATCH_CAPACITY`].
    buffered: usize,
    batched: bool,
    /// Metrics sink; `None` is the uninstrumented fast path (one
    /// predictable branch per instrumentation site). Recording never
    /// reads or writes simulated state, so results are bit-identical
    /// with or without it.
    recorder: Option<&'a mut dyn Recorder>,
}

impl std::fmt::Debug for MemCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemCtx")
            .field("heap", &self.heap)
            .field("instrs", &self.instrs)
            .finish_non_exhaustive()
    }
}

impl<'a> MemCtx<'a> {
    /// Creates a context over a heap, a sink, and an instruction counter.
    ///
    /// Every reference is delivered to the sink immediately, so sink
    /// state can be inspected at any point. For high-throughput paths
    /// use [`MemCtx::batched`].
    pub fn new(
        heap: &'a mut HeapImage,
        sink: &'a mut dyn AccessSink,
        instrs: &'a mut InstrCounter,
    ) -> Self {
        MemCtx { heap, sink, instrs, buf: Vec::new(), buffered: 0, batched: false, recorder: None }
    }

    /// Creates a *batching* context: references accumulate — run-length
    /// compressed — in a buffer of up to [`BATCH_CAPACITY`] references
    /// and reach the sink in program order through
    /// [`AccessSink::record_runs`], amortizing the per-reference virtual
    /// call (and, for channel-backed sinks, the send).
    ///
    /// The caller **must** call [`MemCtx::flush`] before reading sink
    /// state or dropping the context, or trailing references are lost.
    /// (There is deliberately no `Drop` impl: the buffer only matters on
    /// paths that already need an explicit synchronization point, and a
    /// `Drop` would extend borrows past the last use everywhere else.)
    pub fn batched(
        heap: &'a mut HeapImage,
        sink: &'a mut dyn AccessSink,
        instrs: &'a mut InstrCounter,
    ) -> Self {
        MemCtx {
            heap,
            sink,
            instrs,
            buf: Vec::with_capacity(BATCH_CAPACITY),
            buffered: 0,
            batched: true,
            recorder: None,
        }
    }

    /// Attaches a metrics recorder, consuming and returning the context
    /// (builder style, so the uninstrumented constructors keep their
    /// signatures). The recorder observes flush behaviour and whatever
    /// the allocator reports through [`MemCtx::obs_add`] /
    /// [`MemCtx::obs_observe`]; it never alters the reference stream.
    pub fn with_recorder(mut self, recorder: &'a mut dyn Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Whether an enabled recorder is attached. Instrumented code may
    /// use this to skip *computing* an expensive metric value, never to
    /// change simulated behaviour.
    #[inline]
    pub fn obs_enabled(&self) -> bool {
        self.recorder.as_ref().is_some_and(|r| r.enabled())
    }

    /// Adds `delta` to the counter `name` on the attached recorder, if
    /// any. One branch when none is attached.
    #[inline]
    pub fn obs_add(&mut self, name: &'static str, delta: u64) {
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.add(name, delta);
        }
    }

    /// Records `value` in the histogram `name` on the attached
    /// recorder, if any. One branch when none is attached.
    #[inline]
    pub fn obs_observe(&mut self, name: &'static str, value: u64) {
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.observe(name, value);
        }
    }

    /// Opens a hierarchical span `name` on the attached recorder, if
    /// any. Flat recorders ignore this; a [`obs::Tracer`] starts a
    /// child span. Must be balanced by [`MemCtx::obs_span_exit`].
    #[inline]
    pub fn obs_span_enter(&mut self, name: &'static str) {
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.span_enter(name);
        }
    }

    /// Closes the innermost span opened by [`MemCtx::obs_span_enter`].
    #[inline]
    pub fn obs_span_exit(&mut self) {
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.span_exit();
        }
    }

    /// Delivers any buffered references to the sink. A no-op for
    /// unbatched contexts.
    pub fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.obs_span_enter("ctx.flush");
            if let Some(rec) = self.recorder.as_deref_mut() {
                // Batch flushes and the RLE compression ratio: `refs`
                // over `runs` is how much the run compression saved the
                // sinks.
                rec.add("ctx.flush.batches", 1);
                rec.add("ctx.flush.runs", self.buf.len() as u64);
                rec.add("ctx.flush.refs", self.buffered as u64);
            }
            self.sink.record_runs(&self.buf);
            self.buf.clear();
            self.buffered = 0;
            self.obs_span_exit();
        }
    }

    /// Routes one reference: straight through for unbatched contexts,
    /// into the run-compressed batch buffer (flushing once
    /// [`BATCH_CAPACITY`] references are held) otherwise.
    #[inline]
    fn emit(&mut self, r: MemRef) {
        if self.batched {
            match self.buf.last_mut() {
                Some(last) if last.r == r && last.count < u32::MAX => last.count += 1,
                _ => self.buf.push(RefRun::once(r)),
            }
            self.buffered += 1;
            if self.buffered >= BATCH_CAPACITY {
                self.flush();
            }
        } else {
            self.sink.record(r);
        }
    }

    /// Switches the phase instructions are charged to.
    pub fn set_phase(&mut self, phase: Phase) {
        self.instrs.set_phase(phase);
    }

    /// Loads a metadata word: reads the heap image, emits a word-sized
    /// metadata read, charges one instruction.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the heap segment (an allocator bug).
    pub fn load(&mut self, addr: Address) -> u32 {
        self.instrs.add(1);
        self.emit(MemRef::meta_read(addr, WORD as u32));
        self.heap.read_u32(addr)
    }

    /// Stores a metadata word: writes the heap image, emits a word-sized
    /// metadata write, charges one instruction.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the heap segment (an allocator bug).
    pub fn store(&mut self, addr: Address, value: u32) {
        self.instrs.add(1);
        self.emit(MemRef::meta_write(addr, WORD as u32));
        self.heap.write_u32(addr, value);
    }

    /// Charges `n` register-only instructions (arithmetic, compares,
    /// branches) to the current phase without touching memory.
    pub fn ops(&mut self, n: u64) {
        self.instrs.add(n);
    }

    /// Emits a metadata reference without reading the image or charging an
    /// instruction. Used for *emulated* overheads — e.g. the boundary-tag
    /// cache-pollution experiment of Table 6, where extra words are touched
    /// but carry no live data.
    pub fn touch_meta(&mut self, r: MemRef) {
        self.emit(r);
    }

    /// Emits an application-data reference of `len` bytes at `addr`,
    /// charging one load/store instruction per word touched (the paper
    /// assumes "all instructions, including loads and stores, complete in
    /// a single machine cycle").
    pub fn app_touch(&mut self, addr: Address, len: u32, write: bool) {
        let len = len.max(1);
        self.instrs.add(u64::from(len.div_ceil(WORD as u32)));
        let r = if write { MemRef::app_write(addr, len) } else { MemRef::app_read(addr, len) };
        self.emit(r);
    }

    /// Grows the heap, charging [`SBRK_COST`] instructions.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if the heap limit would be exceeded.
    pub fn sbrk(&mut self, amount: u64) -> Result<Address, OomError> {
        self.instrs.add(SBRK_COST);
        self.heap.sbrk(amount)
    }

    /// Read-only view of the heap image (no trace emitted); for
    /// consistency checks and assertions only.
    pub fn heap(&self) -> &HeapImage {
        self.heap
    }

    /// Peeks at a word without tracing or charging instructions.
    ///
    /// Only for debug assertions and invariant checkers; production
    /// allocator paths must use [`Self::load`].
    pub fn peek(&self, addr: Address) -> u32 {
        self.heap.read_u32(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CountingSink, VecSink};

    fn fixture() -> (HeapImage, CountingSink, InstrCounter) {
        (HeapImage::new(), CountingSink::new(), InstrCounter::new())
    }

    #[test]
    fn load_store_trace_and_charge() {
        let (mut heap, mut sink, mut instrs) = fixture();
        let mut ctx = MemCtx::new(&mut heap, &mut sink, &mut instrs);
        ctx.set_phase(Phase::Malloc);
        let p = ctx.sbrk(8).unwrap();
        ctx.store(p, 9);
        assert_eq!(ctx.load(p), 9);
        assert_eq!(instrs.phase_total(Phase::Malloc), SBRK_COST + 2);
        assert_eq!(sink.stats().meta_writes, 1);
        assert_eq!(sink.stats().meta_reads, 1);
    }

    #[test]
    fn ops_charge_without_refs() {
        let (mut heap, mut sink, mut instrs) = fixture();
        let mut ctx = MemCtx::new(&mut heap, &mut sink, &mut instrs);
        ctx.ops(17);
        assert_eq!(instrs.total(), 17);
        assert_eq!(sink.stats().total_refs(), 0);
    }

    #[test]
    fn touch_meta_traces_without_instructions() {
        let mut heap = HeapImage::new();
        let mut sink = VecSink::new();
        let mut instrs = InstrCounter::new();
        let mut ctx = MemCtx::new(&mut heap, &mut sink, &mut instrs);
        ctx.touch_meta(MemRef::meta_write(Address::new(0x2000_0000), 8));
        assert_eq!(instrs.total(), 0);
        assert_eq!(sink.refs.len(), 1);
        assert_eq!(sink.refs[0].size, 8);
    }

    #[test]
    fn batched_ctx_delivers_on_flush() {
        let (mut heap, mut sink, mut instrs) = fixture();
        let mut ctx = MemCtx::batched(&mut heap, &mut sink, &mut instrs);
        let p = ctx.sbrk(64).unwrap();
        ctx.store(p, 1);
        assert_eq!(ctx.load(p), 1, "heap state is live even while refs are buffered");
        ctx.app_touch(p, 16, true);
        ctx.flush();
        assert_eq!(sink.stats().meta_writes, 1);
        assert_eq!(sink.stats().meta_reads, 1);
        assert_eq!(sink.stats().app_writes, 1);
    }

    #[test]
    fn batched_ctx_flushes_at_capacity() {
        let (mut heap, mut sink, mut instrs) = fixture();
        let p = {
            let mut ctx = MemCtx::batched(&mut heap, &mut sink, &mut instrs);
            let p = ctx.sbrk(8).unwrap();
            for _ in 0..BATCH_CAPACITY {
                ctx.store(p, 7);
            }
            // No explicit flush: the capacity'th store triggered one.
            p
        };
        assert_eq!(sink.stats().meta_writes, BATCH_CAPACITY as u64);
        {
            // A buffered store left unflushed never reaches the sink.
            let mut ctx = MemCtx::batched(&mut heap, &mut sink, &mut instrs);
            ctx.store(p, 8);
        }
        assert_eq!(sink.stats().meta_writes, BATCH_CAPACITY as u64);
        {
            let mut ctx = MemCtx::batched(&mut heap, &mut sink, &mut instrs);
            ctx.store(p, 9);
            ctx.flush();
        }
        assert_eq!(sink.stats().meta_writes, BATCH_CAPACITY as u64 + 1);
    }

    #[test]
    fn recorder_sees_flush_counters_and_custom_metrics() {
        let (mut heap, mut sink, mut instrs) = fixture();
        let mut rec = obs::MemoryRecorder::new();
        {
            let mut ctx =
                MemCtx::batched(&mut heap, &mut sink, &mut instrs).with_recorder(&mut rec);
            assert!(ctx.obs_enabled());
            let p = ctx.sbrk(8).unwrap();
            for _ in 0..10 {
                ctx.store(p, 7);
            }
            ctx.obs_add("alloc.splits", 2);
            ctx.obs_observe("alloc.search_len", 5);
            ctx.flush();
        }
        // Ten identical stores compress into one run in one batch.
        assert_eq!(rec.counter("ctx.flush.batches"), 1);
        assert_eq!(rec.counter("ctx.flush.refs"), 10);
        assert_eq!(rec.counter("ctx.flush.runs"), 1);
        assert_eq!(rec.counter("alloc.splits"), 2);
        let h = rec.histogram("alloc.search_len").unwrap();
        assert_eq!((h.count(), h.sum()), (1, 5));
        // Sink behaviour is untouched by the recorder.
        assert_eq!(sink.stats().meta_writes, 10);
    }

    #[test]
    fn unrecorded_ctx_reports_obs_disabled() {
        let (mut heap, mut sink, mut instrs) = fixture();
        let mut ctx = MemCtx::batched(&mut heap, &mut sink, &mut instrs);
        assert!(!ctx.obs_enabled());
        ctx.obs_add("ignored", 1);
        ctx.obs_observe("ignored_h", 1);
    }

    #[test]
    fn peek_is_invisible() {
        let (mut heap, mut sink, mut instrs) = fixture();
        let mut ctx = MemCtx::new(&mut heap, &mut sink, &mut instrs);
        let p = ctx.sbrk(8).unwrap();
        ctx.store(p, 3);
        let before_refs = sink.stats().total_refs();
        // Re-borrow to peek.
        let ctx = MemCtx::new(&mut heap, &mut sink, &mut instrs);
        assert_eq!(ctx.peek(p), 3);
        assert_eq!(ctx.heap().in_use(), 8);
        let _ = ctx;
        assert_eq!(sink.stats().total_refs(), before_refs);
    }
}
