//! One cold run taken apart at its layer boundaries, from public APIs
//! only: the engine's `drive` loop (events through an allocator over a
//! batching `MemCtx`), and the sinks fed from the captured stream.
//! The traced mode times each piece and checks that the pieces
//! reassemble `Experiment::run`'s `RunResult` bit for bit.

use std::collections::HashMap;

use allocators::{AllocStats, AllocatorKind};
use sim_mem::{
    AccessSink, Address, CountingSink, HeapImage, InstrCounter, MemCtx, MemRef, Phase, RefRun,
};
use workloads::AppEvent;

/// What the `drive` loop leaves behind besides the reference stream.
#[derive(Debug, Clone)]
pub struct Driven {
    /// Instruction counts by phase.
    pub instrs: InstrCounter,
    /// Peak bytes obtained from the simulated operating system.
    pub heap_high_water: u64,
    /// The allocator's own statistics.
    pub alloc_stats: AllocStats,
}

/// Base address of the simulated stack segment, below the heap.
const STACK_BASE: u64 = 0x0800_0000;
/// Active stack window in bytes.
const STACK_SEGMENT_BYTES: u64 = 4096;
/// Words touched per emitted stack reference.
const STACK_RUN_WORDS: u64 = 8;

/// The engine's synthetic stack traffic: runs of words sweeping up and
/// down a small hot segment.
struct StackWalker {
    pos: u64,
    growing: bool,
}

impl StackWalker {
    fn touch(&mut self, words: u64, ctx: &mut MemCtx<'_>) {
        let mut remaining = words;
        while remaining > 0 {
            let run = remaining.min(STACK_RUN_WORDS);
            ctx.app_touch(Address::new(STACK_BASE + self.pos), (run * 4) as u32, self.growing);
            remaining -= run;
            if self.growing {
                self.pos += run * 4;
                if self.pos + STACK_RUN_WORDS * 4 > STACK_SEGMENT_BYTES {
                    self.growing = false;
                }
            } else {
                self.pos = self.pos.saturating_sub(run * 4);
                if self.pos == 0 {
                    self.growing = true;
                }
            }
        }
    }
}

/// Drives pre-generated `events` through a fresh `kind` allocator over
/// a batching `MemCtx` into `sink`, as `Experiment::run` does with the
/// default options.
pub fn drive(
    kind: AllocatorKind,
    events: &[AppEvent],
    sink: &mut dyn AccessSink,
) -> Result<Driven, String> {
    let mut heap = HeapImage::with_limit(sim_mem::heap::DEFAULT_LIMIT);
    let mut instrs = InstrCounter::new();
    let alloc_stats = {
        let mut ctx = MemCtx::batched(&mut heap, sink, &mut instrs);
        ctx.set_phase(Phase::Malloc);
        let mut allocator = kind.build(&mut ctx).map_err(|e| format!("build: {e}"))?;
        ctx.set_phase(Phase::App);
        let mut objects: HashMap<u64, Address> = HashMap::new();
        let mut stack = StackWalker { pos: 0, growing: true };
        for (n, event) in events.iter().enumerate() {
            match *event {
                AppEvent::Malloc { id, size, site } => {
                    ctx.set_phase(Phase::Malloc);
                    let addr = allocator
                        .malloc_at(size, site, &mut ctx)
                        .map_err(|e| format!("malloc at event {n}: {e}"))?;
                    ctx.set_phase(Phase::App);
                    objects.insert(id, addr);
                }
                AppEvent::Free { id } => {
                    let addr =
                        objects.remove(&id).ok_or_else(|| format!("free of dead id {id}"))?;
                    ctx.set_phase(Phase::Free);
                    allocator
                        .free(addr, &mut ctx)
                        .map_err(|e| format!("free at event {n}: {e}"))?;
                    ctx.set_phase(Phase::App);
                }
                AppEvent::Access { id, offset, len, write } => {
                    let addr = *objects.get(&id).ok_or_else(|| format!("touch of dead id {id}"))?;
                    ctx.app_touch(addr + u64::from(offset), len, write);
                }
                AppEvent::Compute { instrs } => ctx.ops(instrs),
                AppEvent::Stack { words } => stack.touch(words, &mut ctx),
            }
        }
        ctx.flush();
        *allocator.stats()
    };
    Ok(Driven { instrs, heap_high_water: heap.high_water(), alloc_stats })
}

/// A sink that keeps the run-compressed stream exactly as the engine's
/// sinks receive it, with the engine's counting fold beside it.
#[derive(Default)]
pub struct Capture {
    /// The counting fold every run carries.
    pub counting: CountingSink,
    /// The stream, batch boundaries included.
    pub runs: Vec<RefRun>,
}

impl AccessSink for Capture {
    fn record(&mut self, r: MemRef) {
        self.counting.record(r);
        self.runs.push(RefRun::once(r));
    }

    fn record_batch(&mut self, batch: &[MemRef]) {
        self.counting.record_batch(batch);
        self.runs.extend(batch.iter().map(|&r| RefRun::once(r)));
    }

    fn record_runs(&mut self, runs: &[RefRun]) {
        self.counting.record_runs(runs);
        self.runs.extend_from_slice(runs);
    }
}

/// References a run-compressed stream expands to.
pub fn refs_in(runs: &[RefRun]) -> u64 {
    runs.iter().map(|run| u64::from(run.count)).sum()
}

/// The per-lane metric of each paper allocator.
pub fn lane_metric(kind: AllocatorKind) -> &'static str {
    match kind {
        AllocatorKind::FirstFit => "allocators.first_fit_s",
        AllocatorKind::GnuGxx => "allocators.gnu_gxx_s",
        AllocatorKind::Bsd => "allocators.bsd_s",
        AllocatorKind::QuickFit => "allocators.quick_fit_s",
        AllocatorKind::GnuLocal => "allocators.gnu_local_s",
    }
}

/// The per-lane span name of each paper allocator.
pub fn lane(kind: AllocatorKind) -> &'static str {
    match kind {
        AllocatorKind::FirstFit => "allocators.first_fit",
        AllocatorKind::GnuGxx => "allocators.gnu_gxx",
        AllocatorKind::Bsd => "allocators.bsd",
        AllocatorKind::QuickFit => "allocators.quick_fit",
        AllocatorKind::GnuLocal => "allocators.gnu_local",
    }
}
