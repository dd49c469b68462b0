//! A populating run costs the disk its stream takes, not memory that
//! grows with the stream: the stream is encoded batch by batch as the
//! run generates it, never held whole. Its peak live heap above the
//! same run without a stream cache must stay within a small multiple of
//! the file it writes.
//!
//! The counting allocator sees every thread of the process, so this
//! binary holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use alloc_locality_repro::engine::{AllocChoice, Experiment, SimOptions};
use allocators::AllocatorKind;
use workloads::{Program, Scale};

/// Live heap bytes, and their peak since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes. A reallocation counts as
/// its change in size: what the program holds, not how the allocator
/// moves it.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its caller's arguments to `System`
// unchanged and returns what `System` returned, so `System`'s contract
// holds for the caller; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => shrank(layout.size() - new_size),
            }
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its output with the peak live bytes it reached
/// above the live bytes at entry.
fn peak_above_entry<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

#[test]
fn populating_costs_at_most_a_few_times_the_file_it_writes() {
    let dir = std::env::temp_dir().join(format!("alsc-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = SimOptions { scale: Scale(0.005), ..SimOptions::default() };
    let cell = |opts: SimOptions| {
        Experiment::new(Program::Espresso, AllocChoice::Paper(AllocatorKind::FirstFit))
            .options(opts)
    };

    let (plain, plain_peak) = peak_above_entry(|| cell(opts.clone()).run());
    let populating = cell(SimOptions { stream_cache: Some(dir.clone()), ..opts });
    let (stored, stored_peak) = peak_above_entry(|| populating.run());
    assert_eq!(stored.expect("populating run"), plain.expect("no-cache run"));

    let path = std::fs::read_dir(&dir)
        .expect("cache dir")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "alsc"))
        .expect("the run stored its stream");
    let file = std::fs::read(path).expect("read stream file");
    let mut pos = 16;
    let records = sim_mem::varint::take_u64(&file, &mut pos).expect("record count");
    assert!(records >= 400_000, "{records} records: too short a stream to show growth");

    let extra = stored_peak.saturating_sub(plain_peak);
    let bound = 4 * file.len() + (1 << 20);
    eprintln!(
        "no-cache peak {plain_peak} B, populating peak {stored_peak} B: {extra} B more for a \
         {} B file ({:.2}x)",
        file.len(),
        extra as f64 / file.len() as f64
    );
    assert!(extra < bound, "populating held {extra} B more than a no-cache run, bound {bound} B");
    let _ = std::fs::remove_dir_all(&dir);
}
