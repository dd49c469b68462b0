//! The stream cache costs disk, not memory. A populating run writes its
//! stream to a scratch file through a fixed buffer as the run generates
//! it, and a replay reads the records back in fixed-size chunks. So the
//! peak live heap of a populating run above the same run without a
//! stream cache, and the peak of a replay above its entry, are bounded
//! by constants that do not grow with the file. A recording
//! (`trace-tool record`) writes the same way, so it holds the same
//! constant above a run with no sinks.
//!
//! The counting allocator sees every thread of the process, so this
//! binary holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use alloc_locality_repro::engine::{AllocChoice, Experiment, SimOptions};
use allocators::AllocatorKind;
use cache_sim::CacheConfig;
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

/// What a populating run may hold above a no-cache run, or a recording
/// above a run with no sinks: the encoder's write buffer, the scratch
/// file and the sidecar, whatever the stream's length.
const POPULATING_BOUND: usize = 512 << 10;

#[test]
fn populating_and_replaying_hold_a_constant_not_the_file() {
    let dir = std::env::temp_dir().join(format!("alsc-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = SimOptions { scale: Scale(0.005), ..SimOptions::default() };
    let cell = |opts: SimOptions| {
        Experiment::new(Program::Espresso, AllocChoice::Paper(AllocatorKind::FirstFit))
            .options(opts)
    };

    let (plain, plain_peak) = peak_above_entry(|| cell(opts.clone()).run());
    let plain = plain.expect("no-cache run");
    let populating = cell(SimOptions { stream_cache: Some(dir.clone()), ..opts.clone() });
    let (stored, stored_peak) = peak_above_entry(|| populating.run());
    assert_eq!(stored.expect("populating run"), plain);

    let path = std::fs::read_dir(&dir)
        .expect("cache dir")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "alsc"))
        .expect("the run stored its stream");
    let file = std::fs::read(&path).expect("read stream file");
    // The record count opens the trailer, which the footer's first word
    // locates.
    let footer = file.len() - 24;
    let mut pos =
        u64::from_le_bytes(file[footer..footer + 8].try_into().expect("8 bytes")) as usize;
    let records = sim_mem::varint::take_u64(&file, &mut pos).expect("record count");
    assert!(records >= 400_000, "{records} records: too short a stream to show growth");
    let file_len = file.len();
    drop(file);

    let extra = stored_peak.saturating_sub(plain_peak);
    eprintln!(
        "no-cache peak {plain_peak} B, populating peak {stored_peak} B: {extra} B more for a \
         {file_len} B file"
    );
    assert!(
        extra < POPULATING_BOUND,
        "populating held {extra} B more than a no-cache run, bound {POPULATING_BOUND} B"
    );

    // Another geometry, so the stored result does not answer and the
    // records decode into the caches.
    let other = SimOptions {
        cache_configs: vec![CacheConfig::direct_mapped(16 * 1024, 64)],
        ..opts.clone()
    };
    let cold = cell(other.clone()).run().expect("no-cache run under the other geometry");
    let identity = std::fs::metadata(&path).and_then(|m| m.modified()).expect("mtime");
    let replaying = cell(SimOptions { stream_cache: Some(dir.clone()), ..other });
    let (replayed, replay_peak) = peak_above_entry(|| replaying.run());
    assert_eq!(replayed.expect("replay"), cold);
    let after = std::fs::metadata(&path).and_then(|m| m.modified()).expect("mtime");
    assert_eq!(after, identity, "the run regenerated the stream instead of replaying it");
    eprintln!("replay peak {replay_peak} B above entry for a {file_len} B file");
    assert!(
        replay_peak < file_len / 4,
        "a replay held {replay_peak} B, a quarter of the {file_len} B file is the bound"
    );

    // A recording of the same stream, against the same run feeding no
    // cache and no pager.
    let bare = SimOptions { cache_configs: Vec::new(), paging: false, ..opts };
    let (_, bare_peak) = peak_above_entry(|| cell(bare.clone()).run());
    let recording = dir.join("recording.alsc");
    let (recorded, record_peak) = peak_above_entry(|| bench::record(&cell(bare), &recording));
    assert_eq!(recorded.expect("recording"), plain.trace);
    let record_len = std::fs::metadata(&recording).expect("the recording exists").len();
    let extra = record_peak.saturating_sub(bare_peak);
    eprintln!(
        "sinkless peak {bare_peak} B, recording peak {record_peak} B: {extra} B more for a \
         {record_len} B file"
    );
    assert!(
        extra < POPULATING_BOUND,
        "recording held {extra} B more than a run with no sinks, bound {POPULATING_BOUND} B"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
