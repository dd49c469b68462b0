//! `ledger`: the repository's benchmark. Runs one workload for a fixed
//! time with one simulating thread, checks every output, and prints one
//! JSON result line — the end-to-end metrics, or with `--trace 1` the
//! per-layer ledger taken from spans around each public call. See
//! README.md for the workloads and metrics; `run.py` builds and runs
//! this binary.

mod common;
mod drive;
mod matrix;
mod replay;
mod serving;

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes currently allocated on the heap, and the most ever allocated at
/// once. Statistics only: they publish no other data, so `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes for `peak_heap_mb`. Unlike
/// the resident set, the peak of live bytes does not depend on how the
/// C allocator happens to reuse freed memory: stream-replay's resident
/// set landed on 42 or 57 MB across runs of one seed, its live peak does
/// not move.
struct Counting;

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(now, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters never touch
// the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        moved
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// The most bytes the process has had allocated at once, in MB.
fn peak_heap_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / f64::from(1u32 << 20)
}

fn main() -> ExitCode {
    let args = match common::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    // Caches left by an earlier run would answer this run's jobs.
    if std::fs::read_dir(&args.work_dir).is_ok_and(|mut dir| dir.next().is_some()) {
        eprintln!("ledger: --work-dir {} is not empty", args.work_dir.display());
        return ExitCode::from(2);
    }
    let outcome = match args.workload.as_str() {
        "matrix-cold" => matrix::run(&args),
        "stream-replay" => replay::run(&args),
        "serve-mixed" => serving::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match outcome {
        Ok(mut out) => {
            if !args.trace {
                out.metric("peak_heap_mb", peak_heap_mb(), "MB");
            }
            for problem in &out.problems {
                eprintln!("ledger: FAILED {problem}");
            }
            println!("{}", out.to_json());
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
