//! Failure-injection tests: allocators must degrade gracefully, not
//! corrupt state, when the simulated operating system refuses memory or
//! the caller misuses the API.

use alloc_locality_repro::engine::{AllocChoice, EngineError, EventFault, Experiment, SimOptions};
use allocators::{AllocError, Allocator, AllocatorKind};
use sim_mem::{Address, CountingSink, HeapImage, InstrCounter, MemCtx};
use workloads::{AppEvent, Program, Scale};

fn with_limited_heap<R>(limit: u64, f: impl FnOnce(&mut MemCtx<'_>) -> R) -> R {
    let mut heap = HeapImage::with_limit(limit);
    let mut sink = CountingSink::new();
    let mut instrs = InstrCounter::new();
    let mut ctx = MemCtx::new(&mut heap, &mut sink, &mut instrs);
    f(&mut ctx)
}

/// Exhaust the heap, verify the error, then free everything and verify
/// the allocator recovered and can serve again.
fn exhaust_and_recover(kind: AllocatorKind) {
    with_limited_heap(256 * 1024, |ctx| {
        let mut a = kind.build(ctx).expect("metadata fits");
        let mut live = Vec::new();
        let oom = loop {
            match a.malloc(1024, ctx) {
                Ok(p) => live.push(p),
                Err(e) => break e,
            }
            assert!(live.len() < 10_000, "{kind:?} never exhausted a 256K heap");
        };
        assert!(matches!(oom, AllocError::Oom(_)), "{kind:?}: expected Oom, got {oom}");
        assert!(!live.is_empty(), "{kind:?} allocated nothing before OOM");
        // The failed call must not have corrupted anything: free all and
        // allocate again from recycled memory.
        for p in live.drain(..) {
            a.free(p, ctx).unwrap_or_else(|e| panic!("{kind:?}: post-OOM free failed: {e}"));
        }
        assert_eq!(a.stats().live_objects(), 0);
        let p = a
            .malloc(1024, ctx)
            .unwrap_or_else(|e| panic!("{kind:?}: cannot allocate after recovery: {e}"));
        a.free(p, ctx).expect("free recovered block");
    });
}

#[test]
fn all_allocators_survive_heap_exhaustion() {
    for kind in AllocatorKind::ALL {
        exhaust_and_recover(kind);
    }
}

#[test]
fn engine_surfaces_oom_as_typed_error() {
    // Through the stream cache, which starts writing the stream to a
    // scratch file as the run generates it: the failed run must leave
    // neither a stream file nor the scratch file behind.
    let dir = std::env::temp_dir().join(format!("alsc-oom-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = SimOptions {
        heap_limit: 16 * 1024, // far below GS's multi-megabyte live set
        paging: false,
        cache_configs: vec![],
        scale: Scale(0.01),
        stream_cache: Some(dir.clone()),
        ..SimOptions::default()
    };
    let err = Experiment::new(Program::GsLarge, AllocChoice::Paper(AllocatorKind::Bsd))
        .options(opts)
        .run()
        .expect_err("16K heap cannot hold GS");
    let EngineError::Alloc { source, at_event } = err else {
        panic!("expected an allocator error, got {err}");
    };
    assert!(matches!(source, AllocError::Oom(_)));
    assert!(at_event > 0, "OOM should happen mid-run, not at setup");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("the populating run created the cache directory")
        .flatten()
        .map(|e| e.file_name())
        .collect();
    assert!(left.is_empty(), "the failed run left {left:?} in the stream cache");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stream_whose_rename_fails_is_a_missed_store() {
    // A non-empty directory stands where the cell's stream file goes:
    // opening it fails, so the run counts an invalid entry, and so does
    // the commit's rename, so the store is missed. Neither may change
    // the result or leave the scratch file behind.
    let dir = std::env::temp_dir().join(format!("alsc-rename-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = SimOptions {
        scale: Scale(0.002),
        stream_cache: Some(dir.clone()),
        ..SimOptions::default()
    };
    let exp = Experiment::new(Program::Make, AllocChoice::Paper(AllocatorKind::Bsd));
    let plain = exp.clone().options(SimOptions { stream_cache: None, ..opts.clone() }).run();
    let exp = exp.options(opts);
    exp.run().expect("populating run");
    let names = || -> Vec<String> {
        let entries = std::fs::read_dir(&dir).expect("the cache directory exists");
        entries.flatten().map(|e| e.file_name().to_string_lossy().into_owned()).collect()
    };
    let [name] = names().try_into().expect("one stream file");
    let stream = dir.join(&name);
    std::fs::remove_file(&stream).expect("remove the stream file");
    std::fs::create_dir(&stream).expect("a directory in its place");
    std::fs::write(stream.join("occupant"), b"keeps the directory non-empty").unwrap();

    let mut rec = obs::MemoryRecorder::new();
    let result = exp.run_with_recorder(&mut rec);
    assert_eq!(rec.counter("stream_cache.invalid"), 1);
    assert_eq!(rec.counter("stream_cache.store"), 1, "the store was attempted");
    assert_eq!(result, plain, "a missed store must not change the result");
    assert_eq!(names(), [name], "the scratch file must not outlive the failed rename");
    assert!(stream.is_dir(), "the rename must not have replaced the directory");
    let stats = sim_mem::StreamCache::new(&dir).stats();
    assert_eq!((stats.entries, stats.bytes), (0, 0), "a directory is no stream entry");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_event_streams_are_typed_errors() {
    // Ids are allocation ordinals and only live objects may be freed or
    // touched; a hand-built stream that breaks either rule is an
    // EngineError at the offending event, not a panic and not a run.
    let access = |id| AppEvent::Access { id, offset: 0, len: 4, write: false };
    let cases = [
        (
            vec![AppEvent::Malloc { id: 0, size: 16, site: 0 }, AppEvent::Free { id: 7 }],
            1,
            EventFault::FreeOfDead { id: 7 },
        ),
        (
            vec![
                AppEvent::Malloc { id: 0, size: 16, site: 0 },
                access(0),
                AppEvent::Free { id: 0 },
                access(0),
            ],
            3,
            EventFault::AccessOfDead { id: 0 },
        ),
        (
            vec![
                AppEvent::Malloc { id: 0, size: 16, site: 0 },
                AppEvent::Malloc { id: 2, size: 16, site: 0 },
            ],
            1,
            EventFault::MallocOutOfOrder { id: 2, expected: 1 },
        ),
    ];
    for (events, at, want) in cases {
        for kind in AllocatorKind::ALL {
            let err =
                Experiment::with_events("hand-built", events.clone(), AllocChoice::Paper(kind))
                    .run()
                    .expect_err("a malformed stream must not run");
            assert_eq!(err, EngineError::Event { at_event: at, fault: want }, "{kind:?}");
            assert!(err.to_string().contains(&format!("at event {at}")), "{err}");
        }
    }
}

#[test]
fn invalid_frees_are_reported_where_detectable() {
    with_limited_heap(1 << 20, |ctx| {
        for kind in AllocatorKind::ALL {
            let mut a = kind.build(ctx).expect("build");
            let p = a.malloc(64, ctx).expect("malloc");
            // Freeing an address that was never returned: each allocator
            // detects what its metadata allows; none may panic.
            let bogus = p + 1024 * 512;
            let _ = a.free(bogus, ctx);
            // The original block must still free cleanly afterwards.
            a.free(p, ctx).unwrap_or_else(|e| panic!("{kind:?}: live free failed: {e}"));
        }
    });
}

#[test]
fn double_free_detection_in_tagged_allocators() {
    with_limited_heap(1 << 20, |ctx| {
        for kind in [AllocatorKind::FirstFit, AllocatorKind::GnuGxx, AllocatorKind::Bsd] {
            let mut a = kind.build(ctx).expect("build");
            let p = a.malloc(48, ctx).expect("malloc");
            a.free(p, ctx).expect("first free");
            assert!(
                matches!(a.free(p, ctx), Err(AllocError::InvalidFree(_))),
                "{kind:?} should detect an immediate double free"
            );
        }
    });
}

#[test]
fn zero_and_huge_requests_behave() {
    with_limited_heap(64 << 20, |ctx| {
        for kind in AllocatorKind::ALL {
            let mut a = kind.build(ctx).expect("build");
            // malloc(0) returns a unique, freeable pointer.
            let z1 = a.malloc(0, ctx).expect("malloc(0)");
            let z2 = a.malloc(0, ctx).expect("malloc(0)");
            assert_ne!(z1, z2, "{kind:?}: malloc(0) must return unique pointers");
            a.free(z1, ctx).expect("free zero-size");
            a.free(z2, ctx).expect("free zero-size");
            // A multi-megabyte request either succeeds or reports.
            match a.malloc(8 << 20, ctx) {
                Ok(p) => a.free(p, ctx).expect("free huge"),
                Err(AllocError::Oom(_)) | Err(AllocError::Unsupported(_)) => {}
                Err(e) => panic!("{kind:?}: unexpected error {e}"),
            }
        }
    });
}

#[test]
fn oom_mid_structure_leaves_allocator_usable() {
    // Drive FirstFit to OOM during an extension (not just the first
    // sbrk), then verify the boundary-tag heap still walks clean.
    use allocators::layout::{list, TAG};
    use allocators::verify::check_tagged_heap;
    use allocators::FirstFit;

    with_limited_heap(64 * 1024, |ctx| {
        let mut ff = FirstFit::new(ctx).expect("metadata fits");
        let mut live = Vec::new();
        while let Ok(p) = ff.malloc(700, ctx) {
            live.push(p);
        }
        let start = ff.freelist_head() + list::SENTINEL_BYTES + TAG;
        check_tagged_heap(ctx, start).expect("heap clean after OOM");
        for p in live {
            ff.free(p, ctx).expect("free");
        }
        let walk = check_tagged_heap(ctx, start).expect("heap clean after drain");
        assert_eq!(walk.allocated_blocks, 0);
    });
}

#[test]
fn free_of_never_allocated_address_into_foreign_region() {
    // Address arithmetic attacks: pointers into allocator metadata must
    // not be accepted by the descriptor-driven allocator.
    with_limited_heap(1 << 20, |ctx| {
        let mut gl = AllocatorKind::GnuLocal.build(ctx).expect("build");
        let p = gl.malloc(32, ctx).expect("malloc");
        // Misaligned inside a fragment chunk.
        assert!(matches!(gl.free(p + 2, ctx), Err(AllocError::InvalidFree(_))));
        // Below the heap entirely.
        assert!(matches!(gl.free(Address::new(0x100), ctx), Err(AllocError::InvalidFree(_))));
        gl.free(p, ctx).expect("real free still works");
    });
}
