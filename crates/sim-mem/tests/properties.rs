//! Property tests for the memory substrate.

use proptest::prelude::*;
use proptest::sample::Index;

use sim_mem::heap::round_up_word;
use sim_mem::{
    AccessSink, Address, CountingSink, HeapImage, InstrCounter, MemCtx, MemRef, Phase, RefRun,
    VecSink,
};

/// Collects run-compressed batches exactly as delivered, counting flush
/// boundaries.
#[derive(Default)]
struct RunSink {
    runs: Vec<RefRun>,
    flushes: usize,
}

impl AccessSink for RunSink {
    fn record(&mut self, r: MemRef) {
        self.runs.push(RefRun::once(r));
    }

    fn record_batch(&mut self, batch: &[MemRef]) {
        self.runs.extend(batch.iter().map(|&r| RefRun::once(r)));
    }

    fn record_runs(&mut self, runs: &[RefRun]) {
        self.runs.extend_from_slice(runs);
        self.flushes += 1;
    }
}

/// Expands a run-compressed stream back into raw references.
fn expand(runs: &[RefRun]) -> Vec<MemRef> {
    let mut refs = Vec::new();
    for run in runs {
        for _ in 0..run.count {
            refs.push(run.r);
        }
    }
    refs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Word rounding: result is a multiple of 4, at least the input, and
    /// less than input + 4.
    #[test]
    fn round_up_word_properties(n in 0u64..1 << 40) {
        let r = round_up_word(n);
        prop_assert_eq!(r % 4, 0);
        prop_assert!(r >= n);
        prop_assert!(r < n + 4);
    }

    /// sbrk hands out disjoint, contiguous, monotonically increasing
    /// regions, and high-water tracking equals the sum of grants.
    #[test]
    fn sbrk_regions_tile(sizes in proptest::collection::vec(1u64..10_000, 1..50)) {
        let mut heap = HeapImage::new();
        let mut expected_start = heap.base();
        let mut total = 0;
        for &s in &sizes {
            let p = heap.sbrk(s).expect("below limit");
            prop_assert_eq!(p, expected_start);
            expected_start = p + round_up_word(s);
            total += round_up_word(s);
        }
        prop_assert_eq!(heap.in_use(), total);
        prop_assert_eq!(heap.high_water(), total);
    }

    /// Stored words read back exactly, independent of write order.
    #[test]
    fn words_round_trip(
        writes in proptest::collection::vec((0u64..1000, any::<u32>()), 1..100),
    ) {
        let mut heap = HeapImage::new();
        let base = heap.sbrk(4000).expect("small");
        let mut model = std::collections::HashMap::new();
        for &(slot, value) in &writes {
            heap.write_u32(base + slot * 4, value);
            model.insert(slot, value);
        }
        for (&slot, &value) in &model {
            prop_assert_eq!(heap.read_u32(base + slot * 4), value);
        }
    }

    /// MemCtx bookkeeping: instruction counts and reference counts both
    /// equal the number of operations issued, attributed to the right
    /// phase.
    #[test]
    fn ctx_accounting_balances(
        loads in 0u64..200,
        stores in 0u64..200,
        ops in 0u64..1000,
    ) {
        let mut heap = HeapImage::new();
        let mut sink = CountingSink::new();
        let mut instrs = InstrCounter::new();
        let mut ctx = MemCtx::new(&mut heap, &mut sink, &mut instrs);
        let p = ctx.sbrk(4096).expect("small");
        ctx.set_phase(Phase::Malloc);
        for i in 0..stores {
            ctx.store(p + (i % 1024) * 4, i as u32);
        }
        for i in 0..loads {
            ctx.load(p + (i % 1024) * 4);
        }
        ctx.ops(ops);
        prop_assert_eq!(sink.stats().meta_reads, loads);
        prop_assert_eq!(sink.stats().meta_writes, stores);
        prop_assert_eq!(
            instrs.phase_total(Phase::Malloc),
            loads + stores + ops
        );
        prop_assert_eq!(instrs.phase_total(Phase::App), sim_mem::ctx::SBRK_COST);
    }

    /// A batching context, once flushed, delivers exactly the reference
    /// stream an unbatched context does — same records, same order —
    /// and charges identical instruction counts.
    #[test]
    fn batched_ctx_is_equivalent_to_unbatched(
        ops in proptest::collection::vec(
            (0u64..1024, any::<u32>(), 0u8..4),
            1..600,
        ),
    ) {
        let run = |batched: bool| {
            let mut heap = HeapImage::new();
            let mut sink = VecSink::new();
            let mut instrs = InstrCounter::new();
            let mut ctx = if batched {
                MemCtx::batched(&mut heap, &mut sink, &mut instrs)
            } else {
                MemCtx::new(&mut heap, &mut sink, &mut instrs)
            };
            let p = ctx.sbrk(4096).expect("small");
            ctx.set_phase(Phase::Malloc);
            for &(slot, value, op) in &ops {
                match op {
                    0 => ctx.store(p + (slot % 1024) * 4, value),
                    1 => {
                        ctx.load(p + (slot % 1024) * 4);
                    }
                    2 => ctx.app_touch(Address::new(slot * 4), value % 4096 + 1, value % 2 == 0),
                    _ => ctx.ops(u64::from(value % 16)),
                }
            }
            ctx.flush();
            (sink.refs, instrs.total())
        };
        let (plain_refs, plain_instrs) = run(false);
        let (batch_refs, batch_instrs) = run(true);
        prop_assert_eq!(plain_refs, batch_refs);
        prop_assert_eq!(plain_instrs, batch_instrs);
    }

    /// app_touch charges one instruction per word and records one
    /// application reference of the right size.
    #[test]
    fn app_touch_charges_per_word(len in 1u32..100_000, write: bool) {
        let mut heap = HeapImage::new();
        let mut sink = CountingSink::new();
        let mut instrs = InstrCounter::new();
        let mut ctx = MemCtx::new(&mut heap, &mut sink, &mut instrs);
        ctx.app_touch(Address::new(0x100), len, write);
        prop_assert_eq!(instrs.total(), u64::from(len.div_ceil(4)));
        prop_assert_eq!(sink.stats().app_refs(), 1);
        prop_assert_eq!(sink.stats().app_bytes, u64::from(len));
        if write {
            prop_assert_eq!(sink.stats().app_writes, 1);
        } else {
            prop_assert_eq!(sink.stats().app_reads, 1);
        }
    }

    /// Run-length compression is lossless: the run-compressed batches a
    /// batching context flushes expand to exactly the reference stream
    /// an unbatched context records — same records, same order — and
    /// identical counting statistics. A fixed hot tail longer than
    /// [`sim_mem::BATCH_CAPACITY`] guarantees every case includes a run
    /// straddling a flush boundary.
    #[test]
    fn run_compression_is_lossless_across_batches(
        ops in proptest::collection::vec(
            (0u64..512, any::<u32>(), 0u8..3, 1u32..24),
            1..150,
        ),
    ) {
        let hot_tail = sim_mem::BATCH_CAPACITY as u32 + 100;
        let drive = |ctx: &mut MemCtx<'_>| {
            let p = ctx.sbrk(4096).expect("small");
            ctx.set_phase(Phase::Malloc);
            for &(slot, value, op, reps) in &ops {
                for _ in 0..reps {
                    match op {
                        0 => ctx.store(p + (slot % 1024) * 4, value),
                        1 => {
                            ctx.load(p + (slot % 1024) * 4);
                        }
                        _ => ctx.app_touch(
                            Address::new(slot * 4),
                            value % 4096 + 1,
                            value % 2 == 0,
                        ),
                    }
                }
            }
            // Repeats of one identical reference across > one full batch.
            for _ in 0..hot_tail {
                ctx.store(p, 7);
            }
            ctx.flush();
        };

        let mut heap = HeapImage::new();
        let mut raw = VecSink::new();
        let mut instrs = InstrCounter::new();
        drive(&mut MemCtx::new(&mut heap, &mut raw, &mut instrs));

        let mut heap = HeapImage::new();
        let mut compressed = RunSink::default();
        let mut instrs_batched = InstrCounter::new();
        drive(&mut MemCtx::batched(&mut heap, &mut compressed, &mut instrs_batched));

        prop_assert!(compressed.flushes >= 2, "hot tail must straddle a flush");
        prop_assert!(compressed.runs.len() < raw.refs.len(), "the tail must compress");
        prop_assert_eq!(expand(&compressed.runs), raw.refs);
        prop_assert_eq!(instrs_batched.total(), instrs.total());
    }

    /// Run delivery into a counting sink multiplies instead of
    /// expanding, with identical statistics.
    #[test]
    fn counting_sink_run_delivery_multiplies(
        runs in proptest::collection::vec(
            (0u64..1 << 20, 1u32..300, 1u32..40, any::<bool>(), any::<bool>()),
            1..100,
        ),
    ) {
        let runs: Vec<RefRun> = runs
            .iter()
            .map(|&(addr, len, count, meta, write)| {
                let a = Address::new(addr);
                let r = match (meta, write) {
                    (false, false) => MemRef::app_read(a, len),
                    (false, true) => MemRef::app_write(a, len),
                    (true, false) => MemRef::meta_read(a, len),
                    (true, true) => MemRef::meta_write(a, len),
                };
                RefRun { r, count }
            })
            .collect();

        let mut direct = CountingSink::new();
        direct.record_runs(&runs);
        let mut expanded = CountingSink::new();
        for r in expand(&runs) {
            expanded.record(r);
        }
        prop_assert_eq!(direct.stats(), expanded.stats());
    }

    /// ALSC encode/decode round-trips any reference stream losslessly:
    /// the decoded runs expand to exactly the encoded stream (the codec
    /// may merge adjacent identical runs), and the sidecar comes back
    /// verbatim.
    #[test]
    fn stream_codec_round_trips(
        raw_runs in proptest::collection::vec(
            (0u64..1 << 44, 1u32..10_000, 1u32..1 << 16, any::<bool>(), any::<bool>()),
            0..200,
        ),
        sidecar in proptest::collection::vec(any::<u8>(), 0..256),
        key: u64,
    ) {
        let runs: Vec<RefRun> = raw_runs
            .iter()
            .map(|&(addr, len, count, meta, write)| {
                let a = Address::new(addr);
                let r = match (meta, write) {
                    (false, false) => MemRef::app_read(a, len),
                    (false, true) => MemRef::app_write(a, len),
                    (true, false) => MemRef::meta_read(a, len),
                    (true, true) => MemRef::meta_write(a, len),
                };
                RefRun { r, count }
            })
            .collect();
        let bytes = sim_mem::encode_stream(key, &sidecar, &runs);
        let decoded = sim_mem::decode_stream(&bytes, key).expect("round trip");
        prop_assert_eq!(decoded.sidecar, sidecar);
        prop_assert_eq!(expand(&decoded.runs), expand(&runs));
    }

    /// Maximal-length runs survive the codec, including merges whose
    /// combined count exceeds `u32::MAX` and must split into saturated
    /// records.
    #[test]
    fn stream_codec_handles_maximal_runs(
        counts in proptest::collection::vec(
            prop_oneof![Just(u32::MAX), Just(u32::MAX - 1), 1u32..1 << 20],
            1..12,
        ),
    ) {
        let r = MemRef::app_read(Address::new(0x4000), 4);
        let runs: Vec<RefRun> = counts.iter().map(|&count| RefRun { r, count }).collect();
        let bytes = sim_mem::encode_stream(1, b"", &runs);
        let decoded = sim_mem::decode_stream(&bytes, 1).expect("round trip");
        let want: u64 = counts.iter().map(|&c| u64::from(c)).sum();
        let got: u64 = decoded.runs.iter().map(|run| u64::from(run.count)).sum();
        prop_assert_eq!(got, want);
        for run in &decoded.runs {
            prop_assert_eq!(run.r, r);
        }
    }

    /// A batched MemCtx stream — whose runs straddle flush boundaries at
    /// [`sim_mem::BATCH_CAPACITY`] — round-trips through the codec to
    /// exactly the raw reference sequence an unbatched context records.
    #[test]
    fn stream_codec_round_trips_batched_capture(
        ops in proptest::collection::vec(
            (0u64..512, any::<u32>(), 0u8..3),
            1..80,
        ),
    ) {
        let hot_tail = sim_mem::BATCH_CAPACITY as u32 + 50;
        let drive = |ctx: &mut MemCtx<'_>| {
            let p = ctx.sbrk(4096).expect("small");
            ctx.set_phase(Phase::Malloc);
            for &(slot, value, op) in &ops {
                match op {
                    0 => ctx.store(p + (slot % 1024) * 4, value),
                    1 => {
                        ctx.load(p + (slot % 1024) * 4);
                    }
                    _ => ctx.app_touch(Address::new(slot * 4), value % 4096 + 1, value % 2 == 0),
                }
            }
            for _ in 0..hot_tail {
                ctx.store(p, 7);
            }
            ctx.flush();
        };

        let mut heap = HeapImage::new();
        let mut raw = VecSink::new();
        let mut instrs = InstrCounter::new();
        drive(&mut MemCtx::new(&mut heap, &mut raw, &mut instrs));

        let mut heap = HeapImage::new();
        let mut captured = RunSink::default();
        let mut instrs_batched = InstrCounter::new();
        drive(&mut MemCtx::batched(&mut heap, &mut captured, &mut instrs_batched));
        prop_assert!(captured.flushes >= 2, "hot tail must straddle a flush");

        let bytes = sim_mem::encode_stream(99, b"{}", &captured.runs);
        let decoded = sim_mem::decode_stream(&bytes, 99).expect("round trip");
        prop_assert!(
            decoded.runs.len() <= captured.runs.len(),
            "codec never expands the run stream"
        );
        prop_assert_eq!(expand(&decoded.runs), raw.refs);
    }

    /// Block decomposition covers the byte range exactly once.
    #[test]
    fn block_decomposition_covers(addr in 0u64..1 << 30, size in 1u32..10_000) {
        let r = MemRef::app_read(Address::new(addr), size);
        let blocks: Vec<u64> = r.blocks(32).collect();
        // Contiguous ascending blocks.
        for w in blocks.windows(2) {
            prop_assert_eq!(w[1], w[0] + 1);
        }
        prop_assert_eq!(blocks.first().copied().expect("nonempty"), addr / 32);
        prop_assert_eq!(
            blocks.last().copied().expect("nonempty"),
            (addr + u64::from(size) - 1) / 32
        );
    }
}

/// Hand-built ALSC files for the decoder suite: the same layout
/// `encode_stream` writes, assembled from parts a test can damage
/// before [`Alsc::seal`] recomputes the checksum — so the damage gets
/// past the checksum and reaches the record decoder.
mod alsc {
    use sim_mem::stream::checksum;
    use sim_mem::varint::{write_u64, zigzag};
    use sim_mem::{AccessClass, AccessKind, RefRun, STREAM_FORMAT_VERSION, STREAM_MAGIC};

    pub const KEY: u64 = 0x5eed;
    pub const FLAG_SIZED: u8 = 1 << 2;
    pub const FLAG_REPEATED: u8 = 1 << 3;

    pub fn varint(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        write_u64(&mut out, v).expect("vec write");
        out
    }

    /// One run record, field by field (each field's varint bytes, empty
    /// when the flags leave it out).
    #[derive(Debug, Clone)]
    pub struct Record {
        pub flags: u8,
        pub delta: Vec<u8>,
        pub size: Vec<u8>,
        pub count: Vec<u8>,
    }

    /// A whole file before sealing.
    #[derive(Debug, Clone)]
    pub struct Alsc {
        pub run_count: u64,
        pub ref_count: u64,
        pub sidecar: Vec<u8>,
        pub records: Vec<Record>,
        pub trailing: Vec<u8>,
    }

    impl Alsc {
        /// The unmerged encoding of `runs`: one record per run.
        pub fn of(runs: &[RefRun]) -> Alsc {
            let mut prev = 0u64;
            let records = runs
                .iter()
                .map(|run| {
                    let r = run.r;
                    let mut flags = 0;
                    if r.kind == AccessKind::Write {
                        flags |= 1;
                    }
                    if r.class == AccessClass::AllocatorMeta {
                        flags |= 2;
                    }
                    let delta = varint(zigzag(r.addr.raw().wrapping_sub(prev) as i64));
                    prev = r.addr.raw();
                    let size = if r.size == 4 { Vec::new() } else { varint(u64::from(r.size)) };
                    if !size.is_empty() {
                        flags |= FLAG_SIZED;
                    }
                    let count =
                        if run.count == 1 { Vec::new() } else { varint(u64::from(run.count - 1)) };
                    if !count.is_empty() {
                        flags |= FLAG_REPEATED;
                    }
                    Record { flags, delta, size, count }
                })
                .collect();
            Alsc {
                run_count: runs.len() as u64,
                ref_count: runs.iter().map(|run| u64::from(run.count)).sum(),
                sidecar: b"sidecar".to_vec(),
                records,
                trailing: Vec::new(),
            }
        }

        /// Header, body and a freshly computed checksum.
        pub fn seal(&self) -> Vec<u8> {
            let mut body = varint(self.run_count);
            body.extend(varint(self.ref_count));
            body.extend(varint(self.sidecar.len() as u64));
            body.extend(&self.sidecar);
            for r in &self.records {
                body.push(r.flags);
                body.extend(&r.delta);
                body.extend(&r.size);
                body.extend(&r.count);
            }
            body.extend(&self.trailing);
            seal_body(&body)
        }
    }

    /// Wraps an arbitrary body in a valid header and checksum.
    pub fn seal_body(body: &[u8]) -> Vec<u8> {
        let mut out = STREAM_MAGIC.to_vec();
        out.push(STREAM_FORMAT_VERSION);
        out.extend([0u8; 3]);
        out.extend(KEY.to_le_bytes());
        out.extend(body);
        out.extend(checksum(body).to_le_bytes());
        out
    }
}

/// Whether a decoded run is well formed: non-empty, and its last byte
/// exists (it does not run past 2^64).
fn well_formed(run: &RefRun) -> bool {
    run.r.size >= 1
        && run.count >= 1
        && run.r.addr.raw().checked_add(u64::from(run.r.size) - 1).is_some()
}

/// One way to damage a valid file that the decoder must refuse.
#[derive(Debug, Clone)]
enum Damage {
    RunCount(bool),
    ElevenByteVarint(Index),
    HugeSize(Index, u64),
    MaxRepeat(Index),
    UnknownFlags(Index, u8),
    Trailing(Vec<u8>),
    RefCount(bool),
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    prop_oneof![
        any::<bool>().prop_map(Damage::RunCount),
        any::<Index>().prop_map(Damage::ElevenByteVarint),
        (any::<Index>(), 1u64..1 << 40).prop_map(|(i, s)| Damage::HugeSize(i, s)),
        any::<Index>().prop_map(Damage::MaxRepeat),
        (any::<Index>(), 4u8..8).prop_map(|(i, b)| Damage::UnknownFlags(i, b)),
        proptest::collection::vec(any::<u8>(), 1..16).prop_map(Damage::Trailing),
        any::<bool>().prop_map(Damage::RefCount),
    ]
}

fn valid_runs_strategy() -> impl Strategy<Value = Vec<RefRun>> {
    proptest::collection::vec(
        (
            prop_oneof![0u64..1 << 20, 0u64..1 << 44, (u64::MAX - (1 << 20))..u64::MAX - 300],
            prop_oneof![Just(4u32), 1u32..300],
            prop_oneof![Just(1u32), 1u32..1000, Just(u32::MAX)],
            any::<bool>(),
            any::<bool>(),
        ),
        1..40,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(addr, size, count, meta, write)| {
                let a = Address::new(addr);
                let r = match (meta, write) {
                    (false, false) => MemRef::app_read(a, size),
                    (false, true) => MemRef::app_write(a, size),
                    (true, false) => MemRef::meta_read(a, size),
                    (true, true) => MemRef::meta_write(a, size),
                };
                RefRun { r, count }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes behind a valid header and checksum never make
    /// either decoder panic, and whatever decodes holds no reference
    /// that wraps past 2^64.
    #[test]
    fn alsc_decoders_survive_arbitrary_bodies(
        body in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let bytes = alsc::seal_body(&body);
        let _ = sim_mem::decode_sidecar(&bytes, alsc::KEY);
        if let Ok(stream) = sim_mem::decode_stream(&bytes, alsc::KEY) {
            prop_assert!(stream.runs.iter().all(well_formed), "{:?}", stream.runs);
        }
    }

    /// The same with plausible counts up front, so the arbitrary bytes
    /// land in the record decoder instead of failing the count checks.
    #[test]
    fn alsc_decoders_survive_arbitrary_records(
        run_count in 0u64..64,
        ref_count in prop_oneof![0u64..64, any::<u64>()],
        records in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut body = alsc::varint(run_count);
        body.extend(alsc::varint(ref_count));
        body.extend(alsc::varint(0));
        body.extend(&records);
        let bytes = alsc::seal_body(&body);
        prop_assert_eq!(sim_mem::decode_sidecar(&bytes, alsc::KEY), Ok(Vec::new()));
        if let Ok(stream) = sim_mem::decode_stream(&bytes, alsc::KEY) {
            prop_assert!(stream.runs.iter().all(well_formed), "{:?}", stream.runs);
            prop_assert_eq!(stream.runs.len() as u64, run_count);
        }
    }

    /// A reference ending at the last byte of memory decodes; one byte
    /// further, it wraps past 2^64 and the file is an `Err` — on the
    /// two-byte fast path (word reads at small deltas) as on the general
    /// one.
    #[test]
    fn alsc_decoder_accepts_a_reference_only_if_its_last_byte_exists(
        mut runs in valid_runs_strategy(),
        at in any::<Index>(),
        below_top in 0u64..16,
        size in prop_oneof![Just(4u32), 1u32..32],
    ) {
        let at = at.index(runs.len());
        runs[at].r.addr = Address::new(u64::MAX - below_top);
        runs[at].r.size = size;
        let wraps = u64::from(size) - 1 > below_top;
        let verdict = sim_mem::decode_stream(&alsc::Alsc::of(&runs).seal(), alsc::KEY);
        if wraps {
            prop_assert!(verdict.is_err(), "wrapping {:?} decoded", runs[at]);
        } else {
            prop_assert_eq!(verdict.map(|d| d.runs), Ok(runs));
        }
    }

    /// A valid file damaged in one field, checksum recomputed, is an
    /// `Err` from the decoder: never a panic, never a stream.
    #[test]
    fn damaged_alsc_fields_are_rejected(runs in valid_runs_strategy(), damage in damage_strategy()) {
        let mut file = alsc::Alsc::of(&runs);
        let decoded = sim_mem::decode_stream(&file.seal(), alsc::KEY).expect("undamaged file");
        prop_assert_eq!(&decoded.runs, &runs);

        let n = file.records.len();
        match &damage {
            Damage::RunCount(up) => {
                file.run_count = if *up { file.run_count + 1 } else { file.run_count - 1 };
            }
            Damage::ElevenByteVarint(i) => {
                let mut eleven = vec![0x80u8; 10];
                eleven.push(0);
                file.records[i.index(n)].delta = eleven;
            }
            Damage::HugeSize(i, extra) => {
                let r = &mut file.records[i.index(n)];
                r.flags |= alsc::FLAG_SIZED;
                r.size = alsc::varint(u64::from(u32::MAX) + extra);
            }
            Damage::MaxRepeat(i) => {
                let r = &mut file.records[i.index(n)];
                r.flags |= alsc::FLAG_REPEATED;
                r.count = alsc::varint(u64::from(u32::MAX));
            }
            Damage::UnknownFlags(i, bit) => file.records[i.index(n)].flags |= 1 << bit,
            Damage::Trailing(bytes) => file.trailing = bytes.clone(),
            Damage::RefCount(up) => {
                file.ref_count = if *up { file.ref_count + 1 } else { file.ref_count - 1 };
            }
        }
        let bytes = file.seal();
        let verdict = sim_mem::decode_stream(&bytes, alsc::KEY);
        prop_assert!(verdict.is_err(), "{:?} decoded: {:?}", damage, verdict);
        let _ = sim_mem::decode_sidecar(&bytes, alsc::KEY);
    }
}

/// `pattern` repeated until the stream spans `len` runs (at least one
/// copy), each run doubled when `doubled`: the doubles are adjacent
/// identical runs the encoder merges, saturating at `u32::MAX`.
fn long_stream(pattern: &[RefRun], len: usize, doubled: bool) -> Vec<RefRun> {
    let copies = if doubled { 2 } else { 1 };
    let mut runs = Vec::with_capacity(len.max(pattern.len() * copies));
    while runs.is_empty() || runs.len() < len {
        for run in pattern {
            runs.extend(std::iter::repeat_n(*run, copies));
        }
    }
    runs
}

/// Every chunk [`sim_mem::StreamView::decode_chunks`] delivers before it
/// returns, concatenated, and whether each held at most
/// [`sim_mem::BATCH_CAPACITY`] runs with only the last one short.
fn chunked(bytes: &[u8]) -> (Result<(), sim_mem::StreamError>, Vec<RefRun>, bool) {
    let mut joined = Vec::new();
    let mut sizes = Vec::new();
    let verdict = sim_mem::open_stream(bytes, alsc::KEY).and_then(|view| {
        view.decode_chunks(|chunk| {
            sizes.push(chunk.len());
            joined.extend_from_slice(chunk);
        })
    });
    let bounded = sizes.iter().all(|&n| (1..=sim_mem::BATCH_CAPACITY).contains(&n))
        && sizes.iter().rev().skip(1).all(|&n| n == sim_mem::BATCH_CAPACITY);
    (verdict, joined, bounded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The chunked decode of a valid stream — long enough to span
    /// several chunks, with saturated and merged runs — delivers full
    /// chunks of [`sim_mem::BATCH_CAPACITY`] runs and one last shorter
    /// one, and their concatenation is exactly what `decode_stream`
    /// collects.
    #[test]
    fn chunked_decode_concatenates_to_the_collected_stream(
        pattern in valid_runs_strategy(),
        len in 0usize..3 * sim_mem::BATCH_CAPACITY,
        doubled in any::<bool>(),
    ) {
        let runs = long_stream(&pattern, len, doubled);
        let bytes = sim_mem::encode_stream(alsc::KEY, b"sidecar", &runs);
        let collected = sim_mem::decode_stream(&bytes, alsc::KEY).expect("valid file");
        let (verdict, joined, bounded) = chunked(&bytes);
        prop_assert_eq!(verdict, Ok(()));
        prop_assert!(bounded);
        prop_assert_eq!(joined, collected.runs);
    }

    /// For every damage of the decoder suite, on streams that span
    /// several chunks, the chunked decode fails with the same error as
    /// `decode_stream`, and what it delivered before failing is a prefix
    /// of the undamaged stream in whole chunks: the chunk holding the
    /// damage, and a last chunk failing the end-of-stream checks, are
    /// never handed on.
    #[test]
    fn chunked_decode_fails_like_decode_stream(
        pattern in valid_runs_strategy(),
        len in 0usize..3 * sim_mem::BATCH_CAPACITY,
        damage in damage_strategy(),
    ) {
        let runs = long_stream(&pattern, len, false);
        let mut file = alsc::Alsc::of(&runs);
        let n = file.records.len();
        match &damage {
            Damage::RunCount(up) => {
                file.run_count = if *up { file.run_count + 1 } else { file.run_count - 1 };
            }
            Damage::ElevenByteVarint(i) => {
                let mut eleven = vec![0x80u8; 10];
                eleven.push(0);
                file.records[i.index(n)].delta = eleven;
            }
            Damage::HugeSize(i, extra) => {
                let r = &mut file.records[i.index(n)];
                r.flags |= alsc::FLAG_SIZED;
                r.size = alsc::varint(u64::from(u32::MAX) + extra);
            }
            Damage::MaxRepeat(i) => {
                let r = &mut file.records[i.index(n)];
                r.flags |= alsc::FLAG_REPEATED;
                r.count = alsc::varint(u64::from(u32::MAX));
            }
            Damage::UnknownFlags(i, bit) => file.records[i.index(n)].flags |= 1 << bit,
            Damage::Trailing(bytes) => file.trailing = bytes.clone(),
            Damage::RefCount(up) => {
                file.ref_count = if *up { file.ref_count + 1 } else { file.ref_count - 1 };
            }
        }
        let bytes = file.seal();
        let collected = sim_mem::decode_stream(&bytes, alsc::KEY);
        prop_assert!(collected.is_err(), "{:?} decoded", damage);
        let (verdict, delivered, bounded) = chunked(&bytes);
        prop_assert_eq!(verdict, collected.map(|_| ()));
        prop_assert!(bounded);
        prop_assert_eq!(delivered.len() % sim_mem::BATCH_CAPACITY, 0);
        prop_assert_eq!(&delivered[..], &runs[..delivered.len()]);
    }
}
