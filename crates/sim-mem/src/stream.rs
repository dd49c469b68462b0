//! ALSC: persistent, content-addressed storage for run-compressed
//! reference streams.
//!
//! The experiment engine's trace-driven methodology replays one
//! (program, allocator) reference stream against many measurement
//! configurations, yet regenerating that stream — workload model plus
//! allocator simulation — dominates a run's wall-clock cost. This
//! module serializes a [`RefRun`] stream to a compact binary file as
//! the stream is generated, so a later run with the same *driver
//! identity* pays only read + checksum + decode + sink cost — or, when
//! the stored sidecar already answers the run, only the read +
//! checksum.
//!
//! # File layout (`ALSC` version 3)
//!
//! ```text
//! magic       4 bytes   "ALSC"
//! version     u8        STREAM_FORMAT_VERSION
//! reserved    3 bytes   zero
//! content key u64 LE    caller-computed FNV-1a over the driver identity
//! -- checksummed region starts here --
//! run count   varint
//! ref count   varint    sum of run counts (expanded references)
//! sidecar     varint length + opaque bytes (the engine stores driver-
//!                       side results and metrics here as JSON)
//! runs        run records, see below
//! -- checksummed region ends here --
//! checksum    u64 LE    `checksum` of the checksummed region
//! ```
//!
//! One run record is:
//!
//! ```text
//! flags  u8      bit 0 = write, bit 1 = allocator metadata,
//!                bit 2 = sized (size != 4), bit 3 = repeated (count > 1)
//! delta  varint  zig-zag of (addr - previous record's addr)
//! size   varint  present iff sized
//! count  varint  count - 1, present iff repeated
//! ```
//!
//! Word-sized reads of application data at small forward deltas — the
//! overwhelming majority of real streams — cost two bytes.
//!
//! Adjacent records carrying the identical reference are merged at
//! encode time (run boundaries are not semantic: [`crate::AccessSink`]
//! implementations are bit-identical for any boundary placement, and
//! the expanded reference sequence is unchanged).
//!
//! # Writing
//!
//! [`StreamEncoder`] encodes a stream as it is produced: pushed in
//! pieces of any size, it holds only the encoded records, and its bytes
//! do not depend on where the stream was split. [`encode_stream`] is one
//! push of a whole stream. [`StreamCache`] stores files through
//! [`write_atomic`] and bounds its directory with [`evict_oldest`].
//!
//! # Reading
//!
//! [`open_stream`] validates a file once — header, content key, and the
//! [`checksum`] of the whole checksummed region — and locates its
//! sidecar. Only a validated [`StreamView`] decodes records:
//! [`StreamView::decode_chunks`] hands them on in chunks of at most
//! [`BATCH_CAPACITY`] runs through one reused buffer, so no consumer sees
//! an unverified record and no whole-stream vector need exist.
//! [`decode_stream`] and [`decode_sidecar`] are thin wrappers over the
//! same two steps.
//!
//! # Invalidation
//!
//! Decoding is total: any malformed input — wrong magic, unknown
//! version, mismatched content key, truncation, checksum failure, or a
//! corrupt record — yields a [`StreamError`], never a panic, so a
//! damaged cache file demotes a warm run to a cold one. A record whose
//! bytes would run past 2^64 (`addr + size - 1` overflows) is corrupt
//! too, so every decoded reference has a well-defined last byte. A
//! corrupt record behind a valid checksum is found mid-stream, after
//! the chunks before it were delivered; a consumer that must not act on
//! a partial stream discards what it fed. The version byte must be
//! bumped whenever the record layout, the flag meanings, the checksum,
//! or the sidecar contract change; old files then read as
//! [`StreamError::BadVersion`] and are regenerated.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::varint;
use crate::{AccessClass, AccessKind, Address, MemRef, RefRun, BATCH_CAPACITY};

/// File magic of a serialized stream.
pub const STREAM_MAGIC: [u8; 4] = *b"ALSC";

/// Current stream format version. Bump on any layout or semantic
/// change; readers reject other versions. Version 2 extended the
/// sidecar contract (the engine stores the populating run's finalized
/// result alongside its metrics); version 3 replaced the byte-serial
/// FNV-1a file checksum with the four-lane word [`checksum`].
pub const STREAM_FORMAT_VERSION: u8 = 3;

/// File extension of a [`StreamCache`] entry.
const STREAM_EXTENSION: &str = "alsc";

/// Offset where the checksummed region (everything after the fixed
/// header) begins.
const HEADER_LEN: usize = 16;

/// FNV-1a offset basis and prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher, used for content keys, job ids and sweep
/// ids.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// A hasher at the offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a little-endian `u64` into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Multiplier of the checksum's fold step. Odd, so multiplying by it is
/// a bijection on `u64`.
const FOLD_K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Initial states of the checksum's four lanes (hex digits of pi).
const LANE_SEEDS: [u64; 4] =
    [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344, 0xa409_3822_299f_31d0, 0x082e_fa98_ec4e_6c89];

/// One checksum step: a bijection in `h` for a fixed `w`, and in `w`
/// for a fixed `h` (xor, multiplication by an odd constant, rotation).
#[inline(always)]
fn fold(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FOLD_K).rotate_left(29)
}

/// The ALSC file checksum.
///
/// Each 32-byte block is four little-endian `u64` words, folded into
/// four independent lanes, one word per lane — four multiply chains the
/// processor overlaps, eight bytes per step. The lanes are then folded
/// in order, followed by the length and the tail bytes (zero-padded
/// words), and a bijective finalizer spreads the last step over every
/// bit. Because every step is a bijection in both the state and the
/// word, a single-bit flip anywhere in `bytes` changes exactly one word,
/// hence one lane or the tail state, hence the result: every single-bit
/// flip is detected, not merely most.
pub fn checksum(bytes: &[u8]) -> u64 {
    let word = |block: &[u8], i: usize| {
        u64::from_le_bytes(block[8 * i..8 * i + 8].try_into().expect("8-byte word"))
    };
    let [mut a, mut b, mut c, mut d] = LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        a = fold(a, word(block, 0));
        b = fold(b, word(block, 1));
        c = fold(c, word(block, 2));
        d = fold(d, word(block, 3));
    }
    let mut h = [a, b, c, d].into_iter().fold(0, fold);
    h = fold(h, bytes.len() as u64);
    for tail in blocks.remainder().chunks(8) {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        h = fold(h, u64::from_le_bytes(padded));
    }
    h ^= h >> 32;
    h = h.wrapping_mul(FOLD_K);
    h ^ (h >> 29)
}

/// Why a stream file failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The file does not start with [`STREAM_MAGIC`].
    BadMagic,
    /// The file's version byte is not [`STREAM_FORMAT_VERSION`].
    BadVersion(u8),
    /// The file's content key disagrees with the expected key (a hash
    /// collision in the file name, or a file copied between keys).
    KeyMismatch {
        /// Key the caller derived from the run's identity.
        expected: u64,
        /// Key stored in the file.
        found: u64,
    },
    /// The file ends before the declared content does.
    Truncated,
    /// The checksum failed or a record is malformed.
    Corrupt(&'static str),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::BadMagic => write!(f, "not an ALSC stream (bad magic)"),
            StreamError::BadVersion(v) => {
                write!(f, "unsupported stream version {v} (expected {STREAM_FORMAT_VERSION})")
            }
            StreamError::KeyMismatch { expected, found } => {
                write!(f, "content key {found:016x} does not match expected {expected:016x}")
            }
            StreamError::Truncated => write!(f, "stream file is truncated"),
            StreamError::Corrupt(what) => write!(f, "stream file is corrupt: {what}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// A successfully decoded stream file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedStream {
    /// The opaque sidecar blob stored alongside the stream.
    pub sidecar: Vec<u8>,
    /// The run-compressed reference stream. Adjacent identical runs may
    /// have been merged relative to the stream that was encoded; the
    /// expanded reference sequence is identical.
    pub runs: Vec<RefRun>,
}

const FLAG_WRITE: u8 = 1 << 0;
const FLAG_META: u8 = 1 << 1;
const FLAG_SIZED: u8 = 1 << 2;
const FLAG_REPEATED: u8 = 1 << 3;
const FLAG_KNOWN: u8 = FLAG_WRITE | FLAG_META | FLAG_SIZED | FLAG_REPEATED;

/// Why a record whose byte range runs past 2^64 is rejected: no real
/// reference wraps, and every sink's block arithmetic assumes none does.
const WRAPS: &str = "reference wraps past the end of the address space";

/// Serializes a stream to the ALSC byte format: one
/// [`StreamEncoder::push`] of the whole stream, then
/// [`StreamEncoder::finish`].
///
/// `content_key` identifies what generated the stream (the caller
/// hashes the driver identity); `sidecar` is stored verbatim and handed
/// back on decode. Adjacent identical runs are merged.
pub fn encode_stream(content_key: u64, sidecar: &[u8], runs: &[RefRun]) -> Vec<u8> {
    let mut encoder = StreamEncoder::new();
    encoder.push(runs);
    encoder.finish(content_key, sidecar)
}

/// Encodes a stream as it is produced, holding only the encoded
/// records, never the runs.
///
/// [`StreamEncoder::push`] takes the stream in pieces of any size — a
/// generating run's flushed batches, typically — and merges adjacent
/// identical runs across pieces, so where the stream was split never
/// shows: any split yields exactly [`encode_stream`]'s bytes.
/// [`StreamEncoder::finish`] frames the records as an ALSC file.
#[derive(Debug, Default)]
pub struct StreamEncoder {
    /// The run records written so far.
    records: Vec<u8>,
    /// The run being merged, not yet written: its reference and its
    /// count so far, which may pass `u32::MAX`.
    pending: Option<(MemRef, u64)>,
    /// Address of the last record written, the base of the next delta.
    prev_addr: u64,
    /// Records written (a merged count above `u32::MAX` writes several).
    record_count: u64,
    /// Expanded references pushed.
    ref_count: u64,
}

impl StreamEncoder {
    /// An encoder with nothing pushed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `runs` to the stream.
    pub fn push(&mut self, runs: &[RefRun]) {
        for run in runs {
            debug_assert!(run.count >= 1);
            self.ref_count += u64::from(run.count);
            match &mut self.pending {
                Some((r, count)) if *r == run.r => *count += u64::from(run.count),
                _ => {
                    if let Some((r, count)) = self.pending.replace((run.r, u64::from(run.count))) {
                        self.write_run(r, count);
                    }
                }
            }
        }
    }

    /// Frames the stream as an ALSC file under `content_key`, with
    /// `sidecar` stored verbatim (see [`encode_stream`]).
    pub fn finish(mut self, content_key: u64, sidecar: &[u8]) -> Vec<u8> {
        if let Some((r, count)) = self.pending.take() {
            self.write_run(r, count);
        }
        let mut head = Vec::with_capacity(HEADER_LEN + 30 + sidecar.len());
        head.extend_from_slice(&STREAM_MAGIC);
        head.push(STREAM_FORMAT_VERSION);
        head.extend_from_slice(&[0u8; 3]);
        head.extend_from_slice(&content_key.to_le_bytes());
        varint::write_u64(&mut head, self.record_count).expect("vec write");
        varint::write_u64(&mut head, self.ref_count).expect("vec write");
        varint::write_u64(&mut head, sidecar.len() as u64).expect("vec write");
        head.extend_from_slice(sidecar);
        // The records become the file in place: the head is spliced in
        // front of them, so the body is never copied into a second buffer.
        let mut out = self.records;
        out.reserve_exact(head.len() + 8);
        out.splice(0..0, head);
        let sum = checksum(&out[HEADER_LEN..]);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Writes one merged run, splitting counts that exceed `u32::MAX`.
    fn write_run(&mut self, r: MemRef, mut count: u64) {
        let out = &mut self.records;
        while count > 0 {
            let chunk = count.min(u64::from(u32::MAX)) as u32;
            count -= u64::from(chunk);
            self.record_count += 1;
            let mut flags = 0u8;
            if r.kind == AccessKind::Write {
                flags |= FLAG_WRITE;
            }
            if r.class == AccessClass::AllocatorMeta {
                flags |= FLAG_META;
            }
            if r.size != 4 {
                flags |= FLAG_SIZED;
            }
            if chunk > 1 {
                flags |= FLAG_REPEATED;
            }
            out.push(flags);
            let delta = r.addr.raw().wrapping_sub(self.prev_addr) as i64;
            varint::write_i64(out, delta).expect("vec write");
            self.prev_addr = r.addr.raw();
            if flags & FLAG_SIZED != 0 {
                varint::write_u64(out, u64::from(r.size)).expect("vec write");
            }
            if flags & FLAG_REPEATED != 0 {
                varint::write_u64(out, u64::from(chunk - 1)).expect("vec write");
            }
        }
    }
}

/// A stream file that passed [`open_stream`]: magic, version, reserved
/// bytes, content key and checksum verified, counts read, sidecar
/// located. Only [`open_stream`] builds one, so holding a view means the
/// bytes behind it were checksummed; the run records are decoded on
/// demand by [`StreamView::decode_chunks`].
#[derive(Debug, Clone, Copy)]
pub struct StreamView<'a> {
    run_count: u64,
    ref_count: u64,
    sidecar: &'a [u8],
    records: &'a [u8],
}

/// Validates an ALSC byte string — magic, version, reserved bytes and
/// content key, then one [`checksum`] pass over the checksummed region —
/// and locates its sidecar and run records. No record is decoded.
///
/// # Errors
///
/// Returns the first [`StreamError`] in the header, the checksum, the
/// counts or the sidecar. Damage confined to the run records behind a
/// valid checksum surfaces from [`StreamView::decode_chunks`].
pub fn open_stream(bytes: &[u8], expected_key: u64) -> Result<StreamView<'_>, StreamError> {
    if bytes.len() < HEADER_LEN + 8 {
        return Err(if bytes.len() >= 4 && bytes[..4] != STREAM_MAGIC {
            StreamError::BadMagic
        } else {
            StreamError::Truncated
        });
    }
    if bytes[..4] != STREAM_MAGIC {
        return Err(StreamError::BadMagic);
    }
    if bytes[4] != STREAM_FORMAT_VERSION {
        return Err(StreamError::BadVersion(bytes[4]));
    }
    if bytes[5..8] != [0, 0, 0] {
        return Err(StreamError::Corrupt("nonzero reserved header bytes"));
    }
    let found = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    if found != expected_key {
        return Err(StreamError::KeyMismatch { expected: expected_key, found });
    }
    let body = &bytes[HEADER_LEN..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    if checksum(body) != stored {
        return Err(StreamError::Corrupt("checksum mismatch"));
    }
    let mut pos = 0usize;
    let run_count = varint::take_u64(body, &mut pos).ok_or(StreamError::Truncated)?;
    let ref_count = varint::take_u64(body, &mut pos).ok_or(StreamError::Truncated)?;
    let sidecar_len = varint::take_u64(body, &mut pos).ok_or(StreamError::Truncated)? as usize;
    if body.len() - pos < sidecar_len {
        return Err(StreamError::Truncated);
    }
    let (sidecar, records) = body[pos..].split_at(sidecar_len);
    Ok(StreamView { run_count, ref_count, sidecar, records })
}

impl<'a> StreamView<'a> {
    /// The opaque sidecar blob stored alongside the stream.
    pub fn sidecar(&self) -> &'a [u8] {
        self.sidecar
    }

    /// Decodes the run records in stream order and hands them to
    /// `deliver` in chunks of at most [`BATCH_CAPACITY`] runs, reusing
    /// one buffer: memory stays bounded however long the stream is. The
    /// last chunk is delivered only after the end-of-stream checks
    /// (trailing bytes, reference count) pass.
    ///
    /// # Errors
    ///
    /// Returns the first malformed record or count as a [`StreamError`]:
    /// unknown flag bits, a truncated or overlong varint, a zero or
    /// oversized reference, a reference wrapping past 2^64, a run length
    /// beyond `u32::MAX`, trailing bytes, or a reference count that
    /// disagrees with the records. The chunks before the error were
    /// already delivered; a caller that must not act on a partial stream
    /// discards what it fed.
    pub fn decode_chunks(&self, mut deliver: impl FnMut(&[RefRun])) -> Result<(), StreamError> {
        let body = self.records;
        let run_count =
            usize::try_from(self.run_count).map_err(|_| StreamError::Corrupt("run count"))?;
        // A record is at least two bytes; a declared count beyond that
        // bound is damage, caught before the allocation rather than after.
        if run_count > body.len() / 2 {
            return Err(StreamError::Corrupt("run count exceeds payload"));
        }
        let mut chunk = Vec::with_capacity(run_count.min(BATCH_CAPACITY));
        let mut pos = 0usize;
        let mut prev_addr = 0u64;
        let mut refs = 0u64;
        for _ in 0..run_count {
            if chunk.len() == BATCH_CAPACITY {
                deliver(&chunk);
                chunk.clear();
            }
            let flags = *body.get(pos).ok_or(StreamError::Truncated)?;
            pos += 1;
            if flags & !FLAG_KNOWN != 0 {
                return Err(StreamError::Corrupt("unknown record flags"));
            }
            let kind = if flags & FLAG_WRITE != 0 { AccessKind::Write } else { AccessKind::Read };
            let class = if flags & FLAG_META != 0 {
                AccessClass::AllocatorMeta
            } else {
                AccessClass::AppData
            };
            // Fast path: a single word-sized reference whose address delta
            // fits one varint byte — the overwhelmingly common record — is
            // exactly two bytes, decoded without the general varint loop.
            if flags & (FLAG_SIZED | FLAG_REPEATED) == 0 {
                if let Some(&b) = body.get(pos) {
                    if b < 0x80 {
                        pos += 1;
                        let addr = prev_addr.wrapping_add(varint::unzigzag(u64::from(b)) as u64);
                        if addr > u64::MAX - 3 {
                            return Err(StreamError::Corrupt(WRAPS));
                        }
                        prev_addr = addr;
                        refs += 1;
                        chunk.push(RefRun {
                            r: MemRef { addr: Address::new(addr), size: 4, kind, class },
                            count: 1,
                        });
                        continue;
                    }
                }
            }
            let delta = varint::take_i64(body, &mut pos).ok_or(StreamError::Truncated)?;
            let addr = prev_addr.wrapping_add(delta as u64);
            prev_addr = addr;
            let size = if flags & FLAG_SIZED != 0 {
                let raw = varint::take_u64(body, &mut pos).ok_or(StreamError::Truncated)?;
                u32::try_from(raw).map_err(|_| StreamError::Corrupt("reference size"))?
            } else {
                4
            };
            if size == 0 {
                return Err(StreamError::Corrupt("zero-sized reference"));
            }
            if addr.checked_add(u64::from(size) - 1).is_none() {
                return Err(StreamError::Corrupt(WRAPS));
            }
            let count = if flags & FLAG_REPEATED != 0 {
                let raw = varint::take_u64(body, &mut pos).ok_or(StreamError::Truncated)?;
                u32::try_from(raw)
                    .ok()
                    .and_then(|c| c.checked_add(1))
                    .ok_or(StreamError::Corrupt("run length"))?
            } else {
                1
            };
            refs += u64::from(count);
            chunk.push(RefRun { r: MemRef { addr: Address::new(addr), size, kind, class }, count });
        }
        if pos != body.len() {
            return Err(StreamError::Corrupt("trailing bytes after last record"));
        }
        if refs != self.ref_count {
            return Err(StreamError::Corrupt("reference count mismatch"));
        }
        if !chunk.is_empty() {
            deliver(&chunk);
        }
        Ok(())
    }
}

/// Decodes only a stream's sidecar blob: [`open_stream`] alone, so the
/// whole file is still checksummed (integrity is not negotiable) but no
/// run record is decoded.
///
/// # Errors
///
/// The same [`StreamError`]s as [`decode_stream`], except damage
/// confined to the run records, which only a full decode can see.
pub fn decode_sidecar(bytes: &[u8], expected_key: u64) -> Result<Vec<u8>, StreamError> {
    open_stream(bytes, expected_key).map(|view| view.sidecar().to_vec())
}

/// Decodes an ALSC byte string whole: [`open_stream`], then every chunk
/// of [`StreamView::decode_chunks`] collected into one vector.
///
/// # Errors
///
/// Returns the first [`StreamError`] encountered; any byte-level damage
/// to the file surfaces here rather than as a panic or a wrong stream.
pub fn decode_stream(bytes: &[u8], expected_key: u64) -> Result<DecodedStream, StreamError> {
    let view = open_stream(bytes, expected_key)?;
    // Sized by the declared count, capped by the payload bound the
    // decoder enforces, so a damaged count cannot force a huge allocation.
    let declared = usize::try_from(view.run_count).unwrap_or(usize::MAX);
    let mut runs = Vec::with_capacity(declared.min(view.records.len() / 2));
    view.decode_chunks(|chunk| runs.extend_from_slice(chunk))?;
    Ok(DecodedStream { sidecar: view.sidecar.to_vec(), runs })
}

/// What a [`StreamCache`] directory holds right now: its `.alsc` file
/// count and their total size (see [`StreamCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Number of stream files.
    pub entries: u64,
    /// Total size of the stream files, in bytes.
    pub bytes: u64,
}

/// A directory of ALSC stream files, one per content key.
///
/// Files are named `<key as 16 hex digits>.alsc`. Stores go through
/// [`write_atomic`], so concurrent readers see either the old file or
/// the complete new one, never a torn write, and concurrent writers —
/// across processes or threads — never share a scratch file even when
/// racing on the same key.
#[derive(Debug, Clone)]
pub struct StreamCache {
    dir: PathBuf,
    /// Size bound for the directory's stream files; `None` = unbounded.
    max_bytes: Option<u64>,
}

impl StreamCache {
    /// A cache rooted at `dir` (created lazily on first store), with no
    /// size bound.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StreamCache { dir: dir.into(), max_bytes: None }
    }

    /// Bounds the total size of the cache's stream files. After each
    /// store, the oldest-written entries are evicted (best-effort) until
    /// the directory's `.alsc` files fit in `max_bytes` ([`evict_oldest`],
    /// which the serve daemon's report cache uses too). The
    /// just-written entry is never evicted, so a single oversized stream
    /// still caches; `None` restores unbounded growth.
    pub fn with_max_bytes(mut self, max_bytes: Option<u64>) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// The directory this cache stores into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path a content key maps to.
    pub fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.{STREAM_EXTENSION}"))
    }

    /// Whether a stream file exists for `key` — a metadata-only probe,
    /// no read or decode. A `true` answer is a prediction, not a
    /// promise: a corrupt entry still probes `true` and only
    /// [`open_stream`] on its [`StreamCache::read`] bytes discovers the
    /// damage, so callers counting hits from this probe report
    /// best-effort telemetry, never correctness.
    pub fn contains(&self, key: u64) -> bool {
        self.path_for(key).is_file()
    }

    /// Counts the cache's stream files and their total size — the
    /// telemetry the sweep executor surfaces after a warm run. Unreadable
    /// directories count as empty (the cache is created lazily, so a
    /// missing directory just means nothing was stored yet).
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats { entries: 0, bytes: 0 };
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return stats;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == STREAM_EXTENSION) {
                if let Ok(meta) = entry.metadata() {
                    stats.entries += 1;
                    stats.bytes += meta.len();
                }
            }
        }
        stats
    }

    /// Reads the stream file stored under `key`, whole: `Ok(None)` when
    /// there is none. The bytes are unvalidated; [`open_stream`] checks
    /// them, so a run reads and checksums its file exactly once.
    ///
    /// # Errors
    ///
    /// Any I/O error other than a missing file.
    pub fn read(&self, key: u64) -> std::io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.path_for(key)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Encodes and atomically stores a stream under `key`: a thin
    /// wrapper over [`encode_stream`] and [`StreamCache::write`].
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; callers treat a failed store as
    /// a missed optimization, not a failed run.
    pub fn store(&self, key: u64, sidecar: &[u8], runs: &[RefRun]) -> std::io::Result<()> {
        self.write(key, &encode_stream(key, sidecar, runs))
    }

    /// Atomically stores an encoded stream file under `key` (see
    /// [`write_atomic`]), then, under a size bound, evicts the
    /// oldest-written entries but this one (see [`evict_oldest`]).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; callers treat a failed store as
    /// a missed optimization, not a failed run.
    pub fn write(&self, key: u64, bytes: &[u8]) -> std::io::Result<()> {
        let path = write_atomic(&self.dir, &format!("{key:016x}.{STREAM_EXTENSION}"), bytes)?;
        if let Some(max_bytes) = self.max_bytes {
            evict_oldest(&self.dir, STREAM_EXTENSION, &path, max_bytes);
        }
        Ok(())
    }
}

/// Writes `bytes` to `dir/name` atomically and returns the file's path.
/// The bytes go to a scratch sibling, are synced to disk, and the
/// scratch file is renamed into place, so concurrent readers see either
/// the old file or the complete new one, never a torn write. The scratch
/// name embeds the process id *and* a process-wide counter, so
/// concurrent writers — across processes or threads, even racing on one
/// name — never share a scratch file; it ends in that counter, so no
/// extension filter counts it. Creates `dir` when missing.
///
/// # Errors
///
/// Returns the underlying I/O error, after removing the scratch file.
pub fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<PathBuf> {
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    std::fs::create_dir_all(dir)?;
    let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = dir.join(format!("{name}.tmp.{}.{seq}", std::process::id()));
    let path = dir.join(name);
    let written = std::fs::File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, &path));
    match written {
        Ok(()) => Ok(path),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Deletes the oldest-modified files with extension `extension` in `dir`
/// until they fit in `max_bytes`, sparing `keep` (the file just written,
/// so a single oversized entry still stays). Best-effort throughout:
/// eviction races and I/O errors cost bytes, never correctness.
pub fn evict_oldest(dir: &Path, extension: &str, keep: &Path, max_bytes: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut files: Vec<(std::time::SystemTime, u64, PathBuf)> = entries
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|ext| ext == extension))
        .filter_map(|e| {
            let meta = e.metadata().ok()?;
            Some((meta.modified().ok()?, meta.len(), e.path()))
        })
        .collect();
    let mut total: u64 = files.iter().map(|(_, size, _)| size).sum();
    files.sort_by_key(|entry| entry.0);
    for (_, size, candidate) in files {
        if total <= max_bytes {
            break;
        }
        if candidate == keep {
            continue;
        }
        if std::fs::remove_file(&candidate).is_ok() {
            total = total.saturating_sub(size);
        }
    }
}

/// Expands a run-compressed stream into its raw reference sequence
/// (test helper for equivalence assertions).
pub fn expand_runs(runs: &[RefRun]) -> Vec<MemRef> {
    let total: usize = runs.iter().map(|run| run.count as usize).sum();
    let mut out = Vec::with_capacity(total);
    for run in runs {
        out.resize(out.len() + run.count as usize, run.r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_runs() -> Vec<RefRun> {
        vec![
            RefRun { r: MemRef::app_read(Address::new(0x1000), 4), count: 1 },
            RefRun { r: MemRef::app_write(Address::new(0x1004), 16), count: 3 },
            RefRun { r: MemRef::meta_read(Address::new(0x0ff8), 4), count: 1 },
            RefRun { r: MemRef::meta_write(Address::new(0x0ff8), 8), count: 2 },
            RefRun { r: MemRef::app_read(Address::new(0xffff_ffff_0000), 4), count: 1 },
        ]
    }

    #[test]
    fn encode_decode_round_trips() {
        let runs = sample_runs();
        let bytes = encode_stream(42, b"sidecar", &runs);
        let decoded = decode_stream(&bytes, 42).expect("decode");
        assert_eq!(decoded.sidecar, b"sidecar");
        assert_eq!(decoded.runs, runs);
    }

    #[test]
    fn adjacent_identical_runs_merge_losslessly() {
        let r = MemRef::app_read(Address::new(64), 4);
        let split = vec![
            RefRun { r, count: 2 },
            RefRun { r, count: 5 },
            RefRun { r: MemRef::app_write(Address::new(64), 4), count: 1 },
            RefRun { r, count: 1 },
        ];
        let bytes = encode_stream(7, b"", &split);
        let decoded = decode_stream(&bytes, 7).expect("decode");
        assert_eq!(decoded.runs.len(), 3, "adjacent identical runs merged");
        assert_eq!(expand_runs(&decoded.runs), expand_runs(&split));
    }

    #[test]
    fn common_records_are_two_bytes() {
        // A word read at delta 4 from the previous address: flags + delta.
        let runs = vec![
            RefRun { r: MemRef::app_read(Address::new(0), 4), count: 1 },
            RefRun { r: MemRef::app_read(Address::new(4), 4), count: 1 },
        ];
        let bytes = encode_stream(0, b"", &runs);
        // header 16 + counts 3 (2 runs, 2 refs, 0 sidecar) + 2*2 records + 8 checksum
        assert_eq!(bytes.len(), 16 + 3 + 4 + 8);
    }

    #[test]
    fn wrong_magic_version_and_key_are_rejected() {
        let bytes = encode_stream(9, b"", &sample_runs());

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(decode_stream(&bad, 9), Err(StreamError::BadMagic));

        let mut bad = bytes.clone();
        bad[4] = STREAM_FORMAT_VERSION + 1;
        assert_eq!(decode_stream(&bad, 9), Err(StreamError::BadVersion(STREAM_FORMAT_VERSION + 1)));

        assert_eq!(
            decode_stream(&bytes, 10),
            Err(StreamError::KeyMismatch { expected: 10, found: 9 })
        );
    }

    #[test]
    fn references_wrapping_past_the_address_space_are_corrupt() {
        let run = |addr: u64, size: u32, count: u32| RefRun {
            r: MemRef::app_read(Address::new(addr), size),
            count,
        };
        // Ending exactly at the last byte is fine, on the two-byte fast
        // path (word reads at small deltas) and on the general path.
        for ok in [
            vec![run(u64::MAX - 7, 4, 1), run(u64::MAX - 3, 4, 1)],
            vec![run(u64::MAX - 7, 8, 2)],
            vec![run(u64::MAX, 1, 1)],
        ] {
            let bytes = encode_stream(1, b"", &ok);
            assert_eq!(decode_stream(&bytes, 1).map(|d| d.runs), Ok(ok));
        }
        for bad in [
            vec![run(u64::MAX - 7, 4, 1), run(u64::MAX - 2, 4, 1)],
            vec![run(u64::MAX - 1, 8, 2)],
            vec![run(u64::MAX, 2, 1)],
        ] {
            let bytes = encode_stream(1, b"", &bad);
            assert_eq!(decode_stream(&bytes, 1), Err(StreamError::Corrupt(WRAPS)), "{bad:?}");
        }
    }

    /// A file of a few hundred bytes whose checksummed region is not a
    /// whole number of 32-byte blocks, so damage lands in every lane and
    /// in the tail.
    fn lane_test_file() -> Vec<u8> {
        let runs: Vec<RefRun> = (0..70u64)
            .map(|i| RefRun {
                r: MemRef::app_read(Address::new(0x1000 + i * 40), 4 + (i % 3) as u32 * 4),
                count: 1 + (i % 4) as u32,
            })
            .collect();
        let bytes = encode_stream(3, b"driver state", &runs);
        let checksummed = bytes.len() - HEADER_LEN - 8;
        assert!(bytes.len() >= 200 && !checksummed.is_multiple_of(32), "{} bytes", bytes.len());
        bytes
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected_before_decoding() {
        let bytes = lane_test_file();
        assert!(decode_stream(&bytes, 3).is_ok());
        for len in 0..bytes.len() {
            assert!(open_stream(&bytes[..len], 3).is_err(), "truncation at {len} accepted");
        }
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(open_stream(&bad, 3).is_err(), "bit flip at {byte}.{bit} went unnoticed");
            }
        }
    }

    #[test]
    fn every_bit_of_the_checksummed_region_reaches_the_checksum() {
        // Lengths around the 32-byte block: whole blocks, tails of every
        // size, and the empty input.
        for len in [0usize, 1, 7, 8, 31, 32, 33, 63, 64, 100, 255] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let sum = checksum(&bytes);
            for byte in 0..len {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[byte] ^= 1 << bit;
                    assert_ne!(checksum(&bad), sum, "len {len}: flip at {byte}.{bit}");
                }
            }
        }
    }

    #[test]
    fn checksum_is_pinned() {
        // A change to the lanes, the fold, the seeds or the finalizer
        // changes the file format: it must bump STREAM_FORMAT_VERSION.
        let bytes: Vec<u8> = (0u8..=100).collect();
        assert_eq!(checksum(&bytes), PINNED_CHECKSUM);
        assert_ne!(checksum(&bytes[..100]), checksum(&bytes));
    }

    /// `checksum` of the bytes 0..=100 (three 32-byte blocks and a
    /// five-byte tail).
    const PINNED_CHECKSUM: u64 = 0x3f4b_a0d8_9808_8a17;

    #[test]
    fn chunks_are_bounded_and_concatenate_to_the_stream() {
        let r = |i: u64| MemRef::app_read(Address::new(i * 8), 4);
        let runs: Vec<RefRun> =
            (0..2 * BATCH_CAPACITY as u64 + 5).map(|i| RefRun { r: r(i), count: 1 }).collect();
        let bytes = encode_stream(4, b"", &runs);
        let view = open_stream(&bytes, 4).expect("valid file");
        let mut sizes = Vec::new();
        let mut joined = Vec::new();
        view.decode_chunks(|chunk| {
            sizes.push(chunk.len());
            joined.extend_from_slice(chunk);
        })
        .expect("decode");
        assert_eq!(sizes, [BATCH_CAPACITY, BATCH_CAPACITY, 5]);
        assert_eq!(joined, runs);
    }

    #[test]
    fn cache_store_read_round_trips_and_misses() {
        let dir = std::env::temp_dir().join(format!("alsc-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = StreamCache::new(&dir);
        assert!(matches!(cache.read(1), Ok(None)));
        let runs = sample_runs();
        cache.store(1, b"meta", &runs).expect("store");
        let bytes = cache.read(1).expect("read").expect("stored file");
        let stream = decode_stream(&bytes, 1).expect("decode");
        assert_eq!(stream.sidecar, b"meta");
        assert_eq!(stream.runs, runs);
        // Re-storing replaces the file whole.
        cache.store(1, b"meta2", &runs).expect("re-store");
        let bytes = cache.read(1).expect("read").expect("stored file");
        assert_eq!(decode_sidecar(&bytes, 1).expect("decode"), b"meta2");
        // Damage the file on disk: validation fails, nothing panics.
        let path = cache.path_for(1);
        let mut bytes = std::fs::read(&path).expect("read back");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("rewrite");
        let bytes = cache.read(1).expect("read").expect("damaged file");
        assert!(open_stream(&bytes, 1).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_bound_evicts_oldest_written_first() {
        let dir = std::env::temp_dir().join(format!("alsc-evict-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let runs = sample_runs();
        let unbounded = StreamCache::new(&dir);
        for key in [10u64, 11, 12] {
            unbounded.store(key, b"", &runs).expect("store");
        }
        let entry_size = std::fs::metadata(unbounded.path_for(10)).expect("meta").len();
        // Age the entries deterministically: 10 oldest, 12 newest.
        for (i, key) in [10u64, 11, 12].iter().enumerate() {
            let age = std::time::Duration::from_secs(3000 - 1000 * i as u64);
            std::fs::File::options()
                .write(true)
                .open(unbounded.path_for(*key))
                .expect("open")
                .set_modified(std::time::SystemTime::now() - age)
                .expect("set mtime");
        }

        // Room for three entries: storing a fourth evicts exactly the
        // oldest-written one.
        let bounded = StreamCache::new(&dir).with_max_bytes(Some(3 * entry_size));
        bounded.store(13, b"", &runs).expect("store");
        assert!(!bounded.path_for(10).exists(), "oldest entry must be evicted");
        for key in [11u64, 12, 13] {
            assert!(bounded.path_for(key).exists(), "entry {key} wrongly evicted");
        }

        // A bound smaller than any single entry still keeps the entry
        // just written — eviction never undoes the store it follows.
        let tiny = StreamCache::new(&dir).with_max_bytes(Some(1));
        tiny.store(14, b"", &runs).expect("store");
        assert!(tiny.path_for(14).exists(), "just-written entry must survive");
        for key in [11u64, 12, 13] {
            assert!(!tiny.path_for(key).exists(), "entry {key} should be evicted");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_on_one_key_never_corrupt_or_partially_expose() {
        let dir = std::env::temp_dir().join(format!("alsc-race-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = StreamCache::new(&dir);
        let runs_a = sample_runs();
        let mut runs_b = sample_runs();
        runs_b.reverse();
        let key = 0xdead_beef;
        cache.store(key, b"A", &runs_a).expect("seed store");

        std::thread::scope(|scope| {
            let writer_a = scope.spawn(|| {
                for _ in 0..40 {
                    cache.store(key, b"A", &runs_a).expect("store A");
                }
            });
            let writer_b = scope.spawn(|| {
                for _ in 0..40 {
                    cache.store(key, b"B", &runs_b).expect("store B");
                }
            });
            // Every observation during the race must be one writer's
            // complete entry: the matching sidecar/runs pair, never a
            // torn mixture, a decode failure, or a vanished file.
            let reader = scope.spawn(|| {
                for _ in 0..200 {
                    let bytes = cache.read(key).expect("read").expect("entry vanished mid-race");
                    let stream = decode_stream(&bytes, key).expect("corrupt entry exposed");
                    match stream.sidecar.as_slice() {
                        b"A" => assert_eq!(stream.runs, runs_a, "torn entry for A"),
                        b"B" => assert_eq!(stream.runs, runs_b, "torn entry for B"),
                        other => panic!("unknown sidecar {other:?}"),
                    }
                }
            });
            writer_a.join().expect("writer A");
            writer_b.join().expect("writer B");
            reader.join().expect("reader");
        });

        // Both final states are valid, and no scratch files leaked.
        let bytes = cache.read(key).expect("read").expect("final entry");
        assert!(decode_stream(&bytes, key).is_ok());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "scratch files leaked: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn maximal_run_lengths_round_trip() {
        let r = MemRef::app_read(Address::new(128), 4);
        let runs = vec![
            RefRun { r, count: u32::MAX },
            RefRun { r: MemRef::app_write(Address::new(128), 4), count: u32::MAX - 1 },
        ];
        let bytes = encode_stream(5, b"", &runs);
        let decoded = decode_stream(&bytes, 5).expect("decode");
        assert_eq!(decoded.runs, runs);
    }

    #[test]
    fn merged_counts_past_u32_max_split_into_saturated_records() {
        let r = MemRef::app_read(Address::new(8), 4);
        let runs = vec![RefRun { r, count: u32::MAX }, RefRun { r, count: 3 }];
        let bytes = encode_stream(6, b"", &runs);
        let decoded = decode_stream(&bytes, 6).expect("decode");
        let total: u64 = decoded.runs.iter().map(|run| u64::from(run.count)).sum();
        assert_eq!(total, u64::from(u32::MAX) + 3);
        for run in &decoded.runs {
            assert_eq!(run.r, r);
        }
    }

    #[test]
    fn encoder_bytes_do_not_depend_on_where_the_stream_is_split() {
        // Among the boundaries: one between two identical runs, and ones
        // inside a merge whose count passes u32::MAX.
        let r = MemRef::app_read(Address::new(8), 4);
        let mut runs = sample_runs();
        runs.extend([
            RefRun { r, count: 2 },
            RefRun { r, count: 5 },
            RefRun { r, count: u32::MAX },
            RefRun { r, count: 3 },
            RefRun { r: MemRef::meta_write(Address::new(0x0ff8), 8), count: 1 },
        ]);
        let whole = encode_stream(11, b"sidecar", &runs);
        let decoded = decode_stream(&whole, 11).expect("decode");
        assert_eq!(decoded.runs.len(), sample_runs().len() + 3, "the merge splits in two records");
        assert_eq!(expand_count(&decoded.runs), expand_count(&runs));

        for at in 0..=runs.len() {
            let mut encoder = StreamEncoder::new();
            encoder.push(&runs[..at]);
            encoder.push(&[]);
            encoder.push(&runs[at..]);
            assert_eq!(encoder.finish(11, b"sidecar"), whole, "split at {at}");
        }
        let mut encoder = StreamEncoder::new();
        for run in &runs {
            encoder.push(std::slice::from_ref(run));
        }
        assert_eq!(encoder.finish(11, b"sidecar"), whole, "split at every boundary");
        assert_eq!(StreamEncoder::new().finish(11, b""), encode_stream(11, b"", &[]));
    }

    fn expand_count(runs: &[RefRun]) -> u64 {
        runs.iter().map(|run| u64::from(run.count)).sum()
    }
}
