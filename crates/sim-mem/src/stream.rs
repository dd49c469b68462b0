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
//! the stored sidecar already answers the run, only a read of the
//! file's last few kilobytes.
//!
//! # File layout (`ALSC` version 4)
//!
//! ```text
//! -- header (16 bytes) --
//! magic        4 bytes   "ALSC"
//! version      u8        STREAM_FORMAT_VERSION
//! reserved     3 bytes   zero
//! content key  u64 LE    caller-computed FNV-1a over the driver identity
//! -- records --
//! runs         run records, see below, in stream order
//! -- trailer --
//! run count    varint
//! ref count    varint    sum of run counts (expanded references)
//! sidecar      varint length + opaque bytes (the engine stores driver-
//!                        side results and metrics here as JSON)
//! -- footer (24 bytes) --
//! trailer at   u64 LE    byte offset of the trailer (16 + records length)
//! records sum  u64 LE    `checksum` of the records
//! trailer sum  u64 LE    `checksum` of the trailer
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
//! A word-sized reference at a one-byte delta costs two bytes, but such
//! records are the minority: over the paper's 25 cells at scale 0.005
//! (9,284,511 records) they are 12.2%. The most common record, 43.0%,
//! is a sized reference (size ≠ 4) at a one-byte delta, three bytes;
//! records average 3.54 bytes. Nearly all of them, 98.8%, are *common
//! records*: no repeat count, a delta of at most six bytes and, when
//! sized, a one-byte size, eight bytes at most (see Reading).
//!
//! Adjacent records carrying the identical reference are merged at
//! encode time (run boundaries are not semantic: [`crate::AccessSink`]
//! implementations are bit-identical for any boundary placement, and
//! the expanded reference sequence is unchanged).
//!
//! # Writing
//!
//! [`StreamEncoder`] encodes a stream as it is produced: pushed in
//! pieces of any size, it writes the records through a buffer of
//! [`WRITE_BUFFER`] bytes, checksumming them as they go, and its bytes
//! do not depend on where the stream was split. [`StreamEncoder::finish`]
//! appends the trailer and the footer. [`StreamCache`] points an encoder
//! at an [`AtomicFile`], a scratch file in the cache directory that
//! commit fsyncs and renames into place; [`write_bounded`] writes a
//! whole byte string through the same two phases. [`encode_stream`] is
//! one push of a whole stream into memory.
//!
//! # Reading
//!
//! [`StreamReader::open`] reads only the header, the footer and the
//! trailer, over any `Read + Seek`: it checks magic, version, reserved
//! bytes and content key, checksums the trailer and parses the counts
//! and the sidecar. No record is read, so a sidecar answer costs the
//! trailer, not the file. [`StreamReader::decode_chunks`], the one
//! record decoder, reads the records in chunks of [`READ_CHUNK`] bytes,
//! checksums them as it decodes, and hands the runs on in chunks of at
//! most [`BATCH_CAPACITY`] through one reused buffer; the last chunk
//! follows only the end-of-stream checks, the records checksum among
//! them. [`decode_stream`] and [`decode_sidecar`] are thin wrappers over
//! the same two steps for a file held in memory.
//!
//! The decoder takes common records in a bulk loop, each from one
//! unaligned little-endian `u64` load, and hands the first record the
//! loop declines to a general decoder that walks it byte by byte. The
//! loop decodes every record it takes as the general decoder would, and
//! declines every record the general decoder refuses, so the runs and
//! the errors are the general decoder's alone (a unit test mixes every
//! record shape to pin this).
//!
//! # Invalidation
//!
//! Decoding is total: any malformed input — wrong magic, unknown
//! version, mismatched content key, truncation, a checksum failure, or
//! a corrupt record — yields a [`StreamError`], never a panic, so a
//! damaged cache file demotes a warm run to a cold one. A record whose
//! bytes would run past 2^64 (`addr + size - 1` overflows) is corrupt
//! too, so every decoded reference has a well-defined last byte. Damage
//! to the records is found while they are decoded — a malformed record
//! where it sits, any other change by the records checksum at the end —
//! after the chunks before it were delivered; a consumer that must not
//! act on a partial stream discards what it fed. The version byte must
//! be bumped whenever the layout, the record format, the flag meanings,
//! the checksum, or the sidecar contract change; old files then read as
//! [`StreamError::BadVersion`] and are regenerated.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use crate::varint;
use crate::{AccessClass, AccessKind, Address, MemRef, RefRun, BATCH_CAPACITY};

/// File magic of a serialized stream.
pub const STREAM_MAGIC: [u8; 4] = *b"ALSC";

/// Current stream format version. Bump on any layout or semantic
/// change; readers reject other versions. Version 2 extended the
/// sidecar contract (the engine stores the populating run's finalized
/// result alongside its metrics); version 3 replaced the byte-serial
/// FNV-1a file checksum with the four-lane word [`checksum`]; version 4
/// moved the counts and the sidecar behind the records, into a trailer
/// that a footer locates, with separate checksums, so a file is written
/// as its stream is generated and its sidecar read without its records.
pub const STREAM_FORMAT_VERSION: u8 = 4;

/// File extension of a [`StreamCache`] entry.
const STREAM_EXTENSION: &str = "alsc";

/// Length of the fixed header; the records begin here.
const HEADER_LEN: usize = 16;

/// Length of the fixed footer that ends every file.
const FOOTER_LEN: usize = 24;

/// Bytes of encoded records a [`StreamEncoder`] holds before it writes
/// them out.
pub const WRITE_BUFFER: usize = 64 << 10;

/// Bytes of records [`StreamReader::decode_chunks`] reads at a time.
pub const READ_CHUNK: usize = 64 << 10;

/// The most bytes one record can take, or the decoder read before it
/// fails: a flags byte and three varints of at most ten bytes each.
const MAX_RECORD_LEN: usize = 31;

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

/// The ALSC checksum of one byte string: [`Checksum`] fed it whole.
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
    let mut sum = Checksum::new();
    sum.update(bytes);
    sum.finish()
}

/// [`checksum`] computed incrementally: after any sequence of
/// [`Checksum::update`]s, [`Checksum::finish`] is the checksum of their
/// concatenation, wherever it was split.
#[derive(Debug, Clone)]
pub struct Checksum {
    lanes: [u64; 4],
    /// The start of a block still missing bytes.
    partial: [u8; 32],
    partial_len: usize,
    len: u64,
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum { lanes: LANE_SEEDS, partial: [0; 32], partial_len: 0, len: 0 }
    }
}

impl Checksum {
    /// The checksum state of the empty string.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `bytes` to the checksummed string.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.partial_len > 0 {
            let take = bytes.len().min(32 - self.partial_len);
            self.partial[self.partial_len..self.partial_len + take].copy_from_slice(&bytes[..take]);
            self.partial_len += take;
            bytes = &bytes[take..];
            if self.partial_len < 32 {
                return;
            }
            let block = self.partial;
            self.fold_blocks(&block);
            self.partial_len = 0;
        }
        let whole = bytes.len() - bytes.len() % 32;
        self.fold_blocks(&bytes[..whole]);
        let tail = &bytes[whole..];
        self.partial[..tail.len()].copy_from_slice(tail);
        self.partial_len = tail.len();
    }

    /// Folds whole 32-byte blocks into the lanes.
    #[inline(always)]
    fn fold_blocks(&mut self, blocks: &[u8]) {
        let word = |block: &[u8], i: usize| {
            u64::from_le_bytes(block[8 * i..8 * i + 8].try_into().expect("8-byte word"))
        };
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for block in blocks.chunks_exact(32) {
            a = fold(a, word(block, 0));
            b = fold(b, word(block, 1));
            c = fold(c, word(block, 2));
            d = fold(d, word(block, 3));
        }
        self.lanes = [a, b, c, d];
    }

    /// The checksum of everything appended so far.
    pub fn finish(&self) -> u64 {
        let mut h = self.lanes.into_iter().fold(0, fold);
        h = fold(h, self.len);
        for tail in self.partial[..self.partial_len].chunks(8) {
            let mut padded = [0u8; 8];
            padded[..tail.len()].copy_from_slice(tail);
            h = fold(h, u64::from_le_bytes(padded));
        }
        h ^= h >> 32;
        h = h.wrapping_mul(FOLD_K);
        h ^ (h >> 29)
    }
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
    /// A checksum failed or a record, the trailer or the footer is
    /// malformed.
    Corrupt(&'static str),
    /// Reading the file failed.
    Io(io::ErrorKind),
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
            StreamError::Io(kind) => write!(f, "stream file could not be read: {kind}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => StreamError::Truncated,
            kind => StreamError::Io(kind),
        }
    }
}

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

/// Serializes a stream to the ALSC byte format in memory: one
/// [`StreamEncoder::push`] of the whole stream into a byte vector, then
/// [`StreamEncoder::finish`].
///
/// `content_key` identifies what generated the stream (the caller
/// hashes the driver identity); `sidecar` is stored verbatim and handed
/// back on decode. Adjacent identical runs are merged.
pub fn encode_stream(content_key: u64, sidecar: &[u8], runs: &[RefRun]) -> Vec<u8> {
    let mut encoder = StreamEncoder::new(Vec::new(), content_key);
    encoder.push(runs);
    encoder.finish(sidecar).expect("a byte vector takes every write")
}

/// Writes `bytes` to `out`, unless an earlier write failed; the first
/// failure replaces the writer with its error, dropping the writer.
fn write_out<W: Write>(out: &mut io::Result<W>, bytes: &[u8]) {
    if let Ok(w) = out {
        if let Err(e) = w.write_all(bytes) {
            *out = Err(e);
        }
    }
}

/// Encodes a stream into an ALSC file as it is produced, holding at
/// most [`WRITE_BUFFER`] bytes of records, never the runs.
///
/// [`StreamEncoder::new`] writes the header; [`StreamEncoder::push`]
/// takes the stream in pieces of any size — a generating run's flushed
/// batches, typically — and merges adjacent identical runs across
/// pieces, so where the stream was split never shows: any split yields
/// exactly [`encode_stream`]'s bytes. [`StreamEncoder::finish`] appends
/// the trailer and the footer and hands the writer back.
///
/// A failed write does not stop the encoder: it drops the writer (an
/// [`AtomicFile`] removes its scratch file then), writes nothing more,
/// and [`StreamEncoder::finish`] returns the error. A stream that cannot
/// be stored therefore costs its run nothing but the file.
#[derive(Debug)]
pub struct StreamEncoder<W: Write> {
    /// Where the file goes, or the error that ended writing.
    out: io::Result<W>,
    /// Encoded records not yet written out.
    buf: Vec<u8>,
    /// Checksum of the records written out so far.
    sum: Checksum,
    /// Length of the records written out so far.
    records_len: u64,
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

impl<W: Write> StreamEncoder<W> {
    /// An encoder with nothing pushed that writes a file under
    /// `content_key` to `out`, starting with its header.
    pub fn new(out: W, content_key: u64) -> Self {
        Self::over(Ok(out), content_key)
    }

    /// [`StreamEncoder::new`] over a writer that may have failed to
    /// open: an `Err` is kept, and returned by [`StreamEncoder::finish`].
    fn over(mut out: io::Result<W>, content_key: u64) -> Self {
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&STREAM_MAGIC);
        header[4] = STREAM_FORMAT_VERSION;
        header[8..].copy_from_slice(&content_key.to_le_bytes());
        write_out(&mut out, &header);
        StreamEncoder {
            out,
            buf: Vec::with_capacity(WRITE_BUFFER),
            sum: Checksum::new(),
            records_len: 0,
            pending: None,
            prev_addr: 0,
            record_count: 0,
            ref_count: 0,
        }
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

    /// Writes the last run, the trailer — the counts and `sidecar`,
    /// stored verbatim (see [`encode_stream`]) — and the footer, and
    /// hands back the writer, flushed.
    ///
    /// # Errors
    ///
    /// The first write error of the whole file.
    pub fn finish(mut self, sidecar: &[u8]) -> io::Result<W> {
        if let Some((r, count)) = self.pending.take() {
            self.write_run(r, count);
        }
        self.flush_records();
        let mut trailer = Vec::with_capacity(30 + sidecar.len());
        varint::write_u64(&mut trailer, self.record_count);
        varint::write_u64(&mut trailer, self.ref_count);
        varint::write_u64(&mut trailer, sidecar.len() as u64);
        trailer.extend_from_slice(sidecar);
        let mut footer = [0u8; FOOTER_LEN];
        footer[..8].copy_from_slice(&(HEADER_LEN as u64 + self.records_len).to_le_bytes());
        footer[8..16].copy_from_slice(&self.sum.finish().to_le_bytes());
        footer[16..].copy_from_slice(&checksum(&trailer).to_le_bytes());
        write_out(&mut self.out, &trailer);
        write_out(&mut self.out, &footer);
        let mut out = self.out?;
        out.flush()?;
        Ok(out)
    }

    /// Checksums and writes out the buffered records.
    fn flush_records(&mut self) {
        self.sum.update(&self.buf);
        self.records_len += self.buf.len() as u64;
        write_out(&mut self.out, &self.buf);
        self.buf.clear();
    }

    /// Writes one merged run, splitting counts that exceed `u32::MAX`.
    fn write_run(&mut self, r: MemRef, mut count: u64) {
        while count > 0 {
            if self.buf.len() + MAX_RECORD_LEN > WRITE_BUFFER {
                self.flush_records();
            }
            let out = &mut self.buf;
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
            varint::write_i64(out, delta);
            self.prev_addr = r.addr.raw();
            if flags & FLAG_SIZED != 0 {
                varint::write_u64(out, u64::from(r.size));
            }
            if flags & FLAG_REPEATED != 0 {
                varint::write_u64(out, u64::from(chunk - 1));
            }
        }
    }
}

/// Reads into `buf` until it is full or `src` ends; returns the bytes
/// read.
fn read_full(src: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match src.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// An ALSC file whose header, footer and trailer passed
/// [`StreamReader::open`]: magic, version, reserved bytes and content
/// key checked, the trailer checksummed, its counts and sidecar read.
/// The records are read and verified on demand by
/// [`StreamReader::decode_chunks`].
#[derive(Debug)]
pub struct StreamReader<R> {
    inner: R,
    run_count: u64,
    ref_count: u64,
    sidecar: Vec<u8>,
    records_len: u64,
    records_sum: u64,
}

impl<R: Read + Seek> StreamReader<R> {
    /// Reads and validates the header, the footer and the trailer of the
    /// file `inner` holds — a few kilobytes, whatever the file's length.
    ///
    /// # Errors
    ///
    /// Returns the first [`StreamError`] in the header, the footer or
    /// the trailer. Damage to the records surfaces from
    /// [`StreamReader::decode_chunks`].
    pub fn open(mut inner: R, expected_key: u64) -> Result<Self, StreamError> {
        let len = inner.seek(SeekFrom::End(0))?;
        inner.seek(SeekFrom::Start(0))?;
        let mut header = [0u8; HEADER_LEN];
        let got = read_full(&mut inner, &mut header)?;
        if got >= 4 && header[..4] != STREAM_MAGIC {
            return Err(StreamError::BadMagic);
        }
        if got < HEADER_LEN || len < (HEADER_LEN + FOOTER_LEN) as u64 {
            return Err(StreamError::Truncated);
        }
        if header[4] != STREAM_FORMAT_VERSION {
            return Err(StreamError::BadVersion(header[4]));
        }
        if header[5..8] != [0, 0, 0] {
            return Err(StreamError::Corrupt("nonzero reserved header bytes"));
        }
        let found = u64::from_le_bytes(header[8..].try_into().expect("8 bytes"));
        if found != expected_key {
            return Err(StreamError::KeyMismatch { expected: expected_key, found });
        }
        let trailer_end = len - FOOTER_LEN as u64;
        let mut footer = [0u8; FOOTER_LEN];
        inner.seek(SeekFrom::Start(trailer_end))?;
        inner.read_exact(&mut footer)?;
        let word = |i: usize| u64::from_le_bytes(footer[8 * i..8 * i + 8].try_into().expect("8"));
        let (trailer_at, records_sum, trailer_sum) = (word(0), word(1), word(2));
        if !(HEADER_LEN as u64..=trailer_end).contains(&trailer_at) {
            return Err(StreamError::Corrupt("trailer offset out of range"));
        }
        let trailer_len = usize::try_from(trailer_end - trailer_at)
            .map_err(|_| StreamError::Corrupt("trailer length"))?;
        let mut trailer = vec![0u8; trailer_len];
        inner.seek(SeekFrom::Start(trailer_at))?;
        inner.read_exact(&mut trailer)?;
        if checksum(&trailer) != trailer_sum {
            return Err(StreamError::Corrupt("trailer checksum mismatch"));
        }
        let mut pos = 0usize;
        let run_count = varint::take_u64(&trailer, &mut pos).ok_or(StreamError::Truncated)?;
        let ref_count = varint::take_u64(&trailer, &mut pos).ok_or(StreamError::Truncated)?;
        let sidecar_len = varint::take_u64(&trailer, &mut pos).ok_or(StreamError::Truncated)?;
        let left = (trailer.len() - pos) as u64;
        if left < sidecar_len {
            return Err(StreamError::Truncated);
        }
        if left > sidecar_len {
            return Err(StreamError::Corrupt("trailing bytes after the sidecar"));
        }
        trailer.drain(..pos);
        Ok(StreamReader {
            inner,
            run_count,
            ref_count,
            sidecar: trailer,
            records_len: trailer_at - HEADER_LEN as u64,
            records_sum,
        })
    }

    /// The opaque sidecar blob stored alongside the stream.
    pub fn sidecar(&self) -> &[u8] {
        &self.sidecar
    }

    /// Reads the run records in chunks of [`READ_CHUNK`] bytes,
    /// checksumming them as it goes, decodes them in stream order and
    /// hands them to `deliver` in chunks of at most [`BATCH_CAPACITY`]
    /// runs, reusing one buffer: memory stays bounded however long the
    /// stream is. The last chunk is delivered only after the end-of-stream
    /// checks (the records checksum, trailing bytes, reference count)
    /// pass.
    ///
    /// # Errors
    ///
    /// Returns the first malformed record or count as a [`StreamError`]:
    /// unknown flag bits, a truncated or overlong varint, a zero or
    /// oversized reference, a reference wrapping past 2^64, a run length
    /// beyond `u32::MAX`, a records checksum mismatch, trailing bytes, or
    /// a reference count that disagrees with the records; or a read
    /// error. The chunks before the error were already delivered; a
    /// caller that must not act on a partial stream discards what it fed.
    pub fn decode_chunks(&mut self, mut deliver: impl FnMut(&[RefRun])) -> Result<(), StreamError> {
        // A record is at least two bytes; a declared count beyond that
        // bound is damage, caught before the allocation rather than after.
        if self.run_count > self.records_len / 2 {
            return Err(StreamError::Corrupt("run count exceeds payload"));
        }
        self.inner.seek(SeekFrom::Start(HEADER_LEN as u64))?;
        let mut src = Records {
            inner: &mut self.inner,
            buf: vec![0u8; READ_CHUNK],
            end: 0,
            left: self.records_len,
            sum: Checksum::new(),
        };
        // The decode state lives in locals, not in `src`, so the hot loop
        // keeps it in registers.
        let mut pos = 0usize;
        let mut chunk = Vec::with_capacity(BATCH_CAPACITY.min(self.run_count as usize));
        let mut prev_addr = 0u64;
        let mut refs = 0u64;
        let mut remaining = self.run_count;
        while remaining > 0 {
            if src.end - pos < MAX_RECORD_LEN && src.left > 0 {
                pos = src.refill(pos)?;
            }
            if chunk.len() == BATCH_CAPACITY {
                deliver(&chunk);
                chunk.clear();
            }
            // No record takes more than MAX_RECORD_LEN bytes, so this many
            // lie whole in the window, unless the records end inside it.
            let fit = if src.left > 0 { (src.end - pos) / MAX_RECORD_LEN } else { usize::MAX };
            let batch = fit
                .min(BATCH_CAPACITY - chunk.len())
                .min(usize::try_from(remaining).unwrap_or(usize::MAX));
            let body = &src.buf[..src.end];
            // Common records a word at a time; the first record the word
            // loop declines, byte by byte.
            let mut done = 0;
            while done < batch {
                let common =
                    decode_common(body, &mut pos, &mut prev_addr, &mut chunk, batch - done);
                refs += common as u64;
                done += common;
                if done < batch {
                    let run = decode_record(body, &mut pos, &mut prev_addr)?;
                    refs += u64::from(run.count);
                    chunk.push(run);
                    done += 1;
                }
            }
            remaining -= batch as u64;
        }
        let trailing = src.drain(pos)?;
        if src.sum.finish() != self.records_sum {
            return Err(StreamError::Corrupt("records checksum mismatch"));
        }
        if trailing != 0 {
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

/// The records of a file, read a window at a time and checksummed as
/// they are read. The window is `buf[pos..end]`, with `pos` kept by the
/// decoder.
struct Records<'r, R> {
    inner: &'r mut R,
    buf: Vec<u8>,
    /// End of the bytes read into `buf`.
    end: usize,
    /// Bytes of records not yet read.
    left: u64,
    sum: Checksum,
}

impl<R: Read> Records<'_, R> {
    /// Moves the window `buf[pos..end]` to the front of the buffer and
    /// reads until the buffer is full or the records end; returns the
    /// window's new start.
    #[cold]
    fn refill(&mut self, pos: usize) -> Result<usize, StreamError> {
        self.buf.copy_within(pos..self.end, 0);
        self.end -= pos;
        let want =
            (self.buf.len() - self.end).min(usize::try_from(self.left).unwrap_or(usize::MAX));
        let got = read_full(self.inner, &mut self.buf[self.end..self.end + want])?;
        if got < want {
            return Err(StreamError::Truncated);
        }
        self.sum.update(&self.buf[self.end..self.end + got]);
        self.end += got;
        self.left -= got as u64;
        Ok(0)
    }

    /// Reads and checksums the rest of the records, past the window
    /// starting at `pos`; returns how many bytes were left undecoded.
    fn drain(&mut self, pos: usize) -> Result<u64, StreamError> {
        let undecoded = (self.end - pos) as u64 + self.left;
        while self.left > 0 {
            self.refill(self.end)?;
        }
        Ok(undecoded)
    }
}

/// The continuation bits of the six bytes after a record's flags byte,
/// as they sit in its word shifted right by eight: the common record's
/// delta ends at the first of them that is clear.
const DELTA_STOPS: u64 = 0x8080_8080_8080;

/// Decodes up to `max` common records from `body[*pos..]` onto `chunk`,
/// each from one little-endian word load, advancing `*pos` and
/// `*prev_addr` past them; returns how many it decoded.
///
/// A common record has known flags, no repeat, a delta of at most six
/// bytes and, when sized, a nonzero one-byte size, and its reference
/// does not wrap past 2^64. The loop stops at the first record that is
/// not common, or that has fewer than eight bytes left in `body`, and
/// leaves it to [`decode_record`], which decodes every record this loop
/// takes to the same run.
///
/// The delta's length comes from the first clear stop bit, its value
/// from folding the bytes up to it, and the size byte is the one after
/// it, selected without a branch. Every field is computed from the word
/// before any is checked, so each step wraps rather than overflows on a
/// record the loop then declines, and the checks fold into one flag.
/// Outlined, the loop keeps its position and address in registers.
#[inline(never)]
fn decode_common(
    body: &[u8],
    pos: &mut usize,
    prev_addr: &mut u64,
    chunk: &mut Vec<RefRun>,
    max: usize,
) -> usize {
    let (mut at, mut prev) = (*pos, *prev_addr);
    let (start, end) = (chunk.len(), chunk.len() + max);
    while chunk.len() < end {
        let Some(word) = body.get(at..).and_then(<[u8]>::first_chunk::<8>) else { break };
        let word = u64::from_le_bytes(*word);
        let flags = word as u8;
        let stops = !(word >> 8) & DELTA_STOPS;
        // The delta's bytes: every bit up to its stop bit. With no stop
        // bit, all of them, on a record that is declined.
        let delta_bits = (word >> 8) & (stops ^ stops.wrapping_sub(1));
        let delta_len = (stops.trailing_zeros() + 1) / 8;
        let addr = prev.wrapping_add(varint::unzigzag(varint::fold_groups(delta_bits)) as u64);
        let sized = flags & FLAG_SIZED != 0;
        let size_byte = word.wrapping_shr(8 * (delta_len + 1)) as u8;
        let size = if sized { u32::from(size_byte) } else { 4 };
        let common = (flags & !(FLAG_WRITE | FLAG_META | FLAG_SIZED) == 0)
            & (stops != 0)
            & (!sized | (size_byte.wrapping_sub(1) < 0x7f))
            & addr.checked_add(u64::from(size).wrapping_sub(1)).is_some();
        if !common {
            break;
        }
        let kind = if flags & FLAG_WRITE != 0 { AccessKind::Write } else { AccessKind::Read };
        let class =
            if flags & FLAG_META != 0 { AccessClass::AllocatorMeta } else { AccessClass::AppData };
        chunk.push(RefRun { r: MemRef { addr: Address::new(addr), size, kind, class }, count: 1 });
        at += 1 + delta_len as usize + usize::from(sized);
        prev = addr;
    }
    *pos = at;
    *prev_addr = prev;
    chunk.len() - start
}

/// Decodes the record at `body[*pos..]`, advancing `*pos` past it. Running
/// off the end of `body` is [`StreamError::Truncated`]: callers hand in
/// at least [`MAX_RECORD_LEN`] bytes past `*pos` unless the records end
/// sooner, so that happens only where the records do end.
#[inline(always)]
fn decode_record(body: &[u8], pos: &mut usize, prev_addr: &mut u64) -> Result<RefRun, StreamError> {
    let flags = *body.get(*pos).ok_or(StreamError::Truncated)?;
    *pos += 1;
    if flags & !FLAG_KNOWN != 0 {
        return Err(StreamError::Corrupt("unknown record flags"));
    }
    let kind = if flags & FLAG_WRITE != 0 { AccessKind::Write } else { AccessKind::Read };
    let class =
        if flags & FLAG_META != 0 { AccessClass::AllocatorMeta } else { AccessClass::AppData };
    let delta = varint::take_i64(body, pos).ok_or(StreamError::Truncated)?;
    let addr = prev_addr.wrapping_add(delta as u64);
    *prev_addr = addr;
    let size = if flags & FLAG_SIZED != 0 {
        let raw = varint::take_u64(body, pos).ok_or(StreamError::Truncated)?;
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
        let raw = varint::take_u64(body, pos).ok_or(StreamError::Truncated)?;
        u32::try_from(raw)
            .ok()
            .and_then(|c| c.checked_add(1))
            .ok_or(StreamError::Corrupt("run length"))?
    } else {
        1
    };
    Ok(RefRun { r: MemRef { addr: Address::new(addr), size, kind, class }, count })
}

/// Decodes only a stream's sidecar blob: [`StreamReader::open`] alone,
/// so the header, the footer and the trailer are verified and no record
/// is read.
///
/// # Errors
///
/// The same [`StreamError`]s as [`decode_stream`], except damage
/// confined to the run records, which only a full decode can see.
pub fn decode_sidecar(bytes: &[u8], expected_key: u64) -> Result<Vec<u8>, StreamError> {
    StreamReader::open(io::Cursor::new(bytes), expected_key).map(|reader| reader.sidecar)
}

/// Decodes an ALSC byte string whole: [`StreamReader::open`], then
/// every chunk of [`StreamReader::decode_chunks`] collected into one
/// vector.
///
/// # Errors
///
/// Returns the first [`StreamError`] encountered; any byte-level damage
/// to the file surfaces here rather than as a panic or a wrong stream.
pub fn decode_stream(bytes: &[u8], expected_key: u64) -> Result<DecodedStream, StreamError> {
    let mut reader = StreamReader::open(io::Cursor::new(bytes), expected_key)?;
    // Sized by the declared count, capped by the payload bound the
    // decoder enforces, so a damaged count cannot force a huge allocation.
    let declared = usize::try_from(reader.run_count).unwrap_or(usize::MAX);
    let mut runs = Vec::with_capacity(declared.min(bytes.len() / 2));
    reader.decode_chunks(|chunk| runs.extend_from_slice(chunk))?;
    Ok(DecodedStream { sidecar: reader.sidecar, runs })
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
/// Files are named `<key as 16 hex digits>.alsc`. A store writes its
/// file through an [`AtomicFile`], so concurrent readers see either the
/// old file or the complete new one, never a torn write, and concurrent
/// writers — across processes or threads — never share a scratch file
/// even when racing on the same key.
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

    /// Bounds the total size of the cache's stream files. Commits then
    /// keep the directory within the bound as [`write_bounded`] does
    /// (the serve daemon's report cache too): once the directory's
    /// `.alsc` files pass `max_bytes`, the oldest-written entries are
    /// evicted (best-effort) until they fit. The just-written entry is
    /// never evicted, so a single oversized stream still caches; `None`
    /// restores unbounded growth.
    pub fn with_max_bytes(mut self, max_bytes: Option<u64>) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// The directory this cache stores into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file name a content key maps to.
    fn name_for(key: u64) -> String {
        format!("{key:016x}.{STREAM_EXTENSION}")
    }

    /// The file path a content key maps to.
    pub fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(Self::name_for(key))
    }

    /// Whether a stream file exists for `key` — a metadata-only probe,
    /// no read or decode. A `true` answer is a prediction, not a
    /// promise: a corrupt entry still probes `true` and only
    /// [`StreamCache::open`] or the decode discovers the damage, so
    /// callers counting hits from this probe report best-effort
    /// telemetry, never correctness.
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

    /// Opens the stream file stored under `key` with
    /// [`StreamReader::open`], reading its header, footer and trailer
    /// only: `Ok(None)` when there is none.
    ///
    /// # Errors
    ///
    /// The file's [`StreamError`], or any I/O error other than a missing
    /// file as [`StreamError::Io`].
    pub fn open(&self, key: u64) -> Result<Option<StreamReader<File>>, StreamError> {
        match File::open(self.path_for(key)) {
            Ok(file) => StreamReader::open(file, key).map(Some),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Starts storing a stream under `key`: an encoder writing into a
    /// scratch file in the cache directory, which
    /// [`StreamCache::commit`] puts in place. When the scratch file
    /// cannot be created the encoder still takes the stream, and the
    /// commit returns the error.
    pub fn encoder(&self, key: u64) -> StreamEncoder<AtomicFile> {
        StreamEncoder::over(AtomicFile::create(&self.dir, &Self::name_for(key)), key)
    }

    /// Finishes `encoder`'s file with `sidecar` and commits it — fsync,
    /// then rename over the key's file — keeping the directory within
    /// the cache's size bound.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error of the whole store; the scratch file
    /// is gone then. Callers treat a failed store as a missed
    /// optimization, not a failed run.
    pub fn commit(&self, encoder: StreamEncoder<AtomicFile>, sidecar: &[u8]) -> io::Result<()> {
        encoder.finish(sidecar)?.commit(self.max_bytes).map(drop)
    }

    /// Encodes and atomically stores a stream under `key`: a thin
    /// wrapper over [`StreamCache::encoder`] and [`StreamCache::commit`].
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; callers treat a failed store as
    /// a missed optimization, not a failed run.
    pub fn store(&self, key: u64, sidecar: &[u8], runs: &[RefRun]) -> io::Result<()> {
        let mut encoder = self.encoder(key);
        encoder.push(runs);
        self.commit(encoder, sidecar)
    }
}

/// A file written in two phases: [`AtomicFile::create`] opens a scratch
/// file beside its final name, and [`AtomicFile::commit`] syncs it to
/// disk and renames it into place, so concurrent readers see either the
/// old file or the complete new one, never a torn write. Every write
/// this module makes goes through one: [`write_bounded`] and
/// [`StreamCache::commit`].
///
/// The scratch name embeds the process id *and* a process-wide counter,
/// so concurrent writers — across processes or threads, even racing on
/// one name — never share a scratch file; it ends in that counter, so no
/// extension filter counts it. A file dropped uncommitted — after an
/// error, in a panic, or simply unused — removes its scratch file.
#[derive(Debug)]
pub struct AtomicFile {
    file: File,
    scratch: PathBuf,
    dir: PathBuf,
    name: String,
    /// Bytes written so far.
    len: u64,
    committed: bool,
}

impl AtomicFile {
    /// Creates `dir` when missing and opens a fresh scratch file in it
    /// for the file `name`.
    ///
    /// # Errors
    ///
    /// The error creating the directory or the scratch file.
    pub fn create(dir: &Path, name: &str) -> io::Result<AtomicFile> {
        static SCRATCH_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        std::fs::create_dir_all(dir)?;
        let seq = SCRATCH_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let scratch = dir.join(format!("{name}.tmp.{}.{seq}", std::process::id()));
        let file = File::create(&scratch)?;
        Ok(AtomicFile {
            file,
            scratch,
            dir: dir.to_path_buf(),
            name: name.to_string(),
            len: 0,
            committed: false,
        })
    }

    /// Syncs the file to disk and renames it into place, then, under a
    /// `max_bytes` bound, keeps the directory's files of its extension
    /// within the bound (see [`write_bounded`]). Returns the file's path.
    ///
    /// # Errors
    ///
    /// The sync or rename error; the scratch file is removed then, and
    /// nothing is evicted.
    pub fn commit(mut self, max_bytes: Option<u64>) -> io::Result<PathBuf> {
        self.file.sync_all()?;
        let path = self.dir.join(&self.name);
        std::fs::rename(&self.scratch, &path)?;
        self.committed = true;
        if let Some(max_bytes) = max_bytes {
            keep_within(&self.dir, &self.name, &path, self.len, max_bytes);
        }
        Ok(path)
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.file.write(buf)?;
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if !self.committed {
            let _ = std::fs::remove_file(&self.scratch);
        }
    }
}

/// Running byte totals of the directories this process writes under a
/// size bound, keyed by directory and file extension (see
/// [`write_bounded`]).
static BOUNDED_TOTALS: Mutex<BTreeMap<(PathBuf, String), u64>> = Mutex::new(BTreeMap::new());

/// Writes `bytes` to `dir/name` through an [`AtomicFile`] (creating
/// `dir` when missing), then keeps the directory's files of `name`'s
/// extension within `max_bytes`: once they pass it, the oldest-modified
/// are deleted until they fit, sparing the file just written (so a
/// single oversized entry still stays). Returns the file's path.
///
/// The process keeps a running byte total per directory and extension,
/// so a write that stays within the bound lists no directory. The first
/// bounded write to a directory in this process sets the total with one
/// scan (evicting if the directory is already over); each later write
/// adds its length; a write that takes the total past the bound scans
/// and evicts, and what is left sets the total afresh. A rename over an
/// existing file counts twice, which only brings the next scan forward.
/// Files written by other processes or by unbounded writers are seen at
/// the next scan, and a directory named by two different paths keeps
/// two totals. A cache that stays at its bound scans on every write.
/// Eviction is best-effort throughout: races and I/O errors cost bytes,
/// never correctness.
///
/// # Errors
///
/// Returns the underlying I/O error, after removing the scratch file;
/// nothing is evicted then.
pub fn write_bounded(dir: &Path, name: &str, bytes: &[u8], max_bytes: u64) -> io::Result<PathBuf> {
    let mut file = AtomicFile::create(dir, name)?;
    file.write_all(bytes)?;
    file.commit(Some(max_bytes))
}

/// The bookkeeping half of [`write_bounded`], after `path` (`len` bytes,
/// named `name` in `dir`) was committed.
fn keep_within(dir: &Path, name: &str, path: &Path, len: u64, max_bytes: u64) {
    let extension = Path::new(name).extension().and_then(|e| e.to_str()).unwrap_or("");
    let key = (dir.to_path_buf(), extension.to_string());
    let mut totals = BOUNDED_TOTALS.lock().unwrap_or_else(PoisonError::into_inner);
    let within = totals.get_mut(&key).is_some_and(|total| {
        *total = total.saturating_add(len);
        *total <= max_bytes
    });
    if !within {
        match evict_oldest(dir, extension, path, max_bytes) {
            Some(left) => totals.insert(key, left),
            // Unlisted: no total, so the next write scans again.
            None => totals.remove(&key),
        };
    }
}

#[cfg(test)]
thread_local! {
    /// Directory scans [`evict_oldest`] started on this thread.
    static SCANS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Deletes the oldest-modified files with extension `extension` in `dir`
/// until they fit in `max_bytes`, sparing `keep`, and returns the total
/// size of those left; `None`, evicting nothing, when `dir` cannot be
/// listed.
fn evict_oldest(dir: &Path, extension: &str, keep: &Path, max_bytes: u64) -> Option<u64> {
    #[cfg(test)]
    SCANS.set(SCANS.get() + 1);
    let entries = std::fs::read_dir(dir).ok()?;
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
    Some(total)
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

    /// A scratch directory for one test, emptied on entry.
    fn test_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("alsc-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Every name in `dir`; none when it does not exist.
    fn names(dir: &Path) -> Vec<String> {
        let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
        entries.flatten().map(|e| e.file_name().to_string_lossy().into_owned()).collect()
    }

    /// The byte offset of the trailer, from the footer.
    fn trailer_at(bytes: &[u8]) -> usize {
        let footer = &bytes[bytes.len() - FOOTER_LEN..];
        u64::from_le_bytes(footer[..8].try_into().expect("8 bytes")) as usize
    }

    #[test]
    fn encode_decode_round_trips() {
        let runs = sample_runs();
        let bytes = encode_stream(42, b"sidecar", &runs);
        let decoded = decode_stream(&bytes, 42).expect("decode");
        assert_eq!(decoded.sidecar, b"sidecar");
        assert_eq!(decoded.runs, runs);
        assert_eq!(decode_sidecar(&bytes, 42).expect("sidecar"), b"sidecar");
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
        // header 16 + 2*2 records + trailer 3 (2 runs, 2 refs, 0 sidecar) + footer 24
        assert_eq!(bytes.len(), 16 + 4 + 3 + 24);
        assert_eq!(trailer_at(&bytes), 16 + 4);
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

    /// xorshift64*: the seeded source of the record mixes below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn one_in(&mut self, n: u64) -> bool {
            self.below(n) == 0
        }
    }

    fn varint_bytes(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u64(&mut out, v);
        out
    }

    /// A random value whose canonical varint takes `shortest` to
    /// `longest` bytes (1–10).
    fn value_of_len(rng: &mut Rng, shortest: u64, longest: u64) -> u64 {
        match shortest + rng.below(longest - shortest + 1) {
            1 => rng.below(0x80),
            10 => rng.next() | 1 << 63,
            len => {
                let low = 1u64 << (7 * (len - 1));
                low + rng.below((low << 7) - low)
            }
        }
    }

    /// What [`mixed_record`] makes: any well-formed record, one at a
    /// given address, or a malformed one.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Shape {
        Any,
        At(u64),
        UnknownFlags,
        ZeroSize,
        HugeSize,
        RunLength,
        Wraps,
    }

    const MALFORMED: [Shape; 5] =
        [Shape::UnknownFlags, Shape::ZeroSize, Shape::HugeSize, Shape::RunLength, Shape::Wraps];

    /// One record of `shape`: its bytes and its run length. `prev` is the
    /// previous record's address, and becomes this one's. Well-formed
    /// records are mostly the common record, with deltas of every length,
    /// canonical or not, and now and then sizes and repeats of every
    /// kind.
    fn mixed_record(rng: &mut Rng, prev: &mut u64, shape: Shape) -> (Vec<u8>, u64) {
        let mut flags = rng.below(4) as u8;
        let (size, size_bytes) = match (shape, rng.below(12)) {
            (Shape::ZeroSize, _) => (0, vec![0x00]),
            (Shape::HugeSize, _) => (0, varint_bytes(u64::from(u32::MAX) + 1 + rng.below(1 << 40))),
            (_, 0..=5) => (4, Vec::new()),
            (Shape::Wraps, _) => {
                let size = 2 + rng.below(0x7e);
                (size, vec![size as u8])
            }
            (_, 6) => (1, vec![0x01]),
            (_, 7) => (0x7f, vec![0x7f]),
            (_, 8) => (4, vec![0x04]),
            (_, 9) => {
                let size = 0x80 + rng.below(u64::from(u32::MAX) - 0x7f);
                (size, varint_bytes(size))
            }
            (_, 10) => (5, vec![0x85, 0x00]),
            _ => {
                let size = 1 + rng.below(0x7f);
                (size, vec![size as u8])
            }
        };
        if !size_bytes.is_empty() {
            flags |= FLAG_SIZED;
        }
        let target = match shape {
            // Past the last byte of memory by exactly one byte.
            Shape::Wraps => Some(u64::MAX - size + 2),
            Shape::At(addr) => Some(addr),
            Shape::ZeroSize if rng.one_in(2) => Some(0),
            _ => None,
        };
        let delta = match (target, rng.below(20)) {
            (Some(addr), _) => varint_bytes(varint::zigzag(addr.wrapping_sub(*prev) as i64)),
            (None, 0) if rng.one_in(4) => vec![0x80, 0x00],
            (None, 0) => {
                // Non-canonical: a last byte of zero bits.
                let mut bytes = varint_bytes(value_of_len(rng, 1, 9));
                *bytes.last_mut().expect("one byte at least") |= 0x80;
                bytes.push(0);
                bytes
            }
            (None, 1..=9) => varint_bytes(rng.below(0x80)),
            (None, 10..=16) => varint_bytes(value_of_len(rng, 2, 6)),
            (None, _) => varint_bytes(value_of_len(rng, 7, 10)),
        };
        let mut end = 0;
        let delta_value = varint::take_i64(&delta, &mut end).expect("a whole varint");
        *prev = prev.wrapping_add(delta_value as u64);
        let (count, count_bytes) = match (shape, rng.below(8)) {
            (Shape::RunLength, _) => (0, varint_bytes(u64::from(u32::MAX) + rng.below(3))),
            (_, 0) => {
                let more = match rng.below(4) {
                    0 => 0,
                    1 => u64::from(u32::MAX) - 1,
                    _ => 1 + rng.below(1000),
                };
                (more + 1, varint_bytes(more))
            }
            _ => (1, Vec::new()),
        };
        if !count_bytes.is_empty() {
            flags |= FLAG_REPEATED;
        }
        if shape == Shape::UnknownFlags {
            flags |= 0x10 << rng.below(4);
        }
        let mut record = vec![flags];
        record.extend(delta);
        record.extend(size_bytes);
        record.extend(count_bytes);
        (record, count)
    }

    /// An ALSC file under key 0 holding `records` and a trailer that
    /// declares `run_count` runs and `ref_count` references.
    fn file_of(records: &[u8], run_count: u64, ref_count: u64) -> Vec<u8> {
        let mut trailer = varint_bytes(run_count);
        trailer.extend(varint_bytes(ref_count));
        trailer.push(0);
        let mut file = encode_stream(0, b"", &[])[..HEADER_LEN].to_vec();
        file.extend(records);
        file.extend(&trailer);
        file.extend((HEADER_LEN as u64 + records.len() as u64).to_le_bytes());
        file.extend(checksum(records).to_le_bytes());
        file.extend(checksum(&trailer).to_le_bytes());
        file
    }

    /// What a loop of [`decode_record`] alone makes of `records`, inside
    /// the count checks of [`StreamReader::decode_chunks`]: the runs it
    /// decoded, and its verdict.
    fn decode_by_record(
        records: &[u8],
        run_count: u64,
        ref_count: u64,
    ) -> (Vec<RefRun>, Result<(), StreamError>) {
        let mut runs = Vec::new();
        if run_count > records.len() as u64 / 2 {
            return (runs, Err(StreamError::Corrupt("run count exceeds payload")));
        }
        let (mut pos, mut prev) = (0, 0);
        while (runs.len() as u64) < run_count {
            match decode_record(records, &mut pos, &mut prev) {
                Ok(run) => runs.push(run),
                Err(e) => return (runs, Err(e)),
            }
        }
        let verdict = if pos != records.len() {
            Err(StreamError::Corrupt("trailing bytes after last record"))
        } else if expand_count(&runs) != ref_count {
            Err(StreamError::Corrupt("reference count mismatch"))
        } else {
            Ok(())
        };
        (runs, verdict)
    }

    #[test]
    fn the_word_loop_decodes_every_record_as_decode_record_does() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let (mut taken, mut walked, mut failed, mut long) = (0, 0, 0, 0);
        for file in 0..60 {
            // Short files, and files of two to four read windows.
            let len = if file % 4 == 0 { 1 + rng.below(300) } else { 20_000 + rng.below(30_000) };
            // One malformed record (files 0-4 of every ten), or the file
            // around them damaged (5-8), or neither (9).
            let fault = MALFORMED.get(file % 10).map(|&shape| (rng.below(len), shape));
            // Records placed well below the top of memory, and near its
            // bottom, bring a wrapping or zero-sized record in reach of a
            // six-byte delta.
            let below_top = |rng: &mut Rng| Shape::At(u64::MAX - (1 << 34) - rng.below(1 << 20));
            let (mut records, mut prev, mut refs) = (Vec::new(), 0, 0);
            for i in 0..len {
                let shape = match fault {
                    Some((at, shape)) if at == i => shape,
                    Some((at, Shape::Wraps)) if at == i + 1 => below_top(&mut rng),
                    Some((at, Shape::ZeroSize)) if at == i + 1 => Shape::At(rng.below(1 << 20)),
                    _ if rng.one_in(1000) => below_top(&mut rng),
                    _ => Shape::Any,
                };
                let (record, count) = mixed_record(&mut rng, &mut prev, shape);
                records.extend(record);
                refs += count;
            }
            let (mut run_count, mut ref_count) = (len, refs);
            match file % 10 {
                5 => drop(records.drain(records.len().saturating_sub(1 + rng.below(8) as usize)..)),
                6 => records.extend((0..1 + rng.below(8)).map(|_| rng.next() as u8)),
                7 => ref_count += 1,
                8 => run_count -= 1,
                _ => {}
            }
            long += usize::from(records.len() > 2 * READ_CHUNK);

            // Record by record: the word loop takes exactly the common
            // records with eight bytes left, each as the run decode_record
            // makes of it, at the same length, and declines every record
            // decode_record refuses.
            let (mut pos, mut prev) = (0, 0);
            let mut one = Vec::with_capacity(1);
            loop {
                let (start, mut at, mut addr) = (pos, pos, prev);
                one.clear();
                let took = decode_common(&records, &mut at, &mut addr, &mut one, 1);
                let Ok(run) = decode_record(&records, &mut pos, &mut prev) else {
                    assert_eq!(took, 0, "file {file}: a malformed record at {start} taken");
                    break;
                };
                let mut delta_end = start + 1;
                varint::take_u64(&records, &mut delta_end);
                let common = records[start] & FLAG_REPEATED == 0
                    && delta_end - start <= 7
                    && pos - delta_end == usize::from(records[start] & FLAG_SIZED != 0)
                    && start + 8 <= records.len();
                assert_eq!(took == 1, common, "file {file}: record at {start}");
                if common {
                    assert_eq!((one[0], at, addr), (run, pos, prev), "file {file} at {start}");
                }
                walked += 1;
                taken += took;
            }

            // The whole file: the same verdict, after the same runs.
            let (runs, verdict) = decode_by_record(&records, run_count, ref_count);
            let bytes = file_of(&records, run_count, ref_count);
            let mut reader = StreamReader::open(io::Cursor::new(&bytes), 0).expect("trailer");
            let mut delivered = Vec::new();
            let chunked = reader.decode_chunks(|chunk| delivered.extend_from_slice(chunk));
            assert_eq!(chunked, verdict, "file {file}");
            if verdict.is_ok() {
                assert_eq!(delivered, runs, "file {file}");
            } else {
                failed += 1;
                assert_eq!(delivered.len() % BATCH_CAPACITY, 0, "file {file}");
                assert!(runs.len() - delivered.len() <= BATCH_CAPACITY, "file {file}");
                assert_eq!(delivered, runs[..delivered.len()], "file {file}");
            }
        }
        // The mix reached every path: most records by word, every fault,
        // files spanning several read windows.
        assert!(taken * 2 > walked, "the word loop took {taken} of {walked} records");
        assert!(failed >= 50, "{failed} of 60 files failed");
        assert!(long >= 30, "{long} files span three read windows");
    }

    /// A file of a few hundred bytes whose records and trailer are not
    /// whole numbers of 32-byte blocks, so damage lands in every lane and
    /// in the tail of both checksums.
    fn lane_test_file() -> Vec<u8> {
        let runs: Vec<RefRun> = (0..70u64)
            .map(|i| RefRun {
                r: MemRef::app_read(Address::new(0x1000 + i * 40), 4 + (i % 3) as u32 * 4),
                count: 1 + (i % 4) as u32,
            })
            .collect();
        let bytes = encode_stream(3, b"driver state", &runs);
        let records = trailer_at(&bytes) - HEADER_LEN;
        let trailer = bytes.len() - FOOTER_LEN - trailer_at(&bytes);
        assert!(bytes.len() >= 200 && !records.is_multiple_of(32), "{records} B of records");
        assert!(!trailer.is_multiple_of(32), "{trailer} B of trailer");
        bytes
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected_by_the_read_that_covers_it() {
        let bytes = lane_test_file();
        assert!(decode_stream(&bytes, 3).is_ok());
        let open = |bytes: &[u8]| StreamReader::open(io::Cursor::new(bytes), 3).map(drop);
        for len in 0..bytes.len() {
            assert!(open(&bytes[..len]).is_err(), "truncation at {len} opened");
        }
        // Opening verifies everything but the records and their checksum
        // in the footer; the decode verifies those.
        let records = HEADER_LEN..trailer_at(&bytes);
        let records_sum = bytes.len() - 16..bytes.len() - 8;
        for byte in 0..bytes.len() {
            let decode_only = records.contains(&byte) || records_sum.contains(&byte);
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert_eq!(open(&bad).is_ok(), decode_only, "bit flip at {byte}.{bit}");
                assert!(decode_stream(&bad, 3).is_err(), "bit flip at {byte}.{bit} decoded");
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
        let mut reader = StreamReader::open(io::Cursor::new(&bytes), 4).expect("valid file");
        let mut sizes = Vec::new();
        let mut joined = Vec::new();
        reader
            .decode_chunks(|chunk| {
                sizes.push(chunk.len());
                joined.extend_from_slice(chunk);
            })
            .expect("decode");
        assert_eq!(sizes, [BATCH_CAPACITY, BATCH_CAPACITY, 5]);
        assert_eq!(joined, runs);
    }

    /// A long stream: two-byte records, sized ones and repeats, about
    /// 3.5 bytes a record, over several write buffers.
    fn long_runs() -> Vec<RefRun> {
        (0..200_000u64)
            .map(|i| RefRun {
                r: MemRef::app_read(Address::new(0x1000 + (i % 5000) * 12), 4 + (i % 3) as u32),
                count: 1 + (i % 7 == 0) as u32,
            })
            .collect()
    }

    /// A writer that remembers its largest write.
    #[derive(Default)]
    struct Largest {
        bytes: Vec<u8>,
        largest: usize,
    }

    impl Write for Largest {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A reader over bytes that remembers its largest read.
    struct Watched<'a> {
        inner: io::Cursor<&'a [u8]>,
        largest: usize,
    }

    impl Read for Watched<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.inner.read(buf)
        }
    }

    impl Seek for Watched<'_> {
        fn seek(&mut self, to: SeekFrom) -> io::Result<u64> {
            self.inner.seek(to)
        }
    }

    #[test]
    fn records_are_written_and_read_in_bounded_pieces() {
        let runs = long_runs();
        let mut encoder = StreamEncoder::new(Largest::default(), 12);
        encoder.push(&runs);
        let written = encoder.finish(b"sidecar").expect("write");
        assert_eq!(written.bytes, encode_stream(12, b"sidecar", &runs));
        assert!(written.bytes.len() > 4 * WRITE_BUFFER, "{} bytes", written.bytes.len());
        assert!(written.largest <= WRITE_BUFFER, "a {}-byte write", written.largest);

        let watched = Watched { inner: io::Cursor::new(&written.bytes), largest: 0 };
        let mut reader = StreamReader::open(watched, 12).expect("valid file");
        let mut decoded = Vec::new();
        reader.decode_chunks(|chunk| decoded.extend_from_slice(chunk)).expect("decode");
        assert_eq!(expand_runs(&decoded), expand_runs(&runs));
        assert!(reader.inner.largest <= READ_CHUNK, "a {}-byte read", reader.inner.largest);
    }

    #[test]
    fn cache_store_open_round_trips_and_misses() {
        let dir = test_dir("cache");
        let cache = StreamCache::new(&dir);
        assert!(matches!(cache.open(1), Ok(None)));
        let runs = sample_runs();
        cache.store(1, b"meta", &runs).expect("store");
        let mut reader = cache.open(1).expect("open").expect("stored file");
        assert_eq!(reader.sidecar(), b"meta");
        let mut decoded = Vec::new();
        reader.decode_chunks(|chunk| decoded.extend_from_slice(chunk)).expect("decode");
        assert_eq!(decoded, runs);
        // Re-storing replaces the file whole.
        cache.store(1, b"meta2", &runs).expect("re-store");
        assert_eq!(cache.open(1).expect("open").expect("stored file").sidecar(), b"meta2");
        assert_eq!(names(&dir), ["0000000000000001.alsc"], "no scratch file is left");
        // Damage the file on disk: the read that covers the damage
        // fails, nothing panics.
        let path = cache.path_for(1);
        let good = std::fs::read(&path).expect("read back");
        let mut bad = good.clone();
        bad[HEADER_LEN + 1] ^= 0x40;
        std::fs::write(&path, &bad).expect("rewrite");
        let mut reader = cache.open(1).expect("the trailer is intact").expect("file");
        assert!(reader.decode_chunks(|_| {}).is_err(), "a damaged record decoded");
        let mut bad = good;
        let in_trailer = bad.len() - FOOTER_LEN - 2;
        bad[in_trailer] ^= 0x40;
        std::fs::write(&path, &bad).expect("rewrite");
        assert_eq!(cache.open(1).err(), Some(StreamError::Corrupt("trailer checksum mismatch")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A writer that takes `left` more bytes, then fails as a full disk
    /// (`/dev/full`) does.
    struct FullAfter<W> {
        inner: W,
        left: usize,
    }

    /// `ENOSPC`, "No space left on device".
    const ENOSPC: i32 = 28;

    impl<W: Write> Write for FullAfter<W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                return Err(io::Error::from_raw_os_error(ENOSPC));
            }
            let n = self.inner.write(&buf[..buf.len().min(self.left)])?;
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn a_full_disk_fails_the_store_and_leaves_no_file() {
        let dir = test_dir("full");
        let runs = long_runs();
        let whole = encode_stream(5, b"sidecar", &runs);
        let records_end = trailer_at(&whole);
        // Failing in the header, the records (first and later buffers),
        // the trailer and the footer, and on the last byte.
        for n in [0, 10, HEADER_LEN, 100, 3 * WRITE_BUFFER + 7, records_end + 1, whole.len() - 1] {
            let file = AtomicFile::create(&dir, "0000000000000005.alsc").expect("scratch file");
            let mut encoder = StreamEncoder::new(FullAfter { inner: file, left: n }, 5);
            for piece in runs.chunks(BATCH_CAPACITY) {
                encoder.push(piece);
            }
            let err = encoder.finish(b"sidecar").err().expect("the disk filled up");
            assert_eq!(err.raw_os_error(), Some(ENOSPC), "full after {n} bytes");
            assert_eq!(names(&dir), Vec::<String>::new(), "full after {n} bytes");
        }
        // With room for the whole file, the same writer commits it.
        let file = AtomicFile::create(&dir, "0000000000000005.alsc").expect("scratch file");
        let mut encoder = StreamEncoder::new(FullAfter { inner: file, left: whole.len() }, 5);
        encoder.push(&runs);
        let full = encoder.finish(b"sidecar").expect("the file fits");
        full.inner.commit(None).expect("commit");
        assert_eq!(std::fs::read(dir.join("0000000000000005.alsc")).expect("committed"), whole);
        assert_eq!(names(&dir).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_abandoned_store_removes_its_scratch_file() {
        let dir = test_dir("abandoned");
        let cache = StreamCache::new(&dir);
        // Dropped unfinished: the scratch file existed while the
        // encoder did, under a name no `.alsc` filter counts.
        let mut encoder = cache.encoder(8);
        encoder.push(&sample_runs());
        let scratch = names(&dir);
        assert!(scratch.len() == 1 && !scratch[0].ends_with(".alsc"), "{scratch:?}");
        drop(encoder);
        assert_eq!(names(&dir), Vec::<String>::new());
        // Unwound by a panic.
        let unwound = std::panic::catch_unwind(|| {
            let mut encoder = cache.encoder(8);
            encoder.push(&sample_runs());
            panic!("the run failed mid-stream");
        });
        assert!(unwound.is_err());
        assert_eq!(names(&dir), Vec::<String>::new());
        // A scratch file that cannot be created fails the commit, not the
        // encoder.
        let file = dir.join("file");
        std::fs::write(&file, b"a regular file").expect("write");
        let under_file = StreamCache::new(file.join("cache"));
        let mut encoder = under_file.encoder(8);
        encoder.push(&sample_runs());
        assert!(under_file.commit(encoder, b"").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_bound_evicts_oldest_written_first() {
        let dir = test_dir("evict");
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
    fn bounded_writes_scan_once_until_the_total_passes_the_bound() {
        let dir = test_dir("total");
        let runs = sample_runs();
        let entry_size = encode_stream(0, b"", &runs).len() as u64;
        let cache = StreamCache::new(&dir).with_max_bytes(Some(4 * entry_size));
        let scans = || SCANS.get();
        let before = scans();

        // Four entries fit: the first write scans to set the total, the
        // other three only add to it.
        for key in 20u64..24 {
            cache.store(key, b"", &runs).expect("store");
        }
        assert_eq!(scans() - before, 1, "writes under the bound list the directory once");
        // Age the entries deterministically: 20 oldest, 23 newest.
        for key in 20u64..24 {
            let age = std::time::Duration::from_secs(5000 - 1000 * (key - 20));
            std::fs::File::options()
                .write(true)
                .open(cache.path_for(key))
                .expect("open")
                .set_modified(std::time::SystemTime::now() - age)
                .expect("set mtime");
        }

        // A fifth passes the bound: one scan evicts the oldest.
        cache.store(24, b"", &runs).expect("store");
        assert_eq!(scans() - before, 2, "crossing the bound scans");
        assert!(!cache.path_for(20).exists(), "oldest entry must be evicted");
        for key in 21u64..25 {
            assert!(cache.path_for(key).exists(), "entry {key} wrongly evicted");
        }
        // The scan reset the total to the four entries left, so a larger
        // bound in the same process adds without scanning again.
        let roomy = StreamCache::new(&dir).with_max_bytes(Some(6 * entry_size));
        roomy.store(25, b"", &runs).expect("store");
        assert_eq!(scans() - before, 2, "the running total survives across caches");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_directory_that_cannot_be_listed_evicts_nothing_and_never_panics() {
        let file = std::env::temp_dir().join(format!("alsc-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, b"a regular file").expect("write");
        // A path under a regular file can be neither created nor listed,
        // even by root.
        let dir = file.join("cache");
        assert_eq!(evict_oldest(&dir, STREAM_EXTENSION, &dir.join("x.alsc"), 0), None);
        assert!(write_bounded(&dir, "x.alsc", b"bytes", 0).is_err());
        assert!(StreamCache::new(&dir).with_max_bytes(Some(0)).store(1, b"", &[]).is_err());
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn concurrent_stores_on_one_key_never_corrupt_or_partially_expose() {
        let dir = test_dir("race");
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
                    let mut reader =
                        cache.open(key).expect("corrupt entry exposed").expect("entry vanished");
                    let mut runs = Vec::new();
                    reader.decode_chunks(|c| runs.extend_from_slice(c)).expect("corrupt records");
                    match reader.sidecar() {
                        b"A" => assert_eq!(runs, runs_a, "torn entry for A"),
                        b"B" => assert_eq!(runs, runs_b, "torn entry for B"),
                        other => panic!("unknown sidecar {other:?}"),
                    }
                }
            });
            writer_a.join().expect("writer A");
            writer_b.join().expect("writer B");
            reader.join().expect("reader");
        });

        // Both final states are valid, and no scratch files leaked.
        let bytes = std::fs::read(cache.path_for(key)).expect("final entry");
        assert!(decode_stream(&bytes, key).is_ok());
        assert_eq!(names(&dir), [format!("{key:016x}.alsc")], "scratch files leaked");
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

        let finish = |encoder: StreamEncoder<Vec<u8>>| encoder.finish(b"sidecar").expect("vec");
        for at in 0..=runs.len() {
            let mut encoder = StreamEncoder::new(Vec::new(), 11);
            encoder.push(&runs[..at]);
            encoder.push(&[]);
            encoder.push(&runs[at..]);
            assert_eq!(finish(encoder), whole, "split at {at}");
        }
        let mut encoder = StreamEncoder::new(Vec::new(), 11);
        for run in &runs {
            encoder.push(std::slice::from_ref(run));
        }
        assert_eq!(finish(encoder), whole, "split at every boundary");
        let empty = StreamEncoder::new(Vec::new(), 11).finish(b"").expect("vec");
        assert_eq!(empty, encode_stream(11, b"", &[]));
    }

    fn expand_count(runs: &[RefRun]) -> u64 {
        runs.iter().map(|run| u64::from(run.count)).sum()
    }
}
