//! Observability primitives for the simulation stack.
//!
//! The design goal is *zero overhead when disabled*: every instrumented
//! component holds an `Option<&mut dyn Recorder>` (or an owned
//! [`NullRecorder`]), so the disabled hot path is a single
//! predictable branch — no allocation, no hashing, no atomic traffic —
//! and the simulated results are bit-identical either way (metrics are
//! recorded *about* the run, never folded *into* it).
//!
//! Three instrument kinds cover everything the engine needs:
//!
//! - **counters** ([`Recorder::add`]) — monotonically increasing event
//!   tallies (batch flushes, channel send stalls, quicklist hits);
//! - **histograms** ([`Recorder::observe`]) — per-event value
//!   distributions in log2 buckets (freelist search length per malloc,
//!   coalesce merges per free);
//! - **phase spans** ([`Recorder::span_ns`]) — accumulated wall-clock
//!   nanoseconds per named phase (allocator drive, cache sweep, shard
//!   finalization, per-sink consume time).
//!
//! Metric names are `&'static str` dotted paths (`"alloc.search_len"`,
//! `"ctx.flush.batches"`) so the hot path never formats strings; the
//! in-memory recorder interns them into `BTreeMap`s only when a metric
//! first appears, which keeps snapshots deterministically ordered for
//! the stable JSONL report schema.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::{Deserialize, Serialize};

pub mod prom;
pub mod tracer;

pub use tracer::{
    chrome_trace_json, TraceReport, TraceSpan, Tracer, MAX_TRACE_SPANS, TRACE_SCHEMA, TRACE_VERSION,
};

/// Canonical metric names emitted by the simulation stack.
///
/// The dotted-path strings are part of the run-report schema (consumers
/// key on them in JSONL metrics), so they are defined once here and
/// referenced by the emitting crates — renaming one is a schema change,
/// not a refactor.
pub mod names {
    /// Freelist nodes visited per `malloc` (histogram).
    pub const SEARCH_LEN: &str = "alloc.search_len";
    /// Boundary-tag merges per `free` (histogram).
    pub const COALESCE_PER_FREE: &str = "alloc.coalesce_per_free";
    /// Boundary-tag words read (counter).
    pub const TAG_READS: &str = "alloc.tag_reads";
    /// Boundary-tag words written (counter).
    pub const TAG_WRITES: &str = "alloc.tag_writes";
    /// Free-storage searches started (counter): one per FirstFit or
    /// BestFit freelist search, BSD malloc, Buddy acquire, and GNU G++
    /// malloc that finds no fit in its own bin. The name dates from
    /// the occupancy bitmaps that once answered these searches; it
    /// stays because run reports carry it.
    pub const BITMAP_PROBE: &str = "alloc.bitmap_probe";
    /// QuickFit mallocs served by popping a non-empty quicklist
    /// (counter); carves from the tail region are not counted.
    pub const QUICK_HIT: &str = "alloc.quick_hit";
    /// Boundary-tag merges of adjacent free blocks (counter): one per
    /// coalesce the FirstFit, BestFit, GNU G++ and Buddy allocators
    /// count in `AllocStats::coalesces`.
    pub const BOUNDARY_COALESCE: &str = "alloc.boundary_coalesce";
}

/// Sink for metrics emitted while a simulation runs.
///
/// Implementations must be cheap: `add`/`observe` sit on the per-malloc
/// path of the allocators and the per-flush path of the reference
/// pipeline. The trait is object-safe on purpose — instrumented code
/// holds `&mut dyn Recorder` so enabling metrics never changes the
/// monomorphized simulation code (and thus cannot perturb results).
pub trait Recorder {
    /// Whether this recorder keeps anything. Instrumented code may use
    /// this to skip *computing* an expensive value, never to change
    /// simulated behavior.
    fn enabled(&self) -> bool;

    /// Adds `delta` to the counter `name`.
    fn add(&mut self, name: &'static str, delta: u64);

    /// Records one observation of `value` in the histogram `name`.
    fn observe(&mut self, name: &'static str, value: u64);

    /// Accumulates `nanos` of wall time under the phase span `name`.
    fn span_ns(&mut self, name: &'static str, nanos: u64);

    /// Opens a *hierarchical* span named `name`, nested under the
    /// innermost span still open on this recorder.
    ///
    /// Default-implemented as a no-op: flat recorders
    /// ([`NullRecorder`], [`MemoryRecorder`]) ignore span structure
    /// entirely, so instrumenting a call site with enter/exit costs
    /// nothing — not even a clock read — unless a [`tracer::Tracer`] is
    /// attached. Calls must balance: one [`Recorder::span_exit`] per
    /// enter, well nested.
    fn span_enter(&mut self, _name: &'static str) {}

    /// Closes the innermost span opened by [`Recorder::span_enter`].
    /// Default no-op, mirroring `span_enter`.
    fn span_exit(&mut self) {}
}

/// The disabled recorder: every method is an inline empty body, so the
/// compiler reduces an instrumented call site to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn add(&mut self, _name: &'static str, _delta: u64) {}

    #[inline(always)]
    fn observe(&mut self, _name: &'static str, _value: u64) {}

    #[inline(always)]
    fn span_ns(&mut self, _name: &'static str, _nanos: u64) {}

    #[inline(always)]
    fn span_enter(&mut self, _name: &'static str) {}

    #[inline(always)]
    fn span_exit(&mut self) {}
}

/// Forwarding impl so `&mut R` is itself a recorder (mirrors
/// `sim_mem::AccessSink` idiom; lets callers lend a recorder without
/// giving it up).
impl<R: Recorder + ?Sized> Recorder for &mut R {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn add(&mut self, name: &'static str, delta: u64) {
        (**self).add(name, delta);
    }

    #[inline]
    fn observe(&mut self, name: &'static str, value: u64) {
        (**self).observe(name, value);
    }

    #[inline]
    fn span_ns(&mut self, name: &'static str, nanos: u64) {
        (**self).span_ns(name, nanos);
    }

    #[inline]
    fn span_enter(&mut self, name: &'static str) {
        (**self).span_enter(name);
    }

    #[inline]
    fn span_exit(&mut self) {
        (**self).span_exit();
    }
}

/// Number of log2 buckets: bucket `i` holds values whose bit length is
/// `i`, i.e. bucket 0 = {0}, bucket 1 = {1}, bucket 2 = {2,3},
/// bucket 3 = {4..7}, ... bucket 64 = {2^63..}.
pub const HIST_BUCKETS: usize = 65;

/// A log2-bucketed histogram with exact count/sum/min/max.
///
/// Buckets are a fixed inline array: recording is an increment at a
/// computed index, never an allocation, so histograms are safe on the
/// per-malloc path.
#[derive(Debug, Clone)]
pub struct Hist {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Hist { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; HIST_BUCKETS] }
    }
}

impl Hist {
    /// Index of the bucket holding `value` (its bit length).
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive lower bound of bucket `i` (0, 1, 2, 4, 8, ...).
    pub fn bucket_floor(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (`p` in `0.0..=1.0`), resolved to the
    /// inclusive lower bound of the log2 bucket holding the rank —
    /// exact bucket arithmetic, no interpolation, so p50/p90/p99 are
    /// reproducible from any serialized snapshot. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        percentile_of(
            self.count,
            self.max,
            p,
            self.buckets.iter().enumerate().map(|(i, &n)| (Self::bucket_floor(i), n)),
        )
    }

    /// Converts to the serializable snapshot form, dropping empty
    /// buckets.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            mean: self.mean(),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n != 0)
                .map(|(i, &n)| (Self::bucket_floor(i), n))
                .collect(),
        }
    }
}

/// Serializable form of a [`Hist`]: summary stats plus the non-empty
/// log2 buckets as `(inclusive_lower_bound, count)` pairs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// Non-empty log2 buckets, ascending by lower bound.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    /// [`Hist::percentile`] over the serialized bucket form, so
    /// consumers of a JSON report resolve the same bucket floors the
    /// live histogram would.
    pub fn percentile(&self, p: f64) -> u64 {
        percentile_of(self.count, self.max, p, self.buckets.iter().copied())
    }
}

/// Shared percentile walk: the rank of `p` (1-based, ceiling) located
/// in a cumulative scan of `(bucket_floor, count)` pairs in ascending
/// floor order.
fn percentile_of(count: u64, max: u64, p: f64, buckets: impl Iterator<Item = (u64, u64)>) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((p.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (floor, n) in buckets {
        seen += n;
        if seen >= rank {
            return floor;
        }
    }
    max
}

/// Serializable form of an accumulated phase span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SpanSnapshot {
    /// How many times the phase was entered.
    pub count: u64,
    /// Total wall time across entries, in nanoseconds.
    pub total_ns: u64,
}

/// Everything a recorder gathered, in deterministic (sorted-name)
/// order — the `metrics` payload of a run report.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter name -> total.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name -> snapshot.
    pub histograms: BTreeMap<String, HistSnapshot>,
    /// Span name -> accumulated wall time.
    pub spans: BTreeMap<String, SpanSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value, 0 when never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms.get(name)
    }

    /// Span by name.
    pub fn span(&self, name: &str) -> Option<SpanSnapshot> {
        self.spans.get(name).copied()
    }

    /// Merges another snapshot into this one (counters and spans add,
    /// histogram summaries and buckets combine). Used to fold
    /// per-worker recorders into one run-level snapshot.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            let into = self.histograms.entry(name.clone()).or_default();
            if into.count == 0 {
                *into = h.clone();
                continue;
            }
            if h.count == 0 {
                continue;
            }
            into.min = into.min.min(h.min);
            into.max = into.max.max(h.max);
            into.count += h.count;
            into.sum += h.sum;
            into.mean = into.sum as f64 / into.count as f64;
            let mut merged: BTreeMap<u64, u64> = into.buckets.iter().copied().collect();
            for &(floor, n) in &h.buckets {
                *merged.entry(floor).or_insert(0) += n;
            }
            into.buckets = merged.into_iter().collect();
        }
        for (name, s) in &other.spans {
            let into = self.spans.entry(name.clone()).or_default();
            into.count += s.count;
            into.total_ns += s.total_ns;
        }
    }
}

/// The enabled recorder: accumulates everything in memory, keyed by
/// metric name in `BTreeMap`s so snapshots serialize in a stable order.
#[derive(Debug, Clone, Default)]
pub struct MemoryRecorder {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Hist>,
    spans: BTreeMap<&'static str, SpanSnapshot>,
}

impl MemoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        MemoryRecorder::default()
    }

    /// Counter value, 0 when never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Hist> {
        self.histograms.get(name)
    }

    /// Freezes the current state into a serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(&k, h)| (k.to_string(), h.snapshot()))
                .collect(),
            spans: self.spans.iter().map(|(&k, &s)| (k.to_string(), s)).collect(),
        }
    }
}

impl Recorder for MemoryRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    #[inline]
    fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    #[inline]
    fn span_ns(&mut self, name: &'static str, nanos: u64) {
        let s = self.spans.entry(name).or_default();
        s.count += 1;
        s.total_ns += nanos;
    }
}

/// Minimal wall-clock stopwatch for phase spans.
///
/// Callers time a phase with `let t = Stopwatch::start(); ...;
/// rec.span_ns("phase", t.elapsed_ns());` — explicit rather than a
/// drop-guard so the recorder borrow is only taken at the recording
/// point.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch { started: Instant::now() }
    }

    /// Nanoseconds since [`Stopwatch::start`], saturated to `u64`.
    pub fn elapsed_ns(&self) -> u64 {
        let d = self.started.elapsed();
        d.as_secs().saturating_mul(1_000_000_000).saturating_add(u64::from(d.subsec_nanos()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_inert() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.add("x", 3);
        r.observe("y", 9);
        r.span_ns("z", 100);
    }

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(Hist::bucket_index(0), 0);
        assert_eq!(Hist::bucket_index(1), 1);
        assert_eq!(Hist::bucket_index(2), 2);
        assert_eq!(Hist::bucket_index(3), 2);
        assert_eq!(Hist::bucket_index(4), 3);
        assert_eq!(Hist::bucket_index(7), 3);
        assert_eq!(Hist::bucket_index(8), 4);
        assert_eq!(Hist::bucket_index(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            assert_eq!(Hist::bucket_index(Hist::bucket_floor(i)), i, "floor of bucket {i}");
        }
    }

    #[test]
    fn hist_summary_and_buckets() {
        let mut h = Hist::default();
        for v in [0, 1, 1, 5, 16] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 23);
        assert!((h.mean() - 4.6).abs() < 1e-12);
        let s = h.snapshot();
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 16);
        assert_eq!(s.buckets, vec![(0, 1), (1, 2), (4, 1), (16, 1)]);
    }

    #[test]
    fn empty_hist_snapshot_is_zeroed() {
        let s = Hist::default().snapshot();
        assert_eq!(s, HistSnapshot::default());
    }

    #[test]
    fn percentile_resolves_bucket_floors() {
        let mut h = Hist::default();
        // 90 cheap observations in bucket [8..16), 10 slow in [1024..2048).
        for _ in 0..90 {
            h.record(9);
        }
        for _ in 0..10 {
            h.record(1500);
        }
        assert_eq!(h.percentile(0.50), 8);
        assert_eq!(h.percentile(0.90), 8, "rank 90 is the last cheap observation");
        assert_eq!(h.percentile(0.91), 1024);
        assert_eq!(h.percentile(0.99), 1024);
        assert_eq!(h.percentile(1.0), 1024);
        assert_eq!(h.percentile(0.0), 8, "p0 clamps to the first rank");
        // The snapshot resolves identically.
        let s = h.snapshot();
        for p in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.percentile(p), h.percentile(p), "p{p}");
        }
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(Hist::default().percentile(0.99), 0, "empty histogram");
        let mut one = Hist::default();
        one.record(42);
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.percentile(p), 32, "single value resolves to its bucket floor");
        }
        let mut zeros = Hist::default();
        zeros.record(0);
        zeros.record(0);
        assert_eq!(zeros.percentile(0.99), 0);
    }

    #[test]
    fn flat_recorders_ignore_hierarchical_spans() {
        // The default span_enter/span_exit bodies keep NullRecorder and
        // MemoryRecorder byte-for-byte indifferent to span structure.
        let mut null = NullRecorder;
        null.span_enter("phase");
        null.span_exit();
        let mut mem = MemoryRecorder::new();
        mem.span_enter("phase");
        mem.add("c", 1);
        mem.span_exit();
        let mut plain = MemoryRecorder::new();
        plain.add("c", 1);
        assert_eq!(mem.snapshot(), plain.snapshot());
    }

    #[test]
    fn memory_recorder_accumulates_and_snapshots_sorted() {
        let mut r = MemoryRecorder::new();
        r.add("b.count", 2);
        r.add("a.count", 1);
        r.add("b.count", 3);
        r.observe("h", 4);
        r.span_ns("phase", 10);
        r.span_ns("phase", 5);
        assert!(r.enabled());
        assert_eq!(r.counter("b.count"), 5);
        let s = r.snapshot();
        let names: Vec<&str> = s.counters.keys().map(String::as_str).collect();
        assert_eq!(names, ["a.count", "b.count"]);
        assert_eq!(s.counter("a.count"), 1);
        assert_eq!(s.histogram("h").unwrap().count, 1);
        assert_eq!(s.span("phase").unwrap(), SpanSnapshot { count: 2, total_ns: 15 });
    }

    #[test]
    fn snapshot_merge_folds_counters_hists_spans() {
        let mut a = MemoryRecorder::new();
        a.add("c", 1);
        a.observe("h", 2);
        a.span_ns("s", 7);
        let mut b = MemoryRecorder::new();
        b.add("c", 4);
        b.add("only_b", 9);
        b.observe("h", 40);
        b.observe("h2", 1);
        b.span_ns("s", 3);

        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counter("c"), 5);
        assert_eq!(m.counter("only_b"), 9);
        let h = m.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 42);
        assert_eq!(h.min, 2);
        assert_eq!(h.max, 40);
        assert_eq!(h.buckets, vec![(2, 1), (32, 1)]);
        assert_eq!(m.histogram("h2").unwrap().count, 1);
        assert_eq!(m.span("s").unwrap(), SpanSnapshot { count: 2, total_ns: 10 });
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut r = MemoryRecorder::new();
        r.add("alloc.quicklist_hits", 12);
        r.observe("alloc.search_len", 0);
        r.observe("alloc.search_len", 33);
        r.span_ns("engine.drive", 1234);
        let s = r.snapshot();
        let text = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, s);
    }
}
