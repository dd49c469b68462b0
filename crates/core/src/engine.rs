//! The trace-driven experiment engine.

use std::error::Error;
use std::fmt;

use allocators::first_fit::FirstFitConfig;
use allocators::gnu_gxx::GnuGxxConfig;
use allocators::gnu_local::GnuLocalConfig;
use allocators::{
    AllocError, AllocStats, Allocator, AllocatorKind, BestFit, Bsd, BsdConfig, Buddy, Custom,
    FirstFit, GnuGxx, GnuLocal, Predictive, PredictiveConfig, QuickFit, QuickFitConfig, SizeMap,
    SizeProfile,
};
use cache_sim::{
    CacheConfig, CacheStats, SweepCache, ThreeC, ThreeCAnalyzer, TwoLevelCache, TwoLevelStats,
    VictimCache, VictimStats,
};
use obs::{MemoryRecorder, Recorder, Stopwatch};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};
use sim_mem::stream::{
    fnv1a, open_stream, Fnv64, StreamCache, StreamEncoder, StreamView, STREAM_FORMAT_VERSION,
};
use sim_mem::{
    AccessSink, Address, CountingSink, HeapImage, InstrCounter, MemCtx, MemRef, Phase, RefRun,
    TraceStats,
};
use vm_sim::{FaultCurve, StackSim};
use workloads::{AppEvent, Program, Scale, WorkloadSpec};

use crate::model::TimeEstimate;

/// Default workload scale for the repro harness: 2% of the paper's
/// allocation counts, far past each model's steady state (see
/// EXPERIMENTS.md for the scale used in the recorded results).
pub const DEFAULT_SCALE: Scale = Scale(0.02);

/// How many allocations to sample when deriving a [`SizeProfile`] for
/// the synthesized allocator.
pub const PROFILE_SAMPLES: u64 = 20_000;

/// Simulation options for one run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Cache configurations simulated in one pass (empty to skip). One
    /// [`SweepCache`] per distinct block size simulates its members in
    /// a single walk, whatever their associativity, bit-identical to
    /// one [`cache_sim::Cache`] per configuration; results come back in
    /// this order, duplicates included.
    pub cache_configs: Vec<CacheConfig>,
    /// Whether to run the LRU stack-distance pager.
    pub paging: bool,
    /// Workload scale.
    pub scale: Scale,
    /// Simulated heap ceiling in bytes.
    pub heap_limit: u64,
    /// Attach a victim buffer of this many entries to the first cache
    /// configuration (Jouppi's conflict-miss remedy; extension study).
    pub victim_entries: Option<usize>,
    /// Run three-C miss classification against the first cache
    /// configuration.
    pub three_c: bool,
    /// Simulate the Mogul & Borg-style two-level hierarchy (16K
    /// direct-mapped L1 over 256K 4-way L2).
    pub two_level: bool,
    /// Sample heap usage every this many allocations (0 = off),
    /// producing [`RunResult::frag_curve`] — live bytes vs. bytes
    /// requested from the OS over time, the paper's space-efficiency
    /// story as a curve.
    pub frag_sample_every: u64,
    /// Persistent stream-cache directory. When set, a run first looks
    /// for its captured reference stream (keyed by the run's *driver
    /// identity* — program, allocator, scale, seed) under this
    /// directory and, on a hit, decodes the stream straight into the
    /// sinks, skipping workload generation and allocator
    /// simulation entirely. On a miss the run executes normally and
    /// stores its stream for the next time. Results are bit-identical
    /// either way.
    pub stream_cache: Option<std::path::PathBuf>,
    /// Size bound in bytes for the stream-cache directory. After each
    /// store, the oldest-written stream files are evicted until the
    /// directory fits (the entry just written is spared). `None` =
    /// unbounded, the historical behavior.
    pub stream_cache_bytes: Option<u64>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            cache_configs: CacheConfig::paper_sweep(),
            paging: true,
            scale: DEFAULT_SCALE,
            heap_limit: sim_mem::heap::DEFAULT_LIMIT,
            victim_entries: None,
            three_c: false,
            two_level: false,
            frag_sample_every: 0,
            stream_cache: None,
            stream_cache_bytes: None,
        }
    }
}

/// Which allocator a run uses: the paper's five, the synthesized
/// allocator, the Table 6 tagged variant, or tuned ablation variants.
#[derive(Debug, Clone)]
pub enum AllocChoice {
    /// One of the paper's five allocators.
    Paper(AllocatorKind),
    /// The synthesized allocator, profiled on the workload itself.
    Custom,
    /// Best fit over the FIRSTFIT block layout: the rest of the
    /// sequential-fit family the paper's conclusions indict.
    BestFit,
    /// Binary buddy: Standish's third taxonomy category (§2.1).
    Buddy,
    /// The synthesized allocator with pure bounded-fragmentation classes
    /// (no profile), for the size-class ablation.
    CustomBounded(f64),
    /// GNU LOCAL with emulated 8-byte boundary tags (Table 6).
    GnuLocalTagged,
    /// The call-site lifetime predictor (§5.1 future work, Barrett &
    /// Zorn).
    Predictive,
    /// FIRSTFIT with explicit knobs (ablations: split threshold,
    /// coalescing, roving pointer).
    FirstFitTuned(FirstFitConfig),
    /// GNU G++ with explicit knobs.
    GnuGxxTuned(GnuGxxConfig),
    /// QUICKFIT with an explicit fast-list payload bound.
    QuickFitTuned(QuickFitConfig),
    /// BSD with explicit rounding classes.
    BsdTuned(BsdConfig),
    /// PREDICTIVE with an explicit working-set clock.
    PredictiveTuned(PredictiveConfig),
}

impl AllocChoice {
    /// The five paper allocators, in figure order.
    pub fn paper_five() -> Vec<AllocChoice> {
        AllocatorKind::ALL.into_iter().map(AllocChoice::Paper).collect()
    }

    /// Display label used in result tables.
    pub fn label(&self) -> String {
        match self {
            AllocChoice::Paper(k) => k.label().to_string(),
            AllocChoice::Custom => "Custom".to_string(),
            AllocChoice::BestFit => "BestFit".to_string(),
            AllocChoice::Buddy => "Buddy".to_string(),
            AllocChoice::Predictive => "Predictive".to_string(),
            AllocChoice::CustomBounded(b) => format!("Custom(bound={b})"),
            AllocChoice::GnuLocalTagged => "GNU local (w/tags)".to_string(),
            AllocChoice::FirstFitTuned(c) => format!(
                "FirstFit(split={},coalesce={},roving={})",
                c.split_threshold, c.coalesce, c.roving
            ),
            AllocChoice::GnuGxxTuned(c) => {
                format!("GNU G++(split={},coalesce={})", c.split_threshold, c.coalesce)
            }
            AllocChoice::QuickFitTuned(c) => format!("QuickFit(fast_max={})", c.fast_max),
            AllocChoice::BsdTuned(c) => format!("BSD(min_shift={})", c.min_shift),
            AllocChoice::PredictiveTuned(c) => {
                format!("Predictive(short_age={})", c.short_age)
            }
        }
    }

    fn build(
        &self,
        ctx: &mut MemCtx<'_>,
        source: &WorkloadSource,
    ) -> Result<Box<dyn Allocator>, AllocError> {
        Ok(match self {
            AllocChoice::Paper(k) => k.build(ctx)?,
            AllocChoice::Custom => {
                let profile = match source {
                    WorkloadSource::Spec(spec) => sample_profile(spec, PROFILE_SAMPLES),
                    WorkloadSource::Events(events) => {
                        profile_from_events(events.iter().copied(), PROFILE_SAMPLES)
                    }
                };
                Box::new(Custom::from_profile(ctx, &profile)?)
            }
            AllocChoice::BestFit => Box::new(BestFit::new(ctx)?),
            AllocChoice::Buddy => Box::new(Buddy::new(ctx)?),
            AllocChoice::Predictive => Box::new(Predictive::new(ctx)?),
            AllocChoice::CustomBounded(bound) => {
                Box::new(Custom::with_size_map(ctx, SizeMap::bounded_fragmentation(*bound))?)
            }
            AllocChoice::GnuLocalTagged => Box::new(GnuLocal::with_config(
                ctx,
                GnuLocalConfig { emulate_boundary_tags: true },
            )?),
            AllocChoice::FirstFitTuned(cfg) => Box::new(FirstFit::with_config(ctx, *cfg)?),
            AllocChoice::GnuGxxTuned(cfg) => Box::new(GnuGxx::with_config(ctx, *cfg)?),
            AllocChoice::QuickFitTuned(cfg) => Box::new(QuickFit::with_config(ctx, *cfg)?),
            AllocChoice::BsdTuned(cfg) => Box::new(Bsd::with_config(ctx, *cfg)?),
            AllocChoice::PredictiveTuned(cfg) => Box::new(Predictive::with_config(ctx, *cfg)?),
        })
    }
}

/// Derives an allocation-size profile by sampling the workload's own
/// request stream — the paper's "empirical measurements of a particular
/// program's behaviour".
pub fn sample_profile(spec: &WorkloadSpec, samples: u64) -> SizeProfile {
    profile_from_events(spec.events(Scale(1.0)), samples)
}

/// Collects a size profile from the first `samples` allocations of any
/// event stream.
pub fn profile_from_events(
    events: impl IntoIterator<Item = AppEvent>,
    samples: u64,
) -> SizeProfile {
    let mut profile = SizeProfile::new();
    let mut seen = 0;
    for event in events {
        if let AppEvent::Malloc { size, .. } = event {
            profile.record(size);
            seen += 1;
            if seen >= samples {
                break;
            }
        }
    }
    profile
}

/// One fragmentation sample: `(allocations so far, live granted bytes,
/// heap bytes obtained from the OS)`.
pub type FragSample = (u64, u64, u64);

/// Everything measured by one (program, allocator) run.
///
/// `PartialEq` is part of the contract: the engine's delivery paths
/// (generated or replayed streams, metrics on/off) are
/// equivalence-tested by comparing whole results for bit-identity, and
/// its sweeps' cache results against one independent cache per
/// configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Program label ("espresso", "GS", ...).
    pub program: String,
    /// Allocator label ("FirstFit", "BSD", ...).
    pub allocator: String,
    /// Scale the run used.
    pub scale: f64,
    /// Instruction counts by phase (app / malloc / free).
    pub instrs: InstrCounter,
    /// Reference counts and bytes by class.
    pub trace: TraceStats,
    /// Per-configuration cache statistics.
    pub cache: Vec<(CacheConfig, CacheStats)>,
    /// Page-fault curve, if paging was simulated.
    pub fault_curve: Option<FaultCurve>,
    /// Victim-cache statistics, if requested.
    pub victim: Option<VictimStats>,
    /// Three-C miss classification, if requested.
    pub three_c: Option<ThreeC>,
    /// Two-level hierarchy statistics, if requested.
    pub two_level: Option<TwoLevelStats>,
    /// [`FragSample`] points, if fragmentation sampling was enabled.
    #[serde(default)]
    pub frag_curve: Vec<FragSample>,
    /// Peak bytes obtained from the simulated operating system.
    pub heap_high_water: u64,
    /// The allocator's own statistics.
    pub alloc_stats: AllocStats,
}

impl RunResult {
    /// Word-granular data references (the paper's `D`).
    pub fn data_refs(&self) -> u64 {
        self.trace.total_words()
    }

    /// Cache statistics for a configuration simulated in this run.
    pub fn cache_stats(&self, config: CacheConfig) -> Option<&CacheStats> {
        self.cache.iter().find(|(c, _)| *c == config).map(|(_, s)| s)
    }

    /// Data-cache miss rate for a configuration.
    pub fn miss_rate(&self, config: CacheConfig) -> Option<f64> {
        self.cache_stats(config).map(CacheStats::miss_rate)
    }

    /// The paper's execution-time estimate for a simulated configuration.
    pub fn time_estimate(&self, config: CacheConfig, penalty: u64) -> Option<TimeEstimate> {
        self.cache_stats(config).map(|s| TimeEstimate {
            instructions: self.instrs.total(),
            misses: s.misses(),
            penalty,
        })
    }

    /// Fraction of instructions inside malloc/free (Figure 1).
    pub fn alloc_fraction(&self) -> f64 {
        self.instrs.alloc_fraction()
    }
}

/// Errors from the experiment engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The allocator failed (out of simulated memory, or a bug surfaced
    /// as an invalid free).
    Alloc {
        /// The failing operation's event ordinal.
        at_event: u64,
        /// The underlying allocator error.
        source: AllocError,
    },
    /// The event stream broke the id contract of [`AppEvent`]: ids are
    /// allocation ordinals, and only live objects are freed or touched.
    Event {
        /// The offending event's ordinal.
        at_event: u64,
        /// What the event got wrong.
        fault: EventFault,
    },
}

/// How an event broke the [`AppEvent`] id contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventFault {
    /// A `Malloc` named an id other than its allocation ordinal.
    MallocOutOfOrder {
        /// The id the event named.
        id: u64,
        /// The stream's next allocation ordinal.
        expected: u64,
    },
    /// A `Free` named an object that is not live.
    FreeOfDead {
        /// The id the event named.
        id: u64,
    },
    /// An `Access` named an object that is not live.
    AccessOfDead {
        /// The id the event named.
        id: u64,
    },
}

impl fmt::Display for EventFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EventFault::MallocOutOfOrder { id, expected } => {
                write!(f, "malloc of id {id}, expected allocation ordinal {expected}")
            }
            EventFault::FreeOfDead { id } => write!(f, "free of id {id}, which is not live"),
            EventFault::AccessOfDead { id } => write!(f, "access to id {id}, which is not live"),
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Alloc { at_event, source } => {
                write!(f, "allocator failed at event {at_event}: {source}")
            }
            EngineError::Event { at_event, fault } => {
                write!(f, "malformed event stream at event {at_event}: {fault}")
            }
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Alloc { source, .. } => Some(source),
            EngineError::Event { .. } => None,
        }
    }
}

/// The address of live object `id` in the driver's object table, or
/// `None` when `id` names no live object.
fn live_object(objects: &[Address], id: u64) -> Option<Address> {
    let addr = *objects.get(usize::try_from(id).ok()?)?;
    (!addr.is_null()).then_some(addr)
}

/// Synthesizes stack/static data traffic: runs of consecutive words
/// inside a small segment below the heap, sweeping up and down as a call
/// stack does. The segment is hot — it fits any simulated cache — which
/// is exactly why real programs' overall data miss rates are far lower
/// than their heap-only miss rates.
#[derive(Debug)]
struct StackWalker {
    /// Current offset (bytes) within the segment.
    pos: u64,
    /// Direction of the sweep: grows toward `STACK_SEGMENT_BYTES`, then
    /// shrinks back.
    growing: bool,
}

/// Base address of the simulated stack segment (below the heap).
const STACK_BASE: u64 = 0x0800_0000;

/// Active stack window in bytes.
const STACK_SEGMENT_BYTES: u64 = 4096;

/// Words touched per emitted stack reference.
const STACK_RUN_WORDS: u64 = 8;

impl StackWalker {
    fn new() -> Self {
        StackWalker { pos: 0, growing: true }
    }

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

/// One independent consumer of the reference stream.
///
/// Every measurement the engine takes is a fold over the stream that
/// shares no state with its peers. Shards are kept in a canonical order
/// (sweeps in the order their block sizes first appear among the cache
/// configurations, then pager, victim, three-C, two-level); results are
/// reassembled in configuration order.
enum SinkShard {
    /// The cache configurations of one block size in one single-pass
    /// sweep.
    Sweep(SweepCache),
    Pager(Box<StackSim>),
    Victim(VictimCache),
    ThreeC(ThreeCAnalyzer),
    TwoLevel(TwoLevelCache),
}

impl SinkShard {
    /// Stable metric label for this shard kind; per-shard consume time
    /// is accumulated under `span:<label>` (one span per sweep, so a
    /// geometry with two block sizes records `sink.sweep` twice).
    fn label(&self) -> &'static str {
        match self {
            SinkShard::Sweep(_) => "sink.sweep",
            SinkShard::Pager(_) => "sink.pager",
            SinkShard::Victim(_) => "sink.victim",
            SinkShard::ThreeC(_) => "sink.three_c",
            SinkShard::TwoLevel(_) => "sink.two_level",
        }
    }

    /// References this shard swallowed via its O(1) run-repeat fast
    /// path, when the shard kind tracks it (the PR 2 optimization the
    /// recorder makes visible).
    fn fastpath_refs(&self) -> Option<(&'static str, u64)> {
        match self {
            SinkShard::Sweep(s) => Some(("sink.sweep.fastpath_refs", s.fastpath_refs())),
            SinkShard::Pager(p) => Some(("sink.pager.fastpath_refs", p.fastpath_refs())),
            _ => None,
        }
    }
}

impl AccessSink for SinkShard {
    fn record(&mut self, r: MemRef) {
        match self {
            SinkShard::Sweep(s) => s.record(r),
            SinkShard::Pager(s) => s.record(r),
            SinkShard::Victim(s) => s.record(r),
            SinkShard::ThreeC(s) => s.record(r),
            SinkShard::TwoLevel(s) => s.record(r),
        }
    }

    fn record_runs(&mut self, runs: &[RefRun]) {
        match self {
            SinkShard::Sweep(s) => s.record_runs(runs),
            SinkShard::Pager(s) => s.record_runs(runs),
            SinkShard::Victim(s) => s.record_runs(runs),
            SinkShard::ThreeC(s) => s.record_runs(runs),
            SinkShard::TwoLevel(s) => s.record_runs(runs),
        }
    }
}

/// The run's shards behind the one delivery routine every path shares:
/// cold runs deliver `MemCtx`'s flushed batches, warm replays their
/// decoded stream in chunks of at most [`sim_mem::BATCH_CAPACITY`] runs.
/// Each delivery goes to every shard, in canonical order, before the
/// next one arrives.
struct ShardSet {
    shards: Vec<SinkShard>,
    /// Per-shard consume time in nanoseconds, aligned with `shards` and
    /// accumulated across deliveries. `None` (the uninstrumented path)
    /// skips the clock reads entirely, so metrics-off runs pay nothing.
    timings: Option<Vec<u64>>,
}

impl ShardSet {
    fn new(shards: Vec<SinkShard>, timed: bool) -> Self {
        let timings = timed.then(|| vec![0u64; shards.len()]);
        ShardSet { shards, timings }
    }

    /// Feeds one chunk of the stream to every shard.
    fn deliver(&mut self, runs: &[RefRun]) {
        match &mut self.timings {
            None => {
                for shard in &mut self.shards {
                    shard.record_runs(runs);
                }
            }
            Some(times) => {
                for (shard, spent) in self.shards.iter_mut().zip(times.iter_mut()) {
                    let sw = Stopwatch::start();
                    shard.record_runs(runs);
                    *spent += sw.elapsed_ns();
                }
            }
        }
    }

    /// Records each shard's consume time under its [`SinkShard::label`]
    /// — once per shard, however many deliveries it took, so span counts
    /// do not depend on the stream's length — and its fast-path count.
    fn record(&self, rec: &mut dyn Recorder) {
        if let Some(times) = &self.timings {
            for (shard, &spent) in self.shards.iter().zip(times) {
                rec.span_ns(shard.label(), spent);
            }
        }
        for shard in &self.shards {
            if let Some((name, refs)) = shard.fastpath_refs() {
                rec.add(name, refs);
            }
        }
    }
}

/// A cold run's sink set: the counting sink and every shard consume each
/// batch in turn on the driving thread, and a populating run's stream
/// encoder takes it last.
struct InlineSink<'e> {
    counting: CountingSink,
    set: ShardSet,
    encoder: Option<&'e mut StreamEncoder>,
}

impl AccessSink for InlineSink<'_> {
    fn record(&mut self, r: MemRef) {
        self.record_runs(&[RefRun::once(r)]);
    }

    fn record_runs(&mut self, runs: &[RefRun]) {
        self.counting.record_runs(runs);
        self.set.deliver(runs);
        if let Some(encoder) = &mut self.encoder {
            encoder.push(runs);
        }
    }
}

/// Collects the run-compressed reference stream exactly as a sink shard
/// would see it: the concatenation of every flushed batch, preserving
/// run boundaries (including splits at batch edges).
struct RunCollector {
    runs: Vec<RefRun>,
}

impl AccessSink for RunCollector {
    fn record(&mut self, r: MemRef) {
        self.runs.push(RefRun::once(r));
    }

    fn record_runs(&mut self, runs: &[RefRun]) {
        self.runs.extend_from_slice(runs);
    }
}

/// Tees every metric into an internal [`MemoryRecorder`] — whose frozen
/// snapshot becomes the stream file's sidecar — and, when the caller
/// attached one, the caller's recorder too. Both therefore observe
/// byte-identical metrics on a populating run, which is what lets a
/// later replay hand back the stored snapshot as *the* metrics of the
/// run and keep `RunReport` lines byte-identical to the generated ones.
struct TeeRecorder<'a> {
    mem: MemoryRecorder,
    user: Option<&'a mut dyn Recorder>,
}

impl Recorder for TeeRecorder<'_> {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&mut self, name: &'static str, delta: u64) {
        self.mem.add(name, delta);
        if let Some(user) = &mut self.user {
            user.add(name, delta);
        }
    }

    fn observe(&mut self, name: &'static str, value: u64) {
        self.mem.observe(name, value);
        if let Some(user) = &mut self.user {
            user.observe(name, value);
        }
    }

    fn span_ns(&mut self, name: &'static str, nanos: u64) {
        self.mem.span_ns(name, nanos);
        if let Some(user) = &mut self.user {
            user.span_ns(name, nanos);
        }
    }

    // Hierarchical spans exist only in the caller's recorder (a
    // `Tracer`, typically); the internal `MemoryRecorder` — and thus
    // the sidecar snapshot replays reuse — never sees span structure,
    // so traced and untraced populating runs freeze identical sidecars.
    fn span_enter(&mut self, name: &'static str) {
        if let Some(user) = &mut self.user {
            user.span_enter(name);
        }
    }

    fn span_exit(&mut self) {
        if let Some(user) = &mut self.user {
            user.span_exit();
        }
    }
}

/// Everything a replay cannot reconstruct from the reference stream
/// alone: the driver-side products of the populating run, serialized as
/// JSON into the stream file's sidecar.
///
/// The stream *key* covers every option the driver's outputs depend on
/// (workload, allocator, scale, heap limit, fragmentation sampling), so
/// these fields are valid for any run that hits the same key. The
/// metrics snapshot additionally depends on the *sink* configuration —
/// which sinks existed — so it carries the populating run's
/// [`Experiment::options_fingerprint`] and is only reused when the
/// fingerprints match.
#[derive(Serialize, Deserialize)]
struct StreamSidecar {
    /// [`Experiment::options_fingerprint`] of the populating run.
    options_fp: u64,
    /// Instruction counts by phase.
    instrs: InstrCounter,
    /// Counting-fold statistics over the stream.
    trace: TraceStats,
    /// Fragmentation samples (empty unless sampling was keyed on).
    frag_curve: Vec<FragSample>,
    /// Peak bytes obtained from the simulated operating system.
    heap_high_water: u64,
    /// The allocator's own statistics.
    alloc_stats: AllocStats,
    /// The populating run's full frozen metrics.
    metrics: obs::MetricsSnapshot,
    /// The populating run's complete finalized result. Like `metrics`,
    /// it depends on the sink configuration, so it is only reused whole
    /// when `options_fp` matches — and then it answers the whole run
    /// from the sidecar alone, with neither the stream body decoded nor
    /// the sinks rebuilt. Its fault curve depends on the stream alone,
    /// so a paging replay under any other sinks reuses that part.
    #[serde(default)]
    result: Option<RunResult>,
}

/// Sink results reassembled from finalized shards, in canonical order.
struct FinalizedShards {
    cache: Vec<(CacheConfig, CacheStats)>,
    fault_curve: Option<FaultCurve>,
    victim: Option<VictimStats>,
    three_c: Option<ThreeC>,
    two_level: Option<TwoLevelStats>,
}

/// Drains every shard into its result slot. Each sweep holds one block
/// size's members in configuration order, so walking `configs` and
/// taking the next member of the sweep with that block size restores
/// configuration order, duplicates included.
fn finalize_shards(shards: Vec<SinkShard>, configs: &[CacheConfig]) -> FinalizedShards {
    let mut out = FinalizedShards {
        cache: Vec::new(),
        fault_curve: None,
        victim: None,
        three_c: None,
        two_level: None,
    };
    let mut sweeps = Vec::new();
    for shard in shards {
        match shard {
            SinkShard::Sweep(s) => sweeps.push(s.results().into_iter().peekable()),
            SinkShard::Pager(p) => out.fault_curve = Some(p.curve()),
            SinkShard::Victim(v) => out.victim = Some(*v.stats()),
            SinkShard::ThreeC(a) => out.three_c = Some(a.classify()),
            SinkShard::TwoLevel(t) => out.two_level = Some(t.stats()),
        }
    }
    out.cache = configs
        .iter()
        .map(|c| {
            sweeps
                .iter_mut()
                .find_map(|sweep| sweep.next_if(|(member, _)| member.block == c.block))
                .expect("every configuration is a member of its block size's sweep")
        })
        .collect();
    out
}

/// What [`Experiment::run_inner`] hands back: the result, plus — on a
/// warm instrumented replay — the populating run's frozen metrics,
/// which [`Experiment::report`] and [`Experiment::run_traced_with`]
/// return in place of the live recorder's snapshot so replayed reports
/// are byte-identical to generated ones.
struct RunOutcome {
    result: RunResult,
    replay_metrics: Option<obs::MetricsSnapshot>,
}

/// Where a run's application events come from: a synthetic model, or a
/// fixed stream (e.g. imported with [`workloads::import::parse_trace`]).
#[derive(Debug, Clone)]
pub enum WorkloadSource {
    /// Generate events from a workload model, honouring the run's scale.
    Spec(WorkloadSpec),
    /// Replay this exact stream (the scale option is ignored).
    Events(std::sync::Arc<Vec<AppEvent>>),
}

/// Builder for one run.
///
/// # Example
///
/// ```
/// use alloc_locality::{AllocChoice, Experiment};
/// use allocators::AllocatorKind;
/// use workloads::{Program, Scale};
///
/// # fn main() -> Result<(), alloc_locality::EngineError> {
/// let r = Experiment::new(Program::Gawk, AllocChoice::Paper(AllocatorKind::QuickFit))
///     .scale(Scale(0.005))
///     .paging(false)
///     .run()?;
/// assert_eq!(r.allocator, "QuickFit");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    source: WorkloadSource,
    program_label: String,
    choice: AllocChoice,
    opts: SimOptions,
    /// Stream-cache provenance for a fixed event stream: the workload
    /// spec the events were generated from, when the caller knows it
    /// (see [`Experiment::stream_source`]). `None` for spec-sourced runs
    /// (the source itself is the provenance) and for imported traces.
    provenance: Option<WorkloadSpec>,
}

impl Experiment {
    /// An experiment on one of the paper's programs.
    pub fn new(program: Program, choice: AllocChoice) -> Self {
        Experiment {
            source: WorkloadSource::Spec(program.spec()),
            program_label: program.label().to_string(),
            choice,
            opts: SimOptions::default(),
            provenance: None,
        }
    }

    /// An experiment on a custom workload specification.
    pub fn with_spec(spec: WorkloadSpec, choice: AllocChoice) -> Self {
        let label = spec.name.clone();
        Experiment {
            source: WorkloadSource::Spec(spec),
            program_label: label,
            choice,
            opts: SimOptions::default(),
            provenance: None,
        }
    }

    /// An experiment replaying a fixed event stream — typically imported
    /// from a real program's allocation trace. The scale option is
    /// ignored for replayed streams.
    ///
    /// The stream must follow the [`AppEvent`] id contract: ids are
    /// allocation ordinals, as [`workloads::import::parse_trace`] and the
    /// generator produce them. A stream that breaks it fails the run
    /// with [`EngineError::Event`] at the offending event.
    pub fn with_events(
        label: impl Into<String>,
        events: Vec<AppEvent>,
        choice: AllocChoice,
    ) -> Self {
        Experiment {
            source: WorkloadSource::Events(std::sync::Arc::new(events)),
            program_label: label.into(),
            choice,
            opts: SimOptions::default(),
            provenance: None,
        }
    }

    /// An experiment replaying a shared, already-captured event stream
    /// without copying it — the design-space sweep path: the workload's
    /// event sequence is generated once and every sweep point drives the
    /// same `Arc` through its own allocator. The scale option is ignored
    /// for event generation (the stream is fixed) but still recorded in
    /// the result; set it via [`Experiment::scale`] to the scale the
    /// events were generated at so the run is bit-identical to the same
    /// experiment built from the program spec directly. The stream must
    /// follow the id contract of [`Experiment::with_events`]; generated
    /// streams do.
    pub fn with_shared_events(
        label: impl Into<String>,
        events: std::sync::Arc<Vec<AppEvent>>,
        choice: AllocChoice,
    ) -> Self {
        Experiment {
            source: WorkloadSource::Events(events),
            program_label: label.into(),
            choice,
            opts: SimOptions::default(),
            provenance: None,
        }
    }

    /// Declares the workload spec a fixed event stream was generated
    /// from, giving the run the *same* stream-cache identity as a
    /// spec-built run of that workload. Only meaningful together with
    /// [`Experiment::stream_cache`] on an
    /// [`Experiment::with_shared_events`] run whose events really are
    /// `spec.events(scale)` — the shared-trace executors' invariant —
    /// in which case a populating run stores a stream that later
    /// spec-built (or provenance-declared) runs replay, and a warm run
    /// replays without touching the shared events at all. Ignored for
    /// spec-sourced runs.
    pub fn stream_source(mut self, spec: WorkloadSpec) -> Self {
        self.provenance = Some(spec);
        self
    }

    /// Sets the workload scale.
    pub fn scale(mut self, scale: Scale) -> Self {
        self.opts.scale = scale;
        self
    }

    /// Sets the cache configurations to simulate (empty disables cache
    /// simulation).
    pub fn caches(mut self, configs: Vec<CacheConfig>) -> Self {
        self.opts.cache_configs = configs;
        self
    }

    /// Enables or disables page-fault simulation.
    pub fn paging(mut self, on: bool) -> Self {
        self.opts.paging = on;
        self
    }

    /// Replaces all options at once.
    pub fn options(mut self, opts: SimOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Enables the persistent stream cache under `dir` (see
    /// [`SimOptions::stream_cache`]).
    pub fn stream_cache(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.opts.stream_cache = Some(dir.into());
        self
    }

    /// Bounds the stream-cache directory's size (see
    /// [`SimOptions::stream_cache_bytes`]).
    pub fn stream_cache_bytes(mut self, max_bytes: Option<u64>) -> Self {
        self.opts.stream_cache_bytes = max_bytes;
        self
    }

    /// Builds the run's sinks in canonical order (see [`SinkShard`]):
    /// caches first — one sweep shard per distinct block size, holding
    /// that block size's configurations in order — then pager (when
    /// `pager` is set), victim, three-C, two-level.
    fn build_shards(&self, pager: bool) -> Vec<SinkShard> {
        let configs = &self.opts.cache_configs;
        let mut shards: Vec<SinkShard> = Vec::new();
        for (i, first) in configs.iter().enumerate() {
            if configs[..i].iter().all(|c| c.block != first.block) {
                let members = configs[i..].iter().filter(|c| c.block == first.block).copied();
                let sweep = SweepCache::try_new(members).expect("one block size, one member");
                shards.push(SinkShard::Sweep(sweep));
            }
        }
        if pager {
            shards.push(SinkShard::Pager(Box::new(StackSim::paper())));
        }
        let first_cache = self.opts.cache_configs.first().copied();
        if let Some(entries) = self.opts.victim_entries {
            if let Some(cfg) = first_cache {
                shards.push(SinkShard::Victim(VictimCache::new(cfg, entries)));
            }
        }
        if self.opts.three_c {
            shards.push(SinkShard::ThreeC(ThreeCAnalyzer::new(
                first_cache.expect("three_c needs a cache config"),
            )));
        }
        if self.opts.two_level {
            shards.push(SinkShard::TwoLevel(TwoLevelCache::paper_default()));
        }
        shards
    }

    /// Reborrows an optional recorder for a shorter-lived callee.
    ///
    /// `Option<&mut dyn Recorder>` is invariant in the trait object's
    /// lifetime (no coercion reaches inside `Option`), so passing
    /// `recorder.as_deref_mut()` straight to a callee pins the original
    /// borrow for the callee's whole signature lifetime. Rewrapping the
    /// `Some` arm gives the compiler a per-element coercion site.
    fn reborrow<'s>(recorder: &'s mut Option<&mut dyn Recorder>) -> Option<&'s mut dyn Recorder> {
        match recorder.as_deref_mut() {
            Some(rec) => Some(rec),
            None => None,
        }
    }

    /// The workload loop: builds the allocator, replays every event
    /// through a batching [`MemCtx`] over `sink`, and flushes. Cold runs,
    /// populating or not, and [`Experiment::capture_runs`] share this;
    /// only `sink` differs.
    fn drive(
        &self,
        heap: &mut HeapImage,
        instrs: &mut InstrCounter,
        sink: &mut dyn AccessSink,
        recorder: Option<&mut dyn Recorder>,
    ) -> Result<(Vec<FragSample>, AllocStats), EngineError> {
        let mut ctx = MemCtx::batched(heap, sink, instrs);
        if let Some(rec) = recorder {
            ctx = ctx.with_recorder(rec);
        }
        ctx.set_phase(Phase::Malloc);
        ctx.obs_span_enter("engine.alloc_build");
        let mut allocator = self
            .choice
            .build(&mut ctx, &self.source)
            .map_err(|source| EngineError::Alloc { at_event: 0, source })?;
        ctx.obs_span_exit();
        ctx.set_phase(Phase::App);

        // Each object's address, indexed by id: ids are allocation
        // ordinals (see `AppEvent`), so the n-th `Malloc` pushes entry n.
        // A freed object's entry reads NULL, which no grant ever is.
        let mut objects: Vec<Address> = Vec::new();
        let mut frag_curve = Vec::new();
        // The stack segment sits below the heap; its traffic cycles
        // through a small hot window, as real call stacks do.
        let mut stack = StackWalker::new();
        let events: Box<dyn Iterator<Item = AppEvent>> = match &self.source {
            WorkloadSource::Spec(spec) => Box::new(spec.events(self.opts.scale)),
            WorkloadSource::Events(events) => Box::new(events.iter().copied()),
        };
        ctx.obs_span_enter("engine.events");
        for (n, event) in events.enumerate() {
            let at_event = n as u64;
            let bad = |fault| EngineError::Event { at_event, fault };
            match event {
                AppEvent::Malloc { id, size, site } => {
                    let expected = objects.len() as u64;
                    if id != expected {
                        return Err(bad(EventFault::MallocOutOfOrder { id, expected }));
                    }
                    ctx.set_phase(Phase::Malloc);
                    let addr = allocator
                        .malloc_at(size, site, &mut ctx)
                        .map_err(|source| EngineError::Alloc { at_event, source })?;
                    ctx.set_phase(Phase::App);
                    debug_assert!(!addr.is_null(), "allocators never grant NULL");
                    objects.push(addr);
                    let every = self.opts.frag_sample_every;
                    if every > 0 && allocator.stats().mallocs.is_multiple_of(every) {
                        frag_curve.push((
                            allocator.stats().mallocs,
                            allocator.stats().live_granted,
                            ctx.heap().in_use(),
                        ));
                    }
                }
                AppEvent::Free { id } => {
                    let addr = live_object(&objects, id)
                        .ok_or_else(|| bad(EventFault::FreeOfDead { id }))?;
                    objects[id as usize] = Address::NULL;
                    ctx.set_phase(Phase::Free);
                    allocator
                        .free(addr, &mut ctx)
                        .map_err(|source| EngineError::Alloc { at_event, source })?;
                    ctx.set_phase(Phase::App);
                }
                AppEvent::Access { id, offset, len, write } => {
                    let addr = live_object(&objects, id)
                        .ok_or_else(|| bad(EventFault::AccessOfDead { id }))?;
                    ctx.app_touch(addr + u64::from(offset), len, write);
                }
                AppEvent::Compute { instrs } => {
                    ctx.ops(instrs);
                }
                AppEvent::Stack { words } => {
                    stack.touch(words, &mut ctx);
                }
            }
        }
        ctx.flush();
        ctx.obs_span_exit();
        Ok((frag_curve, *allocator.stats()))
    }

    /// Drives the workload once and returns its run-compressed reference
    /// stream — the exact sequence of [`RefRun`]s every sink shard of
    /// this run would consume. `trace-tool record` stores it, and
    /// equivalence tests use it to replay a realistic stream into a sink
    /// directly.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Alloc`] if the allocator reports an error
    /// (out of simulated memory, invalid free), and [`EngineError::Event`]
    /// if a fixed event stream breaks the [`AppEvent`] id contract.
    pub fn capture_runs(&self) -> Result<Vec<RefRun>, EngineError> {
        let mut heap = HeapImage::with_limit(self.opts.heap_limit);
        let mut instrs = InstrCounter::new();
        let mut collector = RunCollector { runs: Vec::new() };
        self.drive(&mut heap, &mut instrs, &mut collector, None)?;
        Ok(collector.runs)
    }

    /// Runs the experiment to completion.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Alloc`] if the allocator reports an error
    /// (out of simulated memory, invalid free), and [`EngineError::Event`]
    /// if a fixed event stream breaks the [`AppEvent`] id contract.
    pub fn run(&self) -> Result<RunResult, EngineError> {
        Ok(self.run_inner(None, false)?.result)
    }

    /// Runs the experiment with every metric delivered to `recorder`.
    ///
    /// The result is **bit-identical** to [`Experiment::run`]: recording
    /// observes the run, it never participates in it.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Alloc`] if the allocator reports an error
    /// (out of simulated memory, invalid free), and [`EngineError::Event`]
    /// if a fixed event stream breaks the [`AppEvent`] id contract.
    pub fn run_with_recorder(&self, recorder: &mut dyn Recorder) -> Result<RunResult, EngineError> {
        Ok(self.run_inner(Some(recorder), false)?.result)
    }

    /// Runs the experiment with a caller-owned hierarchical
    /// [`obs::Tracer`] attached and returns the result with the frozen
    /// flat metrics, so callers (the serve daemon) can open their own
    /// enclosing spans around the run and finish the trace themselves.
    ///
    /// Result and metrics are **bit-identical** to [`Experiment::report`]:
    /// span structure lives outside the tracer's flat snapshot, and on a
    /// warm replay the populating run's sidecar metrics stand in exactly
    /// as they do there.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Alloc`] if the allocator reports an error
    /// (out of simulated memory, invalid free), and [`EngineError::Event`]
    /// if a fixed event stream breaks the [`AppEvent`] id contract.
    pub fn run_traced_with(
        &self,
        tracer: &mut obs::Tracer,
    ) -> Result<(RunResult, obs::MetricsSnapshot), EngineError> {
        let outcome = self.run_inner(Some(tracer), true)?;
        let metrics = outcome.replay_metrics.unwrap_or_else(|| tracer.metrics_snapshot());
        Ok((outcome.result, metrics))
    }

    /// Runs the experiment with an in-memory recorder attached and wraps
    /// the result and the frozen metrics in the stable JSONL schema of
    /// [`crate::run_report`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Alloc`] if the allocator reports an error
    /// (out of simulated memory, invalid free), and [`EngineError::Event`]
    /// if a fixed event stream breaks the [`AppEvent`] id contract.
    pub fn report(&self) -> Result<crate::run_report::RunReport, EngineError> {
        let mut rec = MemoryRecorder::new();
        let outcome = self.run_inner(Some(&mut rec), true)?;
        // On a warm replay the populating run's frozen snapshot stands
        // in for the live one, keeping reports byte-identical to the
        // generated run's; the live recorder saw only replay telemetry.
        let metrics = outcome.replay_metrics.unwrap_or_else(|| rec.snapshot());
        Ok(crate::run_report::RunReport::new(outcome.result, metrics))
    }

    /// Dispatches a run: a warm stream-cache replay when one applies,
    /// the plain generated run otherwise (populating the cache when one
    /// is configured). `need_metrics` marks an instrumented run whose
    /// metrics must be byte-reusable (see [`RunOutcome`]).
    ///
    /// A warm run reads its stream file once, validates and checksums it
    /// once ([`open_stream`]) and parses its sidecar once. Then, in order:
    /// a stored result under a matching options fingerprint answers the
    /// run; an instrumented run under another fingerprint regenerates
    /// without decoding a record; otherwise the records stream into the
    /// shards, and the stored result's fault curve, when there is one,
    /// stands in for the pager.
    fn run_inner(
        &self,
        mut recorder: Option<&mut dyn Recorder>,
        need_metrics: bool,
    ) -> Result<RunOutcome, EngineError> {
        let Some(key) = self.stream_key() else {
            let result = self.run_generated(Self::reborrow(&mut recorder), None)?;
            return Ok(RunOutcome { result, replay_metrics: None });
        };
        let cache =
            StreamCache::new(self.opts.stream_cache.as_ref().expect("key implies directory"))
                .with_max_bytes(self.opts.stream_cache_bytes);
        if let Some(rec) = Self::reborrow(&mut recorder) {
            rec.span_enter("stream_cache.probe");
        }
        let bytes = cache.read(key);
        let opened = match &bytes {
            Ok(Some(bytes)) => {
                open_stream(bytes, key).map_err(|_| "stream_cache.invalid").and_then(|view| {
                    // A sidecar of a foreign shape cannot answer or
                    // complete the run.
                    let sidecar: StreamSidecar = std::str::from_utf8(view.sidecar())
                        .ok()
                        .and_then(|text| serde_json::from_str(text).ok())
                        .ok_or("stream_cache.sidecar_mismatch")?;
                    Ok((view, sidecar))
                })
            }
            Ok(None) => Err("stream_cache.miss"),
            Err(_) => Err("stream_cache.invalid"),
        };
        let lookup_counter = match opened {
            Err(counter) => counter,
            Ok((view, mut sidecar)) => {
                let same_sinks = sidecar.options_fp == self.options_fingerprint();
                match sidecar.result.take() {
                    // Stored-result fast path: the sidecar alone answers
                    // the run, so no record is decoded and no sink built.
                    Some(result) if same_sinks => {
                        if let Some(rec) = Self::reborrow(&mut recorder) {
                            rec.add("stream_cache.hit", 1);
                            rec.add("stream_cache.result_fastpath", 1);
                            rec.span_exit();
                        }
                        return Ok(RunOutcome {
                            result,
                            replay_metrics: need_metrics.then_some(sidecar.metrics),
                        });
                    }
                    // The stored metrics describe other sinks: regenerate
                    // and overwrite, last writer wins.
                    _ if need_metrics && !same_sinks => "stream_cache.sidecar_mismatch",
                    stored => {
                        if let Some(rec) = Self::reborrow(&mut recorder) {
                            rec.span_exit();
                        }
                        let curve = stored.and_then(|result| result.fault_curve);
                        let replayed =
                            self.replay(view, sidecar, curve, &mut recorder, need_metrics);
                        return match replayed {
                            Some(outcome) => Ok(outcome),
                            // A corrupt record behind a valid checksum:
                            // the partly fed shards are gone; run cold.
                            None => {
                                self.run_and_populate(&cache, key, "stream_cache.invalid", recorder)
                            }
                        };
                    }
                }
            }
        };
        if let Some(rec) = Self::reborrow(&mut recorder) {
            rec.span_exit();
        }
        // The file did not answer: free it before the cold run.
        drop(bytes);
        self.run_and_populate(&cache, key, lookup_counter, recorder)
    }

    /// The stream-cache content key of this run's driver identity, when
    /// the cache applies: every input the generated reference stream
    /// (and the driver-side sidecar fields) depends on — workload
    /// specification (program and seed included), allocator choice,
    /// scale, heap limit, fragmentation sampling — plus the format
    /// version, so a format bump cold-starts the cache. `None` when no
    /// cache directory is configured or the workload is a fixed event
    /// stream of unknown provenance (an imported trace: nothing to skip
    /// regenerating is known about it, so it is never cached). A fixed
    /// stream *with* declared provenance ([`Experiment::stream_source`])
    /// keys exactly as the spec-built run would, so shared-trace sweep
    /// points populate — and replay — the same cache entries as direct
    /// runs.
    fn stream_key(&self) -> Option<u64> {
        self.opts.stream_cache.as_ref()?;
        let spec = match &self.source {
            WorkloadSource::Spec(spec) => spec,
            WorkloadSource::Events(_) => self.provenance.as_ref()?,
        };
        let spec_json = serde_json::to_string(spec).expect("workload spec serializes");
        let mut h = Fnv64::new();
        h.write_u64(u64::from(STREAM_FORMAT_VERSION));
        h.write(self.program_label.as_bytes());
        h.write(&[0]);
        h.write(spec_json.as_bytes());
        h.write(&[0]);
        h.write(self.choice.label().as_bytes());
        h.write(&[0]);
        h.write_u64(self.opts.scale.0.to_bits());
        h.write_u64(self.opts.heap_limit);
        h.write_u64(self.opts.frag_sample_every);
        Some(h.finish())
    }

    /// Predicts whether this run would find its stream in the cache:
    /// `None` when the stream cache does not apply to it at all (no
    /// directory configured, or a fixed stream without provenance),
    /// otherwise whether the keyed stream file exists right now. A
    /// metadata-only probe — nothing is read, decoded, or validated —
    /// so the answer is telemetry (sweep-level hit/miss counts), not a
    /// replay guarantee: a corrupt or sidecar-mismatched entry still
    /// probes `Some(true)` and the run quietly falls back to generating.
    pub fn stream_cached(&self) -> Option<bool> {
        let key = self.stream_key()?;
        let cache =
            StreamCache::new(self.opts.stream_cache.as_ref().expect("key implies directory"))
                .with_max_bytes(self.opts.stream_cache_bytes);
        Some(cache.contains(key))
    }

    /// Fingerprint of the *sink-side* options: everything a run's
    /// metrics snapshot depends on beyond the stream key (which sinks
    /// exist). A stored snapshot is only reused when this matches;
    /// results themselves never consult it.
    fn options_fingerprint(&self) -> u64 {
        let o = &self.opts;
        let desc = format!(
            "{}|{:?}|{}|{:?}|{}|{}",
            // The allocator choice label spells out every tuning knob
            // (split threshold, fast-list bound, rounding classes, ...),
            // so sidecar metrics recorded for one configuration can
            // never be reported for another.
            self.choice.label(),
            o.cache_configs,
            o.paging,
            o.victim_entries,
            o.three_c,
            o.two_level
        );
        fnv1a(desc.as_bytes())
    }

    /// Streams a validated file's records into fresh shards, chunk by
    /// chunk through [`ShardSet::deliver`], and assembles the result
    /// around what the sidecar stored of the populating run. `None` when
    /// a record is corrupt: the partly fed shards are dropped and nothing
    /// flat was recorded — no `stream_cache.hit`, no `sink.*` or
    /// `engine.replay` span — so the cold run that follows reports as if
    /// the replay had never started.
    ///
    /// `stored_curve` is the fault curve of the populating run's stored
    /// result, if it paged. The curve is a function of the stream alone
    /// (the stream key covers every input of the stream, and the pager
    /// takes no option), so a paging replay reuses it and builds no
    /// pager shard, counting `stream_cache.stored_fault_curve`.
    fn replay(
        &self,
        view: StreamView<'_>,
        sidecar: StreamSidecar,
        stored_curve: Option<FaultCurve>,
        recorder: &mut Option<&mut dyn Recorder>,
        need_metrics: bool,
    ) -> Option<RunOutcome> {
        if let Some(rec) = recorder.as_deref_mut() {
            rec.span_enter("engine.replay");
        }
        let replay_sw = Stopwatch::start();
        let stored_curve = stored_curve.filter(|_| self.opts.paging);
        let pager = self.opts.paging && stored_curve.is_none();
        let mut set = ShardSet::new(self.build_shards(pager), recorder.is_some());
        let decoded = view.decode_chunks(|chunk| set.deliver(chunk));
        if let Some(rec) = recorder.as_deref_mut() {
            if decoded.is_ok() {
                set.record(rec);
                rec.span_ns("engine.replay", replay_sw.elapsed_ns());
            }
            rec.span_exit();
        }
        decoded.ok()?;
        if let Some(rec) = recorder.as_deref_mut() {
            rec.add("stream_cache.hit", 1);
            if stored_curve.is_some() {
                rec.add("stream_cache.stored_fault_curve", 1);
            }
            rec.span_enter("engine.finalize");
        }
        let finalize_sw = Stopwatch::start();
        let parts = finalize_shards(set.shards, &self.opts.cache_configs);
        if let Some(rec) = recorder.as_deref_mut() {
            rec.span_ns("engine.finalize", finalize_sw.elapsed_ns());
            rec.span_exit();
        }
        let result = RunResult {
            program: self.program_label.clone(),
            allocator: self.choice.label(),
            scale: self.opts.scale.0,
            instrs: sidecar.instrs,
            trace: sidecar.trace,
            cache: parts.cache,
            fault_curve: parts.fault_curve.or(stored_curve),
            victim: parts.victim,
            three_c: parts.three_c,
            two_level: parts.two_level,
            frag_curve: sidecar.frag_curve,
            heap_high_water: sidecar.heap_high_water,
            alloc_stats: sidecar.alloc_stats,
        };
        Some(RunOutcome { result, replay_metrics: need_metrics.then_some(sidecar.metrics) })
    }

    /// A cold run that also stores its stream under `key`, with the
    /// sidecar holding everything a replay cannot reconstruct: the one
    /// cold path, [`Experiment::run_generated`], with a stream encoder on
    /// its sinks, so the stream is encoded as it is generated and never
    /// held whole. `lookup_counter` records why the cache did not
    /// answer. A failed store is a missed optimization, never a failed
    /// run.
    fn run_and_populate(
        &self,
        cache: &StreamCache,
        key: u64,
        lookup_counter: &'static str,
        user: Option<&mut dyn Recorder>,
    ) -> Result<RunOutcome, EngineError> {
        let mut tee = TeeRecorder { mem: MemoryRecorder::new(), user };
        tee.add(lookup_counter, 1);
        let mut encoder = StreamEncoder::new();
        let result = self.run_generated(Some(&mut tee), Some(&mut encoder))?;
        // Counts the store *attempt*, and does so before the snapshot is
        // frozen so the stored metrics equal what the caller's recorder
        // observed on this run.
        tee.add("stream_cache.store", 1);
        let sidecar = StreamSidecar {
            options_fp: self.options_fingerprint(),
            instrs: result.instrs,
            trace: result.trace,
            frag_curve: result.frag_curve.clone(),
            heap_high_water: result.heap_high_water,
            alloc_stats: result.alloc_stats,
            metrics: tee.mem.snapshot(),
            result: Some(result.clone()),
        };
        let sidecar_json = serde_json::to_string(&sidecar).expect("sidecar serializes");
        let _ = cache.write(key, &encoder.finish(key, sidecar_json.as_bytes()));
        Ok(RunOutcome { result, replay_metrics: None })
    }

    /// The one cold path: drives the workload once, handing each flushed
    /// batch to the counting sink and every shard and, on a populating
    /// run, to `encoder`.
    ///
    /// A populating run also records a flat `engine.replay` span (no
    /// trace node) holding the shards' summed consume time: served
    /// report lines pin their flat metric set, which for a populating
    /// run is a no-cache run's plus `stream_cache.miss` (or why the cache
    /// did not answer), `stream_cache.store` and `engine.replay`, each
    /// once.
    fn run_generated(
        &self,
        mut recorder: Option<&mut dyn Recorder>,
        encoder: Option<&mut StreamEncoder>,
    ) -> Result<RunResult, EngineError> {
        let mut heap = HeapImage::with_limit(self.opts.heap_limit);
        let mut instrs = InstrCounter::new();
        let mut sink = InlineSink {
            counting: CountingSink::new(),
            set: ShardSet::new(self.build_shards(self.opts.paging), recorder.is_some()),
            encoder,
        };
        if let Some(rec) = recorder.as_deref_mut() {
            rec.span_enter("engine.drive");
        }
        let drive_sw = Stopwatch::start();
        let (frag_curve, alloc_stats) =
            self.drive(&mut heap, &mut instrs, &mut sink, Self::reborrow(&mut recorder))?;
        if let Some(rec) = recorder.as_deref_mut() {
            sink.set.record(rec);
            if sink.encoder.is_some() {
                let consumed = sink.set.timings.iter().flatten().sum();
                rec.span_ns("engine.replay", consumed);
            }
            rec.span_ns("engine.drive", drive_sw.elapsed_ns());
            rec.span_exit();
            rec.span_enter("engine.finalize");
        }

        let finalize_sw = Stopwatch::start();
        let InlineSink { counting, set, .. } = sink;
        let parts = finalize_shards(set.shards, &self.opts.cache_configs);
        if let Some(rec) = recorder {
            rec.span_ns("engine.finalize", finalize_sw.elapsed_ns());
            rec.span_exit();
        }

        Ok(RunResult {
            program: self.program_label.clone(),
            allocator: self.choice.label(),
            scale: self.opts.scale.0,
            instrs,
            trace: counting.stats(),
            cache: parts.cache,
            fault_curve: parts.fault_curve,
            victim: parts.victim,
            three_c: parts.three_c,
            two_level: parts.two_level,
            frag_curve,
            heap_high_water: heap.high_water(),
            alloc_stats,
        })
    }
}

/// A collection of runs, indexed by program and allocator label.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Matrix {
    /// The member runs.
    pub runs: Vec<RunResult>,
}

impl Matrix {
    /// Finds a run by program and allocator label.
    pub fn get(&self, program: &str, allocator: &str) -> Option<&RunResult> {
        self.runs.iter().find(|r| r.program == program && r.allocator == allocator)
    }

    /// Distinct program labels, in insertion order.
    pub fn programs(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for r in &self.runs {
            if !seen.contains(&r.program.as_str()) {
                seen.push(r.program.as_str());
            }
        }
        seen
    }

    /// Distinct allocator labels, in insertion order.
    pub fn allocators(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for r in &self.runs {
            if !seen.contains(&r.allocator.as_str()) {
                seen.push(r.allocator.as_str());
            }
        }
        seen
    }

    /// Merges another matrix's runs into this one.
    pub fn extend(&mut self, other: Matrix) {
        self.runs.extend(other.runs);
    }
}

/// Runs the full program × allocator sweep in parallel (a worker pool of
/// `available_parallelism` threads over the job list) and returns the
/// results in job order.
///
/// # Errors
///
/// Returns the first [`EngineError`] any run produced.
pub fn standard_matrix(
    programs: &[Program],
    choices: &[AllocChoice],
    opts: &SimOptions,
) -> Result<Matrix, EngineError> {
    run_parallel(
        programs
            .iter()
            .flat_map(|&p| {
                choices.iter().map(move |c| Experiment::new(p, c.clone()).options(opts.clone()))
            })
            .collect(),
    )
}

/// Runs a list of experiments on a thread pool, preserving order.
///
/// # Errors
///
/// Returns the first [`EngineError`] any run produced.
pub fn run_parallel(jobs: Vec<Experiment>) -> Result<Matrix, EngineError> {
    Ok(Matrix { runs: run_many(jobs, default_threads(), Experiment::run, |_, _| {})? })
}

/// The default worker count: one per hardware thread.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
}

/// Runs `work` over every experiment on a pool of exactly `threads`
/// workers (clamped to the job count) and returns the outputs in job
/// order — typically [`Experiment::run`] or [`Experiment::report`].
/// `progress(completed_so_far, output)` is called after each job
/// finishes, from whichever worker finished it (so it must be `Sync`).
///
/// The pool is a `Mutex`-guarded job queue drained by scoped threads.
///
/// # Errors
///
/// Returns the first [`EngineError`] any run produced.
pub fn run_many<T: Send>(
    jobs: Vec<Experiment>,
    threads: usize,
    work: impl Fn(&Experiment) -> Result<T, EngineError> + Sync,
    progress: impl Fn(usize, &T) + Sync,
) -> Result<Vec<T>, EngineError> {
    let n = jobs.len();
    let results: Mutex<Vec<Option<Result<T, EngineError>>>> =
        Mutex::new((0..n).map(|_| None).collect());
    let queue: Mutex<Vec<(usize, Experiment)>> = Mutex::new(jobs.into_iter().enumerate().collect());
    let completed = std::sync::atomic::AtomicUsize::new(0);
    let workers = threads.max(1).min(n.max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let job = queue.lock().expect("queue lock").pop();
                match job {
                    Some((idx, exp)) => {
                        let result = work(&exp);
                        if let Ok(value) = &result {
                            let so_far =
                                completed.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
                            progress(so_far, value);
                        }
                        results.lock().expect("results lock")[idx] = Some(result);
                    }
                    None => break,
                }
            });
        }
    });
    let mut out = Vec::with_capacity(n);
    for slot in results.into_inner().expect("results lock") {
        out.push(slot.expect("every job ran")?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> SimOptions {
        SimOptions {
            cache_configs: vec![CacheConfig::direct_mapped(16 * 1024, 32)],
            paging: true,
            scale: Scale(0.002),
            ..SimOptions::default()
        }
    }

    #[test]
    fn run_produces_consistent_counts() {
        let r = Experiment::new(Program::Make, AllocChoice::Paper(AllocatorKind::Bsd))
            .options(quick_opts())
            .run()
            .unwrap();
        assert_eq!(r.program, "make");
        assert_eq!(r.allocator, "BSD");
        assert!(r.alloc_stats.mallocs > 0);
        assert!(r.alloc_stats.frees <= r.alloc_stats.mallocs);
        assert!(r.trace.app_refs() > 0);
        assert!(r.trace.meta_refs() > 0);
        assert!(r.instrs.phase_total(Phase::Malloc) > 0);
        assert!(r.heap_high_water > 0);
        let (_, cache) = &r.cache[0];
        // A reference produces one cache access per block it spans, so
        // block-level accesses are at least the trace records and at most
        // the word count.
        assert!(cache.accesses() >= r.trace.total_refs());
        assert!(cache.accesses() <= r.data_refs());
        assert!(r.fault_curve.is_some());
    }

    #[test]
    fn interleaved_block_sizes_come_back_in_configuration_order() {
        // Two sweeps (32- and 64-byte blocks) whose members interleave,
        // associative ones and a duplicate among them: each result must
        // sit at its configuration's index, as one cache per
        // configuration fed the same stream reports it.
        let configs = vec![
            CacheConfig::direct_mapped(16 * 1024, 32),
            CacheConfig::set_associative(64 * 1024, 64, 2),
            CacheConfig::direct_mapped(16 * 1024, 32),
            CacheConfig::set_associative(32 * 1024, 32, 4),
            CacheConfig::direct_mapped(32 * 1024, 64),
        ];
        let exp = Experiment::new(Program::Make, AllocChoice::Paper(AllocatorKind::Bsd))
            .options(SimOptions { cache_configs: configs.clone(), ..quick_opts() });
        let mut bank = cache_sim::CacheBank::new(configs);
        bank.record_runs(&exp.capture_runs().unwrap());
        assert_eq!(exp.run().unwrap().cache, bank.results());
    }

    #[test]
    fn identical_experiments_are_deterministic() {
        let mk = || {
            Experiment::new(Program::Gawk, AllocChoice::Paper(AllocatorKind::QuickFit))
                .options(quick_opts())
                .run()
                .unwrap()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.instrs, b.instrs);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.cache[0].1, b.cache[0].1);
        assert_eq!(a.heap_high_water, b.heap_high_water);
    }

    #[test]
    fn all_five_allocators_complete_all_five_programs() {
        let opts = SimOptions { scale: Scale(0.001), ..quick_opts() };
        let m = standard_matrix(&Program::FIVE, &AllocChoice::paper_five(), &opts).unwrap();
        assert_eq!(m.runs.len(), 25);
        assert_eq!(m.programs().len(), 5);
        assert_eq!(m.allocators().len(), 5);
        for r in &m.runs {
            assert!(r.alloc_stats.mallocs > 0, "{}/{} did nothing", r.program, r.allocator);
        }
    }

    #[test]
    fn fragmentation_sampling_produces_a_curve() {
        let r = Experiment::new(Program::Gawk, AllocChoice::Paper(AllocatorKind::FirstFit))
            .options(SimOptions {
                cache_configs: vec![],
                paging: false,
                scale: Scale(0.003),
                frag_sample_every: 500,
                ..SimOptions::default()
            })
            .run()
            .unwrap();
        assert!(r.frag_curve.len() >= 5, "expected samples, got {}", r.frag_curve.len());
        for &(allocs, live, heap) in &r.frag_curve {
            assert!(allocs > 0);
            assert!(live <= heap, "live {live} cannot exceed heap {heap}");
        }
        // Samples are ordered and the heap never shrinks (sbrk only).
        for w in r.frag_curve.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].2 <= w[1].2);
        }
    }

    #[test]
    fn custom_allocator_runs_via_profile() {
        let r = Experiment::new(Program::Espresso, AllocChoice::Custom)
            .options(quick_opts())
            .run()
            .unwrap();
        assert_eq!(r.allocator, "Custom");
        assert!(r.alloc_stats.mallocs > 0);
    }

    #[test]
    fn tagged_gnu_local_touches_more_metadata() {
        let plain = Experiment::new(Program::Make, AllocChoice::Paper(AllocatorKind::GnuLocal))
            .options(quick_opts())
            .run()
            .unwrap();
        let tagged = Experiment::new(Program::Make, AllocChoice::GnuLocalTagged)
            .options(quick_opts())
            .run()
            .unwrap();
        // The emulated tags inflate every object by 8 bytes, so granted
        // space strictly grows. (Metadata *reference* counts can move
        // either way: bigger classes mean fewer fragments per chunk
        // carve, which can offset the per-object tag touches.)
        // (Chunk-granular sbrk makes heap_high_water non-monotone in the
        // class mix, so granted bytes are the reliable signal.)
        assert!(tagged.alloc_stats.peak_granted > plain.alloc_stats.peak_granted);
    }

    #[test]
    fn sample_profile_reflects_the_mixture() {
        let profile = sample_profile(&Program::Gawk.spec(), 2000);
        assert_eq!(profile.total(), 2000);
        // 16 bytes dominates gawk's mixture.
        assert_eq!(profile.top_sizes(1), vec![16]);
    }

    #[test]
    fn first_fit_spends_more_time_allocating_than_bsd() {
        // Figure 1's headline, in miniature.
        let ff = Experiment::new(Program::Espresso, AllocChoice::Paper(AllocatorKind::FirstFit))
            .options(quick_opts())
            .run()
            .unwrap();
        let bsd = Experiment::new(Program::Espresso, AllocChoice::Paper(AllocatorKind::Bsd))
            .options(quick_opts())
            .run()
            .unwrap();
        assert!(
            ff.alloc_fraction() > bsd.alloc_fraction(),
            "FirstFit {:.4} should exceed BSD {:.4}",
            ff.alloc_fraction(),
            bsd.alloc_fraction()
        );
    }
}
