//! VMSIM-style virtual-memory simulation.
//!
//! The paper measured page-fault rates with "VMSIM, a fast implementation
//! of a stack simulation algorithm", using 4-kilobyte pages. Stack
//! simulation (Mattson et al.) exploits LRU's inclusion property: one
//! pass over the trace yields the fault count for *every* memory size
//! simultaneously, which is exactly what Figures 2 and 3 plot.
//!
//! [`StackSim`] computes exact LRU stack distances with the
//! Bennett–Kruskal algorithm: a Fenwick tree over access-time slots marks
//! the most recent access of each page, so the reuse distance of an
//! access is a prefix-sum query — O(log n) per reference, with periodic
//! compaction to keep the tree bounded by the number of distinct pages.
//!
//! # Example
//!
//! ```
//! use vm_sim::StackSim;
//!
//! let mut sim = StackSim::new(4096);
//! for page in [0u64, 4096, 8192, 0, 4096, 8192] {
//!     sim.access_addr(page.into(), 4);
//! }
//! // Three pages cycled twice: with 3+ pages of memory only the 3 cold
//! // faults remain; with 2 pages every access faults.
//! assert_eq!(sim.faults_at(3), 3);
//! assert_eq!(sim.faults_at(2), 6);
//! ```

use serde::{Deserialize, Serialize};
use sim_mem::{AccessSink, Address, MemRef, RefRun};
use std::collections::HashMap;

/// The paper's page size: 4 kilobytes.
pub const PAGE_SIZE: u64 = 4096;

/// Depth of the MRU top-of-stack segment: page traffic is heavily
/// skewed toward recently used pages, so a 2 KB move-to-front array
/// holding the [`MRU_DEPTH`] most recent distinct pages absorbs nearly
/// every access with pure positional arithmetic — index `i` *is* stack
/// distance `i + 1` — leaving the HashMap/Fenwick machinery only the
/// rare deeper hits.
const MRU_DEPTH: usize = 256;

/// How many of the hottest entries are scanned before consulting the
/// map: deep scans are only worth it once the map has confirmed the page
/// is front-resident, but the top handful of entries absorbs the bulk of
/// all traffic at a cost below a single hash probe.
const FAST_PROBE: usize = 8;

/// Slot sentinel marking a page as resident in the MRU segment (its
/// recency is positional, not slot-based, while it lives there).
const IN_FRONT: usize = usize::MAX;

/// Binary indexed tree over access-time slots.
#[derive(Debug, Clone, Default)]
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn with_capacity(n: usize) -> Self {
        Fenwick { tree: vec![0; n + 1] }
    }

    fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Adds `delta` at 1-based position `i`.
    fn add(&mut self, mut i: usize, delta: i64) {
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta as u64);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `1..=i`.
    fn prefix(&self, mut i: usize) -> u64 {
        let mut s = 0u64;
        while i > 0 {
            s = s.wrapping_add(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Sum of positions `a..=b` (1-based, inclusive).
    fn range(&self, a: usize, b: usize) -> u64 {
        if b < a {
            0
        } else {
            self.prefix(b) - self.prefix(a - 1)
        }
    }
}

/// Exact LRU stack-distance simulator over fixed-size pages.
///
/// Feed it references (it implements [`AccessSink`], so it can tee off a
/// [`sim_mem::MemCtx`] pipeline) and read out the fault-versus-memory
/// curve at the end.
#[derive(Debug, Clone)]
pub struct StackSim {
    page_size: u64,
    /// `log2(page_size)`, so page numbers come from a shift, not a
    /// division, on the per-reference fast path.
    page_shift: u32,
    /// page -> 1-based time slot of its most recent access.
    last: HashMap<u64, usize>,
    tree: Fenwick,
    /// Next free 1-based time slot.
    now: usize,
    /// hist[d] = accesses with stack distance d (index 0 unused).
    hist: Vec<u64>,
    /// Accesses to pages never seen before.
    cold: u64,
    /// Total page-granular accesses.
    accesses: u64,
    /// References absorbed by the run fast path in `record_runs`
    /// (repeats counted straight into `hist[span]`). An observability
    /// counter — it never feeds the fault curve.
    fastpath_refs: u64,
    /// The MRU segment: the [`MRU_DEPTH`] most recently accessed
    /// distinct pages, most recent first — the literal top of the LRU
    /// stack, so a hit at index `i` *is* a stack-distance-`i+1` access
    /// with no HashMap or Fenwick work. Pages in this array carry the
    /// [`IN_FRONT`] sentinel in `last`; only pages demoted off its end
    /// hold a real time slot in the tree, which makes every front entry
    /// more recent than every tree entry by construction (a deep hit's
    /// distance is `mru_len` + its rank among the tree's live slots).
    mru_pages: [u64; MRU_DEPTH],
    /// Occupied prefix of `mru_pages`.
    mru_len: usize,
    /// Lazily-built suffix sums of `hist` (`suffix[d] = Σ_{i≥d} hist[i]`),
    /// tagged with the access count they were computed at so any further
    /// access invalidates them. `RefCell`, not a plain field: queries
    /// take `&self`, and the simulator is moved — never shared — across
    /// pipeline workers.
    suffix: std::cell::RefCell<(u64, Vec<u64>)>,
}

impl StackSim {
    /// Creates a simulator for `page_size`-byte pages (a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two.
    pub fn new(page_size: u64) -> Self {
        assert!(page_size.is_power_of_two(), "page size must be a power of two");
        StackSim {
            page_size,
            page_shift: page_size.trailing_zeros(),
            last: HashMap::new(),
            tree: Fenwick::with_capacity(1024),
            now: 1,
            hist: vec![0; 2],
            cold: 0,
            accesses: 0,
            fastpath_refs: 0,
            mru_pages: [0; MRU_DEPTH],
            mru_len: 0,
            suffix: std::cell::RefCell::new((0, Vec::new())),
        }
    }

    /// Creates a simulator with the paper's 4 KB pages.
    pub fn paper() -> Self {
        Self::new(PAGE_SIZE)
    }

    /// References absorbed by the `record_runs` fast path (repeats
    /// counted as exact-distance histogram arithmetic without tree
    /// work). An observability counter — not part of the fault curve.
    pub fn fastpath_refs(&self) -> u64 {
        self.fastpath_refs
    }

    /// Records an access of `size` bytes at `addr`, touching every page
    /// the range spans.
    pub fn access_addr(&mut self, addr: Address, size: u32) {
        let first = addr.raw() >> self.page_shift;
        let last = (addr.raw() + u64::from(size.max(1) - 1)) >> self.page_shift;
        if first == last {
            // Nearly every reference is word-sized and page-aligned
            // traffic is rare, so the single-page case skips the range
            // loop entirely.
            self.access_page(first);
        } else {
            for page in first..=last {
                self.access_page(page);
            }
        }
    }

    /// Records an access to a page number directly.
    pub fn access_page(&mut self, page: u64) {
        self.accesses += 1;
        // Probe the hottest few entries without touching the map: most
        // traffic lands here at a cost below a single hash probe.
        let probe = self.mru_len.min(FAST_PROBE);
        for i in 0..probe {
            if self.mru_pages[i] == page {
                self.front_hit(i, page);
                return;
            }
        }
        match self.last.get(&page).copied() {
            None => {
                self.cold += 1;
                self.last.insert(page, IN_FRONT);
                self.push_front(page);
            }
            Some(IN_FRONT) => {
                // The map confirms the page sits somewhere in the MRU
                // segment; now a deep scan is worth its cost.
                let i = probe
                    + self.mru_pages[probe..self.mru_len]
                        .iter()
                        .position(|&p| p == page)
                        .expect("front-resident page is in the MRU segment");
                self.front_hit(i, page);
            }
            Some(slot) => {
                // Deep hit: every front entry is more recent, as is
                // every live tree slot above this one, and the page
                // itself completes the distance.
                let deeper = self.tree.range(slot + 1, self.now - 1) as usize;
                let d = self.mru_len + deeper + 1;
                if self.hist.len() <= d {
                    self.hist.resize(d + 1, 0);
                }
                self.hist[d] += 1;
                self.tree.add(slot, -1);
                self.last.insert(page, IN_FRONT);
                self.push_front(page);
            }
        }
    }

    /// Records a hit at MRU index `i` (stack distance `i + 1`) and moves
    /// the entry to the front.
    #[inline]
    fn front_hit(&mut self, i: usize, page: u64) {
        let d = i + 1;
        if self.hist.len() <= d {
            self.hist.resize(d + 1, 0);
        }
        self.hist[d] += 1;
        self.mru_pages.copy_within(0..i, 1);
        self.mru_pages[0] = page;
    }

    /// Inserts `page` at the front of the MRU segment, demoting the
    /// least-recent entry into the overflow tree (with a fresh time
    /// slot, above every live slot) when the segment is full.
    fn push_front(&mut self, page: u64) {
        if self.mru_len == MRU_DEPTH {
            let evicted = self.mru_pages[MRU_DEPTH - 1];
            if self.now > self.tree.len() {
                self.compact();
            }
            let slot = self.now;
            self.now += 1;
            self.last.insert(evicted, slot);
            self.tree.add(slot, 1);
            self.mru_len -= 1;
        }
        self.mru_pages.copy_within(0..self.mru_len, 1);
        self.mru_pages[0] = page;
        self.mru_len += 1;
    }

    /// Renumbers time slots 1..=P in LRU order, keeping the tree bounded
    /// by the number of demoted distinct pages. Front-resident pages
    /// hold the [`IN_FRONT`] sentinel and have no slot to renumber.
    fn compact(&mut self) {
        let mut entries: Vec<(u64, usize)> =
            self.last.iter().filter(|&(_, &t)| t != IN_FRONT).map(|(&p, &t)| (p, t)).collect();
        entries.sort_by_key(|&(_, t)| t);
        let n = entries.len().max(1);
        self.tree = Fenwick::with_capacity((n * 2).max(1024));
        for (rank, (page, _)) in entries.into_iter().enumerate() {
            self.last.insert(page, rank + 1);
            self.tree.add(rank + 1, 1);
        }
        self.now = n + 1;
    }

    /// Total page-granular accesses observed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of distinct pages ever touched.
    pub fn distinct_pages(&self) -> u64 {
        self.last.len() as u64
    }

    /// Page faults with an LRU-managed memory of `pages` page frames:
    /// compulsory faults plus every access whose stack distance exceeds
    /// the memory size — `faults(m) = cold + Σ_{d>m} hist[d]`.
    ///
    /// An O(1) indexed lookup into the histogram's suffix sums, which
    /// are (re)built in one reverse pass whenever an access has landed
    /// since the last build. (The old implementation rescanned the
    /// whole histogram per call, which made [`StackSim::curve`]
    /// quadratic in the deepest stack distance.)
    pub fn faults_at(&self, pages: u64) -> u64 {
        let mut cache = self.suffix.borrow_mut();
        if cache.0 != self.accesses || cache.1.len() != self.hist.len() + 1 {
            let mut suffix = vec![0u64; self.hist.len() + 1];
            for d in (1..self.hist.len()).rev() {
                suffix[d] = suffix[d + 1] + self.hist[d];
            }
            *cache = (self.accesses, suffix);
        }
        let idx = pages.saturating_add(1).min(cache.1.len() as u64 - 1) as usize;
        self.cold + cache.1[idx]
    }

    /// The full fault curve: `curve()[m]` is the fault count with `m`
    /// page frames (index 0 = every access faults conceptually, reported
    /// as faults at 0 frames = all accesses beyond distance 0).
    ///
    /// One suffix-sum pass (the first [`StackSim::faults_at`] call
    /// builds the cache) plus an indexed lookup per point.
    pub fn curve(&self) -> FaultCurve {
        let max = self.hist.len() as u64;
        let points = (0..=max).map(|m| (m, self.faults_at(m))).collect();
        FaultCurve { page_size: self.page_size, accesses: self.accesses, points }
    }
}

impl AccessSink for StackSim {
    fn record(&mut self, r: MemRef) {
        self.access_addr(r.addr, r.size);
    }

    /// Run fast path: the reference's page span is decomposed once per
    /// run. After the first occurrence, the span's pages occupy the top
    /// `span` stack positions (most recent last), so each page touched
    /// by a repeat sits at exactly depth `span` and rotates back to the
    /// top — every one of the repeat's `span` page accesses has stack
    /// distance exactly `span`, and the stack's top returns to where the
    /// first occurrence left it. The repeats therefore collapse to
    /// histogram arithmetic with no per-page stack work, for *any* span:
    /// `span == 1` reduces to the historical stack-distance-1 case.
    ///
    /// The internal bookkeeping (MRU segment, Fenwick slots) is left at
    /// the first occurrence's state rather than the post-repeat state,
    /// but the two represent the same logical LRU stack, and every
    /// output — `hist`, `cold`, `accesses`, the page population —
    /// derives only from state the fast path advances exactly.
    fn record_runs(&mut self, runs: &[RefRun]) {
        for run in runs {
            self.access_addr(run.r.addr, run.r.size);
            if run.count > 1 {
                let extra = u64::from(run.count - 1);
                let span = run.r.block_span(self.page_size);
                let d = span as usize;
                if self.hist.len() <= d {
                    // The slow path's repeats would record distance
                    // `span` and grow the histogram identically.
                    self.hist.resize(d + 1, 0);
                }
                self.hist[d] += span * extra;
                self.accesses += span * extra;
                self.fastpath_refs += extra;
            }
        }
    }
}

/// Fault counts as a function of memory size, extracted from a
/// [`StackSim`] in one pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCurve {
    /// Page size the curve was computed at.
    pub page_size: u64,
    /// Total accesses, for converting counts to rates.
    pub accesses: u64,
    /// `(page_frames, faults)` points for every frame count up to the
    /// deepest observed stack distance.
    pub points: Vec<(u64, u64)>,
}

impl FaultCurve {
    /// Fault count with `frames` page frames (saturates at the curve's
    /// flat tail: cold faults only).
    pub fn faults(&self, frames: u64) -> u64 {
        match self.points.get(frames as usize) {
            Some(&(_, f)) => f,
            None => self.points.last().map(|&(_, f)| f).unwrap_or(0),
        }
    }

    /// Fault *rate* (faults per access) with memory of `bytes`.
    pub fn rate_at_bytes(&self, bytes: u64) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.faults(bytes / self.page_size) as f64 / self.accesses as f64
    }

    /// The number of page frames needed to suffer cold faults only.
    pub fn working_set_frames(&self) -> u64 {
        let floor = self.points.last().map(|&(_, f)| f).unwrap_or(0);
        self.points.iter().find(|&&(_, f)| f == floor).map(|&(m, _)| m).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_scan_is_all_cold() {
        let mut s = StackSim::new(4096);
        for i in 0..100u64 {
            s.access_page(i);
        }
        assert_eq!(s.faults_at(1), 100);
        assert_eq!(s.faults_at(1000), 100);
        assert_eq!(s.distinct_pages(), 100);
    }

    #[test]
    fn cyclic_scan_thrashes_small_memory() {
        let mut s = StackSim::new(4096);
        for _ in 0..10 {
            for i in 0..4u64 {
                s.access_page(i);
            }
        }
        // 4-page cycle: distance is always 4 after warmup.
        assert_eq!(s.faults_at(4), 4, "fits: only cold faults");
        assert_eq!(s.faults_at(3), 40, "LRU thrashes a cyclic scan");
    }

    #[test]
    fn repeated_access_is_distance_one() {
        let mut s = StackSim::new(4096);
        for _ in 0..5 {
            s.access_page(7);
        }
        assert_eq!(s.faults_at(1), 1);
        assert_eq!(s.accesses(), 5);
    }

    #[test]
    fn lru_inclusion_faults_never_increase_with_memory() {
        let mut s = StackSim::new(4096);
        // Pseudo-random page stream.
        let mut x = 12345u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s.access_page(x % 50);
        }
        let curve = s.curve();
        for w in curve.points.windows(2) {
            assert!(w[0].1 >= w[1].1, "faults increased with more memory");
        }
    }

    #[test]
    fn stack_distance_matches_naive_lru() {
        // Cross-check against a brute-force LRU stack.
        let mut s = StackSim::new(4096);
        let mut stack: Vec<u64> = Vec::new();
        let mut hist: Vec<u64> = vec![0; 64];
        let mut cold = 0u64;
        let mut x = 999u64;
        let mut pages = Vec::new();
        for _ in 0..2000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            pages.push(x % 23);
        }
        for &p in &pages {
            s.access_page(p);
            match stack.iter().position(|&q| q == p) {
                Some(pos) => {
                    hist[pos + 1] += 1;
                    stack.remove(pos);
                }
                None => cold += 1,
            }
            stack.insert(0, p);
        }
        for m in 0..30u64 {
            let naive: u64 = cold
                + hist
                    .iter()
                    .enumerate()
                    .skip(1)
                    .filter(|&(d, _)| d as u64 > m)
                    .map(|(_, &c)| c)
                    .sum::<u64>();
            assert_eq!(s.faults_at(m), naive, "mismatch at memory {m}");
        }
    }

    #[test]
    fn curve_matches_pointwise_faults_at() {
        // The suffix-sum curve must agree with the direct histogram scan
        // at every memory size.
        let mut s = StackSim::new(4096);
        let mut x = 77u64;
        for _ in 0..8000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s.access_page(x % 200);
        }
        let curve = s.curve();
        for &(m, f) in &curve.points {
            assert_eq!(f, s.faults_at(m), "curve disagrees at {m} frames");
        }
        assert_eq!(curve.points.len(), s.curve().points.len());
    }

    #[test]
    fn compaction_preserves_distances() {
        // Enough accesses to force several compactions (tree cap 1024).
        let mut s = StackSim::new(4096);
        for round in 0..200u64 {
            for i in 0..16u64 {
                s.access_page(i);
                let _ = round;
            }
        }
        assert_eq!(s.faults_at(16), 16);
        assert_eq!(s.faults_at(15), 16 + 199 * 16);
    }

    #[test]
    fn multi_page_refs_touch_every_page() {
        let mut s = StackSim::new(4096);
        s.access_addr(Address::new(4000), 8192);
        assert_eq!(s.distinct_pages(), 3);
    }

    #[test]
    fn curve_rates_and_working_set() {
        let mut s = StackSim::new(4096);
        for _ in 0..100 {
            for i in 0..8u64 {
                s.access_page(i);
            }
        }
        let curve = s.curve();
        assert_eq!(curve.working_set_frames(), 8);
        assert!(curve.rate_at_bytes(8 * 4096) < 0.02);
        assert!((curve.rate_at_bytes(4 * 4096) - 1.0).abs() < 0.02);
    }

    #[test]
    fn sink_impl_decomposes_refs() {
        use sim_mem::AccessSink;
        let mut s = StackSim::paper();
        s.record(MemRef::app_write(Address::new(0), 4096 * 2));
        assert_eq!(s.distinct_pages(), 2);
    }

    /// The pre-MRU stack simulator, ported verbatim (its only shortcut
    /// was a repeat of the immediately preceding page), as the reference
    /// the MRU fast path is equivalence-tested against.
    struct ReferenceSim {
        page_size: u64,
        page_shift: u32,
        last: HashMap<u64, usize>,
        tree: Fenwick,
        now: usize,
        hist: Vec<u64>,
        cold: u64,
        accesses: u64,
        last_page: Option<u64>,
    }

    impl ReferenceSim {
        fn new(page_size: u64) -> Self {
            ReferenceSim {
                page_size,
                page_shift: page_size.trailing_zeros(),
                last: HashMap::new(),
                tree: Fenwick::with_capacity(1024),
                now: 1,
                hist: vec![0; 2],
                cold: 0,
                accesses: 0,
                last_page: None,
            }
        }

        fn access_addr(&mut self, addr: Address, size: u32) {
            let first = addr.raw() >> self.page_shift;
            let last = (addr.raw() + u64::from(size.max(1)) - 1) >> self.page_shift;
            for page in first..=last {
                self.access_page(page);
            }
        }

        fn access_page(&mut self, page: u64) {
            self.accesses += 1;
            if self.last_page == Some(page) {
                self.hist[1] += 1;
                return;
            }
            self.last_page = Some(page);
            if self.now > self.tree.len() {
                self.compact();
            }
            let slot = self.now;
            self.now += 1;
            match self.last.insert(page, slot) {
                None => {
                    self.cold += 1;
                    self.tree.add(slot, 1);
                }
                Some(prev) => {
                    let d = (self.tree.range(prev + 1, slot - 1) + 1) as usize;
                    if self.hist.len() <= d {
                        self.hist.resize(d + 1, 0);
                    }
                    self.hist[d] += 1;
                    self.tree.add(prev, -1);
                    self.tree.add(slot, 1);
                }
            }
        }

        fn compact(&mut self) {
            let mut entries: Vec<(u64, usize)> = self.last.iter().map(|(&p, &t)| (p, t)).collect();
            entries.sort_by_key(|&(_, t)| t);
            let n = entries.len().max(1);
            self.tree = Fenwick::with_capacity((n * 2).max(1024));
            for (rank, (page, _)) in entries.into_iter().enumerate() {
                self.last.insert(page, rank + 1);
                self.tree.add(rank + 1, 1);
            }
            self.now = n + 1;
        }

        fn record_runs(&mut self, runs: &[RefRun]) {
            for run in runs {
                self.access_addr(run.r.addr, run.r.size);
                if run.count > 1 {
                    if run.r.single_block(self.page_size) {
                        let extra = u64::from(run.count - 1);
                        self.accesses += extra;
                        self.hist[1] += extra;
                    } else {
                        for _ in 1..run.count {
                            self.access_addr(run.r.addr, run.r.size);
                        }
                    }
                }
            }
        }

        /// The reference's fault curve, built exactly as
        /// [`StackSim::curve`] builds its own (same index range, same
        /// histogram-length-dependent point count).
        fn curve(&self) -> FaultCurve {
            let faults_at = |m: u64| {
                self.cold
                    + self
                        .hist
                        .iter()
                        .enumerate()
                        .skip(1)
                        .filter(|&(d, _)| d as u64 > m)
                        .map(|(_, &c)| c)
                        .sum::<u64>()
            };
            let max = self.hist.len() as u64;
            let points = (0..=max).map(|m| (m, faults_at(m))).collect();
            FaultCurve { page_size: self.page_size, accesses: self.accesses, points }
        }
    }

    /// A skewed page-reference stream: mostly a few hot pages (exercising
    /// MRU hits at every depth), salted with cold sweeps (evictions),
    /// revisits of mid-aged pages (slow-path hits over stale state), and
    /// multi-page references.
    fn skewed_refs(n: usize, seed: u64) -> Vec<MemRef> {
        let mut x = seed;
        let mut step = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x
        };
        let mut refs = Vec::with_capacity(n);
        for _ in 0..n {
            let r = step();
            let page = match r % 100 {
                0..=59 => r % 4,           // hot: top of stack
                60..=84 => 10 + r % 12,    // warm: straddles MRU_DEPTH
                85..=94 => 100 + r % 400,  // cool: mostly evicted
                _ => 10_000 + r % 100_000, // cold sweep
            };
            let size = match r % 17 {
                0 => 4096 * 2,
                1 => 5000,
                _ => 4,
            };
            refs.push(MemRef::app_read(Address::new(page * 4096 + (r % 7) * 4), size as u32));
        }
        refs
    }

    #[test]
    fn mru_fast_path_is_bit_identical_to_the_reference() {
        for seed in [1u64, 42, 977, 31337] {
            let refs = skewed_refs(20_000, seed);
            let mut fast = StackSim::paper();
            let mut reference = ReferenceSim::new(PAGE_SIZE);
            for &r in &refs {
                fast.access_addr(r.addr, r.size);
                reference.access_addr(r.addr, r.size);
            }
            assert_eq!(fast.accesses(), reference.accesses, "seed {seed}");
            assert_eq!(fast.distinct_pages(), reference.last.len() as u64, "seed {seed}");
            assert_eq!(fast.curve(), reference.curve(), "seed {seed}");
        }
    }

    #[test]
    fn mru_fast_path_is_bit_identical_under_run_delivery() {
        use sim_mem::AccessSink;
        for seed in [7u64, 555] {
            // Chop the stream into runs with repeat counts, including
            // repeated multi-page references (which bypass the run fast
            // path) and repeated single-page ones (which use it).
            let refs = skewed_refs(6_000, seed);
            let mut x = seed ^ 0xabcdef;
            let runs: Vec<RefRun> = refs
                .iter()
                .map(|&r| {
                    x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                    RefRun { r, count: 1 + (x % 9) as u32 }
                })
                .collect();
            let mut fast = StackSim::paper();
            let mut reference = ReferenceSim::new(PAGE_SIZE);
            // Deliver in uneven slices to move the run boundaries around.
            let mut i = 0;
            let mut chunk = 1;
            while i < runs.len() {
                let end = (i + chunk).min(runs.len());
                fast.record_runs(&runs[i..end]);
                reference.record_runs(&runs[i..end]);
                i = end;
                chunk = chunk % 37 + 1;
            }
            assert_eq!(fast.accesses(), reference.accesses, "seed {seed}");
            assert_eq!(fast.curve(), reference.curve(), "seed {seed}");
        }
    }
}
