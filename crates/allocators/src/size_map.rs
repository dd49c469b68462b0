//! Size-class policy: profiles, bounded-fragmentation classes, and the
//! size-mapping array of the paper's Figure 9.
//!
//! §4.4 of the paper argues that "the best allocator strikes a balance
//! between too few and too many size classes" and lists three ways to
//! choose them: anecdote (QUICKFIT), bounded internal fragmentation
//! ("if 25% or less internal fragmentation is tolerated, then objects of
//! size 12–16 bytes are rounded to 16"), and *empirical measurement of a
//! particular program's behaviour*. It then observes that "arbitrary
//! mappings can be implemented efficiently using a size-mapping array"
//! (Figure 9) — an array indexed by request size yielding the size class.
//!
//! [`SizeProfile`] collects the empirical measurements, [`SizeMap`] holds
//! the resulting class list and request→class mapping, and
//! [`SizeMap::write_to_heap`]/[`SizeMap::lookup`] realize Figure 9's
//! array inside the simulated heap so lookups appear in the reference
//! trace.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use sim_mem::{Address, MemCtx, OomError};

/// Largest request size a [`SizeMap`] can map (half a page: larger
/// requests take whole chunks).
pub const MAP_MAX: u32 = crate::chunked::FRAG_MAX;

/// Smallest permissible class (fragments must hold two links).
pub const MIN_CLASS: u32 = 8;

/// An empirical histogram of allocation request sizes.
///
/// # Example
///
/// ```
/// use allocators::SizeProfile;
/// let mut p = SizeProfile::new();
/// p.record(24);
/// p.record(24);
/// p.record(100);
/// assert_eq!(p.count(24), 2);
/// assert_eq!(p.total(), 3);
/// assert_eq!(p.top_sizes(1), vec![24]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SizeProfile {
    counts: HashMap<u32, u64>,
}

impl SizeProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one allocation request of `size` bytes.
    pub fn record(&mut self, size: u32) {
        *self.counts.entry(size).or_insert(0) += 1;
    }

    /// Number of requests recorded for exactly `size`.
    pub fn count(&self, size: u32) -> u64 {
        self.counts.get(&size).copied().unwrap_or(0)
    }

    /// Total requests recorded.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// The `n` most frequent request sizes, most frequent first; ties
    /// break toward smaller sizes for determinism.
    pub fn top_sizes(&self, n: usize) -> Vec<u32> {
        let mut entries: Vec<(u32, u64)> = self.counts.iter().map(|(&s, &c)| (s, c)).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries.into_iter().take(n).map(|(s, _)| s).collect()
    }

    /// Merges another profile into this one.
    pub fn merge(&mut self, other: &SizeProfile) {
        for (&s, &c) in &other.counts {
            *self.counts.entry(s).or_insert(0) += c;
        }
    }
}

impl Extend<u32> for SizeProfile {
    fn extend<T: IntoIterator<Item = u32>>(&mut self, iter: T) {
        for s in iter {
            self.record(s);
        }
    }
}

impl FromIterator<u32> for SizeProfile {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        let mut p = SizeProfile::new();
        p.extend(iter);
        p
    }
}

/// A request-size → size-class mapping with an explicit class list:
/// Figure 9's "size-mapping array".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SizeMap {
    /// Strictly increasing class sizes; the last equals the map maximum.
    classes: Vec<u32>,
    /// `map[g]` = class index for requests in word-granule `g`.
    map: Vec<u32>,
}

impl SizeMap {
    /// Builds a map from an explicit class list. Classes are rounded to
    /// word multiples, clamped to `[MIN_CLASS, MAP_MAX]`, deduplicated,
    /// and a `MAP_MAX` ceiling class is added so every mappable size has
    /// a class.
    pub fn from_classes(classes: impl IntoIterator<Item = u32>) -> Self {
        let mut cs: Vec<u32> =
            classes.into_iter().map(|s| s.clamp(MIN_CLASS, MAP_MAX).div_ceil(4) * 4).collect();
        cs.push(MAP_MAX);
        cs.sort_unstable();
        cs.dedup();
        let granules = (MAP_MAX / 4) as usize;
        let mut map = vec![0u32; granules];
        for (g, slot) in map.iter_mut().enumerate() {
            let size = (g as u32 + 1) * 4;
            let class = cs.partition_point(|&c| c < size);
            *slot = class as u32;
        }
        SizeMap { classes: cs, map }
    }

    /// The bounded-internal-fragmentation policy: geometric classes such
    /// that no request wastes more than `bound` of its class (e.g. 0.25
    /// for the paper's 25% example). Waste is measured against the
    /// word-rounded request, since no word-aligned allocator can grant
    /// less than a whole word.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < bound < 1.0`.
    pub fn bounded_fragmentation(bound: f64) -> Self {
        assert!(bound > 0.0 && bound < 1.0, "bound must be a fraction in (0, 1)");
        let mut classes = Vec::new();
        let mut c = MIN_CLASS;
        while c < MAP_MAX {
            classes.push(c);
            // Largest next class whose smallest-mapped word-rounded
            // request (c + 4) still wastes at most `bound`.
            let next = ((f64::from(c) + 4.0) / (1.0 - bound)).floor() as u32;
            let next = (next / 4) * 4;
            c = next.max(c + 4);
        }
        SizeMap::from_classes(classes)
    }

    /// The paper's synthesis policy: exact classes for the `max_exact`
    /// most frequent profiled sizes, backed by bounded-fragmentation
    /// classes (`bound`) for everything else.
    pub fn from_profile(profile: &SizeProfile, max_exact: usize, bound: f64) -> Self {
        let mut classes = SizeMap::bounded_fragmentation(bound).classes;
        classes.extend(
            profile
                .top_sizes(max_exact)
                .into_iter()
                .filter(|&s| s <= MAP_MAX)
                .map(|s| s.max(MIN_CLASS)),
        );
        SizeMap::from_classes(classes)
    }

    /// The class sizes, strictly increasing.
    pub fn class_sizes(&self) -> &[u32] {
        &self.classes
    }

    /// Largest mappable request.
    pub fn max_mapped(&self) -> u32 {
        MAP_MAX
    }

    /// The class index for `size`, or `None` if the request is larger
    /// than the map covers. Pure computation (untraced); allocators use
    /// [`Self::lookup`].
    pub fn class_for(&self, size: u32) -> Option<usize> {
        if size > MAP_MAX {
            return None;
        }
        let g = (size.max(1) as usize - 1) / 4;
        Some(self.map[g] as usize)
    }

    /// The class size serving `size`, or `None` if unmapped.
    pub fn rounded(&self, size: u32) -> Option<u32> {
        self.class_for(size).map(|c| self.classes[c])
    }

    /// Writes the mapping array into the heap (one word per granule) and
    /// returns its base address, enabling traced lookups.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if the heap cannot hold the array.
    pub fn write_to_heap(&self, ctx: &mut MemCtx<'_>) -> Result<Address, OomError> {
        let base = ctx.sbrk(self.map.len() as u64 * 4)?;
        for (g, &class) in self.map.iter().enumerate() {
            ctx.store(base + g as u64 * 4, class);
        }
        Ok(base)
    }

    /// Figure 9's traced lookup: one load of the in-heap array plus the
    /// indexing arithmetic.
    pub fn lookup(base: Address, size: u32, ctx: &mut MemCtx<'_>) -> usize {
        debug_assert!(size <= MAP_MAX);
        let g = (size.max(1) as u64 - 1) / 4;
        ctx.ops(3);
        ctx.load(base + g * 4) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::{CountingSink, HeapImage, InstrCounter};

    #[test]
    fn from_classes_sorts_dedupes_and_caps() {
        let m = SizeMap::from_classes([24, 8, 24, 100]);
        assert_eq!(m.class_sizes(), &[8, 24, 100, MAP_MAX]);
        assert_eq!(m.rounded(8), Some(8));
        assert_eq!(m.rounded(9), Some(24));
        assert_eq!(m.rounded(24), Some(24));
        assert_eq!(m.rounded(25), Some(100));
        assert_eq!(m.rounded(101), Some(MAP_MAX));
        assert_eq!(m.rounded(MAP_MAX), Some(MAP_MAX));
        assert_eq!(m.rounded(MAP_MAX + 1), None);
    }

    #[test]
    fn classes_are_word_multiples_with_floor() {
        let m = SizeMap::from_classes([5, 13, 2]);
        for &c in m.class_sizes() {
            assert_eq!(c % 4, 0);
            assert!(c >= MIN_CLASS);
        }
    }

    #[test]
    fn bounded_fragmentation_honours_bound() {
        let m = SizeMap::bounded_fragmentation(0.25);
        for size in 1..=MAP_MAX {
            let c = m.rounded(size).unwrap();
            assert!(c >= size);
            let rounded = size.div_ceil(4) * 4;
            let waste = f64::from(c - rounded) / f64::from(c);
            // Sizes below MIN_CLASS inevitably waste more.
            if size >= MIN_CLASS {
                assert!(waste <= 0.25 + 1e-9, "size {size} wastes {waste} in class {c}");
            }
        }
        // Classes grow geometrically: far fewer classes than word
        // multiples at the large end.
        let big_classes = m.class_sizes().iter().filter(|&&c| c >= 1024).count();
        assert!(big_classes < 8, "geometric spacing, found {big_classes} classes >= 1024");
    }

    #[test]
    fn papers_example_classes_round_12_to_16() {
        // "if 25% or less internal fragmentation is tolerated, then
        // objects of size 12-16 bytes are rounded to 16" — with a class
        // list that lacks a 12-byte class.
        let m = SizeMap::from_classes([8, 16, 32]);
        assert_eq!(m.rounded(12), Some(16));
        assert_eq!(m.rounded(16), Some(16));
        assert_eq!(m.rounded(17), Some(32));
    }

    #[test]
    fn profile_top_sizes_become_exact_classes() {
        let mut p = SizeProfile::new();
        for _ in 0..1000 {
            p.record(24);
        }
        for _ in 0..10 {
            p.record(100);
        }
        let m = SizeMap::from_profile(&p, 1, 0.5);
        assert_eq!(m.rounded(24), Some(24), "hot size gets an exact class");
        assert!(m.rounded(100).unwrap() >= 100);
    }

    #[test]
    fn profile_counts_and_merge() {
        let mut a: SizeProfile = [8u32, 8, 24].into_iter().collect();
        let b: SizeProfile = [24u32, 24].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(8), 2);
        assert_eq!(a.count(24), 3);
        assert_eq!(a.total(), 5);
        assert_eq!(a.top_sizes(2), vec![24, 8]);
    }

    #[test]
    fn heap_array_lookup_matches_pure_lookup() {
        let mut heap = HeapImage::new();
        let mut sink = CountingSink::new();
        let mut instrs = InstrCounter::new();
        let mut ctx = MemCtx::new(&mut heap, &mut sink, &mut instrs);
        let m = SizeMap::bounded_fragmentation(0.25);
        let base = m.write_to_heap(&mut ctx).unwrap();
        for size in [1u32, 8, 12, 24, 100, 2048] {
            assert_eq!(SizeMap::lookup(base, size, &mut ctx), m.class_for(size).unwrap());
        }
        assert!(sink.stats().meta_reads >= 6, "lookups must be traced");
    }
}
