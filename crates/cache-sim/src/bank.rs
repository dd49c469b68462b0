//! Simulating many cache configurations in one pass.

use sim_mem::{AccessSink, MemRef, RefRun};

use crate::{Cache, CacheConfig, CacheStats};

/// A set of caches fed by the same reference stream.
///
/// The paper varies cache size from 16K to 256K per experiment; feeding a
/// bank avoids replaying the workload once per configuration.
/// `CacheBank` implements [`AccessSink`], so it can sit directly on a
/// [`sim_mem::MemCtx`].
///
/// # Example
///
/// ```
/// use cache_sim::{CacheBank, CacheConfig};
/// use sim_mem::{AccessSink, Address, MemRef};
///
/// let mut bank = CacheBank::new(CacheConfig::paper_sweep());
/// bank.record(MemRef::app_read(Address::new(0), 4));
/// assert_eq!(bank.caches().len(), 5);
/// assert!(bank.caches().iter().all(|c| c.stats().misses() == 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CacheBank {
    caches: Vec<Cache>,
}

impl CacheBank {
    /// Creates a bank over the given configurations.
    pub fn new(configs: impl IntoIterator<Item = CacheConfig>) -> Self {
        CacheBank { caches: configs.into_iter().map(Cache::new).collect() }
    }

    /// The member caches, in construction order.
    pub fn caches(&self) -> &[Cache] {
        &self.caches
    }

    /// Statistics for the cache with exactly this configuration, if any.
    pub fn stats_for(&self, config: CacheConfig) -> Option<&CacheStats> {
        self.caches.iter().find(|c| c.config() == config).map(|c| c.stats())
    }

    /// `(config, stats)` pairs for reporting.
    pub fn results(&self) -> Vec<(CacheConfig, CacheStats)> {
        self.caches.iter().map(|c| (c.config(), *c.stats())).collect()
    }
}

impl AccessSink for CacheBank {
    fn record(&mut self, r: MemRef) {
        for cache in &mut self.caches {
            cache.access(r);
        }
    }

    /// Run-compressed batches keep the members *inner*, per run: each
    /// run reaches every member before the next is read. A replayed
    /// stream can be tens of millions of runs (hundreds of megabytes);
    /// letting each member consume the whole slice would stream that
    /// from memory once *per member*, while the members' tag arrays
    /// together are only a few hundred kilobytes and stay cache-resident
    /// under any nesting. Reading each run once and applying it to every
    /// member touches the big operand exactly once, and each member's
    /// own run fast path still absorbs the repeats. Run-boundary
    /// placement never affects sink state (the [`AccessSink`] contract),
    /// so the nesting choice is bit-identical.
    fn record_runs(&mut self, runs: &[RefRun]) {
        for run in runs {
            let run = std::slice::from_ref(run);
            for cache in &mut self.caches {
                cache.record_runs(run);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::Address;

    #[test]
    fn all_members_see_every_reference() {
        let mut bank = CacheBank::new([
            CacheConfig::direct_mapped(1024, 32),
            CacheConfig::direct_mapped(4096, 32),
        ]);
        for i in 0..100u64 {
            bank.record(MemRef::app_read(Address::new(i * 64), 4));
        }
        for c in bank.caches() {
            assert_eq!(c.stats().accesses(), 100);
        }
    }

    #[test]
    fn stats_for_finds_by_config() {
        let cfg = CacheConfig::direct_mapped(2048, 32);
        let mut bank = CacheBank::new([cfg]);
        bank.record(MemRef::meta_write(Address::new(0), 4));
        assert_eq!(bank.stats_for(cfg).unwrap().meta_accesses, 1);
        assert!(bank.stats_for(CacheConfig::direct_mapped(4096, 32)).is_none());
        assert_eq!(bank.results().len(), 1);
    }

    #[test]
    fn larger_caches_in_bank_miss_no_more() {
        let mut bank = CacheBank::new(CacheConfig::paper_sweep());
        // Cyclic scan over 32K: thrashes 16K, fits 32K+.
        for round in 0..3 {
            let _ = round;
            for i in 0..1024u64 {
                bank.record(MemRef::app_read(Address::new(i * 32), 4));
            }
        }
        let misses: Vec<u64> = bank.caches().iter().map(|c| c.stats().misses()).collect();
        for w in misses.windows(2) {
            assert!(w[0] >= w[1], "bigger cache missed more: {misses:?}");
        }
        assert_eq!(misses[1], 1024, "32K holds the whole working set");
    }
}
