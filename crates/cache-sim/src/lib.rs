//! TYCHO-style data-cache simulation.
//!
//! The paper modified Mark Hill's TYCHO simulator to consume references
//! online ("execution-driven cache simulation ... without storing large
//! trace files") and simulated direct-mapped caches with 32-byte blocks
//! from 16K to 256K. This crate reproduces that setup:
//!
//! * [`Cache`] — one cache configuration: direct-mapped (the paper's
//!   choice) or N-way set-associative with LRU replacement (the extension
//!   Wilson's cited work considers), write-allocate, and cold- vs.
//!   capacity/conflict-miss classification.
//! * [`CacheBank`] — many arbitrary configurations fed by one replay of
//!   the reference stream (each member still decomposes every reference
//!   itself): the per-cache oracle the sweep is tested against.
//! * [`SweepCache`] — any set of configurations sharing one block size,
//!   direct-mapped or LRU set-associative, simulated in a genuine single
//!   pass: one block decomposition, one last-block short-circuit, and
//!   one cold-miss membership set shared by all members, bit-identical
//!   to a bank of independent caches. Because set counts are powers of
//!   two, a block that is most recently used in its set of the member
//!   with the fewest sets is most recently used in every member, so one
//!   compare skips most touches (the proof is in [`sweep`]). An
//!   all-direct-mapped sweep keeps a flag-free member loop, which
//!   measured faster than the LRU walk on such members. This is how the
//!   miss-rate-vs-cache-size curves of Figures 6–8 are produced, and
//!   how the engine simulates every geometry: one sweep per block size.
//!
//! References of any byte size are decomposed into blocks; statistics are
//! kept separately for application and allocator-metadata references so
//! the *direct* cache cost of an allocator can be separated from its
//! *indirect* effect on application locality.
//!
//! # Example
//!
//! ```
//! use cache_sim::{Cache, CacheConfig};
//! use sim_mem::{Address, MemRef};
//!
//! let mut cache = Cache::new(CacheConfig::direct_mapped(16 * 1024, 32));
//! cache.access(MemRef::app_read(Address::new(0), 4));
//! cache.access(MemRef::app_read(Address::new(8), 4)); // same block: hit
//! let s = cache.stats();
//! assert_eq!(s.accesses(), 2);
//! assert_eq!(s.misses(), 1);
//! assert_eq!(s.cold_misses, 1);
//! ```

pub mod bank;
pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod reference;
pub mod sweep;
pub mod three_c;
pub mod victim;

pub use bank::CacheBank;
pub use cache::{Cache, CacheStats};
pub use config::CacheConfig;
pub use hierarchy::{TwoLevelCache, TwoLevelStats, L1_MISS_PENALTY, L2_MISS_PENALTY};
pub use sweep::SweepCache;
pub use three_c::{ThreeC, ThreeCAnalyzer};
pub use victim::{VictimCache, VictimStats};
