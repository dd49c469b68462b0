//! The five dynamic-storage-allocation (DSA) algorithms measured by
//! Grunwald, Zorn & Henderson in *Improving the Cache Locality of Memory
//! Allocation* (PLDI 1993), plus the synthesized allocator their
//! conclusions call for.
//!
//! Every allocator manages blocks inside a [`sim_mem::HeapImage`] and keeps
//! its metadata (freelist links, boundary tags, chunk descriptors) *in* the
//! simulated heap, at the same offsets the original C implementations used.
//! All metadata accesses go through [`sim_mem::MemCtx`], so each allocator
//! emits an address-faithful reference trace and per-phase instruction
//! counts as a side effect of simply running.
//!
//! Each allocator has exactly one implementation, which reads its
//! metadata back from the heap image as the original C did: no
//! host-side shadow of the free lists stands between an algorithm and
//! its trace. The workspace's `allocator_digests` test pins every
//! allocator's reference stream, heap image, statistics and metrics.
//!
//! The implementations:
//!
//! | Type | Paper name | Strategy |
//! |---|---|---|
//! | [`FirstFit`] | `FIRSTFIT` | Knuth first fit: roving pointer, boundary tags, coalescing |
//! | [`GnuGxx`] | `GNU G++` | Lea: size-segregated doubly-linked freelists, boundary tags, coalescing |
//! | [`Bsd`] | `BSD` | Kingsley: power-of-two buckets, no coalescing, no search |
//! | [`GnuLocal`] | `GNU LOCAL` | Haertel: page chunks, localized chunk headers, no per-object tags |
//! | [`QuickFit`] | `QUICKFIT` | Weinstock & Wulf: exact-size fast lists (4–32 B) over a general allocator |
//! | [`Custom`] | §4.4 design | Profile-driven size classes, chunked, tag-free (the paper's recommendation) |
//!
//! # Example
//!
//! ```
//! use allocators::{Allocator, Bsd};
//! use sim_mem::{HeapImage, MemCtx, NullSink, InstrCounter};
//!
//! # fn main() -> Result<(), allocators::AllocError> {
//! let mut heap = HeapImage::new();
//! let mut sink = NullSink;
//! let mut instrs = InstrCounter::new();
//! let mut ctx = MemCtx::new(&mut heap, &mut sink, &mut instrs);
//! let mut bsd = Bsd::new(&mut ctx)?;
//! let p = bsd.malloc(24, &mut ctx)?;
//! bsd.free(p, &mut ctx)?;
//! let q = bsd.malloc(24, &mut ctx)?;
//! assert_eq!(p, q, "BSD recycles the freed block immediately");
//! # Ok(())
//! # }
//! ```

pub mod best_fit;
pub mod bsd;
pub mod buddy;
pub mod chunked;
pub mod custom;
pub mod first_fit;
pub mod gnu_gxx;
pub mod gnu_local;
pub mod layout;
pub mod predictive;
pub mod quick_fit;
pub mod size_map;
pub mod stats;
pub mod verify;

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};
use sim_mem::{Address, MemCtx, OomError};

pub use best_fit::BestFit;
pub use bsd::{Bsd, BsdConfig};
pub use buddy::Buddy;
pub use custom::Custom;
pub use first_fit::FirstFit;
pub use gnu_gxx::GnuGxx;
pub use gnu_local::GnuLocal;
pub use predictive::{Predictive, PredictiveConfig};
pub use quick_fit::{QuickFit, QuickFitConfig};
pub use size_map::{SizeMap, SizeProfile};
pub use stats::AllocStats;

/// Errors surfaced by allocator operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The simulated heap limit was exceeded.
    Oom(OomError),
    /// A `free` was passed an address that does not denote a live block.
    InvalidFree(Address),
    /// A request exceeded what the allocator supports.
    Unsupported(u32),
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::Oom(e) => write!(f, "allocation failed: {e}"),
            AllocError::InvalidFree(a) => write!(f, "invalid free of {a}"),
            AllocError::Unsupported(n) => write!(f, "unsupported request size {n}"),
        }
    }
}

impl Error for AllocError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AllocError::Oom(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OomError> for AllocError {
    fn from(e: OomError) -> Self {
        AllocError::Oom(e)
    }
}

/// A dynamic storage allocator operating on the simulated heap.
///
/// Implementations update their [`AllocStats`] on every operation. The
/// caller (the experiment engine) is responsible for setting the
/// instruction-accounting phase on the [`MemCtx`] before invoking `malloc`
/// or `free`.
pub trait Allocator {
    /// Short identifier matching the paper ("FirstFit", "BSD", ...).
    fn name(&self) -> &'static str;

    /// Allocates `size` bytes and returns the payload address.
    ///
    /// A `size` of zero is treated as the smallest supported request, as C
    /// `malloc(0)` conventionally returns a unique pointer.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Oom`] if the heap limit is exhausted.
    fn malloc(&mut self, size: u32, ctx: &mut MemCtx<'_>) -> Result<Address, AllocError>;

    /// Allocates `size` bytes for the given allocation *call site*.
    ///
    /// C exposes the call site as `malloc`'s return address; Barrett &
    /// Zorn's lifetime predictors (the paper's §5.1 future work) key
    /// their predictions on it. The default implementation ignores the
    /// site; [`predictive::Predictive`] overrides it.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Oom`] if the heap limit is exhausted.
    fn malloc_at(
        &mut self,
        size: u32,
        site: u32,
        ctx: &mut MemCtx<'_>,
    ) -> Result<Address, AllocError> {
        let _ = site;
        self.malloc(size, ctx)
    }

    /// Releases the block whose payload starts at `ptr`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::InvalidFree`] when the implementation can
    /// detect that `ptr` is not a live allocation (tag-carrying allocators
    /// check the allocated bit; others detect what their metadata allows).
    fn free(&mut self, ptr: Address, ctx: &mut MemCtx<'_>) -> Result<(), AllocError>;

    /// Allocation statistics accumulated so far.
    fn stats(&self) -> &AllocStats;
}

/// The allocator designs compared in the paper, as buildable identifiers.
///
/// [`Custom`] is not included because it requires a size profile; build it
/// directly via [`Custom::from_profile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AllocatorKind {
    /// Knuth/Moraes first fit.
    FirstFit,
    /// Lea's segregated first fit.
    GnuGxx,
    /// Kingsley's power-of-two segregated storage.
    Bsd,
    /// Haertel's page-oriented hybrid.
    GnuLocal,
    /// Weinstock & Wulf's exact-size fast lists.
    QuickFit,
}

impl AllocatorKind {
    /// The five allocators, in the order the paper's figures present them.
    pub const ALL: [AllocatorKind; 5] = [
        AllocatorKind::FirstFit,
        AllocatorKind::QuickFit,
        AllocatorKind::GnuGxx,
        AllocatorKind::Bsd,
        AllocatorKind::GnuLocal,
    ];

    /// The paper's display name.
    pub fn label(self) -> &'static str {
        match self {
            AllocatorKind::FirstFit => "FirstFit",
            AllocatorKind::GnuGxx => "GNU G++",
            AllocatorKind::Bsd => "BSD",
            AllocatorKind::GnuLocal => "GNU local",
            AllocatorKind::QuickFit => "QuickFit",
        }
    }

    /// Builds a fresh allocator of this kind over the given context.
    ///
    /// # Errors
    ///
    /// Propagates [`AllocError::Oom`] if the initial metadata area cannot
    /// be reserved.
    pub fn build(self, ctx: &mut MemCtx<'_>) -> Result<Box<dyn Allocator>, AllocError> {
        Ok(match self {
            AllocatorKind::FirstFit => Box::new(FirstFit::new(ctx)?),
            AllocatorKind::GnuGxx => Box::new(GnuGxx::new(ctx)?),
            AllocatorKind::Bsd => Box::new(Bsd::new(ctx)?),
            AllocatorKind::GnuLocal => Box::new(GnuLocal::new(ctx)?),
            AllocatorKind::QuickFit => Box::new(QuickFit::new(ctx)?),
        })
    }
}

impl fmt::Display for AllocatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_match_paper() {
        assert_eq!(AllocatorKind::FirstFit.label(), "FirstFit");
        assert_eq!(AllocatorKind::GnuGxx.to_string(), "GNU G++");
        assert_eq!(AllocatorKind::ALL.len(), 5);
    }

    #[test]
    fn alloc_error_displays_and_sources() {
        let e = AllocError::InvalidFree(Address::new(0x10));
        assert!(e.to_string().contains("invalid free"));
        assert!(e.source().is_none());
        let oom = OomError { requested: 8, in_use: 0, limit: 4 };
        let e = AllocError::from(oom);
        assert!(e.source().is_some());
    }
}
