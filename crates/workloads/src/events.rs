//! The application event vocabulary.

use serde::{Deserialize, Serialize};

/// One step of a synthetic application, consumed by the experiment
/// engine. Object identity is a generator-assigned id; the engine maps
/// ids to heap addresses once the allocator under test has placed them.
///
/// # The id contract
///
/// Ids are allocation ordinals: the n-th `Malloc` of a stream, counting
/// from 0, names object n. A `Free` or an `Access` names an object that
/// has been allocated and not yet freed. The engine indexes its object
/// table by id, so it needs no hashing, and it rejects a stream that
/// breaks the contract. The generator follows it by construction, and
/// [`crate::import::parse_trace`] renumbers a file's free-form ids to
/// follow it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AppEvent {
    /// Request `size` bytes; the object is known as `id` from here on.
    Malloc {
        /// The object's identity: its allocation ordinal.
        id: u64,
        /// Requested bytes.
        size: u32,
        /// Synthetic allocation call site (the index of the size-mixture
        /// entry that produced the request). Real programs expose this as
        /// the return address of the `malloc` call; Barrett & Zorn's
        /// lifetime predictors — the paper's §5.1 future work — key on it.
        site: u32,
    },
    /// Release object `id`.
    Free {
        /// The object to release.
        id: u64,
    },
    /// Touch `len` bytes at `offset` within object `id`.
    Access {
        /// The object touched.
        id: u64,
        /// Byte offset within the object.
        offset: u32,
        /// Bytes touched.
        len: u32,
        /// Store (`true`) or load (`false`).
        write: bool,
    },
    /// Run `instrs` application instructions that touch no data
    /// (register arithmetic, control flow).
    Compute {
        /// Instructions executed.
        instrs: u64,
    },
    /// Touch `words` words of stack/static data. The paper's traces
    /// include every data reference, and in real programs the majority
    /// go to the (small, hot) stack and static segments; modelling them
    /// keeps the miss-rate denominator — and therefore the absolute
    /// miss rates — comparable to the paper's.
    Stack {
        /// Words of stack traffic.
        words: u64,
    },
}

impl AppEvent {
    /// Word-granular data references this event represents, for the
    /// paper's "Data Refs" accounting (Table 2).
    pub fn word_refs(&self) -> u64 {
        match self {
            AppEvent::Access { len, .. } => u64::from(len.div_ceil(4).max(1)),
            AppEvent::Stack { words } => *words,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_refs_counts_access_words() {
        assert_eq!(AppEvent::Access { id: 0, offset: 0, len: 4, write: false }.word_refs(), 1);
        assert_eq!(AppEvent::Access { id: 0, offset: 0, len: 64, write: true }.word_refs(), 16);
        assert_eq!(AppEvent::Access { id: 0, offset: 0, len: 1, write: true }.word_refs(), 1);
        assert_eq!(AppEvent::Malloc { id: 0, size: 8, site: 0 }.word_refs(), 0);
        assert_eq!(AppEvent::Compute { instrs: 10 }.word_refs(), 0);
        assert_eq!(AppEvent::Stack { words: 9 }.word_refs(), 9);
    }
}
