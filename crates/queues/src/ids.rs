//! The typed identifiers of the dCUDA device API, defined once for every
//! driver: the simulator re-exports them as `dcuda_core::{Rank, WinId}`,
//! the threaded runtime as `dcuda_rt::{Rank, WindowId, Tag}`.
//!
//! Each position is its own type, so a transposed `put_notify(dst, win, ..)`
//! does not compile, and each carries its wildcard constant (`Rank::ANY`,
//! `WindowId::ANY`, `Tag::ANY`). The layout is a plain `u32`: the matcher's
//! untyped [`Query`](crate::Query) is the same three words.

use crate::ANY;
use std::fmt;

/// A dCUDA rank — one CUDA block, addressable cluster-wide (paper §II-B;
/// `dcuda_comm_rank(DCUDA_COMM_WORLD)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rank(pub u32);

impl Rank {
    /// Source wildcard for queries (`DCUDA_ANY_SOURCE`).
    pub const ANY: Rank = Rank(ANY);

    /// Raw index (for container addressing).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A window identifier: the position in the registered window layout,
/// valid cluster-wide after collective creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WindowId(pub u32);

impl WindowId {
    /// Window wildcard for queries (`DCUDA_ANY_WIN`).
    pub const ANY: WindowId = WindowId(ANY);

    /// Raw index (for container addressing).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The runtime's notification tag. (The simulator's kernels still pass
/// tags as plain `u32`s.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag(pub u32);

impl Tag {
    /// Tag wildcard for queries (`DCUDA_ANY_TAG`).
    pub const ANY: Tag = Tag(ANY);
}

impl From<u32> for Rank {
    fn from(v: u32) -> Self {
        Rank(v)
    }
}

impl From<u32> for WindowId {
    fn from(v: u32) -> Self {
        WindowId(v)
    }
}

impl From<u32> for Tag {
    fn from(v: u32) -> Self {
        Tag(v)
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Rank::ANY {
            write!(f, "rank(ANY)")
        } else {
            write!(f, "rank {}", self.0)
        }
    }
}

impl fmt::Display for WindowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == WindowId::ANY {
            write!(f, "win(ANY)")
        } else {
            write!(f, "win {}", self.0)
        }
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Tag::ANY {
            write!(f, "tag(ANY)")
        } else {
            write!(f, "tag {}", self.0)
        }
    }
}
