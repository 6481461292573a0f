//! Typed identifiers, queries and errors of the runtime API.
//!
//! The first runtime API passed windows, ranks and tags as bare `u32`s —
//! easy to transpose silently (`put_notify(dst, win, ...)` compiles). These
//! newtypes make each position its own type, carry the wildcard constants
//! (`Rank::ANY`, `Tag::ANY`, `WindowId::ANY`) instead of loose `ANY_*`
//! consts, and pair with [`RtError`] so bad arguments surface as values
//! rather than panics.

use dcuda_queues::{Query, ANY};
use std::fmt;

/// World-communicator rank (`dcuda_comm_rank(DCUDA_COMM_WORLD)`).
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

/// Window identifier (position in the registered window layout).
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

/// Notification tag.
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

/// A typed notification query: each position is either exact or its type's
/// `ANY` wildcard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtQuery {
    /// Window to match (or [`WindowId::ANY`]).
    pub win: WindowId,
    /// Source rank to match (or [`Rank::ANY`]).
    pub source: Rank,
    /// Tag to match (or [`Tag::ANY`]).
    pub tag: Tag,
}

impl RtQuery {
    /// Matches any notification.
    pub const WILDCARD: RtQuery = RtQuery {
        win: WindowId::ANY,
        source: Rank::ANY,
        tag: Tag::ANY,
    };

    /// A fully exact query.
    pub fn exact(win: WindowId, source: Rank, tag: Tag) -> Self {
        RtQuery { win, source, tag }
    }

    /// Replace the window position.
    pub fn with_win(self, win: WindowId) -> Self {
        RtQuery { win, ..self }
    }

    /// Replace the source position.
    pub fn with_source(self, source: Rank) -> Self {
        RtQuery { source, ..self }
    }

    /// Replace the tag position.
    pub fn with_tag(self, tag: Tag) -> Self {
        RtQuery { tag, ..self }
    }

    /// The untyped matcher query this corresponds to.
    #[inline]
    pub(crate) fn raw(self) -> Query {
        Query {
            win: self.win.0,
            source: self.source.0,
            tag: self.tag.0,
        }
    }
}

/// Errors of the runtime API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtError {
    /// A window index beyond the registered layout.
    NoSuchWindow {
        /// The offending index.
        win: WindowId,
        /// Number of registered windows.
        count: usize,
    },
    /// A destination rank outside the world communicator.
    RankOutOfRange {
        /// The offending rank.
        rank: Rank,
        /// World size.
        world: u32,
    },
    /// A byte range that exceeds its window.
    RangeOutOfBounds {
        /// Window addressed.
        win: WindowId,
        /// Start offset of the range.
        offset: usize,
        /// Length of the range.
        len: usize,
        /// Actual window length.
        window_len: usize,
    },
    /// A wildcard used where an exact value is required (e.g. a put
    /// destination).
    WildcardNotAllowed {
        /// Which argument position held the wildcard.
        position: &'static str,
    },
    /// A notified put carried a tag with bit 31 set — that tag space is
    /// reserved for the collective engine.
    ReservedTag {
        /// The offending tag.
        tag: Tag,
    },
    /// A collective-layer validation failure (bad plan, misaligned buffer,
    /// undersized scratch window, root outside the world).
    Coll(dcuda_coll::CollError),
    /// Cluster configuration rejected by validation.
    InvalidConfig(String),
    /// A runtime channel disconnected because the peer thread exited.
    Disconnected {
        /// Which link broke.
        link: &'static str,
    },
    /// A rank program panicked; the cluster aborted and joined cleanly.
    RankPanicked {
        /// World rank of the panicking program.
        rank: u32,
        /// The panic payload, rendered.
        message: String,
    },
    /// A host thread panicked; the cluster aborted and joined cleanly.
    HostPanicked {
        /// Device whose host thread panicked.
        device: u32,
        /// The panic payload, rendered.
        message: String,
    },
    /// The cluster aborted because another thread failed first; this rank's
    /// blocking call was interrupted so the join could complete.
    Aborted,
    /// The job world was torn down by its external
    /// [`CancelToken`](crate::cluster::CancelToken) before completing, and no
    /// other failure was recorded. This is the teardown the scheduler's
    /// `cancel` verb relies on — a cancelled job reports `Cancelled`, never
    /// a spurious protocol error.
    Cancelled,
    /// The inter-host transport failed (socket error, corrupt stream, or a
    /// peer process that died before the world quiesced).
    Transport {
        /// Rendered transport-level error.
        detail: String,
    },
    /// A rank task called a blocking method of [`RtCtx`](crate::RtCtx).
    /// A task runs on its world's driver thread beside every other rank, so
    /// it must await the method's async form instead.
    BlockingInTask {
        /// The blocking method that was called.
        call: &'static str,
    },
    /// A job world run by the cooperative driver reached a fixed point: in
    /// one sweep no task reached a new wait or finished and no device
    /// engine moved anything, so no later sweep could either.
    Stalled {
        /// Every rank still waiting, with what it waits for.
        waiting: Vec<(u32, String)>,
    },
    /// The happens-before race detector found a data race and the run is in
    /// strict mode: the access completing the racy pair fails with the
    /// report (observe mode accumulates reports in `RtReport.races`
    /// instead).
    Race(Box<dcuda_verify::RaceReport>),
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::NoSuchWindow { win, count } => {
                write!(f, "{win} does not exist ({count} windows registered)")
            }
            RtError::RankOutOfRange { rank, world } => {
                write!(f, "{rank} outside the world of {world} ranks")
            }
            RtError::RangeOutOfBounds {
                win,
                offset,
                len,
                window_len,
            } => write!(
                f,
                "range {offset}..{} exceeds {win} of {window_len} bytes",
                offset.saturating_add(*len)
            ),
            RtError::WildcardNotAllowed { position } => {
                write!(f, "wildcard not allowed as {position}")
            }
            RtError::ReservedTag { tag } => {
                write!(f, "{tag} has bit 31 set (reserved for collectives)")
            }
            RtError::Coll(e) => write!(f, "collective: {e}"),
            RtError::InvalidConfig(msg) => write!(f, "invalid cluster config: {msg}"),
            RtError::Disconnected { link } => write!(f, "{link} disconnected"),
            RtError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            RtError::HostPanicked { device, message } => {
                write!(f, "host thread of device {device} panicked: {message}")
            }
            RtError::Aborted => write!(f, "execution aborted (another thread failed first)"),
            RtError::Cancelled => write!(f, "execution cancelled by its cancel token"),
            RtError::Transport { detail } => write!(f, "inter-host transport failed: {detail}"),
            RtError::BlockingInTask { call } => {
                write!(
                    f,
                    "blocking call `{call}` inside a rank task (await its async form)"
                )
            }
            RtError::Stalled { waiting } => {
                write!(f, "job world stalled with no progress possible")?;
                for (i, (rank, what)) in waiting.iter().enumerate() {
                    let sep = if i == 0 { ":" } else { ";" };
                    write!(f, "{sep} rank {rank} waits for {what}")?;
                }
                Ok(())
            }
            RtError::Race(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for RtError {}

impl From<dcuda_coll::CollError> for RtError {
    fn from(e: dcuda_coll::CollError) -> Self {
        RtError::Coll(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcards_are_any() {
        assert_eq!(Rank::ANY.0, ANY);
        assert_eq!(WindowId::ANY.0, ANY);
        assert_eq!(Tag::ANY.0, ANY);
        assert_eq!(RtQuery::WILDCARD.raw(), Query::WILDCARD);
    }

    #[test]
    fn query_builders_replace_positions() {
        let q = RtQuery::WILDCARD
            .with_win(WindowId(1))
            .with_source(Rank(2))
            .with_tag(Tag(3));
        assert_eq!(q, RtQuery::exact(WindowId(1), Rank(2), Tag(3)));
        assert_eq!(
            q.raw(),
            Query {
                win: 1,
                source: 2,
                tag: 3
            }
        );
    }

    #[test]
    fn errors_render() {
        let e = RtError::RangeOutOfBounds {
            win: WindowId(0),
            offset: 10,
            len: 20,
            window_len: 16,
        };
        assert_eq!(e.to_string(), "range 10..30 exceeds win 0 of 16 bytes");
        assert!(RtError::WildcardNotAllowed { position: "dst" }
            .to_string()
            .contains("dst"));
    }
}
