//! Device-side notification matching (paper §III-C, "Notification Matching").
//!
//! Remote memory accesses with target notification enqueue a
//! [`Notification`] at the target rank. The target waits (or tests) for a
//! given number of notifications matching a (window, source rank, tag) query
//! where each position may be a wildcard. Matching is performed **in order of
//! arrival**; matched notifications are removed and the queue is compacted so
//! mismatched notifications keep their arrival order for later queries —
//! exactly the behaviour of the paper's eight-thread shuffle-reduction
//! matcher, minus the hardware.

use std::collections::VecDeque;

/// Wildcard value usable in any [`Query`] position (`DCUDA_ANY_SOURCE`,
/// `DCUDA_ANY_TAG`, `DCUDA_ANY_WIN` in the paper's API).
pub const ANY: u32 = u32::MAX;

/// A notification enqueued at the target of a notified put/get. Its
/// (window, source, tag) triple is also the class queries match against,
/// ordered field by field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Notification {
    /// Window the remote access targeted.
    pub win: u32,
    /// Origin rank of the access.
    pub source: u32,
    /// User tag carried by the access.
    pub tag: u32,
}

impl std::fmt::Display for Notification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "(win {}, source {}, tag {})",
            self.win, self.source, self.tag
        )
    }
}

/// A matching query; `ANY` in a position matches every value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Window filter.
    pub win: u32,
    /// Source-rank filter.
    pub source: u32,
    /// Tag filter.
    pub tag: u32,
}

impl Query {
    /// A query matching every notification.
    pub const WILDCARD: Query = Query {
        win: ANY,
        source: ANY,
        tag: ANY,
    };

    /// Does `n` satisfy this query?
    #[inline]
    pub fn matches(&self, n: &Notification) -> bool {
        (self.win == ANY || self.win == n.win)
            && (self.source == ANY || self.source == n.source)
            && (self.tag == ANY || self.tag == n.tag)
    }
}

/// In-order wildcard matching over a pending buffer — the semantic core of
/// the device-side matcher, shared with the discrete-event simulation (which
/// models the queue's *timing* separately).
///
/// If at least `count` notifications match `query`, removes exactly the
/// first `count` matches (arrival order), compacts the rest in place, and
/// returns the matches together with the number of entries scanned.
/// Otherwise consumes nothing and returns `None` (the scan count is lost to
/// the caller on failure by design: the paper's matcher re-scans on every
/// poll).
pub fn match_in_order(
    pending: &mut VecDeque<Notification>,
    query: Query,
    count: usize,
) -> Option<(Vec<Notification>, usize)> {
    if count == 0 {
        return Some((Vec::new(), 0));
    }
    let mut found = 0usize;
    let mut last_idx = 0usize;
    let mut scanned = 0usize;
    for (i, n) in pending.iter().enumerate() {
        scanned += 1;
        if query.matches(n) {
            found += 1;
            if found == count {
                last_idx = i;
                break;
            }
        }
    }
    if found < count {
        return None;
    }
    let mut matched = Vec::with_capacity(count);
    let mut keep = VecDeque::with_capacity(pending.len() - count);
    for (i, n) in pending.drain(..).enumerate() {
        if i <= last_idx && query.matches(&n) && matched.len() < count {
            matched.push(n);
        } else {
            keep.push_back(n);
        }
    }
    *pending = keep;
    Some((matched, scanned))
}
