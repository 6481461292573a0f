//! Indexed notification matching: `match_in_order` semantics in
//! O(matches) instead of O(pending).
//!
//! # Why
//!
//! The paper's device-side matcher re-scans the whole pending queue on
//! every poll (§III-C). The simulator *models* that cost (the
//! `notifications_scanned` counter drives the Fig. 7 matching-cost
//! ablation) but must not *pay* it on the host, and the threaded runtime
//! must not pay it at all: a rank polling a 1024-deep backlog would spend
//! its time re-reading notifications instead of computing. The
//! [`IndexedMatcher`] answers the same queries with the same results and
//! the same *modeled* scan counts, while its own cost is proportional to
//! the number of matches returned, not the backlog depth. It is the
//! pending list of both drivers (`core::ClusterSim` and `rt::RtCtx`).
//!
//! # How
//!
//! Notifications live in an **arrival-ordered slab**; consumed entries are
//! tombstoned and the slab is compacted when more than half are dead
//! (amortized O(1) per operation). Three ingredients per query class:
//!
//! * **Per-mask chained indices.** A query fixes any subset of
//!   (win, source, tag) — 8 wildcard masks. For each mask that has ever
//!   been queried, a hash map takes the masked key to the `(head, tail)`
//!   of an arrival-ordered chain threaded through one `next` array that
//!   runs parallel to the slab. Every entry of a chain matches every query
//!   with that mask and key, so the first `count` live chain entries *are*
//!   the answer. Indices for never-queried masks are not maintained (built
//!   lazily on first use), keeping inserts cheap for the typical workload
//!   that uses one or two query shapes.
//! * **Wildcard fallback.** The all-wildcard mask degenerates to a single
//!   chain equal to the arrival order — same mechanism, no special case.
//! * **A Fenwick tree over live slab positions** reproduces the modeled
//!   scan count in O(log n): `match_in_order` scans every pending entry up
//!   to and including the `count`-th match, i.e. the number of live
//!   entries at positions `<=` that match's slab position — a prefix sum.
//!
//! An insert is therefore, per built mask, one hash of a 12-byte key, one
//! map probe and two array stores — no allocation once the arrays have
//! grown. That matters as much as the match cost: a rank that fills a deep
//! backlog pays the insert once per notification per built mask.
//!
//! Chains tombstone lazily: positions consumed through one mask stay in
//! the other masks' chains until a later walk passes over them and unlinks
//! them (O(1) each, so total skip work is bounded by total insert work). A
//! key leaves its map the moment its chain empties, so a stream of
//! never-repeating keys (collective sequence tags) keeps every map no
//! larger than the slab.

use crate::notify::{Notification, Query, ANY};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Binary indexed tree counting live entries per slab position.
#[derive(Default)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    /// Append a position holding `1` (a live entry). The new node covers
    /// the range `[i & (i+1), i]`: the new entry plus the nodes that tile
    /// the rest of that range (as many as `i` has trailing one bits, so
    /// amortized O(1)).
    fn push_live(&mut self) {
        let i = self.tree.len();
        let lo = i & (i + 1);
        // Cannot overflow: `val` counts live entries in a sub-range of the
        // slab, and `insert` caps slab positions at u32::MAX.
        let mut val = 1u32;
        let mut j = i;
        while j > lo {
            val += self.tree[j - 1];
            j = (j - 1) & j;
        }
        self.tree.push(val);
    }

    fn add(&mut self, mut i: usize, delta: i32) {
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta as i64) as u32;
            i |= i + 1;
        }
    }

    /// Number of live entries at positions `0..=i`.
    fn prefix_live(&self, i: usize) -> usize {
        let mut i = i as isize;
        let mut sum = 0usize;
        while i >= 0 {
            sum += self.tree[i as usize] as usize;
            i = (i & (i + 1)) - 1;
        }
        sum
    }
}

/// Wildcard mask of a query: bit 0 = win, bit 1 = source, bit 2 = tag.
#[inline]
fn mask_of(q: Query) -> usize {
    usize::from(q.win == ANY) | usize::from(q.source == ANY) << 1 | usize::from(q.tag == ANY) << 2
}

/// A masked (win, source, tag).
type Key = (u32, u32, u32);

/// The masked key a notification files under for a given wildcard mask
/// (wildcarded positions collapse to `ANY`). A notification *value* equal
/// to `ANY` collapses identically for the index and for `Query::matches`
/// (a query carrying `ANY` in that position is the wildcard), so the two
/// agree on every input.
#[inline]
fn key_of(n: &Notification, mask: usize) -> Key {
    (
        if mask & 1 != 0 { ANY } else { n.win },
        if mask & 2 != 0 { ANY } else { n.source },
        if mask & 4 != 0 { ANY } else { n.tag },
    )
}

/// Multiply-rotate hash of a [`Key`]: three rounds of a few cycles each,
/// where the standard SipHash costs more than the rest of an insert. Not
/// collision-resistant: a peer that crafts colliding (win, source, tag)
/// triples degrades a probe towards the linear scan the index replaces —
/// slower, never wrong, and no worse than the reference matcher's cost.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.0 = (self.0.rotate_left(26) ^ u64::from(x)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    /// The trait's required method; a [`Key`] hashes through `write_u32`.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b.into());
        }
    }

    /// The map takes its bucket from the low bits and its control byte
    /// from the top seven; a product's low bits are its weakest, so fold
    /// the high half over them.
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Chain terminator; never a slab position (`insert` caps those below it).
const NIL: u32 = u32::MAX;

/// First and last slab position of one key's chain.
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

/// The index of one wildcard mask.
#[derive(Default)]
struct MaskIndex {
    /// False until the first query with this mask; inserts skip it.
    built: bool,
    /// Masked key -> its non-empty chain.
    chains: HashMap<Key, Chain, BuildHasherDefault<KeyHasher>>,
    /// Parallel to the slab: the next position filed under the same key,
    /// or [`NIL`].
    next: Vec<u32>,
}

impl MaskIndex {
    /// File slab position `pos` (the next one: `next.len()`) under `key`.
    #[inline]
    fn append(&mut self, key: Key, pos: u32) {
        debug_assert_eq!(self.next.len(), pos as usize);
        self.next.push(NIL);
        match self.chains.entry(key) {
            Entry::Occupied(mut e) => {
                let chain = e.get_mut();
                self.next[chain.tail as usize] = pos;
                chain.tail = pos;
            }
            Entry::Vacant(e) => {
                e.insert(Chain {
                    head: pos,
                    tail: pos,
                });
            }
        }
    }

    /// Drop every chain and re-file the slab's live entries.
    fn rebuild(&mut self, mask: usize, slots: &[Option<Notification>]) {
        self.chains.clear();
        self.next.clear();
        for (pos, slot) in slots.iter().enumerate() {
            match slot {
                Some(n) => self.append(key_of(n, mask), pos as u32),
                None => self.next.push(NIL),
            }
        }
        self.built = true;
    }
}

/// An indexed pending-notification buffer with `match_in_order` semantics.
///
/// Drop-in semantic replacement for a `VecDeque<Notification>` driven by
/// [`match_in_order`](crate::match_in_order): identical matches, identical
/// residual order, identical modeled scan counts — property-tested
/// equivalent in `tests/proptests.rs`.
pub struct IndexedMatcher {
    /// Arrival-ordered entries; `None` = consumed (tombstone).
    slots: Vec<Option<Notification>>,
    /// Live-entry indicator per slab position.
    fen: Fenwick,
    /// Live entry count.
    live: usize,
    /// One index per wildcard mask.
    index: [MaskIndex; 8],
}

impl Default for IndexedMatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexedMatcher {
    /// An empty matcher. No indices exist until the first query arrives.
    pub fn new() -> Self {
        IndexedMatcher {
            slots: Vec::new(),
            fen: Fenwick::default(),
            live: 0,
            index: Default::default(),
        }
    }

    /// Number of notifications buffered but not yet matched.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when nothing is pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The modeled cost of a *failed* wait: the paper's matcher re-reads
    /// the whole pending queue on every poll, so a failed scan touches
    /// every buffered entry.
    #[inline]
    pub fn failed_scan_cost(&self) -> usize {
        self.live
    }

    /// Buffer an arrived notification.
    pub fn insert(&mut self, n: Notification) {
        // Slab positions are u32. Reaching 2^32 slab entries would require
        // ~48 GiB of buffered notifications (12 bytes each) plus index
        // overhead — allocation fails long before the cast can truncate.
        // Compaction keeps `slots.len() <= 2 * live`, so tombstones cannot
        // inflate the slab past that bound either.
        debug_assert!(self.slots.len() < u32::MAX as usize);
        let pos = self.slots.len() as u32;
        self.slots.push(Some(n));
        self.fen.push_live();
        self.live += 1;
        for (mask, index) in self.index.iter_mut().enumerate() {
            if index.built {
                index.append(key_of(&n, mask), pos);
            }
        }
    }

    /// Keys currently held by the index of `mask` (0 for an unbuilt one).
    #[cfg(test)]
    fn index_keys(&self, mask: usize) -> usize {
        self.index[mask].chains.len()
    }

    /// Residual notifications in arrival order (test/diagnostic use).
    pub fn pending_in_order(&self) -> Vec<Notification> {
        self.slots.iter().filter_map(|s| *s).collect()
    }

    /// Match exactly like [`match_in_order`](crate::match_in_order): if at
    /// least `count` buffered notifications satisfy `query`, consume the
    /// first `count` of them (arrival order) and return them with the
    /// modeled scan count (entries the paper's linear matcher would have
    /// inspected). Otherwise consume nothing and return `None`.
    pub fn try_match(&mut self, query: Query, count: usize) -> Option<(Vec<Notification>, usize)> {
        let mut matched = Vec::with_capacity(count.min(self.live));
        let scanned = self.try_match_with(query, count, |n| matched.push(*n))?;
        Some((matched, scanned))
    }

    /// [`try_match`](Self::try_match) without the collected `Vec`: on
    /// success `visit` sees each consumed notification in arrival order and
    /// the modeled scan count is returned; on failure `visit` is not called
    /// and nothing is consumed. No allocation per match.
    pub fn try_match_with(
        &mut self,
        query: Query,
        count: usize,
        mut visit: impl FnMut(&Notification),
    ) -> Option<usize> {
        if count == 0 {
            return Some(0);
        }
        let mask = mask_of(query);
        if !self.index[mask].built {
            self.index[mask].rebuild(mask, &self.slots);
        }
        let MaskIndex { chains, next, .. } = &mut self.index[mask];
        let Entry::Occupied(mut entry) = chains.entry((query.win, query.source, query.tag)) else {
            return None;
        };
        let Chain { mut head, mut tail } = *entry.get();

        // Walk to the `count`-th live position, unlinking the tombstones
        // (entries consumed through another mask) passed on the way.
        let mut found = 0usize;
        let mut prev = NIL;
        let mut pos = head;
        while pos != NIL && found < count {
            let after = next[pos as usize];
            if self.slots[pos as usize].is_some() {
                found += 1;
                prev = pos;
            } else {
                if prev == NIL {
                    head = after;
                } else {
                    next[prev as usize] = after;
                }
                if after == NIL {
                    tail = prev;
                }
            }
            pos = after;
        }
        // On a hit, the modeled scan count *before* consuming — live entries
        // at arrival positions up to and including the count-th match
        // (`prev`) — then consume: the chain now starts with exactly `count`
        // live entries. On a miss consume nothing.
        let hit = found == count;
        let mut scanned = 0;
        if hit {
            scanned = self.fen.prefix_live(prev as usize);
            for _ in 0..count {
                if let Some(n) = self.slots[head as usize].take() {
                    self.fen.add(head as usize, -1);
                    visit(&n);
                }
                head = next[head as usize];
            }
            self.live -= count;
        }
        // Either way the walk may have shortened the chain, to nothing on a
        // miss over tombstones only or a hit that took its last entries.
        if head == NIL {
            entry.remove();
        } else {
            *entry.get_mut() = Chain { head, tail };
        }
        if !hit {
            return None;
        }
        self.maybe_compact();
        Some(scanned)
    }

    /// Squeeze the tombstones out of the slab and re-file the survivors
    /// once tombstones outnumber live entries (amortized O(1) per consumed
    /// notification).
    fn maybe_compact(&mut self) {
        if self.slots.len() < 64 || self.live * 2 > self.slots.len() {
            return;
        }
        self.slots.retain(Option::is_some);
        debug_assert_eq!(self.slots.len(), self.live);
        self.fen.tree.clear();
        for _ in 0..self.live {
            self.fen.push_live();
        }
        for (mask, index) in self.index.iter_mut().enumerate() {
            if index.built {
                index.rebuild(mask, &self.slots);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn notif(win: u32, source: u32, tag: u32) -> Notification {
        Notification { win, source, tag }
    }

    fn filled(notifs: &[Notification]) -> IndexedMatcher {
        let mut m = IndexedMatcher::new();
        for &n in notifs {
            m.insert(n);
        }
        m
    }

    #[test]
    fn exact_match_consumes_in_order() {
        let mut m = filled(&[notif(1, 2, 3), notif(1, 2, 3)]);
        let q = Query {
            win: 1,
            source: 2,
            tag: 3,
        };
        let (got, scanned) = m.try_match(q, 1).unwrap();
        assert_eq!(got, vec![notif(1, 2, 3)]);
        assert_eq!(scanned, 1);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn scanned_counts_mismatches_before_the_match() {
        let mut m = filled(&[notif(9, 9, 9), notif(8, 8, 8), notif(1, 1, 1)]);
        let q = Query {
            win: 1,
            source: 1,
            tag: 1,
        };
        let (_, scanned) = m.try_match(q, 1).unwrap();
        assert_eq!(scanned, 3, "linear matcher would scan all three");
    }

    #[test]
    fn insufficient_matches_consume_nothing() {
        let mut m = filled(&[notif(1, 2, 3)]);
        assert!(m.try_match(Query::WILDCARD, 2).is_none());
        assert_eq!(m.len(), 1);
        assert_eq!(m.failed_scan_cost(), 1);
    }

    #[test]
    fn wildcard_source_matches_across_sources() {
        let mut m = filled(&[notif(1, 5, 3), notif(2, 6, 3), notif(1, 9, 3)]);
        let q = Query {
            win: 1,
            source: ANY,
            tag: 3,
        };
        let (got, scanned) = m.try_match(q, 2).unwrap();
        assert_eq!(got, vec![notif(1, 5, 3), notif(1, 9, 3)]);
        assert_eq!(scanned, 3, "the win-2 entry sits between the matches");
        assert_eq!(m.pending_in_order(), vec![notif(2, 6, 3)]);
    }

    #[test]
    fn residual_order_preserved_across_masks() {
        let mut m = filled(&[
            notif(1, 0, 7),
            notif(1, 0, 9),
            notif(2, 0, 9),
            notif(1, 1, 9),
            notif(1, 2, 9),
        ]);
        let q = Query {
            win: 1,
            source: ANY,
            tag: 9,
        };
        let (got, _) = m.try_match(q, 2).unwrap();
        assert_eq!(got, vec![notif(1, 0, 9), notif(1, 1, 9)]);
        // A different query shape sees the same residual order.
        let (rest, _) = m.try_match(Query::WILDCARD, 3).unwrap();
        assert_eq!(rest, vec![notif(1, 0, 7), notif(2, 0, 9), notif(1, 2, 9)]);
        assert!(m.is_empty());
    }

    #[test]
    fn zero_count_always_succeeds() {
        let mut m = IndexedMatcher::new();
        assert_eq!(m.try_match(Query::WILDCARD, 0), Some((Vec::new(), 0)));
    }

    #[test]
    fn late_arrivals_update_built_indices() {
        let mut m = IndexedMatcher::new();
        assert!(m.try_match(Query::WILDCARD, 1).is_none()); // builds mask 7
        m.insert(notif(0, 0, 0));
        assert!(m.try_match(Query::WILDCARD, 1).is_some());
    }

    #[test]
    fn compaction_preserves_semantics() {
        let mut m = IndexedMatcher::new();
        for i in 0..500u32 {
            m.insert(notif(0, i % 7, i % 3));
        }
        // Consume most entries to force compactions.
        let q = Query {
            win: 0,
            source: ANY,
            tag: 0,
        };
        while m.try_match(q, 10).is_some() {}
        let q1 = Query {
            win: 0,
            source: ANY,
            tag: 1,
        };
        while m.try_match(q1, 10).is_some() {}
        // Whatever remains is still in arrival order with tag 2 dominant.
        let rest = m.pending_in_order();
        assert_eq!(rest.len(), m.len());
        let mut arrival = rest.clone();
        arrival.sort_by_key(|n| (n.tag, n.source));
        assert!(!rest.is_empty());
    }

    #[test]
    fn failed_visitor_match_sees_nothing() {
        let mut m = filled(&[notif(1, 2, 3)]);
        let mut seen = 0;
        assert_eq!(m.try_match_with(Query::WILDCARD, 2, |_| seen += 1), None);
        assert_eq!((seen, m.len()), (0, 1));
        assert_eq!(m.try_match_with(Query::WILDCARD, 1, |_| seen += 1), Some(1));
        assert_eq!((seen, m.len()), (1, 0));
    }

    /// The collective-tag shape: every key is new and is matched once. A
    /// key must leave the map with its last entry — through the mask that
    /// consumed it at once, through the other built masks by the next
    /// compaction at the latest — or a long-running rank's index grows
    /// without bound.
    #[test]
    fn monotone_tags_keep_the_index_bounded() {
        let exact = |tag| Query {
            win: 0,
            source: 1,
            tag,
        };
        let (m_exact, m_any_source) = (0, 2);
        let mut m = IndexedMatcher::new();
        // Build a second mask so its chains only ever see tombstones.
        assert!(m
            .try_match(
                Query {
                    win: 0,
                    source: ANY,
                    tag: 0
                },
                1
            )
            .is_none());
        let mut peak = (0, 0);
        for tag in 0..100_000u32 {
            m.insert(notif(0, 1, tag));
            // Keep a handful outstanding, as a pipelined collective does.
            if tag >= 4 {
                assert!(m.try_match(exact(tag - 4), 1).is_some());
            }
            assert!(m.index_keys(m_exact) <= m.len());
            peak = (
                peak.0.max(m.index_keys(m_any_source)),
                peak.1.max(m.slots.len()),
            );
        }
        // The slab holds at most 64 entries before compaction considers it
        // and at most twice the live count after; a tombstoned key lives in
        // another mask's map no longer than its slab slot.
        assert!(peak.1 <= 64, "slab grew to {}", peak.1);
        assert!(peak.0 <= peak.1, "any-source map grew to {}", peak.0);
    }
}
