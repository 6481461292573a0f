//! Runtime protocol invariant monitoring.
//!
//! Two deployment shapes, one report type:
//!
//! * **Token-level monitor** ([`InvariantMonitor`]) for the discrete-event
//!   simulator: the single-threaded event loop mints a unique token per
//!   notification *at send time* and reports delivery and matching, so the
//!   monitor checks exactly-once delivery per token and matched-at-most-
//!   delivered per key. Delivery order between a pair of ranks may legally
//!   reorder in the simulator (metadata and payload paths complete
//!   independently), so reordering is *counted*, not flagged.
//! * **Sharded counters** ([`ShardCounters`]) for the threaded runtime:
//!   each rank/host thread keeps private per-key counters (sent,
//!   delivered, matched, dropped-at-shutdown) plus local sequence and
//!   credit checks; [`reconcile_shards`] merges them after the join and
//!   derives conservation violations.
//!
//! Both produce a [`VerifyReport`] that rides inside the runs' report
//! structures. Monitoring is strictly observational: enabling it must not
//! change any run output (the golden test in the bench crate asserts
//! byte-identical figures with `--verify` on and off).

use dcuda_queues::Notification;
use std::collections::BTreeMap;

/// A detected protocol violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A notification was sent but never delivered to its target.
    LostNotification {
        /// Target rank that never saw it.
        target: u32,
        /// Notification class.
        key: Notification,
        /// How many of this class went missing.
        missing: u64,
    },
    /// More deliveries than sends were observed for a class (duplicate
    /// delivery, or delivery without a send).
    DuplicateDelivery {
        /// Target rank.
        target: u32,
        /// Notification class.
        key: Notification,
        /// Deliveries beyond the send count.
        extra: u64,
    },
    /// A single token was delivered twice (simulator token-level check).
    TokenRedelivered {
        /// Target rank.
        target: u32,
        /// Notification class.
        key: Notification,
        /// The offending token.
        token: u64,
    },
    /// A delivery carried a token that was never minted.
    UnknownToken {
        /// Target rank.
        target: u32,
        /// The offending token.
        token: u64,
    },
    /// More notifications matched than were delivered for a class.
    OverMatched {
        /// Matching rank.
        target: u32,
        /// Notification class.
        key: Notification,
        /// Matches observed.
        matched: u64,
        /// Deliveries observed.
        delivered: u64,
    },
    /// A producer's in-flight upper bound exceeded the ring capacity
    /// (credit flow-control failure).
    CreditOverflow {
        /// Rank whose command ring overflowed.
        rank: u32,
        /// Observed in-flight bound.
        in_flight: u64,
        /// Ring capacity.
        capacity: u64,
    },
    /// A consumer observed its consumed-count moving backwards.
    SequenceRegression {
        /// Rank whose delivery ring regressed.
        rank: u32,
        /// Previously observed count.
        prev: u64,
        /// Regressed count.
        got: u64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::LostNotification { target, key, missing } => write!(
                f,
                "lost notification: {missing} of class {key} never delivered to rank {target}"
            ),
            Violation::DuplicateDelivery { target, key, extra } => write!(
                f,
                "duplicate delivery: {extra} extra of class {key} at rank {target}"
            ),
            Violation::TokenRedelivered { target, key, token } => write!(
                f,
                "token {token} of class {key} delivered twice to rank {target}"
            ),
            Violation::UnknownToken { target, token } => {
                write!(f, "unminted token {token} delivered to rank {target}")
            }
            Violation::OverMatched {
                target,
                key,
                matched,
                delivered,
            } => write!(
                f,
                "over-match at rank {target}: {matched} matched but only {delivered} delivered for class {key}"
            ),
            Violation::CreditOverflow {
                rank,
                in_flight,
                capacity,
            } => write!(
                f,
                "credit overflow at rank {rank}: {in_flight} in flight on a capacity-{capacity} ring"
            ),
            Violation::SequenceRegression { rank, prev, got } => write!(
                f,
                "sequence regression at rank {rank}: consumed count moved {prev} -> {got}"
            ),
        }
    }
}

/// Outcome of an invariant-monitored run.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Detected violations (empty on a clean run).
    pub violations: Vec<Violation>,
    /// Notifications tracked end-to-end.
    pub notifications_tracked: u64,
    /// Per-(origin, target) delivery reorderings observed. Legal in the
    /// simulator (independent completion of metadata/payload paths);
    /// reported for diagnostics.
    pub reorders_observed: u64,
}

impl VerifyReport {
    /// True when no violations were detected.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line summary for logs and check binaries.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!(
                "verify: clean ({} notifications tracked, {} reorders)",
                self.notifications_tracked, self.reorders_observed
            )
        } else {
            format!(
                "verify: {} violation(s) over {} notifications: {}",
                self.violations.len(),
                self.notifications_tracked,
                self.violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            )
        }
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct KeyCounts {
    sent: u64,
    delivered: u64,
    matched: u64,
}

struct TokenRec {
    target: u32,
    key: Notification,
    delivered: bool,
}

/// Token-level invariant monitor for the (single-threaded) simulator event
/// loop. Strictly observational; see the module docs.
#[derive(Default)]
pub struct InvariantMonitor {
    /// Token `t` (1-based) lives at `tokens[t - 1]`.
    tokens: Vec<TokenRec>,
    counts: BTreeMap<(u32, Notification), KeyCounts>,
    /// Per-(origin, target) newest delivered token, for reorder counting.
    last_delivered: BTreeMap<(u32, u32), u64>,
    reorders: u64,
    violations: Vec<Violation>,
}

impl InvariantMonitor {
    /// Record a notification sent toward `target`; returns the minted token
    /// (tokens are sequential, so a `k`-way fan-out minted back-to-back
    /// occupies a contiguous token range).
    pub fn sent(&mut self, target: u32, notif: Notification) -> u64 {
        self.counts.entry((target, notif)).or_default().sent += 1;
        self.tokens.push(TokenRec {
            target,
            key: notif,
            delivered: false,
        });
        self.tokens.len() as u64
    }

    /// Record token `token` arriving at `target` from `origin`.
    pub fn delivered(&mut self, origin: u32, target: u32, token: u64, notif: Notification) {
        self.counts.entry((target, notif)).or_default().delivered += 1;
        match self.tokens.get_mut((token as usize).wrapping_sub(1)) {
            None => self
                .violations
                .push(Violation::UnknownToken { target, token }),
            Some(rec) => {
                if rec.delivered {
                    self.violations.push(Violation::TokenRedelivered {
                        target,
                        key: rec.key,
                        token,
                    });
                }
                rec.delivered = true;
            }
        }
        let last = self.last_delivered.entry((origin, target)).or_insert(0);
        if token < *last {
            self.reorders += 1;
        } else {
            *last = token;
        }
    }

    /// Record `count` notifications of `notif`'s class matched at `target`.
    pub fn matched(&mut self, target: u32, notif: Notification, count: u64) {
        let c = self.counts.entry((target, notif)).or_default();
        c.matched += count;
        if c.matched > c.delivered {
            self.violations.push(Violation::OverMatched {
                target,
                key: notif,
                matched: c.matched,
                delivered: c.delivered,
            });
        }
    }

    /// Close the books: every minted token must have been delivered exactly
    /// once, and per-class matched ≤ delivered ≤ sent must hold.
    pub fn finish(mut self) -> VerifyReport {
        let mut missing: BTreeMap<(u32, Notification), u64> = BTreeMap::new();
        for rec in &self.tokens {
            if !rec.delivered {
                *missing.entry((rec.target, rec.key)).or_default() += 1;
            }
        }
        for ((target, key), count) in missing {
            self.violations.push(Violation::LostNotification {
                target,
                key,
                missing: count,
            });
        }
        for (&(target, key), c) in &self.counts {
            if c.delivered > c.sent {
                self.violations.push(Violation::DuplicateDelivery {
                    target,
                    key,
                    extra: c.delivered - c.sent,
                });
            }
        }
        VerifyReport {
            violations: self.violations,
            notifications_tracked: self.tokens.len() as u64,
            reorders_observed: self.reorders,
        }
    }
}

/// Per-thread counters for the threaded runtime: each rank (and host) keeps
/// its own shard with no cross-thread traffic; [`reconcile_shards`] merges
/// them after the threads join.
#[derive(Debug, Clone, Default)]
pub struct ShardCounters {
    /// (target, class) → notifications sent.
    pub sent: BTreeMap<(u32, Notification), u64>,
    /// (target, class) → notifications delivered (target-side).
    pub delivered: BTreeMap<(u32, Notification), u64>,
    /// (target, class) → notifications matched (target-side).
    pub matched: BTreeMap<(u32, Notification), u64>,
    /// (target, class) → deliveries dropped because the target had already
    /// finished (legal at shutdown; balances the conservation equation).
    pub dropped: BTreeMap<(u32, Notification), u64>,
    /// Credit-balance violations observed locally (in-flight > capacity).
    pub credit_overflows: u64,
    /// Largest in-flight bound observed on this shard's command ring.
    pub max_in_flight: u64,
    /// Consumed-count regressions observed on this shard's delivery ring.
    pub seq_regressions: u64,
}

impl ShardCounters {
    /// Record a notification sent toward `target`.
    pub fn note_sent(&mut self, target: u32, notif: Notification) {
        *self.sent.entry((target, notif)).or_default() += 1;
    }

    /// Record a delivery observed locally at `target`.
    pub fn note_delivered(&mut self, target: u32, notif: Notification) {
        *self.delivered.entry((target, notif)).or_default() += 1;
    }

    /// Record `count` local matches at `target`.
    pub fn note_matched(&mut self, target: u32, notif: Notification, count: u64) {
        *self.matched.entry((target, notif)).or_default() += count;
    }

    /// Record a delivery dropped at shutdown (target already finished).
    pub fn note_dropped(&mut self, target: u32, notif: Notification) {
        *self.dropped.entry((target, notif)).or_default() += 1;
    }

    /// Check the producer-side credit bound after a send.
    pub fn note_in_flight(&mut self, in_flight: u64, capacity: u64) {
        self.max_in_flight = self.max_in_flight.max(in_flight);
        if in_flight > capacity {
            self.credit_overflows += 1;
        }
    }

    /// Check consumer-side sequence monotonicity.
    pub fn note_consumed(&mut self, prev: u64, got: u64) {
        if got < prev {
            self.seq_regressions += 1;
        }
    }

    /// Fold another shard into this one.
    pub fn merge(&mut self, other: &ShardCounters) {
        for (k, v) in &other.sent {
            *self.sent.entry(*k).or_default() += v;
        }
        for (k, v) in &other.delivered {
            *self.delivered.entry(*k).or_default() += v;
        }
        for (k, v) in &other.matched {
            *self.matched.entry(*k).or_default() += v;
        }
        for (k, v) in &other.dropped {
            *self.dropped.entry(*k).or_default() += v;
        }
        self.credit_overflows += other.credit_overflows;
        self.max_in_flight = self.max_in_flight.max(other.max_in_flight);
        self.seq_regressions += other.seq_regressions;
    }
}

/// Merge per-thread shards and derive conservation violations:
/// `matched ≤ delivered`, `delivered + dropped == sent` per (target, class),
/// no credit overflows, no sequence regressions. `capacity` is the command
/// ring capacity (diagnostic context for credit violations).
pub fn reconcile_shards<I>(capacity: u64, shards: I) -> VerifyReport
where
    I: IntoIterator<Item = ShardCounters>,
{
    let mut total = ShardCounters::default();
    for s in shards {
        total.merge(&s);
    }
    let mut violations = Vec::new();
    let mut tracked = 0u64;
    let keys: std::collections::BTreeSet<(u32, Notification)> = total
        .sent
        .keys()
        .chain(total.delivered.keys())
        .chain(total.matched.keys())
        .chain(total.dropped.keys())
        .copied()
        .collect();
    for k in keys {
        let (target, key) = k;
        let sent = total.sent.get(&k).copied().unwrap_or(0);
        let delivered = total.delivered.get(&k).copied().unwrap_or(0);
        let matched = total.matched.get(&k).copied().unwrap_or(0);
        let dropped = total.dropped.get(&k).copied().unwrap_or(0);
        tracked += sent;
        if matched > delivered {
            violations.push(Violation::OverMatched {
                target,
                key,
                matched,
                delivered,
            });
        }
        if delivered + dropped > sent {
            violations.push(Violation::DuplicateDelivery {
                target,
                key,
                extra: delivered + dropped - sent,
            });
        } else if delivered + dropped < sent {
            violations.push(Violation::LostNotification {
                target,
                key,
                missing: sent - delivered - dropped,
            });
        }
    }
    if total.credit_overflows > 0 {
        violations.push(Violation::CreditOverflow {
            rank: u32::MAX,
            in_flight: total.max_in_flight,
            capacity,
        });
    }
    if total.seq_regressions > 0 {
        violations.push(Violation::SequenceRegression {
            rank: u32::MAX,
            prev: total.seq_regressions,
            got: 0,
        });
    }
    VerifyReport {
        violations,
        notifications_tracked: tracked,
        reorders_observed: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(win: u32, source: u32, tag: u32) -> Notification {
        Notification { win, source, tag }
    }

    #[test]
    fn clean_exactly_once_flow() {
        let mut m = InvariantMonitor::default();
        let t0 = m.sent(1, n(0, 0, 7));
        let t1 = m.sent(1, n(0, 0, 7));
        m.delivered(0, 1, t0, n(0, 0, 7));
        m.delivered(0, 1, t1, n(0, 0, 7));
        m.matched(1, n(0, 0, 7), 2);
        let r = m.finish();
        assert!(r.is_clean(), "{}", r.summary());
        assert_eq!(r.notifications_tracked, 2);
    }

    #[test]
    fn lost_notification_detected() {
        let mut m = InvariantMonitor::default();
        let _t = m.sent(1, n(0, 0, 3));
        let r = m.finish();
        assert!(matches!(
            r.violations.as_slice(),
            [Violation::LostNotification {
                target: 1,
                missing: 1,
                ..
            }]
        ));
    }

    #[test]
    fn double_delivery_detected() {
        let mut m = InvariantMonitor::default();
        let t = m.sent(1, n(0, 0, 3));
        m.delivered(0, 1, t, n(0, 0, 3));
        m.delivered(0, 1, t, n(0, 0, 3));
        let r = m.finish();
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::TokenRedelivered { .. })));
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DuplicateDelivery { .. })));
    }

    #[test]
    fn over_match_detected() {
        let mut m = InvariantMonitor::default();
        let t = m.sent(1, n(0, 0, 3));
        m.delivered(0, 1, t, n(0, 0, 3));
        m.matched(1, n(0, 0, 3), 2);
        let r = m.finish();
        assert!(r.violations.iter().any(|v| matches!(
            v,
            Violation::OverMatched {
                matched: 2,
                delivered: 1,
                ..
            }
        )));
    }

    #[test]
    fn reorders_counted_not_flagged() {
        let mut m = InvariantMonitor::default();
        let t0 = m.sent(1, n(0, 0, 1));
        let t1 = m.sent(1, n(0, 0, 2));
        m.delivered(0, 1, t1, n(0, 0, 2));
        m.delivered(0, 1, t0, n(0, 0, 1));
        m.matched(1, n(0, 0, 1), 1);
        m.matched(1, n(0, 0, 2), 1);
        let r = m.finish();
        assert!(r.is_clean(), "{}", r.summary());
        assert_eq!(r.reorders_observed, 1);
    }

    #[test]
    fn shards_reconcile_clean() {
        let mut rank1 = ShardCounters::default();
        rank1.note_sent(2, n(0, 1, 5));
        let mut rank2 = ShardCounters::default();
        rank2.note_delivered(2, n(0, 1, 5));
        rank2.note_matched(2, n(0, 1, 5), 1);
        let r = reconcile_shards(64, [rank1, rank2]);
        assert!(r.is_clean(), "{}", r.summary());
    }

    #[test]
    fn shards_detect_loss_and_credit() {
        let mut rank1 = ShardCounters::default();
        rank1.note_sent(2, n(0, 1, 5));
        rank1.note_in_flight(65, 64);
        let r = reconcile_shards(64, [rank1]);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::LostNotification { .. })));
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::CreditOverflow { .. })));
    }

    #[test]
    fn dropped_deliveries_balance() {
        let mut rank1 = ShardCounters::default();
        rank1.note_sent(2, n(0, 1, 5));
        let mut host = ShardCounters::default();
        host.note_dropped(2, n(0, 1, 5));
        let r = reconcile_shards(64, [rank1, host]);
        assert!(r.is_clean(), "{}", r.summary());
    }
}
