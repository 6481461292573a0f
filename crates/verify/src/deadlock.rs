//! Deadlock and lost-wakeup detection: a wait-for graph over blocked ranks.
//!
//! When the simulator's event loop quiesces with unfinished ranks (or a
//! diagnostic pass inspects a stuck threaded cluster), each blocked rank
//! contributes a node with *wildcard-aware* wait edges:
//!
//! * a rank in `wait_notifications` with a concrete `source` waits on
//!   exactly that rank; with the `ANY` wildcard it waits on *every* other
//!   rank (any of them could still send a matching notification — the
//!   window and tag never narrow the candidate set, since any rank may
//!   target any window/tag);
//! * a rank in a barrier waits on the ranks that have not yet entered;
//! * a rank draining a flush waits on the host/network, not on ranks
//!   (recorded for the report, contributes no rank edges).
//!
//! [`WaitForGraph::analyze`] computes the *hopeless set* — the greatest set
//! of blocked ranks none of whose candidates can ever unblock them (every
//! candidate is finished or itself hopeless) — plus presentation-friendly
//! cycles inside that set and the "no matching sender exists" liveness
//! lint (all candidates already finished).

use dcuda_queues::{Query, ANY};

/// Why a rank is blocked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitReason {
    /// Blocked in `wait_notifications` for `want` more notifications
    /// matching `query`.
    Notification {
        /// The (possibly wildcarded) query.
        query: Query,
        /// Outstanding match count.
        want: u64,
    },
    /// Blocked in a barrier; `missing` ranks have not entered.
    Barrier {
        /// Ranks not yet at the barrier.
        missing: Vec<u32>,
    },
    /// Blocked draining a flush (waits on the host, not on ranks).
    Flush,
}

impl std::fmt::Display for WaitReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitReason::Notification { query, want } => {
                let field = |v: u32| -> String {
                    if v == ANY {
                        "*".into()
                    } else {
                        v.to_string()
                    }
                };
                write!(
                    f,
                    "wait_notifications(win {}, source {}, tag {}, {want} outstanding)",
                    field(query.win),
                    field(query.source),
                    field(query.tag),
                )
            }
            WaitReason::Barrier { missing } => write!(f, "barrier (missing {missing:?})"),
            WaitReason::Flush => write!(f, "flush drain"),
        }
    }
}

#[derive(Debug, Clone)]
struct Waiter {
    rank: u32,
    reason: WaitReason,
}

/// Wait-for graph builder; populate with one entry per non-finished rank.
#[derive(Debug, Clone, Default)]
pub struct WaitForGraph {
    world: u32,
    waiters: Vec<Waiter>,
    done: Vec<u32>,
}

/// Analysis result.
#[derive(Debug, Clone, Default)]
pub struct DeadlockReport {
    /// Ranks that can never be unblocked (every candidate sender is
    /// finished or itself hopeless).
    pub hopeless: Vec<u32>,
    /// Ranks whose candidate senders are *all finished* — the
    /// "no matching sender exists" liveness lint; paired with the
    /// candidates that are gone.
    pub no_sender: Vec<(u32, Vec<u32>)>,
    /// Wait cycles inside the hopeless set (each a closed walk
    /// `r0 -> r1 -> ... -> r0`), for presentation.
    pub cycles: Vec<Vec<u32>>,
    /// Ranks blocked on a flush at quiescence (diagnostic).
    pub flush_blocked: Vec<u32>,
    /// Human-readable wait description per blocked rank.
    pub waits: Vec<(u32, String)>,
}

impl DeadlockReport {
    /// True when at least one rank can provably never make progress.
    pub fn is_deadlock(&self) -> bool {
        !self.hopeless.is_empty()
    }
}

impl std::fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.is_deadlock() && self.flush_blocked.is_empty() {
            return write!(f, "no deadlock detected");
        }
        writeln!(f, "deadlock analysis:")?;
        if !self.hopeless.is_empty() {
            writeln!(f, "  hopeless ranks: {:?}", self.hopeless)?;
        }
        for (rank, wait) in &self.waits {
            if self.hopeless.contains(rank) {
                writeln!(f, "  rank {rank} blocked in {wait}")?;
            }
        }
        for (rank, gone) in &self.no_sender {
            writeln!(
                f,
                "  rank {rank}: no matching sender exists (candidates {gone:?} all finished)"
            )?;
        }
        for cycle in &self.cycles {
            let mut walk: Vec<String> = cycle.iter().map(|r| r.to_string()).collect();
            if let Some(first) = walk.first().cloned() {
                walk.push(first);
            }
            writeln!(f, "  wait cycle: {}", walk.join(" -> "))?;
        }
        if !self.flush_blocked.is_empty() {
            writeln!(f, "  blocked on flush: {:?}", self.flush_blocked)?;
        }
        Ok(())
    }
}

impl WaitForGraph {
    /// Graph over a world of `world` ranks.
    pub fn new(world: u32) -> Self {
        WaitForGraph {
            world,
            waiters: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Record a blocked rank.
    pub fn add_waiter(&mut self, rank: u32, reason: WaitReason) {
        self.waiters.push(Waiter { rank, reason });
    }

    /// Record a finished rank (can never send again).
    pub fn set_done(&mut self, rank: u32) {
        self.done.push(rank);
    }

    /// Candidate senders that could unblock `rank` given `reason` —
    /// wildcard-aware: a concrete source narrows to one rank, `ANY` means
    /// every other rank is a candidate.
    fn candidates(&self, rank: u32, reason: &WaitReason) -> Option<Vec<u32>> {
        match reason {
            WaitReason::Notification { query, .. } => {
                if query.source == ANY {
                    Some((0..self.world).filter(|&r| r != rank).collect())
                } else {
                    Some(vec![query.source])
                }
            }
            WaitReason::Barrier { missing } => Some(missing.clone()),
            WaitReason::Flush => None,
        }
    }

    /// Run the analysis. See the module docs for semantics.
    pub fn analyze(&self) -> DeadlockReport {
        let mut report = DeadlockReport {
            waits: self
                .waiters
                .iter()
                .map(|w| (w.rank, w.reason.to_string()))
                .collect(),
            ..DeadlockReport::default()
        };
        let done = |r: u32| self.done.contains(&r);
        let blocked: Vec<(u32, Vec<u32>)> = self
            .waiters
            .iter()
            .filter_map(|w| {
                self.candidates(w.rank, &w.reason)
                    .map(|c| (w.rank, c))
                    .or_else(|| {
                        report.flush_blocked.push(w.rank);
                        None
                    })
            })
            .collect();

        // No-sender lint: every candidate finished.
        for (rank, cands) in &blocked {
            if !cands.is_empty() && cands.iter().all(|&c| done(c)) {
                report.no_sender.push((*rank, cands.clone()));
            }
        }

        // Hopeless set: greatest fixpoint — start from all blocked ranks,
        // evict anyone with a candidate that is neither done nor hopeless
        // (that candidate is running and might still send).
        let mut hopeless: Vec<u32> = blocked.iter().map(|(r, _)| *r).collect();
        loop {
            let before = hopeless.len();
            hopeless = blocked
                .iter()
                .filter(|(r, cands)| {
                    hopeless.contains(r) && cands.iter().all(|&c| done(c) || hopeless.contains(&c))
                })
                .map(|(r, _)| *r)
                .collect();
            if hopeless.len() == before {
                break;
            }
        }
        report.hopeless = hopeless;

        // Presentation cycles inside the hopeless set: follow the first
        // hopeless candidate from each rank until a node repeats.
        let in_set = |r: u32| report.hopeless.contains(&r);
        let next_of = |r: u32| -> Option<u32> {
            blocked
                .iter()
                .find(|(b, _)| *b == r)
                .and_then(|(_, cands)| cands.iter().copied().find(|&c| in_set(c)))
        };
        let mut seen_in_cycles: Vec<u32> = Vec::new();
        for &start in &report.hopeless {
            if seen_in_cycles.contains(&start) {
                continue;
            }
            let mut walk = vec![start];
            let mut cur = start;
            while let Some(nxt) = next_of(cur) {
                if let Some(pos) = walk.iter().position(|&r| r == nxt) {
                    let cycle: Vec<u32> = walk[pos..].to_vec();
                    seen_in_cycles.extend_from_slice(&cycle);
                    report.cycles.push(cycle);
                    break;
                }
                walk.push(nxt);
                cur = nxt;
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(source: u32) -> Query {
        Query {
            win: 0,
            source,
            tag: ANY,
        }
    }

    #[test]
    fn mutual_wait_is_a_cycle() {
        let mut g = WaitForGraph::new(2);
        g.add_waiter(
            0,
            WaitReason::Notification {
                query: q(1),
                want: 1,
            },
        );
        g.add_waiter(
            1,
            WaitReason::Notification {
                query: q(0),
                want: 1,
            },
        );
        let r = g.analyze();
        assert!(r.is_deadlock());
        assert_eq!(r.hopeless, vec![0, 1]);
        assert_eq!(r.cycles.len(), 1);
    }

    #[test]
    fn running_sender_means_no_deadlock() {
        // Rank 0 waits on rank 1, which is neither blocked nor done.
        let mut g = WaitForGraph::new(3);
        g.add_waiter(
            0,
            WaitReason::Notification {
                query: q(1),
                want: 1,
            },
        );
        let r = g.analyze();
        assert!(!r.is_deadlock());
    }

    #[test]
    fn finished_sender_is_no_sender_lint() {
        let mut g = WaitForGraph::new(2);
        g.add_waiter(
            0,
            WaitReason::Notification {
                query: q(1),
                want: 1,
            },
        );
        g.set_done(1);
        let r = g.analyze();
        assert!(r.is_deadlock());
        assert_eq!(r.no_sender, vec![(0, vec![1])]);
    }

    #[test]
    fn wildcard_waits_on_everyone() {
        // Rank 0 waits with ANY; rank 1 finished but rank 2 still runs —
        // not hopeless. Once rank 2 is also done, hopeless + no-sender.
        let mut g = WaitForGraph::new(3);
        g.add_waiter(
            0,
            WaitReason::Notification {
                query: q(ANY),
                want: 1,
            },
        );
        g.set_done(1);
        assert!(!g.analyze().is_deadlock());
        g.set_done(2);
        let r = g.analyze();
        assert!(r.is_deadlock());
        assert_eq!(r.no_sender, vec![(0, vec![1, 2])]);
    }

    #[test]
    fn barrier_missing_rank_edges() {
        let mut g = WaitForGraph::new(3);
        g.add_waiter(0, WaitReason::Barrier { missing: vec![2] });
        g.add_waiter(1, WaitReason::Barrier { missing: vec![2] });
        g.add_waiter(
            2,
            WaitReason::Notification {
                query: q(ANY),
                want: 1,
            },
        );
        let r = g.analyze();
        // 2 waits on 0 and 1 (wildcard), both of which wait on 2: all hopeless.
        assert!(r.is_deadlock());
        assert_eq!(r.hopeless, vec![0, 1, 2]);
    }

    #[test]
    fn notification_waits_render_their_tag_verbatim() {
        // Simulator tags are plain u32s: bit 31 is a kernel's own tag.
        let wait = |tag: u32, source: u32| WaitReason::Notification {
            query: Query {
                win: 0,
                source,
                tag,
            },
            want: 2,
        };
        assert_eq!(
            wait(1 << 31, 1).to_string(),
            "wait_notifications(win 0, source 1, tag 2147483648, 2 outstanding)"
        );
        assert_eq!(
            wait(7, ANY).to_string(),
            "wait_notifications(win 0, source *, tag 7, 2 outstanding)"
        );
    }

    #[test]
    fn flush_blocked_is_reported_not_deadlocked() {
        let mut g = WaitForGraph::new(2);
        g.add_waiter(0, WaitReason::Flush);
        let r = g.analyze();
        assert!(!r.is_deadlock());
        assert_eq!(r.flush_blocked, vec![0]);
    }
}
