//! Model-checker regression corpus: the protocol programs CI re-verifies,
//! shared between `cargo test -p dcuda-verify` and the `verify_check`
//! binary.
//!
//! Every program runs the *production* ring (`dcuda_queues::channel_on`
//! instantiated over the virtual platform); none re-implements the
//! protocol. The corpus includes one intentionally broken configuration —
//! the ring's release publish demoted to relaxed — which the checker must
//! *fail*: that seeded mutation is the proof the checker can see the bug
//! class it exists for.

use crate::sched::{vyield, FailureKind, Model, ModelThread, Outcome};
use crate::shim::VPlatform;
use dcuda_queues::spsc::{RecvError, TrySendError};
use dcuda_queues::{channel_on, IndexedMatcher, Notification, Query, ANY};

/// Producer/consumer handoff of `msgs` messages over a capacity-`cap`
/// production ring: checks publication ordering, slot exclusivity and
/// in-order delivery under every explored interleaving.
pub fn mk_handoff(cap: usize, msgs: u64) -> impl Fn() -> Vec<ModelThread> {
    move || {
        let (mut tx, mut rx) = channel_on::<u64, VPlatform>(cap);
        let producer: ModelThread = Box::new(move || {
            let mut i = 0u64;
            while i < msgs {
                match tx.try_send(i) {
                    Ok(()) => i += 1,
                    Err(TrySendError::Full(_)) => vyield(),
                    Err(TrySendError::Disconnected(_)) => panic!("consumer died early"),
                }
            }
        });
        let consumer: ModelThread = Box::new(move || {
            let mut expect = 0u64;
            while expect < msgs {
                match rx.try_recv() {
                    Ok(v) => {
                        assert_eq!(v, expect, "out-of-order or torn message");
                        expect += 1;
                    }
                    Err(RecvError::Empty) => vyield(),
                    Err(RecvError::Disconnected) => panic!("producer died early"),
                }
            }
        });
        vec![producer, consumer]
    }
}

/// Credit-flow handshake: more messages than capacity forces the producer
/// through the credits-exhausted path (tail refresh, `Full` backoff) on a
/// tiny ring, checking that flow control never lets a slot be overwritten
/// before the consumer has moved the previous value out.
pub fn mk_credit_handshake() -> impl Fn() -> Vec<ModelThread> {
    mk_handoff(2, 4)
}

/// Three-thread relay: two chained rings (`t0 -> t1 -> t2`), with the
/// middle thread both consuming and producing — the smallest program where
/// a stall in one ring can starve the other.
pub fn mk_relay(msgs: u64) -> impl Fn() -> Vec<ModelThread> {
    move || {
        let (mut tx_a, mut rx_a) = channel_on::<u64, VPlatform>(2);
        let (mut tx_b, mut rx_b) = channel_on::<u64, VPlatform>(2);
        let source: ModelThread = Box::new(move || {
            let mut i = 0u64;
            while i < msgs {
                match tx_a.try_send(i) {
                    Ok(()) => i += 1,
                    Err(TrySendError::Full(_)) => vyield(),
                    Err(TrySendError::Disconnected(_)) => panic!("relay died early"),
                }
            }
        });
        let relay: ModelThread = Box::new(move || {
            let mut moved = 0u64;
            while moved < msgs {
                match rx_a.try_recv() {
                    Ok(v) => loop {
                        match tx_b.try_send(v) {
                            Ok(()) => {
                                moved += 1;
                                break;
                            }
                            Err(TrySendError::Full(_)) => vyield(),
                            Err(TrySendError::Disconnected(_)) => panic!("sink died early"),
                        }
                    },
                    Err(RecvError::Empty) => vyield(),
                    Err(RecvError::Disconnected) => panic!("source died early"),
                }
            }
        });
        let sink: ModelThread = Box::new(move || {
            let mut expect = 0u64;
            while expect < msgs {
                match rx_b.try_recv() {
                    Ok(v) => {
                        assert_eq!(v, expect, "relay reordered messages");
                        expect += 1;
                    }
                    Err(RecvError::Empty) => vyield(),
                    Err(RecvError::Disconnected) => panic!("relay died early"),
                }
            }
        });
        vec![source, relay, sink]
    }
}

/// Notification pipeline: `Notification` values flow through the production
/// ring into the consumer's pending list — the [`IndexedMatcher`] both
/// drivers ship — which is matched with a wildcard query interleaved with
/// the drain. Checks conservation (every sent notification is matched
/// exactly once) and the paper's in-order-with-compaction result across all
/// interleavings.
pub fn mk_notify_pipeline() -> impl Fn() -> Vec<ModelThread> {
    move || {
        let (mut tx, mut rx) = channel_on::<Notification, VPlatform>(4);
        let notifs = [
            Notification {
                win: 0,
                source: 0,
                tag: 1,
            },
            Notification {
                win: 0,
                source: 0,
                tag: 0,
            },
            Notification {
                win: 1,
                source: 0,
                tag: 1,
            },
        ];
        let producer: ModelThread = Box::new(move || {
            let mut i = 0usize;
            while i < notifs.len() {
                match tx.try_send(notifs[i]) {
                    Ok(()) => i += 1,
                    Err(TrySendError::Full(_)) => vyield(),
                    Err(TrySendError::Disconnected(_)) => panic!("matcher died early"),
                }
            }
        });
        let consumer: ModelThread = Box::new(move || {
            let mut pending = IndexedMatcher::new();
            let tag1 = Query {
                win: ANY,
                source: 0,
                tag: 1,
            };
            let mut tag1_matched = 0usize;
            let mut tag0_matched = 0usize;
            // Drain and match interleaved: the tag-1 query compacts over
            // the tag-0 entry sitting between its matches.
            while tag1_matched < 2 || tag0_matched < 1 {
                match rx.try_recv() {
                    Ok(n) => pending.insert(n),
                    Err(RecvError::Empty) => vyield(),
                    Err(RecvError::Disconnected) => panic!("producer died early"),
                }
                if tag1_matched < 2 {
                    if let Some((got, _scanned)) = pending.try_match(tag1, 2) {
                        assert_eq!(got.len(), 2);
                        assert!(got.iter().all(|n| n.tag == 1));
                        tag1_matched = 2;
                    }
                }
                if tag1_matched == 2 && tag0_matched < 1 {
                    if let Some((got, _)) = pending.try_match(Query::WILDCARD, 1) {
                        assert_eq!(got[0].tag, 0, "residual after compaction must be tag 0");
                        tag0_matched = 1;
                    }
                }
            }
            assert!(pending.is_empty(), "matcher leaked notifications");
        });
        vec![producer, consumer]
    }
}

/// A program with a genuine lost wakeup: the consumer waits for a message
/// the producer never sends. The checker must report a livelock.
pub fn mk_lost_wakeup() -> impl Fn() -> Vec<ModelThread> {
    move || {
        let (mut tx, mut rx) = channel_on::<u64, VPlatform>(2);
        let producer: ModelThread = Box::new(move || {
            let _ = tx.try_send(1);
        });
        let consumer: ModelThread = Box::new(move || {
            let mut got = 0u64;
            while got < 2 {
                match rx.try_recv() {
                    Ok(_) => got += 1,
                    Err(_) => vyield(),
                }
            }
        });
        vec![producer, consumer]
    }
}

/// One corpus entry's verdict.
pub struct SuiteResult {
    /// Program name.
    pub name: &'static str,
    /// Checker outcome.
    pub outcome: Outcome,
    /// True when the entry is *supposed* to fail (seeded mutation,
    /// lost-wakeup demo) — the suite passes iff `outcome.passed() !=
    /// expect_fail` with the expected failure kind.
    pub expect_fail: Option<FailureKind>,
}

impl SuiteResult {
    /// Did the checker deliver the expected verdict for this entry?
    pub fn ok(&self) -> bool {
        match &self.expect_fail {
            None => self.outcome.passed(),
            Some(kind) => self.outcome.failure().is_some_and(|f| f.kind == *kind),
        }
    }
}

/// The model used for the seeded `Release` → `Relaxed` mutation check.
pub fn mutation_model() -> Model {
    Model {
        preemption_bound: 2,
        demote_release: true,
        max_executions: 200_000,
        ..Model::default()
    }
}

/// Execution budget tier for [`run_suite`]. On a single-core host every
/// scheduler handoff is a real OS context switch (~0.5 ms per execution),
/// so the tiers bound *executions*, the only tractable lever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteEffort {
    /// `cargo test` tier: every exhaustive acceptance entry plus truncated
    /// prefixes of the larger programs; a few seconds of wall time.
    Quick,
    /// CI `verify_check` tier: deeper truncation budgets and the cap-4
    /// handoff; under a minute of wall time.
    Full,
}

/// Run the regression corpus at the given effort tier. Entries whose
/// verdict the acceptance criteria depend on — the exhaustive cap-2
/// handoff, the notification-compaction pipeline, the seeded mutation and
/// the lost-wakeup liveness demo — run at full depth in *both* tiers; the
/// tiers only differ in how far the larger truncated searches go.
pub fn run_suite(effort: SuiteEffort) -> Vec<SuiteResult> {
    let full = effort == SuiteEffort::Full;
    let truncated_budget = if full { 40_000 } else { 2_000 };
    let mut results = Vec::new();

    // Fully exhaustive (unbounded preemptions) on the smallest handoff.
    let exhaustive = Model {
        preemption_bound: usize::MAX,
        max_executions: 150_000,
        ..Model::default()
    };
    results.push(SuiteResult {
        name: "spsc_handoff_cap2_exhaustive",
        outcome: exhaustive.check(mk_handoff(2, 1)),
        expect_fail: None,
    });

    let bounded = Model {
        preemption_bound: 3,
        max_executions: 150_000,
        ..Model::default()
    };
    results.push(SuiteResult {
        name: "spsc_handoff_cap2_msgs2",
        outcome: bounded.check(mk_handoff(2, 2)),
        expect_fail: None,
    });
    if full {
        results.push(SuiteResult {
            name: "spsc_handoff_cap4_msgs3",
            outcome: bounded.check(mk_handoff(4, 3)),
            expect_fail: None,
        });
    }
    let credit = Model {
        preemption_bound: 3,
        max_executions: truncated_budget,
        ..Model::default()
    };
    results.push(SuiteResult {
        name: "spsc_credit_handshake",
        outcome: credit.check(mk_credit_handshake()),
        expect_fail: None,
    });

    let two_bound = Model {
        preemption_bound: 2,
        max_executions: truncated_budget,
        ..Model::default()
    };
    results.push(SuiteResult {
        name: "three_thread_relay",
        outcome: two_bound.check(mk_relay(2)),
        expect_fail: None,
    });
    let pipeline = Model {
        preemption_bound: 2,
        max_executions: 150_000,
        ..Model::default()
    };
    results.push(SuiteResult {
        name: "notify_compaction_pipeline",
        outcome: pipeline.check(mk_notify_pipeline()),
        expect_fail: None,
    });

    // Seeded mutation: the checker must catch the demoted release as a
    // data race on the payload cell.
    results.push(SuiteResult {
        name: "mutation_release_demoted_to_relaxed",
        outcome: mutation_model().check(mk_handoff(2, 1)),
        expect_fail: Some(FailureKind::DataRace),
    });

    // Liveness: a waits-forever program must surface as a livelock.
    let livelock = Model {
        preemption_bound: 1,
        max_steps: 2_000,
        ..Model::default()
    };
    results.push(SuiteResult {
        name: "lost_wakeup_livelock",
        outcome: livelock.check(mk_lost_wakeup()),
        expect_fail: Some(FailureKind::Livelock),
    });

    results
}
