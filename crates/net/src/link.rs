//! The exactly-once link discipline every `dcuda-net` plane runs.
//!
//! A link is one direction of a peer-pair connection. Its sender numbers
//! every sequenced transmission densely from 0; its receiver releases them
//! strictly in that order. That one mechanism yields FIFO delivery,
//! duplicate suppression (a sequence number below the frontier, or already
//! slotted, is a repeat) and loss recovery (the frontier stalls, buffering
//! later arrivals, until a retransmission fills the gap).
//!
//! [`NetFaults`] injection lives here too, so tcp and shm are faulted
//! identically: the *first* transmission of a sequenced item is dropped with
//! `drop_p` — parked, and handed back for retransmission once a full service
//! pass has gone by, so fresher sequence numbers overtake it — or else sent
//! twice with `dup_p`. Decisions come from one seeded stream per direction;
//! retransmissions are never rolled again.
//!
//! The module moves no bytes: [`LinkTx`] is generic over whatever the plane
//! stages for the wire (a tcp frame, a shm record chain), [`LinkRx`] over
//! what it releases.

use crate::socket::AtomicStats;
use dcuda_des::SplitMix64;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::Ordering;

/// Link-level fault injection rates (derived from a
/// `dcuda_fabric::FaultSpec` by the launcher).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaults {
    /// Seed for the per-direction decision streams.
    pub seed: u64,
    /// Probability a sequenced item's first transmission is dropped.
    pub drop_p: f64,
    /// Probability a sequenced item's first transmission is duplicated.
    pub dup_p: f64,
}

/// Send half of a link: sequence assignment, the fault roll, and the
/// retransmit park.
pub(crate) struct LinkTx<F> {
    next_seq: u64,
    /// Fault decision stream and its rates (`None` on a healthy link).
    faults: Option<(SplitMix64, NetFaults)>,
    /// Dropped during the current service pass.
    parked: VecDeque<F>,
    /// Dropped during the previous pass: due at the next one.
    due: VecDeque<F>,
}

impl<F> LinkTx<F> {
    /// The send half of the `from_proc → to_proc` direction. The process
    /// pair keys the decision stream, so the two directions of a connection
    /// inject independently but reproducibly.
    pub(crate) fn new(faults: Option<NetFaults>, from_proc: u32, to_proc: u32) -> Self {
        let faults = faults.map(|f| {
            let key = f
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((u64::from(from_proc) << 32) | u64::from(to_proc));
            (SplitMix64::new(key), f)
        });
        LinkTx {
            next_seq: 0,
            faults,
            parked: VecDeque::new(),
            due: VecDeque::new(),
        }
    }

    /// The next dense sequence number.
    pub(crate) fn assign_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Decide the fate of a sequenced item's first transmission: `Some`
    /// hands it back with the number of copies to put on the wire (2 = an
    /// injected duplicate); `None` means it was dropped at the wire and is
    /// parked here until [`due_retransmits`](Self::due_retransmits).
    pub(crate) fn first_transmission(&mut self, item: F) -> Option<(F, u8)> {
        let Some((rng, f)) = self.faults.as_mut() else {
            return Some((item, 1));
        };
        if rng.next_f64() < f.drop_p {
            self.parked.push_back(item);
            return None;
        }
        let copies = if rng.next_f64() < f.dup_p { 2 } else { 1 };
        Some((item, copies))
    }

    /// Start a service pass: take the items whose retransmission is due
    /// (counted in `net_retries`); what the last pass dropped becomes due
    /// at the next.
    pub(crate) fn due_retransmits(&mut self, stats: &AtomicStats) -> VecDeque<F> {
        let due = std::mem::replace(&mut self.due, std::mem::take(&mut self.parked));
        if !due.is_empty() {
            // (Guarded: this runs on every pass of a healthy link too.)
            stats
                .net_retries
                .fetch_add(due.len() as u64, Ordering::Relaxed);
        }
        due
    }

    /// Nothing awaits retransmission.
    pub(crate) fn idle(&self) -> bool {
        self.parked.is_empty() && self.due.is_empty()
    }
}

/// Receive half of a link: the dense release frontier, the reorder buffer
/// and the duplicate verdict.
pub(crate) struct LinkRx<M> {
    /// Next sequence number to release.
    expected: u64,
    /// Out-of-order arrivals, waiting for the frontier to reach them.
    slots: BTreeMap<u64, M>,
}

impl<M> LinkRx<M> {
    pub(crate) fn new() -> Self {
        LinkRx {
            expected: 0,
            slots: BTreeMap::new(),
        }
    }

    /// First sight of sequence number `seq`? A repeat — below the frontier
    /// or already slotted — is counted in `net_dups_suppressed` and must be
    /// discarded by the caller.
    pub(crate) fn admit(&self, seq: u64, stats: &AtomicStats) -> bool {
        let fresh = seq >= self.expected && !self.slots.contains_key(&seq);
        if !fresh {
            stats.net_dups_suppressed.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Slot an admitted arrival.
    pub(crate) fn fill(&mut self, seq: u64, msg: M) {
        self.slots.insert(seq, msg);
    }

    /// Release the next arrival in sequence order, if it is here.
    pub(crate) fn pop_ready(&mut self) -> Option<M> {
        let msg = self.slots.remove(&self.expected)?;
        self.expected += 1;
        Some(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcuda_des::check::forall;

    /// Any seeded schedule of drops, duplicates and overtaking delivers
    /// every sequence number exactly once, in order, suppressing exactly
    /// the injected duplicates and retransmitting exactly the drops.
    #[test]
    fn any_fault_schedule_delivers_exactly_once_in_order() {
        forall("link_exactly_once", 300, |g| {
            let faults = NetFaults {
                seed: g.u64(),
                drop_p: g.f64_in(0.0, 0.6),
                dup_p: g.f64_in(0.0, 0.6),
            };
            let total = g.usize_in(1, 200) as u64;
            let stats = AtomicStats::default();
            let mut tx = LinkTx::<u64>::new(Some(faults), 0, 1);
            let mut rx = LinkRx::<u64>::new();
            let (mut sent, mut drops, mut dups) = (0u64, 0u64, 0u64);
            let mut delivered = Vec::new();
            let mut wire: Vec<u64> = Vec::new();
            while delivered.len() < total as usize {
                // One service pass: due retransmissions, then a burst of
                // first transmissions.
                wire.extend(tx.due_retransmits(&stats));
                for _ in 0..g.usize_in(0, 8).min((total - sent) as usize) {
                    let seq = tx.assign_seq();
                    assert_eq!(seq, sent, "dense sequence numbers");
                    sent += 1;
                    match tx.first_transmission(seq) {
                        None => drops += 1,
                        Some((seq, copies)) => {
                            dups += u64::from(copies - 1);
                            wire.extend(std::iter::repeat_n(seq, usize::from(copies)));
                        }
                    }
                }
                // Everything in flight overtakes freely; an arbitrary part
                // of it stays in flight past this pass.
                for i in (1..wire.len()).rev() {
                    wire.swap(i, g.usize_below(i + 1));
                }
                let held = if sent == total && tx.idle() {
                    0
                } else {
                    g.usize_below(wire.len() + 1)
                };
                for seq in wire.split_off(held) {
                    if rx.admit(seq, &stats) {
                        rx.fill(seq, seq);
                    }
                    while let Some(seq) = rx.pop_ready() {
                        delivered.push(seq);
                    }
                }
            }
            assert!(wire.is_empty(), "delivered before the last arrival");
            assert!(tx.idle(), "everything dropped was retransmitted");
            assert!(delivered.iter().copied().eq(0..total), "{delivered:?}");
            let count = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
            assert_eq!(count(&stats.net_retries), drops);
            assert_eq!(count(&stats.net_dups_suppressed), dups);
        });
    }
}
