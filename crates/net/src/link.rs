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

/// Link-level fault injection rates (what `dcuda-launch --faults` sets; see
/// [`NetFaults::parse`] for the profile grammar).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaults {
    /// Seed for the per-direction decision streams.
    pub seed: u64,
    /// Probability a sequenced item's first transmission is dropped.
    pub drop_p: f64,
    /// Probability a sequenced item's first transmission is duplicated.
    pub dup_p: f64,
}

/// The accepted profile grammar, quoted by every parse error.
const GRAMMAR: &str = "expected PRESET[@SEED][,drop=P][,dup=P][,seed=N] with PRESET one of \
                       healthy, drop, dup, lossy and each P a probability in [0, 1]";

impl NetFaults {
    /// Parse a fault profile: `PRESET[@SEED][,drop=P][,dup=P][,seed=N]`.
    ///
    /// Presets: `healthy` (no injection), `drop` (1 % drop), `dup` (0.5 %
    /// duplicate) and `lossy` (both). The seed defaults to 1; the keys
    /// override the preset. Example: `lossy@11,drop=0.02`. A probability
    /// outside `[0, 1]` (NaN included) and any other preset or key are
    /// errors that quote the grammar: a link only drops and duplicates, so
    /// a latency-only class such as `stall` must not run as a healthy world.
    pub fn parse(profile: &str) -> Result<NetFaults, String> {
        let mut parts = profile.split(',');
        let head = parts.next().unwrap_or("").trim();
        let (name, seed) = match head.split_once('@') {
            Some((name, seed)) => (name.trim(), Some(parse_seed(seed)?)),
            None => (head, None),
        };
        let (drop_p, dup_p) = match name {
            "healthy" => (0.0, 0.0),
            "drop" => (0.01, 0.0),
            "dup" => (0.0, 0.005),
            "lossy" => (0.01, 0.005),
            other => return Err(unsupported("preset", other)),
        };
        let mut faults = NetFaults {
            seed: seed.unwrap_or(1),
            drop_p,
            dup_p,
        };
        for kv in parts {
            let kv = kv.trim();
            let (key, val) = kv
                .split_once('=')
                .ok_or_else(|| format!("fault profile: {kv:?} is not key=value; {GRAMMAR}"))?;
            match key.trim() {
                "drop" => faults.drop_p = parse_probability(key, val)?,
                "dup" => faults.dup_p = parse_probability(key, val)?,
                "seed" => faults.seed = parse_seed(val)?,
                other => return Err(unsupported("key", other)),
            }
        }
        Ok(faults)
    }
}

fn unsupported(what: &str, name: &str) -> String {
    format!("fault profile: unknown {what} {name:?}; {GRAMMAR}")
}

fn parse_seed(val: &str) -> Result<u64, String> {
    val.trim()
        .parse()
        .map_err(|_| format!("fault profile: bad seed {val:?}; {GRAMMAR}"))
}

fn parse_probability(key: &str, val: &str) -> Result<f64, String> {
    match val.trim().parse::<f64>() {
        Ok(p) if (0.0..=1.0).contains(&p) => Ok(p),
        _ => Err(format!(
            "fault profile: {key}={val:?} is not a probability; {GRAMMAR}"
        )),
    }
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

    fn faults(seed: u64, drop_p: f64, dup_p: f64) -> NetFaults {
        NetFaults {
            seed,
            drop_p,
            dup_p,
        }
    }

    #[test]
    fn parse_accepts_presets_seeds_and_overrides() {
        for (profile, want) in [
            ("healthy", faults(1, 0.0, 0.0)),
            ("healthy@4", faults(4, 0.0, 0.0)),
            ("drop", faults(1, 0.01, 0.0)),
            ("drop@7", faults(7, 0.01, 0.0)),
            ("dup", faults(1, 0.0, 0.005)),
            ("dup@3", faults(3, 0.0, 0.005)),
            ("lossy", faults(1, 0.01, 0.005)),
            // The `net_conformance` lossy cells run exactly this.
            ("lossy@11", faults(11, 0.01, 0.005)),
            ("lossy@2,drop=0.1,dup=0.05", faults(2, 0.1, 0.05)),
            ("healthy,drop=0,dup=1", faults(1, 0.0, 1.0)),
            ("drop,drop=1.0", faults(1, 1.0, 0.0)),
            ("dup@5,seed=9", faults(9, 0.0, 0.005)),
            (" lossy @ 8 , dup = 0.25 ", faults(8, 0.01, 0.25)),
        ] {
            assert_eq!(NetFaults::parse(profile), Ok(want), "{profile:?}");
        }
    }

    #[test]
    fn parse_rejects_what_a_link_cannot_inject() {
        for profile in [
            // Probabilities outside [0, 1], NaN included.
            "lossy,drop=NaN",
            "lossy,dup=nan",
            "lossy,drop=-0.5",
            "lossy,dup=1.5",
            "lossy,drop=inf",
            "lossy,drop=",
            // Latency-only presets and keys.
            "stall",
            "brownout@2",
            "linkdeath",
            "reorder",
            "lossy,reorder=0.1",
            "lossy,spike=0.5",
            "healthy,timeout_us=80",
            "healthy,kill=0-1@50",
            // Unknown presets and keys, and malformed parts.
            "",
            "nonsense",
            "lossy,bogus=1",
            "lossy,drop",
            "lossy@x",
            "lossy,seed=-1",
        ] {
            let err = NetFaults::parse(profile).expect_err(profile);
            assert!(err.contains(GRAMMAR), "{profile:?}: {err}");
        }
    }

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
