//! Vector-clock happens-before race detection for notified-RMA window memory.
//!
//! dCUDA's programming model makes notifications the *only* synchronization
//! between a remote put and the target's subsequent accesses: any window
//! byte touched concurrently without an intervening
//! `wait_notifications`/barrier edge is a data race that silently corrupts
//! results. This module is the online analysis that catches those races.
//!
//! # Model
//!
//! Every rank carries a [`VClock`] with one *program* slot per rank plus one
//! *channel* slot per ordered `(origin, target)` rank pair. Program slots
//! count a rank's synchronization steps; channel slots count how many of the
//! origin's RMA effects toward that target are known to have landed.
//!
//! Accesses are stamped with an [`Epoch`]:
//!
//! - local reads/writes through the rank's own window accessors happen at
//!   the rank's current program time;
//! - a put's write effect at the target happens at a fresh sequence number
//!   on its `(origin, target)` channel — it is *asynchronous*: the origin's
//!   own clock never covers it, only a rank that matched the put's
//!   notification (or a later one on the same in-order channel, or the
//!   origin itself after a flush) does.
//!
//! Happens-before edges are exactly the ones the programming model grants:
//! matching a notification joins the origin's issue-time clock (carrying the
//! channel sequence of the put that minted it); a completed flush folds the
//! origin's own issued channel sequences back into its clock ("send buffers
//! reusable" implies the effects landed); a barrier is an all-to-all join.
//! The channel edge is sound because every transport plane delivers in
//! order per `(origin, target)` pair.
//!
//! A per-`(owner rank, window)` byte-interval map stores, for each range,
//! the last write and the reads since. An access that neither covers nor is
//! covered by a recorded conflicting access is a race, reported as a typed
//! [`RaceReport`] naming the window, byte range, both access sites, and the
//! missing edge.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};

/// How the detector reacts to a race (and whether it runs at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RaceMode {
    /// Detection disabled: no clocks, no shadow memory, no overhead.
    #[default]
    Off,
    /// Record every race and keep running; reports accumulate for the
    /// post-run summary.
    Observe,
    /// Fail the access that completes the racy pair.
    Strict,
}

impl RaceMode {
    /// Parse a mode name as accepted by `--race off|observe|strict`.
    pub fn parse(s: &str) -> Option<RaceMode> {
        match s {
            "off" => Some(RaceMode::Off),
            "observe" => Some(RaceMode::Observe),
            "strict" => Some(RaceMode::Strict),
            _ => None,
        }
    }
}

/// A vector clock: per-rank program slots plus per-channel effect slots.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VClock {
    /// One synchronization-step counter per rank.
    prog: Vec<u64>,
    /// Landed-effect counters per ordered `(origin, target)` pair; absent
    /// entries are zero. Sparse: ranks only accumulate entries for channels
    /// they have synchronized with.
    chan: BTreeMap<(u32, u32), u64>,
}

impl VClock {
    /// The zero clock for a `world`-rank cluster.
    pub fn new(world: u32) -> VClock {
        VClock {
            prog: vec![0; world as usize],
            chan: BTreeMap::new(),
        }
    }

    /// Advance `rank`'s program slot by one step.
    pub fn tick(&mut self, rank: u32) {
        self.prog[rank as usize] += 1;
    }

    /// Pointwise maximum with `other`.
    pub fn join(&mut self, other: &VClock) {
        for (mine, theirs) in self.prog.iter_mut().zip(&other.prog) {
            *mine = (*mine).max(*theirs);
        }
        for (&key, &theirs) in &other.chan {
            let mine = self.chan.entry(key).or_insert(0);
            *mine = (*mine).max(theirs);
        }
    }

    /// Raise one channel slot to at least `seq`.
    fn raise_chan(&mut self, origin: u32, target: u32, seq: u64) {
        let slot = self.chan.entry((origin, target)).or_insert(0);
        *slot = (*slot).max(seq);
    }

    /// Does this clock cover `epoch` (the epoch happened-before it)?
    pub fn covers(&self, epoch: Epoch) -> bool {
        match epoch {
            Epoch::Prog { rank, time } => time <= self.prog[rank as usize],
            Epoch::Chan {
                origin,
                target,
                seq,
            } => seq <= self.chan.get(&(origin, target)).copied().unwrap_or(0),
        }
    }
}

/// Where an access "happened" in the happens-before order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Epoch {
    /// Synchronous access by a rank's own program.
    Prog {
        /// The accessing rank.
        rank: u32,
        /// Its program time at the access.
        time: u64,
    },
    /// Asynchronous RMA effect landing on the `(origin, target)` channel.
    Chan {
        /// Issuing rank.
        origin: u32,
        /// Rank whose window the effect lands in.
        target: u32,
        /// Sequence number of the effect on the channel.
        seq: u64,
    },
}

/// What an access does to the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessKind {
    /// Local read through a window accessor.
    Read,
    /// Local write through a window accessor.
    Write,
    /// A put's write effect at the target window.
    RemoteWrite,
    /// A get's read effect at the target window.
    RemoteRead,
}

impl AccessKind {
    fn is_write(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::RemoteWrite)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::RemoteWrite => "remote write",
            AccessKind::RemoteRead => "remote read",
        };
        f.write_str(s)
    }
}

/// One side of a racy pair: who touched the bytes, how, and from where.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AccessInfo {
    /// The acting rank (the origin, for remote effects).
    pub rank: u32,
    /// Read/write, local/remote.
    pub kind: AccessKind,
    /// Site label (accessor name, put tag) identifying the source location.
    pub label: String,
}

impl fmt::Display for AccessInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} by rank {} at {}", self.kind, self.rank, self.label)
    }
}

/// A detected race: two accesses to overlapping window bytes with no
/// happens-before edge between them.
///
/// Epoch values are deliberately excluded: the report is a function of the
/// *program*, not of thread scheduling, so identical racy programs produce
/// identical reports across runs and transport planes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// Window the racy bytes live in.
    pub win: u32,
    /// Rank owning the window instance.
    pub owner: u32,
    /// First racy byte (window-relative).
    pub start: usize,
    /// One past the last racy byte.
    pub end: usize,
    /// One side of the pair (the write, when exactly one side writes).
    pub first: AccessInfo,
    /// The other side.
    pub second: AccessInfo,
    /// The synchronization edge that would have ordered the pair.
    pub missing_edge: String,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "data race on rank {}'s window {} bytes {}..{}: {} is concurrent with {} ({})",
            self.owner, self.win, self.start, self.end, self.first, self.second, self.missing_edge
        )
    }
}

/// An access as stored in shadow memory.
#[derive(Debug, Clone)]
struct Access {
    info: AccessInfo,
    epoch: Epoch,
}

/// One maximal byte range with uniform access history.
#[derive(Debug, Clone)]
struct Segment {
    start: usize,
    end: usize,
    write: Option<Access>,
    reads: Vec<Access>,
}

/// The happens-before race detector. One instance covers a whole world;
/// every access and synchronization edge is reported through it.
#[derive(Debug)]
pub struct RaceDetector {
    world: u32,
    clocks: Vec<VClock>,
    /// Issue counters per `(origin, target)` channel.
    issued: BTreeMap<(u32, u32), u64>,
    /// Clock snapshots riding on not-yet-matched notifications, FIFO per
    /// `(target, origin, win, tag)` — issue order equals delivery order
    /// equals match order for identical keys.
    inflight: HashMap<(u32, u32, u32, u32), VecDeque<VClock>>,
    /// Shadow memory per `(owner rank, window)`.
    shadow: HashMap<(u32, u32), Vec<Segment>>,
    reports: Vec<RaceReport>,
}

impl RaceDetector {
    /// A fresh detector for a `world`-rank cluster.
    pub fn new(world: u32) -> RaceDetector {
        RaceDetector {
            world,
            // Each rank starts at program time 1 in its own slot so that a
            // rank's very first accesses are not covered by everyone's zero
            // clock.
            clocks: (0..world)
                .map(|r| {
                    let mut c = VClock::new(world);
                    c.tick(r);
                    c
                })
                .collect(),
            issued: BTreeMap::new(),
            inflight: HashMap::new(),
            shadow: HashMap::new(),
            reports: Vec::new(),
        }
    }

    /// World size this detector was built for.
    pub fn world(&self) -> u32 {
        self.world
    }

    /// Record a synchronous access by `rank`'s own program to bytes
    /// `start..end` of its window `win`. Returns the first *new* race the
    /// access completes, if any.
    pub fn local_access(
        &mut self,
        rank: u32,
        win: u32,
        start: usize,
        end: usize,
        write: bool,
        label: &str,
    ) -> Option<RaceReport> {
        let clock = self.clocks[rank as usize].clone();
        let access = Access {
            info: AccessInfo {
                rank,
                kind: if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                label: label.to_string(),
            },
            epoch: Epoch::Prog {
                rank,
                time: clock.prog[rank as usize],
            },
        };
        self.check_and_record(rank, win, start, end, access, &clock)
    }

    /// Record a put: a synchronous read of `src` bytes in the origin's
    /// window `src_win` plus an asynchronous write effect of `dst` bytes in
    /// the target's window `dst_win` (the two differ for collective-engine
    /// puts staging through the hidden scratch window). `notify` carries
    /// the notification tag when the put notifies; the origin's issue-time
    /// clock then rides the notification and is joined by
    /// [`matched`](Self::matched). Returns the first new race, if any.
    #[allow(clippy::too_many_arguments)]
    pub fn put(
        &mut self,
        origin: u32,
        target: u32,
        src_win: u32,
        src: (usize, usize),
        dst_win: u32,
        dst: (usize, usize),
        notify: Option<u32>,
        label: &str,
    ) -> Option<RaceReport> {
        let src_race = self.local_access(
            origin,
            src_win,
            src.0,
            src.1,
            false,
            &format!("{label} (source)"),
        );
        let seq = {
            let slot = self.issued.entry((origin, target)).or_insert(0);
            *slot += 1;
            *slot
        };
        let mut eff_clock = self.clocks[origin as usize].clone();
        eff_clock.raise_chan(origin, target, seq);
        let access = Access {
            info: AccessInfo {
                rank: origin,
                kind: AccessKind::RemoteWrite,
                label: label.to_string(),
            },
            epoch: Epoch::Chan {
                origin,
                target,
                seq,
            },
        };
        let dst_race = self.check_and_record(target, dst_win, dst.0, dst.1, access, &eff_clock);
        if let Some(tag) = notify {
            self.inflight
                .entry((target, origin, dst_win, tag))
                .or_default()
                .push_back(eff_clock);
        }
        self.clocks[origin as usize].tick(origin);
        src_race.or(dst_race)
    }

    /// `rank` matched a notification `(source, win, tag)`: join the clock
    /// snapshot the notification carried.
    pub fn matched(&mut self, rank: u32, source: u32, win: u32, tag: u32) {
        let key = (rank, source, win, tag);
        if let Some(queue) = self.inflight.get_mut(&key) {
            if let Some(snap) = queue.pop_front() {
                self.clocks[rank as usize].join(&snap);
            }
            // A key lives only while a snapshot waits on it, so distinct
            // tags do not accumulate.
            if queue.is_empty() {
                self.inflight.remove(&key);
            }
        }
        self.clocks[rank as usize].tick(rank);
    }

    /// `rank` completed a flush: every effect it issued has landed, so its
    /// own channel sequences fold back into its clock (and propagate to
    /// peers through later synchronization).
    pub fn flushed(&mut self, rank: u32) {
        let owned: Vec<((u32, u32), u64)> = self
            .issued
            .range((rank, 0)..(rank, u32::MAX))
            .map(|(&k, &v)| (k, v))
            .collect();
        for ((origin, target), seq) in owned {
            self.clocks[rank as usize].raise_chan(origin, target, seq);
        }
        self.clocks[rank as usize].tick(rank);
    }

    /// All ranks completed a barrier: all-to-all clock join.
    pub fn barrier(&mut self) {
        let mut all = VClock::new(self.world);
        for c in &self.clocks {
            all.join(c);
        }
        for (rank, c) in self.clocks.iter_mut().enumerate() {
            c.join(&all);
            c.tick(rank as u32);
        }
    }

    /// Push an explicit clock snapshot for a notification minted outside
    /// the put path (the simulator's nonblocking barrier completions).
    pub fn stash_snapshot(&mut self, target: u32, source: u32, win: u32, tag: u32) {
        let snap = self.clocks[source as usize].clone();
        self.inflight
            .entry((target, source, win, tag))
            .or_default()
            .push_back(snap);
    }

    /// Mixed blocking/nonblocking barrier completion (the simulator's
    /// shape): every rank has entered, so the all-entries clock is formed
    /// once; a rank listed with `None` completed a blocking barrier and
    /// joins it immediately, while `Some(tag)` stashes it as that rank's
    /// pending nonblocking completion on window `nb_win` — the rank only
    /// joins (and ticks) when it matches the completion notification,
    /// keeping its concurrent post-`ibarrier` work visibly unordered.
    pub fn barrier_entries(&mut self, completions: &[(u32, Option<u32>)], nb_win: u32) {
        let mut all = VClock::new(self.world);
        for c in &self.clocks {
            all.join(c);
        }
        for &(rank, nb) in completions {
            match nb {
                None => {
                    self.clocks[rank as usize].join(&all);
                    self.clocks[rank as usize].tick(rank);
                }
                Some(tag) => {
                    self.inflight
                        .entry((rank, rank, nb_win, tag))
                        .or_default()
                        .push_back(all.clone());
                }
            }
        }
    }

    /// Every race found so far.
    pub fn reports(&self) -> &[RaceReport] {
        &self.reports
    }

    /// Check one access against shadow memory, record it, and return the
    /// first *new* race it completes.
    fn check_and_record(
        &mut self,
        owner: u32,
        win: u32,
        start: usize,
        end: usize,
        access: Access,
        clock: &VClock,
    ) -> Option<RaceReport> {
        if start >= end {
            return None;
        }
        let segments = self.shadow.entry((owner, win)).or_default();
        materialize(segments, start, end);
        let mut found: Option<RaceReport> = None;
        for seg in segments
            .iter_mut()
            .filter(|s| s.start < end && s.end > start)
        {
            let mut conflicts: Vec<&Access> = Vec::new();
            if let Some(w) = &seg.write {
                if !clock.covers(w.epoch) {
                    conflicts.push(w);
                }
            }
            if access.info.kind.is_write() {
                conflicts.extend(seg.reads.iter().filter(|r| !clock.covers(r.epoch)));
            }
            for other in conflicts {
                let report = build_report(owner, win, seg.start, seg.end, other, &access);
                if !self.reports.contains(&report) {
                    if found.is_none() {
                        found = Some(report.clone());
                    }
                    self.reports.push(report);
                }
            }
            if access.info.kind.is_write() {
                seg.write = Some(access.clone());
                seg.reads.clear();
            } else {
                // Drop reads the new one supersedes (their epochs are
                // covered by our clock, so any write racing them races us).
                seg.reads.retain(|r| !clock.covers(r.epoch));
                seg.reads.push(access.clone());
            }
        }
        found
    }
}

/// Split shadow segments so `start` and `end` fall on boundaries, creating
/// fresh segments for uncovered gaps. Afterward the range is exactly tiled.
fn materialize(segments: &mut Vec<Segment>, start: usize, end: usize) {
    let mut out: Vec<Segment> = Vec::with_capacity(segments.len() + 2);
    let mut cursor = start;
    for seg in segments.drain(..) {
        if seg.end <= start || seg.start >= end {
            out.push(seg);
            continue;
        }
        if cursor < seg.start {
            out.push(Segment {
                start: cursor,
                end: seg.start,
                write: None,
                reads: Vec::new(),
            });
        }
        cursor = seg.end.min(end);
        for (lo, hi) in [
            (seg.start, start.max(seg.start)),
            (start.max(seg.start), end.min(seg.end)),
            (end.min(seg.end), seg.end),
        ] {
            if lo < hi {
                out.push(Segment {
                    start: lo,
                    end: hi,
                    write: seg.write.clone(),
                    reads: seg.reads.clone(),
                });
            }
        }
    }
    if cursor < end {
        out.push(Segment {
            start: cursor,
            end,
            write: None,
            reads: Vec::new(),
        });
    }
    out.sort_by_key(|s| s.start);
    *segments = out;
}

/// Normalize a racy pair into a deterministic report: the write side comes
/// first; write-write pairs order by (rank, label).
fn build_report(
    owner: u32,
    win: u32,
    start: usize,
    end: usize,
    recorded: &Access,
    incoming: &Access,
) -> RaceReport {
    let (a, b) = (&recorded.info, &incoming.info);
    let (first, second) = if a.kind.is_write() && !b.kind.is_write() {
        (a, b)
    } else if b.kind.is_write() && !a.kind.is_write() {
        (b, a)
    } else if (a.rank, &a.label) <= (b.rank, &b.label) {
        (a, b)
    } else {
        (b, a)
    };
    let missing_edge = match (first.kind, second.kind) {
        (AccessKind::RemoteWrite, AccessKind::Read)
        | (AccessKind::RemoteWrite, AccessKind::Write) => {
            format!(
                "no notification wait or barrier orders rank {} after the put from rank {}",
                second.rank, first.rank
            )
        }
        (AccessKind::RemoteWrite, AccessKind::RemoteWrite) => format!(
            "ranks {} and {} never synchronized between issuing the puts",
            first.rank, second.rank
        ),
        (AccessKind::RemoteWrite, AccessKind::RemoteRead)
        | (AccessKind::RemoteRead, _)
        | (_, AccessKind::RemoteRead) => format!(
            "nothing orders the access by rank {} around the in-flight transfer from rank {}",
            second.rank, first.rank
        ),
        _ => format!(
            "no happens-before edge between ranks {} and {}",
            first.rank, second.rank
        ),
    };
    RaceReport {
        win,
        owner,
        start,
        end,
        first: first.clone(),
        second: second.clone(),
        missing_edge,
    }
}

/// Inner state behind a [`RaceHandle`]: the detector plus its strictness.
#[derive(Debug, Default)]
struct RaceShared {
    detector: Option<RaceDetector>,
}

/// A cloneable, thread-safe handle to one shared [`RaceDetector`].
///
/// The runtime stores this in its configuration; every rank thread reports
/// accesses and synchronization edges through it. **The handle must be
/// shared by every part of the world** — per-process detectors in a true
/// multi-process run would miss cross-process happens-before edges and
/// report false races, so the launcher only accepts race detection on
/// single-process backends (in-process loopback meshes are fine: both parts
/// share one handle).
#[derive(Clone)]
pub struct RaceHandle {
    strict: bool,
    inner: Arc<Mutex<RaceShared>>,
}

impl fmt::Debug for RaceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RaceHandle")
            .field("strict", &self.strict)
            .finish_non_exhaustive()
    }
}

impl RaceHandle {
    /// A handle for the given mode; `None` for [`RaceMode::Off`].
    pub fn new(mode: RaceMode) -> Option<RaceHandle> {
        match mode {
            RaceMode::Off => None,
            RaceMode::Observe | RaceMode::Strict => Some(RaceHandle {
                strict: mode == RaceMode::Strict,
                inner: Arc::new(Mutex::new(RaceShared::default())),
            }),
        }
    }

    /// Does a detected race fail the access that completed it?
    pub fn strict(&self) -> bool {
        self.strict
    }

    /// Size the detector for `world` ranks. Idempotent; panics if a
    /// different world size was already installed (two mesh parts built
    /// from inconsistent configurations).
    pub fn init(&self, world: u32) {
        let mut g = self.lock();
        match &g.detector {
            None => g.detector = Some(RaceDetector::new(world)),
            Some(d) => assert_eq!(
                d.world(),
                world,
                "race handle shared across inconsistent worlds"
            ),
        }
    }

    /// Run `f` against the shared detector. Panics if [`init`](Self::init)
    /// has not run.
    pub fn with<R>(&self, f: impl FnOnce(&mut RaceDetector) -> R) -> R {
        let mut g = self.lock();
        f(g.detector.as_mut().expect("race handle used before init"))
    }

    /// Snapshot of every race found so far.
    pub fn snapshot(&self) -> Vec<RaceReport> {
        let g = self.lock();
        g.detector
            .as_ref()
            .map(|d| d.reports().to_vec())
            .unwrap_or_default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RaceShared> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put_read_race(d: &mut RaceDetector) -> Option<RaceReport> {
        // Rank 0 puts 0..64 of its window into rank 1's window 0..64.
        d.put(0, 1, 0, (0, 64), 0, (0, 64), Some(7), "put[tag 7]");
        // Rank 1 reads without waiting.
        d.local_access(1, 0, 0, 64, false, "win_at")
    }

    #[test]
    fn unsynchronized_read_races_with_put() {
        let mut d = RaceDetector::new(2);
        let race = put_read_race(&mut d).expect("race expected");
        assert_eq!(race.owner, 1);
        assert_eq!((race.start, race.end), (0, 64));
        assert_eq!(race.first.kind, AccessKind::RemoteWrite);
        assert_eq!(race.second.kind, AccessKind::Read);
        assert_eq!(d.reports().len(), 1);
    }

    #[test]
    fn matched_notifications_leave_no_keys_behind() {
        let mut d = RaceDetector::new(2);
        for tag in 0..1000 {
            d.put(0, 1, 0, (0, 8), 0, (0, 8), Some(tag), "put");
            d.matched(1, 0, 0, tag);
        }
        assert!(d.inflight.is_empty(), "{} keys left", d.inflight.len());
    }

    #[test]
    fn matched_notification_orders_the_read() {
        let mut d = RaceDetector::new(2);
        d.put(0, 1, 0, (0, 64), 0, (0, 64), Some(7), "put[tag 7]");
        d.matched(1, 0, 0, 7);
        assert!(d.local_access(1, 0, 0, 64, false, "win_at").is_none());
        assert!(d.reports().is_empty());
    }

    #[test]
    fn detection_is_order_insensitive() {
        // Recording the read before the put effect reports the same
        // normalized pair as the other interleaving.
        let mut a = RaceDetector::new(2);
        let r1 = put_read_race(&mut a).unwrap();
        let mut b = RaceDetector::new(2);
        b.local_access(1, 0, 0, 64, false, "win_at");
        let r2 = b
            .put(0, 1, 0, (0, 64), 0, (0, 64), Some(7), "put[tag 7]")
            .expect("race expected");
        assert_eq!(r1, r2);
    }

    #[test]
    fn disjoint_ranges_do_not_race() {
        let mut d = RaceDetector::new(2);
        d.put(0, 1, 0, (0, 32), 0, (0, 32), Some(1), "put[tag 1]");
        assert!(d.local_access(1, 0, 32, 64, false, "win_at").is_none());
    }

    #[test]
    fn partial_overlap_reports_the_overlap_only() {
        let mut d = RaceDetector::new(2);
        d.put(0, 1, 0, (0, 48), 0, (0, 48), None, "put");
        let race = d
            .local_access(1, 0, 32, 64, true, "win_mut_at")
            .expect("race expected");
        assert_eq!((race.start, race.end), (32, 48));
    }

    #[test]
    fn concurrent_puts_race_and_chained_puts_do_not() {
        let mut d = RaceDetector::new(3);
        d.put(0, 2, 0, (0, 16), 0, (0, 16), Some(1), "put[tag 1]");
        let race = d
            .put(1, 2, 0, (0, 16), 0, (0, 16), Some(2), "put[tag 2]")
            .expect("write-write race expected");
        assert_eq!(race.first.kind, AccessKind::RemoteWrite);
        assert_eq!(race.second.kind, AccessKind::RemoteWrite);

        // Chained: 0 puts to 2, *flushes* (so it knows the effect landed),
        // then notifies 1; 1 waits, then puts to 2. Without the flush the
        // two effects travel on independent channels and stay unordered.
        let mut d = RaceDetector::new(3);
        d.put(0, 2, 0, (0, 16), 0, (0, 16), Some(1), "put[tag 1]");
        d.flushed(0);
        d.put(0, 1, 0, (16, 32), 0, (16, 32), Some(9), "put[tag 9]");
        d.matched(1, 0, 0, 9);
        assert!(d
            .put(1, 2, 0, (0, 16), 0, (0, 16), Some(2), "put[tag 2]")
            .is_none());
    }

    #[test]
    fn same_channel_puts_are_fifo_ordered() {
        let mut d = RaceDetector::new(2);
        assert!(d.put(0, 1, 0, (0, 16), 0, (0, 16), None, "put a").is_none());
        assert!(d.put(0, 1, 0, (0, 16), 0, (0, 16), None, "put b").is_none());
        assert!(d.reports().is_empty());
    }

    #[test]
    fn flush_then_barrier_orders_unnotified_puts() {
        let mut d = RaceDetector::new(2);
        d.put(0, 1, 0, (0, 16), 0, (0, 16), None, "put");
        d.flushed(0);
        d.barrier();
        assert!(d.local_access(1, 0, 0, 16, false, "win_at").is_none());

        // Without the flush, the barrier alone does not order the effect.
        let mut d = RaceDetector::new(2);
        d.put(0, 1, 0, (0, 16), 0, (0, 16), None, "put");
        d.barrier();
        assert!(d.local_access(1, 0, 0, 16, false, "win_at").is_some());
    }

    #[test]
    fn origin_knowledge_does_not_leak_through_third_parties() {
        // 0 puts to 1 (in flight), then tells 2; 2 tells 1. Rank 1 still
        // must not read: the 0->1 channel has no matched notification.
        let mut d = RaceDetector::new(3);
        d.put(0, 1, 0, (0, 16), 0, (0, 16), Some(1), "put[tag 1]");
        d.put(0, 2, 0, (16, 32), 0, (16, 32), Some(2), "put[tag 2]");
        d.matched(2, 0, 0, 2);
        d.put(2, 1, 0, (16, 32), 0, (16, 32), Some(3), "put[tag 3]");
        d.matched(1, 2, 0, 3);
        assert!(d.local_access(1, 0, 0, 16, false, "win_at").is_some());
    }

    #[test]
    fn duplicate_pairs_dedup_to_one_report() {
        let mut d = RaceDetector::new(2);
        put_read_race(&mut d);
        // Same racy read again.
        d.local_access(1, 0, 0, 64, false, "win_at");
        assert_eq!(d.reports().len(), 1);
    }

    #[test]
    fn program_order_never_races() {
        let mut d = RaceDetector::new(1);
        assert!(d.local_access(0, 0, 0, 64, true, "win_mut").is_none());
        assert!(d.local_access(0, 0, 0, 64, false, "win").is_none());
        assert!(d.local_access(0, 0, 0, 64, true, "win_mut").is_none());
        assert!(d.reports().is_empty());
    }

    #[test]
    fn handle_round_trip() {
        assert!(RaceHandle::new(RaceMode::Off).is_none());
        let h = RaceHandle::new(RaceMode::Strict).expect("handle");
        assert!(h.strict());
        h.init(2);
        h.init(2); // idempotent
        let race = h.with(put_read_race);
        assert!(race.is_some());
        assert_eq!(h.snapshot().len(), 1);
        let h2 = h.clone();
        assert_eq!(h2.snapshot().len(), 1);
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(RaceMode::parse("off"), Some(RaceMode::Off));
        assert_eq!(RaceMode::parse("observe"), Some(RaceMode::Observe));
        assert_eq!(RaceMode::parse("strict"), Some(RaceMode::Strict));
        assert_eq!(RaceMode::parse("loud"), None);
    }
}
