//! The per-rank API and the one wait every rank program goes through.
//!
//! Every wait — `wait_notifications`, `flush`, and a collective's chunk
//! and synchronization waits — is one future, `Until`, which for a
//! collective also runs its schedule between the waits. User waits match
//! in the one notification matcher; a collective wait takes the next
//! message from its source's inbox, in arrival order. Both drivers poll it
//! the same way:
//!
//! * on a rank thread it spins through `RtCtx::wait_step` until satisfied,
//!   so it completes in the poll that reached it and the blocking calls
//!   block on it with a no-op waker, pinned on the stack;
//! * under the cooperative driver it never completes in the poll that
//!   reached it: that poll records the wait, wakes the driver and suspends,
//!   and each later sweep tests it once.
//!
//! During each `wait_step`, and while suspended, a rank that drives its
//! device engine lends its windows to it, and the engine may then land
//! large payloads in them itself (the `bank` module); the wait takes them
//! back before each test. It holds the context mutably, so no window slice
//! is alive then.
//!
//! xtask lint R6 (`one-wait-helper`) rejects any other `yield_now` in this
//! file, and R7 (`one-wait-future`) any other `Poll::Pending` in this
//! crate, so a wait is written once and cannot skip rank-driven progress.

use crate::bank::WindowBank;
use crate::cluster::engine_result;
use crate::coll::{CollStats, Collective, COLL_TAG_BIT};
use crate::host::SharedHost;
use crate::msg::{Cmd, Delivery};
use crate::types::{Rank, RtError, RtQuery, Tag, WindowId};
use dcuda_queues::{IndexedMatcher, Notification, Receiver, RecvError, Sender, TrySendError};
use dcuda_trace::{Tracer, Track};
use dcuda_verify::{RaceHandle, RaceReport, ShardCounters};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::pin::{pin, Pin};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

/// The device-side library handle of one rank (paper: the `dcuda_context`).
///
/// The blocking methods (`wait_notifications`, `flush`, `barrier` and the
/// [`CollCtx`](crate::CollCtx) collectives) block the calling rank thread,
/// exactly like the paper's device-side calls block the calling block. A
/// [`RankTask`](crate::RankTask) awaits their async forms
/// (`wait_notifications_async`, `flush_async`, `barrier_async`,
/// [`Collective::run`]) instead, and gets [`RtError::BlockingInTask`] from
/// the blocking ones. Every fallible entry point exists in two shapes: a
/// panicking convenience (`put_notify`, `win`) and a `try_` variant
/// returning [`RtError`] for callers that want to handle bad arguments or a
/// torn-down runtime themselves.
pub struct RtCtx {
    pub(crate) rank: u32,
    pub(crate) world: u32,
    pub(crate) device: u32,
    pub(crate) local: u32,
    pub(crate) ranks_per_device: u32,
    /// Window memory: the user-registered windows followed by one hidden
    /// collective-scratch window at index `user_windows`, which stays empty
    /// until [`touch_scratch`](Self::touch_scratch). Shared with the
    /// device engine when ranks drive it, which may land payloads in it
    /// while this rank waits; every access goes through
    /// [`windows`](Self::windows) and [`windows_mut`](Self::windows_mut).
    pub(crate) bank: Arc<WindowBank>,
    /// Number of user-visible windows (`windows().len() - 1`); indices at or
    /// beyond this are runtime-internal and hidden from the window API.
    pub(crate) user_windows: usize,
    /// Configured size of the scratch window (`RtConfig::coll_scratch`).
    pub(crate) scratch_bytes: usize,
    /// Command ring to the block manager.
    pub(crate) cmd: Sender<Cmd>,
    /// Delivery ring from the block manager.
    pub(crate) delivery: Receiver<Delivery>,
    /// Buffered notifications not yet matched.
    pub(crate) pending: IndexedMatcher,
    /// Collective-engine notifications (tag bit 31 set), queued per source
    /// in arrival order, out of reach of every user query. Per-(origin,
    /// target) FIFO delivery plus the SPMD collective call order pair each
    /// collective wait with the next message from its source.
    pub(crate) coll_inbox: HashMap<u32, VecDeque<Notification>>,
    /// Deterministic collective-engine statistics (reported per cluster).
    pub(crate) coll: CollStats,
    /// Operations issued (flush ids are sequential from 1).
    pub(crate) flush_sent: u64,
    /// Highest prefix-complete flush id, published by the host.
    pub(crate) flush_done: Arc<AtomicU64>,
    /// Barriers this rank has entered.
    pub(crate) barriers_entered: u64,
    /// Notifications matched (stat).
    pub(crate) matched: u64,
    /// Per-rank trace recorder (disabled unless the cluster runs traced).
    pub(crate) tracer: Tracer,
    /// Logical clock for trace timestamps: the threaded runtime has no
    /// simulated time, so spans are stamped with per-rank event sequence
    /// numbers (one tick per API call or poll iteration). Deterministic per
    /// rank; only ordering within a rank's track is meaningful.
    pub(crate) clock: u64,
    /// First-failure abort flag: set when any rank or host thread fails;
    /// blocking loops observe it and return [`RtError::Aborted`] so the
    /// cluster join completes instead of hanging.
    pub(crate) abort: Arc<AtomicBool>,
    /// This rank's device engine, which [`wait_step`](Self::wait_step)
    /// drives instead of only yielding (`Some` only in a whole world on the
    /// in-process plane under [`ProgressMode::Inline`]).
    ///
    /// [`ProgressMode::Inline`]: crate::ProgressMode::Inline
    pub(crate) engine: Option<SharedHost>,
    /// The cluster's first-failure slot: an engine error met in a
    /// rank-driven pass is recorded here as the device's host failure.
    pub(crate) first_error: Arc<Mutex<Option<RtError>>>,
    /// This rank runs as a task under the cooperative driver: every
    /// blocking method fails with [`RtError::BlockingInTask`], and a wait
    /// suspends instead of spinning.
    pub(crate) cooperative: bool,
    /// What this rank's task is suspended on (cooperative driver only), so
    /// a stall can name it.
    pub(crate) waiting: Option<Wait>,
    /// Invariant-counter shard (verified runs only; `None` keeps the
    /// unverified hot path free of bookkeeping).
    pub(crate) counters: Option<Box<ShardCounters>>,
    /// Last observed flush frontier (sequence-monotonicity check).
    pub(crate) last_flush_seen: u64,
    /// Shared happens-before race detector (`None` keeps every window
    /// accessor and put free of bookkeeping, like `counters`).
    pub(crate) races: Option<RaceHandle>,
}

impl RtCtx {
    /// World-communicator rank (`dcuda_comm_rank(DCUDA_COMM_WORLD)`).
    pub fn rank(&self) -> Rank {
        Rank(self.rank)
    }

    /// World-communicator size.
    pub fn world_size(&self) -> u32 {
        self.world
    }

    /// Device-communicator rank.
    pub fn device_rank(&self) -> u32 {
        self.local
    }

    /// Device-communicator size.
    pub fn device_size(&self) -> u32 {
        self.ranks_per_device
    }

    /// The device this rank runs on.
    pub fn device(&self) -> u32 {
        self.device
    }

    /// Advance the per-rank logical clock by one tick.
    #[inline]
    pub(crate) fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    // --- Race-detector hooks -------------------------------------------
    //
    // Every window access flows through this file, so these four helpers
    // are the entire instrumented seam. All are a single `is_none` test
    // when detection is off.

    /// Strict-mode verdict for a freshly completed racy pair.
    fn race_verdict(strict: bool, found: Option<RaceReport>) -> Result<(), RtError> {
        match found {
            Some(r) if strict => Err(RtError::Race(Box::new(r))),
            _ => Ok(()),
        }
    }

    /// Record a local window access from a shared-borrow accessor (no trace
    /// instant: stamping one needs `&mut self`).
    fn race_local_ref(
        &self,
        win: u32,
        start: usize,
        end: usize,
        write: bool,
        label: &str,
    ) -> Result<(), RtError> {
        let Some(h) = &self.races else {
            return Ok(());
        };
        let found = h.with(|d| d.local_access(self.rank, win, start, end, write, label));
        Self::race_verdict(h.strict(), found)
    }

    /// Record a local window access and stamp a trace instant on a race.
    fn race_local_mut(
        &mut self,
        win: u32,
        start: usize,
        end: usize,
        write: bool,
        label: &str,
    ) -> Result<(), RtError> {
        let Some(h) = self.races.clone() else {
            return Ok(());
        };
        let found = h.with(|d| d.local_access(self.rank, win, start, end, write, label));
        if let Some(r) = &found {
            self.race_instant(r);
        }
        Self::race_verdict(h.strict(), found)
    }

    /// Record a put (source read at the origin, asynchronous write effect
    /// at the target) and stamp a trace instant on a race. Must run before
    /// the `Cmd::Put` is sent so the notification's clock snapshot exists
    /// before the target can match it.
    #[allow(clippy::too_many_arguments)]
    fn race_put(
        &mut self,
        dst: u32,
        src_win: u32,
        src_off: usize,
        dst_win: u32,
        dst_off: usize,
        len: usize,
        notify_tag: Option<u32>,
        label: impl FnOnce() -> String,
    ) -> Result<(), RtError> {
        let Some(h) = self.races.clone() else {
            return Ok(());
        };
        let label = &label();
        let found = h.with(|d| {
            d.put(
                self.rank,
                dst,
                src_win,
                (src_off, src_off + len),
                dst_win,
                (dst_off, dst_off + len),
                notify_tag,
                label,
            )
        });
        if let Some(r) = &found {
            self.race_instant(r);
        }
        Self::race_verdict(h.strict(), found)
    }

    /// Join the origin's notification-borne clock for a matched entry.
    fn race_matched(races: &Option<RaceHandle>, rank: u32, n: &Notification) {
        if let Some(h) = races {
            h.with(|d| d.matched(rank, n.source, n.win, n.tag));
        }
    }

    /// Stamp a Perfetto instant for a freshly detected race.
    fn race_instant(&mut self, r: &RaceReport) {
        if self.tracer.is_enabled() {
            let ts = self.tick();
            self.tracer.instant(
                Track::Rank(self.rank),
                "race",
                ts,
                vec![
                    ("win", u64::from(r.win).into()),
                    ("owner", u64::from(r.owner).into()),
                    ("start", (r.start as u64).into()),
                    ("end", (r.end as u64).into()),
                ],
            );
        }
    }

    /// The window vector, owned by this rank outside its waits.
    #[inline]
    fn windows(&self) -> &Vec<Vec<u8>> {
        self.bank.rank_windows()
    }

    /// The window vector, mutable; the `&mut self` makes the borrow unique.
    #[inline]
    fn windows_mut(&mut self) -> &mut Vec<Vec<u8>> {
        self.bank.rank_windows_mut()
    }

    /// This rank's window memory.
    ///
    /// # Panics
    /// Panics if `win` is not a registered window; use
    /// [`try_win`](Self::try_win) to handle that as a value.
    pub fn win(&self, win: WindowId) -> &[u8] {
        self.try_win(win)
            .unwrap_or_else(|e| panic!("rank {}: {e}", self.rank))
    }

    /// This rank's window memory, mutable.
    ///
    /// # Panics
    /// Panics if `win` is not a registered window; use
    /// [`try_win_mut`](Self::try_win_mut) to handle that as a value.
    pub fn win_mut(&mut self, win: WindowId) -> &mut [u8] {
        let rank = self.rank;
        self.try_win_mut(win)
            .unwrap_or_else(|e| panic!("rank {rank}: {e}"))
    }

    /// Validate a user window id without touching the race detector.
    pub(crate) fn user_win_index(&self, win: WindowId) -> Result<usize, RtError> {
        if win.index() >= self.user_windows {
            return Err(RtError::NoSuchWindow {
                win,
                count: self.user_windows,
            });
        }
        Ok(win.index())
    }

    /// Validate a byte range of a user window without touching the race
    /// detector.
    pub(crate) fn user_win_range(
        &self,
        win: WindowId,
        off: usize,
        len: usize,
    ) -> Result<usize, RtError> {
        let idx = self.user_win_index(win)?;
        let window_len = self.windows()[idx].len();
        if off.checked_add(len).is_none_or(|end| end > window_len) {
            return Err(RtError::RangeOutOfBounds {
                win,
                offset: off,
                len,
                window_len,
            });
        }
        Ok(idx)
    }

    /// This rank's window memory, or [`RtError::NoSuchWindow`]. The hidden
    /// collective-scratch window does not exist as far as this API is
    /// concerned.
    ///
    /// Race detection treats a whole-window borrow as a read of every byte;
    /// programs sharing one window between concurrently-written regions
    /// should borrow precise ranges via [`try_win_at`](Self::try_win_at).
    pub fn try_win(&self, win: WindowId) -> Result<&[u8], RtError> {
        let idx = self.user_win_index(win)?;
        self.race_local_ref(win.0, 0, self.windows()[idx].len(), false, "win")?;
        Ok(self.windows()[idx].as_slice())
    }

    /// This rank's window memory, mutable, or [`RtError::NoSuchWindow`].
    ///
    /// Race detection treats a whole-window borrow as a write of every
    /// byte; use [`try_win_mut_at`](Self::try_win_mut_at) to scope the
    /// access when remote puts land in other regions of the same window.
    pub fn try_win_mut(&mut self, win: WindowId) -> Result<&mut [u8], RtError> {
        let idx = self.user_win_index(win)?;
        let len = self.windows()[idx].len();
        self.race_local_mut(win.0, 0, len, true, "win_mut")?;
        Ok(self.windows_mut()[idx].as_mut_slice())
    }

    /// Bytes `off..off + len` of this rank's window `win`.
    ///
    /// # Panics
    /// Panics if the window does not exist or the range exceeds it; use
    /// [`try_win_at`](Self::try_win_at) to handle those as values.
    pub fn win_at(&self, win: WindowId, off: usize, len: usize) -> &[u8] {
        self.try_win_at(win, off, len)
            .unwrap_or_else(|e| panic!("rank {}: win_at: {e}", self.rank))
    }

    /// Bytes `off..off + len` of this rank's window `win`, mutable.
    ///
    /// # Panics
    /// Panics if the window does not exist or the range exceeds it; use
    /// [`try_win_mut_at`](Self::try_win_mut_at) to handle those as values.
    pub fn win_mut_at(&mut self, win: WindowId, off: usize, len: usize) -> &mut [u8] {
        let rank = self.rank;
        self.try_win_mut_at(win, off, len)
            .unwrap_or_else(|e| panic!("rank {rank}: win_mut_at: {e}"))
    }

    /// Fallible [`win_at`](Self::win_at): a range-scoped window borrow that
    /// the race detector records as a read of exactly those bytes.
    pub fn try_win_at(&self, win: WindowId, off: usize, len: usize) -> Result<&[u8], RtError> {
        let idx = self.user_win_range(win, off, len)?;
        self.race_local_ref(win.0, off, off + len, false, "win_at")?;
        Ok(&self.windows()[idx][off..off + len])
    }

    /// Fallible [`win_mut_at`](Self::win_mut_at): a range-scoped mutable
    /// borrow that the race detector records as a write of exactly those
    /// bytes.
    pub fn try_win_mut_at(
        &mut self,
        win: WindowId,
        off: usize,
        len: usize,
    ) -> Result<&mut [u8], RtError> {
        let idx = self.user_win_range(win, off, len)?;
        self.race_local_mut(win.0, off, off + len, true, "win_mut_at")?;
        Ok(&mut self.windows_mut()[idx][off..off + len])
    }

    /// Has the cluster aborted (another thread failed first)?
    #[inline]
    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// Refuse blocking method `call` inside a rank task: it would spin on
    /// the thread that drives every rank of the world.
    #[inline]
    pub(crate) fn blocking(&self, call: &'static str) -> Result<(), RtError> {
        if self.cooperative {
            return Err(RtError::BlockingInTask { call });
        }
        Ok(())
    }

    /// One turn of every wait loop in this file (xtask lint R6 keeps
    /// `yield_now` here alone). With a device engine, run one pass of it
    /// if no other thread owns it; a pass that routed new work returns at
    /// once so the caller polls again. Yield when the engine was owned
    /// elsewhere or had no work but refilling rings from their backlog
    /// (the rank those deliveries are for must run). An engine failure is
    /// the device's, never this rank's: it is recorded as the host failure
    /// and the rank unwinds with [`RtError::Aborted`].
    ///
    /// The windows are lent to the engine for the step, which may land
    /// payloads in them; they are the rank's again when it returns.
    fn wait_step(&mut self) -> Result<(), RtError> {
        let Some(engine) = &self.engine else {
            std::thread::yield_now();
            return Ok(());
        };
        self.bank.lend();
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| engine.rank_pass()));
        let step = match engine_result(self.device, res, &self.abort, &self.first_error) {
            Some(pass) if pass.work => Ok(()),
            Some(_) => {
                std::thread::yield_now();
                Ok(())
            }
            None => Err(RtError::Aborted),
        };
        self.bank.reclaim();
        step
    }

    fn send_cmd(&mut self, mut cmd: Cmd) -> Result<(), RtError> {
        loop {
            match self.cmd.try_send(cmd) {
                Ok(()) => {
                    if let Some(c) = self.counters.as_mut() {
                        c.note_in_flight(
                            self.cmd.in_flight_upper_bound(),
                            self.cmd.capacity() as u64,
                        );
                    }
                    return Ok(());
                }
                Err(TrySendError::Full(c)) => {
                    if self.aborted() {
                        return Err(RtError::Aborted);
                    }
                    cmd = c;
                    self.wait_step()?;
                }
                Err(TrySendError::Disconnected(_)) => {
                    return Err(RtError::Disconnected {
                        link: "command ring",
                    })
                }
            }
        }
    }

    /// `dcuda_put_notify`: copy window bytes to the target rank and enqueue
    /// a notification there.
    ///
    /// # Panics
    /// Panics on any [`RtError`] — unknown window, destination outside the
    /// world, source range beyond the window. Use
    /// [`try_put_notify`](Self::try_put_notify) to handle those as values.
    pub fn put_notify(
        &mut self,
        win: WindowId,
        dst: Rank,
        dst_off: usize,
        src_off: usize,
        len: usize,
        tag: Tag,
    ) {
        let rank = self.rank;
        self.try_put_notify(win, dst, dst_off, src_off, len, tag)
            .unwrap_or_else(|e| panic!("rank {rank}: put_notify: {e}"));
    }

    /// `dcuda_put`: as [`put_notify`](Self::put_notify) without the target
    /// notification (completion observable through [`flush`](Self::flush)).
    ///
    /// # Panics
    /// Panics on any [`RtError`]; use [`try_put`](Self::try_put) instead to
    /// handle errors.
    pub fn put(&mut self, win: WindowId, dst: Rank, dst_off: usize, src_off: usize, len: usize) {
        let rank = self.rank;
        self.try_put(win, dst, dst_off, src_off, len)
            .unwrap_or_else(|e| panic!("rank {rank}: put: {e}"));
    }

    /// Fallible [`put_notify`](Self::put_notify).
    pub fn try_put_notify(
        &mut self,
        win: WindowId,
        dst: Rank,
        dst_off: usize,
        src_off: usize,
        len: usize,
        tag: Tag,
    ) -> Result<(), RtError> {
        self.put_inner(win, dst, dst_off, src_off, len, tag, true)
    }

    /// Fallible [`put`](Self::put).
    pub fn try_put(
        &mut self,
        win: WindowId,
        dst: Rank,
        dst_off: usize,
        src_off: usize,
        len: usize,
    ) -> Result<(), RtError> {
        self.put_inner(win, dst, dst_off, src_off, len, Tag(0), false)
    }

    #[allow(clippy::too_many_arguments)]
    fn put_inner(
        &mut self,
        win: WindowId,
        dst: Rank,
        dst_off: usize,
        src_off: usize,
        len: usize,
        tag: Tag,
        notify: bool,
    ) -> Result<(), RtError> {
        if dst == Rank::ANY {
            return Err(RtError::WildcardNotAllowed { position: "dst" });
        }
        if dst.0 >= self.world {
            return Err(RtError::RankOutOfRange {
                rank: dst,
                world: self.world,
            });
        }
        if notify && tag.0 & COLL_TAG_BIT != 0 {
            return Err(RtError::ReservedTag { tag });
        }
        let idx = self.user_win_range(win, src_off, len)?;
        // Windows have the same layout on every rank, so a destination range
        // that does not fit here does not fit at the target either: fail at
        // the origin, which issued the bad put, instead of in the target's
        // delivery drain.
        self.user_win_range(win, dst_off, len)?;
        let data = self.windows()[idx][src_off..src_off + len].to_vec();
        // The snapshot's clock must be stashed before the command leaves,
        // or the target could match the notification first.
        self.race_put(
            dst.0,
            win.0,
            src_off,
            win.0,
            dst_off,
            len,
            notify.then_some(tag.0),
            || {
                if notify {
                    format!("put_notify[{tag}]")
                } else {
                    "put".to_string()
                }
            },
        )?;
        self.flush_sent += 1;
        let flush_id = self.flush_sent;
        if notify {
            if let Some(c) = self.counters.as_mut() {
                c.note_sent(
                    dst.0,
                    Notification {
                        win: win.0,
                        source: self.rank,
                        tag: tag.0,
                    },
                );
            }
        }
        if self.tracer.is_enabled() {
            let ts = self.tick();
            self.tracer.instant(
                Track::Rank(self.rank),
                if notify { "put_notify" } else { "put" },
                ts,
                vec![
                    ("win", u64::from(win.0).into()),
                    ("dst", u64::from(dst.0).into()),
                    ("len", (len as u64).into()),
                    ("tag", u64::from(tag.0).into()),
                ],
            );
        }
        self.send_cmd(Cmd::Put {
            dst: dst.0,
            win: win.0,
            dst_off,
            data,
            tag: tag.0,
            notify,
            flush_id,
        })
    }

    /// Drain the delivery ring: copy the payloads the engine did not land
    /// itself into window memory, and buffer notifications.
    fn drain_deliveries(&mut self) -> Result<(), RtError> {
        loop {
            match self.delivery.try_recv() {
                Ok(d) => {
                    let win = WindowId(d.notif.win);
                    if win.index() == self.user_windows && !d.data.is_empty() {
                        // A peer's chunk may land before this rank's first
                        // collective touched its scratch.
                        self.touch_scratch();
                    }
                    let count = self.windows().len();
                    let w = self
                        .windows_mut()
                        .get_mut(win.index())
                        .ok_or(RtError::NoSuchWindow { win, count })?;
                    // `dst_off` may come off the wire: no unchecked sum.
                    let window_len = w.len();
                    let dst = d
                        .dst_off
                        .checked_add(d.data.len())
                        .and_then(|end| w.get_mut(d.dst_off..end))
                        .ok_or(RtError::RangeOutOfBounds {
                            win,
                            offset: d.dst_off,
                            len: d.data.len(),
                            window_len,
                        })?;
                    dst.copy_from_slice(&d.data);
                    if d.notify {
                        if d.notif.tag & COLL_TAG_BIT != 0 {
                            let inbox = self.coll_inbox.entry(d.notif.source).or_default();
                            inbox.push_back(d.notif);
                        } else {
                            self.pending.insert(d.notif);
                        }
                    }
                }
                Err(RecvError::Empty) => return Ok(()),
                Err(RecvError::Disconnected) => {
                    return Err(RtError::Disconnected {
                        link: "delivery ring",
                    })
                }
            }
        }
    }

    /// `dcuda_test_notifications`: non-blocking match attempt.
    ///
    /// # Panics
    /// Panics if the runtime tore down mid-run or a delivery is malformed;
    /// use [`try_test_notifications`](Self::try_test_notifications) instead
    /// to handle errors.
    pub fn test_notifications(&mut self, query: RtQuery, count: usize) -> bool {
        let rank = self.rank;
        self.try_test_notifications(query, count)
            .unwrap_or_else(|e| panic!("rank {rank}: test_notifications: {e}"))
    }

    /// Fallible [`test_notifications`](Self::test_notifications).
    pub fn try_test_notifications(
        &mut self,
        query: RtQuery,
        count: usize,
    ) -> Result<bool, RtError> {
        self.drain_deliveries()?;
        let (rank, counters, races) = (self.rank, &mut self.counters, &self.races);
        let hit = self.pending.try_match_with(query.raw(), count, |n| {
            if let Some(c) = counters.as_mut() {
                c.note_matched(rank, *n, 1);
            }
            Self::race_matched(races, rank, n);
        });
        if hit.is_some() {
            self.matched += count as u64;
        }
        Ok(hit.is_some())
    }

    /// `dcuda_wait_notifications`: block until `count` notifications
    /// matching `query` have been matched (in arrival order, with
    /// compaction).
    ///
    /// # Panics
    /// Panics if the runtime tore down mid-run; use
    /// [`try_wait_notifications`](Self::try_wait_notifications) instead.
    pub fn wait_notifications(&mut self, query: RtQuery, count: usize) {
        let rank = self.rank;
        self.try_wait_notifications(query, count)
            .unwrap_or_else(|e| panic!("rank {rank}: wait_notifications: {e}"));
    }

    /// Fallible [`wait_notifications`](Self::wait_notifications).
    pub fn try_wait_notifications(&mut self, query: RtQuery, count: usize) -> Result<(), RtError> {
        self.blocking("wait_notifications")?;
        block_on(self.wait_notifications_async(query, count))
    }

    /// [`wait_notifications`](Self::wait_notifications) as a suspension
    /// point of a rank task.
    pub fn wait_notifications_async(&mut self, query: RtQuery, count: usize) -> Until<'_> {
        self.until(Some(Wait::Notifications { query, count }), None)
    }

    /// `dcuda_win_flush`: block until every operation this rank issued has
    /// been processed end-to-end.
    ///
    /// # Panics
    /// Panics if the runtime tore down mid-run; use
    /// [`try_flush`](Self::try_flush) instead.
    pub fn flush(&mut self) {
        let rank = self.rank;
        self.try_flush()
            .unwrap_or_else(|e| panic!("rank {rank}: flush: {e}"));
    }

    /// Fallible [`flush`](Self::flush).
    pub fn try_flush(&mut self) -> Result<(), RtError> {
        self.blocking("flush")?;
        block_on(self.flush_async())
    }

    /// [`flush`](Self::flush) as a suspension point of a rank task.
    pub fn flush_async(&mut self) -> Until<'_> {
        self.until(Some(Wait::Flush), None)
    }

    /// `dcuda_barrier(DCUDA_COMM_WORLD)`: block in the world barrier.
    ///
    /// # Panics
    /// Panics if the runtime tore down mid-run; use
    /// [`try_barrier`](Self::try_barrier) instead.
    pub fn barrier(&mut self) {
        let rank = self.rank;
        self.try_barrier()
            .unwrap_or_else(|e| panic!("rank {rank}: barrier: {e}"));
    }

    /// Fallible [`barrier`](Self::barrier). Implemented as a dissemination
    /// barrier on the collective engine (`ceil(log2(world))` rounds of
    /// zero-length notified puts) — no host-side barrier state exists.
    pub fn try_barrier(&mut self) -> Result<(), RtError> {
        self.blocking("barrier")?;
        block_on(self.barrier_async())
    }

    /// [`barrier`](Self::barrier) as a suspension point of a rank task.
    pub async fn barrier_async(&mut self) -> Result<(), RtError> {
        let start = self.tick();
        Collective::barrier(self).run(self).await?;
        let end = self.tick();
        self.tracer
            .span(Track::Rank(self.rank), "barrier", start, end, vec![]);
        Ok(())
    }

    pub(crate) fn until(&mut self, what: Option<Wait>, coll: Option<Collective>) -> Until<'_> {
        Until {
            ctx: self,
            what,
            coll,
            start: None,
        }
    }

    /// Has `what` happened? Tests consume what they match, and drain the
    /// delivery ring unless a flush is already complete.
    pub(crate) fn test(&mut self, what: Wait) -> Result<bool, RtError> {
        match what {
            Wait::Notifications { query, count } => self.try_test_notifications(query, count),
            Wait::Flush if self.flush_complete() => Ok(true),
            Wait::Flush => self.drain_deliveries().map(|()| false),
            Wait::Coll { source } => {
                self.drain_deliveries()?;
                let popped = self
                    .coll_inbox
                    .get_mut(&source)
                    .and_then(VecDeque::pop_front);
                if let Some(n) = &popped {
                    Self::race_matched(&self.races, self.rank, n);
                }
                Ok(popped.is_some())
            }
        }
    }

    pub(crate) fn finish(&mut self) -> Result<(), RtError> {
        self.send_cmd(Cmd::Finish)
    }

    /// Has every operation this rank issued completed? On `true` the race
    /// detector folds them back into this rank's clock.
    fn flush_complete(&mut self) -> bool {
        let done = self.flush_done.load(Ordering::Acquire);
        if self.counters.is_some() {
            let prev = self.last_flush_seen;
            if let Some(c) = self.counters.as_mut() {
                c.note_consumed(prev, done);
            }
            self.last_flush_seen = self.last_flush_seen.max(done);
        }
        if done < self.flush_sent {
            return false;
        }
        if let Some(h) = &self.races {
            // Every effect this rank issued has landed: its channel
            // sequences fold back into its clock ("send buffers reusable"
            // implies remote completion on this runtime).
            h.with(|d| d.flushed(self.rank));
        }
        true
    }

    // --- Collective-engine plumbing (crate-internal) --------------------

    /// Index of the hidden scratch window in `windows`.
    #[inline]
    pub(crate) fn scratch_index(&self) -> usize {
        self.user_windows
    }

    /// Byte length of the hidden scratch window, allocated or not.
    #[inline]
    pub(crate) fn scratch_len(&self) -> usize {
        self.scratch_bytes
    }

    /// Allocate the hidden scratch window, zeroed at its configured size,
    /// unless it already is. Called before any byte of it is written or
    /// read; zero-length puts (barrier rounds) never need it.
    pub(crate) fn touch_scratch(&mut self) {
        let (idx, bytes) = (self.user_windows, self.scratch_bytes);
        let scratch = &mut self.windows_mut()[idx];
        if scratch.is_empty() {
            *scratch = vec![0u8; bytes];
        }
    }

    /// Reduce-accumulate `len` bytes of the hidden scratch window (at
    /// `scratch_off`) into `win[dst..dst + len]` via `f(acc, src)`. The one
    /// place the collective engine touches window bytes directly, routed
    /// through here so window indexing stays confined to this module and
    /// the race detector sees both sides: the scratch read and the
    /// user-window write.
    pub(crate) fn reduce_scratch_into(
        &mut self,
        win: WindowId,
        dst: usize,
        scratch_off: usize,
        len: usize,
        f: impl FnOnce(&mut [u8], &[u8]) -> Result<(), RtError>,
    ) -> Result<(), RtError> {
        let idx = self.user_win_range(win, dst, len)?;
        let scratch_idx = self.scratch_index();
        debug_assert!(scratch_off + len <= self.scratch_len());
        self.touch_scratch();
        self.race_local_ref(
            scratch_idx as u32,
            scratch_off,
            scratch_off + len,
            false,
            "reduce (scratch)",
        )?;
        self.race_local_mut(win.0, dst, dst + len, true, "reduce")?;
        // Scratch sits behind the user windows in the same vector; split at
        // the user-window boundary so both slices can be borrowed at once.
        let (user, rest) = self.windows_mut().split_at_mut(scratch_idx);
        let acc = &mut user[idx][dst..dst + len];
        let src = &rest[0][scratch_off..scratch_off + len];
        f(acc, src)
    }

    /// Collective-engine put: window-to-window by raw index (so it can
    /// address the hidden scratch window on either side), always notified
    /// with the plain [`COLL_TAG_BIT`] tag. Participates in flush
    /// completion but is invisible to the user-facing put/notification
    /// counters, the invariant ledger and the trace instant stream;
    /// accounted in [`CollStats`] instead.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn put_internal(
        &mut self,
        src_win: usize,
        src_off: usize,
        len: usize,
        dst: u32,
        dst_win: usize,
        dst_off: usize,
    ) -> Result<(), RtError> {
        if src_win == self.scratch_index() && len > 0 {
            self.touch_scratch();
        }
        let data = self.windows()[src_win][src_off..src_off + len].to_vec();
        self.race_put(
            dst,
            src_win as u32,
            src_off,
            dst_win as u32,
            dst_off,
            len,
            Some(COLL_TAG_BIT),
            || "coll".to_string(),
        )?;
        self.flush_sent += 1;
        let flush_id = self.flush_sent;
        self.coll.puts += 1;
        self.coll.bytes += len as u64;
        self.send_cmd(Cmd::Put {
            dst,
            win: dst_win as u32,
            dst_off,
            data,
            tag: COLL_TAG_BIT,
            notify: true,
            flush_id,
        })
    }
}

/// What a rank waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wait {
    /// `count` notifications matching `query` (`dcuda_wait_notifications`).
    Notifications { query: RtQuery, count: usize },
    /// Every operation this rank issued has completed (`dcuda_win_flush`).
    Flush,
    /// The next collective message from rank `source`.
    Coll { source: u32 },
}

impl fmt::Display for Wait {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Wait::Notifications { query, count } => write!(
                f,
                "{count} notification(s) matching {}, {}, {}",
                query.win, query.source, query.tag
            ),
            Wait::Flush => write!(f, "its flush"),
            Wait::Coll { source } => write!(f, "a collective message from rank {source}"),
        }
    }
}

/// The one wait future (see the module docs): a single wait, or every wait
/// of a collective, with the collective's schedule run between them.
pub struct Until<'c> {
    ctx: &'c mut RtCtx,
    /// The wait in progress (`None` while the collective runs).
    what: Option<Wait>,
    /// The collective whose waits these are.
    coll: Option<Collective>,
    /// Trace tick of the wait's first poll.
    start: Option<u64>,
}

impl Future for Until<'_> {
    type Output = Result<(), RtError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let ctx = &mut *this.ctx;
        loop {
            if let Some(what) = this.what {
                let first = this.start.is_none();
                let start = *this.start.get_or_insert_with(|| ctx.tick());
                if ctx.cooperative {
                    // One resume per task per sweep: the poll that reached
                    // the wait only reports that the task moved; later
                    // sweeps test it.
                    // A suspended task's windows are lent to the sweep's
                    // engine passes.
                    if first {
                        ctx.waiting = Some(what);
                        cx.waker().wake_by_ref();
                        ctx.bank.lend();
                        return Poll::Pending;
                    }
                    ctx.bank.reclaim();
                    if !ctx.test(what)? {
                        ctx.bank.lend();
                        return Poll::Pending;
                    }
                    ctx.waiting = None;
                } else {
                    while !ctx.test(what)? {
                        if ctx.aborted() {
                            return Poll::Ready(Err(RtError::Aborted));
                        }
                        ctx.tick();
                        ctx.wait_step()?;
                    }
                }
                (this.what, this.start) = (None, None);
                let span = match what {
                    Wait::Notifications { count, .. } => Some(("wait", "count", count as u64)),
                    Wait::Flush => Some(("flush", "ops", ctx.flush_sent)),
                    Wait::Coll { .. } => None,
                };
                // Only a traced run pays for the span's argument vector.
                if let Some((name, key, value)) = span.filter(|_| ctx.tracer.is_enabled()) {
                    let (end, args) = (ctx.tick(), vec![(key, value.into())]);
                    ctx.tracer
                        .span(Track::Rank(ctx.rank), name, start, end, args);
                }
            }
            let Some(coll) = this.coll.as_mut() else {
                return Poll::Ready(Ok(()));
            };
            match coll.poll(ctx)? {
                Some(wait) => this.what = Some(wait),
                None => return Poll::Ready(Ok(())),
            }
        }
    }
}

/// A task dropped while suspended (a cancelled or stalled job world) takes
/// its windows back: the context outlives the wait. (On a rank thread
/// `wait_step` takes them back itself.)
impl Drop for Until<'_> {
    fn drop(&mut self) {
        if self.ctx.cooperative {
            self.ctx.bank.reclaim();
        }
    }
}

/// Run `fut` on this rank thread. Off the cooperative driver every wait
/// completes in the poll that reached it, so one poll finishes it.
pub(crate) fn block_on<T>(fut: impl Future<Output = Result<T, RtError>>) -> Result<T, RtError> {
    let mut fut = pin!(fut);
    let mut cx = Context::from_waker(Waker::noop());
    loop {
        if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
            return out;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::programs::{Params, Program};
    use crate::{task, thread_per_rank, try_run_cluster, try_run_cluster_job, CancelToken};
    use crate::{RankTask, RtConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn barriers_and_puts_never_allocate_scratch() {
        // Ring: collective shifts between user windows, zero-length
        // release puts through the scratch window and a closing barrier;
        // pingpong: point-to-point notified puts.
        let cfg = RtConfig {
            devices: 2,
            ranks_per_device: 4,
            windows: vec![128],
            ..RtConfig::default()
        };
        let p = Params {
            seed: 3,
            iters: 9,
            payload: 64,
        };
        let allocated = Arc::new(AtomicUsize::new(0));
        // Every rank runs ring, then pingpong, then counts itself into
        // `allocated` if its hidden scratch window holds any memory.
        let tasks = || -> Vec<RankTask> {
            let programs = Program::Ring
                .tasks(p, 8)
                .into_iter()
                .zip(Program::PingPong.tasks(p, 8));
            programs
                .map(|(ring, pingpong)| {
                    let allocated = allocated.clone();
                    task(move |ctx| {
                        Box::pin(async move {
                            ring(&mut *ctx).await?;
                            pingpong(&mut *ctx).await?;
                            if ctx.windows()[ctx.scratch_index()].capacity() > 0 {
                                allocated.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(0)
                        })
                    })
                })
                .collect()
        };
        let (programs, _): (Vec<_>, Vec<_>) = thread_per_rank(tasks()).into_iter().unzip();
        let report = try_run_cluster(&cfg, programs).expect("threaded world");
        assert!(report.barriers > 0 && report.puts > 0, "{report:?}");
        try_run_cluster_job(&cfg, tasks(), &CancelToken::new()).expect("job world");
        assert_eq!(
            allocated.load(Ordering::Relaxed),
            0,
            "ranks that allocated scratch"
        );
    }

    #[test]
    fn a_wait_dropped_while_suspended_gives_the_windows_back() {
        use crate::{Rank, RtQuery, Tag, WindowId};
        use std::future::{poll_fn, Future};
        use std::pin::pin;
        use std::task::Poll;
        let cfg = RtConfig {
            devices: 1,
            ranks_per_device: 2,
            ..RtConfig::default()
        };
        // How many ranks still had their windows lent after the drop: an
        // engine could land in them while the rank writes.
        let lent = Arc::new(AtomicUsize::new(0));
        let probe = lent.clone();
        let query = RtQuery::exact(WindowId(0), Rank(1), Tag(1));
        let tasks: Vec<RankTask> = vec![
            task(move |ctx| {
                Box::pin(async move {
                    {
                        let mut wait = pin!(ctx.wait_notifications_async(query, 1));
                        poll_fn(|cx| {
                            assert!(wait.as_mut().poll(cx).is_pending(), "suspends first");
                            Poll::Ready(())
                        })
                        .await;
                    }
                    let landed = ctx.bank.try_land(0, 0, &[]);
                    probe.fetch_add(usize::from(landed), Ordering::Relaxed);
                    ctx.wait_notifications_async(query, 1).await?;
                    Ok(0)
                })
            }),
            task(|ctx| {
                Box::pin(async move {
                    ctx.try_put_notify(WindowId(0), Rank(0), 0, 0, 8, Tag(1))?;
                    ctx.flush_async().await?;
                    Ok(1)
                })
            }),
        ];
        try_run_cluster_job(&cfg, tasks, &CancelToken::new()).expect("job world");
        assert_eq!(lent.load(Ordering::Relaxed), 0);
    }
}
