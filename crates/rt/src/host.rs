//! The per-device host thread: event handler plus block managers
//! (paper Figure 4), executed by a single worker as in §III-A. The engine
//! is one state machine (`Host::pass`) behind one handle (`SharedHost`):
//! besides its host loop it may be driven, one pass at a time, by a
//! progress pool or by the device's waiting ranks.
//!
//! The host is written against the [`Transport`] trait only: the same
//! progress loop runs over the in-process shared-memory plane and over
//! `dcuda-net`'s multi-process socket mesh. World quiescence combines the
//! process-local `finished_global` counter with `Finished` announcements
//! received from remote processes, counted per origin device so that a peer
//! which finished and left is told from one that died; the final-drain
//! argument relies on every transport delivering per-connection FIFO, so a
//! host's `Deliver`s always precede its `Finished` broadcasts at the
//! receiver.
//!
//! Reliability is the transport's contract too (FIFO *and* exactly once,
//! which one TCP connection or one SPSC ring per peer pair provides): the
//! host is a plain protocol engine with one code path — an inter-host put
//! is one `plane.send`.

use crate::bank::{WindowBank, LAND_MIN};
use crate::coll::COLL_TAG_BIT;
use crate::msg::{Cmd, Delivery};
use crate::types::RtError;
use dcuda_net::{NetError, NetStats, Transport, WireMsg};
use dcuda_queues::{Notification, Receiver, Sender, TrySendError};
use dcuda_trace::Tracer;
use dcuda_verify::ShardCounters;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a finished host keeps reading for its peers' side of the
/// orderly close before it drops its endpoint anyway (a peer that hangs
/// after quiescence must not hang this process too).
const CLOSE_LINGER: Duration = Duration::from_secs(2);

/// Per-local-rank flush bookkeeping: completed ids become visible to the
/// rank only as a consecutive prefix ("the flush identifier of the last
/// processed remote memory access operation whose predecessors are done as
/// well", paper §III-B).
pub(crate) struct FlushHistory {
    frontier: u64,
    /// The highest id the rank has issued (every `Cmd::Put` carries the
    /// next one, from 1): an ack can only complete an id up to here.
    issued: u64,
    completed: BinaryHeap<std::cmp::Reverse<u64>>,
    publish: Arc<AtomicU64>,
}

impl FlushHistory {
    pub fn new(publish: Arc<AtomicU64>) -> Self {
        FlushHistory {
            frontier: 0,
            issued: 0,
            completed: BinaryHeap::new(),
            publish,
        }
    }

    /// Complete `id`. Ack ids arrive off the wire, and the transport
    /// delivers each message exactly once, so an id this rank never issued,
    /// or one already completed, is a broken or hostile peer: refused
    /// before it can sit in the heap forever.
    fn complete(&mut self, id: u64) -> Result<(), RtError> {
        if id <= self.frontier || id > self.issued || self.completed.iter().any(|r| r.0 == id) {
            return Err(RtError::Transport {
                detail: format!(
                    "Ack for flush id {id}, which is not outstanding (issued {}, frontier {})",
                    self.issued, self.frontier
                ),
            });
        }
        self.completed.push(std::cmp::Reverse(id));
        while let Some(&std::cmp::Reverse(top)) = self.completed.peek() {
            if top != self.frontier + 1 {
                break;
            }
            self.completed.pop();
            self.frontier += 1;
        }
        self.publish.store(self.frontier, Ordering::Release);
        Ok(())
    }
}

/// Everything a host thread returns on clean shutdown.
pub(crate) struct HostOutcome {
    /// User-level puts routed.
    pub puts: u64,
    /// User-level notifications handed to target ranks.
    pub notifications: u64,
    pub net: NetStats,
    pub net_trace: Tracer,
    pub counters: Option<Box<ShardCounters>>,
}

/// Everything one host thread owns.
pub(crate) struct Host {
    pub device: u32,
    pub devices: u32,
    pub ranks_per_device: u32,
    /// Command rings from local ranks.
    pub cmd_rx: Vec<Receiver<Cmd>>,
    /// Delivery rings to local ranks.
    pub delivery_tx: Vec<Sender<Delivery>>,
    /// Overflow buffers when a delivery ring is momentarily full.
    pub delivery_backlog: Vec<VecDeque<Delivery>>,
    /// Local ranks' window memory, when ranks drive this engine (empty
    /// otherwise): payloads of at least [`LAND_MIN`] bytes land in it
    /// directly while the target waits (see [`deliver_local`]).
    ///
    /// [`deliver_local`]: Self::deliver_local
    pub banks: Vec<Arc<WindowBank>>,
    /// Per local rank: its delivery ring's message count just after the
    /// last delivery that carried a payload. A landing waits until the rank
    /// has taken that one, or the rank's copy of it would land later.
    pub last_payload: Vec<u64>,
    /// This device's endpoint on the inter-host plane.
    pub plane: Box<dyn Transport>,
    /// Count of finished ranks in *this process*.
    pub finished_global: Arc<AtomicU32>,
    /// Ranks announced finished via the plane, per origin device (all
    /// zero at this process's own devices).
    pub finished_remote: Vec<u32>,
    /// Cluster-wide first-failure flag; the host bails out when set.
    pub abort: Arc<AtomicBool>,
    /// Flush bookkeeping per local rank.
    pub flush: Vec<FlushHistory>,
    /// Statistics.
    pub puts_routed: u64,
    pub notifications_sent: u64,
    /// Invariant-counter shard (verified runs only). The host accounts the
    /// fabric side of conservation: a notification counts as *delivered*
    /// when it enters the target rank's delivery ring and as *dropped* when
    /// it is still in the backlog at quiescence — so `delivered + dropped ==
    /// sent` holds exactly even for fire-and-forget puts the target never
    /// polls.
    pub counters: Option<Box<ShardCounters>>,
    /// Artificial per-pass host busyness: iterations of deterministic spin
    /// work burnt between progress passes, emulating a host loop occupied
    /// with application work (the busy-host benchmark's knob; `0` = none).
    pub busy_spin: u64,
    /// Transport messages drained by progress-pool workers instead of this
    /// host's own loop (folded into [`NetStats::progress_frames`]).
    pub progress_frames: u64,
    /// Passes in which a worker progressed this host while it was homed on
    /// a different worker (folded into [`NetStats::steals`]).
    pub steals: u64,
}

/// What one engine pass moved.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Pass {
    /// New work routed: commands, plane messages or deferred transport
    /// work. Threaded drivers act on this alone: a waiter whose pass only
    /// refilled another rank's ring still yields, which is what lets that
    /// rank run and drain it (counting backlog moves here cost the
    /// `fanin_backlog` benchmark 4–10 % in 10 of 10 pairs).
    pub work: bool,
    /// Deliveries moved out of a backlog into a rank's ring. The
    /// cooperative driver counts this too: it reads a sweep in which
    /// nothing moved as a fixed point.
    pub backlog: bool,
}

fn net_err(e: NetError) -> RtError {
    RtError::Transport {
        detail: e.to_string(),
    }
}

impl Host {
    fn local_of(&self, rank: u32) -> Option<u32> {
        let device = rank / self.ranks_per_device;
        (device == self.device).then(|| rank % self.ranks_per_device)
    }

    fn device_of(&self, rank: u32) -> u32 {
        rank / self.ranks_per_device
    }

    /// Try to push backlog + a new delivery into a rank's ring. Collective
    /// traffic (tag bit 31) is carried like any other delivery but is
    /// invisible to the user-facing notification counter.
    ///
    /// Landing in place: when ranks drive this engine, a payload of at
    /// least [`LAND_MIN`] bytes is copied straight into the target window
    /// if the target waits with its windows lent, nothing queued for it
    /// carries a payload (its backlog is empty and its ring was consumed
    /// past the last payload), and the range fits. The delivery then
    /// carries only the notification, so the rank copies nothing; landing
    /// order, notification order and every counter stay as if the rank
    /// had applied the payload.
    fn deliver_local(&mut self, local: u32, mut delivery: Delivery) {
        self.notifications_sent +=
            u64::from(delivery.notify && delivery.notif.tag & COLL_TAG_BIT == 0);
        let l = local as usize;
        if delivery.data.len() >= LAND_MIN
            && self.delivery_backlog[l].is_empty()
            && self.banks.get(l).is_some_and(|bank| {
                self.delivery_tx[l].consumed_at_least(self.last_payload[l])
                    && bank.try_land(
                        delivery.notif.win as usize,
                        delivery.dst_off,
                        &delivery.data,
                    )
            })
        {
            delivery.data = Vec::new();
        }
        self.delivery_backlog[l].push_back(delivery);
        self.pump_backlog(local);
    }

    /// Move what the rank's delivery ring has room for out of its backlog;
    /// `true` if anything left the backlog.
    fn pump_backlog(&mut self, local: u32) -> bool {
        let target = self.device * self.ranks_per_device + local;
        let mut moved = false;
        while let Some(d) = self.delivery_backlog[local as usize].pop_front() {
            let notify = d.notify;
            let notif = d.notif;
            let payload = !d.data.is_empty();
            match self.delivery_tx[local as usize].try_send(d) {
                Ok(()) => {
                    if payload {
                        self.last_payload[local as usize] = self.delivery_tx[local as usize].sent();
                    }
                    // Collective traffic stays out of the conservation
                    // ledger on both sides (its sends skip `note_sent` too).
                    if notify && notif.tag & COLL_TAG_BIT == 0 {
                        if let Some(c) = self.counters.as_mut() {
                            c.note_delivered(target, notif);
                        }
                    }
                }
                // A rank's context, and with it its ring, outlives the
                // world's engines under both drivers: what a finished rank
                // has no room for waits here and is booked as dropped at
                // quiescence (`try_finish`).
                Err(TrySendError::Full(d) | TrySendError::Disconnected(d)) => {
                    self.delivery_backlog[local as usize].push_front(d);
                    return moved;
                }
            }
            moved = true;
        }
        moved
    }

    fn handle_cmd(&mut self, local: u32, cmd: Cmd) -> Result<(), RtError> {
        match cmd {
            Cmd::Put {
                dst,
                win,
                dst_off,
                data,
                tag,
                notify,
                flush_id,
            } => {
                // Collective-engine puts (tag bit 31) route like user puts
                // but are accounted in `CollStats`, not here.
                self.puts_routed += u64::from(tag & COLL_TAG_BIT == 0);
                self.flush[local as usize].issued = flush_id;
                let rank = self.device * self.ranks_per_device + local;
                match self.local_of(dst) {
                    Some(dst_local) => {
                        // Device-local: deliver directly, flush completes
                        // immediately.
                        let delivery = Delivery {
                            notif: Notification {
                                win,
                                source: rank,
                                tag,
                            },
                            dst_off,
                            data,
                            notify,
                        };
                        self.deliver_local(dst_local, delivery);
                        self.flush[local as usize].complete(flush_id)?;
                    }
                    None => {
                        // Inter-host: one send. Ordering and exactly-once
                        // delivery are the transport's (`seq` is a spare
                        // wire slot, written as 0).
                        let peer = self.device_of(dst);
                        self.plane
                            .send(
                                peer,
                                WireMsg::Deliver {
                                    dst_local: dst % self.ranks_per_device,
                                    win,
                                    dst_off: dst_off as u64,
                                    source: rank,
                                    tag,
                                    notify,
                                    seq: 0,
                                    origin_device: self.device,
                                    origin_local: local,
                                    flush_id,
                                    data,
                                },
                            )
                            .map_err(net_err)?;
                    }
                }
            }
            Cmd::Finish => {
                // Every `Deliver` this rank caused was sent above, before the
                // finish becomes observable (counter increment locally,
                // `Finished` message remotely — FIFO per connection): the
                // quiescence drain in `try_finish` relies on that order.
                self.finished_global.fetch_add(1, Ordering::AcqRel);
                for d in self.plane.remote_devices() {
                    self.plane
                        .send(
                            d,
                            WireMsg::Finished {
                                device: self.device,
                                ranks: 1,
                            },
                        )
                        .map_err(net_err)?;
                }
            }
        }
        Ok(())
    }

    fn handle_peer(&mut self, msg: WireMsg) -> Result<(), RtError> {
        // Rank indices arrive off the wire: bound them before indexing.
        let local_rank = |what: &str, local: u32| {
            if local < self.ranks_per_device {
                return Ok(local);
            }
            Err(RtError::Transport {
                detail: format!(
                    "device {}: {what} names local rank {local} of {}",
                    self.device, self.ranks_per_device
                ),
            })
        };
        match msg {
            WireMsg::Deliver {
                dst_local,
                win,
                dst_off,
                source,
                tag,
                notify,
                seq: _,
                origin_device,
                origin_local,
                flush_id,
                data,
            } => {
                let delivery = Delivery {
                    notif: Notification { win, source, tag },
                    // An offset no window of this process can hold stays
                    // one: the target rank's drain refuses it by range.
                    dst_off: usize::try_from(dst_off).unwrap_or(usize::MAX),
                    data,
                    notify,
                };
                self.deliver_local(local_rank("Deliver", dst_local)?, delivery);
                self.plane
                    .send(
                        origin_device,
                        WireMsg::Ack {
                            origin_local,
                            flush_id,
                        },
                    )
                    .map_err(net_err)?;
            }
            WireMsg::Ack {
                origin_local,
                flush_id,
            } => {
                self.flush[local_rank("Ack", origin_local)? as usize].complete(flush_id)?;
            }
            WireMsg::Finished { device, ranks } => {
                // This process counts its own ranks in `finished_global`;
                // only another process's device announces over the plane.
                let remote = self.plane.remote_devices().contains(&device);
                let Some(announced) = self
                    .finished_remote
                    .get_mut(device as usize)
                    .filter(|_| remote)
                else {
                    return Err(RtError::Transport {
                        detail: format!(
                            "device {}: Finished names device {device}, not a device of \
                             another process in this {}-device world",
                            self.device, self.devices
                        ),
                    });
                };
                // Each device announces each of its ranks once; more would
                // count another device's ranks as finished.
                *announced = announced
                    .checked_add(ranks)
                    .filter(|&total| total <= self.ranks_per_device)
                    .ok_or_else(|| RtError::Transport {
                        detail: format!(
                            "device {}: Finished announces {ranks} more ranks of device \
                             {device}, which has {} and announced {announced}",
                            self.device, self.ranks_per_device
                        ),
                    })?;
            }
        }
        Ok(())
    }

    /// One full host pass — the whole engine, whoever drives it: drain the
    /// local command rings, move delivery backlogs into rings with room,
    /// drain and route the inter-host plane, and drive deferred transport
    /// work.
    ///
    /// `off_thread` marks a pass driven by a progress-pool worker instead
    /// of the owning host loop; the only difference is accounting (plane
    /// messages drained count toward [`NetStats::progress_frames`]).
    fn pass(&mut self, off_thread: bool) -> Result<Pass, RtError> {
        let mut progress = false;
        let mut backlog = false;
        for local in 0..self.ranks_per_device {
            // Drain this rank's command ring.
            while let Ok(cmd) = self.cmd_rx[local as usize].try_recv() {
                progress = true;
                self.handle_cmd(local, cmd)?;
            }
            backlog |= self.pump_backlog(local);
        }
        while let Some(msg) = self.plane.try_recv().map_err(net_err)? {
            progress = true;
            self.progress_frames += u64::from(off_thread);
            self.handle_peer(msg)?;
        }
        // Drive deferred transport work (coalesced flushes, writes the
        // socket or ring had no room for).
        progress |= self.plane.pump().map_err(net_err)?;
        Ok(Pass {
            work: progress,
            backlog,
        })
    }

    /// Quiescence check after a pass that found no work. `Ok(Some)` hands
    /// back the host's outcome when the whole world is done and the plane
    /// is drained; `Ok(None)` means keep looping.
    fn try_finish(&mut self) -> Result<Option<HostOutcome>, RtError> {
        let world = self.devices * self.ranks_per_device;
        let done =
            self.finished_global.load(Ordering::Acquire) + self.finished_remote.iter().sum::<u32>();
        if done != world {
            let gone = self.plane.gone_peers();
            if !gone.is_empty() {
                // The transport records a peer's exit after routing its last
                // messages, so what is still queued may be a `Finished` of
                // that very peer: count it before judging anyone.
                let mut handled = false;
                while let Some(msg) = self.plane.try_recv().map_err(net_err)? {
                    handled = true;
                    self.handle_peer(msg)?;
                }
                // With nothing left to say, a gone process whose devices
                // announced every rank merely finished ahead of the peers
                // this host still waits for. One that did not died early:
                // fail loudly instead of spinning on messages that will
                // never arrive.
                let per_proc =
                    (self.devices as usize).saturating_sub(self.plane.remote_devices().len());
                let died_early = |proc: u32| {
                    let announced = self.finished_remote.iter();
                    announced
                        .skip(proc as usize * per_proc)
                        .take(per_proc)
                        .any(|&ranks| ranks < self.ranks_per_device)
                };
                if !handled {
                    if let Some(proc) = gone.into_iter().find(|&p| died_early(p)) {
                        return Err(RtError::Transport {
                            detail: format!("peer process {proc} died before quiescence"),
                        });
                    }
                }
            }
            return Ok(None);
        }
        if !self.plane.idle() {
            // Quiescent protocol but bytes still queued (a large payload
            // the socket buffer has not taken yet): keep pumping, never
            // exit with undelivered sends.
            return Ok(None);
        }
        // All ranks everywhere are done and nothing is pending.
        // Every inbound `Deliver` became visible before its
        // origin's finish did (channel send happens-before the
        // counter increment in-process; per-connection FIFO
        // orders `Deliver` before `Finished` across processes),
        // so one final drain sees the complete stream; whatever
        // the exited ranks never picked up is accounted as
        // dropped.
        while let Some(msg) = self.plane.try_recv().map_err(net_err)? {
            self.handle_peer(msg)?;
        }
        // Best-effort flush of the acks the drain just queued;
        // peers that already exited are gone, not errors.
        let _ = self.plane.pump();
        for local in 0..self.ranks_per_device {
            self.pump_backlog(local);
        }
        if self.counters.is_some() {
            for local in 0..self.ranks_per_device {
                let target = self.device * self.ranks_per_device + local;
                let residue: Vec<Notification> = self.delivery_backlog[local as usize]
                    .drain(..)
                    .filter(|d| d.notify && d.notif.tag & COLL_TAG_BIT == 0)
                    .map(|d| d.notif)
                    .collect();
                if let Some(c) = self.counters.as_mut() {
                    for n in residue {
                        c.note_dropped(target, n);
                    }
                }
            }
        }
        let mut net = self.plane.stats();
        // Off-thread drains and steals are engine-side counts the plane
        // never sees; fold them into the transport report here (both zero
        // in inline mode, keeping its stats byte-identical).
        net.progress_frames += self.progress_frames;
        net.steals += self.steals;
        Ok(Some(HostOutcome {
            puts: self.puts_routed,
            notifications: self.notifications_sent,
            net,
            net_trace: self.plane.take_tracer(),
            counters: self.counters.take(),
        }))
    }

    /// The one end of an engine: the quiescence check and, once it hands
    /// back the outcome, the orderly close.
    fn try_quiesce(&mut self) -> Result<Option<HostOutcome>, RtError> {
        let out = self.try_finish()?;
        if out.is_some() {
            self.close_plane();
        }
        Ok(out)
    }

    /// Close this endpoint's side of the plane in order after a clean
    /// finish: keep reading until every peer process closed too, so no
    /// socket is dropped holding unread bytes (which would reset the
    /// connection under this side's last frames). Bounded by
    /// [`CLOSE_LINGER`]; an abort ends it at once.
    fn close_plane(&mut self) {
        let deadline = Instant::now() + CLOSE_LINGER;
        while !self.plane.close()
            && !self.abort.load(Ordering::Acquire)
            && Instant::now() < deadline
        {
            std::thread::yield_now();
        }
    }
}

/// A device's host engine and every driver's handle to it. Its host loop
/// ([`run_host_loop`](Self::run_host_loop)) runs on the device's host
/// thread in every threaded world; others may drive it too: the progress
/// pool under [`ProgressMode::Threads`], or — in a world run whole in one
/// process on the in-process plane under [`ProgressMode::Inline`] — the
/// device's own ranks, each of which runs a pass whenever it would
/// otherwise wait (caller-driven progress). A job world has no host loop:
/// its cooperative driver passes the engine instead. Every driver passes
/// the same [`Host`] through a mutex; all but the host loop use
/// `try_lock`, so a momentarily-owned engine is skipped instead of blocked
/// on (it is already being progressed, and the skip is what makes
/// work-stealing cheap).
///
/// Every engine ends through [`try_quiesce`](Self::try_quiesce), the host
/// loop's and the cooperative driver's alike. Socket parts never hand
/// their engine to ranks: a rank doing socket and ring syscalls on its own
/// core, against the host loop's lock, doubled the tcp round trip.
///
/// [`ProgressMode::Threads`]: crate::ProgressMode::Threads
/// [`ProgressMode::Inline`]: crate::ProgressMode::Inline
#[derive(Clone)]
pub(crate) struct SharedHost {
    pub engine: Arc<std::sync::Mutex<Host>>,
    /// Raised once the host loop produced its outcome (or failed): workers
    /// and ranks stop driving the engine.
    pub done: Arc<AtomicBool>,
}

impl SharedHost {
    pub fn new(host: Host) -> Self {
        SharedHost {
            engine: Arc::new(std::sync::Mutex::new(host)),
            done: Arc::new(AtomicBool::new(false)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Host> {
        match self.engine.lock() {
            Ok(g) => g,
            // A poisoning panic is already being surfaced through the
            // cluster's first-error slot; the engine state itself is a
            // plain protocol state machine, safe to keep driving until the
            // abort flag lands.
            Err(p) => p.into_inner(),
        }
    }

    /// The host thread's loop: pass the engine until a pass that found no
    /// work ends in quiescence, through the engine's one end step (see
    /// [`try_quiesce`](Self::try_quiesce)) under the pass's guard.
    ///
    /// `co_driven`: ranks or a progress pool drive this engine too. The
    /// loop then drops the engine lock — and burns the artificial
    /// busy-work — *between* passes, which is exactly the window the other
    /// drivers exploit, and yields after every pass, handing the core to
    /// them (yielding only when idle measured no faster round trip and a
    /// slower one-worker busy-host ladder). As the engine's only driver it
    /// keeps the guard across passes and yields only after an idle pass:
    /// yielding after every pass slowed the tcp round trip in 4 of 4 pairs.
    pub fn run_host_loop(
        &self,
        abort: &AtomicBool,
        co_driven: bool,
    ) -> Result<HostOutcome, RtError> {
        // As the engine's only driver the loop keeps the guard across passes.
        let mut held = None;
        loop {
            if abort.load(Ordering::Acquire) {
                return Err(RtError::Aborted);
            }
            let mut h = held.take().unwrap_or_else(|| self.lock());
            let work = h.pass(false)?.work;
            if !work {
                if let Some(out) = h.try_quiesce()? {
                    return Ok(out);
                }
            }
            let busy = h.busy_spin;
            if co_driven {
                drop(h);
            } else {
                held = Some(h);
            }
            // The busy-host emulation: the loop is away doing "application
            // work", and a co-driven engine is unlocked for the others.
            burn(busy);
            if co_driven || !work {
                std::thread::yield_now();
            }
        }
    }

    /// One pass of `drive` if the engine is free; the default (nothing
    /// moved) when the host loop already exited or the engine is
    /// momentarily owned by another driver.
    fn try_drive<T: Default>(
        &self,
        drive: impl FnOnce(&mut Host) -> Result<T, RtError>,
    ) -> Result<T, RtError> {
        if self.done.load(Ordering::Acquire) {
            return Ok(T::default());
        }
        let mut h = match self.engine.try_lock() {
            Ok(h) => h,
            Err(std::sync::TryLockError::WouldBlock) => return Ok(T::default()),
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        };
        drive(&mut h)
    }

    /// The pool-worker side: one off-thread pass if the engine is free.
    /// `stealing` marks a worker the engine is *not* homed on (pure
    /// accounting).
    pub fn progress_pass(&self, stealing: bool) -> Result<bool, RtError> {
        self.try_drive(|h| {
            let progress = h.pass(true)?.work;
            h.steals += u64::from(progress && stealing);
            Ok(progress)
        })
    }

    /// The waiting-rank side: one pass if the engine is free, accounted as
    /// the host's own (`pass(false)`), so `progress_frames` and `steals`
    /// keep counting only the pool. The cooperative driver passes every
    /// engine of a job world through this too.
    pub fn rank_pass(&self) -> Result<Pass, RtError> {
        self.try_drive(|h| h.pass(false))
    }

    /// The end of every engine, run after a pass that found no work by the
    /// host loop and the cooperative driver alike: the quiescence check
    /// and, once it hands back the outcome, the orderly close.
    pub fn try_quiesce(&self) -> Result<Option<HostOutcome>, RtError> {
        self.lock().try_quiesce()
    }
}

/// Deterministic spin work: `iters` rounds of a multiply-add chain the
/// optimizer cannot elide. The busy-host benchmark's unit of host-side
/// "application work".
///
/// The burn yields to the scheduler every few thousand iterations: the
/// knob emulates the host *loop* being unavailable for progress, and the
/// measurement must reflect the progress engine's availability rather
/// than the machine's core count — without the yields, a one-core box
/// only hands the CPU to the progress pool at timeslice boundaries and
/// the figure measures the OS scheduler instead of the engine.
pub(crate) fn burn(iters: u64) {
    let mut acc = 0u64;
    for i in 0..iters {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
        std::hint::black_box(acc);
        if i % 4096 == 4095 {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcuda_net::InProcessPlane;
    use dcuda_queues::channel;

    /// One device of one rank whose ranks drive its engine: the engine,
    /// the rank's delivery ring (two slots) and its window bank (window 0
    /// of two landing sizes, then an untouched scratch window).
    fn engine() -> (Host, Receiver<Delivery>, Arc<WindowBank>) {
        let (tx, rx) = channel::<Delivery>(2);
        let bank = Arc::new(WindowBank::new(vec![vec![0; 2 * LAND_MIN], Vec::new()]));
        let plane = InProcessPlane::new_world(1).pop().expect("one endpoint");
        let host = Host {
            device: 0,
            devices: 1,
            ranks_per_device: 1,
            cmd_rx: Vec::new(),
            delivery_tx: vec![tx],
            delivery_backlog: vec![VecDeque::new()],
            banks: vec![bank.clone()],
            last_payload: vec![0],
            plane: Box::new(plane),
            finished_global: Arc::new(AtomicU32::new(0)),
            finished_remote: vec![0],
            abort: Arc::new(AtomicBool::new(false)),
            flush: Vec::new(),
            puts_routed: 0,
            notifications_sent: 0,
            counters: None,
            busy_spin: 0,
            progress_frames: 0,
            steals: 0,
        };
        (host, rx, bank)
    }

    fn put(tag: u32, win: u32, off: usize, len: usize) -> Delivery {
        Delivery {
            notif: Notification {
                win,
                source: 0,
                tag,
            },
            dst_off: off,
            data: vec![tag as u8; len],
            notify: true,
        }
    }

    /// Deliver `d` and report whether the rank receives its payload
    /// (`false`: the engine landed it), checking that the notification
    /// comes through in order either way.
    fn carried(host: &mut Host, rx: &mut Receiver<Delivery>, d: Delivery) -> bool {
        let tag = d.notif.tag;
        host.deliver_local(0, d);
        let got = rx.try_recv().expect("delivered");
        assert_eq!(got.notif.tag, tag);
        !got.data.is_empty()
    }

    #[test]
    fn the_engine_lands_only_what_the_rank_would_apply_next() {
        let (mut host, mut rx, bank) = engine();
        let window = |bank: &WindowBank| bank.rank_windows()[0].clone();
        assert!(carried(&mut host, &mut rx, put(1, 0, 0, LAND_MIN)), "owned");
        bank.lend();
        assert!(!carried(&mut host, &mut rx, put(2, 0, 8, LAND_MIN)), "lent");
        bank.reclaim();
        let w = window(&bank);
        assert!(w[..8] == [0; 8] && w[8..8 + LAND_MIN].iter().all(|&b| b == 2));
        bank.lend();
        // A small payload travels to the rank. While it sits in the ring
        // untaken, a landing would be overwritten by the rank's later copy
        // of it, so the next payload travels too.
        host.deliver_local(0, put(3, 0, 0, LAND_MIN - 1));
        host.deliver_local(0, put(4, 0, 0, LAND_MIN));
        assert_eq!(rx.try_recv().map(|d| d.data.len()), Ok(LAND_MIN - 1));
        assert_eq!(rx.try_recv().map(|d| d.data.len()), Ok(LAND_MIN));
        // Taken now: the next one lands.
        assert!(!carried(&mut host, &mut rx, put(5, 0, 0, LAND_MIN)));
        // A backlog behind a full ring is delivered first, whatever it
        // carries.
        host.deliver_local(0, put(6, 0, 0, 0));
        host.deliver_local(0, put(7, 0, 0, 0));
        host.deliver_local(0, put(8, 0, 0, 0));
        host.deliver_local(0, put(9, 0, 0, LAND_MIN));
        for tag in 6..=7 {
            assert_eq!(rx.try_recv().map(|d| d.notif.tag), Ok(tag));
        }
        assert!(host.pump_backlog(0));
        assert_eq!(rx.try_recv().map(|d| d.notif.tag), Ok(8));
        assert_eq!(rx.try_recv().map(|d| d.data.len()), Ok(LAND_MIN));
        // Ranges the window does not hold stay the rank's to refuse: past
        // the end, an untouched scratch window, a window that is not there.
        assert!(carried(
            &mut host,
            &mut rx,
            put(10, 0, LAND_MIN + 1, LAND_MIN)
        ));
        assert!(carried(&mut host, &mut rx, put(11, 1, 0, LAND_MIN)));
        assert!(carried(&mut host, &mut rx, put(12, 7, 0, LAND_MIN)));
        assert!(carried(
            &mut host,
            &mut rx,
            put(13, 0, usize::MAX, LAND_MIN)
        ));
        bank.reclaim();
        let w = window(&bank);
        assert!(w[..LAND_MIN].iter().all(|&b| b == 5), "only landings wrote");
        assert!(w[LAND_MIN..].iter().all(|&b| b == 2 || b == 0));
    }
}
