//! The collective engine: notified-RMA collectives with chunked
//! compute/communication overlap, executed on [`RtCtx`].
//!
//! Every collective here is built *purely* from the runtime's existing
//! primitive — a window put that enqueues a notification at the target —
//! no new transport machinery. What makes the traffic a collective rather
//! than user communication is its tag: every collective put carries
//! [`COLL_TAG_BIT`] (bit 31) and nothing else, lands in a per-source inbox
//! instead of the notification matcher, and is invisible to the user-facing
//! counters (`puts` / `notifications` / `matched`), user wildcard queries
//! and the invariant-verification ledger. A collective wait takes the next
//! message from its source: per-(origin, target) FIFO delivery and the SPMD
//! call order already pair each wait with its put, so no sequence number
//! is needed. Deterministic collective work is reported separately through
//! [`CollStats`].
//!
//! Overlap model (the NeMo TP-overlap trick): within one schedule step all
//! outgoing chunk puts are posted *before* the first incoming chunk is
//! awaited, so while chunk *k* is being reduced locally, chunks *k+1..* are
//! in flight. A chunk wait whose notification has already arrived at first
//! poll counts as *hidden* (the transfer was fully overlapped by compute);
//! one that has to spin counts as *blocked*. The hidden fraction is what
//! the repo benchmark's `coll.hidden_frac` row reports and CI gates on.
//!
//! Every collective is a schedule — a list of puts, waits, reductions and
//! landed-chunk counts — built when the call starts and run by one
//! interpreter, `Collective::poll`, whose waits are the runtime's one wait
//! future. A rank task awaits [`Collective::run`]; the blocking [`CollCtx`]
//! methods block on the same future, so both make the same runtime calls
//! in the same order: the same puts, the same [`CollStats`], the same
//! `coll_wait`/`coll_reduce` trace spans.
//!
//! Incoming data never lands in live buffers: each schedule step/round has
//! its own disjoint slot in a hidden per-rank scratch window (appended
//! after the user windows, sized by `RtConfig::coll_scratch`), so a fast
//! peer running several steps ahead can never clobber bytes that are still
//! being reduced. [`dcuda_coll::allreduce_scratch_bytes`] is the sizing
//! contract; undersized scratch surfaces as
//! [`CollError::ScratchTooSmall`].

use crate::ctx::{block_on, RtCtx, Until, Wait};
use crate::types::{Rank, RtError, WindowId};
use dcuda_coll::{
    bcast_children, bcast_parent, ceil_log2, chunk_spans, max_segment_bytes, pow2_floor,
    reduce_into, ring_left, ring_right, segment_range, tree_reduce_step, CollAlgo, CollError,
    CollPlan, Dtype, ReduceOp, TreeStep,
};
use dcuda_trace::Track;

/// The tag of every collective-engine put, and the wire's only mark of
/// collective traffic. User `put_notify` tags must leave bit 31 clear
/// ([`RtError::ReservedTag`] otherwise); queries are unaffected (`Tag::ANY`
/// still matches only user notifications, because collective notifications
/// are queued apart).
pub const COLL_TAG_BIT: u32 = 1 << 31;

/// Deterministic collective-engine statistics, reported alongside the
/// user-facing counters in `RtReport`.
///
/// `puts`, `bytes` and `chunks` are schedule-determined (identical across
/// transport backends — the conformance suite gates on them); the
/// hidden/blocked wait split is timing-dependent and only meaningful for
/// overlap measurements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollStats {
    /// Internal puts issued by the collective engine (incl. barrier rounds).
    pub puts: u64,
    /// Payload bytes moved by the collective engine.
    pub bytes: u64,
    /// Data chunks received and processed by collective schedules.
    pub chunks: u64,
    /// Chunk waits whose notification had already arrived at first poll
    /// (the transfer was hidden behind local compute). Timing-dependent.
    pub hidden_waits: u64,
    /// Chunk waits that had to spin for the notification. Timing-dependent.
    pub blocked_waits: u64,
}

impl CollStats {
    /// Merge another rank's statistics into this aggregate.
    pub(crate) fn absorb(&mut self, o: CollStats) {
        self.puts += o.puts;
        self.bytes += o.bytes;
        self.chunks += o.chunks;
        self.hidden_waits += o.hidden_waits;
        self.blocked_waits += o.blocked_waits;
    }

    /// Fraction of metered chunk waits that were hidden (`None` if no
    /// collective ran).
    pub fn hidden_fraction(&self) -> Option<f64> {
        let total = self.hidden_waits + self.blocked_waits;
        (total > 0).then(|| self.hidden_waits as f64 / total as f64)
    }
}

/// Collective operations over the rank's registered windows, blocking the
/// calling rank thread until the collective completes. A rank task must
/// not call them (they return [`RtError::BlockingInTask`]); it awaits the
/// same collective's [`Collective::run`] instead.
///
/// All methods are collective: every rank of the world must call them in
/// the same order with compatible arguments (same region shape, same plan),
/// exactly like MPI collectives. Each exists as a panicking convenience and
/// a `try_` variant returning [`RtError`].
///
/// The reduction/gather/broadcast collectives open each call with an
/// internal epoch barrier before any data moves. Notified-RMA payloads land
/// in window memory at *delivery* time, so without the barrier a rank that
/// finished collective `k` could receive a faster peer's collective-`k+1`
/// payload while it is still refilling its buffers between the two calls —
/// a data race the schedule counters would never show. The barrier bounds
/// peer lookahead at the call boundary; inside a collective the schedule's
/// disjoint slot/segment assignment keeps every region single-writer.
/// `ring_shift`/`ring_release` instead gate lookahead pairwise (release
/// acknowledges consumption), which is what makes them cheap enough for
/// per-iteration halo traffic.
pub trait CollCtx {
    /// Allreduce the element-aligned region `[off, off+len)` of `win` in
    /// place: afterwards every rank holds the elementwise reduction over
    /// all ranks' regions.
    fn try_allreduce(
        &mut self,
        win: WindowId,
        off: usize,
        len: usize,
        plan: &CollPlan,
    ) -> Result<(), RtError>;

    /// Panicking [`try_allreduce`](Self::try_allreduce).
    fn allreduce(&mut self, win: WindowId, off: usize, len: usize, plan: &CollPlan);

    /// Ring reduce-scatter over `[off, off+len)`: afterwards this rank's
    /// own segment (`segment_range(len, elem, world, rank)`) holds the full
    /// reduction; the other segments hold deterministic partials.
    fn try_reduce_scatter(
        &mut self,
        win: WindowId,
        off: usize,
        len: usize,
        plan: &CollPlan,
    ) -> Result<(), RtError>;

    /// Panicking [`try_reduce_scatter`](Self::try_reduce_scatter).
    fn reduce_scatter(&mut self, win: WindowId, off: usize, len: usize, plan: &CollPlan);

    /// Ring all-gather over `[off, off+len)`: each rank contributes its own
    /// segment; afterwards every rank holds all segments.
    fn try_all_gather(
        &mut self,
        win: WindowId,
        off: usize,
        len: usize,
        plan: &CollPlan,
    ) -> Result<(), RtError>;

    /// Panicking [`try_all_gather`](Self::try_all_gather).
    fn all_gather(&mut self, win: WindowId, off: usize, len: usize, plan: &CollPlan);

    /// Binomial broadcast of `root`'s `[off, off+len)` region to every rank.
    fn try_broadcast(
        &mut self,
        win: WindowId,
        off: usize,
        len: usize,
        root: Rank,
        plan: &CollPlan,
    ) -> Result<(), RtError>;

    /// Panicking [`try_broadcast`](Self::try_broadcast).
    fn broadcast(&mut self, win: WindowId, off: usize, len: usize, root: Rank, plan: &CollPlan);

    /// One step of a ring halo shift: put `[src_off, src_off+len)` of `win`
    /// to the right neighbour at `dst_off`, then wait for the left
    /// neighbour's matching shift to land in this rank's `[dst_off,
    /// dst_off+len)`. Collective over the whole world ring.
    fn try_ring_shift(
        &mut self,
        win: WindowId,
        dst_off: usize,
        src_off: usize,
        len: usize,
    ) -> Result<(), RtError>;

    /// Panicking [`try_ring_shift`](Self::try_ring_shift).
    fn ring_shift(&mut self, win: WindowId, dst_off: usize, src_off: usize, len: usize);

    /// Release the previous [`ring_shift`](Self::ring_shift)'s inbox: tell
    /// the left neighbour its data has been consumed and wait for the right
    /// neighbour's release, gating it from racing a shift ahead.
    fn try_ring_release(&mut self) -> Result<(), RtError>;

    /// Panicking [`try_ring_release`](Self::try_ring_release).
    fn ring_release(&mut self);
}

impl CollCtx for RtCtx {
    fn try_allreduce(
        &mut self,
        win: WindowId,
        off: usize,
        len: usize,
        plan: &CollPlan,
    ) -> Result<(), RtError> {
        self.blocking("allreduce")?;
        block_on(Collective::allreduce(self, win, off, len, plan)?.run(self))
    }

    fn allreduce(&mut self, win: WindowId, off: usize, len: usize, plan: &CollPlan) {
        let rank = self.rank().0;
        self.try_allreduce(win, off, len, plan)
            .unwrap_or_else(|e| panic!("rank {rank}: allreduce: {e}"));
    }

    fn try_reduce_scatter(
        &mut self,
        win: WindowId,
        off: usize,
        len: usize,
        plan: &CollPlan,
    ) -> Result<(), RtError> {
        self.blocking("reduce_scatter")?;
        block_on(Collective::reduce_scatter(self, win, off, len, plan)?.run(self))
    }

    fn reduce_scatter(&mut self, win: WindowId, off: usize, len: usize, plan: &CollPlan) {
        let rank = self.rank().0;
        self.try_reduce_scatter(win, off, len, plan)
            .unwrap_or_else(|e| panic!("rank {rank}: reduce_scatter: {e}"));
    }

    fn try_all_gather(
        &mut self,
        win: WindowId,
        off: usize,
        len: usize,
        plan: &CollPlan,
    ) -> Result<(), RtError> {
        self.blocking("all_gather")?;
        block_on(Collective::all_gather(self, win, off, len, plan)?.run(self))
    }

    fn all_gather(&mut self, win: WindowId, off: usize, len: usize, plan: &CollPlan) {
        let rank = self.rank().0;
        self.try_all_gather(win, off, len, plan)
            .unwrap_or_else(|e| panic!("rank {rank}: all_gather: {e}"));
    }

    fn try_broadcast(
        &mut self,
        win: WindowId,
        off: usize,
        len: usize,
        root: Rank,
        plan: &CollPlan,
    ) -> Result<(), RtError> {
        self.blocking("broadcast")?;
        block_on(Collective::broadcast(self, win, off, len, root, plan)?.run(self))
    }

    fn broadcast(&mut self, win: WindowId, off: usize, len: usize, root: Rank, plan: &CollPlan) {
        let rank = self.rank().0;
        self.try_broadcast(win, off, len, root, plan)
            .unwrap_or_else(|e| panic!("rank {rank}: broadcast: {e}"));
    }

    fn try_ring_shift(
        &mut self,
        win: WindowId,
        dst_off: usize,
        src_off: usize,
        len: usize,
    ) -> Result<(), RtError> {
        self.blocking("ring_shift")?;
        block_on(Collective::ring_shift(self, win, dst_off, src_off, len)?.run(self))
    }

    fn ring_shift(&mut self, win: WindowId, dst_off: usize, src_off: usize, len: usize) {
        let rank = self.rank().0;
        self.try_ring_shift(win, dst_off, src_off, len)
            .unwrap_or_else(|e| panic!("rank {rank}: ring_shift: {e}"));
    }

    fn try_ring_release(&mut self) -> Result<(), RtError> {
        self.blocking("ring_release")?;
        block_on(Collective::ring_release(self).run(self))
    }

    fn ring_release(&mut self) {
        let rank = self.rank().0;
        self.try_ring_release()
            .unwrap_or_else(|e| panic!("rank {rank}: ring_release: {e}"));
    }
}

/// One step of a collective schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Post the next collective put to `dst`, window to window by raw index
    /// (either side may be the hidden scratch window).
    Put {
        src_win: usize,
        src_off: usize,
        len: usize,
        dst: u32,
        dst_win: usize,
        dst_off: usize,
    },
    /// Await the next collective notification from `from`. `chunk` names
    /// the schedule phase of a data chunk, which is metered in
    /// [`CollStats`] and traced as a `coll_wait` span; `None` is a pure
    /// synchronization wait.
    Wait {
        from: u32,
        chunk: Option<&'static str>,
    },
    /// Reduce `len` bytes of scratch at `scratch_off` into the user region
    /// at `dst` (one data chunk processed).
    Reduce {
        dst: usize,
        scratch_off: usize,
        len: usize,
        op: ReduceOp,
        dtype: Dtype,
    },
    /// One data chunk that landed in place was processed.
    Landed,
}

/// The wait a collective suspended on, kept to finish its accounting when
/// the collective resumes.
#[derive(Debug, Clone, Copy)]
struct Suspended {
    chunk: Option<&'static str>,
    start: u64,
}

/// A collective in progress: its schedule and how far it has run.
///
/// Build one with a constructor, one per [`CollCtx`] method plus
/// [`barrier`](Self::barrier), then await [`run`](Self::run). Argument and
/// scratch-size errors surface from the constructor, before anything is
/// sent. Every rank of the world must run the same collectives in the same
/// order, as with [`CollCtx`].
#[derive(Debug)]
pub struct Collective {
    win: WindowId,
    ops: Vec<Op>,
    next: usize,
    suspended: Option<Suspended>,
}

impl Collective {
    /// The world barrier (`dcuda_barrier`).
    pub fn barrier(ctx: &mut RtCtx) -> Collective {
        ctx.barriers_entered += 1;
        let mut s = Schedule::new(WindowId(0));
        s.barrier(ctx);
        s.start()
    }

    /// [`CollCtx::ring_shift`].
    pub fn ring_shift(
        ctx: &mut RtCtx,
        win: WindowId,
        dst_off: usize,
        src_off: usize,
        len: usize,
    ) -> Result<Collective, RtError> {
        // Window layouts are identical on every rank, so validating both the
        // local source range and the (remote) destination range against the
        // local window covers the symmetric call on the neighbour. Pure
        // validation — no borrow, so no race-detector event.
        for start in [src_off, dst_off] {
            ctx.user_win_range(win, start, len)?;
        }
        let (rank, world) = (ctx.rank().0, ctx.world_size());
        let (right, left) = (ring_right(rank, world), ring_left(rank, world));
        let mut s = Schedule::new(win);
        s.put(win.index(), src_off, len, right, win.index(), dst_off);
        s.ops.push(Op::Wait {
            from: left,
            chunk: Some("shift"),
        });
        s.ops.push(Op::Landed);
        Ok(s.start())
    }

    /// [`CollCtx::ring_release`].
    pub fn ring_release(ctx: &mut RtCtx) -> Collective {
        let (rank, world) = (ctx.rank().0, ctx.world_size());
        let (right, left) = (ring_right(rank, world), ring_left(rank, world));
        let scratch = ctx.scratch_index();
        let mut s = Schedule::new(WindowId(0));
        s.put(scratch, 0, 0, left, scratch, 0);
        s.ops.push(Op::Wait {
            from: right,
            chunk: None,
        });
        s.start()
    }

    /// [`CollCtx::allreduce`]: the epoch barrier, then the plan's algorithm.
    pub fn allreduce(
        ctx: &mut RtCtx,
        win: WindowId,
        off: usize,
        len: usize,
        plan: &CollPlan,
    ) -> Result<Collective, RtError> {
        let mut s = Schedule::epoch(ctx, win, off, len, plan)?;
        match plan.algo() {
            CollAlgo::Ring => {
                s.reduce_scatter_ring(ctx, off, len, plan, 1)?;
                s.all_gather_ring(ctx, off, len, plan, 1);
            }
            CollAlgo::Tree => s.allreduce_tree(ctx, off, len, plan)?,
            CollAlgo::RecursiveDoubling => s.allreduce_rdbl(ctx, off, len, plan)?,
        }
        Ok(s.start())
    }

    /// [`CollCtx::reduce_scatter`]: the epoch barrier, then the ring.
    pub fn reduce_scatter(
        ctx: &mut RtCtx,
        win: WindowId,
        off: usize,
        len: usize,
        plan: &CollPlan,
    ) -> Result<Collective, RtError> {
        let mut s = Schedule::epoch(ctx, win, off, len, plan)?;
        s.reduce_scatter_ring(ctx, off, len, plan, 0)?;
        Ok(s.start())
    }

    /// [`CollCtx::all_gather`]: the epoch barrier, then the ring.
    pub fn all_gather(
        ctx: &mut RtCtx,
        win: WindowId,
        off: usize,
        len: usize,
        plan: &CollPlan,
    ) -> Result<Collective, RtError> {
        let mut s = Schedule::epoch(ctx, win, off, len, plan)?;
        s.all_gather_ring(ctx, off, len, plan, 0);
        Ok(s.start())
    }

    /// [`CollCtx::broadcast`]: the epoch barrier, then the binomial tree.
    pub fn broadcast(
        ctx: &mut RtCtx,
        win: WindowId,
        off: usize,
        len: usize,
        root: Rank,
        plan: &CollPlan,
    ) -> Result<Collective, RtError> {
        let mut s = Schedule::epoch(ctx, win, off, len, plan)?;
        if root.0 >= ctx.world_size() {
            return Err(RtError::Coll(CollError::RootOutOfRange {
                root: root.0,
                world: ctx.world_size(),
            }));
        }
        s.broadcast_binomial(ctx, off, len, root.0, plan);
        Ok(s.start())
    }

    /// Run the collective to completion: the runtime's one wait future,
    /// suspending on each notification that has not arrived.
    pub fn run(self, ctx: &mut RtCtx) -> Until<'_> {
        ctx.until(None, Some(self))
    }

    /// Run the schedule until it completes (`Ok(None)`) or must wait for a
    /// notification that has not arrived (`Ok(Some(wait))`). After a
    /// suspension, poll again only once that notification was matched.
    pub(crate) fn poll(&mut self, ctx: &mut RtCtx) -> Result<Option<Wait>, RtError> {
        if let Some(s) = self.suspended.take() {
            end_wait(ctx, s, false);
        }
        while let Some(&op) = self.ops.get(self.next) {
            self.next += 1;
            match op {
                Op::Put {
                    src_win,
                    src_off,
                    len,
                    dst,
                    dst_win,
                    dst_off,
                } => {
                    ctx.put_internal(src_win, src_off, len, dst, dst_win, dst_off)?;
                }
                Op::Wait { from, chunk } => {
                    let start = if chunk.is_some() { ctx.tick() } else { 0 };
                    let wait = Suspended { chunk, start };
                    let on = Wait::Coll { source: from };
                    if ctx.test(on)? {
                        // Arrived before the first poll: the transfer was
                        // hidden behind the preceding local work.
                        end_wait(ctx, wait, true);
                    } else {
                        self.suspended = Some(wait);
                        return Ok(Some(on));
                    }
                }
                Op::Reduce {
                    dst,
                    scratch_off,
                    len,
                    op,
                    dtype,
                } => {
                    let start = ctx.tick();
                    ctx.reduce_scratch_into(self.win, dst, scratch_off, len, |acc, src| {
                        reduce_into(acc, src, op, dtype).map_err(RtError::Coll)
                    })?;
                    ctx.coll.chunks += 1;
                    if ctx.tracer.is_enabled() {
                        let end = ctx.tick();
                        let rank = ctx.rank().0;
                        ctx.tracer.span(
                            Track::Rank(rank),
                            "coll_reduce",
                            start,
                            end,
                            vec![("bytes", (len as u64).into())],
                        );
                    }
                }
                Op::Landed => ctx.coll.chunks += 1,
            }
        }
        Ok(None)
    }
}

/// Account a matched wait: a data chunk's wait is metered as hidden or
/// blocked and, when tracing, recorded as a `coll_wait` span.
fn end_wait(ctx: &mut RtCtx, wait: Suspended, hidden: bool) {
    let Some(phase) = wait.chunk else {
        return;
    };
    if hidden {
        ctx.coll.hidden_waits += 1;
    } else {
        ctx.coll.blocked_waits += 1;
    }
    if ctx.tracer.is_enabled() {
        let end = ctx.tick();
        let rank = ctx.rank().0;
        ctx.tracer.span(
            Track::Rank(rank),
            "coll_wait",
            wait.start,
            end,
            vec![
                ("hidden", u64::from(hidden).into()),
                ("phase", phase.into()),
            ],
        );
    }
}

/// A collective schedule under construction: the region's window and the
/// op list.
struct Schedule {
    win: WindowId,
    ops: Vec<Op>,
}

impl Schedule {
    fn new(win: WindowId) -> Schedule {
        Schedule {
            win,
            ops: Vec::new(),
        }
    }

    /// A schedule over `[off, off+len)` of `win` that opens with the epoch
    /// barrier, once the region fits the rank's window layout and the
    /// plan's element size.
    fn epoch(
        ctx: &RtCtx,
        win: WindowId,
        off: usize,
        len: usize,
        plan: &CollPlan,
    ) -> Result<Schedule, RtError> {
        // Argument validation only — deliberately not a window borrow, so
        // the race detector sees no access here (a whole-window read would
        // report the collective's own in-flight chunks as races).
        ctx.user_win_range(win, off, len)?;
        let elem = plan.dtype().size();
        if !len.is_multiple_of(elem) {
            return Err(RtError::Coll(CollError::BufferMisaligned { len, elem }));
        }
        let mut s = Schedule::new(win);
        s.barrier(ctx);
        Ok(s)
    }

    fn start(self) -> Collective {
        Collective {
            win: self.win,
            ops: self.ops,
            next: 0,
            suspended: None,
        }
    }

    fn put(
        &mut self,
        src_win: usize,
        src_off: usize,
        len: usize,
        dst: u32,
        dst_win: usize,
        dst_off: usize,
    ) {
        self.ops.push(Op::Put {
            src_win,
            src_off,
            len,
            dst,
            dst_win,
            dst_off,
        });
    }

    /// Put every chunk of `[off, off+len)` of the region's window to `dst`,
    /// landing at `dst_off + (chunk offset)` of window `dst_win`.
    fn put_chunks(
        &mut self,
        off: usize,
        len: usize,
        plan: &CollPlan,
        dst: u32,
        dst_win: usize,
        dst_off: usize,
    ) {
        let win = self.win.index();
        for (coff, clen) in chunk_spans(len, plan.chunk_bytes()) {
            self.put(win, off + coff, clen, dst, dst_win, dst_off + coff);
        }
    }

    /// Await every chunk of a `len`-byte block from `from` and reduce it
    /// from scratch at `slot` into the region at `dst`.
    fn reduce_chunks(
        &mut self,
        from: u32,
        phase: &'static str,
        dst: usize,
        slot: usize,
        len: usize,
        plan: &CollPlan,
    ) {
        for (coff, clen) in chunk_spans(len, plan.chunk_bytes()) {
            self.ops.push(Op::Wait {
                from,
                chunk: Some(phase),
            });
            self.ops.push(Op::Reduce {
                dst: dst + coff,
                scratch_off: slot + coff,
                len: clen,
                op: plan.op(),
                dtype: plan.dtype(),
            });
        }
    }

    /// Await every chunk of a `len`-byte block from `from` that lands in
    /// place.
    fn land_chunks(&mut self, from: u32, phase: &'static str, len: usize, plan: &CollPlan) {
        for _ in chunk_spans(len, plan.chunk_bytes()) {
            self.ops.push(Op::Wait {
                from,
                chunk: Some(phase),
            });
            self.ops.push(Op::Landed);
        }
    }

    /// The world barrier on the collective engine: a dissemination barrier
    /// of `ceil(log2(world))` rounds of zero-length notified puts — round
    /// `k` signals rank `r + 2^k` and waits on rank `r - 2^k`, after which
    /// every rank has transitively heard from every other. Runs entirely in
    /// the reserved tag space; no host-side state.
    fn barrier(&mut self, ctx: &RtCtx) {
        let world = ctx.world_size();
        let rank = ctx.rank().0;
        let scratch = ctx.scratch_index();
        let mut k = 1u32;
        while k < world {
            self.put(scratch, 0, 0, (rank + k) % world, scratch, 0);
            self.ops.push(Op::Wait {
                from: (rank + world - k) % world,
                chunk: None,
            });
            k <<= 1;
        }
    }

    /// Ring reduce-scatter: `world - 1` steps; at step `s` rank `r` sends
    /// segment `(r + own - 1 - s) mod world` to its right neighbour and
    /// reduces the segment arriving from the left (one lower) into its own
    /// buffer, so the segment received at step `s` is exactly the one
    /// forwarded at step `s + 1` — the classic ring pipeline. Each step's
    /// incoming segment lands in its own scratch slot. After the final step
    /// rank `r` fully owns segment `(r + own) mod world`: `own = 0` is the
    /// standalone contract (each rank ends with its own segment reduced),
    /// `own = 1` the allreduce-internal convention that feeds the
    /// `shift = 1` all-gather.
    fn reduce_scatter_ring(
        &mut self,
        ctx: &RtCtx,
        off: usize,
        len: usize,
        plan: &CollPlan,
        own: u32,
    ) -> Result<(), RtError> {
        let world = ctx.world_size();
        if world == 1 || len == 0 {
            return Ok(());
        }
        let elem = plan.dtype().size();
        let seg_max = max_segment_bytes(len, elem, world);
        check_scratch(ctx, (world as usize - 1) * seg_max)?;
        let rank = ctx.rank().0;
        let (right, left) = (ring_right(rank, world), ring_left(rank, world));
        let scratch = ctx.scratch_index();
        for step in 0..world - 1 {
            let send_seg = (rank + own + 2 * world - 1 - step) % world;
            let recv_seg = (send_seg + world - 1) % world;
            let send = segment_range(len, elem, world, send_seg);
            let recv = segment_range(len, elem, world, recv_seg);
            let slot = step as usize * seg_max;
            // Post every outgoing chunk of this step before awaiting
            // anything: chunk k+1 is in flight while chunk k is reduced.
            self.put_chunks(off + send.start, send.len(), plan, right, scratch, slot);
            self.reduce_chunks(left, "rs", off + recv.start, slot, recv.len(), plan);
        }
        Ok(())
    }

    /// Ring all-gather: `world - 1` steps; at step `s` rank `r` forwards
    /// segment `(r + shift - s) mod world` to its right neighbour; incoming
    /// segments land directly at their final offsets (each is written
    /// exactly once, so no scratch staging is needed). `shift = 0` is the
    /// standalone contract (each rank contributes its own segment);
    /// `shift = 1` is the allreduce phase-2 convention (each rank starts
    /// owning segment `r + 1`).
    fn all_gather_ring(
        &mut self,
        ctx: &RtCtx,
        off: usize,
        len: usize,
        plan: &CollPlan,
        shift: u32,
    ) {
        let world = ctx.world_size();
        if world == 1 || len == 0 {
            return;
        }
        let elem = plan.dtype().size();
        let rank = ctx.rank().0;
        let (right, left) = (ring_right(rank, world), ring_left(rank, world));
        let win = self.win.index();
        for step in 0..world - 1 {
            let send_seg = (rank + shift + world - step) % world;
            let recv_seg = (send_seg + world - 1) % world;
            let send = segment_range(len, elem, world, send_seg);
            let recv = segment_range(len, elem, world, recv_seg);
            self.put_chunks(
                off + send.start,
                send.len(),
                plan,
                right,
                win,
                off + send.start,
            );
            self.land_chunks(left, "ag", recv.len(), plan);
        }
    }

    /// Binomial-tree allreduce: reduce to rank 0 up the tree (each round's
    /// incoming buffer lands in its own scratch slot), then broadcast the
    /// result back down. Works for any world size.
    fn allreduce_tree(
        &mut self,
        ctx: &RtCtx,
        off: usize,
        len: usize,
        plan: &CollPlan,
    ) -> Result<(), RtError> {
        let world = ctx.world_size();
        if world == 1 || len == 0 {
            return Ok(());
        }
        check_scratch(ctx, ceil_log2(world) as usize * len)?;
        let rank = ctx.rank().0;
        let scratch = ctx.scratch_index();
        for k in 0..ceil_log2(world) {
            match tree_reduce_step(rank, world, k) {
                TreeStep::SendTo(parent) => {
                    self.put_chunks(off, len, plan, parent, scratch, k as usize * len);
                    break;
                }
                TreeStep::RecvFrom(child) => {
                    self.reduce_chunks(child, "tree", off, k as usize * len, len, plan);
                }
                TreeStep::Idle => {}
            }
        }
        self.broadcast_binomial(ctx, off, len, 0, plan);
        Ok(())
    }

    /// Recursive-doubling allreduce: the ranks beyond the largest power of
    /// two fold into their partners first, the power-of-two sub-world
    /// exchanges full buffers pairwise over `log2` rounds (each round's
    /// incoming buffer in its own scratch slot), and the folded-out ranks
    /// receive the finished result.
    fn allreduce_rdbl(
        &mut self,
        ctx: &RtCtx,
        off: usize,
        len: usize,
        plan: &CollPlan,
    ) -> Result<(), RtError> {
        let world = ctx.world_size();
        if world == 1 || len == 0 {
            return Ok(());
        }
        let p = pow2_floor(world);
        let rounds = ceil_log2(p);
        check_scratch(ctx, (rounds as usize + 1) * len)?;
        let rank = ctx.rank().0;
        let scratch = ctx.scratch_index();
        let win = self.win.index();
        if rank >= p {
            // Fold out: contribute to the partner, then wait for the result.
            let partner = rank - p;
            self.put_chunks(off, len, plan, partner, scratch, 0);
            self.land_chunks(partner, "rdbl", len, plan);
            return Ok(());
        }
        if rank + p < world {
            // Absorb the folded-out partner's contribution (scratch slot 0).
            self.reduce_chunks(rank + p, "rdbl", off, 0, len, plan);
        }
        for k in 0..rounds {
            let partner = rank ^ (1 << k);
            let slot = (k as usize + 1) * len;
            self.put_chunks(off, len, plan, partner, scratch, slot);
            self.reduce_chunks(partner, "rdbl", off, slot, len, plan);
        }
        if rank + p < world {
            // Return the finished result to the folded-out partner, landing
            // directly in its user region (single writer, no staging needed).
            self.put_chunks(off, len, plan, rank + p, win, off);
        }
        Ok(())
    }

    /// Binomial broadcast from `root`: each rank receives its chunk stream
    /// from its tree parent and forwards every chunk to its children as
    /// soon as it lands, so the fan-out of chunk `k` overlaps the arrival
    /// of chunk `k+1`. Data lands directly at its final offsets (one writer
    /// per rank).
    fn broadcast_binomial(
        &mut self,
        ctx: &RtCtx,
        off: usize,
        len: usize,
        root: u32,
        plan: &CollPlan,
    ) {
        let world = ctx.world_size();
        if world == 1 || len == 0 {
            return;
        }
        let rank = ctx.rank().0;
        let vr = (rank + world - root) % world;
        let to_real = |v: u32| (v + root) % world;
        let children: Vec<u32> = bcast_children(vr, world).into_iter().map(to_real).collect();
        let parent = (vr != 0).then(|| to_real(bcast_parent(vr).1));
        let win = self.win.index();
        for (coff, clen) in chunk_spans(len, plan.chunk_bytes()) {
            if let Some(parent) = parent {
                self.ops.push(Op::Wait {
                    from: parent,
                    chunk: Some("bcast"),
                });
                self.ops.push(Op::Landed);
            }
            for &child in &children {
                self.put(win, off + coff, clen, child, win, off + coff);
            }
        }
    }
}

fn check_scratch(ctx: &RtCtx, need: usize) -> Result<(), RtError> {
    let have = ctx.scratch_len();
    if need > have {
        return Err(RtError::Coll(CollError::ScratchTooSmall { need, have }));
    }
    Ok(())
}
