//! The collective engine: notified-RMA collectives with chunked
//! compute/communication overlap, executed on [`RtCtx`].
//!
//! Every collective here is built *purely* from the runtime's existing
//! primitive — a window put that enqueues a notification at the target —
//! no new transport machinery. What makes the traffic a collective rather
//! than user communication is the tag space: collective puts carry
//! [`COLL_TAG_BIT`] (bit 31) and per-peer monotonic sequence numbers, are
//! buffered in a separate internal notification queue, and are invisible to
//! the user-facing counters (`puts` / `notifications` / `matched`), user
//! wildcard queries and the invariant-verification ledger. Deterministic
//! collective work is reported separately through [`CollStats`].
//!
//! Overlap model (the NeMo TP-overlap trick): within one schedule step all
//! outgoing chunk puts are posted *before* the first incoming chunk is
//! awaited, so while chunk *k* is being reduced locally, chunks *k+1..* are
//! in flight. A chunk wait whose notification has already arrived at first
//! poll counts as *hidden* (the transfer was fully overlapped by compute);
//! one that has to spin counts as *blocked*. The hidden fraction is what
//! the repo benchmark's `coll.hidden_frac` row reports and CI gates on.
//!
//! Incoming data never lands in live buffers: each schedule step/round has
//! its own disjoint slot in a hidden per-rank scratch window (appended
//! after the user windows, sized by `RtConfig::coll_scratch`), so a fast
//! peer running several steps ahead can never clobber bytes that are still
//! being reduced. [`dcuda_coll::allreduce_scratch_bytes`] is the sizing
//! contract; undersized scratch surfaces as
//! [`CollError::ScratchTooSmall`].

use crate::ctx::RtCtx;
use crate::types::{Rank, RtError, WindowId};
use dcuda_coll::{
    bcast_children, bcast_parent, ceil_log2, chunk_spans, max_segment_bytes, pow2_floor,
    reduce_into, ring_left, ring_right, segment_range, CollAlgo, CollError, CollPlan,
};
use dcuda_trace::Track;

/// Tag bit reserved for collective-engine traffic. User `put_notify` tags
/// must leave it clear ([`RtError::ReservedTag`] otherwise); queries are
/// unaffected (`Tag::ANY` still matches only user notifications, because
/// collective notifications are buffered separately).
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

/// Collective operations over the rank's registered windows.
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
        check_region(self, win, off, len, plan.dtype().size())?;
        barrier_impl(self)?;
        match plan.algo() {
            CollAlgo::Ring => allreduce_ring(self, win, off, len, plan),
            CollAlgo::Tree => allreduce_tree(self, win, off, len, plan),
            CollAlgo::RecursiveDoubling => allreduce_rdbl(self, win, off, len, plan),
        }
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
        check_region(self, win, off, len, plan.dtype().size())?;
        barrier_impl(self)?;
        reduce_scatter_ring(self, win, off, len, plan, 0)
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
        check_region(self, win, off, len, plan.dtype().size())?;
        barrier_impl(self)?;
        all_gather_ring(self, win, off, len, plan, 0)
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
        check_region(self, win, off, len, plan.dtype().size())?;
        if root.0 >= self.world_size() {
            return Err(RtError::Coll(CollError::RootOutOfRange {
                root: root.0,
                world: self.world_size(),
            }));
        }
        barrier_impl(self)?;
        broadcast_binomial(self, win, off, len, root.0, plan)
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
        // Window layouts are identical on every rank, so validating both the
        // local source range and the (remote) destination range against the
        // local window covers the symmetric call on the neighbour. Pure
        // validation — no borrow, so no race-detector event.
        for start in [src_off, dst_off] {
            self.user_win_range(win, start, len)?;
        }
        let world = self.world_size();
        let rank = self.rank().0;
        let right = ring_right(rank, world);
        let left = ring_left(rank, world);
        let tag = self.next_coll_tag(right);
        self.put_internal(win.index(), src_off, len, right, win.index(), dst_off, tag)?;
        let expect = self.expect_coll_tag(left);
        wait_chunk(self, left, expect, "shift")?;
        self.coll.chunks += 1;
        Ok(())
    }

    fn ring_shift(&mut self, win: WindowId, dst_off: usize, src_off: usize, len: usize) {
        let rank = self.rank().0;
        self.try_ring_shift(win, dst_off, src_off, len)
            .unwrap_or_else(|e| panic!("rank {rank}: ring_shift: {e}"));
    }

    fn try_ring_release(&mut self) -> Result<(), RtError> {
        let world = self.world_size();
        let rank = self.rank().0;
        let right = ring_right(rank, world);
        let left = ring_left(rank, world);
        let scratch = self.scratch_index();
        let tag = self.next_coll_tag(left);
        self.put_internal(scratch, 0, 0, left, scratch, 0, tag)?;
        let expect = self.expect_coll_tag(right);
        self.wait_internal(right, expect, false)?;
        Ok(())
    }

    fn ring_release(&mut self) {
        let rank = self.rank().0;
        self.try_ring_release()
            .unwrap_or_else(|e| panic!("rank {rank}: ring_release: {e}"));
    }
}

/// The world barrier, reimplemented on the collective engine: a
/// dissemination barrier of `ceil(log2(world))` rounds of zero-length
/// notified puts — round `k` signals rank `r + 2^k` and waits on rank
/// `r - 2^k`, after which every rank has transitively heard from every
/// other. Runs entirely in the reserved tag space; no host-side state.
pub(crate) fn barrier_impl(ctx: &mut RtCtx) -> Result<(), RtError> {
    let world = ctx.world_size();
    let rank = ctx.rank().0;
    let scratch = ctx.scratch_index();
    let mut k = 1u32;
    while k < world {
        let to = (rank + k) % world;
        let from = (rank + world - k) % world;
        let tag = ctx.next_coll_tag(to);
        ctx.put_internal(scratch, 0, 0, to, scratch, 0, tag)?;
        let expect = ctx.expect_coll_tag(from);
        ctx.wait_internal(from, expect, false)?;
        k <<= 1;
    }
    Ok(())
}

/// Validate a collective's region arguments against the rank's (user)
/// window layout and the plan's element size.
fn check_region(
    ctx: &RtCtx,
    win: WindowId,
    off: usize,
    len: usize,
    elem: usize,
) -> Result<(), RtError> {
    // Argument validation only — deliberately not a window borrow, so the
    // race detector sees no access here (a whole-window read would report
    // the collective's own in-flight chunks as races).
    ctx.user_win_range(win, off, len)?;
    if !len.is_multiple_of(elem) {
        return Err(RtError::Coll(CollError::BufferMisaligned { len, elem }));
    }
    Ok(())
}

fn check_scratch(ctx: &RtCtx, need: usize) -> Result<(), RtError> {
    let have = ctx.scratch_len();
    if need > have {
        return Err(RtError::Coll(CollError::ScratchTooSmall { need, have }));
    }
    Ok(())
}

/// Wait for one data chunk's notification, metering the hidden/blocked
/// split and recording a per-chunk `coll_wait` span when tracing.
fn wait_chunk(ctx: &mut RtCtx, from: u32, tag: u32, phase: &'static str) -> Result<bool, RtError> {
    let start = ctx.trace_tick();
    let hidden = ctx.wait_internal(from, tag, true)?;
    if ctx.tracer.is_enabled() {
        let end = ctx.trace_tick();
        let rank = ctx.rank().0;
        ctx.tracer.span(
            Track::Rank(rank),
            "coll_wait",
            start,
            end,
            vec![
                ("hidden", u64::from(hidden).into()),
                ("phase", phase.into()),
            ],
        );
    }
    Ok(hidden)
}

/// Reduce `len` bytes of scratch (at `scratch_off`) into the user window
/// region at `dst`, recording a per-chunk `coll_reduce` span when tracing.
fn reduce_chunk(
    ctx: &mut RtCtx,
    win: WindowId,
    dst: usize,
    scratch_off: usize,
    len: usize,
    plan: &CollPlan,
) -> Result<(), RtError> {
    let start = ctx.trace_tick();
    ctx.reduce_scratch_into(win, dst, scratch_off, len, |acc, src| {
        reduce_into(acc, src, plan.op(), plan.dtype()).map_err(RtError::Coll)
    })?;
    ctx.coll.chunks += 1;
    if ctx.tracer.is_enabled() {
        let end = ctx.trace_tick();
        let rank = ctx.rank().0;
        ctx.tracer.span(
            Track::Rank(rank),
            "coll_reduce",
            start,
            end,
            vec![("bytes", (len as u64).into())],
        );
    }
    Ok(())
}

/// Ring reduce-scatter: `world - 1` steps; at step `s` rank `r` sends
/// segment `(r + own - 1 - s) mod world` to its right neighbour and reduces
/// the segment arriving from the left (one lower) into its own buffer, so
/// the segment received at step `s` is exactly the one forwarded at step
/// `s + 1` — the classic ring pipeline. Each step's incoming segment lands
/// in its own scratch slot. After the final step rank `r` fully owns
/// segment `(r + own) mod world`: `own = 0` is the standalone contract
/// (each rank ends with its own segment reduced), `own = 1` the
/// allreduce-internal convention that feeds the `shift = 1` all-gather.
fn reduce_scatter_ring(
    ctx: &mut RtCtx,
    win: WindowId,
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
    let right = ring_right(rank, world);
    let left = ring_left(rank, world);
    let scratch = ctx.scratch_index();
    for step in 0..world - 1 {
        let send_seg = (rank + own + 2 * world - 1 - step) % world;
        let recv_seg = (send_seg + world - 1) % world;
        let send = segment_range(len, elem, world, send_seg);
        let recv = segment_range(len, elem, world, recv_seg);
        let slot = step as usize * seg_max;
        // Post every outgoing chunk of this step before awaiting anything:
        // chunk k+1 is in flight while chunk k is being reduced below.
        for (coff, clen) in chunk_spans(send.len(), plan.chunk_bytes()) {
            let tag = ctx.next_coll_tag(right);
            ctx.put_internal(
                win.index(),
                off + send.start + coff,
                clen,
                right,
                scratch,
                slot + coff,
                tag,
            )?;
        }
        for (coff, clen) in chunk_spans(recv.len(), plan.chunk_bytes()) {
            let tag = ctx.expect_coll_tag(left);
            wait_chunk(ctx, left, tag, "rs")?;
            reduce_chunk(ctx, win, off + recv.start + coff, slot + coff, clen, plan)?;
        }
    }
    Ok(())
}

/// Ring all-gather: `world - 1` steps; at step `s` rank `r` forwards
/// segment `(r + shift - s) mod world` to its right neighbour; incoming
/// segments land directly at their final offsets (each is written exactly
/// once, so no scratch staging is needed). `shift = 0` is the standalone
/// contract (each rank contributes its own segment); `shift = 1` is the
/// allreduce phase-2 convention (each rank starts owning segment `r + 1`).
fn all_gather_ring(
    ctx: &mut RtCtx,
    win: WindowId,
    off: usize,
    len: usize,
    plan: &CollPlan,
    shift: u32,
) -> Result<(), RtError> {
    let world = ctx.world_size();
    if world == 1 || len == 0 {
        return Ok(());
    }
    let elem = plan.dtype().size();
    let rank = ctx.rank().0;
    let right = ring_right(rank, world);
    let left = ring_left(rank, world);
    for step in 0..world - 1 {
        let send_seg = (rank + shift + world - step) % world;
        let recv_seg = (send_seg + world - 1) % world;
        let send = segment_range(len, elem, world, send_seg);
        let recv = segment_range(len, elem, world, recv_seg);
        for (coff, clen) in chunk_spans(send.len(), plan.chunk_bytes()) {
            let tag = ctx.next_coll_tag(right);
            ctx.put_internal(
                win.index(),
                off + send.start + coff,
                clen,
                right,
                win.index(),
                off + send.start + coff,
                tag,
            )?;
        }
        for _ in chunk_spans(recv.len(), plan.chunk_bytes()) {
            let tag = ctx.expect_coll_tag(left);
            wait_chunk(ctx, left, tag, "ag")?;
            ctx.coll.chunks += 1;
        }
    }
    Ok(())
}

/// Ring allreduce: reduce-scatter phase then all-gather phase, both
/// chunked. 2(world-1) steps moving ~2·len/world bytes each — the
/// bandwidth-optimal schedule.
fn allreduce_ring(
    ctx: &mut RtCtx,
    win: WindowId,
    off: usize,
    len: usize,
    plan: &CollPlan,
) -> Result<(), RtError> {
    reduce_scatter_ring(ctx, win, off, len, plan, 1)?;
    all_gather_ring(ctx, win, off, len, plan, 1)
}

/// Binomial-tree allreduce: reduce to rank 0 up the tree (each round's
/// incoming buffer lands in its own scratch slot), then broadcast the
/// result back down. Works for any world size.
fn allreduce_tree(
    ctx: &mut RtCtx,
    win: WindowId,
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
        match dcuda_coll::tree_reduce_step(rank, world, k) {
            dcuda_coll::TreeStep::SendTo(parent) => {
                for (coff, clen) in chunk_spans(len, plan.chunk_bytes()) {
                    let tag = ctx.next_coll_tag(parent);
                    ctx.put_internal(
                        win.index(),
                        off + coff,
                        clen,
                        parent,
                        scratch,
                        k as usize * len + coff,
                        tag,
                    )?;
                }
                break;
            }
            dcuda_coll::TreeStep::RecvFrom(child) => {
                let slot = k as usize * len;
                for (coff, clen) in chunk_spans(len, plan.chunk_bytes()) {
                    let tag = ctx.expect_coll_tag(child);
                    wait_chunk(ctx, child, tag, "tree")?;
                    reduce_chunk(ctx, win, off + coff, slot + coff, clen, plan)?;
                }
            }
            dcuda_coll::TreeStep::Idle => {}
        }
    }
    broadcast_binomial(ctx, win, off, len, 0, plan)
}

/// Recursive-doubling allreduce: the ranks beyond the largest power of two
/// fold into their partners first, the power-of-two sub-world exchanges
/// full buffers pairwise over `log2` rounds (each round's incoming buffer
/// in its own scratch slot), and the folded-out ranks receive the finished
/// result.
fn allreduce_rdbl(
    ctx: &mut RtCtx,
    win: WindowId,
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
    if rank >= p {
        // Fold out: contribute to the partner, then wait for the result.
        let partner = rank - p;
        for (coff, clen) in chunk_spans(len, plan.chunk_bytes()) {
            let tag = ctx.next_coll_tag(partner);
            ctx.put_internal(win.index(), off + coff, clen, partner, scratch, coff, tag)?;
        }
        for _ in chunk_spans(len, plan.chunk_bytes()) {
            let tag = ctx.expect_coll_tag(partner);
            wait_chunk(ctx, partner, tag, "rdbl")?;
            ctx.coll.chunks += 1;
        }
        return Ok(());
    }
    if rank + p < world {
        // Absorb the folded-out partner's contribution (scratch slot 0).
        let extra = rank + p;
        for (coff, clen) in chunk_spans(len, plan.chunk_bytes()) {
            let tag = ctx.expect_coll_tag(extra);
            wait_chunk(ctx, extra, tag, "rdbl")?;
            reduce_chunk(ctx, win, off + coff, coff, clen, plan)?;
        }
    }
    for k in 0..rounds {
        let partner = rank ^ (1 << k);
        let slot = (k as usize + 1) * len;
        for (coff, clen) in chunk_spans(len, plan.chunk_bytes()) {
            let tag = ctx.next_coll_tag(partner);
            ctx.put_internal(
                win.index(),
                off + coff,
                clen,
                partner,
                scratch,
                slot + coff,
                tag,
            )?;
        }
        for (coff, clen) in chunk_spans(len, plan.chunk_bytes()) {
            let tag = ctx.expect_coll_tag(partner);
            wait_chunk(ctx, partner, tag, "rdbl")?;
            reduce_chunk(ctx, win, off + coff, slot + coff, clen, plan)?;
        }
    }
    if rank + p < world {
        // Return the finished result to the folded-out partner, landing
        // directly in its user region (single writer, no staging needed).
        let extra = rank + p;
        for (coff, clen) in chunk_spans(len, plan.chunk_bytes()) {
            let tag = ctx.next_coll_tag(extra);
            ctx.put_internal(
                win.index(),
                off + coff,
                clen,
                extra,
                win.index(),
                off + coff,
                tag,
            )?;
        }
    }
    Ok(())
}

/// Binomial broadcast from `root`: each rank receives its chunk stream from
/// its tree parent and forwards every chunk to its children as soon as it
/// lands, so the fan-out of chunk `k` overlaps the arrival of chunk `k+1`.
/// Data lands directly at its final offsets (one writer per rank).
fn broadcast_binomial(
    ctx: &mut RtCtx,
    win: WindowId,
    off: usize,
    len: usize,
    root: u32,
    plan: &CollPlan,
) -> Result<(), RtError> {
    let world = ctx.world_size();
    if world == 1 || len == 0 {
        return Ok(());
    }
    let rank = ctx.rank().0;
    let vr = (rank + world - root) % world;
    let to_real = |v: u32| (v + root) % world;
    let children: Vec<u32> = bcast_children(vr, world).into_iter().map(to_real).collect();
    let parent = (vr != 0).then(|| to_real(bcast_parent(vr).1));
    for (coff, clen) in chunk_spans(len, plan.chunk_bytes()) {
        if let Some(parent) = parent {
            let tag = ctx.expect_coll_tag(parent);
            wait_chunk(ctx, parent, tag, "bcast")?;
            ctx.coll.chunks += 1;
        }
        for &child in &children {
            let tag = ctx.next_coll_tag(child);
            ctx.put_internal(
                win.index(),
                off + coff,
                clen,
                child,
                win.index(),
                off + coff,
                tag,
            )?;
        }
    }
    Ok(())
}
