//! The reference rank programs, defined once.
//!
//! `dcuda-launch`'s conformance workloads (`dcuda::workloads`) and the job
//! registry of `dcuda-sched` run the same programs; both are thin adapters
//! over the definitions here. Every program is fully determined by
//! `(seed, world, iters, payload)` and returns an FNV-1a checksum of
//! everything the rank received; [`fold_checksums`] combines the per-rank
//! sums order-independently, so a world's checksum is the same however it is
//! partitioned across processes, planes or scheduler slots.
//!
//! Window layout (window 0): `[0, payload)` is the staging buffer puts copy
//! out of, `[payload, 2*payload)` the inbox the left/partner rank writes.

use crate::coll::CollCtx;
use crate::ctx::RtCtx;
use crate::types::{Rank, RtQuery, Tag, WindowId};
use dcuda_coll::CollPlan;

/// FNV-1a offset basis: the initial value of every checksum.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

const W0: WindowId = WindowId(0);

/// Fold `bytes` into the running FNV-1a hash `h`.
pub fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold one `u64` (little-endian) into the running hash.
pub fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv_bytes(h, &v.to_le_bytes())
}

/// Fold `(rank, checksum)` pairs into the world checksum: an
/// order-independent wrapping sum of rank-salted values, so partial folds
/// over any partition of the world add up to the whole.
pub fn fold_checksums(ranks: impl IntoIterator<Item = (u32, u64)>) -> u64 {
    ranks.into_iter().fold(0u64, |acc, (rank, sum)| {
        acc.wrapping_add(fnv_u64(fnv_u64(FNV_OFFSET, u64::from(rank)), sum))
    })
}

/// What determines a program's data, besides the world it runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Determinism seed of the generated data.
    pub seed: u64,
    /// Communication rounds.
    pub iters: u32,
    /// Payload bytes per put.
    pub payload: usize,
}

/// The hash chain every fill starts from.
fn fill_seed(ctx: &RtCtx, seed: u64, iter: u32) -> u64 {
    let rank = u64::from(ctx.rank().0);
    fnv_u64(fnv_u64(fnv_u64(FNV_OFFSET, seed), rank), u64::from(iter))
}

/// Fill the staging region with bytes derived from (seed, rank, iter,
/// position) — the deterministic stand-in for the compute phase that
/// communication overlaps with.
pub fn fill_staging(ctx: &mut RtCtx, seed: u64, iter: u32, payload: usize) {
    let mut h = fill_seed(ctx, seed, iter);
    // Range-scoped borrow: the inbox region of the same window receives
    // remote puts concurrently, so the race detector must see this write as
    // touching the staging bytes only.
    for (i, slot) in ctx.win_mut_at(W0, 0, payload).iter_mut().enumerate() {
        h = fnv_u64(h, i as u64);
        *slot = (h >> 24) as u8;
    }
}

/// Even/odd rank pairs exchange the payload `iters` times (paper Figure 6
/// shape): even ranks serve, odd ranks return. The unpaired last rank of an
/// odd world sits the game out.
pub fn pingpong(ctx: &mut RtCtx, p: Params) -> u64 {
    let rank = ctx.rank().0;
    let partner = rank ^ 1;
    let mut sum = FNV_OFFSET;
    if partner >= ctx.world_size() {
        return sum;
    }
    for iter in 0..p.iters {
        fill_staging(ctx, p.seed, iter, p.payload);
        let q = RtQuery::exact(W0, Rank(partner), Tag(iter));
        if rank.is_multiple_of(2) {
            ctx.put_notify(W0, Rank(partner), p.payload, 0, p.payload, Tag(iter));
            ctx.wait_notifications(q, 1);
            sum = fnv_bytes(sum, ctx.win_at(W0, p.payload, p.payload));
        } else {
            ctx.wait_notifications(q, 1);
            // Read *before* replying: the reply is the only thing telling
            // the partner it may overwrite this inbox next iteration, so a
            // read placed after it would race with that next put.
            sum = fnv_bytes(sum, ctx.win_at(W0, p.payload, p.payload));
            ctx.put_notify(W0, Rank(partner), p.payload, 0, p.payload, Tag(iter));
        }
    }
    ctx.flush();
    sum
}

/// Ring halo exchange with a compute phase between shifts — the overlap
/// microbenchmark shape (paper Figures 7/8): every iteration the staging
/// region moves to the right neighbour's inbox while this rank consumes from
/// its left; `ring_release` gates the left neighbour's next round so nobody
/// overwrites the inbox between the shift and the checksum.
///
/// `poison_at` is the scheduler's fault-isolation victim switch: rank 0
/// panics at the start of that iteration, or after the last one if the
/// trigger lies beyond it — a poisoned run never completes.
pub fn ring(ctx: &mut RtCtx, p: Params, poison_at: Option<u32>) -> u64 {
    let world = ctx.world_size();
    let poison_iter = poison_at
        .filter(|_| ctx.rank().0 == 0)
        .map(|at| at.min(p.iters));
    let mut sum = FNV_OFFSET;
    for iter in 0..p.iters {
        if poison_iter == Some(iter) {
            panic!("poisoned at iteration {iter}");
        }
        fill_staging(ctx, p.seed, iter, p.payload);
        if world > 1 {
            ctx.ring_shift(W0, p.payload, 0, p.payload);
            sum = fnv_bytes(sum, ctx.win_at(W0, p.payload, p.payload));
            ctx.ring_release();
        } else {
            // Single-rank world: the shift would copy staging onto the
            // inbox, so checksum the staging fill directly.
            sum = fnv_bytes(sum, ctx.win_at(W0, 0, p.payload));
        }
        if iter % 8 == 7 {
            ctx.flush();
        }
    }
    if poison_iter == Some(p.iters) {
        panic!("poisoned after the final iteration");
    }
    ctx.flush();
    if world > 1 {
        ctx.barrier();
    }
    sum
}

/// Reduction-buffer length for a payload: at least one `u64` lane, aligned
/// up to lane granularity.
pub fn lanes_len(payload: usize) -> usize {
    payload.max(8).div_ceil(8) * 8
}

/// Fill `[0, len)` of window 0 with `u64` lanes derived from (seed, rank,
/// iter, position). Lanes are full-width, so `Sum` reductions wrap — which
/// `u64::wrapping_add` does identically in any reduction order.
pub fn fill_lanes(ctx: &mut RtCtx, len: usize, seed: u64, iter: u32) {
    let mut h = fill_seed(ctx, seed, iter);
    for (i, lane) in ctx.win_mut_at(W0, 0, len).chunks_exact_mut(8).enumerate() {
        h = fnv_u64(h, i as u64);
        lane.copy_from_slice(&h.to_le_bytes());
    }
}

/// One allreduce round: fill the lanes, reduce them in place under `plan`,
/// and fold the result into `sum`.
pub fn allreduce_step(
    ctx: &mut RtCtx,
    plan: &CollPlan,
    len: usize,
    seed: u64,
    iter: u32,
    sum: u64,
) -> u64 {
    fill_lanes(ctx, len, seed, iter);
    ctx.allreduce(W0, 0, len, plan);
    fnv_bytes(sum, ctx.win_at(W0, 0, len))
}

#[cfg(test)]
mod tests {
    use super::fold_checksums;

    #[test]
    fn checksum_fold_is_partition_independent() {
        let parts = [(0u32, 7u64), (1, 11), (2, 13), (3, 17)];
        let whole = fold_checksums(parts);
        let a = fold_checksums(parts[..2].iter().copied());
        let b = fold_checksums(parts[2..].iter().copied());
        assert_eq!(whole, a.wrapping_add(b));
        let swapped = fold_checksums([parts[2], parts[0], parts[3], parts[1]]);
        assert_eq!(whole, swapped);
    }
}
