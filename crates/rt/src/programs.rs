//! The reference rank programs, defined once, as async tasks.
//!
//! [`Program`] is the one table of them, and the only place their names
//! are parsed and printed: `dcuda-launch --workload` and the job specs of
//! `dcuda-sched` (whose `JobProgram` is a re-export) name its entries, and
//! each entry carries its window layout, its collective scratch need and
//! its task. The scheduler runs job worlds on the
//! cooperative driver; everything else runs on rank threads through the
//! thread-per-rank adapter ([`thread_per_rank`](crate::thread_per_rank)).
//! Every program is fully determined by `(seed, world, iters, payload)`
//! and returns an FNV-1a checksum of everything the rank received;
//! [`fold_checksums`] combines the per-rank sums order-independently, so a
//! world's checksum is the same however it is partitioned across
//! processes, planes or scheduler slots.
//!
//! Window layout (window 0): `[0, payload)` is the staging buffer puts copy
//! out of, `[payload, 2*payload)` the inbox the left/partner rank writes
//! and, for the stencil, `[2*payload, 3*payload)` the inbox the right
//! neighbour writes. The collective programs reduce one `u64`-aligned
//! buffer in place.

use crate::cluster::{RtConfig, RtConfigBuilder, DEFAULT_COLL_SCRATCH};
use crate::coll::Collective;
use crate::ctx::RtCtx;
use crate::task::{task, RankTask};
use crate::types::{Rank, RtError, RtQuery, Tag, WindowId};
use dcuda_coll::{
    allreduce_scratch_bytes, reduce_scatter_scratch_bytes, segment_range, CollAlgo, CollPlan,
    Dtype, ReduceOp,
};

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
fn fnv_u64(h: u64, v: u64) -> u64 {
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
    /// Payload bytes per put. Every program runs a zero payload as one
    /// byte, on every driver.
    pub payload: usize,
}

/// The reference programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// Even/odd rank pairs exchange the payload `iters` times (paper
    /// Figure 6 shape): even ranks serve, odd ranks return. The unpaired
    /// last rank of an odd world sits the game out.
    PingPong,
    /// Ring halo exchange with a compute phase between shifts — the overlap
    /// microbenchmark shape (paper Figures 7/8): every iteration the staging
    /// region moves to the right neighbour's inbox while this rank consumes
    /// from its left, and a ring release gates the left neighbour's next
    /// round so nobody overwrites the inbox before it is checksummed.
    Ring,
    /// [`Ring`](Program::Ring) with the scheduler's fault-isolation victim
    /// switch: rank 0 panics at the start of iteration `at_iter`, or after
    /// the last one if it lies beyond, so the run never completes.
    Poison {
        /// Iteration at which rank 0 panics (clamped to the iter count).
        at_iter: u32,
    },
    /// Chunked ring allreduce over `u64` lanes, a world barrier per round.
    Allreduce,
    /// Non-periodic 1-D stencil: halo to both existing neighbours, a world
    /// barrier every iteration (paper Figure 10 shape).
    Stencil,
    /// The collective engine end to end: chunked allreduce cycling through
    /// every algorithm, reduce-scatter, all-gather and a binomial broadcast
    /// each iteration.
    Coll,
    /// Deliberately broken pingpong: rank 1 reads its inbox *before*
    /// waiting for rank 0's notification, so the run contains exactly one
    /// racy pair — the negative fixture the happens-before race detector
    /// must catch deterministically. Every other rank behaves.
    Racey,
}

/// The allreduce algorithms the [`Program::Coll`] tour cycles through.
const ALGOS: [CollAlgo; 3] = [CollAlgo::Ring, CollAlgo::Tree, CollAlgo::RecursiveDoubling];

impl Program {
    /// Parse a program name: `pingpong`, `ring`, `poison:<n>`,
    /// `allreduce`, `stencil`, `coll` or `racey`. The launcher's
    /// `--workload` and the scheduler's job specs take these names.
    pub fn parse(name: &str) -> Result<Program, String> {
        Ok(match name {
            "pingpong" => Program::PingPong,
            "ring" => Program::Ring,
            "allreduce" => Program::Allreduce,
            "stencil" => Program::Stencil,
            "coll" => Program::Coll,
            "racey" => Program::Racey,
            other => match other.strip_prefix("poison:") {
                Some(n) => Program::Poison {
                    at_iter: n
                        .parse()
                        .map_err(|_| format!("bad poison iteration {n:?}"))?,
                },
                None => {
                    return Err(format!(
                        "unknown program {other:?} (expected pingpong, ring, poison:<n>, \
                         allreduce, stencil, coll or racey)"
                    ))
                }
            },
        })
    }

    /// Canonical name, which [`parse`](Program::parse) reads back.
    pub fn name(self) -> String {
        match self {
            Program::PingPong => "pingpong".into(),
            Program::Ring => "ring".into(),
            Program::Poison { at_iter } => format!("poison:{at_iter}"),
            Program::Allreduce => "allreduce".into(),
            Program::Stencil => "stencil".into(),
            Program::Coll => "coll".into(),
            Program::Racey => "racey".into(),
        }
    }

    /// The window layout every rank registers.
    pub fn windows(self, p: &Params) -> Vec<usize> {
        let regions = match self {
            Program::Allreduce | Program::Coll => return vec![lanes_len(p.payload)],
            Program::Stencil => 3,
            _ => 2,
        };
        vec![p.payload.max(1) * regions]
    }

    /// Collective scratch bytes in a world of `world` ranks: the worst case
    /// over every collective the program runs, floored at the runtime
    /// default, which covers ring shifts and barriers.
    pub fn coll_scratch(self, p: &Params, world: u32) -> usize {
        let len = lanes_len(p.payload);
        let need = match self {
            Program::Allreduce => allreduce_scratch_bytes(CollAlgo::Ring, len, 8, world),
            Program::Coll => ALGOS
                .iter()
                .map(|&algo| allreduce_scratch_bytes(algo, len, 8, world))
                .chain([reduce_scatter_scratch_bytes(len, 8, world)])
                .max()
                .unwrap_or(0),
            _ => 0,
        };
        need.max(DEFAULT_COLL_SCRATCH)
    }

    /// A world of `devices × ranks_per_device` ranks running this program:
    /// its shape, window layout and collective scratch.
    pub fn config(self, p: &Params, devices: u32, ranks_per_device: u32) -> RtConfigBuilder {
        RtConfig::builder()
            .devices(devices)
            .ranks_per_device(ranks_per_device)
            .windows(self.windows(p))
            .coll_scratch(self.coll_scratch(p, devices * ranks_per_device))
    }

    /// `count` tasks of this program, one per rank.
    pub fn tasks(self, p: Params, count: u32) -> Vec<RankTask> {
        let p = Params {
            payload: p.payload.max(1),
            ..p
        };
        (0..count)
            .map(|_| match self {
                Program::PingPong => task(move |ctx| Box::pin(pingpong(ctx, p))),
                Program::Ring => task(move |ctx| Box::pin(ring(ctx, p, None))),
                Program::Poison { at_iter } => {
                    task(move |ctx| Box::pin(ring(ctx, p, Some(at_iter))))
                }
                Program::Allreduce => task(move |ctx| Box::pin(allreduce(ctx, p))),
                Program::Stencil => task(move |ctx| Box::pin(stencil(ctx, p))),
                Program::Coll => task(move |ctx| Box::pin(coll(ctx, p))),
                Program::Racey => task(move |ctx| Box::pin(racey(ctx, p))),
            })
            .collect()
    }
}

/// The hash chain every fill starts from.
fn fill_seed(ctx: &RtCtx, seed: u64, iter: u32) -> u64 {
    let rank = u64::from(ctx.rank().0);
    fnv_u64(fnv_u64(fnv_u64(FNV_OFFSET, seed), rank), u64::from(iter))
}

/// Fill the staging region with bytes derived from (seed, rank, iter,
/// position) — the deterministic stand-in for the compute phase that
/// communication overlaps with.
fn fill_staging(ctx: &mut RtCtx, seed: u64, iter: u32, payload: usize) {
    let mut h = fill_seed(ctx, seed, iter);
    // Range-scoped borrow: the inbox region of the same window receives
    // remote puts concurrently, so the race detector must see this write as
    // touching the staging bytes only.
    for (i, slot) in ctx.win_mut_at(W0, 0, payload).iter_mut().enumerate() {
        h = fnv_u64(h, i as u64);
        *slot = (h >> 24) as u8;
    }
}

/// Reduction-buffer length for a payload: at least one `u64` lane, aligned
/// up to lane granularity.
fn lanes_len(payload: usize) -> usize {
    payload.max(8).div_ceil(8) * 8
}

/// Fill `[0, len)` of window 0 with `u64` lanes derived from (seed, rank,
/// iter, position). Lanes are full-width, so `Sum` reductions wrap — which
/// `u64::wrapping_add` does identically in any reduction order.
fn fill_lanes(ctx: &mut RtCtx, len: usize, seed: u64, iter: u32) {
    let mut h = fill_seed(ctx, seed, iter);
    for (i, lane) in ctx.win_mut_at(W0, 0, len).chunks_exact_mut(8).enumerate() {
        h = fnv_u64(h, i as u64);
        lane.copy_from_slice(&h.to_le_bytes());
    }
}

async fn pingpong(ctx: &mut RtCtx, p: Params) -> Result<u64, RtError> {
    let rank = ctx.rank().0;
    let partner = rank ^ 1;
    if partner >= ctx.world_size() {
        return Ok(FNV_OFFSET);
    }
    let mut sum = FNV_OFFSET;
    for iter in 0..p.iters {
        fill_staging(ctx, p.seed, iter, p.payload);
        if rank.is_multiple_of(2) {
            ctx.try_put_notify(W0, Rank(partner), p.payload, 0, p.payload, Tag(iter))?;
        }
        ctx.wait_notifications_async(RtQuery::exact(W0, Rank(partner), Tag(iter)), 1)
            .await?;
        // Odd ranks read *before* replying: the reply is the only thing
        // telling the partner it may overwrite this inbox next iteration,
        // so a read placed after it would race with that next put.
        sum = fnv_bytes(sum, ctx.win_at(W0, p.payload, p.payload));
        if !rank.is_multiple_of(2) {
            ctx.try_put_notify(W0, Rank(partner), p.payload, 0, p.payload, Tag(iter))?;
        }
    }
    ctx.flush_async().await?;
    Ok(sum)
}

async fn ring(ctx: &mut RtCtx, p: Params, poison_at: Option<u32>) -> Result<u64, RtError> {
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
            Collective::ring_shift(ctx, W0, p.payload, 0, p.payload)?
                .run(ctx)
                .await?;
            sum = fnv_bytes(sum, ctx.win_at(W0, p.payload, p.payload));
            Collective::ring_release(ctx).run(ctx).await?;
        } else {
            // Single-rank world: the shift would copy staging onto the
            // inbox, so checksum the staging fill.
            sum = fnv_bytes(sum, ctx.win_at(W0, 0, p.payload));
        }
        if iter % 8 == 7 {
            ctx.flush_async().await?;
        }
    }
    if poison_iter == Some(p.iters) {
        panic!("poisoned after the final iteration");
    }
    ctx.flush_async().await?;
    if world > 1 {
        Collective::barrier(ctx).run(ctx).await?;
    }
    Ok(sum)
}

/// A chunked `u64` `Sum` plan of the given algorithm.
fn lanes_plan(algo: CollAlgo) -> Result<CollPlan, RtError> {
    CollPlan::builder()
        .algo(algo)
        .chunk_bytes(64)
        .op(ReduceOp::Sum)
        .dtype(Dtype::U64)
        .build()
        .map_err(RtError::Coll)
}

async fn allreduce(ctx: &mut RtCtx, p: Params) -> Result<u64, RtError> {
    let len = lanes_len(p.payload);
    let plan = lanes_plan(CollAlgo::Ring)?;
    let mut sum = FNV_OFFSET;
    for iter in 0..p.iters {
        fill_lanes(ctx, len, p.seed, iter);
        Collective::allreduce(ctx, W0, 0, len, &plan)?
            .run(ctx)
            .await?;
        sum = fnv_bytes(sum, ctx.win_at(W0, 0, len));
        Collective::barrier(ctx).run(ctx).await?;
    }
    ctx.flush_async().await?;
    Ok(sum)
}

async fn stencil(ctx: &mut RtCtx, p: Params) -> Result<u64, RtError> {
    let (rank, payload) = (ctx.rank().0, p.payload);
    let left = rank.checked_sub(1);
    let right = (rank + 1 < ctx.world_size()).then_some(rank + 1);
    let mut sum = FNV_OFFSET;
    for iter in 0..p.iters {
        fill_staging(ctx, p.seed, iter, payload);
        // Halo out: my staging lands in the left neighbour's "right" region
        // and the right neighbour's "left" region.
        if let Some(l) = left {
            ctx.try_put_notify(W0, Rank(l), 2 * payload, 0, payload, Tag(iter))?;
        }
        if let Some(r) = right {
            ctx.try_put_notify(W0, Rank(r), payload, 0, payload, Tag(iter))?;
        }
        for n in [left, right].into_iter().flatten() {
            ctx.wait_notifications_async(RtQuery::exact(W0, Rank(n), Tag(iter)), 1)
                .await?;
        }
        sum = fnv_bytes(sum, ctx.win_at(W0, payload, 2 * payload));
        ctx.barrier_async().await?;
    }
    ctx.flush_async().await?;
    Ok(sum)
}

async fn coll(ctx: &mut RtCtx, p: Params) -> Result<u64, RtError> {
    let len = lanes_len(p.payload);
    let (rank, world) = (ctx.rank().0, ctx.world_size());
    let mut sum = FNV_OFFSET;
    for iter in 0..p.iters {
        // Chunked allreduce, cycling through every algorithm so all three
        // schedules cross whichever transport plane is under test.
        let plan = lanes_plan(ALGOS[iter as usize % ALGOS.len()])?;
        fill_lanes(ctx, len, 0x41, iter);
        Collective::allreduce(ctx, W0, 0, len, &plan)?
            .run(ctx)
            .await?;
        sum = fnv_bytes(sum, ctx.win_at(W0, 0, len));

        // Reduce-scatter: only this rank's own segment holds the full
        // reduction afterwards, so only it enters the checksum.
        fill_lanes(ctx, len, 0x52, iter);
        Collective::reduce_scatter(ctx, W0, 0, len, &plan)?
            .run(ctx)
            .await?;
        sum = fnv_bytes(sum, &ctx.win(W0)[segment_range(len, 8, world, rank)]);

        // All-gather redistributes freshly filled own segments.
        fill_lanes(ctx, len, 0x61, iter);
        Collective::all_gather(ctx, W0, 0, len, &plan)?
            .run(ctx)
            .await?;
        sum = fnv_bytes(sum, &ctx.win(W0)[..len]);

        // Broadcast from a deterministic, iteration-varying root.
        fill_lanes(ctx, len, 0x72, iter);
        Collective::broadcast(ctx, W0, 0, len, Rank(iter % world), &plan)?
            .run(ctx)
            .await?;
        sum = fnv_bytes(sum, &ctx.win(W0)[..len]);

        ctx.barrier_async().await?;
    }
    ctx.flush_async().await?;
    Ok(sum)
}

/// One pingpong round with the synchronization deliberately broken on the
/// (0, 1) pair: rank 1 touches its inbox *before* waiting for rank 0's
/// notification, so exactly one racy pair exists — rank 0's remote write of
/// `[payload, 2*payload)` against rank 1's premature read of the same
/// bytes. The premature read's bytes are discarded so run output stays
/// deterministic even though the race is real; the iteration count is
/// ignored so the racy pair is unique.
async fn racey(ctx: &mut RtCtx, p: Params) -> Result<u64, RtError> {
    let (rank, payload) = (ctx.rank().0, p.payload);
    let partner = rank ^ 1;
    let mut sum = FNV_OFFSET;
    if partner < ctx.world_size() {
        if rank.is_multiple_of(2) {
            fill_staging(ctx, p.seed, 0, payload);
            ctx.try_put_notify(W0, Rank(partner), payload, 0, payload, Tag(0))?;
            ctx.flush_async().await?;
        } else {
            if rank == 1 {
                // BUG, on purpose: no wait before the inbox read. Under
                // strict race detection this access aborts the rank with
                // the report; under observe it lands in `RtReport.races`.
                let _ = ctx.win_at(W0, payload, payload);
            }
            ctx.wait_notifications_async(RtQuery::exact(W0, Rank(partner), Tag(0)), 1)
                .await?;
            sum = fnv_bytes(sum, ctx.win_at(W0, payload, payload));
        }
    }
    ctx.barrier_async().await?;
    Ok(sum)
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
