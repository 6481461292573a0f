//! Backend-conformance workloads for the threaded runtime.
//!
//! These are the reference programs `dcuda-launch` and the conformance
//! suite run on *both* transport backends: the same world, seeded the same
//! way, must produce byte-identical protocol counters and window checksums
//! whether the cluster shares one OS process ([`dcuda_rt::try_run_cluster`])
//! or is split across a socket mesh ([`dcuda_rt::try_run_cluster_part`]).
//! Programs are built per world rank, so a worker process materializes only
//! its slice; each rank folds everything it received into an order-
//! independent checksum published through an `AtomicU64`.
//!
//! The pingpong and overlap programs are the shared task definitions of
//! [`dcuda_rt::programs`], run here on rank threads — the scheduler's job
//! registry runs the very same tasks — so this module only adds the
//! launcher-specific variants (stencil, the full collective tour, the racy
//! negative fixture).

use dcuda_coll::segment_range;
use dcuda_rt::cluster::RankProgram;
use dcuda_rt::programs::{self, fill_lanes, fill_staging, fnv_bytes, Params, FNV_OFFSET};
use dcuda_rt::{
    allreduce_scratch_bytes, reduce_scatter_scratch_bytes, run_blocking, CollAlgo, CollCtx,
    CollPlan, Dtype, Rank, RankTask, ReduceOp, RtCtx, RtQuery, Tag, WindowId, DEFAULT_COLL_SCRATCH,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The conformance workload set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Even/odd rank pairs exchange a payload `iters` times (paper Figure 6
    /// shape): even ranks serve, odd ranks return.
    PingPong,
    /// Ring halo exchange with a compute phase between puts — the overlap
    /// microbenchmark shape (paper Figures 7/8): every rank sends to its
    /// right neighbor and consumes from its left, flushing periodically.
    Overlap,
    /// Non-periodic 1-D stencil: halo to both existing neighbors, a world
    /// barrier every iteration (paper Figure 10 shape).
    Stencil,
    /// The collective engine end to end: chunked allreduce cycling through
    /// every algorithm, reduce-scatter, all-gather and a binomial broadcast
    /// each iteration, all expressed as notified RMA on the hidden scratch
    /// window.
    Coll,
    /// Deliberately broken pingpong: rank 1 reads its inbox *before*
    /// waiting for rank 0's notification, so the run contains exactly one
    /// racy pair — the negative fixture the happens-before race detector
    /// must catch deterministically. Every other rank behaves.
    Racey,
}

impl Workload {
    /// Parse a workload name (`pingpong`, `overlap`, `stencil`, `coll`,
    /// `racey`).
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "pingpong" => Ok(Workload::PingPong),
            "overlap" => Ok(Workload::Overlap),
            "stencil" => Ok(Workload::Stencil),
            "coll" => Ok(Workload::Coll),
            "racey" => Ok(Workload::Racey),
            other => Err(format!(
                "unknown workload {other:?} (expected pingpong, overlap, stencil, coll or racey)"
            )),
        }
    }

    /// Canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::PingPong => "pingpong",
            Workload::Overlap => "overlap",
            Workload::Stencil => "stencil",
            Workload::Coll => "coll",
            Workload::Racey => "racey",
        }
    }
}

/// A fully specified conformance run: workload shape, iteration count and
/// per-message payload size.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Which program every rank executes.
    pub workload: Workload,
    /// Iterations (communication rounds).
    pub iters: u32,
    /// Payload bytes per put.
    pub payload: usize,
}

/// Window region layout: `[0, payload)` is the staging buffer puts copy out
/// of, `[payload, 2*payload)` receives from the left/partner rank,
/// `[2*payload, 3*payload)` receives from the right neighbor.
const REGIONS: usize = 3;

impl WorkloadSpec {
    /// Data seed of every launcher run — the default of
    /// `dcuda_sched::JobSpec::small`, so `--workload overlap` and a default
    /// `ring` job of the same shape produce the same checksum.
    pub const SEED: u64 = 1;

    /// The shared-program parameters of this run.
    fn params(&self) -> Params {
        Params {
            seed: Self::SEED,
            iters: self.iters,
            payload: self.payload,
        }
    }

    /// The window layout every rank of this run registers. The collective
    /// workload reduces `u64` vectors in place, so its single region is the
    /// payload rounded up to element granularity.
    pub fn windows(&self) -> Vec<usize> {
        match self.workload {
            Workload::Coll => vec![programs::lanes_len(self.payload)],
            _ => vec![self.payload.max(1) * REGIONS],
        }
    }

    /// Scratch-window bytes the run's collectives need: the worst case over
    /// every algorithm the coll workload cycles through, floored at the
    /// runtime default so the other workloads' `ring_shift`/barrier traffic
    /// is always covered.
    pub fn coll_scratch(&self, world: u32) -> usize {
        let need = match self.workload {
            Workload::Coll => {
                let len = programs::lanes_len(self.payload);
                [CollAlgo::Ring, CollAlgo::Tree, CollAlgo::RecursiveDoubling]
                    .into_iter()
                    .map(|algo| allreduce_scratch_bytes(algo, len, 8, world))
                    .chain(std::iter::once(reduce_scatter_scratch_bytes(len, 8, world)))
                    .max()
                    .unwrap_or(0)
            }
            _ => 0,
        };
        need.max(DEFAULT_COLL_SCRATCH)
    }

    /// Build programs for world ranks `first_rank .. first_rank + count`,
    /// returning each rank's program paired with the cell its checksum is
    /// published into when the program completes.
    pub fn programs_for(
        &self,
        world: u32,
        first_rank: u32,
        count: u32,
    ) -> Vec<(RankProgram, Arc<AtomicU64>)> {
        (first_rank..first_rank + count)
            .map(|_rank| {
                let spec = *self;
                let cell = Arc::new(AtomicU64::new(0));
                let out = cell.clone();
                let program: RankProgram = Box::new(move |ctx: &mut RtCtx| {
                    let sum = match spec.workload {
                        Workload::PingPong => run_task(ctx, programs::pingpong(spec.params())),
                        Workload::Overlap => run_task(ctx, programs::ring(spec.params(), None)),
                        Workload::Stencil => run_stencil(ctx, spec, world),
                        Workload::Coll => run_coll(ctx, spec, world),
                        Workload::Racey => run_racey(ctx, spec, world),
                    };
                    out.store(sum, Ordering::Release);
                });
                (program, cell)
            })
            .collect()
    }
}

/// Run a shared task program on this rank thread.
fn run_task(ctx: &mut RtCtx, mut task: impl RankTask) -> u64 {
    let rank = ctx.rank().0;
    run_blocking(ctx, &mut task).unwrap_or_else(|e| panic!("rank {rank}: {e}"))
}

fn run_coll(ctx: &mut RtCtx, spec: WorkloadSpec, world: u32) -> u64 {
    let len = programs::lanes_len(spec.payload);
    let rank = ctx.rank().0;
    let win = WindowId(0);
    let algos = [CollAlgo::Ring, CollAlgo::Tree, CollAlgo::RecursiveDoubling];
    let mut sum = FNV_OFFSET;
    for iter in 0..spec.iters {
        // Chunked allreduce, cycling through every algorithm so all three
        // schedules cross whichever transport plane is under test.
        let plan = CollPlan::builder()
            .algo(algos[iter as usize % algos.len()])
            .chunk_bytes(64)
            .op(ReduceOp::Sum)
            .dtype(Dtype::U64)
            .build()
            .expect("valid coll plan");
        sum = programs::allreduce_step(ctx, &plan, len, 0x41, iter, sum);

        // Reduce-scatter: only this rank's own segment holds the full
        // reduction afterwards, so only it enters the checksum.
        fill_lanes(ctx, len, 0x52, iter);
        ctx.reduce_scatter(win, 0, len, &plan);
        let own = segment_range(len, 8, world, rank);
        sum = fnv_bytes(sum, &ctx.win(win)[own.clone()]);

        // All-gather redistributes freshly filled own segments.
        fill_lanes(ctx, len, 0x61, iter);
        ctx.all_gather(win, 0, len, &plan);
        sum = fnv_bytes(sum, &ctx.win(win)[..len]);

        // Broadcast from a deterministic, iteration-varying root.
        let root = iter % world;
        fill_lanes(ctx, len, 0x72, iter);
        ctx.broadcast(win, 0, len, Rank(root), &plan);
        sum = fnv_bytes(sum, &ctx.win(win)[..len]);

        ctx.barrier();
    }
    ctx.flush();
    sum
}

fn run_stencil(ctx: &mut RtCtx, spec: WorkloadSpec, world: u32) -> u64 {
    let rank = ctx.rank().0;
    let payload = spec.payload;
    let left = rank.checked_sub(1);
    let right = (rank + 1 < world).then_some(rank + 1);
    let mut sum = FNV_OFFSET;
    for iter in 0..spec.iters {
        fill_staging(ctx, WorkloadSpec::SEED, iter, payload);
        // Halo out: my staging lands in the left neighbor's "right" region
        // and the right neighbor's "left" region.
        if let Some(l) = left {
            ctx.put_notify(WindowId(0), Rank(l), 2 * payload, 0, payload, Tag(iter));
        }
        if let Some(r) = right {
            ctx.put_notify(WindowId(0), Rank(r), payload, 0, payload, Tag(iter));
        }
        if let Some(l) = left {
            ctx.wait_notifications(RtQuery::exact(WindowId(0), Rank(l), Tag(iter)), 1);
        }
        if let Some(r) = right {
            ctx.wait_notifications(RtQuery::exact(WindowId(0), Rank(r), Tag(iter)), 1);
        }
        let w = ctx.win_at(WindowId(0), payload, (REGIONS - 1) * payload);
        sum = fnv_bytes(sum, w);
        ctx.barrier();
    }
    ctx.flush();
    sum
}

/// One pingpong round with the synchronization deliberately broken on the
/// (0, 1) pair: rank 1 touches its inbox *before* waiting for rank 0's
/// notification, so exactly one racy pair exists — rank 0's remote write of
/// `[payload, 2*payload)` against rank 1's premature read of the same
/// bytes. Every other pair (and the unpaired last rank of an odd world)
/// runs the correct wait-then-read order. The premature read's bytes are
/// discarded (not folded into the checksum) so run output stays
/// deterministic even though the race is real; iteration count is ignored
/// so the racy pair is unique.
fn run_racey(ctx: &mut RtCtx, spec: WorkloadSpec, world: u32) -> u64 {
    let rank = ctx.rank().0;
    let payload = spec.payload;
    let partner = if rank.is_multiple_of(2) {
        rank + 1
    } else {
        rank - 1
    };
    let mut sum = FNV_OFFSET;
    if partner < world {
        let q = RtQuery::exact(WindowId(0), Rank(partner), Tag(0));
        if rank.is_multiple_of(2) {
            fill_staging(ctx, WorkloadSpec::SEED, 0, payload);
            ctx.put_notify(WindowId(0), Rank(partner), payload, 0, payload, Tag(0));
            ctx.flush();
        } else {
            if rank == 1 {
                // BUG, on purpose: no wait before the inbox read. Under
                // `--race strict` this access aborts the rank with the
                // report; under observe it lands in `RtReport.races`.
                let _ = ctx.win_at(WindowId(0), payload, payload);
            }
            ctx.wait_notifications(q, 1);
            let w = ctx.win_at(WindowId(0), payload, payload);
            sum = fnv_bytes(sum, w);
        }
    }
    ctx.barrier();
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcuda_rt::{try_run_cluster, RtConfig};

    fn run_full(spec: WorkloadSpec, devices: u32, rpd: u32) -> (u64, dcuda_rt::RtReport) {
        let cfg = RtConfig::builder()
            .devices(devices)
            .ranks_per_device(rpd)
            .windows(spec.windows())
            .coll_scratch(spec.coll_scratch(devices * rpd))
            .build()
            .expect("valid config");
        let world = cfg.world();
        let pairs = spec.programs_for(world, 0, world);
        let (programs, cells): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
        let report = try_run_cluster(&cfg, programs).expect("run");
        let sum = programs::fold_checksums(
            cells
                .iter()
                .enumerate()
                .map(|(r, c)| (r as u32, c.load(Ordering::Acquire))),
        );
        (sum, report)
    }

    #[test]
    fn workloads_are_deterministic_across_runs() {
        for workload in [
            Workload::PingPong,
            Workload::Overlap,
            Workload::Stencil,
            Workload::Coll,
        ] {
            let spec = WorkloadSpec {
                workload,
                iters: 6,
                payload: 256,
            };
            let (a, ra) = run_full(spec, 2, 2);
            let (b, rb) = run_full(spec, 2, 2);
            assert_eq!(a, b, "{} checksum must replay", workload.name());
            assert_eq!(ra.puts, rb.puts);
            assert_eq!(ra.notifications, rb.notifications);
            assert_eq!(ra.matched, rb.matched);
            assert_eq!(ra.barriers, rb.barriers);
            assert_eq!(ra.coll.puts, rb.coll.puts);
            assert_eq!(ra.coll.bytes, rb.coll.bytes);
            assert_eq!(ra.coll.chunks, rb.coll.chunks);
        }
    }

    #[test]
    fn coll_workload_moves_traffic_through_the_engine_only() {
        let spec = WorkloadSpec {
            workload: Workload::Coll,
            iters: 3,
            payload: 200, // non-multiple of 8: exercises the align-up
        };
        let (sum, report) = run_full(spec, 2, 3);
        assert_ne!(sum, FNV_OFFSET);
        assert_eq!(report.puts, 0, "no user-level puts");
        assert_eq!(report.notifications, 0, "no user-level notifications");
        assert!(report.coll.puts > 0);
        assert!(report.coll.chunks > 0);
        assert_eq!(report.barriers, 3);
    }

    #[test]
    fn launcher_and_scheduler_run_the_same_programs() {
        use dcuda_sched::{run_solo, JobProgram, JobSpec};
        for (workload, program) in [
            (Workload::Overlap, JobProgram::Ring),
            (Workload::PingPong, JobProgram::PingPong),
        ] {
            let spec = WorkloadSpec {
                workload,
                iters: 6,
                payload: 256,
            };
            let mut job = JobSpec::small("twin", program);
            (job.devices, job.ranks_per_device) = (2, 2);
            (job.seed, job.iters, job.payload) = (WorkloadSpec::SEED, spec.iters, spec.payload);
            let solo = run_solo(&job).expect("solo job");
            assert_eq!(solo.error, None);
            assert_eq!(
                run_full(spec, 2, 2).0,
                solo.checksum,
                "launcher {} vs sched {}",
                workload.name(),
                program.name()
            );
        }
    }

    #[test]
    fn workload_names_roundtrip() {
        for w in [
            Workload::PingPong,
            Workload::Overlap,
            Workload::Stencil,
            Workload::Coll,
        ] {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("bogus").is_err());
    }
}
