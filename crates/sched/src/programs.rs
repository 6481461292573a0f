//! The job-program registry: names for the reference rank programs.
//!
//! A [`JobSpec`] crosses the control plane as text, so its program is a
//! name into this registry rather than a closure. Every program is a
//! resumable [`RankTask`]: `ring`, `pingpong` and `poison` are
//! [`dcuda_rt::programs`] — the same definitions `dcuda-launch`'s
//! conformance workloads run — and `allreduce` is defined here. Each is
//! fully determined by `(seed, world, iters, payload)`, which is what lets
//! the storm suite compare a job run on the shared scheduler (tasks on the
//! cooperative driver) byte-for-byte against the same spec run alone on a
//! fresh cluster (the same tasks on rank threads).

use crate::{JobProgram, JobSpec};
use dcuda_rt::programs::{self, Params, FNV_OFFSET};
use dcuda_rt::{
    allreduce_scratch_bytes, CollAlgo, CollPlan, Collective, Dtype, RankTask, ReduceOp, RtCtx,
    RtError, Step, WindowId,
};

const W0: WindowId = WindowId(0);

/// Window layout of a spec's program: ring-family programs stage in
/// `[0, payload)` and receive in `[payload, 2*payload)`; allreduce reduces
/// one `u64`-aligned buffer in place.
pub fn windows(spec: &JobSpec) -> Vec<usize> {
    match spec.program {
        JobProgram::Allreduce => vec![programs::lanes_len(spec.payload)],
        _ => vec![spec.payload.max(1) * 2],
    }
}

/// Collective scratch the program's schedule needs (0 = runtime default is
/// plenty; only allreduce sizes it explicitly).
pub fn coll_scratch(spec: &JobSpec) -> usize {
    match spec.program {
        JobProgram::Allreduce => allreduce_scratch_bytes(
            CollAlgo::Ring,
            programs::lanes_len(spec.payload),
            8,
            spec.ranks(),
        ),
        _ => 0,
    }
}

/// One task per world rank, in rank order: the scheduler runs them on the
/// cooperative driver ([`dcuda_rt::try_run_cluster_job`]), [`run_solo`]
/// on rank threads through [`dcuda_rt::thread_per_rank`].
///
/// [`run_solo`]: crate::run_solo
pub fn tasks(spec: &JobSpec) -> Vec<Box<dyn RankTask>> {
    let p = Params {
        seed: spec.seed,
        iters: spec.iters,
        payload: spec.payload.max(1),
    };
    (0..spec.ranks())
        .map(|_| -> Box<dyn RankTask> {
            match spec.program {
                JobProgram::Ring => Box::new(programs::ring(p, None)),
                JobProgram::PingPong => Box::new(programs::pingpong(p)),
                JobProgram::Allreduce => Box::new(Allreduce::new(p)),
                JobProgram::Poison { at_iter } => Box::new(programs::ring(p, Some(at_iter))),
            }
        })
        .collect()
}

/// Fold per-rank checksums (in rank order) into the job checksum.
pub fn fold_checksums(sums: &[u64]) -> u64 {
    programs::fold_checksums((0u32..).zip(sums.iter().copied()))
}

/// Chunked ring allreduce over `u64` lanes, a world barrier per round.
struct Allreduce {
    p: Params,
    len: usize,
    plan: CollPlan,
    iter: u32,
    sum: u64,
    at: AllreduceAt,
}

enum AllreduceAt {
    /// Start round `iter` (or, past the last, the final flush).
    Fill,
    /// Reducing the lanes of round `iter`.
    Reduce(Collective),
    /// In the barrier closing round `iter`.
    Barrier(Collective),
    /// The final flush completed.
    Flushed,
}

impl Allreduce {
    fn new(p: Params) -> Allreduce {
        Allreduce {
            p,
            len: programs::lanes_len(p.payload),
            plan: CollPlan::builder()
                .algo(CollAlgo::Ring)
                .chunk_bytes(64)
                .op(ReduceOp::Sum)
                .dtype(Dtype::U64)
                .build()
                .expect("valid coll plan"),
            iter: 0,
            sum: FNV_OFFSET,
            at: AllreduceAt::Fill,
        }
    }
}

impl RankTask for Allreduce {
    fn resume(&mut self, ctx: &mut RtCtx) -> Result<Step, RtError> {
        loop {
            match &mut self.at {
                AllreduceAt::Fill if self.iter == self.p.iters => {
                    self.at = AllreduceAt::Flushed;
                    return Ok(Step::Flush);
                }
                AllreduceAt::Fill => {
                    programs::fill_lanes(ctx, self.len, self.p.seed, self.iter);
                    let reduce = Collective::allreduce(ctx, W0, 0, self.len, &self.plan)?;
                    self.at = AllreduceAt::Reduce(reduce);
                }
                AllreduceAt::Reduce(reduce) => {
                    if let Some(wait) = reduce.poll(ctx)? {
                        return Ok(Step::Coll(wait));
                    }
                    self.sum = programs::fnv_bytes(self.sum, ctx.win_at(W0, 0, self.len));
                    self.at = AllreduceAt::Barrier(Collective::barrier(ctx));
                }
                AllreduceAt::Barrier(barrier) => {
                    if let Some(wait) = barrier.poll(ctx)? {
                        return Ok(Step::Coll(wait));
                    }
                    self.iter += 1;
                    self.at = AllreduceAt::Fill;
                }
                AllreduceAt::Flushed => return Ok(Step::Done(self.sum)),
            }
        }
    }
}
