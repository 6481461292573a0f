//! The job-program registry: names for the reference rank programs.
//!
//! A [`JobSpec`] crosses the control plane as text, so its program is a
//! name into this registry rather than a closure. The programs themselves
//! are [`dcuda_rt::programs`] — the same definitions `dcuda-launch`'s
//! conformance workloads run — fully determined by `(seed, world, iters,
//! payload)`, which is what lets the storm suite compare a job run on the
//! shared scheduler byte-for-byte against the same spec run alone on a
//! fresh cluster.

use crate::{JobProgram, JobSpec};
use dcuda_rt::cluster::RankProgram;
use dcuda_rt::programs::{self, Params, FNV_OFFSET};
use dcuda_rt::{allreduce_scratch_bytes, CollAlgo, CollPlan, Dtype, ReduceOp, RtCtx};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Build one program per world rank, each paired with the cell its
/// checksum lands in on completion.
pub fn build(spec: &JobSpec) -> Vec<(RankProgram, Arc<AtomicU64>)> {
    let program = spec.program;
    let p = Params {
        seed: spec.seed,
        iters: spec.iters,
        payload: spec.payload.max(1),
    };
    (0..spec.ranks())
        .map(|_| {
            let cell = Arc::new(AtomicU64::new(0));
            let out = cell.clone();
            let program: RankProgram = Box::new(move |ctx: &mut RtCtx| {
                let sum = match program {
                    JobProgram::Ring => programs::ring(ctx, p, None),
                    JobProgram::PingPong => programs::pingpong(ctx, p),
                    JobProgram::Allreduce => run_allreduce(ctx, p),
                    JobProgram::Poison { at_iter } => programs::ring(ctx, p, Some(at_iter)),
                };
                out.store(sum, Ordering::Release);
            });
            (program, cell)
        })
        .collect()
}

/// Fold per-rank checksum cells into the job checksum.
pub fn fold_checksums(cells: &[Arc<AtomicU64>]) -> u64 {
    programs::fold_checksums(
        cells
            .iter()
            .enumerate()
            .map(|(rank, cell)| (rank as u32, cell.load(Ordering::Acquire))),
    )
}

/// Chunked ring allreduce over `u64` lanes, a world barrier per round.
fn run_allreduce(ctx: &mut RtCtx, p: Params) -> u64 {
    let len = programs::lanes_len(p.payload);
    let plan = CollPlan::builder()
        .algo(CollAlgo::Ring)
        .chunk_bytes(64)
        .op(ReduceOp::Sum)
        .dtype(Dtype::U64)
        .build()
        .expect("valid coll plan");
    let mut sum = FNV_OFFSET;
    for iter in 0..p.iters {
        sum = programs::allreduce_step(ctx, &plan, len, p.seed, iter, sum);
        ctx.barrier();
    }
    ctx.flush();
    sum
}
