//! The job-program registry: each [`JobProgram`] wire name maps onto an
//! entry of the reference program table, [`dcuda_rt::programs::Program`],
//! which `dcuda-launch`'s workloads name too.
//!
//! A [`JobSpec`] crosses the control plane as text, so its program is a
//! name into the table rather than a closure. Each is fully determined by
//! `(seed, world, iters, payload)`, which is what lets the storm suite
//! compare a job run on the shared scheduler (tasks on the cooperative
//! driver) byte-for-byte against the same spec run alone on a fresh
//! cluster (the same tasks on rank threads).

use crate::{JobProgram, JobSpec};
use dcuda_rt::programs::{Params, Program};
use dcuda_rt::RankTask;

impl JobProgram {
    /// The table entry this job program names: `poison:<n>` is the ring
    /// with its victim switch set.
    pub fn program(self) -> Program {
        match self {
            JobProgram::Ring => Program::Ring { poison_at: None },
            JobProgram::PingPong => Program::PingPong,
            JobProgram::Allreduce => Program::Allreduce,
            JobProgram::Poison { at_iter } => Program::Ring {
                poison_at: Some(at_iter),
            },
        }
    }
}

impl JobSpec {
    /// What the spec's program data is generated from.
    pub fn params(&self) -> Params {
        Params {
            seed: self.seed,
            iters: self.iters,
            payload: self.payload,
        }
    }
}

/// One task per world rank, in rank order: the scheduler runs them on the
/// cooperative driver ([`dcuda_rt::try_run_cluster_job`]), [`run_solo`]
/// on rank threads through [`dcuda_rt::thread_per_rank`].
///
/// [`run_solo`]: crate::run_solo
pub fn tasks(spec: &JobSpec) -> Vec<RankTask> {
    spec.program.program().tasks(spec.params(), spec.ranks())
}
