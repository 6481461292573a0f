//! Backend-conformance workloads for the threaded runtime.
//!
//! These are the reference programs `dcuda-launch` and the conformance
//! suite run on *both* transport backends: the same world, seeded the same
//! way, must produce byte-identical protocol counters and window checksums
//! whether the cluster shares one OS process ([`dcuda_rt::try_run_cluster`])
//! or is split across a socket mesh ([`dcuda_rt::try_run_cluster_part`]).
//!
//! Every workload is an entry of the shared program table,
//! [`dcuda_rt::programs::Program`], whose tasks run here on rank threads
//! through [`dcuda_rt::thread_per_rank`]; the scheduler's job registry
//! names entries of the same table. This module only maps the launcher's
//! `--workload` names onto it.

use dcuda_rt::programs::{Params, Program};

/// The conformance workload set: the launcher's names for entries of the
/// program table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// [`Program::PingPong`] (paper Figure 6 shape).
    PingPong,
    /// [`Program::Ring`] unpoisoned: the overlap microbenchmark shape
    /// (paper Figures 7/8).
    Overlap,
    /// [`Program::Stencil`] (paper Figure 10 shape).
    Stencil,
    /// [`Program::Coll`]: every collective of the engine.
    Coll,
    /// [`Program::Racey`]: the race detector's negative fixture.
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

    /// The table entry this workload names.
    pub fn program(self) -> Program {
        match self {
            Workload::PingPong => Program::PingPong,
            Workload::Overlap => Program::Ring { poison_at: None },
            Workload::Stencil => Program::Stencil,
            Workload::Coll => Program::Coll,
            Workload::Racey => Program::Racey,
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

impl WorkloadSpec {
    /// Data seed of every launcher run — the default of
    /// `dcuda_sched::JobSpec::small`, so `--workload overlap` and a default
    /// `ring` job of the same shape produce the same checksum.
    pub const SEED: u64 = 1;

    /// The table entry and parameters of this run.
    pub fn program(&self) -> (Program, Params) {
        let params = Params {
            seed: Self::SEED,
            iters: self.iters,
            payload: self.payload,
        };
        (self.workload.program(), params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcuda_rt::programs::{self, FNV_OFFSET};
    use dcuda_rt::{thread_per_rank, try_run_cluster};
    use std::sync::atomic::Ordering;

    fn run_full(spec: WorkloadSpec, devices: u32, rpd: u32) -> (u64, dcuda_rt::RtReport) {
        let (program, p) = spec.program();
        let cfg = program
            .config(&p, devices, rpd)
            .build()
            .expect("valid config");
        let pairs = thread_per_rank(program.tasks(p, cfg.world()));
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
        for (workload, program, payload) in [
            (Workload::Overlap, JobProgram::Ring, 256),
            (Workload::PingPong, JobProgram::PingPong, 256),
            (Workload::Overlap, JobProgram::Ring, 0),
            (Workload::PingPong, JobProgram::PingPong, 0),
        ] {
            let spec = WorkloadSpec {
                workload,
                iters: 6,
                payload,
            };
            let mut job = JobSpec::small("twin", program);
            (job.devices, job.ranks_per_device) = (2, 2);
            (job.seed, job.iters, job.payload) = (WorkloadSpec::SEED, spec.iters, spec.payload);
            let solo = run_solo(&job).expect("solo job");
            assert_eq!(solo.error, None);
            assert_eq!(
                run_full(spec, 2, 2).0,
                solo.checksum,
                "launcher {} vs sched {} at payload {payload}",
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
            Workload::Racey,
        ] {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("bogus").is_err());
    }
}
