//! The program table as `dcuda-launch` runs it: `--workload` names an
//! entry of `dcuda_rt::programs::Program`, whose tasks run on rank threads
//! through `thread_per_rank`, and the job scheduler runs the same entries
//! by the same names.

use dcuda::rt::programs::{self, Params, Program, FNV_OFFSET};
use dcuda::rt::{thread_per_rank, try_run_cluster, RtReport};
use std::sync::atomic::Ordering;

/// Every program that completes (all but `Poison`).
const COMPLETING: [Program; 6] = [
    Program::PingPong,
    Program::Ring,
    Program::Allreduce,
    Program::Stencil,
    Program::Coll,
    Program::Racey,
];

/// The launcher's data: seed 1, a default job's.
fn params(iters: u32, payload: usize) -> Params {
    Params {
        seed: 1,
        iters,
        payload,
    }
}

/// A launcher-shaped run: `devices × rpd` rank threads on the in-process
/// plane; returns the world checksum and the report.
fn run_full(program: Program, p: Params, devices: u32, rpd: u32) -> (u64, RtReport) {
    let cfg = program
        .config(&p, devices, rpd)
        .build()
        .expect("valid config");
    let pairs = thread_per_rank(program.tasks(p, cfg.world()));
    let (threads, cells): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
    let report = try_run_cluster(&cfg, threads).expect("run");
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
    for program in [
        Program::PingPong,
        Program::Ring,
        Program::Stencil,
        Program::Coll,
    ] {
        let (a, ra) = run_full(program, params(6, 256), 2, 2);
        let (b, rb) = run_full(program, params(6, 256), 2, 2);
        assert_eq!(a, b, "{} checksum must replay", program.name());
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
    // A payload that is not a multiple of 8 exercises the align-up.
    let (sum, report) = run_full(Program::Coll, params(3, 200), 2, 3);
    assert_ne!(sum, FNV_OFFSET);
    assert_eq!(report.puts, 0, "no user-level puts");
    assert_eq!(report.notifications, 0, "no user-level notifications");
    assert!(report.coll.puts > 0);
    assert!(report.coll.chunks > 0);
    assert_eq!(report.barriers, 3);
}

#[test]
fn launcher_and_scheduler_run_the_same_programs() {
    use dcuda::sched::{run_solo, JobSpec};
    for program in COMPLETING {
        for payload in [256, 0] {
            let p = params(6, payload);
            let mut job = JobSpec::small("twin", program);
            (job.devices, job.ranks_per_device) = (2, 2);
            (job.seed, job.iters, job.payload) = (p.seed, p.iters, p.payload);
            let solo = run_solo(&job).expect("solo job");
            assert_eq!(solo.error, None);
            assert_eq!(
                run_full(program, p, 2, 2).0,
                solo.checksum,
                "launcher vs sched {} at payload {payload}",
                program.name()
            );
        }
    }
}

#[test]
fn workload_names_roundtrip() {
    for program in COMPLETING
        .into_iter()
        .chain([Program::Poison { at_iter: 3 }])
    {
        assert_eq!(Program::parse(&program.name()), Ok(program));
    }
    for bad in ["bogus", "overlap", "poison:", "poison:x", "poison:-1"] {
        assert!(Program::parse(bad).is_err(), "{bad}");
    }
}
