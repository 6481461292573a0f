//! A job server keeps serving after a job panics and a job is cancelled
//! mid-run: every later job still matches the same spec run alone.

use dcuda_rt::RtError;
use dcuda_sched::{run_solo, JobEnd, JobProgram, JobSpec, JobStatus, SchedLimits, Scheduler};

#[test]
fn jobs_after_a_panic_and_a_cancel_match_their_solo_runs() {
    let sched = Scheduler::new(2, 2, SchedLimits::default());

    let mut poison = JobSpec::small("poison", JobProgram::Poison { at_iter: 1 });
    poison.devices = 2;
    let id = sched.submit(poison).expect("within quotas");
    let r = sched.wait(id).expect("known job");
    assert_eq!(r.end, JobEnd::Failed);
    assert!(
        matches!(r.error, Some(RtError::RankPanicked { rank: 0, .. })),
        "{r:?}"
    );

    let mut long = JobSpec::small("long", JobProgram::Ring);
    long.devices = 2;
    long.iters = 1_000_000;
    let id = sched.submit(long).expect("within quotas");
    loop {
        match sched.status(id).expect("known job") {
            JobStatus::Running => break,
            JobStatus::Queued { .. } => std::thread::yield_now(),
            JobStatus::Done(r) => panic!("a 1M-iteration job ended before its cancel: {r:?}"),
        }
    }
    sched.cancel(id).expect("known job");
    let r = sched.wait(id).expect("known job");
    assert_eq!(r.end, JobEnd::Cancelled, "{r:?}");

    for i in 0..20u32 {
        let program = [JobProgram::Ring, JobProgram::PingPong][i as usize % 2];
        let mut spec = JobSpec::small(format!("after-{i}"), program);
        spec.devices = 1 + i % 2;
        spec.ranks_per_device = 1 + (i / 2) % 2;
        spec.seed = u64::from(i);
        let id = sched.submit(spec.clone()).expect("within quotas");
        let shared = sched.wait(id).expect("known job");
        let solo = run_solo(&spec).expect("solo run");
        assert_eq!(shared.end, JobEnd::Completed, "{shared:?}");
        assert_eq!(
            (shared.checksum, shared.counters),
            (solo.checksum, solo.counters),
            "{}",
            spec.name
        );
    }
    let stats = sched.drain();
    assert_eq!((stats.completed, stats.failed, stats.cancelled), (20, 1, 1));
    assert_eq!(stats.slots_busy, 0);
}
