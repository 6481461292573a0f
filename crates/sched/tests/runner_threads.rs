//! Runner threads come and go with the work: one runner carries on after a
//! failed and a cancelled job, and an idle scheduler holds no threads. This
//! binary holds a single test, so no other test's threads come and go
//! while it counts this process's threads in `/proc/self/task`.

use dcuda_rt::RtError;
use dcuda_sched::scheduler::RUNNER_IDLE;
use dcuda_sched::{run_solo, JobEnd, JobProgram, JobSpec, JobStatus, SchedLimits, Scheduler};
use std::time::{Duration, Instant};

/// Threads of this process (Linux); `None` elsewhere.
fn threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

fn small(i: u32) -> JobSpec {
    let program = [JobProgram::Ring, JobProgram::PingPong][i as usize % 2];
    let mut spec = JobSpec::small(format!("job-{i}"), program);
    spec.ranks_per_device = 1;
    spec.seed = u64::from(i);
    spec
}

#[test]
fn one_runner_survives_a_panic_and_a_cancel_then_exits_when_idle() {
    let before = threads();

    // One slot, so one job runs at a time. The long job holds the runner
    // while everything else is queued behind it.
    let sched = Scheduler::new(1, 1, SchedLimits::default());
    let mut long = JobSpec::small("long", JobProgram::Ring);
    long.ranks_per_device = 1;
    long.iters = 100_000_000;
    let long = sched.submit(long).expect("within quotas");
    let mut poison = JobSpec::small("poison", JobProgram::Poison { at_iter: 1 });
    poison.ranks_per_device = 1;
    let poison = sched.submit(poison).expect("within quotas");
    let later: Vec<(JobSpec, u64)> = (0..20)
        .map(|i| {
            let spec = small(i);
            let id = sched.submit(spec.clone()).expect("within quotas");
            (spec, id)
        })
        .collect();
    while sched.status(long).expect("known job") != JobStatus::Running {
        std::thread::yield_now();
    }
    sched.cancel(long).expect("known job");

    let r = sched.wait(long).expect("known job");
    assert_eq!(r.end, JobEnd::Cancelled, "{r:?}");
    let r = sched.wait(poison).expect("known job");
    assert_eq!(r.end, JobEnd::Failed);
    assert!(
        matches!(r.error, Some(RtError::RankPanicked { rank: 0, .. })),
        "{r:?}"
    );
    for (spec, id) in &later {
        let shared = sched.wait(*id).expect("known job");
        let solo = run_solo(spec).expect("solo run");
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
    assert_eq!(stats.runners_started, 1, "{stats:?}");

    // A storm on a wider scheduler; afterwards its runners time out.
    let sched = Scheduler::new(2, 2, SchedLimits::default());
    let ids: Vec<u64> = (0..100)
        .map(|i| sched.submit(small(i)).expect("within quotas"))
        .collect();
    for id in ids {
        assert_eq!(sched.wait(id).expect("known job").end, JobEnd::Completed);
    }
    assert_eq!(sched.drain().completed, 100);
    if let Some(before) = before {
        let deadline = Instant::now() + RUNNER_IDLE + Duration::from_secs(1);
        while threads() != Some(before) {
            assert!(
                Instant::now() < deadline,
                "{:?} threads {RUNNER_IDLE:?} + 1 s after the storm, {before} before",
                threads()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
