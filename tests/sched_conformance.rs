//! Scheduler conformance: a multi-tenant storm must be invisible to each
//! job.
//!
//! The contract under test is the tentpole isolation property of
//! `dcuda-sched`: a job admitted to the shared server — queued behind
//! strangers, gang-scheduled onto whatever devices were free, racing
//! dozens of neighbor worlds — must produce the *byte-identical* checksum
//! and protocol counters it produces when run alone on a fresh cluster.
//! Three suites pin it:
//!
//! * **Storm vs solo** — a seeded storm of mixed jobs on the shared
//!   scheduler, each compared field-for-field against its solo golden,
//!   through both the direct API and the TCP control plane.
//! * **Fault isolation** — [`storm_victims`] picks seeded
//!   victims that panic mid-stream (`poison:<iter>`); every victim must
//!   fail typed, and every survivor's report must still match its golden
//!   exactly, across seeds and on both planes.
//! * **Cancel/drain hygiene** — random cancel storms followed by `drain`
//!   leave the ledger fully free, every job terminal, and the stats ledger
//!   balanced (`completed + failed + cancelled = submitted - rejected`):
//!   cancel and drain never leak slots, windows or scratch.

use dcuda::des::check::{forall, full_tier, Gen};
use dcuda::des::SplitMix64;
use dcuda::sched::{
    run_solo, spawn_server, CancelVerdict, JobEnd, JobProgram, JobResult, JobSpec, JobStatus,
    SchedError, SchedLimits, Scheduler,
};

/// Seed-deterministic victim selection: `kills` distinct indices out of
/// `jobs` submissions, sorted ascending. The same seed always condemns the
/// same jobs, so a reported failure replays exactly. Asking for more kills
/// than jobs condemns every job.
fn storm_victims(seed: u64, jobs: usize, kills: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0x5704_12D5_C0DE_D00D);
    let mut victims: Vec<usize> = Vec::new();
    let kills = kills.min(jobs);
    while victims.len() < kills {
        let v = rng.next_below(jobs as u64) as usize;
        if !victims.contains(&v) {
            victims.push(v);
        }
    }
    victims.sort_unstable();
    victims
}

/// The seeded storm population: program, gang shape, payload and data seed
/// all derived from `(storm_seed, index)` so every run of a given seed
/// builds the identical job list.
fn storm_spec(storm_seed: u64, i: u64) -> JobSpec {
    let mut g = Gen::from_seed(storm_seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let program = *g.choose(&[
        JobProgram::Ring,
        JobProgram::PingPong,
        JobProgram::Allreduce,
    ]);
    let mut spec = JobSpec::small(format!("storm-{i}"), program);
    spec.devices = 1 + g.u32_below(2);
    spec.ranks_per_device = 1 + g.u32_below(3);
    spec.iters = 2 + g.u32_below(4);
    spec.payload = 32 + 8 * g.usize_below(12);
    spec.seed = g.u64();
    spec.priority = g.u32_below(3) as u8;
    spec
}

/// Assert a scheduler-run report is byte-identical to the job's solo
/// golden: same end, same checksum, same protocol counters (`net.*` is the
/// only exempt family, and [`dcuda::sched::JobCounters`] excludes it by
/// construction).
fn assert_matches_solo(shared: &JobResult, spec: &JobSpec) {
    let solo = run_solo(spec).expect("solo golden runs");
    assert_eq!(
        solo.end,
        JobEnd::Completed,
        "{}: solo golden failed: {:?}",
        spec.name,
        solo.error
    );
    assert_eq!(
        shared.end,
        JobEnd::Completed,
        "{}: storm run failed: {:?}",
        spec.name,
        shared.error
    );
    assert_eq!(
        shared.checksum, solo.checksum,
        "{}: storm checksum diverged from solo golden",
        spec.name
    );
    assert_eq!(
        shared.counters, solo.counters,
        "{}: storm protocol counters diverged from solo golden",
        spec.name
    );
}

#[test]
fn storm_matches_solo_inprocess() {
    let jobs: u64 = if full_tier("120-job inprocess storm") {
        120
    } else {
        24
    };
    let sched = Scheduler::new(2, 4, SchedLimits::default());
    let specs: Vec<JobSpec> = (0..jobs).map(|i| storm_spec(0xA11CE, i)).collect();
    let ids: Vec<u64> = specs
        .iter()
        .map(|s| sched.submit(s.clone()).expect("spec within quotas"))
        .collect();
    for (id, spec) in ids.iter().zip(&specs) {
        let shared = sched.wait(*id).expect("job exists");
        assert_matches_solo(&shared, spec);
    }
    let stats = sched.drain();
    assert_eq!(stats.completed, jobs);
    assert_eq!(stats.failed + stats.cancelled + stats.rejected, 0);
    assert_eq!(stats.running, 0);
    assert_eq!(stats.slots_busy, 0);
    assert!(
        stats.peak_slots_busy <= stats.slots_total,
        "ledger oversubscribed: {} busy of {}",
        stats.peak_slots_busy,
        stats.slots_total
    );
}

#[test]
fn storm_matches_solo_over_tcp() {
    let jobs: u64 = if full_tier("60-job tcp storm") {
        60
    } else {
        12
    };
    let sched = Scheduler::new(2, 4, SchedLimits::default());
    let handle = spawn_server(sched, "127.0.0.1:0").expect("bind control plane");
    let client = handle.client();
    let specs: Vec<JobSpec> = (0..jobs).map(|i| storm_spec(0xBEEF, i)).collect();
    let ids: Vec<u64> = specs
        .iter()
        .map(|s| client.submit(s).expect("spec within quotas"))
        .collect();
    for (id, spec) in ids.iter().zip(&specs) {
        let shared = client.wait(*id).expect("wait over the wire");
        assert_matches_solo(&shared, spec);
    }
    let stats = client.drain().expect("drain over the wire");
    assert_eq!(stats.completed, jobs);
    assert_eq!(stats.slots_busy, 0);
    handle.shutdown().expect("server stops");
}

/// Run a storm where `storm_victims(seed, ..)` picks jobs that panic
/// mid-stream; assert victims fail typed and every survivor is
/// byte-identical to its solo golden.
fn isolation_storm(seed: u64, jobs: u64, kills: usize, tcp: bool) {
    let victims = storm_victims(seed, jobs as usize, kills);
    let specs: Vec<JobSpec> = (0..jobs)
        .map(|i| {
            let mut s = storm_spec(seed, i);
            if victims.contains(&(i as usize)) {
                s.name = format!("victim-{i}");
                s.program = JobProgram::Poison { at_iter: 1 };
            }
            s
        })
        .collect();
    let sched = Scheduler::new(2, 4, SchedLimits::default());
    let results: Vec<JobResult> = if tcp {
        let handle = spawn_server(sched, "127.0.0.1:0").expect("bind control plane");
        let client = handle.client();
        let ids: Vec<u64> = specs
            .iter()
            .map(|s| client.submit(s).expect("within quotas"))
            .collect();
        let out = ids
            .iter()
            .map(|id| client.wait(*id).expect("wait over the wire"))
            .collect();
        handle.shutdown().expect("server stops");
        out
    } else {
        let ids: Vec<u64> = specs
            .iter()
            .map(|s| sched.submit(s.clone()).expect("within quotas"))
            .collect();
        let out = ids
            .iter()
            .map(|id| sched.wait(*id).expect("job exists"))
            .collect();
        let stats = sched.drain();
        assert_eq!(
            stats.failed, kills as u64,
            "every victim fails, nothing else"
        );
        assert_eq!(stats.slots_busy, 0, "failed jobs leak no capacity");
        out
    };
    for (i, (r, spec)) in results.iter().zip(&specs).enumerate() {
        if victims.contains(&i) {
            assert_eq!(r.end, JobEnd::Failed, "victim {i} must fail");
            assert!(
                r.error.is_some(),
                "victim {i} must carry a typed error, got {r:?}"
            );
        } else {
            assert_matches_solo(r, spec);
        }
    }
}

#[test]
fn seeded_faults_leave_neighbors_untouched_inprocess() {
    let seeds: &[u64] = if full_tier("isolation sweep over 5 seeds") {
        &[1, 2, 3, 4, 5]
    } else {
        &[1, 2]
    };
    for &seed in seeds {
        isolation_storm(seed, 24, 4, false);
    }
}

#[test]
fn seeded_faults_leave_neighbors_untouched_over_tcp() {
    let (jobs, kills) = if full_tier("24-job tcp isolation storm") {
        (24, 4)
    } else {
        (12, 2)
    };
    isolation_storm(7, jobs, kills, true);
}

#[test]
fn cancel_tears_down_only_the_cancelled_job() {
    let sched = Scheduler::new(1, 4, SchedLimits::default());
    // A long-running victim next to a short neighbor on the same device.
    let mut long = JobSpec::small("long", JobProgram::Ring);
    long.ranks_per_device = 2;
    long.iters = 200_000;
    let neighbor = storm_spec(0xCAFE, 0);
    let mut neighbor = JobSpec {
        devices: 1,
        ranks_per_device: 2,
        ..neighbor
    };
    neighbor.name = "neighbor".into();
    let long_id = sched.submit(long).expect("admits");
    let neighbor_id = sched.submit(neighbor.clone()).expect("admits");
    // Let the victim reach Running before cancelling mid-stream.
    loop {
        match sched.status(long_id).expect("known job") {
            JobStatus::Running => break,
            JobStatus::Done(r) => panic!("200k-iter job finished before cancel: {r:?}"),
            JobStatus::Queued { .. } => std::thread::yield_now(),
        }
    }
    let verdict = sched.cancel(long_id).expect("known job");
    let r = sched.wait(long_id).expect("known job");
    match verdict {
        CancelVerdict::Requested => {
            // The runner arbitrates; mid-stream at 200k iterations the
            // cancel wins in practice, but either way the job is terminal
            // and a cancelled job reports no checksum.
            if r.end == JobEnd::Cancelled {
                assert_eq!(r.checksum, 0);
                assert!(r.error.is_none(), "cancellation is not an error: {r:?}");
            }
        }
        CancelVerdict::AlreadyDone(end) => assert_eq!(r.end, end),
    }
    // The neighbor world never noticed.
    let n = sched.wait(neighbor_id).expect("known job");
    assert_matches_solo(&n, &neighbor);
    let stats = sched.drain();
    assert_eq!(stats.running, 0);
    assert_eq!(stats.slots_busy, 0, "cancel leaked leased slots");
}

#[test]
fn cancel_and_drain_never_leak() {
    let cases = if full_tier("20-case cancel/drain sweep") {
        20
    } else {
        6
    };
    forall("cancel_drain_ledger", cases, |g| {
        let sched = Scheduler::new(1, 2, SchedLimits::default());
        let storm_seed = g.u64();
        let jobs = 6 + g.usize_below(6);
        let ids: Vec<u64> = (0..jobs)
            .map(|i| {
                let mut s = storm_spec(storm_seed, i as u64);
                s.devices = 1;
                s.ranks_per_device = 1 + g.u32_below(2);
                sched.submit(s).expect("fits the 1x2 cluster")
            })
            .collect();
        for &id in &ids {
            if g.bool() {
                sched.cancel(id).expect("known job");
            }
        }
        let stats = sched.drain();
        assert_eq!(stats.running, 0);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.slots_busy, 0, "drain left leased slots behind");
        assert!(stats.peak_slots_busy <= stats.slots_total, "oversubscribed");
        assert_eq!(
            stats.completed + stats.failed + stats.cancelled,
            stats.submitted - stats.rejected,
            "every accepted job must end terminal"
        );
        for &id in &ids {
            match sched.status(id).expect("known job") {
                JobStatus::Done(_) => {}
                other => panic!("job {id} not terminal after drain: {other:?}"),
            }
        }
        // Draining schedulers refuse new work, typed.
        let late = sched.submit(JobSpec::small("late", JobProgram::Ring));
        assert!(matches!(late, Err(SchedError::Draining)));
    });
}

#[test]
fn quota_rejections_are_typed_on_both_paths() {
    let sched = Scheduler::new(1, 2, SchedLimits::default());
    let mut wide = JobSpec::small("wide", JobProgram::Ring);
    wide.devices = 4;
    let direct = sched.submit(wide.clone());
    assert!(
        matches!(direct, Err(SchedError::NeverFits { cap_devices: 1, .. })),
        "impossible gangs reject at submit, not queue forever: {direct:?}"
    );

    let handle = spawn_server(sched, "127.0.0.1:0").expect("bind control plane");
    let client = handle.client();
    let first = client.submit(&wide).expect_err("rejected over the wire");
    let second = client.submit(&wide).expect_err("rejected over the wire");
    assert_eq!(
        first.to_string(),
        second.to_string(),
        "rejections must be deterministic"
    );
    assert!(matches!(first, SchedError::Control(ref msg) if msg.contains("never fit")));

    let mut fat = JobSpec::small("fat", JobProgram::Ring);
    fat.extra_window = usize::MAX / 2;
    let fat_err = client.submit(&fat).expect_err("window quota rejects");
    assert!(matches!(fat_err, SchedError::Control(ref msg) if msg.contains("window bytes")));

    // Rejections counted, nothing admitted, nothing leaked.
    let stats = client.stats().expect("stats over the wire");
    assert_eq!(stats.rejected, 4);
    assert_eq!(stats.admitted, 0);
    assert_eq!(stats.slots_busy, 0);
    handle.shutdown().expect("server stops");
}
