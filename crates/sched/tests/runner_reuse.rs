//! The scheduler reuses its runner threads: a closed-loop storm starts far
//! fewer runners than it runs jobs, and its jobs still equal their solo
//! runs.

use dcuda_des::SplitMix64;
use dcuda_sched::{run_solo, JobEnd, JobProgram, JobSpec, SchedLimits, Scheduler};
use std::collections::VecDeque;

const JOBS: usize = 300;
const OUTSTANDING: usize = 4;

#[test]
fn a_closed_loop_storm_reuses_its_runners() {
    let mut rng = SplitMix64::new(0x5707);
    let specs: Vec<JobSpec> = (0..JOBS)
        .map(|i| {
            let program = [JobProgram::Ring, JobProgram::PingPong][rng.next_below(2) as usize];
            let mut spec = JobSpec::small(format!("storm-{i}"), program);
            spec.devices = 1 + rng.next_below(2) as u32;
            spec.ranks_per_device = 1 + rng.next_below(2) as u32;
            spec.iters = 2;
            spec.seed = rng.next_u64();
            spec
        })
        .collect();
    let sched = Scheduler::new(2, 2, SchedLimits::default());
    let mut results = Vec::with_capacity(JOBS);
    let mut outstanding = VecDeque::new();
    for spec in &specs {
        if outstanding.len() == OUTSTANDING {
            let id = outstanding.pop_front().expect("4 outstanding");
            results.push(sched.wait(id).expect("known job"));
        }
        outstanding.push_back(sched.submit(spec.clone()).expect("within quotas"));
    }
    for id in outstanding {
        results.push(sched.wait(id).expect("known job"));
    }
    let stats = sched.drain();
    assert_eq!(stats.completed, JOBS as u64, "{stats:?}");
    assert!(
        stats.runners_started * 10 < JOBS as u64,
        "{} runners started for {JOBS} jobs",
        stats.runners_started
    );

    // The first job of every kind (program x gang shape) equals its solo run.
    let mut kinds = Vec::new();
    for (spec, shared) in specs.iter().zip(&results) {
        let kind = (spec.program, spec.devices, spec.ranks_per_device);
        if kinds.contains(&kind) {
            continue;
        }
        kinds.push(kind);
        let solo = run_solo(spec).expect("solo run");
        assert_eq!(shared.end, JobEnd::Completed, "{shared:?}");
        assert_eq!(
            (shared.checksum, shared.counters),
            (solo.checksum, solo.counters),
            "{}",
            spec.name
        );
    }
    assert_eq!(kinds.len(), 8);
}
