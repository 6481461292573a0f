//! `jobstorm`: the service face. `Scheduler::new(2, 2, default limits)`, one
//! submitter in a closed loop with at most four jobs outstanding, a seeded
//! mix of Ring and PingPong gangs (1-2 devices x 1-2 ranks, 2 iterations,
//! 64 B payload).
//!
//! Why: dominated by per-job world launch and teardown, which nothing else
//! stresses. The first job of every kind (program x gang shape: eight of the
//! six hundred) is re-run alone through `run_solo` and compared by checksum
//! and protocol counters.

use super::{secs, Env, Rep, Size, Workload};
use crate::layers;
use crate::stats::{median, tail};
use crate::util::SplitMix64;
use dcuda_sched::{run_solo, JobEnd, JobProgram, JobResult, JobSpec, SchedLimits, Scheduler};
use std::collections::VecDeque;
use std::time::Instant;

const OUTSTANDING: usize = 4;

fn jobs(size: Size) -> usize {
    size.pick(600, 12)
}

pub struct JobStorm;

/// The seeded job mix of one repetition.
fn job_mix(seed: u64, n: usize) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(seed ^ 0x10B5);
    (0..n)
        .map(|i| {
            let program = if rng.below(2) == 0 {
                JobProgram::Ring
            } else {
                JobProgram::PingPong
            };
            let mut spec = JobSpec::small(format!("storm-{i}"), program);
            spec.devices = 1 + rng.below(2) as u32;
            spec.ranks_per_device = 1 + rng.below(2) as u32;
            spec.iters = 2;
            spec.payload = 64;
            spec.seed = rng.next_u64();
            spec
        })
        .collect()
}

/// The jobs that are re-run alone: the first of every kind (program x gang
/// shape). A fixed stride would verify as many, but a different blend of
/// kinds for every seed, and the re-runs are nearly all of this workload's
/// set-up time: with one job in fifty `setup_s` moved 15-26 % with the seed.
fn solo_sample(specs: &[JobSpec]) -> Vec<usize> {
    let mut kinds = Vec::new();
    let mut sample = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let kind = (spec.program, spec.devices, spec.ranks_per_device);
        if !kinds.contains(&kind) {
            kinds.push(kind);
            sample.push(i);
        }
    }
    sample
}

impl Workload for JobStorm {
    fn name(&self) -> &'static str {
        "jobstorm"
    }

    fn op_alias(&self) -> &'static str {
        "job_p50_us"
    }

    fn work_alias(&self) -> &'static str {
        "jobs_per_s"
    }

    fn ops_per_rep(&self, size: Size) -> u64 {
        jobs(size) as u64
    }

    fn rep(&self, env: &Env) -> Result<Rep, String> {
        let n = jobs(env.size);
        let specs = job_mix(env.seed, n);
        let sched = Scheduler::new(2, 2, SchedLimits::default());
        let mut driver = env.tracer.buf(100);

        let mut failed = 0u64;
        let mut results: Vec<Option<JobResult>> = vec![None; n];
        let mut job_us = Vec::with_capacity(n);
        let mut outstanding: VecDeque<(usize, u64, Instant)> = VecDeque::new();
        let t = Instant::now();
        for (i, spec) in specs.iter().enumerate() {
            if outstanding.len() == OUTSTANDING {
                collect(
                    &sched,
                    &mut driver,
                    &mut outstanding,
                    &mut results,
                    &mut job_us,
                );
            }
            let submitted = Instant::now();
            match driver.time("submit", i as u64, || sched.submit(spec.clone())) {
                Ok(id) => outstanding.push_back((i, id, submitted)),
                Err(e) => {
                    eprintln!("jobstorm: submit {}: {e}", spec.name);
                    failed += 1;
                }
            }
        }
        while !outstanding.is_empty() {
            collect(
                &sched,
                &mut driver,
                &mut outstanding,
                &mut results,
                &mut job_us,
            );
        }
        let storm_s = secs(t);
        let stats = sched.drain();

        let done: Vec<&JobResult> = results.iter().flatten().collect();
        let completed = done.iter().filter(|r| r.end == JobEnd::Completed).count();
        failed += (n - completed) as u64;
        failed += u64::from(stats.completed != completed as u64 || stats.failed != 0);

        // Sampled jobs must be byte-identical to the same spec run alone.
        let mut solo_ms = Vec::new();
        for i in solo_sample(&specs) {
            let solo = run_solo(&specs[i]).map_err(|e| format!("solo {}: {e}", specs[i].name))?;
            solo_ms.push(solo.run_ms);
            let same = results[i].as_ref().is_some_and(|r| {
                r.checksum == solo.checksum && r.counters == solo.counters && r.end == solo.end
            });
            failed += u64::from(!same);
        }

        let column = |f: fn(&JobResult) -> f64| done.iter().map(|r| f(r)).collect::<Vec<_>>();
        let (wait_ms, run_ms) = (column(|r| r.wait_ms), column(|r| r.run_ms));
        let job_ms: Vec<f64> = job_us.iter().map(|us| us / 1e3).collect();
        Ok(Rep {
            timed_s: storm_s,
            op_us: job_us,
            work: completed as f64,
            work_s: storm_s,
            attempted: n as u64,
            failed,
            layer: vec![
                ("sched.wait_ms_p50", median(&wait_ms)),
                ("sched.wait_ms_p99", tail(&wait_ms, 99.0)),
                ("sched.run_ms_p50", median(&run_ms)),
                ("sched.run_ms_p99", tail(&run_ms, 99.0)),
                ("sched.job_ms_p50", median(&job_ms)),
                ("sched.job_ms_p99", tail(&job_ms, 99.0)),
                ("sched.solo_job_ms", median(&solo_ms)),
                (
                    "sched.util_frac",
                    stats.utilization((storm_s * 1e9) as u128),
                ),
                ("sched.peak_queue_depth", stats.peak_queue_depth as f64),
                ("sched.rejected", stats.rejected as f64),
            ],
        })
    }

    fn layer_extras(&self, env: &Env) -> Result<Vec<(&'static str, f64)>, String> {
        let launches = env.size.pick(20, 2);
        Ok(vec![
            ("rt.launch_ms_w2", layers::launch_ms(1, 2, launches)?),
            ("rt.launch_ms_w8", layers::launch_ms(2, 4, launches)?),
        ])
    }
}

/// Wait for the oldest outstanding job and record its latency (submit to
/// terminal report, as the submitter sees it).
fn collect(
    sched: &Scheduler,
    driver: &mut crate::spans::SpanBuf,
    outstanding: &mut VecDeque<(usize, u64, Instant)>,
    results: &mut [Option<JobResult>],
    job_us: &mut Vec<f64>,
) {
    let Some((i, id, submitted)) = outstanding.pop_front() else {
        return;
    };
    match driver.time("job_wait", i as u64, || sched.wait(id)) {
        Ok(result) => {
            job_us.push(submitted.elapsed().as_nanos() as f64 / 1e3);
            results[i] = Some(result);
        }
        Err(e) => eprintln!("jobstorm: wait {id}: {e}"),
    }
}
