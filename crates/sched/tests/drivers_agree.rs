//! The cooperative driver a job world runs on and the thread-per-rank
//! adapter `run_solo` uses are independent implementations of one contract:
//! over every registry program, a seeded matrix of shapes and ring
//! capacities must give the same checksum, protocol counters and
//! collective traffic on both.

use dcuda_rt::{thread_per_rank, try_run_cluster, try_run_cluster_job, CancelToken, RtError};
use dcuda_sched::programs::{fold_checksums, tasks};
use dcuda_sched::{JobCounters, JobProgram, JobSpec};
use std::sync::atomic::Ordering;

/// SplitMix64: the seeded parameters of each cell.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What a run must agree on: the checksum, the protocol counters and the
/// schedule-determined collective counts.
type Outcome = Result<(u64, JobCounters, [u64; 3]), RtError>;

fn cooperative(spec: &JobSpec) -> Outcome {
    let cfg = spec.rt_config()?;
    let (report, sums) = try_run_cluster_job(&cfg, tasks(spec), &CancelToken::new())?;
    let coll = [report.coll.puts, report.coll.bytes, report.coll.chunks];
    Ok((fold_checksums(&sums), JobCounters::from(&report), coll))
}

fn threaded(spec: &JobSpec) -> Outcome {
    let cfg = spec.rt_config()?;
    let (programs, cells): (Vec<_>, Vec<_>) = thread_per_rank(tasks(spec)).into_iter().unzip();
    let report = try_run_cluster(&cfg, programs)?;
    let sums: Vec<u64> = cells.iter().map(|c| c.load(Ordering::Acquire)).collect();
    let coll = [report.coll.puts, report.coll.bytes, report.coll.chunks];
    Ok((fold_checksums(&sums), JobCounters::from(&report), coll))
}

#[test]
fn both_drivers_agree_on_every_registry_program() {
    let shapes = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (2, 4)];
    let mut cells = 0;
    for kind in 0..4u64 {
        for &(devices, ranks_per_device) in &shapes {
            for ring_capacity in [2, 64] {
                for seed in 0..8u64 {
                    let h =
                        mix(kind << 32 ^ u64::from(devices * 16 + ranks_per_device) << 16 ^ seed);
                    let iters = 1 + (h % 5) as u32;
                    let program = match kind {
                        0 => JobProgram::Ring,
                        1 => JobProgram::PingPong,
                        2 => JobProgram::Allreduce,
                        _ => JobProgram::Poison {
                            at_iter: (h >> 8) as u32 % (iters + 1),
                        },
                    };
                    let mut spec = JobSpec::small(format!("cell-{cells}"), program);
                    spec.devices = devices;
                    spec.ranks_per_device = ranks_per_device;
                    spec.ring_capacity = ring_capacity;
                    spec.iters = iters;
                    spec.payload = 1 + (h >> 16) as usize % 200;
                    spec.seed = h >> 24;
                    let (coop, threads) = (cooperative(&spec), threaded(&spec));
                    match program {
                        JobProgram::Poison { .. } => {
                            for (driver, out) in [("cooperative", &coop), ("threaded", &threads)] {
                                assert!(
                                    matches!(out, Err(RtError::RankPanicked { rank: 0, .. })),
                                    "{driver} {spec:?}: {out:?}"
                                );
                            }
                        }
                        _ => {
                            assert!(coop.is_ok(), "{spec:?}: {coop:?}");
                            assert_eq!(coop, threads, "{spec:?}");
                        }
                    }
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(cells, 4 * 6 * 2 * 8);
}
