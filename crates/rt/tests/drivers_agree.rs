//! The cooperative driver a job world runs on and the thread-per-rank
//! adapter are independent implementations of one contract: over every
//! entry of the program table, a seeded matrix of shapes and ring
//! capacities must give the same checksum, protocol counters and
//! collective traffic on both.

use dcuda_rt::programs::{fold_checksums, Params, Program};
use dcuda_rt::{thread_per_rank, try_run_cluster, try_run_cluster_job, CancelToken};
use dcuda_rt::{RtConfig, RtError};
use std::sync::atomic::Ordering;

/// SplitMix64: the seeded parameters of each cell.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What a run must agree on: the checksum, the protocol counters
/// (puts, notifications, matched, barriers) and the schedule-determined
/// collective counts (puts, bytes, chunks).
type Outcome = Result<(u64, [u64; 4], [u64; 3]), RtError>;

/// Run `program` on the cooperative driver or on rank threads.
fn run(cfg: &RtConfig, program: Program, p: Params, cooperative: bool) -> Outcome {
    let tasks = program.tasks(p, cfg.world());
    let (report, sums) = if cooperative {
        try_run_cluster_job(cfg, tasks, &CancelToken::new())?
    } else {
        let (programs, cells): (Vec<_>, Vec<_>) = thread_per_rank(tasks).into_iter().unzip();
        let report = try_run_cluster(cfg, programs)?;
        (
            report,
            cells.iter().map(|c| c.load(Ordering::Acquire)).collect(),
        )
    };
    let (r, c) = (&report, &report.coll);
    Ok((
        fold_checksums((0u32..).zip(sums)),
        [r.puts, r.notifications, r.matched, r.barriers],
        [c.puts, c.bytes, c.chunks],
    ))
}

#[test]
fn both_drivers_agree_on_every_registry_program() {
    let shapes = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (2, 4)];
    let mut cells = 0;
    for kind in 0..7u64 {
        for &(devices, ranks_per_device) in &shapes {
            for ring_capacity in [2, 64] {
                for seed in 0..8u64 {
                    let h =
                        mix(kind << 32 ^ u64::from(devices * 16 + ranks_per_device) << 16 ^ seed);
                    let p = Params {
                        seed: h >> 24,
                        iters: 1 + (h % 5) as u32,
                        payload: (h >> 16) as usize % 200,
                    };
                    let program = match kind {
                        0 => Program::Ring { poison_at: None },
                        1 => Program::PingPong,
                        2 => Program::Allreduce,
                        3 => Program::Ring {
                            poison_at: Some((h >> 8) as u32 % (p.iters + 1)),
                        },
                        4 => Program::Stencil,
                        5 => Program::Coll,
                        _ => Program::Racey,
                    };
                    let cfg = program
                        .config(&p, devices, ranks_per_device)
                        .ring_capacity(ring_capacity)
                        .build()
                        .expect("valid config");
                    let coop = run(&cfg, program, p, true);
                    let threads = run(&cfg, program, p, false);
                    let cell = format!(
                        "{program:?} {devices}x{ranks_per_device} ring {ring_capacity} {p:?}"
                    );
                    if let Program::Ring { poison_at: Some(_) } = program {
                        for (driver, out) in [("cooperative", &coop), ("threaded", &threads)] {
                            assert!(
                                matches!(out, Err(RtError::RankPanicked { rank: 0, .. })),
                                "{driver} {cell}: {out:?}"
                            );
                        }
                    } else {
                        assert!(coop.is_ok(), "{cell}: {coop:?}");
                        assert_eq!(coop, threads, "{cell}");
                    }
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(cells, 7 * 6 * 2 * 8);
}
