//! End-to-end tests of the threaded runtime: the blocking API of the
//! paper's Figure 2 listing running on real threads and real lock-free
//! queues.

use dcuda_rt::{
    run_cluster, run_cluster_traced, task, thread_per_rank, try_run_cluster, try_run_cluster_job,
    CancelToken, CollCtx, CollPlan, ProgressMode, RaceMode, Rank, RankTask, RtConfig, RtCtx,
    RtError, RtQuery, Tag, WindowId,
};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

fn cfg(devices: u32, ranks: u32) -> RtConfig {
    RtConfig {
        devices,
        ranks_per_device: ranks,
        windows: vec![4096],
        ring_capacity: 16,
        ..RtConfig::default()
    }
}

const W0: WindowId = WindowId(0);

#[test]
fn put_notify_wait_roundtrip_same_device() {
    let report = run_cluster(
        &cfg(1, 2),
        vec![
            Box::new(|ctx| {
                ctx.win_mut(W0)[0..4].copy_from_slice(&[1, 2, 3, 4]);
                ctx.put_notify(W0, Rank(1), 100, 0, 4, Tag(7));
                ctx.flush();
            }),
            Box::new(|ctx| {
                ctx.wait_notifications(RtQuery::exact(W0, Rank(0), Tag(7)), 1);
                assert_eq!(&ctx.win(W0)[100..104], &[1, 2, 3, 4]);
            }),
        ],
    );
    assert_eq!(report.puts, 1);
    assert_eq!(report.notifications, 1);
    assert_eq!(report.matched, 1);
}

#[test]
fn put_notify_crosses_devices() {
    run_cluster(
        &cfg(2, 1),
        vec![
            Box::new(|ctx| {
                ctx.win_mut(W0)[0] = 42;
                ctx.put_notify(W0, Rank(1), 0, 0, 1, Tag(3));
                ctx.flush();
            }),
            Box::new(|ctx| {
                ctx.wait_notifications(RtQuery::exact(W0, Rank(0), Tag(3)), 1);
                assert_eq!(ctx.win(W0)[0], 42);
            }),
        ],
    );
}

#[test]
fn pingpong_many_iterations() {
    const ITERS: u32 = 200;
    run_cluster(
        &cfg(2, 1),
        vec![
            Box::new(|ctx| {
                for i in 0..ITERS {
                    ctx.win_mut(W0)[0] = i as u8;
                    ctx.put_notify(W0, Rank(1), 0, 0, 1, Tag(1));
                    ctx.wait_notifications(RtQuery::exact(W0, Rank(1), Tag(2)), 1);
                    assert_eq!(ctx.win(W0)[1], i as u8, "echo mismatch at {i}");
                }
            }),
            Box::new(|ctx| {
                for _ in 0..ITERS {
                    ctx.wait_notifications(RtQuery::exact(W0, Rank(0), Tag(1)), 1);
                    let v = ctx.win(W0)[0];
                    ctx.win_mut(W0)[1] = v;
                    ctx.put_notify(W0, Rank(0), 1, 1, 1, Tag(2));
                }
            }),
        ],
    );
}

#[test]
fn barrier_orders_writes() {
    // Every rank writes a value, barriers, then puts it to rank 0, which
    // waits for all and checks. The barrier guarantees all are running.
    let devices = 2;
    let ranks = 3;
    let world = devices * ranks;
    let mut programs: Vec<dcuda_rt::cluster::RankProgram> = Vec::new();
    for r in 0..world {
        programs.push(Box::new(move |ctx| {
            ctx.barrier();
            if r != 0 {
                ctx.win_mut(W0)[0] = r as u8;
                ctx.put_notify(W0, Rank(0), r as usize, 0, 1, Tag(9));
            } else {
                ctx.wait_notifications(RtQuery::exact(W0, Rank::ANY, Tag(9)), (world - 1) as usize);
                for s in 1..world {
                    assert_eq!(ctx.win(W0)[s as usize], s as u8);
                }
            }
            ctx.barrier();
        }));
    }
    let report = run_cluster(&cfg(devices, ranks), programs);
    assert_eq!(report.barriers, 2);
}

#[test]
fn repeated_barriers_stay_in_step() {
    const ROUNDS: usize = 25;
    let devices = 2;
    let ranks = 2;
    let world = devices * ranks;
    let mut programs: Vec<dcuda_rt::cluster::RankProgram> = Vec::new();
    for r in 0..world {
        programs.push(Box::new(move |ctx| {
            for round in 0..ROUNDS {
                // Ring put: each rank tags with the round number.
                let dst = (r + 1) % world;
                ctx.win_mut(W0)[0] = round as u8;
                ctx.put_notify(W0, Rank(dst), 1, 0, 1, Tag(round as u32));
                ctx.wait_notifications(
                    RtQuery::exact(W0, Rank((r + world - 1) % world), Tag(round as u32)),
                    1,
                );
                assert_eq!(ctx.win(W0)[1], round as u8);
                ctx.barrier();
            }
        }));
    }
    run_cluster(&cfg(devices, ranks), programs);
}

#[test]
fn flush_makes_plain_puts_visible() {
    run_cluster(
        &cfg(2, 1),
        vec![
            Box::new(|ctx| {
                // Many un-notified puts, then one notified marker: the
                // runtime's in-order routing makes them all visible when the
                // marker matches.
                for i in 0..32usize {
                    ctx.win_mut(W0)[0] = i as u8;
                    ctx.put(W0, Rank(1), i, 0, 1);
                }
                ctx.flush();
                ctx.put_notify(W0, Rank(1), 100, 0, 1, Tag(5));
                ctx.flush();
            }),
            Box::new(|ctx| {
                ctx.wait_notifications(RtQuery::exact(W0, Rank(0), Tag(5)), 1);
                for i in 0..32usize {
                    assert_eq!(ctx.win(W0)[i], i as u8, "plain put {i} lost");
                }
            }),
        ],
    );
}

#[test]
fn wildcard_matching_with_compaction() {
    run_cluster(
        &cfg(1, 3),
        vec![
            Box::new(|ctx| {
                // Wait for tag 2 first although tag 1 arrives interleaved.
                ctx.wait_notifications(RtQuery::exact(W0, Rank::ANY, Tag(2)), 1);
                ctx.wait_notifications(RtQuery::exact(W0, Rank::ANY, Tag(1)), 1);
                // And a fully wildcard wait for the stragglers.
                ctx.wait_notifications(RtQuery::WILDCARD, 2);
            }),
            Box::new(|ctx| {
                ctx.put_notify(W0, Rank(0), 0, 0, 1, Tag(1));
                ctx.put_notify(W0, Rank(0), 1, 0, 1, Tag(3));
                ctx.flush();
            }),
            Box::new(|ctx| {
                ctx.put_notify(W0, Rank(0), 2, 0, 1, Tag(2));
                ctx.put_notify(W0, Rank(0), 3, 0, 1, Tag(4));
                ctx.flush();
            }),
        ],
    );
}

#[test]
fn wildcard_matrix_all_eight_combos() {
    // Every any/exact combination over (win, source, tag) must match a
    // notification from (win 1, rank 1, tag 7) — and an exact mismatch in
    // any position must not.
    let two_windows = RtConfig {
        devices: 1,
        ranks_per_device: 2,
        windows: vec![256, 256],
        ring_capacity: 16,
        ..RtConfig::default()
    };
    let report = run_cluster(
        &two_windows,
        vec![
            Box::new(|ctx| {
                let combos = [
                    RtQuery::exact(WindowId(1), Rank(1), Tag(7)),
                    RtQuery::exact(WindowId(1), Rank(1), Tag::ANY),
                    RtQuery::exact(WindowId(1), Rank::ANY, Tag(7)),
                    RtQuery::exact(WindowId(1), Rank::ANY, Tag::ANY),
                    RtQuery::exact(WindowId::ANY, Rank(1), Tag(7)),
                    RtQuery::exact(WindowId::ANY, Rank(1), Tag::ANY),
                    RtQuery::exact(WindowId::ANY, Rank::ANY, Tag(7)),
                    RtQuery::WILDCARD,
                ];
                for (i, q) in combos.into_iter().enumerate() {
                    ctx.wait_notifications(q, 1);
                    // Mismatches in each position find nothing buffered.
                    assert!(
                        !ctx.test_notifications(
                            RtQuery::exact(WindowId(0), Rank::ANY, Tag::ANY),
                            1
                        ),
                        "combo {i}: wrong window matched"
                    );
                    assert!(
                        !ctx.test_notifications(
                            RtQuery::exact(WindowId::ANY, Rank(0), Tag::ANY),
                            1
                        ),
                        "combo {i}: wrong source matched"
                    );
                    assert!(
                        !ctx.test_notifications(
                            RtQuery::exact(WindowId::ANY, Rank::ANY, Tag(8)),
                            1
                        ),
                        "combo {i}: wrong tag matched"
                    );
                }
            }),
            Box::new(|ctx| {
                for _ in 0..8 {
                    ctx.put_notify(WindowId(1), Rank(0), 0, 0, 1, Tag(7));
                    ctx.flush();
                }
            }),
        ],
    );
    assert_eq!(report.matched, 8);
}

#[test]
fn builder_validates_shapes() {
    assert!(RtConfig::builder().build().is_ok());
    let bad = [
        RtConfig::builder().devices(0).build(),
        RtConfig::builder().ranks_per_device(0).build(),
        RtConfig::builder()
            .devices(1024)
            .ranks_per_device(1024)
            .build(),
        RtConfig::builder().windows(vec![]).build(),
        RtConfig::builder().windows(vec![usize::MAX]).build(),
        RtConfig::builder().ring_capacity(3).build(),
        RtConfig::builder().ring_capacity(0).build(),
    ];
    for (i, b) in bad.iter().enumerate() {
        assert!(
            matches!(b, Err(RtError::InvalidConfig(_))),
            "case {i} accepted: {b:?}"
        );
    }
    let cfg = RtConfig::builder()
        .devices(1)
        .ranks_per_device(2)
        .windows(vec![128])
        .window(64)
        .ring_capacity(8)
        .build()
        .unwrap();
    assert_eq!(cfg.world(), 2);
    assert_eq!(cfg.windows, vec![128, 64]);
}

#[test]
fn try_run_cluster_rejects_program_miscount() {
    let err = try_run_cluster(&cfg(1, 2), vec![Box::new(|_| {})]).unwrap_err();
    assert!(matches!(err, RtError::InvalidConfig(_)), "{err}");
}

#[test]
fn bad_arguments_surface_as_errors() {
    run_cluster(
        &cfg(1, 1),
        vec![Box::new(|ctx| {
            assert!(matches!(
                ctx.try_win(WindowId(5)),
                Err(RtError::NoSuchWindow { .. })
            ));
            assert!(matches!(
                ctx.try_put_notify(WindowId(5), Rank(0), 0, 0, 1, Tag(0)),
                Err(RtError::NoSuchWindow { .. })
            ));
            assert!(matches!(
                ctx.try_put_notify(WindowId(0), Rank(99), 0, 0, 1, Tag(0)),
                Err(RtError::RankOutOfRange { .. })
            ));
            assert!(matches!(
                ctx.try_put_notify(WindowId(0), Rank::ANY, 0, 0, 1, Tag(0)),
                Err(RtError::WildcardNotAllowed { position: "dst" })
            ));
            assert!(matches!(
                ctx.try_put(WindowId(0), Rank(0), 0, 4000, 1000),
                Err(RtError::RangeOutOfBounds { .. })
            ));
        })],
    );
}

#[test]
fn window_range_overflow_is_an_error_not_a_wrap() {
    run_cluster(
        &cfg(1, 1),
        vec![Box::new(|ctx| {
            assert!(matches!(
                ctx.try_win_at(W0, usize::MAX, 2),
                Err(RtError::RangeOutOfBounds {
                    offset: usize::MAX,
                    len: 2,
                    ..
                })
            ));
        })],
    );
}

#[test]
fn out_of_range_destination_fails_at_the_origin() {
    // The bad put is rank 0's bug: rank 0 gets the error, and rank 1 (whose
    // delivery drain used to trip over it) runs on undisturbed.
    run_cluster(
        &cfg(1, 2),
        vec![
            Box::new(|ctx| {
                assert!(matches!(
                    ctx.try_put_notify(W0, Rank(1), 4090, 0, 16, Tag(0)),
                    Err(RtError::RangeOutOfBounds {
                        offset: 4090,
                        len: 16,
                        window_len: 4096,
                        ..
                    })
                ));
                ctx.barrier();
            }),
            Box::new(|ctx| ctx.barrier()),
        ],
    );
}

#[test]
fn traced_run_records_rank_timelines() {
    let (report, trace) = run_cluster_traced(
        &cfg(1, 2),
        vec![
            Box::new(|ctx| {
                ctx.win_mut(W0)[0] = 9;
                ctx.put_notify(W0, Rank(1), 0, 0, 1, Tag(7));
                ctx.flush();
                ctx.barrier();
            }),
            Box::new(|ctx| {
                ctx.wait_notifications(RtQuery::exact(W0, Rank(0), Tag(7)), 1);
                ctx.barrier();
            }),
        ],
    )
    .unwrap();
    assert_eq!(report.matched, 1);
    let names: Vec<&str> = trace.spans().iter().map(|s| s.name).collect();
    assert!(names.contains(&"wait"), "no wait span in {names:?}");
    assert!(names.contains(&"flush"), "no flush span in {names:?}");
    assert!(names.contains(&"barrier"), "no barrier span in {names:?}");
    assert_eq!(trace.instants().len(), 1, "one put_notify instant");
    for s in trace.spans() {
        assert!(s.end_ps >= s.start_ps, "span {} inverted", s.name);
    }
}

#[test]
fn ring_stress_small_rings_backpressure() {
    // Tiny rings force the credit system and host backlog into action.
    let cfg = RtConfig {
        devices: 2,
        ranks_per_device: 2,
        windows: vec![1024],
        ring_capacity: 4,
        ..RtConfig::default()
    };
    let world = 4;
    let mut programs: Vec<dcuda_rt::cluster::RankProgram> = Vec::new();
    for r in 0..world {
        programs.push(Box::new(move |ctx| {
            let dst = (r + 1) % world;
            for i in 0..100u32 {
                ctx.win_mut(W0)[0] = (i % 251) as u8;
                ctx.put_notify(W0, Rank(dst), 1, 0, 1, Tag(0));
                ctx.wait_notifications(
                    RtQuery::exact(W0, Rank((r + world - 1) % world), Tag(0)),
                    1,
                );
                // No consume-ack in this loop, so the left neighbour may run
                // ahead and overwrite the inbox — but only as far as the ring
                // lets it: its iteration j needs j-1 from its own left, and so
                // on round to this rank, which has put i. Hence j <= i+world-1.
                let got = u32::from(ctx.win(W0)[1]);
                assert!((i..i + world).contains(&got), "iter {i}: inbox {got}");
            }
        }));
    }
    let report = run_cluster(&cfg, programs);
    assert_eq!(report.puts, 400);
}

#[test]
fn stencil_like_halo_exchange_on_rt() {
    // A miniature 1-D Jacobi over the runtime: each rank owns 8 f64 cells
    // with double-buffered 1-cell halos (parity slots avoid the classic
    // one-sided race where a fast neighbour's next-iteration put clobbers a
    // halo still in use); compare against a serial computation.
    const CELLS: usize = 8;
    const ITERS: usize = 10;
    let devices = 2;
    let ranks = 2;
    let world = (devices * ranks) as usize;
    // Window layout (f64 indices): [halo_l(par 0), halo_l(par 1),
    // cells[CELLS], halo_r(par 0), halo_r(par 1)].
    let win_len = (CELLS + 4) * 8;
    let get = |w: &[u8], i: usize| f64::from_le_bytes(w[i * 8..(i + 1) * 8].try_into().unwrap());
    let put = |w: &mut [u8], i: usize, v: f64| {
        w[i * 8..(i + 1) * 8].copy_from_slice(&v.to_le_bytes());
    };

    // Serial reference.
    let n = world * CELLS;
    let mut serial = vec![0.0f64; n + 2];
    for (i, v) in serial.iter_mut().enumerate().skip(1).take(n) {
        *v = i as f64;
    }
    for _ in 0..ITERS {
        let prev = serial.clone();
        for i in 1..=n {
            serial[i] = 0.5 * (prev[i - 1] + prev[i + 1]);
        }
    }

    let results: Vec<std::sync::Arc<std::sync::Mutex<Vec<f64>>>> = (0..world)
        .map(|_| std::sync::Arc::new(std::sync::Mutex::new(Vec::new())))
        .collect();
    let mut programs: Vec<dcuda_rt::cluster::RankProgram> = Vec::new();
    for (r, result) in results.iter().enumerate() {
        let result = result.clone();
        programs.push(Box::new(move |ctx| {
            // Init interior (cells start at f64 index 2).
            for c in 0..CELLS {
                let global = r * CELLS + c + 1;
                let w = ctx.win_mut(W0);
                put(w, c + 2, global as f64);
            }
            let left = (r > 0).then(|| Rank((r - 1) as u32));
            let right = (r + 1 < world).then(|| Rank((r + 1) as u32));
            for it in 0..ITERS {
                let par = it % 2;
                let tag = Tag(it as u32);
                // Send my edge cells into the parity slot of each
                // neighbour's facing halo.
                if let Some(l) = left {
                    ctx.put_notify(W0, l, (CELLS + 2 + par) * 8, 2 * 8, 8, tag);
                }
                if let Some(rt) = right {
                    ctx.put_notify(W0, rt, par * 8, (CELLS + 1) * 8, 8, tag);
                }
                let expect = left.is_some() as usize + right.is_some() as usize;
                ctx.wait_notifications(RtQuery::exact(W0, Rank::ANY, tag), expect);
                // Jacobi step (edges use parity halos; world edges read 0).
                let w = ctx.win_mut(W0);
                let halo_l = get(w, par);
                let halo_r = get(w, CELLS + 2 + par);
                let prev: Vec<f64> = (0..CELLS).map(|c| get(w, c + 2)).collect();
                for c in 0..CELLS {
                    let lv = if c == 0 { halo_l } else { prev[c - 1] };
                    let rv = if c + 1 == CELLS { halo_r } else { prev[c + 1] };
                    put(w, c + 2, 0.5 * (lv + rv));
                }
            }
            let w = ctx.win(W0);
            let vals: Vec<f64> = (0..CELLS).map(|i| get(w, i + 2)).collect();
            *result.lock().unwrap() = vals;
        }));
    }
    run_cluster(
        &RtConfig {
            devices,
            ranks_per_device: ranks,
            windows: vec![win_len],
            ring_capacity: 16,
            ..RtConfig::default()
        },
        programs,
    );
    for r in 0..world {
        let vals = results[r].lock().unwrap();
        for c in 0..CELLS {
            let expect = serial[r * CELLS + c + 1];
            assert!(
                (vals[c] - expect).abs() < 1e-12,
                "rank {r} cell {c}: {} vs serial {expect}",
                vals[c]
            );
        }
    }
}

#[test]
fn rank_panic_propagates_as_typed_error() {
    let err = dcuda_rt::try_run_cluster_verified(
        &cfg(1, 2),
        vec![
            Box::new(|_ctx| panic!("deliberate test panic")),
            Box::new(|ctx| {
                // Blocks forever unless the abort flag interrupts the wait.
                ctx.try_wait_notifications(RtQuery::WILDCARD, 1).ok();
            }),
        ],
    )
    .unwrap_err();
    match err {
        RtError::RankPanicked { rank, message } => {
            assert_eq!(rank, 0);
            assert!(message.contains("deliberate test panic"), "{message}");
        }
        other => panic!("expected RankPanicked, got {other}"),
    }
}

#[test]
fn verified_run_reports_clean_invariants() {
    let (report, verify) = dcuda_rt::try_run_cluster_verified(
        &cfg(2, 2),
        vec![
            Box::new(|ctx| {
                ctx.win_mut(W0)[0..4].copy_from_slice(&[9, 8, 7, 6]);
                for i in 0..8u32 {
                    ctx.put_notify(W0, Rank(3), 0, 0, 4, Tag(i));
                }
                ctx.flush();
                ctx.barrier();
            }),
            Box::new(|ctx| {
                ctx.barrier();
            }),
            Box::new(|ctx| {
                ctx.barrier();
            }),
            Box::new(|ctx| {
                ctx.wait_notifications(RtQuery::exact(W0, Rank(0), Tag::ANY), 8);
                assert_eq!(&ctx.win(W0)[0..4], &[9, 8, 7, 6]);
                ctx.barrier();
            }),
        ],
    )
    .unwrap();
    assert_eq!(report.puts, 8);
    assert_eq!(report.matched, 8);
    assert!(verify.is_clean(), "monitor flagged violations: {verify}");
}

#[test]
fn verified_run_accounts_unconsumed_notifications_as_dropped() {
    // Rank 1 never polls; the host must book the residue as dropped, not
    // lost, so conservation still closes. More puts than its 16-slot ring
    // holds leave some in the host's backlog at quiescence.
    let (_, verify) = dcuda_rt::try_run_cluster_verified(
        &cfg(1, 2),
        vec![
            Box::new(|ctx| {
                for _ in 0..40 {
                    ctx.put_notify(W0, Rank(1), 0, 0, 1, Tag(1));
                }
                ctx.flush();
            }),
            Box::new(|_ctx| {}),
        ],
    )
    .unwrap();
    assert!(verify.is_clean(), "monitor flagged violations: {verify}");
}

#[test]
fn progress_threads_match_inline_protocol_counters() {
    // The progress pool must be protocol-invisible: the same workload run
    // Inline and with Threads(2) produces identical protocol counters. The
    // busy spin biases work toward the off-thread workers without changing
    // what the protocol does.
    use dcuda_rt::ProgressMode;
    const MSGS: u32 = 32;
    let mk_programs = || -> Vec<dcuda_rt::cluster::RankProgram> {
        let mut programs: Vec<dcuda_rt::cluster::RankProgram> = Vec::new();
        for rank in 0..4u32 {
            let partner = rank ^ 2;
            programs.push(Box::new(move |ctx| {
                for t in 0..MSGS {
                    ctx.put_notify(W0, Rank(partner), 0, 0, 8, Tag(t));
                }
                ctx.flush();
                ctx.wait_notifications(RtQuery::exact(W0, Rank(partner), Tag::ANY), MSGS as usize);
                ctx.barrier();
            }));
        }
        programs
    };
    let inline_cfg = cfg(2, 2);
    let inline = run_cluster(&inline_cfg, mk_programs());
    let threaded_cfg = RtConfig {
        progress: ProgressMode::Threads(2),
        host_busy_spin: 2_000,
        ..cfg(2, 2)
    };
    let threaded = run_cluster(&threaded_cfg, mk_programs());
    assert_eq!(inline.puts, threaded.puts);
    assert_eq!(inline.notifications, threaded.notifications);
    assert_eq!(inline.matched, threaded.matched);
    assert_eq!(inline.barriers, threaded.barriers);
}

#[test]
fn inline_busy_host_does_not_stall_waiting_ranks() {
    // In a world run whole in one process under `Inline`, a waiting rank
    // drives its own device's engine: a host loop away burning "application
    // work" between passes stalls nobody. Every rank-side wait is covered —
    // `wait_notifications` (ping-pong), `flush`, the collective engine's
    // internal wait (barrier, allreduce) and, through the two-slot rings,
    // the wait on a full command ring. The world's wall time still holds at
    // least one burn (the host's final quiescence pass runs after it); if
    // any wait depended on the host loop, each round trip would too.
    use dcuda_rt::cluster::RankProgram;
    use dcuda_rt::{allreduce_scratch_bytes, CollAlgo, CollCtx, CollPlan, Dtype, ReduceOp};
    use std::time::{Duration, Instant};
    const ROUND_TRIPS: u32 = 50;
    const BYTES: usize = 4096;
    // About 25 ms per burn in a release build, longer unoptimised.
    const BUSY: u64 = 30_000_000;
    let cfg = RtConfig::builder()
        .devices(2)
        .ranks_per_device(2)
        .windows(vec![BYTES])
        .ring_capacity(2)
        .coll_scratch(allreduce_scratch_bytes(CollAlgo::Ring, BYTES, 8, 4))
        .host_busy_spin(BUSY)
        .build()
        .unwrap();
    let plan = CollPlan::builder()
        .algo(CollAlgo::Ring)
        .chunk_bytes(256)
        .op(ReduceOp::Sum)
        .dtype(Dtype::U64)
        .build()
        .unwrap();
    let (tx, rx) = std::sync::mpsc::channel::<Duration>();
    let programs: Vec<RankProgram> = (0..4u32)
        .map(|r| {
            let tx = tx.clone();
            Box::new(move |ctx: &mut dcuda_rt::RtCtx| {
                let t = Instant::now();
                // Ranks 0/1 live on device 0, 2/3 on device 1.
                let partner = Rank(r ^ 2);
                for i in 0..ROUND_TRIPS {
                    let q = RtQuery::exact(W0, partner, Tag(i));
                    if r < 2 {
                        ctx.put_notify(W0, partner, 0, 0, 8, Tag(i));
                        ctx.wait_notifications(q, 1);
                    } else {
                        ctx.wait_notifications(q, 1);
                        ctx.put_notify(W0, partner, 0, 0, 8, Tag(i));
                    }
                }
                ctx.flush();
                ctx.barrier();
                for w in ctx.win_mut(W0).chunks_exact_mut(8) {
                    w.copy_from_slice(&u64::from(r + 1).to_le_bytes());
                }
                ctx.allreduce(W0, 0, BYTES, &plan);
                let sum = (1..=4u64).sum::<u64>().to_le_bytes();
                assert!(ctx.win(W0).chunks_exact(8).all(|w| w == sum));
                tx.send(t.elapsed()).unwrap();
            }) as RankProgram
        })
        .collect();
    let t = Instant::now();
    let report = run_cluster(&cfg, programs);
    let wall = t.elapsed();
    let slowest = rx.iter().take(4).max().unwrap();
    assert_eq!(report.puts, 4 * u64::from(ROUND_TRIPS));
    assert!(
        slowest < wall / 2,
        "slowest rank took {slowest:?} of a {wall:?} world: its waits queued behind the busy host loop"
    );
}

#[test]
fn lossy_transport_keeps_exactly_once_with_progress_pool_and_race_detection() {
    // Faults are a transport concern: on a mesh that drops and duplicates
    // frames the runtime still delivers every notification exactly once,
    // retransmits fire from whichever thread pumps the plane, and — since
    // the transport releases each channel strictly in sequence — the race
    // detector runs alongside and finds nothing.
    use dcuda_net::{NetConfig, NetFaults, SocketPlane};
    use dcuda_rt::{try_run_cluster_part, ClusterPart, ProgressMode, RaceMode};
    const MSGS: u32 = 96;
    const INBOX: usize = 1024;
    let cfg = RtConfig::builder()
        .devices(2)
        .ranks_per_device(2)
        .windows(vec![4096])
        .ring_capacity(16)
        .progress(ProgressMode::Threads(2))
        .host_busy_spin(1_000)
        .race_detect(RaceMode::Observe)
        .build()
        .expect("race detection needs no healthy-plane carve-out");
    let programs = |first: u32| -> Vec<dcuda_rt::cluster::RankProgram> {
        (first..first + 2)
            .map(|rank| -> dcuda_rt::cluster::RankProgram {
                // Cross-device partner: every put rides the lossy mesh.
                let partner = Rank(rank ^ 2);
                Box::new(move |ctx| {
                    ctx.win_mut_at(W0, 0, 8)
                        .copy_from_slice(&[rank as u8 + 1; 8]);
                    for t in 0..MSGS {
                        ctx.put_notify(W0, partner, INBOX + 8 * t as usize, 0, 8, Tag(t));
                    }
                    ctx.flush();
                    ctx.wait_notifications(RtQuery::exact(W0, partner, Tag::ANY), MSGS as usize);
                    let inbox = ctx.win_at(W0, INBOX, 8 * MSGS as usize);
                    assert!(inbox.iter().all(|&b| b == partner.0 as u8 + 1));
                    ctx.barrier();
                })
            })
            .collect()
    };
    // Both halves live in this process, so they share one `RaceHandle`.
    let lossy = NetConfig {
        faults: Some(NetFaults {
            seed: 9,
            drop_p: 0.2,
            dup_p: 0.2,
        }),
        ..NetConfig::default()
    };
    let [p0, p1] = SocketPlane::loopback_pair(lossy, None)
        .expect("loopback mesh")
        .map(|eps| -> Vec<Box<dyn dcuda_rt::Transport>> {
            eps.into_iter().map(|ep| Box::new(ep) as _).collect()
        });
    let part = |first_device| ClusterPart {
        first_device,
        local_devices: 1,
    };
    let (cfg1, progs1) = (cfg.clone(), programs(2));
    let t = std::thread::spawn(move || try_run_cluster_part(&cfg1, part(1), progs1, p1, false));
    let (r0, _) = try_run_cluster_part(&cfg, part(0), programs(0), p0, false).expect("half 0");
    let (r1, _) = t.join().expect("half 1 thread").expect("half 1");
    assert_eq!(r0.puts + r1.puts, 4 * u64::from(MSGS));
    assert_eq!(r0.notifications + r1.notifications, 4 * u64::from(MSGS));
    assert_eq!(r0.matched + r1.matched, 4 * u64::from(MSGS));
    assert!(r0.net.net_retries + r1.net.net_retries > 0, "20% drop");
    assert!(
        r0.net.net_dups_suppressed + r1.net.net_dups_suppressed > 0,
        "20% dup"
    );
    assert!(r0.races.is_empty() && r1.races.is_empty(), "{:?}", r0.races);
}

#[test]
fn hostile_rank_indices_off_the_wire_are_typed_errors() {
    // The half of a world whose peer speaks nonsense: one message naming a
    // local rank this device does not have. The host must refuse it, not
    // index out of bounds (`HostPanicked`).
    use dcuda_net::{InProcessPlane, WireMsg};
    use dcuda_rt::{try_run_cluster_part, ClusterPart, Transport};
    let deliver = WireMsg::Deliver {
        dst_local: 2,
        win: 0,
        dst_off: 0,
        source: 3,
        tag: 0,
        notify: true,
        seq: 0,
        origin_device: 1,
        origin_local: 0,
        flush_id: 1,
        data: vec![0; 8],
    };
    let ack = WireMsg::Ack {
        origin_local: u32::MAX,
        flush_id: 1,
    };
    for (what, msg) in [("Deliver", deliver), ("Ack", ack)] {
        let part = ClusterPart {
            first_device: 0,
            local_devices: 1,
        };
        let programs: Vec<dcuda_rt::cluster::RankProgram> =
            vec![Box::new(|_| {}), Box::new(|_| {})];
        let mut planes = InProcessPlane::new_world(2);
        let mut peer = planes.pop().expect("device 1");
        peer.send(0, msg).expect("plane send");
        let plane: Vec<Box<dyn Transport>> = vec![Box::new(planes.pop().expect("device 0"))];
        match try_run_cluster_part(&cfg(2, 2), part, programs, plane, false) {
            Err(RtError::Transport { detail }) => assert!(detail.contains(what), "{detail}"),
            other => panic!("{what}: expected a transport error, got {:?}", other.err()),
        }
    }
}

use dcuda_net::{NetError, WireMsg};
use std::sync::atomic::{AtomicU32, Ordering};

/// Device 0's endpoint in a world of single-device processes, scripted.
/// Process 1 is reported gone from the moment this side's `Finished` went
/// out; `early` messages arrive before that, `late` ones only once the host
/// has consulted the gone list `late_after` times.
struct ScriptedPlane {
    remote: Vec<u32>,
    early: Vec<WireMsg>,
    late: Vec<WireMsg>,
    late_after: u32,
    finished_sent: bool,
    consulted: AtomicU32,
}

impl dcuda_rt::Transport for ScriptedPlane {
    fn send(&mut self, _peer: u32, msg: WireMsg) -> Result<(), NetError> {
        self.finished_sent |= matches!(msg, WireMsg::Finished { .. });
        Ok(())
    }
    fn try_recv(&mut self) -> Result<Option<WireMsg>, NetError> {
        if let Some(msg) = self.early.pop() {
            return Ok(Some(msg));
        }
        let consulted = self.consulted.load(Ordering::Relaxed);
        Ok((consulted >= self.late_after)
            .then(|| self.late.pop())
            .flatten())
    }
    fn pump(&mut self) -> Result<bool, NetError> {
        Ok(false)
    }
    fn remote_devices(&self) -> Vec<u32> {
        self.remote.clone()
    }
    // `gone_peers` keeps its default: this, as a list.
    fn peer_gone(&self) -> Option<u32> {
        self.finished_sent.then(|| {
            self.consulted.fetch_add(1, Ordering::Relaxed);
            1
        })
    }
}

/// Run device 0 (one rank, an empty program) of a `devices`-process world
/// against the script.
fn run_scripted(
    devices: u32,
    early: Vec<WireMsg>,
    late: Vec<WireMsg>,
    late_after: u32,
) -> Result<(), RtError> {
    run_scripted_program(devices, early, late, late_after, Box::new(|_| {}))
}

/// As [`run_scripted`], with device 0's one rank running `program`.
fn run_scripted_program(
    devices: u32,
    early: Vec<WireMsg>,
    late: Vec<WireMsg>,
    late_after: u32,
    program: dcuda_rt::cluster::RankProgram,
) -> Result<(), RtError> {
    use dcuda_rt::{try_run_cluster_part, ClusterPart, Transport};
    let part = ClusterPart {
        first_device: 0,
        local_devices: 1,
    };
    let programs = vec![program];
    let plane: Vec<Box<dyn Transport>> = vec![Box::new(ScriptedPlane {
        remote: (1..devices).collect(),
        early,
        late,
        late_after,
        finished_sent: false,
        consulted: AtomicU32::new(0),
    })];
    try_run_cluster_part(&cfg(devices, 1), part, programs, plane, false).map(|_| ())
}

fn finished(device: u32) -> WireMsg {
    WireMsg::Finished { device, ranks: 1 }
}

#[test]
fn finished_queued_behind_a_peer_exit_is_not_a_dead_peer() {
    // A peer that finished and exited: the plane already reports it gone
    // while its last `Finished` is still queued. That is a clean run.
    run_scripted(2, vec![], vec![finished(1)], 1).expect("clean run");
}

#[test]
fn a_finished_peers_exit_is_not_mistaken_for_a_slower_peers_death() {
    // Three processes: process 1 announced its rank and left while process
    // 2's `Finished` is still on its way. The host is one `Finished` short
    // and sees a gone peer with nothing queued — yet nobody died.
    run_scripted(3, vec![finished(1)], vec![finished(2)], 2).expect("clean run");
}

#[test]
fn a_peer_gone_with_ranks_unannounced_is_a_transport_error() {
    // Process 1 vanished without announcing its rank; process 2 finishing
    // does not excuse it.
    match run_scripted(3, vec![finished(2)], vec![], 1) {
        Err(RtError::Transport { detail }) => {
            assert!(detail.contains("peer process 1 died"), "{detail}")
        }
        other => panic!("expected a transport error, got {other:?}"),
    }
}

#[test]
fn a_finished_naming_no_device_of_the_world_is_a_transport_error() {
    match run_scripted(2, vec![finished(2)], vec![], 1) {
        Err(RtError::Transport { detail }) => assert!(detail.contains("Finished"), "{detail}"),
        other => panic!("expected a transport error, got {other:?}"),
    }
}

#[test]
fn a_finished_announcing_more_ranks_than_its_device_has_is_a_transport_error() {
    // Three 1-rank devices: device 1 claiming two finished ranks must not
    // let the world end before device 2 has spoken, nor may a peer
    // announce this process's own device, and a count near `u32::MAX` on
    // top of an earlier announcement must not wrap.
    let over = WireMsg::Finished {
        device: 1,
        ranks: 2,
    };
    let wrapping = WireMsg::Finished {
        device: 1,
        ranks: u32::MAX,
    };
    for early in [
        vec![over],
        vec![finished(0), finished(1)],
        vec![wrapping, finished(1)],
    ] {
        match run_scripted(3, early, vec![], 1) {
            Err(RtError::Transport { detail }) => {
                assert!(detail.contains("Finished"), "{detail}")
            }
            other => panic!("expected a transport error, got {other:?}"),
        }
    }
}

#[test]
fn a_deliver_whose_offset_overflows_is_a_typed_range_error_at_the_rank() {
    // `dst_off` is a u64 off the wire. Added to the payload length it
    // wraps: an unchecked sum passes the bounds test in release and panics
    // on the slice (and overflow-panics in debug). The waiting rank must
    // get the range error as a value; the world then ends cleanly.
    let deliver = WireMsg::Deliver {
        dst_local: 0,
        win: 0,
        dst_off: u64::MAX,
        source: 1,
        tag: 5,
        notify: true,
        seq: 0,
        origin_device: 1,
        origin_local: 0,
        flush_id: 1,
        data: vec![0xAB; 8],
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let program: dcuda_rt::cluster::RankProgram = Box::new(move |ctx| {
        let got = ctx.try_wait_notifications(RtQuery::exact(W0, Rank(1), Tag(5)), 1);
        tx.send(got).expect("test is listening");
    });
    run_scripted_program(2, vec![deliver], vec![finished(1)], 1, program)
        .expect("the rank handled its error; nothing panicked");
    match rx.recv().expect("rank reported") {
        Err(
            e @ RtError::RangeOutOfBounds {
                win: W0,
                offset: usize::MAX,
                len: 8,
                window_len: 4096,
            },
        ) => assert!(e.to_string().contains("exceeds"), "{e}"),
        other => panic!("expected a range error, got {other:?}"),
    }
}

#[test]
fn zero_progress_threads_rejected() {
    use dcuda_rt::ProgressMode;
    let bad = RtConfig {
        progress: ProgressMode::Threads(0),
        ..RtConfig::default()
    };
    assert!(matches!(
        try_run_cluster(&bad, vec![]),
        Err(RtError::InvalidConfig(_))
    ));
}

#[test]
fn oversized_progress_pool_rejected() {
    use dcuda_rt::{ProgressMode, MAX_PROGRESS_THREADS};
    let bad = RtConfig {
        progress: ProgressMode::Threads(MAX_PROGRESS_THREADS + 1),
        ..RtConfig::default()
    };
    assert!(matches!(
        try_run_cluster(&bad, vec![]),
        Err(RtError::InvalidConfig(_))
    ));
}

/// Tier-1-sized `fanin_backlog`: two senders park 256 notifications on
/// rank 0, which matches them away in a seeded order through every query
/// shape the matcher indexes differently, interleaved so entries die
/// through one mask while chained in another.
#[test]
fn fanin_backlog_matches_in_any_order_through_every_query_shape() {
    use dcuda_des::SplitMix64;
    const PER_SENDER: u32 = 128;
    const DONE: u32 = 1 << 20;
    // Tag classes, each consumed by one query shape.
    const EXACT: std::ops::Range<u32> = 0..48; // (s, t) x1, per sender
    const ANY_SOURCE: std::ops::Range<u32> = 48..80; // (any, t) x1, twice
    const PAIRS: std::ops::Range<u32> = 80..96; // (any, t) x2
    const ANY_TAG_TAKEN: usize = 20; // of the 32 left per sender, (s, any) x1
    let slot = |s: u32, t: u32| ((s - 1) * PER_SENDER + t) as usize;
    let byte = |s: u32, t: u32| (s * 37 + t) as u8;

    let mut plan: Vec<(RtQuery, usize)> = Vec::new();
    for t in EXACT {
        plan.extend([1, 2].map(|s| (RtQuery::exact(W0, Rank(s), Tag(t)), 1)));
    }
    for t in ANY_SOURCE {
        plan.extend([(RtQuery::exact(W0, Rank::ANY, Tag(t)), 1); 2]);
    }
    for t in PAIRS {
        plan.push((RtQuery::exact(W0, Rank::ANY, Tag(t)), 2));
    }
    let mut rng = SplitMix64::new(0xFA17);
    for i in (1..plan.len()).rev() {
        plan.swap(i, rng.next_below(i as u64 + 1) as usize);
    }

    let mut programs: Vec<dcuda_rt::cluster::RankProgram> = vec![Box::new(move |ctx| {
        for s in [1, 2] {
            ctx.wait_notifications(RtQuery::exact(W0, Rank(s), Tag(DONE)), 1);
        }
        for s in [1, 2] {
            for t in 0..PER_SENDER {
                assert_eq!(ctx.win(W0)[slot(s, t)], byte(s, t), "payload ({s}, {t})");
            }
        }
        // Absent keys, and a present key asked for once too often, find
        // nothing and consume nothing.
        assert!(!ctx.test_notifications(RtQuery::exact(W0, Rank(1), Tag(999)), 1));
        assert!(!ctx.test_notifications(RtQuery::exact(W0, Rank(3), Tag::ANY), 1));
        assert!(!ctx.test_notifications(RtQuery::exact(W0, Rank(1), Tag(3)), 2));
        assert!(!ctx.test_notifications(RtQuery::WILDCARD, 2 * PER_SENDER as usize + 1));
        for (i, &(q, count)) in plan.iter().enumerate() {
            assert!(ctx.test_notifications(q, count), "step {i}: {q:?} x{count}");
        }
        // Only the last tag class is left: 32 per sender.
        for s in [1, 2] {
            for _ in 0..ANY_TAG_TAKEN {
                assert!(ctx.test_notifications(RtQuery::exact(W0, Rank(s), Tag::ANY), 1));
            }
        }
        let residual = 2 * (32 - ANY_TAG_TAKEN);
        assert!(!ctx.test_notifications(RtQuery::WILDCARD, residual + 1));
        assert!(ctx.test_notifications(RtQuery::WILDCARD, residual));
        assert!(!ctx.test_notifications(RtQuery::WILDCARD, 1));
    })];
    programs.extend([1u32, 2].map(|s| {
        Box::new(move |ctx: &mut dcuda_rt::RtCtx| {
            for t in 0..PER_SENDER {
                ctx.win_mut(W0)[0] = byte(s, t);
                ctx.put_notify(W0, Rank(0), slot(s, t), 0, 1, Tag(t));
            }
            ctx.put_notify(W0, Rank(0), 0, 0, 0, Tag(DONE));
            ctx.flush();
        }) as dcuda_rt::cluster::RankProgram
    }));
    let report = run_cluster(&cfg(1, 3), programs);
    assert_eq!(report.notifications, 2 * u64::from(PER_SENDER) + 2);
    assert_eq!(report.matched, report.notifications);
}

/// Collective notifications queue apart from the user matcher: while one is
/// demonstrably buffered at a rank — and while the other ranks' allreduce
/// is in flight towards it — no user query observes it, neither all
/// wildcards nor an exact query that spells out the reserved tag.
#[test]
fn user_queries_never_observe_collective_notifications() {
    use dcuda_rt::{CollCtx, CollPlan, COLL_TAG_BIT};
    let plan = CollPlan::builder().chunk_bytes(64).build().unwrap();
    let world = 3u32;
    // Layout: [0..8) shift inbox, [8..16) shift staging, [16..80) allreduce.
    let marker = |r: u32| (0xC011_0000u64 + u64::from(r)).to_le_bytes();
    let mut programs: Vec<dcuda_rt::cluster::RankProgram> = Vec::new();
    for r in 0..world {
        programs.push(Box::new(move |ctx| {
            ctx.win_mut_at(W0, 8, 8).copy_from_slice(&marker(r));
            ctx.win_mut_at(W0, 16, 64).fill(1);
            if r == 0 {
                // A ring shift lands its payload in the user window under a
                // reserved tag, payload and notification in one drain step:
                // once rank 2's marker is readable, its notification is
                // buffered here.
                while ctx.win_at(W0, 0, 8) != marker(2) {
                    assert!(!ctx.test_notifications(RtQuery::WILDCARD, 1));
                    std::thread::yield_now();
                }
                for tag in [Tag::ANY, Tag(COLL_TAG_BIT), Tag(COLL_TAG_BIT | 1)] {
                    assert!(!ctx.test_notifications(RtQuery::exact(W0, Rank(2), tag), 1));
                    let any_win = RtQuery::exact(WindowId::ANY, Rank::ANY, tag);
                    assert!(!ctx.test_notifications(any_win, 1));
                }
            }
            ctx.ring_shift(W0, 0, 8, 8);
            ctx.ring_release();
            if r == 0 {
                // Ranks 1 and 2 are in the allreduce by now or about to be;
                // their barrier round and first chunks head this way.
                for _ in 0..2000 {
                    assert!(!ctx.test_notifications(RtQuery::WILDCARD, 1));
                    std::thread::yield_now();
                }
            }
            ctx.allreduce(W0, 16, 64, &plan);
            // u64 sums of 0x0101..01 over three ranks: no byte carries.
            assert!(ctx.win_at(W0, 16, 64).iter().all(|&b| b == 3));
            // User traffic is still seen, and is all that is seen.
            if r == 1 {
                ctx.put_notify(W0, Rank(0), 0, 8, 8, Tag(5));
                ctx.flush();
            }
            if r == 0 {
                ctx.wait_notifications(RtQuery::WILDCARD, 1);
                assert_eq!(ctx.win_at(W0, 0, 8), marker(1));
                assert!(!ctx.test_notifications(RtQuery::WILDCARD, 1));
            }
            ctx.barrier();
        }));
    }
    let report = run_cluster(&cfg(1, 3), programs);
    assert_eq!((report.puts, report.matched), (1, 1));
    assert!(report.coll.puts > 0);
}

/// A task that finishes at once with checksum 0.
fn done() -> RankTask {
    task(|_| Box::pin(async { Ok(0) }))
}

/// A 2×2 ring round in which every rank records the thread it runs on,
/// once before its wait and once after.
fn recording_ring(ids: &Arc<Mutex<Vec<ThreadId>>>) -> Vec<RankTask> {
    (0..4u32)
        .map(|r| {
            let ids = ids.clone();
            let record = move || ids.lock().unwrap().push(std::thread::current().id());
            task(move |ctx| {
                Box::pin(async move {
                    record();
                    ctx.try_put_notify(W0, Rank((r + 1) % 4), 0, 0, 1, Tag(1))?;
                    ctx.wait_notifications_async(RtQuery::exact(W0, Rank((r + 3) % 4), Tag(1)), 1)
                        .await?;
                    record();
                    Ok(u64::from(r))
                })
            })
        })
        .collect()
}

fn job(tasks: Vec<RankTask>) -> Result<(dcuda_rt::RtReport, Vec<u64>), RtError> {
    try_run_cluster_job(&cfg(2, 2), tasks, &CancelToken::new())
}

/// Every task of a job world runs on the thread that called
/// `try_run_cluster_job`; the same tasks on `try_run_cluster` run on a new
/// thread per rank.
#[test]
fn job_worlds_run_on_the_callers_thread() {
    let me = std::thread::current().id();
    let ids = Arc::new(Mutex::new(Vec::new()));
    for _ in 0..50 {
        let (report, sums) = job(recording_ring(&ids)).unwrap();
        assert_eq!((report.puts, report.matched), (4, 4));
        assert_eq!(sums, [0, 1, 2, 3]);
    }
    let ids = ids.lock().unwrap();
    assert_eq!(ids.len(), 400, "two records per task");
    assert!(
        ids.iter().all(|&id| id == me),
        "a job task ran off the caller"
    );

    let ids = Arc::new(Mutex::new(Vec::new()));
    for _ in 0..10 {
        let (programs, _): (Vec<_>, Vec<_>) =
            thread_per_rank(recording_ring(&ids)).into_iter().unzip();
        try_run_cluster(&cfg(2, 2), programs).unwrap();
    }
    let distinct = ids.lock().unwrap().iter().collect::<HashSet<_>>().len();
    assert_eq!(distinct, 40);
}

#[test]
fn job_worlds_recover_from_a_rank_panic_and_a_cancel() {
    let me = std::thread::current().id();
    let ids = Arc::new(Mutex::new(Vec::new()));

    let mut tasks = recording_ring(&ids);
    tasks[1] = task(|_| Box::pin(async { panic!("rank 1 dies") }));
    match job(tasks) {
        Err(RtError::RankPanicked { rank: 1, .. }) => {}
        other => panic!("expected rank 1 to panic, got {other:?}"),
    }

    assert!(matches!(outrun_attempt(), Err(RtError::Cancelled)));

    ids.lock().unwrap().clear();
    for _ in 0..20 {
        job(recording_ring(&ids)).unwrap();
    }
    let ids = ids.lock().unwrap();
    assert_eq!(ids.len(), 160);
    assert!(ids.iter().all(|&id| id == me));
}

/// Rank 0 flushes forever with nothing outstanding, so each of its waits
/// is satisfied at once; rank 1 raises the cancel on its third turn.
fn outrun_attempt() -> Result<(dcuda_rt::RtReport, Vec<u64>), RtError> {
    let cancel = CancelToken::new();
    let raise = cancel.clone();
    let tasks = vec![
        task(|ctx| {
            Box::pin(async move {
                loop {
                    ctx.flush_async().await?;
                }
            })
        }),
        task(move |ctx| {
            Box::pin(async move {
                for turn in 0.. {
                    if turn == 2 {
                        raise.cancel();
                    }
                    ctx.flush_async().await?;
                }
                Ok(1)
            })
        }),
    ];
    try_run_cluster_job(&cfg(1, 2), tasks, &cancel)
}

/// A wait that is already satisfied still ends its task's turn, so the
/// cancel ends the run at once. A wait that completed in the poll that
/// reached it would spin rank 0 forever inside its first turn.
#[test]
fn a_task_cannot_outrun_the_sweep() {
    let start = std::time::Instant::now();
    let out = outrun_attempt();
    assert!(matches!(out, Err(RtError::Cancelled)), "{out:?}");
    assert!(start.elapsed() < std::time::Duration::from_secs(1));
}

#[test]
fn job_worlds_refuse_what_one_thread_cannot_honour() {
    let refused = |cfg: RtConfig, field: &str| {
        let tasks = (0..cfg.world()).map(|_| done()).collect();
        match try_run_cluster_job(&cfg, tasks, &CancelToken::new()) {
            Err(RtError::InvalidConfig(msg)) => assert!(msg.starts_with(field), "{msg}"),
            other => panic!("{field}: expected InvalidConfig, got {other:?}"),
        }
    };
    let base = || RtConfig::builder().devices(1).ranks_per_device(2);
    refused(
        base().race_detect(RaceMode::Observe).build().unwrap(),
        "race_detect",
    );
    refused(
        base().progress(ProgressMode::Threads(1)).build().unwrap(),
        "progress",
    );
    refused(base().host_busy_spin(10).build().unwrap(), "host_busy_spin");
    assert!(matches!(
        try_run_cluster_job(&cfg(1, 2), vec![done()], &CancelToken::new()),
        Err(RtError::InvalidConfig(_))
    ));
}

#[test]
fn a_blocking_call_inside_a_task_is_a_typed_error() {
    let plan = CollPlan::builder().build().unwrap();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let calls = seen.clone();
    let tasks = vec![
        task(move |ctx: &mut RtCtx| {
            let q = RtQuery::WILDCARD;
            let mut calls = calls.lock().unwrap();
            calls.push(ctx.try_wait_notifications(q, 1));
            calls.push(ctx.try_flush());
            calls.push(ctx.try_barrier());
            calls.push(ctx.try_allreduce(W0, 0, 64, &plan));
            calls.push(ctx.try_reduce_scatter(W0, 0, 64, &plan));
            calls.push(ctx.try_all_gather(W0, 0, 64, &plan));
            calls.push(ctx.try_broadcast(W0, 0, 64, Rank(0), &plan));
            calls.push(ctx.try_ring_shift(W0, 64, 0, 64));
            calls.push(ctx.try_ring_release());
            Box::pin(async { Ok(0) })
        }),
        done(),
    ];
    try_run_cluster_job(&cfg(1, 2), tasks, &CancelToken::new()).unwrap();
    let names: Vec<_> = seen
        .lock()
        .unwrap()
        .iter()
        .map(|r| match r {
            Err(RtError::BlockingInTask { call }) => *call,
            other => panic!("expected BlockingInTask, got {other:?}"),
        })
        .collect();
    assert_eq!(
        names,
        [
            "wait_notifications",
            "flush",
            "barrier",
            "allreduce",
            "reduce_scatter",
            "all_gather",
            "broadcast",
            "ring_shift",
            "ring_release"
        ]
    );

    // A task that lets the error escape ends its world with it.
    let tasks = vec![
        task(|ctx| {
            Box::pin(async move {
                ctx.try_flush()?;
                Ok(0)
            })
        }),
        done(),
    ];
    assert_eq!(
        try_run_cluster_job(&cfg(1, 2), tasks, &CancelToken::new()).unwrap_err(),
        RtError::BlockingInTask { call: "flush" }
    );
}

#[test]
fn a_stalled_job_world_fails_fast() {
    let q = RtQuery::exact(W0, Rank(3), Tag(77));
    let mut tasks: Vec<RankTask> = (0..4).map(|_| done()).collect();
    tasks[1] = task(move |ctx| {
        Box::pin(async move {
            ctx.wait_notifications_async(q, 1).await?;
            Ok(0)
        })
    });
    let start = std::time::Instant::now();
    let err = try_run_cluster_job(&cfg(2, 2), tasks, &CancelToken::new()).unwrap_err();
    assert!(start.elapsed() < std::time::Duration::from_millis(100));
    match &err {
        RtError::Stalled { waiting } => {
            assert_eq!(waiting.len(), 1);
            assert_eq!(waiting[0].0, 1);
            assert!(waiting[0].1.contains("rank 3, tag 77"), "{err}");
        }
        other => panic!("expected a stall, got {other:?}"),
    }
}

#[test]
fn a_stall_on_a_collective_names_its_wait() {
    // Rank 1 returns at once, so rank 0's barrier round never hears back.
    let tasks = vec![
        task(|ctx| {
            Box::pin(async move {
                ctx.barrier_async().await?;
                Ok(0)
            })
        }),
        done(),
    ];
    let err = try_run_cluster_job(&cfg(1, 2), tasks, &CancelToken::new()).unwrap_err();
    match &err {
        RtError::Stalled { waiting } => {
            assert_eq!(waiting.len(), 1);
            assert_eq!(waiting[0].0, 0);
            assert_eq!(waiting[0].1, "a collective message from rank 1", "{err}");
        }
        other => panic!("expected a stall, got {other:?}"),
    }
}

/// Below every payload size the engine lands itself.
const SMALL: usize = 1 << 10;
/// Above every payload size the engine lands itself.
const LARGE: usize = 128 << 10;

/// Rank 0 sends rank 1 two puts over the same leading bytes of window 0,
/// `first` then `second` bytes long, each stamped with its own byte, once
/// rank 1 has signalled that it waits for them. Rank 1 checks that the
/// later put's bytes won wherever the two overlap.
fn overlapping_puts(first: usize, second: usize) -> Vec<RankTask> {
    let origin = task(move |ctx| {
        Box::pin(async move {
            ctx.wait_notifications_async(RtQuery::exact(W0, Rank(1), Tag(1)), 1)
                .await?;
            for (len, stamp, tag) in [(first, 0xA1, 2), (second, 0xB2, 3)] {
                ctx.try_win_mut_at(W0, 0, len)?.fill(stamp);
                ctx.try_put_notify(W0, Rank(1), 0, 0, len, Tag(tag))?;
            }
            ctx.flush_async().await?;
            Ok(0)
        })
    });
    let target = task(move |ctx| {
        Box::pin(async move {
            ctx.try_put_notify(W0, Rank(0), 0, 0, 0, Tag(1))?;
            let both = RtQuery::WILDCARD.with_win(W0).with_source(Rank(0));
            ctx.wait_notifications_async(both, 2).await?;
            let w = ctx.try_win(W0)?;
            let expect = |i: usize| match i {
                i if i < second => 0xB2,
                i if i < first => 0xA1,
                _ => 0,
            };
            let wrong = (0..w.len()).find(|&i| w[i] != expect(i));
            assert_eq!(wrong, None, "{first} then {second} bytes: wrong byte");
            ctx.flush_async().await?;
            Ok(1)
        })
    });
    vec![origin, target]
}

/// Overlapping puts of a size the engine lands and one it leaves to the
/// rank, in both orders, same-device and cross-device, under both
/// drivers: the later put's bytes win, as they do when the rank applies
/// every payload itself.
#[test]
fn landed_and_carried_payloads_keep_their_order() {
    for (devices, ranks) in [(2, 1), (1, 2)] {
        let cfg = RtConfig {
            windows: vec![LARGE],
            ..cfg(devices, ranks)
        };
        for (first, second) in [(SMALL, LARGE), (LARGE, SMALL), (LARGE, LARGE)] {
            let (_, sums) =
                try_run_cluster_job(&cfg, overlapping_puts(first, second), &CancelToken::new())
                    .expect("job world");
            assert_eq!(sums, [0, 1]);
            for _ in 0..10 {
                let (programs, _): (Vec<_>, Vec<_>) =
                    thread_per_rank(overlapping_puts(first, second))
                        .into_iter()
                        .unzip();
                try_run_cluster(&cfg, programs).expect("threaded world");
            }
        }
    }
}

/// An allreduce whose chunks are large enough to land, on a fresh world:
/// the first chunk reaches each rank's scratch window before that rank
/// touched it, so there is nowhere to land it and the rank must allocate
/// the window and copy the chunk itself. The sums are exact on both
/// drivers.
#[test]
fn a_chunk_for_an_untouched_scratch_window_falls_back_to_the_rank() {
    const LEN: usize = 2 * LARGE;
    let plan = CollPlan::builder()
        .chunk_bytes(LARGE)
        .op(dcuda_rt::ReduceOp::Sum)
        .dtype(dcuda_rt::Dtype::U64)
        .build()
        .expect("plan");
    let word = |rank: u64, i: usize| rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
    let tasks = |world: u32| -> Vec<RankTask> {
        (0..u64::from(world))
            .map(|r| {
                task(move |ctx| {
                    Box::pin(async move {
                        for (i, w) in ctx.try_win_mut(W0)?.chunks_exact_mut(8).enumerate() {
                            w.copy_from_slice(&word(r, i).to_le_bytes());
                        }
                        dcuda_rt::Collective::allreduce(ctx, W0, 0, LEN, &plan)?
                            .run(ctx)
                            .await?;
                        let got = ctx.try_win(W0)?;
                        for (i, w) in got.chunks_exact(8).enumerate() {
                            let sum = (0..u64::from(world))
                                .fold(0u64, |acc, q| acc.wrapping_add(word(q, i)));
                            assert_eq!(w, sum.to_le_bytes(), "rank {r} element {i}");
                        }
                        Ok(r)
                    })
                })
            })
            .collect()
    };
    for (devices, ranks) in [(2u32, 1u32), (1, 2)] {
        let cfg = RtConfig {
            windows: vec![LEN],
            coll_scratch: dcuda_rt::allreduce_scratch_bytes(plan.algo(), LEN, 8, devices * ranks),
            ..cfg(devices, ranks)
        };
        let (report, sums) =
            try_run_cluster_job(&cfg, tasks(devices * ranks), &CancelToken::new()).expect("job");
        assert_eq!(sums, [0, 1]);
        assert!(report.coll.chunks > 0, "{report:?}");
        for _ in 0..5 {
            let (programs, _): (Vec<_>, Vec<_>) =
                thread_per_rank(tasks(devices * ranks)).into_iter().unzip();
            try_run_cluster(&cfg, programs).expect("threaded world");
        }
    }
}
