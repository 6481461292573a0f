//! Tests of the notified-RMA collective engine: algorithm correctness
//! against the serial reference, bitwise chunking invariance, the reserved
//! tag space, the hidden scratch window and the migration primitives.

use dcuda_coll::{segment_range, serial_allreduce};
use dcuda_des::check::full_tier;
use dcuda_des::SplitMix64;
use dcuda_rt::prelude::*;
use dcuda_rt::programs::{fnv_bytes, FNV_OFFSET};
use dcuda_rt::{run_cluster, thread_per_rank, try_run_cluster, try_run_cluster_job, CancelToken};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

const W0: WindowId = WindowId(0);

fn cfg(devices: u32, ranks: u32, win_bytes: usize) -> RtConfig {
    RtConfig {
        devices,
        ranks_per_device: ranks,
        windows: vec![win_bytes],
        ring_capacity: 16,
        ..RtConfig::default()
    }
}

/// Deterministic per-rank input: `elems` little-endian u64 words drawn from
/// a rank-seeded stream.
fn input_u64(rank: u32, elems: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(0xC0FF_EE00 ^ (u64::from(rank) * 0x9E37_79B9));
    let mut out = Vec::with_capacity(elems * 8);
    for _ in 0..elems {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out
}

/// Run one allreduce over `devices * ranks` ranks and return every rank's
/// resulting buffer plus the cluster report.
fn run_allreduce(
    devices: u32,
    ranks: u32,
    elems: usize,
    plan: CollPlan,
) -> (Vec<Vec<u8>>, RtReport) {
    let world = devices * ranks;
    let len = elems * plan.dtype().size();
    let results: Vec<Arc<Mutex<Vec<u8>>>> = (0..world)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let mut programs: Vec<dcuda_rt::cluster::RankProgram> = Vec::new();
    for (r, out) in results.iter().enumerate() {
        let out = out.clone();
        programs.push(Box::new(move |ctx| {
            let input = input_u64(r as u32, len / 8 + usize::from(!len.is_multiple_of(8)));
            ctx.win_mut(W0)[..len].copy_from_slice(&input[..len]);
            ctx.allreduce(W0, 0, len, &plan);
            *out.lock().unwrap() = ctx.win(W0)[..len].to_vec();
        }));
    }
    let report = run_cluster(&cfg(devices, ranks, len.max(1)), programs);
    (
        results.iter().map(|m| m.lock().unwrap().clone()).collect(),
        report,
    )
}

fn serial_expected(world: u32, len: usize, op: ReduceOp, dtype: Dtype) -> Vec<u8> {
    let inputs: Vec<Vec<u8>> = (0..world)
        .map(|r| input_u64(r, len / 8 + usize::from(!len.is_multiple_of(8)))[..len].to_vec())
        .collect();
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    serial_allreduce(&refs, op, dtype).unwrap()
}

#[test]
fn allreduce_matches_serial_reference_for_integer_ops() {
    // Property: for order-free integer ops, every algorithm at every chunk
    // size must produce bitwise the serial reference — including non-power-
    // of-two worlds (6, 7) which exercise the tree's ragged rounds and
    // recursive doubling's fold-in/fold-out path.
    const ELEMS: usize = 257; // deliberately not a multiple of any world size
    for (devices, ranks) in [(1, 1), (1, 4), (2, 3), (1, 7)] {
        let world = devices * ranks;
        let expect = serial_expected(world, ELEMS * 8, ReduceOp::Sum, Dtype::U64);
        for algo in [CollAlgo::Ring, CollAlgo::Tree, CollAlgo::RecursiveDoubling] {
            for chunk_bytes in [64usize, 4096, 1 << 20] {
                let plan = CollPlan::builder()
                    .algo(algo)
                    .chunk_bytes(chunk_bytes)
                    .op(ReduceOp::Sum)
                    .dtype(Dtype::U64)
                    .build()
                    .unwrap();
                let (got, report) = run_allreduce(devices, ranks, ELEMS, plan);
                for (r, buf) in got.iter().enumerate() {
                    assert_eq!(
                        buf,
                        &expect,
                        "world {world} algo {} chunk {chunk_bytes} rank {r} diverged",
                        algo.name()
                    );
                }
                if world > 1 {
                    assert!(report.coll.puts > 0, "no collective traffic accounted");
                    assert_eq!(report.puts, 0, "collective leaked into user put counter");
                    assert_eq!(report.notifications, 0, "leaked into notification counter");
                }
            }
        }
    }
}

#[test]
fn allreduce_min_and_max_match_serial() {
    const ELEMS: usize = 100;
    for (op, dtype) in [(ReduceOp::Min, Dtype::I32), (ReduceOp::Max, Dtype::U32)] {
        let len = ELEMS * dtype.size();
        let expect = serial_expected(6, len, op, dtype);
        for algo in [CollAlgo::Ring, CollAlgo::Tree, CollAlgo::RecursiveDoubling] {
            let plan = CollPlan::builder()
                .algo(algo)
                .chunk_bytes(52) // 13 elements: ragged chunking
                .op(op)
                .dtype(dtype)
                .build()
                .unwrap();
            let world = 6;
            let results: Vec<Arc<Mutex<Vec<u8>>>> = (0..world)
                .map(|_| Arc::new(Mutex::new(Vec::new())))
                .collect();
            let mut programs: Vec<dcuda_rt::cluster::RankProgram> = Vec::new();
            for (r, out) in results.iter().enumerate() {
                let out = out.clone();
                programs.push(Box::new(move |ctx| {
                    let input = input_u64(r as u32, len / 8 + 1);
                    ctx.win_mut(W0)[..len].copy_from_slice(&input[..len]);
                    ctx.allreduce(W0, 0, len, &plan);
                    *out.lock().unwrap() = ctx.win(W0)[..len].to_vec();
                }));
            }
            run_cluster(&cfg(2, 3, len), programs);
            for (r, m) in results.iter().enumerate() {
                assert_eq!(
                    &*m.lock().unwrap(),
                    &expect,
                    "{} {} algo {} rank {r}",
                    op.name(),
                    dtype.name(),
                    algo.name()
                );
            }
        }
    }
}

#[test]
fn f64_allreduce_is_bitwise_invariant_across_chunk_sizes() {
    // Chunking splits the *transfer*, never the reduction order: each
    // element's accumulation order is fixed by the schedule, so even
    // non-associative f64 sums must be bitwise identical per algorithm
    // whatever the chunk size.
    const ELEMS: usize = 129;
    for algo in [CollAlgo::Ring, CollAlgo::Tree, CollAlgo::RecursiveDoubling] {
        let mut baseline: Option<Vec<Vec<u8>>> = None;
        for chunk_bytes in [64usize, 4096, 1 << 20] {
            let plan = CollPlan::builder()
                .algo(algo)
                .chunk_bytes(chunk_bytes)
                .op(ReduceOp::Sum)
                .dtype(Dtype::F64)
                .build()
                .unwrap();
            let (got, _) = run_allreduce(2, 3, ELEMS, plan);
            match &baseline {
                None => baseline = Some(got),
                Some(b) => assert_eq!(
                    &got,
                    b,
                    "algo {} chunk {chunk_bytes} changed f64 bits",
                    algo.name()
                ),
            }
        }
    }
}

#[test]
fn coll_counters_are_deterministic_across_runs() {
    let plan = CollPlan::builder().chunk_bytes(64).build().unwrap();
    let run = || run_allreduce(2, 2, 64, plan).1;
    let (a, b) = (run(), run());
    assert_eq!(a.coll.puts, b.coll.puts);
    assert_eq!(a.coll.bytes, b.coll.bytes);
    assert_eq!(a.coll.chunks, b.coll.chunks);
}

/// The collective stats of `iters` in-place ring allreduces of 64 KiB u64
/// sums over 4 ranks on one device, pipelined in `chunk_bytes` chunks.
fn ring_allreduce_64k(chunk_bytes: usize, iters: u32) -> CollStats {
    const WIN: usize = 64 * 1024;
    const RANKS: u32 = 4;
    let config = RtConfig::builder()
        .devices(1)
        .ranks_per_device(RANKS)
        .windows(vec![WIN])
        .coll_scratch(allreduce_scratch_bytes(CollAlgo::Ring, WIN, 8, RANKS))
        .build()
        .unwrap();
    let plan = CollPlan::builder()
        .algo(CollAlgo::Ring)
        .chunk_bytes(chunk_bytes)
        .op(ReduceOp::Sum)
        .dtype(Dtype::U64)
        .build()
        .unwrap();
    let programs: Vec<dcuda_rt::cluster::RankProgram> = (0..RANKS)
        .map(|r| {
            Box::new(move |ctx: &mut RtCtx| {
                for _ in 0..iters {
                    ctx.win_mut(W0).copy_from_slice(&input_u64(r, WIN / 8));
                    ctx.allreduce(W0, 0, WIN, &plan);
                }
            }) as dcuda_rt::cluster::RankProgram
        })
        .collect();
    try_run_cluster(&config, programs).unwrap().coll
}

/// Chunking is what gives the pipeline something to overlap: with 2 KiB
/// chunks each 16 KiB ring segment is 8 transfers, unchunked it is one, so
/// the chunked run waits on at least 8x as many chunks. Whether those waits
/// are then hidden is timing, so the overlap claim itself (chunked hides a
/// larger fraction) runs in the full tier only; the benchmark's
/// `coll.hidden_frac` row tracks its absolute value.
#[test]
fn chunked_allreduce_pipelines_more_waits_than_unchunked() {
    let waits = |s: &CollStats| s.hidden_waits + s.blocked_waits;
    let full = full_tier("chunked-vs-unchunked hidden fraction");
    let iters = if full { 8 } else { 1 };
    let chunked = ring_allreduce_64k(2 * 1024, iters);
    let unchunked = ring_allreduce_64k(64 * 1024, iters);
    assert!(
        waits(&chunked) >= 8 * waits(&unchunked),
        "chunked run waited {} chunks vs {} unchunked — chunking did not subdivide",
        waits(&chunked),
        waits(&unchunked)
    );
    if full {
        let (c, u) = (
            chunked.hidden_fraction().unwrap(),
            unchunked.hidden_fraction().unwrap(),
        );
        assert!(
            c > u,
            "chunked allreduce hid {c:.2} of its waits, unchunked {u:.2} — pipelining bought nothing"
        );
    }
}

#[test]
fn reduce_scatter_reduces_own_segment() {
    const ELEMS: usize = 90;
    let len = ELEMS * 8;
    let world = 6u32;
    let expect = serial_expected(world, len, ReduceOp::Sum, Dtype::U64);
    let plan = CollPlan::builder().chunk_bytes(64).build().unwrap();
    let results: Vec<Arc<Mutex<Vec<u8>>>> = (0..world)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let mut programs: Vec<dcuda_rt::cluster::RankProgram> = Vec::new();
    for (r, out) in results.iter().enumerate() {
        let out = out.clone();
        programs.push(Box::new(move |ctx| {
            let input = input_u64(r as u32, ELEMS);
            ctx.win_mut(W0)[..len].copy_from_slice(&input[..len]);
            ctx.reduce_scatter(W0, 0, len, &plan);
            *out.lock().unwrap() = ctx.win(W0)[..len].to_vec();
        }));
    }
    run_cluster(&cfg(2, 3, len), programs);
    for r in 0..world {
        let seg = segment_range(len, 8, world, r);
        let got = results[r as usize].lock().unwrap();
        assert_eq!(
            &got[seg.clone()],
            &expect[seg],
            "rank {r} own segment not fully reduced"
        );
    }
}

#[test]
fn all_gather_distributes_every_segment() {
    const ELEMS: usize = 84;
    let len = ELEMS * 8;
    let world = 6u32;
    // Expected: the concatenation of every rank's own segment.
    let mut expect = vec![0u8; len];
    for r in 0..world {
        let seg = segment_range(len, 8, world, r);
        let input = input_u64(r, ELEMS);
        expect[seg.clone()].copy_from_slice(&input[seg]);
    }
    let plan = CollPlan::builder().chunk_bytes(64).build().unwrap();
    let results: Vec<Arc<Mutex<Vec<u8>>>> = (0..world)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let mut programs: Vec<dcuda_rt::cluster::RankProgram> = Vec::new();
    for (r, out) in results.iter().enumerate() {
        let out = out.clone();
        programs.push(Box::new(move |ctx| {
            let seg = segment_range(len, 8, ctx.world_size(), r as u32);
            let input = input_u64(r as u32, ELEMS);
            ctx.win_mut(W0)[seg.clone()].copy_from_slice(&input[seg]);
            ctx.all_gather(W0, 0, len, &plan);
            *out.lock().unwrap() = ctx.win(W0)[..len].to_vec();
        }));
    }
    run_cluster(&cfg(2, 3, len), programs);
    for (r, m) in results.iter().enumerate() {
        assert_eq!(
            &*m.lock().unwrap(),
            &expect,
            "rank {r} gathered wrong bytes"
        );
    }
}

#[test]
fn broadcast_from_nonzero_root() {
    const LEN: usize = 500;
    let world = 7u32;
    let root = 3u32;
    let payload = input_u64(root, LEN / 8 + 1)[..LEN].to_vec();
    let expect = payload.clone();
    let plan = CollPlan::builder()
        .chunk_bytes(128)
        .dtype(Dtype::U32)
        .build()
        .unwrap();
    let results: Vec<Arc<Mutex<Vec<u8>>>> = (0..world)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let mut programs: Vec<dcuda_rt::cluster::RankProgram> = Vec::new();
    for (r, out) in results.iter().enumerate() {
        let out = out.clone();
        let payload = payload.clone();
        programs.push(Box::new(move |ctx| {
            if r as u32 == root {
                ctx.win_mut(W0)[..LEN].copy_from_slice(&payload);
            }
            ctx.broadcast(W0, 0, LEN, Rank(root), &plan);
            *out.lock().unwrap() = ctx.win(W0)[..LEN].to_vec();
        }));
    }
    run_cluster(&cfg(1, world, LEN), programs);
    for (r, m) in results.iter().enumerate() {
        assert_eq!(
            &*m.lock().unwrap(),
            &expect,
            "rank {r} missed the broadcast"
        );
    }
}

#[test]
fn user_tags_with_bit31_are_rejected() {
    run_cluster(
        &cfg(1, 1, 64),
        vec![Box::new(|ctx| {
            let e = ctx
                .try_put_notify(W0, Rank(0), 0, 0, 1, Tag(1 << 31))
                .unwrap_err();
            assert!(matches!(e, RtError::ReservedTag { .. }), "{e}");
            // Un-notified puts carry no tag semantics and stay unaffected.
            ctx.try_put(W0, Rank(0), 0, 0, 1).unwrap();
            ctx.flush();
        })],
    );
}

#[test]
fn scratch_window_is_hidden_from_the_window_api() {
    run_cluster(
        &cfg(1, 2, 64),
        vec![
            Box::new(|ctx| {
                // One user window: index 1 (the scratch) must not exist.
                match ctx.try_win(WindowId(1)) {
                    Err(RtError::NoSuchWindow { count, .. }) => assert_eq!(count, 1),
                    other => panic!("scratch window visible: {other:?}"),
                }
                assert!(ctx.try_win_mut(WindowId(1)).is_err());
                assert!(matches!(
                    ctx.try_put_notify(WindowId(1), Rank(1), 0, 0, 1, Tag(0)),
                    Err(RtError::NoSuchWindow { .. })
                ));
                ctx.barrier();
            }),
            Box::new(|ctx| {
                ctx.barrier();
            }),
        ],
    );
}

#[test]
fn undersized_scratch_surfaces_as_typed_error() {
    let mut config = cfg(1, 4, 8192);
    config.coll_scratch = 16; // far below the ring schedule's need
    let plan = CollPlan::builder().chunk_bytes(64).build().unwrap();
    let world = 4;
    let mut programs: Vec<dcuda_rt::cluster::RankProgram> = Vec::new();
    for _ in 0..world {
        programs.push(Box::new(move |ctx| {
            let e = ctx.try_allreduce(W0, 0, 8192, &plan).unwrap_err();
            assert!(
                matches!(e, RtError::Coll(CollError::ScratchTooSmall { .. })),
                "{e}"
            );
        }));
    }
    try_run_cluster(&config, programs).unwrap();
}

#[test]
fn misaligned_buffers_and_plans_are_rejected() {
    assert!(matches!(
        CollPlan::builder().chunk_bytes(0).build(),
        Err(CollError::ZeroChunk)
    ));
    assert!(matches!(
        CollPlan::builder()
            .chunk_bytes(13)
            .dtype(Dtype::U64)
            .build(),
        Err(CollError::ChunkMisaligned { .. })
    ));
    let plan = CollPlan::builder().build().unwrap();
    run_cluster(
        &cfg(1, 1, 64),
        vec![Box::new(move |ctx| {
            let e = ctx.try_allreduce(W0, 0, 13, &plan).unwrap_err();
            assert!(matches!(
                e,
                RtError::Coll(CollError::BufferMisaligned { .. })
            ));
            let e = ctx.try_broadcast(W0, 0, 8, Rank(9), &plan).unwrap_err();
            assert!(matches!(e, RtError::Coll(CollError::RootOutOfRange { .. })));
            let e = ctx.try_allreduce(W0, 32, 64, &plan).unwrap_err();
            assert!(matches!(e, RtError::RangeOutOfBounds { .. }));
        })],
    );
}

#[test]
fn ring_shift_rotates_and_release_gates() {
    // The overlap-workload primitives: shift my staging bytes one hop right
    // per iteration, release the inbox afterwards. After `world` shifts a
    // marker returns home.
    let world = 4u32;
    let results: Vec<Arc<Mutex<Vec<u8>>>> = (0..world)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let mut programs: Vec<dcuda_rt::cluster::RankProgram> = Vec::new();
    for (r, out) in results.iter().enumerate() {
        let out = out.clone();
        programs.push(Box::new(move |ctx| {
            // Layout: [0..8) inbox, [8..16) staging.
            ctx.win_mut(W0)[8..16].copy_from_slice(&(r as u64).to_le_bytes());
            for _ in 0..ctx.world_size() {
                ctx.ring_shift(W0, 0, 8, 8);
                // Consume: received value becomes next staging.
                let v = ctx.win(W0)[0..8].to_vec();
                ctx.win_mut(W0)[8..16].copy_from_slice(&v);
                ctx.ring_release();
            }
            *out.lock().unwrap() = ctx.win(W0)[8..16].to_vec();
        }));
    }
    let report = run_cluster(&cfg(2, 2, 16), programs);
    for (r, m) in results.iter().enumerate() {
        assert_eq!(
            u64::from_le_bytes(m.lock().unwrap()[..].try_into().unwrap()),
            r as u64,
            "marker did not return to rank {r}"
        );
    }
    // 4 data shifts + 4 releases per rank, all internal.
    assert_eq!(report.puts, 0);
    assert_eq!(report.coll.puts, u64::from(world) * 8);
}

#[test]
fn ring_shift_works_at_world_one() {
    run_cluster(
        &cfg(1, 1, 16),
        vec![Box::new(|ctx| {
            ctx.win_mut(W0)[8..16].copy_from_slice(&7u64.to_le_bytes());
            ctx.ring_shift(W0, 0, 8, 8);
            ctx.ring_release();
            assert_eq!(&ctx.win(W0)[0..8], &7u64.to_le_bytes());
        })],
    );
}

#[test]
fn collectives_and_user_traffic_interleave_cleanly() {
    // A wildcard wait must never steal a collective notification even when
    // both are in flight simultaneously.
    let plan = CollPlan::builder().chunk_bytes(64).build().unwrap();
    let world = 4u32;
    let mut programs: Vec<dcuda_rt::cluster::RankProgram> = Vec::new();
    for r in 0..world {
        programs.push(Box::new(move |ctx| {
            let right = (r + 1) % ctx.world_size();
            let left = (r + ctx.world_size() - 1) % ctx.world_size();
            ctx.win_mut(W0)[..8].copy_from_slice(&u64::from(r).to_le_bytes());
            ctx.put_notify(W0, Rank(right), 8, 0, 8, Tag(5));
            ctx.allreduce(W0, 16, 64, &plan);
            ctx.wait_notifications(RtQuery::exact(W0, Rank::ANY, Tag::ANY), 1);
            assert_eq!(&ctx.win(W0)[8..16], &u64::from(left).to_le_bytes());
            ctx.barrier();
        }));
    }
    let report = run_cluster(&cfg(2, 2, 128), programs);
    assert_eq!(report.matched, u64::from(world));
    assert_eq!(report.puts, u64::from(world));
}

/// One ring allreduce of `LATE_ELEMS` `u64` lanes as a task, returning an
/// FNV checksum of the result. Rank 0 sleeps 5 ms before it starts, so
/// the chunks its peers send reach its scratch window, which a rank
/// allocates on first use, before its own schedule touches it.
async fn late_root_allreduce(ctx: &mut RtCtx, plan: CollPlan) -> Result<u64, RtError> {
    if ctx.rank().0 == 0 {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let input = input_u64(ctx.rank().0, LATE_ELEMS);
    ctx.win_mut(W0).copy_from_slice(&input);
    Collective::allreduce(ctx, W0, 0, LATE_ELEMS * 8, &plan)?
        .run(ctx)
        .await?;
    Ok(fnv_bytes(FNV_OFFSET, ctx.win(W0)))
}

const LATE_ELEMS: usize = 512;

#[test]
fn scratch_allocated_on_first_delivery_reduces_exactly() {
    let (devices, ranks) = (2, 2);
    let world = devices * ranks;
    let len = LATE_ELEMS * 8;
    let plan = CollPlan::builder()
        .algo(CollAlgo::Ring)
        .chunk_bytes(256)
        .op(ReduceOp::Sum)
        .dtype(Dtype::U64)
        .build()
        .unwrap();
    let mut config = cfg(devices, ranks, len);
    config.coll_scratch = allreduce_scratch_bytes(CollAlgo::Ring, len, 256, world);
    let tasks = || -> Vec<RankTask> {
        (0..world)
            .map(|_| task(move |ctx| Box::pin(late_root_allreduce(ctx, plan))))
            .collect()
    };
    let expected = fnv_bytes(
        FNV_OFFSET,
        &serial_expected(world, len, ReduceOp::Sum, Dtype::U64),
    );

    let (programs, cells): (Vec<_>, Vec<_>) = thread_per_rank(tasks()).into_iter().unzip();
    try_run_cluster(&config, programs).expect("threaded world");
    for (rank, cell) in cells.iter().enumerate() {
        assert_eq!(
            cell.load(Ordering::Acquire),
            expected,
            "threads, rank {rank}"
        );
    }

    let (_, sums) = try_run_cluster_job(&config, tasks(), &CancelToken::new()).expect("job world");
    assert_eq!(sums, vec![expected; world as usize], "job world");
}
