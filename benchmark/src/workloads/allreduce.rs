//! `allreduce`: 2 devices x 2 ranks on the in-process plane; in-place `u64`
//! Sum allreduce of 256 KiB, ring schedule, default chunking, the result
//! checked elementwise against its closed form after every operation.
//!
//! Why: `dcuda-coll` schedules and reserved-tag chunk waits dominate. The
//! result waits for the slowest of four ranks, so wait tails matter here
//! and not on a ping-pong — the workload for counter-mode notifications.

use super::{secs, Env, Failures, Rep, Size, Workload};
use crate::stats::median;
use crate::util::mix;
use dcuda_rt::cluster::RankProgram;
use dcuda_rt::{
    allreduce_scratch_bytes, try_run_cluster, CollAlgo, CollCtx, CollPlan, RtConfig, RtCtx,
    RtReport, WindowId,
};
use std::sync::mpsc;
use std::time::Instant;

const W: WindowId = WindowId(0);
const DEVICES: u32 = 2;
const RANKS_PER_DEVICE: u32 = 2;
const WORLD: u32 = DEVICES * RANKS_PER_DEVICE;
const BYTES: usize = 256 << 10;

fn ops(size: Size) -> u32 {
    size.pick(250, 3)
}

pub struct Allreduce;

/// Lane `lane` of rank `rank`'s contribution to operation `op`:
/// `(rank + 1) * base(op, lane)`, so the world sum is
/// `base * WORLD * (WORLD + 1) / 2`. `base` stays below 2^32: no wrap.
fn base(seed: u64, op: u32, lane: usize) -> u64 {
    mix(seed, u64::from(op), lane as u64, 11) >> 32
}

fn plan(algo: CollAlgo) -> Result<CollPlan, String> {
    CollPlan::builder()
        .algo(algo)
        .build()
        .map_err(|e| format!("collective plan: {e}"))
}

fn config(algo: CollAlgo, bytes: usize) -> Result<RtConfig, String> {
    RtConfig::builder()
        .devices(DEVICES)
        .ranks_per_device(RANKS_PER_DEVICE)
        .windows(vec![bytes])
        .coll_scratch(allreduce_scratch_bytes(algo, bytes, 8, WORLD))
        .build()
        .map_err(|e| format!("allreduce config: {e}"))
}

/// Run `n` verified allreduces of `bytes` under `algo` in a fresh world;
/// returns rank 0's per-operation times (µs), the wall seconds they span
/// and the run's report.
fn run(
    algo: CollAlgo,
    bytes: usize,
    n: u32,
    env: &Env,
    failures: &Failures,
) -> Result<(Vec<f64>, f64, RtReport), String> {
    let seed = env.seed;
    let plan = plan(algo)?;
    let (tx, rx) = mpsc::channel();
    let programs: Vec<RankProgram> = (0..WORLD)
        .map(|rank| {
            let (tracer, failures, tx) = (env.tracer.clone(), failures.clone(), tx.clone());
            Box::new(move |ctx: &mut RtCtx| {
                let mut rec = tracer.buf(rank);
                let mut op_us = Vec::with_capacity(n as usize);
                let mut op_s = 0.0;
                for op in 0..n {
                    for (lane, w) in ctx.win_mut(W).chunks_exact_mut(8).enumerate() {
                        let v = u64::from(rank + 1) * base(seed, op, lane);
                        w.copy_from_slice(&v.to_le_bytes());
                    }
                    let t = Instant::now();
                    rec.time("allreduce", u64::from(op), || {
                        ctx.allreduce(W, 0, bytes, &plan)
                    });
                    op_s += secs(t);
                    op_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                    let total = u64::from(WORLD * (WORLD + 1) / 2);
                    let ok = ctx
                        .win(W)
                        .chunks_exact(8)
                        .enumerate()
                        .all(|(lane, w)| w == (total * base(seed, op, lane)).to_le_bytes());
                    failures.check(ok);
                }
                if rank == 0 {
                    let _ = tx.send((op_us, op_s));
                }
            }) as RankProgram
        })
        .collect();
    let mut driver = env.tracer.buf(100);
    let report = driver
        .time("launch", 0, || {
            try_run_cluster(&config(algo, bytes)?, programs).map_err(|e| e.to_string())
        })
        .map_err(|e| format!("allreduce world: {e}"))?;
    let (op_us, op_s) = rx
        .recv()
        .map_err(|_| "rank 0 finished without reporting".to_string())?;
    Ok((op_us, op_s, report))
}

impl Workload for Allreduce {
    fn name(&self) -> &'static str {
        "allreduce"
    }

    fn op_alias(&self) -> &'static str {
        "allreduce_p50_us"
    }

    fn work_alias(&self) -> &'static str {
        "allreduces_per_s"
    }

    fn ops_per_rep(&self, size: Size) -> u64 {
        u64::from(ops(size)) * u64::from(WORLD)
    }

    fn rep(&self, env: &Env) -> Result<Rep, String> {
        let n = ops(env.size);
        let failures = Failures::default();
        let (op_us, op_s, report) = run(CollAlgo::Ring, BYTES, n, env, &failures)?;
        // Ring allreduce of W ranks: each rank receives 2(W-1) segments of
        // len/W bytes, in default 4 KiB chunks; every rank processes the
        // same chunk count, so world totals divide evenly by `n`.
        let coll = report.coll;
        let seg_chunks = (BYTES / WORLD as usize).div_ceil(4096) as u64;
        let chunks = u64::from(n) * u64::from(WORLD) * 2 * u64::from(WORLD - 1) * seg_chunks;
        failures.check(coll.chunks == chunks);
        failures.check(report.puts == 0 && report.retries == 0);
        let per_op = |x: u64| x as f64 / f64::from(n);
        Ok(Rep {
            timed_s: op_s,
            op_us,
            work: f64::from(n),
            work_s: op_s,
            attempted: self.ops_per_rep(env.size),
            failed: failures.count(),
            layer: vec![
                ("coll.hidden_frac", coll.hidden_fraction().unwrap_or(0.0)),
                ("coll.puts_per_op", per_op(coll.puts)),
                ("coll.chunks_per_op", per_op(coll.chunks)),
                ("coll.bytes_per_op", per_op(coll.bytes)),
            ],
        })
    }

    fn layer_extras(&self, env: &Env) -> Result<Vec<(&'static str, f64)>, String> {
        let failures = Failures::default();
        let quiet = Env {
            tracer: &crate::spans::Tracer::off(),
            ..*env
        };
        let mut rows = Vec::new();
        for (algo, bytes, n, name) in [
            (CollAlgo::Ring, BYTES, 40, "coll.allreduce_ring_256k_us"),
            (CollAlgo::Tree, BYTES, 40, "coll.allreduce_tree_256k_us"),
            (
                CollAlgo::RecursiveDoubling,
                BYTES,
                40,
                "coll.allreduce_rdbl_256k_us",
            ),
            (CollAlgo::Ring, 8, 400, "coll.allreduce_8b_us"),
        ] {
            let (us, _, _) = run(algo, bytes, env.size.pick(n, 2), &quiet, &failures)?;
            rows.push((name, median(&us)));
        }
        rows.push(("coll.ring_shift_us", ring_shift_us(env.size.pick(400, 3))?));
        if failures.count() > 0 {
            return Err(format!("{} ladder allreduces were wrong", failures.count()));
        }
        Ok(rows)
    }
}

/// Median µs of one `ring_shift` + `ring_release` of 1 KiB in the 2 x 2
/// world, timed on rank 0.
fn ring_shift_us(n: u32) -> Result<f64, String> {
    const LEN: usize = 1024;
    let cfg = RtConfig::builder()
        .devices(DEVICES)
        .ranks_per_device(RANKS_PER_DEVICE)
        .windows(vec![2 * LEN])
        .build()
        .map_err(|e| format!("ring-shift config: {e}"))?;
    let (tx, rx) = mpsc::channel();
    let programs: Vec<RankProgram> = (0..WORLD)
        .map(|rank| {
            let tx = tx.clone();
            Box::new(move |ctx: &mut RtCtx| {
                let mut us = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let t = Instant::now();
                    ctx.ring_shift(W, LEN, 0, LEN);
                    ctx.ring_release();
                    us.push(t.elapsed().as_nanos() as f64 / 1e3);
                }
                ctx.flush();
                if rank == 0 {
                    let _ = tx.send(us);
                }
            }) as RankProgram
        })
        .collect();
    try_run_cluster(&cfg, programs).map_err(|e| format!("ring-shift world: {e}"))?;
    let us = rx
        .recv()
        .map_err(|_| "ring-shift rank 0 finished without reporting".to_string())?;
    Ok(median(&us))
}
