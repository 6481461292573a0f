//! `halo_overlap`: 2 devices x 4 ranks on the in-process plane — eight rank
//! threads plus two host threads on two cores, the rt analogue of the
//! paper's 208 blocks on 13 SMs.
//!
//! Per iteration every rank runs a seeded FNV compute pass over its 4 KiB
//! staging region, sends a 1 KiB notified put to both ring neighbours,
//! waits for the two puts addressed to it and flushes every eighth
//! iteration. A repetition times three phases in one world: compute only,
//! exchange only, and both.
//!
//! Why: this is the paper's headline use — communication hidden by
//! oversubscription. It shows whether waiting ranks and host loops steal
//! cycles from computing ranks, which no ping-pong can: freeing spin cycles
//! can raise `iters_per_s` by more than the layer's own time, up to the
//! compute-only roofline.

use super::{check_rt_counts, rt_counts, secs, Env, Failures, Rep, Size, Workload};
use crate::layers;
use crate::spans::SpanBuf;
use crate::util::{fnv_u64, mix};
use dcuda_rt::cluster::RankProgram;
use dcuda_rt::{try_run_cluster, Rank, RtConfig, RtCtx, RtQuery, Tag, WindowId};
use std::sync::mpsc;
use std::time::Instant;

const W: WindowId = WindowId(0);
const DEVICES: u32 = 2;
const RANKS_PER_DEVICE: u32 = 4;
const WORLD: u32 = DEVICES * RANKS_PER_DEVICE;
const STAGING: usize = 4096;
const HALO: usize = 1024;
const FLUSH_EVERY: u32 = 8;

/// Iterations per phase of one repetition.
fn iters(size: Size) -> u32 {
    size.pick(4_000, 12)
}

pub struct Halo;

/// The compute pass: a feedback FNV chain over the staging region, seeded
/// by (seed, rank, iteration) so the receiver can recompute what it must
/// have been sent.
fn compute(staging: &mut [u8], seed: u64, rank: u32, iter: u32) {
    let mut h = mix(seed, u64::from(rank), u64::from(iter), 5);
    for word in staging.chunks_exact_mut(8) {
        h = fnv_u64(h, h >> 17);
        word.copy_from_slice(&h.to_le_bytes());
    }
}

fn stamp(seed: u64, rank: u32, iter: u32) -> u64 {
    mix(seed, u64::from(rank), u64::from(iter), 7)
}

/// Offset of the landing slot for halos arriving from the left (`side` 0)
/// or right (`side` 1) neighbour in iteration `iter`. Two parity slots per
/// side: a neighbour can run at most one iteration ahead, and payloads land
/// whenever this rank polls, so iteration `i + 1` must not land on `i`.
fn inbox(side: usize, iter: u32) -> usize {
    STAGING + (side * 2 + (iter % 2) as usize) * HALO
}

struct Phase {
    compute: bool,
    exchange: bool,
    /// First global iteration number (tags and stamps keep counting).
    first: u32,
}

struct Rank0Out {
    phase_s: [f64; 3],
    /// From rank 0's first barrier to the end of its last phase.
    span_s: f64,
    full_iter_us: Vec<f64>,
}

fn run_phase(
    ctx: &mut RtCtx,
    rec: &mut SpanBuf,
    seed: u64,
    n: u32,
    phase: &Phase,
    failures: &Failures,
    mut iter_us: Option<&mut Vec<f64>>,
) {
    let rank = ctx.rank().0;
    let (left, right) = ((rank + WORLD - 1) % WORLD, (rank + 1) % WORLD);
    for i in phase.first..phase.first + n {
        let op = u64::from(i);
        let t = Instant::now();
        let it = rec.begin("halo_iter", op);
        if phase.compute {
            rec.time("compute", op, || {
                compute(ctx.win_mut_at(W, 0, STAGING), seed, rank, i)
            });
        }
        if phase.exchange {
            ctx.win_mut_at(W, 0, 8)
                .copy_from_slice(&stamp(seed, rank, i).to_le_bytes());
            // My halo lands in the left neighbour's from-right slot and in
            // the right neighbour's from-left slot.
            rec.time("put_issue", op, || {
                ctx.put_notify(W, Rank(left), inbox(1, i), 0, HALO, Tag(i))
            });
            rec.time("put_issue", op, || {
                ctx.put_notify(W, Rank(right), inbox(0, i), 0, HALO, Tag(i))
            });
            rec.time("wait", op, || {
                ctx.wait_notifications(RtQuery::exact(W, Rank::ANY, Tag(i)), 2)
            });
            for (side, from) in [(0, left), (1, right)] {
                let got = ctx.win_at(W, inbox(side, i), 8);
                failures.check(got == stamp(seed, from, i).to_le_bytes());
            }
            if i % FLUSH_EVERY == FLUSH_EVERY - 1 {
                rec.time("flush", op, || ctx.flush());
            }
        }
        rec.end(it);
        if let Some(us) = iter_us.as_deref_mut() {
            us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    if phase.exchange {
        rec.time("flush", 0, || ctx.flush());
    }
}

fn config() -> Result<RtConfig, String> {
    RtConfig::builder()
        .devices(DEVICES)
        .ranks_per_device(RANKS_PER_DEVICE)
        .windows(vec![STAGING + 4 * HALO])
        .build()
        .map_err(|e| format!("halo config: {e}"))
}

impl Workload for Halo {
    fn name(&self) -> &'static str {
        "halo_overlap"
    }

    fn op_alias(&self) -> &'static str {
        "halo_iter_p50_us"
    }

    fn work_alias(&self) -> &'static str {
        "iters_per_s"
    }

    fn ops_per_rep(&self, size: Size) -> u64 {
        // Two exchanging phases; one op per rank and iteration.
        2 * u64::from(iters(size)) * u64::from(WORLD)
    }

    fn rep(&self, env: &Env) -> Result<Rep, String> {
        let n = iters(env.size);
        let seed = env.seed;
        let failures = Failures::default();
        let (tx, rx) = mpsc::channel();
        let programs: Vec<RankProgram> = (0..WORLD)
            .map(|rank| {
                let (tracer, failures, tx) = (env.tracer.clone(), failures.clone(), tx.clone());
                Box::new(move |ctx: &mut RtCtx| {
                    let mut rec = tracer.buf(rank);
                    let phases = [
                        Phase {
                            compute: true,
                            exchange: false,
                            first: 0,
                        },
                        Phase {
                            compute: false,
                            exchange: true,
                            first: n,
                        },
                        Phase {
                            compute: true,
                            exchange: true,
                            first: 2 * n,
                        },
                    ];
                    let mut phase_s = [0.0; 3];
                    let mut full_iter_us = Vec::with_capacity(n as usize);
                    let t_span = Instant::now();
                    for (k, phase) in phases.iter().enumerate() {
                        ctx.barrier();
                        let t = Instant::now();
                        let sink = (k == 2).then_some(&mut full_iter_us);
                        run_phase(ctx, &mut rec, seed, n, phase, &failures, sink);
                        // The phase ends when the slowest rank is through.
                        ctx.barrier();
                        phase_s[k] = secs(t);
                    }
                    let span_s = secs(t_span);
                    // Whole-payload check, outside the timed phases: the
                    // last halos must be exactly what the neighbours'
                    // compute pass produced.
                    let last = 3 * n - 1;
                    let mut expect = vec![0u8; STAGING];
                    for (side, from) in [(0, (rank + WORLD - 1) % WORLD), (1, (rank + 1) % WORLD)] {
                        compute(&mut expect, seed, from, last);
                        expect[..8].copy_from_slice(&stamp(seed, from, last).to_le_bytes());
                        failures.check(ctx.win_at(W, inbox(side, last), HALO) == &expect[..HALO]);
                    }
                    if rank == 0 {
                        let _ = tx.send(Rank0Out {
                            phase_s,
                            span_s,
                            full_iter_us,
                        });
                    }
                }) as RankProgram
            })
            .collect();
        let mut driver = env.tracer.buf(100);
        let report = driver
            .time("launch", 0, || {
                try_run_cluster(&config()?, programs).map_err(|e| e.to_string())
            })
            .map_err(|e| format!("halo world: {e}"))?;
        let out = rx
            .recv()
            .map_err(|_| "rank 0 finished without reporting".to_string())?;

        // Two puts per rank and iteration in each of the two exchanging
        // phases.
        check_rt_counts(&report, 2 * 2 * u64::from(n) * u64::from(WORLD), &failures);

        let [t_c, t_x, t_full] = out.phase_s;
        let mut layer = rt_counts(&report);
        layer.extend([
            ("rt.halo.compute_only_iters_per_s", f64::from(n) / t_c),
            ("rt.halo.exchange_only_iters_per_s", f64::from(n) / t_x),
            ("rt.halo.overlap_frac", (t_c + t_x - t_full) / t_c.min(t_x)),
        ]);
        Ok(Rep {
            // The whole span, not the three phases: what lies between them
            // is eight ranks meeting at a barrier on two cores (0.5-20 ms a
            // world), which is synchronisation, not set-up, and made
            // `setup_s` spread 29 % over ten runs.
            timed_s: out.span_s,
            op_us: out.full_iter_us,
            work: f64::from(n),
            work_s: t_full,
            attempted: self.ops_per_rep(env.size),
            failed: failures.count(),
            layer,
        })
    }

    fn layer_extras(&self, env: &Env) -> Result<Vec<(&'static str, f64)>, String> {
        let mut rows = layers::progress_ladder(env)?;
        let barriers = env.size.pick(300, 5);
        rows.push(("rt.barrier_us_w4", layers::barrier_us(2, barriers)?));
        rows.push(("rt.barrier_us_w8", layers::barrier_us(4, barriers)?));
        Ok(rows)
    }
}
