//! `fanin_backlog`: 1 device x 5 ranks. Four senders each land 256 tagged
//! 8 B notified puts on rank 0, which first waits for every sender's DONE
//! marker (forcing all 1024 notifications into its pending list) and then
//! matches them away in a seeded permutation of (source, tag) — the first
//! half by exact queries, the rest by any-source queries.
//!
//! Why: matching does most of the work and the transports almost none. Cost
//! per match grows with backlog depth, so this is the workload for rt
//! adopting an indexed matcher; the prediction on every `p2p_*` is flat.

use super::{check_rt_counts, rt_counts, Env, Failures, Rep, Size, Workload};
use crate::util::{mix, SplitMix64};
use dcuda_rt::cluster::RankProgram;
use dcuda_rt::{try_run_cluster, Rank, RtConfig, RtCtx, RtQuery, Tag, WindowId};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

const W: WindowId = WindowId(0);
const SENDERS: u32 = 4;
const PER_SENDER: u32 = 256;
const BACKLOG: u32 = SENDERS * PER_SENDER;
/// Tag of the marker a sender puts after its last data put of a round.
const DONE: u32 = 1 << 20;

/// Backlog rounds per repetition.
fn rounds(size: Size) -> u32 {
    size.pick(150, 2)
}

pub struct FanIn;

fn slot(sender: u32, tag: u32) -> usize {
    (((sender - 1) * PER_SENDER + tag) * 8) as usize
}

fn word(seed: u64, round: u32, sender: u32, tag: u32) -> u64 {
    mix(seed, u64::from(round), u64::from(sender), u64::from(tag))
}

struct Rank0Out {
    match_us: Vec<f64>,
    match_s: f64,
}

/// The order rank 0 matches one round's backlog in: a seeded permutation
/// of all (sender, tag) pairs, the first half matched exactly, the second
/// half by `(any source, tag)`.
fn match_plan(seed: u64) -> Vec<RtQuery> {
    let mut pairs: Vec<(u32, u32)> = (1..=SENDERS)
        .flat_map(|s| (0..PER_SENDER).map(move |t| (s, t)))
        .collect();
    SplitMix64::new(seed ^ 0xFA_17).shuffle(&mut pairs);
    let half = pairs.len() / 2;
    pairs
        .iter()
        .enumerate()
        .map(|(i, &(s, t))| {
            let source = if i < half { Rank(s) } else { Rank::ANY };
            RtQuery::exact(W, source, Tag(t))
        })
        .collect()
}

impl Workload for FanIn {
    fn name(&self) -> &'static str {
        "fanin_backlog"
    }

    fn op_alias(&self) -> &'static str {
        "match_p50_us"
    }

    fn work_alias(&self) -> &'static str {
        "msgs_per_s"
    }

    fn ops_per_rep(&self, size: Size) -> u64 {
        u64::from(rounds(size)) * u64::from(BACKLOG)
    }

    fn rep(&self, env: &Env) -> Result<Rep, String> {
        let n = rounds(env.size);
        let seed = env.seed;
        let cfg = RtConfig::builder()
            .devices(1)
            .ranks_per_device(SENDERS + 1)
            .windows(vec![(BACKLOG * 8) as usize])
            .build()
            .map_err(|e| format!("fan-in config: {e}"))?;
        let failures = Failures::default();
        let plan = Arc::new(match_plan(seed));
        let (tx, rx) = mpsc::channel();

        let (tracer, fail0) = (env.tracer.clone(), failures.clone());
        let mut programs: Vec<RankProgram> = vec![Box::new(move |ctx: &mut RtCtx| {
            let mut rec = tracer.buf(0);
            let mut match_us = Vec::with_capacity((n * BACKLOG) as usize);
            let mut match_s = 0.0;
            for round in 0..n {
                ctx.barrier();
                for s in 1..=SENDERS {
                    ctx.wait_notifications(RtQuery::exact(W, Rank(s), Tag(DONE)), 1);
                }
                let t_round = Instant::now();
                for (i, &q) in plan.iter().enumerate() {
                    let t = Instant::now();
                    rec.time("wait", u64::from(round) << 32 | i as u64, || {
                        ctx.wait_notifications(q, 1)
                    });
                    match_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                }
                match_s += t_round.elapsed().as_secs_f64();
                // Every 8 B payload of the round, outside the timed part.
                for s in 1..=SENDERS {
                    for t in 0..PER_SENDER {
                        let got = ctx.win_at(W, slot(s, t), 8);
                        fail0.check(got == word(seed, round, s, t).to_le_bytes());
                    }
                }
            }
            let _ = tx.send(Rank0Out { match_us, match_s });
        })];
        programs.extend((1..=SENDERS).map(|s| {
            Box::new(move |ctx: &mut RtCtx| {
                for round in 0..n {
                    // Nobody sends round r+1 before rank 0 has matched
                    // round r away: the backlog depth is the same each time.
                    ctx.barrier();
                    for t in 0..PER_SENDER {
                        ctx.win_mut_at(W, 0, 8)
                            .copy_from_slice(&word(seed, round, s, t).to_le_bytes());
                        ctx.put_notify(W, Rank(0), slot(s, t), 0, 8, Tag(t));
                    }
                    ctx.put_notify(W, Rank(0), slot(s, 0), 0, 0, Tag(DONE));
                    ctx.flush();
                }
            }) as RankProgram
        }));

        let mut driver = env.tracer.buf(100);
        let report = driver
            .time("launch", 0, || try_run_cluster(&cfg, programs))
            .map_err(|e| format!("fan-in world: {e}"))?;
        let out = rx
            .recv()
            .map_err(|_| "rank 0 finished without reporting".to_string())?;
        check_rt_counts(
            &report,
            u64::from(n) * u64::from(BACKLOG + SENDERS),
            &failures,
        );
        Ok(Rep {
            timed_s: out.match_s,
            op_us: out.match_us,
            work: f64::from(n * BACKLOG),
            work_s: out.match_s,
            attempted: self.ops_per_rep(env.size),
            failed: failures.count(),
            layer: rt_counts(&report),
        })
    }
}
