//! `p2p_inproc` / `p2p_tcp` / `p2p_shm`: 2 devices x 1 rank, the same two
//! rank programs on each of the three planes.
//!
//! Phase 1 is an 8 B notified-put ping-pong (every round trip timed on rank
//! 0), phase 2 a one-way stream of 256 KiB puts, eight in flight, with an
//! 8 B notified ack per round.
//!
//! Why three: in-process, `rt` + `queues` do all the work (ctx -> command
//! ring -> host pass -> mpsc -> delivery ring -> match) and the `net` codec
//! and sockets are bypassed, so an rt hot-path change shows undiluted and a
//! net change must show nothing. Over tcp, `net::wire` + `net::socket`
//! dominate and the traffic crosses `EAGER_MAX`, `vectored_min` and the
//! credit window. Over shm the same `net` layer is used differently (mapped
//! byte rings, no syscalls): a tcp gain that costs shm, or the reverse,
//! shows here.

use super::{
    check_rt_counts, launch_world, rt_counts, secs, Env, Failures, Plane, Rep, Size, Workload,
};
use crate::layers;
use crate::spans::Tracer;
use crate::stats::tail;
use crate::util::{fnv, mix, SplitMix64, FNV_OFFSET};
use dcuda_rt::cluster::RankProgram;
use dcuda_rt::{NetStats, Rank, RtConfig, RtConfigBuilder, RtCtx, RtQuery, Tag, WindowId};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// Stream window: `SLOTS` slots of `SLOT` bytes (source on rank 0, landing
/// zone on rank 1).
const W_STREAM: WindowId = WindowId(0);
/// Control window: ping word, echo word, ack word.
const W_CTRL: WindowId = WindowId(1);
const SLOT: usize = 256 << 10;
const SLOTS: usize = 8;
const CTRL_BYTES: usize = 64;
const STREAM_TAG: u32 = 1 << 24;
const ACK_TAG: u32 = 1 << 25;

/// (round trips, stream rounds) per repetition. Sized so a repetition's
/// timed phases take 0.2-0.4 s on the reference box: a run then holds 15+
/// fresh worlds.
fn shape(plane: Plane, size: Size) -> (u32, u32) {
    match (size, plane) {
        (Size::Tiny, _) => (50, 3),
        (Size::Full, Plane::InProc) => (30_000, 60),
        (Size::Full, Plane::Shm) => (24_000, 60),
        (Size::Full, Plane::Tcp) => (3_000, 40),
    }
}

pub struct P2p(pub Plane);

struct Rank0Out {
    rtt_ns: Vec<u32>,
    ping_s: f64,
    stream_s: f64,
}

/// The stream payload as rank 1 must hold it after the last round: the
/// seeded base pattern with each slot's stamp of the final round.
fn final_stream_image(seed: u64, base: &[u8], rounds: u32) -> Vec<u8> {
    let mut image = base.to_vec();
    for slot in 0..SLOTS {
        let stamp = mix(seed, 3, u64::from(rounds - 1), slot as u64);
        image[slot * SLOT..slot * SLOT + 8].copy_from_slice(&stamp.to_le_bytes());
    }
    image
}

fn read_u64(ctx: &RtCtx, win: WindowId, off: usize) -> u64 {
    u64::from_le_bytes(ctx.win_at(win, off, 8).try_into().expect("8 bytes"))
}

fn write_u64(ctx: &mut RtCtx, win: WindowId, off: usize, v: u64) {
    ctx.win_mut_at(win, off, 8)
        .copy_from_slice(&v.to_le_bytes());
}

#[allow(clippy::too_many_arguments)]
fn programs(
    seed: u64,
    round_trips: u32,
    rounds: u32,
    base: Arc<Vec<u8>>,
    expect_fnv: u64,
    tracer: &Tracer,
    failures: &Failures,
    out: mpsc::Sender<Rank0Out>,
) -> Vec<RankProgram> {
    let (tracer0, fail0) = (tracer.clone(), failures.clone());
    let rank0: RankProgram = Box::new(move |ctx: &mut RtCtx| {
        let mut rec = tracer0.buf(0);
        ctx.win_mut(W_STREAM).copy_from_slice(&base);
        ctx.barrier();

        let mut rtt_ns = Vec::with_capacity(round_trips as usize);
        let t_ping = Instant::now();
        for i in 0..round_trips {
            let op = u64::from(i);
            write_u64(ctx, W_CTRL, 0, mix(seed, 1, op, 0));
            let t0 = Instant::now();
            let rt = rec.begin("round_trip", op);
            rec.time("put_issue", op, || {
                ctx.put_notify(W_CTRL, Rank(1), 0, 0, 8, Tag(i))
            });
            rec.time("wait", op, || {
                ctx.wait_notifications(RtQuery::exact(W_CTRL, Rank(1), Tag(i)), 1)
            });
            rec.end(rt);
            rtt_ns.push(t0.elapsed().as_nanos() as u32);
            fail0.check(read_u64(ctx, W_CTRL, 8) == mix(seed, 2, op, 0));
        }
        rec.time("flush", 0, || ctx.flush());
        let ping_s = secs(t_ping);

        let t_stream = Instant::now();
        for round in 0..rounds {
            let op = u64::from(STREAM_TAG + round);
            let rd = rec.begin("stream_round", op);
            for slot in 0..SLOTS {
                let off = slot * SLOT;
                write_u64(
                    ctx,
                    W_STREAM,
                    off,
                    mix(seed, 3, u64::from(round), slot as u64),
                );
                rec.time("put_issue", op, || {
                    ctx.put_notify(W_STREAM, Rank(1), off, off, SLOT, Tag(STREAM_TAG + round))
                });
            }
            rec.time("wait", op, || {
                ctx.wait_notifications(RtQuery::exact(W_CTRL, Rank(1), Tag(ACK_TAG + round)), 1)
            });
            rec.end(rd);
        }
        rec.time("flush", 0, || ctx.flush());
        let stream_s = secs(t_stream);
        // The receiver is gone only if the whole run is being torn down.
        let _ = out.send(Rank0Out {
            rtt_ns,
            ping_s,
            stream_s,
        });
    });

    let fail1 = failures.clone();
    let rank1: RankProgram = Box::new(move |ctx: &mut RtCtx| {
        ctx.barrier();
        for i in 0..round_trips {
            let op = u64::from(i);
            ctx.wait_notifications(RtQuery::exact(W_CTRL, Rank(0), Tag(i)), 1);
            fail1.check(read_u64(ctx, W_CTRL, 0) == mix(seed, 1, op, 0));
            write_u64(ctx, W_CTRL, 16, mix(seed, 2, op, 0));
            ctx.put_notify(W_CTRL, Rank(0), 8, 16, 8, Tag(i));
        }
        ctx.flush();
        for round in 0..rounds {
            ctx.wait_notifications(
                RtQuery::exact(W_STREAM, Rank(0), Tag(STREAM_TAG + round)),
                SLOTS,
            );
            // Per round only the stamps are checked (a full checksum costs
            // as much as the transfer); the whole image is verified once
            // after the last round, outside the timed phase.
            for slot in 0..SLOTS {
                fail1.check(
                    read_u64(ctx, W_STREAM, slot * SLOT)
                        == mix(seed, 3, u64::from(round), slot as u64),
                );
            }
            ctx.put_notify(W_CTRL, Rank(0), 24, 24, 8, Tag(ACK_TAG + round));
        }
        ctx.flush();
        fail1.check(fnv(FNV_OFFSET, ctx.win(W_STREAM)) == expect_fnv);
    });
    vec![rank0, rank1]
}

fn config() -> Result<RtConfig, String> {
    RtConfig::builder()
        .devices(2)
        .ranks_per_device(1)
        .windows(vec![SLOT * SLOTS, CTRL_BYTES])
        .build()
        .map_err(|e| format!("p2p config: {e}"))
}

/// `net.*` ratios from the transport counters of one world.
fn net_ratios(net: &NetStats, user_msgs: u64, payload_bytes: u64) -> Vec<(&'static str, f64)> {
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let wire_msgs = net.eager_msgs + net.rndz_msgs;
    vec![
        ("net.frames_per_msg", ratio(net.frames_sent, user_msgs)),
        ("net.copies_tx_per_msg", ratio(net.copies_tx, user_msgs)),
        ("net.copies_rx_per_msg", ratio(net.copies_rx, user_msgs)),
        (
            "net.coalesced_flush_frac",
            ratio(net.coalesced_flushes, net.frames_sent),
        ),
        (
            "net.vectored_write_frac",
            ratio(net.vectored_writes, net.frames_sent),
        ),
        ("net.eager_frac", ratio(net.eager_msgs, wire_msgs)),
        (
            "net.wire_bytes_per_payload_byte",
            ratio(net.bytes_sent + net.shm_bytes_sent, payload_bytes),
        ),
        ("net.retries", net.net_retries as f64),
    ]
}

impl Workload for P2p {
    fn name(&self) -> &'static str {
        match self.0 {
            Plane::InProc => "p2p_inproc",
            Plane::Tcp => "p2p_tcp",
            Plane::Shm => "p2p_shm",
        }
    }

    fn op_alias(&self) -> &'static str {
        "rtt_p50_us"
    }

    fn work_alias(&self) -> &'static str {
        "stream_mb_s"
    }

    fn ops_per_rep(&self, size: Size) -> u64 {
        let (round_trips, rounds) = shape(self.0, size);
        u64::from(round_trips) + u64::from(rounds) * SLOTS as u64
    }

    fn rep(&self, env: &Env) -> Result<Rep, String> {
        let (round_trips, rounds) = shape(self.0, env.size);
        let mut driver = env.tracer.buf(100);

        let mut base = vec![0u8; SLOT * SLOTS];
        SplitMix64::new(env.seed).fill(&mut base);
        let expect_fnv = fnv(FNV_OFFSET, &final_stream_image(env.seed, &base, rounds));

        let failures = Failures::default();
        let (tx, rx) = mpsc::channel();
        let progs = programs(
            env.seed,
            round_trips,
            rounds,
            Arc::new(base),
            expect_fnv,
            env.tracer,
            &failures,
            tx,
        );
        let report = launch_world(&config()?, self.0, progs, env.scratch, &mut driver)?;
        let out = rx
            .recv()
            .map_err(|_| "rank 0 finished without reporting".to_string())?;

        // Each round trip is two notified puts, each stream round eight
        // payload puts and one ack.
        let user_puts = 2 * u64::from(round_trips) + (SLOTS as u64 + 1) * u64::from(rounds);
        check_rt_counts(&report, user_puts, &failures);

        let payload_bytes = u64::from(rounds) * (SLOTS * SLOT) as u64;
        let op_us: Vec<f64> = out.rtt_ns.iter().map(|&ns| f64::from(ns) / 1e3).collect();
        let mut layer = rt_counts(&report);
        layer.push(("rt.rtt_p99_us", tail(&op_us, 99.0)));
        layer.extend(net_ratios(
            &report.net,
            user_puts,
            payload_bytes + 16 * u64::from(round_trips) + 8 * u64::from(rounds),
        ));
        Ok(Rep {
            timed_s: out.ping_s + out.stream_s,
            op_us,
            work: payload_bytes as f64 / 1e6,
            work_s: out.stream_s,
            attempted: self.ops_per_rep(env.size),
            failed: failures.count(),
            layer,
        })
    }

    fn layer_extras(&self, env: &Env) -> Result<Vec<(&'static str, f64)>, String> {
        let mut rows = layers::rt_size_ladder(self.0, env)?;
        rows.extend(layers::net_plane(self.0, env)?);
        // rt's own share of the round trip: what is left after two bare
        // transport crossings.
        let find = |rows: &[(&str, f64)], suffix: &str| {
            rows.iter().find(|r| r.0.ends_with(suffix)).map(|r| r.1)
        };
        if let (Some(rtt), Some(oneway)) =
            (find(&rows, "rtt_8b_p50_us"), find(&rows, "_oneway_ns_8b"))
        {
            rows.push(("rt.self_rtt_us", rtt - 2.0 * oneway / 1e3));
        }
        if self.0 == Plane::InProc {
            rows.extend(layers::observer_overheads(env)?);
        }
        Ok(rows)
    }
}

/// A bare ping-pong world (2 devices x 1 rank) with a caller-chosen message
/// size and config builder: the `rt.rtt_*` size ladder and the observer
/// overhead measurements run it. The receiver yields rank 0's round-trip
/// times in µs once the world has been run.
#[allow(clippy::type_complexity)]
pub fn pingpong_world(
    bytes: usize,
    round_trips: u32,
    builder: RtConfigBuilder,
) -> Result<(RtConfig, Vec<RankProgram>, mpsc::Receiver<Vec<f64>>), String> {
    let cfg = builder
        .devices(2)
        .ranks_per_device(1)
        .windows(vec![2 * bytes.max(8)])
        .build()
        .map_err(|e| format!("ping-pong config: {e}"))?;
    let (tx, rx) = mpsc::channel();
    let w = WindowId(0);
    let rank0: RankProgram = Box::new(move |ctx: &mut RtCtx| {
        ctx.barrier();
        let mut rtts = Vec::with_capacity(round_trips as usize);
        for i in 0..round_trips {
            let t0 = Instant::now();
            ctx.put_notify(w, Rank(1), 0, 0, bytes, Tag(i));
            ctx.wait_notifications(RtQuery::exact(w, Rank(1), Tag(i)), 1);
            rtts.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        ctx.flush();
        let _ = tx.send(rtts);
    });
    let rank1: RankProgram = Box::new(move |ctx: &mut RtCtx| {
        ctx.barrier();
        for i in 0..round_trips {
            ctx.wait_notifications(RtQuery::exact(w, Rank(0), Tag(i)), 1);
            ctx.put_notify(w, Rank(0), bytes.max(8), 0, bytes, Tag(i));
        }
        ctx.flush();
    });
    Ok((cfg, vec![rank0, rank1], rx))
}
