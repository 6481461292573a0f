//! The per-layer ledger: every `per_layer` metric of BENCHMARK.json, the
//! micro-measurements that call one layer's public functions from outside,
//! and the span-derived numbers.
//!
//! Layers are crate names. A traced run reports every name; a layer the
//! workload does not exercise reports 0. Micro-measurements use fixed seeds
//! (not `--seed`) so that count-type metrics repeat exactly across runs.

use crate::spans::{self, Span, Tracer};
use crate::stats::{median, tail};
use crate::util::SplitMix64;
use crate::workloads::p2p::pingpong_world;
use crate::workloads::{launch_world, mesh_pair, Env, Plane, Rep, Size};
use dcuda_des::{queue::EventQueue, SimDuration};
use dcuda_net::{InProcessPlane, Transport, WireMsg};
use dcuda_queues::{
    byte_ring_on, channel, DedupWindow, IndexedMatcher, Notification, Query, RecvError,
    StdPlatform, TrySendError,
};
use dcuda_rt::cluster::RankProgram;
use dcuda_rt::{
    run_cluster_traced, try_run_cluster, try_run_cluster_verified, ProgressMode, RaceMode, Rank,
    RtConfig, RtCtx, RtQuery, Tag, WindowId,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub type Rows = Vec<(&'static str, f64)>;

/// Name, unit and better-direction of every per-layer metric, in report
/// order (mirrors `per_layer` in BENCHMARK.json; a unit test compares).
pub const METRICS: &[(&str, &str, &str)] = &[
    // queues: measured alone, on every traced run.
    ("queues.spsc_xthread_ns_per_msg", "ns", "lower"),
    ("queues.spsc_full_frac", "ratio", "lower"),
    ("queues.indexed_match_ns_d1", "ns", "lower"),
    ("queues.indexed_match_ns_d64", "ns", "lower"),
    ("queues.indexed_match_ns_d1024", "ns", "lower"),
    ("queues.indexed_scan_per_hit_d1024", "count", "lower"),
    ("queues.bytering_ns_per_rec_64b", "ns", "lower"),
    ("queues.bytering_ns_per_rec_16k", "ns", "lower"),
    ("queues.dedup_ns_per_seq", "ns", "lower"),
    // net: codec on every traced run; planes and counters on p2p_*.
    ("net.wire_encode_ns_8b", "ns", "lower"),
    ("net.wire_encode_ns_2k", "ns", "lower"),
    ("net.wire_encode_ns_64k", "ns", "lower"),
    ("net.wire_decode_ns_8b", "ns", "lower"),
    ("net.wire_decode_ns_2k", "ns", "lower"),
    ("net.wire_decode_ns_64k", "ns", "lower"),
    ("net.inproc_oneway_ns_8b", "ns", "lower"),
    ("net.inproc_msgs_per_s_8b", "1/s", "higher"),
    ("net.inproc_mb_s_256k", "MB/s", "higher"),
    ("net.tcp_oneway_ns_8b", "ns", "lower"),
    ("net.tcp_msgs_per_s_8b", "1/s", "higher"),
    ("net.tcp_mb_s_256k", "MB/s", "higher"),
    ("net.shm_oneway_ns_8b", "ns", "lower"),
    ("net.shm_msgs_per_s_8b", "1/s", "higher"),
    ("net.shm_mb_s_256k", "MB/s", "higher"),
    ("net.mesh_establish_ms_tcp", "ms", "lower"),
    ("net.mesh_establish_ms_shm", "ms", "lower"),
    ("net.frames_per_msg", "count", "lower"),
    ("net.copies_tx_per_msg", "count", "lower"),
    ("net.copies_rx_per_msg", "count", "lower"),
    ("net.coalesced_flush_frac", "ratio", "higher"),
    ("net.vectored_write_frac", "ratio", "higher"),
    ("net.eager_frac", "ratio", "higher"),
    ("net.wire_bytes_per_payload_byte", "ratio", "lower"),
    ("net.retries", "count", "lower"),
    // rt: spans around the rank-side calls, ladders, launch, overlap.
    ("rt.put_issue_ns_p50", "ns", "lower"),
    ("rt.put_issue_ns_p99", "ns", "lower"),
    ("rt.wait_ns_p50", "ns", "lower"),
    ("rt.wait_ns_p99", "ns", "lower"),
    ("rt.flush_ns_p50", "ns", "lower"),
    ("rt.barrier_us_w4", "us", "lower"),
    ("rt.barrier_us_w8", "us", "lower"),
    ("rt.rtt_p99_us", "us", "lower"),
    ("rt.rtt_8b_p50_us", "us", "lower"),
    ("rt.rtt_2k_p50_us", "us", "lower"),
    ("rt.rtt_4k_p50_us", "us", "lower"),
    ("rt.rtt_64k_p50_us", "us", "lower"),
    ("rt.rtt_1m_p50_us", "us", "lower"),
    ("rt.self_rtt_us", "us", "lower"),
    ("rt.launch_ms_w2", "ms", "lower"),
    ("rt.launch_ms_w8", "ms", "lower"),
    ("rt.halo.compute_only_iters_per_s", "1/s", "higher"),
    ("rt.halo.exchange_only_iters_per_s", "1/s", "higher"),
    ("rt.halo.overlap_frac", "ratio", "higher"),
    ("rt.progress.inline_busy_ms", "ms", "lower"),
    ("rt.progress.threads1_busy_ms", "ms", "lower"),
    ("rt.progress.recovered_frac", "ratio", "higher"),
    ("rt.progress.steals", "count", "higher"),
    ("rt.progress.frames", "count", "higher"),
    ("rt.puts", "count", "lower"),
    ("rt.notifications", "count", "lower"),
    ("rt.matched", "count", "lower"),
    ("rt.retries", "count", "lower"),
    ("rt.dups_suppressed", "count", "lower"),
    // coll: on `allreduce`.
    ("coll.allreduce_ring_256k_us", "us", "lower"),
    ("coll.allreduce_tree_256k_us", "us", "lower"),
    ("coll.allreduce_rdbl_256k_us", "us", "lower"),
    ("coll.allreduce_8b_us", "us", "lower"),
    ("coll.hidden_frac", "ratio", "higher"),
    ("coll.puts_per_op", "count", "lower"),
    ("coll.chunks_per_op", "count", "lower"),
    ("coll.bytes_per_op", "count", "lower"),
    ("coll.ring_shift_us", "us", "lower"),
    // core / des: on `sim_overlap` (des queue on every traced run).
    ("core.ns_per_event", "ns", "lower"),
    ("core.events", "count", "lower"),
    ("core.scanned_per_notification", "count", "lower"),
    ("core.pool_hit_frac", "ratio", "higher"),
    ("core.peak_event_queue", "count", "lower"),
    ("core.sim_end_time_us", "us", "lower"),
    ("core.fig6_shared_latency_us", "us", "lower"),
    ("core.fig6_dist_latency_us", "us", "lower"),
    ("des.queue_ns_per_event", "ns", "lower"),
    // sched: on `jobstorm`.
    ("sched.submit_ns_p50", "ns", "lower"),
    ("sched.wait_ms_p50", "ms", "lower"),
    ("sched.wait_ms_p99", "ms", "lower"),
    ("sched.run_ms_p50", "ms", "lower"),
    ("sched.run_ms_p99", "ms", "lower"),
    ("sched.job_ms_p50", "ms", "lower"),
    ("sched.job_ms_p99", "ms", "lower"),
    ("sched.solo_job_ms", "ms", "lower"),
    ("sched.util_frac", "ratio", "higher"),
    ("sched.peak_queue_depth", "count", "lower"),
    ("sched.rejected", "count", "lower"),
    // The repo's own observers, and the benchmark's.
    ("trace.rt_overhead_frac", "ratio", "lower"),
    ("verify.monitor_overhead_frac", "ratio", "lower"),
    ("verify.race_observe_overhead_frac", "ratio", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("process.peak_rss_mb", "MB", "lower"),
];

/// The values one traced run has collected so far.
#[derive(Default)]
pub struct Ledger {
    values: HashMap<&'static str, f64>,
}

impl Ledger {
    /// # Panics
    /// Panics on a name missing from [`METRICS`]: the benchmark would
    /// measure something it never reports.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            METRICS.iter().any(|m| m.0 == name),
            "{name} is not a declared per-layer metric"
        );
        self.values.insert(name, value);
    }

    /// Median over the traced repetitions of every layer observation.
    pub fn absorb_reps<'a>(&mut self, reps: impl Iterator<Item = &'a Rep> + Clone) {
        let mut names: Vec<&'static str> = reps
            .clone()
            .flat_map(|r| r.layer.iter().map(|&(k, _)| k))
            .collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let values: Vec<f64> = reps
                .clone()
                .flat_map(|r| r.layer.iter().filter(|l| l.0 == name).map(|l| l.1))
                .collect();
            self.set(name, median(&values));
        }
    }

    /// Span-derived numbers: the spans around the rank-side rt calls and
    /// the scheduler's submit call.
    pub fn absorb_spans(&mut self, spans: &[Span]) {
        for (span, p50, p99) in [
            (
                "put_issue",
                "rt.put_issue_ns_p50",
                Some("rt.put_issue_ns_p99"),
            ),
            ("wait", "rt.wait_ns_p50", Some("rt.wait_ns_p99")),
            ("flush", "rt.flush_ns_p50", None),
            ("submit", "sched.submit_ns_p50", None),
        ] {
            let d = spans::durations(spans, span);
            if d.is_empty() {
                continue;
            }
            self.set(p50, median(&d));
            if let Some(p99) = p99 {
                self.set(p99, tail(&d, 99.0));
            }
        }
    }

    /// Every declared metric in declaration order; unmeasured ones are 0.
    pub fn finish(self) -> Vec<(&'static str, &'static str, f64)> {
        METRICS
            .iter()
            .map(|&(name, unit, _)| (name, unit, self.values.get(name).copied().unwrap_or(0.0)))
            .collect()
    }
}

const MICRO_SEED: u64 = 0x5EED_0F1A_7E55;

fn ns_per(t: Instant, n: u64) -> f64 {
    t.elapsed().as_nanos() as f64 / n as f64
}

// --- queues -------------------------------------------------------------

/// (ns per message, share of `try_send` calls that found the ring full)
/// for `msgs` words crossing a 64-slot ring between two threads.
pub fn spsc_xthread(msgs: u64) -> (f64, f64) {
    let (mut tx, mut rx) = channel::<u64>(64);
    let consumer = std::thread::spawn(move || {
        let mut sum = 0u64;
        let mut got = 0u64;
        while got < msgs {
            match rx.try_recv() {
                Ok(v) => {
                    sum = sum.wrapping_add(v);
                    got += 1;
                }
                Err(RecvError::Empty) => std::thread::yield_now(),
                Err(RecvError::Disconnected) => break,
            }
        }
        sum
    });
    let (mut attempts, mut full) = (0u64, 0u64);
    let t = Instant::now();
    for i in 0..msgs {
        let mut v = i;
        loop {
            attempts += 1;
            match tx.try_send(v) {
                Ok(()) => break,
                Err(TrySendError::Full(back)) => {
                    full += 1;
                    v = back;
                    std::thread::yield_now();
                }
                Err(TrySendError::Disconnected(_)) => break,
            }
        }
    }
    let sum = consumer.join().expect("spsc consumer panicked");
    let ns = ns_per(t, msgs);
    assert_eq!(
        sum,
        msgs * (msgs - 1) / 2,
        "spsc ring lost or invented words"
    );
    (ns, full as f64 / attempts as f64)
}

/// (ns per match, modeled entries scanned per hit) for an
/// [`IndexedMatcher`] holding a backlog of `depth` that is matched away by
/// exact queries in a seeded permutation, `rounds` times.
pub fn indexed_match(depth: u32, rounds: u32) -> (f64, f64) {
    let mut order: Vec<u32> = (0..depth).collect();
    SplitMix64::new(MICRO_SEED ^ u64::from(depth)).shuffle(&mut order);
    let note = |i: u32| Notification {
        win: 0,
        source: i % 4,
        tag: i,
    };
    let mut m = IndexedMatcher::new();
    let (mut scanned, mut hits, mut ns) = (0u64, 0u64, 0u128);
    for _ in 0..rounds {
        (0..depth).for_each(|i| m.insert(note(i)));
        let t = Instant::now();
        for &i in &order {
            let n = note(i);
            let q = Query {
                win: n.win,
                source: n.source,
                tag: n.tag,
            };
            if let Some((found, scan)) = black_box(m.try_match(q, 1)) {
                hits += found.len() as u64;
                scanned += scan as u64;
            }
        }
        ns += t.elapsed().as_nanos();
    }
    assert_eq!(hits, u64::from(depth) * u64::from(rounds), "matcher missed");
    (ns as f64 / hits as f64, scanned as f64 / hits as f64)
}

/// ns per record pushed and popped through a 1 MiB byte ring.
pub fn bytering(body_len: usize, records: u64) -> f64 {
    let (mut tx, mut rx) = byte_ring_on::<StdPlatform>(1 << 20);
    let body = vec![0xA5u8; body_len];
    let t = Instant::now();
    for _ in 0..records {
        assert!(tx.try_push(black_box(&body)), "empty ring refused a record");
        let got = rx.try_pop().expect("record just pushed");
        assert_eq!(black_box(got).len(), body_len);
    }
    ns_per(t, records)
}

/// ns per sequence number through a [`DedupWindow`] (every eighth number is
/// offered twice; the duplicates must all be refused).
pub fn dedup(seqs: u64) -> f64 {
    let mut w = DedupWindow::new();
    let mut accepted = 0u64;
    let t = Instant::now();
    for s in 0..seqs {
        accepted += u64::from(w.accept(black_box(s)));
        if s % 8 == 0 {
            accepted += u64::from(w.accept(black_box(s)));
        }
    }
    let ns = ns_per(t, seqs + seqs.div_ceil(8));
    assert_eq!(accepted, seqs, "dedup window let a duplicate through");
    ns
}

// --- net ----------------------------------------------------------------

fn deliver(payload: Vec<u8>) -> WireMsg {
    WireMsg::Deliver {
        dst_local: 0,
        win: 0,
        dst_off: 0,
        source: 1,
        tag: 7,
        notify: true,
        seq: 0,
        origin_device: 0,
        origin_local: 0,
        flush_id: 1,
        data: payload,
    }
}

/// (encode ns, decode ns) per message carrying `payload` bytes.
pub fn wire_codec(payload: usize, iters: u64) -> (f64, f64) {
    let msg = deliver(vec![0x5Au8; payload]);
    let mut buf = Vec::new();
    let t = Instant::now();
    for _ in 0..iters {
        buf.clear();
        black_box(&msg).encode_into(&mut buf);
        black_box(&buf);
    }
    let enc = ns_per(t, iters);
    let t = Instant::now();
    for _ in 0..iters {
        let back = WireMsg::decode(black_box(&buf)).expect("decode what encode wrote");
        black_box(back);
    }
    let dec = ns_per(t, iters);
    assert_eq!(WireMsg::decode(&buf).as_ref(), Ok(&msg), "codec round trip");
    (enc, dec)
}

const STALL: Duration = Duration::from_secs(30);

/// Median one-way time (ns) of an 8 B message between two endpoints, no
/// rt involved: this thread sends and pumps, a second thread spins on the
/// receiving endpoint the way an rt host loop does (both cores stay busy, as
/// they are under rt) and stamps each arrival on the shared clock.
fn oneway_ns(a: &mut dyn Transport, b: &mut dyn Transport, msgs: u32) -> Result<f64, String> {
    let arrived = AtomicU64::new(0);
    let stamp = AtomicU64::new(0);
    let abort = AtomicBool::new(false);
    std::thread::scope(|s| {
        let receiver = s.spawn(|| -> Result<(), String> {
            let mut got = 0u64;
            while got < u64::from(msgs) && !abort.load(Ordering::Acquire) {
                b.pump().map_err(|e| e.to_string())?;
                if b.try_recv().map_err(|e| e.to_string())?.is_some() {
                    got += 1;
                    // Release pairs with the sender's Acquire load of
                    // `arrived`: the stamp is visible once the count is.
                    stamp.store(spans::now_ns(), Ordering::Relaxed);
                    arrived.store(got, Ordering::Release);
                }
            }
            Ok(())
        });
        let mut send_all = || -> Result<Vec<f64>, String> {
            let mut samples = Vec::with_capacity(msgs as usize);
            for i in 0..u64::from(msgs) {
                let t0 = spans::now_ns();
                a.send(1, deliver(vec![0u8; 8]))
                    .map_err(|e| e.to_string())?;
                while arrived.load(Ordering::Acquire) <= i {
                    a.pump().map_err(|e| e.to_string())?;
                    if spans::now_ns() - t0 > STALL.as_nanos() as u64 {
                        return Err("one-way message never arrived".into());
                    }
                }
                samples.push(stamp.load(Ordering::Relaxed).saturating_sub(t0) as f64);
            }
            Ok(samples)
        };
        let samples = send_all();
        abort.store(true, Ordering::Release);
        receiver
            .join()
            .map_err(|_| "one-way receiver panicked".to_string())??;
        samples.map(|s| median(&s))
    })
}

/// Seconds to move `msgs` messages of `payload` bytes one way, draining
/// the receiver in windows so credits keep flowing.
fn stream_s(
    a: &mut dyn Transport,
    b: &mut dyn Transport,
    payload: usize,
    msgs: u64,
) -> Result<f64, String> {
    let template = deliver(vec![0x3Cu8; payload]);
    let drain = |b: &mut dyn Transport, got: &mut u64, bytes: &mut u64| -> Result<(), String> {
        while let Some(m) = b.try_recv().map_err(|e| e.to_string())? {
            if let WireMsg::Deliver { data, .. } = m {
                *bytes += data.len() as u64;
                *got += 1;
            }
        }
        Ok(())
    };
    let (mut got, mut bytes) = (0u64, 0u64);
    let t = Instant::now();
    for i in 0..msgs {
        a.send(1, template.clone()).map_err(|e| e.to_string())?;
        if i % 32 == 31 {
            a.pump().map_err(|e| e.to_string())?;
            b.pump().map_err(|e| e.to_string())?;
            drain(b, &mut got, &mut bytes)?;
        }
    }
    while got < msgs {
        a.pump().map_err(|e| e.to_string())?;
        b.pump().map_err(|e| e.to_string())?;
        drain(b, &mut got, &mut bytes)?;
        if t.elapsed() > STALL {
            return Err(format!("stream stalled at {got} of {msgs} messages"));
        }
    }
    let s = t.elapsed().as_secs_f64();
    if bytes != msgs * payload as u64 {
        return Err(format!(
            "stream landed {bytes} of {} bytes",
            msgs * payload as u64
        ));
    }
    Ok(s)
}

/// The bare transport of `plane`: two endpoints, no rt.
pub fn net_plane(plane: Plane, env: &Env) -> Result<Rows, String> {
    let mut driver = env.tracer.buf(200);
    let mut rows = Rows::new();
    let (oneway, rate, bw) = match plane {
        Plane::InProc => (
            "net.inproc_oneway_ns_8b",
            "net.inproc_msgs_per_s_8b",
            "net.inproc_mb_s_256k",
        ),
        Plane::Tcp => (
            "net.tcp_oneway_ns_8b",
            "net.tcp_msgs_per_s_8b",
            "net.tcp_mb_s_256k",
        ),
        Plane::Shm => (
            "net.shm_oneway_ns_8b",
            "net.shm_msgs_per_s_8b",
            "net.shm_mb_s_256k",
        ),
    };
    let mut measure = |a: &mut dyn Transport, b: &mut dyn Transport| -> Result<(), String> {
        let small = env.size.pick(20_000u64, 200);
        let big = env.size.pick(200u64, 4);
        rows.push((
            oneway,
            driver.time("net_oneway", 0, || {
                oneway_ns(a, b, env.size.pick(2_000, 50))
            })?,
        ));
        let s = driver.time("net_stream_8b", 0, || stream_s(a, b, 8, small))?;
        rows.push((rate, small as f64 / s));
        let s = driver.time("net_stream_256k", 0, || stream_s(a, b, 256 << 10, big))?;
        rows.push((bw, (big * (256 << 10)) as f64 / 1e6 / s));
        Ok(())
    };
    if plane == Plane::InProc {
        let mut world = InProcessPlane::new_world(2);
        let mut b = world.pop().expect("endpoint 1");
        let mut a = world.pop().expect("endpoint 0");
        measure(&mut a, &mut b)?;
    } else {
        let mut establish_ms = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let mesh = mesh_pair(plane, 1, env.scratch)?;
            establish_ms.push(t.elapsed().as_secs_f64() * 1e3);
            drop(mesh);
        }
        let [mut e0, mut e1] = mesh_pair(plane, 1, env.scratch)?;
        let (mut a, mut b) = (e0.remove(0), e1.remove(0));
        measure(&mut a, &mut b)?;
        rows.push((
            if plane == Plane::Tcp {
                "net.mesh_establish_ms_tcp"
            } else {
                "net.mesh_establish_ms_shm"
            },
            median(&establish_ms),
        ));
    }
    Ok(rows)
}

// --- des ----------------------------------------------------------------

/// ns per event through the DES pending-event set at a steady backlog of
/// 1024 events with seeded delays.
pub fn des_queue(events: u64) -> f64 {
    let mut rng = SplitMix64::new(MICRO_SEED);
    let mut q = EventQueue::<u64>::new();
    for i in 0..1024 {
        q.schedule_in(SimDuration::from_nanos(1 + rng.below(10_000)), i);
    }
    let t = Instant::now();
    for _ in 0..events {
        let (_, e) = q.pop().expect("steady backlog");
        q.schedule_in(SimDuration::from_nanos(1 + rng.below(10_000)), black_box(e));
    }
    ns_per(t, events)
}

/// Measurements of single layers that do not depend on the workload: the
/// `queues` primitives, the wire codec and the DES event queue.
pub fn common(tracer: &Tracer, size: Size) -> Result<Rows, String> {
    let mut d = tracer.buf(200);
    let mut rows = Rows::new();
    // Tiny: a hundredth of the iterations.
    let scale = |n: u64| size.pick(n, n / 100);
    let (ns, full) = d.time("queues_spsc", 0, || spsc_xthread(scale(200_000)));
    rows.push(("queues.spsc_xthread_ns_per_msg", ns));
    rows.push(("queues.spsc_full_frac", full));
    for (depth, rounds, name) in [
        (1u32, 20_000u32, "queues.indexed_match_ns_d1"),
        (64, 1_000, "queues.indexed_match_ns_d64"),
        (1024, 60, "queues.indexed_match_ns_d1024"),
    ] {
        let (ns, scan) = d.time("queues_indexed", u64::from(depth), || {
            indexed_match(depth, scale(u64::from(rounds)).max(1) as u32)
        });
        rows.push((name, ns));
        if depth == 1024 {
            rows.push(("queues.indexed_scan_per_hit_d1024", scan));
        }
    }
    rows.push((
        "queues.bytering_ns_per_rec_64b",
        d.time("queues_bytering", 64, || bytering(64, scale(100_000))),
    ));
    rows.push((
        "queues.bytering_ns_per_rec_16k",
        d.time("queues_bytering", 16 << 10, || {
            bytering(16 << 10, scale(2_000))
        }),
    ));
    rows.push((
        "queues.dedup_ns_per_seq",
        d.time("queues_dedup", 0, || dedup(scale(1_000_000))),
    ));
    for (payload, iters, enc, dec) in [
        (
            8usize,
            200_000u64,
            "net.wire_encode_ns_8b",
            "net.wire_decode_ns_8b",
        ),
        (
            2 << 10,
            100_000,
            "net.wire_encode_ns_2k",
            "net.wire_decode_ns_2k",
        ),
        (
            64 << 10,
            5_000,
            "net.wire_encode_ns_64k",
            "net.wire_decode_ns_64k",
        ),
    ] {
        let (e, dd) = d.time("net_wire_codec", payload as u64, || {
            wire_codec(payload, scale(iters))
        });
        rows.push((enc, e));
        rows.push((dec, dd));
    }
    rows.push((
        "des.queue_ns_per_event",
        d.time("des_queue", 0, || des_queue(scale(500_000))),
    ));
    Ok(rows)
}

// --- rt -----------------------------------------------------------------

/// Fresh worlds per point of a layer measurement made on a two-rank world;
/// the fastest one is reported (three worlds are too few for a median to
/// shrug off one disturbed world).
const WORLDS_PER_POINT: usize = 3;

fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `rt.rtt_*`: median round trip per message size on `plane` (crosses the
/// eager/rendezvous cutoff and `vectored_min`), best of a few fresh worlds
/// per size.
pub fn rt_size_ladder(plane: Plane, env: &Env) -> Result<Rows, String> {
    let slow = plane == Plane::Tcp;
    let mut rows = Rows::new();
    for (bytes, trips, name) in [
        (8usize, 2_000u32, "rt.rtt_8b_p50_us"),
        (2 << 10, 1_000, "rt.rtt_2k_p50_us"),
        (4 << 10, 1_000, "rt.rtt_4k_p50_us"),
        (64 << 10, 300, "rt.rtt_64k_p50_us"),
        (1 << 20, 40, "rt.rtt_1m_p50_us"),
    ] {
        let trips = env.size.pick(if slow { trips / 2 } else { trips }, 10);
        let mut p50s = Vec::new();
        for _ in 0..env.size.pick(WORLDS_PER_POINT, 1) {
            let (cfg, progs, rx) = pingpong_world(bytes, trips, RtConfig::builder())?;
            let mut driver = env.tracer.buf(200);
            launch_world(&cfg, plane, progs, env.scratch, &mut driver)?;
            let rtts = rx
                .recv()
                .map_err(|_| "ladder rank 0 finished without reporting".to_string())?;
            p50s.push(median(&rtts));
        }
        rows.push((name, best(&p50s)));
    }
    Ok(rows)
}

/// Cost of the repo's own observers on the in-process 8 B round trip:
/// `run_cluster_traced`, the invariant monitor, and race detection in
/// observe mode, each as a share of the plain `try_run_cluster` median.
pub fn observer_overheads(env: &Env) -> Result<Rows, String> {
    let trips = env.size.pick(10_000, 20);
    let p50 = |mode: usize| -> Result<f64, String> {
        let builder = match mode {
            3 => RtConfig::builder().race_detect(RaceMode::Observe),
            _ => RtConfig::builder(),
        };
        let (cfg, progs, rx) = pingpong_world(8, trips, builder)?;
        match mode {
            1 => run_cluster_traced(&cfg, progs).map(drop),
            2 => try_run_cluster_verified(&cfg, progs).map(drop),
            _ => try_run_cluster(&cfg, progs).map(drop),
        }
        .map_err(|e| format!("observer world {mode}: {e}"))?;
        let rtts = rx
            .recv()
            .map_err(|_| "observer rank 0 finished without reporting".to_string())?;
        Ok(median(&rtts))
    };
    // A few fresh worlds per mode, interleaved; best-placed world of each.
    let mut samples = [const { Vec::new() }; 4];
    for _ in 0..env.size.pick(WORLDS_PER_POINT, 1) {
        for (mode, bucket) in samples.iter_mut().enumerate() {
            bucket.push(p50(mode)?);
        }
    }
    let base = best(&samples[0]);
    let over = |i: usize| (best(&samples[i]) - base) / base;
    Ok(vec![
        ("trace.rt_overhead_frac", over(1)),
        ("verify.monitor_overhead_frac", over(2)),
        ("verify.race_observe_overhead_frac", over(3)),
    ])
}

fn world_cfg(devices: u32, ranks_per_device: u32) -> Result<RtConfig, String> {
    RtConfig::builder()
        .devices(devices)
        .ranks_per_device(ranks_per_device)
        .windows(vec![64])
        .build()
        .map_err(|e| format!("world config: {e}"))
}

/// Median µs of a world barrier in a `2 x ranks_per_device` world.
pub fn barrier_us(ranks_per_device: u32, barriers: u32) -> Result<f64, String> {
    let cfg = world_cfg(2, ranks_per_device)?;
    let (tx, rx) = mpsc::channel();
    let progs: Vec<RankProgram> = (0..cfg.world())
        .map(|r| {
            let tx = tx.clone();
            Box::new(move |ctx: &mut RtCtx| {
                let mut us = Vec::with_capacity(barriers as usize);
                for _ in 0..barriers {
                    let t = Instant::now();
                    ctx.barrier();
                    us.push(t.elapsed().as_nanos() as f64 / 1e3);
                }
                if r == 0 {
                    let _ = tx.send(us);
                }
            }) as RankProgram
        })
        .collect();
    try_run_cluster(&cfg, progs).map_err(|e| format!("barrier world: {e}"))?;
    let us = rx
        .recv()
        .map_err(|_| "barrier rank 0 finished without reporting".to_string())?;
    Ok(median(&us))
}

/// Median ms from spawn to join of a world of empty programs.
pub fn launch_ms(devices: u32, ranks_per_device: u32, launches: u32) -> Result<f64, String> {
    let cfg = world_cfg(devices, ranks_per_device)?;
    let mut ms = Vec::new();
    for _ in 0..launches {
        let progs: Vec<RankProgram> = (0..cfg.world())
            .map(|_| Box::new(|_: &mut RtCtx| {}) as RankProgram)
            .collect();
        let t = Instant::now();
        try_run_cluster(&cfg, progs).map_err(|e| format!("empty world: {e}"))?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&ms))
}

/// The busy-host ladder: sequential cross-device round trips (every hop
/// gated on a host progress pass) with the host loops burning
/// `host_busy_spin` between passes, inline versus one progress thread.
/// Layer-only: no real traffic sets that knob.
pub fn progress_ladder(env: &Env) -> Result<Rows, String> {
    const BUSY_SPIN: u64 = 60_000;
    let iters = env.size.pick(60u32, 4);
    let run = |mode: ProgressMode, spin: u64| -> Result<(f64, u64, u64), String> {
        let cfg = RtConfig::builder()
            .devices(2)
            .ranks_per_device(2)
            .windows(vec![64])
            .progress(mode)
            .host_busy_spin(spin)
            .build()
            .map_err(|e| format!("busy-host config: {e}"))?;
        let progs: Vec<RankProgram> = (0..4u32)
            .map(|r| {
                let partner = Rank(r ^ 2);
                let q = move |i| RtQuery::exact(WindowId(0), partner, Tag(i));
                Box::new(move |ctx: &mut RtCtx| {
                    for i in 0..iters {
                        if r < 2 {
                            ctx.put_notify(WindowId(0), partner, 0, 0, 64, Tag(i));
                            ctx.flush();
                            ctx.wait_notifications(q(i), 1);
                        } else {
                            ctx.wait_notifications(q(i), 1);
                            ctx.put_notify(WindowId(0), partner, 0, 0, 64, Tag(i));
                            ctx.flush();
                        }
                    }
                }) as RankProgram
            })
            .collect();
        let t = Instant::now();
        let report = try_run_cluster(&cfg, progs).map_err(|e| format!("busy-host world: {e}"))?;
        Ok((
            t.elapsed().as_secs_f64() * 1e3,
            report.net.steals,
            report.net.progress_frames,
        ))
    };
    let (idle_ms, _, _) = run(ProgressMode::Inline, 0)?;
    let (inline_ms, _, _) = run(ProgressMode::Inline, BUSY_SPIN)?;
    let (threads_ms, steals, frames) = run(ProgressMode::Threads(1), BUSY_SPIN)?;
    Ok(vec![
        ("rt.progress.inline_busy_ms", inline_ms),
        ("rt.progress.threads1_busy_ms", threads_ms),
        (
            "rt.progress.recovered_frac",
            (inline_ms - threads_ms) / (inline_ms - idle_ms),
        ),
        ("rt.progress.steals", steals as f64),
        ("rt.progress.frames", frames as f64),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::find_names;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = METRICS.iter().map(|m| m.0).collect();
        assert!(names.len() <= 128);
        for n in &names {
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRICS.len());
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let section = |key: &str| {
            let at = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[at..].find(']').expect("section is a list");
            find_names(&text[at..at + end])
        };
        let declared: Vec<&str> = METRICS.iter().map(|m| m.0).collect();
        assert_eq!(section("per_layer"), declared);
        let e2e: Vec<&str> = crate::runner::END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(section("end_to_end"), e2e);
        assert_eq!(section("workloads"), crate::workloads::NAMES);
    }

    #[test]
    fn ledger_reports_every_name_and_zero_for_unmeasured() {
        let mut l = Ledger::default();
        l.set("rt.puts", 7.0);
        let rows = l.finish();
        assert_eq!(rows.len(), METRICS.len());
        assert!(rows.iter().any(|r| r.0 == "rt.puts" && r.2 == 7.0));
        assert!(rows.iter().any(|r| r.0 == "coll.hidden_frac" && r.2 == 0.0));
    }

    #[test]
    #[should_panic(expected = "not a declared per-layer metric")]
    fn ledger_refuses_undeclared_names() {
        Ledger::default().set("rt.nonsense", 1.0);
    }

    #[test]
    fn queue_micros_hold_their_closed_forms() {
        let (ns, full) = spsc_xthread(2_000);
        assert!(ns > 0.0 && (0.0..1.0).contains(&full));
        // Depth 1: one entry scanned per hit, by construction.
        let (_, scan) = indexed_match(1, 50);
        assert_eq!(scan, 1.0);
        let (_, a) = indexed_match(64, 3);
        let (_, b) = indexed_match(64, 3);
        assert_eq!(a, b, "modeled scan count must repeat exactly");
        assert!(bytering(64, 100) > 0.0);
        assert!(dedup(1_000) > 0.0);
        assert!(des_queue(1_000) > 0.0);
        let (enc, dec) = wire_codec(2048, 100);
        assert!(enc > 0.0 && dec > 0.0);
    }
}
