//! `sim_overlap`: the discrete-event simulator on the paper's Figure 7
//! shape — 2 nodes x 104 ranks = 208, Newton-Raphson work between ring halo
//! exchanges — with a benchmark-owned `RankKernel`.
//!
//! Why: half the codebase is the simulator. Its *host* speed must not
//! regress while its *simulated* statistics stay identical, so every
//! repetition compares `end_time`, `rma_ops`, `notifications` and
//! `net_bytes` with `golden/sim_overlap.json` (modelled values only; the
//! event count is an implementation detail and is not pinned).

use super::{secs, Env, Rep, Size, Workload};
use crate::json::find_number;
use crate::util::{fnv, mix, FNV_OFFSET};
use dcuda_core::types::Topology;
use dcuda_core::{
    ClusterSim, Rank, RankCtx, RankKernel, RunReport, Suspend, SystemSpec, WinId, WindowSpec,
};
use dcuda_device::BlockCharge;
use std::time::Instant;

const NODES: u32 = 2;
const RANKS_PER_NODE: u32 = 104;
const HALO: usize = 1024;
/// Newton iterations between exchanges (128 threads x one ~16-flop DP
/// division each, per iteration).
const WORK_ITERS: f64 = 64.0;
const GOLDEN: &str = include_str!("../../golden/sim_overlap.json");

fn shape(size: Size) -> (Topology, u32) {
    let (ranks_per_node, exchanges) = size.pick((RANKS_PER_NODE, 200), (4, 5));
    (
        Topology {
            nodes: NODES,
            ranks_per_node,
        },
        exchanges,
    )
}

pub struct SimOverlap;

/// Window layout per rank: `[own | from-left | from-right]`, `HALO` each.
struct RingHalo {
    seed: u64,
    left: Option<Rank>,
    right: Option<Rank>,
    exchanges: u32,
    done: u32,
}

fn own_payload(seed: u64, rank: u32) -> Vec<u8> {
    let mut bytes = vec![0u8; HALO];
    for (i, w) in bytes.chunks_exact_mut(8).enumerate() {
        w.copy_from_slice(&mix(seed, u64::from(rank), i as u64, 13).to_le_bytes());
    }
    bytes
}

impl RankKernel for RingHalo {
    fn resume(&mut self, ctx: &mut RankCtx<'_>) -> Suspend {
        if self.done == 0 {
            let rank = ctx.rank().0;
            ctx.win_mut(WinId(0))[..HALO].copy_from_slice(&own_payload(self.seed, rank));
        }
        if self.done >= self.exchanges {
            return Suspend::Finished;
        }
        self.done += 1;
        ctx.charge(BlockCharge::flops(128.0 * 16.0 * WORK_ITERS));
        let mut expected = 0;
        if let Some(l) = self.left {
            // Lands in the left neighbour's from-right slot.
            ctx.put_notify(WinId(0), l, 2 * HALO, 0, HALO, 1);
            expected += 1;
        }
        if let Some(r) = self.right {
            ctx.put_notify(WinId(0), r, HALO, 0, HALO, 1);
            expected += 1;
        }
        Suspend::WaitNotifications {
            win: Some(WinId(0)),
            source: None,
            tag: Some(1),
            count: expected,
        }
    }
}

/// Build and run one simulation; returns the report, the host seconds
/// inside `sim.run()` and the number of halo slots holding wrong bytes.
fn simulate(seed: u64, topo: Topology, exchanges: u32) -> (RunReport, f64, u64) {
    let world = topo.world_size();
    let window = WindowSpec::uniform(&topo, 3 * HALO);
    let kernels: Vec<Box<dyn RankKernel>> = topo
        .ranks()
        .map(|r| {
            Box::new(RingHalo {
                seed,
                left: (r.0 > 0).then(|| Rank(r.0 - 1)),
                right: (r.0 + 1 < world).then(|| Rank(r.0 + 1)),
                exchanges,
                done: 0,
            }) as Box<dyn RankKernel>
        })
        .collect();
    let mut sim = ClusterSim::new(SystemSpec::greina(), topo, vec![window.clone()], kernels);
    let t = Instant::now();
    let report = sim.run();
    let run_s = secs(t);

    let mut wrong = 0;
    for r in topo.ranks() {
        let range = window.range_of(r);
        let mine = &sim.arena(topo.node_of(r), WinId(0))[range];
        let sum = |bytes: &[u8]| fnv(FNV_OFFSET, bytes);
        if r.0 > 0 {
            wrong += u64::from(sum(&mine[HALO..2 * HALO]) != sum(&own_payload(seed, r.0 - 1)));
        }
        if r.0 + 1 < world {
            wrong += u64::from(sum(&mine[2 * HALO..]) != sum(&own_payload(seed, r.0 + 1)));
        }
    }
    (report, run_s, wrong)
}

/// The simulated statistics a golden pins, as `(key, value)`.
fn modelled(report: &RunReport) -> [(&'static str, u64); 4] {
    [
        ("end_time_ps", report.end_time.as_ps()),
        ("rma_ops", report.rma_ops),
        ("notifications", report.notifications),
        ("net_bytes", report.net_bytes),
    ]
}

impl Workload for SimOverlap {
    fn name(&self) -> &'static str {
        "sim_overlap"
    }

    fn op_alias(&self) -> &'static str {
        "sim_exchange_us"
    }

    fn work_alias(&self) -> &'static str {
        "sim_exchanges_per_s"
    }

    fn ops_per_rep(&self, size: Size) -> u64 {
        let (topo, exchanges) = shape(size);
        u64::from(topo.world_size()) * u64::from(exchanges)
    }

    fn rep(&self, env: &Env) -> Result<Rep, String> {
        let (topo, exchanges) = shape(env.size);
        let world = u64::from(topo.world_size());
        let mut driver = env.tracer.buf(100);
        let (report, run_s, wrong_halos) =
            driver.time("sim_run", 0, || simulate(env.seed, topo, exchanges));

        // A chain, not a ring: the two end ranks have one neighbour.
        let ops = u64::from(exchanges) * (2 * world - 2);
        let mut failed = wrong_halos;
        failed += u64::from(report.rma_ops != ops) + u64::from(report.notifications != ops);
        if env.size == Size::Full {
            for (key, got) in modelled(&report) {
                if find_number(GOLDEN, key) != Some(got as f64) {
                    eprintln!("sim_overlap: {key} = {got} differs from the golden");
                    failed += 1;
                }
            }
        }
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        Ok(Rep {
            timed_s: run_s,
            op_us: vec![run_s * 1e6 / f64::from(exchanges)],
            work: (world * u64::from(exchanges)) as f64,
            work_s: run_s,
            attempted: self.ops_per_rep(env.size),
            failed,
            layer: vec![
                ("core.ns_per_event", run_s * 1e9 / report.events as f64),
                ("core.events", report.events as f64),
                (
                    "core.scanned_per_notification",
                    ratio(report.notifications_scanned, report.notifications),
                ),
                (
                    "core.pool_hit_frac",
                    ratio(report.pool_hits, report.pool_acquires),
                ),
                ("core.peak_event_queue", report.peak_event_queue as f64),
                ("core.sim_end_time_us", report.end_time.as_micros_f64()),
            ],
        })
    }

    fn layer_extras(&self, _env: &Env) -> Result<Vec<(&'static str, f64)>, String> {
        let shared = fig6_latency_us(Topology {
            nodes: 1,
            ranks_per_node: 2,
        });
        let dist = fig6_latency_us(Topology {
            nodes: 2,
            ranks_per_node: 1,
        });
        for (what, got, paper) in [("shared", shared, 7.8), ("distributed", dist, 19.4)] {
            println!(
                "   fig. 6 empty-packet latency, {what}: {got:.2} us simulated, paper {paper} us ({:+.1}%)",
                (got - paper) / paper * 100.0
            );
        }
        Ok(vec![
            ("core.fig6_shared_latency_us", shared),
            ("core.fig6_dist_latency_us", dist),
        ])
    }
}

/// One side of the paper's Figure 6 ping-pong: the initiator puts first,
/// the responder waits first.
struct PingPong {
    peer: Rank,
    initiator: bool,
    iters: u32,
    done: u32,
    reply_due: bool,
}

impl RankKernel for PingPong {
    fn resume(&mut self, ctx: &mut RankCtx<'_>) -> Suspend {
        if self.done >= self.iters {
            return Suspend::Finished;
        }
        if self.initiator || self.reply_due {
            ctx.put_notify(WinId(0), self.peer, 0, 0, 1, 1);
            self.done += 1;
            if !self.initiator && self.done >= self.iters {
                return Suspend::Finished;
            }
        }
        self.reply_due = true;
        Suspend::WaitNotifications {
            win: Some(WinId(0)),
            source: Some(self.peer),
            tag: Some(1),
            count: 1,
        }
    }
}

/// Simulated one-way latency (half a round trip, launch cost subtracted
/// through a zero-iteration run) of a 1 B notified put between two ranks.
fn fig6_latency_us(topo: Topology) -> f64 {
    const ITERS: u32 = 100;
    let elapsed = |iters: u32| {
        let kernels: Vec<Box<dyn RankKernel>> = (0..2)
            .map(|r| {
                Box::new(PingPong {
                    peer: Rank(1 - r),
                    initiator: r == 0,
                    iters,
                    done: 0,
                    reply_due: false,
                }) as Box<dyn RankKernel>
            })
            .collect();
        let window = WindowSpec::uniform(&topo, 8);
        ClusterSim::new(SystemSpec::greina(), topo, vec![window], kernels)
            .run()
            .elapsed()
            .as_micros_f64()
    };
    (elapsed(ITERS) - elapsed(0)) / (2.0 * f64::from(ITERS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_statistics_repeat_exactly_and_payloads_land() {
        let (topo, exchanges) = shape(Size::Tiny);
        let (a, _, wrong_a) = simulate(3, topo, exchanges);
        let (b, _, wrong_b) = simulate(3, topo, exchanges);
        assert_eq!(modelled(&a), modelled(&b));
        assert_eq!((wrong_a, wrong_b), (0, 0));
        let ops = u64::from(exchanges) * (2 * u64::from(topo.world_size()) - 2);
        assert_eq!((a.rma_ops, a.notifications), (ops, ops));
    }

    #[test]
    fn fig6_latencies_are_in_the_papers_range() {
        let shared = fig6_latency_us(Topology {
            nodes: 1,
            ranks_per_node: 2,
        });
        let dist = fig6_latency_us(Topology {
            nodes: 2,
            ranks_per_node: 1,
        });
        assert!((6.0..10.0).contains(&shared), "shared {shared}");
        assert!((15.0..24.0).contains(&dist), "distributed {dist}");
    }
}
