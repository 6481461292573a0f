//! Overlap of computation and communication (paper Figures 7 and 8).
//!
//! Every rank alternates a compute phase with a ring halo exchange. Runtime
//! switches disable either phase, giving the paper's three series:
//! *compute & exchange*, *compute only*, and *halo exchange only*. Perfect
//! overlap means the full run costs `max(compute, exchange)`; no overlap
//! means the sum.
//!
//! Two workloads probe the two resource classes:
//! * **Newton–Raphson square roots** — compute-bound: iterations charge SM
//!   FLOPs, which *compete* with the device-side notification matching, so
//!   overlap is good but not perfect (paper: "we explain the slightly lower
//!   overlap ... by the fact that the notification matching itself is
//!   relatively compute heavy");
//! * **memory-to-memory copy** — bandwidth-bound: iterations charge memory
//!   bytes, orthogonal to matching, so overlap is perfect.

use dcuda_core::types::Topology;
use dcuda_core::{ClusterSim, Rank, RankCtx, RankKernel, Suspend, SystemSpec, WinId, WindowSpec};
use dcuda_device::BlockCharge;

/// Which compute phase runs between exchanges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Newton–Raphson square root: 128 double-precision divisions per
    /// iteration per rank (one per thread).
    Newton,
    /// Memory-to-memory copy: 1 kB moved per iteration per rank.
    Copy,
}

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct OverlapConfig {
    /// Cluster nodes (the paper uses 8).
    pub nodes: u32,
    /// Ranks per node (the paper uses 208).
    pub ranks_per_node: u32,
    /// Halo exchanges performed.
    pub exchanges: u32,
    /// Compute iterations per exchange (the x-axis).
    pub work_iters: u32,
    /// Workload kind.
    pub workload: Workload,
    /// Runtime switch: execute the compute phases.
    pub enable_compute: bool,
    /// Runtime switch: execute the halo exchanges.
    pub enable_exchange: bool,
    /// Halo packet size (the paper moves 1 kB packets).
    pub halo_bytes: usize,
}

impl OverlapConfig {
    /// The paper's setup: 8 nodes, full residency, 1 kB halos.
    pub fn paper(workload: Workload, work_iters: u32, exchanges: u32) -> Self {
        OverlapConfig {
            nodes: 8,
            ranks_per_node: 208,
            exchanges,
            work_iters,
            workload,
            enable_compute: true,
            enable_exchange: true,
            halo_bytes: 1024,
        }
    }
}

/// Per-iteration charge of a workload (for one rank).
fn work_charge(workload: Workload, halo_bytes: usize) -> BlockCharge {
    match workload {
        // 128 threads x 1 division; a Kepler DP division costs ~16 FLOP
        // equivalents of pipeline time.
        Workload::Newton => BlockCharge::flops(128.0 * 16.0),
        // Copy reads and writes 1 kB: 2 kB of memory traffic.
        Workload::Copy => BlockCharge::mem(2.0 * halo_bytes as f64),
    }
}

struct OverlapKernel {
    cfg: OverlapConfig,
    left: Option<Rank>,
    right: Option<Rank>,
    exchange: u32,
}

impl RankKernel for OverlapKernel {
    fn resume(&mut self, ctx: &mut RankCtx<'_>) -> Suspend {
        if self.exchange >= self.cfg.exchanges {
            return Suspend::Finished;
        }
        if !self.cfg.enable_exchange {
            // Compute-only run: no suspension points; accumulate all work.
            if self.cfg.enable_compute {
                let c = work_charge(self.cfg.workload, self.cfg.halo_bytes);
                let total = self.cfg.exchanges as f64 * self.cfg.work_iters as f64;
                ctx.charge(BlockCharge {
                    flops: c.flops * total,
                    mem_bytes: c.mem_bytes * total,
                });
            }
            self.exchange = self.cfg.exchanges;
            return Suspend::Finished;
        }
        self.exchange += 1;
        if self.cfg.enable_compute {
            let c = work_charge(self.cfg.workload, self.cfg.halo_bytes);
            ctx.charge(BlockCharge {
                flops: c.flops * self.cfg.work_iters as f64,
                mem_bytes: c.mem_bytes * self.cfg.work_iters as f64,
            });
        }
        // Ring halo exchange: window layout [own | from-left | from-right].
        let b = self.cfg.halo_bytes;
        let mut expected = 0;
        if let Some(l) = self.left {
            // Land in the left neighbour's "from-right" slot.
            ctx.put_notify(WinId(0), l, 2 * b, 0, b, 1);
            expected += 1;
        }
        if let Some(r) = self.right {
            ctx.put_notify(WinId(0), r, b, 0, b, 1);
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

/// Run one configuration; returns execution time in milliseconds (setup
/// subtracted per the paper's methodology).
pub fn run(spec: &SystemSpec, cfg: &OverlapConfig) -> f64 {
    let topo = Topology {
        nodes: cfg.nodes,
        ranks_per_node: cfg.ranks_per_node,
    };
    let win = WindowSpec::uniform(&topo, 3 * cfg.halo_bytes);
    let elapsed = |exchanges: u32| -> f64 {
        let kernels: Vec<Box<dyn RankKernel>> = topo
            .ranks()
            .map(|r| {
                let mut c = cfg.clone();
                c.exchanges = exchanges;
                Box::new(OverlapKernel {
                    left: (r.0 > 0).then(|| Rank(r.0 - 1)),
                    right: (r.0 + 1 < topo.world_size()).then(|| Rank(r.0 + 1)),
                    cfg: c,
                    exchange: 0,
                }) as Box<dyn RankKernel>
            })
            .collect();
        let mut sim = ClusterSim::new(spec.clone(), topo, vec![win.clone()], kernels);
        sim.run().elapsed().as_millis_f64()
    };
    let setup = elapsed(0);
    elapsed(cfg.exchanges) - setup
}

/// Run one configuration with cluster-wide tracing enabled; returns the full
/// [`dcuda_core::RunReport`] (whose `trace` field holds the aggregates) and
/// the raw event [`dcuda_core::Tracer`] for export. No setup subtraction —
/// the trace covers the whole run.
pub fn run_traced(
    spec: &SystemSpec,
    cfg: &OverlapConfig,
) -> (dcuda_core::RunReport, dcuda_core::Tracer) {
    let topo = Topology {
        nodes: cfg.nodes,
        ranks_per_node: cfg.ranks_per_node,
    };
    let win = WindowSpec::uniform(&topo, 3 * cfg.halo_bytes);
    let kernels: Vec<Box<dyn RankKernel>> = topo
        .ranks()
        .map(|r| {
            Box::new(OverlapKernel {
                left: (r.0 > 0).then(|| Rank(r.0 - 1)),
                right: (r.0 + 1 < topo.world_size()).then(|| Rank(r.0 + 1)),
                cfg: cfg.clone(),
                exchange: 0,
            }) as Box<dyn RankKernel>
        })
        .collect();
    let mut sim = ClusterSim::new(spec.clone(), topo, vec![win], kernels);
    sim.enable_tracing();
    let report = sim.run();
    (report, sim.take_trace())
}

/// One x-axis point of Figure 7/8.
#[derive(Debug, Clone, Copy)]
pub struct OverlapPoint {
    /// Compute iterations per exchange.
    pub work_iters: u32,
    /// Compute & exchange (ms).
    pub full_ms: f64,
    /// Compute only (ms).
    pub compute_ms: f64,
    /// Halo exchange only (ms).
    pub exchange_ms: f64,
}

impl OverlapPoint {
    /// Overlap efficiency: 1 = perfect (`full == max`), 0 = none
    /// (`full == sum`). Undefined (NaN) when a phase is empty.
    pub fn overlap_efficiency(&self) -> f64 {
        let max = self.full_ms.min(self.compute_ms.max(self.exchange_ms));
        let sum = self.compute_ms + self.exchange_ms;
        (sum - self.full_ms) / (sum - max)
    }
}

/// Sweep compute intensity for one workload (the full figure).
pub fn sweep(
    spec: &SystemSpec,
    workload: Workload,
    exchanges: u32,
    xs: &[u32],
    nodes: u32,
    ranks_per_node: u32,
) -> Vec<OverlapPoint> {
    let base = |work_iters| {
        let mut c = OverlapConfig::paper(workload, work_iters, exchanges);
        c.nodes = nodes;
        c.ranks_per_node = ranks_per_node;
        c
    };
    let mut exchange_only = base(0);
    exchange_only.enable_compute = false;
    let exchange_ms = run(spec, &exchange_only);
    xs.iter()
        .map(|&x| {
            let full = run(spec, &base(x));
            let mut compute_only = base(x);
            compute_only.enable_exchange = false;
            let compute_ms = run(spec, &compute_only);
            OverlapPoint {
                work_iters: x,
                full_ms: full,
                compute_ms,
                exchange_ms,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SystemSpec {
        SystemSpec::greina()
    }

    /// Two nodes at half residency (8 blocks per SM): enough spare
    /// parallelism for latency hiding, small enough for unit tests.
    const NODES: u32 = 2;
    const RPN: u32 = 104;

    #[test]
    fn copy_workload_overlaps_perfectly() {
        // Memory-bound work: full time ~ max(compute, exchange) — only the
        // per-iteration pipeline latency remains unhidden.
        let pts = sweep(&spec(), Workload::Copy, 30, &[256], NODES, RPN);
        let p = &pts[0];
        let max = p.compute_ms.max(p.exchange_ms);
        assert!(
            p.full_ms < max * 1.15,
            "copy overlap imperfect: full={} compute={} exchange={}",
            p.full_ms,
            p.compute_ms,
            p.exchange_ms
        );
    }

    #[test]
    fn newton_workload_overlaps_well_but_not_perfectly() {
        let pts = sweep(&spec(), Workload::Newton, 30, &[512], NODES, RPN);
        let p = &pts[0];
        let max = p.compute_ms.max(p.exchange_ms);
        let sum = p.compute_ms + p.exchange_ms;
        assert!(
            p.full_ms < 0.8 * sum,
            "no overlap at all: full={} sum={}",
            p.full_ms,
            sum
        );
        assert!(
            p.full_ms > max,
            "overlap cannot be super-perfect: full={} max={}",
            p.full_ms,
            max
        );
    }

    #[test]
    fn low_occupancy_hurts_overlap() {
        // Little's law in reverse: with only 2 blocks per SM there is not
        // enough spare parallelism to hide the exchange latency; at 8 blocks
        // per SM there is. (Paper §II: over-subscription is the mechanism.)
        let low = sweep(&spec(), Workload::Newton, 30, &[256], 2, 26);
        let high = sweep(&spec(), Workload::Newton, 30, &[256], 2, 104);
        assert!(
            high[0].overlap_efficiency() > low[0].overlap_efficiency(),
            "high-occupancy eff {} should beat low-occupancy eff {}",
            high[0].overlap_efficiency(),
            low[0].overlap_efficiency()
        );
    }

    #[test]
    fn compute_only_scales_linearly() {
        let pts = sweep(&spec(), Workload::Newton, 20, &[64, 128], 2, 26);
        let ratio = pts[1].compute_ms / pts[0].compute_ms;
        assert!((ratio - 2.0).abs() < 0.2, "compute ratio {ratio}");
    }

    #[test]
    fn exchange_only_is_flat_across_x() {
        let pts = sweep(&spec(), Workload::Copy, 20, &[1, 64], 2, 26);
        assert_eq!(pts[0].exchange_ms, pts[1].exchange_ms);
        assert!(pts[0].exchange_ms > 0.0);
    }

    #[test]
    fn zero_work_full_equals_exchange() {
        let pts = sweep(&spec(), Workload::Newton, 20, &[0], 2, 26);
        let p = &pts[0];
        assert!(p.compute_ms.abs() < 1e-6);
        assert!(
            (p.full_ms - p.exchange_ms).abs() / p.exchange_ms < 0.25,
            "full={} exchange={}",
            p.full_ms,
            p.exchange_ms
        );
    }
}
