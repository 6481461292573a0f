//! Figure regeneration for the dCUDA paper's evaluation (§IV).
//!
//! Each `figN` function reproduces the corresponding figure's data series
//! on the deterministic simulator; the `figures` binary prints them (and
//! emits `BENCH_figures.json` with `--json`). The paper's evaluation
//! contains no result tables — Figures 6–11 are the complete set.
//! Wall-clock measurement of the threaded runtime, transports, collectives
//! and scheduler lives in the repo benchmark (`benchmark/`) alone.
//!
//! Every row is an independent, deterministic simulation, so the fig
//! functions fan rows out over [`par_map`] — the simulated series are
//! byte-identical to a sequential run (check with `figures --serial`),
//! only the wall-clock drops.

#![warn(missing_docs)]

pub mod json;
pub mod par;

pub use par::{is_serial, par_map, set_serial};

use dcuda_apps::micro::overlap::{self, OverlapPoint, Workload};
use dcuda_apps::micro::pingpong::{self, PingPongResult, Placement};
use dcuda_apps::particles::{self, ParticleConfig};
use dcuda_apps::spmv::{self, SpmvConfig};
use dcuda_apps::stencil::{self, StencilConfig};
use dcuda_core::SystemSpec;

/// How much of the paper's measurement volume to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Reduced iteration counts (CI-friendly, same shapes).
    Quick,
    /// The paper's counts (100 iterations for mini-apps, thousands for the
    /// microbenchmarks).
    Full,
}

impl Effort {
    fn pingpong_iters(self) -> u32 {
        match self {
            Effort::Quick => 50,
            Effort::Full => 1000,
        }
    }

    fn exchanges(self) -> u32 {
        match self {
            Effort::Quick => 30,
            Effort::Full => 100,
        }
    }

    fn app_iters(self) -> u32 {
        match self {
            Effort::Quick => 20,
            Effort::Full => 100,
        }
    }
}

/// Figure 6: put bandwidth of shared and distributed memory ranks.
pub struct Fig6Row {
    /// Rank placement.
    pub placement: Placement,
    /// Measurement per packet size.
    pub result: PingPongResult,
}

/// Regenerate Figure 6.
pub fn fig6(spec: &SystemSpec, effort: Effort) -> Vec<Fig6Row> {
    let mut jobs = Vec::new();
    for placement in [Placement::Shared, Placement::Distributed] {
        for bytes in pingpong::figure6_sizes() {
            // Big packets need few iterations for a stable figure.
            let iters = if bytes > 64 * 1024 {
                5
            } else {
                effort.pingpong_iters()
            };
            jobs.push((placement, bytes, iters));
        }
    }
    par_map(jobs, |(placement, bytes, iters)| Fig6Row {
        placement,
        result: pingpong::run(spec, placement, bytes, iters),
    })
}

/// One independent simulation of the overlap sweep: the shared
/// exchange-only run, or a per-x full / compute-only run.
enum OverlapJob {
    Exchange,
    Full(u32),
    Compute(u32),
}

/// Figures 7 (Newton) / 8 (copy): overlap sweeps at the paper's scale
/// (8 nodes, 208 ranks per device).
pub fn fig7_8(spec: &SystemSpec, workload: Workload, effort: Effort) -> Vec<OverlapPoint> {
    let xs: &[u32] = match effort {
        Effort::Quick => &[0, 16, 64, 128, 256, 512],
        Effort::Full => &[0, 8, 16, 32, 64, 96, 128, 192, 256, 384, 512, 768, 1024],
    };
    let (nodes, rpn) = match effort {
        Effort::Quick => (4, 104),
        Effort::Full => (8, 208),
    };
    let base = |work_iters| {
        let mut c = overlap::OverlapConfig::paper(workload, work_iters, effort.exchanges());
        c.nodes = nodes;
        c.ranks_per_node = rpn;
        c
    };
    // The three series of the figure decompose into independent sims:
    // one exchange-only run plus (full, compute-only) per x value.
    let mut jobs = vec![OverlapJob::Exchange];
    for &x in xs {
        jobs.push(OverlapJob::Full(x));
        jobs.push(OverlapJob::Compute(x));
    }
    let times = par_map(jobs, |job| match job {
        OverlapJob::Exchange => {
            let mut c = base(0);
            c.enable_compute = false;
            overlap::run(spec, &c)
        }
        OverlapJob::Full(x) => overlap::run(spec, &base(x)),
        OverlapJob::Compute(x) => {
            let mut c = base(x);
            c.enable_exchange = false;
            overlap::run(spec, &c)
        }
    });
    let exchange_ms = times[0];
    xs.iter()
        .enumerate()
        .map(|(i, &x)| OverlapPoint {
            work_iters: x,
            full_ms: times[1 + 2 * i],
            compute_ms: times[2 + 2 * i],
            exchange_ms,
        })
        .collect()
}

/// One weak-scaling point of Figures 9–11.
pub struct ScalingRow {
    /// Node count.
    pub nodes: u32,
    /// dCUDA execution time (ms).
    pub dcuda_ms: f64,
    /// MPI-CUDA execution time (ms).
    pub mpicuda_ms: f64,
    /// Communication/halo-only time measured by the MPI-CUDA variant (ms).
    pub halo_ms: f64,
}

/// Assemble scaling rows from per-(point, variant) jobs: each point
/// contributes a dCUDA job and an MPI-CUDA job, run independently.
fn scaling_rows(
    points: &[u32],
    nodes_of: impl Fn(u32) -> u32,
    run: impl Fn(u32, bool) -> (f64, f64) + Sync,
) -> Vec<ScalingRow> {
    let mut jobs = Vec::new();
    for &p in points {
        jobs.push((p, false));
        jobs.push((p, true));
    }
    let times = par_map(jobs, |(p, mpicuda)| run(p, mpicuda));
    points
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let (dcuda_ms, _) = times[2 * i];
            let (mpicuda_ms, halo_ms) = times[2 * i + 1];
            ScalingRow {
                nodes: nodes_of(p),
                dcuda_ms,
                mpicuda_ms,
                halo_ms,
            }
        })
        .collect()
}

/// Regenerate Figure 9 (particle simulation weak scaling).
pub fn fig9(spec: &SystemSpec, effort: Effort) -> Vec<ScalingRow> {
    scaling_rows(
        &[1u32, 2, 3, 4, 6, 8],
        |nodes| nodes,
        |nodes, mpicuda| {
            let mut cfg = ParticleConfig::paper(nodes);
            cfg.iters = effort.app_iters();
            if mpicuda {
                let (_, m) = particles::run_mpicuda(spec, &cfg);
                (m.time_ms, m.halo_ms)
            } else {
                let (_, d) = particles::run_dcuda(spec, &cfg);
                (d.time_ms, 0.0)
            }
        },
    )
}

/// Regenerate Figure 10 (stencil weak scaling).
pub fn fig10(spec: &SystemSpec, effort: Effort) -> Vec<ScalingRow> {
    scaling_rows(
        &[1u32, 2, 4, 8],
        |nodes| nodes,
        |nodes, mpicuda| {
            let mut cfg = StencilConfig::paper(nodes);
            cfg.iters = effort.app_iters();
            if mpicuda {
                let (_, m) = stencil::run_mpicuda(spec, &cfg);
                (m.time_ms, m.halo_ms)
            } else {
                let (_, d) = stencil::run_dcuda(spec, &cfg);
                (d.time_ms, 0.0)
            }
        },
    )
}

/// Regenerate Figure 11 (sparse matrix-vector weak scaling; 1/4/9 nodes per
/// the square decomposition).
pub fn fig11(spec: &SystemSpec, effort: Effort) -> Vec<ScalingRow> {
    scaling_rows(
        &[1u32, 2, 3],
        |grid| grid * grid,
        |grid, mpicuda| {
            let mut cfg = SpmvConfig::paper(grid);
            cfg.iters = effort.app_iters();
            if mpicuda {
                let (_, m) = spmv::run_mpicuda(spec, &cfg);
                (m.time_ms, m.comm_ms)
            } else {
                let (_, d) = spmv::run_dcuda(spec, &cfg);
                (d.time_ms, 0.0)
            }
        },
    )
}

/// Ablation: overlap efficiency as a function of resident blocks per SM
/// (Little's law at cluster scale — the design choice dCUDA rests on).
pub fn ablation_occupancy(spec: &SystemSpec) -> Vec<(u32, f64)> {
    par_map(vec![13u32, 26, 52, 104, 208], |rpn| {
        let pts = overlap::sweep(spec, Workload::Newton, 30, &[256], 2, rpn);
        (rpn / 13, pts[0].overlap_efficiency())
    })
}

/// Ablation: distributed put bandwidth vs the host-staging threshold
/// (the OpenMPI policy of paper §IV-C).
pub fn ablation_staging(spec: &SystemSpec) -> Vec<(u64, f64)> {
    par_map(
        vec![4 * 1024u64, 20 * 1024, 256 * 1024, u64::MAX],
        |threshold| {
            let mut s = spec.clone();
            s.network.stage_threshold = threshold;
            let r = pingpong::run(&s, Placement::Distributed, 1 << 20, 5);
            (threshold, r.bandwidth_mbs)
        },
    )
}

/// Ablation: SpMV with and without the §V broadcast-put extension for the
/// on-device input-vector fan-out (one `put_notify_all` instead of a
/// log2(208)-deep notification tree).
pub fn ablation_bcast_put(spec: &SystemSpec) -> Vec<(u32, f64, f64)> {
    let rows = par_map(
        vec![(1u32, false), (1, true), (2, false), (2, true)],
        |(grid, bcast)| {
            let mut cfg = SpmvConfig::paper(grid);
            cfg.iters = 10;
            cfg.bcast_put = bcast;
            let (_, r) = spmv::run_dcuda(spec, &cfg);
            r.time_ms
        },
    );
    vec![(1, rows[0], rows[1]), (4, rows[2], rows[3])]
}

/// Ablation: vertical levels vs relative stencil performance (paper §IV-C:
/// "introducing additional vertical layers improves the relative
/// performance of the MPI-CUDA variant as it benefits from the higher
/// bandwidth of host staged transfers" — its one k·16 kB message crosses
/// the 20 kB staging threshold while dCUDA's k separate 1 kB messages
/// never do). Returns (ksize, dcuda_ms, mpicuda_ms).
pub fn ablation_vertical_levels(spec: &SystemSpec) -> Vec<(usize, f64, f64)> {
    par_map(vec![8usize, 16, 32, 64], |ksize| {
        let mut cfg = StencilConfig::paper(4);
        cfg.dims.ksize = ksize;
        cfg.iters = 10;
        let (_, d) = stencil::run_dcuda(spec, &cfg);
        let (_, m) = stencil::run_mpicuda(spec, &cfg);
        (ksize, d.time_ms, m.time_ms)
    })
}

/// Ablation: Newton-workload overlap vs the device-side notification
/// matching cost (the paper blames imperfect compute-bound overlap on the
/// matcher being "relatively compute heavy").
pub fn ablation_match_cost(spec: &SystemSpec) -> Vec<(f64, f64)> {
    par_map(vec![0.0f64, 0.3, 0.6, 2.4], |us_scale| {
        let mut s = spec.clone();
        s.device.notification_match_cost = dcuda_des::SimDuration::from_secs_f64(us_scale * 1e-6);
        let pts = overlap::sweep(&s, Workload::Newton, 30, &[256], 2, 104);
        (us_scale, pts[0].full_ms)
    })
}

/// Run the representative traced simulation behind `figures --trace`: a
/// reduced Figure 7/8-style overlap workload with cluster-wide tracing
/// enabled. Returns the Chrome-trace JSON document and the trace aggregates
/// (wait histograms, occupancy, overlap efficiency).
pub fn trace_run(spec: &SystemSpec, workload: Workload) -> (String, dcuda_core::TraceSummary) {
    let mut cfg = overlap::OverlapConfig::paper(workload, 64, 10);
    cfg.nodes = 2;
    cfg.ranks_per_node = 26;
    let (report, tracer) = overlap::run_traced(spec, &cfg);
    let json = dcuda_trace::chrome::to_chrome_json(&tracer);
    (json, report.trace.expect("tracing was enabled"))
}
