//! Cross-crate integration tests through the `dcuda` facade: the simulated
//! and threaded backends computing the same problems, calibration against
//! the paper's measured numbers, and figure-shape checks.

use dcuda::apps::micro::overlap::{self, OverlapConfig, Workload};
use dcuda::apps::micro::pingpong::{self, Placement};
use dcuda::apps::particles::{self, ParticleConfig};
use dcuda::apps::spmv::{self, SpmvConfig};
use dcuda::apps::stencil::{self, StencilConfig};
use dcuda::core::types::Topology;
use dcuda::core::{ClusterSim, RankCtx, RankKernel, Suspend, SystemSpec, WindowSpec};
use dcuda::rt::{run_cluster, Rank, RtConfig, RtQuery, Tag, WindowId};

/// The paper's §IV-B calibration: empty-packet notified-put latencies.
#[test]
fn calibration_matches_paper_measurements() {
    let spec = SystemSpec::greina();
    let shared = pingpong::run(&spec, Placement::Shared, 1, 300);
    let distributed = pingpong::run(&spec, Placement::Distributed, 1, 300);
    assert!(
        (shared.latency_us - 7.8).abs() / 7.8 < 0.1,
        "shared {} vs paper 7.8 us",
        shared.latency_us
    );
    assert!(
        (distributed.latency_us - 19.4).abs() / 19.4 < 0.1,
        "distributed {} vs paper 19.4 us",
        distributed.latency_us
    );
    // Little's law (paper §II): the network operating point implies ~112 kB
    // in flight to saturate.
    let bw = spec.network.device_bandwidth;
    let inflight_kb = bw * distributed.latency_us * 1e-6 / 1024.0;
    assert!(inflight_kb > 80.0 && inflight_kb < 150.0);
}

/// All three mini-apps agree with their serial references under both
/// programming models (tiny configurations).
#[test]
fn all_miniapps_cross_validate() {
    let spec = SystemSpec::greina();

    let cfg = StencilConfig::tiny(2);
    let (d, _) = stencil::run_dcuda(&spec, &cfg);
    let (m, _) = stencil::run_mpicuda(&spec, &cfg);
    let r = stencil::numerics::serial_reference(&cfg);
    assert!(d.iter().zip(&r).all(|(a, b)| (a - b).abs() < 1e-12));
    assert!(m.iter().zip(&r).all(|(a, b)| (a - b).abs() < 1e-12));

    let cfg = ParticleConfig::tiny(2);
    let (d, _) = particles::run_dcuda(&spec, &cfg);
    let (m, _) = particles::run_mpicuda(&spec, &cfg);
    let r = particles::model::serial_reference(&cfg);
    assert_eq!(particles::model::digest(&d), particles::model::digest(&r));
    assert_eq!(particles::model::digest(&m), particles::model::digest(&r));

    let cfg = SpmvConfig::tiny(2);
    let (d, _) = spmv::run_dcuda(&spec, &cfg);
    let (m, _) = spmv::run_mpicuda(&spec, &cfg);
    let r = spmv::csr::serial_reference(&cfg);
    assert!(d
        .iter()
        .zip(&r)
        .all(|(a, b)| (a - b).abs() <= 1e-9 * b.abs().max(1.0)));
    assert!(m
        .iter()
        .zip(&r)
        .all(|(a, b)| (a - b).abs() <= 1e-9 * b.abs().max(1.0)));
}

/// The same ring-exchange program gives the same data on the simulated and
/// the threaded backend, written with the one set of ids both share.
#[test]
fn simulated_and_threaded_backends_agree() {
    const VAL_BASE: f64 = 10.0;
    const W: WindowId = WindowId(0);
    let world = 4u32;

    // --- simulated backend ---
    struct K {
        phase: u32,
        right: Rank,
    }
    impl RankKernel for K {
        fn resume(&mut self, ctx: &mut RankCtx<'_>) -> Suspend {
            self.phase += 1;
            match self.phase {
                1 => {
                    let me = ctx.rank().0;
                    ctx.win_f64_mut(W)[0] = VAL_BASE + me as f64;
                    // Send my value to the right neighbour's slot 1.
                    ctx.put_notify(W, self.right, 8, 0, 8, 0);
                    Suspend::WaitNotifications {
                        win: None,
                        source: None,
                        tag: Some(0),
                        count: 1,
                    }
                }
                _ => Suspend::Finished,
            }
        }
    }
    let topo = Topology {
        nodes: 2,
        ranks_per_node: 2,
    };
    let win = WindowSpec::uniform(&topo, 16);
    let kernels: Vec<Box<dyn RankKernel>> = (0..world)
        .map(|r| {
            Box::new(K {
                phase: 0,
                right: Rank((r + 1) % world),
            }) as Box<dyn RankKernel>
        })
        .collect();
    let mut sim = ClusterSim::new(SystemSpec::greina(), topo, vec![win], kernels);
    sim.run();
    let mut sim_values = Vec::new();
    for r in 0..world {
        let node = r / 2;
        let local = (r % 2) as usize;
        let arena = sim.arena(node, W);
        sim_values.push(dcuda::core::window::f64_slice(&arena[local * 16 + 8..local * 16 + 16])[0]);
    }

    // --- threaded backend ---
    let results: Vec<_> = (0..world)
        .map(|_| std::sync::Arc::new(std::sync::Mutex::new(0.0f64)))
        .collect();
    let mut programs: Vec<dcuda::rt::cluster::RankProgram> = Vec::new();
    for r in 0..world {
        let out = results[r as usize].clone();
        programs.push(Box::new(move |ctx| {
            let v = VAL_BASE + r as f64;
            ctx.win_mut(W)[0..8].copy_from_slice(&v.to_le_bytes());
            ctx.put_notify(W, Rank((r + 1) % world), 8, 0, 8, Tag(0));
            ctx.wait_notifications(RtQuery::exact(W, Rank::ANY, Tag(0)), 1);
            let got = f64::from_le_bytes(ctx.win(W)[8..16].try_into().unwrap());
            *out.lock().unwrap() = got;
        }));
    }
    run_cluster(
        &RtConfig {
            devices: 2,
            ranks_per_device: 2,
            windows: vec![16],
            ring_capacity: 8,
            ..RtConfig::default()
        },
        programs,
    );
    let rt_values: Vec<f64> = results.iter().map(|m| *m.lock().unwrap()).collect();

    // Both backends: rank r received from its left neighbour.
    for r in 0..world as usize {
        let expect = VAL_BASE + ((r as u32 + world - 1) % world) as f64;
        assert_eq!(sim_values[r], expect, "sim backend rank {r}");
        assert_eq!(rt_values[r], expect, "rt backend rank {r}");
    }
}

/// The headline claim end-to-end: the stencil's dCUDA variant weak-scales
/// nearly flat while the MPI-CUDA variant pays its halo time.
///
/// The quick tier runs a reduced world so `cargo test` stays fast; set
/// `DCUDA_FULL_TESTS=1` for the paper-scale configuration (CI runs it).
#[test]
fn headline_overlap_claim_holds() {
    let full = dcuda::des::check::full_tier("paper-scale 104-rank stencil");
    let (rpn, iters) = if full { (104, 10) } else { (52, 3) };
    let spec = SystemSpec::greina();
    let mk = |nodes| {
        let mut cfg = StencilConfig::paper(nodes);
        cfg.ranks_per_node = rpn;
        cfg.j_per_rank = 4;
        cfg.iters = iters;
        cfg
    };
    let (_, d1) = stencil::run_dcuda(&spec, &mk(1));
    let (_, d4) = stencil::run_dcuda(&spec, &mk(4));
    let (_, m1) = stencil::run_mpicuda(&spec, &mk(1));
    let (_, m4) = stencil::run_mpicuda(&spec, &mk(4));
    let d_scaling = (d4.time_ms - d1.time_ms) / d1.time_ms;
    let m_scaling = (m4.time_ms - m1.time_ms) / m1.time_ms;
    assert!(
        d_scaling < 0.15,
        "dCUDA should be nearly flat, grew {:.0}%",
        d_scaling * 100.0
    );
    assert!(
        m_scaling > d_scaling,
        "MPI-CUDA ({:.2}) must scale worse than dCUDA ({:.2})",
        m_scaling,
        d_scaling
    );
    // The MPI-CUDA scaling cost is roughly its halo time (paper §IV-C).
    let gap = m4.time_ms - m1.time_ms;
    assert!(
        (gap - m4.halo_ms).abs() < 0.5 * m4.halo_ms.max(0.2),
        "scaling cost {:.2} ms vs halo {:.2} ms",
        gap,
        m4.halo_ms
    );
}

/// Tracing must be pure observation: with the tracer disabled (the default),
/// every benchmark series reproduces the pre-trace-subsystem numbers
/// bit-for-bit. Golden values captured at PR 1.
#[test]
fn trace_disabled_series_are_byte_identical_to_pr1() {
    let spec = SystemSpec::greina();

    let mut newton = OverlapConfig::paper(Workload::Newton, 64, 10);
    newton.nodes = 2;
    newton.ranks_per_node = 26;
    assert_eq!(
        overlap::run(&spec, &newton).to_bits(),
        0.227598308f64.to_bits()
    );

    let mut copy = OverlapConfig::paper(Workload::Copy, 64, 10);
    copy.nodes = 2;
    copy.ranks_per_node = 26;
    assert_eq!(
        overlap::run(&spec, &copy).to_bits(),
        0.8135510450000001f64.to_bits()
    );

    let pp = pingpong::run(&spec, Placement::Distributed, 1024, 20);
    assert_eq!(pp.latency_us.to_bits(), 18.590332999999998f64.to_bits());
    assert_eq!(pp.bandwidth_mbs.to_bits(), 55.08239147733395f64.to_bits());

    let (_, st) = stencil::run_dcuda(&spec, &StencilConfig::tiny(2));
    assert_eq!(st.time_ms.to_bits(), 0.22593622200000002f64.to_bits());
}

/// A traced simulation yields the same modeled time as an untraced one and
/// produces a populated trace with the overlap-efficiency aggregate.
#[test]
fn traced_sim_is_observation_only() {
    use dcuda::core::{ClusterSim as Sim, WindowSpec as Win};

    struct Ring {
        phase: u32,
        right: Rank,
    }
    impl RankKernel for Ring {
        fn resume(&mut self, ctx: &mut RankCtx<'_>) -> Suspend {
            self.phase += 1;
            match self.phase {
                1 => {
                    ctx.charge(dcuda::device::BlockCharge::flops(4096.0));
                    ctx.put_notify(WindowId(0), self.right, 0, 0, 8, 1);
                    Suspend::WaitNotifications {
                        win: None,
                        source: None,
                        tag: Some(1),
                        count: 1,
                    }
                }
                _ => Suspend::Finished,
            }
        }
    }
    let topo = Topology {
        nodes: 2,
        ranks_per_node: 4,
    };
    let world = topo.nodes * topo.ranks_per_node;
    let mk = || -> Vec<Box<dyn RankKernel>> {
        (0..world)
            .map(|r| {
                Box::new(Ring {
                    phase: 0,
                    right: Rank((r + 1) % world),
                }) as Box<dyn RankKernel>
            })
            .collect()
    };
    let win = WindowSpec::uniform(&topo, 64);

    let mut plain = Sim::new(SystemSpec::greina(), topo, vec![win.clone()], mk());
    let plain_report = plain.run();
    assert!(plain_report.trace.is_none(), "tracing is opt-in");

    let mut traced = Sim::new(
        SystemSpec::greina(),
        topo,
        vec![Win::uniform(&topo, 64)],
        mk(),
    );
    traced.enable_tracing();
    let traced_report = traced.run();

    assert_eq!(
        plain_report.end_time, traced_report.end_time,
        "tracing changed the modeled schedule"
    );
    assert_eq!(plain_report.events, traced_report.events);

    let summary = traced_report.trace.expect("trace summary present");
    let eff = summary.overlap_efficiency.expect("ranks waited");
    assert!((0.0..=1.0).contains(&eff), "efficiency {eff} out of range");
    assert!(
        summary.wait_hist.summary().count() > 0,
        "wait spans recorded"
    );

    let tracer = traced.take_trace();
    assert!(!tracer.is_empty(), "trace has events");
    assert!(
        tracer.spans().iter().any(|s| s.name == "wait"),
        "per-rank wait spans present"
    );
}
