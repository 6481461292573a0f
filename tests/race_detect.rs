//! End-to-end checks of the notified-access race detector on the threaded
//! runtime, across transport planes.
//!
//! * **Property**: the put→notify→wait discipline (the pingpong workload)
//!   is race-free for arbitrary payloads/iterations/world shapes, on the
//!   in-process plane and on real tcp and shm loopback meshes (both halves
//!   hosted by this process so they can share one `RaceHandle`).
//! * **Determinism**: the deliberately buggy `racey` workload yields
//!   exactly one `RaceReport`, byte-identical across repeated runs and
//!   across the in-process and tcp planes, and strict mode turns it into
//!   an `RtError::Race`.

use dcuda::des::check::forall;
use dcuda::net::{NetConfig, SocketPlane, Transport};
use dcuda::rt::cluster::RankProgram;
use dcuda::rt::programs::{Params, Program};
use dcuda::rt::{thread_per_rank, ClusterPart, RaceMode, RtConfig, RtError, RtReport};

/// A table program and its data (seed 1, as `dcuda-launch` runs it).
type Spec = (Program, Params);

fn spec(program: Program, iters: u32, payload: usize) -> Spec {
    let p = Params {
        seed: 1,
        iters,
        payload,
    };
    (program, p)
}

fn config(devices: u32, rpd: u32, &(program, p): &Spec, mode: RaceMode) -> RtConfig {
    program
        .config(&p, devices, rpd)
        .race_detect(mode)
        .build()
        .expect("valid config")
}

/// Rank threads for `count` ranks of `spec`.
fn rank_programs((program, p): Spec, count: u32) -> Vec<RankProgram> {
    thread_per_rank(program.tasks(p, count))
        .into_iter()
        .map(|(program, _)| program)
        .collect()
}

fn run_inprocess(cfg: &RtConfig, spec: Spec) -> Result<RtReport, RtError> {
    dcuda::rt::try_run_cluster(cfg, rank_programs(spec, cfg.world()))
}

fn boxed(eps: Vec<dcuda::net::NetEndpoint>) -> Vec<Box<dyn Transport>> {
    eps.into_iter()
        .map(|ep| Box::new(ep) as Box<dyn Transport>)
        .collect()
}

/// One process-half's endpoints on the loopback mesh.
type Plane = Vec<Box<dyn Transport>>;
/// What one half of the split world returns.
type HalfResult = Result<RtReport, RtError>;

/// A two-proc loopback mesh (one device per proc) hosted by this process;
/// with `shm_dir` set the halves negotiate the shared-memory plane.
fn loopback_mesh(shm_dir: Option<std::path::PathBuf>) -> (Plane, Plane) {
    let [e0, e1] = SocketPlane::loopback_pair(NetConfig::default(), shm_dir).expect("mesh");
    (boxed(e0), boxed(e1))
}

/// Run both halves of a two-device world over the given planes. The config
/// is cloned into each half, so the `RaceHandle` inside it is shared and
/// every report carries the world-wide race snapshot.
fn run_mesh(cfg: &RtConfig, spec: Spec, planes: (Plane, Plane)) -> (HalfResult, HalfResult) {
    let world = cfg.world();
    let half = world / 2;
    let part = |first_device| ClusterPart {
        first_device,
        local_devices: 1,
    };
    let cfg1 = cfg.clone();
    let progs1 = rank_programs(spec, half);
    let (p0, p1) = planes;
    let t = std::thread::spawn(move || {
        dcuda::rt::try_run_cluster_part(&cfg1, part(1), progs1, p1, false).map(|(r, _)| r)
    });
    let r0 = dcuda::rt::try_run_cluster_part(cfg, part(0), rank_programs(spec, half), p0, false)
        .map(|(r, _)| r);
    let r1 = t.join().expect("mesh half thread");
    (r0, r1)
}

fn shm_dir() -> Option<std::path::PathBuf> {
    let dir = std::env::temp_dir().join(format!("dcuda-race-shm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("shm dir");
    Some(dir)
}

/// Property: put→notify→wait (pingpong) never races, for arbitrary
/// payload/iteration/world shapes, in strict mode (so a false positive
/// would fail the run, not just the assertion) on the in-process plane.
#[test]
fn put_notify_wait_is_race_free_property() {
    forall("pingpong_race_free", 6, |g| {
        let spec = spec(
            Program::PingPong,
            1 + g.u32_below(5),
            64 * (1 + g.u32_below(8)) as usize,
        );
        let rpd = 2 * (1 + g.u32_below(2));
        let cfg = config(2, rpd, &spec, RaceMode::Strict);
        let report = run_inprocess(&cfg, spec).expect("strict pingpong must pass");
        assert!(report.races.is_empty());
    });
}

/// The same discipline is race-free when the world is split across a real
/// tcp loopback mesh and (where supported) a shared-memory mesh.
#[test]
fn put_notify_wait_is_race_free_on_tcp_and_shm_planes() {
    let spec = spec(Program::PingPong, 4, 512);
    let cfg = config(2, 4, &spec, RaceMode::Strict);

    let (r0, r1) = run_mesh(&cfg, spec, loopback_mesh(None));
    let r0 = r0.expect("strict pingpong over tcp must pass");
    let r1 = r1.expect("strict pingpong over tcp must pass");
    assert!(r0.races.is_empty() && r1.races.is_empty());

    if dcuda::net::shm_supported() {
        let dir = shm_dir();
        let cfg = config(2, 4, &spec, RaceMode::Strict);
        let (r0, r1) = run_mesh(&cfg, spec, loopback_mesh(dir.clone()));
        let r0 = r0.expect("strict pingpong over shm must pass");
        let r1 = r1.expect("strict pingpong over shm must pass");
        assert!(r0.races.is_empty() && r1.races.is_empty());
        if let Some(d) = dir {
            std::fs::remove_dir_all(d).ok();
        }
    }
}

/// Seeded-mutation negative: the `racey` workload (one pair reads its
/// inbox before the notification wait) yields exactly one report, and the
/// report is deterministic — byte-identical across repeated in-process
/// runs and across the in-process/tcp plane boundary.
#[test]
fn racey_workload_yields_one_deterministic_report() {
    let spec = spec(Program::Racey, 2, 256);
    let observe = || {
        let cfg = config(2, 2, &spec, RaceMode::Observe);
        run_inprocess(&cfg, spec).expect("observe mode never fails the run")
    };
    let a = observe();
    assert_eq!(a.races.len(), 1, "expected exactly one race: {:?}", a.races);
    let golden = a.races[0].to_string();
    let b = observe();
    assert_eq!(b.races.len(), 1);
    assert_eq!(golden, b.races[0].to_string(), "report not deterministic");

    // Same single report when the same world runs over the tcp mesh.
    let cfg = config(2, 2, &spec, RaceMode::Observe);
    let (r0, r1) = run_mesh(&cfg, spec, loopback_mesh(None));
    let r0 = r0.expect("observe mode never fails the run");
    let r1 = r1.expect("observe mode never fails the run");
    assert_eq!(r0.races.len(), 1);
    assert_eq!(
        golden,
        r0.races[0].to_string(),
        "tcp plane changed the report"
    );
    // The handle is shared: both halves snapshot the same world-wide set.
    assert_eq!(r1.races.len(), 1);
    assert_eq!(golden, r1.races[0].to_string());

    // Strict mode surfaces the same defect as a typed error.
    let cfg = config(2, 2, &spec, RaceMode::Strict);
    match run_inprocess(&cfg, spec) {
        Err(RtError::Race(report)) => {
            assert_eq!(
                golden,
                report.to_string(),
                "strict error differs from observe"
            )
        }
        other => panic!("strict racey must fail with RtError::Race, got {other:?}"),
    }
}
