//! The eight workloads and what they share: the repetition record, the
//! per-run environment and the world launcher.
//!
//! A run is one warm-up repetition plus as many timed repetitions as fit
//! in `--seconds`, **each on a freshly launched world** (new threads, new
//! mesh); the runner reduces the per-world values to one (`stats::midmean`).
//! Every rt thread spin-yields, so where a world has as many spinners as the
//! box has cores or more, its speed depends on which threads share a core:
//! the two-rank worlds are launched with a fixed [`Placement`] for that
//! reason.

pub mod allreduce;
pub mod fanin;
pub mod halo;
pub mod jobstorm;
pub mod p2p;
pub mod sim;

use crate::spans::{SpanBuf, Tracer};
use crate::util::affinity;
use dcuda_net::{
    MeshOpts, NetConfig, NetEndpoint, NetError, NetStats, PlaneKind, SocketPlane, Transport,
    WireMsg,
};
use dcuda_rt::cluster::RankProgram;
use dcuda_rt::{try_run_cluster, try_run_cluster_part, ClusterPart, RtConfig, RtReport};
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Problem size: `Full` is what the benchmark measures, `Tiny` the same
/// code at a size unit tests can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    // Only the unit tests construct it.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

impl Size {
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// What one repetition hands to the runner.
#[derive(Debug)]
pub struct Rep {
    /// Wall seconds inside the timed phases; the rest of the repetition's
    /// wall time (input generation, mesh, spawn/join, verification) is
    /// set-up.
    pub timed_s: f64,
    /// Latency of every primary operation of this repetition, in µs.
    pub op_us: Vec<f64>,
    /// Work units completed and the wall seconds they took.
    pub work: f64,
    pub work_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Layer observations of this repetition (`per_layer` metric names).
    /// The runner reports the median over repetitions for each name.
    pub layer: Vec<(&'static str, f64)>,
}

/// Per-run environment handed to every repetition.
pub struct Env<'a> {
    pub seed: u64,
    pub size: Size,
    pub tracer: &'a Tracer,
    pub scratch: &'a Path,
}

pub trait Workload {
    fn name(&self) -> &'static str;
    /// Name the ISSUE/README use for this workload's `op_p50_us`.
    fn op_alias(&self) -> &'static str;
    /// Name the ISSUE/README use for this workload's `work_per_s`.
    fn work_alias(&self) -> &'static str;
    /// Operations one repetition attempts (what a watchdog expiry or a
    /// launch failure counts as failed).
    fn ops_per_rep(&self, size: Size) -> u64;
    /// Launch a fresh world, run the timed phases, verify the outputs.
    fn rep(&self, env: &Env) -> Result<Rep, String>;
    /// Layer measurements taken once per traced run, outside the
    /// repetitions (size ladders, launch cost, overhead of the repo's own
    /// observers, ...).
    fn layer_extras(&self, _env: &Env) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(Vec::new())
    }
}

pub const NAMES: [&str; 8] = [
    "p2p_inproc",
    "p2p_tcp",
    "p2p_shm",
    "halo_overlap",
    "fanin_backlog",
    "allreduce",
    "sim_overlap",
    "jobstorm",
];

pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "p2p_inproc" => Box::new(p2p::P2p(Plane::InProc)),
        "p2p_tcp" => Box::new(p2p::P2p(Plane::Tcp)),
        "p2p_shm" => Box::new(p2p::P2p(Plane::Shm)),
        "halo_overlap" => Box::new(halo::Halo),
        "fanin_backlog" => Box::new(fanin::FanIn),
        "allreduce" => Box::new(allreduce::Allreduce),
        "sim_overlap" => Box::new(sim::SimOverlap),
        "jobstorm" => Box::new(jobstorm::JobStorm),
        _ => return None,
    })
}

/// Shared failure counter a world's rank programs report mismatches to.
#[derive(Clone, Default)]
pub struct Failures(Arc<AtomicU64>);

impl Failures {
    /// Count one failed operation unless `ok`.
    #[inline]
    pub fn check(&self, ok: bool) {
        if !ok {
            // Relaxed: a statistic, read only after the world has joined.
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn count(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The inter-device plane a world runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// `InProcessPlane` channels (`try_run_cluster`).
    InProc,
    /// Loopback TCP mesh between two process-shaped halves.
    Tcp,
    /// Mapped shared-memory rings between two process-shaped halves.
    Shm,
}

impl Plane {
    pub fn label(self) -> &'static str {
        match self {
            Plane::InProc => "inproc",
            Plane::Tcp => "tcp",
            Plane::Shm => "shm",
        }
    }

    fn expected_kind(self) -> PlaneKind {
        match self {
            Plane::InProc => PlaneKind::InProcess,
            Plane::Tcp => PlaneKind::Tcp,
            Plane::Shm => PlaneKind::Shm,
        }
    }
}

/// Establish a two-process-shaped loopback mesh inside this process
/// (listeners on `127.0.0.1:0`; the partner half joins on a helper thread)
/// and prove it negotiated the intended plane.
pub fn mesh_pair(
    plane: Plane,
    devices_per_proc: u32,
    shm_dir: &Path,
) -> Result<[Vec<NetEndpoint>; 2], String> {
    let bind = || TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"));
    let (l0, l1) = (bind()?, bind()?);
    let addr = |l: &TcpListener| {
        l.local_addr()
            .map(|a| a.to_string())
            .map_err(|e| format!("local_addr: {e}"))
    };
    let addrs = vec![addr(&l0)?, addr(&l1)?];
    // Equal fingerprints + a pair-file directory select the shm plane; an
    // empty host table forces TCP.
    let shm = plane == Plane::Shm;
    // A directory of its own per mesh: the pair files are created with
    // `create_new` and nobody in `dcuda-net` unlinks them.
    static MESHES: AtomicU64 = AtomicU64::new(0);
    let shm_dir = shm_dir.join(format!("mesh-{}", MESHES.fetch_add(1, Ordering::Relaxed)));
    if shm {
        std::fs::create_dir_all(&shm_dir).map_err(|e| format!("{}: {e}", shm_dir.display()))?;
    }
    let hosts = if shm {
        vec!["benchmark-host".to_string(); 2]
    } else {
        Vec::new()
    };
    let opts = |my_proc, listener| MeshOpts {
        my_proc,
        procs: 2,
        devices_per_proc,
        peer_addrs: addrs.clone(),
        peer_hosts: hosts.clone(),
        shm_dir: shm.then(|| shm_dir.clone()),
        listener,
        config: NetConfig::default(),
    };
    let o1 = opts(1, l1);
    let partner = std::thread::spawn(move || SocketPlane::establish(o1));
    let e0 = SocketPlane::establish(opts(0, l0));
    let e1 = partner
        .join()
        .map_err(|_| "mesh partner thread panicked".to_string())?;
    if shm {
        // Both halves hold their mappings (or failed): the files can go.
        let _ = std::fs::remove_dir_all(&shm_dir);
    }
    let e0 = e0.map_err(|e| format!("establish proc 0: {e}"))?;
    let e1 = e1.map_err(|e| format!("establish proc 1: {e}"))?;
    for (ep, peer) in [(&e0[0], 1u32), (&e1[0], 0u32)] {
        let got = ep.peer_planes();
        if got != [(peer, plane.expected_kind())] {
            return Err(format!(
                "{} mesh negotiated {got:?}, not {:?}",
                plane.label(),
                plane.expected_kind()
            ));
        }
    }
    Ok([e0, e1])
}

/// A socket-plane endpoint that outlives its host loop: when the runtime
/// drops it, the endpoint (and with it the connection) is parked with the
/// launcher instead of closed, until *both* halves of the world have
/// returned.
///
/// Works around a teardown race in `dcuda-rt` that is not the benchmark's to
/// fix: the half that sees world quiescence first closes its sockets, and if
/// its last `Finished` frame and the EOF both reach the other half between
/// that host's drain pass and its quiescence check, the check reports "peer
/// process died before quiescence" although every rank finished (seen in
/// about one loopback tcp world in a thousand). Every call is forwarded
/// unchanged, so the measured path is the endpoint's own.
struct HeldOpen {
    inner: Option<NetEndpoint>,
    park: mpsc::Sender<NetEndpoint>,
}

impl HeldOpen {
    fn ep(&self) -> &NetEndpoint {
        self.inner.as_ref().expect("endpoint present until drop")
    }

    fn ep_mut(&mut self) -> &mut NetEndpoint {
        self.inner.as_mut().expect("endpoint present until drop")
    }
}

impl Transport for HeldOpen {
    fn send(&mut self, peer: u32, msg: WireMsg) -> Result<(), NetError> {
        self.ep_mut().send(peer, msg)
    }
    fn try_recv(&mut self) -> Result<Option<WireMsg>, NetError> {
        self.ep_mut().try_recv()
    }
    fn pump(&mut self) -> Result<bool, NetError> {
        self.ep_mut().pump()
    }
    fn idle(&self) -> bool {
        self.ep().idle()
    }
    fn remote_devices(&self) -> Vec<u32> {
        self.ep().remote_devices()
    }
    fn peer_gone(&self) -> Option<u32> {
        self.ep().peer_gone()
    }
    fn stats(&self) -> NetStats {
        self.ep().stats()
    }
    fn peer_planes(&self) -> Vec<(u32, PlaneKind)> {
        self.ep().peer_planes()
    }
    // `take_tracer` keeps its default: the meshes are built untraced.
}

impl Drop for HeldOpen {
    fn drop(&mut self) {
        if let Some(ep) = self.inner.take() {
            // A launcher that is already gone drops the endpoint right here.
            let _ = self.park.send(ep);
        }
    }
}

fn held_open(eps: Vec<NetEndpoint>, park: &mpsc::Sender<NetEndpoint>) -> Vec<Box<dyn Transport>> {
    eps.into_iter()
        .map(|ep| {
            Box::new(HeldOpen {
                inner: Some(ep),
                park: park.clone(),
            }) as Box<dyn Transport>
        })
        .collect()
}

/// Where the threads of a launched world run: the rank threads on one CPU,
/// everything else the world starts (host loops, socket reactors, the
/// partner half's launcher) on another — the paper's device and host, which
/// do not compete for a core.
///
/// Why: a two-rank world is four spinning threads (two ranks, two host
/// loops) plus reactors, on a box that may have two cores. Left to the OS,
/// which threads share a core is decided per world and sticks: the same
/// binary gives 8 B tcp round trips of 24 us in one world and 50-75 us in
/// the next, and the share of badly-paired worlds drifts from run to run
/// (ten runs of `p2p_tcp` spread 35 % under the median over worlds, and
/// still past the bound under its lower quartile). Pinned like this every
/// world is the well-paired one: per-world medians of 22-24 us, 4 % apart.
/// The other fixed choice, one core per process-shaped half, is as steady
/// but measures `sched_yield` hand-offs between a rank and its own host
/// (73 us).
///
/// Holding the value keeps the calling thread on the host CPU — threads
/// inherit the mask of their spawner, so everything the launch starts lands
/// there — and dropping it gives the caller its own mask back. Rank
/// programs wrapped by [`Placement::pin_ranks`] move themselves to the rank
/// CPU before they do anything else.
struct Placement {
    restore: affinity::Mask,
    rank_cpu: usize,
}

impl Placement {
    /// The first two CPUs this thread may use become the rank and the host
    /// CPU. `None` (and the world runs unpinned) on a single CPU, off Linux,
    /// or if the kernel refuses.
    fn pin_launcher() -> Option<Placement> {
        let restore = affinity::get()?;
        let cpus = affinity::cpus(&restore);
        let (&rank_cpu, &host_cpu) = (cpus.first()?, cpus.get(1)?);
        affinity::set(&affinity::only(host_cpu)).then_some(Placement { restore, rank_cpu })
    }

    fn pin_ranks(&self, programs: Vec<RankProgram>) -> Vec<RankProgram> {
        let rank_only = affinity::only(self.rank_cpu);
        programs
            .into_iter()
            .map(|program| -> RankProgram {
                Box::new(move |ctx| {
                    // A refusal leaves the rank on the host CPU: slower, and
                    // the launcher's own pin has just shown it cannot happen.
                    affinity::set(&rank_only);
                    program(ctx)
                })
            })
            .collect()
    }
}

impl Drop for Placement {
    fn drop(&mut self) {
        affinity::set(&self.restore);
    }
}

/// Launch one world of `cfg` on `plane` and run `programs` (one per world
/// rank) to completion. On the socket planes the world is split into two
/// halves, each run through `try_run_cluster_part` on its own thread over a
/// fresh loopback mesh; the halves' reports are merged. The world's threads
/// are pinned as [`Placement`] says. `driver` records the `mesh_establish`
/// and `launch` spans.
pub fn launch_world(
    cfg: &RtConfig,
    plane: Plane,
    mut programs: Vec<RankProgram>,
    shm_dir: &Path,
    driver: &mut SpanBuf,
) -> Result<RtReport, String> {
    let placement = Placement::pin_launcher();
    if let Some(p) = &placement {
        programs = p.pin_ranks(programs);
    }
    let report = if plane == Plane::InProc {
        driver.time("launch", 0, || try_run_cluster(cfg, programs))
    } else {
        let half = cfg.devices / 2;
        if half * 2 != cfg.devices {
            return Err(format!("{} devices do not split in two", cfg.devices));
        }
        let [e0, e1] = driver.time("mesh_establish", 0, || mesh_pair(plane, half, shm_dir))?;
        let upper = programs.split_off((half * cfg.ranks_per_device) as usize);
        let part = move |first_device| ClusterPart {
            first_device,
            local_devices: half,
        };
        // Endpoints the halves are done with wait here until both returned.
        let (park, parked) = mpsc::channel();
        let (cfg1, planes1) = (cfg.clone(), held_open(e1, &park));
        driver.time("launch", 0, || {
            let partner = std::thread::spawn(move || {
                try_run_cluster_part(&cfg1, part(half), upper, planes1, false)
            });
            let r0 = try_run_cluster_part(cfg, part(0), programs, held_open(e0, &park), false);
            let r1 = partner.join().expect("cluster part thread panicked");
            drop(parked);
            r0.and_then(|(mut a, _)| {
                let (b, _) = r1?;
                a.puts += b.puts;
                a.notifications += b.notifications;
                a.matched += b.matched;
                a.barriers = a.barriers.max(b.barriers);
                a.retries += b.retries;
                a.dups_suppressed += b.dups_suppressed;
                a.coll.puts += b.coll.puts;
                a.coll.bytes += b.coll.bytes;
                a.coll.chunks += b.coll.chunks;
                a.coll.hidden_waits += b.coll.hidden_waits;
                a.coll.blocked_waits += b.coll.blocked_waits;
                a.net.absorb(b.net);
                Ok(a)
            })
        })
    };
    drop(placement);
    let report = report.map_err(|e| format!("{} world: {e}", plane.label()))?;
    // The intended plane carried the traffic — and only that plane.
    let net = &report.net;
    let ok = match plane {
        Plane::InProc => net.frames_sent == 0 && net.shm_msgs == 0,
        Plane::Tcp => net.frames_sent > 0 && net.shm_msgs == 0,
        Plane::Shm => net.shm_msgs > 0,
    };
    if !ok {
        return Err(format!(
            "{} world moved its traffic elsewhere: {net:?}",
            plane.label()
        ));
    }
    Ok(report)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The user-level protocol counters of a report, checked against closed
/// forms and reported as `rt.*` counts.
pub fn rt_counts(report: &RtReport) -> Vec<(&'static str, f64)> {
    vec![
        ("rt.puts", report.puts as f64),
        ("rt.notifications", report.notifications as f64),
        ("rt.matched", report.matched as f64),
        ("rt.retries", report.retries as f64),
        ("rt.dups_suppressed", report.dups_suppressed as f64),
    ]
}

/// Count one failure per protocol counter that differs from its closed
/// form (`puts == notifications == matched == expected`, nothing retried).
pub fn check_rt_counts(report: &RtReport, expected: u64, failures: &Failures) {
    failures.check(report.puts == expected);
    failures.check(report.notifications == expected);
    failures.check(report.matched == expected);
    failures.check(report.retries == 0 && report.dups_suppressed == 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::Scratch;

    /// Soak for the teardown race [`HeldOpen`] works around: thousands of
    /// tiny loopback worlds must all join cleanly. Slow, so opt-in:
    /// `cargo test --release -- --ignored socket_worlds_tear_down_cleanly`.
    #[test]
    #[ignore]
    fn socket_worlds_tear_down_cleanly() {
        let scratch = Scratch::create().expect("scratch");
        let tracer = Tracer::off();
        let env = Env {
            seed: 1,
            size: Size::Tiny,
            tracer: &tracer,
            scratch: scratch.path(),
        };
        for plane in [Plane::Tcp, Plane::Shm] {
            let w = p2p::P2p(plane);
            for world in 0..3_000 {
                let rep = w
                    .rep(&env)
                    .unwrap_or_else(|e| panic!("{} world {world}: {e}", plane.label()));
                assert_eq!(rep.failed, 0, "{} world {world}", plane.label());
            }
        }
    }
}
