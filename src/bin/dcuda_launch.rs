//! `dcuda-launch` — run the threaded runtime across OS processes.
//!
//! One binary, two roles. As the *coordinator* (default) it spawns `--procs`
//! copies of itself in worker mode, brokers the mesh handshake
//! ([`dcuda_net::launch`]), aggregates the per-process reports and prints a
//! single JSON record. As a *worker* (`--worker-index`, spawned internally)
//! it binds a mesh listener, establishes the socket plane and runs its slice
//! of the world via [`dcuda_rt::try_run_cluster_part`].
//!
//! With `--backend inprocess` the same world runs on the shared-memory
//! plane in this process and reports in the identical JSON shape — the two
//! outputs must agree on every protocol counter and on the checksum, which
//! is exactly what `tests/net_conformance.rs` asserts.
//!
//! Workers on the same host (matching boot-id fingerprints) negotiate the
//! shared-memory ring plane automatically; `--plane tcp` forces sockets
//! everywhere, `--plane shm` fails the launch unless every pair got shm.
//! The report records the outcome per pair under `plane_pairs`.
//!
//! ```text
//! dcuda-launch --procs 2 --devices-per-proc 1 --ranks-per-device 52 \
//!     --workload ring --iters 40 --payload 1024 [--plane auto|tcp|shm] \
//!     [--trace out/launch.trace] [--report-json out/launch.json]
//! ```

use dcuda_bench::json::Json;
use dcuda_net::{launch, MeshOpts, NetConfig, NetStats, PlaneKind, SocketPlane, Transport};
use dcuda_rt::programs::{Params, Program};
use dcuda_rt::{thread_per_rank, ClusterPart, ProgressMode, RaceMode, RtConfig, RtReport};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::Ordering;
use std::time::Duration;

#[derive(Clone)]
struct Args {
    backend: String,
    plane: String,
    procs: u32,
    devices_per_proc: u32,
    ranks_per_device: u32,
    workload: Program,
    iters: u32,
    payload: usize,
    race: String,
    progress: u32,
    host_busy: u64,
    trace: Option<String>,
    report_json: Option<String>,
    die_proc: Option<u32>,
    timeout_secs: u64,
    worker_index: Option<u32>,
    control: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            backend: "multiprocess".into(),
            plane: "auto".into(),
            procs: 2,
            devices_per_proc: 1,
            ranks_per_device: 4,
            workload: Program::Ring,
            iters: 20,
            payload: 1024,
            race: "off".into(),
            progress: 0,
            host_busy: 0,
            trace: None,
            report_json: None,
            die_proc: None,
            timeout_secs: 120,
            worker_index: None,
            control: None,
        }
    }
}

const USAGE: &str = "usage: dcuda-launch [--backend multiprocess|inprocess] [--procs M]
    [--plane auto|tcp|shm] [--devices-per-proc D] [--ranks-per-device R]
    [--workload pingpong|ring|poison:<n>|allreduce|stencil|coll|racey]
    [--iters N] [--payload BYTES]
    [--race off|observe|strict] [--progress N] [--host-busy ITERS]
    [--trace PATH] [--report-json PATH] [--die-proc K] [--timeout-secs S]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--backend" => args.backend = val("--backend")?.clone(),
            "--plane" => args.plane = val("--plane")?.clone(),
            "--procs" => args.procs = parse_num(val("--procs")?, "--procs")?,
            "--devices-per-proc" => {
                args.devices_per_proc = parse_num(val("--devices-per-proc")?, "--devices-per-proc")?
            }
            "--ranks-per-device" => {
                args.ranks_per_device = parse_num(val("--ranks-per-device")?, "--ranks-per-device")?
            }
            "--workload" => args.workload = Program::parse(val("--workload")?)?,
            "--iters" => args.iters = parse_num(val("--iters")?, "--iters")?,
            "--payload" => args.payload = parse_num(val("--payload")?, "--payload")?,
            "--race" => args.race = val("--race")?.clone(),
            "--progress" => args.progress = parse_num(val("--progress")?, "--progress")?,
            "--host-busy" => args.host_busy = parse_num(val("--host-busy")?, "--host-busy")?,
            "--trace" => args.trace = Some(val("--trace")?.clone()),
            "--report-json" => args.report_json = Some(val("--report-json")?.clone()),
            "--die-proc" => args.die_proc = Some(parse_num(val("--die-proc")?, "--die-proc")?),
            "--timeout-secs" => {
                args.timeout_secs = parse_num(val("--timeout-secs")?, "--timeout-secs")?
            }
            "--worker-index" => {
                args.worker_index = Some(parse_num(val("--worker-index")?, "--worker-index")?)
            }
            "--control" => args.control = Some(val("--control")?.clone()),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if args.backend != "multiprocess" && args.backend != "inprocess" {
        return Err(format!("unknown backend {:?}", args.backend));
    }
    if !matches!(args.plane.as_str(), "auto" | "tcp" | "shm") {
        return Err(format!("unknown plane {:?} (auto|tcp|shm)", args.plane));
    }
    if args.procs == 0 || args.devices_per_proc == 0 || args.ranks_per_device == 0 {
        return Err("procs, devices-per-proc and ranks-per-device must be nonzero".into());
    }
    if RaceMode::parse(&args.race).is_none() {
        return Err(format!(
            "unknown race mode {:?} (off|observe|strict)",
            args.race
        ));
    }
    if args.race != "off" && args.backend != "inprocess" {
        // The detector needs the whole world's clocks in one address space;
        // a per-process detector would miss every cross-process edge.
        return Err("--race requires --backend inprocess".into());
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(s: &str, name: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value for {name}: {s}"))
}

/// The program's data: seeded like a default `dcuda_sched::JobSpec`, so
/// `--workload ring` and a `ring` job of the same shape produce the same
/// checksum.
fn params(args: &Args) -> Params {
    Params {
        seed: 1,
        iters: args.iters,
        payload: args.payload,
    }
}

fn cluster_config(args: &Args) -> Result<RtConfig, String> {
    let race = RaceMode::parse(&args.race).ok_or_else(|| format!("bad race mode {}", args.race))?;
    // `--progress 0` (the default) is the inline engine; N > 0 spawns the
    // asynchronous progress pool with N workers per process.
    let progress = match args.progress {
        0 => ProgressMode::Inline,
        n => ProgressMode::Threads(n),
    };
    let devices = args.procs * args.devices_per_proc;
    args.workload
        .config(&params(args), devices, args.ranks_per_device)
        .race_detect(race)
        .progress(progress)
        .host_busy_spin(args.host_busy)
        .build()
        .map_err(|e| e.to_string())
}

/// A report counter: its JSON key and where it lives.
type Field<T> = (&'static str, fn(&mut T) -> &mut u64);

/// The protocol counters of every report shape, in JSON order; the
/// coordinator folds the workers' values back through the same list.
const COUNTERS: [Field<RtReport>; 7] = [
    ("puts", |r| &mut r.puts),
    ("notifications", |r| &mut r.notifications),
    ("matched", |r| &mut r.matched),
    ("barriers", |r| &mut r.barriers),
    ("coll_puts", |r| &mut r.coll.puts),
    ("coll_bytes", |r| &mut r.coll.bytes),
    ("coll_chunks", |r| &mut r.coll.chunks),
];

/// The transport-plane counters nested under `net`, in JSON order.
const NET: [Field<NetStats>; 14] = [
    ("frames_sent", |n| &mut n.frames_sent),
    ("frames_recv", |n| &mut n.frames_recv),
    ("bytes_sent", |n| &mut n.bytes_sent),
    ("eager_msgs", |n| &mut n.eager_msgs),
    ("rndz_msgs", |n| &mut n.rndz_msgs),
    ("coalesced_flushes", |n| &mut n.coalesced_flushes),
    ("net_retries", |n| &mut n.net_retries),
    ("shm_msgs", |n| &mut n.shm_msgs),
    ("shm_bytes_sent", |n| &mut n.shm_bytes_sent),
    ("copies_tx", |n| &mut n.copies_tx),
    ("copies_rx", |n| &mut n.copies_rx),
    ("vectored_writes", |n| &mut n.vectored_writes),
    ("progress_frames", |n| &mut n.progress_frames),
    ("steals", |n| &mut n.steals),
];

/// Append `report`'s protocol counters to `o`, with the race count after
/// `barriers`: the one writer of both the final report and the workers'
/// partials.
fn with_counters(mut o: Json, report: &RtReport) -> Json {
    let mut r = report.clone();
    for (key, field) in COUNTERS {
        o = o.field(key, Json::from(*field(&mut r)));
        if key == "barriers" {
            o = o.field("races", Json::from(r.races.len() as u64));
        }
    }
    o
}

/// The `net` object of every report shape.
fn net_json(net: &NetStats) -> Json {
    let mut net = *net;
    NET.iter().fold(Json::obj(), |o, (key, field)| {
        o.field(key, Json::from(*field(&mut net)))
    })
}

/// Fold one worker's partial into `total`: counters sum, except that
/// barriers agree world-wide (take the max).
fn absorb_counters(total: &mut RtReport, j: &Json) -> Result<(), String> {
    for (key, field) in COUNTERS {
        let v = j
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("report missing {key}"))?;
        let t = field(total);
        *t = if key == "barriers" {
            (*t).max(v)
        } else {
            *t + v
        };
    }
    let mut net = NetStats::default();
    for (key, field) in NET {
        *field(&mut net) = j
            .get("net")
            .and_then(|n| n.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0);
    }
    total.net.absorb(net);
    Ok(())
}

/// The aggregate report both backends emit: protocol counters plus the
/// world checksum, with transport-plane counters nested under `net` and
/// the negotiated plane of every peer pair under `plane_pairs`
/// (`"lo-hi": "shm"|"tcp"`, empty for single-process runs).
fn report_json(
    args: &Args,
    world: u32,
    report: &RtReport,
    checksum: u64,
    plane_pairs: Json,
) -> Json {
    let head = Json::obj()
        .field("backend", Json::str(args.backend.clone()))
        .field("workload", Json::str(args.workload.name()))
        .field("procs", Json::from(args.procs))
        .field("devices", Json::from(args.procs * args.devices_per_proc))
        .field("ranks_per_device", Json::from(args.ranks_per_device))
        .field("world", Json::from(world))
        .field("iters", Json::from(args.iters))
        .field("payload", Json::from(args.payload));
    with_counters(head, report)
        .field("checksum", Json::str(format!("{checksum:#018x}")))
        .field("plane_pairs", plane_pairs)
        .field("net", net_json(&report.net))
}

fn write_outputs(args: &Args, rendered: &str) -> Result<(), String> {
    println!("{rendered}");
    if let Some(path) = &args.report_json {
        std::fs::write(path, rendered).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(())
}

// --- in-process backend ---------------------------------------------------

fn run_inprocess(args: &Args) -> Result<(), String> {
    let cfg = cluster_config(args)?;
    let world = cfg.world();
    let (programs, cells): (Vec<_>, Vec<_>) =
        thread_per_rank(args.workload.tasks(params(args), world))
            .into_iter()
            .unzip();
    let (report, tracer) = if args.trace.is_some() {
        dcuda_rt::run_cluster_traced(&cfg, programs).map_err(|e| e.to_string())?
    } else {
        let r = dcuda_rt::try_run_cluster(&cfg, programs).map_err(|e| e.to_string())?;
        (r, dcuda_trace::Tracer::disabled())
    };
    if let Some(path) = &args.trace {
        std::fs::write(path, dcuda_trace::chrome::to_chrome_json(&tracer))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    let checksum = dcuda_rt::programs::fold_checksums(
        cells
            .iter()
            .enumerate()
            .map(|(r, c)| (r as u32, c.load(Ordering::Acquire))),
    );
    // Observe-mode race reports: the JSON carries the count; the full
    // happens-before stories go to stderr so they never perturb the
    // machine-readable record.
    for race in &report.races {
        eprintln!("dcuda-launch: race: {race}");
    }
    write_outputs(
        args,
        &report_json(args, world, &report, checksum, Json::obj()).to_string(),
    )
}

// --- multi-process coordinator -------------------------------------------

/// Temp directory for the launch's shared-memory pair files; removed
/// (best-effort) when the coordinator exits, so a crashed run leaves at
/// most one pid-stamped directory behind.
struct ShmDirGuard(PathBuf);

impl Drop for ShmDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn make_shm_dir() -> Result<ShmDirGuard, String> {
    let dir = std::env::temp_dir().join(format!("dcuda-launch-shm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(ShmDirGuard(dir))
}

fn run_coordinator(args: &Args) -> Result<(), String> {
    let cfg = cluster_config(args)?; // validate before spawning anything
    let world = cfg.world();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Plane policy: `tcp` disables the shm directory outright; `auto` and
    // `shm` provision one when the platform supports mmap-backed rings
    // (workers still only negotiate shm with peers sharing their host
    // fingerprint — `shm` merely asserts afterwards that every pair got it).
    let shm_guard = match args.plane.as_str() {
        "tcp" => None,
        _ if dcuda_net::shm_supported() => Some(make_shm_dir()?),
        "shm" => return Err("--plane shm: platform lacks shared-memory ring support".into()),
        _ => None,
    };
    let reports = launch::launch(
        args.procs,
        Duration::from_secs(args.timeout_secs),
        shm_guard.as_ref().map(|g| g.0.as_path()),
        &mut |index, control_addr| {
            Command::new(&exe)
                .args(&argv)
                .args(["--worker-index", &index.to_string()])
                .args(["--control", control_addr])
                .spawn()
        },
    )
    .map_err(|e| e.to_string())?;

    // Aggregate: counters sum, barriers agree world-wide (take the max),
    // checksum partials combine by wrapping addition.
    let mut total = RtReport::default();
    let mut checksum = 0u64;
    let mut pairs: Vec<(String, String)> = Vec::new();
    for (i, blob) in reports.iter().enumerate() {
        let j = Json::parse(blob).map_err(|e| format!("worker {i} report: {e}"))?;
        let get = |k: &str| -> Result<u64, String> {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("worker {i} report missing {k}"))
        };
        absorb_counters(&mut total, &j).map_err(|e| format!("worker {i} {e}"))?;
        checksum = checksum.wrapping_add(get("checksum_partial")?);
        // Fold this worker's per-peer plane map into the pair table. Both
        // ends report every pair; keep the first sighting but flag a
        // disagreement — it would mean the two sides negotiated
        // different planes, which the symmetric predicate forbids.
        let index = get("index")?;
        if let Some(planes) = j.get("planes").and_then(Json::entries) {
            for (peer, plane) in planes {
                let plane = plane.as_str().unwrap_or("?").to_string();
                let peer: u64 = peer.parse().unwrap_or(u64::MAX);
                let key = format!("{}-{}", index.min(peer), index.max(peer));
                match pairs.iter().find(|(k, _)| *k == key) {
                    None => pairs.push((key, plane)),
                    Some((_, seen)) if *seen != plane => {
                        return Err(format!(
                            "plane disagreement on pair {key}: {seen} vs {plane}"
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
    }
    pairs.sort();
    let plane_pairs = pairs
        .into_iter()
        .fold(Json::obj(), |o, (k, v)| o.field(&k, Json::str(v)));
    write_outputs(
        args,
        &report_json(args, world, &total, checksum, plane_pairs).to_string(),
    )
}

// --- worker ---------------------------------------------------------------

fn run_worker(args: &Args, index: u32, control_addr: &str) -> Result<(), String> {
    if args.die_proc == Some(index) {
        // Test hook for the orphan-cleanup regression: this process dies
        // mid-run, as if it crashed or was OOM-killed.
        std::thread::spawn(|| {
            std::thread::sleep(Duration::from_millis(150));
            std::process::exit(3);
        });
    }
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("mesh bind: {e}"))?;
    let mesh_addr = listener
        .local_addr()
        .map_err(|e| format!("mesh addr: {e}"))?
        .to_string();
    let (mut control, mesh) = launch::worker_join(
        control_addr,
        index,
        &mesh_addr,
        Duration::from_secs(args.timeout_secs),
    )
    .map_err(|e| format!("control handshake: {e}"))?;

    match worker_run(args, index, listener, mesh) {
        Ok(json) => {
            launch::send_report(&mut control, &json.to_string())
                .map_err(|e| format!("sending report: {e}"))?;
            Ok(())
        }
        Err(detail) => {
            let _ = launch::send_error(&mut control, &detail);
            Err(detail)
        }
    }
}

fn worker_run(
    args: &Args,
    index: u32,
    listener: TcpListener,
    mesh: launch::MeshInfo,
) -> Result<Json, String> {
    let cfg = cluster_config(args)?;
    let traced = args.trace.is_some();
    let config = NetConfig { traced };
    let endpoints = SocketPlane::establish(MeshOpts {
        my_proc: index,
        procs: args.procs,
        devices_per_proc: args.devices_per_proc,
        peer_addrs: mesh.peer_addrs,
        peer_hosts: mesh.peer_hosts,
        shm_dir: if args.plane == "tcp" {
            None
        } else {
            mesh.shm_dir
        },
        listener,
        config,
    })
    .map_err(|e| format!("socket mesh: {e}"))?;
    let peer_planes = endpoints
        .first()
        .map(|ep| ep.peer_planes())
        .unwrap_or_default();
    if args.plane == "shm" {
        if let Some((peer, kind)) = peer_planes.iter().find(|(_, k)| *k != PlaneKind::Shm) {
            return Err(format!(
                "--plane shm: peer {peer} negotiated {} (host fingerprints differ?)",
                kind.as_str()
            ));
        }
    }
    let planes: Vec<Box<dyn Transport>> = endpoints
        .into_iter()
        .map(|ep| Box::new(ep) as Box<dyn Transport>)
        .collect();

    let part = ClusterPart {
        first_device: index * args.devices_per_proc,
        local_devices: args.devices_per_proc,
    };
    let first_rank = part.first_device * args.ranks_per_device;
    let local_ranks = part.local_devices * args.ranks_per_device;
    let (programs, cells): (Vec<_>, Vec<_>) =
        thread_per_rank(args.workload.tasks(params(args), local_ranks))
            .into_iter()
            .unzip();
    let (report, tracer) = dcuda_rt::try_run_cluster_part(&cfg, part, programs, planes, traced)
        .map_err(|e| e.to_string())?;
    if let Some(path) = &args.trace {
        let per_proc = format!("{path}.p{index}.json");
        std::fs::write(&per_proc, dcuda_trace::chrome::to_chrome_json(&tracer))
            .map_err(|e| format!("writing {per_proc}: {e}"))?;
    }
    let partial = dcuda_rt::programs::fold_checksums(
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| (first_rank + i as u32, c.load(Ordering::Acquire))),
    );
    let planes_json = peer_planes.iter().fold(Json::obj(), |o, (peer, kind)| {
        o.field(&peer.to_string(), Json::str(kind.as_str()))
    });
    Ok(
        with_counters(Json::obj().field("index", Json::from(index)), &report)
            .field("checksum_partial", Json::from(partial))
            .field("planes", planes_json)
            .field("net", net_json(&report.net)),
    )
}

const SCHED_USAGE: &str = "usage: dcuda-launch sched <verb> ...
    serve    [--bind HOST:PORT] [--devices N] [--ranks-per-device R]
    submit   --addr HOST:PORT --spec 'name=.. program=.. ..' [--wait]
    status   --addr HOST:PORT --id N
    cancel   --addr HOST:PORT --id N
    stats    --addr HOST:PORT
    drain    --addr HOST:PORT
    shutdown --addr HOST:PORT";

/// `dcuda-launch sched ...`: drive the multi-tenant job server — serve its
/// control plane, or act as a client speaking the submit/status/cancel/drain
/// verbs over the launch codec.
fn run_sched(argv: &[String]) -> Result<(), String> {
    use dcuda_sched::{spawn_server, CtrlClient, JobStatus, SchedLimits, Scheduler};

    let verb = argv.first().map(String::as_str).unwrap_or("--help");
    let mut bind = "127.0.0.1:0".to_string();
    let mut devices: u32 = 2;
    let mut ranks_per_device: u32 = 4;
    let mut addr: Option<String> = None;
    let mut specs: Vec<String> = Vec::new();
    let mut id: Option<u64> = None;
    let mut wait = false;
    let mut it = argv.iter().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--bind" => bind = val("--bind")?.clone(),
            "--devices" => devices = parse_num(val("--devices")?, "--devices")?,
            "--ranks-per-device" => {
                ranks_per_device = parse_num(val("--ranks-per-device")?, "--ranks-per-device")?
            }
            "--addr" => addr = Some(val("--addr")?.clone()),
            "--spec" => specs.push(val("--spec")?.clone()),
            "--id" => id = Some(parse_num(val("--id")?, "--id")?),
            "--wait" => wait = true,
            "--help" | "-h" => return Err(SCHED_USAGE.into()),
            other => return Err(format!("unknown sched flag {other}\n{SCHED_USAGE}")),
        }
    }
    let need_addr = || addr.clone().ok_or_else(|| "--addr is required".to_string());
    let need_id = || id.ok_or_else(|| "--id is required".to_string());
    match verb {
        "serve" => {
            let sched = Scheduler::new(devices, ranks_per_device, SchedLimits::default());
            let handle = spawn_server(sched, &bind).map_err(|e| format!("bind {bind}: {e}"))?;
            // Flushed so callers can scrape the bound port.
            println!("listening on {}", handle.addr());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            // Serve until a shutdown verb stops the accept loop.
            handle.join().map_err(|e| format!("server: {e}"))
        }
        "submit" => {
            if specs.is_empty() {
                return Err("submit needs at least one --spec".into());
            }
            let client = CtrlClient::new(need_addr()?);
            let mut ids = Vec::new();
            for line in &specs {
                let spec =
                    dcuda_sched::JobSpec::parse_kv(line).map_err(|e| format!("--spec: {e}"))?;
                let id = client.submit(&spec).map_err(|e| e.to_string())?;
                println!("submitted id={id} name={}", spec.name);
                ids.push(id);
            }
            if wait {
                for id in ids {
                    let r = client.wait(id).map_err(|e| e.to_string())?;
                    println!(
                        "job id={} name={} end={} checksum={:016x} wait_ms={:.3} run_ms={:.3}",
                        r.id,
                        r.name,
                        r.end.name(),
                        r.checksum,
                        r.wait_ms,
                        r.run_ms
                    );
                }
            }
            Ok(())
        }
        "status" => {
            let client = CtrlClient::new(need_addr()?);
            match client.status(need_id()?).map_err(|e| e.to_string())? {
                JobStatus::Queued { position } => println!("queued position={position}"),
                JobStatus::Running => println!("running"),
                JobStatus::Done(r) => println!(
                    "done end={} checksum={:016x}{}",
                    r.end.name(),
                    r.checksum,
                    r.error.map(|e| format!(" error={e}")).unwrap_or_default()
                ),
            }
            Ok(())
        }
        "cancel" => {
            let client = CtrlClient::new(need_addr()?);
            let verdict = client.cancel(need_id()?).map_err(|e| e.to_string())?;
            println!("cancel {verdict:?}");
            Ok(())
        }
        "stats" | "drain" => {
            let client = CtrlClient::new(need_addr()?);
            let s = if verb == "drain" {
                client.drain().map_err(|e| e.to_string())?
            } else {
                client.stats().map_err(|e| e.to_string())?
            };
            let out = Json::obj()
                .field("submitted", Json::from(s.submitted))
                .field("admitted", Json::from(s.admitted))
                .field("completed", Json::from(s.completed))
                .field("failed", Json::from(s.failed))
                .field("cancelled", Json::from(s.cancelled))
                .field("rejected", Json::from(s.rejected))
                .field("queue_depth", Json::from(s.queue_depth))
                .field("peak_queue_depth", Json::from(s.peak_queue_depth))
                .field("running", Json::from(s.running))
                .field("slots_total", Json::from(s.slots_total))
                .field("slots_busy", Json::from(s.slots_busy))
                .field("peak_slots_busy", Json::from(s.peak_slots_busy))
                .field("runners_started", Json::from(s.runners_started));
            println!("{out}");
            Ok(())
        }
        "shutdown" => {
            let client = CtrlClient::new(need_addr()?);
            client.shutdown().map_err(|e| e.to_string())?;
            println!("server stopped");
            Ok(())
        }
        other => Err(format!("unknown sched verb {other:?}\n{SCHED_USAGE}")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("sched") {
        if let Err(msg) = run_sched(&argv[1..]) {
            eprintln!("dcuda-launch: {msg}");
            std::process::exit(2);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let result = match (args.worker_index, args.control.as_deref()) {
        (Some(index), Some(control)) => run_worker(&args, index, control),
        (None, None) if args.backend == "inprocess" => run_inprocess(&args),
        (None, None) => run_coordinator(&args),
        _ => Err("--worker-index and --control must be passed together".into()),
    };
    if let Err(msg) = result {
        eprintln!("dcuda-launch: {msg}");
        std::process::exit(1);
    }
}
