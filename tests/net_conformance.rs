//! Backend-conformance suite for `dcuda-launch`: the same world, workload
//! and seed must produce byte-identical protocol counters and window
//! checksums whether the cluster runs in one OS process (`--backend
//! inprocess`) or is split across a mesh of workers — and, for the
//! multi-process runs, whether the peer pairs negotiated the TCP socket
//! plane (`--plane tcp`) or the same-host shared-memory ring plane
//! (`--plane shm`).
//!
//! The quick tier keeps `cargo test` fast (inprocess vs tcp);
//! `DCUDA_FULL_TESTS=1` (set in CI) grows the worlds, pushes payloads past
//! the eager size class (`EAGER_MAX`), and adds the shm-plane column of the
//! matrix plus the plane-parametrized orphan-cleanup run.

use dcuda::bench::json::Json;
use dcuda::des::check::full_tier;
use std::process::Command;
use std::time::Instant;

/// Protocol counters that must agree exactly across backends. Transport
/// counters (`net.*`) legitimately differ — sockets move frames, the
/// in-process plane does not — so they are deliberately not in this list.
const COUNTERS: &[&str] = &[
    "puts",
    "notifications",
    "matched",
    "barriers",
    "coll_puts",
    "coll_bytes",
    "coll_chunks",
];

/// Run `dcuda-launch` with the given arguments and parse the report it
/// prints to stdout.
fn run_report(argv: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_dcuda-launch"))
        .args(argv)
        .output()
        .expect("spawn dcuda-launch");
    assert!(
        out.status.success(),
        "dcuda-launch {argv:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 report");
    Json::parse(text.trim()).expect("report JSON")
}

fn counter(report: &Json, key: &str) -> u64 {
    report
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("report missing counter {key:?}"))
}

fn net_counter(report: &Json, key: &str) -> u64 {
    report
        .get("net")
        .and_then(|n| n.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Assert every negotiated pair in the report used `plane`.
fn assert_plane_pairs(report: &Json, plane: &str) {
    let pairs = report
        .get("plane_pairs")
        .and_then(Json::entries)
        .expect("report lacks plane_pairs");
    assert!(!pairs.is_empty(), "multiprocess report has no plane pairs");
    for (pair, kind) in pairs {
        assert_eq!(
            kind.as_str(),
            Some(plane),
            "pair {pair} negotiated the wrong plane"
        );
    }
}

/// Run one workload shape on the in-process backend plus one multi-process
/// plane per entry of `planes`, and assert every report agrees with the
/// in-process golden on protocol counters and checksum.
fn assert_backends_agree(
    workload: &str,
    iters: u32,
    payload: usize,
    ranks_per_device: u32,
    planes: &[&str],
) {
    let iters = iters.to_string();
    let payload = payload.to_string();
    let rpd = ranks_per_device.to_string();
    let base = [
        "--procs",
        "2",
        "--devices-per-proc",
        "1",
        "--ranks-per-device",
        rpd.as_str(),
        "--workload",
        workload,
        "--iters",
        iters.as_str(),
        "--payload",
        payload.as_str(),
    ];
    let mut inproc_args = vec!["--backend", "inprocess"];
    inproc_args.extend_from_slice(&base);
    let inproc = run_report(&inproc_args);
    assert!(
        counter(&inproc, "notifications") > 0 || counter(&inproc, "coll_puts") > 0,
        "{workload} is vacuous"
    );
    let sum_in = inproc
        .get("checksum")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{workload}: inprocess report lacks checksum"));

    for &plane in planes {
        let mut multi_args = vec!["--backend", "multiprocess", "--plane", plane];
        multi_args.extend_from_slice(&base);
        let multi = run_report(&multi_args);

        for &key in COUNTERS {
            assert_eq!(
                counter(&inproc, key),
                counter(&multi, key),
                "{workload}/{plane}: counter {key:?} diverges between backends"
            );
        }
        let sum_mp = multi.get("checksum").and_then(Json::as_str);
        assert_eq!(
            Some(sum_in),
            sum_mp,
            "{workload}/{plane}: window checksum diverges"
        );
        assert_plane_pairs(&multi, plane);

        // Guard against a vacuous pass: the multi-process run must have
        // actually moved bytes over the plane it claims it negotiated.
        match plane {
            "shm" => assert!(
                net_counter(&multi, "shm_msgs") > 0,
                "{workload}/shm: no messages crossed the shared-memory rings"
            ),
            _ => assert!(
                net_counter(&multi, "frames_sent") > 0,
                "{workload}/{plane}: no frames crossed the socket mesh"
            ),
        }
    }
}

/// Which multi-process planes this tier compares against the in-process
/// golden. The shm cells only run in the full tier (and require a host
/// where `memfd`/`mmap`-backed rings work, which CI's Linux runners are).
fn tier_planes() -> &'static [&'static str] {
    if full_tier("shm plane column") {
        &["tcp", "shm"]
    } else {
        &["tcp"]
    }
}

/// Golden conformance: the pingpong microbenchmark (paper Figure 6 shape).
/// Full tier pushes the payload past EAGER_MAX so the large class is exercised.
#[test]
fn conformance_pingpong_backends_agree() {
    if full_tier("pingpong large-message world") {
        assert_backends_agree("pingpong", 20, 4096, 8, tier_planes());
    } else {
        assert_backends_agree("pingpong", 5, 512, 4, tier_planes());
    }
}

/// Golden conformance: one stencil configuration with per-iteration world
/// barriers, so barrier tokens cross the mesh every round.
#[test]
fn conformance_stencil_backends_agree() {
    if full_tier("stencil full-scale world") {
        assert_backends_agree("stencil", 10, 4096, 8, tier_planes());
    } else {
        assert_backends_agree("stencil", 4, 384, 3, tier_planes());
    }
}

/// The ring program, the overlap microbenchmark's shape — the headline
/// workload `dcuda-launch` runs.
#[test]
fn conformance_overlap_backends_agree() {
    if full_tier("ring full-scale world") {
        assert_backends_agree("ring", 20, 4096, 8, tier_planes());
    } else {
        assert_backends_agree("ring", 6, 1024, 4, tier_planes());
    }
}

/// The collective engine across planes: chunked allreduce (all three
/// algorithms), reduce-scatter, all-gather and broadcast must produce
/// byte-identical checksums and schedule counters on every backend. The
/// world is deliberately non-power-of-two (2 procs x 3 or 7 ranks), so the
/// recursive-doubling fold/unfold and uneven ring segments cross the mesh.
#[test]
fn conformance_coll_backends_agree() {
    if full_tier("coll full-scale world") {
        assert_backends_agree("coll", 6, 4096, 7, tier_planes());
    } else {
        assert_backends_agree("coll", 3, 512, 3, tier_planes());
    }
}

/// Progress-engine conformance: the identical world run with the
/// asynchronous progress pool (`--progress 2` plus a busy host loop) must
/// match the inline engine's protocol counters and window checksum on the
/// in-process backend and on every multi-process plane of the tier — the
/// pool moves progress passes onto other threads, it never changes what
/// the protocol does. Each threaded run must also prove the pool actually
/// ran (frames drained off-thread; on the in-process backend, passes stolen
/// across engines), so the comparison cannot pass vacuously with the
/// workers asleep.
fn assert_progress_pool_matches_inline(workload: &str, iters: u32, payload: usize, rpd: u32) {
    let iters = iters.to_string();
    let payload = payload.to_string();
    let rpd = rpd.to_string();
    let base = [
        "--procs",
        "2",
        "--devices-per-proc",
        "1",
        "--ranks-per-device",
        rpd.as_str(),
        "--workload",
        workload,
        "--iters",
        iters.as_str(),
        "--payload",
        payload.as_str(),
    ];
    let mut inline_args = vec!["--backend", "inprocess"];
    inline_args.extend_from_slice(&base);
    let golden = run_report(&inline_args);

    let mut backends: Vec<Vec<&str>> = vec![vec!["--backend", "inprocess"]];
    for &plane in tier_planes() {
        backends.push(vec!["--backend", "multiprocess", "--plane", plane]);
    }
    for mut argv in backends {
        let label = argv.join(" ");
        argv.extend_from_slice(&base);
        argv.extend_from_slice(&["--progress", "2", "--host-busy", "50000"]);
        let threaded = run_report(&argv);
        for &key in COUNTERS {
            assert_eq!(
                counter(&golden, key),
                counter(&threaded, key),
                "{workload} [{label}]: counter {key:?} diverges between the \
                 inline engine and the progress pool"
            );
        }
        assert_eq!(
            golden.get("checksum").and_then(Json::as_str),
            threaded.get("checksum").and_then(Json::as_str),
            "{workload} [{label}]: window checksum diverges under the progress pool"
        );
        assert!(
            net_counter(&threaded, "progress_frames") > 0,
            "{workload} [{label}]: progress pool drained no frames off-thread \
             — the byte-identical comparison is vacuous"
        );
        // Stealing needs two engines in one pool: the in-process world has
        // both devices in one part, while a multi-process part here holds
        // one device, whose second worker only races the first for its lock.
        if label == "--backend inprocess" {
            assert!(
                net_counter(&threaded, "steals") > 0,
                "{workload} [{label}]: no pool worker progressed an engine \
                 homed on another — the work-stealing half of the pool never ran"
            );
        }
    }
}

/// The progress-pool column of the conformance matrix (quick: in-process +
/// tcp on a small halo exchange; full: bigger worlds, large-class payloads,
/// the shm plane and a chunked collective). The ring workload is the
/// golden shape here because its halo exchange crosses devices — pingpong
/// pairs adjacent same-device ranks, which would leave the plane (and the
/// off-thread drain counter) empty.
#[test]
fn conformance_progress_pool_matches_inline() {
    if full_tier("progress-pool coll cell") {
        assert_progress_pool_matches_inline("ring", 20, 4096, 8);
        assert_progress_pool_matches_inline("coll", 3, 512, 3);
    } else {
        assert_progress_pool_matches_inline("ring", 6, 1024, 4);
    }
}

/// Orphan-cleanup regression: when a worker dies mid-run the coordinator
/// must fail fast (nonzero exit, bounded time) and reap the surviving
/// worker rather than hanging on a half-dead mesh.
fn killed_worker_on_plane(plane: &str) {
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_dcuda-launch"))
        .args([
            "--backend",
            "multiprocess",
            "--plane",
            plane,
            "--procs",
            "2",
            "--ranks-per-device",
            "4",
            "--workload",
            "ring",
            "--iters",
            "5000",
            "--payload",
            "1024",
            "--die-proc",
            "1",
            "--timeout-secs",
            "30",
        ])
        .output()
        .expect("spawn dcuda-launch");
    let elapsed = start.elapsed();
    assert!(
        !out.status.success(),
        "a run with a dead worker must not report success ({plane}): {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        elapsed.as_secs() < 60,
        "coordinator took {elapsed:?} to notice the dead worker ({plane})"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("worker"),
        "failure should name the dead worker ({plane}), got: {stderr}"
    );
}

#[test]
fn killed_worker_fails_fast_without_orphans() {
    killed_worker_on_plane("tcp");
}

/// Same orphan-cleanup guarantee when the dead peer was reached over the
/// shared-memory plane — liveness there comes from `kill(pid, 0)` probing
/// rather than a socket EOF, so it is a genuinely different code path.
#[test]
fn killed_worker_fails_fast_on_shm_plane() {
    if !full_tier("shm orphan-cleanup run") {
        return;
    }
    killed_worker_on_plane("shm");
}
