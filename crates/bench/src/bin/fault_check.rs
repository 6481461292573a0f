//! Fault-soak gate for CI: run the overlap workload across the whole fault
//! profile matrix (drop / duplication / reorder / brownout / NIC stalls /
//! the combined lossy profile) under the `dcuda-verify` invariant monitor,
//! and check seed-reproducibility of every faulted run.
//!
//! ```text
//! fault_check [--seeds N] [--profiles a,b,c]
//! ```
//!
//! Each (profile, seed) cell runs twice: both runs must finish with clean
//! invariants (conservation, exactly-once delivery — a violation panics)
//! and produce byte-identical `RunReport`s. A 208-rank run of the issue's
//! acceptance profile (1% drop + 0.5% duplication) rides along, and a
//! transport soak streams sequence-tagged messages over real tcp and shm
//! endpoint pairs under the same `FaultSpec::stream_rates()` profile —
//! both planes must absorb injected drops/dups below the protocol (FIFO,
//! exactly-once) while proving the injection actually fired. Exits
//! nonzero if any cell fails.

use dcuda_apps::micro::overlap::{run_faulted, OverlapConfig, Workload};
use dcuda_bench::par_map;
use dcuda_core::SystemSpec;
use dcuda_fabric::FaultSpec;
use dcuda_net::wire::WireMsg;
use dcuda_net::{shm_supported, NetConfig, NetEndpoint, NetFaults, SocketPlane, Transport};
use std::time::{Duration, Instant};

const DEFAULT_PROFILES: &str = "drop,dup,reorder,brownout,stall,lossy";

fn soak_config(ranks_per_node: u32) -> OverlapConfig {
    let mut c = OverlapConfig::paper(Workload::Newton, 64, 40);
    c.nodes = 2;
    c.ranks_per_node = ranks_per_node;
    c
}

/// The ring only crosses the fabric at node boundaries, so the soak scales
/// each preset's loss probabilities up to make every cell statistically
/// certain to inject (the acceptance cell below runs the issue's exact
/// 1% + 0.5% profile unscaled).
const SOAK_INTENSITY: f64 = 5.0;

struct Cell {
    label: String,
    spec: FaultSpec,
    ranks_per_node: u32,
}

/// One endpoint per side of a loopback mesh under `faults`; `shm_dir`
/// switches the pair onto the shared-memory plane.
fn mesh_pair(
    faults: Option<NetFaults>,
    shm_dir: Option<&std::path::Path>,
) -> (NetEndpoint, NetEndpoint) {
    let config = NetConfig {
        faults,
        ..NetConfig::default()
    };
    let dir = shm_dir.map(std::path::Path::to_path_buf);
    let [mut a, mut b] = SocketPlane::loopback_pair(config, dir).expect("mesh");
    (a.pop().expect("endpoint 0"), b.pop().expect("endpoint 1"))
}

/// Stream `msgs` sequence-tagged messages (alternating eager-class/large
/// sizes) over a lossy endpoint pair and return
/// `(injected_events, error)` — FIFO exactly-once is asserted inline.
fn lossy_stream(a: &mut NetEndpoint, b: &mut NetEndpoint, msgs: u64) -> Result<u64, String> {
    fn drain(b: &mut NetEndpoint, expect: &mut u64) -> Result<(), String> {
        while let Some(m) = b.try_recv().map_err(|e| e.to_string())? {
            let WireMsg::Deliver { data, .. } = m else {
                return Err("unexpected control message".into());
            };
            let mut tag = [0u8; 8];
            tag.copy_from_slice(&data[..8]);
            let got = u64::from_le_bytes(tag);
            if got != *expect {
                return Err(format!("FIFO broken: expected {expect}, got {got}"));
            }
            *expect += 1;
        }
        Ok(())
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut expect = 0u64;
    for i in 0..msgs {
        // Odd messages ride the large-message path (one vectored tcp frame,
        // a jumbo chain on shm), even ones eager.
        let len = if i % 2 == 0 { 256 } else { 8 << 10 };
        let mut data = vec![(i % 251) as u8; len];
        data[..8].copy_from_slice(&i.to_le_bytes());
        a.send(
            1,
            WireMsg::Deliver {
                dst_local: 0,
                win: 0,
                dst_off: 0,
                source: 1,
                tag: 3,
                notify: true,
                seq: 0,
                origin_device: 0,
                origin_local: 0,
                flush_id: 1,
                data,
            },
        )
        .map_err(|e| e.to_string())?;
        a.pump().map_err(|e| e.to_string())?;
        drain(b, &mut expect)?;
    }
    while expect < msgs {
        a.pump().map_err(|e| e.to_string())?;
        b.pump().map_err(|e| e.to_string())?;
        drain(b, &mut expect)?;
        if Instant::now() > deadline {
            return Err(format!("stalled at {expect}/{msgs} messages"));
        }
    }
    // Drops surface as retries on the sender; duplicates as suppressions
    // on the receiver — evidence of injection lives on both endpoints.
    let (sa, sb) = (a.stats(), b.stats());
    Ok(sa.net_retries + sb.net_dups_suppressed)
}

/// Soak both transport planes under the stream-level lossy profile: the
/// injection must fire (nonzero retries+dups) and must stay invisible to
/// the message layer (FIFO, exactly-once, nothing lost).
fn transport_soak(seeds: u64) -> u32 {
    const MSGS: u64 = 200;
    let mut failures = 0u32;
    println!(
        "\n{:<22} {:>9} {:>9}  verdict",
        "transport soak", "msgs", "injected"
    );
    for seed in 1..=seeds {
        let spec = match FaultSpec::parse(&format!("lossy@{seed}")) {
            Ok(s) => s.scaled(SOAK_INTENSITY),
            Err(e) => {
                eprintln!("fault_check: lossy profile: {e}");
                std::process::exit(2);
            }
        };
        let Some(r) = spec.stream_rates() else {
            eprintln!("fault_check: lossy profile lacks stream rates");
            std::process::exit(2);
        };
        let faults = Some(NetFaults {
            seed: r.seed,
            drop_p: r.drop_p,
            dup_p: r.dup_p,
        });
        let shm_dir =
            std::env::temp_dir().join(format!("dcuda-fault-shm-{}-{seed}", std::process::id()));
        let planes: Vec<(&str, Option<std::path::PathBuf>)> = if shm_supported() {
            std::fs::create_dir_all(&shm_dir).expect("shm dir");
            vec![("tcp", None), ("shm", Some(shm_dir.clone()))]
        } else {
            vec![("tcp", None)]
        };
        for (plane, dir) in &planes {
            let (mut a, mut b) = mesh_pair(faults, dir.as_deref());
            let label = format!("lossy@{seed} {plane}");
            match lossy_stream(&mut a, &mut b, MSGS) {
                Ok(injected) => {
                    let ok = injected > 0;
                    if !ok {
                        failures += 1;
                    }
                    println!(
                        "{label:<22} {MSGS:>9} {injected:>9}  {}",
                        if ok { "ok" } else { "FAIL (no injection)" }
                    );
                }
                Err(e) => {
                    failures += 1;
                    println!("{label:<22} {MSGS:>9} {:>9}  FAIL ({e})", "-");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&shm_dir);
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seeds = 3u64;
    let mut profiles = DEFAULT_PROFILES.to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                seeds = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("fault_check: --seeds needs a positive integer");
                    std::process::exit(2);
                });
            }
            "--profiles" => {
                i += 1;
                profiles = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("fault_check: --profiles needs a comma list");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("fault_check: unknown argument {other:?}");
                eprintln!("usage: fault_check [--seeds N] [--profiles a,b,c]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // Every simulation from here on carries the invariant monitor; any
    // conservation or exactly-once violation panics the run.
    dcuda_core::verify_mode::enable();

    let mut cells = Vec::new();
    for name in profiles.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        for seed in 1..=seeds {
            let profile = format!("{name}@{seed}");
            match FaultSpec::parse(&profile) {
                Ok(spec) => cells.push(Cell {
                    label: profile,
                    spec: spec.scaled(SOAK_INTENSITY),
                    ranks_per_node: 26,
                }),
                Err(e) => {
                    eprintln!("fault_check: bad profile {profile:?}: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
    // Acceptance scale: 208 ranks on the issue's 1% drop + 0.5% dup profile.
    cells.push(Cell {
        label: "lossy@1 (208 ranks)".to_string(),
        spec: FaultSpec::lossy(1),
        ranks_per_node: 104,
    });

    let system = SystemSpec::greina();
    let started = std::time::Instant::now();
    let verdicts = par_map(cells, |cell| {
        let cfg = soak_config(cell.ranks_per_node);
        let (ms_a, report_a) = run_faulted(&system, &cfg, &cell.spec);
        let (_, report_b) = run_faulted(&system, &cfg, &cell.spec);
        let a = format!("{report_a:?}");
        let b = format!("{report_b:?}");
        let reproducible = a == b;
        let clean = report_a.verify.as_ref().is_none_or(|v| v.is_clean());
        (cell.label, ms_a, report_a, reproducible, clean)
    });

    let mut failures = 0u32;
    println!(
        "{:<22} {:>10} {:>7} {:>9} {:>9} {:>9} {:>9}  verdict",
        "profile", "full [ms]", "drops", "retries", "deduped", "demoted", "replayed"
    );
    for (label, ms, report, reproducible, clean) in verdicts {
        let ok = reproducible && clean;
        if !ok {
            failures += 1;
        }
        println!(
            "{:<22} {:>10.3} {:>7} {:>9} {:>9} {:>9} {:>9}  {}",
            label,
            ms,
            report.fault_drops,
            report.retries,
            report.dups_suppressed,
            report.demotions,
            if reproducible { "yes" } else { "NO" },
            if ok { "ok" } else { "FAIL" }
        );
    }
    failures += transport_soak(seeds);
    eprintln!(
        "fault_check: {:.2} s wall clock, {} failure(s)",
        started.elapsed().as_secs_f64(),
        failures
    );
    if failures > 0 {
        std::process::exit(1);
    }
    println!("fault_check: all profiles clean, exactly-once, and seed-reproducible");
}
