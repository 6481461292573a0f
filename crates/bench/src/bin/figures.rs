//! Regenerate the dCUDA paper's evaluation figures as printed series.
//!
//! ```text
//! figures [--fig 6|7|8|9|10|11|ablations|all[,..]] [--full]
//!         [--serial] [--json [PATH]] [--trace PATH] [--verify [race]]
//! ```
//!
//! Default: all figures at `--quick` effort, rows fanned out over all
//! cores. `--full` uses the paper's iteration counts (slower). `--serial`
//! disables the parallel driver (the simulated series are identical either
//! way — diffing the two outputs is the determinism check). `--json`
//! additionally writes the machine-readable series to `BENCH_figures.json`
//! (or PATH); the schema is documented in EXPERIMENTS.md. `--trace PATH`
//! runs one representative traced simulation for the selected figure and
//! writes a Chrome-trace / Perfetto JSON timeline to PATH (see
//! EXPERIMENTS.md for the walkthrough). `--verify` attaches the
//! `dcuda-verify` invariant monitor to every simulation: the run aborts
//! loudly on any conservation/delivery violation, and the printed series
//! are byte-identical to a verify-off run (the monitor observes, it never
//! schedules). `--verify race` adds the happens-before race detector and
//! exits 1 if any simulation raced. `--fig` accepts a comma list
//! (`--fig 6,7,8`).

use dcuda_apps::micro::overlap::{OverlapPoint, Workload};
use dcuda_bench::json::Json;
use dcuda_bench::{
    ablation_bcast_put, ablation_match_cost, ablation_occupancy, ablation_staging,
    ablation_vertical_levels, fig10, fig11, fig6, fig7_8, fig9, set_serial, Effort, ScalingRow,
};
use dcuda_core::SystemSpec;

fn print_scaling(name: &str, rows: &[ScalingRow]) {
    println!("\n== {name} ==");
    println!(
        "{:>6} {:>14} {:>14} {:>20}",
        "nodes", "dCUDA [ms]", "MPI-CUDA [ms]", "halo/comm [ms]"
    );
    for r in rows {
        println!(
            "{:>6} {:>14.2} {:>14.2} {:>20.2}",
            r.nodes, r.dcuda_ms, r.mpicuda_ms, r.halo_ms
        );
    }
}

fn scaling_json(rows: &[ScalingRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj()
                    .field("nodes", Json::from(r.nodes))
                    .field("dcuda_ms", Json::from(r.dcuda_ms))
                    .field("mpicuda_ms", Json::from(r.mpicuda_ms))
                    .field("halo_ms", Json::from(r.halo_ms))
            })
            .collect(),
    )
}

fn overlap_json(points: &[OverlapPoint]) -> Json {
    Json::Arr(
        points
            .iter()
            .map(|p| {
                Json::obj()
                    .field("work_iters", Json::from(p.work_iters))
                    .field("full_ms", Json::from(p.full_ms))
                    .field("compute_ms", Json::from(p.compute_ms))
                    .field("exchange_ms", Json::from(p.exchange_ms))
                    .field("overlap_efficiency", Json::from(p.overlap_efficiency()))
            })
            .collect(),
    )
}

const USAGE: &str = "usage: figures [--fig 6|7|8|9|10|11|ablations|all[,..]] [--full] [--serial] [--json [PATH]] [--trace PATH] [--verify [race]]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Values consumed by --fig / --json; everything else must be a known flag.
    let mut value_slots = Vec::new();
    let effort = if args.iter().any(|a| a == "--full") {
        Effort::Full
    } else {
        Effort::Quick
    };
    if args.iter().any(|a| a == "--serial") {
        set_serial(true);
    }
    let verify_pos = args.iter().position(|a| a == "--verify");
    let verify = verify_pos.is_some();
    let verify_race = match verify_pos {
        Some(i) => match args.get(i + 1).filter(|p| !p.starts_with("--")) {
            Some(v) if v == "race" => {
                value_slots.push(i + 1);
                true
            }
            Some(v) => {
                eprintln!("figures: unknown --verify value {v:?} (expected race)");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
            None => false,
        },
        None => false,
    };
    if verify {
        // Every ClusterSim built from here on carries the invariant
        // monitor; a violation panics the run. Stdout stays byte-identical.
        dcuda_core::verify_mode::enable();
    }
    if verify_race {
        // ... and the happens-before race detector; races are tallied
        // process-wide and reported (as a failing exit) after the runs.
        dcuda_core::verify_mode::enable_races();
    }
    let json_path: Option<String> = args.iter().position(|a| a == "--json").map(|i| {
        match args.get(i + 1).filter(|p| !p.starts_with("--")) {
            Some(p) => {
                value_slots.push(i + 1);
                p.clone()
            }
            None => "BENCH_figures.json".to_string(),
        }
    });
    let trace_path: Option<String> = args.iter().position(|a| a == "--trace").map(|i| {
        match args.get(i + 1).filter(|p| !p.starts_with("--")) {
            Some(p) => {
                value_slots.push(i + 1);
                p.clone()
            }
            None => {
                eprintln!("figures: --trace needs a PATH");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    });
    let which = match args.iter().position(|a| a == "--fig") {
        Some(i) => {
            value_slots.push(i + 1);
            args.get(i + 1).cloned().unwrap_or_default()
        }
        None => "all".to_string(),
    };
    const FIGS: [&str; 8] = ["6", "7", "8", "9", "10", "11", "ablations", "all"];
    let selected: Vec<&str> = which.split(',').map(str::trim).collect();
    for part in &selected {
        if !FIGS.contains(part) {
            eprintln!("figures: unknown --fig value {part:?} (expected a comma list of {FIGS:?})");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
    for (i, a) in args.iter().enumerate() {
        if !value_slots.contains(&i)
            && ![
                "--fig", "--full", "--serial", "--json", "--trace", "--verify",
            ]
            .contains(&a.as_str())
        {
            eprintln!("figures: unknown argument {a:?}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
    let spec = SystemSpec::greina();
    let all = selected.contains(&"all");
    let started = std::time::Instant::now();
    let mut out = Json::obj()
        .field("schema", Json::str("dcuda-figures-v1"))
        .field(
            "effort",
            Json::str(if effort == Effort::Full {
                "full"
            } else {
                "quick"
            }),
        )
        .field("serial", Json::from(dcuda_bench::is_serial()));

    if all || selected.contains(&"6") {
        println!("== Figure 6: put bandwidth (paper: saturates ~5757.6 MB/s distributed, ~1057.9 MB/s shared; 19.4 us / 7.8 us empty-packet latency) ==");
        println!(
            "{:>12} {:>14} {:>16} {:>18}",
            "placement", "packet [B]", "latency [us]", "bandwidth [MB/s]"
        );
        let rows = fig6(&spec, effort);
        for row in &rows {
            println!(
                "{:>12} {:>14} {:>16.2} {:>18.1}",
                format!("{:?}", row.placement),
                row.result.bytes,
                row.result.latency_us,
                row.result.bandwidth_mbs
            );
        }
        out = out.field(
            "fig6",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj()
                            .field("placement", Json::str(format!("{:?}", r.placement)))
                            .field("bytes", Json::from(r.result.bytes))
                            .field("latency_us", Json::from(r.result.latency_us))
                            .field("bandwidth_mbs", Json::from(r.result.bandwidth_mbs))
                    })
                    .collect(),
            ),
        );
    }
    for (fig, workload) in [("7", Workload::Newton), ("8", Workload::Copy)] {
        if all || selected.contains(&fig) {
            let label = match workload {
                Workload::Newton => "Figure 7: overlap, Newton-Raphson (compute-bound)",
                Workload::Copy => "Figure 8: overlap, memory-to-memory copy (bandwidth-bound)",
            };
            println!("\n== {label} ==");
            println!(
                "{:>8} {:>20} {:>16} {:>16} {:>10}",
                "iters/x", "compute&exch [ms]", "compute [ms]", "exchange [ms]", "overlap"
            );
            let points = fig7_8(&spec, workload, effort);
            for p in &points {
                println!(
                    "{:>8} {:>20.3} {:>16.3} {:>16.3} {:>10.2}",
                    p.work_iters,
                    p.full_ms,
                    p.compute_ms,
                    p.exchange_ms,
                    p.overlap_efficiency()
                );
            }
            out = out.field(&format!("fig{fig}"), overlap_json(&points));
        }
    }
    if all || selected.contains(&"9") {
        let rows = fig9(&spec, effort);
        print_scaling(
            "Figure 9: particle simulation weak scaling (paper: dCUDA wins beyond ~3 nodes; MPI-CUDA scaling cost ~ halo time)",
            &rows,
        );
        out = out.field("fig9", scaling_json(&rows));
    }
    if all || selected.contains(&"10") {
        let rows = fig10(&spec, effort);
        print_scaling(
            "Figure 10: stencil weak scaling (paper: dCUDA flat, fully overlapped; MPI-CUDA pays the halo)",
            &rows,
        );
        out = out.field("fig10", scaling_json(&rows));
    }
    if all || selected.contains(&"11") {
        let rows = fig11(&spec, effort);
        print_scaling(
            "Figure 11: SpMV weak scaling (paper: no overlap; dCUDA comparable, catching up at 9 nodes)",
            &rows,
        );
        out = out.field("fig11", scaling_json(&rows));
    }
    if all || selected.contains(&"ablations") {
        let occupancy = ablation_occupancy(&spec);
        println!("\n== Ablation: occupancy vs overlap efficiency (Little's law) ==");
        for (blocks_per_sm, eff) in &occupancy {
            println!("blocks/SM = {blocks_per_sm:>3}: overlap efficiency {eff:.2}");
        }
        let staging = ablation_staging(&spec);
        println!("\n== Ablation: host-staging threshold vs 1 MiB put bandwidth ==");
        for &(threshold, bw) in &staging {
            let t = if threshold == u64::MAX {
                "never".to_string()
            } else {
                format!("{} kB", threshold / 1024)
            };
            println!("stage >= {t:>8}: {bw:.0} MB/s");
        }
        let match_cost = ablation_match_cost(&spec);
        println!("\n== Ablation: notification matching cost vs Newton overlap ==");
        for &(us, full) in &match_cost {
            println!("match cost {us:.1} us/entry: compute&exchange {full:.3} ms");
        }
        let bcast = ablation_bcast_put(&spec);
        println!(
            "\n== Ablation: SpMV x fan-out — notification tree vs broadcast-put (paper SV) =="
        );
        for &(nodes, tree, bput) in &bcast {
            println!("nodes={nodes}: tree {tree:.2} ms, put_notify_all {bput:.2} ms");
        }
        let vertical = ablation_vertical_levels(&spec);
        println!(
            "\n== Ablation: vertical levels vs stencil variants (paper SIV-C staging claim) =="
        );
        for &(k, d, m) in &vertical {
            println!(
                "ksize={k:>3} (MPI halo {:>3} kB): dCUDA {d:.2} ms, MPI-CUDA {m:.2} ms, ratio {:.2}",
                k, m / d
            );
        }
        out = out.field(
            "ablations",
            Json::obj()
                .field(
                    "occupancy",
                    Json::Arr(
                        occupancy
                            .iter()
                            .map(|&(bps, eff)| {
                                Json::obj()
                                    .field("blocks_per_sm", Json::from(bps))
                                    .field("overlap_efficiency", Json::from(eff))
                            })
                            .collect(),
                    ),
                )
                .field(
                    "staging",
                    Json::Arr(
                        staging
                            .iter()
                            .map(|&(thr, bw)| {
                                Json::obj()
                                    .field(
                                        "threshold_bytes",
                                        if thr == u64::MAX {
                                            Json::Null
                                        } else {
                                            Json::from(thr)
                                        },
                                    )
                                    .field("bandwidth_mbs", Json::from(bw))
                            })
                            .collect(),
                    ),
                )
                .field(
                    "match_cost",
                    Json::Arr(
                        match_cost
                            .iter()
                            .map(|&(us, ms)| {
                                Json::obj()
                                    .field("us_per_entry", Json::from(us))
                                    .field("full_ms", Json::from(ms))
                            })
                            .collect(),
                    ),
                )
                .field(
                    "bcast_put",
                    Json::Arr(
                        bcast
                            .iter()
                            .map(|&(nodes, tree, bput)| {
                                Json::obj()
                                    .field("nodes", Json::from(nodes))
                                    .field("tree_ms", Json::from(tree))
                                    .field("bcast_ms", Json::from(bput))
                            })
                            .collect(),
                    ),
                )
                .field(
                    "vertical_levels",
                    Json::Arr(
                        vertical
                            .iter()
                            .map(|&(k, d, m)| {
                                Json::obj()
                                    .field("ksize", Json::from(k))
                                    .field("dcuda_ms", Json::from(d))
                                    .field("mpicuda_ms", Json::from(m))
                            })
                            .collect(),
                    ),
                ),
        );
    }
    if let Some(path) = &trace_path {
        // One traced run of the figure's representative workload (Copy for
        // the bandwidth-bound Figure 8, Newton otherwise).
        let workload = if selected.contains(&"8") {
            Workload::Copy
        } else {
            Workload::Newton
        };
        let (chrome_json, summary) = dcuda_bench::trace_run(&spec, workload);
        if let Err(e) = std::fs::write(path, &chrome_json) {
            eprintln!("figures: cannot write trace {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("figures: wrote Chrome trace {path} (load in https://ui.perfetto.dev)");
        match summary.overlap_efficiency {
            Some(eff) => eprintln!("figures: traced overlap efficiency {eff:.3}"),
            None => eprintln!("figures: traced run recorded no rank waits"),
        }
        eprintln!(
            "figures: traced wait spans {}, network messages {}",
            summary.wait_hist.summary().count(),
            summary.net_hist.summary().count()
        );
    }

    let wall = started.elapsed().as_secs_f64();
    eprintln!("\nfigures: {wall:.2} s wall clock");
    if verify {
        // Reaching here means no simulation panicked on a violation.
        eprintln!("figures: invariant monitor clean on every simulation");
    }
    if verify_race {
        let n = dcuda_core::verify_mode::races_found();
        if n > 0 {
            eprintln!("figures: race detector found {n} race(s) — see RunReport.races");
            std::process::exit(1);
        }
        eprintln!("figures: race detector clean on every simulation");
    }
    if let Some(path) = json_path {
        out = out.field("wall_seconds", Json::from(wall));
        if let Err(e) = std::fs::write(&path, format!("{out}\n")) {
            eprintln!("figures: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("figures: wrote {path}");
    }
}
