//! CI entry point for the dcuda-verify toolchain.
//!
//! ```text
//! verify_check [--quick] [--replay SCHEDULE]
//! ```
//!
//! Runs, in order:
//!
//! 1. the **model-check regression corpus** (`dcuda_verify::run_suite`) —
//!    exhaustive interleaving enumeration of the production SPSC ring and
//!    notification compaction at small bounds, including the seeded
//!    `Release`→`Relaxed` mutation the checker must catch and the
//!    lost-wakeup liveness demo (Full tier by default, `--quick` for the
//!    `cargo test` budget);
//! 2. a **threaded-runtime verified smoke**: `try_run_cluster_verified`
//!    on a put/notify/barrier workload, invariant shards reconciled after
//!    the join must be clean;
//! 3. a **simulator monitor run**: the same workload class on the
//!    discrete-event `ClusterSim` with the token-level monitor attached,
//!    plus the transparency check (a verified run must report the same
//!    virtual time and event count as an unverified one);
//! 4. a **wait-for-graph demo**: the deadlock analyzer must flag a
//!    receiver whose only candidate sender already finished.
//!
//! `--replay 0,1,0,...` replays a schedule (as printed in a failure
//! report) against the seeded-mutation model and prints the outcome —
//! the recipe EXPERIMENTS.md documents for reproducing checker findings.

use dcuda_core::types::Topology;
use dcuda_core::{ClusterSim, RankCtx, RankKernel, Suspend, SystemSpec, WindowSpec};
use dcuda_rt::{Rank, RtConfig, RtQuery, Tag, WindowId};
use dcuda_verify::suite::mk_handoff;
use dcuda_verify::{mutation_model, run_suite, Schedule, SuiteEffort, WaitForGraph, WaitReason};

/// A rank kernel that puts `msgs` notified packets to its partner, then
/// waits for the same number back (full-duplex exchange; every rank is
/// both sender and receiver, so conservation is exercised in both roles).
struct Exchange {
    partner: Rank,
    msgs: u32,
    phase: u32,
}

impl RankKernel for Exchange {
    fn resume(&mut self, ctx: &mut RankCtx<'_>) -> Suspend {
        match self.phase {
            0 => {
                self.phase = 1;
                for t in 0..self.msgs {
                    ctx.put_notify(WindowId(0), self.partner, 0, 0, 64, t);
                }
                Suspend::WaitNotifications {
                    win: Some(WindowId(0)),
                    source: Some(self.partner),
                    tag: None,
                    count: self.msgs,
                }
            }
            _ => Suspend::Finished,
        }
    }
}

fn fail(section: &str, detail: &str) -> ! {
    eprintln!("verify_check: FAIL [{section}] {detail}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--replay") {
        let Some(text) = args.get(i + 1) else {
            fail(
                "replay",
                "--replay needs a SCHEDULE (comma-separated choices)",
            );
        };
        let Some(schedule) = Schedule::parse(text) else {
            fail("replay", &format!("cannot parse schedule {text:?}"));
        };
        let outcome = mutation_model().replay(mk_handoff(2, 1), &schedule);
        match outcome.failure() {
            Some(f) => println!("replay: reproduces failure — {f}"),
            None => println!("replay: schedule passes (no failure on this interleaving)"),
        }
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    for a in &args {
        if a != "--quick" {
            eprintln!("usage: verify_check [--quick] [--replay SCHEDULE]");
            std::process::exit(2);
        }
    }
    let started = std::time::Instant::now();

    // 1. Model-check corpus.
    let effort = if quick {
        SuiteEffort::Quick
    } else {
        SuiteEffort::Full
    };
    println!("== model-check corpus ({effort:?}) ==");
    let mut bad = 0;
    for r in run_suite(effort) {
        let verdict = if r.ok() { "ok" } else { "FAIL" };
        let detail = match (&r.expect_fail, r.outcome.failure()) {
            (Some(k), Some(f)) => format!("caught expected {k} ({f})"),
            (Some(k), None) => format!("MISSED expected {k}"),
            (None, Some(f)) => format!("{f}"),
            (None, None) => format!("{} executions", r.outcome.executions()),
        };
        println!("  {verdict:4} {:<40} {detail}", r.name);
        if !r.ok() {
            bad += 1;
        }
    }
    if bad > 0 {
        fail("suite", &format!("{bad} corpus entries off-verdict"));
    }

    // 2. Threaded runtime, invariant shards reconciled after the join.
    println!("== threaded runtime (verified) ==");
    let cfg = RtConfig {
        devices: 2,
        ranks_per_device: 2,
        windows: vec![4096],
        ring_capacity: 16,
        ..RtConfig::default()
    };
    let mut programs: Vec<dcuda_rt::cluster::RankProgram> = Vec::new();
    for rank in 0..cfg.world() {
        let partner = rank ^ 1;
        programs.push(Box::new(move |ctx| {
            for t in 0..8u32 {
                ctx.put_notify(WindowId(0), Rank(partner), 0, 0, 64, Tag(t));
            }
            ctx.flush();
            ctx.wait_notifications(RtQuery::exact(WindowId(0), Rank(partner), Tag::ANY), 8);
            ctx.barrier();
        }));
    }
    match dcuda_rt::try_run_cluster_verified(&cfg, programs) {
        Ok((report, verify)) => {
            if !verify.is_clean() {
                fail("rt", &verify.summary());
            }
            println!(
                "  ok: {} puts, {} matched, monitor clean ({} classes tracked)",
                report.puts, report.matched, verify.notifications_tracked
            );
        }
        Err(e) => fail("rt", &e.to_string()),
    }

    // 3. Simulator monitor + transparency.
    println!("== simulator monitor ==");
    let build = || {
        let topo = Topology {
            nodes: 2,
            ranks_per_node: 2,
        };
        let win = WindowSpec::uniform(&topo, 4096);
        let kernels: Vec<Box<dyn RankKernel>> = (0..topo.world_size())
            .map(|r| {
                Box::new(Exchange {
                    partner: Rank(r ^ 2),
                    msgs: 4,
                    phase: 0,
                }) as Box<dyn RankKernel>
            })
            .collect();
        ClusterSim::new(SystemSpec::greina(), topo, vec![win], kernels)
    };
    let plain = build().run();
    let mut sim = build();
    sim.enable_verification();
    let verified = sim.run(); // panics loudly on a violation
    let v = verified.verify.as_ref().unwrap_or_else(|| {
        fail("sim", "verified run carries no report");
    });
    println!(
        "  ok: {} notifications tracked, monitor clean",
        v.notifications_tracked
    );
    if plain.end_time != verified.end_time || plain.events != verified.events {
        fail(
            "sim",
            &format!(
                "monitor changed the run: {:?}/{} events vs {:?}/{} events",
                plain.end_time, plain.events, verified.end_time, verified.events
            ),
        );
    }
    println!("  ok: verified run byte-identical in virtual time and event count");

    // 4. Deadlock analyzer demo.
    println!("== wait-for graph ==");
    let mut graph = WaitForGraph::new(2);
    graph.set_done(0);
    graph.add_waiter(
        1,
        WaitReason::Notification {
            query: dcuda_queues::Query {
                win: 0,
                source: 0,
                tag: dcuda_queues::ANY,
            },
            want: 1,
        },
    );
    let analysis = graph.analyze();
    if !analysis.is_deadlock() || analysis.no_sender.is_empty() {
        fail("deadlock", &format!("analyzer missed the lint: {analysis}"));
    }
    println!("  ok: {}", format!("{analysis}").trim().replace('\n', "; "));

    println!(
        "verify_check: all sections passed ({:.2} s)",
        started.elapsed().as_secs_f64()
    );
}
