//! Runs one workload the way BENCHMARK.json promises and turns the
//! repetitions into named metrics.
//!
//! Untraced run (`--trace 0`): one warm-up repetition, then fresh-world
//! repetitions until `--seconds` are used up; every end-to-end value is
//! reduced over the repetition values (see [`end_to_end`]). Traced run (`--trace 1`): a few
//! repetitions with the span recorder on plus as many with it off (their
//! difference is the tracing overhead), then the layer micro-measurements;
//! per-layer numbers come only from here, end-to-end numbers only from the
//! untraced run.

use crate::json::Json;
use crate::layers;
use crate::spans::{self, Tracer};
use crate::stats::{median, midmean, summarize, Summary};
use crate::util::{self, Scratch};
use crate::workloads::{Env, Rep, Size, Workload};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Name, unit, direction and regression bound of the end-to-end metrics
/// (mirrors `end_to_end` in BENCHMARK.json; a unit test compares the two).
pub const END_TO_END: [(&str, &str, &str, f64); 3] = [
    ("op_p50_us", "us", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
];

pub fn bound_of(metric: &str) -> f64 {
    END_TO_END
        .iter()
        .find(|m| m.0 == metric)
        .map_or(0.0, |m| m.3)
}

/// Fewest timed repetitions of a run, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Spans written to the Chrome trace file (statistics use all of them).
const TRACE_FILE_EVENTS: usize = 20_000;
/// A run that has not finished by then is aborted by the watchdog.
const WATCHDOG: Duration = Duration::from_secs(150);

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// One value per repetition, in run order.
    pub reps: Vec<f64>,
    /// The reported value: the interquartile mean of `reps` for the two
    /// performance metrics, their median for `setup_s`.
    pub value: f64,
    /// Median, quartiles and count of `reps`.
    pub summary: Summary,
}

pub struct RunOutput {
    pub workload: &'static str,
    pub aliases: [&'static str; 2],
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// Every `per_layer` name with its value (0 where this workload does
    /// not exercise the layer); empty for an untraced run.
    pub per_layer: Vec<(&'static str, &'static str, f64)>,
    /// Self time and call count per span name of a traced run.
    pub self_time: Vec<(&'static str, u64, u64)>,
    pub trace_file: Option<std::path::PathBuf>,
}

// Progress the watchdog reports if it has to abort the run.
static OPS_DONE: AtomicU64 = AtomicU64::new(0);
static OPS_FAILED: AtomicU64 = AtomicU64::new(0);
static OPS_IN_FLIGHT: AtomicU64 = AtomicU64::new(0);
/// `spans::now_ns()` after which the run in progress is hung (0: no run).
static DEADLINE_NS: AtomicU64 = AtomicU64::new(0);

/// Never hang: start the thread that aborts the process when a run is
/// still going past its deadline (a deadlocked world cannot be cancelled
/// from outside). It counts the repetition in flight as failed, removes the
/// scratch directory, prints the result line and exits non-zero. Called
/// once, from `main`.
pub fn start_watchdog() {
    std::thread::spawn(|| loop {
        std::thread::sleep(Duration::from_millis(500));
        let deadline = DEADLINE_NS.load(Ordering::SeqCst);
        if deadline == 0 || spans::now_ns() < deadline {
            continue;
        }
        let lost = OPS_IN_FLIGHT.load(Ordering::SeqCst);
        eprintln!("dcuda-benchmark: run still going after {WATCHDOG:?}, aborting");
        println!(
            "{}",
            result_json(
                false,
                (OPS_DONE.load(Ordering::SeqCst) + lost).max(1),
                OPS_FAILED.load(Ordering::SeqCst) + lost,
                Vec::new(),
            )
        );
        util::remove_scratch();
        std::process::exit(3);
    });
}

/// The one-line JSON result the driver reads.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: Vec<(&str, Json)>) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

struct Timed {
    rep: Rep,
    wall_s: f64,
}

/// One repetition, with launch errors folded into the failure count (all
/// of the repetition's operations count as failed). The counts go to `out`
/// and, for the watchdog, to the process-wide totals.
fn one_rep(w: &dyn Workload, env: &Env, out: &mut RunOutput) -> Option<Timed> {
    let ops = w.ops_per_rep(env.size);
    OPS_IN_FLIGHT.store(ops, Ordering::SeqCst);
    let t = Instant::now();
    let result = w.rep(env);
    let wall_s = t.elapsed().as_secs_f64();
    OPS_IN_FLIGHT.store(0, Ordering::SeqCst);
    let (attempted, failed, timed) = match result {
        Ok(rep) => (rep.attempted, rep.failed, Some(Timed { rep, wall_s })),
        Err(e) => {
            out.errors.push(e);
            (ops, ops, None)
        }
    };
    out.attempted += attempted;
    out.failed += failed;
    OPS_DONE.fetch_add(attempted, Ordering::SeqCst);
    OPS_FAILED.fetch_add(failed, Ordering::SeqCst);
    timed
}

/// One value per repetition and metric. The run reports the interquartile
/// mean over the repetitions for the two performance metrics (why: see
/// [`midmean`]) and the median for `setup_s`.
fn end_to_end(reps: &[Timed]) -> Vec<Metric> {
    let column = |f: &dyn Fn(&Timed) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let columns = [
        column(&|t| median(&t.rep.op_us)),
        column(&|t| t.rep.work / t.rep.work_s),
        column(&|t| t.wall_s - t.rep.timed_s),
    ];
    END_TO_END
        .iter()
        .zip(columns)
        .map(|(&(name, unit, ..), reps)| {
            let summary = summarize(&reps);
            let value = if name == "setup_s" {
                summary.median
            } else {
                midmean(&reps)
            };
            Metric {
                name,
                unit,
                reps,
                value,
                summary,
            }
        })
        .collect()
}

pub fn run_workload(
    w: &dyn Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
) -> RunOutput {
    DEADLINE_NS.store(
        spans::now_ns() + WATCHDOG.as_nanos() as u64,
        Ordering::SeqCst,
    );
    let mut out = RunOutput {
        workload: w.name(),
        aliases: [w.op_alias(), w.work_alias()],
        correct: false,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        self_time: Vec::new(),
        trace_file: None,
    };
    let scratch = match Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            DEADLINE_NS.store(0, Ordering::SeqCst);
            out.errors.push(format!("scratch directory: {e}"));
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    let off = Tracer::off();
    let tracer = if traced { Tracer::on() } else { Tracer::off() };
    let env = |tracer| Env {
        seed,
        size,
        tracer,
        scratch: scratch.path(),
    };
    // Warm-up: page in the binary, the allocator arenas and the loopback
    // stack. Its numbers are dropped; its failures are not.
    one_rep(w, &env(&off), &mut out);

    // A traced run interleaves recorded repetitions with the plain ones (so
    // drift hits both sides of the overhead ratio alike) for half of
    // `--seconds`; the layer measurements take the rest.
    let budget = if traced { seconds / 2.0 } else { seconds };
    let mut reps: Vec<Timed> = Vec::new();
    let mut traced_reps: Vec<Timed> = Vec::new();
    let start = Instant::now();
    while out.errors.is_empty() && (reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < budget)
    {
        reps.extend(one_rep(w, &env(&off), &mut out));
        if traced {
            traced_reps.extend(one_rep(w, &env(&tracer), &mut out));
        }
    }

    if traced {
        let mut layer = layers::Ledger::default();
        layer.absorb_reps(traced_reps.iter().map(|t| &t.rep));
        let p50 =
            |rs: &[Timed]| median(&rs.iter().map(|t| median(&t.rep.op_us)).collect::<Vec<_>>());
        if !reps.is_empty() && !traced_reps.is_empty() {
            layer.set(
                "bench.trace_overhead_frac",
                (p50(&traced_reps) - p50(&reps)) / p50(&reps),
            );
        }
        let extras = layers::common(&tracer, size).and_then(|mut rows| {
            rows.extend(w.layer_extras(&env(&tracer))?);
            Ok(rows)
        });
        match extras {
            Ok(rows) => rows.into_iter().for_each(|(k, v)| layer.set(k, v)),
            Err(e) => out.errors.push(format!("layer measurements: {e}")),
        }
        layer.set("process.peak_rss_mb", util::peak_rss_mb());

        let spans = tracer.take();
        layer.absorb_spans(&spans);
        out.self_time = spans::self_time_by_name(&spans);
        let path = util::exe_dir().join(format!("trace-{}.json", w.name()));
        match std::fs::write(&path, spans::chrome_trace(&spans, TRACE_FILE_EVENTS)) {
            Ok(()) => out.trace_file = Some(path),
            Err(e) => out.errors.push(format!("writing {}: {e}", path.display())),
        }
        out.per_layer = layer.finish();
    }

    DEADLINE_NS.store(0, Ordering::SeqCst);
    out.end_to_end = end_to_end(&reps);
    out.attempted = out.attempted.max(1);
    out.correct = out.failed == 0 && out.errors.is_empty() && !reps.is_empty();
    out
}

impl RunOutput {
    /// The human-readable report (everything above the result line).
    pub fn print_report(&self) {
        println!(
            "== {} ({} ops attempted, {} failed)",
            self.workload, self.attempted, self.failed
        );
        for e in &self.errors {
            println!("   ERROR: {e}");
        }
        for (i, m) in self.end_to_end.iter().enumerate() {
            let s = &m.summary;
            let alias = self
                .aliases
                .get(i)
                .map_or(String::new(), |a| format!(" ({a})"));
            println!(
                "   {}{alias} = {:.4} {}  (n={} median={:.4} q1={:.4} q3={:.4} iqr={:.1}%)",
                m.name,
                m.value,
                m.unit,
                s.n,
                s.median,
                s.q1,
                s.q3,
                s.spread() * 100.0
            );
            let values: Vec<String> = m.reps.iter().map(|v| format!("{v:.4}")).collect();
            println!("      per world: {}", values.join(" "));
        }
        if !self.self_time.is_empty() {
            println!("   span                  calls      self ms");
            for (name, self_ns, calls) in &self.self_time {
                println!("   {name:<18} {calls:>8} {:>12.3}", *self_ns as f64 / 1e6);
            }
        }
        for (name, unit, value) in &self.per_layer {
            println!("   {name} = {value:.4} {unit}");
        }
        if let Some(p) = &self.trace_file {
            println!("   chrome trace: {}", p.display());
        }
    }

    /// The one-line JSON result the driver reads.
    pub fn result_line(&self, traced: bool) -> String {
        let metric = |unit: &str, value: f64| {
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.to_string())),
            ])
        };
        let metrics: Vec<(&str, Json)> = if traced {
            self.per_layer
                .iter()
                .map(|&(n, u, v)| (n, metric(u, v)))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|m| (m.name, metric(m.unit, m.value)))
                .collect()
        };
        result_json(self.correct, self.attempted, self.failed, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, NAMES};

    /// 1-repetition-scale smoke of all eight workloads: every output
    /// verified, every protocol counter on its closed form (the repetitions
    /// count a mismatch as a failed operation).
    #[test]
    fn every_workload_runs_clean_at_tiny_size() {
        for name in NAMES {
            let w = by_name(name).expect("registered workload");
            let out = run_workload(w.as_ref(), 42, 0.0, false, Size::Tiny);
            assert!(out.errors.is_empty(), "{name}: {:?}", out.errors);
            assert!(out.correct, "{name}: {} ops failed", out.failed);
            // Warm-up + the minimum number of repetitions, all attempted.
            let reps = 1 + MIN_REPS as u64;
            assert_eq!(out.attempted, reps * w.ops_per_rep(Size::Tiny), "{name}");
            assert_eq!(out.end_to_end.len(), END_TO_END.len());
            for m in &out.end_to_end {
                assert!(
                    m.value > 0.0 && m.value.is_finite(),
                    "{name}: {} = {}",
                    m.name,
                    m.value
                );
                assert_eq!(m.summary.n, MIN_REPS);
            }
            let line = out.result_line(false);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for (metric, ..) in END_TO_END {
                assert!(
                    line.contains(&format!("\"{metric}\": {{\"value\": ")),
                    "{line}"
                );
            }
        }
    }

    /// The traced path of all eight: every declared per-layer name is
    /// reported, and each workload fills in the layers it owns.
    #[test]
    fn every_workload_fills_its_layers_when_traced() {
        let owns: [(&str, &[&str]); 8] = [
            (
                "p2p_inproc",
                &[
                    "net.inproc_oneway_ns_8b",
                    "rt.rtt_1m_p50_us",
                    "rt.self_rtt_us",
                    "rt.puts",
                    "rt.wait_ns_p50",
                ],
            ),
            (
                "p2p_tcp",
                &[
                    "net.tcp_mb_s_256k",
                    "net.mesh_establish_ms_tcp",
                    "net.frames_per_msg",
                    "rt.rtt_p99_us",
                ],
            ),
            (
                "p2p_shm",
                &[
                    "net.shm_msgs_per_s_8b",
                    "net.mesh_establish_ms_shm",
                    "net.copies_rx_per_msg",
                ],
            ),
            (
                "halo_overlap",
                &[
                    "rt.halo.compute_only_iters_per_s",
                    "rt.barrier_us_w8",
                    "rt.progress.inline_busy_ms",
                    "rt.flush_ns_p50",
                ],
            ),
            ("fanin_backlog", &["rt.wait_ns_p50", "rt.matched"]),
            (
                "allreduce",
                &[
                    "coll.allreduce_rdbl_256k_us",
                    "coll.chunks_per_op",
                    "coll.ring_shift_us",
                ],
            ),
            (
                "sim_overlap",
                &[
                    "core.ns_per_event",
                    "core.fig6_dist_latency_us",
                    "core.sim_end_time_us",
                ],
            ),
            (
                "jobstorm",
                &[
                    "sched.submit_ns_p50",
                    "sched.job_ms_p50",
                    "sched.solo_job_ms",
                    "rt.launch_ms_w8",
                ],
            ),
        ];
        for (name, expected) in owns {
            let w = by_name(name).expect("registered workload");
            let out = run_workload(w.as_ref(), 7, 0.0, true, Size::Tiny);
            assert!(out.errors.is_empty(), "{name}: {:?}", out.errors);
            assert!(out.correct, "{name}: {} ops failed", out.failed);
            assert_eq!(out.per_layer.len(), layers::METRICS.len());
            for want in expected
                .iter()
                .chain(&["queues.dedup_ns_per_seq", "des.queue_ns_per_event"])
            {
                let got = out.per_layer.iter().find(|r| r.0 == *want).map(|r| r.2);
                assert!(got.is_some_and(|v| v != 0.0), "{name}: {want} = {got:?}");
            }
            assert!(!out.self_time.is_empty(), "{name}: no spans recorded");
            let trace = out.trace_file.as_ref().expect("trace written");
            let text = std::fs::read_to_string(trace).expect("trace readable");
            assert!(text.starts_with("{\"displayTimeUnit\""), "{name}");
            let _ = std::fs::remove_file(trace);
            assert!(out.result_line(true).contains("\"process.peak_rss_mb\""));
        }
    }
}
