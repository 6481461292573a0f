//! `cargo run -p xtask -- <task>`: dependency-free repo maintenance.
//!
//! Two tasks:
//! * `lint` — a line-based source pass enforcing repo rules that
//!   rustc/clippy cannot express (see `LINT RULES` below: R1 no unwraps
//!   in runtime/queue code, R2 no raw shims, R3 no relaxed SPSC orderings,
//!   R4 window memory only through `ctx.rs` and the bank, R5 one matcher, R6 one
//!   rank-side wait helper, R7 one wait future, R8 the collective tag mark
//!   stays in the runtime, R9 one definition of the ids and the program
//!   table). Deliberately
//!   simple — line-oriented with a brace-tracking skip for `#[cfg(test)]`
//!   modules — and wired into the CI `lint` job.
//! * `bench-diff BASELINE FIGURES [WORKLOAD.json...] [--tol FRAC]` — the
//!   CI `bench-regression` gate. Figures 6–8 from `figures --json` diff
//!   row by row against the baseline within a drift tolerance (default
//!   ±10%; the simulator is deterministic). Each `WORKLOAD.json` is the
//!   last line of a traced repo-benchmark run (`benchmark --workload
//!   WORKLOAD --trace 1`): it must read `"correct": true, "failed": 0`,
//!   and its per-layer rows are held to the baseline's `bounds` — one
//!   form, `{workload, row, min_value | max_value}`. See EXPERIMENTS.md
//!   for re-baselining.

use dcuda_bench::json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// LINT RULES
///
/// R1 `no-unwrap`: no `.unwrap()` / `.expect(` in non-test code under
///    `crates/rt/src` and `crates/queues/src`. Queue and runtime code runs
///    on rank/host threads where a panic poisons the whole cluster join;
///    errors must flow as typed `RtError`s (or be documented
///    `debug_assert` + infallible conversions).
/// R2 `no-raw-shims`: the 0.2.0 `*_raw` compatibility shims are gone —
///    no *use* of them anywhere under `crates/*/src`, and no
///    reintroduction of a `pub fn <name>_raw` method in `crates/rt/src`
///    (the typed `RtQuery`/`CollCtx` surface is the only public API).
/// R3 `no-relaxed-spsc`: no `Ordering::Relaxed` in `crates/queues/src`
///    non-test code — every counter in the SPSC protocol (seq, tail,
///    disconnected) and the window lend word carries release/acquire
///    semantics; a relaxed access is a protocol bug (the dcuda-verify
///    model checker proves the demoted variants racy).
/// R4 `no-direct-window-indexing`: window memory is touched only through
///    the `ctx.rs` accessors and the window bank's one landing copy. In
///    `crates/rt/src` non-test code: no `rank_windows` (the bank's view
///    for the rank) outside `ctx.rs` and `bank.rs`, and no `UnsafeCell`,
///    raw pointer (`as_ptr(`, `as_mut_ptr(`) or `copy_nonoverlapping`
///    outside `bank.rs`. The `ctx.rs` accessors are the single seam the
///    happens-before race detector instruments, and the bank is the only
///    code that may touch windows a rank has lent to its engine: a second
///    path would escape the detector or write while the rank owns the
///    memory, unguarded by the lend word.
/// R5 `one-matcher`: no `match_in_order(` call outside
///    `crates/queues/src/notify.rs` (its definition), `tests/` directories
///    and `#[cfg(test)]` modules. The linear matcher is the executable
///    specification the property suites compare `IndexedMatcher` against;
///    production code — simulator, runtime, model-checked corpus — has one
///    matcher.
/// R6 `one-wait-helper`: no `yield_now(` in `crates/rt/src/ctx.rs` non-test
///    code outside the body of `fn wait_step(`. Every rank-side wait loop
///    turns through that helper, which drives the rank's own device engine
///    before it yields; a loop that yields by itself would wait on the host
///    thread alone and silently lose rank-driven progress.
/// R7 `one-wait-future`: no `Poll::Pending` in `crates/rt/src` non-test
///    code outside the `impl Future for Until` block in `ctx.rs`. Every
///    wait of a rank program — notifications, flushes, collective chunks —
///    is that one future, which spins on a rank thread and suspends under
///    the cooperative driver; a second suspension point would be a second
///    copy of the wait, with its own idea of when a task has moved.
/// R8 `coll-mark-in-rt`: no `COLL_TAG_BIT` in non-test code outside
///    `crates/rt/src`, `tests/` directories and `#[cfg(test)]` modules.
///    Bit 31 marks collective traffic only on the runtime's wire; the
///    simulator's tags are plain `u32`s, so a copy of the mark elsewhere
///    (the deadlock analyzer once had one) misreads a kernel's own tag.
/// R9 `one-vocabulary`: no `struct Rank(`, `struct WindowId(`,
///    `struct WinId(` or `struct Tag(` in non-test code outside
///    `crates/queues/src`, and no `enum JobProgram` anywhere, test code
///    included. The simulator and the runtime name ranks, windows and tags
///    with `dcuda-queues`' one set of ids, and the program table
///    (`dcuda_rt::programs::Program`) is the only place program names are
///    parsed and printed; a second definition drifts from the first.
///
/// An escape hatch comment `// xtask: allow` on the offending line skips
/// all rules for that line.
fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some("bench-diff") => bench_diff(args.collect()),
        other => {
            eprintln!(
                "usage: cargo run -p xtask -- lint\n       cargo run -p xtask -- bench-diff BASELINE FIGURES [WORKLOAD.json...] [--tol FRAC]\n  (got {:?})",
                other.unwrap_or("<none>")
            );
            ExitCode::from(2)
        }
    }
}

/// The metrics `bench-diff` tracks per figure: (figure key, row-label keys,
/// compared value keys). Labels identify a row across re-baselines; values
/// are the perf series a regression would move.
const DIFF_PLAN: &[(&str, &[&str], &[&str])] = &[
    (
        "fig6",
        &["placement", "bytes"],
        &["latency_us", "bandwidth_mbs"],
    ),
    (
        "fig7",
        &["work_iters"],
        &["full_ms", "compute_ms", "exchange_ms"],
    ),
    (
        "fig8",
        &["work_iters"],
        &["full_ms", "compute_ms", "exchange_ms"],
    ),
];

fn bench_diff(args: Vec<String>) -> ExitCode {
    const USAGE: &str =
        "usage: cargo run -p xtask -- bench-diff BASELINE FIGURES [WORKLOAD.json...] [--tol FRAC]";
    let mut paths = Vec::new();
    let mut tol = 0.10f64;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--tol" {
            tol = match it.next().and_then(|v| v.parse().ok()) {
                Some(t) if t > 0.0 => t,
                _ => {
                    eprintln!("xtask bench-diff: --tol needs a positive fraction (e.g. 0.10)");
                    return ExitCode::from(2);
                }
            };
        } else {
            paths.push(a);
        }
    }
    let [baseline_path, figures_path, ledger_paths @ ..] = paths.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, figures) = match (load(baseline_path), load(figures_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("xtask bench-diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Each ledger file is the last line of one traced benchmark run
    // (`benchmark --workload W --trace 1`), named after its workload.
    let mut ledgers: Vec<(String, Json)> = Vec::new();
    for path in ledger_paths {
        let workload = Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let doc = match load(path) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("xtask bench-diff: {e}");
                return ExitCode::FAILURE;
            }
        };
        let clean = matches!(doc.get("correct"), Some(Json::Bool(true)))
            && doc.get("failed").and_then(Json::as_u64) == Some(0);
        if !clean {
            eprintln!("xtask bench-diff: {path}: the {workload} run is not \"correct\": true with \"failed\": 0");
            return ExitCode::FAILURE;
        }
        ledgers.push((workload, doc));
    }

    // A row's identity within its figure: the concatenated label values.
    let row_label = |row: &Json, keys: &[&str]| -> String {
        keys.iter()
            .map(|k| match row.get(k) {
                Some(Json::Str(s)) => s.clone(),
                Some(v) => format!("{v}"),
                None => "?".to_string(),
            })
            .collect::<Vec<_>>()
            .join("/")
    };

    println!(
        "{:<6} {:<24} {:<16} {:>12} {:>12} {:>8}  verdict",
        "figure", "row", "metric", "baseline", "current", "delta"
    );
    let mut regressions = 0u32;
    let mut compared = 0u32;
    for &(fig, label_keys, value_keys) in DIFF_PLAN {
        let (Some(base_rows), Some(cur_rows)) = (
            baseline.get(fig).and_then(Json::as_arr),
            figures.get(fig).and_then(Json::as_arr),
        ) else {
            eprintln!("xtask bench-diff: figure {fig:?} missing from one side — regenerate both files with `figures --fig 6,7,8 --json`");
            return ExitCode::FAILURE;
        };
        if base_rows.len() != cur_rows.len() {
            eprintln!(
                "xtask bench-diff: {fig} row count changed ({} -> {}); re-baseline (see EXPERIMENTS.md)",
                base_rows.len(),
                cur_rows.len()
            );
            return ExitCode::FAILURE;
        }
        for (b, c) in base_rows.iter().zip(cur_rows) {
            let label = row_label(b, label_keys);
            if label != row_label(c, label_keys) {
                eprintln!(
                    "xtask bench-diff: {fig} rows diverge ({} vs {}); re-baseline (see EXPERIMENTS.md)",
                    label,
                    row_label(c, label_keys)
                );
                return ExitCode::FAILURE;
            }
            for &metric in value_keys {
                let (Some(bv), Some(cv)) = (
                    b.get(metric).and_then(Json::as_f64),
                    c.get(metric).and_then(Json::as_f64),
                ) else {
                    eprintln!("xtask bench-diff: {fig}/{label} lacks metric {metric:?}");
                    return ExitCode::FAILURE;
                };
                compared += 1;
                // Sub-resolution rows (near-zero timings) compare on
                // absolute drift to dodge division blow-ups.
                let delta = if bv.abs() < 1e-9 {
                    cv - bv
                } else {
                    (cv - bv) / bv
                };
                let ok = delta.abs() <= tol;
                if !ok {
                    regressions += 1;
                }
                println!(
                    "{:<6} {:<24} {:<16} {:>12.4} {:>12.4} {:>+7.1}%  {}",
                    fig,
                    label,
                    metric,
                    bv,
                    cv,
                    delta * 100.0,
                    if ok { "ok" } else { "REGRESSION" }
                );
            }
        }
    }
    // Ledger rows gate on absolute bounds, not drift: wall-clock rows are
    // noisy, so the baseline declares floors (`min_value`) and ceilings
    // (`max_value`) per (workload, row) instead of a reference value.
    let bounds = baseline.get("bounds").and_then(Json::as_arr).unwrap_or(&[]);
    if !bounds.is_empty() {
        println!(
            "\n{:<14} {:<30} {:>14} {:>14}  verdict",
            "workload", "row", "bound", "current"
        );
    }
    for bound in bounds {
        let field = |k: &str| bound.get(k).and_then(Json::as_str);
        let (Some(workload), Some(row)) = (field("workload"), field("row")) else {
            eprintln!("xtask bench-diff: bound {bound} lacks a workload or row");
            return ExitCode::FAILURE;
        };
        let Some((_, ledger)) = ledgers.iter().find(|(w, _)| w == workload) else {
            eprintln!(
                "xtask bench-diff: baseline bounds {workload} but no {workload}.json was given — save the last line of `benchmark --workload {workload} --trace 1` there"
            );
            return ExitCode::FAILURE;
        };
        let value = ledger
            .get("metrics")
            .and_then(|m| m.get(row))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        let Some(value) = value else {
            eprintln!("xtask bench-diff: {workload} ledger has no row {row:?}");
            return ExitCode::FAILURE;
        };
        let min = bound.get("min_value").and_then(Json::as_f64);
        let max = bound.get("max_value").and_then(Json::as_f64);
        let (bound_str, ok) = match (min, max) {
            (Some(m), None) => (format!(">= {m:.4}"), value >= m),
            (None, Some(m)) => (format!("<= {m:.4}"), value <= m),
            _ => {
                eprintln!("xtask bench-diff: bound {workload}/{row} must declare exactly one of min_value/max_value");
                return ExitCode::FAILURE;
            }
        };
        compared += 1;
        if !ok {
            regressions += 1;
        }
        println!(
            "{:<14} {:<30} {:>14} {:>14.4}  {}",
            workload,
            row,
            bound_str,
            value,
            if ok { "ok" } else { "REGRESSION" }
        );
    }

    println!(
        "\nbench-diff: {compared} metrics compared, {regressions} outside bounds (drift tol ±{:.0}%)",
        tol * 100.0
    );
    if regressions > 0 {
        eprintln!(
            "xtask bench-diff: FAILED — if the change is intentional, re-baseline per EXPERIMENTS.md"
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

struct Finding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    text: String,
}

fn lint() -> ExitCode {
    let root = repo_root();
    let mut findings: Vec<Finding> = Vec::new();

    // R1 + R3 targets: protocol crates' non-test sources.
    for dir in ["crates/rt/src", "crates/queues/src"] {
        for file in rust_files(&root.join(dir)) {
            let text = match std::fs::read_to_string(&file) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("xtask lint: cannot read {}: {e}", file.display());
                    return ExitCode::FAILURE;
                }
            };
            for (lineno, line) in non_test_lines(&text, None) {
                if line.contains("xtask: allow") || is_comment(line) {
                    continue;
                }
                if line.contains(".unwrap()") || line.contains(".expect(") {
                    findings.push(finding(&file, lineno, "no-unwrap", line));
                }
                if line.contains("Ordering::Relaxed") && dir.contains("queues") {
                    findings.push(finding(&file, lineno, "no-relaxed-spsc", line));
                }
                // A reintroduced raw escape hatch (`pub fn <name>_raw`)
                // would bypass the typed query/collective API the 0.3
                // redesign committed to.
                if dir.contains("rt") && line.contains("pub fn ") && line.contains("_raw(") {
                    findings.push(finding(&file, lineno, "no-raw-shims", line));
                }
                // Window memory may only be touched through the ctx.rs
                // accessors — the seam the race detector instruments — and
                // the bank's landing copy, under the lend word.
                let name = file.file_name().and_then(|n| n.to_str()).unwrap_or("");
                let raw = [
                    "UnsafeCell",
                    "as_ptr(",
                    "as_mut_ptr(",
                    "copy_nonoverlapping",
                ];
                if dir.contains("rt")
                    && ((line.contains("rank_windows") && name != "ctx.rs" && name != "bank.rs")
                        || (raw.iter().any(|p| line.contains(p)) && name != "bank.rs"))
                {
                    findings.push(finding(&file, lineno, "no-direct-window-indexing", line));
                }
            }
        }
    }

    // R2 targets: every crate's src/ (shim definitions in ctx.rs are
    // `pub fn <name>_raw` items; uses are `.<name>_raw(` method calls).
    let raw_shims = [
        ".put_raw(",
        ".put_notify_raw(",
        ".wait_notifications_raw(",
        ".win_raw(",
        ".win_mut_raw(",
    ];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            // The linter's own pattern table is not a use site.
            if entry.file_name() == "xtask" {
                continue;
            }
            let src = entry.path().join("src");
            for file in rust_files(&src) {
                let text = match std::fs::read_to_string(&file) {
                    Ok(t) => t,
                    Err(_) => continue,
                };
                for (lineno, line) in non_test_lines(&text, None) {
                    if line.contains("xtask: allow") || is_comment(line) {
                        continue;
                    }
                    if raw_shims.iter().any(|s| line.contains(s)) {
                        findings.push(finding(&file, lineno, "no-raw-shims", line));
                    }
                }
            }
        }
    }

    // R5 + R8 + R9 targets: every Rust source of the workspace that is not
    // a test (R9's enum: every one). The patterns are assembled so this
    // file does not contain them.
    let linear_matcher_call = ["match_in", "_order("].concat();
    let coll_mark = ["COLL_TAG", "_BIT"].concat();
    let id_defs = ["Rank(", "WindowId(", "WinId(", "Tag("].map(|id| ["struct ", id].concat());
    let job_enum = ["enum Job", "Program"].concat();
    let matcher_home = Path::new("crates/queues/src/notify.rs");
    for dir in ["crates", "src", "examples", "tests"] {
        for file in rust_files(&root.join(dir)) {
            let rel = file.strip_prefix(&root).unwrap_or(&file);
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            for (i, line) in text.lines().enumerate() {
                if line.contains(&job_enum) && !line.contains("xtask: allow") && !is_comment(line) {
                    findings.push(finding(&file, i + 1, "one-vocabulary", line));
                }
            }
            if rel.components().any(|c| c.as_os_str() == "tests") {
                continue;
            }
            let in_matcher_home = rel == matcher_home;
            let in_rt = rel.starts_with("crates/rt/src");
            let in_ids_home = rel.starts_with("crates/queues/src");
            for (lineno, line) in non_test_lines(&text, None) {
                if line.contains("xtask: allow") || is_comment(line) {
                    continue;
                }
                if line.contains(&linear_matcher_call) && !in_matcher_home {
                    findings.push(finding(&file, lineno, "one-matcher", line));
                }
                if line.contains(&coll_mark) && !in_rt {
                    findings.push(finding(&file, lineno, "coll-mark-in-rt", line));
                }
                if id_defs.iter().any(|d| line.contains(d.as_str())) && !in_ids_home {
                    findings.push(finding(&file, lineno, "one-vocabulary", line));
                }
            }
        }
    }

    // R6 + R7 targets: the runtime's non-test sources. `yield_now(` is
    // confined to `wait_step` (R6 checks ctx.rs alone), `Poll::Pending` to
    // the wait future; both homes are brace-tracked from their first line.
    let ctx_rs = root.join("crates/rt/src/ctx.rs");
    let confined = [
        ("yield_now(", "fn wait_step(", "one-wait-helper"),
        ("Poll::Pending", "impl Future for Until", "one-wait-future"),
    ];
    for file in rust_files(&root.join("crates/rt/src")) {
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        for (pattern, home, rule) in confined {
            let lines = match (file == ctx_rs, rule) {
                (true, _) => non_test_lines(&text, Some(home)),
                (false, "one-wait-future") => non_test_lines(&text, None),
                (false, _) => continue,
            };
            for (lineno, line) in lines {
                if line.contains(pattern) && !line.contains("xtask: allow") && !is_comment(line) {
                    findings.push(finding(&file, lineno, rule, line));
                }
            }
        }
    }

    if findings.is_empty() {
        println!("xtask lint: OK");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!(
                "{}:{}: [{}] {}",
                f.file.display(),
                f.line,
                f.rule,
                f.text.trim()
            );
        }
        eprintln!("xtask lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

fn finding(file: &Path, line: usize, rule: &'static str, text: &str) -> Finding {
    Finding {
        file: file.to_path_buf(),
        line,
        rule,
        text: text.to_string(),
    }
}

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/xtask; the repo root is two levels up.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    let p = PathBuf::from(manifest);
    p.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(p)
}

fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    out
}

fn is_comment(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("//!") || t.starts_with("///")
}

/// Iterate `(1-based line number, line)` pairs, skipping the bodies of
/// `#[cfg(test)]`-annotated items (brace-tracked from the annotation) and
/// of the item whose first line contains `home`, if given.
fn non_test_lines<'t>(text: &'t str, home: Option<&str>) -> Vec<(usize, &'t str)> {
    let mut out = Vec::new();
    let mut skip_depth: i64 = -1; // >= 0: inside a skipped item's braces
    let mut pending_skip = false; // saw the item's first line, waiting for `{`
    let mut depth: i64 = 0;
    for (i, line) in text.lines().enumerate() {
        let starts_item =
            line.trim().starts_with("#[cfg(test)]") || home.is_some_and(|h| line.contains(h));
        pending_skip |= skip_depth < 0 && starts_item;
        let opens = line.matches('{').count() as i64;
        let closes = line.matches('}').count() as i64;
        if pending_skip && opens > 0 {
            skip_depth = depth;
            pending_skip = false;
        }
        depth += opens - closes;
        if skip_depth >= 0 {
            if depth <= skip_depth {
                skip_depth = -1;
            }
            continue;
        }
        if !pending_skip {
            out.push((i + 1, line));
        }
    }
    out
}
