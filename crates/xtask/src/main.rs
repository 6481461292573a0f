//! `cargo run -p xtask -- <task>`: dependency-free repo maintenance.
//!
//! Three tasks:
//! * `lint` — a line-based source pass enforcing repo rules that
//!   rustc/clippy cannot express (see `LINT RULES` below). Deliberately
//!   simple — line-oriented with a brace-tracking skip for `#[cfg(test)]`
//!   modules — and wired into the CI `lint` job.
//! * `bench-diff BASELINE CURRENT... [--tol FRAC]` — compare a baseline
//!   against one or more current JSON files (their figures are unioned):
//!   Figures 6–8 from `figures --json` diff row by row within a drift
//!   tolerance (default ±10%), and the bounded figures (`transport` from
//!   `ablation_transport --json`, `coll` from `ablation_coll --json`)
//!   gate against absolute `min_value`/`max_value` bounds declared in the
//!   baseline (speed-ratio floors, copies-per-message ceilings,
//!   hidden-fraction floors). Wired into the CI `bench-regression` job;
//!   see EXPERIMENTS.md for re-baselining.
//! * `launch [ARGS...]` — build and run the `dcuda-launch` binary in
//!   release mode, forwarding all arguments (see `dcuda-launch --help`
//!   and EXPERIMENTS.md for recipes). `cargo run -p xtask -- launch
//!   --procs 2 --workload overlap` runs the overlap microbenchmark
//!   across two OS processes over the socket transport.

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
///    disconnected) carries release/acquire semantics; a relaxed access is
///    a protocol bug (the dcuda-verify model checker proves the demoted
///    variant racy).
/// R4 `no-direct-window-indexing`: no `self.windows[` outside
///    `crates/rt/src/ctx.rs`. The window accessors in `ctx.rs` are the
///    single seam the happens-before race detector instruments; indexing
///    the backing store directly anywhere else opens an unobserved access
///    path and silently breaks race detection.
/// R5 `one-matcher`: no `match_in_order(` call outside
///    `crates/queues/src/notify.rs` (its definition), `tests/` directories,
///    `#[cfg(test)]` modules and `crates/bench/benches/ablation_matcher.rs`.
///    The linear matcher is the executable specification the property
///    suites and the ablation compare `IndexedMatcher` against; production
///    code — simulator, runtime, model-checked corpus — has one matcher.
///
/// An escape hatch comment `// xtask: allow` on the offending line skips
/// all rules for that line.
fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some("bench-diff") => bench_diff(args.collect()),
        Some("launch") => launch(args.collect()),
        other => {
            eprintln!(
                "usage: cargo run -p xtask -- lint\n       cargo run -p xtask -- bench-diff BASELINE CURRENT [--tol FRAC]\n       cargo run -p xtask -- launch [DCUDA-LAUNCH ARGS]\n  (got {:?})",
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
    let [baseline_path, current_paths @ ..] = paths.as_slice() else {
        eprintln!("usage: cargo run -p xtask -- bench-diff BASELINE CURRENT... [--tol FRAC]");
        return ExitCode::from(2);
    };
    if current_paths.is_empty() {
        eprintln!("usage: cargo run -p xtask -- bench-diff BASELINE CURRENT... [--tol FRAC]");
        return ExitCode::from(2);
    }
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let baseline = match load(baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("xtask bench-diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Union the current files: each figure is looked up in the first file
    // that carries it, so `figures --json` and `ablation_transport --json`
    // outputs can be diffed against one baseline in a single invocation.
    let mut currents = Vec::new();
    for path in current_paths {
        match load(path) {
            Ok(c) => currents.push(c),
            Err(e) => {
                eprintln!("xtask bench-diff: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let current_fig = |fig: &str| -> Option<&Json> { currents.iter().find_map(|c| c.get(fig)) };

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
            current_fig(fig).and_then(Json::as_arr),
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
    // The ablation figures gate on absolute bounds, not drift: the
    // baseline declares floors (`min_value` — e.g. shm must beat tcp 3x on
    // same-host eager traffic, chunked allreduce must hide half its chunk
    // waits) and ceilings (`max_value` — e.g. at most one payload copy per
    // rendezvous message per direction). Current rows without a baseline
    // bound are informational and pass silently; a bounds figure absent
    // from the baseline is skipped entirely.
    //
    // `figures --json` may emit a same-named figure table (e.g. "coll"),
    // so bounds figures are looked up by shape: only an array whose every
    // entry carries a "row" label is the ablation output.
    let current_bounds = |fig: &str| -> Option<&[Json]> {
        currents.iter().find_map(|c| {
            c.get(fig)
                .and_then(Json::as_arr)
                .filter(|rows| rows.iter().all(|r| r.get("row").is_some()))
        })
    };
    for (fig, bench_name) in [
        ("transport", "ablation_transport"),
        ("coll", "ablation_coll"),
        ("progress", "ablation_progress"),
        ("sched", "ablation_sched"),
    ] {
        let Some(bounds) = baseline.get(fig).and_then(Json::as_arr) else {
            continue;
        };
        let Some(cur_rows) = current_bounds(fig) else {
            eprintln!(
                "xtask bench-diff: baseline has {fig} bounds but no current file carries the figure — run `cargo bench -p dcuda-bench --bench {bench_name} -- --json PATH`"
            );
            return ExitCode::FAILURE;
        };
        for bound in bounds {
            let Some(row) = bound.get("row").and_then(Json::as_str) else {
                eprintln!("xtask bench-diff: {fig} bound lacks a row label");
                return ExitCode::FAILURE;
            };
            let value = cur_rows
                .iter()
                .find(|r| r.get("row").and_then(Json::as_str) == Some(row))
                .and_then(|r| r.get("value"))
                .and_then(Json::as_f64);
            let Some(value) = value else {
                eprintln!("xtask bench-diff: {fig} row {row:?} missing from current output");
                return ExitCode::FAILURE;
            };
            let min = bound.get("min_value").and_then(Json::as_f64);
            let max = bound.get("max_value").and_then(Json::as_f64);
            if min.is_none() && max.is_none() {
                eprintln!("xtask bench-diff: {fig} bound {row:?} declares no min_value/max_value");
                return ExitCode::FAILURE;
            }
            let ok = min.is_none_or(|m| value >= m) && max.is_none_or(|m| value <= m);
            compared += 1;
            if !ok {
                regressions += 1;
            }
            let bound_str = match (min, max) {
                (Some(m), None) => format!(">= {m:.4}"),
                (None, Some(m)) => format!("<= {m:.4}"),
                (Some(lo), Some(hi)) => format!("{lo:.4}..{hi:.4}"),
                (None, None) => unreachable!(),
            };
            println!(
                "{:<6} {:<34} {:>14} {:>12.4}  {}",
                &fig[..fig.len().min(6)],
                row,
                bound_str,
                value,
                if ok { "ok" } else { "REGRESSION" }
            );
        }
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

/// `launch [ARGS...]`: build and run the multi-process launcher in release
/// mode, forwarding every argument verbatim. A thin convenience wrapper so
/// the canonical invocation is discoverable next to `lint`/`bench-diff`.
fn launch(args: Vec<String>) -> ExitCode {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = std::process::Command::new(cargo)
        .args([
            "run",
            "--release",
            "-p",
            "dcuda",
            "--bin",
            "dcuda-launch",
            "--",
        ])
        .args(&args)
        .current_dir(repo_root())
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(s) => ExitCode::from(s.code().unwrap_or(1).clamp(0, 255) as u8),
        Err(e) => {
            eprintln!("xtask launch: failed to run cargo: {e}");
            ExitCode::FAILURE
        }
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
            for (lineno, line) in non_test_lines(&text) {
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
                // accessors — the seam the race detector instruments.
                if dir.contains("rt")
                    && line.contains("self.windows[")
                    && file.file_name().is_none_or(|n| n != "ctx.rs")
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
                for (lineno, line) in non_test_lines(&text) {
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

    // R5 targets: every Rust source of the workspace that is not a test.
    // The pattern is assembled so this file does not contain it.
    let linear_matcher_call = ["match_in", "_order("].concat();
    let matcher_users = [
        Path::new("crates/queues/src/notify.rs"),
        Path::new("crates/bench/benches/ablation_matcher.rs"),
    ];
    for dir in ["crates", "src", "examples"] {
        for file in rust_files(&root.join(dir)) {
            let rel = file.strip_prefix(&root).unwrap_or(&file);
            if rel.components().any(|c| c.as_os_str() == "tests") || matcher_users.contains(&rel) {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            for (lineno, line) in non_test_lines(&text) {
                if line.contains("xtask: allow") || is_comment(line) {
                    continue;
                }
                if line.contains(&linear_matcher_call) {
                    findings.push(finding(&file, lineno, "one-matcher", line));
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
/// `#[cfg(test)]`-annotated items (brace-tracked from the annotation).
fn non_test_lines(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut skip_depth: i64 = -1; // >= 0: inside a skipped item's braces
    let mut pending_skip = false; // saw #[cfg(test)], waiting for the item
    let mut depth: i64 = 0;
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if skip_depth < 0 && trimmed.starts_with("#[cfg(test)]") {
            pending_skip = true;
            continue;
        }
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
        out.push((i + 1, line));
    }
    out
}
