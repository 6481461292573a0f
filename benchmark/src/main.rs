//! The repo benchmark: eight workloads over the public API of the dCUDA
//! reproduction, three end-to-end metrics per workload, and an outside-in
//! per-layer ledger. See `README.md` next to this crate and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! dcuda-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! dcuda-benchmark --all            [--seed <u64>] [--seconds <n>]
//! dcuda-benchmark --check-repeat   [--seed <u64>] [--seconds <n>]
//! ```
//!
//! The last line of standard output of a `--workload` run is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.

mod json;
mod layers;
mod runner;
mod spans;
mod stats;
mod util;
mod workloads;

use runner::{run_workload, RunOutput};
use workloads::Size;

const USAGE: &str =
    "usage: dcuda-benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
       dcuda-benchmark --all | --check-repeat [--seed <u64>] [--seconds <n>]
       dcuda-benchmark --list";

/// Default `--seconds`, equal to `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: u64 = 14;

#[derive(Debug, PartialEq)]
enum Mode {
    One(String),
    All,
    CheckRepeat,
    List,
}

#[derive(Debug, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut mode = None;
    let (mut seed, mut seconds, mut trace) = (1u64, DEFAULT_SECONDS, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: {v:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => mode = Some(Mode::One(value()?.to_string())),
            "--all" => mode = Some(Mode::All),
            "--check-repeat" => mode = Some(Mode::CheckRepeat),
            "--list" => mode = Some(Mode::List),
            "--seed" => seed = number(value()?)?,
            "--seconds" => {
                seconds = number(value()?)?;
                if !(1..=60).contains(&seconds) {
                    return Err(format!("--seconds {seconds} outside 1..=60"));
                }
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        mode: mode.ok_or("one of --workload, --all, --check-repeat, --list is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run_named(name: &str, args: &Args, trace: bool) -> Result<RunOutput, String> {
    let workload = workloads::by_name(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?} (expected one of {})",
            workloads::NAMES.join(", ")
        )
    })?;
    Ok(run_workload(
        workload.as_ref(),
        args.seed,
        args.seconds as f64,
        trace,
        Size::Full,
    ))
}

/// Run every workload twice with the same seed and hold each end-to-end
/// metric to its bound: the two runs' values may differ by no more than the
/// bound. The widest repetition IQR is printed beside it; where that exceeds
/// the bound the worlds of one run disagree more than two runs may (`noisy`),
/// which is information, not a failure — the reported value is what has to
/// repeat.
fn check_repeat(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "run 1", "run 2", "diff", "rep iqr", "bound"
    );
    for name in workloads::NAMES {
        let a = run_named(name, args, false)?;
        let b = run_named(name, args, false)?;
        ok &= a.correct && b.correct;
        for (ma, mb) in a.end_to_end.iter().zip(&b.end_to_end) {
            let bound = runner::bound_of(ma.name);
            let (va, vb) = (ma.value, mb.value);
            let diff = (vb - va).abs() / va.abs();
            let iqr = ma.summary.spread().max(mb.summary.spread());
            let verdict = match (diff > bound, iqr > bound) {
                (true, _) => "DIFFERS",
                (false, true) => "ok (noisy)",
                (false, false) => "ok",
            };
            ok &= diff <= bound;
            println!(
                "{:<14} {:<12} {:>14.4} {:>14.4} {:>7.1}% {:>7.1}% {:>7.1}%  {verdict}",
                name,
                ma.name,
                va,
                vb,
                diff * 100.0,
                iqr * 100.0,
                bound * 100.0
            );
        }
        if !(a.correct && b.correct) {
            println!(
                "{name}: FAILED correctness ({} + {} ops failed)",
                a.failed, b.failed
            );
        }
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    match &args.mode {
        Mode::List => {
            for name in workloads::NAMES {
                println!("{name}");
            }
            Ok(true)
        }
        Mode::One(name) => {
            let out = run_named(name, &args, args.trace)?;
            out.print_report();
            println!("{}", out.result_line(args.trace));
            Ok(out.correct)
        }
        Mode::All => {
            let mut ok = true;
            for name in workloads::NAMES {
                let out = run_named(name, &args, args.trace)?;
                out.print_report();
                ok &= out.correct;
            }
            Ok(ok)
        }
        Mode::CheckRepeat => check_repeat(&args),
    }
}

fn main() {
    runner::start_watchdog();
    let code = match real_main() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("dcuda-benchmark: {e}");
            2
        }
    };
    util::remove_scratch();
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "p2p_tcp",
            "--seed",
            "42",
            "--seconds",
            "8",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                mode: Mode::One("p2p_tcp".into()),
                seed: 42,
                seconds: 8,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_malformed_command_lines() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--all", "--seed", "x"]).is_err());
        assert!(args(&["--all", "--seconds", "0"]).is_err());
        assert!(args(&["--all", "--trace", "2"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }
}
