//! `vsync-benchmark` — the repo benchmark: time-to-verdict on six named
//! workloads, with a per-layer traced run. See README.md.

mod calibrate;
mod compare;
mod expected;
mod gen;
mod json;
mod layers;
mod metrics;
mod run;
mod stamp;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vsync_model::CheckerKind;

use json::Json;
use run::RunArgs;
use workloads::Env;

const HELP: &str = "\
vsync-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
                    [--runs R] [--out FILE]
    With --workload: run that workload in this process and print its
    result as the last line of standard output (--trace 0: end-to-end
    metrics; --trace 1: per-layer metrics, and a Chrome trace under
    benchmark/out/). Without: run every workload, each run in a child
    process (R untraced runs on seeds S, S+1, ... and one traced run),
    and write the set to FILE (default benchmark/out/set-seed-S.json).
vsync-benchmark compare <a.json> <b.json>
    Compare two sets against the bounds table, one row per workload;
    exit 1 on a regression.
vsync-benchmark aa [--seed S] [--seconds N] [--runs R]
    Run two sets of the same code back to back and compare them.
vsync-benchmark selfcheck [--seed S] [--seconds N] [--runs R]
    Show that the workloads isolate layers: slow model::fast down (the
    reference checker) and see verify-deep move while verify-wide and
    litmus-corpus do not.

workloads: verify-deep verify-wide verify-parallel optimize bug-hunt
           litmus-corpus
defaults:  --seed 1 --seconds 10 --trace 0 --runs 3";

fn parse_args(args: &[String]) -> Result<(RunArgs, Vec<String>), String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        checker: CheckerKind::Fast,
        runs: 3,
        out: None,
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                parsed.seed =
                    value("a number")?.parse().map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                parsed.seconds =
                    value("a number")?.parse().map_err(|_| "--seconds needs a number")?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--runs" => {
                parsed.runs =
                    value("a number")?.parse().map_err(|_| "--runs needs a whole number")?;
                if parsed.runs == 0 {
                    return Err("--runs must be at least 1".to_owned());
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a file")?)),
            // Not in the help text: `selfcheck` passes it to its children.
            "--checker" => {
                parsed.checker = match value("fast|reference")?.as_str() {
                    "fast" => CheckerKind::Fast,
                    "reference" => CheckerKind::Reference,
                    other => return Err(format!("unknown checker `{other}`")),
                }
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => positional.push(other.to_owned()),
        }
    }
    Ok((parsed, positional))
}

fn read_set(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run_and_write_set(args: &RunArgs, path: &Path) -> Result<Json, String> {
    let set = run::run_all(args)?;
    run::write_set(&set, path)?;
    eprintln!("wrote {}", path.display());
    Ok(set)
}

/// Median of one end-to-end or per-layer metric over a workload's runs
/// of one kind in `set`.
fn median_of(set: &Json, workload: &str, trace: u64, metric: &str) -> Option<f64> {
    let values = compare::values(set, workload, trace, metric);
    (!values.is_empty()).then(|| stats::quantile(&stats::sorted(&values), 0.5))
}

/// `selfcheck`: does a change to one layer show where the workload
/// table says it should? The "change" uses existing public API only:
/// `Session::checker(CheckerKind::Reference)` slows `model::fast` checks
/// down and nothing else. How much a workload may move is read off its
/// own `model.fast_path_share`: `verify-deep` (0.9) must slow at least
/// 2x, `verify-wide` (under 0.1, the designed bypass) and `litmus-corpus`
/// (0.01; `run_corpus` has no checker knob, so it runs unchanged and
/// shows the benchmark's repeatability) must stay within the bound, and
/// `bug-hunt` (0.3: its 3-thread mutants do grow past 20 events) may
/// move, but by less than `verify-deep`.
fn selfcheck(args: &RunArgs, env: &Env) -> Result<bool, String> {
    const WORKLOADS: [&str; 4] = ["verify-deep", "verify-wide", "bug-hunt", "litmus-corpus"];
    let mut sets = [Vec::new(), Vec::new()];
    for (runs, checker) in sets.iter_mut().zip([CheckerKind::Fast, CheckerKind::Reference]) {
        let variant = RunArgs { checker, ..args.clone() };
        for name in WORKLOADS {
            for i in 0..args.runs as u64 {
                eprintln!("{name} ({checker:?} checker): run {} of {}", i + 1, args.runs);
                runs.push(run::run_child(&variant, name, args.seed + i, false)?);
            }
            runs.push(run::run_child(&variant, name, args.seed, true)?);
        }
    }
    let path = env.out_dir.join("selfcheck.json");
    let all = Json::obj([("stamp", stamp::stamp(vec![])), ("runs", Json::Arr(sets.concat()))]);
    run::write_set(&all, &path)?;
    let [fast, reference] = sets.map(|runs| Json::obj([("runs", Json::Arr(runs))]));

    let ratio_of = |name: &str| -> Result<(f64, f64), String> {
        let f = median_of(&fast, name, 0, "pass_s_q1").ok_or("missing fast runs")?;
        let r = median_of(&reference, name, 0, "pass_s_q1").ok_or("missing reference runs")?;
        Ok((f, r))
    };
    let deep_ratio = ratio_of("verify-deep").map(|(f, r)| r / f)?;
    let bound = metrics::bound("pass_s_q1");
    let mut ok = true;
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>7}  expectation",
        "workload", "fast share", "fast q1 s", "reference", "ratio"
    );
    for name in WORKLOADS {
        let (f, r) = ratio_of(name)?;
        let ratio = r / f;
        let share = median_of(&fast, name, 1, "model.fast_path_share").unwrap_or(f64::NAN);
        let (holds, expectation) = match name {
            "verify-deep" => (ratio >= 2.0, "slows at least 2x".to_owned()),
            "bug-hunt" => (ratio < deep_ratio, "moves less than verify-deep".to_owned()),
            _ => (ratio <= 1.0 + bound, format!("stays within +{:.0}%", bound * 100.0)),
        };
        ok &= holds;
        println!(
            "{name:<14} {share:>10.3} {f:>12.5} {r:>12.5} {ratio:>7.2}  {expectation}: {}",
            if holds { "yes" } else { "NO" }
        );
    }
    let check_us = |set: &Json| median_of(set, "verify-deep", 1, "model.consistency.mean_us");
    let (f, r) =
        (check_us(&fast).ok_or("no traced run")?, check_us(&reference).ok_or("no traced run")?);
    let moved = r >= 1.5 * f;
    ok &= moved;
    println!(
        "verify-deep model.consistency.mean_us: {f:.2} -> {r:.2}  moves with the checker: {}",
        if moved { "yes" } else { "NO" }
    );
    eprintln!("wrote {}", path.display());
    Ok(ok)
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        println!("{HELP}");
        return Ok(ExitCode::SUCCESS);
    };
    let (parsed, positional) = parse_args(rest)?;
    let env = Env::locate();
    match command.as_str() {
        "help" | "--help" => {
            println!("{HELP}");
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            if !positional.is_empty() {
                return Err(format!("run takes options only, not `{}`", positional[0]));
            }
            if let Some(name) = &parsed.workload {
                let outcome = run::run_workload(&env, &parsed, name)?;
                println!("{}", outcome.detail.emit());
                println!("{}", outcome.result.emit());
            } else {
                let default = env.out_dir.join(format!("set-seed-{}.json", parsed.seed));
                run_and_write_set(&parsed, parsed.out.as_deref().unwrap_or(&default))?;
            }
            Ok(ExitCode::SUCCESS)
        }
        "compare" => {
            let [a, b] = &positional[..] else {
                return Err("compare takes two set files".to_owned());
            };
            let (table, regressed) = compare::compare(&read_set(a)?, &read_set(b)?);
            print!("{table}");
            Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
        }
        "aa" => {
            let a = run_and_write_set(&parsed, &env.out_dir.join("aa-first.json"))?;
            let b = run_and_write_set(&parsed, &env.out_dir.join("aa-second.json"))?;
            let (table, regressed) = compare::compare(&a, &b);
            print!("{table}");
            Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
        }
        "selfcheck" => {
            Ok(if selfcheck(&parsed, &env)? { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        other => Err(format!("unknown command `{other}` (run, compare, aa, selfcheck, help)")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
