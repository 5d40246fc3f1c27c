//! The `suite` command.
//!
//! ```console
//! suite --workload paper-scale --seed 1 --seconds 20 --trace 0   # one workload
//! suite --seed 1                                                # all four, one process each
//! suite --smoke                                                 # all four at ~1/20 scale
//! suite --workload design-loop --seed 1 --bless                 # rewrite golden digests
//! suite compare a.json b.json -- c.json d.json                  # parent runs -- change runs
//! ```
//!
//! A single-workload run prints `<workload>/<metric> <value> <unit>`
//! lines and, as its last stdout line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; it exits non-zero when any
//! output check fails.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use swa_benchsuite::compare::{compare, declared_bounds, RunResult};
use swa_benchsuite::report::{results_dir, Fingerprint};
use swa_benchsuite::workloads::{self, RunArgs, Workload};

const USAGE: &str = "usage: suite [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--bless]\n       suite compare PARENT.json... -- CHANGE.json...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return run_compare(&args[1..]);
    }
    match parse(&args) {
        Ok((Some(run), _)) => run_one(&run),
        Ok((None, forwarded)) => run_all(&forwarded),
        Err(e) => {
            eprintln!("suite: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parses the run flags. Returns the single-workload settings, or
/// `None` plus the flags to forward to one child per workload.
fn parse(args: &[String]) -> Result<(Option<RunArgs>, Vec<String>), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke, mut bless) =
        (1u64, None, false, false, false);
    let mut forwarded = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
                continue;
            }
            "--seed" => {
                let v = value("--seed")?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got {v:?}"))?;
                forwarded.extend(["--seed".to_string(), v]);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = Some(
                    v.parse()
                        .map_err(|_| format!("--seconds expects an integer, got {v:?}"))?,
                );
                forwarded.extend(["--seconds".to_string(), v]);
            }
            "--trace" => {
                let v = value("--trace")?;
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {v:?}")),
                };
                forwarded.extend(["--trace".to_string(), v]);
            }
            "--smoke" => {
                smoke = true;
                forwarded.push(flag.clone());
            }
            "--bless" => {
                bless = true;
                forwarded.push(flag.clone());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seconds = seconds.unwrap_or(if smoke { 1 } else { 20 });
    Ok((
        workload.map(|workload| RunArgs {
            workload,
            seed,
            seconds,
            trace,
            smoke,
            bless,
        }),
        forwarded,
    ))
}

fn run_one(args: &RunArgs) -> ExitCode {
    let outcome = workloads::run(args);
    let name = args.workload.name();
    for m in outcome.metrics.iter().chain(&outcome.info) {
        println!("{name}/{} {} {}", m.name, m.value, m.unit);
    }
    for f in &outcome.failures {
        eprintln!("{name}: FAILED {f}");
    }
    let fingerprint =
        Fingerprint::current(name, args.seed, args.smoke, args.seconds, outcome.digest);
    let path = results_dir().join(format!(
        "{name}-{}-seed{}{}.json",
        args.scale(),
        args.seed,
        if args.trace { "-trace" } else { "" }
    ));
    let written = std::fs::create_dir_all(results_dir())
        .and_then(|()| std::fs::write(&path, outcome.results_json(&fingerprint, args.trace)));
    match written {
        Ok(()) => eprintln!("{name}: results written to {}", path.display()),
        Err(e) => eprintln!("{name}: could not write {}: {e}", path.display()),
    }
    println!("{}", outcome.json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own child process, so each reports its
/// own peak memory.
fn run_all(forwarded: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("suite: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let output = Command::new(&exe)
            .arg("--workload")
            .arg(w.name())
            .args(forwarded)
            .stderr(Stdio::inherit())
            .output();
        match output {
            Ok(out) => {
                print!("{}", String::from_utf8_lossy(&out.stdout));
                if !out.status.success() {
                    eprintln!("suite: {} failed ({})", w.name(), out.status);
                    ok = false;
                }
            }
            Err(e) => {
                eprintln!("suite: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(args: &[String]) -> ExitCode {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("suite compare: separate parent and change results with --\n{USAGE}");
        return ExitCode::from(2);
    };
    let load = |paths: &[String]| -> Result<Vec<RunResult>, String> {
        paths
            .iter()
            .map(|p| RunResult::load(Path::new(p)))
            .collect()
    };
    let bounds_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let result = load(&args[..split])
        .and_then(|parents| Ok((parents, load(&args[split + 1..])?)))
        .and_then(|(p, c)| Ok((p, c, declared_bounds(&bounds_path)?)))
        .and_then(|(p, c, bounds)| compare(&p, &c, &bounds));
    match result {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("suite compare: {e}");
            ExitCode::FAILURE
        }
    }
}
