//! The repository's benchmark. See `README.md` beside `Cargo.toml` for the
//! metric catalog, the layer → end-to-end map and the noise method.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload; last stdout line is the result
//! benchmark [--seed N] [--seconds S]                           every workload, untraced then traced, each in a child process
//! benchmark compare BASE.jsonl OTHER.jsonl [...]               per-metric, per-workload table against each metric's bound
//! ```

mod catalog;
mod gen;
mod hist;
mod json;
mod lifecycle;
mod plan;
mod report;
mod run;
mod trace;
mod wire;

use json::Json;
use run::{Outcome, RunArgs, Sizing};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

fn run_workload(name: &str, args: &RunArgs) -> std::io::Result<Outcome> {
    match (name, wire::Kind::from_name(name)) {
        (_, Some(kind)) => wire::run(kind, args),
        ("plan_loop", _) => plan::run(args),
        ("lifecycle", _) => lifecycle::run(args),
        _ => Err(std::io::Error::other(format!("unknown workload {name:?}"))),
    }
}

/// Build outputs go beside cargo's: `$CARGO_TARGET_DIR/benchmark`, or
/// `target/benchmark` under the working directory.
fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("benchmark")
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: catalog::RUN_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if catalog::is_workload(value) => cli.workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad())?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(cli)
}

/// One workload in this process. Prints every metric by name to stderr and
/// the result line last on stdout; non-zero exit on any failed operation,
/// underestimate or validity rule.
fn single(workload: &str, cli: &Cli) -> ExitCode {
    match run::pin_to_one_cpu() {
        Some(cpu) => eprintln!("benchmark: pinned to cpu {cpu} of {}", run::nproc()),
        None => eprintln!("benchmark: not pinned; expect a wider run-to-run spread"),
    }
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        sizing: Sizing::full(),
        out_dir: out_dir(),
    };
    let out = match run_workload(workload, &args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("benchmark: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let defs = if cli.trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    report::print_metrics(workload, &out, defs);
    eprintln!(
        "{workload:<17} attempted {} failed {}",
        out.attempted, out.failed
    );
    if let Err(e) = report::append_history(
        &args.out_dir,
        workload,
        cli.seed,
        cli.seconds,
        cli.trace,
        &out,
        defs,
    ) {
        eprintln!("benchmark: history not written: {e}");
    }
    let problems = report::problems(&out, defs);
    for p in &problems {
        eprintln!("benchmark: {workload}: INVALID: {p}");
    }
    println!("{}", report::result_line(&out, defs));
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, untraced then traced, each in a fresh child process so
/// caches, heap and peak memory do not leak from one into the next.
fn all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for (workload, why) in catalog::WORKLOADS {
        let gated = if catalog::GATED.contains(workload) {
            " (in BENCHMARK.json)"
        } else {
            ""
        };
        println!("\n== {workload}{gated}: {why}");
        for trace in ["0", "1"] {
            let child = Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .stderr(Stdio::inherit())
                .output();
            let result = child.ok().and_then(|c| {
                let last = String::from_utf8_lossy(&c.stdout)
                    .lines()
                    .last()?
                    .to_string();
                Some((c.status.success(), Json::parse(&last)?))
            });
            let Some((success, result)) = result else {
                println!("{workload} --trace {trace}: no result");
                ok = false;
                continue;
            };
            ok &= success && result.get("correct").and_then(Json::as_bool) == Some(true);
            for (name, m) in result.get("metrics").map_or(&[][..], Json::fields) {
                println!(
                    "{name:<38} {:>16.4} {}",
                    m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    m.get("unit").and_then(Json::as_str).unwrap_or("?"),
                );
            }
            let count = |key| result.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!(
                "{:<38} attempted {} failed {} correct {}",
                format!("({workload} --trace {trace})"),
                count("attempted"),
                count("failed"),
                success
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: at least one workload failed or was invalid");
        ExitCode::FAILURE
    }
}

fn compare(paths: &[String]) -> ExitCode {
    if paths.len() < 2 {
        eprintln!("usage: benchmark compare BASE.jsonl OTHER.jsonl [...]");
        return ExitCode::FAILURE;
    }
    let mut files = Vec::new();
    for path in paths {
        match std::fs::read_to_string(path) {
            Ok(text) => files.push((path.clone(), text)),
            Err(e) => {
                eprintln!("benchmark: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (table, regressed) = report::compare(&files);
    print!("{table}");
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return compare(&args[1..]);
    }
    match parse_cli(&args) {
        Ok(cli) => match &cli.workload {
            Some(workload) => single(workload, &cli),
            None => all(&cli),
        },
        Err(e) => {
            eprintln!("benchmark: {e}\n(see the module docs of main.rs for usage)");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_accepts_the_driver_form_and_rejects_the_rest() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cli = parse_cli(&argv("--workload plan_loop --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(cli.workload.as_deref(), Some("plan_loop"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (9, 3.0, true));
        let all = parse_cli(&[]).unwrap();
        assert!(all.workload.is_none() && !all.trace && all.seconds == catalog::RUN_SECONDS);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed x",
            "--seconds 0",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse_cli(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// Every workload at one second and tiny scale, both modes: every
    /// named metric is present and finite with its unit, end-to-end metrics
    /// are non-zero, nothing fails, and the validity ratios hold.
    #[test]
    fn smoke_all_workloads() {
        let dir = std::env::temp_dir().join(format!("sb_smoke_{}", std::process::id()));
        for (workload, _) in catalog::WORKLOADS {
            for trace in [false, true] {
                let args = RunArgs {
                    seed: 5,
                    seconds: 1.0,
                    trace,
                    sizing: Sizing::tiny(),
                    out_dir: dir.clone(),
                };
                let out = run_workload(workload, &args).expect("workload runs");
                let defs = if trace {
                    catalog::PER_LAYER
                } else {
                    catalog::END_TO_END
                };
                let mut problems = report::problems(&out, defs);
                // One second of tracing on a loaded test host is too short to
                // judge ladder closure; everything else must hold.
                problems.retain(|p| !p.starts_with("ladder does not close"));
                assert!(
                    problems.is_empty(),
                    "{workload} trace={trace}: {problems:?}"
                );
                assert!(out.attempted > 0 && out.failed == 0, "{workload}");
                assert_eq!(out.metrics["underestimates"], 0.0);
                assert_eq!(out.metrics["error_share"], 0.0);
                let line = report::result_line(&out, defs);
                let doc = Json::parse(&line).expect("result line parses");
                let metrics = doc.get("metrics").expect("metrics").fields();
                assert_eq!(metrics.len(), defs.len());
                for ((name, m), def) in metrics.iter().zip(defs) {
                    assert_eq!(name, def.name);
                    assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
                    let v = m.get("value").and_then(Json::as_f64).expect("finite value");
                    assert!(def.bound.is_none() || v > 0.0, "{workload}: {name} = {v}");
                }
                if trace {
                    assert!(dir.join(format!("trace-{workload}.json")).exists());
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
