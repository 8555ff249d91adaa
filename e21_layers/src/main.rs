//! e21_layers: the served-path benchmark.
//!
//! ```text
//! e21_layers --workload <name> --seed <n> --seconds <s> --trace <0|1>   one pass of one workload
//! e21_layers run    [--seed n] [--out dir] [--smoke]                    every workload, both passes
//! e21_layers repeat --runs N [--seed n] [--out dir] [--smoke]           the set N times, with spreads
//! e21_layers list   [--json]                                            workloads and metrics
//! ```
//!
//! See `README.md` beside this package for what each workload and metric
//! is for.

#![forbid(unsafe_code)]

mod env;
mod layers;
mod measure;
mod oracle;
mod orchestrate;
mod report;
mod spec;
mod stats;
mod tables;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  e21_layers --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--corrupt-oracle]
  e21_layers run    [--seed <n>] [--out <dir>] [--seconds <s>] [--trace-seconds <s>] [--smoke] [--corrupt-oracle]
  e21_layers repeat --runs <N> [--seed <n>] [--out <dir>] [--seconds <s>] [--trace-seconds <s>] [--smoke]
  e21_layers list   [--json]";

/// Where outputs go unless `--out` says otherwise: inside the checkout,
/// and named in the repository's `.gitignore`.
const DEFAULT_OUT: &str = ".bench_out/e21";

#[derive(Default)]
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace_seconds: Option<u64>,
    trace: Option<u64>,
    runs: Option<u64>,
    out: Option<PathBuf>,
    smoke: bool,
    corrupt_oracle: bool,
    json: bool,
}

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut raw = raw.peekable();
    if raw.peek().is_some_and(|a| !a.starts_with("--")) {
        args.command = raw.next();
    }
    while let Some(flag) = raw.next() {
        let mut value = |name: &str| raw.next().ok_or_else(|| format!("{name} needs a value"));
        let whole = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{name} takes a whole number, got {v}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = Some(whole("--seed", value("--seed")?)?),
            "--seconds" => args.seconds = Some(whole("--seconds", value("--seconds")?)?),
            "--trace-seconds" => {
                args.trace_seconds = Some(whole("--trace-seconds", value("--trace-seconds")?)?)
            }
            "--trace" => args.trace = Some(whole("--trace", value("--trace")?)?),
            "--runs" => args.runs = Some(whole("--runs", value("--runs")?)?),
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => args.smoke = true,
            "--corrupt-oracle" => args.corrupt_oracle = true,
            "--json" => args.json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Set in the environment of a pass that already runs pinned.
const PINNED: &str = "E21_LAYERS_PINNED";

/// The last CPU this process may run on, from `/proc/self/status`.
fn last_allowed_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let last = list.trim().rsplit([',', '-']).next()?;
    last.parse::<u32>().ok().map(|cpu| cpu.to_string())
}

/// Runs this same pass again as a child confined to one CPU by
/// `taskset`, and returns how it ended; `None` where there is no
/// `taskset` or no `/proc`, and the pass then says so and runs unpinned.
///
/// The benchmark measures a one-core server. A read workload has one
/// request in flight and never uses two cores, but left alone the
/// scheduler may still put the client and the session thread on different
/// ones, and every request then pays a wake-up across CPUs, which inside a
/// virtual machine is an exit to the host: on the 2-core sandbox
/// `lookup_small` read 90 us on one core and 150 to 190 us, with several
/// times the spread, when that happened. `write_mix` has four threads, two
/// of them runnable; on two cores its latencies followed where the
/// scheduler had put them (the reader's p50 moved between 5.9 and 9.5 ms
/// from one second to the next), on one core they stay within 2 %.
fn rerun_pinned() -> Option<ExitCode> {
    let exe = std::env::current_exe().ok()?;
    let status = std::process::Command::new("taskset")
        .arg("-c")
        .arg(last_allowed_cpu()?)
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PINNED, "1")
        .status()
        .ok()?;
    Some(match status.code() {
        Some(code) => ExitCode::from(code as u8),
        None => ExitCode::FAILURE,
    })
}

fn dispatch(args: Args) -> Result<ExitCode, String> {
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(DEFAULT_OUT));
    let window = |asked: Option<u64>, default: u64| {
        let seconds = asked.unwrap_or(if args.smoke {
            spec::SMOKE_SECONDS
        } else {
            default
        });
        if seconds == 0 {
            Err("a pass lasts at least one second".to_owned())
        } else {
            Ok(seconds)
        }
    };
    let plan = || -> Result<orchestrate::Plan, String> {
        Ok(orchestrate::Plan {
            seed: args.seed.unwrap_or(1),
            seconds: window(args.seconds, spec::RUN_SECONDS)?,
            trace_seconds: window(args.trace_seconds, spec::TRACE_SECONDS)?,
            out: out.clone(),
            corrupt_oracle: args.corrupt_oracle,
        })
    };
    match args.command.as_deref() {
        Some("list") => {
            if args.json {
                print!("{}", spec::benchmark_json());
            } else {
                spec::print_list();
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => orchestrate::run(&plan()?).map(exit_code),
        Some("repeat") => {
            let runs = args.runs.ok_or("repeat needs --runs <N>")?;
            orchestrate::repeat(&plan()?, runs as usize).map(exit_code)
        }
        Some(other) => Err(format!("unknown command {other}\n{USAGE}")),
        None => {
            let workload = args.workload.as_deref().ok_or(USAGE)?;
            let options = env::Options {
                workload: spec::workload(workload)
                    .ok_or_else(|| format!("unknown workload {workload}; see `list`"))?,
                seed: args.seed.ok_or("--seed is required")?,
                seconds: window(args.seconds, spec::RUN_SECONDS)?,
                out: out.clone(),
                corrupt_oracle: args.corrupt_oracle,
            };
            if std::env::var_os(PINNED).is_none() {
                match rerun_pinned() {
                    Some(ended) => return Ok(ended),
                    None => eprintln!("e21_layers: cannot pin with taskset; running on every core"),
                }
            }
            std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
            let result = match args.trace.ok_or("--trace is required")? {
                0 => measure::run(&options)?,
                1 => layers::run(&options)?,
                other => return Err(format!("--trace takes 0 or 1, got {other}")),
            };
            // The contract's result: the last line of standard output.
            println!("{}", result.to_json().compact());
            Ok(exit_code(result.correct))
        }
    }
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("e21_layers: operations failed; see the report above");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(dispatch) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("e21_layers: {message}");
            ExitCode::from(2)
        }
    }
}
