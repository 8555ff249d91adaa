//! CI perf-regression gate: `bench_compare <baseline_dir> <fresh_dir>
//! [--report <path>]`.
//!
//! Reads every `BENCH_*.json` in the baseline directory, pairs it with
//! the same-named artifact in the fresh directory, and gates the
//! direction-aware readings (see [`nullrel_bench::compare`](mod@nullrel_bench::compare)) under the
//! relative tolerance from `NULLREL_BENCH_TOLERANCE` (default 0.25).
//! A baseline artifact with no fresh counterpart fails the gate — a
//! bench that silently stopped running must not pass. Exits 1 on any
//! regression, printing (and optionally writing) the report.

use std::path::Path;
use std::process::ExitCode;

use nullrel_bench::compare::{
    compare, has_regression, parse_artifact, render_report, Comparison, DEFAULT_TOLERANCE,
};

fn usage() -> ExitCode {
    eprintln!("usage: bench_compare <baseline_dir> <fresh_dir> [--report <path>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut report_path: Option<String> = None;
    let mut dirs: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--report" {
            match it.next() {
                Some(p) => report_path = Some(p),
                None => return usage(),
            }
        } else {
            dirs.push(arg);
        }
    }
    let [baseline_dir, fresh_dir] = dirs.as_slice() else {
        return usage();
    };

    let tolerance = std::env::var("NULLREL_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|t| t.is_finite() && *t >= 0.0)
        .unwrap_or(DEFAULT_TOLERANCE);

    let mut artifacts: Vec<String> = match std::fs::read_dir(baseline_dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(err) => {
            eprintln!("bench_compare: cannot read baseline dir {baseline_dir}: {err}");
            return ExitCode::from(2);
        }
    };
    artifacts.sort();
    if artifacts.is_empty() {
        eprintln!("bench_compare: no BENCH_*.json baselines in {baseline_dir}");
        return ExitCode::from(2);
    }

    let mut comparisons: Vec<Comparison> = Vec::new();
    for name in &artifacts {
        let bench = name.trim_start_matches("BENCH_").trim_end_matches(".json");
        let base_body = match std::fs::read_to_string(Path::new(baseline_dir).join(name)) {
            Ok(b) => b,
            Err(err) => {
                eprintln!("bench_compare: cannot read baseline {name}: {err}");
                return ExitCode::from(2);
            }
        };
        let base = parse_artifact(bench, &base_body);
        // A missing fresh artifact yields an empty fresh set: every
        // gated baseline reading turns into a MISSING failure.
        let fresh = match std::fs::read_to_string(Path::new(fresh_dir).join(name)) {
            Ok(body) => parse_artifact(bench, &body),
            Err(_) => {
                eprintln!("bench_compare: fresh artifact {name} missing from {fresh_dir}");
                Vec::new()
            }
        };
        comparisons.extend(compare(&base, &fresh, tolerance));
    }

    let report = render_report(&comparisons, tolerance);
    print!("{report}");
    if let Some(path) = report_path {
        if let Err(err) = std::fs::write(&path, &report) {
            eprintln!("bench_compare: cannot write report {path}: {err}");
            return ExitCode::from(2);
        }
    }
    if has_regression(&comparisons) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
