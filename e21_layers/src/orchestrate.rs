//! `run` and `repeat`: every workload in a child process of its own, so
//! `process.peak_rss_mb` and the process-wide metrics registry are per
//! workload.

use std::path::Path;
use std::process::Command;

use crate::report::{bench_json, RunResult, WorkloadReport};
use crate::spec::{self, Better};
use crate::stats;

/// What `run` and `repeat` are asked to do.
#[derive(Clone, Debug)]
pub struct Plan {
    pub seed: u64,
    pub seconds: u64,
    pub trace_seconds: u64,
    pub out: std::path::PathBuf,
    pub corrupt_oracle: bool,
}

/// Runs one pass of one workload in a child process and reads its result
/// line. The child's report is passed through.
fn child(plan: &Plan, workload: &str, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let seconds = if trace {
        plan.trace_seconds
    } else {
        plan.seconds
    };
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&plan.out);
    if plan.corrupt_oracle {
        command.arg("--corrupt-oracle");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("  {line}");
    }
    RunResult::from_line(last).map_err(|e| {
        format!(
            "the {workload} child ({}) printed no result line: {e}",
            output.status
        )
    })
}

/// Runs both passes of every workload, in the given order.
fn run_set(plan: &Plan, order: &[&'static str]) -> Result<Vec<WorkloadReport>, String> {
    let mut reports = Vec::new();
    for &workload in order {
        println!("== {workload}: end-to-end pass, {} rounds", plan.seconds);
        let end_to_end = child(plan, workload, false)?;
        println!("== {workload}: traced pass, {} s", plan.trace_seconds);
        let per_layer = child(plan, workload, true)?;
        reports.push(WorkloadReport {
            workload: workload.to_owned(),
            end_to_end,
            per_layer,
            trace_file: format!("trace_{workload}.json"),
        });
    }
    Ok(reports)
}

fn workload_names() -> Vec<&'static str> {
    spec::WORKLOADS.iter().map(|w| w.name).collect()
}

fn all_correct(reports: &[WorkloadReport]) -> bool {
    reports
        .iter()
        .all(|r| r.end_to_end.correct && r.per_layer.correct)
}

/// `run`: one set, every metric by name, `BENCH_e21.json`. False when an
/// operation failed.
pub fn run(plan: &Plan) -> Result<bool, String> {
    std::fs::create_dir_all(&plan.out)
        .map_err(|e| format!("create {}: {e}", plan.out.display()))?;
    let reports = run_set(plan, &workload_names())?;
    println!("== every metric, by workload");
    for report in &reports {
        for (pass, result) in [
            ("end_to_end", &report.end_to_end),
            ("per_layer", &report.per_layer),
        ] {
            for m in &result.metrics {
                println!(
                    "{:<13} {pass:<10} {:<34} {:>16.4} {}",
                    report.workload, m.name, m.value, m.unit
                );
            }
        }
        println!(
            "{:<13} operations: {} attempted, {} failed",
            report.workload,
            report.end_to_end.attempted + report.per_layer.attempted,
            report.end_to_end.failed + report.per_layer.failed
        );
    }
    write_bench(&plan.out, plan, &reports)?;
    Ok(all_correct(&reports))
}

fn write_bench(out: &Path, plan: &Plan, reports: &[WorkloadReport]) -> Result<(), String> {
    let path = out.join("BENCH_e21.json");
    let doc = bench_json(plan.seed, plan.seconds, plan.trace_seconds, reports);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "wrote {} and {} trace files in {}",
        path.display(),
        reports.len(),
        out.display()
    );
    Ok(())
}

/// `repeat`: the whole set `runs` times on consecutive seeds, alternating
/// the workload order, then the run-to-run spread of every metric. False
/// when an operation failed.
pub fn repeat(plan: &Plan, runs: usize) -> Result<bool, String> {
    std::fs::create_dir_all(&plan.out)
        .map_err(|e| format!("create {}: {e}", plan.out.display()))?;
    let mut sets = Vec::with_capacity(runs);
    for r in 0..runs {
        let mut order = workload_names();
        if r % 2 == 1 {
            order.reverse();
        }
        let plan = Plan {
            seed: plan.seed + r as u64,
            ..plan.clone()
        };
        println!(
            "==== run {} of {runs}, seed {}, order {order:?}",
            r + 1,
            plan.seed
        );
        sets.push(run_set(&plan, &order)?);
    }
    let correct = sets.iter().all(|s| all_correct(s));
    if runs < 2 {
        return Ok(correct);
    }

    println!("==== spread over {runs} runs: median, quartiles, (q3-q1)/median");
    let mut unsteady = 0;
    for workload in workload_names() {
        let values = |pick: &dyn Fn(&WorkloadReport) -> &RunResult, name: &str| -> Vec<f64> {
            sets.iter()
                .filter_map(|set| set.iter().find(|r| r.workload == workload))
                .filter_map(|r| pick(r).metric(name))
                .collect()
        };
        for m in &spec::END_TO_END {
            let v = values(&|r| &r.end_to_end, m.name);
            let [q1, q2, q3] = stats::quartiles(&v);
            let spread = stats::spread(&v);
            // setup_s is bounded on its median only.
            let flag = if m.name != "setup_s" && spread > m.bound / 2.0 {
                unsteady += 1;
                "  UNSTEADY: spread exceeds half the bound"
            } else {
                ""
            };
            println!(
                "{workload:<13} {:<34} {q2:>14.4} {:<5} q1 {q1:.4} q3 {q3:.4} spread {:>5.1}% of bound {:>2.0}% ({}){flag}",
                m.name,
                m.unit,
                spread * 100.0,
                m.bound * 100.0,
                match m.better {
                    Better::Lower => "lower is better",
                    Better::Higher => "higher is better",
                }
            );
        }
        for m in &spec::PER_LAYER {
            let v = values(&|r| &r.per_layer, m.name);
            let [q1, q2, q3] = stats::quartiles(&v);
            let spread = if q2 != 0.0 {
                (q3 - q1) / q2.abs() * 100.0
            } else {
                0.0
            };
            println!(
                "{workload:<13} {:<34} {q2:>14.4} {:<5} q1 {q1:.4} q3 {q3:.4} spread {spread:>5.1}%",
                m.name, m.unit
            );
        }
    }
    println!("{unsteady} end-to-end metric(s) flagged unsteady");
    Ok(correct)
}
