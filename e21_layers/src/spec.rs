//! The benchmark's one table: workloads, end-to-end metrics with their
//! bounds, per-layer metrics with the end-to-end metric each should move.
//!
//! `list` prints it, `list --json` renders `BENCHMARK.json` from it, and a
//! unit test compares that rendering with the committed file, so the two
//! cannot drift.

/// Seconds one contract run measures, one round of reads per second;
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 14;
/// Rounds of a `--smoke` run, and seconds of its traced pass.
pub const SMOKE_SECONDS: u64 = 2;
/// Traced-pass length used by `run` and `repeat`.
pub const TRACE_SECONDS: u64 = 5;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "e21_layers/Cargo.toml",
    "--",
];

/// The directory that holds the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["e21_layers"];

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line, at most 200 characters: the traffic, its weights, and the
    /// layer it exists to stress.
    pub why: &'static str,
    /// True when a writer connection runs beside the reader for the whole
    /// read phase of every round.
    pub concurrent_writer: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "point_read",
        why: "16 hot prepared texts over EMP 12000 rows, round-robin 3 QUEL point filters : 1 MAYBE ni band of 50 rows; exec.compile dominates, so an O(plan) compile must show here",
        concurrent_writer: false,
    },
    Workload {
        name: "lookup_small",
        why: "QUEL key lookup on SMALL 200 rows, key uniform over 0..4096 so the 64-entry prepared cache misses; fixed per-request cost only, any O(table) change must not move it",
        concurrent_writer: false,
    },
    Workload {
        name: "join_read",
        why: "cycle of 20: 10 Figure-2 self-joins on MID, 2 each of star join, MAYBE theta join, TRUE theta join, EXPR divide, EXPR diff; exec.run dominates, merged operators must hold it still",
        concurrent_writer: false,
    },
    Workload {
        name: "wide_result",
        why: "1500-row result from EMP, 4 QUEL : 1 un-renamed EXPR scan; cost is result minimisation, rendering, encoding and a 37 KB socket write, which a point-read gain must not tax",
        concurrent_writer: false,
    },
    Workload {
        name: "write_mix",
        why: "durable commits beside reads on 2 connections: writer loops 4 one-row INSERT : 1 DELETE of the churn rows while a reader runs point_read's QUEL texts; shows what writers cost readers",
        concurrent_writer: true,
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the server would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
        what: "build tables, oracle answers, open and seed the data dir, start the server, connect, warm up (fastest of 3 set-ups spread through the run)",
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        what: "wire round trip of read requests: the median of the fastest round",
    },
    EndToEnd {
        name: "read_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        what: "read requests completed per second in the fastest round",
    },
    EndToEnd {
        name: "write_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        what: "wire round trip of acknowledged durable commits, the median of the fastest round; beside the reader on write_mix, 40 alone after each round's reads elsewhere",
    },
    EndToEnd {
        name: "write_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        what: "acknowledged commits per second in the fastest round",
    },
    EndToEnd {
        name: "recovery_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
        what: "open_with of a snapshot plus a 64-record WAL tail, once per round: the fastest",
    },
];

/// A metric of a single layer, measured in the traced pass.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The public function the probe times, or how the value is derived.
    pub probe: &'static str,
    /// The end-to-end metric and workload this layer metric should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    probe: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        probe,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 35] = [
    layer(
        "serve.request_parse_us",
        "us",
        Lower,
        "Request::parse",
        "read_p50_us on lookup_small",
    ),
    layer(
        "serve.session_us",
        "us",
        Lower,
        "Session::handle total",
        "read_p50_us on lookup_small",
    ),
    layer(
        "serve.session_other_us",
        "us",
        Lower,
        "session total minus the replayed stages",
        "read_p50_us on lookup_small",
    ),
    layer(
        "serve.wire_us",
        "us",
        Lower,
        "wire p50 minus in-process Session::handle p50",
        "read_p50_us on lookup_small",
    ),
    layer(
        "serve.wire_p95_us",
        "us",
        Lower,
        "95th percentile of the wire pass's round trips; an end-to-end tail, kept unbounded because on a busy host it measures the neighbours",
        "none",
    ),
    layer(
        "serve.prepared_hit_ratio",
        "ratio",
        Higher,
        "prepared hit/miss counter deltas over the wire pass",
        "read_p50_us on lookup_small",
    ),
    layer(
        "serve.encode_us",
        "us",
        Lower,
        "protocol::write_ok into a Vec",
        "read_p50_us on wide_result",
    ),
    layer(
        "serve.response_bytes",
        "B",
        Lower,
        "encoded response size per read request",
        "read_p50_us on wide_result",
    ),
    layer(
        "query.parse_us",
        "us",
        Lower,
        "parse on a prepared-cache miss; expr::parse_expr for EXPR, which has no cache",
        "read_ops_s on lookup_small",
    ),
    layer(
        "query.plan_us",
        "us",
        Lower,
        "prepare minus parse",
        "read_ops_s on lookup_small",
    ),
    layer(
        "query.render_us",
        "us",
        Lower,
        "QueryOutput::render, expr::render_rows for EXPR",
        "read_p50_us on wide_result",
    ),
    layer(
        "stats.estimate_us",
        "us",
        Lower,
        "Estimator::new(&db).estimate(plan); repeated inside optimize and compile",
        "read_p50_us on lookup_small and join_read",
    ),
    layer(
        "exec.optimize_us",
        "us",
        Lower,
        "optimize_with",
        "read_p50_us on join_read",
    ),
    layer(
        "exec.compile_us",
        "us",
        Lower,
        "compile_with",
        "read_p50_us on point_read and the reader on write_mix",
    ),
    layer(
        "exec.run_us",
        "us",
        Lower,
        "Pipeline::run, its minimising sink included",
        "read_p50_us on join_read and wide_result",
    ),
    layer(
        "exec.rows_examined_per_row_out",
        "ratio",
        Lower,
        "ExecStats::rows_examined over result rows",
        "read_p50_us on join_read and wide_result",
    ),
    layer(
        "core.minimize_us",
        "us",
        Lower,
        "XRelation::from_tuples over the result rows: sizes the sink inside exec.run_us",
        "read_p50_us on wide_result",
    ),
    layer(
        "core.result_rows",
        "count",
        Lower,
        "result rows per read request, first cycle",
        "read_p50_us on wide_result",
    ),
    layer(
        "storage.pin_us",
        "us",
        Lower,
        "VersionedDatabase::pin",
        "write_p50_us on write_mix",
    ),
    layer(
        "storage.commit_us",
        "us",
        Lower,
        "in-memory commit_ops of one INSERT",
        "write_p50_us on write_mix",
    ),
    layer(
        "storage.commit_p95_us",
        "us",
        Lower,
        "95th percentile of durable commit_ops over 500 commits of the writer's stream: the DELETE mode",
        "write_ops_s on write_mix",
    ),
    layer(
        "storage.apply_us",
        "us",
        Lower,
        "wal::apply_op on an unshared clone",
        "write_p50_us on write_mix",
    ),
    layer(
        "storage.clone_us",
        "us",
        Lower,
        "commit minus apply: the copy-on-write table copy",
        "write_p50_us on write_mix, and read_p50_us there",
    ),
    layer(
        "storage.wal_append_us",
        "us",
        Lower,
        "Wal::append on a scratch log under the served flush policy",
        "write_p50_us on write_mix",
    ),
    layer(
        "storage.wal_bytes_per_commit",
        "B",
        Lower,
        "durability_status wal_bytes delta per commit",
        "write_p50_us on write_mix",
    ),
    layer(
        "storage.wal_sync_us",
        "us",
        Lower,
        "Wal::append plus sync on a scratch log",
        "storage.commit_p95_us, and write_ops_s on write_mix",
    ),
    layer(
        "storage.snapshot_us",
        "us",
        Lower,
        "snapshot_now",
        "storage.commit_p95_us, and write_ops_s on write_mix",
    ),
    layer(
        "storage.snapshots_written",
        "count",
        Lower,
        "snapshots landed during 500 durable commits at the 16 KiB threshold",
        "storage.commit_p95_us, and write_ops_s on write_mix",
    ),
    layer(
        "storage.snapshot_bytes_per_row",
        "B",
        Lower,
        "snapshot.bin size over stored rows",
        "storage.commit_p95_us, and write_ops_s on write_mix",
    ),
    layer(
        "storage.recovery_replay_us",
        "us",
        Lower,
        "open_with of a 64-record tail minus open_with of the bare snapshot, per record",
        "recovery_s",
    ),
    layer(
        "process.peak_rss_mb",
        "MB",
        Lower,
        "VmHWM after set-up, the wire pass and the untraced pass; too unsteady here (spread 4-14 %) for a 10 % bound",
        "none",
    ),
    layer(
        "process.cpu_ms_per_op",
        "ms",
        Lower,
        "process user+system time over the wire pass per request; on one core in a closed loop it is the inverse of the throughput, so it is not a bounded metric of its own",
        "none",
    ),
    layer(
        "obs.records_per_request",
        "ratio",
        Lower,
        "nullrel_queries_executed_total delta over wire requests sent; must read 1.0",
        "none",
    ),
    layer(
        "trace.unattributed_share",
        "ratio",
        Lower,
        "serve.session_other_us over serve.session_us",
        "none",
    ),
    layer(
        "trace.overhead_share",
        "ratio",
        Lower,
        "mean Session::handle in the traced pass over the untraced pass, minus 1",
        "none",
    ),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The layer a per-layer metric belongs to: the part of its name before
/// the dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

fn json_str(s: &str) -> String {
    crate::report::json_string(s)
}

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let command = COMMAND.iter().map(|s| json_str(s)).collect::<Vec<_>>();
    let paths = PATHS.iter().map(|s| json_str(s)).collect::<Vec<_>>();
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \
         \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.join(", "),
        paths.join(", "),
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

/// Prints every workload and metric with unit, layer and bound.
pub fn print_list() {
    println!("workloads ({RUN_SECONDS} rounds of 1 s of reads, closed loop):");
    for w in &WORKLOADS {
        let clients = if w.concurrent_writer { 2 } else { 1 };
        println!("  {:<13} {clients} connection(s)  {}", w.name, w.why);
    }
    println!("end-to-end metrics:");
    for m in &END_TO_END {
        println!(
            "  {:<15} {:<4} better={:<6} bound={:>3.0}%  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("per-layer metrics (traced pass; no bound):");
    for m in &PER_LAYER {
        println!(
            "  {:<34} {:<6} layer={:<8} probe: {}; should move: {}",
            m.name,
            m.unit,
            layer_of(m.name),
            m.probe,
            m.moves
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `e21_layers list --json > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_table_meets_the_contract_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
            names.push(w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            names.push(m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "names are used once");
        assert!(benchmark_json().len() <= 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
