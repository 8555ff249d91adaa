//! Integration tests for the observability layer: `EXPLAIN ANALYZE`
//! coverage of the e13 star-join plan, chrome-trace export of an e14
//! parallel run with one lane per worker, the slow-query log, and the
//! engine metrics the query path feeds.

use std::sync::{Arc, Mutex, MutexGuard};

use nullrel_core::algebra::Expr;
use nullrel_core::predicate::Predicate;
use nullrel_core::tvl::{CompareOp, Truth};
use nullrel_core::universe::AttrId;
use nullrel_core::value::Value;
use nullrel_exec::{execute, OptimizeOptions, Parallelism};
use nullrel_obs::{install_sink, metrics, uninstall_sink, RingSink};
use nullrel_query::{explain, run, ExplainMode, Input};
use nullrel_storage::{Database, SchemaBuilder};

/// The process-global sink and slow-log are shared across this binary's
/// parallel test threads; tests that touch them serialize here.
fn global_obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The e13/e14 star schema: three dimensions and a fact table referencing
/// each, no indexes so every join hashes.
fn star_db(n: usize) -> Database {
    let dim_rows = (n / 4).max(2);
    let mut db = Database::new();
    for d in 0..3 {
        db.create_table(
            SchemaBuilder::new(format!("DIM{d}"))
                .required_column(format!("K{d}"))
                .column(format!("V{d}"))
                .key(&[&format!("K{d}")]),
        )
        .unwrap();
    }
    db.create_table(
        SchemaBuilder::new("FACT")
            .required_column("F#")
            .column("FK0")
            .column("FK1")
            .column("FK2")
            .key(&["F#"]),
    )
    .unwrap();
    let u = db.universe().clone();
    for d in 0..3usize {
        let key = format!("K{d}");
        let val = format!("V{d}");
        let t = db.table_mut(&format!("DIM{d}")).unwrap();
        for i in 0..dim_rows as i64 {
            t.insert_named(
                &u,
                &[
                    (&key as &str, Value::int(i)),
                    (&val as &str, Value::int(i * 7)),
                ],
            )
            .unwrap();
        }
    }
    let t = db.table_mut("FACT").unwrap();
    for i in 0..n as i64 {
        t.insert_named(
            &u,
            &[
                ("F#", Value::int(i)),
                ("FK0", Value::int(i % dim_rows as i64)),
                ("FK1", Value::int((i + 1) % dim_rows as i64)),
                ("FK2", Value::int((i + 2) % dim_rows as i64)),
            ],
        )
        .unwrap();
    }
    db
}

fn star_plan(db: &Database) -> Expr {
    let u = db.universe();
    let keys: Vec<AttrId> = (0..3)
        .map(|d| u.lookup(&format!("K{d}")).unwrap())
        .collect();
    let fks: Vec<AttrId> = (0..3)
        .map(|d| u.lookup(&format!("FK{d}")).unwrap())
        .collect();
    Expr::named("DIM0")
        .product(Expr::named("DIM1"))
        .product(Expr::named("DIM2"))
        .product(Expr::named("FACT"))
        .select(
            Predicate::attr_attr(fks[0], CompareOp::Eq, keys[0])
                .and(Predicate::attr_attr(fks[1], CompareOp::Eq, keys[1]))
                .and(Predicate::attr_attr(fks[2], CompareOp::Eq, keys[2])),
        )
}

fn emp_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        SchemaBuilder::new("EMP")
            .required_column("E#")
            .column("NAME")
            .column("MGR#")
            .key(&["E#"]),
    )
    .unwrap();
    let u = db.universe().clone();
    let t = db.table_mut("EMP").unwrap();
    for i in 0..32 {
        t.insert_named(
            &u,
            &[
                ("E#", Value::int(i)),
                ("NAME", Value::str(format!("EMP{i}"))),
                ("MGR#", Value::int(i / 3)),
            ],
        )
        .unwrap();
    }
    db
}

/// Acceptance: `EXPLAIN ANALYZE` annotates **every** operator of the e13
/// star-join plan — three hash joins, four scans, the projections, and
/// the Minimize sink all carry `[time=… self=… act=… est=… q-err=…
/// par=…]`.
#[test]
fn explain_analyze_covers_every_star_join_operator() {
    let db = star_db(400);
    let plan = star_plan(&db);
    let report = explain(
        &db,
        Input::Expr(&plan, db.universe()),
        OptimizeOptions::default(),
        ExplainMode::Analyzed,
    )
    .unwrap();
    let physical = report
        .split("physical (analyzed):\n")
        .nth(1)
        .expect("analyzed section present");
    let op_lines: Vec<&str> = physical
        .lines()
        .take_while(|l| l.starts_with(' ') || !l.contains(':'))
        .filter(|l| !l.trim().is_empty())
        .collect();
    assert!(
        op_lines.len() >= 8,
        "the 4-way star plan has at least 8 operators:\n{report}"
    );
    for line in &op_lines {
        for needle in ["[time=", "self=", "act=", "est=", "q-err=", "par="] {
            assert!(
                line.contains(needle),
                "operator line missing {needle}: {line}\n{report}"
            );
        }
    }
    let joins = op_lines.iter().filter(|l| l.contains("HashJoin")).count();
    assert_eq!(joins, 3, "star join runs three hash joins:\n{report}");
    assert!(report.contains("phases:"), "{report}");
}

/// Acceptance: a chrome-trace export of an e14-style 4-thread run renders
/// one lane per worker — thread-name metadata for `worker 1..=4` plus the
/// coordinator's `query` lane, and every span lands on one of them.
#[test]
fn chrome_trace_of_parallel_run_has_one_lane_per_worker() {
    let _guard = global_obs_lock();
    // 4 000 fact rows, not e13's 400: every stage then outlasts a
    // scheduler time slice, so all four workers get to claim a morsel even
    // on a two-core host (at 400 rows the hashed minimise is over first).
    let db = star_db(4000);
    let plan = star_plan(&db);
    let options = OptimizeOptions {
        parallelism: Parallelism::Threads(4),
        parallel_row_threshold: 0,
        ..OptimizeOptions::default()
    };
    let sink = Arc::new(RingSink::new(4));
    install_sink(sink.clone());
    // Whether all four granted workers claim a morsel before the queue
    // drains is a scheduler race on few-core hosts; retry until a run
    // exercises every lane, then assert the export is complete.
    let mut trace = None;
    for _ in 0..50 {
        {
            let _q = nullrel_obs::begin_query("e14 star join, 4 threads");
            execute(&plan, &db, db.universe(), Truth::True, options).unwrap();
        }
        let t = sink.latest().expect("query trace delivered to the sink");
        if t.max_lane() == 4 {
            trace = Some(t);
            break;
        }
    }
    uninstall_sink();
    let trace = trace.expect("a 4-thread run where every worker claimed a morsel");
    assert_eq!(trace.name, "e14 star join, 4 threads");
    assert_eq!(trace.max_lane(), 4, "one lane per worker at 4 threads");
    let json = trace.chrome_trace_json();
    for lane in [
        "\"query\"",
        "\"worker 1\"",
        "\"worker 2\"",
        "\"worker 3\"",
        "\"worker 4\"",
    ] {
        assert!(json.contains(lane), "missing lane {lane} in export");
    }
    assert!(json.contains("\"traceEvents\""));
    assert!(
        trace.spans.iter().any(|s| s.cat == "task" && s.lane >= 1),
        "worker morsel spans recorded on worker lanes"
    );
    assert!(
        trace.spans.iter().any(|s| s.cat == "phase" && s.lane == 0),
        "phase spans recorded on the coordinator lane"
    );
    // The export also writes to disk (how a user opens it in
    // chrome://tracing or Perfetto).
    let path = std::env::temp_dir().join("nullrel_e14_trace.json");
    trace.write_chrome_trace(&path).unwrap();
    let on_disk = std::fs::read_to_string(&path).unwrap();
    assert_eq!(on_disk, json);
    let _ = std::fs::remove_file(&path);
}

/// Slow-query logging: with the threshold at 0 ms every query is slow,
/// and its full trace lands in the in-process ring.
#[test]
fn slow_query_log_captures_full_traces() {
    let _guard = global_obs_lock();
    let db = emp_db();
    nullrel_obs::set_slow_query_ms(Some(0));
    let before = nullrel_obs::slow_log().len();
    let slow_count_before = metrics::SLOW_QUERIES.get();
    run(
        &db,
        "range of e is EMP range of m is EMP retrieve (e.NAME) where e.MGR# = m.E#",
        Truth::True,
        OptimizeOptions::default(),
    )
    .unwrap();
    nullrel_obs::set_slow_query_ms(None);
    assert!(
        nullrel_obs::slow_log().len() > before,
        "slow log captured the query"
    );
    assert!(metrics::SLOW_QUERIES.get() > slow_count_before);
    let traces = nullrel_obs::slow_log().traces();
    let trace = traces.last().unwrap();
    assert!(
        trace.name.contains("retrieve (e.NAME)"),
        "slow-log entry is labeled with the query text: {}",
        trace.name
    );
    assert!(!trace.spans.is_empty(), "the full trace rides along");

    // Disarmed again: queries no longer reach the slow log.
    let after = nullrel_obs::slow_log().len();
    run(
        &db,
        "range of e is EMP retrieve (e.NAME)",
        Truth::True,
        OptimizeOptions::default(),
    )
    .unwrap();
    assert_eq!(nullrel_obs::slow_log().len(), after);
}

/// The query path feeds the engine metrics registry: executed-query
/// count, rows scanned, hash-join builds/probes, minimized rows, and the
/// per-phase latency histograms all move.
#[test]
fn query_execution_feeds_the_metrics_registry() {
    let db = emp_db();
    let before = metrics::snapshot();
    let out = run(
        &db,
        "range of e is EMP range of m is EMP retrieve (e.NAME) where e.MGR# = m.E#",
        Truth::True,
        OptimizeOptions::default(),
    )
    .unwrap();
    assert!(!out.is_empty());
    let after = metrics::snapshot();
    let delta = |name: &str| after.counter(name) as i64 - before.counter(name) as i64;
    assert!(delta("nullrel_queries_executed_total") >= 1);
    assert!(delta("nullrel_rows_scanned_total") >= 64, "two EMP scans");
    assert!(delta("nullrel_hash_join_builds_total") >= 1);
    assert!(delta("nullrel_hash_join_probes_total") >= 32);
    assert!(delta("nullrel_rows_minimized_total") >= 1);
    let phase_count = |snap: &nullrel_obs::MetricsSnapshot, name: &str| {
        snap.histograms.get(name).map_or(0, |h| h.count)
    };
    for h in [
        "nullrel_phase_parse_us",
        "nullrel_phase_plan_us",
        "nullrel_phase_run_us",
        "nullrel_query_latency_us",
    ] {
        assert!(
            phase_count(&after, h) > phase_count(&before, h),
            "{h} must observe the query"
        );
    }
    // The registry renders for scraping, with the moved counters present.
    let prom = metrics::render_prometheus();
    assert!(prom.contains("# TYPE nullrel_queries_executed_total counter"));
    assert!(prom.contains("nullrel_query_latency_us_bucket{le=\"+Inf\"}"));
}
