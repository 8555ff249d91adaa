//! Golden-file snapshots of the explain surfaces: `explain` over a QUEL
//! text and over an algebra expression, in both `ExplainMode`s
//! (`EXPLAIN ANALYZE` timings masked), and the TRUE and MAYBE band plans,
//! at serial and 4-thread degrees.
//!
//! Timings, percentages, and per-worker morsel spreads are
//! scheduling-dependent, so [`mask`] replaces them with stable tokens
//! before comparison; everything else — operator tree shape, row
//! counters, cardinality estimates, q-errors, parallel degrees — must be
//! byte-identical run to run. Re-bless with `UPDATE_GOLDEN=1 cargo test`.

use std::path::PathBuf;

use nullrel_core::algebra::Expr;
use nullrel_core::predicate::Predicate;
use nullrel_core::tvl::{CompareOp, Truth};
use nullrel_core::universe::attr_set;
use nullrel_core::value::Value;
use nullrel_exec::{execute, OptimizeOptions, Parallelism};
use nullrel_query::plan::plan_access;
use nullrel_query::{explain, parse, resolve, ExplainMode, Input};
use nullrel_storage::{Database, SchemaBuilder};

const JOIN_QUERY: &str = "range of e is EMP range of m is EMP retrieve (e.NAME) \
                          where m.SEX = \"M\" and e.MGR# = m.E#";

/// Keys whose values are wall-clock readings and must be masked.
const DURATION_KEYS: &[&str] = &[
    "time=",
    "self=",
    "parse=",
    "plan=",
    "optimize=",
    "compile=",
    "run=",
    "total=",
];

/// A small deterministic EMP database (the e12 shape at n=24).
fn emp_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        SchemaBuilder::new("EMP")
            .required_column("E#")
            .column("NAME")
            .column("SEX")
            .column("MGR#")
            .key(&["E#"]),
    )
    .unwrap();
    let u = db.universe().clone();
    let t = db.table_mut("EMP").unwrap();
    for i in 0..24 {
        let mut cells = vec![
            ("E#", Value::int(i)),
            ("NAME", Value::str(format!("EMP{i}"))),
            ("SEX", Value::str(if i % 2 == 0 { "M" } else { "F" })),
        ];
        if i % 7 != 0 {
            cells.push(("MGR#", Value::int(i / 3)));
        }
        t.insert_named(&u, &cells).unwrap();
    }
    db
}

fn options(threads: usize) -> OptimizeOptions {
    OptimizeOptions {
        parallelism: if threads <= 1 {
            Parallelism::Serial
        } else {
            Parallelism::Threads(threads)
        },
        parallel_row_threshold: 0,
        // Pinned: the CI matrix sets NULLREL_ADAPTIVE and
        // NULLREL_BATCH_SIZE, which the default options inherit —
        // snapshots must not depend on the leg.
        adaptive: None,
        vectorize: true,
        batch_size: nullrel_exec::DEFAULT_BATCH_ROWS,
        ..OptimizeOptions::default()
    }
}

/// Replaces scheduling-dependent substrings with stable tokens: duration
/// values become `T`, percentages become `P%`, and `workers=[…]` spreads
/// become `workers=[masked]`.
fn mask(report: &str) -> String {
    let mut out = String::new();
    for line in report.lines() {
        // Mask worker spreads first — they contain spaces, so they must
        // go before token-level masking.
        let mut masked = String::new();
        let mut rest = line;
        while let Some(pos) = rest.find("workers=[") {
            let end = rest[pos..]
                .find(']')
                .map(|e| pos + e + 1)
                .unwrap_or(rest.len());
            masked.push_str(&rest[..pos]);
            masked.push_str("workers=[masked]");
            rest = &rest[end..];
        }
        masked.push_str(rest);
        let tokens: Vec<String> = masked
            .split(' ')
            .map(|tok| {
                for key in DURATION_KEYS {
                    if let Some(pos) = tok.find(key) {
                        let value_at = pos + key.len();
                        let trailer: String = tok[value_at..]
                            .chars()
                            .rev()
                            .take_while(|c| *c == ']')
                            .collect();
                        return format!("{}T{trailer}", &tok[..value_at]);
                    }
                }
                if tok.ends_with('%') && tok.starts_with(|c: char| c.is_ascii_digit()) {
                    return "P%".to_owned();
                }
                tok.to_owned()
            })
            .collect();
        out.push_str(&tokens.join(" "));
        out.push('\n');
    }
    out
}

/// Compares against `tests/golden/<name>.txt`, rewriting the file instead
/// when `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden file {path:?} — run once with UPDATE_GOLDEN=1"));
    assert_eq!(
        expected, actual,
        "snapshot drift in {name} (re-bless with UPDATE_GOLDEN=1 if intended)"
    );
}

#[test]
fn explain_physical_join_serial() {
    let db = emp_db();
    let report = explain(&db, JOIN_QUERY, options(1), ExplainMode::Executed).unwrap();
    check_golden("explain_physical_join_serial", &mask(&report));
}

#[test]
fn explain_physical_join_threads4() {
    let db = emp_db();
    let report = explain(&db, JOIN_QUERY, options(4), ExplainMode::Executed).unwrap();
    check_golden("explain_physical_join_threads4", &mask(&report));
}

#[test]
fn explain_physical_expr_setops() {
    let db = emp_db();
    let u = db.universe().clone();
    let sex = u.lookup("SEX").unwrap();
    let name = u.lookup("NAME").unwrap();
    let by = |v: &str| {
        Expr::named("EMP")
            .select(Predicate::attr_const(sex, CompareOp::Eq, Value::str(v)))
            .project(attr_set([name]))
    };
    let setops = by("M").difference(by("F")).union(by("M"));
    let report = explain(
        &db,
        Input::Expr(&setops, &u),
        options(1),
        ExplainMode::Executed,
    )
    .unwrap();
    check_golden("explain_physical_expr_setops", &mask(&report));
}

#[test]
fn explain_analyze_join_serial() {
    let db = emp_db();
    let report = explain(&db, JOIN_QUERY, options(1), ExplainMode::Analyzed).unwrap();
    check_golden("explain_analyze_join_serial", &mask(&report));
}

#[test]
fn explain_analyze_join_threads4() {
    let db = emp_db();
    let report = explain(&db, JOIN_QUERY, options(4), ExplainMode::Analyzed).unwrap();
    check_golden("explain_analyze_join_threads4", &mask(&report));
}

/// A vectorized Division plan under 4 threads: the dividend is a fused
/// scan → filter → project batch pipe (`batch=N` on every stage) feeding
/// a parallel Division, which must show its `par=4` grant.
#[test]
fn explain_analyze_vectorized_division_threads4() {
    let db = emp_db();
    let u = db.universe().clone();
    let sex = u.lookup("SEX").unwrap();
    let mgr = u.lookup("MGR#").unwrap();
    let division = Expr::named("EMP")
        .select(Predicate::attr_const(mgr, CompareOp::Ge, 0))
        .project(attr_set([mgr, sex]))
        .divide(attr_set([mgr]), Expr::named("EMP").project(attr_set([sex])));
    let report = explain(
        &db,
        Input::Expr(&division, &u),
        options(4),
        ExplainMode::Analyzed,
    )
    .unwrap();
    check_golden(
        "explain_analyze_vectorized_division_threads4",
        &mask(&report),
    );
}

/// The drain-heavy set operators — Difference and XIntersect — under 4
/// threads over vectorized inputs: both must show their `par=4` grant.
#[test]
fn explain_analyze_drain_setops_threads4() {
    let db = emp_db();
    let u = db.universe().clone();
    let sex = u.lookup("SEX").unwrap();
    let name = u.lookup("NAME").unwrap();
    let by = |v: &str| {
        Expr::named("EMP")
            .select(Predicate::attr_const(sex, CompareOp::Eq, Value::str(v)))
            .project(attr_set([name]))
    };
    let setops = by("M").difference(by("F")).x_intersect(by("M"));
    let report = explain(
        &db,
        Input::Expr(&setops, &u),
        options(4),
        ExplainMode::Analyzed,
    )
    .unwrap();
    check_golden("explain_analyze_drain_setops_threads4", &mask(&report));
}

/// The executed physical plans of both truth bands — the MAYBE band
/// compiles the plan as written (no optimizer), which the snapshot pins.
#[test]
fn band_plans_true_and_maybe() {
    let db = emp_db();
    let text = "range of e is EMP retrieve (e.NAME, e.E#) where e.MGR# > 3";
    let resolved = resolve(&db, &parse(text).unwrap()).unwrap();
    let expr = plan_access(&resolved);
    let (_, true_stats) = execute(&expr, &db, &resolved.universe, Truth::True, options(1)).unwrap();
    let (_, maybe_stats) = execute(&expr, &db, &resolved.universe, Truth::Ni, options(1)).unwrap();
    let combined = format!(
        "TRUE band:\n{}MAYBE band:\n{}",
        true_stats.render(),
        maybe_stats.render()
    );
    check_golden("band_plans_true_and_maybe", &mask(&combined));
}
