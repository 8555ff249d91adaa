//! One way to run a query: `run` over a text, `run` over the prepared form
//! of that text, and `nullrel_exec::execute` over its access plan return
//! the same rows in both truth bands, and those rows equal the tree-walk
//! oracle's. Each `run` counts one executed query and leaves one flight
//! record naming its band and result size.
//!
//! This file owns its test process (one `#[test]`): the executed-query
//! counter and the flight recorder are process-wide.

use nullrel_core::algebra::{Expr, NoSource};
use nullrel_core::predicate::Predicate;
use nullrel_core::tvl::{CompareOp, Truth};
use nullrel_core::universe::attr_set;
use nullrel_core::value::Value;
use nullrel_core::xrel::XRelation;
use nullrel_exec::OptimizeOptions;
use nullrel_obs::metrics::QUERIES_EXECUTED;
use nullrel_obs::recorder;
use nullrel_query::plan::{plan, plan_access};
use nullrel_query::{
    execute_resolved_naive, parse, prepare, resolve, run, Input, QueryOutput, FIGURE_1_QUERY,
    FIGURE_2_QUERY,
};
use nullrel_storage::{Database, SchemaBuilder};

/// Table II's EMP with the managers its `MGR#` column names, some
/// telephone numbers recorded and one manager unknown (`ni`).
fn emp_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        SchemaBuilder::new("EMP")
            .required_column("E#")
            .column("NAME")
            .column("SEX")
            .column("MGR#")
            .column("TEL#")
            .key(&["E#"]),
    )
    .unwrap();
    let u = db.universe().clone();
    let t = db.table_mut("EMP").unwrap();
    for (e, name, sex, mgr, tel) in [
        (1120, "SMITH", "M", Some(2235), None),
        (4335, "BROWN", "F", Some(2235), Some(2_639_452)),
        (8799, "GREEN", "M", Some(1255), Some(2_631_000)),
        (2235, "JONES", "M", Some(1255), None),
        (1255, "ADAMS", "F", None, Some(2_600_000)),
    ] {
        let mut cells = vec![
            ("E#", Value::int(e)),
            ("NAME", Value::str(name)),
            ("SEX", Value::str(sex)),
        ];
        if let Some(mgr) = mgr {
            cells.push(("MGR#", Value::int(mgr)));
        }
        if let Some(tel) = tel {
            cells.push(("TEL#", Value::int(tel)));
        }
        t.insert_named(&u, &cells).unwrap();
    }
    db
}

/// A query whose interesting answers are in the MAYBE band: ADAMS' manager
/// is unknown.
const MAYBE_QUERY: &str = "range of e is EMP retrieve (e.NAME) where e.MGR# = 2235";

/// The tree-walk oracle of a QUEL text in either band. The TRUE band is
/// `execute_resolved_naive`; the MAYBE band filters the same literal
/// product for the tuples whose qualification evaluates to `ni`.
fn oracle(db: &Database, text: &str, band: Truth) -> XRelation {
    let resolved = resolve(db, &parse(text).unwrap()).unwrap();
    if band == Truth::True {
        return XRelation::from_tuples(execute_resolved_naive(&resolved).unwrap().rows);
    }
    let product = resolved
        .ranges
        .iter()
        .map(|range| Expr::literal(range.xrelation()))
        .reduce(Expr::product)
        .unwrap()
        .eval(&NoSource)
        .unwrap();
    let predicate = resolved.predicate.clone().unwrap_or_else(Predicate::always);
    let targets = attr_set(resolved.targets.iter().map(|(_, attr)| *attr));
    XRelation::from_tuples(
        product
            .tuples()
            .iter()
            .filter(|t| predicate.eval(t).unwrap() == Truth::Ni)
            .map(|t| t.project(&targets)),
    )
}

/// Runs one input, checking that it counts once and records its band and
/// result size under the label it was given.
fn run_counted(db: &Database, input: Input<'_>, band: Truth, label: &str) -> QueryOutput {
    let before = QUERIES_EXECUTED.get();
    let out = run(db, input, band, OptimizeOptions::default()).unwrap();
    assert_eq!(QUERIES_EXECUTED.get(), before + 1, "{label}: counted once");
    let record = &recorder::recent(1)[0];
    // The recorder keeps the label with its whitespace collapsed.
    assert_eq!(
        record.text,
        label.split_whitespace().collect::<Vec<_>>().join(" ")
    );
    let band_name = if band == Truth::True { "TRUE" } else { "MAYBE" };
    assert_eq!(record.band, band_name, "{label}");
    assert_eq!(record.rows_out, out.rows.len() as u64, "{label}");
    out
}

#[test]
fn every_entry_point_agrees_in_both_bands() {
    let db = emp_db();
    let options = OptimizeOptions::default();
    let recorded = recorder::stats().recorded;
    let mut runs = 0;
    for text in [FIGURE_1_QUERY, FIGURE_2_QUERY, MAYBE_QUERY] {
        let prepared = prepare(&db, text).unwrap();
        let resolved = resolve(&db, &parse(text).unwrap()).unwrap();
        for band in [Truth::True, Truth::Ni] {
            let label = match band {
                Truth::True => text.to_owned(),
                _ => format!("MAYBE {text}"),
            };
            let from_text = run_counted(&db, Input::Text(text), band, &label);
            let from_prepared = run_counted(&db, Input::Prepared(&prepared), band, &label);
            runs += 2;
            let (engine, _) = nullrel_exec::execute(
                &plan_access(&resolved),
                &db,
                &resolved.universe,
                band,
                options,
            )
            .unwrap();
            assert_eq!(from_text.rows, from_prepared.rows, "{label}");
            assert_eq!(from_text.rows, engine.tuples(), "{label}");
            assert_eq!(from_text.columns, from_prepared.columns, "{label}");
            assert_eq!(
                XRelation::from_tuples(from_text.rows.clone()),
                oracle(&db, text, band),
                "{label}"
            );
        }
        // The literal plan the benchmarks time agrees as well.
        let (literal, _) = nullrel_exec::execute(
            &plan(&resolved),
            &NoSource,
            &resolved.universe,
            Truth::True,
            options,
        )
        .unwrap();
        assert_eq!(literal, oracle(&db, text, Truth::True), "{text}");
    }
    assert!(
        !run(&db, MAYBE_QUERY, Truth::Ni, options)
            .unwrap()
            .is_empty(),
        "the MAYBE query has MAYBE answers"
    );
    runs += 1;

    // A set-operator plan outside QUEL: males, union the employees with a
    // telephone number above 2634000, minus the employees managed by 1255.
    let u = db.universe().clone();
    let attr = |name: &str| u.lookup(name).unwrap();
    let emp = || Expr::named("EMP");
    let expr = emp()
        .select(Predicate::attr_const(attr("SEX"), CompareOp::Eq, "M"))
        .union(emp().select(Predicate::attr_const(
            attr("TEL#"),
            CompareOp::Gt,
            2_634_000,
        )))
        .difference(emp().select(Predicate::attr_const(attr("MGR#"), CompareOp::Eq, 1255)))
        .project(attr_set([attr("NAME"), attr("E#")]));
    for band in [Truth::True, Truth::Ni] {
        let label = match band {
            Truth::True => "(expr)",
            _ => "MAYBE (expr)",
        };
        let from_expr = run_counted(&db, Input::Expr(&expr, &u), band, label);
        runs += 1;
        let (engine, _) = nullrel_exec::execute(&expr, &db, &u, band, options).unwrap();
        assert_eq!(from_expr.rows, engine.tuples(), "{label}");
        assert!(
            from_expr.columns.is_empty(),
            "an expression has no target list"
        );
        if band == Truth::True {
            assert_eq!(engine, expr.eval(&db).unwrap(), "{label}");
            assert_eq!(from_expr.len(), 2, "SMITH and BROWN");
        }
    }
    assert_eq!(
        recorder::stats().recorded,
        recorded + runs,
        "one flight record per run"
    );
}
