//! Experiments E4 and E5: the paper's QUEL queries (Figures 1 and 2) run
//! end-to-end through parser → analyzer → planner → evaluator, under both
//! the `ni` lower-bound discipline and the "unknown" baseline.

use nullrel::core::prelude::*;
use nullrel::exec::OptimizeOptions;
use nullrel::query::{execute_unknown, parse, run, FIGURE_1_QUERY, FIGURE_2_QUERY};
use nullrel::storage::{Database, SchemaBuilder};

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
    let universe = db.universe().clone();
    let table = db.table_mut("EMP").unwrap();
    for (e, n, s, m) in [
        (1120, "SMITH", "M", Some(2235)),
        (4335, "BROWN", "F", Some(2235)),
        (8799, "GREEN", "M", Some(1255)),
        (2235, "JONES", "M", Some(1255)),
        (1255, "ADAMS", "F", Some(2235)),
    ] {
        let mut cells = vec![
            ("E#", Value::int(e)),
            ("NAME", Value::str(n)),
            ("SEX", Value::str(s)),
        ];
        if let Some(m) = m {
            cells.push(("MGR#", Value::int(m)));
        }
        table.insert_named(&universe, &cells).unwrap();
    }
    db
}

/// E4: Figure 1 on a database where every TEL# is null — the ni lower bound
/// is empty, while the "unknown" interpretation puts BROWN in the maybe band
/// (and in the sure band only for the gap-free variant of the clause).
#[test]
fn figure1_ni_versus_unknown() {
    let db = emp_db();
    let ni = run(&db, FIGURE_1_QUERY, Truth::True, OptimizeOptions::default()).unwrap();
    assert!(ni.is_empty());

    let unknown = execute_unknown(&db, FIGURE_1_QUERY, &[], 10_000).unwrap();
    assert!(unknown.sure.is_empty());
    assert!(unknown.maybe_contains(&[Some(Value::str("BROWN")), Some(Value::int(4335))]));
    assert!(unknown.stats.tautology_checks >= 5);
}

/// E4 continued: once the information arrives, the ni lower bound contains
/// exactly the qualifying employee — the "dynamic behaviour" the paper's
/// Section 1 argues a database must respect.
#[test]
fn figure1_after_update() {
    let mut db = emp_db();
    let e_no = db.universe().lookup("E#").unwrap();
    let tel = db.universe().lookup("TEL#").unwrap();
    db.table_mut("EMP")
        .unwrap()
        .update_where(
            &Predicate::attr_const(e_no, CompareOp::Eq, 4335),
            &[(tel, Some(Value::int(2_639_452)))],
        )
        .unwrap();
    let out = run(&db, FIGURE_1_QUERY, Truth::True, OptimizeOptions::default()).unwrap();
    assert_eq!(out.len(), 1);
    assert!(out.contains_row(&[Some(Value::str("BROWN")), Some(Value::int(4335))]));
}

/// E5: Figure 2 under the ni semantics on total data, and the role of the
/// schema constraints for the "unknown" baseline when MGR# values are null.
#[test]
fn figure2_constraints_and_ni() {
    let db = emp_db();
    let ni = run(&db, FIGURE_2_QUERY, Truth::True, OptimizeOptions::default()).unwrap();
    let names = ni.column_values("e.NAME");
    assert!(names.contains(&Value::str("SMITH")));
    assert!(names.contains(&Value::str("BROWN")));
    assert!(
        !names.contains(&Value::str("GREEN")),
        "GREEN's manager is female"
    );
    assert!(
        !names.contains(&Value::str("ADAMS")),
        "ADAMS manages her manager"
    );
    // JONES has an unknown manager, but that does not matter for e = JONES
    // (the join is on e.MGR#); JONES can still appear as the m variable.
    assert!(!names.contains(&Value::str("JONES")));

    // Unknown baseline: make JONES' manager unknown. Without constraints
    // SMITH is then only a maybe answer (e.E# != m.MGR# cannot be
    // certified); with the schema constraints assumed it becomes sure.
    let mut db_unknown = emp_db();
    let e_no = db_unknown.universe().lookup("E#").unwrap();
    let mgr = db_unknown.universe().lookup("MGR#").unwrap();
    db_unknown
        .table_mut("EMP")
        .unwrap()
        .update_where(
            &Predicate::attr_const(e_no, CompareOp::Eq, 2235),
            &[(mgr, None)],
        )
        .unwrap();
    let constraint = |text: &str| {
        parse(&format!(
            "range of e is EMP range of m is EMP retrieve (e.NAME) where {text}"
        ))
        .unwrap()
        .where_clause
        .unwrap()
    };
    let without = execute_unknown(&db_unknown, FIGURE_2_QUERY, &[], 100_000).unwrap();
    assert!(without.maybe_contains(&[Some(Value::str("SMITH"))]));
    assert!(!without.sure_contains(&[Some(Value::str("SMITH"))]));
    let with = execute_unknown(
        &db_unknown,
        FIGURE_2_QUERY,
        &[constraint("e.MGR# != e.E#"), constraint("e.E# != m.MGR#")],
        100_000,
    )
    .unwrap();
    assert!(with.sure_contains(&[Some(Value::str("SMITH"))]));
    assert!(with.sure_contains(&[Some(Value::str("BROWN"))]));
    // The ni evaluation on the same database simply drops the uncertain
    // tuples — no constraint reasoning needed.
    let ni_unknown_db = run(
        &db_unknown,
        FIGURE_2_QUERY,
        Truth::True,
        OptimizeOptions::default(),
    )
    .unwrap();
    assert!(!ni_unknown_db
        .column_values("e.NAME")
        .contains(&Value::str("SMITH")));
}

/// On fully defined data the two disciplines give the same answers — the
/// Section 7 consistency requirement seen from the query layer.
#[test]
fn total_data_agreement() {
    let db = emp_db();
    let q = "range of e is EMP retrieve (e.NAME, e.SEX) where e.SEX = \"M\" and e.E# > 2000";
    let ni = run(&db, q, Truth::True, OptimizeOptions::default()).unwrap();
    let unknown = execute_unknown(&db, q, &[], 10_000).unwrap();
    assert_eq!(ni.len(), unknown.sure.len());
    assert!(unknown.maybe.is_empty());
    for name in ["GREEN", "JONES"] {
        assert!(ni.contains_row(&[Some(Value::str(name)), Some(Value::str("M"))]));
        assert!(unknown.sure_contains(&[Some(Value::str(name)), Some(Value::str("M"))]));
    }
}

/// Error paths across the stack surface as structured errors, not panics.
#[test]
fn error_paths() {
    let db = emp_db();
    assert!(run(
        &db,
        "range of e is MISSING retrieve (e.X)",
        Truth::True,
        OptimizeOptions::default()
    )
    .is_err());
    assert!(run(
        &db,
        "range of e is EMP retrieve (e.NOPE)",
        Truth::True,
        OptimizeOptions::default()
    )
    .is_err());
    assert!(run(&db, "garbage !!", Truth::True, OptimizeOptions::default()).is_err());
    assert!(
        execute_unknown(&db, FIGURE_2_QUERY, &[], 3).is_err(),
        "budget enforced"
    );
}
