//! Experiment E2 (Section 2, Tables I and II): adding the `TEL#` column to
//! `EMP` changes the schema but not the information content, and the stored
//! table keeps behaving correctly under constraints, indexes, and queries.

use nullrel::core::prelude::*;
use nullrel::exec::OptimizeOptions;
use nullrel::query::run;
use nullrel::storage::loader::paper;
use nullrel::storage::{Database, SchemaBuilder};

fn table_i_database() -> Database {
    let mut db = Database::new();
    db.create_table(
        SchemaBuilder::new("EMP")
            .required_column("E#")
            .column("NAME")
            .column_with_domain(
                "SEX",
                Domain::Enumerated(vec![Value::str("M"), Value::str("F")]),
            )
            .column("MGR#")
            .key(&["E#"]),
    )
    .unwrap();
    let universe = db.universe().clone();
    let table = db.table_mut("EMP").unwrap();
    for (e, n, s, m) in [
        (1120, "SMITH", "M", 2235),
        (4335, "BROWN", "F", 2235),
        (8799, "GREEN", "M", 1255),
    ] {
        table
            .insert_named(
                &universe,
                &[
                    ("E#", Value::int(e)),
                    ("NAME", Value::str(n)),
                    ("SEX", Value::str(s)),
                    ("MGR#", Value::int(m)),
                ],
            )
            .unwrap();
    }
    db
}

/// The central claim: Table I and Table II are information-wise equivalent,
/// both for the loader's verbatim copies of the paper's tables and for a
/// live table evolved through `ADD COLUMN`.
#[test]
fn adding_a_column_preserves_information_content() {
    // Verbatim tables from the paper.
    let mut universe = Universe::new();
    let table_i = paper::emp_table_i(&mut universe);
    let table_ii = paper::emp_table_ii(&mut universe);
    assert!(table_i.equivalent(&table_ii));
    assert_eq!(
        XRelation::from_relation(&table_i),
        XRelation::from_relation(&table_ii)
    );
    // The scope (Definition 4.7) ignores the always-null TEL# column.
    assert_eq!(table_ii.scope(), table_i.scope());

    // The same through the storage engine.
    let mut db = table_i_database();
    let before = db.table("EMP").unwrap().to_xrelation();
    {
        let (table, universe) = db.table_and_universe_mut("EMP").unwrap();
        table.add_column(universe, "TEL#", None).unwrap();
    }
    let after = db.table("EMP").unwrap().to_xrelation();
    assert_eq!(before, after, "no information was gained or lost");
    assert_eq!(db.table("EMP").unwrap().schema().columns().len(), 5);
}

/// After the evolution the new column participates in constraints, queries,
/// and further updates exactly like an original column.
#[test]
fn evolved_column_is_a_first_class_citizen() {
    let mut db = table_i_database();
    {
        let (table, universe) = db.table_and_universe_mut("EMP").unwrap();
        table.add_column(universe, "TEL#", None).unwrap();
    }
    let universe = db.universe().clone();
    let tel = universe.lookup("TEL#").unwrap();
    let e_no = universe.lookup("E#").unwrap();

    // New rows may supply the new column; key constraints still apply.
    let table = db.table_mut("EMP").unwrap();
    table
        .insert_named(
            &universe,
            &[
                ("E#", Value::int(5555)),
                ("NAME", Value::str("JONES")),
                ("SEX", Value::str("F")),
                ("TEL#", Value::int(2_639_452)),
            ],
        )
        .unwrap();
    assert!(table
        .insert_named(&universe, &[("E#", Value::int(5555))])
        .is_err());

    // Queries over the new column follow the lower-bound semantics: only the
    // row with a recorded TEL# qualifies.
    let out = run(
        &db,
        "range of e is EMP retrieve (e.NAME) where e.TEL# > 2000000",
        Truth::True,
        OptimizeOptions::default(),
    )
    .unwrap();
    assert_eq!(out.len(), 1);
    assert!(out.contains_row(&[Some(Value::str("JONES"))]));

    // Updating an old row to record its TEL# makes it qualify too.
    db.table_mut("EMP")
        .unwrap()
        .update_where(
            &Predicate::attr_const(e_no, CompareOp::Eq, 1120),
            &[(tel, Some(Value::int(2_700_000)))],
        )
        .unwrap();
    let out = run(
        &db,
        "range of e is EMP retrieve (e.NAME) where e.TEL# > 2000000",
        Truth::True,
        OptimizeOptions::default(),
    )
    .unwrap();
    assert_eq!(out.len(), 2);

    // Dropping the column nulls it out everywhere and the query returns
    // nothing again.
    db.table_mut("EMP").unwrap().drop_column(tel).unwrap();
    let err = run(
        &db,
        "range of e is EMP retrieve (e.NAME) where e.TEL# > 2000000",
        Truth::True,
        OptimizeOptions::default(),
    );
    assert!(err.is_err(), "the column no longer exists in the schema");
}
