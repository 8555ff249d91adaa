//! The Table I → Table II scenario of Section 2: add a `TEL#` column to the
//! `EMP` table, verify that the information content is unchanged, and watch
//! the Figure 1 query switch from empty to non-empty as real telephone
//! numbers arrive.
//!
//! ```text
//! cargo run --example employee_schema_evolution
//! ```

use nullrel::core::display::render_relation;
use nullrel::core::prelude::*;
use nullrel::exec::OptimizeOptions;
use nullrel::query::{run, FIGURE_1_QUERY};
use nullrel::storage::{Database, SchemaBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Table I: EMP(E#, NAME, SEX, MGR#).
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
    )?;
    let universe = db.universe().clone();
    let table = db.table_mut("EMP")?;
    for (e, n, s, m) in [
        (1120, "SMITH", "M", 2235),
        (4335, "BROWN", "F", 2235),
        (8799, "GREEN", "M", 1255),
    ] {
        table.insert_named(
            &universe,
            &[
                ("E#", Value::int(e)),
                ("NAME", Value::str(n)),
                ("SEX", Value::str(s)),
                ("MGR#", Value::int(m)),
            ],
        )?;
    }
    let table_i = db.table("EMP")?.to_relation();
    println!(
        "{}",
        render_relation("EMP (Table I)", &table_i, db.universe())
    );

    // The schema change: add TEL#. No data is touched; existing rows read ni.
    {
        let (table, universe) = db.table_and_universe_mut("EMP")?;
        table.add_column(universe, "TEL#", None)?;
    }
    let table_ii = db.table("EMP")?.to_relation();
    println!(
        "{}",
        render_relation(
            "EMP (Table II, after adding TEL#)",
            &table_ii,
            db.universe()
        )
    );
    println!(
        "Table I ≅ Table II (information-wise equivalent): {}\n",
        table_i.equivalent(&table_ii)
    );

    // Figure 1's query on Table II: the lower bound is empty because every
    // TEL# is the no-information null.
    let out = run(&db, FIGURE_1_QUERY, Truth::True, OptimizeOptions::default())?;
    println!("Q_A on Table II (ni lower bound):\n{}", out.render());

    // Information arrives: BROWN's telephone number becomes known.
    let e_no = db.universe().lookup("E#").ok_or("E# missing")?;
    let tel = db.universe().lookup("TEL#").ok_or("TEL# missing")?;
    db.table_mut("EMP")?.update_where(
        &Predicate::attr_const(e_no, CompareOp::Eq, 4335),
        &[(tel, Some(Value::int(2_639_452)))],
    )?;
    let out = run(&db, FIGURE_1_QUERY, Truth::True, OptimizeOptions::default())?;
    println!("Q_A after BROWN's TEL# is recorded:\n{}", out.render());
    Ok(())
}
