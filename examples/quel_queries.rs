//! Running the paper's QUEL queries (Figures 1 and 2) under both
//! evaluation disciplines: the `ni` lower bound and the "unknown"
//! interpretation with tautology detection (experiments E4 and E5).
//!
//! ```text
//! cargo run --example quel_queries
//! ```

use nullrel::core::prelude::*;
use nullrel::exec::OptimizeOptions;
use nullrel::query::{
    execute_unknown, explain, parse, plan, resolve, run, ExplainMode, FIGURE_1_QUERY,
    FIGURE_2_QUERY,
};
use nullrel::storage::{Database, SchemaBuilder};

fn build_emp_database() -> Result<Database, Box<dyn std::error::Error>> {
    let mut db = Database::new();
    db.create_table(
        SchemaBuilder::new("EMP")
            .required_column("E#")
            .column("NAME")
            .column("SEX")
            .column("MGR#")
            .column("TEL#")
            .key(&["E#"]),
    )?;
    let universe = db.universe().clone();
    let table = db.table_mut("EMP")?;
    for (e, n, s, m) in [
        (1120, "SMITH", "M", Some(2235)),
        (4335, "BROWN", "F", Some(2235)),
        (8799, "GREEN", "M", Some(1255)),
        (2235, "JONES", "M", None), // the manager; their own manager is unknown
    ] {
        let mut cells = vec![
            ("E#", Value::int(e)),
            ("NAME", Value::str(n)),
            ("SEX", Value::str(s)),
        ];
        if let Some(m) = m {
            cells.push(("MGR#", Value::int(m)));
        }
        table.insert_named(&universe, &cells)?;
    }
    Ok(db)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = build_emp_database()?;

    println!("--- Figure 1 (query Q_A) ---------------------------------");
    println!("{FIGURE_1_QUERY}\n");
    let resolved = resolve(&db, &parse(FIGURE_1_QUERY)?)?;
    println!("Logical plan:\n{}", plan::explain(&resolved));

    let ni = run(&db, FIGURE_1_QUERY, Truth::True, OptimizeOptions::default())?;
    println!("ni lower bound ‖Q‖*:\n{}", ni.render());

    // The MAYBE band, requested through the physical engine's truth-band
    // support: rows whose qualification is ni rather than TRUE.
    let maybe = run(&db, FIGURE_1_QUERY, Truth::Ni, OptimizeOptions::default())?;
    println!("MAYBE band (qualification = ni):\n{}", maybe.render());

    let unknown = execute_unknown(&db, FIGURE_1_QUERY, &[], 10_000)?;
    println!(
        "unknown interpretation: {} sure answer(s), {} maybe answer(s), \
         {} tautology check(s), {} assignments explored",
        unknown.sure.len(),
        unknown.maybe.len(),
        unknown.stats.tautology_checks,
        unknown.stats.assignments
    );
    println!(
        "BROWN is a maybe-answer under 'unknown' (her TEL# might satisfy either branch), \
         but is excluded from the ni lower bound.\n"
    );

    println!("--- Figure 2 (query Q_B) ---------------------------------");
    println!("{FIGURE_2_QUERY}\n");
    // `--explain` style report: logical plan, optimizer rules, and the
    // executed physical plan with real access-path counters. The self-join
    // runs as a HashJoin, not a Cartesian product.
    println!(
        "{}",
        explain(
            &db,
            FIGURE_2_QUERY,
            OptimizeOptions::default(),
            ExplainMode::Executed
        )?
    );
    let ni = run(&db, FIGURE_2_QUERY, Truth::True, OptimizeOptions::default())?;
    println!("ni lower bound ‖Q‖*:\n{}", ni.render());
    println!(
        "executed physical plan (again, from the query output):\n{}",
        ni.physical_plan()
    );

    // The Appendix's point: certifying the last two conjuncts for tuples
    // with unknown MGR# values needs the schema integrity constraints.
    let constraint_text = |cmp: &str| -> Result<_, Box<dyn std::error::Error>> {
        Ok(parse(&format!(
            "range of e is EMP range of m is EMP retrieve (e.NAME) where {cmp}"
        ))?
        .where_clause
        .expect("constraint has a where clause"))
    };
    let constraints = vec![
        constraint_text("e.MGR# != e.E#")?,
        constraint_text("e.E# != m.MGR#")?,
    ];
    let without = execute_unknown(&db, FIGURE_2_QUERY, &[], 10_000)?;
    let with = execute_unknown(&db, FIGURE_2_QUERY, &constraints, 10_000)?;
    println!(
        "unknown interpretation without constraints: {} sure, {} maybe",
        without.sure.len(),
        without.maybe.len()
    );
    println!(
        "unknown interpretation with the schema constraints assumed: {} sure, {} maybe",
        with.sure.len(),
        with.maybe.len()
    );
    println!("The ni evaluation needed none of this machinery — which is the paper's argument.");
    Ok(())
}
