//! The PS relation of display (6.6) and the QUEL queries over it that the
//! physical, parallel, vectorized and slow-log differential suites share.

use nullrel::core::prelude::*;
use nullrel::storage::{Database, SchemaBuilder};

/// The PS relation of display (6.6), including the suppliers with unknown
/// parts — the null-heavy rows the minimal representation must handle.
pub fn ps_database() -> Database {
    let mut db = Database::new();
    db.create_table(SchemaBuilder::new("PS").column("S#").column("P#"))
        .unwrap();
    let u = db.universe().clone();
    let t = db.table_mut("PS").unwrap();
    for (s, p) in [
        (Some("s1"), Some("p1")),
        (Some("s1"), Some("p2")),
        (Some("s1"), None),
        (Some("s2"), Some("p1")),
        (Some("s2"), None),
        (Some("s3"), None),
        (None, Some("p4")),
        (Some("s4"), Some("p4")),
    ] {
        let mut cells: Vec<(&str, Value)> = Vec::new();
        if let Some(s) = s {
            cells.push(("S#", Value::str(s)));
        }
        if let Some(p) = p {
            cells.push(("P#", Value::str(p)));
        }
        t.insert_named(&u, &cells).unwrap();
    }
    db
}

/// QUEL queries over [`ps_database`].
pub const QUEL_FIXTURES: &[&str] = &[
    // Single range, constant selections (TRUE, FALSE and ni rows).
    "range of a is PS retrieve (a.S#)",
    "range of a is PS retrieve (a.P#) where a.S# = \"s1\"",
    "range of a is PS retrieve (a.S#) where a.P# = \"p1\"",
    "range of a is PS retrieve (a.S#, a.P#) where a.P# != \"p1\"",
    // Disjunctions cannot be split into conjuncts; they stay above.
    "range of a is PS retrieve (a.S#) where a.P# = \"p1\" or a.P# = \"p2\"",
    // Two-range equi-join (the hash-join path), plus mixed conjuncts.
    "range of a is PS range of b is PS retrieve (a.S#, b.S#) where a.P# = b.P#",
    "range of a is PS range of b is PS retrieve (a.S#) \
     where a.P# = b.P# and b.S# = \"s2\"",
    "range of a is PS range of b is PS retrieve (a.S#, b.P#) \
     where a.S# = b.S# and a.P# != b.P#",
    // A genuine Cartesian product (no equality connects the ranges).
    "range of a is PS range of b is PS retrieve (a.S#, b.P#) where a.S# = \"s1\"",
    // Three ranges: chained equality joins.
    "range of a is PS range of b is PS range of c is PS retrieve (a.S#, c.P#) \
     where a.P# = b.P# and b.S# = c.S#",
];
