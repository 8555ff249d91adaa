//! Differential tests for the vectorized batch engine: every fixture of
//! the physical and parallel differential suites must flow through the
//! batch-at-a-time path — at batch sizes 1 and 1024, at threads 1 and 4,
//! in the TRUE band and the MAYBE band — and produce **byte-identical**
//! output to the tuple-at-a-time scalar engine and the tree-walk oracle.
//! At threads = 1 the operator counters must also be identical to the
//! scalar engine's, modulo the `batch=N` annotation alone.

use nullrel::core::algebra::Expr;
use nullrel::core::prelude::*;
use nullrel::exec::{execute, OptimizeOptions, Parallelism};
use nullrel::query::{execute_resolved_naive, parse, resolve, run};
use nullrel::storage::{Database, SchemaBuilder};

/// Engine options: vectorization pinned on/off explicitly (the defaults
/// read `NULLREL_VECTORIZE` / `NULLREL_BATCH_SIZE`, and this suite must
/// test both paths regardless of the CI leg), fan-out forced on so the
/// small paper fixtures still exercise the parallel operators.
fn engine(vectorize: bool, batch: usize, threads: usize) -> OptimizeOptions {
    OptimizeOptions {
        parallelism: if threads <= 1 {
            Parallelism::Serial
        } else {
            Parallelism::Threads(threads)
        },
        parallel_row_threshold: 0,
        vectorize,
        batch_size: batch,
        ..OptimizeOptions::default()
    }
}

/// Strips the vectorized path's `batch=N` annotations from an explain
/// render, leaving the row counters — which must match the scalar plan's
/// exactly.
fn strip_batch(render: &str) -> String {
    let mut out = String::new();
    let mut rest = render;
    while let Some(pos) = rest.find(" batch=") {
        out.push_str(&rest[..pos]);
        let after = &rest[pos + " batch=".len()..];
        let digits = after
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(after.len());
        rest = &after[digits..];
    }
    out.push_str(rest);
    out
}

/// The PS relation of display (6.6) — the null-heavy fixture shared with
/// `tests/physical_differential.rs` and `tests/parallel_differential.rs`.
fn ps_database() -> Database {
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

/// The QUEL fixtures of the physical differential suite.
const QUEL_FIXTURES: &[&str] = &[
    "range of a is PS retrieve (a.S#)",
    "range of a is PS retrieve (a.P#) where a.S# = \"s1\"",
    "range of a is PS retrieve (a.S#) where a.P# = \"p1\"",
    "range of a is PS retrieve (a.S#, a.P#) where a.P# != \"p1\"",
    "range of a is PS retrieve (a.S#) where a.P# = \"p1\" or a.P# = \"p2\"",
    "range of a is PS range of b is PS retrieve (a.S#, b.S#) where a.P# = b.P#",
    "range of a is PS range of b is PS retrieve (a.S#) \
     where a.P# = b.P# and b.S# = \"s2\"",
    "range of a is PS range of b is PS retrieve (a.S#, b.P#) \
     where a.S# = b.S# and a.P# != b.P#",
    "range of a is PS range of b is PS retrieve (a.S#, b.P#) where a.S# = \"s1\"",
    "range of a is PS range of b is PS range of c is PS retrieve (a.S#, c.P#) \
     where a.P# = b.P# and b.S# = c.S#",
];

/// Every QUEL fixture through the vectorized engine at batch ∈ {1, 1024}
/// and threads ∈ {1, 4}: rows byte-identical to the scalar engine and the
/// tree-walk oracle; at threads = 1 the operator counters too (modulo the
/// `batch=N` annotation).
#[test]
fn quel_fixtures_vectorized_match_scalar_and_oracle() {
    let db = ps_database();
    for text in QUEL_FIXTURES {
        let resolved = resolve(&db, &parse(text).unwrap()).unwrap();
        let oracle = XRelation::from_tuples(execute_resolved_naive(&resolved).unwrap().rows);
        let scalar = run(&db, *text, Truth::True, engine(false, 1024, 1)).unwrap();
        assert_eq!(
            XRelation::from_tuples(scalar.rows.clone()),
            oracle,
            "scalar vs oracle on {text:?}"
        );
        for batch in [1, 1024] {
            for threads in [1, 4] {
                let vec = run(&db, *text, Truth::True, engine(true, batch, threads)).unwrap();
                assert_eq!(
                    vec.rows,
                    scalar.rows,
                    "rows drifted on {text:?} at batch={batch} threads={threads}\nplan:\n{}",
                    vec.stats.render()
                );
                assert_eq!(vec.columns, scalar.columns, "{text:?}");
                if threads == 1 {
                    assert_eq!(
                        strip_batch(&vec.stats.render()),
                        strip_batch(&scalar.stats.render()),
                        "counters drifted on {text:?} at batch={batch}"
                    );
                }
            }
        }
    }
}

/// The algebra fixtures (set operators, division, union-join) through the
/// vectorized engine, in the TRUE and MAYBE bands, at batch ∈ {1, 1024}
/// and threads ∈ {1, 4}.
#[test]
fn algebra_fixtures_vectorized_match_scalar_in_both_bands() {
    let db = ps_database();
    let u = db.universe().clone();
    let s = u.lookup("S#").unwrap();
    let p = u.lookup("P#").unwrap();
    let by = |k: &str| {
        Expr::named("PS")
            .select(Predicate::attr_const(s, CompareOp::Eq, k))
            .project(attr_set([p]))
    };
    let fixtures = [
        Expr::named("PS").divide(attr_set([s]), by("s2")),
        by("s1").difference(by("s2")),
        by("s1").union(by("s2")),
        by("s1").x_intersect(by("s2")),
        Expr::named("PS").union_join(Expr::named("PS"), attr_set([s])),
        Expr::named("PS").equijoin(Expr::named("PS"), attr_set([s, p])),
        Expr::named("PS")
            .divide(attr_set([s]), by("s2"))
            .project(attr_set([s])),
    ];
    for (i, expr) in fixtures.iter().enumerate() {
        let oracle = expr.eval(&db).unwrap();
        for band in [Truth::True, Truth::Ni] {
            let (scalar, _) = execute(expr, &db, &u, band, engine(false, 1024, 1)).unwrap();
            if band == Truth::True {
                assert_eq!(scalar, oracle, "fixture {i} scalar vs oracle");
            }
            for batch in [1, 1024] {
                for threads in [1, 4] {
                    let (vec, stats) =
                        execute(expr, &db, &u, band, engine(true, batch, threads)).unwrap();
                    assert_eq!(
                        vec,
                        scalar,
                        "fixture {i} {band:?} band at batch={batch} threads={threads}\nplan:\n{}",
                        stats.render()
                    );
                }
            }
        }
    }
}

/// A scan-heavy workload big enough to split into many batches: the
/// vectorized rows and counters still match the scalar engine exactly,
/// and under 4 threads the batch tasks really fan out on the pool.
#[test]
fn large_scan_splits_into_batches_and_matches_scalar() {
    let mut db = Database::new();
    db.create_table(
        SchemaBuilder::new("EMP")
            .required_column("E#")
            .column("MGR#")
            .key(&["E#"]),
    )
    .unwrap();
    let u = db.universe().clone();
    let t = db.table_mut("EMP").unwrap();
    for i in 0..500i64 {
        let mut cells = vec![("E#", Value::int(i))];
        if i % 7 != 0 {
            cells.push(("MGR#", Value::int(i / 3)));
        }
        t.insert_named(&u, &cells).unwrap();
    }
    let text = "range of e is EMP retrieve (e.E#) where e.MGR# > 30";
    let scalar = run(&db, text, Truth::True, engine(false, 64, 1)).unwrap();
    for threads in [1, 4] {
        let vec = run(&db, text, Truth::True, engine(true, 64, threads)).unwrap();
        assert_eq!(vec.rows, scalar.rows, "threads={threads}");
        if threads == 1 {
            assert_eq!(
                strip_batch(&vec.stats.render()),
                strip_batch(&scalar.stats.render())
            );
        } else {
            assert_eq!(
                vec.stats.max_parallelism(),
                4,
                "batch tasks fan out:\n{}",
                vec.stats.render()
            );
        }
    }
}
