//! Differential tests for the vectorized batch engine: every fixture of
//! the physical and parallel differential suites must flow through the
//! batch-at-a-time path — at batch sizes 1 and 1024, at threads 1 and 4,
//! in the TRUE band and the MAYBE band — and produce **byte-identical**
//! output at every batch size and degree, equal to the tree-walk oracle.
//! At threads = 1 the operator counters must also be identical at every
//! batch size, modulo the `batch=N` annotation alone.

mod ps_fixtures;

use nullrel::core::algebra::Expr;
use nullrel::core::prelude::*;
use nullrel::exec::{execute, OptimizeOptions, Parallelism};
use nullrel::query::{execute_resolved_naive, parse, resolve, run};
use nullrel::storage::{Database, SchemaBuilder};
use ps_fixtures::{ps_database, QUEL_FIXTURES};

/// Engine options at one batch size and degree, fan-out forced on so the
/// small paper fixtures still exercise the parallel operators.
fn engine(batch: usize, threads: usize) -> OptimizeOptions {
    OptimizeOptions {
        parallelism: if threads <= 1 {
            Parallelism::Serial
        } else {
            Parallelism::Threads(threads)
        },
        parallel_row_threshold: 0,
        batch_size: batch,
        ..OptimizeOptions::default()
    }
}

/// Strips the vectorized path's `batch=N` annotations from an explain
/// render, leaving the row counters — which must not depend on the batch
/// size.
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

/// Every QUEL fixture through the vectorized engine at batch ∈ {1, 1024}
/// and threads ∈ {1, 4}: rows byte-identical to the serial default-batch
/// run, which equals the tree-walk oracle; at threads = 1 the operator
/// counters too (modulo the `batch=N` annotation).
#[test]
fn quel_fixtures_agree_with_the_oracle_at_every_batch_size() {
    let db = ps_database();
    for text in QUEL_FIXTURES {
        let resolved = resolve(&db, &parse(text).unwrap()).unwrap();
        let oracle = XRelation::from_tuples(execute_resolved_naive(&resolved).unwrap().rows);
        let reference = run(&db, *text, Truth::True, engine(1024, 1)).unwrap();
        assert_eq!(
            XRelation::from_tuples(reference.rows.clone()),
            oracle,
            "engine vs oracle on {text:?}"
        );
        for batch in [1, 1024] {
            for threads in [1, 4] {
                let vec = run(&db, *text, Truth::True, engine(batch, threads)).unwrap();
                assert_eq!(
                    vec.rows,
                    reference.rows,
                    "rows drifted on {text:?} at batch={batch} threads={threads}\nplan:\n{}",
                    vec.stats.render()
                );
                assert_eq!(vec.columns, reference.columns, "{text:?}");
                if threads == 1 {
                    assert_eq!(
                        strip_batch(&vec.stats.render()),
                        strip_batch(&reference.stats.render()),
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
fn algebra_fixtures_agree_at_every_batch_size_in_both_bands() {
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
            let (reference, _) = execute(expr, &db, &u, band, engine(1024, 1)).unwrap();
            if band == Truth::True {
                assert_eq!(reference, oracle, "fixture {i} engine vs oracle");
            }
            for batch in [1, 1024] {
                for threads in [1, 4] {
                    let (vec, stats) =
                        execute(expr, &db, &u, band, engine(batch, threads)).unwrap();
                    assert_eq!(
                        vec,
                        reference,
                        "fixture {i} {band:?} band at batch={batch} threads={threads}\nplan:\n{}",
                        stats.render()
                    );
                }
            }
        }
    }
}

/// A scan-heavy workload big enough to split into many batches: the rows
/// and counters still match one-row batches exactly, and under 4 threads
/// the batch tasks really fan out on the pool.
#[test]
fn large_scan_splits_into_batches_and_matches_one_row_batches() {
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
    let one_row = run(&db, text, Truth::True, engine(1, 1)).unwrap();
    for threads in [1, 4] {
        let vec = run(&db, text, Truth::True, engine(64, threads)).unwrap();
        assert_eq!(vec.rows, one_row.rows, "threads={threads}");
        assert!(vec.stats.batches() > 1, "{}", vec.stats.render());
        if threads == 1 {
            assert_eq!(
                strip_batch(&vec.stats.render()),
                strip_batch(&one_row.stats.render())
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
