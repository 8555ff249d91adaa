//! Differential tests for the morsel-driven parallel runtime (PR 4): at
//! every degree of parallelism the engine must produce exactly the serial
//! engine's (and the tree-walk oracle's) minimal x-relation — in the TRUE
//! band and in the MAYBE band — and the `nullrel-core` antichain merge
//! must equal the serial `Minimize` reduction over *arbitrary*
//! partitionings of its input.

mod ps_fixtures;

use proptest::prelude::*;

use nullrel::core::algebra::{Expr, NoSource};
use nullrel::core::lattice::hashed::{merge_antichains, minimal};
use nullrel::core::prelude::*;
use nullrel::exec::{execute, OptimizeOptions, Parallelism};
use nullrel::query::plan::plan_access;
use nullrel::query::{execute_resolved_naive, parse, resolve};
use nullrel::storage::{Database, SchemaBuilder};
use ps_fixtures::{ps_database, QUEL_FIXTURES};

/// Engine options pinned to `n` worker threads with fan-out forced on
/// (threshold 0), so even the small paper fixtures exercise the
/// partitioned operators.
fn threads(n: usize) -> OptimizeOptions {
    OptimizeOptions {
        parallelism: if n <= 1 {
            Parallelism::Serial
        } else {
            Parallelism::Threads(n)
        },
        parallel_row_threshold: 0,
        ..OptimizeOptions::default()
    }
}

/// Every QUEL fixture of the physical differential suite, executed at
/// threads ∈ {1, 4}: both runs must equal the tree-walk oracle, and the
/// `threads = 1` run must be byte-identical (results *and* operator
/// counters) to the serial engine.
#[test]
fn quel_fixtures_agree_at_every_degree() {
    let db = ps_database();
    for text in QUEL_FIXTURES {
        let resolved = resolve(&db, &parse(text).unwrap()).unwrap();
        let expr = plan_access(&resolved);
        let oracle = XRelation::from_tuples(execute_resolved_naive(&resolved).unwrap().rows);
        let (serial, serial_stats) =
            execute(&expr, &db, &resolved.universe, Truth::True, threads(1)).unwrap();
        assert_eq!(serial, oracle, "serial vs oracle on {text:?}");
        let (one, one_stats) = execute(
            &expr,
            &db,
            &resolved.universe,
            Truth::True,
            OptimizeOptions {
                parallelism: Parallelism::Threads(1),
                ..threads(1)
            },
        )
        .unwrap();
        assert_eq!(one, serial, "threads=1 vs serial on {text:?}");
        assert_eq!(
            one_stats, serial_stats,
            "threads=1 must be byte-identical to serial on {text:?}"
        );
        let (par, par_stats) =
            execute(&expr, &db, &resolved.universe, Truth::True, threads(4)).unwrap();
        assert_eq!(
            par,
            oracle,
            "threads=4 vs oracle on {text:?}\nplan:\n{}",
            par_stats.render()
        );
    }
}

/// The algebra fixtures (set operators, division, union-join) at
/// threads ∈ {1, 4}, in both the TRUE and MAYBE bands.
#[test]
fn algebra_fixtures_agree_at_every_degree_in_both_bands() {
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
        // TRUE band: both degrees equal the tree-walk oracle.
        let oracle = expr.eval(&db).unwrap();
        for n in [1, 4] {
            let (got, stats) = execute(expr, &db, &u, Truth::True, threads(n)).unwrap();
            assert_eq!(
                got,
                oracle,
                "fixture {i} TRUE band at threads={n}\nplan:\n{}",
                stats.render()
            );
        }
        // MAYBE band: the parallel pipeline must reproduce the serial one.
        let (serial_ni, _) = execute(expr, &db, &u, Truth::Ni, threads(1)).unwrap();
        for n in [1, 4] {
            let (got, stats) = execute(expr, &db, &u, Truth::Ni, threads(n)).unwrap();
            assert_eq!(
                got,
                serial_ni,
                "fixture {i} MAYBE band at threads={n}\nplan:\n{}",
                stats.render()
            );
        }
    }
}

/// A larger workload whose cardinalities clear the default fan-out
/// threshold: the partitioned operators really run (visible in the
/// counters) and still match the serial engine in both bands.
#[test]
fn large_self_join_runs_partitioned_and_matches_serial() {
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
    // 200 rows: comfortably above the default fan-out threshold, while the
    // MAYBE band (every null-MGR# row against every partner) stays small
    // enough for the serial sink's quadratic absorb in a debug build.
    for i in 0..200i64 {
        let mut cells = vec![("E#", Value::int(i))];
        if i % 7 != 0 {
            cells.push(("MGR#", Value::int(i / 3)));
        }
        t.insert_named(&u, &cells).unwrap();
    }
    let text = "range of e is EMP range of m is EMP retrieve (e.E#, m.MGR#) \
                where e.MGR# = m.E#";
    let resolved = resolve(&db, &parse(text).unwrap()).unwrap();
    let expr = plan_access(&resolved);
    let (serial, _) = execute(&expr, &db, &resolved.universe, Truth::True, threads(1)).unwrap();
    let par_options = OptimizeOptions {
        parallel_row_threshold: nullrel::exec::DEFAULT_PARALLEL_ROW_THRESHOLD,
        ..threads(4)
    };
    let (par, stats) = execute(&expr, &db, &resolved.universe, Truth::True, par_options).unwrap();
    assert_eq!(par, serial);
    assert!(
        stats.used_parallel(),
        "200 rows clear the default threshold:\n{}",
        stats.render()
    );
    assert_eq!(stats.max_parallelism(), 4, "{}", stats.render());
    // The MAYBE band of the same plan, at both degrees.
    let (serial_ni, _) = execute(&expr, &db, &resolved.universe, Truth::Ni, threads(1)).unwrap();
    let (par_ni, _) = execute(&expr, &db, &resolved.universe, Truth::Ni, par_options).unwrap();
    assert_eq!(par_ni, serial_ni);
}

// ---------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------

/// Null-heavy random tuples over 3 attributes.
fn arb_tuples(attrs: usize, max: usize) -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::option::of(0i64..3), attrs),
        0..max,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|cells| {
                let mut t = Tuple::new();
                for (i, cell) in cells.into_iter().enumerate() {
                    if let Some(v) = cell {
                        t.set(AttrId::from_index(i), Some(Value::int(v)));
                    }
                }
                t
            })
            .collect()
    })
}

fn universe() -> Universe {
    let mut u = Universe::new();
    for i in 0..4 {
        u.intern(&format!("A{i}"));
    }
    u
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The keystone: antichain `merge` over an **arbitrary** partitioning
    /// (random per-tuple partition assignment, random partition count)
    /// equals the serial global minimisation of the same tuple set.
    #[test]
    fn antichain_merge_equals_serial_minimize_on_any_partitioning(
        tuples in arb_tuples(3, 24),
        assignment in proptest::collection::vec(0usize..6, 24),
        parts in 1usize..6,
    ) {
        let serial = minimal(tuples.clone());
        let mut partitions: Vec<Vec<Tuple>> = vec![Vec::new(); parts];
        for (i, t) in tuples.into_iter().enumerate() {
            partitions[assignment.get(i).copied().unwrap_or(0) % parts].push(t);
        }
        // Local reduction first — the shape parallel workers hand the merge.
        let locals: Vec<Vec<Tuple>> = partitions.into_iter().map(minimal).collect();
        prop_assert_eq!(merge_antichains(locals), serial);
    }

    /// Random join plans at threads ∈ {1, 4} in the TRUE band: both equal
    /// the tree-walk oracle (fan-out forced by a zero threshold).
    #[test]
    fn random_join_plans_agree_at_every_degree(
        left in arb_tuples(2, 8),
        right in arb_tuples(2, 8),
        k in 0i64..3,
    ) {
        let u = universe();
        let a0 = AttrId::from_index(0);
        let a1 = AttrId::from_index(1);
        let a2 = AttrId::from_index(2);
        let a3 = AttrId::from_index(3);
        let right: Vec<Tuple> = right
            .into_iter()
            .map(|t| {
                let mut s = Tuple::new();
                if let Some(v) = t.get(a0) {
                    s.set(a2, Some(v.clone()));
                }
                if let Some(v) = t.get(a1) {
                    s.set(a3, Some(v.clone()));
                }
                s
            })
            .collect();
        let plan = Expr::literal(XRelation::from_tuples(left))
            .product(Expr::literal(XRelation::from_tuples(right)))
            .select(
                Predicate::attr_attr(a1, CompareOp::Eq, a2)
                    .and(Predicate::attr_const(a0, CompareOp::Ge, k)),
            )
            .project(attr_set([a0, a3]));
        let oracle = plan.eval(&NoSource).unwrap();
        for n in [1usize, 4] {
            let (got, _) = execute(&plan, &NoSource, &u, Truth::True, threads(n)).unwrap();
            prop_assert_eq!(&got, &oracle, "threads={}", n);
        }
    }

    /// Random MAYBE-band pipelines at threads ∈ {1, 4}: the parallel ni
    /// band equals the serial ni band.
    #[test]
    fn random_maybe_band_plans_agree_at_every_degree(
        rel in arb_tuples(3, 12),
        k in 0i64..3,
    ) {
        let u = universe();
        let a0 = AttrId::from_index(0);
        let a1 = AttrId::from_index(1);
        let plan = Expr::literal(XRelation::from_tuples(rel))
            .select(Predicate::attr_const(a0, CompareOp::Eq, k))
            .project(attr_set([a0, a1]));
        let (serial, _) =
            execute(&plan, &NoSource, &u, Truth::Ni, threads(1)).unwrap();
        let (par, _) =
            execute(&plan, &NoSource, &u, Truth::Ni, threads(4)).unwrap();
        prop_assert_eq!(par, serial);
    }

    /// Random shared-key joins (equijoin and union-join) at threads 4
    /// equal the oracle — the partitioned `equijoin_parts` core plus the
    /// partition-local dangling pass.
    #[test]
    fn random_shared_key_joins_agree_at_every_degree(
        left in arb_tuples(3, 8),
        right in arb_tuples(3, 8),
    ) {
        let u = universe();
        let on = attr_set([AttrId::from_index(1)]);
        let right: Vec<Tuple> = right
            .into_iter()
            .map(|t| {
                // Shift right tuples one attribute up so scopes overlap
                // beyond the key (the representation-sensitive case).
                let mut s = Tuple::new();
                for (a, v) in t.cells() {
                    s.set(AttrId::from_index(a.index() + 1), Some(v.clone()));
                }
                s
            })
            .collect();
        let l = XRelation::from_tuples(left);
        let r = XRelation::from_tuples(right);
        for (keep_dangling, label) in [(false, "equijoin"), (true, "union-join")] {
            let expr = if keep_dangling {
                Expr::literal(l.clone()).union_join(Expr::literal(r.clone()), on.clone())
            } else {
                Expr::literal(l.clone()).equijoin(Expr::literal(r.clone()), on.clone())
            };
            let oracle = expr.eval(&NoSource).unwrap();
            for n in [1usize, 4] {
                let (got, _) = execute(&expr, &NoSource, &u, Truth::True, threads(n)).unwrap();
                prop_assert_eq!(&got, &oracle, "{} at threads={}", label, n);
            }
        }
    }
}
