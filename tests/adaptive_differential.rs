//! Differential tests for adaptive re-optimization (PR 5): staged
//! execution with cardinality feedback must be a pure *performance*
//! feature. Whatever the q-error threshold, however often the remainder is
//! re-planned, the result must be byte-identical to the static plan — on
//! every fixture family the physical/cost-based suites cover, in the TRUE
//! and MAYBE bands, at `threads ∈ {1, 4}`. And with `adaptive = None` the
//! engine must not merely produce the same rows: it must execute the
//! byte-identical static pipeline (asserted on the full `ExecStats`).

use proptest::prelude::*;

use nullrel::core::algebra::{Expr, NoSource};
use nullrel::core::prelude::*;
use nullrel::exec::{compile_with, execute, optimize_with, OptimizeOptions, Parallelism};
use nullrel::query::{parse, resolve, run};
use nullrel::storage::{Database, SchemaBuilder};

fn options(adaptive: Option<f64>, threads: usize) -> OptimizeOptions {
    OptimizeOptions {
        adaptive,
        parallelism: if threads <= 1 {
            Parallelism::Serial
        } else {
            Parallelism::Threads(threads)
        },
        ..OptimizeOptions::default()
    }
}

/// Runs one plan under every (band, threads) combination and asserts the
/// adaptive engine (aggressive threshold 1.0 — any estimation error at all
/// triggers a re-plan) matches the static one and the oracle.
fn assert_adaptive_matches_static(plan: &Expr, u: &Universe) {
    let oracle = plan.eval(&NoSource).expect("oracle evaluates");
    for threads in [1usize, 4] {
        for band in [Truth::True, Truth::Ni] {
            let (static_res, _) = execute(plan, &NoSource, u, band, options(None, threads))
                .expect("static engine runs");
            let (adaptive_res, stats) =
                execute(plan, &NoSource, u, band, options(Some(1.0), threads))
                    .expect("adaptive engine runs");
            assert_eq!(
                adaptive_res,
                static_res,
                "band {band:?} threads {threads}:\n{}",
                stats.render()
            );
            if band == Truth::True {
                assert_eq!(adaptive_res, oracle, "TRUE band vs oracle");
            } else {
                // The Ni legs pin the routing invariant, not staging
                // behavior: the optimizer's rewrites (and therefore the
                // stager's re-planning) are TRUE-band lower-bound
                // arguments, so non-TRUE bands must run the static
                // engine even with adaptive enabled.
                assert!(
                    !stats.render().contains("@stage"),
                    "non-TRUE bands must never stage:\n{}",
                    stats.render()
                );
            }
        }
    }
}

fn star_plan(dims: &[XRelation; 3], fact: &XRelation, keys: &[AttrId], fks: &[AttrId]) -> Expr {
    Expr::literal(dims[0].clone())
        .product(Expr::literal(dims[1].clone()))
        .product(Expr::literal(dims[2].clone()))
        .product(Expr::literal(fact.clone()))
        .select(
            Predicate::attr_attr(fks[0], CompareOp::Eq, keys[0])
                .and(Predicate::attr_attr(fks[1], CompareOp::Eq, keys[1]))
                .and(Predicate::attr_attr(fks[2], CompareOp::Eq, keys[2])),
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random star joins (the cost-based fixtures' shape, skewed keys and
    /// `ni` foreign keys included): adaptive ≡ static ≡ oracle in both
    /// bands at both thread counts.
    #[test]
    fn adaptive_star_joins_match_static_plans(
        dim_rows in proptest::collection::vec((0i64..4, proptest::option::of(0i64..3)), 3..15),
        fact_rows in proptest::collection::vec((0i64..4, 0i64..4, 0i64..4, 0u8..8), 0..8),
    ) {
        let mut u = Universe::new();
        let keys: Vec<AttrId> = (0..3).map(|i| u.intern(&format!("d{i}.K"))).collect();
        let vals: Vec<AttrId> = (0..3).map(|i| u.intern(&format!("d{i}.V"))).collect();
        let fks: Vec<AttrId> = (0..3).map(|i| u.intern(&format!("f.K{i}"))).collect();
        let dims: [XRelation; 3] = std::array::from_fn(|d| {
            XRelation::from_tuples(dim_rows.iter().map(|(k, v)| {
                Tuple::new()
                    .with(keys[d], Value::int(*k))
                    .with_opt(vals[d], v.map(Value::int))
            }))
        });
        let fact = XRelation::from_tuples(fact_rows.iter().map(|(k0, k1, k2, mask)| {
            let mut t = Tuple::new();
            for (j, (fk, cell)) in fks.iter().zip([k0, k1, k2]).enumerate() {
                if mask & (1 << j) == 0 {
                    t = t.with(*fk, Value::int(*cell));
                }
            }
            t
        }));
        let plan = star_plan(&dims, &fact, &keys, &fks);
        assert_adaptive_matches_static(&plan, &u);
    }

    /// Set operators, division, and the union-join — every materializing
    /// drain the stager can pick — composed over random operands.
    #[test]
    fn adaptive_set_operator_trees_match_static_plans(
        a_rows in proptest::collection::vec((0i64..5, proptest::option::of(0i64..4)), 1..10),
        b_rows in proptest::collection::vec((0i64..5, proptest::option::of(0i64..4)), 1..10),
    ) {
        let mut u = Universe::new();
        let k = u.intern("K");
        let v = u.intern("V");
        let mk = |rows: &Vec<(i64, Option<i64>)>| {
            XRelation::from_tuples(rows.iter().map(|(kv, vv)| {
                Tuple::new()
                    .with(k, Value::int(*kv))
                    .with_opt(v, vv.map(Value::int))
            }))
        };
        let (a, b) = (mk(&a_rows), mk(&b_rows));
        // Union over difference, filtered: two stacked set-op breaks.
        let setops = Expr::literal(a.clone())
            .difference(Expr::literal(b.clone()))
            .union(Expr::literal(b.clone()))
            .select(Predicate::attr_const(k, CompareOp::Ge, 1));
        assert_adaptive_matches_static(&setops, &u);
        // X-intersection under a projection.
        let meet = Expr::literal(a.clone())
            .x_intersect(Expr::literal(b.clone()))
            .project(attr_set([k]));
        assert_adaptive_matches_static(&meet, &u);
        // Division joined against one of its operands (a break above a
        // break), plus a union-join.
        let div = Expr::literal(a.clone())
            .divide(attr_set([k]), Expr::literal(b.clone()).project(attr_set([v])))
            .union_join(Expr::literal(b.clone()), attr_set([k]));
        assert_adaptive_matches_static(&div, &u);
    }
}

/// QUEL level: adaptive and static `QueryOutput`s are byte-identical —
/// columns, attribute ids, and rows — on catalog-backed queries (the shape
/// every satellite assertion in the issue is phrased over).
#[test]
fn adaptive_query_outputs_are_byte_identical() {
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
    for i in 0..120i64 {
        let mut cells = vec![
            ("E#", Value::int(i)),
            ("NAME", Value::str(format!("E{i}"))),
            ("SEX", Value::str(if i % 2 == 0 { "M" } else { "F" })),
        ];
        if i % 7 != 0 {
            // Skewed managers: most report to 1, the rest spread out.
            cells.push(("MGR#", Value::int(if i % 3 == 0 { 1 } else { i / 2 })));
        }
        t.insert_named(&u, &cells).unwrap();
    }
    for text in [
        "range of e is EMP retrieve (e.NAME) where e.MGR# = 1",
        "range of e is EMP range of m is EMP retrieve (e.NAME) \
         where m.SEX = \"M\" and e.MGR# = m.E#",
        "range of e is EMP range of m is EMP range of b is EMP retrieve (e.NAME) \
         where e.MGR# = m.E# and m.MGR# = b.E# and b.SEX = \"F\"",
    ] {
        for threads in [1usize, 4] {
            let static_out = run(&db, text, Truth::True, options(None, threads)).unwrap();
            let adaptive_out = run(&db, text, Truth::True, options(Some(1.0), threads)).unwrap();
            assert_eq!(adaptive_out.columns, static_out.columns, "{text}");
            assert_eq!(adaptive_out.column_attrs, static_out.column_attrs, "{text}");
            assert_eq!(
                adaptive_out.rows,
                static_out.rows,
                "{text} (threads {threads}):\n{}",
                adaptive_out.physical_plan()
            );
        }
    }
    // Sanity: resolve still works for the corpus (guards against the
    // fixtures silently not exercising the planner).
    let q = parse("range of e is EMP retrieve (e.E#)").unwrap();
    assert!(resolve(&db, &q).is_ok());
}

/// Acceptance criterion: `adaptive = None` does not merely agree on rows —
/// it executes the byte-identical static pipeline, down to every operator
/// counter, estimate annotation, and (absent) re-opt event.
#[test]
fn adaptive_off_is_byte_identical_to_the_static_engine() {
    let mut u = Universe::new();
    let a = u.intern("A");
    let b = u.intern("B");
    let c = u.intern("C");
    let left = XRelation::from_tuples((0..50).map(|i| {
        Tuple::new()
            .with(a, Value::int(i % 7))
            .with(b, Value::int(i))
    }));
    let right = XRelation::from_tuples((0..30).map(|i| Tuple::new().with(c, Value::int(i % 7))));
    let plan = Expr::literal(left)
        .product(Expr::literal(right))
        .select(Predicate::attr_attr(a, CompareOp::Eq, c))
        .project(attr_set([a, b]));
    let opts = options(None, 1);
    let (via_execute, exec_stats) = execute(&plan, &NoSource, &u, Truth::True, opts).unwrap();
    let optimized = optimize_with(&plan, &NoSource, opts);
    let (direct, direct_stats) = compile_with(&optimized.expr, &NoSource, &u, Truth::True, opts)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(via_execute, direct);
    assert_eq!(
        exec_stats, direct_stats,
        "adaptive-off execution must compile the very same static pipeline"
    );
    assert!(!exec_stats.reoptimized());
    assert!(!exec_stats.render().contains("@stage"));
}
