//! Differential tests for the cost-based planner (PR 3): whatever join
//! order the enumerator picks, the engine must produce exactly the same
//! minimal x-relation as the declaration-order left-deep plan and the
//! tree-walk oracle — in the TRUE band through the full optimizer, and in
//! the MAYBE band for raw join-order permutations (the optimizer's rewrite
//! rules are TRUE-band arguments, but product commutativity is not).

use proptest::prelude::*;

use nullrel::core::algebra::{Expr, NoSource};
use nullrel::core::prelude::*;
use nullrel::exec::{compile_band, execute, JoinOrdering, OptimizeOptions};
use nullrel::storage::{Database, SchemaBuilder};

fn declaration() -> OptimizeOptions {
    OptimizeOptions {
        join_ordering: JoinOrdering::Declaration,
        ..OptimizeOptions::default()
    }
}

fn universe() -> (Universe, Vec<AttrId>, Vec<AttrId>, Vec<AttrId>) {
    let mut u = Universe::new();
    let dim_keys: Vec<AttrId> = (0..3).map(|i| u.intern(&format!("d{i}.K"))).collect();
    let dim_vals: Vec<AttrId> = (0..3).map(|i| u.intern(&format!("d{i}.V"))).collect();
    let fact_keys: Vec<AttrId> = (0..3).map(|i| u.intern(&format!("f.K{i}"))).collect();
    (u, dim_keys, dim_vals, fact_keys)
}

/// A dimension relation: total keys, sometimes-null payload.
fn arb_dim(key: AttrId, val: AttrId) -> impl Strategy<Value = XRelation> {
    proptest::collection::vec((0i64..4, proptest::option::of(0i64..3)), 1..5).prop_map(
        move |rows| {
            XRelation::from_tuples(rows.into_iter().map(|(k, v)| {
                Tuple::new()
                    .with(key, Value::int(k))
                    .with_opt(val, v.map(Value::int))
            }))
        },
    )
}

/// A fact relation: every foreign key may be `ni` (the null mask drops
/// cells), so join keys exercise the maybe band.
fn arb_fact(keys: [AttrId; 3]) -> impl Strategy<Value = XRelation> {
    proptest::collection::vec((0i64..4, 0i64..4, 0i64..4, 0u8..8), 0..6).prop_map(move |rows| {
        XRelation::from_tuples(rows.into_iter().map(|(k0, k1, k2, mask)| {
            let mut t = Tuple::new();
            for (j, (key, cell)) in keys.iter().zip([k0, k1, k2]).enumerate() {
                if mask & (1 << j) == 0 {
                    t = t.with(*key, Value::int(cell));
                }
            }
            t
        }))
    })
}

/// The pessimal declaration order: the three (mutually unconnected)
/// dimensions first, the fact table last — the left-deep tree pays two
/// Cartesian products before any join predicate applies.
fn star_plan(
    dims: &[XRelation],
    fact: &XRelation,
    dim_keys: &[AttrId],
    dim_vals: &[AttrId],
    fact_keys: &[AttrId],
) -> Expr {
    let plan = Expr::literal(dims[0].clone())
        .product(Expr::literal(dims[1].clone()))
        .product(Expr::literal(dims[2].clone()))
        .product(Expr::literal(fact.clone()));
    let predicate = Predicate::attr_attr(fact_keys[0], CompareOp::Eq, dim_keys[0])
        .and(Predicate::attr_attr(
            fact_keys[1],
            CompareOp::Eq,
            dim_keys[1],
        ))
        .and(Predicate::attr_attr(
            fact_keys[2],
            CompareOp::Eq,
            dim_keys[2],
        ));
    plan.select(predicate)
        .project(attr_set([dim_vals[0], fact_keys[1]]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// TRUE band: the cost-based plan, the declaration-order left-deep
    /// plan, and the tree-walk oracle agree on every random star instance.
    #[test]
    fn cost_based_and_declaration_plans_agree_in_true_band(
        d0 in arb_dim(AttrId::from_index(0), AttrId::from_index(3)),
        d1 in arb_dim(AttrId::from_index(1), AttrId::from_index(4)),
        d2 in arb_dim(AttrId::from_index(2), AttrId::from_index(5)),
        fact in arb_fact([
            AttrId::from_index(6),
            AttrId::from_index(7),
            AttrId::from_index(8),
        ]),
    ) {
        let (u, dim_keys, dim_vals, fact_keys) = universe();
        let dims = [d0, d1, d2];
        let plan = star_plan(&dims, &fact, &dim_keys, &dim_vals, &fact_keys);
        let oracle = plan.eval(&NoSource).unwrap();
        let (cost_based, stats) = execute(&plan, &NoSource, &u, Truth::True, OptimizeOptions::default()).unwrap();
        let (declaration, _) =
            execute(&plan, &NoSource, &u, Truth::True, declaration()).unwrap();
        prop_assert_eq!(&cost_based, &oracle, "cost-based vs oracle:\n{}", stats.render());
        prop_assert_eq!(&declaration, &oracle, "declaration-order vs oracle");
    }

    /// MAYBE band: pure join-order permutations (product commutativity /
    /// associativity) never change the ni band either. The full optimizer
    /// is out of scope here — its rewrites are TRUE-band lower-bound
    /// arguments — so the permuted trees are compiled as written.
    #[test]
    fn join_order_permutations_preserve_the_maybe_band(
        d0 in arb_dim(AttrId::from_index(0), AttrId::from_index(3)),
        d1 in arb_dim(AttrId::from_index(1), AttrId::from_index(4)),
        d2 in arb_dim(AttrId::from_index(2), AttrId::from_index(5)),
        fact in arb_fact([
            AttrId::from_index(6),
            AttrId::from_index(7),
            AttrId::from_index(8),
        ]),
    ) {
        let (u, dim_keys, _dim_vals, fact_keys) = universe();
        let predicate = Predicate::attr_attr(fact_keys[0], CompareOp::Eq, dim_keys[0])
            .and(Predicate::attr_attr(fact_keys[1], CompareOp::Eq, dim_keys[1]))
            .and(Predicate::attr_attr(fact_keys[2], CompareOp::Eq, dim_keys[2]));
        // Declaration order: dims first. Alternative order: fact first.
        let decl = Expr::literal(d0.clone())
            .product(Expr::literal(d1.clone()))
            .product(Expr::literal(d2.clone()))
            .product(Expr::literal(fact.clone()))
            .select(predicate.clone());
        let fact_first = Expr::literal(fact)
            .product(Expr::literal(d2))
            .product(Expr::literal(d1))
            .product(Expr::literal(d0))
            .select(predicate);
        let (a, _) = compile_band(&decl, &NoSource, &u, Truth::Ni)
            .unwrap()
            .run()
            .unwrap();
        let (b, _) = compile_band(&fact_first, &NoSource, &u, Truth::Ni)
            .unwrap()
            .run()
            .unwrap();
        prop_assert_eq!(a, b);
    }
}

/// The catalog path: with an index on the big table the star query runs
/// index-nested-loop probes; with declaration ordering it pays products —
/// both produce the oracle's rows.
#[test]
fn catalog_star_join_runs_cost_based_and_agrees() {
    let mut db = Database::new();
    for d in 0..3 {
        db.create_table(
            SchemaBuilder::new(format!("DIM{d}"))
                .required_column(format!("K{d}"))
                .column(format!("V{d}"))
                .key(&[&format!("K{d}")]),
        )
        .unwrap();
    }
    db.create_table(
        SchemaBuilder::new("FACT")
            .required_column("F#")
            .column("FK0")
            .column("FK1")
            .column("FK2")
            .key(&["F#"]),
    )
    .unwrap();
    let u = db.universe().clone();
    // Small sizes: the tree-walk oracle pays the full 4-way product, which
    // must stay cheap in a unit test.
    for d in 0..3usize {
        let t = db.table_mut(&format!("DIM{d}")).unwrap();
        for i in 0..6i64 {
            t.insert_named(
                &u,
                &[
                    (&format!("K{d}") as &str, Value::int(i)),
                    (&format!("V{d}") as &str, Value::int(i * 10)),
                ],
            )
            .unwrap();
        }
    }
    let t = db.table_mut("FACT").unwrap();
    for i in 0..8i64 {
        t.insert_named(
            &u,
            &[
                ("F#", Value::int(i)),
                ("FK0", Value::int(i % 6)),
                ("FK1", Value::int((i + 1) % 6)),
                ("FK2", Value::int((i + 2) % 6)),
            ],
        )
        .unwrap();
    }
    let keys: Vec<AttrId> = (0..3)
        .map(|d| u.lookup(&format!("K{d}")).unwrap())
        .collect();
    let fks: Vec<AttrId> = (0..3)
        .map(|d| u.lookup(&format!("FK{d}")).unwrap())
        .collect();
    let plan = Expr::named("DIM0")
        .product(Expr::named("DIM1"))
        .product(Expr::named("DIM2"))
        .product(Expr::named("FACT"))
        .select(
            Predicate::attr_attr(fks[0], CompareOp::Eq, keys[0])
                .and(Predicate::attr_attr(fks[1], CompareOp::Eq, keys[1]))
                .and(Predicate::attr_attr(fks[2], CompareOp::Eq, keys[2])),
        );
    let oracle = plan.eval(&db).unwrap();
    let (cost_based, stats) =
        execute(&plan, &db, &u, Truth::True, OptimizeOptions::default()).unwrap();
    assert_eq!(cost_based, oracle, "plan:\n{}", stats.render());
    assert!(
        !stats.used_op("Product"),
        "the enumerator must avoid products:\n{}",
        stats.render()
    );
    let (declaration, decl_stats) = execute(&plan, &db, &u, Truth::True, declaration()).unwrap();
    assert_eq!(declaration, oracle, "plan:\n{}", decl_stats.render());
    assert!(
        decl_stats.used_op("Product"),
        "declaration order pays the dimension products:\n{}",
        decl_stats.render()
    );
}

/// Index-nested-loop and hash joins agree; the INL plan examines only the
/// probed rows.
#[test]
fn index_nested_loop_join_agrees_with_hash_join() {
    let build = |with_index: bool| {
        let mut db = Database::new();
        db.create_table(
            SchemaBuilder::new("BIG")
                .required_column("K")
                .column("V")
                .key(&["K"]),
        )
        .unwrap();
        let u = db.universe().clone();
        let t = db.table_mut("BIG").unwrap();
        for i in 0..200i64 {
            t.insert_named(&u, &[("K", Value::int(i)), ("V", Value::int(i * 3))])
                .unwrap();
        }
        if with_index {
            let k = u.lookup("K").unwrap();
            t.create_index(vec![k]).unwrap();
        }
        db
    };
    let db = build(true);
    let db_plain = build(false);
    let u = db.universe().clone();
    let k = u.lookup("K").unwrap();
    let mut u2 = u.clone();
    let a = u2.intern("A");
    let outer = XRelation::from_tuples((0..4).map(|i| Tuple::new().with(a, Value::int(i * 50))));
    let join = Expr::ThetaJoin {
        left: Box::new(Expr::literal(outer)),
        left_attr: a,
        op: CompareOp::Eq,
        right_attr: k,
        right: Box::new(Expr::named("BIG")),
    };
    let (inl, inl_stats) =
        execute(&join, &db, &u2, Truth::True, OptimizeOptions::default()).unwrap();
    let (hash, hash_stats) = execute(
        &join,
        &db_plain,
        &u2,
        Truth::True,
        OptimizeOptions::default(),
    )
    .unwrap();
    assert_eq!(inl, hash);
    assert!(
        inl_stats.used_index_nested_loop_join(),
        "plan:\n{}",
        inl_stats.render()
    );
    assert!(
        hash_stats.used_hash_join(),
        "plan:\n{}",
        hash_stats.render()
    );
    assert!(
        inl_stats.rows_examined() < hash_stats.rows_examined(),
        "INL examines {} rows, hash join {}",
        inl_stats.rows_examined(),
        hash_stats.rows_examined()
    );
}
