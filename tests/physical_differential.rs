//! Differential tests for the physical execution engine (experiment E12):
//! the optimized physical pipeline must produce exactly the same minimal
//! x-relation as the seed's tree-walk `Expr::eval(&NoSource)` oracle — on
//! the paper's PS / suppliers–parts fixtures, on null-heavy variants, and
//! on randomly generated plans.

mod ps_fixtures;

use proptest::prelude::*;

use nullrel::core::algebra::{Expr, NoSource};
use nullrel::core::prelude::*;
use nullrel::exec::{execute, OptimizeOptions};
use nullrel::query::{execute_resolved_naive, parse, resolve, run};
use nullrel::storage::{Database, SchemaBuilder};
use ps_fixtures::{ps_database, QUEL_FIXTURES};

/// Runs one QUEL query through both evaluators and asserts identical
/// results (the engine's rows are the minimal representation either way).
fn differential(db: &Database, text: &str) {
    let engine = run(db, text, Truth::True, OptimizeOptions::default()).expect("engine evaluates");
    let resolved = resolve(db, &parse(text).unwrap()).unwrap();
    let oracle = execute_resolved_naive(&resolved).expect("oracle evaluates");
    assert_eq!(
        engine.rows,
        oracle.rows,
        "engine and oracle disagree on {text:?}\nphysical plan:\n{}",
        engine.physical_plan()
    );
}

#[test]
fn suppliers_parts_queries_agree_with_the_oracle() {
    let db = ps_database();
    for text in QUEL_FIXTURES {
        differential(&db, text);
    }
}

#[test]
fn indexed_and_unindexed_plans_agree() {
    let mut db = ps_database();
    let s = db.universe().lookup("S#").unwrap();
    let queries = [
        "range of a is PS retrieve (a.P#) where a.S# = \"s2\"",
        "range of a is PS range of b is PS retrieve (a.P#, b.P#) \
         where a.S# = \"s1\" and b.S# = \"s2\" and a.P# = b.P#",
    ];
    let before: Vec<_> = queries
        .iter()
        .map(|q| run(&db, *q, Truth::True, OptimizeOptions::default()).unwrap())
        .collect();
    db.table_mut("PS").unwrap().create_index(vec![s]).unwrap();
    for (q, plain) in queries.iter().zip(before) {
        let indexed = run(&db, *q, Truth::True, OptimizeOptions::default()).unwrap();
        assert_eq!(
            indexed.rows, plain.rows,
            "index changed the answer of {q:?}"
        );
        assert!(
            indexed.stats.used_index(),
            "expected an index probe:\n{}",
            indexed.physical_plan()
        );
        differential(&db, q);
    }
}

// ---------------------------------------------------------------------
// Set operators, division, and the union-join: streaming vs the oracle
// ---------------------------------------------------------------------

/// Runs an algebra plan through the engine against the catalog and asserts
/// it produces exactly the tree-walk oracle's x-relation (TRUE band), that
/// the expected dedicated operator executed, and that no tree-walk fallback
/// (`EvalScan`) node exists anywhere in the plan.
fn differential_expr(db: &Database, expr: &Expr, operator: &str) -> XRelation {
    let oracle = expr.eval(db).expect("oracle evaluates");
    let (engine, stats) = execute(
        expr,
        db,
        db.universe(),
        Truth::True,
        OptimizeOptions::default(),
    )
    .expect("engine evaluates");
    assert_eq!(
        engine, oracle,
        "engine and oracle disagree on {operator}\nphysical plan:\n{stats}"
    );
    assert!(
        stats.used_op(operator),
        "expected a dedicated {operator} operator:\n{stats}"
    );
    assert!(
        !stats.render().contains("EvalScan"),
        "fallback node:\n{stats}"
    );
    engine
}

/// The paper's Section 6 division (display (6.6)): suppliers who supply
/// every part s2 surely supplies — A₃ = {s1, s2} — plus the Q₄ difference
/// and the set operators, all over the null-heavy PS fixture.
#[test]
fn paper_set_op_and_division_queries_stream_through_the_engine() {
    let db = ps_database();
    let u = db.universe().clone();
    let s = u.lookup("S#").unwrap();
    let p = u.lookup("P#").unwrap();
    let by = |k: &str| {
        Expr::named("PS")
            .select(Predicate::attr_const(s, CompareOp::Eq, k))
            .project(attr_set([p]))
    };

    // Section 6, query Q / answer A₃.
    let a3 = differential_expr(
        &db,
        &Expr::named("PS").divide(attr_set([s]), by("s2")),
        "Divide",
    );
    assert_eq!(a3.len(), 2);
    assert!(a3.x_contains(&Tuple::new().with(s, Value::str("s1"))));
    assert!(a3.x_contains(&Tuple::new().with(s, Value::str("s2"))));

    // Section 6, query Q₄: parts supplied by s1 but not by s2 = {p2}.
    let q4 = differential_expr(&db, &by("s1").difference(by("s2")), "Difference");
    assert_eq!(q4.len(), 1);
    assert!(q4.x_contains(&Tuple::new().with(p, Value::str("p2"))));

    // Union and x-intersection of the same part sets.
    let union = differential_expr(&db, &by("s1").union(by("s2")), "Union");
    assert_eq!(union.len(), 2, "p1 and p2");
    let meet = differential_expr(&db, &by("s1").x_intersect(by("s2")), "XIntersect");
    assert_eq!(meet.len(), 1, "both supply p1 for sure");

    // Self union-join on S#: information-preserving, subsumes the operand.
    let uj = differential_expr(
        &db,
        &Expr::named("PS").union_join(Expr::named("PS"), attr_set([s])),
        "UnionJoin",
    );
    assert!(uj.contains(&db.table("PS").unwrap().to_xrelation()));

    // Division nested under further algebra: project the quotient.
    differential_expr(
        &db,
        &Expr::named("PS")
            .divide(attr_set([s]), by("s2"))
            .project(attr_set([s])),
        "Divide",
    );
}

/// The union-join of Section 5's EMP/DEPT example: the equijoin plus the
/// dangling tuples of both sides, re-minimised by the streaming sink.
#[test]
fn union_join_fixture_keeps_dangling_tuples_through_the_engine() {
    let mut db = Database::new();
    db.create_table(SchemaBuilder::new("EMP").column("E#").column("DEPT"))
        .unwrap();
    db.create_table(SchemaBuilder::new("DEP").column("DEPT").column("BUDGET"))
        .unwrap();
    let u = db.universe().clone();
    let e_no = u.lookup("E#").unwrap();
    let dept = u.lookup("DEPT").unwrap();
    let budget = u.lookup("BUDGET").unwrap();
    let t = db.table_mut("EMP").unwrap();
    t.insert_named(&u, &[("E#", Value::int(1)), ("DEPT", Value::str("D1"))])
        .unwrap();
    t.insert_named(&u, &[("E#", Value::int(2)), ("DEPT", Value::str("D9"))])
        .unwrap();
    t.insert_named(&u, &[("E#", Value::int(3))]).unwrap(); // DEPT is ni
    let t = db.table_mut("DEP").unwrap();
    t.insert_named(
        &u,
        &[("DEPT", Value::str("D1")), ("BUDGET", Value::int(100))],
    )
    .unwrap();
    t.insert_named(
        &u,
        &[("DEPT", Value::str("D2")), ("BUDGET", Value::int(200))],
    )
    .unwrap();

    let expr = Expr::named("EMP").union_join(Expr::named("DEP"), attr_set([dept]));
    let out = differential_expr(&db, &expr, "UnionJoin");
    // Joined D1 pair + dangling E#2, E#3 (ni DEPT), and D2.
    assert_eq!(out.len(), 4);
    assert!(out.x_contains(
        &Tuple::new()
            .with(e_no, Value::int(1))
            .with(dept, Value::str("D1"))
            .with(budget, Value::int(100))
    ));
    assert!(out.x_contains(&Tuple::new().with(e_no, Value::int(3))));
}

/// Satellite regression: a renamed sub-plan (non-`Named` input) stays
/// pipelined and agrees with the oracle.
#[test]
fn renamed_subplans_stay_pipelined() {
    let db = ps_database();
    let mut u = db.universe().clone();
    let s = u.lookup("S#").unwrap();
    let p = u.lookup("P#").unwrap();
    let q = u.intern("Q#");
    let expr = Expr::named("PS")
        .project(attr_set([p]))
        .rename([(p, q)].into_iter().collect())
        .product(Expr::named("PS").project(attr_set([s])));
    let oracle = expr.eval(&db).unwrap();
    let (engine, stats) = execute(&expr, &db, &u, Truth::True, OptimizeOptions::default()).unwrap();
    assert_eq!(engine, oracle, "plan:\n{stats}");
    assert!(stats.used_op("Rename"), "plan:\n{stats}");
    assert!(!stats.render().contains("EvalScan"), "plan:\n{stats}");
}

// ---------------------------------------------------------------------
// MAYBE band: filters below the new operators keep the ni band
// ---------------------------------------------------------------------

/// The ni band of a predicate over a literal's minimal representation —
/// the hand oracle for MAYBE-band pipelines (literal scans stream exactly
/// the minimal representation, so the band is representation-stable).
fn ni_band(rel: &XRelation, predicate: &Predicate) -> Vec<Tuple> {
    rel.tuples()
        .iter()
        .filter(|t| predicate.eval(t).unwrap().is_ni())
        .cloned()
        .collect()
}

#[test]
fn maybe_band_flows_through_set_operators_and_division() {
    let mut u = Universe::new();
    let s = u.intern("S#");
    let p = u.intern("P#");
    let st = |sv: Option<&str>, pv: Option<&str>| {
        Tuple::new()
            .with_opt(s, sv.map(Value::str))
            .with_opt(p, pv.map(Value::str))
    };
    let a = XRelation::from_tuples([
        st(Some("s1"), Some("p1")),
        st(Some("s2"), None),
        st(None, Some("p4")),
    ]);
    let b = XRelation::from_tuples([st(Some("s3"), None), st(Some("s4"), Some("p2"))]);
    let pred = Predicate::attr_const(p, CompareOp::Eq, "p1");

    // Union of two ni-band selections.
    let plan = Expr::literal(a.clone())
        .select(pred.clone())
        .union(Expr::literal(b.clone()).select(pred.clone()));
    let (engine, stats) =
        execute(&plan, &NoSource, &u, Truth::Ni, OptimizeOptions::default()).unwrap();
    let oracle = lattice::union(
        &XRelation::from_tuples(ni_band(&a, &pred)),
        &XRelation::from_tuples(ni_band(&b, &pred)),
    );
    assert_eq!(engine, oracle, "plan:\n{stats}");
    assert_eq!(engine.len(), 2, "the two null-P# rows may supply p1");

    // Difference whose minuend is an ni-band selection.
    let plan = Expr::literal(a.clone())
        .select(pred.clone())
        .difference(Expr::literal(b.clone()));
    let (engine, stats) =
        execute(&plan, &NoSource, &u, Truth::Ni, OptimizeOptions::default()).unwrap();
    let oracle = lattice::difference(&XRelation::from_tuples(ni_band(&a, &pred)), &b);
    assert_eq!(engine, oracle, "plan:\n{stats}");

    // X-intersection of two ni-band selections.
    let plan = Expr::literal(a.clone())
        .select(pred.clone())
        .x_intersect(Expr::literal(a.clone()).select(pred.clone()));
    let (engine, stats) =
        execute(&plan, &NoSource, &u, Truth::Ni, OptimizeOptions::default()).unwrap();
    let band = XRelation::from_tuples(ni_band(&a, &pred));
    assert_eq!(
        engine,
        lattice::x_intersection(&band, &band),
        "plan:\n{stats}"
    );

    // Division whose dividend is an ni-band selection.
    let divisor = XRelation::from_tuples([st(None, Some("p4"))]);
    let plan = Expr::literal(a.clone())
        .select(Predicate::attr_const(s, CompareOp::Eq, "s2"))
        .divide(attr_set([s]), Expr::literal(divisor.clone()));
    let (engine, stats) =
        execute(&plan, &NoSource, &u, Truth::Ni, OptimizeOptions::default()).unwrap();
    let band = XRelation::from_tuples(ni_band(&a, &Predicate::attr_const(s, CompareOp::Eq, "s2")));
    let oracle = nullrel::core::algebra::divide(&band, &attr_set([s]), &divisor).unwrap();
    assert_eq!(engine, oracle, "plan:\n{stats}");

    // Union-join whose left side is an ni-band selection.
    let plan = Expr::literal(a.clone())
        .select(pred.clone())
        .union_join(Expr::literal(b.clone()), attr_set([s]));
    let (engine, stats) =
        execute(&plan, &NoSource, &u, Truth::Ni, OptimizeOptions::default()).unwrap();
    let oracle = nullrel::core::algebra::union_join(
        &XRelation::from_tuples(ni_band(&a, &pred)),
        &b,
        &attr_set([s]),
    )
    .unwrap();
    assert_eq!(engine, oracle, "plan:\n{stats}");
}

// ---------------------------------------------------------------------
// Randomised differential testing over literal plans
// ---------------------------------------------------------------------

/// Strategy: a tuple over the given attribute ids, each cell null with
/// probability ~1/4 (null-heavy by construction) or a tiny integer so that
/// joins, subsumption, and ni comparisons all actually occur.
fn arb_tuple(offset: usize, attrs: usize) -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(proptest::option::of(0i64..3), attrs).prop_map(move |cells| {
        let mut t = Tuple::new();
        for (i, cell) in cells.into_iter().enumerate() {
            if let Some(v) = cell {
                t.set(AttrId::from_index(offset + i), Some(Value::int(v)));
            }
        }
        t
    })
}

fn arb_xrel(offset: usize, attrs: usize) -> impl Strategy<Value = XRelation> {
    proptest::collection::vec(arb_tuple(offset, attrs), 0..8).prop_map(XRelation::from_tuples)
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

    /// Optimized pipelines agree with the oracle on random join plans:
    /// Project(Select(Product(L, R))) with an equi-join conjunct plus a
    /// constant conjunct — the exact shape the optimizer rewrites.
    #[test]
    fn random_join_plans_agree(
        left in arb_xrel(0, 2),
        right in arb_xrel(2, 2),
        k in 0i64..3,
    ) {
        let u = universe();
        let a0 = AttrId::from_index(0);
        let a1 = AttrId::from_index(1);
        let a2 = AttrId::from_index(2);
        let a3 = AttrId::from_index(3);
        let plan = Expr::literal(left)
            .product(Expr::literal(right))
            .select(
                Predicate::attr_attr(a1, CompareOp::Eq, a2)
                    .and(Predicate::attr_const(a0, CompareOp::Ge, k)),
            )
            .project(attr_set([a0, a3]));
        let oracle = plan.eval(&NoSource).unwrap();
        let (engine, _) = execute(&plan, &NoSource, &u, Truth::True, OptimizeOptions::default()).unwrap();
        prop_assert_eq!(engine, oracle);
    }

    /// Disjunctive and negated predicates (which the optimizer must leave
    /// above the product) also agree.
    #[test]
    fn random_disjunction_plans_agree(
        left in arb_xrel(0, 2),
        right in arb_xrel(2, 2),
        k in 0i64..3,
    ) {
        let u = universe();
        let a0 = AttrId::from_index(0);
        let a2 = AttrId::from_index(2);
        let plan = Expr::literal(left)
            .product(Expr::literal(right))
            .select(
                Predicate::attr_const(a0, CompareOp::Eq, k)
                    .or(Predicate::attr_attr(a0, CompareOp::Lt, a2).negate()),
            )
            .project(attr_set([a0, a2]));
        let oracle = plan.eval(&NoSource).unwrap();
        let (engine, _) = execute(&plan, &NoSource, &u, Truth::True, OptimizeOptions::default()).unwrap();
        prop_assert_eq!(engine, oracle);
    }

    /// Pure selection/projection plans over a single null-heavy relation.
    #[test]
    fn random_single_range_plans_agree(rel in arb_xrel(0, 3), k in 0i64..3) {
        let u = universe();
        let a0 = AttrId::from_index(0);
        let a1 = AttrId::from_index(1);
        let plan = Expr::literal(rel)
            .select(Predicate::attr_const(a0, CompareOp::Ne, k))
            .project(attr_set([a0, a1]));
        let oracle = plan.eval(&NoSource).unwrap();
        let (engine, _) = execute(&plan, &NoSource, &u, Truth::True, OptimizeOptions::default()).unwrap();
        prop_assert_eq!(engine, oracle);
    }

    /// Set-operator compositions — `σ((A ∪ B) − (B ∩̂ C))` — exercising the
    /// streaming Union/Difference/XIntersect operators and the
    /// pushdown-through-union/difference optimizer rules.
    #[test]
    fn random_set_op_plans_agree(
        a in arb_xrel(0, 2),
        b in arb_xrel(0, 2),
        c in arb_xrel(0, 2),
        k in 0i64..3,
    ) {
        let u = universe();
        let a0 = AttrId::from_index(0);
        let plan = Expr::literal(a)
            .union(Expr::literal(b.clone()))
            .difference(Expr::literal(b).x_intersect(Expr::literal(c)))
            .select(Predicate::attr_const(a0, CompareOp::Ne, k));
        let oracle = plan.eval(&NoSource).unwrap();
        let (engine, _) = execute(&plan, &NoSource, &u, Truth::True, OptimizeOptions::default()).unwrap();
        prop_assert_eq!(engine, oracle);
    }

    /// Division over null-heavy random dividends (the divisor's scope is
    /// disjoint from the quotient attribute by construction).
    #[test]
    fn random_division_plans_agree(rel in arb_xrel(0, 3), divisor in arb_xrel(1, 2)) {
        let u = universe();
        let a0 = AttrId::from_index(0);
        let plan = Expr::literal(rel).divide(attr_set([a0]), Expr::literal(divisor));
        let oracle = plan.eval(&NoSource).unwrap();
        let (engine, _) = execute(&plan, &NoSource, &u, Truth::True, OptimizeOptions::default()).unwrap();
        prop_assert_eq!(engine, oracle);
    }

    /// Equijoin and union-join on a shared key whose operand scopes overlap
    /// beyond the key — the representation-sensitive case the operators
    /// handle by reducing their inputs to minimal form.
    #[test]
    fn random_union_join_plans_agree(left in arb_xrel(0, 3), right in arb_xrel(1, 3)) {
        let u = universe();
        let on = attr_set([AttrId::from_index(1)]);
        let uj = Expr::literal(left.clone())
            .union_join(Expr::literal(right.clone()), on.clone());
        let oracle = uj.eval(&NoSource).unwrap();
        let (engine, _) = execute(&uj, &NoSource, &u, Truth::True, OptimizeOptions::default()).unwrap();
        prop_assert_eq!(engine, oracle, "union-join");

        let ej = Expr::literal(left).equijoin(Expr::literal(right), on);
        let oracle = ej.eval(&NoSource).unwrap();
        let (engine, _) = execute(&ej, &NoSource, &u, Truth::True, OptimizeOptions::default()).unwrap();
        prop_assert_eq!(engine, oracle, "equijoin");
    }

    /// MAYBE band over a union of selections: the engine's ni-band pipeline
    /// equals the hand-computed ni bands of both branches, unioned.
    #[test]
    fn random_maybe_band_union_plans_agree(
        a in arb_xrel(0, 2),
        b in arb_xrel(0, 2),
        k in 0i64..3,
    ) {
        let u = universe();
        let pred = Predicate::attr_const(AttrId::from_index(1), CompareOp::Eq, k);
        let plan = Expr::literal(a.clone())
            .select(pred.clone())
            .union(Expr::literal(b.clone()).select(pred.clone()));
        let (engine, _) = execute(&plan, &NoSource, &u, Truth::Ni, OptimizeOptions::default()).unwrap();
        let ni = |rel: &XRelation| -> XRelation {
            rel.tuples()
                .iter()
                .filter(|t| pred.eval(t).unwrap().is_ni())
                .cloned()
                .collect()
        };
        prop_assert_eq!(engine, lattice::union(&ni(&a), &ni(&b)));
    }
}
