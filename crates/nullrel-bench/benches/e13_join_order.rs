//! Experiment E13: cost-based join ordering on a star join whose
//! declaration order is pessimal.
//!
//! The workload is a 4-way star: three dimension tables (mutually
//! unconnected — their pairwise joins are Cartesian products) declared
//! *first* and the fact table, which links all three, declared *last*.
//! The declaration-order left-deep plan therefore pays two dimension
//! products before any join predicate can apply; the cost-based
//! enumerator starts from the fact table and hash-joins (or
//! index-probes) each dimension, touching only linear work.
//!
//! Reported ratios:
//! * **cost-based vs declaration-order left-deep** (the acceptance
//!   criterion: ≥ 5× at n = 200 — in practice it is orders of magnitude);
//! * **engine vs naive tree-walk** (the full product oracle, measured at
//!   a small n where the n³·|F| materialisation stays tractable).

use std::hint::black_box;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nullrel_core::algebra::Expr;
use nullrel_core::predicate::Predicate;
use nullrel_core::tvl::{CompareOp, Truth};
use nullrel_core::universe::AttrId;
use nullrel_core::value::Value;
use nullrel_exec::{execute, JoinOrdering, OptimizeOptions};
use nullrel_storage::{Database, SchemaBuilder};

fn declaration_options() -> OptimizeOptions {
    OptimizeOptions {
        join_ordering: JoinOrdering::Declaration,
        ..OptimizeOptions::default()
    }
}

/// A star database: three dimensions of `n/4` rows (keyed and indexed)
/// and a fact table of `n` rows referencing all three.
fn star_db(n: usize) -> Database {
    let dim_rows = (n / 4).max(2);
    let mut db = Database::new();
    for d in 0..3 {
        db.create_table(
            SchemaBuilder::new(format!("DIM{d}"))
                .required_column(format!("K{d}"))
                .column(format!("V{d}"))
                .key(&[&format!("K{d}")]),
        )
        .expect("fresh database");
    }
    db.create_table(
        SchemaBuilder::new("FACT")
            .required_column("F#")
            .column("FK0")
            .column("FK1")
            .column("FK2")
            .key(&["F#"]),
    )
    .expect("fresh database");
    let u = db.universe().clone();
    for d in 0..3usize {
        let key = format!("K{d}");
        let val = format!("V{d}");
        let t = db.table_mut(&format!("DIM{d}")).expect("just created");
        for i in 0..dim_rows as i64 {
            t.insert_named(
                &u,
                &[
                    (&key as &str, Value::int(i)),
                    (&val as &str, Value::int(i * 7)),
                ],
            )
            .expect("valid row");
        }
        let k = u.lookup(&key).expect("interned");
        t.create_index(vec![k]).expect("indexable");
    }
    let t = db.table_mut("FACT").expect("just created");
    for i in 0..n as i64 {
        t.insert_named(
            &u,
            &[
                ("F#", Value::int(i)),
                ("FK0", Value::int(i % dim_rows as i64)),
                ("FK1", Value::int((i + 1) % dim_rows as i64)),
                ("FK2", Value::int((i + 2) % dim_rows as i64)),
            ],
        )
        .expect("valid row");
    }
    db
}

/// The pessimal plan: dimensions first, fact last, all join predicates in
/// one top-level selection.
fn star_plan(db: &Database) -> Expr {
    let u = db.universe();
    let keys: Vec<AttrId> = (0..3)
        .map(|d| u.lookup(&format!("K{d}")).unwrap())
        .collect();
    let fks: Vec<AttrId> = (0..3)
        .map(|d| u.lookup(&format!("FK{d}")).unwrap())
        .collect();
    Expr::named("DIM0")
        .product(Expr::named("DIM1"))
        .product(Expr::named("DIM2"))
        .product(Expr::named("FACT"))
        .select(
            Predicate::attr_attr(fks[0], CompareOp::Eq, keys[0])
                .and(Predicate::attr_attr(fks[1], CompareOp::Eq, keys[1]))
                .and(Predicate::attr_attr(fks[2], CompareOp::Eq, keys[2])),
        )
}

/// Median wall-clock of `samples` runs of `f` (the ratio report needs its
/// own numbers; the criterion shim only prints).
fn median(samples: usize, mut f: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

fn bench_e13(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_join_order");

    // Engine vs naive tree-walk, at a size where the full n³·|F| product
    // oracle stays tractable; also the differential check.
    let small = star_db(24);
    let small_plan = star_plan(&small);
    let oracle = small_plan.eval(&small).expect("oracle evaluates");
    let (cost_based, stats) = execute(
        &small_plan,
        &small,
        small.universe(),
        Truth::True,
        OptimizeOptions::default(),
    )
    .unwrap();
    assert_eq!(cost_based, oracle, "cost-based plan must match the oracle");
    let (declaration, _) = execute(
        &small_plan,
        &small,
        small.universe(),
        Truth::True,
        declaration_options(),
    )
    .unwrap();
    assert_eq!(
        declaration, oracle,
        "declaration order must match the oracle"
    );
    assert!(
        !stats.used_op("Product"),
        "the enumerator must avoid products:\n{}",
        stats.render()
    );
    let naive_t = median(5, || {
        black_box(star_plan(&small).eval(&small).unwrap());
    });
    let engine_t = median(5, || {
        black_box(
            execute(
                &small_plan,
                &small,
                small.universe(),
                Truth::True,
                OptimizeOptions::default(),
            )
            .unwrap(),
        );
    });
    println!(
        "E13 n=24: engine {:.3?} vs naive tree-walk {:.3?} — {:.0}× faster",
        engine_t,
        naive_t,
        naive_t.as_secs_f64() / engine_t.as_secs_f64().max(1e-9)
    );
    group.bench_with_input(BenchmarkId::new("naive_tree_walk", 24), &small, |b, db| {
        b.iter(|| star_plan(black_box(db)).eval(db).unwrap())
    });

    for n in [50usize, 200] {
        let db = star_db(n);
        let plan = star_plan(&db);
        let (a, _) = execute(
            &plan,
            &db,
            db.universe(),
            Truth::True,
            OptimizeOptions::default(),
        )
        .unwrap();
        let (b, _) = execute(
            &plan,
            &db,
            db.universe(),
            Truth::True,
            declaration_options(),
        )
        .unwrap();
        assert_eq!(a, b, "plan choice must not change the result (n={n})");

        let cost_t = median(5, || {
            black_box(
                execute(
                    &plan,
                    &db,
                    db.universe(),
                    Truth::True,
                    OptimizeOptions::default(),
                )
                .unwrap(),
            );
        });
        let decl_t = median(5, || {
            black_box(
                execute(
                    &plan,
                    &db,
                    db.universe(),
                    Truth::True,
                    declaration_options(),
                )
                .unwrap(),
            );
        });
        let ratio = decl_t.as_secs_f64() / cost_t.as_secs_f64().max(1e-9);
        println!(
            "E13 n={n}: cost-based {cost_t:.3?} vs declaration-order left-deep \
             {decl_t:.3?} — {ratio:.0}× faster"
        );
        if n == 200 {
            // The acceptance criterion of the cost-based planner PR.
            assert!(
                ratio >= 5.0,
                "cost-based plan must beat declaration order by ≥5× at n=200 \
                 (got {ratio:.1}×)"
            );
        }

        group.bench_with_input(BenchmarkId::new("cost_based", n), &db, |b, db| {
            b.iter(|| {
                execute(
                    &plan,
                    black_box(db),
                    db.universe(),
                    Truth::True,
                    OptimizeOptions::default(),
                )
                .unwrap()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("declaration_left_deep", n),
            &db,
            |b, db| {
                b.iter(|| {
                    execute(
                        &plan,
                        black_box(db),
                        db.universe(),
                        Truth::True,
                        declaration_options(),
                    )
                    .unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(400));
    targets = bench_e13
}
criterion_main!(benches);
