//! Experiment E6 (Section 6, display (6.6)): the division comparison.
//! Codd's TRUE division (`A₁ = ∅`), Codd's MAYBE division (`A₂ =
//! {s1,s2,s3}`), and the paper's Y-quotient (`A₃ = {s1,s2}`) are recomputed
//! and benchmarked, together with the two equivalent formulations (6.2) and
//! (6.5) of the Y-quotient — and, since division now streams through the
//! `nullrel-exec` engine as a dedicated `DivisionOp` (no tree-walk
//! fallback), the full `plan → optimize → compile → run` pipeline.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use nullrel_bench::paper_data::ps_database;
use nullrel_codd::maybe::{divide_maybe, divide_true, project_codd, select_true};
use nullrel_core::algebra::{divide, divide_direct, project, select_attr_const, Expr};
use nullrel_core::predicate::Predicate;
use nullrel_core::tvl::{CompareOp, Truth};
use nullrel_core::universe::attr_set;
use nullrel_core::value::Value;
use nullrel_exec::{execute, OptimizeOptions};

fn bench_e6(c: &mut Criterion) {
    let db = ps_database();
    let s = db.universe().lookup("S#").expect("schema attribute");
    let p = db.universe().lookup("P#").expect("schema attribute");
    let table = db.table("PS").expect("fixture table");
    let ps_rel = table.to_relation();
    let ps_x = table.to_xrelation();

    // Codd pipeline: P_{s2} keeps its null tuple.
    let codd_sel = select_true(&ps_rel, &Predicate::attr_const(s, CompareOp::Eq, "s2")).unwrap();
    let codd_p_s2 = project_codd(&codd_sel, &[p]);
    let a1 = divide_true(&ps_rel, &attr_set([s]), &codd_p_s2).unwrap();
    let a2 = divide_maybe(&ps_rel, &attr_set([s]), &codd_p_s2).unwrap();

    // Paper pipeline: the minimal P_{s2} is {p1}.
    let p_s2 = project(
        &select_attr_const(&ps_x, s, CompareOp::Eq, Value::str("s2")).unwrap(),
        &attr_set([p]),
    );
    let a3 = divide(&ps_x, &attr_set([s]), &p_s2).unwrap();

    println!(
        "E6: |A1 (Codd TRUE)| = {}, |A2 (Codd MAYBE)| = {}, |A3 (paper)| = {}",
        a1.len(),
        a2.len(),
        a3.len()
    );
    assert_eq!(a1.len(), 0);
    assert_eq!(a2.len(), 3);
    assert_eq!(a3.len(), 2);

    let mut group = c.benchmark_group("e6_division");
    group.bench_function("codd_true_division_a1", |b| {
        b.iter(|| divide_true(black_box(&ps_rel), &attr_set([s]), &codd_p_s2).unwrap())
    });
    group.bench_function("codd_maybe_division_a2", |b| {
        b.iter(|| divide_maybe(black_box(&ps_rel), &attr_set([s]), &codd_p_s2).unwrap())
    });
    group.bench_function("paper_y_quotient_a3_algebraic_6_2", |b| {
        b.iter(|| divide(black_box(&ps_x), &attr_set([s]), &p_s2).unwrap())
    });
    group.bench_function("paper_y_quotient_a3_direct_6_5", |b| {
        b.iter(|| divide_direct(black_box(&ps_x), &attr_set([s]), &p_s2).unwrap())
    });

    // The engine path: the same division as a logical plan, optimized,
    // compiled onto the streaming DivisionOp, and run against the catalog.
    let division_plan = Expr::named("PS").divide(attr_set([s]), Expr::literal(p_s2.clone()));
    let (engine_a3, stats) = execute(
        &division_plan,
        &db,
        db.universe(),
        Truth::True,
        OptimizeOptions::default(),
    )
    .unwrap();
    assert_eq!(engine_a3, a3, "engine division must match the Y-quotient");
    assert!(stats.used_division(), "plan:\n{stats}");
    group.bench_function("engine_division_pipeline", |b| {
        b.iter(|| {
            execute(
                black_box(&division_plan),
                &db,
                db.universe(),
                Truth::True,
                OptimizeOptions::default(),
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(400));
    targets = bench_e6
}
criterion_main!(benches);
