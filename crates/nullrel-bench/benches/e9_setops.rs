//! Experiment E9 (Section 4): the cost of the generalized set operations.
//! The paper notes that (4.6) suggests an `O(|R₁| + |R₂|)` union while (4.7)
//! and (4.8) suggest `O(|R₁| · |R₂|)` bounds, and that "combinatorial
//! hashing" can do better. This benchmark sweeps relation cardinality and
//! null density, comparing the naïve (definition-transcribed) and
//! hash-indexed implementations of union, x-intersection, difference and
//! reduction to minimal form — plus the `nullrel-exec` engine path, where
//! union and difference stream through the dedicated `UnionOp` /
//! `DifferenceOp` operators into the minimising sink.
//!
//! It also holds the regression guard against a quadratic sink: on the two
//! result shapes the served path reduces most often, where nothing subsumes
//! anything, `hashed::minimal` must beat `naive::minimal` at least 10×.

use std::hint::black_box;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nullrel_bench::workload::{random_relation, WorkloadSpec};
use nullrel_core::algebra::{Expr, NoSource};
use nullrel_core::lattice::{hashed, naive};
use nullrel_core::tuple::Tuple;
use nullrel_core::universe::Universe;
use nullrel_core::value::Value;
use nullrel_exec::execute_expr;

/// Median wall-clock of `samples` runs of `f` (the ratio assertion needs
/// its own numbers; the criterion shim only prints).
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

/// The result shapes of e21's `wide_result` (1 500 four-column rows, one
/// column constant, another `ni` on every 7th row) and of Figure 2 in
/// `join_read` (764 single-column total rows). Both are antichains already,
/// so a reduction only has to find that out.
fn served_shapes() -> [(&'static str, Vec<Tuple>); 2] {
    let mut universe = Universe::new();
    let [key, name, sex, mgr] = ["E#", "NAME", "SEX", "MGR#"].map(|a| universe.intern(a));
    let wide = (0..1_500i64)
        .map(|i| {
            Tuple::new()
                .with(key, Value::int(2 * i + 1))
                .with(name, Value::int(i * 7_919 % 1_000_003))
                .with(sex, Value::int(1))
                .with_opt(mgr, (i % 7 != 0).then(|| Value::int(i / 3)))
        })
        .collect();
    let single = (0..764i64)
        .map(|i| Tuple::new().with(name, Value::int(i * 7_919 % 1_000_003)))
        .collect();
    [("wide_result", wide), ("figure_2", single)]
}

fn assert_served_shapes_reduce_in_linear_time() {
    for (shape, rows) in served_shapes() {
        assert_eq!(hashed::minimal(rows.clone()), naive::minimal(rows.clone()));
        let naive_t = median(5, || {
            black_box(naive::minimal(black_box(rows.clone())));
        });
        let hashed_t = median(5, || {
            black_box(hashed::minimal(black_box(rows.clone())));
        });
        let speedup = naive_t.as_secs_f64() / hashed_t.as_secs_f64().max(1e-9);
        println!(
            "E9 {shape} ({} rows): hashed {hashed_t:.3?} vs naive {naive_t:.3?} — {speedup:.0}× faster",
            rows.len()
        );
        assert!(
            speedup >= 10.0,
            "hashed::minimal must be at least 10× naive::minimal on {shape}, got {speedup:.1}×"
        );
    }
}

fn bench_e9(c: &mut Criterion) {
    assert_served_shapes_reduce_in_linear_time();
    let mut group = c.benchmark_group("e9_setops");
    for &tuples in &[100usize, 1_000] {
        for &density in &[0.1f64, 0.3] {
            let spec_a = WorkloadSpec {
                tuples,
                attrs: 4,
                null_density: density,
                domain_size: 50,
                seed: 11,
            };
            let spec_b = WorkloadSpec { seed: 13, ..spec_a };
            let mut universe = Universe::new();
            let a = random_relation(&mut universe, &spec_a);
            let b_rel = random_relation(&mut universe, &spec_b);
            let label = format!("n={tuples},null={density}");

            group.bench_with_input(
                BenchmarkId::new("union_naive", &label),
                &label,
                |bench, _| bench.iter(|| naive::union(black_box(&a), black_box(&b_rel))),
            );
            group.bench_with_input(
                BenchmarkId::new("union_hashed", &label),
                &label,
                |bench, _| bench.iter(|| hashed::union(black_box(&a), black_box(&b_rel))),
            );
            group.bench_with_input(
                BenchmarkId::new("difference_naive", &label),
                &label,
                |bench, _| bench.iter(|| naive::difference(black_box(&a), black_box(&b_rel))),
            );
            group.bench_with_input(
                BenchmarkId::new("difference_hashed", &label),
                &label,
                |bench, _| bench.iter(|| hashed::difference(black_box(&a), black_box(&b_rel))),
            );
            // The engine path: the same set operations as logical plans
            // compiled onto the streaming UnionOp / DifferenceOp pipeline.
            let union_plan = Expr::literal(a.clone()).union(Expr::literal(b_rel.clone()));
            let (engine_union, _) = execute_expr(&union_plan, &NoSource, &universe).unwrap();
            assert_eq!(engine_union, hashed::union(&a, &b_rel));
            group.bench_with_input(
                BenchmarkId::new("union_engine", &label),
                &label,
                |bench, _| {
                    bench.iter(|| {
                        execute_expr(black_box(&union_plan), &NoSource, &universe).unwrap()
                    })
                },
            );
            let difference_plan = Expr::literal(a.clone()).difference(Expr::literal(b_rel.clone()));
            let (engine_difference, _) =
                execute_expr(&difference_plan, &NoSource, &universe).unwrap();
            assert_eq!(engine_difference, hashed::difference(&a, &b_rel));
            group.bench_with_input(
                BenchmarkId::new("difference_engine", &label),
                &label,
                |bench, _| {
                    bench.iter(|| {
                        execute_expr(black_box(&difference_plan), &NoSource, &universe).unwrap()
                    })
                },
            );
            // The quadratic pairwise-meet operations are only swept at the
            // smaller cardinality to keep the run short.
            if tuples <= 100 {
                group.bench_with_input(
                    BenchmarkId::new("x_intersection_naive", &label),
                    &label,
                    |bench, _| {
                        bench.iter(|| naive::x_intersection(black_box(&a), black_box(&b_rel)))
                    },
                );
                group.bench_with_input(
                    BenchmarkId::new("x_intersection_hashed", &label),
                    &label,
                    |bench, _| {
                        bench.iter(|| hashed::x_intersection(black_box(&a), black_box(&b_rel)))
                    },
                );
            }
            let concatenated: Vec<_> = a.tuples().iter().chain(b_rel.tuples()).cloned().collect();
            group.bench_with_input(
                BenchmarkId::new("minimize_naive", &label),
                &label,
                |bench, _| bench.iter(|| naive::minimal(black_box(concatenated.clone()))),
            );
            group.bench_with_input(
                BenchmarkId::new("minimize_hashed", &label),
                &label,
                |bench, _| bench.iter(|| hashed::minimal(black_box(concatenated.clone()))),
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(400));
    targets = bench_e9
}
criterion_main!(benches);
