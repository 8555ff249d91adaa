//! Experiment E4 (Figure 1 and Section 5): evaluating query Q_A under the
//! `ni` lower-bound discipline versus the "unknown" interpretation with its
//! per-tuple tautology analysis, on the EMP relation of Table II.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use nullrel_bench::paper_data::emp_database;
use nullrel_core::tvl::Truth;
use nullrel_exec::OptimizeOptions;
use nullrel_query::{execute_unknown, run, FIGURE_1_QUERY};

fn bench_e4(c: &mut Criterion) {
    let db = emp_database();

    let ni = run(&db, FIGURE_1_QUERY, Truth::True, OptimizeOptions::default())
        .expect("figure 1 evaluates");
    let unknown = execute_unknown(&db, FIGURE_1_QUERY, &[], 10_000).expect("figure 1 evaluates");
    println!(
        "E4: ni lower bound has {} tuples; unknown interpretation: {} sure, {} maybe \
         ({} tautology checks, {} assignments)",
        ni.len(),
        unknown.sure.len(),
        unknown.maybe.len(),
        unknown.stats.tautology_checks,
        unknown.stats.assignments
    );
    assert!(ni.is_empty(), "Table II has no telephone numbers yet");

    let mut group = c.benchmark_group("e4_figure1");
    group.bench_function("ni_lower_bound", |b| {
        b.iter(|| {
            run(
                black_box(&db),
                FIGURE_1_QUERY,
                Truth::True,
                OptimizeOptions::default(),
            )
            .unwrap()
        })
    });
    group.bench_function("unknown_interpretation_with_tautology_checks", |b| {
        b.iter(|| execute_unknown(black_box(&db), FIGURE_1_QUERY, &[], 10_000).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(400));
    targets = bench_e4
}
criterion_main!(benches);
