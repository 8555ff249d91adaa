//! Experiment E12: the pipelined physical engine versus the seed's naive
//! `Project(Select(Product))` tree-walk on the paper's workload shapes.
//!
//! The workload is Figure 2 scaled up: an `EMP` relation with `n`
//! employees (a fraction of them with a null `MGR#`, as Table II's
//! schema-evolution story produces) and the self equi-join
//! `e.MGR# = m.E#`. The naive plan pays the full `n²` Cartesian product;
//! the engine builds a hash table on one side and probes it with the
//! other, and the index-selected point query touches only matching rows.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nullrel_core::algebra::NoSource;
use nullrel_core::tvl::Truth;
use nullrel_core::value::Value;
use nullrel_exec::{execute, OptimizeOptions};
use nullrel_query::plan::plan;
use nullrel_query::{execute_resolved_naive, parse, resolve, run};
use nullrel_storage::{Database, SchemaBuilder};

const JOIN_QUERY: &str = "range of e is EMP range of m is EMP retrieve (e.NAME) \
                          where m.SEX = \"M\" and e.MGR# = m.E#";

fn emp_database(n: usize) -> Database {
    let mut db = Database::new();
    db.create_table(
        SchemaBuilder::new("EMP")
            .required_column("E#")
            .column("NAME")
            .column("SEX")
            .column("MGR#")
            .key(&["E#"]),
    )
    .expect("fresh database");
    let u = db.universe().clone();
    let t = db.table_mut("EMP").expect("just created");
    for i in 0..n {
        let mut cells = vec![
            ("E#", Value::int(i as i64)),
            ("NAME", Value::str(format!("EMP{i}"))),
            ("SEX", Value::str(if i % 2 == 0 { "M" } else { "F" })),
        ];
        // Every 7th employee has an unknown manager (ni), as after the
        // paper's schema evolution; the rest report to i/3.
        if i % 7 != 0 {
            cells.push(("MGR#", Value::int((i / 3) as i64)));
        }
        t.insert_named(&u, &cells).expect("valid row");
    }
    db
}

fn bench_e12(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_physical_vs_naive");
    for n in [50usize, 200] {
        let db = emp_database(n);
        let resolved = resolve(&db, &parse(JOIN_QUERY).expect("parses")).expect("resolves");

        // Differential check before measuring: same minimal x-relation,
        // and the engine really uses a hash join.
        let naive = execute_resolved_naive(&resolved).expect("naive evaluates");
        let engine = run(&db, JOIN_QUERY, Truth::True, OptimizeOptions::default())
            .expect("engine evaluates");
        assert_eq!(naive.rows, engine.rows, "engine must agree with the oracle");
        assert!(
            engine.stats.used_hash_join(),
            "expected a hash join:\n{}",
            engine.physical_plan()
        );
        println!(
            "E12 n={n}: {} result tuples; naive examines {} product pairs, \
             engine probes a {}-row hash table",
            engine.len(),
            n * n,
            engine.stats.ops.iter().map(|o| o.build_rows).sum::<usize>()
        );

        group.bench_with_input(
            BenchmarkId::new("naive_product_select", n),
            &resolved,
            |b, resolved| b.iter(|| execute_resolved_naive(black_box(resolved)).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("physical_pipeline_literal", n),
            &resolved,
            |b, resolved| {
                b.iter(|| {
                    let resolved = black_box(resolved);
                    let options = OptimizeOptions::default();
                    execute(
                        &plan(resolved),
                        &NoSource,
                        &resolved.universe,
                        Truth::True,
                        options,
                    )
                    .unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("physical_pipeline_catalog", n),
            &db,
            |b, db| {
                b.iter(|| {
                    run(
                        black_box(db),
                        JOIN_QUERY,
                        Truth::True,
                        OptimizeOptions::default(),
                    )
                    .unwrap()
                })
            },
        );
    }

    // Index selection on a point query: catalog access path vs full scan.
    let mut db = emp_database(1_000);
    let point = "range of e is EMP retrieve (e.NAME) where e.E# = 777";
    group.bench_with_input(BenchmarkId::new("point_query_scan", 1_000), &db, |b, db| {
        b.iter(|| {
            run(
                black_box(db),
                point,
                Truth::True,
                OptimizeOptions::default(),
            )
            .unwrap()
        })
    });
    let e_no = db.universe().lookup("E#").expect("interned");
    db.table_mut("EMP")
        .expect("exists")
        .create_index(vec![e_no])
        .expect("indexable");
    let indexed = run(&db, point, Truth::True, OptimizeOptions::default()).expect("evaluates");
    assert!(indexed.stats.used_index());
    group.bench_with_input(
        BenchmarkId::new("point_query_index", 1_000),
        &db,
        |b, db| {
            b.iter(|| {
                run(
                    black_box(db),
                    point,
                    Truth::True,
                    OptimizeOptions::default(),
                )
                .unwrap()
            })
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(400));
    targets = bench_e12
}
criterion_main!(benches);
