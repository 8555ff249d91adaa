//! Experiment E19: the cost of the always-on flight recorder.
//!
//! The recorder is the one observability layer that is **on by default**
//! (`NULLREL_RECORDER=0` opts out), so its budget is tighter than the
//! opt-in tracer's: recording must cost **under 2%** wall-clock on the
//! e12 self-join (serial, through the full query entry point where the
//! begin/annotate/finish hooks all fire) and on the e14 star join
//! (4 threads, engine path under an explicit query scope). This bench
//! measures both enabled-vs-disabled and asserts the bound — the CI
//! perf gate's companion to `e16_tracing_overhead`.
//!
//! With `NULLREL_BENCH_ARTIFACT_DIR` set, a `BENCH_e19.json` artifact
//! (same shape as e12/e14: timings + ratio + metrics) is written for the
//! regression-compare tool.

use std::hint::black_box;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nullrel_core::algebra::Expr;
use nullrel_core::predicate::Predicate;
use nullrel_core::tvl::{CompareOp, Truth};
use nullrel_core::universe::AttrId;
use nullrel_core::value::Value;
use nullrel_exec::{execute, OptimizeOptions, Parallelism};
use nullrel_obs::recorder;
use nullrel_storage::{Database, SchemaBuilder};

const JOIN_QUERY: &str = "range of e is EMP range of m is EMP retrieve (e.NAME) \
                          where m.SEX = \"M\" and e.MGR# = m.E#";

/// The overhead bound the PR asserts: recording / disabled < 1.02.
const MAX_OVERHEAD: f64 = 1.02;

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

/// Measures `f` with recording disabled and enabled, returning
/// `(disabled, enabled)` minimums — and asserts the enabled runs
/// actually recorded (an accidentally-dead recorder would "win" every
/// overhead comparison).
fn measure_pair(samples: usize, mut f: impl FnMut()) -> (Duration, Duration) {
    recorder::set_recording(false);
    let base = min_time(samples, &mut f);
    recorder::set_recording(true);
    let before = recorder::stats().recorded;
    let recorded = min_time(samples, &mut f);
    assert!(
        recorder::stats().recorded >= before + samples as u64,
        "recorder captured every enabled run"
    );
    recorder::set_recording(false);
    (base, recorded)
}

/// Asserts the <2% bound, re-measuring up to `attempts` times so one noisy
/// scheduling window on a shared runner cannot fail the build, and
/// returning the best `(disabled, enabled, ratio)` observed.
fn assert_overhead(
    name: &str,
    samples: usize,
    attempts: usize,
    mut f: impl FnMut(),
) -> (Duration, Duration, f64) {
    let mut best: Option<(Duration, Duration, f64)> = None;
    for attempt in 0..attempts {
        let (base, recorded) = measure_pair(samples, &mut f);
        let ratio = recorded.as_secs_f64() / base.as_secs_f64().max(1e-9);
        if best.is_none_or(|(_, _, r)| ratio < r) {
            best = Some((base, recorded, ratio));
        }
        println!(
            "E19 {name} attempt {attempt}: disabled {base:.3?} vs recording {recorded:.3?} \
             — {ratio:.4}×"
        );
        if ratio < MAX_OVERHEAD {
            break;
        }
    }
    let (base, recorded, ratio) = best.expect("at least one attempt");
    assert!(
        ratio < MAX_OVERHEAD,
        "{name}: recorder overhead {ratio:.4}× exceeds the {MAX_OVERHEAD}× bound \
         (disabled {base:?}, recording {recorded:?})"
    );
    (base, recorded, ratio)
}

/// Writes the `BENCH_e19.json` artifact if the artifact dir is set.
fn write_artifact(e12_ratio: f64, e14_ratio: f64) {
    let Ok(dir) = std::env::var("NULLREL_BENCH_ARTIFACT_DIR") else {
        return;
    };
    std::fs::create_dir_all(&dir).expect("artifact dir creatable");
    let path = std::path::Path::new(&dir).join("BENCH_e19.json");
    let body = format!(
        "{{\n  \"bench\": \"e19\",\n  \"e12_recorder_ratio\": {e12_ratio:.4},\n  \
         \"e14_recorder_ratio\": {e14_ratio:.4},\n  \"metrics\": {}\n}}\n",
        nullrel_obs::metrics::snapshot().to_json()
    );
    std::fs::write(&path, body).expect("artifact writable");
    println!("E19: wrote {}", path.display());
}

fn bench_e19(c: &mut Criterion) {
    let mut group = c.benchmark_group("e19_recorder_overhead");

    // ----- e12 self-join, serial, through the full query entry point:
    // parse, plan, fingerprint, annotate, and the finish fold all fire.
    let db = emp_database(2_000);
    let opts = options(1);
    let run_e12 = || {
        black_box(nullrel_query::run(&db, JOIN_QUERY, Truth::True, opts).unwrap());
    };
    let (_, _, e12_ratio) = assert_overhead("e12_self_join", 9, 4, run_e12);

    // ----- e14 star join, 4 threads, engine path under a query scope
    // (the recorder's begin/finish bracket what a served session does).
    let star = star_db(1_000);
    let plan = star_plan(&star);
    let run_e14 = || {
        let trace = nullrel_obs::begin_query("e19 star join");
        black_box(execute(&plan, &star, star.universe(), Truth::True, options(4)).unwrap());
        drop(trace);
    };
    let (_, _, e14_ratio) = assert_overhead("e14_star_threads4", 9, 4, run_e14);
    write_artifact(e12_ratio, e14_ratio);

    // Criterion timelines for the two states, for the report.
    group.bench_with_input(BenchmarkId::new("e12_disabled", 2_000), &db, |b, _| {
        recorder::set_recording(false);
        b.iter(run_e12)
    });
    group.bench_with_input(BenchmarkId::new("e12_recording", 2_000), &db, |b, _| {
        recorder::set_recording(true);
        b.iter(run_e12);
        recorder::set_recording(false);
    });
    group.finish();
    recorder::set_recording(true);
    recorder::reset();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(400));
    targets = bench_e19
}
criterion_main!(benches);
