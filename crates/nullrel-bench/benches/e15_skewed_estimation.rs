//! Experiment E15: skewed estimation — equi-depth histograms versus
//! min/max interpolation, and adaptive re-optimization versus the static
//! mis-estimated plan.
//!
//! Two acceptance criteria (PR 5):
//!
//! * on a Zipf-skewed Figure-2-style column, histogram-based selectivity
//!   cuts the estimator's mean q-error by **≥ 3×** against the min/max
//!   interpolator (measured over a battery of range and equality
//!   predicates, both estimators reading the *same* catalog statistics —
//!   the baseline goes through [`StripHistograms`]);
//! * on a pessimally-estimated star join — the fact-building join's skew
//!   rides on **string** keys, which carry no histograms, so the static
//!   plan underestimates it ~4× and then pays a blown-up downstream hash
//!   join — adaptive re-optimization (`OptimizeOptions::adaptive`)
//!   detects the miss at the first pipeline break, re-plans the remaining
//!   joins against the materialized intermediate's **exact** statistics
//!   (whose numeric histograms prove the selective dimension disjoint),
//!   and beats the static plan **≥ 2×** end-to-end.

use std::hint::black_box;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use nullrel_core::algebra::Expr;
use nullrel_core::predicate::Predicate;
use nullrel_core::tvl::{CompareOp, Truth};
use nullrel_core::universe::attr_set;
use nullrel_core::value::Value;
use nullrel_exec::{execute, OptimizeOptions, Parallelism};
use nullrel_stats::estimate::selectivity;
use nullrel_stats::{Estimator, StripHistograms};
use nullrel_storage::{Database, SchemaBuilder};

fn options(adaptive: Option<f64>) -> OptimizeOptions {
    OptimizeOptions {
        adaptive,
        parallelism: Parallelism::Serial,
        ..OptimizeOptions::default()
    }
}

/// Median wall-clock of `samples` runs of `f`.
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

// ---------------------------------------------------------------------
// Part A: Zipf-skewed selectivity estimation
// ---------------------------------------------------------------------

/// A Zipf-skewed numeric column: value `r` appears ~`600/r` times for
/// ranks 1..=50, plus outliers at 100 000 that stretch the min/max range
/// three orders of magnitude past the body.
fn zipf_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        SchemaBuilder::new("Z")
            .required_column("ZID")
            .column("X")
            .key(&["ZID"]),
    )
    .expect("fresh database");
    let u = db.universe().clone();
    let t = db.table_mut("Z").expect("just created");
    let mut id = 0i64;
    for r in 1i64..=50 {
        for _ in 0..(600 / r).max(1) {
            t.insert_named(&u, &[("ZID", Value::int(id)), ("X", Value::int(r))])
                .expect("valid row");
            id += 1;
        }
    }
    for _ in 0..3 {
        t.insert_named(&u, &[("ZID", Value::int(id)), ("X", Value::int(100_000))])
            .expect("valid row");
        id += 1;
    }
    db
}

fn mean_q_error(db: &Database) -> (f64, f64) {
    let u = db.universe().clone();
    let x = u.lookup("X").unwrap();
    let rows: Vec<_> = db.table("Z").unwrap().rows().cloned().collect();
    let n = rows.len() as f64;
    let mut preds = Vec::new();
    for c in [1i64, 2, 3, 5, 8, 13, 21, 34, 50] {
        preds.push(Predicate::attr_const(x, CompareOp::Le, c));
        preds.push(Predicate::attr_const(x, CompareOp::Gt, c));
    }
    for c in 1i64..=10 {
        preds.push(Predicate::attr_const(x, CompareOp::Eq, c));
    }
    let plan = Expr::named("Z");
    let with_hist = Estimator::new(db).estimate(&plan);
    let stripped = StripHistograms(db);
    let without = Estimator::new(&stripped).estimate(&plan);
    let q = |sel: f64, exact: f64| {
        let est = (sel * n).max(1.0);
        let act = (exact * n).max(1.0);
        est.max(act) / est.min(act)
    };
    let mut hist_total = 0.0;
    let mut interp_total = 0.0;
    for p in &preds {
        let exact = rows
            .iter()
            .filter(|t| p.eval(t).map(|v| v.is_true()).unwrap_or(false))
            .count() as f64
            / n;
        hist_total += q(selectivity(p, &with_hist), exact);
        interp_total += q(selectivity(p, &without), exact);
    }
    let k = preds.len() as f64;
    (hist_total / k, interp_total / k)
}

// ---------------------------------------------------------------------
// Part B: the pessimally-estimated star join
// ---------------------------------------------------------------------

/// The star: R's **string** join keys hide the skew from the estimator.
///
/// * `R` (200 rows): 4 "hot" rows (`A = "hot"`, `D = "zero"`, `E = 777`)
///   and 196 tail rows with unique `A`, `D` cycling 20 values, and
///   `E = 3` — so `R.A` reads as 197-distinct and the equality to `S.A`
///   is estimated at `1/197` when in truth the hot rows match all of `S`;
/// * `S` (400 rows): every row `A = "hot"` — the hot intermediate carries
///   `D = "zero"`, `E = 777` on every row, ~4× the static estimate;
/// * `B` (200 rows): 40 rows `D = "zero"` (the blow-up: the hot
///   intermediate fans out 40× — a 64 000-row stream if `SH` has not run
///   yet) and 160 tail rows on disjoint values;
/// * `SH` (100 rows): 60 rows `E = 3` plus 40 unique values — statically
///   its histogram *overlaps `R.E` heavily* (the 0.98 mass at 3 times the
///   0.6 mass at 3 reads as a ~24× fan-out), so the optimizer provably
///   defers it; in truth the hot intermediate's `E = 777` never appears
///   in `SH`, which only the **materialized** literal's histogram proves.
///
/// The static plan therefore pays the 64 000-row stream before `SH` kills
/// it; adaptive execution triggers on the first stage's q-error (> 2 in
/// every order the enumerator can pick), re-plans with the intermediate's
/// exact statistics, joins `SH` immediately — estimated (correctly) at
/// zero via histogram disjointness — and never builds the blow-up.
fn star_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        SchemaBuilder::new("R")
            .required_column("RID")
            .column("A")
            .column("D")
            .column("E")
            .key(&["RID"]),
    )
    .expect("fresh database");
    db.create_table(
        SchemaBuilder::new("S")
            .required_column("SID")
            .column("SA")
            .key(&["SID"]),
    )
    .expect("fresh database");
    db.create_table(
        SchemaBuilder::new("B")
            .required_column("BID")
            .column("BD")
            .key(&["BID"]),
    )
    .expect("fresh database");
    db.create_table(
        SchemaBuilder::new("SH")
            .required_column("HID")
            .column("HE")
            .key(&["HID"]),
    )
    .expect("fresh database");
    let u = db.universe().clone();
    let t = db.table_mut("R").expect("just created");
    for i in 0..200i64 {
        let (a, d, e) = if i < 4 {
            ("hot".to_owned(), "zero".to_owned(), 777i64)
        } else {
            (format!("a{i}"), format!("t{}", i % 20), 3i64)
        };
        t.insert_named(
            &u,
            &[
                ("RID", Value::int(i)),
                ("A", Value::str(a)),
                ("D", Value::str(d)),
                ("E", Value::int(e)),
            ],
        )
        .expect("valid row");
    }
    let t = db.table_mut("S").expect("just created");
    for i in 0..400i64 {
        t.insert_named(&u, &[("SID", Value::int(i)), ("SA", Value::str("hot"))])
            .expect("valid row");
    }
    let t = db.table_mut("B").expect("just created");
    for i in 0..200i64 {
        let d = if i < 40 {
            "zero".to_owned()
        } else {
            format!("x{}", i % 20)
        };
        t.insert_named(&u, &[("BID", Value::int(i)), ("BD", Value::str(d))])
            .expect("valid row");
    }
    let t = db.table_mut("SH").expect("just created");
    for i in 0..100i64 {
        let e = if i < 60 { 3 } else { 1000 + i };
        t.insert_named(&u, &[("HID", Value::int(i)), ("HE", Value::int(e))])
            .expect("valid row");
    }
    db
}

fn star_plan(db: &Database) -> Expr {
    let u = db.universe();
    let a = u.lookup("A").unwrap();
    let sa = u.lookup("SA").unwrap();
    let d = u.lookup("D").unwrap();
    let bd = u.lookup("BD").unwrap();
    let e = u.lookup("E").unwrap();
    let he = u.lookup("HE").unwrap();
    let rid = u.lookup("RID").unwrap();
    Expr::named("R")
        .product(Expr::named("S"))
        .product(Expr::named("B"))
        .product(Expr::named("SH"))
        .select(
            Predicate::attr_attr(a, CompareOp::Eq, sa)
                .and(Predicate::attr_attr(d, CompareOp::Eq, bd))
                .and(Predicate::attr_attr(e, CompareOp::Eq, he)),
        )
        .project(attr_set([rid]))
}

fn bench_e15(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_skewed_estimation");

    // ----- Part A: mean q-error, histograms vs min/max interpolation -----
    let zdb = zipf_db();
    let (hist_q, interp_q) = mean_q_error(&zdb);
    println!(
        "E15 zipf estimation: mean q-error {hist_q:.2} with histograms vs \
         {interp_q:.2} with min/max interpolation — {:.1}× reduction",
        interp_q / hist_q
    );
    assert!(
        interp_q >= 3.0 * hist_q,
        "histograms must cut mean q-error ≥ 3× on the Zipf workload \
         (got {hist_q:.2} vs {interp_q:.2})"
    );
    group.bench_function("zipf_q_error", |b| {
        b.iter(|| black_box(mean_q_error(black_box(&zdb))))
    });

    // ----- Part B: adaptive re-optimization rescues the star join -----
    let db = star_db();
    let plan = star_plan(&db);
    let u = db.universe().clone();
    let (static_res, static_stats) =
        execute(&plan, &db, &u, Truth::True, options(None)).expect("static plan runs");
    let (adaptive_res, adaptive_stats) =
        execute(&plan, &db, &u, Truth::True, options(Some(2.0))).expect("adaptive plan runs");
    assert_eq!(
        adaptive_res, static_res,
        "adaptive and static plans must agree\nstatic:\n{static_stats}\nadaptive:\n{adaptive_stats}"
    );
    assert!(
        adaptive_stats.reoptimized(),
        "the hot-key join misses its estimate ~4×, past the threshold:\n{adaptive_stats}"
    );
    // The static plan pays the blown-up intermediate; the re-planned one
    // proves the selective dimension disjoint (via the materialized
    // literal's histogram) and joins it first.
    let static_moved: usize = static_stats.ops.iter().map(|o| o.rows_out).sum();
    let adaptive_moved: usize = adaptive_stats.ops.iter().map(|o| o.rows_out).sum();
    println!(
        "E15 star: static plan moved {static_moved} rows vs adaptive {adaptive_moved} \
         ({} re-opt event(s))",
        adaptive_stats.reopts.len()
    );
    assert!(
        static_moved >= 2 * adaptive_moved,
        "re-optimization must avoid the blown-up intermediate: \
         static moved {static_moved} rows, adaptive {adaptive_moved}"
    );

    let measure = || {
        let static_t = median(5, || {
            black_box(execute(&plan, &db, &u, Truth::True, options(None)).unwrap());
        });
        let adaptive_t = median(5, || {
            black_box(execute(&plan, &db, &u, Truth::True, options(Some(2.0))).unwrap());
        });
        (static_t, adaptive_t)
    };
    let (mut static_t, mut adaptive_t) = measure();
    let mut ratio = static_t.as_secs_f64() / adaptive_t.as_secs_f64().max(1e-9);
    // One clean re-measure before believing a below-bar wall-clock ratio
    // (shared runners jitter), mirroring e14's protocol.
    if ratio < 2.0 {
        (static_t, adaptive_t) = measure();
        ratio = static_t.as_secs_f64() / adaptive_t.as_secs_f64().max(1e-9);
    }
    println!(
        "E15 star: static {static_t:.3?} vs adaptive {adaptive_t:.3?} — {ratio:.1}× \
         end-to-end"
    );
    assert!(
        ratio >= 2.0,
        "adaptive re-optimization must beat the static mis-estimated plan ≥ 2× \
         end-to-end (got {ratio:.2}×)"
    );

    group.bench_function("star_static", |b| {
        b.iter(|| execute(&plan, black_box(&db), &u, Truth::True, options(None)).unwrap())
    });
    group.bench_function("star_adaptive", |b| {
        b.iter(|| execute(&plan, black_box(&db), &u, Truth::True, options(Some(2.0))).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(400));
    targets = bench_e15
}
criterion_main!(benches);
