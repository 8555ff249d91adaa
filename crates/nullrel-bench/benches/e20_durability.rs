//! Experiment E20: the cost of durability, and the speed of recovery.
//!
//! Two questions the PR's WAL + snapshot layer must answer with numbers:
//!
//! 1. **What does logging cost on the insert hot path?** Sustained
//!    batched inserts through `commit_ops`, WAL on (a real `wal.log`,
//!    `FsyncMode::Off` so the measurement is the serialization and
//!    write cost rather than device sync latency) vs WAL off (purely
//!    in-memory versioning). Reported as `wal_insert_ratio` — a gated,
//!    lower-is-better reading in the CI perf gate.
//! 2. **How fast does a crash recover?** A data directory holding 100k
//!    logged inserts is reopened cold; the replay wall-clock is the
//!    `recovery_us` reading (informational — absolute timings never
//!    gate), with `records_recovered` asserting the replay was whole.
//!
//! With `NULLREL_BENCH_ARTIFACT_DIR` set, writes `BENCH_e20.json` for
//! `bench_compare` (baseline in `crates/nullrel-bench/baselines/`).

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nullrel_core::value::Value;
use nullrel_storage::{ColumnSpec, FsyncMode, LogicalOp, TableSpec, VersionedDatabase};

/// Rows per throughput sample. Keyless table: keyed inserts pay an O(n)
/// uniqueness scan that would swamp the logging cost being measured.
const THROUGHPUT_ROWS: usize = 20_000;

/// Ops batched into one commit (= one WAL record). Matches how a loader
/// or ingest path would batch; per-commit copy-on-write costs amortize.
const BATCH: usize = 500;

/// Rows in the recovery corpus.
const RECOVERY_ROWS: usize = 100_000;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nullrel-e20-{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn create_table_op() -> LogicalOp {
    LogicalOp::CreateTable(TableSpec {
        name: "T".into(),
        columns: vec![
            ColumnSpec {
                name: "K".into(),
                domain: None,
                nullable: false,
            },
            ColumnSpec {
                name: "V".into(),
                domain: None,
                nullable: true,
            },
        ],
        key: vec![],
    })
}

/// One batch of insert ops starting at row `base`; every 7th row leaves
/// V as `ni`, so the statistics maintenance (null counts, reservoir,
/// histograms) runs exactly as it would on paper-shaped data.
fn insert_batch(base: usize, len: usize) -> Vec<LogicalOp> {
    (base..base + len)
        .map(|i| {
            let mut cells = vec![("K".to_string(), Value::int(i as i64))];
            if i % 7 != 0 {
                cells.push(("V".to_string(), Value::int((i % 97) as i64)));
            }
            LogicalOp::Insert {
                table: "T".into(),
                cells,
            }
        })
        .collect()
}

fn insert_all(vdb: &VersionedDatabase, rows: usize) {
    let mut i = 0;
    while i < rows {
        let len = BATCH.min(rows - i);
        vdb.commit_ops(&insert_batch(i, len)).expect("insert batch");
        i += len;
    }
}

/// Minimum wall-clock over `samples` runs of `f` (each run gets a fresh
/// database via `make`).
fn min_time(samples: usize, mut make: impl FnMut() -> VersionedDatabase) -> Duration {
    (0..samples)
        .map(|_| {
            let vdb = make();
            let start = Instant::now();
            insert_all(&vdb, THROUGHPUT_ROWS);
            let elapsed = start.elapsed();
            black_box(vdb.epoch());
            elapsed
        })
        .min()
        .expect("at least one sample")
}

/// Writes the `BENCH_e20.json` artifact if the artifact dir is set.
fn write_artifact(wal_insert_ratio: f64, recovery_us: u64, records_recovered: u64) {
    let Ok(dir) = std::env::var("NULLREL_BENCH_ARTIFACT_DIR") else {
        return;
    };
    std::fs::create_dir_all(&dir).expect("artifact dir creatable");
    let path = std::path::Path::new(&dir).join("BENCH_e20.json");
    let body = format!(
        "{{\n  \"bench\": \"e20\",\n  \"wal_insert_ratio\": {wal_insert_ratio:.4},\n  \
         \"recovery_us\": {recovery_us},\n  \"records_recovered\": {records_recovered},\n  \
         \"metrics\": {}\n}}\n",
        nullrel_obs::metrics::snapshot().to_json()
    );
    std::fs::write(&path, body).expect("artifact writable");
    println!("E20: wrote {}", path.display());
}

fn bench_e20(c: &mut Criterion) {
    let mut group = c.benchmark_group("e20_durability");

    // ----- Insert throughput: WAL off vs WAL on. Snapshot threshold at
    // u64::MAX so the comparison is pure log-append (snapshots have
    // their own cost model and cadence).
    let base = min_time(3, || {
        let vdb = VersionedDatabase::new(Default::default());
        vdb.commit_ops(std::slice::from_ref(&create_table_op()))
            .expect("create table");
        vdb
    });
    let wal_dir = scratch("throughput");
    let logged = min_time(3, || {
        let _ = std::fs::remove_dir_all(&wal_dir);
        let vdb = VersionedDatabase::open_with(&wal_dir, FsyncMode::Off, u64::MAX)
            .expect("open data dir");
        vdb.commit_ops(std::slice::from_ref(&create_table_op()))
            .expect("create table");
        vdb
    });
    let wal_insert_ratio = logged.as_secs_f64() / base.as_secs_f64().max(1e-9);
    println!(
        "E20 insert throughput ({THROUGHPUT_ROWS} rows, batches of {BATCH}): \
         in-memory {base:.3?}, WAL {logged:.3?} — {wal_insert_ratio:.4}×"
    );
    let _ = std::fs::remove_dir_all(&wal_dir);

    // ----- Recovery: replay 100k logged inserts cold.
    let dir = scratch("recovery");
    {
        let vdb =
            VersionedDatabase::open_with(&dir, FsyncMode::Off, u64::MAX).expect("open data dir");
        vdb.commit_ops(std::slice::from_ref(&create_table_op()))
            .expect("create table");
        insert_all(&vdb, RECOVERY_ROWS);
    } // dropped without a snapshot: recovery replays the whole log

    let mut recovery = Duration::MAX;
    let mut recovered_rows = 0u64;
    for _ in 0..3 {
        let start = Instant::now();
        let vdb = VersionedDatabase::open_with(&dir, FsyncMode::Off, u64::MAX).expect("recover");
        let elapsed = start.elapsed();
        recovered_rows = vdb.pin().db().table("T").expect("replayed table").len() as u64;
        recovery = recovery.min(elapsed);
    }
    assert_eq!(
        recovered_rows, RECOVERY_ROWS as u64,
        "recovery must replay every logged insert"
    );
    let recovery_us = recovery.as_micros() as u64;
    println!(
        "E20 recovery: {RECOVERY_ROWS} records in {recovery:.3?} \
         ({:.0} rows/s)",
        recovered_rows as f64 / recovery.as_secs_f64().max(1e-9)
    );
    let _ = std::fs::remove_dir_all(&dir);

    write_artifact(wal_insert_ratio, recovery_us, recovered_rows);

    // Criterion timeline for the logged insert path (one batch per
    // iteration against a persistent database), for the report.
    let tl_dir = scratch("timeline");
    let vdb = VersionedDatabase::open_with(&tl_dir, FsyncMode::Off, u64::MAX).expect("open");
    vdb.commit_ops(std::slice::from_ref(&create_table_op()))
        .expect("create table");
    let mut next = 0usize;
    group.bench_with_input(
        BenchmarkId::new("logged_insert_batch", BATCH),
        &BATCH,
        |b, _| {
            b.iter(|| {
                vdb.commit_ops(&insert_batch(next, BATCH)).expect("batch");
                next += BATCH;
            })
        },
    );
    group.finish();
    drop(vdb);
    let _ = std::fs::remove_dir_all(&tl_dir);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(400));
    targets = bench_e20
}
criterion_main!(benches);
