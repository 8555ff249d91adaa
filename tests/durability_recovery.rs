//! Kill-and-replay differential tests for the durability layer (PR 10).
//!
//! Each test drives a mixed logical workload (DDL, inserts with `ni`
//! cells, updates, deletes, schema evolution, index creation) through
//! [`VersionedDatabase::commit_ops`], "kills" the process by dropping the
//! handle, reopens the same data directory, and asserts the recovered
//! database is **identical** to the live one: table schemas, rows, index
//! definitions, statistics (histograms included), the schema version, the
//! epoch — and the query results in both the TRUE and the MAYBE truth
//! band. A torn mid-commit tail (the crash the WAL exists for) must be
//! discarded cleanly: recovery lands on the last fully acknowledged
//! commit and keeps accepting new ones.

use std::path::PathBuf;

use nullrel::core::algebra::select::{select, select_maybe};
use nullrel::core::prelude::*;
use nullrel::storage::{persist, ColumnSpec, Database, FsyncMode, LogicalOp, TableSpec};
use nullrel::storage::{StorageResult, VersionedDatabase};

/// A fresh, empty scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nullrel-durability-{}-{}",
        name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn col(name: &str) -> ColumnSpec {
    ColumnSpec {
        name: name.into(),
        domain: None,
        nullable: true,
    }
}

fn req(name: &str) -> ColumnSpec {
    ColumnSpec {
        name: name.into(),
        domain: None,
        nullable: false,
    }
}

fn insert(table: &str, cells: &[(&str, Value)]) -> LogicalOp {
    LogicalOp::Insert {
        table: table.into(),
        cells: cells
            .iter()
            .map(|(c, v)| (c.to_string(), v.clone()))
            .collect(),
    }
}

/// The mixed workload, split into the commits a live session would issue.
/// It exercises every op kind that matters for replay fidelity: keyed and
/// keyless tables, rows with `ni` cells, multibyte strings, an index, the
/// paper's add-a-column evolution, updates that both set and null cells,
/// and a delete.
fn workload() -> Vec<Vec<LogicalOp>> {
    vec![
        vec![
            LogicalOp::CreateTable(TableSpec {
                name: "EMP".into(),
                columns: vec![req("E#"), col("NAME"), col("SAL")],
                key: vec!["E#".into()],
            }),
            LogicalOp::CreateTable(TableSpec {
                name: "DEPT".into(),
                columns: vec![col("D#"), col("CITY")],
                key: vec![],
            }),
        ],
        vec![
            insert(
                "EMP",
                &[
                    ("E#", Value::int(1)),
                    ("NAME", Value::str("alice")),
                    ("SAL", Value::int(10)),
                ],
            ),
            // SAL absent: reads ni — the MAYBE band of `SAL = 10` must
            // pick this row up identically after recovery.
            insert(
                "EMP",
                &[("E#", Value::int(2)), ("NAME", Value::str("björk"))],
            ),
            insert("EMP", &[("E#", Value::int(3))]),
            insert(
                "DEPT",
                &[("D#", Value::int(1)), ("CITY", Value::str("zürich"))],
            ),
            insert("DEPT", &[("CITY", Value::str("limbo"))]),
        ],
        vec![
            LogicalOp::CreateIndex {
                table: "EMP".into(),
                columns: vec!["E#".into()],
            },
            LogicalOp::AddColumn {
                table: "EMP".into(),
                column: "DEPT#".into(),
                domain: None,
            },
        ],
        vec![
            LogicalOp::Update {
                table: "EMP".into(),
                column: "E#".into(),
                op: CompareOp::Eq,
                value: Value::int(1),
                changes: vec![
                    ("SAL".into(), Some(Value::int(11))),
                    ("DEPT#".into(), Some(Value::int(7))),
                ],
            },
            // Nulling a cell out must also replay: NAME becomes ni.
            LogicalOp::Update {
                table: "EMP".into(),
                column: "E#".into(),
                op: CompareOp::Eq,
                value: Value::int(2),
                changes: vec![("NAME".into(), None)],
            },
            LogicalOp::Delete {
                table: "DEPT".into(),
                column: "D#".into(),
                op: CompareOp::Eq,
                value: Value::int(1),
            },
            insert("EMP", &[("E#", Value::int(4)), ("SAL", Value::int(10))]),
        ],
    ]
}

fn run_workload(vdb: &VersionedDatabase) -> StorageResult<u64> {
    let mut epoch = 0;
    for commit in workload() {
        let (e, _) = vdb.commit_ops(&commit)?;
        epoch = e;
    }
    Ok(epoch)
}

/// The full differential: schemas, rows, indexes, statistics — histograms
/// ride inside [`Table::statistics`] — and the schema version.
fn assert_same_database(live: &Database, recovered: &Database) {
    assert_eq!(live.table_names(), recovered.table_names());
    assert_eq!(
        live.schema_version(),
        recovered.schema_version(),
        "schema version must survive recovery (prepared-plan invalidation)"
    );
    for name in live.table_names() {
        let a = live.table(name).unwrap();
        let b = recovered.table(name).unwrap();
        assert_eq!(a.schema(), b.schema(), "schema of {name}");
        assert_eq!(a.rows_slice(), b.rows_slice(), "rows of {name}");
        let a_idx: Vec<_> = a.indexes().iter().map(|i| i.attrs().to_vec()).collect();
        let b_idx: Vec<_> = b.indexes().iter().map(|i| i.attrs().to_vec()).collect();
        assert_eq!(a_idx, b_idx, "index definitions of {name}");
        assert_eq!(
            a.statistics(),
            b.statistics(),
            "statistics (incl. histograms) of {name}"
        );
    }
}

/// Both truth bands of `column = value` must answer identically on the
/// live and the recovered table.
fn assert_same_bands(
    live: &Database,
    recovered: &Database,
    table: &str,
    column: &str,
    value: Value,
) {
    let attr = live.universe().lookup(column).unwrap();
    assert_eq!(
        recovered.universe().lookup(column),
        Some(attr),
        "recovery must re-intern attributes in the original order"
    );
    let pred = Predicate::attr_const(attr, CompareOp::Eq, value);
    let a = live.table(table).unwrap().to_xrelation();
    let b = recovered.table(table).unwrap().to_xrelation();
    assert_eq!(select(&a, &pred).unwrap(), select(&b, &pred).unwrap());
    assert_eq!(
        select_maybe(&a, &pred).unwrap(),
        select_maybe(&b, &pred).unwrap()
    );
}

/// Kill (drop) after WAL-only commits; the replayed database is the live
/// one, bit for bit, in both truth bands.
#[test]
fn wal_replay_reproduces_the_live_database() {
    let dir = scratch("wal-replay");
    let vdb = VersionedDatabase::open_with(&dir, FsyncMode::Off, u64::MAX).unwrap();
    let epoch = run_workload(&vdb).unwrap();
    let live = vdb.pin();
    drop(vdb);

    let reopened = VersionedDatabase::open_with(&dir, FsyncMode::Off, u64::MAX).unwrap();
    assert_eq!(reopened.epoch(), epoch);
    let recovered = reopened.pin();
    assert_same_database(live.db(), recovered.db());
    assert_same_bands(live.db(), recovered.db(), "EMP", "SAL", Value::int(10));
    assert_same_bands(
        live.db(),
        recovered.db(),
        "DEPT",
        "CITY",
        Value::str("zürich"),
    );

    // Sanity that the differential is not vacuous: the ni-SAL rows make
    // the MAYBE band of `SAL = 10` strictly wider than the TRUE band.
    let sal = recovered.db().universe().lookup("SAL").unwrap();
    let pred = Predicate::attr_const(sal, CompareOp::Eq, Value::int(10));
    let emp = recovered.db().table("EMP").unwrap().to_xrelation();
    let sure = select(&emp, &pred).unwrap();
    let maybe = select_maybe(&emp, &pred).unwrap();
    assert!(maybe.len() > sure.len(), "ni rows must surface in MAYBE");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill after a forced snapshot plus further WAL commits: recovery is
/// snapshot + tail replay, and must land on the same state as pure replay
/// would — statistics reservoirs included, which is why the snapshot
/// persists the collector's exact accumulator state.
#[test]
fn recovery_from_snapshot_plus_wal_tail() {
    let dir = scratch("snapshot-plus-tail");
    let vdb = VersionedDatabase::open_with(&dir, FsyncMode::Off, u64::MAX).unwrap();
    let commits = workload();
    let (mid, tail) = commits.split_at(2);
    for commit in mid {
        vdb.commit_ops(commit).unwrap();
    }
    let snapshot_epoch = vdb.snapshot_now().unwrap();
    assert_eq!(snapshot_epoch, mid.len() as u64);
    for commit in tail {
        vdb.commit_ops(commit).unwrap();
    }
    let status = vdb.durability_status().unwrap();
    assert_eq!(status.last_snapshot_epoch, snapshot_epoch);
    assert!(status.wal_bytes > 0, "the tail commits live in the WAL");
    let live = vdb.pin();
    drop(vdb);

    let reopened = VersionedDatabase::open_with(&dir, FsyncMode::Off, u64::MAX).unwrap();
    assert_eq!(reopened.epoch(), live.epoch());
    assert_same_database(live.db(), reopened.pin().db());
    assert_same_bands(live.db(), reopened.pin().db(), "EMP", "SAL", Value::int(10));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash in the window between snapshot-rename and WAL-truncate leaves
/// the snapshot's own commits behind in the log. Replay must skip them
/// (their epochs are at or below the snapshot's) instead of applying them
/// twice.
#[test]
fn stale_wal_records_below_the_snapshot_epoch_are_not_replayed_twice() {
    let dir = scratch("stale-records");
    let vdb = VersionedDatabase::open_with(&dir, FsyncMode::Off, u64::MAX).unwrap();
    let epoch = run_workload(&vdb).unwrap();
    let live = vdb.pin();
    drop(vdb);

    // Simulate the torn window: a snapshot at the final epoch lands, but
    // the process dies before the WAL truncates — every record is stale.
    persist::write_snapshot(&dir, epoch, live.db(), FsyncMode::Off).unwrap();

    let reopened = VersionedDatabase::open_with(&dir, FsyncMode::Off, u64::MAX).unwrap();
    assert_eq!(reopened.epoch(), epoch);
    assert_same_database(live.db(), reopened.pin().db());
    // Double-application would have failed outright (key violation on
    // EMP) or doubled DEPT's keyless rows; check the count anyway.
    assert_eq!(reopened.pin().db().table("DEPT").unwrap().len(), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The central crash: the process dies **mid-append**, leaving a torn
/// final record. Recovery must land exactly on the last fully written
/// commit, truncate the torn bytes away, and keep accepting commits that
/// are themselves durable.
#[test]
fn a_torn_mid_commit_tail_is_discarded_and_writes_continue() {
    let dir = scratch("torn-tail");
    let vdb = VersionedDatabase::open_with(&dir, FsyncMode::Off, u64::MAX).unwrap();
    let commits = workload();
    let mut pins = Vec::new();
    for commit in &commits {
        vdb.commit_ops(commit).unwrap();
        pins.push(vdb.pin());
    }
    drop(vdb);

    // Shear 5 bytes off the final record: a torn mid-commit append.
    let wal_path = dir.join(persist::WAL_FILE);
    let bytes = std::fs::metadata(&wal_path).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .unwrap();
    file.set_len(bytes - 5).unwrap();
    drop(file);

    let reopened = VersionedDatabase::open_with(&dir, FsyncMode::Off, u64::MAX).unwrap();
    let expected = &pins[commits.len() - 2]; // state before the torn commit
    assert_eq!(reopened.epoch(), expected.epoch());
    assert_same_database(expected.db(), reopened.pin().db());
    assert_same_bands(
        expected.db(),
        reopened.pin().db(),
        "EMP",
        "SAL",
        Value::int(10),
    );

    // The torn bytes were truncated: fresh commits extend the verified
    // prefix and survive another kill.
    let (epoch, _) = reopened
        .commit_ops(&[insert("DEPT", &[("D#", Value::int(9))])])
        .unwrap();
    drop(reopened);
    let third = VersionedDatabase::open_with(&dir, FsyncMode::Off, u64::MAX).unwrap();
    assert_eq!(third.epoch(), epoch);
    // Two DEPT rows survived (the delete rode the torn commit and was
    // correctly lost), plus the post-recovery insert.
    assert_eq!(third.pin().db().table("DEPT").unwrap().len(), 3);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A checksum-failed tail (bit rot or a partially flushed sector) is
/// treated exactly like a torn one: replay stops at the verified prefix.
#[test]
fn a_corrupt_trailing_record_stops_replay_at_the_verified_prefix() {
    let dir = scratch("corrupt-tail");
    let vdb = VersionedDatabase::open_with(&dir, FsyncMode::Off, u64::MAX).unwrap();
    let commits = workload();
    let mut pins = Vec::new();
    for commit in &commits {
        vdb.commit_ops(commit).unwrap();
        pins.push(vdb.pin());
    }
    drop(vdb);

    // Flip the last payload byte: length still fits, checksum does not.
    let wal_path = dir.join(persist::WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&wal_path, &bytes).unwrap();

    let reopened = VersionedDatabase::open_with(&dir, FsyncMode::Off, u64::MAX).unwrap();
    let expected = &pins[commits.len() - 2];
    assert_eq!(reopened.epoch(), expected.epoch());
    assert_same_database(expected.db(), reopened.pin().db());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Closure commits cannot be logged logically, so they are made durable
/// the heavy way: a full snapshot before publication. Killing right after
/// one must lose nothing.
#[test]
fn closure_commits_are_made_durable_via_full_snapshot() {
    let dir = scratch("closure-commit");
    let vdb = VersionedDatabase::open_with(&dir, FsyncMode::Off, u64::MAX).unwrap();
    vdb.commit_ops(&workload()[0]).unwrap();
    let (epoch, _) = vdb
        .commit(|db| {
            let u = db.universe().clone();
            db.table_mut("DEPT")?
                .insert_named(&u, &[("D#", Value::int(42))])
        })
        .unwrap();
    let status = vdb.durability_status().unwrap();
    assert_eq!(
        status.wal_bytes, 0,
        "the closure commit snapshotted and truncated the WAL"
    );
    assert_eq!(status.last_snapshot_epoch, epoch);
    let live = vdb.pin();
    drop(vdb);

    let reopened = VersionedDatabase::open_with(&dir, FsyncMode::Off, u64::MAX).unwrap();
    assert_eq!(reopened.epoch(), epoch);
    assert_same_database(live.db(), reopened.pin().db());
    assert_eq!(reopened.pin().db().table("DEPT").unwrap().len(), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A commit that returns `Err` leaves nothing replayable. The WAL append
/// succeeds, then the snapshot the zero-byte threshold asks for cannot be
/// staged (a directory sits where its temporary file goes): the record
/// must be cut back off the log, or a reopen would resurrect a commit
/// that was never acknowledged.
#[test]
fn a_commit_whose_snapshot_fails_is_not_resurrected() {
    let dir = scratch("failed-snapshot");
    let vdb = VersionedDatabase::open_with(&dir, FsyncMode::Off, 0).unwrap();
    vdb.commit_ops(&workload()[0]).unwrap();
    assert_eq!(vdb.epoch(), 1);
    let live = vdb.pin();

    std::fs::create_dir(dir.join(persist::SNAPSHOT_TMP)).unwrap();
    let row = insert("DEPT", &[("D#", Value::int(7))]);
    assert!(vdb.commit_ops(std::slice::from_ref(&row)).is_err());
    assert_eq!(vdb.epoch(), 1, "the failed commit published nothing");
    assert_eq!(vdb.durability_status().unwrap().wal_bytes, 0);
    drop(vdb);

    let reopened = VersionedDatabase::open_with(&dir, FsyncMode::Off, 0).unwrap();
    assert_eq!(reopened.epoch(), 1, "the failed commit is not replayed");
    assert_same_database(live.db(), reopened.pin().db());

    // Once the snapshot can land again, epoch 2 goes to the next commit.
    std::fs::remove_dir(dir.join(persist::SNAPSHOT_TMP)).unwrap();
    assert_eq!(reopened.commit_ops(&[row]).unwrap().0, 2);
    drop(reopened);
    let third = VersionedDatabase::open_with(&dir, FsyncMode::Off, 0).unwrap();
    assert_eq!(third.epoch(), 2);
    assert_eq!(third.pin().db().table("DEPT").unwrap().len(), 1);

    let _ = std::fs::remove_dir_all(&dir);
}
