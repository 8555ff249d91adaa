//! Epoch/snapshot versioning over the catalog: multi-version concurrency
//! for the query service.
//!
//! [`VersionedDatabase`] wraps a [`Database`] in an epoch-stamped
//! multi-version scheme built on the catalog's copy-on-write clone:
//!
//! * **Readers pin snapshots and never block writers.** [`pin`] hands out
//!   an [`Arc<Snapshot>`] of the last committed version — an `Arc` clone
//!   plus a read-lock, never a data copy. Every query a reader runs
//!   against its snapshot sees one frozen, internally consistent database
//!   state, no matter how many commits land concurrently.
//! * **Writers are serialized through a commit path.** [`commit`] runs a
//!   mutator over a copy-on-write clone of the current version; only the
//!   tables the mutator touches are deep-copied ([`std::sync::Arc::make_mut`]
//!   inside the catalog). On success the new version is published under
//!   the next epoch in one atomic swap; on error the clone is discarded
//!   and the published state is untouched — commits are all-or-nothing.
//! * **Old versions retire when their last reader drops.** Published
//!   versions are reference-counted; once the last pinned `Arc` goes, the
//!   version's un-shared tables are freed. Nothing is copied at retire
//!   time and no epoch ring is kept.
//!
//! **Durability** is layered under the same commit path
//! ([`VersionedDatabase::open_with`]): when a data directory is attached,
//! every [`commit_ops`] appends one checksummed WAL record *before* its epoch
//! publishes, full snapshots land periodically (truncating the log), and
//! reopening the directory replays snapshot + WAL tail — skipping a torn
//! trailing record — into exactly the database that was live, histograms
//! included. See [`crate::wal`] and [`crate::persist`] for the file
//! formats.
//!
//! Lock discipline: both the version `RwLock` and the writer `Mutex`
//! recover from poisoning (`unwrap_or_else(|e| e.into_inner())`) instead
//! of panicking. Poisoning here carries no torn state — the `RwLock` only
//! guards an `Arc` swap (always complete or not started), and the writer
//! mutex holds no data at all; a mutator that panics mid-commit simply
//! never publishes its clone. Propagating the poison would instead turn
//! one panicking request thread into a permanent whole-server outage.
//!
//! [`pin`]: VersionedDatabase::pin
//! [`commit`]: VersionedDatabase::commit
//! [`commit_ops`]: VersionedDatabase::commit_ops

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

use crate::catalog::Database;
use crate::error::{StorageError, StorageResult};
use crate::persist::{self, FsyncMode, WAL_FILE};
use crate::wal::{self, LogicalOp, Wal};

/// One committed, immutable version of the database, stamped with the
/// epoch that published it. The wrapped [`Database`] is a full catalog —
/// every query entry point that takes `&Database` runs against a snapshot
/// unchanged.
#[derive(Debug, Clone)]
pub struct Snapshot {
    epoch: u64,
    db: Database,
}

impl Snapshot {
    /// The epoch at which this version was committed (0 = the initial
    /// state).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen database state.
    pub fn db(&self) -> &Database {
        &self.db
    }
}

impl std::ops::Deref for Snapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

/// A [`Database`] behind epoch/snapshot versioning: concurrent pinned
/// readers over immutable versions, serialized copy-on-write writers.
#[derive(Debug)]
pub struct VersionedDatabase {
    /// The last committed version. The `RwLock` protects only the `Arc`
    /// swap — readers hold it for one clone, writers for one store.
    current: Arc<RwLock<Arc<Snapshot>>>,
    /// Serializes commits: at most one mutator clones, mutates, and
    /// publishes at a time. Holds no data — the master copy *is* the
    /// current snapshot, cloned copy-on-write per commit.
    writer: Mutex<()>,
    /// The durability layer, when a data directory is attached. Guarded by
    /// its own mutex only for interior mutability: every access happens
    /// under the writer lock, so there is never contention.
    durability: Option<Mutex<Durability>>,
}

/// WAL handle plus snapshot policy for one data directory.
#[derive(Debug)]
struct Durability {
    dir: PathBuf,
    wal: Wal,
    fsync: FsyncMode,
    /// Snapshot once the WAL reaches this many bytes (0 = after every
    /// logged commit).
    snapshot_wal_bytes: u64,
    last_snapshot_epoch: u64,
}

impl Durability {
    /// Writes a full snapshot of `db` at `epoch` and truncates the log.
    /// Must run under the writer lock — truncation erases records, so no
    /// commit may append between the snapshot's pin and the truncate.
    /// Errs only if the snapshot did not land: after that `epoch` is
    /// durable, and replay skips the records a failed truncate leaves.
    fn write_snapshot(&mut self, epoch: u64, db: &Database) -> StorageResult<u64> {
        let _span = nullrel_obs::tracing_active()
            .then(|| nullrel_obs::span(format!("snapshot at epoch {epoch}"), "durability"));
        let bytes = persist::write_snapshot(&self.dir, epoch, db, self.fsync)?;
        let _ = self.wal.truncate();
        self.last_snapshot_epoch = epoch;
        SNAPSHOTS_WRITTEN.inc();
        LAST_SNAPSHOT_EPOCH.set(epoch as i64);
        WAL_BYTES.set(self.wal.bytes() as i64);
        Ok(bytes)
    }
}

/// The durability readings the `HEALTH` surface and tests report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityStatus {
    /// Current size of the write-ahead log in bytes.
    pub wal_bytes: u64,
    /// Epoch of the last full snapshot written (0 before the first one —
    /// recovery then starts from an empty database plus the whole log).
    pub last_snapshot_epoch: u64,
    /// The attached data directory.
    pub data_dir: PathBuf,
}

/// Default WAL size that triggers a full snapshot (4 MiB).
pub const DEFAULT_SNAPSHOT_WAL_BYTES: u64 = 4 * 1024 * 1024;

/// Parses `NULLREL_SNAPSHOT_WAL_BYTES`: any unsigned byte count is
/// accepted (`0` = snapshot after **every** logged commit); garbage,
/// whitespace, or unset falls back to [`DEFAULT_SNAPSHOT_WAL_BYTES`].
pub fn parse_snapshot_wal_bytes(value: Option<&str>) -> u64 {
    match value.and_then(|v| v.trim().parse::<u64>().ok()) {
        Some(n) => n,
        None => DEFAULT_SNAPSHOT_WAL_BYTES,
    }
}

impl VersionedDatabase {
    /// Puts an initial database state behind versioning, as epoch 0,
    /// without durability (purely in-memory, as through PR 9).
    pub fn new(db: Database) -> Self {
        VersionedDatabase {
            current: Arc::new(RwLock::new(Arc::new(Snapshot { epoch: 0, db }))),
            writer: Mutex::new(()),
            durability: None,
        }
    }

    /// Opens (or creates) a durable database in `dir` under the `fsync`
    /// policy, snapshotting whenever the log reaches `snapshot_wal_bytes`
    /// (0 = after every logged commit).
    ///
    /// Recovery replays the latest snapshot, then every complete,
    /// checksum-verified WAL record with an epoch past the snapshot's —
    /// stopping at (and discarding) a torn or corrupt trailing record,
    /// which is then truncated away so fresh appends extend the verified
    /// prefix. The reopened database is identical to the live one at the
    /// last durable commit: rows, indexes, statistics, histograms, epoch.
    pub fn open_with(
        dir: impl AsRef<Path>,
        fsync: FsyncMode,
        snapshot_wal_bytes: u64,
    ) -> StorageResult<VersionedDatabase> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(wal::io_err)?;
        let (snapshot_epoch, mut db) = match persist::read_snapshot(dir)? {
            Some((epoch, db)) => (epoch, db),
            None => (0, Database::new()),
        };
        let mut epoch = snapshot_epoch;
        let wal_path = dir.join(WAL_FILE);
        let (records, status) = wal::read_records(&wal_path)?;
        let mut replayed = 0u64;
        for record in &records {
            // Records at or below the snapshot's epoch are already inside
            // it (a crash between snapshot-rename and WAL-truncate leaves
            // them behind); replay only the tail past the snapshot.
            if record.epoch <= snapshot_epoch {
                continue;
            }
            for op in &record.ops {
                wal::apply_op(&mut db, op)?;
            }
            epoch = record.epoch;
            replayed += 1;
        }
        WAL_RECORDS_REPLAYED.add(replayed);
        if status.torn_tail {
            WAL_TORN_SKIPPED.inc();
            // Cut the tail so new appends extend the verified prefix
            // (replay would otherwise stop at the stale torn record).
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&wal_path)
                .map_err(wal::io_err)?;
            file.set_len(status.verified_bytes).map_err(wal::io_err)?;
        }
        RECOVERIES.inc();
        if nullrel_obs::tracing_active() {
            nullrel_obs::event(
                format!(
                    "recovery: snapshot epoch {snapshot_epoch}, {replayed} wal records \
                     replayed{}, resuming at epoch {epoch}",
                    if status.torn_tail {
                        ", torn tail skipped"
                    } else {
                        ""
                    }
                ),
                "durability",
            );
        }
        let wal = Wal::open(&wal_path, fsync)?;
        WAL_BYTES.set(wal.bytes() as i64);
        LAST_SNAPSHOT_EPOCH.set(snapshot_epoch as i64);
        Ok(VersionedDatabase {
            current: Arc::new(RwLock::new(Arc::new(Snapshot { epoch, db }))),
            writer: Mutex::new(()),
            durability: Some(Mutex::new(Durability {
                dir: dir.to_owned(),
                wal,
                fsync,
                snapshot_wal_bytes,
                last_snapshot_epoch: snapshot_epoch,
            })),
        })
    }

    /// Pins the last committed version: an `Arc` clone, O(1) and
    /// contention-free against writers beyond the swap lock. The snapshot
    /// stays fully readable — and byte-stable — for as long as the `Arc`
    /// lives, regardless of concurrent commits.
    pub fn pin(&self) -> Arc<Snapshot> {
        // Recover from poisoning: the lock only guards an `Arc` swap,
        // which cannot be observed half-done (see the module docs).
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The epoch of the last committed version.
    pub fn epoch(&self) -> u64 {
        self.current.read().unwrap_or_else(|e| e.into_inner()).epoch
    }

    /// The schema version of the last committed state (see
    /// [`Database::schema_version`]).
    pub fn schema_version(&self) -> u64 {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .db
            .schema_version()
    }

    /// Runs `mutate` against a copy-on-write clone of the current version
    /// and, on success, publishes the result as the next epoch, returning
    /// `(new_epoch, value)`. Commits are serialized (writer after writer)
    /// and atomic: an `Err` from the mutator discards the clone, leaving
    /// the published state — and every pinned snapshot — untouched.
    /// Readers pinned to older epochs are unaffected either way; their
    /// versions retire when the last pin drops.
    ///
    /// With durability attached, a closure commit cannot be logged
    /// logically (the closure is opaque), so it is made durable the heavy
    /// way: a full snapshot is written at the new epoch — before it
    /// publishes — and the WAL truncated. Hot write paths should prefer
    /// [`VersionedDatabase::commit_ops`], which appends one log record
    /// instead.
    pub fn commit<T>(
        &self,
        mutate: impl FnOnce(&mut Database) -> StorageResult<T>,
    ) -> StorageResult<(u64, T)> {
        // Recover from poisoning: the mutex holds no data, and a mutator
        // that panicked never published its clone (see the module docs).
        let _serialize = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let base = self.pin();
        // Cheap: shares every table Arc until the mutator touches it.
        let mut db = base.db.clone();
        let value = mutate(&mut db)?;
        let epoch = base.epoch + 1;
        if let Some(durability) = &self.durability {
            let mut d = durability.lock().unwrap_or_else(|e| e.into_inner());
            d.write_snapshot(epoch, &db)?;
        }
        self.publish(Snapshot { epoch, db });
        Ok((epoch, value))
    }

    /// The durable commit path: applies `ops` in order to a copy-on-write
    /// clone, appends them as **one** checksummed WAL record, and only
    /// then publishes the next epoch. Returns the epoch and the rows
    /// affected by each op (0 for DDL). Atomic like [`commit`]: any op
    /// failing discards the clone and appends nothing, and an `Err` from
    /// the log or snapshot leaves nothing of the commit to replay. When
    /// the log reaches the snapshot threshold, a full snapshot lands
    /// (still before publication) and the log is truncated.
    ///
    /// Without durability attached this is simply `commit` with the op
    /// interpreter — the same code path replay uses, which is what makes
    /// replayed state bit-identical to live state.
    ///
    /// [`commit`]: VersionedDatabase::commit
    pub fn commit_ops(&self, ops: &[LogicalOp]) -> StorageResult<(u64, Vec<u64>)> {
        let _serialize = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let base = self.pin();
        let mut db = base.db.clone();
        let mut affected = Vec::with_capacity(ops.len());
        for op in ops {
            affected.push(wal::apply_op(&mut db, op)?);
        }
        let epoch = base.epoch + 1;
        if let Some(durability) = &self.durability {
            let mut d = durability.lock().unwrap_or_else(|e| e.into_inner());
            let start = d.wal.bytes();
            if d.wal.append(epoch, ops)? >= d.snapshot_wal_bytes {
                // A snapshot that does not land takes the record with it.
                d.write_snapshot(epoch, &db)
                    .inspect_err(|_| d.wal.rewind(start))?;
            }
            WAL_RECORDS.inc();
            WAL_BYTES.set(d.wal.bytes() as i64);
        }
        self.publish(Snapshot { epoch, db });
        Ok((epoch, affected))
    }

    /// Forces a full snapshot of the current state at its epoch and
    /// truncates the WAL. Errors when no data directory is attached.
    pub fn snapshot_now(&self) -> StorageResult<u64> {
        let _serialize = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let durability = self
            .durability
            .as_ref()
            .ok_or_else(|| StorageError::Io("durability is not enabled".into()))?;
        let current = self.pin();
        let mut d = durability.lock().unwrap_or_else(|e| e.into_inner());
        d.write_snapshot(current.epoch, &current.db)?;
        Ok(current.epoch)
    }

    /// The durability readings (`None` when running purely in memory).
    pub fn durability_status(&self) -> Option<DurabilityStatus> {
        self.durability.as_ref().map(|durability| {
            let d = durability.lock().unwrap_or_else(|e| e.into_inner());
            DurabilityStatus {
                wal_bytes: d.wal.bytes(),
                last_snapshot_epoch: d.last_snapshot_epoch,
                data_dir: d.dir.clone(),
            }
        })
    }

    fn publish(&self, next: Snapshot) {
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(next);
        COMMITS.inc();
    }
}

impl Default for VersionedDatabase {
    fn default() -> Self {
        VersionedDatabase::new(Database::new())
    }
}

/// Commits published through [`VersionedDatabase::commit`].
pub static COMMITS: nullrel_obs::metrics::Counter = nullrel_obs::metrics::Counter::new(
    "nullrel_commits_total",
    "Versions published through the MVCC commit path",
);

/// WAL records appended by durable commits.
pub static WAL_RECORDS: nullrel_obs::metrics::Counter = nullrel_obs::metrics::Counter::new(
    "nullrel_wal_records_total",
    "Write-ahead-log records appended by durable commits",
);

/// WAL records replayed during recovery.
pub static WAL_RECORDS_REPLAYED: nullrel_obs::metrics::Counter = nullrel_obs::metrics::Counter::new(
    "nullrel_wal_records_replayed_total",
    "Write-ahead-log records replayed by VersionedDatabase::open_with",
);

/// Torn or checksum-failed WAL tails skipped during recovery.
pub static WAL_TORN_SKIPPED: nullrel_obs::metrics::Counter = nullrel_obs::metrics::Counter::new(
    "nullrel_wal_torn_tail_skipped_total",
    "Torn or checksum-failed trailing WAL records discarded at recovery",
);

/// Full snapshots written.
pub static SNAPSHOTS_WRITTEN: nullrel_obs::metrics::Counter = nullrel_obs::metrics::Counter::new(
    "nullrel_snapshots_written_total",
    "Full database snapshots written by the durability layer",
);

/// Recoveries performed (one per durable open).
pub static RECOVERIES: nullrel_obs::metrics::Counter = nullrel_obs::metrics::Counter::new(
    "nullrel_recoveries_total",
    "Databases opened from a data directory (snapshot + WAL replay)",
);

/// Current WAL size in bytes.
pub static WAL_BYTES: nullrel_obs::metrics::Gauge = nullrel_obs::metrics::Gauge::new(
    "nullrel_wal_bytes",
    "Current size of the write-ahead log in bytes",
);

/// Epoch of the last full snapshot.
pub static LAST_SNAPSHOT_EPOCH: nullrel_obs::metrics::Gauge = nullrel_obs::metrics::Gauge::new(
    "nullrel_last_snapshot_epoch",
    "Epoch of the last full snapshot written",
);

/// Registers this module's metrics with the process registry (idempotent).
pub fn register_metrics() {
    nullrel_obs::metrics::register_counter(&COMMITS);
    nullrel_obs::metrics::register_counter(&WAL_RECORDS);
    nullrel_obs::metrics::register_counter(&WAL_RECORDS_REPLAYED);
    nullrel_obs::metrics::register_counter(&WAL_TORN_SKIPPED);
    nullrel_obs::metrics::register_counter(&SNAPSHOTS_WRITTEN);
    nullrel_obs::metrics::register_counter(&RECOVERIES);
    nullrel_obs::metrics::register_gauge(&WAL_BYTES);
    nullrel_obs::metrics::register_gauge(&LAST_SNAPSHOT_EPOCH);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use nullrel_core::predicate::Predicate;
    use nullrel_core::tvl::CompareOp;
    use nullrel_core::value::Value;

    fn seeded() -> VersionedDatabase {
        let mut db = Database::new();
        db.create_table(SchemaBuilder::new("PS").column("S#").column("P#"))
            .unwrap();
        let u = db.universe().clone();
        let t = db.table_mut("PS").unwrap();
        for (s, p) in [("s1", "p1"), ("s1", "p2"), ("s2", "p1")] {
            t.insert_named(&u, &[("S#", Value::str(s)), ("P#", Value::str(p))])
                .unwrap();
        }
        VersionedDatabase::new(db)
    }

    #[test]
    fn pinned_readers_see_frozen_state_across_commits() {
        let vdb = seeded();
        let pinned = vdb.pin();
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.db().table("PS").unwrap().len(), 3);

        let u = pinned.db().universe().clone();
        let (epoch, _) = vdb
            .commit(|db| {
                db.table_mut("PS")
                    .unwrap()
                    .insert_named(&u, &[("S#", Value::str("s9")), ("P#", Value::str("p9"))])
            })
            .unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(vdb.epoch(), 1);

        // The pinned snapshot is byte-stable; a fresh pin sees the commit.
        assert_eq!(pinned.db().table("PS").unwrap().len(), 3);
        assert_eq!(vdb.pin().db().table("PS").unwrap().len(), 4);
    }

    #[test]
    fn failed_commits_publish_nothing() {
        let vdb = seeded();
        let before = vdb.pin();
        let err = vdb.commit(|db| {
            let u = db.universe().clone();
            // First insert succeeds on the clone, then the unknown table
            // fails the commit — neither must be visible afterwards.
            db.table_mut("PS")
                .unwrap()
                .insert_named(&u, &[("S#", Value::str("sx"))])?;
            db.table_mut("NOPE").map(|_| ())
        });
        assert!(err.is_err());
        assert_eq!(vdb.epoch(), 0, "no epoch was published");
        assert_eq!(vdb.pin().db().table("PS").unwrap().len(), 3);
        assert!(Arc::ptr_eq(&before, &vdb.pin()), "same version object");
    }

    #[test]
    fn old_versions_retire_when_the_last_reader_drops() {
        let vdb = seeded();
        let old = vdb.pin();
        let weak = Arc::downgrade(&old);
        vdb.commit(|db| {
            let u = db.universe().clone();
            db.table_mut("PS")
                .unwrap()
                .insert_named(&u, &[("S#", Value::str("s9"))])
        })
        .unwrap();
        assert!(weak.upgrade().is_some(), "pinned version stays alive");
        drop(old);
        assert!(
            weak.upgrade().is_none(),
            "last pin dropped → version retired"
        );
    }

    #[test]
    fn commits_are_copy_on_write_per_table() {
        let vdb = seeded();
        vdb.commit(|db| {
            db.create_table(SchemaBuilder::new("OTHER").column("X"))
                .map(|_| ())
        })
        .unwrap();
        let before = vdb.pin();
        // A commit touching only OTHER shares PS with the previous epoch.
        vdb.commit(|db| {
            let u = db.universe().clone();
            db.table_mut("OTHER")
                .unwrap()
                .insert_named(&u, &[("X", Value::int(1))])
        })
        .unwrap();
        let after = vdb.pin();
        assert!(Arc::ptr_eq(
            &before.db().table_handle("PS").unwrap(),
            &after.db().table_handle("PS").unwrap()
        ));
        assert!(!Arc::ptr_eq(
            &before.db().table_handle("OTHER").unwrap(),
            &after.db().table_handle("OTHER").unwrap()
        ));
    }

    /// Satellite bugfix: a mutator that panics inside `commit` poisons the
    /// writer mutex. Before the fix every later `pin()`/`commit()` call
    /// `.expect(…)`-panicked on the poison — one bad request thread took
    /// the whole server down. Both locks now recover: the panicking
    /// commit publishes nothing, and the database keeps serving.
    #[test]
    fn a_panicking_commit_does_not_poison_the_database() {
        let vdb = Arc::new(seeded());
        let epoch_before = vdb.epoch();
        let panicker = Arc::clone(&vdb);
        std::thread::spawn(move || {
            let _ = panicker.commit(|_db| -> StorageResult<()> {
                panic!("mutator bug: this thread dies holding the writer lock");
            });
        })
        .join()
        .expect_err("the mutator panicked");
        // Readers survive the poison…
        let pinned = vdb.pin();
        assert_eq!(pinned.epoch(), epoch_before);
        assert_eq!(vdb.epoch(), epoch_before, "nothing was published");
        assert_eq!(vdb.schema_version(), pinned.db().schema_version());
        // …and so do writers: the next commit goes through normally.
        let u = pinned.db().universe().clone();
        let (epoch, _) = vdb
            .commit(|db| {
                db.table_mut("PS")
                    .unwrap()
                    .insert_named(&u, &[("S#", Value::str("s9"))])
            })
            .expect("commit after a poisoned writer lock succeeds");
        assert_eq!(epoch, epoch_before + 1);
        assert_eq!(vdb.pin().db().table("PS").unwrap().len(), 4);
    }

    #[test]
    fn snapshot_wal_bytes_parse_is_hardened() {
        assert_eq!(parse_snapshot_wal_bytes(Some("1024")), 1024);
        assert_eq!(parse_snapshot_wal_bytes(Some(" 1024 ")), 1024);
        // 0 is valid: snapshot after every logged commit.
        assert_eq!(parse_snapshot_wal_bytes(Some("0")), 0);
        for garbage in [None, Some(""), Some("  "), Some("lots"), Some("-1")] {
            assert_eq!(
                parse_snapshot_wal_bytes(garbage),
                DEFAULT_SNAPSHOT_WAL_BYTES
            );
        }
    }

    #[test]
    fn deletes_and_schema_changes_version_like_inserts() {
        let vdb = seeded();
        let pinned = vdb.pin();
        let u = pinned.db().universe().clone();
        let p = u.lookup("P#").unwrap();
        vdb.commit(|db| {
            db.table_mut("PS")
                .unwrap()
                .delete_where(&Predicate::attr_const(p, CompareOp::Eq, "p1"))
                .map(|_| ())
        })
        .unwrap();
        let sv_before = vdb.schema_version();
        vdb.commit(|db| {
            let (table, universe) = db.table_and_universe_mut("PS")?;
            table.add_column(universe, "QTY", None).map(|_| ())
        })
        .unwrap();
        assert!(vdb.schema_version() > sv_before);
        assert_eq!(pinned.db().table("PS").unwrap().len(), 3, "frozen");
        assert_eq!(vdb.pin().db().table("PS").unwrap().len(), 1);
        assert_eq!(vdb.epoch(), 2);
    }
}
