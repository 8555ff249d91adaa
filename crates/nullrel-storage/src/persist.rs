//! Full-database snapshot files and the fsync policy knob.
//!
//! A snapshot is one self-contained binary file holding everything a
//! [`Database`] is: the universe (names and domains in intern order, so
//! attribute ids reproduce exactly), every table's schema, rows, index
//! attribute lists (the indexes themselves rebuild deterministically), and
//! the **exact per-column statistics state** — distinct sets, reservoir
//! samples, rebuild counters, generator state, and the built equi-depth
//! histograms — so a reopened database plans as well as the live one did,
//! before any fresh ANALYZE-style work.
//!
//! ## File layout (`snapshot.bin`, all integers little-endian)
//!
//! ```text
//! [ magic "NRELSNP1" | epoch u64 | schema_version u64
//!   | universe | tables… | fnv64(everything before) ]
//! ```
//!
//! Snapshots are written **atomically**: the bytes go to `snapshot.tmp`,
//! the file is synced, then renamed over `snapshot.bin` (and the directory
//! synced), so a crash mid-snapshot leaves the previous snapshot intact.
//! After a snapshot lands the WAL is truncated — the snapshot now carries
//! everything the log recorded. The trailing whole-file checksum turns
//! any torn or bit-flipped snapshot into a hard
//! [`StorageError::Corrupt`] at open time rather than a silently wrong
//! database.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use nullrel_core::tuple::Tuple;
use nullrel_core::universe::{AttrId, Universe};
use nullrel_stats::persist::{AccumulatorState, BucketState, CollectorState, HistogramState};
use nullrel_stats::StatisticsCollector;

use crate::catalog::Database;
use crate::error::{StorageError, StorageResult};
use crate::schema::{ColumnDef, TableSchema};
use crate::table::Table;
use crate::wal::codec::{
    put_bool, put_f64, put_opt_domain, put_str, put_u32, put_u64, put_value, Reader,
};
use crate::wal::{fnv64, io_err};

/// The snapshot file name inside a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// The temporary file a snapshot is staged in before the atomic rename.
pub const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// The write-ahead log file name inside a data directory.
pub const WAL_FILE: &str = "wal.log";

const MAGIC: &[u8; 8] = b"NRELSNP1";

/// When (and whether) the durability layer forces writes to stable
/// storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncMode {
    /// Sync after every WAL record and snapshot: a commit acknowledged is
    /// a commit on stable storage. The strongest and slowest mode.
    Always,
    /// The default: each record is written with one syscall, and syncs are
    /// batched (issued every ~64 KiB of appended records and at every
    /// snapshot/truncate point). A crash can lose the last unsynced batch
    /// of acknowledged commits, never corrupt the prefix.
    #[default]
    CommitBatch,
    /// Never sync; the OS page cache decides. Fastest, for bulk loads and
    /// benchmarks.
    Off,
}

impl FsyncMode {
    /// Parses a `NULLREL_FSYNC` setting. Recognized values (trimmed,
    /// case-insensitive): `always`, `commit-batch`, `off`. Anything else —
    /// garbage, whitespace, unset — falls back to the
    /// [`CommitBatch`](FsyncMode::CommitBatch) default, matching the
    /// hardened parse discipline of the other engine knobs.
    pub fn parse(value: Option<&str>) -> FsyncMode {
        match value.map(|v| v.trim().to_ascii_lowercase()).as_deref() {
            Some("always") => FsyncMode::Always,
            Some("commit-batch") => FsyncMode::CommitBatch,
            Some("off") => FsyncMode::Off,
            _ => FsyncMode::CommitBatch,
        }
    }
}

// ----------------------------------------------------------------------
// Encoding
// ----------------------------------------------------------------------

fn encode_universe(out: &mut Vec<u8>, universe: &Universe) {
    put_u32(out, universe.len() as u32);
    for attr in universe.attrs() {
        put_str(out, universe.name(attr).expect("attr in range"));
        put_opt_domain(out, &universe.domain(attr).cloned());
    }
}

fn encode_collector(out: &mut Vec<u8>, state: &CollectorState) {
    put_u32(out, state.columns.len() as u32);
    for attr in &state.columns {
        put_u32(out, attr.index() as u32);
    }
    put_u64(out, state.rows as u64);
    put_u64(out, state.definite_rows as u64);
    put_u32(out, state.per_column.len() as u32);
    for acc in &state.per_column {
        put_u32(out, acc.attr.index() as u32);
        put_u32(out, acc.values.len() as u32);
        for v in &acc.values {
            put_value(out, v);
        }
        put_u64(out, acc.null_rows as u64);
        encode_opt_f64(out, acc.min);
        encode_opt_f64(out, acc.max);
        put_u32(out, acc.sample.len() as u32);
        for s in &acc.sample {
            put_f64(out, *s);
        }
        put_u64(out, acc.seen_numeric as u64);
        put_u64(out, acc.pending as u64);
        put_u64(out, acc.built as u64);
        put_u64(out, acc.rng);
        match &acc.histogram {
            None => out.push(0),
            Some(h) => {
                out.push(1);
                put_u32(out, h.buckets.len() as u32);
                for b in &h.buckets {
                    put_f64(out, b.lo);
                    put_f64(out, b.hi);
                    put_u64(out, b.count as u64);
                }
                put_u64(out, h.total as u64);
                put_u64(out, h.population as u64);
                put_f64(out, h.stale_fraction);
            }
        }
    }
}

fn encode_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(v) => {
            out.push(1);
            put_f64(out, v);
        }
        None => out.push(0),
    }
}

fn encode_table(out: &mut Vec<u8>, table: &Table) {
    let schema = table.schema();
    put_str(out, schema.name());
    put_u32(out, schema.columns().len() as u32);
    for c in schema.columns() {
        put_u32(out, c.attr.index() as u32);
        put_str(out, &c.name);
        put_opt_domain(out, &c.domain);
        put_bool(out, c.nullable);
    }
    match schema.key() {
        None => out.push(0),
        Some(key) => {
            out.push(1);
            put_u32(out, key.len() as u32);
            for attr in key {
                put_u32(out, attr.index() as u32);
            }
        }
    }
    put_u64(out, table.len() as u64);
    for row in table.rows() {
        let cells: Vec<_> = row.cells().collect();
        put_u32(out, cells.len() as u32);
        for (attr, value) in cells {
            put_u32(out, attr.index() as u32);
            put_value(out, value);
        }
    }
    put_u32(out, table.indexes().len() as u32);
    for index in table.indexes() {
        put_u32(out, index.attrs().len() as u32);
        for attr in index.attrs() {
            put_u32(out, attr.index() as u32);
        }
    }
    encode_collector(out, &table.stats_collector().to_state());
}

/// Serializes a database at `epoch` into snapshot bytes.
pub(crate) fn encode_snapshot(epoch: u64, db: &Database) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(MAGIC);
    put_u64(&mut out, epoch);
    put_u64(&mut out, db.schema_version());
    encode_universe(&mut out, db.universe());
    put_u32(&mut out, db.table_names().len() as u32);
    for table in db.tables() {
        encode_table(&mut out, table);
    }
    let checksum = fnv64(&out);
    put_u64(&mut out, checksum);
    out
}

/// Writes a snapshot of `db` at `epoch` into `dir` atomically
/// (tmp + rename), returning the snapshot's size in bytes. Public for
/// recovery tooling and the crash-injection tests.
pub fn write_snapshot(
    dir: &Path,
    epoch: u64,
    db: &Database,
    fsync: FsyncMode,
) -> StorageResult<u64> {
    let bytes = encode_snapshot(epoch, db);
    let tmp = dir.join(SNAPSHOT_TMP);
    let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
    file.write_all(&bytes).map_err(io_err)?;
    if !matches!(fsync, FsyncMode::Off) {
        file.sync_all().map_err(io_err)?;
    }
    drop(file);
    std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE)).map_err(io_err)?;
    if !matches!(fsync, FsyncMode::Off) {
        // Sync the directory so the rename itself is durable. Directories
        // cannot be fsynced on every platform; failure to open one is not
        // a correctness problem for the snapshot bytes themselves.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(bytes.len() as u64)
}

// ----------------------------------------------------------------------
// Decoding
// ----------------------------------------------------------------------

fn decode_collector(r: &mut Reader<'_>) -> StorageResult<CollectorState> {
    let n = r.u32()? as usize;
    let mut columns = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        columns.push(AttrId::from_index(r.u32()? as usize));
    }
    let rows = r.u64()? as usize;
    let definite_rows = r.u64()? as usize;
    let n = r.u32()? as usize;
    let mut per_column = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let attr = AttrId::from_index(r.u32()? as usize);
        let v = r.u32()? as usize;
        let mut values = Vec::with_capacity(v.min(1 << 16));
        for _ in 0..v {
            values.push(r.value()?);
        }
        let null_rows = r.u64()? as usize;
        let min = decode_opt_f64(r)?;
        let max = decode_opt_f64(r)?;
        let s = r.u32()? as usize;
        let mut sample = Vec::with_capacity(s.min(1 << 16));
        for _ in 0..s {
            sample.push(r.f64()?);
        }
        let seen_numeric = r.u64()? as usize;
        let pending = r.u64()? as usize;
        let built = r.u64()? as usize;
        let rng = r.u64()?;
        let histogram = match r.u8()? {
            0 => None,
            _ => {
                let b = r.u32()? as usize;
                let mut buckets = Vec::with_capacity(b.min(1 << 16));
                for _ in 0..b {
                    buckets.push(BucketState {
                        lo: r.f64()?,
                        hi: r.f64()?,
                        count: r.u64()? as usize,
                    });
                }
                Some(HistogramState {
                    buckets,
                    total: r.u64()? as usize,
                    population: r.u64()? as usize,
                    stale_fraction: r.f64()?,
                })
            }
        };
        per_column.push(AccumulatorState {
            attr,
            values,
            null_rows,
            min,
            max,
            sample,
            seen_numeric,
            pending,
            built,
            rng,
            histogram,
        });
    }
    Ok(CollectorState {
        columns,
        rows,
        definite_rows,
        per_column,
    })
}

fn decode_opt_f64(r: &mut Reader<'_>) -> StorageResult<Option<f64>> {
    Ok(match r.u8()? {
        0 => None,
        _ => Some(r.f64()?),
    })
}

fn decode_table(r: &mut Reader<'_>) -> StorageResult<(String, Table)> {
    let name = r.str()?;
    let n = r.u32()? as usize;
    let mut columns = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        columns.push(ColumnDef {
            attr: AttrId::from_index(r.u32()? as usize),
            name: r.str()?,
            domain: r.opt_domain()?,
            nullable: r.bool()?,
        });
    }
    let key = match r.u8()? {
        0 => None,
        _ => {
            let k = r.u32()? as usize;
            let mut key = Vec::with_capacity(k.min(1 << 16));
            for _ in 0..k {
                key.push(AttrId::from_index(r.u32()? as usize));
            }
            Some(key)
        }
    };
    let schema = TableSchema::from_parts(name.clone(), columns, key);
    let row_count = r.u64()? as usize;
    let mut rows = Vec::with_capacity(row_count.min(1 << 20));
    for _ in 0..row_count {
        let cells = r.u32()? as usize;
        let mut row = Tuple::new();
        for _ in 0..cells {
            let attr = AttrId::from_index(r.u32()? as usize);
            row.set(attr, Some(r.value()?));
        }
        rows.push(row);
    }
    let index_count = r.u32()? as usize;
    let mut index_attrs = Vec::with_capacity(index_count.min(1 << 16));
    for _ in 0..index_count {
        let a = r.u32()? as usize;
        let mut attrs = Vec::with_capacity(a.min(1 << 16));
        for _ in 0..a {
            attrs.push(AttrId::from_index(r.u32()? as usize));
        }
        index_attrs.push(attrs);
    }
    let stats = StatisticsCollector::from_state(&decode_collector(r)?);
    Ok((name, Table::from_parts(schema, rows, index_attrs, stats)))
}

/// Decodes snapshot bytes into `(epoch, database)`.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> StorageResult<(u64, Database)> {
    if bytes.len() < MAGIC.len() + 8 {
        return Err(StorageError::Corrupt("snapshot too short".into()));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(StorageError::Corrupt("bad snapshot magic".into()));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8"));
    if fnv64(body) != stored {
        return Err(StorageError::Corrupt("snapshot checksum mismatch".into()));
    }
    let mut r = Reader::new(&body[MAGIC.len()..]);
    let epoch = r.u64()?;
    let schema_version = r.u64()?;
    // Re-intern names in their original order: ids come out identical.
    let mut universe = Universe::new();
    let attr_count = r.u32()? as usize;
    for i in 0..attr_count {
        let name = r.str()?;
        let domain = r.opt_domain()?;
        let attr = universe.intern(&name);
        if attr.index() != i {
            return Err(StorageError::Corrupt(format!(
                "duplicate attribute {name:?} in snapshot universe"
            )));
        }
        if let Some(domain) = domain {
            universe
                .set_domain(attr, domain)
                .map_err(|e| StorageError::Corrupt(e.to_string()))?;
        }
    }
    let table_count = r.u32()? as usize;
    let mut tables = BTreeMap::new();
    for _ in 0..table_count {
        let (name, table) = decode_table(&mut r)?;
        tables.insert(name, Arc::new(table));
    }
    if !r.is_done() {
        return Err(StorageError::Corrupt("trailing bytes in snapshot".into()));
    }
    Ok((
        epoch,
        Database::from_parts(universe, tables, schema_version),
    ))
}

/// Reads the snapshot in `dir`, if one exists. A missing file is
/// `Ok(None)` (a fresh data directory); a present-but-invalid file is a
/// hard [`StorageError::Corrupt`] — silently starting empty would lose
/// acknowledged data.
pub(crate) fn read_snapshot(dir: &Path) -> StorageResult<Option<(u64, Database)>> {
    let path = dir.join(SNAPSHOT_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(e)),
    };
    decode_snapshot(&bytes).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use nullrel_core::value::Value;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            SchemaBuilder::new("EMP")
                .required_column("E#")
                .column("NAME")
                .column("MGR#")
                .key(&["E#"]),
        )
        .unwrap();
        let u = db.universe().clone();
        let t = db.table_mut("EMP").unwrap();
        for i in 0..40 {
            let mut cells = vec![("E#", Value::int(i)), ("NAME", Value::str(format!("N{i}")))];
            if i % 5 != 0 {
                cells.push(("MGR#", Value::int(i / 4)));
            }
            t.insert_named(&u, &cells).unwrap();
        }
        let mgr = db.universe().lookup("MGR#").unwrap();
        db.table_mut("EMP")
            .unwrap()
            .create_index(vec![mgr])
            .unwrap();
        db
    }

    #[test]
    fn snapshot_bytes_round_trip_the_whole_database() {
        let db = sample_db();
        let bytes = encode_snapshot(7, &db);
        let (epoch, back) = decode_snapshot(&bytes).unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(back.schema_version(), db.schema_version());
        assert_eq!(back.table_names(), db.table_names());
        assert_eq!(back.universe().len(), db.universe().len());
        let (a, b) = (db.table("EMP").unwrap(), back.table("EMP").unwrap());
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.rows_slice(), b.rows_slice());
        assert_eq!(a.statistics(), b.statistics(), "histograms included");
        assert_eq!(a.indexes().len(), b.indexes().len());
        assert_eq!(a.indexes()[0].attrs(), b.indexes()[0].attrs());
    }

    #[test]
    fn corrupt_snapshots_are_rejected_not_misread() {
        let db = sample_db();
        let bytes = encode_snapshot(7, &db);
        // Truncated.
        assert!(matches!(
            decode_snapshot(&bytes[..bytes.len() - 1]),
            Err(StorageError::Corrupt(_))
        ));
        // Bit flip in the body.
        let mut flipped = bytes.clone();
        flipped[MAGIC.len() + 20] ^= 0x40;
        assert!(matches!(
            decode_snapshot(&flipped),
            Err(StorageError::Corrupt(_))
        ));
        // Wrong magic.
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(
            decode_snapshot(&wrong),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn fsync_mode_parses_like_the_other_knobs() {
        assert_eq!(FsyncMode::parse(Some("always")), FsyncMode::Always);
        assert_eq!(FsyncMode::parse(Some(" ALWAYS ")), FsyncMode::Always);
        assert_eq!(
            FsyncMode::parse(Some("commit-batch")),
            FsyncMode::CommitBatch
        );
        assert_eq!(FsyncMode::parse(Some("off")), FsyncMode::Off);
        assert_eq!(FsyncMode::parse(Some("Off")), FsyncMode::Off);
        // Garbage, whitespace, unset: the safe default.
        assert_eq!(FsyncMode::parse(Some("banana")), FsyncMode::CommitBatch);
        assert_eq!(FsyncMode::parse(Some("")), FsyncMode::CommitBatch);
        assert_eq!(FsyncMode::parse(Some("  ")), FsyncMode::CommitBatch);
        assert_eq!(FsyncMode::parse(None), FsyncMode::CommitBatch);
    }
}
