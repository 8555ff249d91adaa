//! The write-ahead log: logical operations, binary record framing, and
//! replay.
//!
//! Durability follows the classic discipline: every committed mutation is
//! appended to `wal.log` as one **checksummed, length-prefixed record**
//! *before* the commit's epoch publishes, and
//! [`VersionedDatabase::open_with`](crate::VersionedDatabase::open_with)
//! reconstructs the database by replaying the log over the latest full snapshot (see
//! [`crate::persist`]). Records carry *logical* operations — insert,
//! delete, update, schema evolution — rather than physical pages: the
//! engine's state (rows, hash indexes, statistics reservoirs) is a
//! deterministic function of the operation sequence, so replaying the same
//! ops yields a bit-identical database, histograms included.
//!
//! ## Record framing
//!
//! ```text
//! [ u32 payload length | u64 FNV-1a-64(payload) | payload ]
//! payload = [ u64 epoch | u32 op count | ops… ]
//! ```
//!
//! All integers are little-endian. A crash mid-append leaves a **torn
//! tail**: a record whose length prefix overruns the file, or whose
//! checksum no longer matches its bytes. Replay stops at the first such
//! record — everything before it is a complete, verified prefix; the tail
//! is the commit that never acknowledged, and is discarded (then truncated
//! away by the next snapshot). The crash-recovery property tests assert
//! exactly this longest-verified-prefix semantics for truncation at
//! *every* byte offset.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use nullrel_core::tvl::CompareOp;
use nullrel_core::universe::{Domain, DomainType};
use nullrel_core::value::Value;

use crate::catalog::Database;
use crate::error::{StorageError, StorageResult};
use crate::persist::FsyncMode;
use crate::schema::SchemaBuilder;

/// One column of a [`TableSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSpec {
    /// The column name.
    pub name: String,
    /// The column's declared domain, if any.
    pub domain: Option<Domain>,
    /// Whether the column admits `ni` (key columns are forced non-null
    /// when the spec is applied, matching [`SchemaBuilder::key`]).
    pub nullable: bool,
}

/// A table schema as a logical operation payload — the loggable form of a
/// [`SchemaBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct TableSpec {
    /// The table name.
    pub name: String,
    /// Ordered column specifications.
    pub columns: Vec<ColumnSpec>,
    /// Primary key column names (empty = no key).
    pub key: Vec<String>,
}

impl TableSpec {
    /// The equivalent catalog builder.
    pub fn to_builder(&self) -> SchemaBuilder {
        let mut spec = SchemaBuilder::new(&self.name);
        for c in &self.columns {
            spec = match (&c.domain, c.nullable) {
                (Some(d), true) => spec.column_with_domain(&c.name, d.clone()),
                (Some(d), false) => spec.required_column_with_domain(&c.name, d.clone()),
                (None, true) => spec.column(&c.name),
                (None, false) => spec.required_column(&c.name),
            };
        }
        if !self.key.is_empty() {
            let key: Vec<&str> = self.key.iter().map(String::as_str).collect();
            spec = spec.key(&key);
        }
        spec
    }
}

/// One logical mutation, addressable by names rather than interned ids so
/// a record replays identically against a freshly reconstructed universe.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalOp {
    /// Create a table from a schema specification.
    CreateTable(TableSpec),
    /// Drop a table.
    DropTable {
        /// The table to drop.
        table: String,
    },
    /// Insert one row; columns absent from `cells` read `ni`.
    Insert {
        /// The target table.
        table: String,
        /// `(column name, value)` pairs.
        cells: Vec<(String, Value)>,
    },
    /// Delete every row where `column θ value` is TRUE (the lower-bound
    /// discipline of [`Table::delete_where`](crate::Table::delete_where)).
    Delete {
        /// The target table.
        table: String,
        /// The qualified column.
        column: String,
        /// The comparison operator θ.
        op: CompareOp,
        /// The compared constant.
        value: Value,
    },
    /// Update rows where `column θ value` is TRUE, setting `changes`
    /// (a `None` change nulls the cell out).
    Update {
        /// The target table.
        table: String,
        /// The qualified column.
        column: String,
        /// The comparison operator θ.
        op: CompareOp,
        /// The compared constant.
        value: Value,
        /// `(column name, new value)` pairs; `None` writes `ni`.
        changes: Vec<(String, Option<Value>)>,
    },
    /// Add a nullable column (the paper's Table I → Table II evolution).
    AddColumn {
        /// The target table.
        table: String,
        /// The new column's name.
        column: String,
        /// The new column's domain, if declared.
        domain: Option<Domain>,
    },
    /// Drop a non-key column.
    DropColumn {
        /// The target table.
        table: String,
        /// The column to drop.
        column: String,
    },
    /// Rename a column.
    RenameColumn {
        /// The target table.
        table: String,
        /// The current column name.
        from: String,
        /// The new column name.
        to: String,
    },
    /// Create a hash index over the named columns.
    CreateIndex {
        /// The target table.
        table: String,
        /// The indexed columns, in key order.
        columns: Vec<String>,
    },
}

/// Applies one logical operation to a database, returning the number of
/// rows it affected (0 for DDL). This is both the commit-time interpreter
/// behind [`VersionedDatabase::commit_ops`](
/// crate::VersionedDatabase::commit_ops) and the replay interpreter behind
/// [`VersionedDatabase::open_with`](crate::VersionedDatabase::open_with) —
/// one code path, so a replayed database cannot drift from the live one.
pub fn apply_op(db: &mut Database, op: &LogicalOp) -> StorageResult<u64> {
    match op {
        LogicalOp::CreateTable(spec) => {
            db.create_table(spec.to_builder())?;
            Ok(0)
        }
        LogicalOp::DropTable { table } => {
            db.drop_table(table)?;
            Ok(0)
        }
        LogicalOp::Insert { table, cells } => {
            let universe = db.universe().clone();
            let named: Vec<(&str, Value)> = cells
                .iter()
                .map(|(name, value)| (name.as_str(), value.clone()))
                .collect();
            db.table_mut(table)?.insert_named(&universe, &named)?;
            Ok(1)
        }
        LogicalOp::Delete {
            table,
            column,
            op,
            value,
        } => {
            let attr = resolve_column(db, table, column)?;
            let predicate =
                nullrel_core::predicate::Predicate::attr_const(attr, *op, value.clone());
            let removed = db.table_mut(table)?.delete_where(&predicate)?;
            Ok(removed as u64)
        }
        LogicalOp::Update {
            table,
            column,
            op,
            value,
            changes,
        } => {
            let attr = resolve_column(db, table, column)?;
            let mut resolved = Vec::with_capacity(changes.len());
            for (name, change) in changes {
                resolved.push((resolve_column(db, table, name)?, change.clone()));
            }
            let predicate =
                nullrel_core::predicate::Predicate::attr_const(attr, *op, value.clone());
            let updated = db.table_mut(table)?.update_where(&predicate, &resolved)?;
            Ok(updated as u64)
        }
        LogicalOp::AddColumn {
            table,
            column,
            domain,
        } => {
            let (t, u) = db.table_and_universe_mut(table)?;
            t.add_column(u, column, domain.clone())?;
            Ok(0)
        }
        LogicalOp::DropColumn { table, column } => {
            let attr = resolve_column(db, table, column)?;
            let (t, _u) = db.table_and_universe_mut(table)?;
            t.drop_column(attr)?;
            Ok(0)
        }
        LogicalOp::RenameColumn { table, from, to } => {
            let (t, u) = db.table_and_universe_mut(table)?;
            t.rename_column(u, from, to)?;
            Ok(0)
        }
        LogicalOp::CreateIndex { table, columns } => {
            let mut attrs = Vec::with_capacity(columns.len());
            for name in columns {
                attrs.push(resolve_column(db, table, name)?);
            }
            db.table_mut(table)?.create_index(attrs)?;
            Ok(0)
        }
    }
}

fn resolve_column(
    db: &Database,
    table: &str,
    column: &str,
) -> StorageResult<nullrel_core::universe::AttrId> {
    db.table(table)?
        .schema()
        .column_by_name(column)
        .map(|c| c.attr)
        .ok_or_else(|| StorageError::UnknownColumn(column.to_owned()))
}

// ----------------------------------------------------------------------
// Binary codec
// ----------------------------------------------------------------------

/// FNV-1a-64 — the same hash the flight recorder fingerprints with, reused
/// here as the record checksum (fast, dependency-free, and plenty for
/// torn-write detection; this is not a cryptographic integrity scheme).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub(crate) mod codec {
    //! Little-endian byte codec shared by WAL records and snapshot files.

    use super::*;

    pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_bool(out: &mut Vec<u8>, v: bool) {
        out.push(u8::from(v));
    }

    pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
        put_u32(out, s.len() as u32);
        out.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn put_value(out: &mut Vec<u8>, v: &Value) {
        match v {
            Value::Int(i) => {
                out.push(0);
                put_u64(out, *i as u64);
            }
            Value::Float(f) => {
                out.push(1);
                put_f64(out, f.get());
            }
            Value::Str(s) => {
                out.push(2);
                put_str(out, s);
            }
            Value::Bool(b) => {
                out.push(3);
                put_bool(out, *b);
            }
        }
    }

    pub(crate) fn put_opt_value(out: &mut Vec<u8>, v: &Option<Value>) {
        match v {
            Some(v) => {
                out.push(1);
                put_value(out, v);
            }
            None => out.push(0),
        }
    }

    pub(crate) fn put_domain(out: &mut Vec<u8>, d: &Domain) {
        match d {
            Domain::Unbounded(t) => {
                out.push(0);
                out.push(domain_type_tag(*t));
            }
            Domain::Enumerated(values) => {
                out.push(1);
                put_u32(out, values.len() as u32);
                for v in values {
                    put_value(out, v);
                }
            }
            Domain::IntRange(lo, hi) => {
                out.push(2);
                put_u64(out, *lo as u64);
                put_u64(out, *hi as u64);
            }
            Domain::Boolean => out.push(3),
        }
    }

    pub(crate) fn put_opt_domain(out: &mut Vec<u8>, d: &Option<Domain>) {
        match d {
            Some(d) => {
                out.push(1);
                put_domain(out, d);
            }
            None => out.push(0),
        }
    }

    fn domain_type_tag(t: DomainType) -> u8 {
        match t {
            DomainType::Int => 0,
            DomainType::Float => 1,
            DomainType::Str => 2,
            DomainType::Bool => 3,
        }
    }

    /// A bounds-checked cursor over a decoded buffer. Every overrun or
    /// invalid tag surfaces as [`StorageError::Corrupt`] rather than a
    /// panic — replay treats a corrupt record like a torn one.
    pub(crate) struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
            Reader { buf, pos: 0 }
        }

        pub(crate) fn is_done(&self) -> bool {
            self.pos == self.buf.len()
        }

        fn take(&mut self, n: usize) -> StorageResult<&'a [u8]> {
            let end = self
                .pos
                .checked_add(n)
                .filter(|end| *end <= self.buf.len())
                .ok_or_else(|| StorageError::Corrupt("payload overrun".into()))?;
            let slice = &self.buf[self.pos..end];
            self.pos = end;
            Ok(slice)
        }

        pub(crate) fn u8(&mut self) -> StorageResult<u8> {
            Ok(self.take(1)?[0])
        }

        pub(crate) fn u32(&mut self) -> StorageResult<u32> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
        }

        pub(crate) fn u64(&mut self) -> StorageResult<u64> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
        }

        pub(crate) fn f64(&mut self) -> StorageResult<f64> {
            Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
        }

        pub(crate) fn bool(&mut self) -> StorageResult<bool> {
            Ok(self.u8()? != 0)
        }

        pub(crate) fn str(&mut self) -> StorageResult<String> {
            let len = self.u32()? as usize;
            let bytes = self.take(len)?;
            String::from_utf8(bytes.to_vec())
                .map_err(|_| StorageError::Corrupt("invalid utf-8 string".into()))
        }

        pub(crate) fn value(&mut self) -> StorageResult<Value> {
            match self.u8()? {
                0 => Ok(Value::Int(self.u64()? as i64)),
                1 => Ok(Value::float(self.f64()?)),
                2 => Ok(Value::Str(self.str()?)),
                3 => Ok(Value::Bool(self.bool()?)),
                tag => Err(StorageError::Corrupt(format!("bad value tag {tag}"))),
            }
        }

        pub(crate) fn opt_value(&mut self) -> StorageResult<Option<Value>> {
            Ok(match self.u8()? {
                0 => None,
                _ => Some(self.value()?),
            })
        }

        pub(crate) fn domain(&mut self) -> StorageResult<Domain> {
            match self.u8()? {
                0 => Ok(Domain::Unbounded(self.domain_type()?)),
                1 => {
                    let n = self.u32()? as usize;
                    let mut values = Vec::with_capacity(n.min(1 << 16));
                    for _ in 0..n {
                        values.push(self.value()?);
                    }
                    Ok(Domain::Enumerated(values))
                }
                2 => Ok(Domain::IntRange(self.u64()? as i64, self.u64()? as i64)),
                3 => Ok(Domain::Boolean),
                tag => Err(StorageError::Corrupt(format!("bad domain tag {tag}"))),
            }
        }

        pub(crate) fn opt_domain(&mut self) -> StorageResult<Option<Domain>> {
            Ok(match self.u8()? {
                0 => None,
                _ => Some(self.domain()?),
            })
        }

        fn domain_type(&mut self) -> StorageResult<DomainType> {
            match self.u8()? {
                0 => Ok(DomainType::Int),
                1 => Ok(DomainType::Float),
                2 => Ok(DomainType::Str),
                3 => Ok(DomainType::Bool),
                tag => Err(StorageError::Corrupt(format!("bad domain type {tag}"))),
            }
        }
    }
}

use codec::{
    put_bool, put_opt_domain, put_opt_value, put_str, put_u32, put_u64, put_value, Reader,
};

fn compare_op_tag(op: CompareOp) -> u8 {
    match op {
        CompareOp::Eq => 0,
        CompareOp::Ne => 1,
        CompareOp::Lt => 2,
        CompareOp::Le => 3,
        CompareOp::Gt => 4,
        CompareOp::Ge => 5,
    }
}

fn compare_op_from_tag(tag: u8) -> StorageResult<CompareOp> {
    Ok(match tag {
        0 => CompareOp::Eq,
        1 => CompareOp::Ne,
        2 => CompareOp::Lt,
        3 => CompareOp::Le,
        4 => CompareOp::Gt,
        5 => CompareOp::Ge,
        _ => return Err(StorageError::Corrupt(format!("bad compare op tag {tag}"))),
    })
}

fn encode_op(out: &mut Vec<u8>, op: &LogicalOp) {
    match op {
        LogicalOp::CreateTable(spec) => {
            out.push(0);
            put_str(out, &spec.name);
            put_u32(out, spec.columns.len() as u32);
            for c in &spec.columns {
                put_str(out, &c.name);
                put_opt_domain(out, &c.domain);
                put_bool(out, c.nullable);
            }
            put_u32(out, spec.key.len() as u32);
            for k in &spec.key {
                put_str(out, k);
            }
        }
        LogicalOp::DropTable { table } => {
            out.push(1);
            put_str(out, table);
        }
        LogicalOp::Insert { table, cells } => {
            out.push(2);
            put_str(out, table);
            put_u32(out, cells.len() as u32);
            for (name, value) in cells {
                put_str(out, name);
                put_value(out, value);
            }
        }
        LogicalOp::Delete {
            table,
            column,
            op,
            value,
        } => {
            out.push(3);
            put_str(out, table);
            put_str(out, column);
            out.push(compare_op_tag(*op));
            put_value(out, value);
        }
        LogicalOp::Update {
            table,
            column,
            op,
            value,
            changes,
        } => {
            out.push(4);
            put_str(out, table);
            put_str(out, column);
            out.push(compare_op_tag(*op));
            put_value(out, value);
            put_u32(out, changes.len() as u32);
            for (name, change) in changes {
                put_str(out, name);
                put_opt_value(out, change);
            }
        }
        LogicalOp::AddColumn {
            table,
            column,
            domain,
        } => {
            out.push(5);
            put_str(out, table);
            put_str(out, column);
            put_opt_domain(out, domain);
        }
        LogicalOp::DropColumn { table, column } => {
            out.push(6);
            put_str(out, table);
            put_str(out, column);
        }
        LogicalOp::RenameColumn { table, from, to } => {
            out.push(7);
            put_str(out, table);
            put_str(out, from);
            put_str(out, to);
        }
        LogicalOp::CreateIndex { table, columns } => {
            out.push(8);
            put_str(out, table);
            put_u32(out, columns.len() as u32);
            for c in columns {
                put_str(out, c);
            }
        }
    }
}

fn decode_op(r: &mut Reader<'_>) -> StorageResult<LogicalOp> {
    match r.u8()? {
        0 => {
            let name = r.str()?;
            let n = r.u32()? as usize;
            let mut columns = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                columns.push(ColumnSpec {
                    name: r.str()?,
                    domain: r.opt_domain()?,
                    nullable: r.bool()?,
                });
            }
            let k = r.u32()? as usize;
            let mut key = Vec::with_capacity(k.min(1 << 16));
            for _ in 0..k {
                key.push(r.str()?);
            }
            Ok(LogicalOp::CreateTable(TableSpec { name, columns, key }))
        }
        1 => Ok(LogicalOp::DropTable { table: r.str()? }),
        2 => {
            let table = r.str()?;
            let n = r.u32()? as usize;
            let mut cells = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                cells.push((r.str()?, r.value()?));
            }
            Ok(LogicalOp::Insert { table, cells })
        }
        3 => Ok(LogicalOp::Delete {
            table: r.str()?,
            column: r.str()?,
            op: compare_op_from_tag(r.u8()?)?,
            value: r.value()?,
        }),
        4 => {
            let table = r.str()?;
            let column = r.str()?;
            let op = compare_op_from_tag(r.u8()?)?;
            let value = r.value()?;
            let n = r.u32()? as usize;
            let mut changes = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                changes.push((r.str()?, r.opt_value()?));
            }
            Ok(LogicalOp::Update {
                table,
                column,
                op,
                value,
                changes,
            })
        }
        5 => Ok(LogicalOp::AddColumn {
            table: r.str()?,
            column: r.str()?,
            domain: r.opt_domain()?,
        }),
        6 => Ok(LogicalOp::DropColumn {
            table: r.str()?,
            column: r.str()?,
        }),
        7 => Ok(LogicalOp::RenameColumn {
            table: r.str()?,
            from: r.str()?,
            to: r.str()?,
        }),
        8 => {
            let table = r.str()?;
            let n = r.u32()? as usize;
            let mut columns = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                columns.push(r.str()?);
            }
            Ok(LogicalOp::CreateIndex { table, columns })
        }
        tag => Err(StorageError::Corrupt(format!("bad op tag {tag}"))),
    }
}

/// Encodes one record payload: the committing epoch plus its ops.
fn encode_payload(epoch: u64, ops: &[LogicalOp]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    put_u64(&mut payload, epoch);
    put_u32(&mut payload, ops.len() as u32);
    for op in ops {
        encode_op(&mut payload, op);
    }
    payload
}

fn decode_payload(payload: &[u8]) -> StorageResult<WalRecord> {
    let mut r = Reader::new(payload);
    let epoch = r.u64()?;
    let n = r.u32()? as usize;
    let mut ops = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        ops.push(decode_op(&mut r)?);
    }
    if !r.is_done() {
        return Err(StorageError::Corrupt("trailing bytes in record".into()));
    }
    Ok(WalRecord { epoch, ops })
}

// ----------------------------------------------------------------------
// The log itself
// ----------------------------------------------------------------------

/// Bytes of frame overhead per record: the u32 length prefix plus the u64
/// checksum.
pub const FRAME_OVERHEAD: u64 = 12;

/// How many unsynced bytes the `commit-batch` fsync mode accumulates
/// before issuing a sync (always synced at snapshot/truncate points too).
const COMMIT_BATCH_SYNC_BYTES: u64 = 64 * 1024;

/// One decoded WAL record: the epoch the commit published and its ops.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The epoch this commit published.
    pub epoch: u64,
    /// The commit's logical operations, in application order.
    pub ops: Vec<LogicalOp>,
}

/// What replay found in a log file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayStatus {
    /// Complete, checksum-verified records decoded.
    pub records: u64,
    /// Whether a torn or checksum-failed tail was skipped.
    pub torn_tail: bool,
    /// Bytes of verified prefix (where the next append would start after
    /// a truncate-to-valid).
    pub verified_bytes: u64,
}

/// An append handle over `wal.log`.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    bytes: u64,
    unsynced: u64,
    fsync: FsyncMode,
    /// Set when a failed append could not be cut back off the log: its
    /// record may still replay, so no later record may follow it until
    /// the log is reopened (and recovery decides what it holds).
    poisoned: bool,
}

impl Wal {
    /// Opens (creating if missing) the log at `path` for appending.
    pub fn open(path: &Path, fsync: FsyncMode) -> StorageResult<Wal> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io_err)?;
        let bytes = file.metadata().map_err(io_err)?.len();
        Ok(Wal {
            file,
            path: path.to_owned(),
            bytes,
            unsynced: 0,
            fsync,
            poisoned: false,
        })
    }

    /// The log's current size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one framed, checksummed record and applies the configured
    /// fsync policy. On success the record is on its way to (or on,
    /// under `always`) stable storage — callers publish the epoch only
    /// after this returns. On error the log is cut back to where the
    /// record began, so nothing of it replays; if that cut fails, every
    /// later append errors until the log is reopened.
    pub fn append(&mut self, epoch: u64, ops: &[LogicalOp]) -> StorageResult<u64> {
        if self.poisoned {
            return Err(StorageError::Io(
                "write-ahead log holds an unacknowledged record; reopen the database".into(),
            ));
        }
        let payload = encode_payload(epoch, ops);
        let mut frame = Vec::with_capacity(payload.len() + FRAME_OVERHEAD as usize);
        put_u32(&mut frame, payload.len() as u32);
        put_u64(&mut frame, fnv64(&payload));
        frame.extend_from_slice(&payload);
        let start = self.bytes;
        let written = self.file.write_all(&frame).map_err(io_err).and_then(|()| {
            self.bytes += frame.len() as u64;
            self.unsynced += frame.len() as u64;
            match self.fsync {
                FsyncMode::Always => self.sync(),
                FsyncMode::CommitBatch if self.unsynced >= COMMIT_BATCH_SYNC_BYTES => self.sync(),
                _ => Ok(()),
            }
        });
        written.inspect_err(|_| self.rewind(start))?;
        Ok(self.bytes)
    }

    /// Cuts the log back to `offset` bytes — its size before a commit
    /// whose later step failed — so that commit leaves nothing to replay.
    /// The file is in append mode, so the next write lands at the new
    /// end. If the cut fails the log is poisoned until reopen.
    pub(crate) fn rewind(&mut self, offset: u64) {
        match self.file.set_len(offset) {
            Ok(()) => self.bytes = offset,
            Err(_) => self.poisoned = true,
        }
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> StorageResult<()> {
        self.file.sync_data().map_err(io_err)?;
        self.unsynced = 0;
        Ok(())
    }

    /// Empties the log — called right after a snapshot lands, which now
    /// carries everything the log recorded.
    pub fn truncate(&mut self) -> StorageResult<()> {
        self.file.set_len(0).map_err(io_err)?;
        self.bytes = 0;
        self.unsynced = 0;
        if !matches!(self.fsync, FsyncMode::Off) {
            self.sync()?;
        }
        Ok(())
    }
}

/// Reads every complete, checksum-verified record from a log file,
/// stopping (without error) at the first torn or corrupt tail record.
/// A missing file reads as an empty log.
pub fn read_records(path: &Path) -> StorageResult<(Vec<WalRecord>, ReplayStatus)> {
    let buf = match std::fs::read(path) {
        Ok(buf) => buf,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err(e)),
    };
    let mut records = Vec::new();
    let mut status = ReplayStatus::default();
    let mut pos = 0usize;
    while pos < buf.len() {
        let Some(rest) = buf.get(pos + FRAME_OVERHEAD as usize..) else {
            status.torn_tail = true;
            break;
        };
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4")) as usize;
        let checksum = u64::from_le_bytes(buf[pos + 4..pos + 12].try_into().expect("8"));
        let Some(payload) = rest.get(..len) else {
            status.torn_tail = true;
            break;
        };
        if fnv64(payload) != checksum {
            status.torn_tail = true;
            break;
        }
        match decode_payload(payload) {
            Ok(record) => records.push(record),
            Err(_) => {
                // A record whose bytes verify but do not decode is treated
                // like a torn tail: stop at the last good prefix.
                status.torn_tail = true;
                break;
            }
        }
        pos += FRAME_OVERHEAD as usize + len;
        status.records += 1;
        status.verified_bytes = pos as u64;
    }
    Ok((records, status))
}

pub(crate) fn io_err(e: std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<LogicalOp> {
        vec![
            LogicalOp::CreateTable(TableSpec {
                name: "EMP".into(),
                columns: vec![
                    ColumnSpec {
                        name: "E#".into(),
                        domain: Some(Domain::IntRange(0, 9999)),
                        nullable: false,
                    },
                    ColumnSpec {
                        name: "NAME".into(),
                        domain: None,
                        nullable: true,
                    },
                    ColumnSpec {
                        name: "SEX".into(),
                        domain: Some(Domain::Enumerated(vec![Value::str("M"), Value::str("F")])),
                        nullable: true,
                    },
                ],
                key: vec!["E#".into()],
            }),
            LogicalOp::Insert {
                table: "EMP".into(),
                cells: vec![
                    ("E#".into(), Value::int(1)),
                    ("NAME".into(), Value::str("ZÜRN")),
                ],
            },
            LogicalOp::Delete {
                table: "EMP".into(),
                column: "E#".into(),
                op: CompareOp::Ge,
                value: Value::int(100),
            },
            LogicalOp::Update {
                table: "EMP".into(),
                column: "NAME".into(),
                op: CompareOp::Eq,
                value: Value::str("ZÜRN"),
                changes: vec![("NAME".into(), Some(Value::str("X"))), ("SEX".into(), None)],
            },
            LogicalOp::AddColumn {
                table: "EMP".into(),
                column: "TEL#".into(),
                domain: Some(Domain::Unbounded(DomainType::Int)),
            },
            LogicalOp::RenameColumn {
                table: "EMP".into(),
                from: "NAME".into(),
                to: "FULL_NAME".into(),
            },
            LogicalOp::CreateIndex {
                table: "EMP".into(),
                columns: vec!["SEX".into()],
            },
            LogicalOp::DropColumn {
                table: "EMP".into(),
                column: "TEL#".into(),
            },
            LogicalOp::DropTable {
                table: "EMP".into(),
            },
        ]
    }

    #[test]
    fn every_op_round_trips_through_the_codec() {
        let ops = sample_ops();
        let payload = encode_payload(42, &ops);
        let record = decode_payload(&payload).unwrap();
        assert_eq!(record.epoch, 42);
        assert_eq!(record.ops, ops);
    }

    #[test]
    fn append_and_replay_round_trip() {
        let dir = std::env::temp_dir().join(format!("nullrel-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-roundtrip.log");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, FsyncMode::Off).unwrap();
        let ops = sample_ops();
        wal.append(1, &ops[..2]).unwrap();
        wal.append(2, &ops[2..]).unwrap();
        assert!(wal.bytes() > 0);
        let (records, status) = read_records(&path).unwrap();
        assert_eq!(status.records, 2);
        assert!(!status.torn_tail);
        assert_eq!(status.verified_bytes, wal.bytes());
        assert_eq!(records[0].epoch, 1);
        assert_eq!(records[0].ops, &ops[..2]);
        assert_eq!(records[1].ops, &ops[2..]);
        // Truncation after a snapshot empties the log.
        wal.truncate().unwrap();
        assert_eq!(wal.bytes(), 0);
        let (records, _) = read_records(&path).unwrap();
        assert!(records.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_and_corrupt_tails_stop_replay_at_the_verified_prefix() {
        let dir = std::env::temp_dir().join(format!("nullrel-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-torn.log");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, FsyncMode::Always).unwrap();
        let ops = sample_ops();
        wal.append(1, &ops[..2]).unwrap();
        let good = wal.bytes();
        wal.append(2, &ops[2..]).unwrap();
        drop(wal);
        // Tear the second record mid-payload.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..good as usize + 7]).unwrap();
        let (records, status) = read_records(&path).unwrap();
        assert_eq!(status.records, 1);
        assert!(status.torn_tail);
        assert_eq!(status.verified_bytes, good);
        assert_eq!(records[0].epoch, 1);
        // Flip one payload byte of the second record: checksum fails, same
        // verified prefix.
        let mut flipped = full.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xff;
        std::fs::write(&path, &flipped).unwrap();
        let (records, status) = read_records(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert!(status.torn_tail);
        assert_eq!(status.verified_bytes, good);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn apply_op_interprets_the_full_op_vocabulary() {
        let mut db = Database::new();
        let ops = sample_ops();
        // Create, insert, delete (no rows ≥ 100), update, evolve, rename,
        // index, drop column, drop table — end state: no tables.
        for op in &ops {
            apply_op(&mut db, op).unwrap();
        }
        assert_eq!(db.table_names().len(), 0);
        // Affected-row counts: the insert reports 1, the delete 0.
        let mut db = Database::new();
        assert_eq!(apply_op(&mut db, &ops[0]).unwrap(), 0);
        assert_eq!(apply_op(&mut db, &ops[1]).unwrap(), 1);
        assert_eq!(apply_op(&mut db, &ops[2]).unwrap(), 0);
        assert_eq!(apply_op(&mut db, &ops[3]).unwrap(), 1);
        // Unknown names surface as the usual storage errors.
        let missing = LogicalOp::Insert {
            table: "NOPE".into(),
            cells: vec![],
        };
        assert!(matches!(
            apply_op(&mut db, &missing),
            Err(StorageError::UnknownTable(_))
        ));
    }
}
