//! Per-session state: the pinned snapshot, the prepared-query cache, and
//! the command dispatcher.
//!
//! ## Snapshot semantics
//!
//! A session reads from an epoch-stamped [`Snapshot`] pinned out of the
//! shared [`VersionedDatabase`]:
//!
//! * **Following (default).** Each command re-pins the latest committed
//!   version first — per-statement read-committed. A session's own commits
//!   are therefore immediately visible to it.
//! * **Pinned (`PIN`).** The session freezes on the current version;
//!   every subsequent read runs against that one frozen state no matter
//!   how many commits land, until `UNPIN` — or until the session falls
//!   more than [`crate::ServeConfig::max_staleness`] epochs behind, at
//!   which point it is re-pinned forward (the staleness bound keeps
//!   long-lived sessions from retaining arbitrarily old versions).
//!
//! ## Prepared-query cache
//!
//! `QUEL`/`MAYBE` texts are parsed, resolved, and logically planned once
//! per session ([`nullrel_query::prepare`]) and replayed on every
//! repetition ([`nullrel_query::run`] over [`Input::Prepared`]). Entries
//! are invalidated by schema evolution (the snapshot's schema version
//! moves) and evicted FIFO beyond [`PREPARED_CACHE_CAP`] texts.
//!
//! ## One entry point
//!
//! Every query request goes through [`nullrel_query::run`] or
//! [`nullrel_query::explain`]: `QUEL`/`MAYBE` as prepared queries, `EXPR`/
//! `EXPRMAYBE` as [`Input::Expr`] over the snapshot's universe, `EXPLAIN`/
//! `ANALYZE` as texts. So each request's flight record carries its band,
//! row counts and executed plan whichever surface it arrived on.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

use nullrel_core::tvl::Truth;
use nullrel_query::{explain, prepare, run, ExplainMode, Input, Prepared, QueryOutput};
use nullrel_storage::{Snapshot, VersionedDatabase};

use crate::metrics;
use crate::protocol::Request;
use crate::ServeConfig;

/// Prepared statements kept per session before FIFO eviction.
pub const PREPARED_CACHE_CAP: usize = 64;

/// One client session: its pinned snapshot and prepared-query cache.
pub struct Session {
    vdb: Arc<VersionedDatabase>,
    config: ServeConfig,
    snapshot: Arc<Snapshot>,
    explicit_pin: bool,
    prepared: HashMap<String, Prepared>,
    prepared_order: VecDeque<String>,
}

impl Session {
    /// Opens a session over the shared versioned database.
    pub fn new(vdb: Arc<VersionedDatabase>, config: ServeConfig) -> Self {
        let snapshot = vdb.pin();
        Session {
            vdb,
            config,
            snapshot,
            explicit_pin: false,
            prepared: HashMap::new(),
            prepared_order: VecDeque::new(),
        }
    }

    /// The epoch this session currently reads from.
    pub fn pinned_epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// Brings the session's snapshot up to date per the semantics above:
    /// following sessions always re-pin; pinned sessions re-pin only past
    /// the staleness bound.
    fn refresh(&mut self) {
        if !self.explicit_pin {
            self.snapshot = self.vdb.pin();
        } else if self.vdb.epoch().saturating_sub(self.snapshot.epoch()) > self.config.max_staleness
        {
            metrics::STALE_REPINS.inc();
            self.snapshot = self.vdb.pin();
        }
    }

    /// Looks a query up in the prepared cache, preparing (or re-preparing
    /// after schema evolution) on miss.
    fn prepared(&mut self, text: &str) -> Result<Prepared, String> {
        if let Some(hit) = self.prepared.get(text) {
            if hit.valid_for(self.snapshot.db()) {
                metrics::PREPARED_HITS.inc();
                nullrel_obs::recorder::annotate(|r| r.prepared_hit = true);
                return Ok(hit.clone());
            }
            metrics::PREPARED_INVALIDATIONS.inc();
            self.prepared.remove(text);
            self.prepared_order.retain(|t| t != text);
        }
        metrics::PREPARED_MISSES.inc();
        let prepared = prepare(self.snapshot.db(), text).map_err(|e| e.to_string())?;
        if self.prepared.len() >= PREPARED_CACHE_CAP {
            if let Some(oldest) = self.prepared_order.pop_front() {
                self.prepared.remove(&oldest);
            }
        }
        self.prepared.insert(text.to_owned(), prepared.clone());
        self.prepared_order.push_back(text.to_owned());
        Ok(prepared)
    }

    fn run_quel(&mut self, text: &str, band: Truth) -> Result<Vec<String>, String> {
        let prepared = self.prepared(text)?;
        let output = run(self.snapshot.db(), &prepared, band, self.config.options)
            .map_err(|e| e.to_string())?;
        Ok(render_output(&output))
    }

    fn run_expr(&mut self, text: &str, band: Truth) -> Result<Vec<String>, String> {
        let db = self.snapshot.db();
        let expr = crate::expr::parse_expr(text, db.universe())?;
        let output = run(
            db,
            Input::Expr(&expr, db.universe()),
            band,
            self.config.options,
        )
        .map_err(|e| e.to_string())?;
        Ok(crate::expr::render_rows(&output.rows, db.universe()))
    }

    fn run_explain(&self, text: &str, mode: ExplainMode) -> Result<Vec<String>, String> {
        explain(self.snapshot.db(), text, self.config.options, mode)
            .map(|report| vec![report.trim_end().to_owned()])
            .map_err(|e| e.to_string())
    }

    fn run_insert(&mut self, rest: &str) -> Result<Vec<String>, String> {
        let mut parts = split_quoted(rest)?;
        if parts.is_empty() {
            return Err("INSERT needs a table name".to_owned());
        }
        let table = parts.remove(0);
        let mut cells: Vec<(String, nullrel_core::value::Value)> = Vec::new();
        for part in &parts {
            let (col, raw) = part
                .split_once('=')
                .ok_or_else(|| format!("expected <col>=<value>, got {part}"))?;
            cells.push((col.to_owned(), parse_value(raw)?));
        }
        // Commit as a logical op: with a data directory attached this is
        // the durable hot path (one WAL record), and replay after a crash
        // runs the exact same interpreter.
        let op = nullrel_storage::LogicalOp::Insert { table, cells };
        let (epoch, affected) = self
            .vdb
            .commit_ops(std::slice::from_ref(&op))
            .map_err(|e| e.to_string())?;
        Ok(vec![format!("epoch={epoch} rows={}", affected[0])])
    }

    fn run_delete(&mut self, rest: &str) -> Result<Vec<String>, String> {
        let parts = split_quoted(rest)?;
        let [table, col, op, raw] = parts.as_slice() else {
            return Err("expected DELETE <table> <col> <op> <value>".to_owned());
        };
        let op = match op.as_str() {
            "=" => nullrel_core::CompareOp::Eq,
            "!=" => nullrel_core::CompareOp::Ne,
            "<" => nullrel_core::CompareOp::Lt,
            "<=" => nullrel_core::CompareOp::Le,
            ">" => nullrel_core::CompareOp::Gt,
            ">=" => nullrel_core::CompareOp::Ge,
            other => return Err(format!("unknown comparison {other}")),
        };
        let value = parse_value(raw)?;
        let logical = nullrel_storage::LogicalOp::Delete {
            table: table.clone(),
            column: col.clone(),
            op,
            value,
        };
        let (epoch, affected) = self
            .vdb
            .commit_ops(std::slice::from_ref(&logical))
            .map_err(|e| e.to_string())?;
        Ok(vec![format!("epoch={epoch} rows={}", affected[0])])
    }

    /// Executes one request, returning the `OK` payload lines. `QUIT` is
    /// handled by the connection loop before this point.
    pub fn handle(&mut self, request: &Request) -> Result<Vec<String>, String> {
        self.refresh();
        // Stamp the snapshot epoch onto the request's flight record (the
        // connection loop opened it before dispatching here).
        let epoch = self.snapshot.epoch();
        nullrel_obs::recorder::annotate(|r| r.epoch = Some(epoch));
        match request {
            Request::Quel(text) => self.run_quel(text, Truth::True),
            Request::Maybe(text) => self.run_quel(text, Truth::Ni),
            Request::Expr(text) => self.run_expr(text, Truth::True),
            Request::ExprMaybe(text) => self.run_expr(text, Truth::Ni),
            Request::Explain(text) => self.run_explain(text, ExplainMode::Executed),
            Request::Analyze(text) => self.run_explain(text, ExplainMode::Analyzed),
            Request::Insert(rest) => self.run_insert(rest),
            Request::Delete(rest) => self.run_delete(rest),
            Request::Pin => {
                self.snapshot = self.vdb.pin();
                self.explicit_pin = true;
                Ok(vec![format!("pinned={}", self.snapshot.epoch())])
            }
            Request::Unpin => {
                self.explicit_pin = false;
                self.snapshot = self.vdb.pin();
                Ok(vec![format!("pinned={}", self.snapshot.epoch())])
            }
            Request::Epoch => Ok(vec![
                format!("epoch={}", self.vdb.epoch()),
                format!("pinned={}", self.snapshot.epoch()),
                format!("schema={}", self.snapshot.db().schema_version()),
                format!("explicit={}", self.explicit_pin),
            ]),
            Request::Metrics => Ok(nullrel_obs::metrics::render_prometheus()
                .lines()
                .map(str::to_owned)
                .collect()),
            Request::Top(n) => Ok(crate::debug::render_top(*n)),
            Request::Slow(n) => Ok(crate::debug::render_slow(*n)),
            Request::TraceLast => crate::debug::render_trace_last(),
            Request::Health => Ok(crate::debug::render_health(
                self.vdb.epoch(),
                self.vdb.durability_status().as_ref(),
            )),
            Request::ResetStats => Ok(crate::debug::reset_stats()),
            Request::Quit => Ok(Vec::new()),
        }
    }
}

/// Renders a [`QueryOutput`] for the wire: `rows=<n>`, the `|`-separated
/// header, then one `|`-separated line per tuple (`-` for `ni` cells) —
/// the same table shape as [`QueryOutput::render`], prefixed with the
/// machine-checkable row count.
fn render_output(output: &QueryOutput) -> Vec<String> {
    let mut lines = Vec::with_capacity(output.rows.len() + 2);
    lines.push(format!("rows={}", output.rows.len()));
    lines.push(output.columns.join(" | "));
    for row in &output.rows {
        let cells: Vec<String> = output
            .column_attrs
            .iter()
            .map(|attr| {
                row.get(*attr)
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".to_owned())
            })
            .collect();
        lines.push(cells.join(" | "));
    }
    lines
}

/// Splits on whitespace, keeping double-quoted segments (which may embed
/// spaces) attached to their token; quotes are preserved so value parsing
/// can tell strings from numbers.
fn split_quoted(text: &str) -> Result<Vec<String>, String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    for c in text.chars() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                current.push('"');
            }
            c if c.is_whitespace() && !in_quotes => {
                if !current.is_empty() {
                    parts.push(std::mem::take(&mut current));
                }
            }
            c => current.push(c),
        }
    }
    if in_quotes {
        return Err("unterminated string".to_owned());
    }
    if !current.is_empty() {
        parts.push(current);
    }
    Ok(parts)
}

/// Parses a wire value: `"…"` is a string, otherwise an integer.
fn parse_value(raw: &str) -> Result<nullrel_core::value::Value, String> {
    if let Some(stripped) = raw.strip_prefix('"') {
        let inner = stripped
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string {raw}"))?;
        Ok(nullrel_core::value::Value::str(inner))
    } else {
        raw.parse::<i64>()
            .map(nullrel_core::value::Value::int)
            .map_err(|_| format!("expected an integer or \"string\", got {raw}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nullrel_core::value::Value;
    use nullrel_storage::{Database, SchemaBuilder};

    fn vdb() -> Arc<VersionedDatabase> {
        let mut db = Database::new();
        db.create_table(SchemaBuilder::new("PS").column("S#").column("P#"))
            .unwrap();
        let u = db.universe().clone();
        let t = db.table_mut("PS").unwrap();
        for (s, p) in [
            (Some("s1"), Some("p1")),
            (Some("s1"), Some("p2")),
            (Some("s2"), None),
        ] {
            let mut cells = Vec::new();
            if let Some(s) = s {
                cells.push(("S#", Value::str(s)));
            }
            if let Some(p) = p {
                cells.push(("P#", Value::str(p)));
            }
            t.insert_named(&u, &cells).unwrap();
        }
        Arc::new(VersionedDatabase::new(db))
    }

    fn session(vdb: &Arc<VersionedDatabase>) -> Session {
        Session::new(Arc::clone(vdb), ServeConfig::pinned_for_tests())
    }

    const QUERY: &str = "range of x is PS retrieve (x.S#) where x.P# = \"p1\"";

    /// The prepared-cache counters are process-wide, so the tests that move
    /// them take turns; otherwise one test's misses land inside another's
    /// before/after window.
    fn prepared_counters() -> std::sync::MutexGuard<'static, ()> {
        static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());
        COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn quel_round_trip_and_prepared_cache() {
        let _counters = prepared_counters();
        let vdb = vdb();
        let mut s = session(&vdb);
        let hits = metrics::PREPARED_HITS.get();
        let misses = metrics::PREPARED_MISSES.get();
        let out = s.handle(&Request::Quel(QUERY.to_owned())).unwrap();
        assert_eq!(out[0], "rows=1");
        assert_eq!(out[1], "x.S#");
        assert_eq!(out[2], "s1");
        let again = s.handle(&Request::Quel(QUERY.to_owned())).unwrap();
        assert_eq!(out, again);
        assert_eq!(metrics::PREPARED_MISSES.get(), misses + 1, "prepared once");
        assert!(metrics::PREPARED_HITS.get() > hits, "replayed from cache");

        // The maybe band sees the ni row.
        let maybe = s.handle(&Request::Maybe(QUERY.to_owned())).unwrap();
        assert_eq!(maybe[0], "rows=1");
        assert_eq!(maybe[2], "s2");
    }

    #[test]
    fn pinned_sessions_freeze_while_following_sessions_see_commits() {
        let _counters = prepared_counters();
        let vdb = vdb();
        let mut pinned = session(&vdb);
        let mut follower = session(&vdb);
        pinned.handle(&Request::Pin).unwrap();

        let mut writer = session(&vdb);
        let out = writer
            .handle(&Request::Insert("PS S#=\"s9\" P#=\"p1\"".to_owned()))
            .unwrap();
        assert_eq!(out, vec!["epoch=1 rows=1".to_owned()]);

        let frozen = pinned.handle(&Request::Quel(QUERY.to_owned())).unwrap();
        assert_eq!(frozen[0], "rows=1", "pinned session reads epoch 0");
        let fresh = follower.handle(&Request::Quel(QUERY.to_owned())).unwrap();
        assert_eq!(fresh[0], "rows=2", "following session reads epoch 1");

        pinned.handle(&Request::Unpin).unwrap();
        let after = pinned.handle(&Request::Quel(QUERY.to_owned())).unwrap();
        assert_eq!(after[0], "rows=2", "unpinned catches up");
    }

    #[test]
    fn staleness_bound_repins_long_pinned_sessions() {
        let _counters = prepared_counters();
        let vdb = vdb();
        let mut config = ServeConfig::pinned_for_tests();
        config.max_staleness = 2;
        let mut s = Session::new(Arc::clone(&vdb), config);
        s.handle(&Request::Pin).unwrap();
        let mut writer = session(&vdb);
        for i in 0..3 {
            writer
                .handle(&Request::Insert(format!("PS S#=\"sx{i}\" P#=\"p1\"")))
                .unwrap();
        }
        let out = s.handle(&Request::Quel(QUERY.to_owned())).unwrap();
        assert_eq!(out[0], "rows=4", "re-pinned past the staleness bound");
        assert_eq!(s.pinned_epoch(), 3);
    }

    #[test]
    fn schema_evolution_invalidates_prepared_entries() {
        let _counters = prepared_counters();
        let vdb = vdb();
        let mut s = session(&vdb);
        s.handle(&Request::Quel(QUERY.to_owned())).unwrap();
        let invalidations = metrics::PREPARED_INVALIDATIONS.get();
        vdb.commit(|db| {
            let (table, universe) = db.table_and_universe_mut("PS")?;
            table.add_column(universe, "QTY", None).map(|_| ())
        })
        .unwrap();
        let out = s.handle(&Request::Quel(QUERY.to_owned())).unwrap();
        assert_eq!(out[0], "rows=1");
        assert_eq!(metrics::PREPARED_INVALIDATIONS.get(), invalidations + 1);
    }

    #[test]
    fn expr_delete_epoch_and_errors() {
        let _counters = prepared_counters();
        let vdb = vdb();
        let mut s = session(&vdb);
        let out = s
            .handle(&Request::Expr(
                "(project (S#) (select (= P# \"p1\") (scan PS)))".to_owned(),
            ))
            .unwrap();
        assert_eq!(out[0], "rows=1");
        assert_eq!(out[1], "S#=s1");

        let out = s
            .handle(&Request::Delete("PS S# = \"s1\"".to_owned()))
            .unwrap();
        assert_eq!(out, vec!["epoch=1 rows=2".to_owned()]);

        let epoch = s.handle(&Request::Epoch).unwrap();
        assert_eq!(epoch[0], "epoch=1");
        assert_eq!(epoch[1], "pinned=1");
        assert_eq!(epoch[3], "explicit=false");

        assert!(s.handle(&Request::Quel("garbage".to_owned())).is_err());
        assert!(s.handle(&Request::Insert("NOPE S#=1".to_owned())).is_err());
        assert!(s
            .handle(&Request::Delete("PS S# ~ \"s1\"".to_owned()))
            .is_err());
        // Failed commits publish nothing.
        assert_eq!(vdb.epoch(), 1);
    }

    #[test]
    fn explain_and_metrics_render() {
        let vdb = vdb();
        let mut s = session(&vdb);
        let explain = s.handle(&Request::Explain(QUERY.to_owned())).unwrap();
        assert!(explain.iter().any(|l| l.contains("Project")), "{explain:?}");
        let analyze = s.handle(&Request::Analyze(QUERY.to_owned())).unwrap();
        assert!(analyze.iter().any(|l| l.contains("time=")), "{analyze:?}");
        let metrics = s.handle(&Request::Metrics).unwrap();
        assert!(metrics
            .iter()
            .any(|l| l.starts_with("nullrel_queries_executed_total")));
    }
}
