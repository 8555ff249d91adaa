//! The traced pass: the same seeded request stream, driven through the
//! public functions of each layer with no socket in between, with a span
//! around every call. A layer's value is its median self time per read
//! request; storage layers are probed with fixed counts of commits.
//!
//! The spans live in this file, around the calls into each layer. A
//! request's real path is one opaque `Session::handle` call, so after it
//! returns the stages it ran are *replayed* on the same snapshot, one span
//! each. What the session spent beyond the replayed stages is
//! `serve.session_other_us`, and the pass fails when that share says the
//! ledger lost track of the time.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nullrel_core::algebra::Expr;
use nullrel_core::tvl::Truth;
use nullrel_core::{Universe, XRelation};
use nullrel_exec::{compile_with, optimize_with, OptimizeOptions};
use nullrel_query::{prepare, Prepared, QueryOutput};
use nullrel_serve::protocol::{self, Request as WireRequest};
use nullrel_serve::session::Session;
use nullrel_stats::Estimator;
use nullrel_storage::version::SNAPSHOTS_WRITTEN;
use nullrel_storage::wal::{self, Wal};
use nullrel_storage::{Database, FsyncMode, VersionedDatabase};

use crate::env::{
    checked_read, scratch_dir, seed_durable, serve_config, Env, Options, Tally, FSYNC,
    SNAPSHOT_WAL_BYTES,
};
use crate::measure::RECOVERY_TAIL_COMMITS;
use crate::oracle::Expected;
use crate::report::{readings, Json, RunResult};
use crate::stats::{median, percentile_sorted, sorted};
use crate::workload::{write_acknowledged, Writer};

/// Shares of `--seconds` given to the wire pass and the untraced
/// in-process pass; the traced pass gets the rest.
const WIRE_SHARE: f64 = 0.2;
const UNTRACED_SHARE: f64 = 0.2;
/// Requests whose spans are written to the trace file.
const DUMPED_REQUESTS: u64 = 2000;
/// The session may spend this share of its time outside the replayed
/// stages before the ledger counts as broken.
const MAX_UNATTRIBUTED: f64 = 0.10;
/// Commits timed by each storage probe.
const PROBE_COMMITS: usize = 60;
/// Commits of the writer's stream behind `storage.commit_p95_us` and
/// `storage.snapshots_written`.
const STREAM_COMMITS: usize = 500;
/// The spans whose mean self time per read request is a per-layer metric
/// of the same name plus `_us`.
const SPAN_LAYERS: [&str; 11] = [
    "serve.request_parse",
    "serve.session",
    "serve.encode",
    "query.parse",
    "query.plan",
    "query.render",
    "stats.estimate",
    "exec.optimize",
    "exec.compile",
    "exec.run",
    "core.minimize",
];

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share its identifier.
    pub request: u64,
    pub kind: Kind,
}

/// How a span relates to the work of its request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The interval of a call on the request's path or of its replay.
    Call,
    /// A call's share of its parent, measured by repeating the call alone
    /// and placed inside the parent, which this file cannot open.
    Placed,
    /// Extra work that repeats part of a sibling to size it. It counts
    /// neither against its parent's self time nor as a stage of the
    /// request.
    Probe,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Call => "call",
            Kind::Placed => "placed",
            Kind::Probe => "probe",
        }
    }
}

impl Span {
    fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_us();
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent,
            request,
            kind: Kind::Call,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Runs `f` inside a span.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(name, Some(parent), request);
        let value = f();
        self.close(id);
        (value, id)
    }

    /// Runs `f` as a probe beside the stages of `parent`.
    pub fn probe<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let (value, id) = self.timed(name, parent, request, f);
        self.spans[id].kind = Kind::Probe;
        value
    }

    /// Records `duration_us`, measured by repeating a call alone, as that
    /// call's share of `parent`: at its start, and never longer than it.
    pub fn place(&mut self, name: &'static str, parent: usize, duration_us: f64) {
        let p = &self.spans[parent];
        let (start_us, request) = (p.start_us, p.request);
        let end_us = start_us + duration_us.min(p.duration_us());
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent: Some(parent),
            request,
            kind: Kind::Placed,
        });
    }
}

/// Each span's self time: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_us).collect();
    for span in spans.iter().filter(|s| s.kind != Kind::Probe) {
        if let Some(parent) = span.parent {
            own[parent] -= span.duration_us();
        }
    }
    own
}

/// The spans as a chrome://tracing document, nested spans on one lane.
pub fn chrome_trace(spans: &[Span], workload: &str) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Json::obj([
                ("name", Json::Str(s.name.to_owned())),
                ("cat", Json::Str(crate::spec::layer_of(s.name).to_owned())),
                ("ph", Json::Str("X".to_owned())),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.duration_us())),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(1)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Int(id as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        ),
                        ("request", Json::Int(s.request)),
                        ("kind", Json::Str(s.kind.as_str().to_owned())),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::Str(workload.to_owned())),
        ("displayTimeUnit", Json::Str("ms".to_owned())),
        ("traceEvents", Json::Arr(events)),
    ])
}

/// The process's peak resident set (`VmHWM`), in megabytes.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("read status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// `/proc/self/stat` counts CPU time in ticks of 1/100 s on Linux.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU time of this process, in milliseconds.
fn cpu_ms() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("read stat: {e}"))?;
    // The command name may hold spaces; fields are counted after its `)`.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_owned())
    };
    // utime and stime are fields 14 and 15; `rest` starts at field 3.
    Ok((ticks(11)? + ticks(12)?) * 1000.0 / TICKS_PER_SECOND)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let begin = Instant::now();
    let value = f();
    (value, us(begin.elapsed()))
}

/// Exact counts, taken over the first cycle of the stream so they repeat
/// bit for bit on the same seed.
#[derive(Default)]
struct Counts {
    requests: u64,
    result_rows: u64,
    response_bytes: u64,
    rows_examined: u64,
}

/// Where the replayed stages of one request are recorded: under its
/// `replay` span.
struct Stages<'t> {
    tracer: &'t mut Tracer,
    replay: usize,
    request: u64,
}

impl Stages<'_> {
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.timed(name, self.replay, self.request, f).0
    }

    fn probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.probe(name, self.replay, self.request, f)
    }
}

/// Drives requests through a session in-process.
struct Driver<'a> {
    vdb: &'a Arc<VersionedDatabase>,
    answers: &'a HashMap<String, Expected>,
    session: Session,
    options: OptimizeOptions,
    /// Prepared statements for the replay, never evicted: whether a text
    /// pays parse and plan is decided by the session's own cache.
    prepared: HashMap<String, Prepared>,
    tally: &'a mut Tally,
}

impl<'a> Driver<'a> {
    fn new(
        vdb: &'a Arc<VersionedDatabase>,
        answers: &'a HashMap<String, Expected>,
        data_dir: &Path,
        tally: &'a mut Tally,
    ) -> Driver<'a> {
        let config = serve_config(data_dir);
        Driver {
            vdb,
            answers,
            session: Session::new(Arc::clone(vdb), config.clone()),
            options: config.options,
            prepared: HashMap::new(),
            tally,
        }
    }

    fn check_read(&mut self, line: &str, reply: &Result<Vec<String>, String>) {
        let ok = matches!(reply, Ok(lines) if self.answers[line].matches(lines));
        self.tally.record(ok, || {
            format!("in-process `{line}`: differs from the oracle's answer")
        });
    }

    /// An untraced request: what the connection loop does with one line,
    /// minus the socket. Returns the session's time.
    fn untraced(&mut self, line: &str) -> f64 {
        let request = WireRequest::parse(line).expect("the streams hold well-formed requests");
        let scope = nullrel_obs::begin_query(line.to_owned());
        let (reply, session_us) = timed(|| self.session.handle(&request));
        drop(scope);
        self.check_read(line, &reply);
        session_us
    }

    /// A traced read: the session call, then the stages it ran, replayed
    /// on the snapshot it read.
    fn traced_read(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        line: &str,
        counts: Option<&mut Counts>,
    ) {
        let root = tracer.open("request", None, id);
        let misses_before = nullrel_serve::metrics::PREPARED_MISSES.get();

        let parse = tracer.open("serve.request_parse", Some(root), id);
        let request = WireRequest::parse(line).expect("the streams hold well-formed requests");
        tracer.close(parse);

        let session = tracer.open("serve.session", Some(root), id);
        let scope = nullrel_obs::begin_query(line.to_owned());
        let reply = self.session.handle(&request);
        drop(scope);
        tracer.close(session);
        self.check_read(line, &reply);
        let missed = nullrel_serve::metrics::PREPARED_MISSES.get() > misses_before;

        let snapshot = self.vdb.pin();
        let db = snapshot.db();
        let replay = tracer.open("replay", Some(root), id);
        let mut stages = Stages {
            tracer: &mut *tracer,
            replay,
            request: id,
        };
        let (rows, examined) = match &request {
            WireRequest::Quel(text) => self.replay_quel(&mut stages, db, text, Truth::True, missed),
            WireRequest::Maybe(text) => self.replay_quel(&mut stages, db, text, Truth::Ni, missed),
            WireRequest::Expr(text) => self.replay_expr(&mut stages, db, text),
            other => panic!("no replay for {}", other.command_name()),
        };
        tracer.close(replay);

        let lines = reply.unwrap_or_default();
        let mut encoded = Vec::new();
        tracer.timed("serve.encode", root, id, || {
            protocol::write_ok(&mut encoded, &lines).expect("a Vec accepts every write")
        });
        tracer.close(root);
        if let Some(counts) = counts {
            counts.requests += 1;
            counts.result_rows += rows as u64;
            counts.response_bytes += encoded.len() as u64;
            counts.rows_examined += examined as u64;
        }
    }

    /// optimize (TRUE band only), compile and run, as
    /// `execute_expr_band_with` strings them together. Returns the result
    /// and the rows its scans examined.
    fn replay_engine(
        &self,
        stages: &mut Stages<'_>,
        db: &Database,
        expr: &Expr,
        universe: &Universe,
        band: Truth,
    ) -> (XRelation, usize) {
        // The statistics snapshot and walk that optimize and compile each
        // repeat for themselves.
        stages.probe("stats.estimate", || Estimator::new(db).estimate(expr));
        let optimized = (band == Truth::True)
            .then(|| stages.call("exec.optimize", || optimize_with(expr, db, self.options)));
        let plan = optimized.as_ref().map_or(expr, |o| &o.expr);
        let pipeline = stages
            .call("exec.compile", || {
                compile_with(plan, db, universe, band, self.options)
            })
            .expect("the session compiled the same plan");
        let (rel, stats) = stages
            .call("exec.run", || pipeline.run())
            .expect("the session ran the same pipeline");
        // The pipeline's sink minimises the result inside `run`; the
        // reference minimisation of the same rows sizes that share.
        let rows = rel.tuples().to_vec();
        stages.probe("core.minimize", || XRelation::from_tuples(rows));
        (rel, stats.rows_examined())
    }

    /// What `Session::run_quel` does: prepare on a cache miss, execute,
    /// render. Returns result rows and rows examined.
    fn replay_quel(
        &mut self,
        stages: &mut Stages<'_>,
        db: &Database,
        text: &str,
        band: Truth,
        missed: bool,
    ) -> (usize, usize) {
        if missed {
            let (_, parse_us) = timed(|| nullrel_query::parse(text));
            let (prepared, plan) =
                stages
                    .tracer
                    .timed("query.plan", stages.replay, stages.request, || {
                        prepare(db, text)
                    });
            stages.tracer.place("query.parse", plan, parse_us);
            self.prepared.insert(
                text.to_owned(),
                prepared.expect("the session prepared the same text"),
            );
        } else if !self.prepared.contains_key(text) {
            let prepared = prepare(db, text).expect("the session prepared the same text");
            self.prepared.insert(text.to_owned(), prepared);
        }
        let prepared = &self.prepared[text];
        let resolved = &prepared.resolved;
        let (rel, examined) =
            self.replay_engine(stages, db, &prepared.expr, &resolved.universe, band);
        let rows = rel.len();
        let output = QueryOutput {
            columns: resolved.targets.iter().map(|(l, _)| l.clone()).collect(),
            column_attrs: resolved.targets.iter().map(|(_, a)| *a).collect(),
            rows: rel.into_tuples(),
            universe: resolved.universe.clone(),
            stats: Default::default(),
        };
        stages.call("query.render", || output.render());
        (rows, examined)
    }

    /// What `Session::run_expr` does: parse, execute, render.
    fn replay_expr(&self, stages: &mut Stages<'_>, db: &Database, text: &str) -> (usize, usize) {
        let expr = stages
            .call("query.parse", || {
                nullrel_serve::expr::parse_expr(text, db.universe())
            })
            .expect("the session parsed the same expression");
        let (rel, examined) = self.replay_engine(stages, db, &expr, db.universe(), Truth::True);
        stages.call("query.render", || {
            nullrel_serve::expr::render_rows(rel.tuples(), db.universe())
        });
        (rel.len(), examined)
    }

    /// A traced commit: the session call only; the storage probes take the
    /// commit path apart.
    fn traced_write(&mut self, tracer: &mut Tracer, id: u64, writer: &mut Writer) {
        let op = writer.next_op();
        let root = tracer.open("request", None, id);
        let (request, _) = tracer.timed("serve.request_parse", root, id, || {
            WireRequest::parse(&op.line)
        });
        let request = request.expect("the writer's lines are well formed");
        let session = tracer.open("serve.session", Some(root), id);
        let scope = nullrel_obs::begin_query(op.line.clone());
        let reply = self.session.handle(&request);
        drop(scope);
        tracer.close(session);
        tracer.close(root);
        let ok = matches!(&reply, Ok(lines) if write_acknowledged(lines, op.rows));
        self.tally
            .record(ok, || format!("in-process `{}`: {reply:?}", op.line));
    }
}

/// The read requests of a traced pass, added up.
struct Ledger {
    requests: u64,
    /// Summed self time by span name.
    self_us: HashMap<&'static str, f64>,
    /// Summed duration of the replayed stages: what the ledger can name of
    /// the time the sessions took.
    stages_us: f64,
}

impl Ledger {
    fn of(spans: &[Span], is_read: &dyn Fn(u64) -> bool) -> Ledger {
        let own = self_times(spans);
        let mut ledger = Ledger {
            requests: 0,
            self_us: HashMap::new(),
            stages_us: 0.0,
        };
        for (i, span) in spans.iter().enumerate().filter(|(_, s)| is_read(s.request)) {
            *ledger.self_us.entry(span.name).or_insert(0.0) += own[i];
            if span.parent.is_none() {
                ledger.requests += 1;
            }
            // The stages the session ran are the replay's direct children.
            if span.kind == Kind::Call && span.parent.is_some_and(|p| spans[p].name == "replay") {
                ledger.stages_us += span.duration_us();
            }
        }
        ledger
    }

    /// A layer's value: its mean self time per read request. Means, not
    /// medians, so that the layers add up to the session and a stage only
    /// some requests run still shows.
    fn mean_us(&self, span: &str) -> f64 {
        self.self_us.get(span).copied().unwrap_or(0.0) / self.requests as f64
    }

    /// What the sessions spent beyond the replayed stages, per request.
    fn session_other_us(&self) -> f64 {
        self.mean_us("serve.session") - self.stages_us / self.requests as f64
    }
}

/// The storage layer, taken apart with fixed counts of one-row commits.
fn storage_probes(
    seed_db: &Database,
    seed: u64,
    out: &Path,
) -> Result<Vec<(&'static str, f64)>, String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("storage probe {what}: {e}");
    let mut values = Vec::new();
    let inserts = |seed: u64| {
        let mut writer = Writer::new(seed);
        std::iter::from_fn(move || Some(writer.next_op()))
            .filter(|op| op.rows == 1 && op.line.starts_with("INSERT"))
    };

    // pin: too short for the clock, so timed a thousand at a time.
    let mem = VersionedDatabase::new(seed_db.clone());
    let pins: Vec<f64> = (0..20)
        .map(|_| {
            timed(|| {
                for _ in 0..1000 {
                    std::hint::black_box(mem.pin());
                }
            })
            .1 / 1000.0
        })
        .collect();
    values.push(("storage.pin_us", median(&pins)));

    // In-memory commit: copy-on-write clone plus apply.
    let mut commit = Vec::new();
    for op in inserts(seed).take(PROBE_COMMITS) {
        let (r, t) = timed(|| mem.commit_ops(std::slice::from_ref(&op.op)));
        r.map_err(|e| err("commit_ops", &e))?;
        commit.push(t);
    }
    let commit_us = median(&commit);
    drop(mem);

    // apply_op alone: the first apply unshares EMP, the rest copy nothing.
    let mut scratch = seed_db.clone();
    let mut apply = Vec::new();
    for (i, op) in inserts(seed).take(PROBE_COMMITS + 1).enumerate() {
        let (r, t) = timed(|| wal::apply_op(&mut scratch, &op.op));
        r.map_err(|e| err("apply_op", &e))?;
        if i > 0 {
            apply.push(t);
        }
    }
    let apply_us = median(&apply);
    drop(scratch);
    values.push(("storage.commit_us", commit_us));
    values.push(("storage.apply_us", apply_us));
    values.push(("storage.clone_us", commit_us - apply_us));

    // Durable commits, no snapshot in the way: the log's exact growth.
    let dir = scratch_dir(out, "probe_wal")?;
    let durable = seed_durable(&dir, seed_db, u64::MAX)?;
    let wal_bytes = |v: &VersionedDatabase| v.durability_status().expect("durable").wal_bytes;
    let bytes_before = wal_bytes(&durable);
    for op in inserts(seed).take(PROBE_COMMITS) {
        durable
            .commit_ops(std::slice::from_ref(&op.op))
            .map_err(|e| err("durable commit_ops", &e))?;
    }
    values.push((
        "storage.wal_bytes_per_commit",
        (wal_bytes(&durable) - bytes_before) as f64 / PROBE_COMMITS as f64,
    ));

    // Full snapshots.
    let mut snapshot = Vec::new();
    for _ in 0..5 {
        let (r, t) = timed(|| durable.snapshot_now());
        r.map_err(|e| err("snapshot_now", &e))?;
        snapshot.push(t);
    }
    values.push(("storage.snapshot_us", median(&snapshot)));
    let snapshot_bytes = std::fs::metadata(dir.join(nullrel_storage::persist::SNAPSHOT_FILE))
        .map_err(|e| err("snapshot size", &e))?
        .len();
    let rows = durable.pin().db().total_rows();
    values.push((
        "storage.snapshot_bytes_per_row",
        snapshot_bytes as f64 / rows as f64,
    ));

    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);

    // Recovery: a bare snapshot, then the same snapshot plus a WAL tail.
    let dir = scratch_dir(out, "probe_recovery")?;
    let reopen = |dir: &Path| -> Result<f64, String> {
        let mut times = Vec::new();
        for _ in 0..3 {
            let (r, t) = timed(|| VersionedDatabase::open_with(dir, FSYNC, u64::MAX));
            r.map_err(|e| err("open_with", &e))?;
            times.push(t);
        }
        Ok(median(&times))
    };
    let durable = seed_durable(&dir, seed_db, u64::MAX)?;
    drop(durable);
    let bare_us = reopen(&dir)?;
    let durable =
        VersionedDatabase::open_with(&dir, FSYNC, u64::MAX).map_err(|e| err("open_with", &e))?;
    let mut writer = Writer::new(seed);
    for _ in 0..RECOVERY_TAIL_COMMITS {
        let op = writer.next_op();
        durable
            .commit_ops(std::slice::from_ref(&op.op))
            .map_err(|e| err("tail commit_ops", &e))?;
    }
    drop(durable);
    let tail_us = reopen(&dir)?;
    values.push((
        "storage.recovery_replay_us",
        (tail_us - bare_us) / RECOVERY_TAIL_COMMITS as f64,
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // The log alone, on a scratch file: an append under the served flush
    // policy, then an append with its fsync.
    let dir = scratch_dir(out, "probe_log")?;
    let mut append = Vec::new();
    let mut sync = Vec::new();
    let mut log = Wal::open(&dir.join("append.log"), FSYNC).map_err(|e| err("Wal::open", &e))?;
    for (epoch, op) in inserts(seed).take(PROBE_COMMITS).enumerate() {
        let (r, t) = timed(|| log.append(epoch as u64 + 1, std::slice::from_ref(&op.op)));
        r.map_err(|e| err("append", &e))?;
        append.push(t);
    }
    let mut log =
        Wal::open(&dir.join("sync.log"), FsyncMode::Off).map_err(|e| err("Wal::open", &e))?;
    for (epoch, op) in inserts(seed).take(PROBE_COMMITS / 2).enumerate() {
        let (r, t) = timed(|| {
            log.append(epoch as u64 + 1, std::slice::from_ref(&op.op))
                .and_then(|_| log.sync())
        });
        r.map_err(|e| err("append+sync", &e))?;
        sync.push(t);
    }
    values.push(("storage.wal_append_us", median(&append)));
    values.push(("storage.wal_sync_us", median(&sync)));
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);

    // The writer's stream at the served snapshot threshold: the tail of
    // the commit latency, and the snapshots that land inside it.
    let dir = scratch_dir(out, "probe_stream")?;
    let durable = seed_durable(&dir, seed_db, SNAPSHOT_WAL_BYTES)?;
    let snapshots_before = SNAPSHOTS_WRITTEN.get();
    let mut writer = Writer::new(seed);
    let mut stream = Vec::with_capacity(STREAM_COMMITS);
    for _ in 0..STREAM_COMMITS {
        let op = writer.next_op();
        let (r, t) = timed(|| durable.commit_ops(std::slice::from_ref(&op.op)));
        r.map_err(|e| err("stream commit_ops", &e))?;
        stream.push(t);
    }
    values.push((
        "storage.commit_p95_us",
        percentile_sorted(&sorted(&stream), 0.95),
    ));
    values.push((
        "storage.snapshots_written",
        (SNAPSHOTS_WRITTEN.get() - snapshots_before) as f64,
    ));
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(values)
}

/// Runs the traced pass of one workload and reports every per-layer
/// metric.
pub fn run(options: &Options) -> Result<RunResult, String> {
    let spec = options.workload;
    let mut tally = Tally::default();
    let mut env = Env::setup(options, "data", &mut tally)?;
    let seconds = options.seconds as f64;
    let cycle_len = env.cycle.len();

    // Wire pass, untraced: what the socket and the connection loop add,
    // and what the server's own counters say about these requests.
    let hits = nullrel_serve::metrics::PREPARED_HITS.get();
    let misses = nullrel_serve::metrics::PREPARED_MISSES.get();
    let executed = nullrel_obs::metrics::QUERIES_EXECUTED.get();
    let mut wire_us = Vec::new();
    let cpu_before = cpu_ms()?;
    let begin = Instant::now();
    let mut i = 0;
    while i < cycle_len.min(64) || begin.elapsed().as_secs_f64() < seconds * WIRE_SHARE {
        let line = &env.cycle[i % cycle_len].line;
        let latency = checked_read(&mut env.reader, line, &env.answers[line], &mut tally);
        wire_us.push(us(latency));
        i += 1;
    }
    let cpu_ms_per_op = (cpu_ms()? - cpu_before) / wire_us.len() as f64;
    let wire_p95_us = percentile_sorted(&sorted(&wire_us), 0.95);
    let sent = wire_us.len() as f64;
    let hits = (nullrel_serve::metrics::PREPARED_HITS.get() - hits) as f64;
    let misses = (nullrel_serve::metrics::PREPARED_MISSES.get() - misses) as f64;
    let records_per_request =
        (nullrel_obs::metrics::QUERIES_EXECUTED.get() - executed) as f64 / sent;
    // EXPR requests never consult the prepared cache.
    let hit_ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };

    // In-process, untraced: the session alone.
    let mut driver = Driver::new(&env.vdb, &env.answers, &env.data_dir, &mut tally);
    let mut untraced_us = Vec::new();
    let begin = Instant::now();
    let mut i = 0;
    while i < cycle_len.min(64) || begin.elapsed().as_secs_f64() < seconds * UNTRACED_SHARE {
        untraced_us.push(driver.untraced(&env.cycle[i % cycle_len].line));
        i += 1;
    }

    // Read before tracing starts: the spans of a long pass outweigh the
    // database.
    let rss = peak_rss_mb()?;

    // In-process, traced, on a session of its own: like a connection, it
    // meets every text for the first time once. At least one whole cycle,
    // so the exact counts cover the same requests on every run.
    let mut driver = Driver::new(&env.vdb, &env.answers, &env.data_dir, &mut tally);
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut write_ids: Vec<u64> = Vec::new();
    let traced_seconds = seconds * (1.0 - WIRE_SHARE - UNTRACED_SHARE);
    let begin = Instant::now();
    let (mut i, mut id) = (0usize, 0u64);
    while i < cycle_len || begin.elapsed().as_secs_f64() < traced_seconds {
        let line = &env.cycle[i % cycle_len].line;
        driver.traced_read(
            &mut tracer,
            id,
            line,
            (i < cycle_len).then_some(&mut counts),
        );
        id += 1;
        i += 1;
        // One commit per four reads where the workload has a writer.
        if spec.concurrent_writer && i % 4 == 0 {
            driver.traced_write(&mut tracer, id, &mut env.writer);
            write_ids.push(id);
            id += 1;
        }
    }
    drop(driver);

    let ledger = Ledger::of(&tracer.spans, &|r| write_ids.binary_search(&r).is_err());
    let session_us = ledger.mean_us("serve.session");
    let other_us = ledger.session_other_us();
    let unattributed = other_us.abs() / session_us;
    let untraced_mean_us = untraced_us.iter().sum::<f64>() / untraced_us.len() as f64;

    let probes = storage_probes(&env.seed_db, options.seed, &options.out)?;

    let mut values: HashMap<String, f64> = probes
        .into_iter()
        .map(|(name, v)| (name.to_owned(), v))
        .collect();
    for span in SPAN_LAYERS {
        values.insert(format!("{span}_us"), ledger.mean_us(span));
    }
    values.insert("serve.session_other_us".to_owned(), other_us);
    values.insert(
        "serve.wire_us".to_owned(),
        median(&wire_us) - median(&untraced_us),
    );
    values.insert("serve.wire_p95_us".to_owned(), wire_p95_us);
    values.insert("serve.prepared_hit_ratio".to_owned(), hit_ratio);
    values.insert(
        "serve.response_bytes".to_owned(),
        counts.response_bytes as f64 / counts.requests as f64,
    );
    values.insert(
        "core.result_rows".to_owned(),
        counts.result_rows as f64 / counts.requests as f64,
    );
    values.insert(
        "exec.rows_examined_per_row_out".to_owned(),
        counts.rows_examined as f64 / counts.result_rows.max(1) as f64,
    );
    values.insert("process.peak_rss_mb".to_owned(), rss);
    values.insert("process.cpu_ms_per_op".to_owned(), cpu_ms_per_op);
    values.insert("obs.records_per_request".to_owned(), records_per_request);
    values.insert("trace.unattributed_share".to_owned(), unattributed);
    values.insert(
        "trace.overhead_share".to_owned(),
        session_us / untraced_mean_us - 1.0,
    );

    // Conservation: the ledger must account for the session's time where
    // the engine dominates, and every request must leave one record.
    let conserved =
        !matches!(spec.name, "point_read" | "join_read") || unattributed <= MAX_UNATTRIBUTED;
    tally.record(conserved, || {
        format!("trace.unattributed_share {unattributed:.3} exceeds {MAX_UNATTRIBUTED}")
    });
    tally.record(records_per_request == 1.0, || {
        format!("obs.records_per_request is {records_per_request}, not 1.0")
    });

    // The trace file holds the first requests; statistics used them all.
    let dumped: Vec<Span> = tracer
        .spans
        .iter()
        .take_while(|s| s.request < DUMPED_REQUESTS)
        .cloned()
        .collect();
    let trace_path = options.out.join(format!("trace_{}.json", spec.name));
    std::fs::write(&trace_path, chrome_trace(&dumped, spec.name).compact())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let down = env.shutdown();
    down.remove_data_dir();

    println!(
        "workload {} seed {} traced pass: {} wire, {} untraced and {} traced requests, {} spans ({} requests in {})",
        spec.name,
        options.seed,
        wire_us.len(),
        untraced_us.len(),
        id,
        tracer.spans.len(),
        DUMPED_REQUESTS.min(id),
        trace_path.display()
    );
    let metrics = readings(
        crate::spec::PER_LAYER.iter().map(|m| (m.name, m.unit)),
        |name| values.get(name).copied(),
    );
    for m in &metrics {
        println!("{:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "operations: {} attempted, {} failed",
        tally.attempted, tally.failed
    );
    for example in &tally.examples {
        println!("  failed: {example}");
    }
    Ok(RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        request: u64,
    ) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            request,
            kind: Kind::Call,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_but_not_probes() {
        let mut t = Tracer::new();
        t.spans = vec![
            span("request", 0.0, 100.0, None, 0),
            span("replay", 10.0, 90.0, Some(0), 0),
            span("query.plan", 20.0, 60.0, Some(1), 0),
            Span {
                kind: Kind::Probe,
                ..span("core.minimize", 60.0, 85.0, Some(1), 0)
            },
        ];
        t.place("query.parse", 2, 15.0);
        assert_eq!(self_times(&t.spans), [20.0, 40.0, 25.0, 25.0, 15.0]);
        let placed = &t.spans[4];
        assert_eq!(
            (placed.start_us, placed.end_us, placed.kind),
            (20.0, 35.0, Kind::Placed)
        );
        // A call repeated alone may run longer than inside its parent; it
        // still cannot give the parent negative self time.
        t.place("query.parse", 2, 500.0);
        assert_eq!(t.spans[5].duration_us(), 40.0);
    }

    #[test]
    fn ledger_charges_the_session_for_what_the_stages_do_not_cover() {
        let spans = vec![
            span("request", 0.0, 300.0, None, 0),
            span("serve.session", 0.0, 100.0, Some(0), 0),
            span("replay", 100.0, 250.0, Some(0), 0),
            Span {
                kind: Kind::Probe,
                ..span("stats.estimate", 100.0, 140.0, Some(2), 0)
            },
            span("exec.compile", 140.0, 200.0, Some(2), 0),
            span("exec.run", 200.0, 230.0, Some(2), 0),
            span("request", 300.0, 400.0, None, 1),
            span("serve.session", 300.0, 400.0, Some(6), 1),
            span("request", 400.0, 500.0, None, 2),
            span("serve.session", 400.0, 450.0, Some(8), 2),
            span("replay", 450.0, 500.0, Some(8), 2),
            span("exec.run", 450.0, 490.0, Some(10), 2),
        ];
        let reads = Ledger::of(&spans, &|r| r != 1);
        assert_eq!(reads.requests, 2, "request 1 is a commit");
        assert_eq!(reads.mean_us("serve.session"), 75.0);
        assert_eq!(
            reads.mean_us("exec.compile"),
            30.0,
            "one request of two ran it"
        );
        assert_eq!(reads.mean_us("exec.run"), 35.0);
        assert_eq!(reads.mean_us("stats.estimate"), 20.0);
        assert_eq!(
            reads.mean_us("query.parse"),
            0.0,
            "absent spans count as zero"
        );
        assert_eq!(
            reads.session_other_us(),
            10.0,
            "(100 - 90) and (50 - 40) over two requests; the probe is not a stage"
        );
    }

    #[test]
    fn chrome_trace_keeps_parent_and_request() {
        let mut t = Tracer::new();
        let root = t.open("request", None, 7);
        let (_, child) = t.timed("exec.run", root, 7, || ());
        t.close(root);
        let doc = chrome_trace(&t.spans, "point_read");
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("no events");
        };
        assert_eq!(events.len(), 2);
        let args = events[child].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(root as u64));
        assert_eq!(args.get("request").and_then(Json::as_u64), Some(7));
        assert_eq!(
            events[child].get("cat").and_then(Json::as_str),
            Some("exec")
        );
        assert!(Json::parse(&doc.compact()).is_ok());
    }
}
