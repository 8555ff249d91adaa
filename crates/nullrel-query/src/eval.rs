//! Query evaluation under the paper's `ni` discipline: the lower bound
//! `‖Q‖∗` of Section 5.
//!
//! [`run`] is the one way to evaluate a query: a QUEL text, a [`Prepared`]
//! query or an algebra [`Expr`] ([`Input`]) against a [`Database`], in one
//! truth band. In the TRUE band the result contains only tuples whose
//! qualification evaluates to TRUE; FALSE and `ni` tuples are discarded
//! alike, which is what makes the evaluation a single pass needing no
//! tautology analysis. [`explain`] runs the same stages and reports the
//! executed plan instead of the rows.
//!
//! Evaluation runs through the `nullrel-exec` engine: the logical plan is
//! optimized (selection/projection pushdown — including through
//! union/difference branches — product → hash join, dangling-free
//! union-join → hash join), compiled onto physical operators with catalog
//! access paths, and executed as a pipeline. The engine covers the whole
//! algebra natively — set operators, division, and the union-join stream
//! through dedicated operators rather than escaping to a tree-walk
//! fallback. The per-operator counters — the engine-level continuation of
//! [`nullrel_storage::scan::ScanStats`] — are returned on
//! [`QueryOutput::stats`]. The original tree-walk evaluation survives as
//! [`execute_resolved_naive`], the correctness oracle of the differential
//! tests and benchmarks (and nothing else: the engine never calls it).

use std::time::{Duration, Instant};

use nullrel_core::algebra::{Expr, NoSource};
use nullrel_core::tuple::Tuple;
use nullrel_core::tvl::Truth;
use nullrel_core::universe::{AttrId, Universe};
use nullrel_core::value::Value;
use nullrel_core::xrel::XRelation;
use nullrel_exec::{fmt_duration, ExecStats, OptimizeOptions};
use nullrel_obs::{phase_timed, Phase, QueryTrace};
use nullrel_storage::Database;

use crate::analyze::ResolvedQuery;
use crate::error::QueryResult;
use crate::parser::parse;
use crate::plan::{plan, plan_access};

/// The result of evaluating a query: named columns plus result tuples.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Column labels, in target-list order (`e.NAME`, `e.E#`, …).
    pub columns: Vec<String>,
    /// The qualified attribute id of each column.
    pub column_attrs: Vec<AttrId>,
    /// The result tuples (a minimal representation: duplicates and
    /// subsumed tuples have been removed, as the algebra prescribes).
    pub rows: Vec<Tuple>,
    /// The query-local universe, for rendering.
    pub universe: Universe,
    /// Per-operator execution counters of the physical pipeline that
    /// produced the result (empty for the naive tree-walk path).
    pub stats: ExecStats,
}

impl QueryOutput {
    /// The executed physical plan, one operator per line, annotated with
    /// access-path counters.
    pub fn physical_plan(&self) -> String {
        self.stats.render()
    }
    /// The number of result tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// True if some result tuple has exactly these cells in column order
    /// (`None` matches a null cell).
    pub fn contains_row(&self, cells: &[Option<Value>]) -> bool {
        self.rows.iter().any(|row| {
            self.column_attrs
                .iter()
                .zip(cells.iter())
                .all(|(attr, want)| row.get(*attr) == want.as_ref())
        })
    }

    /// The values of one column across all result tuples (nulls skipped).
    pub fn column_values(&self, label: &str) -> Vec<Value> {
        let Some(idx) = self.columns.iter().position(|c| c == label) else {
            return Vec::new();
        };
        let attr = self.column_attrs[idx];
        self.rows
            .iter()
            .filter_map(|row| row.get(attr).cloned())
            .collect()
    }

    /// Renders the result as an ASCII table with `-` for nulls.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(" | "));
        out.push('\n');
        out.push_str(&"-".repeat(self.columns.join(" | ").len().max(4)));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = self
                .column_attrs
                .iter()
                .map(|attr| {
                    row.get(*attr)
                        .map(|v| v.to_string())
                        .unwrap_or_else(|| "-".to_owned())
                })
                .collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        if self.rows.is_empty() {
            out.push_str("(empty)\n");
        }
        out
    }
}

/// A query parsed, resolved, and logically planned once, ready to re-run
/// against any database state sharing the schema it was resolved under —
/// the cacheable unit of the query service's per-session prepared-query
/// cache. The physical stages (optimize, compile) deliberately stay per
/// execution: they consult the target snapshot's statistics and indexes,
/// which move epoch to epoch.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The query text (the cache key and trace label).
    pub text: String,
    /// The resolved query: query-local universe, range scopes, targets.
    pub resolved: ResolvedQuery,
    /// The logical access plan over the resolved scopes.
    pub expr: Expr,
    /// [`Database::schema_version`] at preparation time. A snapshot with a
    /// different schema version may resolve differently (tables or columns
    /// created, dropped, or renamed) — holders must re-prepare.
    pub schema_version: u64,
}

impl Prepared {
    /// True when this prepared query is still valid against `db`: the
    /// schema has not evolved since resolution.
    pub fn valid_for(&self, db: &Database) -> bool {
        self.schema_version == db.schema_version()
    }
}

/// Parses, resolves, and logically plans a query without executing it,
/// so a session can pay parse/resolve/plan once and [`run`] the
/// [`Prepared`] query many times.
pub fn prepare(db: &Database, text: &str) -> QueryResult<Prepared> {
    let ((resolved, expr), _) = parse_and_plan(db, text)?;
    Ok(Prepared {
        text: text.to_owned(),
        resolved,
        expr,
        schema_version: db.schema_version(),
    })
}

/// What [`run`] and [`explain`] evaluate.
#[derive(Debug, Clone, Copy)]
pub enum Input<'a> {
    /// A QUEL text, parsed, resolved and planned on every call.
    Text(&'a str),
    /// A query [`prepare`]d once. The caller is responsible for validity
    /// ([`Prepared::valid_for`]); running a stale prepared query against
    /// an evolved schema returns whatever the old plan still means, exactly
    /// like re-running a stale statement handle would.
    Prepared(&'a Prepared),
    /// An algebra expression over a universe — how set operators, division
    /// and the union-join, which QUEL does not cover, are run. It has no
    /// target list, so its output's `columns` and `column_attrs` are empty.
    Expr(&'a Expr, &'a Universe),
}

impl<'a> From<&'a str> for Input<'a> {
    fn from(text: &'a str) -> Self {
        Input::Text(text)
    }
}

impl<'a> From<&'a Prepared> for Input<'a> {
    fn from(prepared: &'a Prepared) -> Self {
        Input::Prepared(prepared)
    }
}

/// What an [`explain`] report shows of the executed physical plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainMode {
    /// `EXPLAIN`: every operator with its real access-path counters (rows
    /// examined/returned, `ni` rows, index usage, granted parallelism and
    /// per-worker rows) next to the optimizer's `est_rows` estimates.
    Executed,
    /// `EXPLAIN ANALYZE`: per-tuple operator timing armed, so each operator
    /// also reports its wall-clock self-time and share of the query, closed
    /// by a `phases:` line breaking the query into
    /// parse/plan/optimize/compile/run.
    Analyzed,
}

/// Evaluates a query through the physical engine in one truth band:
/// [`Truth::True`] is the `ni` lower bound `‖Q‖∗`, [`Truth::Ni`] the MAYBE
/// band — the tuples whose qualification evaluates to `ni`, run over the
/// plan as written, since the optimizer's rewrite rules are lower-bound
/// arguments. With [`OptimizeOptions::adaptive`] set, TRUE-band execution
/// is staged with cardinality feedback (re-optimization events land in
/// [`QueryOutput::stats`]).
pub fn run<'a>(
    db: &Database,
    input: impl Into<Input<'a>>,
    band: Truth,
    options: OptimizeOptions,
) -> QueryResult<QueryOutput> {
    let (_trace, planned, ran) = evaluate(db, input.into(), band, options, None)?;
    Ok(planned.into_output(ran.rel.into_tuples(), ran.stats))
}

/// The `--explain` report for a query (TRUE band): the logical plan, the
/// optimizer rules that fired (cost-based join ordering included), and the
/// executed physical plan — in the detail `mode` asks for — closed by the
/// plan's mean q-error so estimation drift is visible at a glance. With
/// [`OptimizeOptions::adaptive`] set, the physical section shows every
/// executed stage (operator labels suffixed `@stageN`) and the `re-opt@op`
/// events that re-planned the remaining stages.
pub fn explain<'a>(
    db: &Database,
    input: impl Into<Input<'a>>,
    options: OptimizeOptions,
    mode: ExplainMode,
) -> QueryResult<String> {
    // Arm per-tuple timing before anything runs: every operator the
    // compiler builds is wrapped in a `TimedOp` while the guard lives.
    let _timing = (mode == ExplainMode::Analyzed).then(nullrel_obs::TimingGuard::new);
    let (_trace, planned, ran) = evaluate(db, input.into(), Truth::True, options, Some(mode))?;
    let total = ran.start.elapsed();
    let stats = &ran.stats;
    let mut out = String::from("logical:\n");
    out.push_str(&planned.expr().explain(planned.universe()));
    if !ran.applied.is_empty() {
        out.push_str("rules:\n");
        for rule in &ran.applied {
            out.push_str("  ");
            out.push_str(rule);
            out.push('\n');
        }
        if mode == ExplainMode::Executed && stats.reoptimized() {
            // The rules above describe the *initial* static plan; the
            // re-opt events in the physical section replanned later
            // stages against observed statistics.
            out.push_str("  (initial plan — re-opt events below replanned later stages)\n");
        }
    }
    match mode {
        ExplainMode::Executed => {
            out.push_str("physical (executed):\n");
            out.push_str(&stats.render());
            out.push_str(&estimation_line(stats));
        }
        ExplainMode::Analyzed => {
            out.push_str("physical (analyzed):\n");
            out.push_str(&stats.render_analyze(ran.run));
            out.push_str(&estimation_line(stats));
            out.push_str("phases:");
            if let Planned::Text(_, _, (parse_d, plan_d)) = planned {
                out.push_str(&format!(
                    " parse={} plan={}",
                    fmt_duration(parse_d),
                    fmt_duration(plan_d)
                ));
            }
            out.push_str(&format!(
                " optimize={} compile={} run={} total={}\n",
                fmt_duration(ran.optimize),
                // Staged execution interleaves compile and run per stage;
                // the whole loop is reported as run time.
                ran.compile
                    .map_or_else(|| "(staged)".to_owned(), fmt_duration),
                fmt_duration(ran.run),
                fmt_duration(total)
            ));
        }
    }
    Ok(out)
}

/// The closing `estimation:` line of explain reports: the plan's mean
/// q-error when at least one operator carried a cardinality estimate,
/// `q-err=n/a` otherwise (e.g. literal-only plans with no catalog).
fn estimation_line(stats: &ExecStats) -> String {
    match stats.estimation_error() {
        Some(q) => format!(
            "estimation: mean q-error {q:.2} over {} operator(s)\n",
            stats.ops.iter().filter(|o| o.est_rows.is_some()).count()
        ),
        None => "estimation: q-err=n/a (no operator carried an estimate)\n".to_owned(),
    }
}

/// A query ready for the engine: its logical plan, and the resolution its
/// output columns come from.
#[allow(clippy::large_enum_variant)] // one per query, never boxed or stored
enum Planned<'a> {
    /// A text parsed and planned on this call, with both phases' times.
    Text(ResolvedQuery, Expr, (Duration, Duration)),
    Prepared(&'a Prepared),
    Expr(&'a Expr, &'a Universe),
}

impl Planned<'_> {
    fn expr(&self) -> &Expr {
        match self {
            Planned::Text(_, expr, _) => expr,
            Planned::Prepared(prepared) => &prepared.expr,
            Planned::Expr(expr, _) => expr,
        }
    }

    fn universe(&self) -> &Universe {
        match self {
            Planned::Text(resolved, ..) => &resolved.universe,
            Planned::Prepared(prepared) => &prepared.resolved.universe,
            Planned::Expr(_, universe) => universe,
        }
    }

    fn into_output(self, rows: Vec<Tuple>, stats: ExecStats) -> QueryOutput {
        match self {
            Planned::Text(resolved, ..) => {
                output(&resolved.targets, resolved.universe, rows, stats)
            }
            Planned::Prepared(prepared) => output(
                &prepared.resolved.targets,
                prepared.resolved.universe.clone(),
                rows,
                stats,
            ),
            Planned::Expr(_, universe) => output(&[], universe.clone(), rows, stats),
        }
    }
}

/// What the engine stages produced, and how long each took.
struct Ran {
    rel: XRelation,
    stats: ExecStats,
    /// The optimizer rules that fired (TRUE band only).
    applied: Vec<String>,
    /// When the query's flight record opened.
    start: Instant,
    optimize: Duration,
    /// `None` when execution was staged, interleaving compile and run.
    compile: Option<Duration>,
    run: Duration,
}

/// The body [`run`] and [`explain`] share: open the query's flight record,
/// parse and plan a text, then optimize (TRUE band only), compile and run,
/// and record what the execution did. The returned guard keeps the record
/// open while the caller shapes the result.
fn evaluate<'a>(
    db: &Database,
    input: Input<'a>,
    band: Truth,
    options: OptimizeOptions,
    explain: Option<ExplainMode>,
) -> QueryResult<(QueryTrace, Planned<'a>, Ran)> {
    let prefix = match (explain, band) {
        (Some(ExplainMode::Executed), _) => "EXPLAIN ",
        (Some(ExplainMode::Analyzed), _) => "EXPLAIN ANALYZE ",
        (None, Truth::Ni) => "MAYBE ",
        (None, _) => "",
    };
    let text = match input {
        Input::Text(text) => text,
        Input::Prepared(prepared) => &prepared.text,
        Input::Expr(..) => "(expr)",
    };
    let trace = nullrel_obs::begin_query([prefix, text].concat());
    let start = Instant::now();
    if band == Truth::Ni {
        nullrel_obs::recorder::annotate(|r| r.band = "MAYBE");
    }
    let planned = match input {
        Input::Text(text) => {
            let ((resolved, expr), parse_plan) = parse_and_plan(db, text)?;
            Planned::Text(resolved, expr, parse_plan)
        }
        Input::Prepared(prepared) => Planned::Prepared(prepared),
        Input::Expr(expr, universe) => Planned::Expr(expr, universe),
    };
    let (expr, universe) = (planned.expr(), planned.universe());
    // Staged execution optimizes, compiles and runs stage by stage under
    // its own phases; it is optimized here only for the rules an explain
    // report lists.
    let staged = band == Truth::True && options.adaptive.is_some();
    let optimized = (band == Truth::True && (!staged || explain.is_some())).then(|| {
        phase_timed(Phase::Optimize, || {
            nullrel_exec::optimize_with(expr, db, options)
        })
    });
    let (rel, stats, compile, run) = if staged {
        let run_start = Instant::now();
        let (rel, stats) = nullrel_exec::execute(expr, db, universe, band, options)?;
        (rel, stats, None, run_start.elapsed())
    } else {
        let plan = optimized.as_ref().map_or(expr, |(o, _)| &o.expr);
        let (pipeline, compile) = phase_timed(Phase::Compile, || {
            nullrel_exec::compile_with(plan, db, universe, band, options)
        });
        let pipeline = pipeline?;
        let (result, run) = phase_timed(Phase::Run, || pipeline.run());
        let (rel, stats) = result?;
        (rel, stats, Some(compile), run)
    };
    let (applied, optimize) =
        optimized.map_or((Vec::new(), Duration::ZERO), |(o, d)| (o.applied, d));
    let ran = Ran {
        rel,
        stats,
        applied,
        start,
        optimize,
        compile,
        run,
    };
    annotate_record(ran.rel.len(), &ran.stats);
    Ok((trace, planned, ran))
}

/// Parses a QUEL text and plans it over the catalog's access paths, each
/// half timed as a query lifecycle phase.
fn parse_and_plan(
    db: &Database,
    text: &str,
) -> QueryResult<((ResolvedQuery, Expr), (Duration, Duration))> {
    let (query, parse_d) = phase_timed(Phase::Parse, || parse(text));
    let query = query?;
    // Lazy resolution: the engine reads the tables through its own access
    // paths, so the per-range row copies would never be looked at.
    let (planned, plan_d) = phase_timed(Phase::Plan, || {
        let resolved = crate::analyze::resolve_lazy(db, &query)?;
        let expr = plan_access(&resolved);
        QueryResult::Ok((resolved, expr))
    });
    Ok((planned?, (parse_d, plan_d)))
}

/// Tells the flight record what the execution actually did. The closure
/// only runs while a record is in flight (recorder enabled and a
/// `begin_query` scope open on this thread).
fn annotate_record(rows_out: usize, stats: &ExecStats) {
    nullrel_obs::recorder::annotate(|r| {
        r.rows_in = stats.rows_examined() as u64;
        r.rows_out = rows_out as u64;
        r.batches = stats.batches() as u64;
        r.par_granted = stats.max_parallelism() as u32;
        r.par_used = stats.max_workers_used() as u32;
        r.q_error = stats.estimation_error();
        r.reopts = stats.reopts.len() as u32;
        r.mem_rows = stats.peak_mem_rows() as u64;
        r.mem_bytes = stats.peak_mem_bytes() as u64;
        r.plan = stats.render();
    });
}

/// The seed's tree-walk evaluation (`Expr::eval` over the literal plan):
/// a full Cartesian product of the range relations. Kept as the
/// correctness oracle for the engine's differential tests and as the
/// baseline of the `e12_physical_vs_naive` benchmark.
pub fn execute_resolved_naive(resolved: &ResolvedQuery) -> QueryResult<QueryOutput> {
    let expr = plan(resolved);
    let result = expr.eval(&NoSource)?;
    Ok(output(
        &resolved.targets,
        resolved.universe.clone(),
        result.into_tuples(),
        ExecStats::default(),
    ))
}

fn output(
    targets: &[(String, AttrId)],
    universe: Universe,
    rows: Vec<Tuple>,
    stats: ExecStats,
) -> QueryOutput {
    QueryOutput {
        columns: targets.iter().map(|(label, _)| label.clone()).collect(),
        column_attrs: targets.iter().map(|(_, attr)| *attr).collect(),
        rows,
        universe,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nullrel_storage::SchemaBuilder;

    /// The TRUE band under default options: the `ni` lower bound `‖Q‖∗`.
    fn lower_bound(db: &Database, text: &str) -> QueryResult<QueryOutput> {
        run(db, text, Truth::True, OptimizeOptions::default())
    }

    /// Builds the EMP relation of Table II (the TEL# column exists but every
    /// value is ni).
    pub fn emp_table_ii_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            SchemaBuilder::new("EMP")
                .required_column("E#")
                .column("NAME")
                .column("SEX")
                .column("MGR#")
                .column("TEL#")
                .key(&["E#"]),
        )
        .unwrap();
        let u = db.universe().clone();
        let t = db.table_mut("EMP").unwrap();
        for (e, n, s, m) in [
            (1120, "SMITH", "M", 2235),
            (4335, "BROWN", "F", 2235),
            (8799, "GREEN", "M", 1255),
        ] {
            t.insert_named(
                &u,
                &[
                    ("E#", Value::int(e)),
                    ("NAME", Value::str(n)),
                    ("SEX", Value::str(s)),
                    ("MGR#", Value::int(m)),
                ],
            )
            .unwrap();
        }
        db
    }

    /// Figure 1 / query Q_A: under the `ni` interpretation, employees with a
    /// null TEL# are *not* in the lower bound, so the answer is empty.
    #[test]
    fn figure1_lower_bound_is_empty_on_table_ii() {
        let db = emp_table_ii_db();
        let out = lower_bound(
            &db,
            "range of e is EMP retrieve (e.NAME, e.E#) \
             where (e.SEX = \"F\" and e.TEL# > 2634000) or (e.TEL# < 2634000)",
        )
        .unwrap();
        assert!(out.is_empty());
        assert_eq!(out.columns, vec!["e.NAME", "e.E#"]);
        assert!(out.render().contains("(empty)"));
    }

    /// Once a telephone number is recorded, the same query returns the row.
    #[test]
    fn figure1_returns_rows_once_information_arrives() {
        let mut db = emp_table_ii_db();
        let u = db.universe().clone();
        let e_no = u.lookup("E#").unwrap();
        let tel = u.lookup("TEL#").unwrap();
        db.table_mut("EMP")
            .unwrap()
            .update_where(
                &nullrel_core::Predicate::attr_const(e_no, nullrel_core::CompareOp::Eq, 4335),
                &[(tel, Some(Value::int(2_639_452)))],
            )
            .unwrap();
        let out = lower_bound(
            &db,
            "range of e is EMP retrieve (e.NAME, e.E#) \
             where (e.SEX = \"F\" and e.TEL# > 2634000) or (e.TEL# < 2634000)",
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains_row(&[Some(Value::str("BROWN")), Some(Value::int(4335))]));
        assert_eq!(out.column_values("e.NAME"), vec![Value::str("BROWN")]);
        assert!(out.render().contains("BROWN"));
    }

    /// Figure 2 / query Q_B on total data: the self-join finds employees with
    /// a male manager who do not manage themselves or their managers.
    #[test]
    fn figure2_self_join() {
        let mut db = emp_table_ii_db();
        let u = db.universe().clone();
        // Add the managers referenced by MGR# so the join has partners.
        let t = db.table_mut("EMP").unwrap();
        t.insert_named(
            &u,
            &[
                ("E#", Value::int(2235)),
                ("NAME", Value::str("JONES")),
                ("SEX", Value::str("M")),
                ("MGR#", Value::int(1255)),
            ],
        )
        .unwrap();
        t.insert_named(
            &u,
            &[
                ("E#", Value::int(1255)),
                ("NAME", Value::str("ADAMS")),
                ("SEX", Value::str("F")),
                ("MGR#", Value::int(2235)),
            ],
        )
        .unwrap();
        let out = lower_bound(
            &db,
            "range of e is EMP range of m is EMP retrieve (e.NAME) \
             where m.SEX = \"M\" and e.MGR# = m.E# and e.MGR# != e.E# and e.E# != m.MGR#",
        )
        .unwrap();
        // SMITH, BROWN (manager JONES, male) and ADAMS' manager JONES is male
        // but ADAMS manages JONES' manager? ADAMS(1255) manages 2235; JONES'
        // MGR# is 1255 = ADAMS' E#, so ADAMS is excluded by the last
        // condition. GREEN's manager 1255 is ADAMS (female) — excluded.
        let names = out.column_values("e.NAME");
        assert!(names.contains(&Value::str("SMITH")));
        assert!(names.contains(&Value::str("BROWN")));
        assert!(!names.contains(&Value::str("GREEN")));
        assert!(!names.contains(&Value::str("ADAMS")));
    }

    #[test]
    fn query_without_where_projects_everything() {
        let db = emp_table_ii_db();
        let out = lower_bound(&db, "range of e is EMP retrieve (e.SEX)").unwrap();
        // Projection collapses duplicates: M and F.
        assert_eq!(out.len(), 2);
        assert!(out.contains_row(&[Some(Value::str("M"))]));
        assert!(out.contains_row(&[Some(Value::str("F"))]));
        assert!(out.column_values("e.GHOST").is_empty());
    }

    #[test]
    fn errors_propagate_through_run() {
        let db = emp_table_ii_db();
        assert!(lower_bound(&db, "range of e is NOPE retrieve (e.X)").is_err());
        assert!(lower_bound(&db, "not a query at all").is_err());
    }

    /// Acceptance: a two-range equi-join query executes via `HashJoin`
    /// (visible in the physical plan) and agrees with the tree-walk oracle.
    #[test]
    fn equi_join_queries_run_as_hash_joins() {
        let db = emp_table_ii_db();
        let text = "range of e is EMP range of m is EMP retrieve (e.NAME) \
                    where e.MGR# = m.E#";
        let out = lower_bound(&db, text).unwrap();
        assert!(
            out.stats.used_hash_join(),
            "expected a hash join:\n{}",
            out.physical_plan()
        );
        assert!(out.physical_plan().contains("HashJoin e.MGR# = m.E#"));
        // No Product operator remains in the plan.
        assert!(!out.physical_plan().contains("Product"));

        let resolved = resolve(&db, &parse(text).unwrap()).unwrap();
        let oracle = execute_resolved_naive(&resolved).unwrap();
        assert_eq!(out.rows, oracle.rows);
        assert!(
            oracle.stats.ops.is_empty(),
            "the oracle bypasses the engine"
        );
    }

    /// Acceptance: `ScanStats` flow from the storage access path through
    /// the engine into `QueryOutput`.
    #[test]
    fn index_selection_reports_access_path_counters() {
        let mut db = emp_table_ii_db();
        let e_no = db.universe().lookup("E#").unwrap();
        db.table_mut("EMP")
            .unwrap()
            .create_index(vec![e_no])
            .unwrap();
        let out =
            lower_bound(&db, "range of e is EMP retrieve (e.NAME) where e.E# = 4335").unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.stats.used_index(), "plan:\n{}", out.physical_plan());
        assert_eq!(out.stats.rows_examined(), 1, "index probe touches one row");
        assert!(out.physical_plan().contains("IndexScan EMP [E# = 4335]"));

        // Without the index the same query scans all rows.
        let db2 = emp_table_ii_db();
        let out2 = lower_bound(
            &db2,
            "range of e is EMP retrieve (e.NAME) where e.E# = 4335",
        )
        .unwrap();
        assert_eq!(out2.rows, out.rows);
        assert!(!out2.stats.used_index());
        assert_eq!(out2.stats.rows_examined(), 3);
    }

    /// The MAYBE band of Figure 1 on Table II: every employee's telephone
    /// is `ni`, so all three rows are possible answers.
    #[test]
    fn maybe_band_is_requested_through_the_engine() {
        let db = emp_table_ii_db();
        let maybe = run(
            &db,
            "range of e is EMP retrieve (e.NAME, e.E#) \
             where (e.SEX = \"F\" and e.TEL# > 2634000) or (e.TEL# < 2634000)",
            Truth::Ni,
            OptimizeOptions::default(),
        )
        .unwrap();
        assert_eq!(maybe.len(), 3);
        assert_eq!(maybe.stats.ni_rows(), 3);
        // The sure band stays empty, as in the seed test above.
        let sure = lower_bound(&db, FIGURE_1_LIKE).unwrap();
        assert!(sure.is_empty());
    }

    const FIGURE_1_LIKE: &str = "range of e is EMP retrieve (e.NAME, e.E#) \
         where (e.SEX = \"F\" and e.TEL# > 2634000) or (e.TEL# < 2634000)";

    /// A prepared query re-runs identically to the one-shot path in both
    /// bands, tracks schema versions for invalidation, and keeps seeing
    /// fresh data across DML (which must not invalidate it).
    #[test]
    fn prepared_queries_replay_both_bands_and_track_schema() {
        let mut db = emp_table_ii_db();
        let prepared = prepare(&db, FIGURE_1_LIKE).unwrap();
        assert!(prepared.valid_for(&db));
        assert_eq!(prepared.schema_version, db.schema_version());

        let opts = OptimizeOptions::default();
        let sure = run(&db, &prepared, Truth::True, opts).unwrap();
        assert_eq!(sure.rows, lower_bound(&db, FIGURE_1_LIKE).unwrap().rows);
        assert_eq!(sure.columns, vec!["e.NAME", "e.E#"]);
        let maybe = run(&db, &prepared, Truth::Ni, opts).unwrap();
        assert_eq!(
            maybe.rows,
            run(&db, FIGURE_1_LIKE, Truth::Ni, opts).unwrap().rows
        );
        assert_eq!(maybe.len(), 3);

        // DML: still valid, and the prepared plan sees the new data.
        let u = db.universe().clone();
        let tel = u.lookup("TEL#").unwrap();
        let e_no = u.lookup("E#").unwrap();
        db.table_mut("EMP")
            .unwrap()
            .update_where(
                &nullrel_core::Predicate::attr_const(e_no, nullrel_core::CompareOp::Eq, 4335),
                &[(tel, Some(Value::int(2_639_452)))],
            )
            .unwrap();
        assert!(prepared.valid_for(&db), "DML must not invalidate");
        let after = run(&db, &prepared, Truth::True, opts).unwrap();
        assert_eq!(after.len(), 1);
        assert!(after.contains_row(&[Some(Value::str("BROWN")), Some(Value::int(4335))]));

        // DDL: schema evolution invalidates.
        let (table, universe) = db.table_and_universe_mut("EMP").unwrap();
        table.add_column(universe, "DEPT", None).unwrap();
        assert!(!prepared.valid_for(&db), "schema evolution invalidates");
    }

    use crate::analyze::resolve;
}
