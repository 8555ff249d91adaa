//! The vectorized scan pipeline: batch-at-a-time execution of
//! scan → filter → project chains.
//!
//! [`VectorPipeOp`] fuses a materialised scan with an optional three-valued
//! filter and an optional projection into one operator that processes
//! **morsel-sized column batches** instead of pulling tuples one at a time.
//! Per batch it:
//!
//! 1. evaluates the fused predicate conjunct-wise over a shrinking
//!    selection vector under the paper's three-valued semantics — bare
//!    comparisons straight off the rows, composite conjuncts through
//!    [`ColumnBatch`] column gathers — producing a truth vector;
//! 2. turns the truth vector into a [`Selection`] — a selection vector of
//!    surviving row indices plus the maybe bitmap and `ni` count;
//! 3. materialises **only the survivors** (projecting if requested) and
//!    updates every fused stage's counters **once per batch**.
//!
//! Base-table scans feed the pipe *borrowed* row slices ([`RowSource`]):
//! where the scalar scan clones every stored row before its filter
//! rejects most of them, the vectorized pipe never materialises a
//! rejected row at all — the late-materialisation win that dominates its
//! speedup on selective scans.
//!
//! The fused plan keeps one [`OpStats`](crate::stats::OpStats) slot per
//! logical stage with the scalar operators' labels, depths, and counter
//! totals, so a vectorized plan differs from the tuple-at-a-time plan only
//! by its `batch=N` annotation — the differential suites assert the row
//! streams and counter totals are identical at every batch size, including
//! the degenerate `batch=1`.
//!
//! With a [`QueryPool`] attached (planner-granted degree > 1), batches fan
//! out as tasks on the query-lifetime pool and the per-worker claims land
//! in the top stage's `workers=[…]` spread; without one, the same batch
//! loop runs inline on the coordinator. Both paths emit rows in batch
//! order, byte-identical to the serial scalar chain.

use std::sync::Arc;

use nullrel_core::algebra::TupleStream;
use nullrel_core::batch::{ColumnBatch, Selection};
use nullrel_core::error::CoreResult;
use nullrel_core::predicate::Predicate;
use nullrel_core::tuple::Tuple;
use nullrel_core::tvl::Truth;
use nullrel_core::universe::{AttrId, AttrSet};
use nullrel_par::stage::morsels;
use nullrel_par::{run_tasks_labeled, QueryPool};
use nullrel_stats::BatchObserver;

use crate::op::StatsSlot;
use crate::optimize::split_and;

/// Where a vectorized pipe's rows come from.
///
/// Base-table scans *borrow* the stored rows ([`RowSource::Borrowed`]):
/// the pipe evaluates its fused predicate over borrowed batches and
/// materialises only the survivors — late materialisation proper, and the
/// bulk of the batch engine's advantage over the scalar scan, which
/// clones every stored row before the filter sees any of them. Literal
/// and renamed scans, whose rows are built during compilation, stay
/// owned ([`RowSource::Owned`]).
pub enum RowSource<'a> {
    /// Rows the pipe owns (literal scans, renamed scans).
    Owned(Vec<Tuple>),
    /// Rows borrowed from the execution source (base-table scans).
    Borrowed(&'a [Tuple]),
    /// Rows borrowed *individually* from the execution source — the shape
    /// an index probe produces ([`ExecSource::index_rows`]): references
    /// into the stored table that are not contiguous, so they cannot form
    /// a `&[Tuple]` slice. Late materialisation still applies — only
    /// residual-filter survivors are cloned.
    ///
    /// [`ExecSource::index_rows`]: crate::source::ExecSource::index_rows
    Probed(Vec<&'a Tuple>),
}

/// What one fused pipeline does to each batch: plain `Send + Sync` data,
/// shareable with pool workers.
#[derive(Debug, Clone)]
struct PipeSpec {
    filter: Option<FilterSpec>,
    project: Option<AttrSet>,
}

/// A filter stage pre-split into top-level conjuncts, each with its
/// gather list. Conjuncts are evaluated **selection-vector-wise**: each
/// one only gathers and compares the rows every earlier conjunct left
/// alive (three-valued `∧` is associative, and `False` absorbs, so a row
/// whose running truth is FALSE can never change band again — exactly the
/// rows later conjuncts skip). The final truth vector is identical to the
/// scalar engine's whole-tree evaluation, counters included.
#[derive(Debug, Clone)]
struct FilterSpec {
    conjuncts: Vec<(Predicate, Vec<(AttrId, AttrId)>)>,
    want: Truth,
}

/// Per-batch counter deltas, accumulated batch-at-a-time instead of
/// row-at-a-time (one slot update per batch, not per tuple).
#[derive(Debug, Clone, Copy, Default)]
struct BatchTotals {
    scanned: usize,
    ni_rows: usize,
    kept: usize,
}

impl BatchTotals {
    fn add(&mut self, other: &BatchTotals) {
        self.scanned += other.scanned;
        self.ni_rows += other.ni_rows;
        self.kept += other.kept;
    }
}

/// The filter kernel: conjunct-wise evaluation over a shrinking selection
/// vector. Every row starts live; a row is dropped the moment its running
/// truth hits FALSE (absorbing in Kleene ∧), so later conjuncts only ever
/// touch the survivors of earlier ones.
fn selection_of(filter: &FilterSpec, batch: &[Tuple]) -> CoreResult<Selection> {
    let mut truths = vec![Truth::True; batch.len()];
    let mut live: Vec<u32> = (0..batch.len() as u32).collect();
    for (conjunct, gather) in &filter.conjuncts {
        if live.is_empty() {
            break;
        }
        // A bare comparison conjunct evaluates straight off the rows at
        // the live positions — materialising a one-column batch just to
        // compare it against a constant costs more than the comparison.
        // Composite conjuncts (disjunctions, negations) gather their
        // columns once and run the columnar kernels.
        let evaluated: Vec<Truth> = match conjunct {
            Predicate::Cmp(cmp) => live
                .iter()
                .map(|&pos| cmp.eval(&batch[pos as usize]))
                .collect::<CoreResult<_>>()?,
            _ => ColumnBatch::gather_at(batch, &live, gather).eval_predicate(conjunct)?,
        };
        let mut still = Vec::with_capacity(live.len());
        for (j, &pos) in live.iter().enumerate() {
            let combined = truths[pos as usize].and(evaluated[j]);
            truths[pos as usize] = combined;
            if combined != Truth::False {
                still.push(pos);
            }
        }
        live = still;
    }
    Ok(Selection::from_truths(&truths, filter.want))
}

/// Runs the fused kernels over one owned batch slice. Surviving tuples
/// are *moved* out via the selection vector (`mem::take` leaves an empty
/// tuple behind, freed when the caller drops its storage) — the batch
/// representation copies predicate columns, never whole rows.
fn process(spec: &PipeSpec, batch: &mut [Tuple]) -> CoreResult<(Vec<Tuple>, BatchTotals)> {
    let scanned = batch.len();
    let (survivors, ni_rows) = match &spec.filter {
        Some(filter) => {
            let sel = selection_of(filter, batch)?;
            let mut kept = Vec::with_capacity(sel.keep.len());
            for &i in &sel.keep {
                kept.push(std::mem::take(&mut batch[i as usize]));
            }
            (kept, sel.ni_rows)
        }
        None => (batch.iter_mut().map(std::mem::take).collect(), 0),
    };
    let kept = survivors.len();
    let out = match &spec.project {
        Some(attrs) => survivors.iter().map(|t| t.project(attrs)).collect(),
        None => survivors,
    };
    Ok((
        out,
        BatchTotals {
            scanned,
            ni_rows,
            kept,
        },
    ))
}

/// The filter kernel over *non-contiguous* borrowed rows (index probes).
/// The columnar gather kernels need a contiguous `&[Tuple]`, which a
/// probe's `Vec<&Tuple>` cannot provide without materialising — so every
/// conjunct evaluates row-wise here, over the same shrinking selection
/// vector. Kleene `∧` is evaluated identically either way, so the truth
/// vector — and every counter derived from it — matches [`selection_of`].
fn selection_of_probed(filter: &FilterSpec, batch: &[&Tuple]) -> CoreResult<Selection> {
    let mut truths = vec![Truth::True; batch.len()];
    let mut live: Vec<u32> = (0..batch.len() as u32).collect();
    for (conjunct, _) in &filter.conjuncts {
        if live.is_empty() {
            break;
        }
        let mut still = Vec::with_capacity(live.len());
        for &pos in &live {
            let combined = truths[pos as usize].and(conjunct.eval(batch[pos as usize])?);
            truths[pos as usize] = combined;
            if combined != Truth::False {
                still.push(pos);
            }
        }
        live = still;
    }
    Ok(Selection::from_truths(&truths, filter.want))
}

/// The probed twin of [`process_ref`]: each batch row is an individual
/// borrow, survivors are cloned (or projected straight off the borrow)
/// exactly as in the contiguous case.
fn process_probed(spec: &PipeSpec, batch: &[&Tuple]) -> CoreResult<(Vec<Tuple>, BatchTotals)> {
    let scanned = batch.len();
    let (keep, ni_rows) = match &spec.filter {
        Some(filter) => {
            let sel = selection_of_probed(filter, batch)?;
            (sel.keep, sel.ni_rows)
        }
        None => ((0..batch.len() as u32).collect(), 0),
    };
    let kept = keep.len();
    let out = match &spec.project {
        Some(attrs) => keep
            .iter()
            .map(|&i| batch[i as usize].project(attrs))
            .collect(),
        None => keep.iter().map(|&i| batch[i as usize].clone()).collect(),
    };
    Ok((
        out,
        BatchTotals {
            scanned,
            ni_rows,
            kept,
        },
    ))
}

/// The borrowed twin of [`process`]: late materialisation proper. The
/// batch is a borrowed table slice; only the rows surviving the filter
/// are ever materialised — cloned, or projected straight off the borrow
/// when a projection is fused (the projection builds fresh tuples
/// anyway, so fusing it makes the survivor clone free too).
fn process_ref(spec: &PipeSpec, batch: &[Tuple]) -> CoreResult<(Vec<Tuple>, BatchTotals)> {
    let scanned = batch.len();
    let (keep, ni_rows) = match &spec.filter {
        Some(filter) => {
            let sel = selection_of(filter, batch)?;
            (sel.keep, sel.ni_rows)
        }
        None => ((0..batch.len() as u32).collect(), 0),
    };
    let kept = keep.len();
    let out = match &spec.project {
        Some(attrs) => keep
            .iter()
            .map(|&i| batch[i as usize].project(attrs))
            .collect(),
        None => keep.iter().map(|&i| batch[i as usize].clone()).collect(),
    };
    Ok((
        out,
        BatchTotals {
            scanned,
            ni_rows,
            kept,
        },
    ))
}

/// The fused batch-at-a-time scan pipeline operator.
///
/// Built by the compiler for `Select`/`Project` chains rooted at a
/// materialised scan; the scalar operators remain the path for everything
/// else, so the compiler stays total.
pub struct VectorPipeOp<'a> {
    rows: Option<RowSource<'a>>,
    /// Literal scans count `rows_in` as rows are read (no storage access
    /// path examined anything up front); named scans pre-absorbed their
    /// `ScanStats` at compile time exactly like the scalar [`ScanOp`].
    ///
    /// [`ScanOp`]: crate::op::ScanOp
    count_pulls: bool,
    batch_rows: usize,
    scan_stats: StatsSlot,
    filter: Option<(Predicate, Truth, StatsSlot)>,
    project: Option<(AttrSet, StatsSlot)>,
    pool: Option<Arc<QueryPool>>,
    out: Option<std::vec::IntoIter<Tuple>>,
}

impl<'a> VectorPipeOp<'a> {
    /// A vectorized pipe over owned scan rows (literal or renamed scans),
    /// processing `batch_rows`-row column batches. Add stages with
    /// [`VectorPipeOp::with_filter`] / [`VectorPipeOp::with_project`] and a
    /// worker pool with [`VectorPipeOp::with_pool`].
    pub fn new(
        rows: Vec<Tuple>,
        count_pulls: bool,
        scan_stats: StatsSlot,
        batch_rows: usize,
    ) -> Self {
        Self::from_source(RowSource::Owned(rows), count_pulls, scan_stats, batch_rows)
    }

    /// A vectorized pipe that *borrows* the scanned rows — the base-table
    /// access path: the stored rows are sliced into batches in place and
    /// only filter survivors are materialised.
    pub fn over(
        rows: &'a [Tuple],
        count_pulls: bool,
        scan_stats: StatsSlot,
        batch_rows: usize,
    ) -> Self {
        Self::from_source(
            RowSource::Borrowed(rows),
            count_pulls,
            scan_stats,
            batch_rows,
        )
    }

    /// A vectorized pipe over index-probed rows — individual borrows into
    /// the stored table ([`RowSource::Probed`]): the index access path
    /// with the same late materialisation as [`VectorPipeOp::over`].
    pub fn probe(
        rows: Vec<&'a Tuple>,
        count_pulls: bool,
        scan_stats: StatsSlot,
        batch_rows: usize,
    ) -> Self {
        Self::from_source(RowSource::Probed(rows), count_pulls, scan_stats, batch_rows)
    }

    /// A vectorized pipe over any [`RowSource`].
    pub fn from_source(
        rows: RowSource<'a>,
        count_pulls: bool,
        scan_stats: StatsSlot,
        batch_rows: usize,
    ) -> Self {
        let batch_rows = batch_rows.max(1);
        scan_stats.borrow_mut().batch_rows = batch_rows;
        VectorPipeOp {
            rows: Some(rows),
            count_pulls,
            batch_rows,
            scan_stats,
            filter: None,
            project: None,
            pool: None,
            out: None,
        }
    }

    /// Fuses a three-valued filter stage (any truth band) onto the pipe.
    pub fn with_filter(mut self, predicate: Predicate, want: Truth, stats: StatsSlot) -> Self {
        stats.borrow_mut().batch_rows = self.batch_rows;
        self.filter = Some((predicate, want, stats));
        self
    }

    /// Fuses a projection stage onto the pipe.
    pub fn with_project(mut self, attrs: AttrSet, stats: StatsSlot) -> Self {
        stats.borrow_mut().batch_rows = self.batch_rows;
        self.project = Some((attrs, stats));
        self
    }

    /// Attaches the query's worker pool: batches become pool tasks and the
    /// top stage records the granted degree plus per-worker claims.
    pub fn with_pool(mut self, pool: Arc<QueryPool>) -> Self {
        self.top_slot().borrow_mut().parallelism = pool.degree();
        self.pool = Some(pool);
        self
    }

    /// The pipe's output stage slot — where parallelism grants and worker
    /// spreads are recorded (matching the scalar plan, where the parallel
    /// operator is the chain's top).
    fn top_slot(&self) -> StatsSlot {
        if let Some((_, _, s)) = &self.filter {
            if self.project.is_none() {
                return s.clone();
            }
        }
        if let Some((_, s)) = &self.project {
            return s.clone();
        }
        if let Some((_, _, s)) = &self.filter {
            return s.clone();
        }
        self.scan_stats.clone()
    }

    /// Drains the scan and runs every batch through the fused kernels,
    /// inline or fanned out. Returns the output rows in batch order.
    fn run(&mut self) -> CoreResult<Vec<Tuple>> {
        let source = self.rows.take().expect("run exactly once");
        let spec = PipeSpec {
            filter: self.filter.as_ref().map(|(p, w, _)| {
                let mut conjuncts = Vec::new();
                split_and(p.clone(), &mut conjuncts);
                FilterSpec {
                    conjuncts: conjuncts
                        .into_iter()
                        .map(|c| {
                            let gather: Vec<(AttrId, AttrId)> =
                                c.attrs().iter().map(|&a| (a, a)).collect();
                            (c, gather)
                        })
                        .collect(),
                    want: *w,
                }
            }),
            project: self.project.as_ref().map(|(a, _)| a.clone()),
        };
        let mut totals = BatchTotals::default();
        let mut observer = BatchObserver::default();
        let mut batch_count = 0usize;
        let out: Vec<Tuple> = match (source, &self.pool) {
            (RowSource::Owned(rows), Some(pool)) => {
                // Pool tasks need owned batches — morsel the scan once.
                let batches = morsels(rows, self.batch_rows);
                batch_count = batches.len();
                let spec = Arc::new(spec);
                let task_spec = Arc::clone(&spec);
                let (outputs, workers) = pool.run(
                    "vector-pipe",
                    batches,
                    Arc::new(move |_w, _i, mut batch: Vec<Tuple>| {
                        let (out, t) = process(&task_spec, &mut batch)?;
                        Ok(((out, t), t.scanned, t.kept))
                    }),
                )?;
                let mut rows = Vec::new();
                for (out, t) in outputs {
                    observer.observe(t.scanned, out.len());
                    totals.add(&t);
                    rows.extend(out);
                }
                self.top_slot().borrow_mut().absorb_workers(&workers);
                rows
            }
            (RowSource::Owned(mut rows), None) => {
                // Inline, the scan vector is its own batch storage: each
                // batch is a slice window, survivors are moved out through
                // the selection vector, and the one vector is dropped at
                // the end — no per-morsel re-buffering.
                let mut out = Vec::new();
                let mut start = 0;
                while start < rows.len() {
                    let end = (start + self.batch_rows).min(rows.len());
                    let (kept, t) = process(&spec, &mut rows[start..end])?;
                    observer.observe(t.scanned, kept.len());
                    totals.add(&t);
                    out.extend(kept);
                    batch_count += 1;
                    start = end;
                }
                out
            }
            (RowSource::Borrowed(rows), pool) => {
                // Borrowed batches are plain subslices. The persistent
                // pool requires owned (`'static`) tasks, so a granted
                // degree > 1 fans out on scoped workers instead — same
                // claim discipline, same task-order output, and the
                // worker spread lands on the same top-stage slot.
                let degree = pool.as_ref().map(|p| p.degree()).unwrap_or(1);
                if degree > 1 && rows.len() > self.batch_rows {
                    let batches: Vec<&[Tuple]> = rows.chunks(self.batch_rows).collect();
                    batch_count = batches.len();
                    let (outputs, workers) = run_tasks_labeled(
                        "vector-pipe",
                        degree,
                        batches,
                        |_w, _i, batch: &[Tuple]| {
                            let (out, t) = process_ref(&spec, batch)?;
                            Ok(((out, t), t.scanned, t.kept))
                        },
                    )?;
                    let mut collected = Vec::new();
                    for (out, t) in outputs {
                        observer.observe(t.scanned, out.len());
                        totals.add(&t);
                        collected.extend(out);
                    }
                    self.top_slot().borrow_mut().absorb_workers(&workers);
                    collected
                } else {
                    let mut out = Vec::new();
                    for batch in rows.chunks(self.batch_rows) {
                        let (kept, t) = process_ref(&spec, batch)?;
                        observer.observe(t.scanned, kept.len());
                        totals.add(&t);
                        out.extend(kept);
                        batch_count += 1;
                    }
                    out
                }
            }
            (RowSource::Probed(rows), pool) => {
                // Index-probed rows are individual borrows; batches are
                // subslices of the probe's reference vector. Same fan-out
                // discipline as the contiguous borrowed path.
                let degree = pool.as_ref().map(|p| p.degree()).unwrap_or(1);
                if degree > 1 && rows.len() > self.batch_rows {
                    let batches: Vec<&[&Tuple]> = rows.chunks(self.batch_rows).collect();
                    batch_count = batches.len();
                    let (outputs, workers) = run_tasks_labeled(
                        "vector-pipe",
                        degree,
                        batches,
                        |_w, _i, batch: &[&Tuple]| {
                            let (out, t) = process_probed(&spec, batch)?;
                            Ok(((out, t), t.scanned, t.kept))
                        },
                    )?;
                    let mut collected = Vec::new();
                    for (out, t) in outputs {
                        observer.observe(t.scanned, out.len());
                        totals.add(&t);
                        collected.extend(out);
                    }
                    self.top_slot().borrow_mut().absorb_workers(&workers);
                    collected
                } else {
                    let mut out = Vec::new();
                    for batch in rows.chunks(self.batch_rows) {
                        let (kept, t) = process_probed(&spec, batch)?;
                        observer.observe(t.scanned, kept.len());
                        totals.add(&t);
                        out.extend(kept);
                        batch_count += 1;
                    }
                    out
                }
            }
        };
        // One slot update per stage per run — the batch path's whole
        // bookkeeping cost.
        {
            let mut scan = self.scan_stats.borrow_mut();
            if self.count_pulls {
                scan.rows_in += totals.scanned;
            }
            scan.rows_out += totals.scanned;
        }
        if let Some((_, _, stats)) = &self.filter {
            let mut f = stats.borrow_mut();
            f.rows_in += totals.scanned;
            f.ni_rows += totals.ni_rows;
            f.rows_out += totals.kept;
        }
        if let Some((_, stats)) = &self.project {
            let mut p = stats.borrow_mut();
            p.rows_in += totals.kept;
            p.rows_out += totals.kept;
        }
        nullrel_obs::metrics::BATCHES_PROCESSED.add(batch_count as u64);
        nullrel_obs::metrics::ROWS_VECTORIZED.add(totals.scanned as u64);
        if nullrel_obs::tracing_active() {
            nullrel_obs::event(format!("vector-pipe: {}", observer.summary()), "pipeline");
        }
        Ok(out)
    }
}

impl TupleStream for VectorPipeOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        if self.rows.is_some() {
            let rows = self.run()?;
            self.out = Some(rows.into_iter());
        }
        Ok(self.out.as_mut().expect("run above").next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{FilterOp, ProjectOp, ScanOp};
    use crate::stats::OpStats;
    use nullrel_core::tvl::CompareOp;
    use nullrel_core::universe::{attr_set, Universe};
    use nullrel_core::value::Value;

    fn slot(label: &str) -> StatsSlot {
        OpStats::slot(label, 0)
    }

    fn rows(n: i64) -> (Universe, AttrId, AttrId, Vec<Tuple>) {
        let mut u = Universe::new();
        let a = u.intern("A");
        let b = u.intern("B");
        let rows = (0..n)
            .map(|i| {
                let t = Tuple::new().with(a, Value::int(i % 13));
                if i % 5 == 0 {
                    t // B stays ni: the maybe band of any B predicate
                } else {
                    t.with(b, Value::int(i))
                }
            })
            .collect();
        (u, a, b, rows)
    }

    /// The fused pipe must match the scalar Scan→Filter→Project chain
    /// row-for-row AND counter-for-counter, at every batch size including
    /// the degenerate one-row batch, in both truth bands.
    #[test]
    fn fused_pipe_matches_scalar_chain_rows_and_counters() {
        let (_u, a, b, data) = rows(333);
        let pred = Predicate::attr_const(b, CompareOp::Ge, 100);
        let keep = attr_set([a]);
        for want in [Truth::True, Truth::Ni] {
            // Scalar oracle chain over the same literal scan.
            let (scan_s, filter_s, project_s) = (slot("Scan"), slot("Filter"), slot("Project"));
            let scalar = {
                let scan = ScanOp::counting(data.clone(), scan_s.clone());
                let filter = FilterOp::new(Box::new(scan), pred.clone(), want, filter_s.clone());
                let mut project = ProjectOp::new(Box::new(filter), keep.clone(), project_s.clone());
                project.drain_all().unwrap()
            };
            for batch in [1, 7, 64, 1024] {
                let (scan_v, filter_v, project_v) = (slot("Scan"), slot("Filter"), slot("Project"));
                let mut pipe = VectorPipeOp::new(data.clone(), true, scan_v.clone(), batch)
                    .with_filter(pred.clone(), want, filter_v.clone())
                    .with_project(keep.clone(), project_v.clone());
                let out = pipe.drain_all().unwrap();
                assert_eq!(out, scalar, "band={want:?} batch={batch}");
                for (v, s) in [
                    (&scan_v, &scan_s),
                    (&filter_v, &filter_s),
                    (&project_v, &project_s),
                ] {
                    let (v, s) = (v.borrow(), s.borrow());
                    assert_eq!(v.rows_in, s.rows_in, "band={want:?} batch={batch}");
                    assert_eq!(v.rows_out, s.rows_out, "band={want:?} batch={batch}");
                    assert_eq!(v.ni_rows, s.ni_rows, "band={want:?} batch={batch}");
                    assert_eq!(v.batch_rows, batch, "vectorized slots carry batch=N");
                }
            }
        }
    }

    /// Pool execution returns the same rows in the same order as the
    /// inline batch loop, and records worker claims on the top stage.
    #[test]
    fn pooled_pipe_matches_inline_and_records_workers() {
        let (_u, a, b, data) = rows(500);
        let pred = Predicate::attr_const(b, CompareOp::Lt, 400);
        let keep = attr_set([a, b]);
        let inline = {
            let mut pipe = VectorPipeOp::new(data.clone(), true, slot("Scan"), 32)
                .with_filter(pred.clone(), Truth::True, slot("Filter"))
                .with_project(keep.clone(), slot("Project"));
            pipe.drain_all().unwrap()
        };
        for threads in [1, 4] {
            let (scan_s, filter_s, project_s) = (slot("Scan"), slot("Filter"), slot("Project"));
            let pool = Arc::new(QueryPool::new(threads));
            let mut pipe = VectorPipeOp::new(data.clone(), true, scan_s, 32)
                .with_filter(pred.clone(), Truth::True, filter_s)
                .with_project(keep.clone(), project_s.clone())
                .with_pool(pool);
            let out = pipe.drain_all().unwrap();
            assert_eq!(out, inline, "threads={threads}");
            let top = project_s.borrow();
            assert_eq!(top.parallelism, threads);
            assert!(!top.workers.is_empty());
            assert_eq!(
                top.workers.iter().map(|w| w.rows_in).sum::<usize>(),
                data.len(),
                "every batch claimed exactly once"
            );
        }
    }

    /// The borrowed (zero-copy) pipe must produce the same rows and
    /// counters as the owned pipe, serially and fanned out, in both
    /// truth bands — only survivors are ever materialised, but nothing
    /// observable changes.
    #[test]
    fn borrowed_pipe_matches_owned() {
        let (_u, a, b, data) = rows(400);
        let pred = Predicate::attr_const(b, CompareOp::Ge, 250);
        let keep = attr_set([a]);
        for want in [Truth::True, Truth::Ni] {
            let (scan_o, filter_o, project_o) = (slot("Scan"), slot("Filter"), slot("Project"));
            let owned = {
                let mut pipe = VectorPipeOp::new(data.clone(), false, scan_o.clone(), 64)
                    .with_filter(pred.clone(), want, filter_o.clone())
                    .with_project(keep.clone(), project_o.clone());
                pipe.drain_all().unwrap()
            };
            for threads in [1, 4] {
                let (scan_b, filter_b, project_b) = (slot("Scan"), slot("Filter"), slot("Project"));
                let mut pipe = VectorPipeOp::over(&data, false, scan_b.clone(), 64)
                    .with_filter(pred.clone(), want, filter_b.clone())
                    .with_project(keep.clone(), project_b.clone())
                    .with_pool(Arc::new(QueryPool::new(threads)));
                let out = pipe.drain_all().unwrap();
                assert_eq!(out, owned, "band={want:?} threads={threads}");
                for (b_slot, o_slot) in [
                    (&scan_b, &scan_o),
                    (&filter_b, &filter_o),
                    (&project_b, &project_o),
                ] {
                    let (b_st, o_st) = (b_slot.borrow(), o_slot.borrow());
                    assert_eq!(
                        b_st.rows_out, o_st.rows_out,
                        "band={want:?} threads={threads}"
                    );
                    assert_eq!(
                        b_st.ni_rows, o_st.ni_rows,
                        "band={want:?} threads={threads}"
                    );
                }
                if threads > 1 {
                    let top = project_b.borrow();
                    assert!(!top.workers.is_empty(), "borrowed fan-out records workers");
                    assert_eq!(
                        top.workers.iter().map(|w| w.rows_in).sum::<usize>(),
                        data.len()
                    );
                }
            }
        }
    }

    /// The probed (non-contiguous borrow) pipe must match the owned pipe
    /// row-for-row and counter-for-counter — including a *composite*
    /// conjunct, which the owned path evaluates through the columnar
    /// gather kernels and the probed path row-wise.
    #[test]
    fn probed_pipe_matches_owned() {
        let (_u, a, b, data) = rows(400);
        let pred = Predicate::attr_const(b, CompareOp::Ge, 250).and(
            Predicate::attr_const(a, CompareOp::Lt, 5).or(Predicate::attr_const(
                b,
                CompareOp::Gt,
                380,
            )),
        );
        let keep = attr_set([a]);
        for want in [Truth::True, Truth::Ni] {
            let (scan_o, filter_o, project_o) = (slot("Scan"), slot("Filter"), slot("Project"));
            let owned = {
                let mut pipe = VectorPipeOp::new(data.clone(), false, scan_o.clone(), 64)
                    .with_filter(pred.clone(), want, filter_o.clone())
                    .with_project(keep.clone(), project_o.clone());
                pipe.drain_all().unwrap()
            };
            for threads in [1, 4] {
                let (scan_p, filter_p, project_p) = (slot("Scan"), slot("Filter"), slot("Project"));
                let probed: Vec<&Tuple> = data.iter().collect();
                let mut pipe = VectorPipeOp::probe(probed, false, scan_p.clone(), 64)
                    .with_filter(pred.clone(), want, filter_p.clone())
                    .with_project(keep.clone(), project_p.clone())
                    .with_pool(Arc::new(QueryPool::new(threads)));
                let out = pipe.drain_all().unwrap();
                assert_eq!(out, owned, "band={want:?} threads={threads}");
                for (p_slot, o_slot) in [
                    (&scan_p, &scan_o),
                    (&filter_p, &filter_o),
                    (&project_p, &project_o),
                ] {
                    let (p_st, o_st) = (p_slot.borrow(), o_slot.borrow());
                    assert_eq!(
                        p_st.rows_out, o_st.rows_out,
                        "band={want:?} threads={threads}"
                    );
                    assert_eq!(
                        p_st.ni_rows, o_st.ni_rows,
                        "band={want:?} threads={threads}"
                    );
                }
                if threads > 1 {
                    let top = project_p.borrow();
                    assert!(!top.workers.is_empty(), "probed fan-out records workers");
                    assert_eq!(
                        top.workers.iter().map(|w| w.rows_in).sum::<usize>(),
                        data.len()
                    );
                }
            }
        }
    }

    /// A filter-only pipe (no projection) records the par grant on the
    /// filter slot, and a scan-only pipe on the scan slot.
    #[test]
    fn top_slot_is_the_output_stage() {
        let (_u, _a, b, data) = rows(100);
        let pred = Predicate::attr_const(b, CompareOp::Ge, 0);
        let filter_s = slot("Filter");
        let pool = Arc::new(QueryPool::new(2));
        let mut pipe = VectorPipeOp::new(data.clone(), true, slot("Scan"), 16)
            .with_filter(pred, Truth::True, filter_s.clone())
            .with_pool(Arc::clone(&pool));
        pipe.drain_all().unwrap();
        assert_eq!(filter_s.borrow().parallelism, 2);
        assert!(!filter_s.borrow().workers.is_empty());
        let scan_s = slot("Scan");
        let mut bare = VectorPipeOp::new(data, true, scan_s.clone(), 16).with_pool(pool);
        bare.drain_all().unwrap();
        assert_eq!(scan_s.borrow().parallelism, 2);
    }
}
