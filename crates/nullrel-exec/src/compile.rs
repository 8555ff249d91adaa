//! Compilation of a logical [`Expr`] into a pipeline of physical operators.
//!
//! The compiler walks the (optimized) logical plan and emits the cheapest
//! physical operator it can prove applicable:
//!
//! * `Select` over a named scan with an `attr = const` conjunct whose base
//!   column has a covering index becomes an **IndexScan** through
//!   [`ExecSource::index_probe`] — index selection is **cost-based**: when
//!   several conjuncts are index-covered, the one with the lowest
//!   estimated result cardinality (from the statistics catalog's distinct
//!   counts and `ni` fractions) wins.
//! * `ThetaJoin` on equality becomes a **HashJoin**, or an
//!   **IndexNestedLoopJoin** when a storage index covers the inner join
//!   key and the outer side is estimated small enough that per-row index
//!   probes beat building a hash table over the inner side; an enclosing
//!   `Select` donates any further cross-scope equality conjuncts to the
//!   join's key list and keeps the rest as a residual filter.
//! * Every remaining algebra node has a dedicated streaming operator: the
//!   set operators become [`UnionOp`]/[`DifferenceOp`]/[`IntersectOp`], the
//!   equijoin and union-join become [`EquiJoinOp`]/[`UnionJoinOp`] (hash
//!   equijoins on the normalized shared key, the latter with the
//!   dangling-tuple pass), division becomes [`DivisionOp`] (hash-grouped on
//!   the quotient attributes), and `Rename` over an arbitrary sub-plan
//!   becomes [`RenameOp`]. The compiler is **total** over [`Expr`] — the
//!   seed's tree-walk fallback is gone, so nothing in a pipeline ever
//!   re-enters `Expr::eval`.
//!
//! Every pipeline is rooted in a [`MinimizeOp`] sink, which reduces the
//! drained result to the canonical minimal x-relation representation.
//!
//! In the TRUE band the compiler annotates every operator's stats slot
//! with the optimizer's cardinality estimate (`est_rows`), so explain
//! reports show estimated next to actual row counts and
//! [`ExecStats::estimation_error`](crate::stats::ExecStats::estimation_error)
//! can quantify the estimator's q-error.

use std::sync::Arc;

use nullrel_core::algebra::{Expr, TupleStream};
use nullrel_core::error::{CoreError, CoreResult};
use nullrel_core::predicate::{Operand, Predicate};
use nullrel_core::tuple::Tuple;
use nullrel_core::tvl::{CompareOp, Truth};
use nullrel_core::universe::{AttrId, Universe};
use nullrel_core::value::Value;
use nullrel_core::xrel::XRelation;

use nullrel_par::QueryPool;
use nullrel_stats::Estimator;

use crate::op::{
    BoxedOp, DifferenceOp, DivisionOp, EquiJoinOp, FilterOp, HashJoinOp, IndexNestedLoopJoinOp,
    IntersectOp, MinimizeOp, ProductOp, ProjectOp, RenameOp, ScanOp, StatsSlot, TimedOp,
    UnionJoinOp, UnionOp,
};
use crate::optimize::{and_all, base_attr, extra_join_keys, scope_of, split_and, OptimizeOptions};
use crate::par_op::{
    ParDifferenceOp, ParDivisionOp, ParEquiJoinOp, ParFilterOp, ParHashJoinOp, ParMinimizeOp,
    ParProjectOp, ParXIntersectOp,
};
use crate::source::ExecSource;
use crate::stats::{ExecStats, OpStats};
use crate::vec_op::{RowSource, VectorPipeOp};

/// A compiled, ready-to-run physical pipeline. The lifetime ties the
/// pipeline to the execution source it was compiled against: index-nested-
/// loop joins probe the source's indexes while running.
pub struct Pipeline<'a> {
    // (not Debug: the operator tree holds trait objects)
    root: BoxedOp<'a>,
    slots: Vec<StatsSlot>,
}

impl Pipeline<'_> {
    /// Runs the pipeline to completion, returning the minimal result
    /// x-relation and the per-operator counters.
    pub fn run(mut self) -> CoreResult<(XRelation, ExecStats)> {
        // The tree-walk fallback is retired: every algebra node compiles to
        // a dedicated streaming operator. This assertion guards against a
        // future code path reintroducing an oracle-evaluated scan.
        debug_assert!(
            self.slots
                .iter()
                .all(|s| !s.borrow().label.starts_with("EvalScan")),
            "pipeline contains a tree-walk fallback scan"
        );
        let _span = nullrel_obs::span("pipeline", "pipeline");
        let tuples = self.root.drain_all()?;
        let stats = ExecStats::snapshot(&self.slots);
        stats.record_metrics();
        Ok((XRelation::from_antichain(tuples), stats))
    }

    /// Renders the physical plan shape (labels only; run the pipeline for
    /// counters).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for slot in &self.slots {
            let s = slot.borrow();
            out.push_str(&"  ".repeat(s.depth));
            out.push_str(&s.label);
            out.push('\n');
        }
        out
    }
}

/// Compiles a logical plan against a source of base relations. `universe`
/// is used only to render operator labels.
pub fn compile<'a, S: ExecSource>(
    expr: &Expr,
    source: &'a S,
    universe: &'a Universe,
) -> CoreResult<Pipeline<'a>> {
    compile_band(expr, source, universe, Truth::True)
}

/// [`compile`] with an explicit truth band: filters keep rows whose
/// predicate evaluates to `band`. `Truth::Ni` selects the MAYBE band —
/// pass an *unoptimized* plan in that case, since the pushdown rules are
/// proved only for the TRUE lower bound.
pub fn compile_band<'a, S: ExecSource>(
    expr: &Expr,
    source: &'a S,
    universe: &'a Universe,
    band: Truth,
) -> CoreResult<Pipeline<'a>> {
    compile_with(expr, source, universe, band, OptimizeOptions::default())
}

/// [`compile_band`] with explicit engine options: the degree-of-parallelism
/// ceiling and the fan-out row threshold live on
/// [`OptimizeOptions`]. When the ceiling allows more than one worker, every
/// operator whose estimated input cardinality clears the threshold compiles
/// to its partitioned `nullrel-par` form (morsel filters/projections,
/// partitioned hash/equi/union joins, and the partitioned `Minimize` sink);
/// everything else — and the entire plan at `threads = 1` — compiles to the
/// byte-identical serial operators.
pub fn compile_with<'a, S: ExecSource>(
    expr: &Expr,
    source: &'a S,
    universe: &'a Universe,
    band: Truth,
    options: OptimizeOptions,
) -> CoreResult<Pipeline<'a>> {
    let mut c = Compiler {
        source,
        universe,
        band,
        options,
        slots: Vec::new(),
        pool: None,
        estimator: Estimator::new(source),
        // Captured once per compilation: `EXPLAIN ANALYZE` holds the
        // timing guard across compile + run, so the whole pipeline either
        // carries timing wrappers or (the normal case) none at all.
        timing: nullrel_obs::timing_active(),
    };
    // One estimator walk serves both the sink's annotation and its
    // fan-out decision.
    let estimate = c.estimator.estimate(expr);
    let est = (band == Truth::True).then(|| estimate.rounded_rows());
    let minimize = c.slot_est("Minimize", 0, est);
    let degree = c.degree(estimate.rows);
    let input = c.build(expr, 1)?;
    let root: BoxedOp<'a> = if degree > 1 {
        Box::new(ParMinimizeOp::new(input, c.pool(), minimize.clone()))
    } else {
        Box::new(MinimizeOp::new(input, minimize.clone()))
    };
    let root = c.timed(root, &minimize);
    Ok(Pipeline {
        root,
        slots: c.slots,
    })
}

struct Compiler<'a, S: ExecSource> {
    source: &'a S,
    universe: &'a Universe,
    band: Truth,
    options: OptimizeOptions,
    slots: Vec<StatsSlot>,
    /// The query-lifetime worker pool, created lazily the first time any
    /// operator of this compilation is granted a degree above 1 and shared
    /// by every parallel operator of the pipeline — worker threads are
    /// spawned once per query, not once per operator.
    pool: Option<Arc<QueryPool>>,
    estimator: Estimator<'a, S>,
    timing: bool,
}

impl<'a, S: ExecSource> Compiler<'a, S> {
    fn slot(&mut self, label: impl Into<String>, depth: usize) -> StatsSlot {
        let slot = OpStats::slot(label, depth);
        self.slots.push(slot.clone());
        slot
    }

    /// Wraps a freshly built operator in a [`TimedOp`] recording into its
    /// own stats slot — but only when `EXPLAIN ANALYZE` armed timing for
    /// this compilation. Every construction site routes through this, so
    /// an analyzed plan times *every* operator, including inline-built
    /// children like the scan under an index-select's residual filter.
    fn timed(&self, op: BoxedOp<'a>, slot: &StatsSlot) -> BoxedOp<'a> {
        if self.timing {
            Box::new(TimedOp::new(op, slot.clone()))
        } else {
            op
        }
    }

    /// A slot pre-annotated with the optimizer's cardinality estimate.
    fn slot_est(&mut self, label: impl Into<String>, depth: usize, est: Option<u64>) -> StatsSlot {
        let slot = self.slot(label, depth);
        slot.borrow_mut().est_rows = est;
        slot
    }

    /// The estimated output cardinality of a plan node. Estimates model
    /// the TRUE band; other bands compile without annotations.
    fn est(&self, expr: &Expr) -> Option<u64> {
        (self.band == Truth::True).then(|| self.estimator.estimate(expr).rounded_rows())
    }

    /// The estimated input cardinality used to gate fan-out decisions. The
    /// estimator models the TRUE band, but as a *work* proxy it serves
    /// every band — a MAYBE-band pipeline over the same scans moves the
    /// same rows through its stages.
    fn work_rows(&self, expr: &Expr) -> f64 {
        self.estimator.estimate(expr).rows
    }

    /// The degree of parallelism granted to an operator whose estimated
    /// input is `work_rows`: the full [`OptimizeOptions::parallelism`]
    /// ceiling when the estimate clears the fan-out threshold, serial
    /// otherwise. At a ceiling of 1 this always returns 1, keeping the
    /// serial engine byte-identical.
    fn degree(&self, work_rows: f64) -> usize {
        let threads = self.options.parallelism.threads();
        if threads > 1 && work_rows >= self.options.parallel_row_threshold as f64 {
            threads
        } else {
            1
        }
    }

    /// The query's shared worker pool, created on first use at the full
    /// parallelism ceiling. Only reached from `degree > 1` branches, so a
    /// serial compilation never spawns a thread.
    fn pool(&mut self) -> Arc<QueryPool> {
        let threads = self.options.parallelism.threads();
        Arc::clone(
            self.pool
                .get_or_insert_with(|| Arc::new(QueryPool::new(threads))),
        )
    }

    fn attr_name(&self, attr: AttrId) -> String {
        self.universe
            .name(attr)
            .map(str::to_owned)
            .unwrap_or_else(|_| format!("#{}", attr.index()))
    }

    fn build(&mut self, expr: &Expr, depth: usize) -> CoreResult<BoxedOp<'a>> {
        let est = self.est(expr);
        match expr {
            Expr::Literal(rel) => {
                let slot = self.slot_est(format!("Scan literal[{} tuples]", rel.len()), depth, est);
                // `rows_in` is counted as rows are pulled (no storage access
                // path examined anything up front).
                let op = Box::new(ScanOp::counting(rel.tuples().to_vec(), slot.clone()));
                Ok(self.timed(op, &slot))
            }
            Expr::Named(name) => self.named_scan(name, None, depth, est),
            Expr::Rename { input, mapping } => {
                if let Expr::Named(name) = input.as_ref() {
                    self.named_scan(name, Some(mapping), depth, est)
                } else {
                    // An arbitrary renamed sub-plan stays pipelined.
                    let slot =
                        self.slot_est(format!("Rename ({} attrs)", mapping.len()), depth, est);
                    let input = self.build(input, depth + 1)?;
                    let op = Box::new(RenameOp::new(input, mapping.clone(), slot.clone()));
                    Ok(self.timed(op, &slot))
                }
            }
            Expr::Select { input, predicate } => self.build_select(input, predicate, depth),
            Expr::Project { input, attrs } => {
                let slot = self.slot_est(
                    format!("Project [{}]", self.universe.render_attrs(attrs)),
                    depth,
                    est,
                );
                let degree = self.degree(self.work_rows(input));
                // Project directly over a base scan: a two-stage pipe.
                if self.scanable(input) {
                    let (rows, scan_slot, count_pulls) = self.scan_rows(input, depth + 1)?;
                    let mut pipe = VectorPipeOp::from_source(
                        rows,
                        count_pulls,
                        scan_slot,
                        self.options.batch_size,
                    )
                    .with_project(attrs.clone(), slot.clone());
                    if degree > 1 {
                        pipe = pipe.with_pool(self.pool());
                    }
                    return Ok(self.timed(Box::new(pipe), &slot));
                }
                // Project over a generic select over a base scan: the
                // full scan → filter → project pipe, unless the select
                // might be claimed by index-selection planning.
                if let Expr::Select {
                    input: sel_input,
                    predicate,
                } = input.as_ref()
                {
                    if self.scanable(sel_input) && !self.might_index_select(sel_input, predicate) {
                        // Replicate the filter slot exactly as
                        // `build_select` would annotate it.
                        let input_est = self.estimator.estimate(sel_input);
                        let fest = (self.band == Truth::True).then(|| {
                            let sel = nullrel_stats::estimate::selectivity(predicate, &input_est);
                            (input_est.rows * sel).max(0.0).round() as u64
                        });
                        let filter_slot = self.slot_est(
                            format!("Filter {}", predicate.render(self.universe)),
                            depth + 1,
                            fest,
                        );
                        if self.band == Truth::True {
                            filter_slot.borrow_mut().hist_buckets =
                                nullrel_stats::estimate::histogram_buckets(predicate, &input_est);
                        }
                        let degree = self.degree(input_est.rows);
                        let (rows, scan_slot, count_pulls) =
                            self.scan_rows(sel_input, depth + 2)?;
                        let mut pipe = VectorPipeOp::from_source(
                            rows,
                            count_pulls,
                            scan_slot,
                            self.options.batch_size,
                        )
                        .with_filter(predicate.clone(), self.band, filter_slot)
                        .with_project(attrs.clone(), slot.clone());
                        if degree > 1 {
                            pipe = pipe.with_pool(self.pool());
                        }
                        return Ok(self.timed(Box::new(pipe), &slot));
                    }
                }
                let input = self.build(input, depth + 1)?;
                let op: BoxedOp<'a> = if degree > 1 {
                    Box::new(ParProjectOp::new(
                        input,
                        attrs.clone(),
                        self.pool(),
                        slot.clone(),
                    ))
                } else {
                    Box::new(ProjectOp::new(input, attrs.clone(), slot.clone()))
                };
                Ok(self.timed(op, &slot))
            }
            Expr::Product(a, b) => {
                let slot = self.slot_est("Product", depth, est);
                let left = self.build(a, depth + 1)?;
                let right = self.build(b, depth + 1)?;
                let op = Box::new(ProductOp::new(left, right, slot.clone()));
                Ok(self.timed(op, &slot))
            }
            // A hash join produces exactly the TRUE band of the equality;
            // any other requested band must evaluate the comparison per
            // product pair like the general θ-join below.
            Expr::ThetaJoin {
                left,
                left_attr,
                op: CompareOp::Eq,
                right_attr,
                right,
            } if self.band == Truth::True => {
                self.build_equality_join(left, right, vec![(*left_attr, *right_attr)], depth, est)
            }
            Expr::ThetaJoin {
                left,
                left_attr,
                op,
                right_attr,
                right,
            } => {
                // Non-equality θ-join (or a non-TRUE band): product plus a
                // comparison filter in the requested band.
                let filter_slot = self.slot_est(
                    format!(
                        "ThetaFilter {} {} {}",
                        self.attr_name(*left_attr),
                        op,
                        self.attr_name(*right_attr)
                    ),
                    depth,
                    est,
                );
                let product_slot = self.slot("Product", depth + 1);
                let l = self.build(left, depth + 2)?;
                let r = self.build(right, depth + 2)?;
                let product = self.timed(
                    Box::new(ProductOp::new(l, r, product_slot.clone())),
                    &product_slot,
                );
                let filter = Box::new(FilterOp::new(
                    product,
                    Predicate::attr_attr(*left_attr, *op, *right_attr),
                    self.band,
                    filter_slot.clone(),
                ));
                Ok(self.timed(filter, &filter_slot))
            }
            Expr::Union(a, b) => {
                let slot = self.slot_est("Union", depth, est);
                let left = self.build(a, depth + 1)?;
                let right = self.build(b, depth + 1)?;
                let op = Box::new(UnionOp::new(left, right, slot.clone()));
                Ok(self.timed(op, &slot))
            }
            Expr::Difference(a, b) => {
                let slot = self.slot_est("Difference", depth, est);
                // The subtrahend only builds the subsumption index; the
                // probe-side (minuend) estimate gates the fan-out.
                let degree = self.degree(self.work_rows(a));
                let left = self.build(a, depth + 1)?;
                let right = self.build(b, depth + 1)?;
                let op: BoxedOp<'a> = if degree > 1 {
                    Box::new(ParDifferenceOp::new(left, right, self.pool(), slot.clone()))
                } else {
                    Box::new(DifferenceOp::new(left, right, slot.clone()))
                };
                Ok(self.timed(op, &slot))
            }
            Expr::XIntersect(a, b) => {
                let slot = self.slot_est("XIntersect", depth, est);
                // Pairwise meets: the work is the product of the sides.
                let degree = self.degree(self.work_rows(a) * self.work_rows(b).max(1.0));
                let left = self.build(a, depth + 1)?;
                let right = self.build(b, depth + 1)?;
                let op: BoxedOp<'a> = if degree > 1 {
                    Box::new(ParXIntersectOp::new(left, right, self.pool(), slot.clone()))
                } else {
                    Box::new(IntersectOp::new(left, right, slot.clone()))
                };
                Ok(self.timed(op, &slot))
            }
            Expr::EquiJoin { left, right, on } => {
                let slot = self.slot_est(
                    format!("EquiJoin on [{}]", self.universe.render_attrs(on)),
                    depth,
                    est,
                );
                let degree = self.degree(self.work_rows(left) + self.work_rows(right));
                let l = self.build(left, depth + 1)?;
                let r = self.build(right, depth + 1)?;
                let op: BoxedOp<'a> = if degree > 1 {
                    Box::new(ParEquiJoinOp::new(
                        l,
                        r,
                        on.clone(),
                        false,
                        self.pool(),
                        slot.clone(),
                    ))
                } else {
                    Box::new(EquiJoinOp::new(l, r, on.clone(), slot.clone()))
                };
                Ok(self.timed(op, &slot))
            }
            Expr::UnionJoin { left, right, on } => {
                let slot = self.slot_est(
                    format!("UnionJoin on [{}]", self.universe.render_attrs(on)),
                    depth,
                    est,
                );
                let degree = self.degree(self.work_rows(left) + self.work_rows(right));
                let l = self.build(left, depth + 1)?;
                let r = self.build(right, depth + 1)?;
                let op: BoxedOp<'a> = if degree > 1 {
                    Box::new(ParEquiJoinOp::new(
                        l,
                        r,
                        on.clone(),
                        true,
                        self.pool(),
                        slot.clone(),
                    ))
                } else {
                    Box::new(UnionJoinOp::new(l, r, on.clone(), slot.clone()))
                };
                Ok(self.timed(op, &slot))
            }
            Expr::Divide { input, y, divisor } => {
                let slot = self.slot_est(
                    format!("Divide over [{}]", self.universe.render_attrs(y)),
                    depth,
                    est,
                );
                // Qualification probes cost dividend × divisor work; the
                // dividend estimate alone is the usual dominant term.
                let degree = self.degree(self.work_rows(input));
                let input = self.build(input, depth + 1)?;
                let divisor = self.build(divisor, depth + 1)?;
                let op: BoxedOp<'a> = if degree > 1 {
                    Box::new(ParDivisionOp::new(
                        input,
                        divisor,
                        y.clone(),
                        self.pool(),
                        slot.clone(),
                    ))
                } else {
                    Box::new(DivisionOp::new(input, divisor, y.clone(), slot.clone()))
                };
                Ok(self.timed(op, &slot))
            }
        }
    }

    /// A scan over a named base relation, optionally renaming the stored
    /// attributes (the shape query plans use for range variables).
    fn named_scan(
        &mut self,
        name: &str,
        mapping: Option<&std::collections::BTreeMap<AttrId, AttrId>>,
        depth: usize,
        est: Option<u64>,
    ) -> CoreResult<BoxedOp<'a>> {
        let (rows, stats) = self
            .source
            .table_scan(name)
            .ok_or_else(|| CoreError::UnknownRelation(name.to_owned()))?;
        let rows = apply_rename(rows, mapping);
        let slot = self.slot_est(format!("TableScan {name}"), depth, est);
        slot.borrow_mut().absorb_scan(&stats);
        let op = Box::new(ScanOp::new(rows, slot.clone()));
        Ok(self.timed(op, &slot))
    }

    /// True when `expr` is a shape the vectorized scan pipeline can absorb
    /// as its leaf: a materialised base scan — named, literal, or a renamed
    /// named relation. Shape-only; an unknown relation name still errors
    /// identically to the scalar path when the rows are materialised.
    fn scanable(&self, expr: &Expr) -> bool {
        match expr {
            Expr::Named(_) | Expr::Literal(_) => true,
            Expr::Rename { input, .. } => matches!(input.as_ref(), Expr::Named(_)),
            _ => false,
        }
    }

    /// Materialises a [`Self::scanable`] leaf for the vectorized pipe,
    /// creating its stats slot exactly as the scalar scan constructors
    /// would — same label, same pre-absorbed [`ScanStats`], same `est=`
    /// annotation — so a fused plan's explain rows line up with the scalar
    /// plan's. Returns `(rows, scan_slot, count_pulls)` where
    /// `count_pulls` marks literal scans, whose `rows_in` is counted as
    /// rows flow rather than pre-absorbed from storage.
    ///
    /// [`ScanStats`]: nullrel_storage::scan::ScanStats
    fn scan_rows(
        &mut self,
        expr: &Expr,
        depth: usize,
    ) -> CoreResult<(RowSource<'a>, StatsSlot, bool)> {
        let est = self.est(expr);
        let (name, mapping) = match expr {
            Expr::Literal(rel) => {
                let slot = self.slot_est(format!("Scan literal[{} tuples]", rel.len()), depth, est);
                return Ok((RowSource::Owned(rel.tuples().to_vec()), slot, true));
            }
            Expr::Named(name) => (name, None),
            Expr::Rename { input, mapping } => match input.as_ref() {
                Expr::Named(name) => (name, Some(mapping)),
                _ => unreachable!("guarded by scanable()"),
            },
            _ => unreachable!("guarded by scanable()"),
        };
        // Un-renamed base scans borrow the stored rows when the source
        // offers them — the pipe then materialises only filter survivors.
        // Renames rewrite every tuple, so they materialise up front like
        // the scalar scan.
        if mapping.is_none() {
            if let Some((rows, stats)) = self.source.table_rows(name) {
                let slot = self.slot_est(format!("TableScan {name}"), depth, est);
                slot.borrow_mut().absorb_scan(&stats);
                return Ok((RowSource::Borrowed(rows), slot, false));
            }
        }
        let (rows, stats) = self
            .source
            .table_scan(name)
            .ok_or_else(|| CoreError::UnknownRelation(name.to_owned()))?;
        let rows = apply_rename(rows, mapping);
        let slot = self.slot_est(format!("TableScan {name}"), depth, est);
        slot.borrow_mut().absorb_scan(&stats);
        Ok((RowSource::Owned(rows), slot, false))
    }

    /// Conservative shadow of [`Self::try_index_select`]: true when the
    /// TRUE-band index-selection rewrite *could* claim this select. The
    /// project-over-select fusion stands aside in that case so vectorization
    /// never shadows an access path the cost model might pick.
    fn might_index_select(&self, input: &Expr, predicate: &Predicate) -> bool {
        if self.band != Truth::True {
            return false;
        }
        let (name, mapping) = match input {
            Expr::Named(name) => (name.as_str(), None),
            Expr::Rename { input, mapping } => match input.as_ref() {
                Expr::Named(name) => (name.as_str(), Some(mapping)),
                _ => return false,
            },
            _ => return false,
        };
        let mut conjuncts = Vec::new();
        split_and(predicate.clone(), &mut conjuncts);
        let index_list = self.source.index_list(name);
        conjuncts.iter().any(|c| {
            attr_const_eq(c).is_some_and(|(attr, _)| {
                let base = match mapping {
                    Some(m) => match base_attr(m, attr) {
                        Some(b) => b,
                        None => return false,
                    },
                    None => attr,
                };
                self.source.has_index(name, std::slice::from_ref(&base))
                    || index_list.iter().any(|cols| cols.contains(&base))
            })
        })
    }

    /// Selection compilation, with two special shapes recognised before the
    /// generic filter:
    ///
    /// 1. index selection over a (possibly renamed) named scan;
    /// 2. key widening of an equality θ-join underneath.
    fn build_select(
        &mut self,
        input: &Expr,
        predicate: &Predicate,
        depth: usize,
    ) -> CoreResult<BoxedOp<'a>> {
        // One estimator walk serves the `est=` annotation, the `hist=`
        // bucket count, and the fan-out gate below.
        let input_est = self.estimator.estimate(input);
        let est = (self.band == Truth::True).then(|| {
            let sel = nullrel_stats::estimate::selectivity(predicate, &input_est);
            (input_est.rows * sel).max(0.0).round() as u64
        });
        // Only the TRUE band may restructure the predicate: an index probe
        // returns sure matches, and splitting a conjunction is a
        // lower-bound rewrite.
        if self.band == Truth::True {
            if let Some(op) = self.try_index_select(input, predicate, depth, est)? {
                return Ok(op);
            }
            if let Expr::ThetaJoin {
                left,
                left_attr,
                op: CompareOp::Eq,
                right_attr,
                right,
            } = input
            {
                let (ls, rs) = (scope_of(left, self.source), scope_of(right, self.source));
                if let (Some(ls), Some(rs)) = (ls, rs) {
                    let mut conjuncts = Vec::new();
                    split_and(predicate.clone(), &mut conjuncts);
                    let (mut keys, rest) = extra_join_keys(conjuncts, &ls, &rs);
                    if !keys.is_empty() {
                        keys.insert(0, (*left_attr, *right_attr));
                        let join = match and_all(rest) {
                            Some(residual) => {
                                let slot = self.slot_est(
                                    format!("Filter {}", residual.render(self.universe)),
                                    depth,
                                    est,
                                );
                                let join =
                                    self.build_equality_join(left, right, keys, depth + 1, None)?;
                                let filter = Box::new(FilterOp::new(
                                    join,
                                    residual,
                                    self.band,
                                    slot.clone(),
                                ));
                                self.timed(filter, &slot)
                            }
                            None => self.build_equality_join(left, right, keys, depth, est)?,
                        };
                        return Ok(join);
                    }
                }
            }
        }
        let slot = self.slot_est(
            format!("Filter {}", predicate.render(self.universe)),
            depth,
            est,
        );
        if self.band == Truth::True {
            slot.borrow_mut().hist_buckets =
                nullrel_stats::estimate::histogram_buckets(predicate, &input_est);
        }
        let degree = self.degree(input_est.rows);
        // Vectorized fusion: a generic filter directly over a materialised
        // base scan becomes one batch-at-a-time pipe. Sits after the
        // index-selection and key-widening rewrites declined, so it only
        // replaces the scan → filter tuple chain it is counter-identical
        // to.
        if self.scanable(input) {
            let (rows, scan_slot, count_pulls) = self.scan_rows(input, depth + 1)?;
            let mut pipe =
                VectorPipeOp::from_source(rows, count_pulls, scan_slot, self.options.batch_size)
                    .with_filter(predicate.clone(), self.band, slot.clone());
            if degree > 1 {
                pipe = pipe.with_pool(self.pool());
            }
            return Ok(self.timed(Box::new(pipe), &slot));
        }
        let input = self.build(input, depth + 1)?;
        let op: BoxedOp<'a> = if degree > 1 {
            // The morsel-parallel filter evaluates the same three-valued
            // predicate in the same band — including the MAYBE band.
            Box::new(ParFilterOp::new(
                input,
                predicate.clone(),
                self.band,
                self.pool(),
                slot.clone(),
            ))
        } else {
            Box::new(FilterOp::new(
                input,
                predicate.clone(),
                self.band,
                slot.clone(),
            ))
        };
        Ok(self.timed(op, &slot))
    }

    /// Index selection: `Select` over `Named` / `Rename(Named)` where some
    /// set of `attr = const` conjuncts is covered by a catalog index —
    /// single-column or **composite** (all of a multi-column index's
    /// columns constrained by equality conjuncts). **Cost-based**: among
    /// the covered candidates, the one with the lowest estimated result
    /// cardinality — `rows · Π_A (1 − ni(A)) / distinct(A)` from the
    /// statistics catalog, ties broken toward more columns — is probed;
    /// unconsumed conjuncts stay a residual filter.
    fn try_index_select(
        &mut self,
        input: &Expr,
        predicate: &Predicate,
        depth: usize,
        est: Option<u64>,
    ) -> CoreResult<Option<BoxedOp<'a>>> {
        let (name, mapping) = match input {
            Expr::Named(name) => (name.as_str(), None),
            Expr::Rename { input, mapping } => match input.as_ref() {
                Expr::Named(name) => (name.as_str(), Some(mapping)),
                _ => return Ok(None),
            },
            _ => return Ok(None),
        };
        let mut conjuncts = Vec::new();
        split_and(predicate.clone(), &mut conjuncts);
        // Every base column constrained by an `attr = const` conjunct
        // (first conjunct per column wins; duplicates stay residual).
        // Ordered map: candidate enumeration — and therefore cost *ties* —
        // must be deterministic across runs.
        let mut by_base: std::collections::BTreeMap<AttrId, (usize, Value)> =
            std::collections::BTreeMap::new();
        for (i, c) in conjuncts.iter().enumerate() {
            let Some((attr, value)) = attr_const_eq(c) else {
                continue;
            };
            let base = match mapping {
                Some(m) => match base_attr(m, attr) {
                    Some(b) => b,
                    None => continue,
                },
                None => attr,
            };
            by_base.entry(base).or_insert((i, value.clone()));
        }
        if by_base.is_empty() {
            return Ok(None);
        }
        // Candidate column lists: every catalog index fully covered by the
        // constrained columns, plus single-column probes through
        // `has_index` for sources that cannot enumerate their indexes.
        let mut candidates: Vec<Vec<AttrId>> = self
            .source
            .index_list(name)
            .into_iter()
            .filter(|cols| !cols.is_empty() && cols.iter().all(|c| by_base.contains_key(c)))
            .collect();
        for base in by_base.keys() {
            let single = std::slice::from_ref(base);
            if !candidates.iter().any(|c| c.as_slice() == single)
                && self.source.has_index(name, single)
            {
                candidates.push(vec![*base]);
            }
        }
        let table_stats = self.source.table_statistics(name);
        let mut best: Option<(Vec<AttrId>, f64)> = None;
        for cols in candidates {
            let expected = match &table_stats {
                Some(ts) => {
                    let rows = ts.rows as f64;
                    cols.iter().fold(rows, |acc, c| {
                        let distinct = ts.distinct(*c).unwrap_or(1).max(1) as f64;
                        acc * (1.0 - ts.ni_fraction(*c)) / distinct
                    })
                }
                // No statistics: any covering index beats a full scan.
                None => 0.0,
            };
            let better = match &best {
                None => true,
                // Strictly cheaper wins; on a tie the wider index does (it
                // consumes more conjuncts at the access path).
                Some((bc, bcost)) => {
                    expected < *bcost || (expected == *bcost && cols.len() > bc.len())
                }
            };
            if better {
                best = Some((cols, expected));
            }
        }
        let Some((cols, _)) = best else {
            return Ok(None);
        };
        let key: Vec<Value> = cols.iter().map(|c| by_base[c].1.clone()).collect();
        let scan_label = format!(
            "IndexScan {name} [{}]",
            cols.iter()
                .zip(&key)
                .map(|(c, v)| format!("{} = {v}", self.attr_name(*c)))
                .collect::<Vec<_>>()
                .join(" AND ")
        );
        // Vectorized zero-copy probe: the same late materialisation as the
        // fused base scan — the probed rows stay borrowed and only residual
        // survivors are cloned. Renamed scans must materialise anyway, so
        // they take the cloning probe below.
        if mapping.is_none() {
            let source = self.source;
            if let Some((rows, stats)) = source.index_rows(name, &cols, &key) {
                let mut consumed: Vec<usize> = cols.iter().map(|c| by_base[c].0).collect();
                consumed.sort_unstable();
                for i in consumed.into_iter().rev() {
                    conjuncts.remove(i);
                }
                let op: BoxedOp<'a> = match and_all(conjuncts) {
                    Some(residual) => {
                        let filter_slot = self.slot_est(
                            format!("Filter {}", residual.render(self.universe)),
                            depth,
                            est,
                        );
                        let scan_slot = self.slot(scan_label, depth + 1);
                        scan_slot.borrow_mut().absorb_scan(&stats);
                        let pipe =
                            VectorPipeOp::probe(rows, false, scan_slot, self.options.batch_size)
                                .with_filter(residual, self.band, filter_slot.clone());
                        self.timed(Box::new(pipe), &filter_slot)
                    }
                    None => {
                        let scan_slot = self.slot_est(scan_label, depth, est);
                        scan_slot.borrow_mut().absorb_scan(&stats);
                        let pipe = VectorPipeOp::probe(
                            rows,
                            false,
                            scan_slot.clone(),
                            self.options.batch_size,
                        );
                        self.timed(Box::new(pipe), &scan_slot)
                    }
                };
                return Ok(Some(op));
            }
        }
        let Some((rows, stats)) = self.source.index_probe(name, &cols, &key) else {
            return Ok(None);
        };
        let mut consumed: Vec<usize> = cols.iter().map(|c| by_base[c].0).collect();
        consumed.sort_unstable();
        for i in consumed.into_iter().rev() {
            conjuncts.remove(i);
        }
        let rows = apply_rename(rows, mapping);
        let op: BoxedOp<'a> = match and_all(conjuncts) {
            Some(residual) => {
                let filter_slot = self.slot_est(
                    format!("Filter {}", residual.render(self.universe)),
                    depth,
                    est,
                );
                let scan_slot = self.slot(scan_label, depth + 1);
                scan_slot.borrow_mut().absorb_scan(&stats);
                let scan = self.timed(Box::new(ScanOp::new(rows, scan_slot.clone())), &scan_slot);
                let filter = Box::new(FilterOp::new(
                    scan,
                    residual,
                    self.band,
                    filter_slot.clone(),
                ));
                self.timed(filter, &filter_slot)
            }
            None => {
                let scan_slot = self.slot_est(scan_label, depth, est);
                scan_slot.borrow_mut().absorb_scan(&stats);
                self.timed(Box::new(ScanOp::new(rows, scan_slot.clone())), &scan_slot)
            }
        };
        Ok(Some(op))
    }

    /// Compiles an equality join, choosing between a hash join and an
    /// index-nested-loop join by estimated cost.
    fn build_equality_join(
        &mut self,
        left: &Expr,
        right: &Expr,
        mut keys: Vec<(AttrId, AttrId)>,
        depth: usize,
        est: Option<u64>,
    ) -> CoreResult<BoxedOp<'a>> {
        // Orient every pair so the first attribute belongs to the left
        // scope when scopes are known (the optimizer emits them oriented,
        // but hand-built ThetaJoin nodes may not be).
        if let Some(ls) = scope_of(left, self.source) {
            for pair in &mut keys {
                if !ls.contains(&pair.0) && ls.contains(&pair.1) {
                    *pair = (pair.1, pair.0);
                }
            }
        }
        // One estimator walk per side serves the INL cost comparison, the
        // `hist=` annotation, and the fan-out gate.
        let (le, re) = (
            self.estimator.estimate(left),
            self.estimator.estimate(right),
        );
        if let Some(op) =
            self.try_index_nested_loop(left, right, &keys, le.rows, re.rows, depth, est)?
        {
            return Ok(op);
        }
        let label = format!(
            "HashJoin {}",
            keys.iter()
                .map(|(l, r)| format!("{} = {}", self.attr_name(*l), self.attr_name(*r)))
                .collect::<Vec<_>>()
                .join(" AND ")
        );
        let slot = self.slot_est(label, depth, est);
        if self.band == Truth::True {
            // Histograms consulted for the join's fan-out estimate — the
            // estimator aligns them only when both key sides carry one.
            let hist = |e: &nullrel_stats::Estimate, a: AttrId| {
                e.columns
                    .get(&a)
                    .and_then(|c| c.histogram.as_ref())
                    .map(nullrel_stats::EquiDepthHistogram::buckets)
            };
            slot.borrow_mut().hist_buckets = keys
                .iter()
                .map(|(l, r)| match (hist(&le, *l), hist(&re, *r)) {
                    (Some(a), Some(b)) => a + b,
                    _ => 0,
                })
                .sum();
        }
        let degree = self.degree(le.rows + re.rows);
        let l = self.build(left, depth + 1)?;
        let r = self.build(right, depth + 1)?;
        let (lk, rk) = keys.into_iter().unzip();
        let op: BoxedOp<'a> = if degree > 1 {
            Box::new(ParHashJoinOp::new(l, r, lk, rk, self.pool(), slot.clone()))
        } else {
            Box::new(HashJoinOp::new(l, r, lk, rk, slot.clone()))
        };
        Ok(self.timed(op, &slot))
    }

    /// The probe target of an index-nested-loop join, if `expr` is a base
    /// scan (possibly renamed) with an index covering the base columns of
    /// the join key. Returns the index's columns **in index order** plus
    /// the permutation mapping each index column back to its position in
    /// `key_attrs` — composite indexes match even when the plan lists the
    /// key pairs in a different order than the index was built over.
    #[allow(clippy::type_complexity)]
    fn inl_target(
        &self,
        expr: &Expr,
        key_attrs: &[AttrId],
    ) -> Option<(
        String,
        Vec<AttrId>,
        Vec<usize>,
        Option<std::collections::BTreeMap<AttrId, AttrId>>,
    )> {
        let (name, mapping) = match expr {
            Expr::Named(name) => (name.clone(), None),
            Expr::Rename { input, mapping } => match input.as_ref() {
                Expr::Named(name) => (name.clone(), Some(mapping.clone())),
                _ => return None,
            },
            _ => return None,
        };
        let base: Option<Vec<AttrId>> = key_attrs
            .iter()
            .map(|a| match &mapping {
                Some(m) => base_attr(m, *a),
                None => Some(*a),
            })
            .collect();
        let base = base?;
        if self.source.has_index(&name, &base) {
            let identity = (0..base.len()).collect();
            return Some((name, base, identity, mapping));
        }
        // A composite index over the same columns in a different order
        // still applies: permute the probe to the index's column order.
        for cols in self.source.index_list(&name) {
            if cols.len() != base.len() {
                continue;
            }
            let mut used = vec![false; base.len()];
            let perm: Option<Vec<usize>> = cols
                .iter()
                .map(|c| {
                    let j = base
                        .iter()
                        .enumerate()
                        .position(|(j, b)| !used[j] && b == c)?;
                    used[j] = true;
                    Some(j)
                })
                .collect();
            if let Some(perm) = perm {
                return Some((name, cols, perm, mapping));
            }
        }
        None
    }

    /// Chooses an index-nested-loop join over a hash join when one side is
    /// an index-covered base scan and the estimated probe cost beats the
    /// hash join's build-plus-probe cost — i.e. when the outer side is
    /// estimated small relative to the indexed side.
    #[allow(clippy::too_many_arguments)]
    fn try_index_nested_loop(
        &mut self,
        left: &Expr,
        right: &Expr,
        keys: &[(AttrId, AttrId)],
        l_rows: f64,
        r_rows: f64,
        depth: usize,
        est: Option<u64>,
    ) -> CoreResult<Option<BoxedOp<'a>>> {
        if self.band != Truth::True {
            return Ok(None);
        }
        let left_keys: Vec<AttrId> = keys.iter().map(|k| k.0).collect();
        let right_keys: Vec<AttrId> = keys.iter().map(|k| k.1).collect();
        // Hash join cost: materialise the build side, stream the probe side.
        let hash_cost = l_rows + r_rows;
        type Target = (
            String,
            Vec<AttrId>,
            Vec<usize>,
            Option<std::collections::BTreeMap<AttrId, AttrId>>,
        );
        let mut best: Option<(f64, bool, Target)> = None;
        for (inner_is_right, inner_expr, inner_keys, outer_rows) in [
            (true, right, &right_keys, l_rows),
            (false, left, &left_keys, r_rows),
        ] {
            let Some(target) = self.inl_target(inner_expr, inner_keys) else {
                continue;
            };
            // Index fan-out per probe, from the statistics catalog.
            let per_probe = self.source.table_statistics(&target.0).map_or(1.0, |ts| {
                let d: f64 = target
                    .1
                    .iter()
                    .map(|a| ts.distinct(*a).unwrap_or(1).max(1) as f64)
                    .product();
                (ts.rows as f64 / d.max(1.0)).max(1.0)
            });
            let cost = outer_rows * (1.0 + per_probe);
            if cost < hash_cost && best.as_ref().is_none_or(|(c, ..)| cost < *c) {
                best = Some((cost, inner_is_right, target));
            }
        }
        let Some((_, inner_is_right, (name, base, perm, mapping))) = best else {
            return Ok(None);
        };
        let (outer_expr, outer_keys, inner_keys) = if inner_is_right {
            (left, left_keys, right_keys)
        } else {
            (right, right_keys, left_keys)
        };
        // Reorder the probe keys into the index's column order.
        let outer_keys: Vec<AttrId> = perm.iter().map(|j| outer_keys[*j]).collect();
        let inner_keys: Vec<AttrId> = perm.iter().map(|j| inner_keys[*j]).collect();
        let label = format!(
            "IndexNestedLoopJoin {name} [{}]",
            inner_keys
                .iter()
                .zip(outer_keys.iter())
                .map(|(i, o)| format!("{} = {}", self.attr_name(*i), self.attr_name(*o)))
                .collect::<Vec<_>>()
                .join(" AND ")
        );
        let slot = self.slot_est(label, depth, est);
        let outer = self.build(outer_expr, depth + 1)?;
        let op = Box::new(IndexNestedLoopJoinOp::new(
            self.source,
            name,
            base,
            mapping,
            outer,
            outer_keys,
            slot.clone(),
        ));
        Ok(Some(self.timed(op, &slot)))
    }
}

// The seed's `fallback` (tree-walk `Expr::eval` wrapped in a scan) is gone:
// `build` is exhaustive over `Expr`, which the match above proves at compile
// time. Debug builds additionally assert that no pipeline ever reports an
// oracle scan (see `Pipeline::run`).

fn apply_rename(
    rows: Vec<Tuple>,
    mapping: Option<&std::collections::BTreeMap<AttrId, AttrId>>,
) -> Vec<Tuple> {
    match mapping {
        Some(m) => rows.iter().map(|r| r.rename(m)).collect(),
        None => rows,
    }
}

/// The `(attribute, constant)` of an `attr = const` conjunct, in either
/// orientation.
fn attr_const_eq(conjunct: &Predicate) -> Option<(AttrId, &Value)> {
    let Predicate::Cmp(cmp) = conjunct else {
        return None;
    };
    if cmp.op != CompareOp::Eq {
        return None;
    }
    match (&cmp.left, &cmp.right) {
        (Operand::Attr(a), Operand::Const(v)) | (Operand::Const(v), Operand::Attr(a)) => {
            Some((*a, v))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::optimize;
    use nullrel_core::universe::attr_set;
    use nullrel_storage::{Database, SchemaBuilder};

    fn ps_db(with_index: bool) -> Database {
        let mut db = Database::new();
        db.create_table(SchemaBuilder::new("PS").column("S#").column("P#"))
            .unwrap();
        let u = db.universe().clone();
        let t = db.table_mut("PS").unwrap();
        for (s, p) in [
            (Some("s1"), Some("p1")),
            (Some("s1"), Some("p2")),
            (Some("s2"), Some("p1")),
            (Some("s2"), None),
            (Some("s3"), None),
            (Some("s4"), Some("p4")),
        ] {
            let mut cells: Vec<(&str, Value)> = Vec::new();
            if let Some(s) = s {
                cells.push(("S#", Value::str(s)));
            }
            if let Some(p) = p {
                cells.push(("P#", Value::str(p)));
            }
            t.insert_named(&u, &cells).unwrap();
        }
        if with_index {
            let s = u.lookup("S#").unwrap();
            t.create_index(vec![s]).unwrap();
        }
        db
    }

    #[test]
    fn literal_plan_compiles_and_matches_oracle() {
        let db = ps_db(false);
        let u = db.universe().clone();
        let s = u.lookup("S#").unwrap();
        let p = u.lookup("P#").unwrap();
        let expr = Expr::literal(db.table("PS").unwrap().to_xrelation())
            .select(Predicate::attr_const(s, CompareOp::Eq, "s1"))
            .project(attr_set([p]));
        let oracle = expr.eval(&nullrel_core::algebra::NoSource).unwrap();
        let (got, stats) = compile(&expr, &nullrel_core::algebra::NoSource, &u)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(got, oracle);
        assert_eq!(stats.rows_returned(), oracle.len());
        assert!(stats.render().contains("Filter"));
    }

    #[test]
    fn index_selection_uses_the_catalog() {
        let db = ps_db(true);
        let u = db.universe().clone();
        let s = u.lookup("S#").unwrap();
        let expr = Expr::named("PS").select(Predicate::attr_const(s, CompareOp::Eq, "s1"));
        let (got, stats) = compile(&expr, &db, &u).unwrap().run().unwrap();
        assert_eq!(got.len(), 2);
        assert!(stats.used_index(), "plan must probe the S# index:\n{stats}");
        assert!(stats.render().contains("IndexScan PS [S# = s1]"));

        // Without an index the same plan falls back to scan + filter.
        let db2 = ps_db(false);
        let (got2, stats2) = compile(&expr, &db2, &u).unwrap().run().unwrap();
        assert_eq!(got2, got);
        assert!(!stats2.used_index());
        assert!(stats2.render().contains("TableScan PS"));
    }

    /// The vectorized index probe (borrowed rows, late materialisation)
    /// must match the tree-walk oracle row-for-row, and its counters must
    /// not depend on the batch size — with and without a residual filter,
    /// in both parallelism grants.
    #[test]
    fn vectorized_index_select_matches_the_oracle() {
        let db = ps_db(true);
        let u = db.universe().clone();
        let s = u.lookup("S#").unwrap();
        let p = u.lookup("P#").unwrap();
        let probe_only = Expr::named("PS").select(Predicate::attr_const(s, CompareOp::Eq, "s1"));
        let with_residual = Expr::named("PS").select(
            Predicate::attr_const(s, CompareOp::Eq, "s2").and(Predicate::attr_const(
                p,
                CompareOp::Eq,
                "p1",
            )),
        );
        for (expr, label) in [(&probe_only, "probe-only"), (&with_residual, "residual")] {
            let oracle = expr.eval(&db).unwrap();
            let run = |batch_size, threads| {
                let options = OptimizeOptions {
                    parallelism: nullrel_par::Parallelism::Threads(threads),
                    parallel_row_threshold: 0,
                    batch_size,
                    ..OptimizeOptions::default()
                };
                compile_with(expr, &db, &u, Truth::True, options)
                    .unwrap()
                    .run()
                    .unwrap()
            };
            let (_, one_row_stats) = run(1, 1);
            for threads in [1, 4] {
                let (rows, stats) = run(1024, threads);
                assert_eq!(rows, oracle, "{label} threads={threads}");
                assert!(stats.used_index(), "{label} threads={threads}:\n{stats}");
                let render = stats.render();
                assert!(
                    render.contains("IndexScan PS [S# ="),
                    "{label} threads={threads}:\n{render}"
                );
                assert!(
                    render.contains("batch=1024"),
                    "vectorized probe carries the batch annotation:\n{render}"
                );
                // At the serial grant the per-stage counters are the same
                // at every batch size: the renders differ only by the
                // `batch=N` annotation.
                if threads == 1 {
                    assert_eq!(
                        render.replace(" batch=1024", ""),
                        one_row_stats.render().replace(" batch=1", ""),
                        "{label}"
                    );
                }
            }
        }
    }

    #[test]
    fn equi_join_plan_runs_as_hash_join() {
        let db = ps_db(false);
        let u = db.universe().clone();
        let table = db.table("PS").unwrap().to_xrelation();

        // Self-join on P# after renaming the second copy's attributes.
        let mut u2 = u.clone();
        let s2 = u2.intern("b.S#");
        let p2 = u2.intern("b.P#");
        let s = u2.lookup("S#").unwrap();
        let p = u2.lookup("P#").unwrap();
        let renamed: XRelation = table
            .tuples()
            .iter()
            .map(|t| t.rename(&[(s, s2), (p, p2)].into_iter().collect()))
            .collect();
        let plan = Expr::literal(table)
            .product(Expr::literal(renamed))
            .select(Predicate::attr_attr(p, CompareOp::Eq, p2))
            .project(attr_set([s, s2]));
        let oracle = plan.eval(&nullrel_core::algebra::NoSource).unwrap();
        let opt = optimize(&plan, &nullrel_core::algebra::NoSource);
        let (got, stats) = compile(&opt.expr, &nullrel_core::algebra::NoSource, &u2)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(got, oracle);
        assert!(stats.used_hash_join(), "plan:\n{}", stats.render());
    }

    /// Regression: the index probe must use domain-aware key equality —
    /// `A = Float(2.0)` over stored `Int(2)` rows matches through the
    /// index exactly as the predicate oracle says it does.
    #[test]
    fn index_probe_matches_numeric_equality() {
        let mut db = Database::new();
        db.create_table(SchemaBuilder::new("T").column("A"))
            .unwrap();
        let u = db.universe().clone();
        let a = u.lookup("A").unwrap();
        let t = db.table_mut("T").unwrap();
        t.insert_named(&u, &[("A", Value::int(2))]).unwrap();
        t.insert_named(&u, &[("A", Value::int(3))]).unwrap();
        t.create_index(vec![a]).unwrap();
        let expr = Expr::named("T").select(Predicate::attr_const(a, CompareOp::Eq, 2.0f64));
        let oracle = expr.eval(&db).unwrap();
        assert_eq!(oracle.len(), 1, "Value::compare treats Int(2) = Float(2.0)");
        let (got, stats) = compile(&expr, &db, &u).unwrap().run().unwrap();
        assert_eq!(got, oracle);
        assert!(stats.used_index(), "plan:\n{}", stats.render());
    }

    /// Regression: an eq θ-join under a non-TRUE band must not lower to a
    /// hash join (which produces only the sure matches); it evaluates the
    /// comparison per pair in the requested band.
    #[test]
    fn maybe_band_of_an_equality_join_is_not_a_hash_join() {
        let mut u = Universe::new();
        let a = u.intern("A");
        let b = u.intern("B");
        let c = u.intern("C");
        let left = XRelation::from_tuples([
            Tuple::new().with(a, Value::int(1)).with(c, Value::int(1)),
            Tuple::new().with(c, Value::int(2)), // A is ni
        ]);
        let right = XRelation::from_tuples([Tuple::new().with(b, Value::int(1))]);
        let join = Expr::ThetaJoin {
            left: Box::new(Expr::literal(left)),
            left_attr: a,
            op: CompareOp::Eq,
            right_attr: b,
            right: Box::new(Expr::literal(right)),
        };
        let (maybe, stats) = compile_band(&join, &nullrel_core::algebra::NoSource, &u, Truth::Ni)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(maybe.len(), 1, "only the ni-A pair is in the MAYBE band");
        assert!(maybe.x_contains(&Tuple::new().with(c, Value::int(2)).with(b, Value::int(1))));
        assert!(!stats.used_hash_join(), "plan:\n{}", stats.render());
    }

    /// The cost-based join choice: a tiny outer side against a large
    /// indexed table runs as an index-nested-loop join — probing only the
    /// matching rows — while the same plan without the index (or with a
    /// large outer side) hash-joins.
    #[test]
    fn small_outer_side_chooses_index_nested_loop_join() {
        let mut db = Database::new();
        db.create_table(SchemaBuilder::new("BIG").column("K").column("V"))
            .unwrap();
        let u = db.universe().clone();
        let k = u.lookup("K").unwrap();
        let t = db.table_mut("BIG").unwrap();
        for i in 0..500i64 {
            t.insert_named(&u, &[("K", Value::int(i)), ("V", Value::int(i * 2))])
                .unwrap();
        }
        t.create_index(vec![k]).unwrap();

        let mut u2 = u.clone();
        let a = u2.intern("A");
        let outer =
            XRelation::from_tuples((0..3).map(|i| Tuple::new().with(a, Value::int(i * 100))));
        let join = Expr::ThetaJoin {
            left: Box::new(Expr::literal(outer)),
            left_attr: a,
            op: CompareOp::Eq,
            right_attr: k,
            right: Box::new(Expr::named("BIG")),
        };
        let oracle = join.eval(&db).unwrap();
        let (got, stats) = compile(&join, &db, &u2).unwrap().run().unwrap();
        assert_eq!(got, oracle);
        assert!(
            stats.used_index_nested_loop_join(),
            "plan:\n{}",
            stats.render()
        );
        assert!(!stats.used_hash_join());
        // The inner table was probed, not scanned: 3 rows examined.
        assert_eq!(stats.rows_examined(), 3, "plan:\n{}", stats.render());

        // Without the index the same plan hash-joins.
        let mut db2 = Database::new();
        db2.create_table(SchemaBuilder::new("BIG").column("K").column("V"))
            .unwrap();
        let t = db2.table_mut("BIG").unwrap();
        for i in 0..500i64 {
            t.insert_named(&u, &[("K", Value::int(i)), ("V", Value::int(i * 2))])
                .unwrap();
        }
        let (got2, stats2) = compile(&join, &db2, &u2).unwrap().run().unwrap();
        assert_eq!(got2, oracle);
        assert!(stats2.used_hash_join(), "plan:\n{}", stats2.render());
        assert!(!stats2.used_index_nested_loop_join());
    }

    /// A large outer side keeps the hash join even when the index exists:
    /// per-row probes would cost more than one build pass.
    #[test]
    fn large_outer_side_keeps_the_hash_join() {
        let mut db = Database::new();
        db.create_table(SchemaBuilder::new("SMALL").column("K"))
            .unwrap();
        let u = db.universe().clone();
        let k = u.lookup("K").unwrap();
        let t = db.table_mut("SMALL").unwrap();
        for i in 0..4i64 {
            t.insert_named(&u, &[("K", Value::int(i))]).unwrap();
        }
        t.create_index(vec![k]).unwrap();
        let mut u2 = u.clone();
        let a = u2.intern("A");
        let outer =
            XRelation::from_tuples((0..300).map(|i| Tuple::new().with(a, Value::int(i % 50))));
        let join = Expr::ThetaJoin {
            left: Box::new(Expr::literal(outer)),
            left_attr: a,
            op: CompareOp::Eq,
            right_attr: k,
            right: Box::new(Expr::named("SMALL")),
        };
        let oracle = join.eval(&db).unwrap();
        let (got, stats) = compile(&join, &db, &u2).unwrap().run().unwrap();
        assert_eq!(got, oracle);
        assert!(stats.used_hash_join(), "plan:\n{}", stats.render());
    }

    /// Cost-based index selection: with indexes on two constrained columns,
    /// the planner probes the more selective one (the key-like column, one
    /// row per value) rather than the first conjunct in writing order.
    #[test]
    fn index_selection_prefers_the_more_selective_index() {
        let mut db = Database::new();
        db.create_table(SchemaBuilder::new("T").column("GROUP").column("ID"))
            .unwrap();
        let u = db.universe().clone();
        let g = u.lookup("GROUP").unwrap();
        let id = u.lookup("ID").unwrap();
        let t = db.table_mut("T").unwrap();
        for i in 0..100i64 {
            t.insert_named(&u, &[("GROUP", Value::int(i % 2)), ("ID", Value::int(i))])
                .unwrap();
        }
        t.create_index(vec![g]).unwrap();
        t.create_index(vec![id]).unwrap();
        // GROUP first in the predicate — the cost model must still pick ID.
        let expr = Expr::named("T").select(
            Predicate::attr_const(g, CompareOp::Eq, 1).and(Predicate::attr_const(
                id,
                CompareOp::Eq,
                77,
            )),
        );
        let oracle = expr.eval(&db).unwrap();
        let (got, stats) = compile(&expr, &db, &u).unwrap().run().unwrap();
        assert_eq!(got, oracle);
        assert!(
            stats.render().contains("IndexScan T [ID = 77]"),
            "plan:\n{}",
            stats.render()
        );
        assert_eq!(stats.rows_examined(), 1, "plan:\n{}", stats.render());
    }

    /// TRUE-band pipelines carry `est_rows` annotations and an overall
    /// estimation error; MAYBE-band pipelines carry none.
    #[test]
    fn estimates_annotate_true_band_plans() {
        let db = ps_db(false);
        let u = db.universe().clone();
        let s = u.lookup("S#").unwrap();
        let expr = Expr::named("PS").select(Predicate::attr_const(s, CompareOp::Eq, "s1"));
        let (_, stats) = compile(&expr, &db, &u).unwrap().run().unwrap();
        assert!(
            stats.ops.iter().all(|o| o.est_rows.is_some()),
            "{}",
            stats.render()
        );
        assert!(stats.render().contains("est="), "{}", stats.render());
        let q = stats.estimation_error().unwrap();
        assert!(q >= 1.0, "q-error is a ratio: {q}");

        let (_, maybe) = compile_band(&expr, &db, &u, Truth::Ni)
            .unwrap()
            .run()
            .unwrap();
        assert!(maybe.ops.iter().all(|o| o.est_rows.is_none()));
        assert!(maybe.estimation_error().is_none());
    }

    #[test]
    fn maybe_band_flows_through_the_engine() {
        let db = ps_db(false);
        let u = db.universe().clone();
        let p = u.lookup("P#").unwrap();
        let expr = Expr::named("PS").select(Predicate::attr_const(p, CompareOp::Eq, "p1"));
        let (maybe, stats) = compile_band(&expr, &db, &u, Truth::Ni)
            .unwrap()
            .run()
            .unwrap();
        // The two null-P# stored rows are exactly the MAYBE band; the
        // minimal representation collapses them to their S# cells.
        assert_eq!(maybe.len(), 2);
        assert_eq!(stats.ni_rows(), 2);
    }

    /// The whole algebra compiles to dedicated streaming operators: no
    /// `EvalScan` (tree-walk fallback) node appears anywhere.
    #[test]
    fn division_compiles_to_a_streaming_operator() {
        let db = ps_db(false);
        let u = db.universe().clone();
        let s = u.lookup("S#").unwrap();
        let p = u.lookup("P#").unwrap();
        let divisor = Expr::named("PS")
            .select(Predicate::attr_const(s, CompareOp::Eq, "s2"))
            .project(attr_set([p]));
        let expr = Expr::named("PS").divide(attr_set([s]), divisor);
        let oracle = expr.eval(&db).unwrap();
        let (got, stats) = compile(&expr, &db, &u).unwrap().run().unwrap();
        assert_eq!(got, oracle);
        assert!(stats.render().contains("Divide over [S#]"), "{stats}");
        assert!(!stats.render().contains("EvalScan"), "{stats}");
    }

    #[test]
    fn set_operators_and_joins_compile_to_streaming_operators() {
        let db = ps_db(false);
        let u = db.universe().clone();
        let s = u.lookup("S#").unwrap();
        let p = u.lookup("P#").unwrap();
        let by = |k: &str| {
            Expr::named("PS")
                .select(Predicate::attr_const(s, CompareOp::Eq, k))
                .project(attr_set([p]))
        };
        for (expr, label) in [
            (by("s1").union(by("s2")), "Union"),
            (by("s1").difference(by("s2")), "Difference"),
            (by("s1").x_intersect(by("s2")), "XIntersect"),
            (
                Expr::named("PS").equijoin(Expr::named("PS"), attr_set([s, p])),
                "EquiJoin on [S#, P#]",
            ),
            (
                Expr::named("PS").union_join(Expr::named("PS"), attr_set([s])),
                "UnionJoin on [S#]",
            ),
        ] {
            let oracle = expr.eval(&db).unwrap();
            let (got, stats) = compile(&expr, &db, &u).unwrap().run().unwrap();
            assert_eq!(got, oracle, "{label} disagrees:\n{stats}");
            assert!(stats.render().contains(label), "{label} missing:\n{stats}");
            assert!(!stats.render().contains("EvalScan"), "{stats}");
        }
    }

    /// Satellite regression: `Rename` over a non-`Named` input stays
    /// pipelined instead of dropping to the oracle.
    #[test]
    fn rename_over_arbitrary_input_compiles_to_rename_op() {
        let db = ps_db(false);
        let u = db.universe().clone();
        let mut u2 = u.clone();
        let s = u2.lookup("S#").unwrap();
        let p = u2.lookup("P#").unwrap();
        let q = u2.intern("Q#");
        let expr = Expr::named("PS")
            .project(attr_set([p]))
            .rename([(p, q)].into_iter().collect());
        let oracle = expr.eval(&db).unwrap();
        let (got, stats) = compile(&expr, &db, &u2).unwrap().run().unwrap();
        assert_eq!(got, oracle);
        assert!(stats.render().contains("Rename (1 attrs)"), "{stats}");
        assert!(!stats.render().contains("EvalScan"), "{stats}");
        let _ = s;
    }

    /// Composite index selection: when several `attr = const` conjuncts
    /// cover one composite index, the planner probes it — consuming every
    /// covered conjunct at the access path — instead of a single-column
    /// probe plus a residual filter.
    #[test]
    fn composite_index_covered_by_conjuncts_is_selected() {
        let mut db = Database::new();
        db.create_table(SchemaBuilder::new("T").column("A").column("B").column("V"))
            .unwrap();
        let u = db.universe().clone();
        let a = u.lookup("A").unwrap();
        let b = u.lookup("B").unwrap();
        let t = db.table_mut("T").unwrap();
        for i in 0..120i64 {
            t.insert_named(
                &u,
                &[
                    ("A", Value::int(i % 4)),
                    ("B", Value::int(i % 30)),
                    ("V", Value::int(i)),
                ],
            )
            .unwrap();
        }
        t.create_index(vec![a]).unwrap();
        t.create_index(vec![a, b]).unwrap();
        let expr = Expr::named("T").select(
            Predicate::attr_const(a, CompareOp::Eq, 1).and(Predicate::attr_const(
                b,
                CompareOp::Eq,
                13,
            )),
        );
        let oracle = expr.eval(&db).unwrap();
        let (got, stats) = compile(&expr, &db, &u).unwrap().run().unwrap();
        assert_eq!(got, oracle);
        assert!(
            stats.render().contains("IndexScan T [A = 1 AND B = 13]"),
            "plan:\n{}",
            stats.render()
        );
        // Both conjuncts were consumed by the probe: no residual filter,
        // and only the two (A=1, B=13) rows were ever examined.
        assert!(!stats.render().contains("Filter"), "{}", stats.render());
        assert_eq!(stats.rows_examined(), 2, "{}", stats.render());
    }

    /// A composite index matches even when the conjuncts are written in
    /// the opposite order of the index's columns; a partially covered
    /// composite index is skipped in favour of a covered single-column one.
    #[test]
    fn composite_index_order_and_partial_coverage() {
        let mut db = Database::new();
        db.create_table(SchemaBuilder::new("T").column("A").column("B"))
            .unwrap();
        let u = db.universe().clone();
        let a = u.lookup("A").unwrap();
        let b = u.lookup("B").unwrap();
        let t = db.table_mut("T").unwrap();
        for i in 0..60i64 {
            t.insert_named(&u, &[("A", Value::int(i % 6)), ("B", Value::int(i % 10))])
                .unwrap();
        }
        t.create_index(vec![a, b]).unwrap();
        // Conjuncts in B, A order still hit the (A, B) index.
        let expr = Expr::named("T").select(
            Predicate::attr_const(b, CompareOp::Eq, 3).and(Predicate::attr_const(
                a,
                CompareOp::Eq,
                3,
            )),
        );
        let oracle = expr.eval(&db).unwrap();
        let (got, stats) = compile(&expr, &db, &u).unwrap().run().unwrap();
        assert_eq!(got, oracle);
        assert!(
            stats.render().contains("IndexScan T [A = 3 AND B = 3]"),
            "plan:\n{}",
            stats.render()
        );

        // Only A constrained: the (A, B) composite is not covered, and
        // without a single-column index the plan falls back to a scan.
        let partial = Expr::named("T").select(Predicate::attr_const(a, CompareOp::Eq, 2));
        let (got2, stats2) = compile(&partial, &db, &u).unwrap().run().unwrap();
        assert_eq!(got2, partial.eval(&db).unwrap());
        assert!(
            stats2.render().contains("TableScan T"),
            "plan:\n{}",
            stats2.render()
        );
    }

    /// Index-nested-loop joins reorder their probe onto a composite index
    /// declared in a different column order.
    #[test]
    fn index_nested_loop_join_matches_permuted_composite_index() {
        let mut db = Database::new();
        db.create_table(
            SchemaBuilder::new("BIG")
                .column("X")
                .column("Y")
                .column("V"),
        )
        .unwrap();
        let u = db.universe().clone();
        let x = u.lookup("X").unwrap();
        let y = u.lookup("Y").unwrap();
        let t = db.table_mut("BIG").unwrap();
        for i in 0..400i64 {
            t.insert_named(
                &u,
                &[
                    ("X", Value::int(i % 20)),
                    ("Y", Value::int(i % 25)),
                    ("V", Value::int(i)),
                ],
            )
            .unwrap();
        }
        // Index declared (Y, X); the plan's key pairs arrive (X, Y).
        t.create_index(vec![y, x]).unwrap();

        let mut u2 = u.clone();
        let p = u2.intern("P");
        let q = u2.intern("Q");
        let outer = XRelation::from_tuples((0..3).map(|i| {
            Tuple::new()
                .with(p, Value::int(i * 7))
                .with(q, Value::int(i * 9))
        }));
        let join = Expr::literal(outer).product(Expr::named("BIG")).select(
            Predicate::attr_attr(p, CompareOp::Eq, x).and(Predicate::attr_attr(
                q,
                CompareOp::Eq,
                y,
            )),
        );
        let oracle = join.eval(&db).unwrap();
        let opt = optimize(&join, &db);
        let (got, stats) = compile(&opt.expr, &db, &u2).unwrap().run().unwrap();
        assert_eq!(got, oracle, "plan:\n{}", stats.render());
        assert!(
            stats.used_index_nested_loop_join(),
            "plan:\n{}",
            stats.render()
        );
    }

    /// The parallel engine: with a multi-thread ceiling and a zero fan-out
    /// threshold, scans/filters/joins/sink compile to their partitioned
    /// forms, report their degree in the explain output, and produce
    /// exactly the serial result. With `Threads(1)` the compiled plan —
    /// operators, counters, everything — is byte-identical to `Serial`.
    #[test]
    fn parallel_plans_match_serial_and_report_their_degree() {
        use crate::optimize::optimize;
        use nullrel_par::Parallelism;

        let mut u = Universe::new();
        let a = u.intern("A");
        let b = u.intern("B");
        let c = u.intern("C");
        let left = XRelation::from_tuples((0..300).map(|i| {
            Tuple::new()
                .with(a, Value::int(i % 40))
                .with(b, Value::int(i))
        }));
        let right =
            XRelation::from_tuples((0..200).map(|i| Tuple::new().with(c, Value::int(i % 40))));
        let plan = Expr::literal(left)
            .product(Expr::literal(right))
            .select(
                Predicate::attr_attr(a, CompareOp::Eq, c).and(Predicate::attr_const(
                    b,
                    CompareOp::Ge,
                    10,
                )),
            )
            .project(attr_set([a, b]));
        let opt = optimize(&plan, &nullrel_core::algebra::NoSource);
        let run = |parallelism| {
            let options = OptimizeOptions {
                parallelism,
                parallel_row_threshold: 0,
                ..OptimizeOptions::default()
            };
            compile_with(
                &opt.expr,
                &nullrel_core::algebra::NoSource,
                &u,
                Truth::True,
                options,
            )
            .unwrap()
            .run()
            .unwrap()
        };
        let (serial, serial_stats) = run(Parallelism::Serial);
        let (one, one_stats) = run(Parallelism::Threads(1));
        assert_eq!(one, serial);
        assert_eq!(
            one_stats, serial_stats,
            "Threads(1) must be byte-identical to the serial engine"
        );
        let (par, par_stats) = run(Parallelism::Threads(4));
        assert_eq!(par, serial, "parallel plan:\n{}", par_stats.render());
        assert_eq!(par_stats.max_parallelism(), 4);
        assert!(par_stats.used_parallel(), "{}", par_stats.render());
        assert!(
            par_stats.render().contains("par=4"),
            "{}",
            par_stats.render()
        );
        assert!(
            par_stats.render().contains("workers=["),
            "{}",
            par_stats.render()
        );
        // The sink and the join both fanned out.
        let minimize = &par_stats.ops[0];
        assert_eq!(minimize.parallelism, 4, "{}", par_stats.render());
        assert!(
            par_stats
                .ops
                .iter()
                .any(|o| o.label.starts_with("HashJoin") && o.parallelism == 4),
            "{}",
            par_stats.render()
        );
    }

    /// The fan-out threshold: inputs estimated below it stay serial even
    /// under a multi-thread ceiling.
    #[test]
    fn small_inputs_stay_serial_under_a_parallel_ceiling() {
        use nullrel_par::Parallelism;
        let db = ps_db(false);
        let u = db.universe().clone();
        let s = u.lookup("S#").unwrap();
        let expr = Expr::named("PS").select(Predicate::attr_const(s, CompareOp::Eq, "s1"));
        let options = OptimizeOptions {
            parallelism: Parallelism::Threads(4),
            ..OptimizeOptions::default()
        };
        let (_, stats) = compile_with(&expr, &db, &u, Truth::True, options)
            .unwrap()
            .run()
            .unwrap();
        assert!(
            !stats.used_parallel(),
            "6 rows are far below the fan-out threshold:\n{}",
            stats.render()
        );
        assert_eq!(stats.max_parallelism(), 1);
    }

    #[test]
    fn unknown_relation_errors_at_compile_time() {
        let u = Universe::new();
        let expr = Expr::named("MISSING");
        let err = match compile(&expr, &nullrel_core::algebra::NoSource, &u) {
            Err(err) => err,
            Ok(_) => panic!("compiling a scan of a missing relation must fail"),
        };
        assert!(matches!(err, CoreError::UnknownRelation(_)));
    }
}
