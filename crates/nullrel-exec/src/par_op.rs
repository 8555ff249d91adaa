//! Parallel physical operators: the engine-side adapters over the
//! `nullrel-par` morsel runtime.
//!
//! Each operator drains its (serial, pull-based) input sub-plans on the
//! coordinator thread, hands the owned tuple vectors to the query's shared
//! [`QueryPool`], and then streams the result downstream — so parallel
//! operators compose freely with the serial ones in a single pipeline. The
//! planner grants a degree of parallelism per operator
//! ([`OpStats::parallelism`](crate::OpStats::parallelism)) only when the
//! cost model predicts enough input rows to amortise the fan-out; at
//! degree 1 these operators are never constructed and the engine remains
//! byte-identical to the serial one. All parallel operators of one
//! compilation share a single pool — worker threads are spawned once per
//! query, not once per operator.
//!
//! * [`ParFilterOp`] / [`ParProjectOp`] — morsel-parallel selection (in
//!   any truth band) and projection.
//! * [`ParHashJoinOp`] — the partitioned disjoint-scope hash join: both
//!   inputs split by normalized-key hash, each partition built and probed
//!   independently.
//! * [`ParEquiJoinOp`] — the partitioned shared-key equijoin and (with the
//!   dangling-tuple pass) union-join.
//! * [`ParDifferenceOp`] / [`ParXIntersectOp`] / [`ParDivisionOp`] — the
//!   drain-heavy lattice operators: one side becomes a shared read-only
//!   build structure, the probe side fans out in morsels.
//! * [`ParMinimizeOp`] — the partitioned sink: per-morsel local antichains
//!   merged by `nullrel-core`'s `merge_antichains`, which provably equals
//!   the serial reduction.
//!
//! All per-worker counters land in the operator's
//! [`OpStats`](crate::OpStats) slot and are rendered by `explain` as
//! `par=N workers=[in/out …]`.

use std::rc::Rc;
use std::sync::Arc;

use nullrel_core::error::CoreResult;
use nullrel_core::predicate::Predicate;
use nullrel_core::tuple::Tuple;
use nullrel_core::tvl::Truth;
use nullrel_core::universe::{AttrId, AttrSet};

use nullrel_par::stage::adaptive_morsel_rows;
use nullrel_par::{
    par_difference, par_division, par_equijoin, par_filter, par_hash_join, par_minimize,
    par_project, par_x_intersect, QueryPool,
};

use crate::op::{BoxedOp, StatsSlot};
use crate::stats::approx_tuple_bytes;
use nullrel_core::algebra::TupleStream;

/// Shared shape of every parallel operator: run once on first pull, then
/// stream the buffered output (counting `rows_out` as tuples are emitted).
struct Buffered {
    out: std::vec::IntoIter<Tuple>,
    stats: StatsSlot,
}

impl Buffered {
    fn new(rows: Vec<Tuple>, stats: &StatsSlot) -> Self {
        // Every parallel operator materializes here before streaming on —
        // the single choke point where pipeline breaks become visible to
        // a query trace.
        if nullrel_obs::tracing_active() {
            nullrel_obs::event(
                format!("pipeline-break: {}", stats.borrow().label),
                "pipeline",
            );
        }
        Buffered {
            out: rows.into_iter(),
            stats: Rc::clone(stats),
        }
    }

    fn next(&mut self) -> Option<Tuple> {
        let next = self.out.next();
        if next.is_some() {
            self.stats.borrow_mut().rows_out += 1;
        }
        next
    }
}

/// Morsel-parallel three-valued selection over a drained input.
pub struct ParFilterOp<'a> {
    input: Option<BoxedOp<'a>>,
    predicate: Predicate,
    want: Truth,
    pool: Arc<QueryPool>,
    buffered: Option<Buffered>,
    stats: StatsSlot,
}

impl<'a> ParFilterOp<'a> {
    /// A parallel filter keeping rows whose predicate evaluates to `want`,
    /// fanned out onto the query's shared pool.
    pub fn new(
        input: BoxedOp<'a>,
        predicate: Predicate,
        want: Truth,
        pool: Arc<QueryPool>,
        stats: StatsSlot,
    ) -> Self {
        stats.borrow_mut().parallelism = pool.degree();
        ParFilterOp {
            input: Some(input),
            predicate,
            want,
            pool,
            buffered: None,
            stats,
        }
    }
}

impl TupleStream for ParFilterOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        if let Some(mut input) = self.input.take() {
            let rows = input.drain_all()?;
            let morsel = adaptive_morsel_rows(rows.len(), self.pool.degree());
            let outcome = par_filter(rows, &self.predicate, self.want, &self.pool, morsel)?;
            {
                let mut stats = self.stats.borrow_mut();
                stats.rows_in += outcome.workers.iter().map(|w| w.rows_in).sum::<usize>();
                stats.ni_rows += outcome.ni_rows;
                stats.absorb_workers(&outcome.workers);
            }
            self.buffered = Some(Buffered::new(outcome.rows, &self.stats));
        }
        Ok(self.buffered.as_mut().expect("buffered above").next())
    }
}

/// Morsel-parallel projection over a drained input.
pub struct ParProjectOp<'a> {
    input: Option<BoxedOp<'a>>,
    attrs: AttrSet,
    pool: Arc<QueryPool>,
    buffered: Option<Buffered>,
    stats: StatsSlot,
}

impl<'a> ParProjectOp<'a> {
    /// A parallel projection keeping the cells of `attrs`.
    pub fn new(input: BoxedOp<'a>, attrs: AttrSet, pool: Arc<QueryPool>, stats: StatsSlot) -> Self {
        stats.borrow_mut().parallelism = pool.degree();
        ParProjectOp {
            input: Some(input),
            attrs,
            pool,
            buffered: None,
            stats,
        }
    }
}

impl TupleStream for ParProjectOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        if let Some(mut input) = self.input.take() {
            let rows = input.drain_all()?;
            let morsel = adaptive_morsel_rows(rows.len(), self.pool.degree());
            let outcome = par_project(rows, &self.attrs, &self.pool, morsel)?;
            {
                let mut stats = self.stats.borrow_mut();
                stats.rows_in += outcome.workers.iter().map(|w| w.rows_in).sum::<usize>();
                stats.absorb_workers(&outcome.workers);
            }
            self.buffered = Some(Buffered::new(outcome.rows, &self.stats));
        }
        Ok(self.buffered.as_mut().expect("buffered above").next())
    }
}

/// The partitioned disjoint-scope hash join (`left_keys[i] = right_keys[i]`
/// pairs): both drained inputs split by normalized-key hash, partitions
/// built and probed independently on the worker pool.
pub struct ParHashJoinOp<'a> {
    left: Option<BoxedOp<'a>>,
    right: Option<BoxedOp<'a>>,
    left_keys: Vec<AttrId>,
    right_keys: Vec<AttrId>,
    pool: Arc<QueryPool>,
    buffered: Option<Buffered>,
    stats: StatsSlot,
}

impl<'a> ParHashJoinOp<'a> {
    /// A partitioned hash join fanned out onto the query's shared pool.
    pub fn new(
        left: BoxedOp<'a>,
        right: BoxedOp<'a>,
        left_keys: Vec<AttrId>,
        right_keys: Vec<AttrId>,
        pool: Arc<QueryPool>,
        stats: StatsSlot,
    ) -> Self {
        assert_eq!(left_keys.len(), right_keys.len(), "key lists must pair up");
        assert!(!left_keys.is_empty(), "hash join needs at least one key");
        stats.borrow_mut().parallelism = pool.degree();
        ParHashJoinOp {
            left: Some(left),
            right: Some(right),
            left_keys,
            right_keys,
            pool,
            buffered: None,
            stats,
        }
    }
}

impl TupleStream for ParHashJoinOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        if let (Some(mut left), Some(mut right)) = (self.left.take(), self.right.take()) {
            let right_rows = right.drain_all()?;
            let left_rows = left.drain_all()?;
            {
                let mut stats = self.stats.borrow_mut();
                stats.build_rows += right_rows.len();
                stats.rows_in += left_rows.len();
                // Both sides are held materialized at once while the pool
                // runs — the peak for this pipeline break.
                stats.note_mem(
                    left_rows.len() + right_rows.len(),
                    left_rows
                        .iter()
                        .chain(&right_rows)
                        .map(approx_tuple_bytes)
                        .sum(),
                );
            }
            let outcome = par_hash_join(
                left_rows,
                right_rows,
                &self.left_keys,
                &self.right_keys,
                &self.pool,
            )?;
            {
                let mut stats = self.stats.borrow_mut();
                stats.ni_rows += outcome.ni_rows;
                stats.absorb_workers(&outcome.workers);
            }
            self.buffered = Some(Buffered::new(outcome.rows, &self.stats));
        }
        Ok(self.buffered.as_mut().expect("buffered above").next())
    }
}

/// The partitioned shared-key equijoin `R₁(·X)R₂` — and, with
/// `keep_dangling`, the union-join `R₁(∗X)R₂`. Inputs are reduced to
/// minimal form by the partitioned minimise first (matching the serial
/// operators), then partitioned by normalized `X`-key.
pub struct ParEquiJoinOp<'a> {
    left: Option<BoxedOp<'a>>,
    right: Option<BoxedOp<'a>>,
    on: AttrSet,
    keep_dangling: bool,
    pool: Arc<QueryPool>,
    buffered: Option<Buffered>,
    stats: StatsSlot,
}

impl<'a> ParEquiJoinOp<'a> {
    /// A partitioned equijoin (`keep_dangling: false`) or union-join
    /// (`keep_dangling: true`) on the shared attributes `on`.
    pub fn new(
        left: BoxedOp<'a>,
        right: BoxedOp<'a>,
        on: AttrSet,
        keep_dangling: bool,
        pool: Arc<QueryPool>,
        stats: StatsSlot,
    ) -> Self {
        stats.borrow_mut().parallelism = pool.degree();
        ParEquiJoinOp {
            left: Some(left),
            right: Some(right),
            on,
            keep_dangling,
            pool,
            buffered: None,
            stats,
        }
    }
}

impl TupleStream for ParEquiJoinOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        if let (Some(mut left), Some(mut right)) = (self.left.take(), self.right.take()) {
            let right_rows = right.drain_all()?;
            let left_rows = left.drain_all()?;
            {
                let mut stats = self.stats.borrow_mut();
                stats.build_rows += right_rows.len();
                stats.rows_in += left_rows.len();
                // Both sides are held materialized at once while the pool
                // runs — the peak for this pipeline break.
                stats.note_mem(
                    left_rows.len() + right_rows.len(),
                    left_rows
                        .iter()
                        .chain(&right_rows)
                        .map(approx_tuple_bytes)
                        .sum(),
                );
            }
            let outcome = par_equijoin(
                left_rows,
                right_rows,
                &self.on,
                self.keep_dangling,
                &self.pool,
            )?;
            {
                let mut stats = self.stats.borrow_mut();
                stats.ni_rows += outcome.ni_rows;
                stats.absorb_workers(&outcome.workers);
            }
            self.buffered = Some(Buffered::new(outcome.rows, &self.stats));
        }
        Ok(self.buffered.as_mut().expect("buffered above").next())
    }
}

/// The parallel lattice difference (4.8): the subtrahend is drained into a
/// shared subsumption index on the coordinator, and the minuend's morsels
/// probe it concurrently — exactly the serial [`DifferenceOp`]'s
/// `!x_contains` filter, fanned out.
///
/// [`DifferenceOp`]: crate::op::DifferenceOp
pub struct ParDifferenceOp<'a> {
    left: Option<BoxedOp<'a>>,
    right: Option<BoxedOp<'a>>,
    pool: Arc<QueryPool>,
    buffered: Option<Buffered>,
    stats: StatsSlot,
}

impl<'a> ParDifferenceOp<'a> {
    /// A parallel difference `left −̂ right` on the query's shared pool.
    pub fn new(
        left: BoxedOp<'a>,
        right: BoxedOp<'a>,
        pool: Arc<QueryPool>,
        stats: StatsSlot,
    ) -> Self {
        stats.borrow_mut().parallelism = pool.degree();
        ParDifferenceOp {
            left: Some(left),
            right: Some(right),
            pool,
            buffered: None,
            stats,
        }
    }
}

impl TupleStream for ParDifferenceOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        if let (Some(mut left), Some(mut right)) = (self.left.take(), self.right.take()) {
            let right_rows = right.drain_all()?;
            let left_rows = left.drain_all()?;
            {
                let mut stats = self.stats.borrow_mut();
                stats.build_rows += right_rows.len();
                stats.rows_in += left_rows.len();
                // Both sides are held materialized at once while the pool
                // runs — the peak for this pipeline break.
                stats.note_mem(
                    left_rows.len() + right_rows.len(),
                    left_rows
                        .iter()
                        .chain(&right_rows)
                        .map(approx_tuple_bytes)
                        .sum(),
                );
            }
            let morsel = adaptive_morsel_rows(left_rows.len(), self.pool.degree());
            let outcome = par_difference(left_rows, &right_rows, &self.pool, morsel)?;
            self.stats.borrow_mut().absorb_workers(&outcome.workers);
            self.buffered = Some(Buffered::new(outcome.rows, &self.stats));
        }
        Ok(self.buffered.as_mut().expect("buffered above").next())
    }
}

/// The parallel x-intersection (4.7): the right side is materialised once
/// and shared read-only; each left morsel emits its pairwise meets in the
/// serial [`IntersectOp`]'s left-major order.
///
/// [`IntersectOp`]: crate::op::IntersectOp
pub struct ParXIntersectOp<'a> {
    left: Option<BoxedOp<'a>>,
    right: Option<BoxedOp<'a>>,
    pool: Arc<QueryPool>,
    buffered: Option<Buffered>,
    stats: StatsSlot,
}

impl<'a> ParXIntersectOp<'a> {
    /// A parallel x-intersection `left ∧̂ right` on the query's shared pool.
    pub fn new(
        left: BoxedOp<'a>,
        right: BoxedOp<'a>,
        pool: Arc<QueryPool>,
        stats: StatsSlot,
    ) -> Self {
        stats.borrow_mut().parallelism = pool.degree();
        ParXIntersectOp {
            left: Some(left),
            right: Some(right),
            pool,
            buffered: None,
            stats,
        }
    }
}

impl TupleStream for ParXIntersectOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        if let (Some(mut left), Some(mut right)) = (self.left.take(), self.right.take()) {
            let right_rows = right.drain_all()?;
            let left_rows = left.drain_all()?;
            {
                let mut stats = self.stats.borrow_mut();
                stats.build_rows += right_rows.len();
                stats.rows_in += left_rows.len();
                // Both sides are held materialized at once while the pool
                // runs — the peak for this pipeline break.
                stats.note_mem(
                    left_rows.len() + right_rows.len(),
                    left_rows
                        .iter()
                        .chain(&right_rows)
                        .map(approx_tuple_bytes)
                        .sum(),
                );
            }
            let morsel = adaptive_morsel_rows(left_rows.len(), self.pool.degree());
            let outcome = par_x_intersect(left_rows, right_rows, &self.pool, morsel)?;
            self.stats.borrow_mut().absorb_workers(&outcome.workers);
            self.buffered = Some(Buffered::new(outcome.rows, &self.stats));
        }
        Ok(self.buffered.as_mut().expect("buffered above").next())
    }
}

/// The parallel Y-quotient `R̂(÷Y)Ŝ` (Section 6): the coordinator runs the
/// serial prologue (scope check, candidate dedup, `ni` tally, dividend
/// index) and candidate qualification fans out on the pool. Counter
/// semantics match the serial [`DivisionOp`]: `build_rows` counts divisor
/// rows, `rows_in` counts dividend rows, `ni_rows` the `Y`-incomplete band.
///
/// [`DivisionOp`]: crate::op::DivisionOp
pub struct ParDivisionOp<'a> {
    input: Option<BoxedOp<'a>>,
    divisor: Option<BoxedOp<'a>>,
    y: AttrSet,
    pool: Arc<QueryPool>,
    buffered: Option<Buffered>,
    stats: StatsSlot,
}

impl<'a> ParDivisionOp<'a> {
    /// A parallel division of `input` by `divisor` over quotient
    /// attributes `y`, on the query's shared pool.
    pub fn new(
        input: BoxedOp<'a>,
        divisor: BoxedOp<'a>,
        y: AttrSet,
        pool: Arc<QueryPool>,
        stats: StatsSlot,
    ) -> Self {
        stats.borrow_mut().parallelism = pool.degree();
        ParDivisionOp {
            input: Some(input),
            divisor: Some(divisor),
            y,
            pool,
            buffered: None,
            stats,
        }
    }
}

impl TupleStream for ParDivisionOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        if let (Some(mut input), Some(mut divisor)) = (self.input.take(), self.divisor.take()) {
            let divisor_rows = divisor.drain_all()?;
            let input_rows = input.drain_all()?;
            {
                let mut stats = self.stats.borrow_mut();
                stats.build_rows += divisor_rows.len();
                stats.rows_in += input_rows.len();
                stats.note_mem(
                    input_rows.len() + divisor_rows.len(),
                    input_rows
                        .iter()
                        .chain(&divisor_rows)
                        .map(approx_tuple_bytes)
                        .sum(),
                );
            }
            let morsel = adaptive_morsel_rows(input_rows.len(), self.pool.degree());
            let outcome = par_division(input_rows, divisor_rows, &self.y, &self.pool, morsel)?;
            {
                let mut stats = self.stats.borrow_mut();
                stats.ni_rows += outcome.ni_rows;
                stats.absorb_workers(&outcome.workers);
            }
            self.buffered = Some(Buffered::new(outcome.rows, &self.stats));
        }
        Ok(self.buffered.as_mut().expect("buffered above").next())
    }
}

/// The partitioned pipeline sink: drains the input, reduces per-morsel
/// local antichains in parallel, and merges them (`merge_antichains`)
/// into the canonical minimal representation — exactly the antichain the
/// serial [`MinimizeOp`] emits.
///
/// [`MinimizeOp`]: crate::op::MinimizeOp
pub struct ParMinimizeOp<'a> {
    input: Option<BoxedOp<'a>>,
    pool: Arc<QueryPool>,
    buffered: Option<Buffered>,
    stats: StatsSlot,
}

impl<'a> ParMinimizeOp<'a> {
    /// A partitioned minimising sink over `input`.
    pub fn new(input: BoxedOp<'a>, pool: Arc<QueryPool>, stats: StatsSlot) -> Self {
        stats.borrow_mut().parallelism = pool.degree();
        ParMinimizeOp {
            input: Some(input),
            pool,
            buffered: None,
            stats,
        }
    }
}

impl TupleStream for ParMinimizeOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        if let Some(mut input) = self.input.take() {
            let rows = input.drain_all()?;
            {
                let mut stats = self.stats.borrow_mut();
                stats.rows_in += rows.len();
                stats.note_mem(rows.len(), rows.iter().map(approx_tuple_bytes).sum());
            }
            let morsel = adaptive_morsel_rows(rows.len(), self.pool.degree());
            let outcome = {
                let _span = nullrel_obs::span("minimize", "pipeline");
                par_minimize(rows, &self.pool, morsel)?
            };
            self.stats.borrow_mut().absorb_workers(&outcome.workers);
            self.buffered = Some(Buffered::new(outcome.rows, &self.stats));
        }
        Ok(self.buffered.as_mut().expect("buffered above").next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OpStats;
    use nullrel_core::algebra::VecStream;
    use nullrel_core::tvl::CompareOp;
    use nullrel_core::universe::{attr_set, Universe};
    use nullrel_core::value::Value;
    use nullrel_core::xrel::{is_antichain, XRelation};

    fn slot() -> StatsSlot {
        OpStats::slot("test", 0)
    }

    fn pool4() -> Arc<QueryPool> {
        Arc::new(QueryPool::new(4))
    }

    fn rows(n: i64) -> (Universe, AttrId, AttrId, Vec<Tuple>) {
        let mut u = Universe::new();
        let a = u.intern("A");
        let b = u.intern("B");
        let rows = (0..n)
            .map(|i| {
                let t = Tuple::new().with(a, Value::int(i % 11));
                if i % 4 == 0 {
                    t
                } else {
                    t.with(b, Value::int(i))
                }
            })
            .collect();
        (u, a, b, rows)
    }

    #[test]
    fn par_filter_op_matches_serial_filter_op() {
        let (_u, _a, b, rows) = rows(300);
        let pred = Predicate::attr_const(b, CompareOp::Ge, 100);
        let serial = {
            let mut op = crate::op::FilterOp::new(
                Box::new(VecStream::new(rows.clone())),
                pred.clone(),
                Truth::True,
                slot(),
            );
            op.drain_all().unwrap()
        };
        let stats = slot();
        let mut op = ParFilterOp::new(
            Box::new(VecStream::new(rows)),
            pred,
            Truth::True,
            pool4(),
            Rc::clone(&stats),
        );
        let out = op.drain_all().unwrap();
        assert_eq!(out, serial);
        let st = stats.borrow();
        assert_eq!(st.rows_in, 300);
        assert_eq!(st.rows_out, serial.len());
        assert_eq!(st.parallelism, 4);
        assert!(!st.workers.is_empty());
        assert_eq!(
            st.workers.iter().map(|w| w.rows_in).sum::<usize>(),
            300,
            "every row attributed to exactly one worker"
        );
    }

    #[test]
    fn par_minimize_op_produces_the_canonical_antichain() {
        let (_u, _a, _b, mut rows) = rows(200);
        let dup = rows.clone();
        rows.extend(dup);
        let oracle = XRelation::from_tuples(rows.clone());
        let stats = slot();
        let mut op = ParMinimizeOp::new(Box::new(VecStream::new(rows)), pool4(), Rc::clone(&stats));
        let out = op.drain_all().unwrap();
        assert!(is_antichain(&out));
        assert_eq!(XRelation::from_antichain(out), oracle);
        assert_eq!(stats.borrow().rows_in, 400);
    }

    #[test]
    fn par_hash_join_op_matches_serial_hash_join() {
        let mut u = Universe::new();
        let a = u.intern("A");
        let b = u.intern("B");
        let v = u.intern("V");
        let left: Vec<Tuple> = (0..150)
            .map(|i| Tuple::new().with(a, Value::int(i % 9)))
            .collect();
        let right: Vec<Tuple> = (0..60)
            .map(|i| {
                Tuple::new()
                    .with(b, Value::int(i % 9))
                    .with(v, Value::int(i))
            })
            .collect();
        let serial = {
            let mut op = crate::op::HashJoinOp::new(
                Box::new(VecStream::new(left.clone())),
                Box::new(VecStream::new(right.clone())),
                vec![a],
                vec![b],
                slot(),
            );
            XRelation::from_tuples(op.drain_all().unwrap())
        };
        let stats = slot();
        let mut op = ParHashJoinOp::new(
            Box::new(VecStream::new(left)),
            Box::new(VecStream::new(right)),
            vec![a],
            vec![b],
            pool4(),
            Rc::clone(&stats),
        );
        let out = XRelation::from_tuples(op.drain_all().unwrap());
        assert_eq!(out, serial);
        assert_eq!(stats.borrow().build_rows, 60);
        assert_eq!(stats.borrow().rows_in, 150);
    }

    #[test]
    fn par_equi_join_op_matches_oracle_in_both_modes() {
        let mut u = Universe::new();
        let k = u.intern("K");
        let a = u.intern("A");
        let b = u.intern("B");
        let left: Vec<Tuple> = (0..80)
            .map(|i| {
                let t = Tuple::new().with(a, Value::int(i));
                if i % 6 == 0 {
                    t
                } else {
                    t.with(k, Value::int(i % 10))
                }
            })
            .collect();
        let right: Vec<Tuple> = (0..30)
            .map(|i| {
                Tuple::new()
                    .with(k, Value::int(i % 15))
                    .with(b, Value::int(i))
            })
            .collect();
        let on = attr_set([k]);
        let lx = XRelation::from_tuples(left.clone());
        let rx = XRelation::from_tuples(right.clone());
        for keep_dangling in [false, true] {
            let oracle = if keep_dangling {
                nullrel_core::algebra::union_join(&lx, &rx, &on).unwrap()
            } else {
                nullrel_core::algebra::equijoin(&lx, &rx, &on).unwrap()
            };
            let mut op = ParEquiJoinOp::new(
                Box::new(VecStream::new(left.clone())),
                Box::new(VecStream::new(right.clone())),
                on.clone(),
                keep_dangling,
                pool4(),
                slot(),
            );
            let out = XRelation::from_tuples(op.drain_all().unwrap());
            assert_eq!(out, oracle, "keep_dangling={keep_dangling}");
        }
    }

    #[test]
    fn par_project_op_matches_serial_projection() {
        let (_u, a, _b, rows) = rows(120);
        let keep = attr_set([a]);
        let serial: Vec<Tuple> = rows.iter().map(|t| t.project(&keep)).collect();
        let mut op = ParProjectOp::new(Box::new(VecStream::new(rows)), keep, pool4(), slot());
        assert_eq!(op.drain_all().unwrap(), serial);
    }

    #[test]
    fn par_difference_op_matches_serial_difference_op() {
        let (_u, _a, _b, left) = rows(260);
        let right: Vec<Tuple> = left.iter().step_by(3).cloned().collect();
        let serial = {
            let mut op = crate::op::DifferenceOp::new(
                Box::new(VecStream::new(left.clone())),
                Box::new(VecStream::new(right.clone())),
                slot(),
            );
            op.drain_all().unwrap()
        };
        let stats = slot();
        let mut op = ParDifferenceOp::new(
            Box::new(VecStream::new(left.clone())),
            Box::new(VecStream::new(right.clone())),
            pool4(),
            Rc::clone(&stats),
        );
        let out = op.drain_all().unwrap();
        assert_eq!(out, serial, "row-for-row identical to the serial stream");
        let st = stats.borrow();
        assert_eq!(st.build_rows, right.len());
        assert_eq!(st.rows_in, left.len());
        assert_eq!(st.rows_out, serial.len());
        assert_eq!(st.parallelism, 4);
    }

    #[test]
    fn par_x_intersect_op_matches_serial_intersect_op() {
        let (_u, _a, _b, left) = rows(90);
        let (_u2, _a2, _b2, right) = rows(40);
        let serial = {
            let mut op = crate::op::IntersectOp::new(
                Box::new(VecStream::new(left.clone())),
                Box::new(VecStream::new(right.clone())),
                slot(),
            );
            op.drain_all().unwrap()
        };
        let stats = slot();
        let mut op = ParXIntersectOp::new(
            Box::new(VecStream::new(left.clone())),
            Box::new(VecStream::new(right.clone())),
            pool4(),
            Rc::clone(&stats),
        );
        let out = op.drain_all().unwrap();
        assert_eq!(out, serial);
        let st = stats.borrow();
        assert_eq!(st.build_rows, right.len());
        assert_eq!(st.rows_in, left.len());
        assert_eq!(st.rows_out, serial.len());
    }

    #[test]
    fn par_division_op_matches_serial_division_op() {
        let mut u = Universe::new();
        let s = u.intern("S");
        let p = u.intern("P");
        let mk = |sv: Option<i64>, pv: Option<i64>| {
            Tuple::new()
                .with_opt(s, sv.map(Value::int))
                .with_opt(p, pv.map(Value::int))
        };
        let input: Vec<Tuple> = (0..40)
            .flat_map(|i| {
                [
                    mk(Some(i % 5), Some(i % 3)),
                    mk(Some(i % 5), if i % 4 == 0 { None } else { Some(i % 4) }),
                    mk(if i % 6 == 0 { None } else { Some(i % 6) }, Some(i % 2)),
                ]
            })
            .collect();
        let divisor: Vec<Tuple> = (0..3).map(|i| mk(None, Some(i))).collect();
        let y = attr_set([s]);
        let (serial, serial_stats) = {
            let stats = slot();
            let mut op = crate::op::DivisionOp::new(
                Box::new(VecStream::new(input.clone())),
                Box::new(VecStream::new(divisor.clone())),
                y.clone(),
                Rc::clone(&stats),
            );
            let out = op.drain_all().unwrap();
            let st = stats.borrow().clone();
            (out, st)
        };
        let stats = slot();
        let mut op = ParDivisionOp::new(
            Box::new(VecStream::new(input.clone())),
            Box::new(VecStream::new(divisor.clone())),
            y,
            pool4(),
            Rc::clone(&stats),
        );
        let out = op.drain_all().unwrap();
        assert_eq!(out, serial, "candidate emission order matches serial");
        let st = stats.borrow();
        assert_eq!(st.build_rows, serial_stats.build_rows);
        assert_eq!(st.rows_in, serial_stats.rows_in);
        assert_eq!(st.rows_out, serial_stats.rows_out);
        assert_eq!(st.ni_rows, serial_stats.ni_rows, "maybe band preserved");
    }
}
