//! # nullrel-exec
//!
//! The pipelined physical execution engine for the `nullrel` workspace.
//!
//! The seed evaluator walks the logical [`Expr`] tree and materialises a
//! full x-relation at every node — in particular, every multi-range QUEL
//! query pays a Cartesian product. This crate separates **logical plans**
//! from **physical operators**, the split Section 5 of the paper makes
//! possible: because the lower bound `‖Q‖∗` needs only a single TRUE-band
//! pass, selections, projections, and equality joins can stream.
//!
//! The engine has three layers:
//!
//! * [`optimize`](optimize()) — a rule-based logical optimizer (selection
//!   pushdown through products and union/difference branches, product +
//!   equi-predicate → hash join, projection pushdown, dangling-free
//!   union-join → hash join), all proved under the three-valued `ni`
//!   semantics;
//! * [`compile`](compile()) — lowers the optimized plan onto physical
//!   operators, covering the **whole algebra**: [`ScanOp`], index scans via
//!   [`ExecSource::index_probe`], [`FilterOp`], [`HashJoinOp`],
//!   [`ProjectOp`], [`RenameOp`], the set operators
//!   [`UnionOp`]/[`DifferenceOp`]/[`IntersectOp`], the shared-key joins
//!   [`EquiJoinOp`]/[`UnionJoinOp`], and [`DivisionOp`] — each of which
//!   reports [`OpStats`] counters continuing the storage layer's
//!   [`ScanStats`](nullrel_storage::scan::ScanStats). There is no tree-walk
//!   fallback: every `Expr` node streams;
//! * [`Pipeline::run`] — pulls tuples through the operator tree into the
//!   [`MinimizeOp`] sink, which reduces them to the canonical minimal
//!   x-relation representation.
//!
//! The MAYBE band is requested through [`compile_band`] with
//! [`Truth::Ni`](nullrel_core::tvl::Truth): filters then keep the rows
//! whose qualification evaluates to `ni` instead of TRUE (optimization is
//! skipped, as the rewrite rules are lower-bound arguments).
//!
//! ## Quick start
//!
//! ```
//! use nullrel_core::algebra::NoSource;
//! use nullrel_core::prelude::*;
//! use nullrel_exec::execute_expr;
//!
//! let mut u = Universe::new();
//! let a = u.intern("A");
//! let b = u.intern("B");
//! let left = XRelation::from_tuples([Tuple::new().with(a, Value::int(1))]);
//! let right = XRelation::from_tuples([
//!     Tuple::new().with(b, Value::int(1)),
//!     Tuple::new().with(b, Value::int(2)),
//! ]);
//! let plan = Expr::literal(left)
//!     .product(Expr::literal(right))
//!     .select(Predicate::attr_attr(a, CompareOp::Eq, b));
//! let (result, stats) = execute_expr(&plan, &NoSource, &u).unwrap();
//! assert_eq!(result.len(), 1);
//! assert!(stats.used_hash_join());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod compile;
pub mod cost;
pub mod op;
pub mod optimize;
pub mod par_op;
pub mod source;
pub mod stats;
pub mod vec_op;

pub use adaptive::execute_adaptive;
pub use compile::{compile, compile_band, compile_with, Pipeline};
pub use nullrel_par::Parallelism;
pub use op::{
    DifferenceOp, DivisionOp, EquiJoinOp, FilterOp, HashJoinOp, IndexNestedLoopJoinOp, IntersectOp,
    MinimizeOp, ProductOp, ProjectOp, RenameOp, ScanOp, TimedOp, UnionJoinOp, UnionOp,
};
pub use optimize::{
    optimize, optimize_with, scope_info, JoinOrdering, OptimizeOptions, Optimized, ScopeInfo,
    DEFAULT_BATCH_ROWS, DEFAULT_PARALLEL_ROW_THRESHOLD, MAX_BATCH_ROWS,
};
pub use par_op::{
    ParDifferenceOp, ParDivisionOp, ParEquiJoinOp, ParFilterOp, ParHashJoinOp, ParMinimizeOp,
    ParProjectOp, ParXIntersectOp,
};
pub use source::ExecSource;
pub use stats::{approx_tuple_bytes, fmt_duration, ExecStats, OpStats, ReOptEvent};
pub use vec_op::{RowSource, VectorPipeOp};

use nullrel_core::algebra::Expr;
use nullrel_core::error::CoreResult;
use nullrel_core::tvl::Truth;
use nullrel_core::universe::Universe;
use nullrel_core::xrel::XRelation;

/// Optimizes, compiles, and runs a logical plan in one call (TRUE band).
pub fn execute_expr<S: ExecSource>(
    expr: &Expr,
    source: &S,
    universe: &Universe,
) -> CoreResult<(XRelation, ExecStats)> {
    execute_expr_with(expr, source, universe, OptimizeOptions::default())
}

/// [`execute_expr`] with explicit optimizer options — how the differential
/// tests and benchmarks pit the cost-based plan against the
/// declaration-order left-deep one. With [`OptimizeOptions::adaptive`]
/// set, execution is staged with cardinality feedback
/// ([`execute_adaptive`]); otherwise the classic static pipeline runs.
pub fn execute_expr_with<S: ExecSource>(
    expr: &Expr,
    source: &S,
    universe: &Universe,
    options: OptimizeOptions,
) -> CoreResult<(XRelation, ExecStats)> {
    if options.adaptive.is_some() {
        return execute_adaptive(expr, source, universe, options);
    }
    use nullrel_obs::{phase, Phase};
    let optimized = phase(Phase::Optimize, || optimize_with(expr, source, options));
    let pipeline = phase(Phase::Compile, || {
        compile_with(
            &optimized.expr,
            source,
            universe,
            nullrel_core::tvl::Truth::True,
            options,
        )
    })?;
    phase(Phase::Run, || pipeline.run())
}

/// Runs a logical plan under an explicit truth band. The TRUE band goes
/// through the optimizer; other bands compile the plan as written.
pub fn execute_expr_band<S: ExecSource>(
    expr: &Expr,
    source: &S,
    universe: &Universe,
    band: Truth,
) -> CoreResult<(XRelation, ExecStats)> {
    execute_expr_band_with(expr, source, universe, band, OptimizeOptions::default())
}

/// [`execute_expr_band`] with explicit engine options — how the parallel
/// differential tests pin the degree of parallelism per run in both truth
/// bands.
pub fn execute_expr_band_with<S: ExecSource>(
    expr: &Expr,
    source: &S,
    universe: &Universe,
    band: Truth,
    options: OptimizeOptions,
) -> CoreResult<(XRelation, ExecStats)> {
    if band == Truth::True {
        execute_expr_with(expr, source, universe, options)
    } else {
        use nullrel_obs::{phase, Phase};
        let pipeline = phase(Phase::Compile, || {
            compile_with(expr, source, universe, band, options)
        })?;
        phase(Phase::Run, || pipeline.run())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nullrel_core::algebra::NoSource;
    use nullrel_core::predicate::Predicate;
    use nullrel_core::tuple::Tuple;
    use nullrel_core::tvl::CompareOp;
    use nullrel_core::value::Value;

    #[test]
    fn execute_expr_band_dispatches() {
        let mut u = Universe::new();
        let a = u.intern("A");
        let rel = XRelation::from_tuples([Tuple::new().with(a, Value::int(1)), Tuple::new()]);
        let plan = Expr::literal(rel).select(Predicate::attr_const(a, CompareOp::Gt, 0));
        let (sure, _) = execute_expr_band(&plan, &NoSource, &u, Truth::True).unwrap();
        assert_eq!(sure.len(), 1);
        let (maybe, _) = execute_expr_band(&plan, &NoSource, &u, Truth::Ni).unwrap();
        assert!(maybe.is_empty(), "minimal form stores no null tuples");
    }
}
