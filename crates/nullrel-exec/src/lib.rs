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
//! [`execute`] strings the three together for one truth band. The MAYBE
//! band is requested with [`Truth::Ni`](nullrel_core::tvl::Truth): filters
//! then keep the rows whose qualification evaluates to `ni` instead of
//! TRUE (optimization is skipped, as the rewrite rules are lower-bound
//! arguments).
//!
//! ## Quick start
//!
//! ```
//! use nullrel_core::algebra::NoSource;
//! use nullrel_core::prelude::*;
//! use nullrel_exec::{execute, OptimizeOptions};
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
//! let (result, stats) =
//!     execute(&plan, &NoSource, &u, Truth::True, OptimizeOptions::default()).unwrap();
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

/// Runs a logical plan in one truth band: the one way to execute an
/// [`Expr`]. The TRUE band is optimized, compiled and run — staged with
/// cardinality feedback when [`OptimizeOptions::adaptive`] is set; any
/// other band compiles the plan as written, since the optimizer's rewrite
/// rules are lower-bound arguments. Each stage is timed as a query
/// lifecycle phase.
pub fn execute<S: ExecSource>(
    expr: &Expr,
    source: &S,
    universe: &Universe,
    band: Truth,
    options: OptimizeOptions,
) -> CoreResult<(XRelation, ExecStats)> {
    if band == Truth::True {
        return adaptive::execute_adaptive(expr, source, universe, options);
    }
    use nullrel_obs::{phase, Phase};
    let pipeline = phase(Phase::Compile, || {
        compile_with(expr, source, universe, band, options)
    })?;
    phase(Phase::Run, || pipeline.run())
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
    fn execute_dispatches_on_the_band() {
        let mut u = Universe::new();
        let a = u.intern("A");
        let rel = XRelation::from_tuples([Tuple::new().with(a, Value::int(1)), Tuple::new()]);
        let plan = Expr::literal(rel).select(Predicate::attr_const(a, CompareOp::Gt, 0));
        let options = OptimizeOptions::default();
        let (sure, _) = execute(&plan, &NoSource, &u, Truth::True, options).unwrap();
        assert_eq!(sure.len(), 1);
        let (maybe, _) = execute(&plan, &NoSource, &u, Truth::Ni, options).unwrap();
        assert!(maybe.is_empty(), "minimal form stores no null tuples");
    }
}
