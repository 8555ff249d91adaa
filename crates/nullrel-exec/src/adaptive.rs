//! Adaptive re-optimization: staged execution with cardinality feedback.
//!
//! The static engine plans once and trusts its estimates; when a skewed
//! join key or a correlated predicate makes an estimate wrong, every
//! *downstream* decision — join order, hash-vs-index choice, parallelism
//! grants — inherits the error. This module closes the loop the ROADMAP
//! called "join-size feedback": `est_rows` versus `rows_out` is already
//! recorded per operator, so execution can **react** to the difference.
//!
//! The mechanism exploits a structural fact of this engine: every join and
//! set-operator drain is a materializing pipeline break (each compiled
//! pipeline roots in a `Minimize` sink that produces a canonical minimal
//! x-relation). Execution therefore proceeds in stages:
//!
//! 1. find the deepest pipeline break in the current plan (a join,
//!    union-join, set operator, or division with no such node beneath it)
//!    and run *its* subtree as one pipeline;
//! 2. substitute the materialized result back into the plan as a
//!    [`Expr::Literal`] — semantically exact, since the algebra is defined
//!    on x-relation values and minimisation is canonical;
//! 3. compare the observed cardinality with the optimizer's estimate. If
//!    the q-error `max(est, actual) / min(est, actual)` exceeds
//!    [`OptimizeOptions::adaptive`], **re-optimize the remaining plan**:
//!    the literal's statistics (row bands, distinct counts, `ni`
//!    fractions, equi-depth histograms) are computed from the actual
//!    result, so the join enumerator re-orders the remaining joins — and
//!    the compiler re-grants parallelism — against *exact* numbers, not
//!    the estimates that just failed.
//!
//! Every stage recompiles against the updated plan, so even below the
//! threshold the observed sizes steer later fan-out decisions. With
//! `adaptive = None` none of this runs: the engine compiles the classic
//! single static pipeline, byte-identical to previous releases (asserted
//! in `tests/adaptive_differential.rs`, which also proves staged and
//! static execution return identical results over the differential
//! fixture corpus in both truth bands).

use nullrel_core::algebra::Expr;
use nullrel_core::error::CoreResult;
use nullrel_core::tvl::Truth;
use nullrel_core::universe::Universe;
use nullrel_core::xrel::XRelation;
use nullrel_stats::Estimator;

use crate::compile::compile_with;
use crate::optimize::{map_children, optimize_with, OptimizeOptions};
use crate::source::ExecSource;
use crate::stats::{ExecStats, OpStats, ReOptEvent};

/// True for the nodes that compile to a materializing pipeline break: the
/// hash/equi/union joins (build-side materialisation), the set-operator
/// drains, and division. Products are excluded — they stream row pairs and
/// materialising their raw output could dwarf the static pipeline.
fn is_break(expr: &Expr) -> bool {
    matches!(
        expr,
        Expr::ThetaJoin { .. }
            | Expr::EquiJoin { .. }
            | Expr::UnionJoin { .. }
            | Expr::Union(..)
            | Expr::Difference(..)
            | Expr::XIntersect(..)
            | Expr::Divide { .. }
    )
}

/// The direct children of a node, in a fixed order the path helpers share.
fn children(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::Literal(_) | Expr::Named(_) => Vec::new(),
        Expr::Select { input, .. } | Expr::Project { input, .. } | Expr::Rename { input, .. } => {
            vec![input]
        }
        Expr::Product(a, b)
        | Expr::Union(a, b)
        | Expr::XIntersect(a, b)
        | Expr::Difference(a, b) => vec![a, b],
        Expr::ThetaJoin { left, right, .. }
        | Expr::EquiJoin { left, right, .. }
        | Expr::UnionJoin { left, right, .. } => vec![left, right],
        Expr::Divide { input, divisor, .. } => vec![input, divisor],
    }
}

/// The number of pipeline-break nodes in the plan. Staging only pays when
/// there are at least two: with a single break there is nothing left to
/// re-plan after it, so materialising it separately would be pure
/// overhead.
fn count_breaks(expr: &Expr) -> usize {
    children(expr).into_iter().map(count_breaks).sum::<usize>() + usize::from(is_break(expr))
}

/// The child-index path to the leftmost deepest pipeline break (a break
/// node with no break beneath it), or `None` when the plan has none. An
/// empty path means the root itself is the only break — nothing remains to
/// re-plan, so staging it would be pure overhead.
fn deepest_break_path(expr: &Expr) -> Option<Vec<usize>> {
    for (i, child) in children(expr).into_iter().enumerate() {
        if let Some(mut path) = deepest_break_path(child) {
            path.insert(0, i);
            return Some(path);
        }
    }
    is_break(expr).then(Vec::new)
}

/// The subtree at a child-index path.
fn subtree<'a>(expr: &'a Expr, path: &[usize]) -> &'a Expr {
    match path.split_first() {
        None => expr,
        Some((head, rest)) => subtree(children(expr)[*head], rest),
    }
}

/// Rebuilds the expression with the subtree at `path` replaced.
fn replace(expr: Expr, path: &[usize], with: Expr) -> Expr {
    let Some((head, rest)) = path.split_first() else {
        return with;
    };
    let mut with = Some(with);
    let mut i = 0usize;
    map_children(expr, &mut |child| {
        let out = if i == *head {
            replace(child, rest, with.take().expect("path visits one child"))
        } else {
            child
        };
        i += 1;
        out
    })
}

/// Optimizes and executes a TRUE-band plan with staged adaptive
/// re-optimization (see the module docs). The returned [`ExecStats`]
/// concatenates every stage's operator counters (labels suffixed
/// `@stageN`), ends with the final pipeline's, and lists the
/// [`ReOptEvent`]s that re-planned the remainder. With
/// [`OptimizeOptions::adaptive`]` = None` it is the static engine: no
/// staging happens and the byte-identical static pipeline runs. Reached
/// through [`crate::execute`] for the TRUE band.
pub(crate) fn execute_adaptive<S: ExecSource>(
    expr: &Expr,
    source: &S,
    universe: &Universe,
    options: OptimizeOptions,
) -> CoreResult<(XRelation, ExecStats)> {
    use nullrel_obs::{event, metrics, phase, Phase};
    let Some(threshold) = options.adaptive.map(|t| t.max(1.0)) else {
        let optimized = phase(Phase::Optimize, || optimize_with(expr, source, options));
        let pipeline = phase(Phase::Compile, || {
            compile_with(&optimized.expr, source, universe, Truth::True, options)
        })?;
        return phase(Phase::Run, || pipeline.run());
    };
    let mut current = phase(Phase::Optimize, || optimize_with(expr, source, options)).expr;
    let mut staged_ops: Vec<OpStats> = Vec::new();
    let mut reopts: Vec<ReOptEvent> = Vec::new();
    let mut stage = 0usize;
    while count_breaks(&current) > 1 {
        let Some(path) = deepest_break_path(&current).filter(|p| !p.is_empty()) else {
            break;
        };
        stage += 1;
        // Borrow, don't clone: earlier stages injected materialized
        // intermediates as literals, which a subtree clone would copy
        // wholesale at every later stage.
        let sub = subtree(&current, &path);
        let est = Estimator::new(source).estimate(sub).rounded_rows();
        let label = sub
            .explain(universe)
            .lines()
            .next()
            .unwrap_or("?")
            .trim()
            .to_owned();
        metrics::ADAPTIVE_STAGES.inc();
        if nullrel_obs::tracing_active() {
            event(format!("stage{stage}: {label}"), "stage");
        }
        let pipeline = phase(Phase::Compile, || {
            compile_with(sub, source, universe, Truth::True, options)
        })?;
        let (result, stats) = phase(Phase::Run, || pipeline.run())?;
        let actual = result.len() as u64;
        for mut op in stats.ops {
            op.label.push_str(&format!(" @stage{stage}"));
            staged_ops.push(op);
        }
        let event = ReOptEvent {
            label,
            est_rows: est,
            actual_rows: actual,
        };
        // Each stage strictly reduces the plan's leaf count, so the loop
        // terminates even when re-optimization introduces new join nodes.
        current = replace(current, &path, Expr::literal(result));
        if event.q_error() > threshold {
            metrics::REOPT_EVENTS.inc();
            if nullrel_obs::tracing_active() {
                nullrel_obs::event(
                    format!(
                        "re-opt@{}: est={} actual={}",
                        event.label, event.est_rows, event.actual_rows
                    ),
                    "reopt",
                );
            }
            reopts.push(event);
            current = phase(Phase::Optimize, || optimize_with(&current, source, options)).expr;
        }
    }
    let pipeline = phase(Phase::Compile, || {
        compile_with(&current, source, universe, Truth::True, options)
    })?;
    let (result, stats) = phase(Phase::Run, || pipeline.run())?;
    let mut ops = staged_ops;
    ops.extend(stats.ops);
    Ok((result, ExecStats { ops, reopts }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nullrel_core::algebra::NoSource;
    use nullrel_core::predicate::Predicate;
    use nullrel_core::tuple::Tuple;
    use nullrel_core::tvl::CompareOp;
    use nullrel_core::value::Value;

    fn adaptive(threshold: f64) -> OptimizeOptions {
        OptimizeOptions {
            adaptive: Some(threshold),
            ..OptimizeOptions::default()
        }
    }

    /// A three-way chain whose first join is badly underestimated (both
    /// sides skewed onto one key the distinct counts hide): adaptive
    /// execution stages it, sees the blow-up, and records a re-opt event;
    /// the result equals the static engine's.
    #[test]
    fn staged_execution_matches_static_and_records_reopt() {
        let mut u = Universe::new();
        let a = u.intern("A");
        let b = u.intern("B");
        let c = u.intern("C");
        let pad = u.intern("PAD");
        let d = u.intern("D");
        // L: 1 hot key (20 rows) + 20 unique keys; R: 30 rows, all hot.
        let left = XRelation::from_tuples((0..40).map(|i| {
            let key = if i < 20 { 0 } else { i };
            Tuple::new()
                .with(a, Value::str(format!("k{key}")))
                .with(b, Value::int(i))
        }));
        let right = XRelation::from_tuples((0..30).map(|i| {
            Tuple::new()
                .with(c, Value::str("k0"))
                .with(pad, Value::int(i))
        }));
        let third = XRelation::from_tuples((0..10).map(|i| Tuple::new().with(d, Value::int(i))));
        let plan = Expr::literal(left)
            .product(Expr::literal(right))
            .product(Expr::literal(third))
            .select(
                Predicate::attr_attr(a, CompareOp::Eq, c).and(Predicate::attr_attr(
                    b,
                    CompareOp::Eq,
                    d,
                )),
            );
        let (static_res, static_stats) = crate::execute(
            &plan,
            &NoSource,
            &u,
            Truth::True,
            OptimizeOptions {
                adaptive: None,
                ..OptimizeOptions::default()
            },
        )
        .unwrap();
        let (adaptive_res, adaptive_stats) =
            execute_adaptive(&plan, &NoSource, &u, adaptive(2.0)).unwrap();
        assert_eq!(adaptive_res, static_res, "{}", adaptive_stats.render());
        assert!(
            adaptive_stats.reoptimized(),
            "the hot-key join misses its estimate by far more than 2×:\n{}",
            adaptive_stats.render()
        );
        assert!(adaptive_stats.render().contains("re-opt@"));
        assert!(adaptive_stats.render().contains("@stage1"));
        assert!(!static_stats.reoptimized());
    }

    /// Plans whose only break is the root run as a single static pipeline
    /// even in adaptive mode — staging the whole plan would re-plan
    /// nothing.
    #[test]
    fn single_join_plans_do_not_stage() {
        let mut u = Universe::new();
        let a = u.intern("A");
        let b = u.intern("B");
        let left = XRelation::from_tuples((0..5).map(|i| Tuple::new().with(a, Value::int(i))));
        let right = XRelation::from_tuples((0..5).map(|i| Tuple::new().with(b, Value::int(i))));
        let plan = Expr::literal(left)
            .product(Expr::literal(right))
            .select(Predicate::attr_attr(a, CompareOp::Eq, b));
        let (res, stats) = execute_adaptive(&plan, &NoSource, &u, adaptive(1.0)).unwrap();
        assert_eq!(res.len(), 5);
        assert!(!stats.reoptimized());
        assert!(
            !stats.render().contains("@stage"),
            "no staging:\n{}",
            stats.render()
        );
        // A non-break wrapper above the only break changes nothing: with a
        // single break there is nothing left to re-plan.
        let wrapped = plan.project(nullrel_core::universe::attr_set([a]));
        let (res, stats) = execute_adaptive(&wrapped, &NoSource, &u, adaptive(1.0)).unwrap();
        assert_eq!(res.len(), 5);
        assert!(
            !stats.render().contains("@stage"),
            "single wrapped break must not stage:\n{}",
            stats.render()
        );
    }

    /// The direct entry point upholds the `adaptive = None` contract too:
    /// no staging, byte-identical static ExecStats.
    #[test]
    fn execute_adaptive_with_none_is_the_static_engine() {
        let mut u = Universe::new();
        let a = u.intern("A");
        let b = u.intern("B");
        let left = XRelation::from_tuples((0..6).map(|i| Tuple::new().with(a, Value::int(i % 3))));
        let right = XRelation::from_tuples((0..4).map(|i| Tuple::new().with(b, Value::int(i))));
        let plan = Expr::literal(left)
            .product(Expr::literal(right))
            .select(Predicate::attr_attr(a, CompareOp::Eq, b));
        let options = OptimizeOptions {
            adaptive: None,
            ..OptimizeOptions::default()
        };
        let (res, stats) = execute_adaptive(&plan, &NoSource, &u, options).unwrap();
        let (static_res, static_stats) =
            crate::execute(&plan, &NoSource, &u, Truth::True, options).unwrap();
        assert_eq!(res, static_res);
        assert_eq!(stats, static_stats, "byte-identical static pipeline");
        assert!(!stats.render().contains("@stage"));
    }

    #[test]
    fn path_helpers_round_trip() {
        let mut u = Universe::new();
        let a = u.intern("A");
        let rel = || {
            Expr::literal(XRelation::from_tuples(
                [Tuple::new().with(a, Value::int(1))],
            ))
        };
        let inner = rel().union(rel());
        let plan = inner
            .clone()
            .difference(rel())
            .project(nullrel_core::universe::attr_set([a]));
        // Deepest break: the Union (inside the Difference's left child).
        let path = deepest_break_path(&plan).unwrap();
        assert_eq!(subtree(&plan, &path), &inner);
        let swapped = replace(plan.clone(), &path, rel());
        assert!(deepest_break_path(&swapped).unwrap().len() < path.len() + 1);
        assert_ne!(swapped, plan);
    }
}
