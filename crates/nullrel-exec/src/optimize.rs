//! The logical optimizer: rule-based rewrites plus cost-based join
//! ordering.
//!
//! Five rewrite passes over [`Expr`], applied in order:
//!
//! 1. **Projection pushdown** — insert projections below Cartesian products
//!    so join inputs carry only the attributes the rest of the plan needs.
//!    In the x-relation algebra projection drops null tuples, so the rule
//!    fires only when the pruned branch provably keeps at least one
//!    non-null tuple (otherwise a non-empty branch could collapse to the
//!    empty x-relation and lose product pairs).
//! 2. **Selection pushdown** — split the where-clause into conjuncts and
//!    push each into the deepest input whose scope covers its attributes.
//!    Sound under the three-valued semantics because a conjunct that is
//!    FALSE or `ni` on one factor makes the whole conjunction non-TRUE on
//!    every product pair built from it. Selections also push **through
//!    union and difference branches**: the TRUE band of a predicate is
//!    monotone in the information ordering (adding cells can never turn
//!    TRUE into FALSE or `ni`), so `σ(A ∪ B) = σ(A) ∪ σ(B)` holds on any
//!    representation, and `σ(A − B) = σ(A) − B` pushes into the minuend
//!    (never the subtrahend, which only *removes* tuples by domination).
//! 3. **Product → equi-join** — a product under a selection containing an
//!    `A = B` conjunct with `A` from the left scope and `B` from the right
//!    becomes a θ-join on equality, which the compiler executes as a hash
//!    join instead of a quadratic product.
//! 4. **Cost-based join ordering** ([`crate::cost`]) — components of three
//!    or more relations joined by products/θ-joins are re-ordered by a
//!    DP-over-subsets enumerator (greedy beyond
//!    [`crate::cost::DP_RELATION_LIMIT`] relations) driven by the
//!    `nullrel-stats` cardinality estimator, replacing declaration-order
//!    left-deep trees. Disable with
//!    [`JoinOrdering::Declaration`] (the differential tests and benches
//!    compare both).
//! 5. **Union-join → hash-join** — a union-join whose literal operands are
//!    provably dangling-free (both sides total on the join key, scopes
//!    overlapping only inside it, and the two normalized key sets equal)
//!    degenerates to the plain equijoin, dropping the dangling-tuple pass.
//!
//! All passes need *exact* scope information to route predicates; scopes
//! are computed from literals and from [`ExecSource::relation_scope`], and
//! any node whose scope is unknown simply disables the rewrites above it.

use std::collections::BTreeMap;
use std::collections::HashSet;

use nullrel_core::algebra::{normalize_on, Expr};
use nullrel_core::predicate::{Operand, Predicate};
use nullrel_core::tuple::Tuple;
use nullrel_core::tvl::{CompareOp, Truth};
use nullrel_core::universe::{AttrId, AttrSet};
use nullrel_core::xrel::XRelation;
use nullrel_par::Parallelism;

use crate::source::ExecSource;

/// The result of optimization: the rewritten plan plus a log of applied
/// rules (for explain output and tests).
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The rewritten logical plan.
    pub expr: Expr,
    /// Human-readable descriptions of every rule application.
    pub applied: Vec<String>,
}

/// How joins of three or more relations are ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinOrdering {
    /// Enumerate join orders by estimated cost (DP over subsets, greedy
    /// beyond [`crate::cost::DP_RELATION_LIMIT`] relations).
    #[default]
    CostBased,
    /// Keep the declaration-order left-deep tree (the pre-statistics
    /// behavior; kept selectable for differential tests and benchmarks).
    Declaration,
}

/// The default fan-out threshold: operators whose estimated input falls
/// below this many rows always run serially — thread spawn and partition
/// costs would dwarf the per-row work.
pub const DEFAULT_PARALLEL_ROW_THRESHOLD: u64 = 64;

/// The default column-batch granularity of the vectorized scan pipeline,
/// in rows: large enough that per-batch overheads (column allocation,
/// selection vectors) amortise, small enough that a batch's columns stay
/// cache-resident.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// Optimizer and engine knobs.
#[derive(Debug, Clone, Copy)]
pub struct OptimizeOptions {
    /// Join-order strategy for multi-relation components.
    pub join_ordering: JoinOrdering,
    /// Ceiling on the per-operator degree of parallelism. The default,
    /// `Serial`, keeps the engine byte-identical to the single-threaded
    /// one. Each operator still fans out only when the `nullrel-stats`
    /// cardinality estimate of its input clears
    /// [`OptimizeOptions::parallel_row_threshold`].
    pub parallelism: Parallelism,
    /// Minimum estimated input rows before an operator may fan out.
    pub parallel_row_threshold: u64,
    /// Adaptive re-optimization: `Some(threshold)` makes TRUE-band
    /// execution **staged** — every materializing pipeline break (a join
    /// or set-operator drain, each of which roots its own `Minimize` sink)
    /// compares the observed cardinality against the optimizer's estimate,
    /// and when the q-error `max(est, actual) / min(est, actual)` exceeds
    /// `threshold`, the remaining plan (join order *and* parallelism
    /// grants) is re-optimized with the materialized result injected as a
    /// literal whose statistics — histograms included — are exact. `None`,
    /// the default, compiles exactly the static single-pipeline plan the
    /// engine always produced.
    pub adaptive: Option<f64>,
    /// Row granularity of the vectorized pipeline's column batches
    /// (clamped to at least 1; default [`DEFAULT_BATCH_ROWS`]).
    /// `batch_size = 1` degenerates to one-row batches, which
    /// `tests/vectorized_differential.rs` runs to prove batching never
    /// changes results.
    pub batch_size: usize,
}

impl OptimizeOptions {
    /// Parses a `NULLREL_ADAPTIVE`-style value into an adaptive threshold:
    /// unset, empty, unparsable, or any value below 1.0 (q-errors are
    /// ratios ≥ 1, so `0` is the natural "off" spelling) mean `None`; any
    /// other finite number is the threshold.
    pub fn adaptive_from(value: Option<&str>) -> Option<f64> {
        let t = value?.trim().parse::<f64>().ok()?;
        (t.is_finite() && t >= 1.0).then_some(t)
    }
}

impl Default for OptimizeOptions {
    /// Serial, static (not adaptive), cost-based, batch
    /// [`DEFAULT_BATCH_ROWS`].
    fn default() -> Self {
        OptimizeOptions {
            join_ordering: JoinOrdering::default(),
            parallelism: Parallelism::default(),
            parallel_row_threshold: DEFAULT_PARALLEL_ROW_THRESHOLD,
            adaptive: None,
            batch_size: DEFAULT_BATCH_ROWS,
        }
    }
}

/// Runs all rewrite passes over a logical plan (cost-based join ordering
/// included).
pub fn optimize<S: ExecSource>(expr: &Expr, source: &S) -> Optimized {
    optimize_with(expr, source, OptimizeOptions::default())
}

/// [`optimize`] with explicit options.
pub fn optimize_with<S: ExecSource>(
    expr: &Expr,
    source: &S,
    options: OptimizeOptions,
) -> Optimized {
    let mut applied = Vec::new();
    let expr = push_projections(expr.clone(), None, source, &mut applied);
    let expr = push_selections(expr, source, &mut applied);
    let expr = match options.join_ordering {
        JoinOrdering::CostBased => crate::cost::reorder_joins(expr, source, &mut applied),
        JoinOrdering::Declaration => expr,
    };
    let expr = products_to_joins(expr, source, &mut applied);
    let expr = union_joins_to_equijoins(expr, &mut applied);
    Optimized { expr, applied }
}

/// A statically derived attribute scope, annotated with whether it is
/// exact or a conservative **over-approximation** (a superset of every
/// attribute the result can actually carry).
///
/// Every rewrite in this crate that consumes scopes — predicate routing,
/// product/scope disjointness, join-key orientation, and the DP join
/// enumerator — only relies on the *superset* property: an attribute
/// outside the reported scope provably never appears, and disjointness of
/// two over-approximations implies disjointness of the actual scopes. A
/// conjunct routed by an over-approximated scope can at worst evaluate to
/// `ni` on rows that lack the attribute, which the TRUE band drops exactly
/// as the unrewritten plan would have. The flag is still carried so future
/// rules that need exactness (e.g. star-schema key inference) can demand
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeInfo {
    /// The (possibly over-approximated) attribute set.
    pub attrs: AttrSet,
    /// True when `attrs` is exactly the result scope on every input.
    pub exact: bool,
}

impl ScopeInfo {
    fn exact(attrs: AttrSet) -> Self {
        ScopeInfo { attrs, exact: true }
    }

    fn over_approx(attrs: AttrSet) -> Self {
        ScopeInfo {
            attrs,
            exact: false,
        }
    }
}

/// The attribute scope of an expression's result, when statically known —
/// see [`scope_info`] for the exactness contract. `None` means unknown and
/// disables rewrites that depend on it.
pub fn scope_of<S: ExecSource>(expr: &Expr, source: &S) -> Option<AttrSet> {
    scope_info(expr, source).map(|s| s.attrs)
}

/// The annotated attribute scope of an expression's result ([`ScopeInfo`]).
///
/// `UnionJoin` and `Divide` report conservative over-approximations (the
/// union of the operand scopes, resp. the quotient attributes) instead of
/// `None`: their actual scopes are data-dependent, but a superset is
/// statically certain, and that is all the join reorderer needs to plan
/// across them. `Union`/`XIntersect`/`Difference` still report unknown —
/// minimisation can shrink their scopes too, and no current rewrite gains
/// from bounding them.
pub fn scope_info<S: ExecSource>(expr: &Expr, source: &S) -> Option<ScopeInfo> {
    match expr {
        Expr::Literal(rel) => Some(ScopeInfo::exact(rel.scope())),
        Expr::Named(name) => source.relation_scope(name).map(ScopeInfo::exact),
        Expr::Select { input, .. } => scope_info(input, source),
        Expr::Project { input, attrs } => scope_info(input, source).map(|s| ScopeInfo {
            attrs: s.attrs.intersection(attrs).copied().collect(),
            exact: s.exact,
        }),
        Expr::Product(a, b)
        | Expr::EquiJoin {
            left: a, right: b, ..
        }
        | Expr::ThetaJoin {
            left: a, right: b, ..
        } => {
            let (sa, sb) = (scope_info(a, source)?, scope_info(b, source)?);
            let mut attrs = sa.attrs;
            attrs.extend(sb.attrs);
            Some(ScopeInfo {
                attrs,
                exact: sa.exact && sb.exact,
            })
        }
        Expr::Rename { input, mapping } => scope_info(input, source).map(|s| ScopeInfo {
            attrs: s
                .attrs
                .into_iter()
                .map(|a| mapping.get(&a).copied().unwrap_or(a))
                .collect(),
            exact: s.exact,
        }),
        // The union-join emits joined pairs and dangling tuples of either
        // side: its scope is a data-dependent subset of the operand scopes'
        // union — report that union as an over-approximation.
        Expr::UnionJoin { left, right, .. } => {
            let (sl, sr) = (scope_info(left, source)?, scope_info(right, source)?);
            let mut attrs = sl.attrs;
            attrs.extend(sr.attrs);
            Some(ScopeInfo::over_approx(attrs))
        }
        // Division emits projections of Y-total dividend tuples onto Y:
        // the scope is contained in Y (intersected with the dividend scope
        // when that is known).
        Expr::Divide { input, y, .. } => {
            let attrs = match scope_info(input, source) {
                Some(s) => y.intersection(&s.attrs).copied().collect(),
                None => y.clone(),
            };
            Some(ScopeInfo::over_approx(attrs))
        }
        // Minimisation can shrink these scopes in data-dependent ways; no
        // current rewrite benefits from an over-approximation, so report
        // unknown rather than weaken the exactness signal.
        Expr::Union(..) | Expr::XIntersect(..) | Expr::Difference(..) => None,
    }
}

/// Splits a predicate into its top-level conjuncts, dropping TRUE literals.
pub fn split_and(predicate: Predicate, out: &mut Vec<Predicate>) {
    match predicate {
        Predicate::And(a, b) => {
            split_and(*a, out);
            split_and(*b, out);
        }
        Predicate::Literal(Truth::True) => {}
        other => out.push(other),
    }
}

/// Rebuilds a conjunction from conjuncts (`None` when there are none).
pub fn and_all(mut conjuncts: Vec<Predicate>) -> Option<Predicate> {
    let first = if conjuncts.is_empty() {
        return None;
    } else {
        conjuncts.remove(0)
    };
    Some(conjuncts.into_iter().fold(first, Predicate::and))
}

pub(crate) fn wrap(expr: Expr, conjuncts: Vec<Predicate>) -> Expr {
    match and_all(conjuncts) {
        Some(p) => expr.select(p),
        None => expr,
    }
}

/// Applies `f` to every direct child, rebuilding the node.
pub(crate) fn map_children(expr: Expr, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
    match expr {
        Expr::Literal(_) | Expr::Named(_) => expr,
        Expr::Select { input, predicate } => Expr::Select {
            input: Box::new(f(*input)),
            predicate,
        },
        Expr::Project { input, attrs } => Expr::Project {
            input: Box::new(f(*input)),
            attrs,
        },
        Expr::Product(a, b) => Expr::Product(Box::new(f(*a)), Box::new(f(*b))),
        Expr::ThetaJoin {
            left,
            left_attr,
            op,
            right_attr,
            right,
        } => Expr::ThetaJoin {
            left: Box::new(f(*left)),
            left_attr,
            op,
            right_attr,
            right: Box::new(f(*right)),
        },
        Expr::EquiJoin { left, right, on } => Expr::EquiJoin {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            on,
        },
        Expr::UnionJoin { left, right, on } => Expr::UnionJoin {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            on,
        },
        Expr::Divide { input, y, divisor } => Expr::Divide {
            input: Box::new(f(*input)),
            y,
            divisor: Box::new(f(*divisor)),
        },
        Expr::Union(a, b) => Expr::Union(Box::new(f(*a)), Box::new(f(*b))),
        Expr::XIntersect(a, b) => Expr::XIntersect(Box::new(f(*a)), Box::new(f(*b))),
        Expr::Difference(a, b) => Expr::Difference(Box::new(f(*a)), Box::new(f(*b))),
        Expr::Rename { input, mapping } => Expr::Rename {
            input: Box::new(f(*input)),
            mapping,
        },
    }
}

// ---------------------------------------------------------------------
// Pass 1: projection pushdown
// ---------------------------------------------------------------------

/// True when `π_keep(expr)` is provably non-empty whenever `expr` is
/// non-empty — the soundness condition for inserting a projection below a
/// product (projection drops null tuples, and an emptied factor would drop
/// every product pair).
///
/// Literal leaves are checked against their actual tuples. Catalog scans
/// (`Named`, `Rename(Named)`) are proved through the statistics catalog:
/// if some kept column has `ni` fraction zero — which covers every column
/// the schema declares non-nullable, keys included — every stored row
/// keeps a non-null cell; otherwise a row that is non-null on some kept
/// column still witnesses non-emptiness, since statistics are maintained
/// exactly (not sampled).
fn projection_safe<S: ExecSource>(expr: &Expr, keep: &AttrSet, source: &S) -> bool {
    match expr {
        Expr::Literal(rel) => {
            rel.is_empty()
                || rel
                    .tuples()
                    .iter()
                    .any(|t| keep.iter().any(|a| t.get(*a).is_some()))
        }
        Expr::Project { input, attrs } => {
            let keep2: AttrSet = keep.intersection(attrs).copied().collect();
            projection_safe(input, &keep2, source)
        }
        Expr::Named(name) => stored_projection_safe(name, keep, None, source),
        Expr::Rename { input, mapping } => match input.as_ref() {
            Expr::Named(name) => stored_projection_safe(name, keep, Some(mapping), source),
            _ => false,
        },
        _ => false,
    }
}

/// The catalog-scan arm of [`projection_safe`]: maps the kept attributes
/// back to stored columns (through the range variable's renaming, if any)
/// and consults the statistics catalog.
fn stored_projection_safe<S: ExecSource>(
    name: &str,
    keep: &AttrSet,
    mapping: Option<&BTreeMap<AttrId, AttrId>>,
    source: &S,
) -> bool {
    let Some(stats) = source.table_statistics(name) else {
        return false;
    };
    if stats.rows == 0 {
        return true;
    }
    let base_keep: Vec<AttrId> = keep
        .iter()
        .filter_map(|a| match mapping {
            Some(m) => base_attr(m, *a),
            None => Some(*a),
        })
        .collect();
    // Fast path: a kept column that is never ni (schema-level non-null
    // columns report exactly this) proves every row survives; otherwise
    // any row non-null on some kept column still witnesses non-emptiness.
    base_keep.iter().any(|a| stats.ni_fraction(*a) == 0.0)
        || base_keep
            .iter()
            .any(|a| stats.column(*a).is_some_and(|c| c.null_rows < stats.rows))
}

fn push_projections<S: ExecSource>(
    expr: Expr,
    needed: Option<&AttrSet>,
    source: &S,
    log: &mut Vec<String>,
) -> Expr {
    match expr {
        Expr::Project { input, attrs } => Expr::Project {
            input: Box::new(push_projections(*input, Some(&attrs.clone()), source, log)),
            attrs,
        },
        Expr::Select { input, predicate } => {
            let needed2 = needed.map(|n| {
                let mut n = n.clone();
                n.extend(predicate.attrs());
                n
            });
            Expr::Select {
                input: Box::new(push_projections(*input, needed2.as_ref(), source, log)),
                predicate,
            }
        }
        Expr::Product(a, b) => {
            let prune = |child: Expr, log: &mut Vec<String>| -> Expr {
                let Some(needed) = needed else {
                    return push_projections(child, None, source, log);
                };
                let Some(scope) = scope_of(&child, source) else {
                    return push_projections(child, None, source, log);
                };
                let keep: AttrSet = needed.intersection(&scope).copied().collect();
                if keep.len() < scope.len()
                    && !keep.is_empty()
                    && projection_safe(&child, &keep, source)
                {
                    log.push(format!(
                        "projection-pushdown: narrowed a product input from {} to {} attribute(s)",
                        scope.len(),
                        keep.len()
                    ));
                    Expr::Project {
                        input: Box::new(push_projections(child, Some(&keep.clone()), source, log)),
                        attrs: keep,
                    }
                } else {
                    push_projections(child, Some(&keep), source, log)
                }
            };
            let a = prune(*a, log);
            let b = prune(*b, log);
            Expr::Product(Box::new(a), Box::new(b))
        }
        // Other nodes: recurse without a usable needed-set.
        other => map_children(other, &mut |c| push_projections(c, None, source, log)),
    }
}

// ---------------------------------------------------------------------
// Pass 2: selection pushdown
// ---------------------------------------------------------------------

fn push_selections<S: ExecSource>(expr: Expr, source: &S, log: &mut Vec<String>) -> Expr {
    match expr {
        Expr::Select { input, predicate } => {
            let input = push_selections(*input, source, log);
            let mut conjuncts = Vec::new();
            split_and(predicate, &mut conjuncts);
            distribute(input, conjuncts, source, log)
        }
        other => map_children(other, &mut |c| push_selections(c, source, log)),
    }
}

fn distribute<S: ExecSource>(
    input: Expr,
    conjuncts: Vec<Predicate>,
    source: &S,
    log: &mut Vec<String>,
) -> Expr {
    if conjuncts.is_empty() {
        return input;
    }
    match input {
        Expr::Select {
            input: inner,
            predicate,
        } => {
            let mut all = conjuncts;
            split_and(predicate, &mut all);
            distribute(*inner, all, source, log)
        }
        Expr::Product(a, b) => {
            let (sa, sb) = (scope_of(&a, source), scope_of(&b, source));
            if let (Some(sa), Some(sb)) = (sa, sb) {
                if sa.intersection(&sb).next().is_none() {
                    let mut to_a = Vec::new();
                    let mut to_b = Vec::new();
                    let mut rest = Vec::new();
                    for c in conjuncts {
                        let attrs = c.attrs();
                        if !attrs.is_empty() && attrs.is_subset(&sa) {
                            to_a.push(c);
                        } else if !attrs.is_empty() && attrs.is_subset(&sb) {
                            to_b.push(c);
                        } else {
                            rest.push(c);
                        }
                    }
                    let pushed = to_a.len() + to_b.len();
                    if pushed > 0 {
                        log.push(format!(
                            "selection-pushdown: moved {pushed} conjunct(s) below a product"
                        ));
                    }
                    let a = distribute(*a, to_a, source, log);
                    let b = distribute(*b, to_b, source, log);
                    return wrap(Expr::Product(Box::new(a), Box::new(b)), rest);
                }
            }
            wrap(Expr::Product(a, b), conjuncts)
        }
        // σ distributes over the lattice union: the TRUE band is monotone
        // in the information ordering, so filtering each branch's
        // representation keeps exactly the tuples the filtered union keeps.
        Expr::Union(a, b) => {
            log.push(format!(
                "selection-pushdown: pushed {} conjunct(s) into both union branches",
                conjuncts.len()
            ));
            let a = distribute(*a, conjuncts.clone(), source, log);
            let b = distribute(*b, conjuncts, source, log);
            Expr::Union(Box::new(a), Box::new(b))
        }
        // σ(A − B) = σ(A) − B: the subtrahend only removes tuples by
        // domination, so filtering the minuend first commutes. The
        // subtrahend must stay unfiltered.
        Expr::Difference(a, b) => {
            log.push(format!(
                "selection-pushdown: pushed {} conjunct(s) into the difference minuend",
                conjuncts.len()
            ));
            let a = distribute(*a, conjuncts, source, log);
            Expr::Difference(Box::new(a), b)
        }
        Expr::Project {
            input: inner,
            attrs,
        } => {
            let (below, above): (Vec<_>, Vec<_>) = conjuncts
                .into_iter()
                .partition(|c| !c.attrs().is_empty() && c.attrs().is_subset(&attrs));
            if !below.is_empty() {
                log.push(format!(
                    "selection-pushdown: moved {} conjunct(s) below a projection",
                    below.len()
                ));
            }
            let pruned = distribute(*inner, below, source, log);
            wrap(
                Expr::Project {
                    input: Box::new(pruned),
                    attrs,
                },
                above,
            )
        }
        other => wrap(other, conjuncts),
    }
}

// ---------------------------------------------------------------------
// Pass 3: product + equi-predicate → θ-join on equality
// ---------------------------------------------------------------------

/// The attribute pair of an `A = B` conjunct oriented left-to-right across
/// the given scopes, if the conjunct is one.
pub(crate) fn equi_pair(
    conjunct: &Predicate,
    left_scope: &AttrSet,
    right_scope: &AttrSet,
) -> Option<(AttrId, AttrId)> {
    let Predicate::Cmp(cmp) = conjunct else {
        return None;
    };
    if cmp.op != CompareOp::Eq {
        return None;
    }
    let (Operand::Attr(x), Operand::Attr(y)) = (&cmp.left, &cmp.right) else {
        return None;
    };
    if left_scope.contains(x) && right_scope.contains(y) {
        Some((*x, *y))
    } else if left_scope.contains(y) && right_scope.contains(x) {
        Some((*y, *x))
    } else {
        None
    }
}

fn products_to_joins<S: ExecSource>(expr: Expr, source: &S, log: &mut Vec<String>) -> Expr {
    let expr = map_children(expr, &mut |c| products_to_joins(c, source, log));
    let Expr::Select { input, predicate } = expr else {
        return expr;
    };
    let Expr::Product(a, b) = *input else {
        return Expr::Select {
            input: Box::new(*input),
            predicate,
        };
    };
    let (sa, sb) = (scope_of(&a, source), scope_of(&b, source));
    if let (Some(sa), Some(sb)) = (sa, sb) {
        let mut conjuncts = Vec::new();
        split_and(predicate, &mut conjuncts);
        if let Some(pos) = conjuncts
            .iter()
            .position(|c| equi_pair(c, &sa, &sb).is_some())
        {
            let pair = equi_pair(&conjuncts.remove(pos), &sa, &sb).expect("checked above");
            log.push("product-to-hash-join: rewrote a product under an equality".to_owned());
            let join = Expr::ThetaJoin {
                left: a,
                left_attr: pair.0,
                op: CompareOp::Eq,
                right_attr: pair.1,
                right: b,
            };
            return wrap(join, conjuncts);
        }
        return wrap(Expr::Product(a, b), conjuncts);
    }
    Expr::Select {
        input: Box::new(Expr::Product(a, b)),
        predicate,
    }
}

// ---------------------------------------------------------------------
// Pass 4: union-join → hash-join
// ---------------------------------------------------------------------

/// The normalized `X`-key set of a literal operand, provided every tuple is
/// `X`-total (`None` otherwise — a key-incomplete tuple always dangles).
fn total_key_set(rel: &XRelation, on: &AttrSet) -> Option<HashSet<Tuple>> {
    let mut keys = HashSet::with_capacity(rel.len());
    for t in rel.tuples() {
        if !t.is_total_on(on) {
            return None;
        }
        keys.insert(normalize_on(t, on).project(on));
    }
    Some(keys)
}

/// True when a union-join over these literal operands is provably
/// dangling-free, i.e. equal to the plain equijoin: both sides total on the
/// join key, scopes overlapping only inside it (so a key match implies
/// joinability), and the normalized key sets equal (so every tuple finds a
/// partner).
fn union_join_is_dangling_free(left: &XRelation, right: &XRelation, on: &AttrSet) -> bool {
    if on.is_empty() {
        return false;
    }
    let mut shared = left.scope();
    shared.retain(|a| right.scope().contains(a));
    if !shared.is_subset(on) {
        return false;
    }
    match (total_key_set(left, on), total_key_set(right, on)) {
        (Some(lk), Some(rk)) => lk == rk,
        _ => false,
    }
}

fn union_joins_to_equijoins(expr: Expr, log: &mut Vec<String>) -> Expr {
    let expr = map_children(expr, &mut |c| union_joins_to_equijoins(c, log));
    let Expr::UnionJoin { left, right, on } = expr else {
        return expr;
    };
    if let (Expr::Literal(l), Expr::Literal(r)) = (left.as_ref(), right.as_ref()) {
        if union_join_is_dangling_free(l, r, &on) {
            log.push(
                "union-join-to-hash-join: both sides total and key-matched on the join \
                 attributes; the dangling-tuple pass is dropped"
                    .to_owned(),
            );
            return Expr::EquiJoin { left, right, on };
        }
    }
    Expr::UnionJoin { left, right, on }
}

/// Extracts further `A = B` conjuncts joining the two sides of a θ-join —
/// used by the compiler to widen a hash join's key list. Returns the key
/// pairs and the residual conjuncts.
pub fn extra_join_keys(
    conjuncts: Vec<Predicate>,
    left_scope: &AttrSet,
    right_scope: &AttrSet,
) -> (Vec<(AttrId, AttrId)>, Vec<Predicate>) {
    let mut keys = Vec::new();
    let mut rest = Vec::new();
    for c in conjuncts {
        match equi_pair(&c, left_scope, right_scope) {
            Some(pair) => keys.push(pair),
            None => rest.push(c),
        }
    }
    (keys, rest)
}

/// Renames a mapping's view of an attribute back to its base id, if mapped.
pub fn base_attr(mapping: &BTreeMap<AttrId, AttrId>, qualified: AttrId) -> Option<AttrId> {
    mapping
        .iter()
        .find(|(_, q)| **q == qualified)
        .map(|(b, _)| *b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nullrel_core::algebra::NoSource;
    use nullrel_core::tuple::Tuple;
    use nullrel_core::universe::{attr_set, Universe};
    use nullrel_core::value::Value;
    use nullrel_core::xrel::XRelation;

    fn fixtures() -> (
        Universe,
        AttrId,
        AttrId,
        AttrId,
        AttrId,
        XRelation,
        XRelation,
    ) {
        let mut u = Universe::new();
        let a_s = u.intern("a.S#");
        let a_p = u.intern("a.P#");
        let b_s = u.intern("b.S#");
        let b_p = u.intern("b.P#");
        let mk = |s: AttrId, p: AttrId| {
            XRelation::from_tuples([
                Tuple::new()
                    .with(s, Value::str("s1"))
                    .with(p, Value::str("p1")),
                Tuple::new()
                    .with(s, Value::str("s2"))
                    .with(p, Value::str("p2")),
                Tuple::new().with(s, Value::str("s3")),
            ])
        };
        let left = mk(a_s, a_p);
        let right = mk(b_s, b_p);
        (u, a_s, a_p, b_s, b_p, left, right)
    }

    #[test]
    fn selection_pushdown_routes_single_scope_conjuncts() {
        let (u, a_s, a_p, _b_s, b_p, left, right) = fixtures();
        let plan = Expr::literal(left).product(Expr::literal(right)).select(
            Predicate::attr_const(a_s, CompareOp::Eq, "s1").and(Predicate::attr_attr(
                a_p,
                CompareOp::Lt,
                b_p,
            )),
        );
        let opt = optimize(&plan, &NoSource);
        assert!(opt
            .applied
            .iter()
            .any(|r| r.starts_with("selection-pushdown")));
        // The single-scope conjunct sits below the product now.
        let text = opt.expr.explain(&u);
        let product_line = text.lines().position(|l| l.contains("Product")).unwrap();
        let select_line = text
            .lines()
            .position(|l| l.contains("a.S# = \"s1\""))
            .unwrap();
        assert!(
            select_line > product_line,
            "pushed below the product:\n{text}"
        );
        // The rewrite preserves the result.
        let naive = plan.eval(&NoSource).unwrap();
        assert_eq!(opt.expr.eval(&NoSource).unwrap(), naive);
    }

    #[test]
    fn equality_across_scopes_becomes_a_join() {
        let (_u, _a_s, a_p, _b_s, b_p, left, right) = fixtures();
        let plan = Expr::literal(left)
            .product(Expr::literal(right))
            .select(Predicate::attr_attr(a_p, CompareOp::Eq, b_p));
        let opt = optimize(&plan, &NoSource);
        assert!(opt
            .applied
            .iter()
            .any(|r| r.starts_with("product-to-hash-join")));
        assert!(matches!(
            opt.expr,
            Expr::ThetaJoin {
                op: CompareOp::Eq,
                ..
            }
        ));
        assert_eq!(
            opt.expr.eval(&NoSource).unwrap(),
            plan.eval(&NoSource).unwrap()
        );
    }

    #[test]
    fn projection_pushdown_narrows_join_inputs() {
        let (_u, a_s, a_p, _b_s, b_p, left, right) = fixtures();
        let plan = Expr::literal(left)
            .product(Expr::literal(right))
            .select(Predicate::attr_attr(a_p, CompareOp::Eq, b_p))
            .project(attr_set([a_s]));
        let opt = optimize(&plan, &NoSource);
        assert!(opt
            .applied
            .iter()
            .any(|r| r.starts_with("projection-pushdown")));
        assert_eq!(
            opt.expr.eval(&NoSource).unwrap(),
            plan.eval(&NoSource).unwrap()
        );
    }

    #[test]
    fn projection_pushdown_declines_when_a_branch_would_empty() {
        // The right branch has *only* rows that are null on every needed
        // attribute; pruning it would lose the product pairs entirely.
        let mut u = Universe::new();
        let a = u.intern("A");
        let b = u.intern("B");
        let c = u.intern("C");
        let left = XRelation::from_tuples([Tuple::new().with(a, Value::int(1))]);
        let right = XRelation::from_tuples([Tuple::new().with(b, Value::int(2))]);
        let _ = c;
        // Needed attrs: only A — the right branch contributes nothing.
        let plan = Expr::literal(left)
            .product(Expr::literal(right))
            .project(attr_set([a]));
        let opt = optimize(&plan, &NoSource);
        assert_eq!(
            opt.expr.eval(&NoSource).unwrap(),
            plan.eval(&NoSource).unwrap(),
            "declined rewrite keeps the existential multiplier"
        );
    }

    /// Satellite: projection pushdown now proves safety for catalog scans
    /// through the statistics catalog — a kept column with `ni` fraction
    /// zero (every schema-level non-null column) guarantees the narrowed
    /// branch stays non-empty.
    #[test]
    fn projection_pushdown_proves_safety_from_catalog_statistics() {
        use nullrel_storage::{Database, SchemaBuilder};
        let mut db = Database::new();
        db.create_table(SchemaBuilder::new("L").required_column("A").column("B"))
            .unwrap();
        db.create_table(SchemaBuilder::new("R").column("C"))
            .unwrap();
        let u = db.universe().clone();
        let a = u.lookup("A").unwrap();
        let t = db.table_mut("L").unwrap();
        for i in 0..4i64 {
            let mut cells = vec![("A", Value::int(i))];
            if i % 2 == 0 {
                cells.push(("B", Value::int(i * 10)));
            }
            t.insert_named(&u, &cells).unwrap();
        }
        let t = db.table_mut("R").unwrap();
        t.insert_named(&u, &[("C", Value::int(7))]).unwrap();

        let plan = Expr::named("L")
            .product(Expr::named("R"))
            .project(attr_set([a]));
        let opt = optimize(&plan, &db);
        assert!(
            opt.applied
                .iter()
                .any(|r| r.starts_with("projection-pushdown")),
            "{:?}",
            opt.applied
        );
        assert_eq!(opt.expr.eval(&db).unwrap(), plan.eval(&db).unwrap());

        // A branch whose kept column is ni on every row must decline: the
        // narrowed branch would collapse and lose the product pairs.
        let mut db2 = Database::new();
        db2.create_table(SchemaBuilder::new("L").column("A").column("B"))
            .unwrap();
        db2.create_table(SchemaBuilder::new("R").column("C"))
            .unwrap();
        let u2 = db2.universe().clone();
        let a2 = u2.lookup("A").unwrap();
        let t = db2.table_mut("L").unwrap();
        t.insert_named(&u2, &[("B", Value::int(1))]).unwrap();
        let t = db2.table_mut("R").unwrap();
        t.insert_named(&u2, &[("C", Value::int(7))]).unwrap();
        let plan2 = Expr::named("L")
            .product(Expr::named("R"))
            .project(attr_set([a2]));
        let opt2 = optimize(&plan2, &db2);
        assert!(
            !opt2
                .applied
                .iter()
                .any(|r| r.starts_with("projection-pushdown")),
            "{:?}",
            opt2.applied
        );
        assert_eq!(opt2.expr.eval(&db2).unwrap(), plan2.eval(&db2).unwrap());
    }

    #[test]
    fn unknown_scopes_disable_rewrites() {
        let plan = Expr::named("L")
            .product(Expr::named("R"))
            .select(Predicate::attr_attr(
                AttrId::from_index(0),
                CompareOp::Eq,
                AttrId::from_index(1),
            ));
        let opt = optimize(&plan, &NoSource);
        assert!(opt.applied.is_empty());
        assert_eq!(opt.expr, plan);
    }

    #[test]
    fn selection_pushes_through_union_branches() {
        let (u, a_s, _a_p, _b_s, _b_p, left, right_unused) = fixtures();
        let _ = right_unused;
        // Union of two literal branches over the same scope.
        let other = XRelation::from_tuples([
            Tuple::new().with(a_s, Value::str("s1")),
            Tuple::new().with(a_s, Value::str("s9")),
        ]);
        let plan = Expr::literal(left)
            .union(Expr::literal(other))
            .select(Predicate::attr_const(a_s, CompareOp::Eq, "s1"));
        let opt = optimize(&plan, &NoSource);
        assert!(
            opt.applied
                .iter()
                .any(|r| r.contains("both union branches")),
            "{:?}",
            opt.applied
        );
        // The Select nodes now sit below the Union.
        let text = opt.expr.explain(&u);
        let union_line = text.lines().position(|l| l.contains("Union")).unwrap();
        let select_line = text.lines().position(|l| l.contains("Select")).unwrap();
        assert!(select_line > union_line, "pushed below the union:\n{text}");
        assert_eq!(
            opt.expr.eval(&NoSource).unwrap(),
            plan.eval(&NoSource).unwrap()
        );
    }

    #[test]
    fn selection_pushes_into_difference_minuend_only() {
        let (u, a_s, a_p, ..) = fixtures();
        let minuend = XRelation::from_tuples([
            Tuple::new()
                .with(a_s, Value::str("s1"))
                .with(a_p, Value::str("p1")),
            Tuple::new()
                .with(a_s, Value::str("s2"))
                .with(a_p, Value::str("p2")),
        ]);
        let subtrahend = XRelation::from_tuples([Tuple::new()
            .with(a_s, Value::str("s2"))
            .with(a_p, Value::str("p2"))]);
        let plan = Expr::literal(minuend)
            .difference(Expr::literal(subtrahend))
            .select(Predicate::attr_const(a_s, CompareOp::Eq, "s1"));
        let opt = optimize(&plan, &NoSource);
        assert!(
            opt.applied.iter().any(|r| r.contains("difference minuend")),
            "{:?}",
            opt.applied
        );
        let text = opt.expr.explain(&u);
        // Exactly one Select remains (the minuend's); the subtrahend branch
        // stays unfiltered.
        assert_eq!(text.matches("Select").count(), 1, "{text}");
        assert_eq!(
            opt.expr.eval(&NoSource).unwrap(),
            plan.eval(&NoSource).unwrap()
        );
    }

    #[test]
    fn dangling_free_union_join_becomes_an_equijoin() {
        let mut u = Universe::new();
        let k = u.intern("K");
        let a = u.intern("A");
        let b = u.intern("B");
        let left = XRelation::from_tuples([
            Tuple::new().with(k, Value::int(1)).with(a, Value::int(10)),
            Tuple::new().with(k, Value::int(2)).with(a, Value::int(20)),
        ]);
        // Same key set, Float representation: the normalized key sets match.
        let right = XRelation::from_tuples([
            Tuple::new()
                .with(k, Value::float(1.0))
                .with(b, Value::int(30)),
            Tuple::new().with(k, Value::int(2)).with(b, Value::int(40)),
        ]);
        let plan =
            Expr::literal(left.clone()).union_join(Expr::literal(right.clone()), attr_set([k]));
        let opt = optimize(&plan, &NoSource);
        assert!(
            opt.applied
                .iter()
                .any(|r| r.starts_with("union-join-to-hash-join")),
            "{:?}",
            opt.applied
        );
        assert!(matches!(opt.expr, Expr::EquiJoin { .. }));
        assert_eq!(
            opt.expr.eval(&NoSource).unwrap(),
            plan.eval(&NoSource).unwrap(),
            "the rewrite preserves the union-join result"
        );

        // A key present on one side only ⇒ dangling tuples ⇒ no rewrite.
        let dangling = Expr::literal(left.clone()).union_join(
            Expr::literal(XRelation::from_tuples([Tuple::new()
                .with(k, Value::int(1))
                .with(b, Value::int(30))])),
            attr_set([k]),
        );
        let opt2 = optimize(&dangling, &NoSource);
        assert!(matches!(opt2.expr, Expr::UnionJoin { .. }));

        // A key-incomplete tuple ⇒ it always dangles ⇒ no rewrite.
        let partial = Expr::literal(left).union_join(
            Expr::literal(XRelation::from_tuples([
                Tuple::new().with(k, Value::int(1)).with(b, Value::int(30)),
                Tuple::new().with(k, Value::int(2)).with(b, Value::int(40)),
                Tuple::new().with(b, Value::int(50)),
            ])),
            attr_set([k]),
        );
        let opt3 = optimize(&partial, &NoSource);
        assert!(matches!(opt3.expr, Expr::UnionJoin { .. }));
        let _ = right;
    }

    /// Satellite: `UnionJoin` and `Divide` report conservative scope
    /// over-approximations annotated as inexact, instead of `None`.
    #[test]
    fn union_join_and_divide_scopes_are_annotated_over_approximations() {
        let mut u = Universe::new();
        let k = u.intern("K");
        let a = u.intern("A");
        let b = u.intern("B");
        let left =
            XRelation::from_tuples([Tuple::new().with(k, Value::int(1)).with(a, Value::int(10))]);
        let right =
            XRelation::from_tuples([Tuple::new().with(k, Value::int(2)).with(b, Value::int(20))]);
        let uj =
            Expr::literal(left.clone()).union_join(Expr::literal(right.clone()), attr_set([k]));
        let info = scope_info(&uj, &NoSource).unwrap();
        assert!(!info.exact, "union-join scope is data-dependent");
        assert_eq!(info.attrs, attr_set([k, a, b]), "superset of both operands");
        // The actual scope is always contained in the over-approximation.
        let actual = uj.eval(&NoSource).unwrap().scope();
        assert!(actual.is_subset(&info.attrs));

        let div = Expr::literal(left.clone()).divide(attr_set([a]), Expr::literal(right));
        let info = scope_info(&div, &NoSource).unwrap();
        assert!(!info.exact);
        assert_eq!(
            info.attrs,
            attr_set([a]),
            "the quotient attributes bound it"
        );
        assert!(div.eval(&NoSource).unwrap().scope().is_subset(&info.attrs));

        // Plain literals stay exact; unions stay unknown.
        assert!(
            scope_info(&Expr::literal(left.clone()), &NoSource)
                .unwrap()
                .exact
        );
        assert!(scope_info(
            &Expr::literal(left.clone()).union(Expr::literal(left)),
            &NoSource
        )
        .is_none());
    }

    /// Satellite: the over-approximated scopes let the DP enumerator (and
    /// the pushdown rules) reorder join components *around* a union-join
    /// or a division — guarded by differential equality with the oracle.
    #[test]
    fn join_reordering_fires_across_union_join_and_divide_leaves() {
        let mut u = Universe::new();
        let k = u.intern("K");
        let a = u.intern("A");
        let b = u.intern("B");
        let c = u.intern("C");
        let d = u.intern("D");
        // Leaf 1: a union-join over K/A ∪ K/B shapes (scope over-approx
        // {K, A, B}); leaves 2 and 3: plain literals over C and D.
        let uj_left = XRelation::from_tuples((0..4).map(|i| {
            Tuple::new()
                .with(k, Value::int(i))
                .with(a, Value::int(i * 2))
        }));
        let uj_right = XRelation::from_tuples((2..6).map(|i| {
            Tuple::new()
                .with(k, Value::int(i))
                .with(b, Value::int(i * 3))
        }));
        let uj = Expr::literal(uj_left).union_join(Expr::literal(uj_right), attr_set([k]));
        let cs = XRelation::from_tuples((0..5).map(|i| Tuple::new().with(c, Value::int(i))));
        let ds = XRelation::from_tuples((0..3).map(|i| Tuple::new().with(d, Value::int(i))));
        let plan = uj
            .product(Expr::literal(cs))
            .product(Expr::literal(ds))
            .select(
                Predicate::attr_attr(k, CompareOp::Eq, c).and(Predicate::attr_attr(
                    c,
                    CompareOp::Eq,
                    d,
                )),
            );
        let mut log = Vec::new();
        let ordered = crate::cost::reorder_joins(plan.clone(), &NoSource, &mut log);
        assert!(
            log.iter().any(|l| l.starts_with("cost-based-join-order")),
            "the enumerator must fire across the union-join leaf: {log:?}"
        );
        assert_eq!(
            ordered.eval(&NoSource).unwrap(),
            plan.eval(&NoSource).unwrap(),
            "reordering around the union-join preserves the result"
        );
        // Full optimizer end-to-end, same guard.
        let opt = optimize(&plan, &NoSource);
        assert_eq!(
            opt.expr.eval(&NoSource).unwrap(),
            plan.eval(&NoSource).unwrap()
        );

        // Same shape with a division leaf (quotient scope {K}).
        let dividend = XRelation::from_tuples((0..4).flat_map(|i| {
            (0..2).map(move |j| Tuple::new().with(k, Value::int(i)).with(b, Value::int(j)))
        }));
        let divisor = XRelation::from_tuples((0..2).map(|j| Tuple::new().with(b, Value::int(j))));
        let div = Expr::literal(dividend).divide(attr_set([k]), Expr::literal(divisor));
        let plan = div
            .product(Expr::literal(XRelation::from_tuples(
                (0..5).map(|i| Tuple::new().with(c, Value::int(i))),
            )))
            .product(Expr::literal(XRelation::from_tuples(
                (0..3).map(|i| Tuple::new().with(d, Value::int(i))),
            )))
            .select(
                Predicate::attr_attr(k, CompareOp::Eq, c).and(Predicate::attr_attr(
                    c,
                    CompareOp::Eq,
                    d,
                )),
            );
        let mut log = Vec::new();
        let ordered = crate::cost::reorder_joins(plan.clone(), &NoSource, &mut log);
        assert!(
            log.iter().any(|l| l.starts_with("cost-based-join-order")),
            "the enumerator must fire across the division leaf: {log:?}"
        );
        assert_eq!(
            ordered.eval(&NoSource).unwrap(),
            plan.eval(&NoSource).unwrap()
        );
        let _ = u;
    }

    #[test]
    fn conjunct_splitting_round_trips() {
        let (_u, a_s, a_p, ..) = fixtures();
        let p = Predicate::attr_const(a_s, CompareOp::Eq, "s1")
            .and(Predicate::attr_const(a_p, CompareOp::Ne, "p9"))
            .and(Predicate::always());
        let mut parts = Vec::new();
        split_and(p, &mut parts);
        assert_eq!(parts.len(), 2, "TRUE literal conjuncts are dropped");
        let rebuilt = and_all(parts).unwrap();
        assert_eq!(rebuilt.comparisons().len(), 2);
        assert!(and_all(Vec::new()).is_none());
    }
}
