//! Cardinality estimation over the logical [`Expr`] algebra.
//!
//! The estimator drives the cost-based decisions of the `nullrel-exec`
//! optimizer: join-order enumeration, index selection, and the hash-join
//! versus index-nested-loop choice. Estimates model the **TRUE band** (the
//! paper's lower bound `‖Q‖∗`): a comparison touching an `ni` cell cannot
//! hold with certainty, so every selectivity is scaled by the probability
//! that the referenced columns are non-null — this is where the
//! truth-band split of [`TableStatistics`] feeds in.
//!
//! The formulas are the classical System-R family, adapted to x-relations:
//!
//! * equality with a constant: `(1 − ni(A)) / distinct(A)`;
//! * range comparisons: interpolated from the numeric min/max when known,
//!   otherwise a fixed default;
//! * equi-joins: `|L|·|R| / max(distinct(L.A), distinct(R.B))`, scaled by
//!   both non-null probabilities;
//! * the lattice set operators use their algebraic bounds — `|L|+|R|` for
//!   union (minimization can only shrink), `|L|` for difference,
//!   `min(|L|,|R|)` for x-intersection — and the union-join adds both
//!   sides as the dangling-tuple bound;
//! * division estimates the quotient candidates (distinct `Y`-values of
//!   the definite band) shrunk by each divisor row.
//!
//! Estimates are heuristics: they steer plan choice and are reported next
//! to actual row counts in `nullrel_query::explain`, but never affect
//! results.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

use nullrel_core::algebra::Expr;
use nullrel_core::predicate::{Operand, Predicate};
use nullrel_core::tvl::{CompareOp, Truth};
use nullrel_core::universe::AttrId;

use crate::catalog::{StatisticsSource, TableStatistics};
use crate::histogram::EquiDepthHistogram;

/// Default cardinality for relations the source has no statistics for.
pub const DEFAULT_ROWS: f64 = 1_000.0;
/// Default selectivity of an equality when no distinct count is known.
pub const DEFAULT_EQ_SELECTIVITY: f64 = 0.1;
/// Default selectivity of a range comparison.
pub const DEFAULT_RANGE_SELECTIVITY: f64 = 1.0 / 3.0;

/// The estimated shape of one output column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnEstimate {
    /// Estimated distinct non-null values.
    pub distinct: f64,
    /// Estimated fraction of rows null on this column.
    pub ni_fraction: f64,
    /// Numeric minimum, when known.
    pub min: Option<f64>,
    /// Numeric maximum, when known.
    pub max: Option<f64>,
    /// Equi-depth histogram over the column's non-null numeric values,
    /// when the catalog tracks one. Range and equality selectivities read
    /// the distribution from here instead of assuming uniformity between
    /// min and max; joins align two histograms bucket-by-bucket.
    pub histogram: Option<EquiDepthHistogram>,
    /// Fraction of the column's non-null cells the histogram summarises
    /// (1.0 for all-numeric columns, the common typed-domain case).
    /// Computed once from the **base** statistics and propagated through
    /// derived estimates — re-deriving it from a derived estimate's row
    /// count would be a unit error once joins multiply rows.
    pub numeric_share: f64,
}

/// The estimated cardinality (and column shapes) of a plan node's output.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Per-column estimates for the attributes in the output scope.
    pub columns: BTreeMap<AttrId, ColumnEstimate>,
}

impl Estimate {
    /// The estimate rounded to a whole row count (never below zero).
    pub fn rounded_rows(&self) -> u64 {
        self.rows.max(0.0).round() as u64
    }

    fn column(&self, attr: AttrId) -> Option<&ColumnEstimate> {
        self.columns.get(&attr)
    }

    fn ni_fraction(&self, attr: AttrId) -> f64 {
        self.column(attr).map_or(0.0, |c| c.ni_fraction)
    }

    fn distinct(&self, attr: AttrId) -> Option<f64> {
        self.column(attr).map(|c| c.distinct)
    }

    /// Caps every column's distinct count at the row estimate (a column
    /// cannot have more distinct values than the relation has rows).
    fn capped(mut self) -> Estimate {
        let rows = self.rows.max(0.0);
        for c in self.columns.values_mut() {
            c.distinct = c.distinct.min(rows);
        }
        self.rows = rows;
        self
    }

    fn from_statistics(stats: &TableStatistics) -> Estimate {
        let rows = stats.rows as f64;
        let columns = stats
            .columns
            .values()
            .map(|c| {
                (
                    c.attr,
                    ColumnEstimate {
                        distinct: c.distinct as f64,
                        ni_fraction: if stats.rows == 0 {
                            0.0
                        } else {
                            c.null_rows as f64 / rows
                        },
                        min: c.min,
                        max: c.max,
                        histogram: c.histogram.clone(),
                        numeric_share: match &c.histogram {
                            Some(h) => {
                                let non_null = (stats.rows - c.null_rows).max(1) as f64;
                                (h.population() as f64 / non_null).clamp(0.0, 1.0)
                            }
                            None => 1.0,
                        },
                    },
                )
            })
            .collect();
        Estimate { rows, columns }
    }

    fn unknown() -> Estimate {
        Estimate {
            rows: DEFAULT_ROWS,
            columns: BTreeMap::new(),
        }
    }
}

/// A cardinality estimator bound to a statistics source, with per-name
/// and per-literal caches so repeated estimates during join enumeration
/// and per-node plan annotation stay cheap.
///
/// The literal cache is keyed by the relation's address: it assumes every
/// [`Expr`] passed to [`estimate`](Estimator::estimate) outlives the
/// estimator (true for the engine, which creates one estimator per
/// optimize/compile pass over a single plan). A stale entry can only skew
/// an estimate, never a query result.
pub struct Estimator<'a, S: StatisticsSource> {
    source: &'a S,
    cache: RefCell<HashMap<String, Option<TableStatistics>>>,
    // Keyed by (address, length): the length guard catches most realistic
    // address-reuse collisions when a caller violates the outlives
    // assumption above, at zero cost for the engine's legal usage.
    literal_cache: RefCell<HashMap<(usize, usize), TableStatistics>>,
}

impl<'a, S: StatisticsSource> Estimator<'a, S> {
    /// An estimator reading named-relation statistics from `source`.
    pub fn new(source: &'a S) -> Estimator<'a, S> {
        Estimator {
            source,
            cache: RefCell::new(HashMap::new()),
            literal_cache: RefCell::new(HashMap::new()),
        }
    }

    fn named(&self, name: &str) -> Option<TableStatistics> {
        self.cache
            .borrow_mut()
            .entry(name.to_owned())
            .or_insert_with(|| self.source.table_statistics(name))
            .clone()
    }

    fn literal(&self, rel: &nullrel_core::xrel::XRelation) -> TableStatistics {
        self.literal_cache
            .borrow_mut()
            .entry((rel as *const _ as usize, rel.len()))
            .or_insert_with(|| TableStatistics::of_relation(rel))
            .clone()
    }

    /// Estimates the output cardinality of a logical plan.
    pub fn estimate(&self, expr: &Expr) -> Estimate {
        match expr {
            Expr::Literal(rel) => Estimate::from_statistics(&self.literal(rel)),
            Expr::Named(name) => match self.named(name) {
                Some(stats) => Estimate::from_statistics(&stats),
                None => Estimate::unknown(),
            },
            Expr::Rename { input, mapping } => {
                let est = self.estimate(input);
                let columns = est
                    .columns
                    .into_iter()
                    .map(|(attr, c)| (mapping.get(&attr).copied().unwrap_or(attr), c))
                    .collect();
                Estimate {
                    rows: est.rows,
                    columns,
                }
            }
            Expr::Select { input, predicate } => {
                let est = self.estimate(input);
                let sel = selectivity(predicate, &est);
                Estimate {
                    rows: est.rows * sel,
                    columns: est.columns,
                }
                .capped()
            }
            Expr::Project { input, attrs } => {
                let est = self.estimate(input);
                let columns: BTreeMap<AttrId, ColumnEstimate> = est
                    .columns
                    .iter()
                    .filter(|(a, _)| attrs.contains(a))
                    .map(|(a, c)| (*a, c.clone()))
                    .collect();
                // Projection deduplicates (the minimal representation): the
                // output cannot exceed the product of the kept distinct
                // counts. Tuples null on *every* kept attribute vanish too.
                let mut cap = f64::INFINITY;
                if !columns.is_empty() && columns.len() == attrs.len() {
                    cap = columns.values().map(|c| c.distinct.max(1.0)).product();
                }
                let all_null: f64 = columns.values().map(|c| c.ni_fraction).product();
                let rows =
                    (est.rows * (1.0 - if columns.is_empty() { 0.0 } else { all_null })).min(cap);
                Estimate { rows, columns }.capped()
            }
            Expr::Product(a, b) => {
                let (l, r) = (self.estimate(a), self.estimate(b));
                let mut columns = l.columns;
                columns.extend(r.columns);
                Estimate {
                    rows: l.rows * r.rows,
                    columns,
                }
            }
            Expr::ThetaJoin {
                left,
                left_attr,
                op,
                right_attr,
                right,
            } => {
                let (l, r) = (self.estimate(left), self.estimate(right));
                let sel = match op {
                    CompareOp::Eq => equi_selectivity(&l, *left_attr, &r, *right_attr),
                    _ => {
                        DEFAULT_RANGE_SELECTIVITY
                            * (1.0 - l.ni_fraction(*left_attr))
                            * (1.0 - r.ni_fraction(*right_attr))
                    }
                };
                let rows = l.rows * r.rows * sel;
                let mut columns = l.columns;
                columns.extend(r.columns);
                Estimate { rows, columns }.capped()
            }
            Expr::EquiJoin { left, right, on } => {
                let (l, r) = (self.estimate(left), self.estimate(right));
                let mut sel = 1.0;
                for a in on {
                    sel *= equi_selectivity(&l, *a, &r, *a);
                }
                let rows = l.rows * r.rows * sel;
                let mut columns = l.columns;
                columns.extend(r.columns);
                Estimate { rows, columns }.capped()
            }
            Expr::UnionJoin { left, right, on } => {
                // The equijoin part plus the dangling tuples of both sides
                // (each side contributes at most itself). Computed inline —
                // building a temporary `EquiJoin` node would deep-clone the
                // operand subtrees.
                let (l, r) = (self.estimate(left), self.estimate(right));
                let mut sel = 1.0;
                for a in on {
                    sel *= equi_selectivity(&l, *a, &r, *a);
                }
                let joined = l.rows * r.rows * sel;
                let (l_rows, r_rows) = (l.rows, r.rows);
                let mut columns = l.columns;
                columns.extend(r.columns);
                Estimate {
                    rows: joined + l_rows + r_rows,
                    columns,
                }
            }
            Expr::Union(a, b) => {
                let (l, r) = (self.estimate(a), self.estimate(b));
                let mut columns = l.columns;
                for (attr, c) in r.columns {
                    columns
                        .entry(attr)
                        .and_modify(|e| {
                            e.distinct += c.distinct;
                            e.ni_fraction = e.ni_fraction.max(c.ni_fraction);
                        })
                        .or_insert(c);
                }
                // Upper bound: minimization can only shrink the union.
                Estimate {
                    rows: l.rows + r.rows,
                    columns,
                }
                .capped()
            }
            Expr::Difference(a, b) => {
                let (l, _r) = (self.estimate(a), self.estimate(b));
                // Upper bound: the subtrahend only removes tuples.
                l
            }
            Expr::XIntersect(a, b) => {
                let (l, r) = (self.estimate(a), self.estimate(b));
                let mut columns = l.columns;
                columns.retain(|a, _| r.columns.contains_key(a));
                Estimate {
                    rows: l.rows.min(r.rows),
                    columns,
                }
                .capped()
            }
            Expr::Divide { input, y, divisor } => {
                let (inp, div) = (self.estimate(input), self.estimate(divisor));
                // Quotient candidates: the distinct Y-values of the
                // Y-definite band; each divisor row shrinks the answer.
                let mut candidates: f64 = 1.0;
                for a in y {
                    candidates *= inp.distinct(*a).unwrap_or(DEFAULT_ROWS.sqrt()).max(1.0);
                }
                candidates = candidates.min(inp.rows);
                let rows = candidates / (div.rows + 1.0);
                let columns = inp
                    .columns
                    .into_iter()
                    .filter(|(a, _)| y.contains(a))
                    .collect();
                Estimate { rows, columns }.capped()
            }
        }
    }
}

/// The selectivity of an equality between two columns, from their distinct
/// counts and non-null probabilities — refined by histogram alignment
/// ([`EquiDepthHistogram::join_selectivity`]) when both columns carry one,
/// which catches the two failure modes of the uniformity assumption:
/// disjoint key ranges (true selectivity ~0) and shared heavy hitters
/// (true selectivity far above `1 / max(d)`).
fn equi_selectivity(l: &Estimate, left: AttrId, r: &Estimate, right: AttrId) -> f64 {
    let non_null = (1.0 - l.ni_fraction(left)) * (1.0 - r.ni_fraction(right));
    if let (Some(hl), Some(hr)) = (histogram_of(l, left), histogram_of(r, right)) {
        let dl = l.distinct(left).unwrap_or(1.0).max(1.0);
        let dr = r.distinct(right).unwrap_or(1.0).max(1.0);
        let share = numeric_share(l, left) * numeric_share(r, right);
        return non_null * share * EquiDepthHistogram::join_selectivity(hl, hr, dl, dr);
    }
    let d = match (l.distinct(left), r.distinct(right)) {
        (Some(a), Some(b)) => a.max(b).max(1.0),
        (Some(a), None) | (None, Some(a)) => a.max(1.0),
        (None, None) => 1.0 / DEFAULT_EQ_SELECTIVITY,
    };
    non_null / d
}

/// The histogram attached to a column estimate, if any.
fn histogram_of(est: &Estimate, attr: AttrId) -> Option<&EquiDepthHistogram> {
    est.column(attr).and_then(|c| c.histogram.as_ref())
}

/// The fraction of a column's non-null cells its histogram summarises.
/// Histogram fractions are over **numeric** values only; a column that
/// also holds non-numeric cells must scale them by this share, or a heavy
/// numeric hitter would be weighted as if it covered the whole column.
/// Read from the column estimate (a base-table property that survives
/// joins and selections unchanged); 1.0 for all-numeric columns.
fn numeric_share(input: &Estimate, attr: AttrId) -> f64 {
    input.column(attr).map_or(1.0, |c| c.numeric_share)
}

/// The total bucket count of every histogram a predicate's comparisons
/// would consult against this input — what explain reports as `hist=N`
/// next to the operator that evaluated the predicate (0 means the
/// estimate fell back to uniform interpolation everywhere). Mirrors the
/// selectivity rules above: an attribute-to-attribute equality consults
/// histograms only when **both** sides carry one.
pub fn histogram_buckets(predicate: &Predicate, input: &Estimate) -> usize {
    predicate
        .comparisons()
        .iter()
        .map(|cmp| match (&cmp.left, &cmp.right) {
            (Operand::Attr(a), Operand::Const(_)) | (Operand::Const(_), Operand::Attr(a)) => {
                histogram_of(input, *a).map_or(0, EquiDepthHistogram::buckets)
            }
            (Operand::Attr(a), Operand::Attr(b)) => {
                match (histogram_of(input, *a), histogram_of(input, *b)) {
                    (Some(ha), Some(hb)) => ha.buckets() + hb.buckets(),
                    _ => 0,
                }
            }
            (Operand::Const(_), Operand::Const(_)) => 0,
        })
        .sum()
}

/// The TRUE-band selectivity of a predicate against an input estimate,
/// always in `[0, 1]`.
pub fn selectivity(predicate: &Predicate, input: &Estimate) -> f64 {
    let s = match predicate {
        Predicate::Literal(truth) => {
            if *truth == Truth::True {
                1.0
            } else {
                0.0
            }
        }
        Predicate::And(a, b) => selectivity(a, input) * selectivity(b, input),
        Predicate::Or(a, b) => {
            let (sa, sb) = (selectivity(a, input), selectivity(b, input));
            sa + sb - sa * sb
        }
        // The TRUE band of ¬p is the FALSE band of p; 1 − s over-counts the
        // ni band, so it stays an upper bound — acceptable for costing.
        Predicate::Not(inner) => 1.0 - selectivity(inner, input),
        Predicate::Cmp(cmp) => match (&cmp.left, &cmp.right) {
            (Operand::Attr(a), Operand::Const(v)) => attr_const(input, *a, cmp.op, v),
            (Operand::Const(v), Operand::Attr(a)) => attr_const(input, *a, cmp.op.flipped(), v),
            (Operand::Attr(a), Operand::Attr(b)) => {
                let non_null = (1.0 - input.ni_fraction(*a)) * (1.0 - input.ni_fraction(*b));
                match cmp.op {
                    CompareOp::Eq => {
                        // Histogram alignment first: this is the arm the
                        // join enumerator prices equality conjuncts
                        // through, so skewed join keys are costed from
                        // their distributions, not a uniformity guess.
                        if let (Some(ha), Some(hb)) =
                            (histogram_of(input, *a), histogram_of(input, *b))
                        {
                            let da = input.distinct(*a).unwrap_or(1.0).max(1.0);
                            let db = input.distinct(*b).unwrap_or(1.0).max(1.0);
                            let share = numeric_share(input, *a) * numeric_share(input, *b);
                            return (non_null
                                * share
                                * EquiDepthHistogram::join_selectivity(ha, hb, da, db))
                            .clamp(0.0, 1.0);
                        }
                        let d = match (input.distinct(*a), input.distinct(*b)) {
                            (Some(x), Some(y)) => x.max(y).max(1.0),
                            _ => 1.0 / DEFAULT_EQ_SELECTIVITY,
                        };
                        non_null / d
                    }
                    CompareOp::Ne => non_null * (1.0 - DEFAULT_EQ_SELECTIVITY),
                    _ => non_null * DEFAULT_RANGE_SELECTIVITY,
                }
            }
            (Operand::Const(_), Operand::Const(_)) => DEFAULT_RANGE_SELECTIVITY,
        },
    };
    s.clamp(0.0, 1.0)
}

fn attr_const(
    input: &Estimate,
    attr: AttrId,
    op: CompareOp,
    constant: &nullrel_core::value::Value,
) -> f64 {
    let non_null = 1.0 - input.ni_fraction(attr);
    let numeric = match constant {
        nullrel_core::value::Value::Int(i) => Some(*i as f64),
        nullrel_core::value::Value::Float(f) => Some(f.get()),
        _ => None,
    };
    // A histogram, when the catalog tracks one for this column, beats both
    // the uniform `1/distinct` equality guess (heavy hitters carry their
    // true point mass) and min/max interpolation (the distribution between
    // the extremes is known, not assumed uniform).
    let hist = numeric.and_then(|x| {
        let h = histogram_of(input, attr)?;
        // Histogram fractions cover the column's numeric cells; the share
        // re-bases them onto all non-null cells (1.0 for typed columns).
        // Non-numeric cells can never satisfy a numeric comparison.
        let share = numeric_share(input, attr);
        let floor = 1.0 / input.distinct(attr).unwrap_or(1.0).max(1.0);
        Some(match op {
            CompareOp::Lt => h.fraction_lt(x) * share,
            CompareOp::Le => h.fraction_le(x) * share,
            CompareOp::Gt => (1.0 - h.fraction_le(x)) * share,
            CompareOp::Ge => (1.0 - h.fraction_lt(x)) * share,
            // Point mass for values heavy enough to fill buckets; the
            // uniform floor keeps light (intra-bucket) values estimable.
            CompareOp::Eq => (h.point_mass(x) * share).max(floor),
            CompareOp::Ne => 1.0 - (h.point_mass(x) * share).max(floor),
        })
    });
    if let Some(frac) = hist {
        return non_null * frac.clamp(0.0, 1.0);
    }
    match op {
        CompareOp::Eq => match input.distinct(attr) {
            Some(d) => non_null / d.max(1.0),
            None => non_null * DEFAULT_EQ_SELECTIVITY,
        },
        CompareOp::Ne => match input.distinct(attr) {
            Some(d) => non_null * (1.0 - 1.0 / d.max(1.0)),
            None => non_null * (1.0 - DEFAULT_EQ_SELECTIVITY),
        },
        CompareOp::Lt | CompareOp::Le | CompareOp::Gt | CompareOp::Ge => {
            let interpolated = input.column(attr).and_then(|c| {
                let (min, max) = (c.min?, c.max?);
                let x = numeric?;
                if max <= min {
                    return None;
                }
                let below = ((x - min) / (max - min)).clamp(0.0, 1.0);
                Some(match op {
                    CompareOp::Lt | CompareOp::Le => below,
                    _ => 1.0 - below,
                })
            });
            non_null * interpolated.unwrap_or(DEFAULT_RANGE_SELECTIVITY)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nullrel_core::algebra::NoSource;
    use nullrel_core::tuple::Tuple;
    use nullrel_core::universe::{attr_set, Universe};
    use nullrel_core::value::Value;
    use nullrel_core::xrel::XRelation;

    fn rel(n: usize, nulls_every: usize) -> (AttrId, AttrId, XRelation) {
        let mut u = Universe::new();
        let k = u.intern("K");
        let v = u.intern("V");
        let rows = (0..n).map(|i| {
            let mut t = Tuple::new().with(k, Value::int((i % 10) as i64));
            if nulls_every == 0 || i % nulls_every != 0 {
                t = t.with(v, Value::int(i as i64));
            }
            t
        });
        (k, v, XRelation::from_tuples(rows))
    }

    #[test]
    fn selectivities_stay_within_bounds() {
        let (k, v, r) = rel(40, 4);
        let est = Estimator::new(&NoSource).estimate(&Expr::literal(r));
        for p in [
            Predicate::attr_const(k, CompareOp::Eq, 3),
            Predicate::attr_const(k, CompareOp::Ne, 3),
            Predicate::attr_const(v, CompareOp::Lt, 10),
            Predicate::attr_const(v, CompareOp::Ge, 10),
            Predicate::attr_attr(k, CompareOp::Eq, v),
            Predicate::attr_const(k, CompareOp::Eq, 3).or(Predicate::attr_const(
                v,
                CompareOp::Gt,
                5,
            )),
            Predicate::attr_const(k, CompareOp::Eq, 3).negate(),
            Predicate::always(),
        ] {
            let s = selectivity(&p, &est);
            assert!((0.0..=1.0).contains(&s), "{p:?} → {s}");
        }
    }

    #[test]
    fn equality_selectivity_uses_distinct_and_ni_fraction() {
        let mut u = Universe::new();
        let k = u.intern("K");
        let v = u.intern("V");
        // 20 definite rows over 10 K-values, plus 10 maybe rows (V is ni)
        // whose K values are fresh, so the minimal form keeps them.
        let rows = (0..20)
            .map(|i| {
                Tuple::new()
                    .with(k, Value::int(i % 10))
                    .with(v, Value::int(i))
            })
            .chain((0..10).map(|i| Tuple::new().with(k, Value::int(100 + i))));
        let r = XRelation::from_tuples(rows);
        let est = Estimator::new(&NoSource).estimate(&Expr::literal(r));
        // K = 3 appears twice in 30 rows; the histogram's point mass gives
        // ~2/30 (exact up to rebuild-policy staleness) where the uniform
        // 1/distinct guess said 1/20.
        let s = selectivity(&Predicate::attr_const(k, CompareOp::Eq, 3), &est);
        assert!((s - 2.0 / 30.0).abs() < 0.01, "{s}");
        // V: a third of the rows are ni — the TRUE band shrinks accordingly.
        assert!((est.ni_fraction(v) - 1.0 / 3.0).abs() < 1e-9);
        let s = selectivity(&Predicate::attr_const(v, CompareOp::Eq, 3), &est);
        assert!((s - (2.0 / 3.0) / 20.0).abs() < 0.01, "ni-aware: {s}");
    }

    #[test]
    fn join_fanout_uses_distinct_counts() {
        let (k, _v, r) = rel(40, 0);
        let e = Estimator::new(&NoSource);
        let join = Expr::literal(r.clone()).equijoin(Expr::literal(r), attr_set([k]));
        let est = e.estimate(&join);
        // True join size 160 (10 keys × 4·4 pairs); the histogram-aligned
        // fan-out lands within staleness of it, as the uniform
        // 40·40/max(distinct) formula happens to here as well.
        assert!((est.rows - 160.0).abs() < 10.0, "{}", est.rows);
    }

    #[test]
    fn set_operator_bounds() {
        let (_k, _v, a) = rel(30, 0);
        let (_, _, b) = rel(20, 0);
        let e = Estimator::new(&NoSource);
        // The literal cache is keyed by relation address: every plan handed
        // to the estimator must outlive it (as the engine's plans do), so
        // the exprs are bound for the whole test.
        let union_expr = Expr::literal(a.clone()).union(Expr::literal(b.clone()));
        let diff_expr = Expr::literal(a.clone()).difference(Expr::literal(b.clone()));
        let meet_expr = Expr::literal(a.clone()).x_intersect(Expr::literal(b.clone()));
        let uj_expr = Expr::literal(a.clone()).union_join(Expr::literal(b.clone()), attr_set([]));
        let union = e.estimate(&union_expr);
        assert!(union.rows <= (a.len() + b.len()) as f64 + 1e-9);
        let diff = e.estimate(&diff_expr);
        assert!(
            (diff.rows - a.len() as f64).abs() < 1e-9,
            "difference ≤ |L|"
        );
        let meet = e.estimate(&meet_expr);
        assert!(meet.rows <= a.len().min(b.len()) as f64 + 1e-9);
        let uj = e.estimate(&uj_expr);
        assert!(
            uj.rows >= a.len() as f64,
            "union-join keeps dangling tuples"
        );
    }

    #[test]
    fn unknown_relations_fall_back_to_defaults() {
        let e = Estimator::new(&NoSource);
        let est = e.estimate(&Expr::named("MYSTERY"));
        assert_eq!(est.rows, DEFAULT_ROWS);
        assert!(est.columns.is_empty());
    }
}
