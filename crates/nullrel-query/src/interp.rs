//! The "unknown"-interpretation baseline: correct lower-bound evaluation
//! with tautology detection, as discussed in Section 5 and the Appendix.
//!
//! Under the *unknown* interpretation a null stands for an existing but
//! unknown value, so a tuple belongs to the correct lower bound `‖Q‖∗`
//! exactly when the where clause is TRUE **under every legal substitution**
//! of its nulls — i.e. when the substituted clause is a tautology. This
//! module evaluates a query that way: for every combination of range tuples
//! it builds a [`Formula`] (known cells become constants, null cells become
//! variables), optionally conjoins schema integrity constraints, and asks
//! the decision procedure of [`crate::tautology`] whether the formula is
//! valid (sure answer), merely satisfiable (maybe answer), or unsatisfiable.
//!
//! The point of the experiment (E4/E10) is the cost and machinery gap: the
//! `ni` evaluation in [`crate::eval`] is a single three-valued pass, while
//! this evaluator needs a per-tuple validity decision — and even then the
//! Appendix shows that full generality (arbitrary arithmetic, constraints
//! enforced by procedures) is out of reach.

use nullrel_core::tuple::Tuple;
use nullrel_core::universe::AttrId;
use nullrel_core::value::Value;
use nullrel_storage::Database;

use crate::analyze::{lookup, resolve, ResolvedQuery};
use crate::ast::{Query, Term, WhereExpr};
use crate::error::{QueryError, QueryResult};
use crate::parser::parse;
use crate::tautology::{decide_with_assumptions, Decision, Formula, Operand};

/// How sure the evaluator is that a tuple combination satisfies the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certainty {
    /// The where clause is valid under every substitution: the answer tuple
    /// is in the correct lower bound.
    Sure,
    /// The clause holds under some substitutions only.
    Maybe,
    /// The clause holds under no substitution.
    No,
}

/// Evaluation statistics, reported so the experiments can contrast the cost
/// of this strategy with the `ni` evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnknownStats {
    /// Range-tuple combinations examined.
    pub combinations: usize,
    /// Combinations that required a validity decision (at least one null
    /// appeared in the where clause).
    pub tautology_checks: usize,
    /// Total assignments enumerated by the decision procedure.
    pub assignments: usize,
}

/// The result of evaluating a query under the unknown interpretation.
#[derive(Debug, Clone)]
pub struct UnknownOutput {
    /// Column labels, in target-list order.
    pub columns: Vec<String>,
    /// The qualified attribute ids of the columns.
    pub column_attrs: Vec<AttrId>,
    /// Tuples certainly in the answer (the correct lower bound `‖Q‖∗`).
    pub sure: Vec<Tuple>,
    /// Tuples possibly in the answer (the upper-bound band minus the sure
    /// band).
    pub maybe: Vec<Tuple>,
    /// Evaluation statistics.
    pub stats: UnknownStats,
}

impl UnknownOutput {
    /// True if some *sure* tuple has exactly these cells in column order.
    pub fn sure_contains(&self, cells: &[Option<Value>]) -> bool {
        contains(&self.sure, &self.column_attrs, cells)
    }

    /// True if some *maybe* tuple has exactly these cells in column order.
    pub fn maybe_contains(&self, cells: &[Option<Value>]) -> bool {
        contains(&self.maybe, &self.column_attrs, cells)
    }
}

fn contains(rows: &[Tuple], attrs: &[AttrId], cells: &[Option<Value>]) -> bool {
    rows.iter().any(|row| {
        attrs
            .iter()
            .zip(cells.iter())
            .all(|(attr, want)| row.get(*attr) == want.as_ref())
    })
}

/// Parses and evaluates a query under the unknown interpretation.
///
/// `constraints` are schema integrity constraints phrased over the same
/// range variables as the query (e.g. `e.MGR# != e.E#` for Figure 2); they
/// are assumed to hold for every substitution. `budget` bounds the number of
/// range-tuple combinations examined.
pub fn execute_unknown(
    db: &Database,
    text: &str,
    constraints: &[WhereExpr],
    budget: u128,
) -> QueryResult<UnknownOutput> {
    let query = parse(text)?;
    execute_unknown_query(db, &query, constraints, budget)
}

/// Evaluates an already-parsed query under the unknown interpretation.
pub fn execute_unknown_query(
    db: &Database,
    query: &Query,
    constraints: &[WhereExpr],
    budget: u128,
) -> QueryResult<UnknownOutput> {
    let resolved = resolve(db, query)?;

    let combos: u128 = resolved
        .ranges
        .iter()
        .map(|r| r.rows.len() as u128)
        .product();
    if combos > budget {
        return Err(QueryError::BudgetExceeded {
            required: combos,
            limit: budget,
        });
    }

    let mut output = UnknownOutput {
        columns: resolved.targets.iter().map(|(l, _)| l.clone()).collect(),
        column_attrs: resolved.targets.iter().map(|(_, a)| *a).collect(),
        sure: Vec::new(),
        maybe: Vec::new(),
        stats: UnknownStats::default(),
    };

    let mut indices = vec![0usize; resolved.ranges.len()];
    if resolved.ranges.iter().any(|r| r.rows.is_empty()) {
        return Ok(output);
    }
    // Hash-based deduplication: the combination loop is quadratic in range
    // cardinalities already, so the answer-set membership probe must not
    // add another linear factor on top.
    let mut seen_sure: std::collections::HashSet<Tuple> = std::collections::HashSet::new();
    let mut seen_maybe: std::collections::HashSet<Tuple> = std::collections::HashSet::new();
    loop {
        output.stats.combinations += 1;
        let combined = combine(&resolved, &indices);
        let certainty = classify(&resolved, constraints, &combined, &mut output.stats)?;
        if certainty != Certainty::No {
            let projected = project_targets(&resolved, &combined);
            match certainty {
                Certainty::Sure => {
                    if seen_sure.insert(projected.clone()) {
                        output.sure.push(projected);
                    }
                }
                Certainty::Maybe => {
                    if seen_maybe.insert(projected.clone()) {
                        output.maybe.push(projected);
                    }
                }
                Certainty::No => {}
            }
        }
        // Advance the counter over range rows.
        let mut pos = 0;
        loop {
            if pos == indices.len() {
                return Ok(output);
            }
            indices[pos] += 1;
            if indices[pos] < resolved.ranges[pos].rows.len() {
                break;
            }
            indices[pos] = 0;
            pos += 1;
        }
    }
}

fn combine(resolved: &ResolvedQuery, indices: &[usize]) -> Tuple {
    let mut combined = Tuple::new();
    for (range, idx) in resolved.ranges.iter().zip(indices) {
        for (attr, value) in range.rows[*idx].cells() {
            combined.set(attr, Some(value.clone()));
        }
    }
    combined
}

fn project_targets(resolved: &ResolvedQuery, combined: &Tuple) -> Tuple {
    let mut out = Tuple::new();
    for (_, attr) in &resolved.targets {
        out.set(*attr, combined.get(*attr).cloned());
    }
    out
}

fn classify(
    resolved: &ResolvedQuery,
    constraints: &[WhereExpr],
    combined: &Tuple,
    stats: &mut UnknownStats,
) -> QueryResult<Certainty> {
    let Some(where_ast) = &resolved.where_ast else {
        return Ok(Certainty::Sure);
    };
    let formula = lower(resolved, where_ast, combined)?;
    let assumptions: Vec<Formula> = constraints
        .iter()
        .map(|c| lower(resolved, c, combined))
        .collect::<QueryResult<_>>()?;
    if formula.variables().is_empty() && assumptions.iter().all(|a| a.variables().is_empty()) {
        // Fully ground: an ordinary two-valued evaluation.
        let assignment = std::collections::BTreeMap::new();
        let holds = formula.eval(&assignment);
        return Ok(if holds {
            Certainty::Sure
        } else {
            Certainty::No
        });
    }
    stats.tautology_checks += 1;
    let (decision, dstats) = decide_with_assumptions(&assumptions, &formula);
    stats.assignments += dstats.assignments;
    Ok(match decision {
        Decision::Valid => Certainty::Sure,
        Decision::Satisfiable => Certainty::Maybe,
        Decision::Unsatisfiable => Certainty::No,
    })
}

/// Lowers a where-clause into a formula, substituting the known cells of the
/// combined range tuple and turning null cells into variables named after
/// their qualified attribute.
fn lower(resolved: &ResolvedQuery, expr: &WhereExpr, combined: &Tuple) -> QueryResult<Formula> {
    Ok(match expr {
        WhereExpr::Cmp { left, op, right } => Formula::Cmp {
            left: lower_term(resolved, left, combined)?,
            op: *op,
            right: lower_term(resolved, right, combined)?,
        },
        WhereExpr::And(a, b) => lower(resolved, a, combined)?.and(lower(resolved, b, combined)?),
        WhereExpr::Or(a, b) => lower(resolved, a, combined)?.or(lower(resolved, b, combined)?),
        WhereExpr::Not(inner) => lower(resolved, inner, combined)?.negate(),
    })
}

fn lower_term(resolved: &ResolvedQuery, term: &Term, combined: &Tuple) -> QueryResult<Operand> {
    Ok(match term {
        Term::Const(value) => Operand::Const(value.clone()),
        Term::Attr(attr_ref) => {
            let attr = lookup(&resolved.ranges, attr_ref)?;
            match combined.get(attr) {
                Some(value) => Operand::Const(value.clone()),
                None => Operand::Var(attr_ref.label()),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nullrel_storage::SchemaBuilder;

    fn emp_db() -> Database {
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

    const FIGURE_1: &str = "range of e is EMP retrieve (e.NAME, e.E#) \
        where (e.SEX = \"F\" and e.TEL# > 2634000) or (e.TEL# < 2634000)";

    /// Experiment E4: under the *unknown* interpretation, BROWN's where
    /// clause is a tautology in the unknown TEL# (female, so either the
    /// number is > 2634000 or it is < 2634000 … except exactly 2634000).
    /// The paper treats the clause as a tautology because the two TEL#
    /// conditions are complements in its reading; with the literal `<`/`>`
    /// operators the clause is valid for the male rows' complement case
    /// only when the equality gap is closed. We therefore check both the
    /// literal query (BROWN is "maybe") and the gap-free variant (BROWN is
    /// "sure"), and that the `ni` evaluation excludes BROWN either way.
    #[test]
    fn figure1_unknown_interpretation_includes_brown_when_clause_is_a_tautology() {
        let db = emp_db();
        // Literal Figure 1: > and < leave the value 2634000 uncovered, so
        // the clause is satisfiable but not valid: BROWN lands in "maybe".
        let out = execute_unknown(&db, FIGURE_1, &[], 1_000).unwrap();
        assert!(out.maybe_contains(&[Some(Value::str("BROWN")), Some(Value::int(4335))]));
        assert!(!out.sure_contains(&[Some(Value::str("BROWN")), Some(Value::int(4335))]));

        // Gap-free variant (≥ instead of >): now the clause is a genuine
        // tautology for any female employee with an unknown TEL#, so BROWN
        // is a *sure* answer under the unknown interpretation — exactly the
        // behaviour the paper contrasts with the ni interpretation.
        let gap_free = "range of e is EMP retrieve (e.NAME, e.E#) \
            where (e.SEX = \"F\" and e.TEL# >= 2634000) or (e.TEL# < 2634000)";
        let out = execute_unknown(&db, gap_free, &[], 1_000).unwrap();
        assert!(out.sure_contains(&[Some(Value::str("BROWN")), Some(Value::int(4335))]));
        // Male employees' clause reduces to TEL# < 2634000, which is merely
        // satisfiable.
        assert!(out.maybe_contains(&[Some(Value::str("SMITH")), Some(Value::int(1120))]));
        assert!(out.stats.tautology_checks >= 3);
        assert!(out.stats.assignments > 0);

        // The ni evaluation excludes BROWN in both variants (experiment E4's
        // headline contrast).
        let ni = crate::run(&db, gap_free, nullrel_core::Truth::True, Default::default()).unwrap();
        assert!(ni.is_empty());
    }

    /// Experiment E5 (Figure 2): with the integrity constraints supplied,
    /// the last two conjuncts are tautologies, so tuples that satisfy the
    /// first two conditions are *sure* answers even when MGR# values are
    /// unknown.
    #[test]
    fn figure2_constraints_turn_maybe_into_sure() {
        let mut db = emp_db();
        let u = db.universe().clone();
        let t = db.table_mut("EMP").unwrap();
        // The manager row, with an unknown MGR# (null).
        t.insert_named(
            &u,
            &[
                ("E#", Value::int(2235)),
                ("NAME", Value::str("JONES")),
                ("SEX", Value::str("M")),
            ],
        )
        .unwrap();
        let q = "range of e is EMP range of m is EMP retrieve (e.NAME) \
            where m.SEX = \"M\" and e.MGR# = m.E# and e.MGR# != e.E# and e.E# != m.MGR#";
        // Without constraint knowledge, SMITH is only a maybe: m.MGR# (JONES'
        // manager) is unknown, so e.E# != m.MGR# cannot be certified.
        let out = execute_unknown(&db, q, &[], 10_000).unwrap();
        assert!(out.maybe_contains(&[Some(Value::str("SMITH"))]));
        assert!(!out.sure_contains(&[Some(Value::str("SMITH"))]));

        // Supplying the schema constraints of the Appendix ("an employee
        // cannot be the manager of his manager", here phrased directly as
        // e.E# != m.MGR# whenever e.MGR# = m.E#) certifies the answer.
        let constraints = vec![
            parse_constraint("e.E# != m.MGR#"),
            parse_constraint("e.MGR# != e.E#"),
        ];
        let out = execute_unknown(&db, q, &constraints, 10_000).unwrap();
        assert!(out.sure_contains(&[Some(Value::str("SMITH"))]));
        assert!(out.sure_contains(&[Some(Value::str("BROWN"))]));
    }

    /// Helper: parse a single comparison as a constraint expression.
    fn parse_constraint(text: &str) -> WhereExpr {
        let query_text =
            format!("range of e is EMP range of m is EMP retrieve (e.NAME) where {text}");
        parse(&query_text).unwrap().where_clause.unwrap()
    }

    #[test]
    fn queries_without_nulls_reduce_to_ground_evaluation() {
        let db = emp_db();
        let q = "range of e is EMP retrieve (e.NAME) where e.SEX = \"M\"";
        let out = execute_unknown(&db, q, &[], 1_000).unwrap();
        assert_eq!(out.sure.len(), 2);
        assert!(out.maybe.is_empty());
        assert_eq!(
            out.stats.tautology_checks, 0,
            "no nulls, no tautology checks"
        );
        // Agreement with the ni evaluation on total data (Section 7).
        let ni = crate::run(&db, q, nullrel_core::Truth::True, Default::default()).unwrap();
        assert_eq!(ni.len(), 2);
    }

    #[test]
    fn no_where_clause_everything_is_sure() {
        let db = emp_db();
        let out = execute_unknown(&db, "range of e is EMP retrieve (e.E#)", &[], 100).unwrap();
        assert_eq!(out.sure.len(), 3);
        assert!(out.maybe.is_empty());
    }

    #[test]
    fn budget_is_enforced() {
        let db = emp_db();
        let err = execute_unknown(
            &db,
            "range of e is EMP range of m is EMP retrieve (e.E#) where e.E# = m.MGR#",
            &[],
            2,
        )
        .unwrap_err();
        assert!(matches!(err, QueryError::BudgetExceeded { .. }));
    }
}
