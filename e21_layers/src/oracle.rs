//! The tree-walk oracle: every distinct request text is evaluated once
//! during set-up with the reference algebra of `nullrel-core`, and every
//! response of the server is compared with the answer.
//!
//! The evaluator materialises a full x-relation at every node of the
//! logical plan, like `Expr::eval`, and shares no code with the engine:
//! no optimizer, no compiler, no pipeline. It departs from `Expr::eval`
//! in three places, all forced by table sizes `Expr::eval` was never run
//! on:
//!
//! * base tables and renames skip the quadratic re-minimisation (a keyed
//!   table is an antichain, and an injective rename keeps it one);
//! * a selection over a product streams the pairs instead of
//!   materialising |L|·|R| joined tuples first;
//! * a selection keeps the `ni` rows when the MAYBE band is asked for
//!   (`select_maybe`'s rule).

use std::collections::{BTreeMap, HashMap};

use nullrel_core::algebra::{self, Expr};
use nullrel_core::lattice;
use nullrel_core::tuple::Tuple;
use nullrel_core::tvl::Truth;
use nullrel_core::universe::AttrId;
use nullrel_core::{CoreError, CoreResult, Predicate, XRelation};
use nullrel_storage::Database;

/// Evaluates logical plans against one database state.
pub struct Oracle<'a> {
    db: &'a Database,
    /// Renamed base scans, shared by the texts that range over the same
    /// table under the same variable name.
    scans: HashMap<(String, BTreeMap<AttrId, AttrId>), XRelation>,
}

impl<'a> Oracle<'a> {
    pub fn new(db: &'a Database) -> Self {
        Oracle {
            db,
            scans: HashMap::new(),
        }
    }

    fn table(&self, name: &str) -> CoreResult<XRelation> {
        let table = self
            .db
            .table(name)
            .map_err(|_| CoreError::UnknownRelation(name.to_owned()))?;
        assert!(
            table.schema().key().is_some(),
            "the oracle reads keyed tables only: {name}"
        );
        Ok(XRelation::from_antichain(table.rows().cloned().collect()))
    }

    fn keeps(band: Truth, predicate: &Predicate, tuple: &Tuple) -> CoreResult<bool> {
        Ok(predicate.eval(tuple)? == band)
    }

    /// The rows of `expr` in `band`: TRUE keeps the rows a selection
    /// accepts, `ni` the rows it can neither accept nor reject.
    pub fn eval(&mut self, expr: &Expr, band: Truth) -> CoreResult<XRelation> {
        match expr {
            Expr::Literal(rel) => Ok(rel.clone()),
            Expr::Named(name) => self.table(name),
            Expr::Rename { input, mapping } => {
                if let Expr::Named(name) = input.as_ref() {
                    let key = (name.clone(), mapping.clone());
                    if let Some(hit) = self.scans.get(&key) {
                        return Ok(hit.clone());
                    }
                    let renamed = rename(&self.table(name)?, mapping);
                    self.scans.insert(key, renamed.clone());
                    return Ok(renamed);
                }
                Ok(rename(&self.eval(input, band)?, mapping))
            }
            Expr::Select { input, predicate } => {
                let mut kept = Vec::new();
                if let Expr::Product(left, right) = input.as_ref() {
                    let (left, right) = (self.eval(left, band)?, self.eval(right, band)?);
                    for l in left.tuples() {
                        for r in right.tuples() {
                            let pair = l.join(r).ok_or_else(|| {
                                CoreError::Invariant("product of overlapping scopes".into())
                            })?;
                            if Self::keeps(band, predicate, &pair)? {
                                kept.push(pair);
                            }
                        }
                    }
                } else {
                    for t in self.eval(input, band)?.tuples() {
                        if Self::keeps(band, predicate, t)? {
                            kept.push(t.clone());
                        }
                    }
                }
                Ok(XRelation::from_antichain(kept))
            }
            Expr::Project { input, attrs } => {
                let input = self.eval(input, band)?;
                let projected = input.tuples().iter().map(|t| t.project(attrs)).collect();
                Ok(XRelation::from_antichain(lattice::hashed::minimal(
                    projected,
                )))
            }
            Expr::Product(a, b) => algebra::product(&self.eval(a, band)?, &self.eval(b, band)?),
            Expr::ThetaJoin {
                left,
                left_attr,
                op,
                right_attr,
                right,
            } => algebra::theta_join(
                &self.eval(left, band)?,
                *left_attr,
                *op,
                *right_attr,
                &self.eval(right, band)?,
            ),
            Expr::EquiJoin { left, right, on } => {
                algebra::equijoin(&self.eval(left, band)?, &self.eval(right, band)?, on)
            }
            Expr::UnionJoin { left, right, on } => {
                algebra::union_join(&self.eval(left, band)?, &self.eval(right, band)?, on)
            }
            Expr::Divide { input, y, divisor } => {
                algebra::divide(&self.eval(input, band)?, y, &self.eval(divisor, band)?)
            }
            Expr::Union(a, b) => Ok(lattice::union(&self.eval(a, band)?, &self.eval(b, band)?)),
            Expr::XIntersect(a, b) => Ok(lattice::x_intersection(
                &self.eval(a, band)?,
                &self.eval(b, band)?,
            )),
            Expr::Difference(a, b) => Ok(lattice::difference(
                &self.eval(a, band)?,
                &self.eval(b, band)?,
            )),
        }
    }
}

/// An injective rename maps an antichain onto an antichain.
fn rename(rel: &XRelation, mapping: &BTreeMap<AttrId, AttrId>) -> XRelation {
    XRelation::from_antichain(rel.tuples().iter().map(|t| t.rename(mapping)).collect())
}

/// FNV-1a-64 of one response line.
fn line_hash(line: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in line.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The expected response to one request text. Row order carries no
/// meaning in an x-relation, so the row lines are compared as a multiset:
/// their count plus the wrapping sum of their hashes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    /// The leading lines that must match exactly (`rows=<n>`, and for
    /// QUEL the column header).
    head: Vec<String>,
    rows: usize,
    rows_digest: u64,
}

impl Expected {
    /// Digests a full response: `head_lines` exact lines, then row lines.
    pub fn of(lines: &[String], head_lines: usize) -> Expected {
        let head_lines = head_lines.min(lines.len());
        Expected {
            head: lines[..head_lines].to_vec(),
            rows: lines.len() - head_lines,
            rows_digest: lines[head_lines..]
                .iter()
                .fold(0u64, |acc, l| acc.wrapping_add(line_hash(l))),
        }
    }

    /// True when `response` is this answer.
    pub fn matches(&self, response: &[String]) -> bool {
        response.len() == self.head.len() + self.rows
            && *self == Expected::of(response, self.head.len())
    }

    /// Result rows of the answer.
    #[cfg(test)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Swaps in a wrong answer, for the run that proves a mismatch fails.
    pub fn corrupt(&mut self) {
        self.rows_digest = self.rows_digest.wrapping_add(1);
    }
}

/// The wire rendering of a QUEL result: `rows=<n>`, the ` | `-joined
/// column labels, then one ` | `-joined line per tuple with `-` for `ni`.
pub fn quel_lines(labels: &[String], attrs: &[AttrId], rows: &[Tuple]) -> Vec<String> {
    let mut lines = Vec::with_capacity(rows.len() + 2);
    lines.push(format!("rows={}", rows.len()));
    lines.push(labels.join(" | "));
    for row in rows {
        let cells: Vec<String> = attrs
            .iter()
            .map(|a| {
                row.get(*a)
                    .map_or_else(|| "-".to_owned(), |v| v.to_string())
            })
            .collect();
        lines.push(cells.join(" | "));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use nullrel_core::algebra::NoSource;
    use nullrel_core::tvl::CompareOp;
    use nullrel_core::universe::attr_set;
    use nullrel_core::value::Value;
    use nullrel_storage::SchemaBuilder;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            SchemaBuilder::new("T")
                .required_column("K")
                .column("A")
                .key(&["K"]),
        )
        .unwrap();
        let u = db.universe().clone();
        let t = db.table_mut("T").unwrap();
        for (k, a) in [(1, Some(10)), (2, None), (3, Some(10)), (4, Some(20))] {
            let mut cells = vec![("K", Value::int(k))];
            if let Some(a) = a {
                cells.push(("A", Value::int(a)));
            }
            t.insert_named(&u, &cells).unwrap();
        }
        db
    }

    #[test]
    fn agrees_with_expr_eval_and_splits_the_bands() {
        let db = db();
        let (k, a) = (
            db.universe().lookup("K").unwrap(),
            db.universe().lookup("A").unwrap(),
        );
        let plan = Expr::named("T")
            .select(Predicate::attr_const(a, CompareOp::Eq, 10))
            .project(attr_set([k]));
        let mut oracle = Oracle::new(&db);
        let sure = oracle.eval(&plan, Truth::True).unwrap();
        assert_eq!(sure, plan.eval(&db).unwrap());
        assert_eq!(sure.len(), 2);
        let maybe = oracle.eval(&plan, Truth::Ni).unwrap();
        assert_eq!(
            maybe.tuples(),
            [Tuple::new().with(k, Value::int(2))],
            "only the row whose A is ni may supply 10"
        );
    }

    #[test]
    fn streamed_select_over_product_equals_the_materialised_one() {
        let db = db();
        let mut u = db.universe().clone();
        let (k, a) = (u.lookup("K").unwrap(), u.lookup("A").unwrap());
        let (k2, a2) = (u.intern("K2"), u.intern("A2"));
        let right = Expr::named("T").rename([(k, k2), (a, a2)].into_iter().collect());
        let plan =
            Expr::named("T")
                .product(right)
                .select(Predicate::attr_attr(a, CompareOp::Lt, a2));
        let mut oracle = Oracle::new(&db);
        let streamed = oracle.eval(&plan, Truth::True).unwrap();
        let materialised = Expr::literal(oracle.eval(&Expr::named("T"), Truth::True).unwrap())
            .product(Expr::literal(
                oracle
                    .eval(plan.children()[0].children()[1], Truth::True)
                    .unwrap(),
            ))
            .select(Predicate::attr_attr(a, CompareOp::Lt, a2))
            .eval(&NoSource)
            .unwrap();
        assert_eq!(streamed, materialised);
        assert_eq!(streamed.len(), 2, "10 < 20 for K=1 and K=3");
    }

    #[test]
    fn expected_answers_ignore_row_order_only() {
        let lines: Vec<String> = ["rows=2", "h", "a", "b"].map(String::from).to_vec();
        let expected = Expected::of(&lines, 2);
        assert_eq!(expected.rows(), 2);
        let swapped: Vec<String> = ["rows=2", "h", "b", "a"].map(String::from).to_vec();
        assert!(expected.matches(&swapped));
        let wrong_row: Vec<String> = ["rows=2", "h", "a", "c"].map(String::from).to_vec();
        assert!(!expected.matches(&wrong_row));
        let wrong_head: Vec<String> = ["rows=2", "x", "a", "b"].map(String::from).to_vec();
        assert!(!expected.matches(&wrong_head));
        assert!(!expected.matches(&lines[..3]));
        let mut corrupted = expected.clone();
        corrupted.corrupt();
        assert!(!corrupted.matches(&lines));
    }
}
