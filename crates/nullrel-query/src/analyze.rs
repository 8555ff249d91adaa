//! Semantic analysis: resolving a parsed query against a database.
//!
//! Each range variable gets its own copy of the ranged relation with every
//! attribute renamed to a fresh, variable-qualified attribute (`e.NAME`,
//! `m.E#`, …) interned into a query-local clone of the universe. This makes
//! the scopes of distinct range variables disjoint — exactly the
//! precondition the paper's Cartesian product needs — and lets the same
//! query text be evaluated both by the `ni` algebra (over x-relations) and
//! by the "unknown" baseline (over the raw stored rows, nulls included).

use std::collections::BTreeMap;

use nullrel_core::predicate::{Comparison, Operand as CoreOperand, Predicate};
use nullrel_core::tuple::Tuple;
use nullrel_core::universe::{AttrId, Universe};
use nullrel_core::xrel::XRelation;
use nullrel_storage::Database;

use crate::ast::{AttrRef, Query, Term, WhereExpr};
use crate::error::{QueryError, QueryResult};

/// A range variable resolved against the catalog.
#[derive(Debug, Clone)]
pub struct ResolvedRange {
    /// The range variable name.
    pub variable: String,
    /// The relation it ranges over.
    pub relation: String,
    /// Attribute name → qualified attribute id (`NAME` → id of `e.NAME`).
    pub attr_map: BTreeMap<String, AttrId>,
    /// Stored (base) attribute id → qualified attribute id. The physical
    /// planner uses this to map where-clause attributes back onto catalog
    /// columns for index selection.
    pub rename: BTreeMap<AttrId, AttrId>,
    /// The relation's rows with attributes renamed to the qualified ids,
    /// exactly as stored (nulls preserved, no minimisation).
    pub rows: Vec<Tuple>,
}

impl ResolvedRange {
    /// The rows as an x-relation (reduced to minimal form), for the `ni`
    /// algebra.
    pub fn xrelation(&self) -> XRelation {
        XRelation::from_tuples(self.rows.iter().cloned())
    }
}

/// A query resolved against a database.
#[derive(Debug, Clone)]
pub struct ResolvedQuery {
    /// The query-local universe: the database universe plus the qualified
    /// attribute names.
    pub universe: Universe,
    /// The resolved range variables, in declaration order.
    pub ranges: Vec<ResolvedRange>,
    /// The target list: display label plus qualified attribute id.
    pub targets: Vec<(String, AttrId)>,
    /// The where clause over qualified attribute ids, if present.
    pub predicate: Option<Predicate>,
    /// The original where clause AST (used by the "unknown" evaluator).
    pub where_ast: Option<WhereExpr>,
}

/// Resolves a parsed query against the database catalog.
pub fn resolve(db: &Database, query: &Query) -> QueryResult<ResolvedQuery> {
    resolve_impl(db, query, true)
}

/// Resolution without materialising `ResolvedRange::rows`. The engine path
/// (`plan_access`) reads the stored tables through its own access paths,
/// so copying and renaming every row during resolution would be pure
/// waste on the hot query path. Crate-private because the returned
/// `ResolvedQuery` must not be handed to the row-consuming evaluators
/// (`execute_resolved_naive`, the unknown interpreter).
pub(crate) fn resolve_lazy(db: &Database, query: &Query) -> QueryResult<ResolvedQuery> {
    resolve_impl(db, query, false)
}

fn resolve_impl(db: &Database, query: &Query, materialize: bool) -> QueryResult<ResolvedQuery> {
    let mut universe = db.universe().clone();
    let mut ranges: Vec<ResolvedRange> = Vec::with_capacity(query.ranges.len());

    for decl in &query.ranges {
        if ranges.iter().any(|r| r.variable == decl.variable) {
            return Err(QueryError::DuplicateVariable(decl.variable.clone()));
        }
        let table = db
            .table(&decl.relation)
            .map_err(|_| QueryError::UnknownRelation(decl.relation.clone()))?;
        let mut attr_map = BTreeMap::new();
        let mut rename: BTreeMap<AttrId, AttrId> = BTreeMap::new();
        for column in table.schema().columns() {
            let qualified_name = format!("{}.{}", decl.variable, column.name);
            let qualified = match &column.domain {
                Some(domain) => universe.intern_with_domain(&qualified_name, domain.clone()),
                None => universe.intern(&qualified_name),
            };
            attr_map.insert(column.name.clone(), qualified);
            rename.insert(column.attr, qualified);
        }
        let rows = if materialize {
            table.rows().map(|row| row.rename(&rename)).collect()
        } else {
            Vec::new()
        };
        ranges.push(ResolvedRange {
            variable: decl.variable.clone(),
            relation: decl.relation.clone(),
            attr_map,
            rename,
            rows,
        });
    }

    if query.targets.is_empty() {
        return Err(QueryError::EmptyTargetList);
    }
    let mut targets = Vec::with_capacity(query.targets.len());
    for target in &query.targets {
        targets.push((target.label(), lookup(&ranges, target)?));
    }

    let predicate = match &query.where_clause {
        Some(expr) => Some(lower_where(&ranges, expr)?),
        None => None,
    };

    Ok(ResolvedQuery {
        universe,
        ranges,
        targets,
        predicate,
        where_ast: query.where_clause.clone(),
    })
}

/// Resolves a qualified attribute reference to its query-local attribute id.
pub fn lookup(ranges: &[ResolvedRange], attr: &AttrRef) -> QueryResult<AttrId> {
    let range = ranges
        .iter()
        .find(|r| r.variable == attr.variable)
        .ok_or_else(|| QueryError::UnknownVariable(attr.variable.clone()))?;
    range
        .attr_map
        .get(&attr.attribute)
        .copied()
        .ok_or_else(|| QueryError::UnknownAttribute {
            variable: attr.variable.clone(),
            attribute: attr.attribute.clone(),
        })
}

fn lower_where(ranges: &[ResolvedRange], expr: &WhereExpr) -> QueryResult<Predicate> {
    Ok(match expr {
        WhereExpr::Cmp { left, op, right } => Predicate::Cmp(Comparison {
            left: lower_term(ranges, left)?,
            op: *op,
            right: lower_term(ranges, right)?,
        }),
        WhereExpr::And(a, b) => lower_where(ranges, a)?.and(lower_where(ranges, b)?),
        WhereExpr::Or(a, b) => lower_where(ranges, a)?.or(lower_where(ranges, b)?),
        WhereExpr::Not(inner) => lower_where(ranges, inner)?.negate(),
    })
}

fn lower_term(ranges: &[ResolvedRange], term: &Term) -> QueryResult<CoreOperand> {
    Ok(match term {
        Term::Attr(attr) => CoreOperand::Attr(lookup(ranges, attr)?),
        Term::Const(value) => CoreOperand::Const(value.clone()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use nullrel_core::value::Value;
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
        t.insert_named(
            &u,
            &[
                ("E#", Value::int(1120)),
                ("NAME", Value::str("SMITH")),
                ("SEX", Value::str("M")),
                ("MGR#", Value::int(2235)),
            ],
        )
        .unwrap();
        t.insert_named(
            &u,
            &[
                ("E#", Value::int(4335)),
                ("NAME", Value::str("BROWN")),
                ("SEX", Value::str("F")),
                ("MGR#", Value::int(2235)),
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn resolves_figure1_style_query() {
        let db = emp_db();
        let query = parse(
            "range of e is EMP retrieve (e.NAME, e.E#) \
             where (e.SEX = \"F\" and e.TEL# > 2634000) or (e.TEL# < 2634000)",
        )
        .unwrap();
        let resolved = resolve(&db, &query).unwrap();
        assert_eq!(resolved.ranges.len(), 1);
        assert_eq!(resolved.ranges[0].rows.len(), 2);
        assert_eq!(resolved.targets.len(), 2);
        assert_eq!(resolved.targets[0].0, "e.NAME");
        assert!(resolved.predicate.is_some());
        assert!(resolved.universe.lookup("e.TEL#").is_some());
        // The qualified ids are distinct from the base ids.
        let base = db.universe().lookup("NAME").unwrap();
        assert_ne!(resolved.targets[0].1, base);
    }

    #[test]
    fn self_join_gets_disjoint_scopes() {
        let db = emp_db();
        let query = parse(
            "range of e is EMP range of m is EMP retrieve (e.NAME) \
             where e.MGR# = m.E#",
        )
        .unwrap();
        let resolved = resolve(&db, &query).unwrap();
        assert_eq!(resolved.ranges.len(), 2);
        let e_scope = resolved.ranges[0].xrelation().scope();
        let m_scope = resolved.ranges[1].xrelation().scope();
        assert!(e_scope.intersection(&m_scope).next().is_none());
    }

    #[test]
    fn resolution_errors() {
        let db = emp_db();
        let q = parse("range of e is NOPE retrieve (e.NAME)").unwrap();
        assert!(matches!(
            resolve(&db, &q),
            Err(QueryError::UnknownRelation(_))
        ));

        let q = parse("range of e is EMP retrieve (x.NAME)").unwrap();
        assert!(matches!(
            resolve(&db, &q),
            Err(QueryError::UnknownVariable(_))
        ));

        let q = parse("range of e is EMP retrieve (e.GHOST)").unwrap();
        assert!(matches!(
            resolve(&db, &q),
            Err(QueryError::UnknownAttribute { .. })
        ));

        let q = parse("range of e is EMP range of e is EMP retrieve (e.NAME)").unwrap();
        assert!(matches!(
            resolve(&db, &q),
            Err(QueryError::DuplicateVariable(_))
        ));
    }
}
