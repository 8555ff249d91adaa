//! Planning: translating a resolved query into a relational-algebra
//! expression over x-relations.
//!
//! The translation follows the classical calculus → algebra correspondence
//! the paper relies on for efficient evaluation: the Cartesian product of
//! the range relations (whose scopes the analyzer has made disjoint), a
//! selection with the where-clause predicate under the three-valued `ni`
//! semantics, and a projection onto the target list.
//!
//! Two plan shapes are produced. [`plan`] embeds each range's rows as a
//! literal x-relation — self-contained, evaluable against
//! [`nullrel_core::algebra::NoSource`], and the input of the differential
//! oracle. [`plan_access`] instead references the stored tables through
//! `Rename(Named)` scans, which lets the `nullrel-exec` engine choose real
//! access paths (index probes) from the catalog.

use nullrel_core::algebra::Expr;
use nullrel_core::predicate::Predicate;
use nullrel_core::universe::AttrSet;

use crate::analyze::ResolvedQuery;

/// Builds the logical plan for a resolved query with literal scans.
pub fn plan(resolved: &ResolvedQuery) -> Expr {
    build(resolved, |range| Expr::literal(range.xrelation()))
}

/// Builds the logical plan with named base-relation scans (each wrapped in
/// the range variable's attribute renaming), so the physical engine can
/// select access paths from the catalog the plan is evaluated against.
pub fn plan_access(resolved: &ResolvedQuery) -> Expr {
    build(resolved, |range| {
        Expr::named(&range.relation).rename(range.rename.clone())
    })
}

fn build(resolved: &ResolvedQuery, scan: impl Fn(&crate::analyze::ResolvedRange) -> Expr) -> Expr {
    let mut expr: Option<Expr> = None;
    for range in &resolved.ranges {
        let scan = scan(range);
        expr = Some(match expr {
            None => scan,
            Some(prev) => prev.product(scan),
        });
    }
    let mut expr = expr.unwrap_or_else(|| Expr::literal(nullrel_core::XRelation::empty()));
    if let Some(predicate) = &resolved.predicate {
        expr = expr.select(predicate.clone());
    } else {
        expr = expr.select(Predicate::always());
    }
    let targets: AttrSet = resolved.targets.iter().map(|(_, attr)| *attr).collect();
    expr.project(targets)
}

/// Renders the logical plan with the query-local universe (for debugging
/// and the examples' `--explain` style output).
pub fn explain(resolved: &ResolvedQuery) -> String {
    plan(resolved).explain(&resolved.universe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::resolve;
    use crate::eval::{explain as explain_report, ExplainMode, Input};
    use crate::parser::parse;
    use nullrel_core::algebra::NoSource;
    use nullrel_core::value::Value;
    use nullrel_exec::OptimizeOptions;
    use nullrel_storage::{Database, SchemaBuilder};

    fn explain_executed(db: &Database, text: &str) -> crate::QueryResult<String> {
        explain_report(db, text, OptimizeOptions::default(), ExplainMode::Executed)
    }

    fn ps_db() -> Database {
        let mut db = Database::new();
        db.create_table(SchemaBuilder::new("PS").column("S#").column("P#"))
            .unwrap();
        let u = db.universe().clone();
        let t = db.table_mut("PS").unwrap();
        for (s, p) in [
            ("s1", Some("p1")),
            ("s1", Some("p2")),
            ("s2", Some("p1")),
            ("s3", None),
        ] {
            let mut cells = vec![("S#", Value::str(s))];
            if let Some(p) = p {
                cells.push(("P#", Value::str(p)));
            }
            t.insert_named(&u, &cells).unwrap();
        }
        db
    }

    #[test]
    fn plan_is_project_select_product_of_scans() {
        let db = ps_db();
        let query =
            parse("range of a is PS range of b is PS retrieve (a.S#) where a.P# = b.P#").unwrap();
        let resolved = resolve(&db, &query).unwrap();
        let text = explain(&resolved);
        assert!(text.starts_with("Project"));
        assert!(text.contains("Select"));
        assert!(text.contains("Product"));
        // The plan evaluates without needing a named-relation source because
        // the scans are literals.
        let result = plan(&resolved).eval(&NoSource).unwrap();
        assert!(result.len() >= 2);
    }

    /// Acceptance: queries over the full algebra explain to dedicated
    /// streaming operators — no fallback/oracle-scan node appears.
    #[test]
    fn explained_exprs_show_streaming_set_operators() {
        use nullrel_core::predicate::Predicate;
        use nullrel_core::tvl::CompareOp;
        use nullrel_core::universe::attr_set;

        let db = ps_db();
        let u = db.universe().clone();
        let s = u.lookup("S#").unwrap();
        let p = u.lookup("P#").unwrap();
        let by = |k: &str| {
            Expr::named("PS")
                .select(Predicate::attr_const(s, CompareOp::Eq, k))
                .project(attr_set([p]))
        };
        let explain_expr = |expr: &Expr| {
            explain_report(
                &db,
                Input::Expr(expr, &u),
                OptimizeOptions::default(),
                ExplainMode::Executed,
            )
            .unwrap()
        };
        let division = Expr::named("PS").divide(attr_set([s]), by("s2"));
        let report = explain_expr(&division);
        assert!(report.contains("Divide over [S#]"), "{report}");
        assert!(!report.contains("EvalScan"), "{report}");

        let setops = by("s1").difference(by("s2")).union(by("s3"));
        let report = explain_expr(&setops);
        assert!(report.contains("Union"), "{report}");
        assert!(report.contains("Difference"), "{report}");
        assert!(!report.contains("EvalScan"), "{report}");

        let uj = Expr::named("PS").union_join(Expr::named("PS"), attr_set([s]));
        let report = explain_expr(&uj);
        assert!(report.contains("UnionJoin on [S#]"), "{report}");
        assert!(!report.contains("EvalScan"), "{report}");
    }

    /// The parallel engine's degree is visible per operator in explain
    /// reports, with per-worker row counters.
    #[test]
    fn explain_reports_parallel_degree() {
        use nullrel_exec::Parallelism;
        let db = ps_db();
        let options = OptimizeOptions {
            parallelism: Parallelism::Threads(4),
            parallel_row_threshold: 0,
            ..OptimizeOptions::default()
        };
        let report = explain_report(
            &db,
            "range of a is PS retrieve (a.P#) where a.S# = \"s1\"",
            options,
            ExplainMode::Executed,
        )
        .unwrap();
        assert!(report.contains("par=4"), "{report}");
        assert!(report.contains("workers=["), "{report}");
        // Default options keep the serial engine: no degree annotations
        // appear.
        let serial = explain_executed(&db, "range of a is PS retrieve (a.P#) where a.S# = \"s1\"");
        assert!(!serial.unwrap().contains("par="), "serial by default");
    }

    /// Satellite: explain reports estimated next to actual row counts and
    /// close with the plan's mean q-error.
    #[test]
    fn explain_reports_estimates_and_q_error() {
        let db = ps_db();
        let report =
            explain_executed(&db, "range of a is PS retrieve (a.P#) where a.S# = \"s1\"").unwrap();
        assert!(report.contains("est="), "{report}");
        assert!(report.contains("estimation: mean q-error"), "{report}");
    }

    /// A three-range query goes through the cost-based join enumerator and
    /// the rule shows up in the explain report.
    #[test]
    fn explain_shows_cost_based_join_ordering() {
        let db = ps_db();
        let report = explain_executed(
            &db,
            "range of a is PS range of b is PS range of c is PS retrieve (a.S#) \
             where a.P# = b.P# and b.S# = c.S#",
        )
        .unwrap();
        assert!(report.contains("cost-based-join-order"), "{report}");
        // The *executed* plan joins everything by hash — the only Product
        // is in the unoptimized logical section above it.
        let physical = report.split("physical (executed):").nth(1).unwrap();
        assert!(
            !physical.contains("Product"),
            "no Cartesian product:\n{report}"
        );
        assert!(physical.contains("HashJoin"), "{report}");
    }

    #[test]
    fn plan_without_where_clause_selects_everything() {
        let db = ps_db();
        let query = parse("range of a is PS retrieve (a.S#)").unwrap();
        let resolved = resolve(&db, &query).unwrap();
        let result = plan(&resolved).eval(&NoSource).unwrap();
        assert_eq!(result.len(), 3, "s1, s2, s3");
    }
}
