//! # nullrel-query
//!
//! A QUEL-subset query front-end over the `nullrel` storage and algebra
//! layers, reproducing the query-evaluation story of the paper:
//!
//! * [`lexer`] / [`parser`] / [`ast`] — the QUEL syntax of Figures 1–2
//!   (`range of … retrieve … where …`).
//! * [`analyze`] / [`plan`] — resolution against a [`nullrel_storage::Database`]
//!   and translation to the generalized relational algebra, with each range
//!   variable given a disjoint attribute scope.
//! * [`eval`] — the paper's **`ni` lower-bound evaluation** `‖Q‖∗` and its
//!   MAYBE band: [`run`] evaluates a query and [`explain`] reports the
//!   executed plan, both through the `nullrel-exec` physical engine
//!   (optimizer, index selection, hash joins, streaming minimisation), with
//!   the seed's tree-walk evaluation kept as a differential oracle.
//! * [`interp`] + [`tautology`] — the **"unknown"-interpretation baseline**:
//!   the correct lower bound under unknown nulls requires deciding, per
//!   candidate tuple, whether the substituted where clause is a tautology
//!   (optionally under schema integrity constraints). This is the machinery
//!   the Appendix argues is "inordinately difficult and complex", and the
//!   benchmarks measure its cost against the `ni` pass.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyze;
pub mod ast;
pub mod error;
pub mod eval;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod tautology;

pub use analyze::{resolve, ResolvedQuery};
pub use ast::{AttrRef, Query, RangeDecl, Term, WhereExpr};
pub use error::{QueryError, QueryResult};
pub use eval::{
    execute_resolved_naive, explain, prepare, run, ExplainMode, Input, Prepared, QueryOutput,
};
pub use interp::{execute_unknown, execute_unknown_query, Certainty, UnknownOutput, UnknownStats};
pub use parser::parse;
pub use tautology::{decide, decide_with_assumptions, Decision, Formula, Operand};

/// The verbatim text of the paper's Figure 1 (query Q_A).
pub const FIGURE_1_QUERY: &str = "range of e is EMP\n\
retrieve (e.NAME, e.E#)\n\
where (e.SEX = \"F\" and e.TEL# > 2634000) or (e.TEL# < 2634000)";

/// The verbatim text of the paper's Figure 2 (query Q_B).
pub const FIGURE_2_QUERY: &str = "range of e is EMP\n\
range of m is EMP\n\
retrieve (e.NAME)\n\
where m.SEX = \"M\" and e.MGR# = m.E# and e.MGR# != e.E# and e.E# != m.MGR#";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_paper_queries_parse() {
        let q_a = parse(FIGURE_1_QUERY).unwrap();
        assert_eq!(q_a.ranges.len(), 1);
        assert_eq!(q_a.where_clause.unwrap().atom_count(), 3);
        let q_b = parse(FIGURE_2_QUERY).unwrap();
        assert_eq!(q_b.ranges.len(), 2);
        assert_eq!(q_b.where_clause.unwrap().atom_count(), 4);
    }
}
