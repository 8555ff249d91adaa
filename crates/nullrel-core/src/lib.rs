//! # nullrel-core
//!
//! A faithful implementation of Carlo Zaniolo's *Database Relations with
//! Null Values* (PODS 1982 / JCSS 28, 1984): the **no-information (`ni`)
//! interpretation of nulls**, the information ordering on tuples, extended
//! relations (**x-relations**) as equivalence classes under information-wise
//! equivalence, the distributive pseudo-complemented lattice they form, the
//! three-valued query-evaluation discipline, and the generalized relational
//! algebra (selection, projection, Cartesian product, θ-joins, equijoin,
//! union-join, and division).
//!
//! ## Map of the paper onto modules
//!
//! | Paper | Module |
//! |---|---|
//! | §3 tuples, `≥`, meet `∧`, join `∨` | [`tuple`](mod@tuple) |
//! | §3 universe `U`, domains `DOM(A)` | [`universe`], [`value`] |
//! | §4 subsumption, `≅`, x-relations, minimal form, scope | [`relation`], [`xrel`] |
//! | §4/§7 union, x-intersection, difference, `TOP_U`, pseudo-complement | [`lattice`] |
//! | §5 Table III, comparisons with `ni` | [`tvl`], [`predicate`] |
//! | §5–6 selection, projection, product, joins, union-join, division | [`algebra`] |
//! | Displays and tables | [`display`] |
//!
//! ## Quick start
//!
//! ```
//! use nullrel_core::prelude::*;
//!
//! // Build the universe and the PS relation of the paper's display (6.6).
//! let mut universe = Universe::new();
//! let s_no = universe.intern("S#");
//! let p_no = universe.intern("P#");
//! let tuple = |s: Option<&str>, p: Option<&str>| {
//!     Tuple::new()
//!         .with_opt(s_no, s.map(Value::str))
//!         .with_opt(p_no, p.map(Value::str))
//! };
//! let ps = XRelation::from_tuples([
//!     tuple(Some("s1"), Some("p1")),
//!     tuple(Some("s1"), Some("p2")),
//!     tuple(Some("s2"), Some("p1")),
//!     tuple(Some("s2"), None),
//!     tuple(Some("s3"), None),
//!     tuple(Some("s4"), Some("p4")),
//! ]);
//!
//! // "Find each supplier who supplies every part supplied by s2."
//! let parts_of_s2 = algebra::project(
//!     &algebra::select_attr_const(&ps, s_no, CompareOp::Eq, Value::str("s2")).unwrap(),
//!     &attr_set([p_no]),
//! );
//! let answer = algebra::divide(&ps, &attr_set([s_no]), &parts_of_s2).unwrap();
//! assert_eq!(answer.len(), 2); // {s1, s2}, the paper's A₃
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algebra;
pub mod batch;
pub mod display;
pub mod error;
pub mod lattice;
pub mod predicate;
pub mod relation;
pub mod tuple;
pub mod tvl;
pub mod universe;
pub mod value;
pub mod xrel;

/// Convenient re-exports of the most frequently used items.
pub mod prelude {
    pub use crate::algebra;
    pub use crate::algebra::{Expr, RelationSource};
    pub use crate::error::{CoreError, CoreResult};
    pub use crate::lattice;
    pub use crate::predicate::{Comparison, Operand, Predicate};
    pub use crate::relation::Relation;
    pub use crate::tuple::Tuple;
    pub use crate::tvl::{CompareOp, Truth};
    pub use crate::universe::{attr_set, AttrId, AttrSet, Domain, DomainType, Universe};
    pub use crate::value::Value;
    pub use crate::xrel::XRelation;
}

pub use error::{CoreError, CoreResult};
pub use predicate::Predicate;
pub use relation::Relation;
pub use tuple::Tuple;
pub use tvl::{CompareOp, Truth};
pub use universe::{AttrId, AttrSet, Domain, Universe};
pub use value::Value;
pub use xrel::XRelation;

#[cfg(test)]
mod tests {
    /// The doc example above is the crate's primary smoke test; this module
    /// only checks that the prelude exposes what the examples rely on.
    #[test]
    fn prelude_exports_compile() {
        use crate::prelude::*;
        let mut u = Universe::new();
        let a = u.intern("A");
        let rel = XRelation::from_tuples([Tuple::new().with(a, Value::int(1))]);
        assert_eq!(lattice::union(&rel, &XRelation::empty()), rel);
        assert_eq!(Truth::True.and(Truth::Ni), Truth::Ni);
        let _: CoreResult<()> = Ok(());
        let _ = CompareOp::Eq;
        let _ = attr_set([a]);
    }
}
