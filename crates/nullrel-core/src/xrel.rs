//! Extended relations (x-relations): equivalence classes of relations under
//! information-wise equivalence.
//!
//! Definition 4.3 introduces the x-relation `R̂` as the class of relations
//! equivalent to `R`. An [`XRelation`] always stores the **canonical minimal
//! representation** of its class (Definition 4.6): no null tuple and no tuple
//! strictly less informative than another, with tuples kept in a canonical
//! sorted order. Because tuples store only their non-null cells, the minimal
//! representation is unique *independently of any attribute list*, matching
//! the paper's observation that "x-relations are not explicitly associated
//! with a set of attributes" (Section 6).
//!
//! Consequently `PartialEq`/`Eq`/`Hash` on [`XRelation`] implement the
//! paper's `R̂₁ = R̂₂ ⇔ R₁ ≅ R₂`, and [`XRelation::contains`] implements the
//! set-containment `⊒` of Definition 4.4.

use std::fmt;

use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::universe::{AttrId, AttrSet};

/// An extended relation, held as its canonical minimal representation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct XRelation {
    /// Minimal representation, sorted into canonical order.
    tuples: Vec<Tuple>,
}

impl XRelation {
    /// The empty x-relation `∅̂` — the bottom of the lattice.
    pub fn empty() -> Self {
        XRelation::default()
    }

    /// Builds an x-relation from any iterator of tuples; the input is reduced
    /// to minimal form (the paper's `⌈t₁, …, tₙ⌉` notation).
    pub fn from_tuples<I: IntoIterator<Item = Tuple>>(tuples: I) -> Self {
        let collected: Vec<Tuple> = tuples.into_iter().collect();
        let minimal = minimize(collected);
        XRelation { tuples: minimal }
    }

    /// Builds an x-relation from a [`Relation`] representation.
    pub fn from_relation(relation: &Relation) -> Self {
        XRelation::from_tuples(relation.tuples().cloned())
    }

    /// Builds an x-relation from tuples already known to be minimal and
    /// pairwise incomparable. Used by the lattice operators to avoid
    /// re-minimising; debug builds verify the claim.
    pub(crate) fn from_minimal_unchecked(mut tuples: Vec<Tuple>) -> Self {
        tuples.sort();
        tuples.dedup();
        debug_assert!(
            is_antichain(&tuples),
            "from_minimal_unchecked called with a non-minimal tuple set"
        );
        XRelation { tuples }
    }

    /// Builds an x-relation from tuples the caller guarantees to be an
    /// antichain (no null tuple, no tuple subsumed by another). Streaming
    /// operators that have already reduced their output use this to avoid a
    /// quadratic re-minimisation at the end; debug builds verify the claim.
    pub fn from_antichain(tuples: Vec<Tuple>) -> Self {
        XRelation::from_minimal_unchecked(tuples)
    }

    /// The tuples of the canonical minimal representation.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Consumes the x-relation and returns its tuples.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// The number of tuples in the minimal representation.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True for the empty x-relation.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Adds a tuple, re-minimising. Returns a new x-relation.
    #[must_use]
    pub fn inserted(&self, tuple: Tuple) -> XRelation {
        let mut tuples = self.tuples.clone();
        tuples.push(tuple);
        XRelation::from_tuples(tuples)
    }

    /// Definition 4.5 / Proposition 4.2: `t ∈̂ R̂`.
    pub fn x_contains(&self, tuple: &Tuple) -> bool {
        self.tuples.iter().any(|r| r.more_informative_than(tuple))
    }

    /// Definition 4.4: `self ⊒ other` — x-relation containment, defined as
    /// subsumption of representations.
    pub fn contains(&self, other: &XRelation) -> bool {
        other.tuples.iter().all(|t| self.x_contains(t))
    }

    /// Proper containment `⊐`.
    pub fn properly_contains(&self, other: &XRelation) -> bool {
        self.contains(other) && self != other
    }

    /// Definition 4.7: the scope of the x-relation.
    pub fn scope(&self) -> AttrSet {
        let mut scope = AttrSet::new();
        for t in &self.tuples {
            scope.extend(t.defined_attrs());
        }
        scope
    }

    /// True if every tuple is total on the x-relation's scope — i.e. this is
    /// (the image of) a Codd relation (Section 7).
    pub fn is_total(&self) -> bool {
        let scope = self.scope();
        self.tuples.iter().all(|t| t.is_total_on(&scope))
    }

    /// Materialises a [`Relation`] representation over an explicit attribute
    /// order (useful for display; the attribute list must cover the scope for
    /// the representation to be faithful, which is not enforced here).
    pub fn to_relation<I: IntoIterator<Item = AttrId>>(&self, attrs: I) -> Relation {
        let mut rel = Relation::new(attrs);
        for t in &self.tuples {
            rel.insert_unchecked(t.clone());
        }
        rel
    }

    /// Materialises a [`Relation`] over the x-relation's own scope.
    pub fn to_relation_over_scope(&self) -> Relation {
        self.to_relation(self.scope())
    }

    /// Builds an inverted-cell [`TupleIndex`](crate::lattice::hashed::TupleIndex)
    /// over the minimal representation, for callers that issue repeated
    /// subsumption queries (`x_contains`, dominator lookups) against the
    /// same x-relation: one build amortises the per-query cost the way the
    /// streaming difference/division operators do with `TupleIndex::build`
    /// over their drained inputs.
    pub fn to_index(&self) -> crate::lattice::hashed::TupleIndex {
        crate::lattice::hashed::TupleIndex::build(&self.tuples)
    }
}

impl fmt::Display for XRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XRelation[{} tuples]", self.tuples.len())
    }
}

impl FromIterator<Tuple> for XRelation {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        XRelation::from_tuples(iter)
    }
}

/// Reduces a set of tuples to minimal form: removes null tuples and tuples
/// strictly less informative than another tuple, then sorts canonically.
///
/// This is the quadratic reference implementation; the hash-accelerated
/// variant lives in [`crate::lattice::hashed`].
pub fn minimize(tuples: Vec<Tuple>) -> Vec<Tuple> {
    let mut deduped: Vec<Tuple> = Vec::with_capacity(tuples.len());
    for t in tuples {
        if t.is_null_tuple() {
            continue;
        }
        if !deduped.contains(&t) {
            deduped.push(t);
        }
    }
    let mut keep = Vec::with_capacity(deduped.len());
    'outer: for (i, t) in deduped.iter().enumerate() {
        for (j, other) in deduped.iter().enumerate() {
            if i != j && other.more_informative_than(t) {
                // `deduped` holds no duplicates, so `other ≥ t` here means
                // strictly more informative.
                continue 'outer;
            }
        }
        keep.push(t.clone());
    }
    keep.sort();
    keep
}

/// True if no tuple in the slice is more informative than another (and the
/// null tuple is absent) — i.e. the slice is a minimal representation.
pub fn is_antichain(tuples: &[Tuple]) -> bool {
    for (i, t) in tuples.iter().enumerate() {
        if t.is_null_tuple() {
            return false;
        }
        for (j, other) in tuples.iter().enumerate() {
            if i != j && other.more_informative_than(t) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{attr_set, Universe};
    use crate::value::Value;

    fn setup() -> (Universe, AttrId, AttrId) {
        let mut u = Universe::new();
        let p_no = u.intern("P#");
        let s_no = u.intern("S#");
        (u, s_no, p_no)
    }

    fn st(s_no: AttrId, p_no: AttrId, s: Option<&str>, p: Option<&str>) -> Tuple {
        Tuple::new()
            .with_opt(s_no, s.map(Value::str))
            .with_opt(p_no, p.map(Value::str))
    }

    #[test]
    fn construction_minimises() {
        let (_u, s_no, p_no) = setup();
        let x = XRelation::from_tuples([
            st(s_no, p_no, Some("s1"), Some("p1")),
            st(s_no, p_no, Some("s1"), None),       // dominated
            Tuple::new(),                           // null tuple
            st(s_no, p_no, Some("s1"), Some("p1")), // duplicate
        ]);
        assert_eq!(x.len(), 1);
        assert!(x.x_contains(&st(s_no, p_no, Some("s1"), None)));
    }

    #[test]
    fn equality_is_information_wise_equivalence() {
        let (_u, s_no, p_no) = setup();
        let a = XRelation::from_tuples([
            st(s_no, p_no, Some("s1"), Some("p1")),
            st(s_no, p_no, Some("s1"), None),
        ]);
        let b = XRelation::from_tuples([st(s_no, p_no, Some("s1"), Some("p1"))]);
        assert_eq!(a, b);
        let c = XRelation::from_tuples([st(s_no, p_no, Some("s2"), Some("p1"))]);
        assert_ne!(a, c);
    }

    #[test]
    fn equality_ignores_tuple_order() {
        let (_u, s_no, p_no) = setup();
        let a = XRelation::from_tuples([
            st(s_no, p_no, Some("s1"), Some("p1")),
            st(s_no, p_no, Some("s2"), Some("p2")),
        ]);
        let b = XRelation::from_tuples([
            st(s_no, p_no, Some("s2"), Some("p2")),
            st(s_no, p_no, Some("s1"), Some("p1")),
        ]);
        assert_eq!(a, b);
    }

    #[test]
    fn containment_matches_subsumption() {
        let (_u, s_no, p_no) = setup();
        let ps1 = XRelation::from_tuples([
            st(s_no, p_no, Some("s1"), None),
            st(s_no, p_no, Some("s2"), Some("p1")),
        ]);
        let ps2 = ps1.inserted(st(s_no, p_no, Some("s2"), Some("p2")));
        assert!(ps2.contains(&ps1));
        assert!(!ps1.contains(&ps2));
        assert!(ps2.properly_contains(&ps1));
        assert!(!ps1.properly_contains(&ps1));
    }

    #[test]
    fn proposition_4_1_mutual_containment_is_equality() {
        let (_u, s_no, p_no) = setup();
        let a = XRelation::from_tuples([
            st(s_no, p_no, Some("s1"), Some("p1")),
            st(s_no, p_no, Some("s2"), None),
        ]);
        let b = XRelation::from_tuples([
            st(s_no, p_no, Some("s2"), None),
            st(s_no, p_no, Some("s1"), Some("p1")),
            st(s_no, p_no, None, Some("p1")), // dominated by (s1,p1)
        ]);
        assert!(a.contains(&b) && b.contains(&a));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_is_bottom_for_containment() {
        let (_u, s_no, p_no) = setup();
        let any = XRelation::from_tuples([st(s_no, p_no, Some("s1"), None)]);
        assert!(any.contains(&XRelation::empty()));
        assert!(!XRelation::empty().contains(&any));
        assert!(XRelation::empty().contains(&XRelation::empty()));
        assert!(XRelation::empty().is_empty());
    }

    #[test]
    fn scope_and_totality() {
        let (_u, s_no, p_no) = setup();
        let partial = XRelation::from_tuples([
            st(s_no, p_no, Some("s1"), Some("p1")),
            st(s_no, p_no, Some("s2"), None),
        ]);
        assert_eq!(partial.scope(), attr_set([s_no, p_no]));
        assert!(!partial.is_total());

        let total = XRelation::from_tuples([
            st(s_no, p_no, Some("s1"), Some("p1")),
            st(s_no, p_no, Some("s2"), Some("p2")),
        ]);
        assert!(total.is_total());
    }

    #[test]
    fn to_relation_round_trip() {
        let (_u, s_no, p_no) = setup();
        let x = XRelation::from_tuples([
            st(s_no, p_no, Some("s1"), Some("p1")),
            st(s_no, p_no, Some("s2"), None),
        ]);
        let rel = x.to_relation([s_no, p_no]);
        assert_eq!(rel.len(), 2);
        assert_eq!(XRelation::from_relation(&rel), x);
        let rel2 = x.to_relation_over_scope();
        assert_eq!(XRelation::from_relation(&rel2), x);
    }

    #[test]
    fn minimize_helper_and_antichain() {
        let (_u, s_no, p_no) = setup();
        let tuples = vec![
            st(s_no, p_no, Some("s1"), Some("p1")),
            st(s_no, p_no, Some("s1"), None),
            st(s_no, p_no, None, Some("p2")),
            Tuple::new(),
        ];
        let min = minimize(tuples);
        assert_eq!(min.len(), 2);
        assert!(is_antichain(&min));
        assert!(!is_antichain(&[Tuple::new()]));
        let comparable = vec![
            st(s_no, p_no, Some("s1"), Some("p1")),
            st(s_no, p_no, Some("s1"), None),
        ];
        assert!(!is_antichain(&comparable));
    }

    #[test]
    fn from_iterator_collects() {
        let (_u, s_no, p_no) = setup();
        let x: XRelation = vec![
            st(s_no, p_no, Some("s1"), Some("p1")),
            st(s_no, p_no, Some("s1"), None),
        ]
        .into_iter()
        .collect();
        assert_eq!(x.len(), 1);
    }

    #[test]
    fn display_mentions_cardinality() {
        let (_u, s_no, p_no) = setup();
        let x = XRelation::from_tuples([st(s_no, p_no, Some("s1"), None)]);
        assert_eq!(x.to_string(), "XRelation[1 tuples]");
    }

    #[test]
    fn to_index_answers_subsumption_queries() {
        let (_u, s_no, p_no) = setup();
        let x = XRelation::from_tuples([
            st(s_no, p_no, Some("s1"), Some("p1")),
            st(s_no, p_no, Some("s2"), None),
        ]);
        let index = x.to_index();
        assert!(index.x_contains(&st(s_no, p_no, Some("s1"), None)));
        assert!(!index.x_contains(&st(s_no, p_no, Some("s9"), None)));
        assert_eq!(index.len(), x.len());
    }

    #[test]
    fn x_relation_with_only_null_tuple_equals_empty() {
        let x = XRelation::from_tuples([Tuple::new()]);
        assert_eq!(x, XRelation::empty());
    }
}
