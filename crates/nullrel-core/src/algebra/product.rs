//! Cartesian product (definition 5.3).
//!
//! `R₁ × R₂ = ⌈r₁ ∨ r₂ | r₁ ∈ R₁ and r₂ ∈ R₂ are not null⌉`. The operands
//! must have disjoint scopes (otherwise the tuple join could be undefined and
//! the operation would silently drop pairs); overlapping scopes are reported
//! as [`CoreError::ScopeOverlap`], and the [`rename`](fn@crate::algebra::rename)
//! operator can be used to make scopes disjoint first.

use crate::error::{CoreError, CoreResult};
use crate::tuple::Tuple;
use crate::xrel::XRelation;

/// The Cartesian product `R₁ × R₂` of two x-relations with disjoint scopes.
pub fn product(a: &XRelation, b: &XRelation) -> CoreResult<XRelation> {
    let scope_a = a.scope();
    let scope_b = b.scope();
    let shared: Vec<_> = scope_a.intersection(&scope_b).copied().collect();
    if !shared.is_empty() {
        return Err(CoreError::ScopeOverlap { shared });
    }
    let mut out: Vec<Tuple> = Vec::with_capacity(a.len() * b.len());
    for r1 in a.tuples() {
        for r2 in b.tuples() {
            // Minimal representations never contain the null tuple, and the
            // scopes are disjoint, so the join always exists.
            let joined = r1
                .join(r2)
                .ok_or_else(|| CoreError::Invariant("disjoint-scope join failed".into()))?;
            out.push(joined);
        }
    }
    // Products of minimal operands stay minimal: two product tuples can only
    // be comparable if both their factors are, which minimality rules out.
    Ok(XRelation::from_minimal_unchecked(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{AttrId, Universe};
    use crate::value::Value;

    fn setup() -> (Universe, AttrId, AttrId, AttrId) {
        let mut u = Universe::new();
        let s = u.intern("S#");
        let p = u.intern("P#");
        let c = u.intern("CITY");
        (u, s, p, c)
    }

    #[test]
    fn product_of_disjoint_scopes() {
        let (_u, s, p, c) = setup();
        let suppliers = XRelation::from_tuples([
            Tuple::new().with(s, Value::str("s1")),
            Tuple::new().with(s, Value::str("s2")),
        ]);
        let parts = XRelation::from_tuples([
            Tuple::new()
                .with(p, Value::str("p1"))
                .with(c, Value::str("NYC")),
            Tuple::new().with(p, Value::str("p2")),
        ]);
        let prod = product(&suppliers, &parts).unwrap();
        assert_eq!(prod.len(), 4);
        assert!(prod.x_contains(
            &Tuple::new()
                .with(s, Value::str("s2"))
                .with(p, Value::str("p1"))
                .with(c, Value::str("NYC"))
        ));
    }

    #[test]
    fn product_with_overlapping_scope_is_rejected() {
        let (_u, s, p, _c) = setup();
        let a = XRelation::from_tuples([Tuple::new().with(s, Value::str("s1"))]);
        let b = XRelation::from_tuples([Tuple::new()
            .with(s, Value::str("s1"))
            .with(p, Value::str("p1"))]);
        assert!(matches!(
            product(&a, &b),
            Err(CoreError::ScopeOverlap { .. })
        ));
    }

    #[test]
    fn product_with_empty_operand_is_empty() {
        let (_u, s, _p, _c) = setup();
        let a = XRelation::from_tuples([Tuple::new().with(s, Value::str("s1"))]);
        assert!(product(&a, &XRelation::empty()).unwrap().is_empty());
        assert!(product(&XRelation::empty(), &a).unwrap().is_empty());
    }

    #[test]
    fn product_preserves_nulls_in_either_factor() {
        let (_u, s, p, c) = setup();
        let a = XRelation::from_tuples([
            Tuple::new()
                .with(s, Value::str("s1"))
                .with(p, Value::str("p1")),
            Tuple::new().with(s, Value::str("s3")),
        ]);
        let b = XRelation::from_tuples([Tuple::new().with(c, Value::str("LA"))]);
        let prod = product(&a, &b).unwrap();
        assert_eq!(prod.len(), 2);
        assert!(prod.x_contains(
            &Tuple::new()
                .with(s, Value::str("s3"))
                .with(c, Value::str("LA"))
        ));
    }

    #[test]
    fn product_cardinality_matches_total_case() {
        // Section 7 property (2): on total relations the product agrees with
        // the classical Cartesian product.
        let (_u, s, p, _c) = setup();
        let a = XRelation::from_tuples([
            Tuple::new().with(s, Value::str("s1")),
            Tuple::new().with(s, Value::str("s2")),
            Tuple::new().with(s, Value::str("s3")),
        ]);
        let b = XRelation::from_tuples([
            Tuple::new().with(p, Value::str("p1")),
            Tuple::new().with(p, Value::str("p2")),
        ]);
        assert_eq!(product(&a, &b).unwrap().len(), 6);
    }
}
