//! Experiment E8: property-based verification of the lattice structure of
//! x-relations (Propositions 4.1, 4.4–4.7, distributivity, absorption) and
//! of the agreement between the naïve and hash-accelerated implementations
//! of the set operations.

use proptest::prelude::*;

use nullrel::core::lattice::{self, hashed, laws, naive};
use nullrel::core::prelude::*;

/// Strategy: a tuple over up to 4 attributes (ids 0..4), each cell either
/// null or a small integer. Small domains maximise the chance of meets,
/// joins, and subsumption actually occurring.
fn arb_tuple() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(proptest::option::of(0i64..4), 4).prop_map(|cells| {
        let mut tuple = Tuple::new();
        for (i, cell) in cells.into_iter().enumerate() {
            if let Some(v) = cell {
                tuple.set(AttrId::from_index(i), Some(Value::int(v)));
            }
        }
        tuple
    })
}

fn arb_xrelation(max_tuples: usize) -> impl Strategy<Value = XRelation> {
    proptest::collection::vec(arb_tuple(), 0..max_tuples).prop_map(XRelation::from_tuples)
}

/// Strategy: tuple sets built to be adversarial *for signatures* — the
/// partitioning the hashed minimiser reduces by. Five attributes with three
/// values each, so many tuples share projections; every null pattern; and
/// with each seed tuple `t₃` a chain `t₁ ≤ t₂ ≤ t₃` (one more cell nulled
/// per step, down to the null tuple) whose middle tuple is itself dropped,
/// plus, for some seeds, an exact duplicate.
fn arb_signature_heavy_tuples() -> impl Strategy<Value = Vec<Tuple>> {
    let seed = (
        proptest::collection::vec(proptest::option::of(0i64..3), 5),
        0usize..5,
        0usize..5,
        0u8..3,
    );
    proptest::collection::vec(seed, 0..12).prop_map(|seeds| {
        let mut tuples = Vec::new();
        for (cells, first, second, dup) in seeds {
            let mut t = Tuple::new();
            for (i, cell) in cells.into_iter().enumerate() {
                t.set(AttrId::from_index(i), cell.map(Value::int));
            }
            let mut t2 = t.clone();
            t2.set(AttrId::from_index(first), None);
            let mut t1 = t2.clone();
            t1.set(AttrId::from_index(second), None);
            if dup == 0 {
                tuples.push(t2.clone());
            }
            tuples.extend([t1, t2, t]);
        }
        tuples
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hashed_minimal_equals_the_quadratic_oracle(tuples in arb_signature_heavy_tuples()) {
        prop_assert_eq!(
            hashed::minimal(tuples.clone()),
            nullrel::core::xrel::minimize(tuples)
        );
    }

    #[test]
    fn tuple_index_dominators_are_the_more_informative_tuples(
        tuples in arb_signature_heavy_tuples(),
        probe in arb_tuple(),
    ) {
        let index = hashed::TupleIndex::build(&tuples);
        let expected: Vec<usize> = (0..tuples.len())
            .filter(|&i| tuples[i].more_informative_than(&probe))
            .collect();
        prop_assert_eq!(index.x_contains(&probe), !expected.is_empty());
        prop_assert_eq!(index.dominators(&probe), expected);
    }

    #[test]
    fn canonical_minimality(rel in arb_xrelation(8)) {
        prop_assert!(nullrel::core::xrel::is_antichain(rel.tuples()));
    }

    #[test]
    fn union_and_intersection_are_bounds(a in arb_xrelation(8), b in arb_xrelation(8)) {
        prop_assert!(laws::union_is_upper_bound(&a, &b));
        prop_assert!(laws::intersection_is_lower_bound(&a, &b));
        prop_assert!(laws::union_is_least_upper_bound(&lattice::union(&a, &b), &a, &b));
        prop_assert!(laws::intersection_is_greatest_lower_bound(
            &lattice::x_intersection(&a, &b), &a, &b));
    }

    #[test]
    fn semilattice_absorption_distributivity(
        a in arb_xrelation(6),
        b in arb_xrelation(6),
        c in arb_xrelation(6),
    ) {
        prop_assert!(laws::semilattice_laws(&a, &b, &c));
        prop_assert!(laws::absorption(&a, &b));
        prop_assert!(laws::distributive_meet_over_join(&a, &b, &c));
        prop_assert!(laws::distributive_join_over_meet(&a, &b, &c));
    }

    #[test]
    fn containment_is_a_partial_order_and_ops_are_monotone(
        a in arb_xrelation(6),
        b in arb_xrelation(6),
        c in arb_xrelation(6),
    ) {
        prop_assert!(laws::containment_is_partial_order(&a, &b, &c));
        prop_assert!(laws::mutual_containment_is_equality(&a, &b));
        // a ⊑ a ∪ c, so monotonicity applies with a2 = a ∪ c.
        prop_assert!(laws::operations_are_monotone(&a, &lattice::union(&a, &c), &b));
    }

    #[test]
    fn difference_propositions_4_6_and_4_7(a in arb_xrelation(8), b in arb_xrelation(8)) {
        let bigger = lattice::union(&a, &b);
        prop_assert!(laws::difference_restores_under_containment(&bigger, &a));
        prop_assert!(laws::difference_is_smallest_restorer(&b, &bigger, &a));
        // Difference with self is always empty; difference against the
        // bottom is the identity.
        prop_assert!(lattice::difference(&a, &a).is_empty());
        prop_assert_eq!(lattice::difference(&a, &XRelation::empty()), a.clone());
    }

    #[test]
    fn hashed_and_naive_implementations_agree(a in arb_xrelation(10), b in arb_xrelation(10)) {
        prop_assert_eq!(naive::union(&a, &b), hashed::union(&a, &b));
        prop_assert_eq!(naive::x_intersection(&a, &b), hashed::x_intersection(&a, &b));
        prop_assert_eq!(naive::difference(&a, &b), hashed::difference(&a, &b));
        prop_assert_eq!(naive::contains(&a, &b), hashed::contains(&a, &b));
    }

    #[test]
    fn x_membership_is_downward_closed(rel in arb_xrelation(8), t in arb_tuple()) {
        // If a tuple x-belongs, every less informative tuple x-belongs too.
        if rel.x_contains(&t) {
            let weaker = t.project(&attr_set(t.defined_attrs().into_iter().take(1)));
            prop_assert!(rel.x_contains(&weaker));
        }
    }

    #[test]
    fn meet_and_join_of_tuples_are_lattice_operations(a in arb_tuple(), b in arb_tuple()) {
        let meet = a.meet(&b);
        prop_assert!(a.more_informative_than(&meet));
        prop_assert!(b.more_informative_than(&meet));
        if let Some(join) = a.join(&b) {
            prop_assert!(join.more_informative_than(&a));
            prop_assert!(join.more_informative_than(&b));
            prop_assert!(join.more_informative_than(&meet));
        } else {
            // Not joinable: they must disagree on some common attribute.
            prop_assert!(!a.joinable(&b));
        }
    }
}

/// The no-complement counterexample of Section 4 and the pseudo-complement
/// facts of Section 7, on the paper's own two-attribute universe.
#[test]
fn pseudo_complement_facts() {
    let mut universe = Universe::new();
    let a = universe.intern_with_domain("A", Domain::Enumerated(vec![Value::str("a1")]));
    let b = universe.intern_with_domain(
        "B",
        Domain::Enumerated(vec![Value::str("b1"), Value::str("b2")]),
    );
    let attrs = attr_set([a, b]);
    let r = XRelation::from_tuples([Tuple::new()
        .with(a, Value::str("a1"))
        .with(b, Value::str("b1"))]);
    let top = lattice::top(&universe, &attrs, lattice::DEFAULT_TOP_LIMIT).unwrap();
    let star =
        lattice::pseudo_complement(&r, &universe, &attrs, lattice::DEFAULT_TOP_LIMIT).unwrap();
    // R ∪ R* = TOP, and R* is the smallest such (checked against every
    // sub-relation of TOP on this tiny universe).
    assert_eq!(lattice::union(&r, &star), top);
    assert!(star.is_total());
    // The x-intersection with the pseudo-complement is not empty — there is
    // no true complement (Section 4's counterexample).
    assert!(!lattice::x_intersection(&r, &star).is_empty());
}

/// Named shapes for the signature-hashed minimiser, each against the
/// quadratic oracle [`nullrel::core::xrel::minimize`].
mod hashed_minimal_cases {
    use super::*;
    use nullrel::core::xrel::minimize;

    fn attrs() -> [AttrId; 4] {
        [0, 1, 2, 3].map(AttrId::from_index)
    }

    /// One signature, so no bucket has a superset to probe: the output is
    /// the input sorted and deduplicated.
    #[test]
    fn all_total_input_is_only_deduplicated() {
        let [a, b, ..] = attrs();
        let row = |x: i64, y: i64| Tuple::new().with(a, Value::int(x)).with(b, Value::int(y));
        let input = vec![row(2, 1), row(1, 1), row(2, 1), row(1, 2), row(1, 1)];
        let out = hashed::minimal(input.clone());
        assert_eq!(out, vec![row(1, 1), row(1, 2), row(2, 1)]);
        assert_eq!(out, minimize(input));
    }

    /// Every tuple its own bucket, every bucket a subset of others.
    #[test]
    fn every_tuple_a_distinct_signature() {
        let [a, b, c, _] = attrs();
        let over =
            |on: &[AttrId], v: i64| Tuple::from_pairs(on.iter().map(|attr| (*attr, Value::int(v))));
        let signatures: [&[AttrId]; 7] = [&[a], &[b], &[c], &[a, b], &[a, c], &[b, c], &[a, b, c]];
        // All cells agree: the one total tuple subsumes the other six.
        let agreeing: Vec<Tuple> = signatures.iter().map(|on| over(on, 1)).collect();
        assert_eq!(hashed::minimal(agreeing.clone()), vec![over(&[a, b, c], 1)]);
        assert_eq!(hashed::minimal(agreeing.clone()), minimize(agreeing));
        // No two tuples agree on a cell: nothing subsumes anything.
        let disagreeing: Vec<Tuple> = signatures
            .iter()
            .zip(1..)
            .map(|(on, v)| over(on, v))
            .collect();
        assert_eq!(hashed::minimal(disagreeing.clone()).len(), 7);
        assert_eq!(hashed::minimal(disagreeing.clone()), minimize(disagreeing));
    }

    /// The served wide-result shape: a constant column on every row and a
    /// fourth column `ni` on every 7th. Only a planted row that repeats
    /// another row's first three cells is subsumed.
    #[test]
    fn one_constant_column_across_all_rows() {
        let [key, name, sex, mgr] = attrs();
        let mut rows: Vec<Tuple> = (0..70i64)
            .map(|k| {
                Tuple::new()
                    .with(key, Value::int(k))
                    .with(name, Value::int(k * 31 % 17))
                    .with(sex, Value::int(1))
                    .with_opt(mgr, (k % 7 != 0).then(|| Value::int(k / 3)))
            })
            .collect();
        assert_eq!(hashed::minimal(rows.clone()).len(), 70);
        let mut planted = rows[9].clone();
        planted.set(mgr, None);
        rows.push(planted);
        assert_eq!(hashed::minimal(rows.clone()).len(), 70);
        assert_eq!(hashed::minimal(rows.clone()), minimize(rows));
    }

    /// Cells match by `==` on [`Value`]: `Int(2)` is not `Float(2.0)`, while
    /// `0.0` and `-0.0` are one float.
    #[test]
    fn int_and_float_cells_match_only_when_equal() {
        let [a, b, ..] = attrs();
        let wider = |v: Value| Tuple::new().with(a, v).with(b, Value::int(1));
        let mixed = vec![
            Tuple::new().with(a, Value::int(2)),
            wider(Value::float(2.0)),
        ];
        assert_eq!(hashed::minimal(mixed.clone()).len(), 2);
        assert_eq!(hashed::minimal(mixed.clone()), minimize(mixed));
        let zeros = vec![
            Tuple::new().with(a, Value::float(0.0)),
            wider(Value::float(-0.0)),
        ];
        assert_eq!(
            hashed::minimal(zeros.clone()),
            vec![wider(Value::float(0.0))]
        );
        assert_eq!(hashed::minimal(zeros.clone()), minimize(zeros));
    }
}
