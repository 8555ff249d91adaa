//! Hash-accelerated lattice operations.
//!
//! Section 4 observes that a simple-minded implementation of the difference
//! and x-intersection has an `O(|R₁| · |R₂|)` upper bound, and points to
//! "more sophisticated techniques, such as combinatorial hashing", both for
//! the set operations and for reducing relations to minimal form. This
//! module holds two such techniques.
//!
//! **Reduction to minimal form** ([`minimal`]) partitions the tuples by
//! *signature* — the set of attributes with a non-null cell. `r` is strictly
//! more informative than `t` iff `sig(t) ⊊ sig(r)` and `r` restricted to
//! `sig(t)` equals `t`, so only a pair of signatures `S ⊊ Q` that are both
//! present can hold a dominated tuple: the `Q` tuples are hashed on their
//! `S` cells once and every `S` tuple is one probe. A tuple whose signature
//! has no present strict superset is kept without any probe, which is every
//! tuple of a total (Codd) relation. The cost is `O(n · s)` hash operations
//! for `s` distinct signatures that have a present superset, on top of the
//! sort into canonical order. It is the one minimiser the engine's sink, the
//! parallel merge and the join preparations share; the quadratic
//! [`crate::xrel::minimize`] and [`super::naive::minimal`] stay as the
//! oracle the differential tests compare it with.
//!
//! **Subsumption probes** against a fixed relation (difference, containment,
//! division) go through [`TupleIndex`], an inverted index from non-null
//! cells `(attribute, value)` to the ascending list of tuples containing
//! them. The indexed tuples more informative than `t` are the intersection
//! of the posting lists of `t`'s cells, walked from the shortest list.
//!
//! Benchmark **E9** compares these implementations against the
//! [`super::naive`] reference on synthetic workloads.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use crate::tuple::Tuple;
use crate::universe::AttrId;
use crate::value::Value;
use crate::xrel::XRelation;

/// An inverted index from non-null cells to the tuples that contain them.
///
/// The index also remembers the full tuple list so dominance candidates can
/// be verified and so `dominates`-style queries can answer "which tuples are
/// more informative than `t`" without rescanning the relation.
#[derive(Debug, Clone)]
pub struct TupleIndex {
    tuples: Vec<Tuple>,
    /// Per cell, the indices of the tuples holding it: ascending, because
    /// `build` visits the tuples in order.
    postings: HashMap<(AttrId, Value), Vec<usize>>,
}

impl TupleIndex {
    /// Builds an index over the given tuples.
    pub fn build(tuples: &[Tuple]) -> Self {
        let mut postings: HashMap<(AttrId, Value), Vec<usize>> = HashMap::new();
        for (i, t) in tuples.iter().enumerate() {
            for (attr, value) in t.cells() {
                postings.entry((attr, value.clone())).or_default().push(i);
            }
        }
        TupleIndex {
            tuples: tuples.to_vec(),
            postings,
        }
    }

    /// The number of indexed tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if the index holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The indexed tuples, in build order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// The posting lists of `t`'s cells, shortest first; `None` when some
    /// cell occurs in no indexed tuple. Empty for the null tuple.
    fn posting_lists(&self, t: &Tuple) -> Option<Vec<&[usize]>> {
        let mut lists = Vec::with_capacity(t.defined_len());
        for (attr, value) in t.cells() {
            lists.push(self.postings.get(&(attr, value.clone()))?.as_slice());
        }
        if let Some(shortest) = (0..lists.len()).min_by_key(|&i| lists[i].len()) {
            lists.swap(0, shortest);
        }
        Some(lists)
    }

    /// Returns the indices of indexed tuples that are **more informative
    /// than** `t` (i.e. dominate it, `r ≥ t`), ascending: the members of the
    /// shortest posting list of `t`'s cells that binary search finds in
    /// every other one. For the null tuple every indexed tuple dominates it.
    pub fn dominators(&self, t: &Tuple) -> Vec<usize> {
        let Some(lists) = self.posting_lists(t) else {
            return Vec::new();
        };
        match lists.split_first() {
            None => (0..self.tuples.len()).collect(),
            Some((shortest, rest)) => shortest
                .iter()
                .copied()
                .filter(|i| in_all(rest, *i))
                .collect(),
        }
    }

    /// True if some indexed tuple is more informative than `t`
    /// (x-membership, Proposition 4.2).
    pub fn x_contains(&self, t: &Tuple) -> bool {
        let Some(lists) = self.posting_lists(t) else {
            return false;
        };
        match lists.split_first() {
            None => !self.tuples.is_empty(),
            Some((shortest, rest)) => shortest.iter().any(|i| in_all(rest, *i)),
        }
    }
}

/// True if every ascending list holds `i`.
fn in_all(lists: &[&[usize]], i: usize) -> bool {
    lists.iter().all(|list| list.binary_search(&i).is_ok())
}

/// A tuple seen through the attributes `on`, all of which it defines: equal
/// and hashed on those cells alone, so a tuple of signature `on` and a more
/// informative tuple that agrees with it collide.
struct Restricted<'a> {
    tuple: &'a Tuple,
    on: &'a [AttrId],
}

impl Restricted<'_> {
    fn cells(&self) -> impl Iterator<Item = Option<&Value>> + '_ {
        self.on.iter().map(|attr| self.tuple.get(*attr))
    }
}

impl PartialEq for Restricted<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cells().eq(other.cells())
    }
}

impl Eq for Restricted<'_> {}

impl Hash for Restricted<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for cell in self.cells() {
            cell.hash(state);
        }
    }
}

/// The distinct non-null tuples in canonical sorted order: the first step of
/// [`minimal`], and what a caller holds at once while it reduces. The
/// canonical order is owed anyway, and it puts equal tuples side by side, so
/// they collapse without a table of their own. Sorted input costs one linear
/// pass, and inputs of at most one tuple return without allocating.
pub fn distinct(mut tuples: Vec<Tuple>) -> Vec<Tuple> {
    tuples.retain(|t| !t.is_null_tuple());
    if tuples.len() > 1 {
        tuples.sort();
        tuples.dedup();
    }
    tuples
}

/// Reduces tuples to minimal form (Definition 4.6) — no null tuple, no
/// duplicate, no tuple strictly less informative than another — in canonical
/// sorted order, by the signature partitioning the module doc describes.
///
/// Inputs of at most one tuple return without allocating. Probing a bucket
/// against *every* tuple of a superset signature, dropped or not, is sound
/// because domination is transitive: whatever dominates a dropped tuple
/// dominates the tuples below it too.
pub fn minimal(tuples: Vec<Tuple>) -> Vec<Tuple> {
    let mut tuples = distinct(tuples);
    if tuples.len() < 2 {
        return tuples;
    }
    let mut buckets: HashMap<Vec<AttrId>, Vec<usize>> = HashMap::new();
    let mut signature: Vec<AttrId> = Vec::new();
    for (i, t) in tuples.iter().enumerate() {
        signature.clear();
        signature.extend(t.cells().map(|(attr, _)| attr));
        match buckets.get_mut(signature.as_slice()) {
            Some(bucket) => bucket.push(i),
            None => {
                buckets.insert(signature.clone(), vec![i]);
            }
        }
    }
    let mut dominated = vec![false; tuples.len()];
    for (on, bucket) in &buckets {
        for (wider, candidates) in &buckets {
            let strict_superset =
                on.len() < wider.len() && on.iter().all(|a| wider.binary_search(a).is_ok());
            if !strict_superset {
                continue;
            }
            let restricted = |i: &usize| Restricted {
                tuple: &tuples[*i],
                on,
            };
            let table: HashSet<Restricted<'_>> = candidates.iter().map(restricted).collect();
            for i in bucket {
                dominated[*i] = dominated[*i] || table.contains(&restricted(i));
            }
        }
    }
    let mut dominated = dominated.into_iter();
    tuples.retain(|_| !dominated.next().expect("one flag per tuple"));
    tuples
}

/// Merges per-partition antichains into the single global antichain their
/// union minimises to — the reduction step of a partitioned `Minimize`.
///
/// Each input part must itself be an antichain (no null tuple, no tuple
/// dominated by another tuple *of the same part*); debug builds verify the
/// claim. Parallel runtimes produce exactly this shape: every worker
/// reduces its morsel locally, and only tuples from *different* parts can
/// still dominate one another. The merge is [`minimal`] over the
/// concatenation of the parts, which collapses the cross-part duplicates
/// and drops every tuple a tuple of another part dominates.
///
/// **Correctness.** Minimisation is determined by the *set* of input
/// tuples, not by any partitioning of it: `⌈R⌉` keeps exactly the tuples of
/// `R` that no other tuple of `R` strictly dominates. A local reduction
/// can only drop tuples that are dominated by another input tuple — tuples
/// the global reduction drops as well — and domination is transitive, so
/// the local survivor that witnessed the drop either survives globally or
/// is itself dominated by a global survivor. Hence
/// `merge_antichains(partition(R)) = minimal(R)` for **every** partitioning
/// of `R`, including the trivial one (`k = 1`, where nothing is left to
/// drop). The parallel-runtime proptests exercise this equality
/// over arbitrary partitionings in both truth bands.
pub fn merge_antichains(parts: Vec<Vec<Tuple>>) -> Vec<Tuple> {
    debug_assert!(
        parts.iter().all(|p| crate::xrel::is_antichain(p)),
        "merge_antichains called with a non-antichain part"
    );
    minimal(parts.into_iter().flatten().collect())
}

/// Union per (4.6), hash-accelerated.
pub fn union(a: &XRelation, b: &XRelation) -> XRelation {
    let mut tuples: Vec<Tuple> = Vec::with_capacity(a.len() + b.len());
    tuples.extend(a.tuples().iter().cloned());
    tuples.extend(b.tuples().iter().cloned());
    XRelation::from_minimal_unchecked(minimal(tuples))
}

/// X-intersection per (4.7). The pairwise meet computation is inherently
/// `O(|R₁| · |R₂|)`, but duplicate meets are collapsed eagerly through a hash
/// set and the final minimisation uses the cell index.
pub fn x_intersection(a: &XRelation, b: &XRelation) -> XRelation {
    let mut seen: HashMap<Tuple, ()> = HashMap::new();
    for r1 in a.tuples() {
        for r2 in b.tuples() {
            let m = r1.meet(r2);
            if m.is_null_tuple() {
                continue;
            }
            if let Entry::Vacant(e) = seen.entry(m) {
                e.insert(());
            }
        }
    }
    let meets: Vec<Tuple> = seen.into_keys().collect();
    XRelation::from_minimal_unchecked(minimal(meets))
}

/// Difference per (4.8), using an index over the subtrahend.
pub fn difference(a: &XRelation, b: &XRelation) -> XRelation {
    let index = TupleIndex::build(b.tuples());
    let survivors: Vec<Tuple> = a
        .tuples()
        .iter()
        .filter(|r| !index.x_contains(r))
        .cloned()
        .collect();
    XRelation::from_minimal_unchecked(survivors)
}

/// Containment `a ⊒ b` using an index over the container.
pub fn contains(a: &XRelation, b: &XRelation) -> bool {
    let index = TupleIndex::build(a.tuples());
    b.tuples().iter().all(|t| index.x_contains(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::naive;
    use crate::universe::{AttrId, Universe};
    use crate::value::Value;

    fn setup() -> (Universe, AttrId, AttrId, AttrId) {
        let mut u = Universe::new();
        let s = u.intern("S#");
        let p = u.intern("P#");
        let q = u.intern("QTY");
        (u, s, p, q)
    }

    fn sp(s_attr: AttrId, p_attr: AttrId, s: Option<&str>, p: Option<&str>) -> Tuple {
        Tuple::new()
            .with_opt(s_attr, s.map(Value::str))
            .with_opt(p_attr, p.map(Value::str))
    }

    #[test]
    fn index_finds_dominators() {
        let (_u, s, p, _q) = setup();
        let tuples = vec![
            sp(s, p, Some("s1"), Some("p1")),
            sp(s, p, Some("s2"), Some("p1")),
            sp(s, p, Some("s1"), None),
        ];
        let index = TupleIndex::build(&tuples);
        assert_eq!(index.len(), 3);
        assert!(!index.is_empty());
        // (s1, −) is dominated by tuple 0 and by itself (tuple 2).
        let doms = index.dominators(&sp(s, p, Some("s1"), None));
        assert_eq!(doms.len(), 2);
        // (−, p1) is dominated by tuples 0 and 1.
        assert_eq!(index.dominators(&sp(s, p, None, Some("p1"))).len(), 2);
        // (s3, −) has no dominator.
        assert!(index.dominators(&sp(s, p, Some("s3"), None)).is_empty());
        // The null tuple is dominated by everything.
        assert_eq!(index.dominators(&Tuple::new()).len(), 3);
        // x_contains mirrors dominators.
        assert!(index.x_contains(&sp(s, p, None, Some("p1"))));
        assert!(!index.x_contains(&sp(s, p, Some("s9"), None)));
    }

    #[test]
    fn hashed_minimal_matches_naive() {
        let (_u, s, p, q) = setup();
        let tuples = vec![
            sp(s, p, Some("s1"), Some("p1")),
            sp(s, p, Some("s1"), None),
            sp(s, p, None, Some("p1")),
            sp(s, p, Some("s2"), None),
            Tuple::new(),
            Tuple::new().with(q, Value::int(5)),
            sp(s, p, Some("s1"), Some("p1")).with(q, Value::int(5)),
        ];
        let mut a = minimal(tuples.clone());
        let mut b = naive::minimal(tuples);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn hashed_ops_match_naive_on_ps_example() {
        let (_u, s, p, _q) = setup();
        let ps1 =
            XRelation::from_tuples([sp(s, p, Some("s1"), None), sp(s, p, Some("s2"), Some("p1"))]);
        let ps2 = XRelation::from_tuples([
            sp(s, p, Some("s1"), None),
            sp(s, p, Some("s2"), Some("p1")),
            sp(s, p, Some("s2"), Some("p2")),
        ]);
        assert_eq!(union(&ps1, &ps2), naive::union(&ps1, &ps2));
        assert_eq!(
            x_intersection(&ps1, &ps2),
            naive::x_intersection(&ps1, &ps2)
        );
        assert_eq!(difference(&ps2, &ps1), naive::difference(&ps2, &ps1));
        assert_eq!(difference(&ps1, &ps2), naive::difference(&ps1, &ps2));
        assert_eq!(contains(&ps2, &ps1), naive::contains(&ps2, &ps1));
        assert_eq!(contains(&ps1, &ps2), naive::contains(&ps1, &ps2));
    }

    #[test]
    fn merge_antichains_equals_serial_minimal() {
        let (_u, s, p, q) = setup();
        let tuples = vec![
            sp(s, p, Some("s1"), Some("p1")),
            sp(s, p, Some("s1"), None),
            sp(s, p, None, Some("p1")),
            sp(s, p, Some("s2"), None),
            Tuple::new().with(q, Value::int(5)),
            sp(s, p, Some("s1"), Some("p1")).with(q, Value::int(5)),
            sp(s, p, Some("s3"), Some("p2")),
        ];
        let serial = minimal(tuples.clone());
        // Every contiguous 2-way split, locally reduced then merged.
        for cut in 0..=tuples.len() {
            let parts = vec![
                minimal(tuples[..cut].to_vec()),
                minimal(tuples[cut..].to_vec()),
            ];
            assert_eq!(merge_antichains(parts), serial, "cut at {cut}");
        }
        // Round-robin k-way splits.
        for k in 1..=4 {
            let mut parts: Vec<Vec<Tuple>> = vec![Vec::new(); k];
            for (i, t) in tuples.iter().enumerate() {
                parts[i % k].push(t.clone());
            }
            let parts: Vec<Vec<Tuple>> = parts.into_iter().map(minimal).collect();
            assert_eq!(merge_antichains(parts), serial, "{k}-way split");
        }
    }

    #[test]
    fn merge_antichains_collapses_cross_part_duplicates_and_domination() {
        let (_u, s, p, _q) = setup();
        let dominating = sp(s, p, Some("s1"), Some("p1"));
        let dominated = sp(s, p, Some("s1"), None);
        // Each part is an antichain on its own; only the merge can see that
        // part 1's tuple subsumes part 0's, and that the duplicate in part 2
        // must collapse.
        let merged = merge_antichains(vec![
            vec![dominated.clone()],
            vec![dominating.clone()],
            vec![dominating.clone()],
        ]);
        assert_eq!(merged, vec![dominating]);
        // Degenerate shapes.
        assert_eq!(merge_antichains(Vec::new()), Vec::<Tuple>::new());
        assert_eq!(
            merge_antichains(vec![vec![dominated.clone()]]),
            vec![dominated]
        );
    }

    #[test]
    fn duplicate_tuples_survive_minimisation_once() {
        let (_u, s, p, _q) = setup();
        let t = sp(s, p, Some("s1"), Some("p1"));
        let min = minimal(vec![t.clone(), t.clone(), t.clone()]);
        assert_eq!(min.len(), 1);
    }

    #[test]
    fn difference_against_empty_is_identity() {
        let (_u, s, p, _q) = setup();
        let r = XRelation::from_tuples([sp(s, p, Some("s1"), None)]);
        assert_eq!(difference(&r, &XRelation::empty()), r);
        assert!(difference(&XRelation::empty(), &r).is_empty());
    }

    #[test]
    fn contains_on_empty_relations() {
        let (_u, s, p, _q) = setup();
        let r = XRelation::from_tuples([sp(s, p, Some("s1"), None)]);
        assert!(contains(&r, &XRelation::empty()));
        assert!(!contains(&XRelation::empty(), &r));
        assert!(contains(&XRelation::empty(), &XRelation::empty()));
    }
}
