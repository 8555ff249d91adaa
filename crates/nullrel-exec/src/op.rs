//! The physical operators: pull-based pipeline stages over tuples.
//!
//! Every operator implements [`TupleStream`] and owns an
//! [`OpStats`] slot shared with the enclosing
//! [`crate::Pipeline`]. Operators obey the paper's lower-bound discipline:
//! a row travels the pipeline only while its qualification can still become
//! TRUE, and rows that fall into the `ni` band are counted, not silently
//! dropped.
//!
//! * [`ScanOp`] — rows from an access path (full scan, index probe, or a
//!   literal x-relation).
//! * [`FilterOp`] — three-valued predicate evaluation keeping a requested
//!   truth band (TRUE for normal queries, `ni` for the MAYBE band).
//! * [`HashJoinOp`] — equality join: builds a hash table on the right input
//!   keyed by [`Tuple::key_on`], probes with the left input. Null-keyed rows
//!   on either side are `ni` under the paper's semantics and never match.
//! * [`IndexNestedLoopJoinOp`] — equality join that probes a storage index
//!   on the inner base relation per outer row; chosen by the cost-based
//!   planner when the outer side is estimated small.
//! * [`ProductOp`] — Cartesian product for predicate-less range pairs.
//! * [`RenameOp`] — attribute renaming over an arbitrary sub-plan, with the
//!   same streamed injectivity check as the relation-level rename.
//! * [`UnionOp`] — lattice union (4.6): concatenates both inputs; the
//!   [`MinimizeOp`] sink performs the `⌈…⌉` reduction.
//! * [`DifferenceOp`] — lattice difference (4.8): filters the left input
//!   through an inverted-cell subsumption index over the right input.
//! * [`IntersectOp`] — lattice x-intersection (4.7): pairwise tuple meets of
//!   the left stream against the materialised right input.
//! * [`EquiJoinOp`] / [`UnionJoinOp`] — the equijoin `R₁(·X)R₂` and the
//!   information-preserving union-join `R₁(∗X)R₂` (Section 5): a hash
//!   equijoin on the normalized `X`-key; the union-join additionally emits
//!   the dangling (non-participating) tuples of both sides.
//! * [`DivisionOp`] — the Y-quotient `R̂(÷Y)Ŝ` (Section 6), hash-grouped on
//!   the quotient attributes with an indexed x-membership check.
//! * [`MinimizeOp`] — the sink: drains its input and reduces it to the
//!   canonical minimal x-relation representation (an antichain under the
//!   information ordering) with the signature-hashed minimiser.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::rc::Rc;

use nullrel_core::algebra::{equijoin_parts, normalize_on, ChainStream, TupleStream};
use nullrel_core::error::{CoreError, CoreResult};
use nullrel_core::lattice::hashed::{distinct, minimal, TupleIndex};
use nullrel_core::predicate::Predicate;
use nullrel_core::tuple::Tuple;
use nullrel_core::tvl::Truth;
use nullrel_core::universe::{AttrId, AttrSet};
use nullrel_core::value::Value;

use crate::stats::{approx_tuple_bytes, OpStats};

/// A shared statistics slot.
pub type StatsSlot = Rc<RefCell<OpStats>>;

/// A boxed pipeline stage, allowed to borrow the execution source
/// (index-nested-loop joins probe storage indexes while running).
pub type BoxedOp<'a> = Box<dyn TupleStream + 'a>;

/// Wall-clock instrumentation wrapper: times every `next_tuple` pull of
/// the wrapped operator into its stats slot's
/// [`elapsed`](crate::stats::OpStats::elapsed).
///
/// The recorded time is **inclusive** of the subtree below (a pull
/// recurses through the children); `ExecStats::self_time` subtracts the
/// direct children back out at render time. The compiler inserts this
/// wrapper only while `nullrel-obs` timing is armed (`EXPLAIN ANALYZE`),
/// so ordinary runs — including runs with plain tracing enabled — never
/// pay the two clock reads per tuple.
pub struct TimedOp<'a> {
    inner: BoxedOp<'a>,
    stats: StatsSlot,
}

impl<'a> TimedOp<'a> {
    /// Wraps `inner`, accumulating pull time into `stats`.
    pub fn new(inner: BoxedOp<'a>, stats: StatsSlot) -> Self {
        TimedOp { inner, stats }
    }
}

impl TupleStream for TimedOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        let start = std::time::Instant::now();
        let out = self.inner.next_tuple();
        self.stats.borrow_mut().elapsed += start.elapsed();
        out
    }
}

/// Rows from an access path, counted as they stream out.
pub struct ScanOp {
    rows: std::vec::IntoIter<Tuple>,
    count_pulls: bool,
    stats: StatsSlot,
}

impl ScanOp {
    /// A scan over pre-fetched rows. The caller is expected to have folded
    /// the storage-level [`ScanStats`](nullrel_storage::scan::ScanStats)
    /// into the slot already (see [`OpStats::absorb_scan`]) — the storage
    /// layer really did examine those rows to materialise them.
    pub fn new(rows: Vec<Tuple>, stats: StatsSlot) -> Self {
        ScanOp {
            rows: rows.into_iter(),
            count_pulls: false,
            stats,
        }
    }

    /// A scan over rows with no storage access path behind them (literal
    /// x-relations embedded in the plan). `rows_in` is counted as rows are
    /// pulled, so the stats reflect actual work under early-terminating
    /// consumers instead of a pre-set cardinality.
    pub fn counting(rows: Vec<Tuple>, stats: StatsSlot) -> Self {
        ScanOp {
            rows: rows.into_iter(),
            count_pulls: true,
            stats,
        }
    }
}

impl TupleStream for ScanOp {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        let next = self.rows.next();
        if next.is_some() {
            let mut stats = self.stats.borrow_mut();
            if self.count_pulls {
                stats.rows_in += 1;
            }
            stats.rows_out += 1;
        }
        Ok(next)
    }
}

/// Three-valued selection keeping one truth band.
pub struct FilterOp<'a> {
    input: BoxedOp<'a>,
    predicate: Predicate,
    want: Truth,
    stats: StatsSlot,
}

impl<'a> FilterOp<'a> {
    /// A filter keeping rows whose predicate evaluates to `want`.
    pub fn new(input: BoxedOp<'a>, predicate: Predicate, want: Truth, stats: StatsSlot) -> Self {
        FilterOp {
            input,
            predicate,
            want,
            stats,
        }
    }
}

impl TupleStream for FilterOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        while let Some(t) = self.input.next_tuple()? {
            let mut stats = self.stats.borrow_mut();
            stats.rows_in += 1;
            let truth = self.predicate.eval(&t)?;
            if truth.is_ni() {
                stats.ni_rows += 1;
            }
            if truth == self.want {
                stats.rows_out += 1;
                return Ok(Some(t));
            }
        }
        Ok(None)
    }
}

/// Projection onto an attribute set. Duplicates and newly subsumed tuples
/// are left for the [`MinimizeOp`] sink.
pub struct ProjectOp<'a> {
    input: BoxedOp<'a>,
    attrs: AttrSet,
    stats: StatsSlot,
}

impl<'a> ProjectOp<'a> {
    /// A projection keeping the cells of `attrs`.
    pub fn new(input: BoxedOp<'a>, attrs: AttrSet, stats: StatsSlot) -> Self {
        ProjectOp {
            input,
            attrs,
            stats,
        }
    }
}

impl TupleStream for ProjectOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        match self.input.next_tuple()? {
            Some(t) => {
                let mut stats = self.stats.borrow_mut();
                stats.rows_in += 1;
                stats.rows_out += 1;
                Ok(Some(t.project(&self.attrs)))
            }
            None => Ok(None),
        }
    }
}

/// The key a hash operator groups on: cell values normalised through
/// [`Value::join_key`] so that numerically equal values collide, matching
/// the domain-aware equality of [`Value::compare`].
fn normalize_key(key: Vec<Value>) -> Vec<Value> {
    key.into_iter().map(|v| v.join_key()).collect()
}

/// Equality hash join. The right input is the build side, the left input
/// the probe side; their scopes must be disjoint (the planner guarantees
/// this), so every matching pair joins.
pub struct HashJoinOp<'a> {
    left: BoxedOp<'a>,
    right: Option<BoxedOp<'a>>,
    left_keys: Vec<AttrId>,
    right_keys: Vec<AttrId>,
    table: HashMap<Vec<Value>, Vec<Tuple>>,
    pending: VecDeque<Tuple>,
    stats: StatsSlot,
}

impl<'a> HashJoinOp<'a> {
    /// A hash join on `left_keys[i] = right_keys[i]` pairs.
    pub fn new(
        left: BoxedOp<'a>,
        right: BoxedOp<'a>,
        left_keys: Vec<AttrId>,
        right_keys: Vec<AttrId>,
        stats: StatsSlot,
    ) -> Self {
        assert_eq!(left_keys.len(), right_keys.len(), "key lists must pair up");
        assert!(!left_keys.is_empty(), "hash join needs at least one key");
        HashJoinOp {
            left,
            right: Some(right),
            left_keys,
            right_keys,
            table: HashMap::new(),
            pending: VecDeque::new(),
            stats,
        }
    }

    fn build(&mut self) -> CoreResult<()> {
        let Some(mut right) = self.right.take() else {
            return Ok(());
        };
        let mut mem_bytes = 0usize;
        while let Some(t) = right.next_tuple()? {
            let mut stats = self.stats.borrow_mut();
            stats.build_rows += 1;
            match t.key_on(&self.right_keys) {
                Some(key) => {
                    mem_bytes += approx_tuple_bytes(&t);
                    match self.table.entry(normalize_key(key)) {
                        Entry::Occupied(mut e) => e.get_mut().push(t),
                        Entry::Vacant(e) => {
                            e.insert(vec![t]);
                        }
                    }
                }
                // A null join key can never satisfy the equality for sure:
                // the row belongs to the ni band of the join predicate.
                None => stats.ni_rows += 1,
            }
        }
        let rows = self.table.values().map(Vec::len).sum();
        self.stats.borrow_mut().note_mem(rows, mem_bytes);
        Ok(())
    }
}

impl TupleStream for HashJoinOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        self.build()?;
        loop {
            if let Some(t) = self.pending.pop_front() {
                self.stats.borrow_mut().rows_out += 1;
                return Ok(Some(t));
            }
            let Some(probe) = self.left.next_tuple()? else {
                return Ok(None);
            };
            let mut stats = self.stats.borrow_mut();
            stats.rows_in += 1;
            let Some(key) = probe.key_on(&self.left_keys) else {
                stats.ni_rows += 1;
                continue;
            };
            if let Some(matches) = self.table.get(&normalize_key(key)) {
                drop(stats);
                for m in matches {
                    let joined = probe.join(m).ok_or_else(|| {
                        CoreError::Invariant("hash join inputs must have disjoint scopes".into())
                    })?;
                    self.pending.push_back(joined);
                }
            }
        }
    }
}

/// Index-nested-loop join: streams the outer input and, for every outer
/// row, probes a storage index on the inner base relation through
/// [`ExecSource::index_probe`](crate::ExecSource::index_probe).
///
/// The cost-based planner picks this operator over [`HashJoinOp`] when an
/// index covers the inner join key and the outer side is estimated small:
/// the inner relation is then never scanned or materialised at all — total
/// work is proportional to the outer cardinality times the index fan-out,
/// not to the inner table size. Probe keys travel through the same
/// [`Value::join_key`] normalization as hash joins, and an outer row with
/// a null key is counted into the `ni` band and never matches, exactly as
/// the paper's lower-bound discipline demands.
pub struct IndexNestedLoopJoinOp<'a, S> {
    source: &'a S,
    table: String,
    base_attrs: Vec<AttrId>,
    /// Base → qualified renaming of the probed rows (range-variable scans).
    mapping: Option<BTreeMap<AttrId, AttrId>>,
    outer: BoxedOp<'a>,
    outer_keys: Vec<AttrId>,
    pending: VecDeque<Tuple>,
    stats: StatsSlot,
}

impl<'a, S: crate::source::ExecSource> IndexNestedLoopJoinOp<'a, S> {
    /// An index-nested-loop join probing `table`'s index over `base_attrs`
    /// with the `outer_keys` cells of each outer row.
    pub fn new(
        source: &'a S,
        table: impl Into<String>,
        base_attrs: Vec<AttrId>,
        mapping: Option<BTreeMap<AttrId, AttrId>>,
        outer: BoxedOp<'a>,
        outer_keys: Vec<AttrId>,
        stats: StatsSlot,
    ) -> Self {
        assert_eq!(
            base_attrs.len(),
            outer_keys.len(),
            "probe keys must pair up with the indexed columns"
        );
        IndexNestedLoopJoinOp {
            source,
            table: table.into(),
            base_attrs,
            mapping,
            outer,
            outer_keys,
            pending: VecDeque::new(),
            stats,
        }
    }
}

impl<S: crate::source::ExecSource> TupleStream for IndexNestedLoopJoinOp<'_, S> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        loop {
            if let Some(t) = self.pending.pop_front() {
                self.stats.borrow_mut().rows_out += 1;
                return Ok(Some(t));
            }
            let Some(outer) = self.outer.next_tuple()? else {
                return Ok(None);
            };
            let mut stats = self.stats.borrow_mut();
            stats.rows_in += 1;
            let Some(key) = outer.key_on(&self.outer_keys) else {
                // A null probe key can never satisfy the equality for sure.
                stats.ni_rows += 1;
                continue;
            };
            let Some((rows, scan)) = self.source.index_probe(&self.table, &self.base_attrs, &key)
            else {
                // The planner verified the index at compile time; losing it
                // mid-run is an engine invariant violation, not a miss.
                return Err(CoreError::Invariant(format!(
                    "index-nested-loop join lost the index on {}",
                    self.table
                )));
            };
            stats.absorb_scan(&scan);
            drop(stats);
            for inner in rows {
                let inner = match &self.mapping {
                    Some(m) => inner.rename(m),
                    None => inner,
                };
                let joined = outer.join(&inner).ok_or_else(|| {
                    CoreError::Invariant(
                        "index-nested-loop join inputs must have disjoint scopes".into(),
                    )
                })?;
                self.pending.push_back(joined);
            }
        }
    }
}

/// Cartesian product: materialises the right input once, then streams the
/// left input against it.
pub struct ProductOp<'a> {
    left: BoxedOp<'a>,
    right: Option<BoxedOp<'a>>,
    right_rows: Vec<Tuple>,
    current: Option<Tuple>,
    cursor: usize,
    stats: StatsSlot,
}

impl<'a> ProductOp<'a> {
    /// A product of two disjoint-scope inputs.
    pub fn new(left: BoxedOp<'a>, right: BoxedOp<'a>, stats: StatsSlot) -> Self {
        ProductOp {
            left,
            right: Some(right),
            right_rows: Vec::new(),
            current: None,
            cursor: 0,
            stats,
        }
    }
}

impl TupleStream for ProductOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        if let Some(mut right) = self.right.take() {
            self.right_rows = right.drain_all()?;
        }
        loop {
            if self.current.is_none() {
                match self.left.next_tuple()? {
                    Some(t) => {
                        self.stats.borrow_mut().rows_in += 1;
                        self.current = Some(t);
                        self.cursor = 0;
                    }
                    None => return Ok(None),
                }
            }
            let left = self.current.as_ref().expect("set above");
            if self.cursor < self.right_rows.len() {
                let right = &self.right_rows[self.cursor];
                self.cursor += 1;
                let joined = left.join(right).ok_or_else(|| {
                    CoreError::Invariant("product inputs must have disjoint scopes".into())
                })?;
                self.stats.borrow_mut().rows_out += 1;
                return Ok(Some(joined));
            }
            self.current = None;
        }
    }
}

/// Attribute renaming over an arbitrary sub-plan.
///
/// Mirrors the relation-level [`nullrel_core::algebra::rename()`]: the
/// effective mapping must be injective on the streamed scope, so the
/// operator accumulates every target it has produced and reports a
/// [`CoreError::RenameCollision`] the moment two distinct source attributes
/// land on the same target — even when they come from different tuples.
pub struct RenameOp<'a> {
    input: BoxedOp<'a>,
    mapping: BTreeMap<AttrId, AttrId>,
    claimed: HashMap<AttrId, AttrId>,
    stats: StatsSlot,
}

impl<'a> RenameOp<'a> {
    /// A renaming stage applying `mapping` (source → target) to every tuple.
    pub fn new(input: BoxedOp<'a>, mapping: BTreeMap<AttrId, AttrId>, stats: StatsSlot) -> Self {
        RenameOp {
            input,
            mapping,
            claimed: HashMap::new(),
            stats,
        }
    }
}

impl TupleStream for RenameOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        let Some(t) = self.input.next_tuple()? else {
            return Ok(None);
        };
        let mut stats = self.stats.borrow_mut();
        stats.rows_in += 1;
        for attr in t.defined_attrs() {
            let target = *self.mapping.get(&attr).unwrap_or(&attr);
            match self.claimed.entry(target) {
                Entry::Occupied(e) if *e.get() != attr => {
                    return Err(CoreError::RenameCollision(target));
                }
                Entry::Occupied(_) => {}
                Entry::Vacant(e) => {
                    e.insert(attr);
                }
            }
        }
        stats.rows_out += 1;
        Ok(Some(t.rename(&self.mapping)))
    }
}

/// Lattice union (4.6): every tuple of the left input, then every tuple of
/// the right input (a counted [`ChainStream`]). The `⌈…⌉` reduction to
/// minimal form is exactly what the [`MinimizeOp`] sink does, so the
/// operator itself is a pure pass-through and never materialises anything.
pub struct UnionOp<'a> {
    inner: ChainStream<BoxedOp<'a>, BoxedOp<'a>>,
    stats: StatsSlot,
}

impl<'a> UnionOp<'a> {
    /// A streaming union of two inputs.
    pub fn new(left: BoxedOp<'a>, right: BoxedOp<'a>, stats: StatsSlot) -> Self {
        UnionOp {
            inner: ChainStream::new(left, right),
            stats,
        }
    }
}

impl TupleStream for UnionOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        let next = self.inner.next_tuple()?;
        if next.is_some() {
            let mut stats = self.stats.borrow_mut();
            stats.rows_in += 1;
            stats.rows_out += 1;
        }
        Ok(next)
    }
}

/// Lattice difference (4.8): keeps the left tuples dominated by no right
/// tuple. The right input is materialised once into an inverted-cell
/// [`TupleIndex`], so each left tuple costs one subsumption probe instead of
/// a scan of the subtrahend. Sound on any input representation: domination
/// is monotone downward, so a dominated tuple's subsumees are dominated too.
pub struct DifferenceOp<'a> {
    left: BoxedOp<'a>,
    right: Option<BoxedOp<'a>>,
    index: Option<TupleIndex>,
    stats: StatsSlot,
}

impl<'a> DifferenceOp<'a> {
    /// A streaming difference `left − right`.
    pub fn new(left: BoxedOp<'a>, right: BoxedOp<'a>, stats: StatsSlot) -> Self {
        DifferenceOp {
            left,
            right: Some(right),
            index: None,
            stats,
        }
    }
}

impl TupleStream for DifferenceOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        if let Some(mut right) = self.right.take() {
            let rows = right.drain_all()?;
            let mut stats = self.stats.borrow_mut();
            stats.build_rows += rows.len();
            stats.note_mem(rows.len(), rows.iter().map(approx_tuple_bytes).sum());
            drop(stats);
            self.index = Some(TupleIndex::build(&rows));
        }
        let index = self.index.as_ref().expect("built above");
        while let Some(t) = self.left.next_tuple()? {
            let mut stats = self.stats.borrow_mut();
            stats.rows_in += 1;
            if !index.x_contains(&t) {
                stats.rows_out += 1;
                return Ok(Some(t));
            }
        }
        Ok(None)
    }
}

/// Lattice x-intersection (4.7): the pairwise tuple meets `r₁ ∧ r₂`. The
/// right input is materialised once; each left tuple streams its meets out
/// (null meets are dropped — they carry no information), and the sink
/// minimises. Meets are monotone, so any input representation yields the
/// same x-relation.
pub struct IntersectOp<'a> {
    left: BoxedOp<'a>,
    right: Option<BoxedOp<'a>>,
    right_rows: Vec<Tuple>,
    pending: VecDeque<Tuple>,
    stats: StatsSlot,
}

impl<'a> IntersectOp<'a> {
    /// A streaming x-intersection of two inputs.
    pub fn new(left: BoxedOp<'a>, right: BoxedOp<'a>, stats: StatsSlot) -> Self {
        IntersectOp {
            left,
            right: Some(right),
            right_rows: Vec::new(),
            pending: VecDeque::new(),
            stats,
        }
    }
}

impl TupleStream for IntersectOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        if let Some(mut right) = self.right.take() {
            self.right_rows = right.drain_all()?;
            let mut stats = self.stats.borrow_mut();
            stats.build_rows += self.right_rows.len();
            stats.note_mem(
                self.right_rows.len(),
                self.right_rows.iter().map(approx_tuple_bytes).sum(),
            );
        }
        loop {
            if let Some(t) = self.pending.pop_front() {
                self.stats.borrow_mut().rows_out += 1;
                return Ok(Some(t));
            }
            let Some(t) = self.left.next_tuple()? else {
                return Ok(None);
            };
            self.stats.borrow_mut().rows_in += 1;
            for r in &self.right_rows {
                let m = t.meet(r);
                if !m.is_null_tuple() {
                    self.pending.push_back(m);
                }
            }
        }
    }
}

/// Runs the shared hash-equijoin core over two drained inputs.
///
/// Both inputs are reduced to minimal form first: the equijoin (and hence
/// the union-join) is sensitive to the representation when the operand
/// scopes overlap beyond `X` — a dominated tuple can be joinable where its
/// dominator conflicts — and the algebra defines the operators on the
/// canonical minimal representation.
fn drained_equijoin(
    left: &mut BoxedOp<'_>,
    right: &mut BoxedOp<'_>,
    on: &AttrSet,
    keep_dangling: bool,
    stats: &StatsSlot,
) -> CoreResult<VecDeque<Tuple>> {
    let right_raw = right.drain_all()?;
    let left_raw = left.drain_all()?;
    {
        let mut s = stats.borrow_mut();
        s.build_rows += right_raw.len();
        s.rows_in += left_raw.len();
        // Both sides are held materialized at once while the join runs.
        s.note_mem(
            left_raw.len() + right_raw.len(),
            left_raw
                .iter()
                .chain(&right_raw)
                .map(approx_tuple_bytes)
                .sum(),
        );
    }
    let right_rows = minimal(right_raw);
    let left_rows = minimal(left_raw);
    {
        // Rows without a total X-key can never join for sure: they are the
        // ni band of the join qualification (the union-join keeps them as
        // dangling tuples; the equijoin drops them).
        let mut s = stats.borrow_mut();
        s.ni_rows += left_rows.iter().filter(|t| !t.is_total_on(on)).count();
        s.ni_rows += right_rows.iter().filter(|t| !t.is_total_on(on)).count();
    }
    let parts = equijoin_parts(&left_rows, &right_rows, on)?;
    let mut out: VecDeque<Tuple> = parts.joined.into();
    if keep_dangling {
        for t in &left_rows {
            if !parts.left_participants.contains(&normalize_on(t, on)) {
                out.push_back(t.clone());
            }
        }
        for t in &right_rows {
            if !parts.right_participants.contains(&normalize_on(t, on)) {
                out.push_back(t.clone());
            }
        }
    }
    Ok(out)
}

/// The equijoin `R₁(·X)R₂` on a **shared** attribute set: a hash join on
/// the normalized `X`-key whose operand scopes may overlap beyond `X`
/// (candidate pairs must additionally be joinable). Compare [`HashJoinOp`],
/// which joins disjoint scopes on attribute *pairs*.
pub struct EquiJoinOp<'a> {
    left: Option<BoxedOp<'a>>,
    right: Option<BoxedOp<'a>>,
    on: AttrSet,
    pending: VecDeque<Tuple>,
    stats: StatsSlot,
}

impl<'a> EquiJoinOp<'a> {
    /// An equijoin of two inputs on the shared attributes `on`.
    pub fn new(left: BoxedOp<'a>, right: BoxedOp<'a>, on: AttrSet, stats: StatsSlot) -> Self {
        EquiJoinOp {
            left: Some(left),
            right: Some(right),
            on,
            pending: VecDeque::new(),
            stats,
        }
    }
}

impl TupleStream for EquiJoinOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        if let (Some(mut left), Some(mut right)) = (self.left.take(), self.right.take()) {
            self.pending = drained_equijoin(&mut left, &mut right, &self.on, false, &self.stats)?;
        }
        match self.pending.pop_front() {
            Some(t) => {
                self.stats.borrow_mut().rows_out += 1;
                Ok(Some(t))
            }
            None => Ok(None),
        }
    }
}

/// The information-preserving union-join `R₁(∗X)R₂` (Section 5): the hash
/// equijoin on `X` plus a dangling-tuple pass over both sides — every tuple
/// that found no join partner (including the `X`-incomplete ones, whose
/// qualification is `ni`) is emitted unchanged, so no information is lost.
/// The downstream [`MinimizeOp`] sink performs the re-minimisation the
/// paper warns the union-join needs.
pub struct UnionJoinOp<'a> {
    left: Option<BoxedOp<'a>>,
    right: Option<BoxedOp<'a>>,
    on: AttrSet,
    pending: VecDeque<Tuple>,
    stats: StatsSlot,
}

impl<'a> UnionJoinOp<'a> {
    /// A union-join of two inputs on the shared attributes `on`.
    pub fn new(left: BoxedOp<'a>, right: BoxedOp<'a>, on: AttrSet, stats: StatsSlot) -> Self {
        UnionJoinOp {
            left: Some(left),
            right: Some(right),
            on,
            pending: VecDeque::new(),
            stats,
        }
    }
}

impl TupleStream for UnionJoinOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        if let (Some(mut left), Some(mut right)) = (self.left.take(), self.right.take()) {
            self.pending = drained_equijoin(&mut left, &mut right, &self.on, true, &self.stats)?;
        }
        match self.pending.pop_front() {
            Some(t) => {
                self.stats.borrow_mut().rows_out += 1;
                Ok(Some(t))
            }
            None => Ok(None),
        }
    }
}

/// The Y-quotient `R̂(÷Y)Ŝ` (Section 6), computed by the direct
/// characterisation (6.3)/(6.5): a `Y`-total dividend tuple's `Y`-value `y`
/// qualifies iff for every divisor tuple `z` the join `y ∨ z` x-belongs to
/// the dividend.
///
/// Candidates are hash-grouped on the quotient attributes (each distinct
/// `Y`-value is tested once, however many dividend rows carry it), and the
/// x-membership checks probe one inverted-cell [`TupleIndex`] over the
/// dividend instead of rescanning it per check. The divisor's scope must be
/// disjoint from `Y`, exactly as [`nullrel_core::algebra::divide`] demands.
pub struct DivisionOp<'a> {
    input: Option<BoxedOp<'a>>,
    divisor: Option<BoxedOp<'a>>,
    y: AttrSet,
    pending: VecDeque<Tuple>,
    stats: StatsSlot,
}

impl<'a> DivisionOp<'a> {
    /// A division of `input` by `divisor` over the quotient attributes `y`.
    pub fn new(input: BoxedOp<'a>, divisor: BoxedOp<'a>, y: AttrSet, stats: StatsSlot) -> Self {
        DivisionOp {
            input: Some(input),
            divisor: Some(divisor),
            y,
            pending: VecDeque::new(),
            stats,
        }
    }

    fn run(&mut self, mut input: BoxedOp<'a>, mut divisor: BoxedOp<'a>) -> CoreResult<()> {
        let divisor_rows = divisor.drain_all()?;
        self.stats.borrow_mut().build_rows += divisor_rows.len();
        let mut divisor_scope = AttrSet::new();
        for z in &divisor_rows {
            divisor_scope.extend(z.defined_attrs());
        }
        let shared: Vec<AttrId> = self.y.intersection(&divisor_scope).copied().collect();
        if !shared.is_empty() {
            return Err(CoreError::ScopeOverlap { shared });
        }
        let rows = input.drain_all()?;
        // The dividend and divisor are both held materialized while the
        // quotient candidates are tested.
        self.stats.borrow_mut().note_mem(
            rows.len() + divisor_rows.len(),
            rows.iter()
                .chain(&divisor_rows)
                .map(approx_tuple_bytes)
                .sum(),
        );
        // Hash-group the Y-total rows on their quotient value.
        let mut seen: HashSet<Tuple> = HashSet::new();
        let mut candidates: Vec<Tuple> = Vec::new();
        {
            let mut stats = self.stats.borrow_mut();
            for r in &rows {
                stats.rows_in += 1;
                if !r.is_total_on(&self.y) {
                    // A Y-incomplete row can never witness a quotient value
                    // for sure: it is the ni band of the division.
                    stats.ni_rows += 1;
                    continue;
                }
                let y_value = r.project(&self.y);
                if seen.insert(y_value.clone()) {
                    candidates.push(y_value);
                }
            }
        }
        let index = TupleIndex::build(&rows);
        for y_value in candidates {
            let qualifies = divisor_rows.iter().all(|z| {
                y_value
                    .join(z)
                    .is_some_and(|joined| index.x_contains(&joined))
            });
            if qualifies {
                self.pending.push_back(y_value);
            }
        }
        Ok(())
    }
}

impl TupleStream for DivisionOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        if let (Some(input), Some(divisor)) = (self.input.take(), self.divisor.take()) {
            self.run(input, divisor)?;
        }
        match self.pending.pop_front() {
            Some(t) => {
                self.stats.borrow_mut().rows_out += 1;
                Ok(Some(t))
            }
            None => Ok(None),
        }
    }
}

/// The pipeline sink: reduces everything it consumes to the canonical
/// minimal representation (Definition 4.6).
///
/// A pipeline breaker: the input is drained in full, then sorted, deduped
/// ([`distinct`]) and reduced by the signature-hashed [`minimal`]. The emitted
/// rows are an antichain, so the final [`nullrel_core::xrel::XRelation`]
/// can be built without re-minimising.
pub struct MinimizeOp<'a> {
    input: BoxedOp<'a>,
    /// The drained input; once `drained`, the antichain in reverse, so
    /// that `pop` moves the rows out in canonical order.
    rows: Vec<Tuple>,
    drained: bool,
    stats: StatsSlot,
}

impl<'a> MinimizeOp<'a> {
    /// A minimising sink over `input`.
    pub fn new(input: BoxedOp<'a>, stats: StatsSlot) -> Self {
        MinimizeOp {
            input,
            rows: Vec::new(),
            drained: false,
            stats,
        }
    }
}

impl TupleStream for MinimizeOp<'_> {
    fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
        if !self.drained {
            while let Some(t) = self.input.next_tuple()? {
                self.stats.borrow_mut().rows_in += 1;
                self.rows.push(t);
            }
            self.drained = true;
            let _span = nullrel_obs::span("minimize", "pipeline");
            // The high-water mark: the distinct non-null input, all of it
            // held until the reduction has seen the last row. `minimal`
            // finds it sorted, so its own `distinct` is one linear pass.
            let rows = distinct(std::mem::take(&mut self.rows));
            let held_rows = rows.len();
            let held_bytes = rows.iter().map(approx_tuple_bytes).sum();
            let mut kept = minimal(rows);
            let mut stats = self.stats.borrow_mut();
            stats.rows_out = kept.len();
            stats.note_mem(held_rows, held_bytes);
            kept.reverse();
            self.rows = kept;
        }
        Ok(self.rows.pop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nullrel_core::algebra::VecStream;
    use nullrel_core::tvl::CompareOp;
    use nullrel_core::universe::{attr_set, Universe};
    use nullrel_core::xrel::{is_antichain, XRelation};

    fn slot() -> StatsSlot {
        OpStats::slot("test", 0)
    }

    fn setup() -> (Universe, AttrId, AttrId) {
        let mut u = Universe::new();
        let s = u.intern("S#");
        let p = u.intern("P#");
        (u, s, p)
    }

    fn ps_rows(s: AttrId, p: AttrId) -> Vec<Tuple> {
        [
            (Some("s1"), Some("p1")),
            (Some("s1"), Some("p2")),
            (Some("s2"), Some("p1")),
            (Some("s2"), None),
            (Some("s3"), None),
        ]
        .into_iter()
        .map(|(sv, pv)| {
            Tuple::new()
                .with_opt(s, sv.map(Value::str))
                .with_opt(p, pv.map(Value::str))
        })
        .collect()
    }

    #[test]
    fn filter_counts_truth_bands() {
        let (_u, s, p) = setup();
        let stats = slot();
        let mut filter = FilterOp::new(
            Box::new(VecStream::new(ps_rows(s, p))),
            Predicate::attr_const(p, CompareOp::Eq, "p1"),
            Truth::True,
            Rc::clone(&stats),
        );
        let out = filter.drain_all().unwrap();
        assert_eq!(out.len(), 2);
        let st = stats.borrow();
        assert_eq!(st.rows_in, 5);
        assert_eq!(st.rows_out, 2);
        assert_eq!(st.ni_rows, 2, "the two null-P# rows are the maybe band");
    }

    #[test]
    fn filter_can_request_the_maybe_band() {
        let (_u, s, p) = setup();
        let mut filter = FilterOp::new(
            Box::new(VecStream::new(ps_rows(s, p))),
            Predicate::attr_const(p, CompareOp::Eq, "p1"),
            Truth::Ni,
            slot(),
        );
        let out = filter.drain_all().unwrap();
        assert_eq!(out.len(), 2, "rows with null P# may supply p1");
    }

    #[test]
    fn hash_join_skips_null_keys_and_matches_equals() {
        let mut u = Universe::new();
        let a = u.intern("A");
        let b = u.intern("B");
        let left = vec![
            Tuple::new().with(a, Value::int(1)),
            Tuple::new().with(a, Value::int(2)),
            Tuple::new(), // null key: ni, never matches
        ];
        let right = vec![
            Tuple::new().with(b, Value::int(1)),
            Tuple::new().with(b, Value::int(1)),
            Tuple::new().with(b, Value::int(3)),
        ];
        let stats = slot();
        let mut join = HashJoinOp::new(
            Box::new(VecStream::new(left)),
            Box::new(VecStream::new(right)),
            vec![a],
            vec![b],
            Rc::clone(&stats),
        );
        let out = join.drain_all().unwrap();
        assert_eq!(out.len(), 2, "a=1 matches the two b=1 rows");
        let st = stats.borrow();
        assert_eq!(st.build_rows, 3);
        assert_eq!(st.ni_rows, 1);
    }

    #[test]
    fn hash_join_normalises_numeric_keys() {
        let mut u = Universe::new();
        let a = u.intern("A");
        let b = u.intern("B");
        let left = vec![Tuple::new().with(a, Value::int(2))];
        let right = vec![Tuple::new().with(b, Value::float(2.0))];
        let mut join = HashJoinOp::new(
            Box::new(VecStream::new(left)),
            Box::new(VecStream::new(right)),
            vec![a],
            vec![b],
            slot(),
        );
        assert_eq!(
            join.drain_all().unwrap().len(),
            1,
            "Int(2) = Float(2.0) under domain-aware equality"
        );
    }

    /// Regression: the normalization covers the full exact-`i64` float
    /// range, not just |x| < 2⁵³.
    #[test]
    fn hash_join_normalises_large_numeric_keys() {
        let mut u = Universe::new();
        let a = u.intern("A");
        let b = u.intern("B");
        const BIG: i64 = 9_007_199_254_740_992; // 2^53, exactly representable
        let left = vec![Tuple::new().with(a, Value::int(BIG))];
        let right = vec![Tuple::new().with(b, Value::float(BIG as f64))];
        let mut join = HashJoinOp::new(
            Box::new(VecStream::new(left)),
            Box::new(VecStream::new(right)),
            vec![a],
            vec![b],
            slot(),
        );
        assert_eq!(
            join.drain_all().unwrap().len(),
            1,
            "Int(2^53) = Float(2^53) under Value::compare"
        );
    }

    #[test]
    fn index_nested_loop_join_probes_per_outer_row() {
        use nullrel_storage::{Database, SchemaBuilder};
        let mut db = Database::new();
        db.create_table(SchemaBuilder::new("INNER").column("K").column("V"))
            .unwrap();
        let u = db.universe().clone();
        let k = u.lookup("K").unwrap();
        let v = u.lookup("V").unwrap();
        let t = db.table_mut("INNER").unwrap();
        for i in 0..10i64 {
            t.insert_named(&u, &[("K", Value::int(i % 5)), ("V", Value::int(i))])
                .unwrap();
        }
        t.create_index(vec![k]).unwrap();

        let mut u2 = u.clone();
        let a = u2.intern("A");
        let outer = vec![
            Tuple::new().with(a, Value::int(3)),
            Tuple::new().with(a, Value::float(4.0)), // numeric-normalized probe
            Tuple::new(),                            // null key: ni, never matches
            Tuple::new().with(a, Value::int(99)),    // no partner
        ];
        let stats = slot();
        let mut join = IndexNestedLoopJoinOp::new(
            &db,
            "INNER",
            vec![k],
            None,
            Box::new(VecStream::new(outer)),
            vec![a],
            Rc::clone(&stats),
        );
        let out = join.drain_all().unwrap();
        assert_eq!(out.len(), 4, "two matches for K=3 and two for K=4");
        assert!(out
            .iter()
            .all(|t| t.get(a).is_some() && t.get(k).is_some() && t.get(v).is_some()));
        let st = stats.borrow();
        // rows_in counts both inputs: 4 outer pulls + 4 index-examined rows.
        assert_eq!(st.rows_in, 8);
        assert_eq!(st.ni_rows, 1);
        assert!(st.used_index);
        assert_eq!(st.rows_out, 4);

        // Probing a table without the index is an invariant violation.
        let mut db2 = Database::new();
        db2.create_table(SchemaBuilder::new("INNER").column("K").column("V"))
            .unwrap();
        let mut join = IndexNestedLoopJoinOp::new(
            &db2,
            "INNER",
            vec![k],
            None,
            Box::new(VecStream::new(vec![Tuple::new().with(a, Value::int(1))])),
            vec![a],
            slot(),
        );
        assert!(matches!(join.drain_all(), Err(CoreError::Invariant(_))));
    }

    #[test]
    fn product_streams_all_pairs() {
        let mut u = Universe::new();
        let a = u.intern("A");
        let b = u.intern("B");
        let left: Vec<Tuple> = (0..3)
            .map(|i| Tuple::new().with(a, Value::int(i)))
            .collect();
        let right: Vec<Tuple> = (0..2)
            .map(|i| Tuple::new().with(b, Value::int(i)))
            .collect();
        let mut prod = ProductOp::new(
            Box::new(VecStream::new(left)),
            Box::new(VecStream::new(right)),
            slot(),
        );
        assert_eq!(prod.drain_all().unwrap().len(), 6);
    }

    #[test]
    fn minimize_reduces_to_an_antichain() {
        let (_u, s, p) = setup();
        let dominated = Tuple::new().with(s, Value::str("s1"));
        let dominating = Tuple::new()
            .with(s, Value::str("s1"))
            .with(p, Value::str("p1"));
        // Feed dominated before and after the dominating tuple, plus the
        // null tuple and an exact duplicate.
        let rows = vec![
            dominated.clone(),
            dominating.clone(),
            dominated.clone(),
            Tuple::new(),
            dominating.clone(),
        ];
        let stats = slot();
        let mut sink = MinimizeOp::new(Box::new(VecStream::new(rows)), Rc::clone(&stats));
        let out = sink.drain_all().unwrap();
        assert!(is_antichain(&out));
        assert_eq!(
            XRelation::from_antichain(out),
            XRelation::from_tuples([dominating])
        );
        assert_eq!(stats.borrow().rows_in, 5);
        assert_eq!(stats.borrow().rows_out, 1);
        assert_eq!(stats.borrow().mem_rows, 2, "the distinct non-null input");
    }

    /// An upstream error neither loses the rows drained so far nor passes
    /// for the end of an empty result.
    #[test]
    fn minimize_survives_an_upstream_error() {
        struct FailSecond(VecStream, usize);
        impl TupleStream for FailSecond {
            fn next_tuple(&mut self) -> CoreResult<Option<Tuple>> {
                self.1 += 1;
                if self.1 == 2 {
                    return Err(CoreError::Invariant("upstream".into()));
                }
                self.0.next_tuple()
            }
        }
        let (_u, s, p) = setup();
        let stats = slot();
        let input = FailSecond(VecStream::new(ps_rows(s, p)), 0);
        let mut sink = MinimizeOp::new(Box::new(input), Rc::clone(&stats));
        assert!(matches!(sink.next_tuple(), Err(CoreError::Invariant(_))));
        assert_eq!(stats.borrow().rows_in, 1, "the row before the error");
        let out = sink.drain_all().unwrap();
        assert_eq!(out.len(), 4, "only (s2, ni) is subsumed: nothing was lost");
        assert_eq!(stats.borrow().rows_in, 5);
    }

    #[test]
    fn project_then_minimize_collapses_subsumption() {
        let (_u, s, p) = setup();
        let proj = ProjectOp::new(
            Box::new(VecStream::new(ps_rows(s, p))),
            attr_set([s]),
            slot(),
        );
        let mut sink = MinimizeOp::new(Box::new(proj), slot());
        let out = sink.drain_all().unwrap();
        assert_eq!(out.len(), 3, "s1, s2, s3 after duplicate collapse");
    }

    /// Satellite regression: a counting scan reports only the rows actually
    /// pulled, so early-terminating consumers leave honest stats behind.
    #[test]
    fn counting_scan_reports_pulled_rows_only() {
        let (_u, s, p) = setup();
        let stats = slot();
        let mut scan = ScanOp::counting(ps_rows(s, p), Rc::clone(&stats));
        scan.next_tuple().unwrap();
        scan.next_tuple().unwrap();
        assert_eq!(stats.borrow().rows_in, 2, "only the pulled rows count");
        assert_eq!(stats.borrow().rows_out, 2);
        scan.drain_all().unwrap();
        assert_eq!(stats.borrow().rows_in, 5);
    }

    #[test]
    fn rename_op_moves_cells_and_detects_collisions() {
        let mut u = Universe::new();
        let a = u.intern("A");
        let b = u.intern("B");
        let c = u.intern("C");
        let rows = vec![Tuple::new().with(a, Value::int(1)).with(b, Value::int(2))];
        let mapping: BTreeMap<AttrId, AttrId> = [(a, c)].into_iter().collect();
        let mut op = RenameOp::new(Box::new(VecStream::new(rows)), mapping, slot());
        let out = op.drain_all().unwrap();
        assert_eq!(
            out,
            vec![Tuple::new().with(c, Value::int(1)).with(b, Value::int(2))]
        );

        // A collision across *different* tuples is still detected, matching
        // the relation-level rename's scope-wide injectivity check.
        let rows = vec![
            Tuple::new().with(a, Value::int(1)),
            Tuple::new().with(b, Value::int(2)),
        ];
        let mapping: BTreeMap<AttrId, AttrId> = [(a, c), (b, c)].into_iter().collect();
        let mut op = RenameOp::new(Box::new(VecStream::new(rows)), mapping, slot());
        assert!(matches!(
            op.drain_all(),
            Err(CoreError::RenameCollision(t)) if t == c
        ));
    }

    #[test]
    fn union_op_streams_both_inputs() {
        let (_u, s, p) = setup();
        let rows = ps_rows(s, p);
        let stats = slot();
        let mut op = UnionOp::new(
            Box::new(VecStream::new(rows[..2].to_vec())),
            Box::new(VecStream::new(rows[2..].to_vec())),
            Rc::clone(&stats),
        );
        assert_eq!(op.drain_all().unwrap().len(), 5);
        assert_eq!(stats.borrow().rows_in, 5);
        assert_eq!(stats.borrow().rows_out, 5);
    }

    #[test]
    fn difference_op_drops_dominated_tuples() {
        let (_u, s, p) = setup();
        let left = vec![
            Tuple::new().with(s, Value::str("s1")),
            Tuple::new().with(s, Value::str("s9")),
        ];
        let right = vec![Tuple::new()
            .with(s, Value::str("s1"))
            .with(p, Value::str("p1"))];
        let stats = slot();
        let mut op = DifferenceOp::new(
            Box::new(VecStream::new(left)),
            Box::new(VecStream::new(right)),
            Rc::clone(&stats),
        );
        let out = op.drain_all().unwrap();
        assert_eq!(out, vec![Tuple::new().with(s, Value::str("s9"))]);
        assert_eq!(stats.borrow().build_rows, 1);
        assert_eq!(stats.borrow().rows_in, 2);
    }

    #[test]
    fn intersect_op_emits_non_null_meets() {
        let (_u, s, p) = setup();
        let left = vec![Tuple::new()
            .with(s, Value::str("s1"))
            .with(p, Value::str("p1"))];
        let right = vec![
            Tuple::new()
                .with(s, Value::str("s1"))
                .with(p, Value::str("p2")),
            Tuple::new().with(s, Value::str("s9")), // meet is the null tuple
        ];
        let mut op = IntersectOp::new(
            Box::new(VecStream::new(left)),
            Box::new(VecStream::new(right)),
            slot(),
        );
        let out = op.drain_all().unwrap();
        assert_eq!(out, vec![Tuple::new().with(s, Value::str("s1"))]);
    }

    #[test]
    fn equi_join_op_matches_oracle_equijoin() {
        let mut u = Universe::new();
        let k = u.intern("K");
        let a = u.intern("A");
        let b = u.intern("B");
        let left = vec![
            Tuple::new().with(k, Value::int(1)).with(a, Value::int(10)),
            Tuple::new().with(a, Value::int(20)), // K is ni: never joins
        ];
        let right = vec![Tuple::new().with(k, Value::int(1)).with(b, Value::int(30))];
        let stats = slot();
        let mut op = EquiJoinOp::new(
            Box::new(VecStream::new(left.clone())),
            Box::new(VecStream::new(right.clone())),
            attr_set([k]),
            Rc::clone(&stats),
        );
        let out = XRelation::from_tuples(op.drain_all().unwrap());
        let oracle = nullrel_core::algebra::equijoin(
            &XRelation::from_tuples(left),
            &XRelation::from_tuples(right),
            &attr_set([k]),
        )
        .unwrap();
        assert_eq!(out, oracle);
        assert_eq!(stats.borrow().ni_rows, 1, "the keyless left row is ni");
    }

    #[test]
    fn union_join_op_keeps_dangling_tuples() {
        let mut u = Universe::new();
        let k = u.intern("K");
        let a = u.intern("A");
        let b = u.intern("B");
        let left = vec![
            Tuple::new().with(k, Value::int(1)).with(a, Value::int(10)),
            Tuple::new().with(k, Value::int(2)).with(a, Value::int(20)), // dangles
        ];
        let right = vec![
            Tuple::new().with(k, Value::int(1)).with(b, Value::int(30)),
            Tuple::new().with(b, Value::int(40)), // K is ni: dangles
        ];
        let mut op = UnionJoinOp::new(
            Box::new(VecStream::new(left.clone())),
            Box::new(VecStream::new(right.clone())),
            attr_set([k]),
            slot(),
        );
        let out = XRelation::from_tuples(op.drain_all().unwrap());
        let oracle = nullrel_core::algebra::union_join(
            &XRelation::from_tuples(left),
            &XRelation::from_tuples(right),
            &attr_set([k]),
        )
        .unwrap();
        assert_eq!(out, oracle);
        assert_eq!(out.len(), 3, "join + two dangling tuples");
    }

    #[test]
    fn division_op_matches_oracle_divide() {
        let (_u, s, p) = setup();
        let rows = ps_rows(s, p);
        let divisor = vec![Tuple::new().with(p, Value::str("p1"))];
        let stats = slot();
        let mut op = DivisionOp::new(
            Box::new(VecStream::new(rows.clone())),
            Box::new(VecStream::new(divisor.clone())),
            attr_set([s]),
            Rc::clone(&stats),
        );
        let out = XRelation::from_tuples(op.drain_all().unwrap());
        let oracle = nullrel_core::algebra::divide(
            &XRelation::from_tuples(rows),
            &attr_set([s]),
            &XRelation::from_tuples(divisor),
        )
        .unwrap();
        assert_eq!(out, oracle);
        assert_eq!(stats.borrow().build_rows, 1);
    }

    #[test]
    fn division_op_rejects_overlapping_scopes_and_handles_empty_divisor() {
        let (_u, s, p) = setup();
        let rows = ps_rows(s, p);
        let mut op = DivisionOp::new(
            Box::new(VecStream::new(rows.clone())),
            Box::new(VecStream::new(vec![Tuple::new().with(s, Value::str("s1"))])),
            attr_set([s]),
            slot(),
        );
        assert!(matches!(
            op.drain_all(),
            Err(CoreError::ScopeOverlap { .. })
        ));

        // Empty divisor: every Y-total candidate qualifies vacuously.
        let mut op = DivisionOp::new(
            Box::new(VecStream::new(rows.clone())),
            Box::new(VecStream::new(Vec::new())),
            attr_set([s]),
            slot(),
        );
        let out = XRelation::from_tuples(op.drain_all().unwrap());
        let oracle = nullrel_core::algebra::divide(
            &XRelation::from_tuples(rows),
            &attr_set([s]),
            &XRelation::empty(),
        )
        .unwrap();
        assert_eq!(out, oracle);
    }
}
