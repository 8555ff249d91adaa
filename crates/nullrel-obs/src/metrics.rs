//! The process-wide metrics registry: atomic counters, gauges, and
//! fixed-bucket latency histograms with `register_counter!`-style static
//! handles.
//!
//! Hot-path discipline: every metric handle is a `static` of plain
//! atomics — incrementing touches no lock and allocates nothing. The
//! registry's mutex guards only the *list* of registered handles and is
//! taken by registration, [`render_prometheus`], and [`snapshot`], never
//! by updates.
//!
//! The engine's built-in catalog (queries executed, rows scanned and
//! minimized, hash-join builds/probes, morsels claimed per worker,
//! histogram and index rebuilds, reservoir staleness, adaptive re-opt
//! events, and per-phase latency) is declared in this module and
//! registered lazily on first render/snapshot; downstream crates add
//! their own metrics with the [`register_counter!`](crate::register_counter!),
//! [`register_gauge!`](crate::register_gauge!), and [`register_histogram!`](crate::register_histogram!) macros.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, Once};

/// Upper bounds (inclusive, microseconds) of the fixed latency buckets
/// every [`Histogram`] uses; observations above the last bound land in
/// the overflow (`+Inf`) bucket. Spanning 50 µs – 5 s covers everything
/// from a cached point lookup to a pathological unoptimized product.
pub const LATENCY_BUCKETS_US: [u64; 14] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
    5_000_000,
];

/// Display lanes a [`LaneCounter`] distinguishes before folding the
/// remainder into the last lane. Far above any realistic worker-pool
/// degree.
pub const MAX_LANES: usize = 64;

// ---------------------------------------------------------------------
// Metric handle types
// ---------------------------------------------------------------------

/// A monotonically increasing atomic counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Declares a counter; pair with registration (the
    /// [`register_counter!`](crate::register_counter!) macro does both).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Counter {
            name,
            help,
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// An atomic gauge: a signed value that moves both ways.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    value: AtomicI64,
}

impl Gauge {
    /// Declares a gauge; pair with registration (the [`register_gauge!`](crate::register_gauge!)
    /// macro does both).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Gauge {
            name,
            help,
            value: AtomicI64::new(0),
        }
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

const BUCKETS: usize = LATENCY_BUCKETS_US.len() + 1; // + overflow

/// A fixed-bucket latency histogram (microsecond observations).
///
/// Bucket semantics match Prometheus `le`: an observation lands in the
/// first bucket whose upper bound is **greater than or equal to** the
/// value (bounds are inclusive upper edges; the previous bound is an
/// exclusive lower edge), and anything above the last bound lands in the
/// overflow bucket. The total count is derived from the per-bucket
/// counts, so a snapshot's `count` always equals the sum of its buckets
/// even under concurrent writers.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    help: &'static str,
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    /// Declares a histogram; pair with registration (the
    /// [`register_histogram!`](crate::register_histogram!) macro does both).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Histogram {
            name,
            help,
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation of `v` microseconds.
    #[inline]
    pub fn observe(&self, v: u64) {
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| v <= bound)
            .unwrap_or(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations (sum of the per-bucket counts).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values, microseconds.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }
}

/// A counter split across display lanes (worker indices), for metrics
/// like morsels claimed per worker. Lane indices at or above
/// [`MAX_LANES`] fold into the last lane.
#[derive(Debug)]
pub struct LaneCounter {
    name: &'static str,
    help: &'static str,
    lanes: [AtomicU64; MAX_LANES],
}

impl LaneCounter {
    /// Declares a lane counter; register with
    /// [`register_lane_counter`].
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        LaneCounter {
            name,
            help,
            lanes: [const { AtomicU64::new(0) }; MAX_LANES],
        }
    }

    /// Adds `n` to `lane`'s count.
    #[inline]
    pub fn add(&self, lane: usize, n: u64) {
        self.lanes[lane.min(MAX_LANES - 1)].fetch_add(n, Ordering::Relaxed);
    }

    /// Total across all lanes.
    pub fn total(&self) -> u64 {
        self.lanes.iter().map(|l| l.load(Ordering::Relaxed)).sum()
    }

    /// `(lane, count)` for every lane with a non-zero count, ascending.
    pub fn lanes(&self) -> Vec<(usize, u64)> {
        self.lanes
            .iter()
            .enumerate()
            .filter_map(|(i, l)| {
                let v = l.load(Ordering::Relaxed);
                (v > 0).then_some((i, v))
            })
            .collect()
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

// ---------------------------------------------------------------------
// Built-in engine catalog
// ---------------------------------------------------------------------

/// Queries executed end to end (every `begin_query` scope).
pub static QUERIES_EXECUTED: Counter = Counter::new(
    "nullrel_queries_executed_total",
    "Queries executed end to end",
);

/// Queries whose wall-clock met the slow-query threshold.
pub static SLOW_QUERIES: Counter = Counter::new(
    "nullrel_slow_queries_total",
    "Queries at or over the slow-query threshold",
);

/// Rows produced by scan operators.
pub static ROWS_SCANNED: Counter = Counter::new(
    "nullrel_rows_scanned_total",
    "Rows produced by scan operators",
);

/// Rows fed into antichain minimization.
pub static ROWS_MINIMIZED: Counter = Counter::new(
    "nullrel_rows_minimized_total",
    "Rows fed into antichain minimization",
);

/// Hash-join build sides constructed.
pub static HASH_JOIN_BUILDS: Counter = Counter::new(
    "nullrel_hash_join_builds_total",
    "Hash-join build sides constructed",
);

/// Probe-side rows driven through hash joins.
pub static HASH_JOIN_PROBES: Counter = Counter::new(
    "nullrel_hash_join_probes_total",
    "Probe-side rows driven through hash joins",
);

/// Column batches processed by vectorized operators. Counted once per
/// batch — the vectorized engine's replacement for per-tuple bookkeeping:
/// a thousand-row batch costs one atomic add, not a thousand.
pub static BATCHES_PROCESSED: Counter = Counter::new(
    "nullrel_batches_processed_total",
    "Column batches processed by vectorized operators",
);

/// Rows carried through the vectorized batch path (scan output of fused
/// batch pipelines). Compared against `nullrel_rows_scanned_total`, shows
/// what fraction of scan traffic the vectorized engine absorbed.
pub static ROWS_VECTORIZED: Counter = Counter::new(
    "nullrel_rows_vectorized_total",
    "Rows processed through the vectorized batch path",
);

/// Histogram rebuilds performed by the statistics collector.
pub static HISTOGRAM_REBUILDS: Counter = Counter::new(
    "nullrel_histogram_rebuilds_total",
    "Equi-depth histogram rebuilds by the statistics collector",
);

/// Index rebuilds performed by storage maintenance.
pub static INDEX_REBUILDS: Counter = Counter::new(
    "nullrel_index_rebuilds_total",
    "Secondary-index rebuilds by storage maintenance",
);

/// Adaptive re-optimization events (plans replanned mid-query).
pub static REOPT_EVENTS: Counter = Counter::new(
    "nullrel_reopt_events_total",
    "Adaptive re-optimization events (mid-query replans)",
);

/// Pipeline stages executed by the adaptive engine.
pub static ADAPTIVE_STAGES: Counter = Counter::new(
    "nullrel_adaptive_stages_total",
    "Pipeline stages executed by the adaptive engine",
);

/// Rows the statistics reservoirs have absorbed since their histograms
/// were last rebuilt (how stale the optimizer's view is).
pub static RESERVOIR_STALENESS: Gauge = Gauge::new(
    "nullrel_reservoir_staleness_rows",
    "Rows absorbed since the last histogram rebuild",
);

/// Morsel tasks claimed, split by worker index.
pub static MORSELS_CLAIMED: LaneCounter = LaneCounter::new(
    "nullrel_morsels_claimed_total",
    "Morsel tasks claimed from the shared queue, by worker",
);

/// End-to-end query latency.
pub static QUERY_LATENCY_US: Histogram = Histogram::new(
    "nullrel_query_latency_us",
    "End-to-end query wall-clock, microseconds",
);

/// Parse-phase latency.
pub static PHASE_PARSE_US: Histogram = Histogram::new(
    "nullrel_phase_parse_us",
    "Parse phase wall-clock, microseconds",
);

/// Plan-phase latency (logical planning / resolution).
pub static PHASE_PLAN_US: Histogram = Histogram::new(
    "nullrel_phase_plan_us",
    "Plan phase wall-clock, microseconds",
);

/// Optimize-phase latency.
pub static PHASE_OPTIMIZE_US: Histogram = Histogram::new(
    "nullrel_phase_optimize_us",
    "Optimize phase wall-clock, microseconds",
);

/// Compile-phase latency (physical operator construction).
pub static PHASE_COMPILE_US: Histogram = Histogram::new(
    "nullrel_phase_compile_us",
    "Compile phase wall-clock, microseconds",
);

/// Run-phase latency (pipeline execution).
pub static PHASE_RUN_US: Histogram =
    Histogram::new("nullrel_phase_run_us", "Run phase wall-clock, microseconds");

/// One lifecycle phase of a query, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Query-language text → AST.
    Parse,
    /// AST → resolved logical algebra.
    Plan,
    /// Logical rewrites + cost-based join ordering.
    Optimize,
    /// Physical operator construction.
    Compile,
    /// Pipeline execution.
    Run,
}

impl Phase {
    /// Lower-case phase name as rendered in spans and `EXPLAIN ANALYZE`.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Plan => "plan",
            Phase::Optimize => "optimize",
            Phase::Compile => "compile",
            Phase::Run => "run",
        }
    }
}

/// The latency histogram backing `p`.
pub fn phase_histogram(p: Phase) -> &'static Histogram {
    match p {
        Phase::Parse => &PHASE_PARSE_US,
        Phase::Plan => &PHASE_PLAN_US,
        Phase::Optimize => &PHASE_OPTIMIZE_US,
        Phase::Compile => &PHASE_COMPILE_US,
        Phase::Run => &PHASE_RUN_US,
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

#[derive(Default)]
struct Registry {
    counters: Vec<&'static Counter>,
    gauges: Vec<&'static Gauge>,
    histograms: Vec<&'static Histogram>,
    lane_counters: Vec<&'static LaneCounter>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: Vec::new(),
    gauges: Vec::new(),
    histograms: Vec::new(),
    lane_counters: Vec::new(),
});

static CATALOG: Once = Once::new();

fn ensure_catalog() {
    CATALOG.call_once(|| {
        register_counter(&QUERIES_EXECUTED);
        register_counter(&SLOW_QUERIES);
        register_counter(&ROWS_SCANNED);
        register_counter(&ROWS_MINIMIZED);
        register_counter(&HASH_JOIN_BUILDS);
        register_counter(&HASH_JOIN_PROBES);
        register_counter(&BATCHES_PROCESSED);
        register_counter(&ROWS_VECTORIZED);
        register_counter(&HISTOGRAM_REBUILDS);
        register_counter(&INDEX_REBUILDS);
        register_counter(&REOPT_EVENTS);
        register_counter(&ADAPTIVE_STAGES);
        register_gauge(&RESERVOIR_STALENESS);
        register_lane_counter(&MORSELS_CLAIMED);
        register_histogram(&QUERY_LATENCY_US);
        register_histogram(&PHASE_PARSE_US);
        register_histogram(&PHASE_PLAN_US);
        register_histogram(&PHASE_OPTIMIZE_US);
        register_histogram(&PHASE_COMPILE_US);
        register_histogram(&PHASE_RUN_US);
    });
}

/// Adds `c` to the registry (idempotent per handle).
pub fn register_counter(c: &'static Counter) {
    let mut reg = REGISTRY.lock().expect("registry poisoned");
    if !reg.counters.iter().any(|x| std::ptr::eq(*x, c)) {
        reg.counters.push(c);
    }
}

/// Adds `g` to the registry (idempotent per handle).
pub fn register_gauge(g: &'static Gauge) {
    let mut reg = REGISTRY.lock().expect("registry poisoned");
    if !reg.gauges.iter().any(|x| std::ptr::eq(*x, g)) {
        reg.gauges.push(g);
    }
}

/// Adds `h` to the registry (idempotent per handle).
pub fn register_histogram(h: &'static Histogram) {
    let mut reg = REGISTRY.lock().expect("registry poisoned");
    if !reg.histograms.iter().any(|x| std::ptr::eq(*x, h)) {
        reg.histograms.push(h);
    }
}

/// Adds `lc` to the registry (idempotent per handle).
pub fn register_lane_counter(lc: &'static LaneCounter) {
    let mut reg = REGISTRY.lock().expect("registry poisoned");
    if !reg.lane_counters.iter().any(|x| std::ptr::eq(*x, lc)) {
        reg.lane_counters.push(lc);
    }
}

/// Declares a static [`Counter`] at the call site, registers it, and
/// evaluates to its `&'static` handle. Call once and keep the handle —
/// registration takes the registry lock.
#[macro_export]
macro_rules! register_counter {
    ($name:expr, $help:expr) => {{
        static METRIC: $crate::metrics::Counter = $crate::metrics::Counter::new($name, $help);
        $crate::metrics::register_counter(&METRIC);
        &METRIC
    }};
}

/// Declares a static [`Gauge`] at the call site, registers it, and
/// evaluates to its `&'static` handle.
#[macro_export]
macro_rules! register_gauge {
    ($name:expr, $help:expr) => {{
        static METRIC: $crate::metrics::Gauge = $crate::metrics::Gauge::new($name, $help);
        $crate::metrics::register_gauge(&METRIC);
        &METRIC
    }};
}

/// Declares a static [`Histogram`] at the call site, registers it, and
/// evaluates to its `&'static` handle.
#[macro_export]
macro_rules! register_histogram {
    ($name:expr, $help:expr) => {{
        static METRIC: $crate::metrics::Histogram = $crate::metrics::Histogram::new($name, $help);
        $crate::metrics::register_histogram(&METRIC);
        &METRIC
    }};
}

// ---------------------------------------------------------------------
// Snapshot + rendering
// ---------------------------------------------------------------------

/// Point-in-time copy of one histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations (always equals the sum of `buckets`).
    pub count: u64,
    /// Sum of observed values, microseconds.
    pub sum_us: u64,
    /// `(upper_bound_us, cumulative_count)` per finite bucket, ascending;
    /// the overflow bucket is `count` at `+Inf` and is not listed.
    pub buckets: Vec<(u64, u64)>,
}

/// Point-in-time copy of every registered metric, for tests and
/// machine-readable artifacts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by metric name. Lane counters contribute their
    /// total under the bare name plus one entry per non-empty lane under
    /// `name{worker="i"}`.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by metric name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 when absent — counters render even at
    /// zero, so absent means unregistered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Renders the snapshot as a JSON object (hand-rolled; the workspace
    /// takes no serialization dependency) — the payload of the
    /// `BENCH_*.json` CI artifacts.
    pub fn to_json(&self) -> String {
        // Lane-counter keys carry Prometheus label syntax
        // (`name{worker="3"}`) whose quotes must be escaped inside a JSON
        // string.
        fn key(name: &str) -> String {
            name.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {v}", key(name)));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (name, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {v}", key(name)));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum_us\": {}}}",
                key(name),
                h.count,
                h.sum_us
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Captures every registered metric at once.
pub fn snapshot() -> MetricsSnapshot {
    ensure_catalog();
    let reg = REGISTRY.lock().expect("registry poisoned");
    let mut snap = MetricsSnapshot::default();
    for c in &reg.counters {
        snap.counters.insert(c.name.to_owned(), c.get());
    }
    for lc in &reg.lane_counters {
        snap.counters.insert(lc.name.to_owned(), lc.total());
        for (lane, v) in lc.lanes() {
            snap.counters
                .insert(format!("{}{{worker=\"{lane}\"}}", lc.name), v);
        }
    }
    for g in &reg.gauges {
        snap.gauges.insert(g.name.to_owned(), g.get());
    }
    for h in &reg.histograms {
        let counts = h.bucket_counts();
        let mut cumulative = 0;
        let mut buckets = Vec::with_capacity(LATENCY_BUCKETS_US.len());
        for (bound, count) in LATENCY_BUCKETS_US.iter().zip(&counts) {
            cumulative += count;
            buckets.push((*bound, cumulative));
        }
        snap.histograms.insert(
            h.name.to_owned(),
            HistogramSnapshot {
                count: counts.iter().sum(),
                sum_us: h.sum(),
                buckets,
            },
        );
    }
    snap
}

/// Renders every registered metric in the Prometheus text exposition
/// format (histograms as cumulative `_bucket{le=…}` series plus `_sum`
/// and `_count`; lane counters as one series per worker label).
///
/// Families are rendered **sorted by metric name** — registration order
/// varies with which crates initialized first, and a deterministic
/// rendering is what lets the wire `METRICS` command be
/// golden-snapshot-tested. Label sets within a family (lane counters'
/// `worker` labels, histograms' `le` bounds) are ascending by
/// construction.
pub fn render_prometheus() -> String {
    ensure_catalog();
    let reg = REGISTRY.lock().expect("registry poisoned");
    let mut families: Vec<(&'static str, String)> = Vec::new();
    for c in &reg.counters {
        let mut body = String::new();
        body.push_str(&format!("# HELP {} {}\n", c.name, c.help));
        body.push_str(&format!("# TYPE {} counter\n", c.name));
        body.push_str(&format!("{} {}\n", c.name, c.get()));
        families.push((c.name, body));
    }
    for lc in &reg.lane_counters {
        let mut body = String::new();
        body.push_str(&format!("# HELP {} {}\n", lc.name, lc.help));
        body.push_str(&format!("# TYPE {} counter\n", lc.name));
        let lanes = lc.lanes();
        if lanes.is_empty() {
            body.push_str(&format!("{} 0\n", lc.name));
        }
        for (lane, v) in lanes {
            body.push_str(&format!("{}{{worker=\"{lane}\"}} {v}\n", lc.name));
        }
        families.push((lc.name, body));
    }
    for g in &reg.gauges {
        let mut body = String::new();
        body.push_str(&format!("# HELP {} {}\n", g.name, g.help));
        body.push_str(&format!("# TYPE {} gauge\n", g.name));
        body.push_str(&format!("{} {}\n", g.name, g.get()));
        families.push((g.name, body));
    }
    for h in &reg.histograms {
        let mut body = String::new();
        body.push_str(&format!("# HELP {} {}\n", h.name, h.help));
        body.push_str(&format!("# TYPE {} histogram\n", h.name));
        let counts = h.bucket_counts();
        let total: u64 = counts.iter().sum();
        let mut cumulative = 0;
        for (bound, count) in LATENCY_BUCKETS_US.iter().zip(&counts) {
            cumulative += count;
            body.push_str(&format!(
                "{}_bucket{{le=\"{bound}\"}} {cumulative}\n",
                h.name
            ));
        }
        body.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {total}\n", h.name));
        body.push_str(&format!("{}_sum {}\n", h.name, h.sum()));
        body.push_str(&format!("{}_count {total}\n", h.name));
        families.push((h.name, body));
    }
    families.sort_by_key(|(name, _)| *name);
    families.into_iter().map(|(_, body)| body).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        static C: Counter = Counter::new("test_concurrent_total", "test");
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..PER_THREAD {
                        C.inc();
                    }
                });
            }
        });
        assert_eq!(C.get(), THREADS * PER_THREAD);
    }

    #[test]
    fn histogram_bucket_bounds_are_inclusive_upper() {
        static H: Histogram = Histogram::new("test_bounds_us", "test");
        // Exactly on a bound ⇒ that bucket (inclusive upper edge).
        H.observe(50);
        // One past a bound ⇒ the next bucket (exclusive lower edge).
        H.observe(51);
        // Past the last bound ⇒ overflow.
        H.observe(LATENCY_BUCKETS_US[LATENCY_BUCKETS_US.len() - 1] + 1);
        let counts = H.bucket_counts();
        assert_eq!(counts[0], 1, "50 lands in le=50");
        assert_eq!(counts[1], 1, "51 lands in le=100");
        assert_eq!(counts[BUCKETS - 1], 1, "overflow bucket");
        assert_eq!(H.count(), 3);
        assert_eq!(
            H.sum(),
            50 + 51 + LATENCY_BUCKETS_US[LATENCY_BUCKETS_US.len() - 1] + 1
        );
    }

    #[test]
    fn snapshot_is_consistent_under_concurrent_writers() {
        static H: Histogram = Histogram::new("test_snapshot_us", "test");
        static C: Counter = Counter::new("test_snapshot_total", "test");
        register_histogram(&H);
        register_counter(&C);
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        for i in 0..5_000u64 {
                            H.observe(i % 7_000);
                            C.inc();
                        }
                    })
                })
                .collect();
            // Snapshots taken mid-flight must be internally consistent:
            // a histogram's count equals the sum of its buckets.
            for _ in 0..50 {
                let snap = snapshot();
                let h = &snap.histograms["test_snapshot_us"];
                let finite_cumulative = h.buckets.last().map(|(_, c)| *c).unwrap_or(0);
                assert!(finite_cumulative <= h.count);
                assert!(h.count <= 4 * 5_000);
            }
            for w in writers {
                w.join().unwrap();
            }
        });
        let snap = snapshot();
        assert_eq!(snap.counter("test_snapshot_total"), 4 * 5_000);
        assert_eq!(snap.histograms["test_snapshot_us"].count, 4 * 5_000);
    }

    #[test]
    fn lane_counter_folds_and_labels() {
        static LC: LaneCounter = LaneCounter::new("test_lanes_total", "test");
        LC.add(0, 3);
        LC.add(2, 5);
        LC.add(MAX_LANES + 10, 1); // folds into the last lane
        assert_eq!(LC.total(), 9);
        let lanes = LC.lanes();
        assert_eq!(lanes, vec![(0, 3), (2, 5), (MAX_LANES - 1, 1)]);
    }

    #[test]
    fn register_macros_and_prometheus_render() {
        let c = register_counter!("test_macro_total", "macro counter");
        c.add(2);
        let g = register_gauge!("test_macro_gauge", "macro gauge");
        g.set(-4);
        let h = register_histogram!("test_macro_us", "macro histogram");
        h.observe(75);
        let text = render_prometheus();
        assert!(text.contains("# TYPE test_macro_total counter"));
        assert!(text.contains("test_macro_total 2"));
        assert!(text.contains("test_macro_gauge -4"));
        assert!(text.contains("test_macro_us_bucket{le=\"100\"} 1"));
        assert!(text.contains("test_macro_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("test_macro_us_count 1"));
        // The built-in catalog renders too.
        assert!(text.contains("nullrel_queries_executed_total"));
        assert!(text.contains("nullrel_query_latency_us_count"));
        // Registration is idempotent per handle.
        let before = render_prometheus()
            .matches("# TYPE test_macro_total counter")
            .count();
        register_counter(c);
        let after = render_prometheus()
            .matches("# TYPE test_macro_total counter")
            .count();
        assert_eq!(before, after);
    }

    /// Satellite: the rendering is deterministic (families sorted by
    /// name regardless of registration order) and every line conforms
    /// to the Prometheus text exposition format.
    #[test]
    fn prometheus_rendering_is_sorted_and_conformant() {
        // Register in deliberately unsorted name order.
        let _ = register_counter!("test_zzz_last_total", "registered first");
        let _ = register_gauge!("test_aaa_first_gauge", "registered second");
        let text = render_prometheus();

        // Families appear sorted by metric name.
        let family_names: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# HELP "))
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        let mut sorted = family_names.clone();
        sorted.sort();
        assert_eq!(family_names, sorted, "families sorted by name");

        // Two renders are byte-identical (modulo racing writers — none
        // here for the two test metrics).
        assert!(render_prometheus().contains("test_aaa_first_gauge"));

        // Exposition-format conformance, line by line.
        fn valid_name(s: &str) -> bool {
            !s.is_empty()
                && s.chars().next().unwrap().is_ascii_alphabetic()
                && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        }
        let mut last_type: Option<(String, String)> = None;
        for line in text.lines() {
            assert!(!line.is_empty(), "no blank lines in the exposition");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split_whitespace().next().unwrap();
                assert!(valid_name(name), "HELP name: {line}");
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().unwrap().to_owned();
                let kind = parts.next().unwrap().to_owned();
                assert!(valid_name(&name), "TYPE name: {line}");
                assert!(
                    ["counter", "gauge", "histogram"].contains(&kind.as_str()),
                    "TYPE kind: {line}"
                );
                last_type = Some((name, kind));
                continue;
            }
            // A sample line: `name[{labels}] value`.
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(
                value.parse::<f64>().is_ok(),
                "sample value is numeric: {line}"
            );
            let name = match series.split_once('{') {
                Some((name, labels)) => {
                    assert!(labels.ends_with('}'), "label set closes: {line}");
                    let inner = &labels[..labels.len() - 1];
                    for pair in inner.split(',') {
                        let (k, v) = pair.split_once('=').expect("label k=v");
                        assert!(valid_name(k), "label name: {line}");
                        assert!(
                            v.starts_with('"') && v.ends_with('"') && v.len() >= 2,
                            "label value quoted: {line}"
                        );
                    }
                    name
                }
                None => series,
            };
            assert!(valid_name(name), "sample name: {line}");
            // Samples belong to the family the preceding TYPE declared
            // (histogram samples via the _bucket/_sum/_count suffixes).
            let (family, kind) = last_type.as_ref().expect("TYPE precedes samples");
            if kind == "histogram" {
                assert!(
                    name == format!("{family}_bucket")
                        || name == format!("{family}_sum")
                        || name == format!("{family}_count"),
                    "histogram sample {name} under family {family}"
                );
            } else {
                assert_eq!(name, family, "sample under its family: {line}");
            }
        }
    }

    #[test]
    fn snapshot_json_is_well_formed_enough() {
        QUERIES_EXECUTED.add(0);
        MORSELS_CLAIMED.add(2, 1);
        let json = snapshot().to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"nullrel_queries_executed_total\""));
        // Prometheus label quotes must arrive escaped inside JSON keys.
        assert!(json.contains("worker=\\\"2\\\""), "{json}");
        assert!(!json.contains("worker=\"2\""), "{json}");
        assert!(json.trim_end().ends_with('}'));
    }
}
