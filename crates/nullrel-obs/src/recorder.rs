//! The always-on query flight recorder and workload log.
//!
//! Tracing (`span.rs`) answers "what happened inside *this* query" and
//! costs enough that it is opt-in. The flight recorder answers the
//! operator questions — *what is this server doing, which query shapes
//! dominate, where did the time go* — and therefore runs **always on**:
//! one thread-local record is built up while a query executes (no locks
//! on that path) and a single mutex push folds it into two bounded
//! process-wide structures when the query finishes:
//!
//! * the **flight ring** — the last [`FLIGHT_RING_CAP`] complete
//!   [`QueryRecord`]s, newest last, feeding the wire `SLOW [n]` view;
//! * the **workload log** — per-fingerprint aggregates
//!   ([`WorkloadEntry`]: execution count, total/max latency, the
//!   fixed-bucket latency distribution behind p50/p95/p99, cumulative
//!   rows, the last plan rendering), feeding the wire `TOP [n]` view.
//!   The log keeps at most [`WORKLOAD_CAP`] fingerprints, evicting the
//!   shape with the smallest cumulative time when a new one arrives.
//!
//! The **fingerprint** is an FNV-1a-64 hash of the whitespace-normalized
//! query text, so reformatted copies of the same statement aggregate
//! together while any token change separates them.
//!
//! Recording is enabled by default and can be disabled process-wide with
//! [`set_recording`] (the `e19_recorder_overhead` bench measures the
//! enabled-vs-disabled delta and holds it under 2 %). When disabled,
//! opening a record is one relaxed atomic load and every other hook finds
//! no in-flight record and returns immediately.

use std::cell::RefCell;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::{Phase, LATENCY_BUCKETS_US};

/// Complete flight records retained in the ring.
pub const FLIGHT_RING_CAP: usize = 512;

/// Fingerprints retained in the workload log before
/// smallest-total-time eviction.
pub const WORKLOAD_CAP: usize = 256;

/// Query text retained per record/entry (normalized, truncated).
const TEXT_CAP: usize = 200;

/// Latency buckets per workload entry: the shared fixed bounds plus the
/// overflow bucket.
const BUCKETS: usize = LATENCY_BUCKETS_US.len() + 1;

/// Process-wide recording switch (default on; [`set_recording`] turns it
/// off).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Records completed since process start (monotonic; survives
/// [`reset`]).
static RECORDED: AtomicU64 = AtomicU64::new(0);

/// Workload-log fingerprints evicted since process start.
static EVICTED: AtomicU64 = AtomicU64::new(0);

/// The flight ring and workload log, behind one mutex taken once per
/// completed query.
static STORE: Mutex<Store> = Mutex::new(Store {
    ring: VecDeque::new(),
    workload: None,
});

struct Store {
    ring: VecDeque<QueryRecord>,
    // Lazy: `HashMap::new` is not const-constructible in a `static`.
    workload: Option<HashMap<u64, WorkloadEntry>>,
}

thread_local! {
    /// The record being built for the query currently running on this
    /// thread, if any.
    static CURRENT: RefCell<Option<QueryRecord>> = const { RefCell::new(None) };
}

/// One query's flight record: everything the engine knew about the
/// execution, cheap enough to keep for every query.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// FNV-1a-64 hash of the whitespace-normalized query text.
    pub fingerprint: u64,
    /// Normalized query text, truncated to a display-friendly length.
    pub text: String,
    /// Truth band the query ran under (`"TRUE"` or `"MAYBE"`).
    pub band: &'static str,
    /// Snapshot epoch the query read (served sessions annotate this).
    pub epoch: Option<u64>,
    /// Per-phase wall-clock in microseconds, indexed parse, plan,
    /// optimize, compile, run. Re-entered phases (adaptive staging)
    /// accumulate.
    pub phase_us: [u64; 5],
    /// Rows entering the plan's leaf operators.
    pub rows_in: u64,
    /// Rows the query returned.
    pub rows_out: u64,
    /// Column batches the vectorized operators processed (derived from
    /// per-operator row counts and batch sizes).
    pub batches: u64,
    /// Degree of parallelism the optimizer granted.
    pub par_granted: u32,
    /// Worker lanes that actually produced rows.
    pub par_used: u32,
    /// Whether a served session answered from its prepared-query cache.
    pub prepared_hit: bool,
    /// Mean q-error of the plan's cardinality estimates, when any
    /// operator carried one.
    pub q_error: Option<f64>,
    /// Adaptive re-optimization events during the run.
    pub reopts: u32,
    /// Peak rows materialized by blocking operators (hash-join builds,
    /// set-operator sides, minimization antichains).
    pub mem_rows: u64,
    /// Estimated bytes behind [`QueryRecord::mem_rows`].
    pub mem_bytes: u64,
    /// Rendered physical plan (populated by the query entry points).
    pub plan: String,
    /// End-to-end wall-clock, microseconds (set at finish).
    pub total_us: u64,
}

impl QueryRecord {
    fn new(fingerprint: u64, text: String) -> Self {
        QueryRecord {
            fingerprint,
            text,
            band: "TRUE",
            epoch: None,
            phase_us: [0; 5],
            rows_in: 0,
            rows_out: 0,
            batches: 0,
            par_granted: 1,
            par_used: 1,
            prepared_hit: false,
            q_error: None,
            reopts: 0,
            mem_rows: 0,
            mem_bytes: 0,
            plan: String::new(),
            total_us: 0,
        }
    }
}

/// Per-fingerprint workload aggregate — one query *shape* across all its
/// executions.
#[derive(Debug, Clone)]
pub struct WorkloadEntry {
    /// The shape's fingerprint.
    pub fingerprint: u64,
    /// Normalized text of the shape (from its first sighting).
    pub text: String,
    /// Executions folded into this entry.
    pub count: u64,
    /// Cumulative wall-clock, microseconds (the eviction key).
    pub total_us: u64,
    /// Slowest single execution, microseconds.
    pub max_us: u64,
    /// Cumulative rows returned.
    pub rows_out: u64,
    /// Latency distribution over the shared fixed bucket bounds
    /// (non-cumulative; last slot is the overflow bucket).
    pub buckets: [u64; BUCKETS],
    /// Physical plan of the most recent execution.
    pub last_plan: String,
}

impl WorkloadEntry {
    fn fold(&mut self, r: &QueryRecord) {
        self.count += 1;
        self.total_us += r.total_us;
        self.max_us = self.max_us.max(r.total_us);
        self.rows_out += r.rows_out;
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| r.total_us <= bound)
            .unwrap_or(BUCKETS - 1);
        self.buckets[idx] += 1;
        if !r.plan.is_empty() {
            self.last_plan = r.plan.clone();
        }
    }

    /// Upper bound (microseconds) of the bucket holding quantile `q`
    /// (`0.0..=1.0`) of this shape's executions. Overflow observations
    /// report the last finite bound — the histogram cannot resolve
    /// further.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut cumulative = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return LATENCY_BUCKETS_US[i.min(LATENCY_BUCKETS_US.len() - 1)];
            }
        }
        LATENCY_BUCKETS_US[LATENCY_BUCKETS_US.len() - 1]
    }

    /// Median latency bucket bound, microseconds.
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// 95th-percentile latency bucket bound, microseconds.
    pub fn p95_us(&self) -> u64 {
        self.quantile_us(0.95)
    }

    /// 99th-percentile latency bucket bound, microseconds.
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }
}

/// Point-in-time recorder health, for the wire `HEALTH` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderStats {
    /// Whether recording is currently enabled.
    pub enabled: bool,
    /// Records completed since process start (survives [`reset`]).
    pub recorded: u64,
    /// Flight records currently retained in the ring.
    pub ring_len: usize,
    /// Fingerprints currently tracked in the workload log.
    pub fingerprints: usize,
    /// Workload-log fingerprints evicted since process start.
    pub evicted: u64,
}

/// True when the recorder is capturing queries.
pub fn recording() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables recording process-wide. The overhead bench uses
/// this to measure the enabled-vs-disabled delta.
pub fn set_recording(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// FNV-1a-64 over the whitespace-normalized query text, and the
/// normalized (truncated) text itself. Runs of whitespace collapse to
/// one space so reformatted copies of a statement share a fingerprint.
pub fn fingerprint(text: &str) -> (u64, String) {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut normalized = String::with_capacity(text.len().min(TEXT_CAP));
    let mut pending_space = false;
    for token in text.split_whitespace() {
        if pending_space {
            hash ^= b' ' as u64;
            hash = hash.wrapping_mul(PRIME);
            if normalized.len() < TEXT_CAP {
                normalized.push(' ');
            }
        }
        pending_space = true;
        for b in token.bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(PRIME);
        }
        if normalized.len() < TEXT_CAP {
            let room = TEXT_CAP - normalized.len();
            if token.len() <= room {
                normalized.push_str(token);
            } else {
                // `room` is a byte budget; counting chars against it
                // would overshoot the cap on multibyte text. Push whole
                // chars only while they fit, so the cut always lands on
                // a char boundary within TEXT_CAP bytes.
                for ch in token.chars() {
                    if normalized.len() + ch.len_utf8() > TEXT_CAP {
                        break;
                    }
                    normalized.push(ch);
                }
            }
        }
    }
    (hash, normalized)
}

/// Opens the in-flight record for a query starting on this thread.
/// Called by `begin_query` on its non-nested path; nested engine layers
/// annotate the same record.
pub(crate) fn begin(label: &str) {
    if !recording() {
        return;
    }
    let (fp, text) = fingerprint(label);
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(QueryRecord::new(fp, text));
    });
}

/// Accumulates one phase's wall-clock into the in-flight record.
pub(crate) fn note_phase(p: Phase, us: u64) {
    CURRENT.with(|c| {
        if let Some(r) = c.borrow_mut().as_mut() {
            let idx = match p {
                Phase::Parse => 0,
                Phase::Plan => 1,
                Phase::Optimize => 2,
                Phase::Compile => 3,
                Phase::Run => 4,
            };
            r.phase_us[idx] += us;
        }
    });
}

/// Mutates the in-flight record of the query running on this thread.
/// The closure runs only when a record is in flight, so annotation
/// sites cost one thread-local check when recording is off or no query
/// is in scope.
pub fn annotate(f: impl FnOnce(&mut QueryRecord)) {
    CURRENT.with(|c| {
        if let Some(r) = c.borrow_mut().as_mut() {
            f(r);
        }
    });
}

/// Completes the in-flight record: stamps the total latency, pushes it
/// into the flight ring, and folds it into the workload log. One mutex
/// acquisition per query.
pub(crate) fn finish(total_us: u64) {
    let Some(mut record) = CURRENT.with(|c| c.borrow_mut().take()) else {
        return;
    };
    record.total_us = total_us;
    RECORDED.fetch_add(1, Ordering::Relaxed);
    let mut store = STORE.lock().expect("recorder store poisoned");
    let workload = store.workload.get_or_insert_with(HashMap::new);
    match workload.get_mut(&record.fingerprint) {
        Some(entry) => entry.fold(&record),
        None => {
            if workload.len() >= WORKLOAD_CAP {
                // Evict the shape contributing the least cumulative
                // time: TOP-by-total-time is what the log exists to
                // answer, so the cheapest shape is the safest loss.
                if let Some(&victim) = workload
                    .iter()
                    .min_by_key(|(_, e)| e.total_us)
                    .map(|(fp, _)| fp)
                {
                    workload.remove(&victim);
                    EVICTED.fetch_add(1, Ordering::Relaxed);
                }
            }
            let mut entry = WorkloadEntry {
                fingerprint: record.fingerprint,
                text: record.text.clone(),
                count: 0,
                total_us: 0,
                max_us: 0,
                rows_out: 0,
                buckets: [0; BUCKETS],
                last_plan: String::new(),
            };
            entry.fold(&record);
            workload.insert(record.fingerprint, entry);
        }
    }
    if store.ring.len() >= FLIGHT_RING_CAP {
        store.ring.pop_front();
    }
    store.ring.push_back(record);
}

/// The most recent `n` flight records, newest first.
pub fn recent(n: usize) -> Vec<QueryRecord> {
    let store = STORE.lock().expect("recorder store poisoned");
    store.ring.iter().rev().take(n).cloned().collect()
}

/// The `n` slowest records currently in the flight ring, slowest first;
/// ties break newest-first so the view is deterministic.
pub fn slowest(n: usize) -> Vec<QueryRecord> {
    let store = STORE.lock().expect("recorder store poisoned");
    let mut all: Vec<(usize, &QueryRecord)> = store.ring.iter().enumerate().collect();
    all.sort_by(|(ia, a), (ib, b)| b.total_us.cmp(&a.total_us).then(ib.cmp(ia)));
    all.into_iter().take(n).map(|(_, r)| r.clone()).collect()
}

/// The top `n` workload shapes by cumulative time, descending; ties
/// break by fingerprint so the view is deterministic.
pub fn workload_top(n: usize) -> Vec<WorkloadEntry> {
    let store = STORE.lock().expect("recorder store poisoned");
    let Some(workload) = store.workload.as_ref() else {
        return Vec::new();
    };
    let mut entries: Vec<WorkloadEntry> = workload.values().cloned().collect();
    entries.sort_by(|a, b| {
        b.total_us
            .cmp(&a.total_us)
            .then(a.fingerprint.cmp(&b.fingerprint))
    });
    entries.truncate(n);
    entries
}

/// The workload entry for one fingerprint, if tracked.
pub fn workload_entry(fingerprint: u64) -> Option<WorkloadEntry> {
    let store = STORE.lock().expect("recorder store poisoned");
    store
        .workload
        .as_ref()
        .and_then(|w| w.get(&fingerprint))
        .cloned()
}

/// Clears the flight ring and workload log. In-flight records (queries
/// currently executing) are unaffected and will land in the emptied
/// structures when they finish.
pub fn reset() {
    let mut store = STORE.lock().expect("recorder store poisoned");
    store.ring.clear();
    if let Some(w) = store.workload.as_mut() {
        w.clear();
    }
}

/// Point-in-time recorder health.
pub fn stats() -> RecorderStats {
    let store = STORE.lock().expect("recorder store poisoned");
    RecorderStats {
        enabled: recording(),
        recorded: RECORDED.load(Ordering::Relaxed),
        ring_len: store.ring.len(),
        fingerprints: store.workload.as_ref().map_or(0, |w| w.len()),
        evicted: EVICTED.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::test_lock;

    fn run_one(text: &str, total_us: u64, rows: u64) {
        begin(text);
        annotate(|r| r.rows_out = rows);
        finish(total_us);
    }

    #[test]
    fn fingerprint_normalizes_whitespace() {
        let (a, text_a) = fingerprint("retrieve   (e.NAME)\n where e.E# = 1");
        let (b, text_b) = fingerprint("retrieve (e.NAME) where e.E# = 1");
        assert_eq!(a, b);
        assert_eq!(text_a, text_b);
        let (c, _) = fingerprint("retrieve (e.NAME) where e.E# = 2");
        assert_ne!(a, c);
    }

    #[test]
    fn fingerprint_truncates_text_but_hashes_everything() {
        let long = format!("retrieve (e.NAME) where e.E# = {}", "x".repeat(400));
        let (a, text) = fingerprint(&long);
        assert!(text.len() <= TEXT_CAP);
        let other = format!("retrieve (e.NAME) where e.E# = {}y", "x".repeat(400));
        let (b, _) = fingerprint(&other);
        assert_ne!(a, b, "tail differences past the text cap still hash");
    }

    /// Regression: the truncation budget is in bytes, but the cut used to
    /// take `room` *chars* — multibyte text overshot `TEXT_CAP`. The cut
    /// must land on a char boundary within the byte budget.
    #[test]
    fn fingerprint_truncation_respects_the_byte_cap_on_multibyte_text() {
        // Every char is 2 bytes ('ß'), so chars ≠ bytes throughout.
        let long = format!("retrieve {}", "ß".repeat(400));
        let (_, text) = fingerprint(&long);
        assert!(
            text.len() <= TEXT_CAP,
            "normalized text is {} bytes, cap is {TEXT_CAP}",
            text.len()
        );
        assert!(text.is_char_boundary(text.len()));
        // The cap cannot be met exactly here (199 is odd territory for
        // 2-byte chars after "retrieve "); it stops at the last whole char.
        assert!(text.len() >= TEXT_CAP - 3, "truncation fills the budget");

        // 4-byte chars: same invariants.
        let emoji = format!("q {}", "\u{1F600}".repeat(200));
        let (_, text) = fingerprint(&emoji);
        assert!(text.len() <= TEXT_CAP);
        assert!(text
            .chars()
            .all(|c| c == 'q' || c == ' ' || c == '\u{1F600}'));
    }

    #[test]
    fn records_fold_into_workload_and_ring() {
        let _serial = test_lock();
        reset();
        run_one("shape one", 100, 3);
        run_one("shape  one", 300, 4); // same fingerprint after normalizing
        run_one("shape two", 50, 1);
        let (fp, _) = fingerprint("shape one");
        let entry = workload_entry(fp).expect("shape one tracked");
        assert_eq!(entry.count, 2);
        assert_eq!(entry.total_us, 400);
        assert_eq!(entry.max_us, 300);
        assert_eq!(entry.rows_out, 7);
        let top = workload_top(10);
        assert_eq!(top[0].fingerprint, fp, "top shape by cumulative time");
        assert_eq!(top.len(), 2);
        let slow = slowest(1);
        assert_eq!(slow[0].total_us, 300);
        let newest = recent(1);
        assert_eq!(newest[0].text, "shape two");
        reset();
        assert_eq!(workload_top(10).len(), 0);
        assert!(recent(10).is_empty());
    }

    #[test]
    fn quantiles_come_from_fixed_buckets() {
        let mut e = WorkloadEntry {
            fingerprint: 1,
            text: String::new(),
            count: 0,
            total_us: 0,
            max_us: 0,
            rows_out: 0,
            buckets: [0; BUCKETS],
            last_plan: String::new(),
        };
        for _ in 0..98 {
            e.fold(&{
                let mut r = QueryRecord::new(1, String::new());
                r.total_us = 80; // le=100 bucket
                r
            });
        }
        let mut slow = QueryRecord::new(1, String::new());
        slow.total_us = 40_000; // le=50000 bucket
        e.fold(&slow);
        e.fold(&slow);
        assert_eq!(e.p50_us(), 100);
        assert_eq!(e.p95_us(), 100);
        assert_eq!(e.p99_us(), 50_000);
    }

    #[test]
    fn workload_evicts_smallest_total_time() {
        let _serial = test_lock();
        reset();
        for i in 0..WORKLOAD_CAP {
            run_one(&format!("shape {i}"), 1_000 + i as u64, 0);
        }
        // The cheapest shape ("shape 0") is the eviction victim.
        run_one("one more shape", 10, 0);
        let (fp0, _) = fingerprint("shape 0");
        let (fp_new, _) = fingerprint("one more shape");
        assert!(workload_entry(fp0).is_none(), "cheapest shape evicted");
        assert!(workload_entry(fp_new).is_some());
        assert!(stats().evicted >= 1);
        reset();
    }

    #[test]
    fn disabled_recorder_skips_begin() {
        let _serial = test_lock();
        reset();
        let was = recording();
        set_recording(false);
        begin("invisible query");
        annotate(|r| r.rows_out = 99);
        finish(123);
        assert!(recent(10).iter().all(|r| r.text != "invisible query"));
        set_recording(was);
        reset();
    }

    #[test]
    fn ring_wraps_at_capacity() {
        let _serial = test_lock();
        reset();
        for i in 0..(FLIGHT_RING_CAP + 8) {
            run_one(&format!("wrap {i}"), i as u64, 0);
        }
        assert_eq!(stats().ring_len, FLIGHT_RING_CAP);
        let newest = recent(1);
        assert_eq!(newest[0].text, format!("wrap {}", FLIGHT_RING_CAP + 7));
        reset();
    }
}
