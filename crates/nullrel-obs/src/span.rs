//! The span/tracing core: RAII span guards, per-thread span buffers, the
//! query-scoped trace lifecycle, sink installation, and the slow-query
//! log.
//!
//! ## Activation model
//!
//! Recording is armed by *recorders* — an installed [`TraceSink`], a live
//! [`TimingGuard`], or an armed slow-query threshold — counted in one
//! atomic. [`tracing_active`] is a single relaxed load, and when it is
//! false every span call returns immediately without reading the clock
//! or allocating, so an uninstrumented process pays one predictable
//! branch per span site.
//!
//! Per-operator timing (the clock-read-per-tuple instrumentation behind
//! `EXPLAIN ANALYZE`) is gated separately by [`timing_active`]: plain
//! tracing records only coarse spans, keeping the overhead within the
//! bench-asserted <3 % budget.
//!
//! ## Threads and lanes
//!
//! Spans buffer into a thread-local `Vec` (no locks, no contention) and
//! flush into a process-wide collector when the buffer fills, when the
//! thread's work ends ([`flush_thread`]), or when the query finishes.
//! Every record carries a *trace id* (which query it belongs to) and a
//! *lane* (which timeline row it renders on). The query's driving thread
//! is lane 0; `nullrel-par` workers [`adopt`] the query's trace with
//! lanes `1..=workers`, which is what gives the chrome export one row
//! per worker. Spans recorded while no query is in scope are discarded
//! at flush, so the collector stays bounded.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::metrics;
use crate::trace::{RingSink, SpanRecord, Trace, TraceSink};

/// Value of `SLOW_MS` meaning "slow-query log disabled".
const SLOW_DISABLED: u64 = u64::MAX;

/// Spans buffered per thread before an early flush into the collector.
const LOCAL_FLUSH_AT: usize = 256;

/// How many slow-query traces the built-in [`slow_log`] ring retains.
pub const SLOW_LOG_CAP: usize = 64;

/// Number of active recorders (installed sink + live timing guards +
/// armed slow-query log). Non-zero ⇒ spans record.
static RECORDERS: AtomicUsize = AtomicUsize::new(0);

/// Number of live [`TimingGuard`]s. Non-zero ⇒ per-operator timing.
static TIMING: AtomicUsize = AtomicUsize::new(0);

/// Slow-query threshold in milliseconds ([`SLOW_DISABLED`] = off).
static SLOW_MS: AtomicU64 = AtomicU64::new(SLOW_DISABLED);

/// Serializes armed/disarmed transitions of the slow-query log so the
/// RECORDERS adjustment matches the stored threshold.
static SLOW_TRANSITION: Mutex<()> = Mutex::new(());

/// Trace-id allocator; id 0 means "no query in scope".
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// Spans flushed from thread-local buffers, awaiting their query's
/// finish.
static COLLECTOR: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// The installed process-wide trace sink, if any.
static SINK: Mutex<Option<Arc<dyn TraceSink>>> = Mutex::new(None);

/// The built-in slow-query ring.
static SLOW_LOG: OnceLock<RingSink> = OnceLock::new();

/// The process-wide monotonic epoch all span timestamps are relative to.
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local { trace: 0, lane: 0, buf: Vec::new(), query_depth: 0 })
    };
}

struct Local {
    trace: u64,
    lane: u32,
    buf: Vec<SpanRecord>,
    query_depth: u32,
}

/// Microseconds since the process-wide monotonic epoch.
pub(crate) fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// True when at least one recorder (sink, timing guard, or armed
/// slow-query log) is active. One relaxed atomic load — the whole cost
/// of an inactive span site.
#[inline]
pub fn tracing_active() -> bool {
    RECORDERS.load(Ordering::Relaxed) > 0
}

/// True while a [`TimingGuard`] is alive: operators should record
/// per-tuple wall-clock into their stats slots.
#[inline]
pub fn timing_active() -> bool {
    TIMING.load(Ordering::Relaxed) > 0
}

/// Installs `sink` as the process-wide trace sink (replacing any
/// previous one) and arms span recording.
pub fn install_sink(sink: Arc<dyn TraceSink>) {
    let mut slot = SINK.lock().expect("sink poisoned");
    if slot.is_none() {
        RECORDERS.fetch_add(1, Ordering::Relaxed);
    }
    *slot = Some(sink);
}

/// Removes the installed sink (if any), disarming its recorder.
pub fn uninstall_sink() {
    let mut slot = SINK.lock().expect("sink poisoned");
    if slot.take().is_some() {
        RECORDERS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Sets (or, with `None`, disables) the slow-query threshold in
/// milliseconds.
/// While armed, span recording is active and any query whose wall-clock
/// is at or over the threshold has its full trace kept in [`slow_log`].
pub fn set_slow_query_ms(ms: Option<u64>) {
    let _guard = SLOW_TRANSITION.lock().expect("slow transition poisoned");
    let new = ms.unwrap_or(SLOW_DISABLED);
    let old = SLOW_MS.swap(new, Ordering::Relaxed);
    match (old == SLOW_DISABLED, new == SLOW_DISABLED) {
        (true, false) => {
            RECORDERS.fetch_add(1, Ordering::Relaxed);
        }
        (false, true) => {
            RECORDERS.fetch_sub(1, Ordering::Relaxed);
        }
        _ => {}
    }
}

/// The currently armed slow-query threshold in milliseconds, if any.
pub fn slow_query_ms() -> Option<u64> {
    let ms = SLOW_MS.load(Ordering::Relaxed);
    (ms != SLOW_DISABLED).then_some(ms)
}

/// The built-in ring of slow-query traces (most recent
/// [`SLOW_LOG_CAP`]).
pub fn slow_log() -> &'static RingSink {
    SLOW_LOG.get_or_init(|| RingSink::new(SLOW_LOG_CAP))
}

/// Parses a `NULLREL_SLOW_MS` value for the serve binary: `Some(0)`
/// means "trace every query", any other number is a threshold in
/// milliseconds, and an unset or unparsable value leaves the slow log
/// off.
pub fn parse_slow_ms(raw: Option<&str>) -> Option<u64> {
    raw.and_then(|raw| raw.trim().parse::<u64>().ok())
        .filter(|&ms| ms != SLOW_DISABLED)
}

/// The trace id the current thread is recording under (0 = none). Pool
/// schedulers capture this before spawning workers and hand it to
/// [`adopt`] inside each worker.
pub fn current_trace() -> u64 {
    LOCAL.with(|l| l.borrow().trace)
}

/// Tags the current thread's spans with `trace` on display lane `lane`.
/// Worker threads call this on entry (lane `1..=workers`); the driving
/// thread owns lane 0 via [`begin_query`].
pub fn adopt(trace: u64, lane: u32) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.trace = trace;
        l.lane = lane;
    });
}

/// Changes only the current thread's display lane.
pub fn set_lane(lane: u32) {
    LOCAL.with(|l| l.borrow_mut().lane = lane);
}

/// Drains the current thread's span buffer into the process collector.
/// Worker threads call this before exiting so their spans survive the
/// thread; the query's finish flushes the driving thread automatically.
pub fn flush_thread() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.buf.is_empty() {
            return;
        }
        let mut drained: Vec<SpanRecord> = l.buf.drain(..).collect();
        drained.retain(|s| s.trace != 0);
        if !drained.is_empty() {
            COLLECTOR
                .lock()
                .expect("collector poisoned")
                .append(&mut drained);
        }
    });
}

/// Buffers one completed span record on the current thread.
pub(crate) fn record_complete(name: String, cat: &'static str, start_us: u64, dur_us: u64) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.trace == 0 {
            return; // No query in scope: nothing would ever drain it.
        }
        let record = SpanRecord {
            name,
            cat,
            trace: l.trace,
            lane: l.lane,
            start_us,
            dur_us,
        };
        l.buf.push(record);
        if l.buf.len() >= LOCAL_FLUSH_AT {
            drop(l);
            flush_thread();
        }
    });
}

/// Records a zero-duration marker (rendered as an instant event in the
/// chrome export) when tracing is active.
pub fn event(name: impl Into<String>, cat: &'static str) {
    if !tracing_active() {
        return;
    }
    record_complete(name.into(), cat, now_us(), 0);
}

/// Opens a span: the guard records `[construction, drop]` as one
/// interval on the current thread's lane. When tracing is inactive this
/// is free — no clock read, no allocation.
pub fn span(name: impl Into<String>, cat: &'static str) -> Span {
    if !tracing_active() {
        return Span(None);
    }
    Span(Some(SpanInner {
        name: name.into(),
        cat,
        start_us: now_us(),
    }))
}

/// RAII guard returned by [`span`]; records its interval on drop.
#[must_use = "a span measures until it is dropped"]
pub struct Span(Option<SpanInner>);

struct SpanInner {
    name: String,
    cat: &'static str,
    start_us: u64,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            let dur = now_us().saturating_sub(inner.start_us);
            record_complete(inner.name, inner.cat, inner.start_us, dur);
        }
    }
}

/// Arms per-operator wall-clock timing (and span recording) for as long
/// as the guard lives. `EXPLAIN ANALYZE` holds one across the analyzed
/// run; tests may hold one to force `OpStats::elapsed` to populate.
#[must_use = "timing is active only while the guard lives"]
pub struct TimingGuard(());

impl TimingGuard {
    /// Arms timing; nests freely (a counter, not a flag).
    pub fn new() -> Self {
        TIMING.fetch_add(1, Ordering::Relaxed);
        RECORDERS.fetch_add(1, Ordering::Relaxed);
        TimingGuard(())
    }
}

impl Default for TimingGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for TimingGuard {
    fn drop(&mut self) {
        TIMING.fetch_sub(1, Ordering::Relaxed);
        RECORDERS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Opens the trace of one query on the current thread.
///
/// Always meters the query (queries-executed counter, end-to-end latency
/// histogram). When tracing is active it additionally allocates a trace
/// id, tags the thread's spans with it, and — on [`QueryTrace::finish`]
/// or drop — assembles the [`Trace`] and routes it to the installed sink
/// and, past the threshold, the slow-query log. Nested calls on the same
/// thread (a query engine layer re-entering the funnel) return a passive
/// guard so the outer query owns the trace and the meters count the
/// query once.
pub fn begin_query(label: impl Into<String>) -> QueryTrace {
    let nested = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.query_depth += 1;
        l.query_depth > 1
    });
    if nested {
        return QueryTrace {
            label: String::new(),
            trace: 0,
            counted: false,
            start: Instant::now(),
            start_us: 0,
            finished: false,
        };
    }
    let label: String = label.into();
    // The outermost query scope opens the flight record; nested engine
    // layers annotate it rather than opening their own.
    crate::recorder::begin(&label);
    let trace = if tracing_active() {
        let id = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
        adopt(id, 0);
        id
    } else {
        0
    };
    QueryTrace {
        label,
        trace,
        counted: true,
        start: Instant::now(),
        start_us: if trace != 0 { now_us() } else { 0 },
        finished: false,
    }
}

/// Guard for one query's trace scope; see [`begin_query`].
pub struct QueryTrace {
    label: String,
    trace: u64,
    counted: bool,
    start: Instant,
    start_us: u64,
    finished: bool,
}

impl QueryTrace {
    /// The query's trace id (0 when tracing was inactive at start or the
    /// guard is a nested passive one).
    pub fn trace_id(&self) -> u64 {
        self.trace
    }

    /// Ends the query scope now (otherwise drop does the same).
    pub fn finish(mut self) {
        self.complete();
    }

    fn complete(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.query_depth = l.query_depth.saturating_sub(1);
        });
        let elapsed = self.start.elapsed();
        if self.counted {
            metrics::QUERIES_EXECUTED.inc();
            metrics::QUERY_LATENCY_US.observe(elapsed.as_micros() as u64);
            crate::recorder::finish(elapsed.as_micros() as u64);
        }
        if self.trace == 0 {
            return;
        }
        flush_thread();
        adopt(0, 0);
        let spans = {
            let mut collector = COLLECTOR.lock().expect("collector poisoned");
            let mut mine = Vec::new();
            let mut rest = Vec::with_capacity(collector.len());
            for record in collector.drain(..) {
                if record.trace == self.trace {
                    mine.push(record);
                } else {
                    rest.push(record);
                }
            }
            *collector = rest;
            mine
        };
        let trace = Trace {
            name: std::mem::take(&mut self.label),
            trace_id: self.trace,
            start_us: self.start_us,
            dur_us: elapsed.as_micros() as u64,
            spans,
        };
        let slow = slow_query_ms().is_some_and(|ms| elapsed.as_millis() as u64 >= ms);
        if slow {
            metrics::SLOW_QUERIES.inc();
            slow_log().consume(trace.clone());
        }
        let sink = SINK.lock().expect("sink poisoned").clone();
        if let Some(sink) = sink {
            sink.consume(trace);
        }
    }
}

impl Drop for QueryTrace {
    fn drop(&mut self) {
        self.complete();
    }
}

/// Serializes unit tests that install/uninstall the process-global sink
/// so cargo's parallel test runner cannot interleave them. Test-only
/// plumbing, shared with the other modules of this crate.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_free_when_inactive() {
        let _serial = test_lock();
        // No sink, no timing guard: the guard must carry no payload.
        if !tracing_active() {
            let s = span("inactive", "test");
            assert!(s.0.is_none());
            drop(s);
        }
    }

    #[test]
    fn query_trace_collects_worker_spans_by_trace_id() {
        let _serial = test_lock();
        let sink = Arc::new(RingSink::new(8));
        install_sink(sink.clone());
        let q = begin_query("collect-test");
        let id = q.trace_id();
        assert_ne!(id, 0);
        {
            let _s = span("driver work", "phase");
        }
        std::thread::scope(|scope| {
            for lane in 1..=2u32 {
                scope.spawn(move || {
                    adopt(id, lane);
                    let _s = span(format!("morsel {lane}"), "task");
                    drop(_s);
                    flush_thread();
                });
            }
        });
        q.finish();
        uninstall_sink();
        let trace = sink
            .traces()
            .into_iter()
            .find(|t| t.name == "collect-test")
            .expect("trace delivered");
        assert_eq!(trace.trace_id, id);
        assert!(trace
            .spans
            .iter()
            .any(|s| s.name == "driver work" && s.lane == 0));
        assert!(trace
            .spans
            .iter()
            .any(|s| s.name == "morsel 1" && s.lane == 1));
        assert!(trace
            .spans
            .iter()
            .any(|s| s.name == "morsel 2" && s.lane == 2));
        assert_eq!(trace.max_lane(), 2);
    }

    #[test]
    fn nested_queries_are_passive() {
        let _serial = test_lock();
        let sink = Arc::new(RingSink::new(8));
        install_sink(sink.clone());
        let outer = begin_query("outer-test");
        let outer_id = outer.trace_id();
        assert_ne!(outer_id, 0);
        {
            let inner = begin_query("inner-test");
            assert_eq!(inner.trace_id(), 0);
            let _s = span("inner work", "phase");
            drop(_s);
            inner.finish();
        }
        // The inner span still belongs to the outer trace.
        outer.finish();
        uninstall_sink();
        let traces = sink.traces();
        assert!(traces.iter().all(|t| t.name != "inner-test"));
        let outer_trace = traces
            .iter()
            .find(|t| t.name == "outer-test")
            .expect("outer trace delivered");
        assert!(outer_trace.spans.iter().any(|s| s.name == "inner work"));
    }

    #[test]
    fn timing_guard_nests() {
        assert!(!timing_active() || TIMING.load(Ordering::Relaxed) > 0);
        let a = TimingGuard::new();
        assert!(timing_active());
        assert!(tracing_active());
        let b = TimingGuard::new();
        drop(a);
        assert!(timing_active());
        drop(b);
    }

    #[test]
    fn slow_query_threshold_arms_and_disarms() {
        let _serial = test_lock();
        set_slow_query_ms(Some(0));
        assert_eq!(slow_query_ms(), Some(0));
        assert!(tracing_active());
        let q = begin_query("slow-test");
        event("marker", "event");
        q.finish();
        assert!(slow_log()
            .traces()
            .iter()
            .any(|t| t.name == "slow-test" && t.spans.iter().any(|s| s.name == "marker")));
        set_slow_query_ms(None);
        assert_eq!(slow_query_ms(), None);
    }
}
