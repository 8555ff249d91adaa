//! # nullrel-obs
//!
//! The observability layer of the `nullrel` workspace: structured spans
//! over the query lifecycle, a process-wide metrics registry, and a
//! chrome://tracing-compatible trace exporter — all built on `std` alone
//! (the workspace is offline; no tracing/metrics registry dependencies).
//!
//! The crate is a **leaf**: every engine crate (`nullrel-exec`,
//! `nullrel-par`, `nullrel-storage`, `nullrel-stats`, `nullrel-query`)
//! depends on it, and the future `nullrel-serve` query service and the
//! background maintenance daemon will report through it.
//!
//! ## Tracing
//!
//! * [`span`] returns a RAII guard that records a monotonic
//!   start/duration pair into a **lock-free per-thread span buffer** when
//!   it drops. When no recorder is active ([`tracing_active`] is false —
//!   one relaxed atomic load), span construction is a no-op: no clock is
//!   read, nothing allocates, nothing is buffered.
//! * [`begin_query`] opens a **query-scoped trace**: every span recorded
//!   on the query's thread — and on `nullrel-par` worker threads that
//!   [`adopt`] the trace — is tagged with the query's trace id. When the
//!   returned [`QueryTrace`] finishes (explicitly or on drop), the
//!   per-thread buffers are drained into a [`Trace`] and delivered to the
//!   installed [`TraceSink`].
//! * [`install_sink`] installs a process-wide sink ([`RingSink`] keeps
//!   the last N traces in memory); [`Trace::chrome_trace_json`] /
//!   [`Trace::write_chrome_trace`] export a trace in the chrome://tracing
//!   JSON event format, one lane per worker, so parallel morsel timelines
//!   render visually (open chrome://tracing or <https://ui.perfetto.dev>
//!   and load the file).
//! * The **slow-query log**: `NULLREL_SLOW_MS` (or
//!   [`set_slow_query_ms`]) arms span recording process-wide and records
//!   the full trace of any query at or over the threshold into the
//!   built-in [`slow_log`] ring buffer.
//!
//! ## Flight recorder
//!
//! The [`recorder`] module keeps an **always-on** per-query flight
//! record (fingerprint, truth band, phase breakdown, rows, parallelism,
//! memory peaks, total latency) in a bounded ring, folded into a
//! per-fingerprint **workload log** with p50/p95/p99 latency from the
//! shared fixed buckets. It is what the `nullrel-serve` wire commands
//! `TOP`/`SLOW`/`HEALTH` read. Unlike tracing it defaults to on
//! (`NULLREL_RECORDER=0` disables) and costs one thread-local record
//! plus one mutex push per query — bounded by the
//! `e19_recorder_overhead` bench at <2 %.
//!
//! ## Metrics
//!
//! [`metrics`] is a registry of static handles — atomic [`Counter`]s,
//! [`Gauge`]s, and fixed-bucket latency [`Histogram`]s — with **no locks
//! on the hot path** (the registry mutex is touched only by
//! [`metrics::render_prometheus`], [`metrics::snapshot`], and
//! registration). The engine catalog (queries executed, rows
//! scanned/minimized, hash-join builds/probes, morsels claimed per
//! worker, histogram rebuilds, reservoir staleness, adaptive re-opt
//! events, per-phase latency) is declared here and always on; additional
//! crates declare their own statics with [`register_counter!`] /
//! [`register_gauge!`] / [`register_histogram!`] and register them at
//! startup.
//!
//! ## Timing (`EXPLAIN ANALYZE`)
//!
//! Per-operator wall-clock instrumentation costs a clock read per
//! `next_tuple` call, so it is gated separately: a live [`TimingGuard`]
//! turns it on ([`timing_active`]), and `nullrel-query`'s
//! `explain` (in `ExplainMode::Analyzed`) holds one for the duration of
//! the analyzed run.
//! Plain tracing (sink installed, slow log armed) records only
//! coarse-grained spans — per phase, per pipeline, per worker, per morsel
//! task — and stays within the <3 % overhead budget asserted by the
//! `e16_tracing_overhead` bench.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod metrics;
pub mod recorder;
pub mod span;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, LaneCounter, MetricsSnapshot, Phase};
pub use recorder::{QueryRecord, RecorderStats, WorkloadEntry};
pub use span::{
    adopt, begin_query, current_trace, event, flush_thread, install_sink, parse_slow_ms, set_lane,
    set_slow_query_ms, slow_log, slow_query_ms, span, timing_active, tracing_active,
    uninstall_sink, QueryTrace, Span, TimingGuard, SLOW_LOG_CAP,
};
pub use trace::{RingSink, SpanRecord, Trace, TraceSink};

use std::time::{Duration, Instant};

/// Runs `f` as one lifecycle phase of the current query: the elapsed time
/// is observed into the phase's latency histogram (always — two clock
/// reads per phase per query) and recorded as a span when tracing is
/// active.
pub fn phase<T>(p: Phase, f: impl FnOnce() -> T) -> T {
    phase_timed(p, f).0
}

/// [`phase`] returning the measured duration alongside the result — the
/// shape `EXPLAIN ANALYZE` uses to print its per-phase breakdown.
pub fn phase_timed<T>(p: Phase, f: impl FnOnce() -> T) -> (T, Duration) {
    let recording = tracing_active();
    let start_us = recording.then(span::now_us);
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    metrics::phase_histogram(p).observe(elapsed.as_micros() as u64);
    recorder::note_phase(p, elapsed.as_micros() as u64);
    if let Some(start_us) = start_us {
        span::record_complete(
            p.name().to_owned(),
            "phase",
            start_us,
            elapsed.as_micros() as u64,
        );
    }
    (out, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn phase_records_latency_and_spans() {
        let _serial = span::test_lock();
        let before = metrics::phase_histogram(Phase::Parse).count();
        let sink = Arc::new(RingSink::new(4));
        install_sink(sink.clone());
        let q = begin_query("phase-test");
        let (out, dur) = phase_timed(Phase::Parse, || 7);
        q.finish();
        uninstall_sink();
        assert_eq!(out, 7);
        assert!(dur <= Duration::from_secs(1));
        assert!(metrics::phase_histogram(Phase::Parse).count() > before);
        let trace = sink
            .traces()
            .into_iter()
            .find(|t| t.name == "phase-test")
            .expect("query trace delivered to the sink");
        assert!(trace.spans.iter().any(|s| s.name == "parse"));
    }
}
