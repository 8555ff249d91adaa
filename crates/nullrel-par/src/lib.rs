//! # nullrel-par
//!
//! The morsel-driven parallel runtime of the `nullrel` workspace: plain
//! `std::thread` building blocks the physical engine (`nullrel-exec`)
//! targets when the cost model predicts a pipeline is worth fanning out.
//!
//! The crate deliberately knows nothing about logical plans, statistics, or
//! stats slots — it operates on owned tuple vectors and returns per-worker
//! counters the engine folds into its own `ExecStats`. Three layers:
//!
//! * [`pool`] — the schedulers: the query-lifetime [`QueryPool`] (a fixed
//!   set of persistent threads spawned once per query and shared by every
//!   parallel operator in its pipeline) and the scoped [`run_tasks`]
//!   fallback. Both pull task indices from a shared atomic counter
//!   (morsel-driven scheduling: work is claimed, never pre-assigned, so
//!   fast workers absorb skew).
//! * [`stage`] — embarrassingly parallel pipeline stages over morsels:
//!   three-valued filtering, projection, and the **partitioned minimise**
//!   (per-morsel local antichains merged by
//!   [`nullrel_core::lattice::hashed::merge_antichains`], which provably
//!   equals the serial reduction).
//! * [`join`] — partitioned equality joins: both inputs are split by the
//!   hash of the **normalized** join key (`Int(2)` and `Float(2.0)` land in
//!   the same partition, matching the engine's domain-aware equality), and
//!   every partition is built and probed independently. Covers the
//!   disjoint-scope [`join::par_hash_join`] and the shared-key
//!   [`join::par_equijoin`] (with the union-join's dangling-tuple pass).
//! * [`drain`] — the drain-heavy lattice operators (difference,
//!   x-intersection, division): one side becomes a shared read-only build
//!   structure, the probe side fans out in morsels on the pool.
//!
//! Determinism: given the same inputs, every entry point returns the same
//! rows in the same order regardless of thread count or scheduling — tasks
//! are concatenated in task order, not completion order. Degree-1 calls
//! run entirely on the caller's thread and spawn nothing.
//!
//! Thread-safety audit: the runtime only ever moves **owned** data
//! ([`Tuple`](nullrel_core::tuple::Tuple) vectors) into workers and shares
//! read-only [`Predicate`](nullrel_core::predicate::Predicate)s and
//! attribute sets by reference. `Value`, `Tuple`, `XRelation`, and
//! `Predicate` are plain data (`Send + Sync`), asserted at compile time in
//! this crate's tests; execution sources are *not* required to be `Sync` —
//! scans materialise on the coordinator thread before any fan-out.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod drain;
pub mod join;
pub mod pool;
pub mod stage;

pub use drain::{par_difference, par_division, par_x_intersect};
pub use join::{par_equijoin, par_hash_join, JoinOutcome};
pub use pool::{run_tasks, run_tasks_labeled, QueryPool, TaskFn, WorkerCounter};
pub use stage::{
    adaptive_morsel_rows, morsels, par_filter, par_minimize, par_project, StageOutcome,
    DEFAULT_MORSEL_ROWS, MIN_MORSEL_ROWS,
};

/// The degree-of-parallelism knob: how many worker threads an engine may
/// fan a pipeline stage out onto. The engine still gates each operator on
/// its cardinality estimate — the knob is a ceiling, not a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-threaded execution (the byte-identical serial engine), and
    /// the default.
    #[default]
    Serial,
    /// Up to `n` worker threads per parallel operator. `Threads(0)` and
    /// `Threads(1)` are equivalent to [`Parallelism::Serial`].
    Threads(usize),
}

/// Ceiling on the worker count any `NULLREL_THREADS` value can request.
/// An absurdly large setting (`NULLREL_THREADS=999999`) must not translate
/// into hundreds of thousands of scoped thread spawns per operator; the
/// morsel scheduler additionally never spawns more workers than it has
/// tasks, so the effective degree is `min(cap, tasks)`.
pub const MAX_THREADS: usize = 256;

impl Parallelism {
    /// The effective worker count (always at least 1).
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
        }
    }

    /// True when this knob permits fanning out at all.
    pub fn is_parallel(self) -> bool {
        self.threads() > 1
    }

    /// Parses a `NULLREL_THREADS`-style value. The documented fallback
    /// behavior, asserted by this crate's tests:
    ///
    /// * missing value, empty/whitespace string, garbage (`"abc"`,
    ///   `"-3"`, `"2.5"`, numbers past `usize`) → [`Parallelism::Serial`]
    ///   — a misconfigured knob degrades to the safe serial engine, never
    ///   to an error;
    /// * `"0"` and `"1"` → [`Parallelism::Serial`] (one worker *is* the
    ///   serial engine, byte-identical plans included);
    /// * `n ≥ 2` → `Threads(min(n, `[`MAX_THREADS`]`))` — absurdly large
    ///   values are clamped rather than honoured.
    ///
    /// Surrounding whitespace is tolerated (`" 4 "` parses as 4).
    pub fn parse(value: Option<&str>) -> Self {
        match value.and_then(|v| v.trim().parse::<usize>().ok()) {
            Some(n) if n > 1 => Parallelism::Threads(n.min(MAX_THREADS)),
            _ => Parallelism::Serial,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workspace's thread-safety audit: everything the runtime moves
    /// into or shares across workers is plain data.
    #[test]
    fn core_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<nullrel_core::value::Value>();
        assert_send_sync::<nullrel_core::tuple::Tuple>();
        assert_send_sync::<nullrel_core::xrel::XRelation>();
        assert_send_sync::<nullrel_core::predicate::Predicate>();
        assert_send_sync::<nullrel_core::universe::AttrSet>();
    }

    #[test]
    fn parallelism_knob_semantics() {
        assert_eq!(Parallelism::Serial.threads(), 1);
        assert_eq!(Parallelism::Threads(0).threads(), 1);
        assert_eq!(Parallelism::Threads(4).threads(), 4);
        assert!(!Parallelism::Threads(1).is_parallel());
        assert!(Parallelism::Threads(2).is_parallel());
    }

    /// Satellite: the documented `NULLREL_THREADS` fallback behavior, case
    /// by case, through the pure parser (no process-global environment
    /// mutation — tests in this binary run concurrently).
    #[test]
    fn thread_knob_parsing_edge_cases() {
        // Unset and empty degrade to the serial engine.
        assert_eq!(Parallelism::parse(None), Parallelism::Serial);
        assert_eq!(Parallelism::parse(Some("")), Parallelism::Serial);
        assert_eq!(Parallelism::parse(Some("   ")), Parallelism::Serial);
        // Zero and one *are* the serial engine.
        assert_eq!(Parallelism::parse(Some("0")), Parallelism::Serial);
        assert_eq!(Parallelism::parse(Some("1")), Parallelism::Serial);
        // Garbage degrades rather than erroring.
        for garbage in ["abc", "-3", "2.5", "4x", "0x10", "⁴"] {
            assert_eq!(
                Parallelism::parse(Some(garbage)),
                Parallelism::Serial,
                "{garbage:?}"
            );
        }
        // Numbers past usize::MAX fail to parse → serial.
        assert_eq!(
            Parallelism::parse(Some("340282366920938463463374607431768211456")),
            Parallelism::Serial
        );
        // Sane values pass through, whitespace tolerated.
        assert_eq!(Parallelism::parse(Some(" 4 ")), Parallelism::Threads(4));
        // Absurdly large values clamp to the documented ceiling.
        assert_eq!(
            Parallelism::parse(Some("999999")),
            Parallelism::Threads(MAX_THREADS)
        );
        assert_eq!(
            Parallelism::parse(Some(&usize::MAX.to_string())),
            Parallelism::Threads(MAX_THREADS)
        );
    }
}
