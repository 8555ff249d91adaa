//! Morsel-parallel pipeline stages: filter, project, and the partitioned
//! minimise.
//!
//! Each stage splits its input into contiguous morsels, runs the per-morsel
//! work on the [`pool`](crate::pool) scheduler, and concatenates the morsel
//! outputs in order — so results are identical to the serial stage at every
//! degree of parallelism. The minimise stage additionally merges the
//! per-morsel local antichains with
//! [`nullrel_core::lattice::hashed::merge_antichains`], which equals the
//! serial global reduction for every partitioning of the input.

use std::sync::Arc;

use nullrel_core::error::CoreResult;
use nullrel_core::lattice::hashed::{merge_antichains, minimal};
use nullrel_core::predicate::Predicate;
use nullrel_core::tuple::Tuple;
use nullrel_core::tvl::Truth;
use nullrel_core::universe::AttrSet;

use crate::pool::{QueryPool, WorkerCounter};

/// Default morsel granularity, in rows. Small enough that a handful of
/// workers load-balance even on mid-sized inputs, large enough that the
/// per-task scheduling cost disappears in the per-row work.
pub const DEFAULT_MORSEL_ROWS: usize = 1024;

/// Smallest useful morsel: below this, scheduling costs drown the
/// per-row work.
pub const MIN_MORSEL_ROWS: usize = 64;

/// Morsel granularity adapted to an input size and worker count: aims for
/// a few morsels per worker (so mid-size inputs genuinely fan out and
/// skew load-balances), clamped to `[MIN_MORSEL_ROWS, DEFAULT_MORSEL_ROWS]`.
/// The engine's parallel operators use this; the fixed-granularity entry
/// points remain for callers that want explicit control.
pub fn adaptive_morsel_rows(len: usize, threads: usize) -> usize {
    let target_tasks = threads.max(1) * 4;
    len.div_ceil(target_tasks.max(1))
        .clamp(MIN_MORSEL_ROWS, DEFAULT_MORSEL_ROWS)
}

/// The output of a parallel stage: the produced rows (in deterministic
/// morsel order), the per-worker counters, and the stage's `ni`-band count.
#[derive(Debug, Clone, Default)]
pub struct StageOutcome {
    /// Rows the stage produced, concatenated in morsel order.
    pub rows: Vec<Tuple>,
    /// Per-worker row counters (one entry per worker that ran).
    pub workers: Vec<WorkerCounter>,
    /// Rows whose qualification evaluated to `ni` (filters only).
    pub ni_rows: usize,
}

/// Splits rows into contiguous morsels of at most `size` rows.
pub fn morsels(rows: Vec<Tuple>, size: usize) -> Vec<Vec<Tuple>> {
    let size = size.max(1);
    if rows.len() <= size {
        return vec![rows];
    }
    // Single pass moving each row exactly once — `split_off` per chunk
    // would re-copy the whole tail for every morsel (quadratic on large
    // scans).
    let mut out = Vec::with_capacity(rows.len().div_ceil(size));
    let mut it = rows.into_iter();
    loop {
        let chunk: Vec<Tuple> = it.by_ref().take(size).collect();
        if chunk.is_empty() {
            break;
        }
        out.push(chunk);
    }
    out
}

/// Three-valued selection over morsels: keeps the rows whose predicate
/// evaluates to `want`, counting the `ni` band exactly as the serial
/// `FilterOp` does.
pub fn par_filter(
    rows: Vec<Tuple>,
    predicate: &Predicate,
    want: Truth,
    pool: &QueryPool,
    morsel_rows: usize,
) -> CoreResult<StageOutcome> {
    let parts = morsels(rows, morsel_rows);
    let predicate = predicate.clone();
    let (outputs, workers) = pool.run(
        "filter",
        parts,
        Arc::new(move |_w, _i, part: Vec<Tuple>| {
            let rows_in = part.len();
            let mut kept = Vec::new();
            let mut ni = 0usize;
            for t in part {
                let truth = predicate.eval(&t)?;
                if truth.is_ni() {
                    ni += 1;
                }
                if truth == want {
                    kept.push(t);
                }
            }
            let rows_out = kept.len();
            Ok(((kept, ni), rows_in, rows_out))
        }),
    )?;
    let mut outcome = StageOutcome {
        workers,
        ..StageOutcome::default()
    };
    for (kept, ni) in outputs {
        outcome.rows.extend(kept);
        outcome.ni_rows += ni;
    }
    Ok(outcome)
}

/// Projection over morsels.
pub fn par_project(
    rows: Vec<Tuple>,
    attrs: &AttrSet,
    pool: &QueryPool,
    morsel_rows: usize,
) -> CoreResult<StageOutcome> {
    let parts = morsels(rows, morsel_rows);
    let attrs = attrs.clone();
    let (outputs, workers) = pool.run(
        "project",
        parts,
        Arc::new(move |_w, _i, part: Vec<Tuple>| {
            let rows_in = part.len();
            let projected: Vec<Tuple> = part.iter().map(|t| t.project(&attrs)).collect();
            Ok((projected, rows_in, rows_in))
        }),
    )?;
    Ok(StageOutcome {
        rows: outputs.into_iter().flatten().collect(),
        workers,
        ni_rows: 0,
    })
}

/// The partitioned minimise: every morsel is reduced to its local
/// antichain in parallel by the signature-hashed `minimal`, and the same
/// routine over the concatenated antichains (`merge_antichains`) yields
/// exactly the canonical minimal representation the serial sink emits.
pub fn par_minimize(
    rows: Vec<Tuple>,
    pool: &QueryPool,
    morsel_rows: usize,
) -> CoreResult<StageOutcome> {
    let parts = morsels(rows, morsel_rows);
    let (locals, workers) = pool.run(
        "minimize",
        parts,
        Arc::new(|_w, _i, part: Vec<Tuple>| {
            let rows_in = part.len();
            let antichain = minimal(part);
            let rows_out = antichain.len();
            Ok((antichain, rows_in, rows_out))
        }),
    )?;
    Ok(StageOutcome {
        rows: merge_antichains(locals),
        workers,
        ni_rows: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nullrel_core::tvl::CompareOp;
    use nullrel_core::universe::{attr_set, Universe};
    use nullrel_core::value::Value;
    use nullrel_core::xrel::is_antichain;

    fn rows(n: i64) -> (Universe, Vec<Tuple>) {
        let mut u = Universe::new();
        let a = u.intern("A");
        let b = u.intern("B");
        let rows = (0..n)
            .map(|i| {
                let t = Tuple::new().with(a, Value::int(i % 7));
                if i % 3 == 0 {
                    t // B stays ni: the maybe band of any B predicate
                } else {
                    t.with(b, Value::int(i))
                }
            })
            .collect();
        (u, rows)
    }

    #[test]
    fn par_filter_matches_serial_at_every_degree() {
        let (u, rows) = rows(500);
        let b = u.lookup("B").unwrap();
        let pred = Predicate::attr_const(b, CompareOp::Ge, 100);
        let serial: Vec<Tuple> = rows
            .iter()
            .filter(|t| pred.eval(t).unwrap() == Truth::True)
            .cloned()
            .collect();
        let ni = rows
            .iter()
            .filter(|t| pred.eval(t).unwrap().is_ni())
            .count();
        for threads in [1, 2, 4] {
            let pool = QueryPool::new(threads);
            let out = par_filter(rows.clone(), &pred, Truth::True, &pool, 64).unwrap();
            assert_eq!(out.rows, serial, "threads={threads}");
            assert_eq!(out.ni_rows, ni);
            assert_eq!(out.workers.iter().map(|w| w.rows_in).sum::<usize>(), 500);
        }
        // The MAYBE band flows through the same stage.
        let maybe = par_filter(rows, &pred, Truth::Ni, &QueryPool::new(4), 64).unwrap();
        assert_eq!(maybe.rows.len(), ni);
    }

    #[test]
    fn par_project_matches_serial() {
        let (u, rows) = rows(300);
        let a = u.lookup("A").unwrap();
        let keep = attr_set([a]);
        let serial: Vec<Tuple> = rows.iter().map(|t| t.project(&keep)).collect();
        for threads in [1, 4] {
            let pool = QueryPool::new(threads);
            let out = par_project(rows.clone(), &keep, &pool, 50).unwrap();
            assert_eq!(out.rows, serial);
        }
    }

    #[test]
    fn par_minimize_equals_global_minimal() {
        let (_u, mut rows) = rows(400);
        // Duplicates and dominated tuples across morsel boundaries.
        let extra = rows.clone();
        rows.extend(extra);
        let serial = minimal(rows.clone());
        for (threads, morsel) in [(1, 64), (2, 32), (4, 7), (4, 1024)] {
            let pool = QueryPool::new(threads);
            let out = par_minimize(rows.clone(), &pool, morsel).unwrap();
            assert_eq!(out.rows, serial, "threads={threads} morsel={morsel}");
            assert!(is_antichain(&out.rows));
        }
    }

    #[test]
    fn morsel_split_preserves_order_and_covers() {
        let (_u, rows) = rows(10);
        let parts = morsels(rows.clone(), 3);
        assert_eq!(parts.len(), 4);
        let glued: Vec<Tuple> = parts.into_iter().flatten().collect();
        assert_eq!(glued, rows);
        assert_eq!(morsels(Vec::new(), 3), vec![Vec::<Tuple>::new()]);
    }
}
