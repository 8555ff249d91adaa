//! # nullrel
//!
//! Facade crate for the reproduction of Carlo Zaniolo's *Database Relations
//! with Null Values* (PODS 1982 / JCSS 1984). It re-exports the four
//! component crates under short names and hosts the repository-level
//! examples (`examples/`) and cross-crate integration tests (`tests/`).
//!
//! * [`core`] — no-information nulls, x-relations, the lattice, and the
//!   generalized relational algebra (the paper's contribution).
//! * [`codd`] — the baselines: classical total relations, Codd's TRUE/MAYBE
//!   algebra, and the null substitution principle.
//! * [`storage`] — the in-memory database substrate (catalog, tables,
//!   schema evolution, indexes, incremental statistics).
//! * [`stats`] — the truth-band-aware statistics catalog and the
//!   cardinality estimator feeding the cost-based optimizer.
//! * [`exec`] — the pipelined physical execution engine: cost-based
//!   optimizer (join-order enumeration, index selection, hash vs
//!   index-nested-loop joins), catalog access paths, streaming
//!   minimisation.
//! * [`par`] — the morsel-driven parallel runtime: worker-pool scheduler,
//!   partitioned hash/equi/union joins by normalized key hash, and the
//!   partitioned `Minimize` reduction (local antichains + cross-partition
//!   subsumption merge).
//! * [`query`] — the QUEL-subset front-end with `ni` lower-bound evaluation
//!   (run through the engine) and the "unknown"-interpretation baseline
//!   with tautology detection.
//! * [`obs`] — the observability layer: query-lifecycle tracing with
//!   chrome://tracing export, the lock-free engine metrics registry, and
//!   the per-tuple timing behind `EXPLAIN ANALYZE`.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and the
//! experiment index, and `EXPERIMENTS.md` for paper-vs-measured results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use nullrel_codd as codd;
pub use nullrel_core as core;
pub use nullrel_exec as exec;
pub use nullrel_obs as obs;
pub use nullrel_par as par;
pub use nullrel_query as query;
pub use nullrel_stats as stats;
pub use nullrel_storage as storage;

/// The most commonly used items from every layer, for examples and tests.
pub mod prelude {
    pub use nullrel_core::prelude::*;
    pub use nullrel_exec::OptimizeOptions;
    pub use nullrel_query::{execute_unknown, parse, run};
    pub use nullrel_storage::{Database, SchemaBuilder};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_usable() {
        use crate::prelude::*;
        let mut db = Database::new();
        db.create_table(SchemaBuilder::new("T").column("A"))
            .unwrap();
        let a = db.universe().lookup("A").unwrap();
        let rel = XRelation::from_tuples([Tuple::new().with(a, Value::int(1))]);
        assert_eq!(rel.len(), 1);
    }
}
