//! The `nullrel-serve` binary's settings, read from its environment in
//! one place. Library `Default`s are pure; the ten `NULLREL_*` knobs read
//! here are the binary's inputs. Each is parsed by the parser its crate
//! exports, and unset, empty or unparsable values fall back to that
//! crate's default. The README's Configuration table lists them.

use std::path::PathBuf;

use nullrel_exec::{OptimizeOptions, Parallelism};
use nullrel_obs::parse_slow_ms;
use nullrel_storage::version::parse_snapshot_wal_bytes;
use nullrel_storage::FsyncMode;

use crate::{parse_max_staleness, parse_threads, ServeConfig, DEFAULT_ADDR};

/// Everything the binary reads from its environment, as typed values.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The query service's configuration, engine options included.
    pub serve: ServeConfig,
    /// The flush policy a data directory is opened with.
    pub fsync: FsyncMode,
    /// WAL size that triggers a full snapshot (0 = after every commit).
    pub snapshot_wal_bytes: u64,
    /// The slow-query threshold, for [`nullrel_obs::set_slow_query_ms`].
    pub slow_ms: Option<u64>,
    /// Whether the flight recorder records, for
    /// [`nullrel_obs::recorder::set_recording`].
    pub recording: bool,
}

impl Settings {
    /// Maps each knob `lookup` returns to its typed value. Pure: the
    /// process environment is read only through `lookup`.
    pub fn from_lookup(lookup: &dyn Fn(&str) -> Option<String>) -> Settings {
        // A path or an address: trimmed, and empty means unset.
        let text = |name| {
            lookup(name)
                .map(|v: String| v.trim().to_owned())
                .filter(|v| !v.is_empty())
        };
        Settings {
            serve: ServeConfig {
                addr: text("NULLREL_SERVE_ADDR").unwrap_or_else(|| DEFAULT_ADDR.to_owned()),
                threads: parse_threads(lookup("NULLREL_SERVE_THREADS").as_deref()),
                max_staleness: parse_max_staleness(
                    lookup("NULLREL_SERVE_MAX_STALENESS").as_deref(),
                ),
                data_dir: text("NULLREL_DATA_DIR").map(PathBuf::from),
                options: OptimizeOptions {
                    parallelism: Parallelism::parse(lookup("NULLREL_THREADS").as_deref()),
                    adaptive: OptimizeOptions::adaptive_from(lookup("NULLREL_ADAPTIVE").as_deref()),
                    ..OptimizeOptions::default()
                },
            },
            fsync: FsyncMode::parse(lookup("NULLREL_FSYNC").as_deref()),
            snapshot_wal_bytes: parse_snapshot_wal_bytes(
                lookup("NULLREL_SNAPSHOT_WAL_BYTES").as_deref(),
            ),
            slow_ms: parse_slow_ms(lookup("NULLREL_SLOW_MS").as_deref()),
            recording: lookup("NULLREL_RECORDER").is_none_or(|v| v.trim() != "0"),
        }
    }

    /// [`Settings::from_lookup`] over the process environment.
    pub fn from_env() -> Settings {
        Settings::from_lookup(&|name| std::env::var(name).ok())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use nullrel_exec::DEFAULT_BATCH_ROWS;
    use nullrel_par::MAX_THREADS;
    use nullrel_storage::version::DEFAULT_SNAPSHOT_WAL_BYTES;

    use super::*;
    use crate::{DEFAULT_MAX_STALENESS, DEFAULT_THREADS, MAX_SERVE_THREADS};

    const KNOBS: [&str; 10] = [
        "NULLREL_THREADS",
        "NULLREL_ADAPTIVE",
        "NULLREL_SLOW_MS",
        "NULLREL_RECORDER",
        "NULLREL_FSYNC",
        "NULLREL_SNAPSHOT_WAL_BYTES",
        "NULLREL_SERVE_ADDR",
        "NULLREL_SERVE_THREADS",
        "NULLREL_SERVE_MAX_STALENESS",
        "NULLREL_DATA_DIR",
    ];

    /// The settings a map of variables yields; the process environment is
    /// never touched.
    fn settings(vars: &[(&str, &str)]) -> Settings {
        let vars: HashMap<String, String> = vars
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Settings::from_lookup(&|name| vars.get(name).cloned())
    }

    /// `Settings` holds no `PartialEq` types; their debug renderings
    /// compare every field.
    fn same(a: &Settings, b: &Settings) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    #[test]
    fn unset_knobs_are_the_library_defaults() {
        let s = settings(&[]);
        assert_eq!(s.serve.addr, DEFAULT_ADDR);
        assert_eq!(s.serve.threads, DEFAULT_THREADS);
        assert_eq!(s.serve.max_staleness, DEFAULT_MAX_STALENESS);
        assert_eq!(s.serve.data_dir, None);
        assert_eq!(s.serve.options.parallelism, Parallelism::Serial);
        assert_eq!(s.serve.options.adaptive, None);
        assert_eq!(s.serve.options.batch_size, DEFAULT_BATCH_ROWS);
        assert_eq!(s.fsync, FsyncMode::CommitBatch);
        assert_eq!(s.snapshot_wal_bytes, DEFAULT_SNAPSHOT_WAL_BYTES);
        assert_eq!(s.slow_ms, None);
        assert!(s.recording);
    }

    #[test]
    fn empty_and_whitespace_values_mean_unset() {
        for blank in ["", "   ", "\t"] {
            let vars: Vec<(&str, &str)> = KNOBS.iter().map(|k| (*k, blank)).collect();
            assert!(same(&settings(&vars), &settings(&[])), "{blank:?}");
        }
    }

    #[test]
    fn garbage_numbers_fall_back_to_the_defaults() {
        let numeric = [
            "NULLREL_THREADS",
            "NULLREL_SLOW_MS",
            "NULLREL_RECORDER",
            "NULLREL_FSYNC",
            "NULLREL_SNAPSHOT_WAL_BYTES",
            "NULLREL_SERVE_THREADS",
            "NULLREL_SERVE_MAX_STALENESS",
        ];
        for junk in ["abc", "-3", "2.5", "4x", "0x10", "99999999999999999999999"] {
            let vars: Vec<(&str, &str)> = numeric.iter().map(|k| (*k, junk)).collect();
            assert!(same(&settings(&vars), &settings(&[])), "{junk:?}");
        }
        for junk in ["abc", "-3", "0.5", "inf", "NaN"] {
            let s = settings(&[("NULLREL_ADAPTIVE", junk)]);
            assert_eq!(s.serve.options.adaptive, None, "{junk:?}");
        }
    }

    #[test]
    fn each_knob_maps_to_its_typed_value() {
        let s = settings(&[
            ("NULLREL_THREADS", " 4 "),
            ("NULLREL_ADAPTIVE", " 2 "),
            ("NULLREL_SLOW_MS", " 25 "),
            ("NULLREL_RECORDER", " 0 "),
            ("NULLREL_FSYNC", " ALWAYS "),
            ("NULLREL_SNAPSHOT_WAL_BYTES", " 4096 "),
            ("NULLREL_SERVE_ADDR", " 0.0.0.0:7979 "),
            ("NULLREL_SERVE_THREADS", " 3 "),
            ("NULLREL_SERVE_MAX_STALENESS", " 7 "),
            ("NULLREL_DATA_DIR", " data/nullrel "),
        ]);
        assert_eq!(s.serve.options.parallelism, Parallelism::Threads(4));
        assert_eq!(s.serve.options.adaptive, Some(2.0));
        assert_eq!(s.slow_ms, Some(25));
        assert!(!s.recording);
        assert_eq!(s.fsync, FsyncMode::Always);
        assert_eq!(s.snapshot_wal_bytes, 4096);
        assert_eq!(s.serve.addr, "0.0.0.0:7979");
        assert_eq!(s.serve.threads, 3);
        assert_eq!(s.serve.max_staleness, 7);
        assert_eq!(s.serve.data_dir, Some(PathBuf::from("data/nullrel")));
        assert_eq!(s.serve.options.batch_size, DEFAULT_BATCH_ROWS);
    }

    #[test]
    fn boundary_values() {
        let knob = |name, value| settings(&[(name, value)]);
        // Zero: one worker is the serial engine, zero session workers is
        // no server (the default instead), zero staleness re-pins every
        // request, a zero WAL budget snapshots every commit, and a zero
        // slow-query threshold traces every query.
        assert_eq!(
            knob("NULLREL_THREADS", "0").serve.options.parallelism,
            Parallelism::Serial
        );
        assert_eq!(
            knob("NULLREL_THREADS", "1").serve.options.parallelism,
            Parallelism::Serial
        );
        assert_eq!(
            knob("NULLREL_SERVE_THREADS", "0").serve.threads,
            DEFAULT_THREADS
        );
        assert_eq!(knob("NULLREL_SERVE_THREADS", "1").serve.threads, 1);
        assert_eq!(
            knob("NULLREL_SERVE_MAX_STALENESS", "0").serve.max_staleness,
            0
        );
        assert_eq!(
            knob("NULLREL_SNAPSHOT_WAL_BYTES", "0").snapshot_wal_bytes,
            0
        );
        assert_eq!(knob("NULLREL_SLOW_MS", "0").slow_ms, Some(0));
        // Clamps: absurd thread counts are capped, not honoured.
        assert_eq!(
            knob("NULLREL_THREADS", "999999").serve.options.parallelism,
            Parallelism::Threads(MAX_THREADS)
        );
        assert_eq!(
            knob("NULLREL_SERVE_THREADS", "999999").serve.threads,
            MAX_SERVE_THREADS
        );
        // The slow log's disabled sentinel cannot be armed; the staleness
        // bound has no such sentinel.
        let max = u64::MAX.to_string();
        assert_eq!(knob("NULLREL_SLOW_MS", &max).slow_ms, None);
        assert_eq!(
            knob("NULLREL_SERVE_MAX_STALENESS", &max)
                .serve
                .max_staleness,
            u64::MAX
        );
        // q-errors are ratios ≥ 1, so 1 is the lowest threshold.
        assert_eq!(
            knob("NULLREL_ADAPTIVE", "1").serve.options.adaptive,
            Some(1.0)
        );
        // Only `0` switches the recorder off, and only the three spelled
        // policies change the flush mode.
        assert!(knob("NULLREL_RECORDER", "off").recording);
        assert!(knob("NULLREL_RECORDER", "1").recording);
        assert_eq!(knob("NULLREL_FSYNC", "off").fsync, FsyncMode::Off);
        assert_eq!(
            knob("NULLREL_FSYNC", "commit-batch").fsync,
            FsyncMode::CommitBatch
        );
        assert_eq!(
            knob("NULLREL_FSYNC", "sometimes").fsync,
            FsyncMode::CommitBatch
        );
    }

    /// The two deleted engine knobs are inert.
    #[test]
    fn vectorize_and_batch_size_variables_change_nothing() {
        for (name, value) in [
            ("NULLREL_VECTORIZE", "0"),
            ("NULLREL_VECTORIZE", "off"),
            ("NULLREL_BATCH_SIZE", "1"),
        ] {
            assert!(
                same(&settings(&[(name, value)]), &settings(&[])),
                "{name}={value}"
            );
        }
    }
}
