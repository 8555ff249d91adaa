//! Differential check of the flight recorder's workload log: run a
//! scripted mix of queries through the public entry points, tally what
//! happened naively on the side, and assert the recorder's aggregates
//! (execution counts, cumulative rows, latency-bucket populations, ring
//! ordering) match the replay exactly.
//!
//! One `#[test]` only: the recorder is process-wide, and a second test
//! running queries in parallel would fold records into the same log.

use std::collections::HashMap;

use nullrel::core::prelude::*;
use nullrel::exec::OptimizeOptions;
use nullrel::obs::recorder;
use nullrel::storage::{Database, SchemaBuilder};

fn emp_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        SchemaBuilder::new("EMP")
            .required_column("E#")
            .column("NAME")
            .column("MGR#")
            .key(&["E#"]),
    )
    .unwrap();
    let u = db.universe().clone();
    let t = db.table_mut("EMP").unwrap();
    for i in 0..24 {
        let mut cells = vec![
            ("E#", Value::int(i)),
            ("NAME", Value::str(format!("EMP{i}"))),
        ];
        if i % 7 != 0 {
            cells.push(("MGR#", Value::int(i / 3)));
        }
        t.insert_named(&u, &cells).unwrap();
    }
    db
}

#[test]
fn workload_log_matches_a_naive_replay() {
    let db = emp_db();
    recorder::set_recording(true);
    recorder::reset();

    // The scripted workload: (query text, band, times to run). Texts are
    // distinct shapes; the first runs with varied whitespace so the
    // normalizing fingerprint has to merge the copies.
    let script: &[(&str, bool, usize)] = &[
        (
            "range of e is EMP retrieve (e.NAME) where e.MGR# = 3",
            false,
            5,
        ),
        (
            "range of e is EMP retrieve (e.E#) where e.E# < 10",
            false,
            3,
        ),
        (
            "range of e is EMP range of m is EMP retrieve (e.NAME) \
             where e.MGR# = m.E# and m.E# > 2",
            false,
            2,
        ),
        (
            "range of e is EMP retrieve (e.NAME) where e.MGR# = 3",
            true,
            4,
        ),
    ];

    // The naive side: tally per *label* (the recorder fingerprints the
    // begin_query label, which a MAYBE-band `run` prefixes with "MAYBE").
    let mut expected: HashMap<u64, (u64, u64)> = HashMap::new(); // fp -> (count, rows)
    let mut run_order: Vec<u64> = Vec::new();
    for (text, maybe, times) in script {
        for i in 0..*times {
            // Vary the whitespace on every other run: same fingerprint.
            let variant = if i % 2 == 0 {
                text.to_string()
            } else {
                text.replace(' ', "  ")
            };
            let (rows, label) = if *maybe {
                let out = nullrel::query::run(
                    &db,
                    variant.as_str(),
                    Truth::Ni,
                    OptimizeOptions::default(),
                )
                .unwrap();
                (out.rows.len() as u64, format!("MAYBE {variant}"))
            } else {
                let out = nullrel::query::run(
                    &db,
                    variant.as_str(),
                    Truth::True,
                    OptimizeOptions::default(),
                )
                .unwrap();
                (out.rows.len() as u64, variant)
            };
            let (fp, _) = recorder::fingerprint(&label);
            let entry = expected.entry(fp).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += rows;
            run_order.push(fp);
        }
    }

    // Counts, cumulative rows, and bucket populations per shape.
    assert_eq!(recorder::stats().fingerprints, expected.len());
    for (fp, (count, rows)) in &expected {
        let entry = recorder::workload_entry(*fp)
            .unwrap_or_else(|| panic!("fingerprint {fp:x} missing from the workload log"));
        assert_eq!(entry.count, *count, "execution count for {}", entry.text);
        assert_eq!(entry.rows_out, *rows, "cumulative rows for {}", entry.text);
        assert_eq!(
            entry.buckets.iter().sum::<u64>(),
            *count,
            "every execution lands in exactly one latency bucket"
        );
        assert!(entry.max_us <= entry.total_us);
        assert!(entry.p50_us() <= entry.p95_us());
        assert!(entry.p95_us() <= entry.p99_us());
        assert!(!entry.last_plan.is_empty(), "plan recorded");
    }

    // The flight ring replays the exact execution order (newest first).
    let ring = recorder::recent(run_order.len() + 10);
    assert_eq!(ring.len(), run_order.len(), "one record per execution");
    for (record, fp) in ring.iter().zip(run_order.iter().rev()) {
        assert_eq!(record.fingerprint, *fp);
    }

    // TOP ranks by cumulative time and is consistent with the entries.
    let top = recorder::workload_top(expected.len());
    assert_eq!(top.len(), expected.len());
    assert!(top.windows(2).all(|w| w[0].total_us >= w[1].total_us));
    let ring_total: u64 = ring.iter().map(|r| r.total_us).sum();
    let top_total: u64 = top.iter().map(|e| e.total_us).sum();
    assert_eq!(ring_total, top_total, "ring and workload saw the same time");

    // MAYBE executions carry the band annotation.
    let maybe_records: Vec<_> = ring.iter().filter(|r| r.band == "MAYBE").collect();
    assert_eq!(maybe_records.len(), 4);
    assert!(maybe_records.iter().all(|r| r.text.starts_with("MAYBE ")));

    recorder::reset();
}
