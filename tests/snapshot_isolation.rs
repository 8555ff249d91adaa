//! Snapshot-isolation property tests for the versioned storage layer
//! (PR 8): readers pinned to an epoch must see **exactly** the state a
//! serial replay of the commit prefix produces — byte-identical results,
//! in the TRUE and MAYBE bands, at engine threads ∈ {1, 4} — while a
//! writer thread races commits underneath them. Pinned snapshots must
//! also be *stable*: re-reading the same pin mid-churn returns the same
//! bytes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use nullrel::core::prelude::*;
use nullrel::exec::{OptimizeOptions, Parallelism};
use nullrel::query::{prepare, Prepared};
use nullrel::storage::{Database, SchemaBuilder, VersionedDatabase};

/// A query whose TRUE band (V = 1) and MAYBE band (ni V) both move as
/// the write script inserts and deletes rows.
const QUERY: &str = "range of t is T retrieve (t.E#, t.V) where t.V = 1";

/// One committed write: an insert (with a possibly-ni V) or a delete of
/// every row with the given key.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert { key: i64, val: Option<i64> },
    Delete { key: i64 },
}

fn arb_ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..4, 0i64..6, proptest::option::of(0i64..3)), 0..max).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(kind, key, val)| {
                    // Deletes a quarter of the time: the table keeps growing,
                    // so most epochs differ from their neighbours.
                    if kind == 0 {
                        Op::Delete { key }
                    } else {
                        Op::Insert { key, val }
                    }
                })
                .collect()
        },
    )
}

fn initial_db(rows: &[(i64, Option<i64>)]) -> Database {
    let mut db = Database::new();
    db.create_table(SchemaBuilder::new("T").required_column("E#").column("V"))
        .unwrap();
    let u = db.universe().clone();
    let t = db.table_mut("T").unwrap();
    for (key, val) in rows {
        let mut cells = vec![("E#", Value::int(*key))];
        if let Some(v) = val {
            cells.push(("V", Value::int(*v)));
        }
        t.insert_named(&u, &cells).unwrap();
    }
    db
}

fn apply(db: &mut Database, op: &Op) -> Result<(), nullrel::storage::StorageError> {
    let u = db.universe().clone();
    match op {
        Op::Insert { key, val } => {
            let mut cells = vec![("E#", Value::int(*key))];
            if let Some(v) = val {
                cells.push(("V", Value::int(*v)));
            }
            db.table_mut("T")?.insert_named(&u, &cells)
        }
        Op::Delete { key } => {
            let e = u.lookup("E#").expect("E# interned by the schema");
            db.table_mut("T")?
                .delete_where(&Predicate::attr_const(e, CompareOp::Eq, *key))
                .map(|_| ())
        }
    }
}

fn options(threads: usize) -> OptimizeOptions {
    OptimizeOptions {
        parallelism: if threads <= 1 {
            Parallelism::Serial
        } else {
            Parallelism::Threads(threads)
        },
        parallel_row_threshold: 0,
        adaptive: None,
        ..OptimizeOptions::default()
    }
}

/// Runs the prepared query on one database state and returns the result
/// as a minimal x-relation (the representation the equality is defined
/// over).
fn run(db: &Database, prepared: &Prepared, band: Truth, threads: usize) -> XRelation {
    let out = nullrel::query::run(db, prepared, band, options(threads)).expect("query runs");
    XRelation::from_tuples(out.rows)
}

/// The serial oracle: the expected result of every epoch, computed by
/// replaying the commit prefix on a fresh database — `expected[e]` is the
/// state after `ops[..e]`, per band.
fn replay_expected(
    initial: &[(i64, Option<i64>)],
    ops: &[Op],
    prepared: &Prepared,
) -> Vec<[XRelation; 2]> {
    let mut db = initial_db(initial);
    let mut expected = Vec::with_capacity(ops.len() + 1);
    expected.push([
        run(&db, prepared, Truth::True, 1),
        run(&db, prepared, Truth::Ni, 1),
    ]);
    for op in ops {
        apply(&mut db, op).unwrap();
        expected.push([
            run(&db, prepared, Truth::True, 1),
            run(&db, prepared, Truth::Ni, 1),
        ]);
    }
    expected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The keystone: while a writer commits a random script, concurrently
    /// pinned readers always observe exactly the serial replay of the
    /// epoch they pinned — both truth bands, both engine degrees — and a
    /// pin re-read under churn is byte-stable.
    #[test]
    fn pinned_readers_equal_serial_replay_under_concurrent_commits(
        initial in proptest::collection::vec((0i64..6, proptest::option::of(0i64..3)), 0..8),
        ops in arb_ops(12),
    ) {
        let prepared = Arc::new(prepare(&initial_db(&initial), QUERY).unwrap());
        let expected = Arc::new(replay_expected(&initial, &ops, &prepared));
        let vdb = Arc::new(VersionedDatabase::new(initial_db(&initial)));

        let done = Arc::new(AtomicBool::new(false));
        let writer = {
            let vdb = Arc::clone(&vdb);
            let done = Arc::clone(&done);
            let ops = ops.clone();
            std::thread::spawn(move || {
                for op in &ops {
                    vdb.commit(|db| apply(db, op)).unwrap();
                }
                done.store(true, Ordering::Release);
            })
        };

        let readers: Vec<_> = (0..2)
            .map(|_| {
                let vdb = Arc::clone(&vdb);
                let done = Arc::clone(&done);
                let expected = Arc::clone(&expected);
                let prepared = Arc::clone(&prepared);
                std::thread::spawn(move || {
                    let mut checked = 0usize;
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let snapshot = vdb.pin();
                        let epoch = snapshot.epoch() as usize;
                        for (b, band) in [Truth::True, Truth::Ni].into_iter().enumerate() {
                            for threads in [1usize, 4] {
                                let got = run(snapshot.db(), &prepared, band, threads);
                                assert_eq!(
                                    got, expected[epoch][b],
                                    "epoch {epoch} band {band:?} threads {threads}"
                                );
                            }
                        }
                        // Stability: the same pin re-reads identically even
                        // though newer epochs may have been published since.
                        let again = run(snapshot.db(), &prepared, Truth::True, 1);
                        assert_eq!(again, expected[epoch][0], "pin must be frozen");
                        checked += 1;
                        if finished {
                            return checked;
                        }
                    }
                })
            })
            .collect();

        writer.join().unwrap();
        for reader in readers {
            prop_assert!(reader.join().unwrap() > 0, "reader made progress");
        }
        prop_assert_eq!(vdb.epoch(), ops.len() as u64);
        // The final published state equals the full serial replay.
        let last = vdb.pin();
        prop_assert_eq!(
            run(last.db(), &prepared, Truth::True, 1),
            expected[ops.len()][0].clone()
        );
        prop_assert_eq!(
            run(last.db(), &prepared, Truth::Ni, 1),
            expected[ops.len()][1].clone()
        );
    }
}

/// Deterministic companion: two racing writers insert into disjoint key
/// ranges (commuting commits), so every reader-visible epoch count is
/// exact and the final state is order-independent. Readers pin across the
/// churn and assert monotone epochs plus torn-read-free row counts.
#[test]
fn commuting_writers_and_pinned_readers_never_tear() {
    let vdb = Arc::new(VersionedDatabase::new(initial_db(&[])));
    let prepared = Arc::new(prepare(vdb.pin().db(), "range of t is T retrieve (t.E#)").unwrap());
    const PER_WRITER: i64 = 25;

    let writers: Vec<_> = (0..2i64)
        .map(|w| {
            let vdb = Arc::clone(&vdb);
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    let key = w * 1000 + i;
                    vdb.commit(|db| apply(db, &Op::Insert { key, val: Some(1) }))
                        .unwrap();
                }
            })
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let vdb = Arc::clone(&vdb);
        let stop = Arc::clone(&stop);
        let prepared = Arc::clone(&prepared);
        std::thread::spawn(move || {
            let mut last_epoch = 0u64;
            while !stop.load(Ordering::Acquire) {
                let snapshot = vdb.pin();
                assert!(snapshot.epoch() >= last_epoch, "epochs are monotone");
                last_epoch = snapshot.epoch();
                // Every commit inserts exactly one row: a consistent
                // snapshot has exactly `epoch` rows — anything else is a
                // torn read.
                let rows = run(snapshot.db(), &prepared, Truth::True, 1).len() as u64;
                assert_eq!(rows, snapshot.epoch(), "rows must equal commits");
            }
        })
    };

    for writer in writers {
        writer.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    reader.join().unwrap();
    assert_eq!(vdb.epoch(), 2 * PER_WRITER as u64);
    assert_eq!(
        run(vdb.pin().db(), &prepared, Truth::True, 1).len(),
        2 * PER_WRITER as usize
    );
}
