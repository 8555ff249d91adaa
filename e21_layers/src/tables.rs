//! The seeded database every workload runs against.
//!
//! `EMP` (12 000 rows), `MID` (2 000) and `SMALL` (200) share the e18 EMP
//! shape, keyed on `E#`, with every 7th `MGR#` left `ni`; `FACT` (2 000)
//! references three 100-row dimensions. The seed draws the `NAME` and
//! dimension payloads, never a row count, a key range or a null position:
//! Figure 2's result size moves 8 % with the phase of the nulls, and the
//! work a request does must be the same on every seed.

use nullrel_core::value::Value;
use nullrel_storage::{Database, SchemaBuilder};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Rows in `EMP`.
pub const EMP_ROWS: i64 = 12_000;
/// Rows in `MID`.
pub const MID_ROWS: i64 = 2_000;
/// Rows in `SMALL`.
pub const SMALL_ROWS: i64 = 200;
/// Rows in `FACT`.
pub const FACT_ROWS: i64 = 2_000;
/// Rows in each of `DIM0`..`DIM2`.
pub const DIM_ROWS: i64 = 100;
/// Keys at or above this value belong to `write_mix`'s churn rows; no
/// seeded row and no read predicate reaches them.
pub const CHURN_KEY_BASE: i64 = 1_000_000;

/// One in `NULL_PERIOD` `MGR#` cells is `ni`.
const NULL_PERIOD: i64 = 7;

fn emp_like(db: &mut Database, name: &str, rows: i64, rng: &mut StdRng) {
    db.create_table(
        SchemaBuilder::new(name)
            .required_column("E#")
            .column("NAME")
            .column("SEX")
            .column("MGR#")
            .key(&["E#"]),
    )
    .expect("fresh database");
    let u = db.universe().clone();
    let t = db.table_mut(name).expect("just created");
    for i in 0..rows {
        let mut cells = vec![
            ("E#", Value::int(i)),
            ("NAME", Value::int(rng.random_range(0..1_000_000) as i64)),
            ("SEX", Value::int(i % 2)),
        ];
        if i % NULL_PERIOD != 0 {
            cells.push(("MGR#", Value::int(i / 3)));
        }
        t.insert_named(&u, &cells).expect("valid row");
    }
}

/// Builds the benchmark database from `seed`.
pub fn build(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7461_626c_6573);
    let mut db = Database::new();
    emp_like(&mut db, "EMP", EMP_ROWS, &mut rng);
    emp_like(&mut db, "MID", MID_ROWS, &mut rng);
    emp_like(&mut db, "SMALL", SMALL_ROWS, &mut rng);
    for d in 0..3 {
        db.create_table(
            SchemaBuilder::new(format!("DIM{d}"))
                .required_column(format!("K{d}"))
                .column(format!("V{d}"))
                .key(&[&format!("K{d}")]),
        )
        .expect("fresh database");
    }
    db.create_table(
        SchemaBuilder::new("FACT")
            .required_column("F#")
            .column("FK0")
            .column("FK1")
            .column("FK2")
            .key(&["F#"]),
    )
    .expect("fresh database");
    let u = db.universe().clone();
    for d in 0..3 {
        let (key, val) = (format!("K{d}"), format!("V{d}"));
        let t = db.table_mut(&format!("DIM{d}")).expect("just created");
        for i in 0..DIM_ROWS {
            let v = Value::int(rng.random_range(0..1_000_000) as i64);
            t.insert_named(&u, &[(&key, Value::int(i)), (&val, v)])
                .expect("valid row");
        }
        let k = u.lookup(&key).expect("interned");
        t.create_index(vec![k]).expect("indexable");
    }
    let t = db.table_mut("FACT").expect("just created");
    for i in 0..FACT_ROWS {
        t.insert_named(
            &u,
            &[
                ("F#", Value::int(i)),
                ("FK0", Value::int(i % DIM_ROWS)),
                ("FK1", Value::int((i + 1) % DIM_ROWS)),
                ("FK2", Value::int((i + 2) % DIM_ROWS)),
            ],
        )
        .expect("valid row");
    }
    db
}
