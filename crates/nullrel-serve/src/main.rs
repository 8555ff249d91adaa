//! The `nullrel-serve` binary: loads an optional schema/data script,
//! binds the configured address, and serves until interrupted.
//!
//! ```text
//! NULLREL_SERVE_ADDR=127.0.0.1:7878 NULLREL_SERVE_THREADS=8 nullrel-serve [script.txt]
//! ```
//!
//! Its settings come from the `NULLREL_*` variables listed in
//! [`nullrel_serve::env`].
//!
//! Each optional argument is a `NAME=FILE` pair loading one relation in
//! the `nullrel-storage` loader's whitespace-table format (header line of
//! column names, `-` for `ni`) as table `NAME`. Without arguments, the
//! server starts on the paper's Table II `EMP` example so there is
//! something to query.

use std::sync::Arc;

use nullrel_core::value::Value;
use nullrel_storage::{Database, SchemaBuilder, VersionedDatabase};

fn table_ii_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        SchemaBuilder::new("EMP")
            .required_column("E#")
            .column("NAME")
            .column("SEX")
            .column("MGR#")
            .column("TEL#")
            .key(&["E#"]),
    )
    .expect("seed schema");
    let u = db.universe().clone();
    let t = db.table_mut("EMP").expect("seed table");
    for (e, n, s, m) in [
        (1120, "SMITH", "M", 2235),
        (4335, "BROWN", "F", 2235),
        (8799, "GREEN", "M", 1255),
    ] {
        t.insert_named(
            &u,
            &[
                ("E#", Value::int(e)),
                ("NAME", Value::str(n)),
                ("SEX", Value::str(s)),
                ("MGR#", Value::int(m)),
            ],
        )
        .expect("seed row");
    }
    db
}

fn load_table(db: &mut Database, spec: &str) {
    let (name, path) = spec
        .split_once('=')
        .unwrap_or_else(|| panic!("expected NAME=FILE, got {spec}"));
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let relation = nullrel_storage::loader::parse_relation(db.universe_mut(), &text)
        .unwrap_or_else(|e| panic!("cannot parse {path}: {e}"));
    let mut builder = SchemaBuilder::new(name);
    for attr in relation.attrs() {
        let column = db.universe().name(*attr).expect("just interned").to_owned();
        builder = builder.column(column);
    }
    db.create_table(builder)
        .unwrap_or_else(|e| panic!("cannot create {name}: {e}"));
    let table = db.table_mut(name).expect("just created");
    for tuple in relation.tuples() {
        table
            .insert(tuple.clone())
            .unwrap_or_else(|e| panic!("cannot load {name}: {e}"));
    }
}

fn seed_db(specs: &[String]) -> Database {
    if specs.is_empty() {
        table_ii_db()
    } else {
        let mut db = Database::new();
        for spec in specs {
            load_table(&mut db, spec);
        }
        db
    }
}

fn main() {
    let settings = nullrel_serve::env::Settings::from_env();
    nullrel_obs::set_slow_query_ms(settings.slow_ms);
    nullrel_obs::recorder::set_recording(settings.recording);
    let config = settings.serve;
    let specs: Vec<String> = std::env::args().skip(1).collect();
    let vdb = match &config.data_dir {
        // Durable: recover whatever the directory holds (snapshot + WAL
        // replay). Seed the example tables only into a *fresh* directory —
        // a recovered database already has its state, possibly evolved
        // far from the seed.
        Some(dir) => {
            let vdb =
                VersionedDatabase::open_with(dir, settings.fsync, settings.snapshot_wal_bytes)
                    .unwrap_or_else(|e| panic!("cannot open data dir {}: {e}", dir.display()));
            if vdb.pin().db().table_names().is_empty() {
                let seed = seed_db(&specs);
                vdb.commit(move |db| {
                    *db = seed;
                    Ok(())
                })
                .expect("seed durable database");
            }
            Arc::new(vdb)
        }
        None => Arc::new(VersionedDatabase::new(seed_db(&specs))),
    };
    let durable = vdb.durability_status();
    let handle = nullrel_serve::start(vdb, config).expect("bind query service");
    eprintln!(
        "nullrel-serve listening on {} ({} tables, epoch {}{})",
        handle.addr(),
        handle.database().pin().db().table_names().len(),
        handle.database().epoch(),
        match &durable {
            Some(d) => format!(", durable at {}", d.data_dir.display()),
            None => String::new(),
        }
    );
    // Serve until killed: the accept loop and workers own the process.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
