//! Golden-file transcript of the wire-served debug surfaces: `TOP`,
//! `SLOW`, `TRACE LAST`, `HEALTH`, and `RESET STATS` as a client sees
//! them. Timing values are masked (`<n>us` → `Tus`, chrome `ts`/`dur` →
//! `T`); counts, fingerprints, and plan renderings are deterministic for
//! the scripted request sequence. Re-bless with `UPDATE_GOLDEN=1`.
//!
//! This file owns its test process (one `#[test]`): the flight recorder
//! and the slow-query log are process-wide, so the transcript is only
//! reproducible when nothing else runs queries in the same process.

use std::path::PathBuf;
use std::sync::Arc;

use nullrel_core::value::Value;
use nullrel_serve::{start, Client, ServeConfig};
use nullrel_storage::{Database, SchemaBuilder, VersionedDatabase};

const JOIN_QUERY: &str = "range of e is EMP range of m is EMP retrieve (e.NAME) \
                          where m.SEX = \"M\" and e.MGR# = m.E#";

const MAYBE_QUERY: &str = "range of e is EMP retrieve (e.NAME) where e.MGR# = 1";

/// The e12 EMP shape at n=24 — the same fixture as the explain snapshots.
fn emp_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        SchemaBuilder::new("EMP")
            .required_column("E#")
            .column("NAME")
            .column("SEX")
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
            ("SEX", Value::str(if i % 2 == 0 { "M" } else { "F" })),
        ];
        if i % 7 != 0 {
            cells.push(("MGR#", Value::int(i / 3)));
        }
        t.insert_named(&u, &cells).unwrap();
    }
    db
}

/// Masks `key=<digits>us` tokens and the `uptime_s=` reading.
fn mask_line(line: &str) -> String {
    line.split(' ')
        .map(|tok| {
            if let Some((key, value)) = tok.split_once('=') {
                if let Some(digits) = value.strip_suffix("us") {
                    if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
                        return format!("{key}=Tus");
                    }
                }
                if key == "uptime_s" && value.bytes().all(|b| b.is_ascii_digit()) {
                    return "uptime_s=T".to_owned();
                }
            }
            tok.to_owned()
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Masks one chrome-trace JSON line: timestamps and durations become
/// `T`, and instant events (sub-microsecond spans flip between instant
/// and interval across runs) are normalized to the interval form.
fn mask_trace_line(line: &str) -> String {
    let mut out = String::new();
    let mut rest = line;
    for key in ["\"ts\":", "\"dur\":"] {
        let mut masked = String::new();
        while let Some(pos) = rest.find(key) {
            let value_at = pos + key.len();
            let end = rest[value_at..]
                .find(|c: char| !c.is_ascii_digit())
                .map(|e| value_at + e)
                .unwrap_or(rest.len());
            masked.push_str(&rest[..value_at]);
            masked.push('T');
            rest = &rest[end..];
        }
        masked.push_str(rest);
        out = masked;
        rest = &out;
    }
    out.replace("\"ph\":\"i\",\"s\":\"t\"", "\"ph\":\"X\"")
        .replace(",\"dur\":T", "")
}

/// Compares against `tests/golden/<name>.txt`, rewriting the file
/// instead when `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden file {path:?} — run once with UPDATE_GOLDEN=1"));
    assert_eq!(
        expected, actual,
        "snapshot drift in {name} (re-bless with UPDATE_GOLDEN=1 if intended)"
    );
}

#[test]
fn debug_surfaces_over_the_wire() {
    // Arm the slow log at 0 ms so every request leaves a trace for
    // `TRACE LAST` (the server runs in this process).
    nullrel_obs::set_slow_query_ms(Some(0));
    let server = start(
        Arc::new(VersionedDatabase::new(emp_db())),
        ServeConfig::pinned_for_tests(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // The scripted session. `TOP 1`/`SLOW 1` ask for one entry because
    // only the dominant shape (the join, ~100× costlier than the control
    // commands around it) has a deterministic rank; further ranks order
    // by wall-clock and would flap. TRACE LAST follows the MAYBE request
    // directly, so the trace it serves is that request's.
    let script: &[&str] = &[
        "RESET STATS",
        &format!("QUEL {JOIN_QUERY}"),
        "TOP 1",
        "SLOW 1",
        &format!("QUEL {JOIN_QUERY}"),
        &format!("MAYBE {MAYBE_QUERY}"),
        "TRACE LAST",
        "HEALTH",
        "TOP five",
        "TRACE ALL",
    ];
    let mut transcript = String::new();
    for request in script {
        transcript.push_str(&format!("> {request}\n"));
        match client.send(request).unwrap() {
            Ok(lines) => {
                let trace = *request == "TRACE LAST";
                for line in &lines {
                    let masked = if trace {
                        mask_trace_line(line)
                    } else {
                        mask_line(line)
                    };
                    transcript.push_str(&masked);
                    transcript.push('\n');
                }
            }
            Err(message) => transcript.push_str(&format!("ERR {message}\n")),
        }
    }
    check_golden("debug_surfaces_over_the_wire", &transcript);

    // Differential (non-golden) checks against the recorder directly:
    // the served records carry the session annotations.
    let recent = nullrel_obs::recorder::recent(16);
    let (join_fp, _) = nullrel_obs::recorder::fingerprint(&format!("QUEL {JOIN_QUERY}"));
    let joins: Vec<_> = recent.iter().filter(|r| r.fingerprint == join_fp).collect();
    assert_eq!(joins.len(), 2, "both join executions recorded");
    // `recent` is newest-first: the replay hit the prepared cache, the
    // first execution planned from scratch.
    assert!(joins[0].prepared_hit && !joins[1].prepared_hit);
    assert!(joins.iter().all(|r| r.epoch == Some(0)));
    assert!(joins.iter().all(|r| r.band == "TRUE"));
    let maybe = recent
        .iter()
        .find(|r| r.text.starts_with("MAYBE"))
        .expect("MAYBE request recorded");
    assert_eq!(maybe.band, "MAYBE");

    // An algebra expression runs through the same entry point as QUEL, so
    // its record carries the band, the result size and the plan too.
    let lines = client
        .send("EXPRMAYBE (select (= MGR# 1) (scan EMP))")
        .unwrap()
        .unwrap();
    let rows: u64 = lines[0].strip_prefix("rows=").unwrap().parse().unwrap();
    let record = &nullrel_obs::recorder::recent(1)[0];
    assert!(record.text.starts_with("EXPRMAYBE"), "{}", record.text);
    assert_eq!(record.band, "MAYBE");
    assert_eq!(record.rows_out, rows);
    assert!(!record.plan.is_empty());

    nullrel_obs::set_slow_query_ms(None);
    // Close the connection first: `stop` joins the workers, and one still
    // blocked reading an open client would never return.
    drop(client);
    server.stop();
}
