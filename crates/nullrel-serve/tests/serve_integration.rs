//! Loopback integration tests: a real `TcpListener` server, real client
//! sockets, the full wire protocol — QUEL/EXPLAIN/metrics round trips in
//! both truth bands, concurrent sessions, snapshot pinning under
//! concurrent commits, session-thread saturation behavior, and stopping
//! with a client still connected.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use nullrel_core::value::Value;
use nullrel_serve::{start, Client, ServeConfig};
use nullrel_storage::{Database, SchemaBuilder, VersionedDatabase};

const FIGURE_2_LIKE: &str = "range of e is EMP range of m is EMP retrieve (e.NAME) \
                             where m.SEX = \"M\" and e.MGR# = m.E#";

/// The e12 EMP shape at n=24 (every i%7==0 row has a ni MGR#).
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

fn serve() -> nullrel_serve::ServerHandle {
    start(
        Arc::new(VersionedDatabase::new(emp_db())),
        ServeConfig::pinned_for_tests(),
    )
    .expect("bind loopback server")
}

#[test]
fn quel_round_trips_in_both_bands() {
    let server = serve();
    let mut client = Client::connect(server.addr()).unwrap();

    let sure = client
        .send("QUEL range of e is EMP retrieve (e.NAME) where e.MGR# = 3")
        .unwrap()
        .unwrap();
    assert_eq!(sure[0], "rows=3");
    assert_eq!(sure[1], "e.NAME");
    assert!(sure.contains(&"EMP9".to_owned()), "{sure:?}");

    // The maybe band: rows whose MGR# is ni qualify possibly.
    let maybe = client
        .send("MAYBE range of e is EMP retrieve (e.NAME) where e.MGR# = 3")
        .unwrap()
        .unwrap();
    assert_eq!(maybe[0], "rows=4", "i %% 7 == 0 rows have ni MGR#");
    assert!(maybe.contains(&"EMP0".to_owned()), "{maybe:?}");

    // A join runs over the same session (prepared-cache misses then hits).
    let join = client
        .send(&format!("QUEL {FIGURE_2_LIKE}"))
        .unwrap()
        .unwrap();
    let join_again = client
        .send(&format!("QUEL {FIGURE_2_LIKE}"))
        .unwrap()
        .unwrap();
    assert_eq!(join, join_again);

    assert_eq!(client.send("QUIT").unwrap().unwrap(), Vec::<String>::new());
}

#[test]
fn algebra_expressions_run_over_the_wire() {
    let server = serve();
    let mut client = Client::connect(server.addr()).unwrap();
    let out = client
        .send("EXPR (project (NAME) (select (= SEX \"F\") (scan EMP)))")
        .unwrap()
        .unwrap();
    assert_eq!(out[0], "rows=12");
    assert!(out.contains(&"NAME=EMP1".to_owned()), "{out:?}");

    // Set difference through the s-expression surface: M minus M = empty.
    let empty = client
        .send("EXPR (diff (project (NAME) (select (= SEX \"M\") (scan EMP))) (project (NAME) (scan EMP)))")
        .unwrap()
        .unwrap();
    assert_eq!(empty, vec!["rows=0".to_owned()]);

    // The maybe band of a selection over the ni column.
    let maybe = client
        .send("EXPRMAYBE (project (E#) (select (> MGR# 0) (scan EMP)))")
        .unwrap()
        .unwrap();
    assert_eq!(maybe[0], "rows=4", "the ni-MGR# rows: {maybe:?}");
}

#[test]
fn explain_analyze_and_metrics_render_over_the_wire() {
    let server = serve();
    let mut client = Client::connect(server.addr()).unwrap();

    let explain = client
        .send(&format!("EXPLAIN {FIGURE_2_LIKE}"))
        .unwrap()
        .unwrap();
    let report = explain.join("\n");
    assert!(report.contains("HashJoin"), "{report}");
    assert!(report.contains("est="), "{report}");

    let analyze = client
        .send(&format!("ANALYZE {FIGURE_2_LIKE}"))
        .unwrap()
        .unwrap();
    let report = analyze.join("\n");
    assert!(report.contains("time="), "{report}");

    let metrics = client.send("METRICS").unwrap().unwrap();
    let text = metrics.join("\n");
    for metric in [
        "nullrel_serve_connections_total",
        "nullrel_serve_active_sessions",
        "nullrel_serve_requests_total",
        "nullrel_serve_quel_latency_us",
        "nullrel_commits_total",
        "nullrel_queries_executed_total",
    ] {
        assert!(text.contains(metric), "missing {metric} in METRICS output");
    }
}

#[test]
fn pinned_sessions_freeze_while_commits_land() {
    let server = serve();
    let mut reader = Client::connect(server.addr()).unwrap();
    let mut writer = Client::connect(server.addr()).unwrap();

    let pin = reader.send("PIN").unwrap().unwrap();
    assert_eq!(pin, vec!["pinned=0".to_owned()]);
    let frozen = reader
        .send("QUEL range of e is EMP retrieve (e.E#)")
        .unwrap()
        .unwrap();
    assert_eq!(frozen[0], "rows=24");

    // A writer session commits through the wire; the server epoch moves.
    let commit = writer
        .send("INSERT EMP E#=100 NAME=\"NEW\" SEX=\"M\" MGR#=3")
        .unwrap()
        .unwrap();
    assert_eq!(commit, vec!["epoch=1 rows=1".to_owned()]);
    let epoch = writer.send("EPOCH").unwrap().unwrap();
    assert_eq!(epoch[0], "epoch=1");

    // The pinned reader still sees epoch 0; after UNPIN it catches up.
    let still = reader
        .send("QUEL range of e is EMP retrieve (e.E#)")
        .unwrap()
        .unwrap();
    assert_eq!(still[0], "rows=24", "pinned snapshot is frozen");
    reader.send("UNPIN").unwrap().unwrap();
    let fresh = reader
        .send("QUEL range of e is EMP retrieve (e.E#)")
        .unwrap()
        .unwrap();
    assert_eq!(fresh[0], "rows=25");

    // DELETE commits too, and reports the affected-row count.
    let removed = writer.send("DELETE EMP E# = 100").unwrap().unwrap();
    assert_eq!(removed, vec!["epoch=2 rows=1".to_owned()]);
}

#[test]
fn concurrent_sessions_read_consistent_snapshots_while_a_writer_commits() {
    let server = serve();
    let addr = server.addr();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    // A writer thread commits inserts and deletes of the same row over and
    // over: every committed state has either 24 or 25 rows — never
    // anything in between, and never a torn read.
    let writer_stop = Arc::clone(&stop);
    let writer = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let mut commits = 0u32;
        while !writer_stop.load(std::sync::atomic::Ordering::Relaxed) {
            client
                .send("INSERT EMP E#=500 NAME=\"CHURN\" SEX=\"M\" MGR#=1")
                .unwrap()
                .unwrap();
            client.send("DELETE EMP E# = 500").unwrap().unwrap();
            commits += 2;
        }
        commits
    });

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut reads = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let out = client
                        .send("QUEL range of e is EMP retrieve (e.E#)")
                        .unwrap()
                        .unwrap();
                    assert!(
                        out[0] == "rows=24" || out[0] == "rows=25",
                        "torn read: {}",
                        out[0]
                    );
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    std::thread::sleep(std::time::Duration::from_millis(300));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let commits = writer.join().unwrap();
    let reads: u32 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(commits > 0, "writer made progress");
    assert!(reads > 0, "readers made progress");
    assert!(server.database().epoch() >= u64::from(commits));
}

#[test]
fn protocol_errors_never_kill_the_session() {
    let server = serve();
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.send("FROBNICATE").unwrap().is_err());
    assert!(client.send("QUEL garbage query").unwrap().is_err());
    assert!(client.send("EXPR (scan NOPE_UNBALANCED").unwrap().is_err());
    assert!(client.send("INSERT NOPE X=1").unwrap().is_err());
    // The session survives all of it.
    let out = client
        .send("QUEL range of e is EMP retrieve (e.SEX)")
        .unwrap()
        .unwrap();
    assert_eq!(out[0], "rows=2");
}

#[test]
fn sessions_beyond_the_worker_pool_queue_up() {
    // threads=4 in the test config; open more sessions than workers and
    // use them round-robin — the queued connections are served as earlier
    // sessions quit.
    let server = serve();
    let addr = server.addr();
    let mut clients: Vec<Client> = (0..4).map(|_| Client::connect(addr).unwrap()).collect();
    for client in &mut clients {
        let out = client
            .send("QUEL range of e is EMP retrieve (e.SEX)")
            .unwrap()
            .unwrap();
        assert_eq!(out[0], "rows=2");
    }
    // A fifth connection waits in the accept queue until a worker frees.
    let mut fifth = Client::connect(addr).unwrap();
    clients.remove(0).send("QUIT").unwrap().unwrap();
    let out = fifth
        .send("QUEL range of e is EMP retrieve (e.SEX)")
        .unwrap()
        .unwrap();
    assert_eq!(out[0], "rows=2");
}

#[test]
fn stop_returns_with_an_idle_client_connected() {
    let server = serve();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"EPOCH\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let body: usize = line.trim().strip_prefix("OK ").unwrap().parse().unwrap();
    for _ in 0..body {
        reader.read_line(&mut line).unwrap();
    }

    // The session's worker now blocks reading the idle connection.
    let (stopped, done) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.stop();
        stopped.send(()).unwrap();
    });
    done.recv_timeout(Duration::from_secs(5))
        .expect("stop() returned within 5 s");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "client reads EOF");
}
