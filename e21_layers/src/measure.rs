//! The end-to-end pass: tracing off, requests over loopback TCP in a
//! closed loop, every reply checked, every metric a client would see.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use nullrel_core::tuple::Tuple;
use nullrel_core::value::Value;
use nullrel_serve::Client;
use nullrel_storage::{Database, VersionedDatabase};

use crate::env::{
    checked_read, checked_write, scratch_dir, seed_durable, Env, Options, Tally, FSYNC,
    SNAPSHOT_WAL_BYTES,
};
use crate::oracle::Expected;
use crate::report::{readings, RunResult};
use crate::stats::{self, over_rounds, Quiet};
use crate::workload::{Request, Writer};

/// Set-ups per run, spread evenly through it; `setup_s` is the fastest
/// and the first one is measured on.
const SETUPS: usize = 3;
/// How long a round reads before it finishes its stride and stops.
const ROUND: Duration = Duration::from_secs(1);
/// A round looks at the clock once per cycle of the weighted round-robin,
/// so every round holds the shapes in the same proportion; a longer cycle
/// (`lookup_small`'s 8192 lookups of one shape) looks every this many.
const MAX_STRIDE: usize = 64;
/// Commits a round of a workload without a concurrent writer ends with:
/// eight cycles of the writer's stream.
const ROUND_COMMITS: usize = 40;
/// Records in the WAL tail of the recovery fixture, after its snapshot.
pub const RECOVERY_TAIL_COMMITS: usize = 64;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The latencies of one stream in one round, and how long they took.
struct Burst {
    latency_us: Vec<f64>,
    elapsed: Duration,
}

impl Burst {
    fn p50_us(&self) -> f64 {
        stats::percentile_sorted(&stats::sorted(&self.latency_us), 0.50)
    }

    fn ops_s(&self) -> f64 {
        self.latency_us.len() as f64 / self.elapsed.as_secs_f64()
    }
}

/// Reads from `*at` on through the cycle for [`ROUND`], then on to the end
/// of the stride.
fn read_round(
    client: &mut Client,
    cycle: &[Request],
    answers: &std::collections::HashMap<String, Expected>,
    at: &mut usize,
    tally: &mut Tally,
) -> Burst {
    let stride = cycle.len().min(MAX_STRIDE);
    let mut latency_us = Vec::new();
    let begin = Instant::now();
    while begin.elapsed() < ROUND {
        for _ in 0..stride {
            let line = &cycle[*at % cycle.len()].line;
            latency_us.push(us(checked_read(client, line, &answers[line], tally)));
            *at += 1;
        }
    }
    Burst {
        latency_us,
        elapsed: begin.elapsed(),
    }
}

/// Commits while `more` says so.
fn write_round(
    client: &mut Client,
    writer: &mut Writer,
    tally: &mut Tally,
    mut more: impl FnMut(usize) -> bool,
) -> Burst {
    let mut latency_us = Vec::new();
    let begin = Instant::now();
    while more(latency_us.len()) {
        latency_us.push(us(checked_write(client, writer, tally)));
    }
    Burst {
        latency_us,
        elapsed: begin.elapsed(),
    }
}

/// What `recovery_s` reopens: a closed data directory holding the seeded
/// tables as one snapshot plus a WAL tail of [`RECOVERY_TAIL_COMMITS`]
/// records of the writer's stream, the same bytes on every reopen of
/// every round. (The served directory cannot be closed between rounds.)
struct RecoveryFixture {
    dir: PathBuf,
    /// The writer that committed the tail: the acknowledged history.
    writer: Writer,
}

impl RecoveryFixture {
    fn build(out: &Path, workload: &str, seed_db: &Database, seed: u64) -> Result<Self, String> {
        let dir = scratch_dir(out, &format!("recovery_{workload}"))?;
        let vdb = seed_durable(&dir, seed_db, SNAPSHOT_WAL_BYTES)?;
        let mut writer = Writer::new(seed);
        for _ in 0..RECOVERY_TAIL_COMMITS {
            let op = writer.next_op();
            vdb.commit_ops(std::slice::from_ref(&op.op))
                .map_err(|e| format!("recovery fixture commit: {e}"))?;
        }
        Ok(RecoveryFixture { dir, writer })
    }

    fn reopen(&self) -> Result<(VersionedDatabase, Duration), String> {
        let begin = Instant::now();
        let recovered = VersionedDatabase::open_with(&self.dir, FSYNC, SNAPSHOT_WAL_BYTES)
            .map_err(|e| format!("reopen {}: {e}", self.dir.display()))?;
        Ok((recovered, begin.elapsed()))
    }
}

/// The churn rows the acknowledged history leaves in `EMP`.
fn live_churn_rows(seed_db: &Database, writer: &Writer) -> Vec<Tuple> {
    let emp = seed_db.table("EMP").expect("seeded");
    let attr = |name: &str| emp.schema().column_by_name(name).expect("EMP column").attr;
    writer
        .live_rows()
        .iter()
        .map(|(key, name)| {
            Tuple::new()
                .with(attr("E#"), Value::int(*key))
                .with(attr("NAME"), Value::int(*name))
                .with(attr("SEX"), Value::int(0))
                .with(attr("MGR#"), Value::int(-1))
        })
        .collect()
}

/// Compares a reopened store with the seeded state plus the acknowledged
/// history: one epoch for the seeding commit and one per acknowledged
/// commit, every table's rows, and the churn rows still live in `EMP`.
fn verify_recovered(
    recovered: &VersionedDatabase,
    seed_db: &Database,
    writer: &Writer,
) -> Result<(), String> {
    let snapshot = recovered.pin();
    let want_epoch = 1 + writer.issued();
    if snapshot.epoch() != want_epoch {
        return Err(format!(
            "recovered epoch {} but {want_epoch} commits were acknowledged",
            snapshot.epoch()
        ));
    }
    let churn = live_churn_rows(seed_db, writer);
    for name in seed_db.table_names() {
        let mut got: Vec<&Tuple> = snapshot
            .db()
            .table(name)
            .map_err(|e| format!("recovered state lacks {name}: {e}"))?
            .rows()
            .collect();
        let mut want: Vec<&Tuple> = seed_db.table(name).expect("listed").rows().collect();
        if name == "EMP" {
            want.extend(&churn);
        }
        got.sort();
        want.sort();
        if got != want {
            return Err(format!(
                "recovered {name} holds {} rows that differ from the {} acknowledged",
                got.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

/// The reported value, then every round's in the order they ran, so a
/// burst shows as a run of slow rounds.
fn print_rounds(name: &str, unit: &str, per_round: &[f64], quiet: Quiet, samples: usize) -> f64 {
    let r = over_rounds(per_round, quiet);
    println!(
        "{name:<15} {:>12.4} {unit:<4} quartiles {:.4} {:.4} {:.4} of {samples} samples in {} rounds: {per_round:.4?}",
        r.value, r.quartiles[0], r.quartiles[1], r.quartiles[2], r.rounds
    );
    r.value
}

/// One stream over the whole run: the bounded metrics round by round, and
/// the 95th percentile of all its requests for the reader of the report.
/// The tail is not a bounded metric (see the README).
fn report_stream(prefix: &str, bursts: &[&Burst]) -> (f64, f64) {
    let all: Vec<f64> = bursts
        .iter()
        .flat_map(|b| b.latency_us.iter().copied())
        .collect();
    let per_round = |f: fn(&Burst) -> f64| bursts.iter().map(|b| f(b)).collect::<Vec<_>>();
    let p50 = print_rounds(
        &format!("{prefix}_p50_us"),
        "us",
        &per_round(Burst::p50_us),
        Quiet::Low,
        all.len(),
    );
    let ops = print_rounds(
        &format!("{prefix}_ops_s"),
        "1/s",
        &per_round(Burst::ops_s),
        Quiet::High,
        all.len(),
    );
    println!(
        "({prefix} p95)      {:>12.3} us   of all {} samples{}",
        stats::percentile_sorted(&stats::sorted(&all), 0.95),
        all.len(),
        if stats::percentile_supported(all.len(), 0.95) {
            String::new()
        } else {
            format!(
                ": fewer than {} lie beyond it; read it as a maximum",
                stats::MIN_SAMPLES_BEYOND
            )
        }
    );
    (p50, ops)
}

/// What one round measured.
struct Round {
    reads: Burst,
    writes: Burst,
    reopen_s: f64,
}

fn timed_setup(
    options: &Options,
    tag: &str,
    tally: &mut Tally,
    setup_s: &mut Vec<f64>,
) -> Result<Env, String> {
    let begin = Instant::now();
    let env = Env::setup(options, tag, tally)?;
    setup_s.push(begin.elapsed().as_secs_f64());
    Ok(env)
}

/// Runs one workload end to end and reports every end-to-end metric.
pub fn run(options: &Options) -> Result<RunResult, String> {
    let spec = options.workload;
    let rounds = options.seconds as usize;
    let mut tally = Tally::default();

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut env = timed_setup(options, "data", &mut tally, &mut setup_s)?;
    let fixture = RecoveryFixture::build(&options.out, spec.name, &env.seed_db, options.seed)?;
    let mut recovered_ok = true;

    let mut measured: Vec<Round> = Vec::with_capacity(rounds);
    let mut at = 0usize;
    for round in 0..rounds {
        // The other set-ups, a third and two thirds of the way through,
        // beside the server under measurement and gone before it reads on.
        if round == rounds * setup_s.len() / SETUPS {
            timed_setup(options, "again", &mut tally, &mut setup_s)?
                .shutdown()
                .remove_data_dir();
        }

        let (reads, beside) = match env.writer_conn.as_mut() {
            None => (
                read_round(
                    &mut env.reader,
                    &env.cycle,
                    &env.answers,
                    &mut at,
                    &mut tally,
                ),
                None,
            ),
            // The writer commits from the moment the reader starts until
            // it has finished its stride.
            Some(writer_conn) => {
                let (barrier, reading) = (Barrier::new(2), AtomicBool::new(true));
                let (reader, writer) = (&mut env.reader, &mut env.writer);
                let (cycle, answers, at) = (&env.cycle, &env.answers, &mut at);
                let mut reader_tally = Tally::default();
                let (reads, (writes, writer_tally)) = std::thread::scope(|scope| {
                    let writing = scope.spawn(|| {
                        let mut tally = Tally::default();
                        barrier.wait();
                        let writes = write_round(writer_conn, writer, &mut tally, |_| {
                            reading.load(Ordering::Relaxed)
                        });
                        (writes, tally)
                    });
                    barrier.wait();
                    let reads = read_round(reader, cycle, answers, at, &mut reader_tally);
                    reading.store(false, Ordering::Relaxed);
                    (reads, writing.join().expect("writer thread"))
                });
                tally.absorb(reader_tally);
                tally.absorb(writer_tally);
                (reads, Some(writes))
            }
        };

        // Without a concurrent writer the round's commits follow its
        // reads, on the same connection and the now idle server.
        let writes = match beside {
            Some(writes) => writes,
            None => write_round(&mut env.reader, &mut env.writer, &mut tally, |done| {
                done < ROUND_COMMITS
            }),
        };

        let (recovered, reopen) = fixture.reopen()?;
        if round == 0 {
            let verdict = verify_recovered(&recovered, &env.seed_db, &fixture.writer);
            recovered_ok &= verdict.is_ok();
            tally.record(verdict.is_ok(), || verdict.unwrap_err());
        }
        measured.push(Round {
            reads,
            writes,
            reopen_s: reopen.as_secs_f64(),
        });
    }
    let _ = std::fs::remove_dir_all(&fixture.dir);

    // Every commit the server acknowledged must survive its restart.
    let down = env.shutdown();
    let recovered = VersionedDatabase::open_with(&down.data_dir, FSYNC, SNAPSHOT_WAL_BYTES)
        .map_err(|e| format!("reopen {}: {e}", down.data_dir.display()))?;
    let verdict = verify_recovered(&recovered, &down.seed_db, &down.writer);
    recovered_ok &= verdict.is_ok();
    tally.record(verdict.is_ok(), || verdict.unwrap_err());
    drop(recovered);
    down.remove_data_dir();

    println!(
        "workload {} seed {}: {rounds} rounds of {} s, {} connection(s), closed loop",
        spec.name,
        options.seed,
        ROUND.as_secs(),
        if spec.concurrent_writer { 2 } else { 1 }
    );
    let setup = over_rounds(&setup_s, Quiet::Low).value;
    println!("setup_s         {setup:>12.4} s    fastest of {setup_s:.3?}");
    let (read_p50, read_ops) = report_stream(
        "read",
        &measured.iter().map(|r| &r.reads).collect::<Vec<_>>(),
    );
    let (write_p50, write_ops) = report_stream(
        "write",
        &measured.iter().map(|r| &r.writes).collect::<Vec<_>>(),
    );
    let recovery = print_rounds(
        "recovery_s",
        "s",
        &measured.iter().map(|r| r.reopen_s).collect::<Vec<_>>(),
        Quiet::Low,
        rounds,
    );
    println!(
        "operations: {} attempted, {} failed; recovered states {} the acknowledged histories",
        tally.attempted,
        tally.failed,
        if recovered_ok { "equal" } else { "DIFFER FROM" }
    );
    for example in &tally.examples {
        println!("  failed: {example}");
    }

    let values = [
        ("setup_s", setup),
        ("read_p50_us", read_p50),
        ("read_ops_s", read_ops),
        ("write_p50_us", write_p50),
        ("write_ops_s", write_ops),
        ("recovery_s", recovery),
    ];
    let metrics = readings(
        crate::spec::END_TO_END.iter().map(|m| (m.name, m.unit)),
        |name| values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v),
    );
    Ok(RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}
