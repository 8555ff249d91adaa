//! Set-up: the seeded tables, the oracle's answers, a durable data
//! directory, the in-process server, and warmed-up connections. Both
//! passes start from here, and `setup_s` is the time this takes.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nullrel_serve::{start, Client, ServeConfig, ServerHandle};
use nullrel_storage::{Database, FsyncMode, VersionedDatabase};

use crate::oracle::Expected;
use crate::workload::{self, Request, Writer};

/// WAL size that triggers an inline snapshot: low enough (about 160
/// one-row commits) that several land inside every run.
pub const SNAPSHOT_WAL_BYTES: u64 = 16 * 1024;
/// The flush policy every durable store of the benchmark uses: the
/// server's default, one `write` per record and an fsync every 64 KiB.
pub const FSYNC: FsyncMode = FsyncMode::CommitBatch;

/// Operations sent and operations that failed: an `ERR`, an I/O error, or
/// an answer that differs from the oracle's.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub examples: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.examples.len() < 5 {
                self.examples.push(describe());
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 5usize.saturating_sub(self.examples.len());
        self.examples.extend(other.examples.into_iter().take(room));
    }
}

/// What a run is asked to do.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: &'static crate::spec::Workload,
    pub seed: u64,
    pub seconds: u64,
    /// Where trace files and scratch data directories go.
    pub out: PathBuf,
    /// Swap one oracle answer for a wrong one: the run must then fail.
    pub corrupt_oracle: bool,
}

/// The engine options the server and every in-process probe run with: the
/// out-of-the-box defaults, pinned so no `NULLREL_*` variable of the
/// caller's environment can change them (serial, static, vectorized,
/// batch 1024).
pub fn serve_config(data_dir: &Path) -> ServeConfig {
    ServeConfig {
        threads: 2,
        data_dir: Some(data_dir.to_owned()),
        ..ServeConfig::pinned_for_tests()
    }
}

/// A fresh, empty directory under `out`.
pub fn scratch_dir(out: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = out.join(format!("{name}_{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Opens a durable store in `dir` and seeds it with `db` (one full
/// snapshot, an empty log).
pub fn seed_durable(
    dir: &Path,
    db: &Database,
    snapshot_wal_bytes: u64,
) -> Result<VersionedDatabase, String> {
    let vdb = VersionedDatabase::open_with(dir, FSYNC, snapshot_wal_bytes)
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    let seed = db.clone();
    vdb.commit(move |d| {
        *d = seed;
        Ok(())
    })
    .map_err(|e| format!("seed {}: {e}", dir.display()))?;
    Ok(vdb)
}

/// Sends `line` and checks the reply against `expected`.
pub fn checked_read(
    client: &mut Client,
    line: &str,
    expected: &Expected,
    tally: &mut Tally,
) -> std::time::Duration {
    let begin = std::time::Instant::now();
    let reply = client.send(line);
    let elapsed = begin.elapsed();
    let ok = matches!(&reply, Ok(Ok(lines)) if expected.matches(lines));
    tally.record(ok, || match reply {
        Ok(Ok(lines)) => format!("`{line}`: {} lines differ from the oracle's", lines.len()),
        Ok(Err(message)) => format!("`{line}`: ERR {message}"),
        Err(e) => format!("`{line}`: {e}"),
    });
    elapsed
}

/// Sends the writer's next commit and checks the acknowledgement.
pub fn checked_write(
    client: &mut Client,
    writer: &mut Writer,
    tally: &mut Tally,
) -> std::time::Duration {
    let op = writer.next_op();
    let begin = std::time::Instant::now();
    let reply = client.send(&op.line);
    let elapsed = begin.elapsed();
    let ok = matches!(&reply, Ok(Ok(lines)) if workload::write_acknowledged(lines, op.rows));
    tally.record(ok, || match reply {
        Ok(Ok(lines)) => format!(
            "`{}`: acknowledged as {lines:?}, want rows={}",
            op.line, op.rows
        ),
        Ok(Err(message)) => format!("`{}`: ERR {message}", op.line),
        Err(e) => format!("`{}`: {e}", op.line),
    });
    elapsed
}

/// A running server over a seeded durable store, with warm connections.
pub struct Env {
    /// The seeded state, before any commit of the run.
    pub seed_db: Database,
    pub cycle: Vec<Request>,
    pub answers: HashMap<String, Expected>,
    pub data_dir: PathBuf,
    pub vdb: Arc<VersionedDatabase>,
    // Connections are declared, and so dropped, before the server: a
    // session holds its worker until the client hangs up, and dropping
    // the server joins its workers.
    pub reader: Client,
    /// The connection commits go through: a second one where a writer
    /// runs beside the reader, otherwise absent (the write tail reuses
    /// the reader's).
    pub writer_conn: Option<Client>,
    pub server: ServerHandle,
    pub writer: Writer,
}

impl Env {
    /// Everything `setup_s` covers. Warm-up requests are checked like any
    /// other and counted in `tally`. `tag` names the data directory, so
    /// that two set-ups of one run can be alive at once.
    pub fn setup(options: &Options, tag: &str, tally: &mut Tally) -> Result<Env, String> {
        let spec = options.workload;
        let seed_db = crate::tables::build(options.seed);
        let cycle = workload::read_cycle(spec.name, options.seed);
        let mut answers = workload::answers(&seed_db, &cycle)?;
        if options.corrupt_oracle {
            answers
                .get_mut(&cycle[0].line)
                .expect("every text has an answer")
                .corrupt();
        }
        let data_dir = scratch_dir(&options.out, &format!("{tag}_{}", spec.name))?;
        let vdb = Arc::new(seed_durable(&data_dir, &seed_db, SNAPSHOT_WAL_BYTES)?);
        let server = start(Arc::clone(&vdb), serve_config(&data_dir))
            .map_err(|e| format!("start the server: {e}"))?;
        let connect = || Client::connect(server.addr()).map_err(|e| format!("connect: {e}"));
        let mut reader = connect()?;
        let mut writer_conn = if spec.concurrent_writer {
            Some(connect()?)
        } else {
            None
        };
        let mut writer = Writer::new(options.seed);

        // Warm-up: two cycles (at least 32, at most 512 requests), so
        // prepared caches fill and lazy set-up finishes before timing.
        let warm = (2 * cycle.len()).clamp(32, 512);
        for request in cycle.iter().cycle().take(warm) {
            checked_read(&mut reader, &request.line, &answers[&request.line], tally);
        }
        if let Some(conn) = writer_conn.as_mut() {
            for _ in 0..10 {
                checked_write(conn, &mut writer, tally);
            }
        }
        Ok(Env {
            seed_db,
            cycle,
            answers,
            data_dir,
            vdb,
            reader,
            writer_conn,
            server,
            writer,
        })
    }

    /// Closes the connections, stops the server and releases the store,
    /// leaving the data directory for the caller to reopen or remove.
    pub fn shutdown(self) -> Shutdown {
        // A session holds its worker until the client hangs up.
        drop(self.reader);
        drop(self.writer_conn);
        self.server.stop();
        drop(self.vdb);
        Shutdown {
            seed_db: self.seed_db,
            data_dir: self.data_dir,
            writer: self.writer,
        }
    }
}

/// What is left of an [`Env`] once the server is down.
pub struct Shutdown {
    pub seed_db: Database,
    pub data_dir: PathBuf,
    pub writer: Writer,
}

impl Shutdown {
    pub fn remove_data_dir(&self) {
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}
