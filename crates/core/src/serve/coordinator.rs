//! The `mamps dse-serve` coordinator: accepts sweep submissions, leases
//! seq ranges to workers, merges results incrementally, and survives the
//! faults the harness throws at it.
//!
//! Robustness model, in order of line of defence:
//!
//! 1. **Worker disconnect** (crash, `kill -9`, network half gone): the
//!    connection thread sees EOF or a write error and releases every
//!    lease the connection held — the ranges go back to pending
//!    immediately, no timeout wait.
//! 2. **Worker hang** (alive but stuck): the lease deadline passes and
//!    the next fetch reverts the range; waiting fetchers look again at
//!    least every 200 ms. If the stuck worker revives and completes after
//!    all, the seq-keyed [`MergeLedger`] drops the duplicates —
//!    at-least-once execution is safe because design-point outcomes are
//!    deterministic.
//! 3. **Coordinator death**: every accepted record is appended to the
//!    job's *spool* (`job-<fingerprint>.jsonl` under `--state-dir`, in
//!    shard-file format) before the lease completes, so even `kill -9`
//!    leaves a file `from_jsonl_lossy` can resume. A graceful stop
//!    additionally compacts the spools and persists the warm caches.
//!    A restarted coordinator seeds a resubmitted sweep from its spool
//!    and only evaluates what is missing.
//!
//! The coordinator runs until its caller sets the stop flag passed to
//! [`run_coordinator`]; `mamps dse-serve` sets it on SIGTERM/SIGINT. The
//! module holds no process-global state, so one process can run several
//! coordinators, one after another or side by side on distinct sockets.
//!
//! The coordinator owns one warm [`GlobalAnalysisCache`] + [`PassCache`]
//! across all submissions (loaded from `--cache-dir` at startup,
//! persisted back on job completion and at shutdown). Workers get the
//! warm entries with their first assignment and ship their own growth
//! back with each completion, so the Nth sweep over the same corpus is
//! served mostly from memo.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mamps_sdf::{GlobalAnalysisCache, PassCache};

use crate::dse::cache as dse_cache;
use crate::dse::lease::{LeaseTable, MergeLedger};
use crate::dse::shard::{push_line, seed_outcomes, DseShard, ShardRecord, ShardSpec};

use super::protocol::{read_msg, write_msg, ClientMsg, JobStats, ServerMsg, SweepSpec};

/// How the coordinator runs; all knobs of `mamps dse-serve`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix socket path to listen on (a stale file is replaced).
    pub socket: PathBuf,
    /// Directory for the per-job resumable spools.
    pub state_dir: PathBuf,
    /// Warm-cache persistence directory (`--cache-dir`), as in `mamps dse`.
    pub cache_dir: Option<PathBuf>,
    /// Lease timeout in milliseconds before a range is reassigned.
    pub lease_timeout_ms: u64,
    /// Maximum design points per leased range.
    pub chunk: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            socket: PathBuf::from("dse-serve.sock"),
            state_dir: PathBuf::from("dse-serve-state"),
            cache_dir: None,
            lease_timeout_ms: 30_000,
            chunk: 4,
        }
    }
}

/// One submitted sweep in flight.
struct Job {
    fingerprint: u64,
    spec: SweepSpec,
    table: LeaseTable,
    ledger: MergeLedger,
    spool: PathBuf,
    seeded: u64,
    evaluated: u64,
}

impl Job {
    fn stats(&self) -> JobStats {
        JobStats {
            total: self.ledger.header().total_configs,
            evaluated: self.evaluated,
            seeded: self.seeded,
            duplicates: self.ledger.duplicates(),
            reassigned: self.table.reassigned(),
        }
    }
}

/// Everything behind the coordinator's one mutex.
struct State {
    jobs: Vec<Job>,
    /// Finished sweeps: fingerprint → rendered report + final counters.
    /// Later identical submissions are answered from here without any
    /// evaluation (their stats then show `seeded == total`).
    history: HashMap<u64, (String, JobStats)>,
    /// Live connection threads, so shutdown can wait for the drain.
    connections: usize,
    shutting_down: bool,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    analysis: Arc<GlobalAnalysisCache>,
    passes: Arc<PassCache>,
    cfg: ServeConfig,
    started: Instant,
    /// Connection identity for lease ownership; never reused.
    next_conn: AtomicU64,
}

impl Shared {
    /// Virtual clock for lease deadlines: milliseconds since startup.
    fn now(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Locks the state. A connection thread that panicked while holding
    /// the lock poisons it, and every later lock then panics too.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("serve state poisoned")
    }

    /// Releases `guard` until the condvar is notified or `ms` elapse.
    fn wait<'a>(&self, guard: MutexGuard<'a, State>, ms: u64) -> MutexGuard<'a, State> {
        self.cv
            .wait_timeout(guard, Duration::from_millis(ms))
            .expect("serve state poisoned")
            .0
    }
}

/// Runs the coordinator until `stop` is set; the accept loop checks it
/// every 50 ms. Returns only after the graceful shutdown finished
/// (spools compacted, caches persisted, socket removed).
///
/// # Errors
///
/// Socket/bind and state-directory I/O errors; per-connection errors are
/// logged to stderr and close that connection only.
pub fn run_coordinator(
    cfg: ServeConfig,
    stop: &AtomicBool,
) -> Result<(), Box<dyn std::error::Error>> {
    std::fs::create_dir_all(&cfg.state_dir)
        .map_err(|e| format!("cannot create state dir `{}`: {e}", cfg.state_dir.display()))?;

    // Replace a stale socket file (left by a killed coordinator); bind
    // fails with AddrInUse only if removal raced a live listener.
    let _ = std::fs::remove_file(&cfg.socket);
    let listener = UnixListener::bind(&cfg.socket)
        .map_err(|e| format!("cannot listen on `{}`: {e}", cfg.socket.display()))?;
    listener.set_nonblocking(true)?;

    let analysis = Arc::new(GlobalAnalysisCache::new());
    let passes = Arc::new(PassCache::new());
    if let Some(dir) = &cfg.cache_dir {
        let a = dse_cache::load_cache_dir(&analysis, dir)?;
        let p = dse_cache::load_cache_dir(&passes, dir)?;
        eprintln!("dse-serve: cache warmed from disk: {a}; pass cache: {p}");
    }

    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            jobs: Vec::new(),
            history: HashMap::new(),
            connections: 0,
            shutting_down: false,
        }),
        cv: Condvar::new(),
        analysis,
        passes,
        cfg,
        started: Instant::now(),
        next_conn: AtomicU64::new(1),
    });
    eprintln!(
        "dse-serve: listening on {} (state {}, lease timeout {} ms, chunk {})",
        shared.cfg.socket.display(),
        shared.cfg.state_dir.display(),
        shared.cfg.lease_timeout_ms,
        shared.cfg.chunk
    );

    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                shared.lock().connections += 1;
                std::thread::spawn(move || {
                    let res = handle_connection(&shared, stream);
                    shared.lock().connections -= 1;
                    shared.cv.notify_all();
                    if let Err(e) = res {
                        eprintln!("dse-serve: connection closed: {e}");
                    }
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(format!("accept failed: {e}").into()),
        }
    }

    graceful_shutdown(&shared);
    Ok(())
}

/// Flushes every in-flight job's spool, wakes all waiters so they answer
/// their clients (`Shutdown` to fetching workers, `Reject` to waiting
/// submitters), waits briefly for connections to drain, persists the warm
/// caches, and removes the socket.
fn graceful_shutdown(shared: &Shared) {
    eprintln!("dse-serve: shutting down");
    let mut st = shared.lock();
    st.shutting_down = true;
    for job in &st.jobs {
        if let Err(e) = compact_spool(job) {
            eprintln!(
                "dse-serve: could not compact spool {}: {e}",
                job.spool.display()
            );
        } else {
            eprintln!(
                "dse-serve: flushed partial sweep {:016x} ({}/{} points) -> {}",
                job.fingerprint,
                job.ledger.len(),
                job.ledger.header().total_configs,
                job.spool.display()
            );
        }
    }
    shared.cv.notify_all();
    let deadline = Instant::now() + Duration::from_secs(3);
    while st.connections > 0 && Instant::now() < deadline {
        st = shared.wait(st, 100);
        shared.cv.notify_all();
    }
    drop(st);
    persist_caches(shared);
    let _ = std::fs::remove_file(&shared.cfg.socket);
    eprintln!("dse-serve: bye");
}

fn persist_caches(shared: &Shared) {
    if let Some(dir) = &shared.cfg.cache_dir {
        if let Err(e) = dse_cache::persist_cache(&shared.analysis, dir, ShardSpec::full())
            .and_then(|_| dse_cache::persist_cache(&shared.passes, dir, ShardSpec::full()))
        {
            eprintln!(
                "dse-serve: could not persist caches to {}: {e}",
                dir.display()
            );
        }
    }
}

/// Atomically rewrites a job's spool as the clean JSONL of everything
/// merged so far (the incremental appends plus the seeded records).
fn compact_spool(job: &Job) -> std::io::Result<()> {
    let tmp = job.spool.with_extension("tmp");
    std::fs::write(&tmp, job.ledger.to_shard().to_jsonl())?;
    std::fs::rename(&tmp, &job.spool)
}

/// One accepted connection: dispatches on the first message and serves
/// the peer until EOF. Submitters and workers share the entry point —
/// the message kind is the role.
fn handle_connection(shared: &Shared, stream: UnixStream) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let conn = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let mut shipped_cache = false;
    let result = loop {
        match read_msg::<ClientMsg>(&mut reader) {
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
            Ok(Some(ClientMsg::Submit { spec })) => {
                if let Err(e) = handle_submit(shared, &mut writer, spec) {
                    break Err(e);
                }
            }
            Ok(Some(ClientMsg::Fetch { worker })) => {
                match handle_fetch(shared, &mut writer, conn, worker, &mut shipped_cache) {
                    Ok(true) => {}
                    Ok(false) => break Ok(()), // told the worker to shut down
                    Err(e) => break Err(e),
                }
            }
            Ok(Some(ClientMsg::Complete {
                job,
                lease,
                records,
                analysis,
                passes,
            })) => {
                handle_complete(shared, job, lease, records, analysis, passes);
            }
        }
    };
    // Whatever happened, this connection holds no leases any more.
    let mut st = shared.lock();
    let mut reverted = 0;
    for job in &mut st.jobs {
        reverted += job.table.release_owner(conn).len();
    }
    drop(st);
    if reverted > 0 {
        eprintln!("dse-serve: worker disconnected, reverted {reverted} leased range(s)");
        shared.cv.notify_all();
    }
    result
}

/// Registers (or replays) a submitted sweep, then streams progress until
/// it finishes. The job itself lives in the shared state: it keeps
/// running — and lands in the history — even if this submitter vanishes.
fn handle_submit(shared: &Shared, writer: &mut UnixStream, spec: SweepSpec) -> std::io::Result<()> {
    let header = match spec.resolve() {
        Ok(sweep) => sweep.header().clone(),
        Err(reason) => return write_msg(writer, &ServerMsg::Reject { reason }),
    };
    let fingerprint = serde::stable_hash_of(&header);
    let total = header.total_configs;

    let mut st = shared.lock();
    if st.shutting_down {
        return write_msg(
            writer,
            &ServerMsg::Reject {
                reason: "coordinator is shutting down".into(),
            },
        );
    }
    if let Some((report, _)) = st.history.get(&fingerprint) {
        // Whole sweep served from the coordinator's warm history.
        let msg = ServerMsg::Done {
            job: fingerprint,
            report: report.clone(),
            stats: JobStats {
                total,
                seeded: total,
                ..JobStats::default()
            },
        };
        drop(st);
        return write_msg(writer, &msg);
    }
    if !st.jobs.iter().any(|j| j.fingerprint == fingerprint) {
        // New sweep: seed from the spool of a previous (crashed or
        // killed) coordinator run, then lease out only what is missing.
        let spool = shared
            .cfg
            .state_dir
            .join(format!("job-{fingerprint:016x}.jsonl"));
        let mut ledger = MergeLedger::new(header.clone());
        match std::fs::read_to_string(&spool) {
            Ok(text) => match DseShard::from_jsonl_lossy(&text) {
                Ok((old, dropped)) => {
                    if dropped {
                        eprintln!(
                            "dse-serve: spool {} ends mid-record; dropped that line",
                            spool.display()
                        );
                    }
                    match seed_outcomes(&header, std::slice::from_ref(&old)) {
                        Ok(seeded) => {
                            for (seq, outcome) in seeded {
                                ledger.insert(ShardRecord { seq, outcome });
                            }
                        }
                        Err(e) => eprintln!(
                            "dse-serve: ignoring mismatched spool {}: {e}",
                            spool.display()
                        ),
                    }
                }
                Err(e) => {
                    eprintln!("dse-serve: ignoring corrupt spool {}: {e}", spool.display())
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => eprintln!("dse-serve: cannot read spool {}: {e}", spool.display()),
        }
        let seeded = ledger.len();
        let table = LeaseTable::new(total, shared.cfg.chunk, |seq| ledger.contains(seq));
        let job = Job {
            fingerprint,
            spec,
            table,
            ledger,
            spool,
            seeded,
            evaluated: 0,
        };
        // (Re)start the spool as header + everything seeded, so appends
        // keep it a well-formed shard file.
        compact_spool(&job)?;
        eprintln!(
            "dse-serve: sweep {fingerprint:016x} submitted ({total} points, {seeded} seeded)"
        );
        if job.ledger.is_complete() {
            finalize_job(shared, &mut st, job);
        } else {
            st.jobs.push(job);
        }
        shared.cv.notify_all(); // wake idle workers
    }

    // Stream progress until the job reaches the history (or shutdown).
    let mut last_done = u64::MAX;
    loop {
        if let Some((report, stats)) = st.history.get(&fingerprint) {
            let msg = ServerMsg::Done {
                job: fingerprint,
                report: report.clone(),
                stats: *stats,
            };
            drop(st);
            return write_msg(writer, &msg);
        }
        if st.shutting_down {
            let done = st
                .jobs
                .iter()
                .find(|j| j.fingerprint == fingerprint)
                .map(|j| j.ledger.len())
                .unwrap_or(0);
            drop(st);
            return write_msg(
                writer,
                &ServerMsg::Reject {
                    reason: format!(
                        "coordinator shutting down with {done}/{total} points done; \
                         the partial sweep is spooled and will seed a resubmission"
                    ),
                },
            );
        }
        let done = st
            .jobs
            .iter()
            .find(|j| j.fingerprint == fingerprint)
            .map(|j| j.ledger.len())
            .unwrap_or(0);
        if done != last_done {
            last_done = done;
            // Progress is advisory; a submitter that stopped reading
            // surfaces here as an error and detaches without hurting the
            // job.
            let msg = ServerMsg::Progress {
                job: fingerprint,
                done,
                total,
            };
            drop(st);
            write_msg(writer, &msg)?;
            st = shared.lock();
            continue;
        }
        st = shared.wait(st, 200);
    }
}

/// Blocks until a range can be leased to this worker (or shutdown).
/// Returns `Ok(false)` when the worker was told to shut down.
fn handle_fetch(
    shared: &Shared,
    writer: &mut UnixStream,
    conn: u64,
    worker: u64,
    shipped_cache: &mut bool,
) -> std::io::Result<bool> {
    let mut st = shared.lock();
    loop {
        if st.shutting_down {
            drop(st);
            write_msg(writer, &ServerMsg::Shutdown)?;
            return Ok(false);
        }
        // Expired leases revert here, before each acquire: a hung
        // worker's range goes to the next fetch.
        let now = shared.now();
        let timeout = shared.cfg.lease_timeout_ms;
        let mut assigned = None;
        let mut reverted = 0;
        for job in &mut st.jobs {
            reverted += job.table.expire(now).len();
            if let Some((lease, range)) = job.table.acquire(conn, now, timeout) {
                assigned = Some((job.fingerprint, lease, range, job.spec.clone()));
                break;
            }
        }
        if reverted > 0 {
            eprintln!("dse-serve: reverted {reverted} expired lease(s)");
        }
        if let Some((job, lease, range, spec)) = assigned {
            drop(st);
            // First assignment of this connection ships the warm caches;
            // afterwards the worker already has everything we have.
            let (analysis, passes) = if *shipped_cache {
                (Vec::new(), Vec::new())
            } else {
                *shipped_cache = true;
                (shared.analysis.export(), shared.passes.export())
            };
            eprintln!("dse-serve: leased {range} of {job:016x} to worker {worker}");
            write_msg(
                writer,
                &ServerMsg::Assign {
                    job,
                    lease,
                    range,
                    spec,
                    analysis,
                    passes,
                },
            )?;
            return Ok(true);
        }
        st = shared.wait(st, 200);
    }
}

/// Merges a completed range: imports the worker's cache growth, records
/// the outcomes that belong to the lease (appending the fresh ones to the
/// spool), and finalizes the job when the ledger is complete. A lease
/// whose range the records do not cover stays open until it expires.
fn handle_complete(
    shared: &Shared,
    job_fp: u64,
    lease: u64,
    records: Vec<ShardRecord>,
    analysis: Vec<mamps_sdf::cache::CacheEntry>,
    passes: Vec<mamps_sdf::passes::PassEntry>,
) {
    // Cache imports are idempotent and internally synchronized.
    shared.analysis.import(analysis);
    shared.passes.import(passes);

    let mut st = shared.lock();
    let Some(idx) = st.jobs.iter().position(|j| j.fingerprint == job_fp) else {
        // Stale completion of an already-finalized job; nothing to merge.
        return;
    };
    let job = &mut st.jobs[idx];
    let Some(completion) = job.table.accept(lease, records, &mut job.ledger) else {
        return; // not a lease of this job
    };
    if !completion.done {
        let n = completion.rejected;
        eprintln!("dse-serve: lease {lease} of {job_fp:016x} left open ({n} foreign records)");
    }
    job.evaluated += completion.fresh.len() as u64;
    let mut fresh = String::new();
    for r in &completion.fresh {
        push_line(&mut fresh, "Record", r);
    }
    if !fresh.is_empty() {
        use std::fs::OpenOptions;
        let appended = OpenOptions::new()
            .append(true)
            .open(&job.spool)
            .and_then(|mut f| f.write_all(fresh.as_bytes()));
        if let Err(e) = appended {
            eprintln!(
                "dse-serve: spool append failed for {}: {e}",
                job.spool.display()
            );
        }
    }
    if job.ledger.is_complete() {
        let job = st.jobs.remove(idx);
        finalize_job(shared, &mut st, job);
    }
    drop(st);
    shared.cv.notify_all();
}

/// Renders the finished sweep (byte-identical to `mamps dse` by
/// construction: same header, same records, same renderer), compacts the
/// spool one last time, stores the report in the history, and persists
/// the warm caches.
fn finalize_job(shared: &Shared, st: &mut State, job: Job) {
    let report = job.ledger.to_shard().render();
    let stats = job.stats();
    if let Err(e) = compact_spool(&job) {
        eprintln!(
            "dse-serve: could not compact spool {}: {e}",
            job.spool.display()
        );
    }
    eprintln!(
        "dse-serve: sweep {:016x} complete ({} evaluated, {} seeded, {} duplicates, {} reassigned)",
        job.fingerprint, stats.evaluated, stats.seeded, stats.duplicates, stats.reassigned
    );
    st.history.insert(job.fingerprint, (report, stats));
    persist_caches(shared);
}
