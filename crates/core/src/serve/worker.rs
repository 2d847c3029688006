//! The `mamps dse-work` worker: fetches leased ranges from the
//! coordinator, evaluates them with the exact in-process evaluation path
//! ([`SweepSpec::resolve`](super::protocol::SweepSpec::resolve), then
//! [`Sweep::evaluate`]), and ships the records back.
//!
//! The worker is stateless with respect to the sweep — everything it
//! needs arrives in the [`Assign`](super::protocol::ServerMsg::Assign)
//! message — but keeps warm local caches: the coordinator's analysis and
//! pass-cache entries arrive with the first assignment, a cache that grew
//! past what the coordinator sent during a range is shipped back whole
//! with that range's completion, and parsed sweeps are memoized per job
//! fingerprint. A worker exits cleanly (0) when the coordinator
//! tells it to shut down *or* simply disappears (EOF): a killed
//! coordinator is an expected event, not a worker error.

use std::collections::HashMap;
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;

use mamps_mapping::PassRunner;
use mamps_sdf::{GlobalAnalysisCache, PassCache};

use crate::dse::shard::Sweep;
use crate::flow::FlowOptions;

use super::protocol::{read_msg, write_msg, ClientMsg, ServerMsg};

/// How the worker runs; the knobs of `mamps dse-work`.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator socket to connect to.
    pub socket: PathBuf,
    /// Worker threads for evaluating the design points of one range.
    pub jobs: usize,
}

/// What a worker did before it exited, for the closing log line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Ranges completed.
    pub ranges: u64,
    /// Design points evaluated.
    pub points: u64,
}

/// Runs the fetch→evaluate→complete loop until the coordinator says
/// shutdown or goes away.
///
/// # Errors
///
/// Failing to connect (with a hint that the coordinator may not be
/// running), I/O errors mid-protocol, or a coordinator reject.
pub fn run_worker(cfg: &WorkerConfig) -> Result<WorkerSummary, Box<dyn std::error::Error>> {
    let stream = UnixStream::connect(&cfg.socket).map_err(|e| {
        format!(
            "cannot connect to coordinator at `{}`: {e} (is `mamps dse-serve` running?)",
            cfg.socket.display()
        )
    })?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;

    let analysis = Arc::new(GlobalAnalysisCache::new());
    let passes = Arc::new(PassCache::new());
    let runner = Arc::new(PassRunner::with_cache(Arc::clone(&passes)));
    let mut sweeps: HashMap<u64, Sweep> = HashMap::new();
    let worker_id = u64::from(std::process::id());
    let mut summary = WorkerSummary::default();
    // Fault-injection knob for the test harness: hold each completed
    // range for this long before reporting it, widening the window in
    // which a `kill -9` lands mid-range (lease held, result unsent).
    let delay_ms: u64 = std::env::var("MAMPS_DSE_WORK_DELAY_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    loop {
        write_msg(&mut writer, &ClientMsg::Fetch { worker: worker_id })?;
        match read_msg::<ServerMsg>(&mut reader)? {
            None | Some(ServerMsg::Shutdown) => return Ok(summary),
            Some(ServerMsg::Reject { reason }) => {
                return Err(format!("coordinator rejected the worker: {reason}").into())
            }
            Some(ServerMsg::Assign {
                job,
                lease,
                range,
                spec,
                analysis: warm_analysis,
                passes: warm_passes,
            }) => {
                analysis.import(warm_analysis);
                passes.import(warm_passes);
                // The coordinator knows every entry it sent and every one
                // shipped before: only growth past these sizes is news.
                let known = (analysis.len(), passes.len());
                let sweep = match sweeps.entry(job) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(v) => v.insert(
                        spec.resolve()
                            .map_err(|e| format!("coordinator sent an invalid sweep: {e}"))?,
                    ),
                };
                let mut opts = FlowOptions {
                    jobs: cfg.jobs,
                    ..FlowOptions::default()
                };
                opts.map.cache = Some(Arc::clone(&analysis));
                opts.map.passes = Some(Arc::clone(&runner));
                let records = sweep.evaluate(range.seqs(), &opts);
                if delay_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                }
                summary.ranges += 1;
                summary.points += records.len() as u64;
                // Ship cache growth with the completion; resending the
                // full export is fine — the coordinator's import is
                // idempotent — but skip it entirely when nothing grew.
                let a_out = if analysis.len() > known.0 {
                    analysis.export()
                } else {
                    Vec::new()
                };
                let p_out = if passes.len() > known.1 {
                    passes.export()
                } else {
                    Vec::new()
                };
                write_msg(
                    &mut writer,
                    &ClientMsg::Complete {
                        job,
                        lease,
                        records,
                        analysis: a_out,
                        passes: p_out,
                    },
                )?;
            }
            Some(other) => {
                return Err(format!("unexpected coordinator message: {other:?}").into());
            }
        }
    }
}
