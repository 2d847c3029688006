//! Wire protocol of the DSE service: line-delimited JSON messages over a
//! Unix domain socket.
//!
//! One message per line, encoded with the workspace's canonical
//! value-based serde — the same encoding the shard files use, so every
//! message round-trips byte-identically ([`crate::serve`] module docs
//! spell out the exchange; `tests/serve_protocol.rs` pins the
//! round-trip). Clients (submitters and workers) send [`ClientMsg`], the
//! coordinator answers with [`ServerMsg`].
//!
//! The protocol ships *data, not references*: a [`SweepSpec`] carries the
//! application XML text itself, so workers need no access to the
//! submitter's files, and [`ServerMsg::Assign`] / [`ClientMsg::Complete`]
//! carry warm-cache entries, so a fresh worker starts from the
//! coordinator's accumulated analysis/pass memo instead of cold.

use std::io::{self, BufRead, Write};

use mamps_mapping::Binder;
use mamps_sdf::cache::CacheEntry;
use mamps_sdf::passes::PassEntry;
use mamps_sdf::xml::application_from_xml;
use serde::{Deserialize, Serialize};

use crate::dse::lease::SeqRange;
use crate::dse::shard::{ShardRecord, Sweep, SweepMode};

/// A sweep as submitted over the wire: everything a worker needs to
/// evaluate design points, self-contained (XML text inline, binder
/// *names* — parsed into a [`Binder`] on each end).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Sweep kind. [`SweepMode::Binders`] requires exactly one
    /// application; [`SweepMode::UseCases`] admits them in order.
    pub mode: SweepMode,
    /// Application XML documents, in admission order.
    pub apps_xml: Vec<String>,
    /// Tile counts to sweep (`mamps dse <max>` sweeps `1..=max`).
    pub tile_counts: Vec<usize>,
    /// Whether to sweep NoC configurations alongside FSL.
    pub include_noc: bool,
    /// Binding strategy names; empty means the default (greedy), exactly
    /// like `mamps dse` without `--binders`.
    pub binders: Vec<String>,
}

impl SweepSpec {
    /// Parses the applications out of their XML and the binders out of
    /// their names, and validates the result with [`Sweep::new`]. The
    /// coordinator builds its job header from the resolved sweep — the
    /// header `mamps dse` builds for the same inputs — and workers
    /// evaluate their leased ranges with it.
    ///
    /// # Errors
    ///
    /// A rendered reason when an XML does not parse, a binder name is
    /// unknown, or [`Sweep::new`] rejects the sweep.
    pub fn resolve(&self) -> Result<Sweep, String> {
        let apps = self
            .apps_xml
            .iter()
            .enumerate()
            .map(|(i, xml)| {
                application_from_xml(xml).map_err(|e| format!("application {}: {e}", i + 1))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let binders = self
            .binders
            .iter()
            .map(|name| name.parse::<Binder>())
            .collect::<Result<Vec<_>, String>>()?;
        Sweep::new(
            self.mode,
            apps,
            &self.tile_counts,
            self.include_noc,
            binders,
        )
    }
}

/// Counters the coordinator reports with a finished sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct JobStats {
    /// Design points in the sweep.
    pub total: u64,
    /// Points evaluated by workers for this submission.
    pub evaluated: u64,
    /// Points served from the coordinator's warm state (a previous
    /// submission of the same sweep, or the resumable spool of a
    /// restarted coordinator) instead of being evaluated again.
    pub seeded: u64,
    /// Duplicate completions dropped by the seq-keyed merge
    /// (at-least-once execution: reassigned ranges completing twice).
    pub duplicates: u64,
    /// Ranges handed out more than once after a lease expiry or a worker
    /// disconnect.
    pub reassigned: u64,
}

/// Messages a client (submitter or worker) sends to the coordinator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientMsg {
    /// Submit a sweep; the connection then streams [`ServerMsg::Progress`]
    /// until [`ServerMsg::Done`] (or [`ServerMsg::Reject`]).
    Submit {
        /// The sweep to run.
        spec: SweepSpec,
    },
    /// Ask for work; blocks until the coordinator answers with
    /// [`ServerMsg::Assign`] or [`ServerMsg::Shutdown`].
    Fetch {
        /// Worker identity for logging (the worker's pid).
        worker: u64,
    },
    /// Deliver the evaluated records of a leased range, plus the
    /// worker's cache entries when its caches grew (empty otherwise).
    Complete {
        /// Job fingerprint from the matching [`ServerMsg::Assign`].
        job: u64,
        /// Lease id from the matching [`ServerMsg::Assign`].
        lease: u64,
        /// Evaluated design points of the range.
        records: Vec<ShardRecord>,
        /// Analysis-cache entries to merge into the coordinator's cache.
        analysis: Vec<CacheEntry>,
        /// Pass-cache entries to merge into the coordinator's cache.
        passes: Vec<PassEntry>,
    },
}

/// Messages the coordinator sends to a client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerMsg {
    /// A leased range of design points to evaluate.
    Assign {
        /// Job fingerprint (stable hash of the sweep's header).
        job: u64,
        /// Lease id; echo it in [`ClientMsg::Complete`].
        lease: u64,
        /// The seq range to evaluate.
        range: SeqRange,
        /// The sweep (self-contained; workers cache the parse per job).
        spec: SweepSpec,
        /// Warm analysis-cache entries (first assignment of a connection
        /// only; empty afterwards).
        analysis: Vec<CacheEntry>,
        /// Warm pass-cache entries (first assignment only).
        passes: Vec<PassEntry>,
    },
    /// Streamed to the submitter as ranges complete.
    Progress {
        /// Job fingerprint.
        job: u64,
        /// Design points recorded so far.
        done: u64,
        /// Design points in the sweep.
        total: u64,
    },
    /// The sweep finished; `report` is byte-identical to single-process
    /// `mamps dse` output on the same inputs.
    Done {
        /// Job fingerprint.
        job: u64,
        /// The rendered report.
        report: String,
        /// Execution counters (stderr material; never part of the report).
        stats: JobStats,
    },
    /// The request was invalid or the coordinator is shutting down.
    Reject {
        /// Human-readable reason.
        reason: String,
    },
    /// No more work will be handed out; workers should exit cleanly.
    Shutdown,
}

/// Writes one message as one canonical-JSON line.
///
/// # Errors
///
/// Propagates the underlying write error (a disappeared peer surfaces
/// here as `BrokenPipe`).
pub fn write_msg<T: Serialize>(w: &mut impl Write, msg: &T) -> io::Result<()> {
    let mut line = serde::json::to_string(msg);
    line.push('\n');
    w.write_all(line.as_bytes())
}

/// Reads the next message line; `Ok(None)` on a clean EOF (peer closed
/// the connection). Blank lines are skipped.
///
/// # Errors
///
/// The underlying read error, or `InvalidData` when a line is not a
/// well-formed message.
pub fn read_msg<T: for<'de> Deserialize<'de>>(r: &mut impl BufRead) -> io::Result<Option<T>> {
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        return serde::json::from_str(trimmed)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad message: {e}")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolved_spec_has_the_in_process_header() {
        let app = mamps_mjpeg::mjpeg_application(
            &mamps_mjpeg::StreamConfig {
                frames: 1,
                ..mamps_mjpeg::StreamConfig::small()
            },
            None,
        )
        .expect("mjpeg application builds");
        let spec = SweepSpec {
            mode: SweepMode::Binders,
            apps_xml: vec![mamps_sdf::xml::application_to_xml(&app)],
            tile_counts: vec![1, 2],
            include_noc: false,
            binders: Vec::new(),
        };
        let local = Sweep::new(SweepMode::Binders, vec![app], &[1, 2], false, Vec::new());
        let resolved = spec.resolve().expect("valid spec");
        assert_eq!(resolved.header(), local.expect("valid sweep").header());
        let unknown = SweepSpec {
            binders: vec!["quantum".into()],
            ..spec
        };
        let err = unknown.resolve().expect_err("unknown binder");
        assert_eq!(
            err,
            "unknown binder `quantum` (available: greedy, spiral, genetic)"
        );
    }

    #[test]
    fn messages_survive_a_round_trip() {
        let msg = ServerMsg::Progress {
            job: 42,
            done: 3,
            total: 9,
        };
        let text = serde::json::to_string(&msg);
        let back: ServerMsg = serde::json::from_str(&text).expect("round-trip");
        assert_eq!(back, msg);
    }
}
