//! The fault-tolerant DSE coordinator service: one warm, long-running
//! process serving many submitted sweeps, with dynamic range leasing to
//! worker processes over a Unix socket.
//!
//! The ROADMAP's "DSE service" item: PRs 5–8 built the in-process
//! ingredients — sharded seq-tagged sweeps, crash `--resume`, the warm
//! [`GlobalAnalysisCache`](mamps_sdf::GlobalAnalysisCache) /
//! [`PassCache`](mamps_sdf::PassCache) with on-disk persistence, and
//! work-stealing scheduling — and this module turns them into a service:
//!
//! * [`coordinator::run_coordinator`] (`mamps dse-serve`) listens on a
//!   Unix socket, accepts sweep submissions, partitions each sweep's
//!   canonical seq space into leased ranges
//!   ([`crate::dse::lease::LeaseTable`]), merges completed records
//!   incrementally ([`crate::dse::lease::MergeLedger`]), and keeps one
//!   warm analysis + pass cache across all submissions. It runs until
//!   its caller sets a stop flag: `mamps dse-serve` sets it on
//!   SIGTERM/SIGINT, and tests run coordinators in-process, since the
//!   module keeps no process-global state.
//! * [`worker::run_worker`] (`mamps dse-work`) fetches leased ranges and
//!   evaluates them with [`Sweep::evaluate`](crate::dse::shard::Sweep::evaluate),
//!   the evaluation path of single-process `mamps dse`.
//! * [`submit::run_submit`] (`mamps dse-submit`) submits a sweep and
//!   waits for the merged report.
//!
//! # Protocol
//!
//! Line-delimited canonical JSON over the socket ([`protocol`]): clients
//! send [`ClientMsg`] (`Submit`, `Fetch`, `Complete`), the coordinator
//! answers [`ServerMsg`] (`Assign`, `Progress`, `Done`, `Reject`,
//! `Shutdown`). Specs are self-contained — application XML text travels
//! inline — so workers need no shared filesystem with submitters.
//!
//! # Fault tolerance
//!
//! Leases time out and are reassigned; a disconnected worker's leases
//! revert immediately; duplicate completions from at-least-once
//! execution are dropped by the seq-keyed merge (safe because outcomes
//! are deterministic); and every accepted record is spooled to a
//! shard-format JSONL under `--state-dir` before its lease completes, so
//! even a `kill -9`'d coordinator leaves a resumable file a restarted
//! coordinator seeds from. The final merged report is byte-identical to
//! single-process `mamps dse` by construction (same header, same
//! records, same renderer) — `scripts/serve_fault.sh` enforces exactly
//! that under injected faults, in CI.

pub mod coordinator;
pub mod protocol;
pub mod submit;
pub mod worker;

pub use coordinator::{run_coordinator, ServeConfig};
pub use protocol::{ClientMsg, JobStats, ServerMsg, SweepSpec};
pub use submit::{run_submit, SubmitOutcome};
pub use worker::{run_worker, WorkerConfig, WorkerSummary};
