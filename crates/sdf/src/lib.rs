//! # mamps-sdf — synchronous dataflow graphs and analysis
//!
//! This crate provides the SDF substrate of the MAMPS design-flow
//! reproduction (Jordans et al., *An Automated Flow to Map Throughput
//! Constrained Applications to a MPSoC*, PPES 2011):
//!
//! * [`graph`] — SDF graphs: actors, channels, rates, initial tokens.
//! * [`repetition`] — repetition vectors and sample-rate consistency.
//! * [`liveness`] — deadlock-freedom via abstract iteration execution.
//! * [`state_space`] — worst-case throughput by self-timed state-space
//!   exploration (the SDF3 algorithm used by the paper).
//! * `hsdf` / `mcr` — HSDF conversion and exact max-cycle-ratio
//!   analysis, an independent cross-check of the state-space results.
//!   Like `state_space::reference`, they are oracles for tests and
//!   benches and are built only with `cfg(test)` or the `testkit`
//!   feature.
//! * [`buffer`] — the capacity lower bound and growth step of buffer sizing.
//! * [`transform`] — self-edges, buffer-capacity reverse channels and
//!   static-order constraint encodings.
//! * [`memo`] — the sharded, counted memo store behind the analysis
//!   [`cache`] and the [`passes`] cache.
//! * [`model`] — the application model joining the graph with per-actor
//!   implementation metadata (WCET, memory sizes, argument bindings).
//! * [`gen`] — seeded synthetic scenario generation (topology families,
//!   controlled rates/WCETs) and the shared test generators; the
//!   `testkit` feature adds proptest strategies on top.
//! * [`dot`] — Graphviz export.
//!
//! ## Example
//!
//! ```
//! use mamps_sdf::graph::SdfGraphBuilder;
//! use mamps_sdf::state_space::{throughput, AnalysisOptions};
//!
//! let mut b = SdfGraphBuilder::new("demo");
//! let producer = b.add_actor("producer", 4);
//! let consumer = b.add_actor("consumer", 6);
//! b.add_channel("data", producer, 1, consumer, 1);
//! let graph = b.build()?;
//!
//! let result = throughput(&graph, &AnalysisOptions::default())?;
//! assert_eq!(result.cycles_per_iteration(), 6.0);
//! # Ok::<(), mamps_sdf::error::SdfError>(())
//! ```

#![forbid(unsafe_code)]

pub mod buffer;
pub mod cache;
pub mod dot;
pub mod error;
pub mod gen;
pub mod graph;
#[cfg(any(test, feature = "testkit"))]
pub mod hsdf;
pub mod liveness;
#[cfg(any(test, feature = "testkit"))]
pub mod mcr;
pub mod memo;
pub mod model;
pub mod passes;
pub mod ratio;
pub mod repetition;
pub mod state_space;
pub mod transform;
pub mod xml;
pub mod xmlutil;

pub use cache::{CacheEntry, GlobalAnalysisCache, GraphFingerprint};
pub use error::SdfError;
pub use gen::{Family, GenConfig};
pub use graph::{Actor, ActorId, Channel, ChannelId, SdfGraph, SdfGraphBuilder};
pub use memo::{CacheStats, MemoEntry, MemoStore};
pub use model::{ApplicationModel, ThroughputConstraint};
pub use passes::{PassCache, PassEntry, PassReport, PassRunner, PassStat};
pub use ratio::Ratio;
pub use repetition::{repetition_vector, RepetitionVector};
pub use state_space::{throughput, AnalysisOptions, ThroughputResult};
