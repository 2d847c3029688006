//! # mamps-sim — the deterministic cycle-level MPSoC simulator
//!
//! This crate plays the role of the FPGA in the paper's evaluation (§6): it
//! executes a mapped application on the generated platform — PEs walking
//! their static-order schedules, software or CA-offloaded token
//! (de-)serialization word by word, FSL FIFOs or SDM NoC connections with
//! credits, latency and SDM bandwidth — and measures the achieved
//! throughput.
//!
//! The simulator shares no code with the SDF analysis: it is an independent
//! operational implementation of the same platform semantics. The paper's
//! central claim (the SDF3 bound is a tight, conservative lower bound on
//! the measured throughput) is validated by running the simulator with
//! per-firing execution times:
//!
//! * **actual times == WCET** → measured throughput equals the bound
//!   (tightness);
//! * **actual times <= WCET** → measured throughput meets or exceeds the
//!   bound (conservativeness).
//!
//! Multi-application use-cases run through the same engine:
//! [`System::new_with_repetitions`] executes the (disconnected) union
//! graph of all admitted applications concurrently on the shared tiles,
//! with each shared PE walking the concatenated static-order rounds — the
//! platform's only sharing rule — so every per-application bound can be
//! validated in one run.
//!
//! ## Engines
//!
//! Two interchangeable execution engines drive the simulation
//! ([`Engine`], default [`Engine::Event`]):
//!
//! * [`event`] — a discrete-event kernel: a binary-heap queue holds only
//!   worker completions, idle workers sleep until a channel they watch
//!   changes, and each serialize or de-serialize operation moves a burst
//!   of words up to the next token boundary (one word while tracing).
//!   Interactive even on 64×64-tile meshes (see the `mesh_scaling`
//!   bench).
//! * [`mod@reference`] — the original lockstep engine, kept intact as the
//!   bit-exactness oracle: both engines must produce identical traces,
//!   measurements, and error verdicts (enforced by tests, a proptest, and
//!   CI's `scripts/sim_equiv.sh`).
//!
//! ## Example
//!
//! ```
//! use mamps_mapping::flow::{map_application, MapOptions};
//! use mamps_platform::arch::Architecture;
//! use mamps_platform::interconnect::Interconnect;
//! use mamps_sdf::graph::SdfGraphBuilder;
//! use mamps_sdf::model::HomogeneousModelBuilder;
//! use mamps_sim::{System, WcetTimes};
//!
//! let mut b = SdfGraphBuilder::new("app");
//! let x = b.add_actor("x", 1);
//! let y = b.add_actor("y", 1);
//! b.add_channel("e", x, 1, y, 1);
//! let graph = b.build().unwrap();
//! let mut mb = HomogeneousModelBuilder::new("microblaze");
//! mb.actor("x", 40, 2048, 128).actor("y", 60, 2048, 128);
//! let app = mb.finish(graph, None).unwrap();
//! let arch = Architecture::homogeneous("m", 2, Interconnect::fsl()).unwrap();
//! let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
//!
//! let times = WcetTimes::new(mapped.mapping.binding.wcet_of.clone());
//! let system = System::new(app.graph(), &mapped.mapping, &arch, &times).unwrap();
//! let measurement = system.run(100, 10_000_000).unwrap();
//! assert!(measurement.steady_throughput() >= mapped.analysis.as_f64() * (1.0 - 1e-9));
//! ```

#![forbid(unsafe_code)]

pub mod event;
pub mod exec_time;
pub mod fifo;
pub mod noc_sim;
pub mod processor;
pub mod reference;
pub mod system;
pub mod trace;

pub use exec_time::{FiringTimes, TraceTimes, WcetTimes};
pub use noc_sim::Connection;
pub use system::{Engine, System};
pub use trace::{
    render_gantt, render_gantt_labeled, render_trace, AppAttribution, Measurement, SimError,
    TraceEvent,
};
