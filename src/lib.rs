//! # mamps — an automated flow to map throughput-constrained applications
//! to a MPSoC
//!
//! Facade crate of the reproduction of R. Jordans, F. Siyoum, S. Stuijk,
//! A. Kumar, H. Corporaal, *An Automated Flow to Map Throughput Constrained
//! Applications to a MPSoC* (PPES 2011). It re-exports the workspace
//! crates:
//!
//! * [`sdf`] — SDF graphs, repetition vectors, liveness, state-space and
//!   MCR throughput analysis, buffer sizing, application models.
//! * [`platform`] — the MAMPS architecture template: tiles, FSL and SDM
//!   NoC interconnects, area model.
//! * [`mapping`] — binding, static-order scheduling, buffer allocation,
//!   the Fig. 4 interconnect-model expansion, and multi-application
//!   use-case admission (`mapping::multi`).
//! * [`sim`] — the deterministic cycle-level platform simulator (the
//!   FPGA stand-in).
//! * [`mjpeg`] — the MJPEG decoder case study with its cycle-cost model.
//! * [`codegen`] — the MAMPS platform generator (C wrappers, schedules,
//!   netlist, memory maps, XPS TCL).
//! * [`flow`] — the end-to-end automated flow, experiments and DSE.
//!
//! ## Quickstart
//!
//! ```
//! use mamps::flow::{run_flow, FlowOptions};
//! use mamps::platform::interconnect::Interconnect;
//! use mamps::sdf::graph::SdfGraphBuilder;
//! use mamps::sdf::model::HomogeneousModelBuilder;
//!
//! let mut b = SdfGraphBuilder::new("app");
//! let producer = b.add_actor("producer", 1);
//! let consumer = b.add_actor("consumer", 1);
//! b.add_channel("data", producer, 1, consumer, 1);
//! let graph = b.build().unwrap();
//!
//! let mut model = HomogeneousModelBuilder::new("microblaze");
//! model.actor("producer", 50, 2048, 128).actor("consumer", 90, 2048, 128);
//! let app = model.finish(graph, None).unwrap();
//!
//! let result = run_flow(&app, 2, Interconnect::fsl(), &FlowOptions::default()).unwrap();
//! println!("guaranteed: {} iterations/cycle", result.guaranteed_throughput());
//! ```

#![forbid(unsafe_code)]

pub use mamps_codegen as codegen;
pub use mamps_core as flow;
pub use mamps_mapping as mapping;
pub use mamps_mjpeg as mjpeg;
pub use mamps_platform as platform;
pub use mamps_sdf as sdf;
pub use mamps_sim as sim;
