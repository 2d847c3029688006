//! # mamps-mapping — SDF3-style mapping onto the MAMPS platform
//!
//! The mapping side of the design flow (paper §5.1): cost-function-driven
//! actor binding, NoC wire allocation, static-order scheduling, buffer
//! sizing, and — the paper's modelling contribution — the Fig. 4 expansion
//! of inter-tile channels into a conservative interconnect model whose
//! state-space analysis yields the *guaranteed* worst-case throughput of
//! the implementation.
//!
//! The central entry point is [`flow::map_application`]; its output
//! [`mapping::Mapping`] is the *common input format* shared with the
//! platform generator and the simulator, eliminating the manual translation
//! step the paper criticizes in prior flows (§2).
//!
//! Binding offers three binders, the variants of [`strategy::Binder`]
//! (`greedy`, `spiral`, `genetic`), all verified through the same
//! scheduling/buffer-sizing/throughput pipeline.
//!
//! Several applications can share one platform: [`multi`] admits the
//! applications of a [`multi::UseCase`] one at a time onto the residual
//! resources ([`binding::Occupancy`]), re-verifies every admitted
//! application's throughput constraint under static-order tile sharing,
//! and rejects applications that do not fit with a structured
//! [`multi::RejectReason`].
//!
//! ## Example
//!
//! ```
//! use mamps_mapping::flow::{map_application, MapOptions};
//! use mamps_platform::arch::Architecture;
//! use mamps_platform::interconnect::Interconnect;
//! use mamps_sdf::graph::SdfGraphBuilder;
//! use mamps_sdf::model::HomogeneousModelBuilder;
//!
//! let mut b = SdfGraphBuilder::new("app");
//! let src = b.add_actor("src", 1);
//! let dst = b.add_actor("dst", 1);
//! b.add_channel("data", src, 1, dst, 1);
//! let graph = b.build().unwrap();
//! let mut mb = HomogeneousModelBuilder::new("microblaze");
//! mb.actor("src", 50, 2048, 128).actor("dst", 80, 2048, 128);
//! let app = mb.finish(graph, None).unwrap();
//!
//! let arch = Architecture::homogeneous("mpsoc", 2, Interconnect::fsl()).unwrap();
//! let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
//! assert!(mapped.analysis.as_f64() > 0.0);
//! ```
//!
//! ## Multi-application example
//!
//! ```
//! use mamps_mapping::flow::MapOptions;
//! use mamps_mapping::multi::{map_use_case, UseCase};
//! use mamps_platform::arch::Architecture;
//! use mamps_platform::interconnect::Interconnect;
//! use mamps_sdf::graph::SdfGraphBuilder;
//! use mamps_sdf::model::HomogeneousModelBuilder;
//!
//! let mk = |name: &str, wcet: u64| {
//!     let mut b = SdfGraphBuilder::new(name);
//!     let x = b.add_actor(format!("{name}_x"), 1);
//!     let y = b.add_actor(format!("{name}_y"), 1);
//!     b.add_channel(format!("{name}_e"), x, 1, y, 1);
//!     let mut mb = HomogeneousModelBuilder::new("microblaze");
//!     mb.actor(format!("{name}_x"), wcet, 2048, 128)
//!       .actor(format!("{name}_y"), wcet, 2048, 128);
//!     mb.finish(b.build().unwrap(), None).unwrap()
//! };
//! let uc = UseCase::new(vec![mk("video", 80), mk("audio", 30)]).unwrap();
//! let arch = Architecture::homogeneous("mpsoc", 2, Interconnect::fsl()).unwrap();
//! let outcome = map_use_case(&uc, &arch, &MapOptions::default());
//! assert!(outcome.fully_admitted());
//! for app in &outcome.admitted {
//!     // Sharing can only cost throughput, never gain it.
//!     assert!(app.shared_guarantee <= app.mapped.analysis.iterations_per_cycle);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod binding;
pub mod comm_expand;
pub mod cost;
pub mod error;
pub mod flow;
pub mod mapping;
pub mod multi;
pub mod schedule;
pub mod strategy;
pub mod xml;

pub use binding::{bind, BindOptions, Occupancy};
pub use comm_expand::expand;
pub use error::MapError;
pub use flow::{map_application, MapOptions, MappedApplication};
pub use mamps_sdf::passes::{PassCache, PassReport, PassRunner};
pub use mapping::{Binding, ChannelAlloc, Mapping, ScheduleEntry};
pub use multi::{
    map_use_case, AdmittedApp, RejectReason, RejectedApp, SharedSystem, UseCase, UseCaseMapping,
};
pub use schedule::build_schedules;
pub use strategy::Binder;
