//! # mamps-core — the automated MAMPS design flow
//!
//! Ties the reproduction together (paper Fig. 1): application model +
//! architecture template → SDF3 mapping with the Fig. 4 interconnect model
//! → guaranteed worst-case throughput → MAMPS platform generation → the
//! executable platform ("FPGA") → measured throughput and guarantee
//! validation. Step timings feed the Table 1 designer-effort report, and
//! [`experiments`] packages the paper's evaluation (Fig. 6, Table 1, the
//! §6.3 CA study, the §5.3.1 area figure) for benches and examples.
//!
//! Multi-application use-cases run through [`flow::run_multi_flow`]
//! (incremental admission with per-application guarantees, then one
//! concurrent validation run per interference group), and
//! [`dse::explore_use_cases`] sweeps which application subsets fit each
//! platform configuration.
//!
//! Tiles share no peripheral (paper §4), so no actor's WCET carries the
//! access latency of a shared one; the predictable arbiter of §7 is
//! future work.
//!
//! ## Example
//!
//! ```
//! use mamps_core::flow::{run_flow, FlowOptions};
//! use mamps_platform::interconnect::Interconnect;
//! use mamps_sdf::graph::SdfGraphBuilder;
//! use mamps_sdf::model::HomogeneousModelBuilder;
//!
//! let mut b = SdfGraphBuilder::new("app");
//! let x = b.add_actor("x", 1);
//! let y = b.add_actor("y", 1);
//! b.add_channel("e", x, 1, y, 1);
//! let graph = b.build().unwrap();
//! let mut mb = HomogeneousModelBuilder::new("microblaze");
//! mb.actor("x", 40, 2048, 256).actor("y", 70, 2048, 256);
//! let app = mb.finish(graph, None).unwrap();
//!
//! let result = run_flow(&app, 2, Interconnect::fsl(), &FlowOptions::default()).unwrap();
//! assert!(result.guaranteed_throughput() > 0.0);
//! assert!(result.project.files.contains_key("system.tcl"));
//! ```

pub mod dse;
pub mod experiments;
pub mod flow;
pub mod parallel;
pub mod predict;
pub mod report;
pub mod serve;
pub mod validate;

pub use dse::{
    explore_report, explore_use_cases, pareto_front, DsePoint, DseReport, SkippedPoint,
    UseCaseDseReport, UseCasePoint,
};
pub use experiments::{
    ca_overhead_experiment, ca_overhead_vs_serialization_cost, fig6_experiment,
    noc_flow_control_overhead, table1, CaOverheadResult, Fig6Row, Table1Row,
};
pub use flow::{
    run_flow, run_flow_with_arch, run_multi_flow, AppSection, FlowError, FlowOptions, FlowResult,
    MultiFlowResult, StepTimings,
};
pub use parallel::{default_jobs, dynamic_map};
pub use predict::predicted_throughput;
pub use validate::GuaranteeReport;
