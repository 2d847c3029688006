//! # mamps-codegen — the MAMPS platform generator
//!
//! Turns a mapped application into a complete, buildable project (paper
//! §5.2): per-tile C wrapper code with the static-order schedule as a
//! lookup table, communication initialization, calculated memory maps, the
//! structural hardware netlist with instantiated template components, NoC
//! route programming, and the XPS TCL build script. On the real flow this
//! project goes to Xilinx Platform Studio; here it is the verifiable
//! artefact of the generation step (Table 1, "Generating Xilinx project").
//!
//! ## Example
//!
//! ```
//! use mamps_codegen::generate_project;
//! use mamps_mapping::flow::{map_application, MapOptions};
//! use mamps_platform::arch::Architecture;
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
//! mb.actor("x", 50, 2048, 128).actor("y", 80, 2048, 128);
//! let app = mb.finish(graph, None).unwrap();
//! let arch = Architecture::homogeneous("m", 2, Interconnect::fsl()).unwrap();
//! let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
//!
//! let project = generate_project(&app, app.graph(), &mapped.mapping, &arch, "demo").unwrap();
//! assert!(project.files.contains_key("system.tcl"));
//! ```

#![forbid(unsafe_code)]

pub mod cwrap;
pub mod memmap;
pub mod netlist;
pub mod project;
pub mod tcl;

pub use memmap::{memory_maps, TileMemoryMap};
pub use project::{generate_project, Project};

/// Errors of the platform generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// The mapping/architecture combination is invalid for generation.
    Invalid(String),
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::Invalid(m) => write!(f, "cannot generate platform: {m}"),
        }
    }
}

impl std::error::Error for GenError {}
