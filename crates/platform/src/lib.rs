//! # mamps-platform — the MAMPS template-based MPSoC architecture model
//!
//! Implements the architecture side of the paper (§4 and §5.3): tile
//! templates (master, slave, communication-assist, hardware-IP), the two
//! interconnects (point-to-point FSL and the SDM mesh NoC with XY routing
//! and per-connection wire allocation), the Fig. 4 communication parameters
//! of each interconnect, an FPGA area model (including the ≈12 % slice
//! overhead of NoC flow control), and validated architecture construction
//! with automated template instantiation.
//!
//! Peripherals are never shared: an architecture has at most one master
//! tile, the one that owns them, which keeps every tile's timing
//! independent of the others' (§4). The predictable peripheral arbiter
//! the paper names as future work (§7) is not modelled.
//!
//! ## Example
//!
//! ```
//! use mamps_platform::arch::Architecture;
//! use mamps_platform::interconnect::{CommParams, Interconnect};
//! use mamps_platform::types::TileId;
//!
//! let arch = Architecture::homogeneous("demo", 4, Interconnect::noc_for_tiles(4))?;
//! let params = CommParams::for_connection(arch.interconnect(), TileId(0), TileId(3), 2);
//! assert_eq!(params.cycles_per_word, 16); // 32 bits over 2 one-bit wires
//! # Ok::<(), mamps_platform::arch::ArchError>(())
//! ```

#![forbid(unsafe_code)]

pub mod arch;
pub mod area;
pub mod gen;
pub mod interconnect;
pub mod noc;
pub mod tile;
pub mod types;
pub mod xml;

pub use arch::{ArchError, Architecture};
pub use area::{platform_area, Area, AreaReport};
pub use gen::ArchSpec;
pub use interconnect::{CommParams, Interconnect};
pub use noc::{NocConfig, WireAllocator};
pub use tile::{SerializationCost, TileConfig, TileKind};
pub use types::{ProcessorType, TileId};
