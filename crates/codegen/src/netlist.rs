//! Structural hardware generation: the platform netlist (MHS-style) and the
//! NoC route/wire configuration (paper §5.2: "Template components are
//! instantiated and connected as required ... The interconnect components
//! are instantiated to match the specified communication architecture.
//! Connections are routed and the VHDL code and peripheral driver for the
//! interconnect are also generated when required").

use std::fmt::Write as _;

use mamps_platform::arch::Architecture;
use mamps_platform::interconnect::Interconnect;
use mamps_platform::noc::{Link, WireAllocator};
use mamps_platform::tile::TileKind;
use mamps_platform::types::TileId;
use mamps_sdf::graph::{ChannelId, SdfGraph};

use mamps_mapping::mapping::Mapping;

use crate::memmap::TileMemoryMap;
use crate::GenError;

/// Generates the MHS-style structural netlist of the platform.
pub fn platform_netlist(
    graph: &SdfGraph,
    mapping: &Mapping,
    arch: &Architecture,
    memory: &[TileMemoryMap],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Generated by the MAMPS platform generator");
    let _ = writeln!(out, "# Target: Xilinx Virtex-6 (ML605)");
    let _ = writeln!(out, "PARAMETER VERSION = 2.1.0");
    let _ = writeln!(out);
    for (t, tile) in arch.tiles().iter().enumerate() {
        let kind = match tile.kind() {
            TileKind::Master => "master",
            TileKind::Slave => "slave",
            TileKind::CommunicationAssist => "ca_slave",
            TileKind::HardwareIp => "hw_ip",
        };
        let _ = writeln!(out, "BEGIN tile");
        let _ = writeln!(out, " PARAMETER INSTANCE = {}", tile.name());
        let _ = writeln!(out, " PARAMETER HW_VER = 1.00.a");
        let _ = writeln!(out, " PARAMETER KIND = {kind}");
        let _ = writeln!(out, " PARAMETER PROCESSOR = {}", tile.processor());
        let _ = writeln!(
            out,
            " PARAMETER C_IMEM_SIZE = 0x{:08x}",
            memory[t].imem_bytes
        );
        let _ = writeln!(
            out,
            " PARAMETER C_DMEM_SIZE = 0x{:08x}",
            memory[t].dmem_bytes
        );
        if tile.kind() == TileKind::CommunicationAssist {
            let _ = writeln!(out, " PARAMETER C_CA_PRESENT = 1");
        }
        if tile.has_peripherals() {
            let _ = writeln!(out, " PARAMETER C_PERIPH_ACCESS = 1");
        }
        let _ = writeln!(out, "END");
        let _ = writeln!(out);
    }
    match arch.interconnect() {
        Interconnect::Fsl { fifo_depth } => {
            for (cid, ch) in graph.channels() {
                let Some((from, to)) = mapping.binding.cross_tiles(ch) else {
                    continue;
                };
                let (src, dst) = (arch.tile(from).name(), arch.tile(to).name());
                let _ = writeln!(out, "BEGIN fsl_v20");
                let _ = writeln!(out, " PARAMETER INSTANCE = fsl_{}", cid.0);
                let _ = writeln!(out, " PARAMETER C_FSL_DEPTH = {fifo_depth}");
                let _ = writeln!(out, " PORT FSL_M = {src}.ni_out_{}", cid.0);
                let _ = writeln!(out, " PORT FSL_S = {dst}.ni_in_{}", cid.0);
                let _ = writeln!(out, "END");
                let _ = writeln!(out);
            }
        }
        Interconnect::Noc(noc) => {
            let _ = writeln!(out, "BEGIN sdm_noc");
            let _ = writeln!(out, " PARAMETER INSTANCE = noc0");
            let _ = writeln!(out, " PARAMETER C_MESH_W = {}", noc.width);
            let _ = writeln!(out, " PARAMETER C_MESH_H = {}", noc.height);
            let _ = writeln!(out, " PARAMETER C_WIRES_PER_LINK = {}", noc.wires_per_link);
            let _ = writeln!(
                out,
                " PARAMETER C_FLOW_CONTROL = {}",
                if noc.flow_control { 1 } else { 0 }
            );
            for t in 0..arch.tile_count() {
                let c = noc.tile_coord(TileId(t));
                let _ = writeln!(
                    out,
                    " PORT NI_{t} = {}.ni, ROUTER = ({}, {})",
                    arch.tile(TileId(t)).name(),
                    c.x,
                    c.y
                );
            }
            let _ = writeln!(out, "END");
            let _ = writeln!(out);
        }
    }
    out
}

/// One programmed NoC connection: the SDM wires and XY route of a
/// cross-tile channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelRoute {
    /// The channel.
    pub channel: ChannelId,
    /// Tile of the channel's source actor.
    pub from: TileId,
    /// Tile of the channel's destination actor.
    pub to: TileId,
    /// Wires reserved on every link of the route.
    pub wires: u32,
    /// The route's links, empty between tiles on one router.
    pub links: Vec<Link>,
}

/// Allocates NoC wires for every inter-tile channel in channel order, at
/// least one wire each; empty on FSL.
///
/// # Errors
///
/// [`GenError::Invalid`] if wire allocation fails for the mapping (the
/// mapping flow already validated this; a failure indicates an edited or
/// corrupted mapping).
pub fn allocate_routes(
    graph: &SdfGraph,
    mapping: &Mapping,
    arch: &Architecture,
) -> Result<Vec<ChannelRoute>, GenError> {
    let Interconnect::Noc(noc) = arch.interconnect() else {
        return Ok(Vec::new());
    };
    let mut alloc = WireAllocator::new(*noc);
    let mut routes = Vec::new();
    for (cid, ch) in graph.channels() {
        let Some((from, to)) = mapping.binding.cross_tiles(ch) else {
            continue;
        };
        let wires = mapping.channels[cid.0].wires.max(1);
        let links = alloc
            .allocate(from, to, wires)
            .map_err(|e| GenError::Invalid(format!("channel `{}`: {e}", ch.name())))?;
        routes.push(ChannelRoute {
            channel: cid,
            from,
            to,
            wires,
            links,
        });
    }
    Ok(routes)
}

/// Generates the NoC connection-programming driver source: the XY routes
/// and SDM wire assignments of every inter-tile channel, as
/// [`allocate_routes`] allocated them.
pub fn noc_routes(graph: &SdfGraph, arch: &Architecture, routes: &[ChannelRoute]) -> String {
    if let Interconnect::Fsl { .. } = arch.interconnect() {
        return "/* point-to-point FSL: no route programming needed */\n".into();
    }
    let mut out = String::new();
    let _ = writeln!(out, "/* NoC connection programming, generated. */");
    let _ = writeln!(out, "#include \"mamps_rt.h\"");
    let _ = writeln!(out, "void mamps_noc_setup(void) {{");
    for route in routes {
        let hops: Vec<String> = route
            .links
            .iter()
            .map(|l| format!("{{{},{}}}->{{{},{}}}", l.from.0, l.from.1, l.to.0, l.to.1))
            .collect();
        let _ = writeln!(
            out,
            "    /* {}: {} wires, route {} */",
            graph.channel(route.channel).name(),
            route.wires,
            if hops.is_empty() {
                "local".to_string()
            } else {
                hops.join(" ")
            }
        );
        let _ = writeln!(
            out,
            "    noc_program_connection({cid}, {from}, {to}, {wires});",
            cid = route.channel.0,
            from = route.from.0,
            to = route.to.0,
            wires = route.wires,
        );
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memmap::memory_maps;
    use mamps_mapping::flow::{map_application, MapOptions};
    use mamps_sdf::graph::SdfGraphBuilder;
    use mamps_sdf::model::{ApplicationModel, HomogeneousModelBuilder};

    fn setup(noc: bool) -> (ApplicationModel, Architecture, Mapping) {
        let mut b = SdfGraphBuilder::new("app");
        let x = b.add_actor("x", 1);
        let y = b.add_actor("y", 1);
        let z = b.add_actor("z", 1);
        b.add_channel_full("e1", x, 1, y, 1, 0, 64);
        b.add_channel_full("e2", y, 1, z, 1, 0, 64);
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        mb.actor("x", 50, 4096, 512)
            .actor("y", 60, 4096, 512)
            .actor("z", 70, 4096, 512);
        let app = mb.finish(g, None).unwrap();
        let ic = if noc {
            Interconnect::noc_for_tiles(3)
        } else {
            Interconnect::fsl()
        };
        let arch = Architecture::homogeneous("m", 3, ic).unwrap();
        let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        (app, arch, mapped.mapping)
    }

    #[test]
    fn fsl_netlist_lists_tiles_and_links() {
        let (app, arch, mapping) = setup(false);
        let (maps, _) = memory_maps(&app, app.graph(), &mapping, &arch).unwrap();
        let n = platform_netlist(app.graph(), &mapping, &arch, &maps);
        assert!(n.contains("INSTANCE = tile0"));
        assert!(n.contains("INSTANCE = tile2"));
        assert!(n.contains("fsl_v20"));
        assert!(n.contains("C_FSL_DEPTH = 16"));
        assert!(n.contains("KIND = master"));
        assert!(n.contains("KIND = slave"));
    }

    #[test]
    fn noc_netlist_and_routes() {
        let (app, arch, mapping) = setup(true);
        let (maps, _) = memory_maps(&app, app.graph(), &mapping, &arch).unwrap();
        let n = platform_netlist(app.graph(), &mapping, &arch, &maps);
        assert!(n.contains("sdm_noc"));
        assert!(n.contains("C_FLOW_CONTROL = 1"));
        let routes = allocate_routes(app.graph(), &mapping, &arch).unwrap();
        assert!(!routes.is_empty());
        let text = noc_routes(app.graph(), &arch, &routes);
        assert!(text.contains("noc_program_connection"));
        assert!(text.contains("mamps_noc_setup"));
    }

    #[test]
    fn fsl_routes_are_trivial() {
        let (app, arch, mapping) = setup(false);
        let routes = allocate_routes(app.graph(), &mapping, &arch).unwrap();
        assert!(routes.is_empty());
        assert!(noc_routes(app.graph(), &arch, &routes).contains("point-to-point"));
    }

    #[test]
    fn oversubscribed_links_are_rejected() {
        let (app, arch, mut mapping) = setup(true);
        for alloc in &mut mapping.channels {
            alloc.wires = 9; // one more than a link carries
        }
        let err = allocate_routes(app.graph(), &mapping, &arch).unwrap_err();
        assert!(
            err.to_string().contains("has 8 free wires, 9 requested"),
            "{err}"
        );
    }
}
