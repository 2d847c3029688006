//! Memory-map calculation (paper §5.2: "Memory sizes are calculated for
//! each tile based on the mapped buffers, actors and the size of the
//! scheduling and communication layer").

use mamps_platform::arch::Architecture;
use mamps_platform::tile::MAX_TILE_MEMORY_BYTES;
use mamps_platform::types::TileId;
use mamps_sdf::graph::{ActorId, SdfGraph};
use mamps_sdf::model::{ActorImplementation, ApplicationModel};

use mamps_mapping::mapping::Mapping;

use crate::GenError;

/// Size of the scheduling + communication runtime library per tile.
pub const RUNTIME_IMEM_BYTES: u64 = 8 * 1024;
/// Data segment of the runtime (schedule table, channel descriptors, stack).
pub const RUNTIME_DMEM_BYTES: u64 = 4 * 1024;

/// The computed memory map of one tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileMemoryMap {
    /// Tile index.
    pub tile: TileId,
    /// Instruction memory required, in bytes (rounded to 4 kB).
    pub imem_bytes: u64,
    /// Data memory required, in bytes (rounded to 4 kB).
    pub dmem_bytes: u64,
    /// Portion of data memory holding channel buffers.
    pub buffer_bytes: u64,
}

/// The actors bound to one tile, each with its implementation for the
/// tile's processor type, in `Binding::actors_on` order.
pub type TileActors<'a> = Vec<(ActorId, &'a ActorImplementation)>;

fn round_4k(bytes: u64) -> u64 {
    bytes.div_ceil(4096) * 4096
}

/// Computes per-tile memory maps for a mapped application, and with them,
/// per tile, the implementation each of its actors runs.
///
/// Buffers are charged to the tiles of their endpoints as
/// [`Mapping::buffer_bytes_per_tile`] charges them for admission: local
/// channels entirely on their tile, cross-tile channels `alpha_src`
/// tokens at the source and `alpha_dst` tokens at the destination.
///
/// # Errors
///
/// [`GenError::Invalid`] if an actor lacks an implementation for its
/// tile's processor type, or a tile exceeds the MAMPS 256 kB memory limit.
pub fn memory_maps<'a>(
    app: &'a ApplicationModel,
    graph: &SdfGraph,
    mapping: &Mapping,
    arch: &Architecture,
) -> Result<(Vec<TileMemoryMap>, Vec<TileActors<'a>>), GenError> {
    let buffers = mapping.buffer_bytes_per_tile(graph, arch.tile_count());
    let mut maps = Vec::with_capacity(arch.tile_count());
    let mut placed = Vec::with_capacity(arch.tile_count());
    for (t, &buffer_bytes) in buffers.iter().enumerate() {
        let tile = TileId(t);
        let mut imem = RUNTIME_IMEM_BYTES;
        let mut dmem = RUNTIME_DMEM_BYTES + buffer_bytes;
        let mut actors = TileActors::new();
        for a in mapping.binding.actors_on(tile) {
            let im = app
                .implementation_for(a, arch.tile(tile).processor().name())
                .ok_or_else(|| {
                    GenError::Invalid(format!(
                        "actor `{}` lacks an implementation for tile {t}",
                        graph.actor(a).name()
                    ))
                })?;
            imem += im.instruction_memory;
            dmem += im.data_memory;
            actors.push((a, im));
        }
        let map = TileMemoryMap {
            tile,
            imem_bytes: round_4k(imem),
            dmem_bytes: round_4k(dmem),
            buffer_bytes,
        };
        if map.imem_bytes + map.dmem_bytes > MAX_TILE_MEMORY_BYTES {
            return Err(GenError::Invalid(format!(
                "tile {t} needs {} + {} bytes, exceeding the {MAX_TILE_MEMORY_BYTES}-byte limit",
                map.imem_bytes, map.dmem_bytes
            )));
        }
        maps.push(map);
        placed.push(actors);
    }
    Ok((maps, placed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamps_mapping::flow::{map_application, MapOptions};
    use mamps_platform::interconnect::Interconnect;
    use mamps_sdf::graph::SdfGraphBuilder;
    use mamps_sdf::model::HomogeneousModelBuilder;

    fn setup() -> (ApplicationModel, Architecture, Mapping) {
        let mut b = SdfGraphBuilder::new("app");
        let x = b.add_actor("x", 1);
        let y = b.add_actor("y", 1);
        b.add_channel_full("e", x, 1, y, 1, 0, 64);
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        mb.actor("x", 50, 10 * 1024, 2048)
            .actor("y", 60, 12 * 1024, 1024);
        let app = mb.finish(g, None).unwrap();
        let arch = Architecture::homogeneous("m", 2, Interconnect::fsl()).unwrap();
        let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        (app, arch, mapped.mapping)
    }

    #[test]
    fn maps_cover_all_tiles_and_round_to_4k() {
        let (app, arch, mapping) = setup();
        let (maps, _) = memory_maps(&app, app.graph(), &mapping, &arch).unwrap();
        assert_eq!(maps.len(), 2);
        for m in &maps {
            assert_eq!(m.imem_bytes % 4096, 0);
            assert_eq!(m.dmem_bytes % 4096, 0);
            assert!(m.imem_bytes >= RUNTIME_IMEM_BYTES);
            assert!(m.dmem_bytes >= RUNTIME_DMEM_BYTES);
        }
    }

    #[test]
    fn buffers_charged_to_endpoint_tiles() {
        let (app, arch, mapping) = setup();
        let (maps, _) = memory_maps(&app, app.graph(), &mapping, &arch).unwrap();
        // Cross-tile channel: both tiles hold buffer bytes.
        if mapping.binding.tile_of[0] != mapping.binding.tile_of[1] {
            assert!(maps[0].buffer_bytes > 0);
            assert!(maps[1].buffer_bytes > 0);
        }
    }

    #[test]
    fn oversized_buffers_rejected() {
        let (app, arch, mut mapping) = setup();
        mapping.channels[0].alpha_src = 10_000; // 640 kB of 64-byte tokens
        assert!(matches!(
            memory_maps(&app, app.graph(), &mapping, &arch),
            Err(GenError::Invalid(_))
        ));
    }
}
