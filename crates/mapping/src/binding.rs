//! Actor-to-tile binding: options and binder dispatch.
//!
//! The [`BindOptions`] carry a [`Binder`] (see [`crate::strategy`])
//! alongside the pinning constraints and the occupancy, and [`bind`]
//! dispatches on it. The default is the deterministic greedy list binder
//! ([`Binder::Greedy`]) — actors placed in order of decreasing work
//! (WCET x repetitions), each on the feasible tile with the lowest
//! weighted cost ([`crate::cost`]) — mirroring the load-balancing binder
//! of SDF3 (paper §5.1 keeps "the algorithms used during mapping ... from
//! \[14\]").

use mamps_platform::arch::Architecture;
use mamps_platform::interconnect::Interconnect;
use mamps_platform::noc::WireAllocator;
use mamps_platform::types::TileId;
use mamps_sdf::cache::GlobalAnalysisCache;
use mamps_sdf::graph::ActorId;
use mamps_sdf::model::ApplicationModel;
use mamps_sdf::repetition::repetition_vector;
use serde::Serialize as _;

use crate::error::MapError;
use crate::mapping::{Binding, Mapping};
use crate::strategy::{self, Binder};

/// Resources already committed on a partially occupied platform.
///
/// The multi-application admission loop ([`crate::multi`]) maps one
/// application at a time; every binder receives the occupancy of the
/// previously admitted applications through
/// [`BindOptions::occupancy`] and places the next application on the
/// *residual* resources: remaining tile memory, remaining NoC wires, and
/// (as a load-balancing hint) the work already running on each tile. An
/// empty occupancy — the default — reproduces single-application binding
/// exactly.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Occupancy {
    /// Implementation memory bytes (code + data footprints) already
    /// committed per tile (indexed by tile id; short vectors read as
    /// zero).
    pub tile_mem: Vec<u64>,
    /// Channel-buffer bytes already committed against each tile's data
    /// memory ([`crate::mapping::Mapping::buffer_bytes_per_tile`]).
    pub tile_buf: Vec<u64>,
    /// Work units (WCET × repetitions per iteration) already placed per
    /// tile.
    pub tile_work: Vec<u64>,
    /// Reserved NoC connections: `(from, to, wires)` per cross-tile
    /// channel of the already-admitted applications.
    pub connections: Vec<(TileId, TileId, u32)>,
}

impl Occupancy {
    /// An occupancy with all resources free on a `tiles`-tile platform.
    pub fn empty(tiles: usize) -> Occupancy {
        Occupancy {
            tile_mem: vec![0; tiles],
            tile_buf: vec![0; tiles],
            tile_work: vec![0; tiles],
            connections: Vec::new(),
        }
    }

    /// Memory bytes already committed on `tile` — implementation
    /// footprints plus channel-buffer bytes, since both live in the
    /// tile's memories. Binders place against what is genuinely left.
    pub fn mem_on(&self, tile: TileId) -> u64 {
        self.tile_mem.get(tile.0).copied().unwrap_or(0) + self.buf_on(tile)
    }

    /// Channel-buffer bytes already committed against `tile`'s dmem.
    pub fn buf_on(&self, tile: TileId) -> u64 {
        self.tile_buf.get(tile.0).copied().unwrap_or(0)
    }

    /// Work units already placed on `tile`.
    pub fn work_on(&self, tile: TileId) -> u64 {
        self.tile_work.get(tile.0).copied().unwrap_or(0)
    }

    /// Total work units recorded across all tiles.
    pub fn total_work(&self) -> u64 {
        self.tile_work.iter().sum()
    }

    /// Records the resources of a mapped application: per-tile memory of
    /// the chosen implementations, channel-buffer bytes against each
    /// tile's dmem, per-tile work, and the NoC connections of its
    /// cross-tile channels.
    ///
    /// # Errors
    ///
    /// Propagates consistency errors from the repetition vector (cannot
    /// happen for an application that was successfully mapped).
    pub fn occupy(&mut self, app: &ApplicationModel, mapping: &Mapping) -> Result<(), MapError> {
        let graph = app.graph();
        let q = repetition_vector(graph)?;
        let binding = &mapping.binding;
        let max_tile = binding.tile_of.iter().map(|t| t.0 + 1).max().unwrap_or(0);
        if self.tile_mem.len() < max_tile {
            self.tile_mem.resize(max_tile, 0);
            self.tile_buf.resize(max_tile, 0);
            self.tile_work.resize(max_tile, 0);
        }
        for (aid, _) in graph.actors() {
            let t = binding.tile_of[aid.0];
            if let Some(im) = app.implementation_for(aid, binding.processor_of[aid.0].name()) {
                self.tile_mem[t.0] += im.instruction_memory + im.data_memory;
            }
            self.tile_work[t.0] += binding.wcet_of[aid.0] * q.of(aid);
        }
        for (t, bytes) in mapping
            .buffer_bytes_per_tile(graph, self.tile_buf.len())
            .into_iter()
            .enumerate()
        {
            self.tile_buf[t] += bytes;
        }
        for (cid, ch) in graph.channels() {
            if ch.is_self_edge() || !binding.crosses_tiles(ch.src(), ch.dst()) {
                continue;
            }
            let wires = mapping.channels[cid.0].wires;
            if wires > 0 {
                self.connections.push((
                    binding.tile_of[ch.src().0],
                    binding.tile_of[ch.dst().0],
                    wires,
                ));
            }
        }
        Ok(())
    }

    /// A wire allocator for `arch`'s NoC, seeded with the reserved
    /// connections; `None` on FSL platforms.
    ///
    /// # Errors
    ///
    /// [`MapError::Wires`] if the recorded reservations no longer fit the
    /// NoC (inconsistent occupancy).
    pub(crate) fn wire_allocator(
        &self,
        arch: &Architecture,
    ) -> Result<Option<WireAllocator>, MapError> {
        let Interconnect::Noc(noc) = arch.interconnect() else {
            return Ok(None);
        };
        let mut alloc = WireAllocator::new(*noc);
        for &(from, to, wires) in &self.connections {
            alloc.allocate(from, to, wires)?;
        }
        Ok(Some(alloc))
    }
}

/// Options for the binder.
#[derive(Debug, Clone, Default)]
pub struct BindOptions {
    /// Force specific actors onto specific tiles (e.g. peripherals-needing
    /// actors onto the master tile). Honoured by every binder.
    pub pinned: Vec<(ActorId, TileId)>,
    /// The binder to dispatch to (default: greedy).
    pub strategy: Binder,
    /// Resources already committed by previously admitted applications
    /// (multi-application use-cases); empty for single-application flows.
    /// Honoured by every binder: binding happens against the residual
    /// tile memory and, on NoCs, the residual wires.
    pub occupancy: Occupancy,
}

impl BindOptions {
    /// The default options with a specific binder.
    pub fn with_strategy(strategy: Binder) -> BindOptions {
        BindOptions {
            strategy,
            ..BindOptions::default()
        }
    }

    /// The binding-relevant options as a serde value, for pass
    /// fingerprinting: binder name, pins and occupancy.
    pub fn fingerprint_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            (
                "strategy".to_string(),
                serde::Value::Str(self.strategy.name().to_string()),
            ),
            ("pinned".to_string(), self.pinned.to_value()),
            ("occupancy".to_string(), self.occupancy.to_value()),
        ])
    }
}

/// Binds the application's actors to the architecture's tiles with
/// `opts.strategy`. The genetic binder's fitness analyses consult
/// `cache`, which memoizes and never changes the binding.
///
/// # Errors
///
/// * [`MapError::Sdf`] if the graph is inconsistent.
/// * [`MapError::Infeasible`] if some actor fits no tile (no implementation
///   for any tile's processor type, or memory exhausted everywhere).
pub fn bind(
    app: &ApplicationModel,
    arch: &Architecture,
    opts: &BindOptions,
    cache: Option<&GlobalAnalysisCache>,
) -> Result<Binding, MapError> {
    match opts.strategy {
        Binder::Greedy => strategy::greedy(app, arch, opts),
        Binder::Spiral => strategy::spiral(app, arch, opts),
        Binder::Genetic => strategy::genetic(app, arch, opts, cache),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamps_platform::interconnect::Interconnect;
    use mamps_sdf::graph::SdfGraphBuilder;
    use mamps_sdf::model::HomogeneousModelBuilder;

    fn pipeline_app(n: usize, wcets: &[u64]) -> ApplicationModel {
        let mut b = SdfGraphBuilder::new("pipe");
        let ids: Vec<_> = (0..n).map(|i| b.add_actor(format!("a{i}"), 1)).collect();
        for i in 0..n - 1 {
            b.add_channel(format!("e{i}"), ids[i], 1, ids[i + 1], 1);
        }
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        for (i, &wcet) in wcets.iter().enumerate().take(n) {
            mb.actor(format!("a{i}"), wcet, 4096, 512);
        }
        mb.finish(g, None).unwrap()
    }

    #[test]
    fn heavy_actors_spread_over_tiles() {
        let app = pipeline_app(4, &[100, 100, 100, 100]);
        let arch = Architecture::homogeneous("a", 4, Interconnect::fsl()).unwrap();
        let b = bind(&app, &arch, &BindOptions::default(), None).unwrap();
        // Equal heavy work: every actor gets its own tile.
        let mut tiles: Vec<usize> = b.tile_of.iter().map(|t| t.0).collect();
        tiles.sort_unstable();
        tiles.dedup();
        assert_eq!(tiles.len(), 4);
    }

    #[test]
    fn communication_pull_groups_light_actors() {
        // Two heavy + two very light actors, two tiles: the light actors
        // co-locate with their communication partners rather than spreading.
        let app = pipeline_app(4, &[1000, 1, 1, 1000]);
        let arch = Architecture::homogeneous("a", 2, Interconnect::fsl()).unwrap();
        let b = bind(&app, &arch, &BindOptions::default(), None).unwrap();
        let g = app.graph();
        let a0 = g.actor_by_name("a0").unwrap();
        let a3 = g.actor_by_name("a3").unwrap();
        assert_ne!(
            b.tile_of[a0.0], b.tile_of[a3.0],
            "heavy actors should be load-balanced apart"
        );
    }

    #[test]
    fn pinning_respected() {
        let app = pipeline_app(3, &[10, 10, 10]);
        let arch = Architecture::homogeneous("a", 3, Interconnect::fsl()).unwrap();
        let a2 = app.graph().actor_by_name("a2").unwrap();
        let opts = BindOptions {
            pinned: vec![(a2, TileId(0))],
            ..Default::default()
        };
        let b = bind(&app, &arch, &opts, None).unwrap();
        assert_eq!(b.tile_of[a2.0], TileId(0));
    }

    #[test]
    fn no_implementation_is_infeasible() {
        let app = pipeline_app(2, &[1, 1]);
        let mut tiles = vec![mamps_platform::tile::TileConfig::master("t0")];
        tiles[0] = tiles[0]
            .clone()
            .with_processor(mamps_platform::types::ProcessorType::custom("dsp"));
        let arch = Architecture::new("a", tiles, Interconnect::fsl()).unwrap();
        assert!(matches!(
            bind(&app, &arch, &BindOptions::default(), None),
            Err(MapError::Infeasible(_))
        ));
    }

    #[test]
    fn memory_exhaustion_is_infeasible() {
        // Actors that almost fill a tile each, on a single tile.
        let mut b = SdfGraphBuilder::new("m");
        let x = b.add_actor("x", 1);
        let y = b.add_actor("y", 1);
        b.add_channel("e", x, 1, y, 1);
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        mb.actor("x", 1, 200 * 1024, 0).actor("y", 1, 200 * 1024, 0);
        let app = mb.finish(g, None).unwrap();
        let arch = Architecture::homogeneous("a", 1, Interconnect::fsl()).unwrap();
        assert!(matches!(
            bind(&app, &arch, &BindOptions::default(), None),
            Err(MapError::Infeasible(_))
        ));
    }

    #[test]
    fn binding_is_deterministic() {
        let app = pipeline_app(5, &[7, 3, 9, 4, 6]);
        let arch = Architecture::homogeneous("a", 3, Interconnect::noc_for_tiles(3)).unwrap();
        let b1 = bind(&app, &arch, &BindOptions::default(), None).unwrap();
        let b2 = bind(&app, &arch, &BindOptions::default(), None).unwrap();
        assert_eq!(b1, b2);
    }

    #[test]
    fn dispatch_uses_the_configured_strategy() {
        let app = pipeline_app(4, &[50, 50, 50, 50]);
        let arch = Architecture::homogeneous("a", 4, Interconnect::noc_for_tiles(4)).unwrap();
        let spiral = BindOptions::with_strategy(Binder::Spiral);
        let via_dispatch = bind(&app, &arch, &spiral, None).unwrap();
        let direct = strategy::spiral(&app, &arch, &spiral).unwrap();
        assert_eq!(via_dispatch, direct);
    }
}
