//! The architecture model: a validated set of tiles plus an interconnect
//! (paper §4), and the automated architecture-model generation used by the
//! flow (Table 1: "Generating architecture model — 1 second").

use serde::{Deserialize, Serialize};

use crate::interconnect::Interconnect;
use crate::tile::{TileConfig, TileKind, MAX_TILE_MEMORY_BYTES};
use crate::types::TileId;

/// Errors produced while building or validating an architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchError {
    /// The architecture violates a structural rule; the message explains.
    Invalid(String),
}

impl std::fmt::Display for ArchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchError::Invalid(m) => write!(f, "invalid architecture: {m}"),
        }
    }
}

impl std::error::Error for ArchError {}

/// A validated MPSoC architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Architecture {
    name: String,
    tiles: Vec<TileConfig>,
    interconnect: Interconnect,
    /// Platform clock in MHz (the ML605 designs run at 100 MHz). Only used
    /// to convert cycle counts into wall-clock figures for reports.
    clock_mhz: u64,
}

impl Architecture {
    /// Builds and validates an architecture.
    ///
    /// # Errors
    ///
    /// [`ArchError::Invalid`] if there are no tiles, tile names collide,
    /// more than one master tile exists (peripherals are not shared — paper
    /// §4 guarantees predictability by avoiding shared peripherals), a tile
    /// exceeds the memory limit, or a NoC mesh is too small for the tiles.
    pub fn new(
        name: impl Into<String>,
        tiles: Vec<TileConfig>,
        interconnect: Interconnect,
    ) -> Result<Architecture, ArchError> {
        if tiles.is_empty() {
            return Err(ArchError::Invalid("architecture has no tiles".into()));
        }
        let mut names = std::collections::HashSet::new();
        for t in &tiles {
            if !names.insert(t.name().to_string()) {
                return Err(ArchError::Invalid(format!(
                    "duplicate tile name `{}`",
                    t.name()
                )));
            }
            if t.imem_bytes() + t.dmem_bytes() > MAX_TILE_MEMORY_BYTES {
                return Err(ArchError::Invalid(format!(
                    "tile `{}` exceeds the {MAX_TILE_MEMORY_BYTES}-byte memory limit",
                    t.name()
                )));
            }
        }
        let masters = tiles
            .iter()
            .filter(|t| t.kind() == TileKind::Master)
            .count();
        if masters > 1 {
            return Err(ArchError::Invalid(format!(
                "{masters} master tiles; peripherals must not be shared, \
                 so at most one tile may be a master"
            )));
        }
        if let Interconnect::Noc(noc) = &interconnect {
            if noc.router_count() < tiles.len() {
                return Err(ArchError::Invalid(format!(
                    "{}x{} mesh has {} routers for {} tiles",
                    noc.width,
                    noc.height,
                    noc.router_count(),
                    tiles.len()
                )));
            }
        }
        Ok(Architecture {
            name: name.into(),
            tiles,
            interconnect,
            clock_mhz: 100,
        })
    }

    /// Generates a homogeneous architecture of `n` MicroBlaze tiles (one
    /// master, the rest slaves) — the automated "architecture model
    /// generation" step of the flow.
    ///
    /// # Errors
    ///
    /// Propagates validation errors (e.g. `n == 0`).
    pub fn homogeneous(
        name: impl Into<String>,
        n: usize,
        interconnect: Interconnect,
    ) -> Result<Architecture, ArchError> {
        let tiles = (0..n)
            .map(|i| {
                if i == 0 {
                    TileConfig::master(format!("tile{i}"))
                } else {
                    TileConfig::slave(format!("tile{i}"))
                }
            })
            .collect();
        Architecture::new(name, tiles, interconnect)
    }

    /// Like [`homogeneous`](Self::homogeneous) but every tile carries a
    /// communication assist (the §6.3 what-if platform).
    ///
    /// # Errors
    ///
    /// Propagates validation errors.
    pub fn homogeneous_with_ca(
        name: impl Into<String>,
        n: usize,
        interconnect: Interconnect,
    ) -> Result<Architecture, ArchError> {
        let tiles = (0..n)
            .map(|i| TileConfig::with_communication_assist(format!("tile{i}")))
            .collect();
        Architecture::new(name, tiles, interconnect)
    }

    /// The architecture's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tiles, indexable by [`TileId`].
    pub fn tiles(&self) -> &[TileConfig] {
        &self.tiles
    }

    /// One tile by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn tile(&self, id: TileId) -> &TileConfig {
        &self.tiles[id.0]
    }

    /// Number of tiles.
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// The interconnect.
    pub fn interconnect(&self) -> &Interconnect {
        &self.interconnect
    }

    /// Platform clock in MHz.
    pub fn clock_mhz(&self) -> u64 {
        self.clock_mhz
    }

    /// Overrides the platform clock (builder style).
    pub fn with_clock_mhz(mut self, mhz: u64) -> Architecture {
        self.clock_mhz = mhz;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_has_one_master() {
        let a = Architecture::homogeneous("a", 5, Interconnect::fsl()).unwrap();
        assert_eq!(a.tile_count(), 5);
        let masters = a
            .tiles()
            .iter()
            .filter(|t| t.kind() == TileKind::Master)
            .count();
        assert_eq!(masters, 1);
        assert_eq!(a.tile(TileId(0)).kind(), TileKind::Master);
        assert_eq!(a.tile(TileId(1)).kind(), TileKind::Slave);
    }

    #[test]
    fn empty_rejected() {
        assert!(Architecture::new("e", vec![], Interconnect::fsl()).is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let tiles = vec![TileConfig::master("t"), TileConfig::slave("t")];
        assert!(Architecture::new("d", tiles, Interconnect::fsl()).is_err());
    }

    #[test]
    fn two_masters_rejected() {
        let tiles = vec![TileConfig::master("a"), TileConfig::master("b")];
        let err = Architecture::new("m", tiles, Interconnect::fsl()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid architecture: 2 master tiles; peripherals must not be shared, \
             so at most one tile may be a master"
        );
    }

    #[test]
    fn undersized_mesh_rejected() {
        let noc = crate::noc::NocConfig::for_tiles(2); // 2x1
        let tiles = vec![
            TileConfig::master("a"),
            TileConfig::slave("b"),
            TileConfig::slave("c"),
        ];
        let err = Architecture::new("u", tiles, Interconnect::Noc(noc)).unwrap_err();
        assert!(
            err.to_string()
                .contains("2x1 mesh has 2 routers for 3 tiles"),
            "{err}"
        );
    }

    #[test]
    fn noc_fits_tiles() {
        let a = Architecture::homogeneous("n", 5, Interconnect::noc_for_tiles(5)).unwrap();
        match a.interconnect() {
            Interconnect::Noc(noc) => assert!(noc.router_count() >= 5),
            _ => panic!("expected NoC"),
        }
    }

    #[test]
    fn clock_override() {
        let a = Architecture::homogeneous("c", 1, Interconnect::fsl())
            .unwrap()
            .with_clock_mhz(150);
        assert_eq!(a.clock_mhz(), 150);
    }
}
