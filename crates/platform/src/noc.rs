//! The Spatial-Division-Multiplex (SDM) mesh NoC (paper §5.3.1, after \[17\]).
//!
//! One router per tile, arranged in a 2-D mesh kept as close to square as
//! possible (the maximum distance between tiles relates directly to
//! connection latency). Connections are programmed point-to-point: each is
//! assigned a number of *wires* on every link along its XY route. A wire
//! belongs to exactly one connection at a time — spatial division
//! multiplexing — so allocated bandwidth is guaranteed, and the integration
//! into MAMPS added credit-based flow control (costing ≈12 % extra slices,
//! see [`crate::area`]).

use serde::{Deserialize, Serialize};

use crate::types::TileId;

/// Position of a router in the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Coord {
    /// Column (0-based).
    pub x: u32,
    /// Row (0-based).
    pub y: u32,
}

/// A directed link between two neighbouring routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Link {
    /// Source router.
    pub from: (u32, u32),
    /// Destination router (4-neighbour).
    pub to: (u32, u32),
}

/// Static NoC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Mesh width (columns).
    pub width: u32,
    /// Mesh height (rows).
    pub height: u32,
    /// Wires per directed link available for SDM allocation.
    pub wires_per_link: u32,
    /// Pipeline latency of one router hop, in cycles.
    pub router_latency: u64,
    /// Words of buffering per router on each connection's path.
    pub buffer_words_per_hop: u64,
    /// Credit-based flow control (the MAMPS integration adds this; the
    /// original NoC \[17\] lacked it).
    pub flow_control: bool,
}

impl NocConfig {
    /// A NoC sized for `tiles` tiles with default parameters.
    pub fn for_tiles(tiles: usize) -> NocConfig {
        let (width, height) = mesh_dimensions(tiles);
        NocConfig {
            width,
            height,
            wires_per_link: 8,
            router_latency: 2,
            buffer_words_per_hop: 2,
            flow_control: true,
        }
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Coordinate of the router attached to `tile` (row-major placement).
    ///
    /// # Panics
    ///
    /// Panics if the tile index does not fit the mesh.
    pub fn tile_coord(&self, tile: TileId) -> Coord {
        assert!(
            tile.0 < self.router_count(),
            "tile {tile} does not fit a {}x{} mesh",
            self.width,
            self.height
        );
        let idx = tile.0 as u64;
        let width = u64::from(self.width);
        Coord {
            x: (idx % width) as u32,
            y: (idx / width) as u32,
        }
    }

    /// XY (dimension-ordered) route between two tiles: first along X, then
    /// along Y. Deterministic and deadlock-free.
    pub fn route(&self, from: TileId, to: TileId) -> Vec<Link> {
        let a = self.tile_coord(from);
        let b = self.tile_coord(to);
        let mut links = Vec::new();
        let (mut x, mut y) = (a.x, a.y);
        while x != b.x {
            let nx = if b.x > x { x + 1 } else { x - 1 };
            links.push(Link {
                from: (x, y),
                to: (nx, y),
            });
            x = nx;
        }
        while y != b.y {
            let ny = if b.y > y { y + 1 } else { y - 1 };
            links.push(Link {
                from: (x, y),
                to: (x, ny),
            });
            y = ny;
        }
        links
    }

    /// Number of hops between two tiles (route length).
    pub fn hops(&self, from: TileId, to: TileId) -> u64 {
        let a = self.tile_coord(from);
        let b = self.tile_coord(to);
        (a.x.abs_diff(b.x) + a.y.abs_diff(b.y)) as u64
    }
}

/// Chooses near-square mesh dimensions for `tiles` tiles (paper §5.3.1:
/// "the network is kept as close to square as possible").
pub fn mesh_dimensions(tiles: usize) -> (u32, u32) {
    let n = tiles.max(1) as u32;
    let mut w = (n as f64).sqrt().ceil() as u32;
    w = w.max(1);
    let h = n.div_ceil(w);
    (w, h)
}

/// Error produced when SDM wire allocation fails.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireAllocationError {
    /// The saturated link.
    pub link: Link,
    /// Wires requested on that link.
    pub requested: u32,
    /// Wires still free on that link.
    pub available: u32,
}

impl std::fmt::Display for WireAllocationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "link {:?}->{:?} has {} free wires, {} requested",
            self.link.from, self.link.to, self.available, self.requested
        )
    }
}

impl std::error::Error for WireAllocationError {}

/// Tracks per-link wire usage while connections are programmed.
#[derive(Debug, Clone)]
pub struct WireAllocator {
    config: NocConfig,
    used: std::collections::HashMap<Link, u32>,
}

impl WireAllocator {
    /// Creates an allocator for `config` with all wires free.
    pub fn new(config: NocConfig) -> WireAllocator {
        WireAllocator {
            config,
            used: std::collections::HashMap::new(),
        }
    }

    /// Free wires on `link`.
    pub fn free_on(&self, link: Link) -> u32 {
        self.config.wires_per_link - self.used.get(&link).copied().unwrap_or(0)
    }

    /// Reserves `wires` wires on every link of the route `from -> to`.
    ///
    /// Returns the route on success. Nothing is reserved on failure.
    ///
    /// # Errors
    ///
    /// [`WireAllocationError`] naming the first saturated link.
    pub fn allocate(
        &mut self,
        from: TileId,
        to: TileId,
        wires: u32,
    ) -> Result<Vec<Link>, WireAllocationError> {
        let route = self.config.route(from, to);
        for &link in &route {
            let available = self.free_on(link);
            if available < wires {
                return Err(WireAllocationError {
                    link,
                    requested: wires,
                    available,
                });
            }
        }
        for &link in &route {
            *self.used.entry(link).or_insert(0) += wires;
        }
        Ok(route)
    }

    /// Maximum wires allocatable on the whole route `from -> to`.
    pub fn max_allocatable(&self, from: TileId, to: TileId) -> u32 {
        self.config
            .route(from, to)
            .iter()
            .map(|&l| self.free_on(l))
            .min()
            .unwrap_or(self.config.wires_per_link)
    }

    /// The NoC configuration this allocator manages.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_dimensions_near_square() {
        assert_eq!(mesh_dimensions(1), (1, 1));
        assert_eq!(mesh_dimensions(2), (2, 1));
        assert_eq!(mesh_dimensions(4), (2, 2));
        assert_eq!(mesh_dimensions(5), (3, 2));
        assert_eq!(mesh_dimensions(9), (3, 3));
        assert_eq!(mesh_dimensions(10), (4, 3));
        // Capacity always sufficient.
        for n in 1..50 {
            let (w, h) = mesh_dimensions(n);
            assert!((w * h) as usize >= n);
            assert!(w.abs_diff(h) <= 1, "{n} tiles -> {w}x{h} not near-square");
        }
    }

    #[test]
    fn xy_route_properties() {
        let noc = NocConfig::for_tiles(9); // 3x3
        let route = noc.route(TileId(0), TileId(8)); // (0,0) -> (2,2)
        assert_eq!(route.len(), 4);
        // X first, then Y.
        assert_eq!(route[0].from, (0, 0));
        assert_eq!(route[0].to, (1, 0));
        assert_eq!(route[3].to, (2, 2));
        assert_eq!(noc.hops(TileId(0), TileId(8)), 4);
        assert!(noc.route(TileId(4), TileId(4)).is_empty());
    }

    #[test]
    fn wire_allocation_exhaustion() {
        let noc = NocConfig {
            wires_per_link: 2,
            ..NocConfig::for_tiles(4)
        };
        let mut alloc = WireAllocator::new(noc);
        assert!(alloc.allocate(TileId(0), TileId(1), 1).is_ok());
        assert!(alloc.allocate(TileId(0), TileId(1), 1).is_ok());
        let err = alloc.allocate(TileId(0), TileId(1), 1).unwrap_err();
        assert_eq!(err.available, 0);
        assert_eq!(err.requested, 1);
    }

    #[test]
    fn failed_allocation_reserves_nothing() {
        let noc = NocConfig {
            wires_per_link: 2,
            ..NocConfig::for_tiles(4)
        }; // 2x2 mesh
        let mut alloc = WireAllocator::new(noc);
        // Saturate link (1,0)->(1,1) via the route 0->3 (x first: (0,0)->(1,0)->(1,1)).
        alloc.allocate(TileId(0), TileId(3), 2).unwrap();
        // Route 1->3 uses (1,0)->(1,1), which is full.
        let before = alloc.free_on(Link {
            from: (1, 0),
            to: (1, 1),
        });
        assert!(alloc.allocate(TileId(1), TileId(3), 1).is_err());
        let after = alloc.free_on(Link {
            from: (1, 0),
            to: (1, 1),
        });
        assert_eq!(before, after);
    }

    #[test]
    fn max_allocatable_reflects_bottleneck() {
        let noc = NocConfig {
            wires_per_link: 4,
            ..NocConfig::for_tiles(4)
        };
        let mut alloc = WireAllocator::new(noc);
        alloc.allocate(TileId(0), TileId(1), 3).unwrap();
        assert_eq!(alloc.max_allocatable(TileId(0), TileId(1)), 1);
        // The reverse direction is a different set of links.
        assert_eq!(alloc.max_allocatable(TileId(1), TileId(0)), 4);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_tile_index_panics() {
        let noc = NocConfig::for_tiles(4);
        let _ = noc.tile_coord(TileId(99));
    }
}
