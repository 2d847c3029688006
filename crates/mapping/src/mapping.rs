//! Mapping data structures: the output of the SDF3-style mapping flow and
//! the common input format shared with the platform generator (the paper's
//! §2 contribution: one format for both tools, no manual translation).

use serde::{Deserialize, Serialize};

use mamps_platform::arch::Architecture;
use mamps_platform::interconnect::Interconnect;
use mamps_platform::types::{ProcessorType, TileId};
use mamps_sdf::graph::{ActorId, Channel, ChannelId, SdfGraph};
use mamps_sdf::model::ApplicationModel;
use mamps_sdf::ratio::Ratio;

/// Actor-to-tile binding with the chosen implementations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Binding {
    /// Tile of each actor (indexed by actor id).
    pub tile_of: Vec<TileId>,
    /// Processor type whose implementation was chosen, per actor.
    pub processor_of: Vec<ProcessorType>,
    /// WCET of the chosen implementation, per actor.
    pub wcet_of: Vec<u64>,
}

impl Binding {
    /// Actors bound to `tile`, in id order.
    pub fn actors_on(&self, tile: TileId) -> Vec<ActorId> {
        self.tile_of
            .iter()
            .enumerate()
            .filter(|(_, &t)| t == tile)
            .map(|(i, _)| ActorId(i))
            .collect()
    }

    /// The tiles of `ch`'s source and destination actors when they
    /// differ: the two ends of a cross-tile channel's connection. `None`
    /// for a channel within one tile, so always for a self-edge.
    pub fn cross_tiles(&self, ch: &Channel) -> Option<(TileId, TileId)> {
        let from = self.tile_of[ch.src().0];
        let to = self.tile_of[ch.dst().0];
        (from != to).then_some((from, to))
    }
}

/// Resources allocated to one application channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelAlloc {
    /// SDM wires on a NoC route (0 for FSL or same-tile channels).
    pub wires: u32,
    /// Source-side buffer capacity in tokens (`alpha_src` in Fig. 4).
    pub alpha_src: u64,
    /// Destination-side buffer capacity in tokens (`alpha_dst` in Fig. 4).
    pub alpha_dst: u64,
    /// Buffer capacity in tokens for same-tile channels.
    pub local_capacity: u64,
}

/// One step of a tile's static-order schedule round.
///
/// The schedule is the *common input format* consumed by the throughput
/// analysis (as static-order constraint channels), by the platform generator
/// (as the C lookup table) and by the simulator — guaranteeing all three
/// agree on the execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScheduleEntry {
    /// Fire an actor `reps` times.
    Fire {
        /// The actor to fire.
        actor: ActorId,
        /// Consecutive firings in this slot.
        reps: u64,
    },
    /// Serialize and send `reps` tokens of a channel (PE-executed
    /// serialization on plain tiles; absent on CA tiles).
    Send {
        /// The channel whose tokens are sent.
        channel: ChannelId,
        /// Tokens sent in this slot.
        reps: u64,
    },
    /// Receive and de-serialize `reps` tokens of a channel.
    Receive {
        /// The channel whose tokens are received.
        channel: ChannelId,
        /// Tokens received in this slot.
        reps: u64,
    },
}

impl ScheduleEntry {
    /// Repetitions of this slot within the round.
    pub fn reps(&self) -> u64 {
        match *self {
            ScheduleEntry::Fire { reps, .. }
            | ScheduleEntry::Send { reps, .. }
            | ScheduleEntry::Receive { reps, .. } => reps,
        }
    }
}

/// A complete mapping: binding, per-tile schedules, channel resources, and
/// the throughput the analysis guarantees for it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    /// The actor binding.
    pub binding: Binding,
    /// Static-order schedule round per tile (indexed by tile id). A round
    /// executes `rounds_per_iteration[tile]` times per graph iteration.
    pub schedules: Vec<Vec<ScheduleEntry>>,
    /// Rounds per graph iteration, per tile.
    pub rounds_per_iteration: Vec<u64>,
    /// Channel resource allocation (indexed by channel id).
    pub channels: Vec<ChannelAlloc>,
    /// Guaranteed throughput in iterations per cycle (numerator,
    /// denominator) — the worst-case bound of the analysis.
    pub guaranteed_iterations: u64,
    /// Denominator of the guaranteed throughput.
    pub guaranteed_cycles: u64,
}

impl Mapping {
    /// Guaranteed throughput as an exact ratio.
    pub fn guaranteed(&self) -> Ratio {
        if self.guaranteed_cycles == 0 {
            Ratio::ZERO
        } else {
            Ratio::new(
                self.guaranteed_iterations as i128,
                self.guaranteed_cycles as i128,
            )
        }
    }

    /// Total allocated NoC wire-links: the sum over cross-tile channels of
    /// allocated SDM wires times the route length in hops. Zero on FSL
    /// interconnects. A strategy-comparison metric: two mappings with the
    /// same throughput and area can still differ in how much of the mesh
    /// they reserve.
    pub fn noc_wire_units(&self, graph: &SdfGraph, arch: &Architecture) -> u64 {
        let Interconnect::Noc(noc) = arch.interconnect() else {
            return 0;
        };
        graph
            .channels()
            .filter_map(|(cid, ch)| {
                let (from, to) = self.binding.cross_tiles(ch)?;
                Some(u64::from(self.channels[cid.0].wires) * noc.hops(from, to))
            })
            .sum()
    }

    /// Channel-buffer memory charged to each tile's data memory, in
    /// bytes: for a cross-tile channel, `alpha_src` tokens live in the
    /// source tile's dmem and `alpha_dst` tokens in the destination's;
    /// a same-tile channel keeps `local_capacity` tokens on its tile.
    /// Self-edges model actor state (Fig. 4) and are not buffered in
    /// dmem. The multi-application admission loop charges these bytes
    /// against tile dmem ([`crate::binding::Occupancy`]), so admission
    /// can fail on buffer memory, not just code and data footprints.
    pub fn buffer_bytes_per_tile(&self, graph: &SdfGraph, tiles: usize) -> Vec<u64> {
        let mut bytes = vec![0u64; tiles];
        for (cid, ch) in graph.channels() {
            if ch.is_self_edge() {
                continue;
            }
            let alloc = &self.channels[cid.0];
            let src = self.binding.tile_of[ch.src().0];
            let dst = self.binding.tile_of[ch.dst().0];
            if src == dst {
                bytes[src.0] += alloc.local_capacity * ch.token_size();
            } else {
                bytes[src.0] += alloc.alpha_src * ch.token_size();
                bytes[dst.0] += alloc.alpha_dst * ch.token_size();
            }
        }
        bytes
    }

    /// Structural validation of the mapping against the application and
    /// architecture it claims to map: every strategy's output must pass.
    ///
    /// Checks that every actor is bound to an existing tile whose processor
    /// matches the recorded implementation choice (processor type and WCET),
    /// that per-tile memory stays within the tile's capacity, that the
    /// channel allocation covers every channel, and that each actor is
    /// fired by its own tile's static-order schedule.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation found.
    pub fn validate(&self, app: &ApplicationModel, arch: &Architecture) -> Result<(), String> {
        let graph = app.graph();
        let n = graph.actor_count();
        if self.binding.tile_of.len() != n
            || self.binding.processor_of.len() != n
            || self.binding.wcet_of.len() != n
        {
            return Err(format!("binding does not cover all {n} actors"));
        }
        let tiles = arch.tile_count();
        let mut mem_used = vec![0u64; tiles];
        for (aid, actor) in graph.actors() {
            let t = self.binding.tile_of[aid.0];
            if t.0 >= tiles {
                return Err(format!("actor `{}` bound to nonexistent {t}", actor.name()));
            }
            let proc = arch.tile(t).processor();
            if self.binding.processor_of[aid.0] != *proc {
                return Err(format!(
                    "actor `{}` records processor `{}` but {t} has `{}`",
                    actor.name(),
                    self.binding.processor_of[aid.0].name(),
                    proc.name()
                ));
            }
            let Some(im) = app.implementation_for(aid, proc.name()) else {
                return Err(format!(
                    "actor `{}` has no implementation for `{}`",
                    actor.name(),
                    proc.name()
                ));
            };
            if im.wcet != self.binding.wcet_of[aid.0] {
                return Err(format!(
                    "actor `{}` records WCET {} but the `{}` implementation has {}",
                    actor.name(),
                    self.binding.wcet_of[aid.0],
                    proc.name(),
                    im.wcet
                ));
            }
            mem_used[t.0] += im.instruction_memory + im.data_memory;
        }
        for (t, &used) in mem_used.iter().enumerate() {
            let tile = arch.tile(TileId(t));
            let cap = tile.imem_bytes() + tile.dmem_bytes();
            if used > cap {
                return Err(format!(
                    "tile {t} overcommitted: {used} bytes used of {cap}"
                ));
            }
        }
        if self.channels.len() != graph.channel_count() {
            return Err(format!(
                "channel allocation covers {} of {} channels",
                self.channels.len(),
                graph.channel_count()
            ));
        }
        if self.schedules.len() != tiles || self.rounds_per_iteration.len() != tiles {
            return Err(format!("schedules do not cover all {tiles} tiles"));
        }
        for (aid, actor) in graph.actors() {
            let t = self.binding.tile_of[aid.0];
            let fired = self.schedules[t.0]
                .iter()
                .any(|e| matches!(e, ScheduleEntry::Fire { actor, .. } if *actor == aid));
            if !fired {
                return Err(format!(
                    "actor `{}` is not fired by its tile's schedule ({t})",
                    actor.name()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_queries() {
        let b = Binding {
            tile_of: vec![TileId(0), TileId(1), TileId(0)],
            processor_of: vec![
                ProcessorType::microblaze(),
                ProcessorType::microblaze(),
                ProcessorType::microblaze(),
            ],
            wcet_of: vec![1, 2, 3],
        };
        assert_eq!(b.actors_on(TileId(0)), vec![ActorId(0), ActorId(2)]);
        let mut g = mamps_sdf::graph::SdfGraphBuilder::new("g");
        let a: Vec<_> = (0..3).map(|i| g.add_actor(format!("a{i}"), 1)).collect();
        g.add_channel("there", a[0], 1, a[1], 1);
        g.add_channel_with_tokens("back", a[1], 1, a[0], 1, 1);
        g.add_channel("local", a[0], 1, a[2], 1);
        g.add_channel_with_tokens("self", a[1], 1, a[1], 1, 1);
        let g = g.build().unwrap();
        let crossing: Vec<_> = g.channels().map(|(_, ch)| b.cross_tiles(ch)).collect();
        let (t0, t1) = (TileId(0), TileId(1));
        assert_eq!(crossing, [Some((t0, t1)), Some((t1, t0)), None, None]);
    }

    #[test]
    fn schedule_entry_reps() {
        assert_eq!(
            ScheduleEntry::Fire {
                actor: ActorId(0),
                reps: 3
            }
            .reps(),
            3
        );
        assert_eq!(
            ScheduleEntry::Send {
                channel: ChannelId(1),
                reps: 5
            }
            .reps(),
            5
        );
    }

    #[test]
    fn guaranteed_ratio() {
        let m = Mapping {
            binding: Binding {
                tile_of: vec![],
                processor_of: vec![],
                wcet_of: vec![],
            },
            schedules: vec![],
            rounds_per_iteration: vec![],
            channels: vec![],
            guaranteed_iterations: 1,
            guaranteed_cycles: 250,
        };
        assert_eq!(m.guaranteed(), Ratio::new(1, 250));
    }
}
