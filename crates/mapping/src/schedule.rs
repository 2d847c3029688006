//! Static-order schedule construction.
//!
//! Each tile executes a fixed, cyclic *round* of schedule entries; the
//! scheduler on the generated platform is thereby reduced to a lookup table
//! (paper §6.3). A round fires every actor `q[a] / g` times, where `g` is
//! the gcd of the repetition counts on the tile, so `g` rounds make up one
//! graph iteration. On plain (non-CA) tiles, token serialization and
//! de-serialization run on the PE, so `Send`/`Receive` entries are woven
//! into the round right after the producing / before the consuming actor —
//! matching the generated wrapper code, which sends each actor's outputs as
//! part of its firing.
//!
//! The firing order is derived from the deadlock-freedom witness (the
//! abstract iteration execution), restricted per tile to first-appearance
//! order — a valid static order for any live graph.

use mamps_platform::arch::Architecture;
use mamps_platform::types::TileId;
use mamps_sdf::graph::{ActorId, SdfGraph};
use mamps_sdf::liveness::check_liveness;
use mamps_sdf::ratio::gcd;
use mamps_sdf::repetition::repetition_vector;

use crate::error::MapError;
use crate::mapping::{Binding, ScheduleEntry};

/// Builds the per-tile static-order rounds.
///
/// Returns `(schedules, rounds_per_iteration)`, both indexed by tile id.
///
/// # Errors
///
/// Propagates consistency/deadlock errors from the SDF analyses.
pub fn build_schedules(
    graph: &SdfGraph,
    binding: &Binding,
    arch: &Architecture,
) -> Result<(Vec<Vec<ScheduleEntry>>, Vec<u64>), MapError> {
    let q = repetition_vector(graph)?;
    let order = check_liveness(graph)?;

    let mut schedules: Vec<Vec<ScheduleEntry>> = vec![Vec::new(); arch.tile_count()];
    let mut rounds: Vec<u64> = vec![1; arch.tile_count()];

    for tile_idx in 0..arch.tile_count() {
        let tile = TileId(tile_idx);
        let actors = binding.actors_on(tile);
        if actors.is_empty() {
            continue;
        }
        // Rounds per iteration: gcd of repetition counts on this tile.
        let g = actors.iter().map(|&a| q.of(a)).fold(0, gcd).max(1);
        rounds[tile_idx] = g;

        // First-appearance order within the liveness witness.
        let mut seen = std::collections::HashSet::new();
        let mut ordered: Vec<ActorId> = Vec::new();
        for &a in order.firings() {
            if binding.tile_of[a.0] == tile && seen.insert(a) {
                ordered.push(a);
            }
        }
        debug_assert_eq!(ordered.len(), actors.len());

        let pe_handles_tokens = arch.tile(tile).kind().pe_moves_tokens();

        let mut round = Vec::new();
        for &a in &ordered {
            let fire_reps = q.of(a) / g;
            if pe_handles_tokens {
                for &cid in graph.incoming(a) {
                    let ch = graph.channel(cid);
                    if binding.cross_tiles(ch).is_none() {
                        continue;
                    }
                    round.push(ScheduleEntry::Receive {
                        channel: cid,
                        reps: fire_reps * ch.consumption_rate(),
                    });
                }
            }
            round.push(ScheduleEntry::Fire {
                actor: a,
                reps: fire_reps,
            });
            if pe_handles_tokens {
                for &cid in graph.outgoing(a) {
                    let ch = graph.channel(cid);
                    if binding.cross_tiles(ch).is_none() {
                        continue;
                    }
                    round.push(ScheduleEntry::Send {
                        channel: cid,
                        reps: fire_reps * ch.production_rate(),
                    });
                }
            }
        }
        schedules[tile_idx] = round;
    }
    Ok((schedules, rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamps_platform::interconnect::Interconnect;
    use mamps_platform::types::ProcessorType;
    use mamps_sdf::graph::SdfGraphBuilder;

    fn mk_binding(tiles: &[usize], wcets: &[u64]) -> Binding {
        Binding {
            tile_of: tiles.iter().map(|&t| TileId(t)).collect(),
            processor_of: tiles.iter().map(|_| ProcessorType::microblaze()).collect(),
            wcet_of: wcets.to_vec(),
        }
    }

    #[test]
    fn single_tile_round_and_rounds_count() {
        // q = (1, 10): one round fires a once... gcd(1,10)=1 so one round
        // per iteration with reps (1, 10).
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("a", 1);
        let c = b.add_actor("c", 1);
        b.add_channel("e", a, 10, c, 1);
        let g = b.build().unwrap();
        let arch = Architecture::homogeneous("x", 1, Interconnect::fsl()).unwrap();
        let binding = mk_binding(&[0, 0], &[1, 1]);
        let (sched, rounds) = build_schedules(&g, &binding, &arch).unwrap();
        assert_eq!(rounds[0], 1);
        assert_eq!(
            sched[0],
            vec![
                ScheduleEntry::Fire { actor: a, reps: 1 },
                ScheduleEntry::Fire { actor: c, reps: 10 },
            ]
        );
    }

    #[test]
    fn gcd_splits_iteration_into_rounds() {
        // q = (1, 2, 2); the tile holding the two q=2 actors runs 2 rounds
        // of one firing each per iteration.
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("a", 1);
        let c = b.add_actor("c", 1);
        let d = b.add_actor("d", 1);
        b.add_channel("e1", a, 2, c, 1);
        b.add_channel("e2", c, 1, d, 1);
        let g = b.build().unwrap();
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let binding = mk_binding(&[1, 0, 0], &[1, 1, 1]);
        let (sched, rounds) = build_schedules(&g, &binding, &arch).unwrap();
        assert_eq!(rounds[0], 2);
        assert_eq!(rounds[1], 1);
        assert_eq!(sched[0].len(), 3); // Receive e1, Fire c, Fire d
        assert_eq!(sched[0][1], ScheduleEntry::Fire { actor: c, reps: 1 });
        assert_eq!(sched[0][2], ScheduleEntry::Fire { actor: d, reps: 1 });
    }

    #[test]
    fn cross_tile_channels_get_send_receive() {
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("a", 1);
        let c = b.add_actor("c", 1);
        let e = b.add_channel("e", a, 2, c, 1);
        let g = b.build().unwrap();
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let binding = mk_binding(&[0, 1], &[1, 1]);
        let (sched, _) = build_schedules(&g, &binding, &arch).unwrap();
        assert_eq!(
            sched[0],
            vec![
                ScheduleEntry::Fire { actor: a, reps: 1 },
                ScheduleEntry::Send {
                    channel: e,
                    reps: 2
                },
            ]
        );
        // Tile 1 holds only c (q = 2): it runs 2 rounds of one firing.
        assert_eq!(
            sched[1],
            vec![
                ScheduleEntry::Receive {
                    channel: e,
                    reps: 1
                },
                ScheduleEntry::Fire { actor: c, reps: 1 },
            ]
        );
    }

    #[test]
    fn ca_tiles_skip_send_receive() {
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("a", 1);
        let c = b.add_actor("c", 1);
        b.add_channel("e", a, 1, c, 1);
        let g = b.build().unwrap();
        let arch = Architecture::homogeneous_with_ca("x", 2, Interconnect::fsl()).unwrap();
        let binding = mk_binding(&[0, 1], &[1, 1]);
        let (sched, _) = build_schedules(&g, &binding, &arch).unwrap();
        assert_eq!(sched[0], vec![ScheduleEntry::Fire { actor: a, reps: 1 }]);
        assert_eq!(sched[1], vec![ScheduleEntry::Fire { actor: c, reps: 1 }]);
    }

    #[test]
    fn self_edges_ignored() {
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("a", 1);
        b.add_channel_with_tokens("s", a, 1, a, 1, 1);
        let g = b.build().unwrap();
        let arch = Architecture::homogeneous("x", 1, Interconnect::fsl()).unwrap();
        let binding = mk_binding(&[0], &[1]);
        let (sched, _) = build_schedules(&g, &binding, &arch).unwrap();
        assert_eq!(sched[0], vec![ScheduleEntry::Fire { actor: a, reps: 1 }]);
    }

    #[test]
    fn empty_tiles_have_empty_schedules() {
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("a", 1);
        b.add_channel_with_tokens("s", a, 1, a, 1, 1);
        let g = b.build().unwrap();
        let arch = Architecture::homogeneous("x", 3, Interconnect::fsl()).unwrap();
        let binding = mk_binding(&[1], &[1]);
        let (sched, _) = build_schedules(&g, &binding, &arch).unwrap();
        assert!(sched[0].is_empty());
        assert!(!sched[1].is_empty());
        assert!(sched[2].is_empty());
    }
}
