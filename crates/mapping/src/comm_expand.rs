//! The Fig. 4 communication-model expansion.
//!
//! Every application channel whose endpoints are bound to different tiles is
//! replaced by the parameterized interconnect model of the paper's Fig. 4:
//! tokens are fragmented into `N` 32-bit words, serialized by the sending
//! tile, carried through a latency-rate connection model (`c1`, `c2`) with
//! `w` words pipelined and `alpha_n` words of in-connection buffering, and
//! de-serialized at the receiver; `alpha_src`/`alpha_dst` bound the buffer
//! space at the endpoints.
//!
//! ## Realization
//!
//! The paper draws eight helper actors (`s1..s3`, `c1`, `c2`, `d1..d3`).
//! This implementation uses nine, splitting the paper's per-token `s1`/`d1`
//! into an instantaneous token/word boundary actor plus a *per-word*
//! (de-)serialization actor, for one reason: conservativeness at finite
//! FIFO depth. When the in-connection buffer `alpha_n` is smaller than a
//! token (`N` words — e.g. 32-word MJPEG tokens over a 16-word FSL FIFO),
//! a per-token serialization actor would either ignore back-pressure
//! (optimistic — the guarantee would break) or demand `N` credits upfront
//! (deadlock). A per-word actor acquires one word credit at a time, exactly
//! like the PE's word loop blocking on a full FIFO. The per-token setup
//! cost is amortized into the per-word time, rounded up (safe).
//!
//! | paper | here (per channel `ch`) | role |
//! |-------|--------------------------|------|
//! | s1    | `ch__frag` + `ch__ser`  | fragment token; PE/CA word loop |
//! | s2    | (merged into `ch__ser`) | word hand-off |
//! | s3    | `ch__srel`              | free source buffer per token |
//! | c1    | `ch__lat`               | latency, `w` words in flight |
//! | c2    | `ch__rate`              | bandwidth (cycles/word) |
//! | d1    | `ch__des` + `ch__asm`   | PE/CA word loop; assemble token |
//! | d2    | `ch__drn`               | drain word, return credit |
//! | d3    | `ch__drel`              | free destination buffer per token |
//!
//! The expanded graph carries explicit self-edges (1 token on every actor,
//! `w` on `ch__lat`), so it must be analysed with
//! [`AnalysisOptions::auto_concurrency`] **enabled**; concurrency is then
//! bounded explicitly by the model, exactly as in SDF3.
//!
//! [`AnalysisOptions::auto_concurrency`]: mamps_sdf::state_space::AnalysisOptions

use mamps_platform::arch::Architecture;
use mamps_platform::interconnect::CommParams;
use mamps_platform::types::words_per_token;
use mamps_sdf::graph::{ActorId, ChannelId, SdfGraph, SdfGraphBuilder};
use mamps_sdf::transform::add_static_orders;

use crate::error::MapError;
use crate::mapping::{Binding, ChannelAlloc, Mapping, ScheduleEntry};

/// Cycles charged to each firing of `actor` for posting its cross-tile
/// tokens: on a CA or IP tile the PE posts one request per token (the
/// setup cycles) while dedicated hardware moves the words. Zero on a tile
/// whose PE moves its own tokens. The analysis adds it to the actor's
/// execution time, and the simulator to every firing.
pub fn posting_overhead(
    graph: &SdfGraph,
    binding: &Binding,
    arch: &Architecture,
    actor: ActorId,
) -> u64 {
    let tile = arch.tile(binding.tile_of[actor.0]);
    if tile.kind().pe_moves_tokens() {
        return 0;
    }
    // A crossing channel is no self-edge, so it is outgoing exactly when
    // `actor` is its source.
    let mut tokens = 0;
    for &cid in graph.outgoing(actor).iter().chain(graph.incoming(actor)) {
        let ch = graph.channel(cid);
        if binding.cross_tiles(ch).is_some() {
            tokens += if ch.src() == actor {
                ch.production_rate()
            } else {
                ch.consumption_rate()
            };
        }
    }
    tokens * tile.pe_token_overhead(0)
}

/// Expands `graph` according to `mapping` on `arch` into the
/// analysis-ready graph, static orders and self-edges included. `graph`
/// gives the structure only: each actor is charged its bound time
/// (`mapping.binding.wcet_of`) plus its [`posting_overhead`].
///
/// # Errors
///
/// * [`MapError::Infeasible`] if a channel allocation is inconsistent
///   (e.g. `alpha_src` below the channel's initial tokens).
/// * Propagated graph-construction errors.
pub fn expand(
    graph: &SdfGraph,
    mapping: &Mapping,
    arch: &Architecture,
) -> Result<SdfGraph, MapError> {
    let binding = &mapping.binding;
    let mut b = SdfGraphBuilder::new([graph.name(), ":comm"].concat());
    // Presized: every analysis probe expands a graph. At most one self-edge
    // per actor and two channels per local channel; a crossing channel
    // adds 9 actors and 17 channels, and a static-order gate 1 and 2.
    let crossing = graph
        .channels()
        .filter(|(_, ch)| binding.cross_tiles(ch).is_some())
        .count();
    let gates: usize = mapping.schedules.iter().map(Vec::len).sum();
    b.reserve(
        graph.actor_count() + 9 * crossing + gates,
        graph.actor_count() + 2 * graph.channel_count() + 17 * crossing + 2 * gates,
    );

    // Original actors take their bound times plus their posting overhead.
    let mut actor_ids: Vec<ActorId> = Vec::with_capacity(graph.actor_count());
    for (aid, actor) in graph.actors() {
        let exec = binding.wcet_of[aid.0] + posting_overhead(graph, binding, arch, aid);
        actor_ids.push(b.add_actor(actor.name(), exec));
    }
    // Self-edges bounding each original actor to one concurrent firing.
    for (aid, actor) in graph.actors() {
        let has_self = graph
            .outgoing(aid)
            .iter()
            .any(|&c| graph.channel(c).is_self_edge());
        if !has_self {
            b.add_channel_with_tokens(
                ["__self_", actor.name()].concat(),
                actor_ids[aid.0],
                1,
                actor_ids[aid.0],
                1,
                1,
            );
        }
    }

    // Per cross-tile channel: its serialization and de-serialization
    // word-loop actors and its words per token, for the static orders.
    let mut word_loops: Vec<Option<(ActorId, ActorId, u64)>> = vec![None; graph.channel_count()];

    for (cid, ch) in graph.channels() {
        let src = actor_ids[ch.src().0];
        let dst = actor_ids[ch.dst().0];
        let alloc: &ChannelAlloc = &mapping.channels[cid.0];
        let Some((from, to)) = binding.cross_tiles(ch) else {
            // Local channel: keep it, add the buffer-capacity reverse edge.
            b.add_channel_full(
                ch.name(),
                src,
                ch.production_rate(),
                dst,
                ch.consumption_rate(),
                ch.initial_tokens(),
                ch.token_size(),
            );
            if !ch.is_self_edge() {
                let cap = alloc.local_capacity;
                if cap < ch.initial_tokens() {
                    return Err(MapError::Infeasible(format!(
                        "channel `{}` local capacity {cap} below initial tokens",
                        ch.name()
                    )));
                }
                b.add_channel_with_tokens(
                    ["__cap_", ch.name()].concat(),
                    dst,
                    ch.consumption_rate(),
                    src,
                    ch.production_rate(),
                    cap - ch.initial_tokens(),
                );
            }
            continue;
        };

        // Cross-tile channel: full Fig. 4 expansion.
        let n_words = words_per_token(ch.token_size());
        let p = ch.production_rate();
        let q_r = ch.consumption_rate();
        let d0 = ch.initial_tokens();
        if alloc.alpha_src < d0 + p {
            return Err(MapError::Infeasible(format!(
                "channel `{}`: alpha_src {} cannot hold the {} initial tokens \
                 plus one production of {p}",
                ch.name(),
                alloc.alpha_src,
                d0
            )));
        }
        if alloc.alpha_dst < q_r {
            return Err(MapError::Infeasible(format!(
                "channel `{}`: alpha_dst {} below the consumption rate {q_r}",
                ch.name(),
                alloc.alpha_dst
            )));
        }
        let (src_tile, dst_tile) = (arch.tile(from), arch.tile(to));
        let params = CommParams::for_connection(arch.interconnect(), from, to, alloc.wires);

        // The channel name followed by `suffix`, allocated once at its
        // final length.
        let part = |suffix: &str| [ch.name(), suffix].concat();
        let frag = b.add_actor(part("__frag"), 0);
        let ser = b.add_actor(part("__ser"), src_tile.word_cycles(n_words));
        let srel = b.add_actor(part("__srel"), 0);
        let lat = b.add_actor(part("__lat"), params.latency);
        let rate = b.add_actor(part("__rate"), params.cycles_per_word);
        let drn = b.add_actor(part("__drn"), 0);
        let des = b.add_actor(part("__des"), dst_tile.word_cycles(n_words));
        let asm = b.add_actor(part("__asm"), 0);
        let drel = b.add_actor(part("__drel"), 0);
        word_loops[cid.0] = Some((ser, des, n_words));

        // Forward path.
        b.add_channel_full(part("__tok"), src, p, frag, 1, d0, ch.token_size());
        b.add_channel(part("__w0"), frag, n_words, ser, 1);
        b.add_channel(part("__w1"), ser, 1, lat, 1);
        b.add_channel(part("__w2"), lat, 1, rate, 1);
        b.add_channel(part("__w3"), rate, 1, drn, 1);
        b.add_channel(part("__w4"), drn, 1, des, 1);
        b.add_channel(part("__w5"), des, 1, asm, n_words);
        b.add_channel_full(part("__tok2"), asm, 1, dst, q_r, 0, ch.token_size());
        // Source buffer space (alpha_src tokens; initial tokens occupy it).
        b.add_channel(part("__cnt"), ser, 1, srel, n_words);
        b.add_channel_with_tokens(part("__asrc"), srel, 1, src, p, alloc.alpha_src - d0);
        // In-connection credits (alpha_n words).
        b.add_channel_with_tokens(part("__an"), drn, 1, ser, 1, params.alpha_n);
        // Destination buffer space (alpha_dst tokens = alpha_dst * N words).
        b.add_channel(part("__fre"), dst, q_r, drel, 1);
        b.add_channel_with_tokens(
            part("__adst"),
            drel,
            n_words,
            des,
            1,
            alloc.alpha_dst * n_words,
        );
        // Self-edges: word loops are sequential; the latency stage pipelines
        // `w` words; the rate stage serializes bandwidth.
        b.add_channel_with_tokens(part("__sser"), ser, 1, ser, 1, 1);
        b.add_channel_with_tokens(part("__sdes"), des, 1, des, 1, 1);
        b.add_channel_with_tokens(part("__slat"), lat, 1, lat, 1, params.w);
        b.add_channel_with_tokens(part("__srate"), rate, 1, rate, 1, 1);
    }

    // Static-order chains from the schedule entries, gated in the same
    // builder so the expanded graph is validated once.
    let word_loop = |channel: ChannelId| {
        word_loops[channel.0].expect("send and receive entries name cross-tile channels")
    };
    let mut chains: Vec<Vec<(ActorId, u64)>> = Vec::new();
    for round in &mapping.schedules {
        if round.len() <= 1 {
            continue;
        }
        let mut chain = Vec::with_capacity(round.len());
        for entry in round {
            chain.push(match *entry {
                ScheduleEntry::Fire { actor, reps } => (actor_ids[actor.0], reps),
                ScheduleEntry::Send { channel, reps } => {
                    let (ser, _, words) = word_loop(channel);
                    (ser, reps * words)
                }
                ScheduleEntry::Receive { channel, reps } => {
                    let (_, des, words) = word_loop(channel);
                    (des, reps * words)
                }
            });
        }
        chains.push(chain);
    }
    add_static_orders(&mut b, &chains).map_err(MapError::Sdf)?;
    b.build().map_err(MapError::Sdf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamps_platform::arch::Architecture;
    use mamps_platform::interconnect::Interconnect;
    use mamps_platform::types::{ProcessorType, TileId};
    use mamps_sdf::graph::SdfGraphBuilder;
    use mamps_sdf::state_space::{throughput, AnalysisOptions};

    fn two_actor_graph(token_size: u64) -> SdfGraph {
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("a", 10);
        let c = b.add_actor("c", 10);
        b.add_channel_full("e", a, 1, c, 1, 0, token_size);
        b.build().unwrap()
    }

    fn simple_mapping(graph: &SdfGraph, tiles: &[usize]) -> Mapping {
        let binding = crate::mapping::Binding {
            tile_of: tiles.iter().map(|&t| TileId(t)).collect(),
            processor_of: tiles.iter().map(|_| ProcessorType::microblaze()).collect(),
            wcet_of: graph.actors().map(|(_, a)| a.execution_time()).collect(),
        };
        let channels = graph
            .channels()
            .map(|(_, ch)| ChannelAlloc {
                wires: 1,
                alpha_src: ch.initial_tokens() + 2 * ch.production_rate(),
                alpha_dst: 2 * ch.consumption_rate(),
                local_capacity: ch.initial_tokens() + ch.production_rate() + ch.consumption_rate(),
            })
            .collect();
        Mapping {
            binding,
            schedules: vec![Vec::new(); 4],
            rounds_per_iteration: vec![1; 4],
            channels,
            guaranteed_iterations: 0,
            guaranteed_cycles: 1,
        }
    }

    fn analyse(g: &SdfGraph) -> f64 {
        throughput(
            g,
            &AnalysisOptions {
                auto_concurrency: true,
                ..AnalysisOptions::default()
            },
        )
        .unwrap()
        .as_f64()
    }

    #[test]
    fn local_channel_not_expanded() {
        let g = two_actor_graph(4);
        let m = simple_mapping(&g, &[0, 0]);
        let arch = Architecture::homogeneous("x", 1, Interconnect::fsl()).unwrap();
        let e = expand(&g, &m, &arch).unwrap();
        // Two actors + self edges + forward + capacity channel.
        assert_eq!(e.actor_count(), 2);
        assert_eq!(e.channel_count(), 4);
    }

    #[test]
    fn cross_channel_fully_expanded() {
        let g = two_actor_graph(4);
        let m = simple_mapping(&g, &[0, 1]);
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let e = expand(&g, &m, &arch).unwrap();
        // 2 original + 9 helpers.
        assert_eq!(e.actor_count(), 11);
        assert!(e.actor_by_name("e__ser").is_some());
        assert!(e.actor_by_name("e__des").is_some());
        // The expansion stays consistent and live.
        let t = analyse(&e);
        assert!(t > 0.0);
    }

    #[test]
    fn expansion_preserves_consistency_multirate() {
        let mut b = SdfGraphBuilder::new("mr");
        let a = b.add_actor("a", 5);
        let c = b.add_actor("c", 3);
        b.add_channel_full("e", a, 3, c, 2, 0, 8);
        let g = b.build().unwrap();
        let m = simple_mapping(&g, &[0, 1]);
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let e = expand(&g, &m, &arch).unwrap();
        assert!(mamps_sdf::repetition::repetition_vector(&e).is_ok());
        assert!(analyse(&e) > 0.0);
    }

    #[test]
    fn communication_lowers_throughput() {
        // Same app local vs cross-tile: the cross-tile bound must be lower
        // or equal (serialization + network cost).
        let g = two_actor_graph(128); // 32-word tokens
        let arch1 = Architecture::homogeneous("x", 1, Interconnect::fsl()).unwrap();
        let arch2 = Architecture::homogeneous("y", 2, Interconnect::fsl()).unwrap();
        let local = expand(&g, &simple_mapping(&g, &[0, 0]), &arch1).unwrap();
        let cross = expand(&g, &simple_mapping(&g, &[0, 1]), &arch2).unwrap();
        // Local: actors pipeline at 1/10. Cross: serialization word loops
        // run on the PEs... but with empty schedules they are concurrent
        // helpers; the wire itself adds delay, so throughput <= local.
        assert!(analyse(&cross) <= analyse(&local) + 1e-12);
    }

    #[test]
    fn bigger_tokens_are_slower_on_the_wire() {
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let small = two_actor_graph(4);
        let big = two_actor_graph(256);
        let ts = analyse(&expand(&small, &simple_mapping(&small, &[0, 1]), &arch).unwrap());
        let tb = analyse(&expand(&big, &simple_mapping(&big, &[0, 1]), &arch).unwrap());
        assert!(tb < ts);
    }

    #[test]
    fn noc_distance_matters() {
        let arch = Architecture::homogeneous("x", 9, Interconnect::noc_for_tiles(9)).unwrap();
        let g = two_actor_graph(64);
        let near = expand(&g, &simple_mapping(&g, &[0, 1]), &arch).unwrap();
        let far = expand(&g, &simple_mapping(&g, &[0, 8]), &arch).unwrap();
        // More hops -> more latency but also more pipelining; the guaranteed
        // bound must not improve with distance.
        assert!(analyse(&far) <= analyse(&near) + 1e-12);
    }

    #[test]
    fn insufficient_alpha_src_rejected() {
        let g = two_actor_graph(4);
        let mut m = simple_mapping(&g, &[0, 1]);
        m.channels[0].alpha_src = 0;
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        assert!(matches!(
            expand(&g, &m, &arch),
            Err(MapError::Infeasible(_))
        ));
    }

    #[test]
    fn schedule_chain_serializes_pe() {
        // a and its serialization loop share tile 0; c is remote. With a
        // schedule [Fire a, Send e], the PE alternates firing and sending.
        let g = two_actor_graph(16); // 4 words/token
        let mut m = simple_mapping(&g, &[0, 1]);
        let e_id = g.channel_by_name("e").unwrap();
        m.schedules = vec![
            vec![
                ScheduleEntry::Fire {
                    actor: g.actor_by_name("a").unwrap(),
                    reps: 1,
                },
                ScheduleEntry::Send {
                    channel: e_id,
                    reps: 1,
                },
            ],
            vec![
                ScheduleEntry::Receive {
                    channel: e_id,
                    reps: 1,
                },
                ScheduleEntry::Fire {
                    actor: g.actor_by_name("c").unwrap(),
                    reps: 1,
                },
            ],
        ];
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let with_sched = expand(&g, &m, &arch).unwrap();
        let m2 = simple_mapping(&g, &[0, 1]); // no schedules
        let without = expand(&g, &m2, &arch).unwrap();
        // Scheduling the word loops on the PE can only reduce throughput.
        assert!(analyse(&with_sched) <= analyse(&without) + 1e-12);
        assert!(analyse(&with_sched) > 0.0);
    }

    #[test]
    fn ca_tile_keeps_pe_free() {
        // Identical app; plain tiles serialize on the PE (scheduled), CA
        // tiles offload. With large tokens the CA variant must be faster.
        let g = two_actor_graph(256); // 64 words
        let e_id = g.channel_by_name("e").unwrap();
        let mk_sched = |with_sr: bool| {
            let a = g.actor_by_name("a").unwrap();
            let c = g.actor_by_name("c").unwrap();
            if with_sr {
                vec![
                    vec![
                        ScheduleEntry::Fire { actor: a, reps: 1 },
                        ScheduleEntry::Send {
                            channel: e_id,
                            reps: 1,
                        },
                    ],
                    vec![
                        ScheduleEntry::Receive {
                            channel: e_id,
                            reps: 1,
                        },
                        ScheduleEntry::Fire { actor: c, reps: 1 },
                    ],
                ]
            } else {
                vec![
                    vec![ScheduleEntry::Fire { actor: a, reps: 1 }],
                    vec![ScheduleEntry::Fire { actor: c, reps: 1 }],
                ]
            }
        };
        let mut m_plain = simple_mapping(&g, &[0, 1]);
        m_plain.schedules = mk_sched(true);
        let arch_plain = Architecture::homogeneous("p", 2, Interconnect::fsl()).unwrap();
        let t_plain = analyse(&expand(&g, &m_plain, &arch_plain).unwrap());

        let mut m_ca = simple_mapping(&g, &[0, 1]);
        m_ca.schedules = mk_sched(false);
        let arch_ca = Architecture::homogeneous_with_ca("c", 2, Interconnect::fsl()).unwrap();
        let t_ca = analyse(&expand(&g, &m_ca, &arch_ca).unwrap());

        assert!(
            t_ca > t_plain,
            "CA offload should increase the bound: {t_ca} vs {t_plain}"
        );
    }
}
