//! XML interchange for mappings — the *common input format* of paper §2:
//! "The flow presented in this paper automates this step by introducing a
//! common input format for both the mapping and platform generation tools,
//! circumventing possible user introduced errors during the translation
//! step."
//!
//! ```xml
//! <mapping>
//!   <bind actor="VLD" tile="0" processor="microblaze" wcet="35766"/>
//!   <schedule tile="0" roundsPerIteration="1">
//!     <fire actor="VLD" reps="1"/>
//!     <send channel="vld2iqzz" reps="10"/>
//!   </schedule>
//!   <channel name="vld2iqzz" wires="2" alphaSrc="12" alphaDst="2"
//!            localCapacity="11"/>
//!   <guarantee iterations="1" cycles="24230"/>
//! </mapping>
//! ```

use mamps_platform::types::{ProcessorType, TileId};
use mamps_sdf::graph::SdfGraph;
use mamps_sdf::xmlutil::{parse, Element, XmlError};

use crate::mapping::{Binding, ChannelAlloc, Mapping, ScheduleEntry};

/// Serializes a mapping to XML. Actor and channel ids are externalized by
/// name against `graph`.
pub fn mapping_to_xml(mapping: &Mapping, graph: &SdfGraph) -> String {
    let mut root = Element::new("mapping");
    for (aid, actor) in graph.actors() {
        root = root.child(
            Element::new("bind")
                .attr("actor", actor.name())
                .attr("tile", mapping.binding.tile_of[aid.0].0)
                .attr("processor", mapping.binding.processor_of[aid.0].name())
                .attr("wcet", mapping.binding.wcet_of[aid.0]),
        );
    }
    for (tile, round) in mapping.schedules.iter().enumerate() {
        if round.is_empty() {
            continue;
        }
        let mut sched = Element::new("schedule")
            .attr("tile", tile)
            .attr("roundsPerIteration", mapping.rounds_per_iteration[tile]);
        for entry in round {
            sched = sched.child(match *entry {
                ScheduleEntry::Fire { actor, reps } => Element::new("fire")
                    .attr("actor", graph.actor(actor).name())
                    .attr("reps", reps),
                ScheduleEntry::Send { channel, reps } => Element::new("send")
                    .attr("channel", graph.channel(channel).name())
                    .attr("reps", reps),
                ScheduleEntry::Receive { channel, reps } => Element::new("receive")
                    .attr("channel", graph.channel(channel).name())
                    .attr("reps", reps),
            });
        }
        root = root.child(sched);
    }
    for (cid, ch) in graph.channels() {
        let a = mapping.channels[cid.0];
        root = root.child(
            Element::new("channel")
                .attr("name", ch.name())
                .attr("wires", a.wires)
                .attr("alphaSrc", a.alpha_src)
                .attr("alphaDst", a.alpha_dst)
                .attr("localCapacity", a.local_capacity),
        );
    }
    root = root.child(
        Element::new("guarantee")
            .attr("iterations", mapping.guaranteed_iterations)
            .attr("cycles", mapping.guaranteed_cycles),
    );
    root.to_xml()
}

/// Parses a mapping from XML, resolving names against `graph` and sizing
/// per-tile tables for `tile_count` tiles.
///
/// # Errors
///
/// [`XmlError`] on malformed XML or unresolved actor/channel/tile
/// references.
pub fn mapping_from_xml(
    xml: &str,
    graph: &SdfGraph,
    tile_count: usize,
) -> Result<Mapping, XmlError> {
    let root = parse(xml)?;
    if root.name != "mapping" {
        return Err(XmlError::Semantic(format!(
            "expected <mapping>, found <{}>",
            root.name
        )));
    }
    let actor_of = |name: &str| {
        graph
            .actor_by_name(name)
            .ok_or_else(|| XmlError::Semantic(format!("unknown actor `{name}`")))
    };
    let channel_of = |name: &str| {
        graph
            .channel_by_name(name)
            .ok_or_else(|| XmlError::Semantic(format!("unknown channel `{name}`")))
    };

    let n = graph.actor_count();
    let mut tile_of = vec![None; n];
    let mut processor_of = vec![None; n];
    let mut wcet_of = vec![0u64; n];
    for el in root.find_all("bind") {
        let aid = actor_of(el.req("actor")?)?;
        let tile = el.req_u64("tile")? as usize;
        if tile >= tile_count {
            return Err(XmlError::Semantic(format!(
                "bind references tile {tile} outside the {tile_count}-tile platform"
            )));
        }
        tile_of[aid.0] = Some(TileId(tile));
        processor_of[aid.0] = Some(ProcessorType::custom(el.req("processor")?));
        wcet_of[aid.0] = el.req_u64("wcet")?;
    }
    let tile_of: Vec<TileId> = tile_of
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            t.ok_or_else(|| {
                XmlError::Semantic(format!(
                    "actor `{}` has no <bind>",
                    graph.actor(mamps_sdf::graph::ActorId(i)).name()
                ))
            })
        })
        .collect::<Result<_, _>>()?;
    let processor_of: Vec<ProcessorType> = processor_of
        .into_iter()
        .map(|p| p.expect("set with tile"))
        .collect();

    let mut schedules = vec![Vec::new(); tile_count];
    let mut rounds = vec![1u64; tile_count];
    for el in root.find_all("schedule") {
        let tile = el.req_u64("tile")? as usize;
        if tile >= tile_count {
            return Err(XmlError::Semantic(format!("schedule for bad tile {tile}")));
        }
        rounds[tile] = el.req_u64("roundsPerIteration")?;
        let mut round = Vec::new();
        for c in &el.children {
            let reps = c.req_u64("reps")?;
            round.push(match c.name.as_str() {
                "fire" => ScheduleEntry::Fire {
                    actor: actor_of(c.req("actor")?)?,
                    reps,
                },
                "send" => ScheduleEntry::Send {
                    channel: channel_of(c.req("channel")?)?,
                    reps,
                },
                "receive" => ScheduleEntry::Receive {
                    channel: channel_of(c.req("channel")?)?,
                    reps,
                },
                other => {
                    return Err(XmlError::Semantic(format!(
                        "unknown schedule entry <{other}>"
                    )))
                }
            });
        }
        schedules[tile] = round;
    }

    let mut channels = vec![
        ChannelAlloc {
            wires: 0,
            alpha_src: 0,
            alpha_dst: 0,
            local_capacity: 0,
        };
        graph.channel_count()
    ];
    let mut seen = vec![false; graph.channel_count()];
    for el in root.find_all("channel") {
        let cid = channel_of(el.req("name")?)?;
        channels[cid.0] = ChannelAlloc {
            wires: el.req_int("wires")?,
            alpha_src: el.req_u64("alphaSrc")?,
            alpha_dst: el.req_u64("alphaDst")?,
            local_capacity: el.req_u64("localCapacity")?,
        };
        seen[cid.0] = true;
    }
    if let Some(idx) = seen.iter().position(|&s| !s) {
        return Err(XmlError::Semantic(format!(
            "channel `{}` has no allocation",
            graph.channel(mamps_sdf::graph::ChannelId(idx)).name()
        )));
    }

    let guarantee = root
        .find("guarantee")
        .ok_or_else(|| XmlError::Semantic("missing <guarantee>".into()))?;
    Ok(Mapping {
        binding: Binding {
            tile_of,
            processor_of,
            wcet_of,
        },
        schedules,
        rounds_per_iteration: rounds,
        channels,
        guaranteed_iterations: guarantee.req_u64("iterations")?,
        guaranteed_cycles: guarantee.req_u64("cycles")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{map_application, MapOptions};
    use mamps_platform::arch::Architecture;
    use mamps_platform::interconnect::Interconnect;
    use mamps_sdf::graph::SdfGraphBuilder;
    use mamps_sdf::model::HomogeneousModelBuilder;

    fn mapped() -> (mamps_sdf::model::ApplicationModel, Architecture, Mapping) {
        let mut b = SdfGraphBuilder::new("app");
        let x = b.add_actor("x", 1);
        let y = b.add_actor("y", 1);
        b.add_channel_full("e", x, 2, y, 1, 0, 32);
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        mb.actor("x", 40, 2048, 256).actor("y", 30, 2048, 256);
        let app = mb.finish(g, None).unwrap();
        let arch = Architecture::homogeneous("m", 2, Interconnect::noc_for_tiles(2)).unwrap();
        let m = map_application(&app, &arch, &MapOptions::default()).unwrap();
        (app, arch, m.mapping)
    }

    #[test]
    fn roundtrip_full_mapping() {
        let (app, arch, mapping) = mapped();
        let xml = mapping_to_xml(&mapping, app.graph());
        let back = mapping_from_xml(&xml, app.graph(), arch.tile_count()).unwrap();
        assert_eq!(back, mapping);
    }

    #[test]
    fn missing_bind_rejected() {
        let (app, arch, mapping) = mapped();
        let xml = mapping_to_xml(&mapping, app.graph());
        let broken = xml.replacen("<bind actor=\"x\"", "<bind actor=\"y\"", 1);
        // Now x has no bind (y bound twice).
        assert!(matches!(
            mapping_from_xml(&broken, app.graph(), arch.tile_count()),
            Err(XmlError::Semantic(_))
        ));
    }

    #[test]
    fn unknown_references_rejected() {
        let (app, arch, mapping) = mapped();
        let xml = mapping_to_xml(&mapping, app.graph());
        let broken = xml.replace("actor=\"x\"", "actor=\"ghost\"");
        assert!(mapping_from_xml(&broken, app.graph(), arch.tile_count()).is_err());
    }

    #[test]
    fn tile_out_of_range_rejected() {
        let (app, _, mapping) = mapped();
        let xml = mapping_to_xml(&mapping, app.graph());
        // Parse against a 1-tile platform: tile 1 references fail.
        assert!(matches!(
            mapping_from_xml(&xml, app.graph(), 1),
            Err(XmlError::Semantic(_))
        ));
    }

    #[test]
    fn parsed_mapping_expands_identically() {
        // The common-format promise: the analysis graph built from a
        // mapping read back from XML matches the original exactly.
        let (app, arch, mapping) = mapped();
        let xml = mapping_to_xml(&mapping, app.graph());
        let back = mapping_from_xml(&xml, app.graph(), arch.tile_count()).unwrap();
        let e1 = crate::comm_expand::expand(app.graph(), &mapping, &arch).unwrap();
        let e2 = crate::comm_expand::expand(app.graph(), &back, &arch).unwrap();
        assert_eq!(e1, e2);
    }
}
