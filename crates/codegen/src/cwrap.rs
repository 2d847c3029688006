//! Per-tile C source generation: actor wrappers, the static-order schedule
//! lookup table, and communication initialization (paper §5.2: "generating
//! wrapper code for each actor, translating the static-order schedule
//! provided by SDF3 into C code, and generating initialization code for the
//! communication").

use std::fmt::Write as _;

use mamps_platform::arch::Architecture;
use mamps_platform::types::TileId;
use mamps_sdf::graph::{ActorId, SdfGraph};
use mamps_sdf::model::{ActorImplementation, ArgDirection};

use mamps_mapping::mapping::{Mapping, ScheduleEntry};

/// Generates `tile<i>/main.c` for one tile, whose `actors` and their
/// implementations [`memory_maps`](crate::memory_maps) resolved.
pub fn tile_main_c(
    graph: &SdfGraph,
    mapping: &Mapping,
    arch: &Architecture,
    tile: TileId,
    actors: &[(ActorId, &ActorImplementation)],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "/* Generated by the MAMPS platform generator. */");
    let _ = writeln!(out, "/* Tile {tile} ({}) */", arch.tile(tile).name());
    let _ = writeln!(out, "#include \"mamps_rt.h\"");
    let _ = writeln!(out);

    let binding = &mapping.binding;

    // Channel descriptors used by this tile.
    let mut channels: Vec<usize> = Vec::new();
    for (cid, ch) in graph.channels() {
        if ch.is_self_edge() {
            continue;
        }
        if binding.tile_of[ch.src().0] == tile || binding.tile_of[ch.dst().0] == tile {
            channels.push(cid.0);
        }
    }
    for &c in &channels {
        let ch = graph.channel(mamps_sdf::graph::ChannelId(c));
        let alloc = mapping.channels[c];
        let (kind, capacity) = match binding.cross_tiles(ch) {
            None => ("MAMPS_CH_LOCAL", alloc.local_capacity),
            Some((from, _)) if from == tile => ("MAMPS_CH_NI", alloc.alpha_src),
            Some(_) => ("MAMPS_CH_NI", alloc.alpha_dst),
        };
        let _ = writeln!(
            out,
            "static mamps_channel_t ch_{} = {{ .id = {c}, .token_size = {}, .kind = {kind}, \
             .capacity = {capacity} }};",
            ch.name(),
            ch.token_size(),
        );
    }
    let _ = writeln!(out);

    // Actor prototypes and wrappers.
    for &(a, im) in actors {
        let params: Vec<String> = im
            .args
            .iter()
            .map(|arg| format!("void *arg{}", arg.arg_index))
            .collect();
        let _ = writeln!(
            out,
            "extern void {}({});",
            im.function_name,
            params.join(", ")
        );
        let _ = writeln!(out, "static void fire_{}(void) {{", graph.actor(a).name());
        for arg in &im.args {
            let dir = match arg.direction {
                ArgDirection::Input => "mamps_read_ptr",
                ArgDirection::Output => "mamps_write_ptr",
            };
            let _ = writeln!(
                out,
                "    void *a{} = {dir}(&ch_{});",
                arg.arg_index, arg.channel
            );
        }
        let args: Vec<String> = im
            .args
            .iter()
            .map(|arg| format!("a{}", arg.arg_index))
            .collect();
        let _ = writeln!(out, "    {}({});", im.function_name, args.join(", "));
        for arg in &im.args {
            let dir = match arg.direction {
                ArgDirection::Input => "mamps_read_commit",
                ArgDirection::Output => "mamps_write_commit",
            };
            let _ = writeln!(out, "    {dir}(&ch_{});", arg.channel);
        }
        let _ = writeln!(out, "}}");
        let _ = writeln!(out);
    }

    // The static-order schedule as a lookup table (paper §6.3: "reduces the
    // scheduler to a lookup table").
    let round = &mapping.schedules[tile.0];
    let _ = writeln!(out, "static const mamps_slot_t schedule[] = {{");
    for entry in round {
        match *entry {
            ScheduleEntry::Fire { actor, reps } => {
                let _ = writeln!(
                    out,
                    "    {{ MAMPS_OP_FIRE, (mamps_fn_t)fire_{}, {reps} }},",
                    graph.actor(actor).name()
                );
            }
            ScheduleEntry::Send { channel, reps } => {
                let _ = writeln!(
                    out,
                    "    {{ MAMPS_OP_SEND, (mamps_fn_t)&ch_{}, {reps} }},",
                    graph.channel(channel).name()
                );
            }
            ScheduleEntry::Receive { channel, reps } => {
                let _ = writeln!(
                    out,
                    "    {{ MAMPS_OP_RECV, (mamps_fn_t)&ch_{}, {reps} }},",
                    graph.channel(channel).name()
                );
            }
        }
    }
    let _ = writeln!(out, "}};");
    let _ = writeln!(out);

    // Main loop.
    let _ = writeln!(out, "int main(void) {{");
    let _ = writeln!(out, "    mamps_init();");
    for &c in &channels {
        let ch = graph.channel(mamps_sdf::graph::ChannelId(c));
        let _ = writeln!(out, "    mamps_channel_init(&ch_{});", ch.name());
    }
    // Initialization functions produce initial tokens (paper §3).
    for &(a, _) in actors {
        let has_initial_output = graph.outgoing(a).iter().any(|&cid| {
            let ch = graph.channel(cid);
            !ch.is_self_edge() && ch.initial_tokens() > 0
        });
        if has_initial_output {
            let _ = writeln!(out, "    actor_{}_init();", graph.actor(a).name());
        }
    }
    let _ = writeln!(
        out,
        "    mamps_run(schedule, sizeof(schedule) / sizeof(schedule[0]));"
    );
    let _ = writeln!(out, "    return 0;");
    let _ = writeln!(out, "}}");
    out
}

/// Generates the shared runtime header `mamps_rt.h`.
pub fn runtime_header() -> String {
    r#"/* Generated by the MAMPS platform generator. */
#ifndef MAMPS_RT_H
#define MAMPS_RT_H

#include <stdint.h>
#include <stddef.h>

typedef void (*mamps_fn_t)(void);

typedef enum { MAMPS_CH_LOCAL, MAMPS_CH_NI } mamps_ch_kind_t;
typedef enum { MAMPS_OP_FIRE, MAMPS_OP_SEND, MAMPS_OP_RECV } mamps_op_t;

typedef struct {
    uint32_t id;
    uint32_t token_size;
    mamps_ch_kind_t kind;
    uint32_t capacity;
} mamps_channel_t;

typedef struct {
    mamps_op_t op;
    mamps_fn_t target;
    uint32_t reps;
} mamps_slot_t;

void  mamps_init(void);
void  mamps_channel_init(mamps_channel_t *ch);
void *mamps_read_ptr(mamps_channel_t *ch);
void *mamps_write_ptr(mamps_channel_t *ch);
void  mamps_read_commit(mamps_channel_t *ch);
void  mamps_write_commit(mamps_channel_t *ch);
void  mamps_run(const mamps_slot_t *schedule, size_t slots);

#endif /* MAMPS_RT_H */
"#
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamps_mapping::flow::{map_application, MapOptions};
    use mamps_platform::interconnect::Interconnect;
    use mamps_sdf::graph::SdfGraphBuilder;
    use mamps_sdf::model::{ApplicationModel, HomogeneousModelBuilder};

    fn setup() -> (ApplicationModel, Architecture, Mapping) {
        let mut b = SdfGraphBuilder::new("app");
        let x = b.add_actor("x", 1);
        let y = b.add_actor("y", 1);
        b.add_channel_full("e", x, 1, y, 1, 0, 64);
        b.add_channel_with_tokens("st", x, 1, x, 1, 1);
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        mb.actor("x", 50, 4096, 512).actor("y", 60, 4096, 512);
        let app = mb.finish(g, None).unwrap();
        let arch = Architecture::homogeneous("m", 2, Interconnect::fsl()).unwrap();
        let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        (app, arch, mapped.mapping)
    }

    /// `tile`'s `main.c` over the implementations `memory_maps` resolves.
    fn main_c(
        app: &ApplicationModel,
        arch: &Architecture,
        mapping: &Mapping,
        tile: TileId,
    ) -> String {
        let (_, actors) = crate::memory_maps(app, app.graph(), mapping, arch).unwrap();
        tile_main_c(app.graph(), mapping, arch, tile, &actors[tile.0])
    }

    #[test]
    fn main_c_contains_wrapper_schedule_and_init() {
        let (app, arch, mapping) = setup();
        let src_tile = mapping.binding.tile_of[0];
        let c = main_c(&app, &arch, &mapping, src_tile);
        assert!(c.contains("fire_x"));
        assert!(c.contains("MAMPS_OP_FIRE"));
        assert!(c.contains("MAMPS_OP_SEND"));
        assert!(c.contains("mamps_run(schedule"));
        assert!(c.contains("actor_x(")); // wrapper calls implementation
        assert!(c.contains("mamps_channel_init(&ch_e);"));
        // x has an initial token on its self-edge... self-edges are
        // implicit, so no init; but the wrapper must not reference the
        // self-edge as an argument.
        assert!(!c.contains("ch_st"));
    }

    #[test]
    fn receive_side_has_recv_slot() {
        let (app, arch, mapping) = setup();
        let dst_tile = mapping.binding.tile_of[1];
        let c = main_c(&app, &arch, &mapping, dst_tile);
        assert!(c.contains("MAMPS_OP_RECV"));
        assert!(c.contains("fire_y"));
    }

    #[test]
    fn header_is_self_contained() {
        let h = runtime_header();
        assert!(h.contains("#ifndef MAMPS_RT_H"));
        assert!(h.contains("mamps_slot_t"));
        assert!(h.contains("mamps_write_commit"));
    }

    #[test]
    fn generation_is_deterministic() {
        let (app, arch, mapping) = setup();
        let a = main_c(&app, &arch, &mapping, TileId(0));
        let b = main_c(&app, &arch, &mapping, TileId(0));
        assert_eq!(a, b);
    }
}
