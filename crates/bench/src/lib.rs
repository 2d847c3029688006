//! # mamps-bench — the benchmark harness regenerating the paper's tables
//! and figures
//!
//! Each bench target regenerates one evaluation artefact (printed to
//! stdout before the timing runs) and times the computational kernel
//! behind it with Criterion:
//!
//! | target | artefact |
//! |---|---|
//! | `fig6_fsl` | Fig. 6(a): worst-case vs expected vs measured, FSL |
//! | `fig6_noc` | Fig. 6(b): the same over the SDM NoC |
//! | `table1_effort` | Table 1: automated design steps, timed live |
//! | `overhead_ca` | §6.3: CA what-if speedup + communication breakdown |
//! | `noc_area` | §5.3.1: NoC flow-control slice overhead (~12 %) |
//! | `analysis_ablation` | state-space vs HSDF+MCR throughput analysis |
//! | `buffer_sweep` | guaranteed throughput vs buffer capacity |
//! | `mesh_scaling` | event vs lockstep simulator kernel on token-ring meshes |
//! | `state_space` | throughput-kernel fast path vs retained naive reference |
//! | `binders` | binding strategies: greedy vs spiral vs genetic on MJPEG |
//! | `use_cases` | multi-application admission: MJPEG + constrained pipeline |
//! | `dse_cache` | analysis cache: cold vs warm DSE sweep |
//! | `incremental` | pass cache: cold vs one-WCET-edit incremental re-map |
//!
//! Run all with `cargo bench`, or a single artefact with e.g.
//! `cargo bench -p mamps-bench --bench fig6_fsl`.
//!
//! Setting `MAMPS_BENCH_QUICK=1` shrinks warm-up and measurement times to
//! CI-smoke scale, and `MAMPS_BENCH_JSON=<file>` makes the harness append
//! one JSON line per measured benchmark (see `scripts/bench_json.sh`).
//!
//! ## Example
//!
//! The shared workload helpers are plain functions, usable outside the
//! Criterion harness too:
//!
//! ```
//! use mamps_bench::{bench_stream_config, mjpeg_expanded_graph};
//!
//! let cfg = bench_stream_config();
//! assert_eq!(cfg.frames, 1);
//! let (graph, opts) = mjpeg_expanded_graph(2);
//! assert!(graph.actor_count() > 5); // decoder actors + Fig. 4 helpers
//! assert!(opts.auto_concurrency);
//! ```

#![forbid(unsafe_code)]

use criterion::Criterion;

/// A Criterion configuration short enough for the full suite to run in a
/// few minutes while still averaging over several samples. With
/// `MAMPS_BENCH_QUICK=1` in the environment the times shrink further, for
/// the CI smoke job's perf-trajectory snapshot.
pub fn short_criterion() -> Criterion {
    let quick = quick_mode();
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(if quick {
            200
        } else {
            2000
        }))
        .warm_up_time(std::time::Duration::from_millis(if quick {
            50
        } else {
            300
        }))
}

/// True when `MAMPS_BENCH_QUICK` requests the shortened CI configuration.
pub fn quick_mode() -> bool {
    std::env::var("MAMPS_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The WCET-annotated, Fig. 4-expanded, statically-ordered analysis graph
/// of the MJPEG decoder mapped on `tiles` FSL tiles, plus the analysis
/// options the mapping flow uses on it. This is the realistic workload of
/// the throughput kernel: every candidate probed by the mapping step's
/// buffer growth re-analyses a graph of this shape.
pub fn mjpeg_expanded_graph(
    tiles: usize,
) -> (
    mamps_sdf::graph::SdfGraph,
    mamps_sdf::state_space::AnalysisOptions,
) {
    let (app, arch, mapped) = mjpeg_mapped(tiles);
    let opts = mamps_sdf::state_space::AnalysisOptions {
        auto_concurrency: true,
        max_states: 2_000_000,
        ..mamps_sdf::state_space::AnalysisOptions::default()
    };
    (mapped.expanded(app.graph(), &arch).unwrap(), opts)
}

/// The MJPEG decoder application, `tiles` homogeneous FSL tiles, and the
/// decoder mapped on them by the default flow: the inputs of one mapping
/// probe, which [`mjpeg_expanded_graph`] expands.
pub fn mjpeg_mapped(
    tiles: usize,
) -> (
    mamps_sdf::model::ApplicationModel,
    mamps_platform::arch::Architecture,
    mamps_mapping::flow::MappedApplication,
) {
    let cfg = bench_stream_config();
    let app = mamps_mjpeg::app_model::mjpeg_application(&cfg, None).unwrap();
    let arch = mamps_platform::arch::Architecture::homogeneous(
        "bench",
        tiles,
        mamps_platform::interconnect::Interconnect::fsl(),
    )
    .unwrap();
    let mapped = mamps_mapping::flow::map_application(
        &app,
        &arch,
        &mamps_mapping::flow::MapOptions::default(),
    )
    .unwrap();
    (app, arch, mapped)
}

/// The stream geometry used by all benches: one frame of the small
/// configuration (12 MCUs), enough for stable steady-state measurement
/// with cycled traces.
pub fn bench_stream_config() -> mamps_mjpeg::encoder::StreamConfig {
    mamps_mjpeg::encoder::StreamConfig {
        frames: 1,
        ..mamps_mjpeg::encoder::StreamConfig::small()
    }
}

/// Simulated MCUs per measured point in the Fig. 6 benches.
pub const SIM_ITERATIONS: u64 = 150;

/// A token-ring workload on a `tiles`-tile NoC mesh for the `mesh_scaling`
/// bench: one actor per tile, unit rates, a single initial token
/// circulating the ring. At any instant almost every tile is idle waiting
/// for the token, which is exactly the shape where the discrete-event
/// kernel's sleeping components beat the lockstep engine's full scan.
///
/// The mapping is built by hand (the flow would never bind one actor per
/// tile on thousands of tiles): the ring-closing tile schedules its
/// `Send` first so the initial token — parked in that channel's
/// source-side buffer — enters the network before the tile blocks on its
/// own receive.
pub fn token_ring_system(
    tiles: usize,
) -> (
    mamps_sdf::graph::SdfGraph,
    mamps_mapping::mapping::Mapping,
    mamps_platform::arch::Architecture,
) {
    use mamps_mapping::mapping::{Binding, ChannelAlloc, Mapping, ScheduleEntry};
    use mamps_platform::types::{ProcessorType, TileId};
    use mamps_sdf::graph::{ChannelId, SdfGraphBuilder};

    assert!(tiles >= 2, "a ring needs at least two tiles");
    let wcet = 100u64;
    let mut b = SdfGraphBuilder::new("ring");
    let actors: Vec<_> = (0..tiles)
        .map(|i| b.add_actor(format!("a{i}"), 1))
        .collect();
    for i in 0..tiles {
        let next = (i + 1) % tiles;
        // One word per token; the ring-closing channel carries the single
        // initial token that keeps the ring live.
        let initial = u64::from(i == tiles - 1);
        b.add_channel_full(format!("c{i}"), actors[i], 1, actors[next], 1, initial, 4);
    }
    let graph = b.build().unwrap();

    let schedules = (0..tiles)
        .map(|i| {
            let inbound = ChannelId(if i == 0 { tiles - 1 } else { i - 1 });
            let outbound = ChannelId(i);
            if i == tiles - 1 {
                vec![
                    ScheduleEntry::Send {
                        channel: outbound,
                        reps: 1,
                    },
                    ScheduleEntry::Receive {
                        channel: inbound,
                        reps: 1,
                    },
                    ScheduleEntry::Fire {
                        actor: actors[i],
                        reps: 1,
                    },
                ]
            } else {
                vec![
                    ScheduleEntry::Receive {
                        channel: inbound,
                        reps: 1,
                    },
                    ScheduleEntry::Fire {
                        actor: actors[i],
                        reps: 1,
                    },
                    ScheduleEntry::Send {
                        channel: outbound,
                        reps: 1,
                    },
                ]
            }
        })
        .collect();

    let mapping = Mapping {
        binding: Binding {
            tile_of: (0..tiles).map(TileId).collect(),
            processor_of: vec![ProcessorType::microblaze(); tiles],
            wcet_of: vec![wcet; tiles],
        },
        schedules,
        rounds_per_iteration: vec![1; tiles],
        channels: vec![
            ChannelAlloc {
                wires: 1,
                alpha_src: 2,
                alpha_dst: 2,
                local_capacity: 2
            };
            tiles
        ],
        guaranteed_iterations: 1,
        guaranteed_cycles: (tiles as u64) * (wcet + 4),
    };

    let arch = mamps_platform::arch::Architecture::homogeneous(
        "mesh",
        tiles,
        mamps_platform::interconnect::Interconnect::noc_for_tiles(tiles),
    )
    .unwrap();
    (graph, mapping, arch)
}
