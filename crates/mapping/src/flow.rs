//! The complete mapping step of the design flow (paper §5.1), structured
//! as named passes: **bind** (with the binder configured in
//! [`BindOptions`], see [`crate::strategy`]), **wire-alloc** (NoC SDM
//! wires), **schedule** (static order per tile), and **buffer-size**
//! (deadlock-driven then greedy growth toward the throughput target).
//! Whatever binder produced the binding, the verification pipeline is
//! identical — so the worst-case guarantee holds for every binder.
//!
//! Each pass is driven through a [`PassRunner`] (see
//! [`mamps_sdf::passes`]): its inputs are reduced to a stable
//! fingerprint, its output is a serializable value, and when the runner
//! carries a [`mamps_sdf::passes::PassCache`] an unchanged pass replays
//! its memoized output instead of re-executing. Fingerprints are chosen
//! per pass: `wire-alloc` and `schedule` never read actor execution
//! times, so their keys exclude WCETs and both replay across a
//! WCET-only edit; `bind` and `buffer-size` depend on WCETs and
//! re-execute. Replayed outputs are exactly the values the original run
//! produced, so cold, warm and incremental runs build identical
//! mappings by construction.
//!
//! The helpers the passes are built from — wire allocation, the initial
//! buffer allocation, expand-then-analyse and deadlock-driven growth —
//! are shared with the genetic binder's fitness ([`crate::strategy`]) and
//! the shared-system verification of [`crate::multi`].

use std::convert::Infallible;
use std::sync::Arc;

use mamps_platform::arch::Architecture;
use mamps_sdf::buffer::{capacity_lower_bound, grow_step};
use mamps_sdf::cache::GlobalAnalysisCache;
use mamps_sdf::graph::SdfGraph;
use mamps_sdf::model::ApplicationModel;
use mamps_sdf::passes::{fingerprint, PassRunner};
use mamps_sdf::ratio::gcd;
use mamps_sdf::state_space::{throughput, AnalysisOptions, ThroughputResult};
use mamps_sdf::SdfError;
use serde::{Deserialize, Serialize, Value};

use crate::binding::{bind, BindOptions, Occupancy};
use crate::comm_expand::expand;
use crate::error::MapError;
use crate::mapping::{Binding, ChannelAlloc, Mapping, ScheduleEntry};
use crate::schedule::build_schedules;

/// SDM wires requested per NoC connection (clamped to availability).
const WIRES_PER_CONNECTION: u32 = 2;

/// Budget of greedy growth steps of the `buffer-size` pass.
const GROWTH_BUDGET: usize = 32;

/// State cap of every expanded-graph throughput analysis.
pub(crate) const MAX_STATES: usize = 2_000_000;

/// How many deadlock-driven buffer-growth steps [`grow_to_liveness`]
/// takes before giving up.
pub(crate) const DEADLOCK_GROWTH_ATTEMPTS: usize = 12;

/// Options of the mapping flow.
#[derive(Debug, Clone, Default)]
pub struct MapOptions {
    /// Binder options (binder, pinning, occupancy).
    pub bind: BindOptions,
    /// Shared throughput-analysis cache. When set, every expand + analyse
    /// probe of the buffer-growth search (and of the genetic binder's
    /// fitness) consults the cache before falling back to the state-space
    /// kernel, so structurally identical candidate allocations — common
    /// across the points of a DSE sweep — are analysed once per process
    /// (or once ever, with a persistent cache directory).
    pub cache: Option<Arc<GlobalAnalysisCache>>,
    /// Pass runner: per-pass wall-time accounting and (when the runner
    /// carries a [`mamps_sdf::passes::PassCache`]) whole-pass
    /// memoization — unchanged passes replay instead of re-executing.
    /// `None` runs every pass directly with zero bookkeeping.
    pub passes: Option<Arc<PassRunner>>,
}

impl MapOptions {
    /// The default options with a specific binder.
    pub fn with_strategy(strategy: crate::strategy::Binder) -> MapOptions {
        MapOptions {
            bind: BindOptions::with_strategy(strategy),
            ..MapOptions::default()
        }
    }
}

/// A mapped application: the mapping, the expanded analysis graph it was
/// verified on, and the throughput analysis result.
#[derive(Debug, Clone)]
pub struct MappedApplication {
    /// The mapping (common input format for platform generation).
    pub mapping: Mapping,
    /// The Fig. 4-expanded, statically-ordered analysis graph.
    pub expanded: SdfGraph,
    /// The worst-case throughput analysis of `expanded`.
    pub analysis: ThroughputResult,
    /// Name of the binding strategy that produced the mapping.
    pub strategy: &'static str,
}

/// Runs `f` as the pass `name` under `passes`, or directly (uncached,
/// untimed, fingerprint never computed) when no runner is configured.
pub(crate) fn run_pass<T, E>(
    passes: &Option<Arc<PassRunner>>,
    name: &'static str,
    input: impl FnOnce() -> u64,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, E>
where
    T: Serialize + for<'de> Deserialize<'de>,
    E: Serialize + for<'de> Deserialize<'de>,
{
    match passes {
        Some(r) => r.run(name, input, f),
        None => f(),
    }
}

/// The channel structure of `graph` — endpoints, rates, initial tokens —
/// as a fingerprint part. Deliberately excludes actor execution times:
/// passes that never read WCETs (`wire-alloc`, `schedule`) key on this,
/// so a WCET-only edit leaves their fingerprints unchanged and they
/// replay from the cache.
pub(crate) fn channel_structure_value(graph: &SdfGraph) -> Value {
    Value::Seq(
        graph
            .channels()
            .map(|(_, ch)| {
                Value::Seq(vec![
                    Value::Int(ch.src().0 as i128),
                    Value::Int(ch.dst().0 as i128),
                    Value::Int(ch.production_rate() as i128),
                    Value::Int(ch.consumption_rate() as i128),
                    Value::Int(ch.initial_tokens() as i128),
                ])
            })
            .collect(),
    )
}

/// `graph` with every actor's execution time set to its bound WCET.
pub(crate) fn wcet_graph(graph: &SdfGraph, binding: &Binding) -> SdfGraph {
    let mut g = graph.clone();
    for (aid, _) in graph.actors() {
        g.actor_mut(aid).set_execution_time(binding.wcet_of[aid.0]);
    }
    g
}

/// NoC wire allocation, one connection per cross-tile channel, starting
/// from the reservations of `occupancy` so an admitted use-case's
/// connections are never double-allocated. All zero on FSL platforms.
///
/// # Errors
///
/// [`MapError::Wires`] when the residual wires cannot carry a connection.
pub(crate) fn allocate_wires(
    graph: &SdfGraph,
    binding: &Binding,
    arch: &Architecture,
    occupancy: &Occupancy,
) -> Result<Vec<u32>, MapError> {
    let mut wires = vec![0u32; graph.channel_count()];
    if let Some(mut alloc) = occupancy.wire_allocator(arch)? {
        for (cid, ch) in graph.channels() {
            if ch.is_self_edge() || !binding.crosses_tiles(ch.src(), ch.dst()) {
                continue;
            }
            let from = binding.tile_of[ch.src().0];
            let to = binding.tile_of[ch.dst().0];
            let want = WIRES_PER_CONNECTION
                .min(alloc.max_allocatable(from, to))
                .max(1);
            alloc.allocate(from, to, want)?;
            wires[cid.0] = want;
        }
    }
    Ok(wires)
}

/// The mapping buffer sizing starts from: `binding` with its schedules
/// and wires, and every channel at its initial allocation — two rate
/// steps of buffer at each end and the isolated lower bound of local
/// capacity.
pub(crate) fn initial_mapping(
    graph: &SdfGraph,
    binding: Binding,
    (schedules, rounds): (Vec<Vec<ScheduleEntry>>, Vec<u64>),
    wires: &[u32],
) -> Mapping {
    let channels = graph
        .channels()
        .map(|(cid, ch)| ChannelAlloc {
            wires: wires[cid.0],
            alpha_src: ch.initial_tokens() + 2 * ch.production_rate(),
            alpha_dst: 2 * ch.consumption_rate(),
            local_capacity: capacity_lower_bound(graph, cid),
        })
        .collect();
    Mapping {
        binding,
        schedules,
        rounds_per_iteration: rounds,
        channels,
        guaranteed_iterations: 0,
        guaranteed_cycles: 1,
    }
}

/// Expands `mapping` (Fig. 4) and analyses the expanded graph, through
/// `cache` when one is set. The outer error is the expansion's, the inner
/// one the analysis's: the genetic fitness penalizes the two differently.
pub(crate) fn expand_and_analyse(
    graph: &SdfGraph,
    mapping: &Mapping,
    arch: &Architecture,
    cache: Option<&GlobalAnalysisCache>,
) -> Result<(SdfGraph, Result<ThroughputResult, SdfError>), MapError> {
    let e = expand(graph, mapping, arch)?;
    let opts = AnalysisOptions {
        auto_concurrency: true,
        max_states: MAX_STATES,
        ..AnalysisOptions::default()
    };
    let r = match cache {
        Some(cache) => cache.throughput(&e, &opts),
        None => throughput(&e, &opts),
    };
    Ok((e, r))
}

/// [`expand_and_analyse`] with both errors as one [`MapError`].
fn analyse(
    graph: &SdfGraph,
    mapping: &Mapping,
    arch: &Architecture,
    cache: Option<&GlobalAnalysisCache>,
) -> Result<(SdfGraph, ThroughputResult), MapError> {
    let (e, r) = expand_and_analyse(graph, mapping, arch, cache)?;
    Ok((e, r?))
}

/// Phase 1 of buffer sizing, shared by the `buffer-size` and
/// `verify-shared` passes: analyses `m` and, while the analysis
/// deadlocks, grows every channel allocation by one uniform step — a
/// production of slack at the source, a consumption at the destination and
/// one rate-gcd token of local capacity — up to
/// [`DEADLOCK_GROWTH_ATTEMPTS`] times.
///
/// # Errors
///
/// The last deadlock once the attempts are exhausted, or the first other
/// expansion or analysis error.
pub(crate) fn grow_to_liveness(
    graph: &SdfGraph,
    m: &mut Mapping,
    arch: &Architecture,
    cache: Option<&GlobalAnalysisCache>,
) -> Result<(SdfGraph, ThroughputResult), MapError> {
    let mut attempt = 0;
    loop {
        match analyse(graph, m, arch, cache) {
            Err(MapError::Sdf(SdfError::Deadlock(_))) if attempt < DEADLOCK_GROWTH_ATTEMPTS => {
                attempt += 1;
                for (cid, ch) in graph.channels() {
                    let c = &mut m.channels[cid.0];
                    c.alpha_src += ch.production_rate().max(ch.initial_tokens());
                    c.alpha_dst += ch.consumption_rate();
                    c.local_capacity += gcd(ch.production_rate(), ch.consumption_rate());
                }
            }
            result => return result,
        }
    }
}

/// Which buffer of a channel allocation a growth move enlarges.
#[derive(Debug, Clone, Copy)]
enum Buffer {
    Src,
    Dst,
    Local,
}

/// The growth moves of the `buffer-size` search, in channel order: one
/// production step of source buffer and one consumption step of
/// destination buffer for every cross-tile channel, one rate-gcd step of
/// local capacity for every other non-self channel.
fn growth_moves(graph: &SdfGraph, binding: &Binding) -> Vec<(usize, Buffer, u64)> {
    let mut moves = Vec::new();
    for (cid, ch) in graph.channels() {
        let (p, c) = (ch.production_rate(), ch.consumption_rate());
        if ch.is_self_edge() {
            continue;
        } else if binding.crosses_tiles(ch.src(), ch.dst()) {
            moves.push((cid.0, Buffer::Src, p));
            moves.push((cid.0, Buffer::Dst, c));
        } else {
            moves.push((cid.0, Buffer::Local, gcd(p, c)));
        }
    }
    moves
}

/// Applies (or, with `undo`, reverts) one growth move to a mapping.
fn grow_buffer(m: &mut Mapping, &(idx, buffer, step): &(usize, Buffer, u64), undo: bool) {
    let c = &mut m.channels[idx];
    let field = match buffer {
        Buffer::Src => &mut c.alpha_src,
        Buffer::Dst => &mut c.alpha_dst,
        Buffer::Local => &mut c.local_capacity,
    };
    if undo {
        *field -= step;
    } else {
        *field += step;
    }
}

/// Maps `app` onto `arch`: the automated "Mapping (SDF3)" step of Table 1,
/// as the pass sequence bind → wire-alloc → schedule → buffer-size.
///
/// # Errors
///
/// * Binding errors ([`MapError::Infeasible`], [`MapError::Wires`]).
/// * [`MapError::ConstraintUnmet`] if buffer growth saturates below the
///   throughput target.
/// * Propagated analysis errors.
///
/// Every error arm is memoized like a success: an infeasible point stays
/// infeasible on replay.
pub fn map_application(
    app: &ApplicationModel,
    arch: &Architecture,
    opts: &MapOptions,
) -> Result<MappedApplication, MapError> {
    let binding = run_pass(
        &opts.passes,
        "bind",
        || {
            fingerprint(vec![
                app.to_value(),
                arch.to_value(),
                opts.bind.fingerprint_value(),
            ])
        },
        || bind(app, arch, &opts.bind, opts.cache.as_deref()),
    )?;
    let graph = app.graph();
    let wcet_graph = wcet_graph(graph, &binding);

    // Keyed WCET-free: wires depend on placement and topology only.
    let wires = run_pass(
        &opts.passes,
        "wire-alloc",
        || {
            fingerprint(vec![
                channel_structure_value(graph),
                binding.tile_of.to_value(),
                arch.to_value(),
                opts.bind.occupancy.connections.to_value(),
                Value::Int(WIRES_PER_CONNECTION as i128),
            ])
        },
        || allocate_wires(graph, &binding, arch, &opts.bind.occupancy),
    )?;

    // Static-order schedules. Also WCET-free: ordering follows the
    // repetition vector and liveness order, never execution times.
    let schedules = run_pass(
        &opts.passes,
        "schedule",
        || {
            fingerprint(vec![
                Value::Int(graph.actor_count() as i128),
                channel_structure_value(graph),
                binding.tile_of.to_value(),
                arch.to_value(),
            ])
        },
        || build_schedules(graph, &binding, arch),
    )?;

    // The throughput target; without a model constraint, buffers grow
    // until saturation.
    let target = app.throughput_constraint().map(|c| c.as_ratio());
    let mut mapping = initial_mapping(graph, binding, schedules, &wires);

    // Buffer sizing: the dominant pass (phase-1 deadlock growth plus the
    // phase-2 greedy search, each step one expand + throughput analysis).
    // On a replay only the final allocation and analysis come back; the
    // expanded graph is rebuilt below. Expansion is deterministic, and
    // one rebuild per replayed mapping is cheap next to the search it
    // replays, though not next to one analysis: every probe pays for an
    // expansion, hit or miss, and a cold sweep spends about two fifths as
    // long expanding as analysing (ARCHITECTURE.md, performance notes).
    let mut expanded = None;
    let (sized_channels, analysis) = run_pass(
        &opts.passes,
        "buffer-size",
        || {
            fingerprint(vec![
                app.to_value(),
                arch.to_value(),
                mapping.binding.to_value(),
                mapping.channels.to_value(),
                target.to_value(),
                Value::Int(GROWTH_BUDGET as i128),
                Value::Int(MAX_STATES as i128),
            ])
        },
        || -> Result<(Vec<ChannelAlloc>, ThroughputResult), MapError> {
            // One mapping, mutated in place across the search: the greedy
            // growth probes many candidate allocations, and cloning the
            // binding, the schedules and the channel vector once per
            // candidate used to dominate the mapping step's cost outside
            // the throughput kernel.
            let mut m = mapping.clone();
            let cache = opts.cache.as_deref();
            let mut current = grow_to_liveness(&wcet_graph, &mut m, arch, cache)?;

            // Phase 2: greedy growth toward the target (or saturation when
            // no target is set, bounded by the growth budget). A candidate
            // whose expansion or analysis fails is skipped.
            let moves = growth_moves(graph, &m.binding);
            for _ in 0..GROWTH_BUDGET {
                if target.is_some_and(|t| current.1.iterations_per_cycle >= t) {
                    break;
                }
                let Ok(Some(next)) = grow_step(
                    &mut m,
                    &moves,
                    current.1.iterations_per_cycle,
                    grow_buffer,
                    |m| Ok::<_, Infallible>(analyse(&wcet_graph, m, arch, cache).ok()),
                    |r| r.1.iterations_per_cycle,
                ) else {
                    break; // saturated
                };
                current = next;
            }

            if let Some(t) = target {
                if current.1.iterations_per_cycle < t {
                    return Err(MapError::ConstraintUnmet(format!(
                        "target {t}, achieved {}",
                        current.1.iterations_per_cycle
                    )));
                }
            }

            expanded = Some(current.0);
            Ok((m.channels, current.1))
        },
    )?;

    mapping.channels = sized_channels;
    mapping.guaranteed_iterations = analysis.iterations_per_cycle.numer().max(0) as u64;
    mapping.guaranteed_cycles = analysis.iterations_per_cycle.denom() as u64;
    let expanded = match expanded {
        Some(e) => e,
        None => expand(&wcet_graph, &mapping, arch)?,
    };
    Ok(MappedApplication {
        mapping,
        expanded,
        analysis,
        strategy: opts.bind.strategy.name(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamps_platform::interconnect::Interconnect;
    use mamps_sdf::graph::SdfGraphBuilder;
    use mamps_sdf::model::{HomogeneousModelBuilder, ThroughputConstraint};
    use mamps_sdf::passes::PassCache;
    use mamps_sdf::ratio::Ratio;

    fn pipeline_app(wcets: &[u64], token_size: u64) -> ApplicationModel {
        let n = wcets.len();
        let mut b = SdfGraphBuilder::new("pipe");
        let ids: Vec<_> = (0..n).map(|i| b.add_actor(format!("a{i}"), 1)).collect();
        for i in 0..n - 1 {
            b.add_channel_full(format!("e{i}"), ids[i], 1, ids[i + 1], 1, 0, token_size);
        }
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        for (i, &w) in wcets.iter().enumerate() {
            mb.actor(format!("a{i}"), w, 4096, 512);
        }
        mb.finish(g, None).unwrap()
    }

    #[test]
    fn map_two_actor_pipeline_fsl() {
        let app = pipeline_app(&[100, 100], 16);
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        let t = mapped.analysis.as_f64();
        assert!(t > 0.0);
        // Upper bound: one actor of 100 cycles per iteration -> <= 1/100.
        assert!(t <= 1.0 / 100.0 + 1e-9);
        assert_eq!(
            mapped.mapping.guaranteed(),
            mapped.analysis.iterations_per_cycle
        );
    }

    #[test]
    fn map_on_noc_allocates_wires() {
        let app = pipeline_app(&[50, 50, 50, 50], 16);
        let arch = Architecture::homogeneous("x", 4, Interconnect::noc_for_tiles(4)).unwrap();
        let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        let cross: Vec<_> = mapped
            .mapping
            .channels
            .iter()
            .filter(|c| c.wires > 0)
            .collect();
        assert!(!cross.is_empty(), "pipeline over 4 tiles must cross tiles");
        assert!(mapped.analysis.as_f64() > 0.0);
    }

    #[test]
    fn single_tile_mapping_matches_sum_of_wcets() {
        let app = pipeline_app(&[30, 70], 4);
        let arch = Architecture::homogeneous("x", 1, Interconnect::fsl()).unwrap();
        let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        // Sequential execution: period >= 100 cycles.
        assert!(mapped.analysis.cycles_per_iteration() >= 100.0 - 1e-9);
    }

    #[test]
    fn constraint_met_or_error() {
        // Unreachable constraint: 1 iteration per 10 cycles.
        let constraint = ThroughputConstraint {
            iterations: 1,
            cycles: 10,
        };
        let app = mamps_sdf::gen::pipeline_app("pipe", &[100, 100], 4, &[], Some(constraint));
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        assert!(matches!(
            map_application(&app, &arch, &MapOptions::default()),
            Err(MapError::ConstraintUnmet(_))
        ));
    }

    #[test]
    fn constraint_from_model_applied() {
        let mut b = SdfGraphBuilder::new("c");
        let a = b.add_actor("a", 1);
        let c = b.add_actor("c", 1);
        b.add_channel("e", a, 1, c, 1);
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        mb.actor("a", 40, 1024, 64).actor("c", 60, 1024, 64);
        let app = mb
            .finish(
                g,
                Some(ThroughputConstraint {
                    iterations: 1,
                    cycles: 100_000,
                }),
            )
            .unwrap();
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        assert!(mapped.analysis.iterations_per_cycle >= Ratio::new(1, 100_000));
    }

    #[test]
    fn oversized_tokens_fail_without_panicking() {
        // The Fig. 4 expansion of a cross-tile channel with u64::MAX-byte
        // tokens has an iteration whose firing count overflows u64.
        let app = pipeline_app(&[100, 100], u64::MAX);
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let mapped = map_application(&app, &arch, &MapOptions::default());
        assert!(matches!(mapped, Err(MapError::Sdf(SdfError::Overflow(_)))));
    }

    #[test]
    fn strategy_recorded_in_mapped_application() {
        let app = pipeline_app(&[100, 100], 16);
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        assert_eq!(mapped.strategy, "greedy");
        let spiral = MapOptions::with_strategy(crate::strategy::Binder::Spiral);
        let mapped = map_application(&app, &arch, &spiral).unwrap();
        assert_eq!(mapped.strategy, "spiral");
    }

    #[test]
    fn pass_cached_mapping_matches_plain_and_replays_warm() {
        let app = pipeline_app(&[50, 50, 50], 8);
        let arch = Architecture::homogeneous("x", 3, Interconnect::noc_for_tiles(3)).unwrap();
        let plain = map_application(&app, &arch, &MapOptions::default()).unwrap();

        let cache = Arc::new(GlobalAnalysisCache::new());
        let pass_cache = Arc::new(PassCache::new());
        let opts = MapOptions {
            cache: Some(Arc::clone(&cache)),
            passes: Some(Arc::new(PassRunner::with_cache(Arc::clone(&pass_cache)))),
            ..MapOptions::default()
        };
        let cold = map_application(&app, &arch, &opts).unwrap();
        let warm = map_application(&app, &arch, &opts).unwrap();

        // Neither cache ever changes results.
        assert_eq!(plain.mapping, cold.mapping);
        assert_eq!(plain.analysis, cold.analysis);
        assert_eq!(cold.mapping, warm.mapping);
        assert_eq!(cold.analysis, warm.analysis);

        // The cold run executed every pass once; the warm run replayed
        // every pass from the cache.
        let report = opts.passes.as_ref().unwrap().report();
        for name in ["bind", "wire-alloc", "schedule", "buffer-size"] {
            let p = report.get(name).unwrap_or_else(|| panic!("{name} ran"));
            assert_eq!((p.runs, p.hits), (1, 1), "pass {name}: {p:?}");
        }
        assert!(pass_cache.stats().hits >= 4, "{}", pass_cache.stats());
        assert!(cache.stats().inserts > 0, "{}", cache.stats());
    }

    #[test]
    fn wcet_edit_replays_wcet_free_passes_only() {
        // The edit must keep the work ordering (and hence the greedy
        // placement) stable, like a small WCET refinement would.
        let app = pipeline_app(&[50, 90, 50], 8);
        let edited = pipeline_app(&[50, 97, 50], 8);
        let arch = Architecture::homogeneous("x", 3, Interconnect::noc_for_tiles(3)).unwrap();

        let opts = MapOptions {
            passes: Some(Arc::new(PassRunner::with_cache(Arc::new(PassCache::new())))),
            ..MapOptions::default()
        };
        let first = map_application(&app, &arch, &opts).unwrap();
        let second = map_application(&edited, &arch, &opts).unwrap();
        // The edit only touched a WCET, so the placement is unchanged and
        // the WCET-free passes replay; bind and buffer-size re-execute.
        let report = opts.passes.as_ref().unwrap().report();
        for name in ["wire-alloc", "schedule"] {
            let p = report.get(name).unwrap();
            assert_eq!((p.runs, p.hits), (1, 1), "pass {name}: {p:?}");
        }
        for name in ["bind", "buffer-size"] {
            let p = report.get(name).unwrap();
            assert_eq!((p.runs, p.hits), (2, 0), "pass {name}: {p:?}");
        }
        // And the results are honest re-computations.
        assert_eq!(
            first.mapping.binding.tile_of,
            second.mapping.binding.tile_of
        );
        assert_ne!(
            first.mapping.binding.wcet_of,
            second.mapping.binding.wcet_of
        );
    }

    #[test]
    fn more_tiles_do_not_hurt() {
        let app = pipeline_app(&[80, 80, 80], 8);
        let t1 = {
            let arch = Architecture::homogeneous("x", 1, Interconnect::fsl()).unwrap();
            map_application(&app, &arch, &MapOptions::default())
                .unwrap()
                .analysis
                .as_f64()
        };
        let t3 = {
            let arch = Architecture::homogeneous("x", 3, Interconnect::fsl()).unwrap();
            map_application(&app, &arch, &MapOptions::default())
                .unwrap()
                .analysis
                .as_f64()
        };
        assert!(
            t3 >= t1,
            "pipelining over 3 tiles ({t3}) should beat 1 tile ({t1})"
        );
    }
}
