//! The three actor-to-tile binders.
//!
//! The paper fixes one greedy list binder ("the algorithms used during
//! mapping ... from \[14\]"), but the quality of the whole flow — and of
//! the DSE sweep built on top of it — is bounded by the mappings it can
//! express. This module offers three binders as the closed [`Binder`]
//! enum, which [`BindOptions`] carries and [`crate::binding::bind`]
//! dispatches on:
//!
//! * [`Binder::Greedy`] — the paper's deterministic cost-weighted list
//!   binder, and the [`Default`].
//! * [`Binder::Spiral`] — NoC-distance-aware placement: actors are visited
//!   in communication order and filled onto tiles along a spiral of
//!   increasing hop distance from a load-chosen seed tile (after the
//!   run-time spiral mapping heuristics of Benhaoua et al.).
//! * [`Binder::Genetic`] — a seeded bias-elitist genetic algorithm over
//!   actor→tile assignment vectors (after Quan & Pimentel), whose fitness
//!   is the guaranteed throughput of the candidate binding computed with
//!   the existing state-space analysis and memoized per assignment;
//!   infeasible assignments are penalized instead of discarded.
//!
//! [`Binder::name`] and its [`FromStr`] inverse are the names the CLI
//! (`mamps map --binder`, `mamps dse --binders`), the DSE service and the
//! reports use.
//!
//! Every binder returns a [`Binding`] that flows through the unchanged
//! wire-allocation / scheduling / buffer-sizing / throughput-verification
//! pipeline of [`crate::flow::map_application`], so the worst-case
//! guarantee holds for all of them.
//!
//! ## Picking a binder
//!
//! * `greedy` — the default; fast, balances load with a communication
//!   penalty. Best all-rounder and the paper-faithful choice.
//! * `spiral` — minimizes NoC hop distance between communicating actors;
//!   prefer it on mesh NoCs when wire usage (and thus interconnect area
//!   and contention) matters more than perfect load balance.
//! * `genetic` — searches the assignment space with the throughput
//!   analysis in the loop; slowest, but can escape greedy's local optima
//!   on irregular graphs. Deterministic: its random generator has a fixed
//!   seed.

use std::collections::HashMap;
use std::str::FromStr;

use mamps_platform::arch::Architecture;
use mamps_platform::interconnect::Interconnect;
use mamps_platform::types::{words_per_token, TileId};
use mamps_sdf::cache::GlobalAnalysisCache;
use mamps_sdf::graph::ActorId;
use mamps_sdf::model::ApplicationModel;
use mamps_sdf::repetition::repetition_vector;
use mamps_sdf::SdfError;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::binding::BindOptions;
use crate::cost::CostBreakdown;
use crate::error::MapError;
use crate::flow::{allocate_wires, expand_and_analyse, initial_mapping, wcet_graph};
use crate::mapping::Binding;
use crate::schedule::build_schedules;

/// An actor-to-tile binding heuristic.
///
/// Every binder is deterministic: the same inputs produce the same
/// [`Binding`], so DSE results are reproducible and independent of the
/// job count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Binder {
    /// The deterministic greedy list binder: actors are placed in order of
    /// decreasing work (WCET x repetitions); each actor goes to the
    /// feasible tile with the lowest weighted cost ([`crate::cost`]).
    /// Feasibility requires an implementation for the tile's processor
    /// type and sufficient tile memory. The algorithm mirrors the
    /// load-balancing binder of SDF3 (paper §5.1).
    #[default]
    Greedy,
    /// NoC-distance-aware spiral binder.
    ///
    /// Actors are visited in *communication order*: a breadth-first
    /// traversal of the application graph that starts at the heaviest
    /// actor and expands along the highest-volume channels first, so
    /// communicating actors are adjacent in the visit sequence. Tiles are
    /// visited along a *spiral*: the seed tile is the feasible tile for
    /// the heaviest actor closest to the mesh centre (the load chooses the
    /// seed), and the remaining tiles are ordered by increasing hop
    /// distance from it — concentric rings around the seed. The binder
    /// walks the actor sequence and fills the current spiral tile up to
    /// its fair share of the total work before moving outward, which keeps
    /// communicating actors on the same or on physically adjacent tiles
    /// and minimizes allocated NoC wire length.
    ///
    /// On FSL interconnects every tile pair is one hop apart, so the
    /// spiral degenerates to tile-id order and the binder becomes a plain
    /// communication-ordered first-fit — still useful as a fast,
    /// contention-free alternative to the cost-driven greedy search.
    Spiral,
    /// Bias-elitist genetic binder (after Quan & Pimentel).
    ///
    /// Chromosomes are actor→tile assignment vectors. The initial
    /// population of 16 seeds the greedy and spiral solutions (when they
    /// exist) alongside random feasibility-aware assignments; each of 8
    /// generations copies the 4 best chromosomes (the elite) unchanged and
    /// breeds the rest by uniform crossover between parents drawn with
    /// probability 0.7 from the elite pool (the *bias-elitist*
    /// selection), followed by per-gene mutation with probability
    /// `1/actors`.
    ///
    /// The fitness of a chromosome is the **guaranteed throughput** of the
    /// candidate binding, evaluated with the mapping flow's own helpers:
    /// wires and schedules from the functions the `wire-alloc` and
    /// `schedule` passes run, channels at the `buffer-size` pass's initial
    /// allocation, and the same expand-then-analyse step. Fitness values
    /// are memoized per assignment so repeated chromosomes cost nothing.
    /// Assignments that violate tile memory get a large negative penalty,
    /// ones that fail wire allocation, scheduling or expansion a smaller
    /// one, and ones whose analysis fails (typically a deadlock at the
    /// initial buffer allocation) a token penalty (the downstream flow can
    /// often still grow buffers to liveness).
    ///
    /// Because it skips buffer growth, the fitness is a heuristic ranking,
    /// not the final verdict: a binding that only shines after growth can
    /// rank below its final numbers. The winning binding is always
    /// re-verified by the unchanged pipeline.
    ///
    /// All randomness comes from a [`StdRng`] with a fixed seed: the same
    /// inputs always yield the same binding.
    Genetic,
}

/// The earlier name of [`Binder`], kept because the end-to-end benchmark
/// imports it.
pub type StrategyHandle = Binder;

impl Binder {
    /// Every binder, in the order the CLI lists them.
    pub const ALL: [Binder; 3] = [Binder::Greedy, Binder::Spiral, Binder::Genetic];

    /// Stable identifier of the binder (CLI name, report column, pass
    /// key).
    pub fn name(self) -> &'static str {
        match self {
            Binder::Greedy => "greedy",
            Binder::Spiral => "spiral",
            Binder::Genetic => "genetic",
        }
    }
}

impl FromStr for Binder {
    type Err = String;

    /// The binder called `name`, or an error that lists every name.
    fn from_str(name: &str) -> Result<Binder, String> {
        let available = names().join(", ");
        Binder::ALL
            .into_iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| format!("unknown binder `{name}` (available: {available})"))
    }
}

/// The binder called `name`; kept because the end-to-end benchmark
/// imports it (everything else parses a [`Binder`]).
pub fn by_name(name: &str) -> Option<Binder> {
    name.parse().ok()
}

/// The binder names, in [`Binder::ALL`] order.
pub fn names() -> Vec<&'static str> {
    Binder::ALL.map(Binder::name).to_vec()
}

/// Completes a tile assignment into a full [`Binding`] by choosing each
/// actor's implementation for its tile's processor.
///
/// # Panics
///
/// Panics if some actor has no implementation for its tile — callers must
/// have checked feasibility.
fn finish_binding(app: &ApplicationModel, arch: &Architecture, tile_of: Vec<TileId>) -> Binding {
    let processor_of = tile_of
        .iter()
        .map(|&t| arch.tile(t).processor().clone())
        .collect();
    let wcet_of = tile_of
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            app.implementation_for(ActorId(i), arch.tile(t).processor().name())
                .expect("chosen tiles have implementations")
                .wcet
        })
        .collect();
    Binding {
        tile_of,
        processor_of,
        wcet_of,
    }
}

/// Memory needed on tile `t` by actor `a`, or `None` when the tile's
/// processor type has no implementation of the actor.
fn mem_needed(app: &ApplicationModel, arch: &Architecture, a: ActorId, t: TileId) -> Option<u64> {
    app.implementation_for(a, arch.tile(t).processor().name())
        .map(|im| im.instruction_memory + im.data_memory)
}

fn infeasible_actor(app: &ApplicationModel, a: ActorId) -> MapError {
    MapError::Infeasible(format!(
        "actor `{}` fits no tile (implementations: {:?})",
        app.graph().actor(a).name(),
        app.implementations(a)
            .iter()
            .map(|i| i.processor_type.as_str())
            .collect::<Vec<_>>()
    ))
}

/// The placement heuristics greedy and spiral share, per iteration: each
/// actor's work (its largest WCET over its implementations x its
/// repetitions) and each channel's volume in words (source repetitions x
/// production rate x words per token), indexed by actor and channel id.
///
/// # Errors
///
/// * [`MapError::Sdf`] if the graph is inconsistent.
/// * [`MapError::Sdf`] with [`SdfError::Overflow`] if a product leaves
///   `u64`.
fn work_and_volumes(app: &ApplicationModel) -> Result<(Vec<u64>, Vec<u64>), MapError> {
    let graph = app.graph();
    let q = repetition_vector(graph)?;
    let work = graph
        .actors()
        .map(|(a, actor)| {
            let wcet = app.implementations(a).iter().map(|im| im.wcet).max();
            wcet.unwrap_or(0)
                .checked_mul(q.of(a))
                .ok_or_else(|| SdfError::Overflow(format!("work of actor `{}`", actor.name())))
        })
        .collect::<Result<_, _>>()?;
    let volume = graph
        .channels()
        .map(|(_, ch)| {
            q.of(ch.src())
                .checked_mul(ch.production_rate())
                .and_then(|v| v.checked_mul(words_per_token(ch.token_size())))
                .ok_or_else(|| SdfError::Overflow(format!("words on channel `{}`", ch.name())))
        })
        .collect::<Result<_, _>>()?;
    Ok((work, volume))
}

// ---------------------------------------------------------------------------
// Greedy
// ---------------------------------------------------------------------------

/// Binds with [`Binder::Greedy`].
pub(crate) fn greedy(
    app: &ApplicationModel,
    arch: &Architecture,
    opts: &BindOptions,
) -> Result<Binding, MapError> {
    let graph = app.graph();
    let n = graph.actor_count();
    let (work, volume) = work_and_volumes(app)?;

    let mut order: Vec<ActorId> = (0..n).map(ActorId).collect();
    order.sort_by_key(|&a| std::cmp::Reverse((work[a.0], std::cmp::Reverse(a.0))));

    // Include the occupancy's work so the processing cost stays on the
    // same normalized scale as the other cost components when tiles
    // are pre-loaded by previously admitted applications.
    let total_work: f64 =
        work.iter().map(|&w| w as f64).sum::<f64>().max(1.0) + opts.occupancy.total_work() as f64;
    let total_comm: f64 = volume.iter().map(|&v| v as f64).sum::<f64>().max(1.0);
    let mesh_diameter = match arch.interconnect() {
        Interconnect::Noc(noc) => (noc.width + noc.height - 2).max(1) as f64,
        Interconnect::Fsl { .. } => 1.0,
    };

    let pinned: HashMap<ActorId, TileId> = opts.pinned.iter().copied().collect();
    // Residual-resource start state: tiles begin at the occupancy of
    // previously admitted applications (all zero for single-app flows).
    let mut tile_load: Vec<f64> = (0..arch.tile_count())
        .map(|t| opts.occupancy.work_on(TileId(t)) as f64)
        .collect();
    let mut tile_mem: Vec<u64> = (0..arch.tile_count())
        .map(|t| opts.occupancy.mem_on(TileId(t)))
        .collect();
    let mut placed: Vec<Option<TileId>> = vec![None; n];

    for &a in &order {
        let candidates: Vec<TileId> = match pinned.get(&a) {
            Some(&t) => vec![t],
            None => (0..arch.tile_count()).map(TileId).collect(),
        };
        let mut best: Option<(f64, TileId)> = None;
        for t in candidates {
            let tile = arch.tile(t);
            let im = match app.implementation_for(a, tile.processor().name()) {
                Some(im) => im,
                None => continue,
            };
            let mem_needed = im.instruction_memory + im.data_memory;
            if tile_mem[t.0] + mem_needed > tile.imem_bytes() + tile.dmem_bytes() {
                continue;
            }
            let mut comm = 0f64;
            let mut lat = 0f64;
            let mut neighbours = 0u32;
            for (cid, ch) in graph.channels() {
                let other = if ch.src() == a {
                    ch.dst()
                } else if ch.dst() == a {
                    ch.src()
                } else {
                    continue;
                };
                if other == a {
                    continue;
                }
                if let Some(ot) = placed[other.0] {
                    if ot != t {
                        let hops = match arch.interconnect() {
                            Interconnect::Noc(noc) => noc.hops(t, ot).max(1) as f64,
                            Interconnect::Fsl { .. } => 1.0,
                        };
                        comm += volume[cid.0] as f64 * hops;
                        lat += hops;
                        neighbours += 1;
                    }
                }
            }
            let breakdown = CostBreakdown {
                processing: (tile_load[t.0] + work[a.0] as f64) / total_work,
                memory: (tile_mem[t.0] + mem_needed) as f64
                    / (tile.imem_bytes() + tile.dmem_bytes()).max(1) as f64,
                communication: comm / total_comm,
                latency: if neighbours > 0 {
                    lat / neighbours as f64 / mesh_diameter
                } else {
                    0.0
                },
            };
            let cost = breakdown.weighted();
            let better = match best {
                None => true,
                // Tie-break on tile id for determinism.
                Some((bc, bt)) => cost < bc - 1e-12 || (cost <= bc + 1e-12 && t.0 < bt.0),
            };
            if better {
                best = Some((cost, t));
            }
        }
        match best {
            Some((_, t)) => {
                placed[a.0] = Some(t);
                tile_load[t.0] += work[a.0] as f64;
                let im = app
                    .implementation_for(a, arch.tile(t).processor().name())
                    .expect("feasibility checked above");
                tile_mem[t.0] += im.instruction_memory + im.data_memory;
            }
            None => return Err(infeasible_actor(app, a)),
        }
    }

    let tile_of: Vec<TileId> = placed.into_iter().map(|p| p.expect("all placed")).collect();
    Ok(finish_binding(app, arch, tile_of))
}

// ---------------------------------------------------------------------------
// Spiral
// ---------------------------------------------------------------------------

/// Binds with [`Binder::Spiral`].
pub(crate) fn spiral(
    app: &ApplicationModel,
    arch: &Architecture,
    opts: &BindOptions,
) -> Result<Binding, MapError> {
    let graph = app.graph();
    let n = graph.actor_count();
    let tiles = arch.tile_count();
    let (work, volume) = work_and_volumes(app)?;

    // Channel volumes aggregated per undirected actor pair.
    let mut adj: Vec<Vec<(ActorId, u64)>> = vec![Vec::new(); n];
    for (cid, ch) in graph.channels() {
        if ch.is_self_edge() {
            continue;
        }
        adj[ch.src().0].push((ch.dst(), volume[cid.0]));
        adj[ch.dst().0].push((ch.src(), volume[cid.0]));
    }
    for neighbours in &mut adj {
        // Highest volume first; ties on actor id for determinism.
        neighbours.sort_by_key(|&(b, v)| (std::cmp::Reverse(v), b.0));
    }

    // Communication-ordered visit sequence: BFS from the heaviest actor
    // of each (possibly disconnected) component, expanding along the
    // highest-volume channels first.
    let mut heaviest_first: Vec<ActorId> = (0..n).map(ActorId).collect();
    heaviest_first.sort_by_key(|&a| (std::cmp::Reverse(work[a.0]), a.0));
    let mut visited = vec![false; n];
    let mut order: Vec<ActorId> = Vec::with_capacity(n);
    for &root in &heaviest_first {
        if visited[root.0] {
            continue;
        }
        let mut queue = std::collections::VecDeque::from([root]);
        visited[root.0] = true;
        while let Some(a) = queue.pop_front() {
            order.push(a);
            for &(b, _) in &adj[a.0] {
                if !visited[b.0] {
                    visited[b.0] = true;
                    queue.push_back(b);
                }
            }
        }
    }

    // Spiral tile order from the load-chosen seed: among the tiles that
    // can host the heaviest actor, the one closest to the mesh centre
    // (ties on tile id); remaining tiles by increasing hop distance.
    let spiral = match order.first() {
        Some(&first) => {
            spiral_tile_order(app, arch, first).ok_or_else(|| infeasible_actor(app, first))?
        }
        None => Vec::new(),
    };

    // Fair share counts the work of previously admitted applications
    // too, so the spiral walks past already-busy tiles earlier.
    let total_work: f64 =
        work.iter().map(|&w| w as f64).sum::<f64>().max(1.0) + opts.occupancy.total_work() as f64;
    let fair_share = total_work / tiles.max(1) as f64;

    let pinned: HashMap<ActorId, TileId> = opts.pinned.iter().copied().collect();
    let mut tile_load: Vec<f64> = (0..tiles)
        .map(|t| opts.occupancy.work_on(TileId(t)) as f64)
        .collect();
    let mut tile_mem: Vec<u64> = (0..tiles)
        .map(|t| opts.occupancy.mem_on(TileId(t)))
        .collect();
    let mut placed: Vec<Option<TileId>> = vec![None; n];
    let mut cursor = 0usize;

    let mut place =
        |a: ActorId, t: TileId, tile_load: &mut Vec<f64>, tile_mem: &mut Vec<u64>, need: u64| {
            placed[a.0] = Some(t);
            tile_load[t.0] += work[a.0] as f64;
            tile_mem[t.0] += need;
        };

    for &a in &order {
        let fits = |t: TileId, tile_mem: &[u64]| -> Option<u64> {
            let need = mem_needed(app, arch, a, t)?;
            let cap = arch.tile(t).imem_bytes() + arch.tile(t).dmem_bytes();
            (tile_mem[t.0] + need <= cap).then_some(need)
        };
        if let Some(&t) = pinned.get(&a) {
            match fits(t, &tile_mem) {
                Some(need) => place(a, t, &mut tile_load, &mut tile_mem, need),
                None => return Err(infeasible_actor(app, a)),
            }
            continue;
        }
        // The current spiral tile is full: move outward.
        while cursor + 1 < spiral.len() && tile_load[spiral[cursor].0] >= fair_share {
            cursor += 1;
        }
        // First feasible tile at or after the cursor, else the least
        // loaded feasible tile anywhere (memory fallback).
        let forward = spiral[cursor..]
            .iter()
            .find_map(|&t| fits(t, &tile_mem).map(|need| (t, need)));
        let chosen = forward.or_else(|| {
            spiral
                .iter()
                .filter_map(|&t| fits(t, &tile_mem).map(|need| (t, need)))
                .min_by(|(ta, _), (tb, _)| {
                    tile_load[ta.0]
                        .partial_cmp(&tile_load[tb.0])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(ta.0.cmp(&tb.0))
                })
        });
        match chosen {
            Some((t, need)) => place(a, t, &mut tile_load, &mut tile_mem, need),
            None => return Err(infeasible_actor(app, a)),
        }
    }

    let tile_of: Vec<TileId> = placed.into_iter().map(|p| p.expect("all placed")).collect();
    Ok(finish_binding(app, arch, tile_of))
}

/// Tile visit order for [`Binder::Spiral`]: seed = feasible tile for `first`
/// nearest the mesh centre, then all tiles by (hop distance from seed,
/// tile id). Returns `None` when no tile can host `first` at all.
fn spiral_tile_order(
    app: &ApplicationModel,
    arch: &Architecture,
    first: ActorId,
) -> Option<Vec<TileId>> {
    let tiles = arch.tile_count();
    let feasible = |t: TileId| -> bool {
        app.implementation_for(first, arch.tile(t).processor().name())
            .is_some()
    };
    let seed = match arch.interconnect() {
        Interconnect::Noc(noc) => {
            // Distance to the mesh centre in doubled coordinates (keeps the
            // comparison integral when width/height are even).
            let centre_dist = |t: TileId| -> u32 {
                let c = noc.tile_coord(t);
                (2 * c.x).abs_diff(noc.width - 1) + (2 * c.y).abs_diff(noc.height - 1)
            };
            (0..tiles)
                .map(TileId)
                .filter(|&t| feasible(t))
                .min_by_key(|&t| (centre_dist(t), t.0))?
        }
        Interconnect::Fsl { .. } => (0..tiles).map(TileId).find(|&t| feasible(t))?,
    };
    let mut spiral: Vec<TileId> = (0..tiles).map(TileId).collect();
    match arch.interconnect() {
        Interconnect::Noc(noc) => spiral.sort_by_key(|&t| (noc.hops(seed, t), t.0)),
        Interconnect::Fsl { .. } => spiral.sort_by_key(|&t| (u64::from(t != seed), t.0)),
    }
    Some(spiral)
}

// ---------------------------------------------------------------------------
// Genetic
// ---------------------------------------------------------------------------

/// Seed of the genetic binder's random generator.
const SEED: u64 = 0x5DF3_2011;
/// Chromosomes per generation.
const POPULATION: usize = 16;
/// Generations bred after the initial evaluation.
const GENERATIONS: usize = 8;
/// Best chromosomes copied unchanged into the next generation.
const ELITE: usize = 4;
/// Probability of drawing a parent from the elite pool.
const BIAS: f64 = 0.7;

/// Penalized guaranteed-throughput fitness of one assignment of
/// [`Binder::Genetic`], evaluated against the residual resources left by
/// `occ`.
fn fitness(
    app: &ApplicationModel,
    arch: &Architecture,
    occ: &crate::binding::Occupancy,
    cache: Option<&GlobalAnalysisCache>,
    chrom: &[TileId],
) -> f64 {
    const MEM_PENALTY: f64 = -1e9;
    const STRUCTURE_PENALTY: f64 = -1e6;
    const DEADLOCK_PENALTY: f64 = -1.0;

    let graph = app.graph();

    // Tile memory feasibility: one penalty unit per overcommitted tile.
    let mut mem_used: Vec<u64> = (0..arch.tile_count())
        .map(|t| occ.mem_on(TileId(t)))
        .collect();
    for (i, &t) in chrom.iter().enumerate() {
        match mem_needed(app, arch, ActorId(i), t) {
            Some(need) => mem_used[t.0] += need,
            None => return MEM_PENALTY * chrom.len() as f64,
        }
    }
    let overcommitted = (0..arch.tile_count())
        .filter(|&t| {
            let tile = arch.tile(TileId(t));
            mem_used[t] > tile.imem_bytes() + tile.dmem_bytes()
        })
        .count();
    if overcommitted > 0 {
        return MEM_PENALTY * overcommitted as f64;
    }

    let binding = finish_binding(app, arch, chrom.to_vec());
    let Ok(wires) = allocate_wires(graph, &binding, arch, occ) else {
        return STRUCTURE_PENALTY;
    };
    let Ok(schedules) = build_schedules(graph, &binding, arch) else {
        return STRUCTURE_PENALTY;
    };
    let wcet_graph = wcet_graph(graph, &binding);
    let mapping = initial_mapping(graph, binding, schedules, &wires);
    match expand_and_analyse(&wcet_graph, &mapping, arch, cache) {
        Ok(Ok(t)) => t.as_f64(),
        Ok(Err(_)) => DEADLOCK_PENALTY,
        Err(_) => STRUCTURE_PENALTY,
    }
}

/// Binds with [`Binder::Genetic`]; `cache` memoizes the fitness
/// analyses.
pub(crate) fn genetic(
    app: &ApplicationModel,
    arch: &Architecture,
    opts: &BindOptions,
    cache: Option<&GlobalAnalysisCache>,
) -> Result<Binding, MapError> {
    let graph = app.graph();
    // Surface graph inconsistency exactly like the other binders.
    let _ = repetition_vector(graph)?;
    let n = graph.actor_count();
    if n == 0 {
        return Ok(finish_binding(app, arch, Vec::new()));
    }

    let pinned: HashMap<ActorId, TileId> = opts.pinned.iter().copied().collect();
    // Per-gene candidate tiles (implementation exists; pinning fixes
    // the gene to one tile).
    let mut candidates: Vec<Vec<TileId>> = Vec::with_capacity(n);
    for i in 0..n {
        let a = ActorId(i);
        let cands: Vec<TileId> = match pinned.get(&a) {
            Some(&t) => (mem_needed(app, arch, a, t).is_some())
                .then_some(t)
                .into_iter()
                .collect(),
            None => (0..arch.tile_count())
                .map(TileId)
                .filter(|&t| mem_needed(app, arch, a, t).is_some())
                .collect(),
        };
        if cands.is_empty() {
            return Err(infeasible_actor(app, a));
        }
        candidates.push(cands);
    }

    let mut rng = StdRng::seed_from_u64(SEED);

    // Seed the population with the deterministic heuristics (standard
    // practice for bias-elitist mapping GAs), then random assignments.
    let mut pop: Vec<Vec<TileId>> = Vec::with_capacity(POPULATION);
    for heuristic in [greedy, spiral] {
        if let Ok(b) = heuristic(app, arch, opts) {
            if !pop.contains(&b.tile_of) {
                pop.push(b.tile_of);
            }
        }
    }
    while pop.len() < POPULATION {
        let chrom: Vec<TileId> = candidates
            .iter()
            .map(|c| c[rng.gen_range(0..c.len())])
            .collect();
        pop.push(chrom);
    }

    // Memoized fitness: chromosomes recur across generations (elitism,
    // converging populations) and each evaluation is a full state-space
    // analysis, so the cache carries most of the GA's cost.
    let mut memo: HashMap<Vec<TileId>, f64> = HashMap::new();
    let score = |chrom: &Vec<TileId>, memo: &mut HashMap<Vec<TileId>, f64>| -> f64 {
        if let Some(&f) = memo.get(chrom) {
            return f;
        }
        let f = fitness(app, arch, &opts.occupancy, cache, chrom);
        memo.insert(chrom.clone(), f);
        f
    };
    // Deterministic ranking: fitness descending, chromosome ascending.
    let rank = |pop: &mut Vec<Vec<TileId>>, memo: &mut HashMap<Vec<TileId>, f64>| {
        pop.sort_by(|a, b| {
            let (fa, fb) = (memo[a], memo[b]);
            fb.total_cmp(&fa).then_with(|| a.cmp(b))
        });
    };

    for chrom in &pop {
        score(chrom, &mut memo);
    }
    rank(&mut pop, &mut memo);

    for _ in 0..GENERATIONS {
        let mut next: Vec<Vec<TileId>> = pop[..ELITE].to_vec();
        while next.len() < POPULATION {
            let pick = |rng: &mut StdRng| -> usize {
                if rng.gen::<f64>() < BIAS {
                    rng.gen_range(0..ELITE)
                } else {
                    rng.gen_range(0..pop.len())
                }
            };
            let (pa, pb) = (pick(&mut rng), pick(&mut rng));
            let mut child: Vec<TileId> = (0..n)
                .map(|i| {
                    if rng.gen::<bool>() {
                        pop[pa][i]
                    } else {
                        pop[pb][i]
                    }
                })
                .collect();
            for (i, gene) in child.iter_mut().enumerate() {
                if rng.gen_range(0..n) == 0 {
                    let c = &candidates[i];
                    *gene = c[rng.gen_range(0..c.len())];
                }
            }
            next.push(child);
        }
        pop = next;
        for chrom in &pop {
            score(chrom, &mut memo);
        }
        rank(&mut pop, &mut memo);
    }

    let best = pop.into_iter().next().expect("population is non-empty");
    if memo[&best] <= -1e8 {
        return Err(MapError::Infeasible(
            "genetic binder found no memory-feasible assignment".into(),
        ));
    }
    Ok(finish_binding(app, arch, best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamps_sdf::graph::SdfGraphBuilder;
    use mamps_sdf::model::HomogeneousModelBuilder;

    fn pipeline_app(wcets: &[u64]) -> ApplicationModel {
        let n = wcets.len();
        let mut b = SdfGraphBuilder::new("pipe");
        let ids: Vec<_> = (0..n).map(|i| b.add_actor(format!("a{i}"), 1)).collect();
        for i in 0..n - 1 {
            b.add_channel_full(format!("e{i}"), ids[i], 1, ids[i + 1], 1, 0, 16);
        }
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        for (i, &w) in wcets.iter().enumerate() {
            mb.actor(format!("a{i}"), w, 4096, 512);
        }
        mb.finish(g, None).unwrap()
    }

    #[test]
    fn every_binder_round_trips_through_its_name() {
        for binder in Binder::ALL {
            assert_eq!(binder.name().parse(), Ok(binder));
        }
        assert_eq!(
            "nope".parse::<Binder>(),
            Err("unknown binder `nope` (available: greedy, spiral, genetic)".to_string())
        );
        assert_eq!(names(), vec!["greedy", "spiral", "genetic"]);
        assert_eq!(Binder::default(), Binder::Greedy);
    }

    #[test]
    fn spiral_places_all_actors_and_respects_pinning() {
        let app = pipeline_app(&[100, 1, 1, 100]);
        let arch = Architecture::homogeneous("a", 4, Interconnect::noc_for_tiles(4)).unwrap();
        let b = spiral(&app, &arch, &BindOptions::default()).unwrap();
        assert_eq!(b.tile_of.len(), 4);

        let a3 = app.graph().actor_by_name("a3").unwrap();
        let opts = BindOptions {
            pinned: vec![(a3, TileId(2))],
            ..BindOptions::default()
        };
        let b = spiral(&app, &arch, &opts).unwrap();
        assert_eq!(b.tile_of[a3.0], TileId(2));
    }

    #[test]
    fn spiral_keeps_communicating_actors_close() {
        // A 6-stage pipeline on a 3x2 NoC: spiral placement keeps every
        // cross-tile channel within 2 hops.
        let app = pipeline_app(&[50, 50, 50, 50, 50, 50]);
        let arch = Architecture::homogeneous("a", 6, Interconnect::noc_for_tiles(6)).unwrap();
        let b = spiral(&app, &arch, &BindOptions::default()).unwrap();
        if let Interconnect::Noc(noc) = arch.interconnect() {
            for (_, ch) in app.graph().channels() {
                let hops = noc.hops(b.tile_of[ch.src().0], b.tile_of[ch.dst().0]);
                assert!(hops <= 2, "channel spans {hops} hops");
            }
        }
    }

    #[test]
    fn spiral_is_deterministic() {
        let app = pipeline_app(&[7, 3, 9, 4, 6]);
        let arch = Architecture::homogeneous("a", 4, Interconnect::noc_for_tiles(4)).unwrap();
        let b1 = spiral(&app, &arch, &BindOptions::default()).unwrap();
        let b2 = spiral(&app, &arch, &BindOptions::default()).unwrap();
        assert_eq!(b1, b2);
    }

    #[test]
    fn genetic_same_seed_same_binding() {
        let app = pipeline_app(&[40, 10, 25, 5]);
        let arch = Architecture::homogeneous("a", 2, Interconnect::fsl()).unwrap();
        let b1 = genetic(&app, &arch, &BindOptions::default(), None).unwrap();
        let b2 = genetic(&app, &arch, &BindOptions::default(), None).unwrap();
        assert_eq!(b1, b2);
    }

    #[test]
    fn genetic_never_worse_than_greedy_seed() {
        // The greedy solution seeds the population and elites survive, so
        // the GA's best fitness is at least the greedy binding's fitness.
        let app = pipeline_app(&[40, 10, 25, 5]);
        let arch = Architecture::homogeneous("a", 2, Interconnect::fsl()).unwrap();
        let seed = greedy(&app, &arch, &BindOptions::default()).unwrap();
        let best = genetic(&app, &arch, &BindOptions::default(), None).unwrap();
        let occ = crate::binding::Occupancy::default();
        let f_greedy = fitness(&app, &arch, &occ, None, &seed.tile_of);
        let f_best = fitness(&app, &arch, &occ, None, &best.tile_of);
        assert!(
            f_best >= f_greedy,
            "GA best {f_best} below greedy {f_greedy}"
        );
    }

    #[test]
    fn genetic_infeasible_when_no_implementation() {
        let app = pipeline_app(&[1, 1]);
        let tiles = vec![mamps_platform::tile::TileConfig::master("t0")
            .with_processor(mamps_platform::types::ProcessorType::custom("dsp"))];
        let arch = Architecture::new("a", tiles, Interconnect::fsl()).unwrap();
        assert!(matches!(
            genetic(&app, &arch, &BindOptions::default(), None),
            Err(MapError::Infeasible(_))
        ));
    }

    #[test]
    fn all_strategies_handle_single_tile() {
        let app = pipeline_app(&[10, 20, 30]);
        let arch = Architecture::homogeneous("a", 1, Interconnect::fsl()).unwrap();
        for binder in Binder::ALL {
            let opts = BindOptions::with_strategy(binder);
            let b = crate::binding::bind(&app, &arch, &opts, None).unwrap();
            assert!(
                b.tile_of.iter().all(|&t| t == TileId(0)),
                "{binder:?} strayed off the only tile"
            );
        }
    }

    #[test]
    fn greedy_and_spiral_report_overflowing_work_and_volume() {
        // Repetition counts near u64::MAX overflow WCET x repetitions; a
        // token of u64::MAX bytes overflows the words one iteration moves.
        let cases = [
            (
                (9_223_372_036_854_775_783, 9_223_372_036_854_775_643),
                4,
                "work of actor `a`",
            ),
            ((4, 4), u64::MAX, "words on channel `e`"),
        ];
        let arch = Architecture::homogeneous("a", 2, Interconnect::fsl()).unwrap();
        for ((p, c), token_size, what) in cases {
            let mut b = SdfGraphBuilder::new("h");
            let (a, z) = (b.add_actor("a", 10), b.add_actor("b", 10));
            b.add_channel_full("e", a, p, z, c, 0, token_size);
            let mut mb = HomogeneousModelBuilder::new("microblaze");
            mb.actor("a", 10, 1024, 1024).actor("b", 10, 1024, 1024);
            let app = mb.finish(b.build().unwrap(), None).unwrap();
            for binder in [greedy, spiral] {
                let err = binder(&app, &arch, &BindOptions::default());
                assert_eq!(err, Err(MapError::Sdf(SdfError::Overflow(what.into()))));
            }
        }
    }
}
