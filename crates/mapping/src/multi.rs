//! Multi-application use-cases: incremental mapping with per-application
//! throughput guarantees.
//!
//! The MAMPS platform is explicitly designed to host several
//! throughput-constrained applications at once (paper §4), but the mapping
//! flow of §5.1 places one application at a time. This module closes the
//! gap with the standard design-time admission-control shape (after
//! Weichslgartner et al.'s design-time/run-time methodology, and Benhaoua
//! et al.'s run-time mapping on partially occupied NoCs):
//!
//! 1. Applications of a [`UseCase`] are admitted **one at a time**, in
//!    order. Each is bound by the configured
//!    [`Binder`](crate::strategy::Binder) against the *residual*
//!    resources ([`Occupancy`]) left by the applications admitted before
//!    it — remaining tile memory, remaining SDM NoC wires — and carried
//!    through the unchanged wire-allocation / scheduling /
//!    buffer-sizing pipeline of [`map_application`].
//! 2. Tiles shared between applications are arbitrated by **static-order
//!    round concatenation**: a shared tile executes application A's round,
//!    then B's round, cyclically (the MAMPS scheduler stays a lookup
//!    table). The admission step builds the combined analysis graph of
//!    every *interference group* (applications transitively sharing
//!    tiles), applies the Fig. 4 expansion and the static-order constraint
//!    rings, and re-runs the state-space analysis — each application's
//!    budget is thereby reduced by exactly the resource share the others
//!    consume.
//! 3. An application is **rejected with a structured reason**
//!    ([`RejectReason`]) when it cannot be bound on the residual
//!    resources, when the combined analysis fails (e.g. the concatenated
//!    static orders deadlock at the admitted buffer sizes), or when
//!    admitting it would drop any application's shared guarantee below
//!    its throughput constraint — including the constraints of
//!    previously admitted applications, which are re-verified on every
//!    admission.
//!
//! Within an interference group the concatenated static orders make the
//! applications proceed in lockstep: one combined iteration completes one
//! iteration of every member, so the group's guaranteed throughput is a
//! conservative per-application bound. Applications on disjoint tiles
//! interfere with nothing (FSL FIFOs are point-to-point, SDM wires are
//! exclusively allocated) and keep their isolation guarantee.
//!
//! The [`SharedSystem`] of each group is ready for the cycle-level
//! simulator: `mamps_sim::System::new_with_repetitions` runs all member
//! applications concurrently on the shared tiles and the measurement
//! validates every per-application bound (see `mamps_core::flow`'s
//! multi-application entry point and the `mamps map-multi` CLI command).

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;

use mamps_platform::arch::Architecture;
use mamps_platform::types::TileId;
use mamps_sdf::graph::{ActorId, ChannelId, SdfGraph, SdfGraphBuilder};
use mamps_sdf::model::ApplicationModel;
use mamps_sdf::ratio::{gcd, Ratio};
use mamps_sdf::repetition::repetition_vector;
use mamps_sdf::state_space::ThroughputResult;
use mamps_sdf::SdfError;

use crate::binding::Occupancy;
use crate::error::MapError;
use crate::flow::{
    grow_to_liveness, map_application, run_pass, MapOptions, MappedApplication,
    DEADLOCK_GROWTH_ATTEMPTS, MAX_STATES,
};
use crate::mapping::{Binding, ChannelAlloc, Mapping, ScheduleEntry};
use mamps_sdf::cache::GraphFingerprint;
use mamps_sdf::passes::fingerprint;
use serde::Serialize as _;

/// An ordered set of applications to host concurrently on one platform.
///
/// The order is the admission order: earlier applications get first pick
/// of the resources, mirroring a running system that admits applications
/// as they arrive. Application (graph) names must be unique — they prefix
/// the actor and channel names of the combined analysis graphs.
#[derive(Debug, Clone)]
pub struct UseCase {
    apps: Vec<ApplicationModel>,
}

impl UseCase {
    /// Builds a use-case from the applications in admission order.
    ///
    /// # Errors
    ///
    /// [`MapError::Infeasible`] if the list is empty or two applications
    /// share a graph name.
    pub fn new(apps: Vec<ApplicationModel>) -> Result<UseCase, MapError> {
        if apps.is_empty() {
            return Err(MapError::Infeasible(
                "use-case contains no applications".into(),
            ));
        }
        let mut names = BTreeSet::new();
        for app in &apps {
            if !names.insert(app.graph().name().to_string()) {
                return Err(MapError::Infeasible(format!(
                    "duplicate application name `{}` in use-case",
                    app.graph().name()
                )));
            }
        }
        Ok(UseCase { apps })
    }

    /// The applications in admission order.
    pub fn apps(&self) -> &[ApplicationModel] {
        &self.apps
    }

    /// Number of applications.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// True if the use-case holds no applications (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }
}

/// Why an application was not admitted.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum RejectReason {
    /// The application could not be mapped on the residual resources
    /// (binding, wires, scheduling, buffer sizing, or its own constraint
    /// in isolation).
    Map(MapError),
    /// The combined shared-platform analysis failed — most commonly the
    /// concatenated static-order schedules deadlock at the admitted
    /// buffer sizes.
    SharedAnalysis(String),
    /// Admitting the application would drop `victim`'s shared guarantee
    /// below its throughput constraint. `victim` may be the candidate
    /// itself or any previously admitted application.
    GuaranteeViolated {
        /// The application whose constraint would be violated.
        victim: String,
        /// `victim`'s required throughput (iterations/cycle).
        required: Ratio,
        /// The shared guarantee admission would leave `victim` with.
        achieved: Ratio,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Map(e) => write!(f, "mapping failed: {e}"),
            RejectReason::SharedAnalysis(m) => {
                write!(f, "shared-platform analysis failed: {m}")
            }
            RejectReason::GuaranteeViolated {
                victim,
                required,
                achieved,
            } => write!(
                f,
                "admission would violate `{victim}`: requires {required} \
                 iterations/cycle, shared guarantee would be {achieved}"
            ),
        }
    }
}

/// An application the admission loop accepted.
#[derive(Debug, Clone)]
pub struct AdmittedApp {
    /// Position in the use-case's admission order.
    pub index: usize,
    /// The application's (graph) name.
    pub name: String,
    /// The mapping produced on the residual resources, with its
    /// *isolation* analysis (no sharing).
    pub mapped: MappedApplication,
    /// The application's own throughput constraint, if any.
    pub constraint: Option<Ratio>,
    /// The guaranteed throughput under sharing: the lockstep bound of the
    /// application's interference group. Equals the isolation bound when
    /// the application shares no tile.
    pub shared_guarantee: Ratio,
    /// Index of the application's interference group in
    /// [`UseCaseMapping::groups`].
    pub group: usize,
}

impl AdmittedApp {
    /// The tiles this application occupies, ascending.
    pub fn tiles(&self) -> Vec<TileId> {
        let set: BTreeSet<usize> = self
            .mapped
            .mapping
            .binding
            .tile_of
            .iter()
            .map(|t| t.0)
            .collect();
        set.into_iter().map(TileId).collect()
    }
}

/// An application the admission loop rejected.
#[derive(Debug, Clone)]
pub struct RejectedApp {
    /// Position in the use-case's admission order.
    pub index: usize,
    /// The application's (graph) name.
    pub name: String,
    /// Why it was rejected.
    pub reason: RejectReason,
}

/// One member of a [`SharedSystem`].
#[derive(Debug, Clone)]
pub struct GroupMember {
    /// Index into [`UseCaseMapping::admitted`].
    pub admitted: usize,
    /// The member's actor ids within the combined graph.
    pub actors: Range<usize>,
    /// The member's channel ids within the combined graph.
    pub channels: Range<usize>,
    /// The member's own repetition vector (indexed by its local actor id).
    pub q: Vec<u64>,
}

/// The combined executable system of one interference group: the
/// WCET-annotated union graph of all member applications and the combined
/// mapping whose per-tile schedules concatenate the members' rounds.
///
/// Ready for both the state-space analysis (via
/// [`expand`](crate::comm_expand::expand)) and the cycle-level simulator
/// (`System::new_with_repetitions` with
/// [`SharedSystem::combined_repetitions`]).
#[derive(Debug, Clone)]
pub struct SharedSystem {
    /// The union graph; actor/channel names are `"{app}.{name}"`.
    pub graph: SdfGraph,
    /// The combined mapping (binding, concatenated schedules, channel
    /// allocations, and the group's guaranteed throughput).
    pub mapping: Mapping,
    /// The member applications, in admission order.
    pub members: Vec<GroupMember>,
    /// The group's worst-case throughput under sharing — one combined
    /// iteration completes one iteration of every member, so this is each
    /// member's guaranteed rate.
    pub analysis: ThroughputResult,
}

impl SharedSystem {
    /// The repetition vector of the union graph: each member's own vector,
    /// concatenated. (The union graph is disconnected, so this cannot be
    /// recomputed from the graph alone; pass it to
    /// `System::new_with_repetitions`.)
    pub fn combined_repetitions(&self) -> Vec<u64> {
        let n = self.graph.actor_count();
        let mut q = vec![0u64; n];
        for m in &self.members {
            for (local, global) in m.actors.clone().enumerate() {
                q[global] = m.q[local];
            }
        }
        q
    }

    /// Completed iterations of member `member` given per-actor firing
    /// counts of the combined graph (e.g. from a simulation measurement).
    pub fn member_iterations(&self, member: usize, firings: &[u64]) -> u64 {
        let m = &self.members[member];
        m.actors
            .clone()
            .enumerate()
            .map(|(local, global)| firings[global] / m.q[local].max(1))
            .min()
            .unwrap_or(0)
    }
}

/// The outcome of mapping a [`UseCase`]: the admitted applications with
/// their per-application guarantees, the rejected ones with structured
/// reasons, the combined executable system of every interference group,
/// and the final resource occupancy.
#[derive(Debug, Clone)]
pub struct UseCaseMapping {
    /// Admitted applications, in admission order.
    pub admitted: Vec<AdmittedApp>,
    /// Rejected applications, in admission order.
    pub rejected: Vec<RejectedApp>,
    /// Interference groups over the admitted applications.
    pub groups: Vec<SharedSystem>,
    /// Resources committed by the admitted applications.
    pub occupancy: Occupancy,
}

impl UseCaseMapping {
    /// True when every application of the use-case was admitted.
    pub fn fully_admitted(&self) -> bool {
        self.rejected.is_empty()
    }
}

/// Maps every application of `uc` onto `arch`, one at a time, verifying
/// all per-application guarantees under sharing after each admission.
///
/// `opts` configures the per-application mapping step (binding strategy,
/// caches); each application's throughput target is its own model
/// constraint.
/// Applications that cannot be admitted are recorded in
/// [`UseCaseMapping::rejected`] — the loop continues with the remaining
/// ones, so a use-case result is always produced.
pub fn map_use_case(uc: &UseCase, arch: &Architecture, opts: &MapOptions) -> UseCaseMapping {
    let mut occupancy = Occupancy::empty(arch.tile_count());
    let mut admitted: Vec<AdmittedApp> = Vec::new();
    let mut rejected: Vec<RejectedApp> = Vec::new();
    let mut groups: Vec<SharedSystem> = Vec::new();

    for (index, app) in uc.apps().iter().enumerate() {
        let name = app.graph().name().to_string();
        let mut app_opts = opts.clone();
        app_opts.bind.occupancy = occupancy.clone();
        let mapped = match map_application(app, arch, &app_opts) {
            Ok(m) => m,
            Err(e) => {
                rejected.push(RejectedApp {
                    index,
                    name,
                    reason: RejectReason::Map(e),
                });
                continue;
            }
        };

        // Buffer-memory admission check: channel buffers live in tile data
        // memory, so the candidate's allocation plus the already-admitted
        // buffers must fit each PE tile's dmem (CA/IP tiles buffer in
        // dedicated NI/CA RAM and are exempt). The binder cannot see the
        // buffers — they are sized after binding — hence the post-hoc
        // check here.
        let cand_buf = mapped
            .mapping
            .buffer_bytes_per_tile(app.graph(), arch.tile_count());
        let overflow = dmem_overflow(arch, |t| occupancy.buf_on(TileId(t)) + cand_buf[t]);
        if let Some((t, need, dmem)) = overflow {
            rejected.push(RejectedApp {
                index,
                name,
                reason: RejectReason::Map(MapError::Infeasible(format!(
                    "channel buffers need {need} bytes of tile {t} data memory \
                     ({dmem} bytes of dmem)"
                ))),
            });
            continue;
        }

        // Trial admission: regroup and re-verify everybody under sharing.
        let mut members: Vec<(&ApplicationModel, &MappedApplication)> = admitted
            .iter()
            .map(|a| (&uc.apps()[a.index], &a.mapped))
            .collect();
        members.push((app, &mapped));
        match verify_shared(&members, &groups, arch, opts) {
            Ok(trial_groups) => {
                if let Some(reason) = first_violation(&members, &trial_groups) {
                    rejected.push(RejectedApp {
                        index,
                        name,
                        reason,
                    });
                    continue;
                }
                // The interference groups deploy *grown* channel
                // allocations — batch-scaled by `combine_group` when
                // members' rounds are fused, and possibly grown further to
                // liveness by the shared analysis — so the buffer bytes
                // that actually land in tile memory are the groups'
                // totals, not the sum of the members' isolation sizings
                // checked above. Re-check the grown allocation against
                // dmem and charge it below.
                let mut grown = vec![0u64; arch.tile_count()];
                for g in &trial_groups {
                    let per_tile = g.mapping.buffer_bytes_per_tile(&g.graph, arch.tile_count());
                    for (t, b) in per_tile.into_iter().enumerate() {
                        grown[t] += b;
                    }
                }
                if let Some((t, need, dmem)) = dmem_overflow(arch, |t| grown[t]) {
                    rejected.push(RejectedApp {
                        index,
                        name,
                        reason: RejectReason::Map(MapError::Infeasible(format!(
                            "shared channel buffers grow to {need} bytes of tile {t} \
                             data memory ({dmem} bytes of dmem)"
                        ))),
                    });
                    continue;
                }
                if let Err(e) = occupancy.occupy(app, &mapped.mapping) {
                    rejected.push(RejectedApp {
                        index,
                        name,
                        reason: RejectReason::Map(e),
                    });
                    continue;
                }
                // The groups partition the admitted applications, so their
                // grown totals replace the isolation-sized buffer charges
                // `occupy` just recorded.
                occupancy.tile_buf = grown;
                admitted.push(AdmittedApp {
                    index,
                    name,
                    mapped,
                    constraint: app.throughput_constraint().map(|c| c.as_ratio()),
                    shared_guarantee: Ratio::ZERO, // refreshed below
                    group: 0,                      // refreshed below
                });
                groups = trial_groups;
                for (gi, g) in groups.iter().enumerate() {
                    for m in &g.members {
                        admitted[m.admitted].shared_guarantee = g.analysis.iterations_per_cycle;
                        admitted[m.admitted].group = gi;
                    }
                }
            }
            Err(reason) => rejected.push(RejectedApp {
                index,
                name,
                reason,
            }),
        }
    }

    UseCaseMapping {
        admitted,
        rejected,
        groups,
        occupancy,
    }
}

/// Partitions `members` into interference groups (transitive tile
/// sharing) and analyses each group's combined system. Groups whose
/// membership is unchanged from `prev` (the groups of the previous
/// admission step) are reused as-is — admitted members' mappings never
/// change, so only the group(s) the candidate merges need the expensive
/// combine + expansion + state-space pass.
fn verify_shared(
    members: &[(&ApplicationModel, &MappedApplication)],
    prev: &[SharedSystem],
    arch: &Architecture,
    opts: &MapOptions,
) -> Result<Vec<SharedSystem>, RejectReason> {
    // Union-find over members keyed by shared tiles.
    let tiles: Vec<BTreeSet<usize>> = members
        .iter()
        .map(|(_, m)| m.mapping.binding.tile_of.iter().map(|t| t.0).collect())
        .collect();
    let mut parent: Vec<usize> = (0..members.len()).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let r = find(parent, parent[i]);
            parent[i] = r;
        }
        parent[i]
    }
    for i in 0..members.len() {
        for j in i + 1..members.len() {
            if !tiles[i].is_disjoint(&tiles[j]) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    let (lo, hi) = (ri.min(rj), ri.max(rj));
                    parent[hi] = lo;
                }
            }
        }
    }
    // Groups in order of their first member.
    let mut roots: Vec<usize> = Vec::new();
    let mut group_members: Vec<Vec<usize>> = Vec::new();
    for i in 0..members.len() {
        let r = find(&mut parent, i);
        match roots.iter().position(|&x| x == r) {
            Some(g) => group_members[g].push(i),
            None => {
                roots.push(r);
                group_members.push(vec![i]);
            }
        }
    }

    let mut groups = Vec::with_capacity(group_members.len());
    for idxs in &group_members {
        // Unchanged membership (same admitted indices, and the candidate —
        // the last member — is not part of it): reuse the analysed system.
        if let Some(g) = prev.iter().find(|g| {
            g.members.len() == idxs.len()
                && g.members.iter().zip(idxs).all(|(m, &i)| m.admitted == i)
        }) {
            groups.push(g.clone());
            continue;
        }
        let selected: Vec<(usize, &ApplicationModel, &MappedApplication)> = idxs
            .iter()
            .map(|&i| (i, members[i].0, members[i].1))
            .collect();
        let (graph, mut mapping, spans) = combine_group(&selected, arch)
            .map_err(|e| RejectReason::SharedAnalysis(e.to_string()))?;
        let analysis = if selected.len() == 1 {
            // Nothing shares these tiles: the isolation analysis is exact.
            selected[0].2.analysis.clone()
        } else {
            // Concatenated (batched) rounds can need more buffer slack
            // than each member's isolation sizing provided; grow the
            // combined allocation to liveness with the mapping flow's
            // phase 1. The simulator deploys the same grown allocation, so
            // the bound stays exact for the shared system. Memoized as the
            // `verify-shared` pass: an unchanged group (same combined graph
            // incl. WCETs, same mapping, same platform) replays its grown
            // allocation and analysis.
            let (grown_channels, analysis) = run_pass(
                &opts.passes,
                "verify-shared",
                || {
                    fingerprint(&[
                        &serde::Value::Int(i128::from(GraphFingerprint::of(&graph).hash())),
                        &mapping.to_value(),
                        &arch.to_value(),
                        &serde::Value::Int(MAX_STATES as i128),
                    ])
                },
                || -> Result<(Vec<ChannelAlloc>, ThroughputResult), RejectReason> {
                    let mut m = mapping.clone();
                    match grow_to_liveness(&graph, &mut m, arch, opts.cache.as_deref()) {
                        Ok(analysis) => Ok((m.channels, analysis)),
                        Err(MapError::Sdf(SdfError::Deadlock(msg))) => {
                            Err(RejectReason::SharedAnalysis(format!(
                                "combined static orders stay deadlocked after {} \
                                 buffer-growth steps: {msg}",
                                DEADLOCK_GROWTH_ATTEMPTS + 1
                            )))
                        }
                        Err(e) => Err(RejectReason::SharedAnalysis(e.to_string())),
                    }
                },
            )?;
            mapping.channels = grown_channels;
            analysis
        };
        mapping.guaranteed_iterations = analysis.iterations_per_cycle.numer().max(0) as u64;
        mapping.guaranteed_cycles = analysis.iterations_per_cycle.denom() as u64;
        groups.push(SharedSystem {
            graph,
            mapping,
            members: spans,
            analysis,
        });
    }
    Ok(groups)
}

/// The first PE tile (master or slave) whose data memory cannot hold the
/// `need(tile index)` bytes of channel buffers, as `(tile index, need,
/// dmem)`. CA and IP tiles buffer in dedicated NI/CA RAM and are exempt.
fn dmem_overflow(arch: &Architecture, need: impl Fn(usize) -> u64) -> Option<(usize, u64, u64)> {
    arch.tiles().iter().enumerate().find_map(|(t, tile)| {
        if !tile.kind().pe_moves_tokens() {
            return None;
        }
        let (need, dmem) = (need(t), tile.dmem_bytes());
        (need > dmem).then_some((t, need, dmem))
    })
}

/// The first per-application constraint the grouped guarantees violate,
/// in deterministic (group, member) order.
fn first_violation(
    members: &[(&ApplicationModel, &MappedApplication)],
    groups: &[SharedSystem],
) -> Option<RejectReason> {
    for g in groups {
        for m in &g.members {
            let (app, _) = members[m.admitted];
            if let Some(required) = app.throughput_constraint().map(|c| c.as_ratio()) {
                if g.analysis.iterations_per_cycle < required {
                    return Some(RejectReason::GuaranteeViolated {
                        victim: app.graph().name().to_string(),
                        required,
                        achieved: g.analysis.iterations_per_cycle,
                    });
                }
            }
        }
    }
    None
}

/// Builds the union graph and combined mapping of one interference group.
///
/// Actor and channel names are prefixed with the application name. Shared
/// tiles concatenate the members' static-order rounds: the per-tile
/// rounds-per-iteration of the combined mapping is the gcd of the
/// members' counts, and each member's round is batched by the matching
/// factor so every actor appears exactly once per combined round (the
/// static-order encoding requires batched orders).
fn combine_group(
    members: &[(usize, &ApplicationModel, &MappedApplication)],
    arch: &Architecture,
) -> Result<(SdfGraph, Mapping, Vec<GroupMember>), MapError> {
    let name = members
        .iter()
        .map(|(_, app, _)| app.graph().name())
        .collect::<Vec<_>>()
        .join("+");
    let mut b = SdfGraphBuilder::new(name);
    let mut spans: Vec<GroupMember> = Vec::with_capacity(members.len());
    let mut tile_of = Vec::new();
    let mut processor_of = Vec::new();
    let mut wcet_of = Vec::new();
    let mut channels = Vec::new();

    let mut a0 = 0usize;
    let mut c0 = 0usize;
    for &(admitted, app, mapped) in members {
        let g = app.graph();
        let prefix = g.name();
        // The expansion charges the combined binding's times; the graph
        // carries them too, because its fingerprint keys `verify-shared`.
        for (aid, actor) in g.actors() {
            b.add_actor(
                format!("{prefix}.{}", actor.name()),
                mapped.mapping.binding.wcet_of[aid.0],
            );
        }
        for (_, ch) in g.channels() {
            b.add_channel_full(
                format!("{prefix}.{}", ch.name()),
                ActorId(a0 + ch.src().0),
                ch.production_rate(),
                ActorId(a0 + ch.dst().0),
                ch.consumption_rate(),
                ch.initial_tokens(),
                ch.token_size(),
            );
        }
        tile_of.extend_from_slice(&mapped.mapping.binding.tile_of);
        processor_of.extend_from_slice(&mapped.mapping.binding.processor_of);
        wcet_of.extend_from_slice(&mapped.mapping.binding.wcet_of);
        channels.extend_from_slice(&mapped.mapping.channels);
        let q = repetition_vector(g)?;
        spans.push(GroupMember {
            admitted,
            actors: a0..a0 + g.actor_count(),
            channels: c0..c0 + g.channel_count(),
            q: q.entries().to_vec(),
        });
        a0 += g.actor_count();
        c0 += g.channel_count();
    }
    let graph = b.build()?;

    // Per-tile schedules: members' rounds in admission order, batched to
    // the gcd of their rounds-per-iteration counts (the static-order
    // constraint encoding requires each actor to appear once per round).
    let tiles = arch.tile_count();
    let mut schedules: Vec<Vec<ScheduleEntry>> = vec![Vec::new(); tiles];
    let mut rounds: Vec<u64> = vec![1; tiles];
    // Batch factor per (member, tile): how many of the member's own
    // rounds are fused into one combined round on that tile.
    let mut batch_of: Vec<Vec<u64>> = vec![vec![1; tiles]; members.len()];
    for t in 0..tiles {
        let active: Vec<usize> = members
            .iter()
            .enumerate()
            .filter(|(_, (_, _, m))| !m.mapping.schedules[t].is_empty())
            .map(|(i, _)| i)
            .collect();
        if active.is_empty() {
            continue;
        }
        let g = active
            .iter()
            .map(|&i| members[i].2.mapping.rounds_per_iteration[t])
            .fold(0, gcd)
            .max(1);
        rounds[t] = g;
        for &i in &active {
            let (_, _, m) = members[i];
            let batch = m.mapping.rounds_per_iteration[t] / g;
            batch_of[i][t] = batch;
            let span = &spans[i];
            for entry in &m.mapping.schedules[t] {
                schedules[t].push(match *entry {
                    ScheduleEntry::Fire { actor, reps } => ScheduleEntry::Fire {
                        actor: ActorId(span.actors.start + actor.0),
                        reps: reps * batch,
                    },
                    ScheduleEntry::Send { channel, reps } => ScheduleEntry::Send {
                        channel: ChannelId(span.channels.start + channel.0),
                        reps: reps * batch,
                    },
                    ScheduleEntry::Receive { channel, reps } => ScheduleEntry::Receive {
                        channel: ChannelId(span.channels.start + channel.0),
                        reps: reps * batch,
                    },
                });
            }
        }
    }

    // Fusing a member's rounds moves proportionally more tokens per
    // combined round, so the member's buffer slack must scale with the
    // batch factor of the channel's endpoint tiles — otherwise a batched
    // round deadlocks at the isolation-sized allocation (e.g. a q=10
    // actor alone on a tile, fused from 10 rounds into 1, suddenly needs
    // 10 tokens of downstream space at once).
    for (i, &(_, app, _)) in members.iter().enumerate() {
        let span = &spans[i];
        for (cid, ch) in app.graph().channels() {
            let src_tile = tile_of[span.actors.start + ch.src().0];
            let dst_tile = tile_of[span.actors.start + ch.dst().0];
            let factor = batch_of[i][src_tile.0].max(batch_of[i][dst_tile.0]);
            if factor > 1 {
                let c = &mut channels[span.channels.start + cid.0];
                let d0 = ch.initial_tokens();
                c.alpha_src = d0 + (c.alpha_src - d0.min(c.alpha_src)) * factor;
                c.alpha_dst *= factor;
                c.local_capacity *= factor;
            }
        }
    }

    let mapping = Mapping {
        binding: Binding {
            tile_of,
            processor_of,
            wcet_of,
        },
        schedules,
        rounds_per_iteration: rounds,
        channels,
        guaranteed_iterations: 0,
        guaranteed_cycles: 1,
    };
    Ok((graph, mapping, spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamps_platform::interconnect::Interconnect;
    use mamps_sdf::graph::SdfGraphBuilder;
    use mamps_sdf::model::{HomogeneousModelBuilder, ThroughputConstraint};

    fn pipeline_app(
        name: &str,
        wcets: &[u64],
        constraint: Option<ThroughputConstraint>,
    ) -> ApplicationModel {
        let n = wcets.len();
        let mut b = SdfGraphBuilder::new(name);
        let ids: Vec<_> = (0..n)
            .map(|i| b.add_actor(format!("{name}_a{i}"), 1))
            .collect();
        for i in 0..n - 1 {
            b.add_channel_full(format!("{name}_e{i}"), ids[i], 1, ids[i + 1], 1, 0, 16);
        }
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        for (i, &w) in wcets.iter().enumerate() {
            mb.actor(format!("{name}_a{i}"), w, 4096, 512);
        }
        mb.finish(g, constraint).unwrap()
    }

    #[test]
    fn two_apps_admitted_on_shared_platform() {
        let uc = UseCase::new(vec![
            pipeline_app("alpha", &[100, 100], None),
            pipeline_app("beta", &[50, 50], None),
        ])
        .unwrap();
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let r = map_use_case(&uc, &arch, &MapOptions::default());
        assert!(r.fully_admitted(), "rejections: {:?}", r.rejected);
        assert_eq!(r.admitted.len(), 2);
        // Both apps span both tiles -> one interference group.
        assert_eq!(r.groups.len(), 1);
        let g = &r.groups[0];
        assert_eq!(g.members.len(), 2);
        assert!(g.analysis.as_f64() > 0.0);
        // Shared guarantee can only be at or below each isolation bound.
        for a in &r.admitted {
            assert!(a.shared_guarantee <= a.mapped.analysis.iterations_per_cycle);
            assert_eq!(a.shared_guarantee, g.analysis.iterations_per_cycle);
        }
        // Occupancy recorded both applications' memory.
        assert!(r.occupancy.tile_mem.iter().sum::<u64>() > 0);
    }

    #[test]
    fn disjoint_apps_keep_isolation_guarantee() {
        // Two single-actor apps pinned to different tiles via admission
        // order on a 2-tile platform: greedy places the first app's two
        // actors... use 1-actor apps so each fits one tile.
        let uc = UseCase::new(vec![
            pipeline_app("solo1", &[100, 100], None),
            pipeline_app("solo2", &[100, 100], None),
        ])
        .unwrap();
        let arch = Architecture::homogeneous("x", 4, Interconnect::fsl()).unwrap();
        let r = map_use_case(&uc, &arch, &MapOptions::default());
        assert!(r.fully_admitted(), "rejections: {:?}", r.rejected);
        if r.groups.len() == 2 {
            for a in &r.admitted {
                assert_eq!(a.shared_guarantee, a.mapped.analysis.iterations_per_cycle);
            }
        }
    }

    #[test]
    fn infeasible_constraint_rejected_with_map_reason() {
        let uc = UseCase::new(vec![
            pipeline_app("ok", &[100, 100], None),
            pipeline_app(
                "greedyapp",
                &[1000, 1000],
                Some(ThroughputConstraint {
                    iterations: 1,
                    cycles: 10,
                }),
            ),
        ])
        .unwrap();
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let r = map_use_case(&uc, &arch, &MapOptions::default());
        assert_eq!(r.admitted.len(), 1);
        assert_eq!(r.rejected.len(), 1);
        let rej = &r.rejected[0];
        assert_eq!(rej.name, "greedyapp");
        assert!(matches!(
            rej.reason,
            RejectReason::Map(MapError::ConstraintUnmet(_))
        ));
        assert!(rej.reason.to_string().contains("mapping failed"));
    }

    #[test]
    fn admission_protects_admitted_guarantees() {
        // App 1 needs exactly its isolated bound on the single tile; any
        // sharing breaks it, so app 2 must be rejected with app 1 as the
        // victim.
        let uc = UseCase::new(vec![
            pipeline_app(
                "tight",
                &[50, 50],
                Some(ThroughputConstraint {
                    iterations: 1,
                    cycles: 100,
                }),
            ),
            pipeline_app("intruder", &[10, 10], None),
        ])
        .unwrap();
        let arch = Architecture::homogeneous("x", 1, Interconnect::fsl()).unwrap();
        let r = map_use_case(&uc, &arch, &MapOptions::default());
        assert_eq!(r.admitted.len(), 1);
        assert_eq!(r.admitted[0].name, "tight");
        assert_eq!(r.rejected.len(), 1);
        match &r.rejected[0].reason {
            RejectReason::GuaranteeViolated {
                victim, required, ..
            } => {
                assert_eq!(victim, "tight");
                assert_eq!(*required, Ratio::new(1, 100));
            }
            other => panic!("expected GuaranteeViolated, got {other:?}"),
        }
    }

    #[test]
    fn rejection_reasons_are_deterministic() {
        let mk = || {
            UseCase::new(vec![
                pipeline_app("a1", &[80, 80], None),
                pipeline_app(
                    "a2",
                    &[500, 500],
                    Some(ThroughputConstraint {
                        iterations: 1,
                        cycles: 5,
                    }),
                ),
            ])
            .unwrap()
        };
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let r1 = map_use_case(&mk(), &arch, &MapOptions::default());
        let r2 = map_use_case(&mk(), &arch, &MapOptions::default());
        let render = |r: &UseCaseMapping| -> Vec<String> {
            r.rejected
                .iter()
                .map(|x| format!("{}: {}", x.name, x.reason))
                .collect()
        };
        assert_eq!(render(&r1), render(&r2));
        assert!(!render(&r1).is_empty());
    }

    #[test]
    fn combined_system_matches_member_spans() {
        let uc = UseCase::new(vec![
            pipeline_app("p", &[60, 60], None),
            pipeline_app("q", &[30, 30, 30], None),
        ])
        .unwrap();
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let r = map_use_case(&uc, &arch, &MapOptions::default());
        assert!(r.fully_admitted());
        let g = &r.groups[0];
        assert_eq!(g.graph.actor_count(), 5);
        assert_eq!(g.members[0].actors, 0..2);
        assert_eq!(g.members[1].actors, 2..5);
        let q = g.combined_repetitions();
        assert_eq!(q, vec![1; 5]);
        // Prefixed names resolve.
        assert!(g.graph.actor_by_name("p.p_a0").is_some());
        assert!(g.graph.actor_by_name("q.q_a2").is_some());
        // Validate the combined mapping structurally: every actor fired by
        // its tile's schedule.
        for m in &g.members {
            for a in m.actors.clone() {
                let t = g.mapping.binding.tile_of[a];
                assert!(g.mapping.schedules[t.0]
                    .iter()
                    .any(|e| matches!(e, ScheduleEntry::Fire { actor, .. } if actor.0 == a)));
            }
        }
    }

    #[test]
    fn admission_fails_on_buffer_memory() {
        // Two actors sharing one tile over a fat-token channel: the actor
        // footprints fit easily (a few KiB), but the channel buffer alone
        // (≥ 1 token × 140 000 bytes) exceeds the tile's 128 KiB dmem.
        // Before buffer accounting this use-case was admitted — the
        // regression this test pins down.
        let mut b = SdfGraphBuilder::new("fat");
        let x = b.add_actor("fx", 1);
        let y = b.add_actor("fy", 1);
        b.add_channel_full("fe", x, 1, y, 1, 0, 140_000);
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        mb.actor("fx", 50, 2048, 256).actor("fy", 50, 2048, 256);
        let fat = mb.finish(g, None).unwrap();
        let arch = Architecture::homogeneous("x", 1, Interconnect::fsl()).unwrap();

        let uc = UseCase::new(vec![fat.clone()]).unwrap();
        let r = map_use_case(&uc, &arch, &MapOptions::default());
        assert!(r.admitted.is_empty());
        assert_eq!(r.rejected.len(), 1);
        match &r.rejected[0].reason {
            RejectReason::Map(MapError::Infeasible(m)) => {
                assert!(m.contains("channel buffers"), "{m}");
                assert!(m.contains("data memory"), "{m}");
            }
            other => panic!("expected a buffer-memory Infeasible reason, got {other:?}"),
        }

        // The same graph with small tokens is admitted, and its buffer
        // bytes are charged against the tile.
        let mut b = SdfGraphBuilder::new("thin");
        let x = b.add_actor("tx", 1);
        let y = b.add_actor("ty", 1);
        b.add_channel_full("te", x, 1, y, 1, 0, 16);
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        mb.actor("tx", 50, 2048, 256).actor("ty", 50, 2048, 256);
        let thin = mb.finish(g, None).unwrap();
        let uc = UseCase::new(vec![thin]).unwrap();
        let r = map_use_case(&uc, &arch, &MapOptions::default());
        assert_eq!(r.admitted.len(), 1);
        assert!(
            r.occupancy.tile_buf.iter().sum::<u64>() > 0,
            "admitted channel buffers must be charged: {:?}",
            r.occupancy
        );
    }

    #[test]
    fn admitted_buffers_shrink_the_residual_for_later_apps() {
        // App 1's 70 000-byte buffer eats half of tile 0's dmem; app 2's actors would
        // fit by implementation footprint alone, but the combined buffer
        // bytes cannot — so charging buffers against the residual must
        // reject it on the single tile.
        let fat_app = |name: &str, token: u64| {
            let mut b = SdfGraphBuilder::new(name);
            let x = b.add_actor(format!("{name}x"), 1);
            let y = b.add_actor(format!("{name}y"), 1);
            b.add_channel_full(format!("{name}e"), x, 1, y, 1, 0, token);
            let g = b.build().unwrap();
            let mut mb = HomogeneousModelBuilder::new("microblaze");
            mb.actor(format!("{name}x"), 50, 1024, 128)
                .actor(format!("{name}y"), 50, 1024, 128);
            mb.finish(g, None).unwrap()
        };
        let arch = Architecture::homogeneous("x", 1, Interconnect::fsl()).unwrap();
        let uc = UseCase::new(vec![fat_app("first", 70_000), fat_app("second", 70_000)]).unwrap();
        let r = map_use_case(&uc, &arch, &MapOptions::default());
        assert_eq!(
            r.admitted
                .iter()
                .map(|a| a.name.as_str())
                .collect::<Vec<_>>(),
            vec!["first"],
            "rejections: {:?}",
            r.rejected
        );
        assert_eq!(r.rejected.len(), 1);
        assert_eq!(r.rejected[0].name, "second");
        assert!(
            r.rejected[0].reason.to_string().contains("buffer")
                || r.rejected[0].reason.to_string().contains("infeasible"),
            "unexpected reason: {}",
            r.rejected[0].reason
        );
    }

    /// `f0 --(prod 2, cons 1)--> f1` gives q = [1, 2]; with f1 alone on
    /// its tile, that tile runs 2 rounds per iteration in isolation.
    fn multirate_app(name: &str, token: u64) -> ApplicationModel {
        let mut b = SdfGraphBuilder::new(name);
        let f0 = b.add_actor(format!("{name}0"), 1);
        let f1 = b.add_actor(format!("{name}1"), 1);
        b.add_channel_full(format!("{name}e"), f0, 2, f1, 1, 0, token);
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        mb.actor(format!("{name}0"), 100, 4096, 512)
            .actor(format!("{name}1"), 10, 4096, 512);
        mb.finish(g, None).unwrap()
    }

    #[test]
    fn admission_charges_grown_group_buffers() {
        // App G joins f1's tile, forcing the combined round count down to
        // gcd(2, 1) = 1: f1's two rounds are fused into one, and
        // `combine_group` batch-scales the f0→f1 buffer allocation to
        // keep the fused round live. The *grown* allocation is what the
        // simulator deploys, so admission must charge it — before this
        // check the occupancy recorded only the isolation sizing and a
        // later app could overflow the tile's data memory.
        let uc =
            UseCase::new(vec![multirate_app("f", 16), pipeline_app("g", &[60], None)]).unwrap();
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let r = map_use_case(&uc, &arch, &MapOptions::default());
        assert!(r.fully_admitted(), "rejections: {:?}", r.rejected);

        // The shared group must actually batch: some channel allocation
        // grew past its isolation sizing.
        let g = &r.groups[r.admitted[0].group];
        assert!(g.members.len() == 2, "apps did not share a tile: {r:?}");
        let iso = &r.admitted[0].mapped.mapping.channels;
        let span = &g.members[0].channels;
        assert!(
            (span.clone()).any(|c| {
                let grown = g.mapping.channels[c];
                let i = iso[c - span.start];
                grown.alpha_src > i.alpha_src
                    || grown.alpha_dst > i.alpha_dst
                    || grown.local_capacity > i.local_capacity
            }),
            "expected a batch-scaled channel allocation"
        );

        // Occupancy records the grown group totals, not the isolation sums.
        let tiles = arch.tile_count();
        let mut grown = vec![0u64; tiles];
        for g in &r.groups {
            for (t, b) in g
                .mapping
                .buffer_bytes_per_tile(&g.graph, tiles)
                .into_iter()
                .enumerate()
            {
                grown[t] += b;
            }
        }
        assert_eq!(r.occupancy.tile_buf, grown);
        let isolation: u64 = r
            .admitted
            .iter()
            .map(|a| {
                let app = &uc.apps()[a.index];
                a.mapped
                    .mapping
                    .buffer_bytes_per_tile(app.graph(), tiles)
                    .iter()
                    .sum::<u64>()
            })
            .sum();
        assert!(
            grown.iter().sum::<u64>() > isolation,
            "grown {grown:?} should exceed isolation total {isolation}"
        );
    }

    #[test]
    fn admission_rejects_when_grown_buffers_overflow_dmem() {
        // With fat tokens the isolation sizing fits the 128 KiB dmem but
        // the batch-scaled shared allocation does not: the candidate that
        // triggers the growth must be rejected, not silently admitted
        // with an over-committed tile.
        let uc = UseCase::new(vec![
            multirate_app("f", 30_000),
            pipeline_app("g", &[60], None),
        ])
        .unwrap();
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let r = map_use_case(&uc, &arch, &MapOptions::default());
        assert_eq!(r.admitted.len(), 1, "rejections: {:?}", r.rejected);
        assert_eq!(r.admitted[0].name, "f");
        assert_eq!(r.rejected.len(), 1);
        let reason = r.rejected[0].reason.to_string();
        assert!(
            reason.contains("grow") && reason.contains("data memory"),
            "unexpected reason: {reason}"
        );
    }

    #[test]
    fn use_case_rejects_duplicate_names() {
        let a = pipeline_app("same", &[10, 10], None);
        let b = pipeline_app("same", &[20, 20], None);
        assert!(matches!(
            UseCase::new(vec![a, b]),
            Err(MapError::Infeasible(_))
        ));
        assert!(matches!(
            UseCase::new(Vec::new()),
            Err(MapError::Infeasible(_))
        ));
    }
}
