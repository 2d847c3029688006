//! Design-space exploration (paper §7 lists improved automated DSE as
//! future work; this module provides the straightforward sweep the flow's
//! speed enables: "designers \[can\] perform a very fast design space
//! exploration").
//!
//! The sweep is three-dimensional: tile counts × interconnects × *binding
//! strategies* ([`mamps_mapping::strategy`]). Every design point records
//! which strategy produced it, so Pareto fronts can be read per strategy —
//! e.g. a `spiral` point that ties `greedy` throughput at fewer allocated
//! NoC wire-links. Design points are independent flow runs that stop
//! after the boot run, with the platform checked but no project
//! rendered, so [`explore_report`] evaluates them concurrently when
//! [`FlowOptions::jobs`] asks for it: [`crate::parallel::dynamic_map`]
//! workers claim one point at a time, and the result is point-for-point
//! identical to the sequential sweep.
//! Infeasible points are not silently discarded: they come back as
//! [`SkippedPoint`]s naming the strategy and the failing flow step,
//! surfaced by `mamps dse` and [`crate::report::render_dse_report`].
//!
//! # Sharding a sweep across processes
//!
//! Beyond one host, the design-point space can be split across processes
//! or machines with [`shard`]: every result type serializes to JSON lines
//! (via the workspace's vendored value-based serde), a deterministic
//! [`shard::ShardSpec`] partitioner — an argument of
//! [`shard::Sweep::run`] — assigns each process a disjoint slice of the
//! sweep, and [`shard::merge_reports`] reassembles the partial results
//! into the very shard an unsharded run would have produced; rendering it
//! recomputes the global Pareto front per strategy across shards. Merging
//! is exact: the merged report compares equal (and renders byte-for-byte
//! identical) to the unsharded sweep on the same inputs.
//!
//! ```
//! use mamps_core::dse::{explore_report, shard};
//! use mamps_core::dse::shard::{DseShard, ShardSpec, Sweep, SweepMode};
//! use mamps_core::flow::FlowOptions;
//! use mamps_sdf::graph::SdfGraphBuilder;
//! use mamps_sdf::model::HomogeneousModelBuilder;
//!
//! let mut b = SdfGraphBuilder::new("doc");
//! let x = b.add_actor("x", 1);
//! let y = b.add_actor("y", 1);
//! b.add_channel("e", x, 1, y, 1);
//! let graph = b.build().unwrap();
//! let mut mb = HomogeneousModelBuilder::new("microblaze");
//! mb.actor("x", 40, 2048, 256).actor("y", 70, 2048, 256);
//! let app = mb.finish(graph, None).unwrap();
//!
//! // A 2-point sweep (tile counts 1 and 2, FSL only), unsharded...
//! let opts = FlowOptions::default();
//! let full = explore_report(&app, &[1, 2], false, &opts);
//!
//! // ...and the same sweep split across two shards, then merged. Each
//! // shard evaluates only the design points its `ShardSpec` owns, and
//! // could run in a different process (`mamps dse --shard i/n`), with
//! // the JSON-lines files carrying the results in between.
//! let sweep = Sweep::new(SweepMode::Binders, vec![app], &[1, 2], false, Vec::new()).unwrap();
//! let shards: Vec<_> = (0..2)
//!     .map(|i| {
//!         let s = sweep.run(ShardSpec::new(i, 2).unwrap(), &[], &opts).unwrap();
//!         DseShard::from_jsonl(&s.to_jsonl()).unwrap() // round-trip
//!     })
//!     .collect();
//! let merged = shard::merge_reports(&shards).unwrap();
//! assert_eq!(merged.into_dse_report(), full);
//! ```

pub mod cache;
pub mod lease;
pub mod shard;

use mamps_mapping::Binder;
use mamps_platform::arch::Architecture;
use mamps_platform::area::platform_area;
use mamps_platform::interconnect::Interconnect;
use mamps_sdf::model::ApplicationModel;
use serde::{Deserialize, Serialize};

use crate::flow::{check_flow, FlowError, FlowOptions, AUTO_ARCH_NAME};

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DsePoint {
    /// Tile count.
    pub tiles: usize,
    /// Interconnect kind (`"fsl"` / `"noc"`).
    pub interconnect: &'static str,
    /// Binding strategy that produced the mapping.
    pub strategy: &'static str,
    /// Guaranteed throughput (iterations/cycle).
    pub guaranteed: f64,
    /// Total platform slices (area model).
    pub slices: u64,
    /// Allocated NoC wire-links (SDM wires × route hops; 0 on FSL).
    pub wire_units: u64,
    /// Work units (WCET × repetitions per iteration) placed on each tile
    /// by the binding — the load-balance picture of the design point.
    pub per_tile_load: Vec<u64>,
}

/// A design point the flow could not map, with the reason it failed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SkippedPoint {
    /// Tile count.
    pub tiles: usize,
    /// Interconnect kind (`"fsl"` / `"noc"`).
    pub interconnect: &'static str,
    /// Binding strategy that was attempted.
    pub strategy: &'static str,
    /// Rendered flow error (which step failed and why).
    pub reason: String,
}

/// Outcome of a design-space sweep: the feasible points plus every skipped
/// configuration with its reason. Each entry — kept or skipped — is
/// attributed to the binding strategy that produced it.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DseReport {
    /// Feasible points, sorted by descending guaranteed throughput
    /// (ties: fewer slices, then fewer wire-links first).
    pub points: Vec<DsePoint>,
    /// Infeasible configurations in sweep order.
    pub skipped: Vec<SkippedPoint>,
}

/// One platform configuration of a sweep: tile count, interconnect (its
/// [`Interconnect::kind_name`] names it in reports) and binding strategy.
pub(crate) type SweepConfig = (usize, Interconnect, Binder);

/// Runs the flow for one sweep configuration on the architecture
/// [`crate::flow::run_flow`] would generate, through the boot run. The
/// project is never rendered: a point needs only the verdict, and the
/// platform check raises every generation error the render could meet.
pub(crate) fn evaluate_dse_config(
    app: &ApplicationModel,
    (tiles, ic, strategy): &SweepConfig,
    opts: &FlowOptions,
) -> Result<DsePoint, SkippedPoint> {
    let mut point_opts = opts.clone();
    point_opts.map.bind.strategy = *strategy;
    let verdict = Architecture::homogeneous(AUTO_ARCH_NAME, *tiles, *ic)
        .map_err(FlowError::from)
        .and_then(|arch| Ok((check_flow(app, &arch, &point_opts)?.mapped, arch)));
    match verdict {
        Ok((mapped, arch)) => {
            let binding = &mapped.mapping.binding;
            let cross_links = app
                .graph()
                .channels()
                .filter(|(_, c)| binding.cross_tiles(c).is_some())
                .count();
            let area = platform_area(&arch, cross_links);
            let mut per_tile_load = vec![0u64; arch.tile_count()];
            if let Ok(q) = mamps_sdf::repetition::repetition_vector(app.graph()) {
                for (aid, _) in app.graph().actors() {
                    per_tile_load[binding.tile_of[aid.0].0] += binding.wcet_of[aid.0] * q.of(aid);
                }
            }
            Ok(DsePoint {
                tiles: *tiles,
                interconnect: ic.kind_name(),
                strategy: mapped.strategy,
                guaranteed: mapped.analysis.as_f64(),
                slices: area.total.slices,
                wire_units: mapped.mapping.noc_wire_units(app.graph(), &arch),
                per_tile_load,
            })
        }
        Err(e) => Err(SkippedPoint {
            tiles: *tiles,
            interconnect: ic.kind_name(),
            strategy: strategy.name(),
            reason: e.to_string(),
        }),
    }
}

/// The final ordering of a DSE report's feasible points.
pub(crate) fn sort_dse_points(points: &mut [DsePoint]) {
    points.sort_by(|a, b| {
        b.guaranteed
            .partial_cmp(&a.guaranteed)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.slices.cmp(&b.slices))
            .then(a.wire_units.cmp(&b.wire_units))
    });
}

/// Sweeps tile counts × interconnects × binding strategies, recording both
/// feasible and skipped design points. The strategies come from
/// [`FlowOptions::binders`]; when that is empty greedy alone is swept.
/// `opts.jobs > 1` evaluates independent design points concurrently with
/// identical results. To shard or resume the sweep, run it through
/// [`shard::Sweep::run`].
///
/// # Panics
///
/// When `tile_counts` is empty or holds a count outside `1..=4096`.
pub fn explore_report(
    app: &ApplicationModel,
    tile_counts: &[usize],
    include_noc: bool,
    opts: &FlowOptions,
) -> DseReport {
    shard::explore_shard(app, tile_counts, include_noc, opts).into_dse_report()
}

// ---------------------------------------------------------------------------
// Use-case sweeps
// ---------------------------------------------------------------------------

/// One evaluated use-case design point: which applications of the
/// use-case fit on this platform configuration, and with what guarantees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UseCasePoint {
    /// Tile count.
    pub tiles: usize,
    /// Interconnect kind (`"fsl"` / `"noc"`).
    pub interconnect: &'static str,
    /// Binding strategy used by the admission loop.
    pub strategy: &'static str,
    /// Names of the admitted applications, in admission order.
    pub admitted: Vec<String>,
    /// Rejected applications with their structured reasons, in admission
    /// order.
    pub rejected: Vec<(String, String)>,
    /// The lowest shared guarantee among the admitted applications
    /// (iterations/cycle; 0 when nothing was admitted).
    pub min_guarantee: f64,
    /// Total platform slices (area model).
    pub slices: u64,
}

/// Outcome of a use-case sweep over tile counts × interconnects ×
/// binding strategies.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct UseCaseDseReport {
    /// Points sorted by admitted count (descending), then lowest shared
    /// guarantee (descending), then slices (ascending).
    pub points: Vec<UseCasePoint>,
}

/// A use-case prepared for per-configuration evaluation: either the
/// validated [`UseCase`](mamps_mapping::multi::UseCase), or — when the
/// application list itself is invalid (duplicate names; an empty list is
/// no sweep at all) — the rejection every configuration reports.
pub(crate) enum UseCaseContext {
    Ready(mamps_mapping::multi::UseCase),
    Invalid(Vec<(String, String)>),
}

/// Builds (and validates) the use-case once, outside the per-point
/// fan-out; the use-case is configuration-independent.
pub(crate) fn use_case_context(apps: &[ApplicationModel]) -> UseCaseContext {
    match mamps_mapping::multi::UseCase::new(apps.to_vec()) {
        Ok(uc) => UseCaseContext::Ready(uc),
        Err(e) => UseCaseContext::Invalid(
            apps.iter()
                .map(|a| (a.graph().name().to_string(), e.to_string()))
                .collect(),
        ),
    }
}

/// Runs the admission loop for one sweep configuration.
pub(crate) fn evaluate_use_case_config(
    apps: &[ApplicationModel],
    ctx: &UseCaseContext,
    (tiles, ic, strategy): &SweepConfig,
    opts: &FlowOptions,
) -> UseCasePoint {
    use mamps_mapping::multi::map_use_case;

    let mut point = UseCasePoint {
        tiles: *tiles,
        interconnect: ic.kind_name(),
        strategy: strategy.name(),
        admitted: Vec::new(),
        rejected: Vec::new(),
        min_guarantee: 0.0,
        slices: 0,
    };
    let uc = match ctx {
        UseCaseContext::Ready(uc) => uc,
        UseCaseContext::Invalid(reject_all) => {
            point.rejected = reject_all.clone();
            return point;
        }
    };
    let arch = match Architecture::homogeneous(AUTO_ARCH_NAME, *tiles, *ic) {
        Ok(a) => a,
        Err(e) => {
            point.rejected = apps
                .iter()
                .map(|a| (a.graph().name().to_string(), format!("architecture: {e}")))
                .collect();
            return point;
        }
    };
    let mut map_opts = opts.map.clone();
    map_opts.bind.strategy = *strategy;
    let outcome = map_use_case(uc, &arch, &map_opts);
    point.admitted = outcome.admitted.iter().map(|a| a.name.clone()).collect();
    point.rejected = outcome
        .rejected
        .iter()
        .map(|r| (r.name.clone(), r.reason.to_string()))
        .collect();
    point.min_guarantee = outcome
        .admitted
        .iter()
        .map(|a| a.shared_guarantee.to_f64())
        .fold(f64::INFINITY, f64::min);
    if !point.min_guarantee.is_finite() {
        point.min_guarantee = 0.0;
    }
    let cross_links: usize = outcome
        .admitted
        .iter()
        .map(|a| {
            let g = uc.apps()[a.index].graph();
            let binding = &a.mapped.mapping.binding;
            g.channels()
                .filter(|(_, c)| binding.cross_tiles(c).is_some())
                .count()
        })
        .sum();
    point.slices = platform_area(&arch, cross_links).total.slices;
    point
}

/// The final ordering of a use-case report's points.
pub(crate) fn sort_use_case_points(points: &mut [UseCasePoint]) {
    points.sort_by(|a, b| {
        b.admitted
            .len()
            .cmp(&a.admitted.len())
            .then(
                b.min_guarantee
                    .partial_cmp(&a.min_guarantee)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(a.slices.cmp(&b.slices))
            .then(a.tiles.cmp(&b.tiles))
    });
}

/// Sweeps platform configurations for a whole use-case: for every tile
/// count × interconnect × binding strategy, the admission loop
/// ([`mamps_mapping::multi::map_use_case`]) decides which subset of
/// `apps` fits with every per-application guarantee intact. Strategies
/// come from [`FlowOptions::binders`] (greedy alone when empty), and
/// `opts.jobs > 1` evaluates configurations concurrently with identical
/// results.
///
/// # Panics
///
/// When `apps` or `tile_counts` is empty, or `tile_counts` holds a count
/// outside `1..=4096`.
pub fn explore_use_cases(
    apps: &[ApplicationModel],
    tile_counts: &[usize],
    include_noc: bool,
    opts: &FlowOptions,
) -> UseCaseDseReport {
    shard::explore_sweep(
        shard::SweepMode::UseCases,
        apps.to_vec(),
        tile_counts,
        include_noc,
        opts,
    )
    .into_use_case_report()
}

/// The Pareto front of `points` over (throughput up, slices down).
///
/// Single sort by descending throughput plus a sweep with a running
/// slice minimum — O(n log n) instead of the all-pairs scan — with the
/// exact tie semantics of the quadratic definition: a point is dominated
/// iff some point has strictly higher throughput at no more slices, or at
/// least equal throughput with strictly fewer slices. Equal (throughput,
/// slices) duplicates are all kept, and the input order is preserved.
pub fn pareto_front(points: &[DsePoint]) -> Vec<DsePoint> {
    // NaN throughputs compare false against everything, so such points are
    // never dominated and dominate nothing: keep them out of the sweep
    // entirely. This also keeps the sort comparator a total order.
    let mut order: Vec<usize> = (0..points.len())
        .filter(|&i| !points[i].guaranteed.is_nan())
        .collect();
    order.sort_by(|&a, &b| {
        points[b]
            .guaranteed
            .partial_cmp(&points[a].guaranteed)
            .expect("NaN throughputs were filtered out")
    });

    let mut dominated = vec![false; points.len()];
    // Minimum slices over every point with strictly higher throughput than
    // the group currently being swept.
    let mut min_higher = u64::MAX;
    let mut i = 0;
    while i < order.len() {
        let g = points[order[i]].guaranteed;
        // Gather the group of equal-throughput points and its slice minimum.
        let mut j = i;
        let mut min_group = u64::MAX;
        while j < order.len() && points[order[j]].guaranteed == g {
            min_group = min_group.min(points[order[j]].slices);
            j += 1;
        }
        for &idx in &order[i..j] {
            let s = points[idx].slices;
            if min_higher <= s || min_group < s {
                dominated[idx] = true;
            }
        }
        min_higher = min_higher.min(min_group);
        i = j;
    }

    points
        .iter()
        .enumerate()
        .filter(|&(idx, _)| !dominated[idx])
        .map(|(_, p)| p.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamps_sdf::graph::SdfGraphBuilder;
    use mamps_sdf::model::HomogeneousModelBuilder;

    pub(crate) fn app() -> ApplicationModel {
        chain_app(2048)
    }

    /// [`app`] with actors of 100 KiB instruction memory. A tile holds
    /// 256 KiB of instruction and data memory, so two actors fit and
    /// three do not: every 1-tile point is skipped.
    pub(crate) fn app_needing_two_tiles() -> ApplicationModel {
        chain_app(100 * 1024)
    }

    /// A chain of three unit-rate 100-cycle actors with `imem` bytes of
    /// instruction memory each.
    fn chain_app(imem: u64) -> ApplicationModel {
        let mut b = SdfGraphBuilder::new("a");
        let ids: Vec<_> = (0..3).map(|i| b.add_actor(format!("a{i}"), 1)).collect();
        for i in 0..2 {
            b.add_channel_full(format!("e{i}"), ids[i], 1, ids[i + 1], 1, 0, 16);
        }
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        for i in 0..3 {
            mb.actor(format!("a{i}"), 100, imem, 256);
        }
        mb.finish(g, None).unwrap()
    }

    fn point(guaranteed: f64, slices: u64) -> DsePoint {
        DsePoint {
            tiles: 1,
            interconnect: "fsl",
            strategy: "greedy",
            guaranteed,
            slices,
            wire_units: 0,
            per_tile_load: Vec::new(),
        }
    }

    /// The original O(n²) definition, kept as the oracle for the sweep.
    fn pareto_front_naive(points: &[DsePoint]) -> Vec<DsePoint> {
        let mut front: Vec<DsePoint> = Vec::new();
        for p in points {
            let dominated = points.iter().any(|q| {
                (q.guaranteed > p.guaranteed && q.slices <= p.slices)
                    || (q.guaranteed >= p.guaranteed && q.slices < p.slices)
            });
            if !dominated {
                front.push(p.clone());
            }
        }
        front
    }

    #[test]
    fn exploration_returns_sorted_points() {
        let points = explore_report(&app(), &[1, 2, 3], true, &FlowOptions::default()).points;
        assert!(points.len() >= 4);
        for w in points.windows(2) {
            assert!(w[0].guaranteed >= w[1].guaranteed - 1e-15);
        }
        assert!(points.iter().all(|p| p.strategy == "greedy"));
    }

    #[test]
    fn points_record_per_tile_load() {
        let points = explore_report(&app(), &[2], false, &FlowOptions::default()).points;
        let p = &points[0];
        assert_eq!(p.per_tile_load.len(), 2);
        // Three unit-rate actors of 100 cycles each, split over two tiles.
        assert_eq!(p.per_tile_load.iter().sum::<u64>(), 300);
        assert!(p.per_tile_load.iter().all(|&l| l > 0));
    }

    pub(crate) fn named_app(name: &str, wcets: &[u64]) -> ApplicationModel {
        let mut b = SdfGraphBuilder::new(name);
        let ids: Vec<_> = (0..wcets.len())
            .map(|i| b.add_actor(format!("{name}{i}"), 1))
            .collect();
        for i in 0..wcets.len() - 1 {
            b.add_channel_full(format!("{name}e{i}"), ids[i], 1, ids[i + 1], 1, 0, 16);
        }
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        for (i, &w) in wcets.iter().enumerate() {
            mb.actor(format!("{name}{i}"), w, 2048, 256);
        }
        mb.finish(g, None).unwrap()
    }

    #[test]
    fn use_case_sweep_counts_admissions_per_config() {
        let apps = vec![named_app("ua", &[90, 90]), named_app("ub", &[40, 40])];
        let report = explore_use_cases(&apps, &[1, 2], false, &FlowOptions::default());
        assert_eq!(report.points.len(), 2);
        // Both configurations admit both unconstrained apps; sorting puts
        // the higher-guarantee (or cheaper) point first.
        for p in &report.points {
            assert_eq!(p.admitted.len(), 2, "{p:?}");
            assert!(p.min_guarantee > 0.0);
            assert!(p.slices > 0);
        }
        for w in report.points.windows(2) {
            assert!(w[0].admitted.len() >= w[1].admitted.len());
        }
    }

    #[test]
    fn use_case_sweep_records_structured_rejections() {
        use mamps_sdf::model::ThroughputConstraint;
        let mut b = SdfGraphBuilder::new("hungry");
        let x = b.add_actor("hx", 1);
        let y = b.add_actor("hy", 1);
        b.add_channel_full("he", x, 1, y, 1, 0, 16);
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        mb.actor("hx", 800, 2048, 256).actor("hy", 800, 2048, 256);
        let hungry = mb
            .finish(
                g,
                Some(ThroughputConstraint {
                    iterations: 1,
                    cycles: 20,
                }),
            )
            .unwrap();
        let apps = vec![named_app("uc", &[60, 60]), hungry];
        let report = explore_use_cases(&apps, &[2], false, &FlowOptions::default());
        assert_eq!(report.points.len(), 1);
        let p = &report.points[0];
        assert_eq!(p.admitted, vec!["uc".to_string()]);
        assert_eq!(p.rejected.len(), 1);
        assert_eq!(p.rejected[0].0, "hungry");
        assert!(p.rejected[0].1.contains("mapping failed"));
    }

    #[test]
    fn parallel_use_case_sweep_matches_sequential() {
        let apps = vec![named_app("pa", &[70, 70]), named_app("pb", &[35, 35])];
        let opts = FlowOptions {
            binders: vec![Binder::Greedy, Binder::Spiral],
            ..FlowOptions::default()
        };
        let seq = explore_use_cases(&apps, &[1, 2, 3], true, &opts);
        let par = explore_use_cases(&apps, &[1, 2, 3], true, &FlowOptions { jobs: 4, ..opts });
        assert_eq!(seq, par);
        // Both strategies appear in the sweep.
        for s in ["greedy", "spiral"] {
            assert!(seq.points.iter().any(|p| p.strategy == s));
        }
    }

    #[test]
    fn pareto_front_is_subset_and_nondominated() {
        let points = explore_report(&app(), &[1, 2, 3], true, &FlowOptions::default()).points;
        let front = pareto_front(&points);
        assert!(!front.is_empty());
        assert!(front.len() <= points.len());
        for p in &front {
            for q in &points {
                assert!(
                    !(q.guaranteed > p.guaranteed && q.slices < p.slices),
                    "{p:?} dominated by {q:?}"
                );
            }
        }
    }

    #[test]
    fn more_tiles_cost_more_area() {
        let points = explore_report(&app(), &[1, 3], false, &FlowOptions::default()).points;
        let p1 = points.iter().find(|p| p.tiles == 1).unwrap();
        let p3 = points.iter().find(|p| p.tiles == 3).unwrap();
        assert!(p3.slices > p1.slices);
    }

    #[test]
    fn infeasible_points_are_recorded_with_reasons() {
        // One tile cannot hold all three actors: the binding step fails.
        let report = explore_report(
            &app_needing_two_tiles(),
            &[1, 2],
            false,
            &FlowOptions::default(),
        );
        assert_eq!(report.skipped.len(), 1);
        let s = &report.skipped[0];
        assert_eq!((s.tiles, s.interconnect), (1, "fsl"));
        assert_eq!(s.strategy, "greedy");
        assert!(!s.reason.is_empty(), "reason must name the failing step");
        assert_eq!(report.points.len(), 1);
        assert_eq!(report.points[0].tiles, 2);
    }

    #[test]
    fn platform_check_failures_are_recorded_as_skips() {
        // 84 KiB of instruction memory per actor: all three fit the
        // binder's 256 KiB tile, but not beside the 8 KiB runtime code.
        let report = explore_report(
            &chain_app(84 * 1024),
            &[1, 2],
            true,
            &FlowOptions::default(),
        );
        let reason = "generation step failed: cannot generate platform: tile 0 \
                      needs 266240 + 8192 bytes, exceeding the 262144-byte limit";
        let skipped: Vec<_> = report
            .skipped
            .iter()
            .map(|s| (s.tiles, s.interconnect, s.reason.as_str()))
            .collect();
        assert_eq!(skipped, [(1, "fsl", reason), (1, "noc", reason)]);
        let tiles: Vec<_> = report.points.iter().map(|p| p.tiles).collect();
        assert_eq!(tiles, [2, 2]);
    }

    #[test]
    fn strategy_sweep_attributes_every_point() {
        let opts = FlowOptions {
            binders: vec![Binder::Greedy, Binder::Spiral],
            ..FlowOptions::default()
        };
        // One tile fails for every strategy: skips are attributed too.
        let report = explore_report(&app_needing_two_tiles(), &[1, 2, 3], true, &opts);
        for strategy in ["greedy", "spiral"] {
            let kept = report.points.iter().filter(|p| p.strategy == strategy);
            let skipped = report.skipped.iter().filter(|s| s.strategy == strategy);
            // 2 feasible tile counts x 2 interconnects, 1 infeasible x 2.
            assert_eq!(kept.count(), 4, "{strategy} points");
            assert_eq!(skipped.count(), 2, "{strategy} skips");
        }
    }

    #[test]
    fn parallel_explore_matches_sequential() {
        let a = app_needing_two_tiles();
        let opts = FlowOptions {
            // Genetic is left out to keep the test fast.
            binders: vec![Binder::Greedy, Binder::Spiral],
            ..FlowOptions::default()
        };
        let seq = explore_report(&a, &[1, 2, 3], true, &opts);
        let par = explore_report(&a, &[1, 2, 3], true, &FlowOptions { jobs: 4, ..opts });
        assert_eq!(seq.points, par.points, "points must match point-for-point");
        assert_eq!(seq.skipped, par.skipped);
    }

    #[test]
    fn pareto_sweep_matches_naive_on_random_inputs() {
        // Deterministic pseudo-random point clouds, including duplicates
        // and throughput ties.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [0usize, 1, 2, 7, 33, 100] {
            let points: Vec<DsePoint> = (0..n)
                // Coarse buckets force plenty of exact ties.
                .map(|_| point((next() % 7) as f64 * 1e-6, next() % 9))
                .collect();
            assert_eq!(
                pareto_front(&points),
                pareto_front_naive(&points),
                "sweep diverges from the quadratic oracle at n={n}"
            );
        }
    }

    #[test]
    fn pareto_ignores_nan_points_without_splitting_groups() {
        // A NaN point is never dominated and dominates nothing, and it must
        // not split an equal-throughput group when it sorts between its
        // members.
        let points = [point(1.0, 5), point(f64::NAN, 1), point(1.0, 5)];
        let front = pareto_front(&points);
        let naive = pareto_front_naive(&points);
        // NaN != NaN, so compare structure rather than the points directly.
        let shape = |f: &[DsePoint]| -> Vec<(u64, bool)> {
            f.iter()
                .map(|p| (p.slices, p.guaranteed.is_nan()))
                .collect()
        };
        assert_eq!(shape(&front), shape(&naive));
        assert_eq!(front.len(), 3);
    }

    #[test]
    fn pareto_keeps_equal_duplicates() {
        let p = DsePoint {
            tiles: 2,
            ..point(1e-5, 100)
        };
        let front = pareto_front(&[p.clone(), p.clone()]);
        assert_eq!(front.len(), 2);
    }
}
