//! The automated design flow (paper §5, Fig. 1): architecture generation,
//! SDF3 mapping, MAMPS platform generation, and "synthesis" (elaboration of
//! the executable platform model). Each automated step is timed, feeding
//! the Table 1 designer-effort report.

use std::time::{Duration, Instant};

use mamps_codegen::project::{check_platform, render_project, CheckedPlatform, Project};
use mamps_codegen::GenError;
use mamps_mapping::flow::{map_application, MapOptions, MappedApplication};
use mamps_mapping::MapError;
use mamps_platform::arch::{ArchError, Architecture};
use mamps_platform::interconnect::Interconnect;
use mamps_sdf::model::ApplicationModel;
use mamps_sdf::passes::timed;
use mamps_sim::{Engine, SimError, System, WcetTimes};

use crate::validate::GuaranteeReport;

/// Errors of the end-to-end flow.
#[derive(Debug)]
pub enum FlowError {
    /// Architecture construction failed.
    Arch(ArchError),
    /// Mapping failed.
    Map(MapError),
    /// Platform generation failed.
    Gen(GenError),
    /// The simulated platform failed to run.
    Sim(SimError),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Arch(e) => write!(f, "architecture step failed: {e}"),
            FlowError::Map(e) => write!(f, "mapping step failed: {e}"),
            FlowError::Gen(e) => write!(f, "generation step failed: {e}"),
            FlowError::Sim(e) => write!(f, "platform run failed: {e}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<ArchError> for FlowError {
    fn from(e: ArchError) -> Self {
        FlowError::Arch(e)
    }
}
impl From<MapError> for FlowError {
    fn from(e: MapError) -> Self {
        FlowError::Map(e)
    }
}
impl From<GenError> for FlowError {
    fn from(e: GenError) -> Self {
        FlowError::Gen(e)
    }
}
impl From<SimError> for FlowError {
    fn from(e: SimError) -> Self {
        FlowError::Sim(e)
    }
}

/// Wall-clock durations of the automated flow steps (Table 1 bottom half).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimings {
    /// "Generating architecture model".
    pub architecture_generation: Duration,
    /// "Mapping the design (SDF3)".
    pub mapping: Duration,
    /// "Generating Xilinx project (MAMPS)".
    pub platform_generation: Duration,
    /// "Synthesis of the system" — here: elaborating the executable
    /// platform model and verifying it boots (runs a warm-up iteration).
    pub synthesis: Duration,
}

/// Name of the generated project.
const PROJECT_NAME: &str = "mamps_system";

/// Name of the architecture [`run_flow`] generates. It is part of every
/// `bind` pass key, so the design points of binder and use-case sweeps
/// use it too.
pub(crate) const AUTO_ARCH_NAME: &str = "auto";

/// Iterations of the warm-up/validation run in the synthesis step.
const BOOT_ITERATIONS: u64 = 3;

/// Options of the flow.
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// Mapping options.
    pub map: MapOptions,
    /// Worker threads for callers that evaluate independent flow runs
    /// (e.g. the DSE sweep and the `mamps dse --jobs` knob). A single flow
    /// run is sequential regardless; results never depend on this value.
    pub jobs: usize,
    /// Binding strategies for the DSE sweep ([`crate::dse::explore_report`]
    /// evaluates every tile count × interconnect × strategy combination).
    /// Empty means greedy alone. A single flow run uses
    /// `map.bind.strategy` instead.
    pub binders: Vec<mamps_mapping::Binder>,
    /// Simulator engine for every verification run of the flow (the
    /// synthesis boot run, the multi-flow validation runs, traced group
    /// re-runs). Both engines are bit-identical by contract; `lockstep`
    /// exists for oracle cross-checks (`mamps ... --engine lockstep`,
    /// `scripts/sim_equiv.sh`).
    pub sim_engine: Engine,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            map: MapOptions::default(),
            jobs: 1,
            binders: Vec::new(),
            sim_engine: Engine::default(),
        }
    }
}

/// Result of a complete flow run.
#[derive(Debug)]
pub struct FlowResult {
    /// The (possibly auto-generated) architecture.
    pub arch: Architecture,
    /// The mapping with its guaranteed throughput.
    pub mapped: MappedApplication,
    /// The generated platform project.
    pub project: Project,
    /// Step timings for the designer-effort report.
    pub timings: StepTimings,
}

impl FlowResult {
    /// The guaranteed worst-case throughput in iterations per cycle.
    pub fn guaranteed_throughput(&self) -> f64 {
        self.mapped.analysis.as_f64()
    }
}

/// Runs the flow with an auto-generated homogeneous architecture of
/// `tiles` tiles over `interconnect`.
///
/// # Errors
///
/// Any step may fail; see [`FlowError`].
pub fn run_flow(
    app: &ApplicationModel,
    tiles: usize,
    interconnect: Interconnect,
    opts: &FlowOptions,
) -> Result<FlowResult, FlowError> {
    let t0 = Instant::now();
    let arch = Architecture::homogeneous(AUTO_ARCH_NAME, tiles, interconnect)?;
    let architecture_generation = t0.elapsed();
    run_flow_on(app, arch, opts, architecture_generation)
}

/// Runs the flow on a user-provided architecture (e.g. with CA tiles).
///
/// # Errors
///
/// Any step may fail; see [`FlowError`].
pub fn run_flow_with_arch(
    app: &ApplicationModel,
    arch: Architecture,
    opts: &FlowOptions,
) -> Result<FlowResult, FlowError> {
    run_flow_on(app, arch, opts, Duration::ZERO)
}

fn run_flow_on(
    app: &ApplicationModel,
    arch: Architecture,
    opts: &FlowOptions,
    architecture_generation: Duration,
) -> Result<FlowResult, FlowError> {
    let CheckedFlow {
        mapped,
        platform,
        mut timings,
    } = check_flow(app, &arch, opts)?;
    let t = Instant::now();
    let project = render_project(platform, app.graph(), &mapped.mapping, &arch, PROJECT_NAME);
    timings.platform_generation += t.elapsed();
    timings.architecture_generation = architecture_generation;
    Ok(FlowResult {
        arch,
        mapped,
        project,
        timings,
    })
}

/// A design point that [`check_flow`] mapped, checked and booted: the
/// flow's verdict without the project text.
pub(crate) struct CheckedFlow<'a> {
    /// The mapping with its guaranteed throughput.
    pub(crate) mapped: MappedApplication,
    platform: CheckedPlatform<'a>,
    /// Every step but the architecture's generation; the platform
    /// generation covers the check only.
    timings: StepTimings,
}

/// Maps `app` onto `arch`, checks that the platform can be generated (the
/// `platform-gen` pass) and boots it (the `boot-sim` pass), stopping at
/// the first step that fails. A sweep's design point needs no more;
/// [`run_flow`] renders the project from the result.
///
/// # Errors
///
/// [`FlowError::Map`], [`FlowError::Gen`] or [`FlowError::Sim`], from the
/// first step that fails.
pub(crate) fn check_flow<'a>(
    app: &'a ApplicationModel,
    arch: &Architecture,
    opts: &FlowOptions,
) -> Result<CheckedFlow<'a>, FlowError> {
    let t1 = Instant::now();
    let mapped = map_application(app, arch, &opts.map)?;
    let mapping_time = t1.elapsed();

    // Timed, never cached: the check, like `wire-alloc`, costs less than a
    // cache replay would, and a boot verdict is a measurement.
    let t2 = Instant::now();
    let platform = timed(&opts.map.passes, "platform-gen", || {
        check_platform(app, app.graph(), &mapped.mapping, arch)
    })?;
    let platform_generation = t2.elapsed();

    // "Synthesis": elaborate the executable platform and verify it boots.
    let t3 = Instant::now();
    timed(&opts.map.passes, "boot-sim", || -> Result<(), SimError> {
        let wcet = WcetTimes::new(mapped.mapping.binding.wcet_of.clone());
        let system =
            System::new(app.graph(), &mapped.mapping, arch, &wcet)?.with_engine(opts.sim_engine);
        let _boot = system.run(BOOT_ITERATIONS, 1_000_000_000)?;
        Ok(())
    })?;
    let synthesis = t3.elapsed();

    Ok(CheckedFlow {
        mapped,
        platform,
        timings: StepTimings {
            architecture_generation: Duration::ZERO,
            mapping: mapping_time,
            platform_generation,
            synthesis,
        },
    })
}

// ---------------------------------------------------------------------------
// Multi-application flow
// ---------------------------------------------------------------------------

/// Per-application section of a multi-application flow report.
#[derive(Debug, Clone)]
pub struct AppSection {
    /// The application's (graph) name.
    pub name: String,
    /// True when the admission loop accepted the application.
    pub admitted: bool,
    /// Binding strategy that mapped it (admitted applications only).
    pub strategy: Option<&'static str>,
    /// Tiles the application occupies, ascending (admitted only).
    pub tiles: Vec<usize>,
    /// The application's throughput constraint (iterations/cycle).
    pub constraint: Option<f64>,
    /// Guaranteed throughput if the application ran alone (admitted only).
    pub isolated_bound: Option<f64>,
    /// Guaranteed throughput under sharing — the lockstep bound of the
    /// application's interference group (admitted only).
    pub shared_bound: Option<f64>,
    /// Throughput measured by the cycle-level simulator running all
    /// admitted applications concurrently (admitted only).
    pub measured: Option<f64>,
    /// Measured-vs-shared-bound comparison (admitted only).
    pub guarantee: Option<GuaranteeReport>,
    /// The structured rejection reason (rejected applications only).
    pub rejection: Option<String>,
}

/// Result of the multi-application flow: the admission outcome, one report
/// section per application, and the step timings.
#[derive(Debug)]
pub struct MultiFlowResult {
    /// The architecture everything was mapped onto.
    pub arch: Architecture,
    /// The full admission outcome (mappings, groups, occupancy).
    pub outcome: mamps_mapping::multi::UseCaseMapping,
    /// One section per application, in admission order.
    pub sections: Vec<AppSection>,
    /// Step timings (mapping = the whole admission loop, synthesis = the
    /// concurrent validation runs).
    pub timings: StepTimings,
    /// The simulator engine the validation runs used;
    /// [`trace_group`](Self::trace_group) re-runs with the same engine so
    /// traces show exactly what was validated.
    pub sim_engine: Engine,
}

impl MultiFlowResult {
    /// Number of admitted applications.
    pub fn admitted_count(&self) -> usize {
        self.outcome.admitted.len()
    }

    /// True when the simulator validated every admitted application's
    /// shared guarantee.
    pub fn all_guarantees_hold(&self) -> bool {
        self.sections
            .iter()
            .filter(|s| s.admitted)
            .all(|s| s.guarantee.as_ref().is_some_and(|g| g.holds()))
    }

    /// Re-runs interference group `group`'s validation simulation with
    /// tracing, returning the measurement and the recorded events — the
    /// input of [`mamps_sim::render_gantt_labeled`] together with
    /// [`group_attribution`](Self::group_attribution). Uses the same
    /// system construction as the validation runs of [`run_multi_flow`],
    /// so the trace shows exactly the deployed combined system.
    ///
    /// # Errors
    ///
    /// [`SimError`] if the traced run fails to complete.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn trace_group(
        &self,
        group: usize,
        iterations: u64,
        max_events: usize,
    ) -> Result<(mamps_sim::Measurement, Vec<mamps_sim::TraceEvent>), SimError> {
        let g = &self.outcome.groups[group];
        let times = WcetTimes::new(g.mapping.binding.wcet_of.clone());
        let system = System::new_with_repetitions(
            &g.graph,
            &g.mapping,
            &self.arch,
            &times,
            g.combined_repetitions(),
        )?
        .with_engine(self.sim_engine);
        system.run_traced(iterations, u64::MAX / 4, max_events)
    }

    /// Actor/channel → application attribution of interference group
    /// `group`, built from the member spans of its combined union graph.
    /// Feed it to [`mamps_sim::render_gantt_labeled`] to split a shared
    /// tile's Gantt row per application (`mamps map-multi --gantt`).
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn group_attribution(&self, group: usize) -> mamps_sim::AppAttribution {
        let g = &self.outcome.groups[group];
        let mut attribution = mamps_sim::AppAttribution {
            names: Vec::with_capacity(g.members.len()),
            app_of_actor: vec![0; g.graph.actor_count()],
            app_of_channel: vec![0; g.graph.channel_count()],
        };
        for (mi, m) in g.members.iter().enumerate() {
            attribution
                .names
                .push(self.outcome.admitted[m.admitted].name.clone());
            for a in m.actors.clone() {
                attribution.app_of_actor[a] = mi;
            }
            for c in m.channels.clone() {
                attribution.app_of_channel[c] = mi;
            }
        }
        attribution
    }
}

/// Runs the multi-application flow: admits `apps` one at a time onto
/// `arch` (see [`mamps_mapping::multi::map_use_case`]), then validates
/// every admitted application's shared guarantee by simulating each
/// interference group — all member applications concurrently on the
/// shared tiles — for `sim_iterations` lockstep iterations at WCET.
///
/// Rejected applications do not fail the flow; their sections carry the
/// structured rejection reason instead.
///
/// # Errors
///
/// * [`FlowError::Map`] if the use-case itself is invalid (empty,
///   duplicate application names).
/// * [`FlowError::Sim`] if a validation run fails to complete.
pub fn run_multi_flow(
    apps: Vec<ApplicationModel>,
    arch: Architecture,
    opts: &FlowOptions,
    sim_iterations: u64,
) -> Result<MultiFlowResult, FlowError> {
    use mamps_mapping::multi::{map_use_case, UseCase};

    let uc = UseCase::new(apps)?;
    let t0 = Instant::now();
    let outcome = map_use_case(&uc, &arch, &opts.map);
    let mapping_time = t0.elapsed();

    // Validate each interference group with one concurrent WCET run.
    // Timed, never cached: these are measurements, not derivations.
    let t1 = Instant::now();
    let group_measured: Vec<f64> = timed(
        &opts.map.passes,
        "validate-sim",
        || -> Result<_, SimError> {
            let mut measured = Vec::with_capacity(outcome.groups.len());
            for group in &outcome.groups {
                let times = WcetTimes::new(group.mapping.binding.wcet_of.clone());
                let system = System::new_with_repetitions(
                    &group.graph,
                    &group.mapping,
                    &arch,
                    &times,
                    group.combined_repetitions(),
                )?
                .with_engine(opts.sim_engine);
                let m = system.run(sim_iterations, u64::MAX / 4)?;
                measured.push(m.steady_throughput());
            }
            Ok(measured)
        },
    )?;
    let synthesis = t1.elapsed();

    // Assemble one section per application, restoring admission order via
    // the indices the admission loop recorded.
    let mut indexed: Vec<(usize, AppSection)> = Vec::with_capacity(uc.len());
    for a in &outcome.admitted {
        let shared = a.shared_guarantee.to_f64();
        let measured = group_measured[a.group];
        indexed.push((
            a.index,
            AppSection {
                name: a.name.clone(),
                admitted: true,
                strategy: Some(a.mapped.strategy),
                tiles: a.tiles().iter().map(|t| t.0).collect(),
                constraint: a.constraint.map(|c| c.to_f64()),
                isolated_bound: Some(a.mapped.analysis.as_f64()),
                shared_bound: Some(shared),
                measured: Some(measured),
                guarantee: Some(GuaranteeReport::new(shared, measured)),
                rejection: None,
            },
        ));
    }
    for r in &outcome.rejected {
        indexed.push((
            r.index,
            AppSection {
                name: r.name.clone(),
                admitted: false,
                strategy: None,
                tiles: Vec::new(),
                constraint: uc.apps()[r.index]
                    .throughput_constraint()
                    .map(|c| c.as_ratio().to_f64()),
                isolated_bound: None,
                shared_bound: None,
                measured: None,
                guarantee: None,
                rejection: Some(r.reason.to_string()),
            },
        ));
    }
    indexed.sort_by_key(|(i, _)| *i);
    let sections: Vec<AppSection> = indexed.into_iter().map(|(_, s)| s).collect();

    Ok(MultiFlowResult {
        arch,
        outcome,
        sections,
        timings: StepTimings {
            architecture_generation: Duration::ZERO,
            mapping: mapping_time,
            platform_generation: Duration::ZERO,
            synthesis,
        },
        sim_engine: opts.sim_engine,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamps_sdf::graph::SdfGraphBuilder;
    use mamps_sdf::model::HomogeneousModelBuilder;

    fn app() -> ApplicationModel {
        let mut b = SdfGraphBuilder::new("a");
        let x = b.add_actor("x", 1);
        let y = b.add_actor("y", 1);
        b.add_channel_full("e", x, 1, y, 1, 0, 32);
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        mb.actor("x", 40, 2048, 256).actor("y", 70, 2048, 256);
        mb.finish(g, None).unwrap()
    }

    #[test]
    fn flow_end_to_end() {
        let r = run_flow(&app(), 2, Interconnect::fsl(), &FlowOptions::default()).unwrap();
        assert!(r.guaranteed_throughput() > 0.0);
        assert!(r.project.file_count() >= 5);
        assert!(r.timings.mapping > Duration::ZERO);
    }

    #[test]
    fn flow_with_custom_arch() {
        let arch = Architecture::homogeneous_with_ca("ca", 2, Interconnect::fsl()).unwrap();
        let r = run_flow_with_arch(&app(), arch, &FlowOptions::default()).unwrap();
        assert!(r.guaranteed_throughput() > 0.0);
    }

    #[test]
    fn flow_errors_propagate() {
        let r = run_flow(&app(), 0, Interconnect::fsl(), &FlowOptions::default());
        assert!(matches!(r, Err(FlowError::Arch(_))));
    }

    fn named_app(name: &str, wcets: &[u64]) -> ApplicationModel {
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
    fn multi_flow_validates_concurrent_apps() {
        let arch = Architecture::homogeneous("m", 2, Interconnect::fsl()).unwrap();
        let r = run_multi_flow(
            vec![named_app("one", &[80, 80]), named_app("two", &[30, 30])],
            arch,
            &FlowOptions::default(),
            60,
        )
        .unwrap();
        assert_eq!(r.admitted_count(), 2);
        assert!(r.all_guarantees_hold(), "sections: {:?}", r.sections);
        assert_eq!(r.sections.len(), 2);
        for s in &r.sections {
            assert!(s.admitted);
            assert!(s.measured.unwrap() >= s.shared_bound.unwrap() * (1.0 - 1e-9));
            assert!(s.shared_bound.unwrap() <= s.isolated_bound.unwrap() + 1e-15);
            assert!(!s.tiles.is_empty());
        }
        assert!(r.timings.mapping > Duration::ZERO);
    }

    #[test]
    fn multi_flow_reports_rejections_without_failing() {
        use mamps_sdf::model::ThroughputConstraint;
        let mut b = SdfGraphBuilder::new("impossible");
        let x = b.add_actor("ix", 1);
        let y = b.add_actor("iy", 1);
        b.add_channel_full("ie", x, 1, y, 1, 0, 16);
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        mb.actor("ix", 900, 2048, 256).actor("iy", 900, 2048, 256);
        let impossible = mb
            .finish(
                g,
                Some(ThroughputConstraint {
                    iterations: 1,
                    cycles: 10,
                }),
            )
            .unwrap();

        let arch = Architecture::homogeneous("m", 2, Interconnect::fsl()).unwrap();
        let r = run_multi_flow(
            vec![named_app("fits", &[60, 60]), impossible],
            arch,
            &FlowOptions::default(),
            40,
        )
        .unwrap();
        assert_eq!(r.admitted_count(), 1);
        assert!(r.all_guarantees_hold());
        let rejected = r.sections.iter().find(|s| !s.admitted).unwrap();
        assert_eq!(rejected.name, "impossible");
        assert!(rejected
            .rejection
            .as_ref()
            .unwrap()
            .contains("mapping failed"));
    }

    #[test]
    fn multi_flow_engines_agree_on_measured_throughput() {
        let run = |engine| {
            let arch = Architecture::homogeneous("m", 2, Interconnect::fsl()).unwrap();
            let opts = FlowOptions {
                sim_engine: engine,
                ..FlowOptions::default()
            };
            run_multi_flow(
                vec![named_app("one", &[80, 80]), named_app("two", &[30, 30])],
                arch,
                &opts,
                60,
            )
            .unwrap()
        };
        let ev = run(Engine::Event);
        let ls = run(Engine::Lockstep);
        assert_eq!(ev.sections.len(), ls.sections.len());
        for (a, b) in ev.sections.iter().zip(&ls.sections) {
            assert_eq!(a.measured, b.measured, "engines diverge for {}", a.name);
        }
    }

    #[test]
    fn multi_flow_rejects_invalid_use_case() {
        let arch = Architecture::homogeneous("m", 2, Interconnect::fsl()).unwrap();
        assert!(matches!(
            run_multi_flow(Vec::new(), arch, &FlowOptions::default(), 10),
            Err(FlowError::Map(_))
        ));
    }
}
