//! Engine equivalence as an executable property.
//!
//! The discrete-event kernel (`sim::event`) must be *bit-identical* to the
//! lockstep reference engine (`sim::reference`) — not statistically close:
//! same iteration completion times, same firing counts, same per-worker
//! busy cycles, same trace events in the same order, same rendered Gantt
//! and trace text, and the same error verdict when the mapping is broken
//! or the cycle budget runs out.
//!
//! Every comparison runs untraced, where the kernel moves whole word
//! bursts, and traced, where it moves one word per operation; the traced
//! measurement must also equal the untraced one. Random SDF graphs ×
//! random platforms (plain, CA and hardware-IP tiles on FSL and NoC, 1–5
//! tiles, multirate channels, varied token sizes) are mapped by the full
//! flow and run at WCET or at faster actual times, sometimes under a cycle
//! budget small enough to stop runs mid-burst; multi-application union
//! graphs go through `map_use_case` and `new_with_repetitions` the same
//! way. Graphs come from the shared `mamps_sdf::gen` testkit — both the
//! pipeline helper and full generated topology families (split-joins,
//! trees, cycles). Deterministic cases at the end pin the burst corner
//! cases.
//!
//! Every comparison first checks the premise that makes a burst exact
//! (the `mamps_sim::event` module docs): each pool a start consumes has
//! one consuming worker. From the workers a system builds and the round
//! each PE walks, every actor has at most one firing worker, and every
//! cross-tile channel at most one serializing and one de-serializing
//! worker. This pins that the schedules (`mamps_mapping::schedule`) and
//! the simulator agree on which tiles offload their word loops.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use proptest::prelude::*;

use mamps_mapping::flow::{map_application, MapOptions};
use mamps_mapping::mapping::{Mapping, ScheduleEntry};
use mamps_mapping::multi::{map_use_case, UseCase};
use mamps_platform::arch::Architecture;
use mamps_platform::interconnect::Interconnect;
use mamps_platform::tile::TileConfig;
use mamps_sdf::gen::{actual_times, generate, pipeline_app, strategies, Family, GenConfig};
use mamps_sdf::graph::SdfGraph;
use mamps_sdf::model::{ActorImplementation, ApplicationModel};
use mamps_sim::processor::WorkerKind;
use mamps_sim::{
    render_gantt, render_trace, Engine, FiringTimes, Measurement, SimError, System, TraceTimes,
    WcetTimes,
};

/// A cycle budget no drawn run reaches.
const UNBOUNDED: u64 = 500_000_000;

fn strategy() -> impl Strategy<Value = (Vec<u64>, u64, usize, bool, Vec<u64>)> {
    (
        strategies::wcets(2..5),
        prop_oneof![Just(4u64), Just(16), Just(64), Just(200)],
        1usize..5,
        any::<bool>(),
        proptest::collection::vec(1u64..4, 2),
    )
}

/// The tiles of a drawn platform.
#[derive(Debug, Clone, Copy)]
enum Tiles {
    /// MicroBlaze tiles that serialize in software.
    Plain,
    /// Tiles whose communication assist serializes.
    Ca,
    /// Plain tiles plus one hardware-IP tile with its own NI engines.
    Ip,
}

fn tiles_kind() -> impl Strategy<Value = Tiles> {
    prop_oneof![Just(Tiles::Plain), Just(Tiles::Ca), Just(Tiles::Ip)]
}

/// A cycle budget: mostly unbounded, sometimes small enough that the run
/// ends in `CycleLimit` (or `Deadlock`) with bursts in flight.
fn max_cycles() -> impl Strategy<Value = u64> {
    prop_oneof![Just(UNBOUNDED), Just(UNBOUNDED), 200u64..20_000]
}

/// `n` tiles of `kind` (one more for the IP tile) on FSL or on a NoC sized
/// for them.
fn platform(kind: Tiles, n: usize, noc: bool) -> Architecture {
    let total = n + usize::from(matches!(kind, Tiles::Ip));
    let ic = if noc {
        Interconnect::noc_for_tiles(total)
    } else {
        Interconnect::fsl()
    };
    match kind {
        Tiles::Plain => Architecture::homogeneous("x", n, ic),
        Tiles::Ca => Architecture::homogeneous_with_ca("x", n, ic),
        Tiles::Ip => {
            let mut tiles: Vec<TileConfig> = (0..n)
                .map(|i| match i {
                    0 => TileConfig::master("tile0"),
                    _ => TileConfig::slave(format!("tile{i}")),
                })
                .collect();
            tiles.push(TileConfig::hardware_ip("ip"));
            Architecture::new("x", tiles, ic)
        }
    }
    .unwrap()
}

/// `app` as drawn for `kind`: on an IP platform its second actor also gets
/// a hardware implementation, four times faster, so the binder can place
/// it on the IP tile.
fn for_tiles(app: ApplicationModel, kind: Tiles) -> ApplicationModel {
    if !matches!(kind, Tiles::Ip) {
        return app;
    }
    let graph = app.graph().clone();
    let mut impls = HashMap::new();
    for (aid, actor) in graph.actors() {
        let mut list = app.implementations(aid).to_vec();
        if aid.0 == 1 {
            let sw = list[0].clone();
            list.push(ActorImplementation {
                processor_type: "hardware-ip".into(),
                function_name: format!("{}_ip", actor.name()),
                wcet: (sw.wcet / 4).max(1),
                instruction_memory: 0,
                data_memory: 0,
                args: sw.args,
            });
        }
        impls.insert(actor.name().to_string(), list);
    }
    ApplicationModel::new(graph, impls, app.throughput_constraint()).unwrap()
}

/// WCET times, or times drawn in `[1, WCET]` from `seed`.
fn firing_times(mapping: &Mapping, seed: Option<u64>) -> Box<dyn FiringTimes> {
    let wcets = mapping.binding.wcet_of.clone();
    match seed {
        None => Box::new(WcetTimes::new(wcets)),
        Some(s) => Box::new(TraceTimes::new(actual_times(s, &wcets), wcets)),
    }
}

/// The system of one comparison run.
struct Case<'a> {
    graph: &'a SdfGraph,
    mapping: &'a Mapping,
    arch: &'a Architecture,
    repetitions: Option<Vec<u64>>,
    times: &'a dyn FiringTimes,
}

impl Case<'_> {
    fn system(&self, engine: Engine) -> Result<System<'_>, SimError> {
        let sys = match &self.repetitions {
            Some(q) => System::new_with_repetitions(
                self.graph,
                self.mapping,
                self.arch,
                self.times,
                q.clone(),
            ),
            None => System::new(self.graph, self.mapping, self.arch, self.times),
        };
        Ok(sys?.with_engine(engine))
    }

    /// Runs both engines untraced and traced and asserts exact agreement
    /// on every observable: measurement fields or error, trace events,
    /// rendered output.
    fn agree(&self, iterations: u64, max_cycles: u64) -> Result<(), TestCaseError> {
        let run = |engine| self.system(engine)?.run(iterations, max_cycles);
        let traced = |engine| {
            self.system(engine)?
                .run_traced(iterations, max_cycles, 20_000)
        };
        self.one_worker_per_pool()?;
        let (untraced, untraced_ref) = (run(Engine::Event), run(Engine::Lockstep));
        prop_assert_eq!(
            &untraced,
            &untraced_ref,
            "untraced runs diverge:\nevent    {:?}\nlockstep {:?}",
            untraced,
            untraced_ref
        );
        let (event, lockstep) = (traced(Engine::Event), traced(Engine::Lockstep));
        let traced_result = event.as_ref().map(|(m, _)| m);
        prop_assert_eq!(
            traced_result,
            untraced.as_ref(),
            "tracing changed the result:\ntraced   {:?}\nuntraced {:?}",
            traced_result,
            untraced
        );
        match (event, lockstep) {
            (Ok((me, te)), Ok((ml, tl))) => {
                prop_assert_eq!(&me, &ml, "traced measurements diverge");
                prop_assert_eq!(&te, &tl, "traces diverge");
                let until = me.iteration_times.last().copied().unwrap_or(1_000);
                prop_assert_eq!(
                    render_gantt(&te, until, 72),
                    render_gantt(&tl, until, 72),
                    "gantt output diverges"
                );
                prop_assert_eq!(render_trace(&te), render_trace(&tl), "trace text diverges");
            }
            (e, l) => {
                // Same verdict, same message — errors must agree too.
                prop_assert_eq!(e.map(|(m, _)| m), l.map(|(m, _)| m));
            }
        }
        Ok(())
    }

    /// Checks that no actor has two firing workers and no channel two
    /// serializing or two de-serializing workers (see the module docs).
    fn one_worker_per_pool(&self) -> Result<(), TestCaseError> {
        // A run of zero iterations reports the built workers and nothing
        // else; a build error is left to the comparison.
        let Ok(built) = self.system(Engine::Event).and_then(|s| s.run(0, 0)) else {
            return Ok(());
        };
        const FIRE: &str = "the firings of actor";
        const SEND: &str = "the serialization of channel";
        const RECV: &str = "the de-serialization of channel";
        let mut workers: BTreeMap<(&str, usize), BTreeSet<usize>> = BTreeMap::new();
        for (w, &(kind, _)) in built.worker_busy.iter().enumerate() {
            let pools = match kind {
                WorkerKind::Pe { tile } => self.mapping.schedules[tile]
                    .iter()
                    .map(|entry| match *entry {
                        ScheduleEntry::Fire { actor, .. } => (FIRE, actor.0),
                        ScheduleEntry::Send { channel, .. } => (SEND, channel.0),
                        ScheduleEntry::Receive { channel, .. } => (RECV, channel.0),
                    })
                    .collect(),
                WorkerKind::Ip { actor } => vec![(FIRE, actor.0)],
                WorkerKind::EngineSend { channel } => vec![(SEND, channel.0)],
                WorkerKind::EngineRecv { channel } => vec![(RECV, channel.0)],
            };
            for pool in pools {
                workers.entry(pool).or_default().insert(w);
            }
        }
        for ((pool, index), ws) in workers {
            prop_assert!(ws.len() == 1, "workers {ws:?} share {pool} {index}");
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engines_agree_on_random_single_app(
        (wcets, tok, tiles, noc, rates) in strategy(),
        kind in tiles_kind(),
        seed in proptest::option::of(0u64..1000),
        budget in max_cycles(),
    ) {
        let app = for_tiles(pipeline_app("p", &wcets, tok, &rates, None), kind);
        let arch = platform(kind, tiles, noc);
        let mapped = match map_application(&app, &arch, &MapOptions::default()) {
            Ok(m) => m,
            Err(_) => return Ok(()), // infeasible random configuration
        };
        let times = firing_times(&mapped.mapping, seed);
        Case {
            graph: app.graph(),
            mapping: &mapped.mapping,
            arch: &arch,
            repetitions: None,
            times: times.as_ref(),
        }
        .agree(80, budget)?;
    }

    #[test]
    fn engines_agree_on_broken_mappings(
        (wcets, tok, tiles, noc, rates) in strategy(),
        cfg in proptest::option::of(strategies::flow_config()),
        kind in tiles_kind(),
        starve_dst in any::<bool>(),
        budget in 200u64..200_000,
    ) {
        // A pipeline's source never stops; a generated graph's often does.
        let app = match cfg {
            Some(cfg) => generate(&cfg).unwrap(),
            None => pipeline_app("p", &wcets, tok, &rates, None),
        };
        let app = for_tiles(app, kind);
        let arch = platform(kind, tiles, noc);
        let mut mapped = match map_application(&app, &arch, &MapOptions::default()) {
            Ok(m) => m,
            Err(_) => return Ok(()),
        };
        // Break the allocation: starved receivers or zero local capacity
        // produce deadlock/cycle-limit verdicts that must match exactly.
        // The budget stays bounded: a sender facing a starved receiver
        // keeps running.
        for c in &mut mapped.mapping.channels {
            if starve_dst {
                c.alpha_dst = 0;
            } else {
                c.local_capacity = 0;
            }
        }
        let times = firing_times(&mapped.mapping, None);
        Case {
            graph: app.graph(),
            mapping: &mapped.mapping,
            arch: &arch,
            repetitions: None,
            times: times.as_ref(),
        }
        .agree(20, budget)?;
    }

    #[test]
    fn engines_agree_on_generated_families(
        cfg in strategies::flow_config(),
        tiles in 1usize..4,
        noc in any::<bool>(),
        kind in tiles_kind(),
        seed in proptest::option::of(0u64..1000),
    ) {
        let app = for_tiles(generate(&cfg).unwrap(), kind);
        let arch = platform(kind, tiles, noc);
        let mapped = match map_application(&app, &arch, &MapOptions::default()) {
            Ok(m) => m,
            Err(_) => return Ok(()), // infeasible (scenario, platform) pair
        };
        let times = firing_times(&mapped.mapping, seed);
        Case {
            graph: app.graph(),
            mapping: &mapped.mapping,
            arch: &arch,
            repetitions: None,
            times: times.as_ref(),
        }
        .agree(40, UNBOUNDED)?;
    }

    #[test]
    fn engines_agree_on_multi_app_unions(
        wa in strategies::wcets(2..4),
        wb in strategies::wcets(2..4),
        tok in prop_oneof![Just(8u64), Just(32), Just(128)],
        tiles in 2usize..4,
        noc in any::<bool>(),
        seed in proptest::option::of(0u64..1000),
    ) {
        let ua = pipeline_app("u", &wa, tok, &[1], None);
        let ub = pipeline_app("v", &wb, tok, &[1], None);
        let uc = UseCase::new(vec![ua, ub]).unwrap();
        let arch = platform(Tiles::Plain, tiles, noc);
        let r = map_use_case(&uc, &arch, &MapOptions::default());
        for group in &r.groups {
            let times = firing_times(&group.mapping, seed);
            Case {
                graph: &group.graph,
                mapping: &group.mapping,
                arch: &arch,
                repetitions: Some(group.combined_repetitions()),
                times: times.as_ref(),
            }
            .agree(60, UNBOUNDED)?;
        }
    }
}

/// Maps `app` onto `tiles` plain tiles over `interconnect`, lets `tweak`
/// change the mapping, and returns the event kernel's untraced result
/// after checking that both engines agree on it, traced and untraced.
fn fixed_case(
    app: &ApplicationModel,
    tiles: usize,
    interconnect: Interconnect,
    tweak: impl Fn(&mut Mapping),
    iterations: u64,
    max_cycles: u64,
) -> Result<Measurement, SimError> {
    let arch = Architecture::homogeneous("x", tiles, interconnect).unwrap();
    let mut mapping = map_application(app, &arch, &MapOptions::default())
        .unwrap()
        .mapping;
    let g = app.graph();
    assert!(
        g.channels()
            .any(|(_, c)| mapping.binding.cross_tiles(c).is_some()),
        "the case needs a cross-tile channel"
    );
    tweak(&mut mapping);
    let times = WcetTimes::new(mapping.binding.wcet_of.clone());
    let case = Case {
        graph: g,
        mapping: &mapping,
        arch: &arch,
        repetitions: None,
        times: &times,
    };
    if let Err(e) = case.agree(iterations, max_cycles) {
        panic!("{e:?}");
    }
    case.system(Engine::Event)?.run(iterations, max_cycles)
}

fn starve(mapping: &mut Mapping) {
    for c in &mut mapping.channels {
        c.alpha_dst = 0;
    }
}

/// A one-word FSL FIFO: every word of a 128-word burst waits for the
/// credit its predecessor returns on delivery.
#[test]
fn every_word_waits_for_its_credit() {
    let app = pipeline_app("p", &[300, 300, 300], 512, &[1], None);
    let m = fixed_case(
        &app,
        3,
        Interconnect::Fsl { fifo_depth: 1 },
        |_| {},
        30,
        UNBOUNDED,
    );
    assert!(m.is_ok(), "{m:?}");
}

/// A consumer much faster than its producer sits at its receive entry, so
/// every word of its bursts waits for its own delivery.
#[test]
fn fast_consumer_waits_inside_receive_bursts() {
    let app = pipeline_app("p", &[400, 10], 128, &[1], None);
    let m = fixed_case(&app, 2, Interconnect::fsl(), |_| {}, 30, UNBOUNDED);
    assert!(m.is_ok(), "{m:?}");
}

/// Two iterations of 128-word tokens: the run ends with bursts in flight,
/// whose words starting at or after the final instant are not charged.
#[test]
fn runs_end_with_bursts_in_flight() {
    let app = pipeline_app("p", &[50, 80, 60], 512, &[1], None);
    let m = fixed_case(&app, 3, Interconnect::fsl(), |_| {}, 2, UNBOUNDED);
    assert!(m.is_ok(), "{m:?}");
}

/// A send or receive entry of zero tokens still moves one word per visit,
/// as a word-by-word run moves a word before it checks the entry's count.
#[test]
fn zero_token_entries_move_one_word_per_visit() {
    let zero = |m: &mut Mapping| {
        for entry in m.schedules.iter_mut().flatten() {
            if let ScheduleEntry::Send { reps, .. } | ScheduleEntry::Receive { reps, .. } = entry {
                *reps = 0;
            }
        }
    };
    let app = pipeline_app("p", &[60, 60], 64, &[1], None);
    let m = fixed_case(&app, 2, Interconnect::fsl(), zero, 10, UNBOUNDED);
    assert!(matches!(m, Err(SimError::Deadlock(_))), "{m:?}");
}

/// A starved receiver (`alpha_dst = 0`) never takes a word. A pipeline's
/// source keeps sending until the small cycle budget runs out. A generated
/// chain whose sending PE then waits at a receive entry stops instead, and
/// its last instant is the last word's delivery, which is no queue event
/// of the event kernel: a budget one cycle short of it is a cycle limit.
#[test]
fn starved_receiver_gives_the_same_verdict() {
    let pipe = pipeline_app("p", &[10, 10], 64, &[1], None);
    let m = fixed_case(&pipe, 2, Interconnect::fsl(), starve, 10, 2_000);
    assert_eq!(m, Err(SimError::CycleLimit(2_000)));

    let chain = generate(&GenConfig {
        seed: 2,
        family: Family::Chain,
        actors: 4,
        ..GenConfig::default()
    })
    .unwrap();
    let m = fixed_case(&chain, 2, Interconnect::fsl(), starve, 10, UNBOUNDED);
    let Err(SimError::Deadlock(msg)) = m else {
        panic!("{m:?}");
    };
    // "no progress at cycle {last} after 0 iterations"
    let last: u64 = msg.split(' ').nth(4).unwrap().parse().unwrap();
    let m = fixed_case(&chain, 2, Interconnect::fsl(), starve, 10, last - 1);
    assert_eq!(m, Err(SimError::CycleLimit(last - 1)));
}
