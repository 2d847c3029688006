//! The simulated MPSoC: construction from (application, mapping,
//! architecture) and the engine-independent system state.
//!
//! The simulator is an *independent* implementation of the platform
//! semantics — it shares no code with the SDF analysis beyond the
//! platform's cost model: the per-word loop cost
//! ([`TileConfig::word_cycles`](mamps_platform::tile::TileConfig::word_cycles))
//! and the per-firing [`posting_overhead`]. Agreement between the two
//! (measured >= guaranteed bound, with equality when actual firing times
//! equal the WCETs) is therefore a genuine validation of the flow,
//! mirroring the paper's FPGA measurements in Fig. 6.
//!
//! Two execution engines drive the shared `SimState`:
//!
//! * [`crate::event`] — the default discrete-event kernel: a binary-heap
//!   queue of worker completions; idle workers sleep until a channel they
//!   watch changes, and cross-tile words move in bursts up to a token
//!   boundary.
//! * [`crate::reference`] — the original lockstep engine, kept intact as
//!   the bit-exactness oracle the event kernel is validated against.
//!
//! Both produce bit-identical traces, measurements, and error verdicts;
//! [`Engine`] selects between them.

use mamps_platform::arch::Architecture;
use mamps_platform::interconnect::CommParams;
use mamps_platform::tile::TileKind;
use mamps_sdf::graph::SdfGraph;
use mamps_sdf::repetition::repetition_vector;

use mamps_mapping::comm_expand::posting_overhead;
use mamps_mapping::mapping::Mapping;

use crate::exec_time::FiringTimes;
use crate::fifo::{ChannelState, CrossChannelState, LocalChannelState, SelfEdgeState};
use crate::noc_sim::Connection;
use crate::processor::{Op, Worker, WorkerKind};
use crate::trace::{Measurement, SimError, TraceEvent};

/// Execution engine selection for [`System`].
///
/// Both engines implement identical platform semantics and are required
/// (by tests and by CI's `scripts/sim_equiv.sh`) to produce bit-identical
/// traces, measurements, and error verdicts. `Event` is the fast default;
/// `Lockstep` is the original cycle-scanning engine kept as the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Discrete-event kernel ([`crate::event`]): binary-heap queue of
    /// worker completions, idle workers sleep until woken, words move in
    /// bursts. `O(log n)` per event.
    #[default]
    Event,
    /// Lockstep reference engine ([`crate::reference`]): advances to the
    /// next event time, then rescans every worker. `O(workers)` per
    /// event instant.
    Lockstep,
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Engine, String> {
        match s {
            "event" => Ok(Engine::Event),
            "lockstep" => Ok(Engine::Lockstep),
            other => Err(format!(
                "unknown simulator engine `{other}` (expected `event` or `lockstep`)"
            )),
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Engine::Event => "event",
            Engine::Lockstep => "lockstep",
        })
    }
}

/// The engine-independent state of a simulated system: the (application,
/// mapping, architecture) inputs plus every piece of mutable run state —
/// channel FIFOs, workers, firing counters, the clock, and the optional
/// trace buffer. Both engines operate on this exact structure, which is
/// what makes their outputs comparable field by field.
pub(crate) struct SimState<'a> {
    pub(crate) graph: &'a SdfGraph,
    pub(crate) mapping: &'a Mapping,
    pub(crate) arch: &'a Architecture,
    pub(crate) times: &'a dyn FiringTimes,
    pub(crate) channels: Vec<ChannelState>,
    pub(crate) workers: Vec<Worker>,
    /// Extra cycles charged per firing (CA posting overhead), per actor.
    pub(crate) fire_overhead: Vec<u64>,
    /// Completed firings per actor.
    pub(crate) firings: Vec<u64>,
    /// Repetition count per actor (an iteration completes when every actor
    /// `a` reached `q[a]` further firings).
    pub(crate) q: Vec<u64>,
    /// Iteration completion times.
    pub(crate) iteration_times: Vec<u64>,
    pub(crate) now: u64,
    /// Recorded operations (when tracing) and the event cap.
    pub(crate) trace: Option<(Vec<TraceEvent>, usize)>,
}

impl<'a> SimState<'a> {
    fn build(
        graph: &'a SdfGraph,
        mapping: &'a Mapping,
        arch: &'a Architecture,
        times: &'a dyn FiringTimes,
        repetitions: Vec<u64>,
    ) -> Result<SimState<'a>, SimError> {
        if mapping.channels.len() != graph.channel_count() {
            return Err(SimError::Build(format!(
                "mapping has {} channel allocations for {} channels",
                mapping.channels.len(),
                graph.channel_count()
            )));
        }
        if mapping.schedules.len() != arch.tile_count() {
            return Err(SimError::Build(format!(
                "mapping has {} schedules for {} tiles",
                mapping.schedules.len(),
                arch.tile_count()
            )));
        }
        let binding = &mapping.binding;
        let mut channels = Vec::with_capacity(graph.channel_count());
        for (cid, ch) in graph.channels() {
            let alloc = mapping.channels[cid.0];
            let state = match binding.cross_tiles(ch) {
                _ if ch.is_self_edge() => ChannelState::SelfEdge(SelfEdgeState {
                    tokens: ch.initial_tokens(),
                    cons: ch.consumption_rate(),
                    prod: ch.production_rate(),
                }),
                None => {
                    if alloc.local_capacity < ch.initial_tokens() {
                        return Err(SimError::Build(format!(
                            "channel `{}` capacity below initial tokens",
                            ch.name()
                        )));
                    }
                    ChannelState::Local(LocalChannelState {
                        tokens: ch.initial_tokens(),
                        space: alloc.local_capacity - ch.initial_tokens(),
                        cons: ch.consumption_rate(),
                        prod: ch.production_rate(),
                    })
                }
                Some((src_tile_id, dst_tile_id)) => {
                    let src_tile = arch.tile(src_tile_id);
                    let dst_tile = arch.tile(dst_tile_id);
                    let n_words = mamps_platform::types::words_per_token(ch.token_size());
                    if alloc.alpha_src < ch.initial_tokens() {
                        return Err(SimError::Build(format!(
                            "channel `{}` alpha_src below initial tokens",
                            ch.name()
                        )));
                    }
                    let params = CommParams::for_connection(
                        arch.interconnect(),
                        src_tile_id,
                        dst_tile_id,
                        alloc.wires,
                    );
                    ChannelState::Cross(CrossChannelState {
                        send_words: ch.initial_tokens() * n_words,
                        src_space: alloc.alpha_src - ch.initial_tokens(),
                        srel_progress: 0,
                        conn: Connection::new(params),
                        asm_progress: 0,
                        assembled: 0,
                        dst_word_space: alloc.alpha_dst * n_words,
                        n_words,
                        ser_word: src_tile.word_cycles(n_words),
                        des_word: dst_tile.word_cycles(n_words),
                        prod: ch.production_rate(),
                        cons: ch.consumption_rate(),
                        src_tile: src_tile_id,
                        dst_tile: dst_tile_id,
                    })
                }
            };
            channels.push(state);
        }

        // Workers: one PE per tile with a non-empty schedule (IP tiles run
        // their actor autonomously), plus CA/NI engines for offloaded
        // channel endpoints.
        let mut workers = Vec::new();
        for t in 0..arch.tile_count() {
            match arch.tile(mamps_platform::types::TileId(t)).kind() {
                TileKind::HardwareIp => {
                    for a in binding.actors_on(mamps_platform::types::TileId(t)) {
                        workers.push(Worker::new(WorkerKind::Ip { actor: a }));
                    }
                }
                _ => {
                    if !mapping.schedules[t].is_empty() {
                        workers.push(Worker::new(WorkerKind::Pe { tile: t }));
                    }
                }
            }
        }
        let offloads = |t| !arch.tile(t).kind().pe_moves_tokens();
        for (cid, st) in channels.iter().enumerate() {
            if let ChannelState::Cross(c) = st {
                if offloads(c.src_tile) {
                    workers.push(Worker::new(WorkerKind::EngineSend {
                        channel: mamps_sdf::graph::ChannelId(cid),
                    }));
                }
                if offloads(c.dst_tile) {
                    workers.push(Worker::new(WorkerKind::EngineRecv {
                        channel: mamps_sdf::graph::ChannelId(cid),
                    }));
                }
            }
        }

        let fire_overhead = graph
            .actors()
            .map(|(aid, _)| posting_overhead(graph, binding, arch, aid))
            .collect();

        Ok(SimState {
            graph,
            mapping,
            arch,
            times,
            channels,
            workers,
            fire_overhead,
            firings: vec![0; graph.actor_count()],
            q: repetitions,
            iteration_times: Vec::new(),
            now: 0,
            trace: None,
        })
    }

    /// Records a completed operation of worker `w` into the trace buffer
    /// (when tracing, honoring the event cap). Shared by both engines so
    /// trace contents are identical by construction.
    pub(crate) fn record_completion(&mut self, w: usize, op: Op) {
        if let Some((events, cap)) = &mut self.trace {
            if events.len() < *cap {
                events.push(TraceEvent {
                    worker: self.workers[w].kind,
                    op,
                    start: self.workers[w].op_started,
                    end: self.now,
                });
            }
        }
    }

    /// Assembles the final [`Measurement`] from the run state. Shared by
    /// both engines so the field contents match exactly.
    pub(crate) fn measurement(&mut self) -> Measurement {
        Measurement::new(
            std::mem::take(&mut self.iteration_times),
            self.now,
            self.firings.clone(),
            self.workers
                .iter()
                .map(|w| (w.kind, w.busy_cycles))
                .collect(),
            self.arch.clock_mhz(),
        )
    }
}

/// The simulated system: engine-independent state plus the selected
/// execution engine (see [`Engine`]; defaults to the event kernel).
pub struct System<'a> {
    st: SimState<'a>,
    engine: Engine,
}

impl<'a> System<'a> {
    /// Builds a system ready to run from cycle 0.
    ///
    /// # Errors
    ///
    /// [`SimError::Build`] if the mapping and graph disagree (missing
    /// schedules, channel allocation mismatches).
    pub fn new(
        graph: &'a SdfGraph,
        mapping: &'a Mapping,
        arch: &'a Architecture,
        times: &'a dyn FiringTimes,
    ) -> Result<System<'a>, SimError> {
        let q = repetition_vector(graph).map_err(|e| SimError::Build(e.to_string()))?;
        let st = SimState::build(graph, mapping, arch, times, q.entries().to_vec())?;
        Ok(System {
            st,
            engine: Engine::default(),
        })
    }

    /// Like [`new`](Self::new) but with a caller-provided repetition
    /// vector.
    ///
    /// This is the multi-application entry point: the union graph of
    /// several applications sharing one platform is disconnected (the
    /// applications exchange no tokens), so no single repetition vector
    /// can be derived from the graph — the caller passes the members'
    /// vectors concatenated (see `mamps_mapping::multi::SharedSystem::
    /// combined_repetitions`). An "iteration" then completes when *every*
    /// application has completed one of its own iterations, which is the
    /// lockstep rate the shared static-order schedules guarantee.
    ///
    /// # Errors
    ///
    /// [`SimError::Build`] if `repetitions` does not cover every actor or
    /// contains a zero, plus the mapping/graph mismatch errors of
    /// [`new`](Self::new).
    pub fn new_with_repetitions(
        graph: &'a SdfGraph,
        mapping: &'a Mapping,
        arch: &'a Architecture,
        times: &'a dyn FiringTimes,
        repetitions: Vec<u64>,
    ) -> Result<System<'a>, SimError> {
        if repetitions.len() != graph.actor_count() {
            return Err(SimError::Build(format!(
                "repetition vector covers {} of {} actors",
                repetitions.len(),
                graph.actor_count()
            )));
        }
        if repetitions.contains(&0) {
            return Err(SimError::Build(
                "repetition vector contains a zero entry".into(),
            ));
        }
        let st = SimState::build(graph, mapping, arch, times, repetitions)?;
        Ok(System {
            st,
            engine: Engine::default(),
        })
    }

    /// Selects the execution engine (builder style).
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> System<'a> {
        self.engine = engine;
        self
    }

    /// Like [`run`](Self::run) but records up to `max_events` completed
    /// operations for trace/Gantt inspection.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_traced(
        mut self,
        iterations: u64,
        max_cycles: u64,
        max_events: usize,
    ) -> Result<(Measurement, Vec<TraceEvent>), SimError> {
        self.st.trace = Some((Vec::new(), max_events));
        let result = self.run_mut(iterations, max_cycles);
        let events_out = self.st.trace.take().map(|(ev, _)| ev).unwrap_or_default();
        result.map(|m| (m, events_out))
    }

    /// Runs until `iterations` graph iterations completed (or `max_cycles`).
    ///
    /// # Errors
    ///
    /// * [`SimError::Deadlock`] if no worker can progress and no event is
    ///   pending before the target is reached.
    /// * [`SimError::CycleLimit`] if `max_cycles` elapses first.
    pub fn run(mut self, iterations: u64, max_cycles: u64) -> Result<Measurement, SimError> {
        self.run_mut(iterations, max_cycles)
    }

    fn run_mut(&mut self, iterations: u64, max_cycles: u64) -> Result<Measurement, SimError> {
        match self.engine {
            Engine::Event => crate::event::run(&mut self.st, iterations, max_cycles),
            Engine::Lockstep => crate::reference::run(&mut self.st, iterations, max_cycles),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec_time::WcetTimes;
    use mamps_mapping::flow::{map_application, MapOptions};
    use mamps_platform::interconnect::Interconnect;
    use mamps_sdf::graph::SdfGraphBuilder;
    use mamps_sdf::model::HomogeneousModelBuilder;

    fn pipeline_app(wcets: &[u64], token_size: u64) -> mamps_sdf::model::ApplicationModel {
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

    /// End-to-end check on a single tile: two actors, sequential schedule,
    /// period = sum of WCETs.
    #[test]
    fn single_tile_sequential_period() {
        let app = pipeline_app(&[30, 70], 4);
        let arch = Architecture::homogeneous("x", 1, Interconnect::fsl()).unwrap();
        let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        let times = WcetTimes::new(mapped.mapping.binding.wcet_of.clone());
        let sys = System::new(app.graph(), &mapped.mapping, &arch, &times).unwrap();
        let m = sys.run(50, 1_000_000).unwrap();
        let thr = m.steady_throughput();
        assert!((thr - 0.01).abs() < 1e-6, "expected 1/100, got {thr}");
    }

    /// Measured (WCET) throughput must meet the analysed guarantee.
    #[test]
    fn wcet_simulation_meets_guarantee_two_tiles() {
        let app = pipeline_app(&[100, 100], 64);
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        let times = WcetTimes::new(mapped.mapping.binding.wcet_of.clone());
        let sys = System::new(app.graph(), &mapped.mapping, &arch, &times).unwrap();
        let m = sys.run(100, 10_000_000).unwrap();
        let guaranteed = mapped.analysis.as_f64();
        let measured = m.steady_throughput();
        assert!(
            measured >= guaranteed * (1.0 - 1e-9),
            "measured {measured} below guarantee {guaranteed}"
        );
    }

    /// Faster actual times can only help.
    #[test]
    fn faster_actuals_beat_wcet_run() {
        let app = pipeline_app(&[100, 100], 16);
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        let wcet = WcetTimes::new(mapped.mapping.binding.wcet_of.clone());
        let fast = WcetTimes::new(vec![50, 50]);
        let m_wcet = System::new(app.graph(), &mapped.mapping, &arch, &wcet)
            .unwrap()
            .run(100, 10_000_000)
            .unwrap();
        let m_fast = System::new(app.graph(), &mapped.mapping, &arch, &fast)
            .unwrap()
            .run(100, 10_000_000)
            .unwrap();
        assert!(m_fast.steady_throughput() > m_wcet.steady_throughput());
    }

    #[test]
    fn noc_platform_runs() {
        let app = pipeline_app(&[60, 60, 60], 32);
        let arch = Architecture::homogeneous("x", 3, Interconnect::noc_for_tiles(3)).unwrap();
        let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        let times = WcetTimes::new(mapped.mapping.binding.wcet_of.clone());
        let sys = System::new(app.graph(), &mapped.mapping, &arch, &times).unwrap();
        let m = sys.run(50, 10_000_000).unwrap();
        assert!(m.steady_throughput() > 0.0);
        assert!(m.steady_throughput() >= mapped.analysis.as_f64() * (1.0 - 1e-9));
    }

    #[test]
    fn ca_platform_outperforms_plain_for_big_tokens() {
        let app = pipeline_app(&[100, 100], 512);
        let arch_p = Architecture::homogeneous("p", 2, Interconnect::fsl()).unwrap();
        let arch_c = Architecture::homogeneous_with_ca("c", 2, Interconnect::fsl()).unwrap();
        let mp = map_application(&app, &arch_p, &MapOptions::default()).unwrap();
        let mc = map_application(&app, &arch_c, &MapOptions::default()).unwrap();
        let tp = WcetTimes::new(mp.mapping.binding.wcet_of.clone());
        let tc = WcetTimes::new(mc.mapping.binding.wcet_of.clone());
        let m_p = System::new(app.graph(), &mp.mapping, &arch_p, &tp)
            .unwrap()
            .run(60, 50_000_000)
            .unwrap();
        let m_c = System::new(app.graph(), &mc.mapping, &arch_c, &tc)
            .unwrap()
            .run(60, 50_000_000)
            .unwrap();
        assert!(
            m_c.steady_throughput() > m_p.steady_throughput(),
            "CA {} <= plain {}",
            m_c.steady_throughput(),
            m_p.steady_throughput()
        );
    }

    #[test]
    fn deadlock_reported_for_broken_mapping() {
        // Zero-capacity local buffer on a single tile: the producer can
        // never fire, nothing else is active -> hard deadlock.
        let app = pipeline_app(&[10, 10], 4);
        let arch = Architecture::homogeneous("x", 1, Interconnect::fsl()).unwrap();
        let mut mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        for c in &mut mapped.mapping.channels {
            c.local_capacity = 0;
        }
        let times = WcetTimes::new(mapped.mapping.binding.wcet_of.clone());
        let sys = System::new(app.graph(), &mapped.mapping, &arch, &times).unwrap();
        assert!(matches!(sys.run(10, 1_000_000), Err(SimError::Deadlock(_))));
    }

    #[test]
    fn starved_receiver_hits_cycle_limit_not_phantom_progress() {
        // No destination buffer space: the receiver never de-serializes, so
        // no iteration ever completes even though the sender stays busy.
        let app = pipeline_app(&[10, 10], 4);
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let mut mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        for c in &mut mapped.mapping.channels {
            c.alpha_dst = 0;
        }
        let times = WcetTimes::new(mapped.mapping.binding.wcet_of.clone());
        let sys = System::new(app.graph(), &mapped.mapping, &arch, &times).unwrap();
        match sys.run(10, 100_000) {
            Err(SimError::CycleLimit(_)) | Err(SimError::Deadlock(_)) => {}
            other => panic!("expected starvation, got {other:?}"),
        }
    }

    /// The receive-side NI queue is unbounded in both models: the
    /// simulator returns a word's credit when it arrives
    /// ([`CrossChannelState::deliver_word`]), and the analysis drains
    /// `__drn -> __des` with no capacity edge back. So a cross-tile
    /// producer twice as fast as its consumer keeps running ahead — its
    /// lead over `N·q` firings grows with `N` — while the measured
    /// throughput still meets the analysed one. Bounding the NI queue must
    /// change both models and this test together.
    #[test]
    fn fast_cross_tile_producer_runs_ahead_of_its_consumer() {
        let app = pipeline_app(&[50, 100], 4);
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        let tile_of = &mapped.mapping.binding.tile_of;
        assert_ne!(tile_of[0], tile_of[1], "the channel must cross tiles");
        let g = &mapped.expanded(app.graph(), &arch).unwrap();
        let drn = g.actor_by_name("e0__drn").unwrap();
        let des = g.actor_by_name("e0__des").unwrap();
        assert!(g.channels().all(|(_, c)| (c.src(), c.dst()) != (des, drn)));

        let times = WcetTimes::new(mapped.mapping.binding.wcet_of.clone());
        let mut leads = Vec::new();
        for n in [100, 200, 400] {
            let run = |engine| {
                System::new(app.graph(), &mapped.mapping, &arch, &times)
                    .unwrap()
                    .with_engine(engine)
                    .run(n, 10_000_000)
                    .unwrap()
            };
            let m = run(Engine::Event);
            assert_eq!(m, run(Engine::Lockstep));
            assert!(m.steady_throughput() >= mapped.analysis.as_f64() * (1.0 - 1e-9));
            // q = [1, 1]: after n iterations the consumer fired n times.
            assert_eq!(m.firings[1], n);
            leads.push(m.firings[0] - n);
        }
        // The lead grows in proportion to the run (47, 92, 183 firings):
        // the producer's tile also serializes, so it is not quite 2x.
        assert!(leads.windows(2).all(|w| w[1] > w[0]), "leads {leads:?}");
        assert!(leads[2] > 400 / 3, "leads {leads:?}");
    }

    /// Two applications admitted onto shared tiles: the union graph is
    /// disconnected, so the simulator takes the members' concatenated
    /// repetition vectors, runs both apps concurrently under the
    /// concatenated static orders, and the measured lockstep throughput
    /// must meet the shared-analysis bound.
    #[test]
    fn multi_app_union_meets_shared_bound() {
        use mamps_mapping::multi::{map_use_case, UseCase};

        let mk = |name: &str, wcets: &[u64]| {
            let n = wcets.len();
            let mut b = SdfGraphBuilder::new(name);
            let ids: Vec<_> = (0..n)
                .map(|i| b.add_actor(format!("{name}{i}"), 1))
                .collect();
            for i in 0..n - 1 {
                b.add_channel_full(format!("{name}e{i}"), ids[i], 1, ids[i + 1], 1, 0, 16);
            }
            let g = b.build().unwrap();
            let mut mb = HomogeneousModelBuilder::new("microblaze");
            for (i, &w) in wcets.iter().enumerate() {
                mb.actor(format!("{name}{i}"), w, 4096, 512);
            }
            mb.finish(g, None).unwrap()
        };
        let uc = UseCase::new(vec![mk("u", &[100, 100]), mk("v", &[40, 40, 40])]).unwrap();
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let r = map_use_case(&uc, &arch, &MapOptions::default());
        assert!(r.fully_admitted(), "rejections: {:?}", r.rejected);
        let group = &r.groups[0];
        assert_eq!(group.members.len(), 2, "apps must share tiles");

        let times = WcetTimes::new(group.mapping.binding.wcet_of.clone());
        let sys = System::new_with_repetitions(
            &group.graph,
            &group.mapping,
            &arch,
            &times,
            group.combined_repetitions(),
        )
        .unwrap();
        let m = sys.run(100, 100_000_000).unwrap();
        let bound = group.analysis.as_f64();
        let measured = m.steady_throughput();
        assert!(
            measured >= bound * (1.0 - 1e-9),
            "measured {measured} below shared bound {bound}"
        );
        // Every member progresses at least at the lockstep rate.
        for i in 0..group.members.len() {
            assert!(group.member_iterations(i, &m.firings) >= m.iteration_times.len() as u64);
        }
    }

    #[test]
    fn explicit_repetitions_validated() {
        let app = pipeline_app(&[10, 10], 4);
        let arch = Architecture::homogeneous("x", 1, Interconnect::fsl()).unwrap();
        let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        let times = WcetTimes::new(mapped.mapping.binding.wcet_of.clone());
        assert!(matches!(
            System::new_with_repetitions(app.graph(), &mapped.mapping, &arch, &times, vec![1]),
            Err(SimError::Build(_))
        ));
        assert!(matches!(
            System::new_with_repetitions(app.graph(), &mapped.mapping, &arch, &times, vec![1, 0]),
            Err(SimError::Build(_))
        ));
        // A valid explicit vector behaves exactly like `new`.
        let m =
            System::new_with_repetitions(app.graph(), &mapped.mapping, &arch, &times, vec![1, 1])
                .unwrap()
                .run(50, 1_000_000)
                .unwrap();
        assert!(m.steady_throughput() > 0.0);
    }

    #[test]
    fn cycle_limit_enforced() {
        let app = pipeline_app(&[1000, 1000], 4);
        let arch = Architecture::homogeneous("x", 1, Interconnect::fsl()).unwrap();
        let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        let times = WcetTimes::new(mapped.mapping.binding.wcet_of.clone());
        let sys = System::new(app.graph(), &mapped.mapping, &arch, &times).unwrap();
        assert!(matches!(
            sys.run(1000, 5000),
            Err(SimError::CycleLimit(5000))
        ));
    }

    #[test]
    fn engine_parses_and_displays() {
        assert_eq!("event".parse::<Engine>().unwrap(), Engine::Event);
        assert_eq!("lockstep".parse::<Engine>().unwrap(), Engine::Lockstep);
        assert!("reference".parse::<Engine>().is_err());
        assert!("cycle".parse::<Engine>().is_err());
        assert_eq!(Engine::Event.to_string(), "event");
        assert_eq!(Engine::Lockstep.to_string(), "lockstep");
        assert_eq!(Engine::default(), Engine::Event);
    }

    /// Both engines must agree bit-for-bit: identical measurements (times,
    /// firings, busy cycles), identical traces, and identical error
    /// verdicts. This is the in-crate counterpart of the corpus-wide
    /// `scripts/sim_equiv.sh` CI gate and the `engine_equiv` proptest.
    #[test]
    fn engines_agree_bit_for_bit() {
        for (wcets, tok, tiles, noc) in [
            (vec![30u64, 70], 4u64, 1usize, false),
            (vec![100, 100], 64, 2, false),
            (vec![60, 60, 60], 32, 3, true),
            (vec![25, 90, 40], 200, 4, true),
        ] {
            let app = pipeline_app(&wcets, tok);
            let ic = if noc {
                Interconnect::noc_for_tiles(tiles)
            } else {
                Interconnect::fsl()
            };
            let arch = Architecture::homogeneous("x", tiles, ic).unwrap();
            let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
            let times = WcetTimes::new(mapped.mapping.binding.wcet_of.clone());
            let run = |engine| {
                System::new(app.graph(), &mapped.mapping, &arch, &times)
                    .unwrap()
                    .with_engine(engine)
                    .run_traced(60, 50_000_000, 10_000)
                    .unwrap()
            };
            let (me, te) = run(Engine::Event);
            let (ml, tl) = run(Engine::Lockstep);
            assert_eq!(me, ml, "measurements diverge for {wcets:?}/{tok}/{tiles}");
            assert_eq!(te, tl, "traces diverge for {wcets:?}/{tok}/{tiles}");
        }
    }

    /// Error verdicts agree too: same variant, same message.
    #[test]
    fn engines_agree_on_errors() {
        let app = pipeline_app(&[10, 10], 4);
        let arch = Architecture::homogeneous("x", 1, Interconnect::fsl()).unwrap();
        let mut mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        for c in &mut mapped.mapping.channels {
            c.local_capacity = 0;
        }
        let times = WcetTimes::new(mapped.mapping.binding.wcet_of.clone());
        let run = |engine| {
            System::new(app.graph(), &mapped.mapping, &arch, &times)
                .unwrap()
                .with_engine(engine)
                .run(10, 1_000_000)
                .unwrap_err()
        };
        assert_eq!(run(Engine::Event), run(Engine::Lockstep));
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::exec_time::WcetTimes;
    use crate::trace::{render_gantt, render_trace};
    use mamps_mapping::flow::{map_application, MapOptions};
    use mamps_platform::interconnect::Interconnect;
    use mamps_sdf::graph::SdfGraphBuilder;
    use mamps_sdf::model::HomogeneousModelBuilder;

    #[test]
    fn traced_run_matches_untraced_and_renders() {
        let mut b = SdfGraphBuilder::new("t");
        let x = b.add_actor("x", 1);
        let y = b.add_actor("y", 1);
        b.add_channel_full("e", x, 1, y, 1, 0, 16);
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        mb.actor("x", 40, 2048, 256).actor("y", 70, 2048, 256);
        let app = mb.finish(g, None).unwrap();
        let arch = Architecture::homogeneous("m", 2, Interconnect::fsl()).unwrap();
        let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        let times = WcetTimes::new(mapped.mapping.binding.wcet_of.clone());

        let plain = System::new(app.graph(), &mapped.mapping, &arch, &times)
            .unwrap()
            .run(50, 10_000_000)
            .unwrap();
        let (traced, events) = System::new(app.graph(), &mapped.mapping, &arch, &times)
            .unwrap()
            .run_traced(50, 10_000_000, 500)
            .unwrap();
        assert_eq!(plain.steady_throughput(), traced.steady_throughput());
        assert!(!events.is_empty());
        assert!(events.len() <= 500);
        assert!(events.iter().all(|e| e.end >= e.start));
        let gantt = render_gantt(&events, 1000, 64);
        assert!(gantt.contains("PE tile"));
        let text = render_trace(&events);
        assert_eq!(text.lines().count(), events.len());
        assert!(text.contains("fire"));
    }
}
