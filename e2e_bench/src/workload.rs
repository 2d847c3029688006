//! The three workloads: one pass each over the flow's public entry
//! points, mirroring the `dse` and `map-multi` arms of the `mamps` CLI.

use std::collections::BTreeMap;
use std::error::Error;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mamps::flow::dse::cache::{
    load_cache_dir, load_pass_cache_dir, persist_cache, persist_pass_cache,
};
use mamps::flow::dse::shard::{explore_shard, ShardOutcome, ShardSpec};
use mamps::flow::report::{render_dse_report, render_multi_report};
use mamps::flow::{run_multi_flow, FlowOptions};
use mamps::mapping::strategy::{self, StrategyHandle};
use mamps::mapping::PassRunner;
use mamps::platform::xml::architecture_from_xml;
use mamps::sdf::xml::application_from_xml;
use mamps::sdf::{GlobalAnalysisCache, PassCache};
use mamps::sim::{System, WcetTimes};

use crate::env::cpu_seconds;
use crate::inputs::{self, sorted_entries, Scale};
use crate::metrics::ratio;
use crate::trace::Tracer;

/// Boxed error of a benchmark step.
pub type BenchError = Box<dyn Error>;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One `mamps dse` sweep per application, fresh caches, persisted.
    SweepCold,
    /// The same sweeps replayed from the cache directories a cold pass
    /// wrote during set-up.
    SweepWarm,
    /// `mamps map-multi` over seeded use-cases on two platforms.
    UseCaseSim,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::SweepCold,
        Workload::SweepWarm,
        Workload::UseCaseSim,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep_cold",
            Workload::SweepWarm => "sweep_warm",
            Workload::UseCaseSim => "use_case_sim",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over a list of report digests: one digest for a whole pass.
pub fn combined_digest(digests: &[u64]) -> u64 {
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// One unit of a pass and its report: a sweep's `mamps dse` report or a
/// use-case's `mamps map-multi` reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// FNV-1a of the rendered report.
    pub digest: u64,
    /// Operations behind it: design points of a sweep, applications of a
    /// use-case on each platform.
    pub ops: u64,
    /// Admitted applications whose simulated throughput fell below their
    /// shared guarantee.
    pub violations: u64,
    /// Wall time of the unit's calls into the flow, in seconds.
    pub wall_s: f64,
    /// Peak resident memory of the process that ran the unit, in MiB.
    pub peak_mib: f64,
    /// The median [`calibrate`](crate::env::calibrate) round that the
    /// process that ran the unit timed right after it, in seconds.
    pub cal_s: f64,
}

/// Per-layer values of one traced pass, by metric name.
pub type Layers = BTreeMap<String, f64>;

fn add(layers: &mut Layers, name: &str, v: f64) {
    *layers.entry(name.to_string()).or_insert(0.0) += v;
}

/// One pass over a workload, or one unit of it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pass {
    /// One entry per unit, in input order.
    pub items: Vec<Item>,
    /// Per-layer values; empty when untraced.
    pub layers: Layers,
}

impl Pass {
    /// Appends unit `other` to this pass; counters add up.
    pub fn absorb(&mut self, other: Pass) {
        self.items.extend(other.items);
        for (k, v) in other.layers {
            add(&mut self.layers, &k, v);
        }
    }

    /// Line-oriented text form, for handing a unit from the process that
    /// ran it to the one that measures.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for i in &self.items {
            out.push_str(&format!(
                "item {:016x} {} {} {} {} {}\n",
                i.digest, i.ops, i.violations, i.wall_s, i.peak_mib, i.cal_s
            ));
        }
        for (name, v) in &self.layers {
            out.push_str(&format!("layer {name} {v}\n"));
        }
        out
    }

    /// Parses [`Pass::to_text`].
    ///
    /// # Errors
    ///
    /// Malformed text.
    pub fn from_text(text: &str) -> Result<Pass, BenchError> {
        let mut pass = Pass::default();
        for line in text.lines() {
            match line.split(' ').collect::<Vec<_>>().as_slice() {
                ["item", digest, ops, violations, wall_s, peak_mib, cal_s] => {
                    pass.items.push(Item {
                        digest: u64::from_str_radix(digest, 16)?,
                        ops: ops.parse()?,
                        violations: violations.parse()?,
                        wall_s: wall_s.parse()?,
                        peak_mib: peak_mib.parse()?,
                        cal_s: cal_s.parse()?,
                    })
                }
                ["layer", name, v] => {
                    pass.layers.insert(name.to_string(), v.parse()?);
                }
                _ => return Err(format!("malformed unit line `{line}`").into()),
            }
        }
        Ok(pass)
    }

    /// The report digests, in input order.
    pub fn digests(&self) -> Vec<u64> {
        self.items.iter().map(|i| i.digest).collect()
    }

    /// `(attempted, failed)` against the reference digests: every
    /// operation behind a report that differs from its reference is
    /// wrong, and so is every guarantee violation. `None` marks a
    /// reference that is itself wrong.
    pub fn check(&self, reference: Option<&[u64]>) -> (u64, u64) {
        let reference = reference.filter(|r| r.len() == self.items.len());
        let attempted = self.items.iter().map(|i| i.ops).sum();
        let failed = self
            .items
            .iter()
            .enumerate()
            .map(|(k, i)| match reference {
                Some(r) if r[k] == i.digest => i.violations,
                _ => i.ops,
            })
            .sum();
        (attempted, failed)
    }
}

/// Accumulates the wall time of timed sections, so that reading counters
/// between them does not count.
struct Stopwatch {
    total: Duration,
    since: Instant,
}

impl Stopwatch {
    fn start() -> Stopwatch {
        Stopwatch {
            total: Duration::ZERO,
            since: Instant::now(),
        }
    }
    fn pause(&mut self) {
        self.total += self.since.elapsed();
    }
    fn resume(&mut self) {
        self.since = Instant::now();
    }
}

/// Optional span recording around the layer calls of a pass.
struct Spans<'a>(Option<&'a mut Tracer>);

impl Spans<'_> {
    fn open(&mut self, name: &'static str) {
        if let Some(t) = self.0.as_deref_mut() {
            t.open(name);
        }
    }
    fn close(&mut self) -> f64 {
        self.0.as_deref_mut().map_or(0.0, Tracer::close)
    }
    fn on(&self) -> bool {
        self.0.is_some()
    }
}

/// Adds a pass runner's per-pass rows to `layers`: `<pass>.ms`,
/// `<pass>.runs` and `<pass>.replays`, with `-` spelled `_`.
fn add_pass_report(layers: &mut Layers, runner: &PassRunner) {
    for p in runner.report().0 {
        let key = p.name.replace('-', "_");
        add(layers, &format!("{key}.ms"), p.nanos as f64 / 1e6);
        add(layers, &format!("{key}.runs"), p.runs as f64);
        add(layers, &format!("{key}.replays"), p.hits as f64);
    }
}

/// Σ `states_explored` over the successful analyses held by `cache`.
fn states_held(cache: &GlobalAnalysisCache) -> f64 {
    cache
        .export()
        .iter()
        .filter_map(|e| e.result.as_ref().ok())
        .map(|r| r.states_explored as f64)
        .sum()
}

/// Adds the ratios derived from a whole pass's summed counters.
pub fn derive_ratios(layers: &mut Layers, jobs: usize) {
    let get = |k: &str| layers.get(k).copied().unwrap_or(0.0);
    let host_s = get("validate_sim.ms") / 1e3;
    let derived = [
        (
            "kernel.analyses_per_point",
            ratio(get("kernel.analyses"), get("dse.points")),
        ),
        (
            "analysis_cache.hit_rate",
            ratio(
                get("analysis_cache.hits"),
                get("analysis_cache.hits") + get("analysis_cache.misses"),
            ),
        ),
        (
            "pass_cache.hit_rate",
            ratio(
                get("pass_cache.hits"),
                get("pass_cache.hits") + get("pass_cache.misses"),
            ),
        ),
        (
            "dse.parallel_eff",
            ratio(get("dse.cpu_s"), get("dse.explore_s") * jobs as f64),
        ),
        ("sim.cycles_per_host_s", ratio(get("sim.cycles"), host_s)),
        ("sim.firings_per_host_s", ratio(get("sim.firings"), host_s)),
    ];
    for (k, v) in derived {
        layers.insert(k.to_string(), v);
    }
}

/// A prepared workload: its inputs listed, ready to run units. A unit is
/// one `mamps dse` sweep, or one use-case admitted by `mamps map-multi`
/// onto each platform; a pass is every unit in input order.
#[derive(Debug)]
pub struct Bench {
    workload: Workload,
    work: PathBuf,
    scale: Scale,
    jobs: usize,
    binders: Vec<StrategyHandle>,
    /// Application files (sweeps) or use-case directories.
    inputs: Vec<PathBuf>,
}

impl Bench {
    /// Directory of the generated inputs inside `work`.
    fn inputs_dir(work: &Path) -> PathBuf {
        work.join("inputs")
    }

    /// Root of the cache directories the set-up cold pass fills for
    /// `sweep_warm`.
    fn warm_cache(work: &Path) -> PathBuf {
        work.join("warm-cache")
    }

    /// Root of the fresh cache directories of cold pass `n`.
    fn cold_cache(work: &Path, n: u32) -> PathBuf {
        work.join("cold-cache").join(n.to_string())
    }

    /// File holding the set-up cold pass's report digests.
    fn reference_file(work: &Path) -> PathBuf {
        work.join("reference.txt")
    }

    /// Generates the workload's inputs from `seed` into `work` (replacing
    /// earlier ones) and, for `sweep_warm`, runs the cold pass that fills
    /// the cache directories and records its report digests.
    ///
    /// # Errors
    ///
    /// Generator, I/O and flow errors.
    pub fn set_up(
        workload: Workload,
        seed: u64,
        scale: &Scale,
        work: &Path,
        jobs: usize,
    ) -> Result<(), BenchError> {
        for dir in [Bench::inputs_dir(work), Bench::warm_cache(work)] {
            if dir.exists() {
                fs::remove_dir_all(&dir)?;
            }
        }
        let dir = Bench::inputs_dir(work);
        match workload {
            Workload::SweepCold | Workload::SweepWarm => {
                inputs::write_sweep_inputs(seed, scale, &dir)?
            }
            Workload::UseCaseSim => inputs::write_use_case_inputs(seed, scale, &dir)?,
        }
        if workload == Workload::SweepWarm {
            let cold = Bench::open(Workload::SweepCold, scale, work, jobs)?;
            let mut lines = Vec::with_capacity(cold.units());
            for path in &cold.inputs {
                let item = cold.sweep(path, &Bench::warm_cache(work), None)?;
                lines.push(format!("{:016x}", item.items[0].digest));
            }
            fs::write(Bench::reference_file(work), lines.join("\n"))?;
        }
        Ok(())
    }

    /// Opens the inputs [`Bench::set_up`] wrote into `work`.
    ///
    /// # Errors
    ///
    /// I/O errors listing the inputs, or an unknown binder name.
    pub fn open(
        workload: Workload,
        scale: &Scale,
        work: &Path,
        jobs: usize,
    ) -> Result<Bench, BenchError> {
        let binders = scale
            .binders
            .iter()
            .map(|b| strategy::by_name(b).ok_or_else(|| format!("unknown binder `{b}`")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Bench {
            workload,
            work: work.to_path_buf(),
            scale: scale.clone(),
            jobs,
            binders,
            inputs: sorted_entries(&Bench::inputs_dir(work))?,
        })
    }

    /// The report digests of the set-up cold pass (`sweep_warm` only).
    ///
    /// # Errors
    ///
    /// I/O errors, or a malformed file.
    pub fn cold_reference(work: &Path) -> Result<Vec<u64>, BenchError> {
        fs::read_to_string(Bench::reference_file(work))?
            .lines()
            .map(|l| u64::from_str_radix(l, 16).map_err(Into::into))
            .collect()
    }

    /// Units of one pass.
    pub fn units(&self) -> usize {
        self.inputs.len()
    }

    /// Runs unit `k` of pass number `n`; `tracer` makes it traced. The
    /// result holds one item (its `peak_mib` left for the caller to
    /// read) and, when traced, the unit's summed counters (ratios come
    /// from [`derive_ratios`] over the whole pass).
    ///
    /// # Errors
    ///
    /// I/O errors, malformed inputs, and flow errors.
    pub fn unit(&self, n: u32, k: usize, tracer: Option<&mut Tracer>) -> Result<Pass, BenchError> {
        let input = self.inputs.get(k).ok_or("unit index out of range")?;
        match self.workload {
            // Every cold pass persists into fresh directories.
            Workload::SweepCold => self.sweep(input, &Bench::cold_cache(&self.work, n), tracer),
            Workload::SweepWarm => self.sweep(input, &Bench::warm_cache(&self.work), tracer),
            Workload::UseCaseSim => self.use_case(input, tracer),
        }
    }

    /// Removes what pass number `n` left behind.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn end_pass(&self, n: u32) -> Result<(), BenchError> {
        let dir = Bench::cold_cache(&self.work, n);
        if dir.exists() {
            fs::remove_dir_all(dir)?;
        }
        Ok(())
    }

    /// `mamps dse <app> <max_tiles> --binders .. --jobs .. --cache-dir
    /// <root>/<app>`.
    fn sweep(
        &self,
        path: &Path,
        root: &Path,
        tracer: Option<&mut Tracer>,
    ) -> Result<Pass, BenchError> {
        let mut spans = Spans(tracer);
        let mut layers = Layers::new();
        let tiles: Vec<usize> = (1..=self.scale.max_tiles).collect();
        let dir = root.join(path.file_stem().ok_or("input without a file name")?);
        let mut clock = Stopwatch::start();
        spans.open("sweep");

        spans.open("xml.parse");
        let app = application_from_xml(&fs::read_to_string(path)?)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let parse_ms = spans.close();

        spans.open("cache_dir.load");
        let analysis = Arc::new(GlobalAnalysisCache::new());
        let passes = Arc::new(PassCache::new());
        load_cache_dir(&analysis, &dir)?;
        load_pass_cache_dir(&passes, &dir)?;
        let load_ms = spans.close();

        let runner = Arc::new(PassRunner::with_cache(Arc::clone(&passes)));
        let mut opts = FlowOptions {
            jobs: self.jobs,
            binders: self.binders.clone(),
            ..FlowOptions::default()
        };
        opts.map.cache = Some(Arc::clone(&analysis));
        opts.map.passes = Some(Arc::clone(&runner));

        clock.pause();
        let (held_before, cpu_before) = if spans.on() {
            (states_held(&analysis), cpu_seconds().unwrap_or(0.0))
        } else {
            (0.0, 0.0)
        };
        clock.resume();

        spans.open("dse.explore");
        let shard = explore_shard(&app, &tiles, true, &opts);
        let explore_ms = spans.close();
        clock.pause();
        let cpu_s = if spans.on() {
            cpu_seconds().unwrap_or(0.0) - cpu_before
        } else {
            0.0
        };
        let points = shard.records.len() as u64;
        let feasible = shard
            .records
            .iter()
            .filter(|r| matches!(r.outcome, ShardOutcome::Point(_)))
            .count() as u64;
        clock.resume();

        spans.open("report.render");
        let report = render_dse_report(&shard.into_dse_report());
        spans.close();

        spans.open("cache_dir.persist");
        let ppath = persist_pass_cache(&passes, &dir, ShardSpec::full())?;
        let apath = persist_cache(&analysis, &dir, ShardSpec::full())?;
        let persist_ms = spans.close();
        spans.close();
        clock.pause();

        if spans.on() {
            let a = analysis.stats();
            let p = passes.stats();
            add_pass_report(&mut layers, &runner);
            add(&mut layers, "xml.parse_ms", parse_ms);
            add(&mut layers, "cache_dir.load_ms", load_ms);
            add(&mut layers, "cache_dir.persist_ms", persist_ms);
            let bytes = fs::metadata(&ppath)?.len() + fs::metadata(&apath)?.len();
            add(&mut layers, "cache_dir.bytes", bytes as f64);
            // A miss that inserts is one kernel run; racing workers may
            // both miss one key, but only one inserts it.
            add(&mut layers, "kernel.analyses", a.inserts as f64);
            if a.inserts > 0 {
                add(
                    &mut layers,
                    "kernel.states",
                    states_held(&analysis) - held_before,
                );
            }
            add(&mut layers, "analysis_cache.hits", a.hits as f64);
            add(&mut layers, "analysis_cache.misses", a.misses as f64);
            add(&mut layers, "analysis_cache.entries", a.entries as f64);
            add(&mut layers, "pass_cache.hits", p.hits as f64);
            add(&mut layers, "pass_cache.misses", p.misses as f64);
            add(&mut layers, "dse.points", points as f64);
            add(&mut layers, "dse.feasible", feasible as f64);
            add(&mut layers, "dse.skipped", (points - feasible) as f64);
            add(&mut layers, "dse.cpu_s", cpu_s);
            add(&mut layers, "dse.explore_s", explore_ms / 1e3);
        }
        Ok(Pass {
            items: vec![Item {
                digest: fnv1a(report.as_bytes()),
                ops: points,
                violations: 0,
                wall_s: clock.total.as_secs_f64(),
                peak_mib: 0.0,
                cal_s: 0.0,
            }],
            layers,
        })
    }

    /// `mamps map-multi <apps> <arch> --iters N` for each platform of the
    /// use-case (with `--stats` when traced: an uncached pass runner for
    /// the timings). The item's digest covers both reports.
    fn use_case(&self, dir: &Path, tracer: Option<&mut Tracer>) -> Result<Pass, BenchError> {
        let mut spans = Spans(tracer);
        let mut layers = Layers::new();
        let iters = self.scale.sim_iterations;
        let app_paths = sorted_entries(&dir.join("apps"))?;
        let arch_paths = sorted_entries(&dir.join("archs"))?;
        let mut reports = String::new();
        let (mut ops, mut violations) = (0, 0);
        let mut clock = Stopwatch::start();
        for arch_path in &arch_paths {
            spans.open("use_case");

            spans.open("xml.parse");
            let arch = architecture_from_xml(&fs::read_to_string(arch_path)?)
                .map_err(|e| format!("{}: {e}", arch_path.display()))?;
            let apps = app_paths
                .iter()
                .map(|p| -> Result<_, BenchError> {
                    application_from_xml(&fs::read_to_string(p)?)
                        .map_err(|e| format!("{}: {e}", p.display()).into())
                })
                .collect::<Result<Vec<_>, _>>()?;
            let parse_ms = spans.close();

            let runner = spans.on().then(|| Arc::new(PassRunner::new()));
            let mut opts = FlowOptions::default();
            opts.map.passes = runner.clone();
            spans.open("multi_flow");
            let result = run_multi_flow(apps, arch, &opts, iters)?;
            spans.close();

            spans.open("report.render");
            reports.push_str(&render_multi_report(&result));
            spans.close();
            spans.close();
            clock.pause();

            let admitted = result.sections.iter().filter(|s| s.admitted).count();
            ops += result.sections.len() as u64;
            violations += result
                .sections
                .iter()
                .filter(|s| s.admitted && !s.guarantee.as_ref().is_some_and(|g| g.holds()))
                .count() as u64;
            if let Some(runner) = &runner {
                add_pass_report(&mut layers, runner);
                add(&mut layers, "xml.parse_ms", parse_ms);
                add(
                    &mut layers,
                    "admission.ms",
                    result.timings.mapping.as_secs_f64() * 1e3,
                );
                add(&mut layers, "admission.admitted", admitted as f64);
                add(
                    &mut layers,
                    "admission.rejected",
                    (result.sections.len() - admitted) as f64,
                );
                // The validation runs keep their measurements to
                // themselves: re-run each interference group exactly as
                // `run_multi_flow` does (same system, engine and iteration
                // count), outside the timed region, to count its simulated
                // cycles and firings.
                for g in &result.outcome.groups {
                    let times = WcetTimes::new(g.mapping.binding.wcet_of.clone());
                    let m = System::new_with_repetitions(
                        &g.graph,
                        &g.mapping,
                        &result.arch,
                        &times,
                        g.combined_repetitions(),
                    )?
                    .with_engine(result.sim_engine)
                    .run(iters, u64::MAX / 4)?;
                    add(&mut layers, "sim.cycles", m.total_cycles as f64);
                    add(
                        &mut layers,
                        "sim.firings",
                        m.firings.iter().sum::<u64>() as f64,
                    );
                }
            }
            clock.resume();
        }
        clock.pause();
        Ok(Pass {
            items: vec![Item {
                digest: fnv1a(reports.as_bytes()),
                ops,
                violations,
                wall_s: clock.total.as_secs_f64(),
                peak_mib: 0.0,
                cal_s: 0.0,
            }],
            layers,
        })
    }
}
