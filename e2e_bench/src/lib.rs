//! End-to-end benchmark of the mamps flow.
//!
//! Three workloads drive the flow library in-process through the same
//! public entry points as the `dse` and `map-multi` arms of the `mamps`
//! CLI (see `README.md` in this directory for why each was chosen):
//!
//! * `sweep_cold` — one binder sweep per application, fresh caches,
//!   persisted to a fresh cache directory;
//! * `sweep_warm` — the same sweeps replayed from the cache directories a
//!   cold pass wrote during set-up;
//! * `use_case_sim` — multi-application admission plus concurrent
//!   validation on two platforms.
//!
//! A run sets up the workload's inputs from the seed ([`set_up`]), then
//! repeats passes for the requested time ([`measure`]). A pass runs one
//! unit per report — a sweep or a use-case, each in a fresh process
//! ([`run_unit`]) like one CLI invocation, so its peak resident memory is
//! its own. Times are normalised to host speed by calibration rounds run
//! next to them (see [`measure`]). Traced passes add the benchmark's
//! spans and the library's counters and yield the per-layer metrics
//! instead.

pub mod env;
pub mod inputs;
pub mod metrics;
pub mod trace;
pub mod workload;

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use env::{calibrate, CALIBRATION_REF_S};
use inputs::Scale;
use metrics::{median, ratio, RunResult, END_TO_END, PER_LAYER};
use trace::Tracer;
use workload::{combined_digest, Bench, BenchError, Item, Pass, Workload};

/// The seed whose report digests are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// [`combined_digest`] of the reports of one pass at [`DEFAULT_SEED`] and
/// [`Scale::full`]: the `mamps dse` reports of both sweep workloads, and
/// the `mamps map-multi` reports of `use_case_sim`.
const PINNED_SWEEPS: u64 = 0x08d5_cf4e_5183_9e19;
const PINNED_USE_CASES: u64 = 0x6b20_1136_5be6_6f78;

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long to keep starting passes.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Worker threads of the sweeps.
    pub jobs: usize,
    /// Input size.
    pub scale: Scale,
    /// Scratch directory of this run's inputs and caches.
    pub work: PathBuf,
    /// Where traced passes append their spans.
    pub trace_file: Option<PathBuf>,
}

/// Calibration rounds after each unit; their median counts.
const CALIBRATION_ROUNDS: usize = 3;

/// Sets the workload up and returns the median normalised set-up time in
/// seconds over several repetitions, each counted in units of the faster
/// calibration round next to it (see [`measure`]); the inputs stay in
/// `cfg.work`.
///
/// `sweep_warm` repeats its whole set-up, whose cold pass dominates. The
/// others repeat generating the inputs and emitting their XML in memory,
/// and write the files once, untimed: that takes about a millisecond,
/// and the file system's latency on a shared host varies threefold
/// between runs.
///
/// # Errors
///
/// Any set-up error.
pub fn set_up(cfg: &RunConfig) -> Result<f64, BenchError> {
    let set_up = || Bench::set_up(cfg.workload, cfg.seed, &cfg.scale, &cfg.work, cfg.jobs);
    let reps = if cfg.workload == Workload::SweepWarm {
        3
    } else {
        set_up()?;
        31
    };
    // The first round also faults in the calibration's memory.
    calibrate();
    let mut before = calibrate();
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        match cfg.workload {
            Workload::SweepWarm => set_up()?,
            Workload::SweepCold => drop(black_box(inputs::sweep_apps(cfg.seed, &cfg.scale)?)),
            Workload::UseCaseSim => drop(black_box(inputs::use_cases(cfg.seed, &cfg.scale)?)),
        }
        let wall = t.elapsed().as_secs_f64();
        let after = calibrate();
        times.push(CALIBRATION_REF_S * wall / before.min(after));
        before = after;
    }
    Ok(median(&times))
}

/// Runs unit `k` of pass number `n` over the inputs [`set_up`] left in
/// `cfg.work`, in this process. A traced unit appends its spans to
/// `cfg.trace_file`.
///
/// # Errors
///
/// Any error of the unit.
pub fn run_unit(cfg: &RunConfig, n: u32, k: usize, traced: bool) -> Result<Pass, BenchError> {
    let bench = Bench::open(cfg.workload, &cfg.scale, &cfg.work, cfg.jobs)?;
    let mut tracer = Tracer::new(n, k);
    let mut pass = bench.unit(n, k, traced.then_some(&mut tracer))?;
    if let (true, Some(path)) = (traced, &cfg.trace_file) {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        std::io::Write::write_all(&mut file, tracer.to_jsonl().as_bytes())?;
    }
    let peak = env::peak_rss_mib().ok_or("VmHWM is unavailable")?;
    // Calibrate on the unit's thread, after its peak memory is read.
    let rounds: Vec<f64> = (0..CALIBRATION_ROUNDS).map(|_| calibrate()).collect();
    let cal = median(&rounds);
    for item in &mut pass.items {
        item.peak_mib = peak;
        item.cal_s = cal;
    }
    Ok(pass)
}

/// For each unit, `stat` of `value` over `passes`.
fn per_unit(passes: &[Pass], value: impl Fn(&Item) -> f64, stat: fn(&[f64]) -> f64) -> Vec<f64> {
    let units = passes.first().map_or(0, |p| p.items.len());
    (0..units)
        .map(|k| {
            stat(
                &passes
                    .iter()
                    .map(|p| value(&p.items[k]))
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Normalised wall time of one pass: for each unit, its wall time summed
/// over `passes` divided by its calibration rounds summed over them, at
/// [`CALIBRATION_REF_S`] seconds a round; summed over the units.
fn normalised_wall(passes: &[Pass]) -> f64 {
    let sum: fn(&[f64]) -> f64 = |v| v.iter().sum();
    let walls = per_unit(passes, |i| i.wall_s, sum);
    let cals = per_unit(passes, |i| i.cal_s, sum);
    let rounds: f64 = walls.iter().zip(&cals).map(|(w, c)| ratio(*w, *c)).sum();
    CALIBRATION_REF_S * rounds
}

/// The outcome of [`measure`].
#[derive(Debug, Clone)]
pub struct Measured {
    /// The result line's content.
    pub result: RunResult,
    /// Untraced passes run.
    pub passes: usize,
    /// Traced passes run.
    pub traced_passes: usize,
    /// Raw wall times of the untraced passes (sums over their units), in
    /// seconds.
    pub walls: Vec<f64>,
    /// Median calibration round next to the untraced units, in seconds.
    pub cal_s: f64,
    /// [`combined_digest`] of the reference reports.
    pub digest: u64,
}

/// Runs passes until `cfg.seconds` have passed — at least one; a traced
/// run alternates untraced and traced passes — checks every report, and
/// computes the metrics. `run(n, k, traced)` runs unit `k` of pass `n`.
///
/// `wall_s` is normalised to host speed ([`normalised_wall`]): other
/// tenants of a shared host slow cache-bound work in phases that last
/// seconds and can cover a whole run, so [`run_unit`] times
/// [`calibrate`] rounds on the unit's own thread right after the unit,
/// and each unit's wall time counts in units of their median.
/// `setup_s` is normalised the same way. `peak_rss_mb` is the median over
/// units of each unit's median over the passes. Per-layer values are
/// medians over the traced passes.
///
/// # Errors
///
/// Any pass error.
pub fn measure(
    cfg: &RunConfig,
    setup_s: f64,
    mut run: impl FnMut(u32, usize, bool) -> Result<Pass, BenchError>,
) -> Result<Measured, BenchError> {
    let bench = Bench::open(cfg.workload, &cfg.scale, &cfg.work, cfg.jobs)?;
    let mut one_pass = |n: u32, traced: bool| -> Result<Pass, BenchError> {
        let mut whole = Pass::default();
        for k in 0..bench.units() {
            whole.absorb(run(n, k, traced)?);
        }
        bench.end_pass(n)?;
        if traced {
            workload::derive_ratios(&mut whole.layers, cfg.jobs);
        }
        Ok(whole)
    };
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut n = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    loop {
        n += 1;
        plain.push(one_pass(n, false)?);
        if cfg.trace {
            n += 1;
            traced.push(one_pass(n, true)?);
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    // Reports must match the set-up cold pass (warm) or the first pass,
    // and at the default seed that reference must match the pinned one.
    let reference = match cfg.workload {
        Workload::SweepWarm => Bench::cold_reference(&cfg.work)?,
        _ => plain[0].digests(),
    };
    let pinned = match cfg.workload {
        Workload::UseCaseSim => PINNED_USE_CASES,
        _ => PINNED_SWEEPS,
    };
    let trusted = cfg.seed != DEFAULT_SEED
        || cfg.scale != Scale::full()
        || combined_digest(&reference) == pinned;
    let (mut attempted, mut failed) = (0, 0);
    for p in plain.iter().chain(&traced) {
        let (a, f) = p.check(trusted.then_some(reference.as_slice()));
        attempted += a;
        failed += f;
    }

    let walls: Vec<f64> = plain
        .iter()
        .map(|p| p.items.iter().map(|i| i.wall_s).sum())
        .collect();
    let cals: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.items.iter().map(|i| i.cal_s))
        .collect();
    let wall_s = normalised_wall(&plain);
    let mut metrics = std::collections::BTreeMap::new();
    if cfg.trace {
        for (name, _) in PER_LAYER {
            let values: Vec<f64> = traced
                .iter()
                .map(|p| p.layers.get(name).copied().unwrap_or(0.0))
                .collect();
            metrics.insert(name, median(&values));
        }
        let traced_wall = normalised_wall(&traced);
        metrics.insert("trace.overhead_frac", ratio(traced_wall - wall_s, wall_s));
    } else {
        let [wall, setup, rss, ok] = END_TO_END.map(|(n, _)| n);
        metrics.insert(wall, wall_s);
        metrics.insert(setup, setup_s);
        metrics.insert(rss, median(&per_unit(&plain, |i| i.peak_mib, median)));
        metrics.insert(ok, ratio((attempted - failed) as f64, attempted as f64));
    }
    Ok(Measured {
        result: RunResult {
            attempted,
            failed,
            metrics,
        },
        passes: plain.len(),
        traced_passes: traced.len(),
        walls,
        cal_s: median(&cals),
        digest: combined_digest(&reference),
    })
}
