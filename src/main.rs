//! `mamps` — command-line front end of the automated design flow.
//!
//! Drives the flow from XML files in the common interchange format. The
//! `COMMANDS` table lists every subcommand with its arguments and flags;
//! `mamps` with no arguments prints it.
//!
//! `--engine` selects the simulator kernel: `event` (default, discrete-
//! event) or `lockstep` (the reference oracle). Both are bit-identical by
//! contract — `scripts/sim_equiv.sh` diffs their output byte for byte over
//! the whole example corpus; the flag exists for that cross-check and for
//! perf comparison. `--trace N` prints the first `N` completed operations
//! in a diff-friendly text format.
//!
//! `map-multi` admits several applications one at a time onto one shared
//! platform (each keeping its own throughput guarantee), validates every
//! admitted guarantee with one concurrent cycle-level simulation, and
//! reports rejected applications with structured reasons. Individual
//! rejections do not fail the run; the exit code is nonzero only when a
//! validated guarantee is violated or when *no* application could be
//! admitted (nothing deployable). `dse --apps` sweeps which application
//! subsets fit each platform configuration.
//!
//! `dse --shard i/n` evaluates only the design points shard `i` of `n`
//! owns and writes them — serialized, one JSON object per line — to the
//! `--out` file instead of rendering a report; the shards of one sweep
//! can run on different machines. `dse-merge` reads the shard files back,
//! verifies they form a complete, non-overlapping partition of one sweep
//! (exit is nonzero otherwise), and renders exactly the report the
//! unsharded `mamps dse` would have printed, Pareto front included.
//!
//! Every `dse` run memoizes throughput analyses in a global in-process
//! cache. `--cache-dir DIR` makes caching persistent — and it is now
//! accepted by `map`, `remap`, `map-multi` and `simulate` too, not just
//! `dse`: the run loads the `*.jsonl` analysis-cache files *and* the
//! `pass-cache-*.jsonl` whole-pass memo files in `DIR` at startup and
//! writes its own (per-shard-named) files back. The pass cache memoizes
//! the flow passes that cost more to run than to replay (bind,
//! buffer-size, verify-shared) by input fingerprint, so a warm run
//! replays every unchanged one and reruns the cheap wire-alloc and
//! schedule — `mamps remap` is the incremental workflow: after editing
//! one WCET, only the invalidated passes re-execute, and the report stays
//! byte-identical to a cold run. `--resume f.jsonl`
//! (repeatable) seeds a sweep with the evaluated points of partial
//! shard files from a crashed run of the same sweep — a torn trailing
//! line is dropped, the rest is reused, and the output stays
//! byte-identical to a cold run. `--stats` prints cache hit/miss/insert
//! counters and a per-pass table (name, runs, cache hits, wall time) to
//! stderr.
//!
//! `dse-serve` runs the long-lived DSE coordinator service
//! ([`mamps::flow::serve`]): `dse-submit` sends it a sweep (same shape as
//! `dse`, application XML shipped inline), `dse-work` processes fetch
//! leased seq ranges and evaluate them. Ranges lease with a timeout and
//! are reassigned when a worker hangs or disconnects; every completed
//! point is spooled to a resumable shard-format JSONL under
//! `--state-dir`, so a killed coordinator resumes a resubmitted sweep
//! where it stopped; and the coordinator keeps one warm analysis + pass
//! cache across all submissions (persisted via `--cache-dir`). The
//! merged report on stdout is byte-identical to single-process
//! `mamps dse` — `scripts/serve_fault.sh` enforces that under injected
//! worker kills and a coordinator restart.
//!
//! Binding strategies (`--binder` / `--binders`) parse into a
//! [`mamps::mapping::Binder`]: `greedy` (default), `spiral`, `genetic`.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use mamps::flow::dse::cache as dse_cache;
use mamps::flow::dse::shard;
use mamps::flow::report::{render_mapping_summary, render_multi_report};
use mamps::flow::serve;
use mamps::flow::{run_flow_with_arch, run_multi_flow, FlowOptions, GuaranteeReport};
use mamps::mapping::strategy::{self, Binder};
use mamps::mapping::xml::mapping_to_xml;
use mamps::platform::gen::{synthesize, ArchSpec};
use mamps::platform::xml::{architecture_from_xml, architecture_to_xml};
use mamps::sdf::gen::{generate as generate_scenario, Family, GenConfig};
use mamps::sdf::state_space::{throughput, AnalysisOptions};
use mamps::sdf::xml::{application_from_xml, application_to_xml};
use mamps::sim::{System, WcetTimes};

/// Every accepted command shape, one row each. The synopsis is both the
/// usage line and the flag spec: `--flag PLACEHOLDER` takes a value,
/// `[--flag]` is a switch, and a flag absent from all of a command's rows
/// is rejected.
#[rustfmt::skip]
const COMMANDS: &[(&str, &str)] = &[
    ("gen", "--out DIR [--seed S] [--family chain|split-join|tree|cyclic|mixed] [--actors N] [--count K] [--arch fsl:N|mesh:WxH] [--max-rate R] [--slack K]"),
    ("analyze", "<app.xml>"),
    ("map", "<app.xml> <arch.xml> [mapping-out.xml] [--binder <name>] [--cache-dir DIR] [--stats]"),
    ("remap", "<app.xml> <arch.xml> [mapping-out.xml] [--binder <name>] --cache-dir DIR [--stats]"),
    ("map-multi", "<app.xml>... <arch.xml> [--binder <name>] [--iters N] [--gantt COLS] [--engine event|lockstep] [--cache-dir DIR] [--stats]"),
    ("generate", "<app.xml> <arch.xml> <out-dir>"),
    ("simulate", "<app.xml> <arch.xml> [iterations] [--engine event|lockstep] [--gantt COLS] [--trace N] [--cache-dir DIR] [--stats]"),
    ("dse", "<app.xml> <max-tiles> [--jobs N] [--binders a,b,c] [--shard i/n --out f.jsonl] [--cache-dir DIR] [--resume f.jsonl]... [--stats]"),
    ("dse", "<max-tiles> --apps a.xml,b.xml [--jobs N] [--binders a,b,c] [--shard i/n --out f.jsonl] [--cache-dir DIR] [--resume f.jsonl]... [--stats]"),
    ("dse-merge", "<points.jsonl>..."),
    ("dse-serve", "--socket S [--state-dir DIR] [--cache-dir DIR] [--lease-timeout MS] [--chunk N]"),
    ("dse-work", "--socket S [--jobs N]"),
    ("dse-submit", "<app.xml> <max-tiles> --socket S [--binders a,b,c] [--stats]"),
    ("dse-submit", "<max-tiles> --apps a.xml,b.xml --socket S [--binders a,b,c] [--stats]"),
];

fn usage() -> ExitCode {
    eprintln!("usage:");
    for (name, synopsis) in COMMANDS {
        eprintln!("  mamps {name:<10} {synopsis}");
    }
    eprintln!("binders: {}", strategy::names().join(", "));
    ExitCode::from(2)
}

/// A command line parsed against its command's `COMMANDS` rows: the
/// positional arguments, and every `--flag` with its value (empty for a
/// switch) in command-line order.
struct Args {
    cmd: String,
    pos: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parses `args` against the rows of `cmd`; `Ok(None)` when `cmd` is
    /// not a command. A flag outside the rows, or a value flag without a
    /// value, is an error. A value never starts with `--`, so a missing
    /// value does not swallow the next flag.
    fn parse(cmd: &str, args: &[String]) -> Result<Option<Args>, String> {
        let mut rows = COMMANDS.iter().filter(|(name, _)| *name == cmd).peekable();
        if rows.peek().is_none() {
            return Ok(None);
        }
        let specs: Vec<(&str, bool)> = rows
            .flat_map(|(_, synopsis)| synopsis.split_whitespace())
            .filter_map(|word| {
                let flag = word.trim_start_matches('[').strip_prefix("--")?;
                Some(match flag.strip_suffix(']') {
                    Some(switch) => (switch, false),
                    None => (flag, true),
                })
            })
            .collect();
        let mut parsed = Args {
            cmd: cmd.to_string(),
            pos: Vec::new(),
            flags: Vec::new(),
        };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let Some(name) = arg.strip_prefix("--") else {
                parsed.pos.push(arg.clone());
                continue;
            };
            let &(_, takes_value) = specs
                .iter()
                .find(|(flag, _)| *flag == name)
                .ok_or_else(|| format!("unknown flag `--{name}`"))?;
            let value = if takes_value {
                rest.next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("flag `--{name}` needs a value"))?
                    .clone()
            } else {
                String::new()
            };
            parsed.flags.push((name.to_string(), value));
        }
        Ok(Some(parsed))
    }

    /// Every value of `--name`, in command-line order.
    fn values(&self, name: &'static str) -> impl Iterator<Item = &str> {
        self.flags
            .iter()
            .filter(move |(flag, _)| flag == name)
            .map(|(_, value)| value.as_str())
    }

    /// The last value of `--name`: a repeated flag overrides itself.
    fn value(&self, name: &'static str) -> Option<&str> {
        self.values(name).last()
    }

    /// The last value of a mandatory `--name`.
    fn required(&self, name: &'static str, placeholder: &str) -> Result<&str, String> {
        self.value(name)
            .ok_or_else(|| format!("`mamps {}` requires `--{name} {placeholder}`", self.cmd))
    }

    /// The last value of `--name`, read by `read`. Every occurrence is
    /// read, so a bad value fails even when a later one overrides it.
    fn get<T, E: Into<Box<dyn std::error::Error>>>(
        &self,
        name: &'static str,
        read: impl Fn(&str) -> Result<T, E>,
    ) -> Result<Option<T>, Box<dyn std::error::Error>> {
        let all = self.values(name).map(read).collect::<Result<Vec<_>, _>>();
        Ok(all.map_err(Into::into)?.pop())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Set on SIGTERM/SIGINT; `dse-serve` runs its coordinator until it is.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn request_stop(_signum: i32) {
    STOP.store(true, Ordering::SeqCst);
}

/// Routes SIGTERM and SIGINT to [`request_stop`], so `dse-serve` shuts
/// down gracefully (spools flushed, caches persisted, exit 0). SIGPIPE
/// needs nothing: the Rust runtime ignores it, so a vanished peer is a
/// `BrokenPipe` error on its own connection only.
fn stop_on_signals() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: the declaration matches C's `signal(int, sighandler_t)`
    // (`int` is `i32` and a handler is pointer-sized on every Unix
    // target), both signal numbers are valid, and the handler only
    // stores to an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGTERM, request_stop as *const () as usize);
        signal(SIGINT, request_stop as *const () as usize);
    }
}

// Both loaders prefix errors with the offending file, so a failing
// scenario out of a whole generated corpus is diagnosable from the
// message alone (the parser adds line/column context).
fn load_app(path: &str) -> Result<mamps::sdf::model::ApplicationModel, Box<dyn std::error::Error>> {
    let xml = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    application_from_xml(&xml).map_err(|e| format!("{path}: {e}").into())
}

fn load_arch(
    path: &str,
) -> Result<mamps::platform::arch::Architecture, Box<dyn std::error::Error>> {
    let xml = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    architecture_from_xml(&xml).map_err(|e| format!("{path}: {e}").into())
}

/// Parses a simulated iteration count. The steady-state throughput is
/// measured between iteration completions, so a run shorter than two
/// iterations measures nothing and is rejected.
fn parse_iters(value: &str) -> Result<u64, Box<dyn std::error::Error>> {
    let iters: u64 = value.parse()?;
    if iters < 2 {
        return Err(format!(
            "iteration count {iters} is too small: at least 2 iterations are \
             needed to measure a steady-state throughput"
        )
        .into());
    }
    Ok(iters)
}

/// Writes a shard run's JSON lines and prints the one-line summary the
/// report would otherwise occupy.
fn write_shard(s: &shard::DseShard, path: &str) -> Result<(), Box<dyn std::error::Error>> {
    std::fs::write(path, s.to_jsonl())?;
    println!(
        "shard {}: {} of {} design points evaluated -> {path}",
        s.header.shard,
        s.records.len(),
        s.header.total_configs
    );
    Ok(())
}

/// The caches and pass runner a run was configured with, for persisting
/// and reporting after the flow completes.
struct RunCaches {
    dir: Option<std::path::PathBuf>,
    analysis: Option<std::sync::Arc<mamps::sdf::GlobalAnalysisCache>>,
    passes: std::sync::Arc<mamps::sdf::PassCache>,
    runner: std::sync::Arc<mamps::mapping::PassRunner>,
    /// What `dir` held for the analysis and the pass cache.
    warmed: Option<(dse_cache::CacheDirLoad, dse_cache::CacheDirLoad)>,
    show_stats: bool,
    started: std::time::Instant,
}

/// `--cache-dir DIR` and `--stats`: where the caches persist and whether
/// to report them. The only reader of both flags.
fn cache_flags(args: &Args) -> (Option<std::path::PathBuf>, bool) {
    (
        args.value("cache-dir").map(std::path::PathBuf::from),
        args.values("stats").next().is_some(),
    )
}

/// Wires the analysis cache, the whole-pass memo cache and the pass
/// runner into `opts`, as requested by `--cache-dir` / `--stats`.
///
/// * `--cache-dir DIR` warms both caches from `DIR` and attaches them, so
///   unchanged passes (and repeated analyses) replay from previous runs;
///   [`finish_caches`] persists them back.
/// * `--stats` alone attaches an uncached runner, purely for the
///   per-pass wall-time table.
/// * `always_analysis` (the `dse` sweep) attaches the in-process analysis
///   cache even without a cache directory, as sweeps always did.
///
/// Returns `None` when nothing was requested: the flow then runs with
/// zero cache or accounting overhead.
fn setup_caches(
    opts: &mut FlowOptions,
    args: &Args,
    always_analysis: bool,
) -> Result<Option<RunCaches>, Box<dyn std::error::Error>> {
    let (cache_dir, show_stats) = cache_flags(args);
    if cache_dir.is_none() && !show_stats && !always_analysis {
        return Ok(None);
    }
    let passes = std::sync::Arc::new(mamps::sdf::PassCache::new());
    let mut analysis = None;
    let mut warmed = None;
    if cache_dir.is_some() || always_analysis {
        let cache = std::sync::Arc::new(mamps::sdf::GlobalAnalysisCache::new());
        if let Some(dir) = &cache_dir {
            warmed = Some((
                dse_cache::load_cache_dir(&cache, dir)?,
                dse_cache::load_cache_dir(&passes, dir)?,
            ));
        }
        opts.map.cache = Some(std::sync::Arc::clone(&cache));
        analysis = Some(cache);
    }
    let runner = if cache_dir.is_some() {
        std::sync::Arc::new(mamps::mapping::PassRunner::with_cache(
            std::sync::Arc::clone(&passes),
        ))
    } else {
        std::sync::Arc::new(mamps::mapping::PassRunner::new())
    };
    opts.map.passes = Some(std::sync::Arc::clone(&runner));
    Ok(Some(RunCaches {
        dir: cache_dir,
        analysis,
        passes,
        runner,
        warmed,
        show_stats,
        started: std::time::Instant::now(),
    }))
}

/// Persists the caches of [`setup_caches`] back to their directory and
/// prints the `--stats` report. Stats go to stderr: wall times (and
/// hit/miss counts under parallel evaluation) are nondeterministic, and
/// stdout must stay byte-comparable across cold, warm and incremental
/// runs.
fn finish_caches(c: &RunCaches, spec: shard::ShardSpec) -> Result<(), Box<dyn std::error::Error>> {
    // A cache directory always comes with an analysis cache.
    if let (Some(dir), Some(a)) = (&c.dir, &c.analysis) {
        let apath = dse_cache::persist_cache(a, dir, spec)?;
        let ppath = dse_cache::persist_cache(&c.passes, dir, spec)?;
        if c.show_stats {
            let (na, np) = (a.len(), c.passes.len());
            eprintln!("cache persisted: {na} entries -> {}", apath.display());
            eprintln!("pass cache persisted: {np} entries -> {}", ppath.display());
        }
    }
    if c.show_stats {
        if let Some((a, p)) = &c.warmed {
            eprintln!("cache warmed from disk: {a}");
            eprintln!("pass cache warmed from disk: {p}");
        }
        if let Some(a) = &c.analysis {
            eprintln!("analysis cache: {}", a.stats());
        }
        if c.runner.cache().is_some() {
            eprintln!("pass cache: {}", c.passes.stats());
        }
        eprintln!(
            "pass wall time (run total {:.1?}):\n{}",
            c.started.elapsed(),
            c.runner.report()
        );
    }
    Ok(())
}

/// The options every flow run starts from, with `--binder`, `--engine`
/// and `--jobs` applied (`--jobs 0` is one worker per available core).
/// The only reader of the three flags.
fn flow_options(args: &Args) -> Result<FlowOptions, Box<dyn std::error::Error>> {
    let mut opts = FlowOptions::default();
    if let Some(binder) = args.get("binder", str::parse::<Binder>)? {
        opts.map.bind.strategy = binder;
    }
    if let Some(engine) = args.get("engine", str::parse)? {
        opts.sim_engine = engine;
    }
    if let Some(jobs) = args.get("jobs", str::parse::<usize>)? {
        opts.jobs = if jobs == 0 {
            mamps::flow::parallel::default_jobs()
        } else {
            jobs
        };
    }
    Ok(opts)
}

/// The sweep `dse` and `dse-submit` run: `<app.xml> <max-tiles>` is a
/// binder sweep, `<max-tiles> --apps a.xml,b.xml` a use-case sweep, both
/// over tile counts `1..=max`, FSL and NoC, and the `--binders`.
struct SweepShape {
    mode: shard::SweepMode,
    app_paths: Vec<String>,
    tile_counts: Vec<usize>,
    binders: Vec<Binder>,
}

/// Parses the sweep's shape from the positional arguments and the
/// `--apps` / `--binders` flags, the only reader of both; `None` is a
/// usage error. Binder names and max-tiles are checked here, so
/// `dse-submit` fails locally on an unknown binder or an out-of-range
/// tile count instead of after a coordinator round trip.
fn sweep_shape(args: &Args) -> Result<Option<SweepShape>, Box<dyn std::error::Error>> {
    let list = |v: &str| -> Vec<String> {
        v.split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    };
    let apps = args.value("apps").map(list);
    let binders = args
        .get("binders", |v| {
            list(v).iter().map(|b| b.parse::<Binder>()).collect()
        })?
        .unwrap_or_default();
    let (mode, app_paths, max) = match (apps, &args.pos[..]) {
        (Some(paths), [max]) => (shard::SweepMode::UseCases, paths, max),
        (None, [app, max]) => (shard::SweepMode::Binders, vec![app.clone()], max),
        _ => return Ok(None),
    };
    let tile_counts =
        shard::tile_counts_up_to(max.parse()?).map_err(|e| format!("<max-tiles> {e}"))?;
    Ok(Some(SweepShape {
        mode,
        app_paths,
        tile_counts,
        binders,
    }))
}

fn run(argv: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Ok(usage());
    };
    let Some(args) = Args::parse(cmd, rest)? else {
        return Ok(usage());
    };
    let pos = &args.pos;
    match cmd.as_str() {
        // Seeded scenario generation: writes `--count` application XMLs
        // (plus one platform XML and a manifest) into `--out`. Fully
        // deterministic — equal flags produce byte-identical files — and
        // every emitted scenario is verified to round-trip the
        // interchange parser before it is written.
        "gen" => {
            if !pos.is_empty() {
                return Ok(usage());
            }
            let seed: u64 = args.get("seed", str::parse)?.unwrap_or(1);
            // None = mixed
            let family: Option<Family> = args
                .get("family", |v| match v {
                    "mixed" => Ok(None),
                    f => f.parse().map(Some),
                })?
                .flatten();
            let actors: usize = args.get("actors", str::parse)?.unwrap_or(6);
            let count = args
                .get("count", str::parse::<usize>)?
                .map_or(1, |c| c.max(1));
            let arch_spec: ArchSpec = args
                .get("arch", str::parse)?
                .unwrap_or(ArchSpec::Fsl { tiles: 3 });
            let max_rate: u64 = args.get("max-rate", str::parse)?.unwrap_or(3);
            let slack: Option<u64> = args.get("slack", str::parse)?;
            let dir = std::path::PathBuf::from(args.required("out", "DIR")?);

            // Nothing is written until every file is generated and checked.
            let arch = synthesize(&arch_spec, &format!("gen_{}", arch_spec.slug()))?;
            let arch_xml = architecture_to_xml(&arch);
            if architecture_to_xml(&architecture_from_xml(&arch_xml)?) != arch_xml {
                return Err("generated platform does not round-trip the parser".into());
            }
            let arch_file = format!("arch_{}.xml", arch_spec.slug());
            let mut files = vec![(arch_file.clone(), arch_xml)];
            let mut manifest = String::new();
            for k in 0..count {
                let cfg = GenConfig {
                    seed: seed + k as u64,
                    family: family.unwrap_or(Family::ALL[k % Family::ALL.len()]),
                    actors,
                    max_rate,
                    constraint_slack: slack,
                    ..GenConfig::default()
                };
                let app = generate_scenario(&cfg)?;
                let xml = application_to_xml(&app);
                let reparsed = application_from_xml(&xml)
                    .map_err(|e| format!("generated scenario does not re-parse: {e}"))?;
                if application_to_xml(&reparsed) != xml {
                    return Err(format!(
                        "scenario {} does not round-trip the parser byte-identically",
                        app.graph().name()
                    )
                    .into());
                }
                let file = format!("{}_s{}.xml", cfg.family.slug(), cfg.seed);
                let channels = app.graph().channels().count();
                manifest.push_str(&format!(
                    "app={file} arch={arch_file} family={} seed={} actors={} channels={} constrained={}\n",
                    cfg.family,
                    cfg.seed,
                    app.graph().actors().count(),
                    channels,
                    if slack.is_some() { "yes" } else { "no" },
                ));
                files.push((file, xml));
            }
            files.push(("manifest.txt".into(), manifest));
            std::fs::create_dir_all(&dir)?;
            for (file, text) in &files {
                std::fs::write(dir.join(file), text)?;
            }
            println!(
                "generated {count} scenario(s) ({} arch {arch_spec}) -> {}",
                if family.is_none() {
                    "mixed families,".to_string()
                } else {
                    format!("family {},", family.unwrap_or(Family::Chain))
                },
                dir.display()
            );
            Ok(ExitCode::SUCCESS)
        }
        "analyze" => {
            let [path] = &pos[..] else {
                return Ok(usage());
            };
            let app = load_app(path)?;
            let q = mamps::sdf::repetition::repetition_vector(app.graph())?;
            println!(
                "graph `{}` is consistent; repetition vector:",
                app.graph().name()
            );
            for (aid, a) in app.graph().actors() {
                println!("  {:<16} q = {}", a.name(), q.of(aid));
            }
            let t = throughput(app.graph(), &AnalysisOptions::default())?;
            println!(
                "unbounded self-timed throughput: {} iterations/cycle ({:.0} cycles/iteration)",
                t.iterations_per_cycle,
                t.cycles_per_iteration()
            );
            Ok(ExitCode::SUCCESS)
        }
        // `remap` is `map` with a mandatory `--cache-dir`: the incremental
        // re-mapping workflow. Identical code path, so its stdout is
        // byte-identical to `map`'s by construction.
        "map" | "remap" => {
            if pos.len() < 2 || pos.len() > 3 {
                return Ok(usage());
            }
            let app = load_app(&pos[0])?;
            let arch = load_arch(&pos[1])?;
            let mut opts = flow_options(&args)?;
            if cmd == "remap" && cache_flags(&args).0.is_none() {
                return Err("`mamps remap` requires `--cache-dir DIR` \
                            (the pass cache is what makes re-mapping incremental)"
                    .into());
            }
            let caches = setup_caches(&mut opts, &args, false)?;
            let flow = run_flow_with_arch(&app, arch, &opts)?;
            println!(
                "guaranteed worst-case throughput: {:.6e} iterations/cycle ({:.0} cycles/iteration)",
                flow.guaranteed_throughput(),
                1.0 / flow.guaranteed_throughput()
            );
            print!("{}", render_mapping_summary(&app, &flow.arch, &flow.mapped));
            if let Some(out) = pos.get(2) {
                std::fs::write(out, mapping_to_xml(&flow.mapped.mapping, app.graph()))?;
                println!("mapping written to {out}");
            }
            if let Some(c) = &caches {
                finish_caches(c, shard::ShardSpec::full())?;
            }
            Ok(ExitCode::SUCCESS)
        }
        "map-multi" => {
            if pos.len() < 2 {
                return Ok(usage());
            }
            let (app_paths, arch_path) = pos.split_at(pos.len() - 1);
            let apps = app_paths
                .iter()
                .map(|p| load_app(p))
                .collect::<Result<Vec<_>, _>>()?;
            let arch = load_arch(&arch_path[0])?;
            let mut opts = flow_options(&args)?;
            let iters = args.get("iters", parse_iters)?.unwrap_or(100);
            let gantt_cols: Option<usize> = args.get("gantt", str::parse)?;
            let caches = setup_caches(&mut opts, &args, false)?;
            let result = run_multi_flow(apps, arch, &opts, iters)?;
            print!("{}", render_multi_report(&result));
            if let Some(cols) = gantt_cols {
                // Re-run each interference group with tracing and render
                // the Gantt with one row per (worker, application), so
                // contention on shared tiles is attributable.
                for gi in 0..result.outcome.groups.len() {
                    let (m, events) = result.trace_group(gi, iters, 100_000)?;
                    let attribution = result.group_attribution(gi);
                    // Show the first few iterations: enough to see the
                    // interleaving, short enough to stay readable.
                    let until = m
                        .iteration_times
                        .get(3)
                        .or(m.iteration_times.last())
                        .copied()
                        .unwrap_or(m.total_cycles);
                    println!(
                        "gantt of interference group {gi} ({}):",
                        attribution.names.join(" + ")
                    );
                    print!(
                        "{}",
                        mamps::sim::render_gantt_labeled(
                            &events,
                            until,
                            cols.clamp(16, 512),
                            Some(&attribution)
                        )
                    );
                }
            }
            if let Some(c) = &caches {
                finish_caches(c, shard::ShardSpec::full())?;
            }
            Ok(
                if result.admitted_count() >= 1 && result.all_guarantees_hold() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                },
            )
        }
        "generate" => {
            let [app, arch, dir] = &pos[..] else {
                return Ok(usage());
            };
            let app = load_app(app)?;
            let arch = load_arch(arch)?;
            let flow = run_flow_with_arch(&app, arch, &FlowOptions::default())?;
            let dir = std::path::Path::new(dir);
            flow.project.write_to(dir)?;
            println!(
                "project ({} files, {} bytes) written to {}",
                flow.project.file_count(),
                flow.project.total_bytes(),
                dir.display()
            );
            Ok(ExitCode::SUCCESS)
        }
        "simulate" => {
            if pos.len() < 2 || pos.len() > 3 {
                return Ok(usage());
            }
            let app = load_app(&pos[0])?;
            let arch = load_arch(&pos[1])?;
            let iters = pos.get(2).map_or(Ok(200), |s| parse_iters(s))?;
            let mut opts = flow_options(&args)?;
            let gantt_cols: Option<usize> = args.get("gantt", str::parse)?;
            let trace_events: Option<usize> = args.get("trace", str::parse)?;
            let caches = setup_caches(&mut opts, &args, false)?;
            let flow = run_flow_with_arch(&app, arch, &opts)?;
            let times = WcetTimes::new(flow.mapped.mapping.binding.wcet_of.clone());
            let system = System::new(app.graph(), &flow.mapped.mapping, &flow.arch, &times)?
                .with_engine(opts.sim_engine);
            let m = if gantt_cols.is_some() || trace_events.is_some() {
                let cap = trace_events.unwrap_or(0).max(100_000);
                let (m, events) = system.run_traced(iters, u64::MAX / 4, cap)?;
                if let Some(n) = trace_events {
                    print!(
                        "{}",
                        mamps::sim::render_trace(&events[..events.len().min(n)])
                    );
                }
                if let Some(cols) = gantt_cols {
                    // Show the first few iterations, like map-multi --gantt.
                    let until = m
                        .iteration_times
                        .get(3)
                        .or(m.iteration_times.last())
                        .copied()
                        .unwrap_or(m.total_cycles);
                    print!(
                        "{}",
                        mamps::sim::render_gantt(&events, until, cols.clamp(16, 512))
                    );
                }
                m
            } else {
                system.run(iters, u64::MAX / 4)?
            };
            let rep = GuaranteeReport::new(flow.guaranteed_throughput(), m.steady_throughput());
            println!(
                "bound {:.6e}, measured {:.6e} iterations/cycle (margin {:.3}x): guarantee {}",
                rep.bound,
                rep.measured,
                rep.margin,
                if rep.holds() { "HOLDS" } else { "VIOLATED" }
            );
            if let Some(c) = &caches {
                finish_caches(c, shard::ShardSpec::full())?;
            }
            Ok(if rep.holds() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "dse" => {
            let Some(shape) = sweep_shape(&args)? else {
                return Ok(usage());
            };
            let mut opts = flow_options(&args)?;
            let spec: Option<shard::ShardSpec> = args.get("shard", str::parse)?;
            let out_path = args.value("out");
            if spec.is_some() && out_path.is_none() {
                return Err("flag `--shard` requires `--out <file.jsonl>` \
                            (sharded runs emit JSON lines, not a report)"
                    .into());
            }
            let apps = shape
                .app_paths
                .iter()
                .map(|p| load_app(p))
                .collect::<Result<Vec<_>, _>>()?;
            let sweep =
                shard::Sweep::new(shape.mode, apps, &shape.tile_counts, true, shape.binders)?;

            // The global analysis cache backs every dse run; --cache-dir
            // additionally warms it (and the whole-pass memo cache) from
            // disk and persists both afterwards.
            let caches = setup_caches(&mut opts, &args, true)?
                .expect("dse always attaches the analysis cache");

            // Partial shard files of a crashed run of this same sweep:
            // their design points are reused, not re-evaluated.
            let mut resume_shards = Vec::new();
            for path in args.values("resume") {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read resume file `{path}`: {e}"))?;
                let (s, dropped) =
                    shard::DseShard::from_jsonl_lossy(&text).map_err(|e| format!("{path}: {e}"))?;
                if dropped {
                    eprintln!("note: `{path}` ends mid-record (crashed run?); dropped that line");
                }
                resume_shards.push(s);
            }

            let spec = spec.unwrap_or_else(shard::ShardSpec::full);
            let s = sweep.run(spec, &resume_shards, &opts)?;
            match out_path {
                Some(path) => write_shard(&s, path)?,
                None => print!("{}", s.render()),
            }
            finish_caches(&caches, spec)?;
            Ok(ExitCode::SUCCESS)
        }
        "dse-merge" => {
            if pos.is_empty() {
                return Ok(usage());
            }
            let mut shards = Vec::with_capacity(pos.len());
            for path in pos {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read shard file `{path}`: {e}"))?;
                shards
                    .push(shard::DseShard::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))?);
            }
            print!("{}", shard::merge_reports(&shards)?.render());
            Ok(ExitCode::SUCCESS)
        }
        // The DSE coordinator service: runs until SIGTERM/SIGINT sets
        // `STOP`, then shuts down gracefully.
        "dse-serve" => {
            if !pos.is_empty() {
                return Ok(usage());
            }
            let mut cfg = serve::ServeConfig::default();
            if let Some(ms) = args.get("lease-timeout", str::parse)? {
                cfg.lease_timeout_ms = ms;
            }
            if let Some(chunk) = args.get("chunk", str::parse::<u64>)? {
                cfg.chunk = chunk.max(1);
            }
            (cfg.cache_dir, _) = cache_flags(&args);
            let socket = std::path::PathBuf::from(args.required("socket", "PATH")?);
            // State defaults next to the socket, so coordinator restarts
            // with the same `--socket` find their spools without extra flags.
            cfg.state_dir = args.value("state-dir").map_or_else(
                || std::path::PathBuf::from(format!("{}.state", socket.display())),
                std::path::PathBuf::from,
            );
            cfg.socket = socket;
            stop_on_signals();
            serve::run_coordinator(cfg, &STOP)?;
            Ok(ExitCode::SUCCESS)
        }
        // A worker process: fetches leased seq ranges from the coordinator
        // and evaluates them until told to shut down (or the coordinator
        // disappears — an expected event, exit 0 either way).
        "dse-work" => {
            if !pos.is_empty() {
                return Ok(usage());
            }
            let jobs = flow_options(&args)?.jobs;
            let cfg = serve::WorkerConfig {
                socket: args.required("socket", "PATH")?.into(),
                jobs,
            };
            let summary = serve::run_worker(&cfg)?;
            eprintln!(
                "dse-work: evaluated {} design point(s) in {} range(s)",
                summary.points, summary.ranges
            );
            Ok(ExitCode::SUCCESS)
        }
        // Submit a sweep to a running coordinator: same sweep shape as
        // `dse` (app XML shipped inline), report on stdout byte-identical
        // to single-process `mamps dse` on the same inputs.
        "dse-submit" => {
            let Some(shape) = sweep_shape(&args)? else {
                return Ok(usage());
            };
            let socket = std::path::PathBuf::from(args.required("socket", "PATH")?);
            let (_, show_stats) = cache_flags(&args);
            let spec = serve::SweepSpec {
                mode: shape.mode,
                apps_xml: shape
                    .app_paths
                    .iter()
                    .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")))
                    .collect::<Result<Vec<_>, _>>()?,
                tile_counts: shape.tile_counts,
                include_noc: true,
                binders: shape.binders.iter().map(|b| b.name().to_string()).collect(),
            };
            let outcome = serve::run_submit(&socket, &spec, |done, total| {
                if show_stats {
                    eprintln!("serve: {done}/{total} design points done");
                }
            })?;
            // Report on stdout (byte-comparable); counters on stderr.
            print!("{}", outcome.report);
            if show_stats {
                let s = outcome.stats;
                eprintln!(
                    "serve stats: {} design points; evaluated {}, cache hits {}, \
                     duplicates {}, reassigned {}",
                    s.total, s.evaluated, s.seeded, s.duplicates, s.reassigned
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Ok(usage()),
    }
}
