//! Command-line front end of the end-to-end benchmark.
//!
//! ```text
//! mamps_e2e_bench --workload sweep_cold|sweep_warm|use_case_sim
//!                 --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! e2e_bench/Cargo.toml -- ...`). Prints an environment header line, an
//! info line, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and the metrics: end-to-end ones untraced,
//! per-layer ones with `--trace 1`.
//!
//! Set-up runs in this process; every unit of a pass (one sweep or one
//! use-case) runs in a child process (this binary with `--pass N --unit
//! K`), so that its peak resident memory is its own. Scratch files live under `.e2e_bench_work/` and are removed when
//! the run ends; traced passes append their spans to
//! `.e2e_bench_work/traces/<workload>-s<seed>.jsonl`.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use mamps_e2e_bench::env::EnvHeader;
use mamps_e2e_bench::inputs::Scale;
use mamps_e2e_bench::metrics::{END_TO_END, PER_LAYER};
use mamps_e2e_bench::workload::{BenchError, Pass, Workload};
use mamps_e2e_bench::{measure, run_unit, set_up, RunConfig};

const WORK_ROOT: &str = ".e2e_bench_work";

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed command line. `pass`, `unit`, `jobs` and `work` are set only
/// when the parent process starts a child to run one unit.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    pass: Option<u32>,
    unit: Option<usize>,
    jobs: Option<usize>,
    work: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, BenchError> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let (mut pass, mut unit, mut jobs, mut work) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag `{}` needs a value", pair[0]).into());
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload `{value}` (available: {})",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(value.parse()?),
            "--seconds" => seconds = Some(value.parse::<f64>()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("`--trace` takes 0 or 1".into()),
                })
            }
            "--pass" => pass = Some(value.parse()?),
            "--unit" => unit = Some(value.parse()?),
            "--jobs" => jobs = Some(value.parse()?),
            "--work" => work = Some(value.into()),
            _ => return Err(format!("unknown flag `{flag}`").into()),
        }
    }
    let seconds: f64 = seconds.ok_or("missing `--seconds`")?;
    if !(seconds >= 0.0 && seconds.is_finite()) {
        return Err("`--seconds` must be a non-negative number".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing `--workload`")?,
        seed: seed.ok_or("missing `--seed`")?,
        seconds,
        trace: trace.ok_or("missing `--trace`")?,
        pass,
        unit,
        jobs,
        work,
    })
}

fn run(args: Vec<String>) -> Result<(), BenchError> {
    let args = parse(&args)?;
    let name = args.workload.name();
    let mut cfg = RunConfig {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        jobs: 1,
        scale: Scale::full(),
        work: PathBuf::from(WORK_ROOT).join(format!(
            "{name}-s{}-p{}",
            args.seed,
            std::process::id()
        )),
        trace_file: Some(
            PathBuf::from(WORK_ROOT)
                .join("traces")
                .join(format!("{name}-s{}.jsonl", args.seed)),
        ),
    };
    if let (Some(n), Some(k), Some(jobs), Some(work)) = (args.pass, args.unit, args.jobs, args.work)
    {
        cfg.jobs = jobs;
        cfg.work = work;
        print!("{}", run_unit(&cfg, n, k, args.trace)?.to_text());
        return Ok(());
    }

    let env = EnvHeader::probe();
    println!("{}", env.to_json());
    cfg.jobs = env.jobs();
    if let Some(traces) = &cfg.trace_file {
        if traces.exists() {
            std::fs::remove_file(traces)?;
        }
    }
    let exe = std::env::current_exe()?;
    let outcome = set_up(&cfg).and_then(|setup_s| {
        measure(&cfg, setup_s, |n, k, traced| {
            let out = Command::new(&exe)
                .args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", "0", "--trace", if traced { "1" } else { "0" }])
                .args(["--pass", &n.to_string(), "--unit", &k.to_string()])
                .args(["--jobs", &cfg.jobs.to_string()])
                .arg("--work")
                .arg(&cfg.work)
                .stderr(Stdio::inherit())
                .output()?;
            if !out.status.success() {
                return Err(format!("unit {k} of pass {n} failed: {}", out.status).into());
            }
            Pass::from_text(&String::from_utf8(out.stdout)?)
        })
    });
    // Scratch inputs and caches go whether or not the run succeeded; the
    // root goes too unless traces remain in it.
    if cfg.work.exists() {
        std::fs::remove_dir_all(&cfg.work)?;
    }
    let _ = std::fs::remove_dir(WORK_ROOT);
    let m = outcome?;
    println!(
        "{{\"info\":{{\"workload\":\"{name}\",\"seed\":{},\"jobs\":{},\"passes\":{},\"traced_passes\":{},\"raw_pass_s\":{:?},\"calibration_s\":{},\"digest\":\"{:016x}\"}}}}",
        args.seed, cfg.jobs, m.passes, m.traced_passes, m.walls, m.cal_s, m.digest
    );
    let table: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", m.result.to_json(table));
    Ok(())
}
