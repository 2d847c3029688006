//! The benchmark's own checks: deterministic inputs, well-formed metric
//! tables that match `BENCHMARK.json`, every metric printed with its unit,
//! and exact counts that repeat exactly.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use mamps_e2e_bench::inputs::{sweep_apps, use_cases, Scale};
use mamps_e2e_bench::metrics::{MetricDef, END_TO_END, EXACT, PER_LAYER};
use mamps_e2e_bench::workload::Workload;
use mamps_e2e_bench::{measure, run_unit, set_up, Measured, RunConfig};
use serde::Value;

fn work_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("e2e-bench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sets `workload` up at tiny scale and measures it in this process.
fn run_tiny(workload: Workload, seed: u64, trace: bool, tag: &str) -> Measured {
    let cfg = RunConfig {
        workload,
        seed,
        seconds: 0.0,
        trace,
        jobs: 2,
        scale: Scale::tiny(),
        work: work_dir(tag),
        trace_file: None,
    };
    let setup_s = set_up(&cfg).expect("set-up succeeds");
    let m = measure(&cfg, setup_s, |n, k, traced| run_unit(&cfg, n, k, traced))
        .expect("passes succeed");
    let _ = std::fs::remove_dir_all(&cfg.work);
    m
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key `{key}`")),
        other => panic!("expected an object holding `{key}`, found {other:?}"),
    }
}

fn names_and_units(v: &Value) -> Vec<(String, String)> {
    match v {
        Value::Seq(items) => items
            .iter()
            .map(|m| {
                let s = |k| field(m, k).as_str().expect("string").to_string();
                (s("name"), s("unit"))
            })
            .collect(),
        other => panic!("expected a list, found {other:?}"),
    }
}

fn owned(table: &[MetricDef]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn same_seed_yields_byte_identical_xml() {
    for scale in [Scale::full(), Scale::tiny()] {
        assert_eq!(
            sweep_apps(7, &scale).unwrap(),
            sweep_apps(7, &scale).unwrap()
        );
        assert_eq!(use_cases(7, &scale).unwrap(), use_cases(7, &scale).unwrap());
        assert_ne!(
            sweep_apps(7, &scale).unwrap(),
            sweep_apps(8, &scale).unwrap()
        );
        assert_ne!(use_cases(7, &scale).unwrap(), use_cases(8, &scale).unwrap());
    }
    let full = Scale::full();
    assert_eq!(sweep_apps(1, &full).unwrap().len(), 17);
    assert_eq!(use_cases(1, &full).unwrap().len(), 4);
}

#[test]
fn metric_names_are_well_formed_and_match_the_benchmark_file() {
    let all: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|(n, _)| *n)
        .collect();
    for name in &all {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "metric name `{name}`"
        );
    }
    let mut unique = all.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "metric names repeat");
    for name in EXACT {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let file = serde::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(
        names_and_units(field(&file, "end_to_end")),
        owned(&END_TO_END)
    );
    assert_eq!(
        names_and_units(field(&file, "per_layer")),
        owned(&PER_LAYER)
    );
    let workloads: Vec<String> = match field(&file, "workloads") {
        Value::Seq(w) => w
            .iter()
            .map(|w| field(w, "name").as_str().unwrap().to_string())
            .collect(),
        other => panic!("{other:?}"),
    };
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn one_command_prints_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let tag = format!("print-{}-{trace}", workload.name());
            let m = run_tiny(workload, 3, trace, &tag);
            let line = serde::json::parse(&m.result.to_json(table)).unwrap();
            assert_eq!(field(&line, "correct"), &Value::Bool(true), "{tag}");
            assert_eq!(field(&line, "failed"), &Value::Int(0), "{tag}");
            let metrics = field(&line, "metrics");
            let Value::Map(printed) = metrics else {
                panic!("{metrics:?}")
            };
            assert_eq!(printed.len(), table.len(), "{tag}");
            for (name, unit) in table {
                let metric = field(metrics, name);
                assert_eq!(field(metric, "unit").as_str(), Some(*unit), "{tag} {name}");
                assert!(
                    matches!(field(metric, "value"), Value::Int(_) | Value::Float(_)),
                    "{tag} {name}"
                );
            }
        }
    }
}

#[test]
fn exact_counts_repeat_exactly() {
    for workload in Workload::ALL {
        let counts = |tag: &str| -> BTreeMap<&str, f64> {
            let m = run_tiny(
                workload,
                5,
                true,
                &format!("exact-{}-{tag}", workload.name()),
            );
            let mut counts: BTreeMap<&str, f64> = EXACT
                .iter()
                .map(|name| (*name, m.result.metrics[name]))
                .collect();
            if workload == Workload::SweepCold {
                // Two workers whose design points share a buffer-size
                // input race: either may run it while the other replays.
                // Only the total is exact.
                let replays = counts.remove("buffer_size.replays").unwrap();
                *counts.get_mut("buffer_size.runs").unwrap() += replays;
            }
            counts
        };
        let (a, b) = (counts("a"), counts("b"));
        assert_eq!(a, b, "{}", workload.name());
        match workload {
            Workload::SweepCold => assert!(a["kernel.analyses"] > 0.0),
            Workload::SweepWarm => {
                assert_eq!(a["kernel.analyses"], 0.0);
                assert!(a["bind.replays"] > 0.0);
            }
            Workload::UseCaseSim => assert!(a["sim.firings"] > 0.0),
        }
    }
}
