//! Golden reports: the stdout of `mamps dse` and `mamps map-multi` over
//! the checked-in examples, pinned byte for byte in `tests/golden/`.
//!
//! The other byte-identity oracles (`shard_dse.sh`, `incremental_equiv.sh`,
//! the warm/cold and sharded tests) compare two runs of one binary, so a
//! change that shifts every run alike — a different greedy tie-break, say —
//! passes all of them. These files were recorded once and only change when
//! a report is meant to change. To re-record one, run its command from the
//! repository root and redirect stdout to `tests/golden/<name>.txt`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_mamps"))
}

const DATA: &str = "examples/data";
const USE_CASE: &str = "examples/data/mjpeg_small_app.xml \
                        examples/data/pipeline_small_app.xml \
                        examples/data/infeasible_app.xml";
const BINDERS: &str = "--binders greedy,spiral,genetic";

/// Runs each `(name, command)` case — `mamps` arguments separated by
/// whitespace, paths relative to the repository root — and asserts its
/// stdout equals `tests/golden/<name>.txt`.
fn check_all(cases: &[(String, String)]) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut failures = Vec::new();
    for (name, cmd) in cases {
        let out = Command::new(bin())
            .current_dir(root)
            .args(cmd.split_whitespace())
            .output()
            .unwrap();
        let golden = root.join("tests/golden").join(format!("{name}.txt"));
        let want = std::fs::read(&golden).unwrap_or_else(|e| panic!("{}: {e}", golden.display()));
        if !out.status.success() || out.stdout != want {
            failures.push(format!(
                "{name}: `mamps {cmd}` ({}) differs from {}; got:\n{}{}",
                out.status,
                golden.display(),
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn binder_sweeps_match_golden() {
    let mut apps = vec![("mjpeg_small_app", DATA)];
    for s in [
        "chain_s50",
        "split_join_s51",
        "tree_s52",
        "cyclic_s53",
        "chain_s54",
        "split_join_s55",
        "tree_s56",
        "cyclic_s57",
    ] {
        apps.push((s, "examples/generated"));
    }
    let cases: Vec<(String, String)> = apps
        .into_iter()
        .map(|(app, dir)| {
            (
                format!("dse_{app}"),
                format!("dse {dir}/{app}.xml 4 {BINDERS}"),
            )
        })
        .collect();
    check_all(&cases);
}

#[test]
fn use_case_sweep_matches_golden() {
    let apps = USE_CASE.split_whitespace().collect::<Vec<_>>().join(",");
    check_all(&[("dse_apps".into(), format!("dse 3 --apps {apps} {BINDERS}"))]);
}

#[test]
fn map_multi_matches_golden() {
    check_all(&[(
        "map_multi".into(),
        format!("map-multi {USE_CASE} {DATA}/fsl_3tile_arch.xml --iters 60"),
    )]);
}
