//! Golden reports: the stdout of `mamps dse` and `mamps map-multi` over
//! the checked-in examples, pinned byte for byte in `tests/golden/`, plus
//! two artefacts no report shows: the cache files a cold `dse` persists
//! (pinned by length and digest) and one Fig. 4-expanded analysis graph.
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

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The analysis- and pass-cache files of a cold single-worker sweep. Their
/// keys hash every expanded graph's actor and channel names, and deadlock
/// results list pending actors in insertion order, so a change to the
/// expansion's names or order shows here even when every report stays
/// equal. Recorded by an earlier commit; a change that means to alter a
/// cache file re-records the lengths and digests printed on failure.
#[test]
fn dse_cache_files_match_golden() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = std::env::temp_dir().join(format!("mamps_golden_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(bin())
        .current_dir(root)
        .args(format!("dse {DATA}/mjpeg_small_app.xml 4 {BINDERS} --jobs 1").split_whitespace())
        .arg("--cache-dir")
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got: Vec<(&str, usize, u64)> = ["analysis-cache-0-of-1.jsonl", "pass-cache-0-of-1.jsonl"]
        .into_iter()
        .map(|name| {
            let bytes = std::fs::read(dir.join(name)).unwrap();
            (name, bytes.len(), fnv1a(&bytes))
        })
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(
        got,
        [
            (
                "analysis-cache-0-of-1.jsonl",
                204_022,
                0xf858_507d_8fa9_2ae3
            ),
            ("pass-cache-0-of-1.jsonl", 17_851, 0xc953_ba28_d807_b05d),
        ]
    );
}

/// The MJPEG example mapped by the default flow onto a 2-tile FSL
/// platform: its expanded graph — Fig. 4 helpers, static-order gates, actor
/// and channel order, and the `:comm:ordered` name — equals the recorded
/// one, whose fingerprint `mamps_sdf::cache` pins. A change that means to
/// alter the expansion re-records the fixture from this test's `got`
/// bytes, and that pinned hash with it.
#[test]
fn mjpeg_expansion_matches_golden() {
    use mamps::mapping::{map_application, MapOptions};
    use mamps::platform::arch::Architecture;
    use mamps::platform::interconnect::Interconnect;
    use mamps::sdf::xml::application_from_xml;

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let xml = std::fs::read_to_string(root.join(DATA).join("mjpeg_small_app.xml")).unwrap();
    let app = application_from_xml(&xml).unwrap();
    let arch = Architecture::homogeneous("fsl2", 2, Interconnect::fsl()).unwrap();
    let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
    let want = std::fs::read(root.join("crates/sdf/tests/data/mjpeg_fsl2_expanded.json")).unwrap();
    let expanded = mapped.expanded(app.graph(), &arch).unwrap();
    let got = serde::json::to_string(&expanded).into_bytes();
    let at = got.iter().zip(&want).take_while(|(a, b)| a == b).count();
    let near = &got[at.saturating_sub(80)..(at + 40).min(got.len())];
    assert!(
        got == want,
        "expanded graph differs from the fixture at byte {at}: …{}",
        String::from_utf8_lossy(near)
    );
}

/// The project `run_flow` generates for the MJPEG example on three
/// platforms: 3 FSL tiles, a 2×2 NoC whose routes take hops, and 3 FSL
/// tiles with communication assists. Each platform pins its file count,
/// total bytes and the FNV-1a of every `(path, contents)` pair in path
/// order, so a change to any generated byte fails here. Recorded by an
/// earlier commit; a change that means to alter the generated project
/// re-records the triples printed on failure.
#[test]
fn generated_projects_match_golden() {
    use mamps::flow::{run_flow, run_flow_with_arch, FlowOptions, FlowResult};
    use mamps::platform::arch::Architecture;
    use mamps::platform::interconnect::Interconnect;
    use mamps::sdf::xml::application_from_xml;

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let xml = std::fs::read_to_string(root.join(DATA).join("mjpeg_small_app.xml")).unwrap();
    let app = application_from_xml(&xml).unwrap();
    let opts = FlowOptions::default();
    let pin = |name, flow: FlowResult| {
        let mut bytes = Vec::new();
        for (path, contents) in &flow.project.files {
            for part in [path, contents] {
                bytes.extend_from_slice(part.as_bytes());
                bytes.push(0);
            }
        }
        (
            name,
            flow.project.file_count(),
            flow.project.total_bytes(),
            fnv1a(&bytes),
        )
    };
    let noc = run_flow(&app, 4, Interconnect::noc_for_tiles(4), &opts).unwrap();
    let routes = &noc.project.files["sw/noc_setup.c"];
    assert!(routes.contains("->"), "no NoC route takes a hop:\n{routes}");
    let ca = Architecture::homogeneous_with_ca("ca", 3, Interconnect::fsl()).unwrap();
    let got = [
        pin(
            "fsl3",
            run_flow(&app, 3, Interconnect::fsl(), &opts).unwrap(),
        ),
        pin("noc2x2", noc),
        pin("ca3", run_flow_with_arch(&app, ca, &opts).unwrap()),
    ];
    assert_eq!(
        got,
        [
            ("fsl3", 9, 8_016, 0x9947_a803_51e9_d097),
            ("noc2x2", 10, 8_765, 0x4dea_3e46_9f24_71af),
            ("ca3", 9, 7_532, 0xda09_2a0f_0b81_9e35),
        ]
    );
}
