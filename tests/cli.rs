//! End-to-end test of the `mamps` command-line binary: write interchange
//! files, run every subcommand, check the outputs.

use std::path::PathBuf;
use std::process::Command;

use mamps::mjpeg::app_model::mjpeg_application;
use mamps::mjpeg::encoder::StreamConfig;
use mamps::platform::arch::Architecture;
use mamps::platform::interconnect::Interconnect;
use mamps::platform::xml::architecture_to_xml;
use mamps::sdf::xml::application_to_xml;

fn bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_mamps"))
}

fn setup_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mamps_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = StreamConfig {
        frames: 1,
        ..StreamConfig::small()
    };
    let app = mjpeg_application(&cfg, None).unwrap();
    std::fs::write(dir.join("app.xml"), application_to_xml(&app)).unwrap();
    let arch = Architecture::homogeneous("cli", 3, Interconnect::fsl()).unwrap();
    std::fs::write(dir.join("arch.xml"), architecture_to_xml(&arch)).unwrap();
    dir
}

#[test]
fn cli_subcommands_work_end_to_end() {
    let dir = setup_dir();
    let app = dir.join("app.xml");
    let arch = dir.join("arch.xml");

    // analyze
    let out = Command::new(bin())
        .arg("analyze")
        .arg(&app)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("consistent"));
    assert!(text.contains("VLD"));

    // map with mapping output
    let map_out = dir.join("mapping.xml");
    let out = Command::new(bin())
        .args(["map"])
        .arg(&app)
        .arg(&arch)
        .arg(&map_out)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(map_out.exists());
    assert!(std::fs::read_to_string(&map_out)
        .unwrap()
        .contains("<mapping>"));

    // map with an explicit binder: the summary must attribute the strategy.
    let out = Command::new(bin())
        .args(["map"])
        .arg(&app)
        .arg(&arch)
        .args(["--binder", "spiral"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("binder: spiral"), "summary: {text}");
    assert!(text.contains("tile"), "per-tile load table missing: {text}");

    // An unknown binder fails with the available names, for `map` and for
    // a `dse` sweep alike.
    let unknown = "error: unknown binder `bogus` (available: greedy, spiral, genetic)\n";
    let out = Command::new(bin())
        .args(["map"])
        .arg(&app)
        .arg(&arch)
        .args(["--binder", "bogus"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stderr), unknown);
    let out = Command::new(bin())
        .arg("dse")
        .arg(&app)
        .args(["2", "--binders", "greedy,bogus"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stderr), unknown);

    // dse with a strategy sweep: every point is attributed to a binder.
    let out = Command::new(bin())
        .arg("dse")
        .arg(&app)
        .args(["2", "--binders", "greedy,spiral"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("greedy") && text.contains("spiral"), "{text}");
    assert!(text.contains("pareto front"), "{text}");

    // generate
    let proj = dir.join("proj");
    let out = Command::new(bin())
        .arg("generate")
        .arg(&app)
        .arg(&arch)
        .arg(&proj)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(proj.join("system.tcl").exists());

    // simulate: exit code reflects the guarantee.
    let out = Command::new(bin())
        .args(["simulate"])
        .arg(&app)
        .arg(&arch)
        .arg("50")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("HOLDS"));

    // map-multi: a second app joins the MJPEG decoder on the same
    // platform; both guarantees must be validated by the concurrent run.
    let second = dir.join("second.xml");
    {
        use mamps::sdf::graph::SdfGraphBuilder;
        use mamps::sdf::model::{HomogeneousModelBuilder, ThroughputConstraint};
        let mut b = SdfGraphBuilder::new("sidecar");
        let x = b.add_actor("sc_in", 1);
        let y = b.add_actor("sc_out", 1);
        b.add_channel_full("sc_e", x, 1, y, 1, 0, 16);
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        mb.actor("sc_in", 200, 2048, 256)
            .actor("sc_out", 300, 2048, 256);
        let side = mb
            .finish(
                g,
                Some(ThroughputConstraint {
                    iterations: 1,
                    cycles: 10_000_000,
                }),
            )
            .unwrap();
        std::fs::write(&second, application_to_xml(&side)).unwrap();
    }
    let out = Command::new(bin())
        .arg("map-multi")
        .arg(&app)
        .arg(&second)
        .arg(&arch)
        .args(["--iters", "60"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 of 2 applications admitted"), "{text}");
    assert!(text.contains("guarantee HOLDS"), "{text}");

    // dse --apps: the use-case sweep reports admitted subsets per config.
    let out = Command::new(bin())
        .arg("dse")
        .arg("2")
        .arg("--apps")
        .arg(format!("{},{}", app.display(), second.display()))
        .args(["--jobs", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("admitted"), "{text}");
    assert!(text.contains("sidecar"), "{text}");

    // bad usage
    let out = Command::new(bin()).arg("bogus").output().unwrap();
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_runs_shorter_than_two_iterations() {
    // A steady-state throughput needs two iteration completions: shorter
    // runs must fail up front instead of reporting a violated guarantee.
    let data = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let app = data.join("mjpeg_small_app.xml");
    let arch = data.join("fsl_3tile_arch.xml");
    for n in ["0", "1"] {
        let simulate = Command::new(bin())
            .arg("simulate")
            .arg(&app)
            .arg(&arch)
            .arg(n)
            .output()
            .unwrap();
        let map_multi = Command::new(bin())
            .arg("map-multi")
            .arg(&app)
            .arg(&arch)
            .args(["--iters", n])
            .output()
            .unwrap();
        for (cmd, out) in [("simulate", simulate), ("map-multi", map_multi)] {
            assert!(!out.status.success(), "{cmd} {n} must fail");
            assert!(out.stdout.is_empty(), "{cmd} {n} measured nothing");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains("at least 2 iterations"), "{cmd} {n}: {err}");
        }
    }
}

#[test]
fn cli_remap_replays_from_the_pass_cache() {
    let dir = std::env::temp_dir().join(format!("mamps_cli_remap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = StreamConfig {
        frames: 1,
        ..StreamConfig::small()
    };
    let app = dir.join("app.xml");
    std::fs::write(
        &app,
        application_to_xml(&mjpeg_application(&cfg, None).unwrap()),
    )
    .unwrap();
    let arch = dir.join("arch.xml");
    std::fs::write(
        &arch,
        architecture_to_xml(&Architecture::homogeneous("cli", 3, Interconnect::fsl()).unwrap()),
    )
    .unwrap();
    let cache = dir.join("cache");

    // Cold map populates the on-disk pass cache.
    let cold = Command::new(bin())
        .arg("map")
        .arg(&app)
        .arg(&arch)
        .arg("--cache-dir")
        .arg(&cache)
        .args(["--stats"])
        .output()
        .unwrap();
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    assert!(
        String::from_utf8_lossy(&cold.stderr).contains("pass cache persisted"),
        "stderr: {}",
        String::from_utf8_lossy(&cold.stderr)
    );

    // Warm remap: stdout byte-identical, every flow pass replayed.
    let warm = Command::new(bin())
        .arg("remap")
        .arg(&app)
        .arg(&arch)
        .arg("--cache-dir")
        .arg(&cache)
        .args(["--stats"])
        .output()
        .unwrap();
    assert!(
        warm.status.success(),
        "{}",
        String::from_utf8_lossy(&warm.stderr)
    );
    assert_eq!(
        warm.stdout, cold.stdout,
        "remap must reproduce the cold map output byte for byte"
    );
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(
        stderr.contains("pass cache warmed from disk"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("pass wall time"), "stderr: {stderr}");

    // remap without --cache-dir is a usage error, not a silent cold run.
    let bad = Command::new(bin())
        .arg("remap")
        .arg(&app)
        .arg(&arch)
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("--cache-dir"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_map_multi_cache_dir_is_keyed_by_platform() {
    // The `verify-shared` pass grows and analyses the combined system of
    // one platform: a bound persisted for a 4x1 mesh must not replay on a
    // 2x2 mesh, where the same applications share tiles differently.
    let dir = std::env::temp_dir().join(format!("mamps_cli_shared_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let apps = [
        data.join("mjpeg_small_app.xml"),
        data.join("pipeline_small_app.xml"),
    ];
    let platform = |mesh: &str| {
        let out = dir.join(mesh.replace(':', "_"));
        let gen = Command::new(bin())
            .args(["gen", "--arch", mesh, "--out"])
            .arg(&out)
            .output()
            .unwrap();
        assert!(
            gen.status.success(),
            "{}",
            String::from_utf8_lossy(&gen.stderr)
        );
        out.join(format!("arch_{}.xml", mesh.replace(':', "")))
    };
    let map_multi = |arch: &std::path::Path, cache: Option<&std::path::Path>| {
        let mut cmd = Command::new(bin());
        cmd.arg("map-multi").args(&apps).arg(arch);
        if let Some(cache) = cache {
            cmd.arg("--cache-dir").arg(cache);
        }
        let out = cmd.output().unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "{stdout}");
        stdout
    };
    let (wide, square) = (platform("mesh:4x1"), platform("mesh:2x2"));
    let cache = dir.join("cache");
    map_multi(&wide, Some(&cache));
    assert_eq!(map_multi(&square, Some(&cache)), map_multi(&square, None));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_gen_is_deterministic_across_processes_and_round_trips() {
    let dir = std::env::temp_dir().join(format!("mamps_cli_gen_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Two separate processes with the same seed must emit byte-identical
    // scenario directories — file names and file contents.
    let gen = |out: &std::path::Path| {
        let o = Command::new(bin())
            .args(["gen", "--seed", "42", "--count", "4", "--actors", "5"])
            .args(["--arch", "mesh:2x2"])
            .arg("--out")
            .arg(out)
            .output()
            .unwrap();
        assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    };
    let (d1, d2) = (dir.join("one"), dir.join("two"));
    gen(&d1);
    gen(&d2);
    let listing = |d: &std::path::Path| {
        let mut names: Vec<String> = std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    let names = listing(&d1);
    assert_eq!(names, listing(&d2), "different file sets for the same seed");
    assert!(names.iter().any(|n| n == "manifest.txt"));
    assert!(names.iter().any(|n| n.starts_with("arch_")));
    for name in &names {
        assert_eq!(
            std::fs::read(d1.join(name)).unwrap(),
            std::fs::read(d2.join(name)).unwrap(),
            "{name} differs between identically-seeded runs"
        );
    }

    // Every generated application parses back and serializes canonically,
    // and `mamps analyze` accepts it.
    for name in names
        .iter()
        .filter(|n| n.ends_with(".xml") && !n.starts_with("arch_"))
    {
        let xml = std::fs::read_to_string(d1.join(name)).unwrap();
        let app = mamps::sdf::xml::application_from_xml(&xml).unwrap();
        assert_eq!(application_to_xml(&app), xml, "{name} does not round-trip");
        let out = Command::new(bin())
            .arg("analyze")
            .arg(d1.join(name))
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "analyze {name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("consistent"));
    }

    // Unknown family: usage error naming the valid ones.
    let bad = Command::new(bin())
        .args(["gen", "--family", "banyan", "--out"])
        .arg(dir.join("bad"))
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("chain"),
        "stderr should list valid families: {}",
        String::from_utf8_lossy(&bad.stderr)
    );

    // More actors than the generator's bound: exit 1, nothing written.
    for actors in ["4097", "100000000"] {
        let huge = dir.join("huge");
        let bad = Command::new(bin())
            .args(["gen", "--actors", actors, "--out"])
            .arg(&huge)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&bad.stderr);
        assert_eq!(bad.status.code(), Some(1), "--actors {actors}: {err}");
        assert!(err.contains("the generator makes at most 4096"), "{err}");
        assert!(!huge.exists(), "--actors {actors} wrote {}", huge.display());
    }

    // Missing --out: usage error, nothing written.
    let bad = Command::new(bin()).arg("gen").output().unwrap();
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("--out"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_xml_errors_name_the_file_and_line() {
    let dir = std::env::temp_dir().join(format!("mamps_cli_xmlerr_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Corrupt a real scenario: drop the `name` attribute from the first
    // actor (line 3 of the canonical serialization).
    let gen = Command::new(bin())
        .args(["gen", "--seed", "1", "--count", "1", "--family", "chain"])
        .arg("--out")
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );
    let good = std::fs::read_to_string(dir.join("chain_s1.xml")).unwrap();
    let corrupted: Vec<String> = good
        .lines()
        .map(|l| {
            if l.trim_start().starts_with("<actor") {
                l.replacen(" name=\"chain_s1_a0\"", "", 1)
            } else {
                l.to_string()
            }
        })
        .collect();
    let bad = dir.join("broken.xml");
    std::fs::write(&bad, corrupted.join("\n")).unwrap();
    let out = Command::new(bin())
        .arg("analyze")
        .arg(&bad)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("broken.xml"), "no file path: {stderr}");
    assert!(stderr.contains("line 3"), "no line number: {stderr}");
    assert!(stderr.contains("attribute `name`"), "wrong error: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Well-formed applications whose one iteration overflows `u64` or the
/// firing budget — huge rates, a full initial token count, a token size whose
/// Fig. 4 expansion explodes — fail with an error line, never a panic.
#[test]
fn cli_oversized_iterations_fail_cleanly() {
    let dir = std::env::temp_dir().join(format!("mamps_cli_oversized_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let arch = dir.join("arch.xml");
    let fsl = Architecture::homogeneous("cli", 3, Interconnect::fsl()).unwrap();
    std::fs::write(&arch, architecture_to_xml(&fsl)).unwrap();
    let actor = |name: &str, ports: &[(&str, &str)]| {
        let args: String = ports
            .iter()
            .enumerate()
            .map(|(i, (channel, direction))| {
                format!(r#"<arg channel="{channel}" direction="{direction}" index="{i}"/>"#)
            })
            .collect();
        format!(
            r#"<actor executionTime="10" name="{name}"><implementation dmem="1024" function="f_{name}" imem="1024" processorType="microblaze" wcet="10">{args}</implementation></actor>"#
        )
    };
    let app = |rates: (&str, &str), tokens: &str, token_size: &str| {
        format!(
            r#"<applicationGraph name="h">{}{}<channel name="e" srcActor="a" srcRate="{}" dstActor="b" dstRate="{}" initialTokens="{tokens}" tokenSize="{token_size}"/></applicationGraph>"#,
            actor("a", &[("e", "out")]),
            actor("b", &[("e", "in")]),
            rates.0,
            rates.1
        )
    };
    // Both channels balance on their own (q = (2^40, 1) and (3^25, 1)), but
    // together they need q[a] = 2^40 * 3^25, which does not fit u64. An
    // unchecked LCM used to wrap and print an unbalanced vector as
    // consistent.
    let lcm = format!(
        r#"<applicationGraph name="lcm">{}{}{}<channel name="e1" srcActor="a" srcRate="1" dstActor="b" dstRate="1099511627776" initialTokens="0" tokenSize="4"/><channel name="e2" srcActor="a" srcRate="1" dstActor="c" dstRate="847288609443" initialTokens="0" tokenSize="4"/></applicationGraph>"#,
        actor("a", &[("e1", "out"), ("e2", "out")]),
        actor("b", &[("e1", "in")]),
        actor("c", &[("e2", "in")]),
    );
    let max = u64::MAX.to_string();
    // Each case names its input, its command and the error it must give:
    // a wrapped token count used to read as a false deadlock.
    let cases = [
        (
            "rates",
            app(("9223372036854775783", "9223372036854775643"), "0", "4"),
            "analyze",
            "exceeds the budget of 16777216 firings",
        ),
        (
            "rates",
            app(("9223372036854775783", "9223372036854775643"), "0", "4"),
            "map",
            "arithmetic overflow",
        ),
        (
            "tokens",
            app(("1", "1"), &max, "4"),
            "analyze",
            "arithmetic overflow: tokens on channel `e`",
        ),
        (
            "token_size",
            app(("1", "1"), "0", &max),
            "map",
            "arithmetic overflow",
        ),
        (
            "lcm",
            lcm,
            "analyze",
            "arithmetic overflow: repetition vector scaling",
        ),
    ];
    for (name, xml, cmd, error) in cases {
        let path = dir.join(format!("{name}.xml"));
        std::fs::write(&path, xml).unwrap();
        let mut run = Command::new(bin());
        run.arg(cmd).arg(&path);
        if cmd == "map" {
            run.arg(&arch);
        }
        let out = run.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name} {cmd}: {stderr}");
        assert!(stderr.contains("error:"), "{name} {cmd}: {stderr}");
        assert!(stderr.contains(error), "{name} {cmd}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name} {cmd}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_sharded_dse_merges_to_the_unsharded_report() {
    let dir = std::env::temp_dir().join(format!("mamps_cli_shard_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = StreamConfig {
        frames: 1,
        ..StreamConfig::small()
    };
    let app = dir.join("app.xml");
    std::fs::write(
        &app,
        application_to_xml(&mjpeg_application(&cfg, None).unwrap()),
    )
    .unwrap();

    // Unsharded reference report.
    let full = Command::new(bin())
        .arg("dse")
        .arg(&app)
        .args(["3", "--binders", "greedy,spiral"])
        .output()
        .unwrap();
    assert!(full.status.success());

    // Two shard runs writing JSONL, then a merge.
    for i in 0..2 {
        let out = Command::new(bin())
            .arg("dse")
            .arg(&app)
            .args(["3", "--binders", "greedy,spiral"])
            .args(["--shard", &format!("{i}/2")])
            .arg("--out")
            .arg(dir.join(format!("s{i}.jsonl")))
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let merged = Command::new(bin())
        .arg("dse-merge")
        .arg(dir.join("s0.jsonl"))
        .arg(dir.join("s1.jsonl"))
        .output()
        .unwrap();
    assert!(
        merged.status.success(),
        "{}",
        String::from_utf8_lossy(&merged.stderr)
    );
    assert_eq!(
        merged.stdout, full.stdout,
        "merged report must be byte-identical to the unsharded one"
    );

    // Missing shard: nonzero exit, named reason.
    let incomplete = Command::new(bin())
        .arg("dse-merge")
        .arg(dir.join("s0.jsonl"))
        .arg(dir.join("s0.jsonl"))
        .output()
        .unwrap();
    assert!(!incomplete.status.success());
    assert!(String::from_utf8_lossy(&incomplete.stderr).contains("overlapping"));

    // --shard without --out is a usage error, not a silent full run.
    let bad = Command::new(bin())
        .arg("dse")
        .arg(&app)
        .args(["3", "--shard", "0/2"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("--out"));

    std::fs::remove_dir_all(&dir).ok();
}

/// A shard file names each application by its digest, so `--resume`
/// rejects a partial of another version of the same graph name: here the
/// `work` actor at 1,400 cycles instead of 700.
#[test]
fn cli_resume_rejects_a_partial_of_an_edited_application() {
    let dir = std::env::temp_dir().join(format!("mamps_cli_resume_edit_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/data/pipeline_small_app.xml");
    let a = std::fs::read_to_string(data).unwrap();
    let b = a.replace("\"700\"", "\"1400\"");
    assert_ne!(a, b);
    std::fs::write(dir.join("a.xml"), a).unwrap();
    std::fs::write(dir.join("b.xml"), b).unwrap();
    let dse = |args: &[&str]| {
        Command::new(bin())
            .current_dir(&dir)
            .arg("dse")
            .args(args)
            .output()
            .unwrap()
    };
    let old = dse(&["a.xml", "2", "--shard", "0/1", "--out", "old.jsonl"]);
    assert!(
        old.status.success(),
        "{}",
        String::from_utf8_lossy(&old.stderr)
    );
    let out = dse(&["b.xml", "2", "--resume", "old.jsonl"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        out.stdout.is_empty(),
        "no report from another version's points"
    );
    assert!(
        err.contains("resume file comes from a different sweep"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `dse` validates its sweep like the coordinator does: an empty `--apps`
/// list is an error, not a sweep of empty use-cases.
#[test]
fn cli_dse_rejects_an_empty_app_list() {
    let out = Command::new(bin())
        .args(["dse", "2", "--apps", ","])
        .output()
        .unwrap();
    assert!(!out.status.success(), "an empty --apps list must fail");
    assert!(out.stdout.is_empty(), "no report for an empty sweep");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("sweep has no applications"), "{err}");
}

/// Max-tiles 0 is an empty tile range, and more than 4,096 tiles is past
/// the sweep bound (`usize::MAX` used to panic building the list), so
/// every sweep command rejects both before it reads an input: `dse` in
/// both modes prints nothing and writes no shard or cache file, and
/// `dse-submit` fails before it connects (no coordinator listens on its
/// socket).
#[test]
fn cli_sweeps_reject_zero_max_tiles() {
    let dir = std::env::temp_dir().join(format!("mamps_cli_zero_tiles_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let app =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/data/mjpeg_small_app.xml");
    let app = app.to_str().unwrap();
    let socket = dir.join("absent.sock");
    let socket = socket.to_str().unwrap();
    let cache = ["--cache-dir", "cache"];
    for (max, reason) in [
        ("0", "at least 1"),
        ("4097", "at most 4096"),
        ("18446744073709551615", "at most 4096"),
    ] {
        let runs: [Vec<&str>; 5] = [
            [&["dse", app, max][..], &cache].concat(),
            [
                &["dse", app, max, "--shard", "0/2", "--out", "s.jsonl"][..],
                &cache,
            ]
            .concat(),
            [&["dse", max, "--apps", app][..], &cache].concat(),
            vec!["dse-submit", app, max, "--socket", socket],
            vec!["dse-submit", max, "--apps", app, "--socket", socket],
        ];
        for args in runs {
            let out = Command::new(bin())
                .current_dir(&dir)
                .args(&args)
                .output()
                .unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
            assert!(out.stdout.is_empty(), "{args:?}");
            assert_eq!(
                err,
                format!("error: <max-tiles> must be {reason}\n"),
                "{args:?}"
            );
        }
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "wrote nothing");
    std::fs::remove_dir_all(&dir).ok();
}

/// A value flag never takes the next flag as its value: `--cache-dir
/// --stats` is a missing value, not a cache directory named `--stats`.
#[test]
fn cli_value_flag_does_not_swallow_the_next_flag() {
    let dir = std::env::temp_dir().join(format!("mamps_cli_swallow_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let app =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/data/mjpeg_small_app.xml");
    let out = Command::new(bin())
        .current_dir(&dir)
        .arg("dse")
        .arg(&app)
        .args(["2", "--cache-dir", "--stats"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("flag `--cache-dir` needs a value"), "{err}");
    assert!(
        !dir.join("--stats").exists(),
        "no cache dir named `--stats`"
    );
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "wrote nothing");
    std::fs::remove_dir_all(&dir).ok();
}

/// The usage text and the parser agree: every flag a usage row shows is
/// accepted by that command, with a value exactly when the row gives it
/// one. Each run ends in an unknown flag, so parsing fails before the
/// command does anything; with its value the error names the unknown
/// flag, never the shown one, and a value flag given none is the error.
#[test]
fn cli_usage_text_and_parser_agree() {
    let dir = std::env::temp_dir().join(format!("mamps_cli_usage_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let usage = Command::new(bin()).output().unwrap();
    assert_eq!(usage.status.code(), Some(2));
    let usage = String::from_utf8(usage.stderr).unwrap();
    let fails = |args: &[&str]| {
        let out = Command::new(bin())
            .current_dir(&dir)
            .args(args)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        err
    };
    let mut checked = 0;
    for row in usage.lines().filter_map(|l| l.strip_prefix("  mamps ")) {
        let mut words = row.split_whitespace();
        let cmd = words.next().unwrap();
        while let Some(word) = words.next() {
            let Some(flag) = word.trim_start_matches('[').strip_prefix("--") else {
                continue;
            };
            let shown = format!("--{}", flag.trim_end_matches(']'));
            let value = (!flag.ends_with(']')).then(|| {
                let value = words.next().expect("a value flag shows its value");
                value.trim_end_matches("...").trim_end_matches(']')
            });
            let mut args = vec![cmd, shown.as_str()];
            args.extend(value);
            args.push("--no-such-flag");
            let err = fails(&args);
            assert!(
                err.contains("unknown flag `--no-such-flag`"),
                "{args:?}: {err}"
            );
            assert!(!err.contains(&format!("`{shown}`")), "{args:?}: {err}");
            if value.is_some() {
                let err = fails(&[cmd, &shown, "--no-such-flag"]);
                let want = format!("flag `{shown}` needs a value");
                assert!(err.contains(&want), "{cmd} {shown}: {err}");
            }
            checked += 1;
        }
    }
    assert!(
        checked >= 40,
        "only {checked} flags found in the usage text"
    );
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "a command ran");
    std::fs::remove_dir_all(&dir).ok();
}

/// Kills a spawned service process on drop, so a failing assertion does
/// not leak a coordinator/worker holding the test's socket.
struct Reap(std::process::Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The DSE coordinator service end to end: a dead socket fails with a
/// clear error, a 2-worker run matches single-process `mamps dse` byte
/// for byte for a binder and a use-case sweep, a second identical
/// submission is served entirely from the coordinator's warm history
/// (`--stats` reports the cache hits), and an empty `--apps` list is
/// rejected with the reason `dse` gives.
#[cfg(unix)]
#[test]
fn dse_serve_cli_round_trip() {
    let dir = std::env::temp_dir().join(format!("mamps_cli_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = StreamConfig {
        frames: 1,
        ..StreamConfig::small()
    };
    let app = dir.join("app.xml");
    std::fs::write(
        &app,
        application_to_xml(&mjpeg_application(&cfg, None).unwrap()),
    )
    .unwrap();
    let socket = dir.join("serve.sock");

    // Submitting to a dead socket: clear error, nonzero exit.
    let out = Command::new(bin())
        .arg("dse-submit")
        .arg(&app)
        .args(["2", "--socket"])
        .arg(&socket)
        .output()
        .unwrap();
    assert!(!out.status.success(), "submit to a dead socket must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("cannot connect to coordinator") && err.contains("dse-serve"),
        "unhelpful dead-socket error: {err}"
    );

    // The single-process reference the service must reproduce.
    let reference = Command::new(bin())
        .arg("dse")
        .arg(&app)
        .arg("2")
        .output()
        .unwrap();
    assert!(
        reference.status.success(),
        "{}",
        String::from_utf8_lossy(&reference.stderr)
    );

    let serve = Reap(
        Command::new(bin())
            .arg("dse-serve")
            .args(["--socket"])
            .arg(&socket)
            .args(["--chunk", "1"])
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap(),
    );
    for _ in 0..100 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(socket.exists(), "coordinator did not come up");
    let workers: Vec<Reap> = (0..2)
        .map(|_| {
            Reap(
                Command::new(bin())
                    .arg("dse-work")
                    .args(["--socket"])
                    .arg(&socket)
                    .stderr(std::process::Stdio::null())
                    .spawn()
                    .unwrap(),
            )
        })
        .collect();

    let submit = |tag: &str| {
        let out = Command::new(bin())
            .arg("dse-submit")
            .arg(&app)
            .args(["2", "--stats", "--socket"])
            .arg(&socket)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{tag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            out.stdout, reference.stdout,
            "{tag}: serve report must be byte-identical to `mamps dse`"
        );
        String::from_utf8_lossy(&out.stderr).into_owned()
    };

    // Happy path: report byte-identical, stats on stderr.
    let err = submit("first submission");
    assert!(err.contains("serve stats:"), "missing stats: {err}");
    assert!(
        err.contains("4 design points"),
        "2 tiles x fsl/noc is 4 points: {err}"
    );

    // Second identical submission: nothing re-evaluated, all cache hits.
    let err = submit("second submission");
    assert!(
        err.contains("evaluated 0, cache hits 4"),
        "second submission must be served from the warm history: {err}"
    );

    // A use-case sweep: the workers evaluate use-case points, and the
    // report matches `mamps dse --apps` byte for byte.
    let data = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let apps = [
        app.clone(),
        data.join("pipeline_small_app.xml"),
        data.join("infeasible_app.xml"),
    ];
    let apps = apps.map(|p| p.display().to_string()).join(",");
    let stdout = |args: &[&str]| {
        let out = Command::new(bin()).args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {err}");
        out.stdout
    };
    let socket_arg = socket.display().to_string();
    assert_eq!(
        stdout(&["dse-submit", "2", "--apps", &apps, "--socket", &socket_arg]),
        stdout(&["dse", "2", "--apps", &apps]),
        "served use-case sweep must be byte-identical to `mamps dse --apps`"
    );

    // The coordinator rejects an empty application list like `dse` does.
    let out = Command::new(bin())
        .args(["dse-submit", "2", "--apps", ",", "--socket"])
        .arg(&socket)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("sweep has no applications"), "{err}");

    // Graceful shutdown lets the workers exit cleanly on their own.
    let term = Command::new("kill")
        .args(["-TERM", &serve.0.id().to_string()])
        .status()
        .unwrap();
    assert!(term.success());
    for mut w in workers {
        let status = w.0.wait().unwrap();
        assert!(
            status.success(),
            "worker must exit 0 on coordinator shutdown"
        );
    }
    drop(serve);
    std::fs::remove_dir_all(&dir).ok();
}
