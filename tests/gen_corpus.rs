//! Corpus-scale differential harness, in-process: sweep a deterministic
//! grid of generated scenarios (every topology family × seeds) and hold
//! each one against the cross-cutting oracles the flow already promises
//! individually:
//!
//! * interchange — generation is deterministic and the XML round trip is
//!   canonical;
//! * engines — discrete-event and lockstep simulation agree on every
//!   observable for every feasible mapping;
//! * caching — a pass-runner-attached map (cold and warm) is
//!   byte-identical to the plain flow's mapping;
//! * DSE — a sharded sweep merged back, and a resumed sweep seeded with a
//!   torn partial shard, render byte-identically to the cold unsharded
//!   report;
//! * admission — use-case admission is incremental: an application
//!   admitted alone keeps its exact mapping when later applications join
//!   the use case.
//!
//! Infeasible (scenario, platform) pairs are expected (some greedy
//! partitions of multirate graphs deadlock and are skipped as design
//! points); the sweep asserts a healthy feasible fraction instead of
//! per-scenario feasibility. `scripts/gen_fuzz.sh` runs the same oracles
//! against the CLI at corpus scale.

use std::sync::Arc;

use mamps::flow::dse::explore_report;
use mamps::flow::dse::shard::{self, DseShard, ShardSpec, Sweep, SweepMode};
use mamps::flow::report::render_dse_report;
use mamps::flow::FlowOptions;
use mamps::mapping::flow::{map_application, MapOptions};
use mamps::mapping::multi::{map_use_case, UseCase};
use mamps::mapping::{PassCache, PassRunner};
use mamps::platform::arch::Architecture;
use mamps::platform::gen::{synthesize, ArchSpec};
use mamps::sdf::gen::{generate, Family, GenConfig};
use mamps::sdf::model::ApplicationModel;
use mamps::sdf::xml::{application_from_xml, application_to_xml};
use mamps::sdf::GlobalAnalysisCache;
use mamps::sim::{render_trace, Engine, System, WcetTimes};
use serde::Serialize as _;

/// The deterministic corpus grid: every family × this many seeds.
const SEEDS: u64 = 6;

fn corpus() -> Vec<(GenConfig, ApplicationModel)> {
    let mut out = Vec::new();
    for family in Family::ALL {
        for seed in 0..SEEDS {
            let cfg = GenConfig {
                actors: 3 + (seed as usize % 4),
                max_rate: 1 + seed % 3,
                self_edge: seed % 5 == 0,
                ..GenConfig::new(seed, family)
            };
            let app = generate(&cfg).unwrap();
            out.push((cfg, app));
        }
    }
    out
}

fn mapping_bytes(m: &mamps::mapping::Mapping) -> String {
    let mut out = String::new();
    serde::json::emit(&m.to_value(), &mut out);
    out
}

fn arch3() -> Architecture {
    synthesize(&ArchSpec::Fsl { tiles: 3 }, "corpus").unwrap()
}

#[test]
fn corpus_generation_is_deterministic_and_round_trips() {
    for (cfg, app) in corpus() {
        let xml = application_to_xml(&app);
        let again = application_to_xml(&generate(&cfg).unwrap());
        assert_eq!(
            xml, again,
            "{} seed {}: nondeterministic",
            cfg.family, cfg.seed
        );
        let back = application_from_xml(&xml).unwrap();
        assert_eq!(
            application_to_xml(&back),
            xml,
            "{} seed {}: round trip not canonical",
            cfg.family,
            cfg.seed
        );
    }
}

#[test]
fn corpus_cached_mapping_matches_plain_flow_and_engines_agree() {
    let arch = arch3();
    let (mut feasible, mut total) = (0usize, 0usize);
    for (cfg, app) in corpus() {
        total += 1;
        let plain = match map_application(&app, &arch, &MapOptions::default()) {
            Ok(m) => m,
            Err(_) => continue, // infeasible design point, tracked below
        };
        feasible += 1;

        // Pass-cached cold run, then a warm run replaying the same cache:
        // all three mappings must serialize to the same bytes.
        let pass_cache = Arc::new(PassCache::new());
        let cached = MapOptions {
            cache: Some(Arc::new(GlobalAnalysisCache::new())),
            passes: Some(Arc::new(PassRunner::with_cache(Arc::clone(&pass_cache)))),
            ..MapOptions::default()
        };
        let cold = map_application(&app, &arch, &cached).unwrap();
        let warm = map_application(&app, &arch, &cached).unwrap();
        let tag = format!("{} seed {}", cfg.family, cfg.seed);
        assert_eq!(
            mapping_bytes(&plain.mapping),
            mapping_bytes(&cold.mapping),
            "{tag}: pass runner changed the mapping"
        );
        assert_eq!(
            mapping_bytes(&cold.mapping),
            mapping_bytes(&warm.mapping),
            "{tag}: warm cache changed the mapping"
        );

        // Both engines over the feasible mapping: identical measurements
        // and traces.
        let times = WcetTimes::new(plain.mapping.binding.wcet_of.clone());
        let run = |engine| {
            System::new(app.graph(), &plain.mapping, &arch, &times)
                .unwrap()
                .with_engine(engine)
                .run_traced(40, 500_000_000, 20_000)
        };
        match (run(Engine::Event), run(Engine::Lockstep)) {
            (Ok((me, te)), Ok((ml, tl))) => {
                assert_eq!(me, ml, "{tag}: measurements diverge");
                assert_eq!(
                    render_trace(&te),
                    render_trace(&tl),
                    "{tag}: traces diverge"
                );
            }
            (e, l) => assert_eq!(
                e.map(|(m, _)| m),
                l.map(|(m, _)| m),
                "{tag}: engine verdicts diverge"
            ),
        }
    }
    // The corpus is tuned so most scenarios map onto three FSL tiles;
    // regressions in the flow (or a degenerate generator) show up here.
    assert!(
        feasible * 2 >= total,
        "only {feasible}/{total} corpus scenarios mapped — generator or flow regressed"
    );
}

#[test]
fn corpus_sharded_and_resumed_dse_match_cold_sweeps() {
    // DSE sweeps are the expensive oracle: run them on one scenario per
    // family (seed chosen where the sweep has both feasible and skipped
    // points).
    let tile_counts = [1usize, 2, 3];
    for family in Family::ALL {
        let cfg = GenConfig {
            actors: 4,
            ..GenConfig::new(1, family)
        };
        let app = generate(&cfg).unwrap();
        let opts = FlowOptions::default();
        let cold = render_dse_report(&explore_report(&app, &tile_counts, true, &opts));

        // Two shards merged back.
        let sweep = Sweep::new(
            SweepMode::Binders,
            vec![app],
            &tile_counts,
            true,
            Vec::new(),
        )
        .expect("a valid binder sweep");
        let shards: Vec<DseShard> = (0..2)
            .map(|i| {
                sweep
                    .run(ShardSpec::new(i, 2).unwrap(), &[], &opts)
                    .unwrap()
            })
            .collect();
        let merged = shard::merge_reports(&shards).unwrap().render();
        assert_eq!(merged, cold, "{family}: merged sharded sweep diverges");

        // Resume from a torn partial shard: drop the tail of shard 0 and
        // let the resumed sweep finish it.
        let mut partial = shards[0].clone();
        partial.records.truncate(partial.records.len() / 2);
        let spec = ShardSpec::new(0, 2).unwrap();
        let resumed = sweep.run(spec, &[partial], &opts).unwrap();
        assert_eq!(
            resumed, shards[0],
            "{family}: resumed shard diverges from the cold shard"
        );
    }
}

#[test]
fn corpus_admission_is_incremental() {
    let arch = arch3();
    let all = corpus();
    let mut checked = 0usize;
    // Pair scenario k with scenario k+1 (wrapping) and compare admission
    // of the first app alone vs in front of the second.
    for pair in all.chunks(2) {
        let [(cfg_a, a), (_, b)] = pair else { continue };
        let alone = map_use_case(
            &UseCase::new(vec![a.clone()]).unwrap(),
            &arch,
            &MapOptions::default(),
        );
        let Some(first) = alone.admitted.first() else {
            continue; // a alone is rejected; nothing to compare
        };
        let joint = map_use_case(
            &UseCase::new(vec![a.clone(), b.clone()]).unwrap(),
            &arch,
            &MapOptions::default(),
        );
        let tag = format!("{} seed {}", cfg_a.family, cfg_a.seed);
        let again = joint
            .admitted
            .iter()
            .find(|adm| adm.name == first.name)
            .unwrap_or_else(|| panic!("{tag}: admitted alone but rejected with a companion"));
        assert_eq!(
            mapping_bytes(&first.mapped.mapping),
            mapping_bytes(&again.mapped.mapping),
            "{tag}: a later application changed an earlier admission's mapping"
        );
        checked += 1;
    }
    assert!(
        checked >= 4,
        "only {checked} admission pairs were comparable"
    );
}
