//! Cross-strategy integration tests: every binder must produce mappings
//! that validate structurally, are verified by the unchanged throughput
//! pipeline, and behave identically whether invoked through
//! `map_application` directly or through the end-to-end flow.

use proptest::prelude::*;

use mamps::flow::{run_flow_with_arch, FlowOptions};
use mamps::mapping::flow::{map_application, MapOptions};
use mamps::mapping::{Binder, MapError};
use mamps::platform::arch::Architecture;
use mamps::platform::interconnect::Interconnect;
use mamps::sdf::gen::{pipeline_app, strategies as genstrat};
use mamps::sdf::ThroughputConstraint;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For every strategy on random pipelines and platforms: the mapping
    /// validates, the recorded guarantee equals the analysis result, the
    /// strategy is attributed, and the end-to-end flow reproduces the
    /// direct `map_application` mapping bit-for-bit.
    #[test]
    fn every_strategy_validates_and_matches_direct_map(
        wcets in genstrat::wcets(2..5),
        tiles in 1usize..4,
        noc in any::<bool>(),
    ) {
        let app = pipeline_app("pipe", &wcets, 16, &[1], None);
        let interconnect = if noc {
            Interconnect::noc_for_tiles(tiles)
        } else {
            Interconnect::fsl()
        };
        for binder in Binder::ALL {
            let name = binder.name();
            let arch = Architecture::homogeneous("p", tiles, interconnect).unwrap();
            let opts = MapOptions::with_strategy(binder);
            let direct = map_application(&app, &arch, &opts).unwrap();
            prop_assert_eq!(direct.strategy, name);
            if let Err(e) = direct.mapping.validate(&app, &arch) {
                return Err(TestCaseError::fail(format!("{name}: invalid mapping: {e}")));
            }
            prop_assert_eq!(
                direct.analysis.iterations_per_cycle,
                direct.mapping.guaranteed(),
                "{} reports a different guarantee than its analysis", name
            );

            let flow_opts = FlowOptions {
                map: opts.clone(),
                ..FlowOptions::default()
            };
            let flow = run_flow_with_arch(&app, arch, &flow_opts).unwrap();
            prop_assert_eq!(
                &flow.mapped.mapping, &direct.mapping,
                "{} maps differently through the flow", name
            );
            prop_assert_eq!(flow.guaranteed_throughput(), direct.analysis.as_f64());

            // Re-running with the achieved throughput as the model's
            // constraint must succeed and report the same bound: every
            // strategy meets the target exactly like the direct call.
            let achieved = direct.analysis.iterations_per_cycle;
            let constraint = ThroughputConstraint {
                iterations: achieved.numer() as u64,
                cycles: achieved.denom() as u64,
            };
            let targeted = pipeline_app("pipe", &wcets, 16, &[1], Some(constraint));
            let arch2 = Architecture::homogeneous("p", tiles, interconnect).unwrap();
            let t = map_application(&targeted, &arch2, &opts).unwrap();
            prop_assert!(t.analysis.iterations_per_cycle >= achieved);
        }
    }
}

#[test]
fn genetic_same_seed_same_mapping_end_to_end() {
    let app = pipeline_app("pipe", &[40, 10, 25, 5], 16, &[1], None);
    let run = || {
        let arch = Architecture::homogeneous("g", 2, Interconnect::noc_for_tiles(2)).unwrap();
        let opts = MapOptions::with_strategy(Binder::Genetic);
        map_application(&app, &arch, &opts).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.mapping, b.mapping, "same seed must give the same mapping");
    assert_eq!(a.analysis, b.analysis);
}

#[test]
fn spiral_never_uses_more_noc_wires_than_greedy_on_mjpeg() {
    // The acceptance workload: on the MJPEG decoder over a mesh NoC the
    // spiral binder's distance-minimizing placement must not allocate more
    // wire-links than greedy.
    let cfg = mamps::mjpeg::encoder::StreamConfig {
        frames: 1,
        ..mamps::mjpeg::encoder::StreamConfig::small()
    };
    let app = mamps::mjpeg::app_model::mjpeg_application(&cfg, None).unwrap();
    let wires_of = |binder: Binder| {
        let arch = Architecture::homogeneous("w", 3, Interconnect::noc_for_tiles(3)).unwrap();
        let opts = MapOptions::with_strategy(binder);
        let mapped = map_application(&app, &arch, &opts).unwrap();
        mapped.mapping.noc_wire_units(app.graph(), &arch)
    };
    let greedy = wires_of(Binder::Greedy);
    let spiral = wires_of(Binder::Spiral);
    assert!(
        spiral <= greedy,
        "spiral allocated {spiral} wire-links, greedy {greedy}"
    );
}

#[test]
fn strategies_surface_infeasibility_identically() {
    // No tile can host the actors: every strategy must report Infeasible.
    let app = pipeline_app("pipe", &[1, 1], 16, &[1], None);
    let tiles = vec![mamps::platform::tile::TileConfig::master("t0")
        .with_processor(mamps::platform::types::ProcessorType::custom("dsp"))];
    for binder in Binder::ALL {
        let arch = Architecture::new("bad", tiles.clone(), Interconnect::fsl()).unwrap();
        let opts = MapOptions::with_strategy(binder);
        assert!(
            matches!(
                map_application(&app, &arch, &opts),
                Err(MapError::Infeasible(_))
            ),
            "{} did not report infeasibility",
            binder.name()
        );
    }
}

#[test]
fn unmeetable_target_fails_for_every_strategy() {
    let constraint = ThroughputConstraint {
        iterations: 1,
        cycles: 10,
    };
    let app = pipeline_app("pipe", &[100, 100], 16, &[1], Some(constraint));
    for binder in Binder::ALL {
        let arch = Architecture::homogeneous("t", 2, Interconnect::fsl()).unwrap();
        let opts = MapOptions::with_strategy(binder);
        assert!(
            matches!(
                map_application(&app, &arch, &opts),
                Err(MapError::ConstraintUnmet(_))
            ),
            "{} accepted an impossible target",
            binder.name()
        );
    }
}
