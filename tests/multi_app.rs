//! Multi-application admission control, end to end:
//!
//! * property test — for random use-cases, every admitted application's
//!   throughput, measured by the cycle-level simulator running all
//!   admitted applications *concurrently* on the shared tiles, meets both
//!   the shared (resource-share-reduced) guarantee and the application's
//!   own constraint;
//! * regression tests — rejection reasons are deterministic across runs
//!   and surface verbatim in the rendered use-case DSE report.

use proptest::prelude::*;

use mamps::flow::report::{render_multi_report, render_use_case_report};
use mamps::flow::{explore_use_cases, run_multi_flow, FlowOptions};
use mamps::mapping::flow::MapOptions;
use mamps::mapping::multi::{map_use_case, UseCase};
use mamps::platform::arch::Architecture;
use mamps::platform::interconnect::Interconnect;
use mamps::sdf::gen::{actual_times, pipeline_app};
use mamps::sdf::model::{ApplicationModel, ThroughputConstraint};
use mamps::sim::{FiringTimes, System, TraceTimes, WcetTimes};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Admission soundness: whatever subset gets admitted, the concurrent
    /// WCET simulation of every interference group meets the lockstep
    /// bound, every member progresses at least at that rate, and every
    /// admitted application's constraint is honoured by the *measured*
    /// throughput — the paper's conservativeness claim lifted to shared
    /// platforms, on FSL and NoC platforms with multirate members. All of
    /// it holds again when every actor runs faster than its WCET, at times
    /// drawn in `[1, WCET]`.
    #[test]
    fn admitted_use_case_meets_every_per_app_bound(
        wcets_a in proptest::collection::vec(20u64..150, 2..4),
        wcets_b in proptest::collection::vec(20u64..150, 2..4),
        tiles in 1usize..4,
        noc in any::<bool>(),
        token_size in prop_oneof![Just(16u64), Just(64), Just(200)],
        (rates_a, rates_b) in (1u64..4, 1u64..4),
        // Constraint denominator for app B, scaled to stay feasible for
        // some seeds and infeasible for others.
        cycles in 300u64..40_000,
        seed in 0u64..1000,
    ) {
        let apps = vec![
            pipeline_app("first", &wcets_a, token_size, &[rates_a], None),
            pipeline_app(
                "second",
                &wcets_b,
                token_size,
                &[rates_b],
                Some(ThroughputConstraint { iterations: 1, cycles }),
            ),
        ];
        let ic = if noc {
            Interconnect::noc_for_tiles(tiles)
        } else {
            Interconnect::fsl()
        };
        let arch = Architecture::homogeneous("p", tiles, ic).unwrap();
        let uc = UseCase::new(apps).unwrap();
        let outcome = map_use_case(&uc, &arch, &MapOptions::default());
        prop_assert!(!outcome.admitted.is_empty(), "first app is unconstrained");

        for group in &outcome.groups {
            let wcets = &group.mapping.binding.wcet_of;
            let at_wcet = WcetTimes::new(wcets.clone());
            let faster = TraceTimes::new(actual_times(seed, wcets), wcets.clone());
            let runs: [(&str, &dyn FiringTimes); 2] = [("WCET", &at_wcet), ("faster", &faster)];
            for (run, times) in runs {
                let sys = System::new_with_repetitions(
                    &group.graph,
                    &group.mapping,
                    &arch,
                    times,
                    group.combined_repetitions(),
                )
                .unwrap();
                let m = sys.run(80, u64::MAX / 4).unwrap();
                let bound = group.analysis.as_f64();
                let measured = m.steady_throughput();
                prop_assert!(
                    measured >= bound * (1.0 - 1e-9),
                    "{run} run: group measured {measured} below shared bound {bound}"
                );
                let union_iterations = m.iteration_times.len() as u64;
                for (mi, member) in group.members.iter().enumerate() {
                    prop_assert!(
                        group.member_iterations(mi, &m.firings) >= union_iterations,
                        "{run} run: member {mi} fell behind the lockstep rate"
                    );
                    let admitted = &outcome.admitted[member.admitted];
                    if let Some(c) = admitted.constraint {
                        prop_assert!(
                            measured >= c.to_f64() * (1.0 - 1e-9),
                            "{run} run: `{}` measured {measured} below its constraint {c}",
                            admitted.name
                        );
                    }
                }
            }
        }
    }
}

/// Rejection reasons are deterministic: two independent admission runs of
/// the same use-case produce identical structured reasons, and those
/// reasons appear verbatim in the rendered use-case DSE report.
#[test]
fn rejection_reasons_deterministic_and_rendered() {
    let mk_apps = || {
        vec![
            pipeline_app("keeper", &[80, 80], 16, &[1], None),
            pipeline_app(
                "hog",
                &[900, 900],
                16,
                &[1],
                Some(ThroughputConstraint {
                    iterations: 1,
                    cycles: 50,
                }),
            ),
        ]
    };
    let arch = Architecture::homogeneous("d", 2, Interconnect::fsl()).unwrap();

    let reasons = |apps: Vec<ApplicationModel>| -> Vec<(String, String)> {
        let uc = UseCase::new(apps).unwrap();
        map_use_case(&uc, &arch, &MapOptions::default())
            .rejected
            .iter()
            .map(|r| (r.name.clone(), r.reason.to_string()))
            .collect()
    };
    let r1 = reasons(mk_apps());
    let r2 = reasons(mk_apps());
    assert_eq!(r1, r2, "rejection reasons must be deterministic");
    assert_eq!(r1.len(), 1);
    assert_eq!(r1[0].0, "hog");

    // The same reason surfaces in the use-case DSE report rendering.
    let report = explore_use_cases(&mk_apps(), &[2], false, &FlowOptions::default());
    let rendered = render_use_case_report(&report);
    assert!(
        rendered.contains(&r1[0].1),
        "rendered report must carry the structured reason verbatim:\n{rendered}"
    );
    // And two sweeps render identically.
    let report2 = explore_use_cases(&mk_apps(), &[2], false, &FlowOptions::default());
    assert_eq!(rendered, render_use_case_report(&report2));
}

/// The multi-application flow report marks validated guarantees and keeps
/// rejected applications visible without failing the run.
#[test]
fn multi_flow_report_shows_admissions_and_rejections() {
    let arch = Architecture::homogeneous("m", 2, Interconnect::fsl()).unwrap();
    let result = run_multi_flow(
        vec![
            pipeline_app("app_a", &[90, 90], 16, &[1], None),
            pipeline_app("app_b", &[40, 40], 16, &[1], None),
            pipeline_app(
                "app_c",
                &[2000, 2000],
                16,
                &[1],
                Some(ThroughputConstraint {
                    iterations: 1,
                    cycles: 20,
                }),
            ),
        ],
        arch,
        &FlowOptions::default(),
        60,
    )
    .unwrap();
    assert_eq!(result.admitted_count(), 2);
    assert!(result.all_guarantees_hold());
    let rendered = render_multi_report(&result);
    assert!(rendered.contains("2 of 3 applications admitted"));
    assert!(rendered.contains("app_a: ADMITTED"));
    assert!(rendered.contains("app_b: ADMITTED"));
    assert!(rendered.contains("app_c: REJECTED"));
    assert!(rendered.contains("guarantee HOLDS"));
    assert!(rendered.contains("reason: mapping failed"));
}
