//! Invariants of the seeded scenario generator, as properties over the
//! whole configuration space the testkit strategies can draw:
//!
//! * determinism — the same `GenConfig` generates byte-identical XML, and
//!   nearby seeds diverge (the stream is actually seeded);
//! * consistency & liveness by construction — every generated graph has a
//!   repetition vector, balanced channel rates, and a deadlock-free
//!   single-iteration schedule;
//! * structure — generated graphs are connected, respect the configured
//!   actor count, and their channels stay within the drawn rate bounds;
//! * interchange — every scenario survives the XML round trip unchanged.

use proptest::prelude::*;

use mamps_sdf::gen::{generate, strategies, Family, GenConfig};
use mamps_sdf::liveness::check_liveness;
use mamps_sdf::repetition::repetition_vector;
use mamps_sdf::xml::{application_from_xml, application_to_xml};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn same_config_same_bytes_nearby_seed_differs(cfg in strategies::config()) {
        let a = application_to_xml(&generate(&cfg).unwrap());
        let b = application_to_xml(&generate(&cfg).unwrap());
        prop_assert_eq!(&a, &b, "generation is not deterministic");
        let other = GenConfig {
            seed: cfg.seed.wrapping_add(1),
            ..cfg.clone()
        };
        let c = application_to_xml(&generate(&other).unwrap());
        prop_assert!(a != c, "seed does not influence the scenario");
    }

    #[test]
    fn generated_graphs_are_consistent_live_and_connected(
        cfg in strategies::config()
    ) {
        let app = generate(&cfg).unwrap();
        let g = app.graph();
        prop_assert_eq!(g.actor_count(), cfg.actors);

        // Consistency: the repetition vector exists and balances every
        // channel; rates stay within the configured bound.
        let q = repetition_vector(g).unwrap();
        for (_, ch) in g.channels() {
            prop_assert_eq!(
                q.of(ch.src()) * ch.production_rate(),
                q.of(ch.dst()) * ch.consumption_rate(),
                "channel {} unbalanced", ch.name()
            );
            prop_assert!(ch.production_rate() >= 1);
            prop_assert!(ch.consumption_rate() >= 1);
            prop_assert!(ch.production_rate() <= cfg.max_rate);
            prop_assert!(ch.consumption_rate() <= cfg.max_rate);
        }
        for (_, a) in g.actors() {
            let w = a.execution_time();
            prop_assert!(w >= cfg.wcet_min && w <= cfg.wcet_max);
        }

        // Liveness: one full iteration schedules without deadlock.
        let order = check_liveness(g).unwrap();
        prop_assert_eq!(Some(order.firings().len() as u64), q.total_firings());

        // Connectivity: union-find over channel endpoints collapses to a
        // single component (self-edges cannot connect anything new).
        let mut root: Vec<usize> = (0..g.actor_count()).collect();
        fn find(root: &mut [usize], mut x: usize) -> usize {
            while root[x] != x {
                root[x] = root[root[x]];
                x = root[x];
            }
            x
        }
        for (_, ch) in g.channels() {
            let (a, b) = (find(&mut root, ch.src().0), find(&mut root, ch.dst().0));
            root[a] = b;
        }
        let first = find(&mut root, 0);
        for i in 1..g.actor_count() {
            prop_assert_eq!(
                find(&mut root, i), first,
                "actor {} is disconnected", i
            );
        }
    }

    #[test]
    fn every_generated_scenario_round_trips(cfg in strategies::config()) {
        let app = generate(&cfg).unwrap();
        let xml = application_to_xml(&app);
        let back = application_from_xml(&xml).unwrap();
        prop_assert_eq!(application_to_xml(&back), xml);
    }
}

/// Dense deterministic sweep across all families × seeds: cheaper than a
/// proptest for pinning the "every family, every seed round-trips and
/// analyzes" acceptance criterion.
#[test]
fn family_seed_sweep_round_trips_and_analyzes() {
    for family in Family::ALL {
        for seed in 0..25u64 {
            let cfg = GenConfig {
                actors: 2 + (seed as usize % 6),
                self_edge: seed % 4 == 0,
                constraint_slack: if seed % 2 == 0 {
                    Some(2 + seed % 4)
                } else {
                    None
                },
                ..GenConfig::new(seed, family)
            };
            let app = generate(&cfg).unwrap();
            let xml = application_to_xml(&app);
            let back = application_from_xml(&xml).unwrap();
            assert_eq!(
                application_to_xml(&back),
                xml,
                "{family} seed {seed} does not round-trip"
            );
            repetition_vector(app.graph()).unwrap();
            check_liveness(app.graph()).unwrap();
        }
    }
}
