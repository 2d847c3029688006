//! Property-based tests for the SDF analyses.
//!
//! The central property: the state-space throughput analysis and the exact
//! HSDF max-cycle-ratio analysis agree on every live, consistent graph.
//! Randomized rings with multirate channels are generated from a repetition
//! vector, so consistency holds by construction.

use proptest::prelude::*;

use mamps_sdf::graph::{SdfGraph, SdfGraphBuilder};
use mamps_sdf::liveness::check_liveness;
use mamps_sdf::mcr::mcr_throughput;
use mamps_sdf::ratio::gcd;
use mamps_sdf::repetition::repetition_vector;
use mamps_sdf::state_space::{throughput, AnalysisOptions};
use mamps_sdf::transform::with_buffer_capacities;

/// Builds a consistent ring of `q.len()` actors: the channel from actor `i`
/// to `i+1` gets rates derived from the chosen repetition entries, so the
/// graph is consistent by construction. `tokens[i]` seeds channel `i`.
fn ring_graph(q: &[u64], exec: &[u64], tokens: &[u64]) -> SdfGraph {
    let n = q.len();
    let mut b = SdfGraphBuilder::new("ring");
    let ids: Vec<_> = (0..n)
        .map(|i| b.add_actor(format!("a{i}"), exec[i]))
        .collect();
    for i in 0..n {
        let j = (i + 1) % n;
        let g = gcd(q[i], q[j]);
        let p = q[j] / g;
        let c = q[i] / g;
        b.add_channel_with_tokens(format!("e{i}"), ids[i], p, ids[j], c, tokens[i]);
    }
    b.build().expect("ring construction is valid")
}

fn ring_strategy() -> impl Strategy<Value = (Vec<u64>, Vec<u64>, Vec<u64>)> {
    (2usize..5).prop_flat_map(|n| {
        (
            proptest::collection::vec(1u64..5, n),
            proptest::collection::vec(0u64..12, n),
            proptest::collection::vec(0u64..8, n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn repetition_vector_balances_every_channel(
        (q, exec, tokens) in ring_strategy()
    ) {
        let g = ring_graph(&q, &exec, &tokens);
        let rv = repetition_vector(&g).unwrap();
        for (_, ch) in g.channels() {
            prop_assert_eq!(
                rv.of(ch.src()) * ch.production_rate(),
                rv.of(ch.dst()) * ch.consumption_rate()
            );
        }
        // Minimality: entries have gcd 1.
        let g0 = rv.entries().iter().copied().fold(0, gcd);
        prop_assert_eq!(g0, 1);
    }

    #[test]
    fn state_space_equals_mcr_on_live_rings(
        (q, exec, tokens) in ring_strategy()
    ) {
        let g = ring_graph(&q, &exec, &tokens);
        prop_assume!(check_liveness(&g).is_ok());
        prop_assume!(exec.iter().any(|&e| e > 0));
        let ss = throughput(&g, &AnalysisOptions::default());
        let mc = mcr_throughput(&g);
        match (ss, mc) {
            (Ok(s), Ok(m)) => prop_assert_eq!(s.iterations_per_cycle, m),
            // Both may legitimately report unbounded/limit cases, but they
            // must agree on whether a bound exists.
            (Err(_), Err(_)) => {}
            (s, m) => prop_assert!(false, "disagreement: {s:?} vs {m:?}"),
        }
    }

    /// The optimized worklist kernel must return the *identical*
    /// `ThroughputResult` — throughput, transient, period, even the state
    /// count — as the retained naive reference, in both auto-concurrency
    /// modes, on randomized live multirate graphs.
    #[test]
    fn fast_kernel_equals_reference_on_live_rings(
        (q, exec, tokens) in ring_strategy(),
        auto in any::<bool>(),
    ) {
        let g = ring_graph(&q, &exec, &tokens);
        let opts = AnalysisOptions { auto_concurrency: auto, ..AnalysisOptions::default() };
        match (throughput(&g, &opts), mamps_sdf::state_space::reference::throughput(&g, &opts)) {
            (Ok(fast), Ok(slow)) => prop_assert_eq!(fast, slow),
            (Err(_), Err(_)) => {}
            (f, s) => prop_assert!(false, "fast/reference disagree: {f:?} vs {s:?}"),
        }
    }

    #[test]
    fn adding_tokens_never_decreases_throughput(
        (q, exec, mut tokens) in ring_strategy(),
        extra in 1u64..5,
        which in 0usize..4,
    ) {
        prop_assume!(exec.iter().any(|&e| e > 0));
        let g1 = ring_graph(&q, &exec, &tokens);
        prop_assume!(check_liveness(&g1).is_ok());
        let t1 = throughput(&g1, &AnalysisOptions::default()).unwrap();
        let idx = which % tokens.len();
        tokens[idx] += extra;
        let g2 = ring_graph(&q, &exec, &tokens);
        let t2 = throughput(&g2, &AnalysisOptions::default()).unwrap();
        prop_assert!(t2.iterations_per_cycle >= t1.iterations_per_cycle);
    }

    #[test]
    fn buffer_capacity_bounds_unbounded_throughput(
        (q, exec, tokens) in ring_strategy(),
        extra_cap in 0u64..6,
    ) {
        prop_assume!(exec.iter().any(|&e| e > 0));
        let g = ring_graph(&q, &exec, &tokens);
        prop_assume!(check_liveness(&g).is_ok());
        let unbounded = throughput(&g, &AnalysisOptions::default()).unwrap();
        let caps: Vec<u64> = g
            .channels()
            .map(|(id, _)| mamps_sdf::buffer::capacity_lower_bound(&g, id) + extra_cap)
            .collect();
        let bounded_graph = with_buffer_capacities(&g, &caps).unwrap();
        if check_liveness(&bounded_graph).is_ok() {
            let bounded = throughput(&bounded_graph, &AnalysisOptions::default()).unwrap();
            prop_assert!(bounded.iterations_per_cycle <= unbounded.iterations_per_cycle);
        }
    }

    #[test]
    fn hsdf_expansion_counts_and_rates(
        (q, exec, tokens) in ring_strategy()
    ) {
        let g = ring_graph(&q, &exec, &tokens);
        let rv = repetition_vector(&g).unwrap();
        let h = mamps_sdf::hsdf::to_hsdf(&g).unwrap();
        prop_assert_eq!(Some(h.graph().actor_count() as u64), rv.total_firings());
        for (_, ch) in h.graph().channels() {
            prop_assert_eq!(ch.production_rate(), 1);
            prop_assert_eq!(ch.consumption_rate(), 1);
        }
        // Token conservation: HSDF initial tokens, weighted once per edge,
        // cannot exceed the original channel tokens by more than the rate
        // rounding bound; at minimum the totals agree when all rates are 1.
        if g.channels().all(|(_, c)| c.production_rate() == 1 && c.consumption_rate() == 1) {
            let orig: u64 = g.channels().map(|(_, c)| c.initial_tokens()).sum();
            let hs: u64 = h.graph().channels().map(|(_, c)| c.initial_tokens()).sum();
            prop_assert_eq!(orig, hs);
        }
    }
}
