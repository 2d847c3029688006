//! Deadlock-freedom (liveness) analysis.
//!
//! A consistent SDF graph is *live* (deadlock-free) iff one complete
//! iteration can execute from the initial token distribution. This follows
//! Lee & Messerschmitt's classic result: if one iteration completes, the
//! token distribution returns to the initial one, so execution can repeat
//! forever. The check below performs an abstract (untimed) execution firing
//! ready actors until every actor reached its repetition count or no actor
//! can fire.

use crate::error::SdfError;
use crate::graph::{ActorId, SdfGraph};
use crate::repetition::{repetition_vector, RepetitionVector};

/// Result of a liveness check: the firing order of a complete iteration.
///
/// The order is a valid single-processor static-order schedule of one graph
/// iteration (every actor appears exactly `q[a]` times) and is reused by the
/// mapping crate as a seed schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationOrder {
    firings: Vec<ActorId>,
}

impl IterationOrder {
    /// The firing sequence of one iteration.
    pub fn firings(&self) -> &[ActorId] {
        &self.firings
    }
}

/// Checks that `graph` can complete one iteration from its initial tokens.
///
/// Returns the witness firing order on success.
///
/// # Errors
///
/// * Propagates consistency errors from [`repetition_vector`].
/// * [`SdfError::Deadlock`] naming the actors that still have pending
///   firings when execution stalls.
/// * [`SdfError::Overflow`] if the iteration's firing count or a channel's
///   token count overflows `u64`.
/// * [`SdfError::AnalysisLimit`] if one iteration has more than
///   2^24 firings.
///
/// # Examples
///
/// ```
/// use mamps_sdf::graph::SdfGraphBuilder;
/// use mamps_sdf::liveness::check_liveness;
///
/// // Two-actor cycle with one initial token is live...
/// let mut b = SdfGraphBuilder::new("live");
/// let a = b.add_actor("A", 1);
/// let c = b.add_actor("B", 1);
/// b.add_channel_with_tokens("f", a, 1, c, 1, 1);
/// b.add_channel("r", c, 1, a, 1);
/// let g = b.build().unwrap();
/// assert!(check_liveness(&g).is_ok());
/// ```
pub fn check_liveness(graph: &SdfGraph) -> Result<IterationOrder, SdfError> {
    let q = repetition_vector(graph)?;
    simulate_iteration(graph, &q)
}

/// The most firings one iteration may have. The abstract execution below
/// runs and records every firing, so without a cap an iteration that
/// still fits in memory (q = [2^27, 1] is a 1 GiB witness) would cost
/// that much time and memory before any analysis starts.
const MAX_ITERATION_FIRINGS: u64 = 1 << 24;

/// The firings of one iteration, checked against
/// [`MAX_ITERATION_FIRINGS`] before any is simulated.
fn iteration_firings(q: &RepetitionVector) -> Result<u64, SdfError> {
    let total = q
        .total_firings()
        .ok_or_else(|| SdfError::Overflow("firings of one iteration".into()))?;
    if total > MAX_ITERATION_FIRINGS {
        return Err(SdfError::AnalysisLimit(format!(
            "one iteration of {total} firings exceeds the budget of \
             {MAX_ITERATION_FIRINGS} firings"
        )));
    }
    Ok(total)
}

/// Abstractly executes one iteration, returning the firing order.
/// Errors as [`check_liveness`].
pub(crate) fn simulate_iteration(
    graph: &SdfGraph,
    q: &RepetitionVector,
) -> Result<IterationOrder, SdfError> {
    let n = graph.actor_count();
    let mut tokens: Vec<u64> = graph.channels().map(|(_, c)| c.initial_tokens()).collect();
    let mut remaining: Vec<u64> = (0..n).map(|i| q.of(ActorId(i))).collect();
    let total = iteration_firings(q)?;
    let mut firings = Vec::with_capacity(total as usize);

    let is_ready = |tokens: &[u64], remaining: &[u64], a: usize| -> bool {
        if remaining[a] == 0 {
            return false;
        }
        graph.incoming(ActorId(a)).iter().all(|&cid| {
            let ch = graph.channel(cid);
            tokens[cid.0] >= ch.consumption_rate()
        })
    };

    loop {
        let mut fired_any = false;
        for a in 0..n {
            // Fire each ready actor once per sweep; round-robin keeps the
            // witness order fair and deterministic.
            if is_ready(&tokens, &remaining, a) {
                for &cid in graph.incoming(ActorId(a)) {
                    tokens[cid.0] -= graph.channel(cid).consumption_rate();
                }
                for &cid in graph.outgoing(ActorId(a)) {
                    let ch = graph.channel(cid);
                    let fill = &mut tokens[cid.0];
                    *fill = fill.checked_add(ch.production_rate()).ok_or_else(|| {
                        SdfError::Overflow(format!("tokens on channel `{}`", ch.name()))
                    })?;
                }
                remaining[a] -= 1;
                firings.push(ActorId(a));
                fired_any = true;
            }
        }
        if remaining.iter().all(|&r| r == 0) {
            // One full iteration must restore the initial distribution.
            debug_assert!(
                graph
                    .channels()
                    .all(|(cid, c)| tokens[cid.0] == c.initial_tokens()),
                "iteration completed but token counts changed — graph inconsistent?"
            );
            return Ok(IterationOrder { firings });
        }
        if !fired_any {
            return Err(deadlock(graph, &remaining));
        }
    }
}

/// The deadlock of an execution that stalled with `remaining` firings
/// pending, naming the pending actors in id order.
fn deadlock(graph: &SdfGraph, remaining: &[u64]) -> SdfError {
    let stuck: Vec<&str> = (0..remaining.len())
        .filter(|&a| remaining[a] > 0)
        .map(|a| graph.actor(ActorId(a)).name())
        .collect();
    SdfError::Deadlock(format!("no actor can fire; pending: {}", stuck.join(", ")))
}

/// [`simulate_iteration`] without the witness: `Ok(())` exactly when it
/// returns an order, and otherwise the same error. `q` must be `graph`'s
/// repetition vector.
///
/// Each step fires a ready actor as often as its inputs and its pending
/// count allow, instead of once: the per-word helpers of a Fig. 4
/// expansion fire hundreds of times per iteration. The outcome does not
/// depend on the order of firings, because firing is persistent: a channel
/// has one consumer, so firing one actor never disables another, and every
/// maximal execution bounded by `q` ends with the same pending actors. The
/// deadlock therefore names the same actors.
///
/// No token count can overflow when `initial + p * q[src]` fits `u64` for
/// every channel, because a channel never holds more than that within one
/// iteration. Where it does not fit, this falls back to
/// [`simulate_iteration`], whose overflow error names the first channel
/// that overflows.
pub(crate) fn iteration_completes(graph: &SdfGraph, q: &RepetitionVector) -> Result<(), SdfError> {
    iteration_firings(q)?;
    let bounded = graph.channels().all(|(_, c)| {
        c.production_rate()
            .checked_mul(q.of(c.src()))
            .and_then(|produced| produced.checked_add(c.initial_tokens()))
            .is_some()
    });
    if !bounded {
        return simulate_iteration(graph, q).map(|_| ());
    }

    let n = graph.actor_count();
    let mut tokens: Vec<u64> = graph.channels().map(|(_, c)| c.initial_tokens()).collect();
    let mut remaining = q.entries().to_vec();
    let mut queued = vec![true; n];
    let mut worklist: Vec<ActorId> = (0..n).rev().map(ActorId).collect();
    while let Some(a) = worklist.pop() {
        queued[a.0] = false;
        let mut fire = remaining[a.0];
        for &cid in graph.incoming(a) {
            let ch = graph.channel(cid);
            let (held, c) = (tokens[cid.0], ch.consumption_rate());
            if ch.is_self_edge() {
                // Balanced, as `q` balances every channel: it keeps its
                // tokens and only gates the first firing.
                debug_assert_eq!(ch.production_rate(), c);
                if held < c {
                    fire = 0;
                }
            } else {
                fire = fire.min(held / c);
            }
        }
        if fire == 0 {
            continue;
        }
        remaining[a.0] -= fire;
        for &cid in graph.incoming(a) {
            let ch = graph.channel(cid);
            if !ch.is_self_edge() {
                tokens[cid.0] -= fire * ch.consumption_rate();
            }
        }
        for &cid in graph.outgoing(a) {
            let ch = graph.channel(cid);
            if ch.is_self_edge() {
                continue;
            }
            tokens[cid.0] += fire * ch.production_rate();
            let d = ch.dst();
            if !queued[d.0] {
                queued[d.0] = true;
                worklist.push(d);
            }
        }
    }
    if remaining.iter().all(|&r| r == 0) {
        Ok(())
    } else {
        Err(deadlock(graph, &remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SdfGraphBuilder;
    use crate::ratio::gcd;
    use proptest::prelude::*;

    /// Initial tokens: few, or so many that producing overflows `u64`.
    fn tokens() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..4, 0u64..12, (u64::MAX - 64)..=u64::MAX]
    }

    /// A consistent graph over a random vector `q`: a chain through every
    /// actor plus random channels, self-edges included, each balanced by
    /// `q` (rates `k * q[dst] / g` and `k * q[src] / g`).
    fn consistent() -> impl Strategy<Value = SdfGraph> {
        (1usize..6).prop_flat_map(|n| {
            let q = proptest::collection::vec(1u64..5, n);
            let chain = proptest::collection::vec(tokens(), n - 1);
            let extra = proptest::collection::vec((0..n, 0..n, 1u64..4, tokens()), 0..n + 2);
            (q, chain, extra).prop_map(move |(q, chain, extra)| {
                let mut b = SdfGraphBuilder::new("consistent");
                for i in 0..n {
                    b.add_actor(format!("a{i}"), 1);
                }
                let links = chain.iter().enumerate().map(|(i, &t)| (i, i + 1, 1, t));
                for (i, (s, d, k, t)) in links.chain(extra).enumerate() {
                    let g = gcd(q[s], q[d]);
                    let (p, c) = (k * q[d] / g, k * q[s] / g);
                    b.add_channel_with_tokens(format!("e{i}"), ActorId(s), p, ActorId(d), c, t);
                }
                b.build().unwrap()
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        #[test]
        fn pre_check_agrees_with_the_simulation(g in consistent()) {
            let q = repetition_vector(&g).unwrap();
            prop_assert_eq!(
                iteration_completes(&g, &q),
                simulate_iteration(&g, &q).map(|_| ())
            );
        }
    }

    #[test]
    fn pre_check_gives_the_simulation_errors() {
        let pair = |p, c, tokens| {
            let mut b = SdfGraphBuilder::new("pair");
            let (a, d) = (b.add_actor("A", 1), b.add_actor("B", 1));
            b.add_channel_with_tokens("e", a, p, d, c, tokens);
            b.add_channel_with_tokens("r", d, c, a, p, 0);
            b.build().unwrap()
        };
        let cases = [
            // Over the firing budget, checked before any firing.
            pair(1, 1 << 25, 1 << 25),
            // The first firing of `A` overflows the token count of `e`.
            pair(1, 1, u64::MAX),
            // Live: `B` fires twice in one step.
            pair(2, 1, 1),
            // Both pending.
            pair(1, 1, 0),
        ];
        for g in cases {
            let q = repetition_vector(&g).unwrap();
            assert_eq!(
                iteration_completes(&g, &q),
                simulate_iteration(&g, &q).map(|_| ()),
                "{g:?}"
            );
        }
        let q = repetition_vector(&pair(1, 1, 0)).unwrap();
        assert_eq!(
            iteration_completes(&pair(1, 1, 0), &q),
            Err(SdfError::Deadlock(
                "no actor can fire; pending: A, B".into()
            ))
        );
    }

    #[test]
    fn cycle_without_tokens_deadlocks() {
        let mut b = SdfGraphBuilder::new("dead");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("B", 1);
        b.add_channel("f", a, 1, c, 1);
        b.add_channel("r", c, 1, a, 1);
        let g = b.build().unwrap();
        match check_liveness(&g) {
            Err(SdfError::Deadlock(msg)) => {
                assert!(msg.contains('A') && msg.contains('B'));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn cycle_with_token_is_live() {
        let mut b = SdfGraphBuilder::new("live");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("B", 1);
        b.add_channel_with_tokens("f", a, 1, c, 1, 1);
        b.add_channel("r", c, 1, a, 1);
        let g = b.build().unwrap();
        let order = check_liveness(&g).unwrap();
        assert_eq!(order.firings().len(), 2);
    }

    #[test]
    fn fig2_iteration_order() {
        let mut b = SdfGraphBuilder::new("fig2");
        let a = b.add_actor("A", 10);
        let bb = b.add_actor("B", 5);
        let c = b.add_actor("C", 7);
        b.add_channel("a2b", a, 2, bb, 1);
        b.add_channel("a2c", a, 1, c, 1);
        b.add_channel("b2c", bb, 1, c, 2);
        b.add_channel_with_tokens("selfA", a, 1, a, 1, 1);
        let g = b.build().unwrap();
        let order = check_liveness(&g).unwrap();
        // One iteration: A once, B twice, C once = 4 firings, A first.
        assert_eq!(order.firings().len(), 4);
        assert_eq!(order.firings()[0], a);
        let count = |x| order.firings().iter().filter(|&&f| f == x).count();
        assert_eq!(count(a), 1);
        assert_eq!(count(bb), 2);
        assert_eq!(count(c), 1);
    }

    #[test]
    fn insufficient_initial_tokens_deadlock() {
        // C needs 2 tokens per firing but the cycle only ever holds 1.
        let mut b = SdfGraphBuilder::new("starve");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("C", 1);
        b.add_channel_with_tokens("f", a, 1, c, 2, 1);
        b.add_channel("r", c, 2, a, 1);
        let g = b.build().unwrap();
        assert!(matches!(check_liveness(&g), Err(SdfError::Deadlock(_))));
    }

    #[test]
    fn oversized_iterations_are_errors_not_panics() {
        let pair = |p, c, tokens| {
            let mut b = SdfGraphBuilder::new("pair");
            let (a, d) = (b.add_actor("A", 1), b.add_actor("B", 1));
            b.add_channel_with_tokens("e", a, p, d, c, tokens);
            check_liveness(&b.build().unwrap())
        };
        // q = (c, p): a firing count that fits u64 but not the budget.
        let huge = pair(9223372036854775783, 9223372036854775643, 0);
        assert!(matches!(huge, Err(SdfError::AnalysisLimit(_))));
        // q = (2^25, 1) fits in memory, but is over the firing budget.
        assert_eq!(
            pair(1, 1 << 25, 0),
            Err(SdfError::AnalysisLimit(
                "one iteration of 33554433 firings exceeds the budget of 16777216 firings".into()
            ))
        );
        // The first firing of `A` overflows the token count of `e`.
        let full = pair(1, 1, u64::MAX);
        assert_eq!(
            full,
            Err(SdfError::Overflow("tokens on channel `e`".into()))
        );
    }

    #[test]
    fn acyclic_graph_always_live() {
        let mut b = SdfGraphBuilder::new("acyc");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("B", 1);
        let d = b.add_actor("C", 1);
        b.add_channel("e1", a, 3, c, 2);
        b.add_channel("e2", c, 1, d, 3);
        let g = b.build().unwrap();
        let order = check_liveness(&g).unwrap();
        // q = (2, 3, 1): 6 firings total.
        assert_eq!(order.firings().len(), 6);
    }
}
