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

/// Abstractly executes one iteration, returning the firing order.
/// Errors as [`check_liveness`].
pub(crate) fn simulate_iteration(
    graph: &SdfGraph,
    q: &RepetitionVector,
) -> Result<IterationOrder, SdfError> {
    let n = graph.actor_count();
    let mut tokens: Vec<u64> = graph.channels().map(|(_, c)| c.initial_tokens()).collect();
    let mut remaining: Vec<u64> = (0..n).map(|i| q.of(ActorId(i))).collect();
    let total = q
        .total_firings()
        .ok_or_else(|| SdfError::Overflow("firings of one iteration".into()))?;
    if total > MAX_ITERATION_FIRINGS {
        return Err(SdfError::AnalysisLimit(format!(
            "one iteration of {total} firings exceeds the budget of \
             {MAX_ITERATION_FIRINGS} firings"
        )));
    }
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
            let stuck: Vec<&str> = (0..n)
                .filter(|&a| remaining[a] > 0)
                .map(|a| graph.actor(ActorId(a)).name())
                .collect();
            return Err(SdfError::Deadlock(format!(
                "no actor can fire; pending: {}",
                stuck.join(", ")
            )));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SdfGraphBuilder;

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
