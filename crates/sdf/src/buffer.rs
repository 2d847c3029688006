//! Buffer-capacity helpers of the flow's one buffer-sizing search.
//!
//! SDF3 computes buffer distributions alongside the mapping (paper §5.1:
//! "SDF3 also verifies if such a mapping is deadlock free, calculates buffer
//! distributions, and predicts which throughput can be guaranteed"). In
//! this flow that is the `buffer-size` pass of `mamps_mapping`: it starts
//! every channel at [`capacity_lower_bound`], grows allocations while the
//! mapped graph deadlocks, and then grows the most profitable buffer one
//! [`grow_step`] at a time toward the throughput target.

use crate::graph::{ChannelId, SdfGraph};
use crate::ratio::{gcd, Ratio};

/// Per-channel lower bound for a deadlock-free capacity of a single channel
/// in isolation: `p + c - gcd(p, c)`, raised to the initial token count if
/// that is larger. (Self-edges keep their own token count.)
pub fn capacity_lower_bound(graph: &SdfGraph, id: ChannelId) -> u64 {
    let ch = graph.channel(id);
    let p = ch.production_rate();
    let c = ch.consumption_rate();
    let lb = p + c - gcd(p, c);
    lb.max(ch.initial_tokens())
}

/// One step of greedy buffer growth, the rule of the `buffer-size` search.
///
/// Applies each of `moves` to `state` in order, probes the grown state and
/// reverts the move. Then applies the first move whose probed throughput
/// (`rate` of the probe result) is strictly the highest and strictly above
/// `current`, and returns that move's probe result. Returns `Ok(None)` and
/// leaves `state` untouched when no move improves on `current`. Each move
/// is probed once, so a step never analyses the same distribution twice.
///
/// `apply(state, move, undo)` grows `state` by `move`, or shrinks it back
/// when `undo` is set. `probe` returns `Ok(None)` to skip a candidate.
///
/// # Errors
///
/// The first `Err` of `probe`. It aborts the step with `state` as it was.
pub fn grow_step<S: ?Sized, M, T, E>(
    state: &mut S,
    moves: &[M],
    current: Ratio,
    mut apply: impl FnMut(&mut S, &M, bool),
    mut probe: impl FnMut(&S) -> Result<Option<T>, E>,
    rate: impl Fn(&T) -> Ratio,
) -> Result<Option<T>, E> {
    let mut best: Option<(&M, T)> = None;
    for mv in moves {
        apply(state, mv, false);
        let probed = probe(state);
        apply(state, mv, true);
        if let Some(t) = probed? {
            let bar = best.as_ref().map_or(current, |(_, b)| rate(b));
            if rate(&t) > bar {
                best = Some((mv, t));
            }
        }
    }
    Ok(best.map(|(mv, t)| {
        apply(state, mv, false);
        t
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SdfGraphBuilder;

    fn chain(p: u64, c: u64) -> SdfGraph {
        let mut b = SdfGraphBuilder::new("chain");
        let a = b.add_actor("A", 2);
        let d = b.add_actor("B", 3);
        b.add_channel("e", a, p, d, c);
        b.build().unwrap()
    }

    #[test]
    fn lower_bound_formula() {
        let g = chain(2, 3);
        assert_eq!(capacity_lower_bound(&g, ChannelId(0)), 4); // 2+3-1
        let g = chain(4, 4);
        assert_eq!(capacity_lower_bound(&g, ChannelId(0)), 4); // 4+4-4
    }

    #[test]
    fn lower_bound_respects_initial_tokens() {
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("B", 1);
        b.add_channel_with_tokens("e", a, 1, c, 1, 7);
        let g = b.build().unwrap();
        assert_eq!(capacity_lower_bound(&g, ChannelId(0)), 7);
    }

    /// Applies (or, with `undo`, reverts) a `(counter, step)` move.
    fn grow(state: &mut [u64], &(idx, step): &(usize, u64), undo: bool) {
        if undo {
            state[idx] -= step;
        } else {
            state[idx] += step;
        }
    }

    /// Moves index a counter vector; a probe reports the rate of the one
    /// nonzero counter, or fails on the move named by `fail`.
    fn probe_rates(
        rates: &[Ratio],
        fail: Option<usize>,
    ) -> impl FnMut(&[u64]) -> Result<Option<Ratio>, usize> + '_ {
        move |s: &[u64]| {
            let i = s.iter().position(|&n| n > 0).unwrap();
            if fail == Some(i) {
                return Err(i);
            }
            Ok(Some(rates[i]))
        }
    }

    #[test]
    fn grow_step_takes_the_first_strictly_best_move() {
        // Moves 1 and 3 tie for the best rate: the first of them wins.
        let rates = [1, 2, 1, 2].map(|d| Ratio::new(d, 8));
        let mut state = [0u64; 4];
        let best = grow_step(
            &mut state[..],
            &[(0, 1), (1, 1), (2, 1), (3, 1)],
            Ratio::new(1, 16),
            grow,
            probe_rates(&rates, None),
            |r| *r,
        );
        assert_eq!(best, Ok(Some(Ratio::new(2, 8))));
        assert_eq!(state, [0, 1, 0, 0]);
    }

    #[test]
    fn grow_step_without_improvement_leaves_the_state_untouched() {
        let rates = [1, 2, 1].map(|d| Ratio::new(d, 8));
        let mut state = [0u64; 3];
        let best = grow_step(
            &mut state[..],
            &[(0, 1), (1, 1), (2, 1)],
            Ratio::new(2, 8),
            grow,
            probe_rates(&rates, None),
            |r| *r,
        );
        assert_eq!(best, Ok(None));
        assert_eq!(state, [0, 0, 0]);
    }

    #[test]
    fn grow_step_aborts_on_a_probe_error() {
        // Move 0 would improve, but the probe of move 1 fails: the step
        // stops there and the state stays as it was.
        let rates = [4, 2, 1].map(|d| Ratio::new(d, 8));
        let mut state = [0u64; 3];
        let best = grow_step(
            &mut state[..],
            &[(0, 1), (1, 1), (2, 1)],
            Ratio::new(1, 16),
            grow,
            probe_rates(&rates, Some(1)),
            |r| *r,
        );
        assert_eq!(best, Err(1));
        assert_eq!(state, [0, 0, 0]);
    }
}
