//! Buffer-capacity analysis: minimal deadlock-free distributions and
//! throughput-constrained buffer sizing.
//!
//! SDF3 computes buffer distributions alongside the mapping (paper §5.1:
//! "SDF3 also verifies if such a mapping is deadlock free, calculates buffer
//! distributions, and predicts which throughput can be guaranteed"). The
//! algorithms here follow the same structure: capacities are modelled as
//! reverse channels ([`crate::transform::with_buffer_capacities`]), a
//! minimal live distribution is found by demand-driven growth from the
//! per-channel lower bound, and throughput targets are met by greedy growth
//! of the most profitable buffer.
//!
//! Every greedy search of the flow takes its steps through [`grow_step`]:
//! [`size_for_throughput`] and [`storage_throughput_pareto`] here, over
//! capacity vectors, and the `buffer-size` pass of `mamps_mapping`, over
//! the channel allocations of a mapping. A step probes each growth move
//! once and keeps the first strictly best, so a search never analyses the
//! same distribution twice. The searches here analyse with the bounded
//! kernel and reuse one set of kernel scratch buffers for all their probes.

use std::convert::Infallible;

use crate::error::SdfError;
use crate::graph::{ActorId, ChannelId, SdfGraph};
use crate::ratio::{gcd, Ratio};
use crate::repetition::{repetition_vector, RepetitionVector};
use crate::state_space::{
    throughput, throughput_bounded_with, AnalysisOptions, Scratch, ThroughputResult,
};

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

/// One step of greedy buffer growth, the rule every sizing search shares.
///
/// Applies each of `moves` to `state` in order, probes the grown state and
/// reverts the move. Then applies the first move whose probed throughput
/// (`rate` of the probe result) is strictly the highest and strictly above
/// `current`, and returns that move's probe result. Returns `Ok(None)` and
/// leaves `state` untouched when no move improves on `current`.
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

/// Computes a minimal-ish deadlock-free buffer distribution.
///
/// Starting from every channel's isolated lower bound, the abstract
/// execution is run; when it stalls, the capacities blocking a pending actor
/// are grown by one rate step and the search repeats. The result is live but
/// not guaranteed globally minimal (finding the minimum is NP-hard); it
/// matches the demand-driven heuristic used in practice.
///
/// # Errors
///
/// * Consistency errors from [`repetition_vector`].
/// * [`SdfError::Deadlock`] if the *unbounded* graph already deadlocks
///   (no capacity assignment can help).
/// * [`SdfError::AnalysisLimit`] if growth does not converge.
pub fn minimal_live_capacities(graph: &SdfGraph) -> Result<Vec<u64>, SdfError> {
    // If the unbounded graph deadlocks, buffering is not the problem.
    crate::liveness::check_liveness(graph)?;

    let mut caps: Vec<u64> = graph
        .channels()
        .map(|(id, _)| capacity_lower_bound(graph, id))
        .collect();
    // Growth limit: generous multiple of the total iteration token traffic.
    let q = repetition_vector(graph)?;
    let limit: u64 = graph
        .channels()
        .map(|(_, c)| q.of(c.src()) * c.production_rate() + c.initial_tokens())
        .max()
        .unwrap_or(1)
        * 4
        + 16;

    for _ in 0..10_000 {
        match blocked_channels(graph, &q, &caps)? {
            None => return Ok(caps),
            Some(blocked) => {
                let mut grew = false;
                for cid in blocked {
                    let ch = graph.channel(cid);
                    let step = gcd(ch.production_rate(), ch.consumption_rate());
                    if caps[cid.0] + step <= limit {
                        caps[cid.0] += step;
                        grew = true;
                    }
                }
                if !grew {
                    return Err(SdfError::AnalysisLimit(
                        "buffer growth hit the safety limit without reaching liveness".into(),
                    ));
                }
            }
        }
    }
    Err(SdfError::AnalysisLimit(
        "buffer growth did not converge".into(),
    ))
}

/// Grows a live distribution until the bounded graph sustains `target`
/// iterations/cycle, greedily picking the channel whose growth helps most.
///
/// Returns the capacities and the throughput actually achieved.
///
/// # Errors
///
/// * Errors from [`minimal_live_capacities`] and the throughput analysis,
///   including the analysis of any growth candidate.
/// * [`SdfError::AnalysisLimit`] if the target is unreachable: growth stops
///   once no channel improves throughput (the graph's unbounded limit is
///   below the target) or the step budget is exhausted.
pub fn size_for_throughput(
    graph: &SdfGraph,
    target: Ratio,
    opts: &AnalysisOptions,
) -> Result<(Vec<u64>, ThroughputResult), SdfError> {
    let mut caps = minimal_live_capacities(graph)?;
    let mut scratch = Scratch::default();
    let mut analyse = |caps: &[u64]| throughput_bounded_with(graph, caps, opts, &mut scratch);
    let mut current = analyse(&caps)?;
    let moves = growth_moves(graph);
    let mut budget = 64 * graph.channel_count().max(1);

    while current.iterations_per_cycle < target {
        if budget == 0 {
            return Err(SdfError::AnalysisLimit(format!(
                "buffer sizing budget exhausted at throughput {}",
                current.iterations_per_cycle
            )));
        }
        budget -= 1;
        let rate = current.iterations_per_cycle;
        current = grow_step(
            &mut caps[..],
            &moves,
            rate,
            grow_capacity,
            |caps| analyse(caps).map(Some),
            |t| t.iterations_per_cycle,
        )?
        .ok_or_else(|| {
            SdfError::AnalysisLimit(format!(
                "throughput target {target} unreachable; saturated at {rate}"
            ))
        })?;
    }
    Ok((caps, current))
}

/// The growth moves of the capacity-vector searches: `(channel index,
/// step)` for every non-self channel, in channel order.
fn growth_moves(graph: &SdfGraph) -> Vec<(usize, u64)> {
    graph
        .channels()
        .filter(|(_, ch)| !ch.is_self_edge())
        .map(|(cid, ch)| (cid.0, gcd(ch.production_rate(), ch.consumption_rate())))
        .collect()
}

/// Applies (or, with `undo`, reverts) one growth move to a capacity vector.
fn grow_capacity(caps: &mut [u64], &(idx, step): &(usize, u64), undo: bool) {
    if undo {
        caps[idx] -= step;
    } else {
        caps[idx] += step;
    }
}

/// Runs the abstract iteration on the bounded graph; on stall, returns the
/// forward channels whose capacity blocks a pending actor (`Ok(None)` when
/// the iteration completes).
fn blocked_channels(
    graph: &SdfGraph,
    q: &RepetitionVector,
    caps: &[u64],
) -> Result<Option<Vec<ChannelId>>, SdfError> {
    let n = graph.actor_count();
    let mut fill: Vec<u64> = graph.channels().map(|(_, c)| c.initial_tokens()).collect();
    let mut remaining: Vec<u64> = (0..n).map(|i| q.of(ActorId(i))).collect();

    // An actor can fire if inputs are available *and* every non-self output
    // channel has spare capacity.
    let can_fire = |fill: &[u64], remaining: &[u64], a: usize| -> bool {
        if remaining[a] == 0 {
            return false;
        }
        let inputs_ok = graph
            .incoming(ActorId(a))
            .iter()
            .all(|&cid| fill[cid.0] >= graph.channel(cid).consumption_rate());
        let outputs_ok = graph.outgoing(ActorId(a)).iter().all(|&cid| {
            let ch = graph.channel(cid);
            if ch.is_self_edge() {
                return true;
            }
            fill[cid.0] + ch.production_rate() <= caps[cid.0]
        });
        inputs_ok && outputs_ok
    };

    loop {
        let mut fired = false;
        for a in 0..n {
            if can_fire(&fill, &remaining, a) {
                for &cid in graph.incoming(ActorId(a)) {
                    fill[cid.0] -= graph.channel(cid).consumption_rate();
                }
                for &cid in graph.outgoing(ActorId(a)) {
                    fill[cid.0] += graph.channel(cid).production_rate();
                }
                remaining[a] -= 1;
                fired = true;
            }
        }
        if remaining.iter().all(|&r| r == 0) {
            return Ok(None);
        }
        if !fired {
            // Collect output channels that are full for pending actors.
            let mut blocked = Vec::new();
            for (a, _) in remaining.iter().enumerate().filter(|&(_, &r)| r > 0) {
                for &cid in graph.outgoing(ActorId(a)) {
                    let ch = graph.channel(cid);
                    if !ch.is_self_edge() && fill[cid.0] + ch.production_rate() > caps[cid.0] {
                        blocked.push(cid);
                    }
                }
            }
            if blocked.is_empty() {
                // Stall is caused by inputs, not capacities: genuine deadlock
                // (should have been caught by the unbounded liveness check).
                return Err(SdfError::Deadlock(
                    "stall not attributable to buffer capacities".into(),
                ));
            }
            blocked.sort();
            blocked.dedup();
            return Ok(Some(blocked));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SdfGraphBuilder;
    use crate::transform::with_buffer_capacities;

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

    #[test]
    fn minimal_capacities_are_live() {
        let g = chain(2, 3);
        let caps = minimal_live_capacities(&g).unwrap();
        let bounded = with_buffer_capacities(&g, &caps).unwrap();
        assert!(crate::liveness::check_liveness(&bounded).is_ok());
    }

    #[test]
    fn unit_rate_chain_needs_capacity_one() {
        let g = chain(1, 1);
        let caps = minimal_live_capacities(&g).unwrap();
        assert_eq!(caps, vec![1]);
    }

    #[test]
    fn deadlocked_graph_rejected() {
        let mut b = SdfGraphBuilder::new("dead");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("B", 1);
        b.add_channel("f", a, 1, c, 1);
        b.add_channel("r", c, 1, a, 1);
        let g = b.build().unwrap();
        assert!(matches!(
            minimal_live_capacities(&g),
            Err(SdfError::Deadlock(_))
        ));
    }

    #[test]
    fn sizing_reaches_saturation_throughput() {
        // Unbounded bottleneck: B at 1/3. A buffer of 2 already decouples.
        let g = chain(1, 1);
        let (caps, t) =
            size_for_throughput(&g, Ratio::new(1, 3), &AnalysisOptions::default()).unwrap();
        assert_eq!(t.iterations_per_cycle, Ratio::new(1, 3));
        assert!(caps[0] >= 1);
    }

    #[test]
    fn unreachable_target_reported() {
        let g = chain(1, 1);
        let r = size_for_throughput(&g, Ratio::new(1, 2), &AnalysisOptions::default());
        assert!(matches!(r, Err(SdfError::AnalysisLimit(_))));
    }

    #[test]
    fn larger_target_needs_no_smaller_buffers() {
        let g = chain(2, 3);
        let (caps_low, _) =
            size_for_throughput(&g, Ratio::new(1, 100), &AnalysisOptions::default()).unwrap();
        let (caps_high, _) =
            size_for_throughput(&g, Ratio::new(1, 9), &AnalysisOptions::default()).unwrap();
        let total_low: u64 = caps_low.iter().sum();
        let total_high: u64 = caps_high.iter().sum();
        assert!(total_high >= total_low);
    }

    #[test]
    fn multirate_cycle_with_state_edge() {
        let mut b = SdfGraphBuilder::new("mrc");
        let a = b.add_actor("A", 4);
        let c = b.add_actor("B", 1);
        b.add_channel("e", a, 3, c, 2);
        b.add_channel_with_tokens("sa", a, 1, a, 1, 1);
        let g = b.build().unwrap();
        let caps = minimal_live_capacities(&g).unwrap();
        let bounded = with_buffer_capacities(&g, &caps).unwrap();
        assert!(throughput(&bounded, &AnalysisOptions::default()).is_ok());
    }

    #[test]
    fn sizing_and_pareto_agree_at_saturation() {
        // 1/6 is the saturation throughput of the chain, so sizing and the
        // pareto walk stop at the same link of the greedy chain.
        let g = chain(2, 3);
        let opts = AnalysisOptions::default();
        let (caps, t) = size_for_throughput(&g, Ratio::new(1, 6), &opts).unwrap();
        let points = storage_throughput_pareto(&g, &opts, 32).unwrap();
        assert_eq!(points.last().unwrap().throughput, t.iterations_per_cycle);
        assert_eq!(points.last().unwrap().capacities, caps);
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
            grow_capacity,
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
            grow_capacity,
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
            grow_capacity,
            probe_rates(&rates, Some(1)),
            |r| *r,
        );
        assert_eq!(best, Err(1));
        assert_eq!(state, [0, 0, 0]);
    }
}

/// A point of the storage/throughput trade-off.
#[derive(Debug, Clone, PartialEq)]
pub struct StoragePoint {
    /// Buffer capacities per channel.
    pub capacities: Vec<u64>,
    /// Total storage in tokens.
    pub total_tokens: u64,
    /// Throughput achieved with these capacities.
    pub throughput: Ratio,
}

/// Explores the storage/throughput Pareto space (SDF3's storage-throughput
/// trade-off, paper §5.1: "calculates buffer distributions"): starting from
/// the minimal live distribution, repeatedly grows the most profitable
/// buffer and records every point where the throughput strictly improves,
/// until the unbounded throughput is reached or growth saturates.
///
/// The returned points are Pareto-optimal within the explored (greedy)
/// chain: strictly increasing in both storage and throughput.
///
/// # Errors
///
/// Propagates liveness/analysis errors of the unbounded graph and of the
/// minimal live distribution; a growth candidate whose analysis fails is
/// skipped.
pub fn storage_throughput_pareto(
    graph: &SdfGraph,
    opts: &AnalysisOptions,
    max_steps: usize,
) -> Result<Vec<StoragePoint>, SdfError> {
    let unbounded = throughput(graph, opts)?.iterations_per_cycle;
    let mut caps = minimal_live_capacities(graph)?;
    let mut scratch = Scratch::default();
    let mut analyse = |caps: &[u64]| throughput_bounded_with(graph, caps, opts, &mut scratch);
    let mut current = analyse(&caps)?.iterations_per_cycle;
    let point = |caps: &[u64], throughput: Ratio| StoragePoint {
        capacities: caps.to_vec(),
        total_tokens: caps.iter().sum(),
        throughput,
    };
    let mut points = vec![point(&caps, current)];
    let moves = growth_moves(graph);

    for _ in 0..max_steps {
        if current >= unbounded {
            break;
        }
        let Ok(Some(t)) = grow_step(
            &mut caps[..],
            &moves,
            current,
            grow_capacity,
            |caps| Ok::<_, Infallible>(analyse(caps).ok()),
            |t| t.iterations_per_cycle,
        ) else {
            break; // saturated below the unbounded limit
        };
        current = t.iterations_per_cycle;
        points.push(point(&caps, current));
    }
    Ok(points)
}

#[cfg(test)]
mod pareto_tests {
    use super::*;
    use crate::graph::SdfGraphBuilder;

    fn chain() -> SdfGraph {
        let mut b = SdfGraphBuilder::new("p");
        let a = b.add_actor("A", 2);
        let d = b.add_actor("B", 3);
        b.add_channel("e", a, 2, d, 3);
        b.build().unwrap()
    }

    #[test]
    fn pareto_points_strictly_improve() {
        let points = storage_throughput_pareto(&chain(), &AnalysisOptions::default(), 32).unwrap();
        assert!(points.len() >= 2, "expected a non-trivial trade-off");
        for w in points.windows(2) {
            assert!(w[1].total_tokens > w[0].total_tokens);
            assert!(w[1].throughput > w[0].throughput);
        }
    }

    #[test]
    fn pareto_reaches_the_unbounded_limit() {
        let g = chain();
        let unbounded = throughput(&g, &AnalysisOptions::default()).unwrap();
        let points = storage_throughput_pareto(&g, &AnalysisOptions::default(), 64).unwrap();
        assert_eq!(
            points.last().unwrap().throughput,
            unbounded.iterations_per_cycle,
            "the chain should saturate at the unbounded throughput"
        );
    }

    #[test]
    fn first_point_is_minimal_live() {
        let g = chain();
        let min = minimal_live_capacities(&g).unwrap();
        let points = storage_throughput_pareto(&g, &AnalysisOptions::default(), 8).unwrap();
        assert_eq!(points[0].capacities, min);
    }
}
