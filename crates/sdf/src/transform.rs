//! Graph transformations used by the analysis and mapping flows.
//!
//! The graph-to-graph transformations are pure: they build a new graph,
//! leaving the input untouched. Static orders instead extend a graph under
//! construction (an [`SdfGraphBuilder`]), because their one caller, the
//! Fig. 4 expansion, is building the graph they order. Three
//! transformations recur throughout the paper's flow:
//!
//! * **Self-edges** model the exclusion of auto-concurrency (each actor is a
//!   single task; paper §3 also uses them for actor state as in Fig. 2).
//! * **Reverse channels** model bounded buffer capacities: a channel with
//!   capacity `β` is paired with a reverse channel holding `β - d` initial
//!   tokens, so the producer blocks when the buffer is full (paper §3,
//!   "modeling restrictions like limited buffer sizes").
//! * **Static-order chains** encode the per-tile firing order chosen by the
//!   scheduler, so the analysed model and the generated implementation agree
//!   (paper §5.1/§5.2).

use std::fmt::Write;

use crate::error::SdfError;
use crate::graph::{ActorId, SdfGraph, SdfGraphBuilder};

/// Returns a copy of `graph` with a single-token self-edge added to every
/// actor that lacks one, excluding auto-concurrency.
///
/// # Examples
///
/// ```
/// use mamps_sdf::graph::SdfGraphBuilder;
/// use mamps_sdf::transform::add_missing_self_edges;
///
/// let mut b = SdfGraphBuilder::new("g");
/// let a = b.add_actor("A", 1);
/// let c = b.add_actor("B", 1);
/// b.add_channel("e", a, 1, c, 1);
/// let g = b.build().unwrap();
/// let g2 = add_missing_self_edges(&g);
/// assert_eq!(g2.channel_count(), 3);
/// ```
pub fn add_missing_self_edges(graph: &SdfGraph) -> SdfGraph {
    let mut b = copy_into_builder(graph, format!("{}:noac", graph.name()));
    for (aid, actor) in graph.actors() {
        let has_self = graph
            .outgoing(aid)
            .iter()
            .any(|&c| graph.channel(c).is_self_edge());
        if !has_self {
            b.add_channel_with_tokens(format!("__self_{}", actor.name()), aid, 1, aid, 1, 1);
        }
    }
    b.build().expect("adding self-edges preserves validity")
}

/// Returns a copy of `graph` where every channel `c` is back-pressured by a
/// reverse channel modelling a buffer of `capacities[c]` tokens.
///
/// Self-edges are skipped: their capacity is fixed by their own tokens.
///
/// # Errors
///
/// Returns [`SdfError::InvalidGraph`] if `capacities.len()` does not match
/// the channel count, or if some capacity is smaller than the channel's
/// initial tokens (the buffer could not even hold the initial state).
pub fn with_buffer_capacities(graph: &SdfGraph, capacities: &[u64]) -> Result<SdfGraph, SdfError> {
    if capacities.len() != graph.channel_count() {
        return Err(SdfError::InvalidGraph(format!(
            "expected {} capacities, got {}",
            graph.channel_count(),
            capacities.len()
        )));
    }
    let mut b = copy_into_builder(graph, format!("{}:bounded", graph.name()));
    for (cid, ch) in graph.channels() {
        if ch.is_self_edge() {
            continue;
        }
        let cap = capacities[cid.0];
        if cap < ch.initial_tokens() {
            return Err(SdfError::InvalidGraph(format!(
                "capacity {cap} of channel `{}` is below its {} initial tokens",
                ch.name(),
                ch.initial_tokens()
            )));
        }
        b.add_channel_with_tokens(
            format!("__cap_{}", ch.name()),
            ch.dst(),
            ch.consumption_rate(),
            ch.src(),
            ch.production_rate(),
            cap - ch.initial_tokens(),
        );
    }
    b.build()
}

/// Appends to the graph under construction in `b` static-order
/// constraint actors/channels forcing each listed batch sequence to execute
/// round-robin, and appends `:ordered` to its name.
///
/// A schedule is a list of *batches* `(actor, reps)`: the actor fires `reps`
/// times, then control passes to the next batch; after the last batch the
/// schedule wraps around. The encoding inserts a zero-time *gate* actor
/// after each batch: `a --(1/reps_a)--> gate --(reps_next/1)--> next`, with
/// the wrap-around gate preloaded so the first batch can start. Gates make
/// the batch semantics exact: the next batch cannot start before the whole
/// previous batch completed, matching a sequential processor running a
/// static-order lookup table (paper §6.3).
///
/// Each actor may appear at most once per schedule (the scheduler emits
/// batched orders); the repetition counts of all batches in one schedule
/// must be proportional to the actors' repetition-vector entries for the
/// result to stay consistent.
///
/// Working on the builder lets the Fig. 4 expansion add its gates before
/// its single [`SdfGraphBuilder::build`] instead of copying and
/// re-validating a finished graph.
///
/// # Errors
///
/// Returns [`SdfError::InvalidGraph`] if a schedule references an actor out
/// of range (of the actors `b` held on entry), lists an actor twice, or has
/// a zero repetition count. Every schedule is checked before anything is
/// added, so `b` is unchanged on error.
///
/// # Examples
///
/// ```
/// use mamps_sdf::graph::SdfGraphBuilder;
/// use mamps_sdf::transform::add_static_orders;
///
/// let mut b = SdfGraphBuilder::new("g");
/// let a = b.add_actor("A", 2);
/// let c = b.add_actor("B", 3);
/// b.add_channel("e", a, 1, c, 1);
/// add_static_orders(&mut b, &[vec![(a, 1), (c, 1)]]).unwrap();
/// let g = b.build().unwrap();
/// assert_eq!(g.name(), "g:ordered");
/// assert_eq!((g.actor_count(), g.channel_count()), (4, 5));
/// ```
pub fn add_static_orders(
    b: &mut SdfGraphBuilder,
    schedules: &[Vec<(ActorId, u64)>],
) -> Result<(), SdfError> {
    let actor_count = b.actors.len();
    for (tile, sched) in schedules.iter().enumerate() {
        if sched.len() <= 1 {
            continue; // a single actor needs no ordering
        }
        let mut seen = std::collections::HashSet::new();
        for &(a, reps) in sched {
            if a.0 >= actor_count {
                return Err(SdfError::InvalidGraph(format!(
                    "schedule {tile} references unknown actor {a}"
                )));
            }
            if reps == 0 {
                return Err(SdfError::InvalidGraph(format!(
                    "schedule {tile} has a zero repetition count for {a}"
                )));
            }
            if !seen.insert(a) {
                return Err(SdfError::InvalidGraph(format!(
                    "schedule {tile} lists actor {a} twice; emit batched orders"
                )));
            }
        }
    }
    b.name.push_str(":ordered");
    // `{tile}_{idx}`, formatted once per gate for its three names.
    let mut id = String::new();
    for (tile, sched) in schedules.iter().enumerate() {
        if sched.len() <= 1 {
            continue;
        }
        for (idx, &(a, reps_a)) in sched.iter().enumerate() {
            let (next, reps_next) = sched[(idx + 1) % sched.len()];
            let wrap = idx + 1 == sched.len();
            id.clear();
            write!(id, "{tile}_{idx}").expect("writing to a String cannot fail");
            let gate = b.add_actor(["__sog", &id].concat(), 0);
            // Gate fires once per completed batch of `a`...
            b.add_channel_with_tokens(["__soa", &id].concat(), a, 1, gate, reps_a, 0);
            // ...and releases the whole next batch. The wrap-around edge is
            // preloaded so the first batch can start immediately.
            b.add_channel_with_tokens(
                ["__sob", &id].concat(),
                gate,
                reps_next,
                next,
                1,
                if wrap { reps_next } else { 0 },
            );
        }
    }
    Ok(())
}

fn copy_into_builder(graph: &SdfGraph, name: String) -> SdfGraphBuilder {
    let mut b = SdfGraphBuilder::new(name);
    for (_, a) in graph.actors() {
        b.add_actor(a.name(), a.execution_time());
    }
    for (_, c) in graph.channels() {
        b.add_channel_full(
            c.name(),
            c.src(),
            c.production_rate(),
            c.dst(),
            c.consumption_rate(),
            c.initial_tokens(),
            c.token_size(),
        );
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state_space::{throughput, AnalysisOptions};

    fn two_actor_graph() -> SdfGraph {
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("A", 2);
        let c = b.add_actor("B", 3);
        b.add_channel("e", a, 1, c, 1);
        b.build().unwrap()
    }

    #[test]
    fn self_edges_added_once() {
        let g = two_actor_graph();
        let g1 = add_missing_self_edges(&g);
        assert_eq!(g1.channel_count(), 3);
        let g2 = add_missing_self_edges(&g1);
        assert_eq!(g2.channel_count(), 3);
    }

    #[test]
    fn buffer_capacity_backpressure() {
        let g = two_actor_graph();
        // Capacity 1 on the single channel.
        let bounded = with_buffer_capacities(&g, &[1]).unwrap();
        assert_eq!(bounded.channel_count(), 2);
        let t = throughput(&bounded, &AnalysisOptions::default()).unwrap();
        // With capacity 1: A fires (2 cycles), B fires (3), A can refire
        // only after B consumed: steady state period 3 — wait: A writes at
        // t=2, B runs [2,5), A refires during B? The reverse channel token
        // returns when B *finishes*. Period = 3 only if A's 2 cycles hide
        // inside B's 3. A needs the capacity token back at B's completion.
        // Steady state: B completes every 5 cycles? Let the analysis speak;
        // assert the bound is between the slowest actor and the sum.
        let v = t.as_f64();
        assert!(v <= 1.0 / 3.0 + 1e-12);
        assert!(v >= 1.0 / 5.0 - 1e-12);
    }

    #[test]
    fn larger_buffers_never_hurt() {
        let g = two_actor_graph();
        let mut last = 0.0;
        for cap in 1..=4 {
            let bounded = with_buffer_capacities(&g, &[cap]).unwrap();
            let t = throughput(&bounded, &AnalysisOptions::default())
                .unwrap()
                .as_f64();
            assert!(t >= last - 1e-12, "throughput decreased with larger buffer");
            last = t;
        }
        // Saturation: with enough capacity, B (3 cycles) is the bottleneck.
        assert!((last - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_below_initial_tokens_rejected() {
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("B", 1);
        b.add_channel_with_tokens("e", a, 1, c, 1, 3);
        let g = b.build().unwrap();
        assert!(with_buffer_capacities(&g, &[2]).is_err());
    }

    #[test]
    fn capacity_count_mismatch_rejected() {
        let g = two_actor_graph();
        assert!(with_buffer_capacities(&g, &[1, 1]).is_err());
    }

    #[test]
    fn self_edges_skipped_by_capacity() {
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("A", 1);
        b.add_channel_with_tokens("s", a, 1, a, 1, 1);
        let g = b.build().unwrap();
        let bounded = with_buffer_capacities(&g, &[5]).unwrap();
        assert_eq!(bounded.channel_count(), 1);
    }

    /// [`two_actor_graph`] with `schedules` added as static orders.
    fn ordered(schedules: &[Vec<(ActorId, u64)>]) -> Result<SdfGraph, SdfError> {
        let mut b = copy_into_builder(&two_actor_graph(), "g".into());
        add_static_orders(&mut b, schedules)?;
        b.build()
    }

    #[test]
    fn static_order_serializes_tile() {
        // A and B on one tile, same repetition count: order A then B.
        let (a, c) = (ActorId(0), ActorId(1));
        let ordered = ordered(&[vec![(a, 1), (c, 1)]]).unwrap();
        assert_eq!(ordered.name(), "g:ordered");
        // Original channel + 2 gate actors with 2 channels each.
        assert_eq!(ordered.actor_count(), 4);
        assert_eq!(ordered.channel_count(), 5);
        assert_eq!(ordered.actor(ActorId(3)).name(), "__sog0_1");
        let wrap = ordered.channel_by_name("__sob0_1").unwrap();
        assert_eq!(ordered.channel(wrap).initial_tokens(), 1);
        let t = throughput(&ordered, &AnalysisOptions::default()).unwrap();
        // Sequential execution on one processor: 2 + 3 cycles per iteration.
        assert_eq!(t.cycles_per_iteration(), 5.0);
    }

    #[test]
    fn static_order_errors_leave_the_builder_unchanged() {
        let (a, c) = (ActorId(0), ActorId(1));
        let err = |schedules: &[Vec<(ActorId, u64)>]| {
            let mut b = copy_into_builder(&two_actor_graph(), "g".into());
            let e = add_static_orders(&mut b, schedules).unwrap_err();
            assert_eq!(b.build().unwrap(), two_actor_graph());
            e.to_string()
        };
        assert!(err(&[vec![(a, 1), (a, 1)]]).contains("schedule 0 lists actor a0 twice"));
        assert!(err(&[vec![(a, 0), (c, 1)]]).contains("zero repetition count for a0"));
        // Actor a2 would exist once the first schedule's gates were added:
        // ids are checked against the actors present on entry.
        assert!(err(&[vec![(a, 1), (c, 1)], vec![(ActorId(2), 1), (c, 1)]])
            .contains("schedule 1 references unknown actor a2"));
        // A one-batch schedule orders nothing and is not checked.
        assert_eq!(ordered(&[vec![(ActorId(9), 0)]]).unwrap().actor_count(), 2);
    }
}
