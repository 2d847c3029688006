//! SDF to HSDF (homogeneous SDF) conversion.
//!
//! Every actor `a` of a consistent SDF graph is expanded into `q[a]` copies,
//! one per firing within an iteration, and channels are rewired so that each
//! copy consumes exactly the tokens its firing would consume. The resulting
//! graph has all rates equal to one, enabling max-cycle-ratio analysis
//! ([`crate::mcr`]) as an independent check of the state-space throughput.

use crate::error::SdfError;
use crate::graph::{ActorId, SdfGraph, SdfGraphBuilder};
use crate::repetition::repetition_vector;
use std::collections::HashMap;

/// Result of an HSDF expansion, keeping the copy <-> original mapping.
#[derive(Debug, Clone)]
pub struct Hsdf {
    graph: SdfGraph,
    /// For each HSDF actor: (original actor, firing index).
    origin: Vec<(ActorId, u64)>,
}

impl Hsdf {
    /// The homogeneous graph (all rates are 1).
    pub fn graph(&self) -> &SdfGraph {
        &self.graph
    }

    /// Original actor and firing index of an HSDF copy.
    pub fn origin(&self, copy: ActorId) -> (ActorId, u64) {
        self.origin[copy.0]
    }
}

fn floor_div(a: i64, b: i64) -> i64 {
    let d = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        d - 1
    } else {
        d
    }
}

fn modulo(a: i64, b: i64) -> i64 {
    ((a % b) + b) % b
}

/// Converts a consistent, connected SDF graph into its HSDF equivalent.
///
/// # Errors
///
/// Propagates consistency errors from [`repetition_vector`], and returns
/// [`SdfError::Overflow`] if the expansion would create more than
/// `2^22` actor copies (the expansion is exponential in the worst case).
///
/// # Examples
///
/// ```
/// use mamps_sdf::graph::SdfGraphBuilder;
/// use mamps_sdf::hsdf::to_hsdf;
///
/// let mut b = SdfGraphBuilder::new("g");
/// let a = b.add_actor("A", 1);
/// let c = b.add_actor("B", 1);
/// b.add_channel("e", a, 2, c, 3);
/// let g = b.build().unwrap();
/// let h = to_hsdf(&g).unwrap();
/// // q = (3, 2): five copies in total.
/// assert_eq!(h.graph().actor_count(), 5);
/// ```
pub fn to_hsdf(graph: &SdfGraph) -> Result<Hsdf, SdfError> {
    let q = repetition_vector(graph)?;
    let total = q.total_firings().unwrap_or(u64::MAX);
    if total > (1 << 22) {
        return Err(SdfError::Overflow(format!(
            "HSDF expansion would create {total} actors"
        )));
    }

    let mut b = SdfGraphBuilder::new(format!("{}:hsdf", graph.name()));
    let mut copy_id: HashMap<(usize, u64), ActorId> = HashMap::new();
    let mut origin = Vec::with_capacity(total as usize);
    for (aid, actor) in graph.actors() {
        for k in 0..q.of(aid) {
            let id = b.add_actor(format!("{}#{k}", actor.name()), actor.execution_time());
            copy_id.insert((aid.0, k), id);
            origin.push((aid, k));
        }
    }

    // For each channel and each token consumed in one iteration, add an edge
    // from the producing copy to the consuming copy with a delay equal to the
    // number of iterations separating them. Parallel edges between the same
    // pair collapse to the minimum delay (the binding constraint).
    let mut edges: HashMap<(ActorId, ActorId), u64> = HashMap::new();
    for (_, ch) in graph.channels() {
        let p = ch.production_rate() as i64;
        let c = ch.consumption_rate() as i64;
        let d = ch.initial_tokens() as i64;
        let qu = q.of(ch.src()) as i64;
        let qv = q.of(ch.dst());
        for j in 0..qv {
            for l in 0..c {
                let k = (j as i64) * c + l; // token index consumed in iter 0
                let m = k - d; // global index of the producing token
                let i = floor_div(m, p); // global producer firing index
                let r = modulo(i, qu) as u64; // producer copy
                let it = floor_div(i, qu); // producer iteration (<= 0)
                let delay = (-it) as u64;
                let src = copy_id[&(ch.src().0, r)];
                let dst = copy_id[&(ch.dst().0, j)];
                edges
                    .entry((src, dst))
                    .and_modify(|e| *e = (*e).min(delay))
                    .or_insert(delay);
            }
        }
    }
    let mut sorted: Vec<((ActorId, ActorId), u64)> = edges.into_iter().collect();
    sorted.sort();
    for (idx, ((src, dst), delay)) in sorted.into_iter().enumerate() {
        b.add_channel_with_tokens(format!("h{idx}"), src, 1, dst, 1, delay);
    }
    let graph = b.build().expect("HSDF construction produces a valid graph");
    Ok(Hsdf { graph, origin })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SdfGraphBuilder;

    #[test]
    fn floor_div_and_modulo() {
        assert_eq!(floor_div(7, 2), 3);
        assert_eq!(floor_div(-1, 2), -1);
        assert_eq!(floor_div(-4, 2), -2);
        assert_eq!(modulo(-1, 3), 2);
        assert_eq!(modulo(5, 3), 2);
    }

    #[test]
    fn homogeneous_graph_is_identity_shape() {
        let mut b = SdfGraphBuilder::new("h");
        let a = b.add_actor("A", 2);
        let c = b.add_actor("B", 3);
        b.add_channel_with_tokens("e", a, 1, c, 1, 1);
        b.add_channel("r", c, 1, a, 1);
        let g = b.build().unwrap();
        let h = to_hsdf(&g).unwrap();
        assert_eq!(h.graph().actor_count(), 2);
        assert_eq!(h.graph().channel_count(), 2);
        let e = h.graph().channel_by_name("h0").unwrap();
        let _ = e; // delays preserved:
        let delays: Vec<u64> = h
            .graph()
            .channels()
            .map(|(_, c)| c.initial_tokens())
            .collect();
        let mut sorted = delays.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
    }

    #[test]
    fn multirate_expansion_counts() {
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("B", 1);
        b.add_channel("e", a, 2, c, 3);
        let g = b.build().unwrap();
        let h = to_hsdf(&g).unwrap();
        assert_eq!(h.graph().actor_count(), 5); // q = (3, 2)
        assert_eq!(h.origin(ActorId(0)), (a, 0));
        assert_eq!(h.origin(ActorId(3)), (c, 0));
    }

    #[test]
    fn initial_tokens_become_interiteration_delays() {
        // A -> B, rate 1/1, 1 initial token: B#0 reads the token produced by
        // A#0 of the *previous* iteration => delay 1 edge.
        let mut b = SdfGraphBuilder::new("d");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("B", 1);
        b.add_channel_with_tokens("e", a, 1, c, 1, 1);
        let g = b.build().unwrap();
        let h = to_hsdf(&g).unwrap();
        assert_eq!(h.graph().channel_count(), 1);
        let (_, ch) = h.graph().channels().next().unwrap();
        assert_eq!(ch.initial_tokens(), 1);
        assert_eq!(ch.production_rate(), 1);
        assert_eq!(ch.consumption_rate(), 1);
    }

    #[test]
    fn consumer_spanning_producers() {
        // A --1--> B with consumption 2 and q=(2,1): B#0 depends on both A#0
        // and A#1 in the same iteration (delay 0).
        let mut b = SdfGraphBuilder::new("span");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("B", 1);
        b.add_channel("e", a, 1, c, 2);
        let g = b.build().unwrap();
        let h = to_hsdf(&g).unwrap();
        assert_eq!(h.graph().actor_count(), 3);
        assert_eq!(h.graph().channel_count(), 2);
        for (_, ch) in h.graph().channels() {
            assert_eq!(ch.initial_tokens(), 0);
        }
    }

    #[test]
    fn self_edge_serializes_copies() {
        // Actor with q=2 and a 1-token self-edge: copies chained with the
        // token returning across the iteration boundary.
        let mut b = SdfGraphBuilder::new("se");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("B", 1);
        b.add_channel("e", a, 1, c, 2); // q = (2, 1)
        b.add_channel_with_tokens("s", a, 1, a, 1, 1);
        let g = b.build().unwrap();
        let h = to_hsdf(&g).unwrap();
        // A#0 -> A#1 (delay 0) and A#1 -> A#0 (delay 1).
        let a0 = h.graph().actor_by_name("A#0").unwrap();
        let a1 = h.graph().actor_by_name("A#1").unwrap();
        let mut found_fwd = false;
        let mut found_back = false;
        for (_, ch) in h.graph().channels() {
            if ch.src() == a0 && ch.dst() == a1 && ch.initial_tokens() == 0 {
                found_fwd = true;
            }
            if ch.src() == a1 && ch.dst() == a0 && ch.initial_tokens() == 1 {
                found_back = true;
            }
        }
        assert!(found_fwd && found_back);
    }
}
