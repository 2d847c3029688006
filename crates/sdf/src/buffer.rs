//! Buffer-capacity helpers of the flow's one buffer-sizing search.
//!
//! SDF3 computes buffer distributions alongside the mapping (paper §5.1:
//! "SDF3 also verifies if such a mapping is deadlock free, calculates buffer
//! distributions, and predicts which throughput can be guaranteed"). In
//! this flow that is the `buffer-size` pass of `mamps_mapping`: it starts
//! every channel at [`capacity_lower_bound`], grows allocations while the
//! mapped graph deadlocks, and then grows the most profitable buffer one
//! step at a time toward the throughput target.

use crate::graph::{ChannelId, SdfGraph};
use crate::ratio::gcd;

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
}
