//! Repetition-vector computation and sample-rate consistency.
//!
//! The repetition vector `q` of a consistent SDF graph is the smallest
//! positive integer vector such that for every channel `(src, dst)` with
//! production rate `p` and consumption rate `c`: `q[src] * p == q[dst] * c`.
//! One *iteration* of the graph fires each actor `q[a]` times and returns
//! every channel to its initial token count.

use crate::error::SdfError;
use crate::graph::{ActorId, SdfGraph};
use crate::ratio::{lcm, Ratio};

/// The repetition vector of a consistent, connected SDF graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepetitionVector {
    entries: Vec<u64>,
}

impl RepetitionVector {
    /// Number of firings of `actor` in one graph iteration.
    pub fn of(&self, actor: ActorId) -> u64 {
        self.entries[actor.0]
    }

    /// All entries indexed by actor id.
    pub fn entries(&self) -> &[u64] {
        &self.entries
    }

    /// Total number of firings in one iteration (useful as a work measure),
    /// or `None` when it overflows `u64`.
    pub fn total_firings(&self) -> Option<u64> {
        self.entries
            .iter()
            .try_fold(0u64, |sum, &r| sum.checked_add(r))
    }
}

/// Computes the repetition vector of `graph`.
///
/// # Errors
///
/// * [`SdfError::Disconnected`] if the graph is not connected (no common
///   normalization exists).
/// * [`SdfError::Inconsistent`] if some channel cannot be balanced.
/// * [`SdfError::Overflow`] if scaling the fractional solution to integers
///   overflows `u64` (pathological rate combinations).
///
/// # Examples
///
/// ```
/// use mamps_sdf::graph::SdfGraphBuilder;
/// use mamps_sdf::repetition::repetition_vector;
///
/// let mut b = SdfGraphBuilder::new("g");
/// let a = b.add_actor("A", 1);
/// let c = b.add_actor("B", 1);
/// b.add_channel("e", a, 2, c, 3);
/// let g = b.build().unwrap();
/// let q = repetition_vector(&g).unwrap();
/// assert_eq!(q.of(a), 3);
/// assert_eq!(q.of(c), 2);
/// ```
pub fn repetition_vector(graph: &SdfGraph) -> Result<RepetitionVector, SdfError> {
    if graph.actor_count() == 0 {
        return Ok(RepetitionVector {
            entries: Vec::new(),
        });
    }
    if !graph.is_connected() {
        return Err(SdfError::Disconnected);
    }

    // Propagate fractional firing rates from actor 0 through the graph.
    let n = graph.actor_count();
    let mut frac: Vec<Option<Ratio>> = vec![None; n];
    frac[0] = Some(Ratio::ONE);
    let mut stack = vec![ActorId(0)];
    while let Some(v) = stack.pop() {
        let fv = frac[v.0].expect("visited actors have a rate");
        for &cid in graph.outgoing(v) {
            let ch = graph.channel(cid);
            let fw = fv * Ratio::new(ch.production_rate() as i128, ch.consumption_rate() as i128);
            match frac[ch.dst().0] {
                None => {
                    frac[ch.dst().0] = Some(fw);
                    stack.push(ch.dst());
                }
                Some(existing) => {
                    if existing != fw {
                        return Err(SdfError::Inconsistent(format!(
                            "channel `{}` cannot be balanced ({} vs {})",
                            ch.name(),
                            existing,
                            fw
                        )));
                    }
                }
            }
        }
        for &cid in graph.incoming(v) {
            let ch = graph.channel(cid);
            let fw = fv * Ratio::new(ch.consumption_rate() as i128, ch.production_rate() as i128);
            match frac[ch.src().0] {
                None => {
                    frac[ch.src().0] = Some(fw);
                    stack.push(ch.src());
                }
                Some(existing) => {
                    if existing != fw {
                        return Err(SdfError::Inconsistent(format!(
                            "channel `{}` cannot be balanced ({} vs {})",
                            ch.name(),
                            existing,
                            fw
                        )));
                    }
                }
            }
        }
    }

    // Scale fractions to the smallest integer vector: multiply by the LCM of
    // denominators, then divide by the GCD of numerators.
    let mut denom_lcm: u64 = 1;
    for f in frac.iter().flatten() {
        let d = f.denom() as u64;
        denom_lcm = lcm(denom_lcm, d);
        if denom_lcm == 0 {
            return Err(SdfError::Overflow("repetition vector scaling".into()));
        }
    }
    let mut entries: Vec<u64> = Vec::with_capacity(n);
    for f in &frac {
        let f = f.expect("connected graph covers all actors");
        let scaled = f * Ratio::from_int(denom_lcm as i128);
        debug_assert!(scaled.is_integer());
        let v = scaled.numer();
        if v <= 0 || v > u64::MAX as i128 {
            return Err(SdfError::Overflow("repetition vector entry".into()));
        }
        entries.push(v as u64);
    }
    let g = entries.iter().copied().fold(0u64, crate::ratio::gcd).max(1);
    for e in &mut entries {
        *e /= g;
    }
    Ok(RepetitionVector { entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SdfGraphBuilder;

    fn fig2() -> SdfGraph {
        let mut b = SdfGraphBuilder::new("fig2");
        let a = b.add_actor("A", 10);
        let bb = b.add_actor("B", 5);
        let c = b.add_actor("C", 7);
        b.add_channel("a2b", a, 2, bb, 1);
        b.add_channel("a2c", a, 1, c, 1);
        b.add_channel("b2c", bb, 1, c, 2);
        b.add_channel_with_tokens("selfA", a, 1, a, 1, 1);
        b.build().unwrap()
    }

    #[test]
    fn fig2_repetition_vector() {
        // A fires once, producing 2 tokens for B (rate 1 -> B fires twice)
        // and 1 token for C; B's two firings give C's 2-rate input one
        // consumption, so C fires once.
        let g = fig2();
        let q = repetition_vector(&g).unwrap();
        assert_eq!(q.of(g.actor_by_name("A").unwrap()), 1);
        assert_eq!(q.of(g.actor_by_name("B").unwrap()), 2);
        assert_eq!(q.of(g.actor_by_name("C").unwrap()), 1);
        assert_eq!(q.total_firings(), Some(4));
    }

    #[test]
    fn inconsistent_graph_detected() {
        let mut b = SdfGraphBuilder::new("bad");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("B", 1);
        // Two parallel channels with incompatible rate ratios.
        b.add_channel("e1", a, 1, c, 1);
        b.add_channel("e2", a, 2, c, 1);
        let g = b.build().unwrap();
        assert!(matches!(
            repetition_vector(&g),
            Err(SdfError::Inconsistent(_))
        ));
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut b = SdfGraphBuilder::new("disc");
        b.add_actor("A", 1);
        b.add_actor("B", 1);
        let g = b.build().unwrap();
        assert_eq!(repetition_vector(&g), Err(SdfError::Disconnected));
    }

    #[test]
    fn empty_graph_ok() {
        let g = SdfGraphBuilder::new("empty").build().unwrap();
        let q = repetition_vector(&g).unwrap();
        assert_eq!(q.entries().len(), 0);
        assert_eq!(q.total_firings(), Some(0));
    }

    #[test]
    fn single_actor_with_self_edge() {
        let mut b = SdfGraphBuilder::new("one");
        let a = b.add_actor("A", 3);
        b.add_channel_with_tokens("s", a, 1, a, 1, 1);
        let g = b.build().unwrap();
        let q = repetition_vector(&g).unwrap();
        assert_eq!(q.of(a), 1);
    }

    #[test]
    fn rates_requiring_scaling() {
        // A --6--> B --10--> C with consumption 4 and 15:
        // q_A * 6 = q_B * 4, q_B * 10 = q_C * 15 => q = (2, 3, 2).
        let mut b = SdfGraphBuilder::new("scale");
        let a = b.add_actor("A", 1);
        let bb = b.add_actor("B", 1);
        let c = b.add_actor("C", 1);
        b.add_channel("e1", a, 6, bb, 4);
        b.add_channel("e2", bb, 10, c, 15);
        let g = b.build().unwrap();
        let q = repetition_vector(&g).unwrap();
        assert_eq!(
            (q.of(a), q.of(bb), q.of(c)),
            (2, 3, 2),
            "smallest integer solution expected"
        );
    }

    #[test]
    fn vector_is_minimal() {
        // All rates equal: repetition vector must be all ones, not all twos.
        let mut b = SdfGraphBuilder::new("min");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("B", 1);
        b.add_channel("e1", a, 4, c, 4);
        let g = b.build().unwrap();
        let q = repetition_vector(&g).unwrap();
        assert_eq!(q.entries(), &[1, 1]);
    }
}
