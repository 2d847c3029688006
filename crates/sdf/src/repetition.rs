//! Repetition-vector computation and sample-rate consistency.
//!
//! The repetition vector `q` of a consistent SDF graph is the smallest
//! positive integer vector such that for every channel `(src, dst)` with
//! production rate `p` and consumption rate `c`: `q[src] * p == q[dst] * c`.
//! One *iteration* of the graph fires each actor `q[a]` times and returns
//! every channel to its initial token count.

use std::fmt;

use crate::error::SdfError;
use crate::graph::{ActorId, SdfGraph};
use crate::ratio::gcd;

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
/// * [`SdfError::Overflow`] if the vector does not fit `u64`
///   (pathological rate combinations).
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
    // A disconnected graph reports `Disconnected` before any other error,
    // but connectivity is checked only when propagation fails or leaves an
    // actor unreached, so a connected graph is walked once.
    let frac = match firing_ratios(graph) {
        Ok(frac) if frac.iter().all(|f| f.den != 0) => frac,
        _ if !graph.is_connected() => return Err(SdfError::Disconnected),
        r => r?,
    };

    // Scale the ratios to the smallest integer vector: multiply by the LCM
    // L of the denominators. That vector is already minimal: actor 0's
    // entry is L itself, and for every prime the actor whose denominator
    // carries its highest power in L has an entry without that prime.
    let scaling = || SdfError::Overflow("repetition vector scaling".into());
    let mut denom_lcm: u64 = 1;
    for f in &frac {
        let d = u64::try_from(f.den).map_err(|_| scaling())?;
        denom_lcm = (denom_lcm / gcd(denom_lcm, d))
            .checked_mul(d)
            .ok_or_else(scaling)?;
    }
    let entries = frac
        .iter()
        .map(|f| {
            let (num, den) = (u64::try_from(f.num).ok()?, u64::try_from(f.den).ok()?);
            num.checked_mul(denom_lcm / den)
        })
        .collect::<Option<_>>()
        .ok_or_else(|| SdfError::Overflow("repetition vector entry".into()))?;
    Ok(RepetitionVector { entries })
}

/// `num / den` in lowest terms; `den == 0` marks an actor not reached yet.
///
/// Every ratio of a consistent graph is `q[a] / q[0]`, so the common case
/// stays in `u64` and takes the `u64` path of [`Fraction::times`]. The
/// `u128` range is there so an unbalanced channel reports the same
/// values that exact rational arithmetic gives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fraction {
    num: u128,
    den: u128,
}

impl Fraction {
    /// `self * p / c` in lowest terms, or `None` when a product overflows.
    fn times(self, p: u64, c: u64) -> Option<Fraction> {
        let num = self.num.checked_mul(u128::from(p))?;
        let den = self.den.checked_mul(u128::from(c))?;
        Some(match (u64::try_from(num), u64::try_from(den)) {
            (Ok(n), Ok(d)) => {
                let g = gcd(n, d);
                Fraction {
                    num: u128::from(n / g),
                    den: u128::from(d / g),
                }
            }
            _ => {
                let g = gcd_u128(num, den);
                Fraction {
                    num: num / g,
                    den: den / g,
                }
            }
        })
    }
}

/// Written like [`crate::ratio::Ratio`]: `n`, or `n/d` when `d > 1`.
impl fmt::Display for Fraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The firing ratio `q[a] / q[0]` of every actor reached from actor 0,
/// propagated depth-first along outgoing, then incoming channels. Actors
/// not reached keep a zero denominator.
fn firing_ratios(graph: &SdfGraph) -> Result<Vec<Fraction>, SdfError> {
    let mut frac = vec![Fraction { num: 0, den: 0 }; graph.actor_count()];
    frac[0] = Fraction { num: 1, den: 1 };
    let mut stack = vec![ActorId(0)];
    while let Some(v) = stack.pop() {
        let fv = frac[v.0];
        let ends = graph.outgoing(v).iter().map(|&cid| (cid, true));
        for (cid, forward) in ends.chain(graph.incoming(v).iter().map(|&cid| (cid, false))) {
            let ch = graph.channel(cid);
            let (p, c) = (ch.production_rate(), ch.consumption_rate());
            let (w, fw) = if forward {
                (ch.dst(), fv.times(p, c))
            } else {
                (ch.src(), fv.times(c, p))
            };
            let fw = fw.ok_or_else(|| SdfError::Overflow("repetition vector scaling".into()))?;
            let existing = frac[w.0];
            if existing.den == 0 {
                frac[w.0] = fw;
                stack.push(w);
            } else if existing != fw {
                return Err(SdfError::Inconsistent(format!(
                    "channel `{}` cannot be balanced ({existing} vs {fw})",
                    ch.name()
                )));
            }
        }
    }
    Ok(frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SdfGraphBuilder;
    use crate::ratio::Ratio;
    use proptest::prelude::*;

    /// The repetition vector in exact `i128` rational arithmetic, as this
    /// module computed it before its ratios became integer fractions: the
    /// oracle of [`integer_vector_matches_the_ratio_oracle`]. Its LCM is
    /// checked here; the original wrapped in release builds.
    fn ratio_oracle(graph: &SdfGraph) -> Result<RepetitionVector, SdfError> {
        if graph.actor_count() == 0 {
            return Ok(RepetitionVector {
                entries: Vec::new(),
            });
        }
        if !graph.is_connected() {
            return Err(SdfError::Disconnected);
        }
        let n = graph.actor_count();
        let mut frac: Vec<Option<Ratio>> = vec![None; n];
        frac[0] = Some(Ratio::ONE);
        let mut stack = vec![ActorId(0)];
        while let Some(v) = stack.pop() {
            let fv = frac[v.0].expect("visited actors have a rate");
            let ends = graph.outgoing(v).iter().map(|&cid| (cid, true));
            for (cid, forward) in ends.chain(graph.incoming(v).iter().map(|&cid| (cid, false))) {
                let ch = graph.channel(cid);
                let (p, c) = (ch.production_rate() as i128, ch.consumption_rate() as i128);
                let (w, fw) = if forward {
                    (ch.dst(), fv * Ratio::new(p, c))
                } else {
                    (ch.src(), fv * Ratio::new(c, p))
                };
                match frac[w.0] {
                    None => {
                        frac[w.0] = Some(fw);
                        stack.push(w);
                    }
                    Some(existing) if existing != fw => {
                        return Err(SdfError::Inconsistent(format!(
                            "channel `{}` cannot be balanced ({} vs {})",
                            ch.name(),
                            existing,
                            fw
                        )));
                    }
                    Some(_) => {}
                }
            }
        }
        let mut denom_lcm: u64 = 1;
        for f in frac.iter().flatten() {
            let d = f.denom() as u64;
            denom_lcm = (denom_lcm / gcd(denom_lcm, d))
                .checked_mul(d)
                .ok_or_else(|| SdfError::Overflow("repetition vector scaling".into()))?;
        }
        let mut entries: Vec<u64> = Vec::with_capacity(n);
        for f in &frac {
            let scaled =
                f.expect("connected graph covers all actors") * Ratio::from_int(denom_lcm as i128);
            let v = scaled.numer();
            if v <= 0 || v > u64::MAX as i128 {
                return Err(SdfError::Overflow("repetition vector entry".into()));
            }
            entries.push(v as u64);
        }
        let g = entries.iter().copied().fold(0u64, gcd).max(1);
        for e in &mut entries {
            *e /= g;
        }
        Ok(RepetitionVector { entries })
    }

    /// A graph of `actors` actors whose channels are `(src, dst, p, c)`.
    fn rated(actors: usize, channels: &[(usize, usize, u64, u64)]) -> SdfGraph {
        let mut b = SdfGraphBuilder::new("rated");
        for i in 0..actors {
            b.add_actor(format!("a{i}"), 1);
        }
        for (i, &(src, dst, p, c)) in channels.iter().enumerate() {
            b.add_channel(format!("e{i}"), ActorId(src), p, ActorId(dst), c);
        }
        b.build().unwrap()
    }

    /// Random rates on random channels: mostly inconsistent once a cycle
    /// closes, sometimes disconnected, and consistent on trees.
    fn random_rated() -> impl Strategy<Value = SdfGraph> {
        (1usize..7).prop_flat_map(|n| {
            let channel = (0..n, 0..n, 1u64..13, 1u64..13);
            proptest::collection::vec(channel, 0..2 * n).prop_map(move |cs| rated(n, &cs))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn integer_vector_matches_the_ratio_oracle(g in random_rated()) {
            prop_assert_eq!(repetition_vector(&g), ratio_oracle(&g));
        }

        #[test]
        fn integer_vector_matches_the_ratio_oracle_on_generated_apps(
            app in crate::gen::strategies::application()
        ) {
            let g = app.graph();
            prop_assert_eq!(repetition_vector(g), ratio_oracle(g));
        }
    }

    #[test]
    fn vectors_past_u64_are_overflow_errors() {
        let scaling = Err(SdfError::Overflow("repetition vector scaling".into()));
        let entry = Err(SdfError::Overflow("repetition vector entry".into()));
        let cases = [
            // Each channel balances alone, but q[a0] = 2^40 * 3^25 does
            // not fit: the LCM of the denominators overflows.
            (
                rated(3, &[(0, 1, 1, 1 << 40), (0, 2, 1, 847_288_609_443)]),
                scaling.clone(),
            ),
            // The LCM is 3, but q[a1] = 3 * 2^63.
            (rated(3, &[(0, 1, 1 << 63, 1), (0, 2, 1, 3)]), entry),
            // q[a2] / q[a0] = 2^126 does not fit u64 as a denominator.
            (
                rated(3, &[(0, 1, 1, 1 << 63), (1, 2, 1, 1 << 63)]),
                scaling.clone(),
            ),
            // Propagating a ratio of 2^189 overflows before any scaling.
            (
                rated(
                    4,
                    &[(0, 1, 1 << 63, 1), (1, 2, 1 << 63, 1), (2, 3, 1 << 63, 1)],
                ),
                scaling,
            ),
        ];
        for (g, want) in cases {
            assert_eq!(repetition_vector(&g), want);
        }
        // Past u64 but within exact arithmetic, an unbalanced channel
        // still prints the ratios of both sides.
        let g = rated(
            4,
            &[
                (0, 1, 1 << 63, 1),
                (1, 2, 1 << 63, 1),
                (2, 3, 1, 1),
                (3, 1, 1, 1),
            ],
        );
        let want = "channel `e2` cannot be balanced \
                    (85070591730234615865843651857942052864 vs 9223372036854775808)";
        assert_eq!(
            repetition_vector(&g),
            Err(SdfError::Inconsistent(want.into()))
        );
        assert_eq!(repetition_vector(&g), ratio_oracle(&g));
    }

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
