//! Seeded synthetic SDF scenario generation.
//!
//! A TGFF-style generator producing [`ApplicationModel`]s from composable
//! topology [`Family`]s — chains, split-joins, trees, and cyclic graphs
//! with back-edge initial tokens — with controlled rate ratios, WCET
//! ranges and actor counts. Everything is derived deterministically from
//! [`GenConfig::seed`] via the vendored SplitMix64 generator, so the same
//! configuration always produces byte-identical interchange XML: scenarios
//! can be referenced by `(family, seed)` alone, regenerated anywhere, and
//! diffed across machines.
//!
//! Generated graphs are *consistent and live by construction*:
//!
//! * every actor draws a repetition count `q[a]`, and each channel
//!   `(s, d)` gets rates `p = q[d]/g`, `c = q[s]/g` with
//!   `g = gcd(q[s], q[d])`, so `q[s]·p == q[d]·c` balances exactly and
//!   the drawn `q` *is* the (scaled) repetition vector;
//! * acyclic families carry no initial tokens (DAGs are always live);
//!   the cyclic family's back edge carries one full iteration of tokens
//!   (`q[dst]·c`), which is exactly what its consumer needs per
//!   iteration — the cycle can always complete an iteration and refills
//!   itself.
//!
//! The module doubles as the shared **testkit**: [`pipeline_app`]
//! replaces the per-test ad-hoc generators that used to be copied into
//! every integration test, and the `strategies` submodule (behind the
//! `testkit` feature) wraps the generator in proptest strategies.
//!
//! ## Example
//!
//! ```
//! use mamps_sdf::gen::{generate, Family, GenConfig};
//! use mamps_sdf::repetition::repetition_vector;
//!
//! let cfg = GenConfig::new(42, Family::Cyclic);
//! let app = generate(&cfg)?;
//! // Consistent by construction.
//! repetition_vector(app.graph())?;
//! // Deterministic: the same seed regenerates the same model.
//! assert_eq!(mamps_sdf::xml::application_to_xml(&app),
//!            mamps_sdf::xml::application_to_xml(&generate(&cfg)?));
//! # Ok::<(), mamps_sdf::error::SdfError>(())
//! ```

use std::fmt;
use std::str::FromStr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::SdfError;
use crate::graph::SdfGraphBuilder;
use crate::model::{ApplicationModel, HomogeneousModelBuilder, ThroughputConstraint};
use crate::ratio::gcd;

/// A topology family the generator can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// A linear pipeline `a0 → a1 → … → a(n-1)`.
    Chain,
    /// A source fanning out to 2–4 parallel chain branches that re-join
    /// at a sink (degenerates to a chain below 4 actors).
    SplitJoin,
    /// A random out-tree: every actor but the root consumes from one
    /// earlier actor.
    Tree,
    /// A chain closed by a back edge whose initial tokens hold one full
    /// iteration, so the cycle is live.
    Cyclic,
}

impl Family {
    /// Every family, in the order `mixed` generation cycles through.
    pub const ALL: [Family; 4] = [
        Family::Chain,
        Family::SplitJoin,
        Family::Tree,
        Family::Cyclic,
    ];

    /// Identifier-safe name, used in generated actor/file names.
    pub fn slug(&self) -> &'static str {
        match self {
            Family::Chain => "chain",
            Family::SplitJoin => "split_join",
            Family::Tree => "tree",
            Family::Cyclic => "cyclic",
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Family::Chain => "chain",
            Family::SplitJoin => "split-join",
            Family::Tree => "tree",
            Family::Cyclic => "cyclic",
        })
    }
}

impl FromStr for Family {
    type Err = String;

    fn from_str(s: &str) -> Result<Family, String> {
        match s {
            "chain" => Ok(Family::Chain),
            "split-join" | "split_join" | "splitjoin" => Ok(Family::SplitJoin),
            "tree" => Ok(Family::Tree),
            "cyclic" => Ok(Family::Cyclic),
            other => Err(format!(
                "unknown family `{other}` (available: chain, split-join, tree, cyclic)"
            )),
        }
    }
}

/// Parameters of one generated scenario. Everything observable is a pure
/// function of this configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenConfig {
    /// Master seed; scenarios are named `{family}_s{seed}`.
    pub seed: u64,
    /// Topology family.
    pub family: Family,
    /// Actor count (clamped to at least 2; at most 4,096).
    pub actors: usize,
    /// Inclusive WCET range, in cycles (clamped to at least 1).
    pub wcet_min: u64,
    /// Inclusive WCET upper bound (clamped to at least `wcet_min`).
    pub wcet_max: u64,
    /// Upper bound on per-actor repetition counts; controls how
    /// multi-rate the channels get. 1 produces homogeneous graphs.
    pub max_rate: u64,
    /// Token sizes (bytes) channels draw from; empty falls back to 4.
    pub token_sizes: Vec<u64>,
    /// Whether a stateful self-edge (rate 1/1, one initial token) may be
    /// added to a random actor.
    pub self_edge: bool,
    /// `Some(k)`: attach a throughput constraint with slack factor `k`
    /// (clamped to at least 2) over the sequential-schedule bound, so the
    /// constraint is finite but satisfiable on a single tile. `None`: no
    /// constraint.
    pub constraint_slack: Option<u64>,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            seed: 1,
            family: Family::Chain,
            actors: 4,
            wcet_min: 10,
            wcet_max: 400,
            max_rate: 3,
            token_sizes: vec![4, 16, 64],
            self_edge: false,
            constraint_slack: None,
        }
    }
}

impl GenConfig {
    /// A default configuration for `(seed, family)`.
    pub fn new(seed: u64, family: Family) -> GenConfig {
        GenConfig {
            seed,
            family,
            ..GenConfig::default()
        }
    }
}

/// Largest actor count [`generate`] accepts: counts arrive from the
/// command line, and larger graphs take minutes or outgrow memory.
const MAX_ACTORS: usize = 4096;

/// Generates the application model described by `cfg`.
///
/// Deterministic: equal configurations produce structurally equal models
/// (and therefore byte-identical interchange XML). The result is always
/// consistent and live, see the module docs.
///
/// # Errors
///
/// [`SdfError::InvalidGraph`] for more than 4,096 actors. Otherwise
/// propagates graph- and model-validation errors; with the invariants the
/// generator maintains these indicate a bug in the generator itself.
pub fn generate(cfg: &GenConfig) -> Result<ApplicationModel, SdfError> {
    if cfg.actors > MAX_ACTORS {
        return Err(SdfError::InvalidGraph(format!(
            "{} actors requested; the generator makes at most {MAX_ACTORS}",
            cfg.actors
        )));
    }
    let n = cfg.actors.max(2);
    let family_index = Family::ALL
        .iter()
        .position(|f| *f == cfg.family)
        .expect("Family::ALL covers every variant") as u64;
    // Mix the family into the high bits so e.g. chain_s7 and tree_s7
    // draw unrelated streams (SplitMix64 steps by a constant, so adding
    // small offsets to the seed would merely shift the same stream).
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ ((family_index + 1) << 60));
    let name = format!("{}_s{}", cfg.family.slug(), cfg.seed);

    // Topology: directed edges (src, dst, is_back_edge) over 0..n.
    let mut edges: Vec<(usize, usize, bool)> = Vec::new();
    let chain = |edges: &mut Vec<(usize, usize, bool)>| {
        for i in 0..n - 1 {
            edges.push((i, i + 1, false));
        }
    };
    match cfg.family {
        Family::Chain => chain(&mut edges),
        Family::SplitJoin if n < 4 => chain(&mut edges),
        Family::SplitJoin => {
            let middles = n - 2;
            let k = rng.gen_range(2..=middles.min(4));
            let mut branches: Vec<Vec<usize>> = vec![Vec::new(); k];
            for (j, actor) in (1..n - 1).enumerate() {
                branches[j % k].push(actor);
            }
            for branch in &branches {
                edges.push((0, branch[0], false));
                for w in branch.windows(2) {
                    edges.push((w[0], w[1], false));
                }
                edges.push((branch[branch.len() - 1], n - 1, false));
            }
        }
        Family::Tree => {
            for i in 1..n {
                edges.push((rng.gen_range(0..i), i, false));
            }
        }
        Family::Cyclic => {
            chain(&mut edges);
            edges.push((n - 1, 0, true));
        }
    }

    // Repetition counts first, rates derived from them: consistency by
    // construction (see module docs).
    let max_rate = cfg.max_rate.max(1);
    let q: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=max_rate)).collect();
    let wcet_min = cfg.wcet_min.max(1);
    let wcet_max = cfg.wcet_max.max(wcet_min);
    let wcets: Vec<u64> = (0..n).map(|_| rng.gen_range(wcet_min..=wcet_max)).collect();

    let mut b = SdfGraphBuilder::new(&name);
    let ids: Vec<_> = (0..n)
        .map(|i| b.add_actor(format!("{name}_a{i}"), wcets[i]))
        .collect();
    let default_sizes = [4u64];
    let sizes: &[u64] = if cfg.token_sizes.is_empty() {
        &default_sizes
    } else {
        &cfg.token_sizes
    };
    let mut traffic_words = 0u64;
    for (j, &(s, d, back)) in edges.iter().enumerate() {
        let g = gcd(q[s], q[d]);
        let (p, c) = (q[d] / g, q[s] / g);
        let tokens = if back { q[d] * c } else { 0 };
        let size = sizes[rng.gen_range(0..sizes.len())];
        traffic_words += q[s] * p * size.div_ceil(4);
        b.add_channel_full(format!("{name}_e{j}"), ids[s], p, ids[d], c, tokens, size);
    }
    if cfg.self_edge && rng.gen::<bool>() {
        let a = rng.gen_range(0..n);
        b.add_channel_full(format!("{name}_self"), ids[a], 1, ids[a], 1, 1, 4);
    }
    let graph = b.build()?;

    // A slack factor over the sequential bound (all firings serialized,
    // every token paying a pessimistic per-word cost) keeps generated
    // constraints finite yet satisfiable even on one tile.
    let constraint = cfg.constraint_slack.map(|slack| {
        let work: u64 = (0..n).map(|i| q[i] * wcets[i]).sum();
        ThroughputConstraint {
            iterations: 1,
            cycles: slack.max(2) * (work + 40 * traffic_words).max(1),
        }
    });

    let mut mb = HomogeneousModelBuilder::new("microblaze");
    for (i, &wcet) in wcets.iter().enumerate() {
        let imem = 1024 + 256 * rng.gen_range(0..8u64);
        let dmem = 64 + 32 * rng.gen_range(0..8u64);
        mb.actor(format!("{name}_a{i}"), wcet, imem, dmem);
    }
    mb.finish(graph, constraint)
}

/// The shared deterministic pipeline generator the integration tests use
/// (one homogeneous `microblaze` implementation per actor, actors named
/// `{name}_a{i}`, channels `{name}_e{i}`).
///
/// `rates[i % rates.len()]` is used for both ends of channel `i` (so the
/// repetition vector stays all-ones); an empty `rates` slice means
/// unit rates. WCETs are clamped to at least 1.
pub fn pipeline_app(
    name: &str,
    wcets: &[u64],
    token_size: u64,
    rates: &[u64],
    constraint: Option<ThroughputConstraint>,
) -> ApplicationModel {
    assert!(!wcets.is_empty(), "pipeline_app needs at least one actor");
    let n = wcets.len();
    let rate = |i: usize| {
        if rates.is_empty() {
            1
        } else {
            rates[i % rates.len()].max(1)
        }
    };
    let mut b = SdfGraphBuilder::new(name);
    let ids: Vec<_> = (0..n)
        .map(|i| b.add_actor(format!("{name}_a{i}"), 1))
        .collect();
    for i in 0..n - 1 {
        let r = rate(i);
        b.add_channel_full(
            format!("{name}_e{i}"),
            ids[i],
            r,
            ids[i + 1],
            r,
            0,
            token_size.max(1),
        );
    }
    let g = b.build().expect("pipeline topology is always valid");
    let mut mb = HomogeneousModelBuilder::new("microblaze");
    for (i, &w) in wcets.iter().enumerate() {
        mb.actor(format!("{name}_a{i}"), w.max(1), 4096, 512);
    }
    mb.finish(g, constraint)
        .expect("homogeneous pipeline model is always valid")
}

/// The shared faster-than-WCET generator of the conservativeness tests:
/// 17 deterministic pseudo-random execution times per actor, those of
/// actor `i` in `[1, wcets[i]]`, to be cycled through by its firings.
pub fn actual_times(seed: u64, wcets: &[u64]) -> Vec<Vec<u64>> {
    let lcg = seed.wrapping_mul(6364136223846793005);
    wcets
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            (0..17)
                .map(|k| 1 + (lcg.wrapping_add(i as u64 * 31 + k) >> 33) % w.max(1))
                .collect()
        })
        .collect()
}

/// Proptest strategies over the generator, for property tests across the
/// workspace (`testkit` feature).
#[cfg(feature = "testkit")]
pub mod strategies {
    use super::{generate, Family, GenConfig};
    use crate::model::ApplicationModel;
    use proptest::prelude::*;

    /// Any topology family.
    pub fn family() -> impl Strategy<Value = Family> {
        (0usize..Family::ALL.len()).prop_map(|i| Family::ALL[i])
    }

    /// Small scenario configurations across every family, with
    /// multi-rate channels, occasional self-edges and occasional
    /// throughput constraints: the broadest shape the interchange format
    /// must round-trip.
    pub fn config() -> impl Strategy<Value = GenConfig> {
        (
            any::<u64>(),
            family(),
            2usize..8,
            1u64..=4,
            any::<bool>(),
            proptest::option::of(2u64..6),
        )
            .prop_map(
                |(seed, family, actors, max_rate, self_edge, constraint_slack)| GenConfig {
                    seed,
                    family,
                    actors,
                    max_rate,
                    self_edge,
                    constraint_slack,
                    ..GenConfig::default()
                },
            )
    }

    /// Like [`config`] but restricted to unconstrained scenarios —
    /// suitable for differential tests that must map and simulate every
    /// generated scenario successfully.
    pub fn flow_config() -> impl Strategy<Value = GenConfig> {
        config().prop_map(|mut c| {
            c.constraint_slack = None;
            c
        })
    }

    /// A generated application model from [`config`].
    pub fn application() -> impl Strategy<Value = ApplicationModel> {
        config().prop_map(|c| generate(&c).expect("generated configs always build"))
    }

    /// WCET vectors for [`super::pipeline_app`]-style tests.
    pub fn wcets(len: core::ops::Range<usize>) -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(5u64..300, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liveness::check_liveness;
    use crate::repetition::repetition_vector;

    #[test]
    fn family_round_trips_through_strings() {
        for f in Family::ALL {
            assert_eq!(f.to_string().parse::<Family>().unwrap(), f);
            assert_eq!(f.slug().parse::<Family>().unwrap(), f);
        }
        assert!("ring".parse::<Family>().is_err());
    }

    #[test]
    fn every_family_is_consistent_and_live() {
        for f in Family::ALL {
            for seed in 0..20 {
                let mut cfg = GenConfig::new(seed, f);
                cfg.actors = 2 + (seed as usize % 7);
                cfg.self_edge = seed % 2 == 0;
                cfg.constraint_slack = if seed % 3 == 0 { Some(3) } else { None };
                let app = generate(&cfg).unwrap();
                let q = repetition_vector(app.graph()).unwrap();
                for (_, ch) in app.graph().channels() {
                    assert_eq!(
                        q.of(ch.src()) * ch.production_rate(),
                        q.of(ch.dst()) * ch.consumption_rate(),
                        "{f} seed {seed}: channel {} unbalanced",
                        ch.name()
                    );
                }
                check_liveness(app.graph()).unwrap();
            }
        }
    }

    #[test]
    fn actor_counts_past_the_bound_are_errors() {
        let mut cfg = GenConfig::new(1, Family::Tree);
        cfg.actors = MAX_ACTORS;
        assert_eq!(generate(&cfg).unwrap().graph().actor_count(), MAX_ACTORS);
        for actors in [MAX_ACTORS + 1, usize::MAX] {
            cfg.actors = actors;
            let want = format!("{actors} actors requested; the generator makes at most 4096");
            assert_eq!(generate(&cfg).err(), Some(SdfError::InvalidGraph(want)));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig {
            self_edge: true,
            constraint_slack: Some(4),
            ..GenConfig::new(99, Family::SplitJoin)
        };
        let a = crate::xml::application_to_xml(&generate(&cfg).unwrap());
        let b = crate::xml::application_to_xml(&generate(&cfg).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn families_differ_for_equal_seed() {
        let chain = generate(&GenConfig::new(7, Family::Chain)).unwrap();
        let tree = generate(&GenConfig::new(7, Family::Tree)).unwrap();
        assert_ne!(
            crate::xml::application_to_xml(&chain),
            crate::xml::application_to_xml(&tree)
        );
    }

    #[test]
    fn cyclic_back_edge_holds_one_iteration() {
        let app = generate(&GenConfig::new(3, Family::Cyclic)).unwrap();
        let q = repetition_vector(app.graph()).unwrap();
        let back = app
            .graph()
            .channels()
            .find(|(_, ch)| !ch.is_self_edge() && ch.initial_tokens() > 0)
            .map(|(_, ch)| ch)
            .expect("cyclic family always has a token-carrying back edge");
        assert_eq!(
            back.initial_tokens(),
            q.of(back.dst()) * back.consumption_rate()
        );
    }

    #[test]
    fn pipeline_app_matches_documented_shape() {
        let app = pipeline_app("p", &[10, 20, 30], 16, &[2], None);
        assert_eq!(app.graph().actors().count(), 3);
        assert_eq!(app.graph().channels().count(), 2);
        let q = repetition_vector(app.graph()).unwrap();
        assert!(q.entries().iter().all(|&v| v == 1));
        assert!(app.graph().actor_by_name("p_a1").is_some());
        assert!(app.graph().channel_by_name("p_e0").is_some());
    }
}
