//! Global, thread-safe memoization of throughput analyses — across
//! graphs, runs, threads, and (through the serializable entries)
//! processes.
//!
//! The design flow's cost is dominated by state-space throughput analysis
//! of expanded interference graphs, and a DSE sweep re-pays that cost at
//! every design point even when different points land on identical
//! expanded graphs (common across tile counts, interconnects, and
//! admission orders). [`GlobalAnalysisCache`] keys every analysis by
//!
//! * a **canonical-JSON graph hash** ([`GraphFingerprint`]): the graph is
//!   canonicalized (actors and channels sorted by name, channel endpoints
//!   expressed as canonical actor ranks) and the byte stream of
//!   [`serde::stable_hash`] over that canonical tree is fed straight into
//!   a [`serde::StableHasher`], without building the tree — so two
//!   structurally identical graphs hash equal regardless of insertion
//!   order, and the 64-bit key is stable across processes and can be
//!   persisted;
//! * the **analysis options** (every [`AnalysisOptions`] field), so a
//!   result computed under one configuration is never served to another —
//!   invalidation-by-options falls out of the key derivation.
//!
//! The store itself is the generic [`MemoStore`] over [`CacheEntry`]:
//! one lock around a key-ordered map, counted, exported sorted and
//! imported first-wins, and persisted by [`MemoStore::persist`] to the
//! `analysis-cache-*.jsonl` files that `mamps_core::dse::cache` names
//! under `--cache-dir`, which is what makes a second sweep over the same
//! corpus warm across processes and shards.
//!
//! Hash collisions: two *different* graphs colliding on the 64-bit
//! fingerprint would alias cache entries. The keys mix every actor,
//! channel, rate and token count through a tagged, length-prefixed walk;
//! at DSE scales (thousands of distinct graphs) the collision probability
//! is ~n²/2⁶⁵ — accepted, as SDF3-style flows accept it for memoized
//! analyses.

use serde::{Deserialize, Serialize, StableHasher};

use crate::error::SdfError;
use crate::graph::SdfGraph;
use crate::memo::{MemoEntry, MemoStore};
use crate::state_space::{throughput, AnalysisOptions, ThroughputResult};

/// The canonical identity of a graph for caching purposes: a stable
/// 64-bit hash over the canonical-JSON form.
///
/// Canonicalization sorts actors and channels by name (ties broken by
/// content), rewrites channel endpoints as ranks in the canonical actor
/// order, and drops the graph's own name (it does not influence any
/// analysis result). Two graphs built with the same actors and channels
/// in any insertion order therefore produce the same fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphFingerprint {
    hash: u64,
}

impl GraphFingerprint {
    /// Computes the fingerprint of `graph`: [`serde::stable_hash`] of the
    /// canonical tree `[[[name, wcet], ..], [[name, src, dst, p, c,
    /// tokens, size], ..]]`, streamed from sorted keys that borrow the
    /// names.
    ///
    /// Cost is one O(V log V + E log E) sort plus a byte-serial FNV walk,
    /// with two key vectors allocated. Every expand-then-analyse probe pays
    /// it, cache hit or miss. On an MJPEG 3-tile expansion (65 actors, 122
    /// channels) it takes about 14 µs, the sort about 5 µs of it: more
    /// than any other set-up stage of a probe, and a quarter of the
    /// probes' time on cold sweeps (ARCHITECTURE.md, "An analysis probe,
    /// stage by stage"). The walk's bytes are fixed by the persisted
    /// cache keys.
    pub fn of(graph: &SdfGraph) -> GraphFingerprint {
        // The original index breaks ties exactly as the stable sort by
        // (name, wcet) this key order was defined by, and tied keys stream
        // the same bytes.
        let mut actors: Vec<(&str, u64, usize)> = graph
            .actors()
            .map(|(id, a)| (a.name(), a.execution_time(), id.0))
            .collect();
        actors.sort_unstable();
        let mut rank = vec![0u64; actors.len()];
        for (r, &(_, _, orig)) in actors.iter().enumerate() {
            rank[orig] = r as u64;
        }
        let mut channels: Vec<(&str, [u64; 6])> = graph
            .channels()
            .map(|(_, c)| {
                let fields = [
                    rank[c.src().0],
                    rank[c.dst().0],
                    c.production_rate(),
                    c.consumption_rate(),
                    c.initial_tokens(),
                    c.token_size(),
                ];
                (c.name(), fields)
            })
            .collect();
        channels.sort_unstable();

        let mut h = StableHasher::new();
        h.seq(2);
        h.seq(actors.len());
        for &(name, wcet, _) in &actors {
            h.seq(2);
            h.str(name);
            h.int(wcet.into());
        }
        h.seq(channels.len());
        for (name, fields) in &channels {
            h.seq(1 + fields.len());
            h.str(name);
            for &v in fields {
                h.int(v.into());
            }
        }
        GraphFingerprint { hash: h.finish() }
    }

    /// The stable 64-bit canonical-JSON hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

/// Full cache key: graph fingerprint hash, the capacity vector of the
/// on-disk entry, and every analysis-options field. The derived `Ord`
/// (field by field, in declaration order) is the on-disk sort order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AnalysisKey {
    graph: u64,
    caps: Vec<u64>,
    auto_concurrency: bool,
    max_states: u64,
    max_firings_per_instant: u64,
}

impl AnalysisKey {
    fn new(fp: &GraphFingerprint, opts: &AnalysisOptions) -> AnalysisKey {
        AnalysisKey {
            graph: fp.hash,
            caps: Vec::new(),
            auto_concurrency: opts.auto_concurrency,
            max_states: opts.max_states as u64,
            max_firings_per_instant: opts.max_firings_per_instant as u64,
        }
    }
}

/// One serializable cache entry, the unit of the on-disk JSONL layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// [`GraphFingerprint::hash`] of the analysed graph.
    pub graph: u64,
    /// Always empty: every cached analysis models its buffer capacities
    /// in-graph. Kept so cache files keep their bytes; an entry with a
    /// nonempty vector never answers a lookup.
    pub caps: Vec<u64>,
    /// [`AnalysisOptions::auto_concurrency`] of the analysis.
    pub auto_concurrency: bool,
    /// [`AnalysisOptions::max_states`] of the analysis.
    pub max_states: u64,
    /// [`AnalysisOptions::max_firings_per_instant`] of the analysis.
    pub max_firings_per_instant: u64,
    /// The memoized outcome (errors are cached too: a saturating
    /// distribution stays saturating).
    pub result: Result<ThroughputResult, SdfError>,
}

impl MemoEntry for CacheEntry {
    type Key = AnalysisKey;
    type Value = Result<ThroughputResult, SdfError>;
    const PREFIX: &'static str = "analysis-cache-";
    const ATTACH: bool = true;

    fn split(self) -> (AnalysisKey, Self::Value) {
        let key = AnalysisKey {
            graph: self.graph,
            caps: self.caps,
            auto_concurrency: self.auto_concurrency,
            max_states: self.max_states,
            max_firings_per_instant: self.max_firings_per_instant,
        };
        (key, self.result)
    }

    fn join(key: AnalysisKey, result: Self::Value) -> CacheEntry {
        CacheEntry {
            graph: key.graph,
            caps: key.caps,
            auto_concurrency: key.auto_concurrency,
            max_states: key.max_states,
            max_firings_per_instant: key.max_firings_per_instant,
            result,
        }
    }
}

/// A global, thread-safe throughput-analysis cache.
///
/// Shared as an `Arc` through `MapOptions`/`FlowOptions`, consulted by
/// every expanded-graph analysis of the flow (the `buffer-size` pass, the
/// genetic binder's fitness and the multi-application shared-system
/// verification) before falling back to the state-space kernel.
pub type GlobalAnalysisCache = MemoStore<CacheEntry>;

impl MemoStore<CacheEntry> {
    /// The memoized result for `(fingerprint, opts)`, if any. Counts a
    /// hit or a miss.
    pub fn lookup(
        &self,
        fp: &GraphFingerprint,
        opts: &AnalysisOptions,
    ) -> Option<Result<ThroughputResult, SdfError>> {
        self.get(&AnalysisKey::new(fp, opts))
    }

    /// Memoizes `result` under `(fingerprint, opts)`. Analyses are
    /// deterministic, so a racing duplicate stores an equal value and the
    /// insert counter only counts the first.
    pub fn insert(
        &self,
        fp: &GraphFingerprint,
        opts: &AnalysisOptions,
        result: Result<ThroughputResult, SdfError>,
    ) {
        self.put(AnalysisKey::new(fp, opts), result);
    }

    /// [`throughput`] of `graph` through the cache: fingerprints the
    /// graph, returns the memoized result on a hit, computes and memoizes
    /// on a miss.
    ///
    /// # Errors
    ///
    /// The (possibly memoized) errors of [`throughput`].
    pub fn throughput(
        &self,
        graph: &SdfGraph,
        opts: &AnalysisOptions,
    ) -> Result<ThroughputResult, SdfError> {
        let fp = GraphFingerprint::of(graph);
        if let Some(r) = self.lookup(&fp, opts) {
            return r;
        }
        let r = throughput(graph, opts);
        self.insert(&fp, opts, r.clone());
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ActorId, SdfGraphBuilder};
    use proptest::prelude::*;
    use serde::{stable_hash, Value};
    use std::collections::HashMap;

    fn two_actor_graph(order: &[&str]) -> SdfGraph {
        // Same structure regardless of `order`: actors A (10) and B (5)
        // with a channel A -> B; only insertion order differs.
        let mut b = SdfGraphBuilder::new("g");
        let mut ids = HashMap::new();
        for &name in order {
            let t = if name == "A" { 10 } else { 5 };
            ids.insert(name, b.add_actor(name, t));
        }
        b.add_channel("e", ids["A"], 2, ids["B"], 1);
        b.build().unwrap()
    }

    /// The canonical tree whose `stable_hash` byte stream
    /// `GraphFingerprint::of` feeds to its hasher, built as a tree: the
    /// oracle for the streamed fingerprint.
    fn canonical_tree(graph: &SdfGraph) -> Value {
        let mut actors: Vec<&crate::graph::Actor> = graph.actors().map(|(_, a)| a).collect();
        actors.sort_by_key(|a| (a.name().to_string(), a.execution_time()));
        let rank = |id: ActorId| {
            let a = graph.actor(id);
            actors.iter().position(|b| std::ptr::eq(*b, a)).unwrap() as i128
        };
        let int = |v: u64| Value::Int(i128::from(v));
        let mut channels: Vec<Vec<Value>> = graph
            .channels()
            .map(|(_, c)| {
                vec![
                    Value::Str(c.name().to_string()),
                    Value::Int(rank(c.src())),
                    Value::Int(rank(c.dst())),
                    int(c.production_rate()),
                    int(c.consumption_rate()),
                    int(c.initial_tokens()),
                    int(c.token_size()),
                ]
            })
            .collect();
        channels.sort_by(|a, b| {
            let key = |v: &[Value]| -> (String, Vec<i128>) {
                let name = v[0].as_str().unwrap().to_string();
                (name, v[1..].iter().map(|x| x.as_int().unwrap()).collect())
            };
            key(a).cmp(&key(b))
        });
        Value::Seq(vec![
            Value::Seq(
                actors
                    .iter()
                    .map(|a| {
                        Value::Seq(vec![
                            Value::Str(a.name().to_string()),
                            int(a.execution_time()),
                        ])
                    })
                    .collect(),
            ),
            Value::Seq(channels.into_iter().map(Value::Seq).collect()),
        ])
    }

    /// Insertion order unlike name order, a zero and a 2^40 WCET, a
    /// `u64::MAX` token count, a 128-byte token and a self-edge.
    fn hand_built() -> SdfGraph {
        let mut b = SdfGraphBuilder::new("pinned");
        let c = b.add_actor("C", 7);
        let a = b.add_actor("A", 10);
        let bb = b.add_actor("B", 1 << 40);
        let z = b.add_actor("Z0", 0);
        b.add_channel("b2c", bb, 1, c, 2);
        b.add_channel("a2b", a, 2, bb, 1);
        b.add_channel_full("a2c", a, 1, c, 1, 3, 128);
        b.add_channel_with_tokens("selfA", a, 1, a, 1, 1);
        b.add_channel_with_tokens("c2z", c, 1, z, 1, u64::MAX);
        b.build().unwrap()
    }

    /// The MJPEG example (`examples/data/mjpeg_small_app.xml`) mapped by
    /// the default flow onto a 2-tile FSL platform, Fig. 4-expanded:
    /// 43 actors (11 static-order gates) and 84 channels with long names.
    /// `tests/golden_reports.rs` checks that the flow still builds it.
    fn mjpeg_expansion() -> SdfGraph {
        let json = include_str!("../tests/data/mjpeg_fsl2_expanded.json");
        serde::json::from_str(json).unwrap()
    }

    #[test]
    fn fingerprints_are_pinned() {
        // Recorded before the fingerprint was streamed: every persisted
        // analysis-cache key depends on these bytes.
        let mjpeg = mjpeg_expansion();
        assert_eq!((mjpeg.actor_count(), mjpeg.channel_count()), (43, 84));
        for (g, want) in [
            (hand_built(), 0x169e_6bf2_0946_2c56),
            (mjpeg, 0x155b_cb71_2913_32b4),
        ] {
            assert_eq!(GraphFingerprint::of(&g).hash(), want, "{}", g.name());
            assert_eq!(stable_hash(&canonical_tree(&g)), want, "{}", g.name());
        }
    }

    proptest! {
        #[test]
        fn streamed_fingerprint_equals_the_tree_hash(
            app in crate::gen::strategies::application()
        ) {
            let g = app.graph();
            prop_assert_eq!(GraphFingerprint::of(g).hash(), stable_hash(&canonical_tree(g)));
        }
    }

    #[test]
    fn insertion_order_does_not_change_the_fingerprint() {
        // The satellite contract: two structurally identical graphs with
        // different actor insertion order hash equal under canonical JSON.
        let ab = two_actor_graph(&["A", "B"]);
        let ba = two_actor_graph(&["B", "A"]);
        assert_ne!(ab, ba, "insertion order differs, so the graphs do");
        assert_eq!(
            GraphFingerprint::of(&ab).hash(),
            GraphFingerprint::of(&ba).hash()
        );
    }

    #[test]
    fn channel_insertion_order_does_not_change_the_fingerprint() {
        let build = |flip: bool| {
            let mut b = SdfGraphBuilder::new("g");
            let x = b.add_actor("x", 1);
            let y = b.add_actor("y", 2);
            let add_e = |b: &mut SdfGraphBuilder| b.add_channel("e", x, 1, y, 1);
            let add_f = |b: &mut SdfGraphBuilder| b.add_channel("f", y, 3, x, 2);
            if flip {
                add_f(&mut b);
                add_e(&mut b);
            } else {
                add_e(&mut b);
                add_f(&mut b);
            }
            b.build().unwrap()
        };
        let (g, h) = (build(false), build(true));
        let (fg, fh) = (GraphFingerprint::of(&g), GraphFingerprint::of(&h));
        assert_eq!(fg.hash(), fh.hash());
    }

    #[test]
    fn structural_differences_change_the_fingerprint() {
        let base = two_actor_graph(&["A", "B"]);
        let fp = GraphFingerprint::of(&base).hash();
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("A", 10);
        let bb = b.add_actor("B", 5);
        b.add_channel_with_tokens("e", a, 2, bb, 1, 1); // one initial token
        assert_ne!(GraphFingerprint::of(&b.build().unwrap()).hash(), fp);
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("A", 11); // different WCET
        let bb = b.add_actor("B", 5);
        b.add_channel("e", a, 2, bb, 1);
        assert_ne!(GraphFingerprint::of(&b.build().unwrap()).hash(), fp);
    }

    #[test]
    fn graph_name_is_not_part_of_the_identity() {
        let mut b = SdfGraphBuilder::new("one");
        let x = b.add_actor("x", 3);
        b.add_channel_with_tokens("s", x, 1, x, 1, 1);
        let one = b.build().unwrap();
        let mut b = SdfGraphBuilder::new("two");
        let x = b.add_actor("x", 3);
        b.add_channel_with_tokens("s", x, 1, x, 1, 1);
        let two = b.build().unwrap();
        assert_eq!(
            GraphFingerprint::of(&one).hash(),
            GraphFingerprint::of(&two).hash()
        );
    }

    #[test]
    fn cached_throughput_matches_uncached_and_counts() {
        let g = two_actor_graph(&["A", "B"]);
        let opts = AnalysisOptions::default();
        let cache = GlobalAnalysisCache::new();
        let direct = throughput(&g, &opts).unwrap();
        let cold = cache.throughput(&g, &opts).unwrap();
        let warm = cache.throughput(&g, &opts).unwrap();
        assert_eq!(cold, direct);
        assert_eq!(warm, direct);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 1, 1, 1));
    }

    #[test]
    fn options_are_part_of_the_key() {
        let g = two_actor_graph(&["A", "B"]);
        let cache = GlobalAnalysisCache::new();
        let a = AnalysisOptions::default();
        let b = AnalysisOptions {
            max_states: 123_456,
            ..AnalysisOptions::default()
        };
        let ra = cache.throughput(&g, &a).unwrap();
        // Different options must not see `ra`'s entry.
        let rb = cache.throughput(&g, &b).unwrap();
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(ra, throughput(&g, &a).unwrap());
        assert_eq!(rb, throughput(&g, &b).unwrap());
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn export_import_round_trips_and_is_deterministic() {
        let g = two_actor_graph(&["A", "B"]);
        let cache = GlobalAnalysisCache::new();
        for max_states in [1000usize, 2000, 3000] {
            let opts = AnalysisOptions {
                max_states,
                ..AnalysisOptions::default()
            };
            cache.throughput(&g, &opts).unwrap();
        }
        let exported = cache.export();
        assert_eq!(exported.len(), 3);
        assert!(exported
            .windows(2)
            .all(|w| w[0].max_states < w[1].max_states));

        let fresh = GlobalAnalysisCache::new();
        assert_eq!(fresh.import(exported.clone()), 3);
        assert_eq!(fresh.import(exported.clone()), 0, "duplicates are no-ops");
        assert_eq!(fresh.export(), exported);
        // Imports do not pollute the per-run counters.
        let s = fresh.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (0, 0, 0));
        // And the imported entries actually serve lookups.
        let opts = AnalysisOptions {
            max_states: 2000,
            ..AnalysisOptions::default()
        };
        assert_eq!(
            fresh.throughput(&g, &opts).unwrap(),
            throughput(&g, &opts).unwrap()
        );
        assert_eq!(fresh.stats().hits, 1);
    }

    #[test]
    fn errors_are_memoized_too() {
        // A graph that deadlocks (no initial tokens on a cycle).
        let mut b = SdfGraphBuilder::new("dead");
        let x = b.add_actor("x", 1);
        let y = b.add_actor("y", 1);
        b.add_channel("e", x, 1, y, 1);
        b.add_channel("f", y, 1, x, 1);
        let g = b.build().unwrap();
        let opts = AnalysisOptions::default();
        let cache = GlobalAnalysisCache::new();
        let e1 = cache.throughput(&g, &opts).unwrap_err();
        let e2 = cache.throughput(&g, &opts).unwrap_err();
        assert_eq!(e1, e2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn concurrent_lookups_agree() {
        let g = two_actor_graph(&["A", "B"]);
        let opts = AnalysisOptions::default();
        let cache = GlobalAnalysisCache::new();
        let expected = throughput(&g, &opts).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        assert_eq!(cache.throughput(&g, &opts).unwrap(), expected);
                    }
                });
            }
        });
        assert_eq!(cache.stats().entries, 1);
    }
}
