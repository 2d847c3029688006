//! Named pipeline passes, memoized by input fingerprint where that pays.
//!
//! The mapping flow is a fixed sequence of stages (bind → wire-alloc →
//! schedule → buffer-size, plus verify-shared for a use-case), each a
//! named *pass* that a [`PassRunner`] times and counts. A pass that costs
//! more to run than to replay (`bind`, `buffer-size`, `verify-shared`)
//! goes through [`PassRunner::run`]: its inputs are reduced to a stable
//! 64-bit fingerprint (the pinned FNV-1a walk of [`serde::stable_hash`],
//! which also backs [`crate::cache::GraphFingerprint`]), its output is a
//! serde [`Value`] tree, and with a [`PassCache`] attached a fingerprint
//! seen before replays the memoized output. The rest go through
//! [`timed`] and always run.
//!
//! That is what makes re-mapping *incremental*: after a one-actor WCET
//! edit, only the memoized passes whose fingerprints changed re-execute;
//! unchanged ones (and any unchanged sibling application in a use-case)
//! replay from the cache. A replayed output is the deserialized form of
//! the exact value the original run produced, so cold, warm and
//! incremental runs print byte-identical reports by construction.
//!
//! Three deliberate design points:
//!
//! * **Lazy fingerprints.** `PassRunner::run` takes the input fingerprint
//!   as a closure and only invokes it when a cache is attached, so
//!   cache-less runs (the default) build no tree. The application part
//!   of the `bind` and `buffer-size` keys is hashed once per model
//!   ([`crate::model::ApplicationModel::key_heads`]), so a sweep builds
//!   one tree per application, not one per design point.
//! * **Errors are memoized too.** A pass returns `Result<T, E>` and both
//!   arms are cached: an infeasible binding stays infeasible on replay.
//! * **Stale entries are advisory.** A cached value that no longer
//!   decodes (schema drift in an on-disk cache from an older build) is
//!   treated as a miss and recomputed — the cache can never wedge a run.
//!
//! The store is the generic [`MemoStore`] over [`PassEntry`], the same
//! one behind [`crate::cache::GlobalAnalysisCache`]; it persists itself
//! ([`MemoStore::persist`]) to the `pass-cache-*.jsonl` files that
//! `mamps_core::dse::cache` names next to the analysis-cache files.

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{intern, Deserialize, Serialize, StableHasher, Value};

use crate::memo::{MemoEntry, MemoStore};

/// Reduces the parts of a pass input to one stable 64-bit fingerprint.
///
/// The parts are hashed as one [`Value::Seq`] through
/// [`serde::stable_hash`]'s tagged, length-prefixed walk, so `["a",
/// "bc"]` and `["ab", "c"]` cannot collide structurally and the result is
/// identical across processes and platforms (it is what the on-disk pass
/// cache is keyed by). The parts are borrowed: `fingerprint(&[&a, &b])`
/// equals `stable_hash(&Value::Seq(vec![a, b]))` without moving `a` and
/// `b` into a tree.
pub fn fingerprint(parts: &[&Value]) -> u64 {
    let mut key = Fingerprint::new(parts.len());
    for part in parts {
        key.part(part);
    }
    key.finish()
}

/// Parts of the `bind` key: the application model, the architecture and
/// the binder options.
pub const BIND_KEY_PARTS: usize = 3;

/// Parts of the `buffer-size` key: the application model, the
/// architecture, the binding, the initial channel allocation, the
/// throughput target, the growth budget and the state cap.
pub const BUFFER_SIZE_KEY_PARTS: usize = 7;

/// A [`fingerprint`] hashed one part at a time, for a key whose first
/// parts exist long before the rest: `Fingerprint::new(n)` and `n` calls
/// of [`part`](Self::part) give what `fingerprint` gives over those `n`
/// parts, and each part can be dropped as soon as it is hashed. A clone
/// is a snapshot: continued with the remaining parts, it gives the key
/// the original would.
#[derive(Debug, Clone)]
pub struct Fingerprint(StableHasher);

impl Fingerprint {
    /// A key of `parts` parts, none hashed yet.
    pub fn new(parts: usize) -> Fingerprint {
        let mut h = StableHasher::new();
        h.seq(parts);
        Fingerprint(h)
    }

    /// Hashes the next part.
    pub fn part(&mut self, part: &Value) -> &mut Fingerprint {
        self.0.value(part);
        self
    }

    /// The fingerprint, once every part is hashed.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// The passes that memoize through [`PassRunner::run`]. A pass-cache
/// entry of any other pass, such as the `wire-alloc` and `schedule`
/// lines of directories written before those two stopped memoizing, is
/// dead: nothing looks it up, so loading a cache directory drops it.
pub(crate) const MEMOIZED: [&str; 3] = ["bind", "buffer-size", "verify-shared"];

/// Cache key: which pass, over which input fingerprint. The derived `Ord`
/// (pass name, then input) is the on-disk sort order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PassKey {
    pass: &'static str,
    input: u64,
}

/// One serializable pass-cache entry, the unit of the on-disk JSONL
/// layer (`pass-cache-*.jsonl` under `--cache-dir`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PassEntry {
    /// Pass name (e.g. `"bind"`, `"buffer-size"`).
    pub pass: String,
    /// [`fingerprint`] of the pass inputs.
    pub input: u64,
    /// The memoized pass output, opaque to the cache: the serialized
    /// `Result<T, E>` of the pass body.
    pub output: Value,
}

impl MemoEntry for PassEntry {
    type Key = PassKey;
    type Value = Value;
    const PREFIX: &'static str = "pass-cache-";

    fn split(self) -> (PassKey, Value) {
        let key = PassKey {
            pass: intern(&self.pass),
            input: self.input,
        };
        (key, self.output)
    }

    fn join(key: PassKey, output: Value) -> PassEntry {
        PassEntry {
            pass: key.pass.to_string(),
            input: key.input,
            output,
        }
    }

    fn is_live(&self) -> bool {
        MEMOIZED.contains(&self.pass.as_str())
    }
}

/// A global, thread-safe memo table from `(pass, input fingerprint)` to
/// serialized pass output. Shared as an `Arc` through a [`PassRunner`].
pub type PassCache = MemoStore<PassEntry>;

impl MemoStore<PassEntry> {
    /// The memoized output for `pass` over `input`, if any. Counts a hit
    /// or a miss.
    pub fn lookup(&self, pass: &'static str, input: u64) -> Option<Value> {
        self.get(&PassKey { pass, input })
    }

    /// Memoizes `output` for `pass` over `input`, replacing a stale
    /// entry. Passes are deterministic, so a racing duplicate insert is
    /// benign and counted once.
    pub fn insert(&self, pass: &'static str, input: u64, output: Value) {
        self.put(PassKey { pass, input }, output);
    }
}

/// Per-pass counters: executions, cache replays, and total wall time
/// (which covers both — a replayed pass still costs its decode time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassStat {
    /// Pass name.
    pub name: &'static str,
    /// Times the pass body actually executed.
    pub runs: u64,
    /// Times the output was replayed from the cache instead.
    pub hits: u64,
    /// Total wall time across runs and hits, in nanoseconds.
    pub nanos: u64,
}

/// A snapshot of every pass a [`PassRunner`] has driven, in
/// first-execution order. `Display` renders the `--stats` table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PassReport(pub Vec<PassStat>);

impl PassReport {
    /// Total wall time across all passes, in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.0.iter().map(|p| p.nanos).sum()
    }

    /// The stat row for `name`, if that pass ever ran.
    pub fn get(&self, name: &str) -> Option<&PassStat> {
        self.0.iter().find(|p| p.name == name)
    }
}

impl fmt::Display for PassReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .0
            .iter()
            .map(|p| p.name.len())
            .chain([4])
            .max()
            .unwrap_or(4);
        writeln!(
            f,
            "{:<width$}  {:>6}  {:>6}  {:>12}",
            "pass", "runs", "hits", "wall"
        )?;
        for p in &self.0 {
            writeln!(
                f,
                "{:<width$}  {:>6}  {:>6}  {:>10.3}ms",
                p.name,
                p.runs,
                p.hits,
                p.nanos as f64 / 1e6,
            )?;
        }
        write!(
            f,
            "{:<width$}  {:>6}  {:>6}  {:>10.3}ms",
            "total",
            self.0.iter().map(|p| p.runs).sum::<u64>(),
            self.0.iter().map(|p| p.hits).sum::<u64>(),
            self.total_nanos() as f64 / 1e6,
        )
    }
}

/// Drives named passes: times every invocation, and — when constructed
/// [`with_cache`](PassRunner::with_cache) — memoizes outputs by input
/// fingerprint so unchanged passes replay instead of re-executing.
///
/// Thread-safe; shared as an `Arc` through `MapOptions`/`FlowOptions`
/// the same way the analysis cache is.
#[derive(Debug, Default)]
pub struct PassRunner {
    cache: Option<Arc<PassCache>>,
    stats: Mutex<Vec<PassStat>>,
}

impl PassRunner {
    /// A runner that times passes but never caches (the cold path; input
    /// fingerprints are never even computed).
    pub fn new() -> PassRunner {
        PassRunner::default()
    }

    /// A runner backed by `cache`: pass outputs are memoized and
    /// replayed across invocations (and across processes, once the cache
    /// is persisted).
    pub fn with_cache(cache: Arc<PassCache>) -> PassRunner {
        PassRunner {
            cache: Some(cache),
            stats: Mutex::new(Vec::new()),
        }
    }

    /// The attached pass cache, if any.
    pub fn cache(&self) -> Option<&Arc<PassCache>> {
        self.cache.as_ref()
    }

    fn record(&self, name: &'static str, hit: bool, nanos: u64) {
        let mut stats = self.stats.lock().expect("pass stats poisoned");
        let slot = match stats.iter_mut().find(|p| p.name == name) {
            Some(s) => s,
            None => {
                stats.push(PassStat {
                    name,
                    ..PassStat::default()
                });
                stats.last_mut().expect("just pushed")
            }
        };
        if hit {
            slot.hits += 1;
        } else {
            slot.runs += 1;
        }
        slot.nanos += nanos;
    }

    /// Snapshot of every pass driven so far, in first-execution order.
    pub fn report(&self) -> PassReport {
        PassReport(self.stats.lock().expect("pass stats poisoned").clone())
    }

    /// Runs (or replays) the pass `name`: `bind`, `buffer-size` or
    /// `verify-shared`, the passes whose pass-cache entries a load keeps.
    ///
    /// `input` reduces the pass inputs to a stable fingerprint; it is
    /// only invoked when a cache is attached. `f` is the pass body; both
    /// its `Ok` and `Err` outcomes are memoized. A cached value that
    /// fails to decode (stale on-disk schema) falls back to `f`.
    pub fn run<T, E>(
        &self,
        name: &'static str,
        input: impl FnOnce() -> u64,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E>
    where
        T: Serialize + for<'de> Deserialize<'de>,
        E: Serialize + for<'de> Deserialize<'de>,
    {
        debug_assert!(MEMOIZED.contains(&name), "pass `{name}` is not in MEMOIZED");
        let Some(cache) = &self.cache else {
            return self.time(name, f);
        };
        let start = Instant::now();
        let fp = input();
        if let Some(v) = cache.lookup(name, fp) {
            if let Ok(out) = Result::<T, E>::from_value(&v) {
                self.record(name, true, start.elapsed().as_nanos() as u64);
                return out;
            }
        }
        let out = f();
        cache.insert(name, fp, out.to_value());
        self.record(name, false, start.elapsed().as_nanos() as u64);
        out
    }

    /// Runs the pass `name` unconditionally, recording only wall time.
    /// For steps that cost less to run than to replay (`wire-alloc`,
    /// `schedule`) and steps whose output must never be replayed (code
    /// generation into a project directory, simulator measurements).
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, false, start.elapsed().as_nanos() as u64);
        out
    }
}

/// Runs `f` as the uncached step `name`: under `runner`'s wall-time
/// accounting ([`PassRunner::time`]), or directly when no runner is
/// configured.
pub fn timed<T>(runner: &Option<Arc<PassRunner>>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match runner {
        Some(r) => r.time(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> impl FnOnce() -> u64 {
        move || n
    }

    #[test]
    fn cacheless_runner_never_fingerprints() {
        let runner = PassRunner::new();
        let out: Result<u64, String> = runner.run("bind", || unreachable!("lazy"), || Ok(7));
        assert_eq!(out, Ok(7));
        let report = runner.report();
        assert_eq!(report.get("bind").unwrap().runs, 1);
        assert_eq!(report.get("bind").unwrap().hits, 0);
    }

    #[test]
    fn cached_runner_replays_both_ok_and_err() {
        let cache = Arc::new(PassCache::new());
        let runner = PassRunner::with_cache(cache.clone());

        let a: Result<Vec<u64>, String> = runner.run("bind", fp(1), || Ok(vec![1, 2, 3]));
        let b: Result<Vec<u64>, String> = runner.run("bind", fp(1), || unreachable!("must replay"));
        assert_eq!(a, b);

        let e1: Result<Vec<u64>, String> = runner.run("bind", fp(2), || Err("boom".into()));
        let e2: Result<Vec<u64>, String> =
            runner.run("bind", fp(2), || unreachable!("errors replay too"));
        assert_eq!(e1, e2);
        assert_eq!(e2, Err("boom".to_string()));

        let report = runner.report();
        let p = report.get("bind").unwrap();
        assert_eq!((p.runs, p.hits), (2, 2));
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn undecodable_entry_is_a_miss_not_an_error() {
        let cache = Arc::new(PassCache::new());
        // A foreign entry of the wrong shape under the key we will ask for.
        cache.insert("bind", 9, Value::Str("not a Result".into()));
        let runner = PassRunner::with_cache(Arc::clone(&cache));
        let out: Result<u64, String> = runner.run("bind", fp(9), || Ok(42));
        assert_eq!(out, Ok(42));
        // The recompute overwrote the stale entry; now it replays.
        let again: Result<u64, String> = runner.run("bind", fp(9), || unreachable!());
        assert_eq!(again, Ok(42));
        // Overwriting replaced a value under a known key: one insert.
        assert_eq!(cache.stats().inserts, 1);
    }

    #[test]
    fn export_import_round_trips_and_is_deterministic() {
        let cache = PassCache::new();
        cache.insert("b", 2, Value::Int(2));
        cache.insert("a", 1, Value::Int(1));
        cache.insert("a", 3, Value::Int(3));
        let exported = cache.export();
        assert_eq!(
            exported
                .iter()
                .map(|e| (e.pass.as_str(), e.input))
                .collect::<Vec<_>>(),
            vec![("a", 1), ("a", 3), ("b", 2)]
        );

        let fresh = PassCache::new();
        assert_eq!(fresh.import(exported.clone()), 3);
        assert_eq!(fresh.import(exported.clone()), 0, "duplicates are no-ops");
        assert_eq!(fresh.export(), exported);
    }

    #[test]
    fn report_renders_a_table_with_total() {
        let runner = PassRunner::new();
        let _: Result<u64, String> = runner.run("bind", fp(0), || Ok(1));
        runner.time("boot-sim", || ());
        let text = runner.report().to_string();
        assert!(text.starts_with("pass"), "header row: {text}");
        assert!(text.contains("bind"));
        assert!(text.contains("boot-sim"));
        assert!(text.lines().last().unwrap().starts_with("total"));
    }
}
