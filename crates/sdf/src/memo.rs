//! The one memo-table abstraction behind the flow's caches.
//!
//! [`MemoStore<E>`] is a global, thread-safe map from a key to a memoized
//! value, generic over its on-disk entry type `E` ([`MemoEntry`]). The
//! analysis cache ([`crate::cache::GlobalAnalysisCache`]) and the pass
//! cache ([`crate::passes::PassCache`]) are its two instantiations; each
//! adds only the inherent methods that derive its key.
//!
//! The store is one `Mutex` around a `BTreeMap` and its hit/miss/insert
//! counters. The lock is never held while computing, and a lookup is
//! cheap next to the analysis or pass it saves, so concurrent DSE workers
//! rarely wait on it. The counters are surfaced per run via
//! [`MemoStore::stats`] (`--stats`).
//!
//! The map is ordered by key, so [`export`](MemoStore::export) walks it
//! as it stands and equal stores export byte-identical JSONL regardless
//! of insertion order. [`import`](MemoStore::import) is first-wins;
//! `mamps_core::dse::cache` persists the entries under `--cache-dir` as
//! `<E::PREFIX><i>-of-<n>.jsonl`.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};

/// The serializable on-disk entry of a [`MemoStore`]: it splits into the
/// in-memory key and value, joins back on export, and names the file
/// prefix of its persisted JSONL files.
pub trait MemoEntry: Serialize + for<'de> Deserialize<'de> {
    /// The in-memory key. Its `Ord` is the export order.
    type Key: Clone + Ord;
    /// The memoized value.
    type Value: Clone;
    /// File-name prefix of this entry type's files under `--cache-dir`;
    /// a loader reads only `<PREFIX>*.jsonl`.
    const PREFIX: &'static str;

    /// Splits an entry into its key and value.
    fn split(self) -> (Self::Key, Self::Value);

    /// Joins a key and its value back into an entry.
    fn join(key: Self::Key, value: Self::Value) -> Self;
}

/// Counter snapshot of a [`MemoStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Keys newly inserted by this run (imported entries are not
    /// counted, nor is an insert that replaces an existing value).
    pub inserts: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses / {} inserts ({} entries)",
            self.hits, self.misses, self.inserts, self.entries
        )
    }
}

/// A global, thread-safe memo table over the entries `E`. See the module
/// docs.
///
/// All methods take `&self` and hold the lock only for the map access
/// itself. Two workers racing on one key both compute and both insert —
/// the memoized functions are deterministic, so the duplicate is benign
/// and counted once.
pub struct MemoStore<E: MemoEntry> {
    table: Mutex<Table<E>>,
}

/// The map and its counters, guarded together by the store's one lock.
struct Table<E: MemoEntry> {
    map: BTreeMap<E::Key, E::Value>,
    /// Hit, miss and insert counts; `entries` is left at 0 and filled in
    /// from the map by [`MemoStore::stats`].
    counts: CacheStats,
}

impl<E: MemoEntry> fmt::Debug for MemoStore<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoStore")
            .field("prefix", &E::PREFIX)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<E: MemoEntry> Default for MemoStore<E> {
    fn default() -> Self {
        MemoStore::new()
    }
}

impl<E: MemoEntry> MemoStore<E> {
    /// An empty store.
    pub fn new() -> MemoStore<E> {
        MemoStore {
            table: Mutex::new(Table {
                map: BTreeMap::new(),
                counts: CacheStats::default(),
            }),
        }
    }

    /// Locks the table. Each method leaves it consistent after every
    /// step, so a thread that panicked while holding the lock left
    /// nothing half-done and the poison flag is ignored.
    fn table(&self) -> MutexGuard<'_, Table<E>> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The memoized value under `key`, if any. Counts a hit or a miss.
    pub(crate) fn get(&self, key: &E::Key) -> Option<E::Value> {
        let mut t = self.table();
        let r = t.map.get(key).cloned();
        match r {
            Some(_) => t.counts.hits += 1,
            None => t.counts.misses += 1,
        }
        r
    }

    /// Memoizes `value` under `key`, replacing any existing value (a
    /// stale entry that no longer decodes must give way to its
    /// recomputation). Counts an insert only when the key was vacant.
    pub(crate) fn put(&self, key: E::Key, value: E::Value) {
        let mut t = self.table();
        if t.map.insert(key, value).is_none() {
            t.counts.inserts += 1;
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let t = self.table();
        CacheStats {
            entries: t.map.len(),
            ..t.counts
        }
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.table().map.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every entry in key order, so equal stores export byte-identical
    /// JSONL regardless of insertion order.
    pub fn export(&self) -> Vec<E> {
        let t = self.table();
        t.map
            .iter()
            .map(|(k, v)| E::join(k.clone(), v.clone()))
            .collect()
    }

    /// Loads entries (e.g. parsed from an on-disk cache file) into the
    /// store, returning how many were new. Existing entries win over
    /// imported ones, so duplicates across files are harmless. Imports
    /// touch no counter: the counters account for *this* run's lookups
    /// and inserts only.
    pub fn import<I: IntoIterator<Item = E>>(&self, entries: I) -> usize {
        let mut t = self.table();
        let before = t.map.len();
        for e in entries {
            let (key, value) = e.split();
            t.map.entry(key).or_insert(value);
        }
        t.map.len() - before
    }
}

#[cfg(test)]
mod tests {
    use crate::passes::PassCache;
    use serde::Value;
    use std::sync::Barrier;

    #[test]
    fn racing_workers_insert_each_key_once_and_export_in_key_order() {
        let cache = PassCache::new();
        // Two threads walk overlapping key ranges (0..600 and 400..1000)
        // in opposite directions, each looking every key up and inserting
        // it on a miss, as a DSE worker does around an analysis. The
        // barrier starts both walks together.
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for keys in [(0..600).collect::<Vec<u64>>(), (400..1000).rev().collect()] {
                let (cache, start) = (&cache, &start);
                s.spawn(move || {
                    start.wait();
                    for k in keys {
                        let pass = if k % 2 == 0 { "bind" } else { "buffer-size" };
                        if cache.lookup(pass, k).is_none() {
                            cache.insert(pass, k, Value::Int(k.into()));
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!((stats.inserts, stats.entries), (1000, 1000));
        assert_eq!(stats.hits + stats.misses, 1200);
        let exported = cache.export();
        assert_eq!(exported.len(), 1000);
        assert!(exported
            .windows(2)
            .all(|w| (w[0].pass.as_str(), w[0].input) < (w[1].pass.as_str(), w[1].input)));
        assert!(exported
            .iter()
            .all(|e| e.output == Value::Int(e.input.into())));
    }
}
