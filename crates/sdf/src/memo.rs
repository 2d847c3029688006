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
//!
//! A store may carry a [`SyncMark`]: the file its map is known to equal.
//! Loading one canonical file into an empty store sets it, and so does a
//! persist; every change to the map clears it. While the mark still
//! names the file as it stands on disk, persisting to that file has
//! nothing to write and skips the render.

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::SystemTime;

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

    /// Whether this build still looks the entry up. A loader drops the
    /// entries that are not, so the next persist leaves them out.
    fn is_live(&self) -> bool {
        true
    }
}

/// The file a [`MemoStore`]'s map is known to equal, with the metadata
/// that any replacement or edit of it changes: a rename brings a new
/// inode, an edit in place a new length or modification time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncMark {
    /// Where the file is.
    pub path: PathBuf,
    /// Its inode number.
    pub inode: u64,
    /// Its length in bytes.
    pub len: u64,
    /// Its modification time.
    pub mtime: SystemTime,
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
    /// The file `map` is known to equal, if any.
    synced: Option<SyncMark>,
    /// Changes made to `map` so far: a mark taken from an export is only
    /// set while this still reads what the export saw.
    edits: u64,
}

impl<E: MemoEntry> Table<E> {
    /// Records a change to the map: it no longer equals any file.
    fn edited(&mut self) {
        self.synced = None;
        self.edits += 1;
    }
}

/// Which state of a store an [`export_edition`](MemoStore::export_edition)
/// saw; [`mark_synced`](MemoStore::mark_synced) accepts it only while the
/// store is still in that state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edition(u64);

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
                synced: None,
                edits: 0,
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
    /// Clears the sync mark either way.
    pub(crate) fn put(&self, key: E::Key, value: E::Value) {
        let mut t = self.table();
        if t.map.insert(key, value).is_none() {
            t.counts.inserts += 1;
        }
        t.edited();
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
        self.export_edition().0
    }

    /// [`export`](Self::export), and the [`Edition`] of the store it
    /// exported, for [`mark_synced`](Self::mark_synced) once the entries
    /// are on disk.
    pub fn export_edition(&self) -> (Vec<E>, Edition) {
        let t = self.table();
        let entries = t
            .map
            .iter()
            .map(|(k, v)| E::join(k.clone(), v.clone()))
            .collect();
        (entries, Edition(t.edits))
    }

    /// The file the store is known to equal, if any.
    pub fn sync_mark(&self) -> Option<SyncMark> {
        self.table().synced.clone()
    }

    /// Marks the store as equal to `file`, which holds the entries of
    /// `edition`. A no-op when the store changed since that export.
    pub fn mark_synced(&self, edition: Edition, file: SyncMark) {
        let mut t = self.table();
        if t.edits == edition.0 {
            t.synced = Some(file);
        }
    }

    /// Loads entries (e.g. parsed from an on-disk cache file) into the
    /// store, returning how many were new. Existing entries win over
    /// imported ones, so duplicates across files are harmless. Imports
    /// touch no counter: the counters account for *this* run's lookups
    /// and inserts only. An import that adds a key clears the sync mark.
    pub fn import<I: IntoIterator<Item = E>>(&self, entries: I) -> usize {
        self.import_marking(entries, None)
    }

    /// [`import`](Self::import) of every entry of `file`, in file order.
    /// When the store was empty and the keys come strictly ascending,
    /// the map then equals the file entry for entry, and `file` becomes
    /// the sync mark.
    pub fn import_file<I: IntoIterator<Item = E>>(&self, entries: I, file: SyncMark) -> usize {
        self.import_marking(entries, Some(file))
    }

    fn import_marking<I: IntoIterator<Item = E>>(
        &self,
        entries: I,
        mut file: Option<SyncMark>,
    ) -> usize {
        let mut t = self.table();
        let before = t.map.len();
        if before > 0 {
            file = None;
        }
        for e in entries {
            let (key, value) = e.split();
            if file.is_some() && t.map.last_key_value().is_some_and(|(last, _)| *last >= key) {
                file = None;
            }
            t.map.entry(key).or_insert(value);
        }
        let added = t.map.len() - before;
        if added > 0 {
            t.edited();
        }
        if file.is_some() {
            t.synced = file;
        }
        added
    }
}

#[cfg(test)]
mod tests {
    use super::SyncMark;
    use crate::passes::{PassCache, PassEntry};
    use serde::Value;
    use std::sync::Barrier;
    use std::time::SystemTime;

    fn file(inode: u64) -> SyncMark {
        SyncMark {
            path: "pass-cache-0-of-1.jsonl".into(),
            inode,
            len: 0,
            mtime: SystemTime::UNIX_EPOCH,
        }
    }

    fn entries(inputs: &[u64]) -> Vec<PassEntry> {
        inputs
            .iter()
            .map(|&input| PassEntry {
                pass: "bind".into(),
                input,
                output: Value::Int(input.into()),
            })
            .collect()
    }

    #[test]
    fn only_a_whole_ascending_file_or_a_current_export_sets_the_mark() {
        // A file loaded into an empty store in strictly ascending key
        // order is the store; out of order, duplicated or on top of other
        // entries it is not.
        let cache = PassCache::new();
        assert_eq!(cache.import_file(entries(&[1, 2, 3]), file(1)), 3);
        assert_eq!(cache.sync_mark(), Some(file(1)));
        for keys in [&[2, 1][..], &[1, 1]] {
            let cache = PassCache::new();
            cache.import_file(entries(keys), file(1));
            assert_eq!(cache.sync_mark(), None, "keys {keys:?}");
        }
        let cache = PassCache::new();
        cache.insert("bind", 0, Value::Null);
        cache.import_file(entries(&[1, 2]), file(1));
        assert_eq!(cache.sync_mark(), None, "the store held an entry");

        // A mark taken from an export is set only while the store still
        // holds what was exported.
        let (_, edition) = cache.export_edition();
        cache.insert("bind", 9, Value::Null);
        cache.mark_synced(edition, file(2));
        assert_eq!(cache.sync_mark(), None, "an insert came in between");
        let (_, edition) = cache.export_edition();
        cache.mark_synced(edition, file(3));
        assert_eq!(cache.sync_mark(), Some(file(3)));
    }

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
