//! The one memo-table abstraction behind the flow's caches.
//!
//! [`MemoStore<E>`] is a global, thread-safe map from a key to a memoized
//! value, generic over its on-disk entry type `E` ([`MemoEntry`]). The
//! analysis cache ([`crate::cache::GlobalAnalysisCache`]) and the pass
//! cache ([`crate::passes::PassCache`]) are its two instantiations; each
//! adds only the inherent methods that derive its key.
//!
//! Interior mutability is a fixed set of `Mutex`-protected shards (an
//! FxHash map each), picked by key hash, so concurrent DSE workers rarely
//! contend on the same lock. Shards are never locked while computing.
//! Hit/miss/insert counters are relaxed atomics, surfaced per run via
//! [`MemoStore::stats`] (`--stats`).
//!
//! Entries [`export`](MemoStore::export) sorted by key, so equal stores
//! export byte-identical JSONL regardless of insertion or shard order, and
//! [`import`](MemoStore::import) first-wins; `mamps_core::dse::cache`
//! persists them under `--cache-dir` as `<E::PREFIX><i>-of-<n>.jsonl`.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// FxHash (the rustc hash) as a `std::hash::Hasher`, for the in-memory
/// shard maps. Quality is sufficient for table indexing and it is much
/// cheaper than SipHash on the short keys used here. (Only the *stable*
/// [`serde::stable_hash`] is persisted; this table hash never leaves the
/// process.)
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;
type FxHashMap<K, V> = HashMap<K, V, FxBuild>;
type Shard<E> = Mutex<FxHashMap<<E as MemoEntry>::Key, <E as MemoEntry>::Value>>;

/// Number of independently locked map shards. A small power of two:
/// enough that a handful of DSE workers rarely collide, cheap enough to
/// iterate for export.
const SHARD_COUNT: usize = 16;

/// The serializable on-disk entry of a [`MemoStore`]: it splits into the
/// in-memory key and value, joins back on export, and names the file
/// prefix of its persisted JSONL files.
pub trait MemoEntry: Serialize + for<'de> Deserialize<'de> {
    /// The in-memory key. Its `Ord` is the export order.
    type Key: Clone + Eq + Hash + Ord;
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
/// All methods take `&self`; shards are locked individually and never
/// while computing, so concurrent workers only serialize on map access
/// itself. Two workers racing on one key both compute and both insert —
/// the memoized functions are deterministic, so the duplicate is benign
/// and counted once.
pub struct MemoStore<E: MemoEntry> {
    shards: [Shard<E>; SHARD_COUNT],
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
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
            shards: std::array::from_fn(|_| Mutex::new(FxHashMap::default())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &E::Key) -> &Shard<E> {
        let h = FxBuild::default().hash_one(key);
        &self.shards[(h as usize) % SHARD_COUNT]
    }

    /// The memoized value under `key`, if any. Counts a hit or a miss.
    pub(crate) fn get(&self, key: &E::Key) -> Option<E::Value> {
        let r = self
            .shard(key)
            .lock()
            .expect("memo shard poisoned")
            .get(key)
            .cloned();
        match r {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        r
    }

    /// Memoizes `value` under `key`, replacing any existing value (a
    /// stale entry that no longer decodes must give way to its
    /// recomputation). Counts an insert only when the key was vacant.
    pub(crate) fn put(&self, key: E::Key, value: E::Value) {
        let mut shard = self.shard(&key).lock().expect("memo shard poisoned");
        if shard.insert(key, value).is_none() {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("memo shard poisoned").len())
            .sum()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every entry, sorted by key, so equal stores export byte-identical
    /// JSONL regardless of insertion or shard order.
    pub fn export(&self) -> Vec<E> {
        let mut pairs: Vec<(E::Key, E::Value)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let shard = shard.lock().expect("memo shard poisoned");
            pairs.extend(shard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        pairs.into_iter().map(|(k, v)| E::join(k, v)).collect()
    }

    /// Loads entries (e.g. parsed from an on-disk cache file) into the
    /// store, returning how many were new. Existing entries win over
    /// imported ones, so duplicates across files are harmless. Imports
    /// touch no counter: the counters account for *this* run's lookups
    /// and inserts only.
    pub fn import<I: IntoIterator<Item = E>>(&self, entries: I) -> usize {
        let mut added = 0;
        for e in entries {
            let (key, value) = e.split();
            let mut shard = self.shard(&key).lock().expect("memo shard poisoned");
            if let std::collections::hash_map::Entry::Vacant(slot) = shard.entry(key) {
                slot.insert(value);
                added += 1;
            }
        }
        added
    }
}
