//! The one memo-table abstraction behind the flow's caches, and the files
//! it persists to.
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
//! of insertion order. [`import`](MemoStore::import) is first-wins.
//!
//! ## Cache files
//!
//! [`MemoStore::persist`] writes the store to one file and
//! [`MemoStore::load_dir`] reads back every `<E::PREFIX>*.jsonl` file of
//! a directory; `mamps_core::dse::cache` names each shard's file
//! (`mamps dse --cache-dir DIR`).
//!
//! * **Format.** One JSON object per line (the entry, canonical bytes),
//!   keyed by the entry itself, so files can be concatenated, truncated
//!   or partially written without any ordering contract. Entries are
//!   written in key order, so equal stores produce identical files.
//! * **Robustness.** The cache is advisory: a line that is not UTF-8 or
//!   does not parse (torn tail of a killed run, cut even inside a
//!   multi-byte character) is skipped and counted, never an error, and
//!   an entry this build no longer looks up ([`MemoEntry::is_live`]) is
//!   dropped and counted; the worst case is re-analysing a design point.
//!   A file is written to a temporary name unique to the writer and
//!   renamed into place, so no reader sees a half-written file.
//! * **When a persist writes.** A store carries a sync mark: the file
//!   (path, inode, length, mtime) its map is known to equal. Loading sets
//!   it when the directory holds one file of the store's type and every
//!   line of it went, in strictly ascending key order, into an empty
//!   store; a persist sets it once the file is written, unless the store
//!   changed meanwhile; every insert, replaced value and key-adding
//!   import clears it. A persist whose mark names its target, with the
//!   file's metadata as recorded, returns without rendering or reading;
//!   every other persist renders the entries and replaces the file. So a
//!   warm run that changed nothing leaves its file (inode and mtime too)
//!   as it was. A file edited behind the store, out of key order, or with
//!   duplicated, torn or dead lines is rewritten canonically, and a store
//!   loaded from several files (a directory shared by shards) rewrites
//!   its own file even when that already holds its bytes. A line that
//!   parses but is not canonical (say, reformatted by hand) stays until
//!   the store changes. Files are only ever replaced whole by a rename,
//!   never written in place, so a file that another writer replaced has
//!   a new inode and no longer matches the mark.
//!
//!   An [`ATTACH`](MemoEntry::ATTACH) store (the analysis cache) attaches
//!   a directory's one file of its type when the store is empty and the
//!   file is valid UTF-8, empty or ending in a newline, with one `{…}`
//!   per non-blank line: it keeps the bytes and takes the mark, unparsed.
//!   The first `get`, `put`, `import`, `export`, `len`, `is_empty`,
//!   `stats` or unskipped persist parses them under the lock as a load
//!   would, keeping the mark only where that load would have set it;
//!   `Debug` and the mark check do not. So a warm run that looks nothing
//!   up never parses the file, and a file appended to, truncated,
//!   rewritten or deleted behind an untouched store is restored to the
//!   attached bytes. Any other file loads as above, so a torn, non-UTF-8
//!   or non-JSON line is still rewritten. One more relaxation: a
//!   duplicated, out-of-order, or `{…}` but unparseable line of an
//!   attached file stays until a run touches the store.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
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

    /// Whether [`MemoStore::load_dir`] may attach a file of this type
    /// unparsed, to be parsed on first use (see the module docs): set by
    /// the analysis cache, which a warm sweep never looks up, and not by
    /// the pass cache, which it looks up at every design point.
    const ATTACH: bool = false;

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
struct SyncMark {
    path: PathBuf,
    inode: u64,
    len: u64,
    mtime: SystemTime,
}

impl SyncMark {
    /// The mark of the file at `path` with metadata `meta`; `None` where
    /// the platform reports no modification time.
    fn of(path: &Path, meta: &fs::Metadata) -> Option<SyncMark> {
        Some(SyncMark {
            path: path.to_path_buf(),
            inode: meta.ino(),
            len: meta.len(),
            mtime: meta.modified().ok()?,
        })
    }
}

/// What [`MemoStore::load_dir`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheDirLoad {
    /// `*.jsonl` files read.
    pub files: usize,
    /// Entries imported into the in-memory cache (first occurrence of
    /// each key wins; later duplicates are not counted), or for a file
    /// attached unparsed ([`attached`](Self::attached)), its entry lines.
    pub imported: usize,
    /// Entries dropped because this build no longer looks them up
    /// ([`MemoEntry::is_live`]): pass-cache entries of passes that no
    /// longer memoize.
    pub dropped: usize,
    /// Lines skipped because they were not UTF-8 or did not parse as a
    /// cache entry.
    pub skipped_lines: usize,
    /// Whether the one file was attached unparsed, to be parsed on the
    /// store's first use (see the module docs).
    pub attached: bool,
}

impl fmt::Display for CacheDirLoad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} entries from {} file{}",
            self.imported,
            self.files,
            if self.files == 1 { "" } else { "s" }
        )?;
        if self.dropped > 0 {
            write!(f, " ({} dead entries dropped)", self.dropped)?;
        }
        if self.skipped_lines > 0 {
            write!(f, " ({} unparseable lines skipped)", self.skipped_lines)?;
        }
        if self.attached {
            write!(f, " (attached, parsed on first use)")?;
        }
        Ok(())
    }
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
    /// Changes made to `map` so far: a persist sets the mark only while
    /// this still reads what its export saw.
    edits: u64,
    /// The bytes of the file the store was attached to, not yet parsed;
    /// `map` is empty while they are held.
    attached: Option<Vec<u8>>,
}

impl<E: MemoEntry> Table<E> {
    /// Records a change to the map: it no longer equals any file.
    fn edited(&mut self) {
        self.synced = None;
        self.edits += 1;
    }

    /// The counters, with the entries parsed so far.
    fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.map.len(),
            ..self.counts
        }
    }

    /// [`MemoStore::import_marking`] on the locked table.
    fn import(&mut self, items: impl IntoIterator<Item = E>, mut file: Option<SyncMark>) -> usize {
        let before = self.map.len();
        if before > 0 {
            file = None;
        }
        for e in items {
            let (key, value) = e.split();
            if file.is_some() && self.map.last_key_value().is_some_and(|(l, _)| *l >= key) {
                file = None;
            }
            self.map.entry(key).or_insert(value);
        }
        let added = self.map.len() - before;
        if added > 0 {
            self.edited();
        }
        if file.is_some() {
            self.synced = file;
        }
        added
    }
}

impl<E: MemoEntry> fmt::Debug for MemoStore<E> {
    /// Shows an attached file as its length, unparsed.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.lock();
        f.debug_struct("MemoStore")
            .field("prefix", &E::PREFIX)
            .field("stats", &t.stats())
            .field("attached_bytes", &t.attached.as_ref().map(Vec::len))
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
                attached: None,
            }),
        }
    }

    /// Locks the table as it stands, an attached file unparsed. Each
    /// method leaves it consistent after every step, so a thread that
    /// panicked while holding the lock left nothing half-done and the
    /// poison flag is ignored.
    fn lock(&self) -> MutexGuard<'_, Table<E>> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the table, first parsing an attached file into it as
    /// [`load_dir`](Self::load_dir) would have, mark included.
    fn table(&self) -> MutexGuard<'_, Table<E>> {
        let mut t = self.lock();
        // The filter compiles the parse out of types that never attach.
        if let Some(bytes) = t.attached.take().filter(|_| E::ATTACH) {
            let mut load = CacheDirLoad::default();
            let parsed = parse_lines(&bytes, &mut load);
            let whole = (load.skipped_lines, load.dropped) == (0, 0);
            let mark = t.synced.take().filter(|_| whole);
            t.import(parsed, mark);
        }
        t
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
        self.table().stats()
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
        self.export_edits().0
    }

    /// [`export`](Self::export), and the number of changes the store had
    /// seen when it exported, for [`mark_synced`](Self::mark_synced) once
    /// the entries are on disk.
    fn export_edits(&self) -> (Vec<E>, u64) {
        let t = self.table();
        let entries = t
            .map
            .iter()
            .map(|(k, v)| E::join(k.clone(), v.clone()))
            .collect();
        (entries, t.edits)
    }

    /// Marks the store as equal to `file`, which holds the entries it had
    /// after `edits` changes. A no-op when it changed since.
    fn mark_synced(&self, edits: u64, file: SyncMark) {
        let mut t = self.table();
        if t.edits == edits {
            t.synced = Some(file);
        }
    }

    /// Loads entries (e.g. received from a DSE worker) into the store,
    /// returning how many were new. Existing entries win over imported
    /// ones, so duplicates are harmless. Imports touch no counter: the
    /// counters account for *this* run's lookups and inserts only. An
    /// import that adds a key clears the sync mark.
    pub fn import<I: IntoIterator<Item = E>>(&self, entries: I) -> usize {
        self.import_marking(entries, None)
    }

    /// [`import`](Self::import), and when `file` holds `items` in file
    /// order, the store was empty and the keys come strictly ascending,
    /// the map then equals the file entry for entry and `file` becomes
    /// the sync mark.
    fn import_marking(&self, items: impl IntoIterator<Item = E>, file: Option<SyncMark>) -> usize {
        self.table().import(items, file)
    }

    /// Loads every `<E::PREFIX>*.jsonl` file of `dir` into the store, and
    /// marks it as equal to the file when that is all it holds; for an
    /// [`E::ATTACH`](MemoEntry::ATTACH) type, such a file may instead be
    /// attached unparsed (see the module docs). A missing directory is an
    /// empty cache, not an error (the run creates it on persist). Files
    /// are visited in name order, so which duplicate of a key wins is
    /// deterministic.
    ///
    /// # Errors
    ///
    /// Only real I/O errors (unreadable directory or file); lines that are
    /// not UTF-8 or do not parse are skipped and counted in
    /// [`CacheDirLoad::skipped_lines`].
    pub fn load_dir(&self, dir: &Path) -> io::Result<CacheDirLoad> {
        let mut load = CacheDirLoad::default();
        let entries = match fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(load),
            Err(e) => return Err(e),
        };
        let mut files: Vec<PathBuf> = entries
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(E::PREFIX) && n.ends_with(".jsonl"))
            })
            .collect();
        files.sort();
        let only = files.len() == 1;
        for path in files {
            // Bytes, not a string: a line cut inside a multi-byte character
            // is one more torn line, not an error for the whole file. The
            // metadata is taken from the handle before reading, so a mark
            // never names a newer file than the bytes read.
            let mut file = fs::File::open(&path)?;
            let meta = file.metadata()?;
            let mut bytes = Vec::with_capacity(usize::try_from(meta.len()).unwrap_or(0));
            file.read_to_end(&mut bytes)?;
            load.files += 1;
            let mark = SyncMark::of(&path, &meta);
            let attach = (only && E::ATTACH).then(|| entry_lines(&bytes)).flatten();
            if let (Some(lines), Some(mark)) = (attach, &mark) {
                let mut t = self.table();
                if t.map.is_empty() {
                    t.synced = Some(mark.clone());
                    t.attached = Some(bytes);
                    load.imported = lines;
                    load.attached = true;
                    continue;
                }
            }
            let before = (load.skipped_lines, load.dropped);
            let parsed = parse_lines(&bytes, &mut load);
            let whole = only && (load.skipped_lines, load.dropped) == before;
            load.imported += self.import_marking(parsed, mark.filter(|_| whole));
        }
        Ok(load)
    }

    /// Replaces the file at `path` (creating its directory if needed) with
    /// every entry in key order, unless the store is marked as equal to
    /// that file as it stands (see the module docs). The temporary name
    /// it renames into place is unique to this writer (process id plus a
    /// process-wide counter), so concurrent persists of one file all
    /// succeed.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or writing the file.
    pub fn persist(&self, path: &Path) -> io::Result<()> {
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let current = |mark: SyncMark| {
            mark.path == path
                && fs::metadata(path).is_ok_and(|m| SyncMark::of(path, &m) == Some(mark))
        };
        let mark = self.lock().synced.clone();
        if mark.is_some_and(current) {
            return Ok(());
        }
        let (entries, edits) = self.export_edits();
        let mut out = String::new();
        for entry in entries {
            serde::json::emit(&entry.to_value(), &mut out);
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let writer = WRITES.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_file_name(format!(".{name}.{}-{writer}.tmp", std::process::id()));
        // The handle's metadata, which the rename keeps.
        let written = fs::File::create(&tmp).and_then(|mut file| {
            file.write_all(out.as_bytes())?;
            let meta = file.metadata()?;
            fs::rename(&tmp, path)?;
            Ok(meta)
        });
        if written.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        if let Some(mark) = SyncMark::of(path, &written?) {
            self.mark_synced(edits, mark);
        }
        Ok(())
    }
}

/// The live entries of a cache file's bytes, in file order, counting the
/// other lines in `load.skipped_lines` and `load.dropped`.
fn parse_lines<E: MemoEntry>(bytes: &[u8], load: &mut CacheDirLoad) -> Vec<E> {
    let mut parsed = Vec::new();
    for line in bytes.split(|&b| b == b'\n') {
        let Ok(line) = std::str::from_utf8(line) else {
            load.skipped_lines += 1;
            continue;
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match serde::json::from_str::<E>(line) {
            Ok(e) if e.is_live() => parsed.push(e),
            Ok(_) => load.dropped += 1,
            Err(_) => load.skipped_lines += 1,
        }
    }
    parsed
}

/// The number of entry lines of a cache file's bytes, when they may be
/// attached unparsed (valid UTF-8, empty or ending in a newline, one
/// `{…}` per non-blank line).
fn entry_lines(bytes: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(bytes).ok()?;
    if !text.is_empty() && !text.ends_with('\n') {
        return None;
    }
    let lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
    lines
        .map(|l| (l.starts_with('{') && l.ends_with('}')).then_some(1))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::SyncMark;
    use crate::cache::GlobalAnalysisCache;
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
        let mark = |cache: &PassCache| cache.table().synced.clone();
        // A file loaded into an empty store in strictly ascending key
        // order is the store; out of order, duplicated or on top of other
        // entries it is not.
        let cache = PassCache::new();
        assert_eq!(cache.import_marking(entries(&[1, 2, 3]), Some(file(1))), 3);
        assert_eq!(mark(&cache), Some(file(1)));
        for keys in [&[2, 1][..], &[1, 1]] {
            let cache = PassCache::new();
            cache.import_marking(entries(keys), Some(file(1)));
            assert_eq!(mark(&cache), None, "keys {keys:?}");
        }
        let cache = PassCache::new();
        cache.insert("bind", 0, Value::Null);
        cache.import_marking(entries(&[1, 2]), Some(file(1)));
        assert_eq!(mark(&cache), None, "the store held an entry");

        // A mark taken from an export is set only while the store still
        // holds what was exported.
        let (_, edits) = cache.export_edits();
        cache.insert("bind", 9, Value::Null);
        cache.mark_synced(edits, file(2));
        assert_eq!(mark(&cache), None, "an insert came in between");
        let (_, edits) = cache.export_edits();
        cache.mark_synced(edits, file(3));
        assert_eq!(mark(&cache), Some(file(3)));
    }

    #[test]
    fn debug_and_a_skipped_persist_leave_an_attached_store_unparsed() {
        let dir = std::env::temp_dir().join(format!("mamps-memo-attach-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("analysis-cache-0-of-1.jsonl");
        std::fs::write(&path, "{}\n").unwrap();
        let cache = GlobalAnalysisCache::new();
        assert!(cache.load_dir(&dir).unwrap().attached);
        let held = |c: &GlobalAnalysisCache| c.lock().attached.is_some();
        assert!(format!("{cache:?}").contains("attached_bytes: Some(3)"));
        cache.persist(&path).unwrap();
        assert!(held(&cache), "Debug and a skipped persist parse nothing");
        assert_eq!(cache.len(), 0, "`{{}}` is no entry");
        assert!(!held(&cache), "the first use parses");
        let _ = std::fs::remove_dir_all(&dir);
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
