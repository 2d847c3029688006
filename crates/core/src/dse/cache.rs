//! On-disk layer of the memo caches: warm sweeps across processes and
//! shards.
//!
//! A [`MemoStore`] (the analysis cache or the pass cache) memoizes within
//! one process. This module persists it under a directory (`mamps dse
//! --cache-dir DIR`) so the next run — the same process re-invoked, or the
//! *other shards* of a split sweep — starts warm. One load/persist pair
//! serves every entry type:
//!
//! * **Format.** One JSON object per line (the store's [`MemoEntry`],
//!   canonical bytes), seq-free: lines are keyed by the entry itself, so
//!   files can be concatenated, truncated or partially written without
//!   any ordering contract. Entries are exported sorted by key, so equal
//!   caches produce identical files.
//! * **Naming.** Each run writes `<PREFIX><index>-of-<count>.jsonl` for
//!   its own [`ShardSpec`] (`analysis-cache-` or `pass-cache-`, per
//!   [`MemoEntry::PREFIX`]) — concurrent shard processes sharing one
//!   `--cache-dir` never write the same file. On startup each loader reads
//!   every `<PREFIX>*.jsonl` of its own entry type, whichever shard
//!   produced it, and ignores every other file in the directory.
//! * **Robustness.** The cache is advisory: a line that fails to parse
//!   or is not UTF-8 (torn tail of a killed run, cut even inside a
//!   multi-byte character) is skipped and counted, never an error — the
//!   worst case is re-analysing a design point. Files are written to a
//!   temporary name unique to the writer and renamed into place, so a
//!   reader never observes a half-written cache file and two writers of
//!   one file never truncate each other's temporary.
//! * **Unchanged files stay.** A store carries a [`SyncMark`], the file
//!   (path, inode, length, mtime) its map is known to equal. Loading sets
//!   it when the directory holds one file of the store's type and every
//!   line of it went, in strictly ascending key order, into an empty
//!   store; a persist sets it once the file is written or found equal;
//!   every insert, replaced value and key-adding import clears it. A
//!   persist whose mark names its target, with the file's metadata as
//!   recorded, returns without rendering or reading. Any other persist
//!   renders the entries and writes nothing when the file already holds
//!   those bytes. So a warm run that changed nothing leaves its files
//!   (and their inodes and mtimes) as they were, while a file edited
//!   behind the store, split across shard files, out of key order, with
//!   duplicated, torn or dead lines is rewritten canonically by the next
//!   persist. One relaxation: a line that parses but is not canonical
//!   (say, reformatted by hand) stays until the store changes. Next to
//!   concurrent writers this is safe: files are only ever replaced whole
//!   by a rename, never written in place, so a replaced file has a new
//!   inode, the compared file is one writer's complete output, and
//!   finding it equal is the same outcome as writing it and having the
//!   rename land just before that writer's.

use std::fs;
use std::io::{self, Read, Write};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use mamps_sdf::memo::{MemoEntry, MemoStore, SyncMark};

use crate::dse::shard::ShardSpec;

/// What loading a cache directory found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheDirLoad {
    /// `*.jsonl` files read.
    pub files: usize,
    /// Entries imported into the in-memory cache (first occurrence of
    /// each key wins; later duplicates are not counted).
    pub imported: usize,
    /// Entries dropped because this build no longer looks them up
    /// ([`MemoEntry::is_live`]): pass-cache entries of passes that no
    /// longer memoize.
    pub dropped: usize,
    /// Lines skipped because they were not UTF-8 or did not parse as a
    /// cache entry.
    pub skipped_lines: usize,
}

impl std::fmt::Display for CacheDirLoad {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
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
        Ok(())
    }
}

/// Loads every `<E::PREFIX>*.jsonl` file of `dir` into `cache`. A missing
/// directory is an empty cache, not an error (the run will create it on
/// persist). Files are visited in name order, so which duplicate of a key
/// wins is deterministic. Entries that are not [live](MemoEntry::is_live)
/// are dropped and counted.
///
/// When the directory holds exactly one such file, `cache` was empty and
/// every line was imported in strictly ascending key order, the file
/// becomes the cache's [`SyncMark`]: [`persist_cache`] to it then has
/// nothing to write.
///
/// # Errors
///
/// Only real I/O errors (unreadable directory or file); lines that are
/// not UTF-8 or do not parse are skipped and counted in
/// [`CacheDirLoad::skipped_lines`].
pub fn load_cache_dir<E: MemoEntry>(cache: &MemoStore<E>, dir: &Path) -> io::Result<CacheDirLoad> {
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
        let before = (load.skipped_lines, load.dropped);
        let mut parsed: Vec<E> = Vec::new();
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
        let whole = only && (load.skipped_lines, load.dropped) == before;
        load.imported += match mark_of(&path, &meta) {
            Some(mark) if whole => cache.import_file(parsed, mark),
            _ => cache.import(parsed),
        };
        load.files += 1;
    }
    Ok(load)
}

/// Persists `cache` to its shard-owned `<E::PREFIX><i>-of-<n>.jsonl` file
/// in `dir` (creating the directory if needed) and returns the file's
/// path.
///
/// When the cache's [`SyncMark`] names that file and its metadata still
/// matches, the cache is known to equal it and nothing is rendered or
/// read. Otherwise the entries are rendered; a file that already holds
/// exactly those bytes is left in place, and any other is replaced
/// atomically (write to a temporary name unique to this writer — process
/// id plus a process-wide counter — then rename), so concurrent loaders
/// see either the old or the new cache, never a torn one, and concurrent
/// persists of one file all succeed. Either way the file becomes the
/// mark, unless the cache changed while it was rendered.
///
/// # Errors
///
/// I/O errors creating the directory or writing the file.
pub fn persist_cache<E: MemoEntry>(
    cache: &MemoStore<E>,
    dir: &Path,
    spec: ShardSpec,
) -> io::Result<PathBuf> {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let name = format!("{}{}-of-{}.jsonl", E::PREFIX, spec.index, spec.count);
    let path = dir.join(&name);
    let unchanged = |mark: SyncMark| {
        mark.path == path && fs::metadata(&path).is_ok_and(|m| mark_of(&path, &m) == Some(mark))
    };
    if cache.sync_mark().is_some_and(unchanged) {
        return Ok(path);
    }
    fs::create_dir_all(dir)?;
    let (entries, edition) = cache.export_edition();
    let mut out = String::new();
    for entry in entries {
        serde::json::emit(&entry.to_value(), &mut out);
        out.push('\n');
    }
    let meta = match held(&path, out.as_bytes()) {
        Some(meta) => meta,
        None => {
            let writer = WRITES.fetch_add(1, Ordering::Relaxed);
            let tmp = dir.join(format!(".{name}.{}-{writer}.tmp", std::process::id()));
            let written = write_file(&tmp, out.as_bytes())
                .and_then(|meta| fs::rename(&tmp, &path).map(|()| meta));
            if written.is_err() {
                let _ = fs::remove_file(&tmp);
            }
            written?
        }
    };
    if let Some(mark) = mark_of(&path, &meta) {
        cache.mark_synced(edition, mark);
    }
    Ok(path)
}

/// The [`SyncMark`] of the file at `path` with metadata `meta`; `None`
/// where the platform reports no modification time.
fn mark_of(path: &Path, meta: &fs::Metadata) -> Option<SyncMark> {
    Some(SyncMark {
        path: path.to_path_buf(),
        inode: meta.ino(),
        len: meta.len(),
        mtime: meta.modified().ok()?,
    })
}

/// Writes `bytes` to a new file at `path` and returns its metadata, which
/// a rename into place keeps.
fn write_file(path: &Path, bytes: &[u8]) -> io::Result<fs::Metadata> {
    let mut file = fs::File::create(path)?;
    file.write_all(bytes)?;
    file.metadata()
}

/// The metadata of the file at `path` when it holds exactly `bytes`: the
/// length first, then fixed-size chunks, so no second copy of the file is
/// held. A file that cannot be opened or read counts as different.
fn held(path: &Path, bytes: &[u8]) -> Option<fs::Metadata> {
    let mut file = fs::File::open(path).ok()?;
    let meta = file.metadata().ok()?;
    if meta.len() != bytes.len() as u64 {
        return None;
    }
    let mut chunk = [0u8; 8 * 1024];
    bytes
        .chunks(chunk.len())
        .all(|expected| {
            let got = &mut chunk[..expected.len()];
            file.read_exact(got).is_ok() && got == expected
        })
        .then_some(meta)
}

/// [`load_cache_dir`] under the name callers of the pass cache know.
pub use load_cache_dir as load_pass_cache_dir;
/// [`persist_cache`] under the name callers of the pass cache know.
pub use persist_cache as persist_pass_cache;

#[cfg(test)]
mod tests {
    use super::*;
    use mamps_sdf::graph::SdfGraphBuilder;
    use mamps_sdf::passes::PassEntry;
    use mamps_sdf::state_space::AnalysisOptions;
    use mamps_sdf::{GlobalAnalysisCache, PassCache};
    use serde::Value;

    fn populated_analysis() -> GlobalAnalysisCache {
        let cache = GlobalAnalysisCache::new();
        for n in 2..6u64 {
            let mut b = SdfGraphBuilder::new("g");
            let a = b.add_actor("a", n);
            let c = b.add_actor("b", 1);
            b.add_channel_with_tokens("e", a, 1, c, 1, 2);
            b.add_channel_with_tokens("r", c, 1, a, 1, 2);
            let g = b.build().unwrap();
            cache
                .throughput(&g, &AnalysisOptions::default())
                .expect("bounded two-actor ring analyses");
        }
        cache
    }

    fn populated_passes() -> PassCache {
        let passes = PassCache::new();
        passes.insert(
            "bind",
            7,
            Value::Seq(vec![Value::Int(1), Value::Str("x".into())]),
        );
        passes.insert(
            "buffer-size",
            9,
            Value::Map(vec![("Ok".into(), Value::Int(3))]),
        );
        passes.insert("verify-shared", 4, Value::Int(4));
        passes
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mamps-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn inode(path: &Path) -> u64 {
        fs::metadata(path).unwrap().ino()
    }

    /// What a rewrite of the file at `path` would change: its inode, its
    /// mtime and its bytes.
    fn stamp(path: &Path) -> (u64, std::time::SystemTime, Vec<u8>) {
        let meta = fs::metadata(path).unwrap();
        (
            meta.ino(),
            meta.modified().unwrap(),
            fs::read(path).unwrap(),
        )
    }

    /// The canonical file of `cache`: every entry rendered in key order.
    fn canonical<E: MemoEntry>(cache: &MemoStore<E>) -> Vec<u8> {
        let mut out = String::new();
        for entry in cache.export() {
            serde::json::emit(&entry.to_value(), &mut out);
            out.push('\n');
        }
        out.into_bytes()
    }

    /// `populated_passes` persisted to a fresh `dir` and loaded back into
    /// a new store, which then carries the file as its sync mark.
    fn loaded_passes(dir: &Path) -> (PassCache, PathBuf) {
        let path = persist_cache(&populated_passes(), dir, ShardSpec::full()).unwrap();
        let warm = PassCache::new();
        let load = load_cache_dir(&warm, dir).unwrap();
        assert_eq!((load.files, load.skipped_lines, load.dropped), (1, 0, 0));
        assert_eq!(warm.sync_mark().map(|m| m.path), Some(path.clone()));
        (warm, path)
    }

    /// The directory contract every entry type keeps: a persist → load →
    /// persist byte fixpoint that leaves the file in place, a grown store
    /// replacing the file, torn lines (non-UTF-8 ones too) skipped and
    /// counted and rewritten by the next persist, a missing directory
    /// loading as an empty cache, and shard files that do not collide.
    fn check_contract<E: MemoEntry + PartialEq + std::fmt::Debug>(
        cache: &MemoStore<E>,
        dir: &Path,
    ) {
        let n = cache.len();
        assert!(n >= 2, "the contract needs a cache of several entries");

        let roundtrip = dir.join("roundtrip");
        let path = persist_cache(cache, &roundtrip, ShardSpec::full()).unwrap();
        assert!(path.ends_with(format!("{}0-of-1.jsonl", E::PREFIX)));
        let canonical = fs::read(&path).unwrap();
        let written = inode(&path);
        let warm = MemoStore::<E>::new();
        let load = load_cache_dir(&warm, &roundtrip).unwrap();
        assert_eq!((load.files, load.imported, load.skipped_lines), (1, n, 0));
        assert_eq!(warm.export(), cache.export());
        let again = persist_cache(&warm, &roundtrip, ShardSpec::full()).unwrap();
        assert_eq!(again, path);
        assert_eq!(fs::read(&again).unwrap(), canonical);
        assert_eq!(inode(&again), written, "an unchanged store left the file");

        // A store that grew since the file was written replaces it.
        let grown = dir.join("grown");
        let partial = MemoStore::<E>::new();
        partial.import(cache.export().into_iter().skip(1));
        let path = persist_cache(&partial, &grown, ShardSpec::full()).unwrap();
        let written = inode(&path);
        persist_cache(cache, &grown, ShardSpec::full()).unwrap();
        assert_ne!(inode(&path), written, "a grown store replaces the file");
        assert_eq!(fs::read(&path).unwrap(), canonical);

        // Tear the last line mid-record, append garbage and a pass-cache
        // line cut inside a two-byte character, as a killed writer
        // (without the atomic rename) might have.
        let torn = dir.join("torn");
        let path = persist_cache(cache, &torn, ShardSpec::new(1, 4).unwrap()).unwrap();
        assert!(path.ends_with(format!("{}1-of-4.jsonl", E::PREFIX)));
        let text = fs::read_to_string(&path).unwrap();
        let mut bytes = format!("{}\nnot json\n", &text[..text.len() - 9]).into_bytes();
        bytes.extend_from_slice(b"{\"pass\":\"bind\",\"input\":1,\"output\":\"caf\xc3");
        fs::write(&path, bytes).unwrap();
        let load = load_cache_dir(&MemoStore::<E>::new(), &torn).unwrap();
        assert_eq!((load.imported, load.skipped_lines), (n - 1, 3));
        persist_cache(cache, &torn, ShardSpec::new(1, 4).unwrap()).unwrap();
        assert_eq!(fs::read(&path).unwrap(), canonical, "torn file rewritten");

        let missing = MemoStore::<E>::new();
        let load = load_cache_dir(&missing, &dir.join("missing")).unwrap();
        assert_eq!(load, CacheDirLoad::default());
        assert!(missing.is_empty());

        let shards = dir.join("shards");
        let a = persist_cache(cache, &shards, ShardSpec::new(0, 2).unwrap()).unwrap();
        let b = persist_cache(cache, &shards, ShardSpec::new(1, 2).unwrap()).unwrap();
        assert_ne!(a, b);
        let warm = MemoStore::<E>::new();
        let load = load_cache_dir(&warm, &shards).unwrap();
        // Same entries twice: the duplicates import as no-ops.
        assert_eq!((load.files, load.imported, warm.len()), (2, n, n));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn cache_dir_contract_holds_for_both_entry_types() {
        check_contract(&populated_analysis(), &tempdir("contract-analysis"));
        check_contract(&populated_passes(), &tempdir("contract-pass"));
    }

    #[test]
    fn a_loaded_unchanged_store_persists_without_touching_its_file() {
        let dir = tempdir("mark-unchanged");
        let (warm, path) = loaded_passes(&dir);
        let before = stamp(&path);
        assert_eq!(persist_cache(&warm, &dir, ShardSpec::full()).unwrap(), path);
        assert_eq!(stamp(&path), before, "the file was left as it was");
        // An import that adds no key leaves the mark in place.
        assert_eq!(warm.import(populated_passes().export()), 0);
        persist_cache(&warm, &dir, ShardSpec::full()).unwrap();
        assert_eq!(stamp(&path), before);
        // The mark names one file: any other target is still rendered,
        // and a stale file there is replaced.
        let other = dir.join("pass-cache-1-of-2.jsonl");
        fs::write(&other, "").unwrap();
        persist_cache(&warm, &dir, ShardSpec::new(1, 2).unwrap()).unwrap();
        assert_eq!(fs::read(&other).unwrap(), before.2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Loads `populated_passes` from its file, applies `change` to the
    /// store, and checks that the next persist replaces the file with the
    /// changed store's canonical bytes.
    fn rewritten_after_change(what: &str, change: impl FnOnce(&PassCache)) {
        let dir = tempdir("mark-changed");
        let (warm, path) = loaded_passes(&dir);
        let written = inode(&path);
        change(&warm);
        assert!(warm.sync_mark().is_none(), "{what} cleared the mark");
        persist_cache(&warm, &dir, ShardSpec::full()).unwrap();
        assert_ne!(inode(&path), written, "{what} replaced the file");
        assert_eq!(fs::read(&path).unwrap(), canonical(&warm), "{what}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_changed_store_rewrites_its_file() {
        rewritten_after_change("an insert", |c| c.insert("bind", 8, Value::Int(8)));
        rewritten_after_change("a replaced value", |c| c.insert("bind", 7, Value::Null));
        rewritten_after_change("a key-adding import", |c| {
            let entry = PassEntry {
                pass: "buffer-size".into(),
                input: 1,
                output: Value::Int(1),
            };
            assert_eq!(c.import([entry]), 1);
        });
    }

    /// Loads `populated_passes` from its file, applies `edit` to the file
    /// in place, and checks that the next persist of the unchanged store
    /// restores the canonical bytes.
    fn rewritten_after_edit(what: &str, edit: impl FnOnce(&Path)) {
        let dir = tempdir("mark-edited");
        let (warm, path) = loaded_passes(&dir);
        let (canonical, written) = (fs::read(&path).unwrap(), inode(&path));
        edit(&path);
        assert_eq!(inode(&path), written, "{what} kept the inode");
        persist_cache(&warm, &dir, ShardSpec::full()).unwrap();
        assert_eq!(fs::read(&path).unwrap(), canonical, "{what} rewritten");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_file_edited_behind_the_store_is_rewritten() {
        let open = |path: &Path| fs::OpenOptions::new().write(true).open(path).unwrap();
        rewritten_after_edit("an append", |path| {
            let mut file = fs::OpenOptions::new().append(true).open(path).unwrap();
            file.write_all(b"{\"pass\":\"bind\",\"input\":99,\"output\":1}\n")
                .unwrap();
        });
        rewritten_after_edit("a truncation", |path| {
            let len = fs::metadata(path).unwrap().len();
            open(path).set_len(len - 10).unwrap();
        });
        rewritten_after_edit("a same-length rewrite", |path| {
            // `"input":7` becomes `"input":6`, written in place, and the
            // mtime moves on even within one clock tick.
            let mut bytes = fs::read(path).unwrap();
            let at = bytes.windows(9).position(|w| w == b"\"input\":7").unwrap();
            bytes[at + 8] = b'6';
            let mut file = open(path);
            file.write_all(&bytes).unwrap();
            let meta = file.metadata().unwrap();
            assert_eq!(meta.len(), bytes.len() as u64);
            let mtime = meta.modified().unwrap();
            file.set_modified(mtime + std::time::Duration::from_secs(1))
                .unwrap();
        });
    }

    #[test]
    fn out_of_order_or_duplicated_lines_are_rewritten_in_key_order() {
        let cache = populated_passes();
        let canonical = canonical(&cache);
        let lines: Vec<&[u8]> = canonical.split_inclusive(|&b| b == b'\n').collect();
        let reversed: Vec<&[u8]> = lines.iter().rev().copied().collect();
        let duplicated: Vec<&[u8]> = [&lines[..], &lines[..1]].concat();
        for (what, file) in [("reversed", reversed), ("duplicated", duplicated)] {
            let dir = tempdir("mark-order");
            fs::create_dir_all(&dir).unwrap();
            let path = dir.join("pass-cache-0-of-1.jsonl");
            fs::write(&path, file.concat()).unwrap();
            let warm = PassCache::new();
            let load = load_cache_dir(&warm, &dir).unwrap();
            assert_eq!((load.imported, load.skipped_lines), (cache.len(), 0));
            assert!(warm.sync_mark().is_none(), "{what} lines set no mark");
            persist_cache(&warm, &dir, ShardSpec::full()).unwrap();
            assert_eq!(fs::read(&path).unwrap(), canonical, "{what} rewritten");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn two_shard_files_persist_their_union_to_the_stores_own_file() {
        let dir = tempdir("mark-shards");
        let cache = populated_passes();
        let entries = cache.export();
        for (i, part) in (0..).zip(entries.chunks(2)) {
            let shard = PassCache::new();
            shard.import(part.to_vec());
            persist_cache(&shard, &dir, ShardSpec::new(i, 2).unwrap()).unwrap();
        }
        let warm = PassCache::new();
        let load = load_cache_dir(&warm, &dir).unwrap();
        assert_eq!((load.files, load.imported), (2, cache.len()));
        assert!(warm.sync_mark().is_none(), "two files set no mark");
        let own = persist_cache(&warm, &dir, ShardSpec::full()).unwrap();
        assert_eq!(fs::read(&own).unwrap(), canonical(&cache));
        let first = persist_cache(&warm, &dir, ShardSpec::new(0, 2).unwrap()).unwrap();
        assert_eq!(fs::read(&first).unwrap(), canonical(&cache));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_hand_reformatted_line_stays_until_the_store_changes() {
        let dir = tempdir("mark-reformatted");
        let cache = populated_passes();
        let path = persist_cache(&cache, &dir, ShardSpec::full()).unwrap();
        let spaced = String::from_utf8(canonical(&cache))
            .unwrap()
            .replace('{', "{ ");
        fs::write(&path, &spaced).unwrap();
        let warm = PassCache::new();
        let load = load_cache_dir(&warm, &dir).unwrap();
        assert_eq!((load.imported, load.skipped_lines), (cache.len(), 0));
        let before = stamp(&path);
        persist_cache(&warm, &dir, ShardSpec::full()).unwrap();
        assert_eq!(stamp(&path), before, "a parsed line is not re-rendered");
        // Replacing a value with itself is still a change.
        warm.insert("verify-shared", 4, Value::Int(4));
        persist_cache(&warm, &dir, ShardSpec::full()).unwrap();
        assert_eq!(fs::read(&path).unwrap(), canonical(&cache));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_pass_entries_are_dropped_counted_and_persisted_away() {
        let dir = tempdir("dead");
        let (_, path) = loaded_passes(&dir);
        let canonical = fs::read(&path).unwrap();
        let mut file = fs::OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"pass\":\"schedule\",\"input\":5,\"output\":5}\n")
            .unwrap();
        let warm = PassCache::new();
        let load = load_cache_dir(&warm, &dir).unwrap();
        assert_eq!((load.imported, load.dropped, load.skipped_lines), (3, 1, 0));
        assert_eq!(
            load.to_string(),
            "3 entries from 1 file (1 dead entries dropped)"
        );
        assert!(warm.sync_mark().is_none(), "a dropped line sets no mark");
        persist_cache(&warm, &dir, ShardSpec::full()).unwrap();
        assert_eq!(
            fs::read(&path).unwrap(),
            canonical,
            "dead entry persisted away"
        );
        // The rewritten file loads whole, and stays.
        let again = PassCache::new();
        let load = load_cache_dir(&again, &dir).unwrap();
        assert_eq!((load.imported, load.dropped), (3, 0));
        let before = stamp(&path);
        persist_cache(&again, &dir, ShardSpec::full()).unwrap();
        assert_eq!(stamp(&path), before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn each_loader_reads_only_its_own_prefix() {
        let dir = tempdir("foreign");
        let (analysis, passes) = (populated_analysis(), populated_passes());
        persist_cache(&analysis, &dir, ShardSpec::full()).unwrap();
        persist_cache(&passes, &dir, ShardSpec::full()).unwrap();
        // A `dse --shard --out` file kept in the same directory.
        fs::write(
            dir.join("s0.jsonl"),
            "{\"Header\":{\"mode\":\"Binders\"}}\n{\"Record\":{\"seq\":0}}\n",
        )
        .unwrap();
        let load = load_cache_dir(&GlobalAnalysisCache::new(), &dir).unwrap();
        assert_eq!(
            (load.files, load.imported, load.skipped_lines),
            (1, analysis.len(), 0)
        );
        let load = load_cache_dir(&PassCache::new(), &dir).unwrap();
        assert_eq!(
            (load.files, load.imported, load.skipped_lines),
            (1, passes.len(), 0)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_persists_of_one_file_all_succeed() {
        let dir = tempdir("race");
        let cache = populated_passes();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..200 {
                        persist_cache(&cache, &dir, ShardSpec::full()).expect("persist succeeds");
                    }
                });
            }
        });
        let load = load_cache_dir(&PassCache::new(), &dir).unwrap();
        assert_eq!(
            (load.files, load.imported, load.skipped_lines),
            (1, cache.len(), 0)
        );
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "no temporary left");
        let _ = fs::remove_dir_all(&dir);
    }
}
