//! Cache files of warm sweeps across processes and shards.
//!
//! A [`MemoStore`] (the analysis cache or the pass cache) memoizes within
//! one process and persists itself to JSONL files; its module docs
//! (`mamps_sdf::memo`) own the file format and the rule for when a
//! persist writes. This module names those files under a directory
//! (`mamps dse --cache-dir DIR`), so the next run — the same process
//! re-invoked, or the *other shards* of a split sweep — starts warm.
//!
//! Each run writes `<PREFIX><index>-of-<count>.jsonl` for its own
//! [`ShardSpec`] (`analysis-cache-` or `pass-cache-`, per
//! [`MemoEntry::PREFIX`]), so concurrent shard processes sharing one
//! `--cache-dir` never write the same file. On startup each loader reads
//! every `<PREFIX>*.jsonl` of its own entry type, whichever shard produced
//! it, and ignores every other file in the directory.

use std::io;
use std::path::{Path, PathBuf};

pub use mamps_sdf::memo::CacheDirLoad;
use mamps_sdf::memo::{MemoEntry, MemoStore};

use crate::dse::shard::ShardSpec;

/// Loads every `<E::PREFIX>*.jsonl` file of `dir` into `cache`.
///
/// # Errors
///
/// As [`MemoStore::load_dir`].
pub fn load_cache_dir<E: MemoEntry>(cache: &MemoStore<E>, dir: &Path) -> io::Result<CacheDirLoad> {
    cache.load_dir(dir)
}

/// Persists `cache` to its shard-owned `<E::PREFIX><i>-of-<n>.jsonl` file
/// in `dir` and returns the file's path.
///
/// # Errors
///
/// As [`MemoStore::persist`].
pub fn persist_cache<E: MemoEntry>(
    cache: &MemoStore<E>,
    dir: &Path,
    spec: ShardSpec,
) -> io::Result<PathBuf> {
    let path = dir.join(format!(
        "{}{}-of-{}.jsonl",
        E::PREFIX,
        spec.index,
        spec.count
    ));
    cache.persist(&path)?;
    Ok(path)
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
    use std::fs;
    use std::io::Write;
    use std::os::unix::fs::MetadataExt;

    fn populated_analysis() -> GlobalAnalysisCache {
        let cache = GlobalAnalysisCache::new();
        analyse_rings(&cache);
        cache
    }

    /// Analyses four two-actor rings through `cache`.
    fn analyse_rings(cache: &GlobalAnalysisCache) {
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
    /// a new store, which is then known to equal the file: persisting it
    /// leaves the file as it was.
    fn loaded_passes(dir: &Path) -> (PassCache, PathBuf) {
        let path = persist_cache(&populated_passes(), dir, ShardSpec::full()).unwrap();
        let warm = PassCache::new();
        let load = load_cache_dir(&warm, dir).unwrap();
        assert_eq!((load.files, load.skipped_lines, load.dropped), (1, 0, 0));
        let before = stamp(&path);
        persist_cache(&warm, dir, ShardSpec::full()).unwrap();
        assert_eq!(stamp(&path), before, "the loaded store equals its file");
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
        let own = persist_cache(&warm, &dir, ShardSpec::full()).unwrap();
        assert_eq!(fs::read(&own).unwrap(), canonical(&cache));
        let first = persist_cache(&warm, &dir, ShardSpec::new(0, 2).unwrap()).unwrap();
        assert_eq!(fs::read(&first).unwrap(), canonical(&cache));
        // A store loaded from several files is known to equal none of
        // them, so it rewrites its own file even when that holds its bytes.
        let again = PassCache::new();
        load_cache_dir(&again, &dir).unwrap();
        let written = inode(&first);
        persist_cache(&again, &dir, ShardSpec::new(0, 2).unwrap()).unwrap();
        assert_ne!(inode(&first), written, "several files set no mark");
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

    /// `populated_analysis` persisted to a fresh `dir` and attached to a new
    /// store, which leaves the file (inode, mtime and bytes) as it was.
    fn attached_analysis(dir: &Path) -> (GlobalAnalysisCache, PathBuf) {
        let path = persist_cache(&populated_analysis(), dir, ShardSpec::full()).unwrap();
        let warm = GlobalAnalysisCache::new();
        let load = load_cache_dir(&warm, dir).unwrap();
        assert!(load.attached, "{load}");
        assert_eq!((load.files, load.imported, load.skipped_lines), (1, 4, 0));
        let before = stamp(&path);
        persist_cache(&warm, dir, ShardSpec::full()).unwrap();
        assert_eq!(stamp(&path), before, "an untouched attached store");
        (warm, path)
    }

    #[test]
    fn an_attached_analysis_cache_answers_like_an_eager_one_and_keeps_its_mark() {
        let dir = tempdir("attach-lookup");
        let (attached, path) = attached_analysis(&dir);
        // The same file as two shards' files loads eagerly.
        let shards = dir.join("shards");
        fs::create_dir_all(&shards).unwrap();
        for i in 0..2 {
            fs::copy(&path, shards.join(format!("analysis-cache-{i}-of-2.jsonl"))).unwrap();
        }
        let eager = GlobalAnalysisCache::new();
        let load = load_cache_dir(&eager, &shards).unwrap();
        assert_eq!((load.files, load.imported, load.attached), (2, 4, false));
        // The analyses of `populated_analysis` again: every one is a hit.
        analyse_rings(&attached);
        analyse_rings(&eager);
        assert_eq!(attached.stats(), eager.stats());
        assert_eq!(attached.stats().hits, 4);
        assert_eq!(attached.export(), eager.export());
        let before = stamp(&path);
        persist_cache(&attached, &dir, ShardSpec::full()).unwrap();
        assert_eq!(stamp(&path), before, "a looked-up store kept its mark");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_attached_store_persisted_to_another_shard_renders_its_entries() {
        let dir = tempdir("attach-other");
        let (warm, path) = attached_analysis(&dir);
        let before = stamp(&path);
        let other = persist_cache(&warm, &dir, ShardSpec::new(1, 2).unwrap()).unwrap();
        assert_eq!(fs::read(&other).unwrap(), before.2);
        assert_eq!(stamp(&path), before, "the attached file stays");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Attaches `populated_analysis` from its file, applies `edit` to the
    /// file, and checks that the next persist of the untouched store
    /// restores the bytes it attached.
    fn restored_after_edit(what: &str, edit: impl FnOnce(&Path)) {
        let dir = tempdir("attach-edited");
        let (warm, path) = attached_analysis(&dir);
        let attached = fs::read(&path).unwrap();
        edit(&path);
        persist_cache(&warm, &dir, ShardSpec::full()).unwrap();
        assert_eq!(fs::read(&path).unwrap(), attached, "{what} restored");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_attached_file_edited_or_deleted_behind_the_store_is_restored() {
        use std::os::unix::fs::FileExt;
        let open = |path: &Path| fs::OpenOptions::new().append(true).open(path).unwrap();
        restored_after_edit("an append", |path| open(path).write_all(b"{}\n").unwrap());
        restored_after_edit("a truncation", |path| open(path).set_len(10).unwrap());
        restored_after_edit("a same-length rewrite", |path| {
            // A digit of the first graph fingerprint, and a later mtime.
            let digit = fs::read(path).unwrap()[10] ^ 1;
            let file = fs::OpenOptions::new().write(true).open(path).unwrap();
            file.write_all_at(&[digit], 10).unwrap();
            let later = std::time::SystemTime::now() + std::time::Duration::from_secs(1);
            file.set_modified(later).unwrap();
        });
        restored_after_edit("a deletion", |path| fs::remove_file(path).unwrap());
    }

    #[test]
    fn a_torn_non_utf8_or_non_json_analysis_file_loads_eagerly_and_is_rewritten() {
        let full = canonical(&populated_analysis());
        for (what, file, imported) in [
            ("a torn tail", full[..full.len() - 9].to_vec(), 3),
            (
                "a non-UTF-8 line",
                [&full[..], b"{\"graph\":\xff}\n"].concat(),
                4,
            ),
            ("a `not json` line", [&full[..], b"not json\n"].concat(), 4),
        ] {
            let dir = tempdir("attach-refused");
            fs::create_dir_all(&dir).unwrap();
            let path = dir.join("analysis-cache-0-of-1.jsonl");
            fs::write(&path, file).unwrap();
            let warm = GlobalAnalysisCache::new();
            let load = load_cache_dir(&warm, &dir).unwrap();
            assert!(!load.attached, "{what}");
            assert_eq!((load.imported, load.skipped_lines), (imported, 1), "{what}");
            persist_cache(&warm, &dir, ShardSpec::full()).unwrap();
            assert_eq!(fs::read(&path).unwrap(), canonical(&warm), "{what}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_duplicated_or_unparseable_line_stays_until_the_attached_store_is_touched() {
        let cache = populated_analysis();
        let canonical = canonical(&cache);
        let first = canonical.split_inclusive(|&b| b == b'\n').next().unwrap();
        for (what, line) in [
            ("a duplicated line", first),
            ("a `{…}` line that does not parse", b"{\"graph\":1}\n"),
        ] {
            let dir = tempdir("attach-relaxed");
            let path = persist_cache(&cache, &dir, ShardSpec::full()).unwrap();
            fs::write(&path, [&canonical[..], line].concat()).unwrap();
            let warm = GlobalAnalysisCache::new();
            let load = load_cache_dir(&warm, &dir).unwrap();
            assert_eq!((load.imported, load.attached), (5, true), "{what}");
            let before = stamp(&path);
            persist_cache(&warm, &dir, ShardSpec::full()).unwrap();
            assert_eq!(stamp(&path), before, "an untouched store keeps {what}");
            // Touched, the store parses the line and drops its mark.
            assert_eq!(warm.len(), 4);
            persist_cache(&warm, &dir, ShardSpec::full()).unwrap();
            assert_eq!(fs::read(&path).unwrap(), canonical, "{what} rewritten");
            let _ = fs::remove_dir_all(&dir);
        }
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
