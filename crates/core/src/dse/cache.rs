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
//! * **Unchanged files stay.** A persist whose rendered bytes equal the
//!   file already in place writes nothing, so a warm run that added no
//!   entry leaves its files (and their inodes) as they were. Next to
//!   concurrent writers this is safe: files are only ever replaced whole
//!   by a rename, never written in place, so the compared file is one
//!   writer's complete output, and finding it equal is the same outcome
//!   as writing it and having the rename land just before that writer's.

use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use mamps_sdf::memo::{MemoEntry, MemoStore};

use crate::dse::shard::ShardSpec;

/// What loading a cache directory found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheDirLoad {
    /// `*.jsonl` files read.
    pub files: usize,
    /// Entries imported into the in-memory cache (first occurrence of
    /// each key wins; later duplicates are not counted).
    pub imported: usize,
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
        if self.skipped_lines > 0 {
            write!(f, " ({} unparseable lines skipped)", self.skipped_lines)?;
        }
        Ok(())
    }
}

/// Loads every `<E::PREFIX>*.jsonl` file of `dir` into `cache`. A missing
/// directory is an empty cache, not an error (the run will create it on
/// persist). Files are visited in name order, so which duplicate of a key
/// wins is deterministic.
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
    for path in files {
        // Bytes, not a string: a line cut inside a multi-byte character
        // is one more torn line, not an error for the whole file.
        let bytes = fs::read(&path)?;
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
                Ok(e) => parsed.push(e),
                Err(_) => load.skipped_lines += 1,
            }
        }
        load.imported += cache.import(parsed);
        load.files += 1;
    }
    Ok(load)
}

/// Persists `cache` to its shard-owned `<E::PREFIX><i>-of-<n>.jsonl` file
/// in `dir` (creating the directory if needed) and returns the file's
/// path. When the file already holds exactly the rendered bytes it is
/// left in place. Otherwise it is replaced atomically (write to a
/// temporary name unique to this writer — process id plus a process-wide
/// counter — then rename), so concurrent loaders see either the old or
/// the new cache, never a torn one, and concurrent persists of one file
/// all succeed.
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
    fs::create_dir_all(dir)?;
    let name = format!("{}{}-of-{}.jsonl", E::PREFIX, spec.index, spec.count);
    let mut out = String::new();
    for entry in cache.export() {
        serde::json::emit(&entry.to_value(), &mut out);
        out.push('\n');
    }
    let path = dir.join(&name);
    if holds(&path, out.as_bytes()) {
        return Ok(path);
    }
    let writer = WRITES.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{name}.{}-{writer}.tmp", std::process::id()));
    let written = fs::write(&tmp, out).and_then(|()| fs::rename(&tmp, &path));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written.map(|()| path)
}

/// Whether the file at `path` holds exactly `bytes`: the length first,
/// then fixed-size chunks, so no second copy of the file is held. A file
/// that cannot be opened or read counts as different.
fn holds(path: &Path, bytes: &[u8]) -> bool {
    let Ok(mut file) = fs::File::open(path) else {
        return false;
    };
    match file.metadata() {
        Ok(meta) if meta.len() == bytes.len() as u64 => {}
        _ => return false,
    }
    let mut chunk = [0u8; 8 * 1024];
    bytes.chunks(chunk.len()).all(|expected| {
        let got = &mut chunk[..expected.len()];
        file.read_exact(got).is_ok() && got == expected
    })
}

/// [`load_cache_dir`] under the name callers of the pass cache know.
pub use load_cache_dir as load_pass_cache_dir;
/// [`persist_cache`] under the name callers of the pass cache know.
pub use persist_cache as persist_pass_cache;

#[cfg(test)]
mod tests {
    use super::*;
    use mamps_sdf::graph::SdfGraphBuilder;
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
        passes.insert("schedule", 4, Value::Int(4));
        passes
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mamps-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn inode(path: &Path) -> u64 {
        use std::os::unix::fs::MetadataExt;
        fs::metadata(path).unwrap().ino()
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
