//! The pass pipeline's memoization contract, end to end:
//!
//! * property test — on arbitrary generated applications and platforms,
//!   the pass-driven flow produces exactly the same mapping with and
//!   without a pass runner/cache attached (the runner memoizes, never
//!   changes results), down to canonical serialized bytes;
//! * property test — cold vs warm vs incremental (mutate one WCET and
//!   re-run against the warm cache) use-case mappings are byte-identical
//!   to fresh cold runs of the same inputs;
//! * regression — the pass cache survives its on-disk JSONL round trip
//!   and a warm process replays every memoized flow pass from it.

use std::sync::Arc;

use proptest::prelude::*;

use mamps::flow::dse::cache as dse_cache;
use mamps::flow::dse::shard::ShardSpec;
use mamps::mapping::flow::{map_application, MapOptions};
use mamps::mapping::multi::{map_use_case, UseCase, UseCaseMapping};
use mamps::mapping::{PassCache, PassRunner};
use mamps::platform::arch::Architecture;
use mamps::platform::interconnect::Interconnect;
use mamps::sdf::gen::pipeline_app;
use mamps::sdf::GlobalAnalysisCache;
use serde::Serialize as _;

/// Canonical bytes of a mapping — what "byte-identical" means below.
fn mapping_bytes(m: &mamps::mapping::Mapping) -> String {
    let mut out = String::new();
    serde::json::emit(&m.to_value(), &mut out);
    out
}

fn cached_opts() -> (MapOptions, Arc<PassCache>) {
    let pass_cache = Arc::new(PassCache::new());
    let opts = MapOptions {
        cache: Some(Arc::new(GlobalAnalysisCache::new())),
        passes: Some(Arc::new(PassRunner::with_cache(Arc::clone(&pass_cache)))),
        ..MapOptions::default()
    };
    (opts, pass_cache)
}

/// The observable outcome of a use-case mapping, canonically serialized.
fn outcome_bytes(o: &UseCaseMapping) -> String {
    let mut out = String::new();
    for a in &o.admitted {
        out.push_str(&format!(
            "admitted {} group {} shared {}\n",
            a.name, a.group, a.shared_guarantee
        ));
        out.push_str(&mapping_bytes(&a.mapped.mapping));
        out.push('\n');
    }
    for r in &o.rejected {
        out.push_str(&format!("rejected {}: {}\n", r.name, r.reason));
    }
    for g in &o.groups {
        out.push_str(&mapping_bytes(&g.mapping));
        out.push('\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The pass pipeline is observation-equivalent to the plain flow: a
    /// runner (with both caches attached) produces byte-identical
    /// mappings, cold and warm.
    #[test]
    fn pass_pipeline_matches_plain_flow(
        wcets in proptest::collection::vec(20u64..150, 2..5),
        tiles in 1usize..4,
        noc in any::<bool>(),
    ) {
        let app = pipeline_app("p", &wcets, 16, &[1], None);
        let interconnect = if noc {
            Interconnect::noc_for_tiles(tiles)
        } else {
            Interconnect::fsl()
        };
        let arch = Architecture::homogeneous("x", tiles, interconnect).unwrap();

        let plain = map_application(&app, &arch, &MapOptions::default()).unwrap();
        let (opts, pass_cache) = cached_opts();
        let cold = map_application(&app, &arch, &opts).unwrap();
        let warm = map_application(&app, &arch, &opts).unwrap();

        prop_assert_eq!(mapping_bytes(&plain.mapping), mapping_bytes(&cold.mapping));
        prop_assert_eq!(mapping_bytes(&cold.mapping), mapping_bytes(&warm.mapping));
        prop_assert_eq!(plain.analysis, cold.analysis.clone());
        prop_assert_eq!(cold.analysis, warm.analysis);
        // The warm run replayed both memoized passes (bind, buffer-size)
        // from the cache rather than recomputing them.
        prop_assert_eq!(pass_cache.stats().hits, 2, "{}", pass_cache.stats());
    }

    /// Cold vs warm vs incremental use-case mapping: re-running with an
    /// unchanged input replays everything; mutating one WCET and
    /// re-running against the warm cache still produces exactly the
    /// bytes a fresh cold run of the edited input produces.
    #[test]
    fn incremental_use_case_is_byte_identical(
        wcets_a in proptest::collection::vec(20u64..150, 2..4),
        wcets_b in proptest::collection::vec(20u64..150, 2..4),
        edit in 0usize..4,
        tiles in 2usize..4,
    ) {
        let apps = |wb: &[u64]| vec![
            pipeline_app("first", &wcets_a, 16, &[1], None),
            pipeline_app("second", wb, 16, &[1], None),
        ];
        let arch = Architecture::homogeneous("x", tiles, Interconnect::fsl()).unwrap();

        // Cold run of the original inputs populates the caches.
        let (opts, _pass_cache) = cached_opts();
        let uc = UseCase::new(apps(&wcets_b)).unwrap();
        let cold = map_use_case(&uc, &arch, &opts);

        // Warm re-run of identical inputs: byte-identical.
        let warm = map_use_case(&uc, &arch, &opts);
        prop_assert_eq!(outcome_bytes(&cold), outcome_bytes(&warm));

        // Mutate one WCET of the second application and re-run against
        // the warm caches (the incremental run) and from scratch (the
        // reference): byte-identical too.
        let mut edited = wcets_b.clone();
        let i = edit % edited.len();
        edited[i] += 7;
        let uc_edit = UseCase::new(apps(&edited)).unwrap();
        let incremental = map_use_case(&uc_edit, &arch, &opts);
        let reference = map_use_case(&uc_edit, &arch, &MapOptions::default());
        prop_assert_eq!(outcome_bytes(&reference), outcome_bytes(&incremental));
    }
}

/// The on-disk JSONL pass cache makes a *new process* incremental: a
/// fresh cache warmed from the persisted files replays every memoized
/// pass (`bind`, `buffer-size`) and reruns the cheap `wire-alloc` and
/// `schedule`.
#[test]
fn persisted_pass_cache_replays_across_processes() {
    let dir = std::env::temp_dir().join(format!("mamps-passes-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let app = pipeline_app("p", &[40, 90, 40], 16, &[1], None);
    let arch = Architecture::homogeneous("x", 3, Interconnect::noc_for_tiles(3)).unwrap();

    // "Process 1": cold run, persist both cache layers.
    let (opts, pass_cache) = cached_opts();
    let cold = map_application(&app, &arch, &opts).unwrap();
    dse_cache::persist_cache(&pass_cache, &dir, ShardSpec::full()).unwrap();
    dse_cache::persist_cache(opts.cache.as_ref().unwrap(), &dir, ShardSpec::full()).unwrap();

    // "Process 2": fresh in-memory state warmed only from disk.
    let warm_cache = Arc::new(PassCache::new());
    let load = dse_cache::load_cache_dir(&warm_cache, &dir).unwrap();
    assert_eq!(load.skipped_lines, 0);
    assert_eq!(load.imported, pass_cache.len());
    let runner = Arc::new(PassRunner::with_cache(Arc::clone(&warm_cache)));
    let opts2 = MapOptions {
        passes: Some(Arc::clone(&runner)),
        ..MapOptions::default()
    };
    let warm = map_application(&app, &arch, &opts2).unwrap();

    assert_eq!(mapping_bytes(&cold.mapping), mapping_bytes(&warm.mapping));
    assert_eq!(cold.analysis, warm.analysis);
    let report = runner.report();
    for (name, hits) in [
        ("bind", 1),
        ("wire-alloc", 0),
        ("schedule", 0),
        ("buffer-size", 1),
    ] {
        let p = report.get(name).unwrap();
        assert_eq!((p.runs, p.hits), (1 - hits, hits), "pass {name}: {p:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
