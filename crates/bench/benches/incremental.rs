//! Pass-cache effectiveness: cold vs incremental use-case re-mapping
//! after a one-WCET edit.
//!
//! Maps the checked-in example use-case (the MJPEG decoder plus the small
//! pipeline, the corpus `scripts/incremental_equiv.sh` exercises) twice on
//! the 3-tile FSL platform: **cold** with fresh caches on the edited
//! inputs (what a from-scratch `mamps map-multi` pays), and
//! **incremental** with pass and analysis caches warmed by a prior run of
//! the *original* inputs, after editing one WCET of the pipeline
//! application (what `--cache-dir` delivers to a delta re-map). The edit
//! invalidates only the edited application's bind and buffer-size passes
//! and the combined verify-shared pass; the untouched MJPEG application's
//! bind and buffer-size — its dominant buffer-size search included —
//! replay from the cache. Wire-alloc and schedule are never memoized: they
//! cost less to rerun than to replay.
//!
//! Before timing, cold and incremental outcomes are asserted byte-equal
//! to a plain-flow reference on the edited inputs — a speedup that
//! changed results would be meaningless — and the incremental run must
//! come out at least 5x faster (best of three wall-clock runs, each from
//! a fresh copy of the warmed caches); CI's quick snapshot enforces the
//! trajectory on every push.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mamps_bench::short_criterion;
use mamps_mapping::flow::MapOptions;
use mamps_mapping::multi::{map_use_case, UseCase, UseCaseMapping};
use mamps_platform::arch::Architecture;
use mamps_platform::xml::architecture_from_xml;
use mamps_sdf::cache::GlobalAnalysisCache;
use mamps_sdf::passes::{PassCache, PassRunner};
use mamps_sdf::xml::application_from_xml;
use serde::Serialize as _;

/// The warmed caches of one prior run, snapshot so every timed
/// incremental run starts from exactly the post-original-run state
/// (instead of accumulating the edited inputs' entries across runs).
struct WarmState {
    passes: Vec<mamps_sdf::passes::PassEntry>,
    analyses: Vec<mamps_sdf::cache::CacheEntry>,
}

impl WarmState {
    fn thaw(&self) -> (MapOptions, Arc<PassCache>) {
        let pass_cache = Arc::new(PassCache::new());
        pass_cache.import(self.passes.iter().cloned());
        let analysis_cache = Arc::new(GlobalAnalysisCache::new());
        analysis_cache.import(self.analyses.iter().cloned());
        let opts = MapOptions {
            cache: Some(analysis_cache),
            passes: Some(Arc::new(PassRunner::with_cache(Arc::clone(&pass_cache)))),
            ..MapOptions::default()
        };
        (opts, pass_cache)
    }
}

fn use_case(pipeline_xml: &str) -> UseCase {
    let mjpeg = application_from_xml(include_str!("../../../examples/data/mjpeg_small_app.xml"))
        .expect("checked-in example application parses");
    let pipeline = application_from_xml(pipeline_xml).expect("edited pipeline parses");
    UseCase::new(vec![mjpeg, pipeline]).expect("use-case is well-formed")
}

/// Canonical bytes of a use-case outcome — equality down to serialization.
fn outcome_bytes(o: &UseCaseMapping) -> String {
    let mut out = String::new();
    for a in &o.admitted {
        out.push_str(&format!(
            "admitted {} group {} shared {}\n",
            a.name, a.group, a.shared_guarantee
        ));
        serde::json::emit(&a.mapped.mapping.to_value(), &mut out);
        out.push('\n');
    }
    for r in &o.rejected {
        out.push_str(&format!("rejected {}: {}\n", r.name, r.reason));
    }
    for g in &o.groups {
        serde::json::emit(&g.mapping.to_value(), &mut out);
        out.push('\n');
    }
    out
}

fn bench(c: &mut Criterion) {
    let original_xml = include_str!("../../../examples/data/pipeline_small_app.xml");
    // The one-WCET edit: the work actor's 700-cycle execution time and
    // WCET become 707 (the only two "700" strings). The edit keeps the
    // greedy binder's decreasing-work placement order stable, as a small
    // WCET refinement would.
    let edited_xml = original_xml.replace("\"700\"", "\"707\"");
    assert_ne!(
        original_xml, edited_xml,
        "the WCET edit must change the input"
    );
    let arch: Architecture =
        architecture_from_xml(include_str!("../../../examples/data/fsl_3tile_arch.xml"))
            .expect("checked-in example architecture parses");

    let original = use_case(original_xml);
    let edited = use_case(&edited_xml);

    // Plain-flow reference on the edited inputs.
    let reference = outcome_bytes(&map_use_case(&edited, &arch, &MapOptions::default()));

    // Warm the caches with one run of the original inputs, then snapshot.
    let warm = {
        let pass_cache = Arc::new(PassCache::new());
        let analysis_cache = Arc::new(GlobalAnalysisCache::new());
        let opts = MapOptions {
            cache: Some(Arc::clone(&analysis_cache)),
            passes: Some(Arc::new(PassRunner::with_cache(Arc::clone(&pass_cache)))),
            ..MapOptions::default()
        };
        map_use_case(&original, &arch, &opts);
        WarmState {
            passes: pass_cache.export(),
            analyses: analysis_cache.export(),
        }
    };

    // Equivalence first, then best-of-three wall clock per variant.
    let mut elapsed = [f64::INFINITY; 2]; // [cold, incremental]
    let mut last_stats = None;
    for _ in 0..3 {
        let fresh = MapOptions {
            cache: Some(Arc::new(GlobalAnalysisCache::new())),
            passes: Some(Arc::new(PassRunner::with_cache(Arc::new(PassCache::new())))),
            ..MapOptions::default()
        };
        let t0 = Instant::now();
        let cold = map_use_case(&edited, &arch, &fresh);
        elapsed[0] = elapsed[0].min(t0.elapsed().as_secs_f64());
        assert_eq!(outcome_bytes(&cold), reference, "cold run diverges");

        let (opts, pass_cache) = warm.thaw();
        let t0 = Instant::now();
        let incremental = map_use_case(&edited, &arch, &opts);
        elapsed[1] = elapsed[1].min(t0.elapsed().as_secs_f64());
        assert_eq!(
            outcome_bytes(&incremental),
            reference,
            "incremental run diverges"
        );
        last_stats = Some(pass_cache.stats());
    }
    println!(
        "\nuse-case re-map after one-WCET edit: cold {:.2}ms, incremental {:.2}ms ({:.1}x); pass cache {}",
        elapsed[0] * 1e3,
        elapsed[1] * 1e3,
        elapsed[0] / elapsed[1],
        last_stats.unwrap(),
    );
    assert!(
        elapsed[0] >= 5.0 * elapsed[1],
        "incremental re-map must be at least 5x faster than cold: cold {:.2}ms vs incremental {:.2}ms",
        elapsed[0] * 1e3,
        elapsed[1] * 1e3
    );

    let mut group = c.benchmark_group("incremental");
    group.bench_with_input(BenchmarkId::new("remap", "cold"), &(), |b, ()| {
        b.iter(|| {
            let fresh = MapOptions {
                cache: Some(Arc::new(GlobalAnalysisCache::new())),
                passes: Some(Arc::new(PassRunner::with_cache(Arc::new(PassCache::new())))),
                ..MapOptions::default()
            };
            std::hint::black_box(map_use_case(&edited, &arch, &fresh))
        })
    });
    group.bench_with_input(BenchmarkId::new("remap", "incremental"), &(), |b, ()| {
        b.iter(|| {
            let (opts, _) = warm.thaw();
            std::hint::black_box(map_use_case(&edited, &arch, &opts))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = short_criterion();
    targets = bench
}
criterion_main!(benches);
