//! Analysis-cache effectiveness: cold vs warm DSE sweep over the example
//! corpus.
//!
//! Runs the same single-application binder sweep (the checked-in MJPEG
//! example application, the corpus `scripts/smoke.sh` exercises) twice:
//! **cold** with a fresh [`GlobalAnalysisCache`] (what the first
//! `mamps dse` invocation of a directory sees) and **warm** with a cache
//! pre-populated by an identical prior sweep (what `--cache-dir` delivers
//! to every later invocation, and what resumed or repeated sweeps of one
//! process see). The design points re-probe the same expanded graphs, so
//! the warm sweep answers nearly every throughput analysis from the
//! cache and pays only expansion + fingerprinting.
//!
//! Before timing, the cold and warm reports are asserted equal — a
//! speedup that changed results would be meaningless — and the warm sweep
//! must come out at least 2x faster (best of three wall-clock runs); CI's
//! quick snapshot enforces the trajectory on every push.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mamps_bench::{quick_mode, short_criterion};
use mamps_core::dse::{explore_report, DseReport};
use mamps_core::flow::FlowOptions;
use mamps_mapping::Binder;
use mamps_sdf::cache::GlobalAnalysisCache;
use mamps_sdf::model::ApplicationModel;
use mamps_sdf::xml::application_from_xml;

/// The MJPEG example application (15 actors): per-design-point analyses
/// are real state-space explorations, so the sweep's cost sits where the
/// cache can elide it.
fn sweep_app() -> ApplicationModel {
    application_from_xml(include_str!("../../../examples/data/mjpeg_small_app.xml"))
        .expect("checked-in example application parses")
}

fn sweep_opts(cache: &Arc<GlobalAnalysisCache>) -> FlowOptions {
    let mut opts = FlowOptions {
        binders: vec![Binder::Greedy, Binder::Spiral],
        ..FlowOptions::default()
    };
    opts.map.cache = Some(Arc::clone(cache));
    opts
}

fn sweep(app: &ApplicationModel, tiles: &[usize], cache: &Arc<GlobalAnalysisCache>) -> DseReport {
    explore_report(app, tiles, true, &sweep_opts(cache))
}

fn bench(c: &mut Criterion) {
    let app = sweep_app();
    let tiles: Vec<usize> = if quick_mode() {
        (1..=3).collect()
    } else {
        (1..=4).collect()
    };

    // The warm cache: one full sweep's analyses.
    let warm_cache = Arc::new(GlobalAnalysisCache::new());
    let reference = sweep(&app, &tiles, &warm_cache);

    // Equivalence first, then best-of-three wall clock per variant.
    let mut elapsed = [f64::INFINITY; 2]; // [cold, warm]
    for _ in 0..3 {
        let t0 = Instant::now();
        let cold_report = sweep(&app, &tiles, &Arc::new(GlobalAnalysisCache::new()));
        elapsed[0] = elapsed[0].min(t0.elapsed().as_secs_f64());
        assert_eq!(cold_report, reference, "cold sweep diverges");

        let t0 = Instant::now();
        let warm_report = sweep(&app, &tiles, &warm_cache);
        elapsed[1] = elapsed[1].min(t0.elapsed().as_secs_f64());
        assert_eq!(warm_report, reference, "warm sweep diverges");
    }
    let stats = warm_cache.stats();
    println!(
        "\ndse sweep over {} tile counts: cold {:.2}ms, warm {:.2}ms ({:.1}x); cache {stats}",
        tiles.len(),
        elapsed[0] * 1e3,
        elapsed[1] * 1e3,
        elapsed[0] / elapsed[1]
    );
    assert!(
        elapsed[0] >= 2.0 * elapsed[1],
        "warm sweep must be at least 2x faster than cold: cold {:.2}ms vs warm {:.2}ms",
        elapsed[0] * 1e3,
        elapsed[1] * 1e3
    );

    let mut group = c.benchmark_group("dse_cache");
    group.bench_with_input(BenchmarkId::new("sweep", "cold"), &(), |b, ()| {
        b.iter(|| std::hint::black_box(sweep(&app, &tiles, &Arc::new(GlobalAnalysisCache::new()))))
    });
    group.bench_with_input(BenchmarkId::new("sweep", "warm"), &(), |b, ()| {
        b.iter(|| std::hint::black_box(sweep(&app, &tiles, &warm_cache)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = short_criterion();
    targets = bench
}
criterion_main!(benches);
