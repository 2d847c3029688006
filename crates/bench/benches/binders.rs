//! Binding-strategy comparison on the MJPEG decoder (4-tile mesh NoC):
//! wall-time of the full mapping step per binder, next to the guaranteed
//! throughput and NoC wire-links each one achieves.
//!
//! The artefact table is printed before the timing runs; the timed
//! benchmarks (`binders/greedy`, `binders/spiral`, `binders/genetic`)
//! measure `map_application` end-to-end with the respective strategy, so
//! the cost of the GA's analysis-in-the-loop fitness shows up honestly.
//!
//! `scripts/bench_json.sh binders` runs this target with
//! `MAMPS_BENCH_JSON` set and assembles `BENCH_binders.json`, the same
//! perf-trajectory path the state-space kernel bench uses.

use criterion::{criterion_group, criterion_main, Criterion};

use mamps_bench::{bench_stream_config, short_criterion};
use mamps_mapping::flow::{map_application, MapOptions};
use mamps_mapping::Binder;
use mamps_platform::arch::Architecture;
use mamps_platform::interconnect::Interconnect;

fn arch() -> Architecture {
    Architecture::homogeneous("bench", 4, Interconnect::noc_for_tiles(4)).unwrap()
}

fn bench(c: &mut Criterion) {
    let cfg = bench_stream_config();
    let app = mamps_mjpeg::app_model::mjpeg_application(&cfg, None).unwrap();

    // Artefact: achieved guaranteed throughput and allocated wire-links
    // per strategy. Every strategy must produce a verified mapping.
    println!("\nbinding strategies on the MJPEG decoder, 4-tile NoC");
    println!("{:<10} {:>16} {:>7}", "binder", "it/cycle", "wires");
    for binder in Binder::ALL {
        let name = binder.name();
        let a = arch();
        let opts = MapOptions::with_strategy(binder);
        let mapped = map_application(&app, &a, &opts).unwrap();
        assert!(
            mapped.analysis.as_f64() > 0.0,
            "{name} produced a zero-throughput mapping"
        );
        println!(
            "{:<10} {:>16.3e} {:>7}",
            name,
            mapped.analysis.as_f64(),
            mapped.mapping.noc_wire_units(app.graph(), &a)
        );
    }

    for binder in Binder::ALL {
        let a = arch();
        let opts = MapOptions::with_strategy(binder);
        c.bench_function(&format!("binders/{}", binder.name()), |b| {
            b.iter(|| std::hint::black_box(map_application(&app, &a, &opts).unwrap()))
        });
    }
}

criterion_group! {
    name = benches;
    config = short_criterion();
    targets = bench
}
criterion_main!(benches);
