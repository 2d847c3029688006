//! Ablation: guaranteed throughput as a function of buffer capacity.
//!
//! SDF3's buffer distributions trade memory for throughput (paper §5.1).
//! This bench sweeps the capacity of a producer-consumer channel, printing
//! the throughput staircase, and times the demand-driven buffer-sizing
//! search on a multirate graph.

use criterion::{criterion_group, criterion_main, Criterion};

use mamps_bench::short_criterion;
use mamps_sdf::buffer::{minimal_live_capacities, size_for_throughput};
use mamps_sdf::graph::{SdfGraph, SdfGraphBuilder};
use mamps_sdf::ratio::Ratio;
use mamps_sdf::state_space::{throughput_bounded, AnalysisOptions};

fn producer_consumer() -> SdfGraph {
    let mut b = SdfGraphBuilder::new("pc");
    let p = b.add_actor("producer", 7);
    let c = b.add_actor("consumer", 5);
    b.add_channel("data", p, 2, c, 3);
    b.build().unwrap()
}

fn bench(c: &mut Criterion) {
    let g = producer_consumer();
    let opts = AnalysisOptions::default();

    println!("\nbuffer capacity vs guaranteed throughput (2->3 rates):");
    println!("{:<10} {:>16} {:>16}", "capacity", "it/cycle", "cycles/it");
    let min_caps = minimal_live_capacities(&g).unwrap();
    for extra in 0..6u64 {
        let caps = vec![min_caps[0] + extra];
        let t = throughput_bounded(&g, &caps, &opts).unwrap();
        println!(
            "{:<10} {:>16} {:>16.1}",
            caps[0],
            format!("{}", t.iterations_per_cycle),
            t.cycles_per_iteration()
        );
    }
    // Saturation: large buffers hit the producer bound — q = (3, 2), so
    // one iteration needs 3 producer firings of 7 cycles = 21 cycles.
    let saturated = throughput_bounded(&g, &[min_caps[0] + 32], &opts).unwrap();
    assert_eq!(saturated.iterations_per_cycle, Ratio::new(1, 21));

    c.bench_function("buffer/minimal_live_capacities", |b| {
        b.iter(|| std::hint::black_box(minimal_live_capacities(&g).unwrap()))
    });
    c.bench_function("buffer/size_for_target", |b| {
        b.iter(|| {
            std::hint::black_box(size_for_throughput(&g, Ratio::new(1, 21), &opts).unwrap().0)
        })
    });
}

criterion_group! {
    name = benches;
    config = short_criterion();
    targets = bench
}
criterion_main!(benches);
