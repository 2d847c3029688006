//! Ablation: guaranteed throughput as a function of buffer capacity.
//!
//! SDF3's buffer distributions trade memory for throughput (paper §5.1).
//! This bench sweeps the capacity of a producer-consumer channel upward
//! from its isolated lower bound, printing the throughput staircase, and
//! times one analysis of the capacity-bounded graph.

use criterion::{criterion_group, criterion_main, Criterion};

use mamps_bench::short_criterion;
use mamps_sdf::buffer::capacity_lower_bound;
use mamps_sdf::graph::{ChannelId, SdfGraph, SdfGraphBuilder};
use mamps_sdf::ratio::Ratio;
use mamps_sdf::state_space::{throughput, AnalysisOptions, ThroughputResult};
use mamps_sdf::transform::with_buffer_capacities;

fn producer_consumer() -> SdfGraph {
    let mut b = SdfGraphBuilder::new("pc");
    let p = b.add_actor("producer", 7);
    let c = b.add_actor("consumer", 5);
    b.add_channel("data", p, 2, c, 3);
    b.build().unwrap()
}

/// The throughput of `g` with its one channel bounded to `cap` tokens.
fn bounded(g: &SdfGraph, cap: u64, opts: &AnalysisOptions) -> ThroughputResult {
    throughput(&with_buffer_capacities(g, &[cap]).unwrap(), opts).unwrap()
}

fn bench(c: &mut Criterion) {
    let g = producer_consumer();
    let opts = AnalysisOptions::default();

    println!("\nbuffer capacity vs guaranteed throughput (2->3 rates):");
    println!("{:<10} {:>16} {:>16}", "capacity", "it/cycle", "cycles/it");
    let lower = capacity_lower_bound(&g, ChannelId(0));
    for cap in lower..lower + 6 {
        let t = bounded(&g, cap, &opts);
        println!(
            "{:<10} {:>16} {:>16.1}",
            cap,
            format!("{}", t.iterations_per_cycle),
            t.cycles_per_iteration()
        );
    }
    // Saturation: large buffers hit the producer bound — q = (3, 2), so
    // one iteration needs 3 producer firings of 7 cycles = 21 cycles.
    let saturated = bounded(&g, lower + 32, &opts);
    assert_eq!(saturated.iterations_per_cycle, Ratio::new(1, 21));

    c.bench_function("buffer/bounded_analysis", |b| {
        b.iter(|| std::hint::black_box(bounded(&g, lower, &opts)))
    });
}

criterion_group! {
    name = benches;
    config = short_criterion();
    targets = bench
}
criterion_main!(benches);
