//! Ablation: the optimized state-space throughput kernel vs the retained
//! naive reference implementation, and the whole analysis probe around it.
//!
//! The self-timed exploration is the innermost loop of the whole flow
//! (buffer sizing, mapping and DSE bottom out in it), so its cost is
//! tracked as a first-class artefact: this bench times the fast kernel and
//! `mamps_sdf::state_space::reference` on the paper's Fig. 2 graph and on
//! the MJPEG decoder's expanded analysis graph, prints the kernel rates in
//! graphs/second, and asserts both that the results are identical and that
//! the fast path wins on the MJPEG expanded graph.
//!
//! A probe of the mapping step also expands the mapping (Fig. 4) and
//! fingerprints the expansion for the analysis cache, and those set-up
//! stages cost as much as the kernel. Two more rows time one whole probe
//! on the MJPEG 3-tile mapping: `mjpeg_probe` on the mapping the flow
//! chose, and `mjpeg_probe_deadlock` on that mapping at its initial
//! buffer allocation, whose analysis stops at the liveness check like most
//! genetic-fitness probes.
//!
//! `scripts/bench_json.sh` runs this target with `MAMPS_BENCH_JSON` set
//! and assembles `BENCH_state_space.json`, the perf-trajectory snapshot
//! checked in at the repository root.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use mamps_bench::{mjpeg_expanded_graph, mjpeg_mapped, quick_mode, short_criterion};
use mamps_mapping::flow::MappedApplication;
use mamps_sdf::buffer::capacity_lower_bound;
use mamps_sdf::cache::GraphFingerprint;
use mamps_sdf::graph::{SdfGraph, SdfGraphBuilder};
use mamps_sdf::state_space::{reference, throughput, AnalysisOptions, ThroughputResult};
use mamps_sdf::SdfError;

/// Paper Fig. 2 with the execution times used throughout the test suite.
fn fig2() -> SdfGraph {
    let mut b = SdfGraphBuilder::new("fig2");
    let a = b.add_actor("A", 10);
    let bb = b.add_actor("B", 5);
    let c = b.add_actor("C", 7);
    b.add_channel("a2b", a, 2, bb, 1);
    b.add_channel("a2c", a, 1, c, 1);
    b.add_channel("b2c", bb, 1, c, 2);
    b.add_channel_with_tokens("selfA", a, 1, a, 1, 1);
    b.build().unwrap()
}

/// Median wall-clock of `runs` invocations of `f`, in seconds.
fn median_secs(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_unstable_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn bench(c: &mut Criterion) {
    let fig2 = fig2();
    let fig2_opts = AnalysisOptions::default();
    let (mjpeg, mjpeg_opts) = mjpeg_expanded_graph(3);

    // The fast kernel and the reference must agree exactly — the whole
    // point of the optimization is that results stay bit-identical.
    for (name, g, o) in [
        ("fig2", &fig2, &fig2_opts),
        ("mjpeg_expanded", &mjpeg, &mjpeg_opts),
    ] {
        let fast = throughput(g, o).unwrap();
        let slow = reference::throughput(g, o).unwrap();
        assert_eq!(fast, slow, "kernels disagree on {name}");
    }

    // Kernel rate comparison (graphs analysed per second, medians).
    let runs = if quick_mode() { 5 } else { 15 };
    println!("\nstate-space kernel: fast path vs naive reference");
    println!(
        "{:<16} {:<10} {:>12} {:>14}",
        "graph", "kernel", "median", "graphs/sec"
    );
    let mut medians = [[0.0f64; 2]; 2];
    for (gi, (name, g, o)) in [
        ("fig2", &fig2, &fig2_opts),
        ("mjpeg_expanded", &mjpeg, &mjpeg_opts),
    ]
    .into_iter()
    .enumerate()
    {
        for (ki, kernel) in ["fast", "naive"].into_iter().enumerate() {
            let m = if kernel == "fast" {
                median_secs(runs, || {
                    std::hint::black_box(throughput(g, o).unwrap());
                })
            } else {
                median_secs(runs, || {
                    std::hint::black_box(reference::throughput(g, o).unwrap());
                })
            };
            medians[gi][ki] = m;
            println!(
                "{:<16} {:<10} {:>10.1}µs {:>14.0}",
                name,
                kernel,
                m * 1e6,
                1.0 / m
            );
        }
    }
    let speedup = medians[1][1] / medians[1][0];
    println!("mjpeg_expanded speedup: {speedup:.2}x");
    assert!(
        medians[1][0] < medians[1][1],
        "fast kernel must beat the naive reference on the MJPEG expanded \
         graph (fast {:.1}µs vs naive {:.1}µs)",
        medians[1][0] * 1e6,
        medians[1][1] * 1e6
    );

    // Whole probes: expand, fingerprint, analyse. The deadlocking one
    // takes the flow's initial buffer allocation (two rate steps at each
    // end of a crossing channel, the isolated lower bound locally).
    let (app, arch, mapped) = mjpeg_mapped(3);
    let graph = app.graph();
    let mut initial = mapped.clone();
    for (alloc, (cid, ch)) in initial.mapping.channels.iter_mut().zip(graph.channels()) {
        alloc.alpha_src = ch.initial_tokens() + 2 * ch.production_rate();
        alloc.alpha_dst = 2 * ch.consumption_rate();
        alloc.local_capacity = capacity_lower_bound(graph, cid);
    }
    let probe = |m: &MappedApplication| -> (u64, Result<ThroughputResult, SdfError>) {
        let expanded = m.expanded(graph, &arch).unwrap();
        let fp = GraphFingerprint::of(&expanded).hash();
        (fp, throughput(&expanded, &mjpeg_opts))
    };
    assert_eq!(
        probe(&mapped).1.unwrap(),
        throughput(&mjpeg, &mjpeg_opts).unwrap()
    );
    match probe(&initial).1 {
        Err(SdfError::Deadlock(m)) if m.starts_with("no actor can fire") => {}
        other => panic!("the initial allocation must fail the liveness check: {other:?}"),
    }

    c.bench_function("state_space/mjpeg_probe", |b| {
        b.iter(|| std::hint::black_box(probe(&mapped)))
    });
    c.bench_function("state_space/mjpeg_probe_deadlock", |b| {
        b.iter(|| std::hint::black_box(probe(&initial)))
    });
    c.bench_function("state_space/fig2", |b| {
        b.iter(|| std::hint::black_box(throughput(&fig2, &fig2_opts).unwrap()))
    });
    c.bench_function("state_space/fig2_naive", |b| {
        b.iter(|| std::hint::black_box(reference::throughput(&fig2, &fig2_opts).unwrap()))
    });
    c.bench_function("state_space/mjpeg_expanded", |b| {
        b.iter(|| std::hint::black_box(throughput(&mjpeg, &mjpeg_opts).unwrap()))
    });
    c.bench_function("state_space/mjpeg_expanded_naive", |b| {
        b.iter(|| std::hint::black_box(reference::throughput(&mjpeg, &mjpeg_opts).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = short_criterion();
    targets = bench
}
criterion_main!(benches);
