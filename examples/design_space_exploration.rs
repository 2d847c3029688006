//! Fast design-space exploration with the automated flow (paper §7).
//!
//! Sweeps tile counts × interconnects × binding strategies for the MJPEG
//! decoder, printing every feasible design point (guaranteed throughput,
//! platform area, allocated NoC wire-links) with its Pareto front — the
//! "very fast design space exploration" the paper's conclusion highlights,
//! made possible because one flow run takes milliseconds instead of days.
//! The strategy column shows where a non-greedy binder matches or beats
//! the default heuristic.
//!
//! Run with: `cargo run --release --example design_space_exploration`

use mamps::flow::dse::explore_report;
use mamps::flow::report::render_dse_report;
use mamps::flow::FlowOptions;
use mamps::mapping::Binder;
use mamps::mjpeg::app_model::mjpeg_application;
use mamps::mjpeg::encoder::StreamConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = StreamConfig::small();
    let app = mjpeg_application(&cfg, None)?;

    // Sweep every binder over 1..=5 tiles, both interconnects, with one
    // worker per core.
    let opts = FlowOptions {
        binders: Binder::ALL.to_vec(),
        jobs: mamps::flow::parallel::default_jobs(),
        ..FlowOptions::default()
    };
    let report = explore_report(&app, &[1, 2, 3, 4, 5], true, &opts);
    println!("--- design points, all binders (Pareto front marked *) ---");
    println!("{}", render_dse_report(&report));

    let best = &report.points[0];
    println!(
        "best throughput: {} binder, {} tiles over {} at {:.3e} iterations/cycle ({:.0} cycles/MCU)",
        best.strategy,
        best.tiles,
        best.interconnect,
        best.guaranteed,
        1.0 / best.guaranteed
    );
    assert!(!report.points.is_empty());
    Ok(())
}
