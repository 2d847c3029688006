//! The Fig. 4 communication model, explored interactively.
//!
//! Expands a single inter-tile channel into the paper's parameterized
//! interconnect model, prints the resulting SDF graph, and shows how the
//! guaranteed throughput reacts to the model parameters: token size
//! (fragmentation into 32-bit words), SDM wire count (bandwidth), mesh
//! distance (latency/pipelining), and CA offloading.
//!
//! Run with: `cargo run --release --example comm_model`

use mamps::mapping::flow::{map_application, MapOptions};
use mamps::platform::arch::Architecture;
use mamps::platform::interconnect::{CommParams, Interconnect};
use mamps::platform::types::TileId;
use mamps::sdf::dot::to_dot;
use mamps::sdf::graph::SdfGraphBuilder;
use mamps::sdf::model::HomogeneousModelBuilder;

fn two_actor_app(token_size: u64) -> mamps::sdf::model::ApplicationModel {
    let mut b = SdfGraphBuilder::new("pair");
    let src = b.add_actor("src", 1);
    let dst = b.add_actor("dst", 1);
    b.add_channel_full("link", src, 1, dst, 1, 0, token_size);
    let g = b.build().unwrap();
    let mut mb = HomogeneousModelBuilder::new("microblaze");
    mb.actor("src", 200, 2048, 256).actor("dst", 200, 2048, 256);
    mb.finish(g, None).unwrap()
}

fn bound(app: &mamps::sdf::model::ApplicationModel, arch: &Architecture) -> f64 {
    map_application(app, arch, &MapOptions::default())
        .map(|m| m.analysis.as_f64())
        .unwrap_or(0.0)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Show the expansion of one channel.
    let app = two_actor_app(128); // 32-word tokens
    let arch = Architecture::homogeneous("demo", 2, Interconnect::fsl())?;
    let mapped = map_application(&app, &arch, &MapOptions::default())?;
    println!("--- Fig. 4 expansion of channel `link` (DOT) ---");
    println!("{}", to_dot(&mapped.expanded));
    println!(
        "expanded graph: {} actors, {} channels (from 2 actors, 1 channel)",
        mapped.expanded.actor_count(),
        mapped.expanded.channel_count()
    );

    // Fig. 4 parameters per interconnect.
    println!("\n--- connection parameters ---");
    let fsl = CommParams::for_connection(&Interconnect::fsl(), TileId(0), TileId(1), 0);
    println!(
        "FSL:           w={} alpha_n={} latency={} cycles/word={}",
        fsl.w, fsl.alpha_n, fsl.latency, fsl.cycles_per_word
    );
    let noc = Interconnect::noc_for_tiles(9);
    for (to, wires) in [(1usize, 1u32), (1, 4), (8, 4)] {
        let p = CommParams::for_connection(&noc, TileId(0), TileId(to), wires);
        println!(
            "NoC to tile {to} ({wires} wires): w={} alpha_n={} latency={} cycles/word={}",
            p.w, p.alpha_n, p.latency, p.cycles_per_word
        );
    }

    // Sensitivity of the guaranteed bound.
    println!("\n--- guaranteed bound vs token size (FSL, 2 tiles) ---");
    for ts in [4u64, 32, 128, 512] {
        let app = two_actor_app(ts);
        println!(
            "  {ts:>4}-byte tokens: {:.4e} iterations/cycle",
            bound(&app, &arch)
        );
    }

    println!("\n--- guaranteed bound vs serialization engine (512-byte tokens) ---");
    let big = two_actor_app(512);
    let plain = bound(&big, &arch);
    let ca_arch = Architecture::homogeneous_with_ca("ca", 2, Interconnect::fsl())?;
    let ca = bound(&big, &ca_arch);
    println!("  PE serialization: {plain:.4e}");
    println!("  CA offload:       {ca:.4e}  (x{:.2})", ca / plain);
    assert!(ca > plain);
    Ok(())
}
