//! The common input format end to end (paper §2): models written to XML,
//! read back, and fed to the platform generator and simulator produce
//! byte-identical results — no manual translation step, no user-introduced
//! errors.

use mamps::codegen::generate_project;
use mamps::mapping::flow::{map_application, MapOptions};
use mamps::mapping::xml::{mapping_from_xml, mapping_to_xml};
use mamps::mjpeg::app_model::mjpeg_application;
use mamps::mjpeg::encoder::StreamConfig;
use mamps::platform::arch::Architecture;
use mamps::platform::interconnect::Interconnect;
use mamps::platform::xml::{architecture_from_xml, architecture_to_xml};
use mamps::sdf::xml::{application_from_xml, application_to_xml};
use mamps::sim::{System, WcetTimes};

fn cfg() -> StreamConfig {
    StreamConfig {
        frames: 1,
        ..StreamConfig::small()
    }
}

#[test]
fn mjpeg_application_roundtrips_through_xml() {
    let app = mjpeg_application(&cfg(), None).unwrap();
    let xml = application_to_xml(&app);
    assert!(xml.contains("applicationGraph"));
    assert!(xml.contains("vld2iqzz"));
    let back = application_from_xml(&xml).unwrap();
    assert_eq!(app.graph().actor_count(), back.graph().actor_count());
    assert_eq!(app.graph().channel_count(), back.graph().channel_count());
    // The round-tripped model maps to the same guaranteed bound.
    let arch = Architecture::homogeneous("m", 3, Interconnect::fsl()).unwrap();
    let m1 = map_application(&app, &arch, &MapOptions::default()).unwrap();
    let m2 = map_application(&back, &arch, &MapOptions::default()).unwrap();
    assert_eq!(
        m1.analysis.iterations_per_cycle,
        m2.analysis.iterations_per_cycle
    );
}

#[test]
fn full_interchange_pipeline_is_lossless() {
    let app = mjpeg_application(&cfg(), None).unwrap();
    let arch = Architecture::homogeneous("m", 3, Interconnect::noc_for_tiles(3)).unwrap();
    let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();

    // Serialize all three artefacts...
    let app_xml = application_to_xml(&app);
    let arch_xml = architecture_to_xml(&arch);
    let map_xml = mapping_to_xml(&mapped.mapping, app.graph());

    // ...read them back...
    let app2 = application_from_xml(&app_xml).unwrap();
    let arch2 = architecture_from_xml(&arch_xml).unwrap();
    let map2 = mapping_from_xml(&map_xml, app2.graph(), arch2.tile_count()).unwrap();
    assert_eq!(arch2, arch);
    assert_eq!(map2, mapped.mapping);
    // A wire count past u32 is an error, not a truncation to 2 wires.
    let wide = map_xml.replacen(r#"wires="2""#, r#"wires="4294967298""#, 1);
    assert_ne!(wide, map_xml);
    assert!(mapping_from_xml(&wide, app2.graph(), arch2.tile_count()).is_err());

    // ...and generate + simulate from the parsed copies: identical project,
    // identical measured throughput.
    let p1 = generate_project(&app, app.graph(), &mapped.mapping, &arch, "sys").unwrap();
    let p2 = generate_project(&app2, app2.graph(), &map2, &arch2, "sys").unwrap();
    assert_eq!(p1.files, p2.files);

    let t1 = {
        let times = WcetTimes::new(mapped.mapping.binding.wcet_of.clone());
        System::new(app.graph(), &mapped.mapping, &arch, &times)
            .unwrap()
            .run(40, 1_000_000_000)
            .unwrap()
            .steady_throughput()
    };
    let t2 = {
        let times = WcetTimes::new(map2.binding.wcet_of.clone());
        System::new(app2.graph(), &map2, &arch2, &times)
            .unwrap()
            .run(40, 1_000_000_000)
            .unwrap()
            .steady_throughput()
    };
    assert_eq!(t1, t2);
}

#[test]
fn architecture_xml_covers_all_tile_kinds() {
    use mamps::platform::tile::TileConfig;
    let tiles = vec![
        TileConfig::master("m"),
        TileConfig::slave("s"),
        TileConfig::with_communication_assist("c"),
        TileConfig::hardware_ip("h"),
    ];
    let arch = Architecture::new("mixed", tiles, Interconnect::fsl()).unwrap();
    let back = architecture_from_xml(&architecture_to_xml(&arch)).unwrap();
    assert_eq!(back, arch);
}
