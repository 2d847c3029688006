//! XML interchange for architecture models (the second flow input,
//! paper Fig. 1).
//!
//! ```xml
//! <architecture name="mpsoc" clockMhz="100">
//!   <tile name="tile0" kind="master" processor="microblaze"
//!         imem="131072" dmem="131072"
//!         serSetup="48" serPerWord="12"/>
//!   <interconnect type="noc" width="2" height="2" wires="8"
//!                 routerLatency="2" bufferWordsPerHop="2" flowControl="1"/>
//! </architecture>
//! ```

use mamps_sdf::xmlutil::{parse, Element, XmlError};

use crate::arch::Architecture;
use crate::interconnect::Interconnect;
use crate::noc::NocConfig;
use crate::tile::{SerializationCost, TileConfig, TileKind};
use crate::types::ProcessorType;

fn kind_name(kind: TileKind) -> &'static str {
    match kind {
        TileKind::Master => "master",
        TileKind::Slave => "slave",
        TileKind::CommunicationAssist => "ca",
        TileKind::HardwareIp => "ip",
    }
}

/// Serializes an architecture to XML.
pub fn architecture_to_xml(arch: &Architecture) -> String {
    let mut root = Element::new("architecture")
        .attr("name", arch.name())
        .attr("clockMhz", arch.clock_mhz());
    for t in arch.tiles() {
        let mut el = Element::new("tile")
            .attr("name", t.name())
            .attr("kind", kind_name(t.kind()))
            .attr("processor", t.processor().name())
            .attr("imem", t.imem_bytes())
            .attr("dmem", t.dmem_bytes())
            .attr("serSetup", t.serialization().setup_cycles)
            .attr("serPerWord", t.serialization().cycles_per_word);
        if let Some(ca) = t.ca() {
            el = el
                .attr("caSetup", ca.setup_cycles)
                .attr("caPerWord", ca.cycles_per_word);
        }
        root = root.child(el);
    }
    let ic = match arch.interconnect() {
        Interconnect::Fsl { fifo_depth } => Element::new("interconnect")
            .attr("type", "fsl")
            .attr("fifoDepth", fifo_depth),
        Interconnect::Noc(noc) => Element::new("interconnect")
            .attr("type", "noc")
            .attr("width", noc.width)
            .attr("height", noc.height)
            .attr("wires", noc.wires_per_link)
            .attr("routerLatency", noc.router_latency)
            .attr("bufferWordsPerHop", noc.buffer_words_per_hop)
            .attr("flowControl", if noc.flow_control { 1 } else { 0 }),
    };
    root.child(ic).to_xml()
}

/// Parses an architecture from XML.
///
/// # Errors
///
/// [`XmlError`] on malformed XML; architecture validation failures surface
/// as [`XmlError::Semantic`].
pub fn architecture_from_xml(xml: &str) -> Result<Architecture, XmlError> {
    let root = parse(xml)?;
    if root.name != "architecture" {
        return Err(XmlError::Semantic(format!(
            "expected <architecture>, found <{}>",
            root.name
        )));
    }
    let mut tiles = Vec::new();
    for el in root.find_all("tile") {
        let name = el.req("name")?;
        let base = match el.req("kind")? {
            "master" => TileConfig::master(name),
            "slave" => TileConfig::slave(name),
            "ca" => TileConfig::with_communication_assist(name),
            "ip" => TileConfig::hardware_ip(name),
            other => return Err(XmlError::Semantic(format!("unknown tile kind `{other}`"))),
        };
        let mut tile = base
            .with_processor(ProcessorType::custom(el.req("processor")?))
            .with_serialization(SerializationCost {
                setup_cycles: el.req_u64("serSetup")?,
                cycles_per_word: el.req_u64("serPerWord")?,
            });
        if tile.ca().is_some() && el.get("caSetup").is_some() {
            tile = tile.with_ca_cost(SerializationCost {
                setup_cycles: el.req_u64("caSetup")?,
                cycles_per_word: el.req_u64("caPerWord")?,
            });
        }
        let (imem, dmem) = (el.req_u64("imem")?, el.req_u64("dmem")?);
        if imem + dmem > crate::tile::MAX_TILE_MEMORY_BYTES {
            return Err(XmlError::Semantic(format!(
                "tile `{name}` exceeds the memory limit"
            )));
        }
        tile = tile.with_memory(imem, dmem);
        tiles.push(tile);
    }
    let ic_el = root
        .find("interconnect")
        .ok_or_else(|| XmlError::Semantic("missing <interconnect>".into()))?;
    let interconnect = match ic_el.req("type")? {
        "fsl" => Interconnect::Fsl {
            fifo_depth: ic_el.req_u64("fifoDepth")?,
        },
        "noc" => Interconnect::Noc(NocConfig {
            width: ic_el.req_int("width")?,
            height: ic_el.req_int("height")?,
            wires_per_link: ic_el.req_int("wires")?,
            router_latency: ic_el.req_u64("routerLatency")?,
            buffer_words_per_hop: ic_el.req_u64("bufferWordsPerHop")?,
            flow_control: ic_el.req_u64("flowControl")? != 0,
        }),
        other => {
            return Err(XmlError::Semantic(format!(
                "unknown interconnect type `{other}`"
            )))
        }
    };
    let clock = root.req_u64("clockMhz")?;
    Architecture::new(root.req("name")?, tiles, interconnect)
        .map(|a| a.with_clock_mhz(clock))
        .map_err(|e| XmlError::Semantic(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_fsl() {
        let arch = Architecture::homogeneous("m", 3, Interconnect::fsl())
            .unwrap()
            .with_clock_mhz(125);
        let xml = architecture_to_xml(&arch);
        let back = architecture_from_xml(&xml).unwrap();
        assert_eq!(back, arch);
    }

    #[test]
    fn roundtrip_noc_with_ca_tiles() {
        let arch =
            Architecture::homogeneous_with_ca("c", 4, Interconnect::noc_for_tiles(4)).unwrap();
        let xml = architecture_to_xml(&arch);
        let back = architecture_from_xml(&xml).unwrap();
        assert_eq!(back, arch);
        assert!(back.tile(crate::types::TileId(0)).ca().is_some());
    }

    #[test]
    fn hand_written_document() {
        let xml = r#"
<architecture name="custom" clockMhz="100">
  <tile name="t0" kind="master" processor="microblaze" imem="65536"
        dmem="32768" serSetup="10" serPerWord="3"/>
  <tile name="acc" kind="ip" processor="hardware-ip" imem="0" dmem="0"
        serSetup="0" serPerWord="1"/>
  <interconnect type="fsl" fifoDepth="32"/>
</architecture>"#;
        let arch = architecture_from_xml(xml).unwrap();
        assert_eq!(arch.tile_count(), 2);
        assert_eq!(
            arch.tile(crate::types::TileId(1)).kind(),
            TileKind::HardwareIp
        );
        match arch.interconnect() {
            Interconnect::Fsl { fifo_depth } => assert_eq!(*fifo_depth, 32),
            _ => panic!("expected FSL"),
        }
    }

    #[test]
    fn invalid_documents_rejected() {
        assert!(architecture_from_xml("<nope/>").is_err());
        // Two masters.
        let xml = r#"
<architecture name="bad" clockMhz="100">
  <tile name="a" kind="master" processor="m" imem="1" dmem="1" serSetup="0" serPerWord="1"/>
  <tile name="b" kind="master" processor="m" imem="1" dmem="1" serSetup="0" serPerWord="1"/>
  <interconnect type="fsl" fifoDepth="16"/>
</architecture>"#;
        assert!(matches!(
            architecture_from_xml(xml),
            Err(XmlError::Semantic(_))
        ));
    }

    /// The XML of a two-tile architecture on a `width` x `height` mesh.
    fn mesh_xml(width: u32, height: u32) -> String {
        let mut noc = NocConfig::for_tiles(2);
        (noc.width, noc.height) = (width, height);
        architecture_to_xml(&Architecture::homogeneous("m", 2, Interconnect::Noc(noc)).unwrap())
    }

    #[test]
    fn out_of_range_mesh_width_is_named_not_truncated() {
        // 2^32 + 2 would wrap to a 2-wide mesh.
        let xml = mesh_xml(2, 1).replace(r#"width="2""#, r#"width="4294967298""#);
        let err = architecture_from_xml(&xml).unwrap_err();
        assert!(
            matches!(err, XmlError::BadValue(_, ref a, _) if a == "width"),
            "{err}"
        );
    }

    #[test]
    fn mesh_of_two_to_the_32_routers_is_counted() {
        let arch = architecture_from_xml(&mesh_xml(65536, 65536)).unwrap();
        let Interconnect::Noc(noc) = arch.interconnect() else {
            panic!("expected a NoC");
        };
        assert_eq!(noc.router_count(), 1 << 32);
        assert_eq!(noc.tile_coord(crate::types::TileId(1)).x, 1);
    }
}
