//! Project assembly: the complete generated MAMPS project as an in-memory
//! file tree, optionally written to disk. This is the output of the
//! "Generating Xilinx project (MAMPS)" step of Table 1.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use mamps_platform::arch::Architecture;
use mamps_platform::types::TileId;
use mamps_sdf::graph::SdfGraph;
use mamps_sdf::model::ApplicationModel;

use mamps_mapping::mapping::Mapping;

use crate::cwrap::{runtime_header, tile_main_c};
use crate::memmap::{memory_maps, TileActors, TileMemoryMap};
use crate::netlist::{allocate_routes, noc_routes, platform_netlist, ChannelRoute};
use crate::tcl::xps_script;
use crate::GenError;

/// A generated project: path -> file contents.
#[derive(Debug, Clone, Default)]
pub struct Project {
    /// Files of the project, keyed by relative path.
    pub files: BTreeMap<String, String>,
    /// The computed memory maps (also rendered into `memory_map.txt`).
    pub memory: Vec<TileMemoryMap>,
}

impl Project {
    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Total size of all generated text.
    pub fn total_bytes(&self) -> usize {
        self.files.values().map(|s| s.len()).sum()
    }

    /// Writes the project under `dir`, creating directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        for (rel, contents) in &self.files {
            let path = dir.join(rel);
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(path, contents)?;
        }
        Ok(())
    }
}

/// What [`check_platform`] established for a mapped application: the
/// memory map of every tile, the implementation each placed actor runs,
/// and the NoC route of every cross-tile channel. [`render_project`]
/// turns it into the project's text.
#[derive(Debug)]
pub struct CheckedPlatform<'a> {
    memory: Vec<TileMemoryMap>,
    actors: Vec<TileActors<'a>>,
    routes: Vec<ChannelRoute>,
}

/// Checks that a mapped application can be generated: computes the
/// per-tile memory maps, then allocates the NoC wires. These two steps
/// raise every [`GenError`] the generator returns, so a design point that
/// passes the check always renders.
///
/// # Errors
///
/// Propagates memory-map and wire-allocation errors, in that order.
pub fn check_platform<'a>(
    app: &'a ApplicationModel,
    graph: &SdfGraph,
    mapping: &Mapping,
    arch: &Architecture,
) -> Result<CheckedPlatform<'a>, GenError> {
    let (memory, actors) = memory_maps(app, graph, mapping, arch)?;
    let routes = allocate_routes(graph, mapping, arch)?;
    Ok(CheckedPlatform {
        memory,
        actors,
        routes,
    })
}

/// Renders the project of a mapped application from what
/// [`check_platform`] produced for the same graph, mapping and
/// architecture.
pub fn render_project(
    checked: CheckedPlatform<'_>,
    graph: &SdfGraph,
    mapping: &Mapping,
    arch: &Architecture,
    project_name: &str,
) -> Project {
    let CheckedPlatform {
        memory,
        actors,
        routes,
    } = checked;
    let mut files = BTreeMap::new();

    files.insert(
        format!("{project_name}.mhs"),
        platform_netlist(graph, mapping, arch, &memory),
    );
    files.insert("system.tcl".to_string(), xps_script(arch, project_name));
    files.insert("sw/mamps_rt.h".to_string(), runtime_header());
    files.insert(
        "sw/noc_setup.c".to_string(),
        noc_routes(graph, arch, &routes),
    );
    for (t, on_tile) in actors.iter().enumerate() {
        if on_tile.is_empty() {
            continue;
        }
        files.insert(
            format!("sw/tile{t}/main.c"),
            tile_main_c(graph, mapping, arch, TileId(t), on_tile),
        );
    }

    // Human-readable memory map.
    let mut mm = String::new();
    let _ = writeln!(mm, "tile  imem_bytes  dmem_bytes  buffer_bytes");
    for m in &memory {
        let _ = writeln!(
            mm,
            "{:<5} {:<11} {:<11} {}",
            m.tile.0, m.imem_bytes, m.dmem_bytes, m.buffer_bytes
        );
    }
    files.insert("memory_map.txt".to_string(), mm);

    // Mapping summary (the common input format, serialized for reference).
    let mut summary = String::new();
    let _ = writeln!(summary, "# mapping summary");
    for (aid, actor) in graph.actors() {
        let _ = writeln!(
            summary,
            "actor {} -> {} ({})",
            actor.name(),
            arch.tile(mapping.binding.tile_of[aid.0]).name(),
            mapping.binding.processor_of[aid.0]
        );
    }
    let _ = writeln!(
        summary,
        "guaranteed throughput: {}/{} iterations/cycle",
        mapping.guaranteed_iterations, mapping.guaranteed_cycles
    );
    files.insert("mapping.txt".to_string(), summary);

    Project { files, memory }
}

/// Generates the complete project for a mapped application:
/// [`check_platform`], then [`render_project`].
///
/// # Errors
///
/// Propagates the errors of [`check_platform`].
pub fn generate_project(
    app: &ApplicationModel,
    graph: &SdfGraph,
    mapping: &Mapping,
    arch: &Architecture,
    project_name: &str,
) -> Result<Project, GenError> {
    let checked = check_platform(app, graph, mapping, arch)?;
    Ok(render_project(checked, graph, mapping, arch, project_name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamps_mapping::flow::{map_application, MapOptions};
    use mamps_platform::interconnect::Interconnect;
    use mamps_sdf::graph::SdfGraphBuilder;
    use mamps_sdf::model::HomogeneousModelBuilder;

    fn setup() -> (ApplicationModel, Architecture, Mapping) {
        let mut b = SdfGraphBuilder::new("app");
        let x = b.add_actor("x", 1);
        let y = b.add_actor("y", 1);
        b.add_channel_full("e", x, 1, y, 1, 0, 64);
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        mb.actor("x", 50, 4096, 512).actor("y", 60, 4096, 512);
        let app = mb.finish(g, None).unwrap();
        let arch = Architecture::homogeneous("m", 2, Interconnect::fsl()).unwrap();
        let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        (app, arch, mapped.mapping)
    }

    #[test]
    fn project_contains_all_artifacts() {
        let (app, arch, mapping) = setup();
        let p = generate_project(&app, app.graph(), &mapping, &arch, "demo").unwrap();
        assert!(p.files.contains_key("demo.mhs"));
        assert!(p.files.contains_key("system.tcl"));
        assert!(p.files.contains_key("sw/mamps_rt.h"));
        assert!(p.files.contains_key("sw/tile0/main.c"));
        assert!(p.files.contains_key("sw/tile1/main.c"));
        assert!(p.files.contains_key("memory_map.txt"));
        assert!(p.files.contains_key("mapping.txt"));
        assert!(p.total_bytes() > 1000);
    }

    #[test]
    fn writes_to_disk() {
        let (app, arch, mapping) = setup();
        let p = generate_project(&app, app.graph(), &mapping, &arch, "demo").unwrap();
        let dir = std::env::temp_dir().join(format!("mamps_test_{}", std::process::id()));
        p.write_to(&dir).unwrap();
        assert!(dir.join("demo.mhs").exists());
        assert!(dir.join("sw/tile0/main.c").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_tiles_skipped() {
        let (app, _, mapping) = setup();
        let arch3 = Architecture::homogeneous("m", 3, Interconnect::fsl()).unwrap();
        // Mapping only uses 2 tiles; extend schedule/rounds vectors.
        let mut mapping = mapping;
        mapping.schedules.push(Vec::new());
        mapping.rounds_per_iteration.push(1);
        let p = generate_project(&app, app.graph(), &mapping, &arch3, "demo").unwrap();
        assert!(!p.files.contains_key("sw/tile2/main.c"));
    }
}
