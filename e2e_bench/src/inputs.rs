//! Workload inputs: which scenarios each workload runs, generated from the
//! benchmark seed and written as interchange XML.
//!
//! The program under test only ever sees these files: every pass reads
//! and parses them inside its timed region, exactly as `mamps dse` and
//! `mamps map-multi` read their command-line XML.

use std::error::Error;
use std::fs;
use std::path::Path;

use mamps::platform::gen::{synthesize, ArchSpec};
use mamps::platform::xml::architecture_to_xml;
use mamps::sdf::gen::{generate, Family, GenConfig};
use mamps::sdf::xml::application_to_xml;

/// The checked-in MJPEG example, swept by the sweep workloads and admitted
/// first by every use-case.
const MJPEG: &str = include_str!("../../examples/data/mjpeg_small_app.xml");
/// The checked-in constrained pipeline.
const PIPELINE: &str = include_str!("../../examples/data/pipeline_small_app.xml");
/// The checked-in application whose constraint no mapping meets: every
/// use-case rejects it.
const INFEASIBLE: &str = include_str!("../../examples/data/infeasible_app.xml");
/// The checked-in `examples/generated` corpus (6-actor scenarios, one
/// fixed seed per file).
const CORPUS: [(&str, &str); 8] = [
    (
        "chain_s50",
        include_str!("../../examples/generated/chain_s50.xml"),
    ),
    (
        "split_join_s51",
        include_str!("../../examples/generated/split_join_s51.xml"),
    ),
    (
        "tree_s52",
        include_str!("../../examples/generated/tree_s52.xml"),
    ),
    (
        "cyclic_s53",
        include_str!("../../examples/generated/cyclic_s53.xml"),
    ),
    (
        "chain_s54",
        include_str!("../../examples/generated/chain_s54.xml"),
    ),
    (
        "split_join_s55",
        include_str!("../../examples/generated/split_join_s55.xml"),
    ),
    (
        "tree_s56",
        include_str!("../../examples/generated/tree_s56.xml"),
    ),
    (
        "cyclic_s57",
        include_str!("../../examples/generated/cyclic_s57.xml"),
    ),
];

/// The two platforms every use-case is admitted onto.
pub const PLATFORMS: [&str; 2] = ["fsl:3", "mesh:2x2"];

/// How much input a workload gets. [`Scale::full`] is what the benchmark
/// measures; the benchmark's own tests run [`Scale::tiny`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scale {
    /// Include the checked-in MJPEG example and `examples/generated`
    /// corpus (sweeps) and MJPEG (use-cases). Besides being the paper's
    /// case study, these fixed inputs damp the seed-to-seed spread of a
    /// pass's cost.
    pub checked_in: bool,
    /// Seeded sweep scenarios per topology family.
    pub seeded_per_family: usize,
    /// Actors of a seeded sweep scenario.
    pub sweep_actors: usize,
    /// Tile counts `1..=max_tiles` are swept (`mamps dse <app> <max_tiles>`).
    pub max_tiles: usize,
    /// Binding strategies swept (`--binders`).
    pub binders: Vec<&'static str>,
    /// Use-cases per pass, each admitted onto every platform.
    pub use_cases: usize,
    /// Actors of a generated use-case application.
    pub use_case_actors: usize,
    /// Validation iterations of every use-case (`map-multi --iters`).
    pub sim_iterations: u64,
}

impl Scale {
    /// The measured configuration.
    pub fn full() -> Scale {
        Scale {
            checked_in: true,
            seeded_per_family: 2,
            // Ten-actor scenarios blow up the state space about once in
            // forty (15-20x the median sweep cost, up to 800 MiB), which
            // makes a pass's cost heavy-tailed in the seed; a hundred
            // eight-actor scenarios stayed within 1.7x the median.
            sweep_actors: 8,
            max_tiles: 4,
            binders: vec!["greedy", "spiral", "genetic"],
            use_cases: 4,
            use_case_actors: 6,
            sim_iterations: 2000,
        }
    }

    /// A configuration small enough for a debug-build test.
    pub fn tiny() -> Scale {
        Scale {
            checked_in: false,
            seeded_per_family: 1,
            sweep_actors: 4,
            max_tiles: 2,
            binders: vec!["greedy", "spiral"],
            use_cases: 1,
            use_case_actors: 4,
            sim_iterations: 40,
        }
    }
}

/// One named interchange-XML file.
pub type XmlFile = (String, String);

/// One use-case: its applications in admission order, and the platforms
/// it is admitted onto, one at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseCaseInput {
    /// The platforms, as architecture XML.
    pub archs: Vec<XmlFile>,
    /// The applications, in admission order.
    pub apps: Vec<XmlFile>,
}

fn scenario(cfg: &GenConfig) -> Result<XmlFile, Box<dyn Error>> {
    let app = generate(cfg)?;
    Ok((app.graph().name().to_string(), application_to_xml(&app)))
}

/// The generator seed of the `k`-th scenario derived from `seed`. Every
/// scenario of a run gets its own generator seed, so names never collide.
fn scenario_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(100).wrapping_add(k as u64)
}

/// The applications the sweep workloads run, one `mamps dse` sweep each,
/// in sweep order: the checked-in inputs (at full scale), then
/// `seeded_per_family` unconstrained scenarios of every family.
///
/// # Errors
///
/// Generator errors, which indicate a bug in the generator.
pub fn sweep_apps(seed: u64, scale: &Scale) -> Result<Vec<XmlFile>, Box<dyn Error>> {
    let mut apps = Vec::new();
    if scale.checked_in {
        apps.push(("mjpeg".to_string(), MJPEG.to_string()));
        apps.extend(CORPUS.iter().map(|(n, x)| (n.to_string(), x.to_string())));
    }
    for j in 0..scale.seeded_per_family {
        for (f, family) in Family::ALL.iter().enumerate() {
            apps.push(scenario(&GenConfig {
                actors: scale.sweep_actors,
                ..GenConfig::new(scenario_seed(seed, j * Family::ALL.len() + f), *family)
            })?);
        }
    }
    Ok(apps)
}

/// The use-cases of the `use_case_sim` workload, one per seeded pair of
/// constrained scenarios (small and single-rate, so a seed changes their
/// cost little): MJPEG (at full scale), the pipeline, the infeasible
/// application and the pair, in that order, on each of [`PLATFORMS`].
///
/// # Errors
///
/// Generator or platform-synthesis errors.
pub fn use_cases(seed: u64, scale: &Scale) -> Result<Vec<UseCaseInput>, Box<dyn Error>> {
    let mut archs = Vec::new();
    for platform in PLATFORMS {
        let spec: ArchSpec = platform.parse()?;
        let arch = synthesize(&spec, &format!("gen_{}", spec.slug()))?;
        archs.push((spec.slug(), architecture_to_xml(&arch)));
    }
    let mut out = Vec::new();
    for k in 0..scale.use_cases {
        let mut apps = Vec::new();
        if scale.checked_in {
            apps.push(("mjpeg".to_string(), MJPEG.to_string()));
        }
        apps.push(("pipeline".to_string(), PIPELINE.to_string()));
        apps.push(("infeasible".to_string(), INFEASIBLE.to_string()));
        for j in 0..2 {
            let n = 2 * k + j;
            apps.push(scenario(&GenConfig {
                actors: scale.use_case_actors,
                max_rate: 1,
                constraint_slack: Some(6),
                ..GenConfig::new(
                    scenario_seed(seed, 50 + n),
                    Family::ALL[n % Family::ALL.len()],
                )
            })?);
        }
        out.push(UseCaseInput {
            archs: archs.clone(),
            apps,
        });
    }
    Ok(out)
}

/// Writes `files` into `dir` as `NN_<name>.xml`, so that sorting the
/// directory restores their order.
fn write_ordered(dir: &Path, files: &[XmlFile]) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    for (i, (name, xml)) in files.iter().enumerate() {
        fs::write(dir.join(format!("{i:02}_{name}.xml")), xml)?;
    }
    Ok(())
}

/// Writes the sweep applications into `dir`.
///
/// # Errors
///
/// Generator and I/O errors.
pub fn write_sweep_inputs(seed: u64, scale: &Scale, dir: &Path) -> Result<(), Box<dyn Error>> {
    write_ordered(dir, &sweep_apps(seed, scale)?)?;
    Ok(())
}

/// Writes each use-case into its own subdirectory of `dir`: the platforms
/// under `archs/` and the applications, in admission order, under `apps/`.
///
/// # Errors
///
/// Generator and I/O errors.
pub fn write_use_case_inputs(seed: u64, scale: &Scale, dir: &Path) -> Result<(), Box<dyn Error>> {
    for (k, uc) in use_cases(seed, scale)?.iter().enumerate() {
        let ucdir = dir.join(format!("uc{k:02}"));
        write_ordered(&ucdir.join("apps"), &uc.apps)?;
        write_ordered(&ucdir.join("archs"), &uc.archs)?;
    }
    Ok(())
}

/// The entries of `dir`, sorted by name.
///
/// # Errors
///
/// I/O errors reading the directory.
pub fn sorted_entries(dir: &Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    let mut paths = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<Vec<_>, _>>()?;
    paths.sort();
    Ok(paths)
}
