//! Throughput prediction with substituted execution times.
//!
//! The paper's Fig. 6 "expected" series re-runs the SDF3 analysis with
//! execution times measured on the test data instead of the WCETs. This
//! module rebuilds the Fig. 4-expanded analysis graph of an existing
//! mapping with per-actor mean times and analyses it.

use mamps_mapping::comm_expand::expand;
use mamps_mapping::mapping::Mapping;
use mamps_mapping::MapError;
use mamps_platform::arch::Architecture;
use mamps_sdf::graph::SdfGraph;
use mamps_sdf::ratio::Ratio;
use mamps_sdf::state_space::{throughput, AnalysisOptions};

/// Predicts throughput for `mapping` with the given per-actor execution
/// times (indexed by actor id) substituted for the WCETs.
///
/// # Errors
///
/// Propagates expansion/analysis errors.
pub fn predicted_throughput(
    graph: &SdfGraph,
    mapping: &Mapping,
    arch: &Architecture,
    times: &[u64],
) -> Result<Ratio, MapError> {
    let mut g = graph.clone();
    for (aid, _) in graph.actors() {
        g.actor_mut(aid).set_execution_time(times[aid.0]);
    }
    let expanded = expand(&g, mapping, arch)?;
    let t = throughput(
        &expanded,
        &AnalysisOptions {
            auto_concurrency: true,
            max_states: 4_000_000,
            ..AnalysisOptions::default()
        },
    )
    .map_err(MapError::Sdf)?;
    Ok(t.iterations_per_cycle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamps_mapping::flow::{map_application, MapOptions};
    use mamps_platform::interconnect::Interconnect;
    use mamps_sdf::graph::SdfGraphBuilder;
    use mamps_sdf::model::HomogeneousModelBuilder;

    #[test]
    fn faster_times_predict_higher_throughput() {
        let mut b = SdfGraphBuilder::new("a");
        let x = b.add_actor("x", 1);
        let y = b.add_actor("y", 1);
        b.add_channel_full("e", x, 1, y, 1, 0, 16);
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        mb.actor("x", 100, 2048, 256).actor("y", 100, 2048, 256);
        let app = mb.finish(g, None).unwrap();
        let arch = Architecture::homogeneous("m", 2, Interconnect::fsl()).unwrap();
        let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();

        let wcet_pred = predicted_throughput(
            app.graph(),
            &mapped.mapping,
            &arch,
            &mapped.mapping.binding.wcet_of,
        )
        .unwrap();
        // Substituting the WCETs reproduces the bound.
        assert_eq!(wcet_pred, mapped.analysis.iterations_per_cycle);

        let fast = predicted_throughput(app.graph(), &mapped.mapping, &arch, &[30, 30]).unwrap();
        assert!(fast > wcet_pred);
    }
}
