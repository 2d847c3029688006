//! Text rendering of the evaluation artefacts (figures as tables).

use std::fmt::Write as _;

use mamps_mapping::MappedApplication;
use mamps_platform::arch::Architecture;
use mamps_platform::types::TileId;
use mamps_sdf::model::ApplicationModel;
use mamps_sdf::repetition::repetition_vector;

use crate::dse::{pareto_front, DseReport, UseCaseDseReport};
use crate::experiments::{Fig6Row, Table1Row};
use crate::flow::MultiFlowResult;

/// Renders Fig. 6 rows as an aligned text table; throughputs are shown in
/// MCUs per MHz per second (iterations/cycle x 1e6), the paper's unit.
pub fn render_fig6(title: &str, rows: &[Fig6Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>14} {:>9}",
        "sequence", "worst-case", "expected", "measured", "margin"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>14.3} {:>14.3} {:>14.3} {:>8.2}x",
            r.sequence,
            r.worst_case * 1e6,
            r.expected * 1e6,
            r.measured * 1e6,
            r.guarantee().margin
        );
    }
    out
}

/// Renders Table 1.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 1: designer effort (a = automated)");
    for r in rows {
        let _ = writeln!(
            out,
            "{:<38} {:>20} {}",
            r.step,
            r.time,
            if r.automated { "a" } else { "" }
        );
    }
    out
}

/// Renders a DSE sweep including the skipped (infeasible) design points
/// with the reason each one failed. Points on the (throughput, slices)
/// Pareto front are marked with `*` and summarized per binding strategy,
/// so strategy comparisons are readable straight off the report.
pub fn render_dse_report(report: &DseReport) -> String {
    let front = pareto_front(&report.points);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<2} {:<8} {:<6} {:<6} {:>16} {:>10} {:>7}",
        "", "binder", "tiles", "ic", "it/cycle", "slices", "wires"
    );
    for p in &report.points {
        let marker = if front.contains(p) { "*" } else { "" };
        let _ = writeln!(
            out,
            "{:<2} {:<8} {:<6} {:<6} {:>16.3e} {:>10} {:>7}",
            marker, p.strategy, p.tiles, p.interconnect, p.guaranteed, p.slices, p.wire_units
        );
    }
    if !front.is_empty() {
        let mut per_strategy: Vec<(&str, usize)> = Vec::new();
        for p in &front {
            match per_strategy.iter_mut().find(|(s, _)| *s == p.strategy) {
                Some((_, n)) => *n += 1,
                None => per_strategy.push((p.strategy, 1)),
            }
        }
        let summary = per_strategy
            .iter()
            .map(|(s, n)| format!("{s} {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "pareto front (*): {} of {} points ({summary})",
            front.len(),
            report.points.len()
        );
    }
    if !report.skipped.is_empty() {
        let _ = writeln!(
            out,
            "skipped {} infeasible design point{}:",
            report.skipped.len(),
            if report.skipped.len() == 1 { "" } else { "s" }
        );
        for s in &report.skipped {
            let _ = writeln!(
                out,
                "  {:<8} {:<6} {:<6} {}",
                s.strategy, s.tiles, s.interconnect, s.reason
            );
        }
    }
    out
}

/// Renders a per-tile summary of a mapped application: which binding
/// strategy produced it, each tile's actors, its share of the total work
/// (WCET × repetitions of the bound implementations), its memory usage,
/// and the allocated NoC wire-links. This is what `mamps map` prints so
/// strategy choices can be compared from the CLI.
pub fn render_mapping_summary(
    app: &ApplicationModel,
    arch: &Architecture,
    mapped: &MappedApplication,
) -> String {
    let graph = app.graph();
    let mut out = String::new();
    let _ = writeln!(out, "binder: {}", mapped.strategy);
    let Ok(q) = repetition_vector(graph) else {
        // A produced mapping implies consistency; defensive fallback only.
        return out;
    };
    let binding = &mapped.mapping.binding;
    let n = graph.actor_count();
    let work = |i: usize| binding.wcet_of[i] * q.of(mamps_sdf::graph::ActorId(i));
    let total: f64 = (0..n).map(|i| work(i) as f64).sum::<f64>().max(1.0);
    let _ = writeln!(
        out,
        "{:<6} {:>6} {:>12}  actors",
        "tile", "load", "mem(bytes)"
    );
    for t in 0..arch.tile_count() {
        let actors = binding.actors_on(TileId(t));
        let load: f64 = actors.iter().map(|&a| work(a.0) as f64).sum::<f64>() / total;
        let mem: u64 = actors
            .iter()
            .filter_map(|&a| {
                app.implementation_for(a, binding.processor_of[a.0].name())
                    .map(|im| im.instruction_memory + im.data_memory)
            })
            .sum();
        let names = actors
            .iter()
            .map(|&a| graph.actor(a).name())
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(out, "{t:<6} {:>5.1}% {mem:>12}  {names}", load * 100.0);
    }
    let wire_units = mapped.mapping.noc_wire_units(graph, arch);
    if wire_units > 0 {
        let _ = writeln!(out, "noc wire-links allocated: {wire_units}");
    }
    out
}

/// Renders a multi-application flow result as one section per
/// application (admission order): admission status, binding strategy and
/// tiles, the constraint, the isolated and shared (resource-reduced)
/// bounds, and the concurrently simulated throughput with its guarantee
/// verdict. Rejected applications carry their structured reason.
pub fn render_multi_report(result: &MultiFlowResult) -> String {
    let mut out = String::new();
    let total = result.sections.len();
    let _ = writeln!(
        out,
        "use-case: {} of {} application{} admitted on `{}`",
        result.admitted_count(),
        total,
        if total == 1 { "" } else { "s" },
        result.arch.name()
    );
    let fmt_opt = |v: Option<f64>| match v {
        Some(x) => format!("{x:.6e} it/cycle"),
        None => "-".to_string(),
    };
    for s in &result.sections {
        if s.admitted {
            let tiles = s
                .tiles
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                out,
                "== {}: ADMITTED (binder {}, tiles {})",
                s.name,
                s.strategy.unwrap_or("?"),
                tiles
            );
            let _ = writeln!(
                out,
                "   constraint           {}",
                match s.constraint {
                    Some(c) => format!("{c:.6e} it/cycle"),
                    None => "none".to_string(),
                }
            );
            let _ = writeln!(out, "   isolated bound       {}", fmt_opt(s.isolated_bound));
            let _ = writeln!(out, "   shared guarantee     {}", fmt_opt(s.shared_bound));
            if let (Some(m), Some(g)) = (s.measured, &s.guarantee) {
                let _ = writeln!(
                    out,
                    "   measured (WCET sim)  {m:.6e} it/cycle  margin {:.3}x  guarantee {}",
                    g.margin,
                    if g.holds() { "HOLDS" } else { "VIOLATED" }
                );
            }
        } else {
            let _ = writeln!(out, "== {}: REJECTED", s.name);
            if let Some(reason) = &s.rejection {
                let _ = writeln!(out, "   reason: {reason}");
            }
        }
    }
    out
}

/// Renders a use-case DSE sweep: per platform configuration, how many
/// (and which) applications were admitted, the lowest shared guarantee
/// among them, and the platform area — followed by every rejection with
/// its structured reason.
pub fn render_use_case_report(report: &UseCaseDseReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<6} {:<6} {:>9} {:>16} {:>10}  admitted",
        "binder", "tiles", "ic", "admitted", "min it/cycle", "slices"
    );
    for p in &report.points {
        let total = p.admitted.len() + p.rejected.len();
        let _ = writeln!(
            out,
            "{:<8} {:<6} {:<6} {:>9} {:>16.3e} {:>10}  {}",
            p.strategy,
            p.tiles,
            p.interconnect,
            format!("{}/{}", p.admitted.len(), total),
            p.min_guarantee,
            p.slices,
            p.admitted.join(" ")
        );
    }
    let rejections: Vec<String> = report
        .points
        .iter()
        .flat_map(|p| {
            p.rejected.iter().map(move |(name, reason)| {
                format!(
                    "  {:<8} {:<6} {:<6} {name}: {reason}",
                    p.strategy, p.tiles, p.interconnect
                )
            })
        })
        .collect();
    if !rejections.is_empty() {
        let _ = writeln!(out, "rejections:");
        for r in rejections {
            let _ = writeln!(out, "{r}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::DsePoint;

    #[test]
    fn fig6_table_contains_all_sequences() {
        let rows = vec![
            Fig6Row {
                sequence: "synthetic".into(),
                worst_case: 1e-5,
                expected: 1.1e-5,
                measured: 1.05e-5,
            },
            Fig6Row {
                sequence: "portrait".into(),
                worst_case: 1e-5,
                expected: 3e-5,
                measured: 2.9e-5,
            },
        ];
        let s = render_fig6("Fig 6(a) FSL", &rows);
        assert!(s.contains("synthetic"));
        assert!(s.contains("portrait"));
        assert!(s.contains("Fig 6(a)"));
        assert!(s.contains("10.500")); // measured x 1e6
    }

    #[test]
    fn table1_render() {
        let rows = vec![Table1Row {
            step: "Mapping the design (SDF3)".into(),
            time: "3.0 ms".into(),
            automated: true,
        }];
        let s = render_table1(&rows);
        assert!(s.contains("Mapping"));
        assert!(s.trim_end().ends_with('a'));
    }

    #[test]
    fn dse_report_render_lists_skips() {
        let report = DseReport {
            points: vec![DsePoint {
                tiles: 2,
                interconnect: "fsl",
                strategy: "spiral",
                guaranteed: 1e-5,
                slices: 1234,
                wire_units: 3,
                per_tile_load: vec![50, 50],
            }],
            skipped: vec![crate::dse::SkippedPoint {
                tiles: 9,
                interconnect: "noc",
                strategy: "greedy",
                reason: "mapping step failed: no feasible binding".into(),
            }],
        };
        let s = render_dse_report(&report);
        assert!(s.contains("1234"));
        assert!(s.contains("spiral"));
        assert!(s.contains("skipped 1 infeasible design point"));
        assert!(s.contains("no feasible binding"));
        // The single point is trivially on the Pareto front.
        assert!(s.contains("pareto front (*): 1 of 1 points (spiral 1)"));

        // No skip section when everything mapped.
        let clean = render_dse_report(&DseReport {
            skipped: Vec::new(),
            ..report
        });
        assert!(!clean.contains("skipped"));
    }

    #[test]
    fn multi_report_renders_sections_and_rejections() {
        use crate::flow::{run_multi_flow, FlowOptions};
        use mamps_platform::arch::Architecture;
        use mamps_platform::interconnect::Interconnect;
        use mamps_sdf::graph::SdfGraphBuilder;
        use mamps_sdf::model::{HomogeneousModelBuilder, ThroughputConstraint};

        let mk = |name: &str, wcet: u64, constraint: Option<ThroughputConstraint>| {
            let mut b = SdfGraphBuilder::new(name);
            let x = b.add_actor(format!("{name}x"), 1);
            let y = b.add_actor(format!("{name}y"), 1);
            b.add_channel_full(format!("{name}e"), x, 1, y, 1, 0, 16);
            let g = b.build().unwrap();
            let mut mb = HomogeneousModelBuilder::new("microblaze");
            mb.actor(format!("{name}x"), wcet, 2048, 256).actor(
                format!("{name}y"),
                wcet,
                2048,
                256,
            );
            mb.finish(g, constraint).unwrap()
        };
        let arch = Architecture::homogeneous("r", 2, Interconnect::fsl()).unwrap();
        let r = run_multi_flow(
            vec![
                mk("good", 60, None),
                mk(
                    "bad",
                    900,
                    Some(ThroughputConstraint {
                        iterations: 1,
                        cycles: 10,
                    }),
                ),
            ],
            arch,
            &FlowOptions::default(),
            40,
        )
        .unwrap();
        let s = render_multi_report(&r);
        assert!(s.contains("1 of 2 applications admitted"));
        assert!(s.contains("good: ADMITTED"));
        assert!(s.contains("guarantee HOLDS"));
        assert!(s.contains("bad: REJECTED"));
        assert!(s.contains("reason: mapping failed"));
    }

    #[test]
    fn use_case_report_lists_points_and_rejections() {
        use crate::dse::{UseCaseDseReport, UseCasePoint};
        let report = UseCaseDseReport {
            points: vec![UseCasePoint {
                tiles: 2,
                interconnect: "fsl",
                strategy: "greedy",
                admitted: vec!["a".into()],
                rejected: vec![("b".into(), "mapping failed: no fit".into())],
                min_guarantee: 1e-5,
                slices: 2345,
            }],
        };
        let s = render_use_case_report(&report);
        assert!(s.contains("1/2"));
        assert!(s.contains("2345"));
        assert!(s.contains("rejections:"));
        assert!(s.contains("b: mapping failed: no fit"));
    }

    #[test]
    fn mapping_summary_lists_tiles_and_strategy() {
        use mamps_mapping::flow::{map_application, MapOptions};
        use mamps_platform::interconnect::Interconnect;
        use mamps_sdf::graph::SdfGraphBuilder;
        use mamps_sdf::model::HomogeneousModelBuilder;

        let mut b = SdfGraphBuilder::new("s");
        let x = b.add_actor("x", 1);
        let y = b.add_actor("y", 1);
        b.add_channel_full("e", x, 1, y, 1, 0, 16);
        let g = b.build().unwrap();
        let mut mb = HomogeneousModelBuilder::new("microblaze");
        mb.actor("x", 40, 2048, 256).actor("y", 70, 2048, 256);
        let app = mb.finish(g, None).unwrap();
        let arch = Architecture::homogeneous("x", 2, Interconnect::fsl()).unwrap();
        let mapped = map_application(&app, &arch, &MapOptions::default()).unwrap();
        let s = render_mapping_summary(&app, &arch, &mapped);
        assert!(s.contains("binder: greedy"));
        assert!(s.contains('x') && s.contains('y'));
        assert!(s.contains("load"));
    }
}
