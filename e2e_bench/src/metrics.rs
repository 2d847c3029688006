//! The metric tables and the result line.

use std::collections::BTreeMap;

/// A metric name with its unit.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: [MetricDef; 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, printed by traced runs. Times are summed over every
/// call of a pass, so under parallel sweeps they add the time of both
/// workers; counts are totals of one pass.
pub const PER_LAYER: [MetricDef; 40] = [
    ("xml.parse_ms", "ms"),
    ("bind.ms", "ms"),
    ("bind.runs", "count"),
    ("bind.replays", "count"),
    ("wire_alloc.ms", "ms"),
    ("schedule.ms", "ms"),
    ("buffer_size.ms", "ms"),
    ("buffer_size.runs", "count"),
    ("buffer_size.replays", "count"),
    ("kernel.analyses", "count"),
    ("kernel.states", "count"),
    ("kernel.analyses_per_point", "ratio"),
    ("analysis_cache.hits", "count"),
    ("analysis_cache.misses", "count"),
    ("analysis_cache.hit_rate", "ratio"),
    ("analysis_cache.entries", "count"),
    ("pass_cache.hits", "count"),
    ("pass_cache.misses", "count"),
    ("pass_cache.hit_rate", "ratio"),
    ("cache_dir.load_ms", "ms"),
    ("cache_dir.persist_ms", "ms"),
    ("cache_dir.bytes", "bytes"),
    ("dse.points", "count"),
    ("dse.feasible", "count"),
    ("dse.skipped", "count"),
    ("dse.cpu_s", "s"),
    ("dse.parallel_eff", "ratio"),
    ("admission.ms", "ms"),
    ("admission.admitted", "count"),
    ("admission.rejected", "count"),
    ("verify_shared.ms", "ms"),
    ("verify_shared.runs", "count"),
    ("platform_gen.ms", "ms"),
    ("boot_sim.ms", "ms"),
    ("validate_sim.ms", "ms"),
    ("sim.cycles", "count"),
    ("sim.firings", "count"),
    ("sim.cycles_per_host_s", "1/s"),
    ("sim.firings_per_host_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer metrics that must repeat exactly between runs of the same
/// code on the same seed.
pub const EXACT: [&str; 14] = [
    "kernel.analyses",
    "kernel.states",
    "dse.points",
    "dse.feasible",
    "dse.skipped",
    "bind.runs",
    "bind.replays",
    "buffer_size.runs",
    "buffer_size.replays",
    "verify_shared.runs",
    "sim.cycles",
    "sim.firings",
    "admission.admitted",
    "admission.rejected",
];

/// Median of `values`; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The outcome of one run, rendered as the benchmark's last output line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Operations attempted over all measured passes.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// Metric values by name; every name of the printed table must be
    /// present.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl RunResult {
    /// The result line: `correct`, `attempted`, `failed`, and every metric
    /// of `table` with its unit.
    ///
    /// # Panics
    ///
    /// Panics when a metric of `table` was not measured, a bug in the
    /// benchmark.
    pub fn to_json(&self, table: &[MetricDef]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or_else(|| {
                    panic!("metric `{name}` was not measured");
                });
                assert!(v.is_finite(), "metric `{name}` is {v}");
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}
