//! Metric names, units and bounds, the percentile rule, and the result
//! line the benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// Metrics a user of the simulator sees, measured with tracing off.
/// Every workload reports every one of them.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("run_s", "s", Lower, 0.25),
    e2e("cell_p50_ms", "ms", Lower, 0.25),
    e2e("cell_p75_ms", "ms", Lower, 0.25),
    e2e("rays_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
    e2e("vtq_speedup_geomean", "x", Higher, 0.05),
];

/// Metrics of single layers, from the traced run. A layer that a
/// workload does not load reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("rtscene.build_s", "s", Lower),
    layer("rtbvh.build_s", "s", Lower),
    layer("rtbvh.nodes", "count", Lower),
    layer("rtbvh.treelets", "count", Lower),
    layer("workload.pathtrace_s", "s", Lower),
    layer("workload.rays", "count", Lower),
    layer("analytical.traces_s", "s", Lower),
    layer("analytical.model_s", "s", Lower),
    layer("analytical.node_visits", "count", Lower),
    layer("gpusim.run_s.baseline", "s", Lower),
    layer("gpusim.run_s.prefetch", "s", Lower),
    layer("gpusim.run_s.vtq", "s", Lower),
    layer("gpusim.ns_per_cycle.baseline", "ns", Lower),
    layer("gpusim.ns_per_cycle.prefetch", "ns", Lower),
    layer("gpusim.ns_per_cycle.vtq", "ns", Lower),
    layer("gpusim.cycles_per_s", "1/s", Higher),
    layer("gpusim.cycles.baseline", "cycles", Lower),
    layer("gpusim.cycles.prefetch", "cycles", Lower),
    layer("gpusim.cycles.vtq", "cycles", Lower),
    layer("gpusim.simt_eff.baseline", "frac", Higher),
    layer("gpusim.simt_eff.prefetch", "frac", Higher),
    layer("gpusim.simt_eff.vtq", "frac", Higher),
    layer("gpusim.box_tests", "count", Lower),
    layer("gpusim.tri_tests", "count", Lower),
    layer("gpusim.treelet_dispatches", "count", Lower),
    layer("gpusim.repack_events", "count", Lower),
    layer("gpusim.cta_suspends", "count", Lower),
    layer("gpusim.stall.busy", "cycles", Higher),
    layer("gpusim.stall.waiting_memory", "cycles", Lower),
    layer("gpusim.stall.warp_buffer_empty", "cycles", Lower),
    layer("gpusim.stall.queue_drained", "cycles", Lower),
    layer("gpusim.stall.idle", "cycles", Lower),
    layer("gpumem.bvh_lines.baseline", "count", Lower),
    layer("gpumem.bvh_lines.prefetch", "count", Lower),
    layer("gpumem.bvh_lines.vtq", "count", Lower),
    layer("gpumem.bvh_l1_hit_rate.baseline", "frac", Higher),
    layer("gpumem.bvh_l1_hit_rate.prefetch", "frac", Higher),
    layer("gpumem.bvh_l1_hit_rate.vtq", "frac", Higher),
    layer("gpumem.dram_lines.baseline", "count", Lower),
    layer("gpumem.dram_lines.prefetch", "count", Lower),
    layer("gpumem.dram_lines.vtq", "count", Lower),
    layer("sweep.busy_s", "s", Lower),
    layer("sweep.idle_frac", "frac", Lower),
    layer("sweep.prepared_builds", "count", Lower),
    layer("conformance.oracle_s", "s", Lower),
    layer("conformance.rays_checked", "count", Higher),
    layer("conformance.divergent", "count", Lower),
    layer("serve.accept_ms", "ms", Lower),
    layer("serve.first_event_ms", "ms", Lower),
    layer("serve.settle_ms", "ms", Lower),
    layer("serve.results_ms", "ms", Lower),
    layer("serve.cached_frac", "frac", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.job_fresh_p50_ms", "ms", Lower),
    layer("serve.job_fresh_p90_ms", "ms", Lower),
    layer("serve.job_cached_p50_ms", "ms", Lower),
    layer("serve.job_cached_p90_ms", "ms", Lower),
    layer("serve.jobs_per_s", "1/s", Higher),
    layer("trace.overhead_frac", "frac", Lower),
    layer("host.probe_ms", "ms", Lower),
];

/// Looks a metric up in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly above the percentile a tail metric needs before it is
/// reported: fewer leave the tail to one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// [`percentile`], but only when at least [`MIN_BEYOND`] samples lie
/// strictly above it.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let value = percentile(samples, q)?;
    let beyond = samples.iter().filter(|&&s| s > value).count();
    (beyond >= MIN_BEYOND).then_some(value)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| !(v > 0.0 && v.is_finite())) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// The benchmark's verdict: the last line of its standard output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<&'static str, f64>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let unit = find(name).map_or("", |m| m.unit);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
    /// with a letter or digit, at most 64 characters.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(20.0));
        assert_eq!(percentile(&xs, 0.75), Some(30.0));
        assert_eq!(percentile(&xs, 1.0), Some(40.0));
        assert_eq!(percentile(&[7.0], 0.5), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&xs, 0.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 40 samples: exactly 10 lie above p75, so it is reported.
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&forty, 0.75), Some(30.0));
        // 39 samples: only 9 lie above p75.
        assert_eq!(tail_percentile(&forty[..39], 0.75), None);
        // p90 needs 100 samples.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&hundred[..99], 0.9), None);
        // Ties with the percentile value are not "beyond" it.
        let tied = vec![1.0; 50];
        assert_eq!(tail_percentile(&tied, 0.75), None);
    }

    #[test]
    fn metric_names_and_counts_are_legal() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "metric {} listed twice", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "bad unit on {}", m.name);
        }
        for m in END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "bound of {}", m.name);
        }
        let setup = find("setup_s").expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
        assert!(!valid_name("gpusim.cycles/vtq") && !valid_name(".x") && !valid_name(""));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let declared: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .filter(|name| !crate::WORKLOADS.contains(name))
            .collect();
        let ours: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        assert_eq!(declared, ours);
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end bound");
            assert!(json.contains(&format!("\"bound\": {bound}")), "bound of {}", m.name);
        }
    }

    #[test]
    fn result_line_shape() {
        let mut m = BTreeMap::new();
        m.insert("run_s", 1.25);
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
