//! The metric tables. `BENCHMARK.json` at the repository root lists the
//! same names, units and bounds (a test below holds them equal); the
//! per-layer table also names the end-to-end metric each layer metric
//! should move, and on which workload.

/// Whether smaller or larger is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// An end-to-end metric.
#[derive(Debug)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A per-layer metric.
#[derive(Debug)]
pub struct Layer {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric and workload(s) it should move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Printed with `--trace 0`.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("steps_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("req_per_s", "1/s", Higher, 0.25),
    e2e("miss_p50_ms", "ms", Lower, 0.25),
    e2e("miss_p99_ms", "ms", Lower, 0.25),
];

/// Printed with `--trace 1`. The hit latencies sit here, not in
/// [`END_TO_END`]: the batch workloads' in-process replays take tens of
/// microseconds, and their median and tail followed the host's load
/// from run to run by more than any bound. On `serve_mix` a hit is the
/// median request, so `wall_s` and `req_per_s` carry it end to end.
pub const LAYERS: [Layer; 34] = [
    layer(
        "hit_p50_ms",
        "ms",
        Lower,
        "wall_s and req_per_s on serve_mix",
    ),
    layer(
        "hit_p99_ms",
        "ms",
        Lower,
        "wall_s and req_per_s on serve_mix",
    ),
    layer(
        "spec.parse_us",
        "us",
        Lower,
        "wall_s on serve_mix (a hit is the median request)",
    ),
    layer(
        "sweep.plan_us",
        "us",
        Lower,
        "wall_s on serve_mix (a hit is the median request)",
    ),
    layer("graph.build_s", "s", Lower, "setup_s on large_n (ungated)"),
    layer("sim.assemble_s", "s", Lower, "setup_s on large_n (ungated)"),
    layer(
        "sim.run_s",
        "s",
        Lower,
        "steps_per_s on every batch workload",
    ),
    layer(
        "sim.cpu_util",
        "ratio",
        Higher,
        "steps_per_s on large_n (ungated; one thread today)",
    ),
    layer(
        "sim.steps",
        "count",
        Higher,
        "steps_per_s on every batch workload",
    ),
    layer(
        "sim.trials",
        "count",
        Higher,
        "steps_per_s on every batch workload",
    ),
    layer(
        "sim.converged",
        "count",
        Higher,
        "steps_per_s on every batch workload",
    ),
    layer(
        "core.step_ns",
        "ns",
        Lower,
        "steps_per_s on large_n (ungated)",
    ),
    layer(
        "core.bytes_per_step",
        "B",
        Lower,
        "steps_per_s on large_n (ungated)",
    ),
    layer(
        "core.step_over_chase",
        "ratio",
        Lower,
        "steps_per_s on large_n (ungated)",
    ),
    layer(
        "sim.driver_share",
        "ratio",
        Lower,
        "steps_per_s on churn_converge",
    ),
    layer(
        "graph.churn_commit_us",
        "us",
        Lower,
        "steps_per_s on churn_converge",
    ),
    layer(
        "graph.patched",
        "count",
        Higher,
        "steps_per_s on churn_converge",
    ),
    layer(
        "graph.rebuilt",
        "count",
        Lower,
        "steps_per_s on churn_converge",
    ),
    layer(
        "rows.format_us",
        "us",
        Lower,
        "wall_s on serve_mix (a hit is the median request)",
    ),
    layer(
        "rows.bytes",
        "B",
        Lower,
        "wall_s on serve_mix (a hit is the median request)",
    ),
    layer(
        "cache.get_us",
        "us",
        Lower,
        "wall_s on serve_mix (a hit is the median request)",
    ),
    layer("cache.insert_us", "us", Lower, "miss_p50_ms on serve_mix"),
    layer(
        "cache.hit_ratio",
        "ratio",
        Higher,
        "wall_s and miss_p50_ms on serve_mix",
    ),
    layer(
        "serve.ping_us",
        "us",
        Lower,
        "wall_s on serve_mix (a hit is the median request)",
    ),
    layer(
        "serve.hit_persistent_ms",
        "ms",
        Lower,
        "wall_s on serve_mix (a hit is the median request)",
    ),
    layer(
        "serve.hit_fresh_conn_ms",
        "ms",
        Lower,
        "wall_s on serve_mix (a hit is the median request)",
    ),
    layer(
        "serve.miss_compute_ms",
        "ms",
        Lower,
        "miss_p50_ms on serve_mix",
    ),
    layer(
        "machine.copy_gbps",
        "GB/s",
        Higher,
        "none: the bandwidth ceiling",
    ),
    layer("machine.chase_ns", "ns", Lower, "none: the latency ceiling"),
    layer(
        "trace.overhead_frac",
        "ratio",
        Lower,
        "none: the traced run's own cost",
    ),
    layer(
        "trace.self_sum_frac",
        "ratio",
        Higher,
        "none: share of wall_s the layer spans explain",
    ),
    layer("e2e.setup_s", "s", Lower, "setup_s with tracing on"),
    layer("e2e.wall_s", "s", Lower, "wall_s with tracing on"),
    layer(
        "e2e.miss_p50_ms",
        "ms",
        Lower,
        "miss_p50_ms with tracing on",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn better(b: Better) -> &'static str {
        match b {
            Lower => "lower",
            Higher => "higher",
        }
    }

    /// The manifest must list exactly these metrics, in this order.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let (e2e_part, layer_part) = json
            .split_once("\"per_layer\"")
            .expect("a per_layer section");
        let mut at = 0;
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.better),
                m.bound
            );
            let found = e2e_part[at..]
                .find(&entry)
                .unwrap_or_else(|| panic!("missing {entry}"));
            at += found + entry.len();
        }
        assert_eq!(e2e_part.matches("\"bound\"").count(), END_TO_END.len());
        let mut at = 0;
        for m in &LAYERS {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.better)
            );
            let found = layer_part[at..]
                .find(&entry)
                .unwrap_or_else(|| panic!("missing {entry}"));
            at += found + entry.len();
        }
        assert_eq!(layer_part.matches("\"name\"").count(), LAYERS.len());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(LAYERS.iter().map(|m| m.name))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "{n} twice");
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
