//! JSON run reports: one self-describing document per matcher run,
//! written by `ldgm match --report-json` and the bench harness.
//!
//! Schema (version 5 — v2 added the `comm.exposed_time`,
//! `comm.hidden_time` and `stream.occupancy` gauges emitted by the
//! overlap-aware runtime to the `metrics` map; v3 added the cluster
//! metrics emitted on multi-node platforms — `cluster.nodes`,
//! `comm.intra_node_bytes`, `comm.inter_node_bytes`, `comm.inter_time`,
//! `comm.hier_fallbacks`, `part.inter_node_cut`,
//! `part.boundary_fraction`; v4 added the top-level `wall_time_ms`
//! field — host milliseconds the run actually took, the simulator's
//! own execution cost next to the billed `sim_time`; v5 added the
//! out-of-core streaming metrics emitted by `--stream` runs —
//! `mem.resident_bytes`, `mem.evictions`, `copy.prefetch_hidden_time`,
//! `copy.prefetch_exposed_time`):
//!
//! ```json
//! {
//!   "schema_version": 5,
//!   "algorithm": "ld-gpu",
//!   "platform": "dgx-a100",
//!   "graph":    { "vertices": N, "directed_edges": M },
//!   "matching": { "cardinality": C, "weight": W },
//!   "sim_time": T,
//!   "wall_time_ms": W,
//!   "iterations": K,
//!   "phases": { "pointing": .., "matching": .., "allreduce": ..,
//!               "transfer": .., "sync": .., "total": .. },
//!   "metrics": { "<name>": { "type": "counter", "value": .. }, ... }
//! }
//! ```
//!
//! Invariant: `phases.total == sim_time` within 1e-6 — phase values come
//! from [`crate::export::timeline_breakdown`] (simulated matchers) or
//! from wall-clock phase timing whose sum *defines* the run time (host
//! matchers). `platform` is `null` for host-only algorithms.

use crate::json::Json;
use crate::metrics::MetricsRegistry;
use crate::profile::PhaseBreakdown;

/// Everything `ldgm match --report-json` says about one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Registry name of the algorithm (`"ld-gpu"`, `"suitor"`, ...).
    pub algorithm: String,
    /// Platform preset name; `None` for host-only algorithms.
    pub platform: Option<String>,
    /// Vertices in the input graph.
    pub vertices: u64,
    /// Directed edge slots in the input graph (2|E|).
    pub directed_edges: u64,
    /// Matched edges.
    pub cardinality: u64,
    /// Total matching weight.
    pub weight: f64,
    /// End-to-end run time: simulated seconds for platform algorithms,
    /// wall-clock seconds for host algorithms.
    pub sim_time: f64,
    /// Host wall-clock milliseconds the run took to execute — the
    /// simulator's own cost, independent of the billed `sim_time`
    /// (schema v4). Zero when the caller did not measure it. When an
    /// auto-tuned run reports the tuner's own full run of the locked
    /// config (`ldgm match --auto-tune`), this is the whole tuning
    /// search, which includes that run.
    pub wall_time_ms: f64,
    /// Algorithm iterations/rounds (0 when the notion doesn't apply).
    pub iterations: u64,
    /// Phase attribution; must sum to `sim_time`.
    pub phases: PhaseBreakdown,
    /// Run metrics.
    pub metrics: MetricsRegistry,
}

/// JSON object for a phase breakdown, with the redundant-but-convenient
/// `total` field.
pub fn phases_json(p: &PhaseBreakdown) -> Json {
    Json::object()
        .with("pointing", p.pointing)
        .with("matching", p.matching)
        .with("allreduce", p.allreduce)
        .with("transfer", p.transfer)
        .with("sync", p.sync)
        .with("total", p.total())
}

impl RunReport {
    /// Serialize to the schema-versioned JSON document.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("schema_version", 5u64)
            .with("algorithm", self.algorithm.clone())
            .with(
                "platform",
                match &self.platform {
                    Some(p) => Json::Str(p.clone()),
                    None => Json::Null,
                },
            )
            .with(
                "graph",
                Json::object()
                    .with("vertices", self.vertices)
                    .with("directed_edges", self.directed_edges),
            )
            .with(
                "matching",
                Json::object().with("cardinality", self.cardinality).with("weight", self.weight),
            )
            .with("sim_time", self.sim_time)
            .with("wall_time_ms", self.wall_time_ms)
            .with("iterations", self.iterations)
            .with("phases", phases_json(&self.phases))
            .with("metrics", self.metrics.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> RunReport {
        let mut metrics = MetricsRegistry::new();
        metrics.counter_add("kernel.edges_scanned", 1234);
        metrics.gauge_set("kernel.occupancy", 0.875);
        RunReport {
            algorithm: "ld-gpu".into(),
            platform: Some("dgx-a100".into()),
            vertices: 100,
            directed_edges: 500,
            cardinality: 42,
            weight: 12.5,
            sim_time: 1.0,
            wall_time_ms: 2.75,
            iterations: 7,
            phases: PhaseBreakdown {
                pointing: 0.4,
                matching: 0.1,
                allreduce: 0.3,
                transfer: 0.15,
                sync: 0.05,
            },
            metrics,
        }
    }

    #[test]
    fn schema_fields_present() {
        let j = sample().to_json();
        assert_eq!(j.get("schema_version").and_then(Json::as_f64), Some(5.0));
        assert_eq!(j.get("wall_time_ms").and_then(Json::as_f64), Some(2.75));
        assert_eq!(j.get("algorithm").and_then(Json::as_str), Some("ld-gpu"));
        assert_eq!(j.get("platform").and_then(Json::as_str), Some("dgx-a100"));
        let g = j.get("graph").unwrap();
        assert_eq!(g.get("vertices").and_then(Json::as_f64), Some(100.0));
        let m = j.get("matching").unwrap();
        assert_eq!(m.get("weight").and_then(Json::as_f64), Some(12.5));
        assert_eq!(
            j.get("metrics")
                .and_then(|ms| ms.get("kernel.edges_scanned"))
                .and_then(|c| c.get("value"))
                .and_then(Json::as_f64),
            Some(1234.0)
        );
    }

    #[test]
    fn phase_total_matches_sim_time() {
        let r = sample();
        let j = r.to_json();
        let total = j.get("phases").and_then(|p| p.get("total")).and_then(Json::as_f64).unwrap();
        let sim_time = j.get("sim_time").and_then(Json::as_f64).unwrap();
        assert!((total - sim_time).abs() < 1e-6);
    }

    #[test]
    fn host_algorithm_has_null_platform() {
        let r = RunReport { platform: None, ..sample() };
        let j = r.to_json();
        assert_eq!(j.get("platform"), Some(&Json::Null));
    }

    #[test]
    fn document_round_trips() {
        let text = sample().to_json().to_string_pretty();
        let parsed = json::parse(&text).unwrap();
        assert_eq!(parsed, sample().to_json());
    }

    #[test]
    fn v5_streaming_metrics_round_trip() {
        // The schema-5 additions: out-of-core streaming metrics must
        // survive a serialize/parse cycle with their values intact.
        let mut r = sample();
        r.metrics.gauge_set(crate::metrics::names::MEM_RESIDENT_BYTES, 8.5e6);
        r.metrics.counter_add(crate::metrics::names::MEM_EVICTIONS, 42);
        r.metrics.gauge_set(crate::metrics::names::COPY_PREFETCH_HIDDEN_TIME, 2.5e-3);
        r.metrics.gauge_set(crate::metrics::names::COPY_PREFETCH_EXPOSED_TIME, 5.0e-4);
        let parsed = json::parse(&r.to_json().to_string_pretty()).unwrap();
        assert_eq!(parsed, r.to_json());
        let ms = parsed.get("metrics").unwrap();
        for (name, want) in [
            ("mem.resident_bytes", 8.5e6),
            ("mem.evictions", 42.0),
            ("copy.prefetch_hidden_time", 2.5e-3),
            ("copy.prefetch_exposed_time", 5.0e-4),
        ] {
            let v = ms.get(name).and_then(|m| m.get("value")).and_then(Json::as_f64);
            assert_eq!(v, Some(want), "{name}");
        }
    }

    #[test]
    fn v2_comm_and_stream_gauges_round_trip() {
        // The schema-2 additions: overlap-engine gauges must survive a
        // serialize/parse cycle with their values intact.
        let mut r = sample();
        r.metrics.gauge_set(crate::metrics::names::COMM_EXPOSED_TIME, 3.25e-4);
        r.metrics.gauge_set(crate::metrics::names::COMM_HIDDEN_TIME, 1.5e-4);
        r.metrics.gauge_set(crate::metrics::names::STREAM_OCCUPANCY, 0.375);
        let parsed = json::parse(&r.to_json().to_string_pretty()).unwrap();
        assert_eq!(parsed, r.to_json());
        let ms = parsed.get("metrics").unwrap();
        for (name, want) in [
            ("comm.exposed_time", 3.25e-4),
            ("comm.hidden_time", 1.5e-4),
            ("stream.occupancy", 0.375),
        ] {
            let v = ms.get(name).and_then(|m| m.get("value")).and_then(Json::as_f64);
            assert_eq!(v, Some(want), "{name}");
        }
    }
}
