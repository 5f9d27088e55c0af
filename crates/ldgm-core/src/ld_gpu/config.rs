//! LD-GPU run configuration and errors.

use ldgm_gpusim::Platform;

use crate::matcher::MatchError;

/// Configuration of an LD-GPU run.
#[derive(Clone, Debug, PartialEq)]
pub struct LdGpuConfig {
    /// Simulated platform (device model, interconnect, cost model, comm
    /// runtime).
    pub platform: Platform,
    /// Devices to use (clamped to `platform.max_devices`).
    pub devices: usize,
    /// Batches per device; `None` selects the minimum count whose
    /// double-buffered footprint fits device memory — the paper's default
    /// policy ("we attempt to minimize the number of batches").
    pub batches: Option<usize>,
    /// Vertices assigned to each warp in the pointing kernel; `None`
    /// derives it from the device's resident-warp capacity.
    pub vertices_per_warp: Option<usize>,
    /// Retire vertices whose neighborhoods are exhausted (LD-GPU behaviour;
    /// the cuGraph-style baseline disables this and rescans every vertex
    /// each iteration).
    pub retire_exhausted: bool,
    /// Multiplier on kernel compute cost (1.0 for LD-GPU; > 1 models less
    /// specialized kernels in framework baselines).
    pub kernel_overhead: f64,
    /// Record per-iteration profiling (Figs. 8/11). Cheap; on by default.
    pub collect_iterations: bool,
    /// Record a full event [`ldgm_gpusim::Trace`] (copies, kernels,
    /// collectives, syncs) for Gantt inspection. Off by default.
    pub collect_trace: bool,
    /// Optimized mode: scan neighbors through a preference-sorted
    /// adjacency index ([`ldgm_graph::SortedAdjacency`]) so SETPOINTERS
    /// early-exits at the first available neighbor. [`super::LdGpu::try_run`]
    /// builds the index once per call; the auto-tuner builds it once per
    /// search and shares it across every run it makes.
    /// Off by default (the plain-`ld-gpu` paper-faithful full scan).
    pub sorted_index: bool,
    /// Optimized mode: after the first iteration, launch SETPOINTERS only
    /// over the cross-iteration frontier — vertices whose pointer target
    /// was matched away by the previous SETMATES. Off by default.
    pub frontier: bool,
    /// Optimized mode: replace the dense `8·|V|` pointer/mate allreduces
    /// with sparse delta collectives (~16 B per written entry). Off by
    /// default.
    pub sparse_collectives: bool,
    /// Overlap mode: skip the device barrier and run the collectives as
    /// chunked operations on a per-device comm stream — each batch's slice
    /// starts reducing when its kernel finishes, hiding wire time under
    /// the kernels of slower devices and next-iteration prefetches
    /// ([`ldgm_gpusim::SimRuntime::allreduce_chunked`]). Billing-only:
    /// kernel execution and the matching are untouched. Off by default.
    pub overlap: bool,
    /// Topology-aware placement: on a cluster platform, group the
    /// edge-balanced parts onto nodes so heavy cut edges stay on the
    /// fast intra-node link, and scale the inter-node stage of every
    /// collective by the partition's node-boundary fraction
    /// ([`ldgm_part::placement::NodePlacement::topology_aware`]).
    /// Billing-only: the matching is bit-identical under any placement.
    /// Ignored on single-node platforms. Off by default (conservative
    /// full-payload inter-node billing).
    pub topology_placement: bool,
    /// Stop after this many matching iterations, leaving the matching
    /// partial — the auto-tuner's probe mode, where a few iterations'
    /// simulated time ranks candidate configs without paying for full
    /// runs. `None` (the default) runs to termination.
    pub probe_iterations: Option<usize>,
    /// Out-of-core streaming mode: instead of double-buffered batches,
    /// stream each partition through fixed-width rank bands over the
    /// preference-sorted adjacency ([`ldgm_part::plan_substreams`]),
    /// keeping only a `stream_window`-band resident window per device
    /// while the copy stream prefetches the next band under the current
    /// kernel. Runs graphs whose batched footprint exceeds device
    /// memory; the matching is bit-identical to the resident paths.
    /// Off by default. When on, `batches` is ignored.
    pub streaming: bool,
    /// Per-device byte budget the streaming planner sizes its resident
    /// window against; `None` uses the platform's device memory.
    pub mem_budget: Option<u64>,
    /// Resident band slots per device in streaming mode (must be ≥ 2,
    /// the double-buffer minimum); `None` selects 2. Bands below the
    /// window stay resident across iterations for vertices still in the
    /// worklist, so steady-state rounds re-copy almost nothing.
    pub stream_window: Option<usize>,
}

impl LdGpuConfig {
    /// Default configuration on `platform`: 1 device, auto batches.
    pub fn new(platform: Platform) -> Self {
        LdGpuConfig {
            platform,
            devices: 1,
            batches: None,
            vertices_per_warp: None,
            retire_exhausted: true,
            kernel_overhead: 1.0,
            collect_iterations: true,
            collect_trace: false,
            sorted_index: false,
            frontier: false,
            sparse_collectives: false,
            overlap: false,
            topology_placement: false,
            probe_iterations: None,
            streaming: false,
            mem_budget: None,
            stream_window: None,
        }
    }

    /// Enable every optimization layer (the `ld-gpu-opt` preset): sorted
    /// index + cross-iteration frontier + sparse collectives.
    pub fn optimized(self) -> Self {
        self.with_sorted_index(true).with_frontier(true).with_sparse_collectives(true)
    }

    /// Toggle the preference-sorted adjacency index (early-exit scans).
    pub fn with_sorted_index(mut self, on: bool) -> Self {
        self.sorted_index = on;
        self
    }

    /// Toggle the cross-iteration pointing frontier.
    pub fn with_frontier(mut self, on: bool) -> Self {
        self.frontier = on;
        self
    }

    /// Toggle sparse delta collectives.
    pub fn with_sparse_collectives(mut self, on: bool) -> Self {
        self.sparse_collectives = on;
        self
    }

    /// Toggle communication/computation overlap (chunked collectives on
    /// the comm stream, no device barrier).
    pub fn with_overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }

    /// Toggle topology-aware part→node placement (cluster platforms
    /// only; billing-layer, matching unchanged).
    pub fn with_topology_placement(mut self, on: bool) -> Self {
        self.topology_placement = on;
        self
    }

    /// Toggle the out-of-core streaming engine (substream-pipelined
    /// rank bands instead of double-buffered batches).
    pub fn with_streaming(mut self, on: bool) -> Self {
        self.streaming = on;
        self
    }

    /// Cap the per-device byte budget the streaming planner may use
    /// (clamped up to 1; `None`/unset uses the platform memory).
    pub fn with_mem_budget(mut self, bytes: u64) -> Self {
        self.mem_budget = Some(bytes.max(1));
        self
    }

    /// Fix the resident streaming window (clamped to ≥ 2 bands).
    pub fn with_stream_window(mut self, bands: usize) -> Self {
        self.stream_window = Some(bands.max(2));
        self
    }

    /// Whether any kernel-side optimization layer is enabled — when false,
    /// the driver takes the byte-identical default `ld-gpu` kernel path.
    /// `overlap` is deliberately excluded: it changes only how collectives
    /// are billed, never which kernel variant runs.
    pub fn is_optimized(&self) -> bool {
        self.sorted_index || self.frontier || self.sparse_collectives
    }

    /// The config with its billing-lane knobs (`sparse_collectives`,
    /// `overlap`) cleared. Configs of one class make identical kernel
    /// calls and differ only in how collectives are billed, so one
    /// execution serves them all as lanes.
    pub(crate) fn execution_class(&self) -> LdGpuConfig {
        LdGpuConfig { sparse_collectives: false, overlap: false, ..self.clone() }
    }

    /// Set the device count.
    pub fn devices(mut self, n: usize) -> Self {
        self.devices = n.max(1);
        self
    }

    /// Fix the batch count per device.
    pub fn batches(mut self, b: usize) -> Self {
        self.batches = Some(b.max(1));
        self
    }

    /// Fix the vertices-per-warp work distribution.
    pub fn vertices_per_warp(mut self, v: usize) -> Self {
        self.vertices_per_warp = Some(v.max(1));
        self
    }

    /// Disable per-iteration profiling.
    pub fn without_iteration_profile(mut self) -> Self {
        self.collect_iterations = false;
        self
    }

    /// Enable event-trace recording (Gantt timelines).
    pub fn with_trace(mut self) -> Self {
        self.collect_trace = true;
        self
    }

    /// Reject nonsense combinations — zero counts, a non-positive kernel
    /// overhead, the frontier without retirement, streaming knobs without
    /// streaming — as [`MatchError::InvalidConfig`] instead of a silent
    /// clamp or a deep driver panic. The `with_*` chain clamps the counts
    /// it sets; struct literals and CLI-parsed values are checked here.
    pub fn validate(&self) -> Result<(), MatchError> {
        let bad = |msg: String| Err(MatchError::InvalidConfig(msg));
        if self.devices == 0 {
            return bad("devices must be >= 1".into());
        }
        if self.batches == Some(0) {
            return bad("batches must be >= 1 when fixed".into());
        }
        if self.vertices_per_warp == Some(0) {
            return bad("vertices_per_warp must be >= 1 when fixed".into());
        }
        if self.probe_iterations == Some(0) {
            return bad("probe_iterations must be >= 1 when set".into());
        }
        if !(self.kernel_overhead.is_finite() && self.kernel_overhead > 0.0) {
            return bad(format!(
                "kernel_overhead must be finite and > 0, got {}",
                self.kernel_overhead
            ));
        }
        if self.frontier && !self.retire_exhausted {
            return bad(
                "frontier requires retire_exhausted: the cross-iteration frontier is seeded \
                 from retirement bookkeeping, so a rescan-everything baseline cannot drive it"
                    .into(),
            );
        }
        if self.mem_budget == Some(0) {
            return bad("mem_budget must be >= 1 byte when set".into());
        }
        if let Some(w) = self.stream_window {
            if w < 2 {
                return bad(format!("stream_window must be >= 2 (double-buffer minimum), got {w}"));
            }
        }
        if !self.streaming && (self.mem_budget.is_some() || self.stream_window.is_some()) {
            return bad(
                "mem_budget/stream_window configure the streaming engine; enable streaming".into(),
            );
        }
        Ok(())
    }
}

/// Errors from an LD-GPU run.
#[derive(Clone, Debug, PartialEq)]
pub enum LdGpuError {
    /// A device partition cannot fit in device memory at any batch count
    /// (the |V|-sized global arrays or a single hub vertex overflow).
    OutOfMemory {
        /// Offending device index.
        device: usize,
        /// Device memory in bytes.
        mem_bytes: u64,
    },
    /// An explicitly requested batch count does not fit in device memory.
    BatchPlanTooLarge {
        /// Offending device index.
        device: usize,
        /// Requested batches.
        batches: usize,
        /// Required bytes for the plan.
        required: u64,
        /// Device memory in bytes.
        mem_bytes: u64,
    },
    /// The streaming planner cannot fit even the narrowest substream
    /// window — global state plus `window` single-rank bands overflow
    /// the per-device budget.
    StreamPlanTooLarge {
        /// Offending device index.
        device: usize,
        /// Requested resident window in bands.
        window: usize,
        /// Minimum bytes the narrowest pipeline needs.
        required: u64,
        /// The budget that was available.
        mem_bytes: u64,
    },
}

impl std::fmt::Display for LdGpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LdGpuError::OutOfMemory { device, mem_bytes } => write!(
                f,
                "device {device}: partition cannot fit in {mem_bytes} B at any batch count"
            ),
            LdGpuError::BatchPlanTooLarge { device, batches, required, mem_bytes } => write!(
                f,
                "device {device}: {batches}-batch plan needs {required} B, has {mem_bytes} B"
            ),
            LdGpuError::StreamPlanTooLarge { device, window, required, mem_bytes } => write!(
                f,
                "device {device}: {window}-band streaming window needs {required} B, \
                 has {mem_bytes} B"
            ),
        }
    }
}

impl std::error::Error for LdGpuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_the_chain() {
        let p = Platform::dgx_a100;
        let cfg =
            LdGpuConfig::new(p()).devices(4).batches(3).optimized().with_overlap(true).with_trace();
        cfg.validate().unwrap();
        assert!(cfg.is_optimized() && cfg.sorted_index && cfg.frontier && cfg.sparse_collectives);
        assert_eq!((cfg.devices, cfg.batches), (4, Some(3)));
        // The chain clamps the counts it sets, so it cannot build the
        // zero counts validate() rejects.
        let clamped = LdGpuConfig::new(p()).devices(0).batches(0).vertices_per_warp(0);
        assert_eq!((clamped.devices, clamped.batches), (1, Some(1)));
        assert_eq!(clamped.vertices_per_warp, Some(1));
        clamped.validate().unwrap();
    }

    #[test]
    fn validate_rejects_nonsense_combos() {
        let base = || LdGpuConfig::new(Platform::dgx_a100());
        let invalid = |cfg: LdGpuConfig| {
            let err = cfg.validate().unwrap_err();
            assert!(
                matches!(err, MatchError::InvalidConfig(_)),
                "expected InvalidConfig, got {err:?}"
            );
            err.to_string()
        };
        assert!(invalid(LdGpuConfig { devices: 0, ..base() }).contains("devices"));
        assert!(invalid(LdGpuConfig { batches: Some(0), ..base() }).contains("batches"));
        assert!(invalid(LdGpuConfig { vertices_per_warp: Some(0), ..base() })
            .contains("vertices_per_warp"));
        assert!(invalid(LdGpuConfig { probe_iterations: Some(0), ..base() })
            .contains("probe_iterations"));
        assert!(invalid(LdGpuConfig { kernel_overhead: 0.0, ..base() }).contains("kernel_overhead"));
        assert!(invalid(LdGpuConfig { kernel_overhead: f64::NAN, ..base() })
            .contains("kernel_overhead"));
        assert!(invalid(LdGpuConfig { retire_exhausted: false, ..base().with_frontier(true) })
            .contains("retire_exhausted"));
    }

    #[test]
    fn validate_checks_streaming_knobs() {
        let base = || LdGpuConfig::new(Platform::dgx_a100());
        let ok = base().with_streaming(true).with_mem_budget(1 << 20).with_stream_window(4);
        ok.validate().unwrap();
        assert_eq!((ok.mem_budget, ok.stream_window), (Some(1 << 20), Some(4)));
        let msg = |cfg: LdGpuConfig| cfg.validate().unwrap_err().to_string();
        let streamed = || base().with_streaming(true);
        assert!(msg(LdGpuConfig { stream_window: Some(1), ..streamed() }).contains("stream_window"));
        assert!(msg(LdGpuConfig { mem_budget: Some(0), ..streamed() }).contains("mem_budget"));
        assert!(msg(base().with_stream_window(4)).contains("streaming"));
        assert!(msg(base().with_mem_budget(1024)).contains("streaming"));
        // The chain clamps rather than validating, like the other
        // positional setters.
        assert_eq!(streamed().with_stream_window(0).stream_window, Some(2));
        assert_eq!(base().with_mem_budget(0).mem_budget, Some(1));
    }
}
