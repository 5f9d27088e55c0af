//! Per-execution planning for the LD-GPU driver: each device's batch
//! plan or streaming band plan, the cluster placement, and the walks an
//! execution's lanes bill.

use ldgm_graph::csr::CsrGraph;
use ldgm_part::placement::{cut_stats, CutStats, NodePlacement};
use ldgm_part::{batch, memory, plan_substreams, Partition, SubstreamPlan, VertexRange};

use super::config::{LdGpuConfig, LdGpuError};

/// How a lane's pointing phase is billed: its scan and its batch plan.
/// Every walk of an execution forms its own batches and warps from the
/// one slot log the kernels wrote ([`bill_launch`](super::kernels::bill_launch)).
pub(crate) struct Walk {
    /// Bill whole lists (the paper's CSR scan), not the logged early
    /// exits of the sorted scan.
    pub(crate) full_scan: bool,
    /// Batches per device, as reported (streaming: the deepest band
    /// count).
    pub(crate) count: usize,
    /// Per-device batch plans (empty when streaming).
    pub(crate) plans: Vec<Vec<VertexRange>>,
}

/// Plan the walks of one execution's batch lanes, one per distinct
/// (scan, batch count) of `cfgs`. Returns the walks and each config's
/// walk index, in order, or the error its own run would raise when its
/// fixed batch plan does not fit.
pub(crate) fn plan_walks(
    g: &CsrGraph,
    partition: &Partition,
    cfgs: &[LdGpuConfig],
) -> (Vec<Walk>, Vec<Result<usize, LdGpuError>>) {
    let (mut keys, mut walks) = (Vec::new(), Vec::new());
    let mut place = |c: &LdGpuConfig| {
        let key = (!c.sorted_index, c.batches);
        if let Some(w) = keys.iter().position(|k| *k == key) {
            return Ok(w);
        }
        let (count, plans) = plan_batches(g, partition, c)?;
        keys.push(key);
        walks.push(Walk { full_scan: key.0, count, plans });
        Ok(walks.len() - 1)
    };
    let placed = cfgs.iter().map(&mut place).collect();
    (walks, placed)
}

/// Out-of-core planning: size a resident band window per device.
pub(crate) fn plan_bands(
    g: &CsrGraph,
    partition: &Partition,
    cfg: &LdGpuConfig,
) -> Result<Vec<SubstreamPlan>, LdGpuError> {
    let budget = cfg.mem_budget.unwrap_or(cfg.platform.device.mem_bytes);
    let window = cfg.stream_window.unwrap_or(2).max(2);
    let plan = |(device, part)| {
        plan_substreams(g, part, g.num_vertices(), budget, window).map_err(|e| {
            LdGpuError::StreamPlanTooLarge {
                device,
                window,
                required: e.required,
                mem_bytes: e.mem_bytes,
            }
        })
    };
    partition.parts.iter().enumerate().map(plan).collect()
}

/// Batch plans with an identical count per device (paper §III-C): the
/// configured count, which must fit device memory, or else the minimum
/// count that fits. Returns the count and the per-device plans.
fn plan_batches(
    g: &CsrGraph,
    partition: &Partition,
    cfg: &LdGpuConfig,
) -> Result<(usize, Vec<Vec<VertexRange>>), LdGpuError> {
    let (n, mem) = (g.num_vertices(), cfg.platform.device.mem_bytes);
    let mut count = cfg.batches.unwrap_or(1);
    if cfg.batches.is_none() {
        for (device, part) in partition.parts.iter().enumerate() {
            let fit = batch::min_batches_to_fit(g, part, n, mem, 1);
            count = count.max(fit.ok_or(LdGpuError::OutOfMemory { device, mem_bytes: mem })?);
        }
    }
    let plans: Vec<_> = partition.parts.iter().map(|p| batch::make_batches(g, p, count)).collect();
    for (device, plan) in plans.iter().enumerate() {
        let required = memory::device_footprint_bytes(plan, n);
        if cfg.batches.is_some() && required > mem {
            return Err(LdGpuError::BatchPlanTooLarge {
                device,
                batches: count,
                required,
                mem_bytes: mem,
            });
        }
    }
    Ok((count, plans))
}

/// Cluster placement: decide which parts share a node and measure the
/// inter-node cut. Billing-layer only — the reductions still span every
/// device and the matching is bit-identical under any placement; what
/// changes is how much of each collective payload the simulator sends
/// over the slow inter-node link. `None` when the devices fit one node.
pub(crate) fn place_on_nodes(
    g: &CsrGraph,
    partition: &Partition,
    cfg: &LdGpuConfig,
    ndev: usize,
) -> Option<CutStats> {
    let topo = cfg.platform.cluster_topology()?;
    let nodes = topo.nodes_spanned(ndev);
    if nodes <= 1 {
        return None;
    }
    let caps: Vec<usize> = (0..nodes).map(|node| topo.devices_on_node(node, ndev)).collect();
    let placement = if cfg.topology_placement {
        NodePlacement::topology_aware(g, partition, &caps)
    } else {
        NodePlacement::grouped(ndev, &caps)
    };
    Some(cut_stats(g, partition, &placement))
}
