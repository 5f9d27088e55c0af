//! Compressed Sparse Row (CSR) storage for undirected weighted graphs.
//!
//! Following the paper's §III-A we store the nonzero structure in separate
//! vertex (offset), edge (adjacency) and value (weight) arrays, with 64-bit
//! edge offsets so graphs with more than 2^32 directed edges are
//! representable. Each undirected edge `{u, v}` is stored twice (once per
//! endpoint) and adjacency lists are sorted by neighbor id.

use std::ops::Range;

/// Vertex identifier. 32 bits covers the simulator-scale graphs (≤ 4.29 B
/// vertices) while halving adjacency memory versus `u64`.
pub type VertexId = u32;

/// Edge weight. The paper assigns positive reals; we use `f64` throughout.
pub type Weight = f64;

/// An undirected weighted graph in CSR form.
///
/// Invariants (enforced by [`crate::builder::GraphBuilder`] and checked by
/// [`CsrGraph::validate`]):
/// * `offsets.len() == n + 1`, `offsets[0] == 0`, offsets non-decreasing;
/// * `adj.len() == weights.len() == offsets[n]`;
/// * no self loops;
/// * symmetric: `v ∈ adj(u)` iff `u ∈ adj(v)`, with equal weights;
/// * each adjacency list is strictly sorted by neighbor id (no duplicate
///   edges).
#[derive(Clone, Debug, PartialEq)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    adj: Vec<VertexId>,
    weights: Vec<Weight>,
}

impl CsrGraph {
    /// Assemble a graph from raw CSR arrays.
    ///
    /// # Panics
    /// Panics (in debug builds, via [`CsrGraph::validate`]) if the arrays
    /// violate the structural invariants.
    pub fn from_raw(offsets: Vec<u64>, adj: Vec<VertexId>, weights: Vec<Weight>) -> Self {
        let g = CsrGraph { offsets, adj, weights };
        debug_assert_eq!(g.validate(), Ok(()));
        g
    }

    /// The empty graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        CsrGraph { offsets: vec![0; n + 1], adj: Vec::new(), weights: Vec::new() }
    }

    /// Number of vertices `n = |V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Number of directed (stored) edges, `2m`.
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.adj.len()
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Neighbor ids of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Weights parallel to [`CsrGraph::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> &[Weight] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.weights[lo..hi]
    }

    /// Iterate `(neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn edges_of(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.neighbors(v).iter().copied().zip(self.neighbor_weights(v).iter().copied())
    }

    /// The CSR offset array (length `n + 1`).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The full adjacency array (length `2m`).
    #[inline]
    pub fn adjacency(&self) -> &[VertexId] {
        &self.adj
    }

    /// The full weight array (length `2m`).
    #[inline]
    pub fn weight_array(&self) -> &[Weight] {
        &self.weights
    }

    /// Weight of edge `{u, v}` if present (binary search in `u`'s sorted
    /// adjacency list).
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let nbrs = self.neighbors(u);
        nbrs.binary_search(&v).ok().map(|i| self.neighbor_weights(u)[i])
    }

    /// Whether edge `{u, v}` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Iterate each undirected edge once as `(u, v, w)` with `u < v`.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        (0..self.num_vertices() as VertexId).flat_map(move |u| {
            self.edges_of(u).filter(move |&(v, _)| u < v).map(move |(v, w)| (u, v, w))
        })
    }

    /// Sum of all edge weights, `w(E)`.
    pub fn total_weight(&self) -> f64 {
        // Each undirected edge is stored twice.
        self.weights.iter().sum::<f64>() / 2.0
    }

    /// Maximum degree `d_max`.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree `d_avg = 2m / n`.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_directed_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Bytes required to store this graph's CSR arrays, matching the
    /// device-memory accounting of the paper (§III-A: "edge information is
    /// stored as 64-bit integers"): 8 B per offset, 8 B per stored edge id
    /// and 8 B per stored weight.
    pub fn csr_bytes(&self) -> u64 {
        (self.offsets.len() as u64) * 8 + (self.adj.len() as u64) * (8 + 8)
    }

    /// Bytes of the edge (adjacency + weight) arrays covering the directed
    /// edge range `[lo, hi)` — used for batch transfer accounting.
    pub fn edge_range_bytes(lo: u64, hi: u64) -> u64 {
        (hi - lo) * (8 + 8)
    }

    /// Check all structural invariants; returns a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices();
        if self.offsets[0] != 0 {
            return Err("offsets[0] != 0".into());
        }
        if self.adj.len() != self.weights.len() {
            return Err("adj/weights length mismatch".into());
        }
        if *self.offsets.last().unwrap() != self.adj.len() as u64 {
            return Err("offsets[n] != adj.len()".into());
        }
        for v in 0..n {
            if self.offsets[v] > self.offsets[v + 1] {
                return Err(format!("offsets decrease at vertex {v}"));
            }
            let nbrs = self.neighbors(v as VertexId);
            for win in nbrs.windows(2) {
                if win[0] >= win[1] {
                    return Err(format!("adjacency of {v} not strictly sorted"));
                }
            }
            for (u, w) in self.edges_of(v as VertexId) {
                if u as usize >= n {
                    return Err(format!("vertex {v} has out-of-range neighbor {u}"));
                }
                if u as usize == v {
                    return Err(format!("self loop at {v}"));
                }
                if !w.is_finite() || w <= 0.0 {
                    return Err(format!("non-positive weight {w} on {{{v},{u}}}"));
                }
                match self.edge_weight(u, v as VertexId) {
                    None => return Err(format!("edge {{{v},{u}}} not symmetric")),
                    Some(w2) if w2 != w => {
                        return Err(format!("asymmetric weight on {{{v},{u}}}: {w} vs {w2}"))
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Extract the subgraph induced on the contiguous vertex range
    /// `[lo, hi)`, relabeling vertices to `0..hi-lo`. Edges with an endpoint
    /// outside the range are dropped. Used by tests and the cuGraph-style
    /// baseline's per-process filtering.
    pub fn induced_range(&self, lo: VertexId, hi: VertexId) -> CsrGraph {
        let n = (hi - lo) as usize;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut adj = Vec::new();
        let mut weights = Vec::new();
        for v in lo..hi {
            for (u, w) in self.edges_of(v) {
                if u >= lo && u < hi {
                    adj.push(u - lo);
                    weights.push(w);
                }
            }
            offsets.push(adj.len() as u64);
        }
        CsrGraph { offsets, adj, weights }
    }
}

/// Fewest adjacency slots worth a parallel task of their own; smaller
/// graphs stay on the calling thread.
const MIN_TASK_SLOTS: usize = 1 << 16;

/// Task count for a per-vertex pass over `slots` adjacency slots: at most
/// one per core, and at least [`MIN_TASK_SLOTS`] slots per task.
pub(crate) fn slot_tasks(slots: usize) -> usize {
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    threads.min(slots / MIN_TASK_SLOTS).max(1)
}

/// Split the vertices `0..offsets.len() - 1` into `tasks` contiguous
/// ranges holding about equal adjacency-slot counts. A vertex is never
/// split, so a hub heavier than one share makes its range larger and
/// leaves some later ranges empty.
pub(crate) fn split_by_slots(offsets: &[u64], tasks: usize) -> Vec<Range<usize>> {
    let n = offsets.len() - 1;
    let slots = offsets[n];
    let mut cuts = Vec::with_capacity(tasks + 1);
    cuts.push(0);
    for t in 1..tasks as u64 {
        let target = slots * t / tasks as u64;
        // `target < slots`, so the cut lands in `0..=n`.
        cuts.push(offsets.partition_point(|&o| o < target));
    }
    cuts.push(n);
    cuts.windows(2).map(|c| c[0]..c[1]).collect()
}

/// The [`split_by_slots`] ranges, each paired with its disjoint slices of
/// the adjacency lanes `adj` and `ws` (laid out by `offsets`).
pub(crate) fn split_lanes<'a>(
    offsets: &[u64],
    adj: &'a mut [VertexId],
    ws: &'a mut [Weight],
    tasks: usize,
) -> Vec<(Range<usize>, &'a mut [VertexId], &'a mut [Weight])> {
    let mut jobs = Vec::with_capacity(tasks);
    let (mut adj_rest, mut w_rest) = (adj, ws);
    for vs in split_by_slots(offsets, tasks) {
        let len = (offsets[vs.end] - offsets[vs.start]) as usize;
        let (a, a_next) = adj_rest.split_at_mut(len);
        let (w, w_next) = w_rest.split_at_mut(len);
        (adj_rest, w_rest) = (a_next, w_next);
        jobs.push((vs, a, w));
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> CsrGraph {
        GraphBuilder::new(3).add_edge(0, 1, 1.0).add_edge(1, 2, 2.0).add_edge(0, 2, 3.0).build()
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn triangle_basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_directed_edges(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbor_weights(0), &[1.0, 3.0]);
        assert_eq!(g.edge_weight(1, 2), Some(2.0));
        assert_eq!(g.edge_weight(2, 1), Some(2.0));
        assert_eq!(g.edge_weight(0, 0), None);
        assert!(g.has_edge(0, 2));
        assert_eq!(g.total_weight(), 6.0);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn iter_edges_yields_each_once() {
        let g = triangle();
        let edges: Vec<_> = g.iter_edges().collect();
        assert_eq!(edges, vec![(0, 1, 1.0), (0, 2, 3.0), (1, 2, 2.0)]);
    }

    #[test]
    fn csr_bytes_accounting() {
        let g = triangle();
        // 4 offsets * 8 + 6 stored edges * 16.
        assert_eq!(g.csr_bytes(), 4 * 8 + 6 * 16);
        assert_eq!(CsrGraph::edge_range_bytes(10, 20), 160);
    }

    #[test]
    fn induced_range_relabels() {
        let g = GraphBuilder::new(5)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 2.0)
            .add_edge(2, 3, 3.0)
            .add_edge(3, 4, 4.0)
            .add_edge(1, 3, 5.0)
            .build();
        let sub = g.induced_range(1, 4); // vertices 1,2,3 -> 0,1,2
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 3); // (1,2),(2,3),(1,3)
        assert_eq!(sub.edge_weight(0, 1), Some(2.0));
        assert_eq!(sub.edge_weight(1, 2), Some(3.0));
        assert_eq!(sub.edge_weight(0, 2), Some(5.0));
        assert_eq!(sub.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_asymmetry() {
        let g = CsrGraph { offsets: vec![0, 1, 1], adj: vec![1], weights: vec![1.0] };
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_self_loop() {
        let g = CsrGraph { offsets: vec![0, 1], adj: vec![0], weights: vec![1.0] };
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_nonpositive_weight() {
        let g = CsrGraph { offsets: vec![0, 1, 2], adj: vec![1, 0], weights: vec![0.0, 0.0] };
        assert!(g.validate().is_err());
    }
}
