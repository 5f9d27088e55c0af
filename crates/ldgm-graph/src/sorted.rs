//! Preference-sorted adjacency index.
//!
//! [`SortedAdjacency`] stores a permuted copy of a [`CsrGraph`]'s
//! adjacency and weight arrays in which every vertex's neighbor list is
//! ordered by the canonical matching preference — weight descending, then
//! neighbor id ascending. Under that total order the *first available*
//! neighbor in a scan is exactly the argmax a full scan would select, so
//! pointing kernels can stop at the first hit instead of sweeping the
//! whole list. The index shares the base graph's offset array (same list
//! extents, different element order). It depends only on the graph, so
//! one build serves every run on that graph: a plain LD-GPU run builds it
//! once, and the auto-tuner builds it once for all of its probes.

use std::ops::Range;

use rayon::prelude::*;

use crate::csr::{slot_tasks, split_lanes, CsrGraph, VertexId, Weight};
use crate::soa::{key_id, key_weight, pack_key};

/// Per-vertex adjacency permuted into (weight desc, id asc) order.
///
/// Accessors take the base graph the index was built from; list extents
/// come from its offset array. Debug builds assert the vertex count still
/// matches.
#[derive(Clone, Debug, PartialEq)]
pub struct SortedAdjacency {
    num_vertices: usize,
    adj: Vec<VertexId>,
    weights: Vec<Weight>,
}

impl SortedAdjacency {
    /// Build the index, `O(Σ d_v log d_v)` work. Each vertex's list is
    /// sorted descending by its packed [`pack_key`] keys (weight bits
    /// high, complemented id low), whose `u128` order is the preference
    /// order; a list holds each neighbor once, so its keys are distinct
    /// and the unstable sort is exact. Vertex ranges of equal
    /// adjacency-slot count sort in parallel on the rayon pool, each with
    /// one key buffer reused across its vertices. The result does not
    /// depend on the split.
    pub fn build(g: &CsrGraph) -> Self {
        Self::build_in_tasks(g, slot_tasks(g.num_directed_edges()))
    }

    /// [`SortedAdjacency::build`] with the vertex set split into `tasks`
    /// ranges of about `|adjacency| / tasks` slots each.
    fn build_in_tasks(g: &CsrGraph, tasks: usize) -> Self {
        let n = g.num_vertices();
        let mut adj = g.adjacency().to_vec();
        let mut weights = g.weight_array().to_vec();
        split_lanes(g.offsets(), &mut adj, &mut weights, tasks)
            .into_par_iter()
            .for_each(|(vs, a, w)| sort_lists(g.offsets(), vs, a, w));
        SortedAdjacency { num_vertices: n, adj, weights }
    }

    /// Neighbor ids of `v` in preference order.
    #[inline]
    pub fn neighbors<'a>(&'a self, g: &CsrGraph, v: VertexId) -> &'a [VertexId] {
        debug_assert_eq!(self.num_vertices, g.num_vertices(), "index built from another graph");
        let lo = g.offsets()[v as usize] as usize;
        let hi = g.offsets()[v as usize + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Weights parallel to [`SortedAdjacency::neighbors`].
    #[inline]
    pub fn neighbor_weights<'a>(&'a self, g: &CsrGraph, v: VertexId) -> &'a [Weight] {
        debug_assert_eq!(self.num_vertices, g.num_vertices(), "index built from another graph");
        let lo = g.offsets()[v as usize] as usize;
        let hi = g.offsets()[v as usize + 1] as usize;
        &self.weights[lo..hi]
    }

    /// First *available* neighbor of `v` — the canonical argmax, since
    /// the list is in preference order — as `(neighbor, position)`, using
    /// the SoA availability lane (`avail[u] != 0` ⇔ `u` unmatched).
    /// Returns `None` when every neighbor is matched.
    #[inline]
    pub fn first_available(
        &self,
        g: &CsrGraph,
        v: VertexId,
        avail: &[u8],
    ) -> Option<(VertexId, usize)> {
        let nbrs = self.neighbors(g, v);
        crate::soa::first_available(nbrs, avail).map(|pos| (nbrs[pos], pos))
    }

    /// The full permuted id lane, indexed by the base graph's offsets —
    /// for kernels that slice a contiguous vertex range in one go.
    #[inline]
    pub fn adjacency(&self) -> &[VertexId] {
        &self.adj
    }

    /// The full permuted weight lane, parallel to
    /// [`SortedAdjacency::adjacency`].
    #[inline]
    pub fn weight_array(&self) -> &[Weight] {
        &self.weights
    }

    /// Vertex count of the graph the index was built from.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Adjacency slots (directed edges) of the graph the index was built
    /// from.
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.adj.len()
    }

    /// Bytes of the permuted copies (adjacency ids + weights) — what a
    /// device would additionally hold resident.
    pub fn index_bytes(&self) -> u64 {
        (self.adj.len() * std::mem::size_of::<VertexId>()
            + self.weights.len() * std::mem::size_of::<Weight>()) as u64
    }
}

/// Sort the lists of the vertices in `vs`, whose slots `adj` and `ws`
/// hold in base-graph order (a copy of the graph's lanes for that range).
fn sort_lists(offsets: &[u64], vs: Range<usize>, adj: &mut [VertexId], ws: &mut [Weight]) {
    let base = offsets[vs.start] as usize;
    let mut keys: Vec<u128> = Vec::new();
    for v in vs {
        let lo = offsets[v] as usize - base;
        let hi = offsets[v + 1] as usize - base;
        if hi - lo < 2 {
            continue;
        }
        let (ids, wts) = (&mut adj[lo..hi], &mut ws[lo..hi]);
        keys.clear();
        keys.extend(ids.iter().zip(wts.iter()).map(|(&u, &w)| pack_key(w, u)));
        keys.sort_unstable_by(|a, b| b.cmp(a));
        for ((k, id), w) in keys.iter().zip(ids).zip(wts) {
            *id = key_id(*k);
            *w = key_weight(*k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::csr::split_by_slots;
    use crate::gen::{rmat, urand, RmatParams};

    #[test]
    fn orders_by_weight_desc_then_id_asc() {
        let g = GraphBuilder::new(5)
            .add_edge(0, 1, 2.0)
            .add_edge(0, 2, 5.0)
            .add_edge(0, 3, 5.0)
            .add_edge(0, 4, 1.0)
            .build();
        let idx = SortedAdjacency::build(&g);
        assert_eq!(idx.neighbors(&g, 0), &[2, 3, 1, 4]);
        assert_eq!(idx.neighbor_weights(&g, 0), &[5.0, 5.0, 2.0, 1.0]);
        // Degree-1 lists are untouched but still addressable.
        assert_eq!(idx.neighbors(&g, 4), &[0]);
    }

    #[test]
    fn is_a_permutation_of_the_base_adjacency() {
        let g = rmat(512, 4000, RmatParams::GAP_KRON, 7);
        let idx = SortedAdjacency::build(&g);
        for v in 0..g.num_vertices() as VertexId {
            let mut base: Vec<(VertexId, u64)> = g
                .neighbors(v)
                .iter()
                .zip(g.neighbor_weights(v))
                .map(|(&id, &w)| (id, w.to_bits()))
                .collect();
            let mut sorted: Vec<(VertexId, u64)> = idx
                .neighbors(&g, v)
                .iter()
                .zip(idx.neighbor_weights(&g, v))
                .map(|(&id, &w)| (id, w.to_bits()))
                .collect();
            base.sort_unstable();
            sorted.sort_unstable();
            assert_eq!(base, sorted, "vertex {v}");
        }
    }

    #[test]
    fn first_entry_is_the_prefer_argmax() {
        // The invariant the early-exit kernel relies on: head of the list
        // == heaviest neighbor, smallest id on ties.
        let g = urand(300, 2400, 3);
        let idx = SortedAdjacency::build(&g);
        for v in 0..g.num_vertices() as VertexId {
            let ws = idx.neighbor_weights(&g, v);
            let ids = idx.neighbors(&g, v);
            for i in 1..ws.len() {
                assert!(
                    ws[i - 1] > ws[i] || (ws[i - 1] == ws[i] && ids[i - 1] < ids[i]),
                    "vertex {v}: slot {i} out of preference order"
                );
            }
        }
    }

    #[test]
    fn empty_and_isolated_graphs() {
        let g = CsrGraph::empty(4);
        let idx = SortedAdjacency::build(&g);
        assert_eq!(idx.neighbors(&g, 2), &[] as &[VertexId]);
        assert_eq!(idx.index_bytes(), 0);
    }

    /// The reference order: a comparator sort of `(id, weight)` pairs,
    /// weight descending, then id ascending.
    fn naive_sorted(g: &CsrGraph) -> Vec<(VertexId, u64)> {
        let mut out = Vec::with_capacity(g.num_directed_edges());
        for v in 0..g.num_vertices() as VertexId {
            let mut list: Vec<(VertexId, Weight)> = g.edges_of(v).collect();
            list.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
            out.extend(list.into_iter().map(|(u, w)| (u, w.to_bits())));
        }
        out
    }

    fn lanes(idx: &SortedAdjacency) -> Vec<(VertexId, u64)> {
        idx.adjacency().iter().zip(idx.weight_array()).map(|(&u, w)| (u, w.to_bits())).collect()
    }

    /// Graphs that stress the key order and the range split: weight ties
    /// everywhere, two weight classes, a hub heavier than any task's
    /// share, isolated vertices, and the 0- and 1-vertex graphs.
    fn reference_graphs() -> Vec<(&'static str, CsrGraph)> {
        let n = 300u32;
        let mut all_equal = GraphBuilder::new(n as usize);
        let mut two_valued = GraphBuilder::new(n as usize);
        for u in 0..n {
            for k in 1..=7 {
                let v = (u * 37 + k * 13) % n;
                all_equal.push_edge(u, v, 1.0);
                two_valued.push_edge(u, v, if (u + v).is_multiple_of(2) { 1.0 } else { 2.5 });
            }
        }
        // Hub in the middle of the id range, so cuts fall on both sides.
        let mut star = GraphBuilder::new(n as usize);
        for leaf in (0..n).filter(|&v| v != 150) {
            star.push_edge(150, leaf, 1.0 + (leaf % 3) as f64);
        }
        for leaf in 0..20 {
            star.push_edge(leaf, leaf + 1, 4.0);
        }
        // Edges only among 100..140 and 400..420; everything else isolated.
        let mut isolated = GraphBuilder::new(500);
        for (lo, hi) in [(100u32, 140u32), (400, 420)] {
            for u in lo..hi {
                for v in u + 1..hi.min(u + 6) {
                    isolated.push_edge(u, v, ((u * v) % 4 + 1) as f64);
                }
            }
        }
        vec![
            ("all-equal", all_equal.build()),
            ("two-valued", two_valued.build()),
            ("star", star.build()),
            ("isolated", isolated.build()),
            ("rmat", rmat(512, 4000, RmatParams::GAP_KRON, 7)),
            ("n=0 empty", CsrGraph::empty(0)),
            ("n=0 built", GraphBuilder::new(0).build()),
            ("n=1 empty", CsrGraph::empty(1)),
            ("n=1 built", GraphBuilder::new(1).build()),
        ]
    }

    #[test]
    fn build_matches_naive_comparator_sort_under_any_split() {
        for (name, g) in reference_graphs() {
            let want = naive_sorted(&g);
            assert_eq!(lanes(&SortedAdjacency::build(&g)), want, "{name}");
            for tasks in [1, 2, 3, 5, 16, 64] {
                let idx = SortedAdjacency::build_in_tasks(&g, tasks);
                assert_eq!(lanes(&idx), want, "{name}, {tasks} tasks");
                assert_eq!(idx.num_vertices(), g.num_vertices(), "{name}");
                assert_eq!(idx.num_directed_edges(), g.num_directed_edges(), "{name}");
            }
        }
    }

    #[test]
    fn split_tiles_the_vertices_even_past_a_hub() {
        let star = reference_graphs().swap_remove(2).1;
        let hub_degree = star.degree(150);
        for tasks in [3, 5, 16, 64] {
            // The hub alone is more than one task's share of the slots.
            assert!(hub_degree > star.num_directed_edges() / tasks);
            let ranges = split_by_slots(star.offsets(), tasks);
            assert_eq!(ranges.len(), tasks);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[tasks - 1].end, star.num_vertices());
            assert!(ranges.windows(2).all(|r| r[0].end == r[1].start), "{ranges:?}");
        }
        assert_eq!(split_by_slots(CsrGraph::empty(0).offsets(), 4), vec![0..0; 4]);
    }
}
