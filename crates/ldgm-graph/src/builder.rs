//! Edge-list to CSR construction.
//!
//! The builder accepts an arbitrary multiset of weighted edge tuples,
//! removes self loops, deduplicates parallel edges (keeping the heaviest,
//! so generators may emit duplicates freely), symmetrizes, and produces a
//! [`CsrGraph`] with sorted adjacency lists.
//!
//! [`GraphBuilder::build`] sorts the canonical `(u, v)` tuples (`u < v`),
//! heaviest first among duplicates, and keeps the first of each run. A
//! degree count and its prefix sum give the offsets, and one pass places
//! every tuple in both endpoints' lists. That pass leaves each list sorted
//! with no further work: vertex `x` receives its backward entries (tuples
//! `(u, x)`, `u < x`) in ascending `u` before any forward entry (tuples
//! `(x, v)`, in ascending `v`), since every tuple whose first endpoint is
//! below `x` sorts before those whose first endpoint is `x`.
//!
//! The place runs on the rayon pool as one task per destination-vertex
//! range of about equal slot count. Each task owns its ranges' slices of
//! the adjacency and weight lanes, scans the sorted tuples in order up to
//! the last one whose first endpoint is in range, and writes only the
//! entries whose destination it owns. Every list is therefore written in
//! the serial order, for any task count.

use std::collections::TryReserveError;
use std::ops::Range;

use rayon::prelude::*;

use crate::csr::{slot_tasks, split_lanes, CsrGraph, VertexId, Weight};

/// A canonical edge: `u < v`, positive finite weight.
pub(crate) type Edge = (VertexId, VertexId, Weight);

/// Accumulates edges and assembles a [`CsrGraph`].
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
}

/// `{u, v}` with weight `w` in canonical form, or `None` for a self loop
/// or a weight that is not positive and finite.
#[inline]
pub(crate) fn canonical_edge(u: VertexId, v: VertexId, w: Weight) -> Option<Edge> {
    if u == v || !w.is_finite() || w <= 0.0 {
        return None;
    }
    Some(if u < v { (u, v, w) } else { (v, u, w) })
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex count exceeds u32 id space");
        GraphBuilder { n, edges: Vec::new() }
    }

    /// Pre-reserve capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// A builder for `n` vertices holding `edges`, each already in
    /// [`canonical_edge`] form.
    pub(crate) fn from_canonical(n: usize, edges: Vec<Edge>) -> Self {
        let mut b = Self::new(n);
        b.edges = edges;
        b
    }

    /// Number of (raw, pre-dedup) edges added so far.
    pub fn raw_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Add an undirected edge `{u, v}` with weight `w`. Self loops and
    /// non-positive weights are silently dropped (the paper's weight
    /// function is strictly positive); duplicates are resolved at build
    /// time keeping the maximum weight.
    pub fn add_edge(mut self, u: VertexId, v: VertexId, w: Weight) -> Self {
        self.push_edge(u, v, w);
        self
    }

    /// In-place variant of [`GraphBuilder::add_edge`] for hot loops.
    #[inline]
    pub fn push_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        debug_assert!((u as usize) < self.n && (v as usize) < self.n, "endpoint out of range");
        if let Some(e) = canonical_edge(u, v, w) {
            self.edges.push(e);
        }
    }

    /// Build the CSR graph: dedup, symmetrize, count, place.
    ///
    /// # Panics
    /// Panics if the offset array (`n + 1` words) cannot be allocated.
    pub fn build(self) -> CsrGraph {
        self.try_build().expect("cannot allocate the CSR offset array")
    }

    /// [`GraphBuilder::build`], returning an error instead when the offset
    /// array cannot be allocated, as a hostile vertex count can demand.
    pub(crate) fn try_build(self) -> Result<CsrGraph, TryReserveError> {
        let GraphBuilder { n, mut edges } = self;
        dedup(&mut edges);
        let offsets = offsets(n, &edges)?;
        let (adj, weights) = place(&offsets, &edges, slot_tasks(2 * edges.len()));
        Ok(CsrGraph::from_raw(offsets, adj, weights))
    }

    /// Build from a pre-collected edge list.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (VertexId, VertexId, Weight)>,
    ) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for (u, v, w) in edges {
            b.push_edge(u, v, w);
        }
        b.build()
    }
}

/// Sort canonical edges by `(u, v)`, heaviest first, and keep the first
/// (heaviest) of each duplicate run.
fn dedup(edges: &mut Vec<Edge>) {
    edges.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(b.2.total_cmp(&a.2)));
    edges.dedup_by_key(|e| (e.0, e.1));
}

/// CSR offsets of `n` vertices carrying the undirected `edges`.
fn offsets(n: usize, edges: &[Edge]) -> Result<Vec<u64>, TryReserveError> {
    let mut offsets = Vec::new();
    offsets.try_reserve_exact(n + 1)?;
    offsets.resize(n + 1, 0u64);
    for &(u, v, _) in edges {
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    }
    for i in 1..=n {
        offsets[i] += offsets[i - 1];
    }
    Ok(offsets)
}

/// Place the sorted, deduplicated `edges` into adjacency and weight lanes
/// laid out by `offsets`, as `tasks` destination-vertex ranges in
/// parallel.
fn place(offsets: &[u64], edges: &[Edge], tasks: usize) -> (Vec<VertexId>, Vec<Weight>) {
    let total = offsets[offsets.len() - 1] as usize;
    let mut adj = vec![0 as VertexId; total];
    let mut weights = vec![0.0 as Weight; total];
    split_lanes(offsets, &mut adj, &mut weights, tasks)
        .into_par_iter()
        .for_each(|(vs, a, w)| place_range(offsets, edges, vs, a, w));
    (adj, weights)
}

/// Write the entries of `edges` whose destination lies in `vs` into that
/// range's lane slices `adj` and `ws`, in scan order.
fn place_range(
    offsets: &[u64],
    edges: &[Edge],
    vs: Range<usize>,
    adj: &mut [VertexId],
    ws: &mut [Weight],
) {
    let base = offsets[vs.start];
    // Entries placed so far in each owned list; a degree fits in `u32`.
    let mut fill = vec![0u32; vs.len()];
    let mut put = |x: usize, nb: VertexId, w: Weight| {
        let slot = (offsets[x] - base) as usize + fill[x - vs.start] as usize;
        adj[slot] = nb;
        ws[slot] = w;
        fill[x - vs.start] += 1;
    };
    // Tuples from `vs.end` on have both endpoints past the range.
    let end = edges.partition_point(|e| (e.0 as usize) < vs.end);
    for &(u, v, w) in &edges[..end] {
        if u as usize >= vs.start {
            put(u as usize, v, w);
        }
        if vs.contains(&(v as usize)) {
            put(v as usize, u, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_max_weight() {
        let g = GraphBuilder::new(2)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 0, 5.0)
            .add_edge(0, 1, 3.0)
            .build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(5.0));
    }

    #[test]
    fn drops_self_loops_and_nonpositive() {
        let g = GraphBuilder::new(3)
            .add_edge(0, 0, 1.0)
            .add_edge(0, 1, 0.0)
            .add_edge(0, 1, -2.0)
            .add_edge(1, 2, 0.5)
            .build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(1, 2), Some(0.5));
    }

    #[test]
    fn adjacency_sorted_and_symmetric() {
        let g = GraphBuilder::from_edges(
            6,
            [(5, 0, 1.0), (3, 1, 2.0), (0, 3, 3.0), (4, 0, 4.0), (2, 0, 5.0), (1, 0, 6.0)],
        );
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4, 5]);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = GraphBuilder::new(10).add_edge(0, 9, 1.0).build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(5), 0);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn large_random_build_validates() {
        use crate::rng::Xoshiro256;
        let mut r = Xoshiro256::seed_from_u64(1);
        let n = 500;
        let mut b = GraphBuilder::new(n);
        for _ in 0..5000 {
            let u = r.below(n as u64) as VertexId;
            let v = r.below(n as u64) as VertexId;
            b.push_edge(u, v, r.next_f64() + 1e-9);
        }
        let g = b.build();
        assert_eq!(g.validate(), Ok(()));
    }

    /// The serial scatter: one cursor per vertex, tuples in sorted order.
    fn serial_place(offsets: &[u64], edges: &[Edge]) -> (Vec<VertexId>, Vec<Weight>) {
        let total = offsets[offsets.len() - 1] as usize;
        let mut cursor = offsets[..offsets.len() - 1].to_vec();
        let mut adj = vec![0; total];
        let mut weights = vec![0.0; total];
        for &(u, v, w) in edges {
            for (x, nb) in [(u, v), (v, u)] {
                let c = cursor[x as usize] as usize;
                (adj[c], weights[c]) = (nb, w);
                cursor[x as usize] += 1;
            }
        }
        (adj, weights)
    }

    fn lanes((adj, weights): &(Vec<VertexId>, Vec<Weight>)) -> Vec<(VertexId, u64)> {
        adj.iter().zip(weights).map(|(&u, w)| (u, w.to_bits())).collect()
    }

    /// Raw edge lists that stress the range split: a hub off the centre
    /// of the id range and heavier than any task's share, isolated
    /// vertices, the 0- and 1-vertex graphs, all-equal weights, and an
    /// R-MAT whose every edge also comes reversed and lighter, and heavier.
    fn reference_inputs() -> Vec<(&'static str, usize, Vec<Edge>)> {
        let mut star = Vec::new();
        for leaf in (0..300).filter(|&v| v != 70) {
            star.push((leaf, 70, 1.0 + (leaf % 3) as f64));
        }
        star.extend((200..220).map(|v| (v, v + 1, 4.0)));
        let mut isolated = Vec::new();
        for (lo, hi) in [(100u32, 140u32), (400, 420)] {
            for u in lo..hi {
                isolated.extend((u + 1..hi.min(u + 6)).map(|v| (u, v, ((u * v) % 4 + 1) as f64)));
            }
        }
        let all_equal = (0..300u32)
            .flat_map(|u| (1..=7).map(move |k| (u, (u * 37 + k * 13) % 300, 1.0)))
            .collect();
        let g = crate::gen::rmat(512, 4000, crate::gen::RmatParams::GAP_KRON, 7);
        let rmat = g
            .iter_edges()
            .flat_map(|(u, v, w)| [(u, v, w), (v, u, w / 2.0), (u, v, w + 1.0)])
            .collect();
        vec![
            ("star", 300, star),
            ("isolated", 500, isolated),
            ("n=0", 0, Vec::new()),
            ("n=1", 1, vec![(0, 0, 1.0)]),
            ("all-equal", 300, all_equal),
            ("rmat+duplicates", 512, rmat),
        ]
    }

    #[test]
    fn place_matches_serial_place_under_any_split() {
        for (name, n, raw) in reference_inputs() {
            let mut b = GraphBuilder::new(n);
            for &(u, v, w) in &raw {
                b.push_edge(u, v, w);
            }
            let mut edges = b.edges;
            dedup(&mut edges);
            let offsets = offsets(n, &edges).unwrap();
            let want = serial_place(&offsets, &edges);
            // The serial place leaves every list sorted with no re-sort.
            let (adj, weights) = want.clone();
            assert_eq!(CsrGraph::from_raw(offsets.clone(), adj, weights).validate(), Ok(()));
            for tasks in [1, 2, 3, 5, 16, 64] {
                assert_eq!(
                    lanes(&place(&offsets, &edges, tasks)),
                    lanes(&want),
                    "{name}, {tasks} tasks"
                );
            }
        }
        // From 3 tasks on, the star's hub outweighs one share of the
        // slots, so some ranges past it come out empty.
        let star = GraphBuilder::from_edges(300, reference_inputs().swap_remove(0).2);
        assert!(star.degree(70) > star.num_directed_edges() / 3);
    }
}
