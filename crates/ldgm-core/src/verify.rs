//! Matching-quality verification utilities.
//!
//! Beyond structural validity ([`crate::matching::Matching::verify`]) and
//! maximality, this module provides the *dominance certificate*: a static,
//! linear-time check that implies the ½-approximation bound without
//! knowing the optimum.

use rayon::prelude::*;

use crate::matching::Matching;
use ldgm_graph::csr::{CsrGraph, VertexId};

/// Check the ½-approximation dominance certificate: for every edge
/// `{u, v}` of `g`, at least one endpoint is matched by an edge of weight
/// ≥ `w({u, v})`.
///
/// Every maximal *locally dominant* matching satisfies this (each edge was
/// beaten by an adjacent edge at the moment that edge entered the
/// matching, and matched weights only accumulate). The certificate implies
/// `w(M) ≥ ½·w(M*)`: charge each optimal edge to a dominating adjacent
/// matched edge; a matched edge is charged at most twice (once per
/// endpoint), each time by an edge no heavier than itself.
///
/// A matching that pairs two non-adjacent vertices certifies nothing and
/// fails. Runs in parallel: one pass finds each vertex's matched weight,
/// a second checks every edge against its endpoints' weights.
pub fn half_approx_certificate(g: &CsrGraph, m: &Matching) -> bool {
    const CHUNK: usize = 1 << 14;
    let n = g.num_vertices();
    let mut matched = vec![f64::NEG_INFINITY; n];
    let adjacent = matched
        .par_chunks_mut(CHUNK)
        .enumerate()
        .map(|(c, ws)| {
            (c * CHUNK..).zip(ws).all(|(x, w)| match m.mate(x as VertexId) {
                None => true,
                Some(y) => g.edge_weight(x as VertexId, y).map(|wy| *w = wy).is_some(),
            })
        })
        .reduce(|| true, |a, b| a && b);
    if !adjacent {
        return false;
    }
    let matched = &matched;
    (0..n.div_ceil(CHUNK))
        .into_par_iter()
        .map(|c| {
            (c * CHUNK..n.min((c + 1) * CHUNK)).all(|u| {
                let edges = g.edges_of(u as VertexId);
                edges
                    .filter(|&(v, _)| u < v as usize)
                    .all(|(v, w)| matched[u] >= w || matched[v as usize] >= w)
            })
        })
        .reduce(|| true, |a, b| a && b)
}

/// Exhaustive maximum-weight matching by recursion over edges — only for
/// cross-checking tiny graphs (|E| ≤ ~20) in tests.
pub fn brute_force_mwm(g: &CsrGraph) -> f64 {
    let edges: Vec<(VertexId, VertexId, f64)> = g.iter_edges().collect();
    assert!(edges.len() <= 24, "brute force limited to tiny graphs");
    fn rec(edges: &[(VertexId, VertexId, f64)], used: &mut Vec<bool>, idx: usize) -> f64 {
        if idx == edges.len() {
            return 0.0;
        }
        // Skip edge idx.
        let mut best = rec(edges, used, idx + 1);
        let (u, v, w) = edges[idx];
        if !used[u as usize] && !used[v as usize] {
            used[u as usize] = true;
            used[v as usize] = true;
            best = best.max(w + rec(edges, used, idx + 1));
            used[u as usize] = false;
            used[v as usize] = false;
        }
        best
    }
    let mut used = vec![false; g.num_vertices()];
    rec(&edges, &mut used, 0)
}

/// Relative quality `w(M) / w(M*)`, given the optimal weight.
pub fn quality_ratio(weight: f64, optimal: f64) -> f64 {
    if optimal == 0.0 {
        1.0
    } else {
        weight / optimal
    }
}

/// Percentage difference from the optimum, the paper's Table II metric
/// (lower is better): `(w(M*) − w(M)) / w(M*) · 100`.
pub fn pct_diff_from_optimal(weight: f64, optimal: f64) -> f64 {
    if optimal == 0.0 {
        0.0
    } else {
        (optimal - weight) / optimal * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ld_seq::ld_seq;
    use ldgm_graph::gen::urand;
    use ldgm_graph::GraphBuilder;

    /// The certificate as it stood before it went parallel: two binary
    /// searches per edge, serially. Panics on a matched non-edge.
    fn serial_certificate(g: &CsrGraph, m: &Matching) -> bool {
        let matched_weight = |x: VertexId| -> f64 {
            m.mate(x)
                .map(|y| g.edge_weight(x, y).expect("matched non-edge"))
                .unwrap_or(f64::NEG_INFINITY)
        };
        for (u, v, w) in g.iter_edges() {
            if matched_weight(u) < w && matched_weight(v) < w {
                return false;
            }
        }
        true
    }

    #[test]
    fn certificate_agrees_with_the_serial_check() {
        use ldgm_graph::gen::{rmat, RmatParams};
        let mut fails = 0;
        for seed in 0..8u64 {
            // Past one parallel chunk, so both passes split their work.
            let g = if seed % 2 == 0 {
                urand(20_000, 60_000, seed)
            } else {
                rmat(1 << 15, 60_000, RmatParams::SOCIAL, seed)
            };
            let good = ld_seq(&g);
            // Perturbed: unmatch every k-th pair, then match some free
            // vertices to a free neighbor.
            let k = 2 + seed as usize % 5;
            let mut bad = good.clone();
            for u in 0..g.num_vertices() as VertexId {
                match bad.mate(u) {
                    Some(v) if u < v && (u as usize).is_multiple_of(k) => bad.unjoin(u, v),
                    None if u as usize % k == 1 => {
                        if let Some((v, _)) = g.edges_of(u).find(|&(v, _)| !bad.is_matched(v)) {
                            bad.join(u, v);
                        }
                    }
                    _ => {}
                }
            }
            for (what, m) in [("ld-seq", &good), ("perturbed", &bad)] {
                let want = serial_certificate(&g, m);
                assert_eq!(half_approx_certificate(&g, m), want, "seed {seed}, {what}");
                fails += !want as usize;
            }
        }
        assert!(fails > 0, "some perturbed matchings must fail the certificate");
    }

    #[test]
    fn certificate_fails_on_a_non_adjacent_pair() {
        // 0-1 and 2-3 are edges; 0-3 is not.
        let g = GraphBuilder::new(4).add_edge(0, 1, 1.0).add_edge(2, 3, 1.0).build();
        let mut m = Matching::new(4);
        m.join(0, 3);
        assert!(!half_approx_certificate(&g, &m));
        // An isolated pair far from any edge fails too.
        let g = GraphBuilder::new(6).add_edge(0, 1, 1.0).build();
        let mut m = Matching::new(6);
        m.join(0, 1);
        m.join(4, 5);
        assert!(!half_approx_certificate(&g, &m));
    }

    #[test]
    fn certificate_holds_for_ld_matchings() {
        for seed in 0..5 {
            let g = urand(200, 1000, seed);
            let m = ld_seq(&g);
            assert!(half_approx_certificate(&g, &m), "seed {seed}");
        }
    }

    #[test]
    fn certificate_fails_for_bad_matching() {
        // Path with a heavy middle edge; match only the light ends.
        let g = GraphBuilder::new(4)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 10.0)
            .add_edge(2, 3, 1.0)
            .build();
        let mut m = Matching::new(4);
        m.join(0, 1);
        m.join(2, 3);
        // {1,2} (weight 10) dominates both matched edges: certificate fails.
        assert!(!half_approx_certificate(&g, &m));
    }

    #[test]
    fn certificate_implies_half_bound_on_tiny_graphs() {
        for seed in 0..20 {
            let g = urand(8, 12, seed);
            if g.num_edges() > 20 {
                continue;
            }
            let m = ld_seq(&g);
            let opt = brute_force_mwm(&g);
            assert!(half_approx_certificate(&g, &m), "seed {seed}");
            assert!(m.weight(&g) >= 0.5 * opt - 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn brute_force_simple() {
        // Triangle: best single edge.
        let g = GraphBuilder::new(3)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 2.0)
            .add_edge(0, 2, 3.0)
            .build();
        assert_eq!(brute_force_mwm(&g), 3.0);
        // Path taking both ends beats middle: 1+1 < 10 though.
        let p = GraphBuilder::new(4)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 10.0)
            .add_edge(2, 3, 1.0)
            .build();
        assert_eq!(brute_force_mwm(&p), 10.0);
    }

    #[test]
    fn pct_diff_and_ratio() {
        assert_eq!(pct_diff_from_optimal(95.0, 100.0), 5.0);
        assert_eq!(quality_ratio(50.0, 100.0), 0.5);
        assert_eq!(pct_diff_from_optimal(0.0, 0.0), 0.0);
        assert_eq!(quality_ratio(0.0, 0.0), 1.0);
    }
}
