//! The LD-GPU kernels (Algorithm 3), executed for real on host threads.
//!
//! SETPOINTERS is warp-centric: contiguous groups of `vertices_per_warp`
//! batch vertices are assigned to warps; the warp's threads sweep each
//! vertex's adjacency in 32-wide waves, reducing the heaviest *available*
//! edge first per thread and then across the warp via shuffle reduction.
//! SETMATES is thread-per-vertex: a mutual-pointer check against the
//! globally reduced pointer array.
//!
//! Host execution is structure-of-arrays throughout: each vertex scans
//! its slice of the CSR (or sorted) id and weight lanes, and
//! availability probes gather one byte from the
//! [`Scratch`](super::Scratch) availability lane instead of an 8-byte
//! mate word. The full-scan argmax is the branch-light packed-key
//! maximum of [`ldgm_graph::soa::scan_best`] — exact, because positive
//! finite weight bits are order-isomorphic to their values and the
//! complemented id breaks ties toward the smaller id, mirroring the
//! canonical [`prefer`](crate::matching::prefer) order. Warps are grouped
//! into fixed-size super-chunks per parallel task so host scheduling cost
//! is amortized over thousands of vertices; the per-warp statistics are
//! accumulated warp by warp either way, so every [`KernelStats`] field is
//! identical to a warp-per-task launch.
//!
//! All *billed* memory traffic still follows the simulated device model —
//! the real GPU kernel gathers 8-byte mate words and streams full 32-wide
//! waves — so the cost model is unchanged by how the host computes the
//! same result.

use rayon::prelude::*;

use ldgm_gpusim::{KernelStats, NONE_SENTINEL};
use ldgm_graph::csr::{CsrGraph, VertexId, Weight};
use ldgm_graph::stream::BandLayout;
use ldgm_graph::{soa, SortedAdjacency};
use ldgm_part::VertexRange;

/// Vertices covered by one parallel pointing task: warps are grouped into
/// super-chunks of about this many vertices, so per-task overhead (the
/// thread-pool round trip and the per-chunk bookkeeping the host-side
/// rayon combinators materialize) amortizes over thousands of scans. A
/// fixed constant keeps the warp→task grouping — and therefore the f64
/// `warp_edges_sumsq` accumulation order — machine-independent.
const TASK_VERTICES: usize = 4096;

/// Result of a SETPOINTERS launch over one batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct PointingResult {
    /// Launch statistics for the cost model.
    pub stats: KernelStats,
    /// Vertices that set a (non-sentinel) pointer.
    pub pointers_set: u64,
    /// Vertices retired this launch (neighborhood exhausted).
    pub vertices_retired: u64,
    /// Edge slots skipped by the sorted-index early exit, relative to a
    /// full adjacency scan (0 for the default kernel).
    pub edges_skipped: u64,
}

impl PointingResult {
    /// Fold another launch's result into this one.
    pub fn merge(&mut self, other: &PointingResult) {
        self.stats.merge(&other.stats);
        self.pointers_set += other.pointers_set;
        self.vertices_retired += other.vertices_retired;
        self.edges_skipped += other.edges_skipped;
    }

    /// Bill a compacted launch's worklist reads: 4 B per entry.
    fn with_worklist_reads(mut self) -> Self {
        self.stats.bytes_read += 4 * self.stats.vertices;
        self
    }
}

/// Vertices an optimized SETPOINTERS launch covers.
#[derive(Clone, Copy, Debug)]
pub enum PointingWork<'a> {
    /// Every vertex of the batch range (first iteration, or frontier
    /// tracking disabled).
    Full,
    /// A frontier worklist: absolute vertex ids in ascending order, all
    /// inside the batch range.
    Worklist(&'a [VertexId]),
}

/// SETPOINTERS over the batch `[batch.start, batch.end)`.
///
/// * `avail` — the SoA availability lane (`avail[v] != 0` ⇔ `v`
///   unmatched), read-only; the caller keeps it in sync with the mate
///   array ([`Scratch`](super::Scratch));
/// * `pointers_batch` — the batch's slice of the pointer array
///   (`pointers[batch.start..batch.end]`), written disjointly;
/// * `retired_batch` — the batch's slice of the retirement flags; a vertex
///   with no available neighbor can never match and is skipped in later
///   iterations (LD-SEQ's "remove from G") when `retire` is on.
pub fn set_pointers_batch(
    g: &CsrGraph,
    batch: &VertexRange,
    avail: &[u8],
    pointers_batch: &mut [u64],
    retired_batch: &mut [u8],
    vertices_per_warp: usize,
    retire: bool,
) -> PointingResult {
    point_full(g, None, batch, avail, pointers_batch, retired_batch, vertices_per_warp, retire)
}

/// The shared full-range launch: every batch vertex, warps grouped into
/// [`TASK_VERTICES`]-sized parallel tasks, per-warp stats preserved.
#[allow(clippy::too_many_arguments)]
fn point_full(
    g: &CsrGraph,
    sorted: Option<&SortedAdjacency>,
    batch: &VertexRange,
    avail: &[u8],
    pointers_batch: &mut [u64],
    retired_batch: &mut [u8],
    vertices_per_warp: usize,
    retire: bool,
) -> PointingResult {
    debug_assert_eq!(pointers_batch.len(), batch.num_vertices());
    debug_assert_eq!(retired_batch.len(), batch.num_vertices());
    let vpw = vertices_per_warp.max(1);
    let span = TASK_VERTICES.div_ceil(vpw).max(1) * vpw;
    pointers_batch
        .par_chunks_mut(span)
        .zip(retired_batch.par_chunks_mut(span))
        .enumerate()
        .map(|(t, (ptr_task, ret_task))| {
            let first = batch.start + (t * span) as VertexId;
            let end = first + ptr_task.len() as VertexId;
            let warps = (first..end).step_by(vpw).map(|w| w..end.min(w + vpw as VertexId));
            // Pick the scan once per task: per vertex, the branch costs
            // the early-exit sorted scan a measurable share of its time.
            match sorted {
                Some(idx) => {
                    let scan = |u| scan_sorted_slice(idx.neighbors(g, u), avail);
                    point_warps(warps, first, avail, ptr_task, ret_task, retire, scan)
                }
                None => {
                    let scan = |u| full_scan(g.neighbors(u), g.neighbor_weights(u), avail);
                    point_warps(warps, first, avail, ptr_task, ret_task, retire, scan)
                }
            }
        })
        .reduce(PointingResult::default, |mut a, b| {
            a.merge(&b);
            a
        })
}

/// What one vertex's scan decided about its pointer.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Found {
    /// The best available neighbor.
    Target(VertexId),
    /// No neighbor is available: pointer `NONE`, retired when retirement
    /// is on.
    Exhausted,
    /// Banded scans only: nothing in this band, a later band decides.
    NextBand,
}

/// One vertex's scan: `(found, edges_scanned, waves, edges_skipped)`.
type Scan = (Found, u64, u64, u64);

/// One warp's running tally over the vertices it scans.
struct Warp {
    r: PointingResult,
    processed: u64,
    edges: u64,
    waves: u64,
}

impl Warp {
    /// A warp launched over `vertices` entries.
    fn new(vertices: usize) -> Self {
        let stats =
            KernelStats { warps_launched: 1, vertices: vertices as u64, ..Default::default() };
        Warp { r: PointingResult { stats, ..Default::default() }, processed: 0, edges: 0, waves: 0 }
    }

    /// Account one live vertex's scan, then write its pointer, or retire
    /// it when its neighborhood is exhausted and `retire` is on.
    #[inline]
    fn scanned(&mut self, scan: Scan, ptr: &mut u64, retired: &mut u8, retire: bool) {
        let (found, edges, waves, skipped) = scan;
        self.processed += 1;
        self.edges += edges;
        self.waves += waves;
        self.r.edges_skipped += skipped;
        match found {
            Found::Target(v) => {
                *ptr = v as u64;
                self.r.pointers_set += 1;
            }
            Found::Exhausted => {
                *ptr = NONE_SENTINEL;
                if retire {
                    *retired = 1;
                    self.r.vertices_retired += 1;
                }
            }
            Found::NextBand => {}
        }
    }

    /// Close out the warp's [`KernelStats`] with the shared byte/wave
    /// model of the pointing kernels.
    fn finish(mut self) -> PointingResult {
        let (processed, edges, waves) = (self.processed, self.edges, self.waves);
        let stats = &mut self.r.stats;
        stats.vertices_processed = processed;
        stats.edges_scanned = edges;
        stats.edge_waves = waves;
        stats.warps_active = (processed > 0) as u64;
        stats.max_warp_waves = waves;
        stats.max_warp_vertices = processed;
        stats.warp_edges_sumsq = (edges as f64) * (edges as f64);
        // Bytes at transaction granularity: CSR offsets (16 B per
        // vertex), adjacency id + weight streamed in full 32-wide waves (a
        // warp load fetches whole lines even for short lists), and one
        // 32 B sector per mate gather (uncoalesced indirect access); one
        // pointer write per processed vertex.
        stats.bytes_read = stats.vertices * 8 + processed * 16 + waves * 32 * (8 + 8) + edges * 32;
        stats.bytes_written = processed * 8;
        self.r
    }
}

/// The default full-scan packed-key argmax over one adjacency slice.
#[inline]
fn full_scan(nbrs: &[VertexId], ws: &[Weight], avail: &[u8]) -> Scan {
    let deg = nbrs.len() as u64;
    let k = soa::scan_best(nbrs, ws, avail);
    let found = if k == soa::NO_KEY { Found::Exhausted } else { Found::Target(soa::key_id(k)) };
    (found, deg, soa::waves(deg), 0)
}

/// Early-exit scan of one preference-sorted lane slice: the first
/// available neighbor is the argmax; the warp finishes the 32-wide wave
/// the hit landed in. A miss scans the whole slice and skips nothing.
#[inline]
fn scan_sorted_slice(nbrs: &[VertexId], avail: &[u8]) -> Scan {
    let deg = nbrs.len() as u64;
    match soa::first_available(nbrs, avail) {
        Some(pos) => {
            let waves = (pos as u64 + 1).div_ceil(32);
            let scanned = deg.min(waves * 32);
            (Found::Target(nbrs[pos]), scanned, waves, deg - scanned)
        }
        None => (Found::Exhausted, deg, soa::waves(deg), 0),
    }
}

/// Pick vertex `u`'s pointer target and account the scan (worklist
/// launches, where vertices are not contiguous).
///
/// With a sorted index the list is in (weight desc, id asc) order — the
/// canonical [`prefer`](crate::matching::prefer) order — so the first
/// available neighbor *is* the argmax, and the warp stops after the
/// 32-wide wave that contained it. Without one this is the default
/// full-scan packed-key argmax.
#[inline]
fn scan_best(g: &CsrGraph, sorted: Option<&SortedAdjacency>, avail: &[u8], u: VertexId) -> Scan {
    match sorted {
        Some(idx) => scan_sorted_slice(idx.neighbors(g, u), avail),
        None => full_scan(g.neighbors(u), g.neighbor_weights(u), avail),
    }
}

/// Launch one warp per item of `warps`, processed sequentially (a
/// full launch parallelizes over tasks of warps, worklist launches over
/// devices). Matched and retired vertices exit early; `scan` decides
/// every other vertex. The `pointers`/`retired` slices start at vertex
/// `base`.
fn point_warps<W: ExactSizeIterator<Item = VertexId>>(
    warps: impl Iterator<Item = W>,
    base: VertexId,
    avail: &[u8],
    pointers: &mut [u64],
    retired: &mut [u8],
    retire: bool,
    mut scan: impl FnMut(VertexId) -> Scan,
) -> PointingResult {
    let mut out = PointingResult::default();
    for vertices in warps {
        let mut warp = Warp::new(vertices.len());
        for u in vertices {
            let i = (u - base) as usize;
            if avail[u as usize] == 0 || retired[i] != 0 {
                continue; // matched or retired: early exit
            }
            warp.scanned(scan(u), &mut pointers[i], &mut retired[i], retire);
        }
        out.merge(&warp.finish());
    }
    out
}

/// Optimized SETPOINTERS: [`set_pointers_batch`] with an optional
/// preference-sorted index (early-exit scans) and an optional frontier
/// worklist (compacted launch over re-pointing vertices only).
///
/// Selection is bit-identical to the default kernel: the sorted order
/// mirrors [`prefer`](crate::matching::prefer), and a worklist launch
/// only skips vertices whose pointers are still valid (their targets are
/// unmatched, so a rescan would rewrite the same value). Only the billed
/// work changes: `Worklist` launches count one warp per
/// `vertices_per_warp` worklist entries plus a 4 B worklist read per
/// vertex, and the early exit reduces `edge_waves`/`edges_scanned`.
#[allow(clippy::too_many_arguments)]
pub fn set_pointers_opt(
    g: &CsrGraph,
    sorted: Option<&SortedAdjacency>,
    batch: &VertexRange,
    work: PointingWork<'_>,
    avail: &[u8],
    pointers_batch: &mut [u64],
    retired_batch: &mut [u8],
    vertices_per_warp: usize,
    retire: bool,
) -> PointingResult {
    let nv = batch.num_vertices();
    debug_assert_eq!(pointers_batch.len(), nv);
    debug_assert_eq!(retired_batch.len(), nv);
    let vpw = vertices_per_warp.max(1);
    match work {
        PointingWork::Full => {
            point_full(g, sorted, batch, avail, pointers_batch, retired_batch, vpw, retire)
        }
        PointingWork::Worklist(worklist) => {
            debug_assert!(
                worklist.iter().all(|&u| batch.start <= u && u < batch.end),
                "worklist outside batch"
            );
            let warps = worklist.chunks(vpw).map(|w| w.iter().copied());
            let scan = |u| scan_best(g, sorted, avail, u);
            point_warps(warps, batch.start, avail, pointers_batch, retired_batch, retire, scan)
                .with_worklist_reads()
        }
    }
}

/// Banded SETPOINTERS of the out-of-core streaming engine: scan only
/// rank band `band` of each worklist vertex's preference-sorted list.
///
/// Bands partition the sorted order, so the first available hit across
/// bands 0, 1, 2, … is exactly the argmax a resident full scan would
/// select — a vertex that hits in this band sets its pointer and leaves
/// the worklist; a vertex whose list *ends* inside this band without a
/// hit is exhausted (pointer `NONE`, retired when `retire` is on); every
/// other miss is appended to `next` for the following band. Billing
/// follows the worklist kernel: one warp per `vertices_per_warp`
/// entries, a 4 B worklist read per vertex, early exit at the wave
/// containing the hit, and `edges_skipped` counts every slot a full
/// scan would have read but no band kernel will (later waves of this
/// band plus all later bands).
#[allow(clippy::too_many_arguments)]
pub fn set_pointers_band(
    g: &CsrGraph,
    sorted: &SortedAdjacency,
    layout: &BandLayout,
    band: usize,
    work: &[VertexId],
    next: &mut Vec<VertexId>,
    avail: &[u8],
    pointers_part: &mut [u64],
    retired_part: &mut [u8],
    part_start: VertexId,
    vertices_per_warp: usize,
    retire: bool,
) -> PointingResult {
    let scan = |u: VertexId| {
        let (nbrs, _) = layout.band_slice(g, sorted, u, band);
        let (found, scanned, waves, _) = scan_sorted_slice(nbrs, avail);
        match found {
            // Everything a full scan would still have read: the tail of
            // this band plus every later band.
            Found::Target(_) => {
                let unread = g.degree(u) - band * layout.width();
                (found, scanned, waves, unread as u64 - scanned)
            }
            _ if layout.is_last_band(g, u, band) => (found, scanned, waves, 0),
            _ => {
                next.push(u);
                (Found::NextBand, scanned, waves, 0)
            }
        }
    };
    let warps = work.chunks(vertices_per_warp.max(1)).map(|w| w.iter().copied());
    point_warps(warps, part_start, avail, pointers_part, retired_part, retire, scan)
        .with_worklist_reads()
}

/// SETMATES over the full vertex set: commit mutually pointing pairs,
/// writing the mate array and clearing the availability lane for every
/// newly matched vertex (the lane stays in lock-step with the mate array
/// without a separate sweep). Returns launch statistics and the number
/// of newly matched *edges*.
pub fn set_mates(pointers: &[u64], mate: &mut [u64], avail: &mut [u8]) -> (KernelStats, u64) {
    let n = mate.len();
    debug_assert_eq!(avail.len(), n);
    let pointers = &pointers[..n];
    let last = n.saturating_sub(1);
    const CHUNK: usize = 1 << 15;
    let newly: u64 = mate
        .par_chunks_mut(CHUNK)
        .zip(avail.par_chunks_mut(CHUNK))
        .enumerate()
        .map(|(c, (mchunk, achunk))| {
            let base = c * CHUNK;
            let own = &pointers[base..base + mchunk.len()];
            let mut newly = 0u64;
            for (u, ((m, a), &p)) in
                (base as u64..).zip(mchunk.iter_mut().zip(achunk.iter_mut()).zip(own))
            {
                // The clamped gather keeps the indirect load in bounds
                // without a branch; the sentinel compare rejects the
                // clamped case before the result is used.
                if *m == NONE_SENTINEL
                    && p != NONE_SENTINEL
                    && pointers[(p as usize).min(last)] == u
                {
                    *m = p;
                    *a = 0;
                    newly += 1;
                }
            }
            newly
        })
        .sum();
    debug_assert_eq!(newly % 2, 0, "mutual pairs must come in twos");
    let warps = (n as u64).div_ceil(32);
    let stats = KernelStats {
        vertices: n as u64,
        vertices_processed: n as u64,
        warps_launched: warps,
        warps_active: warps,
        // Mutual check: own pointer (coalesced 8 B) + indirect pointer
        // gather (32 B sector); write on match.
        bytes_read: n as u64 * (8 + 32),
        bytes_written: newly * 8,
        max_warp_vertices: 32,
        ..Default::default()
    };
    (stats, newly / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldgm_graph::GraphBuilder;
    use ldgm_part::Partition;

    fn whole(g: &CsrGraph) -> VertexRange {
        Partition::edge_balanced(g, 1).parts[0]
    }

    /// The availability lane a mate array implies.
    fn avail_of(mate: &[u64]) -> Vec<u8> {
        mate.iter().map(|&m| (m == NONE_SENTINEL) as u8).collect()
    }

    #[test]
    fn pointing_selects_heaviest_available() {
        let g = GraphBuilder::new(4)
            .add_edge(0, 1, 1.0)
            .add_edge(0, 2, 5.0)
            .add_edge(0, 3, 3.0)
            .build();
        let mut pointers = vec![NONE_SENTINEL; 4];
        let mut retired = vec![0u8; 4];
        let avail = vec![1u8; 4];
        let r = set_pointers_batch(&g, &whole(&g), &avail, &mut pointers, &mut retired, 2, true);
        assert_eq!(pointers[0], 2);
        assert_eq!(pointers[2], 0);
        assert_eq!(r.pointers_set, 4);
        assert_eq!(r.stats.edges_scanned, 6);
    }

    #[test]
    fn pointing_skips_matched_neighbors() {
        let g = GraphBuilder::new(3).add_edge(0, 1, 5.0).add_edge(0, 2, 1.0).build();
        let mut pointers = vec![NONE_SENTINEL; 3];
        let mut retired = vec![0u8; 3];
        let mut mate = vec![NONE_SENTINEL; 3];
        mate[1] = 99; // pretend 1 is matched elsewhere
        let avail = avail_of(&mate);
        let r = set_pointers_batch(&g, &whole(&g), &avail, &mut pointers, &mut retired, 1, true);
        assert_eq!(pointers[0], 2, "must skip matched vertex 1");
        // Vertex 1 is matched: early exit, no scan.
        assert_eq!(r.stats.edges_scanned, 2 + 1); // deg(0) + deg(2)
    }

    #[test]
    fn exhausted_vertices_retire() {
        let g = GraphBuilder::new(3).add_edge(0, 1, 1.0).add_edge(1, 2, 2.0).build();
        let mut pointers = vec![NONE_SENTINEL; 3];
        let mut retired = vec![0u8; 3];
        let mut mate = vec![NONE_SENTINEL; 3];
        mate[1] = 2;
        mate[2] = 1;
        let avail = avail_of(&mate);
        let r = set_pointers_batch(&g, &whole(&g), &avail, &mut pointers, &mut retired, 1, true);
        // Vertex 0's only neighbor is matched: retired.
        assert_eq!(retired[0], 1);
        assert_eq!(pointers[0], NONE_SENTINEL);
        assert_eq!(r.pointers_set, 0);
        assert_eq!(r.vertices_retired, 1);
    }

    #[test]
    fn retire_flag_off_keeps_rescanning() {
        let g = GraphBuilder::new(2).add_edge(0, 1, 1.0).build();
        let mut pointers = vec![NONE_SENTINEL; 2];
        let mut retired = vec![0u8; 2];
        let mut mate = vec![NONE_SENTINEL; 2];
        mate[0] = NONE_SENTINEL;
        mate[1] = 99;
        let avail = avail_of(&mate);
        let _ = set_pointers_batch(&g, &whole(&g), &avail, &mut pointers, &mut retired, 1, false);
        assert_eq!(retired[0], 0, "no retirement when disabled");
    }

    #[test]
    fn warp_stats_reflect_grouping() {
        let g = GraphBuilder::new(6)
            .add_edge(0, 1, 1.0)
            .add_edge(2, 3, 1.0)
            .add_edge(4, 5, 1.0)
            .build();
        let avail = vec![1u8; 6];
        let mut pointers = vec![NONE_SENTINEL; 6];
        let mut retired = vec![0u8; 6];
        let r = set_pointers_batch(&g, &whole(&g), &avail, &mut pointers, &mut retired, 2, true);
        assert_eq!(r.stats.warps_launched, 3);
        assert_eq!(r.stats.warps_active, 3);
        assert_eq!(r.stats.vertices, 6);
    }

    #[test]
    fn super_chunked_stats_match_a_small_vpw_launch() {
        // More vertices than one TASK_VERTICES super-chunk: the grouped
        // launch must report exactly the per-warp stats a warp-per-task
        // launch would (warp count, byte model, wave maxima).
        let g = ldgm_graph::gen::urand(3 * TASK_VERTICES, 6 * TASK_VERTICES, 3);
        let avail = vec![1u8; g.num_vertices()];
        let mut pointers = vec![NONE_SENTINEL; g.num_vertices()];
        let mut retired = vec![0u8; g.num_vertices()];
        let vpw = 7; // does not divide TASK_VERTICES: exercises rounding
        let r = set_pointers_batch(&g, &whole(&g), &avail, &mut pointers, &mut retired, vpw, true);
        assert_eq!(r.stats.warps_launched, g.num_vertices().div_ceil(vpw) as u64);
        assert_eq!(r.stats.vertices, g.num_vertices() as u64);
        assert_eq!(r.stats.edges_scanned, g.num_directed_edges() as u64);
    }

    #[test]
    fn set_mates_commits_mutual_pairs_only() {
        let mut mate = vec![NONE_SENTINEL; 4];
        let mut avail = vec![1u8; 4];
        // 0<->1 mutual; 2 -> 3 one-way.
        let pointers = vec![1, 0, 3, 1];
        let (stats, newly) = set_mates(&pointers, &mut mate, &mut avail);
        assert_eq!(newly, 1);
        assert_eq!(mate[0], 1);
        assert_eq!(mate[1], 0);
        assert_eq!(mate[2], NONE_SENTINEL);
        assert_eq!(avail, vec![0, 0, 1, 1], "lane cleared for the committed pair only");
        assert_eq!(stats.vertices, 4);
    }

    #[test]
    fn set_mates_ignores_already_matched() {
        let mut mate = vec![NONE_SENTINEL; 2];
        mate[0] = 1;
        mate[1] = 0;
        let mut avail = avail_of(&mate);
        let pointers = vec![1, 0];
        let (_, newly) = set_mates(&pointers, &mut mate, &mut avail);
        assert_eq!(newly, 0);
        assert_eq!(avail, vec![0, 0]);
    }

    #[test]
    fn set_mates_ignores_sentinel_pointers() {
        // A vertex pointing nowhere must not commit, even though the
        // clamped gather reads *some* slot.
        let mut mate = vec![NONE_SENTINEL; 3];
        let mut avail = vec![1u8; 3];
        let pointers = vec![NONE_SENTINEL, 2, 1];
        let (_, newly) = set_mates(&pointers, &mut mate, &mut avail);
        assert_eq!(newly, 1);
        assert_eq!(mate[0], NONE_SENTINEL);
        assert_eq!(avail, vec![1, 0, 0]);
    }

    #[test]
    fn opt_full_without_toggles_matches_default_kernel() {
        let g = ldgm_graph::gen::urand(128, 600, 7);
        let avail = vec![1u8; g.num_vertices()];
        let run = |opt: bool| {
            let mut pointers = vec![NONE_SENTINEL; g.num_vertices()];
            let mut retired = vec![0u8; g.num_vertices()];
            let r = if opt {
                set_pointers_opt(
                    &g,
                    None,
                    &whole(&g),
                    PointingWork::Full,
                    &avail,
                    &mut pointers,
                    &mut retired,
                    3,
                    true,
                )
            } else {
                set_pointers_batch(&g, &whole(&g), &avail, &mut pointers, &mut retired, 3, true)
            };
            (pointers, retired, r)
        };
        let (p0, ret0, r0) = run(false);
        let (p1, ret1, r1) = run(true);
        assert_eq!(p0, p1);
        assert_eq!(ret0, ret1);
        assert_eq!(r0.pointers_set, r1.pointers_set);
        assert_eq!(r0.vertices_retired, r1.vertices_retired);
        assert_eq!(r0.stats.edges_scanned, r1.stats.edges_scanned);
        assert_eq!(r0.stats.bytes_read, r1.stats.bytes_read);
        assert_eq!(r0.stats.bytes_written, r1.stats.bytes_written);
        assert_eq!(r1.edges_skipped, 0);
    }

    #[test]
    fn sorted_early_exit_skips_tail_waves() {
        // Vertex 0 with 40 neighbors; heaviest (id 40, w 40.0) is available,
        // so the sorted scan stops after its first 32-wide wave.
        let mut b = GraphBuilder::new(41);
        for v in 1..=40u32 {
            b = b.add_edge(0, v, v as f64);
        }
        let g = b.build();
        let sorted = SortedAdjacency::build(&g);
        let avail = vec![1u8; 41];
        let mut pointers = vec![NONE_SENTINEL; 41];
        let mut retired = [0u8; 41];
        let r = set_pointers_opt(
            &g,
            Some(&sorted),
            &VertexRange { start: 0, end: 1, edge_start: 0, edge_end: 40 },
            PointingWork::Full,
            &avail,
            &mut pointers[..1],
            &mut retired[..1],
            1,
            true,
        );
        assert_eq!(pointers[0], 40, "argmax neighbor");
        assert_eq!(r.stats.edge_waves, 1, "early exit after the first wave");
        assert_eq!(r.stats.edges_scanned, 32);
        assert_eq!(r.edges_skipped, 8);
    }

    #[test]
    fn sorted_scan_matches_default_selection_when_head_unavailable() {
        // Heaviest neighbors matched away: the sorted scan walks past them
        // and still lands on the default kernel's argmax.
        let g = GraphBuilder::new(5)
            .add_edge(0, 1, 9.0)
            .add_edge(0, 2, 8.0)
            .add_edge(0, 3, 7.0)
            .add_edge(0, 4, 7.0)
            .build();
        let sorted = SortedAdjacency::build(&g);
        let mut mate = vec![NONE_SENTINEL; 5];
        mate[1] = 99;
        mate[2] = 99;
        let avail = avail_of(&mate);
        let (best, _, _, _) = scan_best(&g, Some(&sorted), &avail, 0);
        let (best_default, _, _, _) = scan_best(&g, None, &avail, 0);
        assert_eq!(best, Found::Target(3), "equal weights tie-break to the lower id");
        assert_eq!(best, best_default);
    }

    #[test]
    fn worklist_launch_writes_only_listed_vertices_and_bills_reads() {
        let g = GraphBuilder::new(4)
            .add_edge(0, 1, 1.0)
            .add_edge(1, 2, 2.0)
            .add_edge(2, 3, 3.0)
            .build();
        let avail = vec![1u8; 4];
        let mut pointers = vec![777; 4];
        let mut retired = vec![0u8; 4];
        let worklist: Vec<VertexId> = vec![1, 3];
        let r = set_pointers_opt(
            &g,
            None,
            &whole(&g),
            PointingWork::Worklist(&worklist),
            &avail,
            &mut pointers,
            &mut retired,
            2,
            true,
        );
        assert_eq!(pointers[1], 2);
        assert_eq!(pointers[3], 2);
        assert_eq!(pointers[0], 777, "unlisted vertex untouched");
        assert_eq!(pointers[2], 777, "unlisted vertex untouched");
        assert_eq!(r.stats.vertices, 2, "only worklist entries touched");
        assert_eq!(r.stats.warps_launched, 1, "2 entries / vpw 2 = 1 warp");
        // 4 B worklist read billed per vertex on top of the offset read.
        assert_eq!(r.stats.bytes_read % 4, 0);
        let full = set_pointers_opt(
            &g,
            None,
            &whole(&g),
            PointingWork::Full,
            &avail,
            &mut [NONE_SENTINEL; 4],
            &mut [0u8; 4],
            2,
            true,
        );
        assert!(
            r.stats.bytes_read < full.stats.bytes_read,
            "compacted launch reads less than the full scan"
        );
    }

    #[test]
    fn single_band_launch_equals_sorted_worklist_launch() {
        // One band as wide as the longest list holds every vertex's whole
        // sorted neighborhood, so the band kernel must reproduce the
        // sorted worklist kernel exactly: pointers, retirements, every
        // stats field, and the skipped-slot count.
        let base = ldgm_graph::gen::rmat(256, 2000, ldgm_graph::gen::RmatParams::GAP_KRON, 3);
        let mut b = GraphBuilder::new(base.num_vertices());
        for (u, v, _) in base.iter_edges() {
            b.push_edge(u, v, 1.0 + ((u ^ v) % 3) as f64);
        }
        let g = b.build();
        let n = g.num_vertices();
        let sorted = SortedAdjacency::build(&g);
        let max_deg = (0..n as VertexId).map(|u| g.degree(u)).max().unwrap();
        let layout = BandLayout::new(&g, 0, n as VertexId, max_deg);
        assert_eq!(layout.num_bands(), 1);
        // Every third vertex matched away, every seventh already retired,
        // so the launch sees hits, misses and exhausted lists.
        let avail: Vec<u8> = (0..n).map(|v| (v % 3 != 0) as u8).collect();
        let retired0: Vec<u8> = (0..n).map(|v| (v % 7 == 0) as u8).collect();
        let worklist: Vec<VertexId> = (0..n as VertexId).filter(|u| u % 2 == 1).collect();
        let mut band_ptr = vec![777u64; n];
        let mut band_ret = retired0.clone();
        let mut next = Vec::new();
        let band = set_pointers_band(
            &g,
            &sorted,
            &layout,
            0,
            &worklist,
            &mut next,
            &avail,
            &mut band_ptr,
            &mut band_ret,
            0,
            3,
            true,
        );
        let mut opt_ptr = vec![777u64; n];
        let mut opt_ret = retired0;
        let opt = set_pointers_opt(
            &g,
            Some(&sorted),
            &whole(&g),
            PointingWork::Worklist(&worklist),
            &avail,
            &mut opt_ptr,
            &mut opt_ret,
            3,
            true,
        );
        assert!(next.is_empty(), "a single band leaves nothing for a next band");
        assert_eq!(band_ptr, opt_ptr);
        assert_eq!(band_ret, opt_ret);
        assert_eq!(band.stats, opt.stats);
        assert_eq!(band.pointers_set, opt.pointers_set);
        assert_eq!(band.vertices_retired, opt.vertices_retired);
        assert_eq!(band.edges_skipped, opt.edges_skipped);
        assert!(opt.pointers_set > 0 && opt.vertices_retired > 0 && opt.edges_skipped > 0);
    }

    #[test]
    fn worklist_respects_vpw_grouping() {
        let g = GraphBuilder::new(6)
            .add_edge(0, 1, 1.0)
            .add_edge(2, 3, 1.0)
            .add_edge(4, 5, 1.0)
            .build();
        let avail = vec![1u8; 6];
        let mut pointers = vec![NONE_SENTINEL; 6];
        let mut retired = vec![0u8; 6];
        let worklist: Vec<VertexId> = vec![0, 2, 4, 5];
        let r = set_pointers_opt(
            &g,
            None,
            &whole(&g),
            PointingWork::Worklist(&worklist),
            &avail,
            &mut pointers,
            &mut retired,
            3,
            true,
        );
        assert_eq!(r.stats.warps_launched, 2, "4 entries / vpw 3 = 2 warps");
        assert_eq!(r.pointers_set, 4);
    }
}
