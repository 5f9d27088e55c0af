//! The LD-GPU driver: Algorithm 2 of the paper on the simulated platform.
//!
//! Every execution ([`run_lanes`]) bills one or more configs, its
//! *lanes*, that share an [`LdGpuConfig::execution_class`]: they may
//! differ only in sparse collectives and overlap, which decide how the
//! devices reduce ([`Reduce`]) and never what a kernel computes.
//! [`LdGpu::try_run`] is the one-lane call; the auto-tuner runs each
//! class of its grid as one execution with a lane per candidate. An
//! execution resolves the class once, before the first iteration, into
//! where SETPOINTERS reads neighbors from ([`Pointing`]), and plans the
//! batches (or streaming bands) and the cluster placement. Each lane
//! holds its reduction mode and its own [`SimRuntime`]. The host arrays
//! (pointers, mates, retirement, availability, frontiers) and every
//! kernel call exist once per execution, and every billing call is made
//! on each lane in the order a single run of that lane's config makes
//! it, so each lane's output equals that run's bit for bit. The loop is
//! the paper's skeleton, one plain function per step:
//!
//! 1. **point** ([`Run::point`]) — every device walks its batches,
//!    loading batch `b+1` while the SETPOINTERS kernel of batch `b` runs
//!    on the other stream buffer, with explicit host synchronization
//!    when the batch count exceeds the two buffers;
//! 2. **reduce pointers** ([`Reduce::pointers`]) — allreduce the pointer
//!    array (NCCL ring model);
//! 3. **set mates** — SETMATES against the globally consistent pointers;
//! 4. **evict** ([`Run::evict`], streaming only) — matched and retired
//!    vertices release their resident bands;
//! 5. **reduce mates** ([`Reduce::mates`]) — allreduce the mate array;
//! 6. **next frontier** ([`Run::next_frontier`], frontier mode only) —
//!    collect the vertices whose pointers went stale.
//!
//! The loop ends when an iteration sets no pointers (no available edges
//! remain), when the frontier empties, or after the configured number of
//! probe iterations. Kernel logic executes for real (device-parallel via
//! rayon, each device task borrowing its vertex range and its
//! [`DeviceScratch`] disjointly, and carrying its [`DeviceCtx`] of every
//! lane); all simulated time is billed through each lane's
//! [`ldgm_gpusim::SimRuntime`], which owns the timers, the trace, the
//! metrics registry, and the timeline-derived phase breakdown.
//!
//! Every strategy leaves the matching bit-identical to the default
//! `ld-gpu` path; only billed work and time change. The `ld-gpu-opt`
//! preset ([`LdGpuConfig::optimized`]) combines [`Pointing::Sorted`],
//! the cross-iteration frontier and [`Reduce::Sparse`].
//!
//! **Cross-iteration frontier.** After SETMATES, the only vertices whose
//! pointers went stale are those whose target was just matched away;
//! everyone else's pointer still names their best available neighbor
//! (availability only shrinks, and anything better was already
//! unavailable when the pointer was written). SETPOINTERS therefore
//! launches over per-device frontier worklists only, skipping batches
//! with empty frontier slices entirely; an empty frontier is a fixed
//! point and ends the loop without the default mode's final confirming
//! scan. SETMATES stays a full-`n` global kernel (a mutual pair may join
//! one fresh and one stale-but-valid pointer), and the frontier
//! compaction rides on its full mate+pointer read (one worklist append
//! per stale vertex, not billed separately).
//!
//! [`prefer`]: crate::matching::prefer

use std::borrow::Cow;

use rayon::prelude::*;

use ldgm_gpusim::metrics::names;
use ldgm_gpusim::{
    CommChunk, DeviceCtx, IterationRecord, KernelLaunch, MetricsRegistry, RunProfile, SimRuntime,
    Trace, NONE_SENTINEL,
};
use ldgm_graph::csr::{CsrGraph, VertexId};
use ldgm_graph::SortedAdjacency;
use ldgm_part::placement::{cut_stats, CutStats, NodePlacement};
use ldgm_part::{batch, memory, plan_substreams, Partition, SubstreamPlan, VertexRange};

use super::config::{LdGpuConfig, LdGpuError};
use super::kernels::{
    set_mates, set_pointers_band, set_pointers_opt, PointingResult, PointingWork,
};
use super::scratch::{DeviceScratch, Scratch};
use crate::matching::{Matching, UNMATCHED};

/// Result of an LD-GPU run.
#[derive(Clone, Debug)]
pub struct LdGpuOutput {
    /// The computed ½-approximate matching.
    pub matching: Matching,
    /// Matching iterations executed.
    pub iterations: usize,
    /// End-to-end simulated time in seconds (pointing + matching phases,
    /// matching the paper's reporting convention).
    pub sim_time: f64,
    /// Component-wise timing and per-iteration records.
    pub profile: RunProfile,
    /// Devices actually used.
    pub devices: usize,
    /// Batches per device actually used.
    pub batches: usize,
    /// Event timeline, when [`LdGpuConfig::collect_trace`] is on.
    pub trace: Option<Trace>,
    /// Run metrics: kernel work, collective traffic, buffer stalls.
    pub metrics: MetricsRegistry,
}

/// The LD-GPU matcher.
#[derive(Clone, Debug)]
pub struct LdGpu {
    cfg: LdGpuConfig,
}

/// Where SETPOINTERS reads each vertex's neighbors from.
enum Pointing<'a> {
    /// The paper's full CSR scan for the heaviest available neighbor.
    Full,
    /// Early-exit scans through the preference-sorted index (weight
    /// desc, id asc: the canonical [`prefer`] order), so the first
    /// available neighbor is the full scan's argmax and the warp stops
    /// at the wave holding it. The index is per-graph preprocessing,
    /// excluded from timings like the initial partition transfer.
    Sorted(&'a SortedAdjacency),
    /// Out-of-core streaming: each device walks the fixed-width rank
    /// bands of its plan over the sorted index instead of batches,
    /// keeping a window of bands resident across iterations while the
    /// copy stream prefetches the next band under the current kernel.
    Bands { index: &'a SortedAdjacency, plans: Vec<SubstreamPlan> },
}

/// How the devices reduce the pointer and mate arrays each iteration.
#[derive(Clone, Copy, PartialEq)]
enum Reduce {
    /// Device barrier, then a dense `8·|V|` allreduce.
    Dense,
    /// Device barrier, then a sparse allreduce of the written slots only
    /// (~16 B per entry, the `ldgm-dyn` convention).
    Sparse,
    /// Overlap: no barrier. Each slice of the pointer reduction starts
    /// on the device comm stream the moment its producer kernel retires
    /// ([`SimRuntime::allreduce_chunked`]), hiding wire time under the
    /// kernels of slower devices and next-iteration prefetch copies.
    /// Slices carry dense or sparse bytes.
    Chunked { sparse: bool },
}

impl Reduce {
    /// The reduction mode `cfg` selects.
    fn of(cfg: &LdGpuConfig) -> Self {
        match (cfg.overlap, cfg.sparse_collectives) {
            (true, sparse) => Reduce::Chunked { sparse },
            (false, true) => Reduce::Sparse,
            (false, false) => Reduce::Dense,
        }
    }

    /// Overlap mode: the bytes of one reducible slice of the pointer
    /// array — its `written` slots when sparse, its whole `span` when
    /// dense. `None` outside overlap mode.
    fn chunk_bytes(self, written: u64, span: usize) -> Option<u64> {
        match self {
            Reduce::Chunked { sparse: true } => Some(16 * written),
            Reduce::Chunked { sparse: false } => Some(8 * span as u64),
            Reduce::Dense | Reduce::Sparse => None,
        }
    }

    /// Allreduce the pointer array after SETPOINTERS wrote `written`
    /// slots (Algorithm 2 line 7); `chunks` holds each device's slices
    /// in overlap mode.
    fn pointers(
        self,
        rt: &mut SimRuntime,
        chunks: &[Vec<CommChunk>],
        staging: &mut Vec<CommChunk>,
        written: u64,
        n: usize,
    ) {
        if let Reduce::Chunked { .. } = self {
            staging.clear();
            staging.extend(chunks.iter().flatten());
            rt.allreduce_chunked("allreduce ptr", staging);
            return;
        }
        // Behind a barrier, devices idle at the collective until the
        // slowest finishes its pointing phase — the paper's "explicit
        // synchronization" component is dominated by exactly this
        // imbalance wait, which the timeline attributes to the sync phase.
        rt.barrier_wait();
        if self == Reduce::Sparse {
            rt.allreduce_sparse("allreduce ptr", written, 16);
        } else {
            rt.allreduce("allreduce ptr", 8 * n as u64);
        }
    }

    /// Allreduce the mate array after SETMATES committed `new_matches`
    /// edges (Algorithm 2 line 9).
    fn mates(self, rt: &mut SimRuntime, new_matches: u64, n: usize) {
        match self {
            // SETMATES writes the whole mate array, so the reduction has
            // a single chunk, ready when the slowest device's compute
            // retires; the comm stream still lets next-iteration
            // prefetch copies run underneath.
            Reduce::Chunked { sparse } => {
                let bytes = if sparse { 16 * 2 * new_matches } else { 8 * n as u64 };
                let ready = rt.compute_horizon();
                rt.allreduce_chunked("allreduce mate", &[CommChunk { bytes, ready }])
            }
            Reduce::Sparse => rt.allreduce_sparse("allreduce mate", 2 * new_matches, 16),
            Reduce::Dense => rt.allreduce("allreduce mate", 8 * n as u64),
        };
    }
}

/// One billing lane of an execution: one config's reduction mode, billed
/// on a runtime of its own. The lanes of an execution share every host
/// array and kernel call; only what they bill differs.
struct Lane {
    reduce: Reduce,
    /// Emit the opt.* skip counters: a layer that can skip work is on.
    optimized: bool,
    rt: SimRuntime,
    /// Overlap staging, one list per device: the slices of the pointer
    /// reduction it produced this round.
    chunks: Vec<Vec<CommChunk>>,
    /// Warp-weighted occupancy sum and weight of this round's launches.
    occ_weighted: f64,
    occ_weight: f64,
    /// Streaming: prefetch copy time that ran under band kernels vs.
    /// time the compute stream sat waiting on the copy, over the run.
    prefetch_hidden: f64,
    prefetch_exposed: f64,
}

impl Lane {
    /// A fresh lane for `cfg` on `ndev` devices, with the cluster
    /// placement's `cut` (if any) billed into its collectives.
    fn new(cfg: &LdGpuConfig, ndev: usize, cut: Option<&CutStats>) -> Self {
        let mut rt = SimRuntime::new(&cfg.platform, ndev)
            .with_kernel_overhead(cfg.kernel_overhead)
            .with_trace(cfg.collect_trace);
        if let Some(stats) = cut {
            rt.gauge_set(names::PART_INTER_NODE_CUT, stats.cut_fraction());
            if cfg.topology_placement {
                // Only the boundary slice of the reduced arrays needs the
                // leader ring; ship that fraction inter-node.
                rt.gauge_set(names::PART_BOUNDARY_FRACTION, stats.boundary_fraction());
                rt.set_inter_cut(stats.boundary_fraction());
            }
        }
        Lane {
            reduce: Reduce::of(cfg),
            optimized: cfg.is_optimized(),
            rt,
            chunks: vec![Vec::new(); ndev],
            occ_weighted: 0.0,
            occ_weight: 0.0,
            prefetch_hidden: 0.0,
            prefetch_exposed: 0.0,
        }
    }
}

/// One device on one lane during the pointing phase: the timeline that
/// bills the device's copies, kernels and syncs, and what they billed.
struct LaneDevice {
    ctx: DeviceCtx,
    reduce: Reduce,
    chunks: Vec<CommChunk>,
    occ_weighted: f64,
    occ_weight: f64,
    prefetch_hidden: f64,
    prefetch_exposed: f64,
}

impl LaneDevice {
    /// Bill one SETPOINTERS launch into stream buffer `buf` and fold it
    /// into the lane's occupancy.
    fn launch(
        &mut self,
        buf: usize,
        label: Cow<'static, str>,
        res: &PointingResult,
    ) -> KernelLaunch {
        let launch = self.ctx.launch_kernel(Some(buf), label, &res.stats);
        self.occ_weighted += launch.occupancy * res.stats.warps_launched as f64;
        self.occ_weight += res.stats.warps_launched as f64;
        launch
    }
}

/// One device's pointing phase: its part, its slices of the global
/// pointer and retirement arrays, its buffers, and its timeline on every
/// lane.
struct DeviceTask<'a> {
    device: usize,
    part: VertexRange,
    pointers: &'a mut [u64],
    retired: &'a mut [u8],
    bufs: &'a mut DeviceScratch,
    lanes: Vec<LaneDevice>,
}

/// What a device's kernels computed in its pointing phase (the same on
/// every lane).
#[derive(Default)]
struct DeviceReport {
    res: PointingResult,
    batches_skipped: u64,
}

/// The config resolved once per execution: everything the iteration
/// loop reads that its lanes share.
struct Run<'a> {
    g: &'a CsrGraph,
    parts: &'a [VertexRange],
    pointing: Pointing<'a>,
    /// Per-device batch plans (empty under [`Pointing::Bands`]).
    batches: Vec<Vec<VertexRange>>,
    retire: bool,
    /// Resident warp slots of one device.
    slots: usize,
    /// The configured warp width, if pinned.
    fixed_vpw: Option<usize>,
    /// Warp width of full-batch launches.
    full_vpw: usize,
}

impl Run<'_> {
    /// Warp width of a worklist launch over `len` vertices: derived from
    /// the (shrinking) worklist unless pinned, like the incremental
    /// engine.
    fn worklist_vpw(&self, len: usize) -> usize {
        self.fixed_vpw.unwrap_or_else(|| len.div_ceil(self.slots).max(1))
    }

    /// SETPOINTERS on every device in parallel (Algorithm 2 lines 3-6);
    /// frontier rounds launch over each device's frontier only. Each
    /// device task runs its kernels once and bills them on every lane.
    fn point(
        &self,
        lanes: &mut [Lane],
        mut pointers: &mut [u64],
        mut retired: &mut [u8],
        devices: &mut [DeviceScratch],
        avail: &[u8],
        frontier_round: bool,
    ) -> Vec<DeviceReport> {
        let mut by_lane: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                let reduce = lane.reduce;
                let chunks = std::mem::take(&mut lane.chunks);
                lane.rt.detach_devices().into_iter().zip(chunks).map(move |(ctx, mut chunks)| {
                    chunks.clear();
                    LaneDevice {
                        ctx,
                        reduce,
                        chunks,
                        occ_weighted: 0.0,
                        occ_weight: 0.0,
                        prefetch_hidden: 0.0,
                        prefetch_exposed: 0.0,
                    }
                })
            })
            .collect();
        let tasks: Vec<DeviceTask<'_>> = self
            .parts
            .iter()
            .zip(devices)
            .enumerate()
            .map(|(device, (part, bufs))| {
                let len = part.num_vertices();
                let (p, p_rest) = std::mem::take(&mut pointers).split_at_mut(len);
                let (r, r_rest) = std::mem::take(&mut retired).split_at_mut(len);
                (pointers, retired) = (p_rest, r_rest);
                let lanes = by_lane.iter_mut().map(|l| l.next().expect("a timeline per device"));
                let lanes = lanes.collect();
                DeviceTask { device, part: *part, pointers: p, retired: r, bufs, lanes }
            })
            .collect();
        let (by_device, reports): (Vec<_>, Vec<_>) = tasks
            .into_par_iter()
            .map(|mut task| {
                let rep = match &self.pointing {
                    Pointing::Full => self.point_batches(&mut task, None, avail, frontier_round),
                    Pointing::Sorted(index) => {
                        self.point_batches(&mut task, Some(index), avail, frontier_round)
                    }
                    Pointing::Bands { index, plans } => {
                        let plan = &plans[task.device];
                        self.point_bands(&mut task, index, plan, avail, frontier_round)
                    }
                };
                // Overlap mode leaves the device undrained: the
                // host-visible clock stays at the last issue point so
                // next-iteration prefetch copies can run under the
                // in-flight collective chunks.
                for lane in &mut task.lanes {
                    if !matches!(lane.reduce, Reduce::Chunked { .. }) {
                        lane.ctx.drain();
                    }
                }
                (task.lanes, rep)
            })
            .collect();
        // Hand every lane its device timelines back, in device order.
        let mut by_device: Vec<_> = by_device.into_iter().map(Vec::into_iter).collect();
        for lane in lanes {
            let (mut ctxs, mut chunks) = (Vec::new(), Vec::new());
            (lane.occ_weighted, lane.occ_weight) = (0.0, 0.0);
            for dev in &mut by_device {
                let d = dev.next().expect("a timeline per lane");
                lane.occ_weighted += d.occ_weighted;
                lane.occ_weight += d.occ_weight;
                lane.prefetch_hidden += d.prefetch_hidden;
                lane.prefetch_exposed += d.prefetch_exposed;
                ctxs.push(d.ctx);
                chunks.push(d.chunks);
            }
            lane.rt.attach_devices(ctxs);
            lane.chunks = chunks;
        }
        reports
    }

    /// One device's batch walk. With ≤ 2 batches both stay resident in
    /// the stream buffers: their initial load is the host-device
    /// partition transfer the paper excludes from timings. Beyond two
    /// batches the buffers are re-streamed every iteration (billed), with
    /// an explicit host sync per batch (paper §III-D).
    fn point_batches(
        &self,
        task: &mut DeviceTask<'_>,
        sorted: Option<&SortedAdjacency>,
        avail: &[u8],
        frontier_round: bool,
    ) -> DeviceReport {
        let mut rep = DeviceReport::default();
        let frontier = &task.bufs.frontier;
        let batches = &self.batches[task.device];
        let restream = batches.len() > 2;
        for (b, brange) in batches.iter().enumerate() {
            // An empty batch (more requested batches than partition
            // vertices) has nothing to copy, launch or sync.
            if brange.num_vertices() == 0 {
                rep.batches_skipped += 1;
                continue;
            }
            // Frontier rounds restrict the launch to the batch's slice of
            // the device worklist; a batch with no frontier vertex is
            // skipped outright (no copy, no launch, no sync).
            let work = frontier_round.then(|| {
                let lo = frontier.partition_point(|&u| u < brange.start);
                let hi = frontier.partition_point(|&u| u < brange.end);
                &frontier[lo..hi]
            });
            if work.is_some_and(|w| w.is_empty()) {
                rep.batches_skipped += 1;
                // Dense collectives still ship the untouched slice;
                // nothing produces it this round, so it is ready at once.
                for lane in &mut task.lanes {
                    if lane.reduce == (Reduce::Chunked { sparse: false }) {
                        let bytes = 8 * brange.num_vertices() as u64;
                        lane.chunks.push(CommChunk { bytes, ready: 0.0 });
                    }
                }
                continue;
            }
            let (pw, vpw) = match work {
                Some(w) => (PointingWork::Worklist(w), self.worklist_vpw(w.len())),
                None => (PointingWork::Full, self.full_vpw),
            };
            let lo = (brange.start - task.part.start) as usize;
            let hi = (brange.end - task.part.start) as usize;
            let res = set_pointers_opt(
                self.g,
                sorted,
                brange,
                pw,
                avail,
                &mut task.pointers[lo..hi],
                &mut task.retired[lo..hi],
                vpw,
                self.retire,
            );
            let span = brange.num_vertices();
            for lane in &mut task.lanes {
                if restream {
                    let label = lane.ctx.label("copy", || format!("copy b{b}"));
                    lane.ctx.h2d_copy(b, memory::batch_buffer_bytes(brange), label);
                }
                let label = lane.ctx.label("point", || format!("point b{b}"));
                let launch = lane.launch(b, label, &res);
                // Overlap mode: the batch's slice of the pointer
                // reduction is ready the moment its kernel retires.
                if let Some(bytes) = lane.reduce.chunk_bytes(res.stats.vertices_processed, span) {
                    lane.chunks.push(CommChunk { bytes, ready: launch.end });
                }
                if restream {
                    let label = lane.ctx.label("sync", || format!("sync b{b}"));
                    lane.ctx.host_sync(label);
                }
            }
            rep.res.merge(&res);
        }
        rep
    }

    /// One device's out-of-core walk: the rank bands of `plan` in
    /// preference order, prefetching band `b`'s non-resident bytes on the
    /// copy stream while the kernel of band `b-1` runs on the other
    /// stream buffer (`buf = band & 1`, the batch walk's double-buffer
    /// cycle). A vertex leaves the band worklist the moment it finds an
    /// available neighbor — the hit is the full scan's argmax because
    /// bands tile the sorted order — so deeper bands stream ever-shrinking
    /// worklists.
    ///
    /// Residency: `resident[i]` counts the leading bands of vertex
    /// `part.start + i` still held from the previous iteration. A band
    /// below the window that is already resident bills zero copy bytes;
    /// scanning past the window recycles the vertex's slots. Prefetch
    /// accounting splits each copy's duration into the part that ran
    /// under compute (`hidden`) and the part the compute stream spent
    /// waiting on it (`exposed`).
    fn point_bands(
        &self,
        task: &mut DeviceTask<'_>,
        index: &SortedAdjacency,
        plan: &SubstreamPlan,
        avail: &[u8],
        frontier_round: bool,
    ) -> DeviceReport {
        let mut rep = DeviceReport::default();
        let DeviceScratch { frontier, work, next, resident } = &mut *task.bufs;
        let (g, part, layout) = (self.g, task.part, plan.layout);
        work.clear();
        // Iteration worklist: the frontier in frontier rounds, otherwise
        // every live vertex of the part. Degree-0 vertices can never
        // match and never enter.
        if frontier_round {
            work.extend(frontier.iter().copied().filter(|&u| g.degree(u) > 0));
        } else {
            work.extend((part.start..part.end).filter(|&u| {
                avail[u as usize] != 0
                    && task.retired[(u - part.start) as usize] == 0
                    && g.degree(u) > 0
            }));
        }
        let mut last_end = vec![0.0; task.lanes.len()];
        for band in 0..layout.num_bands() {
            if work.is_empty() {
                break;
            }
            // Prefetch billing: only bytes not already resident travel.
            // Band data loaded below the window stays pinned for the next
            // iteration; scanning past the window recycles the slots.
            let mut bytes = 0u64;
            for &u in work.iter() {
                let i = (u - part.start) as usize;
                if band >= resident[i] as usize {
                    bytes += layout.vertex_band_bytes(g, u, band);
                }
                resident[i] = if band < plan.window { (band + 1).min(255) as u8 } else { 0 };
            }
            next.clear();
            let res = set_pointers_band(
                g,
                index,
                &layout,
                band,
                work,
                next,
                avail,
                task.pointers,
                task.retired,
                part.start,
                self.worklist_vpw(work.len()),
                self.retire,
            );
            for (lane, end) in task.lanes.iter_mut().zip(&mut last_end) {
                let copy = (bytes > 0).then(|| {
                    let label = lane.ctx.label("copy", || format!("stream s{band}"));
                    lane.ctx.h2d_copy(band, bytes, label)
                });
                let t0 = lane.ctx.compute_done();
                let label = lane.ctx.label("point", || format!("point s{band}"));
                let launch = lane.launch(band, label, &res);
                if let Some((cs, ce)) = copy {
                    let exposed = (launch.start - t0).clamp(0.0, ce - cs);
                    lane.prefetch_exposed += exposed;
                    lane.prefetch_hidden += (ce - cs) - exposed;
                }
                *end = launch.end;
            }
            rep.res.merge(&res);
            std::mem::swap(work, next);
        }
        // Overlap mode: the device's whole slice of the pointer
        // reduction is ready when its last band kernel retires.
        let written = rep.res.stats.vertices_processed;
        for (lane, ready) in task.lanes.iter_mut().zip(last_end) {
            if let Some(bytes) = lane.reduce.chunk_bytes(written, part.num_vertices()) {
                lane.chunks.push(CommChunk { bytes, ready });
            }
        }
        rep
    }

    /// Streaming residency: vertices that just left the live set
    /// (matched by this SETMATES, or retired as exhausted) release their
    /// pinned window bands. Returns how many did.
    fn evict(&self, devices: &mut [DeviceScratch], avail: &[u8], retired: &[u8]) -> u64 {
        let mut evicted = 0;
        for (part, dev) in self.parts.iter().zip(devices) {
            for (v, r) in (part.start as usize..).zip(dev.resident.iter_mut()) {
                if *r != 0 && (avail[v] == 0 || retired[v] != 0) {
                    *r = 0;
                    evicted += 1;
                }
            }
        }
        evicted
    }

    /// Rebuild every device's frontier: the vertices whose pointer
    /// target was matched away by this SETMATES. Everyone else still
    /// points at their best available neighbor. Returns the total size.
    fn next_frontier(
        &self,
        devices: &mut [DeviceScratch],
        pointers: &[u64],
        avail: &[u8],
    ) -> usize {
        let mut total = 0;
        for (part, dev) in self.parts.iter().zip(devices) {
            dev.frontier.clear();
            dev.frontier.extend((part.start..part.end).filter(|&u| {
                let p = pointers[u as usize];
                avail[u as usize] != 0 && p != NONE_SENTINEL && avail[p as usize] == 0
            }));
            total += dev.frontier.len();
        }
        total
    }
}

/// Out-of-core planning: size a resident band window per device.
fn plan_bands(
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
fn place_on_nodes(
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

impl LdGpu {
    /// Create a matcher from a configuration.
    pub fn new(cfg: LdGpuConfig) -> Self {
        LdGpu { cfg }
    }

    /// Run on `g`, panicking on infeasible configurations.
    pub fn run(&self, g: &CsrGraph) -> LdGpuOutput {
        self.try_run(g).expect("LD-GPU configuration infeasible")
    }

    /// Run on `g`, building the sorted index first when the config scans
    /// through it.
    pub fn try_run(&self, g: &CsrGraph) -> Result<LdGpuOutput, LdGpuError> {
        let index =
            (self.cfg.sorted_index || self.cfg.streaming).then(|| SortedAdjacency::build(g));
        self.run_indexed(g, index.as_ref())
    }

    /// Run on `g` with a prebuilt preference-sorted index of `g`: the
    /// one-lane call of [`run_lanes`].
    pub(crate) fn run_indexed(
        &self,
        g: &CsrGraph,
        index: Option<&SortedAdjacency>,
    ) -> Result<LdGpuOutput, LdGpuError> {
        let mut outs = run_lanes(g, index, std::slice::from_ref(&self.cfg))?;
        Ok(outs.next().expect("one output per lane"))
    }
}

/// Run one execution on `g` and bill it on one lane per config of
/// `cfgs`, yielding one output per config, in order. Each output equals
/// what a run of its config alone returns, bit for bit.
///
/// The configs must share an [`LdGpuConfig::execution_class`]: they may
/// differ only in `sparse_collectives` and `overlap`, which change how
/// the collectives are billed and never a kernel's inputs. So the
/// kernels run once and every host array (pointers, mates, retirement,
/// availability, frontiers) exists once, while each lane owns a
/// [`SimRuntime`] that receives exactly the calls a single run of its
/// config makes, in the same order.
///
/// `index` is a prebuilt preference-sorted index of `g`. It depends
/// only on the graph, so callers that run many configs on one graph
/// (the auto-tuner) build it once and lend it to every run. It is read
/// only when the configs scan through it (`sorted_index` or
/// `streaming`, which then require it) and ignored otherwise.
///
/// # Panics
/// If `cfgs` is empty or spans two classes, if `index` was built from a
/// graph with another vertex or edge count, or if the configs need the
/// index and none is given.
pub(crate) fn run_lanes(
    g: &CsrGraph,
    index: Option<&SortedAdjacency>,
    cfgs: &[LdGpuConfig],
) -> Result<impl Iterator<Item = LdGpuOutput>, LdGpuError> {
    let cfg = cfgs.first().expect("an execution bills at least one lane");
    let class = cfg.execution_class();
    assert!(
        cfgs.iter().all(|c| c.execution_class() == class),
        "lanes of one execution differ beyond sparse collectives and overlap"
    );
    assert!(
        index.is_none_or(|idx| idx.num_vertices() == g.num_vertices()
            && idx.num_directed_edges() == g.num_directed_edges()),
        "sorted index built from another graph"
    );
    let n = g.num_vertices();
    let ndev = cfg.devices.clamp(1, cfg.platform.max_devices);
    let partition = Partition::edge_balanced(g, ndev);
    let index = || index.expect("sorted-index and streaming runs need the sorted index");
    let mut scratch = Scratch::for_graph(g).with_devices(ndev);

    // Resolve the pointing source and its plan. Streaming reports the
    // deepest band count as `batches`: the copy/kernel rounds a full
    // iteration takes.
    let (pointing, batches, nbatches) = if cfg.streaming {
        let plans = plan_bands(g, &partition, cfg)?;
        let deepest = plans.iter().map(|p| p.layout.num_bands()).max().unwrap_or(0);
        for (dev, part) in scratch.devices.iter_mut().zip(&partition.parts) {
            dev.resident = vec![0; part.num_vertices()];
        }
        (Pointing::Bands { index: index(), plans }, vec![Vec::new(); ndev], deepest.max(1))
    } else {
        let (count, plans) = plan_batches(g, &partition, cfg)?;
        let pointing = if cfg.sorted_index { Pointing::Sorted(index()) } else { Pointing::Full };
        (pointing, plans, count)
    };
    let spec = &cfg.platform.device;
    let slots = (spec.sm_count * spec.max_warps_per_sm) as usize;
    let run = Run {
        g,
        parts: &partition.parts,
        pointing,
        batches,
        retire: cfg.retire_exhausted,
        slots,
        fixed_vpw: cfg.vertices_per_warp,
        full_vpw: cfg.vertices_per_warp.unwrap_or_else(|| n.div_ceil(ndev).div_ceil(slots).max(1)),
    };
    let streaming = cfg.streaming;
    let frontier = cfg.frontier;
    let collect_iterations = cfg.collect_iterations;
    let probe_iterations = cfg.probe_iterations;

    let cut = place_on_nodes(g, &partition, cfg, ndev);
    let mut lanes: Vec<Lane> = cfgs.iter().map(|c| Lane::new(c, ndev, cut.as_ref())).collect();

    // Global device-resident arrays.
    let mut pointers: Vec<u64> = vec![NONE_SENTINEL; n];
    let mut mate: Vec<u64> = vec![NONE_SENTINEL; n];
    let mut retired: Vec<u8> = vec![0; n];
    let Scratch { avail, devices, comm_staging, .. } = &mut scratch;
    let total_directed = g.num_directed_edges() as u64;
    let mut iterations = 0usize;

    loop {
        let frontier_round = frontier && iterations > 0;
        let reports =
            run.point(&mut lanes, &mut pointers, &mut retired, devices, avail, frontier_round);
        let mut round = PointingResult::default();
        let mut batches_skipped = 0;
        for r in &reports {
            round.merge(&r.res);
            batches_skipped += r.batches_skipped;
        }
        for Lane { rt, optimized, .. } in &mut lanes {
            for r in &reports {
                rt.counter_add(names::KERNEL_VERTICES_RETIRED, r.res.vertices_retired);
            }
            rt.counter_add(names::KERNEL_POINTERS_SET, round.pointers_set);
            // The opt.* skip counters are emitted whenever a layer that
            // can skip work is on; batch skips also when they fired
            // anyway (empty batches of an oversized plan).
            if *optimized || streaming {
                rt.counter_add(names::OPT_EDGES_SKIPPED, round.edges_skipped);
            }
            if *optimized || batches_skipped > 0 {
                rt.counter_add(names::OPT_BATCHES_SKIPPED, batches_skipped);
            }
        }
        if round.pointers_set == 0 {
            break; // no available edges anywhere: matching is maximal
        }
        iterations += 1;

        let written = round.stats.vertices_processed;
        for lane in &mut lanes {
            lane.reduce.pointers(&mut lane.rt, &lane.chunks, comm_staging, written, n);
        }

        let (mstats, new_matches) = set_mates(&pointers, &mut mate, avail);
        let evicted = streaming.then(|| run.evict(devices, avail, &retired));
        for lane in &mut lanes {
            let rt = &mut lane.rt;
            rt.counter_add(names::MATCHING_EDGES_COMMITTED, new_matches);
            rt.global_kernel("setmates", &mstats);
            if let Some(evicted) = evicted {
                rt.counter_add(names::MEM_EVICTIONS, evicted);
            }
            lane.reduce.mates(rt, new_matches, n);

            // Runtime-level livelock invariant: an iteration that set
            // pointers must commit at least one edge (two locally-dominant
            // endpoints point at each other under the canonical total
            // order), or the driver would re-derive the same pointers
            // forever.
            rt.assert_progress(new_matches, "SETMATES after a pointer-setting round");

            if collect_iterations {
                let occ =
                    if lane.occ_weight > 0.0 { lane.occ_weighted / lane.occ_weight } else { 0.0 };
                rt.push_iteration(IterationRecord::from_stats(
                    iterations - 1,
                    &round.stats,
                    total_directed,
                    occ,
                    new_matches,
                ));
            }
        }

        // An empty frontier is a fixed point: any remaining available
        // edge's maximum would be a mutual pair and would already have
        // been committed.
        if frontier {
            let size = run.next_frontier(devices, &pointers, avail);
            for lane in &mut lanes {
                lane.rt.observe(names::OPT_FRONTIER_SIZE, size as f64);
            }
            if size == 0 {
                break;
            }
        }

        // Auto-tuner probes: the partial run's simulated time is the
        // probe's score; the matching is simply not maximal yet.
        if probe_iterations.is_some_and(|k| iterations >= k) {
            break;
        }
    }

    let resident_high_water = match &run.pointing {
        Pointing::Bands { plans, .. } => {
            Some(plans.iter().map(|p| p.resident_bytes).max().unwrap_or(0))
        }
        Pointing::Full | Pointing::Sorted(_) => None,
    };
    // Each lane's output is built when it is taken, so a caller that
    // keeps only the lane's time holds one mate array copy at a time.
    Ok(lanes.into_iter().map(move |mut lane| {
        let rt = &mut lane.rt;
        rt.counter_add(names::DRIVER_ITERATIONS, iterations as u64);
        rt.gauge_set(names::DRIVER_BATCHES, nbatches as f64);
        if let Some(high_water) = resident_high_water {
            rt.gauge_set(names::MEM_RESIDENT_BYTES, high_water as f64);
            rt.gauge_set(names::COPY_PREFETCH_HIDDEN_TIME, lane.prefetch_hidden);
            rt.gauge_set(names::COPY_PREFETCH_EXPOSED_TIME, lane.prefetch_exposed);
        }
        let fin = lane.rt.finish();
        let mate = mate.iter().map(|&v| if v == NONE_SENTINEL { UNMATCHED } else { v as VertexId });
        LdGpuOutput {
            matching: Matching::from_mate(mate.collect()),
            iterations,
            sim_time: fin.sim_time,
            profile: fin.profile,
            devices: ndev,
            batches: nbatches,
            trace: fin.trace,
            metrics: fin.metrics,
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ld_seq::ld_seq;
    use crate::verify::half_approx_certificate;
    use ldgm_gpusim::Platform;
    use ldgm_graph::gen::{rmat, urand, RmatParams};

    fn dgx() -> Platform {
        Platform::dgx_a100()
    }

    #[test]
    fn single_device_matches_ld_seq() {
        for seed in 0..3 {
            let g = urand(500, 3000, seed);
            let out = LdGpu::new(LdGpuConfig::new(dgx())).run(&g);
            let seq = ld_seq(&g);
            assert_eq!(out.matching.mate_array(), seq.mate_array(), "seed {seed}");
            assert_eq!(out.matching.verify(&g), Ok(()));
        }
    }

    #[test]
    fn multi_device_identical_to_ld_seq() {
        let g = rmat(1024, 8000, RmatParams::GAP_KRON, 5);
        let seq = ld_seq(&g);
        for ndev in [2, 3, 4, 8] {
            let out = LdGpu::new(LdGpuConfig::new(dgx()).devices(ndev)).run(&g);
            assert_eq!(out.matching.mate_array(), seq.mate_array(), "{ndev} devices");
            assert_eq!(out.devices, ndev);
        }
    }

    #[test]
    fn batching_does_not_change_result() {
        let g = urand(800, 6400, 9);
        let seq = ld_seq(&g);
        for nb in [1, 2, 3, 5, 10] {
            let out = LdGpu::new(LdGpuConfig::new(dgx()).devices(2).batches(nb)).run(&g);
            assert_eq!(out.matching.mate_array(), seq.mate_array(), "{nb} batches");
            assert_eq!(out.batches, nb);
        }
    }

    #[test]
    fn maximal_certified_and_profiled() {
        let g = rmat(2048, 20_000, RmatParams::SOCIAL, 2);
        let out = LdGpu::new(LdGpuConfig::new(dgx()).devices(4)).run(&g);
        assert!(out.matching.is_maximal(&g));
        assert!(half_approx_certificate(&g, &out.matching));
        assert!(out.sim_time > 0.0);
        assert_eq!(out.profile.iterations.len(), out.iterations);
        assert!(out.profile.phases.total() > 0.0);
        // First iteration scans the most edges.
        let first = out.profile.iterations[0].edges_scanned;
        for r in &out.profile.iterations[1..] {
            assert!(r.edges_scanned <= first);
        }
    }

    #[test]
    fn metrics_track_real_work() {
        let g = urand(900, 7000, 11);
        let out = LdGpu::new(LdGpuConfig::new(dgx()).devices(4)).run(&g);
        let m = &out.metrics;
        // Edge scans: at least one full pass over the directed adjacency.
        assert!(m.counter("kernel.edges_scanned") >= g.num_directed_edges() as u64);
        // Every matched edge was committed exactly once.
        assert_eq!(m.counter("matching.edges_committed"), out.matching.cardinality() as u64);
        // Two collectives per iteration.
        assert_eq!(m.counter("comm.allreduce_calls"), 2 * out.iterations as u64);
        assert!(m.counter("comm.collective_bytes") > 0);
        // Pointers set >= matches committed * 2 (mutual pairs).
        assert!(m.counter("kernel.pointers_set") >= 2 * m.counter("matching.edges_committed"));
        assert_eq!(m.counter("driver.iterations"), out.iterations as u64);
        let occ = m.gauge("kernel.occupancy").unwrap();
        assert!((0.0..=1.0).contains(&occ));
        assert_eq!(m.gauge("driver.devices"), Some(4.0));
    }

    #[test]
    fn retirement_metric_matches_config() {
        let g = urand(700, 3500, 12);
        let on = LdGpu::new(LdGpuConfig::new(dgx())).run(&g);
        assert!(on.metrics.counter("kernel.vertices_retired") > 0);
        let cfg = LdGpuConfig { retire_exhausted: false, ..LdGpuConfig::new(dgx()) };
        let off = LdGpu::new(cfg).run(&g);
        assert_eq!(off.metrics.counter("kernel.vertices_retired"), 0);
    }

    #[test]
    fn single_device_has_no_wire_traffic() {
        let g = urand(300, 1200, 13);
        let out = LdGpu::new(LdGpuConfig::new(dgx()).devices(1)).run(&g);
        assert_eq!(out.metrics.counter("comm.collective_bytes"), 0);
        assert_eq!(out.metrics.counter("comm.allreduce_calls"), 2 * out.iterations as u64);
    }

    #[test]
    fn tight_memory_forces_batches() {
        let g = urand(2000, 30_000, 3);
        // Shrink device memory to ~1/3 of the single-batch footprint.
        let part = Partition::edge_balanced(&g, 1);
        let single = memory::device_footprint_bytes(
            &batch::make_batches(&g, &part.parts[0], 1),
            g.num_vertices(),
        );
        let platform = dgx().with_device_memory(single * 2 / 5);
        let out = LdGpu::new(LdGpuConfig::new(platform)).run(&g);
        assert!(out.batches > 1, "expected batching, got {}", out.batches);
        assert_eq!(out.matching.mate_array(), ld_seq(&g).mate_array());
    }

    #[test]
    fn infeasible_memory_errors() {
        let g = urand(1000, 5000, 4);
        // Global arrays alone exceed memory.
        let platform = dgx().with_device_memory(100);
        let err = LdGpu::new(LdGpuConfig::new(platform)).try_run(&g).unwrap_err();
        assert!(matches!(err, LdGpuError::OutOfMemory { .. }));
    }

    #[test]
    fn explicit_batch_plan_too_large_errors() {
        let g = urand(1000, 20_000, 5);
        let part = Partition::edge_balanced(&g, 1);
        let single = memory::device_footprint_bytes(
            &batch::make_batches(&g, &part.parts[0], 1),
            g.num_vertices(),
        );
        let platform = dgx().with_device_memory(single / 2);
        let err = LdGpu::new(LdGpuConfig::new(platform).batches(1)).try_run(&g).unwrap_err();
        assert!(matches!(err, LdGpuError::BatchPlanTooLarge { .. }));
    }

    #[test]
    fn more_devices_do_not_increase_iterations() {
        let g = urand(1500, 12_000, 6);
        let a = LdGpu::new(LdGpuConfig::new(dgx()).devices(1)).run(&g);
        let b = LdGpu::new(LdGpuConfig::new(dgx()).devices(8)).run(&g);
        assert_eq!(a.iterations, b.iterations, "iteration count is algorithm-determined");
    }

    #[test]
    fn devices_clamped_to_platform() {
        let g = urand(200, 800, 7);
        let out = LdGpu::new(LdGpuConfig::new(dgx()).devices(64)).run(&g);
        assert_eq!(out.devices, 8);
    }

    #[test]
    fn empty_graph_terminates_immediately() {
        let g = CsrGraph::empty(100);
        let out = LdGpu::new(LdGpuConfig::new(dgx())).run(&g);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.matching.cardinality(), 0);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use ldgm_gpusim::{EventKind, Platform};
    use ldgm_graph::gen::urand;

    #[test]
    fn trace_records_expected_event_kinds() {
        let g = urand(800, 6400, 1);
        let out =
            LdGpu::new(LdGpuConfig::new(Platform::dgx_a100()).devices(2).batches(4).with_trace())
                .run(&g);
        let trace = out.trace.expect("trace requested");
        let kinds: Vec<EventKind> =
            [EventKind::H2dCopy, EventKind::Kernel, EventKind::Collective, EventKind::HostSync]
                .into_iter()
                .filter(|k| trace.events.iter().any(|e| e.kind == *k))
                .collect();
        assert_eq!(kinds.len(), 4, "4-batch run must exercise every event kind");
        // Two collectives per iteration, recorded once per device.
        let collectives = trace.events.iter().filter(|e| e.kind == EventKind::Collective).count();
        assert_eq!(collectives, 2 * out.iterations * out.devices);
        // The trace horizon matches the simulated time.
        let (_, hi) = trace.span().unwrap();
        assert!((hi - out.sim_time).abs() < 1e-12);
        // Gantt rendering works on real traces.
        assert!(trace.render_gantt(80).contains("dev0"));
    }

    #[test]
    fn trace_off_by_default() {
        let g = urand(100, 400, 2);
        let out = LdGpu::new(LdGpuConfig::new(Platform::dgx_a100())).run(&g);
        assert!(out.trace.is_none());
    }
}

#[cfg(test)]
mod indexed_tests {
    use super::*;
    use ldgm_gpusim::export::chrome_trace_json;
    use ldgm_gpusim::Platform;
    use ldgm_graph::gen::{rmat, RmatParams};
    use ldgm_graph::GraphBuilder;

    /// R-MAT structure with only three weight values, so most preference
    /// decisions fall to the id tie-break.
    fn tied_graph() -> CsrGraph {
        let base = rmat(1024, 8000, RmatParams::GAP_KRON, 23);
        let mut b = GraphBuilder::new(base.num_vertices());
        for (u, v, _) in base.iter_edges() {
            b.push_edge(u, v, 1.0 + ((u ^ v) % 3) as f64);
        }
        b.build()
    }

    #[test]
    fn prebuilt_index_reproduces_try_run_exactly() {
        let g = tied_graph();
        // One index for every config, as the tuner lends it: configs that
        // do not scan through it must ignore it.
        let index = SortedAdjacency::build(&g);
        for streamed in [false, true] {
            for mask in 0..8u32 {
                for ndev in [1, 2, 4, 8] {
                    let cfg = LdGpuConfig::new(Platform::dgx_a100())
                        .devices(ndev)
                        .with_sorted_index(mask & 1 != 0)
                        .with_frontier(mask & 2 != 0)
                        .with_sparse_collectives(mask & 4 != 0)
                        .with_streaming(streamed)
                        .with_trace();
                    let what = format!("mask {mask}, {ndev} devices, streamed {streamed}");
                    let m = LdGpu::new(cfg);
                    let want = m.try_run(&g).unwrap();
                    let got = m.run_indexed(&g, Some(&index)).unwrap();
                    assert_eq!(got.matching.mate_array(), want.matching.mate_array(), "{what}");
                    assert_eq!(got.sim_time.to_bits(), want.sim_time.to_bits(), "{what}");
                    assert_eq!(got.profile.phases, want.profile.phases, "{what}");
                    assert_eq!(
                        got.metrics.to_json().to_string_compact(),
                        want.metrics.to_json().to_string_compact(),
                        "{what}"
                    );
                    let json = |o: &LdGpuOutput| {
                        chrome_trace_json(o.trace.as_ref().expect("trace requested"))
                            .to_string_compact()
                    };
                    assert_eq!(json(&got), json(&want), "{what}");
                }
            }
        }
    }

    /// Everything a run reports, as comparable bits.
    fn fingerprint(o: &LdGpuOutput) -> (Vec<VertexId>, u64, RunProfile, String, String) {
        let trace = chrome_trace_json(o.trace.as_ref().expect("trace requested"));
        (
            o.matching.mate_array().to_vec(),
            o.sim_time.to_bits(),
            o.profile.clone(),
            o.metrics.to_json().to_string_compact(),
            trace.to_string_compact(),
        )
    }

    #[test]
    fn every_lane_equals_the_one_lane_run_of_its_config() {
        let g = tied_graph();
        let index = SortedAdjacency::build(&g);
        let dgx = Platform::dgx_a100();
        let tight = memory::device_footprint_bytes(
            &batch::make_batches(&g, &Partition::edge_balanced(&g, 2).parts[0], 1),
            g.num_vertices(),
        );
        let classes = [
            ("full scan", LdGpuConfig::new(dgx.clone()).devices(4)),
            ("re-streamed batches", LdGpuConfig::new(dgx.clone()).devices(2).batches(4)),
            (
                "sorted frontier over batches",
                LdGpuConfig::new(dgx.clone())
                    .devices(3)
                    .batches(5)
                    .with_sorted_index(true)
                    .with_frontier(true),
            ),
            (
                "retirement off",
                LdGpuConfig { retire_exhausted: false, ..LdGpuConfig::new(dgx.clone()).devices(2) },
            ),
            (
                "streamed bands",
                LdGpuConfig::new(dgx.clone())
                    .devices(2)
                    .with_streaming(true)
                    .with_mem_budget(tight / 3)
                    .with_frontier(true),
            ),
            (
                "topology-aware cluster",
                LdGpuConfig::new(Platform::dgx_a100_cluster(2))
                    .devices(16)
                    .with_topology_placement(true),
            ),
            (
                "probe",
                LdGpuConfig { probe_iterations: Some(2), ..LdGpuConfig::new(dgx).devices(2) },
            ),
        ];
        for (what, class) in classes {
            let lanes: Vec<LdGpuConfig> =
                [(false, false), (true, false), (false, true), (true, true)]
                    .into_iter()
                    .map(|(sparse, overlap)| {
                        class
                            .clone()
                            .with_sparse_collectives(sparse)
                            .with_overlap(overlap)
                            .with_trace()
                    })
                    .collect();
            let outs: Vec<_> = run_lanes(&g, Some(&index), &lanes).unwrap().collect();
            assert_eq!(outs.len(), lanes.len());
            for (cfg, got) in lanes.iter().zip(&outs) {
                let want = LdGpu::new(cfg.clone()).try_run(&g).unwrap();
                let lane =
                    format!("{what}, sparse {}, overlap {}", cfg.sparse_collectives, cfg.overlap);
                assert!(fingerprint(got) == fingerprint(&want), "{lane}");
                assert_eq!(
                    (got.iterations, got.batches),
                    (want.iterations, want.batches),
                    "{lane}"
                );
            }
            // The lanes bill differently: one execution, four timelines.
            assert!(outs.iter().any(|o| o.sim_time != outs[0].sim_time), "{what}");
        }
    }

    #[test]
    #[should_panic(expected = "lanes of one execution differ")]
    fn lanes_of_two_classes_are_refused() {
        let g = tied_graph();
        let cfg = LdGpuConfig::new(Platform::dgx_a100()).devices(2);
        let _ = run_lanes(&g, None, &[cfg.clone(), cfg.batches(3)]);
    }

    #[test]
    #[should_panic(expected = "sorted index built from another graph")]
    fn index_of_another_graph_is_refused() {
        let g = tied_graph();
        // Same vertex count, other edges: only the edge-count check
        // tells the two apart.
        let other = rmat(1024, 4000, RmatParams::GAP_KRON, 24);
        let index = SortedAdjacency::build(&other);
        let cfg = LdGpuConfig::new(Platform::dgx_a100()).optimized();
        let _ = LdGpu::new(cfg).run_indexed(&g, Some(&index));
    }
}

#[cfg(test)]
mod opt_tests {
    use super::*;
    use crate::ld_seq::ld_seq;
    use ldgm_gpusim::Platform;
    use ldgm_graph::gen::{rmat, urand, RmatParams};
    use ldgm_graph::GraphBuilder;

    fn dgx() -> Platform {
        Platform::dgx_a100()
    }

    #[test]
    fn every_toggle_combination_matches_ld_seq() {
        let g = rmat(512, 4000, RmatParams::GAP_KRON, 21);
        let seq = ld_seq(&g);
        for mask in 0u8..16 {
            for ndev in [1, 4] {
                let cfg = LdGpuConfig::new(dgx())
                    .devices(ndev)
                    .with_sorted_index(mask & 1 != 0)
                    .with_frontier(mask & 2 != 0)
                    .with_sparse_collectives(mask & 4 != 0)
                    .with_overlap(mask & 8 != 0);
                let out = LdGpu::new(cfg).run(&g);
                assert_eq!(
                    out.matching.mate_array(),
                    seq.mate_array(),
                    "toggles {mask:04b}, {ndev} devices"
                );
            }
        }
    }

    #[test]
    fn opt_iteration_count_matches_default() {
        let g = urand(700, 4200, 22);
        let def = LdGpu::new(LdGpuConfig::new(dgx()).devices(2)).run(&g);
        let opt = LdGpu::new(LdGpuConfig::new(dgx()).devices(2).optimized()).run(&g);
        assert_eq!(opt.iterations, def.iterations);
        assert_eq!(opt.matching.mate_array(), def.matching.mate_array());
    }

    #[test]
    fn opt_reduces_simulated_time_and_work() {
        let g = rmat(4096, 40_000, RmatParams::SOCIAL, 23);
        let def = LdGpu::new(LdGpuConfig::new(dgx()).devices(4)).run(&g);
        let opt = LdGpu::new(LdGpuConfig::new(dgx()).devices(4).optimized()).run(&g);
        assert_eq!(opt.matching.mate_array(), def.matching.mate_array());
        assert!(opt.sim_time < def.sim_time, "opt {} vs default {}", opt.sim_time, def.sim_time);
        assert!(
            opt.metrics.counter("kernel.edges_scanned")
                < def.metrics.counter("kernel.edges_scanned")
        );
        assert!(
            opt.metrics.counter("comm.collective_bytes")
                < def.metrics.counter("comm.collective_bytes")
        );
        assert!(opt.metrics.counter("opt.edges_skipped") > 0, "hubs exceed one wave");
    }

    #[test]
    fn default_metrics_carry_no_opt_counters() {
        let g = urand(300, 1200, 24);
        let def = LdGpu::new(LdGpuConfig::new(dgx())).run(&g);
        assert_eq!(def.metrics.counter("opt.edges_skipped"), 0);
        assert_eq!(def.metrics.counter("opt.batches_skipped"), 0);
    }

    #[test]
    fn frontier_vertex_reenters_twice() {
        // u's target is matched away in two consecutive SETMATES rounds:
        // it0 commits x-p and r-s; it1 re-points {u,q} and commits y-q;
        // it2 re-points {u} alone and commits u-z.
        let (u, x, y, z, p, q, r, s) = (0u32, 1, 2, 3, 4, 5, 6, 7);
        let g = GraphBuilder::new(8)
            .add_edge(u, x, 5.0)
            .add_edge(u, y, 4.0)
            .add_edge(u, z, 3.0)
            .add_edge(x, p, 9.5)
            .add_edge(y, q, 8.0)
            .add_edge(q, r, 9.0)
            .add_edge(r, s, 10.0)
            .build();
        let seq = ld_seq(&g);
        let out = LdGpu::new(LdGpuConfig::new(dgx()).with_frontier(true)).run(&g);
        assert_eq!(out.iterations, 3);
        assert_eq!(out.matching.cardinality(), 4);
        assert_eq!(out.matching.mate_array(), seq.mate_array());
        let def = LdGpu::new(LdGpuConfig::new(dgx())).run(&g);
        assert_eq!(def.iterations, 3);
        assert_eq!(def.matching.mate_array(), out.matching.mate_array());
    }

    #[test]
    fn frontier_vertex_with_matched_target_retires() {
        // Path a-b-c: it0 commits b-c; a's pointer target is matched away,
        // a re-enters the frontier, finds nothing available, and retires.
        // (A *pointed-at* vertex can never retire while an available vertex
        // points at it — the pointing vertex is its available neighbor —
        // so the realizable edge case is the pointing side retiring.)
        let g = GraphBuilder::new(3).add_edge(0, 1, 1.0).add_edge(1, 2, 5.0).build();
        let out = LdGpu::new(LdGpuConfig::new(dgx()).with_frontier(true)).run(&g);
        let def = LdGpu::new(LdGpuConfig::new(dgx())).run(&g);
        assert_eq!(out.matching.mate_array(), def.matching.mate_array());
        assert_eq!(out.iterations, def.iterations);
        assert_eq!(out.metrics.counter("kernel.vertices_retired"), 1, "vertex 0 retires");
        assert_eq!(def.metrics.counter("kernel.vertices_retired"), 1);
    }

    #[test]
    fn empty_frontier_terminates_without_confirming_scan() {
        // Single edge: everything matches in it0. The frontier mode sees an
        // empty worklist and stops; the default pays one more full scan to
        // observe pointers_set == 0. Same matching, same iteration count,
        // strictly less simulated time.
        let g = GraphBuilder::new(2).add_edge(0, 1, 7.0).build();
        let opt = LdGpu::new(LdGpuConfig::new(dgx()).with_frontier(true)).run(&g);
        let def = LdGpu::new(LdGpuConfig::new(dgx())).run(&g);
        assert_eq!(opt.iterations, 1);
        assert_eq!(def.iterations, 1);
        assert_eq!(opt.matching.mate_array(), def.matching.mate_array());
        assert!(opt.sim_time < def.sim_time, "opt {} vs default {}", opt.sim_time, def.sim_time);
    }

    #[test]
    fn frontier_skips_empty_batches() {
        // Many batches, tiny late-round frontier: most batch launches are
        // skipped outright and the counter records it.
        let g = rmat(1024, 8000, RmatParams::GAP_KRON, 25);
        let out = LdGpu::new(LdGpuConfig::new(dgx()).batches(6).with_frontier(true)).run(&g);
        let def = LdGpu::new(LdGpuConfig::new(dgx()).batches(6)).run(&g);
        assert_eq!(out.matching.mate_array(), def.matching.mate_array());
        assert!(out.iterations > 1, "need a frontier round to exercise skipping");
        assert!(out.metrics.counter("opt.batches_skipped") > 0);
    }

    #[test]
    fn sparse_collectives_cut_wire_bytes_only() {
        let g = urand(1000, 8000, 26);
        let def = LdGpu::new(LdGpuConfig::new(dgx()).devices(4)).run(&g);
        let opt =
            LdGpu::new(LdGpuConfig::new(dgx()).devices(4).with_sparse_collectives(true)).run(&g);
        assert_eq!(opt.matching.mate_array(), def.matching.mate_array());
        assert_eq!(
            opt.metrics.counter("comm.allreduce_calls"),
            def.metrics.counter("comm.allreduce_calls"),
            "same number of collectives, smaller payloads"
        );
        assert!(
            opt.metrics.counter("comm.collective_bytes")
                < def.metrics.counter("comm.collective_bytes")
        );
        assert_eq!(
            opt.metrics.counter("kernel.edges_scanned"),
            def.metrics.counter("kernel.edges_scanned"),
            "sparse collectives leave kernel work untouched"
        );
    }

    #[test]
    fn default_mode_skips_empty_batches() {
        // 8 batches over a 5-vertex partition: the trailing batch ranges
        // are necessarily empty. They used to bill an h2d copy + host
        // sync each; now they are skipped outright and counted.
        let g = urand(5, 10, 41);
        let seq = ld_seq(&g);
        let out = LdGpu::new(LdGpuConfig::new(dgx()).batches(8)).run(&g);
        assert_eq!(out.matching.mate_array(), seq.mate_array());
        assert!(
            out.metrics.counter("opt.batches_skipped") >= 3,
            "at most 5 of 8 batch ranges can be non-empty"
        );
    }

    #[test]
    fn opt_with_retirement_disabled_matches_default() {
        let g = urand(600, 3600, 27);
        let mk = |opt: bool| {
            let mut cfg = LdGpuConfig::new(dgx()).devices(2);
            cfg.retire_exhausted = false;
            if opt {
                cfg = cfg.optimized();
            }
            LdGpu::new(cfg).run(&g)
        };
        let def = mk(false);
        let opt = mk(true);
        assert_eq!(opt.matching.mate_array(), def.matching.mate_array());
        assert_eq!(opt.iterations, def.iterations);
    }
}

#[cfg(test)]
mod overlap_tests {
    use super::*;
    use crate::ld_seq::ld_seq;
    use ldgm_gpusim::Platform;
    use ldgm_graph::gen::{rmat, urand, RmatParams};
    use ldgm_graph::GraphBuilder;

    fn dgx() -> Platform {
        Platform::dgx_a100()
    }

    /// A hub graph edge-balanced partitioning cannot balance: vertex 0
    /// carries `leaves` edges that all land on device 0, so its pointing
    /// kernel runs long after every other device has drained.
    fn hub_graph(leaves: u32) -> ldgm_graph::csr::CsrGraph {
        let mut b = GraphBuilder::new(leaves as usize + 1);
        for v in 1..=leaves {
            b = b.add_edge(0, v, 1.0 + (v % 97) as f64);
        }
        b.build()
    }

    #[test]
    fn overlap_matches_ld_seq_across_devices() {
        let g = rmat(1024, 8000, RmatParams::GAP_KRON, 31);
        let seq = ld_seq(&g);
        for ndev in [1, 2, 4, 8] {
            let out = LdGpu::new(LdGpuConfig::new(dgx()).devices(ndev).with_overlap(true)).run(&g);
            assert_eq!(out.matching.mate_array(), seq.mate_array(), "{ndev} devices");
        }
    }

    #[test]
    fn overlap_hides_communication_under_imbalance() {
        // The hub warp scans 1M edges serially (~500 µs straggler), far
        // past the chunked-op chain (~100 µs of NCCL launch+latency), so
        // the leaf-device slices reduce entirely under the hub kernel and
        // only the hub's own tiny slice stays exposed.
        let g = hub_graph(1_000_000);
        let ser = LdGpu::new(LdGpuConfig::new(dgx()).devices(4)).run(&g);
        let ovl = LdGpu::new(LdGpuConfig::new(dgx()).devices(4).with_overlap(true)).run(&g);
        assert_eq!(ovl.matching.mate_array(), ser.matching.mate_array());
        assert_eq!(ovl.iterations, ser.iterations);
        // Same wire traffic either way; only its placement changes.
        assert_eq!(
            ovl.metrics.counter("comm.collective_bytes"),
            ser.metrics.counter("comm.collective_bytes")
        );
        let e_ser = ser.metrics.gauge("comm.exposed_time").unwrap();
        let e_ovl = ovl.metrics.gauge("comm.exposed_time").unwrap();
        assert!(e_ovl < e_ser, "exposed {e_ovl} vs serialized {e_ser}");
        assert!(ovl.metrics.gauge("comm.hidden_time").unwrap() > 0.0);
        assert_eq!(ser.metrics.gauge("comm.hidden_time"), Some(0.0));
        assert!(ovl.sim_time < ser.sim_time, "ovl {} vs ser {}", ovl.sim_time, ser.sim_time);
    }

    #[test]
    fn overlap_composes_with_opt_toggles() {
        let g = hub_graph(2000);
        let seq = ld_seq(&g);
        let ovl =
            LdGpu::new(LdGpuConfig::new(dgx()).devices(4).optimized().with_overlap(true)).run(&g);
        assert_eq!(ovl.matching.mate_array(), seq.mate_array());
        let occ = ovl.metrics.gauge("stream.occupancy").unwrap();
        assert!((0.0..=1.0).contains(&occ), "occupancy {occ}");
    }

    #[test]
    fn overlap_single_device_keeps_invariants() {
        let g = urand(500, 3000, 33);
        let out = LdGpu::new(LdGpuConfig::new(dgx()).devices(1).with_overlap(true)).run(&g);
        assert_eq!(out.matching.mate_array(), ld_seq(&g).mate_array());
        assert_eq!(out.metrics.counter("comm.collective_bytes"), 0);
        assert!((out.profile.phases.total() - out.sim_time).abs() <= 1e-9 * out.sim_time.max(1.0));
    }

    #[test]
    fn overlap_preserves_phase_accounting() {
        let g = hub_graph(3000);
        let out =
            LdGpu::new(LdGpuConfig::new(dgx()).devices(4).with_overlap(true).with_trace()).run(&g);
        assert!((out.profile.phases.total() - out.sim_time).abs() <= 1e-9 * out.sim_time.max(1.0));
        let trace = out.trace.expect("trace requested");
        let (_, hi) = trace.span().unwrap();
        assert!((hi - out.sim_time).abs() < 1e-12);
    }
}

#[cfg(test)]
mod streaming_tests {
    use super::*;
    use crate::ld_seq::ld_seq;
    use ldgm_gpusim::Platform;
    use ldgm_graph::gen::{rmat, urand, RmatParams};
    use ldgm_graph::BandLayout;

    fn dgx() -> Platform {
        Platform::dgx_a100()
    }

    #[test]
    fn streaming_matches_ld_seq_across_windows_and_devices() {
        let g = rmat(1024, 8000, RmatParams::GAP_KRON, 51);
        let seq = ld_seq(&g);
        for ndev in [1, 2, 4] {
            for w in [2, 3, 8] {
                let cfg = LdGpuConfig::new(dgx())
                    .devices(ndev)
                    .with_streaming(true)
                    .with_stream_window(w);
                let out = LdGpu::new(cfg).run(&g);
                assert_eq!(
                    out.matching.mate_array(),
                    seq.mate_array(),
                    "{ndev} devices, window {w}"
                );
            }
        }
    }

    #[test]
    fn tight_budget_streams_many_bands_bit_identically() {
        let g = urand(500, 5000, 52);
        let seq = ld_seq(&g);
        // Just above the narrowest feasible pipeline: single-rank bands.
        let narrowest = BandLayout::new(&g, 0, 500, 1).band_bytes(&g, 0);
        let budget = memory::global_state_bytes(500) + 2 * narrowest + 1024;
        let cfg = LdGpuConfig::new(dgx()).with_streaming(true).with_mem_budget(budget);
        let out = LdGpu::new(cfg).run(&g);
        assert_eq!(out.matching.mate_array(), seq.mate_array());
        assert!(out.batches > 1, "tight budget must force multiple bands, got {}", out.batches);
        assert!(out.metrics.counter(names::MEM_EVICTIONS) > 0, "matched vertices must evict");
        let high_water = out.metrics.gauge(names::MEM_RESIDENT_BYTES).unwrap();
        assert!(high_water <= budget as f64, "residency {high_water} over budget {budget}");
    }

    #[test]
    fn streaming_completes_where_whole_graph_refuses() {
        let g = urand(2000, 30_000, 53);
        // ~40% of the single-batch footprint: the whole-graph plan
        // refuses, streaming finishes with the same matching.
        let part = Partition::edge_balanced(&g, 1);
        let single =
            memory::device_footprint_bytes(&batch::make_batches(&g, &part.parts[0], 1), 2000);
        let platform = dgx().with_device_memory(single * 2 / 5);
        let err =
            LdGpu::new(LdGpuConfig::new(platform.clone()).batches(1)).try_run(&g).unwrap_err();
        assert!(matches!(err, LdGpuError::BatchPlanTooLarge { .. }));
        let out = LdGpu::new(LdGpuConfig::new(platform).with_streaming(true)).run(&g);
        assert_eq!(out.matching.mate_array(), ld_seq(&g).mate_array());
    }

    #[test]
    fn streaming_refuses_impossible_budget() {
        let g = urand(500, 3000, 54);
        let cfg = LdGpuConfig::new(dgx()).with_streaming(true).with_mem_budget(100);
        let err = LdGpu::new(cfg).try_run(&g).unwrap_err();
        assert!(matches!(err, LdGpuError::StreamPlanTooLarge { window: 2, .. }), "{err:?}");
        assert!(err.to_string().contains("streaming window"));
    }

    #[test]
    fn streaming_composes_with_opt_and_overlap() {
        let g = rmat(512, 4000, RmatParams::GAP_KRON, 55);
        let seq = ld_seq(&g);
        for mask in 0u8..8 {
            let cfg = LdGpuConfig::new(dgx())
                .devices(2)
                .with_streaming(true)
                .with_frontier(mask & 1 != 0)
                .with_sparse_collectives(mask & 2 != 0)
                .with_overlap(mask & 4 != 0);
            let out = LdGpu::new(cfg).run(&g);
            assert_eq!(out.matching.mate_array(), seq.mate_array(), "toggles {mask:03b}");
        }
    }

    #[test]
    fn prefetch_time_hides_behind_band_kernels() {
        // Heavy graph + tight budget: many bands stream per iteration, so
        // the copy of band b+1 runs under the kernel of band b and a
        // nonzero share of prefetch time must be hidden.
        let g = rmat(4096, 60_000, RmatParams::SOCIAL, 56);
        let n = g.num_vertices();
        let narrowest = BandLayout::new(&g, 0, n as u32, 1).band_bytes(&g, 0);
        let budget = memory::global_state_bytes(n) + 2 * narrowest + 4096;
        let cfg = LdGpuConfig::new(dgx()).with_streaming(true).with_mem_budget(budget);
        let out = LdGpu::new(cfg).run(&g);
        assert_eq!(out.matching.mate_array(), ld_seq(&g).mate_array());
        let hidden = out.metrics.gauge(names::COPY_PREFETCH_HIDDEN_TIME).unwrap();
        let exposed = out.metrics.gauge(names::COPY_PREFETCH_EXPOSED_TIME).unwrap();
        assert!(hidden > 0.0, "no prefetch time hidden (exposed {exposed})");
        assert!(exposed >= 0.0);
    }

    #[test]
    fn resident_window_cuts_second_iteration_copies() {
        // With everything resident (wide budget → one band), iterations
        // after the first re-bill nothing: total h2d traffic equals one
        // band-0 load, not one per iteration.
        let g = urand(800, 6400, 57);
        let out = LdGpu::new(LdGpuConfig::new(dgx()).with_streaming(true).with_trace()).run(&g);
        assert!(out.iterations > 1, "need a multi-iteration run");
        assert_eq!(out.batches, 1, "wide budget should take one band");
        let trace = out.trace.expect("trace requested");
        let copies =
            trace.events.iter().filter(|e| e.kind == ldgm_gpusim::EventKind::H2dCopy).count();
        assert_eq!(copies, 1, "only the first iteration streams the resident band");
    }
}

#[cfg(test)]
mod cluster_tests {
    use super::*;
    use crate::ld_seq::ld_seq;
    use ldgm_gpusim::Platform;
    use ldgm_graph::gen::{rmat, RmatParams};

    fn graph() -> CsrGraph {
        rmat(2048, 16_000, RmatParams::GAP_KRON, 17)
    }

    #[test]
    fn cluster_runs_match_single_node_and_ld_seq_bit_for_bit() {
        // The placement and the hierarchical schedule are billing-layer:
        // flat single-node, hierarchical cluster, and topology-aware
        // cluster runs all produce the same matching.
        let g = graph();
        let seq = ld_seq(&g);
        let cluster = Platform::dgx_a100_cluster(2);
        for cfg in [
            LdGpuConfig::new(Platform::dgx_a100()).devices(8),
            LdGpuConfig::new(cluster.clone()).devices(16),
            LdGpuConfig::new(cluster.clone()).devices(16).with_topology_placement(true),
            LdGpuConfig::new(cluster.clone().flattened()).devices(16),
        ] {
            let out = LdGpu::new(cfg).run(&g);
            assert_eq!(out.matching.mate_array(), seq.mate_array());
        }
    }

    #[test]
    fn hierarchical_collectives_beat_the_flattened_cluster() {
        let g = graph();
        let cluster = Platform::dgx_a100_cluster(2);
        let hier = LdGpu::new(LdGpuConfig::new(cluster.clone()).devices(16)).run(&g);
        let flat = LdGpu::new(LdGpuConfig::new(cluster.flattened()).devices(16)).run(&g);
        assert_eq!(hier.matching.mate_array(), flat.matching.mate_array());
        assert!(
            hier.sim_time <= flat.sim_time * (1.0 + 1e-12),
            "hierarchical {} vs flattened {}",
            hier.sim_time,
            flat.sim_time
        );
        assert_eq!(hier.metrics.gauge("cluster.nodes"), Some(2.0));
        assert!(hier.metrics.counter("comm.inter_node_bytes") > 0);
    }

    #[test]
    fn topology_placement_reduces_exposed_inter_node_time() {
        let g = graph();
        let cluster = Platform::dgx_a100_cluster(2);
        let hier = LdGpu::new(LdGpuConfig::new(cluster.clone()).devices(16)).run(&g);
        let aware =
            LdGpu::new(LdGpuConfig::new(cluster).devices(16).with_topology_placement(true)).run(&g);
        assert_eq!(aware.matching.mate_array(), hier.matching.mate_array());
        // The boundary fraction < 1 shrinks the leader-ring payload.
        let frac = aware.metrics.gauge("part.boundary_fraction").unwrap();
        assert!((0.0..=1.0).contains(&frac), "boundary fraction {frac}");
        let t_hier = hier.metrics.gauge("comm.inter_time").unwrap();
        let t_aware = aware.metrics.gauge("comm.inter_time").unwrap();
        assert!(t_aware <= t_hier * (1.0 + 1e-12), "aware {t_aware} vs hier {t_hier}");
        assert!(aware.sim_time <= hier.sim_time * (1.0 + 1e-12));
    }

    #[test]
    fn cluster_cut_gauges_are_fractions() {
        let g = graph();
        let out = LdGpu::new(
            LdGpuConfig::new(Platform::dgx_a100_cluster(2))
                .devices(16)
                .with_topology_placement(true),
        )
        .run(&g);
        let cut = out.metrics.gauge("part.inter_node_cut").unwrap();
        assert!((0.0..=1.0).contains(&cut), "cut {cut}");
        // Single-node prefixes of a cluster stay flat: no cluster gauges.
        let one = LdGpu::new(LdGpuConfig::new(Platform::dgx_a100_cluster(2)).devices(8)).run(&g);
        assert_eq!(one.metrics.gauge("part.inter_node_cut"), None);
        assert_eq!(one.metrics.counter("comm.inter_node_bytes"), 0);
    }
}
