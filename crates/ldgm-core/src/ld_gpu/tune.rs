//! Self-tuning configuration planner for the LD-GPU driver.
//!
//! The driver exposes a grid of billing-preserving knobs — batch count
//! (which is also the overlap chunk count: one comm chunk per batch),
//! the three kernel-path optimization toggles (sorted index, frontier,
//! sparse collectives), and communication overlap — whose best
//! combination depends on the dataset's degree structure and the
//! platform's memory/bandwidth balance. [`auto_tune`] searches that grid
//! by *probing*: each candidate runs only a few matching iterations
//! ([`LdGpuConfig::probe_iterations`]) and is ranked by the simulated
//! time of that prefix, which is where the per-iteration structure
//! (scan cost, collective payload, exposed wire time) already shows.
//!
//! The probe ranking then picks a shortlist that is run to completion
//! **together with the caller's base configuration**, and the locked
//! config is the full-run winner — so the tuned result is never slower
//! (in simulated time) than the defaults it replaces, by construction.
//! Every candidate varies only billing/schedule knobs; the matching
//! stays bit-identical across the whole grid, so tuning never changes
//! the answer, only its cost.
//!
//! **One execution per class.** Sparse collectives and overlap change
//! only how the driver reduces and bills, never a kernel's inputs, so
//! candidates that differ only in those two knobs share an execution
//! class (`LdGpuConfig::execution_class`). The search runs the host
//! kernels once per class and bills every candidate of the class as a
//! lane of that one execution (the driver's `run_lanes`), which reports
//! for each lane exactly what a run of its config alone reports. The
//! default grid's 64 probes take 16 executions, and the full runs (base
//! plus shortlist) are grouped the same way.
//! [`TuneReport::executions`] counts them.
//!
//! The search is fully deterministic: a fixed candidate order, exact
//! simulated times, and first-wins tie-breaking mean re-tuning the same
//! graph on the same platform always locks the same config. Grouping
//! changes none of it: times are ranked by candidate index, and an
//! infeasible class skips exactly the candidates whose own runs would
//! have failed, since feasibility depends only on the class.
//!
//! Every candidate runs on the same graph, so the preference-sorted
//! index the sorted-scan and streaming candidates read is built once per
//! search and lent to every execution, then dropped before the search
//! returns. [`TuneReport::wall_s`] records the host time the search
//! took.

use std::time::Instant;

use ldgm_graph::csr::CsrGraph;
use ldgm_graph::SortedAdjacency;

use super::driver::run_lanes;
use super::{LdGpuConfig, LdGpuError};

/// Knobs of the tuning search itself (not of the tuned config).
#[derive(Clone, Debug)]
pub struct TuneOptions {
    /// Matching iterations per probe run (default 3 — enough to price
    /// the steady-state iteration mix without paying for convergence).
    pub probe_iterations: usize,
    /// Batch counts to try; `None` is the driver's auto (minimal) plan.
    /// Ignored when the base config streams (the band walk has no batch
    /// knob; the window axis below replaces it).
    pub batch_counts: Vec<Option<usize>>,
    /// Streaming windows to try when the base config has `streaming` on;
    /// `None` is the driver's default (2 bands). Replaces the batch axis
    /// so the grid keeps the same size either way.
    pub stream_windows: Vec<Option<usize>>,
    /// Probe-ranked candidates promoted to full runs alongside the base
    /// config (default 2).
    pub shortlist: usize,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            probe_iterations: 3,
            batch_counts: vec![None, Some(2), Some(4), Some(8)],
            stream_windows: vec![None, Some(3), Some(4), Some(8)],
            shortlist: 2,
        }
    }
}

/// One probed candidate, for reporting.
#[derive(Clone, Debug)]
pub struct ProbeRecord {
    /// Human-readable knob summary (see [`describe_knobs`]).
    pub knobs: String,
    /// Simulated seconds of the probe prefix.
    pub probe_time: f64,
}

/// The tuner's verdict.
#[derive(Clone, Debug)]
pub struct TuneReport {
    /// The locked configuration: full-run winner among the probe
    /// shortlist and the base config, with the caller's collection
    /// flags restored and `probe_iterations` cleared.
    pub config: LdGpuConfig,
    /// Full-run simulated seconds of the locked config.
    pub sim_time: f64,
    /// Full-run simulated seconds of the base config. Invariant:
    /// `sim_time <= base_sim_time`.
    pub base_sim_time: f64,
    /// Candidates probed (infeasible batch plans are skipped silently).
    pub candidates: usize,
    /// Kernel executions the search ran: one per execution class of the
    /// probed candidates plus one per class of the full runs. Candidates
    /// that differ only in sparse collectives and overlap share a class;
    /// infeasible classes run nothing and are not counted.
    pub executions: usize,
    /// The probe shortlist that went to full runs, best first.
    pub shortlist: Vec<ProbeRecord>,
    /// Host wall-clock seconds the search took, index build included.
    /// A measurement, not a result: it varies run to run.
    pub wall_s: f64,
}

impl TuneReport {
    /// Whether tuning found a strictly faster config than the base.
    pub fn improved(&self) -> bool {
        self.sim_time < self.base_sim_time
    }

    /// Knob summary of the locked config.
    pub fn knobs(&self) -> String {
        describe_knobs(&self.config)
    }
}

/// Compact `batches=.. sorted=.. frontier=.. sparse=.. overlap=..`
/// summary of a config's tuned knobs; streaming configs append
/// ` stream=on window=..` (and drive the window, not the batch count).
pub fn describe_knobs(cfg: &LdGpuConfig) -> String {
    let onoff = |b: bool| if b { "on" } else { "off" };
    let mut s = format!(
        "batches={} sorted={} frontier={} sparse={} overlap={}",
        cfg.batches.map_or("auto".to_string(), |b| b.to_string()),
        onoff(cfg.sorted_index),
        onoff(cfg.frontier),
        onoff(cfg.sparse_collectives),
        onoff(cfg.overlap),
    );
    if cfg.streaming {
        s.push_str(&format!(
            " stream=on window={}",
            cfg.stream_window.map_or("auto".to_string(), |w| w.to_string())
        ));
    }
    s
}

/// The candidate grid seeded from `base`: every combination of the three
/// optimization toggles (frontier combos are dropped when the base
/// disables retirement, which the frontier requires) × overlap on/off ×
/// the option's batch counts — or, when the base streams, the option's
/// window sizes (batches have no effect on the band walk, so the window
/// replaces that axis and the grid keeps its shape). Order is
/// deterministic.
fn candidates(base: &LdGpuConfig, opts: &TuneOptions) -> Vec<LdGpuConfig> {
    let streaming = base.streaming;
    let batch_axis: &[Option<usize>] = if streaming { &[None] } else { &opts.batch_counts };
    let window_axis: &[Option<usize>] = if streaming { &opts.stream_windows } else { &[None] };
    let mut out = Vec::new();
    for toggle_bits in 0..8u32 {
        let sorted = toggle_bits & 1 != 0;
        let frontier = toggle_bits & 2 != 0;
        let sparse = toggle_bits & 4 != 0;
        if frontier && !base.retire_exhausted {
            continue;
        }
        for &overlap in &[false, true] {
            for &batches in batch_axis {
                for &window in window_axis {
                    let mut c = base.clone();
                    c.sorted_index = sorted;
                    c.frontier = frontier;
                    c.sparse_collectives = sparse;
                    c.overlap = overlap;
                    if streaming {
                        c.stream_window = window;
                    } else {
                        c.batches = batches;
                    }
                    out.push(c);
                }
            }
        }
    }
    out
}

/// Strip observability from a config so probe/comparison runs price only
/// the algorithm.
fn quiet(mut cfg: LdGpuConfig) -> LdGpuConfig {
    cfg.collect_iterations = false;
    cfg.collect_trace = false;
    cfg
}

/// Tune with default [`TuneOptions`].
pub fn auto_tune(g: &CsrGraph, base: &LdGpuConfig) -> Result<TuneReport, LdGpuError> {
    auto_tune_with(g, base, &TuneOptions::default())
}

/// Run every config of `cfgs` on `g`, one execution per execution class
/// ([`LdGpuConfig::execution_class`]) with the class's configs as its
/// lanes. Returns each config's simulated time (or its class's error) in
/// input order, and how many executions ran.
fn run_by_class(
    g: &CsrGraph,
    index: &SortedAdjacency,
    cfgs: &[LdGpuConfig],
) -> (Vec<Result<f64, LdGpuError>>, usize) {
    // Classes in order of first appearance; each lists its members.
    let mut classes: Vec<(LdGpuConfig, Vec<usize>)> = Vec::new();
    for (i, cfg) in cfgs.iter().enumerate() {
        let class = cfg.execution_class();
        match classes.iter_mut().find(|(c, _)| *c == class) {
            Some((_, members)) => members.push(i),
            None => classes.push((class, vec![i])),
        }
    }
    let mut times = vec![None; cfgs.len()];
    let mut executions = 0;
    for (_, members) in classes {
        let lanes: Vec<LdGpuConfig> = members.iter().map(|&i| cfgs[i].clone()).collect();
        match run_lanes(g, Some(index), &lanes) {
            Ok(outs) => {
                executions += 1;
                for (&i, out) in members.iter().zip(outs) {
                    times[i] = Some(Ok(out.sim_time));
                }
            }
            Err(e) => {
                for &i in &members {
                    times[i] = Some(Err(e.clone()));
                }
            }
        }
    }
    (times.into_iter().map(|t| t.expect("every config has a class")).collect(), executions)
}

/// Search the (batches × toggles × overlap) grid on `g`, probing each
/// candidate for `opts.probe_iterations` iterations, then lock the
/// full-run winner among the probe shortlist and `base` itself.
///
/// Errors only if the *base* config cannot run at all (e.g. its fixed
/// batch plan overflows device memory); infeasible candidates are
/// skipped. The locked config keeps `base`'s platform, devices, and
/// collection flags — only the tuned knobs differ.
pub fn auto_tune_with(
    g: &CsrGraph,
    base: &LdGpuConfig,
    opts: &TuneOptions,
) -> Result<TuneReport, LdGpuError> {
    let start = Instant::now();
    // The grid always holds sorted-index candidates; one index serves
    // every run below (runs that do not scan through it ignore it).
    let index = SortedAdjacency::build(g);
    let probe_k = opts.probe_iterations.max(1);
    let grid = candidates(base, opts);
    let probes: Vec<LdGpuConfig> = grid
        .iter()
        .map(|cand| LdGpuConfig { probe_iterations: Some(probe_k), ..quiet(cand.clone()) })
        .collect();
    let (probe_times, probe_runs) = run_by_class(g, &index, &probes);
    // Infeasible batch plans on this platform are skipped.
    let mut probed: Vec<(f64, usize, LdGpuConfig)> = probe_times
        .into_iter()
        .zip(grid)
        .enumerate()
        .filter_map(|(i, (time, cand))| Some((time.ok()?, i, cand)))
        .collect();
    let candidates_run = probed.len();
    // Rank by probe time; candidate order breaks exact ties, so the
    // search is reproducible run to run.
    probed.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    probed.truncate(opts.shortlist.max(1));

    // Full runs: the base config first (its time is the floor the locked
    // config must beat or match), then the shortlist in probe order.
    let full: Vec<LdGpuConfig> = std::iter::once(base)
        .chain(probed.iter().map(|(_, _, cand)| cand))
        .map(|cfg| quiet(cfg.clone()))
        .collect();
    let (full_times, full_runs) = run_by_class(g, &index, &full);
    let mut full_times = full_times.into_iter();
    let base_time = full_times.next().expect("the base runs")?;
    let mut best_cfg = base.clone();
    let mut best_time = base_time;
    let mut shortlist = Vec::new();
    for ((probe_time, _, cand), time) in probed.into_iter().zip(full_times) {
        shortlist.push(ProbeRecord { knobs: describe_knobs(&cand), probe_time });
        // Strict improvement only: ties keep the earlier (or base)
        // config, which also makes re-tuning deterministic.
        if let Some(time) = time.ok().filter(|&t| t < best_time) {
            best_time = time;
            best_cfg = cand;
        }
    }

    best_cfg.probe_iterations = None;
    best_cfg.collect_iterations = base.collect_iterations;
    best_cfg.collect_trace = base.collect_trace;
    Ok(TuneReport {
        config: best_cfg,
        sim_time: best_time,
        base_sim_time: base_time,
        candidates: candidates_run,
        executions: probe_runs + full_runs,
        shortlist,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ld_gpu::LdGpu;
    use ldgm_gpusim::Platform;
    use ldgm_graph::gen::{rmat, urand, RmatParams};
    use ldgm_part::{batch, memory, Partition};

    /// The search run one candidate at a time: one kernel execution per
    /// probe and per full run. The grouped search must report exactly
    /// what this reports; `executions` counts its runs.
    fn per_candidate_auto_tune(
        g: &CsrGraph,
        base: &LdGpuConfig,
        opts: &TuneOptions,
    ) -> Result<TuneReport, LdGpuError> {
        let start = Instant::now();
        let index = SortedAdjacency::build(g);
        let mut executions = 0;
        let mut run = |cfg: LdGpuConfig| {
            let out = LdGpu::new(cfg).run_indexed(g, Some(&index));
            executions += out.is_ok() as usize;
            out
        };
        let probe_k = opts.probe_iterations.max(1);
        let mut probed: Vec<(f64, usize, LdGpuConfig)> = Vec::new();
        let mut candidates_run = 0usize;
        for (i, cand) in candidates(base, opts).into_iter().enumerate() {
            let mut probe_cfg = quiet(cand.clone());
            probe_cfg.probe_iterations = Some(probe_k);
            let Ok(out) = run(probe_cfg) else {
                continue;
            };
            candidates_run += 1;
            probed.push((out.sim_time, i, cand));
        }
        probed.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        probed.truncate(opts.shortlist.max(1));

        let base_time = run(quiet(base.clone()))?.sim_time;
        let mut best_cfg = base.clone();
        let mut best_time = base_time;
        let mut shortlist = Vec::new();
        for (probe_time, _, cand) in probed {
            shortlist.push(ProbeRecord { knobs: describe_knobs(&cand), probe_time });
            let Ok(out) = run(quiet(cand.clone())) else {
                continue;
            };
            if out.sim_time < best_time {
                best_time = out.sim_time;
                best_cfg = cand;
            }
        }

        best_cfg.probe_iterations = None;
        best_cfg.collect_iterations = base.collect_iterations;
        best_cfg.collect_trace = base.collect_trace;
        Ok(TuneReport {
            config: best_cfg,
            sim_time: best_time,
            base_sim_time: base_time,
            candidates: candidates_run,
            executions,
            shortlist,
            wall_s: start.elapsed().as_secs_f64(),
        })
    }

    /// The grid `ldgm serve` resolves its overlap verdict with.
    fn resolver_opts() -> TuneOptions {
        TuneOptions {
            probe_iterations: 2,
            batch_counts: vec![None],
            stream_windows: vec![None],
            shortlist: 1,
        }
    }

    /// Tune `base` both ways and require identical reports in every
    /// field but the wall time; returns the grouped report.
    fn assert_matches_per_candidate(
        what: &str,
        g: &CsrGraph,
        base: &LdGpuConfig,
        opts: &TuneOptions,
    ) -> Result<TuneReport, LdGpuError> {
        let got = auto_tune_with(g, base, opts);
        let want = per_candidate_auto_tune(g, base, opts);
        let (got, want) = match (got, want) {
            (Ok(got), Ok(want)) => (got, want),
            (got, want) => {
                assert_eq!(got.as_ref().err(), want.as_ref().err(), "{what}: errors differ");
                return got;
            }
        };
        assert_eq!(got.config, want.config, "{what}");
        assert_eq!(got.sim_time.to_bits(), want.sim_time.to_bits(), "{what}");
        assert_eq!(got.base_sim_time.to_bits(), want.base_sim_time.to_bits(), "{what}");
        assert_eq!(got.candidates, want.candidates, "{what}");
        let records = |r: &TuneReport| -> Vec<(String, u64)> {
            r.shortlist.iter().map(|p| (p.knobs.clone(), p.probe_time.to_bits())).collect()
        };
        assert_eq!(records(&got), records(&want), "{what}");
        // Four candidates (sparse × overlap) share each execution.
        assert!(0 < got.executions && got.executions < want.executions, "{what}: {got:?}");
        Ok(got)
    }

    #[test]
    fn grouped_search_reports_what_the_per_candidate_search_reports() {
        let g = urand(800, 5_000, 29);
        let dgx = Platform::dgx_a100();
        let plain = LdGpuConfig::new(dgx.clone()).devices(2);
        let opt = LdGpuConfig::new(dgx.clone()).devices(4).optimized();
        let streamed = LdGpuConfig::new(dgx.clone()).devices(2).with_streaming(true);
        let no_retire = LdGpuConfig { retire_exhausted: false, ..plain.clone() };
        let cluster = LdGpuConfig::new(Platform::dgx_a100_cluster(2)).devices(16);
        let default = TuneOptions::default();
        for (what, base) in [
            ("ld-gpu", &plain),
            ("ld-gpu-opt", &opt),
            ("streaming", &streamed),
            ("retirement off", &no_retire),
            ("cluster", &cluster),
        ] {
            let report = assert_matches_per_candidate(what, &g, base, &default).unwrap();
            assert_eq!(report.candidates, candidates(base, &default).len(), "{what}");
            let resolver = format!("{what}, resolver grid");
            assert_matches_per_candidate(&resolver, &g, base, &resolver_opts()).unwrap();
        }
    }

    #[test]
    fn grouped_search_skips_and_fails_like_the_per_candidate_search() {
        let g = urand(800, 5_000, 31);
        // Device memory below the single-batch footprint: fixed plans of
        // one or two batches overflow, the auto plan fits.
        let single = memory::device_footprint_bytes(
            &batch::make_batches(&g, &Partition::edge_balanced(&g, 1).parts[0], 1),
            g.num_vertices(),
        );
        let tight = LdGpuConfig::new(Platform::dgx_a100().with_device_memory(single * 2 / 5));
        let opts =
            TuneOptions { batch_counts: vec![None, Some(1), Some(2), Some(8)], ..small_opts() };
        let report = assert_matches_per_candidate("infeasible batches", &g, &tight, &opts).unwrap();
        assert_eq!(report.candidates, 8 * 2 * 2, "only the auto and 8-batch plans fit");
        // A base that cannot run fails the search, on both paths alike.
        let err = assert_matches_per_candidate("infeasible base", &g, &tight.batches(1), &opts);
        assert!(matches!(err, Err(LdGpuError::BatchPlanTooLarge { .. })), "{err:?}");
    }

    fn small_opts() -> TuneOptions {
        TuneOptions {
            probe_iterations: 2,
            batch_counts: vec![None, Some(2)],
            stream_windows: vec![None, Some(4)],
            shortlist: 2,
        }
    }

    #[test]
    fn tuned_never_slower_and_matching_identical() {
        let g = rmat(2_000, 16_000, RmatParams::GAP_KRON, 11);
        let base = LdGpuConfig::new(Platform::dgx_a100()).devices(2);
        let report = auto_tune_with(&g, &base, &small_opts()).unwrap();
        assert!(report.sim_time <= report.base_sim_time, "{report:?}");
        assert!(report.candidates > 0);
        assert!(report.config.probe_iterations.is_none());

        // Same matching bits under the locked config as under the base.
        let tuned = LdGpu::new(report.config.clone()).run(&g);
        let default = LdGpu::new(base).run(&g);
        assert_eq!(tuned.matching.mate_array(), default.matching.mate_array());
    }

    #[test]
    fn retuning_is_deterministic() {
        let g = urand(1_500, 9_000, 7);
        let base = LdGpuConfig::new(Platform::dgx2()).devices(2);
        let a = auto_tune_with(&g, &base, &small_opts()).unwrap();
        let b = auto_tune_with(&g, &base, &small_opts()).unwrap();
        assert_eq!(a.knobs(), b.knobs());
        assert_eq!(a.sim_time, b.sim_time);
        assert_eq!(a.base_sim_time, b.base_sim_time);
        assert_eq!(a.candidates, b.candidates);
    }

    #[test]
    fn respects_retirement_constraint() {
        let base = LdGpuConfig::new(Platform::dgx_a100());
        let no_retire = LdGpuConfig { retire_exhausted: false, ..base.clone() };
        let opts = TuneOptions::default();
        assert!(candidates(&no_retire, &opts).iter().all(|c| !c.frontier));
        assert!(candidates(&base, &opts).iter().any(|c| c.frontier));
        // The grid is 8 toggle combos x 2 overlap x |batch_counts|,
        // halved when the frontier combos drop out.
        assert_eq!(candidates(&base, &opts).len(), 8 * 2 * opts.batch_counts.len());
        assert_eq!(candidates(&no_retire, &opts).len(), 4 * 2 * opts.batch_counts.len());
    }

    #[test]
    fn streaming_base_tunes_the_window_axis() {
        let base = LdGpuConfig::new(Platform::dgx_a100()).with_streaming(true);
        let opts = TuneOptions::default();
        let grid = candidates(&base, &opts);
        // Same grid shape as the batch search: the window axis replaces
        // the batch axis one for one.
        assert_eq!(grid.len(), 8 * 2 * opts.stream_windows.len());
        assert!(grid.iter().all(|c| c.streaming && c.batches == base.batches));
        assert!(grid.iter().any(|c| c.stream_window == Some(8)));

        // End to end: tuning a streaming base stays streaming, never
        // slower, and bit-identical.
        let g = urand(1_200, 8_000, 19);
        let report = auto_tune_with(&g, &base, &small_opts()).unwrap();
        assert!(report.sim_time <= report.base_sim_time);
        assert!(report.config.streaming);
        let tuned = LdGpu::new(report.config.clone()).run(&g);
        let default = LdGpu::new(base).run(&g);
        assert_eq!(tuned.matching.mate_array(), default.matching.mate_array());
    }

    #[test]
    fn knob_summary_reads_back() {
        let cfg = LdGpuConfig::new(Platform::dgx_a100()).batches(4).with_overlap(true);
        assert_eq!(describe_knobs(&cfg), "batches=4 sorted=off frontier=off sparse=off overlap=on");
        let auto = LdGpuConfig::new(Platform::dgx_a100()).optimized();
        assert_eq!(
            describe_knobs(&auto),
            "batches=auto sorted=on frontier=on sparse=on overlap=off"
        );
        let streamed =
            LdGpuConfig::new(Platform::dgx_a100()).with_streaming(true).with_stream_window(4);
        assert_eq!(
            describe_knobs(&streamed),
            "batches=auto sorted=off frontier=off sparse=off overlap=off stream=on window=4"
        );
    }
}
