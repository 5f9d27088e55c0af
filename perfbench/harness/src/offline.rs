//! The offline workloads: `ldgm match` from an MTX file to a verified
//! matching.
//!
//! A timed repetition makes the calls `ldgm match` makes, in its order
//! (`load_graph`, `matcher_setup`, the registry, `--auto-tune`'s
//! `tuned_matcher`, `Matcher::run`, `--verify`), so the benchmark can
//! stop a clock before the run call and keep the mate array for the
//! reference check. The discarded warm-up goes through the CLI's own
//! dispatcher, and its printed summary must agree with the reference.

use std::time::Instant;

use ldgm_core::ld_gpu::{auto_tune, LdGpuConfig, TuneReport};
use ldgm_core::matcher::{LdGpuMatcher, LdGpuOptMatcher};
use ldgm_core::verify::half_approx_certificate;
use ldgm_core::{MatchResult, Matcher, MatcherRegistry, MatcherSetup};
use ldgm_gpusim::metrics::names;
use ldgm_gpusim::Platform;
use ldgm_graph::csr::{CsrGraph, VertexId};
use ldgm_graph::{io, SortedAdjacency};

use crate::heap;
use crate::util::{self, median, span};
use crate::{Opts, Outcome, Workload};

/// Devices of the simulated dgx-a100 both offline workloads run on.
const DEVICES: usize = 8;
/// Repetitions per run at least, whatever `--seconds` says, so each
/// reported figure is a median of several.
const MIN_REPS: usize = 3;

/// Algorithm and `--auto-tune` of the workload's `ldgm match` line.
fn command(w: Workload) -> (&'static str, bool) {
    match w {
        Workload::TunedOpt => ("ld-gpu-opt", true),
        _ => ("ld-gpu", false),
    }
}

/// `matcher_setup` for `--platform dgx-a100 --devices 8`.
fn matcher_setup() -> MatcherSetup {
    MatcherSetup { platform: Platform::dgx_a100(), devices: DEVICES, ..Default::default() }
}

/// The config the registry gives `algorithm`: the tuner's starting point.
fn base_config(algorithm: &str, setup: &MatcherSetup) -> LdGpuConfig {
    let base = LdGpuMatcher::config_from_setup(setup);
    if algorithm == "ld-gpu-opt" {
        base.optimized()
    } else {
        base
    }
}

/// `tuned_matcher`: tune from the algorithm's base config and lock the
/// winner into a matcher of the same algorithm.
fn tuned_matcher(
    algorithm: &str,
    setup: &MatcherSetup,
    g: &CsrGraph,
) -> Result<(Box<dyn Matcher>, TuneReport), String> {
    let base = base_config(algorithm, setup);
    let report = auto_tune(g, &base).map_err(|e| format!("auto-tune failed: {e}"))?;
    let cfg = report.config.clone();
    let matcher: Box<dyn Matcher> = if algorithm == "ld-gpu-opt" {
        Box::new(LdGpuOptMatcher { cfg })
    } else {
        Box::new(LdGpuMatcher { cfg })
    };
    Ok((matcher, report))
}

/// The `--verify` checks, plus the weight the summary line prints.
struct Checked {
    valid: bool,
    maximal: bool,
    certified: bool,
}

fn verify(g: &CsrGraph, r: &MatchResult) -> Checked {
    std::hint::black_box(r.matching.weight(g));
    Checked {
        valid: r.matching.verify(g).is_ok(),
        maximal: r.matching.is_maximal(g),
        certified: half_approx_certificate(g, &r.matching),
    }
}

/// One untraced repetition.
struct Rep {
    setup_s: f64,
    time_to_matching_s: f64,
    sim_ms: f64,
    checked: Checked,
    mates: Vec<VertexId>,
}

fn timed_rep(o: &Opts) -> Result<Rep, String> {
    let (algorithm, tune) = command(o.workload);
    let t0 = Instant::now();
    let g = io::read_mtx_file(o.graph_path(), 0).map_err(|e| e.to_string())?;
    let setup = matcher_setup();
    let registry = MatcherRegistry::with_defaults(&setup);
    let matcher = registry.try_get(algorithm).map_err(|e| e.to_string())?;
    let tuned = if tune { Some(tuned_matcher(algorithm, &setup, &g)?.0) } else { None };
    let matcher: &dyn Matcher = tuned.as_deref().unwrap_or(matcher);
    let setup_s = t0.elapsed().as_secs_f64();
    let result = matcher.run(&g).map_err(|e| e.to_string())?;
    let checked = verify(&g, &result);
    let time_to_matching_s = t0.elapsed().as_secs_f64();
    Ok(Rep {
        setup_s,
        time_to_matching_s,
        sim_ms: result.run_time * 1e3,
        checked,
        mates: result.matching.mate_array().to_vec(),
    })
}

/// Count one matching against the gate: `verify`, maximality, the
/// certificate, and equality with the `ld-seq` reference.
fn gate(
    out: &mut Outcome,
    o: &Opts,
    what: &str,
    c: &Checked,
    mates: &[VertexId],
    reference: &[VertexId],
) {
    let corrupted;
    let mates = if o.inject_wrong_mate {
        corrupted = util::corrupt(mates);
        &corrupted[..]
    } else {
        mates
    };
    let same = mates == reference;
    let ok = c.valid && c.maximal && c.certified && same;
    out.check(
        ok,
        &format!(
            "{what}: valid={} maximal={} certified={} equals_ld_seq={same}",
            c.valid, c.maximal, c.certified
        ),
    );
}

/// The discarded warm-up: the workload's command line through the CLI
/// dispatcher. It leaves the input in the page cache; its summary must
/// name the reference's cardinality and pass every `--verify` line.
/// Returns the run's peak live heap in MiB.
fn warm_up(o: &Opts, out: &mut Outcome, reference: &[VertexId]) -> Result<f64, String> {
    let (algorithm, tune) = command(o.workload);
    let path = o.graph_path();
    let path = path.to_str().ok_or("non-UTF-8 data path")?;
    let devices = DEVICES.to_string();
    let mut tokens =
        vec!["match", "--input", path, "--algorithm", algorithm, "--devices", &devices, "--verify"];
    if tune {
        tokens.push("--auto-tune");
    }
    let (report, peak_heap_mb) = heap::peak_mib(|| util::cli(&tokens));
    let report = report?;
    let matched = reference.iter().filter(|&&m| m != ldgm_core::UNMATCHED).count();
    let summary = format!("{algorithm}: matched {matched} of {} vertices", reference.len());
    let ok = report.contains(&summary)
        && report.contains("verify: structurally valid")
        && report.contains("verify: maximal = true")
        && report.contains("certificate = true");
    out.check(ok, &format!("warm-up `ldgm {}` printed:\n{report}", tokens.join(" ")));
    out.notes.push("warm-up: one discarded `ldgm match` run; page cache warm".into());
    Ok(peak_heap_mb)
}

pub fn measure(o: &Opts, reference: &[VertexId]) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let peak_heap_mb = warm_up(o, &mut out, reference)?;
    // The warm-up is the process's first run of the workload, so the
    // high-water mark now is what one `ldgm match` process peaks at;
    // later repetitions would add allocator fragmentation a user never
    // sees.
    let peak_rss_mb = util::peak_rss_mb()?;
    if o.trace {
        traced(o, reference, &mut out)?;
        return Ok(out);
    }
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < o.seconds {
        let rep = timed_rep(o)?;
        gate(&mut out, o, &format!("rep {}", reps.len()), &rep.checked, &rep.mates, reference);
        reps.push(rep);
    }
    let pick = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let list = |f: fn(&Rep) -> f64| {
        reps.iter().map(|r| format!("{:.3}", f(r))).collect::<Vec<_>>().join(" ")
    };
    out.notes.push(format!(
        "reps: {} timed repetitions, medians reported; setup_s [{}] time_to_matching_s [{}]",
        reps.len(),
        list(|r| r.setup_s),
        list(|r| r.time_to_matching_s)
    ));
    out.metric("setup_s", median(&pick(|r| r.setup_s)), "s");
    out.metric("time_to_matching_s", median(&pick(|r| r.time_to_matching_s)), "s");
    out.metric("peak_heap_mb", peak_heap_mb, "MiB");
    out.report("peak_rss_mb", peak_rss_mb, "MiB");
    out.report("sim_time_ms", median(&pick(|r| r.sim_ms)), "ms");
    Ok(out)
}

/// The traced run: one untraced repetition, then the same pipeline with a
/// span around each layer call, then the nested layers called alone.
fn traced(o: &Opts, reference: &[VertexId], out: &mut Outcome) -> Result<(), String> {
    let untraced = timed_rep(o)?;
    gate(out, o, "untraced rep", &untraced.checked, &untraced.mates, reference);

    let (algorithm, tune) = command(o.workload);
    let t0 = Instant::now();
    let (g, read_s) = span(|| io::read_mtx_file(o.graph_path(), 0));
    let g = g.map_err(|e| e.to_string())?;
    let setup = matcher_setup();
    let registry = MatcherRegistry::with_defaults(&setup);
    let matcher = registry.try_get(algorithm).map_err(|e| e.to_string())?;
    let (tuned, tune_s) = if tune {
        let (t, s) = span(|| tuned_matcher(algorithm, &setup, &g));
        (Some(t?), s)
    } else {
        (None, 0.0)
    };
    let matcher: &dyn Matcher = tuned.as_ref().map(|(m, _)| m.as_ref()).unwrap_or(matcher);
    let (result, run_s) = span(|| matcher.run(&g));
    let result = result.map_err(|e| e.to_string())?;
    let (checked, verify_s) = span(|| verify(&g, &result));
    let e2e_s = t0.elapsed().as_secs_f64();
    gate(out, o, "traced rep", &checked, result.matching.mate_array(), reference);

    // The config the run used: the tuner's lock, or the registry default.
    let cfg = match &tuned {
        Some((_, report)) => report.config.clone(),
        None => base_config(algorithm, &setup),
    };

    out.metric("graph.read_mtx_s", read_s, "s");
    out.metric("graph.csr_build_s", util::csr_build_s(&g), "s");
    // The sorted index is on the path when the run or the tuner's probes
    // build it.
    if cfg.sorted_index || tune {
        let (_, sorted_s) = span(|| std::hint::black_box(SortedAdjacency::build(&g)));
        out.metric("graph.sorted_build_s", sorted_s, "s");
    }
    let (_, plan_s) = span(|| std::hint::black_box(util::plan(&g, &cfg)));
    out.metric("part.plan_s", plan_s, "s");
    if let Some((_, report)) = &tuned {
        out.metric("core.tune_s", tune_s, "s");
        out.metric("core.tune.candidates", report.candidates as f64, "count");
        out.metric("core.tune.s_per_candidate", tune_s / report.candidates.max(1) as f64, "s");
    }
    let edges = result.metrics.counter(names::KERNEL_EDGES_SCANNED);
    out.metric("core.run_s", run_s, "s");
    out.metric("core.edges_scanned", edges as f64, "count");
    out.metric("core.iterations", result.iterations as f64, "count");
    out.metric("core.ns_per_edge", run_s * 1e9 / edges.max(1) as f64, "ns");
    out.metric("core.verify_s", verify_s, "s");
    out.metric("sim_time_ms", result.run_time * 1e3, "ms");
    let attributed = read_s + tune_s + run_s + verify_s;
    out.metric("trace.e2e_s", e2e_s, "s");
    out.metric("trace.unattributed_s", e2e_s - attributed, "s");
    out.metric("trace.overhead_s", e2e_s - untraced.time_to_matching_s, "s");
    out.notes.push(format!(
        "trace: end-to-end {e2e_s:.4} s = read_mtx {read_s:.4} + tune {tune_s:.4} + run \
         {run_s:.4} + verify {verify_s:.4} + unattributed {:.4}; untraced {:.4} s",
        e2e_s - attributed,
        untraced.time_to_matching_s
    ));
    Ok(())
}
