//! The serve workload: `ldgm serve` with its default boot, driven by the
//! load generator in [`crate::loadgen`].
//!
//! A boot makes the calls `ldgm serve --input graph.mtx` makes with every
//! option at its default (read the MTX, the tuner resolver, one
//! `MatchService`, a 2-thread reactor on an ephemeral port), in-process,
//! so the benchmark can keep the service handle for the checks and the
//! per-layer replays. Clients talk to it over loopback TCP only.
//!
//! Every timed boot first serves a fixed closed-loop session and commits
//! its updates (`time_to_matching_s`), then a fixed-rate open-loop phase
//! (the latency figures); the last boot also climbs the rate ladder
//! (`max_rps_at_slo`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use ldgm_core::ld_gpu::{auto_tune_with, LdGpuConfig, TuneOptions};
use ldgm_dyn::{DynConfig, EdgeUpdate, IncrementalLd};
use ldgm_gpusim::json::{self, Json};
use ldgm_gpusim::Platform;
use ldgm_graph::csr::{CsrGraph, VertexId};
use ldgm_graph::{io, SortedAdjacency, Xoshiro256};
use ldgm_serve::{MatchService, ServeConfig, ServerHandle, ServerOptions, Snapshot};

use crate::heap;
use crate::loadgen::{self, Conn, Pace, Phase, Traffic};
use crate::util::{self, median, quantile, span};
use crate::{Opts, Outcome};

/// Fixed offered rate of the latency phases, requests per second: half
/// the lowest knee measured on a 2-core Xeon VM, where read p99 crossed
/// the 10 ms limit at 100,000 to 207,000/s (see perfbench/README.md).
const RATE: f64 = 50_000.0;
/// Boots per untraced run; boot-to-boot spread is the largest one.
const BOOTS: usize = 5;
/// Latency limit on read p99 for `max_rps_at_slo`: one coalescing
/// deadline, since every flush stalls the reads behind it.
const READ_P99_SLO_US: f64 = 10_000.0;
/// The rate ladder: start at `RATE`, grow by `LADDER_STEP` per step, up
/// to about 4.3 times `RATE`, past the knees measured above.
const LADDER_STEP: f64 = 1.2;
const LADDER_STEPS: usize = 9;
const LADDER_STEP_SECONDS: f64 = 0.6;
/// Requests in the closed-loop session of every boot (a tenth of it on
/// toy inputs): about a tenth of `time_to_matching_s` on a quiet host.
/// The session's time moves with the host's load about twice as much as
/// the boot's, and a session four times this size spread
/// `time_to_matching_s` over ten seeds past its bound (see
/// perfbench/README.md). A boot sends at most about 73,000 updates: 7,500
/// in the session, 3,300 in the fixed-rate phase and 62,000 if every rung
/// of the ladder passes.
const SESSION_REQUESTS: usize = 75_000;
/// Requests in flight during the session. A deep window keeps the
/// session bound by the server's work rather than by thread wake-ups,
/// which the host's scheduling noise moves most.
const SESSION_WINDOW: usize = 256;
/// Updates generated per seed, more than one boot sends; the generator
/// would wrap around past the end.
pub const UPDATES: usize = 100_000;

struct Booted {
    svc: Arc<MatchService>,
    handle: ServerHandle,
    t0: Instant,
    setup_s: f64,
}

/// `ldgm serve`'s `DynConfig` with `--platform`, `--devices`,
/// `--compact-frac` and `--overlap` at their defaults.
fn dyn_config() -> Result<DynConfig, String> {
    DynConfig::builder(Platform::dgx_a100())
        .devices(1)
        .compact_frac(0.25)
        .overlap(false)
        .build()
        .map_err(|e| e.to_string())
}

/// The grid `ldgm_serve::resolve_dyn_config` searches. The traced run
/// tunes with it once, to time the tuner and count its candidates, and
/// checks that the service it builds equals the one the resolver built.
fn resolver_grid() -> TuneOptions {
    TuneOptions {
        probe_iterations: 2,
        batch_counts: vec![None],
        stream_windows: vec![None],
        shortlist: 1,
    }
}

fn listen(svc: &Arc<MatchService>) -> Result<ServerHandle, String> {
    ldgm_serve::serve_opts(vec![svc.clone()], "127.0.0.1:0", ServerOptions::default())
        .map_err(|e| format!("bind: {e}"))
}

/// Default boot; `setup_s` runs from the first call until the server
/// accepts connections.
fn boot(o: &Opts) -> Result<Booted, String> {
    let t0 = Instant::now();
    let g = io::read_mtx_file(o.graph_path(), 0).map_err(|e| e.to_string())?;
    let svc = Arc::new(MatchService::with_tuned_config(
        "graph",
        g,
        dyn_config()?,
        ServeConfig::default(),
    ));
    let handle = listen(&svc)?;
    Ok(Booted { svc, handle, t0, setup_s: t0.elapsed().as_secs_f64() })
}

/// Connect both clients; check the first read and the epoch-0 matching
/// the service publishes against the reference.
fn open(
    b: &Booted,
    o: &Opts,
    reference: &[VertexId],
    out: &mut Outcome,
) -> Result<[Conn; 2], String> {
    let mut first = Conn::connect(b.handle.addr)?;
    let answer = first.call("{\"op\":\"mate\",\"v\":0}")?;
    let want = match reference.first() {
        Some(&m) if m != ldgm_core::UNMATCHED => m.to_string(),
        _ => "null".into(),
    };
    out.check(answer.contains(&format!("\"mate\":{want},")), &format!("first read: {answer}"));
    let snap = b.svc.snapshot();
    let served = if o.inject_wrong_mate { util::corrupt(&snap.mate) } else { snap.mate.clone() };
    out.check(
        snap.epoch == 0 && served == reference,
        "served epoch-0 matching equals the ld-seq reference",
    );
    Ok([first, Conn::connect(b.handle.addr)?])
}

fn session_requests(o: &Opts) -> usize {
    if o.toy {
        SESSION_REQUESTS / 10
    } else {
        SESSION_REQUESTS
    }
}

/// The served session: `SESSION_REQUESTS` requests of the mix sent
/// closed-loop, then a `flush` that commits every admitted update.
/// Returns the seconds from the start of boot until the flush is
/// answered, and appends the admitted updates to `admitted`.
fn session(
    b: &Booted,
    conns: &mut [Conn; 2],
    o: &Opts,
    traffic: &mut Traffic,
    reference: &[VertexId],
    admitted: &mut Vec<usize>,
    out: &mut Outcome,
) -> Result<f64, String> {
    let p = loadgen::run(
        conns,
        Pace::Closed { count: session_requests(o), window: SESSION_WINDOW },
        traffic,
        reference,
    )?;
    tally(out, &p, "closed-loop session");
    admitted.extend_from_slice(&p.admitted);
    let flushed = conns[1].call("{\"op\":\"flush\"}")?;
    let time_to_matching_s = b.t0.elapsed().as_secs_f64();
    out.check(
        flushed.starts_with("{\"ok\":true") && b.svc.pending_len() == 0,
        &format!("final flush commits every update: {}", flushed.trim()),
    );
    Ok(time_to_matching_s)
}

/// Counters from the `stats` op.
struct ServeCounts {
    flushes: f64,
    deadline_flush_frac: f64,
    mean_batch: f64,
    rejected: f64,
    backpressure_stalls: f64,
}

/// Read `stats`, send `shutdown`, require `replay_identical`, and join
/// the server. Returns the counters and the final billed sim time (ms).
fn close(b: Booted, mut conns: [Conn; 2], out: &mut Outcome) -> Result<(ServeCounts, f64), String> {
    let stats = json::parse(conns[0].call("{\"op\":\"stats\"}")?.trim())
        .map_err(|e| format!("stats response: {e:?}"))?;
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let rejected = match stats.get("tenants") {
        Some(Json::Object(ts)) => ts.iter().map(|(_, t)| num(t, "rejected")).sum(),
        _ => 0.0,
    };
    let flushes = num(&stats, "flushes");
    let counts = ServeCounts {
        flushes,
        deadline_flush_frac: num(&stats, "deadline_flushes") / flushes.max(1.0),
        mean_batch: num(&stats, "mean_batch"),
        rejected,
        backpressure_stalls: stats
            .get("server")
            .map(|s| num(s, "backpressure_stalls"))
            .unwrap_or(0.0),
    };
    let bye = conns[0].call("{\"op\":\"shutdown\"}")?;
    out.check(bye.contains("\"replay_identical\":true"), &format!("shutdown: {}", bye.trim()));
    drop(conns);
    b.handle.join();
    Ok((counts, b.svc.snapshot().sim_time * 1e3))
}

/// Fold a phase's operations into the outcome's gate.
fn tally(out: &mut Outcome, p: &Phase, what: &str) {
    out.attempted += p.attempted;
    out.failed += p.failed;
    if let Some(e) = &p.first_error {
        out.notes.push(format!("FAILED: {what}: {} operations, first: {e}", p.failed));
    }
}

/// The highest rung of the rate ladder whose read p99 stays within the
/// limit while the generator keeps to its schedule (a growing backlog
/// delays sends or leaves requests unanswered). The climb ends at the
/// second missed rung in a row, so one stall of the host does not end
/// it. Appends the updates the server admitted to `admitted`.
fn max_rps_at_slo(
    conns: &mut [Conn; 2],
    traffic: &mut Traffic,
    reference: &[VertexId],
    admitted: &mut Vec<usize>,
    out: &mut Outcome,
) -> Result<f64, String> {
    let mut best = 0.0;
    let mut rate = RATE;
    let mut misses = 0;
    for _ in 0..LADDER_STEPS {
        let p = loadgen::run(
            conns,
            Pace::Open { rate, seconds: LADDER_STEP_SECONDS },
            traffic,
            reference,
        )?;
        tally(out, &p, "rate ladder");
        admitted.extend_from_slice(&p.admitted);
        let read_p99 = quantile(&p.read_us, 0.99);
        let late_p99 = quantile(&p.late_us, 0.99);
        out.notes.push(format!(
            "ladder: {rate:.0}/s read_p99 {read_p99:.0} us late_p99 {late_p99:.0} us failed {}",
            p.failed
        ));
        if p.failed > 0 || read_p99 > READ_P99_SLO_US || late_p99 > READ_P99_SLO_US {
            misses += 1;
            if misses == 2 {
                break;
            }
        } else {
            misses = 0;
            best = rate;
        }
        rate *= LADDER_STEP;
    }
    Ok(best)
}

/// Latency figures of one fixed-rate phase.
struct Latency {
    read_p50: f64,
    read_p99: f64,
    update_p99: f64,
    late_p99: f64,
}

fn latency(p: &Phase) -> Latency {
    Latency {
        read_p50: quantile(&p.read_us, 0.50),
        read_p99: quantile(&p.read_us, 0.99),
        update_p99: quantile(&p.update_us, 0.99),
        late_p99: quantile(&p.late_us, 0.99),
    }
}

pub fn measure(o: &Opts, reference: &[VertexId]) -> Result<Outcome, String> {
    let updates = util::read_updates(&o.dir.join("updates.bin"))?;
    let traffic = || Traffic {
        rng: Xoshiro256::seed_from_u64(o.seed ^ 0x5eed),
        n: reference.len() as u64,
        updates: &updates,
        next_update: 0,
    };
    let mut out = Outcome::default();
    // Per-phase seconds of the fixed-rate phases: in the untraced run,
    // half of each boot's share of the measuring time once the rate
    // ladder is taken out; the sessions are fixed in size, not in time.
    let ladder_s = LADDER_STEPS as f64 * LADDER_STEP_SECONDS;
    let phase_s = if o.trace {
        o.seconds / 2.0
    } else {
        (o.seconds - ladder_s).max(1.0) / (2 * BOOTS) as f64
    };

    // Warm-up: one discarded boot, session and short phase.
    let (warm, peak_heap_mb) = heap::peak_mib(|| -> Result<(), String> {
        let b = boot(o)?;
        let mut conns = open(&b, o, reference, &mut out)?;
        let mut tr = traffic();
        session(&b, &mut conns, o, &mut tr, reference, &mut Vec::new(), &mut out)?;
        let p =
            loadgen::run(&mut conns, Pace::Open { rate: RATE, seconds: 0.25 }, &mut tr, reference)?;
        tally(&mut out, &p, "warm-up");
        close(b, conns, &mut out)?;
        Ok(())
    });
    warm?;
    out.notes.push("warm-up: one discarded boot, session and load phase; page cache warm".into());
    // The high-water mark of the process's first boot, as for one
    // `ldgm serve` process (see `offline::measure`).
    let peak_rss_mb = util::peak_rss_mb()?;

    if o.trace {
        return traced(o, traffic(), reference, phase_s, out);
    }
    let mut setup = Vec::new();
    let mut ttm = Vec::new();
    let mut sim = Vec::new();
    let mut lat = Vec::new();
    let mut max_rps = 0.0;
    for i in 0..BOOTS {
        let b = boot(o)?;
        setup.push(b.setup_s);
        let mut conns = open(&b, o, reference, &mut out)?;
        let mut tr = traffic();
        ttm.push(session(&b, &mut conns, o, &mut tr, reference, &mut Vec::new(), &mut out)?);
        let p = loadgen::run(
            &mut conns,
            Pace::Open { rate: RATE, seconds: phase_s },
            &mut tr,
            reference,
        )?;
        tally(&mut out, &p, "fixed-rate phase");
        lat.push(latency(&p));
        if i == BOOTS - 1 {
            max_rps = max_rps_at_slo(&mut conns, &mut tr, reference, &mut Vec::new(), &mut out)?;
        }
        let (_, sim_ms) = close(b, conns, &mut out)?;
        sim.push(sim_ms);
    }
    let pick = |f: fn(&Latency) -> f64| median(&lat.iter().map(f).collect::<Vec<_>>());
    let list = |xs: &[f64]| xs.iter().map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(" ");
    out.notes.push(format!(
        "boots: setup_s [{}] time_to_matching_s [{}]",
        list(&setup),
        list(&ttm)
    ));
    out.notes.push(format!(
        "boots: {BOOTS}, each a {}-request closed-loop session ({SESSION_WINDOW} in flight), then \
         {phase_s:.2} s at {RATE:.0} req/s open loop (90% mate, 10% update) on 2 connections; medians over \
         boots; read p99 limit {READ_P99_SLO_US:.0} us",
        session_requests(o)
    ));
    out.metric("setup_s", median(&setup), "s");
    out.metric("time_to_matching_s", median(&ttm), "s");
    out.metric("peak_heap_mb", peak_heap_mb, "MiB");
    out.report("peak_rss_mb", peak_rss_mb, "MiB");
    out.report("sim_time_ms", median(&sim), "ms");
    out.report("read_p50_us", pick(|l| l.read_p50), "us");
    out.report("read_p99_us", pick(|l| l.read_p99), "us");
    out.report("update_p99_us", pick(|l| l.update_p99), "us");
    out.report("max_rps_at_slo", max_rps, "1/s");
    out.report("loadgen.late_p99_us", pick(|l| l.late_p99), "us");
    Ok(out)
}

/// The traced run: an untraced default boot for the overhead, a boot
/// with a span around each layer call, its session and one fixed-rate
/// phase, then in-process replays of the committed update batches
/// through `ldgm-dyn` and `ldgm-serve`.
fn traced(
    o: &Opts,
    mut tr: Traffic,
    reference: &[VertexId],
    phase_s: f64,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let g = &io::read_mtx_file(o.graph_path(), 0).map_err(|e| e.to_string())?;
    let untraced = boot(o)?;
    let untraced_s = untraced.setup_s;
    let resolved: Arc<Snapshot> = untraced.svc.snapshot();
    let conns = open(&untraced, o, reference, &mut out)?;
    close(untraced, conns, &mut out)?;

    // The boot `MatchService::with_tuned_config` makes, one call at a
    // time: the tuner over the resolver's grid, whose report gives both
    // the time and the candidate count, then the resolver's choice.
    let t0 = Instant::now();
    let (base, read_s) = span(|| io::read_mtx_file(o.graph_path(), 0));
    let base = base.map_err(|e| e.to_string())?;
    let default_cfg = dyn_config()?;
    let probe = LdGpuConfig::new(default_cfg.platform.clone()).devices(default_cfg.devices);
    let (tuned, tune_s) = span(|| auto_tune_with(&base, &probe, &resolver_grid()));
    let (cfg, candidates) = match tuned {
        Ok(r) => (DynConfig { overlap: r.config.overlap, ..default_cfg }, r.candidates),
        Err(_) => (default_cfg, 0),
    };
    let (svc, service_s) =
        span(|| Arc::new(MatchService::new("graph", base, cfg.clone(), ServeConfig::default())));
    // The seeding build records `comm.*` gauges only with overlap on, so
    // equal gauges and billed time mean the resolver chose the same
    // overlap. A grid change that keeps the verdict is not caught:
    // `core.tune.candidates` counts the grid copied above.
    let epoch0 = svc.snapshot();
    out.check(
        epoch0.sim_time == resolved.sim_time && epoch0.gauges == resolved.gauges,
        "the traced boot's config bills like MatchService::with_tuned_config's",
    );
    let handle = listen(&svc)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let b = Booted { svc, handle, t0, setup_s };
    let mut conns = open(&b, o, reference, &mut out)?;
    let mut admitted = Vec::new();
    let ttm_s = session(&b, &mut conns, o, &mut tr, reference, &mut admitted, &mut out)?;
    let p =
        loadgen::run(&mut conns, Pace::Open { rate: RATE, seconds: phase_s }, &mut tr, reference)?;
    tally(&mut out, &p, "fixed-rate phase");
    let lat = latency(&p);
    admitted.extend_from_slice(&p.admitted);
    let max_rps = max_rps_at_slo(&mut conns, &mut tr, reference, &mut admitted, &mut out)?;
    let svc = b.svc.clone();
    let (counts, sim_ms) = close(b, conns, &mut out)?;
    let admitted: Vec<EdgeUpdate> = admitted.iter().map(|&i| tr.updates[i]).collect();
    let sizes = svc.stats().batch_sizes;

    out.metric("graph.read_mtx_s", read_s, "s");
    out.metric("graph.csr_build_s", util::csr_build_s(g), "s");
    // The resolver's probes build the sorted index.
    let (_, sorted_s) = span(|| std::hint::black_box(SortedAdjacency::build(g)));
    out.metric("graph.sorted_build_s", sorted_s, "s");
    let (_, plan_s) = span(|| std::hint::black_box(util::plan(g, &probe)));
    out.metric("part.plan_s", plan_s, "s");
    out.metric("core.tune_s", tune_s, "s");
    out.metric("core.tune.candidates", candidates as f64, "count");
    out.metric("core.tune.s_per_candidate", tune_s / candidates.max(1) as f64, "s");

    let apply_p50_us = replay_dyn(g, &cfg, &admitted, &sizes, &svc, &mut out)?;
    replay_serve(g, &cfg, &admitted, &sizes, apply_p50_us, lat.read_p50, &mut out)?;
    out.metric("serve.flushes", counts.flushes, "count");
    out.metric("serve.deadline_flush_frac", counts.deadline_flush_frac, "ratio");
    out.metric("serve.mean_batch", counts.mean_batch, "count");
    out.metric("serve.rejected", counts.rejected, "count");
    out.metric("serve.backpressure_stalls", counts.backpressure_stalls, "count");
    out.metric("loadgen.late_p99_us", lat.late_p99, "us");
    out.metric("read_p50_us", lat.read_p50, "us");
    out.metric("read_p99_us", lat.read_p99, "us");
    out.metric("update_p99_us", lat.update_p99, "us");
    out.metric("max_rps_at_slo", max_rps, "1/s");
    out.metric("sim_time_ms", sim_ms, "ms");

    // `MatchService::new` is the boot's call into the layers below it:
    // `IncrementalLd::new` (`dyn.init_s`, timed alone) and the first
    // snapshot.
    let attributed = read_s + tune_s + service_s;
    out.metric("trace.e2e_s", setup_s, "s");
    out.metric("trace.unattributed_s", setup_s - attributed, "s");
    out.metric("trace.overhead_s", setup_s - untraced_s, "s");
    out.notes.push(format!(
        "trace: boot {setup_s:.4} s = read_mtx {read_s:.4} + tune {tune_s:.4} + \
         MatchService::new {service_s:.4} + unattributed {:.4}; untraced boot {untraced_s:.4} s; \
         session committed at {ttm_s:.4} s",
        setup_s - attributed
    ));
    Ok(out)
}

/// Replay the served run's admitted updates through a fresh
/// `IncrementalLd` at the batch sizes the server flushed; the result
/// must equal the served matching. Returns the median `apply_batch`
/// time.
fn replay_dyn(
    g: &CsrGraph,
    cfg: &DynConfig,
    admitted: &[EdgeUpdate],
    sizes: &[u64],
    svc: &MatchService,
    out: &mut Outcome,
) -> Result<f64, String> {
    let (mut engine, init_s) = span(|| IncrementalLd::new(g.clone(), cfg.clone()));
    let mut apply_us = Vec::new();
    let (mut frontier, mut rounds, mut compactions) = (Vec::new(), Vec::new(), 0u64);
    let mut at = 0;
    for &size in sizes {
        let end = (at + size as usize).min(admitted.len());
        let (report, s) = span(|| engine.apply_batch(&admitted[at..end]));
        at = end;
        apply_us.push(s * 1e6);
        frontier.push(report.seed_frontier as f64);
        rounds.push(report.rounds as f64);
        compactions += report.compacted as u64;
    }
    out.check(
        at == admitted.len() && engine.mate_array() == svc.snapshot().mate.as_slice(),
        "dyn replay at the served batch sizes equals the served matching",
    );
    let apply_p50_us = quantile(&apply_us, 0.50);
    out.metric("dyn.init_s", init_s, "s");
    out.metric("dyn.apply_p50_us", apply_p50_us, "us");
    out.metric("dyn.apply_p99_us", quantile(&apply_us, 0.99), "us");
    out.metric("dyn.seed_frontier_mean", util::mean(&frontier), "count");
    out.metric("dyn.rounds_mean", util::mean(&rounds), "count");
    out.metric("dyn.compactions", compactions as f64, "count");
    Ok(apply_p50_us)
}

/// Replay the same batches through an in-process `MatchService`, timing
/// each `flush` (apply plus snapshot publish) and point reads.
fn replay_serve(
    g: &CsrGraph,
    cfg: &DynConfig,
    admitted: &[EdgeUpdate],
    sizes: &[u64],
    apply_p50_us: f64,
    read_p50_us: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let never = ServeConfig {
        coalesce_target: usize::MAX,
        deadline: Duration::from_secs(3600),
        max_pending_per_tenant: usize::MAX,
    };
    let svc = MatchService::new("replay", g.clone(), cfg.clone(), never);
    let mut flush_us = Vec::new();
    let mut at = 0;
    for &size in sizes {
        let end = (at + size as usize).min(admitted.len());
        svc.submit("bench", &admitted[at..end]).map_err(|e| e.to_string())?;
        at = end;
        let (_, s) = span(|| svc.flush());
        flush_us.push(s * 1e6);
    }
    out.metric("serve.flush_p99_us", quantile(&flush_us, 0.99), "us");
    out.metric("serve.publish_us", quantile(&flush_us, 0.50) - apply_p50_us, "us");

    let mut rng = Xoshiro256::seed_from_u64(0x3a7e);
    let n = g.num_vertices() as u64;
    let mut per_call = Vec::new();
    for _ in 0..40 {
        let (_, s) = span(|| {
            for _ in 0..5_000 {
                std::hint::black_box(svc.mate("bench", rng.below(n) as VertexId));
            }
        });
        per_call.push(s * 1e9 / 5_000.0);
    }
    let mate_ns = median(&per_call);
    out.metric("serve.mate_ns", mate_ns, "ns");
    out.metric("serve.transport_us", read_p50_us - mate_ns / 1e3, "us");
    Ok(())
}
