//! `perfbench` — the ldgm benchmark harness.
//!
//! Two subcommands, both driven by `perfbench/run.py`:
//!
//! * `prepare --workload W --seed S --dir D` generates the workload's
//!   input graph from the seed through the CLI's `gen` command, writes it
//!   to `D/graph.mtx`, and stores the `ld-seq` reference mate array of
//!   the graph as read back from that file in `D/ref.mates` (and, for
//!   `serve-mixed`, the seeded update stream in `D/updates.bin`). All are
//!   untimed and reused by every later run with the same seed.
//! * `measure --workload W --seed S --dir D --seconds T --trace 0|1`
//!   runs the workload. With `--trace 0` it times end-to-end runs with
//!   nothing but the end-to-end clocks running; with `--trace 1` it times
//!   the public entry points of each layer from outside. It prints one
//!   `name = value unit` line per metric and, last, the result object.
//!
//! `--toy` shrinks every input to a few thousand vertices (self-test);
//! `--inject-wrong-mate` corrupts the checked mate array of every timed
//! operation, which the correctness gate must count as failed.

mod heap;
mod loadgen;
mod offline;
mod serve;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ldgm_dyn::{UpdateStream, WorkloadKind};
use ldgm_gpusim::json::Json;

/// The benchmark's workloads; see `perfbench/README.md` for why each
/// was chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `ldgm match --algorithm ld-gpu --devices 8 --verify` on R-MAT.
    OfflineMtx,
    /// `ldgm match --algorithm ld-gpu-opt --devices 8 --auto-tune --verify`
    /// on a uniform random graph.
    TunedOpt,
    /// `ldgm serve` with default boot under a 90/10 read/update mix.
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "offline-mtx" => Some(Workload::OfflineMtx),
            "tuned-opt" => Some(Workload::TunedOpt),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    /// Generator family, vertex count and average degree of the input.
    pub fn input(self, toy: bool) -> (&'static str, usize, u32) {
        match (self, toy) {
            (Workload::OfflineMtx, false) => ("rmat", 1_000_000, 16),
            (Workload::TunedOpt, false) => ("urand", 100_000, 32),
            (Workload::ServeMixed, false) => ("social", 200_000, 16),
            (Workload::OfflineMtx, true) => ("rmat", 4_000, 16),
            (Workload::TunedOpt, true) => ("urand", 2_000, 32),
            (Workload::ServeMixed, true) => ("social", 4_000, 16),
        }
    }
}

/// Parsed command line.
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub dir: PathBuf,
    pub seconds: f64,
    pub trace: bool,
    pub toy: bool,
    pub inject_wrong_mate: bool,
}

impl Opts {
    pub fn graph_path(&self) -> PathBuf {
        self.dir.join("graph.mtx")
    }
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a measurement produced: metrics for the result object, counts of
/// attempted and failed operations, and human-readable lines printed
/// before the result.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Printed with the metrics but left out of the result object: the
    /// end-to-end figures not every workload has, and the simulated time,
    /// which varies with the seed's graph more than any bound allows.
    pub reported: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn report(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.reported.push(Metric { name, value, unit });
    }

    /// Count one checked operation; `ok == false` counts it failed.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {what}"));
        }
    }

    /// Per-layer metrics whose layer is not on this workload's path read
    /// 0, so every workload prints the full per-layer set.
    pub fn fill_absent(&mut self, names: &[(&'static str, &'static str)]) {
        for &(name, unit) in names {
            if !self.metrics.iter().any(|m| m.name == name) {
                self.metric(name, 0.0, unit);
            }
        }
    }

    fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        for m in self.metrics.iter().chain(&self.reported) {
            println!("metric {} = {} {}", m.name, m.value, m.unit);
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!("metric failed_frac = {frac} ratio ({} of {})", self.failed, self.attempted);
        let mut metrics = Json::object();
        for m in &self.metrics {
            metrics.set(m.name, Json::object().with("value", m.value).with("unit", m.unit));
        }
        let result = Json::object()
            .with("correct", self.failed == 0 && self.attempted > 0)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics);
        println!("{}", result.to_string_compact());
    }
}

/// Every per-layer metric and its unit, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.read_mtx_s", "s"),
    ("graph.csr_build_s", "s"),
    ("graph.sorted_build_s", "s"),
    ("part.plan_s", "s"),
    ("core.tune_s", "s"),
    ("core.tune.candidates", "count"),
    ("core.tune.s_per_candidate", "s"),
    ("core.run_s", "s"),
    ("core.edges_scanned", "count"),
    ("core.iterations", "count"),
    ("core.ns_per_edge", "ns"),
    ("core.verify_s", "s"),
    ("dyn.init_s", "s"),
    ("dyn.apply_p50_us", "us"),
    ("dyn.apply_p99_us", "us"),
    ("dyn.seed_frontier_mean", "count"),
    ("dyn.rounds_mean", "count"),
    ("dyn.compactions", "count"),
    ("serve.mate_ns", "ns"),
    ("serve.flush_p99_us", "us"),
    ("serve.publish_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.flushes", "count"),
    ("serve.deadline_flush_frac", "ratio"),
    ("serve.mean_batch", "count"),
    ("serve.rejected", "count"),
    ("serve.backpressure_stalls", "count"),
    ("loadgen.late_p99_us", "us"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("update_p99_us", "us"),
    ("max_rps_at_slo", "1/s"),
    ("sim_time_ms", "ms"),
    ("trace.e2e_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
];

fn usage() -> &'static str {
    "usage: perfbench prepare --workload W --seed S --dir D [--toy]\n\
     \x20      perfbench measure --workload W --seed S --dir D --seconds T --trace 0|1 \
     [--toy] [--inject-wrong-mate]"
}

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let cmd = args.first().ok_or("missing subcommand")?.clone();
    let mut workload = None;
    let mut seed = None;
    let mut dir = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut toy = false;
    let mut inject_wrong_mate = false;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload = Some(Workload::parse(&w).ok_or(format!("unknown workload '{w}'"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--dir" => dir = Some(PathBuf::from(value()?)),
            "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => trace = value()? == "1",
            "--toy" => toy = true,
            "--inject-wrong-mate" => inject_wrong_mate = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok((
        cmd,
        Opts {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            dir: dir.ok_or("missing --dir")?,
            seconds,
            trace,
            toy,
            inject_wrong_mate,
        },
    ))
}

/// Generate the input through the CLI's `gen` command and store the
/// `ld-seq` reference of the graph the timed runs will read.
fn prepare(o: &Opts) -> Result<(), String> {
    let (family, n, d) = o.workload.input(o.toy);
    std::fs::create_dir_all(&o.dir).map_err(|e| format!("create {}: {e}", o.dir.display()))?;
    let path = o.graph_path();
    let path_s = path.to_str().ok_or("non-UTF-8 data path")?;
    let seed = o.seed.to_string();
    let (n, d) = (n.to_string(), d.to_string());
    util::cli(&[
        "gen",
        "--family",
        family,
        "--vertices",
        &n,
        "--avg-degree",
        &d,
        "--seed",
        &seed,
        "--out",
        path_s,
    ])?;
    let g = ldgm_graph::io::read_mtx_file(&path, 0).map_err(|e| e.to_string())?;
    if o.workload == Workload::ServeMixed {
        let updates =
            UpdateStream::new(&g, WorkloadKind::Uniform, o.seed).next_batch(serve::UPDATES);
        util::write_updates(&o.dir.join("updates.bin"), &updates)?;
    }
    let reference = ldgm_core::ld_seq::ld_seq(&g);
    util::write_mates(&o.dir.join("ref.mates"), reference.mate_array())
}

fn measure(o: &Opts) -> Result<Outcome, String> {
    let reference = util::read_mates(&o.dir.join("ref.mates"))?;
    if !Path::new(&o.graph_path()).exists() {
        return Err(format!("{} missing; run prepare first", o.graph_path().display()));
    }
    let mut out = match o.workload {
        Workload::OfflineMtx | Workload::TunedOpt => offline::measure(o, &reference)?,
        Workload::ServeMixed => serve::measure(o, &reference)?,
    };
    if o.trace {
        out.fill_absent(PER_LAYER);
        out.metrics.sort_by_key(|m| PER_LAYER.iter().position(|&(n, _)| n == m.name));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "prepare" => prepare(&opts).map(|()| None),
        "measure" => measure(&opts).map(Some),
        other => Err(format!("unknown subcommand '{other}'\n{}", usage())),
    };
    match result {
        Ok(Some(out)) => {
            out.print();
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
