//! Shared helpers: order statistics, the CLI entry point, reference
//! files and the process's peak resident set.

use std::path::Path;
use std::time::Instant;

use ldgm_core::ld_gpu::LdGpuConfig;
use ldgm_dyn::EdgeUpdate;
use ldgm_graph::csr::{CsrGraph, VertexId};
use ldgm_graph::GraphBuilder;
use ldgm_part::{batch, Partition};

/// `q`-quantile (0..=1) of `xs` by nearest rank; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Run one `ldgm` command through the CLI's own dispatcher — the code
/// the `ldgm` binary runs — and return its report.
pub fn cli(tokens: &[&str]) -> Result<String, String> {
    let args = ldgm_cli::args::Args::parse(tokens.iter().map(|t| t.to_string()))
        .map_err(|e| format!("ldgm {}: {e}", tokens.join(" ")))?;
    ldgm_cli::commands::run(&args).map_err(|e| format!("ldgm {}: {e}", tokens.join(" ")))
}

pub fn write_mates(path: &Path, mates: &[VertexId]) -> Result<(), String> {
    let bytes: Vec<u8> = mates.iter().flat_map(|m| m.to_le_bytes()).collect();
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn read_mates(path: &Path) -> Result<Vec<VertexId>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if bytes.len() % 4 != 0 {
        return Err(format!("{} is truncated", path.display()));
    }
    Ok(bytes.chunks_exact(4).map(|c| VertexId::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
}

/// Store updates as 17-byte records: kind (1 insert, 0 delete), u, v
/// (u32 LE), w (f64 LE, 0 for deletes).
pub fn write_updates(path: &Path, updates: &[EdgeUpdate]) -> Result<(), String> {
    let mut bytes = Vec::with_capacity(17 * updates.len());
    for u in updates {
        let (kind, a, b, w) = match *u {
            EdgeUpdate::Insert { u, v, w } => (1u8, u, v, w),
            EdgeUpdate::Delete { u, v } => (0u8, u, v, 0.0),
        };
        bytes.push(kind);
        bytes.extend_from_slice(&a.to_le_bytes());
        bytes.extend_from_slice(&b.to_le_bytes());
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn read_updates(path: &Path) -> Result<Vec<EdgeUpdate>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if bytes.len() % 17 != 0 {
        return Err(format!("{} is truncated", path.display()));
    }
    let word = |r: &[u8], at: usize| u32::from_le_bytes([r[at], r[at + 1], r[at + 2], r[at + 3]]);
    Ok(bytes
        .chunks_exact(17)
        .map(|r| {
            let (u, v) = (word(r, 1), word(r, 5));
            let mut w = [0u8; 8];
            w.copy_from_slice(&r[9..17]);
            match r[0] {
                1 => EdgeUpdate::Insert { u, v, w: f64::from_le_bytes(w) },
                _ => EdgeUpdate::Delete { u, v },
            }
        })
        .collect())
}

/// Peak resident set of this process in MiB (`VmHWM`, Linux).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// `mates` with one matched pair split, for the correctness-gate
/// self-test: a wrong matching the gate must reject.
pub fn corrupt(mates: &[VertexId]) -> Vec<VertexId> {
    let mut wrong = mates.to_vec();
    if let Some(u) = wrong.iter().position(|&m| m != ldgm_core::UNMATCHED) {
        let v = wrong[u] as usize;
        wrong[u] = ldgm_core::UNMATCHED;
        wrong[v] = ldgm_core::UNMATCHED;
    } else if let Some(first) = wrong.first_mut() {
        *first = 0;
    }
    wrong
}

/// Time `f`, returning its value and the seconds it took.
pub fn span<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// Seconds `GraphBuilder` takes over `g`'s edges as `read_mtx` feeds them
/// from a file `write_mtx` wrote: one lower-triangle triple per edge.
pub fn csr_build_s(g: &CsrGraph) -> f64 {
    let triples: Vec<_> = g.iter_edges().map(|(u, v, w)| (v, u, w)).collect();
    let (_, s) = span(|| {
        let mut b = GraphBuilder::with_capacity(g.num_vertices(), triples.len());
        for &(u, v, w) in &triples {
            b.push_edge(u, v, w);
        }
        std::hint::black_box(b.build())
    });
    s
}

/// The batch plan `LdGpu::try_run` makes for `cfg`: the edge-balanced
/// partition, then one batch count for every device. Returns the number
/// of batches planned.
pub fn plan(g: &CsrGraph, cfg: &LdGpuConfig) -> usize {
    let ndev = cfg.devices.clamp(1, cfg.platform.max_devices);
    let partition = Partition::edge_balanced(g, ndev);
    let n = g.num_vertices();
    let mem = cfg.platform.device.mem_bytes;
    let nbatches = cfg.batches.unwrap_or_else(|| {
        partition
            .parts
            .iter()
            .map(|p| batch::min_batches_to_fit(g, p, n, mem, 1).unwrap_or(1))
            .max()
            .unwrap_or(1)
    });
    partition.parts.iter().map(|p| batch::make_batches(g, p, nbatches).len()).sum()
}
