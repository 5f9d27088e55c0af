//! Reusable per-run scratch arena for the LD driver and the hot kernels.
//!
//! [`Scratch`] owns every buffer an iteration refills — the availability
//! view each pointing scan needs, the overlap-mode comm-chunk staging,
//! and one [`DeviceScratch`] per device — for the lifetime of a run, and
//! across runs for callers like the incremental engine that stabilize
//! many deltas back to back: buffers are cleared, never dropped, so
//! steady-state iterations allocate nothing on the host.
//!
//! The **availability lane** is the third SoA lane the pointing kernels
//! scan (next to the CSR id and weight lanes): `avail[v] != 0` ⇔
//! `mate[v] == NONE_SENTINEL`, one byte gathered per availability probe
//! instead of an 8-byte mate word. It starts all-available,
//! [`set_mates`](super::set_mates) keeps it in sync as pairs commit, and
//! [`Scratch::sync_avail`] rebuilds it wholesale after external mate
//! edits (dynamic deltas, partial probes).

use ldgm_gpusim::{CommChunk, NONE_SENTINEL};
use ldgm_graph::csr::{CsrGraph, VertexId};

/// Reusable buffers threaded through the LD driver, the pointing/matching
/// kernels, and the incremental engine. Construction is the only
/// allocation site; every per-iteration use clears and refills.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    /// The SoA availability lane: `avail[v] != 0` ⇔ `v` is unmatched.
    pub(crate) avail: Vec<u8>,
    /// The driver's per-device buffers, one borrowed by each device task.
    pub(crate) devices: Vec<DeviceScratch>,
    /// Flattened chunk list handed to the chunked allreduce.
    pub comm_staging: Vec<CommChunk>,
    /// Stabilization worklist being built for the next round.
    pub next: Vec<VertexId>,
    /// Endpoints freed by delta edits, pending re-pointing.
    pub freed: Vec<VertexId>,
}

/// One device's reusable buffers in the LD driver.
#[derive(Clone, Debug, Default)]
pub(crate) struct DeviceScratch {
    /// Frontier worklist: ascending vertex ids inside the device's part,
    /// rebuilt in place each iteration.
    pub(crate) frontier: Vec<VertexId>,
    /// Overlap staging: one entry per slice of the pointer reduction
    /// this device produced.
    pub(crate) chunks: Vec<CommChunk>,
    /// Streaming band worklists: the current band and the next.
    pub(crate) work: Vec<VertexId>,
    pub(crate) next: Vec<VertexId>,
    /// Streaming residency, one entry per vertex of the part: how many
    /// leading bands are still held on-device from the previous
    /// iteration, so re-streaming them bills no copy bytes. Empty
    /// outside streaming mode.
    pub(crate) resident: Vec<u8>,
}

impl Scratch {
    /// Arena sized for `g`, all vertices available (mate all-`NONE`).
    pub fn for_graph(g: &CsrGraph) -> Self {
        Self::with_vertices(g.num_vertices())
    }

    /// Arena for `n` vertices, all available.
    pub fn with_vertices(n: usize) -> Self {
        Scratch { avail: vec![1; n], ..Default::default() }
    }

    /// Attach `ndev` per-device driver buffers.
    pub fn with_devices(mut self, ndev: usize) -> Self {
        self.devices = vec![DeviceScratch::default(); ndev];
        self
    }

    /// The availability lane, for kernel launches.
    #[inline]
    pub fn avail(&self) -> &[u8] {
        &self.avail
    }

    /// Rebuild the availability lane from a mate array (resizing to it),
    /// after edits the kernels did not see — delta application in the
    /// incremental engine, or a fresh run over a dirty arena.
    pub fn sync_avail(&mut self, mate: &[u64]) {
        self.avail.resize(mate.len(), 0);
        for (a, &m) in self.avail.iter_mut().zip(mate) {
            *a = (m == NONE_SENTINEL) as u8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_available_and_resyncs() {
        let mut s = Scratch::with_vertices(4);
        assert_eq!(s.avail(), &[1, 1, 1, 1]);
        let mate = [NONE_SENTINEL, 2, 1, NONE_SENTINEL];
        s.sync_avail(&mate);
        assert_eq!(s.avail(), &[1, 0, 0, 1]);
        // Resync resizes when the vertex count changes.
        s.sync_avail(&[NONE_SENTINEL; 6]);
        assert_eq!(s.avail().len(), 6);
        assert!(s.avail().iter().all(|&a| a == 1));
    }

    #[test]
    fn device_buffers_are_sized() {
        let s = Scratch::with_vertices(8).with_devices(3);
        assert_eq!(s.devices.len(), 3);
        // The residency lanes are lazy: only streaming runs size them.
        assert!(s.devices.iter().all(|d| d.resident.is_empty()));
    }
}
