//! Golden gate for the LD-GPU driver: one FNV-1a-64 digest per config over
//! everything a run produces — the mate array, the simulated time bits,
//! the profile (phases and per-iteration records), the metrics JSON, the
//! Chrome-trace JSON and `(iterations, devices, batches)`.
//!
//! The rows cover every toggle combination of the driver (sorted index,
//! frontier, sparse collectives, overlap) under the auto batch plan, a
//! three-batch plan (the copy/sync path beyond the two stream buffers)
//! and the out-of-core streaming engine; a two-node cluster under both
//! placements; a probe run; a run without retirement; and one seeded
//! incremental replay, which shares the driver's scratch arena.
//!
//! The expected table is a literal: any change to a matching, a simulated
//! timeline, a metric or a trace byte fails the gate, and the failure
//! prints the whole actual table.

use ldgm::core::ld_gpu::{LdGpu, LdGpuConfig, LdGpuOutput};
use ldgm::dynamic::{DynConfig, DynRunOutput, IncrementalLd, UpdateStream, WorkloadKind};
use ldgm::gpusim::export::chrome_trace_json;
use ldgm::gpusim::{Platform, RunProfile, Trace};
use ldgm::graph::gen::{rmat, RmatParams};
use ldgm::graph::{CsrGraph, GraphBuilder};

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

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest(
    mate: &[u32],
    sim_time: f64,
    profile: &RunProfile,
    metrics_json: String,
    trace: &Trace,
    shape: (u64, u64, u64),
) -> u64 {
    let mut h = Fnv::new();
    for &m in mate {
        h.u64(m as u64);
    }
    h.u64(sim_time.to_bits());
    h.bytes(format!("{profile:?}").as_bytes());
    h.bytes(metrics_json.as_bytes());
    h.bytes(chrome_trace_json(trace).to_string_compact().as_bytes());
    h.u64(shape.0);
    h.u64(shape.1);
    h.u64(shape.2);
    h.0
}

fn digest_run(out: &LdGpuOutput) -> u64 {
    digest(
        out.matching.mate_array(),
        out.sim_time,
        &out.profile,
        out.metrics.to_json().to_string_compact(),
        out.trace.as_ref().expect("golden rows record a trace"),
        (out.iterations as u64, out.devices as u64, out.batches as u64),
    )
}

fn digest_dyn(out: &DynRunOutput) -> u64 {
    digest(
        out.matching.mate_array(),
        out.sim_time,
        &out.profile,
        out.metrics.to_json().to_string_compact(),
        &out.trace,
        (out.rounds, out.batches, out.graph.num_directed_edges() as u64),
    )
}

/// Apply the toggle mask: bit 0 sorted index, bit 1 frontier, bit 2
/// sparse collectives, bit 3 overlap.
fn with_mask(cfg: LdGpuConfig, mask: u32) -> LdGpuConfig {
    cfg.with_sorted_index(mask & 1 != 0)
        .with_frontier(mask & 2 != 0)
        .with_sparse_collectives(mask & 4 != 0)
        .with_overlap(mask & 8 != 0)
        .with_trace()
}

/// A batch plan applied to a base config.
type Plan = fn(LdGpuConfig) -> LdGpuConfig;

fn run(g: &CsrGraph, cfg: LdGpuConfig) -> u64 {
    digest_run(&LdGpu::new(cfg).try_run(g).expect("golden config is feasible"))
}

fn actual_table() -> Vec<(String, u64)> {
    let g = tied_graph();
    let mut rows = Vec::new();
    let node = Platform::dgx_a100;
    let plans: [(&str, Plan); 3] = [
        ("auto", |c| c),
        ("b3", |c| c.batches(3)),
        ("stream", |c| c.with_streaming(true).with_stream_window(3).with_mem_budget(120_000)),
    ];
    for (plan, apply) in plans {
        for ndev in [1, 2, 4, 8] {
            for mask in 0..16u32 {
                let cfg = with_mask(apply(LdGpuConfig::new(node()).devices(ndev)), mask);
                rows.push((format!("{plan}/d{ndev}/m{mask:02}"), run(&g, cfg)));
            }
        }
    }
    for topo in [false, true] {
        for mask in 0..16u32 {
            let cfg = LdGpuConfig::new(Platform::dgx_a100_cluster(2))
                .devices(16)
                .with_topology_placement(topo);
            let place = if topo { "topo" } else { "grouped" };
            rows.push((format!("cluster-{place}/d16/m{mask:02}"), run(&g, with_mask(cfg, mask))));
        }
    }
    let probe = LdGpuConfig { probe_iterations: Some(2), ..LdGpuConfig::new(node()).devices(4) };
    rows.push(("probe2/d4/m15".into(), run(&g, with_mask(probe, 15))));
    let no_retire = LdGpuConfig { retire_exhausted: false, ..LdGpuConfig::new(node()).devices(2) };
    rows.push(("no-retire/d2/m05".into(), run(&g, with_mask(no_retire, 5))));

    let dyn_cfg = DynConfig::builder(node()).devices(2).overlap(true).build().unwrap();
    let mut engine = IncrementalLd::new(g.clone(), dyn_cfg);
    let mut stream = UpdateStream::new(&g, WorkloadKind::Skewed, 7);
    for _ in 0..6 {
        engine.apply_batch(&stream.next_batch(24));
    }
    rows.push(("dyn-replay/d2".into(), digest_dyn(&engine.finish())));
    rows
}

/// Digests generated from the driver before its restructure.
#[rustfmt::skip]
const EXPECTED: &[(&str, u64)] = &[
    ("auto/d1/m00", 0xd2e8b57b2ff397c6),
    ("auto/d1/m01", 0x7dc1397c1e2dec3c),
    ("auto/d1/m02", 0x9fb5dd2227cad164),
    ("auto/d1/m03", 0x9e848642b484f87d),
    ("auto/d1/m04", 0xb68065f2cda69279),
    ("auto/d1/m05", 0xb78db782bc9d79d2),
    ("auto/d1/m06", 0x2c99d24f99f0a8f1),
    ("auto/d1/m07", 0x1e384fa455958269),
    ("auto/d1/m08", 0xfbe6a170abd5fe59),
    ("auto/d1/m09", 0x5eb7bf5a6bbb814b),
    ("auto/d1/m10", 0x62aca0d053eacfcd),
    ("auto/d1/m11", 0xccebbed0d0cb983d),
    ("auto/d1/m12", 0xa822267be12175e0),
    ("auto/d1/m13", 0x23844aaa0b8a6c3f),
    ("auto/d1/m14", 0x5ad099c3aa7efc62),
    ("auto/d1/m15", 0x6b0f04e40eee1670),
    ("auto/d2/m00", 0x1fe7651009e8437a),
    ("auto/d2/m01", 0xcec5c78c397be4bc),
    ("auto/d2/m02", 0x05360c76d19a7045),
    ("auto/d2/m03", 0xb4e2a60ad1ab0bf1),
    ("auto/d2/m04", 0xab3b8a9557c2bb9a),
    ("auto/d2/m05", 0xa5c20912de47bf14),
    ("auto/d2/m06", 0x2f26e671df2b9980),
    ("auto/d2/m07", 0x606a6fd66068a871),
    ("auto/d2/m08", 0xc230207194939861),
    ("auto/d2/m09", 0x0f4101beb4724a8b),
    ("auto/d2/m10", 0xc3f4b126e78f0abd),
    ("auto/d2/m11", 0x7a2e7ad0ed92c87a),
    ("auto/d2/m12", 0x2df7a23e92721b44),
    ("auto/d2/m13", 0xb851c82ffc3a72aa),
    ("auto/d2/m14", 0x048b44890420e04e),
    ("auto/d2/m15", 0xd5008f979dfe926e),
    ("auto/d4/m00", 0xd93d8e2e2f22d26a),
    ("auto/d4/m01", 0x7529ac3246822e6e),
    ("auto/d4/m02", 0x9d9c33255c06027b),
    ("auto/d4/m03", 0x5be1ec4cc44de554),
    ("auto/d4/m04", 0x643b6d9714eaa3ec),
    ("auto/d4/m05", 0xb4792d904af5b06f),
    ("auto/d4/m06", 0x7c4aa504fcd17bfc),
    ("auto/d4/m07", 0x7a0d7c025e98f0eb),
    ("auto/d4/m08", 0xdcb3779a0bc24e5c),
    ("auto/d4/m09", 0x6cb090106411ea83),
    ("auto/d4/m10", 0x37447768eefddc35),
    ("auto/d4/m11", 0x359183f955052e17),
    ("auto/d4/m12", 0x62d6d3d248145cee),
    ("auto/d4/m13", 0x29c9da4082e405a7),
    ("auto/d4/m14", 0x0c2c8b46cf0d16dd),
    ("auto/d4/m15", 0x12c4e909a854c322),
    ("auto/d8/m00", 0x6c8404c03747a079),
    ("auto/d8/m01", 0x65a2d4b767f9af47),
    ("auto/d8/m02", 0x823bbb10dc879317),
    ("auto/d8/m03", 0x35ae0a5a4b51582c),
    ("auto/d8/m04", 0x98112c5d3a3973dc),
    ("auto/d8/m05", 0x5d70a3b2b9750ac5),
    ("auto/d8/m06", 0x945780f153620e44),
    ("auto/d8/m07", 0x4e338863c85666f0),
    ("auto/d8/m08", 0xc7f5738f24d94e42),
    ("auto/d8/m09", 0xff43bab259c4e24b),
    ("auto/d8/m10", 0x8d0c8ef6bfc2f514),
    ("auto/d8/m11", 0x07dc8f6bc025b344),
    ("auto/d8/m12", 0xef2ace6823bba021),
    ("auto/d8/m13", 0x5f5382e5ec23fbf1),
    ("auto/d8/m14", 0xd2baadf7b6cfff51),
    ("auto/d8/m15", 0x96839de8b96d8894),
    ("b3/d1/m00", 0x160deb568ce7187c),
    ("b3/d1/m01", 0x9d9d39c11035127c),
    ("b3/d1/m02", 0x35927d411da91ebd),
    ("b3/d1/m03", 0xc071e4b6aceaf672),
    ("b3/d1/m04", 0x530f2c7687b56d74),
    ("b3/d1/m05", 0x046a64b396d7c3ee),
    ("b3/d1/m06", 0xa7703a9eb099e790),
    ("b3/d1/m07", 0xeff61e02d3272987),
    ("b3/d1/m08", 0x80f8a185b47c7be7),
    ("b3/d1/m09", 0xe229eb8f24b38d85),
    ("b3/d1/m10", 0x91e744aa911b5d5b),
    ("b3/d1/m11", 0x267dc5f074f60e1c),
    ("b3/d1/m12", 0x82af5e3c79b4f20e),
    ("b3/d1/m13", 0x83f2e68ec98440af),
    ("b3/d1/m14", 0x53d9024aa75a37ec),
    ("b3/d1/m15", 0xfede60ad41a43636),
    ("b3/d2/m00", 0xcd2bb34af6339f3d),
    ("b3/d2/m01", 0x3844ba24815e110c),
    ("b3/d2/m02", 0x2aa12271490cf8ff),
    ("b3/d2/m03", 0xac983bf9647268ce),
    ("b3/d2/m04", 0x1c84245411eeaaa7),
    ("b3/d2/m05", 0x0834e3bcea0e87db),
    ("b3/d2/m06", 0x276c6871be119dda),
    ("b3/d2/m07", 0xad4858b8e0565dfb),
    ("b3/d2/m08", 0xdfbc0bdca91f0eb3),
    ("b3/d2/m09", 0x187c2bd235e33ed3),
    ("b3/d2/m10", 0xff9fa098ed571f13),
    ("b3/d2/m11", 0xb450119f74bff702),
    ("b3/d2/m12", 0xe7c3baf8b2cb80e2),
    ("b3/d2/m13", 0x052ece1f23c8fbb9),
    ("b3/d2/m14", 0xf5a980e817fa0ac1),
    ("b3/d2/m15", 0x606399600ea14703),
    ("b3/d4/m00", 0x302153e87505021d),
    ("b3/d4/m01", 0x9b98e77b9f45644a),
    ("b3/d4/m02", 0x613202b915aea154),
    ("b3/d4/m03", 0xa5f21915805463df),
    ("b3/d4/m04", 0x58082fd488b40052),
    ("b3/d4/m05", 0x5e1af8afc76f8b2b),
    ("b3/d4/m06", 0xe574211a322d2a89),
    ("b3/d4/m07", 0x5e1fa30ab265bbe7),
    ("b3/d4/m08", 0x7f5aa8378b8d3c26),
    ("b3/d4/m09", 0x212d5751dd28c82e),
    ("b3/d4/m10", 0x4664713a8cf79423),
    ("b3/d4/m11", 0xd062c05cfda1f736),
    ("b3/d4/m12", 0x5ece7ce7cbf36e6d),
    ("b3/d4/m13", 0x32bdfc1b8937b389),
    ("b3/d4/m14", 0xfea02b90840051d5),
    ("b3/d4/m15", 0x43eb833fa57c9484),
    ("b3/d8/m00", 0xbb6ad70914d5e423),
    ("b3/d8/m01", 0xbe60eec66432ab14),
    ("b3/d8/m02", 0xb40b2b525647b4dd),
    ("b3/d8/m03", 0xcebb1a14db1f6d8e),
    ("b3/d8/m04", 0x91ccafab2137a737),
    ("b3/d8/m05", 0x4a1329d9da0e17bf),
    ("b3/d8/m06", 0x314dde07740047c9),
    ("b3/d8/m07", 0x74b9bc6ae2c3b265),
    ("b3/d8/m08", 0x0513b17fb640ef7c),
    ("b3/d8/m09", 0x23ce0629c5c8e36e),
    ("b3/d8/m10", 0x4ab2d025e43ebe3f),
    ("b3/d8/m11", 0x12951b4afe4af18e),
    ("b3/d8/m12", 0x1f71b1d5d703d5db),
    ("b3/d8/m13", 0xf255940b403ff691),
    ("b3/d8/m14", 0xa06674501007dc97),
    ("b3/d8/m15", 0xa483c588be6a3d62),
    ("stream/d1/m00", 0x3f21fcca38384f22),
    ("stream/d1/m01", 0x9c3f12b7647e674d),
    ("stream/d1/m02", 0x7a620e0669b838b0),
    ("stream/d1/m03", 0x7a620e0669b838b0),
    ("stream/d1/m04", 0x27d5c897920df9c2),
    ("stream/d1/m05", 0x27d5c897920df9c2),
    ("stream/d1/m06", 0xcb705532475984b6),
    ("stream/d1/m07", 0xcb705532475984b6),
    ("stream/d1/m08", 0xd79f713399208ace),
    ("stream/d1/m09", 0x68813176d821399d),
    ("stream/d1/m10", 0xdadf8207b7b20c7f),
    ("stream/d1/m11", 0xdadf8207b7b20c7f),
    ("stream/d1/m12", 0xa22dbbec503ca4fe),
    ("stream/d1/m13", 0xa22dbbec503ca4fe),
    ("stream/d1/m14", 0xb695d91a88f9ac53),
    ("stream/d1/m15", 0xb695d91a88f9ac53),
    ("stream/d2/m00", 0x7f7102a3b9e4361d),
    ("stream/d2/m01", 0x55b8b190e982ce72),
    ("stream/d2/m02", 0xf2b1a0677846b5e2),
    ("stream/d2/m03", 0xf2b1a0677846b5e2),
    ("stream/d2/m04", 0x845ae98c70f205af),
    ("stream/d2/m05", 0x845ae98c70f205af),
    ("stream/d2/m06", 0x30cdee5db8b42c12),
    ("stream/d2/m07", 0x30cdee5db8b42c12),
    ("stream/d2/m08", 0x93b621f86b408d28),
    ("stream/d2/m09", 0x6713a7d2f81d1337),
    ("stream/d2/m10", 0x58b2aaba1727b62e),
    ("stream/d2/m11", 0x58b2aaba1727b62e),
    ("stream/d2/m12", 0x0a4ac78481b63d4a),
    ("stream/d2/m13", 0x0a4ac78481b63d4a),
    ("stream/d2/m14", 0x2859a89048993f8d),
    ("stream/d2/m15", 0x2859a89048993f8d),
    ("stream/d4/m00", 0x8cca8cb7eb786cc9),
    ("stream/d4/m01", 0x2a3da684a8aebe3a),
    ("stream/d4/m02", 0xdf327e45e968c6d3),
    ("stream/d4/m03", 0xdf327e45e968c6d3),
    ("stream/d4/m04", 0xcee2f7ed28bb7c3a),
    ("stream/d4/m05", 0xcee2f7ed28bb7c3a),
    ("stream/d4/m06", 0x98ddbf06c73b27f2),
    ("stream/d4/m07", 0x98ddbf06c73b27f2),
    ("stream/d4/m08", 0xf4d1ad521b54b323),
    ("stream/d4/m09", 0x3a4b2284f52fe688),
    ("stream/d4/m10", 0xda630a9ef5280076),
    ("stream/d4/m11", 0xda630a9ef5280076),
    ("stream/d4/m12", 0x8f7d2814c1d810a0),
    ("stream/d4/m13", 0x8f7d2814c1d810a0),
    ("stream/d4/m14", 0xb3a511ab261d28a6),
    ("stream/d4/m15", 0xb3a511ab261d28a6),
    ("stream/d8/m00", 0x57d8841ccd6f98aa),
    ("stream/d8/m01", 0xed570c334210483d),
    ("stream/d8/m02", 0x7ff259c340120912),
    ("stream/d8/m03", 0x7ff259c340120912),
    ("stream/d8/m04", 0xbc49c5246dc4301b),
    ("stream/d8/m05", 0xbc49c5246dc4301b),
    ("stream/d8/m06", 0x7ac6ebff264b1646),
    ("stream/d8/m07", 0x7ac6ebff264b1646),
    ("stream/d8/m08", 0x0a50d2f1e5e3835a),
    ("stream/d8/m09", 0x9debda5c867e1c0d),
    ("stream/d8/m10", 0xc8ad78dc605a3749),
    ("stream/d8/m11", 0xc8ad78dc605a3749),
    ("stream/d8/m12", 0x38929d76525ce131),
    ("stream/d8/m13", 0x38929d76525ce131),
    ("stream/d8/m14", 0xefc6b1ab6501a713),
    ("stream/d8/m15", 0xefc6b1ab6501a713),
    ("cluster-grouped/d16/m00", 0x814e4eadd2d708e8),
    ("cluster-grouped/d16/m01", 0x28d0ed3870cfca62),
    ("cluster-grouped/d16/m02", 0xa29d6af6de4594e6),
    ("cluster-grouped/d16/m03", 0xfc57ab8c813cec27),
    ("cluster-grouped/d16/m04", 0x3c87454e5f4ff918),
    ("cluster-grouped/d16/m05", 0x7aaa4557b0824e0f),
    ("cluster-grouped/d16/m06", 0xccd470921c0c64d7),
    ("cluster-grouped/d16/m07", 0x746d21e49531f609),
    ("cluster-grouped/d16/m08", 0xa298eb37ed62b696),
    ("cluster-grouped/d16/m09", 0xd509922710163851),
    ("cluster-grouped/d16/m10", 0x7c880e42c4aec566),
    ("cluster-grouped/d16/m11", 0x28a64abcdcc48344),
    ("cluster-grouped/d16/m12", 0x7a3ab028d7a1f6c6),
    ("cluster-grouped/d16/m13", 0x0b1239d5c79d854b),
    ("cluster-grouped/d16/m14", 0xdaafdca563c8ba14),
    ("cluster-grouped/d16/m15", 0xd3460e747fd89657),
    ("cluster-topo/d16/m00", 0x6509fb83fc04a063),
    ("cluster-topo/d16/m01", 0x778c5e6dba57afcf),
    ("cluster-topo/d16/m02", 0xf9d1062f34ec2787),
    ("cluster-topo/d16/m03", 0x45ca722eadfa875a),
    ("cluster-topo/d16/m04", 0x2387e5efd9a8d4e1),
    ("cluster-topo/d16/m05", 0x6cb8d6c5e5f438e0),
    ("cluster-topo/d16/m06", 0x55eece9255fe9eac),
    ("cluster-topo/d16/m07", 0xd88ed6915bb074a8),
    ("cluster-topo/d16/m08", 0x95c3584b74bd4915),
    ("cluster-topo/d16/m09", 0xfec466ea74ced088),
    ("cluster-topo/d16/m10", 0xbbe8a62e2db2e407),
    ("cluster-topo/d16/m11", 0xc6696b93a3036f7d),
    ("cluster-topo/d16/m12", 0x658aa7f1314d5503),
    ("cluster-topo/d16/m13", 0xed3a943538b5793c),
    ("cluster-topo/d16/m14", 0xf2779ba1a5356f17),
    ("cluster-topo/d16/m15", 0xc6b0c62e8e57f54a),
    ("probe2/d4/m15", 0xcf5d3b7bf5911d05),
    ("no-retire/d2/m05", 0x20dfa33f7c4c08da),
    ("dyn-replay/d2", 0x4b1e55a58c12ad92),
];

#[test]
fn driver_outputs_match_golden_digests() {
    let actual = actual_table();
    let expected: Vec<(String, u64)> =
        EXPECTED.iter().map(|&(name, d)| (name.to_string(), d)).collect();
    if actual != expected {
        let mut table = String::new();
        for (name, d) in &actual {
            table.push_str(&format!("    (\"{name}\", 0x{d:016x}),\n"));
        }
        let bad: Vec<&str> = actual
            .iter()
            .filter(|row| !expected.contains(row))
            .map(|(name, _)| name.as_str())
            .collect();
        panic!("{} of {} rows differ: {bad:?}\nactual table:\n{table}", bad.len(), actual.len());
    }
}
