//! Frozen simulated results. Every engine — the cycle-driven reference,
//! the event-driven engine, and the sharded engine at one, two, and
//! three shards — must reproduce a digest recorded once from the
//! cycle-driven engine. Unlike the differential harness, which only
//! checks that the engines agree with each other, these digests pin the
//! absolute results: a change that moves every engine the same way
//! fails here.
//!
//! A digest is FNV-1a over everything a consumer of [`RunResult`] can
//! read as a simulated outcome: cycles, the bits of the latency and
//! throughput figures, the latency statistics and histogram, router
//! counters, drop books, the delivered ratio, the telemetry counter
//! stream, and every flow's percentiles. Wall-clock data (phase timing,
//! spans) and engine work counters are left out. When a change alters
//! simulated results on purpose, rerun with `--nocapture`, check the
//! printed digests, and update the table.

use peh_dally::noc_network::config::EngineKind;
use peh_dally::noc_network::{
    parse_faults, Mesh, Network, NetworkConfig, RouterKind, RunResult, TrafficPattern,
};

const SPEC_VC: RouterKind = RouterKind::SpeculativeVc {
    vcs: 2,
    buffers_per_vc: 4,
};

const VC: RouterKind = RouterKind::VirtualChannel {
    vcs: 2,
    buffers_per_vc: 4,
};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn opt(&mut self, x: Option<u64>) {
        match x {
            Some(v) => {
                self.word(1);
                self.word(v);
            }
            None => self.word(0),
        }
    }
}

fn digest(r: &RunResult) -> u64 {
    let mut h = Fnv::new();
    h.word(r.cycles);
    h.word(u64::from(r.saturated));
    h.opt(r.avg_latency.map(f64::to_bits));
    h.word(r.accepted.to_bits());
    h.word(r.stats.count());
    h.opt(r.stats.mean().map(f64::to_bits));
    h.opt(r.stats.std_dev().map(f64::to_bits));
    h.opt(r.stats.min());
    h.opt(r.stats.max());
    h.word(r.histogram.total());
    h.word(r.histogram.overflow());
    for (lo, n) in r.histogram.buckets() {
        h.word(lo);
        h.word(n);
    }
    h.word(r.flits_ejected);
    let s = &r.router_stats;
    for v in [
        s.flits_switched,
        s.va_grants,
        s.sa_grants,
        s.spec_requests,
        s.spec_hits,
        s.spec_wasted,
        s.credits_sent,
    ] {
        h.word(v);
    }
    for d in std::iter::once(&r.drops).chain(&r.node_drops) {
        for &v in d.flits.iter().chain(&d.packets) {
            h.word(v);
        }
    }
    h.word(r.delivered_ratio.to_bits());
    if let Some(m) = &r.metrics {
        let (cycles, counters) = m.identity();
        for &v in cycles.iter().chain(counters) {
            h.word(v);
        }
    }
    if let Some(f) = &r.flow_stats {
        for src in 0..f.nodes() {
            for dst in 0..f.nodes() {
                if let Some(p) = f.percentiles(src, dst) {
                    for v in [src as u64, dst as u64, p.p50, p.p95, p.p99] {
                        h.word(v);
                    }
                }
            }
        }
    }
    h.0
}

/// Runs `cfg` on every engine and asserts each reproduces `expected`.
fn assert_golden(name: &str, cfg: NetworkConfig, expected: u64) {
    let engines = [
        EngineKind::CycleDriven,
        EngineKind::EventDriven,
        EngineKind::parallel(1),
        EngineKind::parallel(2),
        EngineKind::parallel(3),
    ];
    for engine in engines {
        let r = Network::new(cfg.clone().with_engine(engine)).run();
        let got = digest(&r);
        println!("{name} {engine}: {got:#018x}");
        assert_eq!(
            got, expected,
            "{name} on {engine}: digest {got:#018x}, frozen {expected:#018x}"
        );
    }
}

#[test]
fn spec_vc_uniform_8x8() {
    let cfg = NetworkConfig::mesh(8, SPEC_VC)
        .with_injection(0.3)
        .with_warmup(300)
        .with_sample(500)
        .with_max_cycles(20_000);
    assert_golden("spec_vc_uniform_8x8", cfg, 0x6d8e_6ebe_a300_d360);
}

/// A torus needs two dateline VCs, so the torus runs the VC router; the
/// single-VC wormhole router gets a mesh of its own below.
#[test]
fn vc_torus_transpose_4x4() {
    let cfg = NetworkConfig::mesh(4, VC)
        .into_torus()
        .with_pattern(TrafficPattern::Transpose)
        .with_injection(0.3)
        .with_warmup(200)
        .with_sample(400)
        .with_max_cycles(20_000);
    assert_golden("vc_torus_transpose_4x4", cfg, 0x67a5_e39e_25c2_cc44);
}

#[test]
fn wormhole_transpose_4x4() {
    let cfg = NetworkConfig::mesh(4, RouterKind::Wormhole { buffers: 8 })
        .with_pattern(TrafficPattern::Transpose)
        .with_injection(0.25)
        .with_warmup(200)
        .with_sample(400)
        .with_max_cycles(20_000);
    assert_golden("wormhole_transpose_4x4", cfg, 0x5e8c_392e_f8b1_5055);
}

#[test]
fn vc_3ary_3mesh() {
    let cfg = NetworkConfig::for_mesh(Mesh::new(3, 3), VC)
        .with_injection(0.25)
        .with_warmup(200)
        .with_sample(400)
        .with_max_cycles(20_000);
    assert_golden("vc_3ary_3mesh", cfg, 0xbf23_f148_94f1_0990);
}

/// The tagged sample never drains: the run ends at its cycle limit.
#[test]
fn saturated_hotspot_8x8() {
    let cfg = NetworkConfig::mesh(8, SPEC_VC)
        .with_pattern(TrafficPattern::Hotspot {
            hotspot: 59,
            hotness: 0.5,
        })
        .with_injection(0.5)
        .with_warmup(500)
        .with_sample(1_000)
        .with_max_cycles(3_000);
    assert_golden("saturated_hotspot_8x8", cfg, 0xbf15_7aa8_483f_57c2);
}

/// A dead router, a flaky link, and a lossy link, with the telemetry
/// stream and per-flow tails on.
#[test]
fn faulted_with_telemetry_4x4() {
    let cfg = NetworkConfig::mesh(4, SPEC_VC)
        .with_injection(0.3)
        .with_warmup(120)
        .with_sample(200)
        .with_max_cycles(40_000)
        .with_faults(
            parse_faults("router:10:dead@180; link:5:0:flaky@40/10; link:9:2:loss@0.1")
                .expect("fault spec"),
        )
        .with_telemetry(32);
    assert_golden("faulted_with_telemetry_4x4", cfg, 0x5121_59ba_fa85_9d24);
}

/// Long quiescent stretches: the event and sharded engines fast-forward
/// most of this run.
#[test]
fn low_load_drain_8x8() {
    let cfg = NetworkConfig::mesh(8, SPEC_VC)
        .with_injection(0.01)
        .with_warmup(400)
        .with_sample(60)
        .with_max_cycles(200_000)
        .with_telemetry(256);
    assert_golden("low_load_drain_8x8", cfg, 0x7536_f478_2935_d97e);
}
