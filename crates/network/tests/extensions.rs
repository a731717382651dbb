//! End-to-end tests of the future-work extensions: torus topology with
//! dateline VC deadlock avoidance, and west-first adaptive routing.

use noc_network::config::{ConfigError, RoutingAlgo};
use noc_network::{Network, NetworkConfig, RouterKind, TrafficPattern};

fn run(cfg: NetworkConfig) -> noc_network::RunResult {
    Network::new(cfg).run()
}

#[test]
fn torus_uniform_traffic_drains() {
    for kind in [
        RouterKind::VirtualChannel {
            vcs: 2,
            buffers_per_vc: 4,
        },
        RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: 4,
        },
        RouterKind::SpeculativeVc {
            vcs: 4,
            buffers_per_vc: 2,
        },
    ] {
        let cfg = NetworkConfig::mesh(8, kind)
            .into_torus()
            .with_injection(0.2)
            .with_warmup(500)
            .with_sample(800)
            .with_max_cycles(100_000);
        let r = run(cfg);
        assert!(!r.saturated, "{kind} saturated on torus at 20% load");
        assert_eq!(r.stats.count(), 800, "{kind}");
    }
}

/// Tornado traffic on a torus sends every packet halfway around its
/// rings — the classic stress for ring deadlock. The dateline classes
/// must keep it live.
#[test]
fn torus_tornado_does_not_deadlock() {
    // Tornado sends every packet k/2 hops around its rings and the
    // dateline classes leave a single usable VC per class on each
    // channel, so feasible load is low; well below it the sample must
    // drain...
    let cfg = NetworkConfig::mesh(
        8,
        RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: 4,
        },
    )
    .into_torus()
    .with_pattern(TrafficPattern::Tornado)
    .with_injection(0.05)
    .with_warmup(500)
    .with_sample(600)
    .with_max_cycles(150_000);
    let r = run(cfg);
    assert!(!r.saturated, "tornado on torus deadlocked or saturated");
    assert_eq!(r.stats.count(), 600);

    // ...and even past saturation the network must stay *live* (packets
    // keep draining — saturation, not deadlock).
    let hot = NetworkConfig::mesh(
        8,
        RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: 4,
        },
    )
    .into_torus()
    .with_pattern(TrafficPattern::Tornado)
    .with_injection(0.5)
    .with_warmup(500)
    .with_sample(20_000)
    .with_max_cycles(30_000);
    let r = run(hot);
    assert!(
        r.flits_ejected > 10_000,
        "throughput collapsed to {} flits — ring deadlock?",
        r.flits_ejected
    );
}

/// Wrap links shorten paths: the torus must beat the mesh at zero load.
#[test]
fn torus_cuts_zero_load_latency() {
    let kind = RouterKind::SpeculativeVc {
        vcs: 2,
        buffers_per_vc: 4,
    };
    let base = |cfg: NetworkConfig| {
        cfg.with_injection(0.05)
            .with_warmup(400)
            .with_sample(500)
            .with_max_cycles(80_000)
    };
    let mesh = run(base(NetworkConfig::mesh(8, kind)));
    let torus = run(base(NetworkConfig::mesh(8, kind).into_torus()));
    let (m, t) = (mesh.avg_latency.unwrap(), torus.avg_latency.unwrap());
    // Average distance drops from ~5.33 to 4 — about 4 router+link hops.
    assert!(
        t < m - 2.0,
        "torus ({t:.1}) must beat mesh ({m:.1}) at zero load"
    );
}

#[test]
fn west_first_adaptive_delivers_uniform_traffic() {
    let cfg = NetworkConfig::mesh(
        8,
        RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: 4,
        },
    )
    .with_routing(RoutingAlgo::WestFirstAdaptive)
    .with_injection(0.25)
    .with_warmup(500)
    .with_sample(800)
    .with_max_cycles(100_000);
    let r = run(cfg);
    assert!(!r.saturated);
    assert_eq!(r.stats.count(), 800);
}

#[test]
fn negative_first_adaptive_delivers_on_two_and_three_d_meshes() {
    let kind = RouterKind::SpeculativeVc {
        vcs: 2,
        buffers_per_vc: 4,
    };
    for mesh in [noc_network::Mesh::new(8, 2), noc_network::Mesh::new(4, 3)] {
        let cfg = NetworkConfig::for_mesh(mesh, kind)
            .with_routing(RoutingAlgo::NegativeFirstAdaptive)
            .with_injection(0.25)
            .with_warmup(500)
            .with_sample(800)
            .with_max_cycles(100_000);
        let r = run(cfg);
        assert!(!r.saturated, "{mesh} saturated at 25% load");
        assert_eq!(r.stats.count(), 800, "{mesh}");
    }
}

/// Minimal adaptivity on a 3-D mesh: zero-load latency matches DOR
/// (both route minimally; only the path spread differs).
#[test]
fn negative_first_zero_load_matches_dor_in_three_dims() {
    let kind = RouterKind::VirtualChannel {
        vcs: 2,
        buffers_per_vc: 4,
    };
    let base = |algo| {
        NetworkConfig::for_mesh(noc_network::Mesh::new(4, 3), kind)
            .with_routing(algo)
            .with_injection(0.05)
            .with_warmup(400)
            .with_sample(500)
            .with_max_cycles(80_000)
    };
    let dor = run(base(RoutingAlgo::DimensionOrdered))
        .avg_latency
        .unwrap();
    let nf = run(base(RoutingAlgo::NegativeFirstAdaptive))
        .avg_latency
        .unwrap();
    assert!(
        (dor - nf).abs() < 2.0,
        "minimal routes must give matching zero-load latency: {dor:.1} vs {nf:.1}"
    );
}

/// Adaptive selection keeps paths minimal: zero-load latency matches DOR.
#[test]
fn west_first_zero_load_matches_dor() {
    let kind = RouterKind::VirtualChannel {
        vcs: 2,
        buffers_per_vc: 4,
    };
    let base = |algo| {
        NetworkConfig::mesh(8, kind)
            .with_routing(algo)
            .with_injection(0.05)
            .with_warmup(400)
            .with_sample(500)
            .with_max_cycles(80_000)
    };
    let dor = run(base(RoutingAlgo::DimensionOrdered))
        .avg_latency
        .unwrap();
    let wf = run(base(RoutingAlgo::WestFirstAdaptive))
        .avg_latency
        .unwrap();
    assert!(
        (dor - wf).abs() < 2.0,
        "minimal routes must give matching zero-load latency: {dor:.1} vs {wf:.1}"
    );
}

#[test]
fn virtual_cut_through_delivers_and_matches_wormhole_latency() {
    // VCT has the same 3-stage pipeline as wormhole; at low load with
    // ample buffering their latencies match.
    let base = |kind| {
        NetworkConfig::mesh(8, kind)
            .with_injection(0.05)
            .with_warmup(400)
            .with_sample(500)
            .with_max_cycles(80_000)
    };
    let wh = run(base(RouterKind::Wormhole { buffers: 8 }));
    let vct = run(base(RouterKind::VirtualCutThrough { buffers: 8 }));
    assert!(!vct.saturated);
    let (a, b) = (wh.avg_latency.unwrap(), vct.avg_latency.unwrap());
    assert!(
        (a - b).abs() < 1.5,
        "same pipeline at zero load: WH {a:.1} vs VCT {b:.1}"
    );
}

#[test]
fn cut_through_admission_needs_multi_packet_buffers() {
    // Whole-packet admission idles the channel while credits drain back
    // above a packet's worth: with barely 1.6 packets of buffering VCT
    // pays heavily at load, while with 3+ packets it tracks wormhole —
    // the classical guidance that VCT wants packet-granular buffering.
    let base = |kind| {
        NetworkConfig::mesh(8, kind)
            .with_injection(0.35)
            .with_warmup(800)
            .with_sample(1_500)
            .with_max_cycles(150_000)
    };
    let wh = run(base(RouterKind::Wormhole { buffers: 16 }));
    let deep = run(base(RouterKind::VirtualCutThrough { buffers: 16 }));
    let shallow = run(base(RouterKind::VirtualCutThrough { buffers: 8 }));
    assert!(!wh.saturated && !deep.saturated);
    let (a, b) = (wh.avg_latency.unwrap(), deep.avg_latency.unwrap());
    assert!(
        b < a * 1.3,
        "deep-buffered VCT tracks wormhole: WH {a:.1} vs VCT {b:.1}"
    );
    let c = shallow.avg_latency.unwrap_or(f64::INFINITY);
    assert!(
        c > b,
        "shallow buffers must cost VCT latency: {b:.1} vs {c:.1}"
    );
}

/// The paper's p = 7 configurations are 3-D mesh routers; the simulator
/// handles them end to end (4-ary 3-mesh, 7-port routers).
#[test]
fn three_dimensional_mesh_works() {
    let mut cfg = NetworkConfig::mesh(
        4,
        RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: 4,
        },
    )
    .with_injection(0.15)
    .with_warmup(300)
    .with_sample(400)
    .with_max_cycles(80_000);
    cfg.mesh = noc_network::Mesh::new(4, 3);
    let r = run(cfg);
    assert!(!r.saturated);
    assert_eq!(r.stats.count(), 400);
    // 64 nodes, avg distance ~3.8: latency in the high 20s.
    let lat = r.avg_latency.unwrap();
    assert!((20.0..40.0).contains(&lat), "3-D mesh latency {lat}");
}

/// A 3-D torus with dateline classes is likewise live.
#[test]
fn three_dimensional_torus_works() {
    let mut cfg = NetworkConfig::mesh(
        4,
        RouterKind::VirtualChannel {
            vcs: 2,
            buffers_per_vc: 4,
        },
    )
    .with_injection(0.1)
    .with_warmup(300)
    .with_sample(300)
    .with_max_cycles(80_000);
    cfg.mesh = noc_network::Mesh::new(4, 3).into_torus();
    let r = run(cfg);
    assert!(!r.saturated);
    assert_eq!(r.stats.count(), 300);
}

#[test]
fn torus_with_one_vc_is_rejected() {
    let cfg = NetworkConfig::mesh(
        4,
        RouterKind::VirtualChannel {
            vcs: 1,
            buffers_per_vc: 4,
        },
    )
    .into_torus();
    let err = Network::try_new(cfg).unwrap_err();
    assert_eq!(err, ConfigError::TorusNeedsDatelineVcs { vcs: 1 });
    assert!(err.to_string().contains("dateline"), "{err}");
}

#[test]
fn sixty_five_channels_per_router_are_rejected_not_a_panic() {
    // 5 ports x 13 VCs = 65 channels: one more than the router's masks.
    let cfg = NetworkConfig::mesh(
        4,
        RouterKind::SpeculativeVc {
            vcs: 13,
            buffers_per_vc: 4,
        },
    );
    let err = std::panic::catch_unwind(|| Network::try_new(cfg))
        .expect("try_new must not panic")
        .unwrap_err();
    assert_eq!(err, ConfigError::TooManyChannels { ports: 5, vcs: 13 });
    assert!(err.to_string().contains("65 channels"), "{err}");
}

#[test]
fn west_first_on_torus_is_rejected() {
    let kind = RouterKind::VirtualChannel {
        vcs: 2,
        buffers_per_vc: 4,
    };
    let cfg = NetworkConfig::mesh(4, kind)
        .into_torus()
        .with_routing(RoutingAlgo::WestFirstAdaptive);
    let err = Network::try_new(cfg).unwrap_err();
    assert_eq!(
        err,
        ConfigError::WestFirstNeedsTwoDimMesh {
            dims: 2,
            torus: true
        }
    );
    assert!(err.to_string().contains("2-D meshes"), "{err}");
}

#[test]
#[should_panic(expected = "invalid network configuration")]
fn infallible_constructor_panics_with_the_config_error_message() {
    let kind = RouterKind::Wormhole { buffers: 8 };
    let _ = Network::new(NetworkConfig::mesh(4, kind).into_torus());
}
