//! Reference equivalence: a source that replays its backlog from a
//! cursor injects exactly what a source that stores every waiting packet
//! in a FIFO injects.
//!
//! The model below is the straightforward formulation — each created
//! packet is pushed onto a `VecDeque` with its destination and creation
//! cycle, and free injection VCs pop the queue in order. It lives only
//! here, as the specification the library's O(1)-memory source is
//! checked against, cycle by cycle, over random rates (including several
//! packets per cycle), packet lengths, VC counts, credit-return delays,
//! fast-forward gaps and traffic patterns with self-destination fixed
//! points.

use arbitration::RoundRobinArbiter;
use noc_network::source::{Source, SourceStep};
use noc_network::{Mesh, TrafficPattern};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use router_core::{PacketFlits, PacketId};
use std::collections::VecDeque;

/// The library's packet-id split: source node above, sequence below.
const SEQ_BITS: u32 = 40;

/// A source that stores its backlog.
#[derive(Debug)]
struct RefSource {
    node: usize,
    rate: f64,
    packet_len: u32,
    accum: f64,
    next_seq: u64,
    rng: SmallRng,
    /// Waiting packets: id, destination, creation cycle.
    queue: VecDeque<(PacketId, usize, u64)>,
    slots: Vec<Option<PacketFlits>>,
    credits: Vec<u64>,
    vc_pick: RoundRobinArbiter,
}

impl RefSource {
    fn new(node: usize, rate: f64, packet_len: u32, vcs: usize, credits: u64, seed: u64) -> Self {
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let accum = rand::Rng::gen_range(&mut rng, 0.0..1.0);
        RefSource {
            node,
            rate,
            packet_len,
            accum,
            next_seq: 0,
            rng,
            queue: VecDeque::new(),
            slots: vec![None; vcs],
            credits: vec![credits; vcs],
            vc_pick: RoundRobinArbiter::new(vcs),
        }
    }

    fn backlog(&self) -> usize {
        self.queue.len() + self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Cycles that surely create nothing, up to `cap`, with nothing
    /// waiting or mid-injection.
    fn quiet_horizon(&self, cap: u64) -> u64 {
        if self.backlog() > 0 {
            return 0;
        }
        let mut accum = self.accum;
        let mut quiet = 0;
        while quiet < cap && accum + self.rate < 1.0 {
            accum += self.rate;
            quiet += 1;
        }
        quiet
    }

    fn fast_forward(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.accum += self.rate;
        }
    }

    fn credit(&mut self, vc: usize) {
        self.credits[vc] += 1;
    }

    fn step(&mut self, now: u64, mesh: &Mesh, pattern: &TrafficPattern) -> SourceStep {
        let mut out = SourceStep::default();
        self.accum += self.rate;
        while self.accum >= 1.0 {
            self.accum -= 1.0;
            let dest = pattern.destination(mesh, self.node, &mut self.rng);
            if dest == self.node {
                continue;
            }
            let id = PacketId::new(((self.node as u64) << SEQ_BITS) | self.next_seq);
            self.next_seq += 1;
            self.queue.push_back((id, dest, now));
            out.created.push(id);
        }
        for vc in 0..self.slots.len() {
            if self.slots[vc].is_none() {
                let Some((id, dest, created)) = self.queue.pop_front() else {
                    break;
                };
                self.slots[vc] = Some(PacketFlits::new(id, dest, vc, created, self.packet_len));
            }
        }
        let mut ready = 0u64;
        for (vc, (s, &c)) in self.slots.iter().zip(&self.credits).enumerate() {
            if s.is_some() && c > 0 {
                ready |= 1 << vc;
            }
        }
        if let Some(vc) = self.vc_pick.peek_mask(ready) {
            self.vc_pick.advance_past(vc);
            let slot = self.slots[vc].as_mut().expect("ready slot is nonempty");
            out.injected = slot.next();
            if slot.is_exhausted() {
                self.slots[vc] = None;
            }
            self.credits[vc] -= 1;
        }
        out
    }
}

/// One generated scenario.
#[derive(Debug, Clone)]
struct Scenario {
    radix: usize,
    node_pick: usize,
    pattern: u8,
    hotness: f64,
    rate: f64,
    packet_len: u32,
    vcs: usize,
    credits: u64,
    seed: u64,
    /// Cycles each injected flit's credit takes to come back, used in
    /// turn.
    delays: Vec<u64>,
    /// Per cycle: how far to fast-forward if the source is quiet then
    /// (0 = step normally).
    gaps: Vec<u64>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let rate = prop_oneof![0.0..0.3f64, 0.3..1.0f64, 1.0..3.5f64];
    (
        (3usize..6, any::<usize>(), 0u8..4, 0.0..1.0f64, rate),
        (1u32..7, 1usize..5, 1u64..5, any::<u64>()),
        proptest::collection::vec(1u64..40, 1..8),
        proptest::collection::vec(prop_oneof![Just(0u64), Just(0), 1u64..50], 400),
    )
        .prop_map(
            |(
                (radix, node_pick, pattern, hotness, rate),
                (packet_len, vcs, credits, seed),
                delays,
                gaps,
            )| {
                Scenario {
                    radix,
                    node_pick,
                    pattern,
                    hotness,
                    rate,
                    packet_len,
                    vcs,
                    credits,
                    seed,
                    delays,
                    gaps,
                }
            },
        )
}

/// Runs `sc` on both sources, asserting they agree every cycle, and
/// returns the deepest backlog seen.
fn source_matches_reference(sc: &Scenario) -> usize {
    let mesh = Mesh::new(sc.radix, 2);
    let node = sc.node_pick % mesh.nodes();
    let pattern = match sc.pattern {
        0 => TrafficPattern::Uniform,
        // The source is the hot node: every hot draw is skipped.
        1 => TrafficPattern::Hotspot {
            hotspot: node,
            hotness: sc.hotness,
        },
        2 => TrafficPattern::Transpose,
        _ => TrafficPattern::BitComplement,
    };
    let mut got = Source::new(node, sc.rate, sc.packet_len, sc.vcs, sc.credits, sc.seed);
    let mut want = RefSource::new(node, sc.rate, sc.packet_len, sc.vcs, sc.credits, sc.seed);
    let mut step = SourceStep::default();
    // Credits in flight: (due cycle, vc), in no particular order.
    let mut returns: Vec<(u64, usize)> = Vec::new();
    let mut delays = sc.delays.iter().cycle();
    let mut now = 0u64;
    let ctx = format!("{sc:?} node {node} pattern {pattern}");
    let mut deepest = 0;
    for &gap in &sc.gaps {
        returns.retain(|&(due, vc)| {
            if due <= now {
                got.credit(vc);
                want.credit(vc);
            }
            due > now
        });
        let quiet = got.quiet_horizon(gap);
        assert_eq!(
            quiet,
            want.quiet_horizon(gap),
            "quiet horizon at cycle {now}: {ctx}"
        );
        if quiet > 0 {
            // The engines' fast-forward over cycles that create nothing.
            got.fast_forward(quiet);
            want.fast_forward(quiet);
            now += quiet;
            continue;
        }
        got.step_into(now, &mesh, &pattern, &mut step);
        let reference = want.step(now, &mesh, &pattern);
        assert_eq!(
            step.created, reference.created,
            "created at cycle {now}: {ctx}"
        );
        assert_eq!(
            step.injected, reference.injected,
            "injected at cycle {now}: {ctx}"
        );
        assert_eq!(
            got.backlog(),
            want.backlog(),
            "backlog at cycle {now}: {ctx}"
        );
        deepest = deepest.max(got.backlog());
        if let Some(flit) = step.injected {
            returns.push((now + delays.next().expect("cycled"), flit.vc));
        }
        now += 1;
    }
    deepest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn replayed_backlog_matches_fifo_reference(sc in scenario()) {
        source_matches_reference(&sc);
    }
}

/// A long saturated stretch: the backlog grows to thousands of packets
/// and drains only through slow credits, so the replay cursor walks far
/// behind the source.
#[test]
fn deep_backlog_matches_fifo_reference() {
    let sc = Scenario {
        radix: 4,
        node_pick: 5,
        pattern: 1,
        hotness: 0.3,
        rate: 1.7,
        packet_len: 5,
        vcs: 2,
        credits: 3,
        seed: 11,
        delays: vec![25, 3, 60],
        gaps: vec![0; 4_000],
    };
    let deepest = source_matches_reference(&sc);
    assert!(deepest > 3_000, "backlog peaked at {deepest}");
}
