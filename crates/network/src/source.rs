//! Constant-rate traffic sources with a credit-aware network interface.
//!
//! A source generates fixed-length packets at a constant rate (fractional
//! rates accumulate) and injects flits over the local channel into its
//! router — one flit per cycle, subject to credit flow control,
//! interleaving up to `v` packets across the injection port's virtual
//! channels exactly as a network interface would. Packet latency is
//! measured from *creation* (entering the source backlog), so source
//! queueing time counts, per the paper.
//!
//! # The backlog is replayed, not stored
//!
//! Past saturation a source creates packets faster than it injects them,
//! so its backlog grows with run length. The source does not store the
//! waiting packets: it keeps only their count and a *replay cursor* — a
//! copy of its rate accumulator, RNG and cycle taken just before the draw
//! that created the oldest waiting packet. When an injection VC frees,
//! the cursor regenerates that packet by repeating the accumulator
//! additions and [`TrafficPattern::destination`] draws the source made
//! when it created it, skipping the same self-destination fixed points.
//! That yields the packet's destination and creation cycle; its id is
//! `next_seq − queued`, because the waiting packets hold the newest,
//! contiguous sequence numbers.
//!
//! The regeneration is exact: the cursor performs the same floating-point
//! operations and RNG draws, in the same order, as the walk that created
//! the packets, so results are bit-identical to a FIFO of stored packets
//! while a source's memory stays O(1) at any load. The cursor counts one
//! accumulator addition per cycle, so a source with a backlog must be
//! stepped on consecutive cycles; engines fast-forward only quiet
//! sources ([`Source::quiet_horizon`]), which have none.

use arbitration::RoundRobinArbiter;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use router_core::{Flit, PacketFlits, PacketId};

use crate::topology::Mesh;
use crate::traffic::TrafficPattern;

/// Packet-id encoding: the low `SEQ_BITS` bits hold the source's packet
/// sequence number, the high bits the source node id. The simulator's
/// index-addressed measurement structures rely on this split.
pub(crate) const SEQ_BITS: u32 = 40;

/// The node that created `id`.
#[inline]
pub(crate) fn packet_source(id: PacketId) -> usize {
    (id.value() >> SEQ_BITS) as usize
}

/// The per-source sequence number of `id`.
#[inline]
pub(crate) fn packet_seq(id: PacketId) -> u64 {
    id.value() & ((1u64 << SEQ_BITS) - 1)
}

/// What a source did in one cycle.
#[derive(Debug, Clone, Default)]
pub struct SourceStep {
    /// Flit injected into the local channel this cycle, if any.
    pub injected: Option<Flit>,
    /// Packets created (entered the source backlog) this cycle.
    pub created: Vec<PacketId>,
}

/// The source's generation walk, resumable from the draw that created
/// the oldest waiting packet (see the module docs).
#[derive(Debug, Clone)]
struct Replay {
    /// The rate accumulator before that draw's `accum -= 1.0`.
    accum: f64,
    /// The RNG before that draw.
    rng: SmallRng,
    /// The cycle the walk is in.
    cycle: u64,
}

impl Replay {
    /// Regenerates the next waiting packet's destination and creation
    /// cycle, repeating the source's additions and draws in order.
    fn next(
        &mut self,
        node: usize,
        rate: f64,
        mesh: &Mesh,
        pattern: &TrafficPattern,
    ) -> (usize, u64) {
        loop {
            while self.accum >= 1.0 {
                self.accum -= 1.0;
                let dest = pattern.destination(mesh, node, &mut self.rng);
                if dest != node {
                    return (dest, self.cycle);
                }
            }
            self.cycle += 1;
            self.accum += rate;
        }
    }
}

/// A constant-rate source attached to one node.
#[derive(Debug, Clone)]
pub struct Source {
    node: usize,
    rate: f64,
    packet_len: u32,
    accum: f64,
    next_seq: u64,
    rng: SmallRng,
    /// Created packets waiting for an injection VC. They hold the newest
    /// sequence numbers, `next_seq - queued .. next_seq`.
    queued: usize,
    /// Regenerates the oldest waiting packet; meaningful only while
    /// `queued > 0`.
    replay: Replay,
    /// The cycle the next step must run at while packets wait (the
    /// replay counts cycles by accumulator additions).
    next_cycle: u64,
    /// The packet occupying each injection VC, if any (remaining flits
    /// are generated on demand).
    slots: Vec<Option<PacketFlits>>,
    /// Credits into the router's local input port, per VC.
    credits: Vec<u64>,
    /// Downstream buffers per injection VC: the most credits a VC holds.
    credit_cap: u64,
    vc_pick: RoundRobinArbiter,
    /// Total packets created (for diagnostics).
    pub packets_created: u64,
    /// Total flits injected (for diagnostics).
    pub flits_injected: u64,
}

impl Source {
    /// Creates a source for `node` generating `rate` packets/cycle of
    /// `packet_len` flits, with `vcs` injection VCs of `credits_per_vc`
    /// buffers downstream.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or negative rate or zero-length packets.
    #[must_use]
    pub fn new(
        node: usize,
        rate: f64,
        packet_len: u32,
        vcs: usize,
        credits_per_vc: u64,
        seed: u64,
    ) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "bad injection rate {rate}");
        assert!(packet_len >= 1, "packets need at least one flit");
        assert!(vcs >= 1, "need at least one injection VC");
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Random initial phase: without it every source fires its k-th
        // packet in the same cycle, turning "constant rate" into
        // network-wide synchronized bursts.
        let accum = rand::Rng::gen_range(&mut rng, 0.0..1.0);
        Source {
            node,
            rate,
            packet_len,
            accum,
            next_seq: 0,
            replay: Replay {
                accum,
                rng: rng.clone(),
                cycle: 0,
            },
            rng,
            queued: 0,
            next_cycle: 0,
            slots: vec![None; vcs],
            credits: vec![credits_per_vc; vcs],
            credit_cap: credits_per_vc,
            vc_pick: RoundRobinArbiter::new(vcs),
            packets_created: 0,
            flits_injected: 0,
        }
    }

    /// The node this source feeds.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// Packets waiting or mid-injection (backlog; grows without bound
    /// past saturation, in count only — see the module docs).
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.queued + self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Returns one credit for injection VC `vc`.
    ///
    /// # Panics
    ///
    /// Panics if the VC already holds a credit for every downstream
    /// buffer — that means a duplicated credit.
    pub fn credit(&mut self, vc: usize) {
        assert!(
            self.credits[vc] < self.credit_cap,
            "credit overflow on injection vc {vc}: duplicate credit"
        );
        self.credits[vc] += 1;
    }

    /// Advances the source one cycle: possibly creates packets, claims
    /// free injection VCs, and injects at most one flit.
    pub fn step(&mut self, now: u64, mesh: &Mesh, pattern: &TrafficPattern) -> SourceStep {
        let mut out = SourceStep::default();
        self.step_into(now, mesh, pattern, &mut out);
        out
    }

    /// The id of this source's packet with sequence number `seq`.
    fn packet_id(&self, seq: u64) -> PacketId {
        PacketId::new(((self.node as u64) << SEQ_BITS) | seq)
    }

    /// [`Source::step`] into a caller-retained buffer, so a simulator
    /// stepping thousands of sources per cycle reuses one `created`
    /// allocation instead of building a fresh `Vec` whenever a packet is
    /// generated. `out` is cleared first.
    ///
    /// # Panics
    ///
    /// Debug-asserts that a source with waiting packets is stepped on
    /// consecutive cycles.
    pub fn step_into(
        &mut self,
        now: u64,
        mesh: &Mesh,
        pattern: &TrafficPattern,
        out: &mut SourceStep,
    ) {
        out.injected = None;
        out.created.clear();

        // Fast path: nothing waiting, nothing mid-injection, and the rate
        // accumulator cannot cross 1.0 this cycle — the step is pure
        // accumulation. Bit-exact shortcut of the full path below (the
        // `accum + rate` comparison is the same addition the slow path
        // performs, and an arbiter without requests does not move).
        if self.accum + self.rate < 1.0
            && self.queued == 0
            && self.slots.iter().all(Option::is_none)
        {
            self.accum += self.rate;
            return;
        }
        debug_assert!(
            self.queued == 0 || now == self.next_cycle,
            "source {} with a backlog stepped at cycle {now}, expected {}",
            self.node,
            self.next_cycle
        );
        self.next_cycle = now + 1;

        // Constant-rate generation with fractional accumulation.
        self.accum += self.rate;
        while self.accum >= 1.0 {
            // The first waiting packet starts the backlog: keep the walk
            // from just before its draw.
            let start = (self.queued == 0).then(|| Replay {
                accum: self.accum,
                rng: self.rng.clone(),
                cycle: now,
            });
            self.accum -= 1.0;
            let dest = pattern.destination(mesh, self.node, &mut self.rng);
            if dest == self.node {
                continue; // permutation fixed point: nothing to send
            }
            let id = self.packet_id(self.next_seq);
            self.next_seq += 1;
            self.packets_created += 1;
            out.created.push(id);
            if let Some(start) = start {
                self.replay = start;
            }
            self.queued += 1;
        }

        // Claim free VCs for waiting packets, oldest first.
        for vc in 0..self.slots.len() {
            if self.queued == 0 {
                break;
            }
            if self.slots[vc].is_none() {
                let (dest, created) = self.replay.next(self.node, self.rate, mesh, pattern);
                debug_assert!(created <= now, "replay ran past the source");
                let id = self.packet_id(self.next_seq - self.queued as u64);
                self.queued -= 1;
                self.slots[vc] = Some(PacketFlits::new(id, dest, vc, created, self.packet_len));
            }
        }

        // Inject one flit from a VC with work and credit.
        let mut ready = 0u64;
        for (vc, (s, &c)) in self.slots.iter().zip(&self.credits).enumerate() {
            if s.is_some() && c > 0 {
                ready |= 1 << vc;
            }
        }
        if let Some(vc) = self.vc_pick.peek_mask(ready) {
            self.vc_pick.advance_past(vc);
            let slot = self.slots[vc].as_mut().expect("ready slot is nonempty");
            let flit = slot.next().expect("claimed packets have flits left");
            if slot.is_exhausted() {
                self.slots[vc] = None;
            }
            self.credits[vc] -= 1;
            self.flits_injected += 1;
            out.injected = Some(flit);
        }
    }

    /// How many consecutive future cycles (up to `cap`) are guaranteed to
    /// take [`Source::step_into`]'s pure-accumulation fast path: the
    /// source has nothing waiting or mid-injection and the rate
    /// accumulator cannot cross 1.0 within that many further additions.
    ///
    /// Returns 0 if the very next step might do work. The count is exact
    /// up to `cap` because it replays the same `accum + rate` additions
    /// the fast path performs — the prediction and the execution are the
    /// same floating-point sequence, which is what lets an engine skip
    /// those cycles without perturbing bit-identical results. Crossing
    /// cycles are never included: the slow path consumes RNG state (even
    /// for permutation fixed points), so the horizon stops strictly
    /// before the first possible crossing.
    #[must_use]
    pub fn quiet_horizon(&self, cap: u64) -> u64 {
        if self.queued == 0 && self.slots.iter().all(Option::is_none) {
            let mut accum = self.accum;
            let mut quiet = 0;
            // A denormal-small rate can make `accum + rate == accum`,
            // so bound the scan by `cap` rather than by progress.
            while quiet < cap && accum + self.rate < 1.0 {
                accum += self.rate;
                quiet += 1;
            }
            quiet
        } else {
            0
        }
    }

    /// Replays `cycles` pure-accumulation steps at once — the engine-side
    /// half of [`Source::quiet_horizon`]. Each skipped cycle performs the
    /// identical `accum += rate` addition the fast path would have, so
    /// the accumulator lands on the bit-exact same value.
    ///
    /// # Panics
    ///
    /// Debug-asserts that every skipped step really was a fast-path step;
    /// callers must not skip past the horizon.
    pub fn fast_forward(&mut self, cycles: u64) {
        debug_assert!(
            cycles <= self.quiet_horizon(cycles),
            "fast-forwarding {cycles} cycles past the quiet horizon"
        );
        for _ in 0..cycles {
            self.accum += self.rate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use router_core::FlitKind;

    fn mesh() -> Mesh {
        Mesh::new(4, 2)
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let mut s = Source::new(0, 0.0, 5, 1, 4, 1);
        for now in 0..100 {
            let step = s.step(now, &mesh(), &TrafficPattern::Uniform);
            assert!(step.injected.is_none());
            assert!(step.created.is_empty());
        }
    }

    #[test]
    fn rate_one_quarter_creates_every_fourth_cycle() {
        let mut s = Source::new(0, 0.25, 5, 1, 100, 1);
        let created: usize = (0..400)
            .map(|now| s.step(now, &mesh(), &TrafficPattern::Uniform).created.len())
            .sum();
        assert_eq!(created, 100);
    }

    #[test]
    fn injects_one_flit_per_cycle_when_backlogged() {
        let mut s = Source::new(0, 1.0, 5, 1, 1000, 1);
        let mut injected = 0;
        for now in 0..50 {
            if s.step(now, &mesh(), &TrafficPattern::Uniform)
                .injected
                .is_some()
            {
                injected += 1;
            }
        }
        assert_eq!(injected, 50, "link is the bottleneck: exactly 1/cycle");
    }

    #[test]
    fn credits_gate_injection() {
        let mut s = Source::new(0, 1.0, 5, 1, 2, 1);
        let mut injected = 0;
        for now in 0..20 {
            if s.step(now, &mesh(), &TrafficPattern::Uniform)
                .injected
                .is_some()
            {
                injected += 1;
            }
        }
        assert_eq!(injected, 2, "only two credits available");
        s.credit(0);
        assert!(s
            .step(20, &mesh(), &TrafficPattern::Uniform)
            .injected
            .is_some());
    }

    #[test]
    #[should_panic(expected = "duplicate credit")]
    fn duplicate_credit_panics() {
        let mut s = Source::new(0, 1.0, 5, 2, 3, 1);
        let _ = s.step(0, &mesh(), &TrafficPattern::Uniform);
        s.credit(1); // VC 1 never sent a flit: all three credits are home
    }

    #[test]
    fn packets_do_not_interleave_within_a_vc() {
        let mut s = Source::new(0, 0.5, 3, 1, 1000, 1);
        let mut flits = Vec::new();
        for now in 0..120 {
            if let Some(f) = s.step(now, &mesh(), &TrafficPattern::Uniform).injected {
                flits.push(f);
            }
        }
        // Within VC 0, flits must be strictly sequential per packet.
        let mut current: Option<PacketId> = None;
        for f in flits {
            match f.kind {
                FlitKind::Head | FlitKind::HeadTail => {
                    assert!(current.is_none(), "head while packet open");
                    if f.kind == FlitKind::Head {
                        current = Some(f.packet);
                    }
                }
                FlitKind::Body => assert_eq!(current, Some(f.packet)),
                FlitKind::Tail => {
                    assert_eq!(current, Some(f.packet));
                    current = None;
                }
            }
        }
    }

    #[test]
    fn two_vcs_interleave_two_packets() {
        let mut s = Source::new(0, 1.0, 5, 2, 1000, 1);
        let mut vcs_seen = std::collections::HashSet::new();
        for now in 0..10 {
            if let Some(f) = s.step(now, &mesh(), &TrafficPattern::Uniform).injected {
                vcs_seen.insert(f.vc);
            }
        }
        assert_eq!(vcs_seen.len(), 2, "both injection VCs active");
    }

    #[test]
    fn created_flits_carry_creation_time() {
        let mut s = Source::new(0, 1.0, 2, 1, 100, 1);
        let step = s.step(42, &mesh(), &TrafficPattern::Uniform);
        assert_eq!(step.created.len(), 1);
        let f = step.injected.expect("injects immediately");
        assert_eq!(f.created, 42);
    }

    #[test]
    fn replayed_packets_keep_their_id_and_creation_cycle() {
        // One packet per cycle, five flits each, one VC: packet `k` is
        // created at cycle `k` and waits in the backlog until its head
        // leaves at cycle `5k`, regenerated by the replay cursor.
        let mut s = Source::new(0, 1.0, 5, 1, 1000, 1);
        for now in 0..200 {
            let step = s.step(now, &mesh(), &TrafficPattern::Uniform);
            let flit = step.injected.expect("link-limited: one flit per cycle");
            if now % 5 == 0 {
                assert_eq!(flit.created, now / 5);
                assert_eq!(flit.packet, s.packet_id(now / 5));
            }
        }
        assert_eq!(s.backlog(), 200 - 200 / 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "with a backlog stepped at cycle 7")]
    fn backlogged_source_must_step_every_cycle() {
        let mut s = Source::new(0, 1.0, 5, 1, 1000, 1);
        for now in 0..3 {
            let _ = s.step(now, &mesh(), &TrafficPattern::Uniform);
        }
        assert!(s.backlog() > 1, "packets wait behind the first");
        let _ = s.step(7, &mesh(), &TrafficPattern::Uniform);
    }

    #[test]
    fn transpose_diagonal_never_injects() {
        // Transpose maps diagonal nodes to themselves; the source must
        // skip those injections entirely — no packet created, no flit
        // injected, no id reported — so latency tagging and throughput
        // accounting only ever see real traffic.
        let diag = Mesh::new(4, 2).node_at(&[2, 2]);
        let mut s = Source::new(diag, 1.0, 5, 2, 100, 9);
        for now in 0..500 {
            let step = s.step(now, &mesh(), &TrafficPattern::Transpose);
            assert!(step.created.is_empty(), "fixed point produced a packet");
            assert!(step.injected.is_none(), "fixed point injected a flit");
        }
        assert_eq!(s.packets_created, 0);
        assert_eq!(s.flits_injected, 0);
        assert_eq!(s.backlog(), 0);
    }

    #[test]
    fn transpose_off_diagonal_injects_normally() {
        // Off-diagonal sources are unaffected by the fixed-point skip.
        let src = Mesh::new(4, 2).node_at(&[1, 3]);
        let mut s = Source::new(src, 0.25, 5, 1, 1000, 9);
        let created: usize = (0..400)
            .map(|now| {
                s.step(now, &mesh(), &TrafficPattern::Transpose)
                    .created
                    .len()
            })
            .sum();
        assert_eq!(created, 100, "full configured rate off the diagonal");
        assert!(s.flits_injected > 0);
    }

    #[test]
    fn quiet_horizon_matches_stepped_execution() {
        // The horizon must name exactly the cycles the fast path would
        // take: replaying that many accumulations and then stepping must
        // land on the same state as stepping cycle by cycle.
        for rate in [0.0, 0.01, 0.24999, 0.3, 0.9] {
            let mut stepped = Source::new(3, rate, 5, 2, 100, 42);
            let mut skipped = stepped.clone();
            let mut now = 0u64;
            for _ in 0..5 {
                let quiet = skipped.quiet_horizon(10_000);
                if rate == 0.0 {
                    assert_eq!(quiet, 10_000, "zero rate is quiet forever");
                    return;
                }
                for _ in 0..quiet {
                    let step = stepped.step(now, &mesh(), &TrafficPattern::Uniform);
                    assert!(step.created.is_empty(), "horizon overshot a crossing");
                    now += 1;
                }
                skipped.fast_forward(quiet);
                assert_eq!(skipped.accum.to_bits(), stepped.accum.to_bits());
                // The next cycle crosses: both paths take the slow step.
                assert_eq!(skipped.quiet_horizon(10_000), 0);
                let a = stepped.step(now, &mesh(), &TrafficPattern::Uniform);
                let b = skipped.step(now, &mesh(), &TrafficPattern::Uniform);
                assert_eq!(a.created, b.created);
                now += 1;
            }
        }
    }

    #[test]
    fn quiet_horizon_is_zero_while_draining() {
        let mut s = Source::new(0, 0.5, 3, 1, 100, 1);
        // Force a crossing so a packet occupies a slot.
        while s.backlog() == 0 {
            let _ = s.step(0, &mesh(), &TrafficPattern::Uniform);
        }
        assert_eq!(s.quiet_horizon(1000), 0, "mid-injection is never quiet");
    }

    #[test]
    fn packet_ids_are_unique_across_sources() {
        let mut a = Source::new(1, 1.0, 1, 1, 100, 7);
        let mut b = Source::new(2, 1.0, 1, 1, 100, 7);
        let mut ids = std::collections::HashSet::new();
        for now in 0..50 {
            for s in [&mut a, &mut b] {
                for id in s.step(now, &mesh(), &TrafficPattern::Uniform).created {
                    assert!(ids.insert(id), "duplicate packet id {id}");
                }
            }
        }
    }
}
