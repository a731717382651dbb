//! Per-port input and output state: virtual-channel state machines,
//! output-VC ownership, and credit counters.
//!
//! The flits themselves no longer live here: every input VC's buffer is
//! a fixed-capacity ring window into the router's [`FlitArena`]
//! (one contiguous slab per router), and [`InputVc`] is the thin
//! per-channel view that remains — the channel state machine plus the
//! index of its ring.
//!
//! [`FlitArena`]: crate::arena::FlitArena

use crate::flit::PacketId;
use arbitration::mask::{low_bits, MAX_REQUESTORS};
use std::fmt;

/// The state machine of one input virtual channel (`invc_state` /
/// `inpc_state` in the paper's Figures 2–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcState {
    /// No packet in progress.
    Idle,
    /// Route computed; bidding for resources from `request_at`:
    /// an output VC (VC router), output VC and switch in parallel
    /// (speculative router), or the output port itself (wormhole).
    Allocating {
        /// Output port chosen by the routing function.
        out_port: usize,
        /// First cycle the channel may present requests.
        request_at: u64,
        /// Output VCs the routing function permits (bit `i` = VC `i`),
        /// e.g. a dateline VC class on a torus.
        vc_mask: u64,
    },
    /// Resources held; flits of `packet` flow through the switch.
    Active {
        /// Output port of the current packet.
        out_port: usize,
        /// Output VC held (0 for wormhole).
        out_vc: usize,
        /// First cycle the head may bid for the switch (VC router), or
        /// first cycle flits may flow (wormhole `flow_start`).
        sa_request_at: u64,
        /// Packet that owns this channel, for integrity checking.
        packet: PacketId,
    },
}

/// One input virtual channel: the channel state machine plus the ring it
/// buffers flits in. A thin view — the flit queue itself is a window
/// into the router's [`crate::arena::FlitArena`].
#[derive(Debug, Clone, Copy)]
pub struct InputVc {
    /// Channel state.
    pub state: VcState,
    /// Index of this channel's ring in the router's arena
    /// (`port * vcs + vc`).
    ring: usize,
}

impl InputVc {
    /// Creates an idle channel viewing arena ring `ring`.
    #[must_use]
    pub fn new(ring: usize) -> Self {
        InputVc {
            state: VcState::Idle,
            ring,
        }
    }

    /// The arena ring this channel buffers flits in.
    #[must_use]
    pub fn ring(&self) -> usize {
        self.ring
    }
}

impl fmt::Display for InputVc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "InputVc(ring {}, {:?})", self.ring, self.state)
    }
}

/// Output-side state of one port: downstream credit counters, output-VC
/// ownership (`outvc_state` in the paper, as a free-VC mask), and the
/// wormhole hold.
#[derive(Debug, Clone)]
pub struct OutputPort {
    credits: Vec<u64>,
    credit_cap: Vec<u64>,
    /// Unowned output VCs (bit `i` = VC `i` is free). The owning input
    /// channel of a claimed VC is the one whose state is `Active` on it.
    free: u64,
    /// Which input port holds this output (wormhole only).
    pub holder: Option<usize>,
    sink: bool,
}

impl OutputPort {
    /// Creates an output port with `vcs` downstream VCs, zero credits
    /// until [`OutputPort::set_credits`] is called.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` does not fit the one-word free-VC mask (64).
    #[must_use]
    pub fn new(vcs: usize) -> Self {
        assert!(
            vcs <= MAX_REQUESTORS,
            "an output port has at most {MAX_REQUESTORS} VCs, got {vcs}"
        );
        OutputPort {
            credits: vec![0; vcs],
            credit_cap: vec![0; vcs],
            free: low_bits(vcs),
            holder: None,
            sink: false,
        }
    }

    /// Initializes every downstream VC with `per_vc` credits (the depth of
    /// the next router's input buffers).
    pub fn set_credits(&mut self, per_vc: u64) {
        self.credits.iter_mut().for_each(|c| *c = per_vc);
        self.credit_cap.iter_mut().for_each(|c| *c = per_vc);
    }

    /// Marks this port as an ejection (sink) port with unbounded
    /// downstream buffering ("immediate ejection" in the paper).
    pub fn mark_sink(&mut self) {
        self.sink = true;
    }

    /// Whether this is an ejection port.
    #[must_use]
    pub fn is_sink(&self) -> bool {
        self.sink
    }

    /// Whether a flit may be sent on downstream VC `vc`.
    #[must_use]
    pub fn has_credit(&self, vc: usize) -> bool {
        self.sink || self.credits[vc] > 0
    }

    /// Current credit count for downstream VC `vc` (meaningless for
    /// sinks).
    #[must_use]
    pub fn credit_count(&self, vc: usize) -> u64 {
        self.credits[vc]
    }

    /// Consumes one credit at switch-allocation/traversal time.
    ///
    /// # Panics
    ///
    /// Panics if no credit is available (the allocator must check first).
    pub fn consume_credit(&mut self, vc: usize) {
        if self.sink {
            return;
        }
        assert!(
            self.credits[vc] > 0,
            "consuming credit below zero on vc {vc}"
        );
        self.credits[vc] -= 1;
    }

    /// Returns one credit (a downstream buffer was freed).
    ///
    /// # Panics
    ///
    /// Panics if the counter would exceed the downstream buffer depth —
    /// that means a duplicated credit.
    pub fn return_credit(&mut self, vc: usize) {
        assert!(
            self.credits[vc] < self.credit_cap[vc],
            "credit overflow on vc {vc}: duplicate credit"
        );
        self.credits[vc] += 1;
    }

    /// The free (unowned) output VCs as a mask (bit `i` = VC `i`) — the
    /// VC allocator's request rows are built from it every cycle.
    #[inline]
    #[must_use]
    pub fn free_vcs(&self) -> u64 {
        self.free
    }

    /// Marks output VC `vc` owned (a VC-allocation grant).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `vc` is already owned.
    #[inline]
    pub fn claim(&mut self, vc: usize) {
        debug_assert!(self.free >> vc & 1 == 1, "output vc {vc} claimed twice");
        self.free &= !(1 << vc);
    }

    /// Frees output VC `vc` (its packet's tail left).
    #[inline]
    pub fn release(&mut self, vc: usize) {
        self.free |= 1 << vc;
    }
}

impl fmt::Display for OutputPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "OutputPort(credits={:?}, free={:#b}, sink={}, holder={:?})",
            self.credits, self.free, self.sink, self.holder
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_vc_starts_idle_and_remembers_its_ring() {
        let vc = InputVc::new(7);
        assert_eq!(vc.state, VcState::Idle);
        assert_eq!(vc.ring(), 7);
        assert!(vc.to_string().contains("ring 7"));
    }

    #[test]
    fn credits_consume_and_return() {
        let mut out = OutputPort::new(2);
        out.set_credits(3);
        assert!(out.has_credit(0));
        out.consume_credit(0);
        out.consume_credit(0);
        out.consume_credit(0);
        assert!(!out.has_credit(0));
        assert!(out.has_credit(1));
        out.return_credit(0);
        assert!(out.has_credit(0));
        assert_eq!(out.credit_count(0), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate credit")]
    fn credit_overflow_panics() {
        let mut out = OutputPort::new(1);
        out.set_credits(2);
        out.return_credit(0);
    }

    #[test]
    #[should_panic(expected = "below zero")]
    fn credit_underflow_panics() {
        let mut out = OutputPort::new(1);
        out.set_credits(0);
        out.consume_credit(0);
    }

    #[test]
    fn sinks_have_infinite_credit() {
        let mut out = OutputPort::new(1);
        out.mark_sink();
        assert!(out.has_credit(0));
        for _ in 0..100 {
            out.consume_credit(0);
        }
        assert!(out.has_credit(0));
    }

    #[test]
    fn free_vcs_tracks_ownership() {
        let mut out = OutputPort::new(3);
        assert_eq!(out.free_vcs(), 0b111);
        out.claim(1);
        assert_eq!(out.free_vcs(), 0b101);
        out.release(1);
        assert_eq!(out.free_vcs(), 0b111);
        assert_eq!(OutputPort::new(64).free_vcs(), u64::MAX);
    }
}
