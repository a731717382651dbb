//! Router configuration and pipeline timing presets.

use std::fmt;

/// The most input channels (`ports × vcs`) one router may have: each
/// channel is one bit of the router's one-word channel-state and request
/// masks, and the VC allocator is a `channels × channels` separable
/// allocator over such masks.
pub const MAX_CHANNELS: usize = arbitration::mask::MAX_REQUESTORS;

/// Which flow-control method (and hence microarchitecture) a router uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowControlKind {
    /// Wormhole: one queue per input port, switch held per packet.
    Wormhole,
    /// Virtual cut-through: like wormhole, but a packet advances only
    /// when the downstream buffer can hold it entirely (related-work
    /// baseline; Miller & Najjar's extension of Chien's model).
    VirtualCutThrough,
    /// Virtual-channel: per-VC queues, serial VA → SA for head flits.
    VirtualChannel,
    /// Speculative virtual-channel: VA and SA in parallel for head flits,
    /// non-speculative requests prioritized.
    SpeculativeVc,
}

impl fmt::Display for FlowControlKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowControlKind::Wormhole => write!(f, "WH"),
            FlowControlKind::VirtualCutThrough => write!(f, "VCT"),
            FlowControlKind::VirtualChannel => write!(f, "VC"),
            FlowControlKind::SpeculativeVc => write!(f, "specVC"),
        }
    }
}

/// Pipeline timing of a router, in cycles.
///
/// The presets encode the stage structures prescribed by the delay model
/// (`delay-model` crate) at the paper's 20 τ4 clock; the `single_cycle`
/// preset models the "unit latency" router of the paper's §5.2.
///
/// Calibration (paper §5.1–5.2, Figure 16): with 1-cycle links these
/// presets give per-hop head latencies of 3 / 4 / 3 / 1 cycles and credit
/// turnaround times of 4 / 5 / 4 / 2 cycles for WH / VC / specVC /
/// single-cycle respectively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Cycles from head-flit delivery until it may bid for VA (VC router),
    /// VA∥SA (speculative), or SA (wormhole): the route-compute stage.
    pub rc_delay: u64,
    /// Cycles from a VA grant until the head may bid for the switch
    /// (non-speculative VC router only).
    pub va_sa_delay: u64,
    /// Cycles from a body/tail flit's delivery until it may bid for the
    /// switch (buffer-write + stage alignment bubbles).
    pub body_sa_delay: u64,
    /// Cycles from an SA grant to the switch traversal itself.
    pub st_delay: u64,
}

impl Timing {
    /// Model-prescribed pipelined timing for the given flow control.
    #[must_use]
    pub fn pipelined(kind: FlowControlKind) -> Self {
        match kind {
            // RC | SA | ST — 3 stages (cut-through admission does not
            // change the pipeline, only the switch-arbiter predicate).
            FlowControlKind::Wormhole | FlowControlKind::VirtualCutThrough => Timing {
                rc_delay: 1,
                va_sa_delay: 0, // no VA stage
                body_sa_delay: 1,
                st_delay: 1,
            },
            // RC | VA | SA | ST — 4 stages; body flits ride the VA bubble.
            FlowControlKind::VirtualChannel => Timing {
                rc_delay: 1,
                va_sa_delay: 1,
                body_sa_delay: 2,
                st_delay: 1,
            },
            // RC | VA∥SA | ST — 3 stages.
            FlowControlKind::SpeculativeVc => Timing {
                rc_delay: 1,
                va_sa_delay: 1, // used only after failed speculation
                body_sa_delay: 1,
                st_delay: 1,
            },
        }
    }

    /// The "unit latency" router of §5.2: every function in one cycle.
    #[must_use]
    pub fn single_cycle() -> Self {
        Timing {
            rc_delay: 0,
            va_sa_delay: 0,
            body_sa_delay: 0,
            st_delay: 0,
        }
    }

    /// Per-hop head latency through an unloaded router, in cycles
    /// (pipeline stage count: arrival cycle through departure cycle,
    /// inclusive; excludes the link).
    #[must_use]
    pub fn head_latency(&self, kind: FlowControlKind) -> u64 {
        let va = if kind == FlowControlKind::VirtualChannel {
            self.va_sa_delay
        } else {
            0
        };
        self.rc_delay + va + self.st_delay + 1
    }

    fn validate(&self) {
        assert!(self.st_delay <= 1, "st_delay > 1 is not supported");
        assert!(self.rc_delay <= 4 && self.va_sa_delay <= 4 && self.body_sa_delay <= 8);
    }
}

/// Full configuration of one router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Flow-control method.
    pub kind: FlowControlKind,
    /// Number of ports (physical channels), including injection/ejection.
    pub ports: usize,
    /// Virtual channels per port (1 for wormhole).
    pub vcs: usize,
    /// Flit buffers per virtual channel.
    pub buffers_per_vc: usize,
    /// Pipeline timing.
    pub timing: Timing,
}

impl RouterConfig {
    /// A pipelined wormhole router: `ports` ports, one queue of
    /// `buffers` flits per port.
    ///
    /// # Panics
    ///
    /// Panics on degenerate dimensions.
    #[must_use]
    pub fn wormhole(ports: usize, buffers: usize) -> Self {
        let cfg = RouterConfig {
            kind: FlowControlKind::Wormhole,
            ports,
            vcs: 1,
            buffers_per_vc: buffers,
            timing: Timing::pipelined(FlowControlKind::Wormhole),
        };
        cfg.validate();
        cfg
    }

    /// A pipelined non-speculative VC router with `vcs` VCs of
    /// `buffers_per_vc` flits each per port.
    ///
    /// # Panics
    ///
    /// Panics on degenerate dimensions.
    #[must_use]
    pub fn virtual_channel(ports: usize, vcs: usize, buffers_per_vc: usize) -> Self {
        let cfg = RouterConfig {
            kind: FlowControlKind::VirtualChannel,
            ports,
            vcs,
            buffers_per_vc,
            timing: Timing::pipelined(FlowControlKind::VirtualChannel),
        };
        cfg.validate();
        cfg
    }

    /// A pipelined virtual cut-through router: `ports` ports, one queue
    /// of `buffers` flits per port; packets advance only into buffers
    /// with room for the whole packet.
    ///
    /// # Panics
    ///
    /// Panics on degenerate dimensions.
    #[must_use]
    pub fn virtual_cut_through(ports: usize, buffers: usize) -> Self {
        let cfg = RouterConfig {
            kind: FlowControlKind::VirtualCutThrough,
            ports,
            vcs: 1,
            buffers_per_vc: buffers,
            timing: Timing::pipelined(FlowControlKind::VirtualCutThrough),
        };
        cfg.validate();
        cfg
    }

    /// A pipelined speculative VC router.
    ///
    /// # Panics
    ///
    /// Panics on degenerate dimensions.
    #[must_use]
    pub fn speculative(ports: usize, vcs: usize, buffers_per_vc: usize) -> Self {
        let cfg = RouterConfig {
            kind: FlowControlKind::SpeculativeVc,
            ports,
            vcs,
            buffers_per_vc,
            timing: Timing::pipelined(FlowControlKind::SpeculativeVc),
        };
        cfg.validate();
        cfg
    }

    /// Converts this configuration to the single-cycle ("unit latency")
    /// timing of the paper's §5.2 baseline, keeping everything else.
    #[must_use]
    pub fn into_single_cycle(mut self) -> Self {
        self.timing = Timing::single_cycle();
        self
    }

    /// Total flit buffers per input port.
    #[must_use]
    pub fn buffers_per_port(&self) -> usize {
        self.vcs * self.buffers_per_vc
    }

    fn validate(&self) {
        assert!(self.ports >= 2, "need at least 2 ports, got {}", self.ports);
        assert!(self.vcs >= 1, "need at least 1 VC, got {}", self.vcs);
        assert!(
            !matches!(
                self.kind,
                FlowControlKind::Wormhole | FlowControlKind::VirtualCutThrough
            ) || self.vcs == 1,
            "wormhole and cut-through routers have exactly one VC per port"
        );
        assert!(
            self.buffers_per_vc >= 1,
            "need at least 1 buffer per VC, got {}",
            self.buffers_per_vc
        );
        assert!(
            self.ports.saturating_mul(self.vcs) <= MAX_CHANNELS,
            "a router has at most {MAX_CHANNELS} channels (ports × VCs), got {} × {}",
            self.ports,
            self.vcs
        );
        self.timing.validate();
    }
}

impl fmt::Display for RouterConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (p={}, v={}, {} bufs/vc)",
            self.kind, self.ports, self.vcs, self.buffers_per_vc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_presets_match_model_depths() {
        let wh = Timing::pipelined(FlowControlKind::Wormhole);
        assert_eq!((wh.rc_delay, wh.body_sa_delay, wh.st_delay), (1, 1, 1));
        let vc = Timing::pipelined(FlowControlKind::VirtualChannel);
        assert_eq!(vc.va_sa_delay, 1);
        assert_eq!(vc.body_sa_delay, 2);
        let spec = Timing::pipelined(FlowControlKind::SpeculativeVc);
        assert_eq!(spec.body_sa_delay, 1);
    }

    #[test]
    fn head_latency_matches_stage_counts() {
        for (kind, stages) in [
            (FlowControlKind::Wormhole, 3),
            (FlowControlKind::VirtualChannel, 4),
            (FlowControlKind::SpeculativeVc, 3),
        ] {
            assert_eq!(Timing::pipelined(kind).head_latency(kind), stages, "{kind}");
            assert_eq!(Timing::single_cycle().head_latency(kind), 1, "{kind}");
        }
    }

    #[test]
    fn single_cycle_is_all_zero() {
        let t = Timing::single_cycle();
        assert_eq!(
            (t.rc_delay, t.va_sa_delay, t.body_sa_delay, t.st_delay),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn constructors_set_kind() {
        assert_eq!(RouterConfig::wormhole(5, 8).kind, FlowControlKind::Wormhole);
        assert_eq!(
            RouterConfig::virtual_channel(5, 2, 4).kind,
            FlowControlKind::VirtualChannel
        );
        assert_eq!(
            RouterConfig::speculative(5, 2, 4).kind,
            FlowControlKind::SpeculativeVc
        );
    }

    #[test]
    fn buffers_per_port_multiplies() {
        assert_eq!(RouterConfig::virtual_channel(5, 2, 4).buffers_per_port(), 8);
        assert_eq!(RouterConfig::wormhole(5, 8).buffers_per_port(), 8);
    }

    #[test]
    fn single_cycle_conversion_keeps_shape() {
        let cfg = RouterConfig::virtual_channel(5, 2, 4).into_single_cycle();
        assert_eq!(cfg.kind, FlowControlKind::VirtualChannel);
        assert_eq!(cfg.timing, Timing::single_cycle());
        assert_eq!(cfg.vcs, 2);
    }

    #[test]
    #[should_panic(expected = "exactly one VC")]
    fn wormhole_with_vcs_rejected() {
        let cfg = RouterConfig {
            kind: FlowControlKind::Wormhole,
            ports: 5,
            vcs: 2,
            buffers_per_vc: 4,
            timing: Timing::pipelined(FlowControlKind::Wormhole),
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "at least 2 ports")]
    fn one_port_rejected() {
        let _ = RouterConfig::wormhole(1, 8);
    }

    #[test]
    fn one_word_of_channels_is_accepted() {
        assert_eq!(RouterConfig::speculative(8, 8, 4).ports * 8, MAX_CHANNELS);
        let _ = RouterConfig::virtual_channel(2, 32, 4);
        let _ = RouterConfig::wormhole(64, 8);
    }

    #[test]
    #[should_panic(expected = "at most 64 channels (ports × VCs), got 5 × 13")]
    fn sixty_five_channels_rejected() {
        let _ = RouterConfig::speculative(5, 13, 4);
    }
}
