//! Canonical router pipelines (paper Figures 2–4, 11).
//!
//! For each flow-control method this module lists the atomic modules on
//! the critical path in dependency order and packs them with EQ 1.

use crate::equations;
use crate::module::{AtomicModule, ModuleDelay, ModuleKind};
use crate::params::RouterParams;
use crate::pipeline::{OverheadPolicy, Pipeline};
use crate::FlowControl;
use logical_effort::Tau;

/// The atomic modules on the critical path of a router with the given flow
/// control, in dependency order (paper Figure 4).
///
/// Route/decode is a black box taking one full cycle (footnote 2); the
/// crossbar is pinned to one full cycle to absorb wire delay (§3.2).
#[must_use]
pub fn critical_path(fc: FlowControl, params: &RouterParams) -> Vec<AtomicModule> {
    let full_cycle = ModuleDelay::new(params.clk, Tau::zero());
    let rt = AtomicModule::new(ModuleKind::RouteDecode, full_cycle);
    let xb = AtomicModule::new(ModuleKind::Crossbar, full_cycle);
    match fc {
        FlowControl::Wormhole => vec![
            rt,
            AtomicModule::new(ModuleKind::SwitchArbiter, equations::switch_arbiter(params)),
            xb,
        ],
        FlowControl::VirtualChannel(r) => vec![
            rt,
            AtomicModule::new(ModuleKind::VcAllocator, equations::vc_allocator(r, params)),
            AtomicModule::new(
                ModuleKind::SwitchAllocator,
                equations::switch_allocator(params),
            ),
            xb,
        ],
        FlowControl::SpeculativeVirtualChannel(r) => vec![
            rt,
            AtomicModule::new(
                ModuleKind::CombinedVaSa,
                equations::combined_va_sa_packing(r, params),
            ),
            xb,
        ],
    }
}

/// The model-prescribed pipeline for a router, using the literal EQ-1
/// (strict) packing policy; see [`pipeline_with_policy`].
#[must_use]
pub fn pipeline(fc: FlowControl, params: &RouterParams) -> Pipeline {
    pipeline_with_policy(fc, params, OverheadPolicy::Strict)
}

/// The model-prescribed pipeline under an explicit overhead policy.
///
/// With [`OverheadPolicy::Strict`] (default, EQ 1 as written) the paper's
/// prose claims hold: a wormhole router packs into 3 stages, a
/// non-speculative VC router into 4 for practical VC counts, and a
/// speculative VC router back into 3 for up to 16 VCs.
#[must_use]
pub fn pipeline_with_policy(
    fc: FlowControl,
    params: &RouterParams,
    policy: OverheadPolicy,
) -> Pipeline {
    Pipeline::pack(&critical_path(fc, params), params, policy)
}

/// Per-hop router latency in cycles: the packed pipeline depth.
#[must_use]
pub fn per_hop_cycles(fc: FlowControl, params: &RouterParams) -> u32 {
    pipeline(fc, params).depth()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingFunction as R;

    #[test]
    fn wormhole_is_three_stages() {
        let p = pipeline(FlowControl::Wormhole, &RouterParams::paper_default());
        assert_eq!(p.depth(), 3);
        assert_eq!(p.stage_of(ModuleKind::RouteDecode), Some(0));
        assert_eq!(p.stage_of(ModuleKind::SwitchArbiter), Some(1));
        assert_eq!(p.stage_of(ModuleKind::Crossbar), Some(2));
    }

    #[test]
    fn vc_router_is_four_stages_at_paper_default() {
        for r in R::ALL {
            let p = pipeline(
                FlowControl::VirtualChannel(r),
                &RouterParams::paper_default(),
            );
            assert_eq!(p.depth(), 4, "VC router with {r:?} at p=5, v=2");
        }
    }

    #[test]
    fn spec_router_is_three_stages_at_paper_default() {
        for r in R::ALL {
            let p = pipeline(
                FlowControl::SpeculativeVirtualChannel(r),
                &RouterParams::paper_default(),
            );
            assert_eq!(p.depth(), 3, "spec VC router with {r:?} at p=5, v=2");
        }
    }

    /// Paper §4: "a speculative virtual-channel router with up to 16
    /// virtual channels per physical channel (for 5 and 7 physical
    /// channels) fits within a 3-stage pipeline" (Rv routing function).
    #[test]
    fn spec_router_three_stages_up_to_16_vcs() {
        for p in [5u32, 7] {
            for v in [2u32, 4, 8, 16] {
                let params = RouterParams::with_channels(p, v);
                let pipe = pipeline(FlowControl::SpeculativeVirtualChannel(R::Rv), &params);
                assert_eq!(pipe.depth(), 3, "spec router at p={p}, v={v}");
            }
            let params = RouterParams::with_channels(p, 32);
            let pipe = pipeline(FlowControl::SpeculativeVirtualChannel(R::Rv), &params);
            assert!(pipe.depth() > 3, "32 VCs must not fit 3 stages (p={p})");
        }
    }

    /// Paper §4: with Rp→ (the most general range possible for a
    /// deterministic router) a VC router keeps 4 stages up to 8 VCs at
    /// p = 5. (At p = 7, v = 8 our reconstructed Rp coefficients overflow
    /// the cycle by 2.5 τ — within the model's ±2 τ4 validation band.)
    #[test]
    fn vc_router_four_stages_up_to_8_vcs_with_rp() {
        for v in [2u32, 4, 8] {
            let params = RouterParams::with_channels(5, v);
            let pipe = pipeline(FlowControl::VirtualChannel(R::Rp), &params);
            assert_eq!(pipe.depth(), 4, "VC router (Rp) at p=5, v={v}");
        }
        for v in [2u32, 4] {
            let params = RouterParams::with_channels(7, v);
            let pipe = pipeline(FlowControl::VirtualChannel(R::Rp), &params);
            assert_eq!(pipe.depth(), 4, "VC router (Rp) at p=7, v={v}");
        }
    }

    #[test]
    fn vc_router_never_shallower_than_spec() {
        for p in [5u32, 7] {
            for v in [2u32, 4, 8, 16, 32] {
                let params = RouterParams::with_channels(p, v);
                for r in R::ALL {
                    let vc = pipeline(FlowControl::VirtualChannel(r), &params).depth();
                    let spec = pipeline(FlowControl::SpeculativeVirtualChannel(r), &params).depth();
                    assert!(
                        vc > spec,
                        "VC must be deeper than spec at p={p}, v={v}, {r:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn wormhole_path_has_no_vc_modules() {
        let path = critical_path(FlowControl::Wormhole, &RouterParams::paper_default());
        assert!(path.iter().all(|m| !matches!(
            m.kind,
            ModuleKind::VcAllocator | ModuleKind::SwitchAllocator | ModuleKind::CombinedVaSa
        )));
    }

    #[test]
    fn strict_policy_is_never_shallower() {
        for p in [5u32, 7] {
            for v in [2u32, 8, 32] {
                let params = RouterParams::with_channels(p, v);
                for fc in [
                    FlowControl::Wormhole,
                    FlowControl::VirtualChannel(R::Rpv),
                    FlowControl::SpeculativeVirtualChannel(R::Rv),
                ] {
                    let strict = pipeline_with_policy(fc, &params, OverheadPolicy::Strict).depth();
                    let overlapped =
                        pipeline_with_policy(fc, &params, OverheadPolicy::Overlapped).depth();
                    assert!(strict >= overlapped);
                }
            }
        }
    }

    #[test]
    fn per_hop_cycles_matches_pipeline_depth() {
        let params = RouterParams::paper_default();
        assert_eq!(per_hop_cycles(FlowControl::Wormhole, &params), 3);
        assert_eq!(
            per_hop_cycles(FlowControl::VirtualChannel(R::Rpv), &params),
            4
        );
        assert_eq!(
            per_hop_cycles(FlowControl::SpeculativeVirtualChannel(R::Rv), &params),
            3
        );
    }
}
