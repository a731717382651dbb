//! Behavioral arbiters and allocators for the Peh–Dally router simulator.
//!
//! The paper's routers are built from *matrix arbiters* (an upper
//! triangular matrix of flip-flops recording pairwise priority; a grant
//! demotes the winner to lowest priority — paper Figure 10) composed into
//! *separable allocators* (a first stage of per-input arbiters and a
//! second stage of per-output arbiters — paper Figures 7 and 8).
//!
//! This crate provides cycle-level behavioral models of those components:
//!
//! * [`MatrixArbiter`] — the paper's arbiter, with strong fairness
//!   (least-recently-served wins ties).
//! * [`RoundRobinArbiter`] — a rotating-pointer arbiter used where the
//!   paper does not prescribe matrix priority (e.g. candidate-VC selection
//!   in the network interface).
//! * [`SeparableAllocator`] — the two-stage request/grant allocator used
//!   for virtual-channel allocation.
//!
//! All three work on one-word request masks ([`mask`]), as the circuits
//! do on request wires, so each covers at most
//! [`MAX_REQUESTORS`](mask::MAX_REQUESTORS) requestors. The `&[bool]` and
//! request-pair entry points pack their arguments into masks.
//!
//! # Example
//!
//! ```
//! use arbitration::MatrixArbiter;
//!
//! let mut arb = MatrixArbiter::new(4);
//! // Requestors 1 and 3 compete; initial priority favors lower indices.
//! assert_eq!(arb.arbitrate(&[false, true, false, true]), Some(1));
//! // The winner is demoted: 3 wins the rematch.
//! assert_eq!(arb.arbitrate(&[false, true, false, true]), Some(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mask;
pub mod matrix;
pub mod round_robin;
pub mod separable;

pub use matrix::MatrixArbiter;
pub use round_robin::RoundRobinArbiter;
pub use separable::{Grant, SeparableAllocator};
