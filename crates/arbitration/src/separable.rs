//! A two-stage separable allocator (paper Figures 7–8).
//!
//! Matches requests from `n_in` inputs for `n_out` resources such that
//! each input receives at most one resource and each resource is granted
//! to at most one input per allocation:
//!
//! * **Stage 1** — a per-input arbiter selects one of the input's
//!   requested resources (round-robin over resources, modeling the
//!   `v:1` candidate-selection arbiters of Figure 8).
//! * **Stage 2** — a per-resource matrix arbiter picks one surviving
//!   input (the `p·v:1` arbiters of Figure 8).
//!
//! Priorities are updated only for grants that stand, so losing a cycle
//! does not cost an input its priority. Separable allocation trades a
//! little matching efficiency for single-cycle implementability — exactly
//! the trade the paper's §3.2 describes.
//!
//! Requests are bit masks, as in the circuit: each input presents one
//! request row over the resources, and stage 1 turns the rows into one
//! contender mask per resource over the inputs. Both dimensions are
//! therefore at most [`MAX_REQUESTORS`] wide.

use crate::mask::{low_bits, Bits, MAX_REQUESTORS};
use crate::matrix::MatrixArbiter;
use crate::round_robin::RoundRobinArbiter;
use std::fmt;

/// A granted `(input, resource)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Grant {
    /// The winning input.
    pub input: usize,
    /// The resource it was granted.
    pub resource: usize,
}

/// A separable `n_in × n_out` allocator with persistent arbiter state.
#[derive(Debug, Clone)]
pub struct SeparableAllocator {
    stage1: Vec<RoundRobinArbiter>,
    stage2: Vec<MatrixArbiter>,
    /// Per-input request rows over resources, filled from request pairs
    /// by [`SeparableAllocator::allocate_into`]; all zero between calls.
    req_rows: Box<[u64]>,
    /// Per-resource masks of the inputs whose stage-1 arbiter chose it;
    /// all zero between calls.
    contenders: Box<[u64]>,
}

impl SeparableAllocator {
    /// Creates an allocator for `n_in` inputs and `n_out` resources.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or exceeds `MAX_REQUESTORS`.
    #[must_use]
    pub fn new(n_in: usize, n_out: usize) -> Self {
        assert!(
            n_in > 0 && n_out > 0,
            "allocator dimensions must be positive"
        );
        assert!(
            n_in <= MAX_REQUESTORS && n_out <= MAX_REQUESTORS,
            "allocator dimensions must be at most {MAX_REQUESTORS}, got {n_in}x{n_out}"
        );
        SeparableAllocator {
            stage1: (0..n_in).map(|_| RoundRobinArbiter::new(n_out)).collect(),
            stage2: (0..n_out).map(|_| MatrixArbiter::new(n_in)).collect(),
            req_rows: vec![0; n_in].into_boxed_slice(),
            contenders: vec![0; n_out].into_boxed_slice(),
        }
    }

    /// Number of inputs.
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.stage1.len()
    }

    /// Number of resources.
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.stage2.len()
    }

    /// Performs one allocation. `requests` lists `(input, resource)`
    /// pairs; duplicates are harmless. Returns the grants, at most one per
    /// input and one per resource.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn allocate(&mut self, requests: &[(usize, usize)]) -> Vec<Grant> {
        let mut grants = Vec::new();
        self.allocate_into(requests, &mut grants);
        grants
    }

    /// [`SeparableAllocator::allocate`] into a caller-provided buffer
    /// (cleared first): packs the pairs into request rows and defers to
    /// [`SeparableAllocator::allocate_masks`]. A steady-state call
    /// performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn allocate_into(&mut self, requests: &[(usize, usize)], grants: &mut Vec<Grant>) {
        let (n_in, n_out) = (self.inputs(), self.outputs());
        let mut inputs = 0u64;
        for &(i, r) in requests {
            assert!(i < n_in, "input {i} out of range {n_in}");
            assert!(r < n_out, "resource {r} out of range {n_out}");
            self.req_rows[i] |= 1 << r;
            inputs |= 1 << i;
        }
        let rows = std::mem::take(&mut self.req_rows);
        self.allocate_masks(inputs, |i| rows[i], grants);
        self.req_rows = rows;
        for i in Bits(inputs) {
            self.req_rows[i] = 0;
        }
    }

    /// One allocation over request masks: every input `i` set in `inputs`
    /// requests the resources set in `row(i)` (which may be empty).
    /// Grants are pushed into `grants` (cleared first) in ascending
    /// resource order, at most one per input and one per resource.
    ///
    /// Stage 1 visits the requesting inputs once, each picking one
    /// resource from its row and joining that resource's contender mask;
    /// stage 2 visits the chosen resources in ascending order, each
    /// granting one contender. Allocation-free — the router tick path
    /// calls this every cycle.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `inputs` or a row has a bit beyond the
    /// allocator's dimensions.
    #[inline]
    pub fn allocate_masks(
        &mut self,
        inputs: u64,
        row: impl Fn(usize) -> u64,
        grants: &mut Vec<Grant>,
    ) {
        grants.clear();
        debug_assert_eq!(
            inputs & !low_bits(self.inputs()),
            0,
            "input beyond allocator"
        );
        let mut chosen = 0u64;
        for i in Bits(inputs) {
            let req = row(i);
            debug_assert_eq!(
                req & !low_bits(self.outputs()),
                0,
                "resource beyond allocator"
            );
            if let Some(r) = self.stage1[i].peek_mask(req) {
                self.contenders[r] |= 1 << i;
                chosen |= 1 << r;
            }
        }
        for r in Bits(chosen) {
            let contenders = std::mem::take(&mut self.contenders[r]);
            if let Some(winner) = self.stage2[r].peek_mask(contenders) {
                self.stage2[r].demote(winner);
                self.stage1[winner].advance_past(r);
                grants.push(Grant {
                    input: winner,
                    resource: r,
                });
            }
        }
    }
}

impl fmt::Display for SeparableAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SeparableAllocator({}x{})",
            self.inputs(),
            self.outputs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn assert_valid(grants: &[Grant], requests: &[(usize, usize)]) {
        let req: HashSet<(usize, usize)> = requests.iter().copied().collect();
        let mut ins = HashSet::new();
        let mut outs = HashSet::new();
        for g in grants {
            assert!(req.contains(&(g.input, g.resource)), "grant not requested");
            assert!(ins.insert(g.input), "input granted twice");
            assert!(outs.insert(g.resource), "resource granted twice");
        }
    }

    #[test]
    fn disjoint_requests_all_granted() {
        let mut alloc = SeparableAllocator::new(4, 4);
        let reqs = [(0, 1), (1, 0), (2, 3), (3, 2)];
        let grants = alloc.allocate(&reqs);
        assert_eq!(grants.len(), 4);
        assert_valid(&grants, &reqs);
    }

    #[test]
    fn conflicting_requests_grant_exactly_one() {
        let mut alloc = SeparableAllocator::new(3, 3);
        let reqs = [(0, 0), (1, 0), (2, 0)];
        let grants = alloc.allocate(&reqs);
        assert_eq!(grants.len(), 1);
        assert_valid(&grants, &reqs);
    }

    #[test]
    fn conflict_rotates_over_time() {
        let mut alloc = SeparableAllocator::new(2, 1);
        let reqs = [(0, 0), (1, 0)];
        let first = alloc.allocate(&reqs)[0].input;
        let second = alloc.allocate(&reqs)[0].input;
        assert_ne!(first, second, "matrix arbiter must rotate the grant");
    }

    #[test]
    fn input_with_choices_takes_whatever_is_free() {
        let mut alloc = SeparableAllocator::new(2, 2);
        // Input 0 wants only resource 0; input 1 would take either.
        let reqs = [(0, 0), (1, 0), (1, 1)];
        let grants = alloc.allocate(&reqs);
        assert_valid(&grants, &reqs);
        // Separable allocation may not find the perfect matching every
        // cycle, but across two cycles both inputs must have been served.
        let grants2 = alloc.allocate(&reqs);
        assert_valid(&grants2, &reqs);
        let served: HashSet<usize> = grants
            .iter()
            .chain(grants2.iter())
            .map(|g| g.input)
            .collect();
        assert_eq!(served.len(), 2, "both inputs served within two cycles");
    }

    #[test]
    fn empty_requests_empty_grants() {
        let mut alloc = SeparableAllocator::new(3, 3);
        assert!(alloc.allocate(&[]).is_empty());
    }

    #[test]
    fn duplicate_requests_are_idempotent() {
        let mut alloc = SeparableAllocator::new(2, 2);
        let grants = alloc.allocate(&[(0, 1), (0, 1), (0, 1)]);
        assert_eq!(grants.len(), 1);
        assert_eq!(
            grants[0],
            Grant {
                input: 0,
                resource: 1
            }
        );
    }

    #[test]
    fn losing_does_not_lose_priority() {
        // Input 1 keeps losing resource 0 to input 0? No: matrix demotes
        // winners, so input 1 wins the second round.
        let mut alloc = SeparableAllocator::new(2, 1);
        assert_eq!(alloc.allocate(&[(0, 0), (1, 0)])[0].input, 0);
        assert_eq!(alloc.allocate(&[(0, 0), (1, 0)])[0].input, 1);
        assert_eq!(alloc.allocate(&[(0, 0), (1, 0)])[0].input, 0);
    }

    #[test]
    fn allocate_into_matches_allocate_across_rounds() {
        let mut a = SeparableAllocator::new(4, 4);
        let mut b = SeparableAllocator::new(4, 4);
        let mut buf = Vec::new();
        for round in 0..6 {
            let reqs = [(0, round % 4), (1, 0), (2, 3), (3, round % 2)];
            let grants = a.allocate(&reqs);
            b.allocate_into(&reqs, &mut buf);
            assert_eq!(grants, buf, "round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_request_rejected() {
        let mut alloc = SeparableAllocator::new(2, 2);
        let _ = alloc.allocate(&[(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_rejected() {
        let _ = SeparableAllocator::new(0, 3);
    }
}
