//! The matrix arbiter of the paper's Figure 10.
//!
//! An upper-triangular matrix of state bits records the pairwise priority
//! between every two requestors. A requestor is granted when it has
//! priority over every *other active* requestor; on a grant the winner's
//! priority is set lowest. Starting from a total order and always demoting
//! the winner to the bottom preserves a total order, so a winner always
//! exists and is unique — the arbiter is *strongly fair*
//! (least-recently-served).
//!
//! The matrix is stored as it is wired: one machine word per requestor
//! row, so an arbiter covers at most [`MAX_REQUESTORS`] requestors. A
//! grant is one mask test per active requestor and a demotion is one
//! store per row.

use crate::mask::{low_bits, pack, MAX_REQUESTORS};
use std::fmt;

/// A behavioral `n:1` matrix arbiter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixArbiter {
    /// One row per requestor: bit `j` of `beats[i]` is set when requestor
    /// `i` has priority over `j` (the diagonal bit is always clear).
    beats: Box<[u64]>,
}

impl MatrixArbiter {
    /// Creates an arbiter over `n` requestors. Initial priority is by
    /// index: requestor 0 highest.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > MAX_REQUESTORS`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "an arbiter needs at least one requestor");
        assert!(
            n <= MAX_REQUESTORS,
            "an arbiter covers at most {MAX_REQUESTORS} requestors, got {n}"
        );
        // Row i beats every higher index: the bits above i, within n.
        let all = low_bits(n);
        MatrixArbiter {
            beats: (0..n).map(|i| all & !low_bits(i + 1)).collect(),
        }
    }

    /// Number of requestors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.beats.len()
    }

    /// Always false: an arbiter has at least one requestor.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Performs one arbitration over the request vector and, if somebody
    /// wins, updates the priority matrix (winner demoted to lowest).
    ///
    /// Returns the winning requestor index, or `None` if no requests.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != self.len()`.
    pub fn arbitrate(&mut self, requests: &[bool]) -> Option<usize> {
        let winner = self.peek(requests)?;
        self.demote(winner);
        Some(winner)
    }

    /// Combinational arbitration: returns the winner without touching the
    /// priority state (the grant-enable path of the circuit; useful when a
    /// grant may later be cancelled, e.g. failed speculation). Packs
    /// `requests` and defers to [`MatrixArbiter::peek_mask`].
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != self.len()`.
    #[must_use]
    pub fn peek(&self, requests: &[bool]) -> Option<usize> {
        self.peek_mask(pack(requests, self.len()))
    }

    /// [`MatrixArbiter::peek`] over a request mask (bit `i` = requestor
    /// `i` requests): the requestor `i` whose row beats every other
    /// requestor, i.e. `req & !beats[i] == 1 << i`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `req` has a bit at or above `len()`.
    #[inline]
    #[must_use]
    pub fn peek_mask(&self, req: u64) -> Option<usize> {
        debug_assert_eq!(
            req & !low_bits(self.len()),
            0,
            "request beyond arbiter size"
        );
        let mut rest = req;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            if req & !self.beats[i] == 1 << i {
                return Some(i);
            }
            rest &= rest - 1;
        }
        None
    }

    /// Demotes `winner` to lowest priority (the `h` overhead path of the
    /// circuit): its row is cleared and its bit set in every other row.
    /// Exposed so callers using [`MatrixArbiter::peek`] can commit the
    /// update only for grants that stand.
    ///
    /// # Panics
    ///
    /// Panics if `winner >= self.len()`.
    #[inline]
    pub fn demote(&mut self, winner: usize) {
        let n = self.len();
        assert!(winner < n, "requestor {winner} out of range {n}");
        let bit = 1u64 << winner;
        for row in self.beats.iter_mut() {
            *row |= bit;
        }
        self.beats[winner] = 0;
        debug_assert!(self.is_total_order(), "matrix must remain a total order");
    }

    /// Whether `i` currently has priority over `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range.
    #[must_use]
    pub fn has_priority(&self, i: usize, j: usize) -> bool {
        assert!(
            i != j,
            "priority between a requestor and itself is undefined"
        );
        assert!(i < self.len() && j < self.len(), "index out of range");
        self.beats[i] >> j & 1 == 1
    }

    /// Invariant check: the matrix encodes a strict total order
    /// (antisymmetric and, via the demote-only update rule, transitive).
    ///
    /// Allocation-free — it runs inside a `debug_assert!` on the grant
    /// path, and the hot tick must not allocate even in debug builds.
    #[must_use]
    pub fn is_total_order(&self) -> bool {
        let n = self.len();
        let all = low_bits(n);
        // Antisymmetry and totality: `i` beats exactly the other
        // requestors that do not beat it. A strict total order on a finite
        // set then has exactly one element beating k others for each k in
        // 0..n, so the win counts must be pairwise distinct.
        let mut counts = 0u64;
        for (i, &row) in self.beats.iter().enumerate() {
            let beaten_by = (0..n).fold(0u64, |m, j| m | (self.beats[j] >> i & 1) << j);
            if row != all & !beaten_by & !(1 << i) {
                return false;
            }
            let bit = 1u64 << row.count_ones();
            if counts & bit != 0 {
                return false;
            }
            counts |= bit;
        }
        true
    }

    /// The current priority ranking, highest first (diagnostic).
    #[must_use]
    pub fn ranking(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(self.beats[i].count_ones()));
        idx
    }
}

impl fmt::Display for MatrixArbiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MatrixArbiter(n={}, ranking={:?})",
            self.len(),
            self.ranking()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_requests_no_grant() {
        let mut arb = MatrixArbiter::new(3);
        assert_eq!(arb.arbitrate(&[false, false, false]), None);
    }

    #[test]
    fn sole_requestor_always_wins() {
        let mut arb = MatrixArbiter::new(4);
        for _ in 0..5 {
            assert_eq!(arb.arbitrate(&[false, false, true, false]), Some(2));
        }
    }

    #[test]
    fn winner_is_demoted() {
        let mut arb = MatrixArbiter::new(2);
        assert_eq!(arb.arbitrate(&[true, true]), Some(0));
        assert_eq!(arb.arbitrate(&[true, true]), Some(1));
        assert_eq!(arb.arbitrate(&[true, true]), Some(0));
    }

    #[test]
    fn round_robin_emerges_under_full_load() {
        let mut arb = MatrixArbiter::new(4);
        let all = [true; 4];
        let winners: Vec<_> = (0..8).map(|_| arb.arbitrate(&all).unwrap()).collect();
        assert_eq!(winners, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn strong_fairness_bound() {
        // A persistent requestor waits at most n−1 grants.
        let mut arb = MatrixArbiter::new(5);
        let all = [true; 5];
        // Demote 4 to make it initially lowest anyway; then count.
        arb.demote(4);
        let mut waited = 0;
        loop {
            let w = arb.arbitrate(&all).unwrap();
            if w == 4 {
                break;
            }
            waited += 1;
            assert!(waited < 5, "requestor 4 starved");
        }
    }

    #[test]
    fn peek_does_not_change_state() {
        let arb = MatrixArbiter::new(3);
        assert_eq!(arb.peek(&[true, true, false]), Some(0));
        assert_eq!(arb.peek(&[true, true, false]), Some(0));
    }

    #[test]
    fn total_order_invariant_after_random_demotes() {
        let mut arb = MatrixArbiter::new(6);
        for i in [3usize, 1, 5, 0, 0, 2, 4, 5, 1] {
            arb.demote(i);
            assert!(arb.is_total_order());
        }
    }

    #[test]
    fn ranking_reflects_demotions() {
        let mut arb = MatrixArbiter::new(3);
        assert_eq!(arb.ranking(), vec![0, 1, 2]);
        arb.demote(0);
        assert_eq!(arb.ranking(), vec![1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "request vector length")]
    fn wrong_request_length_rejected() {
        let mut arb = MatrixArbiter::new(3);
        let _ = arb.arbitrate(&[true, false]);
    }

    #[test]
    #[should_panic(expected = "at least one requestor")]
    fn zero_requestors_rejected() {
        let _ = MatrixArbiter::new(0);
    }
}
