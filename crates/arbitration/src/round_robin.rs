//! A rotating-pointer (round-robin) arbiter.
//!
//! Used where the paper does not prescribe matrix priority: candidate
//! output-VC selection in the VC allocator's first stage and virtual
//! channel selection in the network interface. Weakly fair: a persistent
//! requestor is served within `n` grants.
//!
//! Like the matrix arbiter it covers at most [`MAX_REQUESTORS`]
//! requestors, one bit each of a request mask.

use crate::mask::{low_bits, pack, MAX_REQUESTORS};
use std::fmt;

/// A behavioral `n:1` round-robin arbiter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobinArbiter {
    n: usize,
    next: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `n` requestors, pointer at 0.
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
        RoundRobinArbiter { n, next: 0 }
    }

    /// Number of requestors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false: an arbiter has at least one requestor.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The index the pointer currently favors.
    #[must_use]
    pub fn pointer(&self) -> usize {
        self.next
    }

    /// Grants the first requestor at or after the pointer, advancing the
    /// pointer past the winner.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != self.len()`.
    pub fn arbitrate(&mut self, requests: &[bool]) -> Option<usize> {
        let winner = self.peek(requests)?;
        self.next = (winner + 1) % self.n;
        Some(winner)
    }

    /// Combinational arbitration without pointer update. Packs
    /// `requests` and defers to [`RoundRobinArbiter::peek_mask`].
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != self.len()`.
    #[must_use]
    pub fn peek(&self, requests: &[bool]) -> Option<usize> {
        self.peek_mask(pack(requests, self.n))
    }

    /// [`RoundRobinArbiter::peek`] over a request mask (bit `i` =
    /// requestor `i` requests): the lowest requestor at or after the
    /// pointer, else the lowest one before it.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `req` has a bit at or above `len()`.
    #[inline]
    #[must_use]
    pub fn peek_mask(&self, req: u64) -> Option<usize> {
        debug_assert_eq!(req & !low_bits(self.n), 0, "request beyond arbiter size");
        if req == 0 {
            return None;
        }
        let ahead = req >> self.next;
        Some(if ahead != 0 {
            self.next + ahead.trailing_zeros() as usize
        } else {
            req.trailing_zeros() as usize
        })
    }

    /// Advances the pointer past `winner` (commit of a peeked grant).
    ///
    /// # Panics
    ///
    /// Panics if `winner >= self.len()`.
    pub fn advance_past(&mut self, winner: usize) {
        assert!(
            winner < self.n,
            "requestor {winner} out of range {}",
            self.n
        );
        self.next = (winner + 1) % self.n;
    }
}

impl fmt::Display for RoundRobinArbiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RoundRobinArbiter(n={}, next={})", self.n, self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotates_under_full_load() {
        let mut arb = RoundRobinArbiter::new(3);
        let all = [true; 3];
        let winners: Vec<_> = (0..6).map(|_| arb.arbitrate(&all).unwrap()).collect();
        assert_eq!(winners, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn skips_idle_requestors() {
        let mut arb = RoundRobinArbiter::new(4);
        assert_eq!(arb.arbitrate(&[false, false, true, false]), Some(2));
        assert_eq!(arb.pointer(), 3);
        assert_eq!(arb.arbitrate(&[true, false, false, false]), Some(0));
    }

    #[test]
    fn no_requests_keeps_pointer() {
        let mut arb = RoundRobinArbiter::new(2);
        assert_eq!(arb.arbitrate(&[false, false]), None);
        assert_eq!(arb.pointer(), 0);
    }

    #[test]
    fn peek_then_commit_matches_arbitrate() {
        let mut a = RoundRobinArbiter::new(4);
        let mut b = a.clone();
        let reqs = [false, true, true, false];
        let w = a.peek(&reqs).unwrap();
        a.advance_past(w);
        assert_eq!(Some(w), b.arbitrate(&reqs));
        assert_eq!(a, b);
    }

    #[test]
    fn fairness_bound_is_n() {
        let mut arb = RoundRobinArbiter::new(5);
        let all = [true; 5];
        let mut gap = 0;
        for i in 0..25 {
            let w = arb.arbitrate(&all).unwrap();
            if w == 3 {
                gap = 0;
            } else {
                gap += 1;
                assert!(gap < 5, "requestor 3 starved at round {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one requestor")]
    fn zero_requestors_rejected() {
        let _ = RoundRobinArbiter::new(0);
    }
}
