//! Reference equivalence: the one-word mask arbiters and allocator grant
//! exactly what the textbook `Vec<bool>` models grant.
//!
//! The models below are the straightforward O(n²) formulations — a full
//! `n × n` boolean priority matrix, a pointer scan, and a separable
//! allocator over boolean request matrices. They live only here, as the
//! specification the library's bit-parallel code is checked against over
//! random request sequences up to the full 64-requestor word.

use arbitration::mask::Bits;
use arbitration::{Grant, MatrixArbiter, RoundRobinArbiter, SeparableAllocator};
use proptest::prelude::*;

/// `beats[i * n + j]`: requestor `i` has priority over `j`.
#[derive(Debug, Clone)]
struct RefMatrix {
    n: usize,
    beats: Vec<bool>,
}

impl RefMatrix {
    fn new(n: usize) -> Self {
        let beats = (0..n * n).map(|k| k / n < k % n).collect();
        RefMatrix { n, beats }
    }

    fn peek(&self, req: &[bool]) -> Option<usize> {
        let n = self.n;
        (0..n).find(|&i| req[i] && (0..n).all(|j| j == i || !req[j] || self.beats[i * n + j]))
    }

    fn demote(&mut self, winner: usize) {
        let n = self.n;
        for j in (0..n).filter(|&j| j != winner) {
            self.beats[winner * n + j] = false;
            self.beats[j * n + winner] = true;
        }
    }

    fn ranking(&self) -> Vec<usize> {
        let n = self.n;
        let wins = |i: usize| (0..n).filter(|&j| j != i && self.beats[i * n + j]).count();
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(wins(i)));
        idx
    }
}

#[derive(Debug, Clone)]
struct RefRoundRobin {
    n: usize,
    next: usize,
}

impl RefRoundRobin {
    fn peek(&self, req: &[bool]) -> Option<usize> {
        (0..self.n)
            .map(|k| (self.next + k) % self.n)
            .find(|&i| req[i])
    }
}

#[derive(Debug, Clone)]
struct RefSeparable {
    n_in: usize,
    n_out: usize,
    stage1: Vec<RefRoundRobin>,
    stage2: Vec<RefMatrix>,
}

impl RefSeparable {
    fn new(n_in: usize, n_out: usize) -> Self {
        RefSeparable {
            n_in,
            n_out,
            stage1: vec![RefRoundRobin { n: n_out, next: 0 }; n_in],
            stage2: vec![RefMatrix::new(n_in); n_out],
        }
    }

    fn allocate(&mut self, requests: &[(usize, usize)]) -> Vec<Grant> {
        let mut req = vec![vec![false; self.n_out]; self.n_in];
        for &(i, r) in requests {
            req[i][r] = true;
        }
        let chosen: Vec<Option<usize>> = (0..self.n_in)
            .map(|i| self.stage1[i].peek(&req[i]))
            .collect();
        let mut grants = Vec::new();
        for r in 0..self.n_out {
            let contenders: Vec<bool> = chosen.iter().map(|&c| c == Some(r)).collect();
            if let Some(winner) = self.stage2[r].peek(&contenders) {
                self.stage2[r].demote(winner);
                self.stage1[winner].next = (r + 1) % self.n_out;
                grants.push(Grant {
                    input: winner,
                    resource: r,
                });
            }
        }
        grants
    }
}

/// A random `n`-bit request mask whose density depends on `shape`:
/// sparse, half, dense, or a single requestor.
fn request_mask(n: usize, a: u64, b: u64, shape: u8) -> u64 {
    let m = match shape % 4 {
        0 => a & b,
        1 => a,
        2 => a | b,
        _ => 1 << (a % n as u64),
    };
    m & (u64::MAX >> (64 - n))
}

fn unpack(mask: u64, n: usize) -> Vec<bool> {
    (0..n).map(|i| mask >> i & 1 == 1).collect()
}

/// Random `(input, resource)` request pairs for an `n_in × n_out`
/// allocator: each requesting input asks for one to three resources.
fn request_pairs(n_in: usize, n_out: usize, seeds: &[(u64, u64, u8)]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for &(a, b, shape) in seeds {
        let inputs = request_mask(n_in, a, b, shape);
        for i in Bits(inputs) {
            let k = a.rotate_left(i as u32) ^ b;
            for f in 0..=(shape as usize % 3) {
                pairs.push((i, (k >> (8 * f)) as usize % n_out));
            }
        }
    }
    pairs
}

/// Runs a matrix arbiter and the reference side by side, committing the
/// grant when `commit` says so (the router commits only standing grants).
fn matrix_matches_reference(n: usize, rounds: &[(u64, u64, u8, bool)]) {
    let mut arb = MatrixArbiter::new(n);
    let mut reference = RefMatrix::new(n);
    for (round, &(a, b, shape, commit)) in rounds.iter().enumerate() {
        let mask = request_mask(n, a, b, shape);
        let bools = unpack(mask, n);
        let want = reference.peek(&bools);
        assert_eq!(
            arb.peek_mask(mask),
            want,
            "n={n} round {round} mask {mask:#x}"
        );
        assert_eq!(arb.peek(&bools), want, "n={n} round {round} (packed)");
        if let (Some(w), true) = (want, commit) {
            arb.demote(w);
            reference.demote(w);
        }
        assert_eq!(arb.ranking(), reference.ranking(), "n={n} round {round}");
        assert!(arb.is_total_order());
    }
}

fn round_robin_matches_reference(n: usize, rounds: &[(u64, u64, u8, bool)]) {
    let mut arb = RoundRobinArbiter::new(n);
    let mut reference = RefRoundRobin { n, next: 0 };
    for (round, &(a, b, shape, commit)) in rounds.iter().enumerate() {
        let mask = request_mask(n, a, b, shape);
        let bools = unpack(mask, n);
        let want = reference.peek(&bools);
        assert_eq!(
            arb.peek_mask(mask),
            want,
            "n={n} round {round} mask {mask:#x}"
        );
        assert_eq!(arb.peek(&bools), want, "n={n} round {round} (packed)");
        if let (Some(w), true) = (want, commit) {
            arb.advance_past(w);
            reference.next = (w + 1) % n;
        }
        assert_eq!(arb.pointer(), reference.next, "n={n} round {round}");
    }
}

/// Drives the pair wrapper, the mask entry point and the reference with
/// the same requests; all three must grant the same pairs in the same
/// order every round.
fn separable_matches_reference(n_in: usize, n_out: usize, cycles: &[Vec<(u64, u64, u8)>]) {
    let mut pairs_alloc = SeparableAllocator::new(n_in, n_out);
    let mut mask_alloc = SeparableAllocator::new(n_in, n_out);
    let mut reference = RefSeparable::new(n_in, n_out);
    let mut grants = Vec::new();
    let mut mask_grants = Vec::new();
    for (cycle, seeds) in cycles.iter().enumerate() {
        let pairs = request_pairs(n_in, n_out, seeds);
        let want = reference.allocate(&pairs);
        pairs_alloc.allocate_into(&pairs, &mut grants);
        assert_eq!(grants, want, "{n_in}x{n_out} cycle {cycle}");

        let mut rows = vec![0u64; n_in];
        let mut inputs = 0u64;
        for &(i, r) in &pairs {
            rows[i] |= 1 << r;
            inputs |= 1 << i;
        }
        mask_alloc.allocate_masks(inputs, |i| rows[i], &mut mask_grants);
        assert_eq!(mask_grants, want, "{n_in}x{n_out} cycle {cycle} (masks)");
    }
}

fn rounds() -> impl Strategy<Value = Vec<(u64, u64, u8, bool)>> {
    proptest::collection::vec(
        (any::<u64>(), any::<u64>(), any::<u8>(), any::<bool>()),
        1..120,
    )
}

fn cycles() -> impl Strategy<Value = Vec<Vec<(u64, u64, u8)>>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u8>()), 0..3),
        1..40,
    )
}

proptest! {
    #[test]
    fn matrix_grants_and_ranking_match_reference(n in 1usize..65, rounds in rounds()) {
        matrix_matches_reference(n, &rounds);
    }

    #[test]
    fn full_word_matrix_matches_reference(rounds in rounds()) {
        matrix_matches_reference(64, &rounds);
    }

    #[test]
    fn round_robin_grants_match_reference(n in 1usize..65, rounds in rounds()) {
        round_robin_matches_reference(n, &rounds);
    }

    #[test]
    fn full_word_round_robin_matches_reference(rounds in rounds()) {
        round_robin_matches_reference(64, &rounds);
    }

    #[test]
    fn separable_grants_match_reference(
        n_in in 1usize..65,
        n_out in 1usize..65,
        cycles in cycles(),
    ) {
        separable_matches_reference(n_in, n_out, &cycles);
    }

    #[test]
    fn full_word_separable_matches_reference(cycles in cycles()) {
        separable_matches_reference(64, 64, &cycles);
    }

    /// The router's VC-allocator shape (ports·VCs square), where most of
    /// the simulated grants are made.
    #[test]
    fn router_shaped_separable_matches_reference(
        shape in 0usize..3,
        cycles in cycles(),
    ) {
        let n = [10, 20, 56][shape];
        separable_matches_reference(n, n, &cycles);
    }
}

#[test]
fn oversized_arbiters_are_rejected() {
    for build in [
        (|| drop(MatrixArbiter::new(65))) as fn(),
        || drop(RoundRobinArbiter::new(65)),
        || drop(SeparableAllocator::new(65, 2)),
        || drop(SeparableAllocator::new(2, 65)),
    ] {
        let err = std::panic::catch_unwind(build).expect_err("65 requestors must be rejected");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.contains("at most 64"), "unexpected message: {msg}");
    }
}
