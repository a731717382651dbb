//! Per-flow latency samples.
//!
//! A *flow* is one (source → destination) pair. [`FlowStats`] keeps every
//! recorded sample as one `u64` key — the flow index `src × nodes + dst`
//! in the high bits, the exact latency in the low bits — so memory
//! follows the number of samples, not the number of possible flows, and
//! a flow nobody used costs nothing. Recording is one push into a buffer
//! reserved up front. [`FlowStats::finish`] sorts the keys once, after
//! which each flow's samples are one contiguous, latency-ordered run and
//! every query is answered exactly from them.

use std::borrow::Cow;

/// Exact p50/p95/p99 of one flow's latencies, in cycles.
///
/// Nearest rank: `p_q` is the `ceil(q × n)`-th smallest of the flow's
/// `n` samples, so every value is a latency that was actually recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowPercentiles {
    /// Median, cycles.
    pub p50: u64,
    /// 95th percentile, cycles.
    pub p95: u64,
    /// 99th percentile, cycles.
    pub p99: u64,
}

/// Per-flow latency samples, one key per sample.
///
/// Record with [`FlowStats::record`], then call [`FlowStats::finish`]
/// before querying. Equality compares the sample multisets, so two
/// tables that recorded the same samples in different orders are equal.
#[derive(Debug, Clone)]
pub struct FlowStats {
    nodes: u32,
    /// Low bits of a key that hold the latency; the flow index sits
    /// above them.
    latency_bits: u32,
    /// One key per sample; sorted ascending up to `sorted_len`.
    keys: Vec<u64>,
    /// `keys.len()` at the last [`FlowStats::finish`]: the queries
    /// require every key to be sorted.
    sorted_len: usize,
}

impl FlowStats {
    /// An empty table for `nodes` endpoints with room for `capacity`
    /// samples before [`FlowStats::record`] allocates.
    ///
    /// The key split is fixed here: the flow index takes
    /// `ceil(log2(nodes²))` bits (12 at 64 nodes, 20 at 1024) and the
    /// latency the remaining low bits.
    ///
    /// # Panics
    ///
    /// Panics on zero nodes or more than 2^16 of them (the key must keep
    /// at least 32 latency bits).
    #[must_use]
    pub fn new(nodes: usize, capacity: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(nodes <= 1 << 16, "at most 2^16 nodes, got {nodes}");
        let flows = (nodes * nodes) as u64;
        let flow_bits = u64::BITS - (flows - 1).leading_zeros();
        FlowStats {
            nodes: nodes as u32,
            latency_bits: u64::BITS - flow_bits,
            keys: Vec::with_capacity(capacity),
            sorted_len: 0,
        }
    }

    /// Endpoint count the table was sized for.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes as usize
    }

    /// Records one sample for the `src → dst` flow.
    ///
    /// # Panics
    ///
    /// Panics if `latency` does not fit the key's latency bits, i.e. is
    /// 2^(64 − `ceil(log2(nodes²))`) cycles or more: 2^52 at 64 nodes,
    /// 2^44 at 1024. A sample is never clamped.
    #[inline]
    pub fn record(&mut self, src: usize, dst: usize, latency: u64) {
        if latency > self.latency_mask() {
            latency_overflow(latency, self.latency_bits);
        }
        let flow = (src * self.nodes as usize + dst) as u64;
        self.keys
            .push(flow.checked_shl(self.latency_bits).unwrap_or(0) | latency);
    }

    /// Sorts the recorded samples so the queries can read them; cheap
    /// when nothing was recorded since the last call.
    pub fn finish(&mut self) {
        if self.sorted_len != self.keys.len() {
            self.keys.sort_unstable();
            self.sorted_len = self.keys.len();
        }
    }

    /// Number of flows with at least one sample.
    #[must_use]
    pub fn flows(&self) -> u64 {
        self.runs().count() as u64
    }

    /// Total samples across all flows.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.keys.len() as u64
    }

    /// Samples of one flow.
    #[must_use]
    pub fn flow_samples(&self, src: usize, dst: usize) -> u64 {
        self.run(src, dst).len() as u64
    }

    /// Mean latency of one flow, if it has samples.
    #[must_use]
    pub fn mean(&self, src: usize, dst: usize) -> Option<f64> {
        let run = self.run(src, dst);
        let sum: u128 = run.iter().map(|&k| u128::from(self.latency(k))).sum();
        (!run.is_empty()).then(|| sum as f64 / run.len() as f64)
    }

    /// Exact nearest-rank p50/p95/p99 of one flow, if it has samples.
    #[must_use]
    pub fn percentiles(&self, src: usize, dst: usize) -> Option<FlowPercentiles> {
        let run = self.run(src, dst);
        (!run.is_empty()).then(|| self.nearest_ranks(run))
    }

    /// The worst flow: highest p99, ties broken by p95, then p50, then
    /// lowest `(src, dst)` — a total order, so the answer is
    /// deterministic. `None` if no flow has samples.
    #[must_use]
    pub fn worst(&self) -> Option<(u32, u32, FlowPercentiles)> {
        let mut best: Option<(u64, FlowPercentiles)> = None;
        for run in self.runs() {
            let p = self.nearest_ranks(run);
            // Runs come in ascending flow order, so a tie keeps the
            // lower flow.
            if best.is_none_or(|(_, b)| (p.p99, p.p95, p.p50) > (b.p99, b.p95, b.p50)) {
                best = Some((self.flow(run[0]), p));
            }
        }
        best.map(|(flow, p)| {
            let nodes = u64::from(self.nodes);
            ((flow / nodes) as u32, (flow % nodes) as u32, p)
        })
    }

    fn latency_mask(&self) -> u64 {
        u64::MAX >> (u64::BITS - self.latency_bits)
    }

    fn latency(&self, key: u64) -> u64 {
        key & self.latency_mask()
    }

    fn flow(&self, key: u64) -> u64 {
        key.checked_shr(self.latency_bits).unwrap_or(0)
    }

    /// The sorted keys, asserting that [`FlowStats::finish`] ran after
    /// the last record.
    fn sorted(&self) -> &[u64] {
        assert_eq!(
            self.sorted_len,
            self.keys.len(),
            "FlowStats queried before finish()"
        );
        &self.keys
    }

    /// One flow's keys, latency-ascending.
    fn run(&self, src: usize, dst: usize) -> &[u64] {
        let keys = self.sorted();
        let flow = (src * self.nodes as usize + dst) as u64;
        let lo = keys.partition_point(|&k| self.flow(k) < flow);
        let hi = lo + keys[lo..].partition_point(|&k| self.flow(k) == flow);
        &keys[lo..hi]
    }

    /// Every non-empty flow's keys, in ascending flow order.
    fn runs(&self) -> impl Iterator<Item = &[u64]> {
        self.sorted()
            .chunk_by(|&a, &b| self.flow(a) == self.flow(b))
    }

    /// p50/p95/p99 of a non-empty run.
    fn nearest_ranks(&self, run: &[u64]) -> FlowPercentiles {
        // The ceil(q × n)-th smallest, with q in whole percent so the
        // rank is exact integer arithmetic.
        let rank = |pct: usize| self.latency(run[(pct * run.len()).div_ceil(100) - 1]);
        FlowPercentiles {
            p50: rank(50),
            p95: rank(95),
            p99: rank(99),
        }
    }

    /// The keys in sorted order, copying only if they are not sorted.
    fn sorted_keys(&self) -> Cow<'_, [u64]> {
        if self.sorted_len == self.keys.len() {
            Cow::Borrowed(&self.keys)
        } else {
            let mut keys = self.keys.clone();
            keys.sort_unstable();
            Cow::Owned(keys)
        }
    }
}

/// The failure path of [`FlowStats::record`], kept out of line so the
/// engines' inlined record stays small.
#[cold]
#[inline(never)]
fn latency_overflow(latency: u64, bits: u32) -> ! {
    panic!("latency {latency} exceeds the {bits}-bit flow key field")
}

impl PartialEq for FlowStats {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.sorted_keys() == other.sorted_keys()
    }
}

impl Eq for FlowStats {}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(mut f: FlowStats) -> FlowStats {
        f.finish();
        f
    }

    #[test]
    fn percentiles_are_exact_nearest_ranks() {
        let mut f = FlowStats::new(4, 0);
        // 100 samples 0, 10, ..., 990 on flow 1 -> 2, recorded backwards.
        for v in (0..100).rev() {
            f.record(1, 2, v * 10);
        }
        let f = finished(f);
        let p = f.percentiles(1, 2).unwrap();
        // The 50th, 95th and 99th smallest samples.
        assert_eq!((p.p50, p.p95, p.p99), (490, 940, 980));
        assert_eq!(f.flow_samples(1, 2), 100);
        assert_eq!(f.mean(1, 2), Some(495.0));
        assert_eq!(f.flows(), 1);
        assert_eq!(f.samples(), 100);
        assert_eq!(f.percentiles(0, 0), None);
        assert_eq!(f.mean(0, 0), None);
        assert_eq!(f.flow_samples(3, 3), 0);
    }

    #[test]
    fn large_latencies_are_kept_exactly() {
        let mut f = FlowStats::new(2, 0);
        f.record(0, 1, 1_000_000);
        f.record(0, 1, 5);
        f.record(1, 1, 1 << 40);
        let f = finished(f);
        let p = f.percentiles(0, 1).unwrap();
        assert_eq!((p.p50, p.p95, p.p99), (5, 1_000_000, 1_000_000));
        assert_eq!(f.percentiles(1, 1).unwrap().p99, 1 << 40);
        assert_eq!(f.worst().map(|(s, d, _)| (s, d)), Some((1, 1)));
    }

    #[test]
    fn key_split_follows_the_node_count() {
        assert_eq!(FlowStats::new(1, 0).latency_bits, 64);
        assert_eq!(FlowStats::new(64, 0).latency_bits, 52);
        assert_eq!(FlowStats::new(1024, 0).latency_bits, 44);
        // One node: the whole key is the latency.
        let mut f = FlowStats::new(1, 0);
        f.record(0, 0, u64::MAX);
        assert_eq!(finished(f).percentiles(0, 0).unwrap().p50, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds the 52-bit flow key field")]
    fn an_unrepresentable_latency_panics_instead_of_clamping() {
        FlowStats::new(64, 0).record(0, 0, 1 << 52);
    }

    #[test]
    #[should_panic(expected = "queried before finish")]
    fn queries_require_finish() {
        let mut f = FlowStats::new(2, 0);
        f.record(0, 1, 3);
        let _ = f.flows();
    }

    #[test]
    fn equality_ignores_record_order() {
        let mut a = FlowStats::new(3, 0);
        let mut b = FlowStats::new(3, 0);
        for (s, d, l) in [(0, 1, 7), (2, 0, 3), (0, 1, 2)] {
            a.record(s, d, l);
        }
        for (s, d, l) in [(0, 1, 2), (0, 1, 7), (2, 0, 3)] {
            b.record(s, d, l);
        }
        assert_eq!(a, b, "unsorted");
        assert_eq!(finished(a.clone()), b, "one side sorted");
        b.record(2, 0, 3);
        assert_ne!(a, b);
    }

    #[test]
    fn worst_flow_is_deterministic_with_ties() {
        let mut f = FlowStats::new(3, 0);
        f.record(2, 0, 15);
        f.record(0, 1, 15); // identical distribution: tie
        f.record(1, 2, 5); // strictly better
        let f = finished(f);
        let (src, dst, p) = f.worst().unwrap();
        assert_eq!((src, dst), (0, 1), "lowest (src, dst) wins the tie");
        assert_eq!(p.p99, 15);
        assert_eq!(finished(FlowStats::new(3, 0)).worst(), None);
    }
}
