//! `FlowStats` against a brute-force model: every query over random
//! `(src, dst, latency)` streams equals the exact nearest-rank answer
//! computed from the raw samples, and record order never matters.

use noc_network::{FlowPercentiles, FlowStats};
use proptest::collection::vec;
use proptest::prelude::*;

/// The raw samples of one flow, ascending.
fn model_run(samples: &[(usize, usize, u64)], src: usize, dst: usize) -> Vec<u64> {
    let mut run: Vec<u64> = samples
        .iter()
        .filter(|&&(s, d, _)| (s, d) == (src, dst))
        .map(|&(_, _, l)| l)
        .collect();
    run.sort_unstable();
    run
}

/// The smallest sample with at least `pct`% of the run at or below it.
fn model_rank(run: &[u64], pct: usize) -> u64 {
    let k = (1..=run.len())
        .find(|&k| 100 * k >= pct * run.len())
        .expect("non-empty run");
    run[k - 1]
}

fn model_percentiles(run: &[u64]) -> Option<FlowPercentiles> {
    (!run.is_empty()).then(|| FlowPercentiles {
        p50: model_rank(run, 50),
        p95: model_rank(run, 95),
        p99: model_rank(run, 99),
    })
}

fn build(nodes: usize, samples: &[(usize, usize, u64)]) -> FlowStats {
    let mut f = FlowStats::new(nodes, samples.len());
    for &(src, dst, latency) in samples {
        f.record(src, dst, latency);
    }
    f.finish();
    f
}

/// A Fisher–Yates shuffle driven by a SplitMix64 stream from `seed`.
fn shuffled<T: Copy>(items: &[T], mut seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        out.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    out
}

/// Latencies from zero through well beyond 2^32 (up to the 58-bit
/// field that 8 nodes leave).
fn latency() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..64, 0u64..5_000, 0u64..(1 << 40), 0u64..(1 << 58)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn queries_match_the_nearest_rank_model(
        nodes in 1usize..9,
        raw in vec((any::<usize>(), any::<usize>(), latency()), 0..200),
        seed in any::<u64>(),
    ) {
        let samples: Vec<(usize, usize, u64)> =
            raw.iter().map(|&(s, d, l)| (s % nodes, d % nodes, l)).collect();
        let f = build(nodes, &samples);
        prop_assert_eq!(f.nodes(), nodes);
        prop_assert_eq!(f.samples(), samples.len() as u64);

        let mut flows = 0;
        let mut worst: Option<(u32, u32, FlowPercentiles)> = None;
        for src in 0..nodes {
            for dst in 0..nodes {
                let run = model_run(&samples, src, dst);
                prop_assert_eq!(f.flow_samples(src, dst), run.len() as u64);
                let sum: u128 = run.iter().map(|&l| u128::from(l)).sum();
                let mean = (!run.is_empty()).then(|| sum as f64 / run.len() as f64);
                prop_assert_eq!(f.mean(src, dst), mean, "mean of {}->{}", src, dst);
                let p = model_percentiles(&run);
                prop_assert_eq!(f.percentiles(src, dst), p, "{}->{} of {:?}", src, dst, run);
                if let Some(p) = p {
                    flows += 1;
                    let key = |q: &FlowPercentiles| (q.p99, q.p95, q.p50);
                    if worst.is_none_or(|(_, _, b)| key(&p) > key(&b)) {
                        worst = Some((src as u32, dst as u32, p));
                    }
                }
            }
        }
        prop_assert_eq!(f.flows(), flows);
        prop_assert_eq!(f.worst(), worst);

        let reordered = shuffled(&samples, seed);
        prop_assert_eq!(&build(nodes, &reordered), &f, "record order must not matter");
    }
}
