//! The JSONL resume scanner against hostile input: it never panics on
//! arbitrary bytes, and every record it writes parses back to itself —
//! job names with quotes, backslashes, control characters and
//! key-like text included.

use proptest::collection::vec;
use proptest::prelude::*;
use runqueue::{NodeDrops, PointKey, PointRecord};

/// Job-name fragments chosen to trip a naive scanner.
const PIECES: [&str; 24] = [
    "a",
    "job",
    " ",
    "\"",
    "\\",
    "\\\\",
    "\\\"",
    "\\u0041",
    "\"seed\": 9",
    "\"latency\": null",
    "\"p50\": 1, ",
    "\"flows\": 7",
    "\"job\": \"x\"",
    "\"node_drops\": [{\"node\": 1}]",
    "{\"meta\": {}}",
    ",",
    "{",
    "}",
    "[",
    "]",
    "é",
    "\n",
    "\t",
    "\u{1}",
];

fn job_name() -> impl Strategy<Value = String> {
    vec(0usize..PIECES.len(), 0..12).prop_map(|ix| ix.iter().map(|&i| PIECES[i]).collect())
}

/// A finite `f64` from arbitrary bits (non-finite bit patterns fold to
/// their integer value), so `PartialEq` round trips are meaningful.
fn finite(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else {
        bits as f64
    }
}

/// `Some(w >> 1)` or `None`, by the low bit.
fn maybe(w: u64) -> Option<u64> {
    (w & 1 == 0).then_some(w >> 1)
}

fn record(job: String, w: &[u64], drops: Vec<(u32, Vec<u64>, Vec<u64>)>) -> PointRecord {
    let load = finite(w[2]);
    PointRecord {
        key: PointKey::new(w[0], w[1], load),
        job,
        seed: w[1],
        load,
        latency: (w[3] & 1 == 0).then(|| finite(w[4])),
        accepted: finite(w[5]),
        saturated: w[6] & 1 == 1,
        cycles: w[7],
        p50: maybe(w[8]),
        p95: maybe(w[9]),
        p99: maybe(w[10]),
        unreachable_pairs: w[11],
        node_drops: drops
            .into_iter()
            .map(|(node, flits, packets)| NodeDrops {
                node,
                flits,
                packets,
            })
            .collect(),
        flows: w[12],
        flow_p50: maybe(w[13]),
        flow_p95: maybe(w[14]),
        flow_p99: maybe(w[15]),
    }
}

fn drops() -> impl Strategy<Value = Vec<(u32, Vec<u64>, Vec<u64>)>> {
    vec(
        (
            any::<u32>(),
            vec(any::<u64>(), 0..6),
            vec(any::<u64>(), 0..6),
        ),
        0..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn records_round_trip(job in job_name(), w in vec(any::<u64>(), 16), d in drops()) {
        let rec = record(job, &w, d);
        let line = rec.to_jsonl();
        prop_assert!(!line.contains('\n'), "one line: {}", line);
        prop_assert_eq!(PointRecord::from_jsonl(&line), Some(rec), "{}", line);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..300)) {
        let _ = PointRecord::from_jsonl(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn corrupted_records_never_panic(
        job in job_name(),
        w in vec(any::<u64>(), 16),
        d in drops(),
        edits in vec((any::<usize>(), any::<u8>()), 1..6),
        cut in any::<usize>(),
    ) {
        let mut bytes = record(job, &w, d).to_jsonl().into_bytes();
        for (at, b) in edits {
            let at = at % bytes.len();
            bytes[at] = b;
        }
        bytes.truncate(cut % (bytes.len() + 1));
        let _ = PointRecord::from_jsonl(&String::from_utf8_lossy(&bytes));
    }
}
