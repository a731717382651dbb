//! The fault-spec grammar against generated and hostile input: every
//! spec prints to a string that parses back to itself, and the parser
//! never panics on arbitrary bytes.

use noc_network::{parse_faults, FaultKind, FaultSpec, FaultTarget};
use proptest::collection::vec;
use proptest::prelude::*;

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

fn spec() -> impl Strategy<Value = FaultSpec> {
    (0u8..2, any::<usize>(), any::<usize>(), 0u8..3, any::<u64>()).prop_map(
        |(target, node, port, kind, w)| FaultSpec {
            target: match target {
                0 => FaultTarget::Link { node, port },
                _ => FaultTarget::Router { node },
            },
            kind: match kind {
                0 => FaultKind::Dead { at: w },
                1 => FaultKind::Flaky {
                    period: w as u32,
                    down: (w >> 32) as u32,
                    phase: (w >> 16) as u32,
                },
                _ => FaultKind::Lossy { prob: finite(w) },
            },
        },
    )
}

/// Grammar fragments mixed with separators and junk, so generated
/// input reaches deep into the parser rather than failing at the first
/// byte.
const PIECES: [&str; 22] = [
    "link",
    "router",
    ":",
    "dead",
    "flaky",
    "loss",
    "@",
    "/",
    ";",
    ",",
    " ",
    "0",
    "7",
    "18446744073709551616",
    "-1",
    "0.5",
    "1e999",
    "NaN",
    "é",
    "\u{0}",
    "::",
    "@@",
];

fn text() -> impl Strategy<Value = String> {
    (vec(0usize..PIECES.len(), 0..16), vec(any::<u8>(), 0..8)).prop_map(|(ix, junk)| {
        let mut s: String = ix.iter().map(|&i| PIECES[i]).collect();
        s.push_str(&String::from_utf8_lossy(&junk));
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn printed_specs_parse_back_to_themselves(s in spec()) {
        prop_assert_eq!(FaultSpec::parse(&s.to_string()), Ok(s));
    }

    #[test]
    fn printed_spec_lists_parse_back_to_themselves(specs in vec(spec(), 0..6)) {
        let text: Vec<String> = specs.iter().map(ToString::to_string).collect();
        prop_assert_eq!(parse_faults(&text.join("; ")), Ok(specs));
    }

    #[test]
    fn parse_faults_never_panics(s in text()) {
        let _ = parse_faults(&s);
    }

    #[test]
    fn parse_faults_never_panics_on_raw_bytes(bytes in vec(any::<u8>(), 0..64)) {
        let _ = parse_faults(&String::from_utf8_lossy(&bytes));
    }
}
