//! Honest latency tails for the benchmark reports.
//!
//! A run's p50/p95/p99 are upper bucket bounds of a fixed-range
//! histogram, and a saturated run overflows it: the library then reports
//! the percentile as `None` (run level) or clamps it to the histogram cap
//! (per flow). [`Tails`] keeps both cases visible — an overflowed or
//! clamped percentile is `null` in the JSON, next to `"saturated": true`
//! and the true maximum latency — so a tail never prints as `0` or as the
//! cap passing for a measurement.

use noc_network::RunResult;

/// The tail-latency summary of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tails {
    /// Tagged packets measured.
    pub samples: u64,
    /// Run-level p50/p95/p99 upper bounds; `None` when the quantile falls
    /// beyond the histogram's range.
    pub p50: Option<u64>,
    /// See [`Tails::p50`].
    pub p95: Option<u64>,
    /// See [`Tails::p50`].
    pub p99: Option<u64>,
    /// True if a run-level percentile overflowed the histogram.
    pub saturated: bool,
    /// The largest tagged latency, exact.
    pub max: Option<u64>,
    /// Source→destination flows with tagged samples (0 without
    /// telemetry).
    pub flows: u64,
    /// The worst flow's p50/p95/p99; `None` when clamped at the per-flow
    /// histogram cap (the value is then only known to be at or beyond
    /// it).
    pub flow_p50: Option<u64>,
    /// See [`Tails::flow_p50`].
    pub flow_p95: Option<u64>,
    /// See [`Tails::flow_p50`].
    pub flow_p99: Option<u64>,
    /// True if a worst-flow percentile was clamped at the cap.
    pub flow_saturated: bool,
}

impl Tails {
    /// The tails of `r` (flow fields come from its telemetry, if any).
    #[must_use]
    pub fn of(r: &RunResult) -> Self {
        let pct = r.histogram.percentiles();
        let run = [pct.p50, pct.p95, pct.p99];
        let (flows, worst) = r.flow_stats.as_ref().map_or((0, [None; 3]), |f| {
            let unclamped = |p: u64| (p < f.latency_cap()).then_some(p);
            let worst = f.worst().map_or([None; 3], |(_, _, p)| {
                [unclamped(p.p50), unclamped(p.p95), unclamped(p.p99)]
            });
            (f.flows(), worst)
        });
        Tails {
            samples: r.stats.count(),
            p50: run[0],
            p95: run[1],
            p99: run[2],
            saturated: r.stats.count() > 0 && run.contains(&None),
            max: r.stats.max(),
            flows,
            flow_p50: worst[0],
            flow_p95: worst[1],
            flow_p99: worst[2],
            flow_saturated: flows > 0 && worst.contains(&None),
        }
    }

    /// The tails as comma-separated JSON object members (no braces), for
    /// splicing into a report row.
    #[must_use]
    pub fn json_fields(&self) -> String {
        let num = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        format!(
            "\"samples\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"saturated\": {}, \
             \"max\": {}, \"flows\": {}, \"flow_p50\": {}, \"flow_p95\": {}, \
             \"flow_p99\": {}, \"flow_saturated\": {}",
            self.samples,
            num(self.p50),
            num(self.p95),
            num(self.p99),
            self.saturated,
            num(self.max),
            self.flows,
            num(self.flow_p50),
            num(self.flow_p95),
            num(self.flow_p99),
            self.flow_saturated,
        )
    }

    /// A one-line human rendering of three percentiles, `a/b/c`, with
    /// `>range` for an overflowed or clamped one.
    #[must_use]
    pub fn render(p: [Option<u64>; 3]) -> String {
        let s: Vec<String> = p
            .iter()
            .map(|v| v.map_or_else(|| ">range".to_string(), |v| v.to_string()))
            .collect();
        s.join("/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_network::{Network, NetworkConfig, RouterKind, TrafficPattern};

    /// bench-engines' `--pattern hotspot` point at load 0.1 on the
    /// default 8×8 mesh (node 59, hotness 0.5): the hotspot saturates,
    /// the run hits its cycle limit, and the latency histogram
    /// overflows.
    fn saturated_hotspot() -> RunResult {
        let cfg = NetworkConfig::mesh(
            8,
            RouterKind::SpeculativeVc {
                vcs: 2,
                buffers_per_vc: 4,
            },
        )
        .with_injection(0.1)
        .with_warmup(300)
        .with_sample(400)
        .with_max_cycles(60_000)
        .with_pattern(TrafficPattern::Hotspot {
            hotspot: 59,
            hotness: 0.5,
        })
        .with_telemetry(256);
        Network::new(cfg).run()
    }

    /// Present percentiles are positive and ordered; an absent one is
    /// flagged saturated, and everything above it is absent too.
    fn assert_honest(p: [Option<u64>; 3], saturated: bool, what: &str) {
        for v in p.into_iter().flatten() {
            assert!(v > 0, "{what}: a measured percentile is 0: {p:?}");
        }
        assert_eq!(saturated, p.contains(&None), "{what}: {p:?}");
        for w in p.windows(2) {
            match (w[0], w[1]) {
                (Some(lo), Some(hi)) => assert!(lo <= hi, "{what}: unordered {p:?}"),
                (None, Some(_)) => panic!("{what}: a lower percentile overflowed alone: {p:?}"),
                _ => {}
            }
        }
    }

    #[test]
    fn saturated_hotspot_tails_are_never_zero_or_clamped() {
        let r = saturated_hotspot();
        assert!(r.saturated, "the hotspot point must saturate");
        let t = Tails::of(&r);
        assert!(t.samples > 0 && t.flows > 0, "{t:?}");
        assert_honest([t.p50, t.p95, t.p99], t.saturated, "run");
        assert_honest(
            [t.flow_p50, t.flow_p95, t.flow_p99],
            t.flow_saturated,
            "worst flow",
        );
        // This point overflows the run histogram: the tail is reported
        // as unknown-but-large with the exact maximum beside it.
        assert!(t.saturated && r.histogram.overflow() > 0, "{t:?}");
        assert!(t.max.is_some_and(|m| m > 0), "{t:?}");

        let json = t.json_fields();
        for key in ["p50", "p95", "p99", "flow_p50", "flow_p95", "flow_p99"] {
            assert!(!json.contains(&format!("\"{key}\": 0,")), "{json}");
        }
        assert!(json.contains("\"saturated\": true"), "{json}");
        assert!(json.contains("\"p99\": null"), "{json}");
    }

    #[test]
    fn unsaturated_tails_are_all_measured() {
        let cfg = NetworkConfig::mesh(
            4,
            RouterKind::SpeculativeVc {
                vcs: 2,
                buffers_per_vc: 4,
            },
        )
        .with_injection(0.1)
        .with_warmup(200)
        .with_sample(300)
        .with_telemetry(256);
        let t = Tails::of(&Network::new(cfg).run());
        assert!(!t.saturated && !t.flow_saturated, "{t:?}");
        assert_honest([t.p50, t.p95, t.p99], false, "run");
        assert_honest([t.flow_p50, t.flow_p95, t.flow_p99], false, "worst flow");
        assert_eq!(
            Tails::render([t.p50, None, None]).matches(">range").count(),
            2
        );
    }
}
