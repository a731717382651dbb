//! Span-based phase tracing with Chrome trace-event export.
//!
//! Engines accumulate wall-clock phase durations per *lane* (one lane
//! per shard) and push one span per phase per epoch. Each lane keeps its own running timestamp cursor,
//! so a lane's spans tile a private timeline whose extent is exactly
//! the time that lane spent executing — barrier stalls, migrations, and
//! fast-forwards then show up as epochs whose lanes have very different
//! span widths. Spans are wall-clock measurements: unlike metric
//! counters they carry **no** cross-run or cross-engine identity
//! guarantee.

use std::io::{self, Write};

/// One phase span on one lane's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// Phase name (trace-event `name`).
    pub name: &'static str,
    /// Lane (trace-event `tid`): shard index, or 0 for serial engines.
    pub lane: u32,
    /// Start offset on the lane's timeline, nanoseconds.
    pub ts_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// An append-only span log with per-lane timestamp cursors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceLog {
    spans: Vec<TraceSpan>,
    cursors: Vec<u64>,
}

impl TraceLog {
    /// A log with `lanes` timelines.
    ///
    /// # Panics
    ///
    /// Panics on zero lanes.
    #[must_use]
    pub fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "need at least one lane");
        TraceLog {
            spans: Vec::new(),
            cursors: vec![0; lanes],
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.cursors.len()
    }

    /// Appends a span of `dur_ns` at lane `lane`'s cursor and advances
    /// the cursor. Zero-duration spans are dropped (an idle phase adds
    /// nothing to the timeline).
    pub fn push(&mut self, lane: usize, name: &'static str, dur_ns: u64) {
        if dur_ns == 0 {
            return;
        }
        let ts_ns = self.cursors[lane];
        self.cursors[lane] += dur_ns;
        self.spans.push(TraceSpan {
            name,
            lane: lane as u32,
            ts_ns,
            dur_ns,
        });
    }

    /// All spans, in append order.
    #[must_use]
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// Whether no span has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes the log as Chrome trace-event JSON (the `traceEvents`
    /// object form), loadable by Perfetto (<https://ui.perfetto.dev>)
    /// and `chrome://tracing`. Timestamps convert to the format's
    /// microseconds with nanosecond precision kept in the fraction.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_chrome_trace<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let us = |ns: u64| format!("{}.{:03}", ns / 1_000, ns % 1_000);
        writeln!(w, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\": \"{}\", \"cat\": \"phase\", \"ph\": \"X\", \
                 \"ts\": {}, \"dur\": {}, \"pid\": 0, \"tid\": {}}}{sep}",
                s.name,
                us(s.ts_ns),
                us(s.dur_ns),
                s.lane
            )?;
        }
        writeln!(w, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_tile_independent_timelines() {
        let mut log = TraceLog::new(2);
        log.push(0, "sources", 1_500);
        log.push(1, "tick", 2_000);
        log.push(0, "router", 500);
        log.push(0, "idle", 0); // dropped
        assert_eq!(log.lanes(), 2);
        let s = log.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].ts_ns, s[0].dur_ns, s[0].lane), (0, 1_500, 0));
        assert_eq!((s[1].ts_ns, s[1].lane), (0, 1));
        assert_eq!(s[2].ts_ns, 1_500, "lane 0 cursor advanced");
    }

    #[test]
    fn chrome_trace_json_shape() {
        let mut log = TraceLog::new(1);
        log.push(0, "sources", 1_234_567);
        log.push(0, "router", 1);
        let mut out = Vec::new();
        log.write_chrome_trace(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["));
        assert!(text.contains(
            "{\"name\": \"sources\", \"cat\": \"phase\", \"ph\": \"X\", \
             \"ts\": 0.000, \"dur\": 1234.567, \"pid\": 0, \"tid\": 0},"
        ));
        assert!(text.contains("\"ts\": 1234.567, \"dur\": 0.001"));
        assert!(text.trim_end().ends_with("]}"));
        // Exactly one comma between the two events: valid JSON.
        assert_eq!(text.matches("},").count(), 1);
    }
}
