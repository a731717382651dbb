//! Unified observability layer for the Peh–Dally reproduction.
//!
//! Three pieces, deliberately dependency-free so they can sit below the
//! simulator in the crate graph:
//!
//! - a [`MetricsRegistry`] of named integer counters and gauges that an
//!   engine snapshots at deterministic epoch boundaries into a
//!   [`MetricsTap`] ([`MemoryTap`] retains the stream in memory,
//!   [`JsonlTap`] streams one JSON object per snapshot);
//! - [`FlowStats`]: the exact per-(source → dest) latencies of a tagged
//!   sample, 8 bytes per sample, with exact nearest-rank p50/p95/p99
//!   queries;
//! - a [`TraceLog`] of phase spans exportable as Chrome trace-event /
//!   Perfetto JSON (see [`TraceLog::write_chrome_trace`]).
//!
//! The split between the registry's two sections is part of the
//! contract: **counters** are pure functions of the simulated cycles
//! and must be bit-identical across engines, shard counts, thread
//! schedules, and barrier kinds; **gauges** are engine-specific
//! diagnostics (tick counts, queue depths, barrier waits) that carry no
//! cross-engine identity guarantee. [`MetricsLog::identity`] exposes
//! exactly the identity-checked portion of a stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flow;
mod progress;
mod trace;

pub use flow::{FlowPercentiles, FlowStats};
pub use progress::{Progress, ProgressMeter};
pub use trace::{TraceLog, TraceSpan};

use std::io::Write;

/// Which section of the registry a metric lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone event count; part of the bit-identity contract.
    Counter,
    /// Point-in-time or engine-specific value; diagnostics only.
    Gauge,
}

/// Handle to one registered metric. Cheap to copy and store; valid only
/// for the registry that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId {
    kind: MetricKind,
    slot: u32,
}

impl MetricId {
    /// The section this id addresses.
    #[must_use]
    pub fn kind(self) -> MetricKind {
        self.kind
    }
}

/// A registry of named integer counters and gauges.
///
/// Registration order defines the snapshot schema: snapshots list
/// values in the order the metrics were registered, counters first.
/// Updates are plain integer stores into preallocated slots, so the
/// hot path never allocates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counter_names: Vec<&'static str>,
    gauge_names: Vec<&'static str>,
    counters: Vec<u64>,
    gauges: Vec<u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a counter and returns its id.
    pub fn counter(&mut self, name: &'static str) -> MetricId {
        self.counter_names.push(name);
        self.counters.push(0);
        MetricId {
            kind: MetricKind::Counter,
            slot: (self.counters.len() - 1) as u32,
        }
    }

    /// Registers a gauge and returns its id.
    pub fn gauge(&mut self, name: &'static str) -> MetricId {
        self.gauge_names.push(name);
        self.gauges.push(0);
        MetricId {
            kind: MetricKind::Gauge,
            slot: (self.gauges.len() - 1) as u32,
        }
    }

    /// Adds `delta` to a metric.
    #[inline]
    pub fn add(&mut self, id: MetricId, delta: u64) {
        match id.kind {
            MetricKind::Counter => self.counters[id.slot as usize] += delta,
            MetricKind::Gauge => self.gauges[id.slot as usize] += delta,
        }
    }

    /// Sets a metric to `value`.
    #[inline]
    pub fn set(&mut self, id: MetricId, value: u64) {
        match id.kind {
            MetricKind::Counter => self.counters[id.slot as usize] = value,
            MetricKind::Gauge => self.gauges[id.slot as usize] = value,
        }
    }

    /// Current value of a metric.
    #[must_use]
    pub fn get(&self, id: MetricId) -> u64 {
        match id.kind {
            MetricKind::Counter => self.counters[id.slot as usize],
            MetricKind::Gauge => self.gauges[id.slot as usize],
        }
    }

    /// Registered counter names, in slot order.
    #[must_use]
    pub fn counter_names(&self) -> &[&'static str] {
        &self.counter_names
    }

    /// Registered gauge names, in slot order.
    #[must_use]
    pub fn gauge_names(&self) -> &[&'static str] {
        &self.gauge_names
    }

    /// A borrowed snapshot of the current values, stamped with the
    /// boundary cycle and the epoch index.
    #[must_use]
    pub fn snapshot(&self, cycle: u64, epoch: u64) -> Snapshot<'_> {
        Snapshot {
            cycle,
            epoch,
            counter_names: &self.counter_names,
            counters: &self.counters,
            gauge_names: &self.gauge_names,
            gauges: &self.gauges,
        }
    }
}

/// One epoch-boundary snapshot, borrowed from the registry.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot<'a> {
    /// The boundary cycle: the snapshot reflects state after cycles
    /// `0..cycle` executed (or were provably-equivalently skipped).
    pub cycle: u64,
    /// Zero-based index of this snapshot in the stream.
    pub epoch: u64,
    /// Counter names, parallel to `counters`.
    pub counter_names: &'a [&'static str],
    /// Counter values (bit-identity section).
    pub counters: &'a [u64],
    /// Gauge names, parallel to `gauges`.
    pub gauge_names: &'a [&'static str],
    /// Gauge values (diagnostics section).
    pub gauges: &'a [u64],
}

impl Snapshot<'_> {
    /// Looks a value up by name, searching counters then gauges.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<u64> {
        if let Some(i) = self.counter_names.iter().position(|&n| n == name) {
            return Some(self.counters[i]);
        }
        self.gauge_names
            .iter()
            .position(|&n| n == name)
            .map(|i| self.gauges[i])
    }
}

/// Consumes epoch snapshots as an engine produces them.
pub trait MetricsTap {
    /// Records one snapshot. Called once per epoch boundary, in cycle
    /// order, from the thread that owns the engine (the gate leader for
    /// the sharded engine), so implementations need no locking.
    fn record(&mut self, snap: &Snapshot<'_>);
}

/// A retained snapshot stream: the schema plus flat value arrays, one
/// row per epoch. Comparable ([`PartialEq`]) and cheap to clone into a
/// `RunResult`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsLog {
    counter_names: Vec<&'static str>,
    gauge_names: Vec<&'static str>,
    cycles: Vec<u64>,
    counters: Vec<u64>,
    gauges: Vec<u64>,
}

impl MetricsLog {
    /// Number of snapshots recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// Whether no snapshot has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// The boundary cycle of snapshot `i`.
    #[must_use]
    pub fn cycle(&self, i: usize) -> u64 {
        self.cycles[i]
    }

    /// Counter values of snapshot `i`, in schema order.
    #[must_use]
    pub fn counters(&self, i: usize) -> &[u64] {
        let n = self.counter_names.len();
        &self.counters[i * n..(i + 1) * n]
    }

    /// Gauge values of snapshot `i`, in schema order.
    #[must_use]
    pub fn gauges(&self, i: usize) -> &[u64] {
        let n = self.gauge_names.len();
        &self.gauges[i * n..(i + 1) * n]
    }

    /// Counter names (the schema of the identity section).
    #[must_use]
    pub fn counter_names(&self) -> &[&'static str] {
        &self.counter_names
    }

    /// Gauge names.
    #[must_use]
    pub fn gauge_names(&self) -> &[&'static str] {
        &self.gauge_names
    }

    /// Looks up a value by name in snapshot `i`.
    #[must_use]
    pub fn value(&self, i: usize, name: &str) -> Option<u64> {
        if let Some(c) = self.counter_names.iter().position(|&n| n == name) {
            return Some(self.counters(i)[c]);
        }
        self.gauge_names
            .iter()
            .position(|&n| n == name)
            .map(|g| self.gauges(i)[g])
    }

    /// The bit-identity portion of the stream: `(boundary cycles,
    /// flattened counter rows)`. Two runs of the same experiment must
    /// compare equal here regardless of engine kind, shard count,
    /// thread schedule, or barrier kind; gauges are excluded by design.
    #[must_use]
    pub fn identity(&self) -> (&[u64], &[u64]) {
        (&self.cycles, &self.counters)
    }
}

/// A [`MetricsTap`] that retains the whole stream in a [`MetricsLog`].
/// Row appends amortize into the flat arrays, so steady-state recording
/// stays allocation-free once capacities plateau.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryTap {
    /// The stream recorded so far.
    pub log: MetricsLog,
}

impl MetricsTap for MemoryTap {
    fn record(&mut self, snap: &Snapshot<'_>) {
        if self.log.counter_names.is_empty() && self.log.gauge_names.is_empty() {
            self.log.counter_names.extend_from_slice(snap.counter_names);
            self.log.gauge_names.extend_from_slice(snap.gauge_names);
        }
        self.log.cycles.push(snap.cycle);
        self.log.counters.extend_from_slice(snap.counters);
        self.log.gauges.extend_from_slice(snap.gauges);
    }
}

/// A [`MetricsTap`] that streams one JSON object per snapshot:
///
/// ```json
/// {"cycle": 2048, "epoch": 1, "counters": {"flits_injected": 93, ...},
///  "gauges": {"router_ticks": 1810, ...}}
/// ```
///
/// Each line is formatted into a retained buffer before a single write,
/// so recording is allocation-free once the buffer's capacity plateaus.
#[derive(Debug)]
pub struct JsonlTap<W: Write> {
    out: W,
    line: String,
}

impl<W: Write> JsonlTap<W> {
    /// Streams snapshots to `out`.
    pub fn new(out: W) -> Self {
        JsonlTap {
            out,
            line: String::with_capacity(256),
        }
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the flush failure.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> MetricsTap for JsonlTap<W> {
    fn record(&mut self, snap: &Snapshot<'_>) {
        use std::fmt::Write as _;
        self.line.clear();
        let _ = write!(
            self.line,
            "{{\"cycle\": {}, \"epoch\": {}, \"counters\": {{",
            snap.cycle, snap.epoch
        );
        for (i, (name, v)) in snap.counter_names.iter().zip(snap.counters).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(self.line, "{sep}\"{name}\": {v}");
        }
        let _ = write!(self.line, "}}, \"gauges\": {{");
        for (i, (name, v)) in snap.gauge_names.iter().zip(snap.gauges).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(self.line, "{sep}\"{name}\": {v}");
        }
        let _ = write!(self.line, "}}}}");
        self.line.push('\n');
        self.out
            .write_all(self.line.as_bytes())
            .expect("metrics tap write");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_metric_registry() -> (MetricsRegistry, MetricId, MetricId) {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("events");
        let g = reg.gauge("depth");
        (reg, c, g)
    }

    #[test]
    fn registry_add_set_get() {
        let (mut reg, c, g) = two_metric_registry();
        reg.add(c, 3);
        reg.add(c, 4);
        reg.set(g, 9);
        assert_eq!(reg.get(c), 7);
        assert_eq!(reg.get(g), 9);
        assert_eq!(reg.counter_names(), ["events"]);
        assert_eq!(reg.gauge_names(), ["depth"]);
        assert_eq!(c.kind(), MetricKind::Counter);
        assert_eq!(g.kind(), MetricKind::Gauge);
    }

    #[test]
    fn snapshot_lookup_by_name() {
        let (mut reg, c, g) = two_metric_registry();
        reg.add(c, 5);
        reg.set(g, 2);
        let snap = reg.snapshot(100, 0);
        assert_eq!(snap.value("events"), Some(5));
        assert_eq!(snap.value("depth"), Some(2));
        assert_eq!(snap.value("missing"), None);
        assert_eq!(snap.cycle, 100);
    }

    #[test]
    fn memory_tap_retains_rows_and_identity_excludes_gauges() {
        let (mut reg, c, g) = two_metric_registry();
        let mut tap = MemoryTap::default();
        reg.add(c, 1);
        reg.set(g, 10);
        tap.record(&reg.snapshot(64, 0));
        reg.add(c, 2);
        reg.set(g, 20);
        tap.record(&reg.snapshot(128, 1));
        assert_eq!(tap.log.len(), 2);
        assert_eq!(tap.log.cycle(1), 128);
        assert_eq!(tap.log.counters(0), [1]);
        assert_eq!(tap.log.counters(1), [3]);
        assert_eq!(tap.log.gauges(1), [20]);
        assert_eq!(tap.log.value(1, "events"), Some(3));
        assert_eq!(tap.log.value(0, "depth"), Some(10));

        // Same counters, different gauges: identical identity streams.
        let mut other = MemoryTap::default();
        let (mut reg2, c2, g2) = two_metric_registry();
        reg2.add(c2, 1);
        reg2.set(g2, 999);
        other.record(&reg2.snapshot(64, 0));
        reg2.add(c2, 2);
        other.record(&reg2.snapshot(128, 1));
        assert_ne!(tap.log, other.log, "gauge rows differ");
        assert_eq!(tap.log.identity(), other.log.identity());
    }

    #[test]
    fn jsonl_tap_emits_one_parseable_line_per_snapshot() {
        let (mut reg, c, g) = two_metric_registry();
        let mut tap = JsonlTap::new(Vec::new());
        reg.add(c, 42);
        reg.set(g, 7);
        tap.record(&reg.snapshot(1024, 0));
        tap.record(&reg.snapshot(2048, 1));
        let out = String::from_utf8(tap.into_inner().unwrap()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"cycle\": 1024, \"epoch\": 0, \"counters\": {\"events\": 42}, \
             \"gauges\": {\"depth\": 7}}"
        );
        assert!(lines[1].starts_with("{\"cycle\": 2048, \"epoch\": 1"));
    }
}
