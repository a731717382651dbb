//! The network simulator: routers wired by a delivery calendar, driven
//! by constant-rate sources, measured with the paper's warm-up + tagged
//! sample protocol.
//!
//! # One core, three engines, one result
//!
//! Every flit and credit on a wire is scheduled on a delivery calendar
//! when it is emitted, under the cycle it arrives and addressed to its
//! consumer: a flit to the downstream router's input port, a credit to
//! the upstream router's output port (or to the node's own source for
//! the local port). Each cycle takes the flits due, then the credits
//! due, and hands each straight to its consumer; then it steps the
//! sources and ticks the routers, in node order. One core runs that
//! cycle over contiguous shards of the nodes (see [`crate::shard`]), in
//! one of three modes selected with [`crate::config::EngineKind`]:
//!
//! * **cycle-driven** — one shard that ticks every router every cycle
//!   and never fast-forwards. The reference: O(nodes) work per cycle no
//!   matter how idle the fabric is.
//! * **event-driven** — the default. One shard whose routers are ticked
//!   only while non-quiescent (see [`Router::is_quiescent`]) and are
//!   woken by flit arrival; when nothing is active and nothing is due,
//!   the run fast-forwards to the next cycle with work. At the
//!   sub-saturation loads that dominate a latency–throughput curve, most
//!   routers are idle in most cycles, so this skips the bulk of the
//!   work.
//! * **sharded-parallel** — the event-driven mode split across threads,
//!   one calendar per shard.
//!
//! The modes produce **bit-identical** results, because the event-driven
//! mode only elides provable no-ops: a quiescent router's tick changes
//! no state (arbiter priorities move only on grants), and a credit only
//! enables work for flits its receiver already buffers. Within a
//! delivery phase the deliveries commute (each touches one input buffer
//! or one credit counter), a link carries at most one flit per cycle,
//! sources are stepped in node order, routers are ticked in node order,
//! and routers only interact through links with ≥ 1 cycle of latency —
//! so every cross-mode reordering is of commuting operations. The
//! order-sensitive measurement state is committed by one thread in node
//! order. The claim is enforced, not assumed: `tests/engine_equivalence.rs`
//! runs the modes over randomized configurations and asserts identical
//! measurements, and `tests/golden_results.rs` pins the results
//! themselves.

use crate::calendar::LinkTable;
use crate::channel_load::ChannelLoad;
use crate::config::{ConfigError, EngineKind, NetworkConfig};
use crate::fault::{ClipSlot, DropStats, FaultModel};
use crate::histogram::Histogram;
use crate::routing::RouteTable;
use crate::shard::{worker_loop, Lockstep, PoisonGuard, ShardCtx, ShardEnv, ShardOut, ShardSet};
use crate::source::{packet_seq, packet_source, Source};
use crate::stats::{EngineWork, LatencyStats, PhaseNanos};
use crate::tap::{BoundaryCounts, TelemetryState};
use router_core::{Flit, PacketId, Router, RoutingOracle};
use runqueue::CancelToken;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Instant;
use telemetry::{FlowStats, MetricsLog, MetricsTap, TraceLog};

/// How often a run polls its cancellation token, in cycles. Cooperative
/// cancellation is checked at cycle-*batch* granularity: one relaxed
/// atomic load per 1024 cycles is unmeasurable, while still bounding the
/// post-cancel overshoot of even a paper-scale run to well under a
/// millisecond of work.
pub const CANCEL_BATCH: u64 = 1024;

/// The routing function of one node: two loads from the network's
/// precomputed [`RouteTable`] (see `routing.rs`) — no per-flit coordinate
/// math, no candidate-list allocation.
pub(crate) struct NodeOracle<'a> {
    pub(crate) table: &'a RouteTable,
    pub(crate) node: usize,
    /// The fault model and the kill epoch in force at the tick being
    /// routed, when the run has a fault plan. Routing runs once per
    /// packet per router at the same cycle in every engine, so the
    /// epoch — and therefore the choice — is engine-invariant.
    pub(crate) fault: Option<(&'a FaultModel, usize)>,
}

impl RoutingOracle for NodeOracle<'_> {
    fn output_port(&self, flit: &Flit) -> usize {
        match self.fault {
            None => self.table.route(self.node, flit.dest, flit.packet.value()),
            Some((fm, epoch)) => {
                fm.route(self.table, epoch, self.node, flit.dest, flit.packet.value())
            }
        }
    }

    fn vc_mask(&self, flit: &Flit, _out_port: usize) -> u64 {
        self.table.vc_mask(self.node, flit.dest)
    }
}

/// The result of one simulation run at a fixed offered load.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Offered load, as the configured fraction of capacity.
    pub offered: f64,
    /// Mean latency of the tagged packets (creation → tail ejection), or
    /// `None` if no tagged packet completed.
    pub avg_latency: Option<f64>,
    /// Full latency statistics of the tagged sample.
    pub stats: LatencyStats,
    /// True if the run hit the cycle limit before the tagged sample
    /// drained — the network is saturated at this load.
    pub saturated: bool,
    /// Cycles simulated.
    pub cycles: u64,
    /// Accepted throughput during measurement, as a fraction of capacity.
    pub accepted: f64,
    /// Total flits ejected over the whole run.
    pub flits_ejected: u64,
    /// Latency distribution of the tagged sample (10-cycle buckets).
    pub histogram: Histogram,
    /// Router event counters summed over all nodes.
    pub router_stats: router_core::RouterStats,
    /// Work the engine performed (identical results, different effort —
    /// see [`crate::config::EngineKind`]).
    pub work: EngineWork,
    /// Wall-clock attribution per engine phase, present only when
    /// [`NetworkConfig::with_phase_timing`] was enabled (instrumentation
    /// changes no simulation result, only adds clock reads).
    pub phases: Option<PhaseNanos>,
    /// True if the run stopped early because its
    /// [`NetworkConfig::with_cancel`] token was poisoned. A cancelled
    /// run's measurements are partial (it also reads as `saturated`,
    /// since the sample never drained) and must be discarded, not
    /// recorded.
    pub cancelled: bool,
    /// Flits dropped by the fault layer over the whole run (0 on a
    /// healthy network).
    pub dropped_flits: u64,
    /// Packets dropped by the fault layer (counted at the head flit).
    pub dropped_packets: u64,
    /// Drop counters broken down by [`crate::fault::DropReason`].
    pub drops: DropStats,
    /// Ordered (src, dst) pairs unreachable under the kill epoch in
    /// force when the run ended (0 without permanent kills).
    pub unreachable_pairs: u64,
    /// Delivered-vs-offered ratio: ejected flits over injected flits
    /// (1.0 when nothing was injected — an empty run delivered
    /// everything it was offered).
    pub delivered_ratio: f64,
    /// Per-node drop counters by reason, indexed by node id (always
    /// populated; all-zero on a healthy network).
    pub node_drops: Vec<DropStats>,
    /// Per-(source → dest) latencies of the tagged sample, kept exactly
    /// (no buckets, no cap) and sorted for querying, present when
    /// [`NetworkConfig::with_telemetry`] was set. Equal across engine
    /// kinds, shard counts, and schedules.
    pub flow_stats: Option<FlowStats>,
    /// The retained epoch-snapshot stream, present when telemetry was
    /// on. Its counter section ([`MetricsLog::identity`]) is
    /// bit-identical across engine kinds, shard counts, and thread
    /// schedules; gauges are engine diagnostics.
    pub metrics: Option<MetricsLog>,
    /// Per-epoch phase spans, present when both telemetry and
    /// [`NetworkConfig::with_phase_timing`] were on (wall-clock
    /// measurements — no identity guarantee). Export with
    /// [`TraceLog::write_chrome_trace`].
    pub trace: Option<TraceLog>,
}

/// A mesh of routers under simulation.
#[derive(Debug)]
pub struct Network {
    cfg: NetworkConfig,
    routers: Vec<Router>,
    sources: Vec<Source>,
    /// Precomputed per-node routing decisions (see [`RouteTable`]).
    route_table: RouteTable,
    /// The far end of every link, resolved once (see [`LinkTable`]).
    links: LinkTable,
    now: u64,
    /// Credit return latency (propagation + processing − 1), cached.
    credit_latency: u64,
    /// Routers with work pending; they are ticked each cycle until
    /// quiescent.
    router_active: Vec<bool>,
    /// The engine state: partition, per-shard calendars and mailboxes,
    /// rebalancer (see [`crate::shard`]). One shard under the cycle- and
    /// event-driven engines.
    shards: ShardSet,
    /// The global, order-sensitive measurement state — one field, so the
    /// serial commit borrows it as a unit and there is exactly one list
    /// of what "measurement" means.
    meas: Measurement,
    /// Reassembly slot per `(node, ejection VC)`: the packet currently
    /// ejecting there and how many of its flits have arrived. Packets
    /// cannot interleave within one ejection VC (the output VC / wormhole
    /// hold is owned until the tail), so this replaces the old
    /// `HashMap<PacketId, u32>` with a dense `node * vcs + vc` lookup.
    /// A count of 0 means the slot is free. (Node-indexed, hence
    /// shard-split — not part of [`Measurement`].)
    eject_slots: Vec<(PacketId, u32)>,
    /// Per-phase wall-clock attribution (accumulated only when
    /// `cfg.phase_timing` is set).
    phases: PhaseNanos,
    /// The compiled fault plan (`None` on a healthy network — every
    /// fault hook is behind this option, so an empty plan runs exactly
    /// the healthy code).
    fault: Option<FaultModel>,
    /// Clip-at-head state per (node, output port, VC) — the fate a head
    /// flit decided at a link, held until its tail passes. Node-indexed
    /// (shard-split; untouched by rebalancing migration, which only
    /// re-homes due-cycle state).
    clip_out: Vec<ClipSlot>,
    /// Clip-at-head state per (node, injection VC) — a source holds one
    /// packet per VC but interleaves packets across its VCs.
    clip_in: Vec<ClipSlot>,
    /// Per-node drop counters by reason (node = where the drop
    /// happened; shard-split, order-independent sums).
    drops: Vec<DropStats>,
}

/// Measurement state. All of it is index-addressed — no hash structure
/// anywhere in the per-cycle path.
#[derive(Debug)]
struct Measurement {
    /// Per source node, the half-open `[lo, hi)` range of packet
    /// sequence numbers belonging to the tagged sample. Tagging is by
    /// creation order while a global monotone counter is below the
    /// sample size, so each node's tagged seqs are contiguous — a range
    /// replaces the old `HashSet<PacketId>` exactly.
    tagged_ranges: Vec<(u64, u64)>,
    tagged_created: u64,
    tagged_done: u64,
    latency: LatencyStats,
    histogram: Histogram,
    channel_load: ChannelLoad,
    flits_ejected: u64,
    measured_flits: u64,
    measure_start: Option<u64>,
    /// Telemetry state, allocated only when
    /// [`NetworkConfig::with_telemetry`] is set. Lives inside
    /// `Measurement` because every mutation happens in the serial
    /// commit or at an epoch boundary, with no shard computing.
    telemetry: Option<Box<TelemetryState>>,
}

impl Measurement {
    /// Tags `id` if the sample is still filling (call in creation
    /// order).
    #[inline]
    fn tag_created(&mut self, id: PacketId, now: u64, cfg: &NetworkConfig) {
        if self.tagged_created < cfg.sample_packets {
            let seq = packet_seq(id);
            let range = &mut self.tagged_ranges[packet_source(id)];
            if range.0 == range.1 {
                *range = (seq, seq + 1);
            } else {
                debug_assert_eq!(seq, range.1, "non-contiguous tagged seq");
                range.1 = seq + 1;
            }
            self.tagged_created += 1;
            if self.measure_start.is_none() {
                self.measure_start = Some(now);
            }
        }
    }

    /// Records a tail ejection at cycle `now` of a packet created at
    /// `created` and delivered to `dest`, if it belongs to the tagged
    /// sample.
    #[inline]
    fn record_tail(&mut self, packet: PacketId, created: u64, now: u64, dest: usize) {
        let (lo, hi) = self.tagged_ranges[packet_source(packet)];
        let seq = packet_seq(packet);
        if (lo..hi).contains(&seq) {
            self.tagged_done += 1;
            self.latency.record(now - created);
            self.histogram.record(now - created);
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.flows.record(packet_source(packet), dest, now - created);
            }
        }
    }

    /// Resolves a tagged packet whose head the fault layer dropped: the
    /// sample must not wait for a tail that will never eject. Counts the
    /// packet done without contributing a latency observation.
    #[inline]
    fn record_dropped(&mut self, packet: PacketId) {
        let (lo, hi) = self.tagged_ranges[packet_source(packet)];
        let seq = packet_seq(packet);
        if (lo..hi).contains(&seq) {
            self.tagged_done += 1;
        }
    }

    /// Whether the tagged sample of `sample` packets has been fully
    /// created and received.
    fn sample_complete(&self, sample: u64) -> bool {
        self.tagged_created >= sample && self.tagged_done >= self.tagged_created
    }

    /// The serial measurement commit of cycle `now`: drains every
    /// shard's records **in shard (= node) order** — tagging first (the
    /// source phase precedes every ejection), then the floating-point
    /// latency accumulators and channel-load counters. This is the only
    /// place per-shard state is merged, and it never depends on thread
    /// completion order.
    fn commit(&mut self, cfg: &NetworkConfig, now: u64, outs: &[Mutex<ShardOut>]) {
        let measuring = now >= cfg.warmup_cycles;
        // Tagging first: sources create packets before any ejection of
        // the same cycle is observed. (A packet created this cycle cannot
        // eject this cycle — every path has ≥ 1 cycle of link latency —
        // but the measure_start transition must see the source-phase
        // state.)
        for out in outs {
            let mut o = out.lock().expect("shard out poisoned");
            for id in o.created.drain(..) {
                if measuring {
                    self.tag_created(id, now, cfg);
                }
            }
        }
        // Then the ejection-side accumulators, in shard (= node) order.
        for (lane, out) in outs.iter().enumerate() {
            let mut o = out.lock().expect("shard out poisoned");
            self.flits_ejected += o.ejected;
            if self.measure_start.is_some() {
                self.measured_flits += o.ejected;
            }
            o.ejected = 0;
            for (node, port) in o.loads.drain(..) {
                self.channel_load.record(node as usize, port as usize);
            }
            for (packet, created, dest) in o.tails.drain(..) {
                self.record_tail(packet, created, now, dest as usize);
            }
            // Dropped tagged packets resolve here, after tagging above
            // (a packet clipped at injection the cycle it was created is
            // tagged first). Only a counter — order against tails is
            // immaterial.
            for packet in o.drops.drain(..) {
                self.record_dropped(packet);
            }
            // Telemetry deltas fold in fixed shard order (or just
            // reset, so a later telemetry run never inherits garbage).
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.absorb_shard(lane, &mut o);
            } else {
                o.injected = 0;
                o.ticks = 0;
                o.mail_flits = 0;
                o.mail_credits = 0;
                o.drop_stats = DropStats::default();
                o.span_nanos = [0; 3];
            }
        }
        self.channel_load.tick();
    }

    /// Emits the epoch snapshot if `cycle` — the first cycle not yet
    /// committed — is the telemetry boundary. Runs only while no shard
    /// computes: in the serial section, after a fast-forward grant
    /// (workers then touch only their own shard state), or at the end
    /// of an inline step. No-op without telemetry or away from the
    /// boundary.
    fn telemetry_boundary(&mut self, cycle: u64, fault: Option<&FaultModel>, phases: &PhaseNanos) {
        let Some(t) = self.telemetry.as_deref_mut() else {
            return;
        };
        if cycle != t.next {
            return;
        }
        let counts = BoundaryCounts {
            flits_ejected: self.flits_ejected,
            tagged_created: self.tagged_created,
            tagged_done: self.tagged_done,
            unreachable_pairs: fault.map_or(0, |f| f.unreachable_pairs(cycle)),
        };
        t.emit(cycle, counts, phases);
    }
}

impl Network {
    /// Builds and wires the network described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if [`NetworkConfig::validate`] rejects `cfg`, with the
    /// [`ConfigError`] message; use [`Network::try_new`] to handle the
    /// rejection instead.
    #[must_use]
    pub fn new(cfg: NetworkConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("invalid network configuration: {e}"))
    }

    /// Builds and wires the network described by `cfg`, rejecting
    /// unsimulable configurations instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns whatever [`NetworkConfig::validate`] reports: a torus
    /// without dateline VCs, a turn-model adaptive algorithm outside its
    /// domain, or a topology beyond the route table's compact encoding.
    pub fn try_new(cfg: NetworkConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let mesh = &cfg.mesh;
        let nodes = mesh.nodes();
        let ports = mesh.ports();
        let local = mesh.local_port();
        let rcfg = cfg.router_config();
        let buffers = rcfg.buffers_per_vc as u64;

        let links = LinkTable::new(mesh);
        let mut routers: Vec<Router> = (0..nodes).map(|_| Router::new(rcfg)).collect();
        for (node, router) in routers.iter_mut().enumerate() {
            for port in 0..ports {
                if port == local {
                    router.mark_sink(port);
                } else if links.is_wired(node, port) {
                    router.set_output_credits(port, buffers);
                } else {
                    router.set_output_credits(port, 0); // mesh edge
                }
            }
        }

        let rate = cfg.packets_per_node_cycle();
        let sources = (0..nodes)
            .map(|node| Source::new(node, rate, cfg.packet_len, rcfg.vcs, buffers, cfg.seed))
            .collect();

        let route_table = RouteTable::new(mesh, cfg.routing, rcfg.vcs);
        let fault = FaultModel::new(&cfg, &route_table);
        let credit_latency = cfg.credit_prop_delay + cfg.credit_proc_delay - 1;

        // Horizon: a message emitted during cycle `t` arrives at
        // `t + 1 + latency`, so the calendars must reach that far ahead.
        let horizon = 1 + cfg.link_delay.max(credit_latency) + 1;
        let channel_load = ChannelLoad::new(&cfg.mesh);
        let vcs = cfg.router.vcs();
        // The one-shard engines ignore the rebalance knob.
        let (shard_count, rebalance) = match cfg.engine {
            EngineKind::ParallelShards { shards } => (shards, cfg.rebalance),
            EngineKind::CycleDriven | EngineKind::EventDriven => (1, None),
        };
        let shards = ShardSet::new(&cfg.mesh, shard_count, horizon, rebalance);
        // One trace lane per effective shard (the partition may clamp
        // below the requested count).
        let lanes = shards.ranges.len();
        let telemetry = cfg.telemetry.map(|t| {
            Box::new(TelemetryState::new(
                t.epoch,
                nodes,
                cfg.sample_packets,
                lanes,
                cfg.phase_timing,
            ))
        });
        Ok(Network {
            cfg,
            routers,
            sources,
            route_table,
            links,
            now: 0,
            credit_latency,
            router_active: vec![false; nodes],
            shards,
            meas: Measurement {
                tagged_ranges: vec![(0, 0); nodes],
                tagged_created: 0,
                tagged_done: 0,
                latency: LatencyStats::new(),
                histogram: Histogram::new(10, 500),
                channel_load,
                flits_ejected: 0,
                measured_flits: 0,
                measure_start: None,
                telemetry,
            },
            eject_slots: vec![(PacketId::new(0), 0); nodes * vcs],
            phases: PhaseNanos::default(),
            fault,
            // Always allocated (cheap, and keeps the shard split uniform
            // whether or not a fault plan is present).
            clip_out: vec![ClipSlot::default(); nodes * ports * vcs],
            clip_in: vec![ClipSlot::default(); nodes * vcs],
            drops: vec![DropStats::default(); nodes],
        })
    }

    /// The configuration being simulated.
    #[must_use]
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// Per-channel flit counts observed so far.
    #[must_use]
    pub fn channel_load(&self) -> &ChannelLoad {
        &self.meas.channel_load
    }

    /// Total source backlog in packets (diagnostic). Past saturation the
    /// count grows without bound, but memory does not: a source keeps
    /// only the count and replays waiting packets from a cursor (see
    /// [`crate::source`]).
    #[must_use]
    pub fn total_backlog(&self) -> usize {
        self.sources.iter().map(Source::backlog).sum()
    }

    /// Shard migrations performed so far (nonzero only under
    /// [`EngineKind::ParallelShards`] with
    /// [`NetworkConfig::with_rebalance`] set and an imbalance above its
    /// threshold).
    #[must_use]
    pub fn rebalances(&self) -> u64 {
        self.phases.rebalances
    }

    /// Advances the network one cycle, executing the shards inline on
    /// the calling thread: each phase runs on every shard in index
    /// order, so the result is identical to the threaded
    /// [`Network::run`] loop by construction (cross-shard interaction
    /// happens only through the round-separated mailboxes either way).
    /// Quiescence fast-forward is a run-loop optimization and never
    /// fires here, where callers expect cycle granularity.
    pub fn step(&mut self) {
        let now = self.now;
        let vcs = self.cfg.router.vcs();
        let pv = self.cfg.mesh.ports() * vcs;
        let set = &mut self.shards;
        let rb_epoch = set.rebalance.map_or(0, |rb| rb.epoch);
        let mut stamps = self.cfg.phase_timing.then(|| [Instant::now(); 5]);
        {
            let env = ShardEnv {
                mesh: self.cfg.mesh,
                pattern: &self.cfg.pattern,
                route_table: &self.route_table,
                links: &self.links,
                fault: self.fault.as_ref(),
                node_shard: &set.node_shard,
                link_delay: self.cfg.link_delay,
                credit_latency: self.credit_latency,
                packet_len: self.cfg.packet_len,
                vcs,
                mail: &set.mail,
                outs: &set.outs,
                rebalance_epoch: rb_epoch,
                trace: self.cfg.phase_timing && self.meas.telemetry.is_some(),
                tick_all: self.cfg.engine == EngineKind::CycleDriven,
            };
            // A shard's disjoint view, re-borrowed per phase call (the
            // macro keeps the borrows field-granular).
            macro_rules! ctx {
                ($s:expr) => {{
                    let (lo, hi) = set.ranges[$s];
                    ShardCtx {
                        idx: $s,
                        lo,
                        routers: &mut self.routers[lo..hi],
                        sources: &mut self.sources[lo..hi],
                        eject_slots: &mut self.eject_slots[lo * vcs..hi * vcs],
                        clip_out: &mut self.clip_out[lo * pv..hi * pv],
                        clip_in: &mut self.clip_in[lo * vcs..hi * vcs],
                        drops: &mut self.drops[lo..hi],
                        active: &mut self.router_active[lo..hi],
                        aux: &mut set.aux[$s],
                        work_epoch: ShardSet::meter(&mut set.work_epoch, lo, hi),
                        work_ewma: ShardSet::meter(&mut set.work_ewma, lo, hi),
                    }
                }};
            }
            let shards = set.ranges.len();
            for phase in 0..3 {
                for s in 0..shards {
                    ctx!(s).run_phase(&env, now, phase);
                }
                mark(&mut stamps, phase + 1);
            }
            if rb_epoch != 0 {
                for s in 0..shards {
                    if let Some(total) = ctx!(s).end_cycle(rb_epoch) {
                        set.rebal.epoch_totals[s] = total;
                    }
                }
            }
        }
        self.meas.commit(&self.cfg, now, &set.outs);
        if let Some(rb) = set.rebalance {
            // At an epoch boundary, meter the shards' published work
            // totals; above the threshold, recut and migrate.
            let exec = set.aux[0].executed;
            if exec.is_multiple_of(rb.epoch)
                && set.rebal.record_epoch(&mut self.phases, exec, rb.threshold)
            {
                set.recut(&self.cfg.mesh, &mut self.phases, exec);
            }
        }
        mark(&mut stamps, 4);
        if let Some(t) = stamps {
            // Delivery, sources, router, stats — there is no gate on the
            // inline path.
            self.phases.accumulate(t[0], t[1], t[2], t[3], t[4]);
        }
        self.now = now + 1;
        self.meas
            .telemetry_boundary(self.now, self.fault.as_ref(), &self.phases);
    }

    /// The threaded run loop: a scoped worker pool (one thread per shard
    /// beyond the coordinator, which doubles as shard 0's worker; none
    /// with one shard) in lockstep rounds of **one gate episode each**.
    /// At the gate the coordinator — while every worker is parked —
    /// commits the previous cycle's measurement records in node order,
    /// then either stops, grants a quiescence fast-forward (all shards
    /// voted their next work later than the coming cycle; the skipped
    /// cycles execute no phases and wait at no gate — never under the
    /// cycle-driven reference), or releases the workers into the next
    /// fused compute phase.
    ///
    /// The pool runs in **eras**: when a rebalance decision fires at an
    /// epoch gate (see [`crate::shard`]), the era ends — workers return,
    /// their borrowed shard views die, the coordinator migrates the flat
    /// state onto the new partition, and a fresh pool is spawned. A new
    /// era's first round always executes (never skips): re-running a
    /// possibly quiescent cycle is exactly what the cycle-driven
    /// reference would do, so nothing is lost but a round.
    ///
    /// Advances the network until the sample completes, `max_cycles` is
    /// hit, or the cancellation token (polled every [`CANCEL_BATCH`]
    /// cycles on the coordinator; fast-forwards are clamped to batch
    /// boundaries so no poll is skipped) is poisoned — the return value
    /// is true for that last case.
    fn run_lockstep(&mut self) -> bool {
        let cfg = &self.cfg;
        let vcs = cfg.router.vcs();
        let pv = cfg.mesh.ports() * vcs;
        let timing = cfg.phase_timing;
        let max_cycles = cfg.max_cycles;
        let tick_all = cfg.engine == EngineKind::CycleDriven;
        let set = &mut self.shards;
        let rebalance = set.rebalance;
        // Span tracing: shards stamp phase durations only when both the
        // clock reads (phase timing) and somewhere to put them
        // (telemetry) exist.
        let tracing = timing && self.meas.telemetry.is_some();
        // Epoch boundaries a leader decision has already consumed — a
        // post-fast-forward gate sees the same executed count again and
        // must not re-decide it.
        let mut epoch_handled = 0u64;

        loop {
            let start_now = self.now;
            let lockstep = Lockstep::new(set.ranges.len(), start_now);
            let fault = self.fault.as_ref();
            let env = ShardEnv {
                mesh: cfg.mesh,
                pattern: &cfg.pattern,
                route_table: &self.route_table,
                links: &self.links,
                fault,
                node_shard: &set.node_shard,
                link_delay: cfg.link_delay,
                credit_latency: self.credit_latency,
                packet_len: cfg.packet_len,
                vcs,
                mail: &set.mail,
                outs: &set.outs,
                rebalance_epoch: rebalance.map_or(0, |rb| rb.epoch),
                trace: tracing,
                tick_all,
            };
            let ctxs = split_shards(
                &set.ranges,
                vcs,
                pv,
                &mut self.routers,
                &mut self.sources,
                &mut self.eject_slots,
                &mut self.clip_out,
                &mut self.clip_in,
                &mut self.drops,
                &mut self.router_active,
                &mut set.aux,
                &mut set.work_epoch,
                &mut set.work_ewma,
            );
            let meas = &mut self.meas;
            let phases = &mut self.phases;
            let rebal = &mut set.rebal;
            let epoch_handled = &mut epoch_handled;

            let (final_now, end) = std::thread::scope(|scope| {
                let mut ctx_iter = ctxs.into_iter();
                let mut ctx0 = ctx_iter.next().expect("at least one shard");
                for ctx in ctx_iter {
                    let (env, lockstep) = (&env, &lockstep);
                    scope.spawn(move || worker_loop(ctx, env, lockstep, start_now));
                }
                // The coordinator is shard 0's worker; if it panics (e.g.
                // a conservation assert), poison the lockstep so the
                // workers panic out of their gate waits instead of
                // spinning forever.
                let _guard = PoisonGuard(&lockstep.gate);
                let mut now = start_now;
                // No cycle has executed yet this era: nothing to commit,
                // no votes to read, and the first round must run (not
                // skip).
                let mut executed = false;
                let mut pending_commit = start_now;
                let mut quiet_until = start_now;
                let end = loop {
                    let mut stamps = timing.then(|| [Instant::now(); 6]);
                    lockstep.gate.wait_followers();
                    mark(&mut stamps, 1);
                    // ---- serial section: every worker is parked ----
                    if executed {
                        meas.commit(cfg, pending_commit, env.outs);
                        quiet_until = lockstep.take_vote();
                        // The commit completed cycle `pending_commit`,
                        // so the stream boundary is the cycle after it.
                        meas.telemetry_boundary(pending_commit + 1, fault, phases);
                    }
                    let finished = now >= max_cycles || meas.sample_complete(cfg.sample_packets);
                    let cancel_due = !finished
                        && now.is_multiple_of(CANCEL_BATCH)
                        && cfg.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
                    if finished || cancel_due {
                        lockstep.stop.store(true, Ordering::Release);
                        lockstep.gate.release();
                        break EraEnd::Done {
                            cancelled: cancel_due,
                        };
                    }
                    if executed {
                        if let Some(rb) = rebalance {
                            let exec = ctx0.aux.executed;
                            if exec > *epoch_handled && exec.is_multiple_of(rb.epoch) {
                                *epoch_handled = exec;
                                let totals = rebal.epoch_totals.iter_mut();
                                for (t, w) in totals.zip(&lockstep.shard_work) {
                                    *t = w.load(Ordering::Acquire);
                                }
                                if rebal.record_epoch(phases, exec, rb.threshold) {
                                    // End the era: the migration needs
                                    // the flat state the workers' shard
                                    // views currently borrow.
                                    lockstep.stop.store(true, Ordering::Release);
                                    lockstep.gate.release();
                                    break EraEnd::Rebalance { executed: exec };
                                }
                            }
                        }
                    }
                    // The cycle-driven reference never skips.
                    let mut target = if tick_all {
                        now
                    } else {
                        quiet_until.min(max_cycles)
                    };
                    if let Some(fm) = fault {
                        // A scheduled fault is a wake-up event: never
                        // jump over a kill or a flaky edge, whose cycle
                        // changes what in-flight traffic would do.
                        target = target.min(fm.next_transition_at_or_after(now));
                    }
                    if cfg.cancel.is_some() {
                        // Never jump a cancellation poll point.
                        target = target.min((now / CANCEL_BATCH + 1) * CANCEL_BATCH);
                    }
                    if let Some(t) = meas.telemetry.as_deref() {
                        // Epoch boundaries are wake-up points: land on
                        // them exactly so every engine snapshots at the
                        // same cycles.
                        target = target.min(t.next);
                    }
                    if target > now {
                        // Fast-forward round: cycles [now, target) are
                        // provably no-ops for every shard. The only
                        // global per-cycle effect is the channel-load
                        // window.
                        let skipped = target - now;
                        meas.channel_load.tick_n(skipped);
                        phases.fast_forwarded += skipped;
                        lockstep.skip_to.store(target, Ordering::Release);
                        executed = false;
                        lockstep.gate.release();
                        ctx0.fast_forward(now, target);
                        now = target;
                        // A clamped jump can land exactly on the epoch
                        // boundary; the skipped cycles changed no
                        // counter, so snapshotting here is bit-identical
                        // to having stepped through them.
                        meas.telemetry_boundary(now, fault, phases);
                        continue;
                    }
                    lockstep.skip_to.store(now, Ordering::Release);
                    executed = true;
                    pending_commit = now;
                    lockstep.gate.release();
                    // ---- fused compute phase, shard 0's share ----
                    mark(&mut stamps, 2);
                    ctx0.run_phase(&env, now, 0);
                    mark(&mut stamps, 3);
                    ctx0.run_phase(&env, now, 1);
                    mark(&mut stamps, 4);
                    ctx0.run_phase(&env, now, 2);
                    ctx0.finish_cycle(&env, &lockstep);
                    ctx0.vote(&lockstep, now);
                    mark(&mut stamps, 5);
                    if let Some(t) = stamps {
                        phases.accumulate_parallel(&t);
                    }
                    now += 1;
                };
                (now, end)
            });
            self.now = final_now;
            match end {
                EraEnd::Done { cancelled } => return cancelled,
                EraEnd::Rebalance { executed } => {
                    set.recut(&cfg.mesh, &mut self.phases, executed);
                }
            }
        }
    }

    /// Whether the tagged sample has been fully created and received.
    #[must_use]
    pub fn sample_complete(&self) -> bool {
        self.meas.sample_complete(self.cfg.sample_packets)
    }

    /// Router ticks executed so far (work accounting; the event-driven
    /// and sharded-parallel engines execute fewer than `cycles × nodes`).
    #[must_use]
    pub fn router_ticks(&self) -> u64 {
        self.shards.router_ticks()
    }

    /// Total flits injected by all sources so far.
    #[must_use]
    pub fn flits_injected(&self) -> u64 {
        self.sources.iter().map(|s| s.flits_injected).sum()
    }

    /// Total flits ejected at their destinations so far.
    #[must_use]
    pub fn flits_ejected(&self) -> u64 {
        self.meas.flits_ejected
    }

    /// Flits currently on a wire (emitted onto a link, not yet
    /// delivered).
    #[must_use]
    pub fn flits_in_flight(&self) -> u64 {
        self.shards.flits_in_flight()
    }

    /// Flits currently buffered inside routers.
    #[must_use]
    pub fn flits_buffered(&self) -> u64 {
        self.routers.iter().map(|r| r.buffered_flits() as u64).sum()
    }

    /// Total flits dropped by the fault layer so far (0 on a healthy
    /// network).
    #[must_use]
    pub fn flits_dropped(&self) -> u64 {
        self.drops.iter().map(DropStats::total_flits).sum()
    }

    /// Drop counters by reason, aggregated over all nodes.
    #[must_use]
    pub fn drop_stats(&self) -> DropStats {
        let mut total = DropStats::default();
        for d in &self.drops {
            total.merge(d);
        }
        total
    }

    /// Asserts the flit-conservation invariant: every flit a source
    /// injected is either ejected at its destination, on a wire,
    /// buffered in a router, or was dropped by the fault layer (with
    /// its credit reclaimed) — nothing is duplicated or silently lost.
    /// Holds at every cycle boundary; [`Network::run`] checks it once
    /// at the end of every run.
    ///
    /// # Panics
    ///
    /// Panics if the books do not balance.
    pub fn assert_flit_conservation(&self) {
        let injected = self.flits_injected();
        let ejected = self.flits_ejected();
        let in_flight = self.flits_in_flight();
        let buffered = self.flits_buffered();
        let dropped = self.flits_dropped();
        assert_eq!(
            injected,
            ejected + in_flight + buffered + dropped,
            "flit conservation violated at cycle {}: injected {injected} != \
             ejected {ejected} + in-flight {in_flight} + buffered {buffered} \
             + dropped {dropped}",
            self.now
        );
    }

    /// Runs the full protocol: warm-up, tagged sample, drain; returns the
    /// measurements. Hitting `max_cycles` first marks the run saturated.
    ///
    /// Under [`EngineKind::ParallelShards`] the run executes on a
    /// persistent scoped worker pool (one thread per shard); the result
    /// is bit-identical to the one-shard engines regardless of shard
    /// count or thread schedule.
    pub fn run(mut self) -> RunResult {
        let cancelled = self.run_lockstep();
        self.assert_flit_conservation();
        let saturated = !self.sample_complete();
        let span = self
            .meas
            .measure_start
            .map_or(1, |s| self.now.saturating_sub(s).max(1));
        let per_node_cycle =
            self.meas.measured_flits as f64 / (span as f64 * self.cfg.mesh.nodes() as f64);
        let mut router_stats = router_core::RouterStats::default();
        for r in &self.routers {
            router_stats.merge(r.stats());
        }
        let drops = self.drop_stats();
        let injected = self.flits_injected();
        let delivered_ratio = if injected == 0 {
            1.0
        } else {
            self.meas.flits_ejected as f64 / injected as f64
        };
        let node_drops = std::mem::take(&mut self.drops);
        let (metrics, flow_stats, trace) = match self.meas.telemetry.take() {
            Some(t) => {
                let (metrics, flows, trace) = t.into_parts();
                (Some(metrics), Some(flows), trace)
            }
            None => (None, None, None),
        };
        RunResult {
            offered: self.cfg.injection_fraction,
            avg_latency: self.meas.latency.mean(),
            stats: self.meas.latency.clone(),
            saturated,
            cycles: self.now,
            accepted: per_node_cycle / self.cfg.mesh.capacity_flits_per_node(),
            flits_ejected: self.meas.flits_ejected,
            histogram: self.meas.histogram.clone(),
            router_stats,
            work: EngineWork {
                cycles: self.now,
                router_ticks: self.router_ticks(),
                router_ticks_possible: self.now * self.cfg.mesh.nodes() as u64,
            },
            phases: self.cfg.phase_timing.then_some(self.phases),
            cancelled,
            dropped_flits: drops.total_flits(),
            dropped_packets: drops.total_packets(),
            drops,
            unreachable_pairs: self
                .fault
                .as_ref()
                .map_or(0, |f| f.unreachable_pairs(self.now)),
            delivered_ratio,
            node_drops,
            flow_stats,
            metrics,
            trace,
        }
    }

    /// Attaches a streaming metrics tap: every epoch snapshot is
    /// forwarded to `tap` as it is taken, from the thread that owns the
    /// serial section (the retained [`RunResult::metrics`] log is
    /// collected either way).
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no telemetry — set
    /// [`NetworkConfig::with_telemetry`] first.
    pub fn set_metrics_tap(&mut self, tap: Box<dyn MetricsTap + Send>) {
        self.meas
            .telemetry
            .as_deref_mut()
            .expect("set_metrics_tap requires with_telemetry(epoch)")
            .set_stream(tap);
    }
}

/// Why one worker-pool era of the threaded sharded run ended.
enum EraEnd {
    /// The run is over (cycle limit, sample drained, or cancellation).
    Done { cancelled: bool },
    /// A rebalance decision fired at this executed-cycle count; the
    /// coordinator migrates and spawns a fresh pool.
    Rebalance { executed: u64 },
}

/// Records a phase-boundary timestamp when phase timing is enabled
/// (no clock read otherwise).
#[inline]
fn mark<const N: usize>(stamps: &mut Option<[Instant; N]>, i: usize) {
    if let Some(t) = stamps.as_mut() {
        t[i] = Instant::now();
    }
}

/// Splits the network's flat per-node state into disjoint per-shard
/// views along `ranges` (which are contiguous and cover all nodes).
#[allow(clippy::too_many_arguments)]
fn split_shards<'a>(
    ranges: &[(usize, usize)],
    vcs: usize,
    pv: usize,
    mut routers: &'a mut [Router],
    mut sources: &'a mut [Source],
    mut eject_slots: &'a mut [(PacketId, u32)],
    mut clip_out: &'a mut [ClipSlot],
    mut clip_in: &'a mut [ClipSlot],
    mut drops: &'a mut [DropStats],
    mut active: &'a mut [bool],
    aux: &'a mut [crate::shard::ShardAux],
    mut work_epoch: &'a mut [u64],
    mut work_ewma: &'a mut [u64],
) -> Vec<ShardCtx<'a>> {
    // The work meters are empty when rebalancing is off.
    let metering = !work_epoch.is_empty();
    let mut ctxs = Vec::with_capacity(ranges.len());
    let mut aux_iter = aux.iter_mut();
    for (idx, &(lo, hi)) in ranges.iter().enumerate() {
        let n = hi - lo;
        let (r, rest) = std::mem::take(&mut routers).split_at_mut(n);
        routers = rest;
        let (s, rest) = std::mem::take(&mut sources).split_at_mut(n);
        sources = rest;
        let (e, rest) = std::mem::take(&mut eject_slots).split_at_mut(n * vcs);
        eject_slots = rest;
        let (co, rest) = std::mem::take(&mut clip_out).split_at_mut(n * pv);
        clip_out = rest;
        let (ci, rest) = std::mem::take(&mut clip_in).split_at_mut(n * vcs);
        clip_in = rest;
        let (d, rest) = std::mem::take(&mut drops).split_at_mut(n);
        drops = rest;
        let (a, rest) = std::mem::take(&mut active).split_at_mut(n);
        active = rest;
        let m = if metering { n } else { 0 };
        let (we, rest) = std::mem::take(&mut work_epoch).split_at_mut(m);
        work_epoch = rest;
        let (ww, rest) = std::mem::take(&mut work_ewma).split_at_mut(m);
        work_ewma = rest;
        ctxs.push(ShardCtx {
            idx,
            lo,
            routers: r,
            sources: s,
            eject_slots: e,
            clip_out: co,
            clip_in: ci,
            drops: d,
            active: a,
            aux: aux_iter.next().expect("one aux per shard"),
            work_epoch: we,
            work_ewma: ww,
        });
    }
    ctxs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RouterKind;

    fn quick(cfg: NetworkConfig) -> RunResult {
        Network::new(cfg).run()
    }

    fn low_load(kind: RouterKind) -> NetworkConfig {
        NetworkConfig::mesh(8, kind)
            .with_injection(0.05)
            .with_warmup(300)
            .with_sample(300)
            .with_max_cycles(30_000)
    }

    #[test]
    fn wormhole_zero_load_latency_close_to_paper() {
        let r = quick(low_load(RouterKind::Wormhole { buffers: 8 }));
        assert!(!r.saturated);
        let lat = r.avg_latency.expect("sample completed");
        // Paper: 29 cycles at zero load on the 8×8 mesh.
        assert!((26.0..33.0).contains(&lat), "WH zero-load latency {lat}");
    }

    #[test]
    fn vc_zero_load_latency_close_to_paper() {
        let r = quick(low_load(RouterKind::VirtualChannel {
            vcs: 2,
            buffers_per_vc: 4,
        }));
        let lat = r.avg_latency.expect("sample completed");
        // Paper: 36 cycles (one extra stage per hop). Our credit-loop
        // accounting charges the uncovered 4-buffer credit loop ~2 cycles
        // more at the source than the paper's.
        assert!((33.0..41.0).contains(&lat), "VC zero-load latency {lat}");
    }

    #[test]
    fn spec_zero_load_matches_wormhole() {
        let wh = quick(low_load(RouterKind::Wormhole { buffers: 8 }));
        let spec = quick(low_load(RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: 4,
        }));
        let (a, b) = (wh.avg_latency.unwrap(), spec.avg_latency.unwrap());
        // Paper: 29 vs 30 — the speculative router pays ~1 cycle because 4
        // buffers/VC do not quite cover the credit loop (footnote 15); our
        // credit accounting charges ~2. Same pipeline depth otherwise.
        assert!(b >= a - 0.5, "specVC cannot beat WH: {a} vs {b}");
        assert!(b - a < 4.0, "specVC must stay close to WH: {a} vs {b}");
    }

    #[test]
    fn single_cycle_zero_load_close_to_paper() {
        let cfg = low_load(RouterKind::VirtualChannel {
            vcs: 2,
            buffers_per_vc: 4,
        })
        .with_single_cycle(true);
        let lat = quick(cfg).avg_latency.expect("completes");
        // Paper: 16 cycles for the unit-latency model.
        assert!((13.0..19.0).contains(&lat), "unit-latency model {lat}");
    }

    #[test]
    fn all_flits_accounted_for() {
        let cfg = NetworkConfig::mesh(
            4,
            RouterKind::SpeculativeVc {
                vcs: 2,
                buffers_per_vc: 4,
            },
        )
        .with_injection(0.3)
        .with_warmup(100)
        .with_sample(200)
        .with_max_cycles(20_000);
        let r = quick(cfg);
        assert!(!r.saturated);
        // Untagged packets may still be mid-flight when the run stops, but
        // at least the tagged sample's flits were all delivered.
        assert!(r.flits_ejected >= 200 * 5);
    }

    #[test]
    fn overdriven_network_saturates() {
        let cfg = NetworkConfig::mesh(4, RouterKind::Wormhole { buffers: 4 })
            .with_injection(2.0) // 200% of capacity
            .with_warmup(100)
            .with_sample(2_000)
            .with_max_cycles(4_000);
        let r = quick(cfg);
        assert!(r.accepted < 1.2, "cannot accept far beyond capacity");
        let p: crate::sweep::LoadPoint = r.into();
        assert!(p.saturated, "accepted must fall short of 2x capacity");
    }

    #[test]
    fn accepted_tracks_offered_below_saturation() {
        let cfg = NetworkConfig::mesh(
            4,
            RouterKind::VirtualChannel {
                vcs: 2,
                buffers_per_vc: 4,
            },
        )
        .with_injection(0.2)
        .with_warmup(200)
        .with_sample(400)
        .with_max_cycles(40_000);
        let r = quick(cfg);
        assert!(!r.saturated);
        assert!(
            (r.accepted - 0.2).abs() < 0.08,
            "accepted {:.3} vs offered 0.2",
            r.accepted
        );
    }

    #[test]
    fn transpose_fixed_points_keep_throughput_accounting_correct() {
        // On a k×k mesh under transpose, the k diagonal sources are
        // permutation fixed points and send nothing. Accepted throughput
        // must reflect the real traffic — offered load scaled by the
        // (nodes − k) / nodes active fraction — rather than drifting
        // from phantom injections, and the tagged sample must still
        // complete from the active sources alone.
        let offered = 0.2;
        let cfg = NetworkConfig::mesh(
            4,
            RouterKind::VirtualChannel {
                vcs: 2,
                buffers_per_vc: 4,
            },
        )
        .with_injection(offered)
        .with_pattern(crate::traffic::TrafficPattern::Transpose)
        .with_warmup(300)
        .with_sample(300)
        .with_max_cycles(60_000);
        let r = quick(cfg);
        assert!(!r.saturated);
        assert_eq!(r.stats.count(), 300, "sample completes without diagonals");
        let active_fraction = (16.0 - 4.0) / 16.0;
        let expected = offered * active_fraction;
        assert!(
            (r.accepted - expected).abs() < 0.05,
            "accepted {:.3} vs expected {:.3} (offered {offered} × {active_fraction})",
            r.accepted,
            expected
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            NetworkConfig::mesh(
                4,
                RouterKind::SpeculativeVc {
                    vcs: 2,
                    buffers_per_vc: 4,
                },
            )
            .with_injection(0.25)
            .with_warmup(100)
            .with_sample(150)
            .with_max_cycles(20_000)
            .with_seed(99)
        };
        let a = quick(mk());
        let b = quick(mk());
        assert_eq!(a.avg_latency, b.avg_latency);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.flits_ejected, b.flits_ejected);
    }
}
