//! The workloads: their configurations, the correctness gate, and one
//! measured repetition of each.
//!
//! Every workload is a fixed amount of simulated work — a load grid or a
//! single run of stated size — driven only through the simulator's public
//! calls: `Network::try_new` / `Network::run`, and `runqueue::run_batch`
//! with `NetworkRunner` for the sweep.

use crate::out::{Json, Spans};
use noc_network::config::EngineKind;
use noc_network::stats::EngineWork;
use noc_network::{
    LoadPoint, Network, NetworkConfig, NetworkRunner, PhaseNanos, RouterKind, RunResult,
    TrafficPattern,
};
use router_core::RouterStats;
use runqueue::{
    run_batch, CancelToken, JobConfig, JobSpec, MemorySink, PointKey, PointRecord, PointRunner,
};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// The paper's headline router: speculative VC, 2 VCs × 4 flit buffers.
const SPEC_VC: RouterKind = RouterKind::SpeculativeVc {
    vcs: 2,
    buffers_per_vc: 4,
};

/// The repository's default seed. The simulated results reported as
/// `sim_*` and checked against [`Workload::reference_digest`] are taken
/// at this seed, so they repeat exactly whatever `--seed` the timed runs
/// use.
pub const REFERENCE_SEED: u64 = 0x5EED;

/// Telemetry snapshot period the run queue's `NetworkRunner` applies.
const RUNNER_TELEMETRY_EPOCH: u64 = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's latency–throughput experiment on an 8×8 mesh: a load
    /// grid from 0.1 of capacity to just past saturation (≈ 0.6), run as
    /// one `run_batch` on two workers with telemetry on, as `runq` runs
    /// it.
    Sweep,
    /// An 8×8 hotspot (node 59, hotness 0.5) at 0.5 load, run to its
    /// cycle limit: every router ticks every cycle and nearly every
    /// speculative grant is wasted.
    Hotspot,
    /// A 32×32 mesh at 0.3 load on the two-shard parallel engine: the
    /// only workload on the shard path, with the largest setup. Run on
    /// request and as the shard-layer probe of traced runs (see
    /// `shard_probe` in `main.rs`).
    Shards,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Sweep, Workload::Hotspot, Workload::Shards];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep-8x8",
            Workload::Hotspot => "hotspot-sat-8x8",
            Workload::Shards => "shards-32x32",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The configuration, without load and seed.
    pub fn config(self) -> NetworkConfig {
        match self {
            // The repository's "medium" sweep protocol (`SimScale::medium`).
            Workload::Sweep => NetworkConfig::mesh(8, SPEC_VC)
                .with_warmup(3_000)
                .with_sample(6_000)
                .with_max_cycles(400_000),
            // The hotspot's tagged sample never drains, so the run always
            // ends at the cycle limit: a fixed 20k simulated cycles.
            Workload::Hotspot => NetworkConfig::mesh(8, SPEC_VC)
                .with_pattern(TrafficPattern::Hotspot {
                    hotspot: 59,
                    hotness: 0.5,
                })
                .with_warmup(1_000)
                .with_sample(2_000)
                .with_max_cycles(20_000),
            // A 400-cycle warm-up (four mean packet latencies) keeps each run
            // near 0.3 s: both shards' cores must be free of co-tenant
            // traffic for a whole run to time it cleanly, and short runs
            // find such stretches more often.
            Workload::Shards => NetworkConfig::mesh(32, SPEC_VC)
                .with_engine(EngineKind::parallel(2))
                .with_warmup(400),
        }
    }

    pub fn loads(self) -> Vec<f64> {
        match self {
            Workload::Sweep => vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
            Workload::Hotspot => vec![0.5],
            Workload::Shards => vec![0.3],
        }
    }

    pub fn point(self, load: f64, seed: u64) -> NetworkConfig {
        self.config().with_injection(load).with_seed(seed)
    }

    /// Threads one measured repetition occupies: the sweep's two queue
    /// workers, the two shards, or the one serial run.
    pub fn threads(self) -> usize {
        match self {
            Workload::Sweep | Workload::Shards => 2,
            Workload::Hotspot => 1,
        }
    }

    /// Digest of the simulated statistics at [`REFERENCE_SEED`], as the
    /// simulator produced them when this benchmark was defined. A change
    /// that alters simulated results fails the gate until this value is
    /// updated on purpose.
    pub fn reference_digest(self) -> u64 {
        match self {
            Workload::Sweep => 0x287d_6a5f_e0ae_b568,
            Workload::Hotspot => 0x8d73_72cc_ec10_64e8,
            Workload::Shards => 0x2bb5_c71b_9352_a654,
        }
    }
}

/// The simulated statistics the gate compares, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    pub load: f64,
    pub cycles: u64,
    pub latency: Option<f64>,
    pub accepted: f64,
    pub saturated: bool,
    pub flits_ejected: u64,
    pub router: RouterStats,
}

impl Outcome {
    pub fn of(r: &RunResult) -> Outcome {
        Outcome {
            load: r.offered,
            cycles: r.cycles,
            latency: r.avg_latency,
            accepted: r.accepted,
            // `LoadPoint` owns the saturation rule the sweep reports.
            saturated: LoadPoint::from(r.clone()).saturated,
            flits_ejected: r.flits_ejected,
            router: r.router_stats,
        }
    }

    /// The fields that differ from `other`, compared as bits.
    fn diff(&self, other: &Outcome) -> Vec<&'static str> {
        let mut d = Vec::new();
        if self.cycles != other.cycles {
            d.push("cycles");
        }
        if self.latency.map(f64::to_bits) != other.latency.map(f64::to_bits) {
            d.push("latency");
        }
        if self.accepted.to_bits() != other.accepted.to_bits() {
            d.push("accepted");
        }
        if self.saturated != other.saturated {
            d.push("saturated");
        }
        if self.flits_ejected != other.flits_ejected {
            d.push("flits_ejected");
        }
        if self.router != other.router {
            d.push("router_stats");
        }
        d
    }

    /// Whether a run-queue record carries exactly this outcome (records
    /// hold no flit or router counts).
    fn matches(&self, rec: &PointRecord) -> bool {
        rec.cycles == self.cycles
            && rec.latency.map(f64::to_bits) == self.latency.map(f64::to_bits)
            && rec.accepted.to_bits() == self.accepted.to_bits()
            && rec.saturated == self.saturated
    }
}

/// FNV-1a over the gate's statistics of every point, in grid order.
pub fn digest(points: &[Outcome]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for p in points {
        let r = &p.router;
        for v in [
            p.load.to_bits(),
            p.cycles,
            p.latency.map_or(u64::MAX, f64::to_bits),
            p.accepted.to_bits(),
            u64::from(p.saturated),
            p.flits_ejected,
            r.flits_switched,
            r.va_grants,
            r.sa_grants,
            r.spec_requests,
            r.spec_hits,
            r.spec_wasted,
            r.credits_sent,
        ] {
            fold(v);
        }
    }
    h
}

/// Runs one configuration to completion. A run fails if the
/// configuration is rejected, the simulator panics, or the run is
/// cancelled.
fn run_checked(cfg: NetworkConfig) -> Result<RunResult, String> {
    let net = Network::try_new(cfg).map_err(|e| format!("configuration rejected: {e}"))?;
    let r = catch_unwind(AssertUnwindSafe(|| net.run())).map_err(|_| "panicked".to_string())?;
    if r.cancelled {
        return Err("cancelled".into());
    }
    Ok(r)
}

/// Runs `jobs` on at most `threads` scoped threads, results in job order.
fn par_map<T: Send>(jobs: Vec<Box<dyn FnOnce() -> T + Send + '_>>, threads: usize) -> Vec<T> {
    let n = jobs.len();
    let queue = Mutex::new(jobs.into_iter().enumerate().collect::<Vec<_>>());
    let results = Mutex::new((0..n).map(|_| None).collect::<Vec<Option<T>>>());
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let next = queue.lock().expect("job queue poisoned").pop();
                let Some((i, job)) = next else { break };
                let out = job();
                results.lock().expect("result slots poisoned")[i] = Some(out);
            });
        }
    });
    results
        .into_inner()
        .expect("result slots poisoned")
        .into_iter()
        .map(|r| r.expect("every job ran"))
        .collect()
}

/// The tail summary of one run. A percentile beyond the histogram's range
/// is `None` in the library; it prints as `null` with `"saturated": true`
/// beside the true maximum, never as 0. `network_saturated` is the
/// sweep's own verdict on the load point.
fn tails(r: &RunResult, o: &Outcome) -> Json {
    let pct = r.histogram.percentiles();
    let truncated =
        r.histogram.overflow() > 0 && [pct.p50, pct.p95, pct.p99].iter().any(Option::is_none);
    Json::obj([
        ("load", r.offered.into()),
        ("samples", r.stats.count().into()),
        ("p50", Json::opt(pct.p50)),
        ("p95", Json::opt(pct.p95)),
        ("p99", Json::opt(pct.p99)),
        ("saturated", truncated.into()),
        ("max", Json::opt(r.stats.max())),
        ("network_saturated", o.saturated.into()),
    ])
}

/// What the gate established before any timing.
pub struct Gate {
    /// The bench seed's outcome per load, which every timed run must
    /// reproduce exactly.
    pub expected: Vec<Outcome>,
    /// Reference-seed outcomes, checked against the committed digest.
    pub reference: Vec<Outcome>,
    pub digest: u64,
    pub tails: Json,
    pub runs: usize,
    pub failures: Vec<String>,
}

impl Gate {
    /// Mean tagged latency over the reference grid, in cycles.
    pub fn sim_latency(&self) -> f64 {
        let l: Vec<f64> = self.reference.iter().filter_map(|o| o.latency).collect();
        l.iter().sum::<f64>() / l.len().max(1) as f64
    }

    /// Mean accepted throughput over the reference grid, as a fraction of
    /// capacity.
    pub fn sim_accepted(&self) -> f64 {
        let n = self.reference.len().max(1) as f64;
        self.reference.iter().map(|o| o.accepted).sum::<f64>() / n
    }
}

/// The correctness gate: at `seed`, the cycle-driven, event-driven and
/// (for the shard workload) sharded engines must agree bit for bit; at
/// [`REFERENCE_SEED`] the measured engine must reproduce the committed
/// digest.
pub fn gate(w: Workload, seed: u64) -> Gate {
    let loads = w.loads();
    let measured = w.config().engine;
    let mut engines = vec![EngineKind::CycleDriven, EngineKind::EventDriven];
    if measured != EngineKind::EventDriven {
        engines.push(measured);
    }
    // (engine, seed, load) in a fixed order; serial runs share the two
    // threads, a sharded run occupies both on its own.
    let mut plan: Vec<(EngineKind, u64, f64)> = Vec::new();
    for &e in &engines {
        plan.extend(loads.iter().map(|&l| (e, seed, l)));
    }
    plan.extend(loads.iter().map(|&l| (measured, REFERENCE_SEED, l)));
    type Run = ((EngineKind, u64, f64), Result<(Outcome, Json), String>);
    let jobs = |sharded: bool| {
        plan.iter()
            .filter(|(e, _, _)| (e.threads_per_run() > 1) == sharded)
            .map(|&(e, s, l)| {
                let cfg = w.point(l, s).with_engine(e);
                Box::new(move || {
                    let r = run_checked(cfg).map(|r| {
                        let o = Outcome::of(&r);
                        let t = tails(&r, &o);
                        (o, t)
                    });
                    ((e, s, l), r)
                }) as Box<dyn FnOnce() -> Run + Send>
            })
            .collect::<Vec<_>>()
    };
    let mut results: Vec<Run> = par_map(jobs(false), 2);
    results.extend(par_map(jobs(true), 1));

    let mut failures = Vec::new();
    let mut expected = Vec::new();
    let mut reference = Vec::new();
    let mut tail_rows = Vec::new();
    for &l in &loads {
        let at = |s: u64, e: EngineKind| {
            results
                .iter()
                .find(|((re, rs, rl), _)| *re == e && *rs == s && rl.to_bits() == l.to_bits())
                .map(|(_, r)| r.clone())
                .expect("every planned run has a result")
        };
        let base = at(seed, measured);
        for &e in &engines {
            match (at(seed, e), &base) {
                (Err(why), _) => failures.push(format!("load {l} {e}: {why}")),
                (Ok((o, _)), Ok((b, _))) => {
                    let d = o.diff(b);
                    if !d.is_empty() {
                        failures.push(format!("load {l}: {e} differs from {measured} in {d:?}"));
                    }
                }
                (Ok(_), Err(_)) => {}
            }
        }
        if let Ok((o, _)) = base {
            expected.push(o);
        }
        match at(REFERENCE_SEED, measured) {
            Ok((o, t)) => {
                reference.push(o);
                tail_rows.push(t);
            }
            Err(why) => failures.push(format!("load {l} reference seed: {why}")),
        }
    }
    let digest = digest(&reference);
    if failures.is_empty() && digest != w.reference_digest() {
        failures.push(format!(
            "reference digest {digest:#018x} != committed {:#018x}",
            w.reference_digest()
        ));
    }
    Gate {
        expected,
        reference,
        digest,
        tails: Json::Arr(tail_rows),
        runs: plan.len(),
        failures,
    }
}

/// Simulation counts and host-time phase split of the traced runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub nodes: u64,
    pub work: EngineWork,
    pub router: RouterStats,
    pub phases: PhaseNanos,
}

impl Counts {
    fn of(r: &RunResult, nodes: u64) -> Counts {
        Counts {
            nodes,
            work: r.work,
            router: r.router_stats,
            phases: r.phases.unwrap_or_default(),
        }
    }

    pub fn add(&mut self, o: &Counts) {
        self.nodes = o.nodes;
        self.work.cycles += o.work.cycles;
        self.work.router_ticks += o.work.router_ticks;
        self.work.router_ticks_possible += o.work.router_ticks_possible;
        self.router.merge(&o.router);
        let (p, q) = (&mut self.phases, &o.phases);
        p.delivery += q.delivery;
        p.sources += q.sources;
        p.router += q.router;
        p.stats += q.stats;
        p.barrier += q.barrier;
        p.barrier_waits += q.barrier_waits;
        p.fast_forwarded += q.fast_forwarded;
    }

    /// Cycles the engine executed rather than fast-forwarded.
    pub fn executed_cycles(&self) -> u64 {
        self.work.cycles - self.phases.fast_forwarded
    }
}

/// One measured repetition of a workload.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds of the simulation phase (the batch makespan for the
    /// sweep).
    pub run_s: f64,
    /// Per run of the rep: (offered load, host ns, simulated node-cycles).
    pub points: Vec<(f64, f64, f64)>,
    /// Host seconds of each `Network::try_new` timed in this rep.
    pub setups: Vec<f64>,
    pub runs: usize,
    pub failures: Vec<String>,
    /// Counts of the rep's runs (traced reps only).
    pub counts: Option<Counts>,
    /// Run-queue behaviour of a sweep rep: (worker idle %, queue wait s).
    pub queue: Option<(f64, f64)>,
}

/// One point of a batch as the queue worker ran it.
struct PointLog {
    load: f64,
    thread: ThreadId,
    start: Instant,
    end: Instant,
    cycles: u64,
    counts: Option<Counts>,
}

/// Wraps the run queue's point runner with a host-time stamp per point;
/// a traced runner runs the point itself so it can read the engine's
/// phase split, which `NetworkRunner` does not return.
struct PointTimer<'a> {
    spans: Option<&'a Spans>,
    batch_span: u64,
    log: Mutex<Vec<PointLog>>,
}

impl PointRunner<NetworkConfig> for PointTimer<'_> {
    fn run_point(
        &self,
        config: &NetworkConfig,
        seed: u64,
        load: f64,
        cancel: &CancelToken,
    ) -> Option<PointRecord> {
        let start = Instant::now();
        let (rec, counts) = match self.spans {
            None => (
                catch_unwind(AssertUnwindSafe(|| {
                    NetworkRunner.run_point(config, seed, load, cancel)
                }))
                .ok()
                .flatten(),
                None,
            ),
            Some(spans) => traced_point(spans, self.batch_span, config, seed, load, cancel),
        };
        let end = Instant::now();
        self.log.lock().expect("point log poisoned").push(PointLog {
            load,
            thread: std::thread::current().id(),
            start,
            end,
            cycles: rec.as_ref().map_or(0, |r| r.cycles),
            counts,
        });
        rec
    }
}

/// `NetworkRunner::run_point` with phase timing on and spans around the
/// calls into the network layer.
fn traced_point(
    spans: &Spans,
    parent: u64,
    config: &NetworkConfig,
    seed: u64,
    load: f64,
    cancel: &CancelToken,
) -> (Option<PointRecord>, Option<Counts>) {
    let id = spans.id();
    let t0 = Instant::now();
    let cfg = config
        .clone()
        .with_injection(load)
        .with_seed(seed)
        .with_telemetry(RUNNER_TELEMETRY_EPOCH)
        .with_cancel(cancel.clone())
        .with_phase_timing(true);
    let nodes = cfg.mesh.nodes() as u64;
    let net = spans.time("Network::try_new", "network", Some(id), || {
        Network::try_new(cfg)
    });
    let r = net.ok().and_then(|net| {
        spans
            .time("Network::run", "network::sim", Some(id), || {
                catch_unwind(AssertUnwindSafe(|| net.run()))
            })
            .ok()
    });
    spans.record(
        id,
        format!("run_point load {load}"),
        "runqueue",
        t0,
        Instant::now(),
        Some(parent),
    );
    let Some(r) = r.filter(|r| !r.cancelled) else {
        return (None, None);
    };
    let counts = Counts::of(&r, nodes);
    let pct = r.histogram.percentiles();
    let point = LoadPoint::from(r.clone());
    let rec = PointRecord {
        key: PointKey::new(config.config_hash(), seed, load),
        job: String::new(),
        seed,
        load,
        latency: point.latency,
        accepted: point.accepted,
        saturated: point.saturated,
        cycles: r.cycles,
        p50: pct.p50,
        p95: pct.p95,
        p99: pct.p99,
        unreachable_pairs: r.unreachable_pairs,
        node_drops: Vec::new(),
        flows: r.flow_stats.as_ref().map_or(0, |f| f.flows()),
        flow_p50: None,
        flow_p95: None,
        flow_p99: None,
    };
    (Some(rec), Some(counts))
}

/// Runs one repetition of `w` at `seed`, checking every run against the
/// gate's `expected` outcomes. With `spans`, the rep is traced: phase
/// timing is on and every call into a layer is recorded.
pub fn rep(w: Workload, seed: u64, expected: &[Outcome], spans: Option<&Spans>) -> Rep {
    match w {
        Workload::Sweep => sweep_rep(w, seed, expected, spans),
        Workload::Hotspot | Workload::Shards => single_rep(w, seed, expected, spans),
    }
}

fn single_rep(w: Workload, seed: u64, expected: &[Outcome], spans: Option<&Spans>) -> Rep {
    let load = w.loads()[0];
    let cfg = w.point(load, seed).with_phase_timing(spans.is_some());
    let nodes = cfg.mesh.nodes() as f64;
    let mut rep = Rep {
        runs: 1,
        ..Rep::default()
    };
    let t0 = Instant::now();
    let net = Network::try_new(cfg);
    let t1 = Instant::now();
    let net = match net {
        Ok(net) => net,
        Err(e) => {
            rep.failures.push(format!("configuration rejected: {e}"));
            return rep;
        }
    };
    let r = catch_unwind(AssertUnwindSafe(|| net.run()));
    let t2 = Instant::now();
    if let Some(spans) = spans {
        // Named by workload: a traced invocation may also probe shards.
        let name = w.name();
        let setup = format!("{name}: Network::try_new");
        spans.record(spans.id(), setup, "network", t0, t1, None);
        let run = format!("{name}: Network::run");
        spans.record(spans.id(), run, "network::sim", t1, t2, None);
    }
    rep.setups.push((t1 - t0).as_secs_f64());
    rep.run_s = (t2 - t1).as_secs_f64();
    match r {
        Err(_) => rep.failures.push("panicked".into()),
        Ok(r) if r.cancelled => rep.failures.push("cancelled".into()),
        Ok(r) => {
            let d = Outcome::of(&r).diff(&expected[0]);
            if !d.is_empty() {
                rep.failures
                    .push(format!("timed run differs from the gate in {d:?}"));
            }
            rep.points = vec![(load, rep.run_s * 1e9, r.cycles as f64 * nodes)];
            rep.counts = spans.map(|_| Counts::of(&r, nodes as u64));
        }
    }
    rep
}

fn sweep_rep(w: Workload, seed: u64, expected: &[Outcome], spans: Option<&Spans>) -> Rep {
    let loads = w.loads();
    let nodes = w.config().mesh.nodes() as f64;
    let mut rep = Rep::default();
    // `NetworkRunner` builds each point's network inside the batch, so
    // setup is sampled on the same configurations beside it.
    for &l in &loads {
        let t0 = Instant::now();
        let net = Network::try_new(w.point(l, seed));
        let t1 = Instant::now();
        drop(net);
        rep.setups.push((t1 - t0).as_secs_f64());
        if let Some(spans) = spans {
            spans.record(spans.id(), "Network::try_new", "network", t0, t1, None);
        }
    }

    let job = JobSpec::new(w.name(), w.config(), seed).with_loads(loads.clone());
    let timer = PointTimer {
        spans,
        batch_span: spans.map_or(0, Spans::id),
        log: Mutex::new(Vec::new()),
    };
    let mut sink = MemorySink::default();
    let workers = w.threads().min(loads.len());
    let t0 = Instant::now();
    let outcome = run_batch(
        std::slice::from_ref(&job),
        workers,
        &CancelToken::new(),
        &timer,
        &HashSet::new(),
        &mut sink,
        |_, _, _| {},
    );
    let t1 = Instant::now();
    if let Some(spans) = spans {
        spans.record(timer.batch_span, "run_batch", "runqueue", t0, t1, None);
    }
    rep.run_s = (t1 - t0).as_secs_f64();
    rep.runs = loads.len();
    if outcome.cancelled || outcome.completed != loads.len() {
        let lost = loads.len() - outcome.completed.min(loads.len());
        rep.failures
            .extend((0..lost.max(1)).map(|_| "point failed or was cancelled".to_string()));
    }
    for rec in &sink.records {
        let ok = expected
            .iter()
            .find(|o| o.load.to_bits() == rec.load.to_bits())
            .is_some_and(|o| o.matches(rec));
        if !ok {
            rep.failures.push(format!(
                "load {}: timed point differs from the gate",
                rec.load
            ));
        }
    }

    let log = timer.log.into_inner().expect("point log poisoned");
    let busy: f64 = log.iter().map(|p| (p.end - p.start).as_secs_f64()).sum();
    rep.points = log
        .iter()
        .map(|p| {
            let ns = (p.end - p.start).as_nanos() as f64;
            (p.load, ns, p.cycles as f64 * nodes)
        })
        .collect();
    // Queue wait: per worker, the gaps between batch start, its points,
    // and each next claim — dispatch and sink cost, not simulation.
    let mut wait = 0.0;
    let mut threads: Vec<ThreadId> = Vec::new();
    for p in &log {
        if !threads.contains(&p.thread) {
            threads.push(p.thread);
        }
    }
    for t in threads {
        let mut mine: Vec<&PointLog> = log.iter().filter(|p| p.thread == t).collect();
        mine.sort_by_key(|p| p.start);
        let mut prev = t0;
        for p in mine {
            wait += p.start.saturating_duration_since(prev).as_secs_f64();
            prev = p.end;
        }
    }
    let capacity = workers as f64 * rep.run_s;
    rep.queue = Some(((capacity - busy) / capacity * 100.0, wait));
    if spans.is_some() {
        let mut counts = Counts::default();
        for c in log.iter().filter_map(|p| p.counts.as_ref()) {
            counts.add(c);
        }
        rep.counts = Some(counts);
    }
    rep
}
