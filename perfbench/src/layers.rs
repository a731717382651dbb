//! Layer microbenchmarks and the reconciliation model.
//!
//! Each layer is driven directly through its public API with synthetic
//! inputs generated from the seed, timed in bulk (no clock read per
//! call), and reported as host ns per operation. `reconcile` multiplies
//! these costs by the per-run counts of a traced run and compares the sum
//! with the measured `ns_per_node_cycle`.
//!
//! `delay-model`, `logical-effort` and `peh-dally` (core) are left out:
//! they evaluate the paper's closed-form delay equations once per
//! configuration and are called on no simulated cycle, so no timed path
//! runs them.

use crate::out::{median, min, Json, Spans};
use crate::workload::{Counts, Workload};
use arbitration::SeparableAllocator;
use noc_network::source::{Source, SourceStep};
use noc_network::{Network, RouteTable};
use router_core::{
    DelayPipe, EventWheel, Flit, PacketFlits, PacketId, Router, RouterStats, TickOutput,
};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Timed trials per microbenchmark; the fastest is reported, as for the
/// end-to-end times (see `main.rs`).
const TRIALS: usize = 5;

/// Cycles a synthetic neighbour takes to return a credit for a flit the
/// router sent it: link, credit wire, and credit processing.
const CREDIT_ROUND_TRIP: u64 = 3;

/// splitmix64: a small deterministic generator for synthetic inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

/// Runs `trial` [`TRIALS`] times and returns its smallest result.
fn min_of(mut trial: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..TRIALS).map(|_| trial()).collect();
    min(&v)
}

/// One router between synthetic neighbours: upstreams that send whole
/// packets under credit flow control, and downstreams that always drain
/// and return each credit after [`CREDIT_ROUND_TRIP`] cycles. The flit's
/// `dest` field names its output port directly.
struct Rig {
    router: Router,
    out: TickOutput,
    ports: usize,
    vcs: usize,
    sink: usize,
    credits: Vec<u64>,
    feeding: Vec<Option<PacketFlits>>,
    returns: VecDeque<(u64, usize, usize)>,
    rng: Rng,
    now: u64,
    packets: u64,
    /// Probability per input port per cycle of a new packet.
    rate: f64,
    /// Every packet targets this output when set.
    hot: Option<usize>,
}

impl Rig {
    fn new(w: Workload, rate: f64, hot: Option<usize>, seed: u64) -> Rig {
        let cfg = w.config();
        let rcfg = cfg.router_config();
        let sink = cfg.mesh.local_port();
        let mut router = Router::new(rcfg);
        for port in 0..rcfg.ports {
            if port == sink {
                router.mark_sink(port);
            } else {
                router.set_output_credits(port, rcfg.buffers_per_vc as u64);
            }
        }
        let channels = rcfg.ports * rcfg.vcs;
        Rig {
            router,
            out: TickOutput::default(),
            ports: rcfg.ports,
            vcs: rcfg.vcs,
            sink,
            credits: vec![rcfg.buffers_per_vc as u64; channels],
            feeding: vec![None; channels],
            returns: VecDeque::new(),
            rng: Rng(seed),
            now: 0,
            packets: 0,
            rate,
            hot,
        }
    }

    fn step(&mut self) {
        let now = self.now;
        while let Some(&(due, port, vc)) = self.returns.front() {
            if due > now {
                break;
            }
            self.returns.pop_front();
            self.router.accept_credit(port, vc, now);
        }
        for p in 0..self.ports {
            let base = p * self.vcs;
            if self.rate > 0.0 && self.rng.chance(self.rate) {
                if let Some(v) = (0..self.vcs).find(|&v| self.feeding[base + v].is_none()) {
                    let dest = self.hot.unwrap_or_else(|| {
                        let d = self.rng.below(self.ports - 1);
                        if d >= p {
                            d + 1
                        } else {
                            d
                        }
                    });
                    self.packets += 1;
                    self.feeding[base + v] = Some(PacketFlits::new(
                        PacketId::new(self.packets),
                        dest,
                        v,
                        now,
                        5,
                    ));
                }
            }
            // One flit per input link per cycle.
            for k in 0..self.vcs {
                let ch = base + (now as usize + k) % self.vcs;
                if self.credits[ch] == 0 {
                    continue;
                }
                let Some(pkt) = self.feeding[ch].as_mut() else {
                    continue;
                };
                let flit = pkt.next().expect("a feeding packet has flits left");
                if pkt.is_exhausted() {
                    self.feeding[ch] = None;
                }
                self.credits[ch] -= 1;
                self.router.accept_flit(p, flit, now);
                break;
            }
        }
        let route = |f: &Flit| f.dest;
        self.router.tick_into(now, &route, &mut self.out);
        for d in &self.out.departures {
            if d.out_port != self.sink {
                self.returns
                    .push_back((now + CREDIT_ROUND_TRIP, d.out_port, d.flit.vc));
            }
        }
        for c in &self.out.credits {
            self.credits[c.in_port * self.vcs + c.vc] += 1;
        }
        self.now += 1;
    }
}

/// Switch requests a router presented: non-speculative grants plus
/// speculative requests. Every buffered channel that bids adds to it, so
/// it tracks the work a tick does better than flits switched, which a
/// blocked network keeps low.
fn bids(s: &RouterStats) -> u64 {
    s.sa_grants + s.spec_requests
}

/// Host ns per router cycle (input delivery plus `Router::tick_into`) and
/// bids per tick, for idle, steady and saturated inputs. The regimes' trials
/// interleave so host drift spreads evenly over them.
fn tick_costs(w: Workload, seed: u64) -> [(f64, f64); 3] {
    const CYCLES: u64 = 20_000;
    let mut rigs = [
        Rig::new(w, 0.0, None, seed),
        Rig::new(w, 0.06, None, seed),
        Rig::new(w, 1.0, Some(0), seed),
    ];
    for rig in &mut rigs {
        for _ in 0..2_000 {
            rig.step();
        }
    }
    let before = rigs.each_ref().map(|r| bids(r.router.stats()));
    let mut ns: [Vec<f64>; 3] = Default::default();
    for _ in 0..TRIALS {
        for (rig, ns) in rigs.iter_mut().zip(&mut ns) {
            let t0 = Instant::now();
            for _ in 0..CYCLES {
                rig.step();
            }
            ns.push(t0.elapsed().as_nanos() as f64 / CYCLES as f64);
        }
    }
    std::array::from_fn(|i| {
        let bid = bids(rigs[i].router.stats()) - before[i];
        (bid as f64 / (CYCLES * TRIALS as u64) as f64, min(&ns[i]))
    })
}

/// Host ns per `SeparableAllocator::allocate_into` call on the router's
/// VC-allocator shape (ports·VCs squared) and the share of requesting
/// inputs granted. Each input requests with probability `density`, for
/// `fanout` resources drawn from the first `spread`.
fn allocate_cost(n: usize, density: f64, fanout: usize, spread: usize, seed: u64) -> (f64, f64) {
    let mut rng = Rng(seed);
    let sets: Vec<Vec<(usize, usize)>> = (0..1024)
        .map(|_| {
            let mut reqs = Vec::new();
            for i in 0..n {
                if rng.chance(density) {
                    reqs.extend((0..fanout).map(|_| (i, rng.below(spread))));
                }
            }
            reqs
        })
        .collect();
    let requesting: usize = sets
        .iter()
        .map(|s| {
            let mut ins: Vec<usize> = s.iter().map(|r| r.0).collect();
            ins.dedup();
            ins.len()
        })
        .sum();
    let mut alloc = SeparableAllocator::new(n, n);
    let mut grants = Vec::new();
    const ROUNDS: usize = 100;
    let mut granted = 0usize;
    let ns = min_of(|| {
        granted = 0;
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            for s in &sets {
                alloc.allocate_into(black_box(s), &mut grants);
                granted += grants.len();
            }
        }
        t0.elapsed().as_nanos() as f64 / (ROUNDS * sets.len()) as f64
    });
    (ns, granted as f64 / (requesting * ROUNDS).max(1) as f64)
}

/// Host ns per item scheduled on an `EventWheel` and drained by
/// `take_due`/`restore`, at `per_cycle` items per cycle.
fn wheel_cost(per_cycle: u32) -> f64 {
    const CYCLES: u64 = 100_000;
    let mut wheel: EventWheel<u32> = EventWheel::new(4);
    let mut now = 0u64;
    let buf = wheel.take_due(now);
    wheel.restore(now, buf);
    let mut sum = 0u64;
    let ns = min_of(|| {
        let t0 = Instant::now();
        for _ in 0..CYCLES {
            now += 1;
            for i in 0..per_cycle {
                wheel.schedule(now + 2, i);
            }
            let due = wheel.take_due(now);
            sum += due.len() as u64;
            wheel.restore(now, due);
        }
        t0.elapsed().as_nanos() as f64 / (CYCLES * u64::from(per_cycle)) as f64
    });
    black_box(sum);
    ns
}

/// Host ns per item through a one-cycle `DelayPipe` (push, then
/// `pop_ready` when due).
fn pipe_cost() -> f64 {
    const ITEMS: u64 = 1_000_000;
    let mut pipe: DelayPipe<u64> = DelayPipe::new(1);
    let mut now = 0u64;
    let mut sum = 0u64;
    let ns = min_of(|| {
        let t0 = Instant::now();
        for _ in 0..ITEMS {
            pipe.push(now, now);
            while let Some(x) = pipe.pop_ready(now) {
                sum = sum.wrapping_add(x);
            }
            now += 1;
        }
        t0.elapsed().as_nanos() as f64 / ITEMS as f64
    });
    black_box(sum);
    ns
}

/// Host seconds of `RouteTable::new`, and ns per `RouteTable::route` over
/// random (node, destination) pairs, on the workload's topology.
fn routing_cost(w: Workload, seed: u64) -> (f64, f64) {
    let cfg = w.config();
    let vcs = cfg.router.vcs();
    let build = min_of(|| {
        let t0 = Instant::now();
        black_box(RouteTable::new(&cfg.mesh, cfg.routing, vcs));
        t0.elapsed().as_secs_f64()
    });
    let table = RouteTable::new(&cfg.mesh, cfg.routing, vcs);
    let nodes = cfg.mesh.nodes();
    let mut rng = Rng(seed);
    let pairs: Vec<(usize, usize, u64)> = (0..4096)
        .map(|_| (rng.below(nodes), rng.below(nodes), rng.next()))
        .collect();
    const ROUNDS: usize = 200;
    let mut sum = 0usize;
    let route = min_of(|| {
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            for &(n, d, s) in &pairs {
                sum = sum.wrapping_add(table.route(n, d, s));
            }
        }
        t0.elapsed().as_nanos() as f64 / (ROUNDS * pairs.len()) as f64
    });
    black_box(sum);
    (build, route)
}

/// Host ns per `Source::step_into` at the workload's mean offered load,
/// with credits returned as a draining router would.
fn source_cost(w: Workload, seed: u64) -> f64 {
    const STEPS: u64 = 200_000;
    let loads = w.loads();
    let load = loads.iter().sum::<f64>() / loads.len() as f64;
    let cfg = w.point(load, seed);
    let rcfg = cfg.router_config();
    let mut src = Source::new(
        0,
        cfg.packets_per_node_cycle(),
        cfg.packet_len,
        rcfg.vcs,
        rcfg.buffers_per_vc as u64,
        seed,
    );
    let mut step = SourceStep::default();
    let mut returns: VecDeque<(u64, usize)> = VecDeque::new();
    let mut now = 0u64;
    min_of(|| {
        let t0 = Instant::now();
        for _ in 0..STEPS {
            while returns.front().is_some_and(|r| r.0 <= now) {
                let (_, vc) = returns.pop_front().expect("checked non-empty");
                src.credit(vc);
            }
            src.step_into(now, &cfg.mesh, &cfg.pattern, &mut step);
            if let Some(f) = step.injected {
                returns.push_back((now + CREDIT_ROUND_TRIP, f.vc));
            }
            now += 1;
        }
        t0.elapsed().as_nanos() as f64 / STEPS as f64
    })
}

/// Telemetry on against off on the sweep's 0.3 point, in percent of the
/// off run's host time: the median over adjacent on/off pairs, which
/// alternate which side runs first so host drift cancels.
fn telemetry_overhead(seed: u64) -> f64 {
    const PAIRS: usize = 5;
    let cfg = Workload::Sweep.point(0.3, seed);
    let time = |telemetry: bool| {
        let c = if telemetry {
            cfg.clone().with_telemetry(1024)
        } else {
            cfg.clone()
        };
        let net = Network::try_new(c).expect("the sweep configuration is valid");
        let t0 = Instant::now();
        black_box(net.run());
        t0.elapsed().as_secs_f64()
    };
    let ratios: Vec<f64> = (0..PAIRS)
        .map(|i| {
            let (on, off) = if i % 2 == 0 {
                let on = time(true);
                (on, time(false))
            } else {
                let off = time(false);
                (time(true), off)
            };
            on / off
        })
        .collect();
    (median(&ratios) - 1.0) * 100.0
}

/// Per-operation host costs of every layer.
pub struct Costs {
    /// `(bids per tick, ns per tick)` for idle, steady and saturated
    /// inputs.
    pub tick: [(f64, f64); 3],
    pub allocate_low_ns: f64,
    pub allocate_high_ns: f64,
    pub grant_ratio: f64,
    pub wheel_ns: f64,
    pub pipe_ns: f64,
    pub route_build_s: f64,
    pub route_ns: f64,
    pub step_ns: f64,
    pub telemetry_overhead_pct: f64,
}

/// Runs every microbenchmark, one span each.
pub fn measure(w: Workload, seed: u64, spans: &Spans) -> Costs {
    let tick = spans.time("Router::tick_into", "router", None, || tick_costs(w, seed));
    let n = {
        let r = w.config().router_config();
        r.ports * r.vcs
    };
    // Low density: one channel in ten bids for any output VC, as at light
    // uniform load. High: nine in ten bid for the two VCs of one output,
    // as around the hotspot.
    let (allocate_low_ns, _) = spans.time("allocate low", "arbitration", None, || {
        allocate_cost(n, 0.1, 1, n, seed)
    });
    let (allocate_high_ns, grant_ratio) = spans.time("allocate high", "arbitration", None, || {
        allocate_cost(n, 0.9, 2, 2, seed)
    });
    let wheel_ns = spans.time("EventWheel", "router::link", None, || wheel_cost(16));
    let pipe_ns = spans.time("DelayPipe", "router::link", None, pipe_cost);
    let (route_build_s, route_ns) = spans.time("RouteTable", "network::routing", None, || {
        routing_cost(w, seed)
    });
    let step_ns = spans.time("Source::step_into", "network::source", None, || {
        source_cost(w, seed)
    });
    let telemetry_overhead_pct = spans.time("telemetry on/off", "telemetry", None, || {
        telemetry_overhead(seed)
    });
    Costs {
        tick,
        allocate_low_ns,
        allocate_high_ns,
        grant_ratio,
        wheel_ns,
        pipe_ns,
        route_build_s,
        route_ns,
        step_ns,
        telemetry_overhead_pct,
    }
}

impl Costs {
    /// Tick cost at `bpt` bids per tick: piecewise linear through the
    /// three measured regimes, flat beyond them.
    fn tick_ns(&self, bpt: f64) -> f64 {
        let mut pts = self.tick;
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        if bpt <= pts[0].0 {
            return pts[0].1;
        }
        for pair in pts.windows(2) {
            let ((x0, y0), (x1, y1)) = (pair[0], pair[1]);
            if bpt <= x1 && x1 > x0 {
                return y0 + (y1 - y0) * (bpt - x0) / (x1 - x0);
            }
        }
        pts[2].1
    }

    /// Predicted host ns per node-cycle of the runs `k` counts: Σ (layer
    /// cost × count) over the layers, divided by the node-cycles and by
    /// the threads the work is spread over. Returns the prediction and
    /// its terms.
    pub fn reconcile(&self, k: &Counts, threads: usize) -> (f64, Json) {
        let ticks = k.work.router_ticks as f64;
        let bpt = bids(&k.router) as f64 / ticks.max(1.0);
        let deliveries = (k.router.flits_switched + k.router.credits_sent) as f64;
        let terms = [
            ("router.tick", ticks * self.tick_ns(bpt)),
            ("routing.route", k.router.va_grants as f64 * self.route_ns),
            (
                "source.step",
                (k.nodes * k.executed_cycles()) as f64 * self.step_ns,
            ),
            ("link.pipe", deliveries * self.pipe_ns),
            ("link.wheel", deliveries * self.wheel_ns),
        ];
        let denom = (k.nodes * k.work.cycles) as f64 * threads as f64;
        let predicted = terms.iter().map(|t| t.1).sum::<f64>() / denom;
        let terms = Json::obj(terms.map(|(n, ns)| (n, Json::from(ns / denom))));
        (predicted, terms)
    }
}
