//! `perfbench`: the repository's benchmark of the Peh–Dally simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-8x8|hotspot-sat-8x8|shards-32x32|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Each invocation first runs the correctness gate (engines bit-identical
//! at `--seed`, committed digest at the reference seed), then repeats the
//! workload for `--seconds` of host time and reports medians. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` untraced and traced repetitions alternate, the layer
//! microbenchmarks run, the spans are written as a Chrome trace under
//! `perfbench/out/`, and the last line carries the per-layer metrics.
//! The line before it is the full report: host fingerprint, gate, tails,
//! every metric with its samples, and the reconciliation row.

mod alloc;
mod layers;
mod out;
mod workload;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

use out::{median, min, summary, Host, Json, Spans};
use std::path::Path;
use std::time::{Duration, Instant};
use workload::{Counts, Rep, Workload};

const USAGE: &str = "usage: perfbench [--workload sweep-8x8|hotspot-sat-8x8|shards-32x32|all] \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Fewest measured repetitions, however short `--seconds` is.
const MIN_REPS: usize = 3;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} value {value}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value).ok_or(format!("unknown workload {value}"))?];
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace value {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// A reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What one workload produced.
struct WorkloadResult {
    attempted: usize,
    failed: usize,
    report: Json,
    metrics: Vec<Metric>,
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::obj([("value", value.into()), ("unit", Json::str(unit))]),
        )
    }))
}

/// Σ over the workload's runs of each run's fastest host time, over their
/// simulated node-cycles (identical in every repetition).
fn fastest_ns_per_node_cycle(reps: &[Rep]) -> f64 {
    let mut runs: Vec<(f64, f64, f64)> = Vec::new();
    for &(load, ns, nc) in reps.iter().flat_map(|r| &r.points) {
        match runs.iter_mut().find(|p| p.0.to_bits() == load.to_bits()) {
            Some(p) => p.1 = p.1.min(ns),
            None => runs.push((load, ns, nc)),
        }
    }
    runs.iter().map(|p| p.1).sum::<f64>() / runs.iter().map(|p| p.2).sum::<f64>()
}

/// Traced runs of shards-32x32 for the shard layer's metrics, gated like
/// any workload: (counts summed over the runs, runs, attempted, failed).
fn shard_probe(seed: u64, spans: &Spans) -> (Counts, f64, usize, usize) {
    const RUNS: usize = 3;
    let w = Workload::Shards;
    let gate = workload::gate(w, seed);
    let (mut attempted, mut failed) = (gate.runs, gate.failures.len());
    for f in &gate.failures {
        eprintln!("perfbench: {}: gate FAILED: {f}", w.name());
    }
    let mut k = Counts::default();
    if failed == 0 {
        for _ in 0..RUNS {
            let r = workload::rep(w, seed, &gate.expected, Some(spans));
            attempted += r.runs;
            failed += r.failures.len();
            for f in &r.failures {
                eprintln!("perfbench: {}: FAILED: {f}", w.name());
            }
            if let Some(c) = &r.counts {
                k.add(c);
            }
        }
    }
    (k, RUNS as f64, attempted, failed)
}

fn run_workload(w: Workload, args: &Args, host: &Host) -> WorkloadResult {
    let name = w.name();
    let seed = args.seed;
    let threads = w.threads();
    let mut report: Vec<(&str, Json)> = vec![
        ("workload", Json::str(name)),
        ("seed", seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        ("host", host.json()),
        ("threads", (threads as u64).into()),
        ("oversubscribed", (threads > host.nproc).into()),
    ];

    eprintln!("perfbench: {name}: correctness gate (seed {seed})");
    let gate = workload::gate(w, seed);
    for f in &gate.failures {
        eprintln!("perfbench: {name}: gate FAILED: {f}");
    }
    let mut attempted = gate.runs;
    let mut failed = gate.failures.len();
    report.push((
        "gate",
        Json::obj([
            ("runs", (gate.runs as u64).into()),
            (
                "failures",
                Json::Arr(gate.failures.iter().map(Json::str).collect()),
            ),
            ("reference_seed", workload::REFERENCE_SEED.into()),
            ("digest", Json::str(format!("{:#018x}", gate.digest))),
            (
                "committed_digest",
                Json::str(format!("{:#018x}", w.reference_digest())),
            ),
            ("tails", gate.tails.clone()),
        ]),
    ));
    if !gate.failures.is_empty() {
        return WorkloadResult {
            attempted,
            failed,
            report: Json::obj(report),
            metrics: Vec::new(),
        };
    }

    eprintln!("perfbench: {name}: measuring for {} s", args.seconds);
    let spans = args.trace.then(Spans::new);
    let (mut plain, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    alloc::reset_peak();
    let t0 = Instant::now();
    while plain.len() < MIN_REPS || t0.elapsed() < Duration::from_secs(args.seconds) {
        plain.push(workload::rep(w, seed, &gate.expected, None));
        if let Some(spans) = &spans {
            traced.push(workload::rep(w, seed, &gate.expected, Some(spans)));
        }
    }
    let peak_heap_mb = alloc::peak_mib();
    for r in plain.iter().chain(&traced) {
        attempted += r.runs;
        failed += r.failures.len();
        for f in &r.failures {
            eprintln!("perfbench: {name}: FAILED: {f}");
        }
    }

    let setups: Vec<f64> = plain.iter().flat_map(|r| r.setups.clone()).collect();
    let run_s: Vec<f64> = plain.iter().map(|r| r.run_s).collect();
    let per_nc: Vec<f64> = plain
        .iter()
        .map(|r| {
            let (ns, nc) = r
                .points
                .iter()
                .fold((0.0, 0.0), |a, p| (a.0 + p.1, a.1 + p.2));
            ns / nc
        })
        .collect();
    // Simulation times are the fastest observed. Every repetition does
    // identical work, and on a shared host co-tenants' memory traffic
    // slows a run by up to 2x for stretches of seconds (on a 2-vCPU Xeon
    // VM, 30 s windows of one run repeated for 4 minutes: the minimum
    // spread 6% between windows, the median 20%). `ns_per_node_cycle`
    // sums each run's fastest time, so one slow point does not discard a
    // whole sweep. The per-rep medians are in the report's samples.
    let ns_per_node_cycle = fastest_ns_per_node_cycle(&plain);
    let end_to_end: Vec<Metric> = vec![
        ("setup_s", median(&setups), "s"),
        ("run_s", min(&run_s), "s"),
        ("ns_per_node_cycle", ns_per_node_cycle, "ns"),
        ("peak_heap_mb", peak_heap_mb, "MiB"),
        ("sim_latency_cycles", gate.sim_latency(), "cycles"),
        ("sim_accepted", gate.sim_accepted(), "fraction"),
    ];
    report.push(("end_to_end", metrics_json(&end_to_end)));
    report.push((
        "samples",
        Json::obj([
            ("setup_s", summary(&setups)),
            ("run_s", summary(&run_s)),
            ("ns_per_node_cycle", summary(&per_nc)),
        ]),
    ));
    // Whole-process peak RSS, gate included, for reference: it varies
    // between identical invocations with the allocator's arenas.
    report.push(("peak_rss_mb", out::peak_rss_mb().into()));
    report.push((
        "failed_ratio",
        (failed as f64 / attempted.max(1) as f64).into(),
    ));
    report.push((
        "excluded_layers",
        Json::obj(["delay-model", "logical-effort", "core"].map(|l| {
            (
                l,
                Json::str("closed-form delay equations, evaluated once per configuration; on no timed path"),
            )
        })),
    ));

    let Some(spans) = spans else {
        return WorkloadResult {
            attempted,
            failed,
            report: Json::obj(report),
            metrics: end_to_end,
        };
    };

    eprintln!("perfbench: {name}: layer microbenchmarks");
    let costs = layers::measure(w, seed, &spans);
    let mut k = Counts::default();
    for c in traced.iter().filter_map(|r| r.counts.as_ref()) {
        k.add(c);
    }
    let reps = traced.len() as f64;
    let ph = k.phases;
    // `network::shard` runs only in shards-32x32, which BENCHMARK.json
    // does not list: on a shared 2-vCPU host its end-to-end times spread
    // wider than any useful bound. Traced invocations of the other
    // workloads measure the shard layer on traced runs of it instead.
    let (sk, shard_reps) = if w.config().engine.threads_per_run() > 1 {
        (k, reps)
    } else {
        eprintln!(
            "perfbench: {name}: shard layer on {}",
            Workload::Shards.name()
        );
        let probe = shard_probe(seed, &spans);
        attempted += probe.2;
        failed += probe.3;
        (probe.0, probe.1)
    };
    let sp = sk.phases;
    let queue: Vec<(f64, f64)> = traced.iter().filter_map(|r| r.queue).collect();
    let attempts = k.router.spec_hits + k.router.spec_wasted;
    let (predicted, terms) = costs.reconcile(&k, w.config().engine.threads_per_run());
    // Plain and traced reps alternate, so adjacent pairs share host state.
    let trace_ratios: Vec<f64> = plain
        .iter()
        .zip(&traced)
        .map(|(p, t)| t.run_s / p.run_s)
        .collect();
    let per_layer: Vec<Metric> = vec![
        ("router.tick_ns.idle", costs.tick[0].1, "ns"),
        ("router.tick_ns.steady", costs.tick[1].1, "ns"),
        ("router.tick_ns.saturated", costs.tick[2].1, "ns"),
        ("router.ticks", k.work.router_ticks as f64 / reps, "count"),
        (
            "router.spec_hit_ratio",
            k.router.spec_hits as f64 / attempts.max(1) as f64,
            "ratio",
        ),
        ("arbitration.allocate_ns.low", costs.allocate_low_ns, "ns"),
        ("arbitration.allocate_ns.high", costs.allocate_high_ns, "ns"),
        ("arbitration.grant_ratio", costs.grant_ratio, "ratio"),
        ("link.wheel_ns", costs.wheel_ns, "ns"),
        ("link.pipe_ns", costs.pipe_ns, "ns"),
        ("routing.build_s", costs.route_build_s, "s"),
        ("routing.route_ns", costs.route_ns, "ns"),
        ("source.step_ns", costs.step_ns, "ns"),
        ("sim.phase.delivery_pct", ph.pct(ph.delivery), "%"),
        ("sim.phase.sources_pct", ph.pct(ph.sources), "%"),
        ("sim.phase.router_pct", ph.pct(ph.router), "%"),
        ("sim.phase.stats_pct", ph.pct(ph.stats), "%"),
        ("sim.skip_fraction", k.work.skip_fraction(), "ratio"),
        (
            "sim.fast_forwarded_cycles",
            ph.fast_forwarded as f64 / reps,
            "count",
        ),
        ("shard.barrier_pct", sp.pct(sp.barrier), "%"),
        ("shard.commit_pct", sp.pct(sp.stats), "%"),
        (
            "shard.barrier_waits_per_cycle",
            sp.barrier_waits as f64 / sk.executed_cycles().max(1) as f64,
            "1/cycle",
        ),
        (
            "shard.fast_forwarded_cycles",
            sp.fast_forwarded as f64 / shard_reps,
            "count",
        ),
        ("telemetry.overhead_pct", costs.telemetry_overhead_pct, "%"),
        (
            "runqueue.worker_idle_pct",
            median(&queue.iter().map(|q| q.0).collect::<Vec<_>>()),
            "%",
        ),
        (
            "runqueue.queue_wait_s",
            median(&queue.iter().map(|q| q.1).collect::<Vec<_>>()),
            "s",
        ),
        ("reconcile.predicted_ns_per_node_cycle", predicted, "ns"),
        (
            "reconcile.gap_pct",
            (ns_per_node_cycle - predicted) / ns_per_node_cycle * 100.0,
            "%",
        ),
        (
            "trace.overhead_pct",
            (median(&trace_ratios) - 1.0) * 100.0,
            "%",
        ),
    ];
    report.push(("per_layer", metrics_json(&per_layer)));
    if w != Workload::Sweep {
        report.push(("not_on_path", Json::Arr(vec![Json::str("runqueue")])));
    }
    report.push((
        "reconcile",
        Json::obj([
            ("measured_ns_per_node_cycle", ns_per_node_cycle.into()),
            ("predicted_ns_per_node_cycle", predicted.into()),
            (
                "gap_pct",
                ((ns_per_node_cycle - predicted) / ns_per_node_cycle * 100.0).into(),
            ),
            ("terms", terms),
            (
                "tick_regimes_bids_per_tick",
                Json::Arr(costs.tick.iter().map(|t| t.0.into()).collect()),
            ),
        ]),
    ));
    let trace_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{name}-seed{seed}.json"));
    match spans.write_chrome_trace(&trace_path) {
        Ok(()) => report.push(("trace_file", Json::str(trace_path.display().to_string()))),
        Err(e) => eprintln!("perfbench: {name}: writing {}: {e}", trace_path.display()),
    }
    WorkloadResult {
        attempted,
        failed,
        report: Json::obj(report),
        metrics: per_layer,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = Host::probe();
    let results: Vec<(Workload, WorkloadResult)> = args
        .workloads
        .iter()
        .map(|&w| (w, run_workload(w, &args, &host)))
        .collect();
    let single = results.len() == 1;
    let mut metrics: Vec<(String, Json)> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (w, r) in &results {
        println!("{}", r.report);
        for &(name, value, unit) in &r.metrics {
            let key = if single {
                name.to_string()
            } else {
                format!("{}/{name}", w.name())
            };
            eprintln!(
                "perfbench: {:<16} {name:<38} {value:>14.6} {unit}",
                w.name()
            );
            metrics.push((
                key,
                Json::obj([("value", value.into()), ("unit", Json::str(unit))]),
            ));
        }
        attempted += r.attempted;
        failed += r.failed;
    }
    let correct = failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", correct.into()),
            ("attempted", (attempted as u64).into()),
            ("failed", (failed as u64).into()),
            ("metrics", Json::Obj(metrics)),
        ])
    );
    if !correct {
        std::process::exit(1);
    }
}
