//! Maps a parsed [`runqueue::spec`] job file onto network
//! [`JobSpec`]s — the `runq` CLI's front half.
//!
//! See the repository README ("Orchestration") for the file format; the
//! short version: a `[defaults]` table plus one `[[job]]` table per
//! job, each naming a router/mesh configuration, a `loads` grid, and
//! optionally `seeds` (repetitions), `shards` (per-run width), and
//! `priority`.

use noc_network::config::EngineKind;
use noc_network::{FaultSpec, NetworkConfig, RouterKind, TrafficPattern};
use runqueue::spec::{JobFile, Table};
use runqueue::JobSpec;

/// A fully-resolved batch: jobs plus the core budget to run them under.
#[derive(Debug, Clone)]
pub struct Batch {
    /// One spec per `[[job]]` table.
    pub jobs: Vec<JobSpec<NetworkConfig>>,
    /// Core budget (`cores` key, defaulting to the host's parallelism).
    pub cores: usize,
}

/// Every key a job table understands — unknown keys are an error, so a
/// typo cannot silently fall back to a default.
const JOB_KEYS: &[&str] = &[
    "name",
    "mesh",
    "dims",
    "torus",
    "router",
    "vcs",
    "buffers",
    "pattern",
    "hotspot_node",
    "hotness",
    "single_cycle",
    "credit_prop_delay",
    "loads",
    "seeds",
    "seed",
    "shards",
    "rebalance_epoch",
    "rebalance_threshold",
    "faults",
    "priority",
    "warmup",
    "sample",
    "max_cycles",
    "cores",
];

/// Builds the batch a job file describes.
///
/// # Errors
///
/// Returns a message naming the job and key for any unknown key, wrong
/// type, or out-of-range value.
pub fn build_batch(file: &JobFile) -> Result<Batch, String> {
    if file.jobs.is_empty() {
        return Err("job file defines no [[job]] tables".into());
    }
    let cores = match file.defaults.get("cores") {
        Some(v) => v
            .as_u64()
            .filter(|&c| c >= 1)
            .ok_or("`cores` must be a positive integer")? as usize,
        None => crate::meta::host_parallelism(),
    };
    let mut jobs = Vec::new();
    for (i, (table, raw)) in file.merged_jobs().iter().zip(&file.jobs).enumerate() {
        // `cores` is batch-level: it reaches every merged table through
        // the defaults (hence its JOB_KEYS entry), but a job writing its
        // own would be silently ignored — reject it instead.
        if raw.contains_key("cores") {
            return Err(format!(
                "job #{}: `cores` is batch-level; set it at the top of the file",
                i + 1
            ));
        }
        jobs.push(build_job(i, table).map_err(|e| format!("job #{}: {e}", i + 1))?);
    }
    Ok(Batch { jobs, cores })
}

fn build_job(index: usize, t: &Table) -> Result<JobSpec<NetworkConfig>, String> {
    for key in t.keys() {
        if !JOB_KEYS.contains(&key.as_str()) {
            return Err(format!("unknown key `{key}`"));
        }
    }
    let name = match t.get("name") {
        Some(v) => v.as_str().ok_or("`name` must be a string")?.to_string(),
        None => format!("job{}", index + 1),
    };
    let radix = get_u64(t, "mesh", 8)? as usize;
    if radix < 2 {
        return Err("`mesh` radix must be at least 2".into());
    }
    // `mesh` is the per-axis radix; `dims` the number of axes (a k-ary
    // n-mesh), so `mesh = 4, dims = 3` is a 64-node 4-ary 3-cube. The
    // cap matches the route table's adaptive-candidate encoding and
    // keeps `radix^dims` far from overflow.
    let dims = get_u64(t, "dims", 2)? as usize;
    if !(1..=8).contains(&dims) {
        return Err("`dims` must be between 1 and 8".into());
    }
    let nodes = (radix as u128).pow(dims as u32);
    if nodes > (1 << 24) {
        return Err(format!(
            "`mesh`^`dims` is {nodes} nodes — larger than any simulable network"
        ));
    }
    let vcs = get_u64(t, "vcs", 2)? as usize;
    let buffers = get_u64(t, "buffers", 4)? as usize;
    let router = match t.get("router") {
        None => RouterKind::SpeculativeVc {
            vcs,
            buffers_per_vc: buffers,
        },
        Some(v) => match v.as_str().ok_or("`router` must be a string")? {
            "wh" | "wormhole" => RouterKind::Wormhole { buffers },
            "vct" => RouterKind::VirtualCutThrough { buffers },
            "vc" => RouterKind::VirtualChannel {
                vcs,
                buffers_per_vc: buffers,
            },
            "specvc" => RouterKind::SpeculativeVc {
                vcs,
                buffers_per_vc: buffers,
            },
            other => return Err(format!("unknown router `{other}` (wh|vct|vc|specvc)")),
        },
    };
    let mut cfg = NetworkConfig::for_mesh(noc_network::Mesh::new(radix, dims), router);
    if get_bool(t, "torus", false)? {
        // A torus with < 2 VCs is rejected by the validate() backstop
        // below (the dateline deadlock-avoidance error).
        cfg = cfg.into_torus();
    }
    let warmup = get_u64(t, "warmup", cfg.warmup_cycles)?;
    let sample = get_u64(t, "sample", cfg.sample_packets)?;
    let max_cycles = get_u64(t, "max_cycles", cfg.max_cycles)?;
    let credit_prop = get_u64(t, "credit_prop_delay", cfg.credit_prop_delay)?;
    let pattern = parse_pattern(t, cfg.mesh.nodes())?;
    cfg = cfg
        .with_warmup(warmup)
        .with_sample(sample)
        .with_max_cycles(max_cycles)
        .with_single_cycle(get_bool(t, "single_cycle", false)?)
        .with_credit_prop_delay(credit_prop)
        .with_pattern(pattern);
    let base_seed = get_u64(t, "seed", cfg.seed)?;
    cfg = cfg.with_seed(base_seed);
    let shards = get_u64(t, "shards", 1)? as usize;
    if shards > 1 {
        cfg = cfg.with_engine(EngineKind::parallel(shards));
    }
    // Work-metered shard rebalancing: either key opts in, and the
    // validate() backstop below rejects epoch 0 / threshold < 1 with the
    // job named — so `rebalance_threshold` without an epoch fails loudly
    // (the epoch defaults to 0) instead of silently metering nothing.
    if t.contains_key("rebalance_epoch") || t.contains_key("rebalance_threshold") {
        let epoch = get_u64(t, "rebalance_epoch", 0)?;
        let threshold = match t.get("rebalance_threshold") {
            Some(v) => v.as_num().ok_or("`rebalance_threshold` must be a number")?,
            None => 1.25,
        };
        cfg = cfg.with_rebalance(epoch, threshold);
    }
    // A fault plan degrades the network deliberately; each spec string
    // parses (and range-checks, via the validate() backstop below) at
    // parse time so a bad cycle range or off-mesh link id names the job.
    if let Some(v) = t.get("faults") {
        let specs = v
            .as_str_list()
            .ok_or("`faults` must be an array of strings")?;
        let faults: Vec<FaultSpec> = specs
            .iter()
            .map(|s| FaultSpec::parse(s).map_err(|e| format!("`faults`: {e}")))
            .collect::<Result<_, _>>()?;
        cfg = cfg.with_faults(faults);
    }
    let loads = t
        .get("loads")
        .ok_or("missing `loads`")?
        .as_list()
        .ok_or("`loads` must be a numeric array")?
        .to_vec();
    if loads.is_empty() {
        return Err("`loads` must not be empty".into());
    }
    // NaN is caught too: it fails `l > 0.0`.
    if !loads.iter().all(|&l| l > 0.0) {
        return Err("every load must be positive".into());
    }
    let reps = get_u64(t, "seeds", 1)?;
    if reps == 0 {
        return Err("`seeds` must be at least 1".into());
    }
    let priority = match t.get("priority") {
        Some(v) => v.as_num().ok_or("`priority` must be a number")?,
        None => 0.0,
    };
    // Backstop: anything the simulator itself would reject must fail
    // here, at parse time and naming the job — not cycles later inside
    // a worker thread where the panic takes the whole batch down.
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(JobSpec::new(name, cfg.clone(), base_seed)
        .with_loads(loads)
        .with_reps(reps)
        // A run never occupies more threads than the mesh has nodes
        // (the engine clamps shards the same way).
        .with_width(shards.clamp(1, cfg.mesh.nodes()))
        .with_priority(priority))
}

fn parse_pattern(t: &Table, nodes: usize) -> Result<TrafficPattern, String> {
    let Some(v) = t.get("pattern") else {
        return Ok(TrafficPattern::Uniform);
    };
    match v.as_str().ok_or("`pattern` must be a string")? {
        "uniform" => Ok(TrafficPattern::Uniform),
        "transpose" => Ok(TrafficPattern::Transpose),
        "bitcomplement" => Ok(TrafficPattern::BitComplement),
        "tornado" => Ok(TrafficPattern::Tornado),
        "neighbor" => Ok(TrafficPattern::NearestNeighbor),
        "hotspot" => {
            let hotspot = get_u64(t, "hotspot_node", 0)? as usize;
            if hotspot >= nodes {
                return Err(format!(
                    "`hotspot_node` {hotspot} outside the {nodes}-node mesh"
                ));
            }
            let hotness = match t.get("hotness") {
                Some(v) => v.as_num().ok_or("`hotness` must be a number")?,
                None => 0.1,
            };
            if !(0.0..=1.0).contains(&hotness) {
                return Err("`hotness` must be in [0, 1]".into());
            }
            Ok(TrafficPattern::Hotspot { hotspot, hotness })
        }
        other => Err(format!(
            "unknown pattern `{other}` (uniform|transpose|bitcomplement|tornado|neighbor|hotspot)"
        )),
    }
}

fn get_u64(t: &Table, key: &str, default: u64) -> Result<u64, String> {
    match t.get(key) {
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
        None => Ok(default),
    }
}

fn get_bool(t: &Table, key: &str, default: bool) -> Result<bool, String> {
    match t.get(key) {
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("`{key}` must be true or false")),
        None => Ok(default),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use runqueue::spec;

    const SAMPLE: &str = r#"
cores = 3

[defaults]
mesh = 4
warmup = 100
sample = 150
max_cycles = 8000

[[job]]
name = "wh"
router = "wormhole"
buffers = 8
loads = [0.1, 0.3]

[[job]]
name = "par"
router = "specvc"
vcs = 2
buffers = 4
loads = [0.2]
seeds = 2
shards = 4
priority = 2.5
"#;

    fn batch() -> Batch {
        build_batch(&spec::parse(SAMPLE).unwrap()).unwrap()
    }

    #[test]
    fn sample_maps_to_two_jobs_under_a_core_budget() {
        let b = batch();
        assert_eq!(b.cores, 3);
        assert_eq!(b.jobs.len(), 2);
        let wh = &b.jobs[0];
        assert_eq!(wh.name, "wh");
        assert_eq!(wh.config.mesh.nodes(), 16);
        assert_eq!(wh.config.router, RouterKind::Wormhole { buffers: 8 });
        assert_eq!(wh.config.warmup_cycles, 100, "defaults inherited");
        assert_eq!(wh.loads, vec![0.1, 0.3]);
        assert_eq!(wh.reps, 1);
        assert_eq!(wh.width, 1);
        let par = &b.jobs[1];
        assert_eq!(par.config.engine, EngineKind::parallel(4));
        assert_eq!(par.width, 4);
        assert_eq!(par.reps, 2);
        assert!((par.priority - 2.5).abs() < 1e-12);
    }

    #[test]
    fn defaults_fill_in_when_absent() {
        let f = spec::parse("[[job]]\nloads = [0.1]\n").unwrap();
        let b = build_batch(&f).unwrap();
        assert_eq!(b.cores, crate::meta::host_parallelism());
        let job = &b.jobs[0];
        assert_eq!(job.name, "job1");
        assert_eq!(job.config.mesh.nodes(), 64, "8x8 default");
        assert_eq!(
            job.config.router,
            RouterKind::SpeculativeVc {
                vcs: 2,
                buffers_per_vc: 4
            }
        );
        assert_eq!(job.base_seed, job.config.seed);
    }

    #[test]
    fn errors_name_the_job_and_key() {
        for (body, what) in [
            ("[[job]]\nrouter = \"quantum\"\nloads = [0.1]\n", "quantum"),
            ("[[job]]\nloads = [0.1]\nbogus = 1\n", "bogus"),
            ("[[job]]\nname = \"x\"\n", "loads"),
            ("[[job]]\nloads = []\n", "loads"),
            ("[[job]]\nloads = [0.0]\n", "positive"),
            ("[[job]]\nloads = [0.1]\nseeds = 0\n", "seeds"),
            ("[[job]]\nloads = [0.1]\npattern = \"banana\"\n", "banana"),
            ("[[job]]\nloads = [0.1]\nmesh = 1\n", "radix"),
            ("[[job]]\nloads = [0.1]\ndims = 0\n", "dims"),
            ("[[job]]\nloads = [0.1]\ndims = 9\n", "dims"),
            ("[[job]]\nloads = [0.1]\nmesh = 256\ndims = 8\n", "nodes"),
            (
                "[[job]]\nloads = [0.1]\nrouter = \"wh\"\ntorus = true\n",
                "torus",
            ),
            (
                "[[job]]\nloads = [0.1]\npattern = \"hotspot\"\nhotspot_node = 999\n",
                "hotspot_node",
            ),
            // NetworkConfig::validate() failures surface at parse time
            // with the job named, instead of panicking in a worker.
            ("[[job]]\nloads = [0.1]\nmesh = 300\ndims = 1\n", "radix"),
            (
                "[[job]]\nloads = [0.1]\nvcs = 1\nrouter = \"vc\"\ntorus = true\n",
                "dateline",
            ),
            // 5 ports x 13 VCs: one channel more than a router's masks.
            (
                "[[job]]\nloads = [0.1]\nvcs = 13\n",
                "65 channels per router",
            ),
            (
                "[[job]]\nloads = [0.1]\nrouter = \"vc\"\nvcs = 99999999999\n",
                "one-word channel masks",
            ),
        ] {
            let f = spec::parse(body).expect(body);
            let err = build_batch(&f).expect_err(body);
            assert!(err.contains("job #1"), "{err}");
            assert!(err.contains(what), "{body} -> {err}");
        }
        assert!(build_batch(&spec::parse("cores = 2\n").unwrap())
            .expect_err("no jobs")
            .contains("no [[job]]"));
        // A per-job `cores` would be silently ignored — it must error.
        let per_job = spec::parse("[[job]]\nloads = [0.1]\ncores = 2\n").unwrap();
        assert!(build_batch(&per_job)
            .expect_err("per-job cores")
            .contains("batch-level"));
    }

    #[test]
    fn shards_wider_than_the_mesh_clamp_to_nodes() {
        let f = spec::parse("[[job]]\nmesh = 2\nloads = [0.1]\nshards = 99\n").unwrap();
        let b = build_batch(&f).unwrap();
        assert_eq!(b.jobs[0].width, 4, "clamped to the 2x2 mesh");
        assert_eq!(b.jobs[0].config.engine, EngineKind::parallel(99));
    }

    #[test]
    fn dims_builds_a_cube() {
        let f = spec::parse("[[job]]\nmesh = 4\ndims = 3\nloads = [0.1]\n").unwrap();
        let b = build_batch(&f).unwrap();
        let mesh = b.jobs[0].config.mesh;
        assert_eq!(mesh.nodes(), 64, "4-ary 3-cube");
        assert_eq!(mesh.dims(), 3);
        assert_eq!(mesh.ports(), 7);
    }

    #[test]
    fn rebalance_keys_parse_and_validate() {
        let f = spec::parse(
            "[[job]]\nmesh = 4\nloads = [0.1]\nshards = 4\nrebalance_epoch = 200\nrebalance_threshold = 1.5\n",
        )
        .unwrap();
        let b = build_batch(&f).unwrap();
        let rb = b.jobs[0].config.rebalance.expect("rebalance set");
        assert_eq!(rb.epoch, 200);
        assert!((rb.threshold - 1.5).abs() < 1e-12);

        // Omitted threshold picks the documented default.
        let f = spec::parse("[[job]]\nloads = [0.1]\nrebalance_epoch = 64\n").unwrap();
        let rb = build_batch(&f).unwrap().jobs[0]
            .config
            .rebalance
            .expect("rebalance set");
        assert!((rb.threshold - 1.25).abs() < 1e-12);

        // Omitting both keys leaves the knob off.
        let f = spec::parse("[[job]]\nloads = [0.1]\nshards = 2\n").unwrap();
        assert_eq!(build_batch(&f).unwrap().jobs[0].config.rebalance, None);

        // Out-of-range values fail at parse time, naming the job.
        for (body, what) in [
            ("[[job]]\nloads = [0.1]\nrebalance_epoch = 0\n", "epoch"),
            (
                "[[job]]\nloads = [0.1]\nrebalance_epoch = 50\nrebalance_threshold = 0.5\n",
                "threshold",
            ),
            // A threshold without an epoch means the epoch defaults to
            // 0 — rejected rather than silently metering nothing.
            (
                "[[job]]\nloads = [0.1]\nrebalance_threshold = 2.0\n",
                "epoch",
            ),
        ] {
            let f = spec::parse(body).expect(body);
            let err = build_batch(&f).expect_err(body);
            assert!(err.contains("job #1"), "{err}");
            assert!(err.contains(what), "{body} -> {err}");
        }
    }

    #[test]
    fn faults_key_parses_and_validates() {
        let f = spec::parse(
            "[[job]]\nmesh = 4\nloads = [0.1]\nfaults = [\"link:5:0:dead@100\", \"router:3:flaky@40/10\"]\n",
        )
        .unwrap();
        let b = build_batch(&f).unwrap();
        assert_eq!(b.jobs[0].config.faults.len(), 2);
        assert_eq!(
            b.jobs[0].config.faults[0],
            FaultSpec::parse("link:5:0:dead@100").unwrap()
        );

        // Omitting the key leaves the network healthy.
        let f = spec::parse("[[job]]\nloads = [0.1]\n").unwrap();
        assert!(build_batch(&f).unwrap().jobs[0].config.faults.is_empty());

        // Bad plans fail at parse time, naming the job: wrong value
        // type, unparseable spec, off-mesh node, missing edge link, and
        // a degenerate duty cycle (the validate() backstop).
        for (body, what) in [
            ("[[job]]\nloads = [0.1]\nfaults = [0.1]\n", "strings"),
            (
                "[[job]]\nloads = [0.1]\nfaults = [\"quantum\"]\n",
                "quantum",
            ),
            (
                "[[job]]\nmesh = 4\nloads = [0.1]\nfaults = [\"link:99:0:dead@1\"]\n",
                "node 99",
            ),
            (
                // Node 3 is the 4x4 mesh's east edge: port 0 (x+) has no
                // link behind it.
                "[[job]]\nmesh = 4\nloads = [0.1]\nfaults = [\"link:3:0:dead@1\"]\n",
                "unwired",
            ),
            (
                "[[job]]\nmesh = 4\nloads = [0.1]\nfaults = [\"link:5:0:flaky@10/10\"]\n",
                "duty",
            ),
        ] {
            let f = spec::parse(body).expect(body);
            let err = build_batch(&f).expect_err(body);
            assert!(err.contains("job #1"), "{err}");
            assert!(err.contains(what), "{body} -> {err}");
        }
    }

    #[test]
    fn hotspot_pattern_parses_with_parameters() {
        let f = spec::parse(
            "[[job]]\nmesh = 4\nloads = [0.1]\npattern = \"hotspot\"\nhotspot_node = 5\nhotness = 0.3\n",
        )
        .unwrap();
        let b = build_batch(&f).unwrap();
        assert_eq!(
            b.jobs[0].config.pattern,
            TrafficPattern::Hotspot {
                hotspot: 5,
                hotness: 0.3
            }
        );
    }
}
