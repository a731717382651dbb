//! Output plumbing: a minimal JSON value, order statistics, the host
//! fingerprint, peak memory, and the in-memory span recorder that the
//! traced run writes out as a Chrome trace-event file.

use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// A JSON value. Objects keep insertion order so reports read in the
/// order they were built.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn opt(v: Option<u64>) -> Json {
        v.map_or(Json::Null, |x| Json::Num(x as f64))
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // `{}` prints the shortest string that round-trips, i.e. every
            // digit the measurement has; JSON has no NaN or infinity.
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The median of `xs` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The smallest of `xs` (infinity for an empty slice).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median, extremes, and sample count of a timing series — the report
/// states how many samples each median rests on.
pub fn summary(xs: &[f64]) -> Json {
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Json::obj([
        ("median", median(xs).into()),
        ("min", min(xs).into()),
        ("max", max.into()),
        ("n", (xs.len() as u64).into()),
    ])
}

/// Where the numbers came from, so results from different hosts are
/// visibly not comparable.
pub struct Host {
    pub cpu: String,
    pub nproc: usize,
    pub rustc: &'static str,
    pub git_rev: String,
}

impl Host {
    pub fn probe() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: env!("PERFBENCH_RUSTC"),
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
        }
    }

    pub fn json(&self) -> Json {
        Json::obj([
            ("cpu", Json::str(&self.cpu)),
            ("nproc", (self.nproc as u64).into()),
            ("rustc", Json::str(self.rustc)),
            ("git_rev", Json::str(&self.git_rev)),
        ])
    }
}

/// The commit checked out in the working directory, read from `.git`
/// directly so nothing outside the checkout is consulted (a source
/// export has no `.git` and reports `unknown`).
fn git_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One recorded span: a call into a layer, timed from the benchmark's
/// side of the boundary.
struct Span {
    name: String,
    cat: &'static str,
    thread: ThreadId,
    start_ns: u64,
    dur_ns: u64,
    id: u64,
    parent: Option<u64>,
}

/// Spans kept in memory during a traced run and written out at the end.
pub struct Spans {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id, taken before the span's children run so they
    /// can name it as their cause.
    pub fn id(&self) -> u64 {
        // Relaxed: the counter publishes no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records `[start, end)` as span `id`.
    pub fn record(
        &self,
        id: u64,
        name: impl Into<String>,
        cat: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
    ) {
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name: name.into(),
            cat,
            thread: std::thread::current().id(),
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            id,
            parent,
        });
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(self.id(), name, cat, t0, Instant::now(), parent);
        out
    }

    /// Writes the spans as a Chrome trace-event file (opens in Perfetto
    /// and `chrome://tracing`), one track per thread.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut threads: Vec<ThreadId> = Vec::new();
        let mut events = Vec::with_capacity(spans.len());
        for s in spans.iter() {
            let tid = match threads.iter().position(|t| *t == s.thread) {
                Some(i) => i,
                None => {
                    threads.push(s.thread);
                    threads.len() - 1
                }
            };
            let mut args = vec![("id".to_string(), Json::from(s.id))];
            if let Some(p) = s.parent {
                args.push(("parent".into(), p.into()));
            }
            events.push(Json::obj([
                ("name", Json::str(&s.name)),
                ("cat", Json::str(s.cat)),
                ("ph", Json::str("X")),
                ("ts", (s.start_ns as f64 / 1e3).into()),
                ("dur", (s.dur_ns as f64 / 1e3).into()),
                ("pid", 1u64.into()),
                ("tid", (tid as u64 + 1).into()),
                ("args", Json::Obj(args)),
            ]));
        }
        // Only the last directory is created: a missing parent means the
        // source tree moved, and nothing is written outside it.
        if let Some(dir) = path.parent().filter(|d| !d.exists()) {
            std::fs::create_dir(dir)?;
        }
        let doc = Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ns")),
        ]);
        std::fs::write(path, format!("{doc}\n"))
    }
}
