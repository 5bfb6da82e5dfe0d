//! `placebench` — the placement system's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path placebench/Cargo.toml -- \
//!     --workload <serial_s15850|strategy_matrix|server_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `BENCHMARK.json` lists `serial_s15850` and `strategy_matrix`;
//! `server_mixed` runs the same way by hand (see `README.md` for why it is
//! not listed).
//!
//! With `--trace 0` the run measures the workload's end-to-end metrics; with
//! `--trace 1` it records spans around the calls into each crate and prints
//! the per-layer breakdown instead. Either way the correctness gate runs
//! after the timed window, and the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Any failed check
//! makes the exit code non-zero. See `README.md` for the workloads and
//! metrics.

mod matrix;
mod probes;
mod serial;
mod server;
mod stats;
mod trace;

use bench::json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Parameters shared by every part of one benchmark run.
pub struct Ctx {
    /// Workload seed: every input of the run derives from it.
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: f64,
    /// Host parallelism; parallel parts use this many workers.
    pub nproc: usize,
    /// Common time origin of every span recorder.
    pub origin: Instant,
}

impl Ctx {
    /// A disabled or enabled span recorder on this run's time origin.
    pub fn tracer(&self, enabled: bool) -> Tracer {
        Tracer::new(enabled, self.origin)
    }
}

/// Whether a closed loop keeps going: until the window has elapsed *and* at
/// least `min_jobs` jobs completed, so every reported percentile has enough
/// samples beyond it.
pub fn window_open(start: Instant, seconds: f64, done: usize, min_jobs: usize) -> bool {
    done < min_jobs || start.elapsed().as_secs_f64() < seconds
}

/// Outcome of the correctness checks: jobs attempted and every failure seen
/// (errors, timeouts, refused submits, fingerprint mismatches).
#[derive(Debug, Default)]
pub struct Check {
    /// Jobs (or checked operations) attempted.
    pub attempted: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Check {
    /// Records a failure.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failures.push(message.into());
    }

    /// Folds another check into this one.
    pub fn merge(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// Named metrics with their units.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// Adds every metric of `other`, keeping this one's value on a clash.
    pub fn extend(&mut self, other: Metrics) {
        for (name, entry) in other.0 {
            self.0.entry(name).or_insert(entry);
        }
    }

    fn to_json(&self, check: &mut Check) -> Json {
        let mut map = BTreeMap::new();
        for (name, &(value, unit)) in &self.0 {
            if !value.is_finite() {
                check.fail(format!("metric {name} is not a finite number"));
                continue;
            }
            let mut entry = BTreeMap::new();
            entry.insert("value".to_string(), Json::Number(value));
            entry.insert("unit".to_string(), Json::String(unit.to_string()));
            map.insert(name.clone(), Json::Object(entry));
        }
        Json::Object(map)
    }
}

/// End-to-end measurements of one untraced run of a workload.
pub struct EndToEnd {
    /// Median set-up time over the run's repeated set-ups.
    pub setup_s: f64,
    /// Per-job latency in milliseconds, every job of the window.
    pub latencies_ms: Vec<f64>,
    /// Peak resident set once the workload's fixed job prefix completed
    /// (`server_mixed`: at the end of the window).
    pub peak_rss_mb: f64,
    /// Mean best µ over the workload's fixed job prefix.
    pub mu_mean: f64,
    /// Summed modeled makespan over the workload's fixed job prefix.
    pub modeled_s: f64,
    /// Correctness gate.
    pub check: Check,
}

impl EndToEnd {
    /// The end-to-end metrics, plus the sample count behind each percentile.
    fn metrics(&self, check: &mut Check) -> (Metrics, BTreeMap<String, Json>) {
        let mut m = Metrics::default();
        let mut samples = BTreeMap::new();
        m.set("setup_s", self.setup_s, "s");
        // The tail alone, not the median or a throughput: the host's speed
        // switches between a steady slow state and a faster, noisy one for
        // minutes at a time, and the median and the mean follow the share of
        // each in the window, while p90 stays near the steady state (see
        // README.md).
        match stats::percentile(&self.latencies_ms, 90.0) {
            Some(p) => {
                m.set("job_p90_ms", p.value, "ms");
                samples.insert("job_p90_ms".to_string(), Json::Number(p.samples as f64));
            }
            None => check.fail(format!(
                "job_p90_ms: too few samples ({}) for a nearest-rank p90",
                self.latencies_ms.len()
            )),
        }
        m.set("peak_rss_mb", self.peak_rss_mb, "MiB");
        m.set("mu_mean", self.mu_mean, "mu");
        m.set("modeled_s", self.modeled_s, "sim_s");
        (m, samples)
    }
}

/// Per-layer result of one workload's traced loop.
pub struct TracedPart {
    /// Per-layer metrics read off the spans and the public counters.
    pub metrics: Metrics,
    /// Correctness gate of the traced loop.
    pub check: Check,
    /// Every recorded span.
    pub tracer: Tracer,
    /// `1 − traced ÷ untraced` throughput over identical jobs (the home
    /// workload of a traced run only).
    pub overhead: Option<f64>,
}

/// How much of a workload's traced loop a traced run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The run's own workload: untraced and traced halves of the window over
    /// identical jobs.
    Home,
    /// Another workload: a fixed short job prefix, so every traced run
    /// reports every per-layer metric.
    Mini,
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Serial,
    Matrix,
    Server,
}

impl Workload {
    fn from_name(name: &str) -> Option<Self> {
        match name {
            "serial_s15850" => Some(Workload::Serial),
            "strategy_matrix" => Some(Workload::Matrix),
            "server_mixed" => Some(Workload::Server),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Serial => "serial_s15850",
            Workload::Matrix => "strategy_matrix",
            Workload::Server => "server_mixed",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(40),
        trace,
    })
}

/// The checkout's git revision, read from `.git` without running git; the
/// benchmark also runs from exported trees, which have none.
fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn stamp(args: &Args, ctx: &Ctx) -> String {
    let mut map = BTreeMap::new();
    map.insert("workload".into(), Json::String(args.workload.name().into()));
    map.insert("seed".into(), Json::Number(args.seed as f64));
    map.insert("seconds".into(), Json::Number(args.seconds as f64));
    map.insert("trace".into(), Json::Bool(args.trace));
    map.insert("nproc".into(), Json::Number(ctx.nproc as f64));
    map.insert(
        "profile".into(),
        Json::String(
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
    );
    map.insert("revision".into(), Json::String(git_revision()));
    let mut outer = BTreeMap::new();
    outer.insert("stamp".into(), Json::Object(map));
    Json::Object(outer).to_string()
}

fn run_traced(workload: Workload, ctx: &Ctx) -> (Metrics, Check, Tracer) {
    let scope = |w: Workload| {
        if w == workload {
            Scope::Home
        } else {
            Scope::Mini
        }
    };
    let parts = [
        serial::traced(ctx, scope(Workload::Serial)),
        matrix::traced(ctx, scope(Workload::Matrix)),
        server::traced(ctx, scope(Workload::Server)),
    ];
    let circuits: &[&str] = match workload {
        Workload::Serial => &serial::CIRCUITS,
        Workload::Matrix => &matrix::CIRCUITS,
        Workload::Server => &server::CIRCUITS,
    };
    let mut metrics = Metrics::default();
    let mut check = Check::default();
    let mut tracer = ctx.tracer(true);
    for part in parts {
        if let Some(overhead) = part.overhead {
            metrics.set("trace.overhead_frac", overhead, "ratio");
        }
        metrics.extend(part.metrics);
        check.merge(part.check);
        tracer.absorb(part.tracer);
    }
    let (probe_metrics, probe_check) = probes::run(ctx, circuits);
    metrics.extend(probe_metrics);
    check.merge(probe_check);
    (metrics, check, tracer)
}

fn write_trace(workload: Workload, seed: u64, tracer: &Tracer) {
    let dir = std::path::Path::new("placebench").join("out");
    let path = dir.join(format!("trace-{}-s{seed}.jsonl", workload.name()));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json_lines()));
    match written {
        Ok(()) => eprintln!("placebench: spans written to {}", path.display()),
        Err(err) => eprintln!("placebench: could not write {}: {err}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("placebench: {err}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        // Debug builds switch on the pruning-oracle checks inside the
        // allocation kernel, so their timings describe a different program.
        eprintln!("placebench: refusing to report from a debug build; build with --release");
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        origin: Instant::now(),
    };
    println!("{}", stamp(&args, &ctx));

    let (metrics, mut check) = if args.trace {
        let (metrics, check, tracer) = run_traced(args.workload, &ctx);
        write_trace(args.workload, args.seed, &tracer);
        (metrics, check)
    } else {
        let result = match args.workload {
            Workload::Serial => serial::run(&ctx),
            Workload::Matrix => matrix::run(&ctx),
            Workload::Server => server::run(&ctx),
        };
        let mut check = Check::default();
        let (metrics, samples) = result.metrics(&mut check);
        let mut line = BTreeMap::new();
        line.insert("samples".to_string(), Json::Object(samples));
        println!("{}", Json::Object(line));
        check.merge(result.check);
        (metrics, check)
    };

    let rendered_metrics = metrics.to_json(&mut check);
    for failure in &check.failures {
        eprintln!("placebench: FAILED {failure}");
    }
    let failed = check.failures.len() as u64;
    let mut out = BTreeMap::new();
    out.insert("correct".to_string(), Json::Bool(failed == 0));
    out.insert(
        "attempted".to_string(),
        Json::Number(check.attempted.max(1) as f64),
    );
    out.insert("failed".to_string(), Json::Number(failed as f64));
    out.insert("metrics".to_string(), rendered_metrics);
    println!("{}", Json::Object(out));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
