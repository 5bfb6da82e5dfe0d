//! `strategy_matrix`: one caller runs `JobRunner::run_job` — the path
//! `BatchDriver::run_cell` takes — on `Threaded::new(nproc)`, cycling through
//! the paper-tier circuits × {Type I, Type II fixed, Type II random,
//! Type III, portfolio_mixed} at 3–5 ranks with mixed `wp`/`wpd` objectives.
//!
//! Every job spawns a private pool, syncs rank epochs and charges the modeled
//! communication timeline; the `wpd` cells run the delay phase. Rank-level
//! parallelism and `exec` changes show here and not in `serial_s15850`.

use crate::stats::{self, mix, wire_seed};
use crate::{peak_rss_mb, window_open, Check, Ctx, EndToEnd, Metrics, Scope, TracedPart};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sime_core::profile::{Phase, ProfileReport};
use sime_parallel::batch::{ScenarioSpec, StrategyKind, TrajectoryFingerprint};
use sime_parallel::exec::{ExecBackend, Modeled, Threaded};
use sime_parallel::portfolio::PortfolioMix;
use sime_parallel::type2::RowPattern;
use sime_parallel::{FreeRun, JobOutcome, JobRunner, JobSpec};
use std::collections::BTreeMap;
use std::time::Instant;
use vlsi_place::cost::Objectives;

/// The circuits this workload runs (the paper's Table 1).
pub const CIRCUITS: [&str; 5] = ["s1196", "s1238", "s1488", "s1494", "s3330"];
const STRATEGIES: [StrategyKind; 5] = [
    StrategyKind::Type1,
    StrategyKind::Type2(RowPattern::Fixed),
    StrategyKind::Type2(RowPattern::Random),
    StrategyKind::Type3,
    StrategyKind::Portfolio(PortfolioMix::Mixed),
];
const OBJECTIVES: [Objectives; 2] = [
    Objectives::WirelengthPower,
    Objectives::WirelengthPowerDelay,
];
/// SimE iterations per job.
pub const ITERATIONS: usize = 4;
/// Jobs every untraced run completes at least; `mu_mean`, `modeled_s` and
/// `peak_rss_mb` are taken over exactly this prefix.
const MIN_JOBS: usize = 100;
/// Jobs of the traced prefix that the count metrics are read from (two of
/// every strategy).
const COUNT_JOBS: usize = 10;
/// Set-ups per run; `setup_s` is their median. A set-up takes about a tenth
/// of a second, so one alone reads the host's momentary speed.
const SETUP_REPS: usize = 11;
/// Set-up warm-up jobs (outside the job list): five consecutive indices, so
/// one of every strategy.
const WARMUP_JOBS: std::ops::RangeInclusive<u64> = u64::MAX - 4..=u64::MAX;
/// Seed index of the `wpd` replay behind `engine.delay_ms`.
const DELAY_PROBE_JOB: u64 = u64::MAX - 5;
/// Fixes the order of the matrix cells. Independent of the workload seed,
/// which only seeds the jobs, so every seed runs the same mix of work.
const CELL_ORDER_SALT: u64 = 0x6d61_7472_6978;
/// Iterations of the `wpd` replay the delay-phase metric is read from.
const DELAY_ITERATIONS: usize = 4;

/// Job `job` of the workload: every five consecutive jobs run the five
/// strategies on one (circuit, ranks, objectives) cell.
fn spec(ctx: &Ctx, job: u64) -> JobSpec {
    let cell = mix(CELL_ORDER_SALT, job / 5);
    JobSpec {
        scenario: ScenarioSpec {
            circuit: CIRCUITS[(cell % 5) as usize].to_string(),
            strategy: STRATEGIES[(job % 5) as usize],
            ranks: 3 + ((cell >> 8) % 3) as usize,
            iterations: ITERATIONS,
            objectives: OBJECTIVES[((cell >> 16) % 2) as usize],
            workers: Some(ctx.nproc),
            eval_chunks: 1,
            warm_start: None,
        },
        seed: Some(wire_seed(ctx.seed, job)),
    }
}

/// A runner with every circuit generated and every engine calibrated.
fn prepare() -> JobRunner {
    let runner = JobRunner::new();
    for circuit in CIRCUITS {
        for objectives in OBJECTIVES {
            runner
                .engine_for(circuit, objectives, None)
                .expect("suite circuits always resolve");
        }
    }
    runner
}

fn run_checked(
    runner: &JobRunner,
    spec: &JobSpec,
    backend: &dyn ExecBackend,
    job: u64,
    check: &mut Check,
) -> Option<JobOutcome> {
    match runner.run_job(spec, backend, &FreeRun) {
        Ok(out) if out.completed() => Some(out),
        Ok(out) => {
            check.fail(format!(
                "matrix job {job} stopped after {} iterations",
                out.outcome.iterations
            ));
            None
        }
        Err(err) => {
            check.fail(format!("matrix job {job}: {err}"));
            None
        }
    }
}

fn setup(ctx: &Ctx, backend: &Threaded, check: &mut Check) -> (JobRunner, f64) {
    let mut times = Vec::new();
    let mut runner = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let prepared = prepare();
        for job in WARMUP_JOBS {
            run_checked(&prepared, &spec(ctx, job), backend, job, check);
        }
        times.push(t0.elapsed().as_secs_f64());
        runner = Some(prepared);
    }
    let setup_s = stats::median(&times).expect("at least one set-up");
    (runner.expect("at least one set-up"), setup_s)
}

/// Re-runs every `(job, fingerprint)` on `Modeled` across `threads` threads
/// and checks the fingerprints match. Returns the check and each job's
/// `Modeled` wall milliseconds.
fn gate(
    ctx: &Ctx,
    runner: &JobRunner,
    jobs: &[(u64, TrajectoryFingerprint)],
    threads: usize,
) -> (Check, Vec<f64>) {
    let results: Vec<(usize, f64, Check)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|thread| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for (i, (job, expected)) in
                        jobs.iter().enumerate().skip(thread).step_by(threads)
                    {
                        let mut check = Check::default();
                        let t0 = Instant::now();
                        let modeled =
                            run_checked(runner, &spec(ctx, *job), &Modeled, *job, &mut check);
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        if modeled.is_some_and(|m| &m.fingerprint != expected) {
                            check.fail(format!(
                                "matrix job {job}: Threaded fingerprint differs from Modeled"
                            ));
                        }
                        out.push((i, ms, check));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("gate thread panicked"))
            .collect()
    });
    let mut check = Check::default();
    let mut modeled_ms = vec![0.0; jobs.len()];
    for (i, ms, job_check) in results {
        modeled_ms[i] = ms;
        check.merge(job_check);
    }
    (check, modeled_ms)
}

/// The untraced end-to-end run.
pub fn run(ctx: &Ctx) -> EndToEnd {
    let backend = Threaded::new(ctx.nproc);
    let mut check = Check::default();
    let (runner, setup_s) = setup(ctx, &backend, &mut check);
    let mut latencies_ms = Vec::new();
    let mut done = Vec::new();
    let mut mus = Vec::new();
    let mut modeled_s = 0.0;
    let mut attempted = 0u64;
    let mut peak = 0.0;
    let window = Instant::now();
    while window_open(window, ctx.seconds, attempted as usize, MIN_JOBS) {
        let job = attempted;
        attempted += 1;
        let spec = spec(ctx, job);
        let t0 = Instant::now();
        let out = run_checked(&runner, &spec, &backend, job, &mut check);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(out) = out {
            latencies_ms.push(ms);
            if (job as usize) < MIN_JOBS {
                mus.push(out.outcome.best_mu());
                modeled_s += out.outcome.modeled_seconds;
            }
            done.push((job, out.fingerprint));
        }
        // Every job carries a new seed, so the runner caches one more engine
        // per job and the resident set grows with the jobs run; read it at a
        // fixed job count, not at the end of a window whose job count
        // follows the host's speed.
        if job as usize == MIN_JOBS - 1 {
            peak = peak_rss_mb();
        }
    }
    let (gate_check, _) = gate(ctx, &runner, &done, ctx.nproc);
    check.merge(gate_check);
    check.attempted = attempted;
    EndToEnd {
        setup_s,
        latencies_ms,
        peak_rss_mb: peak,
        mu_mean: stats::mean(&mus),
        modeled_s,
        check,
    }
}

/// Delay-phase milliseconds per iteration of a `wpd` SimE replay on the
/// largest paper-tier circuit, read from the engine's `ProfileReport`.
fn delay_ms_per_iteration(ctx: &Ctx, runner: &JobRunner) -> f64 {
    let engine = runner
        .engine_for("s3330", Objectives::WirelengthPowerDelay, None)
        .expect("suite circuits always resolve");
    let mut rng = ChaCha8Rng::seed_from_u64(mix(ctx.seed, DELAY_PROBE_JOB));
    let mut placement = engine.initial_placement(&mut rng);
    let mut scratch = engine.new_scratch();
    let mut profile = ProfileReport::new();
    for _ in 0..DELAY_ITERATIONS {
        engine.iterate(
            &mut placement,
            &mut scratch,
            &mut rng,
            &mut profile,
            &[],
            &[],
        );
    }
    profile.time(Phase::DelayCalculation).as_secs_f64() * 1e3 / DELAY_ITERATIONS as f64
}

/// The traced loop. `Home` runs untraced for half the window on one runner,
/// then the same jobs traced on a fresh, identically prepared runner; `Mini`
/// runs the first `COUNT_JOBS` jobs traced. Each traced job is checked
/// against `Modeled` (timed, for the threaded speed-up) and, on `Home`,
/// against its untraced fingerprint.
pub fn traced(ctx: &Ctx, scope: Scope) -> TracedPart {
    let backend = Threaded::new(ctx.nproc);
    let mut check = Check::default();
    let mut untraced = Vec::new();
    let mut untraced_ms = 0.0;
    if scope == Scope::Home {
        let runner = prepare();
        let half = Instant::now();
        while window_open(half, ctx.seconds / 2.0, untraced.len(), COUNT_JOBS) {
            let job = untraced.len() as u64;
            let t0 = Instant::now();
            let out = run_checked(&runner, &spec(ctx, job), &backend, job, &mut check);
            untraced_ms += t0.elapsed().as_secs_f64() * 1e3;
            untraced.push(out.map(|o| o.fingerprint));
        }
    }
    let jobs = match scope {
        Scope::Home => untraced.len(),
        Scope::Mini => COUNT_JOBS,
    };

    let runner = prepare();
    let mut tracer = ctx.tracer(true);
    let mut traced_ms = 0.0;
    let mut threaded_ms = Vec::new();
    let mut done = Vec::new();
    let mut messages = Vec::new();
    let mut bytes = Vec::new();
    for job in 0..jobs as u64 {
        let spec = spec(ctx, job);
        let scenario = &spec.scenario;
        let t0 = Instant::now();
        tracer
            .span("jobs.engine_for", job, |_| {
                runner.engine_for(&scenario.circuit, scenario.objectives, spec.seed)
            })
            .expect("suite circuits always resolve");
        let t1 = Instant::now();
        let out = tracer.span(
            &format!("strategy.{}", scenario.strategy.label()),
            job,
            |_| run_checked(&runner, &spec, &backend, job, &mut check),
        );
        threaded_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        traced_ms += t0.elapsed().as_secs_f64() * 1e3;
        let Some(out) = out else { continue };
        if let Some(Some(before)) = untraced.get(job as usize) {
            if before != &out.fingerprint {
                check.fail(format!("matrix job {job}: tracing changed the fingerprint"));
            }
        }
        if (job as usize) < COUNT_JOBS {
            messages.push(out.outcome.comm.messages as f64);
            bytes.push(out.outcome.comm.bytes as f64);
        }
        done.push((job, out.fingerprint));
    }
    check.attempted = jobs as u64;
    // One gate thread, so the `Modeled` timings are not skewed by contention.
    let (gate_check, modeled_ms) = gate(ctx, &runner, &done, 1);
    check.merge(gate_check);

    let spans = tracer.self_ms();
    let mut m = Metrics::default();
    let mut speedups: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (i, (job, _)) in done.iter().enumerate() {
        let label = STRATEGIES[(job % 5) as usize].label();
        speedups
            .entry(label)
            .or_default()
            .push(modeled_ms[i] / threaded_ms[*job as usize]);
    }
    for strategy in STRATEGIES {
        let label = strategy.label();
        let span_ms = spans
            .get(&format!("strategy.{label}"))
            .and_then(|v| stats::median(v));
        let speedup = speedups.get(label).and_then(|v| stats::median(v));
        match (span_ms, speedup) {
            (Some(ms), Some(speedup)) => {
                m.set(format!("strategy.{label}_ms"), ms, "ms");
                m.set(format!("exec.threaded_speedup.{label}"), speedup, "ratio");
            }
            _ => check.fail(format!("matrix: no completed {label} job to read")),
        }
    }
    m.set("comm.messages_per_job", stats::mean(&messages), "count");
    m.set("comm.bytes_per_job", stats::mean(&bytes), "bytes");
    m.set(
        "engine.delay_ms",
        delay_ms_per_iteration(ctx, &runner),
        "ms",
    );
    TracedPart {
        metrics: m,
        check,
        tracer,
        overhead: (scope == Scope::Home).then(|| 1.0 - untraced_ms / traced_ms),
    }
}
