//! `serial_s15850`: one caller runs `SimEEngine::run_from` on the
//! extended-tier s15850 with the paper's defaults. Each job runs a fixed
//! number of iterations from its own seeded random placement.
//!
//! Allocation is nearly all of this time; no pool, communication model,
//! cache or server is involved, so a change to the serial kernel shows here
//! first.

use crate::stats::{self, mix};
use crate::trace::Tracer;
use crate::{peak_rss_mb, window_open, Check, Ctx, EndToEnd, Metrics, Scope, TracedPart};
use cluster_sim::machine::ComputeModel;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sime_core::allocation::AllocationStats;
use sime_core::engine::{SimEConfig, SimEEngine, SimEResult};
use sime_core::profile::{Phase, ProfileReport};
use sime_parallel::modeled_serial_seconds;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use vlsi_netlist::bench_suite::{ExtendedCircuit, SuiteCircuit};
use vlsi_place::cost::Objectives;
use vlsi_place::layout::Placement;

/// The circuits this workload generates.
pub const CIRCUITS: [&str; 1] = ["s15850"];
const CIRCUIT: SuiteCircuit = SuiteCircuit::Extended(ExtendedCircuit::S15850);
/// SimE iterations per job. Iteration cost grows along the trajectory, so
/// this is part of the workload's definition; run length changes only the
/// number of jobs.
pub const ITERATIONS: usize = 2;
/// Jobs every untraced run completes at least (p90 needs ten beyond it);
/// `mu_mean`, `modeled_s` and `peak_rss_mb` are taken over exactly this
/// prefix.
const MIN_JOBS: usize = 100;
/// Jobs of the traced prefix that the count metrics are read from.
const COUNT_JOBS: usize = 8;
/// Untraced jobs replayed through the traced loop by the correctness gate.
const GATE_JOBS: u64 = 2;
/// Set-ups per run; `setup_s` is their median. A set-up takes about a tenth
/// of a second, so one alone reads the host's momentary speed.
const SETUP_REPS: usize = 11;
/// Job index of the set-up warm-up job (outside the job list).
const WARMUP_JOB: u64 = u64::MAX;

fn build_engine() -> SimEEngine {
    let netlist = Arc::new(CIRCUIT.generate());
    let config =
        SimEConfig::paper_defaults(Objectives::WirelengthPower, CIRCUIT.num_rows(), ITERATIONS);
    SimEEngine::new(netlist, config)
}

/// The initial placement and RNG of job `job`.
fn start(engine: &SimEEngine, seed: u64, job: u64) -> (Placement, ChaCha8Rng) {
    let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, job));
    let initial = engine.initial_placement(&mut rng);
    (initial, rng)
}

/// Generates the circuit, builds and calibrates the engine and runs one
/// warm-up job, `SETUP_REPS` times; returns the last engine and the median
/// set-up time.
fn setup(ctx: &Ctx) -> (SimEEngine, f64) {
    let mut times = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let built = build_engine();
        let (initial, mut rng) = start(&built, ctx.seed, WARMUP_JOB);
        black_box(built.run_from(initial, &mut rng));
        times.push(t0.elapsed().as_secs_f64());
        engine = Some(built);
    }
    let setup_s = stats::median(&times).expect("at least one set-up");
    (engine.expect("at least one set-up"), setup_s)
}

/// µ(s) bits of a run: every iteration's µ, then the best.
fn mu_bits(history: impl Iterator<Item = f64>, best: f64) -> Vec<u64> {
    history
        .map(f64::to_bits)
        .chain(std::iter::once(best.to_bits()))
        .collect()
}

fn result_bits(result: &SimEResult) -> Vec<u64> {
    mu_bits(result.history.iter().map(|h| h.mu), result.best_mu())
}

/// What the traced replay of one job observed.
struct Replay {
    bits: Vec<u64>,
    iterations: usize,
    profile: ProfileReport,
    alloc: AllocationStats,
    goodness_delta: u64,
}

/// The `run_from` loop rebuilt from the engine's public steps, with a span
/// around every `iterate` and `cost_with` call. Produces the same trajectory
/// as `run_from`; the correctness gate checks that bit for bit.
fn replay(
    engine: &SimEEngine,
    initial: Placement,
    rng: &mut ChaCha8Rng,
    tracer: &mut Tracer,
    job: u64,
) -> Replay {
    tracer.span("engine.job", job, |tracer| {
        let mut placement = initial;
        let mut profile = ProfileReport::new();
        let mut scratch = engine.new_scratch();
        let mut best_placement = placement.clone();
        let mut best_cost = engine.evaluator().evaluate(&placement);
        let mut alloc = AllocationStats::default();
        let mut history = Vec::new();
        let mut stall = 0usize;
        let stopping = engine.config().stopping;
        for _ in 0..stopping.max_iterations {
            let (avg_goodness, _selected, stats) = tracer.span("engine.iterate", job, |_| {
                engine.iterate(&mut placement, &mut scratch, rng, &mut profile, &[], &[])
            });
            alloc.merge(&stats);
            let cost = tracer.span("engine.cost", job, |_| {
                engine.cost_with(&placement, &mut scratch)
            });
            if cost.mu > best_cost.mu {
                best_cost = cost;
                best_placement = placement.clone();
                stall = 0;
            } else {
                stall += 1;
            }
            history.push(cost.mu);
            if stopping
                .stall_iterations
                .is_some_and(|limit| stall >= limit)
                || stopping
                    .target_avg_goodness
                    .is_some_and(|target| avg_goodness >= target)
            {
                break;
            }
        }
        black_box(best_placement);
        Replay {
            bits: mu_bits(history.iter().copied(), best_cost.mu),
            iterations: history.len(),
            profile,
            alloc,
            goodness_delta: scratch.goodness_delta_recomputes(),
        }
    })
}

/// The untraced end-to-end run.
pub fn run(ctx: &Ctx) -> EndToEnd {
    let (engine, setup_s) = setup(ctx);
    let compute = ComputeModel::pentium4_2ghz();
    let mut latencies_ms = Vec::new();
    let mut bits = Vec::new();
    let mut mus = Vec::new();
    let mut modeled = Vec::new();
    let mut check = Check::default();
    let mut peak = 0.0;
    let window = Instant::now();
    while window_open(window, ctx.seconds, latencies_ms.len(), MIN_JOBS) {
        let job = latencies_ms.len() as u64;
        let (initial, mut rng) = start(&engine, ctx.seed, job);
        let t0 = Instant::now();
        let result = engine.run_from(initial, &mut rng);
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if result.iterations != ITERATIONS {
            check.fail(format!(
                "serial job {job} ran {} iterations",
                result.iterations
            ));
        }
        if (job as usize) < MIN_JOBS {
            mus.push(result.best_mu());
            modeled.push(modeled_serial_seconds(&result.profile, &compute));
            if job as usize == MIN_JOBS - 1 {
                peak = peak_rss_mb();
            }
        }
        if job < GATE_JOBS {
            bits.push(result_bits(&result));
        }
    }
    check.attempted = latencies_ms.len() as u64;

    // Gate: the traced replay must reproduce `run_from` bit for bit.
    let mut tracer = ctx.tracer(true);
    for (job, expected) in bits.iter().enumerate() {
        let (initial, mut rng) = start(&engine, ctx.seed, job as u64);
        let replayed = replay(&engine, initial, &mut rng, &mut tracer, job as u64);
        if &replayed.bits != expected {
            check.fail(format!(
                "serial job {job}: traced replay diverged from run_from"
            ));
        }
    }
    EndToEnd {
        setup_s,
        latencies_ms,
        peak_rss_mb: peak,
        mu_mean: stats::mean(&mus),
        modeled_s: modeled.iter().sum(),
        check,
    }
}

/// The traced loop. `Home` runs `run_from` untraced for half the window, then
/// the traced replay of the same jobs; `Mini` runs the first `COUNT_JOBS`
/// jobs both ways. Every replay is checked against its `run_from`.
pub fn traced(ctx: &Ctx, scope: Scope) -> TracedPart {
    let engine = build_engine();
    let mut check = Check::default();
    let mut untraced = Vec::new();
    let mut untraced_ms = 0.0;
    let half = Instant::now();
    while match scope {
        Scope::Home => window_open(half, ctx.seconds / 2.0, untraced.len(), COUNT_JOBS),
        Scope::Mini => untraced.len() < COUNT_JOBS,
    } {
        let job = untraced.len() as u64;
        let (initial, mut rng) = start(&engine, ctx.seed, job);
        let t0 = Instant::now();
        let result = engine.run_from(initial, &mut rng);
        untraced_ms += t0.elapsed().as_secs_f64() * 1e3;
        untraced.push(result_bits(&result));
    }

    let mut tracer = ctx.tracer(true);
    let mut profile = ProfileReport::new();
    let mut iterations = 0usize;
    let mut counted = AllocationStats::default();
    let mut counted_iterations = 0usize;
    let mut goodness_delta = 0u64;
    let mut traced_ms = 0.0;
    for (job, expected) in untraced.iter().enumerate() {
        let (initial, mut rng) = start(&engine, ctx.seed, job as u64);
        let t0 = Instant::now();
        let replayed = replay(&engine, initial, &mut rng, &mut tracer, job as u64);
        traced_ms += t0.elapsed().as_secs_f64() * 1e3;
        if &replayed.bits != expected {
            check.fail(format!(
                "serial job {job}: traced replay diverged from run_from"
            ));
        }
        profile.merge(&replayed.profile);
        iterations += replayed.iterations;
        if job < COUNT_JOBS {
            counted.merge(&replayed.alloc);
            counted_iterations += replayed.iterations;
            goodness_delta += replayed.goodness_delta;
        }
    }
    check.attempted = untraced.len() as u64;

    let spans = tracer.self_ms();
    let mut m = Metrics::default();
    let span_mean = |name: &str| spans.get(name).map_or(0.0, |v| stats::mean(v));
    m.set("engine.iterate_ms", span_mean("engine.iterate"), "ms");
    m.set("engine.cost_ms", span_mean("engine.cost"), "ms");
    let per_iter_ms = |phases: &[Phase]| {
        phases
            .iter()
            .map(|&p| profile.time(p).as_secs_f64() * 1e3)
            .sum::<f64>()
            / iterations.max(1) as f64
    };
    m.set(
        "engine.eval_ms",
        per_iter_ms(&[Phase::CostCalculation, Phase::GoodnessEvaluation]),
        "ms",
    );
    m.set("engine.select_ms", per_iter_ms(&[Phase::Selection]), "ms");
    m.set("engine.alloc_ms", per_iter_ms(&[Phase::Allocation]), "ms");
    m.set(
        "engine.alloc_share",
        profile.time_fraction(Phase::Allocation),
        "ratio",
    );
    let per_counted_iter = |count: usize| count as f64 / counted_iterations.max(1) as f64;
    m.set(
        "engine.trials_per_iter",
        per_counted_iter(counted.trial_positions),
        "count",
    );
    m.set(
        "engine.net_evals_per_iter",
        per_counted_iter(counted.net_evaluations),
        "count",
    );
    m.set(
        "engine.cells_per_iter",
        per_counted_iter(counted.cells_allocated),
        "count",
    );
    m.set(
        "engine.ns_per_trial",
        profile.time(Phase::Allocation).as_nanos() as f64 / profile.trial_positions.max(1) as f64,
        "ns",
    );
    let cells = engine.evaluator().netlist().num_cells();
    m.set(
        "engine.goodness_delta_frac",
        goodness_delta as f64 / (cells * counted_iterations).max(1) as f64,
        "ratio",
    );
    m.set(
        "engine.goodness_delta_base",
        (cells * counted_iterations) as f64,
        "count",
    );
    TracedPart {
        metrics: m,
        check,
        tracer,
        overhead: (scope == Scope::Home).then(|| 1.0 - untraced_ms / traced_ms),
    }
}
