//! Fixed per-layer probes that every traced run measures the same way:
//! kernel calls on a mid-run s15850 placement, pool spawn and epoch round
//! trips, the `.pl` interchange round trip, and netlist generation, digest
//! and engine construction over the run's own circuits. Inputs derive from
//! the workload seed.

use crate::stats::{self, mix};
use crate::{Check, Ctx, Metrics};
use cluster_sim::comm::WorkerPool;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sime_core::engine::{SimEConfig, SimEEngine};
use sime_parallel::jobs::bookshelf_digest;
use sime_parallel::JobRunner;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use vlsi_netlist::bench_suite::{ExtendedCircuit, SuiteCircuit};
use vlsi_netlist::bookshelf::{parse_pl, write_pl};
use vlsi_place::cost::Objectives;
use vlsi_place::kernel::{NetLengthCache, TrialScorer};
use vlsi_place::layout::{Placement, Slot};
use vlsi_place::{placement_from_pl, placement_to_pl};

/// Seed index of the probes' inputs (outside every workload's job list).
const PROBE_JOB: u64 = u64::MAX - 1000;
/// Cells whose trial scoring is timed.
const TRIAL_CELLS: usize = 64;
/// Candidate slots per cell (the default allocation window's size).
const TRIAL_SLOTS: usize = 48;
const KERNEL_REPS: usize = 40;
const EPOCH_REPS: usize = 2000;
const SPAWN_REPS: usize = 50;
const REPS: usize = 3;

fn median_of(samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or(0.0)
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

/// Trial scoring, full net-length refresh and the goodness pass on an
/// s15850 placement two SimE iterations into a run.
fn kernel(ctx: &Ctx, m: &mut Metrics) {
    let circuit = SuiteCircuit::Extended(ExtendedCircuit::S15850);
    let netlist = Arc::new(circuit.generate());
    let config = SimEConfig::paper_defaults(Objectives::WirelengthPower, circuit.num_rows(), 2);
    let engine = SimEEngine::new(Arc::clone(&netlist), config);
    let mut rng = ChaCha8Rng::seed_from_u64(mix(ctx.seed, PROBE_JOB));
    let initial = engine.initial_placement(&mut rng);
    let placement = engine.run_from(initial, &mut rng).best_placement;
    let evaluator = engine.evaluator();
    let mut scorer = TrialScorer::for_evaluator(evaluator);

    let num_cells = netlist.num_cells() as u64;
    let mut trial_ns = Vec::new();
    for i in 0..TRIAL_CELLS as u64 {
        let cell =
            vlsi_netlist::CellId::from((mix(ctx.seed, PROBE_JOB + 1 + i) % num_cells) as usize);
        let mut ripped = placement.clone();
        let home = ripped.remove_cell(cell);
        let rows = ripped.num_rows();
        let slots: Vec<Slot> = (0..TRIAL_SLOTS)
            .map(|k| {
                let row = (home.row + k % 3 + rows - 1) % rows;
                let len = ripped.row(row).len();
                Slot {
                    row,
                    index: (home.index.min(len) + k / 3).min(len),
                }
            })
            .collect();
        let positions: Vec<(f64, f64)> = slots
            .iter()
            .map(|&s| ripped.trial_position(cell, s))
            .collect();
        let t0 = Instant::now();
        for _ in 0..KERNEL_REPS {
            scorer.prepare_cell(evaluator, &ripped, cell);
            for &pos in &positions {
                black_box(scorer.prepared_cost_at(pos));
            }
        }
        trial_ns.push(t0.elapsed().as_nanos() as f64 / (KERNEL_REPS * TRIAL_SLOTS) as f64);
    }
    m.set("kernel.trial_ns", median_of(&trial_ns), "ns");

    let mut cache = NetLengthCache::new();
    let refresh_us: Vec<f64> = (0..KERNEL_REPS)
        .map(|_| {
            cache.invalidate();
            time_ms(|| {
                black_box(cache.refresh(evaluator, &mut scorer, &placement).len());
            }) * 1e3
        })
        .collect();
    m.set("kernel.refresh_full_us", median_of(&refresh_us), "us");

    let lengths = cache.refresh(evaluator, &mut scorer, &placement).to_vec();
    let mut goodness = Vec::new();
    let goodness_us: Vec<f64> = (0..KERNEL_REPS)
        .map(|_| {
            time_ms(|| {
                engine.goodness().all_goodness_into(&lengths, &mut goodness);
                black_box(goodness.len());
            }) * 1e3
        })
        .collect();
    m.set("kernel.goodness_pass_us", median_of(&goodness_us), "us");
}

/// Pool spawn + join, and the round trip of an empty `nproc`-task epoch.
fn exec(ctx: &Ctx, m: &mut Metrics) {
    let spawn_us: Vec<f64> = (0..SPAWN_REPS)
        .map(|_| time_ms(|| drop(WorkerPool::new(ctx.nproc))) * 1e3)
        .collect();
    m.set("exec.pool_spawn_us", median_of(&spawn_us), "us");

    let pool = WorkerPool::new(ctx.nproc);
    let epoch_us: Vec<f64> = (0..EPOCH_REPS)
        .map(|_| {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..ctx.nproc)
                .map(|_| Box::new(|| ()) as Box<dyn FnOnce() + Send>)
                .collect();
            time_ms(|| {
                black_box(pool.run_tasks(tasks));
            }) * 1e3
        })
        .collect();
    m.set("exec.epoch_rt_us", median_of(&epoch_us), "us");
}

/// `placement_to_pl` + `write_pl` + `parse_pl` + `placement_from_pl` on a
/// seeded placement of each circuit the server registers; the round trip
/// must reproduce the `.pl` text byte for byte.
fn interchange(ctx: &Ctx, m: &mut Metrics, check: &mut Check) {
    let mut per_circuit = Vec::new();
    for (i, name) in crate::server::CIRCUITS.iter().enumerate() {
        let circuit = SuiteCircuit::from_name(name).expect("suite circuit");
        let netlist = circuit.generate();
        let mut rng = ChaCha8Rng::seed_from_u64(mix(ctx.seed, PROBE_JOB + 100 + i as u64));
        let placement = Placement::random(&netlist, circuit.num_rows(), &mut rng);
        let mut times = Vec::new();
        for _ in 0..REPS {
            check.attempted += 1;
            let t0 = Instant::now();
            let text = write_pl(&placement_to_pl(&netlist, &placement));
            let back = parse_pl(&text)
                .map_err(|e| e.to_string())
                .and_then(|entries| {
                    placement_from_pl(&netlist, circuit.num_rows(), &entries)
                        .map_err(|e| e.to_string())
                });
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            match back {
                Ok(back) if write_pl(&placement_to_pl(&netlist, &back)) == text => {}
                Ok(_) => check.fail(format!("{name}: .pl round trip changed the placement")),
                Err(e) => check.fail(format!("{name}: .pl round trip failed: {e}")),
            }
        }
        per_circuit.push(median_of(&times));
    }
    m.set(
        "interchange.pl_roundtrip_ms",
        stats::mean(&per_circuit),
        "ms",
    );
}

/// Generation and content digest of each of the run's circuits, then engine
/// construction through a fresh `JobRunner`: calibration for the default
/// seed, and a re-seed that reuses the calibration.
fn netlist_and_jobs(circuits: &[&str], m: &mut Metrics, check: &mut Check) {
    let mut generate = Vec::new();
    let mut digest = Vec::new();
    let mut calibrate = Vec::new();
    let mut reseed = Vec::new();
    for name in circuits {
        let circuit = SuiteCircuit::from_name(name).expect("suite circuit");
        let mut times = Vec::new();
        let mut netlist = None;
        for _ in 0..REPS {
            times.push(time_ms(|| netlist = Some(circuit.generate())));
        }
        generate.push(median_of(&times));
        let netlist = netlist.expect("generated");
        let times: Vec<f64> = (0..REPS)
            .map(|_| {
                time_ms(|| {
                    black_box(bookshelf_digest(&netlist));
                })
            })
            .collect();
        digest.push(median_of(&times));

        let runner = JobRunner::new();
        check.attempted += 1;
        if let Err(e) = runner.netlist(name) {
            check.fail(format!("{name}: {e}"));
            continue;
        }
        let objectives = Objectives::WirelengthPower;
        let calibrate_ms = time_ms(|| drop(runner.engine_for(name, objectives, None)));
        let reseed_ms = time_ms(|| drop(runner.engine_for(name, objectives, Some(7))));
        let stats = runner.stats();
        if stats.engines_calibrated != 1 || stats.engines_reseeded != 1 {
            check.fail(format!(
                "{name}: engine cache took an unexpected path ({stats:?})"
            ));
        }
        calibrate.push(calibrate_ms);
        reseed.push(reseed_ms);
    }
    m.set("netlist.generate_ms", stats::mean(&generate), "ms");
    m.set("netlist.digest_ms", stats::mean(&digest), "ms");
    m.set("jobs.calibrate_ms", stats::mean(&calibrate), "ms");
    m.set("jobs.reseed_ms", stats::mean(&reseed), "ms");
}

/// Runs every probe; `circuits` are the traced workload's own circuits.
pub fn run(ctx: &Ctx, circuits: &[&str]) -> (Metrics, Check) {
    let mut m = Metrics::default();
    let mut check = Check::default();
    kernel(ctx, &mut m);
    exec(ctx, &mut m);
    interchange(ctx, &mut m, &mut check);
    netlist_and_jobs(circuits, &mut m, &mut check);
    (m, check)
}
