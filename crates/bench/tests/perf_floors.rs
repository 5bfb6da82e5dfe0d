//! Release-mode performance floors of the SimE hot paths.
//!
//! Each floor is an A/B measured inside this process on the same host, so
//! the bound is machine-relative and holds on any core count:
//!
//! * **Kernel versus naive** (s1196 after 10 seeded iterations, best of 5
//!   alternating blocks of 200 reps per side): the allocation trial scorer
//!   and the cached net-length refresh must stay faster than the naive
//!   `CostEvaluator` paths, and the engine's per-cell goodness pass must stay
//!   within a bounded multiple of one naive full evaluation.
//! * **Searched versus exhaustive allocation** (s15850, 2 serial
//!   iterations, best of 5 alternating reps per arm): the default
//!   monotone-branch trial search must beat `bound_pruning: false` by 1.3×
//!   and end on bitwise the same placement.
//!
//! A failed floor names the host's load (usable parallelism and
//! `/proc/loadavg`, read before and after the timed blocks), as other work
//! on the shared cores skews an A/B.
//!
//! Debug builds run the exhaustive oracle inside the searched scan, so both
//! floors are ignored there. Run them with
//! `cargo test --release -p bench --test perf_floors`.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sime_core::engine::{SimEConfig, SimEEngine};
use sime_core::profile::ProfileReport;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use vlsi_netlist::bench_suite::{paper_circuit, ExtendedCircuit, PaperCircuit, SuiteCircuit};
use vlsi_place::cost::Objectives;
use vlsi_place::goodness::GoodnessScratch;
use vlsi_place::kernel::{NetLengthCache, TrialScorer};
use vlsi_place::layout::{Placement, Slot};

/// Minimum speedup of the kernel trial scorer over `cell_cost_at`, 48 slots.
const TRIAL_SCORING_MIN_SPEEDUP: f64 = 4.035;
/// Minimum speedup of a full `NetLengthCache::refresh` over `net_lengths`.
const FULL_NET_LENGTHS_MIN_SPEEDUP: f64 = 1.103;
/// Maximum cost of one goodness pass, in naive full evaluations.
const GOODNESS_PASS_MAX_RATIO: f64 = 12.75;
/// Minimum speedup of the searched allocation over the exhaustive scan.
const SEARCHED_ALLOCATION_MIN_SPEEDUP: f64 = 1.3;

/// The floors time wall clock, so they must not share the cores with each
/// other when the harness runs tests in parallel.
static SERIAL: Mutex<()> = Mutex::new(());

/// The host's usable parallelism and load averages, or "unavailable" for
/// either where the platform does not report it.
fn host_load() -> String {
    let cores = std::thread::available_parallelism()
        .map_or_else(|_| "unavailable".to_string(), |n| n.to_string());
    let load = std::fs::read_to_string("/proc/loadavg")
        .map_or_else(|_| "unavailable".to_string(), |s| s.trim().to_string());
    format!("available_parallelism {cores}, loadavg {load}")
}

/// Times `f` over `reps` repetitions and returns total nanoseconds.
fn time_ns<F: FnMut()>(reps: usize, mut f: F) -> u128 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_nanos().max(1)
}

/// Times each of `sides` over `blocks` blocks of `reps` repetitions and
/// returns each side's fastest block. The sides take turns within a block,
/// and each block starts one side later than the one before, so a hiccup or
/// a drift in the host's speed lands on one block of one side, not on a
/// whole side.
fn best_of_alternating_blocks<const N: usize>(
    blocks: usize,
    reps: usize,
    sides: [&mut dyn FnMut(); N],
) -> [u128; N] {
    let mut best = [u128::MAX; N];
    for block in 0..blocks {
        for turn in 0..N {
            let side = (block + turn) % N;
            best[side] = best[side].min(time_ns(reps, &mut *sides[side]));
        }
    }
    best
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds run the exhaustive oracle inside the searched scan"
)]
fn kernels_keep_their_lead_over_the_naive_evaluator() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const ITERS: usize = 10;
    const REPS: usize = 200;
    const BLOCKS: usize = 5;
    let circuit = PaperCircuit::S1196;
    let netlist = Arc::new(paper_circuit(circuit));
    let config = SimEConfig::paper_defaults(Objectives::WirelengthPower, circuit.num_rows(), ITERS);
    let engine = SimEEngine::new(Arc::clone(&netlist), config);
    let evaluator = engine.evaluator();

    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut placement = engine.initial_placement(&mut rng);
    let mut scratch = engine.new_scratch();
    let mut profile = ProfileReport::new();
    for _ in 0..ITERS {
        engine.iterate(
            &mut placement,
            &mut scratch,
            &mut rng,
            &mut profile,
            &[],
            &[],
        );
    }

    // Trial scoring: 48 slots of the highest-degree cell, ripped up.
    let cell = netlist
        .cell_ids()
        .max_by_key(|&c| netlist.nets_of_cell(c).len())
        .unwrap();
    let mut ripped = placement.clone();
    ripped.remove_cell(cell);
    let slots: Vec<Slot> = (0..48)
        .map(|i| {
            let row = i % circuit.num_rows();
            Slot {
                row,
                index: (i * 7) % (ripped.row(row).len() + 1),
            }
        })
        .collect();
    let mut scorer = TrialScorer::for_evaluator(evaluator);
    let load_before = host_load();
    let [naive_trial_ns, kernel_trial_ns] = best_of_alternating_blocks(
        BLOCKS,
        REPS,
        [
            &mut || {
                for &slot in &slots {
                    let pos = ripped.trial_position(cell, slot);
                    black_box(evaluator.cell_cost_at(&ripped, cell, pos));
                }
            },
            &mut || {
                scorer.prepare_cell(evaluator, &ripped, cell);
                for &slot in &slots {
                    let pos = ripped.trial_position(cell, slot);
                    black_box(scorer.prepared_cost_at(pos));
                }
            },
        ],
    );

    // Full evaluation, with the cache forced onto its full-recompute path,
    // and the engine's goodness pass, priced in naive full evaluations.
    let mut cache = NetLengthCache::new();
    let lengths = evaluator.net_lengths(&placement);
    let mut goodness_scratch = GoodnessScratch::default();
    let mut goodness = Vec::new();
    let [naive_eval_ns, kernel_eval_ns, goodness_ns] = best_of_alternating_blocks(
        BLOCKS,
        REPS,
        [
            &mut || {
                black_box(evaluator.net_lengths(&placement));
            },
            &mut || {
                cache.invalidate();
                black_box(cache.refresh(evaluator, &mut scorer, &placement).len());
            },
            &mut || {
                engine.goodness().all_goodness_with(
                    &mut goodness_scratch,
                    &placement,
                    &lengths,
                    &[],
                    &mut goodness,
                );
                black_box(goodness.len());
            },
        ],
    );

    let load_after = host_load();
    let trial = naive_trial_ns as f64 / kernel_trial_ns as f64;
    let eval = naive_eval_ns as f64 / kernel_eval_ns as f64;
    let pass = goodness_ns as f64 / naive_eval_ns as f64;
    println!("trial_scoring_48slots speedup {trial:.3} (floor {TRIAL_SCORING_MIN_SPEEDUP})");
    println!("full_net_lengths speedup {eval:.3} (floor {FULL_NET_LENGTHS_MIN_SPEEDUP})");
    println!("goodness_pass ratio {pass:.3} (ceiling {GOODNESS_PASS_MAX_RATIO})");
    assert!(
        trial >= TRIAL_SCORING_MIN_SPEEDUP
            && eval >= FULL_NET_LENGTHS_MIN_SPEEDUP
            && pass <= GOODNESS_PASS_MAX_RATIO,
        "a kernel lost its lead: trial {trial:.3} (>= {TRIAL_SCORING_MIN_SPEEDUP}), \
         net lengths {eval:.3} (>= {FULL_NET_LENGTHS_MIN_SPEEDUP}), \
         goodness pass {pass:.3} (<= {GOODNESS_PASS_MAX_RATIO}); \
         host before: {load_before}; after: {load_after}"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds run the exhaustive oracle inside the searched scan"
)]
fn searched_allocation_beats_the_exhaustive_scan() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const ITERS: usize = 2;
    const REPS: usize = 5;
    let circuit = SuiteCircuit::Extended(ExtendedCircuit::S15850);
    let netlist = Arc::new(circuit.generate());
    let searched = SimEConfig::paper_defaults(Objectives::WirelengthPower, circuit.num_rows(), 1);
    let mut exhaustive = searched;
    exhaustive.allocation.bound_pruning = false;

    // One rep: ITERS iterations from the same seeded start; returns the wall
    // time per iteration and the end state's bits.
    let run = |engine: &SimEEngine, initial: &Placement| -> (u128, Vec<u64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut placement = initial.clone();
        let mut scratch = engine.new_scratch();
        let mut profile = ProfileReport::new();
        let mut bits = Vec::new();
        let t0 = Instant::now();
        for _ in 0..ITERS {
            let (avg, selected, _) = black_box(engine.iterate(
                &mut placement,
                &mut scratch,
                &mut rng,
                &mut profile,
                &[],
                &[],
            ));
            bits.extend([avg.to_bits(), selected as u64]);
        }
        let ns = t0.elapsed().as_nanos() / ITERS as u128;
        let cost = engine.cost_with(&placement, &mut scratch);
        bits.extend([
            cost.mu.to_bits(),
            cost.wirelength.to_bits(),
            cost.power.to_bits(),
        ]);
        (ns, bits)
    };
    let arms = [searched, exhaustive].map(|config| {
        let engine = SimEEngine::new(Arc::clone(&netlist), config);
        let initial = engine.initial_placement(&mut ChaCha8Rng::seed_from_u64(1));
        (engine, initial)
    });
    // Best of REPS per arm. The arms alternate, and swap order every rep,
    // so a drift in the host's speed cannot favour one of them.
    let mut best_ns = [u128::MAX; 2];
    let mut end_bits: [Vec<u64>; 2] = Default::default();
    let load_before = host_load();
    for rep in 0..REPS {
        for arm in [rep % 2, 1 - rep % 2] {
            let (engine, initial) = &arms[arm];
            let (ns, bits) = run(engine, initial);
            best_ns[arm] = best_ns[arm].min(ns);
            end_bits[arm] = bits;
        }
    }
    let load_after = host_load();
    let [searched_ns, exhaustive_ns] = best_ns;
    let [searched_bits, exhaustive_bits] = end_bits;

    assert_eq!(
        searched_bits, exhaustive_bits,
        "the searched and exhaustive scans must end on the same placement"
    );
    let speedup = exhaustive_ns as f64 / searched_ns.max(1) as f64;
    println!(
        "searched {searched_ns} ns vs exhaustive {exhaustive_ns} ns per iteration: \
         {speedup:.2}x (floor {SEARCHED_ALLOCATION_MIN_SPEEDUP}x)"
    );
    assert!(
        speedup >= SEARCHED_ALLOCATION_MIN_SPEEDUP,
        "searched allocation is only {speedup:.2}x the exhaustive scan \
         (floor {SEARCHED_ALLOCATION_MIN_SPEEDUP}x); \
         host before: {load_before}; after: {load_after}"
    );
}
