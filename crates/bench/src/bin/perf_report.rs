//! `perf_report` — machine-readable performance snapshots of the SimE hot
//! paths, written as JSON so CI can archive the perf trajectory PR over PR.
//!
//! Three reports per invocation:
//!
//! * `BENCH_PR2.json` — the operator snapshot: a handful of full SimE
//!   iterations on the paper's `s1196` circuit plus naive-vs-kernel
//!   head-to-heads (trial scoring, full evaluation, the per-cell goodness
//!   pass), with per-phase wall-clock nanoseconds, deterministic work counts
//!   and derived net-evaluations/second rates. The machine-relative ratios
//!   in `head_to_head` are what the CI perf-guardrail job compares against
//!   the checked-in `BENCH_BASELINE.json` (see the `perf_guard` binary).
//! * `BENCH_PR3.json` — the execution-backend scaling snapshot: the
//!   E8 scaling matrix (Type III at p = 5, Type II random at p = 4)
//!   on the `Modeled` backend and the `Threaded` backend at 1, 2 and 4 OS
//!   workers, with measured wall-clock per run, the speedup of 4 workers
//!   over 1, the host's available parallelism (the speedup ceiling — on a
//!   single-core host the honest number is ~1×), and a cross-check that
//!   every backend/worker-count produced bitwise-identical results.
//! * `BENCH_PR7.json` — the bound-pruned allocation snapshot: the serial
//!   windowed iteration on `s15850`, the default engine (bound-pruned
//!   trial scoring) versus the legacy full-scan configuration, A/B'd in the
//!   same process from identical seeded starts. Both arms are serial, so
//!   the headline `windowed_serial_speedup_vs_legacy` is machine-relative
//!   and `perf_guard --pr7` gates it at ≥ 1.3× on **every** runner,
//!   single-core included. The report also carries per-phase wall shares
//!   (Evaluation / Selection / Allocation / cost refresh) for both arms;
//!   `--phases` additionally prints them as a table.
//!
//! Usage:
//! `perf_report [--only pr2|pr3|pr7] [--out PATH] [--out3 PATH]
//! [--out7 PATH] [--iters N] [--scaling-iters N] [--phases]`
//! (defaults: all three reports, `BENCH_PR2.json`, `BENCH_PR3.json`,
//! `BENCH_PR7.json`, 10 and 8 iterations; `--only` lets a CI job generate
//! just the part it archives).

use cluster_sim::timeline::ClusterConfig;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sime_core::engine::{SimEConfig, SimEEngine};
use sime_core::profile::{Phase, ProfileReport};
use sime_parallel::control::FreeRun;
use sime_parallel::exec::{ExecBackend, Modeled, Threaded};
use sime_parallel::type2::{run_type2, RowPattern, Type2Config};
use sime_parallel::type3::{run_type3, Type3Config};
use sime_parallel::StrategyOutcome;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use vlsi_netlist::bench_suite::{paper_circuit, ExtendedCircuit, PaperCircuit, SuiteCircuit};
use vlsi_place::cost::Objectives;
use vlsi_place::goodness::GoodnessScratch;
use vlsi_place::kernel::{NetLengthCache, TrialScorer};
use vlsi_place::layout::Slot;

/// Times `f` over `reps` repetitions and returns total nanoseconds.
fn time_ns<F: FnMut()>(reps: usize, mut f: F) -> u128 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_nanos()
}

/// A boxed strategy launcher, parameterised over the execution backend (used
/// by the parallel-scaling matrix).
type StrategyRunner<'a> = Box<dyn Fn(&dyn ExecBackend) -> StrategyOutcome + 'a>;

fn evals_per_sec(net_evals: u64, total_ns: u128) -> f64 {
    if total_ns == 0 {
        0.0
    } else {
        net_evals as f64 / (total_ns as f64 / 1e9)
    }
}

/// Runs the parallel-scaling matrix and assembles the `BENCH_PR3` JSON:
/// wall-clock per (strategy, backend, workers) cell — best of `reps`
/// repetitions — plus speedups and the bitwise cross-backend check.
fn parallel_scaling_report(iters: usize) -> String {
    let circuit = PaperCircuit::S1196;
    let netlist = Arc::new(paper_circuit(circuit));
    let config = SimEConfig::paper_defaults(Objectives::WirelengthPower, circuit.num_rows(), iters);
    let engine = SimEEngine::new(Arc::clone(&netlist), config);
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    const REPS: usize = 3;

    let backends: Vec<(String, u64, Box<dyn ExecBackend>)> = vec![
        ("modeled".into(), 0, Box::new(Modeled)),
        ("threaded".into(), 1, Box::new(Threaded::new(1))),
        ("threaded".into(), 2, Box::new(Threaded::new(2))),
        ("threaded".into(), 4, Box::new(Threaded::new(4))),
    ];
    let strategies: Vec<(&str, StrategyRunner<'_>)> = vec![
        (
            "type3_p5",
            Box::new(|backend: &dyn ExecBackend| {
                run_type3(
                    &engine,
                    ClusterConfig::paper_cluster(5),
                    Type3Config {
                        ranks: 5,
                        iterations: iters,
                        retry_threshold: 5,
                    },
                    backend,
                    &FreeRun,
                )
            }),
        ),
        (
            "type2_random_p4",
            Box::new(|backend: &dyn ExecBackend| {
                run_type2(
                    &engine,
                    ClusterConfig::paper_cluster(4),
                    Type2Config {
                        ranks: 4,
                        iterations: iters,
                        pattern: RowPattern::Random,
                    },
                    backend,
                    &FreeRun,
                )
            }),
        ),
    ];

    let mut rows = String::new();
    let mut bitwise_ok = true;
    let mut speedup_4v1 = f64::NAN;
    for (si, (name, run)) in strategies.iter().enumerate() {
        let mut reference: Option<StrategyOutcome> = None;
        let mut wall_w1 = 0u128;
        for (bi, (backend_name, workers, backend)) in backends.iter().enumerate() {
            let mut best_ns = u128::MAX;
            let mut outcome = None;
            for _ in 0..REPS {
                let t0 = Instant::now();
                let o = run(backend.as_ref());
                best_ns = best_ns.min(t0.elapsed().as_nanos());
                outcome = Some(o);
            }
            let outcome = outcome.expect("at least one rep ran");
            match &reference {
                None => reference = Some(outcome.clone()),
                Some(r) => {
                    bitwise_ok &= r.best_cost.mu.to_bits() == outcome.best_cost.mu.to_bits()
                        && r.modeled_seconds.to_bits() == outcome.modeled_seconds.to_bits()
                        && r.mu_history.len() == outcome.mu_history.len()
                        && r.mu_history
                            .iter()
                            .zip(&outcome.mu_history)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                }
            }
            if *workers == 1 {
                wall_w1 = best_ns;
            }
            let speedup_vs_w1 = if *workers >= 1 && wall_w1 > 0 {
                wall_w1 as f64 / best_ns as f64
            } else {
                f64::NAN
            };
            if si == 0 && *workers == 4 && wall_w1 > 0 {
                speedup_4v1 = wall_w1 as f64 / best_ns as f64;
            }
            if si > 0 || bi > 0 {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "    {{\"strategy\": \"{name}\", \"backend\": \"{backend_name}\", \
                 \"workers\": {workers}, \"reps\": {REPS}, \"wall_ns\": {best_ns}, \
                 \"speedup_vs_1_worker\": {speedup}, \"best_mu\": {mu:.6}, \
                 \"modeled_seconds\": {modeled:.3}}}",
                speedup = if speedup_vs_w1.is_nan() {
                    "null".to_string()
                } else {
                    format!("{speedup_vs_w1:.2}")
                },
                mu = outcome.best_cost.mu,
                modeled = outcome.modeled_seconds,
            ));
        }
    }

    format!(
        "{{\n\
         \x20 \"schema_version\": 1,\n\
         \x20 \"report\": \"BENCH_PR3\",\n\
         \x20 \"bench\": \"parallel_scaling\",\n\
         \x20 \"circuit\": \"s1196\",\n\
         \x20 \"cells\": {cells},\n\
         \x20 \"iterations\": {iters},\n\
         \x20 \"host_parallelism\": {host_parallelism},\n\
         \x20 \"bitwise_identical_across_backends_and_workers\": {bitwise_ok},\n\
         \x20 \"type3_p5_speedup_4_workers_vs_1\": {speedup},\n\
         \x20 \"runs\": [\n{rows}\n  ]\n\
         }}\n",
        cells = netlist.num_cells(),
        speedup = if speedup_4v1.is_nan() {
            "null".to_string()
        } else {
            format!("{speedup_4v1:.2}")
        },
    )
}

/// Runs the bound-pruned allocation A/B and assembles the `BENCH_PR7` JSON.
///
/// Two serial arms from identical seeded starts on the extended-tier
/// `s15850` circuit, windowed allocation:
///
/// * `pruned` — the default engine: bound-pruned trial scoring with
///   row-hoisted exact rescoring;
/// * `legacy_exhaustive` — `bound_pruning` off: every candidate scored in
///   full.
///
/// Both arms run in the same process on the same host, so the headline
/// `windowed_serial_speedup_vs_legacy` is machine-relative — a single-core
/// container measures it as honestly as a 32-core runner, which is why
/// `perf_guard --pr7` gates it without a low-core skip. Wall-clock is the
/// best of `REPS` repetitions of an `ITERS`-iteration run (the second
/// iteration re-prices only the nets the first one dirtied), reported per
/// iteration.
/// Per-arm phase wall shares (cost refresh / goodness / selection /
/// allocation / delay) come from the fastest repetition; `print_phases`
/// additionally prints them as a table.
fn bound_pruned_report(print_phases: bool) -> String {
    let circuit = SuiteCircuit::Extended(ExtendedCircuit::S15850);
    let netlist = Arc::new(circuit.generate());
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    const REPS: usize = 3;
    const ITERS: usize = 2;

    let optimized = SimEConfig::paper_defaults(Objectives::WirelengthPower, circuit.num_rows(), 1);
    assert!(
        optimized.allocation.bound_pruning,
        "bound pruning must be the default"
    );
    let legacy = {
        let mut config = optimized;
        config.allocation.bound_pruning = false;
        config
    };
    let arms: [(&str, SimEConfig); 2] = [("pruned", optimized), ("legacy_exhaustive", legacy)];

    struct Arm {
        label: &'static str,
        per_iter_ns: u128,
        phase_ns: Vec<(&'static str, u128)>,
        end_bits: Vec<u64>,
    }
    let mut measured: Vec<Arm> = Vec::new();
    for (label, config) in arms {
        let engine = SimEEngine::new(Arc::clone(&netlist), config);
        let mut seed_rng = ChaCha8Rng::seed_from_u64(1);
        let initial = engine.initial_placement(&mut seed_rng);
        let mut best_total_ns = u128::MAX;
        let mut best_profile = ProfileReport::new();
        let mut end_bits: Vec<u64> = Vec::new();
        for _ in 0..REPS {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let mut placement = initial.clone();
            let mut scratch = engine.new_scratch();
            let mut profile = ProfileReport::new();
            let mut bits: Vec<u64> = Vec::new();
            let t0 = Instant::now();
            for _ in 0..ITERS {
                let (avg, selected, _stats) = black_box(engine.iterate(
                    &mut placement,
                    &mut scratch,
                    &mut rng,
                    &mut profile,
                    &[],
                    &[],
                ));
                bits.push(avg.to_bits());
                bits.push(selected as u64);
            }
            let total_ns = t0.elapsed().as_nanos();
            let cost = engine.cost_with(&placement, &mut scratch);
            bits.push(cost.mu.to_bits());
            bits.push(cost.wirelength.to_bits());
            bits.push(cost.power.to_bits());
            if total_ns < best_total_ns {
                best_total_ns = total_ns;
                best_profile = profile;
            }
            end_bits = bits;
        }
        measured.push(Arm {
            label,
            per_iter_ns: best_total_ns / ITERS as u128,
            phase_ns: Phase::ALL
                .iter()
                .map(|&p| (p.label(), best_profile.time(p).as_nanos()))
                .collect(),
            end_bits,
        });
    }

    let bitwise_ok = measured[0].end_bits == measured[1].end_bits;
    let optimized_ns = measured[0].per_iter_ns;
    let legacy_ns = measured[1].per_iter_ns;
    let speedup_vs_legacy = legacy_ns as f64 / optimized_ns.max(1) as f64;

    if print_phases {
        println!("per-phase wall shares (windowed serial, s15850, best of {REPS} reps):");
        for arm in &measured {
            let total: u128 = arm.phase_ns.iter().map(|(_, ns)| ns).sum();
            print!("  {:<20}", arm.label);
            for &(label, ns) in &arm.phase_ns {
                print!(" {label} {:.1} %", ns as f64 / total.max(1) as f64 * 100.0);
            }
            println!();
        }
    }

    let mut rows = String::new();
    for (i, arm) in measured.iter().enumerate() {
        let total: u128 = arm.phase_ns.iter().map(|(_, ns)| ns).sum();
        let mut phases = String::new();
        for (j, &(label, ns)) in arm.phase_ns.iter().enumerate() {
            if j > 0 {
                phases.push_str(", ");
            }
            phases.push_str(&format!(
                "{{\"phase\": \"{label}\", \"wall_ns\": {ns}, \"share\": {share:.4}}}",
                share = ns as f64 / total.max(1) as f64,
            ));
        }
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"config\": \"{label}\", \"mode\": \"serial\", \"reps\": {REPS}, \
             \"iterations_per_rep\": {ITERS}, \"iteration_wall_ns\": {ns}, \
             \"phases\": [{phases}]}}",
            label = arm.label,
            ns = arm.per_iter_ns,
        ));
    }

    format!(
        "{{\n\
         \x20 \"schema_version\": 1,\n\
         \x20 \"report\": \"BENCH_PR7\",\n\
         \x20 \"bench\": \"bound_pruned_allocation\",\n\
         \x20 \"circuit\": \"s15850\",\n\
         \x20 \"cells\": {cells},\n\
         \x20 \"nets\": {nets},\n\
         \x20 \"host_parallelism\": {host_parallelism},\n\
         \x20 \"bitwise_identical_across_configs\": {bitwise_ok},\n\
         \x20 \"windowed_serial_iteration_ns\": {optimized_ns},\n\
         \x20 \"legacy_serial_iteration_ns\": {legacy_ns},\n\
         \x20 \"windowed_serial_speedup_vs_legacy\": {vs_legacy:.2},\n\
         \x20 \"runs\": [\n{rows}\n  ]\n\
         }}\n",
        cells = netlist.num_cells(),
        nets = netlist.num_nets(),
        vs_legacy = speedup_vs_legacy,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out_path = arg("--out").unwrap_or_else(|| "BENCH_PR2.json".into());
    let out3_path = arg("--out3").unwrap_or_else(|| "BENCH_PR3.json".into());
    let out7_path = arg("--out7").unwrap_or_else(|| "BENCH_PR7.json".into());
    let iters: usize = arg("--iters").and_then(|v| v.parse().ok()).unwrap_or(10);
    let scaling_iters: usize = arg("--scaling-iters")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let print_phases = args.iter().any(|a| a == "--phases");
    let only = arg("--only");
    let (run_pr2, run_pr3, run_pr7) = match only.as_deref() {
        None => (true, true, true),
        Some("pr2") => (true, false, false),
        Some("pr3") => (false, true, false),
        Some("pr7") => (false, false, true),
        Some(other) => {
            eprintln!("unknown --only value '{other}' (expected 'pr2', 'pr3' or 'pr7')");
            std::process::exit(2);
        }
    };
    if !run_pr2 {
        // Scaling snapshots only; skip the operator benchmarks.
        if run_pr3 {
            let json3 = parallel_scaling_report(scaling_iters);
            std::fs::write(&out3_path, &json3).expect("write parallel-scaling report");
            println!("wrote {out3_path}");
            print!("{json3}");
        }
        if run_pr7 {
            let json7 = bound_pruned_report(print_phases);
            std::fs::write(&out7_path, &json7).expect("write bound-pruned allocation report");
            println!("wrote {out7_path}");
            print!("{json7}");
        }
        return;
    }

    let circuit = PaperCircuit::S1196;
    let netlist = Arc::new(paper_circuit(circuit));
    let config = SimEConfig::paper_defaults(Objectives::WirelengthPower, circuit.num_rows(), iters);
    let engine = SimEEngine::new(Arc::clone(&netlist), config);

    // -- Full engine run: per-phase wall times + deterministic work counts.
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut placement = engine.initial_placement(&mut rng);
    let mut scratch = engine.new_scratch();
    let mut profile = ProfileReport::new();
    let run_ns = time_ns(1, || {
        for _ in 0..iters {
            black_box(engine.iterate(
                &mut placement,
                &mut scratch,
                &mut rng,
                &mut profile,
                &[],
                &[],
            ));
        }
    });

    // -- Naive-vs-kernel trial scoring head-to-head (48 slots, highest-degree
    //    cell), the kernel this PR introduced.
    let evaluator = engine.evaluator().clone();
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
    const REPS: usize = 200;
    let naive_trial_ns = time_ns(REPS, || {
        for &slot in &slots {
            let pos = ripped.trial_position(cell, slot);
            black_box(evaluator.cell_cost_at(&ripped, cell, pos));
        }
    });
    let mut scorer = TrialScorer::for_evaluator(&evaluator);
    let kernel_trial_ns = time_ns(REPS, || {
        scorer.prepare_cell(&evaluator, &ripped, cell);
        for &slot in &slots {
            let pos = ripped.trial_position(cell, slot);
            black_box(scorer.prepared_cost_at(pos));
        }
    });

    // -- Naive-vs-kernel full evaluation head-to-head (the kernel is forced
    //    onto the full-recompute path each rep), plus the steady-state cost
    //    of refreshing an unchanged placement (the cache-hit path the engine
    //    loop sees between iterations).
    let naive_eval_ns = time_ns(REPS, || {
        black_box(evaluator.net_lengths(&placement));
    });
    let mut cache = NetLengthCache::new();
    let kernel_eval_ns = time_ns(REPS, || {
        cache.invalidate();
        black_box(cache.refresh(&evaluator, &mut scorer, &placement).len());
    });
    cache.refresh(&evaluator, &mut scorer, &placement);
    let cached_eval_ns = time_ns(REPS, || {
        black_box(cache.refresh(&evaluator, &mut scorer, &placement).len());
    });

    // -- The engine's full per-cell goodness pass (the Evaluation-phase
    //    cost: each cell's optimal-position cost on the kernel), measured
    //    against the naive full evaluation so the guardrail ratio is
    //    machine-relative.
    let goodness_lengths = evaluator.net_lengths(&placement);
    let mut goodness_scratch = GoodnessScratch::for_evaluator(&evaluator);
    let mut goodness_buf = Vec::new();
    let goodness_ns = time_ns(REPS, || {
        engine.goodness().all_goodness_with(
            &mut goodness_scratch,
            &placement,
            &goodness_lengths,
            &[],
            &mut goodness_buf,
        );
        black_box(goodness_buf.len());
    });

    // -- Assemble JSON (hand-rolled: the vendored serde is a no-op shim).
    let mut phases = String::new();
    for (i, phase) in Phase::ALL.iter().enumerate() {
        let ns = profile.time(*phase).as_nanos();
        let evals = profile.net_evals(*phase);
        if i > 0 {
            phases.push_str(",\n");
        }
        phases.push_str(&format!(
            "    {{\"phase\": \"{}\", \"total_ns\": {}, \"net_evals\": {}, \"net_evals_per_sec\": {:.0}}}",
            phase.label(),
            ns,
            evals,
            evals_per_sec(evals, ns)
        ));
    }
    let json = format!(
        "{{\n\
         \x20 \"schema_version\": 1,\n\
         \x20 \"report\": \"BENCH_PR2\",\n\
         \x20 \"circuit\": \"s1196\",\n\
         \x20 \"cells\": {cells},\n\
         \x20 \"nets\": {nets},\n\
         \x20 \"iterations\": {iters},\n\
         \x20 \"total_run_ns\": {run_ns},\n\
         \x20 \"total_net_evals\": {total_evals},\n\
         \x20 \"net_evals_per_sec\": {total_rate:.0},\n\
         \x20 \"trial_positions\": {trials},\n\
         \x20 \"phases\": [\n{phases}\n  ],\n\
         \x20 \"head_to_head\": {{\n\
         \x20   \"trial_scoring_48slots\": {{\"reps\": {reps}, \"naive_ns\": {ntr}, \"kernel_ns\": {ktr}, \"speedup\": {str:.2}}},\n\
         \x20   \"full_net_lengths\": {{\"reps\": {reps}, \"naive_ns\": {nev}, \"kernel_ns\": {kev}, \"speedup\": {sev:.2}}},\n\
         \x20   \"refresh_unchanged\": {{\"reps\": {reps}, \"kernel_ns\": {cev}}},\n\
         \x20   \"goodness_pass\": {{\"reps\": {reps}, \"ns\": {gns}, \"ratio_vs_naive_eval\": {grat:.3}}}\n\
         \x20 }}\n\
         }}\n",
        cells = netlist.num_cells(),
        nets = netlist.num_nets(),
        iters = iters,
        run_ns = run_ns,
        total_evals = profile.total_net_evals(),
        total_rate = evals_per_sec(profile.total_net_evals(), run_ns),
        trials = profile.trial_positions,
        phases = phases,
        reps = REPS,
        ntr = naive_trial_ns,
        ktr = kernel_trial_ns,
        str = naive_trial_ns as f64 / kernel_trial_ns.max(1) as f64,
        nev = naive_eval_ns,
        kev = kernel_eval_ns,
        sev = naive_eval_ns as f64 / kernel_eval_ns.max(1) as f64,
        cev = cached_eval_ns,
        gns = goodness_ns,
        grat = goodness_ns as f64 / naive_eval_ns.max(1) as f64,
    );

    std::fs::write(&out_path, &json).expect("write perf report");
    println!("wrote {out_path}");
    print!("{json}");

    if run_pr3 {
        // -- Execution-backend scaling snapshot (PR 3).
        let json3 = parallel_scaling_report(scaling_iters);
        std::fs::write(&out3_path, &json3).expect("write parallel-scaling report");
        println!("wrote {out3_path}");
        print!("{json3}");
    }
    if run_pr7 {
        // -- Bound-pruned allocation snapshot (PR 7).
        let json7 = bound_pruned_report(print_phases);
        std::fs::write(&out7_path, &json7).expect("write bound-pruned allocation report");
        println!("wrote {out7_path}");
        print!("{json7}");
    }
}
