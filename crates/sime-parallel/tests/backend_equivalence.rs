//! Differential tests of the execution backends (`DESIGN.md` §4): for every
//! strategy the `Threaded` backend must (a) reproduce the `Modeled` backend's
//! search trajectory **bitwise**, (b) be bitwise-deterministic across reruns
//! for a fixed (seed, worker count), and (c) produce the same bits for every
//! worker count — the worker count is a pure wall-clock knob.

use cluster_sim::timeline::ClusterConfig;
use proptest::prelude::*;
use sime_core::engine::{SimEConfig, SimEEngine};
use sime_parallel::exec::{ExecBackend, Modeled, Threaded};
use sime_parallel::prelude::*;
use sime_parallel::StrategyOutcome;
use std::sync::Arc;
use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};
use vlsi_netlist::Netlist;
use vlsi_place::cost::Objectives;

/// s1196-scale generated netlists: the paper's smallest circuit has 561
/// cells; the strategy draws circuits in the 450–650 band around it.
fn arb_netlist() -> impl Strategy<Value = (Arc<Netlist>, u64)> {
    (450usize..650, any::<u64>()).prop_map(|(cells, seed)| {
        let cfg = GeneratorConfig::sized(format!("beq_{seed}"), cells, seed);
        (Arc::new(CircuitGenerator::new(cfg).generate()), seed)
    })
}

fn engine_for(netlist: Arc<Netlist>, seed: u64, iterations: usize) -> SimEEngine {
    let mut config = SimEConfig::paper_defaults(Objectives::WirelengthPower, 10, iterations);
    config.seed = seed;
    SimEEngine::new(netlist, config)
}

/// Runs one strategy entry point on `ranks` simulated processors under a
/// run control.
type EntryPoint =
    fn(&SimEEngine, usize, usize, &dyn ExecBackend, &dyn RunControl) -> StrategyOutcome;

/// The strategy entry points under test, one row per configuration the
/// checks below sweep: `(label, run(engine, ranks, iterations, backend,
/// control))`.
fn entry_points() -> [(&'static str, EntryPoint); 5] {
    fn cluster(ranks: usize) -> ClusterConfig {
        ClusterConfig::paper_cluster(ranks)
    }
    [
        ("type1", |engine, ranks, iterations, backend, control| {
            let cfg = Type1Config { iterations };
            run_type1(engine, cluster(ranks), cfg, backend, control)
        }),
        (
            "type2 fixed",
            |engine, ranks, iterations, backend, control| {
                let pattern = RowPattern::Fixed;
                let cfg = Type2Config {
                    iterations,
                    pattern,
                };
                run_type2(engine, cluster(ranks), cfg, backend, control)
            },
        ),
        (
            "type2 random",
            |engine, ranks, iterations, backend, control| {
                let pattern = RowPattern::Random;
                let cfg = Type2Config {
                    iterations,
                    pattern,
                };
                run_type2(engine, cluster(ranks), cfg, backend, control)
            },
        ),
        ("type3", |engine, ranks, iterations, backend, control| {
            let cfg = Type3Config {
                iterations,
                retry_threshold: 1,
            };
            run_type3(engine, cluster(ranks), cfg, backend, control)
        }),
        (
            "portfolio mixed",
            |engine, ranks, iterations, backend, control| {
                let cfg = PortfolioConfig {
                    iterations,
                    migration_interval: 2,
                    mix: PortfolioMix::Mixed,
                };
                run_portfolio(engine, cluster(ranks), cfg, backend, control)
            },
        ),
    ]
}

/// Asserts that two outcomes are bitwise identical in every
/// determinism-contract field (everything except wall-clock and label).
fn assert_bitwise_equal(a: &StrategyOutcome, b: &StrategyOutcome, context: &str) {
    assert_eq!(
        a.best_cost.mu.to_bits(),
        b.best_cost.mu.to_bits(),
        "best µ differs: {context}"
    );
    assert_eq!(
        a.best_cost.wirelength.to_bits(),
        b.best_cost.wirelength.to_bits(),
        "best wirelength differs: {context}"
    );
    assert_eq!(
        a.modeled_seconds.to_bits(),
        b.modeled_seconds.to_bits(),
        "modeled runtime differs: {context}"
    );
    assert_eq!(a.comm, b.comm, "comm stats differ: {context}");
    assert_eq!(
        a.mu_history.len(),
        b.mu_history.len(),
        "trajectory length differs: {context}"
    );
    for (i, (x, y)) in a.mu_history.iter().zip(&b.mu_history).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "trajectory diverges at iteration {i}: {context}"
        );
    }
    assert_eq!(
        a.best_placement.num_rows(),
        b.best_placement.num_rows(),
        "row count differs: {context}"
    );
    for row in 0..a.best_placement.num_rows() {
        assert_eq!(
            a.best_placement.row(row),
            b.best_placement.row(row),
            "best placement differs in row {row}: {context}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Modeled and Threaded (workers = the strategy's machine count, as in
    /// the paper's cluster) walk identical best-cost trajectories on seeded
    /// s1196-scale netlists, for every strategy entry point.
    #[test]
    fn modeled_and_threaded_trajectories_match(
        (netlist, seed) in arb_netlist(),
        iterations in 3usize..6,
    ) {
        let engine = engine_for(netlist, seed, iterations);
        let ranks = 4; // the paper's mid-size machine count
        let threaded = Threaded::new(ranks);
        for (label, run) in entry_points() {
            assert_bitwise_equal(
                &run(&engine, ranks, iterations, &Modeled, &FreeRun),
                &run(&engine, ranks, iterations, &threaded, &FreeRun),
                label,
            );
        }
    }

    /// The island portfolio honours the same contract as the SimE
    /// strategies: Modeled and Threaded (any worker count) walk bitwise-
    /// identical trajectories for both composition mixes, ring migration
    /// included.
    #[test]
    fn portfolio_modeled_and_threaded_trajectories_match(
        (netlist, seed) in arb_netlist(),
        iterations in 2usize..4,
        workers in 1usize..5,
        baselines_only in any::<bool>(),
    ) {
        let engine = engine_for(netlist, seed, iterations);
        let ranks = 4;
        let cluster = ClusterConfig::paper_cluster(ranks);
        let mix = if baselines_only { PortfolioMix::Baselines } else { PortfolioMix::Mixed };
        let cfg = PortfolioConfig { iterations, migration_interval: 2, mix };
        assert_bitwise_equal(
            &run_portfolio(&engine, cluster, cfg, &Modeled, &FreeRun),
            &run_portfolio(&engine, cluster, cfg, &Threaded::new(workers), &FreeRun),
            &format!("portfolio {mix:?} workers={workers}"),
        );
    }

    /// The fused-epoch execution path (persistent worker lanes, one epoch
    /// per rank fan-out) is bitwise identical to the modeled trajectory for
    /// a *random* point of the configuration space: circuit, strategy entry
    /// point, seed and worker count (including oversubscribed pools) are all
    /// drawn by proptest.
    #[test]
    fn fused_epoch_matches_serial(
        (netlist, seed) in arb_netlist(),
        iterations in 3usize..5,
        entry in 0usize..5,
        workers in 1usize..9,
    ) {
        let engine = engine_for(netlist, seed, iterations);
        let ranks = 4;
        let (label, run) = entry_points()[entry];
        assert_bitwise_equal(
            &run(&engine, ranks, iterations, &Modeled, &FreeRun),
            &run(&engine, ranks, iterations, &Threaded::new(workers), &FreeRun),
            &format!("fused {label} workers={workers}"),
        );
    }
}

/// Rerunning the Threaded backend with the same seed and worker count is
/// bitwise-reproducible, and the bits are the same for *every* worker count
/// (1, 2 and 4 OS workers) — scheduling never leaks into results.
#[test]
fn threaded_rerun_determinism_at_1_2_and_4_workers() {
    let netlist =
        Arc::new(CircuitGenerator::new(GeneratorConfig::sized("beq_rerun", 561, 42)).generate());
    let iterations = 5;
    let engine = engine_for(netlist, 42, iterations);
    let ranks = 4;
    for (label, run) in entry_points() {
        let reference = run(&engine, ranks, iterations, &Modeled, &FreeRun);
        for workers in [1, 2, 4] {
            let backend = Threaded::new(workers);
            let first = run(&engine, ranks, iterations, &backend, &FreeRun);
            let second = run(&engine, ranks, iterations, &backend, &FreeRun);
            assert_bitwise_equal(&first, &second, &format!("{label} rerun workers={workers}"));
            assert_bitwise_equal(
                &reference,
                &first,
                &format!("{label} across worker counts, workers={workers}"),
            );
        }
    }
}

/// One stop rule for every strategy: the shared epoch loop consults the run
/// control once per epoch boundary, so `CancelAfter(k)` and a `TargetMu` set
/// to the free run's best µ after epoch `k` stop after `k + 1` epochs with a
/// bitwise prefix of the free run — for all five entry points, on `Modeled`
/// and `Threaded(2)`.
#[test]
fn cancel_after_and_a_target_stop_every_strategy_at_the_same_boundary() {
    let netlist =
        Arc::new(CircuitGenerator::new(GeneratorConfig::sized("beq_stop", 160, 11)).generate());
    let iterations = 4;
    let engine = engine_for(netlist, 11, iterations);
    let ranks = 3;
    let threaded = Threaded::new(2);
    let backends: [&dyn ExecBackend; 2] = [&Modeled, &threaded];
    for (label, run) in entry_points() {
        for backend in backends {
            let on = format!("{label} on {}", backend.label());
            let free = run(&engine, ranks, iterations, backend, &FreeRun);
            assert_eq!(free.iterations, iterations, "{on}");
            // cuts[k] stops at the boundary after epoch k, so its best µ is
            // the free run's best after epoch k.
            let cuts: Vec<StrategyOutcome> = (0..iterations)
                .map(|k| run(&engine, ranks, iterations, backend, &CancelAfter(k)))
                .collect();
            for (k, cut) in cuts.iter().enumerate() {
                let context = format!("{on}, CancelAfter({k})");
                assert_eq!(cut.iterations, k + 1, "{context}");
                assert_eq!(cut.mu_history.len(), k + 1, "{context}");
                assert_eq!(cut.backend, backend.label(), "{context}");
                for (i, (a, b)) in cut.mu_history.iter().zip(&free.mu_history).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{context}: epoch {i}");
                }
            }
            assert_bitwise_equal(&cuts[iterations - 1], &free, &on);

            let mut stopped_at_k = 0;
            for k in 0..iterations {
                let target = cuts[k].best_cost.mu;
                let context = format!("{on}, TargetMu(best after epoch {k})");
                let raced = run(&engine, ranks, iterations, backend, &TargetMu(target));
                // The first boundary whose best reaches the target; it is k
                // itself whenever the best rose in epoch k.
                let stop = cuts
                    .iter()
                    .position(|cut| cut.best_cost.mu >= target)
                    .expect("cuts[k] reaches its own best");
                assert_eq!(raced.iterations, stop + 1, "{context}");
                assert_eq!(raced.backend, backend.label(), "{context}");
                assert!(raced.best_cost.mu >= target, "{context}");
                assert_bitwise_equal(&raced, &cuts[stop], &context);
                stopped_at_k += usize::from(stop == k);
            }
            assert!(stopped_at_k > 0, "{on}: the best never rose");
        }
    }
}

/// Portfolio determinism at fixed seeds: the worker count is a pure
/// wall-clock knob (1/2/4 OS workers reproduce the Modeled bits), and two
/// migration-interval settings that fire on the same epoch boundaries (here:
/// none — both beyond the horizon) replay bitwise identically.
#[test]
fn portfolio_worker_counts_and_equivalent_migration_intervals_are_wall_clock_knobs() {
    let netlist = Arc::new(
        CircuitGenerator::new(GeneratorConfig::sized("beq_portfolio", 561, 11)).generate(),
    );
    let iterations = 4;
    let engine = engine_for(netlist, 11, iterations);
    let ranks = 4;
    let cluster = ClusterConfig::paper_cluster(ranks);
    let base = PortfolioConfig {
        iterations,
        migration_interval: 2,
        mix: PortfolioMix::Mixed,
    };

    let reference = run_portfolio(&engine, cluster, base, &Modeled, &FreeRun);
    for workers in [1, 2, 4] {
        let threaded = run_portfolio(&engine, cluster, base, &Threaded::new(workers), &FreeRun);
        assert_bitwise_equal(
            &reference,
            &threaded,
            &format!("portfolio workers={workers}"),
        );
    }

    // Intervals 5 and 97 both fire on no boundary of a 4-epoch run.
    let a = run_portfolio(
        &engine,
        cluster,
        PortfolioConfig {
            migration_interval: 5,
            ..base
        },
        &Modeled,
        &FreeRun,
    );
    let b = run_portfolio(
        &engine,
        cluster,
        PortfolioConfig {
            migration_interval: 97,
            ..base
        },
        &Modeled,
        &FreeRun,
    );
    assert_bitwise_equal(&a, &b, "portfolio migration intervals 5 vs 97");
}

/// The acceptance scenario of the portfolio work: a 4-island mixed portfolio
/// (SimE + GA + SA + TS) on the extended-tier s9234 circuit reaches a
/// configured target µ, stops early at that epoch boundary, replays bitwise
/// across Modeled and Threaded(1/2/4), and the raced trajectory is a prefix
/// of the free run's.
#[test]
fn portfolio_reaches_target_mu_on_s9234_identically_across_backends() {
    use vlsi_netlist::bench_suite::SuiteCircuit;
    let circuit = SuiteCircuit::from_name("s9234").expect("suite circuit");
    let netlist = Arc::new(circuit.generate());
    let iterations = 2;
    let config =
        SimEConfig::paper_defaults(Objectives::WirelengthPower, circuit.num_rows(), iterations);
    let engine = SimEEngine::new(netlist, config);
    let ranks = 4;
    let cluster = ClusterConfig::paper_cluster(ranks);
    let config = PortfolioConfig {
        iterations,
        migration_interval: 2,
        mix: PortfolioMix::Mixed,
    };

    let free = run_portfolio(&engine, cluster, config, &Modeled, &FreeRun);
    assert_eq!(free.iterations, iterations);

    // Target the quality the free run reached after its first epoch: the
    // raced portfolio must stop right there.
    let target = TargetMu(free.mu_history[0]);
    let raced = run_portfolio(&engine, cluster, config, &Modeled, &target);
    assert_eq!(raced.iterations, 1, "target µ must stop the run early");
    assert!(raced.best_cost.mu >= free.mu_history[0]);
    for (i, (a, b)) in raced.mu_history.iter().zip(&free.mu_history).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "prefix diverges at epoch {i}");
    }

    for workers in [1, 2, 4] {
        let threaded = run_portfolio(&engine, cluster, config, &Threaded::new(workers), &target);
        assert_bitwise_equal(
            &raced,
            &threaded,
            &format!("s9234 raced portfolio workers={workers}"),
        );
    }
}

/// The Type I master path over gathered goodness equals the plain serial
/// engine run bitwise, independent of backend — the paper's "identical
/// search trajectory" claim, held to the strictest possible standard.
#[test]
fn type1_trajectory_equals_serial_on_both_backends() {
    let netlist =
        Arc::new(CircuitGenerator::new(GeneratorConfig::sized("beq_type1", 561, 7)).generate());
    let iterations = 4;
    let engine = engine_for(netlist, 7, iterations);
    let serial = engine.run();
    let cluster = ClusterConfig::paper_cluster(3);
    let config = Type1Config { iterations };
    for outcome in [
        run_type1(&engine, cluster, config, &Modeled, &FreeRun),
        run_type1(&engine, cluster, config, &Threaded::new(3), &FreeRun),
    ] {
        assert_eq!(serial.history.len(), outcome.mu_history.len());
        for (h, mu) in serial.history.iter().zip(&outcome.mu_history) {
            assert_eq!(h.mu.to_bits(), mu.to_bits());
        }
        assert_eq!(
            serial.best_cost.mu.to_bits(),
            outcome.best_cost.mu.to_bits()
        );
    }
}
