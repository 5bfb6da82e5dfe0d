//! Cross-crate integration tests: full pipelines from circuit generation
//! through serial and parallel optimisation, exercising the public facade
//! API exactly as the examples and the table harnesses do.

use sime_placement::prelude::*;
use std::sync::Arc;

fn small_engine(objectives: Objectives, iterations: usize, seed: u64) -> SimEEngine {
    let netlist =
        Arc::new(CircuitGenerator::new(GeneratorConfig::sized("e2e", 180, seed)).generate());
    let mut config = SimEConfig::paper_defaults(objectives, 10, iterations);
    config.seed = seed;
    SimEEngine::new(netlist, config)
}

#[test]
fn serial_sime_improves_a_paper_circuit() {
    let circuit = PaperCircuit::S1196;
    let netlist = Arc::new(paper_circuit(circuit));
    for objectives in [
        Objectives::WirelengthPower,
        Objectives::WirelengthPowerDelay,
    ] {
        let config = SimEConfig::paper_defaults(objectives, circuit.num_rows(), 25);
        let engine = SimEEngine::new(Arc::clone(&netlist), config);
        let result = engine.run();
        let label = objectives.label();
        result.best_placement.validate(&netlist).unwrap();
        assert!(result.best_mu() >= result.history[0].mu, "{label}");
        assert!(
            result.best_cost.wirelength >= engine.evaluator().bounds().wirelength_lower,
            "{label}"
        );
        // Allocation dominates the profile, as in Section 4 of the paper.
        let alloc_work = result.profile.work_fraction(sime_core::Phase::Allocation);
        assert!(
            alloc_work > 0.8,
            "{label}: allocation work share {alloc_work}"
        );
    }
}

#[test]
fn the_three_strategies_reproduce_the_papers_relative_ordering() {
    // On the same circuit and iteration budget: Type II is the fastest
    // (modeled time), Type I is no faster than serial, Type III is close to
    // serial.
    let engine = small_engine(Objectives::WirelengthPower, 8, 3);
    let compute = ClusterConfig::paper_cluster(4).compute;
    let serial = run_serial_baseline(&engine, &compute);

    let cluster = ClusterConfig::paper_cluster(4);
    let t1 = run_type1(
        &engine,
        cluster,
        Type1Config { iterations: 8 },
        &Modeled,
        &FreeRun,
    );
    let t2 = run_type2(
        &engine,
        cluster,
        Type2Config {
            iterations: 8,
            pattern: RowPattern::Random,
        },
        &Modeled,
        &FreeRun,
    );
    let t3 = run_type3(
        &engine,
        cluster,
        Type3Config {
            iterations: 8,
            retry_threshold: 3,
        },
        &Modeled,
        &FreeRun,
    );

    assert!(
        t1.modeled_seconds >= serial.modeled_seconds * 0.95,
        "Type I must not beat serial ({} vs {})",
        t1.modeled_seconds,
        serial.modeled_seconds
    );
    assert!(
        t2.modeled_seconds < serial.modeled_seconds,
        "Type II must beat serial ({} vs {})",
        t2.modeled_seconds,
        serial.modeled_seconds
    );
    assert!(
        t2.modeled_seconds < t1.modeled_seconds,
        "Type II must beat Type I"
    );
    let t3_ratio = t3.modeled_seconds / serial.modeled_seconds;
    assert!(
        (0.6..1.6).contains(&t3_ratio),
        "Type III should stay near the serial runtime, ratio {t3_ratio}"
    );
    // Type I reproduces the serial search exactly.
    assert!((t1.best_mu() - serial.best_mu()).abs() < 1e-9);
}

#[test]
fn type2_placements_stay_legal_for_both_patterns_and_objectives() {
    for objectives in [
        Objectives::WirelengthPower,
        Objectives::WirelengthPowerDelay,
    ] {
        let engine = small_engine(objectives, 5, 11);
        for pattern in [RowPattern::Fixed, RowPattern::Random] {
            let outcome = run_type2(
                &engine,
                ClusterConfig::paper_cluster(3),
                Type2Config {
                    iterations: 5,
                    pattern,
                },
                &Modeled,
                &FreeRun,
            );
            outcome
                .best_placement
                .validate(engine.evaluator().netlist())
                .unwrap();
            assert!((0.0..=1.0).contains(&outcome.best_mu()));
        }
    }
}

/// A boxed strategy launcher, parameterised over the execution backend (used
/// by the backend-equivalence sweep below).
type StrategyRunner<'a> = Box<dyn Fn(&dyn ExecBackend) -> StrategyOutcome + 'a>;

#[test]
fn threaded_backend_is_bitwise_identical_to_modeled_for_every_strategy() {
    // The PR 3 determinism contract through the facade: for each strategy,
    // the Threaded backend at 1, 2 and 4 workers reproduces the Modeled run
    // bit for bit — best cost, modeled time, comm stats and the whole µ(s)
    // trajectory. Only wall-clock may differ.
    let engine = small_engine(Objectives::WirelengthPower, 6, 23);
    let cluster = ClusterConfig::paper_cluster(4);
    let runs: Vec<(&str, StrategyRunner<'_>)> = vec![
        (
            "type1",
            Box::new(|b: &dyn ExecBackend| {
                run_type1(&engine, cluster, Type1Config { iterations: 6 }, b, &FreeRun)
            }),
        ),
        (
            "type2",
            Box::new(|b: &dyn ExecBackend| {
                run_type2(
                    &engine,
                    cluster,
                    Type2Config {
                        iterations: 6,
                        pattern: RowPattern::Random,
                    },
                    b,
                    &FreeRun,
                )
            }),
        ),
        (
            "type3",
            Box::new(|b: &dyn ExecBackend| {
                run_type3(
                    &engine,
                    cluster,
                    Type3Config {
                        iterations: 6,
                        retry_threshold: 3,
                    },
                    b,
                    &FreeRun,
                )
            }),
        ),
    ];
    for (name, run) in &runs {
        let modeled = run(&Modeled);
        assert_eq!(modeled.backend, "modeled");
        for workers in [1, 2, 4] {
            let threaded = run(&Threaded::new(workers));
            assert_eq!(threaded.backend, format!("threaded({workers})"));
            assert_eq!(
                modeled.best_cost.mu.to_bits(),
                threaded.best_cost.mu.to_bits(),
                "{name} best µ diverged at {workers} workers"
            );
            assert_eq!(
                modeled.best_cost.wirelength.to_bits(),
                threaded.best_cost.wirelength.to_bits(),
                "{name} wirelength diverged at {workers} workers"
            );
            assert_eq!(
                modeled.modeled_seconds.to_bits(),
                threaded.modeled_seconds.to_bits(),
                "{name} modeled time diverged at {workers} workers"
            );
            assert_eq!(modeled.comm, threaded.comm, "{name} comm stats diverged");
            assert_eq!(modeled.mu_history.len(), threaded.mu_history.len());
            for (i, (a, b)) in modeled
                .mu_history
                .iter()
                .zip(&threaded.mu_history)
                .enumerate()
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{name} µ history diverged at iteration {i}, {workers} workers"
                );
            }
            for row in 0..modeled.best_placement.num_rows() {
                assert_eq!(
                    modeled.best_placement.row(row),
                    threaded.best_placement.row(row),
                    "{name} best placement diverged in row {row} at {workers} workers"
                );
            }
        }
    }
}

#[test]
fn netlist_roundtrip_preserves_costs() {
    // Dump a mixed-size circuit to `.nodes`/`.nets` and a random placement of
    // it to `.pl`, reload both, and check the reloaded layout prices to the
    // same bits: the netlists are identical and the `.pl` path reproduces
    // coordinates bit for bit.
    use rand::SeedableRng;
    use sime_placement::netlist::bench_suite::{mixed_circuit, MixedCircuit};
    use sime_placement::netlist::bookshelf::{netlists_identical, parse_pl, write_pl};
    use sime_placement::place::{placement_from_pl, placement_to_pl};

    let circuit = MixedCircuit::Mix600;
    let rows = circuit.num_rows();
    let original = Arc::new(mixed_circuit(circuit));
    let pair = write_bookshelf(&original);
    let parsed = Arc::new(parse_bookshelf(&pair.nodes, &pair.nets).unwrap());
    assert!(netlists_identical(&original, &parsed));

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
    let placement = Placement::random(&original, rows, &mut rng);
    let pl = write_pl(&placement_to_pl(&original, &placement));
    let reloaded = placement_from_pl(&parsed, rows, &parse_pl(&pl).unwrap()).unwrap();
    reloaded.validate(&parsed).unwrap();

    for objectives in [
        Objectives::WirelengthPower,
        Objectives::WirelengthPowerDelay,
    ] {
        let a = CostEvaluator::new(Arc::clone(&original), objectives).evaluate(&placement);
        let b = CostEvaluator::new(Arc::clone(&parsed), objectives).evaluate(&reloaded);
        let label = objectives.label();
        assert_eq!(a.wirelength.to_bits(), b.wirelength.to_bits(), "{label}");
        assert_eq!(a.power.to_bits(), b.power.to_bits(), "{label}");
        assert_eq!(a.delay.to_bits(), b.delay.to_bits(), "{label}");
        assert_eq!(a.mu.to_bits(), b.mu.to_bits(), "{label}");
    }
}

#[test]
fn baseline_heuristics_run_on_the_same_cost_model_as_sime() {
    let netlist =
        Arc::new(CircuitGenerator::new(GeneratorConfig::sized("e2e_baselines", 120, 5)).generate());
    let evaluator = CostEvaluator::new(Arc::clone(&netlist), Objectives::WirelengthPower);
    let initial = Placement::round_robin(&netlist, 8);
    let initial_mu = evaluator.mu(&initial);

    let sa =
        SimulatedAnnealingPlacer::new(evaluator.clone(), SaConfig::fast(1)).run(initial.clone());
    let ga = GeneticPlacer::new(evaluator.clone(), GaConfig::fast(8, 1)).run(initial.clone());
    let ts = TabuSearchPlacer::new(evaluator.clone(), TabuConfig::fast(1)).run(initial);

    // SA and TS evolve the provided placement in place, so they can never end
    // below its quality; the GA re-decodes permutations with width balancing,
    // so it is only required to produce a legal, sensible result.
    for (name, result) in [("SA", &sa), ("TS", &ts)] {
        assert!(
            result.best_mu() + 1e-12 >= initial_mu,
            "{name} must not end below the initial quality"
        );
        result.best_placement.validate(&netlist).unwrap();
    }
    assert!(ga.best_mu() > 0.0 && ga.best_mu() <= 1.0);
    ga.best_placement.validate(&netlist).unwrap();
}

#[test]
fn modeled_cluster_runtimes_are_scale_invariant_in_the_comparison() {
    // The Type II speed-up over serial should not depend on the absolute node
    // speed (both scale identically), only on the network/compute balance.
    let engine = small_engine(Objectives::WirelengthPower, 6, 17);
    let mut fast = ClusterConfig::paper_cluster(4);
    fast.compute = ComputeModel::fast_node();
    fast.network = NetworkModel::infinite();

    let serial_slow = run_serial_baseline(&engine, &ClusterConfig::paper_cluster(4).compute);
    let serial_fast = run_serial_baseline(&engine, &fast.compute);

    let t2_slow = run_type2(
        &engine,
        ClusterConfig::paper_cluster(4),
        Type2Config {
            iterations: 6,
            pattern: RowPattern::Random,
        },
        &Modeled,
        &FreeRun,
    );
    let t2_fast = run_type2(
        &engine,
        fast,
        Type2Config {
            iterations: 6,
            pattern: RowPattern::Random,
        },
        &Modeled,
        &FreeRun,
    );
    let speedup_slow = t2_slow.speedup_versus(serial_slow.modeled_seconds);
    let speedup_fast = t2_fast.speedup_versus(serial_fast.modeled_seconds);
    // With an infinite network the speed-up can only be at least as good.
    assert!(speedup_fast + 0.05 >= speedup_slow);
    assert!(speedup_slow > 1.0);
}
