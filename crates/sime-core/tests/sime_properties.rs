//! Property-based tests for the SimE operators and engine.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sime_core::allocation::{allocate_all, AllocScratch, AllocationConfig};
use sime_core::engine::{SimEConfig, SimEEngine};
use sime_core::profile::ProfileReport;
use sime_core::selection::{select, SelectionScheme};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};
use vlsi_netlist::bench_suite::{MixedCircuit, SuiteCircuit};
use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};
use vlsi_netlist::{CellId, Netlist};
use vlsi_place::cost::{CostEvaluator, Objectives};
use vlsi_place::goodness::GoodnessEvaluator;
use vlsi_place::layout::Placement;

/// The mixed-size mix600 circuit (fixed pads and macros), generated once.
fn mix600() -> Arc<Netlist> {
    static MIX600: OnceLock<Arc<Netlist>> = OnceLock::new();
    Arc::clone(
        MIX600.get_or_init(|| Arc::new(SuiteCircuit::Mixed(MixedCircuit::Mix600).generate())),
    )
}

fn arb_netlist() -> impl Strategy<Value = Arc<Netlist>> {
    (70usize..220, any::<u64>()).prop_map(|(cells, seed)| {
        Arc::new(
            CircuitGenerator::new(GeneratorConfig::sized(
                format!("sime_prop_{seed}"),
                cells,
                seed,
            ))
            .generate(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Selection always returns a subset of the cells, never selects frozen
    /// cells, and together with the complement forms a partition (every cell
    /// is either selected or not — no duplicates).
    #[test]
    fn selection_partitions_the_solution(
        goodness in prop::collection::vec(0.0f64..1.0, 10..400),
        scheme_fixed in proptest::bool::ANY,
        bias in -0.3f64..0.3,
        seed in any::<u64>(),
    ) {
        let scheme = if scheme_fixed {
            SelectionScheme::FixedBias(bias)
        } else {
            SelectionScheme::Biasless
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let frozen: Vec<bool> = (0..goodness.len()).map(|i| i % 3 == 0).collect();
        let selected = select(&goodness, scheme, &mut rng, &frozen);
        let unique: HashSet<_> = selected.iter().collect();
        prop_assert_eq!(unique.len(), selected.len(), "no duplicates in S");
        for c in &selected {
            prop_assert!(c.index() < goodness.len());
            prop_assert!(!frozen[c.index()], "frozen cell selected");
        }
    }

    /// Allocation, pruned or not, always returns a legal placement that
    /// still contains every cell exactly once, never moves unselected cells
    /// to another row, and puts every selected cell in an allowed row. The
    /// allowed rows are a random subset in random order (a Type II rank's
    /// rows), and the selection is drawn from the cells in them.
    #[test]
    fn allocation_preserves_legality_and_unselected_rows(
        netlist in arb_netlist(),
        rows in 4usize..10,
        bound_pruning in proptest::bool::ANY,
        seed in any::<u64>(),
    ) {
        let evaluator = CostEvaluator::new(Arc::clone(&netlist), Objectives::WirelengthPower);
        let ge = GoodnessEvaluator::new(evaluator.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut placement = Placement::random(&netlist, rows, &mut rng);
        let goodness = ge.all_goodness(&placement);
        let mut allowed: Vec<usize> = (0..rows).collect();
        allowed.shuffle(&mut rng);
        allowed.truncate(rng.gen_range(1..=rows));

        let mut selected: Vec<CellId> = netlist
            .cell_ids()
            .filter(|&c| c.index() % 2 == 0 && allowed.contains(&placement.row_of(c)))
            .collect();
        let selected_set: HashSet<CellId> = selected.iter().copied().collect();
        let rows_before: Vec<usize> = netlist.cell_ids().map(|c| placement.row_of(c)).collect();

        allocate_all(
            &evaluator,
            &mut AllocScratch::for_evaluator(&evaluator),
            &mut placement,
            &mut selected,
            &goodness,
            &AllocationConfig { bound_pruning },
            &allowed,
        );
        placement.validate(&netlist).unwrap();
        for c in netlist.cell_ids() {
            if selected_set.contains(&c) {
                prop_assert!(allowed.contains(&placement.row_of(c)));
            } else {
                prop_assert_eq!(placement.row_of(c), rows_before[c.index()]);
            }
        }
    }

    /// A SimE run never returns a best quality below the quality of its first
    /// iteration, the best placement is legal, and the reported best cost is
    /// reproducible from the returned placement.
    #[test]
    fn engine_run_invariants(netlist in arb_netlist(), seed in any::<u64>()) {
        let mut config = SimEConfig::paper_defaults(Objectives::WirelengthPower, 6, 8);
        config.seed = seed;
        let engine = SimEEngine::new(Arc::clone(&netlist), config);
        let result = engine.run();
        prop_assert!(!result.history.is_empty());
        prop_assert!(result.best_mu() + 1e-12 >= result.history[0].mu);
        result.best_placement.validate(&netlist).unwrap();
        let re = engine.evaluator().evaluate(&result.best_placement);
        prop_assert!((re.mu - result.best_cost.mu).abs() < 1e-9);
        // Work profile is dominated by allocation (Section 4 of the paper).
        prop_assert!(result.profile.work_fraction(sime_core::Phase::Allocation) > 0.5);
    }

    /// Running the same configuration twice gives identical results
    /// (determinism is what makes the table harnesses reproducible).
    #[test]
    fn engine_is_deterministic(netlist in arb_netlist(), seed in any::<u64>()) {
        let mut config = SimEConfig::paper_defaults(Objectives::WirelengthPower, 5, 5);
        config.seed = seed;
        let a = SimEEngine::new(Arc::clone(&netlist), config).run();
        let b = SimEEngine::new(Arc::clone(&netlist), config).run();
        prop_assert_eq!(a.best_cost.wirelength, b.best_cost.wirelength);
        prop_assert_eq!(a.best_cost.mu, b.best_cost.mu);
        prop_assert_eq!(a.history.len(), b.history.len());
    }

    /// Bound-pruned trial scoring is pure strength reduction: a full run with
    /// pruning enabled walks the exhaustive-scan run's trajectory bit for
    /// bit — same µ, same selection sizes, same nominal work counts — for
    /// random circuits, seeds and both objective sets.
    #[test]
    fn pruned_trial_scoring_matches_exhaustive_bitwise(
        netlist in arb_netlist(),
        seed in any::<u64>(),
        delay in proptest::bool::ANY,
    ) {
        let objectives = if delay {
            Objectives::WirelengthPowerDelay
        } else {
            Objectives::WirelengthPower
        };
        let mut config = SimEConfig::paper_defaults(objectives, 6, 6);
        config.seed = seed;
        prop_assert!(config.allocation.bound_pruning, "pruning must be the default");
        let mut legacy = config;
        legacy.allocation.bound_pruning = false;
        let a = SimEEngine::new(Arc::clone(&netlist), config).run();
        let b = SimEEngine::new(Arc::clone(&netlist), legacy).run();
        prop_assert_eq!(a.history.len(), b.history.len());
        for (ha, hb) in a.history.iter().zip(&b.history) {
            prop_assert_eq!(ha.mu.to_bits(), hb.mu.to_bits());
            prop_assert_eq!(ha.avg_goodness.to_bits(), hb.avg_goodness.to_bits());
            prop_assert_eq!(ha.selected, hb.selected);
            prop_assert_eq!(ha.allocation.trial_positions, hb.allocation.trial_positions);
            prop_assert_eq!(ha.allocation.net_evaluations, hb.allocation.net_evaluations);
            prop_assert_eq!(ha.cost.wirelength.to_bits(), hb.cost.wirelength.to_bits());
            prop_assert_eq!(ha.cost.power.to_bits(), hb.cost.power.to_bits());
        }
    }

    /// The kernel Evaluation (net-length cache + goodness pass) tracks the
    /// from-scratch oracle bit for bit through random interleavings of
    /// iterations, cost refreshes and evaluations — each op dirties a
    /// different random net subset. Half the cases run on mix600, whose
    /// fixed cells are never evaluated, and some ops iterate or evaluate
    /// under a Type II-style mask (the cells of a random half of the rows
    /// are owned, the rest frozen), so cells skipped while frozen must be
    /// evaluated correctly once they become selectable again.
    #[test]
    fn kernel_goodness_matches_oracle_through_random_sequences(
        netlist in arb_netlist(),
        mixed in proptest::bool::ANY,
        masked_start in proptest::bool::ANY,
        seed in any::<u64>(),
        ops in prop::collection::vec(0u8..5, 3..12),
    ) {
        let (netlist, num_rows) = if mixed {
            (mix600(), MixedCircuit::Mix600.num_rows())
        } else {
            (netlist, 6)
        };
        let config = SimEConfig::paper_defaults(Objectives::WirelengthPowerDelay, num_rows, 1);
        let engine = SimEEngine::new(Arc::clone(&netlist), config);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut placement = engine.initial_placement(&mut rng);
        let mut scratch = engine.new_scratch();
        let mut profile = ProfileReport::new();
        // A rank's view: the cells of a random half of the rows are owned.
        let type2_mask = |placement: &Placement, rng: &mut ChaCha8Rng| {
            let mut rows: Vec<usize> = (0..num_rows).collect();
            rows.shuffle(rng);
            rows.truncate(num_rows / 2);
            rows.sort_unstable();
            let owned: Vec<CellId> = netlist
                .cell_ids()
                .filter(|&c| !netlist.cell(c).fixed && rows.contains(&placement.row_of(c)))
                .collect();
            (engine.frozen_mask_from_owned(&owned), rows)
        };
        if masked_start {
            // A pass that skips a rank's foreign cells, then an unmasked pass
            // over the unchanged placement, which must evaluate the skipped
            // ones.
            let (frozen, _) = type2_mask(&placement, &mut rng);
            engine.evaluate_with(&placement, &mut scratch, &mut profile, &frozen);
            let (_, naive_goodness) = engine.evaluate(&placement, &mut ProfileReport::new());
            let (_, goodness) = engine.evaluate_with(&placement, &mut scratch, &mut profile, &[]);
            for c in netlist.cell_ids().filter(|&c| !netlist.cell(c).fixed) {
                prop_assert_eq!(naive_goodness[c.index()].to_bits(), goodness[c.index()].to_bits());
            }
        }
        // Two unconditional iterations guarantee at least one pass over a
        // mutated placement before the random interleaving starts.
        for _ in 0..2 {
            engine.iterate(&mut placement, &mut scratch, &mut rng, &mut profile, &[], &[]);
        }
        for &op in &ops {
            match op {
                0 => {
                    engine.iterate(&mut placement, &mut scratch, &mut rng, &mut profile, &[], &[]);
                }
                1 => {
                    let cached = engine.cost_with(&placement, &mut scratch);
                    let oracle = engine.evaluator().evaluate(&placement);
                    prop_assert_eq!(cached.mu.to_bits(), oracle.mu.to_bits());
                    prop_assert_eq!(cached.wirelength.to_bits(), oracle.wirelength.to_bits());
                }
                2 => {
                    let (frozen, rows) = type2_mask(&placement, &mut rng);
                    engine.iterate(&mut placement, &mut scratch, &mut rng, &mut profile, &frozen, &rows);
                }
                _ => {
                    let frozen = if op == 3 {
                        Vec::new()
                    } else {
                        type2_mask(&placement, &mut rng).0
                    };
                    let (naive_lengths, naive_goodness) =
                        engine.evaluate(&placement, &mut ProfileReport::new());
                    let (lengths, goodness) =
                        engine.evaluate_with(&placement, &mut scratch, &mut profile, &frozen);
                    prop_assert_eq!(naive_lengths.len(), lengths.len());
                    prop_assert_eq!(naive_goodness.len(), goodness.len());
                    for (a, b) in naive_lengths.iter().zip(lengths.iter()) {
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                    for c in netlist.cell_ids() {
                        let skipped = netlist.cell(c).fixed || (!frozen.is_empty() && frozen[c.index()]);
                        if !skipped {
                            prop_assert_eq!(naive_goodness[c.index()].to_bits(), goodness[c.index()].to_bits());
                        }
                    }
                }
            }
        }
        let (_, naive_goodness) = engine.evaluate(&placement, &mut ProfileReport::new());
        let (_, goodness) = engine.evaluate_with(&placement, &mut scratch, &mut profile, &[]);
        for c in netlist.cell_ids().filter(|&c| !netlist.cell(c).fixed) {
            prop_assert_eq!(naive_goodness[c.index()].to_bits(), goodness[c.index()].to_bits());
        }
    }

    /// Iterating with a frozen mask never moves frozen cells between rows.
    #[test]
    fn frozen_cells_never_change_rows(netlist in arb_netlist(), seed in any::<u64>()) {
        let config = SimEConfig::paper_defaults(Objectives::WirelengthPower, 6, 1);
        let engine = SimEEngine::new(Arc::clone(&netlist), config);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut placement = engine.initial_placement(&mut rng);
        let owned: Vec<CellId> = netlist.cell_ids().filter(|c| c.index() % 2 == 0).collect();
        let frozen = engine.frozen_mask_from_owned(&owned);
        let rows_before: Vec<usize> = netlist.cell_ids().map(|c| placement.row_of(c)).collect();
        let mut profile = ProfileReport::new();
        let mut scratch = engine.new_scratch();
        engine.iterate(&mut placement, &mut scratch, &mut rng, &mut profile, &frozen, &[]);
        placement.validate(&netlist).unwrap();
        for c in netlist.cell_ids() {
            if frozen[c.index()] {
                prop_assert_eq!(placement.row_of(c), rows_before[c.index()]);
            }
        }
    }
}
