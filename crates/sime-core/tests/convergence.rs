//! SimE must improve on its own starting placement.
//!
//! The minimum baseline of any optimiser: with the paper's default operators
//! some iteration reaches a better `µ(s)` than the random initial placement,
//! every allocation keeps the layout inside the width constraint, and the
//! biasless selection set shrinks as the placement converges instead of
//! re-placing every cell in every iteration.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sime_core::engine::{SimEConfig, SimEEngine};
use sime_core::profile::ProfileReport;
use std::sync::Arc;
use vlsi_netlist::bench_suite::{PaperCircuit, SuiteCircuit};
use vlsi_place::cost::Objectives;
use vlsi_place::goodness::GoodnessScratch;

/// Per-iteration selected fraction and the best µ, after checking the width
/// constraint after every allocation.
fn run(circuit: PaperCircuit, iterations: usize) -> (f64, f64, Vec<f64>) {
    let circuit = SuiteCircuit::Paper(circuit);
    let netlist = Arc::new(circuit.generate());
    let config =
        SimEConfig::paper_defaults(Objectives::WirelengthPower, circuit.num_rows(), iterations);
    let engine = SimEEngine::new(Arc::clone(&netlist), config);
    let alpha = engine.evaluator().fuzzy().alpha_width;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut placement = engine.initial_placement(&mut rng);
    let start_mu = engine.evaluator().evaluate(&placement).mu;
    let mut scratch = engine.new_scratch();
    let mut profile = ProfileReport::new();
    let mut best_mu = f64::NEG_INFINITY;
    let mut selected = Vec::new();
    for iteration in 0..iterations {
        let (_, picked, _) = engine.iterate(
            &mut placement,
            &mut scratch,
            &mut rng,
            &mut profile,
            &[],
            &[],
        );
        assert!(
            placement.width_within(alpha),
            "{circuit}: width {} exceeds (1 + {alpha}) * {} after iteration {iteration}",
            placement.width(),
            placement.avg_row_width()
        );
        selected.push(picked as f64 / netlist.num_cells() as f64);
        best_mu = best_mu.max(engine.cost_with(&placement, &mut scratch).mu);
    }
    placement.validate(&netlist).unwrap();
    (start_mu, best_mu, selected)
}

#[test]
fn sime_beats_its_random_start_on_s1196() {
    let (start, best, _) = run(PaperCircuit::S1196, 3);
    assert!(best > start, "best µ {best} never beat the start µ {start}");
}

#[test]
fn sime_beats_its_random_start_and_shrinks_selection_on_s3330() {
    let (start, best, selected) = run(PaperCircuit::S3330, 3);
    assert!(best > start, "best µ {best} never beat the start µ {start}");
    assert!(
        selected[2] < 0.5,
        "iteration 3 still selects {:.0} % of the cells",
        selected[2] * 100.0
    );
}

#[test]
fn iterations_on_s3330_hold_every_debug_oracle_and_the_reference_goodness() {
    // Two delay-aware iterations on s3330 (1.5k cells), where nets and
    // rows are real-sized: under `cargo test` every `debug_assertions`
    // oracle of the kernel and the allocation scan runs, and after each
    // iteration the engine's goodness pass must equal the sort-based
    // reference on every cell.
    let circuit = SuiteCircuit::Paper(PaperCircuit::S3330);
    let netlist = Arc::new(circuit.generate());
    let config =
        SimEConfig::paper_defaults(Objectives::WirelengthPowerDelay, circuit.num_rows(), 2);
    let engine = SimEEngine::new(Arc::clone(&netlist), config);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut placement = engine.initial_placement(&mut rng);
    let mut scratch = engine.new_scratch();
    let mut profile = ProfileReport::new();
    let mut gscratch = GoodnessScratch::default();
    let mut kernel = Vec::new();
    for _ in 0..2 {
        engine.iterate(
            &mut placement,
            &mut scratch,
            &mut rng,
            &mut profile,
            &[],
            &[],
        );
        let lengths = engine.evaluator().net_lengths(&placement);
        engine
            .goodness()
            .all_goodness_with(&mut gscratch, &placement, &lengths, &[], &mut kernel);
        let reference = engine.goodness().all_goodness(&placement);
        for (cell, (a, b)) in reference.iter().zip(&kernel).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "cell {cell}");
        }
    }
    placement.validate(&netlist).unwrap();
}
