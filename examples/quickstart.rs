//! Quickstart: generate a small circuit, run serial Simulated Evolution and
//! print the cost breakdown of the best placement next to the initial one.
//!
//! Run with: `cargo run --release --example quickstart`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sime_placement::prelude::*;
use std::sync::Arc;

fn main() {
    // 1. A small synthetic circuit (200 cells, deterministic seed).
    let netlist =
        Arc::new(CircuitGenerator::new(GeneratorConfig::sized("quickstart", 200, 7)).generate());
    let stats = netlist.stats();
    println!(
        "circuit `{}`: {} cells, {} nets, avg fanout {:.2}, {} flip-flops",
        netlist.name(),
        stats.cells,
        stats.nets,
        stats.avg_fanout,
        stats.flip_flops
    );

    // 2. Serial SimE with the paper's default operators (biasless selection,
    //    windowed best-fit allocation), optimising wirelength + power, from
    //    an explicit random initial placement so the result can be compared
    //    with where the search started.
    let config = SimEConfig::paper_defaults(Objectives::WirelengthPower, 10, 200);
    let engine = SimEEngine::new(Arc::clone(&netlist), config);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let initial = engine.initial_placement(&mut rng);
    let start = engine.evaluator().evaluate(&initial);
    let result = engine.run_from(initial, &mut rng);

    // 3. Report the result against the initial placement.
    let best = &result.best_cost;
    println!("\nafter {} iterations:", result.iterations);
    println!("  quality µ(s):   {:.3} (start {:.3})", best.mu, start.mu);
    println!(
        "  wirelength:     {:.0} (start {:.0})",
        best.wirelength, start.wirelength
    );
    println!(
        "  power:          {:.0} (start {:.0})",
        best.power, start.power
    );
    println!("  layout width:   {:.0} (limit {:.0})", best.width, {
        let fuzzy = engine.evaluator().fuzzy();
        (1.0 + fuzzy.alpha_width) * result.best_placement.avg_row_width()
    });

    // 4. The operator-level profile: allocation dominates the work counts,
    //    as in the paper's Section 4 profile.
    println!("\noperator profile (share of wall-clock time):");
    print!("{}", result.profile.to_table());
}
