//! Determinism probe: prints full seeded SimE trajectories (per-iteration µ,
//! wirelength, selection size, trial positions) at 17 significant digits.
//!
//! Capture the output before and after a performance change and `diff` it —
//! any bitwise divergence in the search trajectory shows up as a changed
//! line. This is how the allocation-free kernel was verified to preserve the
//! pre-existing seeded runs exactly.

use sime_core::engine::{SimEConfig, SimEEngine};
use std::sync::Arc;
use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};
use vlsi_place::cost::Objectives;

fn main() {
    for (cells, seed, obj) in [
        (120usize, 6u64, Objectives::WirelengthPower),
        (150, 5, Objectives::WirelengthPower),
        (130, 7, Objectives::WirelengthPowerDelay),
    ] {
        let nl = Arc::new(
            CircuitGenerator::new(GeneratorConfig::sized("probe", cells, seed)).generate(),
        );
        let mut config = SimEConfig::paper_defaults(obj, 6, 15);
        config.seed = seed;
        let r = SimEEngine::new(nl, config).run();
        println!("cells={cells} seed={seed} obj={:?}", obj);
        for h in &r.history {
            println!(
                "  it={} mu={:.17e} wl={:.17e} sel={} tp={}",
                h.iteration, h.mu, h.cost.wirelength, h.selected, h.allocation.trial_positions
            );
        }
        println!(
            "  best mu={:.17e} wl={:.17e}",
            r.best_cost.mu, r.best_cost.wirelength
        );
    }
}
