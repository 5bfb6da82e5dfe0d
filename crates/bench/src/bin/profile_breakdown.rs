//! Experiment E0 — reproduces the Section 4 profiling analysis.
//!
//! The paper profiles the serial implementation with gprof and reports that
//! ~98.4 % (two objectives) / ~98.5 % (three objectives) of the time is spent
//! in allocation, ~0.5–0.6 % in wirelength calculation, ~0.2–0.4 % in
//! goodness evaluation and ~0.2 % in delay calculation. This binary runs the
//! serial engine on the benchmark circuits and prints the same breakdown,
//! both by wall-clock time and by deterministic work counts. The work counts
//! keep allocation dominant; the wall-clock split gives goodness a large
//! share, because every cell's optimal cost `Oᵢ` is priced at its median
//! position while allocation re-places only the selected cells.
//!
//! Usage: `cargo run --release -p bench --bin profile_breakdown [--full]`

use bench::{iteration_scale, paper_engine, print_header, scaled_iterations};
use sime_core::profile::Phase;
use vlsi_netlist::bench_suite::PaperCircuit;
use vlsi_place::cost::Objectives;

fn main() {
    let scale = iteration_scale();
    print_header(
        "Section 4 — serial runtime breakdown by SimE operator",
        scale,
    );

    for objectives in [
        Objectives::WirelengthPower,
        Objectives::WirelengthPowerDelay,
    ] {
        let iterations = scaled_iterations(500, scale.max(0.1));
        println!(
            "\n-- objectives: {} ({iterations} iterations on s1196) --",
            objectives.label()
        );
        let engine = paper_engine(PaperCircuit::S1196, objectives, iterations);
        let result = engine.run();
        println!("{}", result.profile.to_table());
        println!(
            "paper reference: allocation 98.4–98.5 %, wirelength 0.5–0.6 %, goodness 0.2–0.4 %, delay 0.2 %"
        );
        let alloc_time = result.profile.time_fraction(Phase::Allocation);
        println!(
            "allocation share measured here: {:.1} % (time), {:.1} % (work units)",
            100.0 * alloc_time,
            100.0 * result.profile.work_fraction(Phase::Allocation)
        );
    }
}
