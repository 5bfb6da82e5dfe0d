//! Studies the Type II row-allocation patterns: fixed (alternating slice /
//! stride, after Kling & Banerjee) versus random re-assignment, across
//! processor counts — the comparison at the heart of the paper's Tables 2/3.
//!
//! Run with: `cargo run --release --example row_pattern_study`

use sime_placement::prelude::*;
use std::sync::Arc;

fn main() {
    let circuit = PaperCircuit::S1238;
    let netlist = Arc::new(paper_circuit(circuit));
    let serial_iterations = 120;
    let config = SimEConfig::paper_defaults(
        Objectives::WirelengthPower,
        circuit.num_rows(),
        serial_iterations,
    );
    let engine = SimEEngine::new(Arc::clone(&netlist), config);

    let compute = ClusterConfig::paper_cluster(2).compute;
    let serial = run_serial_baseline(&engine, &compute);
    println!(
        "circuit {} — serial: modeled {:.1} s, µ(s) = {:.3}\n",
        circuit,
        serial.modeled_seconds,
        serial.best_mu()
    );

    println!(
        "{:<10} {:>4} {:>12} {:>10} {:>10} {:>12}",
        "pattern", "p", "iterations", "time (s)", "speed-up", "quality %"
    );
    for pattern in [RowPattern::Fixed, RowPattern::Random] {
        for ranks in 2..=5usize {
            // The paper compensates the restricted mobility with extra
            // iterations as processors are added.
            let iterations = serial_iterations + serial_iterations / 8 * (ranks - 2);
            let outcome = run_type2(
                &engine,
                ClusterConfig::paper_cluster(ranks),
                Type2Config {
                    ranks,
                    iterations,
                    pattern,
                },
                &Modeled,
                &FreeRun,
            );
            println!(
                "{:<10} {:>4} {:>12} {:>10.1} {:>10.2} {:>11.0}%",
                pattern.label(),
                ranks,
                iterations,
                outcome.modeled_seconds,
                outcome.speedup_versus(serial.modeled_seconds),
                100.0 * outcome.quality_fraction_of(serial.best_mu())
            );
        }
    }

    println!("\nexpected shape (paper, Tables 2/3): both patterns speed up as p grows; the");
    println!("random pattern converges to better qualities because every cell can reach any");
    println!("row over time instead of alternating between two fixed partitions.");
}
