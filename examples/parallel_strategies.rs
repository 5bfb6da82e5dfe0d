//! Runs all three parallelization strategies on the same circuit and
//! compares their modeled cluster runtimes and reached qualities against the
//! serial baseline — a one-screen summary of the paper's message.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example parallel_strategies -- [OPTIONS]
//!
//! Options:
//!   --backend <modeled|threaded>  execution backend (default: modeled)
//!   --workers <N>                 OS worker threads for the threaded
//!                                 backend (default: 4; ignored by modeled)
//!   --iterations <N>              SimE iterations per strategy (default: 120)
//!   --help                        print this help text
//! ```
//!
//! The backend never changes the results — seeded runs are bitwise identical
//! on `modeled` and on `threaded` at any worker count (the determinism
//! contract of `sime_parallel::exec`). What changes is the host wall-clock
//! column: with `--backend threaded` the per-rank work of each iteration
//! executes on real OS threads.

use sime_placement::prelude::*;
use std::sync::Arc;

const HELP: &str = "\
Usage: parallel_strategies [--backend modeled|threaded] [--workers N] [--iterations N]

Runs the paper's Type I/II/III parallel SimE strategies on the s1196 stand-in
circuit and prints modeled cluster runtime, speed-up and reached quality per
strategy, plus the host wall-clock time of each run.

Options:
  --backend <modeled|threaded>  execution backend (default: modeled)
  --workers <N>                 OS worker threads for --backend threaded
                                (default: 4; ignored by the modeled backend)
  --iterations <N>              SimE iterations per strategy (default: 120)
  --help                        print this help text

Seeded results are bitwise identical across backends and worker counts;
only wall-clock time changes (see DESIGN.md §4, the determinism contract).";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return;
    }
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let backend_name = arg("--backend").unwrap_or_else(|| "modeled".into());
    let workers: usize = arg("--workers").and_then(|v| v.parse().ok()).unwrap_or(4);
    let iterations: usize = arg("--iterations")
        .and_then(|v| v.parse().ok())
        .unwrap_or(120);
    let backend = match backend_from_name(&backend_name, workers) {
        Some(b) => b,
        None => {
            eprintln!("unknown backend '{backend_name}' (expected 'modeled' or 'threaded')\n");
            eprintln!("{HELP}");
            std::process::exit(2);
        }
    };

    let circuit = PaperCircuit::S1196;
    let netlist = Arc::new(paper_circuit(circuit));
    let config =
        SimEConfig::paper_defaults(Objectives::WirelengthPower, circuit.num_rows(), iterations);
    let engine = SimEEngine::new(Arc::clone(&netlist), config);

    println!(
        "circuit {} ({} cells), {} iterations, simulated 2 GHz P4 cluster on fast Ethernet",
        circuit,
        netlist.num_cells(),
        iterations
    );
    println!("execution backend: {}\n", backend.label());

    let compute = ClusterConfig::paper_cluster(2).compute;
    let serial = run_serial_baseline(&engine, &compute);
    println!(
        "{:<28} {:>12} {:>10} {:>10} {:>12}",
        "strategy", "modeled time", "speed-up", "µ(s)", "wall-clock"
    );
    println!(
        "{:<28} {:>10.1} s {:>10.2} {:>10.3} {:>12}",
        "serial SimE",
        serial.modeled_seconds,
        1.0,
        serial.best_mu(),
        "-"
    );

    let ranks = 4;
    let cluster = ClusterConfig::paper_cluster(ranks);
    let row = |label: &str, outcome: &StrategyOutcome| {
        println!(
            "{:<28} {:>10.1} s {:>10.2} {:>10.3} {:>9.0} ms",
            label,
            outcome.modeled_seconds,
            outcome.speedup_versus(serial.modeled_seconds),
            outcome.best_mu(),
            outcome.wall_seconds * 1e3
        );
    };

    let t1 = run_type1(
        &engine,
        cluster,
        Type1Config { ranks, iterations },
        backend.as_ref(),
        &FreeRun,
    );
    row("Type I  (low-level, p=4)", &t1);

    for pattern in [RowPattern::Fixed, RowPattern::Random] {
        let t2 = run_type2(
            &engine,
            cluster,
            Type2Config {
                ranks,
                iterations,
                pattern,
            },
            backend.as_ref(),
            &FreeRun,
        );
        row(&format!("Type II ({} rows, p=4)", pattern.label()), &t2);
    }

    let t3 = run_type3(
        &engine,
        cluster,
        Type3Config {
            ranks,
            iterations,
            retry_threshold: 10,
        },
        backend.as_ref(),
        &FreeRun,
    );
    row("Type III (coop. search, p=4)", &t3);

    println!("\nreading the table:");
    println!(" * Type I  — same search as serial, no speed-up (allocation is not distributed).");
    println!(" * Type II — the only strategy with a real speed-up; quality can trail serial.");
    println!(" * Type III — runtime stays serial-level; quality is the best of several seeds.");
    println!(
        " * modeled time/speed-up/µ(s) are backend-invariant; wall-clock is the host cost\n   \
         of the run under the '{}' backend.",
        backend.label()
    );
}
