//! Property-based tests for the netlist substrate.

use proptest::prelude::*;
use vlsi_netlist::bookshelf::netlists_identical;
use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};
use vlsi_netlist::paths::{extract_paths, PathExtractionConfig};
use vlsi_netlist::{CellKind, Netlist};

/// Strategy producing a wide range of generator configurations.
fn generator_config() -> impl Strategy<Value = GeneratorConfig> {
    (
        60usize..400,
        4usize..16,
        4usize..16,
        2usize..24,
        4usize..14,
        any::<u64>(),
    )
        .prop_map(|(cells, inputs, outputs, ffs, depth, seed)| {
            let num_cells = cells + inputs + outputs + ffs + depth + 4;
            GeneratorConfig {
                name: format!("prop_{seed}"),
                num_cells,
                num_inputs: inputs,
                num_outputs: outputs,
                num_flip_flops: ffs,
                logic_depth: depth,
                avg_fanin: 2.2,
                seed,
                mixed: None,
            }
        })
}

fn generate(cfg: &GeneratorConfig) -> Netlist {
    CircuitGenerator::new(cfg.clone()).generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The generator always produces a structurally valid netlist with the
    /// requested number of cells and I/O population.
    #[test]
    fn generator_respects_configuration(cfg in generator_config()) {
        let nl = generate(&cfg);
        prop_assert_eq!(nl.num_cells(), cfg.num_cells);
        let stats = nl.stats();
        prop_assert_eq!(stats.inputs, cfg.num_inputs);
        prop_assert_eq!(stats.outputs, cfg.num_outputs);
        prop_assert_eq!(stats.flip_flops, cfg.num_flip_flops);
        prop_assert!(stats.nets > 0);
    }

    /// Fan-in / fan-out tables derived at build time agree with the raw nets.
    #[test]
    fn connectivity_tables_are_consistent(cfg in generator_config()) {
        let nl = generate(&cfg);
        for net_id in nl.net_ids() {
            let net = nl.net(net_id);
            prop_assert!(nl.nets_driven_by(net.driver).contains(&net_id));
            for &s in nl.sinks(net_id) {
                prop_assert!(nl.nets_feeding(s).contains(&net_id));
            }
        }
        for cell_id in nl.cell_ids() {
            for &n in nl.nets_driven_by(cell_id) {
                prop_assert_eq!(nl.net(n).driver, cell_id);
            }
            for &n in nl.nets_feeding(cell_id) {
                prop_assert!(nl.sinks(n).contains(&cell_id));
            }
        }
    }

    /// Primary inputs never have fan-in; primary outputs never drive nets.
    #[test]
    fn io_cells_have_one_sided_connectivity(cfg in generator_config()) {
        let nl = generate(&cfg);
        for cell_id in nl.cell_ids() {
            match nl.cell(cell_id).kind {
                CellKind::Input => prop_assert!(nl.nets_feeding(cell_id).is_empty()),
                CellKind::Output => prop_assert!(nl.nets_driven_by(cell_id).is_empty()),
                _ => {}
            }
        }
    }

    /// Extracted paths are well-formed: consecutive cells are really connected
    /// by the recorded net, paths start at sources and end at sinks.
    #[test]
    fn extracted_paths_are_wellformed(cfg in generator_config()) {
        let nl = generate(&cfg);
        let paths = extract_paths(&nl, &PathExtractionConfig::default());
        for p in &paths {
            prop_assert_eq!(p.nets.len() + 1, p.cells.len());
            prop_assert!(nl.cell(p.cells[0]).kind.is_path_source());
            prop_assert!(nl.cell(*p.cells.last().unwrap()).kind.is_path_sink());
            for (i, &net) in p.nets.iter().enumerate() {
                prop_assert_eq!(nl.net(net).driver, p.cells[i]);
                prop_assert!(nl.sinks(net).contains(&p.cells[i + 1]));
            }
            // No cell repeats within a path (paths are simple).
            let mut cells = p.cells.clone();
            cells.sort_unstable();
            cells.dedup();
            prop_assert_eq!(cells.len(), p.cells.len());
        }
    }

    /// Generation is a pure function of the configuration.
    #[test]
    fn generation_is_deterministic(cfg in generator_config()) {
        let a = generate(&cfg);
        let b = generate(&cfg);
        prop_assert!(netlists_identical(&a, &b));
    }
}
