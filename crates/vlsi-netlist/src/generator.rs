//! Deterministic synthetic circuit generator.
//!
//! The paper evaluates on ISCAS-89 sequential benchmark circuits. Those
//! netlists cannot be shipped with this repository, so the benchmark suite
//! regenerates stand-ins with the same *size and connectivity statistics*:
//! the published cell count, realistic average fanout (≈ 2–3 sinks per net
//! with a long tail of high-fanout nets), a levelised combinational structure
//! that yields deep critical paths, and an ISCAS-like population of primary
//! inputs, primary outputs and flip-flops.
//!
//! Generation is fully deterministic for a given [`GeneratorConfig`] (seeded
//! ChaCha8 stream), so every experiment in the workspace operates on exactly
//! the same circuits.
//!
//! Beyond the pure standard-cell circuits, [`MixedSizeSpec`] layers
//! *mixed-size* features on top: multi-row macro blocks and a fixed pad
//! ring. Mixed circuits flow through the same interchange files as everyone
//! else — the generated netlist round-trips through the Bookshelf pair and
//! its fixed cells carry into `.pl` placements:
//!
//! ```
//! use vlsi_netlist::bookshelf::{parse_bookshelf, write_bookshelf, netlists_identical};
//! use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig, MixedSizeSpec};
//!
//! let cfg = GeneratorConfig::sized("doc_mix", 150, 42).with_mixed(MixedSizeSpec {
//!     num_macros: 2,
//!     macro_height: 3,
//!     pad_ring: true,
//! });
//! let netlist = CircuitGenerator::new(cfg).generate();
//! assert!(netlist.has_fixed_cells());
//! assert_eq!(netlist.stats().macros, 2);
//!
//! let pair = write_bookshelf(&netlist);
//! let reloaded = parse_bookshelf(&pair.nodes, &pair.nets).unwrap();
//! assert!(netlists_identical(&netlist, &reloaded));
//! ```

use crate::{Cell, CellId, CellKind, Netlist, NetlistBuilder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::fmt::Write;

/// Parameters of the synthetic circuit generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Circuit name recorded in the netlist.
    pub name: String,
    /// Total number of cells (inputs + outputs + flip-flops + logic).
    pub num_cells: usize,
    /// Number of primary input pads.
    pub num_inputs: usize,
    /// Number of primary output pads.
    pub num_outputs: usize,
    /// Number of flip-flops.
    pub num_flip_flops: usize,
    /// Number of logic levels between path sources and sinks. Deeper circuits
    /// produce longer critical paths.
    pub logic_depth: usize,
    /// Average fan-in of a logic cell (typically 2–3 for gate-level circuits).
    pub avg_fanin: f64,
    /// RNG seed; the same seed always produces the same circuit.
    pub seed: u64,
    /// Mixed-size extension: `Some` adds macro blocks (and optionally pins
    /// the I/O pads into a pad ring) *on top of* the standard-cell circuit.
    /// `None` reproduces the original pure standard-cell generator
    /// bit-for-bit.
    pub mixed: Option<MixedSizeSpec>,
}

/// Mixed-size additions layered over the standard-cell generator.
///
/// Macros are generated *after* the standard connectivity pass, from the
/// same seeded RNG stream — so for a given seed, the standard-cell prefix of
/// a mixed circuit (names, kinds, widths, delays and the standard-to-standard
/// edges) is identical to the pure circuit generated with `mixed: None`; only
/// the pad-ring `fixed` flags, the appended macros and the per-net switching
/// probabilities (drawn after the macro wiring) differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MixedSizeSpec {
    /// Number of macro blocks appended after the standard cells.
    pub num_macros: usize,
    /// Footprint height of each macro, in rows.
    pub macro_height: u32,
    /// Mark every primary input/output pad as fixed (a pad ring).
    pub pad_ring: bool,
}

impl GeneratorConfig {
    /// A reasonable configuration for a circuit of `num_cells` cells, with
    /// ISCAS-like proportions of I/O and sequential elements.
    pub fn sized(name: impl Into<String>, num_cells: usize, seed: u64) -> Self {
        let num_inputs = (num_cells / 40).clamp(4, 64);
        let num_outputs = (num_cells / 35).clamp(4, 80);
        let num_flip_flops = (num_cells / 12).clamp(2, 200);
        GeneratorConfig {
            name: name.into(),
            num_cells,
            num_inputs,
            num_outputs,
            num_flip_flops,
            logic_depth: 12,
            avg_fanin: 2.2,
            seed,
            mixed: None,
        }
    }

    /// Returns the configuration with mixed-size additions enabled.
    ///
    /// The standard-cell prefix of the resulting circuit is identical to the
    /// `mixed: None` circuit of the same seed (up to pad-ring `fixed`
    /// flags); see [`MixedSizeSpec`].
    ///
    /// ```
    /// use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig, MixedSizeSpec};
    ///
    /// let base = GeneratorConfig::sized("doc_wm", 120, 7);
    /// let mixed = CircuitGenerator::new(base.clone().with_mixed(MixedSizeSpec {
    ///     num_macros: 1,
    ///     macro_height: 2,
    ///     pad_ring: false,
    /// }))
    /// .generate();
    /// let pure = CircuitGenerator::new(base).generate();
    /// // Same standard cells, one extra macro appended at the end.
    /// assert_eq!(mixed.num_cells(), pure.num_cells() + 1);
    /// assert_eq!(mixed.cells()[..pure.num_cells()], pure.cells()[..]);
    /// ```
    pub fn with_mixed(mut self, mixed: MixedSizeSpec) -> Self {
        self.mixed = Some(mixed);
        self
    }

    /// Number of plain logic cells implied by the configuration.
    pub fn num_logic(&self) -> usize {
        self.num_cells
            .saturating_sub(self.num_inputs + self.num_outputs + self.num_flip_flops)
    }
}

/// Synthetic circuit generator. See the [module documentation](self).
#[derive(Debug, Clone)]
pub struct CircuitGenerator {
    config: GeneratorConfig,
}

impl CircuitGenerator {
    /// Creates a generator for the given configuration.
    pub fn new(config: GeneratorConfig) -> Self {
        CircuitGenerator { config }
    }

    /// Access to the configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generates the circuit.
    ///
    /// # Panics
    ///
    /// Panics if the configuration asks for fewer cells than the combined
    /// number of inputs, outputs and flip-flops, or for a zero logic depth.
    pub fn generate(&self) -> Netlist {
        let cfg = &self.config;
        assert!(
            cfg.num_cells
                >= cfg.num_inputs + cfg.num_outputs + cfg.num_flip_flops + cfg.logic_depth,
            "configuration does not leave room for logic cells"
        );
        assert!(cfg.logic_depth >= 1, "logic depth must be at least 1");

        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut builder = NetlistBuilder::new(cfg.name.clone());
        // Every name is formatted into this one buffer and copied into the
        // builder's name arena.
        let mut name = String::new();
        // Pad-ring circuits pin every I/O pad; everything else about the
        // standard-cell flow is untouched.
        let pad_fixed = cfg.mixed.is_some_and(|m| m.pad_ring);

        // ----- cells ---------------------------------------------------
        // Level 0: inputs. Levels 1..=logic_depth: logic and flip-flops.
        // Level logic_depth + 1: outputs.
        let num_logic = cfg.num_logic();
        let mut level_of: Vec<usize> = Vec::with_capacity(cfg.num_cells);
        let mut ids_by_level: Vec<Vec<CellId>> = vec![Vec::new(); cfg.logic_depth + 2];

        for i in 0..cfg.num_inputs {
            let mut pad = Cell::new(CellKind::Input, 1, 0.0);
            pad.fixed = pad_fixed;
            let id = builder.add_cell(named(&mut name, format_args!("pi{i}")), pad);
            level_of.push(0);
            ids_by_level[0].push(id);
        }

        // Interleave logic and flip-flops across the internal levels.
        let internal = num_logic + cfg.num_flip_flops;
        let mut ff_left = cfg.num_flip_flops;
        for i in 0..internal {
            let level = 1 + (i * cfg.logic_depth) / internal.max(1);
            let level = level.min(cfg.logic_depth);
            // Spread flip-flops uniformly through the internal cells.
            let is_ff = ff_left > 0 && rng.gen_ratio(ff_left as u32, (internal - i) as u32);
            let (kind, prefix, delay) = if is_ff {
                ff_left -= 1;
                (CellKind::FlipFlop, "ff", 0.20)
            } else {
                (CellKind::Logic, "g", 0.05 + rng.gen::<f64>() * 0.15)
            };
            let width = rng.gen_range(2..=8u32);
            let id = builder.add_cell(
                named(&mut name, format_args!("{prefix}{i}")),
                Cell::new(kind, width, delay),
            );
            level_of.push(level);
            ids_by_level[level].push(id);
        }

        let out_level = cfg.logic_depth + 1;
        for i in 0..cfg.num_outputs {
            let mut pad = Cell::new(CellKind::Output, 1, 0.0);
            pad.fixed = pad_fixed;
            let id = builder.add_cell(named(&mut name, format_args!("po{i}")), pad);
            level_of.push(out_level);
            ids_by_level[out_level].push(id);
        }

        let total_cells = builder.num_cells();

        // ----- connectivity --------------------------------------------
        // For every non-input cell choose fan-in drivers from earlier levels
        // (with a locality bias towards the immediately preceding levels),
        // then bundle each driver's sinks into a single net. Edges are
        // `(driver, sink)` pairs in one flat list; `drives[c]` records
        // whether cell `c` drives any of them yet.
        let mut edges: Vec<(CellId, CellId)> = Vec::new();
        let mut drives = vec![false; total_cells];

        // Cumulative candidate pool per level: cells at levels < l.
        let mut pool: Vec<CellId> = Vec::new();
        let mut pool_start_of_level: Vec<usize> = vec![0; cfg.logic_depth + 3];
        for l in 0..=out_level {
            pool_start_of_level[l] = pool.len();
            pool.extend(ids_by_level[l].iter().copied());
        }
        pool_start_of_level[out_level + 1] = pool.len();

        // Indexing (not iterating) `level_of` keeps the bounds check that
        // guards the builder/level bookkeeping staying in sync.
        #[allow(clippy::needless_range_loop)]
        for cell_idx in 0..total_cells {
            let id = CellId::from(cell_idx);
            let level = level_of[cell_idx];
            if level == 0 {
                continue; // primary inputs have no fan-in
            }
            let kind = builder_cell_kind(cell_idx, cfg, num_logic);
            let fanin = if kind == CellKind::Output {
                1
            } else {
                // Geometric-ish fan-in around avg_fanin, in 1..=4.
                let r: f64 = rng.gen();
                if r < 0.25 {
                    1
                } else if r < 0.25 + (cfg.avg_fanin - 1.5).clamp(0.0, 1.0) * 0.5 {
                    3
                } else if r > 0.95 {
                    4
                } else {
                    2
                }
            };
            // Candidates: all cells at levels strictly below `level`.
            let hi = pool_start_of_level[level];
            if hi == 0 {
                continue;
            }
            let lo = pool_start_of_level[level.saturating_sub(3)];
            // Only this cell's own edges can repeat a driver for it.
            let first = edges.len();
            for _ in 0..fanin {
                // 80 % local (within the previous three levels), 20 % global.
                let pick = if lo < hi && rng.gen_bool(0.8) {
                    rng.gen_range(lo..hi)
                } else {
                    rng.gen_range(0..hi)
                };
                let driver = pool[pick];
                if driver == id || edges[first..].iter().any(|&(d, _)| d == driver) {
                    continue;
                }
                edges.push((driver, id));
                drives[driver.index()] = true;
            }
        }

        // Every driver-capable cell that ended up with no sinks feeds a random
        // later cell so that no cell is dangling (outputs never drive).
        for cell_idx in 0..total_cells {
            let level = level_of[cell_idx];
            if level == out_level {
                continue;
            }
            if drives[cell_idx] {
                continue;
            }
            let lo = pool_start_of_level[level + 1];
            let hi = pool.len();
            if lo >= hi {
                continue;
            }
            let pick = rng.gen_range(lo..hi);
            let sink = pool[pick];
            if sink != CellId::from(cell_idx) {
                edges.push((CellId::from(cell_idx), sink));
            }
        }

        // ----- mixed-size additions ------------------------------------
        // Macro blocks are appended after the complete standard flow, so the
        // RNG stream (and thus the standard-cell prefix) is untouched. Each
        // macro is fed by a few internal drivers and drives a small net of
        // its own; both ends avoid the I/O boundary (inputs cannot sink,
        // outputs cannot drive).
        if let Some(mixed) = cfg.mixed {
            let internal_lo = pool_start_of_level[1];
            let internal_hi = pool_start_of_level[out_level];
            for m in 0..mixed.num_macros {
                let width = rng.gen_range(16..=48u32);
                let id = builder.add_cell(
                    named(&mut name, format_args!("mb{m}")),
                    Cell::macro_block(width, mixed.macro_height, 0.20),
                );
                if internal_lo >= internal_hi {
                    continue;
                }
                let fanin = rng.gen_range(2..=4usize);
                let first = edges.len();
                for _ in 0..fanin {
                    let driver = pool[rng.gen_range(internal_lo..internal_hi)];
                    if !edges[first..].iter().any(|&(d, _)| d == driver) {
                        edges.push((driver, id));
                    }
                }
                let fanout = rng.gen_range(2..=4usize);
                for _ in 0..fanout {
                    let sink = pool[rng.gen_range(internal_lo..pool.len())];
                    edges.push((id, sink));
                }
            }
        }

        drop((level_of, ids_by_level, pool, drives));

        // Build the nets: one net per driving cell, in driver order, with
        // its sinks sorted and deduplicated.
        edges.sort_unstable();
        edges.dedup();
        let mut sinks: Vec<CellId> = Vec::new();
        for group in edges.chunk_by(|a, b| a.0 == b.0) {
            let driver = group[0].0;
            sinks.clear();
            sinks.extend(group.iter().map(|&(_, s)| s));
            // Switching probability: skewed towards low activity with a few
            // hot nets, as in real circuits.
            let base: f64 = rng.gen();
            let sprob = 0.02 + base * base * 0.6;
            builder.add_net(
                named(&mut name, format_args!("net_{}", driver.index())),
                driver,
                &sinks,
                sprob,
            );
        }
        drop(edges);

        builder
            .build()
            .expect("generator must always produce a valid netlist")
    }
}

/// Formats `args` into the reused buffer `buf` and returns it.
fn named<'b>(buf: &'b mut String, args: std::fmt::Arguments<'_>) -> &'b str {
    buf.clear();
    buf.write_fmt(args)
        .expect("formatting into a String cannot fail");
    buf
}

/// Kind of the cell at `cell_idx` given the deterministic layout order used by
/// `generate` (inputs, then internal cells, then outputs). Flip-flops are
/// interleaved with logic, so internal cells are reported as `Logic`; the only
/// distinction that matters for fan-in selection is `Output` vs the rest.
fn builder_cell_kind(cell_idx: usize, cfg: &GeneratorConfig, num_logic: usize) -> CellKind {
    if cell_idx < cfg.num_inputs {
        CellKind::Input
    } else if cell_idx < cfg.num_inputs + num_logic + cfg.num_flip_flops {
        CellKind::Logic
    } else {
        CellKind::Output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::{extract_paths, PathExtractionConfig};

    fn small_cfg(seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            name: "gen_test".into(),
            num_cells: 200,
            num_inputs: 8,
            num_outputs: 10,
            num_flip_flops: 12,
            logic_depth: 8,
            avg_fanin: 2.2,
            seed,
            mixed: None,
        }
    }

    #[test]
    fn generates_requested_cell_count() {
        let nl = CircuitGenerator::new(small_cfg(1)).generate();
        assert_eq!(nl.num_cells(), 200);
        let stats = nl.stats();
        assert_eq!(stats.inputs, 8);
        assert_eq!(stats.outputs, 10);
        assert_eq!(stats.flip_flops, 12);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CircuitGenerator::new(small_cfg(7)).generate();
        let b = CircuitGenerator::new(small_cfg(7)).generate();
        assert_eq!(a.num_nets(), b.num_nets());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = CircuitGenerator::new(small_cfg(1)).generate();
        let b = CircuitGenerator::new(small_cfg(2)).generate();
        let same = a
            .net_ids()
            .zip(b.net_ids())
            .all(|(x, y)| a.sinks(x) == b.sinks(y));
        assert!(!same, "different seeds should give different connectivity");
    }

    #[test]
    fn fanout_statistics_are_realistic() {
        let nl = CircuitGenerator::new(small_cfg(3)).generate();
        let stats = nl.stats();
        assert!(
            stats.avg_fanout > 1.2 && stats.avg_fanout < 4.0,
            "average fanout {} outside the gate-level range",
            stats.avg_fanout
        );
        assert!(stats.nets > nl.num_cells() / 2);
    }

    #[test]
    fn circuits_have_deep_paths() {
        let nl = CircuitGenerator::new(small_cfg(4)).generate();
        let paths = extract_paths(&nl, &PathExtractionConfig::default());
        assert!(!paths.is_empty());
        assert!(
            paths[0].len() >= 3,
            "expected a critical path of depth >= 3, got {}",
            paths[0].len()
        );
    }

    #[test]
    fn every_net_has_sinks_and_valid_probability() {
        let nl = CircuitGenerator::new(small_cfg(5)).generate();
        for net in nl.net_ids() {
            assert!(!nl.sinks(net).is_empty());
            assert!((0.0..=1.0).contains(&nl.net(net).switching_prob));
        }
    }

    #[test]
    fn mixed_spec_appends_macros_and_pins_pads() {
        let mixed = MixedSizeSpec {
            num_macros: 3,
            macro_height: 4,
            pad_ring: true,
        };
        let nl = CircuitGenerator::new(small_cfg(6).with_mixed(mixed)).generate();
        let stats = nl.stats();
        assert_eq!(nl.num_cells(), 200 + 3);
        assert_eq!(stats.macros, 3);
        // Pad ring + macros are the only fixed cells.
        assert_eq!(stats.fixed_cells, stats.inputs + stats.outputs + 3);
        assert!(nl.has_fixed_cells());
        for m in 0..3 {
            let id = nl.cell_by_name(&format!("mb{m}")).unwrap();
            let cell = nl.cell(id);
            assert_eq!(cell.kind, CellKind::Macro);
            assert_eq!(cell.height, 4);
            assert!(cell.fixed);
            // Every macro is wired: it drives a net and is driven by one.
            assert!(!nl.nets_driven_by(id).is_empty());
            assert!(!nl.nets_feeding(id).is_empty());
        }
    }

    #[test]
    fn mixed_standard_cell_prefix_matches_the_pure_circuit() {
        // Same seed: the standard-cell prefix of the mixed circuit must be
        // identical to the pure circuit up to the pad-ring `fixed` flags.
        let pure = CircuitGenerator::new(small_cfg(9)).generate();
        let mixed = CircuitGenerator::new(small_cfg(9).with_mixed(MixedSizeSpec {
            num_macros: 2,
            macro_height: 3,
            pad_ring: true,
        }))
        .generate();
        for (id, (a, b)) in pure.cell_ids().zip(pure.cells().iter().zip(mixed.cells())) {
            assert_eq!(pure.cell_name(id), mixed.cell_name(id));
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.width, b.width);
            assert_eq!(a.switching_delay, b.switching_delay);
        }
        // Nets of the pure circuit are a prefix-preserving subset: every
        // standard net survives, possibly with macro sinks appended.
        assert!(mixed.num_nets() >= pure.num_nets());
    }

    #[test]
    #[should_panic(expected = "configuration does not leave room")]
    fn rejects_impossible_configuration() {
        let cfg = GeneratorConfig {
            num_cells: 10,
            num_inputs: 5,
            num_outputs: 5,
            num_flip_flops: 5,
            ..small_cfg(0)
        };
        CircuitGenerator::new(cfg).generate();
    }
}
