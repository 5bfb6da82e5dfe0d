//! The paper's benchmark circuits, regenerated synthetically, plus an
//! extended tier of larger ISCAS-class circuits for scaling studies.
//!
//! The paper reports results on five ISCAS-89 circuits. The table below lists
//! the published cell counts (Table 1 of the paper) and the I/O / flip-flop
//! counts of the original ISCAS-89 netlists, which the synthetic stand-ins
//! reproduce:
//!
//! | Circuit | Cells (paper) | Inputs | Outputs | Flip-flops |
//! |---------|---------------|--------|---------|------------|
//! | s1196   | 561           | 14     | 14      | 18         |
//! | s1238   | 540           | 14     | 14      | 18         |
//! | s1488   | 667           | 8      | 19      | 6          |
//! | s1494   | 661           | 8      | 19      | 6          |
//! | s3330   | 1561          | 40     | 73      | 132        |
//!
//! The [`ExtendedCircuit`] tier goes beyond the paper: four larger ISCAS-89
//! circuits (the next size steps of the same benchmark family), regenerated
//! with the published ISCAS-89 gate/I/O/flip-flop counts and the same
//! connectivity statistics the paper-tier stand-ins use:
//!
//! | Circuit | Cells  | Inputs | Outputs | Flip-flops | Rows |
//! |---------|--------|--------|---------|------------|------|
//! | s5378   | 2779   | 35     | 49      | 179        | 22   |
//! | s9234   | 5597   | 36     | 39      | 211        | 32   |
//! | s13207  | 8589   | 62     | 152     | 638        | 40   |
//! | s15850  | 10306  | 77     | 150     | 534        | 44   |
//!
//! Row counts follow the same near-square aspect-ratio rule as the paper
//! tier (rows ≈ 0.43·√cells, rounded to an even number), so layouts keep the
//! standard-cell shape as the circuits grow.
//!
//! Because the real netlists cannot be redistributed, [`paper_circuit`] and
//! [`extended_circuit`] generate deterministic synthetic circuits with these
//! exact counts and ISCAS-like connectivity statistics (see
//! [`crate::generator`]). The seed is derived from the circuit name, so the
//! whole workspace always sees the same circuits. [`SuiteCircuit`] is the
//! uniform handle over both tiers used by the scenario-matrix runner, and
//! every suite circuit can be dumped to / reloaded from disk through
//! [`crate::bookshelf`] instead of being regenerated.

use crate::generator::{CircuitGenerator, GeneratorConfig};
use crate::Netlist;
use serde::{Deserialize, Serialize};

/// Derives the deterministic generator seed from a circuit name (shared by
/// both suite tiers so a circuit's identity is exactly its name).
fn name_seed(name: &str) -> u64 {
    name.bytes().fold(0xC0FFEE_u64, |acc, b| {
        acc.wrapping_mul(131).wrapping_add(b as u64)
    })
}

/// Identifier of one of the five circuits used in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PaperCircuit {
    /// ISCAS-89 s1196 — 561 cells.
    S1196,
    /// ISCAS-89 s1238 — 540 cells.
    S1238,
    /// ISCAS-89 s1488 — 667 cells.
    S1488,
    /// ISCAS-89 s1494 — 661 cells.
    S1494,
    /// ISCAS-89 s3330 — 1561 cells.
    S3330,
}

impl PaperCircuit {
    /// All five circuits, in the order they appear in Table 1.
    pub const ALL: [PaperCircuit; 5] = [
        PaperCircuit::S1196,
        PaperCircuit::S1488,
        PaperCircuit::S1494,
        PaperCircuit::S1238,
        PaperCircuit::S3330,
    ];

    /// Circuit name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            PaperCircuit::S1196 => "s1196",
            PaperCircuit::S1238 => "s1238",
            PaperCircuit::S1488 => "s1488",
            PaperCircuit::S1494 => "s1494",
            PaperCircuit::S3330 => "s3330",
        }
    }

    /// Cell count published in Table 1 of the paper.
    pub fn cell_count(self) -> usize {
        match self {
            PaperCircuit::S1196 => 561,
            PaperCircuit::S1238 => 540,
            PaperCircuit::S1488 => 667,
            PaperCircuit::S1494 => 661,
            PaperCircuit::S3330 => 1561,
        }
    }

    /// Number of placement rows used for this circuit throughout the
    /// workspace. The paper does not publish row counts; we use the usual
    /// near-square aspect-ratio rule for standard-cell layouts, which also
    /// leaves enough rows for the Type II row decomposition at up to five
    /// processors.
    pub fn num_rows(self) -> usize {
        match self {
            PaperCircuit::S1196 | PaperCircuit::S1238 => 10,
            PaperCircuit::S1488 | PaperCircuit::S1494 => 11,
            PaperCircuit::S3330 => 16,
        }
    }

    /// (inputs, outputs, flip-flops) of the original ISCAS-89 circuit.
    pub fn io_counts(self) -> (usize, usize, usize) {
        match self {
            PaperCircuit::S1196 => (14, 14, 18),
            PaperCircuit::S1238 => (14, 14, 18),
            PaperCircuit::S1488 => (8, 19, 6),
            PaperCircuit::S1494 => (8, 19, 6),
            PaperCircuit::S3330 => (40, 73, 132),
        }
    }

    /// Parses a paper circuit from its table name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|c| c.name() == name)
    }

    /// Generator configuration used for the synthetic stand-in.
    pub fn generator_config(self) -> GeneratorConfig {
        let (inputs, outputs, ffs) = self.io_counts();
        // Seed derived from the name so every build sees identical circuits.
        GeneratorConfig {
            name: self.name().to_string(),
            num_cells: self.cell_count(),
            num_inputs: inputs,
            num_outputs: outputs,
            num_flip_flops: ffs,
            logic_depth: if self == PaperCircuit::S3330 { 16 } else { 12 },
            avg_fanin: 2.3,
            seed: name_seed(self.name()),
            mixed: None,
        }
    }
}

impl std::fmt::Display for PaperCircuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Generates the synthetic stand-in for one of the paper's circuits.
pub fn paper_circuit(circuit: PaperCircuit) -> Netlist {
    CircuitGenerator::new(circuit.generator_config()).generate()
}

/// Identifier of one of the extended-tier ISCAS-89 circuits (larger than any
/// circuit in the paper's tables; see the [module docs](self) for the size
/// table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExtendedCircuit {
    /// ISCAS-89 s5378 — 2779 cells.
    S5378,
    /// ISCAS-89 s9234 — 5597 cells.
    S9234,
    /// ISCAS-89 s13207 — 8589 cells.
    S13207,
    /// ISCAS-89 s15850 — 10306 cells.
    S15850,
}

impl ExtendedCircuit {
    /// All extended circuits, smallest first.
    pub const ALL: [ExtendedCircuit; 4] = [
        ExtendedCircuit::S5378,
        ExtendedCircuit::S9234,
        ExtendedCircuit::S13207,
        ExtendedCircuit::S15850,
    ];

    /// Circuit name (the ISCAS-89 benchmark name).
    pub fn name(self) -> &'static str {
        match self {
            ExtendedCircuit::S5378 => "s5378",
            ExtendedCircuit::S9234 => "s9234",
            ExtendedCircuit::S13207 => "s13207",
            ExtendedCircuit::S15850 => "s15850",
        }
    }

    /// Published ISCAS-89 cell count.
    pub fn cell_count(self) -> usize {
        match self {
            ExtendedCircuit::S5378 => 2779,
            ExtendedCircuit::S9234 => 5597,
            ExtendedCircuit::S13207 => 8589,
            ExtendedCircuit::S15850 => 10306,
        }
    }

    /// Number of placement rows (near-square aspect-ratio rule, even counts
    /// so the Type II strided pattern stays balanced).
    pub fn num_rows(self) -> usize {
        match self {
            ExtendedCircuit::S5378 => 22,
            ExtendedCircuit::S9234 => 32,
            ExtendedCircuit::S13207 => 40,
            ExtendedCircuit::S15850 => 44,
        }
    }

    /// (inputs, outputs, flip-flops) of the original ISCAS-89 circuit.
    pub fn io_counts(self) -> (usize, usize, usize) {
        match self {
            ExtendedCircuit::S5378 => (35, 49, 179),
            ExtendedCircuit::S9234 => (36, 39, 211),
            ExtendedCircuit::S13207 => (62, 152, 638),
            ExtendedCircuit::S15850 => (77, 150, 534),
        }
    }

    /// Parses an extended circuit from its benchmark name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|c| c.name() == name)
    }

    /// Generator configuration used for the synthetic stand-in. Deeper logic
    /// than the paper tier: the original circuits' combinational depth grows
    /// with size, and deeper levelisation keeps the critical paths long
    /// relative to the layout.
    pub fn generator_config(self) -> GeneratorConfig {
        let (inputs, outputs, ffs) = self.io_counts();
        let logic_depth = match self {
            ExtendedCircuit::S5378 => 20,
            ExtendedCircuit::S9234 => 24,
            ExtendedCircuit::S13207 => 28,
            ExtendedCircuit::S15850 => 30,
        };
        GeneratorConfig {
            name: self.name().to_string(),
            num_cells: self.cell_count(),
            num_inputs: inputs,
            num_outputs: outputs,
            num_flip_flops: ffs,
            logic_depth,
            avg_fanin: 2.3,
            seed: name_seed(self.name()),
            mixed: None,
        }
    }
}

impl std::fmt::Display for ExtendedCircuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Generates the synthetic stand-in for one extended-tier circuit.
pub fn extended_circuit(circuit: ExtendedCircuit) -> Netlist {
    CircuitGenerator::new(circuit.generator_config()).generate()
}

/// Identifier of one of the mixed-size tier circuits: synthetic circuits
/// with a fixed pad ring and multi-row macro blocks on top of the standard
/// cells (see [`crate::generator::MixedSizeSpec`]). This tier exercises the
/// blocked-span row packing and the full-layout Bookshelf interchange
/// (`.pl`/`.scl`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MixedCircuit {
    /// ~600 standard cells, 2 macros (3 rows tall), pad ring. 12 rows.
    Mix600,
    /// ~2000 standard cells, 4 macros (4 rows tall), pad ring. 20 rows.
    Mix2000,
}

impl MixedCircuit {
    /// Both mixed-tier circuits, smallest first.
    pub const ALL: [MixedCircuit; 2] = [MixedCircuit::Mix600, MixedCircuit::Mix2000];

    /// Circuit name.
    pub fn name(self) -> &'static str {
        match self {
            MixedCircuit::Mix600 => "mix600",
            MixedCircuit::Mix2000 => "mix2000",
        }
    }

    /// Total cell count: standard cells plus the appended macro blocks.
    pub fn cell_count(self) -> usize {
        let cfg = self.generator_config();
        cfg.num_cells + cfg.mixed.map_or(0, |m| m.num_macros)
    }

    /// Number of placement rows.
    pub fn num_rows(self) -> usize {
        match self {
            MixedCircuit::Mix600 => 12,
            MixedCircuit::Mix2000 => 20,
        }
    }

    /// The mixed-size additions of this circuit.
    pub fn mixed_spec(self) -> crate::generator::MixedSizeSpec {
        match self {
            MixedCircuit::Mix600 => crate::generator::MixedSizeSpec {
                num_macros: 2,
                macro_height: 3,
                pad_ring: true,
            },
            MixedCircuit::Mix2000 => crate::generator::MixedSizeSpec {
                num_macros: 4,
                macro_height: 4,
                pad_ring: true,
            },
        }
    }

    /// Parses a mixed circuit from its name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|c| c.name() == name)
    }

    /// Generator configuration: paper-tier-like proportions, plus the
    /// mixed-size spec.
    pub fn generator_config(self) -> GeneratorConfig {
        let (num_cells, inputs, outputs, ffs, depth) = match self {
            MixedCircuit::Mix600 => (600, 16, 16, 24, 12),
            MixedCircuit::Mix2000 => (2000, 24, 28, 80, 16),
        };
        GeneratorConfig {
            name: self.name().to_string(),
            num_cells,
            num_inputs: inputs,
            num_outputs: outputs,
            num_flip_flops: ffs,
            logic_depth: depth,
            avg_fanin: 2.3,
            seed: name_seed(self.name()),
            mixed: Some(self.mixed_spec()),
        }
    }
}

impl std::fmt::Display for MixedCircuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Generates the synthetic stand-in for one mixed-tier circuit.
pub fn mixed_circuit(circuit: MixedCircuit) -> Netlist {
    CircuitGenerator::new(circuit.generator_config()).generate()
}

/// Uniform handle over the three benchmark tiers: the paper's five circuits,
/// the extended scaling tier and the mixed-size tier. This is the circuit
/// axis of the scenario matrix — every suite circuit resolves from its name,
/// generates deterministically, and carries its own row count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SuiteCircuit {
    /// One of the paper's five Table-1 circuits.
    Paper(PaperCircuit),
    /// One of the extended-tier circuits.
    Extended(ExtendedCircuit),
    /// One of the mixed-size tier circuits (pad ring + macros).
    Mixed(MixedCircuit),
}

impl SuiteCircuit {
    /// All eleven suite circuits: the paper tier in Table-1 order, the
    /// extended tier smallest first, then the mixed-size tier.
    pub const ALL: [SuiteCircuit; 11] = [
        SuiteCircuit::Paper(PaperCircuit::S1196),
        SuiteCircuit::Paper(PaperCircuit::S1488),
        SuiteCircuit::Paper(PaperCircuit::S1494),
        SuiteCircuit::Paper(PaperCircuit::S1238),
        SuiteCircuit::Paper(PaperCircuit::S3330),
        SuiteCircuit::Extended(ExtendedCircuit::S5378),
        SuiteCircuit::Extended(ExtendedCircuit::S9234),
        SuiteCircuit::Extended(ExtendedCircuit::S13207),
        SuiteCircuit::Extended(ExtendedCircuit::S15850),
        SuiteCircuit::Mixed(MixedCircuit::Mix600),
        SuiteCircuit::Mixed(MixedCircuit::Mix2000),
    ];

    /// Circuit name.
    pub fn name(self) -> &'static str {
        match self {
            SuiteCircuit::Paper(c) => c.name(),
            SuiteCircuit::Extended(c) => c.name(),
            SuiteCircuit::Mixed(c) => c.name(),
        }
    }

    /// Published (or, for the synthetic mixed tier, configured) cell count.
    pub fn cell_count(self) -> usize {
        match self {
            SuiteCircuit::Paper(c) => c.cell_count(),
            SuiteCircuit::Extended(c) => c.cell_count(),
            SuiteCircuit::Mixed(c) => c.cell_count(),
        }
    }

    /// Number of placement rows used throughout the workspace.
    pub fn num_rows(self) -> usize {
        match self {
            SuiteCircuit::Paper(c) => c.num_rows(),
            SuiteCircuit::Extended(c) => c.num_rows(),
            SuiteCircuit::Mixed(c) => c.num_rows(),
        }
    }

    /// `true` for extended-tier circuits.
    pub fn is_extended(self) -> bool {
        matches!(self, SuiteCircuit::Extended(_))
    }

    /// `true` for mixed-size tier circuits (fixed pads + macros).
    pub fn is_mixed(self) -> bool {
        matches!(self, SuiteCircuit::Mixed(_))
    }

    /// Resolves a suite circuit from its name, searching all tiers.
    pub fn from_name(name: &str) -> Option<Self> {
        PaperCircuit::from_name(name)
            .map(SuiteCircuit::Paper)
            .or_else(|| ExtendedCircuit::from_name(name).map(SuiteCircuit::Extended))
            .or_else(|| MixedCircuit::from_name(name).map(SuiteCircuit::Mixed))
    }

    /// Generator configuration for the synthetic stand-in.
    pub fn generator_config(self) -> GeneratorConfig {
        match self {
            SuiteCircuit::Paper(c) => c.generator_config(),
            SuiteCircuit::Extended(c) => c.generator_config(),
            SuiteCircuit::Mixed(c) => c.generator_config(),
        }
    }

    /// Generates the circuit.
    pub fn generate(self) -> Netlist {
        CircuitGenerator::new(self.generator_config()).generate()
    }
}

impl std::fmt::Display for SuiteCircuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_counts_match_the_paper() {
        for c in PaperCircuit::ALL {
            let nl = paper_circuit(c);
            assert_eq!(nl.num_cells(), c.cell_count(), "circuit {c}");
            assert_eq!(nl.name(), c.name());
        }
    }

    #[test]
    fn io_counts_match_iscas89() {
        for c in PaperCircuit::ALL {
            let nl = paper_circuit(c);
            let stats = nl.stats();
            let (i, o, ff) = c.io_counts();
            assert_eq!(stats.inputs, i, "{c} inputs");
            assert_eq!(stats.outputs, o, "{c} outputs");
            assert_eq!(stats.flip_flops, ff, "{c} flip-flops");
        }
    }

    #[test]
    fn suite_is_in_table_order() {
        let names: Vec<_> = PaperCircuit::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["s1196", "s1488", "s1494", "s1238", "s3330"]);
    }

    #[test]
    fn name_roundtrip() {
        for c in PaperCircuit::ALL {
            assert_eq!(PaperCircuit::from_name(c.name()), Some(c));
        }
        assert_eq!(PaperCircuit::from_name("s9999"), None);
    }

    #[test]
    fn regeneration_is_stable() {
        let a = paper_circuit(PaperCircuit::S1196);
        let b = paper_circuit(PaperCircuit::S1196);
        assert_eq!(a.num_nets(), b.num_nets());
        assert_eq!(a.nets()[0], b.nets()[0]);
    }

    #[test]
    fn rows_leave_room_for_five_partitions() {
        for c in PaperCircuit::ALL {
            assert!(
                c.num_rows() >= 10,
                "{c} must have at least 2 rows per processor at p=5"
            );
        }
        for c in ExtendedCircuit::ALL {
            assert!(
                c.num_rows() >= 10,
                "{c} must have at least 2 rows per processor at p=5"
            );
        }
    }

    #[test]
    fn extended_cell_and_io_counts_match_iscas89() {
        // Only the two smallest extended circuits are generated here to keep
        // the unit-test budget small; the scenario-matrix runner exercises
        // the full tier.
        for c in [ExtendedCircuit::S5378, ExtendedCircuit::S9234] {
            let nl = extended_circuit(c);
            assert_eq!(nl.num_cells(), c.cell_count(), "circuit {c}");
            assert_eq!(nl.name(), c.name());
            let stats = nl.stats();
            let (i, o, ff) = c.io_counts();
            assert_eq!(stats.inputs, i, "{c} inputs");
            assert_eq!(stats.outputs, o, "{c} outputs");
            assert_eq!(stats.flip_flops, ff, "{c} flip-flops");
            assert!(
                stats.avg_fanout > 1.2 && stats.avg_fanout < 4.0,
                "{c} average fanout {} outside the gate-level range",
                stats.avg_fanout
            );
        }
    }

    #[test]
    fn suite_circuit_resolves_all_tiers_by_name() {
        assert_eq!(SuiteCircuit::ALL.len(), 11);
        for c in SuiteCircuit::ALL {
            assert_eq!(SuiteCircuit::from_name(c.name()), Some(c));
            // cell_count is the *generated* count: standard cells plus any
            // appended mixed-tier macros.
            let cfg = c.generator_config();
            let macros = cfg.mixed.map_or(0, |m| m.num_macros);
            assert_eq!(cfg.num_cells + macros, c.cell_count());
        }
        assert_eq!(
            SuiteCircuit::from_name("s1196"),
            Some(SuiteCircuit::Paper(PaperCircuit::S1196))
        );
        assert_eq!(
            SuiteCircuit::from_name("s13207"),
            Some(SuiteCircuit::Extended(ExtendedCircuit::S13207))
        );
        assert!(SuiteCircuit::from_name("s9999").is_none());
        assert!(SuiteCircuit::Extended(ExtendedCircuit::S5378).is_extended());
        assert!(!SuiteCircuit::Paper(PaperCircuit::S3330).is_extended());
    }

    #[test]
    fn extended_rows_follow_the_near_square_rule() {
        for c in ExtendedCircuit::ALL {
            let near_square = 0.43 * (c.cell_count() as f64).sqrt();
            let rows = c.num_rows() as f64;
            assert!(
                (rows - near_square).abs() < 4.0,
                "{c}: rows {rows} too far from the near-square rule {near_square:.1}"
            );
            assert_eq!(c.num_rows() % 2, 0, "{c} row count must be even");
        }
    }
}
