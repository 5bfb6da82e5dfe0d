//! Per-cell multiobjective goodness (the SimE Evaluation step).
//!
//! SimE measures how well each element is placed with a goodness
//! `gᵢ = Oᵢ / Cᵢ ∈ [0, 1]`, where `Oᵢ` is an estimate of the optimal cost of
//! element `i` and `Cᵢ` its actual cost (Section 3). Because the placement is
//! multiobjective, each cell gets one goodness per objective and the values
//! are folded with the same fuzzy AND used for the solution-level quality:
//!
//! * **wirelength goodness** — ratio of the lower bound to the actual summed
//!   length of the nets incident to the cell. Computing the actual length
//!   requires the positions of all fan-in cells, which is exactly the data
//!   dependency that complicates the paper's Type I partitioning.
//! * **power goodness** — same ratio with switching-weighted lengths.
//! * **delay goodness** — for cells on stored critical paths, the ratio of
//!   the best achievable delay of those paths to their current delay; cells
//!   on no stored path have delay goodness 1.

use crate::cost::{CostEvaluator, Objectives};
use crate::layout::Placement;
use vlsi_netlist::CellId;

/// Per-objective goodness of one cell plus the combined scalar value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoodnessVector {
    /// Wirelength goodness in [0, 1].
    pub wirelength: f64,
    /// Power goodness in [0, 1].
    pub power: f64,
    /// Delay goodness in [0, 1] (1 when the cell is on no stored path or the
    /// delay objective is disabled).
    pub delay: f64,
    /// Fuzzy-combined goodness in [0, 1]; this is the value SimE selection
    /// uses.
    pub combined: f64,
}

/// Computes per-cell goodness values from a [`CostEvaluator`].
#[derive(Debug, Clone)]
pub struct GoodnessEvaluator {
    evaluator: CostEvaluator,
    /// For each cell, the indices of stored paths that pass through it.
    cell_paths: Vec<Vec<u32>>,
}

impl GoodnessEvaluator {
    /// Builds a goodness evaluator sharing the given cost evaluator.
    pub fn new(evaluator: CostEvaluator) -> Self {
        let netlist = evaluator.netlist().clone();
        let mut cell_paths = vec![Vec::new(); netlist.num_cells()];
        for (pi, path) in evaluator.paths().iter().enumerate() {
            for &c in &path.cells {
                cell_paths[c.index()].push(pi as u32);
            }
        }
        GoodnessEvaluator {
            evaluator,
            cell_paths,
        }
    }

    /// The underlying cost evaluator.
    pub fn evaluator(&self) -> &CostEvaluator {
        &self.evaluator
    }

    /// Goodness of a single cell, given precomputed per-net lengths for the
    /// current placement (so that evaluating all cells costs one pass over
    /// the pins instead of many).
    pub fn cell_goodness_from_lengths(&self, cell: CellId, net_lengths: &[f64]) -> GoodnessVector {
        let netlist = self.evaluator.netlist();
        let bounds = self.evaluator.bounds();

        let mut wire_cost = 0.0;
        let mut power_cost = 0.0;
        for &net in netlist.nets_of_cell(cell) {
            let len = net_lengths[net.index()];
            wire_cost += len;
            power_cost += len * netlist.net(net).switching_prob;
        }
        let wire_lb = bounds.cell_wire_lower[cell.index()];
        let power_lb = bounds.cell_power_lower[cell.index()];
        let wirelength = ratio_goodness(wire_lb, wire_cost);
        let power = ratio_goodness(power_lb, power_cost);

        let delay = if self.evaluator.objectives().includes_delay()
            && !self.cell_paths[cell.index()].is_empty()
        {
            let mut worst = 1.0f64;
            for &pi in &self.cell_paths[cell.index()] {
                let path = &self.evaluator.paths()[pi as usize];
                let actual = self.evaluator.path_delay_from_lengths(path, net_lengths);
                let lb = self.evaluator.bounds().path_lower[pi as usize];
                worst = worst.min(ratio_goodness(lb, actual));
            }
            worst
        } else {
            1.0
        };

        let combined = self.combine(wirelength, power, delay);
        GoodnessVector {
            wirelength,
            power,
            delay,
            combined,
        }
    }

    /// Goodness of a single cell under `placement` (computes the incident net
    /// lengths on the fly; prefer the `_from_lengths` variant in loops).
    pub fn cell_goodness(&self, placement: &Placement, cell: CellId) -> GoodnessVector {
        let netlist = self.evaluator.netlist();
        // Only the incident nets and the paths through the cell are needed;
        // compute just those lengths into a sparse buffer.
        let mut lengths = vec![0.0; netlist.num_nets()];
        for &net in netlist.nets_of_cell(cell) {
            lengths[net.index()] = self.evaluator.net_length(placement, net);
        }
        for &pi in &self.cell_paths[cell.index()] {
            for &net in &self.evaluator.paths()[pi as usize].nets {
                lengths[net.index()] = self.evaluator.net_length(placement, net);
            }
        }
        self.cell_goodness_from_lengths(cell, &lengths)
    }

    /// Combined goodness of every cell under `placement`.
    pub fn all_goodness(&self, placement: &Placement) -> Vec<f64> {
        let lengths = self.evaluator.net_lengths(placement);
        self.all_goodness_from_lengths(&lengths)
    }

    /// Combined goodness of every cell from precomputed net lengths.
    pub fn all_goodness_from_lengths(&self, net_lengths: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.all_goodness_into(net_lengths, &mut out);
        out
    }

    /// Combined goodness of every cell from precomputed net lengths, written
    /// into a caller-owned buffer (the allocation-free variant used by the
    /// engine's per-iteration scratch space).
    pub fn all_goodness_into(&self, net_lengths: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.evaluator
                .netlist()
                .cell_ids()
                .map(|c| self.cell_goodness_from_lengths(c, net_lengths).combined),
        );
    }

    /// Average combined goodness of a goodness vector — SimE's convergence
    /// indicator.
    pub fn average(goodness: &[f64]) -> f64 {
        if goodness.is_empty() {
            0.0
        } else {
            goodness.iter().sum::<f64>() / goodness.len() as f64
        }
    }

    /// Fuzzy combination of the per-objective goodness values, consistent
    /// with the solution-level aggregation.
    fn combine(&self, wirelength: f64, power: f64, delay: f64) -> f64 {
        let fuzzy = self.evaluator.fuzzy();
        match self.evaluator.objectives() {
            Objectives::WirelengthPower => fuzzy.aggregate(&[wirelength, power]),
            Objectives::WirelengthPowerDelay => fuzzy.aggregate(&[wirelength, power, delay]),
        }
    }
}

/// `O / C` clamped to [0, 1]; 1 when the actual cost is zero (isolated cell).
fn ratio_goodness(lower_bound: f64, actual: f64) -> f64 {
    if actual <= 0.0 {
        1.0
    } else {
        (lower_bound / actual).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Objectives;
    use std::sync::Arc;
    use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};
    use vlsi_netlist::Netlist;

    fn setup(objectives: Objectives) -> (Arc<Netlist>, GoodnessEvaluator, Placement) {
        let nl = Arc::new(
            CircuitGenerator::new(GeneratorConfig::sized("goodness_test", 160, 33)).generate(),
        );
        let eval = CostEvaluator::new(Arc::clone(&nl), objectives);
        let placement = Placement::round_robin(&nl, 8);
        (nl, GoodnessEvaluator::new(eval), placement)
    }

    #[test]
    fn goodness_values_are_in_unit_interval() {
        let (nl, ge, placement) = setup(Objectives::WirelengthPowerDelay);
        let lengths = ge.evaluator().net_lengths(&placement);
        for cell in nl.cell_ids() {
            let g = ge.cell_goodness_from_lengths(cell, &lengths);
            for v in [g.wirelength, g.power, g.delay, g.combined] {
                assert!((0.0..=1.0).contains(&v), "goodness {v} out of range");
            }
        }
    }

    #[test]
    fn all_goodness_matches_per_cell_computation() {
        let (nl, ge, placement) = setup(Objectives::WirelengthPower);
        let all = ge.all_goodness(&placement);
        assert_eq!(all.len(), nl.num_cells());
        let lengths = ge.evaluator().net_lengths(&placement);
        for cell in nl.cell_ids().take(20) {
            let g = ge.cell_goodness_from_lengths(cell, &lengths);
            assert!((all[cell.index()] - g.combined).abs() < 1e-12);
        }
    }

    #[test]
    fn sparse_cell_goodness_agrees_with_dense() {
        let (nl, ge, placement) = setup(Objectives::WirelengthPowerDelay);
        let lengths = ge.evaluator().net_lengths(&placement);
        for cell in nl.cell_ids().take(25) {
            let dense = ge.cell_goodness_from_lengths(cell, &lengths);
            let sparse = ge.cell_goodness(&placement, cell);
            assert!((dense.wirelength - sparse.wirelength).abs() < 1e-12);
            assert!((dense.power - sparse.power).abs() < 1e-12);
            assert!((dense.delay - sparse.delay).abs() < 1e-12);
        }
    }

    #[test]
    fn delay_goodness_is_one_without_delay_objective() {
        let (nl, ge, placement) = setup(Objectives::WirelengthPower);
        let lengths = ge.evaluator().net_lengths(&placement);
        for cell in nl.cell_ids().take(25) {
            assert_eq!(ge.cell_goodness_from_lengths(cell, &lengths).delay, 1.0);
        }
    }

    #[test]
    fn average_goodness_behaves() {
        assert_eq!(GoodnessEvaluator::average(&[]), 0.0);
        assert!((GoodnessEvaluator::average(&[0.25, 0.75]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn improving_a_cells_nets_improves_its_goodness() {
        let (nl, ge, placement) = setup(Objectives::WirelengthPower);
        // Take a logic cell and compare its goodness in the current placement
        // vs a fake length vector where its incident nets are at their bound.
        let cell = nl
            .cell_ids()
            .find(|&c| nl.nets_of_cell(c).len() >= 2)
            .unwrap();
        let lengths = ge.evaluator().net_lengths(&placement);
        let actual = ge.cell_goodness_from_lengths(cell, &lengths);
        let mut ideal = lengths.clone();
        for &net in nl.nets_of_cell(cell) {
            ideal[net.index()] = ge.evaluator().bounds().net_lower[net.index()];
        }
        let better = ge.cell_goodness_from_lengths(cell, &ideal);
        assert!(better.combined >= actual.combined);
        assert!((better.wirelength - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_goodness_edge_cases() {
        assert_eq!(ratio_goodness(10.0, 0.0), 1.0);
        assert_eq!(ratio_goodness(10.0, 5.0), 1.0);
        assert!((ratio_goodness(5.0, 10.0) - 0.5).abs() < 1e-12);
        assert_eq!(ratio_goodness(0.0, 10.0), 0.0);
    }
}
