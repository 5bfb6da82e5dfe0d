//! Per-cell multiobjective goodness (the SimE Evaluation step).
//!
//! SimE measures how well each element is placed with a goodness
//! `gᵢ = Oᵢ / Cᵢ ∈ [0, 1]`, where `Oᵢ` is an estimate of the optimal cost of
//! element `i` and `Cᵢ` its actual cost (Section 3). Because the placement is
//! multiobjective, each cell gets one goodness per objective and the values
//! are folded with the same fuzzy AND used for the solution-level quality:
//!
//! * **wirelength goodness** — `Oᵢ` is the summed length of the cell's
//!   incident nets with the cell moved to its *optimal position*, the median
//!   of the other pins of those nets (the optimum the windowed allocation
//!   centres its window on); `Cᵢ` is their summed length at the cell's actual
//!   position. A cell at its own optimum scores 1 however spread out its
//!   neighbours are, so the goodness measures how well the cell sits
//!   *relative to the rest of the placement*, and the biasless selection set
//!   shrinks as the placement converges.
//! * **power goodness** — same ratio with switching-weighted lengths.
//! * **delay goodness** — for cells on stored critical paths, the ratio of
//!   the best achievable delay of those paths (their packed lower bound) to
//!   their current delay; cells on no stored path have delay goodness 1.
//!
//! `Oᵢ` reads only the positions of the *other* pins of the cell's incident
//! nets and `Cᵢ` only those nets' lengths, so a cell's wirelength and power
//! goodness can change only when an incident net has a pin that moved —
//! exactly the nets an incremental length cache re-prices.
//!
//! Two implementations produce bit-identical values: the reference oracle
//! ([`GoodnessEvaluator::cell_goodness`], [`GoodnessEvaluator::all_goodness`]:
//! sort-based median, [`CostEvaluator::cell_cost_at`]) and the engine's pass
//! on the kernel ([`GoodnessEvaluator::all_goodness_with`]:
//! [`OptimumScorer::optimal_and_actual`], one walk per incident net that
//! sums `Cᵢ` and prices `Oᵢ` at the other pins' median without sorting).

use crate::cost::{CellCost, CostEvaluator, Objectives};
use crate::kernel::OptimumScorer;
use crate::layout::Placement;
use std::sync::Arc;
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

/// Reusable buffers of the kernel goodness pass. One instance per worker
/// thread.
#[derive(Debug, Clone, Default)]
pub struct GoodnessScratch {
    scorer: OptimumScorer,
    /// Per stored path its delay under the pass's net lengths, computed once
    /// per [`GoodnessEvaluator::all_goodness_with`] pass.
    path_delays: Vec<f64>,
}

/// Computes per-cell goodness values from a [`CostEvaluator`].
#[derive(Debug, Clone)]
pub struct GoodnessEvaluator {
    evaluator: CostEvaluator,
    /// For each cell, the indices of stored paths that pass through it.
    /// Shared by every clone, like the evaluator's tables.
    cell_paths: Arc<Vec<Vec<u32>>>,
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
            cell_paths: Arc::new(cell_paths),
        }
    }

    /// The underlying cost evaluator.
    pub fn evaluator(&self) -> &CostEvaluator {
        &self.evaluator
    }

    /// For each cell, the indices of the stored paths through it. Every
    /// clone of this evaluator shares the one table.
    pub fn cell_paths(&self) -> &Arc<Vec<Vec<u32>>> {
        &self.cell_paths
    }

    /// Goodness of `cell` given its optimal incident-net cost `optimal`
    /// (`Oᵢ`) and per-net lengths of the current placement (`Cᵢ` is summed
    /// from the incident entries; delay goodness reads the lengths of the
    /// critical paths through the cell).
    pub fn goodness_from_lengths(
        &self,
        cell: CellId,
        optimal: &CellCost,
        net_lengths: &[f64],
    ) -> GoodnessVector {
        let netlist = self.evaluator.netlist();
        let mut actual = CellCost::default();
        for &net in netlist.nets_of_cell(cell) {
            let len = net_lengths[net.index()];
            actual.wirelength += len;
            actual.power += len * netlist.net(net).switching_prob;
        }
        self.goodness_from_costs(cell, optimal, &actual, |pi| {
            self.evaluator.path_delay_from_lengths(pi, net_lengths)
        })
    }

    /// [`GoodnessEvaluator::goodness_from_lengths`] with the actual
    /// incident-net cost `actual` (`Cᵢ`) already summed and the current
    /// delay of each stored path through the cell given by `path_delay`.
    fn goodness_from_costs(
        &self,
        cell: CellId,
        optimal: &CellCost,
        actual: &CellCost,
        path_delay: impl Fn(usize) -> f64,
    ) -> GoodnessVector {
        let wirelength = ratio_goodness(optimal.wirelength, actual.wirelength);
        let power = ratio_goodness(optimal.power, actual.power);

        let delay = if self.evaluator.objectives().includes_delay()
            && !self.cell_paths[cell.index()].is_empty()
        {
            let mut worst = 1.0f64;
            for &pi in &self.cell_paths[cell.index()] {
                let lb = self.evaluator.bounds().path_lower[pi as usize];
                worst = worst.min(ratio_goodness(lb, path_delay(pi as usize)));
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

    /// Reference `Oᵢ`: the incident-net cost of `cell` at the median of the
    /// other pins' positions, found by gathering and sorting them and priced
    /// by [`CostEvaluator::cell_cost_at`]. Zero when the cell connects to no
    /// other pin.
    pub fn optimal_cost(&self, placement: &Placement, cell: CellId) -> CellCost {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for &net in self.evaluator.netlist().nets_of_cell(cell) {
            for &other in self.evaluator.net_cells(net) {
                if other != cell {
                    let (x, y) = placement.position(other);
                    xs.push(x);
                    ys.push(y);
                }
            }
        }
        if xs.is_empty() {
            return CellCost::default();
        }
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        ys.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = (xs[xs.len() / 2], ys[ys.len() / 2]);
        self.evaluator.cell_cost_at(placement, cell, median)
    }

    /// Goodness of a single cell under `placement` — the reference oracle:
    /// computes the incident net lengths and `Oᵢ` from scratch.
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
        let optimal = self.optimal_cost(placement, cell);
        self.goodness_from_lengths(cell, &optimal, &lengths)
    }

    /// Combined goodness of every cell under `placement` — the reference
    /// oracle of [`GoodnessEvaluator::all_goodness_with`].
    pub fn all_goodness(&self, placement: &Placement) -> Vec<f64> {
        let lengths = self.evaluator.net_lengths(placement);
        self.evaluator
            .netlist()
            .cell_ids()
            .map(|c| {
                let optimal = self.optimal_cost(placement, c);
                self.goodness_from_lengths(c, &optimal, &lengths).combined
            })
            .collect()
    }

    /// Goodness of a single cell on the kernel: `Oᵢ` and `Cᵢ` from one
    /// [`OptimumScorer`] walk over the cell's incident nets, `Cᵢ` read from
    /// `net_lengths` (the per-net lengths of `placement`). Bitwise identical
    /// to [`GoodnessEvaluator::cell_goodness`].
    pub fn cell_goodness_with(
        &self,
        scratch: &mut GoodnessScratch,
        placement: &Placement,
        cell: CellId,
        net_lengths: &[f64],
    ) -> GoodnessVector {
        let (optimal, actual) =
            scratch
                .scorer
                .optimal_and_actual(&self.evaluator, placement, cell, net_lengths);
        self.goodness_from_costs(cell, &optimal, &actual, |pi| {
            self.evaluator.path_delay_from_lengths(pi, net_lengths)
        })
    }

    /// Combined goodness of every cell not marked in `frozen` (all cells
    /// when `frozen` is empty), written into `out` — the engine's Evaluation
    /// pass. Frozen cells are not evaluated: their entries are unspecified
    /// and no consumer reads them. Each stored path's delay is computed once
    /// per pass, not once per cell on it. Bitwise identical to
    /// [`GoodnessEvaluator::all_goodness`] on every evaluated cell.
    pub fn all_goodness_with(
        &self,
        scratch: &mut GoodnessScratch,
        placement: &Placement,
        net_lengths: &[f64],
        frozen: &[bool],
        out: &mut Vec<f64>,
    ) {
        let GoodnessScratch {
            scorer,
            path_delays,
        } = scratch;
        path_delays.clear();
        path_delays.extend(
            (0..self.evaluator.paths().len())
                .map(|pi| self.evaluator.path_delay_from_lengths(pi, net_lengths)),
        );
        out.clear();
        out.resize(self.evaluator.netlist().num_cells(), 1.0);
        for cell in self.evaluator.netlist().cell_ids() {
            if frozen.is_empty() || !frozen[cell.index()] {
                let (optimal, actual) =
                    scorer.optimal_and_actual(&self.evaluator, placement, cell, net_lengths);
                out[cell.index()] = self
                    .goodness_from_costs(cell, &optimal, &actual, |pi| path_delays[pi])
                    .combined;
            }
        }
    }

    /// Combined goodness of every cell measured against the placement-free
    /// packed lower bound (`Bounds::cell_wire_lower` /
    /// `Bounds::cell_power_lower`) instead of the cell's optimal position.
    /// The engine no longer selects on this ratio: the bound assumes every
    /// net packed into one row, so the ratio stays near 0.01 on real
    /// placements and biasless selection picks every cell. Kept for the
    /// benchmark's goodness-pass probe.
    pub fn all_goodness_into(&self, net_lengths: &[f64], out: &mut Vec<f64>) {
        let bounds = self.evaluator.bounds();
        out.clear();
        out.extend(self.evaluator.netlist().cell_ids().map(|c| {
            let bound = CellCost {
                wirelength: bounds.cell_wire_lower[c.index()],
                power: bounds.cell_power_lower[c.index()],
                critical_wirelength: 0.0,
            };
            self.goodness_from_lengths(c, &bound, net_lengths).combined
        }));
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
fn ratio_goodness(optimal: f64, actual: f64) -> f64 {
    if actual <= 0.0 {
        1.0
    } else {
        (optimal / actual).clamp(0.0, 1.0)
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

    fn kernel_pass(ge: &GoodnessEvaluator, placement: &Placement, frozen: &[bool]) -> Vec<f64> {
        let lengths = ge.evaluator().net_lengths(placement);
        let mut scratch = GoodnessScratch::default();
        let mut out = Vec::new();
        ge.all_goodness_with(&mut scratch, placement, &lengths, frozen, &mut out);
        out
    }

    #[test]
    fn goodness_values_are_in_unit_interval() {
        let (nl, ge, placement) = setup(Objectives::WirelengthPowerDelay);
        for cell in nl.cell_ids() {
            let g = ge.cell_goodness(&placement, cell);
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
        for cell in nl.cell_ids().take(20) {
            let g = ge.cell_goodness(&placement, cell);
            assert_eq!(all[cell.index()].to_bits(), g.combined.to_bits());
        }
    }

    /// The kernel pass's test matrix: the default circuit and mixed-size
    /// mix600 (fixed pads and macros).
    fn kernel_cases(objectives: Objectives) -> Vec<(String, GoodnessEvaluator, Placement)> {
        use vlsi_netlist::bench_suite::{mixed_circuit, MixedCircuit};
        let (generated, generated_goodness, generated_placement) = setup(objectives);
        let mix = Arc::new(mixed_circuit(MixedCircuit::Mix600));
        let mix_placement = Placement::round_robin(&mix, MixedCircuit::Mix600.num_rows());
        let mix_goodness = GoodnessEvaluator::new(CostEvaluator::new(Arc::clone(&mix), objectives));
        vec![
            (
                generated.name().to_string(),
                generated_goodness,
                generated_placement,
            ),
            (mix.name().to_string(), mix_goodness, mix_placement),
        ]
    }

    #[test]
    fn sparse_cell_goodness_agrees_with_dense() {
        // The kernel pass (dense lengths, one gather per incident net)
        // reproduces the sparse from-scratch oracle to the bit, per
        // objective, on generated and on mixed-size cells.
        for (name, ge, placement) in kernel_cases(Objectives::WirelengthPowerDelay) {
            let nl = ge.evaluator().netlist().clone();
            let lengths = ge.evaluator().net_lengths(&placement);
            let mut scratch = GoodnessScratch::default();
            for cell in nl.cell_ids() {
                let dense = ge.cell_goodness_with(&mut scratch, &placement, cell, &lengths);
                let sparse = ge.cell_goodness(&placement, cell);
                assert_eq!(
                    dense.wirelength.to_bits(),
                    sparse.wirelength.to_bits(),
                    "{name}"
                );
                assert_eq!(dense.power.to_bits(), sparse.power.to_bits(), "{name}");
                assert_eq!(dense.delay.to_bits(), sparse.delay.to_bits(), "{name}");
                assert_eq!(
                    dense.combined.to_bits(),
                    sparse.combined.to_bits(),
                    "{name}"
                );
            }
            let all = ge.all_goodness(&placement);
            for (a, b) in all.iter().zip(kernel_pass(&ge, &placement, &[])) {
                assert_eq!(a.to_bits(), b.to_bits(), "{name}");
            }
        }
    }

    #[test]
    fn frozen_cells_are_skipped_by_the_kernel_pass() {
        // A Type II-style mask: the rank owns the movable cells of the even
        // rows; fixed cells and every other row are frozen.
        for (name, ge, placement) in kernel_cases(Objectives::WirelengthPower) {
            let nl = ge.evaluator().netlist().clone();
            let frozen: Vec<bool> = nl
                .cell_ids()
                .map(|c| placement.is_fixed(c) || placement.row_of(c) % 2 == 1)
                .collect();
            let oracle = ge.all_goodness(&placement);
            let masked = kernel_pass(&ge, &placement, &frozen);
            for c in nl.cell_ids().filter(|c| !frozen[c.index()]) {
                assert_eq!(
                    masked[c.index()].to_bits(),
                    oracle[c.index()].to_bits(),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn delay_goodness_is_one_without_delay_objective() {
        let (nl, ge, placement) = setup(Objectives::WirelengthPower);
        for cell in nl.cell_ids().take(25) {
            assert_eq!(ge.cell_goodness(&placement, cell).delay, 1.0);
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
        // Compare a logic cell's goodness in the current placement with fake
        // length vectors where its incident nets are shorter.
        let cell = nl
            .cell_ids()
            .find(|&c| nl.nets_of_cell(c).len() >= 2)
            .unwrap();
        let lengths = ge.evaluator().net_lengths(&placement);
        let optimal = ge.optimal_cost(&placement, cell);
        let actual = ge.goodness_from_lengths(cell, &optimal, &lengths);
        let mut shorter = lengths.clone();
        let mut ideal = lengths.clone();
        for &net in nl.nets_of_cell(cell) {
            shorter[net.index()] *= 0.5;
            ideal[net.index()] = 0.0;
        }
        let better = ge.goodness_from_lengths(cell, &optimal, &shorter);
        assert!(better.combined >= actual.combined);
        assert!(better.wirelength >= actual.wirelength);
        let best = ge.goodness_from_lengths(cell, &optimal, &ideal);
        assert_eq!(best.wirelength, 1.0);
        assert!(best.combined >= better.combined);
    }

    #[test]
    fn a_cell_at_its_optimum_has_full_wirelength_goodness() {
        // Moving a cell onto its median position (other cells unmoved) makes
        // its actual cost equal its optimal cost.
        let (nl, ge, placement) = setup(Objectives::WirelengthPower);
        for cell in nl.cell_ids().take(40) {
            let optimal = ge.optimal_cost(&placement, cell);
            let mut lengths = vec![0.0; nl.num_nets()];
            let mut xs: Vec<f64> = Vec::new();
            let mut ys: Vec<f64> = Vec::new();
            for &net in nl.nets_of_cell(cell) {
                for &other in ge.evaluator().net_cells(net) {
                    if other != cell {
                        let (x, y) = placement.position(other);
                        xs.push(x);
                        ys.push(y);
                    }
                }
            }
            if xs.is_empty() {
                continue;
            }
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            ys.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let median = (xs[xs.len() / 2], ys[ys.len() / 2]);
            for &net in nl.nets_of_cell(cell) {
                lengths[net.index()] = ge
                    .evaluator()
                    .net_length_with_override(&placement, net, cell, median);
            }
            let g = ge.goodness_from_lengths(cell, &optimal, &lengths);
            assert_eq!(g.wirelength, 1.0, "cell {cell}");
            assert_eq!(g.power, 1.0, "cell {cell}");
        }
    }

    #[test]
    fn ratio_goodness_edge_cases() {
        assert_eq!(ratio_goodness(10.0, 0.0), 1.0);
        assert_eq!(ratio_goodness(10.0, 5.0), 1.0);
        assert!((ratio_goodness(5.0, 10.0) - 0.5).abs() < 1e-12);
        assert_eq!(ratio_goodness(0.0, 10.0), 0.0);
    }
}
