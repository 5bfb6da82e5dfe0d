//! Shared move set and result type for the baseline heuristics.

use rand::Rng;
use serde::{Deserialize, Serialize};
use vlsi_netlist::CellId;
use vlsi_place::cost::{CostBreakdown, CostEvaluator};
use vlsi_place::kernel::{NetLengthCache, TrialScorer};
use vlsi_place::layout::{Placement, Slot};

/// The two classical standard-cell placement moves used by SA, GA mutation
/// and TS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MoveKind {
    /// Swap the slots of two cells.
    Swap(CellId, CellId),
    /// Move one cell to a new slot.
    Relocate(CellId, Slot),
}

impl MoveKind {
    /// The cells whose slot the move changes — both cells of a swap in
    /// order, the relocated cell otherwise — held inline, without allocating.
    pub fn cells(&self) -> MovedCells {
        match *self {
            MoveKind::Swap(a, b) => MovedCells {
                cells: [a, b],
                len: 2,
            },
            MoveKind::Relocate(c, _) => MovedCells {
                cells: [c, c],
                len: 1,
            },
        }
    }
}

/// The one or two cells of a [`MoveKind`] (see [`MoveKind::cells`]);
/// dereferences to a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MovedCells {
    cells: [CellId; 2],
    len: usize,
}

impl std::ops::Deref for MovedCells {
    type Target = [CellId];

    fn deref(&self) -> &[CellId] {
        &self.cells[..self.len]
    }
}

/// Draws a random neighbourhood move for `placement`. Only movable cells
/// are drawn: fixed cells (pads, macros) are redrawn, so a fixed-free
/// circuit consumes exactly one draw per cell it picks.
///
/// # Panics
///
/// Panics if `placement` has no movable cell.
pub fn neighbour_move<R: Rng + ?Sized>(placement: &Placement, rng: &mut R) -> MoveKind {
    let n = placement.num_cells();
    let movable: usize = (0..placement.num_rows())
        .map(|r| placement.row(r).len())
        .sum();
    assert!(movable > 0, "placement has no movable cell");
    let mut a = CellId::from(rng.gen_range(0..n));
    while placement.is_fixed(a) {
        a = CellId::from(rng.gen_range(0..n));
    }
    if rng.gen_bool(0.5) {
        let mut b = CellId::from(rng.gen_range(0..n));
        while placement.is_fixed(b) || (b == a && movable > 1) {
            b = CellId::from(rng.gen_range(0..n));
        }
        MoveKind::Swap(a, b)
    } else {
        let row = rng.gen_range(0..placement.num_rows());
        let index = rng.gen_range(0..placement.slots_in_row(row));
        MoveKind::Relocate(a, Slot { row, index })
    }
}

/// Applies `mv` to `placement`, returning an undo move that restores the
/// previous state when applied.
pub fn apply_move(placement: &mut Placement, mv: MoveKind) -> MoveKind {
    match mv {
        MoveKind::Swap(a, b) => {
            placement.swap_cells(a, b);
            MoveKind::Swap(a, b)
        }
        MoveKind::Relocate(cell, slot) => {
            let undo = MoveKind::Relocate(cell, placement.slot_of(cell));
            placement.move_cell(cell, slot);
            undo
        }
    }
}

/// Full evaluation of an evolving placement through the incremental kernel:
/// after a move only the nets touching the rows it changed are re-measured
/// (allocation-free), and the cost is folded by
/// [`CostEvaluator::evaluate_from_lengths`]. Bitwise identical to
/// [`CostEvaluator::evaluate`], which stays the oracle.
#[derive(Debug, Clone)]
pub(crate) struct CostCache {
    lengths: NetLengthCache,
    scorer: TrialScorer,
}

impl CostCache {
    pub(crate) fn new(evaluator: &CostEvaluator) -> Self {
        CostCache {
            lengths: NetLengthCache::new(),
            scorer: TrialScorer::for_evaluator(evaluator),
        }
    }

    /// The cost of `placement`, equal to `evaluator.evaluate(placement)`.
    pub(crate) fn evaluate(
        &mut self,
        evaluator: &CostEvaluator,
        placement: &Placement,
    ) -> CostBreakdown {
        let lengths = self.lengths.refresh(evaluator, &mut self.scorer, placement);
        evaluator.evaluate_from_lengths(placement, lengths)
    }
}

/// Result of running one of the baseline heuristics.
#[derive(Debug, Clone)]
pub struct HeuristicResult {
    /// The best placement found.
    pub best_placement: Placement,
    /// Cost breakdown of the best placement.
    pub best_cost: CostBreakdown,
    /// Number of cost evaluations performed (the classical effort measure
    /// for move-based heuristics).
    pub evaluations: usize,
    /// Best quality after every iteration / generation.
    pub mu_history: Vec<f64>,
}

impl HeuristicResult {
    /// Best quality reached.
    pub fn best_mu(&self) -> f64 {
        self.best_cost.mu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vlsi_netlist::bench_suite::{mixed_circuit, MixedCircuit};
    use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};

    fn placement() -> (vlsi_netlist::Netlist, Placement) {
        let nl = CircuitGenerator::new(GeneratorConfig::sized("mh_common", 100, 3)).generate();
        let p = Placement::round_robin(&nl, 6);
        (nl, p)
    }

    #[test]
    fn moves_preserve_legality() {
        let (nl, mut p) = placement();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..200 {
            let mv = neighbour_move(&p, &mut rng);
            apply_move(&mut p, mv);
            p.validate(&nl).unwrap();
        }
    }

    #[test]
    fn relocate_undo_restores_the_slot() {
        let (nl, mut p) = placement();
        let cell = CellId(5);
        let before = p.slot_of(cell);
        let undo = apply_move(&mut p, MoveKind::Relocate(cell, Slot { row: 3, index: 0 }));
        assert_eq!(p.row_of(cell), 3);
        apply_move(&mut p, undo);
        p.validate(&nl).unwrap();
        assert_eq!(p.slot_of(cell).row, before.row);
    }

    #[test]
    fn move_cells_lists_the_moved_cells_in_order() {
        let (a, b) = (CellId(4), CellId(9));
        assert_eq!(&*MoveKind::Swap(a, b).cells(), &[a, b]);
        assert_eq!(&*MoveKind::Swap(b, a).cells(), &[b, a]);
        let relocate = MoveKind::Relocate(b, Slot { row: 1, index: 0 });
        assert_eq!(&*relocate.cells(), &[b]);
    }

    #[test]
    fn swap_undo_is_the_same_swap() {
        let (nl, mut p) = placement();
        let (a, b) = (CellId(1), CellId(60));
        let rows_before = (p.row_of(a), p.row_of(b));
        let undo = apply_move(&mut p, MoveKind::Swap(a, b));
        apply_move(&mut p, undo);
        p.validate(&nl).unwrap();
        assert_eq!((p.row_of(a), p.row_of(b)), rows_before);
    }

    #[test]
    fn cost_cache_matches_the_oracle_bitwise() {
        // Across a random move/undo sequence (the SA/TS probing pattern)
        // and a switch to a fresh placement object (a GA decode or an
        // adopted migrant), the cached evaluation must equal the
        // allocating oracle to the bit — on a fixed-free circuit and on one
        // with fixed pads and macros (blocked spans).
        use std::sync::Arc;
        use vlsi_place::cost::Objectives;
        let mixed = mixed_circuit(MixedCircuit::Mix600);
        let mixed_p = Placement::round_robin(&mixed, MixedCircuit::Mix600.num_rows());
        for (nl, mut p) in [placement(), (mixed, mixed_p)] {
            let nl = Arc::new(nl);
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            for objectives in [
                Objectives::WirelengthPower,
                Objectives::WirelengthPowerDelay,
            ] {
                let eval = CostEvaluator::new(Arc::clone(&nl), objectives);
                let mut cost = CostCache::new(&eval);
                for step in 0..120 {
                    let mv = neighbour_move(&p, &mut rng);
                    let undo = apply_move(&mut p, mv);
                    if step % 3 == 0 {
                        apply_move(&mut p, undo);
                    }
                    if step % 40 == 39 {
                        p = p.clone();
                    }
                    let cached = cost.evaluate(&eval, &p);
                    let oracle = eval.evaluate(&p);
                    assert_eq!(format!("{cached:?}"), format!("{oracle:?}"), "step {step}");
                    assert_eq!(cached.mu.to_bits(), oracle.mu.to_bits(), "step {step}");
                }
            }
        }
    }

    #[test]
    fn heuristics_never_move_fixed_cells() {
        // SA and TS draw moves from `neighbour_move`, GA decodes its orders
        // through `Placement::from_order`; on a circuit with a pad ring and
        // macros every fixed cell must end where it started, to the bit.
        use crate::{
            GaConfig, GeneticPlacer, SaConfig, SimulatedAnnealingPlacer, TabuConfig,
            TabuSearchPlacer,
        };
        use std::sync::Arc;
        use vlsi_place::cost::Objectives;
        let circuit = MixedCircuit::Mix600;
        let nl = Arc::new(mixed_circuit(circuit));
        let eval = CostEvaluator::new(Arc::clone(&nl), Objectives::WirelengthPower);
        let initial = Placement::round_robin(&nl, circuit.num_rows());
        let fixed: Vec<CellId> = nl.cell_ids().filter(|&c| initial.is_fixed(c)).collect();
        assert!(!fixed.is_empty());
        let results = [
            SimulatedAnnealingPlacer::new(eval.clone(), SaConfig::fast(5)).run(initial.clone()),
            TabuSearchPlacer::new(eval.clone(), TabuConfig::fast(5)).run(initial.clone()),
            GeneticPlacer::new(eval.clone(), GaConfig::fast(circuit.num_rows(), 5))
                .run(initial.clone()),
        ];
        for result in results {
            result.best_placement.validate(&nl).unwrap();
            for &c in &fixed {
                assert_eq!(
                    result.best_placement.x_of(c).to_bits(),
                    initial.x_of(c).to_bits(),
                    "fixed cell {c} moved"
                );
                assert_eq!(result.best_placement.row_of(c), initial.row_of(c));
            }
        }
    }

    #[test]
    fn random_moves_cover_both_kinds() {
        let (_nl, p) = placement();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut swaps = 0;
        let mut relocs = 0;
        for _ in 0..300 {
            match neighbour_move(&p, &mut rng) {
                MoveKind::Swap(..) => swaps += 1,
                MoveKind::Relocate(..) => relocs += 1,
            }
        }
        assert!(swaps > 50 && relocs > 50);
    }
}
