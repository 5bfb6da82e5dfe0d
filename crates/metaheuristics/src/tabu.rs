//! Tabu Search baseline placer.
//!
//! A straightforward best-of-neighbourhood TS with a recency-based tabu list
//! over moved cells and an aspiration criterion (a tabu move is allowed when
//! it improves on the best solution found so far). Mirrors the structure of
//! the authors' parallel TS work \[6\] at the serial level.

use crate::common::{apply_move, neighbour_move, CostCache, HeuristicResult, MoveKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use vlsi_netlist::CellId;
use vlsi_place::cost::CostEvaluator;
use vlsi_place::layout::Placement;

/// Tabu Search parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TabuConfig {
    /// Number of candidate moves examined per iteration.
    pub candidates_per_iteration: usize,
    /// Tabu tenure: number of iterations a moved cell stays tabu.
    pub tenure: usize,
    /// Number of iterations.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TabuConfig {
    fn default() -> Self {
        TabuConfig {
            candidates_per_iteration: 40,
            tenure: 12,
            iterations: 400,
            seed: 1,
        }
    }
}

impl TabuConfig {
    /// A small configuration for tests.
    pub fn fast(seed: u64) -> Self {
        TabuConfig {
            candidates_per_iteration: 15,
            tenure: 6,
            iterations: 60,
            seed,
        }
    }
}

/// Recency-based tabu list over moved cells.
///
/// A bounded FIFO: [`TabuList::admit`] records the cells of an accepted
/// move, and once more than `tenure` cells are held the oldest entries
/// expire (so a cell stays tabu for roughly `tenure / cells-per-move`
/// iterations). Extracted from the placer loop so membership and expiry
/// semantics are directly testable.
#[derive(Debug, Clone)]
pub struct TabuList {
    entries: VecDeque<CellId>,
    tenure: usize,
}

impl TabuList {
    /// An empty list holding at most `tenure` recently moved cells.
    pub fn new(tenure: usize) -> Self {
        TabuList {
            entries: VecDeque::with_capacity(tenure + 1),
            tenure,
        }
    }

    /// `true` while `cell` is held by the list.
    pub fn contains(&self, cell: CellId) -> bool {
        self.entries.contains(&cell)
    }

    /// `true` if any cell of the move is currently tabu.
    pub fn is_tabu(&self, moved_cells: &[CellId]) -> bool {
        moved_cells.iter().any(|&c| self.contains(c))
    }

    /// Records an accepted move's cells, expiring the oldest entries beyond
    /// the tenure.
    pub fn admit(&mut self, moved_cells: &[CellId]) {
        for &c in moved_cells {
            self.entries.push_back(c);
        }
        while self.entries.len() > self.tenure {
            self.entries.pop_front();
        }
    }

    /// Number of cells currently held (≤ tenure).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no cell is tabu.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Tabu Search placer over a shared [`CostEvaluator`].
#[derive(Debug, Clone)]
pub struct TabuSearchPlacer {
    evaluator: CostEvaluator,
    config: TabuConfig,
}

impl TabuSearchPlacer {
    /// Creates a placer.
    pub fn new(evaluator: CostEvaluator, config: TabuConfig) -> Self {
        TabuSearchPlacer { evaluator, config }
    }

    /// Runs TS from the given initial placement.
    pub fn run(&self, initial: Placement) -> HeuristicResult {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut cost = CostCache::new(&self.evaluator);
        let mut placement = initial;
        let mut current = cost.evaluate(&self.evaluator, &placement);
        let mut best = current;
        let mut best_placement = placement.clone();
        let mut evaluations = 1usize;
        let mut mu_history = Vec::with_capacity(self.config.iterations);

        let mut tabu = TabuList::new(self.config.tenure);

        for _ in 0..self.config.iterations {
            let mut best_candidate: Option<(MoveKind, f64)> = None;
            for _ in 0..self.config.candidates_per_iteration {
                let mv = neighbour_move(&placement, &mut rng);
                let undo = apply_move(&mut placement, mv);
                let candidate = cost.evaluate(&self.evaluator, &placement);
                evaluations += 1;
                apply_move(&mut placement, undo);

                let aspires = candidate.mu > best.mu;
                if tabu.is_tabu(&mv.cells()) && !aspires {
                    continue;
                }
                if best_candidate.is_none_or(|(_, mu)| candidate.mu > mu) {
                    best_candidate = Some((mv, candidate.mu));
                }
            }

            if let Some((mv, _)) = best_candidate {
                apply_move(&mut placement, mv);
                current = cost.evaluate(&self.evaluator, &placement);
                evaluations += 1;
                tabu.admit(&mv.cells());
                if current.mu > best.mu {
                    best = current;
                    best_placement = placement.clone();
                }
            }
            mu_history.push(best.mu);
        }

        HeuristicResult {
            best_placement,
            best_cost: best,
            evaluations,
            mu_history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};
    use vlsi_place::cost::Objectives;

    fn setup() -> (CostEvaluator, Placement) {
        let nl =
            Arc::new(CircuitGenerator::new(GeneratorConfig::sized("tabu_test", 100, 5)).generate());
        let eval = CostEvaluator::new(Arc::clone(&nl), Objectives::WirelengthPower);
        let p = Placement::round_robin(&nl, 6);
        (eval, p)
    }

    #[test]
    fn tabu_improves_or_preserves_quality() {
        let (eval, p) = setup();
        let initial_mu = eval.mu(&p);
        let result = TabuSearchPlacer::new(eval.clone(), TabuConfig::fast(3)).run(p);
        assert!(result.best_mu() + 1e-12 >= initial_mu);
        result.best_placement.validate(eval.netlist()).unwrap();
    }

    #[test]
    fn tabu_is_deterministic_per_seed() {
        let (eval, p) = setup();
        let a = TabuSearchPlacer::new(eval.clone(), TabuConfig::fast(5)).run(p.clone());
        let b = TabuSearchPlacer::new(eval, TabuConfig::fast(5)).run(p);
        assert_eq!(a.best_cost.mu, b.best_cost.mu);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn history_has_one_entry_per_iteration_and_is_monotone() {
        let (eval, p) = setup();
        let cfg = TabuConfig::fast(7);
        let result = TabuSearchPlacer::new(eval, cfg).run(p);
        assert_eq!(result.mu_history.len(), cfg.iterations);
        let mut last = 0.0;
        for &mu in &result.mu_history {
            assert!(mu + 1e-12 >= last);
            last = mu;
        }
    }

    #[test]
    fn reported_best_matches_placement() {
        let (eval, p) = setup();
        let result = TabuSearchPlacer::new(eval.clone(), TabuConfig::fast(9)).run(p);
        let re = eval.evaluate(&result.best_placement);
        assert!((re.mu - result.best_cost.mu).abs() < 1e-12);
    }
}
