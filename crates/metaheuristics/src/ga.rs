//! Genetic Algorithm baseline placer.
//!
//! A steady-state GA over placements encoded as cell permutations (dealt into
//! rows the same way initial placements are built): tournament selection,
//! order crossover (OX1), swap mutation and elitist replacement. Mirrors the
//! serial level of the authors' distributed GA work \[8\].

use crate::common::{CostCache, HeuristicResult};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use vlsi_netlist::CellId;
use vlsi_place::cost::CostEvaluator;
use vlsi_place::layout::Placement;

/// Genetic Algorithm parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Per-offspring probability of an additional swap mutation.
    pub mutation_rate: f64,
    /// Number of placement rows used when decoding a permutation.
    pub num_rows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 24,
            generations: 120,
            tournament: 3,
            mutation_rate: 0.3,
            num_rows: 8,
            seed: 1,
        }
    }
}

impl GaConfig {
    /// A small configuration for tests.
    pub fn fast(num_rows: usize, seed: u64) -> Self {
        GaConfig {
            population: 10,
            generations: 20,
            num_rows,
            seed,
            ..Default::default()
        }
    }
}

/// An individual: a permutation of all cells plus its decoded fitness.
#[derive(Debug, Clone)]
struct Individual {
    order: Vec<CellId>,
    mu: f64,
}

/// Genetic Algorithm placer over a shared [`CostEvaluator`].
#[derive(Debug, Clone)]
pub struct GeneticPlacer {
    evaluator: CostEvaluator,
    config: GaConfig,
}

impl GeneticPlacer {
    /// Creates a placer.
    pub fn new(evaluator: CostEvaluator, config: GaConfig) -> Self {
        GeneticPlacer { evaluator, config }
    }

    fn decode(&self, order: &[CellId]) -> Placement {
        Placement::from_order(self.evaluator.netlist(), self.config.num_rows, order)
    }

    /// The order of the individual seeded from `initial`: its movable cells
    /// row-major, then the fixed cells in id order, so that it lists every
    /// cell like the random individuals do (crossover pairs orders of equal
    /// length). [`Placement::from_order`] skips the fixed cells when
    /// decoding, so they never change the decoded placement.
    pub fn seed_order(&self, initial: &Placement) -> Vec<CellId> {
        let netlist = self.evaluator.netlist();
        (0..initial.num_rows())
            .flat_map(|r| initial.row(r).iter().copied())
            .chain(netlist.cell_ids().filter(|&c| netlist.cell(c).fixed))
            .collect()
    }

    fn fitness(&self, cost: &mut CostCache, order: &[CellId]) -> f64 {
        cost.evaluate(&self.evaluator, &self.decode(order)).mu
    }

    /// Order crossover (OX1) of two parent permutations.
    ///
    /// Copies a random slice `[i, j]` of parent `a` into the child, then
    /// fills the remaining slots with the cells of parent `b` in the order
    /// they appear after position `j`, wrapping around. Public so the
    /// operator's invariants (the child is always a permutation; genes
    /// inside the cut come from `a`) can be tested directly.
    pub fn crossover<R: Rng + ?Sized>(
        &self,
        a: &[CellId],
        b: &[CellId],
        rng: &mut R,
    ) -> Vec<CellId> {
        let n = a.len();
        if n < 2 {
            return a.to_vec();
        }
        let mut i = rng.gen_range(0..n);
        let mut j = rng.gen_range(0..n);
        if i > j {
            std::mem::swap(&mut i, &mut j);
        }
        let mut child: Vec<Option<CellId>> = vec![None; n];
        let mut used = vec![false; n];
        for k in i..=j {
            child[k] = Some(a[k]);
            used[a[k].index()] = true;
        }
        let mut fill = (j + 1) % n;
        for offset in 0..n {
            let candidate = b[(j + 1 + offset) % n];
            if !used[candidate.index()] {
                child[fill] = Some(candidate);
                used[candidate.index()] = true;
                fill = (fill + 1) % n;
            }
        }
        child
            .into_iter()
            .map(|c| c.expect("OX1 fills every slot"))
            .collect()
    }

    /// Swap mutation: with probability `mutation_rate`, swaps two uniformly
    /// chosen positions of `order` (a no-op on permutations shorter than
    /// two). The probability variate is always drawn, so the RNG stream is
    /// independent of whether the mutation fires. Public so the operator's
    /// invariant (the order stays a permutation of the same cells) can be
    /// tested directly.
    pub fn mutate<R: Rng + ?Sized>(&self, order: &mut [CellId], rng: &mut R) {
        if rng.gen::<f64>() < self.config.mutation_rate && order.len() >= 2 {
            let i = rng.gen_range(0..order.len());
            let j = rng.gen_range(0..order.len());
            order.swap(i, j);
        }
    }

    /// Runs the GA. The initial population is built from random permutations
    /// (the `initial` placement seeds one individual so results are
    /// comparable with the other heuristics).
    pub fn run(&self, initial: Placement) -> HeuristicResult {
        let netlist = self.evaluator.netlist().clone();
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut cost = CostCache::new(&self.evaluator);
        let mut evaluations = 0usize;

        let seed_order = self.seed_order(&initial);

        let mut population: Vec<Individual> = Vec::with_capacity(self.config.population);
        population.push(Individual {
            mu: self.fitness(&mut cost, &seed_order),
            order: seed_order,
        });
        evaluations += 1;
        while population.len() < self.config.population {
            let mut order: Vec<CellId> = netlist.cell_ids().collect();
            order.shuffle(&mut rng);
            let mu = self.fitness(&mut cost, &order);
            evaluations += 1;
            population.push(Individual { order, mu });
        }

        let mut mu_history = Vec::with_capacity(self.config.generations);
        for _ in 0..self.config.generations {
            // Tournament selection of two parents.
            let pick = |rng: &mut ChaCha8Rng, population: &[Individual]| -> usize {
                let mut best = rng.gen_range(0..population.len());
                for _ in 1..self.config.tournament.max(1) {
                    let c = rng.gen_range(0..population.len());
                    if population[c].mu > population[best].mu {
                        best = c;
                    }
                }
                best
            };
            let pa = pick(&mut rng, &population);
            let pb = pick(&mut rng, &population);
            let mut child = self.crossover(&population[pa].order, &population[pb].order, &mut rng);
            self.mutate(&mut child, &mut rng);
            let mu = self.fitness(&mut cost, &child);
            evaluations += 1;

            // Elitist steady-state replacement: replace the worst individual
            // if the child is better.
            let worst = population
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.mu.partial_cmp(&b.1.mu).expect("finite"))
                .map(|(i, _)| i)
                .expect("population is non-empty");
            if mu > population[worst].mu {
                population[worst] = Individual { order: child, mu };
            }

            let best_mu = population
                .iter()
                .map(|i| i.mu)
                .fold(f64::NEG_INFINITY, f64::max);
            mu_history.push(best_mu);
        }

        let best = population
            .iter()
            .max_by(|a, b| a.mu.partial_cmp(&b.mu).expect("finite"))
            .expect("population is non-empty");
        let best_placement = self.decode(&best.order);
        let best_cost = cost.evaluate(&self.evaluator, &best_placement);

        HeuristicResult {
            best_placement,
            best_cost,
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
            Arc::new(CircuitGenerator::new(GeneratorConfig::sized("ga_test", 90, 5)).generate());
        let eval = CostEvaluator::new(Arc::clone(&nl), Objectives::WirelengthPower);
        let p = Placement::round_robin(&nl, 6);
        (eval, p)
    }

    #[test]
    fn crossover_produces_a_valid_permutation() {
        let (eval, p) = setup();
        let placer = GeneticPlacer::new(eval.clone(), GaConfig::fast(6, 1));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a: Vec<CellId> = eval.netlist().cell_ids().collect();
        let mut b = a.clone();
        b.shuffle(&mut rng);
        let child = placer.crossover(&a, &b, &mut rng);
        let mut sorted = child.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, a, "child must be a permutation of all cells");
        let _ = p;
    }

    #[test]
    fn crossover_of_the_seed_individual_is_a_permutation_on_mixed_size_circuits() {
        // The seed individual must list the fixed cells too: crossing a
        // movable-only order with a random all-cell order indexed `used`
        // out of bounds.
        use vlsi_netlist::bench_suite::{MixedCircuit, SuiteCircuit};
        let circuit = SuiteCircuit::Mixed(MixedCircuit::Mix600);
        let nl = Arc::new(circuit.generate());
        assert!(nl.has_fixed_cells());
        let eval = CostEvaluator::new(Arc::clone(&nl), Objectives::WirelengthPower);
        let placer = GeneticPlacer::new(eval, GaConfig::fast(circuit.num_rows(), 1));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let initial = Placement::random(&nl, circuit.num_rows(), &mut rng);
        let seed = placer.seed_order(&initial);
        let all: Vec<CellId> = nl.cell_ids().collect();
        for _ in 0..20 {
            let mut random = all.clone();
            random.shuffle(&mut rng);
            for child in [
                placer.crossover(&seed, &random, &mut rng),
                placer.crossover(&random, &seed, &mut rng),
            ] {
                let mut sorted = child;
                sorted.sort_unstable();
                assert_eq!(sorted, all, "child must be a permutation of all cells");
            }
        }
    }

    #[test]
    fn ga_improves_or_preserves_quality() {
        // The GA decodes permutations with the width-balancing `from_order`
        // constructor, so the reference is the decoded seed individual (the
        // row-major order of the provided placement), which elitist
        // replacement guarantees is never lost.
        let (eval, p) = setup();
        let seed_order: Vec<CellId> = (0..p.num_rows()).flat_map(|r| p.row(r).to_vec()).collect();
        let seed_mu = eval.mu(&Placement::from_order(eval.netlist(), 6, &seed_order));
        let result = GeneticPlacer::new(eval.clone(), GaConfig::fast(6, 3)).run(p);
        assert!(result.best_mu() + 1e-12 >= seed_mu);
        result.best_placement.validate(eval.netlist()).unwrap();
    }

    #[test]
    fn ga_is_deterministic_per_seed() {
        let (eval, p) = setup();
        let a = GeneticPlacer::new(eval.clone(), GaConfig::fast(6, 9)).run(p.clone());
        let b = GeneticPlacer::new(eval, GaConfig::fast(6, 9)).run(p);
        assert_eq!(a.best_cost.mu, b.best_cost.mu);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn history_tracks_the_population_best_monotonically() {
        let (eval, p) = setup();
        let cfg = GaConfig::fast(6, 11);
        let result = GeneticPlacer::new(eval, cfg).run(p);
        assert_eq!(result.mu_history.len(), cfg.generations);
        let mut last = 0.0;
        for &mu in &result.mu_history {
            assert!(mu + 1e-12 >= last);
            last = mu;
        }
    }
}
