//! Epoch-stepped adapters over the baseline placers.
//!
//! The one-shot [`crate::sa::SimulatedAnnealingPlacer::run`] /
//! [`crate::ga::GeneticPlacer::run`] / [`crate::tabu::TabuSearchPlacer::run`]
//! entry points own their whole search loop, which makes them unusable as
//! *islands* of a bulk-synchronous portfolio: an island must advance one
//! epoch at a time, hand its best solution out at migration barriers, and
//! adopt migrants between epochs. The [`Optimizer`] trait is that step-able
//! surface, and [`SaIsland`] / [`GaIsland`] / [`TabuIsland`] implement it by
//! hoisting each placer's loop state (RNG stream, working placement,
//! population, tabu list, temperature) into a persistent value.
//!
//! The adapters preserve the placers' exact decision sequences: stepping an
//! island `N` times (with no migrants) is bitwise identical to a one-shot
//! run configured for `N` temperature steps / generations / iterations —
//! same RNG stream, same accept/reject decisions, same best solution. Every
//! island is `Send` and draws only from state it owns, so islands can run as
//! fan-out tasks on any execution backend without breaking determinism.
//!
//! One **epoch** is the placer's natural outer unit: a full temperature step
//! for SA, one generation for GA, one best-of-neighbourhood iteration for
//! TS. [`Optimizer::step`] reports the work the epoch performed as an
//! [`EpochWork`] so a driver can price it on a modeled machine.

use crate::common::{apply_move, neighbour_move, CostCache, MoveKind};
use crate::ga::{GaConfig, GeneticPlacer};
use crate::sa::{acceptance_probability, SaConfig, SimulatedAnnealingPlacer};
use crate::tabu::{TabuConfig, TabuList, TabuSearchPlacer};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vlsi_netlist::CellId;
use vlsi_place::cost::{CostBreakdown, CostEvaluator};
use vlsi_place::layout::Placement;

/// Work one epoch performed, in the workload currency of the simulated
/// cluster: net-length evaluations (every full cost evaluation estimates all
/// nets once) plus per-move bookkeeping operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochWork {
    /// Net-length estimations performed this epoch.
    pub net_evaluations: u64,
    /// Miscellaneous bookkeeping operations (move generation, accept tests).
    pub misc_operations: u64,
}

/// A step-able optimizer island. See the [module docs](self) for the epoch
/// semantics and the determinism contract the adapters uphold.
pub trait Optimizer: Send {
    /// Short stable label of the algorithm (`"sa"`, `"ga"`, `"tabu"`, …).
    fn name(&self) -> &'static str;

    /// Advances the search by one epoch and reports the work performed.
    fn step(&mut self) -> EpochWork;

    /// The best placement found so far.
    fn best_placement(&self) -> &Placement;

    /// Cost of the best placement found so far.
    fn best_cost(&self) -> CostBreakdown;

    /// Offers a migrant solution at a migration barrier. The island adopts
    /// it into its working state iff it improves on the island's own current
    /// solution; its best-so-far bookkeeping updates accordingly. Receiving
    /// never draws from the island's RNG stream, so the subsequent epochs'
    /// random decisions are independent of whether a migrant arrived.
    fn receive(&mut self, migrant: &Placement, cost: CostBreakdown);

    /// Total full cost evaluations performed so far (the classical effort
    /// measure, comparable with [`crate::common::HeuristicResult::evaluations`]).
    fn evaluations(&self) -> usize;
}

/// Simulated Annealing island: one epoch = one temperature step
/// (`moves_per_temperature` moves, then geometric cooling).
pub struct SaIsland {
    evaluator: CostEvaluator,
    cost: CostCache,
    config: SaConfig,
    rng: ChaCha8Rng,
    placement: Placement,
    current: CostBreakdown,
    best: CostBreakdown,
    best_placement: Placement,
    temperature: f64,
    evaluations: usize,
}

impl SaIsland {
    /// An island starting from `initial`, with the same validation as
    /// [`SimulatedAnnealingPlacer::new`].
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`SaConfig::validate`].
    pub fn new(evaluator: CostEvaluator, config: SaConfig, initial: Placement) -> Self {
        // Route through the placer so the config validation lives once.
        let _ = SimulatedAnnealingPlacer::new(evaluator.clone(), config);
        let mut cost = CostCache::new(&evaluator);
        let current = cost.evaluate(&evaluator, &initial);
        SaIsland {
            evaluator,
            cost,
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            best_placement: initial.clone(),
            placement: initial,
            current,
            best: current,
            temperature: config.initial_temperature,
            evaluations: 1,
            config,
        }
    }
}

impl Optimizer for SaIsland {
    fn name(&self) -> &'static str {
        "sa"
    }

    fn step(&mut self) -> EpochWork {
        // Mirrors the inner loop of `SimulatedAnnealingPlacer::run` exactly,
        // including the no-variate-on-downhill short-circuit.
        let mut evals_this_epoch = 0u64;
        for _ in 0..self.config.moves_per_temperature {
            let mv = neighbour_move(&self.placement, &mut self.rng);
            let undo = apply_move(&mut self.placement, mv);
            let candidate = self.cost.evaluate(&self.evaluator, &self.placement);
            self.evaluations += 1;
            evals_this_epoch += 1;
            let delta = (1.0 - candidate.mu) - (1.0 - self.current.mu);
            let accept = delta <= 0.0
                || self.rng.gen::<f64>() < acceptance_probability(delta, self.temperature);
            if accept {
                self.current = candidate;
                if self.current.mu > self.best.mu {
                    self.best = self.current;
                    self.best_placement = self.placement.clone();
                }
            } else {
                apply_move(&mut self.placement, undo);
            }
        }
        self.temperature *= self.config.cooling;
        EpochWork {
            net_evaluations: evals_this_epoch * self.evaluator.netlist().num_nets() as u64,
            misc_operations: evals_this_epoch * 4,
        }
    }

    fn best_placement(&self) -> &Placement {
        &self.best_placement
    }

    fn best_cost(&self) -> CostBreakdown {
        self.best
    }

    fn receive(&mut self, migrant: &Placement, cost: CostBreakdown) {
        if cost.mu > self.current.mu {
            self.placement = migrant.clone();
            self.current = cost;
            if cost.mu > self.best.mu {
                self.best = cost;
                self.best_placement = migrant.clone();
            }
        }
    }

    fn evaluations(&self) -> usize {
        self.evaluations
    }
}

/// GA individual: a permutation of all cells plus its decoded fitness.
struct GaIndividual {
    order: Vec<CellId>,
    mu: f64,
}

/// Genetic Algorithm island: one epoch = one steady-state generation
/// (tournament selection, OX1 crossover, swap mutation, elitist
/// replacement).
pub struct GaIsland {
    placer: GeneticPlacer,
    evaluator: CostEvaluator,
    cost: CostCache,
    config: GaConfig,
    rng: ChaCha8Rng,
    population: Vec<GaIndividual>,
    best: CostBreakdown,
    best_placement: Placement,
    evaluations: usize,
}

impl GaIsland {
    /// An island whose population is seeded exactly like
    /// [`GeneticPlacer::run`]: one individual decodes `initial`
    /// ([`GeneticPlacer::seed_order`]), the rest are random permutations
    /// from the island's own RNG stream.
    pub fn new(evaluator: CostEvaluator, config: GaConfig, initial: Placement) -> Self {
        let placer = GeneticPlacer::new(evaluator.clone(), config);
        let netlist = evaluator.netlist().clone();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut cost = CostCache::new(&evaluator);
        let mut evaluations = 0usize;

        let decode = |order: &[CellId]| Placement::from_order(&netlist, config.num_rows, order);
        let seed_order = placer.seed_order(&initial);
        let mut population = Vec::with_capacity(config.population);
        population.push(GaIndividual {
            mu: cost.evaluate(&evaluator, &decode(&seed_order)).mu,
            order: seed_order,
        });
        evaluations += 1;
        while population.len() < config.population {
            let mut order: Vec<CellId> = netlist.cell_ids().collect();
            order.shuffle(&mut rng);
            let mu = cost.evaluate(&evaluator, &decode(&order)).mu;
            evaluations += 1;
            population.push(GaIndividual { order, mu });
        }

        let best_ix = population
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.mu.partial_cmp(&b.1.mu).expect("finite"))
            .map(|(i, _)| i)
            .expect("population is non-empty");
        let best_placement = decode(&population[best_ix].order);
        let best = cost.evaluate(&evaluator, &best_placement);
        GaIsland {
            placer,
            evaluator,
            cost,
            config,
            rng,
            population,
            best,
            best_placement,
            evaluations,
        }
    }

    fn decode(&self, order: &[CellId]) -> Placement {
        Placement::from_order(self.evaluator.netlist(), self.config.num_rows, order)
    }

    /// Refreshes the cached best if `order`/`mu` beats it.
    fn consider_best(&mut self, order: &[CellId], mu: f64) {
        if mu > self.best.mu {
            self.best_placement = self.decode(order);
            self.best = self.cost.evaluate(&self.evaluator, &self.best_placement);
        }
    }
}

impl Optimizer for GaIsland {
    fn name(&self) -> &'static str {
        "ga"
    }

    fn step(&mut self) -> EpochWork {
        // Mirrors one generation of `GeneticPlacer::run` exactly.
        let pick = |rng: &mut ChaCha8Rng, population: &[GaIndividual]| -> usize {
            let mut best = rng.gen_range(0..population.len());
            for _ in 1..self.config.tournament.max(1) {
                let c = rng.gen_range(0..population.len());
                if population[c].mu > population[best].mu {
                    best = c;
                }
            }
            best
        };
        let pa = pick(&mut self.rng, &self.population);
        let pb = pick(&mut self.rng, &self.population);
        let mut child = self.placer.crossover(
            &self.population[pa].order,
            &self.population[pb].order,
            &mut self.rng,
        );
        self.placer.mutate(&mut child, &mut self.rng);
        let decoded = self.decode(&child);
        let mu = self.cost.evaluate(&self.evaluator, &decoded).mu;
        self.evaluations += 1;

        let worst = self
            .population
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.mu.partial_cmp(&b.1.mu).expect("finite"))
            .map(|(i, _)| i)
            .expect("population is non-empty");
        if mu > self.population[worst].mu {
            self.population[worst] = GaIndividual {
                order: child.clone(),
                mu,
            };
            self.consider_best(&child, mu);
        }
        EpochWork {
            net_evaluations: self.evaluator.netlist().num_nets() as u64,
            misc_operations: self.population.len() as u64 * 2,
        }
    }

    fn best_placement(&self) -> &Placement {
        &self.best_placement
    }

    fn best_cost(&self) -> CostBreakdown {
        self.best
    }

    fn receive(&mut self, migrant: &Placement, cost: CostBreakdown) {
        // A migrant joins the population as a row-major order, replacing the
        // worst individual iff it improves on it. Its fitness is the decoded
        // fitness (decoding may re-balance rows), not the incoming cost.
        let order: Vec<CellId> = (0..migrant.num_rows())
            .flat_map(|r| migrant.row(r).to_vec())
            .collect();
        let decoded = self.decode(&order);
        let mu = self.cost.evaluate(&self.evaluator, &decoded).mu;
        let worst = self
            .population
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.mu.partial_cmp(&b.1.mu).expect("finite"))
            .map(|(i, _)| i)
            .expect("population is non-empty");
        if mu > self.population[worst].mu {
            self.population[worst] = GaIndividual {
                order: order.clone(),
                mu,
            };
            self.consider_best(&order, mu);
        }
        let _ = cost;
    }

    fn evaluations(&self) -> usize {
        self.evaluations
    }
}

/// Tabu Search island: one epoch = one best-of-neighbourhood iteration
/// (`candidates_per_iteration` probed moves, tabu filtering with aspiration,
/// apply the winner).
pub struct TabuIsland {
    evaluator: CostEvaluator,
    cost: CostCache,
    config: TabuConfig,
    rng: ChaCha8Rng,
    placement: Placement,
    current: CostBreakdown,
    best: CostBreakdown,
    best_placement: Placement,
    tabu: TabuList,
    evaluations: usize,
}

impl TabuIsland {
    /// An island starting from `initial`, with the same initial evaluation
    /// as [`TabuSearchPlacer::run`].
    pub fn new(evaluator: CostEvaluator, config: TabuConfig, initial: Placement) -> Self {
        let _ = TabuSearchPlacer::new(evaluator.clone(), config);
        let mut cost = CostCache::new(&evaluator);
        let current = cost.evaluate(&evaluator, &initial);
        TabuIsland {
            cost,
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            best_placement: initial.clone(),
            placement: initial,
            current,
            best: current,
            tabu: TabuList::new(config.tenure),
            evaluations: 1,
            evaluator,
            config,
        }
    }
}

impl Optimizer for TabuIsland {
    fn name(&self) -> &'static str {
        "tabu"
    }

    fn step(&mut self) -> EpochWork {
        // Mirrors one iteration of `TabuSearchPlacer::run` exactly.
        let mut evals_this_epoch = 0u64;
        let mut best_candidate: Option<(MoveKind, f64)> = None;
        for _ in 0..self.config.candidates_per_iteration {
            let mv = neighbour_move(&self.placement, &mut self.rng);
            let undo = apply_move(&mut self.placement, mv);
            let candidate = self.cost.evaluate(&self.evaluator, &self.placement);
            self.evaluations += 1;
            evals_this_epoch += 1;
            apply_move(&mut self.placement, undo);

            let aspires = candidate.mu > self.best.mu;
            if self.tabu.is_tabu(&mv.cells()) && !aspires {
                continue;
            }
            if best_candidate.is_none_or(|(_, mu)| candidate.mu > mu) {
                best_candidate = Some((mv, candidate.mu));
            }
        }
        if let Some((mv, _)) = best_candidate {
            apply_move(&mut self.placement, mv);
            self.current = self.cost.evaluate(&self.evaluator, &self.placement);
            self.evaluations += 1;
            evals_this_epoch += 1;
            self.tabu.admit(&mv.cells());
            if self.current.mu > self.best.mu {
                self.best = self.current;
                self.best_placement = self.placement.clone();
            }
        }
        EpochWork {
            net_evaluations: evals_this_epoch * self.evaluator.netlist().num_nets() as u64,
            misc_operations: evals_this_epoch * 4,
        }
    }

    fn best_placement(&self) -> &Placement {
        &self.best_placement
    }

    fn best_cost(&self) -> CostBreakdown {
        self.best
    }

    fn receive(&mut self, migrant: &Placement, cost: CostBreakdown) {
        if cost.mu > self.current.mu {
            self.placement = migrant.clone();
            self.current = cost;
            if cost.mu > self.best.mu {
                self.best = cost;
                self.best_placement = migrant.clone();
            }
        }
    }

    fn evaluations(&self) -> usize {
        self.evaluations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::HeuristicResult;
    use std::sync::Arc;
    use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};
    use vlsi_place::cost::Objectives;

    fn setup() -> (CostEvaluator, Placement) {
        let nl = Arc::new(
            CircuitGenerator::new(GeneratorConfig::sized("island_test", 100, 5)).generate(),
        );
        let eval = CostEvaluator::new(Arc::clone(&nl), Objectives::WirelengthPower);
        let p = Placement::round_robin(&nl, 6);
        (eval, p)
    }

    fn assert_matches_one_shot(stepped: &dyn Optimizer, one_shot: &HeuristicResult) {
        assert_eq!(
            stepped.best_cost().mu.to_bits(),
            one_shot.best_cost.mu.to_bits(),
            "{}: stepping must replay the one-shot decision sequence",
            stepped.name()
        );
        assert_eq!(
            stepped.evaluations(),
            one_shot.evaluations,
            "{}",
            stepped.name()
        );
        for row in 0..one_shot.best_placement.num_rows() {
            assert_eq!(
                stepped.best_placement().row(row),
                one_shot.best_placement.row(row),
                "{}: best placement differs in row {row}",
                stepped.name()
            );
        }
    }

    #[test]
    fn sa_island_steps_replay_the_one_shot_run() {
        let (eval, p) = setup();
        let cfg = SaConfig {
            temperature_steps: 7,
            ..SaConfig::fast(5)
        };
        let one_shot = SimulatedAnnealingPlacer::new(eval.clone(), cfg).run(p.clone());
        let mut island = SaIsland::new(eval, cfg, p);
        for _ in 0..cfg.temperature_steps {
            island.step();
        }
        assert_matches_one_shot(&island, &one_shot);
    }

    #[test]
    fn ga_island_steps_replay_the_one_shot_run() {
        let (eval, p) = setup();
        let cfg = GaConfig {
            generations: 9,
            ..GaConfig::fast(6, 5)
        };
        let one_shot = GeneticPlacer::new(eval.clone(), cfg).run(p.clone());
        let mut island = GaIsland::new(eval, cfg, p);
        for _ in 0..cfg.generations {
            island.step();
        }
        assert_matches_one_shot(&island, &one_shot);
    }

    #[test]
    fn tabu_island_steps_replay_the_one_shot_run() {
        let (eval, p) = setup();
        let cfg = TabuConfig {
            iterations: 8,
            ..TabuConfig::fast(5)
        };
        let one_shot = TabuSearchPlacer::new(eval.clone(), cfg).run(p.clone());
        let mut island = TabuIsland::new(eval, cfg, p);
        for _ in 0..cfg.iterations {
            island.step();
        }
        assert_matches_one_shot(&island, &one_shot);
    }

    #[test]
    fn islands_adopt_better_migrants_and_ignore_worse_ones() {
        let (eval, _) = setup();
        // Start from a deliberately poor random placement and manufacture a
        // strictly better migrant by running SA for a while.
        let p = Placement::random(eval.netlist(), 6, &mut ChaCha8Rng::seed_from_u64(99));
        let better = SimulatedAnnealingPlacer::new(eval.clone(), SaConfig::fast(11)).run(p.clone());
        let better_cost = better.best_cost;
        let initial_cost = eval.evaluate(&p);
        assert!(better_cost.mu > initial_cost.mu, "SA must improve here");

        let islands: Vec<Box<dyn Optimizer>> = vec![
            Box::new(SaIsland::new(eval.clone(), SaConfig::fast(1), p.clone())),
            Box::new(GaIsland::new(eval.clone(), GaConfig::fast(6, 1), p.clone())),
            Box::new(TabuIsland::new(
                eval.clone(),
                TabuConfig::fast(1),
                p.clone(),
            )),
        ];
        for mut island in islands {
            let before = island.best_cost().mu;
            // A migrant equal to the island's own start must change nothing.
            island.receive(&p, initial_cost);
            assert_eq!(island.best_cost().mu.to_bits(), before.to_bits());
            // A strictly better migrant must raise the island's best.
            island.receive(&better.best_placement, better_cost);
            assert!(
                island.best_cost().mu >= better_cost.mu - 1e-9,
                "{}: migrant not adopted",
                island.name()
            );
        }
    }

    #[test]
    fn receiving_does_not_touch_the_rng_stream() {
        let (eval, p) = setup();
        let mut plain = TabuIsland::new(eval.clone(), TabuConfig::fast(3), p.clone());
        let mut fed = TabuIsland::new(eval, TabuConfig::fast(3), p);
        plain.step();
        fed.step();
        // Feeding a *worse* migrant (rejected) must leave the subsequent
        // trajectory bitwise identical: receive draws no variates.
        let worse_cost = CostBreakdown {
            mu: 0.0,
            ..fed.best_cost()
        };
        fed.receive(plain.best_placement(), worse_cost);
        for _ in 0..3 {
            plain.step();
            fed.step();
        }
        assert_eq!(plain.best_cost().mu.to_bits(), fed.best_cost().mu.to_bits());
        assert_eq!(plain.evaluations(), fed.evaluations());
    }

    #[test]
    fn islands_are_deterministic_per_seed() {
        let (eval, p) = setup();
        let mut a = GaIsland::new(eval.clone(), GaConfig::fast(6, 9), p.clone());
        let mut b = GaIsland::new(eval, GaConfig::fast(6, 9), p);
        for _ in 0..5 {
            a.step();
            b.step();
        }
        assert_eq!(a.best_cost().mu.to_bits(), b.best_cost().mu.to_bits());
    }
}
