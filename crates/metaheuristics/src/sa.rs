//! Simulated Annealing baseline placer.
//!
//! A classical geometric-cooling SA over the swap/relocate move set, accepting
//! uphill moves with probability `exp(−Δ/T)` where the energy is `1 − µ(s)`
//! (so maximising the fuzzy quality). This mirrors the authors' serial SA
//! implementation lineage \[11\] closely enough for the qualitative comparison
//! of experiment E5.

use crate::common::{apply_move, neighbour_move, CostCache, HeuristicResult};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use vlsi_place::cost::CostEvaluator;
use vlsi_place::layout::Placement;

/// Simulated Annealing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaConfig {
    /// Initial temperature (in units of the energy `1 − µ`).
    pub initial_temperature: f64,
    /// Geometric cooling factor per temperature step, in (0, 1).
    pub cooling: f64,
    /// Moves attempted at each temperature.
    pub moves_per_temperature: usize,
    /// Number of temperature steps.
    pub temperature_steps: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            initial_temperature: 0.05,
            cooling: 0.95,
            moves_per_temperature: 200,
            temperature_steps: 60,
            seed: 1,
        }
    }
}

impl SaConfig {
    /// A small configuration for tests.
    pub fn fast(seed: u64) -> Self {
        SaConfig {
            moves_per_temperature: 40,
            temperature_steps: 15,
            seed,
            ..Default::default()
        }
    }

    /// Checks the annealing-schedule invariants: the initial temperature must
    /// be strictly positive and the geometric cooling factor must lie in the
    /// open interval (0, 1). A configuration violating either would not
    /// anneal at all — `exp(−Δ/T)` degenerates and the walk is near-pure
    /// greedy — so it is rejected here instead of silently masked by the
    /// ε-clamp in [`acceptance_probability`] (which exists only for the
    /// legitimate T→0 tail of a *valid* schedule).
    pub fn validate(&self) -> Result<(), String> {
        // `is_finite` first so NaN (which fails every comparison) is
        // rejected too, without tripping over partial-order negation.
        if !self.initial_temperature.is_finite() || self.initial_temperature <= 0.0 {
            return Err(format!(
                "SaConfig: initial_temperature must be > 0, got {}",
                self.initial_temperature
            ));
        }
        if !self.cooling.is_finite() || self.cooling <= 0.0 || self.cooling >= 1.0 {
            return Err(format!(
                "SaConfig: cooling must lie in (0, 1), got {}",
                self.cooling
            ));
        }
        Ok(())
    }
}

/// The Metropolis acceptance probability for an energy change `delta` at
/// `temperature`: 1 for downhill or sideways moves (`delta <= 0`), else
/// `exp(−delta / max(T, ε))`. This is the exact rule the placer's run loop
/// draws against; it is exposed so the acceptance behaviour (monotone
/// non-decreasing in `T`, monotone non-increasing in `delta`) can be tested
/// directly.
pub fn acceptance_probability(delta: f64, temperature: f64) -> f64 {
    if delta <= 0.0 {
        1.0
    } else {
        (-delta / temperature.max(1e-12)).exp()
    }
}

/// Simulated Annealing placer over a shared [`CostEvaluator`].
#[derive(Debug, Clone)]
pub struct SimulatedAnnealingPlacer {
    evaluator: CostEvaluator,
    config: SaConfig,
}

impl SimulatedAnnealingPlacer {
    /// Creates a placer.
    ///
    /// # Panics
    ///
    /// Panics if the annealing schedule is invalid (see
    /// [`SaConfig::validate`]): `initial_temperature ≤ 0` or
    /// `cooling ∉ (0, 1)`.
    pub fn new(evaluator: CostEvaluator, config: SaConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("{msg}");
        }
        SimulatedAnnealingPlacer { evaluator, config }
    }

    /// Runs SA from the given initial placement.
    pub fn run(&self, initial: Placement) -> HeuristicResult {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut cost = CostCache::new(&self.evaluator);
        let mut placement = initial;
        let mut current = cost.evaluate(&self.evaluator, &placement);
        let mut best = current;
        let mut best_placement = placement.clone();
        let mut evaluations = 1usize;
        let mut mu_history = Vec::with_capacity(self.config.temperature_steps);

        let mut temperature = self.config.initial_temperature;
        for _ in 0..self.config.temperature_steps {
            for _ in 0..self.config.moves_per_temperature {
                let mv = neighbour_move(&placement, &mut rng);
                let undo = apply_move(&mut placement, mv);
                let candidate = cost.evaluate(&self.evaluator, &placement);
                evaluations += 1;
                let delta = (1.0 - candidate.mu) - (1.0 - current.mu);
                // Short-circuit keeps the RNG stream identical to the
                // pre-refactor placer: no variate is drawn for a downhill move.
                let accept =
                    delta <= 0.0 || rng.gen::<f64>() < acceptance_probability(delta, temperature);
                if accept {
                    current = candidate;
                    if current.mu > best.mu {
                        best = current;
                        best_placement = placement.clone();
                    }
                } else {
                    apply_move(&mut placement, undo);
                }
            }
            mu_history.push(best.mu);
            temperature *= self.config.cooling;
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
            Arc::new(CircuitGenerator::new(GeneratorConfig::sized("sa_test", 110, 5)).generate());
        let eval = CostEvaluator::new(Arc::clone(&nl), Objectives::WirelengthPower);
        let p = Placement::round_robin(&nl, 6);
        (eval, p)
    }

    #[test]
    fn sa_improves_or_preserves_quality() {
        let (eval, p) = setup();
        let initial_mu = eval.mu(&p);
        let placer = SimulatedAnnealingPlacer::new(eval.clone(), SaConfig::fast(3));
        let result = placer.run(p);
        assert!(result.best_mu() + 1e-12 >= initial_mu);
        result.best_placement.validate(eval.netlist()).unwrap();
    }

    #[test]
    fn sa_is_deterministic_per_seed() {
        let (eval, p) = setup();
        let a = SimulatedAnnealingPlacer::new(eval.clone(), SaConfig::fast(7)).run(p.clone());
        let b = SimulatedAnnealingPlacer::new(eval, SaConfig::fast(7)).run(p);
        assert_eq!(a.best_cost.mu, b.best_cost.mu);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn best_mu_history_is_monotone() {
        let (eval, p) = setup();
        let result = SimulatedAnnealingPlacer::new(eval, SaConfig::fast(9)).run(p);
        let mut last = 0.0;
        for &mu in &result.mu_history {
            assert!(mu + 1e-12 >= last);
            last = mu;
        }
        assert_eq!(result.mu_history.len(), SaConfig::fast(9).temperature_steps);
    }

    #[test]
    #[should_panic(expected = "initial_temperature must be > 0")]
    fn rejects_non_positive_initial_temperature() {
        let (eval, _) = setup();
        let cfg = SaConfig {
            initial_temperature: 0.0,
            ..SaConfig::fast(1)
        };
        let _ = SimulatedAnnealingPlacer::new(eval, cfg);
    }

    #[test]
    #[should_panic(expected = "cooling must lie in (0, 1)")]
    fn rejects_cooling_outside_the_open_unit_interval() {
        let (eval, _) = setup();
        let cfg = SaConfig {
            cooling: 1.0,
            ..SaConfig::fast(1)
        };
        let _ = SimulatedAnnealingPlacer::new(eval, cfg);
    }

    #[test]
    fn validate_covers_both_rejection_paths_and_accepts_defaults() {
        assert!(SaConfig::default().validate().is_ok());
        for bad_t in [0.0, -1.0, f64::NAN] {
            let cfg = SaConfig {
                initial_temperature: bad_t,
                ..SaConfig::default()
            };
            assert!(cfg.validate().unwrap_err().contains("initial_temperature"));
        }
        for bad_c in [0.0, 1.0, 1.5, -0.2, f64::NAN] {
            let cfg = SaConfig {
                cooling: bad_c,
                ..SaConfig::default()
            };
            assert!(cfg.validate().unwrap_err().contains("cooling"));
        }
        // The ε-clamp stays: a valid schedule's T→0 tail never divides by 0.
        assert!(acceptance_probability(0.1, 0.0).is_finite());
        assert_eq!(acceptance_probability(-0.1, 0.0), 1.0);
    }

    #[test]
    fn reported_best_cost_matches_best_placement() {
        let (eval, p) = setup();
        let result = SimulatedAnnealingPlacer::new(eval.clone(), SaConfig::fast(11)).run(p);
        let re = eval.evaluate(&result.best_placement);
        assert!((re.mu - result.best_cost.mu).abs() < 1e-12);
    }
}
