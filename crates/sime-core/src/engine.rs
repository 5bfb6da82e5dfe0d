//! The SimE main loop (Figure 1 of the paper).

use crate::allocation::{allocate_all, AllocScratch, AllocationConfig, AllocationStats};
use crate::profile::{Phase, ProfileReport};
use crate::selection::{select, selectable_average, SelectionScheme};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;
use vlsi_netlist::{CellId, Netlist};
use vlsi_place::cost::{CostBreakdown, CostEvaluator, Objectives};
use vlsi_place::goodness::{GoodnessEvaluator, GoodnessScratch};
use vlsi_place::kernel::NetLengthCache;
use vlsi_place::layout::Placement;

/// Per-worker mutable state of a SimE run: the allocation scratch buffers
/// (including the allocation-free [`vlsi_place::kernel::TrialScorer`]) and
/// the incremental [`NetLengthCache`].
///
/// The engine itself stays immutable and shareable (`&SimEEngine` is all the
/// parallel strategies hold); every thread of execution owns one
/// `SimEScratch` and passes it to [`SimEEngine::iterate`] /
/// [`SimEEngine::evaluate_with`]. The scratch never influences results —
/// every number produced through it is bitwise identical to the naive
/// [`SimEEngine::evaluate`] oracle — it only removes per-call allocations and
/// redundant net re-evaluations.
#[derive(Debug, Clone)]
pub struct SimEScratch {
    /// Allocation buffers + trial scorer.
    pub alloc: AllocScratch,
    /// Incremental per-net length cache (delta evaluation across iterations).
    pub cache: NetLengthCache,
    /// Buffers of the kernel goodness pass.
    eval: GoodnessScratch,
    /// Reused per-cell goodness buffer.
    goodness: Vec<f64>,
    /// Per-cell goodness values computed by Evaluation steps (telemetry).
    goodness_cells_evaluated: u64,
    /// Reused merge buffer for the caller's `frozen` mask and the engine's
    /// fixed-cell mask (mixed-size circuits only; stays empty otherwise).
    frozen_merge: Vec<bool>,
}

impl SimEScratch {
    /// Creates scratch space for an engine's evaluator.
    pub fn for_engine(engine: &SimEEngine) -> Self {
        SimEScratch {
            alloc: AllocScratch::for_evaluator(engine.evaluator()),
            cache: NetLengthCache::new(),
            eval: GoodnessScratch::for_evaluator(engine.evaluator()),
            goodness: Vec::new(),
            goodness_cells_evaluated: 0,
            frozen_merge: Vec::new(),
        }
    }

    /// Number of per-cell goodness values the Evaluation steps run on this
    /// scratch have computed: every selectable cell (neither frozen nor
    /// fixed) once per Evaluation. Pure telemetry; the name predates the
    /// removal of the incremental goodness pass and is kept for the
    /// benchmark that reads it.
    pub fn goodness_delta_recomputes(&self) -> u64 {
        self.goodness_cells_evaluated
    }
}

/// When the SimE loop stops.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoppingCriteria {
    /// Hard iteration limit.
    pub max_iterations: usize,
    /// Stop early when the best quality has not improved for this many
    /// consecutive iterations (`None` disables the check).
    pub stall_iterations: Option<usize>,
    /// Stop early when the average goodness reaches this value (`None`
    /// disables the check).
    pub target_avg_goodness: Option<f64>,
}

impl StoppingCriteria {
    /// Run for exactly `n` iterations (the schedule the paper uses for its
    /// tables, which fixes the iteration count per configuration).
    pub fn fixed(n: usize) -> Self {
        StoppingCriteria {
            max_iterations: n,
            stall_iterations: None,
            target_avg_goodness: None,
        }
    }
}

impl Default for StoppingCriteria {
    fn default() -> Self {
        StoppingCriteria {
            max_iterations: 1000,
            stall_iterations: Some(200),
            target_avg_goodness: None,
        }
    }
}

/// Configuration of a serial SimE run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimEConfig {
    /// Objectives of the cost function.
    pub objectives: Objectives,
    /// Number of placement rows.
    pub num_rows: usize,
    /// Selection scheme (biasless by default, as in the paper).
    pub selection: SelectionScheme,
    /// Allocation configuration (windowed sorted individual best fit).
    pub allocation: AllocationConfig,
    /// Stopping criteria.
    pub stopping: StoppingCriteria,
    /// RNG seed for the run.
    pub seed: u64,
}

impl SimEConfig {
    /// A configuration with the paper's defaults for the given objectives,
    /// row count and iteration budget.
    pub fn paper_defaults(objectives: Objectives, num_rows: usize, iterations: usize) -> Self {
        SimEConfig {
            objectives,
            num_rows,
            selection: SelectionScheme::Biasless,
            allocation: AllocationConfig::default(),
            stopping: StoppingCriteria::fixed(iterations),
            seed: 1,
        }
    }
}

/// Statistics of one SimE iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationStats {
    /// Iteration number (0-based).
    pub iteration: usize,
    /// Quality `µ(s)` of the solution after the iteration.
    pub mu: f64,
    /// Best quality seen so far in the run.
    pub best_mu: f64,
    /// Average combined goodness before the iteration's allocation.
    pub avg_goodness: f64,
    /// Size of the selection set.
    pub selected: usize,
    /// Cost breakdown after the iteration.
    pub cost: CostBreakdown,
    /// Allocation work performed in the iteration.
    pub allocation: AllocationStats,
}

/// Result of a SimE run.
#[derive(Debug, Clone)]
pub struct SimEResult {
    /// The best placement found.
    pub best_placement: Placement,
    /// Cost breakdown of the best placement.
    pub best_cost: CostBreakdown,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Per-iteration statistics.
    pub history: Vec<IterationStats>,
    /// Operator-level profile of the run.
    pub profile: ProfileReport,
}

impl SimEResult {
    /// Quality `µ(s)` of the best placement.
    pub fn best_mu(&self) -> f64 {
        self.best_cost.mu
    }
}

/// Serial Simulated Evolution engine.
///
/// The engine is deliberately stateless across iterations (the placement is
/// the only evolving state), so the parallel strategies can reuse
/// [`SimEEngine::evaluate`], [`SimEEngine::iterate`] and the operators
/// directly on their own placements.
#[derive(Debug, Clone)]
pub struct SimEEngine {
    evaluator: CostEvaluator,
    goodness: GoodnessEvaluator,
    config: SimEConfig,
    /// Total pin count, used as the goodness-evaluation work estimate.
    pins: u64,
    /// Per-cell fixed mask, `true` for pads and macros that Selection must
    /// never pick. Empty when the netlist has no fixed cells, so the
    /// fixed-free path (including its RNG stream) is bitwise unchanged.
    fixed_frozen: Vec<bool>,
    /// Warm-start placement: when set, [`SimEEngine::initial_placement`]
    /// returns a clone of it instead of drawing a random deal.
    initial: Option<Arc<Placement>>,
}

impl SimEEngine {
    /// Builds an engine (and its cost/goodness evaluators) for a netlist.
    ///
    /// The fuzzy goal multiples are calibrated to the circuit (see
    /// `calibrate_fuzzy`) so the quality measure `µ(s)` keeps discriminating
    /// on circuits whose achievable cost-to-lower-bound ratios exceed the
    /// defaults.
    pub fn new(netlist: Arc<Netlist>, config: SimEConfig) -> Self {
        let evaluator = CostEvaluator::new(netlist, config.objectives);
        let evaluator = Self::calibrate_fuzzy(evaluator, config.num_rows);
        Self::from_evaluator(evaluator, config)
    }

    /// Scales the fuzzy goal multiples to the circuit when the defaults are
    /// too tight for it.
    ///
    /// The per-net lower bounds assume every net packed contiguously in one
    /// row; how far real placements sit above them grows with circuit size,
    /// so a fixed goal multiple that discriminates well on the paper-sized
    /// circuits pins the memberships (and with them `µ(s)`) to the
    /// width-only floor on the larger extended-tier circuits. As a
    /// deterministic, placement-quality yardstick this uses the round-robin
    /// placement (`Φ_rr`, the same layout the interchange importer and the
    /// bounds tests use): per objective, with `r = cost(Φ_rr) / lower_bound`,
    /// when `2r ≥ goal_default` the goal becomes `2.5 r` — round-robin is a
    /// mediocre placement, SimE converges to roughly `r/2`…`r` of the bound,
    /// so `2.5 r` keeps converged placements inside the linear membership
    /// band — and otherwise the default stays, which keeps every paper-tier
    /// circuit (whose ratios sit far below the defaults) bitwise unchanged.
    fn calibrate_fuzzy(evaluator: CostEvaluator, num_rows: usize) -> CostEvaluator {
        let yardstick = Placement::round_robin(evaluator.netlist(), num_rows);
        let cost = evaluator.evaluate(&yardstick);
        let bounds = evaluator.bounds();
        let mut fuzzy = *evaluator.fuzzy();
        let calibrate = |goal: &mut f64, cost: f64, lower: f64| {
            if lower > 0.0 {
                let ratio = cost / lower;
                if ratio * 2.0 >= *goal {
                    *goal = ratio * 2.5;
                }
            }
        };
        calibrate(
            &mut fuzzy.goal_wirelength,
            cost.wirelength,
            bounds.wirelength_lower,
        );
        calibrate(&mut fuzzy.goal_power, cost.power, bounds.power_lower);
        if evaluator.objectives().includes_delay() {
            calibrate(&mut fuzzy.goal_delay, cost.delay, bounds.delay_lower);
        }
        evaluator.with_fuzzy(fuzzy)
    }

    /// Builds an engine on top of an existing cost evaluator (so several
    /// engines can share the extracted paths and bounds).
    pub fn from_evaluator(evaluator: CostEvaluator, config: SimEConfig) -> Self {
        let pins = evaluator.netlist().stats().pins as u64;
        let goodness = GoodnessEvaluator::new(evaluator.clone());
        let netlist = evaluator.netlist();
        let fixed_frozen = if netlist.has_fixed_cells() {
            netlist.cells().iter().map(|c| c.fixed).collect()
        } else {
            Vec::new()
        };
        SimEEngine {
            evaluator,
            goodness,
            config,
            pins,
            fixed_frozen,
            initial: None,
        }
    }

    /// Installs a warm-start placement: [`SimEEngine::initial_placement`]
    /// (and through it [`SimEEngine::run`] and every strategy driver) will
    /// start from a clone of `initial` instead of a random deal, without
    /// consuming any randomness for the initial placement.
    #[must_use]
    pub fn with_initial(mut self, initial: Arc<Placement>) -> Self {
        self.initial = Some(initial);
        self
    }

    /// The cost evaluator.
    pub fn evaluator(&self) -> &CostEvaluator {
        &self.evaluator
    }

    /// The goodness evaluator.
    pub fn goodness(&self) -> &GoodnessEvaluator {
        &self.goodness
    }

    /// The run configuration.
    pub fn config(&self) -> &SimEConfig {
        &self.config
    }

    /// Generates the initial placement `Φ_initial`: a clone of the installed
    /// warm-start placement when [`SimEEngine::with_initial`] was called
    /// (consuming no randomness), otherwise a random deal drawn from `rng`.
    pub fn initial_placement<R: Rng + ?Sized>(&self, rng: &mut R) -> Placement {
        match &self.initial {
            Some(p) => Placement::clone(p),
            None => Placement::random(self.evaluator.netlist(), self.config.num_rows, rng),
        }
    }

    /// Creates the per-worker scratch space used by [`SimEEngine::iterate`]
    /// and [`SimEEngine::evaluate_with`].
    pub fn new_scratch(&self) -> SimEScratch {
        SimEScratch::for_engine(self)
    }

    /// The Evaluation step: per-net lengths and per-cell goodness.
    ///
    /// Reference (oracle) implementation: recomputes every net length from
    /// scratch and allocates the result vectors. The engine loop itself runs
    /// on [`SimEEngine::evaluate_with`], which produces bitwise-identical
    /// values through the incremental kernel; this method is kept as the
    /// ground truth for differential tests and one-shot callers.
    ///
    /// Returns `(net_lengths, goodness)` with the goodness of every cell,
    /// fixed ones included, and charges the cost-calculation and
    /// goodness-evaluation phases of `profile`.
    pub fn evaluate(
        &self,
        placement: &Placement,
        profile: &mut ProfileReport,
    ) -> (Vec<f64>, Vec<f64>) {
        let t0 = Instant::now();
        let net_lengths = self.evaluator.net_lengths(placement);
        profile.add_time(Phase::CostCalculation, t0.elapsed());
        profile.add_net_evals(Phase::CostCalculation, net_lengths.len() as u64);

        let t1 = Instant::now();
        let goodness = self.goodness.all_goodness(placement);
        profile.add_time(Phase::GoodnessEvaluation, t1.elapsed());
        profile.add_net_evals(Phase::GoodnessEvaluation, self.pins);

        self.profile_delay(&net_lengths, profile);

        (net_lengths, goodness)
    }

    /// The Evaluation step on the incremental kernel: refreshes the scratch's
    /// [`NetLengthCache`] (re-evaluating only nets dirtied since the last
    /// refresh) and fills the scratch goodness buffer for every selectable
    /// cell — those neither marked in `frozen` (empty: none) nor fixed.
    /// Entries of the other cells are unspecified. Bitwise identical to
    /// [`SimEEngine::evaluate`] on every selectable cell.
    ///
    /// The profile is charged the same *work counts* as the naive path — the
    /// counts model the algorithm's nominal workload, which is what the
    /// cluster simulation prices — so modeled runtimes are unaffected by the
    /// cache; only wall-clock time shrinks.
    pub fn evaluate_with<'s>(
        &self,
        placement: &Placement,
        scratch: &'s mut SimEScratch,
        profile: &mut ProfileReport,
        frozen: &[bool],
    ) -> (&'s [f64], &'s [f64]) {
        let mut merge = std::mem::take(&mut scratch.frozen_merge);
        self.evaluate_masked(
            placement,
            scratch,
            profile,
            self.unselectable(frozen, &mut merge),
        );
        scratch.frozen_merge = merge;
        (scratch.cache.lengths(), &scratch.goodness)
    }

    /// The caller's `frozen` mask merged with the engine's fixed-cell mask:
    /// `true` for every cell Selection must skip. Borrows whichever input
    /// already is the merge, so fixed-free circuits never copy a mask.
    fn unselectable<'a>(&'a self, frozen: &'a [bool], merge: &'a mut Vec<bool>) -> &'a [bool] {
        if self.fixed_frozen.is_empty() {
            frozen
        } else if frozen.is_empty() {
            &self.fixed_frozen
        } else {
            merge.clear();
            merge.extend(frozen.iter().zip(&self.fixed_frozen).map(|(&a, &b)| a || b));
            merge
        }
    }

    /// The body of [`SimEEngine::evaluate_with`] for an already merged
    /// `frozen` mask.
    fn evaluate_masked(
        &self,
        placement: &Placement,
        scratch: &mut SimEScratch,
        profile: &mut ProfileReport,
        frozen: &[bool],
    ) {
        let t0 = Instant::now();
        self.refresh(placement, scratch);
        profile.add_time(Phase::CostCalculation, t0.elapsed());
        profile.add_net_evals(Phase::CostCalculation, scratch.cache.lengths().len() as u64);

        let t1 = Instant::now();
        self.goodness.all_goodness_with(
            &mut scratch.eval,
            placement,
            scratch.cache.lengths(),
            frozen,
            &mut scratch.goodness,
        );
        profile.add_time(Phase::GoodnessEvaluation, t1.elapsed());
        profile.add_net_evals(Phase::GoodnessEvaluation, self.pins);
        let evaluated = if frozen.is_empty() {
            scratch.goodness.len()
        } else {
            frozen.iter().filter(|&&f| !f).count()
        };
        scratch.goodness_cells_evaluated += evaluated as u64;

        self.profile_delay(scratch.cache.lengths(), profile);
    }

    /// Brings `scratch.cache` in sync with `placement`, re-evaluating only
    /// the nets dirtied since the last refresh.
    fn refresh(&self, placement: &Placement, scratch: &mut SimEScratch) {
        scratch
            .cache
            .refresh(&self.evaluator, &mut scratch.alloc.scorer, placement);
    }

    /// Charges the delay-calculation phase (a full path sweep) when the delay
    /// objective is active; shared by both evaluation paths.
    fn profile_delay(&self, net_lengths: &[f64], profile: &mut ProfileReport) {
        if self.config.objectives.includes_delay() {
            let t2 = Instant::now();
            let _ = self.evaluator.delay_from_lengths(net_lengths);
            let path_nets: u64 = self
                .evaluator
                .paths()
                .iter()
                .map(|p| p.nets.len() as u64)
                .sum();
            profile.add_time(Phase::DelayCalculation, t2.elapsed());
            profile.add_net_evals(Phase::DelayCalculation, path_nets);
        }
    }

    /// Runs one full SimE iteration (Evaluation → Selection → Allocation) on
    /// `placement`.
    ///
    /// `frozen` marks cells that must not be selected and `allowed_rows`
    /// restricts allocation targets; both are empty for the serial algorithm
    /// and are used by the Type II row decomposition.
    pub fn iterate<R: Rng + ?Sized>(
        &self,
        placement: &mut Placement,
        scratch: &mut SimEScratch,
        rng: &mut R,
        profile: &mut ProfileReport,
        frozen: &[bool],
        allowed_rows: &[usize],
    ) -> (f64, usize, AllocationStats) {
        // Fixed cells (pads, macros) must never enter the selection set. The
        // fixed mask is empty on fixed-free circuits, so that path —
        // including its RNG stream — never merges masks.
        let mut merge = std::mem::take(&mut scratch.frozen_merge);
        let frozen = self.unselectable(frozen, &mut merge);
        self.evaluate_masked(placement, scratch, profile, frozen);
        let avg_goodness = selectable_average(&scratch.goodness, frozen);

        let t0 = Instant::now();
        let mut selected = select(&scratch.goodness, self.config.selection, rng, frozen);
        scratch.frozen_merge = merge;
        profile.add_time(Phase::Selection, t0.elapsed());

        let t1 = Instant::now();
        let alloc_stats = allocate_all(
            &self.evaluator,
            &mut scratch.alloc,
            placement,
            &mut selected,
            &scratch.goodness,
            &self.config.allocation,
            allowed_rows,
        );
        profile.add_time(Phase::Allocation, t1.elapsed());
        profile.add_net_evals(Phase::Allocation, alloc_stats.net_evaluations as u64);
        profile.trial_positions += alloc_stats.trial_positions as u64;
        profile.iterations += 1;

        (avg_goodness, selected.len(), alloc_stats)
    }

    /// Runs the full SimE loop from a fresh random initial placement.
    pub fn run(&self) -> SimEResult {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let initial = self.initial_placement(&mut rng);
        self.run_from(initial, &mut rng)
    }

    /// Runs the full SimE loop from the given initial placement, drawing
    /// randomness from `rng`.
    pub fn run_from<R: Rng + ?Sized>(&self, initial: Placement, rng: &mut R) -> SimEResult {
        let mut placement = initial;
        let mut profile = ProfileReport::new();
        let mut history = Vec::new();
        let mut scratch = self.new_scratch();

        let mut best_placement = placement.clone();
        // Priced on the scratch that goes on to iterate `placement`, so the
        // first iteration's refresh finds nothing to re-price.
        let mut best_cost = self.cost_with(&placement, &mut scratch);
        let mut stall = 0usize;

        let mut iterations = 0usize;
        for iteration in 0..self.config.stopping.max_iterations {
            let (avg_goodness, selected, alloc_stats) =
                self.iterate(&mut placement, &mut scratch, rng, &mut profile, &[], &[]);

            let cost = self.cost_with(&placement, &mut scratch);
            if cost.mu > best_cost.mu {
                best_cost = cost;
                best_placement = placement.clone();
                stall = 0;
            } else {
                stall += 1;
            }
            iterations = iteration + 1;

            history.push(IterationStats {
                iteration,
                mu: cost.mu,
                best_mu: best_cost.mu,
                avg_goodness,
                selected,
                cost,
                allocation: alloc_stats,
            });

            if let Some(limit) = self.config.stopping.stall_iterations {
                if stall >= limit {
                    break;
                }
            }
            if let Some(target) = self.config.stopping.target_avg_goodness {
                if avg_goodness >= target {
                    break;
                }
            }
        }

        SimEResult {
            best_placement,
            best_cost,
            iterations,
            history,
            profile,
        }
    }

    /// Full cost evaluation through the incremental kernel: refreshes the
    /// scratch's net-length cache (delta re-evaluation when the placement
    /// object is the one the cache is synchronised with) and aggregates the
    /// breakdown. Bitwise identical to `evaluator().evaluate(placement)`.
    pub fn cost_with(&self, placement: &Placement, scratch: &mut SimEScratch) -> CostBreakdown {
        self.refresh(placement, scratch);
        self.evaluator
            .evaluate_from_lengths(placement, scratch.cache.lengths())
    }

    /// Convenience: the frozen-cell mask for "only these cells are mine",
    /// used by the Type II decomposition.
    pub fn frozen_mask_from_owned(&self, owned: &[CellId]) -> Vec<bool> {
        let mut frozen = vec![true; self.evaluator.netlist().num_cells()];
        for &c in owned {
            frozen[c.index()] = false;
        }
        frozen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};

    fn netlist(cells: usize, seed: u64) -> Arc<Netlist> {
        Arc::new(
            CircuitGenerator::new(GeneratorConfig::sized("engine_test", cells, seed)).generate(),
        )
    }

    #[test]
    fn run_improves_quality() {
        let nl = netlist(150, 5);
        let config = SimEConfig::paper_defaults(Objectives::WirelengthPower, 8, 30);
        let engine = SimEEngine::new(nl, config);
        let result = engine.run();
        assert!(!result.history.is_empty());
        let initial_mu = result.history[0].mu;
        assert!(
            result.best_mu() >= initial_mu,
            "best mu {} must be >= first-iteration mu {}",
            result.best_mu(),
            initial_mu
        );
        // wirelength of the best-quality placement should not be meaningfully
        // above the first-iteration wirelength (the objectives are strongly
        // correlated, so a small tolerance covers trade-offs against power)
        let first_wl = result.history[0].cost.wirelength;
        assert!(result.best_cost.wirelength <= first_wl * 1.05);
    }

    #[test]
    fn run_is_deterministic_for_a_seed() {
        let nl = netlist(120, 6);
        let config = SimEConfig::paper_defaults(Objectives::WirelengthPower, 6, 10);
        let a = SimEEngine::new(Arc::clone(&nl), config).run();
        let b = SimEEngine::new(nl, config).run();
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.best_cost.wirelength, b.best_cost.wirelength);
        assert_eq!(a.best_cost.mu, b.best_cost.mu);
    }

    #[test]
    fn best_placement_is_legal_and_matches_reported_cost() {
        let nl = netlist(130, 7);
        let config = SimEConfig::paper_defaults(Objectives::WirelengthPowerDelay, 7, 15);
        let engine = SimEEngine::new(Arc::clone(&nl), config);
        let result = engine.run();
        result.best_placement.validate(&nl).unwrap();
        let re = engine.evaluator().evaluate(&result.best_placement);
        assert!((re.mu - result.best_cost.mu).abs() < 1e-12);
    }

    #[test]
    fn fixed_iteration_schedule_runs_exactly_n_iterations() {
        let nl = netlist(100, 8);
        let config = SimEConfig::paper_defaults(Objectives::WirelengthPower, 6, 12);
        let result = SimEEngine::new(nl, config).run();
        assert_eq!(result.iterations, 12);
        assert_eq!(result.history.len(), 12);
        assert_eq!(result.profile.iterations, 12);
    }

    #[test]
    fn stall_criterion_stops_early() {
        let nl = netlist(100, 9);
        let mut config = SimEConfig::paper_defaults(Objectives::WirelengthPower, 6, 500);
        config.stopping.stall_iterations = Some(3);
        let result = SimEEngine::new(nl, config).run();
        assert!(result.iterations < 500);
    }

    #[test]
    fn allocation_dominates_the_work_profile() {
        // Reproduces the Section 4 observation in terms of work counts, which
        // are deterministic (wall-clock fractions depend on the machine).
        let nl = netlist(200, 10);
        let config = SimEConfig::paper_defaults(Objectives::WirelengthPower, 8, 5);
        let result = SimEEngine::new(nl, config).run();
        let alloc = result.profile.work_fraction(Phase::Allocation);
        assert!(
            alloc > 0.85,
            "allocation should dominate the work profile, got {alloc}"
        );
    }

    #[test]
    fn history_best_mu_is_monotone() {
        let nl = netlist(120, 11);
        let config = SimEConfig::paper_defaults(Objectives::WirelengthPower, 6, 25);
        let result = SimEEngine::new(nl, config).run();
        let mut last = 0.0;
        for h in &result.history {
            assert!(h.best_mu + 1e-12 >= last);
            last = h.best_mu;
        }
    }

    #[test]
    fn target_goodness_stops_early() {
        let nl = netlist(100, 12);
        let mut config = SimEConfig::paper_defaults(Objectives::WirelengthPower, 6, 500);
        config.stopping.target_avg_goodness = Some(0.0); // trivially satisfied
        let result = SimEEngine::new(nl, config).run();
        assert_eq!(result.iterations, 1);
    }

    #[test]
    fn kernel_evaluation_matches_oracle_bitwise() {
        // The engine loop runs on evaluate_with/cost_with; they must agree
        // with the naive evaluate oracle to the bit across iterations.
        let nl = netlist(140, 21);
        let config = SimEConfig::paper_defaults(Objectives::WirelengthPowerDelay, 7, 1);
        let engine = SimEEngine::new(nl, config);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut placement = engine.initial_placement(&mut rng);
        let mut scratch = engine.new_scratch();
        for _ in 0..5 {
            let mut p1 = ProfileReport::new();
            let (naive_lengths, naive_goodness) = engine.evaluate(&placement, &mut p1);
            let mut p2 = ProfileReport::new();
            let (lengths, goodness) = engine.evaluate_with(&placement, &mut scratch, &mut p2, &[]);
            assert_eq!(naive_lengths.len(), lengths.len());
            for (a, b) in naive_lengths.iter().zip(lengths.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in naive_goodness.iter().zip(goodness.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            let naive_cost = engine.evaluator().evaluate(&placement);
            let cost = engine.cost_with(&placement, &mut scratch);
            assert_eq!(naive_cost.mu.to_bits(), cost.mu.to_bits());
            assert_eq!(naive_cost.wirelength.to_bits(), cost.wirelength.to_bits());
            // Mutate and go around again so the delta path is exercised.
            engine.iterate(&mut placement, &mut scratch, &mut rng, &mut p2, &[], &[]);
        }
        assert_eq!(
            scratch.cache.full_refreshes(),
            1,
            "in-place mutation must stay on the delta path"
        );
    }

    #[test]
    fn fuzzy_calibration_keeps_defaults_on_small_circuits() {
        // Paper-tier-sized circuits sit far below the default goal multiples;
        // the calibration must leave them bitwise untouched.
        use vlsi_place::fuzzy::FuzzyConfig;
        let nl = netlist(150, 43);
        let engine = SimEEngine::new(
            nl,
            SimEConfig::paper_defaults(Objectives::WirelengthPowerDelay, 7, 1),
        );
        assert_eq!(*engine.evaluator().fuzzy(), FuzzyConfig::default());
    }

    #[test]
    fn fuzzy_calibration_scales_goals_on_large_ratio_circuits() {
        // On a circuit whose round-robin cost-to-bound ratio crosses half the
        // default goal, the goal must become exactly 2.5x that ratio.
        use vlsi_netlist::bench_suite::{ExtendedCircuit, SuiteCircuit};
        use vlsi_place::fuzzy::FuzzyConfig;
        let circuit = SuiteCircuit::Extended(ExtendedCircuit::S9234);
        let nl = Arc::new(circuit.generate());
        let config = SimEConfig::paper_defaults(Objectives::WirelengthPower, circuit.num_rows(), 1);
        let engine = SimEEngine::new(Arc::clone(&nl), config);
        let fuzzy = *engine.evaluator().fuzzy();
        let defaults = FuzzyConfig::default();
        assert!(fuzzy.goal_wirelength > defaults.goal_wirelength);
        assert!(fuzzy.goal_power > defaults.goal_power);
        // Delay is not an active objective here: its goal stays the default.
        assert_eq!(fuzzy.goal_delay.to_bits(), defaults.goal_delay.to_bits());
        // The scaled goals are exactly 2.5x the measured round-robin ratio.
        let yardstick = Placement::round_robin(&nl, circuit.num_rows());
        let cost = engine.evaluator().evaluate(&yardstick);
        let bounds = engine.evaluator().bounds();
        let expect_wl = cost.wirelength / bounds.wirelength_lower * 2.5;
        let expect_pw = cost.power / bounds.power_lower * 2.5;
        assert_eq!(fuzzy.goal_wirelength.to_bits(), expect_wl.to_bits());
        assert_eq!(fuzzy.goal_power.to_bits(), expect_pw.to_bits());
    }

    #[test]
    fn scratch_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimEScratch>();
    }

    #[test]
    fn engine_is_send_and_sync() {
        // The threaded execution backend shares one engine across OS worker
        // threads (`Arc<SimEEngine>`) and hands each worker its own scratch;
        // both bounds are load-bearing for `sime_parallel::exec`.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimEEngine>();
        fn assert_send<T: Send>() {}
        assert_send::<Placement>();
        assert_send::<ChaCha8Rng>();
    }

    #[test]
    fn frozen_mask_marks_everything_but_owned() {
        let nl = netlist(80, 13);
        let engine = SimEEngine::new(
            nl,
            SimEConfig::paper_defaults(Objectives::WirelengthPower, 5, 1),
        );
        let owned = vec![CellId(0), CellId(5)];
        let mask = engine.frozen_mask_from_owned(&owned);
        assert!(!mask[0] && !mask[5]);
        assert!(mask[1] && mask[79]);
    }

    #[test]
    fn iterate_respects_frozen_and_allowed_rows() {
        let nl = netlist(100, 14);
        let config = SimEConfig::paper_defaults(Objectives::WirelengthPower, 6, 1);
        let engine = SimEEngine::new(Arc::clone(&nl), config);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut placement = engine.initial_placement(&mut rng);
        let before_rows: Vec<usize> = nl.cell_ids().map(|c| placement.row_of(c)).collect();

        // Freeze every cell except those currently in row 0; allocation may
        // only target rows 0 and 1.
        let owned: Vec<CellId> = nl
            .cell_ids()
            .filter(|&c| placement.row_of(c) == 0)
            .collect();
        let frozen = engine.frozen_mask_from_owned(&owned);
        let mut profile = ProfileReport::new();
        let mut scratch = engine.new_scratch();
        engine.iterate(
            &mut placement,
            &mut scratch,
            &mut rng,
            &mut profile,
            &frozen,
            &[0, 1],
        );
        placement.validate(&nl).unwrap();
        for c in nl.cell_ids() {
            if frozen[c.index()] {
                assert_eq!(
                    placement.row_of(c),
                    before_rows[c.index()],
                    "frozen cell {c} moved"
                );
            } else {
                assert!(placement.row_of(c) <= 1, "owned cell {c} left allowed rows");
            }
        }
    }
}
