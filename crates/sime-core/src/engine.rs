//! The SimE main loop (Figure 1 of the paper).

use crate::allocation::{allocate_all, AllocScratch, AllocationConfig, AllocationStats};
use crate::profile::{Phase, ProfileReport};
use crate::selection::{select, SelectionScheme};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;
use vlsi_netlist::{CellId, NetId, Netlist};
use vlsi_place::cost::{CostBreakdown, CostEvaluator, Objectives};
use vlsi_place::goodness::GoodnessEvaluator;
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
    /// Reused per-cell goodness buffer.
    goodness: Vec<f64>,
    /// Dirty-net plan buffer of the refresh.
    dirty_nets: Vec<NetId>,
    /// Whether `goodness` holds the per-cell values for the cache's current
    /// net lengths, except for the cells listed in `pending_cells`. `false`
    /// forces the next Evaluation to rebuild the whole vector.
    goodness_valid: bool,
    /// Cells whose cached goodness is stale (some incident net or some
    /// critical path through them was re-priced since the vector was last
    /// completed). Deduplicated via `cell_stamp`; accumulates across
    /// refreshes until the next goodness pass consumes it.
    pending_cells: Vec<CellId>,
    /// Per-cell membership stamps for `pending_cells` (`== cell_stamp_cur`
    /// means already pending).
    cell_stamp: Vec<u64>,
    /// Current pending-set stamp; advanced whenever `pending_cells` is
    /// consumed or discarded, which empties the set in O(1).
    cell_stamp_cur: u64,
    /// Cells recomputed through the incremental goodness path (telemetry for
    /// differential tests; the full rebuilds are not counted).
    goodness_delta_recomputes: u64,
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
            goodness: Vec::new(),
            dirty_nets: Vec::new(),
            goodness_valid: false,
            pending_cells: Vec::new(),
            cell_stamp: Vec::new(),
            cell_stamp_cur: 0,
            goodness_delta_recomputes: 0,
            frozen_merge: Vec::new(),
        }
    }

    /// Number of per-cell goodness values recomputed through the incremental
    /// (dirty-subset) path instead of a full rebuild. Pure telemetry — the
    /// values themselves are bitwise identical either way.
    pub fn goodness_delta_recomputes(&self) -> u64 {
        self.goodness_delta_recomputes
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
    /// Allocation configuration (sorted individual best fit by default).
    pub allocation: AllocationConfig,
    /// Stopping criteria.
    pub stopping: StoppingCriteria,
    /// RNG seed for the run.
    pub seed: u64,
    /// Carry the per-cell goodness vector across iterations and recompute
    /// only the cells invalidated by re-priced nets (and re-priced critical
    /// paths). Per-cell goodness is a pure function of the net lengths the
    /// cell reads, so the incremental pass is bitwise identical to the full
    /// per-iteration rebuild; `false` forces the legacy full pass (the A/B
    /// baseline of the perf reports).
    pub incremental_goodness: bool,
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
            incremental_goodness: true,
        }
    }

    /// A small/fast configuration for tests: strided allocation and few
    /// iterations.
    pub fn fast(objectives: Objectives, num_rows: usize, iterations: usize) -> Self {
        SimEConfig {
            objectives,
            num_rows,
            selection: SelectionScheme::Biasless,
            allocation: AllocationConfig {
                trial_stride: 4,
                ..Default::default()
            },
            stopping: StoppingCriteria::fixed(iterations),
            seed: 1,
            incremental_goodness: true,
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
    /// Returns `(net_lengths, goodness)` and charges the cost-calculation and
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
        let goodness = self.goodness.all_goodness_from_lengths(&net_lengths);
        profile.add_time(Phase::GoodnessEvaluation, t1.elapsed());
        profile.add_net_evals(Phase::GoodnessEvaluation, self.pins);

        self.profile_delay(&net_lengths, profile);

        (net_lengths, goodness)
    }

    /// The Evaluation step on the incremental kernel: refreshes the scratch's
    /// [`NetLengthCache`] (re-evaluating only nets dirtied since the last
    /// refresh) and fills the scratch goodness buffer. Bitwise identical to
    /// [`SimEEngine::evaluate`].
    ///
    /// The per-cell goodness pass — the dominant Evaluation cost on the
    /// extended tier — is incremental when
    /// [`SimEConfig::incremental_goodness`] is on: the goodness vector is
    /// carried in the scratch across iterations and only the cells
    /// invalidated by the re-priced nets (and, under the delay objective,
    /// re-priced critical paths) are recomputed. Per-cell goodness is a pure
    /// function of the net lengths the cell reads and untouched cells kept
    /// bit-identical lengths, so the result is bitwise identical to the full
    /// rebuild (invalidation rules in DESIGN.md §3a).
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
    ) -> (&'s [f64], &'s [f64]) {
        let t0 = Instant::now();
        self.refresh(placement, scratch);
        profile.add_time(Phase::CostCalculation, t0.elapsed());
        profile.add_net_evals(Phase::CostCalculation, scratch.cache.lengths().len() as u64);

        let t1 = Instant::now();
        let num_cells = self.evaluator.netlist().num_cells();
        let lengths: &[f64] = scratch.cache.lengths();
        let use_delta = self.config.incremental_goodness
            && scratch.goodness_valid
            && scratch.goodness.len() == num_cells;
        if use_delta {
            // Only the cells invalidated since the vector was last completed
            // are recomputed, in place.
            scratch.goodness_delta_recomputes += scratch.pending_cells.len() as u64;
            for &cell in &scratch.pending_cells {
                scratch.goodness[cell.index()] = self
                    .goodness
                    .cell_goodness_from_lengths(cell, lengths)
                    .combined;
            }
        } else {
            self.goodness
                .all_goodness_into(lengths, &mut scratch.goodness);
            scratch.goodness_valid = self.config.incremental_goodness;
        }
        // The vector is complete for the cache's current lengths: empty the
        // pending set (stamp advance keeps the dedup table consistent).
        scratch.pending_cells.clear();
        scratch.cell_stamp_cur = scratch.cell_stamp_cur.wrapping_add(1);
        profile.add_time(Phase::GoodnessEvaluation, t1.elapsed());
        profile.add_net_evals(Phase::GoodnessEvaluation, self.pins);

        self.profile_delay(scratch.cache.lengths(), profile);

        (scratch.cache.lengths(), &scratch.goodness)
    }

    /// Brings `scratch.cache` in sync with `placement`, re-evaluating only
    /// the nets dirtied since the last refresh. Bitwise identical to the
    /// monolithic [`NetLengthCache::refresh`].
    fn refresh(&self, placement: &Placement, scratch: &mut SimEScratch) {
        let mut dirty = std::mem::take(&mut scratch.dirty_nets);
        let full = scratch
            .cache
            .plan_refresh(&self.evaluator, placement, &mut dirty);
        if full {
            // Every net was re-priced (fresh scratch, placement swap, size
            // change): the carried goodness vector has no usable baseline.
            scratch.goodness_valid = false;
            scratch.pending_cells.clear();
            scratch.cell_stamp_cur = scratch.cell_stamp_cur.wrapping_add(1);
        } else if self.config.incremental_goodness && scratch.goodness_valid && !dirty.is_empty() {
            self.note_dirty_cells(scratch, &dirty);
        }
        for &net in &dirty {
            let length = scratch
                .alloc
                .scorer
                .net_length(&self.evaluator, placement, net);
            scratch.cache.store_length(net, length);
        }
        scratch.dirty_nets = dirty;
    }

    /// Marks every cell whose goodness may change when the `dirty` nets are
    /// re-priced: the cells incident to a dirty net, plus — under the delay
    /// objective — the cells of every stored critical path containing a dirty
    /// net (their delay goodness reads the path's total length). Cells are
    /// stamp-deduplicated into `scratch.pending_cells`, which accumulates
    /// across refreshes until the next goodness pass consumes it.
    fn note_dirty_cells(&self, scratch: &mut SimEScratch, dirty: &[NetId]) {
        let num_cells = self.evaluator.netlist().num_cells();
        if scratch.cell_stamp.len() != num_cells {
            scratch.cell_stamp.clear();
            scratch.cell_stamp.resize(num_cells, 0);
            // Stamp 0 is reserved as "never pending" for freshly zeroed slots.
            scratch.cell_stamp_cur = 1;
            scratch.pending_cells.clear();
        }
        let stamp = scratch.cell_stamp_cur;
        let include_paths = self.config.objectives.includes_delay();
        for &net in dirty {
            for &cell in self.evaluator.net_cells(net) {
                let i = cell.index();
                if scratch.cell_stamp[i] != stamp {
                    scratch.cell_stamp[i] = stamp;
                    scratch.pending_cells.push(cell);
                }
            }
            if include_paths {
                for &pi in self.evaluator.paths_through_net(net) {
                    for &cell in &self.evaluator.paths()[pi as usize].cells {
                        let i = cell.index();
                        if scratch.cell_stamp[i] != stamp {
                            scratch.cell_stamp[i] = stamp;
                            scratch.pending_cells.push(cell);
                        }
                    }
                }
            }
        }
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
        let (_net_lengths, goodness) = self.evaluate_with(placement, scratch, profile);
        let avg_goodness = goodness.iter().sum::<f64>() / goodness.len().max(1) as f64;
        let (selected, alloc_stats) = self.select_allocate_from_scratch(
            placement,
            scratch,
            rng,
            profile,
            frozen,
            allowed_rows,
        );
        (avg_goodness, selected, alloc_stats)
    }

    /// The Selection and Allocation steps of one iteration, driven by a
    /// caller-supplied combined-goodness vector instead of the engine's own
    /// Evaluation step.
    ///
    /// This is the master-side half of the Type I split: the slaves compute
    /// the partial goodness vectors, the master gathers them into `goodness`
    /// (one entry per cell, in cell-id order) and runs the unchanged serial
    /// Selection → Allocation pipeline. When `goodness` is bitwise identical
    /// to what [`SimEEngine::evaluate_with`] would produce — which the
    /// distributed evaluation guarantees, because both paths price every net
    /// with the same estimator — the resulting search trajectory is bitwise
    /// identical to [`SimEEngine::iterate`]'s.
    ///
    /// Consumes exactly the same RNG stream as the selection/allocation half
    /// of [`SimEEngine::iterate`]. Returns the selection-set size and the
    /// allocation work counts.
    #[allow(clippy::too_many_arguments)]
    pub fn select_and_allocate<R: Rng + ?Sized>(
        &self,
        placement: &mut Placement,
        scratch: &mut SimEScratch,
        goodness: &[f64],
        rng: &mut R,
        profile: &mut ProfileReport,
        frozen: &[bool],
        allowed_rows: &[usize],
    ) -> (usize, AllocationStats) {
        assert_eq!(
            goodness.len(),
            self.evaluator.netlist().num_cells(),
            "goodness vector must have one entry per cell"
        );
        scratch.goodness.clear();
        scratch.goodness.extend_from_slice(goodness);
        // The staged vector came from outside the engine's Evaluation step;
        // conservatively drop it as an incremental-goodness baseline (the
        // Type I master re-gathers a fresh vector every iteration anyway).
        scratch.goodness_valid = false;
        scratch.pending_cells.clear();
        scratch.cell_stamp_cur = scratch.cell_stamp_cur.wrapping_add(1);
        self.select_allocate_from_scratch(placement, scratch, rng, profile, frozen, allowed_rows)
    }

    /// Shared Selection → Allocation tail of [`SimEEngine::iterate`] and
    /// [`SimEEngine::select_and_allocate`]; reads the goodness vector already
    /// staged in `scratch.goodness`.
    fn select_allocate_from_scratch<R: Rng + ?Sized>(
        &self,
        placement: &mut Placement,
        scratch: &mut SimEScratch,
        rng: &mut R,
        profile: &mut ProfileReport,
        frozen: &[bool],
        allowed_rows: &[usize],
    ) -> (usize, AllocationStats) {
        let t0 = Instant::now();
        // Fixed cells (pads, macros) must never enter the selection set. The
        // mask is empty on fixed-free circuits, so that path — including its
        // RNG stream — is bitwise identical to the pre-mixed-size engine.
        let frozen = if self.fixed_frozen.is_empty() {
            frozen
        } else if frozen.is_empty() {
            &self.fixed_frozen
        } else {
            scratch.frozen_merge.clear();
            scratch
                .frozen_merge
                .extend(frozen.iter().zip(&self.fixed_frozen).map(|(&a, &b)| a || b));
            &scratch.frozen_merge
        };
        let mut selected = select(&scratch.goodness, self.config.selection, rng, frozen);
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
            rng,
        );
        profile.add_time(Phase::Allocation, t1.elapsed());
        profile.add_net_evals(Phase::Allocation, alloc_stats.net_evaluations as u64);
        profile.trial_positions += alloc_stats.trial_positions as u64;
        profile.iterations += 1;

        (selected.len(), alloc_stats)
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
        let mut best_cost = self.evaluator.evaluate(&placement);
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
        let config = SimEConfig::fast(Objectives::WirelengthPower, 8, 30);
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
        let config = SimEConfig::fast(Objectives::WirelengthPower, 6, 10);
        let a = SimEEngine::new(Arc::clone(&nl), config).run();
        let b = SimEEngine::new(nl, config).run();
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.best_cost.wirelength, b.best_cost.wirelength);
        assert_eq!(a.best_cost.mu, b.best_cost.mu);
    }

    #[test]
    fn best_placement_is_legal_and_matches_reported_cost() {
        let nl = netlist(130, 7);
        let config = SimEConfig::fast(Objectives::WirelengthPowerDelay, 7, 15);
        let engine = SimEEngine::new(Arc::clone(&nl), config);
        let result = engine.run();
        result.best_placement.validate(&nl).unwrap();
        let re = engine.evaluator().evaluate(&result.best_placement);
        assert!((re.mu - result.best_cost.mu).abs() < 1e-12);
    }

    #[test]
    fn fixed_iteration_schedule_runs_exactly_n_iterations() {
        let nl = netlist(100, 8);
        let config = SimEConfig::fast(Objectives::WirelengthPower, 6, 12);
        let result = SimEEngine::new(nl, config).run();
        assert_eq!(result.iterations, 12);
        assert_eq!(result.history.len(), 12);
        assert_eq!(result.profile.iterations, 12);
    }

    #[test]
    fn stall_criterion_stops_early() {
        let nl = netlist(100, 9);
        let mut config = SimEConfig::fast(Objectives::WirelengthPower, 6, 500);
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
        let config = SimEConfig::fast(Objectives::WirelengthPower, 6, 25);
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
        let mut config = SimEConfig::fast(Objectives::WirelengthPower, 6, 500);
        config.stopping.target_avg_goodness = Some(0.0); // trivially satisfied
        let result = SimEEngine::new(nl, config).run();
        assert_eq!(result.iterations, 1);
    }

    #[test]
    fn kernel_evaluation_matches_oracle_bitwise() {
        // The engine loop runs on evaluate_with/cost_with; they must agree
        // with the naive evaluate oracle to the bit across iterations.
        let nl = netlist(140, 21);
        let config = SimEConfig::fast(Objectives::WirelengthPowerDelay, 7, 1);
        let engine = SimEEngine::new(nl, config);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut placement = engine.initial_placement(&mut rng);
        let mut scratch = engine.new_scratch();
        for _ in 0..5 {
            let mut p1 = ProfileReport::new();
            let (naive_lengths, naive_goodness) = engine.evaluate(&placement, &mut p1);
            let mut p2 = ProfileReport::new();
            let (lengths, goodness) = engine.evaluate_with(&placement, &mut scratch, &mut p2);
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
        let engine = SimEEngine::new(nl, SimEConfig::fast(Objectives::WirelengthPowerDelay, 7, 1));
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
    fn incremental_goodness_matches_full_rebuild_bitwise() {
        // The carried goodness vector must reproduce the full per-iteration
        // rebuild exactly: same selection sizes, same goodness averages, same
        // cost bits, iteration by iteration.
        let nl = netlist(150, 41);
        let on = SimEConfig::fast(Objectives::WirelengthPowerDelay, 7, 12);
        assert!(on.incremental_goodness, "cache must be the default");
        let mut off = on;
        off.incremental_goodness = false;
        let a = SimEEngine::new(Arc::clone(&nl), on).run();
        let b = SimEEngine::new(nl, off).run();
        assert_eq!(a.iterations, b.iterations);
        for (ha, hb) in a.history.iter().zip(&b.history) {
            assert_eq!(ha.mu.to_bits(), hb.mu.to_bits());
            assert_eq!(ha.avg_goodness.to_bits(), hb.avg_goodness.to_bits());
            assert_eq!(ha.selected, hb.selected);
            assert_eq!(ha.cost.wirelength.to_bits(), hb.cost.wirelength.to_bits());
            assert_eq!(ha.cost.power.to_bits(), hb.cost.power.to_bits());
            assert_eq!(ha.cost.delay.to_bits(), hb.cost.delay.to_bits());
        }
    }

    #[test]
    fn incremental_goodness_recomputes_only_dirty_cells() {
        // The delta path must actually fire on steady-state iterations (the
        // scratch survives the interleaved cost refreshes of the run loop)
        // and must not degenerate into a full rebuild every iteration.
        let nl = netlist(140, 42);
        let config = SimEConfig::fast(Objectives::WirelengthPowerDelay, 7, 1);
        let engine = SimEEngine::new(nl, config);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut placement = engine.initial_placement(&mut rng);
        let mut scratch = engine.new_scratch();
        let mut profile = ProfileReport::new();
        let iters = 6u64;
        for _ in 0..iters {
            engine.iterate(
                &mut placement,
                &mut scratch,
                &mut rng,
                &mut profile,
                &[],
                &[],
            );
            engine.cost_with(&placement, &mut scratch);
        }
        let num_cells = engine.evaluator().netlist().num_cells() as u64;
        let delta = scratch.goodness_delta_recomputes();
        assert!(delta > 0, "the incremental goodness path never fired");
        assert!(
            delta < num_cells * iters,
            "the incremental path recomputed as much as full rebuilds would ({delta})"
        );
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
    fn select_and_allocate_matches_iterate_bitwise() {
        // Driving Selection → Allocation from an externally supplied goodness
        // vector (the Type I master path) must reproduce `iterate` exactly
        // when that vector equals the evaluation's output.
        let nl = netlist(150, 22);
        let config = SimEConfig::fast(Objectives::WirelengthPower, 7, 1);
        let engine = SimEEngine::new(nl, config);

        let mut rng_a = ChaCha8Rng::seed_from_u64(9);
        let mut rng_b = ChaCha8Rng::seed_from_u64(9);
        let mut placement_a = engine.initial_placement(&mut rng_a);
        let mut placement_b = engine.initial_placement(&mut rng_b);
        let mut scratch_a = engine.new_scratch();
        let mut scratch_b = engine.new_scratch();

        for _ in 0..4 {
            let mut profile_a = ProfileReport::new();
            let (_avg, sel_a, stats_a) = engine.iterate(
                &mut placement_a,
                &mut scratch_a,
                &mut rng_a,
                &mut profile_a,
                &[],
                &[],
            );

            // Reproduce the evaluation outside the engine, then hand the
            // goodness vector in through the split API.
            let mut profile_b = ProfileReport::new();
            let goodness: Vec<f64> = {
                let (_lengths, g) =
                    engine.evaluate_with(&placement_b, &mut scratch_b, &mut profile_b);
                g.to_vec()
            };
            let (sel_b, stats_b) = engine.select_and_allocate(
                &mut placement_b,
                &mut scratch_b,
                &goodness,
                &mut rng_b,
                &mut profile_b,
                &[],
                &[],
            );

            assert_eq!(sel_a, sel_b);
            assert_eq!(stats_a.net_evaluations, stats_b.net_evaluations);
            let cost_a = engine.cost_with(&placement_a, &mut scratch_a);
            let cost_b = engine.cost_with(&placement_b, &mut scratch_b);
            assert_eq!(cost_a.mu.to_bits(), cost_b.mu.to_bits());
            assert_eq!(cost_a.wirelength.to_bits(), cost_b.wirelength.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "one entry per cell")]
    fn select_and_allocate_rejects_mismatched_goodness() {
        let nl = netlist(80, 23);
        let engine = SimEEngine::new(nl, SimEConfig::fast(Objectives::WirelengthPower, 5, 1));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut placement = engine.initial_placement(&mut rng);
        let mut scratch = engine.new_scratch();
        let mut profile = ProfileReport::new();
        engine.select_and_allocate(
            &mut placement,
            &mut scratch,
            &[0.5; 3],
            &mut rng,
            &mut profile,
            &[],
            &[],
        );
    }

    #[test]
    fn frozen_mask_marks_everything_but_owned() {
        let nl = netlist(80, 13);
        let engine = SimEEngine::new(nl, SimEConfig::fast(Objectives::WirelengthPower, 5, 1));
        let owned = vec![CellId(0), CellId(5)];
        let mask = engine.frozen_mask_from_owned(&owned);
        assert!(!mask[0] && !mask[5]);
        assert!(mask[1] && mask[79]);
    }

    #[test]
    fn iterate_respects_frozen_and_allowed_rows() {
        let nl = netlist(100, 14);
        let config = SimEConfig::fast(Objectives::WirelengthPower, 6, 1);
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
