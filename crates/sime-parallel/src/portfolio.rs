//! Island-model optimizer portfolio with deterministic solution migration.
//!
//! The paper's question — which parallel *SimE organisation* wins at what
//! scale — generalises to racing *different optimizers* on the same circuit:
//! `N` islands, each running its own search (a serial SimE chain, or one of
//! the GA/SA/TS baselines from the `metaheuristics` crate), step in
//! bulk-synchronous **epochs** over the same execution backends as the
//! Type I/II/III drivers. At fixed epoch boundaries the islands exchange
//! their best solutions over a **ring**: island `i` receives the best-so-far
//! of island `(i − 1) mod N` and adopts it iff it improves on its own
//! current solution. The master additionally races the islands — the run's
//! µ(s) after an epoch is the best island quality, and an optional target µ
//! stops the whole portfolio as soon as any island reaches it.
//!
//! # Determinism (DESIGN.md §4 / §7)
//!
//! The portfolio driver inherits the contract of the other strategies:
//!
//! * every island draws only from its own seed-derived ChaCha8 stream
//!   (`seed ^ ((island + 1) << 48)`), owned by the island state that moves
//!   through the fan-out tasks;
//! * islands step as pure tasks and results merge in **island-index order**
//!   (the executor returns results in submission order);
//! * migration happens between epochs on the master's thread, from a
//!   snapshot of the island bests taken at the barrier, processed in island
//!   order; receiving never draws island RNG variates.
//!
//! Hence a portfolio run is bitwise identical across backends and worker
//! counts, and two migration-interval settings that fire on the same epoch
//! boundaries (e.g. both larger than the epoch count) replay identically.
//! Early stop — cooperative cancellation through [`RunControl`] or the
//! target µ — cuts at an epoch boundary, so a stopped run's trajectory is a
//! bitwise prefix of the free run's.

use crate::control::RunControl;
use crate::exec::{ExecBackend, Task};
use crate::report::{StrategyOutcome, BYTES_PER_CELL};
use cluster_sim::machine::Workload;
use cluster_sim::timeline::{ClusterConfig, ClusterTimeline};
use metaheuristics::optimizer::{EpochWork, GaIsland, Optimizer, SaIsland, TabuIsland};
use metaheuristics::{GaConfig, SaConfig, TabuConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use sime_core::engine::{SimEEngine, SimEScratch};
use sime_core::profile::ProfileReport;
use std::sync::Arc;
use std::time::Instant;
use vlsi_place::cost::CostBreakdown;
use vlsi_place::layout::Placement;

/// The optimizer an island runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IslandKind {
    /// A serial SimE chain (one full engine iteration per epoch).
    SimE,
    /// The Genetic Algorithm baseline (one generation per epoch).
    Ga,
    /// The Simulated Annealing baseline (one temperature step per epoch).
    Sa,
    /// The Tabu Search baseline (one iteration per epoch).
    Tabu,
}

impl IslandKind {
    /// Short stable label (`"sime"`, `"ga"`, `"sa"`, `"tabu"`).
    pub fn label(self) -> &'static str {
        match self {
            IslandKind::SimE => "sime",
            IslandKind::Ga => "ga",
            IslandKind::Sa => "sa",
            IslandKind::Tabu => "tabu",
        }
    }
}

/// Which optimizers the portfolio's islands cycle through, by island index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortfolioMix {
    /// SimE, GA, SA, TS, SimE, … — the full shoot-out (island 0 is SimE).
    Mixed,
    /// GA, SA, TS, GA, … — the classical baselines only, no SimE island.
    Baselines,
}

impl PortfolioMix {
    /// Short stable label used in strategy labels and golden files.
    pub fn label(self) -> &'static str {
        match self {
            PortfolioMix::Mixed => "mixed",
            PortfolioMix::Baselines => "baselines",
        }
    }

    /// The optimizer cycle the mix assigns islands from.
    pub fn cycle(self) -> &'static [IslandKind] {
        match self {
            PortfolioMix::Mixed => &[
                IslandKind::SimE,
                IslandKind::Ga,
                IslandKind::Sa,
                IslandKind::Tabu,
            ],
            PortfolioMix::Baselines => &[IslandKind::Ga, IslandKind::Sa, IslandKind::Tabu],
        }
    }

    /// The composition of an `islands`-rank portfolio: island `i` runs
    /// `cycle()[i % cycle().len()]`.
    pub fn composition(self, islands: usize) -> Vec<IslandKind> {
        let cycle = self.cycle();
        (0..islands).map(|i| cycle[i % cycle.len()]).collect()
    }
}

/// The migration interval scenario cells run with (epochs between ring
/// migrations). Part of the portfolio strategy definition for golden
/// purposes — see `DESIGN.md` §7.
pub const SCENARIO_MIGRATION_INTERVAL: usize = 2;

/// Configuration of a portfolio run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PortfolioConfig {
    /// Number of islands (= simulated ranks), at least 2.
    pub ranks: usize,
    /// Number of bulk-synchronous epochs.
    pub iterations: usize,
    /// Epochs between ring migrations (≥ 1). Intervals larger than the
    /// epoch count mean the islands never exchange solutions.
    pub migration_interval: usize,
    /// Racing target: stop the whole portfolio at the first epoch boundary
    /// where the best island quality reaches this µ(s).
    pub target_mu: Option<f64>,
    /// Which optimizers the islands cycle through.
    pub mix: PortfolioMix,
}

impl PortfolioConfig {
    /// The configuration scenario cells (goldens, the matrix, the job
    /// engine) run with: the pinned migration interval, no target µ.
    pub fn scenario(mix: PortfolioMix, ranks: usize, iterations: usize) -> Self {
        PortfolioConfig {
            ranks,
            iterations,
            migration_interval: SCENARIO_MIGRATION_INTERVAL,
            target_mu: None,
            mix,
        }
    }
}

/// Serial-SimE island: one full engine iteration (evaluation, selection,
/// allocation over all rows) per epoch, over the island's private RNG
/// stream and scratch. Defined here — not in `metaheuristics` — because it
/// needs the engine.
struct SimeIsland {
    engine: Arc<SimEEngine>,
    rng: ChaCha8Rng,
    scratch: SimEScratch,
    placement: Placement,
    current: CostBreakdown,
    frozen: Vec<bool>,
    rows: Vec<usize>,
    best: CostBreakdown,
    best_placement: Placement,
    evaluations: usize,
}

impl SimeIsland {
    fn new(engine: Arc<SimEEngine>, initial: Placement, seed: u64) -> Self {
        let mut scratch = engine.new_scratch();
        let current = engine.cost_with(&initial, &mut scratch);
        let num_rows = engine.config().num_rows;
        SimeIsland {
            rng: ChaCha8Rng::seed_from_u64(seed),
            scratch,
            frozen: vec![false; engine.evaluator().netlist().num_cells()],
            rows: (0..num_rows).collect(),
            best_placement: initial.clone(),
            placement: initial,
            current,
            best: current,
            evaluations: 1,
            engine,
        }
    }
}

impl Optimizer for SimeIsland {
    fn name(&self) -> &'static str {
        "sime"
    }

    fn step(&mut self) -> EpochWork {
        let mut profile = ProfileReport::new();
        let (_avg, _selected, alloc_stats) = self.engine.iterate(
            &mut self.placement,
            &mut self.scratch,
            &mut self.rng,
            &mut profile,
            &self.frozen,
            &self.rows,
        );
        self.current = self.engine.cost_with(&self.placement, &mut self.scratch);
        self.evaluations += 1;
        if self.current.mu > self.best.mu {
            self.best = self.current;
            self.best_placement = self.placement.clone();
        }
        let num_nets = self.engine.evaluator().netlist().num_nets() as u64;
        EpochWork {
            net_evaluations: alloc_stats.net_evaluations as u64 + num_nets,
            misc_operations: self.placement.num_cells() as u64 * 8,
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

/// Builds island `index` of a portfolio: the island's own RNG stream is
/// derived as `engine seed ^ ((index + 1) << 48)` — a namespace disjoint
/// from the Type II (`<< 32`) and Type III (`<< 40`) per-rank streams.
fn build_island(
    kind: IslandKind,
    index: usize,
    engine: &Arc<SimEEngine>,
    initial: &Placement,
) -> Box<dyn Optimizer> {
    let seed = engine.config().seed ^ ((index as u64 + 1) << 48);
    let num_rows = engine.config().num_rows;
    let evaluator = engine.evaluator().clone();
    match kind {
        IslandKind::SimE => Box::new(SimeIsland::new(Arc::clone(engine), initial.clone(), seed)),
        IslandKind::Ga => Box::new(GaIsland::new(
            evaluator,
            GaConfig {
                population: 16,
                num_rows,
                seed,
                ..GaConfig::default()
            },
            initial.clone(),
        )),
        IslandKind::Sa => Box::new(SaIsland::new(
            evaluator,
            SaConfig {
                moves_per_temperature: 120,
                seed,
                ..SaConfig::default()
            },
            initial.clone(),
        )),
        IslandKind::Tabu => Box::new(TabuIsland::new(
            evaluator,
            TabuConfig {
                seed,
                ..TabuConfig::default()
            },
            initial.clone(),
        )),
    }
}

/// Runs the island portfolio on an execution backend.
///
/// `control` observes every completed epoch and may end the run at that
/// boundary (pass [`crate::control::FreeRun`] to run all epochs); the
/// target µ (if configured) is checked at the same boundary. Either stop
/// yields a bitwise prefix of the free run (see the [module docs](self)).
pub fn run_portfolio(
    engine: &SimEEngine,
    cluster: ClusterConfig,
    config: PortfolioConfig,
    backend: &dyn ExecBackend,
    control: &dyn RunControl,
) -> StrategyOutcome {
    assert!(config.ranks >= 2, "a portfolio needs at least two islands");
    assert_eq!(
        cluster.ranks, config.ranks,
        "cluster configuration and portfolio configuration disagree on the rank count"
    );
    assert!(
        config.migration_interval >= 1,
        "the migration interval must be at least one epoch"
    );
    let started = Instant::now();
    let executor = backend.executor();

    let netlist = engine.evaluator().netlist().clone();
    let num_cells = netlist.num_cells();
    let placement_bytes = BYTES_PER_CELL * num_cells as u64 + 8 * engine.config().num_rows as u64;

    let mut timeline = ClusterTimeline::new(cluster);
    let mut master_rng = ChaCha8Rng::seed_from_u64(engine.config().seed);
    let initial = engine.initial_placement(&mut master_rng);
    // The master ships the common starting placement to every island.
    timeline.broadcast_tree(0, placement_bytes);

    let shared = Arc::new(engine.clone());
    let composition = config.mix.composition(config.ranks);
    let mut islands: Vec<Option<Box<dyn Optimizer>>> = composition
        .iter()
        .enumerate()
        .map(|(i, &kind)| Some(build_island(kind, i, &shared, &initial)))
        .collect();

    let mut best_cost = engine.evaluator().evaluate(&initial);
    let mut best_placement = initial.clone();
    let mut mu_history = Vec::new();

    for epoch in 0..config.iterations {
        // Fan out: every island advances one epoch as an independent task.
        let mut tasks: Vec<Task<(Box<dyn Optimizer>, EpochWork)>> =
            Vec::with_capacity(config.ranks);
        for slot in islands.iter_mut() {
            let mut island = slot.take().expect("island state in flight");
            tasks.push(Box::new(move || {
                let work = island.step();
                (island, work)
            }));
        }
        // Merge in island order (tasks were built in island order and the
        // executor returns results in submission order).
        let results = executor.run_tasks(tasks);
        for (rank, (island, work)) in results.into_iter().enumerate() {
            timeline.charge_compute(
                rank,
                &Workload {
                    net_evaluations: work.net_evaluations,
                    misc_operations: work.misc_operations,
                },
            );
            islands[rank] = Some(island);
        }

        // Race: every island reports its best µ (8 bytes) to the master;
        // the epoch's µ is the best island quality, ties to the lowest
        // island index.
        for rank in 1..config.ranks {
            timeline.send(rank, 0, 8);
        }
        let mut epoch_best_rank = 0usize;
        let mut epoch_best_mu = f64::NEG_INFINITY;
        for (rank, island) in islands.iter().enumerate() {
            let mu = island.as_ref().expect("island returned").best_cost().mu;
            if mu > epoch_best_mu {
                epoch_best_mu = mu;
                epoch_best_rank = rank;
            }
        }
        if epoch_best_mu > best_cost.mu {
            let winner = islands[epoch_best_rank].as_ref().expect("island returned");
            best_cost = winner.best_cost();
            best_placement = winner.best_placement().clone();
            // The improving island ships its solution to the master.
            if epoch_best_rank != 0 {
                timeline.send(epoch_best_rank, 0, placement_bytes);
            }
        }
        mu_history.push(epoch_best_mu);

        let target_hit = config.target_mu.is_some_and(|t| best_cost.mu >= t);
        if !control.keep_going(epoch, epoch_best_mu, best_cost.mu) || target_hit {
            break;
        }

        // Ring migration at interval boundaries (pointless after the final
        // epoch): island i adopts the barrier-snapshot best of island i−1,
        // processed in island-index order.
        if (epoch + 1) % config.migration_interval == 0 && epoch + 1 < config.iterations {
            let snapshot: Vec<(Placement, CostBreakdown)> = islands
                .iter()
                .map(|i| {
                    let i = i.as_ref().expect("island returned");
                    (i.best_placement().clone(), i.best_cost())
                })
                .collect();
            for (rank, island) in islands.iter_mut().enumerate() {
                let from = (rank + config.ranks - 1) % config.ranks;
                timeline.send(from, rank, placement_bytes);
                island
                    .as_mut()
                    .expect("island returned")
                    .receive(&snapshot[from].0, snapshot[from].1);
            }
        }
    }

    let iterations_run = mu_history.len();
    StrategyOutcome {
        best_placement,
        best_cost,
        modeled_seconds: timeline.makespan(),
        comm: timeline.stats(),
        iterations: iterations_run,
        mu_history,
        wall_seconds: started.elapsed().as_secs_f64(),
        backend: backend.label(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{CancelAfter, FreeRun};
    use crate::exec::{Modeled, Threaded};
    use sime_core::engine::SimEConfig;
    use std::sync::Arc;
    use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};
    use vlsi_place::cost::Objectives;

    fn engine(iterations: usize) -> SimEEngine {
        let nl = Arc::new(
            CircuitGenerator::new(GeneratorConfig::sized("portfolio_test", 140, 9)).generate(),
        );
        SimEEngine::new(
            nl,
            SimEConfig::paper_defaults(Objectives::WirelengthPower, 8, iterations),
        )
    }

    fn cfg(ranks: usize, iterations: usize) -> PortfolioConfig {
        PortfolioConfig {
            ranks,
            iterations,
            migration_interval: 2,
            target_mu: None,
            mix: PortfolioMix::Mixed,
        }
    }

    fn assert_outcomes_bitwise_equal(a: &StrategyOutcome, b: &StrategyOutcome, context: &str) {
        assert_eq!(a.mu_history.len(), b.mu_history.len(), "{context}");
        for (i, (x, y)) in a.mu_history.iter().zip(&b.mu_history).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{context}: µ diverges at epoch {i}"
            );
        }
        assert_eq!(
            a.best_cost.mu.to_bits(),
            b.best_cost.mu.to_bits(),
            "{context}"
        );
        assert_eq!(a.modeled_seconds, b.modeled_seconds, "{context}");
        assert_eq!(a.comm, b.comm, "{context}");
        for row in 0..a.best_placement.num_rows() {
            assert_eq!(
                a.best_placement.row(row),
                b.best_placement.row(row),
                "{context}: best placement differs in row {row}"
            );
        }
    }

    #[test]
    fn composition_cycles_the_mix() {
        assert_eq!(
            PortfolioMix::Mixed.composition(5),
            vec![
                IslandKind::SimE,
                IslandKind::Ga,
                IslandKind::Sa,
                IslandKind::Tabu,
                IslandKind::SimE
            ]
        );
        assert_eq!(
            PortfolioMix::Baselines.composition(4),
            vec![
                IslandKind::Ga,
                IslandKind::Sa,
                IslandKind::Tabu,
                IslandKind::Ga
            ]
        );
        for kind in [
            IslandKind::SimE,
            IslandKind::Ga,
            IslandKind::Sa,
            IslandKind::Tabu,
        ] {
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn portfolio_produces_a_legal_placement_and_monotone_history() {
        let engine = engine(4);
        let outcome = run_portfolio(
            &engine,
            ClusterConfig::paper_cluster(4),
            cfg(4, 4),
            &Modeled,
            &FreeRun,
        );
        outcome
            .best_placement
            .validate(engine.evaluator().netlist())
            .unwrap();
        assert!(outcome.best_mu() > 0.0 && outcome.best_mu() <= 1.0);
        assert_eq!(outcome.mu_history.len(), 4);
        let mut last = f64::NEG_INFINITY;
        for &mu in &outcome.mu_history {
            assert!(mu >= last, "race µ must be monotone");
            last = mu;
        }
    }

    #[test]
    fn portfolio_backends_agree_bitwise() {
        let engine = engine(3);
        let config = cfg(4, 3);
        let modeled = run_portfolio(
            &engine,
            ClusterConfig::paper_cluster(4),
            config,
            &Modeled,
            &FreeRun,
        );
        for workers in [1, 2, 4] {
            let threaded = run_portfolio(
                &engine,
                ClusterConfig::paper_cluster(4),
                config,
                &Threaded::new(workers),
                &FreeRun,
            );
            assert_outcomes_bitwise_equal(&modeled, &threaded, &format!("workers={workers}"));
        }
    }

    #[test]
    fn migration_intervals_beyond_the_horizon_replay_identically() {
        // Two interval settings that fire on the same epoch boundaries (here:
        // none at all, both beyond the epoch count) must be bitwise equal.
        let engine = engine(3);
        let a = run_portfolio(
            &engine,
            ClusterConfig::paper_cluster(3),
            PortfolioConfig {
                migration_interval: 5,
                ..cfg(3, 3)
            },
            &Modeled,
            &FreeRun,
        );
        let b = run_portfolio(
            &engine,
            ClusterConfig::paper_cluster(3),
            PortfolioConfig {
                migration_interval: 97,
                ..cfg(3, 3)
            },
            &Modeled,
            &FreeRun,
        );
        assert_outcomes_bitwise_equal(&a, &b, "intervals 5 vs 97 over 3 epochs");
    }

    #[test]
    fn portfolio_cancelled_run_is_a_bitwise_prefix() {
        let engine = engine(5);
        let config = cfg(3, 5);
        let full = run_portfolio(
            &engine,
            ClusterConfig::paper_cluster(3),
            config,
            &Modeled,
            &FreeRun,
        );
        let cut = run_portfolio(
            &engine,
            ClusterConfig::paper_cluster(3),
            config,
            &Modeled,
            &CancelAfter(2),
        );
        assert_eq!(cut.iterations, 3, "stops after the boundary epoch");
        for (a, b) in cut.mu_history.iter().zip(&full.mu_history) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn target_mu_stops_the_race_early_with_a_prefix_trajectory() {
        let engine = engine(5);
        let config = cfg(4, 5);
        let full = run_portfolio(
            &engine,
            ClusterConfig::paper_cluster(4),
            config,
            &Modeled,
            &FreeRun,
        );
        assert_eq!(full.iterations, 5);
        // Aim for the quality the free run reached after its second epoch:
        // the raced run must stop at (or before) that boundary, bitwise on
        // the shared prefix.
        let target = full.mu_history[1];
        let raced = run_portfolio(
            &engine,
            ClusterConfig::paper_cluster(4),
            PortfolioConfig {
                target_mu: Some(target),
                ..config
            },
            &Modeled,
            &FreeRun,
        );
        assert!(raced.iterations <= 2, "target must stop the run early");
        assert!(raced.best_mu() >= target);
        for (a, b) in raced.mu_history.iter().zip(&full.mu_history) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn portfolio_is_deterministic_across_reruns() {
        let engine = engine(3);
        let config = cfg(5, 3);
        let a = run_portfolio(
            &engine,
            ClusterConfig::paper_cluster(5),
            config,
            &Modeled,
            &FreeRun,
        );
        let b = run_portfolio(
            &engine,
            ClusterConfig::paper_cluster(5),
            config,
            &Modeled,
            &FreeRun,
        );
        assert_outcomes_bitwise_equal(&a, &b, "rerun");
    }

    #[test]
    #[should_panic(expected = "at least two islands")]
    fn rejects_single_island() {
        let engine = engine(1);
        run_portfolio(
            &engine,
            ClusterConfig::paper_cluster(1),
            cfg(1, 1),
            &Modeled,
            &FreeRun,
        );
    }

    #[test]
    #[should_panic(expected = "migration interval")]
    fn rejects_zero_migration_interval() {
        let engine = engine(1);
        run_portfolio(
            &engine,
            ClusterConfig::paper_cluster(2),
            PortfolioConfig {
                migration_interval: 0,
                ..cfg(2, 1)
            },
            &Modeled,
            &FreeRun,
        );
    }
}
