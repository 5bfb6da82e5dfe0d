//! The bulk-synchronous epoch loop every strategy driver runs on.
//!
//! All of the paper's strategies (Figs. 2–6) share one shape: a master and
//! `p − 1` ranks step in epochs separated by barriers, and only the work
//! done between two barriers differs. [`Run::epochs`] owns everything else;
//! a driver keeps its set-up and its per-epoch fan-out, rank-ordered merge
//! and master step.

use crate::control::RunControl;
use crate::exec::{ExecBackend, Executor};
use crate::report::StrategyOutcome;
use cluster_sim::timeline::{ClusterConfig, ClusterTimeline};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sime_core::engine::{SimEEngine, SimEScratch};
use std::time::Instant;
use vlsi_place::cost::CostBreakdown;
use vlsi_place::layout::Placement;

/// The best solution seen so far, as the master holds it.
pub(crate) struct Best {
    pub(crate) cost: CostBreakdown,
    pub(crate) placement: Placement,
}

impl Best {
    /// Adopts `(cost, placement)` iff it strictly improves µ; returns whether
    /// it did. The placement is cloned only then.
    pub(crate) fn offer(&mut self, cost: CostBreakdown, placement: &Placement) -> bool {
        let improved = cost.mu > self.cost.mu;
        if improved {
            self.cost = cost;
            self.placement = placement.clone();
        }
        improved
    }
}

/// The master's side of a run, lent to the driver's set-up and to every
/// epoch step.
pub(crate) struct Master {
    pub(crate) timeline: ClusterTimeline,
    pub(crate) executor: Executor,
    /// The master RNG, already past the initial placement's draws.
    pub(crate) rng: ChaCha8Rng,
    pub(crate) best: Best,
}

/// The initial placement and the scratch it was priced on (whose cache is
/// therefore in sync with it).
pub(crate) struct Start {
    pub(crate) placement: Placement,
    pub(crate) scratch: SimEScratch,
}

/// One strategy run as its entry point received it: the engine, the
/// simulated cluster, the execution backend and the run control.
pub(crate) struct Run<'a>(
    pub(crate) &'a SimEEngine,
    pub(crate) ClusterConfig,
    pub(crate) &'a dyn ExecBackend,
    pub(crate) &'a dyn RunControl,
);

impl Run<'_> {
    /// Runs up to `iterations` epochs on `cluster.ranks` ranks.
    ///
    /// The loop checks the rank count (panicking with `min_ranks.1` below
    /// `min_ranks.0`), draws the initial placement from the master RNG
    /// (`ChaCha8Rng::seed_from_u64(seed)`), prices it once, and hands the
    /// master and the priced start to `setup`, which builds the driver's
    /// rank state and returns the epoch step `(epoch, master) -> µ`. The
    /// step offers its candidates to [`Master::best`]. After each step the µ
    /// joins the history and the control decides, once, whether the run goes
    /// on, so a stopped run is a bitwise prefix of the free run.
    pub(crate) fn epochs<S, E>(
        self,
        iterations: usize,
        min_ranks: (usize, &str),
        setup: S,
    ) -> StrategyOutcome
    where
        S: FnOnce(&mut Master, Start) -> E,
        E: FnMut(usize, &mut Master) -> f64,
    {
        let Run(engine, cluster, backend, control) = self;
        assert!(cluster.ranks >= min_ranks.0, "{}", min_ranks.1);
        let started = Instant::now();
        let mut rng = ChaCha8Rng::seed_from_u64(engine.config().seed);
        let placement = engine.initial_placement(&mut rng);
        let mut scratch = engine.new_scratch();
        let cost = engine.cost_with(&placement, &mut scratch);
        let mut master = Master {
            timeline: ClusterTimeline::new(cluster),
            executor: backend.executor(),
            rng,
            best: Best {
                cost,
                placement: placement.clone(),
            },
        };
        let mut step = setup(&mut master, Start { placement, scratch });

        let mut mu_history = Vec::new();
        for epoch in 0..iterations {
            let mu = step(epoch, &mut master);
            mu_history.push(mu);
            if !control.keep_going(epoch, mu, master.best.cost.mu) {
                break;
            }
        }

        StrategyOutcome {
            best_placement: master.best.placement,
            best_cost: master.best.cost,
            modeled_seconds: master.timeline.makespan(),
            comm: master.timeline.stats(),
            iterations: mu_history.len(),
            mu_history,
            wall_seconds: started.elapsed().as_secs_f64(),
            backend: backend.label(),
        }
    }
}
