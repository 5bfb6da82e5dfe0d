//! Type III — cooperating parallel searches.
//!
//! Following Figure 6 of the paper, `p − 1` worker processors each run the
//! full serial SimE loop with a different random seed, starting from the same
//! initial solution, while a central processor (rank 0) keeps the best
//! solution found so far:
//!
//! * whenever a worker improves on its own best solution, it sends the new
//!   solution to the central store;
//! * each worker counts the consecutive iterations in which it failed to
//!   improve; when the count exceeds the *retry threshold*, it asks the
//!   central store for a better solution and adopts it if the store's is
//!   better than its own current one.
//!
//! There is no workload division, so the modeled runtime stays essentially at
//! the serial level (Table 4); the cooperative exchange can only help the
//! reached quality, and the paper observes that larger retry thresholds
//! (= more independence) tend to give better quality — SimE searches that are
//! differentiated only by their random seed are too similar for aggressive
//! sharing to pay off.
//!
//! Each worker's iteration depends only on its own placement, RNG stream and
//! scratch, so the workers' iterations fan out as independent tasks; the
//! central store then processes improvement reports and retry requests **in
//! worker order** at the iteration barrier, exactly as the modeled sequential
//! loop does. Under the `Threaded` backend this is the strategy with the most
//! host parallelism to harvest: `p − 1` full SimE iterations run concurrently
//! where the modeled backend executes them back to back.
//!
//! ```
//! use cluster_sim::timeline::ClusterConfig;
//! use sime_core::engine::{SimEConfig, SimEEngine};
//! use sime_parallel::control::FreeRun;
//! use sime_parallel::exec::{Modeled, Threaded};
//! use sime_parallel::type3::{run_type3, Type3Config};
//! use std::sync::Arc;
//! use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};
//! use vlsi_place::cost::Objectives;
//!
//! let netlist = Arc::new(
//!     CircuitGenerator::new(GeneratorConfig::sized("type3_doc", 120, 3)).generate(),
//! );
//! let engine = SimEEngine::new(netlist, SimEConfig::paper_defaults(Objectives::WirelengthPower, 6, 3));
//! let config = Type3Config { ranks: 3, iterations: 3, retry_threshold: 2 };
//! let cluster = ClusterConfig::paper_cluster(3);
//! let modeled = run_type3(&engine, cluster, config, &Modeled, &FreeRun);
//! let threaded = run_type3(&engine, cluster, config, &Threaded::new(2), &FreeRun);
//! assert_eq!(modeled.best_mu().to_bits(), threaded.best_mu().to_bits());
//! assert_eq!(modeled.modeled_seconds, threaded.modeled_seconds);
//! ```

use crate::control::RunControl;
use crate::exec::{ExecBackend, Task};
use crate::report::{StrategyOutcome, BYTES_PER_CELL};
use cluster_sim::machine::Workload;
use cluster_sim::timeline::{ClusterConfig, ClusterTimeline};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use sime_core::allocation::AllocationStats;
use sime_core::engine::{SimEEngine, SimEScratch};
use sime_core::profile::ProfileReport;
use std::sync::Arc;
use std::time::Instant;
use vlsi_place::cost::CostBreakdown;
use vlsi_place::layout::Placement;

/// Configuration of a Type III run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Type3Config {
    /// Number of processors (one central store + `ranks − 1` workers); the
    /// paper uses 3–5.
    pub ranks: usize,
    /// SimE iterations executed by every worker (2500 in Table 4).
    pub iterations: usize,
    /// Retry threshold: consecutive non-improving iterations before a worker
    /// consults the central store (50–200 in Table 4).
    pub retry_threshold: usize,
}

struct Worker {
    placement: Placement,
    current_cost: CostBreakdown,
    best_cost: CostBreakdown,
    best_placement: Placement,
    rng: ChaCha8Rng,
    fail_count: usize,
    /// Per-worker allocation scratch and net-length cache; each worker
    /// mutates its own placement in place, so its cache stays on the delta
    /// path between iterations (adopting the central solution clones a new
    /// placement and naturally forces a full refresh).
    scratch: SimEScratch,
}

/// What one worker's task sends back to the central store at the iteration
/// barrier: the worker state, its post-iteration cost and the allocation
/// work it performed.
type WorkerOutput = (Worker, CostBreakdown, AllocationStats);

/// Runs the Type III parallel SimE strategy on an execution backend.
///
/// Worker iterations fan out as independent tasks over seed-derived private
/// RNG streams (`seed ^ ((worker + 1) << 40)`); the central store then
/// applies improvement reports and retry adoptions in worker order, so every
/// backend — and any worker-thread count — produces bitwise identical
/// outcomes.
///
/// `control` observes every completed iteration and may end the run at that
/// boundary (see the [`crate::control`] docs for the exact call point and
/// the prefix-bitwise guarantee); pass [`crate::control::FreeRun`] to run
/// all `config.iterations`. [`StrategyOutcome::iterations`] reports the
/// iterations that actually ran.
pub fn run_type3(
    engine: &SimEEngine,
    cluster: ClusterConfig,
    config: Type3Config,
    backend: &dyn ExecBackend,
    control: &dyn RunControl,
) -> StrategyOutcome {
    assert!(
        config.ranks >= 3,
        "Type III needs a central store and at least two workers"
    );
    assert_eq!(
        cluster.ranks, config.ranks,
        "cluster configuration and strategy configuration disagree on the rank count"
    );
    let started = Instant::now();
    let executor = backend.executor();

    let netlist = engine.evaluator().netlist().clone();
    let placement_bytes = BYTES_PER_CELL * netlist.num_cells() as u64;
    let workers = config.ranks - 1;
    // Shallow: the copy shares every table of `engine`.
    let shared = Arc::new(engine.clone());

    let mut timeline = ClusterTimeline::new(cluster);

    // All searches start from the same initial solution but use different
    // randomisation seeds (Section 6.3).
    let mut seed_rng = ChaCha8Rng::seed_from_u64(engine.config().seed);
    let initial = engine.initial_placement(&mut seed_rng);
    // The initial solution is distributed to every worker once.
    timeline.broadcast_tree(0, placement_bytes);

    // Worker 0's copy of the start is priced on worker 0's own scratch, so
    // its cache starts in sync; the cost is the same for every worker.
    let mut first = (initial.clone(), engine.new_scratch());
    let initial_cost = engine.cost_with(&first.0, &mut first.1);
    let mut first = Some(first);
    let mut worker_state: Vec<Option<Worker>> = (0..workers)
        .map(|w| {
            let (placement, scratch) = first
                .take()
                .unwrap_or_else(|| (initial.clone(), engine.new_scratch()));
            Some(Worker {
                placement,
                current_cost: initial_cost,
                best_cost: initial_cost,
                best_placement: initial.clone(),
                rng: ChaCha8Rng::seed_from_u64(engine.config().seed ^ ((w as u64 + 1) << 40)),
                fail_count: 0,
                scratch,
            })
        })
        .collect();

    // The central store's best solution (kept on rank 0).
    let mut central_cost = initial_cost;
    let mut central_placement = initial.clone();
    let mut mu_history = Vec::new();

    for iteration in 0..config.iterations {
        // Fan out: every worker runs one full serial SimE iteration on its
        // own placement. The iteration reads nothing but the worker's own
        // state, which is what makes the barrier placement below exact.
        let tasks: Vec<Task<WorkerOutput>> = worker_state
            .iter_mut()
            .map(|slot| {
                let mut worker = slot.take().expect("worker state in flight");
                let engine = Arc::clone(&shared);
                Box::new(move || {
                    let mut profile = ProfileReport::new();
                    let (_avg, _selected, alloc_stats) = engine.iterate(
                        &mut worker.placement,
                        &mut worker.scratch,
                        &mut worker.rng,
                        &mut profile,
                        &[],
                        &[],
                    );
                    let cost = engine.cost_with(&worker.placement, &mut worker.scratch);
                    (worker, cost, alloc_stats)
                }) as Task<WorkerOutput>
            })
            .collect();
        let results = executor.run_tasks(tasks);

        // Barrier: the central store processes the workers in worker order —
        // improvement reports first update the store, then retry requests
        // read it, exactly as the paper's asynchronous exchange serialises at
        // the store.
        let mut best_mu_this_iteration: f64 = 0.0;
        for (w, (mut worker, cost, alloc_stats)) in results.into_iter().enumerate() {
            let rank = w + 1;
            // Full serial workload on the worker: evaluation + allocation.
            timeline.charge_compute(
                rank,
                &Workload {
                    net_evaluations: netlist.num_nets() as u64 + alloc_stats.net_evaluations as u64,
                    misc_operations: netlist.stats().pins as u64,
                },
            );

            worker.current_cost = cost;
            if cost.mu > worker.best_cost.mu {
                worker.best_cost = cost;
                worker.best_placement = worker.placement.clone();
                worker.fail_count = 0;
                // Inform the master of the new best solution.
                timeline.send(rank, 0, placement_bytes);
                if cost.mu > central_cost.mu {
                    central_cost = cost;
                    central_placement = worker.placement.clone();
                }
            } else {
                worker.fail_count += 1;
            }

            if worker.fail_count > config.retry_threshold {
                // Ask the central store whether a better solution exists.
                timeline.send(rank, 0, 16);
                timeline.send(0, rank, placement_bytes);
                if central_cost.mu > worker.current_cost.mu {
                    worker.placement = central_placement.clone();
                    worker.current_cost = central_cost;
                }
                worker.fail_count = 0;
            }
            best_mu_this_iteration = best_mu_this_iteration.max(worker.best_cost.mu);
            worker_state[w] = Some(worker);
        }
        mu_history.push(best_mu_this_iteration);
        if !control.keep_going(iteration, best_mu_this_iteration, central_cost.mu) {
            break;
        }
    }

    // The best solution over all workers is what the run reports.
    let mut best_cost = central_cost;
    let mut best_placement = central_placement;
    for worker in worker_state.iter().flatten() {
        if worker.best_cost.mu > best_cost.mu {
            best_cost = worker.best_cost;
            best_placement = worker.best_placement.clone();
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
    use crate::control::FreeRun;
    use crate::exec::{Modeled, Threaded};
    use crate::report::run_serial_baseline;
    use sime_core::engine::SimEConfig;
    use std::sync::Arc;
    use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};
    use vlsi_place::cost::Objectives;

    fn engine(iterations: usize) -> SimEEngine {
        let nl = Arc::new(
            CircuitGenerator::new(GeneratorConfig::sized("type3_test", 140, 13)).generate(),
        );
        SimEEngine::new(
            nl,
            SimEConfig::paper_defaults(Objectives::WirelengthPower, 8, iterations),
        )
    }

    #[test]
    fn type3_quality_is_at_least_the_single_search_quality() {
        // Taking the best over several differently-seeded searches can never
        // be worse than one of those searches alone... the first worker's
        // stream differs from the serial engine's, so compare against the
        // weakest possible statement: quality is a valid µ and the best
        // placement is legal and consistent.
        let engine = engine(8);
        let outcome = run_type3(
            &engine,
            ClusterConfig::paper_cluster(4),
            Type3Config {
                ranks: 4,
                iterations: 8,
                retry_threshold: 3,
            },
            &Modeled,
            &FreeRun,
        );
        outcome
            .best_placement
            .validate(engine.evaluator().netlist())
            .unwrap();
        let re = engine.evaluator().evaluate(&outcome.best_placement);
        assert!((re.mu - outcome.best_mu()).abs() < 1e-12);
        assert!(outcome.best_mu() > 0.0 && outcome.best_mu() <= 1.0);
        // The best-so-far trace is monotone non-decreasing.
        let mut last = 0.0;
        for &mu in &outcome.mu_history {
            assert!(mu + 1e-12 >= last);
            last = mu;
        }
    }

    #[test]
    fn type3_backends_agree_bitwise() {
        let engine = engine(6);
        let config = Type3Config {
            ranks: 4,
            iterations: 6,
            retry_threshold: 1,
        };
        let modeled = run_type3(
            &engine,
            ClusterConfig::paper_cluster(4),
            config,
            &Modeled,
            &FreeRun,
        );
        for workers in [1, 2, 4] {
            let threaded = run_type3(
                &engine,
                ClusterConfig::paper_cluster(4),
                config,
                &Threaded::new(workers),
                &FreeRun,
            );
            assert_eq!(
                modeled.best_cost.mu.to_bits(),
                threaded.best_cost.mu.to_bits()
            );
            assert_eq!(modeled.modeled_seconds, threaded.modeled_seconds);
            assert_eq!(modeled.comm, threaded.comm);
            for (a, b) in modeled.mu_history.iter().zip(&threaded.mu_history) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn type3_runtime_is_close_to_serial() {
        // Table 4: no workload division, so the parallel runtime deviates
        // little from the serial runtime for the same iteration count.
        let engine = engine(6);
        let baseline = run_serial_baseline(&engine, &ClusterConfig::paper_cluster(3).compute);
        let outcome = run_type3(
            &engine,
            ClusterConfig::paper_cluster(4),
            Type3Config {
                ranks: 4,
                iterations: 6,
                retry_threshold: 100,
            },
            &Modeled,
            &FreeRun,
        );
        let ratio = outcome.modeled_seconds / baseline.modeled_seconds;
        assert!(
            (0.7..1.5).contains(&ratio),
            "Type III runtime should track the serial runtime, ratio {ratio}"
        );
    }

    #[test]
    fn more_workers_do_not_change_the_runtime_much() {
        let engine = engine(5);
        let t3 = run_type3(
            &engine,
            ClusterConfig::paper_cluster(3),
            Type3Config {
                ranks: 3,
                iterations: 5,
                retry_threshold: 50,
            },
            &Modeled,
            &FreeRun,
        )
        .modeled_seconds;
        let t5 = run_type3(
            &engine,
            ClusterConfig::paper_cluster(5),
            Type3Config {
                ranks: 5,
                iterations: 5,
                retry_threshold: 50,
            },
            &Modeled,
            &FreeRun,
        )
        .modeled_seconds;
        assert!(
            (t5 / t3 - 1.0).abs() < 0.25,
            "runtimes should be nearly independent of the worker count: {t3} vs {t5}"
        );
    }

    #[test]
    fn low_retry_threshold_causes_more_communication() {
        let engine = engine(8);
        let run = |retry| {
            run_type3(
                &engine,
                ClusterConfig::paper_cluster(3),
                Type3Config {
                    ranks: 3,
                    iterations: 8,
                    retry_threshold: retry,
                },
                &Modeled,
                &FreeRun,
            )
            .comm
        };
        let chatty = run(0);
        let quiet = run(1000);
        assert!(chatty.messages > quiet.messages);
    }

    #[test]
    fn type3_is_deterministic() {
        let engine = engine(5);
        let cfg = Type3Config {
            ranks: 3,
            iterations: 5,
            retry_threshold: 2,
        };
        let a = run_type3(
            &engine,
            ClusterConfig::paper_cluster(3),
            cfg,
            &Modeled,
            &FreeRun,
        );
        let b = run_type3(
            &engine,
            ClusterConfig::paper_cluster(3),
            cfg,
            &Modeled,
            &FreeRun,
        );
        assert_eq!(a.best_cost.mu, b.best_cost.mu);
        assert_eq!(a.modeled_seconds, b.modeled_seconds);
    }

    #[test]
    #[should_panic(expected = "at least two workers")]
    fn rejects_too_few_ranks() {
        let engine = engine(1);
        run_type3(
            &engine,
            ClusterConfig::paper_cluster(2),
            Type3Config {
                ranks: 2,
                iterations: 1,
                retry_threshold: 10,
            },
            &Modeled,
            &FreeRun,
        );
    }
}
