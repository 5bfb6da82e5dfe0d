//! Type II — domain decomposition by placement rows.
//!
//! Following Figures 4 and 5 of the paper, the placement rows are partitioned
//! among the processors; every processor runs the full SimE iteration
//! (evaluation, selection, allocation) restricted to the cells in — and the
//! slots of — its own rows, and the master merges the partial placements and
//! re-partitions at the end of every iteration. All SimE operators, including
//! allocation, are thereby parallelised, which is why this is the only
//! strategy that yields real speed-ups; the price is the restricted freedom
//! of cell movement (a cell can only move within its current partition's rows
//! in a given iteration), which slows convergence and can cost final quality.
//!
//! Two row-allocation patterns are implemented:
//!
//! * [`RowPattern::Fixed`] — the pattern of Kling & Banerjee's ESP paper:
//!   in even iterations each processor receives a contiguous slice of
//!   `K / m` rows, in odd iterations processor `j` receives rows
//!   `j, j + m, j + 2m, …`, so any cell can reach any row position in at most
//!   two iterations.
//! * [`RowPattern::Random`] — the authors' variation: rows are shuffled and
//!   dealt to the processors anew every iteration.
//!
//! Each processor's iteration is an independent task over its own RNG stream
//! and scratch; under the `Threaded` backend the tasks of one iteration run
//! on real OS threads, and the master's merge consumes the partial rows in
//! rank order so the rebuilt placement is identical on every backend.
//!
//! ```
//! use cluster_sim::timeline::ClusterConfig;
//! use sime_core::engine::{SimEConfig, SimEEngine};
//! use sime_parallel::control::FreeRun;
//! use sime_parallel::exec::{Modeled, Threaded};
//! use sime_parallel::type2::{run_type2, RowPattern, Type2Config};
//! use std::sync::Arc;
//! use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};
//! use vlsi_place::cost::Objectives;
//!
//! let netlist = Arc::new(
//!     CircuitGenerator::new(GeneratorConfig::sized("type2_doc", 120, 2)).generate(),
//! );
//! let engine = SimEEngine::new(netlist, SimEConfig::paper_defaults(Objectives::WirelengthPower, 6, 3));
//! let config = Type2Config { iterations: 3, pattern: RowPattern::Random };
//! let cluster = ClusterConfig::paper_cluster(3);
//! let modeled = run_type2(&engine, cluster, config, &Modeled, &FreeRun);
//! let threaded = run_type2(&engine, cluster, config, &Threaded::new(2), &FreeRun);
//! assert_eq!(modeled.best_mu().to_bits(), threaded.best_mu().to_bits());
//! assert_eq!(modeled.comm, threaded.comm);
//! ```

use crate::control::RunControl;
use crate::epochs;
use crate::exec::{ExecBackend, Task};
use crate::report::{partition_evaluation_workload, StrategyOutcome, BYTES_PER_CELL};
use cluster_sim::machine::Workload;
use cluster_sim::timeline::ClusterConfig;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use sime_core::allocation::AllocationStats;
use sime_core::engine::{SimEEngine, SimEScratch};
use sime_core::profile::ProfileReport;
use std::sync::Arc;
use vlsi_netlist::CellId;
use vlsi_place::layout::Placement;

/// How rows are assigned to processors each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RowPattern {
    /// Alternating contiguous-slice / strided assignment (Kling & Banerjee).
    Fixed,
    /// Fresh random assignment every iteration (Sait, Ali & Zaidi, ISCAS'05).
    Random,
}

impl RowPattern {
    /// Short label used by the benchmark tables.
    pub fn label(self) -> &'static str {
        match self {
            RowPattern::Fixed => "fixed",
            RowPattern::Random => "random",
        }
    }
}

/// Configuration of a Type II run. The processor count (2–5 in the paper)
/// is `cluster.ranks`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Type2Config {
    /// Number of SimE iterations (the paper adds iterations as processors are
    /// added: 4000 + 500·(p−2) for two objectives, 5000 + 1000·(p−2)+1000 for
    /// three).
    pub iterations: usize,
    /// Row-allocation pattern.
    pub pattern: RowPattern,
}

/// Computes the row assignment for one iteration: `assignment[r]` is the list
/// of row indices owned by processor `r`.
pub(crate) fn row_assignment<RNG: rand::Rng + ?Sized>(
    pattern: RowPattern,
    num_rows: usize,
    ranks: usize,
    iteration: usize,
    rng: &mut RNG,
) -> Vec<Vec<usize>> {
    let mut assignment = vec![Vec::new(); ranks];
    match pattern {
        RowPattern::Fixed => {
            if iteration.is_multiple_of(2) {
                // balanced contiguous slices of ~K/m rows
                for row in 0..num_rows {
                    assignment[row * ranks / num_rows].push(row);
                }
            } else {
                // strided: processor j gets rows j, j+m, j+2m, ...
                for row in 0..num_rows {
                    assignment[row % ranks].push(row);
                }
            }
        }
        RowPattern::Random => {
            let mut rows: Vec<usize> = (0..num_rows).collect();
            rows.shuffle(rng);
            for (i, row) in rows.into_iter().enumerate() {
                assignment[i % ranks].push(row);
            }
            for part in assignment.iter_mut() {
                part.sort_unstable();
            }
        }
    }
    assignment
}

/// Per-rank state that persists across iterations: the rank's private RNG
/// stream and its allocation scratch. Moved into the rank's task at fan-out
/// and returned with the task result at the merge.
struct RankState {
    rng: ChaCha8Rng,
    scratch: SimEScratch,
}

/// What one rank's task sends back: its state, the contents of the rows it
/// owned after its local iteration, and the allocation work it performed.
type RankOutput = (RankState, Vec<(usize, Vec<CellId>)>, AllocationStats);

/// Runs the Type II parallel SimE strategy on an execution backend.
///
/// Per-rank iterations are independent tasks over seed-derived private RNG
/// streams (`seed ^ ((rank + 1) << 32)`); the master merges the returned rows
/// in rank order, so every backend — and any worker count — produces bitwise
/// identical outcomes.
///
/// `control` observes every completed iteration and may end the run at that
/// boundary (see the [`crate::control`] docs for the exact call point and
/// the prefix-bitwise guarantee); pass [`crate::control::FreeRun`] to run
/// all `config.iterations`. [`StrategyOutcome::iterations`] reports the
/// iterations that actually ran.
pub fn run_type2(
    engine: &SimEEngine,
    cluster: ClusterConfig,
    config: Type2Config,
    backend: &dyn ExecBackend,
    control: &dyn RunControl,
) -> StrategyOutcome {
    let ranks = cluster.ranks;
    let num_rows = engine.config().num_rows;
    assert!(num_rows >= ranks, "each processor needs at least one row");
    let min_ranks = (2, "Type II needs at least two processors");
    let run = epochs::Run(engine, cluster, backend, control);
    run.epochs(config.iterations, min_ranks, |_, start| {
        // The master's scratch priced the start, so its cache starts in sync.
        let (mut placement, mut master_scratch) = (start.placement, start.scratch);
        let netlist = engine.evaluator().netlist().clone();
        let num_cells = netlist.num_cells();
        let placement_bytes = BYTES_PER_CELL * num_cells as u64 + 8 * num_rows as u64;
        // Shallow: the copy shares every table of `engine`.
        let shared = Arc::new(engine.clone());
        // One private RNG stream + scratch per simulated processor; the
        // shared engine stays immutable and `Send + Sync`.
        let mut rank_state: Vec<Option<RankState>> = (0..ranks)
            .map(|r| {
                Some(RankState {
                    rng: ChaCha8Rng::seed_from_u64(engine.config().seed ^ ((r as u64 + 1) << 32)),
                    scratch: engine.new_scratch(),
                })
            })
            .collect();

        move |iteration, master| {
            // Master: generate the row assignment and broadcast placement +
            // rows.
            let assignment =
                row_assignment(config.pattern, num_rows, ranks, iteration, &mut master.rng);
            master.timeline.broadcast_tree(0, placement_bytes);

            // Fan out: every processor runs a full SimE iteration on its
            // rows. The master determines each rank's owned cells and frozen
            // mask from the pre-iteration placement (it has to, to price the
            // work), then hands the rank its task.
            let mut merged_rows: Vec<Vec<CellId>> =
                (0..num_rows).map(|r| placement.row(r).to_vec()).collect();
            let mut bytes_per_rank = vec![0u64; ranks];
            let mut tasks: Vec<Task<RankOutput>> = Vec::new();
            let mut task_meta: Vec<(usize, Workload, usize)> = Vec::new();

            for (rank, rows) in assignment.iter().enumerate() {
                if rows.is_empty() {
                    continue;
                }
                let owned: Vec<CellId> = netlist
                    .cell_ids()
                    .filter(|&c| rows.contains(&placement.row_of(c)))
                    .collect();
                let frozen = engine.frozen_mask_from_owned(&owned);
                let eval_work = partition_evaluation_workload(engine, &owned);
                bytes_per_rank[rank] = owned.len() as u64 * BYTES_PER_CELL;
                task_meta.push((rank, eval_work, owned.len()));

                let mut state = rank_state[rank].take().expect("rank state in flight");
                let engine = Arc::clone(&shared);
                let mut local = placement.clone();
                let rows = rows.clone();
                tasks.push(Box::new(move || {
                    let mut profile = ProfileReport::new();
                    let (_avg, _selected, alloc_stats) = engine.iterate(
                        &mut local,
                        &mut state.scratch,
                        &mut state.rng,
                        &mut profile,
                        &frozen,
                        &rows,
                    );
                    let out_rows = rows.iter().map(|&r| (r, local.row(r).to_vec())).collect();
                    (state, out_rows, alloc_stats)
                }) as Task<RankOutput>);
            }

            // Merge in rank order (the tasks were built in rank order and the
            // executor returns results in submission order).
            let results = master.executor.run_tasks(tasks);
            for ((rank, eval_work, owned_len), (state, out_rows, alloc_stats)) in
                task_meta.into_iter().zip(results)
            {
                rank_state[rank] = Some(state);
                // Charge the partition's evaluation plus its allocation work.
                master.timeline.charge_compute(rank, &eval_work);
                master.timeline.charge_compute(
                    rank,
                    &Workload {
                        net_evaluations: alloc_stats.net_evaluations as u64,
                        misc_operations: owned_len as u64 * 8,
                    },
                );
                for (row, cells) in out_rows {
                    merged_rows[row] = cells;
                }
            }

            // Slaves send their partial rows back; the master reconstructs
            // the complete solution.
            master.timeline.gather(0, &bytes_per_rank);
            placement = Placement::from_rows(&netlist, merged_rows);
            master
                .timeline
                .charge_compute(0, &Workload::misc(num_cells as u64));

            let cost = engine.cost_with(&placement, &mut master_scratch);
            master.best.offer(cost, &placement);
            cost.mu
        }
    })
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
            CircuitGenerator::new(GeneratorConfig::sized("type2_test", 160, 11)).generate(),
        );
        SimEEngine::new(
            nl,
            SimEConfig::paper_defaults(Objectives::WirelengthPower, 10, iterations),
        )
    }

    #[test]
    fn fixed_pattern_alternates_slice_and_stride() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let even = row_assignment(RowPattern::Fixed, 10, 5, 0, &mut rng);
        assert_eq!(even[0], vec![0, 1]);
        assert_eq!(even[4], vec![8, 9]);
        let odd = row_assignment(RowPattern::Fixed, 10, 5, 1, &mut rng);
        assert_eq!(odd[0], vec![0, 5]);
        assert_eq!(odd[3], vec![3, 8]);
    }

    #[test]
    fn row_assignments_partition_the_rows() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for pattern in [RowPattern::Fixed, RowPattern::Random] {
            for iteration in 0..4 {
                for ranks in 2..=5 {
                    let a = row_assignment(pattern, 11, ranks, iteration, &mut rng);
                    assert_eq!(a.len(), ranks);
                    let mut all: Vec<usize> = a.iter().flatten().copied().collect();
                    all.sort_unstable();
                    assert_eq!(
                        all,
                        (0..11).collect::<Vec<_>>(),
                        "{pattern:?} it={iteration} p={ranks}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_pattern_changes_between_iterations() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = row_assignment(RowPattern::Random, 12, 4, 0, &mut rng);
        let b = row_assignment(RowPattern::Random, 12, 4, 1, &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn type2_produces_a_legal_placement_and_reasonable_quality() {
        let engine = engine(8);
        let outcome = run_type2(
            &engine,
            ClusterConfig::paper_cluster(3),
            Type2Config {
                iterations: 8,
                pattern: RowPattern::Random,
            },
            &Modeled,
            &FreeRun,
        );
        outcome
            .best_placement
            .validate(engine.evaluator().netlist())
            .unwrap();
        assert!(outcome.best_mu() > 0.0 && outcome.best_mu() <= 1.0);
        assert_eq!(outcome.mu_history.len(), 8);
    }

    #[test]
    fn type2_backends_agree_bitwise() {
        let engine = engine(5);
        for pattern in [RowPattern::Fixed, RowPattern::Random] {
            let config = Type2Config {
                iterations: 5,
                pattern,
            };
            let modeled = run_type2(
                &engine,
                ClusterConfig::paper_cluster(4),
                config,
                &Modeled,
                &FreeRun,
            );
            for workers in [1, 3] {
                let threaded = run_type2(
                    &engine,
                    ClusterConfig::paper_cluster(4),
                    config,
                    &Threaded::new(workers),
                    &FreeRun,
                );
                assert_eq!(
                    modeled.best_cost.wirelength.to_bits(),
                    threaded.best_cost.wirelength.to_bits(),
                    "{pattern:?} workers={workers}"
                );
                assert_eq!(modeled.modeled_seconds, threaded.modeled_seconds);
                assert_eq!(modeled.comm, threaded.comm);
                for (a, b) in modeled.mu_history.iter().zip(&threaded.mu_history) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                for row in 0..engine.config().num_rows {
                    assert_eq!(
                        modeled.best_placement.row(row),
                        threaded.best_placement.row(row)
                    );
                }
            }
        }
    }

    #[test]
    fn type2_is_faster_than_serial_per_iteration() {
        // The paper's central Table 2/3 finding: domain decomposition divides
        // the allocation workload, so the modeled parallel runtime for the
        // same iteration count is well below the serial runtime.
        let engine = engine(6);
        let baseline = run_serial_baseline(&engine, &ClusterConfig::paper_cluster(2).compute);
        let outcome = run_type2(
            &engine,
            ClusterConfig::paper_cluster(4),
            Type2Config {
                iterations: 6,
                pattern: RowPattern::Random,
            },
            &Modeled,
            &FreeRun,
        );
        assert!(
            outcome.modeled_seconds < baseline.modeled_seconds,
            "Type II at p=4 should beat serial: {} vs {}",
            outcome.modeled_seconds,
            baseline.modeled_seconds
        );
    }

    #[test]
    fn type2_speedup_grows_with_processors() {
        let engine = engine(5);
        let t2 = run_type2(
            &engine,
            ClusterConfig::paper_cluster(2),
            Type2Config {
                iterations: 5,
                pattern: RowPattern::Random,
            },
            &Modeled,
            &FreeRun,
        )
        .modeled_seconds;
        let t5 = run_type2(
            &engine,
            ClusterConfig::paper_cluster(5),
            Type2Config {
                iterations: 5,
                pattern: RowPattern::Random,
            },
            &Modeled,
            &FreeRun,
        )
        .modeled_seconds;
        assert!(
            t5 < t2,
            "five processors should be faster than two: {t5} vs {t2}"
        );
    }

    #[test]
    fn both_patterns_produce_legal_placements() {
        let engine = engine(4);
        for pattern in [RowPattern::Fixed, RowPattern::Random] {
            let outcome = run_type2(
                &engine,
                ClusterConfig::paper_cluster(2),
                Type2Config {
                    iterations: 4,
                    pattern,
                },
                &Modeled,
                &FreeRun,
            );
            outcome
                .best_placement
                .validate(engine.evaluator().netlist())
                .unwrap();
        }
    }

    #[test]
    fn type2_run_is_deterministic() {
        let engine = engine(4);
        let cfg = Type2Config {
            iterations: 4,
            pattern: RowPattern::Random,
        };
        let a = run_type2(
            &engine,
            ClusterConfig::paper_cluster(3),
            cfg,
            &Modeled,
            &FreeRun,
        );
        let b = run_type2(
            &engine,
            ClusterConfig::paper_cluster(3),
            cfg,
            &Modeled,
            &FreeRun,
        );
        assert_eq!(a.best_cost.wirelength, b.best_cost.wirelength);
        assert_eq!(a.modeled_seconds, b.modeled_seconds);
        assert_eq!(a.comm.messages, b.comm.messages);
    }

    #[test]
    #[should_panic(expected = "at least two processors")]
    fn rejects_single_rank() {
        let engine = engine(1);
        run_type2(
            &engine,
            ClusterConfig::paper_cluster(1),
            Type2Config {
                iterations: 1,
                pattern: RowPattern::Fixed,
            },
            &Modeled,
            &FreeRun,
        );
    }
}
