//! Type I — low-level parallelization (distributed cost & goodness
//! evaluation).
//!
//! Following Figures 2 and 3 of the paper, every iteration proceeds as:
//!
//! 1. the master broadcasts the current placement to all slaves,
//! 2. every processor (master included) computes the partial costs and the
//!    goodness of the cells in its partition — the partition is by cells, so
//!    nets spanning partitions are evaluated by several processors
//!    (duplicate work), and cells' goodness needs the wirelength of fan-in
//!    nets, which is what forces those duplicates,
//! 3. the slaves send their partial goodness vectors back to the master,
//! 4. the master runs Selection and Allocation exactly as the serial
//!    algorithm does.
//!
//! The gathered goodness vector is, by construction, the serial one: every
//! partition prices its cells with the same per-net estimator. So this
//! driver runs the ordinary serial iteration ([`SimEEngine::iterate`]) on one
//! scratch and only *charges* steps 1–3 to the master's cluster timeline: the
//! broadcast, each partition's evaluation workload and the gather are
//! charged, not executed. The search trajectory and the final solution
//! quality are therefore identical to the serial algorithm; only the modeled
//! runtime differs. With no per-rank task left, Type I runs inline on every
//! execution backend.
//!
//! ```
//! use cluster_sim::timeline::ClusterConfig;
//! use sime_core::engine::{SimEConfig, SimEEngine};
//! use sime_parallel::control::FreeRun;
//! use sime_parallel::exec::{Modeled, Threaded};
//! use sime_parallel::type1::{run_type1, Type1Config};
//! use std::sync::Arc;
//! use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};
//! use vlsi_place::cost::Objectives;
//!
//! let netlist = Arc::new(
//!     CircuitGenerator::new(GeneratorConfig::sized("type1_doc", 120, 1)).generate(),
//! );
//! let engine = SimEEngine::new(netlist, SimEConfig::paper_defaults(Objectives::WirelengthPower, 6, 3));
//! let config = Type1Config { iterations: 3 };
//! let cluster = ClusterConfig::paper_cluster(3);
//! let modeled = run_type1(&engine, cluster, config, &Modeled, &FreeRun);
//! let threaded = run_type1(&engine, cluster, config, &Threaded::new(2), &FreeRun);
//! // The determinism contract: backends agree bit for bit.
//! assert_eq!(modeled.best_mu().to_bits(), threaded.best_mu().to_bits());
//! assert_eq!(modeled.modeled_seconds, threaded.modeled_seconds);
//! ```

use crate::control::RunControl;
use crate::epochs;
use crate::exec::ExecBackend;
use crate::report::{
    partition_evaluation_workload, StrategyOutcome, BYTES_PER_CELL, BYTES_PER_GOODNESS,
};
use cluster_sim::machine::Workload;
use cluster_sim::timeline::ClusterConfig;
use serde::{Deserialize, Serialize};
use sime_core::engine::SimEEngine;
use sime_core::profile::ProfileReport;
use vlsi_netlist::CellId;

/// Configuration of a Type I run. The processor count (master + slaves,
/// 2–5 in the paper) is `cluster.ranks`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Type1Config {
    /// Number of SimE iterations.
    pub iterations: usize,
}

/// Runs the Type I parallel SimE strategy.
///
/// The engine's RNG seed determines the (serial-equivalent) search
/// trajectory; `cluster` describes the simulated machine. The iteration runs
/// inline on every backend, so every backend produces bitwise-identical
/// outcomes (see the determinism contract in [`crate::exec`]); `backend`
/// only labels the outcome.
///
/// `control` observes every completed iteration and may end the run at that
/// boundary (see the [`crate::control`] docs for the exact call point and
/// the prefix-bitwise guarantee); pass [`crate::control::FreeRun`] to run
/// all `config.iterations`. [`StrategyOutcome::iterations`] reports the
/// iterations that actually ran.
pub fn run_type1(
    engine: &SimEEngine,
    cluster: ClusterConfig,
    config: Type1Config,
    backend: &dyn ExecBackend,
    control: &dyn RunControl,
) -> StrategyOutcome {
    let ranks = cluster.ranks;
    let min_ranks = (2, "Type I needs a master and at least one slave");
    let run = epochs::Run(engine, cluster, backend, control);
    run.epochs(config.iterations, min_ranks, |_, start| {
        let (mut placement, mut scratch) = (start.placement, start.scratch);
        let netlist = engine.evaluator().netlist();
        let num_cells = netlist.num_cells();
        let placement_bytes = BYTES_PER_CELL * num_cells as u64;

        // Static cell partition (contiguous cell-id blocks, as in the paper's
        // implementation); the master holds partition 0.
        let cells: Vec<CellId> = netlist.cell_ids().collect();
        let partitions: Vec<&[CellId]> = cells.chunks(num_cells.div_ceil(ranks)).collect();
        let partition_work: Vec<Workload> = (0..ranks)
            .map(|r| {
                partitions
                    .get(r)
                    .map(|p| partition_evaluation_workload(engine, p))
                    .unwrap_or_default()
            })
            .collect();
        let goodness_bytes: Vec<u64> = (0..ranks)
            .map(|r| {
                partitions
                    .get(r)
                    .map_or(0, |p| p.len() as u64 * BYTES_PER_GOODNESS)
            })
            .collect();

        // Fraction of the allocation's goodness-gain calculations that
        // concern cells outside the master's partition and therefore have to
        // be recomputed at the master (Section 6.1: "additional cost
        // calculations may be required when calculating the goodness gains
        // for those cells which are not the members of partition at the
        // master node").
        let extra_master_fraction = 0.5 * (1.0 - 1.0 / ranks as f64);

        move |_, master| {
            let timeline = &mut master.timeline;
            // 1. Broadcast the current placement (binomial tree, as MPI_Bcast
            //    in MPICH 1.x does).
            timeline.broadcast_tree(0, placement_bytes);
            // 2. Distributed evaluation: each rank prices its partition (the
            //    duplicates across partitions are inherent to the
            //    partitioning).
            for (rank, work) in partition_work.iter().enumerate() {
                timeline.charge_compute(rank, work);
            }
            // 3. Gather the partial goodness vectors at the master.
            timeline.gather(0, &goodness_bytes);

            // 4. The master runs Selection and Allocation on the gathered
            //    vector. That vector is the serial evaluation's, so steps 2–4
            //    together are exactly one serial iteration. Only the
            //    selection and allocation work is charged to the master, plus
            //    the extra cost recalculations for non-partition cells.
            let mut profile = ProfileReport::new();
            let (_avg_goodness, selected, alloc_stats) = engine.iterate(
                &mut placement,
                &mut scratch,
                &mut master.rng,
                &mut profile,
                &[],
                &[],
            );
            let alloc_evals = alloc_stats.net_evaluations as f64;
            timeline.charge_compute(
                0,
                &Workload {
                    net_evaluations: (alloc_evals * (1.0 + extra_master_fraction)) as u64,
                    misc_operations: (num_cells + selected * 16) as u64,
                },
            );

            let cost = engine.cost_with(&placement, &mut scratch);
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
    use crate::report::{modeled_serial_seconds, run_serial_baseline};
    use sime_core::engine::SimEConfig;
    use std::sync::Arc;
    use vlsi_netlist::bench_suite::{mixed_circuit, MixedCircuit};
    use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};
    use vlsi_place::cost::Objectives;
    use vlsi_place::layout::Placement;

    fn engine(iterations: usize) -> SimEEngine {
        let nl = Arc::new(
            CircuitGenerator::new(GeneratorConfig::sized("type1_test", 150, 7)).generate(),
        );
        SimEEngine::new(
            nl,
            SimEConfig::paper_defaults(Objectives::WirelengthPower, 8, iterations),
        )
    }

    #[test]
    fn type1_quality_matches_serial_quality() {
        // Type I does not change the search behaviour, so with the same seed
        // and iteration count the best quality equals the serial run's.
        let engine = engine(6);
        let serial = engine.run();
        let outcome = run_type1(
            &engine,
            ClusterConfig::paper_cluster(3),
            Type1Config { iterations: 6 },
            &Modeled,
            &FreeRun,
        );
        assert!((outcome.best_mu() - serial.best_cost.mu).abs() < 1e-12);
        assert!((outcome.best_cost.wirelength - serial.best_cost.wirelength).abs() < 1e-9);
    }

    #[test]
    fn type1_trajectory_is_bitwise_serial() {
        // Stronger than quality equality: the master reproduces the serial
        // per-iteration µ trace and best placement to the bit, with and
        // without the delay objective, on a mixed-size circuit with fixed
        // cells, and from a warm start.
        let small = Arc::new(
            CircuitGenerator::new(GeneratorConfig::sized("type1_test", 150, 7)).generate(),
        );
        let mix = MixedCircuit::Mix600;
        let circuits = [(small, 8), (Arc::new(mixed_circuit(mix)), mix.num_rows())];
        for (netlist, num_rows) in circuits {
            for objectives in [
                Objectives::WirelengthPower,
                Objectives::WirelengthPowerDelay,
            ] {
                for warm in [false, true] {
                    let config = SimEConfig::paper_defaults(objectives, num_rows, 4);
                    let mut engine = SimEEngine::new(Arc::clone(&netlist), config);
                    if warm {
                        let rr = Placement::round_robin(&netlist, num_rows);
                        engine = engine.with_initial(Arc::new(rr));
                    }
                    let serial = engine.run();
                    let outcome = run_type1(
                        &engine,
                        ClusterConfig::paper_cluster(4),
                        Type1Config { iterations: 4 },
                        &Modeled,
                        &FreeRun,
                    );
                    let label = format!("{} {objectives:?} warm={warm}", netlist.name());
                    let serial_mu: Vec<u64> =
                        serial.history.iter().map(|h| h.mu.to_bits()).collect();
                    let type1_mu: Vec<u64> =
                        outcome.mu_history.iter().map(|mu| mu.to_bits()).collect();
                    assert_eq!(serial_mu, type1_mu, "{label}");
                    assert_eq!(
                        serial.best_cost.mu.to_bits(),
                        outcome.best_cost.mu.to_bits(),
                        "{label}"
                    );
                    for cell in netlist.cell_ids() {
                        let (a, b) = (&serial.best_placement, &outcome.best_placement);
                        assert_eq!(a.row_of(cell), b.row_of(cell), "{label}");
                        assert_eq!(a.x_of(cell).to_bits(), b.x_of(cell).to_bits(), "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn type1_backends_agree_bitwise() {
        let engine = engine(4);
        let config = Type1Config { iterations: 4 };
        let modeled = run_type1(
            &engine,
            ClusterConfig::paper_cluster(3),
            config,
            &Modeled,
            &FreeRun,
        );
        for workers in [1, 2, 4] {
            let threaded = run_type1(
                &engine,
                ClusterConfig::paper_cluster(3),
                config,
                &Threaded::new(workers),
                &FreeRun,
            );
            assert_eq!(threaded.backend, format!("threaded({workers})"));
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
    fn type1_is_not_faster_than_serial() {
        // The paper's central Table 1 finding: the modeled parallel runtime
        // is at or above the serial runtime for every processor count.
        let engine = engine(5);
        let baseline = run_serial_baseline(&engine, &ClusterConfig::paper_cluster(2).compute);
        for ranks in 2..=5 {
            let outcome = run_type1(
                &engine,
                ClusterConfig::paper_cluster(ranks),
                Type1Config { iterations: 5 },
                &Modeled,
                &FreeRun,
            );
            assert!(
                outcome.modeled_seconds >= baseline.modeled_seconds * 0.95,
                "Type I at p={ranks} must not beat serial: {} vs {}",
                outcome.modeled_seconds,
                baseline.modeled_seconds
            );
        }
    }

    #[test]
    fn type1_runtime_is_roughly_flat_in_processor_count() {
        let engine = engine(5);
        let times: Vec<f64> = (2..=5)
            .map(|ranks| {
                run_type1(
                    &engine,
                    ClusterConfig::paper_cluster(ranks),
                    Type1Config { iterations: 5 },
                    &Modeled,
                    &FreeRun,
                )
                .modeled_seconds
            })
            .collect();
        let min = times.iter().copied().fold(f64::INFINITY, f64::min);
        let max = times.iter().copied().fold(0.0, f64::max);
        // Table 1 shows essentially flat runtimes across p. On this very
        // small test circuit the per-iteration communication is a larger
        // share of the total than it is on the paper's circuits, so allow a
        // wider band here; the table harness checks the realistic sizes.
        assert!(
            max / min < 1.6,
            "Type I runtimes should be roughly constant across p, got {times:?}"
        );
    }

    #[test]
    fn type1_charges_communication_every_iteration() {
        let engine = engine(4);
        let ranks = 4;
        let outcome = run_type1(
            &engine,
            ClusterConfig::paper_cluster(ranks),
            Type1Config { iterations: 4 },
            &Modeled,
            &FreeRun,
        );
        // one broadcast + one gather per iteration, each (ranks-1) messages
        assert_eq!(outcome.comm.messages, (2 * (ranks - 1) * 4) as u64);
        assert!(outcome.comm.bytes > 0);
        assert_eq!(outcome.mu_history.len(), 4);
        assert_eq!(outcome.backend, "modeled");
        assert!(outcome.wall_seconds > 0.0);
    }

    #[test]
    fn modeled_serial_time_is_consistent_between_helpers() {
        let engine = engine(3);
        let baseline = run_serial_baseline(&engine, &ClusterConfig::paper_cluster(2).compute);
        let direct = modeled_serial_seconds(
            &baseline.result.profile,
            &ClusterConfig::paper_cluster(2).compute,
        );
        assert!((baseline.modeled_seconds - direct).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "master and at least one slave")]
    fn rejects_single_rank() {
        let engine = engine(1);
        run_type1(
            &engine,
            ClusterConfig::paper_cluster(1),
            Type1Config { iterations: 1 },
            &Modeled,
            &FreeRun,
        );
    }
}
