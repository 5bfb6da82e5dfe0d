//! Shared result types and the modeled-serial-time baseline.
//!
//! Every strategy run — Type I/II/III, on either execution backend — ends in
//! a [`StrategyOutcome`]; the serial reference point the paper's tables
//! normalise against comes from [`run_serial_baseline`], which runs the
//! serial engine and prices its work profile on one node of the simulated
//! cluster via [`modeled_serial_seconds`].

use cluster_sim::machine::{ComputeModel, Workload};
use cluster_sim::timeline::CommStats;
use sime_core::engine::{SimEEngine, SimEResult};
use sime_core::profile::{Phase, ProfileReport};
use vlsi_place::cost::CostBreakdown;
use vlsi_place::layout::Placement;

/// Bytes used to ship one cell's slot (row + index) in a placement message.
pub const BYTES_PER_CELL: u64 = 8;
/// Bytes used to ship one goodness value.
pub const BYTES_PER_GOODNESS: u64 = 8;

/// Outcome of one parallel-strategy run on the simulated cluster.
#[derive(Debug, Clone)]
pub struct StrategyOutcome {
    /// Best placement found by the strategy (the master's view).
    pub best_placement: Placement,
    /// Cost breakdown of the best placement.
    pub best_cost: CostBreakdown,
    /// Modeled runtime (makespan) on the simulated cluster, in seconds.
    /// Identical across execution backends for a fixed configuration.
    pub modeled_seconds: f64,
    /// Communication statistics of the modeled run.
    pub comm: CommStats,
    /// Iterations executed (per processor).
    pub iterations: usize,
    /// Solution quality `µ(s)` after every iteration, as seen by the master.
    pub mu_history: Vec<f64>,
    /// Host wall-clock seconds the run actually took. Unlike every other
    /// field this depends on the execution backend and the machine; it is
    /// *not* covered by the determinism contract (`DESIGN.md` §4).
    pub wall_seconds: f64,
    /// Label of the execution backend that produced the run
    /// (`"modeled"`, `"threaded(4)"`, `"shared(2)"`, …).
    pub backend: String,
}

impl StrategyOutcome {
    /// Best quality reached.
    pub fn best_mu(&self) -> f64 {
        self.best_cost.mu
    }

    /// Speed-up of this run versus a serial time in seconds.
    pub fn speedup_versus(&self, serial_seconds: f64) -> f64 {
        if self.modeled_seconds <= 0.0 {
            0.0
        } else {
            serial_seconds / self.modeled_seconds
        }
    }

    /// Fraction of a reference (serial) quality that this run achieved,
    /// capped at 1. The paper reports this percentage in brackets whenever a
    /// parallel configuration fails to reach the serial quality.
    pub fn quality_fraction_of(&self, serial_mu: f64) -> f64 {
        if serial_mu <= 0.0 {
            1.0
        } else {
            (self.best_mu() / serial_mu).min(1.0)
        }
    }
}

/// Serial SimE result together with its modeled runtime on one cluster node.
#[derive(Debug, Clone)]
pub struct SerialBaseline {
    /// The serial run result (best placement, history, profile).
    pub result: SimEResult,
    /// Modeled runtime of the serial run on one node of the simulated
    /// cluster, in seconds.
    pub modeled_seconds: f64,
}

impl SerialBaseline {
    /// Best quality reached by the serial run.
    pub fn best_mu(&self) -> f64 {
        self.result.best_cost.mu
    }
}

/// Converts an operator-level work profile into modeled seconds on one node.
///
/// Net-length estimations (cost calculation, allocation trial scoring, delay
/// propagation) are priced at the net-evaluation rate; goodness evaluation
/// and selection are per-cell bookkeeping priced at the miscellaneous rate.
pub fn modeled_serial_seconds(profile: &ProfileReport, compute: &ComputeModel) -> f64 {
    let net_evals = profile.net_evals(Phase::CostCalculation)
        + profile.net_evals(Phase::Allocation)
        + profile.net_evals(Phase::DelayCalculation);
    let misc = profile.net_evals(Phase::GoodnessEvaluation) + profile.net_evals(Phase::Selection);
    compute.seconds(&Workload {
        net_evaluations: net_evals,
        misc_operations: misc,
    })
}

/// Runs the serial engine and attaches the modeled runtime of the run on one
/// node described by `compute`.
pub fn run_serial_baseline(engine: &SimEEngine, compute: &ComputeModel) -> SerialBaseline {
    let result = engine.run();
    let modeled_seconds = modeled_serial_seconds(&result.profile, compute);
    SerialBaseline {
        result,
        modeled_seconds,
    }
}

/// Per-rank evaluation workload for a cell partition: every rank estimates
/// the length of each net incident to one of its cells (duplicating nets that
/// span partitions — the effect the paper identifies as the main weakness of
/// Type I partitioning) plus per-cell bookkeeping.
pub fn partition_evaluation_workload(
    engine: &SimEEngine,
    cells: &[vlsi_netlist::CellId],
) -> Workload {
    let netlist = engine.evaluator().netlist();
    let mut distinct_nets: Vec<vlsi_netlist::NetId> = cells
        .iter()
        .flat_map(|&c| netlist.nets_of_cell(c).iter().copied())
        .collect();
    distinct_nets.sort_unstable();
    distinct_nets.dedup();
    Workload {
        net_evaluations: distinct_nets.len() as u64,
        misc_operations: cells.len() as u64 * 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sime_core::engine::SimEConfig;
    use std::sync::Arc;
    use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};
    use vlsi_place::cost::Objectives;

    fn engine() -> SimEEngine {
        let nl = Arc::new(
            CircuitGenerator::new(GeneratorConfig::sized("report_test", 120, 3)).generate(),
        );
        SimEEngine::new(
            nl,
            SimEConfig::paper_defaults(Objectives::WirelengthPower, 6, 5),
        )
    }

    #[test]
    fn serial_baseline_has_positive_modeled_time() {
        let engine = engine();
        let baseline = run_serial_baseline(&engine, &ComputeModel::pentium4_2ghz());
        assert!(baseline.modeled_seconds > 0.0);
        assert!(baseline.best_mu() > 0.0 && baseline.best_mu() <= 1.0);
    }

    #[test]
    fn modeled_time_scales_with_the_compute_model() {
        let engine = engine();
        let result = engine.run();
        let slow = modeled_serial_seconds(&result.profile, &ComputeModel::pentium4_2ghz());
        let fast = modeled_serial_seconds(&result.profile, &ComputeModel::fast_node());
        assert!(slow > fast * 10.0);
    }

    #[test]
    fn partition_workload_sums_to_at_least_the_serial_evaluation() {
        // Splitting the cells over ranks duplicates boundary nets, so the sum
        // of per-partition net evaluations is >= the number of distinct nets.
        let engine = engine();
        let netlist = engine.evaluator().netlist().clone();
        let cells: Vec<_> = netlist.cell_ids().collect();
        let mid = cells.len() / 2;
        let a = partition_evaluation_workload(&engine, &cells[..mid]);
        let b = partition_evaluation_workload(&engine, &cells[mid..]);
        assert!(a.net_evaluations + b.net_evaluations >= netlist.num_nets() as u64);
        let whole = partition_evaluation_workload(&engine, &cells);
        assert_eq!(whole.net_evaluations, netlist.num_nets() as u64);
    }

    #[test]
    fn quality_fraction_is_capped_at_one() {
        let engine = engine();
        let baseline = run_serial_baseline(&engine, &ComputeModel::fast_node());
        let outcome = StrategyOutcome {
            best_placement: baseline.result.best_placement.clone(),
            best_cost: baseline.result.best_cost,
            modeled_seconds: 1.0,
            comm: CommStats::default(),
            iterations: 1,
            mu_history: vec![],
            wall_seconds: 0.0,
            backend: "modeled".into(),
        };
        assert!((outcome.quality_fraction_of(baseline.best_mu()) - 1.0).abs() < 1e-12);
        assert!(outcome.quality_fraction_of(baseline.best_mu() * 2.0) < 1.0);
        assert!((outcome.speedup_versus(2.0) - 2.0).abs() < 1e-12);
    }
}
