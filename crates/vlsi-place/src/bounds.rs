//! Lower-bound (optimal-cost) estimates.
//!
//! SimE's goodness measure `gᵢ = Oᵢ / Cᵢ` compares the actual cost of each
//! element with an estimate of its *optimal* cost (Section 3 of the paper),
//! and the fuzzy memberships compare each aggregate objective with a lower
//! bound. Both sets of bounds are placement independent, so they are computed
//! once per netlist and shared by every evaluation.
//!
//! The per-net bound is the length the net would have if all its cells were
//! packed side by side in a single row: roughly half the sum of the connected
//! cell widths (the distance between the centres of the leftmost and
//! rightmost cells of the packed group). This is the estimator used in the
//! Sait & Khan implementation lineage; it is cheap, never above the true
//! optimum by construction of the row model, and tight enough to give
//! informative goodness values.

use crate::cost::UNIT_INTERCONNECT_DELAY;
use vlsi_netlist::paths::Path;
use vlsi_netlist::{NetId, Netlist};

/// Placement-independent lower bounds for a netlist.
#[derive(Debug, Clone)]
pub struct Bounds {
    /// Per-net wirelength lower bound.
    pub net_lower: Vec<f64>,
    /// Sum of all per-net bounds — lower bound of the wirelength objective.
    pub wirelength_lower: f64,
    /// Switching-weighted sum — lower bound of the power objective.
    pub power_lower: f64,
    /// Per-path delay lower bounds (same order as the path list used by the
    /// cost evaluator).
    pub path_lower: Vec<f64>,
    /// Maximum per-path bound — lower bound of the delay objective.
    pub delay_lower: f64,
    /// Per-cell wirelength lower bound: sum of the bounds of the nets
    /// touching the cell.
    pub cell_wire_lower: Vec<f64>,
    /// Per-cell power lower bound: switching-weighted version of the above.
    pub cell_power_lower: Vec<f64>,
}

impl Bounds {
    /// Computes all bounds for `netlist`, using `paths` as the critical-path
    /// set and [`UNIT_INTERCONNECT_DELAY`] per unit length of interconnect.
    pub fn compute(netlist: &Netlist, paths: &[Path]) -> Self {
        let net_lower: Vec<f64> = netlist
            .net_ids()
            .map(|n| net_lower_bound(netlist, n))
            .collect();

        let wirelength_lower: f64 = net_lower.iter().sum();
        let power_lower: f64 = netlist
            .net_ids()
            .map(|n| net_lower[n.index()] * netlist.net(n).switching_prob)
            .sum();

        let path_lower: Vec<f64> = paths
            .iter()
            .map(|p| {
                let cell_delay: f64 = p
                    .cells
                    .iter()
                    .take(p.cells.len().saturating_sub(1))
                    .map(|&c| netlist.cell(c).switching_delay)
                    .sum();
                let wire_delay: f64 = p
                    .nets
                    .iter()
                    .map(|&n| net_lower[n.index()] * UNIT_INTERCONNECT_DELAY)
                    .sum();
                cell_delay + wire_delay
            })
            .collect();
        let delay_lower = path_lower.iter().copied().fold(0.0, f64::max);

        let mut cell_wire_lower = vec![0.0; netlist.num_cells()];
        let mut cell_power_lower = vec![0.0; netlist.num_cells()];
        for cell in netlist.cell_ids() {
            let mut wl = 0.0;
            let mut pw = 0.0;
            for &net in netlist.nets_of_cell(cell) {
                wl += net_lower[net.index()];
                pw += net_lower[net.index()] * netlist.net(net).switching_prob;
            }
            cell_wire_lower[cell.index()] = wl;
            cell_power_lower[cell.index()] = pw;
        }

        Bounds {
            net_lower,
            wirelength_lower,
            power_lower,
            path_lower,
            delay_lower,
            cell_wire_lower,
            cell_power_lower,
        }
    }
}

/// Lower bound on the length of a single net: half the sum of the widths of
/// the distinct cells it connects (their centre-to-centre span when packed
/// contiguously in one row).
pub fn net_lower_bound(netlist: &Netlist, net: NetId) -> f64 {
    let cells = netlist.net_cells(net);
    if cells.len() < 2 {
        return 0.0;
    }
    let total_width: u64 = cells.iter().map(|&c| netlist.cell(c).width as u64).sum();
    total_width as f64 / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Placement;
    use crate::wirelength::single_trunk_steiner;
    use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};
    use vlsi_netlist::paths::{extract_paths, PathExtractionConfig};
    use vlsi_netlist::{Cell, CellKind, NetlistBuilder};

    fn netlist() -> Netlist {
        CircuitGenerator::new(GeneratorConfig::sized("bounds_test", 150, 9)).generate()
    }

    #[test]
    fn net_bound_is_half_the_total_width() {
        let mut b = NetlistBuilder::new("t");
        let a = b.add_cell("a", Cell::new(CellKind::Input, 4, 0.0));
        let c = b.add_cell("c", Cell::logic(6));
        let d = b.add_cell("d", Cell::new(CellKind::Output, 2, 0.0));
        b.add_net("n", a, &[c, d], 0.5);
        let nl = b.build().unwrap();
        assert_eq!(net_lower_bound(&nl, NetId(0)), 6.0);
    }

    #[test]
    fn aggregate_bounds_are_sums_of_net_bounds() {
        let nl = netlist();
        let paths = extract_paths(&nl, &PathExtractionConfig::default());
        let bounds = Bounds::compute(&nl, &paths);
        let sum: f64 = bounds.net_lower.iter().sum();
        assert!((bounds.wirelength_lower - sum).abs() < 1e-9);
        assert!(bounds.power_lower <= bounds.wirelength_lower);
        assert!(bounds.power_lower > 0.0);
    }

    #[test]
    fn wirelength_bound_is_below_any_actual_placement() {
        let nl = netlist();
        let paths = extract_paths(&nl, &PathExtractionConfig::default());
        let bounds = Bounds::compute(&nl, &paths);
        let placement = Placement::round_robin(&nl, 8);
        let actual: f64 = nl
            .net_ids()
            .map(|n| {
                let pins: Vec<_> = nl
                    .net_cells(n)
                    .iter()
                    .map(|&c| placement.position(c))
                    .collect();
                single_trunk_steiner(&pins)
            })
            .sum();
        // The bound assumes perfect packing of every net independently, so it
        // must not exceed the cost of a real (legal, shared-row) placement by
        // construction it is a lower bound for nets placed in a single row;
        // with multiple rows actual lengths only grow.
        assert!(
            bounds.wirelength_lower <= actual,
            "bound {} must be <= actual {}",
            bounds.wirelength_lower,
            actual
        );
    }

    #[test]
    fn path_bounds_include_cell_delays() {
        let nl = netlist();
        let paths = extract_paths(&nl, &PathExtractionConfig::default());
        if paths.is_empty() {
            return;
        }
        let bounds = Bounds::compute(&nl, &paths);
        for (p, &lb) in paths.iter().zip(bounds.path_lower.iter()) {
            let min_cell_delay: f64 = p
                .cells
                .iter()
                .take(p.cells.len() - 1)
                .map(|&c| nl.cell(c).switching_delay)
                .sum();
            assert!(lb >= min_cell_delay - 1e-12);
        }
        assert!(bounds.delay_lower >= 0.0);
        assert_eq!(bounds.path_lower.len(), paths.len());
    }

    #[test]
    fn per_cell_bounds_cover_all_incident_nets() {
        let nl = netlist();
        let paths = extract_paths(&nl, &PathExtractionConfig::default());
        let bounds = Bounds::compute(&nl, &paths);
        for cell in nl.cell_ids() {
            let expected: f64 = nl
                .nets_of_cell(cell)
                .iter()
                .map(|&n| bounds.net_lower[n.index()])
                .sum();
            assert!((bounds.cell_wire_lower[cell.index()] - expected).abs() < 1e-9);
            assert!(bounds.cell_power_lower[cell.index()] <= expected + 1e-9);
        }
    }

    #[test]
    fn single_pin_nets_have_zero_bound() {
        let mut b = NetlistBuilder::new("self");
        let a = b.add_cell("a", Cell::logic(4));
        // a net whose only "sink" is its own driver (degenerate but legal)
        b.add_net("n", a, &[a], 0.5);
        let nl = b.build().unwrap();
        assert_eq!(net_lower_bound(&nl, NetId(0)), 0.0);
    }
}
