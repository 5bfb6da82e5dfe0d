//! Per-net interconnect length estimation.
//!
//! The paper estimates the wirelength of each net with a Steiner tree
//! (Section 2). For row-based standard-cell layouts the customary
//! approximation is the *single-trunk Steiner tree*: a horizontal trunk at the
//! median pin y-coordinate spanning the horizontal extent of the net, plus a
//! vertical branch from every pin to the trunk. It is the one per-net
//! estimator of the cost model. The half-perimeter wirelength (HPWL) of the
//! bounding box is provided only as the lower bound the tests hold the
//! Steiner estimate to.

/// Half-perimeter wirelength of the bounding box of `pins`, a lower bound of
/// [`single_trunk_steiner`].
pub fn hpwl(pins: &[(f64, f64)]) -> f64 {
    if pins.len() < 2 {
        return 0.0;
    }
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in pins {
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    }
    (max_x - min_x) + (max_y - min_y)
}

/// Single-trunk Steiner tree estimate: horizontal trunk at the median pin y,
/// spanning `[min_x, max_x]`, plus a vertical branch from every pin to the
/// trunk. Returns 0 for nets with fewer than two pins.
pub fn single_trunk_steiner(pins: &[(f64, f64)]) -> f64 {
    if pins.len() < 2 {
        return 0.0;
    }
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, _) in pins {
        min_x = min_x.min(x);
        max_x = max_x.max(x);
    }
    let mut ys: Vec<f64> = pins.iter().map(|&(_, y)| y).collect();
    ys.sort_by(|a, b| a.partial_cmp(b).expect("pin coordinates are finite"));
    let trunk_y = ys[ys.len() / 2];
    let trunk = max_x - min_x;
    let branches: f64 = pins.iter().map(|&(_, y)| (y - trunk_y).abs()).sum();
    trunk + branches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_nets_have_zero_length() {
        assert_eq!(hpwl(&[]), 0.0);
        assert_eq!(hpwl(&[(3.0, 4.0)]), 0.0);
        assert_eq!(single_trunk_steiner(&[]), 0.0);
        assert_eq!(single_trunk_steiner(&[(3.0, 4.0)]), 0.0);
    }

    #[test]
    fn two_pin_net_matches_manhattan_distance() {
        let pins = [(0.0, 0.0), (3.0, 4.0)];
        assert_eq!(hpwl(&pins), 7.0);
        assert_eq!(single_trunk_steiner(&pins), 7.0);
    }

    #[test]
    fn steiner_is_at_least_hpwl_horizontal_span() {
        let pins = [(0.0, 0.0), (10.0, 8.0), (5.0, 16.0), (2.0, 8.0)];
        let st = single_trunk_steiner(&pins);
        assert!(st >= 10.0, "trunk must cover the horizontal span");
        // With pins on 3 distinct rows the Steiner estimate exceeds HPWL.
        assert!(st >= hpwl(&pins));
    }

    #[test]
    fn collinear_pins_cost_only_the_span() {
        let pins = [(0.0, 4.0), (5.0, 4.0), (9.0, 4.0)];
        assert_eq!(single_trunk_steiner(&pins), 9.0);
        assert_eq!(hpwl(&pins), 9.0);
    }

    #[test]
    fn trunk_at_median_minimises_vertical_wire_for_odd_counts() {
        // Pins on rows 0, 8, 80: the median (8) gives branches 8 + 72 = 80;
        // placing the trunk at the mean would be worse.
        let pins = [(0.0, 0.0), (1.0, 8.0), (2.0, 80.0)];
        let st = single_trunk_steiner(&pins);
        assert!((st - (2.0 + 80.0)).abs() < 1e-9);
    }
}
