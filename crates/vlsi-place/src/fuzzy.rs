//! Fuzzy membership functions and aggregation.
//!
//! The paper optimises three objectives simultaneously and folds them into a
//! single scalar quality `µ(s) ∈ [0, 1]` using fuzzy logic (Section 2,
//! "Overall Fuzzy Cost Function", following reference \[9\]). Each objective
//! cost `C_j` is mapped to a membership `µ_j ∈ [0, 1]` relative to a lower
//! bound `O_j`:
//!
//! * `µ_j = 1` when the cost reaches its lower bound,
//! * `µ_j = 0` when the cost reaches `goal_j · O_j` (the "goal" multiple of
//!   the lower bound),
//! * linear in between.
//!
//! The per-objective memberships are combined with an ordered-weighted-average
//! fuzzy AND: `µ = β · min_j µ_j + (1 − β) · mean_j µ_j`. The layout-width
//! constraint enters as an additional membership that is 1 while the
//! constraint `Width ≤ (1 + α) · w_avg` holds and decays once it is violated,
//! so constraint violations drag the whole quality measure down.

use serde::{Deserialize, Serialize};

/// Per-objective fuzzy memberships of a solution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FuzzyLevel {
    /// Membership of the wirelength objective.
    pub wirelength: f64,
    /// Membership of the power objective.
    pub power: f64,
    /// Membership of the delay objective (1.0 when delay is not optimised).
    pub delay: f64,
    /// Membership of the layout-width constraint.
    pub width: f64,
}

/// Configuration of the fuzzy cost aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FuzzyConfig {
    /// Cost multiple of the lower bound at which the wirelength membership
    /// reaches zero.
    pub goal_wirelength: f64,
    /// Cost multiple of the lower bound at which the power membership reaches
    /// zero.
    pub goal_power: f64,
    /// Cost multiple of the lower bound at which the delay membership reaches
    /// zero.
    pub goal_delay: f64,
    /// OWA weight of the `min` term in the fuzzy AND (`β` in \[9\]); the
    /// remaining `1 − β` weights the arithmetic mean.
    pub beta: f64,
    /// Width-constraint ratio `α`: the layout width must not exceed
    /// `(1 + α) · w_avg`.
    pub alpha_width: f64,
}

impl Default for FuzzyConfig {
    /// Defaults calibrated so that converged placements of the synthetic
    /// benchmark suite land in the µ ≈ 0.4–0.7 band the paper reports: the
    /// per-net lower bounds assume every net packed contiguously in a single
    /// row, which real (multi-row, shared) placements of the paper-sized
    /// circuits exceed by a measured factor of roughly 20–40× for wirelength
    /// and power and 10–18× for delay, so the memberships must reach zero
    /// only well above those ratios or µ degenerates to the width-only
    /// floor for every placement (`(1 − β)/3` with two objectives,
    /// `(1 − β)/4` when delay is included).
    fn default() -> Self {
        FuzzyConfig {
            goal_wirelength: 60.0,
            goal_power: 60.0,
            goal_delay: 30.0,
            beta: 0.7,
            alpha_width: 0.25,
        }
    }
}

impl FuzzyConfig {
    /// Linear membership of a cost relative to its lower bound: 1 at the
    /// bound, 0 at `goal · bound`.
    pub fn membership(cost: f64, lower_bound: f64, goal: f64) -> f64 {
        debug_assert!(goal > 1.0, "goal multiple must exceed 1.0");
        if lower_bound <= 0.0 {
            return 1.0;
        }
        let zero_at = goal * lower_bound;
        if cost <= lower_bound {
            1.0
        } else if cost >= zero_at {
            0.0
        } else {
            (zero_at - cost) / (zero_at - lower_bound)
        }
    }

    /// Membership of the width constraint: 1 while satisfied, then decaying
    /// as the ratio of the limit to the actual width.
    pub fn width_membership(&self, width: f64, avg_row_width: f64) -> f64 {
        if avg_row_width <= 0.0 {
            return 1.0;
        }
        let limit = (1.0 + self.alpha_width) * avg_row_width;
        if width <= limit {
            1.0
        } else {
            (limit / width).clamp(0.0, 1.0)
        }
    }

    /// Ordered-weighted-average fuzzy AND of a set of memberships:
    /// `β · min + (1 − β) · mean`.
    pub fn aggregate(&self, memberships: &[f64]) -> f64 {
        if memberships.is_empty() {
            return 1.0;
        }
        let min = memberships.iter().copied().fold(f64::INFINITY, f64::min);
        let mean = memberships.iter().sum::<f64>() / memberships.len() as f64;
        (self.beta * min + (1.0 - self.beta) * mean).clamp(0.0, 1.0)
    }

    /// Aggregates a full [`FuzzyLevel`] into the scalar quality `µ(s)`,
    /// including only the objectives listed in `use_delay` and always
    /// including the width-constraint membership.
    pub fn mu(&self, level: &FuzzyLevel, use_delay: bool) -> f64 {
        if use_delay {
            self.aggregate(&[level.wirelength, level.power, level.delay, level.width])
        } else {
            self.aggregate(&[level.wirelength, level.power, level.width])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_saturates_at_bound_and_goal() {
        assert_eq!(FuzzyConfig::membership(50.0, 100.0, 2.0), 1.0);
        assert_eq!(FuzzyConfig::membership(100.0, 100.0, 2.0), 1.0);
        assert_eq!(FuzzyConfig::membership(200.0, 100.0, 2.0), 0.0);
        assert_eq!(FuzzyConfig::membership(400.0, 100.0, 2.0), 0.0);
    }

    #[test]
    fn membership_is_linear_between_bound_and_goal() {
        let m = FuzzyConfig::membership(150.0, 100.0, 2.0);
        assert!((m - 0.5).abs() < 1e-12);
        let m = FuzzyConfig::membership(125.0, 100.0, 2.0);
        assert!((m - 0.75).abs() < 1e-12);
    }

    #[test]
    fn membership_is_monotone_in_cost() {
        let mut last = 1.0;
        for i in 0..100 {
            let cost = 100.0 + i as f64 * 3.0;
            let m = FuzzyConfig::membership(cost, 100.0, 2.5);
            assert!(m <= last + 1e-12);
            last = m;
        }
    }

    #[test]
    fn zero_lower_bound_gives_full_membership() {
        assert_eq!(FuzzyConfig::membership(123.0, 0.0, 2.0), 1.0);
    }

    #[test]
    fn width_membership_kicks_in_past_the_limit() {
        let cfg = FuzzyConfig::default();
        let wavg = 100.0;
        assert_eq!(cfg.width_membership(100.0, wavg), 1.0);
        assert_eq!(cfg.width_membership(125.0, wavg), 1.0); // exactly at (1+α)
        let m = cfg.width_membership(250.0, wavg);
        assert!(m < 1.0 && m > 0.0);
        assert!((m - 0.5).abs() < 1e-12);
    }

    #[test]
    fn aggregate_is_between_min_and_mean() {
        let cfg = FuzzyConfig {
            beta: 0.7,
            ..Default::default()
        };
        let parts = [0.2, 0.8, 0.6];
        let agg = cfg.aggregate(&parts);
        let min = 0.2;
        let mean = (0.2 + 0.8 + 0.6) / 3.0;
        assert!(agg >= min - 1e-12 && agg <= mean + 1e-12);
        assert!((agg - (0.7 * min + 0.3 * mean)).abs() < 1e-12);
    }

    #[test]
    fn aggregate_of_perfect_memberships_is_one() {
        let cfg = FuzzyConfig::default();
        assert_eq!(cfg.aggregate(&[1.0, 1.0, 1.0, 1.0]), 1.0);
        assert_eq!(cfg.aggregate(&[]), 1.0);
    }

    #[test]
    fn mu_includes_delay_only_when_asked() {
        let cfg = FuzzyConfig {
            beta: 1.0, // pure min, easier to reason about
            ..Default::default()
        };
        let level = FuzzyLevel {
            wirelength: 0.9,
            power: 0.8,
            delay: 0.1,
            width: 1.0,
        };
        let without = cfg.mu(&level, false);
        let with = cfg.mu(&level, true);
        assert!((without - 0.8).abs() < 1e-12);
        assert!((with - 0.1).abs() < 1e-12);
        assert!(with < without);
    }

    #[test]
    fn mu_is_monotone_in_each_membership() {
        let cfg = FuzzyConfig::default();
        let base = FuzzyLevel {
            wirelength: 0.5,
            power: 0.5,
            delay: 0.5,
            width: 1.0,
        };
        let better = FuzzyLevel {
            wirelength: 0.6,
            ..base
        };
        assert!(cfg.mu(&better, true) >= cfg.mu(&base, true));
        let worse = FuzzyLevel { power: 0.3, ..base };
        assert!(cfg.mu(&worse, true) <= cfg.mu(&base, true));
    }
}
