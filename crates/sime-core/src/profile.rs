//! Operator-level profiling of a SimE run.
//!
//! Section 4 of the paper profiles the serial implementation with `gprof` and
//! finds that ~98.4–98.5 % of the runtime is spent in the allocation routine,
//! ~0.5–0.6 % in wirelength calculation, ~0.2–0.4 % in goodness evaluation
//! and ~0.2 % in delay calculation. That distribution is the motivation for
//! the whole paper: only a strategy that parallelises allocation (Type II)
//! can produce real speed-ups.
//!
//! [`ProfileReport`] reproduces the same measurement for our implementation.
//! Two complementary views are recorded:
//!
//! * **wall-clock time** per phase, measured with `std::time::Instant`, and
//! * **work counts** (net-length evaluations and trial positions), which are
//!   deterministic and are what the cluster simulation
//!   (`cluster-sim::machine`) charges virtual compute time for.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The phases of one SimE iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Computing per-net costs (wirelength / power inputs).
    CostCalculation,
    /// Computing per-cell goodness values.
    GoodnessEvaluation,
    /// The selection operator.
    Selection,
    /// The allocation operator (sorted individual best fit).
    Allocation,
    /// Delay (path) cost calculation.
    DelayCalculation,
}

impl Phase {
    /// All phases in reporting order.
    pub const ALL: [Phase; 5] = [
        Phase::CostCalculation,
        Phase::GoodnessEvaluation,
        Phase::Selection,
        Phase::Allocation,
        Phase::DelayCalculation,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::CostCalculation => "cost calculation",
            Phase::GoodnessEvaluation => "goodness evaluation",
            Phase::Selection => "selection",
            Phase::Allocation => "allocation",
            Phase::DelayCalculation => "delay calculation",
        }
    }
}

/// Accumulated profile of a SimE run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProfileReport {
    times_ns: [u128; 5],
    /// Net-length evaluations per phase (work counts).
    net_evals: [u64; 5],
    /// Trial positions examined by allocation.
    pub trial_positions: u64,
    /// Iterations profiled.
    pub iterations: u64,
}

impl ProfileReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    fn idx(phase: Phase) -> usize {
        match phase {
            Phase::CostCalculation => 0,
            Phase::GoodnessEvaluation => 1,
            Phase::Selection => 2,
            Phase::Allocation => 3,
            Phase::DelayCalculation => 4,
        }
    }

    /// Adds wall-clock time to a phase.
    pub fn add_time(&mut self, phase: Phase, duration: Duration) {
        self.times_ns[Self::idx(phase)] += duration.as_nanos();
    }

    /// Adds net-length evaluation work to a phase.
    pub fn add_net_evals(&mut self, phase: Phase, count: u64) {
        self.net_evals[Self::idx(phase)] += count;
    }

    /// Wall-clock time attributed to a phase.
    pub fn time(&self, phase: Phase) -> Duration {
        Duration::from_nanos(self.times_ns[Self::idx(phase)] as u64)
    }

    /// Net-length evaluations attributed to a phase.
    pub fn net_evals(&self, phase: Phase) -> u64 {
        self.net_evals[Self::idx(phase)]
    }

    /// Total profiled wall-clock time.
    pub fn total_time(&self) -> Duration {
        Duration::from_nanos(self.times_ns.iter().sum::<u128>() as u64)
    }

    /// Fraction of the total wall-clock time spent in `phase` (0 when nothing
    /// was profiled).
    pub fn time_fraction(&self, phase: Phase) -> f64 {
        let total: u128 = self.times_ns.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.times_ns[Self::idx(phase)] as f64 / total as f64
        }
    }

    /// Fraction of the total work (net evaluations) spent in `phase`.
    pub fn work_fraction(&self, phase: Phase) -> f64 {
        let total: u64 = self.net_evals.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.net_evals[Self::idx(phase)] as f64 / total as f64
        }
    }

    /// Merges another report into this one (used when aggregating slave
    /// profiles in the parallel strategies).
    pub fn merge(&mut self, other: &ProfileReport) {
        for i in 0..5 {
            self.times_ns[i] += other.times_ns[i];
            self.net_evals[i] += other.net_evals[i];
        }
        self.trial_positions += other.trial_positions;
        self.iterations += other.iterations;
    }

    /// Formats the report as a percentage table, one row per phase with its
    /// share of wall time and of net evaluations (the `quickstart` example
    /// prints it).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str("phase                 time%    work%\n");
        for phase in Phase::ALL {
            out.push_str(&format!(
                "{:<20} {:>6.1}%  {:>6.1}%\n",
                phase.label(),
                100.0 * self.time_fraction(phase),
                100.0 * self.work_fraction(phase),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one_when_populated() {
        let mut p = ProfileReport::new();
        p.add_time(Phase::Allocation, Duration::from_millis(98));
        p.add_time(Phase::CostCalculation, Duration::from_millis(1));
        p.add_time(Phase::GoodnessEvaluation, Duration::from_millis(1));
        let sum: f64 = Phase::ALL.iter().map(|&ph| p.time_fraction(ph)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(p.time_fraction(Phase::Allocation) > 0.9);
    }

    #[test]
    fn empty_report_has_zero_fractions() {
        let p = ProfileReport::new();
        for phase in Phase::ALL {
            assert_eq!(p.time_fraction(phase), 0.0);
            assert_eq!(p.work_fraction(phase), 0.0);
        }
        assert_eq!(p.total_time(), Duration::ZERO);
    }

    #[test]
    fn work_counts_accumulate_and_merge() {
        let mut a = ProfileReport::new();
        a.add_net_evals(Phase::Allocation, 1000);
        a.add_net_evals(Phase::CostCalculation, 10);
        a.trial_positions = 50;
        a.iterations = 1;
        let mut b = ProfileReport::new();
        b.add_net_evals(Phase::Allocation, 500);
        b.trial_positions = 25;
        b.iterations = 2;
        a.merge(&b);
        assert_eq!(a.net_evals(Phase::Allocation), 1500);
        assert_eq!(a.net_evals(Phase::CostCalculation), 10);
        assert_eq!(a.trial_positions, 75);
        assert_eq!(a.iterations, 3);
        assert!(a.work_fraction(Phase::Allocation) > 0.99);
    }

    #[test]
    fn table_lists_every_phase() {
        let mut p = ProfileReport::new();
        p.add_time(Phase::Allocation, Duration::from_secs(1));
        let table = p.to_table();
        for phase in Phase::ALL {
            assert!(table.contains(phase.label()), "missing {}", phase.label());
        }
    }

    #[test]
    fn time_accessor_roundtrips() {
        let mut p = ProfileReport::new();
        p.add_time(Phase::Selection, Duration::from_micros(1234));
        assert_eq!(p.time(Phase::Selection), Duration::from_micros(1234));
        assert_eq!(p.time(Phase::Allocation), Duration::ZERO);
    }
}
