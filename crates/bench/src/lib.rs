//! Shared helpers of the table-reproduction binaries.
//!
//! `scenario_matrix` executes the scenario grid and writes its JSON report;
//! `report_tables` formats the paper-style tables from that report (see the
//! per-experiment index in `DESIGN.md`). Both go through [`json`], which
//! `sime-server` and `placebench` use too.
//! The release-mode performance floors live in `tests/perf_floors.rs`.

#![warn(missing_docs)]

pub mod json;

/// Formats a modeled runtime in seconds the way the paper's tables do
/// (whole seconds for large values, one decimal below 10 s).
pub fn fmt_seconds(seconds: f64) -> String {
    if seconds >= 10.0 {
        format!("{:.0}", seconds)
    } else {
        format!("{:.1}", seconds)
    }
}

/// Formats a parallel entry: the modeled time, with the achieved percentage
/// of the serial quality in brackets when the run fell short of it (the
/// convention used in Tables 2 and 3).
pub fn fmt_parallel_entry(seconds: f64, quality_fraction: f64) -> String {
    if quality_fraction >= 0.999 {
        fmt_seconds(seconds)
    } else {
        format!("{} ({:.0})", fmt_seconds(seconds), quality_fraction * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_formatting_matches_table_style() {
        assert_eq!(fmt_seconds(92.4), "92");
        assert_eq!(fmt_seconds(3.21), "3.2");
    }

    #[test]
    fn parallel_entry_shows_quality_deficit() {
        assert_eq!(fmt_parallel_entry(45.0, 1.0), "45");
        assert_eq!(fmt_parallel_entry(36.0, 0.95), "36 (95)");
    }
}
