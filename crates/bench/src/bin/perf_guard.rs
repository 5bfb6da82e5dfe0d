//! `perf_guard` — the perf-regression gate of the CI guardrail job.
//!
//! Two modes:
//!
//! * **Baseline mode** (the default): compares a freshly generated
//!   `BENCH_PR2.json` (see `perf_report`) against the checked-in
//!   `BENCH_BASELINE.json` and fails (exit 1) when any guarded metric
//!   regressed beyond the relative tolerance. The guarded metrics are
//!   deliberately **machine-relative ratios**, not raw nanoseconds: both
//!   sides of each ratio are measured in the same process on the same host,
//!   so the comparison is stable across runner generations while still
//!   catching real regressions of the hot paths:
//!
//!   * `head_to_head.trial_scoring_48slots.speedup` — the allocation
//!     kernel's advantage over the naive trial scorer (higher is better);
//!   * `head_to_head.full_net_lengths.speedup` — the evaluation kernel's
//!     advantage over the naive full evaluation (higher is better);
//!   * `head_to_head.goodness_pass.ratio_vs_naive_eval` — the per-cell
//!     goodness pass cost relative to a naive full evaluation on the same
//!     host (lower is better).
//!
//! * **`--pr7` mode**: gates a fresh `BENCH_PR7.json` (the bound-pruned
//!   allocation snapshot) — the pruned serial windowed iteration must be
//!   ≥ 1.3× faster than the legacy exhaustive arm of the same in-process
//!   A/B, and the two arms must have agreed bit for bit. Both arms run
//!   serially on the same host, so the ratio is machine-relative and there
//!   is **no low-core skip**: a single-core runner is gated exactly like a
//!   32-core one.
//!
//! Usage:
//!
//! ```text
//! perf_guard [--baseline BENCH_BASELINE.json] [--fresh BENCH_PR2.json]
//!            [--tolerance 0.25]
//! perf_guard --pr7 [--fresh BENCH_PR7.json]
//! ```
//!
//! `--tolerance 0.25` (the default) fails on a > 25 % relative regression.
//! A metric missing from the *fresh* report is a failure (the gate must not
//! silently shrink); a metric missing from the *baseline* is skipped with a
//! notice, so new metrics can be introduced before the baseline is re-pinned.
//! Re-pin after an intentional perf change with:
//!
//! ```text
//! cargo run --release -p bench --bin perf_report -- --only pr2 --out BENCH_BASELINE.json
//! ```

use bench::json::Json;

/// Whether a guarded metric regresses when it moves up or down.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    HigherIsBetter,
    LowerIsBetter,
}

/// One guarded metric of the baseline gate: its dotted path in the report
/// and its direction.
const GUARDED: [(&str, Direction); 3] = [
    (
        "head_to_head.trial_scoring_48slots.speedup",
        Direction::HigherIsBetter,
    ),
    (
        "head_to_head.full_net_lengths.speedup",
        Direction::HigherIsBetter,
    ),
    (
        "head_to_head.goodness_pass.ratio_vs_naive_eval",
        Direction::LowerIsBetter,
    ),
];

/// The `--pr7` floor: the bound-pruned serial windowed iteration versus the
/// legacy exhaustive arm of the same in-process A/B. Machine-relative, so it
/// applies on every core count — there is no low-core skip.
const PR7_SERIAL_FLOOR: f64 = 1.3;

/// The outcome of one gate evaluation: every line to print (PASS, FAIL and
/// SKIP alike, in order) plus the counts the exit code derives from. Pure
/// data so the message content is unit-testable without files or exits.
struct GateOutcome {
    lines: Vec<String>,
    checked: usize,
    failures: usize,
}

impl GateOutcome {
    fn new() -> Self {
        GateOutcome {
            lines: Vec::new(),
            checked: 0,
            failures: 0,
        }
    }

    fn pass(&mut self, line: String) {
        self.checked += 1;
        self.lines.push(format!("  PASS {line}"));
    }

    fn fail(&mut self, line: String) {
        self.failures += 1;
        self.lines.push(format!("  FAIL {line}"));
    }

    fn skip(&mut self, line: String) {
        self.lines.push(format!("  SKIP {line}"));
    }
}

/// Evaluates the baseline gate: every guarded machine-relative ratio in
/// `fresh` against `baseline` under the relative `tolerance`.
fn evaluate_baseline_gate(baseline: &Json, fresh: &Json, tolerance: f64) -> GateOutcome {
    let mut outcome = GateOutcome::new();
    for (path, direction) in GUARDED {
        let Some(base) = baseline.number(path) else {
            outcome.skip(format!(
                "{path}: not in the baseline yet (re-pin to start guarding it)"
            ));
            continue;
        };
        let Some(current) = fresh.number(path) else {
            outcome.fail(format!("{path}: missing from the fresh report"));
            continue;
        };
        if !(base.is_finite() && current.is_finite()) || base <= 0.0 {
            outcome.fail(format!(
                "{path}: non-finite or non-positive values ({base} vs {current})"
            ));
            continue;
        }
        let (bound, ok, movement) = match direction {
            Direction::HigherIsBetter => {
                let bound = base * (1.0 - tolerance);
                (bound, current >= bound, "min allowed")
            }
            Direction::LowerIsBetter => {
                let bound = base * (1.0 + tolerance);
                (bound, current <= bound, "max allowed")
            }
        };
        if ok {
            outcome.pass(format!(
                "{path}: {current:.3} (baseline {base:.3}, {movement} {bound:.3})"
            ));
        } else {
            outcome.fail(format!(
                "{path}: {current:.3} regressed past {movement} {bound:.3} (baseline {base:.3})"
            ));
        }
    }
    outcome
}

/// Evaluates the `--pr7` bound-pruned allocation gate on a fresh
/// `BENCH_PR7.json`.
///
/// Both arms of the A/B it gates ran serially in the same process, so the
/// speedup is machine-relative and the floor applies on **every** host —
/// deliberately no low-core skip. Failure lines still name the host
/// parallelism so a red leg is diagnosable from the log alone.
fn evaluate_pr7_gate(report: &Json) -> GateOutcome {
    let mut outcome = GateOutcome::new();
    let host = report.number("host_parallelism").unwrap_or(0.0);
    if report.get("bitwise_identical_across_configs") != Some(&Json::Bool(true)) {
        outcome.fail(format!(
            "bitwise_identical_across_configs: the pruned and legacy \
             exhaustive serial arms disagreed on host_parallelism={host} — \
             determinism before speed, fix this first"
        ));
    }
    let Some(speedup) = report.number("windowed_serial_speedup_vs_legacy") else {
        outcome.fail(format!(
            "windowed_serial_speedup_vs_legacy: missing from the PR7 report \
             (host_parallelism={host})"
        ));
        return outcome;
    };
    if speedup.is_finite() && speedup >= PR7_SERIAL_FLOOR {
        outcome.pass(format!(
            "windowed_serial_speedup_vs_legacy: {speedup:.2}x >= \
             {PR7_SERIAL_FLOOR:.2}x floor (host_parallelism={host}, serial \
             windowed iteration; machine-relative, gated on every core count)"
        ));
    } else {
        outcome.fail(format!(
            "windowed_serial_speedup_vs_legacy: {speedup:.2}x vs the legacy \
             exhaustive arm is below the {PR7_SERIAL_FLOOR:.2}x floor \
             (host_parallelism={host}, serial windowed iteration; \
             machine-relative, so a low core count is no excuse)"
        ));
    }
    outcome
}

fn load(path: &str) -> Json {
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("perf_guard: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse_bytes(&bytes).unwrap_or_else(|e| {
        eprintln!("perf_guard: cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

/// Prints an outcome's lines and exits non-zero on failures (or when the
/// gate checked nothing at all).
fn finish(outcome: GateOutcome, epilogue: &str) -> ! {
    for line in &outcome.lines {
        if line.trim_start().starts_with("FAIL") {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }
    if outcome.checked == 0 && outcome.failures == 0 {
        eprintln!("perf_guard: no guarded metric was checked — the gate compared nothing");
        std::process::exit(1);
    }
    if outcome.failures > 0 {
        eprintln!(
            "perf_guard: {} metric(s) failed; {epilogue}",
            outcome.failures
        );
        std::process::exit(1);
    }
    println!(
        "perf guard passed: {} metric(s) within bounds",
        outcome.checked
    );
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "perf_guard [--baseline BENCH_BASELINE.json] [--fresh BENCH_PR2.json] [--tolerance 0.25]\n\
             perf_guard --pr7 [--fresh BENCH_PR7.json]"
        );
        return;
    }
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };

    if args.iter().any(|a| a == "--pr7") {
        let fresh_path = arg("--fresh").unwrap_or_else(|| "BENCH_PR7.json".into());
        let fresh = load(&fresh_path);
        println!(
            "perf guard (pr7): {fresh_path} vs the bound-pruned allocation floor \
             (serial windowed >= {PR7_SERIAL_FLOOR}x over the legacy exhaustive arm; \
             machine-relative, no low-core skip)"
        );
        // The A/B is in-process and serial on both sides, so the gate must
        // always check something — an empty outcome is a failure.
        finish(
            evaluate_pr7_gate(&fresh),
            "the floor is machine-relative; investigate the pruned scan before re-running",
        );
    }

    let baseline_path = arg("--baseline").unwrap_or_else(|| "BENCH_BASELINE.json".into());
    let fresh_path = arg("--fresh").unwrap_or_else(|| "BENCH_PR2.json".into());
    let tolerance: f64 = match arg("--tolerance") {
        None => 0.25,
        Some(v) => match v.parse::<f64>() {
            Ok(t) if t > 0.0 && t < 1.0 => t,
            _ => {
                eprintln!("perf_guard: --tolerance must be a fraction in (0, 1), got `{v}`");
                std::process::exit(2);
            }
        },
    };

    let baseline = load(&baseline_path);
    let fresh = load(&fresh_path);
    println!(
        "perf guard: {fresh_path} vs {baseline_path} (relative tolerance {:.0} %)",
        tolerance * 100.0
    );
    let epilogue = format!(
        "regressed beyond {:.0} %; if intentional, re-pin BENCH_BASELINE.json (see --help)",
        tolerance * 100.0
    );
    finish(
        evaluate_baseline_gate(&baseline, &fresh, tolerance),
        &epilogue,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pr7_report(host: f64, speedup: f64) -> Json {
        Json::parse(&format!(
            r#"{{
                "report": "BENCH_PR7",
                "host_parallelism": {host},
                "bitwise_identical_across_configs": true,
                "windowed_serial_speedup_vs_legacy": {speedup}
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn pr7_gate_passes_on_a_fast_report() {
        let outcome = evaluate_pr7_gate(&pr7_report(8.0, 1.65));
        assert_eq!(outcome.failures, 0);
        assert_eq!(outcome.checked, 1);
        assert!(outcome.lines.iter().all(|l| l.contains("PASS")));
    }

    #[test]
    fn pr7_gate_has_no_low_core_skip() {
        // Machine-relative A/B: a single-core host is gated like any other —
        // passing when above the floor, failing when below, never skipping.
        let fast = evaluate_pr7_gate(&pr7_report(1.0, 1.62));
        assert_eq!(fast.failures, 0, "a 1-core host above the floor passes");
        assert_eq!(fast.checked, 1, "a 1-core host must still be checked");
        let slow = evaluate_pr7_gate(&pr7_report(1.0, 1.04));
        assert_eq!(slow.failures, 1, "a 1-core host below the floor fails");
        assert!(
            !slow.lines.iter().any(|l| l.contains("SKIP")),
            "the pr7 gate must never skip: {:?}",
            slow.lines
        );
    }

    #[test]
    fn pr7_failure_messages_name_host_floor_and_ratio() {
        let outcome = evaluate_pr7_gate(&pr7_report(2.0, 1.12));
        assert_eq!(outcome.failures, 1);
        let fail = outcome.lines.iter().find(|l| l.contains("FAIL")).unwrap();
        assert!(
            fail.contains("windowed_serial_speedup_vs_legacy")
                && fail.contains("host_parallelism=2")
                && fail.contains("1.12x")
                && fail.contains("1.30x"),
            "failure must name the host and the achieved-vs-required pair: {fail}"
        );
    }

    #[test]
    fn pr7_gate_fails_on_a_bitwise_mismatch() {
        let mut report = pr7_report(8.0, 1.65);
        if let Json::Object(ref mut map) = report {
            map.insert("bitwise_identical_across_configs".into(), Json::Bool(false));
        }
        let outcome = evaluate_pr7_gate(&report);
        assert_eq!(outcome.failures, 1);
        let line = outcome
            .lines
            .iter()
            .find(|l| l.contains("bitwise_identical_across_configs"))
            .unwrap();
        assert!(
            line.contains("FAIL") && line.contains("determinism"),
            "{line}"
        );
    }

    #[test]
    fn pr7_gate_fails_on_a_missing_headline() {
        let report = Json::parse(
            r#"{"report": "BENCH_PR7", "host_parallelism": 4,
                "bitwise_identical_across_configs": true}"#,
        )
        .unwrap();
        let outcome = evaluate_pr7_gate(&report);
        assert_eq!(outcome.failures, 1, "a shrunken report must not pass");
        assert!(outcome.lines[0].contains("missing"), "{:?}", outcome.lines);
    }

    #[test]
    fn baseline_gate_messages_show_bound_and_baseline() {
        let baseline = Json::parse(
            r#"{"head_to_head": {
                "trial_scoring_48slots": {"speedup": 6.0},
                "full_net_lengths": {"speedup": 2.0},
                "goodness_pass": {"ratio_vs_naive_eval": 0.5}
            }}"#,
        )
        .unwrap();
        let fresh = Json::parse(
            r#"{"head_to_head": {
                "trial_scoring_48slots": {"speedup": 4.0},
                "full_net_lengths": {"speedup": 1.9},
                "goodness_pass": {"ratio_vs_naive_eval": 0.52}
            }}"#,
        )
        .unwrap();
        let outcome = evaluate_baseline_gate(&baseline, &fresh, 0.25);
        assert_eq!(outcome.failures, 1, "only trial scoring fell past 25 %");
        assert_eq!(outcome.checked, 2);
        let fail = outcome.lines.iter().find(|l| l.contains("FAIL")).unwrap();
        assert!(
            fail.contains("trial_scoring_48slots")
                && fail.contains("4.000")
                && fail.contains("4.500")
                && fail.contains("baseline 6.000"),
            "failure must show current, bound and baseline: {fail}"
        );
    }

    #[test]
    fn baseline_gate_skips_unpinned_metrics_and_fails_missing_fresh_ones() {
        let baseline =
            Json::parse(r#"{"head_to_head": {"trial_scoring_48slots": {"speedup": 6.0}}}"#)
                .unwrap();
        let fresh = Json::parse(r#"{"head_to_head": {}}"#).unwrap();
        let outcome = evaluate_baseline_gate(&baseline, &fresh, 0.25);
        assert_eq!(outcome.failures, 1, "pinned metric missing from fresh");
        assert_eq!(outcome.checked, 0);
        assert_eq!(
            outcome.lines.iter().filter(|l| l.contains("SKIP")).count(),
            2,
            "unpinned metrics skip with a notice"
        );
    }
}
