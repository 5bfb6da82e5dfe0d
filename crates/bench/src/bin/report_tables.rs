//! `report_tables` — renders the paper-style text tables from a scenario
//! matrix JSON report (the artifact `scenario_matrix` writes).
//!
//! The five bespoke `table*` binaries used to re-run the experiments for
//! every table; this renderer replaces them by formatting the tables from
//! the **already-executed** matrix, so one `scenario_matrix` run (the same
//! one CI archives and golden-checks) feeds every table:
//!
//! * **Runtime table** (Table 1/4 shape) — modeled runtime of every matrix
//!   strategy per circuit.
//! * **Type II tables** (Table 2/3 shape) — fixed vs random row pattern,
//!   one table per objective mix, entries annotated with the achieved
//!   percentage of the circuit's best quality when they fall short (the
//!   bracket convention of the paper).
//! * **Quality table** (Table 5 shape) — best µ(s) per strategy, including
//!   the island portfolios racing SimE against the GA/SA/TS baselines.
//! * **Portfolio scaling** — modeled runtime and µ(s) of the mixed
//!   portfolio as the island count grows (the portfolio's rank sweep).
//!
//! Usage: `report_tables [--input PATH]` (default `SCENARIO_MATRIX.json`).
//!
//! Regenerate the input with `cargo run --release -p bench --bin
//! scenario_matrix -- --quick --out SCENARIO_MATRIX.json`; pass `--full` to
//! the matrix for the bigger grid. The renderer only reads Modeled-backend
//! records: the determinism contract makes every other backend's trajectory
//! identical, so they would only duplicate rows.

use bench::json::Json;
use bench::{fmt_parallel_entry, fmt_seconds};
use std::collections::BTreeMap;

/// One Modeled-backend record of the matrix report.
#[derive(Debug, Clone)]
struct Rec {
    circuit: String,
    strategy: String,
    ranks: usize,
    objectives: String,
    best_mu: f64,
    modeled_seconds: f64,
}

/// Extracts the Modeled-backend records from a parsed matrix report.
fn collect_records(doc: &Json) -> Result<Vec<Rec>, String> {
    let Some(Json::Array(records)) = doc.get("records") else {
        return Err("report has no `records` array".into());
    };
    let mut out = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        let field = |name: &str| {
            rec.string(name)
                .map(str::to_string)
                .ok_or_else(|| format!("record {i}: missing string `{name}`"))
        };
        let num = |name: &str| {
            rec.number(name)
                .ok_or_else(|| format!("record {i}: missing number `{name}`"))
        };
        if field("backend")? != "modeled" {
            continue;
        }
        out.push(Rec {
            circuit: field("circuit")?,
            strategy: field("strategy")?,
            ranks: num("ranks")? as usize,
            objectives: field("objectives")?,
            best_mu: num("best_mu")?,
            modeled_seconds: num("modeled_seconds")?,
        });
    }
    if out.is_empty() {
        return Err("report contains no modeled-backend records".into());
    }
    Ok(out)
}

/// Circuit names in first-appearance order (the matrix emits them in suite
/// order, which the tables should keep).
fn circuits(recs: &[Rec]) -> Vec<String> {
    let mut seen = Vec::new();
    for r in recs {
        if !seen.contains(&r.circuit) {
            seen.push(r.circuit.clone());
        }
    }
    seen
}

fn find<'a>(recs: &'a [Rec], circuit: &str, strategy: &str, objectives: &str) -> Option<&'a Rec> {
    recs.iter()
        .find(|r| r.circuit == circuit && r.strategy == strategy && r.objectives == objectives)
}

/// The best µ(s) any strategy reached on a circuit under an objective mix —
/// the quality reference the bracket annotations compare against (the
/// matrix carries no serial baseline).
fn best_mu_on(recs: &[Rec], circuit: &str, objectives: &str) -> f64 {
    recs.iter()
        .filter(|r| r.circuit == circuit && r.objectives == objectives)
        .map(|r| r.best_mu)
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Runtime table (Table 1/4 shape): modeled seconds per matrix strategy.
fn render_runtime_table(recs: &[Rec]) -> String {
    const STRATEGIES: [&str; 4] = ["type1", "type2_fixed", "type2_random", "type3"];
    let mut out = String::from("== Runtime by strategy (modeled seconds, wirelength+power) ==\n");
    out.push_str(&format!(
        "{:<8} {:>8} {:>12} {:>13} {:>8}\n",
        "Ckt", "type1", "type2_fixed", "type2_random", "type3"
    ));
    for circuit in circuits(recs) {
        let cells: Vec<String> = STRATEGIES
            .iter()
            .map(|s| match find(recs, &circuit, s, "wp") {
                Some(r) => fmt_seconds(r.modeled_seconds),
                None => "-".into(),
            })
            .collect();
        if cells.iter().all(|c| c == "-") {
            continue;
        }
        out.push_str(&format!(
            "{:<8} {:>8} {:>12} {:>13} {:>8}\n",
            circuit, cells[0], cells[1], cells[2], cells[3]
        ));
    }
    out
}

/// Type II table (Table 2/3 shape) for one objective mix: fixed vs random
/// row pattern, time entries annotated with the achieved percentage of the
/// circuit's best quality when short of it.
fn render_type2_table(recs: &[Rec], objectives: &str, title: &str) -> String {
    let mut out = format!("== {title} ==\n");
    out.push_str(&format!(
        "{:<8} {:>7} | {:>14} | {:>14}\n",
        "Ckt", "mu(s)", "fixed", "random"
    ));
    for circuit in circuits(recs) {
        let reference = best_mu_on(recs, &circuit, objectives);
        let fixed = find(recs, &circuit, "type2_fixed", objectives);
        let random = find(recs, &circuit, "type2_random", objectives);
        if fixed.is_none() && random.is_none() {
            continue;
        }
        let entry = |r: Option<&Rec>| match r {
            Some(r) => fmt_parallel_entry(r.modeled_seconds, r.best_mu / reference),
            None => "-".into(),
        };
        out.push_str(&format!(
            "{:<8} {:>7.3} | {:>14} | {:>14}\n",
            circuit,
            reference,
            entry(fixed),
            entry(random)
        ));
    }
    out
}

/// Quality table (Table 5 shape): best µ(s) per strategy, including the
/// island portfolios.
fn render_quality_table(recs: &[Rec]) -> String {
    const COLUMNS: [&str; 6] = [
        "type1",
        "type2_fixed",
        "type2_random",
        "type3",
        "portfolio_mixed",
        "portfolio_baselines",
    ];
    let mut out = String::from("== Quality by strategy (best mu(s), wirelength+power) ==\n");
    out.push_str(&format!(
        "{:<8} {:>6} {:>8} {:>8} {:>6} {:>9} {:>9}\n",
        "Ckt", "T-I", "T-II(f)", "T-II(r)", "T-III", "Pf(mix)", "Pf(base)"
    ));
    for circuit in circuits(recs) {
        let cells: Vec<String> = COLUMNS
            .iter()
            .map(|s| {
                // The portfolio sweeps its rank axis; report its best cell.
                recs.iter()
                    .filter(|r| r.circuit == circuit && r.objectives == "wp" && &r.strategy == s)
                    .map(|r| r.best_mu)
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .map(|mu| {
                if mu.is_finite() {
                    format!("{mu:.3}")
                } else {
                    "-".into()
                }
            })
            .collect();
        if cells.iter().all(|c| c == "-") {
            continue;
        }
        out.push_str(&format!(
            "{:<8} {:>6} {:>8} {:>8} {:>6} {:>9} {:>9}\n",
            circuit, cells[0], cells[1], cells[2], cells[3], cells[4], cells[5]
        ));
    }
    out
}

/// Portfolio scaling table: the mixed portfolio across its island-count
/// sweep, `seconds (µ·1000)` per cell.
fn render_portfolio_table(recs: &[Rec]) -> String {
    let mut ranks: Vec<usize> = recs
        .iter()
        .filter(|r| r.strategy == "portfolio_mixed")
        .map(|r| r.ranks)
        .collect();
    ranks.sort_unstable();
    ranks.dedup();
    let mut out = String::from("== Mixed portfolio scaling (modeled seconds @ best mu(s)) ==\n");
    if ranks.is_empty() {
        out.push_str("(no portfolio records in this report)\n");
        return out;
    }
    out.push_str(&format!("{:<8}", "Ckt"));
    for r in &ranks {
        out.push_str(&format!(" {:>14}", format!("islands={r}")));
    }
    out.push('\n');
    for circuit in circuits(recs) {
        let mut cells: BTreeMap<usize, String> = BTreeMap::new();
        for rec in recs.iter().filter(|r| {
            r.circuit == circuit && r.strategy == "portfolio_mixed" && r.objectives == "wp"
        }) {
            cells.insert(
                rec.ranks,
                format!("{} @ {:.3}", fmt_seconds(rec.modeled_seconds), rec.best_mu),
            );
        }
        if cells.is_empty() {
            continue;
        }
        out.push_str(&format!("{circuit:<8}"));
        for r in &ranks {
            out.push_str(&format!(
                " {:>14}",
                cells.get(r).cloned().unwrap_or_else(|| "-".into())
            ));
        }
        out.push('\n');
    }
    out
}

fn render_all(doc: &Json) -> Result<String, String> {
    let recs = collect_records(doc)?;
    let mut out = String::new();
    out.push_str(&render_runtime_table(&recs));
    out.push('\n');
    out.push_str(&render_type2_table(
        &recs,
        "wp",
        "Type II fixed vs random (wirelength+power, seconds, % of best quality in brackets)",
    ));
    out.push('\n');
    out.push_str(&render_type2_table(
        &recs,
        "wpd",
        "Type II fixed vs random (wirelength+power+delay, seconds, % of best quality in brackets)",
    ));
    out.push('\n');
    out.push_str(&render_quality_table(&recs));
    out.push('\n');
    out.push_str(&render_portfolio_table(&recs));
    Ok(out)
}

/// What a `report_tables` command line asks for.
#[derive(Debug, PartialEq, Eq)]
enum Command {
    /// Print the usage line.
    Help,
    /// Render the tables of the matrix report at this path.
    Render(String),
}

/// Parses the arguments after the program name. Unknown arguments are an
/// error: a typo like `--inptu x.json` must not silently render the default
/// `SCENARIO_MATRIX.json` instead.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut input = "SCENARIO_MATRIX.json".to_string();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--input" => match rest.next() {
                Some(v) if !v.starts_with("--") => input = v.clone(),
                _ => return Err("--input requires a path".into()),
            },
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(Command::Render(input))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let input = match parse_args(&args) {
        Ok(Command::Render(input)) => input,
        Ok(Command::Help) => {
            println!("report_tables [--input PATH]   (default SCENARIO_MATRIX.json)");
            return;
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let text = std::fs::read_to_string(&input).unwrap_or_else(|e| {
        eprintln!("cannot read {input}: {e} (run scenario_matrix first)");
        std::process::exit(2);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {input}: {e}");
        std::process::exit(2);
    });
    match render_all(&doc) {
        Ok(tables) => {
            println!("rendering {input}");
            println!();
            print!("{tables}");
        }
        Err(e) => {
            eprintln!("{input}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        circuit: &str,
        strategy: &str,
        ranks: usize,
        objectives: &str,
        backend: &str,
        mu: f64,
        seconds: f64,
    ) -> String {
        format!(
            "{{\"scenario\": \"{circuit}.{strategy}.r{ranks}.i4.{objectives}\", \
             \"circuit\": \"{circuit}\", \"strategy\": \"{strategy}\", \"ranks\": {ranks}, \
             \"iterations\": 4, \"objectives\": \"{objectives}\", \"backend\": \"{backend}\", \
             \"best_mu\": {mu}, \"modeled_seconds\": {seconds}, \
             \"wall_seconds\": 0.1, \"comm_messages\": 3, \"comm_bytes\": 100}}"
        )
    }

    fn sample_doc() -> Json {
        let records = [
            record("s1196", "type1", 4, "wp", "modeled", 0.71, 90.0),
            record("s1196", "type2_fixed", 4, "wp", "modeled", 0.69, 33.0),
            record("s1196", "type2_random", 4, "wp", "modeled", 0.72, 32.0),
            record("s1196", "type2_fixed", 4, "wpd", "modeled", 0.61, 35.0),
            record("s1196", "type2_random", 4, "wpd", "modeled", 0.63, 34.0),
            record("s1196", "type3", 4, "wp", "modeled", 0.73, 95.0),
            record("s1196", "portfolio_mixed", 2, "wp", "modeled", 0.70, 80.0),
            record("s1196", "portfolio_mixed", 4, "wp", "modeled", 0.74, 82.0),
            record(
                "s1196",
                "portfolio_baselines",
                4,
                "wp",
                "modeled",
                0.66,
                60.0,
            ),
            // A threaded duplicate that must be ignored.
            record("s1196", "type1", 4, "wp", "threaded(2)", 0.71, 90.0),
        ]
        .join(",");
        Json::parse(&format!("{{\"records\": [{records}]}}")).unwrap()
    }

    #[test]
    fn collects_only_modeled_records() {
        let recs = collect_records(&sample_doc()).unwrap();
        assert_eq!(recs.len(), 9);
        assert!(recs.iter().all(|r| r.circuit == "s1196"));
    }

    #[test]
    fn runtime_table_has_one_row_per_circuit() {
        let recs = collect_records(&sample_doc()).unwrap();
        let table = render_runtime_table(&recs);
        assert!(table.contains("s1196"), "{table}");
        assert!(table.contains("90"), "{table}");
        assert!(table.contains("32"), "{table}");
    }

    #[test]
    fn type2_table_annotates_quality_deficits() {
        let recs = collect_records(&sample_doc()).unwrap();
        let table = render_type2_table(&recs, "wp", "t");
        // The fixed pattern (0.69) falls short of the circuit's best µ
        // (0.74 from the portfolio): percentage in brackets.
        assert!(table.contains("33 (93)"), "{table}");
        let wpd = render_type2_table(&recs, "wpd", "t");
        // wpd's best is type2_random itself: no bracket on that entry.
        assert!(wpd.contains(" 34\n"), "{wpd}");
    }

    #[test]
    fn quality_table_includes_the_portfolios() {
        let recs = collect_records(&sample_doc()).unwrap();
        let table = render_quality_table(&recs);
        assert!(table.contains("0.740"), "{table}"); // best mixed-portfolio cell
        assert!(table.contains("0.660"), "{table}");
    }

    #[test]
    fn portfolio_table_sweeps_the_island_axis() {
        let recs = collect_records(&sample_doc()).unwrap();
        let table = render_portfolio_table(&recs);
        assert!(table.contains("islands=2"), "{table}");
        assert!(table.contains("islands=4"), "{table}");
        assert!(table.contains("@ 0.740"), "{table}");
    }

    #[test]
    fn empty_reports_are_an_error() {
        let doc = Json::parse("{\"records\": []}").unwrap();
        assert!(collect_records(&doc).is_err());
        let doc = Json::parse("{}").unwrap();
        assert!(collect_records(&doc).is_err());
    }

    #[test]
    fn render_all_produces_every_section() {
        let out = render_all(&sample_doc()).unwrap();
        assert!(out.contains("== Runtime by strategy"));
        assert!(out.contains("== Type II fixed vs random (wirelength+power,"));
        assert!(out.contains("== Type II fixed vs random (wirelength+power+delay,"));
        assert!(out.contains("== Quality by strategy"));
        assert!(out.contains("== Mixed portfolio scaling"));
    }

    #[test]
    fn argument_parser_rejects_unknown_flags() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_args(&[]),
            Ok(Command::Render("SCENARIO_MATRIX.json".into()))
        );
        assert_eq!(
            parse_args(&args(&["--input", "x.json"])),
            Ok(Command::Render("x.json".into()))
        );
        assert_eq!(parse_args(&args(&["-h"])), Ok(Command::Help));
        for bad in [
            &["--inptu", "x.json"][..],
            &["x.json"],
            &["--input"],
            &["--input", "--help"],
            &["--input", "x.json", "--full"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }
}
