//! `scenario_matrix` — executes the scenario cross-product
//! `{circuit × strategy Type I/II (both row patterns)/III + island
//! portfolios × backend Modeled/Threaded × worker count × objective mix}`
//! through the reusable batch driver of
//! `sime_parallel::batch`, emitting one JSON record per cell and verifying
//! the determinism contract (equal golden fingerprints across every backend
//! and worker count of a cell) as it goes.
//!
//! Usage:
//!
//! ```text
//! scenario_matrix [--quick | --full] [--circuits a,b,c] [--iterations N]
//!                 [--workers 1,2,4] [--out PATH]
//!                 [--bless DIR] [--check DIR] [--golden-subset]
//! ```
//!
//! * `--quick` (default) — the 5 paper circuits plus the two smallest
//!   extended circuits (`s5378`, `s9234`), the 4 matrix strategies plus the
//!   portfolio sweep, Modeled + Threaded{1,2,4}, wirelength+power everywhere
//!   plus the three-objective mix on the paper tier. Two probe cells ride
//!   along: a mixed-size cell (`mix600`, fixed pads + multi-row macros) and
//!   a warm-start cell (`s1196` replayed from the builtin round-robin `.pl`
//!   layout). Completes in a couple of minutes and is the grid CI archives
//!   on every push.
//! * `--full` — every suite circuit including the mixed-size tier, both
//!   objective mixes everywhere and a longer iteration budget. Mixed-size
//!   circuits skip the portfolio cells (the metaheuristic islands do not
//!   support fixed cells).
//! * `--circuits` — comma-separated override of the circuit axis.
//! * `--iterations` — override of the per-cell iteration budget.
//! * `--workers` — comma-separated Threaded worker counts (default `1,2,4`).
//! * `--out` — JSON report path (default `SCENARIO_MATRIX.json`).
//! * `--bless DIR` — write/update golden fingerprint files in `DIR` instead
//!   of comparing. With `--golden-subset` it blesses exactly the pinned
//!   subset the `golden_suite` test replays (this is how `tests/golden/` is
//!   regenerated after an intentional trajectory change).
//! * `--check DIR` — after the run, compare every scenario that has a golden
//!   file in `DIR` and exit non-zero on any mismatch.
//!
//! The binary exits non-zero if any cell's fingerprint differs across
//! backends/worker counts (a determinism-contract violation) or if a
//! `--check` comparison fails.

use sime_parallel::batch::{
    golden_subset, objectives_tag, BatchDriver, ScenarioRecord, ScenarioSpec, StrategyKind,
    TrajectoryFingerprint,
};
use sime_parallel::portfolio::PortfolioMix;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use vlsi_netlist::bench_suite::{ExtendedCircuit, MixedCircuit, PaperCircuit, SuiteCircuit};
use vlsi_place::cost::Objectives;

/// The worker-count axis parsed from `--workers`. A malformed or zero
/// entry is a hard error — silently dropping it would shrink the
/// determinism sweep while looking fully configured.
fn parse_workers(arg: Option<String>) -> Vec<usize> {
    let Some(list) = arg else {
        return vec![1, 2, 4];
    };
    let workers: Vec<usize> = list
        .split(',')
        .map(|t| match t.trim().parse::<usize>() {
            Ok(w) if w >= 1 => w,
            _ => {
                eprintln!(
                    "--workers: invalid worker count `{}` (need integers >= 1)",
                    t.trim()
                );
                std::process::exit(2);
            }
        })
        .collect();
    if workers.is_empty() {
        eprintln!("--workers: empty worker list");
        std::process::exit(2);
    }
    workers
}

/// The circuit axis: `--circuits` override, else quick/full defaults.
fn circuit_axis(arg: Option<String>, full: bool) -> Vec<SuiteCircuit> {
    if let Some(list) = arg {
        return list
            .split(',')
            .map(|name| {
                SuiteCircuit::from_name(name.trim()).unwrap_or_else(|| {
                    eprintln!("unknown suite circuit `{}`", name.trim());
                    std::process::exit(2);
                })
            })
            .collect();
    }
    let mut axis: Vec<SuiteCircuit> = PaperCircuit::ALL
        .iter()
        .copied()
        .map(SuiteCircuit::Paper)
        .collect();
    if full {
        axis.extend(
            ExtendedCircuit::ALL
                .iter()
                .copied()
                .map(SuiteCircuit::Extended),
        );
        axis.extend(MixedCircuit::ALL.iter().copied().map(SuiteCircuit::Mixed));
    } else {
        axis.push(SuiteCircuit::Extended(ExtendedCircuit::S5378));
        axis.push(SuiteCircuit::Extended(ExtendedCircuit::S9234));
    }
    axis
}

/// Builds the grid of scenario specs (one per matrix cell, Modeled backend;
/// the runner fans each cell out across the backend axis itself).
fn build_grid(
    circuits: &[SuiteCircuit],
    iterations: Option<usize>,
    full: bool,
    probes: bool,
) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for &circuit in circuits {
        // Extended and mixed-size circuits get a smaller default budget: one
        // cell of the matrix is a smoke-scale probe, not a convergence run.
        let small_tier = circuit.is_extended() || circuit.is_mixed();
        let iters = iterations.unwrap_or(match (full, small_tier) {
            (false, false) => 6,
            (false, true) => 4,
            (true, false) => 12,
            (true, true) => 8,
        });
        let objective_axis: &[Objectives] = if full || !small_tier {
            &[
                Objectives::WirelengthPower,
                Objectives::WirelengthPowerDelay,
            ]
        } else {
            &[Objectives::WirelengthPower]
        };
        for &objectives in objective_axis {
            for strategy in StrategyKind::MATRIX {
                specs.push(ScenarioSpec {
                    circuit: circuit.name().to_string(),
                    strategy,
                    ranks: 4,
                    iterations: iters,
                    objectives,
                    workers: None,
                    eval_chunks: 1,
                    warm_start: None,
                });
            }
        }
        // Portfolio cells sweep the *island count* (2–5 ranks, the
        // composition cycles through the mix) on the paper tier, plus the
        // baselines-only composition at the standard rank count; extended
        // circuits get one probe per composition. WirelengthPower only —
        // the race varies the optimizer, not the objective mix. Mixed-size
        // circuits get no portfolio cells at all: the GA/SA/TS islands
        // relocate arbitrary cells, and the job runner rejects them on
        // fixed-cell circuits (`fixed_cells_unsupported`).
        if circuit.is_mixed() {
            continue;
        }
        let portfolio = |mix: PortfolioMix, ranks: usize| ScenarioSpec {
            circuit: circuit.name().to_string(),
            strategy: StrategyKind::Portfolio(mix),
            ranks,
            iterations: iters,
            objectives: Objectives::WirelengthPower,
            workers: None,
            eval_chunks: 1,
            warm_start: None,
        };
        if circuit.is_extended() {
            specs.push(portfolio(PortfolioMix::Mixed, 4));
            specs.push(portfolio(PortfolioMix::Baselines, 4));
        } else {
            for ranks in 2..=5 {
                specs.push(portfolio(PortfolioMix::Mixed, ranks));
            }
            specs.push(portfolio(PortfolioMix::Baselines, 4));
        }
    }
    if probes {
        // Two probes that ride every default grid (quick included) beyond
        // the plain circuit × strategy product: a mixed-size cell that puts
        // the blocked-span allocator and the fixed-cell frozen mask on the
        // per-push determinism sweep, and a warm-start cell replayed from
        // the builtin round-robin `.pl` layout so the Bookshelf interchange
        // path is exercised on every run. Both literals mirror the pinned
        // entries in `golden_subset()` (same ids), so `--check tests/golden`
        // compares them against the registry instead of skipping them.
        let probe = |circuit: &str, strategy, iterations, warm_start| ScenarioSpec {
            circuit: circuit.to_string(),
            strategy,
            ranks: 3,
            iterations,
            objectives: Objectives::WirelengthPower,
            workers: None,
            eval_chunks: 1,
            warm_start,
        };
        let mixed = probe(
            "mix600",
            StrategyKind::Type2(sime_parallel::RowPattern::Random),
            4,
            None,
        );
        let warm = probe("s1196", StrategyKind::Type1, 5, Some("rr".to_string()));
        for cell in [mixed, warm] {
            if !specs.iter().any(|s| s.id() == cell.id()) {
                specs.push(cell);
            }
        }
    }
    specs
}

/// Runs one cell across the whole backend axis — Modeled and Threaded at
/// each worker count — asserting fingerprint equality throughout, and
/// returns the records (Modeled first).
fn run_cell_all_backends(
    driver: &mut BatchDriver,
    spec: &ScenarioSpec,
    workers: &[usize],
) -> (Vec<ScenarioRecord>, bool) {
    let mut records = Vec::with_capacity(1 + workers.len());
    let modeled = driver.run_cell(spec);
    let mut stable = true;
    for &w in workers {
        let threaded = driver.run_cell(&spec.on_workers(Some(w)));
        if threaded.fingerprint != modeled.fingerprint {
            eprintln!(
                "DETERMINISM VIOLATION: {} differs between modeled and threaded({w})",
                spec.id()
            );
            stable = false;
        }
        records.push(threaded);
    }
    records.insert(0, modeled);
    (records, stable)
}

fn bless(dir: &Path, driver: &mut BatchDriver, specs: &[ScenarioSpec]) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(2);
    });
    let expected: Vec<String> = specs.iter().map(|s| format!("{}.golden", s.id())).collect();
    for spec in specs {
        let record = driver.run_cell(spec);
        let path = dir.join(format!("{}.golden", spec.id()));
        // Diff-and-explain before overwriting: an intentional re-bless must
        // document which fingerprint fields moved (old vs new bits), not
        // silently replace the pinned trajectory.
        match std::fs::read_to_string(&path) {
            Ok(old_text) => match TrajectoryFingerprint::parse_text(&old_text) {
                Ok((_, old)) => {
                    let changes = old.diff(&record.fingerprint);
                    if changes.is_empty() {
                        println!("unchanged {}", path.display());
                        continue;
                    }
                    println!(
                        "re-blessing {} ({} field(s) changed):",
                        path.display(),
                        changes.len()
                    );
                    for line in &changes {
                        println!("    {line}");
                    }
                }
                Err(e) => println!("re-blessing {} (old file unparsable: {e})", path.display()),
            },
            Err(_) => println!("new golden {}", path.display()),
        }
        std::fs::write(&path, record.fingerprint.to_text(spec)).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(2);
        });
        println!("blessed {}", path.display());
    }
    // Remove stale goldens so shrinking/renaming the blessed set cannot
    // leave orphan files that fail the registry-sync test forever.
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".golden") && !expected.iter().any(|e| e == &name) {
            std::fs::remove_file(&path).unwrap_or_else(|e| {
                eprintln!("cannot remove stale golden {}: {e}", path.display());
                std::process::exit(2);
            });
            println!("removed stale {}", path.display());
        }
    }
}

/// Compares every run scenario that has a golden file in `dir`; returns the
/// number of failures. The comparison itself (including the hard failures on
/// a missing golden *directory* or an empty intersection) lives in
/// [`sime_parallel::batch::check_goldens`] so the server suite and this
/// binary share one gate; this wrapper only does the I/O.
fn check_against_goldens(dir: &Path, by_id: &BTreeMap<String, TrajectoryFingerprint>) -> usize {
    let check = sime_parallel::batch::check_goldens(dir, by_id);
    for failure in &check.failures {
        eprintln!("--check: {failure}");
    }
    println!(
        "checked {} scenarios against goldens in {}",
        check.checked,
        dir.display()
    );
    check.failures.len()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Reject unknown flags up front: a typo like `--ful` must not silently
    // run a different grid than the one asked for.
    const VALUE_FLAGS: [&str; 6] = [
        "--circuits",
        "--iterations",
        "--workers",
        "--out",
        "--bless",
        "--check",
    ];
    const BOOL_FLAGS: [&str; 5] = ["--quick", "--full", "--golden-subset", "--help", "-h"];
    let mut i = 1;
    while i < args.len() {
        let a = &args[i];
        if VALUE_FLAGS.contains(&a.as_str()) {
            i += 2; // the value (validated below) belongs to the flag
        } else if BOOL_FLAGS.contains(&a.as_str()) {
            i += 1;
        } else {
            eprintln!("unknown argument `{a}` (see --help)");
            std::process::exit(2);
        }
    }
    let flag = |name: &str| args.iter().any(|a| a == name);
    // A flag that takes a value must be followed by a non-flag token;
    // `--bless --golden-subset` (missing directory) is an error, not a
    // directory named `--golden-subset`.
    let value = |name: &str| {
        let i = args.iter().position(|a| a == name)?;
        match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Some(v.clone()),
            _ => {
                eprintln!("{name} requires a value");
                std::process::exit(2);
            }
        }
    };
    if flag("--help") || flag("-h") {
        println!(
            "scenario_matrix [--quick | --full] [--circuits a,b,c] [--iterations N]\n\
             \x20               [--workers 1,2,4] [--out PATH]\n\
             \x20               [--bless DIR] [--check DIR] [--golden-subset]"
        );
        return;
    }

    let full = flag("--full");
    let out_path = value("--out").unwrap_or_else(|| "SCENARIO_MATRIX.json".into());
    let workers = parse_workers(value("--workers"));
    let iterations = value("--iterations").map(|v| match v.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("--iterations: invalid iteration count `{v}` (need an integer >= 1)");
            std::process::exit(2);
        }
    });

    let mut driver = BatchDriver::new();

    if let Some(dir) = value("--bless") {
        let specs = if flag("--golden-subset") {
            golden_subset()
        } else {
            let probes = value("--circuits").is_none();
            build_grid(
                &circuit_axis(value("--circuits"), full),
                iterations,
                full,
                probes,
            )
        };
        bless(&PathBuf::from(dir), &mut driver, &specs);
        return;
    }

    let circuits = circuit_axis(value("--circuits"), full);
    let mut grid = build_grid(&circuits, iterations, full, value("--circuits").is_none());
    if value("--circuits").is_none() {
        // Fold the pinned golden subset into the grid so `--check
        // tests/golden` always has cells to compare against the registry.
        for spec in golden_subset() {
            if !grid.iter().any(|s| s.id() == spec.id()) {
                grid.push(spec);
            }
        }
    }
    let grid = grid;
    println!(
        "scenario matrix: {} circuits × strategies/objectives = {} cells, backends = modeled + \
         threaded{:?}",
        circuits.len(),
        grid.len(),
        workers,
    );

    let started = std::time::Instant::now();
    let mut rows = Vec::new();
    let mut by_id: BTreeMap<String, TrajectoryFingerprint> = BTreeMap::new();
    let mut all_stable = true;
    for (i, spec) in grid.iter().enumerate() {
        let (records, stable) = run_cell_all_backends(&mut driver, spec, &workers);
        all_stable &= stable;
        println!(
            "[{}/{}] {} µ={:.4} modeled={:.1}s {}",
            i + 1,
            grid.len(),
            spec.id(),
            records[0].outcome.best_cost.mu,
            records[0].outcome.modeled_seconds,
            if stable { "stable" } else { "UNSTABLE" }
        );
        by_id.insert(spec.id(), records[0].fingerprint.clone());
        for r in &records {
            rows.push(format!("    {}", r.to_json()));
        }
    }

    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"report\": \"SCENARIO_MATRIX\",\n  \"mode\": \"{mode}\",\n  \"cells\": {cells},\n  \"runs\": {runs},\n  \"threaded_workers\": {workers:?},\n  \"fingerprints_stable_across_backends_and_workers\": {stable},\n  \"wall_seconds_total\": {wall:.1},\n  \"records\": [\n{rows}\n  ]\n}}\n",
        mode = if full { "full" } else { "quick" },
        cells = grid.len(),
        runs = rows.len(),
        workers = workers,
        stable = all_stable,
        wall = started.elapsed().as_secs_f64(),
        rows = rows.join(",\n"),
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(2);
    });
    println!("wrote {out_path} ({} records)", rows.len());

    let mut failed = !all_stable;
    if let Some(dir) = value("--check") {
        failed |= check_against_goldens(&PathBuf::from(dir), &by_id) > 0;
    }
    if failed {
        eprintln!("scenario_matrix FAILED (determinism violation or golden mismatch)");
        std::process::exit(1);
    }
    // A tiny self-describing summary per objective mix, for humans.
    let mut per_tag: BTreeMap<&str, usize> = BTreeMap::new();
    for spec in &grid {
        *per_tag.entry(objectives_tag(spec.objectives)).or_default() += 1;
    }
    println!(
        "done: {} cells ({}) in {:.1}s, fingerprints stable across modeled/threaded×{:?}",
        grid.len(),
        per_tag
            .iter()
            .map(|(t, n)| format!("{n} {t}"))
            .collect::<Vec<_>>()
            .join(", "),
        started.elapsed().as_secs_f64(),
        workers
    );
}
