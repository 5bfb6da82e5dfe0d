//! Scenario batch driver and golden-trajectory fingerprints.
//!
//! The scenario matrix is the cross-product
//! `{circuit} × {strategy Type I/II/III} × {backend Modeled/Threaded} ×
//! {worker count} × {objective mix}`. This module provides the three pieces
//! every surface that walks that matrix (the `scenario_matrix` binary, the
//! root `golden_suite` regression test, future scaling studies) shares:
//!
//! * [`ScenarioSpec`] — one fully pinned cell of the matrix. The **backend**
//!   axis (`workers`) is deliberately excluded from the scenario identity
//!   ([`ScenarioSpec::id`]): the PR 3 determinism contract promises backends
//!   and worker counts change nothing but wall-clock, so every backend of a
//!   cell shares one golden fingerprint — and the golden suite *checks* that
//!   promise instead of assuming it.
//! * [`BatchDriver`] — runs cells while reusing the expensive per-circuit
//!   state: the netlist is generated once per circuit and the engine (cost
//!   evaluator CSR tables, extracted critical paths, goodness evaluator) is
//!   built once per `(circuit, objectives)` and shared by every strategy,
//!   backend and worker count that visits it. Per-worker scratch spaces are
//!   created inside the strategy drivers as always.
//! * [`TrajectoryFingerprint`] — the replayable digest of one run: the final
//!   cost bits, the µ(s) trajectory bits at fixed checkpoint iterations, a
//!   hash of the full µ trajectory and a hash of the best placement (the
//!   product of every Selection/Allocation decision the run made). Two runs
//!   produce equal fingerprints iff they made bitwise-identical decisions,
//!   which is exactly the determinism contract of `DESIGN.md` §4 turned into
//!   a comparable value. Fingerprints serialise to a line-oriented text form
//!   ([`TrajectoryFingerprint::to_text`]) that is checked into
//!   `tests/golden/` and replayed by the `golden_suite` integration test.

use crate::exec::{ExecBackend, Modeled, Threaded};
use crate::portfolio::PortfolioMix;
use crate::report::StrategyOutcome;
use crate::type2::RowPattern;
use sime_core::engine::SimEEngine;
use std::sync::Arc;
use vlsi_netlist::bench_suite::SuiteCircuit;
use vlsi_netlist::Netlist;
use vlsi_place::cost::Objectives;

/// Which parallel strategy a scenario cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Type I — distributed cost/goodness evaluation.
    Type1,
    /// Type II — row-domain decomposition with the given row pattern.
    Type2(RowPattern),
    /// Type III — cooperating parallel searches.
    Type3,
    /// Island-model optimizer portfolio with the given composition mix.
    Portfolio(PortfolioMix),
}

impl StrategyKind {
    /// The strategies of the standard matrix: Type I, Type II in **both**
    /// row patterns (the fixed Kling & Banerjee pattern and the authors'
    /// random variant — the paper's Tables 2 and 3 compare them side by
    /// side, so the matrix must sweep both), and Type III. The portfolio
    /// strategies are swept separately by the `scenario_matrix` grid — they
    /// race different optimizers rather than organise one.
    pub const MATRIX: [StrategyKind; 4] = [
        StrategyKind::Type1,
        StrategyKind::Type2(RowPattern::Fixed),
        StrategyKind::Type2(RowPattern::Random),
        StrategyKind::Type3,
    ];

    /// Stable label used in scenario ids and golden files.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Type1 => "type1",
            StrategyKind::Type2(RowPattern::Fixed) => "type2_fixed",
            StrategyKind::Type2(RowPattern::Random) => "type2_random",
            StrategyKind::Type3 => "type3",
            StrategyKind::Portfolio(PortfolioMix::Mixed) => "portfolio_mixed",
            StrategyKind::Portfolio(PortfolioMix::Baselines) => "portfolio_baselines",
        }
    }

    /// Parses the label produced by [`StrategyKind::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "type1" => Some(StrategyKind::Type1),
            "type2_fixed" => Some(StrategyKind::Type2(RowPattern::Fixed)),
            "type2_random" => Some(StrategyKind::Type2(RowPattern::Random)),
            "type3" => Some(StrategyKind::Type3),
            "portfolio_mixed" => Some(StrategyKind::Portfolio(PortfolioMix::Mixed)),
            "portfolio_baselines" => Some(StrategyKind::Portfolio(PortfolioMix::Baselines)),
            _ => None,
        }
    }

    /// The smallest rank count the strategy accepts (Type I needs a master
    /// and a slave; Type III a store and two workers; a portfolio needs two
    /// islands).
    pub fn min_ranks(self) -> usize {
        match self {
            StrategyKind::Type1 | StrategyKind::Type2(_) | StrategyKind::Portfolio(_) => 2,
            StrategyKind::Type3 => 3,
        }
    }
}

/// Short stable label for an objective mix (used in scenario ids and golden
/// files; the long form is [`Objectives::label`]).
pub fn objectives_tag(objectives: Objectives) -> &'static str {
    match objectives {
        Objectives::WirelengthPower => "wp",
        Objectives::WirelengthPowerDelay => "wpd",
    }
}

/// Parses both the short tag and the long label of an objective mix.
pub fn objectives_from_tag(tag: &str) -> Option<Objectives> {
    match tag {
        "wp" | "wirelength+power" => Some(Objectives::WirelengthPower),
        "wpd" | "wirelength+power+delay" => Some(Objectives::WirelengthPowerDelay),
        _ => None,
    }
}

/// One fully pinned cell of the scenario matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Suite circuit name (resolved through [`SuiteCircuit::from_name`]).
    pub circuit: String,
    /// Strategy to run.
    pub strategy: StrategyKind,
    /// Simulated rank count (processors of the modeled cluster).
    pub ranks: usize,
    /// SimE iterations per processor.
    pub iterations: usize,
    /// Objective mix.
    pub objectives: Objectives,
    /// Execution backend: `None` → [`Modeled`], `Some(n)` → [`Threaded`]
    /// with `n` OS workers. Not part of the scenario identity — see the
    /// [module docs](self).
    pub workers: Option<usize>,
    /// Ignored: nothing reads this field, and it is not part of the scenario
    /// identity. It is kept only until the next change to the `placebench`
    /// benchmark, whose `ScenarioSpec` literals still set it.
    pub eval_chunks: usize,
    /// Warm-start tag: `None` starts from the usual random deal, `Some(tag)`
    /// starts from a named `.pl` placement resolved by the job runner (the
    /// builtin `"rr"` round-robin layout, or a placement registered with
    /// [`crate::jobs::JobRunner::register_placement`]). Part of the scenario
    /// identity — a warm-started trajectory is a different trajectory.
    pub warm_start: Option<String>,
}

impl ScenarioSpec {
    /// Stable scenario identity: every field except the execution backend
    /// (the worker count) and the ignored `eval_chunks`. Used as the
    /// golden-file stem and the JSON record key.
    pub fn id(&self) -> String {
        let mut id = format!(
            "{}.{}.r{}.i{}.{}",
            self.circuit,
            self.strategy.label(),
            self.ranks,
            self.iterations,
            objectives_tag(self.objectives)
        );
        if let Some(tag) = &self.warm_start {
            id.push_str(&format!(".warm-{tag}"));
        }
        id
    }

    /// The backend this spec asks for.
    pub fn backend(&self) -> Box<dyn ExecBackend> {
        match self.workers {
            None => Box::new(Modeled),
            Some(n) => Box::new(Threaded::new(n)),
        }
    }

    /// The same scenario on a different backend (same identity, same golden
    /// fingerprint under the determinism contract).
    pub fn on_workers(&self, workers: Option<usize>) -> ScenarioSpec {
        ScenarioSpec {
            workers,
            ..self.clone()
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Incremental FNV-1a over 64-bit words (the hash behind the placement and
/// trajectory digests; chosen for stability — it is defined by the algorithm,
/// not by a library version).
fn fnv1a_u64(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for byte in word.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The iteration checkpoints fingerprints sample: powers of two plus the
/// final iteration, capped to the history length.
pub fn checkpoint_iterations(history_len: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut i = 1usize;
    while i <= history_len {
        out.push(i - 1);
        i *= 2;
    }
    if history_len > 0 && out.last() != Some(&(history_len - 1)) {
        out.push(history_len - 1);
    }
    out
}

/// Replayable digest of one scenario run. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrajectoryFingerprint {
    /// `f64::to_bits` of the best µ(s).
    pub final_mu_bits: u64,
    /// `f64::to_bits` of the best placement's wirelength cost.
    pub final_wirelength_bits: u64,
    /// `f64::to_bits` of the best placement's power cost.
    pub final_power_bits: u64,
    /// `f64::to_bits` of the best placement's delay cost (0.0 when delay is
    /// not optimised).
    pub final_delay_bits: u64,
    /// `(iteration, µ(s) bits)` at the fixed checkpoints of
    /// [`checkpoint_iterations`].
    pub mu_checkpoints: Vec<(usize, u64)>,
    /// FNV-1a over every µ(s) value of the run, in order.
    pub trajectory_hash: u64,
    /// FNV-1a over the best placement (row boundaries + cell order) — the
    /// accumulated product of every Selection/Allocation decision.
    pub placement_hash: u64,
}

impl TrajectoryFingerprint {
    /// Fingerprints a finished run.
    pub fn from_outcome(outcome: &StrategyOutcome) -> Self {
        let mut trajectory_hash = FNV_OFFSET;
        for mu in &outcome.mu_history {
            trajectory_hash = fnv1a_u64(trajectory_hash, mu.to_bits());
        }
        let placement = &outcome.best_placement;
        let mut ph = FNV_OFFSET;
        for row in 0..placement.num_rows() {
            // Row separator, then the exact cell order.
            ph = fnv1a_u64(ph, u64::MAX);
            for &cell in placement.row(row) {
                ph = fnv1a_u64(ph, cell.index() as u64);
            }
        }
        TrajectoryFingerprint {
            final_mu_bits: outcome.best_cost.mu.to_bits(),
            final_wirelength_bits: outcome.best_cost.wirelength.to_bits(),
            final_power_bits: outcome.best_cost.power.to_bits(),
            final_delay_bits: outcome.best_cost.delay.to_bits(),
            mu_checkpoints: checkpoint_iterations(outcome.mu_history.len())
                .into_iter()
                .map(|i| (i, outcome.mu_history[i].to_bits()))
                .collect(),
            trajectory_hash,
            placement_hash: ph,
        }
    }

    /// Serialises the fingerprint (with its scenario header) to the golden
    /// file format: line-oriented `key value` pairs, `#` comments, stable
    /// across versions via the leading format tag.
    pub fn to_text(&self, spec: &ScenarioSpec) -> String {
        let mut out = String::new();
        out.push_str("# golden trajectory fingerprint v1\n");
        out.push_str(&format!("scenario {}\n", spec.id()));
        out.push_str(&format!("circuit {}\n", spec.circuit));
        out.push_str(&format!("strategy {}\n", spec.strategy.label()));
        out.push_str(&format!("ranks {}\n", spec.ranks));
        out.push_str(&format!("iterations {}\n", spec.iterations));
        out.push_str(&format!("objectives {}\n", objectives_tag(spec.objectives)));
        if let Some(tag) = &spec.warm_start {
            out.push_str(&format!("warm_start {tag}\n"));
        }
        out.push_str(&format!("final_mu_bits {:#018x}\n", self.final_mu_bits));
        out.push_str(&format!(
            "final_wirelength_bits {:#018x}\n",
            self.final_wirelength_bits
        ));
        out.push_str(&format!(
            "final_power_bits {:#018x}\n",
            self.final_power_bits
        ));
        out.push_str(&format!(
            "final_delay_bits {:#018x}\n",
            self.final_delay_bits
        ));
        for (iter, bits) in &self.mu_checkpoints {
            out.push_str(&format!("mu_bits {iter} {bits:#018x}\n"));
        }
        out.push_str(&format!("trajectory_hash {:#018x}\n", self.trajectory_hash));
        out.push_str(&format!("placement_hash {:#018x}\n", self.placement_hash));
        out
    }

    /// Field-by-field difference against another fingerprint: one line per
    /// changed field, `<field>: <old> -> <new>` (bits in hex). Empty when the
    /// fingerprints are equal. This is what `scenario_matrix --bless` prints
    /// before overwriting a golden, so an intentional re-bless documents
    /// exactly which parts of the trajectory moved instead of silently
    /// replacing the file.
    pub fn diff(&self, new: &TrajectoryFingerprint) -> Vec<String> {
        let mut out = Vec::new();
        let mut field = |name: &str, old: u64, new: u64| {
            if old != new {
                out.push(format!("{name}: {old:#018x} -> {new:#018x}"));
            }
        };
        field("final_mu_bits", self.final_mu_bits, new.final_mu_bits);
        field(
            "final_wirelength_bits",
            self.final_wirelength_bits,
            new.final_wirelength_bits,
        );
        field(
            "final_power_bits",
            self.final_power_bits,
            new.final_power_bits,
        );
        field(
            "final_delay_bits",
            self.final_delay_bits,
            new.final_delay_bits,
        );
        field("trajectory_hash", self.trajectory_hash, new.trajectory_hash);
        field("placement_hash", self.placement_hash, new.placement_hash);
        if self.mu_checkpoints.len() != new.mu_checkpoints.len() {
            out.push(format!(
                "mu_checkpoints: {} entries -> {} entries",
                self.mu_checkpoints.len(),
                new.mu_checkpoints.len()
            ));
        }
        for ((old_iter, old_bits), (new_iter, new_bits)) in
            self.mu_checkpoints.iter().zip(&new.mu_checkpoints)
        {
            if old_iter != new_iter {
                out.push(format!(
                    "mu_bits checkpoint moved: iteration {old_iter} -> {new_iter}"
                ));
            } else if old_bits != new_bits {
                out.push(format!(
                    "mu_bits[{old_iter}]: {old_bits:#018x} -> {new_bits:#018x}"
                ));
            }
        }
        out
    }

    /// Parses a golden file: the scenario spec (always on the [`Modeled`]
    /// backend — the golden identity is backend-free) and the fingerprint.
    pub fn parse_text(text: &str) -> Result<(ScenarioSpec, TrajectoryFingerprint), String> {
        let mut circuit = None;
        let mut strategy = None;
        let mut ranks = None;
        let mut iterations = None;
        let mut objectives = None;
        let mut warm_start = None;
        let mut final_mu_bits = None;
        let mut final_wirelength_bits = None;
        let mut final_power_bits = None;
        let mut final_delay_bits = None;
        let mut trajectory_hash = None;
        let mut placement_hash = None;
        let mut mu_checkpoints = Vec::new();

        let parse_u64 = |tok: &str| -> Result<u64, String> {
            let tok = tok.trim();
            if let Some(hex) = tok.strip_prefix("0x") {
                u64::from_str_radix(hex, 16).map_err(|e| format!("bad hex `{tok}`: {e}"))
            } else {
                tok.parse::<u64>()
                    .map_err(|e| format!("bad number `{tok}`: {e}"))
            }
        };

        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let lineno = idx + 1;
            let (key, rest) = line
                .split_once(char::is_whitespace)
                .ok_or_else(|| format!("line {lineno}: missing value for `{line}`"))?;
            let rest = rest.trim();
            let ctx = |e: String| format!("line {lineno}: {e}");
            match key {
                "scenario" => {} // informative only; rebuilt from the fields
                "circuit" => circuit = Some(rest.to_string()),
                "strategy" => {
                    strategy = Some(
                        StrategyKind::from_label(rest)
                            .ok_or_else(|| ctx(format!("unknown strategy `{rest}`")))?,
                    )
                }
                "ranks" => ranks = Some(rest.parse().map_err(|_| ctx("bad ranks".into()))?),
                "iterations" => {
                    iterations = Some(rest.parse().map_err(|_| ctx("bad iterations".into()))?)
                }
                "objectives" => {
                    objectives = Some(
                        objectives_from_tag(rest)
                            .ok_or_else(|| ctx(format!("unknown objectives `{rest}`")))?,
                    )
                }
                "warm_start" => warm_start = Some(rest.to_string()),
                "final_mu_bits" => final_mu_bits = Some(parse_u64(rest).map_err(ctx)?),
                "final_wirelength_bits" => {
                    final_wirelength_bits = Some(parse_u64(rest).map_err(ctx)?)
                }
                "final_power_bits" => final_power_bits = Some(parse_u64(rest).map_err(ctx)?),
                "final_delay_bits" => final_delay_bits = Some(parse_u64(rest).map_err(ctx)?),
                "mu_bits" => {
                    let (iter, bits) = rest
                        .split_once(char::is_whitespace)
                        .ok_or_else(|| ctx("mu_bits needs `<iteration> <bits>`".into()))?;
                    mu_checkpoints.push((
                        iter.trim()
                            .parse()
                            .map_err(|_| ctx("bad iteration".into()))?,
                        parse_u64(bits).map_err(ctx)?,
                    ));
                }
                "trajectory_hash" => trajectory_hash = Some(parse_u64(rest).map_err(ctx)?),
                "placement_hash" => placement_hash = Some(parse_u64(rest).map_err(ctx)?),
                other => return Err(format!("line {lineno}: unknown key `{other}`")),
            }
        }

        fn require<T>(name: &str, v: Option<T>) -> Result<T, String> {
            v.ok_or_else(|| format!("missing `{name}`"))
        }
        let spec = ScenarioSpec {
            circuit: require("circuit", circuit)?,
            strategy: require("strategy", strategy)?,
            ranks: require("ranks", ranks)?,
            iterations: require("iterations", iterations)?,
            objectives: require("objectives", objectives)?,
            workers: None,
            eval_chunks: 1,
            warm_start,
        };
        let fingerprint = TrajectoryFingerprint {
            final_mu_bits: require("final_mu_bits", final_mu_bits)?,
            final_wirelength_bits: require("final_wirelength_bits", final_wirelength_bits)?,
            final_power_bits: require("final_power_bits", final_power_bits)?,
            final_delay_bits: require("final_delay_bits", final_delay_bits)?,
            mu_checkpoints,
            trajectory_hash: require("trajectory_hash", trajectory_hash)?,
            placement_hash: require("placement_hash", placement_hash)?,
        };
        Ok((spec, fingerprint))
    }
}

/// One executed cell: the spec, the raw outcome and its fingerprint.
#[derive(Debug, Clone)]
pub struct ScenarioRecord {
    /// The cell that was run.
    pub spec: ScenarioSpec,
    /// The strategy outcome (placement, modeled time, comm stats, history).
    pub outcome: StrategyOutcome,
    /// The golden-comparable digest of the run.
    pub fingerprint: TrajectoryFingerprint,
}

impl ScenarioRecord {
    /// One JSON object for the scenario-matrix report (hand-rolled; the
    /// vendored serde is a no-op shim).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"scenario\": \"{id}\", \"circuit\": \"{circuit}\", \
             \"strategy\": \"{strategy}\", \"ranks\": {ranks}, \
             \"iterations\": {iters}, \"objectives\": \"{obj}\", \
             \"backend\": \"{backend}\", \
             \"best_mu\": {mu:.6}, \
             \"modeled_seconds\": {modeled:.4}, \"wall_seconds\": {wall:.4}, \
             \"comm_messages\": {msgs}, \"comm_bytes\": {bytes}, \
             \"final_mu_bits\": \"{mubits:#018x}\", \
             \"placement_hash\": \"{ph:#018x}\", \
             \"trajectory_hash\": \"{th:#018x}\"}}",
            id = self.spec.id(),
            circuit = self.spec.circuit,
            strategy = self.spec.strategy.label(),
            ranks = self.spec.ranks,
            iters = self.spec.iterations,
            obj = objectives_tag(self.spec.objectives),
            backend = self.outcome.backend,
            mu = self.outcome.best_cost.mu,
            modeled = self.outcome.modeled_seconds,
            wall = self.outcome.wall_seconds,
            msgs = self.outcome.comm.messages,
            bytes = self.outcome.comm.bytes,
            mubits = self.fingerprint.final_mu_bits,
            ph = self.fingerprint.placement_hash,
            th = self.fingerprint.trajectory_hash,
        )
    }
}

/// Runs scenario cells while reusing per-circuit netlists and per-
/// `(circuit, objectives)` engines across the whole batch.
///
/// Since the job-engine refactor this is a thin `&mut self` façade over the
/// thread-safe [`crate::jobs::JobRunner`] — the batch binaries keep their
/// simple sequential API, the server shares the identical execution path
/// (and therefore the identical fingerprints) through the runner directly.
#[derive(Default)]
pub struct BatchDriver {
    runner: crate::jobs::JobRunner,
}

impl BatchDriver {
    /// An empty driver; circuits are generated (or registered) on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying thread-safe job runner (shared caches, typed errors).
    pub fn runner(&self) -> &crate::jobs::JobRunner {
        &self.runner
    }

    /// Registers a pre-built netlist (e.g. one reloaded from a Bookshelf
    /// dump) under its circuit name, bypassing suite generation. The circuit
    /// still needs a row count the suite knows, so `name` must resolve via
    /// [`SuiteCircuit::from_name`] for specs to run against it.
    pub fn register_netlist(&mut self, netlist: Arc<Netlist>) {
        self.runner.register_netlist(netlist);
    }

    /// The netlist for a suite circuit, generating and caching it on first
    /// use.
    pub fn netlist(&mut self, circuit: SuiteCircuit) -> Arc<Netlist> {
        self.runner
            .netlist(circuit.name())
            .expect("suite circuits always resolve")
            .0
    }

    /// The engine for a `(circuit, objectives)` pair, building and caching
    /// it on first use. Engine construction (CSR cost tables, critical-path
    /// extraction, fuzzy goal calibration) dominates small-run setup time,
    /// which is why it is the unit of reuse.
    pub fn engine(&mut self, circuit: SuiteCircuit, objectives: Objectives) -> Arc<SimEEngine> {
        self.runner
            .engine_for(circuit.name(), objectives, None)
            .expect("suite circuits always resolve")
    }

    /// Runs one cell of the matrix.
    ///
    /// # Panics
    ///
    /// Panics if the spec's circuit is not a suite circuit, or if its rank
    /// count violates the strategy's minimum (see
    /// [`StrategyKind::min_ranks`]). Service layers that need errors instead
    /// of panics use [`crate::jobs::JobRunner::run_job`].
    pub fn run_cell(&mut self, spec: &ScenarioSpec) -> ScenarioRecord {
        match self.runner.run_scenario(spec) {
            Ok(outcome) => outcome.into_record(),
            Err(crate::jobs::JobError::UnknownCircuit(name)) => {
                panic!("unknown suite circuit `{name}`")
            }
            Err(err) => panic!("{err}"),
        }
    }
}

/// Result of comparing run fingerprints against a golden directory.
#[derive(Debug, Clone, Default)]
pub struct GoldenCheck {
    /// How many scenarios had a pinned golden and were actually compared.
    pub checked: usize,
    /// One human-readable line per failure (mismatch, unreadable or
    /// unparsable golden, missing directory, empty intersection). Empty iff
    /// the check passed.
    pub failures: Vec<String>,
}

impl GoldenCheck {
    /// Whether the gate passed: at least one comparison ran and none failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compares every entry of `by_id` (scenario id → fresh fingerprint) that
/// has a `<id>.golden` file in `dir`, bitwise.
///
/// Two *absence* cases are hard failures, not green no-ops: a missing or
/// unreadable golden **directory**, and an **empty intersection** (no run
/// scenario matched any golden). Both turn a mistyped `--check` path or a
/// drifted scenario grid into a loud gate failure — without this, a CI job
/// pointed at the wrong directory would pass forever while comparing
/// nothing. This is the library form of `scenario_matrix --check`, shared
/// with the server suite so both gates fail identically.
pub fn check_goldens(
    dir: &std::path::Path,
    by_id: &std::collections::BTreeMap<String, TrajectoryFingerprint>,
) -> GoldenCheck {
    let mut check = GoldenCheck::default();
    if !dir.is_dir() {
        check
            .failures
            .push(format!("golden directory {} does not exist", dir.display()));
        return check;
    }
    for (id, fingerprint) in by_id {
        let path = dir.join(format!("{id}.golden"));
        if !path.exists() {
            continue; // no golden pinned for this cell
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                check
                    .failures
                    .push(format!("cannot read golden {}: {e}", path.display()));
                continue;
            }
        };
        check.checked += 1;
        match TrajectoryFingerprint::parse_text(&text) {
            Ok((_, golden)) if &golden == fingerprint => {}
            Ok((_, golden)) => {
                let mut lines = vec![format!("GOLDEN MISMATCH for {id}:")];
                for change in golden.diff(fingerprint) {
                    lines.push(format!("  {change}"));
                }
                check.failures.push(lines.join("\n"));
            }
            Err(e) => {
                check
                    .failures
                    .push(format!("cannot parse golden {}: {e}", path.display()));
            }
        }
    }
    if check.checked == 0 {
        check.failures.push(format!(
            "no run scenario matched any golden in {} — the gate compared nothing",
            dir.display()
        ));
    }
    check
}

/// The pinned golden subset: the scenarios whose fingerprints are checked
/// into `tests/golden/` and replayed by the `golden_suite` integration test
/// on every push. Small circuits and short runs — the gate must stay cheap —
/// but covering all three SimE strategies (Type II in both row patterns),
/// the island portfolio, both objective mixes, two extended-tier circuits,
/// one mixed-size circuit with fixed pads and multi-row macros, and one
/// warm-started run replayed from a written `.pl` layout.
pub fn golden_subset() -> Vec<ScenarioSpec> {
    let wp = Objectives::WirelengthPower;
    let wpd = Objectives::WirelengthPowerDelay;
    vec![
        ScenarioSpec {
            circuit: "s1196".into(),
            strategy: StrategyKind::Type1,
            ranks: 3,
            iterations: 5,
            objectives: wp,
            workers: None,
            eval_chunks: 1,
            warm_start: None,
        },
        ScenarioSpec {
            circuit: "s1196".into(),
            strategy: StrategyKind::Type2(RowPattern::Random),
            ranks: 3,
            iterations: 5,
            objectives: wp,
            workers: None,
            eval_chunks: 1,
            warm_start: None,
        },
        ScenarioSpec {
            circuit: "s1196".into(),
            strategy: StrategyKind::Type3,
            ranks: 3,
            iterations: 5,
            objectives: wp,
            workers: None,
            eval_chunks: 1,
            warm_start: None,
        },
        ScenarioSpec {
            circuit: "s1238".into(),
            strategy: StrategyKind::Type2(RowPattern::Fixed),
            ranks: 3,
            iterations: 5,
            objectives: wpd,
            workers: None,
            eval_chunks: 1,
            warm_start: None,
        },
        ScenarioSpec {
            circuit: "s1196".into(),
            strategy: StrategyKind::Portfolio(PortfolioMix::Mixed),
            ranks: 4,
            iterations: 4,
            objectives: wp,
            workers: None,
            eval_chunks: 1,
            warm_start: None,
        },
        ScenarioSpec {
            circuit: "s5378".into(),
            strategy: StrategyKind::Type2(RowPattern::Random),
            ranks: 4,
            iterations: 3,
            objectives: wp,
            workers: None,
            eval_chunks: 1,
            warm_start: None,
        },
        ScenarioSpec {
            circuit: "s5378".into(),
            strategy: StrategyKind::Type2(RowPattern::Fixed),
            ranks: 4,
            iterations: 3,
            objectives: wp,
            workers: None,
            eval_chunks: 1,
            warm_start: None,
        },
        ScenarioSpec {
            circuit: "s9234".into(),
            strategy: StrategyKind::Type2(RowPattern::Random),
            ranks: 4,
            iterations: 2,
            objectives: wp,
            workers: None,
            eval_chunks: 1,
            warm_start: None,
        },
        // Mixed-size golden: fixed pads and multi-row macros, on the Type II
        // row decomposition so the blocked-span packing and the fixed-cell
        // frozen mask (merged with the row-ownership mask) are both on the
        // pinned trajectory.
        ScenarioSpec {
            circuit: "mix600".into(),
            strategy: StrategyKind::Type2(RowPattern::Random),
            ranks: 3,
            iterations: 4,
            objectives: wp,
            workers: None,
            eval_chunks: 1,
            warm_start: None,
        },
        // Warm-start golden: replayed from the builtin round-robin layout,
        // which the runner pushes through the `.pl` writer/parser pipeline —
        // so the pinned fingerprint also certifies the interchange round
        // trip.
        ScenarioSpec {
            circuit: "s1196".into(),
            strategy: StrategyKind::Type1,
            ranks: 3,
            iterations: 5,
            objectives: wp,
            workers: None,
            eval_chunks: 1,
            warm_start: Some("rr".into()),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> ScenarioSpec {
        ScenarioSpec {
            circuit: "s1196".into(),
            strategy: StrategyKind::Type2(RowPattern::Random),
            ranks: 3,
            iterations: 3,
            objectives: Objectives::WirelengthPower,
            workers: None,
            eval_chunks: 1,
            warm_start: None,
        }
    }

    #[test]
    fn scenario_id_excludes_the_backend() {
        let spec = small_spec();
        assert_eq!(spec.id(), "s1196.type2_random.r3.i3.wp");
        assert_eq!(spec.on_workers(Some(4)).id(), spec.id());
        let ignored = ScenarioSpec {
            eval_chunks: 4,
            ..spec.clone()
        };
        assert_eq!(ignored.id(), spec.id());
    }

    #[test]
    fn strategy_labels_roundtrip() {
        for s in [
            StrategyKind::Type1,
            StrategyKind::Type2(RowPattern::Fixed),
            StrategyKind::Type2(RowPattern::Random),
            StrategyKind::Type3,
            StrategyKind::Portfolio(PortfolioMix::Mixed),
            StrategyKind::Portfolio(PortfolioMix::Baselines),
        ] {
            assert_eq!(StrategyKind::from_label(s.label()), Some(s));
        }
        assert_eq!(StrategyKind::from_label("type4"), None);
        assert_eq!(StrategyKind::from_label("portfolio"), None);
    }

    #[test]
    fn matrix_sweeps_both_type2_row_patterns() {
        assert!(StrategyKind::MATRIX.contains(&StrategyKind::Type2(RowPattern::Fixed)));
        assert!(StrategyKind::MATRIX.contains(&StrategyKind::Type2(RowPattern::Random)));
        let mut labels: Vec<_> = StrategyKind::MATRIX.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), StrategyKind::MATRIX.len());
    }

    #[test]
    fn golden_subset_pins_the_portfolio_and_both_row_patterns() {
        let subset = golden_subset();
        assert!(subset
            .iter()
            .any(|s| s.strategy == StrategyKind::Portfolio(PortfolioMix::Mixed)));
        for pattern in [RowPattern::Fixed, RowPattern::Random] {
            assert!(subset
                .iter()
                .any(|s| s.strategy == StrategyKind::Type2(pattern)
                    && s.objectives == Objectives::WirelengthPower));
        }
    }

    #[test]
    fn objectives_tags_roundtrip() {
        for o in [
            Objectives::WirelengthPower,
            Objectives::WirelengthPowerDelay,
        ] {
            assert_eq!(objectives_from_tag(objectives_tag(o)), Some(o));
            assert_eq!(objectives_from_tag(o.label()), Some(o));
        }
        assert_eq!(objectives_from_tag("w"), None);
    }

    #[test]
    fn checkpoints_are_powers_of_two_plus_last() {
        assert_eq!(checkpoint_iterations(0), Vec::<usize>::new());
        assert_eq!(checkpoint_iterations(1), vec![0]);
        assert_eq!(checkpoint_iterations(5), vec![0, 1, 3, 4]);
        assert_eq!(checkpoint_iterations(8), vec![0, 1, 3, 7]);
        assert_eq!(checkpoint_iterations(9), vec![0, 1, 3, 7, 8]);
    }

    #[test]
    fn fingerprint_text_roundtrips() {
        let mut driver = BatchDriver::new();
        let spec = small_spec();
        let record = driver.run_cell(&spec);
        let text = record.fingerprint.to_text(&spec);
        let (parsed_spec, parsed_fp) = TrajectoryFingerprint::parse_text(&text).unwrap();
        assert_eq!(parsed_spec, spec);
        assert_eq!(parsed_fp, record.fingerprint);
    }

    #[test]
    fn fingerprints_are_stable_across_reruns_and_backends() {
        let mut driver = BatchDriver::new();
        let spec = small_spec();
        let a = driver.run_cell(&spec);
        let b = driver.run_cell(&spec);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "rerun must not change the fingerprint"
        );
        let threaded = driver.run_cell(&spec.on_workers(Some(2)));
        assert_eq!(
            a.fingerprint, threaded.fingerprint,
            "backend must not change the fingerprint"
        );
        assert_eq!(threaded.outcome.backend, "threaded(2)");
    }

    #[test]
    fn fingerprint_diff_names_exactly_the_changed_fields() {
        let mut driver = BatchDriver::new();
        let record = driver.run_cell(&small_spec());
        let fp = record.fingerprint.clone();
        assert!(
            fp.diff(&fp).is_empty(),
            "equal fingerprints must diff empty"
        );

        let mut moved = fp.clone();
        moved.final_mu_bits ^= 1;
        moved.placement_hash ^= 0xdead;
        if let Some(last) = moved.mu_checkpoints.last_mut() {
            last.1 ^= 7;
        }
        let lines = fp.diff(&moved);
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines.iter().any(|l| l.starts_with("final_mu_bits: ")));
        assert!(lines.iter().any(|l| l.starts_with("placement_hash: ")));
        assert!(lines.iter().any(|l| l.starts_with("mu_bits[")));
        for line in &lines {
            assert!(
                line.contains(" -> "),
                "diff line must show old and new: {line}"
            );
        }
    }

    #[test]
    fn fingerprints_differ_between_scenarios() {
        let mut driver = BatchDriver::new();
        let a = driver.run_cell(&small_spec());
        let mut other = small_spec();
        other.strategy = StrategyKind::Type3;
        let b = driver.run_cell(&other);
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn driver_reuses_engines_across_cells() {
        let mut driver = BatchDriver::new();
        driver.run_cell(&small_spec());
        let mut other = small_spec();
        other.strategy = StrategyKind::Type1;
        driver.run_cell(&other);
        let stats = driver.runner().stats();
        assert_eq!(stats.engines, 1, "same circuit+objectives → one engine");
        assert_eq!(stats.engines_calibrated, 1);
        assert_eq!(stats.circuits, 1);
    }

    #[test]
    fn golden_subset_is_runnable_and_unique() {
        let subset = golden_subset();
        let mut ids: Vec<String> = subset.iter().map(ScenarioSpec::id).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before, "golden scenario ids must be unique");
        for spec in &subset {
            assert!(
                SuiteCircuit::from_name(&spec.circuit).is_some(),
                "{}",
                spec.circuit
            );
            assert!(spec.ranks >= spec.strategy.min_ranks());
            assert!(
                spec.workers.is_none(),
                "goldens are blessed on the modeled backend"
            );
        }
    }

    #[test]
    fn record_json_contains_the_key_fields() {
        let mut driver = BatchDriver::new();
        let record = driver.run_cell(&small_spec());
        let json = record.to_json();
        assert!(json.contains("\"scenario\": \"s1196.type2_random.r3.i3.wp\""));
        assert!(json.contains("\"backend\": \"modeled\""));
        assert!(json.contains("placement_hash"));
    }

    fn golden_temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sime-golden-check-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp golden dir");
        dir
    }

    #[test]
    fn check_goldens_fails_hard_on_a_missing_directory() {
        let mut driver = BatchDriver::new();
        let spec = small_spec();
        let record = driver.run_cell(&spec);
        let mut by_id = std::collections::BTreeMap::new();
        by_id.insert(spec.id(), record.fingerprint);
        let check = check_goldens(std::path::Path::new("/nonexistent/sime/golden/dir"), &by_id);
        assert!(!check.passed(), "missing directory must be a hard failure");
        assert_eq!(check.checked, 0);
        assert!(
            check.failures[0].contains("does not exist"),
            "{:?}",
            check.failures
        );
    }

    #[test]
    fn check_goldens_fails_hard_when_nothing_intersects() {
        let mut driver = BatchDriver::new();
        let spec = small_spec();
        let record = driver.run_cell(&spec);
        let mut by_id = std::collections::BTreeMap::new();
        by_id.insert(spec.id(), record.fingerprint);
        let dir = golden_temp_dir("empty");
        let check = check_goldens(&dir, &by_id);
        assert!(!check.passed(), "an empty intersection must not pass");
        assert_eq!(check.checked, 0);
        assert!(
            check.failures[0].contains("compared nothing"),
            "{:?}",
            check.failures
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_goldens_accepts_matches_and_reports_mismatches() {
        let mut driver = BatchDriver::new();
        let spec = small_spec();
        let record = driver.run_cell(&spec);
        let dir = golden_temp_dir("roundtrip");
        let path = dir.join(format!("{}.golden", spec.id()));
        std::fs::write(&path, record.fingerprint.to_text(&spec)).unwrap();

        let mut by_id = std::collections::BTreeMap::new();
        by_id.insert(spec.id(), record.fingerprint.clone());
        let check = check_goldens(&dir, &by_id);
        assert!(check.passed(), "{:?}", check.failures);
        assert_eq!(check.checked, 1);

        let mut perturbed = record.fingerprint.clone();
        perturbed.trajectory_hash ^= 1;
        by_id.insert(spec.id(), perturbed);
        let check = check_goldens(&dir, &by_id);
        assert!(!check.passed());
        assert_eq!(check.checked, 1);
        assert!(
            check.failures[0].contains("GOLDEN MISMATCH"),
            "{:?}",
            check.failures
        );

        std::fs::write(&path, "not a fingerprint\n").unwrap();
        let check = check_goldens(&dir, &by_id);
        assert!(!check.passed());
        assert!(
            check.failures[0].contains("cannot parse golden"),
            "{:?}",
            check.failures
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_text_rejects_malformed_input() {
        assert!(TrajectoryFingerprint::parse_text("").is_err());
        assert!(TrajectoryFingerprint::parse_text("bogus_key 1\n").is_err());
        let missing_hash = "circuit s1196\nstrategy type1\nranks 3\niterations 5\nobjectives wp\n\
                            final_mu_bits 0x1\nfinal_wirelength_bits 0x1\nfinal_power_bits 0x1\n\
                            final_delay_bits 0x0\n";
        let err = TrajectoryFingerprint::parse_text(missing_hash).unwrap_err();
        assert!(err.contains("trajectory_hash"), "{err}");
    }
}
