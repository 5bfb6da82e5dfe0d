//! Job-oriented session state: the thread-safe [`JobRunner`].
//!
//! Every surface that runs placement jobs — the scenario matrix, the golden
//! suite, the `sime-server` daemon, the benchmark — needs the same reuse of
//! netlists and engines across jobs, *concurrent* ones included, with
//! validation instead of panics and an identity that survives renames. This
//! module provides that:
//!
//! * **Content-addressed circuit cache.** Every netlist is keyed by its
//!   [`bookshelf_digest`] — an FNV-1a digest of its canonical Bookshelf
//!   `.nodes`/`.nets` serialisation. Two clients registering the same circuit
//!   under different names share one parsed netlist, one engine, one set of
//!   calibrated fuzzy goals; a client registering *different* contents under
//!   a known name gets a fresh cache line instead of silently reusing stale
//!   state. A name → digest memo keeps the digest computation off the
//!   per-job path.
//! * **Engine cache keyed by `(digest, objectives, warm start)`.** Engine
//!   construction (CSR cost tables, critical-path extraction, fuzzy
//!   calibration) dominates small-run setup, and none of it depends on the
//!   seed. So the cache holds one engine per circuit content, objective set
//!   and warm-start placement, at the default seed. A job with its own seed
//!   runs on [`SimEEngine::with_seed`]: a shallow copy of the cached engine
//!   that shares every table, made for the job and never cached. Any number
//!   of seeds leaves the cache at circuits × objectives × (1 + warm starts)
//!   engines.
//! * **Typed errors.** [`JobRunner::run_job`] validates the spec (unknown
//!   circuit, rank count below the strategy minimum, zero iterations) and
//!   returns a [`JobError`] a protocol layer can forward.
//!
//! Every cache sits behind its own mutex and `run_job` takes `&self`, so one
//! runner serves any number of threads; the strategy run itself — the long
//! part — never holds a lock. A panic under a lock (suite generation,
//! calibration) does not disable the runner: every cache is written only
//! once its new entry is built, so each lock recovers a poisoned guard and
//! carries on. Determinism is untouched: for the same
//! [`ScenarioSpec`] the runner produces the same [`TrajectoryFingerprint`]
//! as the batch path, which is exactly what `tests/server_suite.rs` pins
//! against the golden registry.

use crate::batch::{ScenarioRecord, ScenarioSpec, StrategyKind, TrajectoryFingerprint};
use crate::control::{FreeRun, RunControl};
use crate::exec::ExecBackend;
use crate::portfolio::{run_portfolio, PortfolioConfig};
use crate::type1::{run_type1, Type1Config};
use crate::type2::{run_type2, Type2Config};
use crate::type3::{run_type3, Type3Config};
use cluster_sim::timeline::ClusterConfig;
use sime_core::engine::{SimEConfig, SimEEngine};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use vlsi_netlist::bench_suite::SuiteCircuit;
use vlsi_netlist::bookshelf::{parse_pl, write_nets_to, write_nodes_to, write_pl};
use vlsi_netlist::Netlist;
use vlsi_place::cost::Objectives;
use vlsi_place::layout::Placement;
use vlsi_place::{placement_from_pl, placement_to_pl};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Content digest of a netlist: FNV-1a over its canonical Bookshelf
/// serialisation (`.nodes` text, a separator, `.nets` text). Renaming-
/// invariant in the cache sense — the digest covers exactly what a Bookshelf
/// round-trip preserves, so a reloaded dump of a circuit digests equal to
/// the original. The text streams straight into the hash; it is never held
/// in memory.
pub fn bookshelf_digest(netlist: &Netlist) -> u64 {
    let mut hash = Fnv(FNV_OFFSET);
    write_nodes_to(netlist, &mut hash)
        .and_then(|()| hash.write_all(&[0xff]))
        .and_then(|()| write_nets_to(netlist, &mut hash))
        .expect("hashing cannot fail");
    hash.0
}

/// An [`io::Write`] sink that folds every byte into an FNV-1a hash.
struct Fnv(u64);

impl io::Write for Fnv {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &byte in buf {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One placement job: a scenario cell plus the per-job knobs that are *not*
/// part of the scenario identity.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The scenario to run. Its `workers` field is ignored by
    /// [`JobRunner::run_job`] — the caller chooses the backend — but kept so
    /// `scenario.id()` stays the golden-comparable identity.
    pub scenario: ScenarioSpec,
    /// Optional seed override. `None` runs the engine's default seed — the
    /// batch path's behaviour, and the only mode whose fingerprint can match
    /// a checked-in golden. `Some(s)` re-seeds every RNG stream derivation
    /// (master, per-rank, per-worker) with `s`.
    pub seed: Option<u64>,
}

impl JobSpec {
    /// A job that replays `scenario` exactly as the batch path would.
    pub fn batch(scenario: ScenarioSpec) -> Self {
        JobSpec {
            scenario,
            seed: None,
        }
    }
}

/// Why a job was rejected. Every variant is a *request* problem: the runner
/// and its caches stay fully usable afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The spec names a circuit that is neither a suite circuit nor a
    /// registered netlist.
    UnknownCircuit(String),
    /// The rank count is below the strategy's minimum (carries the strategy
    /// label, the minimum and the offending value).
    TooFewRanks {
        /// Strategy label (`"type1"`, ...).
        strategy: String,
        /// The smallest rank count the strategy accepts.
        min: usize,
        /// The rank count the spec asked for.
        got: usize,
    },
    /// The rank count exceeds the circuit's row count (carries the strategy
    /// label, the row count and the offending value). Ranks are capped at
    /// one per row; an absurd rank count would otherwise size per-rank state
    /// before the run could be cancelled.
    TooManyRanks {
        /// Strategy label (`"type3"`, ...).
        strategy: String,
        /// The largest rank count the circuit accepts: its row count.
        max: usize,
        /// The rank count the spec asked for.
        got: usize,
    },
    /// The spec asks for zero iterations — nothing to run, no trajectory to
    /// fingerprint.
    NoIterations,
    /// A Bookshelf registration failed to parse (carries the parser's
    /// message).
    BadBookshelf(String),
    /// The spec's `warm_start` tag names neither the builtin `rr` layout nor
    /// a placement registered with [`JobRunner::register_placement`].
    UnknownWarmStart(String),
    /// A warm-start `.pl` failed to parse or did not legally place the
    /// spec's circuit (carries the parser's or converter's message).
    BadPlacement(String),
    /// The strategy cannot run on a circuit with fixed cells (the portfolio's
    /// metaheuristic islands move arbitrary cells and have no notion of a
    /// pinned pad or macro).
    FixedCellsUnsupported {
        /// Strategy label (`"portfolio_mixed"`, ...).
        strategy: String,
        /// The mixed-size circuit the spec asked for.
        circuit: String,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::UnknownCircuit(name) => write!(f, "unknown circuit `{name}`"),
            JobError::TooFewRanks { strategy, min, got } => {
                write!(f, "{strategy} needs at least {min} ranks, spec has {got}")
            }
            JobError::TooManyRanks { strategy, max, got } => {
                write!(
                    f,
                    "{strategy} takes at most {max} ranks on this circuit (one per row), \
                     spec has {got}"
                )
            }
            JobError::NoIterations => write!(f, "iterations must be at least 1"),
            JobError::BadBookshelf(msg) => write!(f, "bookshelf parse failed: {msg}"),
            JobError::UnknownWarmStart(tag) => write!(f, "unknown warm-start placement `{tag}`"),
            JobError::BadPlacement(msg) => write!(f, "warm-start placement rejected: {msg}"),
            JobError::FixedCellsUnsupported { strategy, circuit } => write!(
                f,
                "{strategy} cannot run on `{circuit}`: its metaheuristic islands \
                 do not support fixed cells"
            ),
        }
    }
}

impl std::error::Error for JobError {}

impl JobError {
    /// Stable machine-readable code for the protocol layer.
    pub fn code(&self) -> &'static str {
        match self {
            JobError::UnknownCircuit(_) => "unknown_circuit",
            JobError::TooFewRanks { .. } => "too_few_ranks",
            JobError::TooManyRanks { .. } => "too_many_ranks",
            JobError::NoIterations => "no_iterations",
            JobError::BadBookshelf(_) => "bad_bookshelf",
            JobError::UnknownWarmStart(_) => "unknown_warm_start",
            JobError::BadPlacement(_) => "bad_placement",
            JobError::FixedCellsUnsupported { .. } => "fixed_cells_unsupported",
        }
    }
}

/// A finished job: the spec it ran, the raw outcome and the
/// golden-comparable fingerprint.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job as submitted.
    pub spec: JobSpec,
    /// The strategy outcome; `outcome.iterations` is the count that actually
    /// ran (less than requested if the control cancelled).
    pub outcome: crate::report::StrategyOutcome,
    /// Fingerprint of the run. For an uncancelled default-seed job this is
    /// bitwise equal to the batch path's fingerprint for the same scenario.
    pub fingerprint: TrajectoryFingerprint,
    /// Content digest of the circuit the job ran on (the engine-cache key).
    pub circuit_digest: u64,
}

impl JobOutcome {
    /// Whether the run completed all requested iterations (false = the
    /// control ended it early).
    pub fn completed(&self) -> bool {
        self.outcome.iterations == self.spec.scenario.iterations
    }

    /// The finished job as a batch-layer [`ScenarioRecord`].
    pub fn into_record(self) -> ScenarioRecord {
        ScenarioRecord {
            spec: self.spec.scenario,
            outcome: self.outcome,
            fingerprint: self.fingerprint,
        }
    }
}

/// Cache occupancy and traffic counters, for monitoring and leak tests.
/// Every engine lookup (each `run_job` and `engine_for*` call) counts in
/// exactly one of `engines_calibrated`, `engines_reseeded` and
/// `engine_hits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunnerStats {
    /// Distinct circuit contents currently cached (by digest).
    pub circuits: usize,
    /// Engines currently cached: one per `(digest, objectives, warm start)`,
    /// whatever the number of seeds.
    pub engines: usize,
    /// Lookups that built an engine from scratch (full calibration).
    pub engines_calibrated: u64,
    /// Lookups answered by a shallow copy of a cached engine: a job's own
    /// seed ([`SimEEngine::with_seed`]), or the first job of a warm start
    /// (the cold engine plus its initial placement).
    pub engines_reseeded: u64,
    /// Lookups answered by a cached engine as it is.
    pub engine_hits: u64,
}

#[derive(Default)]
struct Caches {
    /// name → content digest (memo so the per-job path never re-serialises).
    digests: HashMap<String, u64>,
    /// digest → parsed netlist (the content-addressed store).
    circuits: HashMap<u64, Arc<Netlist>>,
    /// warm-start tag → Bookshelf `.pl` text (resolved per job against the
    /// job's circuit; the text, not a `Placement`, is the stored form so one
    /// registration can warm any compatible circuit and the digest covers
    /// exactly what the interchange round-trip preserves).
    placements: HashMap<String, String>,
}

/// Engine-cache key: `(circuit digest, objectives, warm-start digest)`; the
/// warm digest is [`pl_digest`] of the resolved `.pl` text, `0` for a cold
/// start. The seed is not part of it: cached engines run the default seed,
/// and a job's own seed is a [`SimEEngine::with_seed`] copy.
type EngineKey = (u64, Objectives, u64);

/// Thread-safe job engine: shared, concurrent session state for placement
/// jobs. See the [module docs](self) for the cache design.
#[derive(Default)]
pub struct JobRunner {
    caches: Mutex<Caches>,
    engines: Mutex<HashMap<EngineKey, Arc<SimEEngine>>>,
    stats: Mutex<RunnerStats>,
}

/// Locks `mutex`, recovering the guard if a panicking thread poisoned it.
/// No cache is left half-updated by a panic: each is written only after its
/// new entry is built.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Content digest of a warm-start placement: FNV-1a over its Bookshelf `.pl`
/// text, clamped away from `0` — the engine-cache key reserves `0` for "no
/// warm start".
pub fn pl_digest(pl_text: &str) -> u64 {
    let mut hash = FNV_OFFSET;
    for byte in pl_text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash.max(1)
}

impl JobRunner {
    /// An empty runner; circuits are generated or registered on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a pre-built netlist under its own name, keyed by content
    /// digest. Returns the digest. Registering identical contents twice is
    /// idempotent; registering different contents under a name that was
    /// already mapped simply re-points the name at the new digest.
    pub fn register_netlist(&self, netlist: Arc<Netlist>) -> u64 {
        let digest = bookshelf_digest(&netlist);
        let mut caches = lock(&self.caches);
        caches.digests.insert(netlist.name().to_string(), digest);
        caches.circuits.entry(digest).or_insert(netlist);
        digest
    }

    /// Parses a Bookshelf `.nodes`/`.nets` pair and registers the result.
    /// Returns `(circuit name, digest)`.
    pub fn register_bookshelf(&self, nodes: &str, nets: &str) -> Result<(String, u64), JobError> {
        let netlist = vlsi_netlist::bookshelf::parse_bookshelf(nodes, nets)
            .map_err(|e| JobError::BadBookshelf(e.to_string()))?;
        let name = netlist.name().to_string();
        let digest = self.register_netlist(Arc::new(netlist));
        Ok((name, digest))
    }

    /// Registers a Bookshelf `.pl` placement under a warm-start tag. The
    /// text is validated lazily, per job, against the job's circuit — one
    /// registration can warm any circuit whose cell names it covers. Returns
    /// the [`pl_digest`] of the text. Re-registering a tag re-points it.
    pub fn register_placement(&self, tag: &str, pl_text: &str) -> u64 {
        let mut caches = lock(&self.caches);
        caches
            .placements
            .insert(tag.to_string(), pl_text.to_string());
        pl_digest(pl_text)
    }

    /// Resolves a warm-start tag for `netlist` into `(placement, .pl text)`.
    ///
    /// The builtin tag `"rr"` synthesizes the deterministic round-robin
    /// layout and pushes it through the same `.pl` writer/parser pipeline a
    /// registered placement takes, so every warm start — builtin or client-
    /// supplied — exercises the interchange round trip. Any other tag must
    /// have been registered with [`JobRunner::register_placement`].
    fn warm_placement(
        &self,
        tag: &str,
        netlist: &Arc<Netlist>,
        num_rows: usize,
    ) -> Result<(Arc<Placement>, u64), JobError> {
        let pl_text = if tag == "rr" {
            let rr = Placement::round_robin(netlist, num_rows);
            write_pl(&placement_to_pl(netlist, &rr))
        } else {
            let caches = lock(&self.caches);
            caches
                .placements
                .get(tag)
                .cloned()
                .ok_or_else(|| JobError::UnknownWarmStart(tag.to_string()))?
        };
        let entries = parse_pl(&pl_text).map_err(|e| JobError::BadPlacement(e.to_string()))?;
        let placement = placement_from_pl(netlist, num_rows, &entries)
            .map_err(|e| JobError::BadPlacement(e.to_string()))?;
        Ok((Arc::new(placement), pl_digest(&pl_text)))
    }

    /// The netlist for `name`, generating and caching the suite circuit on
    /// first use. Registered netlists take precedence over suite generation
    /// (same rule as the batch driver).
    pub fn netlist(&self, name: &str) -> Result<(Arc<Netlist>, u64), JobError> {
        let mut caches = lock(&self.caches);
        if let Some(&digest) = caches.digests.get(name) {
            if let Some(netlist) = caches.circuits.get(&digest) {
                return Ok((Arc::clone(netlist), digest));
            }
        }
        let circuit = SuiteCircuit::from_name(name)
            .ok_or_else(|| JobError::UnknownCircuit(name.to_string()))?;
        let netlist = Arc::new(circuit.generate());
        let digest = bookshelf_digest(&netlist);
        caches.digests.insert(name.to_string(), digest);
        let netlist = Arc::clone(caches.circuits.entry(digest).or_insert(netlist));
        Ok((netlist, digest))
    }

    /// The engine for `(digest, objectives, warm start)` at `seed`.
    ///
    /// The cache holds one engine per `(digest, objectives, warm start)` at
    /// the default seed. Building one is serialised under the cache lock on
    /// purpose: two concurrent jobs for the same new circuit calibrate once,
    /// not twice. A warm engine is the cold one plus its initial placement,
    /// so a warm start never calibrates again. Any other seed gets a shallow
    /// [`SimEEngine::with_seed`] copy, made for the job and not cached.
    fn engine(
        &self,
        netlist: &Arc<Netlist>,
        digest: u64,
        num_rows: usize,
        objectives: Objectives,
        seed: Option<u64>,
        warm: Option<(Arc<Placement>, u64)>,
    ) -> Arc<SimEEngine> {
        let mut calibrated = false;
        let mut copied = false;
        let base = {
            let mut engines = lock(&self.engines);
            let cold = match engines.get(&(digest, objectives, 0)) {
                Some(cold) => Arc::clone(cold),
                None => {
                    calibrated = true;
                    // The default seed must match the goldens' engine config
                    // so default-seed jobs fingerprint identically to them.
                    let config = SimEConfig::paper_defaults(objectives, num_rows, 1);
                    let cold = Arc::new(SimEEngine::new(Arc::clone(netlist), config));
                    engines.insert((digest, objectives, 0), Arc::clone(&cold));
                    cold
                }
            };
            match warm {
                None => cold,
                Some((placement, warm_digest)) => {
                    let key = (digest, objectives, warm_digest);
                    match engines.get(&key) {
                        Some(base) => Arc::clone(base),
                        None => {
                            copied = true;
                            let base = Arc::new(SimEEngine::clone(&cold).with_initial(placement));
                            engines.insert(key, Arc::clone(&base));
                            base
                        }
                    }
                }
            }
        };
        let engine = match seed {
            Some(seed) if seed != base.config().seed => {
                copied = true;
                Arc::new(base.with_seed(seed))
            }
            _ => base,
        };
        let mut stats = lock(&self.stats);
        if calibrated {
            stats.engines_calibrated += 1;
        } else if copied {
            stats.engines_reseeded += 1;
        } else {
            stats.engine_hits += 1;
        }
        engine
    }

    /// The engine a job for `(circuit, objectives, seed)` would run on,
    /// resolving the circuit and building/caching the engine as
    /// [`JobRunner::run_job`] does. `seed: None` is the default (batch-path)
    /// seed.
    pub fn engine_for(
        &self,
        circuit: &str,
        objectives: Objectives,
        seed: Option<u64>,
    ) -> Result<Arc<SimEEngine>, JobError> {
        self.engine_for_warm(circuit, objectives, seed, None)
    }

    /// [`JobRunner::engine_for`] with a warm-start tag: the returned engine
    /// starts every run from the resolved `.pl` placement instead of a
    /// random deal. Cached separately per warm-start content digest.
    pub(crate) fn engine_for_warm(
        &self,
        circuit: &str,
        objectives: Objectives,
        seed: Option<u64>,
        warm_start: Option<&str>,
    ) -> Result<Arc<SimEEngine>, JobError> {
        let (netlist, digest) = self.netlist(circuit)?;
        let num_rows = SuiteCircuit::from_name(circuit)
            .ok_or_else(|| JobError::UnknownCircuit(circuit.to_string()))?
            .num_rows();
        let warm = match warm_start {
            None => None,
            Some(tag) => Some(self.warm_placement(tag, &netlist, num_rows)?),
        };
        Ok(self.engine(&netlist, digest, num_rows, objectives, seed, warm))
    }

    /// Validates a scenario against the strategy invariants the drivers
    /// would otherwise assert on. Public so admission layers (the server's
    /// submit path) can reject a bad spec *before* queueing it.
    pub fn validate(spec: &ScenarioSpec) -> Result<(), JobError> {
        if spec.iterations == 0 {
            return Err(JobError::NoIterations);
        }
        let min = spec.strategy.min_ranks();
        if spec.ranks < min {
            return Err(JobError::TooFewRanks {
                strategy: spec.strategy.label().to_string(),
                min,
                got: spec.ranks,
            });
        }
        // Unknown circuits pass here and fail with `UnknownCircuit` once the
        // runner resolves them.
        if let Some(circuit) = SuiteCircuit::from_name(&spec.circuit) {
            let max = circuit.num_rows();
            if spec.ranks > max {
                return Err(JobError::TooManyRanks {
                    strategy: spec.strategy.label().to_string(),
                    max,
                    got: spec.ranks,
                });
            }
        }
        Ok(())
    }

    /// Runs one job on `backend`, observing (and possibly cancelling) it
    /// through `control`. `&self` — any number of threads may call this
    /// concurrently; no lock is held while the strategy runs.
    pub fn run_job(
        &self,
        spec: &JobSpec,
        backend: &dyn ExecBackend,
        control: &dyn RunControl,
    ) -> Result<JobOutcome, JobError> {
        let scenario = &spec.scenario;
        Self::validate(scenario)?;
        let (netlist, digest) = self.netlist(&scenario.circuit)?;
        if netlist.has_fixed_cells() {
            if let StrategyKind::Portfolio(_) = scenario.strategy {
                return Err(JobError::FixedCellsUnsupported {
                    strategy: scenario.strategy.label().to_string(),
                    circuit: scenario.circuit.clone(),
                });
            }
        }
        let engine = self.engine_for_warm(
            &scenario.circuit,
            scenario.objectives,
            spec.seed,
            scenario.warm_start.as_deref(),
        )?;
        let outcome = run_strategy(&engine, scenario, backend, control);
        let fingerprint = TrajectoryFingerprint::from_outcome(&outcome);
        Ok(JobOutcome {
            spec: spec.clone(),
            outcome,
            fingerprint,
            circuit_digest: digest,
        })
    }

    /// Runs a scenario exactly as the batch path would: the spec's own
    /// backend, default seed, no control.
    pub fn run_scenario(&self, scenario: &ScenarioSpec) -> Result<JobOutcome, JobError> {
        self.run_job(
            &JobSpec::batch(scenario.clone()),
            scenario.backend().as_ref(),
            &FreeRun,
        )
    }

    /// Current cache occupancy and traffic counters.
    pub fn stats(&self) -> RunnerStats {
        let caches = lock(&self.caches);
        let engines = lock(&self.engines);
        let counters = lock(&self.stats);
        RunnerStats {
            circuits: caches.circuits.len(),
            engines: engines.len(),
            ..*counters
        }
    }
}

/// Runs `scenario`'s strategy on `engine`: the part of a job after its
/// engine is resolved.
fn run_strategy(
    engine: &SimEEngine,
    scenario: &ScenarioSpec,
    backend: &dyn ExecBackend,
    control: &dyn RunControl,
) -> crate::report::StrategyOutcome {
    let cluster = ClusterConfig::paper_cluster(scenario.ranks);
    let iterations = scenario.iterations;
    match scenario.strategy {
        StrategyKind::Type1 => {
            let config = Type1Config { iterations };
            run_type1(engine, cluster, config, backend, control)
        }
        StrategyKind::Type2(pattern) => {
            let config = Type2Config {
                iterations,
                pattern,
            };
            run_type2(engine, cluster, config, backend, control)
        }
        StrategyKind::Type3 => {
            let config = Type3Config {
                iterations,
                retry_threshold: 3,
            };
            run_type3(engine, cluster, config, backend, control)
        }
        StrategyKind::Portfolio(mix) => {
            let config = PortfolioConfig::scenario(mix, iterations);
            run_portfolio(engine, cluster, config, backend, control)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::CancelAfter;
    use crate::exec::{Modeled, SharedPool};
    use crate::type2::RowPattern;
    use cluster_sim::comm::WorkerPool;
    use vlsi_netlist::bookshelf::write_bookshelf;

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
    fn job_runner_matches_the_batch_path_bitwise() {
        let runner = JobRunner::new();
        let spec = small_spec();
        let job = runner.run_scenario(&spec).unwrap();
        let cell = JobRunner::new()
            .run_scenario(&spec)
            .unwrap_or_else(|e| panic!("{e}"))
            .into_record();
        assert_eq!(job.fingerprint, cell.fingerprint);
        assert!(job.completed());
    }

    #[test]
    fn digest_is_content_addressed_and_rename_stable() {
        let nl = Arc::new(SuiteCircuit::from_name("s1196").unwrap().generate());
        let d1 = bookshelf_digest(&nl);
        let d2 = bookshelf_digest(&nl);
        assert_eq!(d1, d2);
        // A round-trip through Bookshelf text preserves the digest.
        let pair = write_bookshelf(&nl);
        let reparsed = vlsi_netlist::bookshelf::parse_bookshelf(&pair.nodes, &pair.nets).unwrap();
        assert_eq!(bookshelf_digest(&reparsed), d1);
        // A different circuit digests differently.
        let other = Arc::new(SuiteCircuit::from_name("s1238").unwrap().generate());
        assert_ne!(bookshelf_digest(&other), d1);
    }

    #[test]
    fn identical_contents_share_one_cache_line() {
        let runner = JobRunner::new();
        let nl = Arc::new(SuiteCircuit::from_name("s1196").unwrap().generate());
        let d1 = runner.register_netlist(Arc::clone(&nl));
        // Re-register the same contents reloaded from Bookshelf text.
        let pair = write_bookshelf(&nl);
        let (name, d2) = runner.register_bookshelf(&pair.nodes, &pair.nets).unwrap();
        assert_eq!(name, "s1196");
        assert_eq!(d1, d2);
        assert_eq!(runner.stats().circuits, 1);
        let (cached, digest) = runner.netlist("s1196").unwrap();
        assert_eq!(digest, d1);
        assert!(Arc::ptr_eq(&cached, &nl), "first registration wins");
    }

    #[test]
    fn engines_are_shared_and_reseeded_without_recalibration() {
        let runner = JobRunner::new();
        let spec = small_spec();
        runner.run_scenario(&spec).unwrap();
        runner.run_scenario(&spec).unwrap();
        let stats = runner.stats();
        assert_eq!(stats.engines_calibrated, 1);
        assert_eq!(stats.engine_hits, 1);

        // A seed override runs on a copy of the cached engine: no second
        // calibration, and nothing new in the cache.
        let seeded = JobSpec {
            scenario: spec.clone(),
            seed: Some(42),
        };
        let out = runner.run_job(&seeded, &Modeled, &FreeRun).unwrap();
        let stats = runner.stats();
        assert_eq!(stats.engines_calibrated, 1, "no second calibration");
        assert_eq!(stats.engines_reseeded, 1);
        assert_eq!(stats.engines, 1);
        // A different seed is a different trajectory.
        let default = runner.run_scenario(&spec).unwrap();
        assert_ne!(out.fingerprint, default.fingerprint);
        // And the reseeded engine is itself deterministic.
        let again = runner.run_job(&seeded, &Modeled, &FreeRun).unwrap();
        assert_eq!(again.fingerprint, out.fingerprint);

        // Any number of seeds leaves one engine per (circuit, objectives),
        // plus one per warm start.
        for seed in 100..120 {
            for objectives in [
                Objectives::WirelengthPower,
                Objectives::WirelengthPowerDelay,
            ] {
                let engine = runner.engine_for("s1196", objectives, Some(seed)).unwrap();
                assert_eq!(engine.config().seed, seed);
            }
        }
        let stats = runner.stats();
        assert_eq!(stats.engines, 2);
        assert_eq!(stats.engines_calibrated, 2);
        for seed in 100..120 {
            let engine = runner
                .engine_for_warm("s1196", spec.objectives, Some(seed), Some("rr"))
                .unwrap();
            assert_eq!(engine.config().seed, seed);
        }
        let stats = runner.stats();
        assert_eq!(stats.engines, 3);
        assert_eq!(stats.engines_calibrated, 2);
    }

    /// A runner job at `seed` replays, bitwise, the same driver on an
    /// engine calibrated from scratch with that seed: a seeded copy shares
    /// nothing that depends on the seed.
    #[test]
    fn seeded_jobs_match_a_freshly_calibrated_engine_bitwise() {
        use crate::portfolio::PortfolioMix;
        let runner = JobRunner::new();
        let strategies = [
            (StrategyKind::Type1, 2),
            (StrategyKind::Type2(RowPattern::Fixed), 3),
            (StrategyKind::Type2(RowPattern::Random), 3),
            (StrategyKind::Type3, 3),
            (StrategyKind::Portfolio(PortfolioMix::Mixed), 3),
            (StrategyKind::Portfolio(PortfolioMix::Baselines), 3),
        ];
        let mut cells = Vec::new();
        for (strategy, ranks) in strategies {
            let mut spec = small_spec();
            spec.objectives = Objectives::WirelengthPowerDelay;
            spec.strategy = strategy;
            spec.ranks = ranks;
            spec.iterations = 2;
            cells.push(spec.clone());
            if !matches!(strategy, StrategyKind::Portfolio(_)) {
                spec.circuit = "mix600".into();
                cells.push(spec);
            }
        }
        let mut warm = small_spec();
        warm.warm_start = Some("rr".into());
        warm.iterations = 2;
        cells.push(warm);

        for (i, scenario) in cells.into_iter().enumerate() {
            let seed = 1_000 + i as u64;
            let spec = JobSpec {
                scenario,
                seed: Some(seed),
            };
            let scenario = &spec.scenario;
            let got = runner.run_job(&spec, &Modeled, &FreeRun).unwrap();

            let circuit = SuiteCircuit::from_name(&scenario.circuit).unwrap();
            let netlist = Arc::new(circuit.generate());
            let config = SimEConfig {
                seed,
                ..SimEConfig::paper_defaults(scenario.objectives, circuit.num_rows(), 1)
            };
            let mut fresh = SimEEngine::new(Arc::clone(&netlist), config);
            if scenario.warm_start.is_some() {
                let rr = Placement::round_robin(&netlist, circuit.num_rows());
                let pl = parse_pl(&write_pl(&placement_to_pl(&netlist, &rr))).unwrap();
                let start = placement_from_pl(&netlist, circuit.num_rows(), &pl).unwrap();
                fresh = fresh.with_initial(Arc::new(start));
            }
            let want = run_strategy(&fresh, scenario, &Modeled, &FreeRun);
            assert_eq!(
                got.fingerprint,
                TrajectoryFingerprint::from_outcome(&want),
                "{} diverged from a fresh engine at seed {seed}",
                scenario.id()
            );
        }
        let stats = runner.stats();
        assert_eq!(
            stats.engines_calibrated,
            2 + 1,
            "s1196 wp and wpd, mix600 wpd"
        );
        assert_eq!(stats.engines, 4, "plus s1196's warm start");
    }

    #[test]
    fn a_panic_under_any_lock_leaves_the_runner_usable() {
        let spec = JobSpec {
            scenario: small_spec(),
            seed: Some(9),
        };
        let want = JobRunner::new()
            .run_job(&spec, &Modeled, &FreeRun)
            .unwrap()
            .fingerprint;
        let runner = JobRunner::new();
        runner.run_job(&spec, &Modeled, &FreeRun).unwrap();
        for which in 0..3 {
            let runner = &runner;
            let panicked = std::thread::scope(|scope| {
                scope
                    .spawn(move || match which {
                        0 => {
                            let _held = runner.caches.lock();
                            panic!("poison the circuit cache");
                        }
                        1 => {
                            let _held = runner.engines.lock();
                            panic!("poison the engine cache");
                        }
                        _ => {
                            let _held = runner.stats.lock();
                            panic!("poison the counters");
                        }
                    })
                    .join()
                    .is_err()
            });
            assert!(panicked);
        }
        assert!(runner.caches.is_poisoned());
        assert!(runner.engines.is_poisoned());
        assert!(runner.stats.is_poisoned());
        let got = runner.run_job(&spec, &Modeled, &FreeRun).unwrap();
        assert_eq!(got.fingerprint, want);
        let stats = runner.stats();
        assert_eq!(stats.engines, 1);
        assert_eq!(stats.engines_calibrated, 1);
        assert_eq!(stats.engines_reseeded, 1);
    }

    #[test]
    fn typed_errors_cover_the_validation_surface() {
        let runner = JobRunner::new();
        let mut unknown = small_spec();
        unknown.circuit = "does_not_exist".into();
        let err = runner.run_scenario(&unknown).unwrap_err();
        assert_eq!(err.code(), "unknown_circuit");
        assert!(err.to_string().contains("does_not_exist"));

        let mut few = small_spec();
        few.strategy = StrategyKind::Type3;
        few.ranks = 2;
        let err = runner.run_scenario(&few).unwrap_err();
        assert_eq!(
            err,
            JobError::TooFewRanks {
                strategy: "type3".into(),
                min: 3,
                got: 2
            }
        );

        let mut many = small_spec();
        many.strategy = StrategyKind::Type3;
        many.ranks = 1_000_000_000_000;
        let rows = SuiteCircuit::from_name("s1196").unwrap().num_rows();
        let err = runner.run_scenario(&many).unwrap_err();
        assert_eq!(
            err,
            JobError::TooManyRanks {
                strategy: "type3".into(),
                max: rows,
                got: 1_000_000_000_000
            }
        );
        assert_eq!(err.code(), "too_many_ranks");
        assert_eq!(JobRunner::validate(&many), Err(err));
        many.ranks = rows;
        assert_eq!(JobRunner::validate(&many), Ok(()));

        let mut empty = small_spec();
        empty.iterations = 0;
        assert_eq!(
            runner.run_scenario(&empty).unwrap_err().code(),
            "no_iterations"
        );

        assert_eq!(
            runner
                .register_bookshelf("garbage", "garbage")
                .unwrap_err()
                .code(),
            "bad_bookshelf"
        );
        // The runner survives every rejection.
        assert!(runner.run_scenario(&small_spec()).is_ok());
    }

    #[test]
    fn warm_started_jobs_replay_registered_pl_layouts_bitwise() {
        let runner = JobRunner::new();
        let cold = small_spec();
        let mut warm = small_spec();
        warm.warm_start = Some("rr".into());
        assert_ne!(warm.id(), cold.id(), "warm starts are their own identity");

        let cold_fp = runner.run_scenario(&cold).unwrap().fingerprint;
        let builtin_fp = runner.run_scenario(&warm).unwrap().fingerprint;
        assert_ne!(
            builtin_fp, cold_fp,
            "a warm start must change the trajectory"
        );

        // Registering the identical `.pl` text under another tag replays the
        // identical trajectory: the warm identity is the placement content.
        let (netlist, _) = runner.netlist("s1196").unwrap();
        let num_rows = SuiteCircuit::from_name("s1196").unwrap().num_rows();
        let rr = Placement::round_robin(&netlist, num_rows);
        let pl_text = write_pl(&placement_to_pl(&netlist, &rr));
        runner.register_placement("client_rr", &pl_text);
        let mut registered = small_spec();
        registered.warm_start = Some("client_rr".into());
        let registered_fp = runner.run_scenario(&registered).unwrap().fingerprint;
        assert_eq!(registered_fp, builtin_fp);

        // And the warm engine is cached: three runs, two distinct engines
        // (cold + warm share one calibration).
        let stats = runner.stats();
        assert_eq!(stats.engines, 2);
        assert_eq!(stats.engines_calibrated, 1);
    }

    #[test]
    fn warm_start_errors_are_typed() {
        let runner = JobRunner::new();
        let mut unknown = small_spec();
        unknown.warm_start = Some("nope".into());
        let err = runner.run_scenario(&unknown).unwrap_err();
        assert_eq!(err.code(), "unknown_warm_start");
        assert!(err.to_string().contains("nope"));

        runner.register_placement("garbage", "not a pl file");
        let mut bad = small_spec();
        bad.warm_start = Some("garbage".into());
        let err = runner.run_scenario(&bad).unwrap_err();
        assert_eq!(err.code(), "bad_placement");
    }

    #[test]
    fn mixed_circuits_run_everywhere_but_the_portfolio() {
        let runner = JobRunner::new();
        let mut spec = small_spec();
        spec.circuit = "mix600".into();
        spec.iterations = 2;
        let out = runner.run_scenario(&spec).unwrap();
        assert!(out.completed());

        let (netlist, _) = runner.netlist("mix600").unwrap();
        assert!(netlist.has_fixed_cells());

        let mut portfolio = spec.clone();
        portfolio.strategy = StrategyKind::Portfolio(crate::portfolio::PortfolioMix::Mixed);
        portfolio.ranks = 4;
        let err = runner.run_scenario(&portfolio).unwrap_err();
        assert_eq!(err.code(), "fixed_cells_unsupported");
        assert!(err.to_string().contains("mix600"));
    }

    #[test]
    fn cancelled_job_reports_partial_iterations_and_prefix_trajectory() {
        let runner = JobRunner::new();
        let spec = JobSpec::batch(small_spec());
        let full = runner.run_job(&spec, &Modeled, &FreeRun).unwrap();
        let cut = runner.run_job(&spec, &Modeled, &CancelAfter(1)).unwrap();
        assert!(!cut.completed());
        assert_eq!(cut.outcome.iterations, 2);
        for (a, b) in cut.outcome.mu_history.iter().zip(&full.outcome.mu_history) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn huge_iteration_counts_do_not_preallocate_the_history() {
        // Regression: every driver used to reserve `iterations` µ-history
        // slots up front, so one submit line with `iterations: 1e12` aborted
        // the whole process on the allocation before the first iteration.
        let runner = JobRunner::new();
        for (strategy, ranks) in [
            (StrategyKind::Type1, 2),
            (StrategyKind::Type2(RowPattern::Random), 2),
            (StrategyKind::Type3, 3),
            (
                StrategyKind::Portfolio(crate::portfolio::PortfolioMix::Mixed),
                2,
            ),
        ] {
            let mut spec = small_spec();
            spec.strategy = strategy;
            spec.ranks = ranks;
            spec.iterations = 1_000_000_000_000;
            let out = runner
                .run_job(&JobSpec::batch(spec), &Modeled, &CancelAfter(1))
                .unwrap();
            assert_eq!(out.outcome.iterations, 2, "{}", strategy.label());
            assert_eq!(out.outcome.mu_history.len(), 2);
            assert!(!out.completed());
        }
    }

    #[test]
    fn concurrent_jobs_on_one_shared_pool_match_the_goldens_path() {
        // The server's execution shape in miniature: several threads, one
        // runner, one pool — every fingerprint equal to the serial one.
        let runner = Arc::new(JobRunner::new());
        let pool = Arc::new(WorkerPool::new(2));
        let spec = small_spec();
        let serial = runner.run_scenario(&spec).unwrap().fingerprint;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let runner = Arc::clone(&runner);
                let backend = SharedPool::new(Arc::clone(&pool));
                let spec = spec.clone();
                let serial = &serial;
                scope.spawn(move || {
                    let out = runner
                        .run_job(&JobSpec::batch(spec), &backend, &FreeRun)
                        .unwrap();
                    assert_eq!(&out.fingerprint, serial);
                });
            }
        });
        assert_eq!(pool.queued_jobs(), 0, "no leaked jobs in the lanes");
    }
}
