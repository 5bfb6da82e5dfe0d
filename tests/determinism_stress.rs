//! The determinism-stress layer of the persistent-worker epoch scheduler.
//!
//! The golden suite (`tests/golden_suite.rs`) pins the search trajectories;
//! this suite hammers the *scheduler* underneath them. Every checked-in
//! golden is replayed across a grid of worker counts on the threaded
//! backend — including deliberately oversubscribed pools (more OS
//! workers than the host has cores, and far more workers than simulated
//! ranks) — and must reproduce its pinned fingerprint to the bit. A
//! proptest family additionally throws random epoch schedules (random task
//! counts, nested batches from worker threads, random pool sizes) at
//! `cluster_sim::comm::WorkerPool` and checks the merged results against an
//! inline oracle.
//!
//! Two grid tiers keep tier-1 wall-clock sane:
//!
//! * default — a pruned representative sub-grid (one undersubscribed, one
//!   balanced, one oversubscribed pool per golden);
//! * `SIME_STRESS_FULL=1` — the full {1,2,3,4,8} worker grid, run by the
//!   release-mode `determinism-stress` CI job.

use cluster_sim::comm::WorkerPool;
use proptest::prelude::*;
use sime_parallel::batch::{BatchDriver, ScenarioSpec, TrajectoryFingerprint};
use std::path::PathBuf;
use std::sync::Arc;

/// The full stress grid: worker counts under, at and over the simulated
/// rank counts, and a workers=8 column that oversubscribes any CI core
/// count.
const STRESS_WORKERS: [usize; 5] = [1, 2, 3, 4, 8];

/// The pruned default sub-grid: an undersubscribed, a balanced and a fully
/// oversubscribed pool.
const PRUNED_WORKERS: [usize; 3] = [1, 3, 8];

fn full_grid() -> bool {
    std::env::var("SIME_STRESS_FULL").is_ok_and(|v| v == "1")
}

fn stress_grid() -> &'static [usize] {
    if full_grid() {
        &STRESS_WORKERS
    } else {
        &PRUNED_WORKERS
    }
}

fn load_goldens() -> Vec<(String, ScenarioSpec, TrajectoryFingerprint)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "golden"))
        .collect();
    entries.sort();
    entries
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).unwrap();
            let (spec, fingerprint) = TrajectoryFingerprint::parse_text(&text)
                .unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()));
            (
                path.file_name().unwrap().to_string_lossy().into_owned(),
                spec,
                fingerprint,
            )
        })
        .collect()
}

#[test]
fn goldens_replay_bitwise_across_the_worker_stress_grid() {
    let grid = stress_grid();
    let mut driver = BatchDriver::new();
    for (file, spec, pinned) in load_goldens() {
        // Modeled control first: the pinned fingerprint is reproducible at
        // all, independent of any scheduler change.
        let modeled = driver.run_cell(&spec);
        assert_eq!(
            modeled.fingerprint, pinned,
            "modeled replay of {file} diverged from its pinned fingerprint"
        );
        for &workers in grid {
            let record = driver.run_cell(&spec.on_workers(Some(workers)));
            assert_eq!(
                record.fingerprint,
                pinned,
                "threaded({workers}) diverged from the pinned \
                 fingerprint of {file} (grid tier: {})",
                if full_grid() { "full" } else { "pruned" }
            );
        }
    }
}

/// The bound-pruned allocation scan (the default since PR 7) under the
/// persistent-worker scheduler: at 1, 4 and 8 OS workers (8 oversubscribes
/// any CI runner) the pruned engine must reproduce, bit for bit, the
/// trajectory of the legacy exhaustive scan run on the modeled backend —
/// pruning is pure strength reduction, and the scheduler must not perturb it.
#[test]
fn pruned_allocation_replays_bitwise_at_stress_worker_counts() {
    use cluster_sim::timeline::ClusterConfig;
    use sime_core::engine::{SimEConfig, SimEEngine};
    use sime_parallel::exec::Threaded;
    use sime_parallel::prelude::*;
    use vlsi_netlist::bench_suite::SuiteCircuit;
    use vlsi_place::cost::Objectives;

    let circuit = SuiteCircuit::from_name("s1196").expect("suite circuit");
    let netlist = Arc::new(circuit.generate());
    let iterations = 3;
    let config =
        SimEConfig::paper_defaults(Objectives::WirelengthPower, circuit.num_rows(), iterations);
    assert!(
        config.allocation.bound_pruning,
        "bound pruning must be the default"
    );
    let pruned = SimEEngine::new(Arc::clone(&netlist), config);
    let mut legacy_cfg = config;
    legacy_cfg.allocation.bound_pruning = false;
    let legacy = SimEEngine::new(netlist, legacy_cfg);

    let ranks = 3;
    let cluster = ClusterConfig::paper_cluster(ranks);
    let cfg = Type2Config {
        ranks,
        iterations,
        pattern: RowPattern::Random,
    };
    let reference = run_type2(&legacy, cluster, cfg, &Modeled, &FreeRun);
    for workers in [1usize, 4, 8] {
        let outcome = run_type2(&pruned, cluster, cfg, &Threaded::new(workers), &FreeRun);
        assert_eq!(
            reference.mu_history.len(),
            outcome.mu_history.len(),
            "workers={workers}"
        );
        for (i, (a, b)) in reference
            .mu_history
            .iter()
            .zip(&outcome.mu_history)
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "pruned trajectory diverged at iteration {i}, workers={workers}"
            );
        }
        assert_eq!(
            reference.best_cost.mu.to_bits(),
            outcome.best_cost.mu.to_bits(),
            "workers={workers}"
        );
        assert_eq!(
            reference.best_cost.wirelength.to_bits(),
            outcome.best_cost.wirelength.to_bits(),
            "workers={workers}"
        );
        for row in 0..reference.best_placement.num_rows() {
            assert_eq!(
                reference.best_placement.row(row),
                outcome.best_placement.row(row),
                "best placement differs in row {row}, workers={workers}"
            );
        }
    }
}

/// The island portfolio under the stress grid: a mixed 4-island race (SimE +
/// GA + SA + TS, ring migration every second epoch) replayed across the
/// worker grid — including the oversubscribed 8-worker pool — must
/// reproduce the Modeled trajectory bitwise. (The blessed portfolio golden
/// additionally rides the `goldens_replay_bitwise_across_the_worker_stress_grid`
/// sweep above; this test keeps explicit coverage even if the
/// golden set changes.)
#[test]
fn portfolio_replays_bitwise_across_the_stress_grid() {
    use cluster_sim::timeline::ClusterConfig;
    use sime_core::engine::{SimEConfig, SimEEngine};
    use sime_parallel::exec::Threaded;
    use sime_parallel::prelude::*;
    use vlsi_netlist::bench_suite::SuiteCircuit;
    use vlsi_place::cost::Objectives;

    let circuit = SuiteCircuit::from_name("s1196").expect("suite circuit");
    let netlist = Arc::new(circuit.generate());
    let iterations = 4;
    let config =
        SimEConfig::paper_defaults(Objectives::WirelengthPower, circuit.num_rows(), iterations);
    let engine = SimEEngine::new(netlist, config);
    let ranks = 4;
    let cluster = ClusterConfig::paper_cluster(ranks);
    let cfg = PortfolioConfig {
        ranks,
        iterations,
        migration_interval: 2,
        target_mu: None,
        mix: PortfolioMix::Mixed,
    };

    let reference = run_portfolio(&engine, cluster, cfg, &Modeled, &FreeRun);
    assert_eq!(reference.iterations, iterations);
    for &workers in stress_grid() {
        let outcome = run_portfolio(&engine, cluster, cfg, &Threaded::new(workers), &FreeRun);
        for (i, (a, b)) in reference
            .mu_history
            .iter()
            .zip(&outcome.mu_history)
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "portfolio trajectory diverged at epoch {i}, threaded({workers})"
            );
        }
        assert_eq!(
            reference.best_cost.mu.to_bits(),
            outcome.best_cost.mu.to_bits(),
            "threaded({workers})"
        );
        for row in 0..reference.best_placement.num_rows() {
            assert_eq!(
                reference.best_placement.row(row),
                outcome.best_placement.row(row),
                "best placement differs in row {row}, threaded({workers})"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Random epoch schedules against the inline oracle.
// ---------------------------------------------------------------------------

/// One entry of a random epoch: a leaf job, or a nested batch submitted from
/// inside the worker thread running the entry (the help-while-waiting path).
#[derive(Debug, Clone)]
enum Entry {
    Leaf(u8),
    Nested(Vec<u8>),
}

/// Deterministic leaf payload: a cheap integer mix of the entry's position
/// and value, so any mis-merged or dropped result changes the output.
fn leaf(epoch: usize, index: usize, v: u8) -> u64 {
    let x = (epoch as u64) << 32 ^ (index as u64) << 16 ^ v as u64;
    x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17)
}

/// What the schedule must produce: evaluated inline, epoch by epoch, in
/// submission order — the Modeled oracle of the pool.
fn oracle(schedule: &[Vec<Entry>]) -> Vec<Vec<u64>> {
    schedule
        .iter()
        .enumerate()
        .map(|(e, epoch)| {
            epoch
                .iter()
                .enumerate()
                .map(|(i, entry)| match entry {
                    Entry::Leaf(v) => leaf(e, i, *v),
                    Entry::Nested(inner) => inner
                        .iter()
                        .enumerate()
                        .map(|(j, &v)| leaf(e, i ^ (j << 8), v))
                        .fold(0u64, u64::wrapping_add),
                })
                .collect()
        })
        .collect()
}

/// The same schedule on a real pool: one `run_tasks` epoch per outer batch,
/// nested batches submitted from inside the worker tasks.
fn pooled(schedule: &[Vec<Entry>], workers: usize) -> Vec<Vec<u64>> {
    let pool = Arc::new(WorkerPool::new(workers));
    schedule
        .iter()
        .enumerate()
        .map(|(e, epoch)| {
            let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = epoch
                .iter()
                .enumerate()
                .map(|(i, entry)| {
                    let entry = entry.clone();
                    let pool = Arc::clone(&pool);
                    Box::new(move || match entry {
                        Entry::Leaf(v) => leaf(e, i, v),
                        Entry::Nested(inner) => {
                            let nested: Vec<Box<dyn FnOnce() -> u64 + Send>> = inner
                                .iter()
                                .enumerate()
                                .map(|(j, &v)| {
                                    Box::new(move || leaf(e, i ^ (j << 8), v))
                                        as Box<dyn FnOnce() -> u64 + Send>
                                })
                                .collect();
                            pool.run_tasks(nested)
                                .into_iter()
                                .fold(0u64, u64::wrapping_add)
                        }
                    }) as Box<dyn FnOnce() -> u64 + Send>
                })
                .collect();
            pool.run_tasks(tasks)
        })
        .collect()
}

fn arb_entry() -> impl Strategy<Value = Entry> {
    // The vendored proptest shim has no `prop_oneof!`; pick the variant from
    // a generated selector instead.
    (
        0usize..4,
        any::<u8>(),
        proptest::collection::vec(any::<u8>(), 0..12),
    )
        .prop_map(|(kind, v, inner)| {
            if kind == 0 {
                Entry::Nested(inner)
            } else {
                Entry::Leaf(v)
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random epoch schedules — random epoch count, task counts (including
    /// empty epochs), nested batches, and pool sizes up to heavy
    /// oversubscription — merge exactly like the inline oracle.
    #[test]
    fn random_epoch_schedules_match_the_inline_oracle(
        schedule in proptest::collection::vec(
            proptest::collection::vec(arb_entry(), 0..24),
            1..6,
        ),
        workers in 1usize..9,
    ) {
        let expected = oracle(&schedule);
        let actual = pooled(&schedule, workers);
        prop_assert_eq!(expected, actual);
    }
}
