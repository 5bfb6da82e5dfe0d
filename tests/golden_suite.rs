//! The golden-trajectory regression gate.
//!
//! `tests/golden/` holds checked-in trajectory fingerprints (final cost
//! bits, µ(s) bits at fixed iterations, placement/trajectory hashes) for a
//! pinned subset of the scenario matrix — see
//! `sime_parallel::batch::golden_subset`. This test replays every golden
//! file and asserts **bitwise** equality, turning the PR 2/3 determinism
//! contract into a permanent, file-backed gate: any change to the search
//! trajectory of any layer (netlist generation, cost kernels, engine
//! operators, strategy drivers, execution backends) fails here before it
//! can silently shift the reproduction's numbers.
//!
//! Intentional trajectory changes are re-blessed with:
//!
//! ```text
//! cargo run --release -p bench --bin scenario_matrix -- --bless tests/golden --golden-subset
//! ```
//!
//! and the re-bless must be called out in the PR description.

use sime_parallel::batch::{golden_subset, BatchDriver, ScenarioSpec, TrajectoryFingerprint};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Worker counts the threaded replay sweeps. CI's golden-suite matrix sets
/// `SIME_GOLDEN_WORKERS` to pin one count per matrix leg; locally the full
/// 1/2/4 sweep runs in one process.
fn replay_worker_counts() -> Vec<usize> {
    match std::env::var("SIME_GOLDEN_WORKERS") {
        Ok(v) => {
            let workers: usize = v.trim().parse().unwrap_or_else(|_| {
                panic!("SIME_GOLDEN_WORKERS must be an integer >= 1, got `{v}`")
            });
            assert!(
                workers >= 1,
                "SIME_GOLDEN_WORKERS must be >= 1, got {workers}"
            );
            vec![workers]
        }
        Err(_) => vec![1, 2, 4],
    }
}

/// Loads every golden file (spec + pinned fingerprint), sorted by filename
/// for deterministic replay order.
fn load_goldens() -> Vec<(String, ScenarioSpec, TrajectoryFingerprint)> {
    let dir = golden_dir();
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
fn golden_registry_is_complete_and_in_sync_with_the_pinned_subset() {
    // Every pinned scenario has a golden file and every golden file is a
    // pinned scenario — the registry cannot drift from the replay set.
    let goldens = load_goldens();
    let mut golden_ids: Vec<String> = goldens.iter().map(|(_, s, _)| s.id()).collect();
    let mut pinned_ids: Vec<String> = golden_subset().iter().map(ScenarioSpec::id).collect();
    golden_ids.sort();
    pinned_ids.sort();
    assert_eq!(
        golden_ids, pinned_ids,
        "tests/golden/ and sime_parallel::batch::golden_subset() disagree; \
         re-bless with `scenario_matrix --bless tests/golden --golden-subset`"
    );
    for (file, spec, _) in &goldens {
        assert_eq!(
            file,
            &format!("{}.golden", spec.id()),
            "golden filename must be the scenario id"
        );
    }
}

#[test]
fn golden_trajectories_replay_bitwise_on_the_modeled_backend() {
    let mut driver = BatchDriver::new();
    for (file, spec, pinned) in load_goldens() {
        let record = driver.run_cell(&spec);
        assert_eq!(
            record.fingerprint, pinned,
            "trajectory drift detected replaying {file}; if the change is \
             intentional, re-bless with `scenario_matrix --bless tests/golden \
             --golden-subset` and say so in the PR"
        );
    }
}

#[test]
fn golden_trajectories_replay_bitwise_on_the_threaded_backend() {
    // The determinism contract as a regression gate: every pinned
    // fingerprint must come out of the threaded backend at every worker
    // count, too. Engines are shared across worker counts through the
    // driver, so this stays a seconds-scale gate; the scenario_matrix
    // binary additionally sweeps the full grid in CI, and CI's worker-count
    // matrix pins each leg via SIME_GOLDEN_WORKERS.
    let mut driver = BatchDriver::new();
    for (file, spec, pinned) in load_goldens() {
        for &workers in &replay_worker_counts() {
            let record = driver.run_cell(&spec.on_workers(Some(workers)));
            assert_eq!(
                record.fingerprint, pinned,
                "threaded({workers}) diverged from the pinned fingerprint of {file}"
            );
        }
    }
}

#[test]
fn extended_tier_goldens_replay_bitwise_with_intra_rank_parallelism() {
    // The intra-rank fan-out is gone; what is left of it is the ignored
    // `ScenarioSpec::eval_chunks` field, which the `placebench` benchmark
    // still sets. Replaying the pinned extended-tier scenarios (currently
    // s9234 and s5378) on threaded(2) with that field at 1, 2 and 4 must
    // reproduce the pinned serial fingerprints to the bit.
    let extended: Vec<_> = load_goldens()
        .into_iter()
        .filter(|(_, spec, _)| {
            vlsi_netlist::bench_suite::SuiteCircuit::from_name(&spec.circuit)
                .is_some_and(|c| c.is_extended())
        })
        .collect();
    assert!(
        !extended.is_empty(),
        "the golden subset must pin at least one extended-tier scenario"
    );
    let mut driver = BatchDriver::new();
    for (file, spec, pinned) in extended {
        for chunks in [1usize, 2, 4] {
            let record = driver.run_cell(&ScenarioSpec {
                eval_chunks: chunks,
                ..spec.on_workers(Some(2))
            });
            assert_eq!(
                record.fingerprint, pinned,
                "threaded(2) with eval_chunks = {chunks} diverged from the \
                 pinned fingerprint of {file}"
            );
        }
    }
}
