//! Property: the `JobRunner` on a shared pool is schedule-invariant.
//!
//! Random job schedules — arrival order × strategy mix × seeds × worker
//! counts × cancellation points — run concurrently on one `JobRunner` +
//! `SharedPool`, then replay one-at-a-time on a fresh runner with the
//! `Modeled` backend (the serial oracle). Every job's fingerprint must match
//! the oracle's **bitwise**, including cancelled jobs: a `CancelAfter(k)`
//! run truncates at the same iteration boundary on both sides, so even
//! truncated trajectories compare exactly.

use cluster_sim::comm::WorkerPool;
use proptest::prelude::*;
use sime_parallel::batch::{ScenarioSpec, StrategyKind};
use sime_parallel::control::{CancelAfter, FreeRun, RunControl};
use sime_parallel::exec::{Modeled, SharedPool};
use sime_parallel::jobs::{JobRunner, JobSpec};
use sime_parallel::type2::RowPattern;
use std::sync::Arc;
use vlsi_place::cost::Objectives;

#[derive(Debug, Clone)]
struct ScheduledJob {
    spec: JobSpec,
    cancel_after: Option<usize>,
}

fn strategy_from(choice: u8) -> StrategyKind {
    match choice % 4 {
        0 => StrategyKind::Type1,
        1 => StrategyKind::Type2(RowPattern::Fixed),
        2 => StrategyKind::Type2(RowPattern::Random),
        _ => StrategyKind::Type3,
    }
}

fn arb_job() -> impl Strategy<Value = ScheduledJob> {
    (
        0u8..4,
        2usize..5,  // iterations
        0u8..3,     // seed mode: default / two fixed overrides
        0usize..10, // cancellation point selector
    )
        .prop_map(|(strategy, iterations, seed_mode, cancel_sel)| {
            let seed = match seed_mode {
                0 => None,
                1 => Some(0xBEEF),
                _ => Some(0xFEED_5EED),
            };
            // ~half the jobs get cancelled somewhere strictly inside the run.
            let cancel_after = if cancel_sel < 5 && iterations > 1 {
                Some(cancel_sel % (iterations - 1))
            } else {
                None
            };
            ScheduledJob {
                spec: JobSpec {
                    scenario: ScenarioSpec {
                        circuit: "s1196".into(),
                        strategy: strategy_from(strategy),
                        ranks: 3,
                        iterations,
                        objectives: Objectives::WirelengthPower,
                        workers: None,
                        eval_chunks: 1,
                        warm_start: None,
                    },
                    seed,
                },
                cancel_after,
            }
        })
}

fn control_for(job: &ScheduledJob) -> Box<dyn RunControl> {
    match job.cancel_after {
        Some(k) => Box::new(CancelAfter(k)),
        None => Box::new(FreeRun),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_schedules_match_the_serial_oracle_bitwise(
        jobs in proptest::collection::vec(arb_job(), 2..6),
        workers in 1usize..4,
    ) {
        // Concurrent run: all jobs in flight at once on one shared pool.
        let runner = JobRunner::new();
        let pool = Arc::new(WorkerPool::new(workers));
        let concurrent: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .iter()
                .map(|job| {
                    let runner = &runner;
                    let pool = Arc::clone(&pool);
                    scope.spawn(move || {
                        let backend = SharedPool::new(pool);
                        let control = control_for(job);
                        runner
                            .run_job(&job.spec, &backend, control.as_ref())
                            .expect("schedule jobs are valid")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        prop_assert_eq!(pool.queued_jobs(), 0, "a lane leaked work");

        // Serial oracle: a fresh runner, jobs one at a time, inline backend.
        let oracle = JobRunner::new();
        for (job, got) in jobs.iter().zip(&concurrent) {
            let control = control_for(job);
            let want = oracle
                .run_job(&job.spec, &Modeled, control.as_ref())
                .expect("oracle accepts the same job");
            prop_assert_eq!(
                &got.fingerprint,
                &want.fingerprint,
                "job {:?} diverged from the serial oracle",
                job
            );
            let expected_iterations = match job.cancel_after {
                Some(k) => (k + 1).min(job.spec.scenario.iterations),
                None => job.spec.scenario.iterations,
            };
            prop_assert_eq!(got.outcome.iterations, expected_iterations);
            prop_assert_eq!(want.outcome.iterations, expected_iterations);
        }

        // The engine cache deduplicated calibration across the whole
        // schedule: one calibration per circuit content, and seed variants
        // run on uncached copies of the one engine.
        let stats = runner.stats();
        prop_assert_eq!(stats.engines_calibrated, 1);
        prop_assert_eq!(stats.engines, 1);
    }
}
