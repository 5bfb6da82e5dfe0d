//! Execution backends: *how* a strategy's per-rank work is executed.
//!
//! Every strategy in this crate is written as a bulk-synchronous driver: each
//! iteration **fans out** one task per simulated rank (the paper's broadcast
//! step), runs the tasks, and **merges** their results back in rank order
//! (the gather step), charging the [`cluster_sim::timeline::ClusterTimeline`]
//! for the cluster cost of the same schedule. The [`ExecBackend`] trait
//! chooses how the fan-out actually executes:
//!
//! * [`Modeled`] — tasks run inline on the calling thread, one after another,
//!   exactly as in the original reproduction. Wall-clock time is serial; the
//!   *modeled* cluster runtime comes from the timeline.
//! * [`Threaded`] — tasks run on a persistent [`WorkerPool`] of N OS threads
//!   (long-lived per-worker work lanes feeding a slot-indexed epoch buffer;
//!   results land in their submission-order slots, so no per-batch channel
//!   set-up remains on the per-iteration path). This is real shared-memory
//!   parallelism: with enough cores the wall-clock time drops with the
//!   worker count while the modeled runtime — and every other output — stays
//!   identical to [`Modeled`].
//!
//! # The determinism contract
//!
//! For a fixed `(seed, rank count)` the two backends produce **bitwise
//! identical** results, and the threaded backend produces bitwise identical
//! results for *any* worker count, because:
//!
//! 1. every rank draws from its own seed-derived ChaCha8 stream, owned by the
//!    task, never shared;
//! 2. tasks are pure functions of the state captured at fan-out (placement
//!    snapshot, rank RNG, rank scratch) — they do not observe one another;
//! 3. the merge consumes results in **submission (rank) order**, regardless
//!    of the order in which workers finish.
//!
//! Only *host wall-clock measurements* vary across backends and worker
//! counts. `DESIGN.md` §4 in the `bench` crate records the full contract,
//! including the per-strategy channel topology.
//!
//! Inside a rank, the SimE iteration runs serially: the paper parallelises
//! across ranks, and fanning one rank's goodness pass or trial scan out over
//! the pool measured slower than the serial loop at every setting tried
//! (`crates/bench/DESIGN.md`).
//!
//! ```
//! use sime_parallel::exec::{ExecBackend, Modeled, Threaded};
//!
//! let modeled: Box<dyn ExecBackend> = Box::new(Modeled);
//! let threaded: Box<dyn ExecBackend> = Box::new(Threaded::new(4));
//! assert_eq!(modeled.label(), "modeled");
//! assert_eq!(threaded.label(), "threaded(4)");
//! ```

use cluster_sim::comm::WorkerPool;
use std::sync::Arc;

/// One unit of per-rank work produced by a strategy driver at fan-out time.
///
/// Tasks are `'static` by design: they capture an `Arc<SimEEngine>` plus the
/// rank's owned state (placement snapshot, RNG, scratch) so the same closure
/// can run inline or be shipped to a pool thread.
pub type Task<T> = Box<dyn FnOnce() -> T + Send + 'static>;

/// The runtime a backend hands to a strategy driver for one run.
///
/// Strategy drivers call [`Executor::run_tasks`] once per fan-out; the
/// executor guarantees results come back in submission order (the
/// deterministic merge — see the [module docs](self)).
#[derive(Debug)]
pub enum Executor {
    /// Run every task inline on the calling thread, in submission order.
    Inline,
    /// Run tasks on a pool of OS worker threads; merge in submission order.
    /// The pool is behind an `Arc` so a [`SharedPool`] can hand the same
    /// pool to many runs.
    Pool(Arc<WorkerPool>),
}

impl Executor {
    /// Executes `tasks` and returns their results in submission order.
    pub fn run_tasks<T: Send + 'static>(&self, tasks: Vec<Task<T>>) -> Vec<T> {
        match self {
            Executor::Inline => tasks.into_iter().map(|task| task()).collect(),
            Executor::Pool(pool) => pool.run_tasks(tasks),
        }
    }
}

/// Chooses how a strategy run executes its per-rank work.
///
/// Implementations must uphold the determinism contract in the
/// [module docs](self): backends may only change *where and when* tasks run,
/// never what they compute or the order their results are merged in.
pub trait ExecBackend {
    /// Human-readable backend label (`"modeled"`, `"threaded(4)"`), used by
    /// reports and benchmark output.
    fn label(&self) -> String;

    /// Builds the executor that will carry one strategy run. A `Threaded`
    /// backend spawns its worker pool here; the pool lives for the whole run
    /// and is joined when the run's executor is dropped.
    fn executor(&self) -> Executor;
}

/// The virtual-time backend: per-rank work runs inline and sequentially; the
/// cluster timeline is the only notion of parallel time. This reproduces the
/// original (pre-backend) behaviour of every strategy bit for bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Modeled;

impl ExecBackend for Modeled {
    fn label(&self) -> String {
        "modeled".into()
    }

    fn executor(&self) -> Executor {
        Executor::Inline
    }
}

/// The shared-memory backend: per-rank work runs on `workers` OS threads.
///
/// Results are bitwise identical to [`Modeled`] for every worker count; only
/// host wall-clock changes. The worker count is therefore a pure throughput
/// knob — it does *not* have to match the simulated rank count (four ranks
/// can execute on one worker, or one rank per worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threaded {
    workers: usize,
}

impl Threaded {
    /// A threaded backend with `workers` OS threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(
            workers >= 1,
            "the threaded backend needs at least one worker"
        );
        Threaded { workers }
    }

    /// The number of OS worker threads this backend spawns per run.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl ExecBackend for Threaded {
    fn label(&self) -> String {
        format!("threaded({})", self.workers)
    }

    fn executor(&self) -> Executor {
        Executor::Pool(Arc::new(WorkerPool::new(self.workers)))
    }
}

/// A threaded backend over a pool the caller already owns: every run built
/// from this backend submits its fan-outs to the **same** long-lived
/// [`WorkerPool`] instead of spawning a private one.
///
/// This is the execution substrate of the `sime-server` job engine: one pool
/// serves many concurrent placement jobs. Each job's external submitter
/// blocks passively on its own merges while workers interleave tasks from
/// every active job. The determinism contract is
/// unaffected — tasks are pure and merges are submission-ordered, so a job's
/// results are bitwise identical whether its pool is private or shared, busy
/// or idle.
#[derive(Clone)]
pub struct SharedPool {
    pool: Arc<WorkerPool>,
}

impl SharedPool {
    /// A backend whose runs all execute on `pool`.
    pub fn new(pool: Arc<WorkerPool>) -> Self {
        SharedPool { pool }
    }

    /// A handle to the underlying shared pool.
    pub fn pool(&self) -> Arc<WorkerPool> {
        Arc::clone(&self.pool)
    }
}

impl ExecBackend for SharedPool {
    fn label(&self) -> String {
        format!("shared({})", self.pool.workers())
    }

    fn executor(&self) -> Executor {
        Executor::Pool(Arc::clone(&self.pool))
    }
}

/// Parses a backend by name, as accepted by the CLI surfaces
/// (`--backend modeled` / `--backend threaded --workers N`).
///
/// Returns `None` for an unknown name. `workers` is only consulted for the
/// threaded backend.
pub fn backend_from_name(name: &str, workers: usize) -> Option<Box<dyn ExecBackend>> {
    match name {
        "modeled" => Some(Box::new(Modeled)),
        "threaded" => Some(Box::new(Threaded::new(workers.max(1)))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(executor: &Executor, n: usize) -> Vec<usize> {
        let tasks: Vec<Task<usize>> = (0..n)
            .map(|i| Box::new(move || i * i) as Task<usize>)
            .collect();
        executor.run_tasks(tasks)
    }

    #[test]
    fn inline_and_pool_executors_agree() {
        let expected: Vec<usize> = (0..24).map(|i| i * i).collect();
        assert_eq!(squares(&Modeled.executor(), 24), expected);
        for workers in [1, 2, 4] {
            assert_eq!(squares(&Threaded::new(workers).executor(), 24), expected);
        }
    }

    #[test]
    fn labels_identify_the_backend() {
        assert_eq!(Modeled.label(), "modeled");
        assert_eq!(Threaded::new(3).label(), "threaded(3)");
        assert!(matches!(Modeled.executor(), Executor::Inline));
        assert!(matches!(Threaded::new(2).executor(), Executor::Pool(_)));
    }

    #[test]
    fn backend_parsing_covers_the_cli_surface() {
        assert_eq!(backend_from_name("modeled", 8).unwrap().label(), "modeled");
        assert_eq!(
            backend_from_name("threaded", 8).unwrap().label(),
            "threaded(8)"
        );
        // workers is clamped to at least one for the CLI path
        assert_eq!(
            backend_from_name("threaded", 0).unwrap().label(),
            "threaded(1)"
        );
        assert!(backend_from_name("mpi", 4).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn threaded_rejects_zero_workers() {
        let _ = Threaded::new(0);
    }

    #[test]
    fn shared_pool_backend_reuses_one_pool_across_runs() {
        let pool = Arc::new(WorkerPool::new(2));
        let backend = SharedPool::new(Arc::clone(&pool));
        assert_eq!(backend.label(), "shared(2)");
        let expected: Vec<usize> = (0..24).map(|i| i * i).collect();
        // Two executors from the same backend share the same pool instance.
        let a = backend.executor();
        let b = backend.executor();
        assert_eq!(squares(&a, 24), expected);
        assert_eq!(squares(&b, 24), expected);
        match (&a, &b) {
            (Executor::Pool(a), Executor::Pool(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("a shared-pool backend must hand out its pool"),
        }
        assert_eq!(pool.queued_jobs(), 0);
    }
}
