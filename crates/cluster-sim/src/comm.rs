//! Thread-backed message-passing layer with an MPI-like rank API.
//!
//! [`Cluster::run`] spawns one thread per rank and hands each a
//! [`RankHandle`] through which it can exchange point-to-point messages
//! (with tag/source matching), participate in linear broadcasts and gathers,
//! and synchronise on barriers. Payloads are raw byte vectors; callers
//! serialise whatever they need (the SimE strategies exchange goodness
//! vectors and placement row assignments).
//!
//! This layer provides real concurrency and real message-passing semantics;
//! it deliberately mirrors the subset of MPI that the paper's programs use
//! (`MPI_Send`/`MPI_Recv`/`MPI_Bcast`/`MPI_Gather`/`MPI_Barrier`). The
//! modeled *runtimes* of the reproduction come from
//! [`ClusterTimeline`](crate::timeline::ClusterTimeline) instead, because
//! wall-clock measurements of threads on one shared-memory machine cannot
//! reproduce a fast-Ethernet cluster's communication behaviour.

use crossbeam::channel::{unbounded, Receiver, Sender};
use crossbeam::lane::{PopError, WorkLane};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

/// A point-to-point message: source rank, tag, payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Rank that sent the message.
    pub from: usize,
    /// Application-defined tag used for matching.
    pub tag: u64,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Handle held by one rank while [`Cluster::run`] executes.
pub struct RankHandle {
    rank: usize,
    ranks: usize,
    senders: Vec<Sender<Message>>,
    receiver: Receiver<Message>,
    barrier: Arc<Barrier>,
    /// Messages received but not yet matched by a `recv_matching` call.
    pending: Vec<Message>,
}

impl RankHandle {
    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Sends `payload` with `tag` to rank `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range or if the destination rank has already
    /// finished and dropped its receiver.
    pub fn send(&self, to: usize, tag: u64, payload: Vec<u8>) {
        self.senders[to]
            .send(Message {
                from: self.rank,
                tag,
                payload,
            })
            .expect("destination rank has exited");
    }

    /// Receives the next message from any source with any tag.
    pub fn recv_any(&mut self) -> Message {
        if !self.pending.is_empty() {
            return self.pending.remove(0);
        }
        self.receiver.recv().expect("all senders dropped")
    }

    /// Receives the next message matching the given source and/or tag,
    /// buffering any other messages that arrive in the meantime.
    pub fn recv_matching(&mut self, from: Option<usize>, tag: Option<u64>) -> Message {
        let matches =
            |m: &Message| from.is_none_or(|f| m.from == f) && tag.is_none_or(|t| m.tag == t);
        if let Some(pos) = self.pending.iter().position(matches) {
            return self.pending.remove(pos);
        }
        loop {
            let m = self.receiver.recv().expect("all senders dropped");
            if matches(&m) {
                return m;
            }
            self.pending.push(m);
        }
    }

    /// Non-blocking receive of a matching message, if one is already queued.
    pub fn try_recv_matching(&mut self, from: Option<usize>, tag: Option<u64>) -> Option<Message> {
        let matches =
            |m: &Message| from.is_none_or(|f| m.from == f) && tag.is_none_or(|t| m.tag == t);
        if let Some(pos) = self.pending.iter().position(matches) {
            return Some(self.pending.remove(pos));
        }
        while let Ok(m) = self.receiver.try_recv() {
            if matches(&m) {
                return Some(m);
            }
            self.pending.push(m);
        }
        None
    }

    /// Linear broadcast: the root sends `data` to every other rank; every
    /// rank (including the root) returns the broadcast payload.
    pub fn broadcast_from(&mut self, root: usize, data: Vec<u8>, tag: u64) -> Vec<u8> {
        if self.rank == root {
            for to in 0..self.ranks {
                if to != root {
                    self.send(to, tag, data.clone());
                }
            }
            data
        } else {
            self.recv_matching(Some(root), Some(tag)).payload
        }
    }

    /// Linear gather: every rank sends `data` to the root; the root returns
    /// the payloads in rank order (its own contribution included), other
    /// ranks return `None`.
    pub fn gather_to(&mut self, root: usize, data: Vec<u8>, tag: u64) -> Option<Vec<Vec<u8>>> {
        if self.rank == root {
            let mut out: Vec<Vec<u8>> = vec![Vec::new(); self.ranks];
            out[root] = data;
            for _ in 0..self.ranks - 1 {
                let m = self.recv_matching(None, Some(tag));
                out[m.from] = m.payload;
            }
            Some(out)
        } else {
            self.send(root, tag, data);
            None
        }
    }

    /// Blocks until every rank has reached the barrier.
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

/// An opaque unit of work executed by a [`WorkerPool`] thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

std::thread_local! {
    /// Identity of the current thread when it is a [`WorkerPool`] worker:
    /// `(pool address, lane index)`. Gates the help-while-waiting path: a
    /// *worker* of the submitting pool blocked on a nested batch must keep
    /// executing queued jobs (or the pool could deadlock with every worker
    /// waiting), while an *external* caller — including a worker of some
    /// other pool — blocks passively, so the worker count stays an honest
    /// throughput knob and no spare core busy-polls.
    static WORKER_IDENTITY: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

/// How long a helping worker parks on the epoch condvar between sweeps of
/// the lanes. Epoch completion wakes the helper immediately; the timeout
/// only bounds the latency of spotting fresh lane work that arrived while
/// it slept.
const HELP_PARK: Duration = Duration::from_micros(100);

/// Slot-indexed result buffer for one `run_scoped_tasks` batch.
///
/// Each task owns exactly one slot: it writes its (caught) result there and
/// decrements `remaining`; the final decrement flips `done` under the mutex
/// and wakes every waiter. The caller reads the slots back **in index
/// order**, which re-establishes submission order at the merge without any
/// per-batch channel and independent of result arrival order.
struct Epoch<T> {
    slots: Vec<std::cell::UnsafeCell<Option<std::thread::Result<T>>>>,
    /// Count of slots not yet resolved. The `AcqRel` decrement chains every
    /// slot write into one release sequence, so a reader that observes zero
    /// with acquire ordering sees all the writes.
    remaining: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: each `UnsafeCell` slot is written by exactly one task (the unique
// holder of its index) before that task's `remaining` decrement, and read
// only by the single merging thread after it observed `remaining == 0` with
// acquire ordering — the writes are disjoint and happen-before the reads.
unsafe impl<T: Send> Sync for Epoch<T> {}

impl<T> Epoch<T> {
    fn new(tasks: usize) -> Self {
        Epoch {
            slots: (0..tasks)
                .map(|_| std::cell::UnsafeCell::new(None))
                .collect(),
            remaining: AtomicUsize::new(tasks),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }

    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// Records task `index`'s result and wakes the waiters if it was last.
    fn complete(&self, index: usize, result: std::thread::Result<T>) {
        // SAFETY: this task is the unique writer of slot `index`, and no
        // reader touches the slot before `remaining` reaches zero.
        unsafe { *self.slots[index].get() = Some(result) };
        self.resolve(1);
    }

    /// Marks `count` slots that will never run (their submission failed) as
    /// resolved, so the merge loop still terminates and can drain the tasks
    /// that *are* in flight before panicking.
    fn forfeit(&self, count: usize) {
        if count > 0 {
            self.resolve(count);
        }
    }

    fn resolve(&self, count: usize) {
        if self.remaining.fetch_sub(count, Ordering::AcqRel) == count {
            *self.done.lock().unwrap() = true;
            self.done_cv.notify_all();
        }
    }

    /// Blocks passively until the batch completes (external callers).
    fn wait(&self) {
        let mut done = self.done.lock().unwrap();
        while !*done {
            done = self.done_cv.wait(done).unwrap();
        }
    }

    /// Parks for at most `timeout` or until the batch completes — the pause
    /// between lane sweeps of a helping worker.
    fn wait_timeout(&self, timeout: Duration) {
        let done = self.done.lock().unwrap();
        if !*done {
            let _ = self.done_cv.wait_timeout(done, timeout).unwrap();
        }
    }

    /// Takes task `index`'s result out of the buffer after completion;
    /// `None` for a forfeited slot.
    fn take(&self, index: usize) -> Option<std::thread::Result<T>> {
        debug_assert!(self.is_done());
        // SAFETY: `remaining == 0` was observed with acquire ordering, so
        // every writer has finished and the merging thread is the only
        // accessor left.
        unsafe { (*self.slots[index].get()).take() }
    }
}

/// State shared between the pool handle and its workers: one persistent
/// [`WorkLane`] per worker plus the dispatch bookkeeping.
struct PoolShared {
    lanes: Vec<WorkLane<Job>>,
    /// Bit `w` set ⇔ worker `w` is parked (or about to park) on its empty
    /// lane. Dispatch claims an idle worker first so a sleeping thread is
    /// woken ahead of piling work onto a busy one. Workers beyond index 63
    /// never advertise; they still receive round-robin work and steal from
    /// their siblings.
    idle: AtomicU64,
    /// Round-robin cursor for top-level dispatch when no worker is idle.
    cursor: AtomicUsize,
}

impl PoolShared {
    /// Stable identity of this pool for the thread-local worker tag (the
    /// `Arc` keeps the allocation pinned for the pool's lifetime).
    fn address(&self) -> usize {
        self as *const PoolShared as usize
    }

    fn idle_bit(worker: usize) -> Option<u64> {
        (worker < u64::BITS as usize).then(|| 1u64 << worker)
    }

    /// Claims one advertising idle worker, clearing its bit.
    fn claim_idle(&self) -> Option<usize> {
        loop {
            let mask = self.idle.load(Ordering::Relaxed);
            if mask == 0 {
                return None;
            }
            let worker = mask.trailing_zeros() as usize;
            if self
                .idle
                .compare_exchange_weak(
                    mask,
                    mask & !(1 << worker),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                return Some(worker);
            }
        }
    }

    /// Routes one job to a lane. A parked worker is woken first; failing
    /// that, a *nested* submission (from worker `me`) jumps to the front of
    /// the submitter's own lane — its helping merge loop drains that lane
    /// next, so a barrier never waits behind long queued top-level jobs —
    /// and a top-level submission round-robins across the lanes.
    fn dispatch(&self, job: Job, me: Option<usize>) -> Result<(), Job> {
        if let Some(worker) = self.claim_idle() {
            return self.lanes[worker].push_front(job);
        }
        match me {
            Some(worker) => self.lanes[worker].push_front(job),
            None => {
                let worker = self.cursor.fetch_add(1, Ordering::Relaxed) % self.lanes.len();
                self.lanes[worker].push_back(job)
            }
        }
    }

    /// Takes one queued job from any lane, scanning from `start` for
    /// fairness. Lanes pop front-first, so stolen work inherits the nested
    /// jobs' priority.
    fn steal(&self, start: usize) -> Option<Job> {
        let lanes = self.lanes.len();
        for offset in 0..lanes {
            if let Ok(job) = self.lanes[(start + offset) % lanes].try_pop() {
                return Some(job);
            }
        }
        None
    }
}

/// Body of one worker thread: drain the own lane, steal from siblings, and
/// otherwise advertise idleness and park on the lane until a push (or
/// shutdown) wakes it.
fn worker_loop(shared: Arc<PoolShared>, me: usize) {
    WORKER_IDENTITY.with(|id| id.set(Some((shared.address(), me))));
    let bit = PoolShared::idle_bit(me);
    loop {
        match shared.lanes[me].try_pop() {
            Ok(job) => {
                job();
                continue;
            }
            Err(PopError::Closed) => return,
            Err(PopError::Empty) => {}
        }
        if let Some(job) = shared.steal(me + 1) {
            job();
            continue;
        }
        // Nothing anywhere: advertise, then park. The bit is set *before*
        // the blocking pop takes the lane lock, so a dispatcher that claims
        // it afterwards pushes into a lane this worker is provably about to
        // watch — no lost wakeup.
        if let Some(bit) = bit {
            shared.idle.fetch_or(bit, Ordering::SeqCst);
        }
        let popped = shared.lanes[me].pop();
        if let Some(bit) = bit {
            // The dispatcher that woke us normally cleared the bit when it
            // claimed us; clear defensively for close and spurious wakeups.
            shared.idle.fetch_and(!bit, Ordering::SeqCst);
        }
        match popped {
            Ok(job) => job(),
            Err(_) => return,
        }
    }
}

/// A persistent pool of OS worker threads, each owning a long-lived
/// [`WorkLane`] — the execution substrate of the `Threaded` backend in
/// `sime-parallel`.
///
/// Dispatch wakes a parked worker when one advertises idle and round-robins
/// across the per-worker lanes otherwise; workers steal from their
/// siblings' lanes before parking, so imbalanced batches still spread.
/// Every batch of [`WorkerPool::run_tasks`] / [`WorkerPool::run_scoped_tasks`]
/// resolves into a slot-indexed epoch buffer: each task writes its own slot
/// and the caller reads the slots back **in submission (index) order**, so
/// the merged output is independent of the number of workers and of OS
/// scheduling. That merge discipline is what lets the threaded SimE backend
/// stay bitwise deterministic — see `DESIGN.md` §4 ("Execution backends &
/// the determinism contract").
///
/// One pool serves both top-level jobs (one task per simulated rank) and
/// sub-jobs that a running task submits to the same pool: a pool **worker**
/// blocked in [`WorkerPool::run_tasks`] or
/// [`WorkerPool::run_scoped_tasks`] **helps** by draining its own lane and
/// stealing from its siblings while it waits, so a rank task running *on* a
/// pool worker can submit sub-jobs to the same pool without risking deadlock
/// even at one worker. Nested sub-jobs go to the *front* of a lane so a
/// helping worker never picks up a long queued top-level job ahead of the
/// short sub-job its barrier is waiting on. External (non-worker) callers
/// block passively on the epoch — the worker count stays an honest
/// throughput knob for the scaling benchmarks.
///
/// ```
/// use cluster_sim::comm::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0usize..8)
///     .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
///     .collect();
/// // Results come back in submission order regardless of which worker ran
/// // which task.
/// assert_eq!(pool.run_tasks(tasks), vec![0, 1, 4, 9, 16, 25, 36, 49]);
///
/// // Scoped tasks may borrow from the caller's stack: the call blocks until
/// // every task has finished, so the borrows cannot dangle.
/// let data = vec![1u64, 2, 3, 4];
/// let sums: Vec<u64> = pool.run_scoped_tasks(
///     data.chunks(2)
///         .map(|c| Box::new(move || c.iter().sum()) as Box<dyn FnOnce() -> u64 + Send + '_>)
///         .collect(),
/// );
/// assert_eq!(sums, vec![3, 7]);
/// ```
pub struct WorkerPool {
    shared: Option<Arc<PoolShared>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `workers` OS threads, each parked on its own
    /// persistent work lane.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "a worker pool needs at least one worker");
        let shared = Arc::new(PoolShared {
            lanes: (0..workers).map(|_| WorkLane::new()).collect(),
            idle: AtomicU64::new(0),
            cursor: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared, worker))
            })
            .collect();
        WorkerPool {
            shared: Some(shared),
            handles,
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Number of jobs currently queued across the per-worker lanes, i.e.
    /// submitted but not yet popped by any worker or helper. Quiesced pools
    /// report 0; a non-zero value after every batch has merged means a job
    /// was leaked. This is a monitoring snapshot (lanes drain concurrently),
    /// not a synchronisation primitive — but a pool with no in-flight
    /// batches cannot spontaneously grow it, so `assert_eq!(queued_jobs(),
    /// 0)` after a join point is a sound leak check.
    pub fn queued_jobs(&self) -> usize {
        self.shared
            .as_ref()
            .map(|shared| shared.lanes.iter().map(|lane| lane.len()).sum())
            .unwrap_or(0)
    }

    /// Executes `tasks` on the pool and returns their results **in
    /// submission (index) order** — the deterministic merge barrier.
    ///
    /// The calling thread blocks until every task has completed. An external
    /// caller blocks passively (the pool's `workers` count stays an honest
    /// throughput knob); a pool *worker* calling in — a task fanning
    /// sub-tasks out on its own pool — instead *helps* by executing queued
    /// jobs while it waits, which is what makes the nesting deadlock-free
    /// (see the [type docs](WorkerPool)). Tasks may finish in any order on
    /// any worker; the index carried alongside each result re-establishes
    /// the submission order at the merge.
    ///
    /// # Panics
    ///
    /// A panic inside a task is caught on the worker (which stays alive for
    /// later batches) and re-raised on the calling thread once **every** task
    /// of the batch has finished — at any worker count, with no hang. When
    /// several tasks panic, the lowest-indexed panic is re-raised, so the
    /// propagated payload is deterministic regardless of arrival order.
    pub fn run_tasks<T: Send + 'static>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<T> {
        self.run_scoped_tasks(tasks)
    }

    /// [`WorkerPool::run_tasks`] for tasks that borrow from the caller's
    /// stack (lifetime `'env`): tasks may borrow shared state and per-task
    /// output buffers instead of cloning them behind `Arc`s.
    ///
    /// # Safety argument
    ///
    /// The task closures are lifetime-erased to `'static` so they can travel
    /// through the pool's work lanes, which is sound because this method
    /// does not return — not even by unwinding — until every submitted task
    /// has run to completion and resolved its epoch slot (panics included:
    /// they are caught in the job wrapper, collected at the merge, and
    /// re-raised only after the whole batch has been drained). No borrow can
    /// therefore outlive the frame it was taken from.
    pub fn run_scoped_tasks<'env, T: Send + 'env>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Vec<T> {
        let shared = self.shared.as_ref().expect("worker pool already shut down");
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        // A batch submitted *from a worker thread of this pool* is a nested
        // fan-out and helps while it waits; anything else (external threads,
        // workers of other pools) merges passively.
        let me = WORKER_IDENTITY
            .with(|id| id.get())
            .and_then(|(pool, worker)| (pool == shared.address()).then_some(worker));
        let epoch = Arc::new(Epoch::<T>::new(n));
        let mut submit_failed = false;
        for (index, task) in tasks.into_iter().enumerate() {
            let task_epoch = Arc::clone(&epoch);
            let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                // AssertUnwindSafe: on Err the caller re-raises the panic and
                // never observes the task's captured state again.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
                task_epoch.complete(index, result);
            });
            // SAFETY: lifetime erasure only — the layout of a boxed trait
            // object is lifetime-independent, and the merge loop below
            // guarantees the job has finished before any `'env` borrow can
            // expire (see the safety argument in the doc comment).
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
            if shared.dispatch(job, me).is_err() {
                // The lanes are closed — workers are gone. Forfeit this slot
                // and the unsubmitted tail so the merge below still
                // terminates, drain what *is* in flight so no borrow
                // dangles, then panic.
                epoch.forfeit(n - index);
                submit_failed = true;
                break;
            }
        }

        match me {
            Some(worker) => {
                // Help while waiting: this thread occupies a worker slot, so
                // it must keep executing queued jobs (its own front-queued
                // sub-jobs first, by construction) or the pool could starve
                // with every worker blocked on a nested merge.
                while !epoch.is_done() {
                    if let Ok(job) = shared.lanes[worker].try_pop() {
                        job();
                    } else if let Some(job) = shared.steal(worker + 1) {
                        job();
                    } else {
                        epoch.wait_timeout(HELP_PARK);
                    }
                }
            }
            // External caller: block passively on the epoch. The pool's
            // workers do all the work, so `workers` remains an honest
            // throughput knob for the scaling benchmarks and no cycles are
            // burnt polling.
            None => epoch.wait(),
        }

        // Merge in slot (submission) order; re-raise the lowest-indexed
        // panic only now, after the whole batch has drained.
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
        let mut out = Vec::with_capacity(n);
        for index in 0..n {
            match epoch.take(index) {
                Some(Ok(value)) => out.push(value),
                Some(Err(payload)) if first_panic.is_none() => {
                    first_panic = Some(payload);
                }
                // Later panics are dropped — the lowest slot wins.
                Some(Err(_)) => {}
                // Forfeited slot — `submit_failed` reports it below.
                None => {}
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        if submit_failed {
            panic!("worker pool threads have exited");
        }
        out
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing every lane lets each worker drain its remaining jobs and
        // exit its blocking pop; join so no detached thread outlives the
        // pool.
        if let Some(shared) = self.shared.take() {
            for lane in &shared.lanes {
                lane.close();
            }
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .finish()
    }
}

/// Thread-backed cluster launcher.
pub struct Cluster;

impl Cluster {
    /// Spawns `ranks` threads, runs `f` on each with its [`RankHandle`], and
    /// returns the per-rank results in rank order.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is zero or if any rank panics.
    pub fn run<T, F>(ranks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(RankHandle) -> T + Send + Sync,
    {
        assert!(ranks >= 1, "a cluster needs at least one rank");
        let mut senders = Vec::with_capacity(ranks);
        let mut receivers = Vec::with_capacity(ranks);
        for _ in 0..ranks {
            let (s, r) = unbounded();
            senders.push(s);
            receivers.push(r);
        }
        let barrier = Arc::new(Barrier::new(ranks));
        let f = &f;

        let mut handles: Vec<RankHandle> = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| RankHandle {
                rank,
                ranks,
                senders: senders.clone(),
                receiver,
                barrier: Arc::clone(&barrier),
                pending: Vec::new(),
            })
            .collect();
        // Drop the original senders so channels close when all ranks finish.
        drop(senders);

        std::thread::scope(|scope| {
            let mut joins = Vec::with_capacity(ranks);
            for handle in handles.drain(..) {
                joins.push(scope.spawn(move || f(handle)));
            }
            joins
                .into_iter()
                .map(|j| j.join().expect("rank thread panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_know_their_identity() {
        let ids = Cluster::run(4, |h| (h.rank(), h.ranks()));
        assert_eq!(ids, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn ring_pass_accumulates_contributions() {
        // Each rank adds its id and forwards to the next; rank 0 starts and
        // finally receives the total.
        let totals = Cluster::run(5, |mut h| {
            let next = (h.rank() + 1) % h.ranks();
            if h.rank() == 0 {
                h.send(next, 1, vec![0]);
                let m = h.recv_matching(None, Some(1));
                m.payload[0]
            } else {
                let m = h.recv_matching(None, Some(1));
                h.send(next, 1, vec![m.payload[0] + h.rank() as u8]);
                0
            }
        });
        assert_eq!(totals[0], (1 + 2 + 3 + 4) as u8);
    }

    #[test]
    fn broadcast_delivers_to_every_rank() {
        let out = Cluster::run(4, |mut h| {
            let data = if h.rank() == 2 { vec![7, 7, 7] } else { vec![] };
            h.broadcast_from(2, data, 9)
        });
        for payload in out {
            assert_eq!(payload, vec![7, 7, 7]);
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = Cluster::run(4, |mut h| h.gather_to(0, vec![h.rank() as u8; 2], 3));
        let gathered = out[0].as_ref().unwrap();
        assert_eq!(gathered.len(), 4);
        for (rank, payload) in gathered.iter().enumerate() {
            assert_eq!(payload, &vec![rank as u8; 2]);
        }
        assert!(out[1].is_none() && out[2].is_none() && out[3].is_none());
    }

    #[test]
    fn tag_matching_buffers_out_of_order_messages() {
        let out = Cluster::run(2, |mut h| {
            if h.rank() == 0 {
                // Send tag 2 first, then tag 1; the receiver asks for tag 1
                // first and must still see both, in the order it asked.
                h.send(1, 2, vec![2]);
                h.send(1, 1, vec![1]);
                vec![]
            } else {
                let first = h.recv_matching(Some(0), Some(1)).payload;
                let second = h.recv_matching(Some(0), Some(2)).payload;
                vec![first[0], second[0]]
            }
        });
        assert_eq!(out[1], vec![1, 2]);
    }

    #[test]
    fn try_recv_returns_none_when_nothing_queued() {
        let out = Cluster::run(2, |mut h| {
            if h.rank() == 0 {
                h.barrier();
                // after the barrier rank 1 has already checked its queue
                h.send(1, 5, vec![9]);
                true
            } else {
                let nothing = h.try_recv_matching(None, None).is_none();
                h.barrier();
                let msg = h.recv_matching(Some(0), Some(5));
                nothing && msg.payload == vec![9]
            }
        });
        assert!(out[1]);
    }

    #[test]
    fn barrier_synchronises_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let out = Cluster::run(6, |h| {
            counter.fetch_add(1, Ordering::SeqCst);
            h.barrier();
            // After the barrier every rank must observe all 6 increments.
            counter.load(Ordering::SeqCst)
        });
        assert!(out.iter().all(|&v| v == 6));
    }

    #[test]
    fn pool_results_arrive_in_submission_order() {
        for workers in [1, 2, 4, 7] {
            let pool = WorkerPool::new(workers);
            assert_eq!(pool.workers(), workers);
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0usize..32)
                .map(|i| Box::new(move || i * 3) as Box<dyn FnOnce() -> usize + Send>)
                .collect();
            let out = pool.run_tasks(tasks);
            assert_eq!(out, (0usize..32).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(3);
        for batch in 0..5usize {
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..6)
                .map(|i| Box::new(move || batch * 100 + i) as Box<dyn FnOnce() -> usize + Send>)
                .collect();
            let out = pool.run_tasks(tasks);
            assert_eq!(out, (0..6).map(|i| batch * 100 + i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_handles_more_tasks_than_workers() {
        let pool = WorkerPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..100u64)
            .map(|i| Box::new(move || i + 1) as Box<dyn FnOnce() -> u64 + Send>)
            .collect();
        let out = pool.run_tasks(tasks);
        assert_eq!(out.iter().sum::<u64>(), (1..=100).sum::<u64>());
    }

    #[test]
    fn pool_empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(2);
        let out: Vec<usize> = pool.run_tasks(Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn pool_rejects_zero_workers() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn pool_task_panic_propagates_and_pool_survives() {
        // A panicking task must re-raise on the caller — even on a one-worker
        // pool with further tasks queued behind it (no silent hang) — and the
        // worker must stay usable for the next batch.
        let pool = WorkerPool::new(1);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> =
            vec![Box::new(|| panic!("task exploded")), Box::new(|| 7)];
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run_tasks(tasks)));
        let payload = caught.expect_err("the task panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("task exploded"), "got: {message}");

        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> =
            (0usize..4).map(|i| Box::new(move || i) as _).collect();
        assert_eq!(pool.run_tasks(tasks), vec![0, 1, 2, 3]);
    }

    #[test]
    fn scoped_tasks_borrow_from_the_caller() {
        let pool = WorkerPool::new(3);
        let data: Vec<u64> = (0..100).collect();
        let chunks: Vec<&[u64]> = data.chunks(7).collect();
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = chunks
            .iter()
            .map(|c| {
                let c: &[u64] = c;
                Box::new(move || c.iter().sum::<u64>()) as Box<dyn FnOnce() -> u64 + Send + '_>
            })
            .collect();
        let sums = pool.run_scoped_tasks(tasks);
        assert_eq!(sums.len(), chunks.len());
        assert_eq!(sums.iter().sum::<u64>(), (0..100).sum::<u64>());
        // Chunk order is submission order.
        assert_eq!(sums[0], (0..7).sum::<u64>());
    }

    #[test]
    fn nested_submission_does_not_deadlock_even_on_one_worker() {
        // A task running on the pool's only worker fans sub-tasks out to the
        // same pool; the blocked merge loops (both the outer caller's and the
        // worker's) must help execute queued jobs or this hangs forever.
        for workers in [1, 2] {
            let pool = Arc::new(WorkerPool::new(workers));
            let outer: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..4u64)
                .map(|i| {
                    let pool = Arc::clone(&pool);
                    Box::new(move || {
                        let inner: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..3u64)
                            .map(|j| {
                                Box::new(move || i * 10 + j) as Box<dyn FnOnce() -> u64 + Send>
                            })
                            .collect();
                        pool.run_tasks(inner).into_iter().sum()
                    }) as Box<dyn FnOnce() -> u64 + Send>
                })
                .collect();
            let totals = pool.run_tasks(outer);
            assert_eq!(totals, vec![3, 33, 63, 93], "workers={workers}");
        }
    }

    #[test]
    fn scoped_panic_is_raised_only_after_the_batch_drains() {
        // The scoped safety argument hinges on every task finishing before
        // the call unwinds; observe that the non-panicking sibling ran.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = WorkerPool::new(2);
        let completed = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
            Box::new(|| panic!("scoped task exploded")),
            Box::new(|| {
                completed.fetch_add(1, Ordering::SeqCst);
            }),
            Box::new(|| {
                completed.fetch_add(1, Ordering::SeqCst);
            }),
        ];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_scoped_tasks(tasks)
        }));
        assert!(caught.is_err(), "the task panic must propagate");
        assert_eq!(
            completed.load(Ordering::SeqCst),
            2,
            "every non-panicking task must have completed before the unwind"
        );
    }

    #[test]
    fn quiesced_pool_reports_no_queued_jobs() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.queued_jobs(), 0);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> =
            (0usize..16).map(|i| Box::new(move || i) as _).collect();
        let _ = pool.run_tasks(tasks);
        // run_tasks is a join point: every submitted job has been popped and
        // completed, so the lanes must be empty again.
        assert_eq!(pool.queued_jobs(), 0);
    }

    #[test]
    fn single_rank_cluster_works() {
        let out = Cluster::run(1, |mut h| {
            let data = h.broadcast_from(0, vec![1, 2, 3], 0);
            let gathered = h.gather_to(0, data, 1).unwrap();
            gathered.len()
        });
        assert_eq!(out, vec![1]);
    }
}
