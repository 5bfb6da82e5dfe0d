//! The job engine: one shared worker pool, an admission-controlled FIFO
//! queue, per-job cancellation tokens and per-session event streams.
//!
//! ## Job lifecycle
//!
//! ```text
//! submit ──► (validate) ──► Queued ──► Running ──► Done
//!                │             │          │    └──► Cancelled (mid-run)
//!                │             │          └───────► Failed
//!                │             └──► Cancelled (before start)
//!                └──► typed Error (never admitted)
//! ```
//!
//! Admission control is a bounded FIFO: at most [`ServerConfig::max_active`]
//! jobs run concurrently on the shared [`WorkerPool`]; up to
//! [`ServerConfig::max_queue`] more wait in arrival order. A worker thread
//! that finishes a job pulls the next queued job itself, so ordering is fair
//! (strict FIFO) and no scheduler thread exists to wedge.
//!
//! Every job runs through [`JobRunner::run_job`] on a [`SharedPool`] backend
//! over the server's single pool. The determinism contract (`DESIGN.md` §4)
//! makes the pool's worker count and the number of concurrently interleaved
//! jobs invisible to results: a job's fingerprint is bitwise identical to the
//! batch path's fingerprint for the same scenario, which is what the
//! `server_suite` test enforces against the golden registry.

use crate::protocol::{Event, ProtocolError, Request, SubmitRequest};
use cluster_sim::comm::WorkerPool;
use sime_parallel::control::{CancelToken, ObservedRun};
use sime_parallel::exec::SharedPool;
use sime_parallel::jobs::{JobRunner, JobSpec};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tunables for one server instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// OS workers in the shared pool (≥ 1).
    pub workers: usize,
    /// Jobs allowed to run concurrently (≥ 1).
    pub max_active: usize,
    /// Jobs allowed to wait in the admission queue.
    pub max_queue: usize,
    /// Per-line request size limit in bytes; longer lines are rejected as
    /// `oversized_request` before being parsed.
    pub max_request_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            max_active: 2,
            max_queue: 64,
            max_request_bytes: 64 * 1024,
        }
    }
}

/// A per-session event channel. Cloned into every job the session submits;
/// sends to a disconnected session are silently dropped, so a client that
/// vanishes mid-job never wedges the pool or the job thread.
#[derive(Clone)]
struct EventSink {
    session: u64,
    tx: Sender<Event>,
}

impl EventSink {
    fn send(&self, event: Event) {
        let _ = self.tx.send(event);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobPhase {
    Queued,
    Running,
    Done,
    Cancelled,
    Failed,
}

struct JobEntry {
    phase: JobPhase,
    token: CancelToken,
}

struct QueuedJob {
    id: String,
    spec: JobSpec,
    sink: EventSink,
}

#[derive(Default)]
struct ServerState {
    jobs: HashMap<String, JobEntry>,
    queue: VecDeque<QueuedJob>,
    active: usize,
    finished: u64,
}

/// A monitoring snapshot of the engine, for tests and the `status` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Jobs currently running.
    pub active: usize,
    /// Jobs waiting in the admission queue.
    pub queued: usize,
    /// Jobs that reached a terminal phase (done, cancelled or failed).
    pub finished: u64,
    /// Job ids the server has ever admitted.
    pub jobs_seen: usize,
}

/// The placement job engine. One instance owns one [`WorkerPool`] and one
/// [`JobRunner`] (circuit + engine caches) for its whole lifetime; any number
/// of [`Session`]s attach to it concurrently.
pub struct Server {
    config: ServerConfig,
    runner: Arc<JobRunner>,
    pool: Arc<WorkerPool>,
    state: Mutex<ServerState>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    shutdown: AtomicBool,
    next_session: AtomicU64,
}

impl Server {
    /// Builds a server with a fresh pool and empty caches.
    pub fn new(config: ServerConfig) -> Arc<Server> {
        assert!(config.workers >= 1, "the shared pool needs a worker");
        assert!(config.max_active >= 1, "max_active must admit a job");
        Arc::new(Server {
            config,
            runner: Arc::new(JobRunner::new()),
            pool: Arc::new(WorkerPool::new(config.workers)),
            state: Mutex::new(ServerState::default()),
            handles: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            next_session: AtomicU64::new(0),
        })
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The shared job runner (circuit/engine caches), e.g. to pre-register
    /// Bookshelf circuits before serving.
    pub fn runner(&self) -> &Arc<JobRunner> {
        &self.runner
    }

    /// The shared worker pool — exposed so tests can assert it holds no
    /// leaked work (`queued_jobs() == 0`) after jobs finish.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Current engine snapshot.
    pub fn stats(&self) -> ServerStats {
        let state = lock(&self.state);
        ServerStats {
            active: state.active,
            queued: state.queue.len(),
            finished: state.finished,
            jobs_seen: state.jobs.len(),
        }
    }

    fn submit(self: &Arc<Self>, submit: SubmitRequest, sink: &EventSink) {
        let id = submit.id.clone();
        if self.shutdown.load(Ordering::SeqCst) {
            sink.send(Event::Error {
                id: Some(id),
                code: "server_shutdown".into(),
                message: "the server is draining and accepts no new jobs".into(),
            });
            return;
        }
        // Reject bad specs before touching the queue: a submission that can
        // never run is a typed error, not an admitted job.
        if let Err(err) = JobRunner::validate(&submit.spec.scenario) {
            sink.send(Event::Error {
                id: Some(id),
                code: err.code().into(),
                message: err.to_string(),
            });
            return;
        }
        if let Err(err) = self.runner.netlist(&submit.spec.scenario.circuit) {
            sink.send(Event::Error {
                id: Some(id),
                code: err.code().into(),
                message: err.to_string(),
            });
            return;
        }
        let job = QueuedJob {
            id: id.clone(),
            spec: submit.spec,
            sink: sink.clone(),
        };
        let to_start = {
            let mut state = lock(&self.state);
            if state.jobs.contains_key(&id) {
                drop(state);
                sink.send(Event::Error {
                    id: Some(id),
                    code: "duplicate_job".into(),
                    message: "a job with this id was already submitted".into(),
                });
                return;
            }
            if state.active < self.config.max_active {
                state.active += 1;
                state.jobs.insert(
                    id.clone(),
                    JobEntry {
                        phase: JobPhase::Running,
                        token: CancelToken::new(),
                    },
                );
                sink.send(Event::Accepted {
                    id,
                    queued_ahead: 0,
                });
                Some(job)
            } else if state.queue.len() < self.config.max_queue {
                state.jobs.insert(
                    id.clone(),
                    JobEntry {
                        phase: JobPhase::Queued,
                        token: CancelToken::new(),
                    },
                );
                sink.send(Event::Accepted {
                    id,
                    queued_ahead: state.queue.len(),
                });
                state.queue.push_back(job);
                None
            } else {
                drop(state);
                sink.send(Event::Error {
                    id: Some(id),
                    code: "queue_full".into(),
                    message: format!("admission queue is at capacity ({})", self.config.max_queue),
                });
                None
            }
        };
        if let Some(job) = to_start {
            let server = Arc::clone(self);
            let handle = std::thread::spawn(move || server.worker_loop(job));
            let mut handles = lock(&self.handles);
            // Reap the threads of jobs that already ended, so a long-lived
            // server holds no stack per finished job until `drain`.
            handles.retain(|h| !h.is_finished());
            handles.push(handle);
        }
    }

    /// Runs `first`, then keeps pulling queued jobs until the queue is dry.
    /// The pulling worker is what makes admission FIFO-fair without a
    /// dedicated scheduler thread.
    fn worker_loop(self: Arc<Self>, first: QueuedJob) {
        let mut job = Some(first);
        while let Some(current) = job.take() {
            self.run_one(current);
            let mut state = lock(&self.state);
            match state.queue.pop_front() {
                Some(next) => {
                    if let Some(entry) = state.jobs.get_mut(&next.id) {
                        entry.phase = JobPhase::Running;
                    }
                    job = Some(next);
                }
                None => state.active -= 1,
            }
        }
    }

    fn run_one(&self, job: QueuedJob) {
        let token = {
            let state = lock(&self.state);
            state.jobs[&job.id].token.clone()
        };
        let total = job.spec.scenario.iterations;
        let progress_sink = job.sink.clone();
        let progress_id = job.id.clone();
        let control = ObservedRun::new(&token, move |iteration, mu, best_mu| {
            if is_checkpoint(iteration, total) {
                progress_sink.send(Event::Progress {
                    id: progress_id.clone(),
                    iteration,
                    mu,
                    best_mu,
                });
            }
        });
        let backend = SharedPool::new(Arc::clone(&self.pool));
        let result = self.runner.run_job(&job.spec, &backend, &control);
        let event = {
            let mut state = lock(&self.state);
            state.finished += 1;
            let entry = state.jobs.get_mut(&job.id).expect("running job has entry");
            match result {
                Ok(outcome) if outcome.completed() => {
                    entry.phase = JobPhase::Done;
                    Event::Done {
                        id: job.id,
                        scenario: outcome.spec.scenario.id(),
                        seed: outcome.spec.seed,
                        iterations: outcome.outcome.iterations,
                        final_mu: outcome.outcome.best_mu(),
                        fingerprint: outcome.fingerprint.to_text(&outcome.spec.scenario),
                    }
                }
                Ok(outcome) => {
                    entry.phase = JobPhase::Cancelled;
                    Event::Cancelled {
                        id: job.id,
                        iterations: outcome.outcome.iterations,
                    }
                }
                Err(err) => {
                    entry.phase = JobPhase::Failed;
                    Event::Error {
                        id: Some(job.id),
                        code: err.code().into(),
                        message: err.to_string(),
                    }
                }
            }
        };
        job.sink.send(event);
    }

    fn cancel(&self, id: &str, sink: &EventSink) {
        let mut state = lock(&self.state);
        let Some(phase) = state.jobs.get(id).map(|entry| entry.phase) else {
            drop(state);
            sink.send(Event::Error {
                id: Some(id.to_string()),
                code: "unknown_job".into(),
                message: "no job with this id was ever submitted".into(),
            });
            return;
        };
        match phase {
            JobPhase::Queued => {
                let pos = state
                    .queue
                    .iter()
                    .position(|job| job.id == id)
                    .expect("queued job is in the queue");
                let job = state.queue.remove(pos).expect("position is valid");
                state.jobs.get_mut(id).unwrap().phase = JobPhase::Cancelled;
                state.finished += 1;
                drop(state);
                // The submitter learns its job died; the canceller (if a
                // different session) gets the same event.
                job.sink.send(Event::Cancelled {
                    id: id.to_string(),
                    iterations: 0,
                });
                if job.sink.session != sink.session {
                    sink.send(Event::Cancelled {
                        id: id.to_string(),
                        iterations: 0,
                    });
                }
            }
            JobPhase::Running => {
                // Cooperative: the run stops at its next iteration boundary
                // and the job thread emits Cancelled (or Done, if the request
                // landed after the final iteration — that race is resolved by
                // the run itself, never by this thread).
                state.jobs[id].token.cancel();
            }
            JobPhase::Done | JobPhase::Cancelled | JobPhase::Failed => {
                drop(state);
                sink.send(Event::Error {
                    id: Some(id.to_string()),
                    code: "job_finished".into(),
                    message: "the job already reached a terminal state".into(),
                });
            }
        }
    }

    /// Whether [`Server::drain`] has been requested (new submissions are
    /// being rejected).
    pub fn is_draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Drains the engine: rejects new submissions, runs every admitted job to
    /// its terminal state and joins all job threads. Idempotent.
    pub fn drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = lock(&self.handles);
            guard.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Locks `mutex`, recovering the guard if a thread panicked while holding
/// it. Every critical section here leaves the state consistent at each
/// step (a job's entry, the queue and the counters change together or not
/// at all), so a panic elsewhere must not disable the server.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The progress-checkpoint rule, matching
/// [`sime_parallel::batch::checkpoint_iterations`]: iteration `i` is sampled
/// when `i + 1` is a power of two or the run's final iteration.
fn is_checkpoint(iteration: usize, total: usize) -> bool {
    (iteration + 1).is_power_of_two() || iteration + 1 == total
}

/// One client's connection to a [`Server`]: a request entry point plus the
/// event stream for everything that client submitted. Dropping a session
/// mid-job is safe — its events are discarded and the job runs (or cancels)
/// to its terminal state on the server.
pub struct Session {
    server: Arc<Server>,
    sink: EventSink,
    rx: Option<Receiver<Event>>,
}

impl Session {
    /// Attaches a new session to `server`.
    pub fn new(server: Arc<Server>) -> Session {
        let (tx, rx) = mpsc::channel();
        let session = server.next_session.fetch_add(1, Ordering::Relaxed);
        Session {
            server,
            sink: EventSink { session, tx },
            rx: Some(rx),
        }
    }

    /// Detaches the event stream so a writer thread can own it. The channel
    /// closes (and the writer unblocks) once this session *and* every job it
    /// submitted have dropped their sender clones — i.e. exactly when no more
    /// events can arrive.
    ///
    /// # Panics
    /// If called twice.
    pub fn take_receiver(&mut self) -> Receiver<Event> {
        self.rx.take().expect("session receiver already taken")
    }

    /// Handles one raw protocol line. Malformed input becomes a typed
    /// [`Event::Error`] on this session's stream; the engine is untouched.
    pub fn handle_line(&self, line: &str) {
        match Request::parse_line(line, self.server.config.max_request_bytes) {
            Ok(request) => self.request(request),
            Err(err) => self.sink.send(Event::Error {
                id: None,
                code: err.code,
                message: err.message,
            }),
        }
    }

    /// Dispatches an already-parsed request.
    pub fn request(&self, request: Request) {
        match request {
            Request::Submit(submit) => self.server.submit(submit, &self.sink),
            Request::Cancel { id } => self.server.cancel(&id, &self.sink),
            Request::RegisterPlacement { tag, pl } => {
                let digest = self.server.runner().register_placement(&tag, &pl);
                self.sink.send(Event::Registered { tag, digest });
            }
            Request::Status => {
                let stats = self.server.stats();
                self.sink.send(Event::Status {
                    active: stats.active,
                    queued: stats.queued,
                    finished: stats.finished,
                });
            }
            Request::Shutdown => {
                self.server.drain();
                self.sink.send(Event::Bye);
            }
        }
    }

    /// The server this session is attached to.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Blocks up to `timeout` for the next event on this session's stream.
    /// Returns `None` on timeout or if the receiver was detached with
    /// [`Session::take_receiver`].
    pub fn next_event(&self, timeout: Duration) -> Option<Event> {
        self.rx.as_ref()?.recv_timeout(timeout).ok()
    }

    /// Drains events until the job `id` reaches a terminal event (done,
    /// cancelled, or an error naming it), returning every event seen for it
    /// (other jobs' events are returned too, interleaved, for callers that
    /// multiplex). Returns `None` on timeout.
    pub fn wait_for_terminal(&self, id: &str, timeout: Duration) -> Option<Vec<Event>> {
        let rx = self.rx.as_ref()?;
        let deadline = std::time::Instant::now() + timeout;
        let mut seen = Vec::new();
        loop {
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let event = rx.recv_timeout(deadline - now).ok()?;
            let terminal = matches!(
                &event,
                Event::Done { id: eid, .. }
                | Event::Cancelled { id: eid, .. }
                | Event::Error { id: Some(eid), .. } if eid == id
            );
            seen.push(event);
            if terminal {
                return Some(seen);
            }
        }
    }

    /// Error shorthand used by transports when a read-side problem (not a
    /// protocol line) must be surfaced on the stream.
    pub fn send_error(&self, err: ProtocolError) {
        self.sink.send(Event::Error {
            id: None,
            code: err.code,
            message: err.message,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SubmitRequest;
    use sime_parallel::batch::{ScenarioSpec, StrategyKind};
    use vlsi_place::cost::Objectives;

    #[test]
    fn a_panic_under_either_lock_leaves_the_server_usable() {
        let server = Server::new(ServerConfig::default());
        let target = Arc::clone(&server);
        let panicked = std::thread::spawn(move || {
            let _state = target.state.lock();
            let _handles = target.handles.lock();
            panic!("poisoning both of the server's locks");
        })
        .join();
        assert!(panicked.is_err());
        assert!(server.state.is_poisoned() && server.handles.is_poisoned());

        let session = Session::new(Arc::clone(&server));
        session.request(Request::Status);
        assert!(matches!(
            session.next_event(Duration::from_secs(60)),
            Some(Event::Status { active: 0, .. })
        ));
        session.request(Request::Submit(SubmitRequest {
            id: "after-panic".into(),
            spec: JobSpec::batch(ScenarioSpec {
                circuit: "s1196".into(),
                strategy: StrategyKind::Type1,
                ranks: 2,
                iterations: 2,
                objectives: Objectives::WirelengthPower,
                workers: None,
                eval_chunks: 1,
                warm_start: None,
            }),
        }));
        let events = session
            .wait_for_terminal("after-panic", Duration::from_secs(300))
            .expect("the job reaches a terminal event");
        assert!(
            matches!(events.last(), Some(Event::Done { iterations: 2, .. })),
            "{events:?}"
        );
        server.drain();
        assert_eq!(server.stats().finished, 1);
    }

    #[test]
    fn finished_job_threads_are_reaped_on_submit() {
        let server = Server::new(ServerConfig::default());
        let session = Session::new(Arc::clone(&server));
        let jobs = 200;
        for i in 0..jobs {
            let id = format!("short-{i}");
            session.request(Request::Submit(SubmitRequest {
                id: id.clone(),
                spec: JobSpec::batch(ScenarioSpec {
                    circuit: "s1196".into(),
                    strategy: StrategyKind::Type1,
                    ranks: 2,
                    iterations: 1,
                    objectives: Objectives::WirelengthPower,
                    workers: None,
                    eval_chunks: 1,
                    warm_start: None,
                }),
            }));
            let events = session
                .wait_for_terminal(&id, Duration::from_secs(300))
                .expect("the job reaches a terminal event");
            assert!(
                matches!(events.last(), Some(Event::Done { .. })),
                "{events:?}"
            );
        }
        // Only threads still exiting when the next job arrived may remain.
        let kept = lock(&server.handles).len();
        assert!(
            kept <= 4,
            "{kept} job threads kept after {jobs} sequential jobs"
        );
        server.drain();
        assert_eq!(server.stats().finished, jobs);
    }

    #[test]
    fn checkpoint_rule_matches_the_batch_sampler() {
        for total in 1..40usize {
            let expected = sime_parallel::batch::checkpoint_iterations(total);
            let got: Vec<usize> = (0..total).filter(|&i| is_checkpoint(i, total)).collect();
            assert_eq!(got, expected, "total {total}");
        }
    }
}
