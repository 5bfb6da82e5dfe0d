//! `server_mixed`: an in-process `Server` with `workers = max_active = nproc`
//! behind loopback `serve_tcp`, driven through its line protocol by `nproc`
//! client connections. Each connection is a closed loop with one job
//! outstanding.
//!
//! Jobs are short (1–3 iterations) over paper, extended and mixed-size
//! circuits with every strategy valid for the circuit. Seven in ten carry a
//! distinct seed (a new engine-cache entry each), two repeat the default
//! seed (cache hits) and one warm-starts from a `.pl` registered during
//! set-up. This is the only workload that exercises admission, protocol
//! parse/render, cache inserts beside hits, warm-start `.pl` parsing and
//! mixed-size blocked spans on one shared pool.

use crate::stats::{self, mix, wire_seed};
use crate::trace::Tracer;
use crate::{peak_rss_mb, window_open, Check, Ctx, EndToEnd, Metrics, Scope, TracedPart};
use cluster_sim::comm::WorkerPool;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sime_parallel::batch::{ScenarioSpec, StrategyKind, TrajectoryFingerprint};
use sime_parallel::exec::{ExecBackend, Modeled, SharedPool};
use sime_parallel::portfolio::PortfolioMix;
use sime_parallel::type2::RowPattern;
use sime_parallel::{FreeRun, JobRunner, JobSpec};
use sime_server::{serve_tcp, Event, Request, Server, ServerConfig, SubmitRequest};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vlsi_netlist::bench_suite::SuiteCircuit;
use vlsi_netlist::bookshelf::write_pl;
use vlsi_place::cost::Objectives;
use vlsi_place::layout::Placement;
use vlsi_place::placement_to_pl;

/// The circuits this workload runs.
pub const CIRCUITS: [&str; 6] = ["s1196", "s1238", "s5378", "s9234", "mix600", "mix2000"];
const STRATEGIES: [StrategyKind; 5] = [
    StrategyKind::Type1,
    StrategyKind::Type2(RowPattern::Fixed),
    StrategyKind::Type2(RowPattern::Random),
    StrategyKind::Type3,
    StrategyKind::Portfolio(PortfolioMix::Mixed),
];
const OBJECTIVES: [Objectives; 2] = [
    Objectives::WirelengthPower,
    Objectives::WirelengthPowerDelay,
];
/// Jobs every untraced run completes at least; `mu_mean` and `modeled_s`
/// are taken over exactly this prefix of the job list.
const MIN_JOBS: usize = 100;
/// Jobs per connection in a short traced loop.
const COUNT_JOBS_PER_CLIENT: usize = 10;
/// Jobs re-run on a lone pool for the server-overhead metric.
const OVERHEAD_JOBS: usize = 40;
const SETUP_REPS: usize = 5;
/// Longest wait for any one protocol event before the job counts as timed
/// out.
const EVENT_TIMEOUT: Duration = Duration::from_secs(60);
/// Fixes the job mix; independent of the workload seed, which only seeds
/// the jobs and the registered placements.
const MIX_SALT: u64 = 0x7365_7276_6572;
/// Large enough for the biggest registered `.pl` line (s9234).
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// `(tag, .pl text)` of the registered warm-start placements.
type Placements = Vec<(String, String)>;
/// Gate results by `(scenario id, seed)`: the `Modeled` fingerprint and
/// modeled makespan, or `None` when the re-run failed.
type GateMemo = Mutex<HashMap<(String, Option<u64>), Option<(TrajectoryFingerprint, f64)>>>;

fn warm_tag(circuit: &str) -> String {
    format!("warm-{circuit}")
}

/// Job `g` of the workload. Circuits rotate job by job and the seed kind
/// follows a ten-job pattern; the circuit rotation shifts by one every 30
/// jobs, so each 60 consecutive jobs pair every circuit with every kind and
/// any 20 see every circuit and kind.
fn spec(ctx: &Ctx, g: u64) -> JobSpec {
    let circuit = CIRCUITS[((g + g / 30) % CIRCUITS.len() as u64) as usize];
    let kind = g % 10;
    let h = mix(MIX_SALT, g);
    // The portfolio's metaheuristic islands cannot host fixed cells.
    let strategies = if circuit.starts_with("mix") {
        &STRATEGIES[..4]
    } else {
        &STRATEGIES[..]
    };
    JobSpec {
        scenario: ScenarioSpec {
            circuit: circuit.to_string(),
            strategy: strategies[(h % strategies.len() as u64) as usize],
            ranks: 3 + ((h >> 8) % 2) as usize,
            iterations: 1 + ((h >> 16) % 3) as usize,
            objectives: if (h >> 24).is_multiple_of(4) {
                Objectives::WirelengthPowerDelay
            } else {
                Objectives::WirelengthPower
            },
            workers: None,
            eval_chunks: 1,
            warm_start: (kind == 9).then(|| warm_tag(circuit)),
        },
        seed: (kind < 7).then(|| wire_seed(ctx.seed, g)),
    }
}

/// `(tag, .pl text)` of every registered warm-start placement: a seeded
/// random placement per circuit.
fn warm_placements(ctx: &Ctx) -> Placements {
    CIRCUITS
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            let circuit = SuiteCircuit::from_name(name).expect("suite circuit");
            let netlist = circuit.generate();
            let mut rng = ChaCha8Rng::seed_from_u64(mix(ctx.seed, u64::MAX - i as u64));
            let placement = Placement::random(&netlist, circuit.num_rows(), &mut rng);
            (
                warm_tag(name),
                write_pl(&placement_to_pl(&netlist, &placement)),
            )
        })
        .collect()
}

/// One client connection speaking the line protocol.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(EVENT_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send failed: {e}"))
    }

    /// The next event and its raw line.
    fn next_event(&mut self) -> Result<(Event, String), String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed by the server".into()),
            Ok(_) => {
                let raw = self.line.trim_end().to_string();
                Event::parse_line(&raw)
                    .map(|event| (event, raw))
                    .map_err(|e| format!("unparsable event: {e}"))
            }
            Err(e) => Err(format!("no event within {EVENT_TIMEOUT:?}: {e}")),
        }
    }
}

/// A served instance: the server, its TCP listener thread and the connected
/// clients.
struct Live {
    server: Arc<Server>,
    listener: JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
}

fn start(ctx: &Ctx) -> Result<Live, String> {
    let server = Server::new(ServerConfig {
        workers: ctx.nproc,
        max_active: ctx.nproc,
        max_request_bytes: MAX_REQUEST_BYTES,
        ..ServerConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    let served = Arc::clone(&server);
    let listener = std::thread::spawn(move || {
        serve_tcp(served, "127.0.0.1:0", move |addr| {
            let _ = tx.send(addr);
        })
    });
    let addr = match rx.recv_timeout(EVENT_TIMEOUT) {
        Ok(addr) => addr,
        Err(_) => {
            let reason = match listener.join() {
                Ok(Err(e)) => e.to_string(),
                _ => "listener never bound".into(),
            };
            return Err(format!("server failed to start: {reason}"));
        }
    };
    let mut clients = Vec::new();
    for _ in 0..ctx.nproc {
        clients.push(Client::connect(addr).map_err(|e| format!("connect failed: {e}"))?);
    }
    Ok(Live {
        server,
        listener,
        clients,
    })
}

/// Registers the warm-start placements and runs one default-seed warm-up job
/// per (circuit, objectives), all through client 0.
fn warm_up(live: &mut Live, placements: &[(String, String)]) -> Result<(), String> {
    let client = &mut live.clients[0];
    for (tag, pl) in placements {
        client.send(
            &Request::RegisterPlacement {
                tag: tag.clone(),
                pl: pl.clone(),
            }
            .render(),
        )?;
        match client.next_event()?.0 {
            Event::Registered { tag: got, .. } if &got == tag => {}
            other => return Err(format!("registering {tag}: unexpected {other:?}")),
        }
    }
    for (i, circuit) in CIRCUITS.iter().enumerate() {
        for (k, objectives) in OBJECTIVES.into_iter().enumerate() {
            let id = format!("warmup-{i}-{k}");
            let submit = Request::Submit(SubmitRequest {
                id: id.clone(),
                spec: JobSpec::batch(ScenarioSpec {
                    circuit: circuit.to_string(),
                    strategy: StrategyKind::Type1,
                    ranks: 2,
                    iterations: 1,
                    objectives,
                    workers: None,
                    eval_chunks: 1,
                    warm_start: None,
                }),
            });
            client.send(&submit.render())?;
            loop {
                match client.next_event()?.0 {
                    Event::Done { id: got, .. } if got == id => break,
                    Event::Accepted { .. } | Event::Progress { .. } => {}
                    other => return Err(format!("warm-up {id}: unexpected {other:?}")),
                }
            }
        }
    }
    Ok(())
}

/// Closes every connection, shuts the server down through the protocol and
/// joins its listener.
fn stop(live: Live, check: &mut Check) {
    let Live {
        server,
        listener,
        mut clients,
    } = live;
    let mut first = clients.remove(0);
    drop(clients);
    let stopped = first.send(&Request::Shutdown.render()).and_then(|()| loop {
        if let (Event::Bye, _) = first.next_event()? {
            return Ok(());
        }
    });
    drop(first);
    if let Err(e) = stopped {
        // The listener only returns after a shutdown; do not wait on it.
        check.fail(format!("server shutdown: {e}"));
        return;
    }
    match listener.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => check.fail(format!("server listener: {e}")),
        Err(_) => check.fail("server listener panicked"),
    }
    if server.stats().active != 0 {
        check.fail("server leaked an admission slot");
    }
}

/// Starts, warms up and serves `reps` times; keeps the last instance and
/// returns the median set-up time.
fn setup(ctx: &Ctx, reps: usize, check: &mut Check) -> Option<(Live, Placements, f64)> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let placements = warm_placements(ctx);
        let live = start(ctx).and_then(|mut live| {
            warm_up(&mut live, &placements)?;
            Ok(live)
        });
        times.push(t0.elapsed().as_secs_f64());
        match live {
            Ok(live) => {
                if let Some((previous, _)) = kept.replace((live, placements)) {
                    stop(previous, check);
                }
            }
            Err(e) => {
                check.fail(e);
                if let Some((previous, _)) = kept {
                    stop(previous, check);
                }
                return None;
            }
        }
    }
    let (live, placements) = kept?;
    Some((live, placements, stats::median(&times)?))
}

/// One completed job as the client saw it.
struct Finished {
    g: u64,
    latency_ms: f64,
    first_progress_ms: Option<f64>,
    queued_ahead: usize,
    final_mu: f64,
    fingerprint: TrajectoryFingerprint,
}

/// Submits job `g` and waits for its terminal event. `Err` carries a failure
/// and whether the connection is still usable.
fn submit(
    ctx: &Ctx,
    client: &mut Client,
    tracer: &mut Tracer,
    g: u64,
) -> Result<Finished, (String, bool)> {
    let id = format!("j{g}");
    let line = Request::Submit(SubmitRequest {
        id: id.clone(),
        spec: spec(ctx, g),
    })
    .render();
    if tracer.enabled() {
        let parsed = tracer.span("server.parse", g, |_| {
            Request::parse_line(&line, MAX_REQUEST_BYTES)
        });
        if parsed.is_err() {
            return Err((format!("job {g}: submit line does not parse"), true));
        }
    }
    let sent = Instant::now();
    client.send(&line).map_err(|e| (e, false))?;
    let mut queued_ahead = 0;
    let mut first_progress = None;
    loop {
        let (event, raw) = client
            .next_event()
            .map_err(|e| (format!("job {g}: {e}"), false))?;
        match &event {
            Event::Accepted {
                id: got,
                queued_ahead: q,
            } if got == &id => queued_ahead = *q,
            Event::Progress { id: got, .. } if got == &id => {
                first_progress.get_or_insert_with(Instant::now);
            }
            Event::Done {
                id: got,
                final_mu,
                fingerprint,
                ..
            } if got == &id => {
                let done = Instant::now();
                if tracer.enabled() {
                    tracer.record("server.job", g, sent, done);
                    if let Some(at) = first_progress {
                        tracer.record("server.first_progress", g, sent, at);
                    }
                    let rendered = tracer.span("server.render", g, |_| event.render());
                    if rendered != raw {
                        return Err((format!("job {g}: done event does not re-render"), true));
                    }
                }
                let (_, fingerprint) = TrajectoryFingerprint::parse_text(fingerprint)
                    .map_err(|e| (format!("job {g}: bad fingerprint: {e}"), true))?;
                return Ok(Finished {
                    g,
                    latency_ms: done.duration_since(sent).as_secs_f64() * 1e3,
                    first_progress_ms: first_progress
                        .map(|at| at.duration_since(sent).as_secs_f64() * 1e3),
                    queued_ahead,
                    final_mu: *final_mu,
                    fingerprint,
                });
            }
            Event::Error { code, message, .. } => {
                return Err((format!("job {g}: {code}: {message}"), true))
            }
            other => return Err((format!("job {g}: unexpected {other:?}"), true)),
        }
    }
}

/// How long each connection's closed loop runs.
#[derive(Clone, Copy)]
enum Budget {
    /// Until `seconds` elapsed and the connection completed `min_jobs`.
    Window { seconds: f64, min_jobs: usize },
    /// Exactly this many jobs on each connection (by connection index).
    Jobs(usize),
}

struct Driven {
    finished: Vec<Finished>,
    /// Jobs attempted on each connection.
    attempted: Vec<usize>,
    wall_s: f64,
    check: Check,
    tracer: Tracer,
}

/// Runs every connection's closed loop concurrently. Connection `c` runs
/// jobs `c`, `c + n`, `c + 2n`, … of the job list.
fn drive(ctx: &Ctx, live: &mut Live, budgets: &[Budget], traced: bool) -> Driven {
    let clients = live.clients.len() as u64;
    let start = Instant::now();
    let per_client: Vec<(Vec<Finished>, usize, Check, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .zip(budgets)
            .enumerate()
            .map(|(c, (client, &budget))| {
                scope.spawn(move || {
                    let mut tracer = ctx.tracer(traced);
                    let mut check = Check::default();
                    let mut finished = Vec::new();
                    let mut j = 0usize;
                    while match budget {
                        Budget::Window { seconds, min_jobs } => {
                            window_open(start, seconds, j, min_jobs)
                        }
                        Budget::Jobs(n) => j < n,
                    } {
                        let g = j as u64 * clients + c as u64;
                        j += 1;
                        match submit(ctx, client, &mut tracer, g) {
                            Ok(done) => finished.push(done),
                            Err((e, usable)) => {
                                check.fail(e);
                                if !usable {
                                    break;
                                }
                            }
                        }
                    }
                    (finished, j, check, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut driven = Driven {
        finished: Vec::new(),
        attempted: Vec::new(),
        wall_s,
        check: Check::default(),
        tracer: ctx.tracer(traced),
    };
    for (finished, attempted, check, tracer) in per_client {
        driven.finished.extend(finished);
        driven.attempted.push(attempted);
        driven.check.attempted += attempted as u64;
        driven.check.merge(check);
        driven.tracer.absorb(tracer);
    }
    driven.finished.sort_by_key(|f| f.g);
    driven
}

/// A runner holding the warm-start placements, as a fresh server would.
fn runner_with(placements: &[(String, String)]) -> JobRunner {
    let runner = JobRunner::new();
    for (tag, pl) in placements {
        runner.register_placement(tag, pl);
    }
    runner
}

/// Re-runs every finished job through `JobRunner::run_job` on `Modeled`
/// across `threads` threads and checks each fingerprint. Returns the check
/// and the modeled makespan of each job, by job index.
fn gate(
    ctx: &Ctx,
    placements: &[(String, String)],
    finished: &[Finished],
    threads: usize,
) -> (Check, BTreeMap<u64, f64>) {
    let runner = runner_with(placements);
    // Repeated default-seed jobs replay one trajectory; run each once.
    let memo: GateMemo = Mutex::new(HashMap::new());
    let results: Vec<(u64, Option<f64>, Check)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|thread| {
                let (runner, memo) = (&runner, &memo);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for done in finished.iter().skip(thread).step_by(threads) {
                        let mut check = Check::default();
                        let spec = spec(ctx, done.g);
                        let key = (spec.scenario.id(), spec.seed);
                        let cached = memo.lock().expect("gate memo poisoned").get(&key).cloned();
                        let reference = cached.unwrap_or_else(|| {
                            let fresh = match runner.run_job(&spec, &Modeled, &FreeRun) {
                                Ok(out) => Some((out.fingerprint, out.outcome.modeled_seconds)),
                                Err(e) => {
                                    check.fail(format!("gate job {}: {e}", done.g));
                                    None
                                }
                            };
                            memo.lock()
                                .expect("gate memo poisoned")
                                .insert(key, fresh.clone());
                            fresh
                        });
                        let modeled = reference.map(|(fingerprint, modeled)| {
                            if fingerprint != done.fingerprint {
                                check.fail(format!(
                                    "server job {}: fingerprint differs from Modeled run_job",
                                    done.g
                                ));
                            }
                            modeled
                        });
                        out.push((done.g, modeled, check));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("gate thread panicked"))
            .collect()
    });
    let mut check = Check::default();
    let mut modeled = BTreeMap::new();
    for (g, seconds, job_check) in results {
        if let Some(seconds) = seconds {
            modeled.insert(g, seconds);
        }
        check.merge(job_check);
    }
    (check, modeled)
}

/// Jobs in the fixed prefix: the first `MIN_JOBS` rounded up to whole rounds
/// of the connections.
fn prefix_len(clients: usize) -> u64 {
    (MIN_JOBS.div_ceil(clients) * clients) as u64
}

/// The untraced end-to-end run.
pub fn run(ctx: &Ctx) -> EndToEnd {
    let mut check = Check::default();
    let Some((mut live, placements, setup_s)) = setup(ctx, SETUP_REPS, &mut check) else {
        return EndToEnd {
            setup_s: 0.0,
            latencies_ms: Vec::new(),
            peak_rss_mb: peak_rss_mb(),
            mu_mean: 0.0,
            modeled_s: 0.0,
            check,
        };
    };
    let clients = live.clients.len();
    let budget = Budget::Window {
        seconds: ctx.seconds,
        min_jobs: MIN_JOBS.div_ceil(clients),
    };
    let driven = drive(ctx, &mut live, &vec![budget; clients], false);
    let peak = peak_rss_mb();
    stop(live, &mut check);
    check.merge(driven.check);
    let (gate_check, modeled) = gate(ctx, &placements, &driven.finished, ctx.nproc);
    check.merge(gate_check);

    let prefix = prefix_len(clients);
    let in_prefix: Vec<&Finished> = driven.finished.iter().filter(|f| f.g < prefix).collect();
    if in_prefix.len() as u64 != prefix {
        check.fail(format!(
            "only {} of the first {prefix} jobs finished",
            in_prefix.len()
        ));
    }
    let mus: Vec<f64> = in_prefix.iter().map(|f| f.final_mu).collect();
    let modeled_s = in_prefix.iter().filter_map(|f| modeled.get(&f.g)).sum();
    EndToEnd {
        setup_s,
        latencies_ms: driven.finished.iter().map(|f| f.latency_ms).collect(),
        peak_rss_mb: peak,
        mu_mean: stats::mean(&mus),
        modeled_s,
        check,
    }
}

/// Median of `server latency − lone run` over the first `OVERHEAD_JOBS`
/// finished jobs, each re-run through `run_job` on a lone `SharedPool` of
/// `nproc` workers with a warmed runner.
fn overhead_ms(
    ctx: &Ctx,
    placements: &[(String, String)],
    finished: &[Finished],
    check: &mut Check,
) -> f64 {
    let runner = runner_with(placements);
    for circuit in CIRCUITS {
        for objectives in OBJECTIVES {
            if let Err(e) = runner.engine_for(circuit, objectives, None) {
                check.fail(format!("overhead warm-up {circuit}: {e}"));
            }
        }
    }
    let backend = SharedPool::new(Arc::new(WorkerPool::new(ctx.nproc)));
    let mut gaps = Vec::new();
    for done in finished.iter().take(OVERHEAD_JOBS) {
        let t0 = Instant::now();
        let lone = runner.run_job(&spec(ctx, done.g), &backend as &dyn ExecBackend, &FreeRun);
        let lone_ms = t0.elapsed().as_secs_f64() * 1e3;
        match lone {
            Ok(out) if out.fingerprint == done.fingerprint => gaps.push(done.latency_ms - lone_ms),
            Ok(_) => check.fail(format!(
                "server job {}: lone-pool fingerprint differs",
                done.g
            )),
            Err(e) => check.fail(format!("server job {}: lone-pool run: {e}", done.g)),
        }
    }
    stats::median(&gaps).unwrap_or(0.0)
}

/// The traced loop. `Home` serves half the window untraced, then the same
/// jobs per connection traced on a fresh, identically set-up server; `Mini`
/// runs `COUNT_JOBS_PER_CLIENT` jobs per connection traced. Every traced
/// job is checked against `Modeled` and, on `Home`, against its untraced
/// fingerprint.
pub fn traced(ctx: &Ctx, scope: Scope) -> TracedPart {
    let mut check = Check::default();
    let mut m = Metrics::default();
    let mut untraced: Option<Driven> = None;
    if scope == Scope::Home {
        let Some((mut live, _, _)) = setup(ctx, 1, &mut check) else {
            return TracedPart {
                metrics: m,
                check,
                tracer: ctx.tracer(true),
                overhead: None,
            };
        };
        let clients = live.clients.len();
        let budget = Budget::Window {
            seconds: ctx.seconds / 2.0,
            min_jobs: COUNT_JOBS_PER_CLIENT,
        };
        let driven = drive(ctx, &mut live, &vec![budget; clients], false);
        stop(live, &mut check);
        untraced = Some(driven);
    }
    let Some((mut live, placements, _)) = setup(ctx, 1, &mut check) else {
        return TracedPart {
            metrics: m,
            check,
            tracer: ctx.tracer(true),
            overhead: None,
        };
    };
    let budgets: Vec<Budget> = match &untraced {
        Some(driven) => driven.attempted.iter().map(|&n| Budget::Jobs(n)).collect(),
        None => vec![Budget::Jobs(COUNT_JOBS_PER_CLIENT); live.clients.len()],
    };
    let driven = drive(ctx, &mut live, &budgets, true);
    let server_stats = live.server.stats();
    let runner_stats = live.server.runner().stats();
    stop(live, &mut check);
    check.merge(driven.check);
    if let Some(before) = &untraced {
        let earlier: BTreeMap<u64, &TrajectoryFingerprint> = before
            .finished
            .iter()
            .map(|f| (f.g, &f.fingerprint))
            .collect();
        for done in &driven.finished {
            if earlier
                .get(&done.g)
                .is_some_and(|fp| *fp != &done.fingerprint)
            {
                check.fail(format!(
                    "server job {}: tracing changed the fingerprint",
                    done.g
                ));
            }
        }
    }
    let (gate_check, _) = gate(ctx, &placements, &driven.finished, 1);
    check.merge(gate_check);

    let spans = driven.tracer.self_ms();
    let span_median = |name: &str| {
        spans
            .get(name)
            .and_then(|v| stats::median(v))
            .unwrap_or(0.0)
    };
    m.set("server.parse_us", span_median("server.parse") * 1e3, "us");
    m.set("server.render_us", span_median("server.render") * 1e3, "us");
    let first_progress: Vec<f64> = driven
        .finished
        .iter()
        .filter_map(|f| f.first_progress_ms)
        .collect();
    m.set(
        "server.first_progress_ms",
        stats::median(&first_progress).unwrap_or(0.0),
        "ms",
    );
    m.set(
        "server.overhead_ms",
        overhead_ms(ctx, &placements, &driven.finished, &mut check),
        "ms",
    );
    let queued = driven
        .finished
        .iter()
        .filter(|f| f.queued_ahead > 0)
        .count();
    m.set(
        "server.queued_frac",
        queued as f64 / driven.finished.len().max(1) as f64,
        "ratio",
    );
    m.set("server.jobs_seen", server_stats.jobs_seen as f64, "count");
    let lookups =
        runner_stats.engine_hits + runner_stats.engines_calibrated + runner_stats.engines_reseeded;
    m.set(
        "jobs.hit_frac",
        runner_stats.engine_hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    m.set("jobs.engines_cached", runner_stats.engines as f64, "count");
    let overhead = untraced.map(|before| 1.0 - before.wall_s / driven.wall_s);
    TracedPart {
        metrics: m,
        check,
        tracer: driven.tracer,
        overhead,
    }
}
