//! Error-path contract: every bad input — malformed JSON, unknown circuit,
//! oversized request, duplicate ids, full queues, cancellation races, a
//! client vanishing mid-job — produces a **typed** error event (stable
//! `code`) or a clean cancellation, and never wedges the shared pool: after
//! each scenario the server drains, every slot returns and
//! `WorkerPool::queued_jobs()` is zero.

use sime_parallel::batch::{ScenarioSpec, StrategyKind};
use sime_parallel::type2::RowPattern;
use sime_parallel::JobSpec;
use sime_server::{serve_connection, Event, Request, Server, ServerConfig, Session, SubmitRequest};
use std::io::{Cursor, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use vlsi_place::cost::Objectives;

const TIMEOUT: Duration = Duration::from_secs(300);

fn spec(iterations: usize) -> JobSpec {
    JobSpec::batch(ScenarioSpec {
        circuit: "s1196".into(),
        strategy: StrategyKind::Type2(RowPattern::Random),
        ranks: 3,
        iterations,
        objectives: Objectives::WirelengthPower,
        workers: None,
        eval_chunks: 1,
        warm_start: None,
    })
}

fn submit(session: &Session, id: &str, spec: JobSpec) {
    session.request(Request::Submit(SubmitRequest {
        id: id.into(),
        spec,
    }));
}

fn expect_error(session: &Session, code: &str) {
    match session.next_event(TIMEOUT) {
        Some(Event::Error { code: got, .. }) => assert_eq!(got, code),
        other => panic!("expected `{code}` error, got {other:?}"),
    }
}

fn assert_drained_clean(server: &Arc<Server>) {
    server.drain();
    let stats = server.stats();
    assert_eq!(stats.active, 0, "leaked active slot");
    assert_eq!(stats.queued, 0, "leaked queued job");
    assert_eq!(server.pool().queued_jobs(), 0, "leaked work in a pool lane");
}

/// A submit so large it can never run: used as the slot blocker for the
/// deterministic cancellation-race tests (always cancelled, never finishes
/// on its own within any plausible test runtime).
const BLOCKER_ITERATIONS: usize = 1_000_000;

#[test]
fn malformed_and_invalid_requests_return_typed_errors_and_leave_the_pool_usable() {
    let server = Server::new(ServerConfig::default());
    let session = Session::new(Arc::clone(&server));

    session.handle_line("this is not json");
    expect_error(&session, "malformed_request");

    session.handle_line("{\"op\":\"fly\"}");
    expect_error(&session, "malformed_request");

    // Nesting past the JSON reader's depth limit is a typed error, not a
    // stack overflow; the line is well under `max_request_bytes`.
    session.handle_line(&"[".repeat(60_000));
    expect_error(&session, "malformed_request");

    // An integer at or above 2^53 would reach the job already rounded (this
    // seed reads back as 2^53), so two distinct requests could replay one
    // trajectory: it is rejected instead.
    session.handle_line(
        "{\"op\":\"submit\",\"id\":\"big-seed\",\"circuit\":\"s1196\",\
         \"strategy\":\"type1\",\"ranks\":2,\"iterations\":1,\"seed\":9007199254740993}",
    );
    expect_error(&session, "malformed_request");

    // Unknown circuit: rejected at admission, never queued.
    let mut bad = spec(2);
    bad.scenario.circuit = "not_a_circuit".into();
    submit(&session, "bad-circuit", bad);
    expect_error(&session, "unknown_circuit");

    // Strategy invariant violations map to JobError codes.
    let mut bad = spec(2);
    bad.scenario.ranks = 1;
    submit(&session, "bad-ranks", bad);
    expect_error(&session, "too_few_ranks");

    let bad = spec(0);
    submit(&session, "bad-iterations", bad);
    expect_error(&session, "no_iterations");

    // Oversized request: size gate fires before the JSON is interpreted.
    let huge = format!(
        "{{\"op\":\"submit\",\"pad\":\"{}\"}}",
        "x".repeat(server.config().max_request_bytes)
    );
    session.handle_line(&huge);
    expect_error(&session, "oversized_request");

    // After the error storm, a real job still runs to completion.
    submit(&session, "recovery", spec(2));
    let events = session
        .wait_for_terminal("recovery", TIMEOUT)
        .expect("recovery job finishes");
    assert!(matches!(events.last(), Some(Event::Done { .. })));
    assert_eq!(server.stats().finished, 1, "only the real job ran");
    assert_drained_clean(&server);
}

#[test]
fn one_submit_line_with_huge_counts_cannot_abort_the_server() {
    // Regression: both lines used to pass parsing and validation and then
    // abort the whole process on a multi-terabyte preallocation.
    let server = Server::new(ServerConfig::default());
    let session = Session::new(Arc::clone(&server));

    session.handle_line(
        "{\"op\":\"submit\",\"id\":\"many-ranks\",\"circuit\":\"s1196\",\
         \"strategy\":\"type3\",\"ranks\":1e12,\"iterations\":1}",
    );
    expect_error(&session, "too_many_ranks");

    session.handle_line(
        "{\"op\":\"submit\",\"id\":\"many-iterations\",\"circuit\":\"s1196\",\
         \"strategy\":\"type1\",\"ranks\":2,\"iterations\":1e12}",
    );
    assert!(matches!(
        session.next_event(TIMEOUT),
        Some(Event::Accepted { .. })
    ));
    loop {
        match session.next_event(TIMEOUT) {
            Some(Event::Progress { iteration: 0, .. }) => break,
            Some(Event::Progress { .. }) => continue,
            other => panic!("expected first progress checkpoint, got {other:?}"),
        }
    }
    session.request(Request::Cancel {
        id: "many-iterations".into(),
    });
    let events = session
        .wait_for_terminal("many-iterations", TIMEOUT)
        .expect("the huge job reaches a terminal event");
    assert!(
        matches!(events.last(), Some(Event::Cancelled { .. })),
        "{events:?}"
    );
    assert_drained_clean(&server);
}

#[test]
fn warm_start_registration_and_errors_flow_through_the_wire() {
    let server = Server::new(ServerConfig::default());
    let session = Session::new(Arc::clone(&server));

    // A warm submit naming an unregistered tag fails with a typed error
    // (post-admission: the tag resolves against the job's circuit at run
    // time).
    let mut warm = spec(2);
    warm.scenario.warm_start = Some("never_registered".into());
    submit(&session, "warm-unknown", warm);
    let events = session
        .wait_for_terminal("warm-unknown", TIMEOUT)
        .expect("warm job reaches a terminal event");
    match events.last() {
        Some(Event::Error { code, .. }) => assert_eq!(code, "unknown_warm_start"),
        other => panic!("expected unknown_warm_start, got {other:?}"),
    }

    // Register the round-robin layout over the wire, then warm-start from
    // it: the run must match the builtin `rr` tag bitwise (same `.pl`
    // content → same trajectory).
    let runner = server.runner();
    let (netlist, _) = runner.netlist("s1196").unwrap();
    let num_rows = vlsi_netlist::bench_suite::SuiteCircuit::from_name("s1196")
        .unwrap()
        .num_rows();
    let rr = vlsi_place::Placement::round_robin(&netlist, num_rows);
    let pl_text = vlsi_netlist::bookshelf::write_pl(&vlsi_place::placement_to_pl(&netlist, &rr));
    let expected_digest = sime_parallel::pl_digest(&pl_text);
    session.request(Request::RegisterPlacement {
        tag: "wire_rr".into(),
        pl: pl_text,
    });
    match session.next_event(TIMEOUT) {
        Some(Event::Registered { tag, digest }) => {
            assert_eq!(tag, "wire_rr");
            assert_eq!(digest, expected_digest);
        }
        other => panic!("expected registered event, got {other:?}"),
    }

    let run_warm = |id: &str, tag: &str| {
        let mut warm = spec(2);
        warm.scenario.warm_start = Some(tag.into());
        submit(&session, id, warm);
        let events = session
            .wait_for_terminal(id, TIMEOUT)
            .expect("warm job finishes");
        match events.last() {
            Some(Event::Done { fingerprint, .. }) => fingerprint.clone(),
            other => panic!("expected done, got {other:?}"),
        }
    };
    let registered_fp = run_warm("warm-wire", "wire_rr");
    let builtin_fp = run_warm("warm-builtin", "rr");
    let (_, registered) = sime_parallel::batch::TrajectoryFingerprint::parse_text(&registered_fp)
        .expect("parsable fingerprint");
    let (_, builtin) = sime_parallel::batch::TrajectoryFingerprint::parse_text(&builtin_fp)
        .expect("parsable fingerprint");
    assert_eq!(
        registered, builtin,
        "identical .pl content must replay the identical trajectory"
    );
    assert_drained_clean(&server);
}

#[test]
fn duplicate_ids_and_full_queues_are_typed_rejections() {
    let server = Server::new(ServerConfig {
        workers: 1,
        max_active: 1,
        max_queue: 1,
        ..ServerConfig::default()
    });
    let session = Session::new(Arc::clone(&server));

    submit(&session, "blocker", spec(BLOCKER_ITERATIONS));
    assert!(matches!(
        session.next_event(TIMEOUT),
        Some(Event::Accepted {
            queued_ahead: 0,
            ..
        })
    ));

    // Same id again → duplicate, regardless of phase.
    submit(&session, "blocker", spec(2));
    expect_error(&session, "duplicate_job");

    // One queue slot: the first waiter is accepted, the second bounces.
    submit(&session, "waiter", spec(2));
    assert!(matches!(
        session.next_event(TIMEOUT),
        Some(Event::Accepted { .. })
    ));
    submit(&session, "overflow", spec(2));
    expect_error(&session, "queue_full");

    // Unblock: cancel the blocker; the waiter then runs to completion.
    session.request(Request::Cancel {
        id: "blocker".into(),
    });
    let events = session
        .wait_for_terminal("waiter", TIMEOUT)
        .expect("waiter runs after the blocker is cancelled");
    assert!(matches!(events.last(), Some(Event::Done { .. })));
    assert_drained_clean(&server);
}

#[test]
fn cancellation_races_before_start_mid_run_and_after_completion() {
    let server = Server::new(ServerConfig {
        workers: 1,
        max_active: 1,
        max_queue: 4,
        ..ServerConfig::default()
    });
    let session = Session::new(Arc::clone(&server));

    // Cancel a job the server never saw.
    session.request(Request::Cancel {
        id: "never-submitted".into(),
    });
    expect_error(&session, "unknown_job");

    // Occupy the only slot and wait until it is demonstrably running (its
    // first µ-checkpoint arrived).
    submit(&session, "blocker", spec(BLOCKER_ITERATIONS));
    assert!(matches!(
        session.next_event(TIMEOUT),
        Some(Event::Accepted { .. })
    ));
    loop {
        match session.next_event(TIMEOUT) {
            Some(Event::Progress { iteration: 0, .. }) => break,
            Some(Event::Progress { .. }) => continue,
            other => panic!("expected first progress checkpoint, got {other:?}"),
        }
    }

    // Race 1 — cancel BEFORE START: the victim is queued behind the blocker
    // and can deterministically never have started.
    submit(&session, "victim", spec(3));
    assert!(matches!(
        session.next_event(TIMEOUT),
        Some(Event::Accepted { .. })
    ));
    session.request(Request::Cancel {
        id: "victim".into(),
    });
    match session.next_event(TIMEOUT) {
        Some(Event::Cancelled { id, iterations }) => {
            assert_eq!(id, "victim");
            assert_eq!(iterations, 0, "a never-started job ran no iterations");
        }
        other => panic!("expected before-start cancellation, got {other:?}"),
    }

    // Race 2 — cancel MID-RUN: the blocker stops at its next iteration
    // boundary with a strict prefix of its requested schedule.
    session.request(Request::Cancel {
        id: "blocker".into(),
    });
    let events = session
        .wait_for_terminal("blocker", TIMEOUT)
        .expect("blocker reaches a terminal event");
    match events.last() {
        Some(Event::Cancelled { iterations, .. }) => {
            assert!(*iterations >= 1, "at least the observed iteration ran");
            assert!(
                *iterations < BLOCKER_ITERATIONS,
                "cancellation must truncate the run"
            );
        }
        other => panic!("expected mid-run cancellation, got {other:?}"),
    }

    // Race 3 — cancel AFTER COMPLETION: a typed error, not a wedge.
    submit(&session, "quick", spec(2));
    let events = session
        .wait_for_terminal("quick", TIMEOUT)
        .expect("quick job finishes");
    assert!(matches!(events.last(), Some(Event::Done { .. })));
    session.request(Request::Cancel { id: "quick".into() });
    expect_error(&session, "job_finished");
    // Cancelling an already-cancelled job is equally terminal.
    session.request(Request::Cancel {
        id: "victim".into(),
    });
    expect_error(&session, "job_finished");

    assert_drained_clean(&server);
}

/// A writer whose client has vanished: every write fails.
struct BrokenPipe;

impl Write for BrokenPipe {
    fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
        Err(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "client went away",
        ))
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn mid_job_disconnect_never_wedges_the_pool() {
    let server = Server::new(ServerConfig {
        workers: 1,
        max_active: 1,
        ..ServerConfig::default()
    });

    // A client submits a job, then its connection dies: reads hit EOF and
    // every write fails. serve_connection must still return (after the job
    // reaches its terminal state) instead of wedging.
    let request = Request::Submit(SubmitRequest {
        id: "doomed-client".into(),
        spec: spec(3),
    });
    let input = format!("{}\n", request.render());
    let saw_shutdown = serve_connection(Arc::clone(&server), Cursor::new(input), BrokenPipe);
    assert!(!saw_shutdown);

    // The job ran to completion server-side; nothing leaked.
    assert_eq!(server.stats().finished, 1);

    // And the pool immediately serves the next, healthy client.
    let session = Session::new(Arc::clone(&server));
    submit(&session, "healthy", spec(2));
    let events = session
        .wait_for_terminal("healthy", TIMEOUT)
        .expect("job after the disconnect completes");
    assert!(matches!(events.last(), Some(Event::Done { .. })));
    assert_drained_clean(&server);
}

#[test]
fn dropping_a_session_mid_run_discards_events_but_jobs_still_terminate() {
    let server = Server::new(ServerConfig {
        workers: 1,
        max_active: 1,
        ..ServerConfig::default()
    });
    {
        let session = Session::new(Arc::clone(&server));
        submit(&session, "orphan", spec(BLOCKER_ITERATIONS));
        assert!(matches!(
            session.next_event(TIMEOUT),
            Some(Event::Accepted { .. })
        ));
        // The session (and its event channel) dies here with the job running.
    }
    // Another session can still cancel the orphan; its terminal event goes
    // nowhere, harmlessly.
    let other = Session::new(Arc::clone(&server));
    other.request(Request::Cancel {
        id: "orphan".into(),
    });
    assert_drained_clean(&server);
    assert_eq!(server.stats().finished, 1);
}

#[test]
fn shutdown_drains_and_rejects_new_submissions() {
    let server = Server::new(ServerConfig::default());
    let session = Session::new(Arc::clone(&server));
    submit(&session, "last", spec(2));
    session.request(Request::Shutdown);
    // Shutdown returns only after the drain: the submitted job finished.
    let bye_seen = {
        let mut done = false;
        let mut bye = false;
        while let Some(event) = session.next_event(Duration::from_millis(200)) {
            match event {
                Event::Done { .. } => done = true,
                Event::Bye => bye = true,
                _ => {}
            }
        }
        assert!(done, "the admitted job ran to completion before the bye");
        bye
    };
    assert!(bye_seen);
    submit(&session, "too-late", spec(2));
    expect_error(&session, "server_shutdown");
    assert_eq!(server.pool().queued_jobs(), 0);
}

#[test]
fn concurrent_error_storms_do_not_disturb_running_jobs() {
    // One client hammers the server with garbage while another runs real
    // jobs; the real jobs' fingerprints must be unaffected (same bits as a
    // quiet server produces).
    let quiet = {
        let server = Server::new(ServerConfig::default());
        let session = Session::new(Arc::clone(&server));
        submit(&session, "ref", spec(3));
        let events = session.wait_for_terminal("ref", TIMEOUT).unwrap();
        let Some(Event::Done { fingerprint, .. }) = events.last().cloned() else {
            panic!("reference job must finish");
        };
        server.drain();
        fingerprint
    };

    let server = Server::new(ServerConfig::default());
    let noisy_fingerprint = Mutex::new(String::new());
    std::thread::scope(|scope| {
        let storm_server = Arc::clone(&server);
        scope.spawn(move || {
            let session = Session::new(storm_server);
            for i in 0..50 {
                session.handle_line("not json at all");
                session.handle_line(&format!("{{\"op\":\"cancel\",\"id\":\"ghost-{i}\"}}"));
            }
        });
        let run_server = Arc::clone(&server);
        let noisy_fingerprint = &noisy_fingerprint;
        scope.spawn(move || {
            let session = Session::new(run_server);
            submit(&session, "real", spec(3));
            let events = session.wait_for_terminal("real", TIMEOUT).unwrap();
            let Some(Event::Done { fingerprint, .. }) = events.last().cloned() else {
                panic!("real job must finish despite the storm");
            };
            *noisy_fingerprint.lock().unwrap() = fingerprint;
        });
    });
    assert_eq!(
        *noisy_fingerprint.lock().unwrap(),
        quiet,
        "error traffic must not perturb a running job's trajectory"
    );
    assert_drained_clean(&server);
}
