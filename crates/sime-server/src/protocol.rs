//! The line-delimited JSON protocol spoken by the placement server.
//!
//! One request per line from the client, one event per line from the server,
//! over any byte stream (stdio or TCP — the framing is identical). Requests
//! are [`Request`]s, server messages are [`Event`]s; both sides render with
//! [`bench::json::Json`] so the wire format needs no external serializer.
//!
//! Every failure is a **typed** [`Event::Error`] carrying a stable
//! machine-readable `code` (see [`ProtocolError`]); the server never answers
//! a bad line by closing the stream or by wedging the worker pool.
//!
//! The authoritative result artifact in a [`Event::Done`] is `fingerprint`:
//! the full [`sime_parallel::TrajectoryFingerprint`] text, bitwise identical
//! to what the batch path (`scenario_matrix`) writes into `tests/golden/` for
//! the same scenario. The golden registry is therefore the server's
//! correctness oracle.
//!
//! ```
//! use sime_server::protocol::{Event, Request};
//!
//! // A submit line, as a client would send it:
//! let line = r#"{"op":"submit","id":"j1","circuit":"s1196",
//!                "strategy":"type2_random","ranks":3,"iterations":5}"#;
//! let req = Request::parse_line(line, 4096).unwrap();
//! match &req {
//!     Request::Submit(submit) => {
//!         assert_eq!(submit.id, "j1");
//!         assert_eq!(submit.spec.scenario.id(), "s1196.type2_random.r3.i5.wp");
//!         assert_eq!(submit.spec.seed, None, "no seed → batch-path default");
//!     }
//!     _ => unreachable!(),
//! }
//! // Requests render back to a single line that re-parses identically.
//! let rendered = req.render();
//! assert!(!rendered.contains('\n'));
//! assert_eq!(Request::parse_line(&rendered, 4096).unwrap(), req);
//!
//! // Server events round-trip the same way:
//! let event = Event::Progress { id: "j1".into(), iteration: 3, mu: 0.5, best_mu: 0.75 };
//! assert_eq!(Event::parse_line(&event.render()).unwrap(), event);
//! ```

use bench::json::Json;
use sime_parallel::batch::{objectives_from_tag, objectives_tag, StrategyKind};
use sime_parallel::{JobSpec, ScenarioSpec};
use std::collections::BTreeMap;
use std::fmt;

/// A typed protocol failure: a stable machine-readable `code` plus a
/// human-readable `message`. Codes are part of the wire contract and never
/// change meaning:
///
/// | code | meaning |
/// |------|---------|
/// | `oversized_request` | the request line exceeds the server's byte limit |
/// | `malformed_request` | the line is not valid JSON, or the JSON is not a valid request shape |
/// | `duplicate_job` | a submit reuses a job id the server already knows |
/// | `unknown_job` | a cancel names a job id the server has never seen |
/// | `job_finished` | a cancel arrived after the job already finished |
/// | `queue_full` | admission control rejected the job (queue at capacity) |
/// | `server_shutdown` | the server is draining and accepts no new jobs |
/// | `unknown_circuit`, `too_few_ranks`, `too_many_ranks`, `no_iterations`, `bad_bookshelf` | passed through from [`sime_parallel::JobError::code`] |
/// | `unknown_warm_start`, `bad_placement`, `fixed_cells_unsupported` | likewise passed through: the submit's `warm_start` tag is unregistered, its `.pl` is invalid for the circuit, or the strategy cannot host fixed cells |
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Stable machine-readable code (see the table above).
    pub code: String,
    /// Human-readable description.
    pub message: String,
}

impl ProtocolError {
    /// Builds an error with the given code and message.
    pub fn new(code: &str, message: impl Into<String>) -> Self {
        ProtocolError {
            code: code.to_string(),
            message: message.into(),
        }
    }

    /// A `malformed_request` error.
    pub fn malformed(message: impl Into<String>) -> Self {
        ProtocolError::new("malformed_request", message)
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ProtocolError {}

impl From<&sime_parallel::JobError> for ProtocolError {
    fn from(err: &sime_parallel::JobError) -> Self {
        ProtocolError::new(err.code(), err.to_string())
    }
}

/// One job submission: a client-chosen id plus the job to run.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Client-chosen job identifier; must be unique per server lifetime.
    pub id: String,
    /// What to run. `spec.scenario.workers` is carried on the wire but the
    /// server runs every job on its shared pool; `spec.seed` overrides the
    /// batch-path default seed.
    pub spec: JobSpec,
}

/// A client → server request (one JSON object per line, keyed by `"op"`).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `{"op":"submit", ...}` — submit a job.
    Submit(SubmitRequest),
    /// `{"op":"cancel","id":...}` — cancel a queued or running job.
    Cancel {
        /// The job to cancel.
        id: String,
    },
    /// `{"op":"register_placement","tag":...,"pl":...}` — register a
    /// Bookshelf `.pl` layout under a warm-start tag, for later submits to
    /// reference via `warm_start`.
    RegisterPlacement {
        /// The tag future submits name in their `warm_start` field.
        tag: String,
        /// The `.pl` text (newlines JSON-escaped on the wire).
        pl: String,
    },
    /// `{"op":"status"}` — ask for a server status snapshot.
    Status,
    /// `{"op":"shutdown"}` — drain and stop the server.
    Shutdown,
}

fn obj_string(map: &BTreeMap<String, Json>, key: &str) -> Result<String, ProtocolError> {
    match map.get(key) {
        Some(Json::String(s)) => Ok(s.clone()),
        Some(_) => Err(ProtocolError::malformed(format!(
            "field `{key}` must be a string"
        ))),
        None => Err(ProtocolError::malformed(format!(
            "missing required field `{key}`"
        ))),
    }
}

/// 2^53: from here on an `f64` no longer holds every integer, so a wire
/// integer at or above it may already have been rounded by the JSON reader.
const MAX_EXACT_INTEGER: f64 = 9_007_199_254_740_992.0;

/// Whether `n` is a non-negative integer that the wire carried exactly.
fn exact_integer(n: f64) -> bool {
    (0.0..MAX_EXACT_INTEGER).contains(&n) && n.fract() == 0.0
}

fn obj_usize(map: &BTreeMap<String, Json>, key: &str) -> Result<usize, ProtocolError> {
    match map.get(key) {
        Some(Json::Number(n)) if exact_integer(*n) => Ok(*n as usize),
        Some(_) => Err(ProtocolError::malformed(format!(
            "field `{key}` must be a non-negative integer below 2^53"
        ))),
        None => Err(ProtocolError::malformed(format!(
            "missing required field `{key}`"
        ))),
    }
}

fn obj_opt_u64(map: &BTreeMap<String, Json>, key: &str) -> Result<Option<u64>, ProtocolError> {
    match map.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Number(n)) if exact_integer(*n) => Ok(Some(*n as u64)),
        Some(_) => Err(ProtocolError::malformed(format!(
            "field `{key}` must be a non-negative integer below 2^53"
        ))),
    }
}

impl Request {
    /// Parses one request line, enforcing the server's per-line byte limit
    /// *before* parsing (an oversized line is rejected as
    /// `oversized_request` without being interpreted).
    pub fn parse_line(line: &str, max_bytes: usize) -> Result<Request, ProtocolError> {
        if line.len() > max_bytes {
            return Err(ProtocolError::new(
                "oversized_request",
                format!(
                    "request line is {} bytes; the server accepts at most {max_bytes}",
                    line.len()
                ),
            ));
        }
        let json =
            Json::parse(line).map_err(|e| ProtocolError::malformed(format!("bad JSON: {e}")))?;
        let map = match json {
            Json::Object(map) => map,
            _ => return Err(ProtocolError::malformed("a request must be a JSON object")),
        };
        let op = obj_string(&map, "op")?;
        match op.as_str() {
            "submit" => {
                let id = obj_string(&map, "id")?;
                let circuit = obj_string(&map, "circuit")?;
                let strategy_label = obj_string(&map, "strategy")?;
                let strategy = StrategyKind::from_label(&strategy_label).ok_or_else(|| {
                    ProtocolError::malformed(format!("unknown strategy `{strategy_label}`"))
                })?;
                let ranks = obj_usize(&map, "ranks")?;
                let iterations = obj_usize(&map, "iterations")?;
                let objectives = match map.get("objectives") {
                    None => objectives_from_tag("wp").expect("wp is a valid tag"),
                    Some(Json::String(tag)) => objectives_from_tag(tag).ok_or_else(|| {
                        ProtocolError::malformed(format!("unknown objectives tag `{tag}`"))
                    })?,
                    Some(_) => {
                        return Err(ProtocolError::malformed(
                            "field `objectives` must be a string tag",
                        ))
                    }
                };
                let workers = obj_opt_u64(&map, "workers")?.map(|w| w as usize);
                let seed = obj_opt_u64(&map, "seed")?;
                let warm_start = match map.get("warm_start") {
                    None | Some(Json::Null) => None,
                    Some(Json::String(tag)) => Some(tag.clone()),
                    Some(_) => {
                        return Err(ProtocolError::malformed(
                            "field `warm_start` must be a string tag",
                        ))
                    }
                };
                Ok(Request::Submit(SubmitRequest {
                    id,
                    spec: JobSpec {
                        scenario: ScenarioSpec {
                            circuit,
                            strategy,
                            ranks,
                            iterations,
                            objectives,
                            workers,
                            eval_chunks: 1,
                            warm_start,
                        },
                        seed,
                    },
                }))
            }
            "cancel" => Ok(Request::Cancel {
                id: obj_string(&map, "id")?,
            }),
            "register_placement" => Ok(Request::RegisterPlacement {
                tag: obj_string(&map, "tag")?,
                pl: obj_string(&map, "pl")?,
            }),
            "status" => Ok(Request::Status),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtocolError::malformed(format!("unknown op `{other}`"))),
        }
    }

    /// Renders the request as one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let mut map = BTreeMap::new();
        match self {
            Request::Submit(submit) => {
                let scenario = &submit.spec.scenario;
                map.insert("op".into(), Json::String("submit".into()));
                map.insert("id".into(), Json::String(submit.id.clone()));
                map.insert("circuit".into(), Json::String(scenario.circuit.clone()));
                map.insert(
                    "strategy".into(),
                    Json::String(scenario.strategy.label().to_string()),
                );
                map.insert("ranks".into(), Json::Number(scenario.ranks as f64));
                map.insert(
                    "iterations".into(),
                    Json::Number(scenario.iterations as f64),
                );
                map.insert(
                    "objectives".into(),
                    Json::String(objectives_tag(scenario.objectives).to_string()),
                );
                if let Some(workers) = scenario.workers {
                    map.insert("workers".into(), Json::Number(workers as f64));
                }
                if let Some(seed) = submit.spec.seed {
                    map.insert("seed".into(), Json::Number(seed as f64));
                }
                if let Some(tag) = &scenario.warm_start {
                    map.insert("warm_start".into(), Json::String(tag.clone()));
                }
            }
            Request::Cancel { id } => {
                map.insert("op".into(), Json::String("cancel".into()));
                map.insert("id".into(), Json::String(id.clone()));
            }
            Request::RegisterPlacement { tag, pl } => {
                map.insert("op".into(), Json::String("register_placement".into()));
                map.insert("tag".into(), Json::String(tag.clone()));
                map.insert("pl".into(), Json::String(pl.clone()));
            }
            Request::Status => {
                map.insert("op".into(), Json::String("status".into()));
            }
            Request::Shutdown => {
                map.insert("op".into(), Json::String("shutdown".into()));
            }
        }
        Json::Object(map).to_string()
    }
}

/// A server → client message (one JSON object per line, keyed by `"event"`).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The job passed admission control. `queued_ahead` is how many jobs sit
    /// in front of it in the FIFO queue (0 = started immediately).
    Accepted {
        /// The submitted job id.
        id: String,
        /// Queue position at admission time.
        queued_ahead: usize,
    },
    /// A µ-checkpoint: emitted after iteration `iteration` completed, at the
    /// same iterations the batch fingerprint samples (powers of two plus the
    /// final iteration).
    Progress {
        /// The running job id.
        id: String,
        /// 0-based iteration that just completed.
        iteration: usize,
        /// µ(s) after this iteration.
        mu: f64,
        /// Best µ(s) seen so far.
        best_mu: f64,
    },
    /// The job ran to completion. `fingerprint` is the full
    /// [`sime_parallel::TrajectoryFingerprint`] text — the golden-comparable
    /// artifact.
    Done {
        /// The finished job id.
        id: String,
        /// The scenario identity (`ScenarioSpec::id`).
        scenario: String,
        /// The seed override the job ran with (absent = batch default).
        seed: Option<u64>,
        /// Iterations actually run.
        iterations: usize,
        /// Best µ(s) of the run.
        final_mu: f64,
        /// Full fingerprint text (`TrajectoryFingerprint::to_text`).
        fingerprint: String,
    },
    /// The job was cancelled — before starting (`iterations` = 0) or
    /// cooperatively between iterations (`iterations` = completed prefix).
    Cancelled {
        /// The cancelled job id.
        id: String,
        /// Iterations that completed before the cancellation took effect.
        iterations: usize,
    },
    /// A typed failure. `id` is absent when the line never parsed far enough
    /// to name a job.
    Error {
        /// The job the error concerns, if the request named one.
        id: Option<String>,
        /// Stable machine-readable code (see [`ProtocolError`]).
        code: String,
        /// Human-readable description.
        message: String,
    },
    /// A warm-start placement was registered.
    Registered {
        /// The tag the placement is now available under.
        tag: String,
        /// [`sime_parallel::pl_digest`] of the stored `.pl` text (hex on the
        /// wire — a JSON number would round through `f64` and lose bits).
        digest: u64,
    },
    /// A status snapshot.
    Status {
        /// Jobs currently running on the shared pool.
        active: usize,
        /// Jobs waiting in the admission queue.
        queued: usize,
        /// Jobs finished (done, cancelled or failed) since startup.
        finished: u64,
    },
    /// The server acknowledged a shutdown and has drained.
    Bye,
}

impl Event {
    /// Renders the event as one JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let mut map = BTreeMap::new();
        match self {
            Event::Accepted { id, queued_ahead } => {
                map.insert("event".into(), Json::String("accepted".into()));
                map.insert("id".into(), Json::String(id.clone()));
                map.insert("queued_ahead".into(), Json::Number(*queued_ahead as f64));
            }
            Event::Progress {
                id,
                iteration,
                mu,
                best_mu,
            } => {
                map.insert("event".into(), Json::String("progress".into()));
                map.insert("id".into(), Json::String(id.clone()));
                map.insert("iteration".into(), Json::Number(*iteration as f64));
                map.insert("mu".into(), Json::Number(*mu));
                map.insert("best_mu".into(), Json::Number(*best_mu));
            }
            Event::Done {
                id,
                scenario,
                seed,
                iterations,
                final_mu,
                fingerprint,
            } => {
                map.insert("event".into(), Json::String("done".into()));
                map.insert("id".into(), Json::String(id.clone()));
                map.insert("scenario".into(), Json::String(scenario.clone()));
                if let Some(seed) = seed {
                    map.insert("seed".into(), Json::Number(*seed as f64));
                }
                map.insert("iterations".into(), Json::Number(*iterations as f64));
                map.insert("final_mu".into(), Json::Number(*final_mu));
                map.insert("fingerprint".into(), Json::String(fingerprint.clone()));
            }
            Event::Cancelled { id, iterations } => {
                map.insert("event".into(), Json::String("cancelled".into()));
                map.insert("id".into(), Json::String(id.clone()));
                map.insert("iterations".into(), Json::Number(*iterations as f64));
            }
            Event::Error { id, code, message } => {
                map.insert("event".into(), Json::String("error".into()));
                if let Some(id) = id {
                    map.insert("id".into(), Json::String(id.clone()));
                }
                map.insert("code".into(), Json::String(code.clone()));
                map.insert("message".into(), Json::String(message.clone()));
            }
            Event::Registered { tag, digest } => {
                map.insert("event".into(), Json::String("registered".into()));
                map.insert("tag".into(), Json::String(tag.clone()));
                map.insert("digest".into(), Json::String(format!("{digest:#018x}")));
            }
            Event::Status {
                active,
                queued,
                finished,
            } => {
                map.insert("event".into(), Json::String("status".into()));
                map.insert("active".into(), Json::Number(*active as f64));
                map.insert("queued".into(), Json::Number(*queued as f64));
                map.insert("finished".into(), Json::Number(*finished as f64));
            }
            Event::Bye => {
                map.insert("event".into(), Json::String("bye".into()));
            }
        }
        Json::Object(map).to_string()
    }

    /// Parses one event line (the client half of the protocol; the load
    /// generator and the test suites consume events through this).
    pub fn parse_line(line: &str) -> Result<Event, ProtocolError> {
        let json =
            Json::parse(line).map_err(|e| ProtocolError::malformed(format!("bad JSON: {e}")))?;
        let map = match json {
            Json::Object(map) => map,
            _ => return Err(ProtocolError::malformed("an event must be a JSON object")),
        };
        let kind = obj_string(&map, "event")?;
        match kind.as_str() {
            "accepted" => Ok(Event::Accepted {
                id: obj_string(&map, "id")?,
                queued_ahead: obj_usize(&map, "queued_ahead")?,
            }),
            "progress" => Ok(Event::Progress {
                id: obj_string(&map, "id")?,
                iteration: obj_usize(&map, "iteration")?,
                mu: obj_f64(&map, "mu")?,
                best_mu: obj_f64(&map, "best_mu")?,
            }),
            "done" => Ok(Event::Done {
                id: obj_string(&map, "id")?,
                scenario: obj_string(&map, "scenario")?,
                seed: obj_opt_u64(&map, "seed")?,
                iterations: obj_usize(&map, "iterations")?,
                final_mu: obj_f64(&map, "final_mu")?,
                fingerprint: obj_string(&map, "fingerprint")?,
            }),
            "cancelled" => Ok(Event::Cancelled {
                id: obj_string(&map, "id")?,
                iterations: obj_usize(&map, "iterations")?,
            }),
            "error" => Ok(Event::Error {
                id: match map.get("id") {
                    Some(Json::String(s)) => Some(s.clone()),
                    _ => None,
                },
                code: obj_string(&map, "code")?,
                message: obj_string(&map, "message")?,
            }),
            "registered" => {
                let hex = obj_string(&map, "digest")?;
                let digest = hex
                    .strip_prefix("0x")
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .ok_or_else(|| {
                        ProtocolError::malformed(format!("bad digest `{hex}`: expected 0x-hex"))
                    })?;
                Ok(Event::Registered {
                    tag: obj_string(&map, "tag")?,
                    digest,
                })
            }
            "status" => Ok(Event::Status {
                active: obj_usize(&map, "active")?,
                queued: obj_usize(&map, "queued")?,
                finished: obj_usize(&map, "finished")? as u64,
            }),
            "bye" => Ok(Event::Bye),
            other => Err(ProtocolError::malformed(format!("unknown event `{other}`"))),
        }
    }
}

fn obj_f64(map: &BTreeMap<String, Json>, key: &str) -> Result<f64, ProtocolError> {
    match map.get(key) {
        Some(Json::Number(n)) => Ok(*n),
        Some(_) => Err(ProtocolError::malformed(format!(
            "field `{key}` must be a number"
        ))),
        None => Err(ProtocolError::malformed(format!(
            "missing required field `{key}`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_place::cost::Objectives;

    fn sample_submit() -> Request {
        Request::Submit(SubmitRequest {
            id: "job-7".into(),
            spec: JobSpec {
                scenario: ScenarioSpec {
                    circuit: "s1196".into(),
                    strategy: StrategyKind::Type2(sime_parallel::type2::RowPattern::Random),
                    ranks: 3,
                    iterations: 5,
                    objectives: Objectives::WirelengthPower,
                    workers: Some(2),
                    eval_chunks: 1,
                    warm_start: None,
                },
                seed: Some(42),
            },
        })
    }

    #[test]
    fn requests_round_trip() {
        let warm_submit = match sample_submit() {
            Request::Submit(mut submit) => {
                submit.spec.scenario.warm_start = Some("rr".into());
                Request::Submit(submit)
            }
            _ => unreachable!(),
        };
        for req in [
            sample_submit(),
            warm_submit,
            Request::Cancel { id: "j".into() },
            Request::RegisterPlacement {
                tag: "client_rr".into(),
                pl: "UCLA pl 1.0\nc0 0 4 : N\nc1 9 4 : N /FIXED\n".into(),
            },
            Request::Status,
            Request::Shutdown,
        ] {
            let line = req.render();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Request::parse_line(&line, 4096).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn eval_chunks_on_the_wire_is_ignored() {
        // Older clients may still send the removed intra-rank knob; like any
        // unknown submit field it must parse to the request it would be
        // without it.
        let base = "{\"op\":\"submit\",\"id\":\"a\",\"circuit\":\"s1196\",\
                    \"strategy\":\"type2_random\",\"ranks\":3,\"iterations\":5,\"workers\":2";
        let without = Request::parse_line(&format!("{base}}}"), 4096).unwrap();
        let with = Request::parse_line(&format!("{base},\"eval_chunks\":4}}"), 4096).unwrap();
        assert_eq!(with, without);
        assert!(!with.render().contains("eval_chunks"));
    }

    #[test]
    fn events_round_trip() {
        for event in [
            Event::Accepted {
                id: "a".into(),
                queued_ahead: 3,
            },
            Event::Progress {
                id: "a".into(),
                iteration: 7,
                mu: 0.625,
                best_mu: 0.75,
            },
            Event::Done {
                id: "a".into(),
                scenario: "s1196.type1.r3.i5.wp".into(),
                seed: None,
                iterations: 5,
                final_mu: 0.5,
                fingerprint: "circuit s1196\nstrategy type1\n".into(),
            },
            Event::Cancelled {
                id: "a".into(),
                iterations: 2,
            },
            Event::Error {
                id: None,
                code: "malformed_request".into(),
                message: "bad JSON".into(),
            },
            Event::Error {
                id: Some("a".into()),
                code: "unknown_circuit".into(),
                message: "unknown circuit `x`".into(),
            },
            Event::Registered {
                tag: "client_rr".into(),
                digest: 0xdead_beef_0000_0001,
            },
            Event::Status {
                active: 2,
                queued: 5,
                finished: 17,
            },
            Event::Bye,
        ] {
            let line = event.render();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Event::parse_line(&line).unwrap(), event, "{line}");
        }
    }

    #[test]
    fn oversized_lines_are_rejected_before_parsing() {
        let line = format!("{{\"op\":\"submit\",\"pad\":\"{}\"}}", "x".repeat(4096));
        let err = Request::parse_line(&line, 1024).unwrap_err();
        assert_eq!(err.code, "oversized_request");
        // The same line parses (to a shape error) when the limit allows it,
        // proving the size gate fires first.
        let err = Request::parse_line(&line, 1 << 20).unwrap_err();
        assert_eq!(err.code, "malformed_request");
    }

    #[test]
    fn malformed_lines_yield_typed_errors() {
        for bad in [
            "",
            "not json",
            "[1,2,3]",
            "{\"op\":\"fly\"}",
            "{\"op\":\"submit\",\"id\":\"a\"}",
            "{\"op\":\"submit\",\"id\":7,\"circuit\":\"s1196\",\"strategy\":\"type1\",\"ranks\":3,\"iterations\":5}",
            "{\"op\":\"submit\",\"id\":\"a\",\"circuit\":\"s1196\",\"strategy\":\"warp\",\"ranks\":3,\"iterations\":5}",
            "{\"op\":\"submit\",\"id\":\"a\",\"circuit\":\"s1196\",\"strategy\":\"type1\",\"ranks\":-1,\"iterations\":5}",
            "{\"op\":\"submit\",\"id\":\"a\",\"circuit\":\"s1196\",\"strategy\":\"type1\",\"ranks\":3,\"iterations\":5,\"objectives\":\"zz\"}",
            "{\"op\":\"submit\",\"id\":\"a\",\"circuit\":\"s1196\",\"strategy\":\"type1\",\"ranks\":3,\"iterations\":5,\"seed\":1.5}",
            "{\"op\":\"cancel\"}",
        ] {
            let err = Request::parse_line(bad, 4096).unwrap_err();
            assert_eq!(err.code, "malformed_request", "`{bad}` → {err}");
        }
    }

    #[test]
    fn submit_defaults_match_the_batch_path() {
        let line = "{\"op\":\"submit\",\"id\":\"a\",\"circuit\":\"s1196\",\
                    \"strategy\":\"type1\",\"ranks\":3,\"iterations\":5}";
        match Request::parse_line(line, 4096).unwrap() {
            Request::Submit(submit) => {
                let scenario = &submit.spec.scenario;
                assert_eq!(scenario.objectives, Objectives::WirelengthPower);
                assert_eq!(
                    scenario.workers, None,
                    "default backend is modeled-equivalent"
                );
                assert_eq!(submit.spec.seed, None);
            }
            other => panic!("unexpected request {other:?}"),
        }
    }

    #[test]
    fn job_error_codes_pass_through() {
        let err = sime_parallel::JobError::UnknownCircuit("zzz".into());
        let protocol: ProtocolError = (&err).into();
        assert_eq!(protocol.code, "unknown_circuit");
        assert!(protocol.message.contains("zzz"));
    }
}
