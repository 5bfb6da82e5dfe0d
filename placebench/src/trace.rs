//! In-memory span recording for the traced runs.
//!
//! Spans are recorded only here, around calls into the crates' public
//! functions; nothing inside the program is instrumented. Each recorder
//! belongs to one thread, keeps its spans in memory, and is written out when
//! the benchmark ends.

use bench::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: a name, start and end in nanoseconds since the recorder's
/// origin, the enclosing span and the job it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, as used in the per-layer metric names.
    pub name: String,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The job the span belongs to.
    pub job: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread. A disabled recorder records nothing, so one
/// code path serves the traced and the untraced runs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans when `enabled`.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name` of job `job`, nested under the
    /// innermost span still open.
    pub fn span<T>(&mut self, name: &str, job: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Records a span whose interval was measured by the caller (e.g. a
    /// protocol round trip observed from two events).
    pub fn record(&mut self, name: &str, job: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
            job,
        });
    }

    /// Moves every span of `other` into this recorder, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Self time of every span (its duration minus the time its direct
    /// children cover), grouped by span name, in milliseconds.
    pub fn self_ms(&self) -> BTreeMap<String, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let self_ns = span.duration_ns().saturating_sub(children);
            out.entry(span.name.clone())
                .or_default()
                .push(self_ns as f64 / 1e6);
        }
        out
    }

    /// The spans as JSON lines (one object per span), for writing out at the
    /// end of the run.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            let mut map = BTreeMap::new();
            map.insert("id".to_string(), Json::Number(index as f64));
            map.insert("name".to_string(), Json::String(span.name.clone()));
            map.insert("start_ns".to_string(), Json::Number(span.start_ns as f64));
            map.insert("end_ns".to_string(), Json::Number(span.end_ns as f64));
            map.insert(
                "parent".to_string(),
                span.parent.map_or(Json::Null, |p| Json::Number(p as f64)),
            );
            map.insert("job".to_string(), Json::Number(span.job as f64));
            out.push_str(&Json::Object(map).to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tracer = Tracer::new(true, Instant::now());
        tracer.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let self_ms = tracer.self_ms();
        let outer = self_ms["outer"][0];
        let inner = self_ms["inner"][0];
        assert!(inner >= 20.0, "inner {inner}");
        assert!(outer < inner, "outer self {outer} excludes the child");
        assert_eq!(tracer.spans[1].parent, Some(0));
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_runs_the_call() {
        let mut tracer = Tracer::new(false, Instant::now());
        let value = tracer.span("x", 0, |_| 7);
        assert_eq!(value, 7);
        assert!(tracer.self_ms().is_empty());
        assert!(tracer.to_json_lines().is_empty());
    }

    #[test]
    fn absorbed_spans_keep_their_parent_links() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        a.span("a", 0, |_| ());
        let mut b = Tracer::new(true, origin);
        b.span("b", 1, |t| t.span("c", 1, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans[2].name, "c");
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.to_json_lines().lines().count(), 3);
    }
}
