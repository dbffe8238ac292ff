//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's side, around each call into
//! a layer (no span lives inside the program under test). They are kept
//! in memory and written out as JSON lines when the run ends.
//!
//! A span's *self time* is its duration minus its children's durations,
//! so the self times of one request's spans always sum to the duration
//! of its root span. For the served workloads the root is the routed
//! round trip and its descendants are replays of the same request one
//! hop further in (direct to the owning backend, then in process): a
//! replay is the child of the span it stands in for, not of the time
//! interval it ran in.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u32,
    /// The span this one is attributed to.
    pub parent: Option<u32>,
    /// Request (or grid pass) id shared by one request's spans.
    pub request: u64,
    /// Layer name, e.g. `router.hop`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a span id, so children can name a parent that is
    /// recorded after them (with [`Tracer::record_as`]).
    pub fn reserve(&self) -> u32 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        self.record_as(self.reserve(), name, parent, request, start, end)
    }

    /// [`Tracer::record`] under an id from [`Tracer::reserve`].
    pub fn record_as(
        &self,
        id: u32,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span store poisoned").push(span);
        id
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Self time (ns, may be negative when a replay ran slower than
    /// the span it stands in for) of every span, by id.
    pub fn self_times(spans: &[Span]) -> HashMap<u32, i64> {
        let mut own: HashMap<u32, i64> = spans
            .iter()
            .map(|s| (s.id, s.duration_ns() as i64))
            .collect();
        for s in spans {
            if let Some(p) = s.parent {
                if let Some(v) = own.get_mut(&p) {
                    *v -= s.duration_ns() as i64;
                }
            }
        }
        own
    }

    /// Checks, for every root span named `root`, that the self times of
    /// its request's spans sum to the root's duration; returns the
    /// number of requests checked or the first mismatch.
    pub fn check_sums(spans: &[Span], root: &str) -> Result<usize, String> {
        let selfs = Tracer::self_times(spans);
        let mut by_request: HashMap<u64, i64> = HashMap::new();
        for s in spans {
            *by_request.entry(s.request).or_default() += selfs[&s.id];
        }
        let mut checked = 0;
        for s in spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
        {
            let sum = by_request[&s.request];
            if sum != s.duration_ns() as i64 {
                return Err(format!(
                    "request {}: layer self times sum to {sum} ns, round trip took {} ns",
                    s.request,
                    s.duration_ns()
                ));
            }
            checked += 1;
        }
        Ok(checked)
    }

    /// Self times in `unit_ns` units of every span named `name`.
    pub fn self_of(spans: &[Span], name: &str, unit_ns: f64) -> Vec<f64> {
        let selfs = Tracer::self_times(spans);
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| selfs[&s.id] as f64 / unit_ns)
            .collect()
    }

    /// Durations in `unit_ns` units of every span named `name`.
    pub fn durations_of(spans: &[Span], name: &str, unit_ns: f64) -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / unit_ns)
            .collect()
    }

    /// Renders every span as one JSON object per line.
    pub fn to_jsonl(spans: &[Span]) -> String {
        let selfs = Tracer::self_times(spans);
        let mut out = String::new();
        for s in spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns, selfs[&s.id]
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_telescope_to_the_root() {
        let t = Tracer::new();
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let root = t.record("routed", None, 7, at(0), at(100));
        let direct = t.record("direct", Some(root), 7, at(200), at(260));
        t.record("protocol.parse", Some(direct), 7, at(300), at(305));
        t.record("service.submit", Some(direct), 7, at(310), at(330));
        let spans = t.spans();
        assert_eq!(Tracer::check_sums(&spans, "routed"), Ok(1));
        assert_eq!(Tracer::self_of(&spans, "routed", 1e3), vec![40.0]);
        assert_eq!(Tracer::self_of(&spans, "direct", 1e3), vec![35.0]);
        assert!(Tracer::to_jsonl(&spans).lines().count() == 4);
    }
}
