//! Spans recorded from the benchmark's own code around each call into
//! a layer: the generator's sends and receipts, the edge service's
//! `try_fast` and `handle`, and the origin decorator. Spans of one
//! request share its id, which travels in the `X-Bench-Req` header and,
//! inside a worker, in a thread-local the origin decorator reads.
//! Spans stay in memory and are written out once the run ends.

use crate::loadgen::PhaseResult;
use fp_edge::{EdgeService, ProxyEdgeService};
use fp_httpd::{Request, Response};
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Span id of work done for no benchmark request (background threads).
pub const NO_REQUEST: u64 = u64::MAX;

thread_local! {
    static REQUEST: Cell<u64> = const { Cell::new(NO_REQUEST) };
}

/// The benchmark request the calling thread is serving, if any.
pub fn current_request() -> u64 {
    REQUEST.with(Cell::get)
}

fn with_request<R>(id: u64, f: impl FnOnce() -> R) -> R {
    let prev = REQUEST.with(|r| r.replace(id));
    let out = f();
    REQUEST.with(|r| r.set(prev));
    out
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    /// Start, ns after the log's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    pub fn record(&self, req: u64, name: &'static str, start: Instant, dur: Duration) {
        let span = Span {
            req,
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        };
        self.spans.lock().expect("span log lock").push(span);
    }

    /// Records the generator's side of a finished phase: per request, a
    /// `gen.lag` span from its due time to its send, and a
    /// `gen.request` span from its due time to its last response byte.
    pub fn record_generator(&self, phase: &PhaseResult, positions: &[usize]) {
        for (s, &p) in phase.samples.iter().zip(positions) {
            let due = phase.started + Duration::from_nanos(s.due_ns);
            self.record(p as u64, "gen.lag", due, Duration::from_nanos(s.lag_ns));
            if let Some(done) = s.done_ns {
                let e2e = Duration::from_nanos(done.saturating_sub(s.due_ns));
                self.record(p as u64, "gen.request", due, e2e);
            }
        }
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.snapshot() {
            writeln!(
                out,
                "{{\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                if s.req == NO_REQUEST {
                    -1
                } else {
                    s.req as i64
                },
                s.name,
                s.start_ns,
                s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// `ProxyEdgeService` with a span around every call the reactor and the
/// workers make into it.
pub struct TracedService {
    pub inner: Arc<ProxyEdgeService>,
    pub log: Arc<SpanLog>,
}

fn request_id(request: &Request) -> u64 {
    request
        .headers
        .get("X-Bench-Req")
        .and_then(|v| v.parse().ok())
        .unwrap_or(NO_REQUEST)
}

impl EdgeService for TracedService {
    fn handle(&self, request: &Request) -> Response {
        let id = request_id(request);
        let start = Instant::now();
        let response = with_request(id, || self.inner.handle(request));
        self.log.record(id, "edge.handle", start, start.elapsed());
        response
    }

    fn try_fast(&self, request: &Request) -> Option<Response> {
        let id = request_id(request);
        let start = Instant::now();
        let response = with_request(id, || self.inner.try_fast(request));
        let name = if response.is_some() {
            "edge.fast"
        } else {
            "edge.decline"
        };
        self.log.record(id, name, start, start.elapsed());
        response
    }

    fn shed_hint(&self) -> Option<u64> {
        self.inner.shed_hint()
    }
}
