//! The benchmark's origin: `SiteOrigin` behind a decorator that counts
//! fetches, result bytes and rows, and holds each answer back for a real
//! wide-area delay — a fixed round trip plus a per-byte transfer time —
//! so fetching fewer bytes shows in wall time. The delay is switched off
//! during set-up.

use crate::spans::{self, SpanLog};
use fp_skyserver::result::QueryOutcome;
use fp_skyserver::SkySite;
use fp_sqlmini::Query;
use funcproxy::{Origin, OriginError, SiteOrigin};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fixed round trip added to every origin answer.
pub const ROUND_TRIP: Duration = Duration::from_millis(5);
/// Transfer time per [`TRANSFER_UNIT_BYTES`] of result XML.
pub const TRANSFER_PER_UNIT: Duration = Duration::from_millis(1);
pub const TRANSFER_UNIT_BYTES: u64 = 100_000;

/// Cumulative origin counters; subtract two to get a window's worth.
#[derive(Debug, Clone, Copy, Default)]
pub struct OriginTotals {
    pub fetches: u64,
    pub remainder_fetches: u64,
    pub bytes: u64,
    pub rows: u64,
    /// CPU the executions themselves burned (thread CPU clock).
    pub exec_cpu_ns: u64,
    /// Wide-area delay slept, ns.
    pub wait_ns: u64,
}

impl std::ops::Sub for OriginTotals {
    type Output = OriginTotals;
    fn sub(self, o: OriginTotals) -> OriginTotals {
        OriginTotals {
            fetches: self.fetches - o.fetches,
            remainder_fetches: self.remainder_fetches - o.remainder_fetches,
            bytes: self.bytes - o.bytes,
            rows: self.rows - o.rows,
            exec_cpu_ns: self.exec_cpu_ns - o.exec_cpu_ns,
            wait_ns: self.wait_ns - o.wait_ns,
        }
    }
}

#[derive(Default)]
struct Counters {
    fetches: AtomicU64,
    remainder_fetches: AtomicU64,
    bytes: AtomicU64,
    rows: AtomicU64,
    exec_cpu_ns: AtomicU64,
    wait_ns: AtomicU64,
}

pub struct WanOrigin {
    inner: SiteOrigin,
    wait: AtomicBool,
    counters: Counters,
    /// Wall time of each execution (without the delay), ns.
    exec_ns: Mutex<Vec<u64>>,
    spans: Option<Arc<SpanLog>>,
}

impl WanOrigin {
    pub fn new(site: SkySite, spans: Option<Arc<SpanLog>>) -> WanOrigin {
        WanOrigin {
            inner: SiteOrigin::new(site),
            wait: AtomicBool::new(false),
            counters: Counters::default(),
            exec_ns: Mutex::new(Vec::new()),
            spans,
        }
    }

    /// Switches the wide-area delay on (timed phases) or off (set-up).
    pub fn set_wait(&self, on: bool) {
        self.wait.store(on, Ordering::SeqCst);
    }

    pub fn totals(&self) -> OriginTotals {
        let c = &self.counters;
        OriginTotals {
            fetches: c.fetches.load(Ordering::Relaxed),
            remainder_fetches: c.remainder_fetches.load(Ordering::Relaxed),
            bytes: c.bytes.load(Ordering::Relaxed),
            rows: c.rows.load(Ordering::Relaxed),
            exec_cpu_ns: c.exec_cpu_ns.load(Ordering::Relaxed),
            wait_ns: c.wait_ns.load(Ordering::Relaxed),
        }
    }

    /// Execution wall times recorded since the last call, ns.
    pub fn take_exec_ns(&self) -> Vec<u64> {
        std::mem::take(&mut *self.exec_ns.lock().expect("exec log lock"))
    }
}

/// The delay an answer of `bytes` result bytes is held back for.
fn wan_delay(bytes: u64) -> Duration {
    ROUND_TRIP + TRANSFER_PER_UNIT.mul_f64(bytes as f64 / TRANSFER_UNIT_BYTES as f64)
}

impl Origin for WanOrigin {
    fn execute(&self, query: &Query) -> Result<QueryOutcome, OriginError> {
        let started = Instant::now();
        let cpu0 = crate::sys::thread_cpu_ns();
        let out = self.inner.execute(query);
        let cpu = crate::sys::thread_cpu_ns() - cpu0;
        let exec = started.elapsed();
        let c = &self.counters;
        c.exec_cpu_ns.fetch_add(cpu, Ordering::Relaxed);
        self.exec_ns
            .lock()
            .expect("exec log lock")
            .push(exec.as_nanos() as u64);
        if let Ok(o) = &out {
            let bytes = o.stats.result_bytes as u64;
            c.fetches.fetch_add(1, Ordering::Relaxed);
            c.bytes.fetch_add(bytes, Ordering::Relaxed);
            c.rows.fetch_add(o.result.len() as u64, Ordering::Relaxed);
            // A remainder query is the original plus `AND NOT (...)`
            // per excluded cached region.
            if query.to_sql().contains("NOT (") {
                c.remainder_fetches.fetch_add(1, Ordering::Relaxed);
            }
            if self.wait.load(Ordering::SeqCst) {
                let delay = wan_delay(bytes);
                std::thread::sleep(delay);
                c.wait_ns
                    .fetch_add(delay.as_nanos() as u64, Ordering::Relaxed);
            }
        }
        if let Some(log) = &self.spans {
            let req = spans::current_request();
            log.record(req, "origin.exec", started, exec);
            log.record(req, "origin.fetch", started, started.elapsed());
        }
        out
    }

    fn supports_remainder(&self) -> bool {
        self.inner.supports_remainder()
    }
}
