//! Small statistics helpers: percentiles of samples, window deltas of
//! the proxy's cumulative latency histograms, and a peak-RSS sampler.

use funcproxy::observe::{HistogramSnapshot, Observer, PathClass, Phase};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Nearest-rank percentile (`0 < q ≤ 1`) of unsorted values; 0 when
/// empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// One phase's histogram merged over every serving path.
pub fn phase_snapshot(obs: &Observer, phase: Phase) -> HistogramSnapshot {
    let mut merged = HistogramSnapshot::default();
    for path in PathClass::ALL {
        merged.merge(&obs.phase_histogram(phase, path).snapshot());
    }
    merged
}

/// Log-spaced thresholds (2 % apart, 50 ns to ~100 s) the window delta
/// of two cumulative snapshots is resolved on.
const GRID_STEP: f64 = 1.02;
const GRID_LEN: usize = 1100;

fn grid(j: usize) -> u64 {
    (50.0 * GRID_STEP.powi(j as i32)) as u64
}

/// Samples recorded between two snapshots of one histogram.
pub struct Window {
    before: HistogramSnapshot,
    after: HistogramSnapshot,
}

impl Window {
    pub fn new(before: HistogramSnapshot, after: HistogramSnapshot) -> Window {
        Window { before, after }
    }

    pub fn count(&self) -> u64 {
        self.after.count() - self.before.count()
    }

    fn le(&self, ns: u64) -> u64 {
        self.after.cumulative_le_ns(ns) - self.before.cumulative_le_ns(ns)
    }

    /// The `q`-quantile of the window's samples, in ms: located on the 2 %
    /// grid, then interpolated linearly inside its grid cell by rank, so
    /// it moves with the samples rather than snapping to grid points
    /// (0 when the window is empty).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let (mut lo, mut hi) = (0usize, GRID_LEN);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.le(grid(mid)) >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        if lo == 0 {
            return grid(0) as f64 / 1e6;
        }
        let (g0, g1) = (grid(lo - 1) as f64, grid(lo) as f64);
        let (c0, c1) = (self.le(grid(lo - 1)), self.le(grid(lo)));
        let frac = (target - c0) as f64 / (c1 - c0) as f64;
        (g0 + (g1 - g0) * frac) / 1e6
    }
}

/// Samples the process RSS every few milliseconds on its own thread and
/// keeps the peak. It also publishes its own CPU time, so a CPU window
/// can exclude it.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    cpu_ns: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl RssSampler {
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(crate::sys::rss_bytes()));
        let cpu_ns = Arc::new(AtomicU64::new(0));
        let thread = {
            let (stop, peak, cpu_ns) = (Arc::clone(&stop), Arc::clone(&peak), Arc::clone(&cpu_ns));
            std::thread::spawn(move || {
                let cpu0 = crate::sys::thread_cpu_ns();
                while !stop.load(Ordering::SeqCst) {
                    peak.fetch_max(crate::sys::rss_bytes(), Ordering::Relaxed);
                    cpu_ns.store(crate::sys::thread_cpu_ns() - cpu0, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(10));
                }
            })
        };
        RssSampler {
            stop,
            peak,
            cpu_ns,
            thread: Some(thread),
        }
    }

    /// Restarts peak tracking from the current RSS.
    pub fn reset(&self) {
        self.peak.store(crate::sys::rss_bytes(), Ordering::Relaxed);
    }

    /// Peak RSS seen so far, bytes.
    pub fn peak(&self) -> u64 {
        self.peak
            .load(Ordering::Relaxed)
            .max(crate::sys::rss_bytes())
    }

    /// CPU the sampler thread has used so far, ns.
    pub fn cpu_ns(&self) -> u64 {
        self.cpu_ns.load(Ordering::Relaxed)
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
