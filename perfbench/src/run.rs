//! One benchmark run: prepare inputs from the seed, set the stack up
//! (proxy, warm-up, edge server), drive the timed phases through the
//! open-loop generator, check every answer against the oracle, and
//! reduce everything to named metrics.
//!
//! An untraced run splits its fixed-rate phase over the workload's
//! *parts*: independent traces drawn from sub-seeds of `--seed`, each
//! served by a freshly set-up proxy. Metrics are pooled or taken as the
//! median over parts, so one seed's sky (where its hot spots fall
//! against the catalog's clusters) moves them less.

use crate::layers;
use crate::loadgen::{CacheTag, Generator, PhaseResult, Plan, Sample};
use crate::origin::WanOrigin;
use crate::spans::{SpanLog, TracedService};
use crate::stats::{median, percentile, RssSampler};
use crate::workload::{Census, Inputs, Scale, Workload, FORM};
use fp_edge::{EdgeConfig, EdgeServer, EdgeService, EdgeSnapshot, ProxyEdgeService};
use fp_skyserver::SkySite;
use funcproxy::template::TemplateManager;
use funcproxy::{CostModel, ObserveConfig, Origin, ProxyConfig, ProxyHandle};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Share of `--seconds` spent at the fixed offered rate; the `max_qps`
/// ladder follows.
const FIXED_SHARE: f64 = 0.7;
/// Length of one ladder probe, s.
const PROBE_S: f64 = 1.0;
/// The ladder: rung `k` offers `rate × LADDER_STEP^k`.
const LADDER_STEP: f64 = 1.06;
const LADDER_MIN: i32 = -24;
const LADDER_MAX: i32 = 48;
/// Climb stride, in rungs, before bisecting.
const LADDER_STRIDE: i32 = 8;
/// Samples per latency window: enough that ten lie beyond its p99.
const WINDOW: usize = 1000;

pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// Client connections (one per core).
    pub conns: usize,
    /// Where spans and temporary slab directories go.
    pub out_dir: PathBuf,
    /// Offered rate of the fixed phase (the workload's unless
    /// overridden), requests/s.
    pub rate: f64,
}

/// A named metric value with its unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
    /// Accounting of an untraced run.
    pub checks: Option<Checks>,
}

/// Accounting identities and the census they are judged against.
pub struct Checks {
    /// Edge requests = fast-path serves + offloads + sheds, every part.
    pub edge_identity: bool,
    /// Hits + misses = completed requests, every part.
    pub outcome_identity: bool,
    /// Census of the fixed-rate windows, averaged over parts.
    pub census: Census,
    pub hit_rate: f64,
    pub origin_kb_per_req: f64,
}

/// A proxy behind an edge server, as set up for one timed phase.
pub struct Stack {
    pub handle: ProxyHandle,
    pub origin: Arc<WanOrigin>,
    pub spans: Option<Arc<SpanLog>>,
    server: EdgeServer,
}

impl Stack {
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    pub fn edge(&self) -> EdgeSnapshot {
        self.server.stats()
    }

    pub fn shutdown(self) {
        self.server.shutdown_graceful(Duration::from_secs(2));
        self.handle.quiesce_revalidations();
    }
}

fn build_proxy(
    w: &Workload,
    inputs: &Inputs,
    dir: &Path,
    spans: Option<Arc<SpanLog>>,
) -> (ProxyHandle, Arc<WanOrigin>) {
    let origin = Arc::new(WanOrigin::new(inputs.site.clone(), spans.clone()));
    let observe = if spans.is_some() {
        ObserveConfig::default().with_sample_every(1)
    } else {
        ObserveConfig::default()
    };
    let mut config = ProxyConfig::default()
        .with_cost(CostModel::free())
        .with_capacity(inputs.capacity)
        .with_observe(observe);
    if w.tier {
        config = config.with_tier(dir);
    }
    let handle = ProxyHandle::new(
        TemplateManager::with_sky_defaults(),
        Arc::clone(&origin) as Arc<dyn Origin>,
        config,
    );
    (handle, origin)
}

/// Builds the proxy, warms it (origin delay off), restarts it on its
/// slab directory when the workload has a tier, and puts the edge in
/// front. Returns the stack and the seconds all that took.
pub fn set_up(w: &Workload, inputs: &Inputs, dir: &Path, traced: bool) -> (Stack, f64) {
    let started = Instant::now();
    let spans = traced.then(|| Arc::new(SpanLog::new()));
    let (mut handle, mut origin) = build_proxy(w, inputs, dir, spans.clone());
    for q in &inputs.trace.queries[..inputs.warm] {
        handle
            .handle_form_xml(FORM, &q.form_fields())
            .expect("warm-up queries serve");
    }
    if w.tier {
        handle.quiesce_revalidations();
        drop(handle);
        (handle, origin) = build_proxy(w, inputs, dir, spans.clone());
    }
    let service = Arc::new(ProxyEdgeService::new(handle.clone()));
    let edge_stats = service.edge_stats();
    let edge: Arc<dyn EdgeService> = match &spans {
        Some(log) => Arc::new(TracedService {
            inner: service,
            log: Arc::clone(log),
        }),
        None => service,
    };
    let server = EdgeServer::bind(
        "127.0.0.1:0",
        edge,
        EdgeConfig::default()
            .with_stats(edge_stats)
            .with_observer(handle.observer_shared()),
    )
    .expect("edge server binds an ephemeral loopback port");
    let secs = started.elapsed().as_secs_f64();
    (
        Stack {
            handle,
            origin,
            spans,
            server,
        },
        secs,
    )
}

/// Timed requests handed out in order, wrapping around the timed part
/// of the trace when a long ladder exhausts it.
struct Cursor {
    next: usize,
}

impl Cursor {
    fn take(&mut self, inputs: &Inputs, n: usize) -> (Vec<Vec<u8>>, Vec<usize>) {
        let len = inputs.timed_len();
        let mut bytes = Vec::with_capacity(n);
        let mut positions = Vec::with_capacity(n);
        for _ in 0..n {
            let p = inputs.warm + self.next % len;
            bytes.push(crate::loadgen::request_bytes(&inputs.targets[p], p as u64));
            positions.push(p);
            self.next += 1;
        }
        (bytes, positions)
    }
}

/// One driven phase plus which trace position each sample answered.
pub struct Phase {
    pub result: PhaseResult,
    pub positions: Vec<usize>,
}

fn drive(
    addr: SocketAddr,
    conns: usize,
    rate: f64,
    requests: &[Vec<u8>],
    drain: Duration,
) -> PhaseResult {
    let mut gen = Generator::connect(addr, conns).expect("generator connects");
    gen.run(&Plan {
        rate,
        requests,
        drain,
        pause: None,
    })
    .expect("generator runs")
}

/// Oracle: every 200 answer must hold exactly the origin's row set.
/// Each mismatch is reported on standard error with what to replay.
fn mismatches(inputs: &Inputs, phases: &[&Phase]) -> u64 {
    let mut bad = 0;
    for phase in phases {
        for (s, &p) in phase.result.samples.iter().zip(&phase.positions) {
            let want = inputs.expected[p].digest;
            if s.status == 200 && s.digest != want {
                eprintln!(
                    "oracle mismatch: trace position {p} ({}), served {:?} with {} rows, origin has {} rows",
                    inputs.targets[p], s.cache, s.digest.rows, want.rows
                );
                bad += 1;
            }
        }
    }
    bad
}

fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.ok())
        .filter_map(Sample::latency_ms)
        .collect()
}

/// Requests that failed: transport errors, non-200 answers, and
/// requests still unanswered when the phase ended.
pub fn failures(samples: &[Sample]) -> u64 {
    samples.iter().filter(|s| !s.ok()).count() as u64
}

/// Whether a ladder probe met the workload's limit: everything answered
/// 200, p99 within the limit, and no backlog beyond what the limit
/// itself allows in flight.
fn probe_passes(w: &Workload, rate: f64, r: &PhaseResult) -> bool {
    let backlog_cap = (rate * w.p99_limit_ms / 1e3).ceil() as usize + 8;
    failures(&r.samples) == 0
        && percentile(&latencies(&r.samples), 0.99) <= w.p99_limit_ms
        && r.backlog_at_end <= backlog_cap
}

/// Answered requests per second over a probe: the middle 80 % of its
/// answers divided by the time they took to arrive, so neither the
/// ramp-up nor a straggling last answer skews it.
fn achieved_qps(r: &PhaseResult) -> f64 {
    let mut done: Vec<u64> = r
        .samples
        .iter()
        .filter(|s| s.ok())
        .filter_map(|s| s.done_ns)
        .collect();
    done.sort_unstable();
    if done.len() < 10 {
        return 0.0;
    }
    let (a, b) = (done.len() / 10, done.len() * 9 / 10);
    (b - a) as f64 / ((done[b] - done[a]).max(1) as f64 / 1e9)
}

/// The `q`-quantile of each consecutive window of about `WINDOW`
/// samples (at least one window).
fn window_quantiles(samples: &[&Sample], q: f64) -> Vec<f64> {
    let windows = (samples.len() / WINDOW).max(1);
    let per = samples.len() / windows;
    (0..windows)
        .map(|i| {
            let end = if i + 1 == windows {
                samples.len()
            } else {
                (i + 1) * per
            };
            let lat: Vec<f64> = samples[i * per..end]
                .iter()
                .filter(|s| s.ok())
                .filter_map(|s| s.latency_ms())
                .collect();
            percentile(&lat, q)
        })
        .collect()
}

/// Sub-seed of part `j`: deterministic in `(seed, j)`.
fn part_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(j as u64)
}

/// What one part's fixed-rate phase measured.
struct Part {
    samples: Vec<Sample>,
    n: u64,
    completed: u64,
    hits: u64,
    cpu_ms_per_req: f64,
    origin_kb_per_req: f64,
    /// Origin bytes over the bytes of every answer in the window.
    origin_byte_share: f64,
    mem_mb: f64,
    setup_s: f64,
    /// Overlap answers served from a combined remainder fetch, fixed
    /// phase and ladder together.
    batched: usize,
    census: Census,
    edge_identity: bool,
    outcome_identity: bool,
    note: String,
}

/// The `max_qps` ladder on a set-up stack: climb in strides from the
/// fixed rate's verdict, then bisect. Returns the achieved rate of the
/// highest passing rung (0 when none passes), the probes as
/// `(rung, pass)`, and every probe phase for the oracle.
fn ladder(
    w: &Workload,
    cfg: &RunConfig,
    stack: &Stack,
    inputs: &Inputs,
    cursor: &mut Cursor,
    fixed: &PhaseResult,
) -> (f64, Vec<(i32, bool)>, Vec<Phase>) {
    let fixed_pass = probe_passes(w, cfg.rate, fixed);
    let mut probes = vec![(0, fixed_pass)];
    let mut achieved = vec![(0, achieved_qps(fixed))];
    let mut phases = Vec::new();
    let mut probe = |k: i32| -> bool {
        let rate = cfg.rate * LADDER_STEP.powi(k);
        let (reqs, positions) = cursor.take(inputs, (rate * PROBE_S).round() as usize);
        let result = drive(stack.addr(), cfg.conns, rate, &reqs, Duration::from_secs(1));
        let pass = probe_passes(w, rate, &result);
        if !pass {
            // Let the server work off an overload before the next probe.
            std::thread::sleep(Duration::from_millis(500));
        }
        probes.push((k, pass));
        achieved.push((k, achieved_qps(&result)));
        phases.push(Phase { result, positions });
        pass
    };
    let (mut lo, mut hi) = if fixed_pass {
        let mut lo = 0;
        let mut k = LADDER_STRIDE;
        while k <= LADDER_MAX && probe(k) {
            lo = k;
            k += LADDER_STRIDE;
        }
        (lo, k.min(LADDER_MAX + 1))
    } else {
        let mut hi = 0;
        let mut k = -LADDER_STRIDE;
        while k >= LADDER_MIN && !probe(k) {
            hi = k;
            k -= LADDER_STRIDE;
        }
        (k.max(LADDER_MIN - 1), hi)
    };
    while hi - lo > 1 {
        let mid = (lo + hi).div_euclid(2);
        if probe(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let max_qps = achieved
        .iter()
        .rev()
        .find(|&&(k, _)| k == lo)
        .map_or(0.0, |&(_, qps)| qps);
    (max_qps, probes, phases)
}

/// The untraced run: the end-to-end metrics.
pub fn run_untraced(w: &Workload, cfg: &RunConfig, site: &SkySite) -> RunResult {
    let per_part = (cfg.rate * cfg.seconds * FIXED_SHARE / w.parts as f64).round() as usize;
    let tmp = TempDir::new(&cfg.out_dir, "slabs");
    let sampler = RssSampler::start();
    let mut parts = Vec::new();
    let mut bad = 0;
    let mut ladder_out = None;
    let mut last_inputs = None;
    for j in 0..w.parts {
        let last = j + 1 == w.parts;
        // The last part also feeds the ladder.
        let timed = per_part
            + if last {
                (cfg.rate * cfg.seconds) as usize
            } else {
                0
            };
        let inputs = Inputs::prepare(w, site, part_seed(cfg.seed, j), cfg.scale, timed);
        crate::sys::trim_heap();
        let rss_base = crate::sys::rss_bytes();
        sampler.reset();
        let (stack, setup_s) = set_up(w, &inputs, &tmp.path.join(format!("part-{j}")), false);
        stack.origin.set_wait(true);
        let mut cursor = Cursor { next: 0 };
        let (reqs, positions) = cursor.take(&inputs, per_part);
        let edge0 = stack.edge();
        let origin0 = stack.origin.totals();
        let (cpu0, sampler_cpu0) = (crate::sys::process_cpu_ns(), sampler.cpu_ns());
        let result = drive(
            stack.addr(),
            cfg.conns,
            cfg.rate,
            &reqs,
            Duration::from_secs(3),
        );
        let cpu = crate::sys::process_cpu_ns() - cpu0;
        let sampler_cpu = sampler.cpu_ns() - sampler_cpu0;
        let origin = stack.origin.totals() - origin0;
        let edge1 = stack.edge();
        let fixed = Phase { result, positions };

        let samples = &fixed.result.samples;
        let n = samples.len() as u64;
        let completed = n - failures(samples);
        let hits = samples
            .iter()
            .filter(|s| s.ok() && s.cache.is_hit())
            .count() as u64;
        let misses = samples
            .iter()
            .filter(|s| s.ok() && s.cache.is_miss())
            .count() as u64;
        // Proxy CPU: the whole process minus the generator thread, the
        // origin's own executions and the RSS sampler.
        let proxy_cpu = cpu
            .saturating_sub(fixed.result.gen_cpu_ns)
            .saturating_sub(origin.exec_cpu_ns)
            .saturating_sub(sampler_cpu);
        let (fast, offloaded, shed) = (
            edge1.fast_path - edge0.fast_path,
            edge1.offloaded - edge0.offloaded,
            edge1.shed_total() - edge0.shed_total(),
        );
        let edge_requests = edge1.requests - edge0.requests;
        // Every answered request was settled at the edge; with requests
        // still unanswered the identity is not yet due.
        let all_answered = samples.iter().all(|s| s.done_ns.is_some());
        let edge_identity = !all_answered || edge_requests == fast + offloaded + shed;
        let outcome_identity = hits + misses == completed;
        let overlaps = samples
            .iter()
            .filter(|s| s.ok() && s.cache == CacheTag::Overlap)
            .count();
        let note = format!(
            "part {j}: edge requests {edge_requests} = fast {fast} + offloaded {offloaded} + shed {shed} ({}); \
             hits {hits} + misses {misses} = completed {completed} ({}); \
             overlap answers {overlaps}",
            if edge_identity { "ok" } else { "MISMATCH" },
            if outcome_identity { "ok" } else { "MISMATCH" },
        );

        let mut phases = Vec::new();
        if last {
            let out = ladder(w, cfg, &stack, &inputs, &mut cursor, &fixed.result);
            phases = out.2;
            ladder_out = Some((out.0, out.1));
        }
        let peak = sampler.peak();
        let batched = stack.handle.runtime_stats().batched_remainders;
        stack.shutdown();
        // Oracle, outside every timed window and outside set-up.
        let mut checked = vec![&fixed];
        checked.extend(phases.iter());
        bad += mismatches(&inputs, &checked);
        let census = inputs.census(0, per_part);
        let origin_kb_per_req = origin.bytes as f64 / 1e3 / n.max(1) as f64;
        parts.push(Part {
            samples: fixed.result.samples.clone(),
            n,
            completed,
            hits,
            cpu_ms_per_req: proxy_cpu as f64 / 1e6 / completed.max(1) as f64,
            origin_kb_per_req,
            origin_byte_share: origin_kb_per_req / census.forward_kb_per_req.max(1e-9),
            mem_mb: peak.saturating_sub(rss_base) as f64 / 1e6,
            setup_s,
            batched,
            census,
            edge_identity,
            outcome_identity,
            note,
        });
        last_inputs = Some(inputs);
    }
    drop(sampler);

    // More set-ups when the parts gave fewer than `SETUPS`.
    let mut setups: Vec<f64> = parts.iter().map(|p| p.setup_s).collect();
    let inputs = last_inputs.expect("at least one part");
    for i in setups.len()..SETUPS {
        let (s, secs) = set_up(w, &inputs, &tmp.path.join(format!("setup-{i}")), false);
        s.shutdown();
        setups.push(secs);
    }

    let (max_qps, probes) = ladder_out.expect("the last part runs the ladder");
    let sum = |f: fn(&Part) -> u64| parts.iter().map(f).sum::<u64>();
    let med = |f: fn(&Part) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
    let (n, completed, hits) = (sum(|p| p.n), sum(|p| p.completed), sum(|p| p.hits));
    // Latency windows run over the parts' samples back to back.
    let all: Vec<&Sample> = parts.iter().flat_map(|p| p.samples.iter()).collect();
    let p50s = window_quantiles(&all, 0.5);
    let p99s = window_quantiles(&all, 0.99);
    let k = parts.len() as f64;
    let census = Census {
        hit_share: parts.iter().map(|p| p.census.hit_share).sum::<f64>() / k,
        forward_kb_per_req: parts
            .iter()
            .map(|p| p.census.forward_kb_per_req)
            .sum::<f64>()
            / k,
        new_target_kb_per_req: parts
            .iter()
            .map(|p| p.census.new_target_kb_per_req)
            .sum::<f64>()
            / k,
    };
    let checks = Checks {
        edge_identity: parts.iter().all(|p| p.edge_identity),
        outcome_identity: parts.iter().all(|p| p.outcome_identity),
        census,
        hit_rate: hits as f64 / n.max(1) as f64,
        origin_kb_per_req: parts.iter().map(|p| p.origin_kb_per_req).sum::<f64>() / k,
    };

    let mut notes: Vec<String> = parts.iter().map(|p| p.note.clone()).collect();
    notes.push(format!(
        "census of the fixed windows: unlimited-cache hit share {:.4}, forward-all {:.3} kB/req, \
         first-seen targets {:.3} kB/req",
        census.hit_share, census.forward_kb_per_req, census.new_target_kb_per_req
    ));
    notes.push(format!(
        "ladder probes (rung, pass): {probes:?}; rung k offers {} x {LADDER_STEP}^k req/s for {PROBE_S} s",
        cfg.rate
    ));
    notes.push(format!(
        "per part: cpu_ms_per_req {:?}, origin_kb_per_req {:?}, origin_byte_share {:?}, mem_mb {:?}",
        parts.iter().map(|p| p.cpu_ms_per_req).collect::<Vec<_>>(),
        parts.iter().map(|p| p.origin_kb_per_req).collect::<Vec<_>>(),
        parts.iter().map(|p| p.origin_byte_share).collect::<Vec<_>>(),
        parts.iter().map(|p| p.mem_mb).collect::<Vec<_>>(),
    ));
    notes.push(format!(
        "overlap answers from batched remainders per part (fixed phase and ladder): {:?}",
        parts.iter().map(|p| p.batched).collect::<Vec<_>>()
    ));
    notes.push(format!(
        "p50 windows {p50s:?}; p99 windows {p99s:?}; set-ups (s) {setups:?}; oracle mismatches {bad}; \
         last part: distinct result bytes {}, RAM budget {:?}",
        inputs.distinct_bytes, inputs.capacity
    ));

    let failed = (n - completed) + bad;
    let per_window = completed / p99s.len().max(1) as u64;
    let metrics = vec![
        metric("p50_ms", median(&p50s), "ms", completed),
        metric("p99_ms", median(&p99s), "ms", per_window),
        metric("max_qps", max_qps, "req/s", probes.len() as u64),
        metric("cpu_ms_per_req", med(|p| p.cpu_ms_per_req), "ms", completed),
        metric("hit_rate", checks.hit_rate, "ratio", n),
        metric("origin_kb_per_req", med(|p| p.origin_kb_per_req), "kB", n),
        metric(
            "origin_byte_share",
            med(|p| p.origin_byte_share),
            "ratio",
            n,
        ),
        metric("mem_mb", med(|p| p.mem_mb), "MB", parts.len() as u64),
        metric("failed_frac", failed as f64 / n.max(1) as f64, "ratio", n),
        metric("setup_s", median(&setups), "s", setups.len() as u64),
    ];
    RunResult {
        correct: bad == 0 && checks.edge_identity && checks.outcome_identity,
        attempted: n,
        failed,
        metrics,
        notes,
        checks: Some(checks),
    }
}

/// The traced run: per-layer metrics. An untraced fixed-rate phase
/// first gives the reference `p50_ms` for `trace_overhead`; then a
/// proxy with every request sampled and the benchmark's spans on serves
/// the same requests.
pub fn run_traced(w: &Workload, cfg: &RunConfig, site: &SkySite) -> RunResult {
    let n = (cfg.rate * cfg.seconds * FIXED_SHARE / 2.0).round() as usize;
    let inputs = Inputs::prepare(w, site, part_seed(cfg.seed, 0), cfg.scale, n);
    let tmp = TempDir::new(&cfg.out_dir, "slabs");
    let (reqs, positions) = Cursor { next: 0 }.take(&inputs, n);

    let (plain, _) = set_up(w, &inputs, &tmp.path.join("plain"), false);
    plain.origin.set_wait(true);
    let untraced = Phase {
        result: drive(
            plain.addr(),
            cfg.conns,
            cfg.rate,
            &reqs,
            Duration::from_secs(3),
        ),
        positions: positions.clone(),
    };
    plain.shutdown();
    let untraced_p50 = percentile(&latencies(&untraced.result.samples), 0.5);

    let (stack, _) = set_up(w, &inputs, &tmp.path.join("traced"), true);
    stack.origin.set_wait(true);
    stack.origin.take_exec_ns();
    let before = layers::Counters::read(&stack);
    let traced = Phase {
        result: drive(
            stack.addr(),
            cfg.conns,
            cfg.rate,
            &reqs,
            Duration::from_secs(3),
        ),
        positions,
    };
    let after = layers::Counters::read(&stack);
    stack.origin.set_wait(false);
    let mut metrics = layers::per_layer(&inputs, &stack, &traced, &before, &after, untraced_p50);
    metrics.extend(layers::crate_layers(&inputs, &traced.positions));

    let bad = mismatches(&inputs, &[&traced, &untraced]);
    let mut notes = Vec::new();
    if let Some(log) = &stack.spans {
        log.record_generator(&traced.result, &traced.positions);
        let path = cfg
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", w.name, cfg.seed));
        match log.write_jsonl(&path) {
            Ok(()) => notes.push(format!("spans written to {}", path.display())),
            Err(e) => notes.push(format!("spans not written: {e}")),
        }
    }
    stack.shutdown();
    notes.push(format!("oracle mismatches {bad}"));
    let attempted = traced.result.samples.len() as u64;
    RunResult {
        correct: bad == 0,
        attempted,
        failed: failures(&traced.result.samples) + bad,
        metrics,
        notes,
        checks: None,
    }
}

/// A scratch directory under the benchmark's output directory, removed
/// (with everything in it) when dropped.
pub struct TempDir {
    pub path: PathBuf,
}

impl TempDir {
    pub fn new(parent: &Path, tag: &str) -> TempDir {
        let path = parent.join(format!("tmp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("scratch directory is creatable");
        TempDir { path }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
