//! Per-layer metrics of the traced run, named after the modules they
//! measure. They come from three places: the benchmark's own spans, the
//! program's existing counters and latency histograms (read as window
//! deltas), and replays of the workload's own inputs through the public
//! functions of the lower crates.

use crate::loadgen::CacheTag;
use crate::origin::OriginTotals;
use crate::run::{Metric, Phase, Stack};
use crate::spans::{Span, NO_REQUEST};
use crate::stats::{percentile, phase_snapshot, Window};
use crate::workload::{Inputs, FORM};
use fp_edge::EdgeSnapshot;
use fp_geometry::celestial::radial_query_sphere;
use fp_geometry::{HyperRect, Region};
use fp_rtree::RTree;
use funcproxy::cache::CacheStats;
use funcproxy::observe::{HistogramSnapshot, PathClass, Phase as ObsPhase};
use funcproxy::runtime::RuntimeSnapshot;
use funcproxy::template::TemplateManager;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Cumulative program counters at one instant.
pub struct Counters {
    edge: EdgeSnapshot,
    runtime: RuntimeSnapshot,
    cache: CacheStats,
    origin: OriginTotals,
    hist: HashMap<&'static str, HistogramSnapshot>,
}

/// The histograms read, keyed by a short name.
fn histograms(stack: &Stack) -> HashMap<&'static str, HistogramSnapshot> {
    let obs = stack.handle.observer();
    HashMap::from([
        ("parse", phase_snapshot(obs, ObsPhase::Parse)),
        ("queue_wait", phase_snapshot(obs, ObsPhase::QueueWait)),
        ("handoff", phase_snapshot(obs, ObsPhase::Handoff)),
        ("classify", phase_snapshot(obs, ObsPhase::Classify)),
        ("serialize", phase_snapshot(obs, ObsPhase::Serialize)),
        (
            "local_eval_hit",
            obs.phase_histogram(ObsPhase::LocalEval, PathClass::Hit)
                .snapshot(),
        ),
        (
            "local_eval_miss",
            obs.phase_histogram(ObsPhase::LocalEval, PathClass::Miss)
                .snapshot(),
        ),
    ])
}

impl Counters {
    pub fn read(stack: &Stack) -> Counters {
        Counters {
            edge: stack.edge(),
            runtime: stack.handle.runtime_stats(),
            cache: stack.handle.cache_stats(),
            origin: stack.origin.totals(),
            hist: histograms(stack),
        }
    }

    fn window(before: &Counters, after: &Counters, name: &str) -> Window {
        Window::new(before.hist[name].clone(), after.hist[name].clone())
    }
}

fn m(name: &str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

/// Durations (µs) of the spans called `name` among `spans`.
fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect()
}

pub fn per_layer(
    inputs: &Inputs,
    stack: &Stack,
    phase: &Phase,
    before: &Counters,
    after: &Counters,
    untraced_p50_ms: f64,
) -> Vec<Metric> {
    let samples = &phase.result.samples;
    let n = samples.len() as u64;
    let spans: Vec<Span> = stack
        .spans
        .as_ref()
        .map(|log| log.snapshot())
        .unwrap_or_default();

    // Service time per request: fast serve, or decline + offloaded
    // handle.
    let mut service_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.req != NO_REQUEST) {
        if matches!(s.name, "edge.fast" | "edge.decline" | "edge.handle") {
            *service_ns.entry(s.req).or_default() += s.dur_ns;
        }
    }
    let (mut e2e_total, mut covered_total) = (0u64, 0u64);
    let mut outside_us = Vec::new();
    let mut lat = Vec::new();
    for (s, &p) in samples.iter().zip(&phase.positions) {
        let Some(done) = s.done_ns else { continue };
        let e2e = done.saturating_sub(s.due_ns);
        let service = service_ns.get(&(p as u64)).copied().unwrap_or(0).min(e2e);
        e2e_total += e2e;
        covered_total += (service + s.lag_ns).min(e2e);
        outside_us.push((e2e - service) as f64 / 1e3);
        lat.push(e2e as f64 / 1e6);
    }
    let lag_ms: Vec<f64> = samples.iter().map(|s| s.lag_ns as f64 / 1e6).collect();
    let traced_p50 = percentile(&lat, 0.5);

    let w = |name| Counters::window(before, after, name);
    let (eb, ea) = (&before.edge, &after.edge);
    let (rb, ra) = (&before.runtime, &after.runtime);
    let (cb, ca) = (&before.cache, &after.cache);
    let origin = after.origin - before.origin;
    let exec_ms: Vec<f64> = stack
        .origin
        .take_exec_ns()
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let edge_requests = (ea.requests - eb.requests) as f64;
    let partial = samples.iter().filter(|s| s.cache.is_partial()).count();
    let (scanned, pruned, hits) = replay_hits(inputs, stack, phase);

    let fast = durations_us(&spans, "edge.fast");
    let decline = durations_us(&spans, "edge.decline");
    let handle_ms: Vec<f64> = durations_us(&spans, "edge.handle")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    let q = |win: &Window, quant: f64, scale: f64| win.quantile_ms(quant) * scale;
    let (parse, queue, handoff) = (w("parse"), w("queue_wait"), w("handoff"));
    let (classify, serialize) = (w("classify"), w("serialize"));
    let (le_hit, le_miss) = (w("local_eval_hit"), w("local_eval_miss"));
    let fetches = origin.fetches.max(1) as f64;
    vec![
        m("gen.lag_p99_ms", percentile(&lag_ms, 0.99), "ms", n),
        m(
            "edge.parse_p50_us",
            q(&parse, 0.5, 1e3),
            "us",
            parse.count(),
        ),
        m(
            "edge.fast_share",
            (ea.fast_path - eb.fast_path) as f64 / edge_requests.max(1.0),
            "ratio",
            edge_requests as u64,
        ),
        m(
            "edge.fast_serve_p50_us",
            percentile(&fast, 0.5),
            "us",
            fast.len() as u64,
        ),
        m(
            "edge.outside_p50_us",
            percentile(&outside_us, 0.5),
            "us",
            outside_us.len() as u64,
        ),
        m(
            "edge.pipelined",
            (ea.pipelined - eb.pipelined) as f64,
            "count",
            n,
        ),
        m(
            "edge.queue_wait_p99_ms",
            q(&queue, 0.99, 1.0),
            "ms",
            queue.count(),
        ),
        m(
            "edge.handoff_p99_ms",
            q(&handoff, 0.99, 1.0),
            "ms",
            handoff.count(),
        ),
        m(
            "edge.offload_serve_p50_ms",
            percentile(&handle_ms, 0.5),
            "ms",
            handle_ms.len() as u64,
        ),
        m(
            "edge.fast_decline_us",
            percentile(&decline, 0.5),
            "us",
            decline.len() as u64,
        ),
        m(
            "edge.shed",
            (ea.shed_total() - eb.shed_total()) as f64,
            "count",
            n,
        ),
        m(
            "runtime.classify_p50_us",
            q(&classify, 0.5, 1e3),
            "us",
            classify.count(),
        ),
        m(
            "runtime.classify_p99_us",
            q(&classify, 0.99, 1e3),
            "us",
            classify.count(),
        ),
        m(
            "runtime.lock_wait_ms",
            ra.lock_wait_ms - rb.lock_wait_ms,
            "ms",
            n,
        ),
        m(
            "runtime.serialize_p50_us",
            q(&serialize, 0.5, 1e3),
            "us",
            serialize.count(),
        ),
        m(
            "runtime.coalesced",
            ((ra.coalesced_exact + ra.coalesced_contained)
                - (rb.coalesced_exact + rb.coalesced_contained)) as f64,
            "count",
            n,
        ),
        m(
            "runtime.in_flight_peak",
            ra.in_flight_peak as f64,
            "count",
            1,
        ),
        m(
            "query.local_eval_hit_p50_us",
            q(&le_hit, 0.5, 1e3),
            "us",
            le_hit.count(),
        ),
        m(
            "query.local_eval_hit_p99_us",
            q(&le_hit, 0.99, 1e3),
            "us",
            le_hit.count(),
        ),
        m(
            "query.rows_scanned_per_hit",
            scanned as f64 / hits.max(1) as f64,
            "rows",
            hits,
        ),
        m(
            "query.rows_pruned_share",
            pruned as f64 / (scanned + pruned).max(1) as f64,
            "ratio",
            hits,
        ),
        m(
            "query.local_eval_miss_p50_us",
            q(&le_miss, 0.5, 1e3),
            "us",
            le_miss.count(),
        ),
        m(
            "query.partial_share",
            partial as f64 / n.max(1) as f64,
            "ratio",
            n,
        ),
        m("cache.entries", ca.entries as f64, "count", 1),
        m("cache.resident_mb", ca.bytes as f64 / 1e6, "MB", 1),
        m(
            "cache.evictions",
            (ca.evictions - cb.evictions) as f64,
            "count",
            n,
        ),
        m(
            "cache.compactions",
            (ca.compactions - cb.compactions) as f64,
            "count",
            n,
        ),
        m(
            "cache.demotions",
            (ca.demotions - cb.demotions) as f64,
            "count",
            n,
        ),
        m(
            "cache.promotions",
            (ca.promotions - cb.promotions) as f64,
            "count",
            n,
        ),
        m(
            "cache.disk_hits",
            (ra.disk_hits - rb.disk_hits) as f64,
            "count",
            n,
        ),
        m("cache.slab_mb", ca.slab_bytes as f64 / 1e6, "MB", 1),
        m(
            "cache.recovered_entries",
            ra.recovered_entries as f64,
            "count",
            1,
        ),
        m("origin.fetches", origin.fetches as f64, "count", n),
        m(
            "origin.remainder_fetches",
            origin.remainder_fetches as f64,
            "count",
            n,
        ),
        m(
            "origin.kb_per_fetch",
            origin.bytes as f64 / 1e3 / fetches,
            "kB",
            origin.fetches,
        ),
        m(
            "origin.rows_per_fetch",
            origin.rows as f64 / fetches,
            "rows",
            origin.fetches,
        ),
        m(
            "origin.exec_p50_ms",
            percentile(&exec_ms, 0.5),
            "ms",
            exec_ms.len() as u64,
        ),
        m(
            "origin.wait_ms",
            origin.wait_ns as f64 / 1e6 / fetches,
            "ms",
            origin.fetches,
        ),
        m(
            "unattributed_share",
            1.0 - covered_total as f64 / e2e_total.max(1) as f64,
            "ratio",
            lat.len() as u64,
        ),
        m(
            "trace_overhead",
            traced_p50 / untraced_p50_ms.max(1e-9),
            "ratio",
            lat.len() as u64,
        ),
    ]
}

/// Rows the local evaluator scanned and pruned per hit, read from the
/// program's per-request metrics by serving up to 400 of the window's
/// contained hits again straight through the handle, after the window
/// closed (exact hits evaluate no rows).
fn replay_hits(inputs: &Inputs, stack: &Stack, phase: &Phase) -> (u64, u64, u64) {
    let (mut scanned, mut pruned, mut hits) = (0u64, 0u64, 0u64);
    let hit_positions = phase
        .result
        .samples
        .iter()
        .zip(&phase.positions)
        .filter(|(s, _)| s.ok() && matches!(s.cache, CacheTag::Contained))
        .map(|(_, &p)| p)
        .take(400);
    for p in hit_positions {
        let fields = inputs.trace.queries[p].form_fields();
        if let Ok(r) = stack.handle.handle_form_xml(FORM, &fields) {
            if r.metrics.rows_scanned + r.metrics.rows_pruned > 0 {
                scanned += r.metrics.rows_scanned as u64;
                pruned += r.metrics.rows_pruned as u64;
                hits += 1;
            }
        }
    }
    (scanned, pruned, hits)
}

fn region(inputs: &Inputs, p: usize) -> Region {
    let q = inputs.trace.queries[p];
    Region::Sphere(radial_query_sphere(q.ra, q.dec, q.radius).expect("trace queries are valid"))
}

/// Replays the window's own inputs through the lower crates: SQL parse
/// of each request's bound query, and relate / R-tree search of each
/// request's region against every distinct region before the window.
pub fn crate_layers(inputs: &Inputs, positions: &[usize]) -> Vec<Metric> {
    let manager = TemplateManager::with_sky_defaults();
    let first = positions.first().copied().unwrap_or(inputs.warm);
    let sample: Vec<usize> = positions.iter().copied().take(200).collect();

    let sqls: Vec<String> = sample
        .iter()
        .map(|&p| {
            manager
                .resolve_form(FORM, &inputs.trace.queries[p].form_fields())
                .expect("trace queries bind")
                .sql
        })
        .collect();
    const PARSE_REPS: usize = 20;
    let started = Instant::now();
    for _ in 0..PARSE_REPS {
        for sql in &sqls {
            black_box(fp_sqlmini::parse_query(black_box(sql)).expect("bound SQL parses"));
        }
    }
    let parse_us = started.elapsed().as_secs_f64() * 1e6 / (PARSE_REPS * sqls.len()).max(1) as f64;

    let mut seen = HashSet::new();
    let prior: Vec<Region> = (0..first)
        .filter(|&p| seen.insert(inputs.targets[p].as_str()))
        .map(|p| region(inputs, p))
        .collect();
    let probes: Vec<Region> = sample.iter().map(|&p| region(inputs, p)).collect();
    let started = Instant::now();
    for r in &probes {
        for other in &prior {
            black_box(r.relate(black_box(other)));
        }
    }
    let relate_us = started.elapsed().as_secs_f64() * 1e6 / probes.len().max(1) as f64;

    let mut tree: RTree<usize> = RTree::new(3);
    tree.bulk_load(
        prior
            .iter()
            .enumerate()
            .map(|(i, r)| (r.bounding_rect(), i))
            .collect::<Vec<(HyperRect, usize)>>(),
    );
    let boxes: Vec<HyperRect> = probes.iter().map(Region::bounding_rect).collect();
    let started = Instant::now();
    let mut found = 0usize;
    for b in &boxes {
        found += black_box(tree.search_intersecting(b)).len();
    }
    black_box(found);
    let search_us = started.elapsed().as_secs_f64() * 1e6 / boxes.len().max(1) as f64;
    let k = sample.len() as u64;
    vec![
        m("sqlmini.parse_us", parse_us, "us", k * PARSE_REPS as u64),
        m("geometry.relate_us_per_req", relate_us, "us", k),
        m("rtree.search_us", search_us, "us", k),
    ]
}
