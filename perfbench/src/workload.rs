//! The four workloads and the inputs each run derives from its seed:
//! the Radial-form trace, the wire bytes of every request, and — from
//! one direct execution of every distinct query against the origin
//! site, outside any timed window — the oracle's row digests, the
//! result sizes the RAM budgets are fractions of, and the trace census.

use crate::digest::RowDigest;
use fp_skyserver::columnar::result_to_xml_bytes;
use fp_skyserver::{Catalog, CatalogSpec, SkySite};
use fp_trace::stats::classify_trace;
use fp_trace::{Trace, TraceSpec};
use funcproxy::template::TemplateManager;
use std::collections::HashMap;

pub const FORM: &str = "/search/radial";

/// One traffic mix, with the offered rate and p99 limit it is judged at.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Fixed offered rate of the latency phase, requests/s: below the
    /// saturation rate (`max_qps`) the edge reached when the workload
    /// was defined.
    pub rate: f64,
    /// p99 latency limit for `max_qps`, ms.
    pub p99_limit_ms: f64,
    /// Queries replayed straight into the proxy during set-up.
    pub warm: usize,
    /// RAM budget as a share of the trace's distinct result bytes
    /// (`None` = unlimited).
    pub budget_share: Option<f64>,
    /// Attach the disk tier and restart the proxy on it during set-up.
    pub tier: bool,
    /// Independent traces (sub-seeds) the fixed-rate phase is split
    /// over, each on a freshly set-up proxy.
    pub parts: usize,
    spec: fn(u64, usize) -> TraceSpec,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hot-hits",
        why:
            "Zipf hot spots, ~90% exact or contained, unlimited warmed cache: the edge fast path, \
              local evaluation and serialization",
        rate: 250.0,
        p99_limit_ms: 1000.0,
        warm: 1_000,
        budget_share: None,
        tier: false,
        parts: 8,
        spec: |seed, queries| TraceSpec {
            seed,
            queries,
            exact: 0.45,
            contained: 0.45,
            overlap: 0.03,
            covering: 0.02,
            hotspots: 64,
            hotspot_zipf: 1.0,
            radius_arcmin: (2.0, 6.0),
            ..TraceSpec::default()
        },
    },
    Workload {
        name: "radial-budget",
        why: "paper-calibrated Radial mix, full semantic caching in a RAM budget of 1/6 of the \
              distinct result bytes: replacement, remainder queries and the origin",
        rate: 170.0,
        p99_limit_ms: 1000.0,
        warm: 1_500,
        budget_share: Some(1.0 / 6.0),
        tier: false,
        parts: 6,
        spec: |seed, queries| TraceSpec {
            seed,
            queries,
            ..TraceSpec::default()
        },
    },
    Workload {
        name: "churn-tiered",
        why: "uniform small-radius queries, RAM budget far below the working set, disk tier \
              restarted over ~6.4k regions: inserts, demotions, disk hits and classification",
        rate: 100.0,
        p99_limit_ms: 300.0,
        warm: 8_000,
        budget_share: Some(0.02),
        tier: true,
        parts: 3,
        spec: churn_spec,
    },
    Workload {
        name: "churn-ram",
        why: "churn-tiered's trace, no disk tier, a RAM budget of 1/4 of the distinct result \
              bytes: RAM-only replacement, where an evicted entry is refetched from the origin",
        rate: 100.0,
        p99_limit_ms: 300.0,
        warm: 2_000,
        budget_share: Some(0.25),
        tier: false,
        parts: 3,
        spec: churn_spec,
    },
];

/// Uniform, small-radius queries with no hot spots: mostly fresh
/// regions, a tenth exact and a tenth contained repeats.
fn churn_spec(seed: u64, queries: usize) -> TraceSpec {
    TraceSpec {
        seed,
        queries,
        exact: 0.1,
        contained: 0.1,
        overlap: 0.0,
        covering: 0.0,
        hotspot_fraction: 0.0,
        radius_arcmin: (1.0, 4.0),
        ..TraceSpec::default()
    }
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Sizes that shrink for the smoke tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub objects: usize,
    /// Divides every workload's warm-up length.
    pub warm_div: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        objects: 150_000,
        warm_div: 1,
    };

    /// The catalog the origin serves: the repository's default sky,
    /// `objects` rows, the same for every seed.
    pub fn site(&self) -> SkySite {
        SkySite::new(Catalog::generate(&CatalogSpec {
            objects: self.objects,
            ..CatalogSpec::default()
        }))
    }
}

/// What the origin answers for one distinct query.
#[derive(Debug, Clone, Copy)]
pub struct Expected {
    pub digest: RowDigest,
    pub bytes: usize,
}

/// Everything a run needs, derived from `(workload, seed, scale)`.
pub struct Inputs {
    pub site: SkySite,
    pub trace: Trace,
    pub warm: usize,
    /// Expected answer per trace position.
    pub expected: Vec<Expected>,
    /// Request target (`/search/radial?...`) per trace position.
    pub targets: Vec<String>,
    /// Distinct result bytes over the whole trace.
    pub distinct_bytes: usize,
    pub capacity: Option<usize>,
}

impl Inputs {
    pub fn prepare(w: &Workload, site: &SkySite, seed: u64, scale: Scale, timed: usize) -> Inputs {
        let site = site.clone();
        let warm = w.warm / scale.warm_div.max(1);
        let trace = (w.spec)(seed, warm + timed).generate();
        let manager = TemplateManager::with_sky_defaults();
        let mut by_target: HashMap<String, Expected> = HashMap::new();
        let mut expected = Vec::with_capacity(trace.len());
        let mut targets = Vec::with_capacity(trace.len());
        let mut distinct_bytes = 0;
        for q in &trace.queries {
            let target = format!("{FORM}?{}", q.query_string());
            let e = *by_target.entry(target.clone()).or_insert_with(|| {
                let bound = manager
                    .resolve_form(FORM, &q.form_fields())
                    .expect("trace queries bind to the Radial form");
                let out = site
                    .execute_query(&bound.query)
                    .expect("trace queries execute at the origin");
                assert_eq!(out.result.columns[0], "objID", "digests key on objID");
                distinct_bytes += out.stats.result_bytes;
                Expected {
                    digest: RowDigest::of_xml(&result_to_xml_bytes(&out.result)),
                    bytes: out.stats.result_bytes,
                }
            });
            expected.push(e);
            targets.push(target);
        }
        site.reset_load();
        let capacity = w
            .budget_share
            .map(|share| ((distinct_bytes as f64 * share) as usize).max(1));
        Inputs {
            site,
            trace,
            warm,
            expected,
            targets,
            distinct_bytes,
            capacity,
        }
    }

    /// Requests available after the warm-up prefix.
    pub fn timed_len(&self) -> usize {
        self.trace.len() - self.warm
    }

    /// Census of the timed positions `[from, from + n)` against
    /// everything before them: the share an unlimited cache answers
    /// wholly (exact + contained), the origin bytes per request with no
    /// cache, and those of first-seen targets only.
    pub fn census(&self, from: usize, n: usize) -> Census {
        let lo = self.warm + from;
        let hi = (lo + n).min(self.trace.len());
        let before = classify_trace(&self.trace.prefix(lo));
        let after = classify_trace(&self.trace.prefix(hi));
        let hits = (after.counts[0] + after.counts[1]) - (before.counts[0] + before.counts[1]);
        // `classify_trace` reports totals only, so bytes are summed per
        // position here.
        let mut seen: std::collections::HashSet<&str> =
            self.targets[..lo].iter().map(String::as_str).collect();
        let (mut all_bytes, mut unseen_bytes) = (0usize, 0usize);
        for i in lo..hi {
            all_bytes += self.expected[i].bytes;
            if seen.insert(&self.targets[i]) {
                unseen_bytes += self.expected[i].bytes;
            }
        }
        let n = (hi - lo).max(1) as f64;
        Census {
            hit_share: hits as f64 / n,
            forward_kb_per_req: all_bytes as f64 / n / 1e3,
            new_target_kb_per_req: unseen_bytes as f64 / n / 1e3,
        }
    }
}

/// The trace census behind a window of requests.
#[derive(Debug, Clone, Copy)]
pub struct Census {
    /// Exact + contained share against an unlimited cache.
    pub hit_share: f64,
    /// Origin kB/request with no cache at all.
    pub forward_kb_per_req: f64,
    /// Origin kB/request for first-seen targets only (what an unlimited
    /// exact-match cache would still fetch).
    pub new_target_kb_per_req: f64,
}
