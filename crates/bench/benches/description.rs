//! The §4.2 cache-description ablation, swept from 10² to 10⁶ regions:
//! candidate lookup and maintenance cost of the array ("ACNR"), the
//! R-tree ("ACR", the serving default) and a flat structure-of-arrays
//! box scan (bench-only: one column per corner coordinate, the layout
//! `ColumnarRows` gives cached rows, applied to the description).
//!
//! The paper found a linear search and a tree search about equal at
//! roughly 1,000 regions, with the R-tree's maintenance costlier. The
//! sweep measures both claims at every size instead of asserting them:
//!
//! - `description_lookup/<layout>/<n>`: one iteration probes a batch of
//!   radial-query boxes against `n` indexed regions (elem/s = probes/s);
//! - `description_churn/<layout>/<n>`: one iteration removes 256
//!   regions picked at random and re-inserts each under a fresh id, at
//!   steady size `n` (elem/s = remove+insert pairs/s), the way a proxy
//!   under a budget churns its description.
//!
//! Large sizes use fewer probes and samples so that
//! `cargo bench -p fp-bench --bench description -- --test` stays short.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fp_geometry::celestial::radial_query_sphere;
use fp_geometry::{approx_le, HyperRect, Region};
use funcproxy::cache::{CacheDescription, DescriptionKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic radial-query bounding boxes over the default sky window.
fn boxes(n: usize, seed: u64) -> Vec<HyperRect> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let ra = rng.gen_range(180.0..190.0);
            let dec = rng.gen_range(-3.0..3.0);
            let radius = rng.gen_range(2.0..20.0);
            Region::Sphere(radial_query_sphere(ra, dec, radius).expect("valid")).bounding_rect()
        })
        .collect()
}

/// The bench-only flat layout: ids plus one column per corner
/// coordinate, scanned column by column with the same ε test as
/// [`HyperRect::intersects_rect`].
struct SoaBoxes {
    ids: Vec<u64>,
    lo: Vec<Vec<f64>>,
    hi: Vec<Vec<f64>>,
}

impl SoaBoxes {
    fn new(dims: usize) -> Self {
        SoaBoxes {
            ids: Vec::new(),
            lo: vec![Vec::new(); dims],
            hi: vec![Vec::new(); dims],
        }
    }

    fn insert(&mut self, id: u64, bbox: HyperRect) {
        self.ids.push(id);
        for d in 0..self.lo.len() {
            self.lo[d].push(bbox.lo()[d]);
            self.hi[d].push(bbox.hi()[d]);
        }
    }

    fn remove(&mut self, id: u64) -> bool {
        let Some(i) = self.ids.iter().position(|e| *e == id) else {
            return false;
        };
        self.ids.swap_remove(i);
        for column in self.lo.iter_mut().chain(self.hi.iter_mut()) {
            column.swap_remove(i);
        }
        true
    }

    /// Scans one dimension's two columns at a time into a hit mask,
    /// without branches (the sky boxes share most of their x range, so
    /// a per-row branch would mispredict), then gathers the hits' ids.
    fn candidates(&self, bbox: &HyperRect, out: &mut Vec<u64>) {
        let (lo, hi) = (bbox.lo(), bbox.hi());
        let mut mask = vec![true; self.ids.len()];
        for d in 0..lo.len() {
            for ((m, l), h) in mask.iter_mut().zip(&self.lo[d]).zip(&self.hi[d]) {
                *m &= approx_le(*l, hi[d]) & approx_le(lo[d], *h);
            }
        }
        out.extend(
            self.ids
                .iter()
                .zip(&mask)
                .filter(|(_, hit)| **hit)
                .map(|(id, _)| *id),
        );
    }
}

/// One of the three swept layouts, filled and ready to probe.
enum Layout {
    Index(Box<dyn CacheDescription>),
    Soa(SoaBoxes),
}

const LAYOUTS: [&str; 3] = ["array", "rtree", "soa"];

impl Layout {
    fn empty(name: &str) -> Self {
        match name {
            "array" => Layout::Index(DescriptionKind::Array.make(3)),
            "rtree" => Layout::Index(DescriptionKind::RTree.make(3)),
            _ => Layout::Soa(SoaBoxes::new(3)),
        }
    }

    /// A layout holding `entries` under ids `0..n`.
    fn filled(name: &str, entries: Vec<HyperRect>) -> Self {
        let mut layout = Layout::empty(name);
        for (i, b) in entries.into_iter().enumerate() {
            layout.insert(i as u64, b);
        }
        layout
    }

    fn insert(&mut self, id: u64, bbox: HyperRect) {
        match self {
            Layout::Index(d) => d.insert(id, bbox),
            Layout::Soa(s) => s.insert(id, bbox),
        }
    }

    fn remove(&mut self, id: u64, bbox: &HyperRect) -> bool {
        match self {
            Layout::Index(d) => d.remove(id, bbox),
            Layout::Soa(s) => s.remove(id),
        }
    }

    fn candidates(&self, bbox: &HyperRect, out: &mut Vec<u64>) {
        match self {
            Layout::Index(d) => d.candidates(bbox, out),
            Layout::Soa(s) => s.candidates(bbox, out),
        }
    }
}

/// Probes per lookup iteration and sample size at description size `n`.
fn lookup_budget(n: usize) -> (usize, usize) {
    match n {
        0..=10_000 => (256, 100),
        10_001..=100_000 => (64, 10),
        _ => (16, 10),
    }
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("description_lookup");
    for n in [100usize, 1_000, 10_000, 100_000, 1_000_000] {
        let (probe_count, samples) = lookup_budget(n);
        let probes = boxes(probe_count, 7);
        group.sample_size(samples);
        group.throughput(Throughput::Elements(probe_count as u64));
        let mut expected = None;
        for name in LAYOUTS {
            // One layout alive at a time keeps the 10⁶ fixtures small.
            let layout = Layout::filled(name, boxes(n, 42));
            let mut out = Vec::with_capacity(64);
            let total: usize = probes
                .iter()
                .map(|p| {
                    out.clear();
                    layout.candidates(p, &mut out);
                    out.len()
                })
                .sum();
            assert_eq!(
                *expected.get_or_insert(total),
                total,
                "{name} disagrees at n={n}"
            );
            group.bench_with_input(BenchmarkId::new(name, n), &probes, |b, probes| {
                b.iter(|| {
                    let mut hits = 0usize;
                    for p in probes {
                        out.clear();
                        layout.candidates(p, &mut out);
                        hits += out.len();
                    }
                    hits
                });
            });
        }
    }
    group.finish();
}

/// Remove+insert pairs per churn iteration.
const CHURN_BATCH: usize = 256;

fn bench_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("description_churn");
    group.throughput(Throughput::Elements(CHURN_BATCH as u64));
    for n in [1_000usize, 10_000, 100_000] {
        group.sample_size(if n >= 100_000 { 10 } else { 100 });
        for name in LAYOUTS {
            let entries = boxes(n, 42);
            let mut layout = Layout::filled(name, entries.clone());
            let mut live: Vec<(u64, HyperRect)> = entries
                .into_iter()
                .enumerate()
                .map(|(i, b)| (i as u64, b))
                .collect();
            let mut next_id = n as u64;
            // Victims spread over the whole description, as replacement
            // picks them, drawn from one seeded stream per layout.
            let mut rng = StdRng::seed_from_u64(11);
            group.bench_function(BenchmarkId::new(name, n), |b| {
                b.iter(|| {
                    for _ in 0..CHURN_BATCH {
                        let (id, bbox) = live.swap_remove(rng.gen_range(0..live.len()));
                        assert!(layout.remove(id, &bbox));
                        layout.insert(next_id, bbox.clone());
                        live.push((next_id, bbox));
                        next_id += 1;
                    }
                    live.len()
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_lookup, bench_churn);
criterion_main!(benches);
