//! Cache-hit hot-path micro-benchmarks: row-major local evaluation vs
//! the columnar SoA + micro-index + slab-assembly path.
//!
//! Three questions, each a group:
//! * `hit_select` / `hit_serve` — how much faster is the columnar path
//!   at selecting a contained region, and at producing the response
//!   *bytes* (the quantity a client actually waits on)?
//! * `micro_index` — where is the flat/zones/grid crossover? (The
//!   constants in `fp_skyserver::columnar` encode the answer.)
//! * `build` — what does the columnar form cost at insert time, and
//!   what does landing a miss cost (`miss_land`: the form, the charged
//!   size read off it, and the response body copied out of it)?
//!
//! The run ends with a headline `speedup:` line measuring the end-to-end
//! serve ratio at 10 000 rows — the PR-acceptance number.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fp_geometry::{HyperSphere, Point, Region};
use fp_skyserver::{ColumnarRows, IndexKind, ResultSet};
use fp_sqlmini::Value;
use funcproxy::query::{eval_entry_region, eval_region_over, EvalScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Coordinate columns (`cx`, `cy`, `cz`) within the radial template's
/// eleven-column result shape.
const COORD_IDX: [usize; 3] = [3, 4, 5];

/// A synthetic cached entry shaped like a radial-template result:
/// `objID` plus unit-cube coordinates plus five magnitude columns.
fn entry(rows: usize, seed: u64) -> ResultSet {
    let mut rng = StdRng::seed_from_u64(seed);
    ResultSet {
        columns: [
            "objID", "ra", "dec", "cx", "cy", "cz", "u", "g", "r", "i", "z",
        ]
        .iter()
        .map(|c| c.to_string())
        .collect(),
        rows: (0..rows)
            .map(|i| {
                let mut row = vec![
                    Value::Int(i as i64),
                    Value::Float(rng.gen_range(0.0..360.0)),
                    Value::Float(rng.gen_range(-90.0..90.0)),
                ];
                for _ in 0..3 {
                    row.push(Value::Float(rng.gen_range(-1.0..1.0)));
                }
                for _ in 0..5 {
                    row.push(Value::Float(rng.gen_range(14.0..24.0)));
                }
                row
            })
            .collect(),
    }
}

/// A ball around the origin covering roughly `fraction` of the unit
/// cube the coordinates are drawn from.
fn ball(fraction: f64) -> Region {
    let radius = (fraction * 8.0 * 3.0 / (4.0 * std::f64::consts::PI)).cbrt();
    Region::Sphere(HyperSphere::new(Point::from_slice(&[0.0, 0.0, 0.0]), radius).unwrap())
}

const SIZES: [usize; 2] = [1_000, 10_000];
const SELECTIVITIES: [(&str, f64); 2] = [("1pct", 0.01), ("10pct", 0.10)];

fn bench_hit_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("hit_select");
    group.sample_size(50);
    for &rows in &SIZES {
        let rs = entry(rows, 7);
        let col = ColumnarRows::build(&rs, &COORD_IDX).expect("numeric entry");
        for &(label, fraction) in &SELECTIVITIES {
            let region = ball(fraction);
            group.bench_with_input(
                BenchmarkId::new(format!("row_major/{label}"), rows),
                &rows,
                |b, _| b.iter(|| eval_region_over(&rs, &COORD_IDX, black_box(&region)).unwrap()),
            );
            let mut scratch = EvalScratch::default();
            group.bench_with_input(
                BenchmarkId::new(format!("columnar/{label}"), rows),
                &rows,
                |b, _| {
                    b.iter(|| {
                        eval_entry_region(
                            &rs,
                            Some(&col),
                            &COORD_IDX,
                            black_box(&region),
                            &mut scratch,
                        )
                        .unwrap()
                        .result
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_hit_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("hit_serve");
    group.sample_size(50);
    for &rows in &SIZES {
        let rs = entry(rows, 7);
        let col = ColumnarRows::build(&rs, &COORD_IDX).expect("numeric entry");
        let region = ball(0.10);
        group.bench_with_input(BenchmarkId::new("row_major", rows), &rows, |b, _| {
            b.iter(|| {
                eval_region_over(&rs, &COORD_IDX, black_box(&region))
                    .unwrap()
                    .to_xml_string()
                    .into_bytes()
            })
        });
        let mut selected = Vec::new();
        let mut point = Vec::new();
        group.bench_with_input(BenchmarkId::new("columnar", rows), &rows, |b, _| {
            b.iter(|| {
                col.select_region(black_box(&region), &mut selected, &mut point);
                col.assemble_document(&selected)
            })
        });
    }
    group.finish();
}

fn bench_micro_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_index");
    group.sample_size(50);
    let region = ball(0.01);
    for rows in [256, 1_024, 4_096, 16_384] {
        let rs = entry(rows, 11);
        for kind in [IndexKind::Flat, IndexKind::Zones, IndexKind::Grid] {
            let col = ColumnarRows::build_with_index(&rs, &COORD_IDX, kind).expect("numeric");
            let mut selected = Vec::new();
            let mut point = Vec::new();
            group.bench_with_input(
                BenchmarkId::new(format!("{kind:?}").to_lowercase(), rows),
                &rows,
                |b, _| b.iter(|| col.select_region(black_box(&region), &mut selected, &mut point)),
            );
        }
    }
    group.finish();
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("build");
    group.sample_size(20);
    for &rows in &SIZES {
        let rs = entry(rows, 13);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| ColumnarRows::build(&rs, &COORD_IDX).unwrap())
        });
    }
    for rows in [10, 100, 1_000] {
        let rs = entry(rows, 17);
        group.bench_with_input(BenchmarkId::new("miss_land", rows), &rows, |b, _| {
            b.iter(|| {
                let col = ColumnarRows::build(black_box(&rs), &COORD_IDX).unwrap();
                (col.document_len(), col.full_document())
            })
        });
    }
    group.finish();
}

/// The acceptance number: end-to-end serve (select + response bytes) at
/// a 10 000-row entry, columnar vs row-major, printed as a ratio.
fn headline_speedup(_c: &mut Criterion) {
    let rs = entry(10_000, 7);
    let col = ColumnarRows::build(&rs, &COORD_IDX).expect("numeric entry");
    let region = ball(0.10);
    let iters = 60;

    let start = Instant::now();
    for _ in 0..iters {
        black_box(
            eval_region_over(&rs, &COORD_IDX, &region)
                .unwrap()
                .to_xml_string()
                .into_bytes(),
        );
    }
    let row_major = start.elapsed();

    let mut selected = Vec::new();
    let mut point = Vec::new();
    let start = Instant::now();
    for _ in 0..iters {
        col.select_region(&region, &mut selected, &mut point);
        black_box(col.assemble_document(&selected));
    }
    let columnar = start.elapsed();

    println!(
        "speedup: columnar serve is {:.1}x row-major at 10000 rows ({:.2} ms vs {:.2} ms per hit)",
        row_major.as_secs_f64() / columnar.as_secs_f64().max(1e-12),
        columnar.as_secs_f64() * 1e3 / iters as f64,
        row_major.as_secs_f64() * 1e3 / iters as f64,
    );
}

/// The observability acceptance number: what the observe layer adds to
/// one exact-hit serve — a sampled-trace decision, three phase records,
/// one outcome record, and one span — as a fraction of the columnar
/// serve latency at a 10 000-row entry. Must stay ≤ 5 %.
fn headline_observe_overhead(_c: &mut Criterion) {
    use funcproxy::observe::{OutcomeClass, PathClass, Phase};
    use funcproxy::{ObserveConfig, Observer};

    let rs = entry(10_000, 7);
    let col = ColumnarRows::build(&rs, &COORD_IDX).expect("numeric entry");
    let region = ball(0.10);
    let iters = 100u32;
    // Best-of-three wall times so scheduler noise cannot fake (or mask)
    // an overhead regression.
    fn measure<F: FnMut()>(iters: u32, mut body: F) -> std::time::Duration {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    body();
                }
                start.elapsed()
            })
            .min()
            .unwrap()
    }

    let (mut selected, mut point) = (Vec::new(), Vec::new());
    let bare = measure(iters, || {
        col.select_region(&region, &mut selected, &mut point);
        black_box(col.assemble_document(&selected));
    });

    // The same serve plus exactly the recording the runtime performs on
    // an exact hit, at the default 1-in-16 trace sampling.
    let obs = Observer::new(&ObserveConfig::default());
    let (mut s2, mut p2) = (Vec::new(), Vec::new());
    let instrumented = measure(iters, || {
        let _trace = obs.begin_trace();
        let req = Instant::now();
        col.select_region(&region, &mut s2, &mut p2);
        black_box(col.assemble_document(&s2));
        obs.record_phase(Phase::Classify, PathClass::Hit, 0.01);
        obs.record_phase(Phase::LocalEval, PathClass::Hit, 0.5);
        obs.record_phase(Phase::Serialize, PathClass::Hit, 0.4);
        obs.record_outcome(OutcomeClass::Exact, 1.0);
        obs.span("request", "proxy", req, req.elapsed(), || {
            Some("exact".into())
        });
    });

    let overhead =
        (instrumented.as_secs_f64() - bare.as_secs_f64()) / bare.as_secs_f64().max(1e-12) * 100.0;
    println!(
        "observe overhead: {:.2}% of exact-hit serve latency ({:.3} ms instrumented vs {:.3} ms bare per hit)",
        overhead.max(0.0),
        instrumented.as_secs_f64() * 1e3 / f64::from(iters),
        bare.as_secs_f64() * 1e3 / f64::from(iters),
    );
    assert!(
        overhead < 5.0,
        "observe recording must stay under 5% of serve latency (measured {overhead:.2}%)"
    );
}

criterion_group!(
    benches,
    bench_hit_select,
    bench_hit_serve,
    bench_micro_index,
    bench_build,
    headline_speedup,
    headline_observe_overhead,
);
criterion_main!(benches);
