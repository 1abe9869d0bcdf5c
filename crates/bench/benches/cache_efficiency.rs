//! Table 1 companion bench: full trace replays under active vs passive
//! caching (the measured time is the whole proxy+origin pipeline per
//! scheme; the cache-efficiency *numbers* are printed by `repro table1`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fp_bench::{make_proxy, Experiment, Scale};
use fp_trace::Rbe;
use funcproxy::cache::DescriptionKind;
use funcproxy::{CostModel, Scheme};

fn bench_cache_efficiency(c: &mut Criterion) {
    let exp = Experiment::prepare(Scale::small());
    let rbe = Rbe::default();

    let mut group = c.benchmark_group("table1_trace_replay");
    group.sample_size(10);
    for (scheme, label) in [(Scheme::FullSemantic, "AC"), (Scheme::Passive, "PC")] {
        for (fraction, flabel) in [(1.0 / 6.0, "1/6"), (1.0, "1")] {
            let capacity = Some(exp.capacity_for(fraction));
            group.bench_with_input(
                BenchmarkId::new(label, flabel),
                &capacity,
                |b, &capacity| {
                    b.iter(|| {
                        // Cost model `free` so wall time measures real
                        // proxy + origin compute, not simulated WAN time.
                        let proxy = make_proxy(
                            &exp.site,
                            scheme,
                            DescriptionKind::Array,
                            capacity,
                            CostModel::free(),
                        );
                        rbe.run(&proxy, &exp.trace).expect("replay")
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_cache_efficiency);
criterion_main!(benches);
