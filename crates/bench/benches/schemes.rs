//! Figure 6 companion bench: real compute cost of the three active
//! caching schemes (First = full semantic, Second = + region containment,
//! Third = containment only) over one trace, unlimited cache, array
//! description. `repro figure6` prints the simulated response-time bars.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fp_bench::{make_proxy, Experiment, Scale};
use fp_trace::Rbe;
use funcproxy::cache::DescriptionKind;
use funcproxy::{CostModel, Scheme};

fn bench_schemes(c: &mut Criterion) {
    let exp = Experiment::prepare(Scale::small());
    let rbe = Rbe::default();

    let mut group = c.benchmark_group("figure6_active_schemes");
    group.sample_size(10);
    for (label, scheme) in [
        ("First", Scheme::FullSemantic),
        ("Second", Scheme::RegionContainment),
        ("Third", Scheme::ContainmentOnly),
    ] {
        group.bench_function(BenchmarkId::new("scheme", label), |b| {
            b.iter(|| {
                let proxy = make_proxy(
                    &exp.site,
                    scheme,
                    DescriptionKind::Array,
                    None,
                    CostModel::free(),
                );
                rbe.run(&proxy, &exp.trace).expect("replay")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schemes);
criterion_main!(benches);
