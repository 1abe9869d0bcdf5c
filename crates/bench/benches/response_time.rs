//! Figure 5 companion bench: trace replay wall time for the four proxy
//! configurations (ACR / ACNR / PC / NC). The simulated response-time
//! *series* of Figure 5 is printed by `repro figure5`; this bench isolates
//! the real compute cost of each configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fp_bench::{make_proxy, Experiment, Scale};
use fp_trace::Rbe;
use funcproxy::cache::DescriptionKind;
use funcproxy::{CostModel, Scheme};

fn bench_response_time(c: &mut Criterion) {
    let exp = Experiment::prepare(Scale::small());
    let rbe = Rbe::default();
    let configs: [(&str, Scheme, DescriptionKind); 4] = [
        ("ACR", Scheme::FullSemantic, DescriptionKind::RTree),
        ("ACNR", Scheme::FullSemantic, DescriptionKind::Array),
        ("PC", Scheme::Passive, DescriptionKind::Array),
        ("NC", Scheme::NoCache, DescriptionKind::Array),
    ];

    let mut group = c.benchmark_group("figure5_trace_replay");
    group.sample_size(10);
    let capacity = Some(exp.capacity_for(0.5));
    for (label, scheme, desc) in configs {
        group.bench_function(BenchmarkId::new("config", label), |b| {
            b.iter(|| {
                let proxy = make_proxy(&exp.site, scheme, desc, capacity, CostModel::free());
                rbe.run(&proxy, &exp.trace).expect("replay")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_response_time);
criterion_main!(benches);
