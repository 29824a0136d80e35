//! Criterion: cache-policy throughput (requests/second), including the
//! PolicySmith template host vs. native baselines — the §4.1.2 overhead
//! question in numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use policysmith_cachesim::{paper_heuristic_a, policies, simulate};
use policysmith_core::search::Study;
use policysmith_core::studies::cache::CacheStudy;
use policysmith_traces::{cloudphysics, generate, WorkloadParams};

fn bench_policies(c: &mut Criterion) {
    let trace = generate("bench", &WorkloadParams::default(), 7, 50_000);
    let cap = (policysmith_traces::footprint_bytes(&trace) / 10).max(1);
    let mut g = c.benchmark_group("cachesim");
    g.throughput(Throughput::Elements(trace.len() as u64));
    for name in ["FIFO", "LRU", "GDSF", "SIEVE", "S3-FIFO", "LIRS", "LHD"] {
        g.bench_with_input(BenchmarkId::new("baseline", name), &name, |b, name| {
            b.iter(|| simulate(&trace, cap, policies::by_name(name).unwrap()));
        });
    }
    g.bench_function("template-host/listing1", |b| {
        b.iter(|| {
            let mut cache = policysmith_cachesim::Cache::new(cap, paper_heuristic_a());
            cache.run(&trace)
        });
    });

    // what a cache search pays per candidate: one `CacheStudy::evaluate`
    // (host construction + a full replay at 10 % of footprint) of a
    // candidate that reads eviction history and a percentile table
    let trace = cloudphysics().trace(89, 8_000);
    let study = CacheStudy::new(&trace);
    let candidate = study
        .check(
            "if(hist.contains, hist.count * 10 + 50, 0) + obj.count * 20 \
             - if(obj.size > sizes.p75, obj.age / 100, 0)",
        )
        .expect("the candidate compiles");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("candidate-eval-8k", |b| b.iter(|| study.evaluate(&candidate)));
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_policies
}
criterion_main!(benches);
