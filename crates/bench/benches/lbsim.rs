//! Criterion: load-balancer dispatch throughput — native baselines vs the
//! template host (compiled kbpf vs the interpreter oracle), on the
//! flash-crowd scenario, plus the isolated per-pick dispatch cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use policysmith_dsl::Mode;
use policysmith_kbpf::CompiledPolicy;
use policysmith_lbsim::dispatch::{Dispatcher, FleetColumns, ServerView};
use policysmith_lbsim::{by_name, lb_baseline_names, scenario, sim, ExprDispatcher};

const SCORE_SRC: &str = "server.inflight * 1000 / server.speed + server.queue_len * 50";

fn bench_dispatch(c: &mut Criterion) {
    let sc = scenario::flash_crowd();
    let reqs = sc.requests();
    let expr = policysmith_dsl::parse(SCORE_SRC).unwrap();
    let policy = CompiledPolicy::compile(&expr, Mode::Lb).unwrap();

    let mut g = c.benchmark_group("lbsim");
    g.throughput(Throughput::Elements(reqs.len() as u64));
    for name in lb_baseline_names() {
        g.bench_with_input(BenchmarkId::new("baseline", name), name, |b, name| {
            b.iter(|| {
                let mut d = by_name(name).unwrap();
                sim::run(&sc.servers, &reqs, &mut d)
            });
        });
    }
    g.bench_function("template-host/compiled", |b| {
        b.iter(|| {
            let mut host = ExprDispatcher::new("bench", policy.clone());
            sim::run(&sc.servers, &reqs, &mut host)
        });
    });
    g.bench_function("template-host/interpreted", |b| {
        b.iter(|| {
            let mut host = ExprDispatcher::interpreted("bench", expr.clone());
            sim::run(&sc.servers, &reqs, &mut host)
        });
    });
    g.finish();

    // The isolated dispatch decision (the redesign's acceptance metric):
    // one pick over a 6-server view, compiled vs interpreted.
    let servers: Vec<ServerView> = (0..6)
        .map(|i| ServerView {
            queue_len: i,
            inflight: i + 1,
            speed: 1 + (i as u32 % 3) * 3,
            ewma_latency_us: 900 * i as u64,
            work_left_us: 2_000 * i as u64,
        })
        .collect();
    let fleet = FleetColumns::from_rows(&servers, 1_000);
    let view = fleet.view(1_000, 7);
    let mut g = c.benchmark_group("lb-dispatch");
    g.bench_function("pick/compiled", |b| {
        let mut host = ExprDispatcher::new("bench", policy.clone());
        b.iter(|| host.pick(&view))
    });
    g.bench_function("pick/interpreted", |b| {
        let mut host = ExprDispatcher::interpreted("bench", expr.clone());
        b.iter(|| host.pick(&view))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_dispatch
}
criterion_main!(benches);
